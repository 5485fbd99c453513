"""Explicit well-approximable subspace families with certified finite data.

The targets live in R^(2l): the column span of a block matrix carrying the
l x l identity on top and, at the bottom, an l x l matrix whose entries are
lacunary base-theta digit series.  Because the series converge extremely
fast, the integer matrices built from their partial sums span rational
subspaces that approach the target at a prescribed rate, which makes the
family a concrete testbed for proximity-versus-height measurements.

This module materializes the family exactly: admissibility thresholds for
the growth ratio, the prime base, deterministic digit streams, the integer
convergent matrices, the depth-truncated generators (the convergent at the
truncation depth, whose span carries a certified tail bound on its
distance to the target), and a per-index certification report covering
every inequality that is checkable at finite index.  The report keeps each
sine bracket as the dyadics of angles, which widens them too; this module
only summarizes them as doubles and prints them exactly (reports.sci_str).
"""

from __future__ import annotations

import decimal
import functools
import hashlib
import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from . import exact
from .angles import (
    PrecisionContext,
    RealBasis,
    angles_adaptive,  # no certificate calls it; perfbench's tracer rebinds it here
    exact_relative_bits,
    _ceil_dyadic,
    _dyadic_float,
    _float_down,
    _float_up,
    _log_dyadic,
    _pencil,
    _pencil_squares,
    _rounded,
    _sine_mantissa,
    _sqrt_bracket,
    _sqrt_scale,
    _widened,
)
from .errors import CertificationFailure, ParameterError
from .reports import exact_str, sci_str

FINITE = "finite"
INFINITE = "infinite"
INFINITE_BASE = 3

__all__ = [
    "FINITE",
    "INFINITE",
    "INFINITE_BASE",
    "QuadraticThreshold",
    "beta_threshold",
    "theta_lower_bound",
    "theta_for",
    "theta_is_admissible",
    "ConstructionParams",
    "SeededDigitStream",
    "FixedDigitStream",
    "stream_for",
    "floor_alpha_powers",
    "term_exponents",
    "series_start",
    "tail_bound",
    "TruncatedGenerators",
    "build_generators",
    "ConvergentMatrix",
    "build_convergent",
    "build_infinite_convergent",
    "ConvergentCertificate",
    "InstanceCertification",
    "certify_instance",
    "params_to_descriptor",
    "params_from_descriptor",
]


@dataclass(frozen=True)
class QuadraticThreshold:
    """Exact value of the form rational + sqrt(radicand), radicand > 0.

    Comparisons against rationals are done by squaring, so admissibility
    decisions never touch floating point.
    """

    rational: Fraction
    radicand: Fraction

    def admits(self, value: Fraction | int) -> bool:
        """True when value >= rational + sqrt(radicand), decided exactly."""
        value = Fraction(value)
        diff = value - self.rational
        if diff < 0:
            return False
        return diff * diff >= self.radicand

    def __float__(self) -> float:
        return float(self.rational) + math.sqrt(float(self.radicand))


def beta_threshold(ell: int) -> QuadraticThreshold:
    """Smallest admissible growth ratio for block dimension ell.

    The value is 1 + 1/(2 ell) + sqrt(1 + 1/(4 ell^2)); it decreases to 2
    as ell grows and equals (3 + sqrt(5))/2 at ell = 1.
    """
    _check_ell(ell)
    return QuadraticThreshold(
        rational=1 + Fraction(1, 2 * ell),
        radicand=1 + Fraction(1, 4 * ell * ell),
    )


def theta_lower_bound(ell: int) -> int:
    """Strict lower bound the prime base must exceed: ell! * (2 ell + 1)^ell."""
    _check_ell(ell)
    return math.factorial(ell) * (2 * ell + 1) ** ell


# Miller-Rabin with the first 13 prime bases is a proof of primality below
# psi_13 (Sorenson and Webster, Math. Comp. 86, 2017), which exceeds
# theta_lower_bound(ell) for every ell <= 11.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_PROOF_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Proved primality of n; ParameterError at or above _PRIME_PROOF_LIMIT."""
    if not isinstance(n, int):
        raise ParameterError(f"{n!r} is not an integer")
    if n >= _PRIME_PROOF_LIMIT:
        raise ParameterError(
            f"primality is proved only below {_PRIME_PROOF_LIMIT}; {n} is too large"
        )
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def theta_for(ell: int) -> int:
    """Smallest prime strictly above theta_lower_bound(ell)."""
    theta = theta_lower_bound(ell) + 1
    while not _is_prime(theta):
        theta += 1
    return theta


def theta_is_admissible(theta: int, ell: int) -> bool:
    """True when theta is prime and exceeds the required lower bound."""
    return theta > theta_lower_bound(ell) and _is_prime(theta)


def is_infinite_beta(beta) -> bool:
    """Whether beta names the infinite variant: the text "inf" or
    "infinity", in any case and with surrounding blanks."""
    return isinstance(beta, str) and beta.strip().lower() in ("inf", "infinity")


def _check_ell(ell: int) -> None:
    if not isinstance(ell, int) or ell < 1:
        raise ParameterError("block dimension ell must be an integer >= 1")


@dataclass(frozen=True)
class ConstructionParams:
    """Validated parameters of one instance of the family.

    ell is the block dimension (the ambient space is R^(2 ell)); beta is the
    exact rational growth ratio (None for the infinite variant, whose series
    uses exponents k^k in base 3); theta is the prime base; seed keys the
    digit stream; variant selects the exponent schedule.
    """

    ell: int
    beta: Fraction | None
    theta: int
    seed: int
    variant: str = FINITE

    @property
    def n(self) -> int:
        return 2 * self.ell

    @functools.cached_property
    def alpha(self) -> Fraction:
        """Exponent-schedule ratio ell * beta (finite variant only), formed
        when first read."""
        if self.variant != FINITE or self.beta is None:
            raise ParameterError("the infinite variant has no finite ratio")
        return self.ell * self.beta

    @classmethod
    def create(
        cls,
        ell: int,
        beta: Fraction | int | str | float | None,
        theta: int | None = None,
        seed: int = 0,
        variant: str = FINITE,
    ) -> "ConstructionParams":
        """Validate and normalize parameters.

        For the finite variant beta must be a rational at or above
        beta_threshold(ell), and theta (default: theta_for(ell)) must be a
        prime above theta_lower_bound(ell).  For the infinite variant beta
        must be absent (None, "inf" or an infinite float) and the base is
        fixed at 3.
        """
        _check_ell(ell)
        if variant not in (FINITE, INFINITE):
            raise ParameterError(f"unknown variant {variant!r}")
        if not isinstance(seed, int):
            raise ParameterError("seed must be an integer")

        if variant == INFINITE:
            if is_infinite_beta(beta):
                beta = None
            if isinstance(beta, float) and math.isinf(beta):
                beta = None
            if beta is not None:
                raise ParameterError("the infinite variant takes no finite beta")
            if theta not in (None, INFINITE_BASE):
                raise ParameterError("the infinite variant uses base 3")
            return cls(ell=ell, beta=None, theta=INFINITE_BASE, seed=seed, variant=INFINITE)

        if beta is None or (isinstance(beta, float) and math.isinf(beta)):
            raise ParameterError("a finite rational beta is required; use variant='infinite' otherwise")
        beta = Fraction(beta)
        if not beta_threshold(ell).admits(beta):
            raise ParameterError(
                "beta below admissible threshold "
                "(1 + 1/(2*ell) + sqrt(1 + 1/(4*ell^2)))"
            )
        if theta is None:
            theta = theta_for(ell)
        elif not theta_is_admissible(theta, ell):
            raise ParameterError(
                f"theta={theta} must be a prime exceeding "
                f"ell! * (2*ell+1)^ell = {theta_lower_bound(ell)}"
            )
        return cls(ell=ell, beta=beta, theta=int(theta), seed=seed, variant=FINITE)


# ---------------------------------------------------------------------------
# digit streams


def _digit_values(params: ConstructionParams, i: int, j: int) -> tuple[int, int]:
    """Admissible digit pair at entry (i, j) for the given variant."""
    if params.variant == INFINITE or i != j:
        return (1, 2)
    return (2 * params.ell, 2 * params.ell + 1)


class SeededDigitStream:
    """Deterministic digit source keyed by (seed, entry, index).

    Each read hashes the packed tuple (seed, i, j, k) with SHA-256 and uses
    one bit of the digest to pick between the two admissible digit values,
    so sequences are stable across platforms, processes and runs.  Row and
    column indices are 1-based.
    """

    def __init__(self, ell: int, seed: int, diagonal_values: tuple[int, int] | None = None):
        _check_ell(ell)
        self.ell = ell
        self.seed = seed & (2**64 - 1)
        self.diagonal_values = (
            tuple(diagonal_values) if diagonal_values is not None else (2 * ell, 2 * ell + 1)
        )
        if len(self.diagonal_values) != 2:
            raise ParameterError("diagonal_values must hold exactly two digits")

    def digit(self, i: int, j: int, k: int) -> int:
        if not (1 <= i <= self.ell and 1 <= j <= self.ell) or k < 0:
            raise ParameterError(f"digit index ({i},{j},{k}) out of range")
        payload = struct.pack(">QQQQ", self.seed, i, j, k)
        bit = hashlib.sha256(payload).digest()[0] & 1
        values = self.diagonal_values if i == j else (1, 2)
        return values[bit]


class FixedDigitStream:
    """Pinned digit table for reproducing hand-computed instances.

    entries maps 1-based (i, j) to a finite tuple of digits; a bare sequence
    is accepted as shorthand for the single entry (1, 1).  Reads past the
    end of a tuple raise, so truncation depths cannot silently exceed the
    pinned data.
    """

    def __init__(self, entries: Mapping[tuple[int, int], Sequence[int]] | Sequence[int]):
        if not isinstance(entries, Mapping):
            entries = {(1, 1): tuple(entries)}
        self.entries = {key: tuple(int(d) for d in val) for key, val in entries.items()}
        self.ell = max(max(i, j) for (i, j) in self.entries)

    def digit(self, i: int, j: int, k: int) -> int:
        try:
            return self.entries[(i, j)][k]
        except (KeyError, IndexError):
            raise ParameterError(f"no pinned digit at ({i},{j},{k})") from None


def stream_for(params: ConstructionParams) -> SeededDigitStream:
    """Default digit stream of an instance (seeded, variant-aware value sets)."""
    diagonal = (1, 2) if params.variant == INFINITE else None
    return SeededDigitStream(params.ell, params.seed, diagonal_values=diagonal)


def _read_digit(stream, params: ConstructionParams, i: int, j: int, k: int) -> int:
    value = stream.digit(i, j, k)
    allowed = _digit_values(params, i, j)
    if value not in allowed:
        raise ParameterError(
            f"digit {value} at ({i},{j},{k}) outside admissible set {allowed}"
        )
    return value


# ---------------------------------------------------------------------------
# exponent schedules and truncations


def floor_alpha_powers(alpha: Fraction | int, top: int) -> tuple[int, ...]:
    """Exact floors of alpha^k for k = 0..top, alpha a rational > 2.

    The floors are strictly increasing: alpha^(k+1) > 2 alpha^k >=
    alpha^k + 1 once alpha^k >= 1, so each floor jumps by at least 1.
    """
    alpha = Fraction(alpha)
    if alpha <= 2:
        raise ParameterError("exponent ratio must exceed 2")
    if top < 0:
        raise ParameterError("need a nonnegative number of powers")
    p, q = alpha.numerator, alpha.denominator
    out = tuple([p**k // q**k for k in range(top + 1)])
    for a, b in zip(out, out[1:]):
        if b <= a:
            raise ParameterError("exponent schedule failed to increase")
    return out


def series_start(params: ConstructionParams) -> int:
    """Index of the first series term: 0 normally, 1 for the infinite variant.

    The infinite schedule k^k is ambiguous at k = 0, so that variant's
    series starts at k = 1; every certified claim is asymptotic in N, which
    makes the convention immaterial.
    """
    return 1 if params.variant == INFINITE else 0


def term_exponents(params: ConstructionParams, top: int) -> tuple[int, ...]:
    """Exponent m_k of the k-th series term, for k = 0..top.

    Finite variant: m_k = floor(alpha^k).  Infinite variant: m_k = k^k
    (the k = 0 entry is filled with 1 but never used; see series_start).
    """
    if params.variant == INFINITE:
        if top < 0:
            raise ParameterError("need a nonnegative number of exponents")
        return tuple(max(1, k**k) for k in range(top + 1))
    return floor_alpha_powers(params.alpha, top)


def _term_exponent(params: ConstructionParams, k: int) -> int:
    """term_exponents(params, k)[k], without the exponents before it."""
    if k < 0:
        raise ParameterError("need a nonnegative exponent index")
    if params.variant == INFINITE:
        return max(1, k**k)
    alpha = params.alpha
    return alpha.numerator**k // alpha.denominator**k


def tail_bound(params: ConstructionParams, depth: int) -> Fraction:
    """Exact upper bound on the series tail beyond index depth.

    All omitted digits are at most 2 ell + 1 (finite variant) or 2
    (infinite variant) and their exponents are distinct integers at least
    m_(depth+1), so a geometric comparison bounds the tail by
    (4 ell + 2) / theta^m_(depth+1), respectively 3^(1 - m_(depth+1)).
    """
    return _tail_bound(params, _term_exponent(params, depth + 1))


def _tail_bound(params: ConstructionParams, m_next: int) -> Fraction:
    """tail_bound from the exponent m_(depth+1) of the first omitted term."""
    num, base = _tail_terms(params)
    return Fraction(num, base**m_next)


def _tail_terms(params: ConstructionParams) -> tuple[int, int]:
    """(num, base) with tail bound num / base^m_(depth+1)."""
    if params.variant == INFINITE:
        return 3, INFINITE_BASE
    return 4 * params.ell + 2, params.theta


def _ceil_slack(params: ConstructionParams, m_next: int, prec: int) -> tuple[int, int]:
    """_ceil_dyadic(ell * _tail_bound(params, m_next), prec) without
    base^m_next in full: square-and-multiply brackets the power between two
    dyadics, each step rounded outward, and the slack's ceiling is the
    ceiling at either end when the two agree.  Only a disagreement, at odds
    near 2^-64, forms the exact power."""
    num, base = _tail_terms(params)
    num *= params.ell
    width = prec + m_next.bit_length() + 64
    ends = set()
    for up in (False, True):
        man, exp = 1, 0
        for bit in bin(m_next)[2:]:
            man, exp = _rounded(man * man, 2 * exp, width, up)
            if bit == "1":
                man, exp = _rounded(man * base, exp, width, up)
        # below (above) base^m_next, so num over it is above (below) the slack
        ceil_man, ceil_exp = _ceil_dyadic(Fraction(num, man), prec)
        ends.add((ceil_man, ceil_exp - exp))
    if len(ends) == 1:
        return ends.pop()
    return _ceil_dyadic(params.ell * _tail_bound(params, m_next), prec)


class _DigitTable:
    """The digits of one instance, each read from its stream and checked
    once, with the scaled partial sums of every entry.

    The sums of an entry at index N are theta^m_N times its series summed
    up to N.  Each index extends them by the Horner step
    f_N = f_(N-1) theta^(m_N - m_(N-1)) + digit_N, so convergents and
    generators built from one table share every digit and every sum.
    exps holds term_exponents up to the largest index the table serves.
    """

    def __init__(self, params: ConstructionParams, stream, exps: tuple[int, ...]):
        self.params = params
        self.stream = stream
        self.exps = exps
        self.start = series_start(params)
        # per entry, row by row: the sums and digits at indices start, start + 1, ...
        self.sums: list[list[int]] = [[] for _ in range(params.ell**2)]
        self.digits: list[list[int]] = [[] for _ in range(params.ell**2)]

    def block(self, top: int) -> tuple[int, exact.Matrix, exact.Matrix]:
        """(m_top, full, digits): full is theta^m_top times the identity over
        the scaled partial sums at index top, and digits holds the digits at
        top.  Only digits up to index top are read."""
        if top >= len(self.exps):
            self.exps = term_exponents(self.params, top)
        params, ell, exps = self.params, self.params.ell, self.exps
        for k in range(self.start + len(self.sums[0]), top + 1):
            step = params.theta ** (exps[k] - exps[k - 1]) if k > self.start else 0
            for entry, (entry_sums, entry_digits) in enumerate(zip(self.sums, self.digits)):
                i, j = divmod(entry, ell)
                digit = _read_digit(self.stream, params, i + 1, j + 1, k)
                entry_sums.append(entry_sums[-1] * step + digit if entry_sums else digit)
                entry_digits.append(digit)
        at = top - self.start
        scale = params.theta ** exps[top]
        sums = [entry_sums[at] for entry_sums in self.sums]
        digits = [entry_digits[at] for entry_digits in self.digits]
        rows = [tuple(scale if c == r else 0 for c in range(ell)) for r in range(ell)]
        rows += [tuple(sums[r * ell:(r + 1) * ell]) for r in range(ell)]
        return exps[top], tuple(rows), tuple(tuple(digits[r * ell:(r + 1) * ell]) for r in range(ell))


def _digit_table(params: ConstructionParams, stream, top: int) -> _DigitTable:
    """stream itself when it is a digit table, else a new table over it (over
    the instance's default stream when it is None)."""
    if isinstance(stream, _DigitTable):
        return stream
    stream = stream if stream is not None else stream_for(params)
    return _DigitTable(params, stream, term_exponents(params, top))


# ---------------------------------------------------------------------------
# generator and convergent matrices


@dataclass(frozen=True)
class TruncatedGenerators:
    """Rational stand-in for the target span, with a proximity budget.

    The generators are the 2l x l block matrix of the identity over the
    series entries truncated at index depth.  Those entries share the
    denominator theta^m_depth, so the span is held in integers:
    integer_matrix, denominator times the generators, is build_convergent's
    full matrix at index depth.  angle_slack bounds the largest proximity
    sine between this span and the true target: the entrywise truncation
    error is below tail_bound(params, depth), so the matrix difference has
    Frobenius norm at most ell times that, while both matrices have
    smallest singular value at least 1 thanks to the identity block; the
    quotient bounds every sine.
    """

    params: ConstructionParams
    depth: int
    integer_matrix: exact.Matrix
    denominator: int

    @functools.cached_property
    def angle_slack(self) -> Fraction:
        """ell tail_bound(params, depth), formed when first read."""
        return self.params.ell * tail_bound(self.params, self.depth)

    def real_basis(self) -> RealBasis:
        """The integer columns for the angle engine.  The theta^m I block
        proves them independent, so no rank check."""
        columns = tuple(zip(*self.integer_matrix))
        return RealBasis._of_columns(columns, self.params.n, self.params.ell)

    def gram_squared(self) -> Fraction:
        """Exact squared l-volume of the generator columns: the integer
        det(M^t M) of integer_matrix over denominator^(2 l)."""
        gram = exact.generalized_determinant_squared(self.integer_matrix)
        return Fraction(gram, self.denominator ** (2 * self.params.ell))


def build_generators(
    params: ConstructionParams, depth: int, stream=None
) -> TruncatedGenerators:
    """The generators truncated at index depth, built as integers."""
    if depth < series_start(params):
        raise ParameterError("truncation depth precedes the first series term")
    table = _digit_table(params, stream, depth + 1)
    _, full, _ = table.block(depth)
    return TruncatedGenerators(
        params=params,
        depth=depth,
        integer_matrix=full,
        denominator=full[0][0],
    )


@dataclass(frozen=True)
class ConvergentMatrix:
    """Integer matrix whose span approximates the target at index N.

    The top block is theta^m_N times the identity and the bottom block holds
    the scaled partial sums f_N^(i,j) = theta^m_N * sum_(k<=N) digit/theta^m_k,
    which are exact integers.  digit_matrix records the digits at index N
    (used by the dominance checks).
    """

    n_index: int
    exponent: int
    f_matrix: exact.Matrix
    full: exact.Matrix
    subspace: exact.RationalSubspace
    digit_matrix: exact.Matrix

    @property
    def height_squared(self) -> int:
        return self.subspace.pluecker.height_squared


def build_convergent(
    params: ConstructionParams, n_index: int, stream=None
) -> ConvergentMatrix:
    """Exact convergent matrix at index N, with primitivity asserted."""
    start = series_start(params)
    if n_index < start:
        raise ParameterError(
            f"convergent index must be at least {start} for this variant"
        )
    m_n, full, digits = _digit_table(params, stream, n_index).block(n_index)
    # one set of minors proves primitivity and gives the label
    minors = exact.raw_minors(full)
    if math.gcd(*minors) != 1:
        raise CertificationFailure("primitive-basis", n_index)
    subspace = exact.RationalSubspace(exact.label_from_minors(params.n, params.ell, minors), full)
    return ConvergentMatrix(
        n_index=n_index,
        exponent=m_n,
        f_matrix=full[params.ell:],
        full=full,
        subspace=subspace,
        digit_matrix=digits,
    )


def build_infinite_convergent(
    params: ConstructionParams, n_index: int, stream=None
) -> ConvergentMatrix:
    """Convergent of the infinite variant (base 3, exponents k^k, N >= 1)."""
    if params.variant != INFINITE:
        raise ParameterError("params do not describe the infinite variant")
    return build_convergent(params, n_index, stream=stream)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class ConvergentCertificate:
    """All finitely checkable facts about one convergent, with values.

    psi_bracket is the certified dyadic bracket ((lo_man, lo_exp),
    (hi_man, hi_exp)) of the largest proximity sine against the true
    target, lo_man 2^lo_exp <= psi <= hi_man 2^hi_exp, truncation slack
    already folded in; psi_lo/psi_hi are its ends as doubles rounded
    outward, which reach 0.0 once psi falls below the double range.
    upper_normalized rescales psi_hi by base^(alpha * m_N) (finite
    variant; base^m_(N+1) otherwise) and lower_normalized rescales psi_lo
    by base^m_(N+1): the construction keeps both inside fixed bands, which
    is the finite-index shadow of the instance's approximation exponent.
    local_exponent is the record-style exponent -2 log(psi_hi) / log(H^2).
    These three are float-grade values taken from psi_bracket and integers,
    so none of them underflows.  ratio_deviation is
    |H(B_N) / theta^(l m_N) / limit - 1| as a dyadic Fraction, exact at
    any magnitude.  subspace is the convergent's span.
    """

    n_index: int
    exponent: int
    subspace: exact.RationalSubspace
    height_squared: int
    ratio_squared: Fraction
    ratio_deviation: Fraction
    psi_lo: float
    psi_hi: float
    psi_bracket: tuple[tuple[int, int], tuple[int, int]]
    upper_normalized: float
    lower_normalized: float
    local_exponent: float
    checks: tuple[tuple[str, bool], ...]


def _psi_str(value: float, end: tuple[int, int], rounding: str) -> str:
    """One end of a certified sine bracket: f"{value:.18e}" while the double
    is normal, else the exact dyadic end in the same shape, rounded outward
    in the given decimal rounding mode."""
    if value >= sys.float_info.min:
        return f"{value:.18e}"
    return sci_str(end, 18, rounding)


@dataclass(frozen=True)
class InstanceCertification:
    """Certification report of one instance up to index nmax.

    gram_limit_squared is the exact squared l-volume of the depth-truncated
    generators; the height ratios H(B_N) / theta^(l m_N) converge to its
    square root.  instance_checks carries the cross-index facts
    (height monotonicity, ratio-deviation trend).
    """

    params: ConstructionParams
    depth: int
    bits_used: int
    gram_limit_squared: Fraction
    records: tuple[ConvergentCertificate, ...]
    instance_checks: tuple[tuple[str, bool], ...]

    def as_records(self) -> Iterator[dict]:
        """One JSON-ready dict per (N, check) plus quantitative rows.  A sine
        end whose double is 0 or subnormal is printed from psi_bracket."""
        for rec in self.records:
            for name, ok in rec.checks:
                yield {"n": rec.n_index, "check": name, "ok": ok}
            lo, hi = rec.psi_bracket
            yield {
                "n": rec.n_index,
                "check": "quantities",
                "ok": True,
                "exponent": rec.exponent,
                "height_squared": exact_str(rec.height_squared),
                "ratio_squared": f"{exact_str(rec.ratio_squared.numerator)}/"
                f"{exact_str(rec.ratio_squared.denominator)}",
                "ratio_deviation": sci_str(rec.ratio_deviation),
                "psi_lo": _psi_str(rec.psi_lo, lo, decimal.ROUND_FLOOR),
                "psi_hi": _psi_str(rec.psi_hi, hi, decimal.ROUND_CEILING),
                "upper_normalized": f"{rec.upper_normalized:.6e}",
                "lower_normalized": f"{rec.lower_normalized:.6e}",
                "local_exponent": f"{rec.local_exponent:.6f}",
            }
        for name, ok in self.instance_checks:
            yield {"n": None, "check": name, "ok": ok}


# ---------------------------------------------------------------------------
# float-grade summaries and text of dyadic brackets (angles holds their rules)


def _scaled_float(end: tuple[int, int], theta: int, power: Fraction | int) -> float:
    """end * theta^power as a double, for a dyadic end and a rational power
    >= 0: the whole part of the power multiplies the mantissa exactly, only
    its fractional part goes through a float power."""
    whole, rest = divmod(power, 1)
    value = _dyadic_float(end[0] * theta**whole, end[1])
    return value * theta ** float(rest) if rest else value


def _ratio_deviation(ratio_squared: Fraction, limit_squared: Fraction):
    """|ratio / limit - 1| as |q - 1| / (sqrt(q) + 1), q = ratio^2 / limit^2,
    a dyadic Fraction of 64 significant bits.

    q - 1 is formed exactly, so the value keeps full relative accuracy at
    any closeness of the ratio to its limit.  The divisor, times the
    denominator of q, is q_den + sqrt(q_num q_den), taken from q_num and
    q_den shifted until the smaller keeps 128 bits; the quotient is an int
    division.
    """
    q_num = ratio_squared.numerator * limit_squared.denominator
    q_den = ratio_squared.denominator * limit_squared.numerator
    gap = abs(q_num - q_den)
    lead = max(0, min(q_num.bit_length(), q_den.bit_length()) - 128)
    top_num, top_den = q_num >> lead, q_den >> lead
    divisor = top_den + math.isqrt(top_num * top_den)  # times 2^lead
    shift = 64 + divisor.bit_length() - gap.bit_length()
    man = (gap << shift) // divisor if shift >= 0 else gap // (divisor << -shift)
    return man * Fraction(2) ** (-shift - lead)


# The checks certify_instance runs, in report order.  A failed check raises
# CertificationFailure, so a certificate holds each one as passed;
# build_convergent raises unless the basis is primitive.
_CONVERGENT_CHECKS = (
    "truncation-tail", "f-entry-bound", "primitive-basis", "height-upper",
    "digit-dominance", "exponent-step", "psi-resolution",
)
_INSTANCE_CHECKS = ("height-monotone", "ratio-trend")


def _require(ok: bool, check: str, n_index: int, detail: str = "") -> None:
    if not ok:
        raise CertificationFailure(check, n_index, detail)


def certify_instance(
    params: ConstructionParams,
    nmax: int,
    depth: int | None = None,
    ctx: PrecisionContext | None = None,
) -> InstanceCertification:
    """Check every finitely verifiable inequality for N = 1..nmax.

    Exact checks (tails, entry bounds, primitivity, height bounds, digit
    dominance, exponent steps) run on integers and rationals.  The largest
    proximity sine against a depth-truncation of the target is certified
    as a dyadic interval, widened by the truncation slack and rounded
    outward.  The interval is proved in integers at exact_relative_bits(ctx)
    and widened at bits_used = 2 ctx.bits: for ell <= 2 from the labels
    (angles._sine_mantissas), for ell >= 3 by the inertia test on the Gram
    pencil of the two bases, run on the largest squared sine alone
    (angles._pencil_squares).  A failed proof is not retried: it ends in
    psi-resolution.  The summaries come from the widened dyadics and
    integers.  Raises CertificationFailure naming the first violated check,
    and PrecisionExhaustedError where angles_adaptive would, at the first
    sine.

    Every digit is read once, into one digit table that the convergents
    and the generators share.  Convergent 1, with its primitive-basis check,
    is built first from its own digits: the first failure is the same, but
    a non-primitive instance stops before any work at the truncation depth.
    """
    if nmax < 1:
        raise ParameterError("nmax must be at least 1")
    depth = depth if depth is not None else nmax + 2
    if depth < nmax + 2:
        raise ParameterError("truncation depth must be at least nmax + 2")
    ell = params.ell
    theta = params.theta

    table = _DigitTable(params, stream_for(params), term_exponents(params, depth + 1))
    exps = table.exps
    first = build_convergent(params, 1, stream=table)
    generators = build_generators(params, depth, stream=table)
    target = generators.real_basis()
    ctx = ctx or PrecisionContext()
    # every bracket is widened at 2 ctx.bits, by the slack rounded up there
    prec = 2 * ctx.bits
    tau = _ceil_slack(params, exps[depth + 1], prec)
    if ell <= 2:
        # the target's label pairs with each convergent's through maps built once
        xa = target.label
        target_squared = sum(x * x for x in xa)
        # Cauchy-Binet: the label's squared norm is the integer det(M^t M)
        gram_limit_squared = Fraction(target_squared, generators.denominator ** (2 * ell))
        wedge2_of = exact.squared_image_norm(exact.wedge_map(xa, ell, ell, params.n))
        if ell == 2:
            cos2_of = exact.squared_image_norm(exact.contraction_map(xa, ell, ell, params.n))
    else:
        gram_limit_squared = generators.gram_squared()

    records = []
    prev_height_sq = None
    prev_deviation = None
    height_monotone = True
    deviation_monotone = True

    for n_index in range(1, nmax + 1):
        convergent = first if n_index == 1 else build_convergent(params, n_index, stream=table)
        m_n = convergent.exponent
        m_next = exps[n_index + 1]
        h_sq = convergent.height_squared

        # exact: the deep truncation sits strictly between this convergent's
        # partial sums and those sums plus the tail bound at index N; over
        # the generators' denominator the gap is deep - f * theta^(m_depth - m_N)
        tail_n = _tail_bound(params, m_next)
        lift = theta ** (exps[depth] - m_n)
        gap_cap = tail_n.numerator * generators.denominator
        gaps = [
            deep - f * lift
            for deep_row, f_row in zip(generators.integer_matrix[ell:], convergent.f_matrix)
            for deep, f in zip(deep_row, f_row)
        ]
        tail_ok = all(0 < gap and gap * tail_n.denominator < gap_cap for gap in gaps)
        _require(tail_ok, "truncation-tail", n_index)

        # exact: entry bound on the scaled partial sums
        if params.variant == FINITE:
            f_cap = 2 * (2 * ell + 1) * theta**m_n
        else:
            # digits <= 2 and sum(3^-k^k, k >= 1) < 1/2, so f_N < 3^m_N
            f_cap = theta**m_n
        f_ok = all(
            0 < convergent.f_matrix[i][j] <= f_cap
            for i in range(ell)
            for j in range(ell)
        )
        _require(f_ok, "f-entry-bound", n_index)

        # exact: product bound on the height via column norms
        if params.variant == FINITE:
            height_cap = (2 * (2 * ell + 1)) ** (2 * ell) * (2 * ell) ** ell * theta ** (
                2 * ell * m_n
            )
        else:
            height_cap = (2 * ell) ** ell * theta ** (2 * ell * m_n)
        height_ok = h_sq <= height_cap
        _require(height_ok, "height-upper", n_index)

        # exact: digits at index N keep the digit matrix invertible; in the
        # finite variant it is strictly diagonally dominant by column and
        # its determinant stays below theta in absolute value
        digit_det = exact.determinant(convergent.digit_matrix)
        dominance_ok = digit_det != 0
        if params.variant == FINITE:
            det_cap = math.factorial(ell) * (2 * ell + 1) ** ell
            dominance_ok = dominance_ok and abs(digit_det) <= det_cap < theta
            for j in range(ell):
                off = sum(
                    convergent.digit_matrix[i][j] for i in range(ell) if i != j
                )
                if not (convergent.digit_matrix[j][j] >= 2 * ell > off):
                    dominance_ok = False
        _require(dominance_ok, "digit-dominance", n_index)

        # exact: the exponent schedule steps by at most a factor alpha
        if params.variant == FINITE:
            step_ok = m_next <= params.alpha * (m_n + 1)
        else:
            step_ok = m_next > m_n
        _require(step_ok, "exponent-step", n_index)

        # proved interval: largest proximity sine against the true target,
        # as dyadic ends; None when it is zero or its proof failed
        bits = exact_relative_bits(ctx)
        if ell <= 2:
            xb = convergent.subspace.pluecker.coords
            cos2 = cos2_of(xb) if ell == 2 else None
            bracket = _sine_mantissa(target_squared * h_sq, wedge2_of(xb), cos2, bits, -1)
        else:
            _, s_mat, r_mat = _pencil(target, RealBasis.from_subspace(convergent.subspace))
            squares = _pencil_squares(s_mat, r_mat, ell - 1, bits, 64)
            bracket = squares and _sqrt_bracket(squares[0], _sqrt_scale(*squares[0][:2], bits + 4))
        if bracket is not None:
            bracket = _widened(*bracket, tau, prec)
        _require(
            bracket is not None,
            "psi-resolution",
            n_index,
            "largest sine not separated from zero at this precision",
        )

        psi_lo, psi_hi = bracket
        ratio_squared = Fraction(h_sq, theta ** (2 * ell * m_n))
        deviation = _ratio_deviation(ratio_squared, gram_limit_squared)
        upper_power = params.alpha * m_n if params.variant == FINITE else m_next

        if prev_height_sq is not None and h_sq <= prev_height_sq:
            height_monotone = False
        if prev_deviation is not None and deviation > prev_deviation:
            deviation_monotone = False
        prev_height_sq = h_sq
        prev_deviation = deviation

        records.append(
            ConvergentCertificate(
                n_index=n_index,
                exponent=m_n,
                subspace=convergent.subspace,
                height_squared=h_sq,
                ratio_squared=ratio_squared,
                ratio_deviation=deviation,
                psi_lo=_float_down(_dyadic_float(*psi_lo)),
                psi_hi=_float_up(_dyadic_float(*psi_hi)),
                psi_bracket=bracket,
                upper_normalized=_scaled_float(psi_hi, theta, upper_power),
                lower_normalized=_scaled_float(psi_lo, theta, m_next),
                local_exponent=-2 * _log_dyadic(psi_hi) / math.log(h_sq),
                checks=tuple((name, True) for name in _CONVERGENT_CHECKS),
            )
        )

    _require(height_monotone, "height-monotone", nmax)
    _require(deviation_monotone, "ratio-trend", nmax)

    return InstanceCertification(
        params=params,
        depth=depth,
        bits_used=prec,
        gram_limit_squared=gram_limit_squared,
        records=tuple(records),
        instance_checks=tuple((name, True) for name in _INSTANCE_CHECKS),
    )


# ---------------------------------------------------------------------------
# descriptor serialization


def params_to_descriptor(params: ConstructionParams) -> dict:
    """JSON-ready descriptor: {ell, beta: "p/q"|"inf", theta, seed, variant}."""
    beta = "inf" if params.variant == INFINITE else str(params.beta)
    return {
        "ell": params.ell,
        "beta": beta,
        "theta": params.theta,
        "seed": params.seed,
        "variant": params.variant,
    }


def params_from_descriptor(data: Mapping) -> ConstructionParams:
    """Inverse of params_to_descriptor; theta and seed may be omitted for
    their defaults.

    ell, theta and seed must be integers: floats, strings and booleans are
    rejected, not rounded.  beta is "p/q" text or an integer for the finite
    variant, and "inf" or "infinity" for the infinite one, which is also the
    variant a descriptor without one gets from such a beta.  A malformed
    descriptor raises ParameterError."""
    try:
        ell, beta = data["ell"], data["beta"]
        seed, theta, variant = data.get("seed", 0), data.get("theta"), data.get("variant")
    except (KeyError, TypeError) as err:
        raise ParameterError(f"bad instance descriptor: {err}") from None
    for key, value in (("ell", ell), ("seed", seed), ("theta", theta)):
        # JSON true and false load as bool, a subclass of int
        if type(value) is not int and (key != "theta" or value is not None):
            raise ParameterError(
                f"bad instance descriptor: {key} must be an integer, got {value!r}"
            )
    infinite = is_infinite_beta(beta)
    if variant is None:
        variant = INFINITE if infinite else FINITE
    if variant == INFINITE and not infinite:
        raise ParameterError(
            f'bad instance descriptor: the infinite variant takes beta "inf", got {beta!r}'
        )
    if variant == FINITE:
        if type(beta) is not int and not isinstance(beta, str):
            raise ParameterError(
                f'bad instance descriptor: beta must be "p/q" text or an integer, got {beta!r}'
            )
        try:
            beta = Fraction(beta)
        except (ValueError, ZeroDivisionError) as err:
            raise ParameterError(f"bad instance descriptor: {err}") from None
    return ConstructionParams.create(ell, beta, theta=theta, seed=seed, variant=variant)
