"""Canonical proximity angles between subspaces.

The proximity profile of two subspaces is the ascending tuple
psi_j = sin(theta_j) of sines of their t = min(d, e) principal angles.  sin
is the right scale for approximation questions (it is comparable to
normalized distances).

An exact basis is its integer columns: each rational column cleared of
denominators.  Float bases are exact too: every finite double is a dyadic
rational, and from_float keeps that value.  Pairs of exact bases with
t <= 2 are evaluated exactly in three integers of their labels X, the raw
maximal minors of those columns (RealBasis.label):
L = |X_A|^2 |X_B|^2, W = |X_A /\\ X_B|^2 and the squared contraction C of
the smaller label into the larger.  W / L is the product of the squared
sines and C / L that of the squared cosines (Schmidt 1967), so the squared
sine of a pair with t = 1 is W / L, and the two of a pair with t = 2 are
the roots of L x^2 - (L + W - C) x + W.  A pair of bases takes L, W and C
from Gram determinants of its columns, which are the same integers by
Cauchy-Binet and cost a polynomial in n; record scans and certificates
take them from labels already held (exact.wedge_map,
exact.contraction_map).  The sines are computed on the sine side, never
as 1 - cos^2, so tiny angles keep full relative accuracy, and every
square root is bracketed by integer square roots: lo <= psi <= hi is a
proof.  _sine_mantissas hands out those brackets as two dyadics
(man, exp), the value man 2^exp, before any mpf is built, for raw or
normalized labels alike; a t = 1 bracket depends on the value of its
squared sine alone, so two bases of one subspace get identical brackets.
Scans and certificates keep the dyadics, and every rule on them is here
(_dyadic_less, _dyadic_float, _widened, _ceil_dyadic, _log_dyadic);
_sqrt_interval roots the line engine's squared sines to doubles, taking
the plain double root wherever the squares are normal doubles.
plane_sine_at_least compares a sine of a pair with t = 2 with a rational
exactly, and _plane_sine_decision does so for a box of label integers,
so record scans screen and bracket every pair with t <= 2 from labels
without building a basis or an mpf; only the profiles of angles_adaptive
and principal_angles turn the brackets into mpf ends.  Certificates with
t >= 3 prove their largest sine on the integer Gram pencil
(_largest_sine_mantissas), whose Sylvester test runs on truncated
integers first (_positive_definite).  Every other pair (evaluator bases, or
profiles with t >= 3) goes through an mpmath Gram-Schmidt and SVD
repeated at doubled precision until two consecutive runs agree to the
requested relative error.

resolved=False marks a sine that is not separated from zero and carries
the bracket [0, 2^-(bits_used/4)].  On the exact path that happens only
for an exactly-zero sine (a shared direction); every nonzero sine is
resolved, however small.  On the mpmath path it happens for any value at or
below that floor.  PrecisionContext and SUBDIOPH_MAX_BITS govern the
working precision of the mpmath path; on the exact path they only set the
reported bits_used (twice the starting bits, as after one doubling, and
subject to the same cap) and the relative width of the brackets.  A
request above the cap raises PrecisionExhaustedError before any
evaluation: more bits than the cap for principal_angles, and twice
ctx.bits above it for angles_adaptive.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Sequence

from mpmath import mp

from . import exact
from .errors import NumericalRankLossError, PrecisionExhaustedError, ShapeError

DEFAULT_BITS = 256
DEFAULT_TARGET_REL_ERR = Fraction(1, 2**48)
HARD_BIT_CAP = 1_048_576


def _env_bit_cap() -> int:
    raw = os.environ.get("SUBDIOPH_MAX_BITS")
    if raw is None:
        return HARD_BIT_CAP
    try:
        return max(64, min(HARD_BIT_CAP, int(raw)))
    except ValueError:
        return HARD_BIT_CAP


def _check_bits(bits: int) -> None:
    if bits < 64:
        raise ShapeError("need at least 64 bits")


def _float_down(x) -> float:
    """x as a double one step below round-to-nearest, floored at 0; with
    _float_up, the outward rounding of a bracket."""
    return max(0.0, math.nextafter(float(x), 0.0))


def _float_up(x) -> float:
    return math.nextafter(float(x), math.inf)


def _dyadic_float(man: int, exp: int) -> float:
    """The double nearest man 2^exp by a correctly rounded int division
    (0.0 below the double range)."""
    return man / (1 << -exp) if exp < 0 else float(man << exp)


def _dyadic_less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether a < b for dyadics (man, exp), decided exactly on mantissas
    shifted to the smaller exponent."""
    (a_man, a_exp), (b_man, b_exp) = a, b
    exp = min(a_exp, b_exp)
    return a_man << (a_exp - exp) < b_man << (b_exp - exp)


def _rounded(man: int, exp: int, prec: int, up: bool) -> tuple[int, int]:
    """The dyadic man 2^exp, man > 0, rounded up or down to a mantissa of
    prec bits."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    return (-(-man >> shift) if up else man >> shift), exp + shift


def _ceil_dyadic(x: Fraction, prec: int) -> tuple[int, int]:
    """The least dyadic with a prec-bit mantissa at or above x > 0: the
    value mpmath's fdiv gives with rounding="c"."""
    num, den = x.numerator, x.denominator
    # the quotient num 2^shift / den has at least prec + 1 bits
    shift = prec + 1 - num.bit_length() + den.bit_length()
    man = -(-(num << shift) // den) if shift >= 0 else -(-num // (den << -shift))
    # a ceiling of a ceiling is the ceiling
    return _rounded(man, -shift, prec, up=True)


def _widened(lo: tuple[int, int], hi: tuple[int, int], tau: tuple[int, int], prec: int):
    """(lo - tau, hi + tau) for dyadics, rounded outward to prec-bit
    mantissas as AngleProfile.widened rounds at that precision, or None when
    lo - tau is not positive."""
    (lo_man, lo_exp), (hi_man, hi_exp), (tau_man, tau_exp) = lo, hi, tau
    exp = min(lo_exp, tau_exp)
    diff = (lo_man << (lo_exp - exp)) - (tau_man << (tau_exp - exp))
    if diff <= 0:
        return None
    hi_sum_exp = min(hi_exp, tau_exp)
    total = (hi_man << (hi_exp - hi_sum_exp)) + (tau_man << (tau_exp - hi_sum_exp))
    return _rounded(diff, exp, prec, up=False), _rounded(total, hi_sum_exp, prec, up=True)


def _log_dyadic(end: tuple[int, int]) -> float:
    """Natural log of a positive dyadic at any magnitude: the log of its
    mantissa scaled into [1/2, 1] plus a whole number of log 2, so the two
    terms do not cancel."""
    man, exp = end
    bits = man.bit_length()
    return math.log(man / (1 << bits)) + (bits + exp) * math.log(2)


@dataclass(frozen=True)
class PrecisionContext:
    """Working-precision policy for angle computations.

    bits is the starting mantissa size, at least 64; adaptive refinement
    doubles it until agreement at target_rel_err, which lies in (0, 1),
    giving up at max_bits.  Values at or below 2^(-bits/4) are not resolved
    pointwise, only bracketed by [0, 2^(-bits/4)].
    """

    bits: int = DEFAULT_BITS
    target_rel_err: Fraction = DEFAULT_TARGET_REL_ERR
    max_bits: int = HARD_BIT_CAP

    def __post_init__(self) -> None:
        _check_bits(self.bits)
        # no run agrees at a relative error of 0, and one of 1 or more
        # brackets nothing
        if not 0 < self.target_rel_err < 1:
            raise ShapeError("the target relative error must lie in (0, 1)")
        cap = min(self.max_bits, _env_bit_cap())
        object.__setattr__(self, "max_bits", cap)


def _float_column(col: Sequence[float]) -> tuple[int, ...]:
    """A column of finite doubles times the least power of two that makes
    it integral: each double is p / q with q a power of two, so the
    largest q clears them all, as clear_denominators would."""
    ratios = [x.as_integer_ratio() for x in col]
    scale = max(q for _, q in ratios)
    return tuple(p * (scale // q) for p, q in ratios)


class RealBasis:
    """A subspace handed to the angle engine, re-evaluable at any precision.

    An exact basis is its integer columns: from_exact clears each rational
    column of denominators, from_float does the same with the dyadic
    rationals its doubles hold (tagged "float-input"), and every precision
    reads those integers losslessly.  exact_matrix shows the columns as
    rows.  An evaluator callback covers targets whose entries are only
    available through computation (algebraic numbers, series truncations);
    such a basis has no columns.
    """

    def __init__(
        self,
        n: int,
        d: int,
        evaluate: Callable[[int], "mp.matrix"],
        source: str,
        columns: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        if not 1 <= d <= n:
            raise ShapeError(f"invalid dimensions ({n},{d})")
        self.n = n
        self.d = d
        self._evaluate = evaluate
        self.source = source
        self.columns = columns

    @property
    def exact_matrix(self) -> exact.Matrix | None:
        """The integer columns as an n x d matrix of rows, or None for an
        evaluator basis."""
        return None if self.columns is None else tuple(zip(*self.columns))

    @property
    def label(self) -> tuple[int, ...] | None:
        """The raw maximal minors of the integer columns, in lexicographic
        row-set order, or None for an evaluator basis."""
        return None if self.columns is None else exact.raw_minors(self.exact_matrix)

    @classmethod
    def from_exact(cls, rows: Iterable[Sequence[exact.Scalar]]) -> "RealBasis":
        m = exact.as_matrix(rows)
        n, d = exact.shape(m)
        columns = tuple(exact.clear_denominators(col) for col in zip(*m))
        if exact.rank(columns) != d:
            raise NumericalRankLossError("exact basis has dependent columns")
        return cls._of_columns(columns, n, d)

    @classmethod
    def from_subspace(cls, sub: exact.RationalSubspace) -> "RealBasis":
        """The subspace's integer basis as it is: its label already proves
        the columns independent."""
        return cls._of_columns(tuple(zip(*sub.basis)), sub.n, sub.e)

    @classmethod
    def _of_columns(cls, columns, n: int, d: int, source: str = "exact-rational") -> "RealBasis":
        """The exact basis of d independent integer columns in Z^n, unchecked."""

        def evaluate(bits: int) -> "mp.matrix":
            with mp.workprec(bits):
                return mp.matrix([[mp.mpf(x) for x in row] for row in zip(*columns)])

        return cls(n, d, evaluate, source=source, columns=columns)

    @classmethod
    def from_float(cls, rows: Iterable[Sequence[float]]) -> "RealBasis":
        """Floats are exact dyadic rationals, so the basis is exact.

        Its rank is not checked here: the angle engine raises
        NumericalRankLossError on an exactly dependent basis when it meets
        one.
        """
        data = [list(map(float, row)) for row in rows]
        n = len(data)
        d = len(data[0]) if data else 0
        if d == 0 or any(len(r) != d for r in data):
            raise ShapeError("ragged or empty float basis")
        if not all(math.isfinite(x) for row in data for x in row):
            raise ShapeError("float basis entries must be finite")
        columns = tuple(map(_float_column, zip(*data)))
        return cls._of_columns(columns, n, d, source="float-input")

    @classmethod
    def from_evaluator(
        cls, n: int, d: int, fn: Callable[[int], Sequence[Sequence[object]]], source: str
    ) -> "RealBasis":
        def evaluate(bits: int) -> "mp.matrix":
            with mp.workprec(bits):
                return mp.matrix([list(row) for row in fn(bits)])

        return cls(n, d, evaluate, source=source)

    def at(self, bits: int) -> "mp.matrix":
        m = self._evaluate(bits)
        if (m.rows, m.cols) != (self.n, self.d):
            raise ShapeError("evaluator returned wrong shape")
        return m


@dataclass(frozen=True)
class AngleProfile:
    """Ascending sines of principal angles with certification metadata.

    lo/hi bracket each value; entries with resolved=False were at or below
    the near-zero floor and carry only the bracket [0, floor].
    rel_err_bound is the achieved agreement bound for resolved entries.
    """

    t: int
    psi: tuple
    lo: tuple
    hi: tuple
    resolved: tuple
    rel_err_bound: object
    bits_used: int

    def widened(self, tau) -> "AngleProfile":
        """Absolute widening of every bracket by tau >= 0 (perturbation budget).

        tau may be a Fraction, an int, a float or an mpf.  Every step rounds
        outward at the profile's precision, so the widened brackets contain
        the original ones grown by tau.
        """
        prec = self.bits_used
        if isinstance(tau, Fraction):
            t = mp.fdiv(tau.numerator, tau.denominator, prec=prec, rounding="c")
        else:
            t = mp.convert(tau)  # lossless for int, float and mpf
        zero = mp.mpf(0)
        lo = tuple(max(zero, mp.fsub(x, t, prec=prec, rounding="f")) for x in self.lo)
        hi = tuple(mp.fadd(x, t, prec=prec, rounding="c") for x in self.hi)
        return AngleProfile(
            t=self.t,
            psi=self.psi,
            lo=lo,
            hi=hi,
            resolved=self.resolved,
            rel_err_bound=self.rel_err_bound,
            bits_used=self.bits_used,
        )


def _mpf_of_fraction(x: Fraction, bits: int):
    with mp.workprec(bits):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def orthonormal_basis(basis: RealBasis, bits: int) -> "mp.matrix":
    """Orthonormal basis via twice-iterated modified Gram-Schmidt.

    Raises NumericalRankLossError when a column norm collapses below
    2^(-bits/2) at the working precision.
    """
    with mp.workprec(bits + 32):
        m = basis.at(bits + 32)
        n, d = m.rows, m.cols
        cutoff = mp.mpf(2) ** (-(bits // 2))
        cols = [[m[i, j] for i in range(n)] for j in range(d)]
        out: list[list] = []
        for j, col in enumerate(cols):
            v = list(col)
            for _pass in range(2):
                for q in out:
                    dot = mp.fsum(a * b for a, b in zip(q, v))
                    v = [a - dot * b for a, b in zip(v, q)]
            norm = mp.sqrt(mp.fsum(a * a for a in v))
            original = mp.sqrt(mp.fsum(a * a for a in col))
            if original == 0 or norm / original < cutoff:
                raise NumericalRankLossError(
                    f"column {j} collapsed during orthonormalization"
                )
            out.append([a / norm for a in v])
        q = mp.matrix(n, d)
        for j, col in enumerate(out):
            for i in range(n):
                q[i, j] = col[i]
        return q


def _cross_gram_sines(qa: "mp.matrix", qb: "mp.matrix") -> list:
    """Ascending sines from singular values of Qa^T Qb (clamped to [0,1])."""
    g = qa.T * qb
    if min(g.rows, g.cols) == 1:
        # 1 x k cross-Gram: singular value is the row norm
        s = [mp.sqrt(mp.fsum(g[i, j] ** 2 for i in range(g.rows) for j in range(g.cols)))]
    else:
        s = list(mp.svd_r(g, compute_uv=False))
    one = mp.mpf(1)
    out = []
    for sigma in s:
        sigma = min(max(sigma, mp.mpf(0)), one)
        out.append(mp.sqrt((one - sigma) * (one + sigma)))
    out.sort()
    return out


def _profile(t: int, brackets: list, rel, bits_used: int) -> AngleProfile:
    """Pack ascending (lo, psi, hi) brackets into a profile.

    None marks a sine not separated from zero; it is reported unresolved
    with the bracket [0, 2^-(bits_used/4)] and that floor as its value.
    """
    floor = mp.ldexp(1, -(bits_used // 4))
    entries, cap = [], floor
    for b in reversed(brackets):
        if b is None:
            # an exact zero below a resolved sine under the floor stays in order
            b = (mp.mpf(0), cap, cap)
        cap = min(cap, b[1])
        entries.append(b)
    lo, psi, hi = zip(*reversed(entries))
    return AngleProfile(
        t=t,
        psi=psi,
        lo=lo,
        hi=hi,
        resolved=tuple(b is not None for b in brackets),
        rel_err_bound=rel,
        bits_used=bits_used,
    )


def _relative_brackets(sines: list, floor, rel) -> list:
    """Brackets s * (1 -/+ rel) of mpmath sines; values at or below floor are None."""
    return [None if s <= floor else (s * (1 - rel), s, s * (1 + rel)) for s in sines]


def _pair_dimension(a: RealBasis, b: RealBasis) -> int:
    if a.n != b.n:
        raise ShapeError("ambient dimensions differ")
    return min(a.d, b.d)


def _is_exact_pair(a: RealBasis, b: RealBasis) -> bool:
    return a.columns is not None and b.columns is not None and min(a.d, b.d) <= 2


def _exact_profile(a: RealBasis, b: RealBasis, bits_used: int, bits: int) -> AngleProfile:
    """Profile of an exact pair with t <= 2, with rel_err_bound 2^-bits."""
    t = _pair_dimension(a, b)
    mantissas = _sine_mantissas(*_gram_integers(a, b), bits)
    brackets = [None if m is None else _packed(*m) for m in mantissas]
    return _profile(t, brackets, mp.ldexp(1, -bits), bits_used)


def _gram_integers(a: RealBasis, b: RealBasis) -> tuple:
    """(L, W, C) of an exact pair with t <= 2 (C None when t = 1) from Gram
    determinants of its integer columns, which by Cauchy-Binet are the
    label integers of their raw minors: L = det(A^T A) det(B^T B),
    W = det([A | B]^T [A | B]) and, with A the plane and G = B^T B,
    C = det(A^T B adj(G) B^T A) / det(G).  Polynomial in n, where the
    labels have C(n, d) entries."""
    if a.d > b.d:
        a, b = b, a
    both, d = a.columns + b.columns, a.d
    gram = [[sum(map(mul, u, v)) for v in both] for u in both]
    g = exact.determinant([row[d:] for row in gram[d:]])
    label2 = exact.determinant([row[:d] for row in gram[:d]]) * g
    if label2 == 0:
        # a float basis comes here with its rank unchecked
        raise NumericalRankLossError("exact basis has dependent columns")
    wedge2 = exact.determinant(gram)
    if d == 1:
        return label2, wedge2, None
    (m00, m01), (m10, m11) = _projected_gram(gram, d)
    return label2, wedge2, (m00 * m11 - m01 * m10) // g


def _projected_gram(gram: list, d: int) -> list:
    """A^T B adj(G) B^T A, G = B^T B, from the Gram matrix of [A | B] whose
    first d columns are A's.  exact._eliminate reduces [G | B^T A] to
    [det(G) I | adj(G) B^T A]: G is positive definite, so no row is
    swapped and the last pivot is det(G)."""
    e = len(gram) - d
    # the rows of B in the Gram matrix, read as [G | B^T A]
    work = exact._eliminate([row[d:] + row[:d] for row in gram[d:]], reduce=True)[0]
    solved = tuple(zip(*work))[e:]  # adj(G) B^T a_i for each column a_i of A
    return [[sum(map(mul, row[d:], y)) for y in solved] for row in gram[:d]]


def _largest_sine_mantissas(a: RealBasis, b: RealBasis, bits: int):
    """The _sqrt_bracket, of relative width below 2^-bits, of the largest
    sine of two exact bases, A of dimension at most that of B; None when
    that sine is zero or its proof fails.  The squared sines are the
    eigenvalues of the integer pencil S = g A^T A, R = S - A^T B adj(G) B^T A
    (G = B^T B, g = det(G)).  mpmath only proposes v, the top eigenvector,
    at bits + 64: v^T R v / v^T S v = q / s <= psi^2 (Rayleigh), and
    x = (q / s)(1 + 2^-(bits+6)) > psi^2 once x S - R is positive definite.
    Sylvester's test proves that on exact leading minors of the pencil cut
    to its leading bits + 128 bits, with a proved margin, and on more bits
    only where that cannot decide (_positive_definite); it accepts or
    refuses the bracket that q, s and x fix, and never changes it.  No
    root is isolated, so clustered or repeated roots need no care, and a
    poor proposal gives None."""
    both, d = a.columns + b.columns, a.d
    gram = [[sum(map(mul, u, v)) for v in both] for u in both]
    g = exact.determinant([row[d:] for row in gram[d:]])
    s_mat = [[g * x for x in row[:d]] for row in gram[:d]]
    r_mat = [[x - y for x, y in zip(*rows)] for rows in zip(s_mat, _projected_gram(gram, d))]
    with mp.workprec(bits + 64):
        inv = mp.inverse(mp.cholesky(mp.matrix(s_mat)))
        top = mp.eigsy(inv * mp.matrix(r_mat) * inv.T)[1][:, d - 1]
        proposal = inv.T * top
        # bits + 64 leading bits of the proposal as integers
        shift = bits + 64 - max(mp.frexp(x)[1] for x in proposal)
        v = [int(mp.ldexp(x, shift)) for x in proposal]
    q, s = (sum(x * sum(map(mul, row, v)) for x, row in zip(v, m)) for m in (r_mat, s_mat))
    if q == 0:
        return None
    k = bits + 6
    up = (1 << k) + 1  # x = (q / s) up / 2^k
    # s 2^k (x S - R) in integers
    pencil = [[q * up * y - (s << k) * x for x, y in zip(*rows)] for rows in zip(r_mat, s_mat)]
    if not _positive_definite(pencil, bits + 128):
        return None
    return _sqrt_bracket((q, s, q * up, s << k), _sqrt_scale(q, s, bits + 4))


def _positive_definite(m: list, width: int) -> bool:
    """Whether the symmetric integer matrix m is positive definite, by
    Sylvester's test on truncations first: m = 2^shift (m' + E) with
    m' = m >> shift entrywise and E symmetric with entries in [0, 1), so
    |E|_2 <= |E|_F < d, and m' - d I positive definite proves m so (Weyl).
    The first m' keeps width leading bits of the largest entry; each
    failure halves shift, down to 0, the test on m itself."""
    d = len(m)
    shift = max(0, max(abs(x).bit_length() for row in m for x in row) - width)
    while True:
        trial = m
        if shift:
            trial = [[x >> shift for x in row] for row in m]
            for i in range(d):
                trial[i][i] -= d
        if all(exact.determinant([row[:j] for row in trial[:j]]) > 0 for j in range(1, d + 1)):
            return True
        if not shift:
            return False
        shift //= 2


def exact_relative_bits(ctx: PrecisionContext | None = None) -> int:
    """b such that angles_adaptive brackets every sine psi of an exact pair
    with t <= 2 inside (psi (1 - 2^-b), psi (1 + 2^-b)): twice ctx.bits, or
    more when ctx.target_rel_err asks for it.

    Raises PrecisionExhaustedError where angles_adaptive would.
    """
    ctx = ctx or PrecisionContext()
    bits = 2 * ctx.bits
    if bits > ctx.max_bits:
        raise PrecisionExhaustedError(f"{ctx.bits} bits doubled exceed the cap {ctx.max_bits}")
    rel = ctx.target_rel_err
    if rel is not None and rel > 0:
        bits = max(bits, (rel.denominator // rel.numerator).bit_length())
    return bits


def _scaled_isqrt(num: int, den: int, k: int) -> tuple[int, int]:
    """floor and ceil of sqrt(num / den) * 2^k, num >= 0, den > 0; a power
    of two den divides by a shift."""
    if k >= 0:
        num <<= 2 * k
    else:
        den <<= -2 * k
    if den & (den - 1):
        q, r = divmod(num, den)
    else:
        q, r = num >> den.bit_length() - 1, num & den - 1
    root = math.isqrt(q)
    return root, (root + 1 if r or root * root != q else root)


def _leading(x: int, length: int, width: int) -> int:
    """The leading width bits of a positive integer of bit length length."""
    return x >> (length - width) if length > width else x << (width - length)


def _log2_floor(num: int, den: int) -> int:
    """floor(log2(num / den)) for positive integers num and den."""
    len_num, len_den = num.bit_length(), den.bit_length()
    e = len_num - len_den
    # num / den lies in (2^(e-1), 2^(e+1)); it is at least 2^e exactly when
    # num >= den * 2^e, which their leading bits decide unless they tie
    top_num, top_den = _leading(num, len_num, 64), _leading(den, len_den, 64)
    if top_num == top_den:
        at_least = num >= den << e if e >= 0 else num << -e >= den
    else:
        at_least = top_num > top_den
    return e if at_least else e - 1


def _sqrt_scale(num: int, den: int, prec: int) -> int:
    """Scale k that puts sqrt(num / den) * 2^k in [2^(prec-2), 2^prec).

    k depends on the value of num / den alone, not on how the fraction is
    written, so every representation of one sine gets the same bracket.
    """
    return prec - (_log2_floor(num, den) + 3) // 2


def _sqrt_bracket(interval: tuple[int, int, int, int], k: int) -> tuple:
    """Dyadics ((lo, -k), (hi, -k)) with lo 2^-k <= sqrt(x) <= hi 2^-k, for
    num_lo/den_lo <= x <= num_hi/den_hi."""
    num_lo, den_lo, num_hi, den_hi = interval
    lo, hi = _scaled_isqrt(num_lo, den_lo, k)
    if num_hi is not num_lo or den_hi is not den_lo:
        hi = _scaled_isqrt(num_hi, den_hi, k)[1]
    return (lo, -k), (hi, -k)


def _sqrt_interval(interval: tuple[int, int, int, int]) -> tuple[float, float]:
    """Outward double bracket of sqrt(x) for an interval of _sqrt_bracket's
    shape, 0 <= x: each end num / den is correctly rounded and stepped
    outward.  A nonzero end below the least normal double, 2^-1022, is
    scaled by 4^k into [1/4, 2) before it becomes a double, and its root by
    2^-k after, so a root within the double range survives however small
    its square; the doubles depend on the value of each end alone.  Where
    both ends are normal, k = 0 and no step can reach 0.0, so they take the
    root at once."""
    num_lo, den_lo, num_hi, den_hi = interval
    lo, hi = num_lo / den_lo, num_hi / den_hi
    if lo >= sys.float_info.min and hi >= sys.float_info.min:
        return (math.nextafter(math.sqrt(math.nextafter(lo, 0.0)), 0.0),
                math.nextafter(math.sqrt(math.nextafter(hi, math.inf)), math.inf))
    ends = []
    for num, den, toward in ((num_lo, den_lo, 0.0), (num_hi, den_hi, math.inf)):
        f, k = num / den, 0
        if f < sys.float_info.min and num:
            k = (den.bit_length() - num.bit_length()) // 2
            f = (num << 2 * k) / den
        root = math.sqrt(max(0.0, math.nextafter(f, toward)))
        ends.append(max(0.0, math.nextafter(math.ldexp(root, -k), toward)))
    return tuple(ends)


def _packed(lo: tuple[int, int], hi: tuple[int, int]) -> tuple:
    """Exact mpf (lo, mid, hi) of a bracket of two dyadics of one exponent."""
    return mp.ldexp(*lo), mp.ldexp(lo[0] + hi[0], lo[1] - 1), mp.ldexp(*hi)


def _point(num: int, den: int) -> tuple[int, int, int, int]:
    return (num, den, num, den)


def _squared_sine_intervals(label2: int, wedge2: int, cos2: int | None, prec: int) -> list:
    """Ascending squared sines of a pair with t <= 2 from the label integers
    L = label2 > 0, W = wedge2 and C = cos2 (None when t = 1): W / L for
    t = 1, else the roots of L x^2 - (L + W - C) x + W.

    Each is None when exactly zero, else a rational interval
    (num_lo, den_lo, num_hi, den_hi) of relative width below 2^-(prec+6).
    """
    if cos2 is None:
        return [None if wedge2 == 0 else _point(wedge2, label2)]
    return _quadratic_roots(label2 + wedge2 - cos2, label2 * wedge2, label2, prec)


_SQUARES_MOD_64 = frozenset(x * x % 64 for x in range(64))
_SQUARES_MOD_63 = frozenset(x * x % 63 for x in range(63))


def _quadratic_roots(tr: int, det: int, dd: int, prec: int) -> list:
    """Ascending roots (tr -+ sqrt(tr^2 - 4 det)) / (2 dd) of two squared
    sines, for integers with tr^2 >= 4 det >= 0 and dd > 0, as
    _squared_sine_intervals returns them: None when exactly zero."""
    if det == 0:
        return [None, None if tr == 0 else _point(tr, dd)]
    disc = tr * tr - 4 * det
    # residues mod 64 and 63 rule out most non-squares before an isqrt
    if disc & 63 in _SQUARES_MOD_64 and disc % 63 in _SQUARES_MOD_63:
        root = math.isqrt(disc)
        if root * root == disc:
            return [_point(2 * det, dd * (tr + root)), _point(tr + root, 2 * dd)]
    # sqrt(disc) in [root_lo, root_hi] / 2^j with 2^-j <= tr * 2^-(prec+7)
    j = prec + 8 - tr.bit_length()
    root_lo, root_hi = _scaled_isqrt(disc, 1, j)
    scale = 1 << max(j, 0)
    if j < 0:
        root_lo, root_hi = root_lo << -j, root_hi << -j
    sum_lo, sum_hi = tr * scale + root_lo, tr * scale + root_hi
    # the small root as 2 det / (tr + sqrt(disc)) avoids cancellation
    small = (2 * det * scale, dd * sum_hi, 2 * det * scale, dd * sum_lo)
    big = (sum_lo, 2 * dd * scale, sum_hi, 2 * dd * scale)
    return [small, big]


def _sine_mantissas(label2: int, wedge2: int, cos2: int | None, bits: int) -> list:
    """Ascending exact sine brackets of _sqrt_bracket, ((lo, -k), (hi, -k)),
    of relative width below 2^-bits, of the squared sines of
    _squared_sine_intervals; a zero sine is None."""
    intervals, scales = _sine_scales(label2, wedge2, cos2, bits)
    return [None if x is None else _sqrt_bracket(x, k) for x, k in zip(intervals, scales)]


def _sine_mantissa(label2: int, wedge2: int, cos2: int | None, bits: int, index: int):
    """_sine_mantissas(label2, wedge2, cos2, bits)[index], without rooting
    the other sine."""
    intervals, scales = _sine_scales(label2, wedge2, cos2, bits)
    x = intervals[index]
    return None if x is None else _sqrt_bracket(x, scales[index])


def _sine_scales(label2: int, wedge2: int, cos2: int | None, bits: int) -> tuple:
    """The squared sine intervals of _sine_mantissas and the scale of each
    one's bracket."""
    # brackets computed at bits + 4 have relative width below 2^-bits
    prec = bits + 4
    intervals = _squared_sine_intervals(label2, wedge2, cos2, prec)
    scales = [None if x is None else _sqrt_scale(x[0], x[1], prec) for x in intervals]
    if len(intervals) == 2 and None not in scales and abs(scales[0] - scales[1]) <= 2:
        # close values share the finer scale, which keeps their midpoints in
        # order; values further apart have disjoint brackets
        scales = [max(scales)] * 2
    return intervals, scales


def plane_sine_at_least(label2: int, wedge2: int, cos2: int, j: int, num: int, den: int) -> bool:
    """Whether psi_j^2 >= y = num / den (den > 0) for a pair with t = 2 of
    label integers label2 = L, wedge2 = W and cos2 = C, decided in
    integers: psi_j^2 = (tr -+ sqrt(disc)) / (2 label2), so the sign of
    2 label2 y - tr and one squared comparison with disc decide it.
    _plane_sine_decision decides the same on a box of the three."""
    tr = label2 + wedge2 - cos2
    over = 2 * label2 * num - tr * den  # den (2 label2 y - tr)
    if j == 2 and over <= 0:
        return True  # tr + sqrt(disc) >= tr >= 2 label2 y
    if j == 1 and over > 0:
        return False  # tr - sqrt(disc) <= tr < 2 label2 y
    disc = (tr * tr - 4 * label2 * wedge2) * den * den
    # j = 2: sqrt(disc) >= 2 label2 y - tr > 0; j = 1: tr - 2 label2 y >= sqrt(disc)
    return disc >= over * over if j == 2 else over * over >= disc


def _plane_forms(num: int, den: int) -> tuple:
    """The coefficients on (L, W, C) of the two integer forms that place
    y = num / den among the squared sines of a pair with t = 2, the roots
    of p(x) = L x^2 - tr x + W, tr = L + W - C:
    over = den (2 L y - tr), whose sign puts y against the vertex, and
    q = den^2 p(y), whose sign puts y inside or outside the roots."""
    return (2 * num - den, -den, den), (num * (num - den), den * (den - num), num * den)


def _form_range(coeffs: tuple, box: tuple) -> tuple[int, int]:
    """(lo, hi) of sum c_i v_i over a box ((lo_1, hi_1), ...) of the v_i."""
    lo = hi = 0
    for c, (v_lo, v_hi) in zip(coeffs, box):
        if c < 0:
            v_lo, v_hi = v_hi, v_lo
        lo += c * v_lo
        hi += c * v_hi
    return lo, hi


def _plane_sine_decision(box: tuple, j: int, forms: tuple) -> bool | None:
    """Whether psi_j^2 >= y for the forms of _plane_forms(y) and every
    (L, W, C) of a box ((L_lo, L_hi), (W_lo, W_hi), (C_lo, C_hi)), L_lo > 0;
    None when the box does not decide.  psi_2^2 >= y exactly when y is at
    most the vertex or between the roots (over <= 0 or q <= 0), and
    psi_1^2 >= y exactly when y is at most the vertex and outside the open
    interval between them (over <= 0 and q >= 0).  Both forms are linear,
    so their ranges over the box decide wherever their signs are fixed; a
    box of exact integers always decides."""
    over_lo, over_hi = _form_range(forms[0], box)
    q_lo, q_hi = _form_range(forms[1], box)
    if j == 2:
        if over_hi <= 0 or q_hi <= 0:
            return True
        if over_lo > 0 and q_lo > 0:
            return False
    else:
        if over_lo > 0 or q_hi < 0:
            return False
        if over_hi <= 0 and q_lo >= 0:
            return True
    return None


def principal_angles(a: RealBasis, b: RealBasis, bits: int = DEFAULT_BITS) -> AngleProfile:
    """Single-shot proximity profile at a fixed working precision.

    Exact pairs with t <= 2 report rel_err_bound 2^-bits.  Other pairs
    report the conservative single-shot claim 2^(-bits/2); use
    angles_adaptive for a measured bound.  bits is at least 64, as in a
    PrecisionContext, and at most the bit cap (SUBDIOPH_MAX_BITS): above it
    PrecisionExhaustedError is raised before any evaluation.
    """
    _check_bits(bits)
    cap = _env_bit_cap()
    if bits > cap:
        raise PrecisionExhaustedError(f"{bits} bits exceed the cap {cap}")
    if _is_exact_pair(a, b):
        return _exact_profile(a, b, bits, bits)
    t = _pair_dimension(a, b)
    with mp.workprec(bits + 32):
        sines = _sines_at(a, b, bits)
        rel = mp.mpf(2) ** (-(bits // 2))
        brackets = _relative_brackets(sines, mp.ldexp(1, -(bits // 4)), rel)
    return _profile(t, brackets, rel, bits)


def vector_angle(
    x: Sequence[exact.Scalar | float],
    y: Sequence[exact.Scalar | float],
    bits: int = DEFAULT_BITS,
):
    """sin of the angle between two nonzero vectors.

    Uses the cross-Gram identity sqrt(|x|^2 |y|^2 - (x.y)^2) / (|x| |y|),
    with the radicand computed exactly when both inputs are rational, so tiny
    angles keep full relative accuracy.  Finite floats are rational (every
    double is a dyadic rational, as in RealBasis.from_float); a NaN or an
    infinite float raises ShapeError.
    """
    if len(x) != len(y):
        raise ShapeError("length mismatch")
    if _all_rational([*x, *y]):
        fx = [Fraction(v) for v in x]
        fy = [Fraction(v) for v in y]
        xx = sum(v * v for v in fx)
        yy = sum(v * v for v in fy)
        if xx == 0 or yy == 0:
            raise ShapeError("zero vector")
        xy = sum(u * v for u, v in zip(fx, fy))
        num = xx * yy - xy * xy  # Lagrange identity: = |x /\ y|^2, >= 0
        with mp.workprec(bits):
            return mp.sqrt(_mpf_of_fraction(num, bits) / _mpf_of_fraction(xx * yy, bits))
    with mp.workprec(bits + 32):
        fx = [mp.mpf(v) for v in x]
        fy = [mp.mpf(v) for v in y]
        xx = mp.fsum(v * v for v in fx)
        yy = mp.fsum(v * v for v in fy)
        if xx == 0 or yy == 0:
            raise ShapeError("zero vector")
        xy = mp.fsum(u * v for u, v in zip(fx, fy))
        num = max(mp.mpf(0), xx * yy - xy * xy)
        return mp.sqrt(num / (xx * yy))


def _all_rational(v: Sequence) -> bool:
    """Whether every entry is an int, a Fraction or a float, each an exact
    rational; a NaN or an infinite float raises ShapeError."""
    if any(isinstance(t, float) and not math.isfinite(t) for t in v):
        raise ShapeError("vector entries must be finite")
    return all(isinstance(t, (int, Fraction, float)) for t in v)


def angles_adaptive(
    a: RealBasis, b: RealBasis, ctx: PrecisionContext | None = None
) -> AngleProfile:
    """Proximity profile of a pair, certified.

    Exact pairs with t <= 2 are evaluated in closed form with proved
    brackets of relative width at most min(2^-bits_used, target_rel_err),
    reported at bits_used = 2 * ctx.bits.  Other pairs are recomputed at
    doubled precision until consecutive profiles agree to
    ctx.target_rel_err on every entry above the near-zero floor.  Entries
    not separated from zero stay bracketed as [0, floor].  Raises
    PrecisionExhaustedError at the bit cap (callers may raise the cap via
    the context or the SUBDIOPH_MAX_BITS environment variable): before any
    evaluation when 2 * ctx.bits exceeds it, as exact_relative_bits does,
    and later when a doubling would.
    """
    ctx = ctx or PrecisionContext()
    # raises at the cap before any evaluation, on either path
    rel_bits = exact_relative_bits(ctx)
    if _is_exact_pair(a, b):
        return _exact_profile(a, b, 2 * ctx.bits, rel_bits)
    bits = ctx.bits
    t = _pair_dimension(a, b)
    target = _mpf_of_fraction(ctx.target_rel_err, 64)
    prev = _sines_at(a, b, bits)
    while True:
        next_bits = bits * 2
        if next_bits > ctx.max_bits:
            raise PrecisionExhaustedError(
                f"no agreement at {bits} bits (cap {ctx.max_bits})"
            )
        cur = _sines_at(a, b, next_bits)
        with mp.workprec(next_bits):
            floor = mp.ldexp(1, -(next_bits // 4))
            worst = mp.mpf(0)
            comparable = True
            for p, c in zip(prev, cur):
                if c <= floor:
                    continue
                diff = abs(p - c) / c
                worst = max(worst, diff)
                if diff > target:
                    comparable = False
            if comparable:
                measured = max(worst, mp.mpf(2) ** (8 - next_bits))
                bound = 4 * measured
                return _profile(t, _relative_brackets(cur, floor, bound), bound, next_bits)
        prev = cur
        bits = next_bits


def _sines_at(a: RealBasis, b: RealBasis, bits: int) -> list:
    with mp.workprec(bits + 32):
        qa = orthonormal_basis(a, bits)
        qb = orthonormal_basis(b, bits)
        return _cross_gram_sines(qa, qb)


def random_orthogonal(n: int, rng, bits: int = DEFAULT_BITS) -> "mp.matrix":
    """Haar-ish random orthogonal matrix via QR of a random Gaussian matrix."""
    with mp.workprec(bits):
        m = mp.matrix([[mp.mpf(rng.gauss(0.0, 1.0)) for _ in range(n)] for _ in range(n)])
        q, r = mp.qr(m)
        # fix signs so the factorization is unique
        for j in range(n):
            if r[j, j] < 0:
                for i in range(n):
                    q[i, j] = -q[i, j]
        return q
