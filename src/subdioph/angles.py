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
without building a basis or an mpf.  Scans at every t keep the dyadics
(_adaptive_brackets); only the profiles of angles_adaptive and
principal_angles turn brackets into mpf ends (_profile).

Pairs with t >= 3 are proved on the integer Gram pencil (_pencil): with A
the smaller basis, S = g A^T A and R = S - A^T B adj(G) B^T A for
G = B^T B and g = det(G); the eigenvalues of S^-1 R are the squared
sines.  d - rank(R) of them are exactly 0; mpmath proposes the others, and
Sylvester's law of inertia proves each one in integers, by counting the
sign changes of the leading minors of R - x S at both ends of its bracket,
on truncated integers first (_pencil_squares, _inertia).  Profiles and
scans prove every sine (_pencil_sine_mantissas); certificates run the
same test on their largest sine alone.  An evaluator basis is read once, rounded to
integers and proved as an exact basis, and each bracket widened by a
proved bound on the reading error (_rounded_basis, _proved_brackets).
mpmath never decides a bracket: no result rests on two runs agreeing.

resolved=False marks a sine that is not separated from zero and carries
the bracket [0, 2^-(bits_used/4)].  For an exact pair that happens only
for an exactly-zero sine (a shared direction); every nonzero sine is
resolved, however small.  For a pair with an evaluator basis it happens
when the widened upper end is at most that floor.  PrecisionContext and
SUBDIOPH_MAX_BITS set the precision an evaluator basis is read at; for an
exact pair they only set the reported bits_used (twice the starting bits,
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


def _offset(x: tuple[int, int], tau: tuple[int, int], prec: int, up: bool):
    """x + tau (up) or x - tau for dyadics, rounded the same way to a
    prec-bit mantissa; None when not positive."""
    (x_man, x_exp), (tau_man, tau_exp) = x, tau
    exp = min(x_exp, tau_exp)
    tau_man <<= tau_exp - exp
    total = (x_man << (x_exp - exp)) + (tau_man if up else -tau_man)
    return _rounded(total, exp, prec, up) if total > 0 else None


def _widened(lo: tuple[int, int], hi: tuple[int, int], tau: tuple[int, int], prec: int):
    """(lo - tau, hi + tau) for dyadics, rounded outward to prec-bit
    mantissas as AngleProfile.widened rounds at that precision, or None when
    lo - tau is not positive."""
    lo = _offset(lo, tau, prec, up=False)
    return None if lo is None else (lo, _offset(hi, tau, prec, up=True))


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

    bits is the starting mantissa size, at least 64.  angles_adaptive
    reads an evaluator basis at twice bits and doubles that while a proved
    bracket is wider than target_rel_err relatively, which lies in (0, 1),
    giving up at max_bits.  A sine of such a pair whose bracket ends at or
    below 2^(-bits_used/4) is not resolved pointwise, only bracketed by
    [0, 2^(-bits_used/4)].
    """

    bits: int = DEFAULT_BITS
    target_rel_err: Fraction = DEFAULT_TARGET_REL_ERR
    max_bits: int = HARD_BIT_CAP

    def __post_init__(self) -> None:
        _check_bits(self.bits)
        # no bracket of positive width reaches a relative error of 0, and one
        # of 1 or more brackets nothing
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
        """A basis given by fn(bits), its n x d matrix at bits bits.

        Accuracy contract: every entry of fn(bits), read as an mpf at bits
        bits, lies within 2^-(bits - 8) times the largest absolute entry of
        its column of the true entry.  The angle engine widens its brackets
        by the perturbation bound this gives (_rounded_basis); an evaluator
        less accurate than that gets brackets that need not hold.
        """

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

    lo/hi bracket each value, and every bracket is proved; entries with
    resolved=False were at or below the near-zero floor and carry only the
    bracket [0, floor].  rel_err_bound bounds the relative half-width
    (hi - lo) / (hi + lo) of the resolved brackets: 2^-bits for an exact
    pair proved at bits, the widest such half-width, rounded up, for a
    pair with an evaluator basis.
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


def _profile(brackets: list, width, bits_used: int) -> AngleProfile:
    """Pack ascending dyadic brackets (lo, hi) into a profile whose
    rel_err_bound is width rounded up to a 64-bit mpf.

    None marks a sine not separated from zero; it is reported unresolved
    with the bracket [0, 2^-(bits_used/4)] and that floor as its value.
    """
    floor = mp.ldexp(1, -(bits_used // 4))
    entries, cap = [], floor
    for b in reversed(brackets):
        # an exact zero below a resolved sine under the floor stays in order
        b = (mp.mpf(0), cap, cap) if b is None else _packed(*b)
        cap = min(cap, b[1])
        entries.append(b)
    lo, psi, hi = zip(*reversed(entries))
    return AngleProfile(
        t=len(brackets),
        psi=psi,
        lo=lo,
        hi=hi,
        resolved=tuple(b is not None for b in brackets),
        rel_err_bound=mp.fdiv(width.numerator, width.denominator, prec=64, rounding="c"),
        bits_used=bits_used,
    )


# An evaluator basis read at p bits is within 2^-(p - _READ_SLACK) of the
# largest entry of each column, entry by entry (RealBasis.from_evaluator)
_READ_SLACK = 8


def _rounded_basis(basis: RealBasis, bits: int) -> tuple:
    """An exact basis X and a bound eps on sin theta_max between the basis
    and X; an exact basis is X, with eps = 0.  An evaluator basis is read
    at bits, each column scaled by 2^(bits - m), its largest entry in
    [2^(m-1), 2^m), and cut to integers.  In those units the true columns
    are X + E, |E_ij| < 2^_READ_SLACK + 1, so |E| < e = (2^_READ_SLACK + 1)
    sqrt(n d); a unit vector (X + E) c / |(X + E) c| of the true span lies
    within |E| / (sigma_min(X) - |E|) of span(X), and sigma_min(X)^2 >=
    det(X^T X) / tr(X^T X)^(d-1).  Raises NumericalRankLossError when
    that bound on sigma_min(X) is not above e."""
    if basis.columns is not None:
        return basis, 0
    columns = []
    for col in zip(*basis.at(bits).tolist()):
        top = max(map(abs, col))
        if not top:
            raise NumericalRankLossError("evaluator basis has a zero column")
        shift = bits - mp.frexp(top)[1]
        columns.append(tuple(int(mp.ldexp(x, shift)) for x in col))
    gram = [[sum(map(mul, u, v)) for v in columns] for u in columns]
    d = basis.d
    sigma = _scaled_isqrt(exact.determinant(gram), sum(gram[i][i] for i in range(d)) ** (d - 1), 0)[0]
    err = ((1 << _READ_SLACK) + 1) * _scaled_isqrt(basis.n * d, 1, 0)[1]
    if sigma <= err:
        raise NumericalRankLossError(f"evaluator basis is numerically dependent at {bits} bits")
    return RealBasis._of_columns(tuple(columns), basis.n, d, basis.source), Fraction(err, sigma - err)


def _proved_brackets(a: RealBasis, b: RealBasis, bits_used: int, bits: int, cap: int) -> tuple:
    """The ascending sine brackets of a pair proved at bits, each
    ((lo_man, lo_exp), (hi_man, hi_exp)) or None where unresolved, and a
    bound on their relative half-widths (hi - lo) / (hi + lo): 2^-bits for
    an exact pair.  A pair with an evaluator basis, read at bits_used
    (_rounded_basis), widens each bracket by eps_A + eps_B, and reports
    the widest half-width: the sines are the singular values of
    (I - P_B) P_A and |P_A - P_X| = sin theta_max, so by Weyl's inequality
    none moves further.  A widened upper end at most 2^-(bits_used/4)
    leaves its sine unresolved."""
    if a.n != b.n:
        raise ShapeError("ambient dimensions differ")
    (xa, eps_a), (xb, eps_b) = _rounded_basis(a, bits_used), _rounded_basis(b, bits_used)
    if min(a.d, b.d) <= 2:
        mantissas = _sine_mantissas(*_gram_integers(xa, xb), bits)
    else:
        mantissas = _pencil_sine_mantissas(xa, xb, bits, cap)
    if not eps_a + eps_b:
        return mantissas, Fraction(1, 1 << bits)
    tau = _ceil_dyadic(eps_a + eps_b, bits_used)
    floor = (1, -(bits_used // 4))
    brackets, width = [], Fraction(0)
    for m in mantissas:
        hi = _offset(m[1] if m else (0, 0), tau, bits_used, up=True)
        if not _dyadic_less(floor, hi):
            brackets.append(None)
            continue
        lo = (m and _offset(m[0], tau, bits_used, up=False)) or (0, 0)
        exp = min(lo[1], hi[1])
        lo_man, hi_man = lo[0] << (lo[1] - exp), hi[0] << (hi[1] - exp)
        width = max(width, Fraction(hi_man - lo_man, hi_man + lo_man))
        brackets.append((lo, hi))
    return brackets, width


def _adaptive_brackets(a: RealBasis, b: RealBasis, ctx: PrecisionContext) -> tuple:
    """The brackets and bound of _proved_brackets under angles_adaptive's
    policy, and the bits_used they were reached at."""
    # raises at the cap before any evaluation, on either path
    rel_bits, bits = exact_relative_bits(ctx), 2 * ctx.bits
    exact_pair = a.columns is not None and b.columns is not None
    while True:
        brackets, width = _proved_brackets(a, b, bits, rel_bits if exact_pair else bits, ctx.max_bits)
        # an exact pair's 2^-rel_bits is below the target at once
        if width <= ctx.target_rel_err:
            return brackets, width, bits
        if 2 * bits > ctx.max_bits:
            raise PrecisionExhaustedError(
                f"brackets wider than the target at {bits} bits (cap {ctx.max_bits})"
            )
        bits *= 2


def _pencil(a: RealBasis, b: RealBasis) -> tuple[int, list, list]:
    """g and the integer Gram pencil of two exact bases, A of dimension d
    at most that of B: S = g A^T A and R = S - A^T B adj(G) B^T A, where
    G = B^T B and g = det(G).  R = g A^T (I - P_B) A, so the squared sines
    are the eigenvalues of S^-1 R."""
    both, d = a.columns + b.columns, a.d
    gram = [[sum(map(mul, u, v)) for v in both] for u in both]
    g = exact.determinant([row[d:] for row in gram[d:]])
    s_mat = [[g * x for x in row[:d]] for row in gram[:d]]
    r_mat = [[x - y for x, y in zip(*rows)] for rows in zip(s_mat, _projected_gram(gram, d))]
    return g, s_mat, r_mat


def _gram_integers(a: RealBasis, b: RealBasis) -> tuple:
    """(L, W, C) of an exact pair with t <= 2 (C None when t = 1) from its
    pencil (_pencil), which by Cauchy-Binet are the label integers of
    their raw minors: L = det(A^T A) det(G) = det(S) / g^(d-1),
    W = det([A | B]^T [A | B]) = det(R) / g^(d-1) and, with A the plane,
    C = det(A^T B adj(G) B^T A) / g = det(S - R) / g.  Polynomial in n,
    where the labels have C(n, d) entries."""
    if a.d > b.d:
        a, b = b, a
    g, s_mat, r_mat = _pencil(a, b)
    label2 = exact.determinant(s_mat)
    if label2 == 0:
        # a float basis comes here with its rank unchecked
        raise NumericalRankLossError("exact basis has dependent columns")
    if a.d == 1:
        return label2, r_mat[0][0], None
    (s00, s01), (s10, s11) = s_mat
    (r00, r01), (r10, r11) = r_mat
    cos2 = (s00 - r00) * (s11 - r11) - (s01 - r01) * (s10 - r10)
    return label2 // g, exact.determinant(r_mat) // g, cos2 // g


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


def _eigen_proposals(s_mat: list, r_mat: list, prec: int) -> "mp.matrix":
    """mpmath's ascending eigenvalues of S^-1 R at prec bits: with
    S = L L^T, those of L^-1 R L^-T."""
    with mp.workprec(prec):
        inv = mp.inverse(mp.cholesky(mp.matrix(s_mat)))
        return mp.eigsy(inv * mp.matrix(r_mat) * inv.T, eigvals_only=True)


def _pencil_sine_mantissas(a: RealBasis, b: RealBasis, bits: int, cap: int) -> list:
    """Ascending _sqrt_bracket sine brackets, of relative width below
    2^-bits, of two exact bases; a zero sine is None.  The pencil is that
    of the smaller basis size-reduced (_size_reduced).  R is positive
    semidefinite of nullity dim(A /\\ B), so the least d - rank(R) squared
    sines are exactly 0.  mpmath proposes each other one as m at
    bits + extra, and x_lo, x_hi = m (1 -/+ 2^-(bits+6)) bracket mu_j once
    R - x_lo S has at most j - 1 negative eigenvalues and R - x_hi S at
    least j (Sylvester's law of inertia: R - x S is congruent to
    S^-1/2 R S^-1/2 - x I).  Each check is one-sided, so repeated and
    clustered roots need no care.  A failed proof is retried with extra
    doubled, up to bits + extra = cap, so the brackets keep their width.
    All brackets share the finest scale, which keeps their midpoints in
    order."""
    if a.d > b.d:
        a, b = b, a
    a = RealBasis._of_columns(_size_reduced(a.columns), a.n, a.d)
    _, s_mat, r_mat = _pencil(a, b)
    if exact.determinant(s_mat) == 0:
        # a float basis comes here with its rank unchecked
        raise NumericalRankLossError("exact basis has dependent columns")
    zeros, extra = a.d - exact.rank(r_mat), 64
    while (squares := _pencil_squares(s_mat, r_mat, zeros, bits, extra)) is None:
        if bits + 2 * extra > cap:
            raise PrecisionExhaustedError(f"no proof of the squared sines at {bits + extra} bits (cap {cap})")
        extra *= 2
    k = max((_sqrt_scale(x[0], x[1], bits + 4) for x in squares), default=0)
    return [None] * zeros + [_sqrt_bracket(x, k) for x in squares]


def _size_reduced(columns: tuple) -> tuple:
    """Integer columns size-reduced: each less the whole multiples of those
    before it that bring its Gram-Schmidt coefficients mu into [-1/2, 1/2].
    The change is unimodular, so the pencil's eigenvalues stay, and
    columns cleared at very different scales no longer leave S nearly
    singular for the proposals.  Integral Gram-Schmidt (Cohen, Algorithm
    2.6.7): dets[j] is the Gram determinant of the first j columns and
    lam[k][j] = dets[j + 1] mu_kj, all integers.  Raises
    NumericalRankLossError on dependent columns."""
    cols, dets, lam = [list(col) for col in columns], [1], []
    for k, col in enumerate(cols):
        lam.append([])
        for j in range(k + 1):
            u = sum(map(mul, col, cols[j]))
            for i in range(j):
                u = (dets[i + 1] * u - lam[k][i] * lam[j][i]) // dets[i]
            if j < k:
                lam[k].append(u)
            else:
                dets.append(u)
        if not dets[-1]:
            # a float basis comes here with its rank unchecked
            raise NumericalRankLossError("exact basis has dependent columns")
    for k in range(1, len(cols)):
        for j in reversed(range(k)):
            q = (2 * lam[k][j] + dets[j + 1]) // (2 * dets[j + 1])  # the nearest integer to mu_kj
            if q:
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[j])]
                lam[k][j] -= q * dets[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
    return tuple(map(tuple, cols))


def _pencil_squares(s_mat: list, r_mat: list, zeros: int, bits: int, extra: int):
    """The intervals (num_lo, den, num_hi, den) of _pencil_sine_mantissas
    for the squared sines from index zeros up, or None when a proof fails,
    S numerically singular at bits + extra included."""
    try:
        values = _eigen_proposals(s_mat, r_mat, bits + extra)
    except (ValueError, ZeroDivisionError):
        # mp.cholesky and mp.inverse refuse a matrix singular at their precision
        return None
    k, squares = bits + 6, []
    for j in range(zeros, len(s_mat)):
        if values[j] <= 0:
            return None
        man, exp = values[j].man_exp
        # x = man (2^k -/+ 1) 2^(exp - k) as num / den
        den = 1 << max(0, k - exp)
        num_lo, num_hi = (man * ((1 << k) + sign) << max(0, exp - k) for sign in (-1, 1))
        # den (R - x S) at both ends
        at_lo, at_hi = ([[den * r - num * s for r, s in zip(*rows)] for rows in zip(r_mat, s_mat)]
                        for num in (num_lo, num_hi))
        if not (_inertia(at_lo, bits + 128, j, at_least=False)
                and _inertia(at_hi, bits + 128, j + 1, at_least=True)):
            return None
        squares.append((num_lo, den, num_hi, den))
    return squares


def _inertia(m: list, width: int, k: int, at_least: bool) -> bool:
    """Whether the symmetric integer matrix m has at least k negative
    eigenvalues (at_least), or else at most k that are not positive.  With
    no leading minor 0, the number of negative eigenvalues is the number of
    sign changes along 1, D_1, ..., D_d (Jacobi).  Truncations run first:
    m = 2^shift (m' + E) with m' = m >> shift entrywise and E symmetric
    with entries in [0, 1), so |E|_2 <= |E|_F < d, and by Weyl m' + d I
    with k negative eigenvalues proves k for m, and m' - d I with at most
    k that are not positive proves that for m.  The first m' keeps width
    leading bits of the largest entry; each failure halves shift, down to
    0, the test on m itself."""
    d = len(m)
    shift = max(0, max(abs(x).bit_length() for row in m for x in row) - width)
    while True:
        trial = m
        if shift:
            trial = [[x >> shift for x in row] for row in m]
            for i in range(d):
                trial[i][i] += d if at_least else -d
        minors = [1] + [exact.determinant([row[:j] for row in trial[:j]]) for j in range(1, d + 1)]
        if 0 not in minors:
            negative = sum((x < 0) != (y < 0) for x, y in zip(minors, minors[1:]))
            if negative >= k if at_least else negative <= k:
                return True
        if not shift:
            return False
        shift //= 2


def exact_relative_bits(ctx: PrecisionContext | None = None) -> int:
    """b such that angles_adaptive brackets every sine psi of an exact pair
    inside (psi (1 - 2^-b), psi (1 + 2^-b)): twice ctx.bits, or more when
    ctx.target_rel_err asks for it.

    Raises PrecisionExhaustedError where angles_adaptive would.
    """
    ctx = ctx or PrecisionContext()
    bits = 2 * ctx.bits
    if bits > ctx.max_bits:
        raise PrecisionExhaustedError(f"{ctx.bits} bits doubled exceed the cap {ctx.max_bits}")
    rel = ctx.target_rel_err  # in (0, 1), as PrecisionContext checks
    return max(bits, (rel.denominator // rel.numerator).bit_length())


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
    """Exact mpf (lo, mid, hi) of a bracket of two dyadics."""
    exp = min(lo[1], hi[1])
    mid = (lo[0] << (lo[1] - exp)) + (hi[0] << (hi[1] - exp))
    return mp.ldexp(*lo), mp.ldexp(mid, exp - 1), mp.ldexp(*hi)


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

    Exact pairs are proved at bits and report rel_err_bound 2^-bits.  A
    pair with an evaluator basis is read once at bits and proved as
    angles_adaptive proves it, with no doubling: its rel_err_bound is the
    relative half-width its widened brackets reach.  bits is at least 64,
    as in a PrecisionContext, and at most the bit cap (SUBDIOPH_MAX_BITS):
    above it PrecisionExhaustedError is raised before any evaluation.
    """
    _check_bits(bits)
    cap = _env_bit_cap()
    if bits > cap:
        raise PrecisionExhaustedError(f"{bits} bits exceed the cap {cap}")
    return _profile(*_proved_brackets(a, b, bits, bits, cap), bits)


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

    Exact pairs are proved in integers with brackets of relative width at
    most min(2^-bits_used, target_rel_err), reported at
    bits_used = 2 * ctx.bits.  A pair with an evaluator basis is read at
    bits_used = 2 * ctx.bits, rounded to an exact pair, proved, and each
    bracket widened by a proved bound on the reading error; bits_used
    doubles, and the pair is read and proved again, only while a resolved
    bracket is wider than ctx.target_rel_err relatively.  Entries not
    separated from zero are bracketed as [0, floor].  Raises
    PrecisionExhaustedError at the bit cap (callers may raise the cap via
    the context or the SUBDIOPH_MAX_BITS environment variable): before any
    evaluation when 2 * ctx.bits exceeds it, as exact_relative_bits does,
    and later when a doubling would.
    """
    return _profile(*_adaptive_brackets(a, b, ctx or PrecisionContext()))


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
