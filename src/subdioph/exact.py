"""Exact integer and rational linear algebra for rational subspaces of R^n.

A rational subspace is represented by an integer basis matrix with the
generators as columns.  Its coordinate vector (the tuple of maximal minors of
the basis, read in lexicographic row-set order) is normalized to be primitive
with positive leading entry, which makes it a canonical label: two bases span
the same subspace exactly when their normalized coordinate vectors agree.  The
height of the subspace is the Euclidean norm of that label; this module keeps
heights squared so everything stays in exact integer arithmetic.

PlueckerVector(n, e, coords) checks its coordinates (count, nonzero,
primitive, positive lead) and is the constructor for outside input.
Labels normalized by construction skip those checks through the private
PlueckerVector._normalized: label_from_minors, which normalizes the minors
it is given, and the enumerators (see enumeration).  Under the same
contract, RationalSubspace._line builds a line from a primitive vector with
a positive lead, which is its label and, as a column, its basis: for the
line census, the line engine's records and the harness's placed records.

Two labels pair in integers.  wedge_map turns a label X_A into the integer
rows M_A with X_A /\\ X_B = M_A X_B, so a record scan builds it once per
target and reads |X_A /\\ X_B|^2 of each candidate as the squared norm of
one small matrix-vector product (squared_image_norm); from it the scan
bounds proximity sines without any basis.  contraction_map gives the
cosine side the same way: the contraction of the smaller label into the
larger, the adjoint of wedging, which for two labels of one shape is the
dot product <X_A, X_B> = det(A^T B) (Cauchy-Binet).  Together they give
every sine of a pair with at most two angles (angles._sine_mantissas).
All exact linear algebra runs one fraction-free (Bareiss) elimination on
integer rows, _eliminate: each update divides exactly by the previous
pivot, so no row needs its gcd.  _integer_rows stands in front of it: it
screens the row widths and the entries (int or Fraction) and scales each
row holding a Fraction to integers.  rank reads the pivot count of the
forward elimination, and determinant above 3 x 3 the swap sign times the
last pivot.  The reduced form (Gauss-Jordan, every pivot equal to the last
one, D) gives rational_kernel, and through it the decoding of a label back
to a basis (pluecker_decode, which also serves enumerated planes and
hyperplanes), so a decoded basis never touches Fraction.  It also gives
inverse, from [M | I], and the Gram solve of angles._projected_gram.

Small integer matrices, which the echelon census and the verify suites
build by the thousand, take fast lanes: raw_minors writes the minors of
lines, planes and 3-spaces inline (the echelon census reads them through
_minors, without raw_minors' checks), and compound_matrix its first and
second compounds, with no determinant call, and its higher ones through
_minors, one column set at a time; as_matrix screens an all-int input in
one pass, and from_basis validates and clears its basis once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DegenerateBasisError,
    NotDecomposableError,
    ShapeError,
)

Scalar = int | Fraction
Matrix = tuple[tuple[Scalar, ...], ...]


# ---------------------------------------------------------------------------
# matrix helpers


def as_matrix(rows: Iterable[Sequence[Scalar]]) -> Matrix:
    """Validate and freeze a rectangular matrix given as rows."""
    frozen = tuple(map(tuple, rows))
    # all plain ints, the common input, are screened in one pass
    if not all(type(x) is int for row in frozen for x in row):
        frozen = tuple(tuple(map(_as_scalar, row)) for row in frozen)
    if not frozen or not frozen[0]:
        raise ShapeError("matrix must have at least one row and one column")
    width = len(frozen[0])
    if any(len(row) != width for row in frozen):
        raise ShapeError("ragged rows")
    return frozen


def _as_scalar(x: Scalar) -> Scalar:
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ShapeError(f"entries must be int or Fraction, got {type(x).__name__}")
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _has_fraction(rows: Sequence[Sequence[Scalar]]) -> bool:
    # plain ints are screened by type first: isinstance(x, Fraction) goes
    # through the numbers ABCs and costs more than the arithmetic it guards
    return not all(type(x) is int for row in rows for x in row) and any(
        isinstance(x, Fraction) for row in rows for x in row
    )


def shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0])


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def determinant(m: Matrix) -> Scalar:
    """Exact determinant of a square matrix: a Fraction when an entry is one.

    Up to 3 x 3 it is the closed form; above, the swap sign times the last
    pivot of _eliminate.  Raises ShapeError for an entry that is neither an
    int nor a Fraction.
    """
    r, c = shape(m)
    if r != c:
        raise ShapeError("determinant needs a square matrix")
    rows, scale = _integer_rows(m)
    if r == 1:
        det = rows[0][0]
    elif r == 2:
        (a, b), (cc, d) = rows
        det = a * d - b * cc
    elif r == 3:
        (a, b, cc), (d, e, f), (g, h, i) = rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + cc * (d * h - e * g)
    else:
        work, pivots, sign = _eliminate(rows)
        det = sign * work[-1][-1] if len(pivots) == r else 0
    return det if scale is None else Fraction(det, scale)


def rank(m: Matrix) -> int:
    """Exact rank: the pivot count of _eliminate."""
    return len(_eliminate(_integer_rows(m)[0])[1])


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix.

    _eliminate reduces [M | I] to [D I | D M^-1] when M is invertible; a
    singular M leaves a pivot in the identity block.
    """
    n, c = shape(m)
    if n != c:
        raise ShapeError("only square matrices invert")
    rows, _ = _integer_rows([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m))
    work, pivots, _ = _eliminate(rows, reduce=True)
    if pivots[-1] >= n:
        raise DegenerateBasisError("matrix is singular")
    d = work[-1][n - 1]
    return as_matrix([[Fraction(x, d) for x in row[n:]] for row in work])


def rational_kernel(m: Iterable[Sequence[Scalar]]) -> list[tuple[int, ...]]:
    """Basis of the right kernel over Q, from the reduced rows of _eliminate.

    Returns one vector per free column: the primitive integer vector that
    is positive at that column and zero at the other free columns, which is
    the reduced-row-echelon kernel vector cleared of denominators.  With
    every pivot equal to D, it is D at the free column less that column's
    entries at the pivot columns, divided by its gcd.  Callers always pass
    at least one row.
    """
    work, pivots, _ = _eliminate(_integer_rows(m)[0], reduce=True)
    d = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    cols = len(work[0])
    basis = []
    for j in range(cols):
        if j in pivots:
            continue
        v = [0] * cols
        v[j] = d
        for i, pj in enumerate(pivots):
            v[pj] = -work[i][j]
        g = math.gcd(*v) if d > 0 else -math.gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def _integer_rows(m: Iterable[Sequence[Scalar]]) -> tuple[list, int | None]:
    """The rows of m in integers, each row holding a Fraction scaled by the
    lcm of its denominators, and the product of those scales (None when
    every entry is an int).  Scaling rows keeps rank and kernel, and divides
    out of the determinant.

    Raises ShapeError for ragged rows, and for an entry that is neither an
    int nor a Fraction (a bool or a float), as as_matrix does.
    """
    rows = list(m)
    if len(set(map(len, rows))) > 1:
        raise ShapeError("rows of different lengths")
    if all(type(x) is int for row in rows for x in row):
        return rows, None
    scale = 1
    for i, row in enumerate(rows):
        # clearing (row, 1) appends the row's scale to the cleared row
        *rows[i], k = clear_denominators([*map(_as_scalar, row), 1])
        scale *= k
    return rows, scale


def _eliminate(
    m: Sequence[Sequence[int]], reduce: bool = False
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) elimination of integer rows.

    Column by column, the first row at or below the next pivot row with a
    nonzero entry there is swapped up, and every row below it becomes
    (pivot * row - entry * top) / prev, prev the pivot before.  Every entry
    so formed is a minor of the input, so the division is exact and no row
    needs its gcd.  With reduce, the rows above the pivot are updated too
    (Gauss-Jordan), and every pivot ends equal to the last one, D.

    Returns the eliminated rows, the pivot columns and the sign of the row
    swaps.
    """
    work = [list(row) for row in m]
    rows = len(work)
    cols = len(work[0]) if work else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for j in range(cols):
        r = p = len(pivots)
        while p < rows and not work[p][j]:
            p += 1
        if p == rows:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            sign = -sign
        top = work[r]
        pivot = top[j]
        for i in range(0 if reduce else r + 1, rows):
            row = work[i]
            factor = row[j]
            if i == r or not factor and pivot == prev:
                continue
            # columns before j are zero in the top row and in the rows below
            for c in range(j + 1, cols):
                row[c] = (pivot * row[c] - factor * top[c]) // prev
            row[j] = 0
            if i < r:
                for c in range(j):
                    row[c] = pivot * row[c] // prev
        pivots.append(j)
        prev = pivot
        if r + 1 == rows:
            break
    return work, pivots, sign


def clear_denominators(v: Sequence[Scalar]) -> tuple[int, ...]:
    """Scale a rational vector by the lcm of denominators to land in Z^n."""
    scale = math.lcm(*(x.denominator for x in v))
    return tuple(int(x * scale) for x in v)


# ---------------------------------------------------------------------------
# coordinate vectors and subspaces


@dataclass(frozen=True)
class PlueckerVector:
    """Normalized coordinate label of a rational e-subspace of R^n.

    coords holds the e x e minors of an integer basis in lexicographic
    row-set order, divided by their gcd, with the first nonzero entry
    positive.
    """

    n: int
    e: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.e < 0:
            raise ShapeError(f"negative shape ({self.n},{self.e})")
        expected = math.comb(self.n, self.e)
        if len(self.coords) != expected:
            raise ShapeError(
                f"expected {expected} coordinates for ({self.n},{self.e}),"
                f" got {len(self.coords)}"
            )
        if all(c == 0 for c in self.coords):
            raise DegenerateBasisError("zero coordinate vector")
        g = math.gcd(*(abs(c) for c in self.coords))
        if g != 1:
            raise ShapeError("coordinates are not gcd-normalized")
        first = next(c for c in self.coords if c != 0)
        if first < 0:
            raise ShapeError("leading nonzero coordinate must be positive")

    @classmethod
    def _normalized(cls, n: int, e: int, coords: tuple[int, ...]) -> "PlueckerVector":
        """A label whose coords are normalized by construction.

        Skips every check of __post_init__.  Only code that builds the
        normalized form itself may call it: label_from_minors, the
        enumerators and RationalSubspace._line.  Outside input goes through
        PlueckerVector(n, e, coords).
        """
        label = object.__new__(cls)
        fields = label.__dict__
        fields["n"], fields["e"], fields["coords"] = n, e, coords
        return label

    @property
    def height_squared(self) -> int:
        return sum(c * c for c in self.coords)


def raw_minors(basis: Matrix) -> tuple[int, ...]:
    """All e x e minors of an integer n x e basis, lexicographic row sets."""
    n, e = shape(basis)
    if e > n:
        raise ShapeError(f"basis is {n}x{e}; need at least as many rows as columns")
    if _has_fraction(basis):
        raise ShapeError("raw minors are defined for integer bases")
    return _minors(basis, n, e)


def _minors(basis: Matrix, n: int, e: int) -> tuple[int, ...]:
    """raw_minors of an n x e basis with e <= n, unchecked: for the echelon
    census, whose matrices are integer and of that shape by construction,
    and for compound_matrix, which passes one column set at a time (its
    rational entries give the Fraction minors determinant gives)."""
    # lines, planes and 3-spaces: each minor inline, without a determinant call
    if e == 1:
        return tuple(row[0] for row in basis)
    if e == 2:
        return tuple(a[0] * b[1] - a[1] * b[0] for a, b in combinations(basis, 2))
    if e == 3:
        return tuple(
            a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
            for (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) in combinations(basis, 3)
        )
    return tuple(
        determinant(tuple(basis[i] for i in rows)) for rows in combinations(range(n), e)
    )


def pluecker_coordinates(basis: Iterable[Sequence[Scalar]]) -> PlueckerVector:
    """Normalized coordinate vector of the span of the columns of `basis`.

    Rational entries are allowed; denominators are cleared per column first,
    which does not change the span.

    Raises DegenerateBasisError when the columns are linearly dependent.
    """
    return _label_of(_integer_basis(basis))


def label_from_minors(n: int, e: int, minors: Sequence[int]) -> PlueckerVector:
    """Normalized label from the raw maximal minors of an integer n x e basis.

    The minors must be all C(n, e) of them, as raw_minors returns; the
    result is normalized here and built without PlueckerVector's checks.

    Raises DegenerateBasisError when every minor is zero.
    """
    g = math.gcd(*minors)
    if g == 0:
        raise DegenerateBasisError("columns are linearly dependent")
    coords = tuple(v // g for v in minors) if g != 1 else tuple(minors)
    if next(c for c in coords if c != 0) < 0:
        coords = tuple(-c for c in coords)
    return PlueckerVector._normalized(n, e, coords)


def _integer_basis(basis: Iterable[Sequence[Scalar]]) -> Matrix:
    m = as_matrix(basis)
    if _has_fraction(m):
        cols = [clear_denominators(col) for col in transpose(m)]
        m = transpose(as_matrix(cols))
    return m


def _label_of(m: Matrix) -> PlueckerVector:
    """The label of an integer basis that _integer_basis returned."""
    return label_from_minors(len(m), len(m[0]), raw_minors(m))


def height_squared(basis: Iterable[Sequence[Scalar]]) -> int:
    """Squared height of the span of the columns of `basis` (exact integer)."""
    return pluecker_coordinates(basis).height_squared


def generalized_determinant_squared(basis: Iterable[Sequence[Scalar]]) -> Scalar:
    """det(M^t M) for a basis matrix M, i.e. the squared basis covolume.

    For an integer basis this equals g^2 * heightSquared where g is the gcd
    of the raw maximal minors (Cauchy-Binet); in particular the two agree
    exactly when the basis generates the full integer-point lattice of its
    span.
    """
    m = as_matrix(basis)
    n, e = shape(m)
    if e > n:
        raise ShapeError("more columns than rows")
    gram = mat_mul(transpose(m), m)
    return determinant(gram)


def is_primitive_basis(basis: Iterable[Sequence[Scalar]]) -> bool:
    """Whether the integer columns generate the full lattice of their span.

    Criterion: the gcd of the raw e x e minors is 1.
    """
    m = as_matrix(basis)
    minors = raw_minors(m)
    if all(v == 0 for v in minors):
        raise DegenerateBasisError("columns are linearly dependent")
    return math.gcd(*(abs(v) for v in minors)) == 1


class RationalSubspace:
    """A rational e-subspace of R^n, held by its normalized label.

    A subspace made from a basis keeps that basis; one made from its label
    alone computes its basis with pluecker_decode on first access to .basis.
    Equality and hashing go through the label, so two instances built from
    different bases of the same span compare equal.  Instances are not
    changed after construction, apart from that cached basis.
    """

    __slots__ = ("n", "e", "pluecker", "_basis")

    def __init__(self, pluecker: PlueckerVector, basis: Matrix | None = None) -> None:
        self.n, self.e = pluecker.n, pluecker.e
        self.pluecker = pluecker
        self._basis = basis

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            self._basis = pluecker_decode(self.pluecker).basis
        return self._basis

    @classmethod
    def from_basis(cls, basis: Iterable[Sequence[Scalar]]) -> "RationalSubspace":
        m = _integer_basis(basis)
        return cls(_label_of(m), m)

    @classmethod
    def _line(cls, vec: tuple[int, ...]) -> "RationalSubspace":
        """The line through a primitive vector with a positive lead, built
        by code that made the vector so: from_basis of that column, unchecked."""
        return cls(PlueckerVector._normalized(len(vec), 1, vec), tuple(zip(vec)))

    @classmethod
    def from_pluecker(cls, pv: PlueckerVector) -> "RationalSubspace":
        return pluecker_decode(pv)

    @property
    def height_squared(self) -> int:
        return self.pluecker.height_squared

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalSubspace):
            return NotImplemented
        return self.pluecker == other.pluecker

    def __hash__(self) -> int:
        return hash(self.pluecker)

    def __repr__(self) -> str:
        return f"RationalSubspace({self.pluecker!r})"


@functools.cache
def _pairing_terms(n: int, d: int, e: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per (d+e)-row set S, the (sign, d-set index, e-set index) of every split
    of S into row sets I and J, with e_I /\\ e_J = sign * e_S."""
    index_d = {rows: k for k, rows in enumerate(combinations(range(n), d))}
    index_e = {rows: k for k, rows in enumerate(combinations(range(n), e))}
    terms = []
    for big in combinations(range(n), d + e):
        split = []
        for pos in combinations(range(d + e), d):
            rows_i = tuple(big[p] for p in pos)
            rows_j = tuple(r for r in big if r not in rows_i)
            # moving I to the front passes sum(pos) - d(d-1)/2 rows of J
            sign = -1 if (sum(pos) - d * (d - 1) // 2) & 1 else 1
            split.append((sign, index_d[rows_i], index_e[rows_j]))
        terms.append(tuple(split))
    return tuple(terms)


def wedge_map(xa: Sequence[int], d: int, e: int, n: int) -> Matrix:
    """The integer rows M_A with X_A /\\ X_B = M_A X_B for every label X_B
    of shape (n, e), given a label X_A of shape (n, d).

    One row per (d+e)-row set S, one column per e-row set J: the entry is
    sign * X_A[S - J] when J lies in S, else 0.  There are no rows when
    d + e > n.  A scan builds the map once and pairs every candidate
    label with it.
    """
    width = math.comb(n, e)
    rows = []
    for split in _pairing_terms(n, d, e):
        row = [0] * width
        for sign, i, j in split:
            row[j] = sign * xa[i]
        rows.append(tuple(row))
    return tuple(rows)


def contraction_map(xa: Sequence[int], d: int, e: int, n: int) -> Matrix:
    """The integer rows N_A that contract the smaller of X_A, of shape
    (n, d), and any label X_B of shape (n, e) into the larger:
    |N_A X_B|^2 is |X_A|^2 |X_B|^2 times the product of the squared cosines
    of the min(d, e) principal angles.

    For d <= e contraction is the adjoint of wedging, so N_A is the
    transpose of wedge_map(xa, d, e - d, n): the one row X_A when d = e.
    For d > e, row K (a (d-e)-row set) and column I (an e-row set) hold
    sign * X_A[I + K] for e_I /\\ e_K = sign * e_(I+K), or 0.
    """
    if d <= e:
        return transpose(wedge_map(xa, d, e - d, n))
    rows = [[0] * math.comb(n, e) for _ in range(math.comb(n, d - e))]
    # _pairing_terms lists the d-row sets in label order
    for s, split in enumerate(_pairing_terms(n, e, d - e)):
        for sign, i, k in split:
            rows[k][i] = sign * xa[s]
    return tuple(map(tuple, rows))


def squared_image_norm(rows: Matrix):
    """v -> |rows v|^2 for integer vectors v: one squared dot product when
    there is one row (a wedge map with d + e = n, a contraction map with
    d = e)."""
    if len(rows) == 1:
        row = rows[0]
        return lambda v: sum(map(mul, row, v)) ** 2
    return lambda v: sum(sum(map(mul, r, v)) ** 2 for r in rows)


def pluecker_decode(pv: PlueckerVector) -> RationalSubspace:
    """Recover the subspace from a normalized coordinate vector.

    The subspace is the kernel of v -> Xi /\\ v (wedge_map), computed
    exactly in integers; its basis columns are the primitive kernel vectors of
    rational_kernel.  A vector that does not satisfy the quadratic
    compatibility relations has a kernel of the wrong dimension and is
    rejected.

    Raises NotDecomposableError when no e-subspace has these coordinates.
    """
    n, e = pv.n, pv.e
    if e == n:
        return RationalSubspace(pv, identity(n))
    kernel = rational_kernel(wedge_map(pv.coords, e, 1, n))
    if len(kernel) != e:
        raise NotDecomposableError(
            f"kernel dimension {len(kernel)} != {e}; vector fails the"
            " compatibility relations"
        )
    m = transpose(kernel)
    recovered = pluecker_coordinates(m)
    if recovered.coords != pv.coords:
        raise NotDecomposableError("kernel span does not reproduce the input vector")
    return RationalSubspace(recovered, m)


# ---------------------------------------------------------------------------
# compound matrices and block determinants


def compound_matrix(m: Iterable[Sequence[Scalar]], e: int) -> Matrix:
    """e-th compound: all e x e minors, lexicographic row and column sets.

    Multiplicative in the sense compound(A @ B, e) = compound(A, e) @
    compound(B, e), which is what transports subspace labels through linear
    maps.
    """
    mm = as_matrix(m)
    r, c = shape(mm)
    if not 1 <= e <= min(r, c):
        raise ShapeError(f"compound order {e} out of range for {r}x{c}")
    if e == 1:
        return mm
    if e == 2:  # each 2 x 2 minor inline, without a determinant call
        col_pairs = list(combinations(range(c), 2))
        return tuple(
            tuple(a[i] * b[j] - a[j] * b[i] for i, j in col_pairs)
            for a, b in combinations(mm, 2)
        )
    # column set by column set: the e x e minors of those columns
    return transpose(tuple(
        _minors(tuple(tuple(row[j] for j in cs) for row in mm), r, e)
        for cs in combinations(range(c), e)
    ))
