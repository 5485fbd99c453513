"""Exact-core oracles: hand-computed labels, heights, and identities."""

from fractions import Fraction
from itertools import combinations
import math
import random

import pytest

from subdioph.errors import (
    DegenerateBasisError,
    NotDecomposableError,
    ShapeError,
)
from subdioph.exact import (
    PlueckerVector,
    RationalSubspace,
    as_matrix,
    compound_matrix,
    contraction_map,
    determinant,
    generalized_determinant_squared,
    height_squared,
    inverse,
    is_primitive_basis,
    label_from_minors,
    mat_mul,
    pluecker_coordinates,
    pluecker_decode,
    rank,
    rational_kernel,
    raw_minors,
    transpose,
    squared_image_norm,
    wedge_map,
)
from subdioph.exact import _pairing_terms


def columns(*cols):
    """Assemble a basis matrix from column vectors."""
    return [list(row) for row in zip(*cols)]


# hand-computed: minors of ((1,0),(0,1),(1,0),(0,1)) over row pairs
# 12,13,14,23,24,34 are 1,0,1,-1,0,1
def test_pluecker_hand_computed_r4():
    pv = pluecker_coordinates(columns((1, 0, 1, 0), (0, 1, 0, 1)))
    assert pv.coords == (1, 0, 1, -1, 0, 1)
    assert pv.height_squared == 4


def test_height_of_line_is_norm_of_primitive_vector():
    assert height_squared(columns((3, 4))) == 25
    assert height_squared(columns((6, 8))) == 25  # gcd folded out
    assert height_squared(columns((0, 7))) == 1


def test_leading_sign_is_canonical():
    a = pluecker_coordinates(columns((-3, -4)))
    b = pluecker_coordinates(columns((3, 4)))
    assert a == b
    assert a.coords[0] > 0


def test_rational_entries_are_cleared_per_column():
    pv = pluecker_coordinates(columns((1, Fraction(1, 2))))
    assert pv.coords == (2, 1)
    assert pv.height_squared == 5


def test_label_from_minors_matches_the_validating_constructor():
    """label_from_minors builds its label without PlueckerVector's checks;
    on random integer bases it must equal the checked construction."""
    rng = random.Random(20260815)
    degenerate = 0
    for _ in range(2000):
        n = rng.randint(2, 5)
        e = rng.randint(1, n)
        k = rng.choice((1, 2, 9))
        basis = [[rng.randint(-k, k) for _ in range(e)] for _ in range(n)]
        minors = raw_minors(as_matrix(basis))
        assert minors == tuple(
            determinant([basis[i] for i in rows]) for rows in combinations(range(n), e)
        )
        if not any(minors):
            degenerate += 1
            with pytest.raises(DegenerateBasisError):
                label_from_minors(n, e, minors)
            continue
        label = label_from_minors(n, e, minors)
        assert label == PlueckerVector(n, e, label.coords)
        g = math.gcd(*minors)
        sign = 1 if next(m for m in minors if m) > 0 else -1
        assert label.coords == tuple(sign * m // g for m in minors)
        assert type(label.coords) is tuple and all(type(c) is int for c in label.coords)
    assert 0 < degenerate < 2000


@pytest.mark.parametrize(
    "n, e, coords, error, message",
    [
        (4, 2, (1, 0, 0, 0, 0), ShapeError, "expected 6 coordinates"),
        (3, 1, (0, 0, 0), DegenerateBasisError, "zero coordinate vector"),
        (3, 1, (2, 4, -6), ShapeError, "gcd-normalized"),
        (3, 1, (0, -1, 2), ShapeError, "leading nonzero coordinate"),
        (-1, 1, (), ShapeError, "negative shape"),
        (3, -1, (), ShapeError, "negative shape"),
    ],
)
def test_public_label_constructor_still_validates(n, e, coords, error, message):
    with pytest.raises(error, match=message):
        PlueckerVector(n, e, coords)


def test_degenerate_basis_rejected():
    with pytest.raises(DegenerateBasisError):
        pluecker_coordinates(columns((1, 2, 3), (2, 4, 6)))


def test_full_space_has_height_one():
    pv = pluecker_coordinates([[2, 0], [0, 3]])
    assert pv.coords == (1,)
    assert pv.height_squared == 1


# covolume identity: det(M^t M) = gcd(minors)^2 * heightSquared
def test_gram_determinant_matches_height_on_primitive_example():
    basis = columns((1, 0, 1, 0), (0, 1, 0, 1))
    assert generalized_determinant_squared(basis) == 4
    assert is_primitive_basis(basis)


def test_gram_determinant_picks_up_index_squared():
    basis = columns((2, 0), (0, 2))  # index-4 sublattice of Z^2
    assert generalized_determinant_squared(basis) == 16
    assert height_squared(basis) == 1
    assert not is_primitive_basis(basis)


def test_covolume_identity_random_bases():
    rng = random.Random(20260814)
    for _ in range(300):
        n = rng.randint(2, 6)
        e = rng.randint(1, min(3, n))
        basis = [[rng.randint(-20, 20) for _ in range(e)] for _ in range(n)]
        try:
            pv = pluecker_coordinates(basis)
        except DegenerateBasisError:
            continue
        from subdioph.exact import raw_minors

        minors = raw_minors(as_matrix(basis))
        g = math.gcd(*(abs(v) for v in minors))
        assert generalized_determinant_squared(basis) == g * g * pv.height_squared
        assert is_primitive_basis(basis) == (g == 1)


def test_construction_convergent_column_is_primitive():
    # columns (5^3, 53) and (5^9, 828127) generate their full lattices
    assert is_primitive_basis(columns((125, 53)))
    assert is_primitive_basis(columns((1953125, 828127)))
    assert height_squared(columns((125, 53))) == 18434


def test_decode_round_trip_hand_example():
    pv = PlueckerVector(n=3, e=2, coords=(1, 0, 0))
    sub = pluecker_decode(pv)
    assert sub.height_squared == 1
    # span(e1, e2): third row of any basis must vanish
    assert all(x == 0 for x in sub.basis[2])
    assert pluecker_coordinates(sub.basis) == pv


def test_decode_rejects_non_decomposable():
    with pytest.raises(NotDecomposableError):
        pluecker_decode(PlueckerVector(n=4, e=2, coords=(1, 0, 0, 0, 0, 1)))


def test_decode_rejects_quadric_violations_randomly():
    rng = random.Random(7)
    rejected = 0
    while rejected < 50:
        coords = tuple(rng.randint(-9, 9) for _ in range(6))
        if all(c == 0 for c in coords):
            continue
        g = math.gcd(*(abs(c) for c in coords))
        coords = tuple(c // g for c in coords)
        first = next(c for c in coords if c != 0)
        if first < 0:
            coords = tuple(-c for c in coords)
        a, b, c, d, e, f = coords
        if a * f - b * e + c * d == 0:
            continue  # decomposable, skip
        with pytest.raises(NotDecomposableError):
            pluecker_decode(PlueckerVector(n=4, e=2, coords=coords))
        rejected += 1


def test_decode_round_trip_random():
    rng = random.Random(99)
    shapes = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (4, 4)]
    done = 0
    while done < 150:
        n, e = shapes[done % len(shapes)]
        basis = [[rng.randint(-9, 9) for _ in range(e)] for _ in range(n)]
        try:
            pv = pluecker_coordinates(basis)
        except DegenerateBasisError:
            continue
        sub = pluecker_decode(pv)
        assert sub.pluecker == pv
        assert sub.height_squared == pv.height_squared
        done += 1


def test_subspace_equality_is_basis_independent():
    a = RationalSubspace.from_basis(columns((1, 1, 0), (0, 2, 1)))
    b = RationalSubspace.from_basis(columns((1, 3, 1), (-1, 1, 1)))
    # second basis: col1 = v1 + v2, col2 = v2 - v1
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_compound_of_diagonal_matrix():
    c = compound_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]], 2)
    assert c == ((2, 0, 0), (0, 3, 0), (0, 0, 6))


def test_compound_multiplicative_random():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 4)
        e = rng.randint(1, n)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        left = compound_matrix(mat_mul(as_matrix(a), as_matrix(b)), e)
        right = mat_mul(compound_matrix(a, e), compound_matrix(b, e))
        assert left == right


def test_compound_shape_validation():
    with pytest.raises(ShapeError):
        compound_matrix([[1, 2]], 2)


def test_rational_kernel_and_rank_small():
    m = as_matrix([[1, 2, 3]])
    ker = rational_kernel(m)
    assert len(ker) == 2
    for v in ker:
        assert sum(x * y for x, y in zip((1, 2, 3), v)) == 0
    assert rank(m) == 1
    assert rank(transpose(m)) == 1


def test_determinant_bareiss_matches_cofactor():
    rng = random.Random(5)
    for _ in range(40):
        m = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        # expansion along the first row as an independent reference
        ref = 0
        for j in range(4):
            sub = [row[:j] + row[j + 1 :] for row in m[1:]]
            ref += (-1) ** j * m[0][j] * determinant(as_matrix(sub))
        assert determinant(as_matrix(m)) == ref


def projected_gram_det(a, b, xb):
    """|X_B|^2 det(A^T P_B A), P_B the orthogonal projection onto span(B):
    |X_A|^2 |X_B|^2 times the product of the squared cosines, for d <= e."""
    bt = transpose(b)
    ab = mat_mul(transpose(a), b)
    return sum(x * x for x in xb) * determinant(
        mat_mul(mat_mul(ab, inverse(mat_mul(bt, b))), transpose(ab))
    )


def wedge_norm_squared(xa, d, xb, e, n):
    """|X_A /\\ X_B|^2 summed over the splits of each (d+e)-row set, with
    no map built."""
    terms = _pairing_terms(n, d, e)
    return sum(sum(sign * xa[i] * xb[j] for sign, i, j in split) ** 2 for split in terms)


def contraction_norm_squared(xa, d, xb, e, n):
    """The squared contraction of the smaller label into the larger, summed
    over the splits of each row set of the larger label, with no map built."""
    if d > e:  # the smaller label contracts into the larger either way
        xa, d, xb, e = xb, e, xa, d
    parts = [0] * math.comb(n, e - d)
    for s, split in enumerate(_pairing_terms(n, d, e - d)):
        for sign, i, j in split:
            parts[j] += sign * xa[i] * xb[s]
    return sum(x * x for x in parts)


def test_wedge_map_is_the_laplace_expansion():
    """M_A X_B is X_A /\\ X_B: on raw minors, the (d+e)-minors of [A | B]
    (Laplace expansion along A's columns), and nothing when d + e > n.  The
    contraction of the smaller label into the larger has the squared norm
    |X_B|^2 det(A^T P_B A) (d <= e, and the same with A and B swapped).
    squared_image_norm of either map gives the split sums of the oracles
    above."""
    rng = random.Random(28)
    for n in range(2, 7):
        for d in range(1, n):
            for e in range(1, n):
                a = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(n)]
                b = [[rng.randint(-5, 5) for _ in range(e)] for _ in range(n)]
                xa, xb = raw_minors(as_matrix(a)), raw_minors(as_matrix(b))
                cos2 = contraction_norm_squared(xa, d, xb, e, n)
                assert cos2 == squared_image_norm(contraction_map(xa, d, e, n))(xb)
                if any(xa) and any(xb):
                    small = projected_gram_det(a, b, xb) if d <= e else projected_gram_det(b, a, xa)
                    assert cos2 == small
                image = tuple(sum(x * y for x, y in zip(row, xb)) for row in wedge_map(xa, d, e, n))
                if d + e > n:
                    assert image == ()
                    continue
                both = as_matrix([ra + rb for ra, rb in zip(a, b)])
                assert image == raw_minors(both)
                assert wedge_norm_squared(xa, d, xb, e, n) == sum(x * x for x in image)
                assert squared_image_norm(wedge_map(xa, d, e, n))(xb) == sum(x * x for x in image)


# ---------------------------------------------------------------------------
# rank, determinant and inverse against Fraction references


def reference_rank(m):
    work = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(work), len(work[0])
    r = 0
    for j in range(cols):
        p = next((i for i in range(r, rows) if work[i][j] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        for i in range(rows):
            if i != r and work[i][j] != 0:
                f = work[i][j] / work[r][j]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == rows:
            break
    return r


def reference_determinant(m):
    """Fraction Gaussian elimination; a Fraction for any rational input."""
    work = [[Fraction(x) for x in row] for row in m]
    n = len(work)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if work[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            work[k], work[p] = work[p], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            f = work[i][k] / work[k][k]
            work[i] = [x - f * y for x, y in zip(work[i], work[k])]
    return det


def reference_inverse(m):
    """Gauss-Jordan on [M | I]; None when M is singular."""
    n = len(m)
    work = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        p = next((i for i in range(col, n) if work[i][col] != 0), None)
        if p is None:
            return None
        work[col], work[p] = work[p], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return as_matrix([row[n:] for row in work])


def random_rational_matrix(rng, rows, cols):
    span = rng.choice((1, 3, 40))
    rational = rng.random() < 0.5

    def entry():
        num = rng.randint(-span, span)
        return Fraction(num, rng.randint(1, 9)) if rational else num

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        # a dependent row
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m[rng.randrange(1, rows)] = [k * x for x in m[0]]
    return m


def test_elimination_matches_fraction_references():
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randint(1, 6)
        square = random_rational_matrix(rng, n, n)
        wide = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        assert rank(wide) == reference_rank(wide), wide
        assert rank(square) == reference_rank(square), square
        frozen = as_matrix(square)
        if n >= 4:
            # the closed forms below 4 x 4 are not elimination
            got = determinant(frozen)
            want = reference_determinant(square)
            if not any(isinstance(x, Fraction) for row in frozen for x in row):
                want = int(want)
            assert repr(got) == repr(want), square
        want_inv = reference_inverse(square)
        if want_inv is None:
            with pytest.raises(DegenerateBasisError):
                inverse(frozen)
        else:
            assert repr(inverse(frozen)) == repr(want_inv), square


def test_elimination_screens_its_entries():
    """Every routine on the shared elimination takes int and Fraction
    entries only, as as_matrix does.  This float matrix has determinant 5;
    floor division by float pivots once gave 0.0, and rank and the kernel
    failed inside math.gcd."""
    floats = [[1.5, 2, 0, 1], [0, 1, 0.5, 0], [1, 0, 1, 0], [0, 0, 0, 2.0]]
    assert determinant([[Fraction(x) for x in row] for row in floats]) == 5
    bools = [[True, False], [False, True]]
    for m in (floats, bools, [[True] + [0] * 3] + [[0] * i + [1] + [0] * (3 - i) for i in (1, 2, 3)]):
        for fn in (determinant, rank, rational_kernel, inverse):
            with pytest.raises(ShapeError):
                fn(m)


def test_elimination_refuses_ragged_rows():
    """Rows of different lengths raise ShapeError in every routine on the
    shared elimination.  A short row last once raised IndexError in rank,
    rational_kernel and inverse and ValueError in determinant; a short row
    first gave rank 1 and an empty kernel."""
    for fn, m in [(rank, [[1, 2], [3]]), (rational_kernel, [[1, 2], [3]]), (inverse, [[1, 2], [3]]),
                  (determinant, [[1, 2], [3]]), (rank, [[1], [2, 3]]), (rational_kernel, [[1], [2, 3]])]:
        with pytest.raises(ShapeError, match="different lengths"):
            fn(m)
