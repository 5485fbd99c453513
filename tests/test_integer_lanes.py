"""Integer fast lanes against the generic paths they bypass.

exact.rank runs Bareiss elimination on integer rows, raw_minors and
compound_matrix compute small minors inline, apply_to_subspace reads a
rank drop off the image's minors, and RealBasis.from_float clears each
column with float.as_integer_ratio.  Each is checked here against the
route it replaced, which stays in the package: rational_kernel, the
determinant per row set, the generic compound loop, an explicit rank test
and clear_denominators over Fractions.

rank, determinant, rational_kernel and inverse share one elimination, so
the Fraction eliminations of tests/test_exact.py and
tests/test_decoded_bases.py are their independent oracles here.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subdioph import morphisms as mor
from subdioph.angles import RealBasis
from subdioph.errors import DegenerateBasisError, DimensionCollapseError
from subdioph.exact import (
    RationalSubspace,
    as_matrix,
    clear_denominators,
    compound_matrix,
    determinant,
    inverse,
    mat_mul,
    rank,
    rational_kernel,
    raw_minors,
    transpose,
)
from test_decoded_bases import reference_kernel
from test_exact import reference_determinant, reference_inverse, reference_rank

SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

# small entries meet often in cancellations; wide ones test exact division
ENTRIES = st.one_of(st.integers(-6, 6), st.integers(-(2**70), 2**70))


@st.composite
def int_matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 6)):
    """Tall, wide and square integer matrices, often rank-deficient: a later
    row may be zero or a combination of two earlier rows."""
    r, c = draw(rows), draw(cols)
    m = [draw(st.lists(ENTRIES, min_size=c, max_size=c)) for _ in range(r)]
    for i in range(r):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combination")))
        if kind == "zero":
            m[i] = [0] * c
        elif kind == "combination" and i >= 1:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


def with_fractions(draw, m):
    """m with each row divided by its own positive integer, which keeps the
    rank and the span of the columns of every row set."""
    return [[Fraction(x, d) for x in row] for row, d in
            zip(m, draw(st.lists(st.integers(1, 12), min_size=len(m), max_size=len(m))))]


def kernel_rank(m):
    """The rank by the route rank took for every input before: the column
    count less the kernel dimension."""
    return len(m[0]) - len(rational_kernel(m))


@SETTINGS
@given(int_matrices())
def test_bareiss_rank_is_the_kernel_rank(m):
    assert rank(m) == kernel_rank(m) == rank(transpose(m))


@SETTINGS
@given(st.data())
def test_fraction_rows_keep_the_kernel_route(data):
    m = data.draw(int_matrices())
    scaled = with_fractions(data.draw, m)
    assert rank(scaled) == kernel_rank(scaled) == rank(m)


@st.composite
def oracle_matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 6)):
    """int_matrices with dependent and sparse columns as well, so that free
    columns come before pivots, or matrices of small entries, mostly zero,
    whose pivots often need a row swap when they are nonsingular; half of
    them with each row divided by its own integer."""
    if draw(st.booleans()):
        r, c = draw(rows), draw(cols)
        m = draw(st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7)),
                                   min_size=c, max_size=c), min_size=r, max_size=r))
        return with_fractions(draw, m) if draw(st.booleans()) else m
    m = draw(int_matrices(rows, cols))
    for j in range(len(m[0])):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "multiple", "sparse")))
        if kind == "zero":
            for row in m:
                row[j] = 0
        elif kind == "multiple" and j >= 1:
            k, a = draw(st.integers(0, j - 1)), draw(st.integers(-3, 3))
            for row in m:
                row[j] = a * row[k]
        elif kind == "sparse":
            for row in m:
                if draw(st.booleans()):
                    row[j] = 0
    return with_fractions(draw, m) if draw(st.booleans()) else m


@SETTINGS
@given(oracle_matrices())
def test_rank_and_kernel_are_the_fraction_eliminations(m):
    assert rank(m) == reference_rank(m)
    assert rational_kernel(m) == reference_kernel(m)


@SETTINGS
@given(st.data())
def test_determinant_and_inverse_are_the_fraction_eliminations(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(oracle_matrices(st.just(n), st.just(n)))
    want = reference_determinant(m)
    got = determinant(m)
    # a Fraction entry gives a Fraction determinant, an all-int matrix an int
    if not any(isinstance(x, Fraction) for row in m for x in row):
        want = int(want)
    assert repr(got) == repr(want)
    want_inv = reference_inverse(m)
    if want_inv is None:
        with pytest.raises(DegenerateBasisError):
            inverse(m)
    else:
        assert repr(inverse(m)) == repr(want_inv)


@pytest.mark.parametrize("m", [[[0]], [[0, 0, 0]], [[0], [0], [0]], [[0, 0], [0, 0]]])
def test_zero_matrices_have_rank_zero(m):
    assert rank(m) == 0 == kernel_rank(m)


@SETTINGS
@given(st.data())
def test_inline_minors_are_determinants(data):
    e = data.draw(st.integers(1, 3))
    basis = data.draw(int_matrices(rows=st.integers(e, 6), cols=st.just(e)))
    want = tuple(
        determinant(tuple(tuple(basis[i]) for i in rows))
        for rows in combinations(range(len(basis)), e)
    )
    assert raw_minors(basis) == want


def generic_compound(m, e):
    """The e-th compound from a determinant per row and column set."""
    mm = as_matrix(m)
    r, c = len(mm), len(mm[0])
    return tuple(
        tuple(determinant(tuple(tuple(mm[i][j] for j in cs) for i in rs))
              for cs in combinations(range(c), e))
        for rs in combinations(range(r), e)
    )


@SETTINGS
@given(st.data())
def test_inline_compounds_are_the_generic_loop(data):
    m = data.draw(int_matrices(rows=st.integers(2, 5), cols=st.integers(2, 5)))
    if data.draw(st.booleans()):
        m = with_fractions(data.draw, m)
    for e in range(1, min(len(m), len(m[0])) + 1):
        got, want = compound_matrix(m, e), generic_compound(m, e)
        assert got == want
        assert [type(x) for row in got for x in row] == [type(x) for row in want for x in row]


@SETTINGS
@given(st.data())
def test_an_image_collapses_exactly_when_its_rank_drops(data):
    n = data.draw(st.integers(2, 5))
    e = data.draw(st.integers(1, min(3, n)))
    basis = data.draw(int_matrices(rows=st.just(n), cols=st.just(e)))
    if kernel_rank(basis) < e:
        return
    rows = data.draw(int_matrices(rows=st.integers(1, 5), cols=st.just(n)))
    if data.draw(st.booleans()):
        rows = with_fractions(data.draw, rows)
    phi = mor.RationalMap.from_rows(rows)
    sub = RationalSubspace.from_basis(basis)
    image = mat_mul(phi.matrix, sub.basis)
    if kernel_rank(image) < e:
        with pytest.raises(DimensionCollapseError):
            mor.apply_to_subspace(phi, sub)
    else:
        assert mor.apply_to_subspace(phi, sub) == RationalSubspace.from_basis(image)


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals among them
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e308, 0.1, -3.0)),
)


@SETTINGS
@given(st.data())
def test_float_columns_are_the_fraction_columns(data):
    n = data.draw(st.integers(1, 5))
    d = data.draw(st.integers(1, n))
    rows = data.draw(st.lists(st.lists(FLOATS, min_size=d, max_size=d), min_size=n, max_size=n))
    want = tuple(clear_denominators([Fraction(x) for x in col]) for col in zip(*rows))
    assert RealBasis.from_float(rows).columns == want


def test_float_columns_of_mixed_exponents():
    rows = [[5e-324, -0.0], [1e308, 0.75], [-0.0, 2.0**-1030]]
    assert RealBasis.from_float(rows).columns == (
        (1, 1e308.as_integer_ratio()[0] * 2**1074, 0),
        (0, 3 * 2**1028, 1),
    )
