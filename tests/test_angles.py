"""Angle-engine oracles: hand values, scipy cross-checks, inequality properties."""

import hashlib
import math
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from subdioph import angles as angles_module
from subdioph import construction as con
from subdioph import exact
from subdioph.angles import (
    HARD_BIT_CAP,
    AngleProfile,
    PrecisionContext,
    RealBasis,
    angles_adaptive,
    exact_relative_bits,
    principal_angles,
    random_orthogonal,
    vector_angle,
    _sine_mantissas,
)
from subdioph.errors import NumericalRankLossError, PrecisionExhaustedError, ShapeError
from svd_reference import svd_sines


def exact_basis(*cols):
    return RealBasis.from_exact([list(row) for row in zip(*cols)])


def random_exact_basis(rng, n, d, span=9):
    while True:
        cols = [[rng.randint(-span, span) for _ in range(n)] for _ in range(d)]
        try:
            return exact_basis(*cols)
        except NumericalRankLossError:
            continue


def test_coordinate_quarter_turn():
    p = angles_adaptive(exact_basis((1, 0)), exact_basis((0, 1)))
    assert p.psi[0] == 1


def test_diagonal_line_against_axis():
    p = angles_adaptive(exact_basis((1, 0)), exact_basis((1, 1)))
    with mp.workprec(p.bits_used):
        ref = mp.sqrt(2) / 2
        assert abs(p.psi[0] - ref) < mp.mpf(2) ** -200


def test_golden_line_against_ones_vector():
    phi_bits = lambda bits: [[mp.mpf(1)], [(1 + mp.sqrt(5)) / 2]]
    golden = RealBasis.from_evaluator(2, 1, phi_bits, source="algebraic")
    p = angles_adaptive(golden, exact_basis((1, 1)))
    with mp.workprec(p.bits_used):
        # closed form: psi^2 = (2 - phi) / (2 (2 + phi))
        phi = (1 + mp.sqrt(5)) / 2
        ref = mp.sqrt((2 - phi) / (2 * (2 + phi)))
        assert abs(p.psi[0] - ref) / ref < mp.mpf(2) ** -100
    assert p.rel_err_bound < 2.0**-40


def test_profile_is_ascending_and_bracketed():
    rng = random.Random(1)
    for _ in range(25):
        a = random_exact_basis(rng, 5, 2)
        b = random_exact_basis(rng, 5, 3)
        p = angles_adaptive(a, b)
        assert p.t == 2
        assert list(p.psi) == sorted(p.psi)
        for lo, x, hi in zip(p.lo, p.psi, p.hi):
            assert 0 <= lo <= hi
            assert lo <= x <= hi
            assert hi <= 1 + 1e-30


def test_scipy_cross_oracle_random():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 6)
        da = rng.randint(1, min(3, n))
        db = rng.randint(1, min(3, n))
        a = random_exact_basis(rng, n, da)
        b = random_exact_basis(rng, n, db)
        p = principal_angles(a, b, bits=256)
        am = np.array(
            [[float(x) for x in row] for row in a.exact_matrix], dtype=float
        )
        bm = np.array(
            [[float(x) for x in row] for row in b.exact_matrix], dtype=float
        )
        ref = np.sort(np.sin(scipy.linalg.subspace_angles(am, bm)))
        ours = np.array([float(x) for x in p.psi])
        # scipy's double-precision SVD reports exact-zero angles as noise
        # near sqrt(eps); compare at that noise floor.
        assert np.allclose(ours, ref, atol=1e-7)
        big = ref > 1e-7
        assert np.allclose(ours[big], ref[big], rtol=1e-9, atol=1e-12)


def test_tiny_angle_exact_inputs_fully_resolved():
    xi = Fraction(2, 5) + Fraction(3, 5**3) + Fraction(2, 5**9)
    p = angles_adaptive(exact_basis((1, xi)), exact_basis((125, 53)))
    assert p.resolved == (True,)
    # tail of the base-5 series: psi = 125*(xi - 53/125) / (|(1,xi)| * |(125,53)|)
    expected = vector_angle([1, xi], [125, 53], bits=300)
    assert abs(p.psi[0] - expected) / expected < 1e-12
    assert p.psi[0] < mp.mpf(4) / 5**9  # bounded by the series remainder scale


def test_identical_subspaces_report_unresolved_zero():
    a = exact_basis((1, 2, 3))
    b = exact_basis((2, 4, 6))
    p = angles_adaptive(a, b)
    assert p.resolved == (False,)
    assert p.lo[0] == 0
    assert p.hi[0] <= mp.mpf(2) ** -(p.bits_used // 4)


def test_vector_angle_matches_profile():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        x = [rng.randint(-9, 9) for _ in range(n)]
        y = [rng.randint(-9, 9) for _ in range(n)]
        if not any(x) or not any(y):
            continue
        try:
            p = angles_adaptive(exact_basis(tuple(x)), exact_basis(tuple(y)))
        except NumericalRankLossError:
            continue
        va = vector_angle(x, y)
        if p.resolved[0]:
            assert abs(va - p.psi[0]) <= 1e-60 * max(1, va)


def test_vector_angle_reads_floats_exactly():
    """A finite double is a dyadic rational: float input gets the value of
    the same rationals, with no cancellation in the radicand, and a NaN or
    an infinity is refused."""
    tiny = 2.0**-600
    for x, y in (([1.0, 0.0], [1.0, tiny]), ([0.5, 3.0, -1.25], [1e-300, 3.0, 7.0])):
        exact_value = vector_angle([Fraction(v) for v in x], [Fraction(v) for v in y])
        assert vector_angle(x, y) == exact_value
        assert vector_angle([*x[:-1], Fraction(x[-1])], y) == exact_value
    assert vector_angle([1.0, 0.0], [1.0, tiny]) > 2e-181
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ShapeError):
            vector_angle([1.0, 0.0], [bad, 1.0])
        with pytest.raises(ShapeError):
            vector_angle([mp.mpf(1), 0], [bad, 1.0])


def test_vector_angle_multiprecision_entries():
    """Entries that are not int, Fraction or float (mpf here) take the
    mpmath branch.  On mpf values that hold exact rationals it agrees with
    the rational branch to within 2^-(bits - 8), relatively, at sines of at
    least 1/16 (that branch's radicand cancels for tiny angles); a zero mpf
    vector is refused."""
    rng = random.Random(17)
    bits = 160
    checked = 0
    while checked < 25:
        n = rng.randint(2, 5)
        x = [Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 6)) for _ in range(n)]
        y = [Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 6)) for _ in range(n)]
        if not any(x) or not any(y):
            continue
        want = vector_angle(x, y, bits)
        if want < mp.mpf(1) / 16:
            continue
        # dyadic entries with small numerators are exact at any precision
        got = vector_angle([mp.mpf(v.numerator) / v.denominator for v in x],
                           [mp.mpf(v.numerator) / v.denominator for v in y], bits)
        with mp.workprec(bits):
            assert abs(got - want) <= want * mp.ldexp(1, -(bits - 8)), (x, y)
        checked += 1
    with pytest.raises(ShapeError):
        vector_angle([mp.mpf(0), mp.mpf(0), mp.mpf(0)], [1, 2, 3])
    with pytest.raises(ShapeError):
        vector_angle([mp.mpf(1), mp.mpf(2)], [mp.mpf(0), mp.mpf(0)])


def test_orthogonal_invariance():
    rng = random.Random(4)
    for trial in range(15):
        n = rng.randint(2, 5)
        da = rng.randint(1, min(3, n))
        db = rng.randint(1, min(3, n))
        a = random_exact_basis(rng, n, da)
        b = random_exact_basis(rng, n, db)
        seed = 1000 + trial

        def rotated(base, dim):
            def fn(bits):
                u = random_orthogonal(n, random.Random(seed), bits)
                return (u * base.at(bits)).tolist()

            return RealBasis.from_evaluator(n, dim, fn, source="rotated")

        p0 = angles_adaptive(a, b)
        p1 = angles_adaptive(rotated(a, da), rotated(b, db))
        tol = 4 * max(p0.rel_err_bound, p1.rel_err_bound)
        for x, y in zip(p0.psi, p1.psi):
            assert abs(x - y) <= tol * max(x, y) + mp.mpf(2) ** -60


# distance comparison: sin of the angle is at most the normalized distance
def test_angle_bounded_by_relative_distance():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 5)
        x = [rng.randint(-9, 9) for _ in range(n)]
        y = [rng.randint(-9, 9) for _ in range(n)]
        if not any(x) or not any(y):
            continue
        psi = vector_angle(x, y, bits=128)
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
        norm = math.sqrt(sum(a * a for a in x))
        # the bound is tight when x . y = 0, so leave room for the
        # double-precision rounding of the reference side
        assert psi <= dist / norm * (1 + 1e-12) + 1e-15


# reverse comparison for unit vectors on the same side
def test_angle_at_least_half_sqrt2_times_distance():
    rng = random.Random(6)
    count = 0
    while count < 200:
        n = rng.randint(2, 5)
        x = [rng.gauss(0, 1) for _ in range(n)]
        y = [rng.gauss(0, 1) for _ in range(n)]
        nx = math.sqrt(sum(a * a for a in x))
        ny = math.sqrt(sum(a * a for a in y))
        if nx < 1e-9 or ny < 1e-9:
            continue
        u = [a / nx for a in x]
        v = [a / ny for a in y]
        if sum(a * b for a, b in zip(u, v)) < 0:
            v = [-a for a in v]
        psi = vector_angle(u, v, bits=96)
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))
        assert psi >= math.sqrt(2) / 2 * dist * (1 - 1e-9)
        count += 1


def test_triangle_inequality_for_lines():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 5)
        vecs = []
        while len(vecs) < 3:
            v = [rng.randint(-9, 9) for _ in range(n)]
            if any(v):
                vecs.append(v)
        p12 = vector_angle(vecs[0], vecs[1], bits=128)
        p13 = vector_angle(vecs[0], vecs[2], bits=128)
        p32 = vector_angle(vecs[2], vecs[1], bits=128)
        assert p12 <= (p13 + p32) * (1 + 1e-30) + 1e-30


# smallest angle of a member line never exceeds the largest profile entry
def test_member_line_angle_below_top_profile_entry():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(3, 6)
        da = rng.randint(1, 3)
        db = rng.randint(da, min(3, n))
        if da > n or db > n:
            continue
        a = random_exact_basis(rng, n, da)
        b = random_exact_basis(rng, n, db)
        weights = [rng.randint(-5, 5) for _ in range(da)]
        if not any(weights):
            weights[0] = 1
        x = [
            sum(w * a.exact_matrix[i][j] for j, w in enumerate(weights))
            for i in range(n)
        ]
        if not any(x):
            continue
        pa = angles_adaptive(a, b)
        px = angles_adaptive(exact_basis(tuple(x)), b)
        top = pa.hi[-1]
        assert px.lo[0] <= top * (1 + 1e-12) + mp.mpf(2) ** -60


# invertible maps distort profiles by at most (s1*s2)/smin^2
def test_linear_map_distortion_bound():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(2, 4)
        while True:
            phi = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            from subdioph.exact import as_matrix, determinant

            if determinant(as_matrix(phi)) != 0:
                break
        with mp.workprec(256):
            pm = mp.matrix([[float(x) for x in row] for row in phi])
            s = mp.svd_r(pm, compute_uv=False)
            svals = sorted([s[i] for i in range(s.rows)], reverse=True)
        kappa = svals[0] * (svals[1] if len(svals) > 1 else svals[0]) / svals[-1] ** 2
        da = rng.randint(1, n - 1)
        db = rng.randint(1, n - 1)
        a = random_exact_basis(rng, n, da)
        b = random_exact_basis(rng, n, db)
        from subdioph.exact import mat_mul, as_matrix

        fa = RealBasis.from_exact(mat_mul(as_matrix(phi), a.exact_matrix))
        fb = RealBasis.from_exact(mat_mul(as_matrix(phi), b.exact_matrix))
        p0 = angles_adaptive(a, b)
        p1 = angles_adaptive(fa, fb)
        for x, y in zip(p0.psi, p1.psi):
            if x > mp.mpf(2) ** -40:
                assert y <= kappa * x * (1 + 1e-9)


def test_rank_loss_detection():
    """An exactly dependent basis is refused.  So is the reference's
    Gram-Schmidt at 64 bits on columns 2^-60 apart, and an evaluator basis
    whose columns, 2^-600 apart, read at 512 bits as one: its smallest
    singular value is not above the bound on the reading error."""
    with pytest.raises(NumericalRankLossError):
        RealBasis.from_exact([[1, 2], [2, 4]])
    lossy = RealBasis.from_float([[1.0, 1.0], [1.0, 1.0 + 2.0**-60]])
    with pytest.raises(NumericalRankLossError):
        svd_sines(lossy, exact_basis((1, 0)), bits=64)
    close = RealBasis.from_evaluator(
        3, 2, lambda bits: [[1, 1], [1, 1 + mp.ldexp(1, -600)], [0, 0]], source="close"
    )
    with pytest.raises(NumericalRankLossError):
        angles_adaptive(close, exact_basis((1, 2, 3)))


def test_precision_cap_raises():
    ctx = PrecisionContext(bits=64, max_bits=100)
    with pytest.raises(PrecisionExhaustedError):
        angles_adaptive(exact_basis((1, 0)), exact_basis((1, 1)), ctx)


def truncated_line(bits):
    """The line (1, s) for s = sum 2^-(k^2), k >= 1, truncated by the
    working precision: the terms kept are those above 2^-bits, so each
    entry is within 2^-bits of its value, as RealBasis.from_evaluator
    asks."""
    with mp.workprec(bits):
        return [[mp.mpf(1)], [mp.fsum(mp.ldexp(1, -k * k) for k in range(1, math.isqrt(bits) + 1))]]


def test_a_series_truncated_by_precision_takes_two_doublings():
    """Read at 512 bits, the line's sine is bracketed to about 2^-500
    relatively, wider than a target of 2^-600: one more doubling, to 1024
    bits, meets it.  Every bracket holds the sine of the series summed to
    4096 bits, and with the cap at 512 bits the doubling is refused."""
    b = RealBasis.from_evaluator(2, 1, truncated_line, source="series")
    ctx = PrecisionContext(target_rel_err=Fraction(1, 2**600))
    p = angles_adaptive(exact_basis((1, 0)), b, ctx)
    target = mp.ldexp(1, -600)
    assert p.bits_used == 4 * ctx.bits and p.rel_err_bound <= target
    first = principal_angles(exact_basis((1, 0)), b, bits=2 * ctx.bits)
    assert first.rel_err_bound > target
    ref = svd_sines(exact_basis((1, 0)), b, 4096)[0]
    for prof in (p, first):
        assert prof.lo[0] <= ref <= prof.hi[0]
    with pytest.raises(PrecisionExhaustedError, match="cap 512"):
        angles_adaptive(exact_basis((1, 0)), b, PrecisionContext(max_bits=2 * ctx.bits,
                                                                  target_rel_err=ctx.target_rel_err))


@pytest.mark.parametrize(
    "raw, cap", [("4096", 4096), ("10", 64), ("junk", HARD_BIT_CAP)], ids=["set", "floor", "junk"]
)
def test_the_bit_cap_reads_subdioph_max_bits(monkeypatch, raw, cap):
    monkeypatch.setenv("SUBDIOPH_MAX_BITS", raw)
    assert PrecisionContext().max_bits == cap


def test_widened_profile():
    p = angles_adaptive(exact_basis((1, 0)), exact_basis((1, 1)))
    w = p.widened(Fraction(1, 100))
    assert w.lo[0] < p.lo[0]
    assert w.hi[0] > p.hi[0]
    assert w.lo[0] >= 0


def exact_value(x):
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def test_widened_rounds_outward():
    p = angles_adaptive(exact_basis((1, 0)), exact_basis((1, 1)))
    tau = Fraction(1, 10**30)
    w = p.widened(tau)
    # sqrt(2)/2 lies in [lo + tau, hi - tau], decided in rationals
    assert (exact_value(w.lo[0]) + tau) ** 2 <= Fraction(1, 2)
    assert (exact_value(w.hi[0]) - tau) ** 2 >= Fraction(1, 2)


def assert_exact_brackets_contain_mpmath(a, b):
    p = angles_adaptive(a, b)
    bits = 8192
    ref = svd_sines(a, b, bits)
    assert p.bits_used == 512
    for lo, x, hi, ok, r in zip(p.lo, p.psi, p.hi, p.resolved, ref):
        assert ok == (r > mp.ldexp(1, -(bits // 4)))
        if ok:
            assert lo <= r <= hi
            assert lo <= x <= hi
            assert hi - lo <= hi * mp.mpf(2) ** -500
        else:
            assert lo == 0


def test_exact_brackets_contain_high_precision_mpmath_random():
    # the criterion-03 population, restricted to pairs with t <= 2
    rng = random.Random(11)
    done = 0
    while done < 40:
        n = rng.randint(2, 5)
        da = rng.randint(1, min(3, n))
        db = rng.randint(1, min(3, n))
        if min(da, db) > 2:
            continue
        assert_exact_brackets_contain_mpmath(
            random_exact_basis(rng, n, da), random_exact_basis(rng, n, db)
        )
        done += 1


@pytest.mark.parametrize(
    "ell, beta, nmax", [(1, Fraction(3), 4), (2, Fraction(5, 2), 2)]
)
def test_exact_brackets_contain_high_precision_mpmath_convergents(ell, beta, nmax):
    params = con.ConstructionParams.create(ell, beta, seed=0)
    target = con.build_generators(params, nmax + 2).real_basis()
    for n_index in range(1, nmax + 1):
        conv = con.build_convergent(params, n_index)
        assert_exact_brackets_contain_mpmath(target, RealBasis.from_subspace(conv.subspace))


def test_exact_pair_with_shared_direction():
    # the planes share the x axis: one exact zero, one sine of 1/sqrt(2)
    a = exact_basis((1, 0, 0), (0, 1, 0))
    b = exact_basis((1, 0, 0), (0, 1, 1))
    for p in (angles_adaptive(a, b), principal_angles(a, b, bits=128)):
        assert p.resolved == (False, True)
        assert p.lo[0] == 0 and p.psi[0] == p.hi[0] == mp.ldexp(1, -(p.bits_used // 4))
        assert (exact_value(p.lo[1]) ** 2 <= Fraction(1, 2) <= exact_value(p.hi[1]) ** 2)


def test_exact_tiny_sine_below_the_floor_is_resolved():
    eps = Fraction(1, 2**400)
    p = angles_adaptive(exact_basis((1, 0)), exact_basis((1, eps)))
    assert p.resolved == (True,)
    assert p.lo[0] > 0 and p.psi[0] < mp.ldexp(1, -(p.bits_used // 4))
    # sin^2 = eps^2 / (1 + eps^2)
    sin_squared = eps**2 / (1 + eps**2)
    assert exact_value(p.lo[0]) ** 2 <= sin_squared <= exact_value(p.hi[0]) ** 2


def test_brute_force_minimum_matches_first_entry():
    # grid-search the smallest achievable line angle inside A against B
    rng = random.Random(10)
    for _ in range(5):
        a = random_exact_basis(rng, 4, 2)
        b = random_exact_basis(rng, 4, 2)
        p = principal_angles(a, b, bits=128)
        am = np.array([[float(x) for x in r] for r in a.exact_matrix])
        bm = np.array([[float(x) for x in r] for r in b.exact_matrix])
        qa, _ = np.linalg.qr(am)
        qb, _ = np.linalg.qr(bm)
        best = 1.0
        for t in np.linspace(0, math.pi, 4001):
            x = math.cos(t) * qa[:, 0] + math.sin(t) * qa[:, 1]
            resid = x - qb @ (qb.T @ x)
            best = min(best, float(np.linalg.norm(resid)))
        assert abs(best - float(p.psi[0])) < 5e-6


def test_sine_bracket_depends_on_the_subspace_not_its_basis():
    # two bases of the plane x3 = x1 + x2: a primitive one and one whose
    # columns span a sublattice of index 3, so the Gram and bordered
    # determinants of the second carry a factor 9 that the sine does not
    primitive = exact_basis((1, 0, 1), (0, 1, 1))
    index_three = exact_basis((1, 0, 1), (1, 3, 4))
    rng = random.Random(3)
    for _ in range(200):
        line = exact_basis(
            (1, Fraction(rng.randrange(-999, 999), rng.randrange(100, 999)),
             Fraction(rng.randrange(-999, 999), rng.randrange(100, 999)))
        )
        a = angles_adaptive(line, primitive)
        b = angles_adaptive(line, index_three)
        assert (a.lo, a.psi, a.hi) == (b.lo, b.psi, b.hi)


def test_sine_from_squared_matches_the_engine():
    # lines against lines: the squared sine is |x /\ y|^2 / (|x|^2 |y|^2),
    # and its bracket depends on that value alone
    rng = random.Random(5)
    for ctx in (None, PrecisionContext(bits=64), PrecisionContext(target_rel_err=Fraction(1, 2**900))):
        bits = exact_relative_bits(ctx)
        for _ in range(100):
            x = [rng.randint(-50, 50) for _ in range(3)]
            y = [rng.randint(-50, 50) for _ in range(3)]
            if not any(x) or not any(y):
                continue
            xx, yy = sum(v * v for v in x), sum(v * v for v in y)
            xy = sum(u * v for u, v in zip(x, y))
            scale = rng.randint(1, 7)
            sine = _sine_mantissas(scale * xx * yy, scale * (xx * yy - xy * xy), None, bits)[0]
            p = angles_adaptive(exact_basis(x), exact_basis(y), ctx)
            if p.resolved[0]:
                lo, hi = sine
                assert (mp.ldexp(*lo), mp.ldexp(*hi)) == (p.lo[0], p.hi[0])
            else:
                assert sine is None


def test_exact_relative_bits_honours_the_cap():
    assert exact_relative_bits(PrecisionContext(bits=64)) == 128
    with pytest.raises(PrecisionExhaustedError):
        exact_relative_bits(PrecisionContext(bits=256, max_bits=300))


@pytest.mark.parametrize("rel", [Fraction(0), Fraction(-1), Fraction(1), Fraction(3, 2)])
def test_a_target_relative_error_outside_zero_one_is_refused(rel):
    """No run agrees at a relative error of 0 (the doubling ran to the
    bit cap), and one of 1 or more brackets nothing."""
    with pytest.raises(ShapeError):
        PrecisionContext(target_rel_err=rel)


def test_a_target_relative_error_inside_zero_one_is_kept():
    assert PrecisionContext(target_rel_err=Fraction(1, 2)).target_rel_err == Fraction(1, 2)


@pytest.mark.parametrize("bits", [-8, 0, 8, 63])
def test_principal_angles_needs_64_bits(bits):
    """The single-shot path keeps the PrecisionContext rule: at -8 bits it
    reported a resolved sine of 2 between (1, 2, 3) and (1, 2, 4)."""
    a, b = exact_basis((1, 2, 3)), exact_basis((1, 2, 4))
    with pytest.raises(ShapeError):
        principal_angles(a, b, bits=bits)
    assert principal_angles(a, b, bits=64).hi[0] < 1


# the t = 3 pair in R^5 of the angles verb's checks in tests/test_cli.py
T3_A = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3], [4, 5, 7]]
T3_B = [[1, 0, 2], [0, 1, 1], [3, 0, 1], [1, 1, 1], [0, 2, 5]]


def refuse_mpmath(monkeypatch):
    """Make every evaluation of the engine raise: an eigenvalue proposal of
    the Gram pencil, and the reading of a basis."""

    def refused(*_args):
        raise AssertionError("mpmath evaluation above the bit cap")

    monkeypatch.setattr(angles_module.mp, "eigsy", refused)
    monkeypatch.setattr(RealBasis, "at", refused)


def test_principal_angles_checks_the_cap_before_evaluating(monkeypatch):
    """At 2,000,000 bits the t = 3 pair ran in mpmath for over a minute
    before the cap was looked at; an exact pair follows the same rule."""
    refuse_mpmath(monkeypatch)
    a, b = RealBasis.from_exact(T3_A), RealBasis.from_exact(T3_B)
    with pytest.raises(PrecisionExhaustedError, match=f"cap {HARD_BIT_CAP}"):
        principal_angles(a, b, bits=2_000_000)
    with pytest.raises(PrecisionExhaustedError):
        principal_angles(exact_basis((1, 0)), exact_basis((1, 1)), bits=HARD_BIT_CAP + 1)
    monkeypatch.setenv("SUBDIOPH_MAX_BITS", "4096")
    with pytest.raises(PrecisionExhaustedError, match="cap 4096"):
        principal_angles(a, b, bits=4097)


def test_angles_adaptive_checks_the_cap_before_evaluating(monkeypatch):
    """A start at 600,000 bits can only end at the cap: it now ends there
    before the first mpmath run.  So does a start above SUBDIOPH_MAX_BITS,
    at the 91,451 bits an ell = 3, beta = 9/4 certificate at depth 3 once
    started from."""
    refuse_mpmath(monkeypatch)
    a, b = RealBasis.from_exact(T3_A), RealBasis.from_exact(T3_B)
    ctx = PrecisionContext(bits=600_000, target_rel_err=Fraction(1, 10**10))
    with pytest.raises(PrecisionExhaustedError, match=f"cap {HARD_BIT_CAP}"):
        angles_adaptive(a, b, ctx)
    monkeypatch.setenv("SUBDIOPH_MAX_BITS", "4096")
    with pytest.raises(PrecisionExhaustedError, match="cap 4096"):
        angles_adaptive(a, b, PrecisionContext(bits=91_451))


def test_a_refused_proposal_is_retried(monkeypatch):
    """mpmath refusing S once (mp.cholesky and mp.inverse raise ValueError
    on a matrix singular at their precision) costs one retry at more
    bits, which proves the same profile."""
    a, b = RealBasis.from_exact(T3_A), RealBasis.from_exact(T3_B)
    want = angles_adaptive(a, b)
    proposals = angles_module._eigen_proposals
    calls = []

    def refused_once(s_mat, r_mat, prec):
        calls.append(prec)
        if len(calls) == 1:
            raise ValueError("matrix is numerically singular")
        return proposals(s_mat, r_mat, prec)

    monkeypatch.setattr(angles_module, "_eigen_proposals", refused_once)
    assert angles_adaptive(a, b) == want
    assert len(calls) == 2 and calls[1] > calls[0]


def test_proposals_that_never_prove_end_at_the_cap(monkeypatch):
    """Proposals a relative 2^-20 off fail the inertia test at every
    precision: the proof escalates and stops at the cap."""
    proposals = angles_module._eigen_proposals
    monkeypatch.setattr(angles_module, "_eigen_proposals",
                        lambda s_mat, r_mat, prec: proposals(s_mat, r_mat, prec) * (1 + mp.mpf(2) ** -20))
    a, b = RealBasis.from_exact(T3_A), RealBasis.from_exact(T3_B)
    with pytest.raises(PrecisionExhaustedError,
                       match=r"no proof of the squared sines at 2560 bits \(cap 4096\)"):
        angles_adaptive(a, b, PrecisionContext(bits=256, max_bits=4096))


def test_a_dependent_float_basis_has_no_pencil():
    """A float basis comes to the pencil with its rank unchecked: a
    3-space of R^6 with a dependent column, against an exact 3-space,
    makes S = det(B^T B) A^T A zero, and the pencil proof refuses it."""
    a = RealBasis.from_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3], [4, 5, 7], [1, 1, 1]])
    b = RealBasis.from_float([[1.0, 2.0, 3.0], [0.5, 1.0, 1.5], [0.0, 0.0, 1.0],
                              [1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [2.0, 4.0, 1.0]])
    with pytest.raises(NumericalRankLossError, match="dependent columns") as err:
        angles_adaptive(a, b)
    assert err.traceback[-1].name == "_pencil_sine_mantissas"


def random_rational_rows(rng, n, d):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d)] for _ in range(n)]


def random_float_rows(rng, n, d):
    return [[rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30) for _ in range(d)] for _ in range(n)]


# sha256 over 100 random t >= 3 pairs in R^6 and R^7, each as a rational
# pair (angles_adaptive and principal_angles at 128 bits) and as a float
# pair (angles_adaptive): psi, lo and hi as float hex, bits_used, resolved
T3_PROFILES_SHA256 = "9bac1d0361f72c9ec3a62cf3955be10fe652bc1581ec66e3b7fe450d52fa6e1c"


def test_t3_profiles_keep_their_bytes():
    rng = random.Random(25)
    digest = hashlib.sha256()
    pairs = 0
    while pairs < 100:
        n = rng.randint(6, 7)
        d, e = rng.randint(3, n - 3), rng.randint(3, n - 2)
        rows_a, rows_b = random_rational_rows(rng, n, d), random_rational_rows(rng, n, e)
        try:
            a, b = RealBasis.from_exact(rows_a), RealBasis.from_exact(rows_b)
        except NumericalRankLossError:
            continue
        fa = RealBasis.from_float(random_float_rows(rng, n, d))
        fb = RealBasis.from_float(random_float_rows(rng, n, e))
        profiles = (angles_adaptive(a, b), principal_angles(a, b, bits=128), angles_adaptive(fa, fb))
        for p in profiles:
            assert p.t >= 3
            for field in (p.psi, p.lo, p.hi):
                digest.update(" ".join(float(x).hex() for x in field).encode())
            digest.update(f"{p.bits_used} {p.resolved}\n".encode())
        pairs += 1
    assert digest.hexdigest() == T3_PROFILES_SHA256


# ---------------------------------------------------------------------------
# the label route against the bordered Gram determinants


def bordered_gram_intervals(a, b, prec):
    """Squared-sine intervals of an exact pair with t <= 2 from the Gram
    and bordered Gram determinants of its integer columns (Bjorck & Golub
    1973): the squared sines are the eigenvalues of I - G_A^-1 C G_B^-1 C^T.
    The angle engine took this route before it read labels; it stays here
    as the oracle of the label route."""
    if a.d > b.d:
        a, b = b, a

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    gram_a = [[dot(u, v) for v in a.columns] for u in a.columns]
    gram_b = [[dot(u, v) for v in b.columns] for u in b.columns]
    cross = [[dot(u, v) for v in b.columns] for u in a.columns]
    g, delta = exact.determinant(gram_b), exact.determinant(gram_a)
    if g == 0 or delta == 0:
        raise NumericalRankLossError("exact basis has dependent columns")

    def residual_product(i, j):
        # g times the inner product of the parts of a_i and a_j orthogonal
        # to span(B): the Schur complement of G_B in the bordered Gram matrix
        bordered = [row + [cross[j][r]] for r, row in enumerate(gram_b)]
        bordered.append(cross[i] + [gram_a[i][j]])
        return exact.determinant(bordered)

    if a.d == 1:
        num = residual_product(0, 0)
        return [None if num == 0 else (num, g * delta, num, g * delta)]
    # t = 2: the eigenvalues of G_A^-1 R / g, with R = g * (residual Gram)
    (p, q), (_, s) = gram_a
    r00, r01, r11 = residual_product(0, 0), residual_product(0, 1), residual_product(1, 1)
    tr = s * r00 + p * r11 - 2 * q * r01
    return angles_module._quadratic_roots(tr, delta * (r00 * r11 - r01 * r01), delta * g, prec)


def oracle_basis(rng, n, d, kind, shared=None):
    """An n x d basis of small, rational, huge (up to 10^40) or float
    entries; with shared, a multiple of that integer column comes first
    (an exact basis)."""
    while True:
        if kind == "float":
            rows = random_float_rows(rng, n, d)
        else:
            draw = {
                "small": lambda: rng.randint(-3, 3),
                "rational": lambda: Fraction(rng.randint(-999, 999), rng.randint(1, 999)),
                "huge": lambda: rng.randint(-(10**40), 10**40),
            }[kind]
            rows = [[draw() for _ in range(d)] for _ in range(n)]
        if shared is not None:
            k = rng.choice([1, -2, 3])
            rows = [[k * x, *row[1:]] for x, row in zip(shared, rows)]
        if kind == "float":
            return RealBasis.from_float(rows)
        try:
            return RealBasis.from_exact(rows)
        except NumericalRankLossError:
            continue


# every (n, d, e) with n <= 6 and t = min(d, e) <= 2
ORACLE_SHAPES = [
    (n, d, e) for n in range(1, 7) for d in range(1, n + 1) for e in range(1, n + 1)
    if min(d, e) <= 2
]


def oracle_pairs(rng, count):
    """count random exact pairs with t <= 2 in R^1 to R^6: every (d, e),
    d + e > n included, about a fifth sharing a direction."""
    for _ in range(count):
        n, d, e = rng.choice(ORACLE_SHAPES)
        kind = rng.choice(["small", "rational", "huge", "float"])
        a = oracle_basis(rng, n, d, kind)
        if rng.random() < 0.2:
            shared = [row[rng.randrange(d)] for row in a.exact_matrix]
            yield a, oracle_basis(rng, n, e, rng.choice(["small", "rational", "huge"]), shared)
        else:
            yield a, oracle_basis(rng, n, e, rng.choice(["small", "rational", "huge", "float"]))


def label_integers(a, b):
    """(L, W, C) of the raw labels of two bases: |X_A|^2 |X_B|^2, the squared
    wedge and, when t = 2, the squared contraction."""
    xa, xb = a.label, b.label
    label2 = sum(x * x for x in xa) * sum(x * x for x in xb)
    wedge2 = exact.squared_image_norm(exact.wedge_map(xa, a.d, b.d, a.n))(xb)
    if min(a.d, b.d) == 1:
        return label2, wedge2, None
    return label2, wedge2, exact.squared_image_norm(exact.contraction_map(xa, a.d, b.d, a.n))(xb)


def test_label_route_matches_the_bordered_gram():
    """On 2,400 seeded random pairs the Gram determinants of two bases give
    the integers of their labels (Cauchy-Binet), those integers give the
    interval tuples of the bordered Gram determinants."""
    rng = random.Random(29)
    shapes, zeros = set(), 0
    for a, b in oracle_pairs(rng, 2400):
        bits = rng.choice([128, 512])
        label = label_integers(a, b)
        assert angles_module._gram_integers(a, b) == label
        intervals = bordered_gram_intervals(a, b, bits + 4)
        assert angles_module._squared_sine_intervals(*label, bits + 4) == intervals
        shapes.add((a.n, a.d, b.d))
        zeros += None in intervals
    assert shapes == set(ORACLE_SHAPES) and zeros > 300, zeros


def test_basis_pairs_in_larger_spaces_build_no_label(monkeypatch):
    """A pair of bases takes L, W and C from Gram determinants, polynomial
    in n: a plane against a 6-space in R^12, and lines and planes against
    10-spaces in R^20 (labels of C(20, 10) = 184,756 minors), build no
    label and no pairing table, and bracket as the bordered Gram oracle."""
    rng = random.Random(1229)
    shapes = [(12, 2, 6), (12, 6, 2), (20, 1, 10), (20, 2, 10), (20, 10, 2)]
    pairs = [(oracle_basis(rng, n, d, "small"), oracle_basis(rng, n, e, "rational")) for n, d, e in shapes]

    def refused(*_args):
        raise AssertionError("a pair of bases built a label")

    monkeypatch.setattr(angles_module.exact, "raw_minors", refused)
    monkeypatch.setattr(angles_module.exact, "_pairing_terms", refused)
    bits = exact_relative_bits()
    for a, b in pairs:
        prof = angles_adaptive(a, b)
        assert principal_angles(a, b, bits=128).t == prof.t == min(a.d, b.d)
        intervals = angles_module._squared_sine_intervals(*angles_module._gram_integers(a, b), bits + 4)
        assert intervals == bordered_gram_intervals(a, b, bits + 4)
        assert prof.resolved == tuple(x is not None for x in intervals)


PENCIL_KINDS = ["small", "huge", "near", "spread"]


def pencil_pair(rng, d, kind):
    """Two exact d-spaces of R^(2d): small entries, huge ones (up to 2^200),
    near, B = 10^k A + E for k up to 80 and small E, whose sines lie near
    10^-k, or spread, column j of B 10^(k_j) times that of A plus a small
    error, for distinct k_j up to 40, whose sines lie far apart."""
    n = 2 * d
    while True:
        if kind in ("near", "spread"):
            a = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(n)]
            if kind == "near":
                scales = [10 ** rng.randint(1, 80)] * d
            else:
                scales = [10**k for k in rng.sample(range(1, 41), d)]
            b = [[s * x + rng.randint(-3, 3) for s, x in zip(scales, row)] for row in a]
        else:
            bound = 9 if kind == "small" else 2**200
            a, b = ([[rng.randint(-bound, bound) for _ in range(d)] for _ in range(n)] for _ in "ab")
        try:
            return RealBasis.from_exact(a), RealBasis.from_exact(b)
        except NumericalRankLossError:
            continue


def largest_sine(a, b, bits):
    """The bracket certify_instance proves for the largest sine of two
    exact bases of one dimension: the inertia test on the last squared sine
    alone, rooted at bits + 4; None when that proof fails."""
    _, s_mat, r_mat = angles_module._pencil(a, b)
    squares = angles_module._pencil_squares(s_mat, r_mat, a.d - 1, bits, 64)
    if squares is None:
        return None
    (square,) = squares
    return angles_module._sqrt_bracket(square, angles_module._sqrt_scale(square[0], square[1], bits + 4))


def test_largest_sine_proof_holds_an_svd_reference():
    """On 200 seeded pairs of 3-spaces in R^6 and 4-spaces in R^8 of each
    pencil_pair kind, every sine's bracket from the pencil, and the
    certificate's bracket of the largest alone, hold the sines of an mpmath
    SVD at 4 bits + 600 plus the bits the smallest sine needs, and each is
    narrower than 2^-bits relatively."""
    rng = random.Random(39)
    kinds = set()
    for _ in range(200):
        d, kind, bits = rng.choice([3, 4]), rng.choice(PENCIL_KINDS), rng.choice([128, 512])
        a, b = pencil_pair(rng, d, kind)
        brackets = angles_module._pencil_sine_mantissas(a, b, bits, HARD_BIT_CAP)
        (lo, exp), _ = brackets[0]
        ref = svd_sines(a, b, 4 * bits + 600 + 4 * (-exp - lo.bit_length()))
        brackets.append(largest_sine(a, b, bits))
        for ((lo, exp), (hi, hi_exp)), r in zip(brackets, ref + ref[-1:]):
            assert exp == hi_exp and mp.ldexp(lo, exp) <= r <= mp.ldexp(hi, exp), (d, kind, bits)
            assert (hi - lo) << bits < lo
        kinds.add((d, kind, bits))
    assert len(kinds) == 16


def rotated_basis(base, seed):
    """An evaluator basis of U X for the integer columns X of base and a
    random orthogonal U drawn at each precision, as criterion 03 rotates."""

    def fn(bits):
        return (random_orthogonal(base.n, random.Random(seed), bits) * base.at(bits)).tolist()

    return RealBasis.from_evaluator(base.n, base.d, fn, source="rotated")


def reference_bits(p):
    """Bits at which svd_sines resolves the brackets of p: sqrt(1 - sigma^2)
    at P bits has relative error near 2^-P / psi^2, so P is 600 plus twice
    the bits of the narrowest relative width and of the least squared sine."""
    need = [mp.log(hi / (hi - lo), 2) + 2 * mp.log(1 / lo, 2)
            for lo, hi, ok in zip(p.lo, p.hi, p.resolved) if ok and 0 < lo < hi]
    return 600 + 2 * int(max(need, default=p.bits_used))


def test_evaluator_brackets_hold_an_svd_reference():
    """Rotated exact pairs, with t <= 2 (a right angle among them) and
    with t >= 3 of each pencil_pair kind, and the golden line against exact
    lines: every
    bracket that angles_adaptive and principal_angles (192 bits) give the
    evaluator pair holds the sine of an mpmath SVD of the evaluators, and
    every bracket of the exact pair it rotates one of that pair."""
    rng = random.Random(23)
    pairs = []
    for trial in range(24):
        if trial % 4 == 0:
            n = rng.randint(2, 5)
            a, b = (random_exact_basis(rng, n, rng.randint(1, min(2, n))) for _ in "ab")
        else:
            a, b = pencil_pair(rng, rng.choice([3, 4]), PENCIL_KINDS[trial % 4])
        pairs.append((rotated_basis(a, 500 + trial), rotated_basis(b, 500 + trial), (a, b)))
    # a right angle: a bracket around 1 whose ends round to different exponents
    a, b = exact_basis((1, -1, 2)), exact_basis((2, 0, -1))
    pairs.append((rotated_basis(a, 7), rotated_basis(b, 7), (a, b)))
    golden = RealBasis.from_evaluator(
        2, 1, lambda bits: [[mp.mpf(1)], [(1 + mp.sqrt(5)) / 2]], source="algebraic"
    )
    pairs += [(golden, exact_basis((x, y)), None) for x, y in ((1, 1), (1, 2), (89, 144), (-3, 7))]
    checked = 0
    for a, b, twin in pairs:
        adaptive = angles_adaptive(a, b)
        assert adaptive.rel_err_bound <= 2.0**-48
        cases = [(adaptive, (a, b)), (principal_angles(a, b, bits=192), (a, b))]
        if twin:
            cases.append((angles_adaptive(*twin), twin))
        for p, pair in cases:
            ref = svd_sines(*pair, reference_bits(p))
            for lo, x, hi, ok, r in zip(p.lo, p.psi, p.hi, p.resolved, ref):
                assert lo <= x <= hi and lo <= r <= hi
                assert ok or hi <= mp.ldexp(1, -(p.bits_used // 4))
                checked += 1
    assert checked == sum((2 + (twin is not None)) * min(a.d, b.d) for a, b, twin in pairs)


def test_an_ill_conditioned_exact_pair_is_proved():
    """Columns 10^-300 apart make S singular at the first proposal's
    precision: mp.inverse refuses it, and the retries with the proposal's
    extra bits doubled prove the pair, the brackets still about 2^-bits
    wide.  The reference's Gram-Schmidt at 256 bits, the engine these pairs
    took before, reads the basis as dependent."""
    e = Fraction(1, 10**300)
    a = RealBasis.from_exact([[1, 1, 0], [1, 1 + e, 0], [0, 0, 1], [1, 1, 3], [4, 4, 7]])
    b = RealBasis.from_exact(T3_B)
    with pytest.raises(NumericalRankLossError):
        svd_sines(a, b, 256)
    p = angles_adaptive(a, b)
    assert p.resolved == (False, True, True)
    # Gram-Schmidt loses about 2000 bits on these columns
    ref = svd_sines(a, b, reference_bits(p) + 2000)
    bits = exact_relative_bits()
    for lo, hi, r in zip(p.lo[1:], p.hi[1:], ref[1:]):
        assert lo <= r <= hi and hi * mp.ldexp(1, -bits - 16) < hi - lo < hi * mp.ldexp(1, -bits)


def test_an_ill_conditioned_exact_pair_takes_one_proposal(monkeypatch):
    """The smaller basis is size-reduced before its pencil is formed: the
    column cleared by 10^300 becomes (0, 1, 0, 0, 0), and the first
    eigenvalue proposal proves the pair, where six were needed before."""
    proposals = []
    propose = angles_module._eigen_proposals

    def counted(s_mat, r_mat, prec):
        proposals.append(prec)
        return propose(s_mat, r_mat, prec)

    monkeypatch.setattr(angles_module, "_eigen_proposals", counted)
    e = Fraction(1, 10**300)
    a = RealBasis.from_exact([[1, 1, 0], [1, 1 + e, 0], [0, 0, 1], [1, 1, 3], [4, 4, 7]])
    assert angles_adaptive(a, RealBasis.from_exact(T3_B)).resolved == (False, True, True)
    assert proposals == [exact_relative_bits() + 64]


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 6), st.sampled_from([1, 10**6, 10**60]))
def test_size_reduction_is_a_unimodular_change_of_basis(seed, d, scale):
    """_size_reduced keeps the raw minors up to sign, so the change of
    basis is unimodular and the span the same, and leaves every
    Gram-Schmidt coefficient in [-1/2, 1/2]; columns cleared at very
    different scales are its reason to exist."""
    rng = random.Random(seed)
    n = d + rng.randint(0, 2)
    while True:
        cols = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(d)]
        for j in range(1, d):
            cols[j] = [scale * x + y for x, y in zip(cols[j - 1], cols[j])]
        if exact.rank(cols) == d:
            break
    reduced = angles_module._size_reduced(tuple(map(tuple, cols)))
    before, after = (exact.raw_minors(tuple(zip(*c))) for c in (cols, reduced))
    assert after in (before, tuple(-x for x in before))
    ortho = []
    for col in map(list, reduced):
        for prev in ortho:
            mu = sum(map(mul, col, prev)) / sum(x * x for x in prev)
            assert abs(mu) <= Fraction(1, 2)
            col = [x - mu * y for x, y in zip(col, prev)]
        ortho.append(col)
    with pytest.raises(NumericalRankLossError):
        angles_module._size_reduced(((1, 2, 3), (2, 4, 6)))


def test_largest_sine_proof_refuses_what_it_cannot_prove(monkeypatch):
    """Two bases of one subspace have largest sine 0, and give None.  So
    does a proposal twice or half the true eigenvalue: one end of its
    bracket is true, but Sylvester's test on the other end fails, so no
    wrong bracket comes out."""
    rng = random.Random(3)
    eigsy = mp.eigsy
    for d in (3, 4):
        a, b = pencil_pair(rng, d, "small")
        # a unimodular change of basis keeps the span
        mix = [[int(i == j or j == i + 1) for j in range(d)] for i in range(d)]
        same = RealBasis.from_exact(exact.mat_mul(a.exact_matrix, mix))
        assert largest_sine(a, same, 128) is None
        assert largest_sine(a, b, 128) is not None
        for factor in (2, 0.5):
            monkeypatch.setattr(angles_module.mp, "eigsy", lambda m, **kw: eigsy(m, **kw) * factor)
            assert largest_sine(a, b, 128) is None
        monkeypatch.undo()


def sylvester(m):
    """Sylvester's test on m itself: every leading minor positive."""
    return all(exact.determinant([row[:j] for row in m[:j]]) > 0 for j in range(1, len(m) + 1))


def congruent_matrix(seed, d, a, sign):
    """m = B^T D B for an invertible integer B of order d with entries up
    to 2^40 and D = diag(2^a, ..., 2^a, sign): by Sylvester's law of
    inertia m is positive definite exactly when sign = 1, however far its
    least eigenvalue lies below its entries (about 2^-a of them)."""
    rng = random.Random(seed)
    while True:
        b = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(d)] for _ in range(d)]
        if exact.determinant(b):
            break
    diag = [1 << a] * (d - 1) + [sign]
    return [[sum(b[k][i] * diag[k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32),
    d=st.integers(2, 5),
    a=st.integers(0, 700),
    sign=st.sampled_from([1, -1, 0]),
)
@example(seed=1, d=3, a=400, sign=1)
@example(seed=2, d=4, a=400, sign=-1)
def test_truncated_sylvester_test_decides_as_the_full_one(seed, d, a, sign):
    """On symmetric integer matrices near singular, definite or not, the
    test on truncations (_inertia) answers as Sylvester's test on the
    matrix itself, at every starting width: positive definite exactly when
    sign = 1, with a negative eigenvalue exactly when sign = -1, and never
    with two."""
    m = congruent_matrix(seed, d, a, sign)
    assert sylvester(m) == (sign == 1)
    expected = {(0, False): sign == 1, (1, True): sign == -1, (2, True): False}
    for width in (16, 64, 640):
        for (k, at_least), want in expected.items():
            assert angles_module._inertia(m, width, k, at_least) == want, (width, k, at_least)


def test_truncated_sylvester_test_retries_at_a_smaller_shift():
    """A definite matrix whose least eigenvalue lies 2^-400 below its
    entries fails the test at its first truncation to 64 bits, and a
    smaller shift proves it."""
    d = 3
    m = congruent_matrix(1, d, 400, 1)
    shift = max(abs(x).bit_length() for row in m for x in row) - 64
    first = [[(x >> shift) - d * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    assert not sylvester(first)
    assert angles_module._inertia(m, 64, 0, at_least=False)
