"""Tests for the explicit subspace family: thresholds, digits, convergents."""

import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from mpmath import mp

from subdioph.angles import AngleProfile, PrecisionContext, RealBasis, angles_adaptive
from subdioph.construction import (
    FINITE,
    INFINITE,
    ConstructionParams,
    FixedDigitStream,
    SeededDigitStream,
    beta_threshold,
    build_convergent,
    build_generators,
    build_infinite_convergent,
    certify_instance,
    floor_alpha_powers,
    params_from_descriptor,
    params_to_descriptor,
    stream_for,
    tail_bound,
    term_exponents,
    theta_for,
    theta_is_admissible,
    theta_lower_bound,
)
from subdioph.errors import CertificationFailure, ParameterError, PrecisionExhaustedError
from subdioph import angles, cli, construction, exact
from svd_reference import svd_sines


PINNED = FixedDigitStream((2, 3, 2))


def finite_params(**kw):
    args = dict(ell=1, beta=3, theta=5, seed=0)
    args.update(kw)
    return ConstructionParams.create(**args)


# ---------------------------------------------------------------------------
# thresholds and primes


def test_beta_threshold_small_cases():
    t1 = beta_threshold(1)
    assert t1.rational == Fraction(3, 2) and t1.radicand == Fraction(5, 4)
    assert abs(float(t1) - (3 + math.sqrt(5)) / 2) < 1e-12
    t2 = beta_threshold(2)
    assert t2.rational == Fraction(5, 4) and t2.radicand == Fraction(17, 16)
    assert abs(float(t2) - (5 + math.sqrt(17)) / 4) < 1e-12


def test_beta_threshold_exact_boundary_decisions():
    t1 = beta_threshold(1)
    assert t1.admits(3)
    assert t1.admits(Fraction(2618034, 1000000))
    assert not t1.admits(Fraction(2618033, 1000000))
    t2 = beta_threshold(2)
    assert t2.admits(Fraction(229, 100))
    assert not t2.admits(Fraction(228, 100))


def test_beta_threshold_stays_above_two():
    for ell in list(range(1, 101)) + [10**6]:
        assert not beta_threshold(ell).admits(2)


def test_theta_for_known_values():
    assert theta_lower_bound(1) == 3 and theta_for(1) == 5
    assert theta_lower_bound(2) == 50 and theta_for(2) == 53
    assert theta_lower_bound(3) == 2058 and theta_for(3) == 2063
    for ell in (1, 2, 3):
        theta = theta_for(ell)
        assert sympy.isprime(theta)
        assert theta > theta_lower_bound(ell)
        # nothing prime strictly between the bound and theta
        for q in range(theta_lower_bound(ell) + 1, theta):
            assert not sympy.isprime(q)


def test_is_prime_matches_sympy():
    for n in range(10**5):
        assert construction._is_prime(n) == sympy.isprime(n), n
    rng = random.Random(80)
    for _ in range(2000):
        n = rng.getrandbits(80) | (1 << 79)
        assert construction._is_prime(n) == sympy.isprime(n), n
    # psi_12: composite, yet a strong probable prime to every base up to 37
    assert not construction._is_prime(318665857834031151167461)


def test_theta_for_unchanged_up_to_proof_limit():
    for ell in range(1, 12):
        assert theta_for(ell) == sympy.nextprime(theta_lower_bound(ell))


def test_theta_without_primality_proof_rejected():
    with pytest.raises(ParameterError, match="proved only below"):
        theta_for(12)
    with pytest.raises(ParameterError, match="not an integer"):
        ConstructionParams.create(ell=1, beta=Fraction(3), theta=53.0)
    big_prime = sympy.nextprime(10**25)
    with pytest.raises(ParameterError, match="proved only below"):
        ConstructionParams.create(ell=1, beta=Fraction(3), theta=big_prime)


def test_import_leaves_sympy_out():
    code = "import sys, subdioph, subdioph.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_theta_admissibility():
    assert theta_is_admissible(7, 1)
    assert not theta_is_admissible(3, 1)  # not above the bound
    assert not theta_is_admissible(6, 1)  # composite
    assert theta_is_admissible(59, 2)
    assert not theta_is_admissible(51, 2)


# ---------------------------------------------------------------------------
# exponent schedules


def test_floor_alpha_powers_integer_ratio():
    assert floor_alpha_powers(3, 3) == (1, 3, 9, 27)


def test_floor_alpha_powers_rational_ratio():
    assert floor_alpha_powers(Fraction(5, 2), 4) == (1, 2, 6, 15, 39)


def test_floor_alpha_powers_step_bound():
    rng = random.Random(11)
    for _ in range(50):
        q = rng.randint(1, 9)
        p = rng.randint(2 * q + 1, 5 * q)
        alpha = Fraction(p, q)
        exps = floor_alpha_powers(alpha, 6)
        for k in range(6):
            assert exps[k + 1] <= alpha * (exps[k] + 1)
            assert exps[k + 1] > exps[k]


def test_floor_alpha_powers_rejects_slow_growth():
    with pytest.raises(ParameterError):
        floor_alpha_powers(2, 3)


def test_term_exponents_infinite_schedule():
    params = ConstructionParams.create(1, None, variant=INFINITE)
    assert term_exponents(params, 4)[1:] == (1, 4, 27, 256)


def fraction_floors(alpha, top):
    """floor(alpha^k) for k = 0..top from one Fraction power per step."""
    out, power = [], Fraction(1)
    for _ in range(top + 1):
        out.append(power.numerator // power.denominator)
        power *= alpha
    return tuple(out)


@pytest.mark.parametrize("ell, beta", [
    (1, 3), (1, Fraction(11, 4)), (2, Fraction(5, 2)), (2, 3), (3, Fraction(9, 4)), (1, None), (2, None),
])
def test_floors_and_single_exponents_are_the_fraction_loop(ell, beta):
    """Every (ell, beta) the tests build: the integer floors p^k // q^k are
    the Fraction loop's, and one exponent or tail bound read alone is the
    schedule's entry."""
    variant = FINITE if beta is not None else INFINITE
    params = ConstructionParams.create(ell, beta, variant=variant)
    top = 12 if beta is not None else 8
    exps = term_exponents(params, top)
    if beta is not None:
        assert exps == floor_alpha_powers(params.alpha, top) == fraction_floors(params.alpha, top)
    assert [construction._term_exponent(params, k) for k in range(top + 1)] == list(exps)
    # theta^m_4 has at most about 150k bits here
    assert [tail_bound(params, d) for d in range(4)] == [
        construction._tail_bound(params, exps[d + 1]) for d in range(4)
    ]
    # depth -1 reads m_0; a depth before it names no exponent
    assert tail_bound(params, -1) == construction._tail_bound(params, exps[0])
    with pytest.raises(ParameterError):
        tail_bound(params, -2)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_defaults_and_alpha():
    p = ConstructionParams.create(1, 3)
    assert p.theta == 5 and p.alpha == 3 and p.n == 2 and p.variant == FINITE
    p2 = ConstructionParams.create(2, Fraction(5, 2))
    assert p2.theta == 53 and p2.alpha == 5


def test_params_rejects_small_beta():
    with pytest.raises(ParameterError, match="admissible threshold"):
        ConstructionParams.create(1, Fraction(5, 2))


def test_params_theta_override():
    p = ConstructionParams.create(1, 3, theta=7)
    assert p.theta == 7
    for bad in (3, 4, 6):
        with pytest.raises(ParameterError):
            ConstructionParams.create(1, 3, theta=bad)


def test_params_infinite_variant():
    for beta in (None, "inf", float("inf")):
        p = ConstructionParams.create(1, beta, variant=INFINITE)
        assert p.theta == 3 and p.beta is None
    with pytest.raises(ParameterError):
        ConstructionParams.create(1, None, theta=5, variant=INFINITE)
    with pytest.raises(ParameterError):
        ConstructionParams.create(1, None)  # finite variant needs a ratio
    with pytest.raises(ParameterError):
        ConstructionParams.create(1, None, variant=INFINITE).alpha


# ---------------------------------------------------------------------------
# digit streams


def test_seeded_stream_is_deterministic_and_in_range():
    a = SeededDigitStream(2, 99)
    b = SeededDigitStream(2, 99)
    for i in (1, 2):
        for j in (1, 2):
            for k in range(40):
                d = a.digit(i, j, k)
                assert d == b.digit(i, j, k)
                assert d in ((4, 5) if i == j else (1, 2))


def test_seeded_streams_differ_across_seeds():
    a = SeededDigitStream(1, 0)
    b = SeededDigitStream(1, 1)
    assert any(a.digit(1, 1, k) != b.digit(1, 1, k) for k in range(64))


def test_stream_for_infinite_uses_small_digits():
    params = ConstructionParams.create(1, None, variant=INFINITE)
    s = stream_for(params)
    assert all(s.digit(1, 1, k) in (1, 2) for k in range(30))


def test_fixed_stream_shorthand_and_exhaustion():
    s = FixedDigitStream((2, 3, 2))
    assert [s.digit(1, 1, k) for k in range(3)] == [2, 3, 2]
    with pytest.raises(ParameterError):
        s.digit(1, 1, 3)
    with pytest.raises(ParameterError):
        s.digit(1, 2, 0)


def test_stream_index_validation():
    s = SeededDigitStream(1, 0)
    with pytest.raises(ParameterError):
        s.digit(0, 1, 0)
    with pytest.raises(ParameterError):
        s.digit(1, 2, 0)
    with pytest.raises(ParameterError):
        s.digit(1, 1, -1)


# ---------------------------------------------------------------------------
# truncations


def truncated(gen, i, j):
    """The generators' series entry (i, j), 1-based, as a Fraction."""
    return Fraction(gen.integer_matrix[gen.params.ell + i - 1][j - 1], gen.denominator)


def test_xi_truncation_pinned_values():
    params = finite_params()
    t0 = build_generators(params, 0, stream=PINNED)
    assert truncated(t0, 1, 1) == Fraction(2, 5)
    t1 = build_generators(params, 1, stream=PINNED)
    assert truncated(t1, 1, 1) == Fraction(2, 5) + Fraction(3, 125)
    assert t1.angle_slack == Fraction(6, 5**9)
    t2 = build_generators(params, 2, stream=PINNED)
    assert truncated(t2, 1, 1) == Fraction(828127, 5**9)


def test_xi_truncation_nesting_respects_tail():
    params = finite_params(seed=7)
    values = [truncated(build_generators(params, k), 1, 1) for k in range(5)]
    for k in range(4):
        gap = values[k + 1] - values[k]
        assert 0 < gap < tail_bound(params, k)


def test_xi_truncation_nesting_infinite_variant():
    params = ConstructionParams.create(1, None, seed=5, variant=INFINITE)
    values = [truncated(build_generators(params, k), 1, 1) for k in range(1, 5)]
    for idx, k in enumerate(range(1, 4)):
        gap = values[idx + 1] - values[idx]
        assert 0 < gap < tail_bound(params, k)


# ---------------------------------------------------------------------------
# generators


def test_generators_single_block():
    params = finite_params()
    gen = build_generators(params, 0, stream=FixedDigitStream((2,)))
    assert gen.integer_matrix == ((5,), (2,)) and gen.denominator == 5
    assert gen.angle_slack == tail_bound(params, 0)


def test_slack_ceiling_matches_the_exact_slack():
    """certify_instance widens by the angle slack rounded up at 2 ctx.bits,
    taken from two dyadic bounds on theta^m: it equals the ceiling of the
    exact Fraction for both variants, ell = 1 to 4 and every depth whose
    power fits in a test, and the unbounded ell = 1 certificate to N = 4,
    whose slack holds 3^823543, keeps its bytes."""
    cases = 0
    for ell in (1, 2, 3, 4):
        for beta, variant in ((Fraction(3), FINITE), (Fraction(7, 2), FINITE), (None, INFINITE)):
            params = ConstructionParams.create(ell, beta, seed=1, variant=variant)
            for depth in range(construction.series_start(params), 7):
                m_next = construction._term_exponent(params, depth + 1)
                if m_next > 3 * 10**5:
                    continue
                slack = build_generators(params, depth).angle_slack
                for prec in (128, 512, 1024):
                    want = angles._ceil_dyadic(slack, prec)
                    assert construction._ceil_slack(params, m_next, prec) == want
                    cases += 1
    assert cases > 150
    out = io.StringIO()
    argv = ["construct", "--ell", "1", "--beta", "inf", "--nmax", "4", "--certify", "--no-header"]
    assert cli.run_command(argv, stdout=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "ee0de7453a414fede532bd8c5b0b3e40b02295eab6c7660e9be8d16b787ff4d9"


def test_generators_shape_and_rank():
    params = ConstructionParams.create(2, Fraction(5, 2), seed=1)
    gen = build_generators(params, 2)
    m = gen.integer_matrix
    assert exact.shape(m) == (4, 2)
    assert m[0][0] == m[1][1] == gen.denominator and m[0][1] == m[1][0] == 0
    assert exact.rank(m) == 2
    assert gen.angle_slack == 2 * tail_bound(params, 2)
    # diagonal series lead with large digits, off-diagonal with small ones
    for i in (1, 2):
        for j in (1, 2):
            lead = truncated(gen, i, j) * 53
            first_digit = lead.numerator // lead.denominator
            assert first_digit in ((4, 5) if i == j else (1, 2))


def test_generators_gram_limit():
    params = finite_params()
    gen = build_generators(params, 2, stream=PINNED)
    xi = Fraction(828127, 5**9)
    assert gen.gram_squared() == 1 + xi * xi


ORACLE_BETAS = {1: 3, 2: Fraction(5, 2), 3: Fraction(9, 4)}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", [FINITE, INFINITE])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_integer_generators_match_the_fraction_path(ell, variant, seed):
    """The generators built as integers over theta^m_depth give what the
    entrywise Fraction path gives: Gram determinant, cleared columns,
    truncated entries, and build_convergent's matrix at index depth."""
    beta = ORACLE_BETAS[ell] if variant == FINITE else None
    params = ConstructionParams.create(ell, beta, seed=seed, variant=variant)
    stream = stream_for(params)
    start = construction.series_start(params)
    for depth in range(start, (3 if ell == 3 else 4) + 1):
        gen = build_generators(params, depth)
        exps = term_exponents(params, depth)
        expected = [
            [
                sum(
                    Fraction(stream.digit(i, j, k), params.theta ** exps[k])
                    for k in range(start, depth + 1)
                )
                for j in range(1, ell + 1)
            ]
            for i in range(1, ell + 1)
        ]
        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                assert truncated(gen, i, j) == expected[i - 1][j - 1]
        identity = [[int(r == c) for c in range(ell)] for r in range(ell)]
        fractions = exact.as_matrix(identity + expected)
        assert gen.gram_squared() == Fraction(exact.generalized_determinant_squared(fractions))
        cleared = tuple(exact.clear_denominators(col) for col in zip(*fractions))
        assert gen.real_basis().columns == cleared
        try:
            convergent = build_convergent(params, depth)
        except CertificationFailure:
            continue
        assert gen.integer_matrix == convergent.full
        assert gen.denominator == params.theta ** convergent.exponent


# ---------------------------------------------------------------------------
# convergents


def test_convergent_pinned_first():
    params = finite_params()
    c = build_convergent(params, 1, stream=PINNED)
    assert c.exponent == 3
    assert c.full == ((125,), (53,))
    assert c.height_squared == 18434


def test_convergent_pinned_second():
    params = finite_params()
    c = build_convergent(params, 2, stream=PINNED)
    assert c.exponent == 9
    assert c.full == ((5**9,), (828127,))
    # the newest digit is the residue modulo the base
    assert c.f_matrix[0][0] % 5 == 2 == c.digit_matrix[0][0]


def test_convergent_index_zero_allowed_finite():
    params = finite_params()
    c = build_convergent(params, 0, stream=PINNED)
    assert c.full == ((5,), (2,))


def test_convergent_primitive_and_growing():
    params = finite_params(seed=3)
    heights = []
    for n in range(4):
        c = build_convergent(params, n)
        assert exact.is_primitive_basis(c.full)
        heights.append(c.height_squared)
    assert heights == sorted(heights) and len(set(heights)) == 4


def test_convergent_takes_its_minors_once(monkeypatch):
    calls = []
    minors = exact.raw_minors
    monkeypatch.setattr(exact, "raw_minors", lambda m: calls.append(m) or minors(m))
    outcomes = set()
    for seed in range(8):
        params = ConstructionParams.create(2, None, variant=INFINITE, seed=seed)
        calls.clear()
        try:
            c = build_convergent(params, 1)
        except CertificationFailure as err:
            assert len(calls) == 1
            assert err.check == "primitive-basis"
            assert math.gcd(*minors(calls[0])) > 1
            outcomes.add("rejected")
        else:
            assert len(calls) == 1
            assert c.subspace.pluecker == exact.pluecker_coordinates(c.full)
            outcomes.add("built")
    assert outcomes == {"built", "rejected"}


@pytest.mark.parametrize("ell, n_index", [(2, 1), (2, 2), (3, 1)])
def test_unbounded_convergent_is_primitive_unless_theta_divides_det_d(ell, n_index):
    """F = theta^m_N sum_(k<=N) D_k / theta^m_k is D_N mod theta, and one
    ell-minor of [theta^m I ; F] is theta^(ell m): the basis fails to be
    primitive exactly when theta divides det(D_N)."""
    outcomes = set()
    for seed in range(200):
        params = ConstructionParams.create(ell, None, variant=INFINITE, seed=seed)
        stream = stream_for(params)
        digits = [[stream.digit(i, j, n_index) for j in range(1, ell + 1)]
                  for i in range(1, ell + 1)]
        singular = exact.determinant(digits) % params.theta == 0
        try:
            build_convergent(params, n_index)
            failure = None
        except CertificationFailure as err:
            failure = err.check
        assert (failure == "primitive-basis") == singular, seed
        assert failure in (None, "primitive-basis"), seed
        outcomes.add(singular)
    assert outcomes == {True, False}


def test_convergent_height_product_bound():
    for params in (finite_params(seed=2), ConstructionParams.create(2, Fraction(5, 2), seed=2)):
        ell = params.ell
        for n in range(1, 3):
            c = build_convergent(params, n)
            cap = (2 * (2 * ell + 1)) ** (2 * ell) * (2 * ell) ** ell * params.theta ** (
                2 * ell * c.exponent
            )
            assert c.height_squared <= cap


def test_infinite_convergents_pinned():
    params = ConstructionParams.create(1, None, variant=INFINITE)
    stream = FixedDigitStream((9, 1, 2, 1))  # index 0 never read
    c1 = build_infinite_convergent(params, 1, stream=stream)
    assert c1.full == ((3,), (1,))
    c2 = build_infinite_convergent(params, 2, stream=stream)
    assert c2.exponent == 4
    assert c2.full == ((81,), (29,))
    with pytest.raises(ParameterError):
        build_infinite_convergent(params, 0, stream=stream)
    with pytest.raises(ParameterError):
        build_infinite_convergent(finite_params(), 1, stream=stream)


# ---------------------------------------------------------------------------
# certification


def test_certify_small_finite_instance():
    params = finite_params()
    report = certify_instance(params, 3)
    assert [r.n_index for r in report.records] == [1, 2, 3]
    for rec in report.records:
        assert all(ok for _, ok in rec.checks)
        assert 0 < rec.psi_lo < rec.psi_hi
    assert all(ok for _, ok in report.instance_checks)
    # proximity shrinks and the height ratio settles fast
    psis = [rec.psi_hi for rec in report.records]
    assert psis == sorted(psis, reverse=True)
    assert report.records[-1].ratio_deviation < 0.01
    # both normalizations stay inside a narrow band for an integer ratio
    for values in (
        [rec.upper_normalized for rec in report.records],
        [rec.lower_normalized for rec in report.records],
    ):
        assert max(values) / min(values) < 100
    # the record exponent approaches the design ratio 3 from below
    assert 2.8 <= report.records[-1].local_exponent <= 3.05
    assert report.records[0].local_exponent < report.records[-1].local_exponent


def test_certify_reports_are_json_ready():
    report = certify_instance(finite_params(), 2)
    rows = list(report.as_records())
    names = {(r["n"], r["check"]) for r in rows}
    assert (1, "truncation-tail") in names
    assert (2, "quantities") in names
    assert (None, "height-monotone") in names
    for row in rows:
        json.dumps(row)


def test_certify_wider_block_instance():
    params = ConstructionParams.create(2, Fraction(5, 2), seed=0)
    report = certify_instance(params, 1)
    rec = report.records[0]
    assert all(ok for _, ok in rec.checks)
    assert 0 < rec.psi_lo < rec.psi_hi < 1e-3


def test_certify_infinite_instance():
    params = ConstructionParams.create(1, None, seed=0, variant=INFINITE)
    report = certify_instance(params, 2)
    assert all(all(ok for _, ok in rec.checks) for rec in report.records)
    assert report.records[1].local_exponent > report.records[0].local_exponent


def test_certify_validates_inputs():
    with pytest.raises(ParameterError):
        certify_instance(finite_params(), 0)
    with pytest.raises(ParameterError):
        certify_instance(finite_params(), 3, depth=4)


def test_certification_failure_carries_location():
    err = CertificationFailure("truncation-tail", 2, "gap too large")
    assert err.check == "truncation-tail" and err.n_index == 2
    assert "truncation-tail" in str(err) and "N=2" in str(err)


@pytest.mark.parametrize("nmax", [1, 2])
def test_non_primitive_first_convergent_fails_before_the_generators(monkeypatch, nmax):
    """certify_instance fails 'primitive-basis' at N = 1 for exactly the
    seeds whose first convergent is not primitive, and builds no
    generators for them."""
    built = []
    build = construction.build_generators
    monkeypatch.setattr(
        construction, "build_generators", lambda *a, **kw: built.append(a) or build(*a, **kw)
    )
    for seed in range(64):
        params = ConstructionParams.create(2, None, seed=seed, variant=INFINITE)
        try:
            build_convergent(params, 1)
            primitive = True
        except CertificationFailure:
            primitive = False
        del built[:]
        try:
            certify_instance(params, nmax)
            failure = None
        except CertificationFailure as err:
            failure = (err.check, err.n_index)
        assert (failure == ("primitive-basis", 1)) == (not primitive), seed
        assert bool(built) == primitive, seed


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_round_trip():
    p = ConstructionParams.create(2, Fraction(5, 2), seed=42)
    d = params_to_descriptor(p)
    assert d == {"ell": 2, "beta": "5/2", "theta": 53, "seed": 42, "variant": FINITE}
    assert params_from_descriptor(d) == p

    q = ConstructionParams.create(1, None, seed=7, variant=INFINITE)
    d2 = params_to_descriptor(q)
    assert d2["beta"] == "inf" and d2["theta"] == 3
    assert params_from_descriptor(d2) == q


def test_descriptor_defaults_and_errors():
    p = params_from_descriptor({"ell": 1, "beta": "3"})
    assert p.theta == 5 and p.seed == 0
    inf = params_from_descriptor({"ell": 1, "beta": "inf"})
    assert inf.variant == INFINITE
    # an integer beta and a spelled-out infinity are exact, not coerced
    assert params_from_descriptor({"ell": 1, "beta": 3}) == p
    assert params_from_descriptor({"ell": 1, "beta": " Infinity", "variant": INFINITE}) == inf
    with pytest.raises(ParameterError):
        params_from_descriptor({"beta": "3"})


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ({"ell": 1.7, "beta": "3", "theta": 5.9, "seed": True}, "ell must be an integer"),
        ({"ell": 1.0, "beta": "3"}, "ell must be an integer"),
        ({"ell": "1", "beta": "3"}, "ell must be an integer"),
        ({"ell": True, "beta": "3"}, "ell must be an integer"),
        ({"ell": 1, "beta": "3", "theta": 5.9}, "theta must be an integer"),
        ({"ell": 1, "beta": "3", "theta": "5"}, "theta must be an integer"),
        ({"ell": 1, "beta": "3", "theta": True}, "theta must be an integer"),
        ({"ell": 1, "beta": "3", "seed": True}, "seed must be an integer"),
        ({"ell": 1, "beta": "3", "seed": 1.0}, "seed must be an integer"),
        ({"ell": 1, "beta": "3", "seed": "1"}, "seed must be an integer"),
        ({"ell": 1, "beta": "3", "variant": "infinite"}, "the infinite variant takes beta"),
        ({"ell": 1, "beta": None, "variant": "infinite"}, "the infinite variant takes beta"),
        ({"ell": 1, "beta": 2.5}, 'beta must be "p/q" text or an integer'),
    ],
    ids=["all-coerced", "ell-float", "ell-text", "ell-bool", "theta-float", "theta-text",
         "theta-bool", "seed-bool", "seed-float", "seed-text", "infinite-finite-beta",
         "infinite-null-beta", "beta-float"],
)
def test_descriptor_values_are_not_coerced(descriptor, message):
    """A descriptor holds JSON integers where params_to_descriptor writes
    them, and an infinite instance says beta "inf": nothing is rounded,
    parsed from text or dropped."""
    with pytest.raises(ParameterError, match="bad instance descriptor") as err:
        params_from_descriptor(descriptor)
    assert message in str(err.value)


# ---------------------------------------------------------------------------
# certification from integer brackets against the AngleProfile route


def _profile_route_certify(params, nmax, ctx=None):
    """certify_instance as it ran before its brackets stayed integers:
    angles_adaptive, AngleProfile.widened and 96-bit mpmath summaries, every
    convergent rebuilt from the stream.  The oracle for the dyadic route."""
    depth = nmax + 2
    ell, theta = params.ell, params.theta
    first = build_convergent(params, 1)
    generators = build_generators(params, depth)
    gram_limit_squared = generators.gram_squared()
    target = generators.real_basis()
    slack = generators.angle_slack
    if ctx is None and ell > 2:
        # the start certify_instance once took for ell >= 3: it over-resolves
        # every angle up to the slack scale
        m_next = construction._term_exponent(params, depth + 1)
        ctx = PrecisionContext(bits=int(4 * m_next * math.log2(theta)) + 64)
    exps = term_exponents(params, nmax + 1)
    records, brackets, bits_used = [], [], 0
    prev_h, prev_dev, height_monotone, deviation_monotone = None, None, True, True
    for n_index in range(1, nmax + 1):
        conv = first if n_index == 1 else build_convergent(params, n_index)
        m_n, h_sq = conv.exponent, conv.height_squared
        tail_n = tail_bound(params, n_index)
        lift = generators.denominator // theta**m_n
        gaps = [
            deep - f * lift
            for deep_row, f_row in zip(generators.integer_matrix[ell:], conv.f_matrix)
            for deep, f in zip(deep_row, f_row)
        ]
        if not all(0 < g and g * tail_n.denominator < tail_n.numerator * generators.denominator
                   for g in gaps):
            raise CertificationFailure("truncation-tail", n_index)
        finite = params.variant == FINITE
        f_cap = (2 * (2 * ell + 1) if finite else 1) * theta**m_n
        if not all(0 < f <= f_cap for row in conv.f_matrix for f in row):
            raise CertificationFailure("f-entry-bound", n_index)
        height_cap = (2 * ell) ** ell * theta ** (2 * ell * m_n)
        if finite:
            height_cap *= (2 * (2 * ell + 1)) ** (2 * ell)
        if h_sq > height_cap:
            raise CertificationFailure("height-upper", n_index)
        digits = conv.digit_matrix
        det = exact.determinant(digits)
        ok = det != 0
        if finite:
            ok = ok and abs(det) <= math.factorial(ell) * (2 * ell + 1) ** ell < theta
            for j in range(ell):
                off = sum(digits[i][j] for i in range(ell) if i != j)
                ok = ok and digits[j][j] >= 2 * ell > off
        if not ok:
            raise CertificationFailure("digit-dominance", n_index)
        step_ok = (exps[n_index + 1] <= params.alpha * (exps[n_index] + 1) if finite
                   else exps[n_index + 1] > exps[n_index])
        if not step_ok:
            raise CertificationFailure("exponent-step", n_index)
        profile = angles_adaptive(target, RealBasis.from_subspace(conv.subspace), ctx)
        widened = profile.widened(slack)
        bits_used = max(bits_used, profile.bits_used)
        if not (profile.resolved[-1] and widened.lo[-1] > 0):
            raise CertificationFailure("psi-resolution", n_index)
        psi_lo, psi_hi = widened.lo[-1], widened.hi[-1]
        ratio_squared = Fraction(h_sq, theta ** (2 * ell * m_n))
        with mp.workprec(96):
            upper = (mp.mpf(params.alpha.numerator) / params.alpha.denominator * m_n
                     if finite else exps[n_index + 1])
            q_num = ratio_squared.numerator * gram_limit_squared.denominator
            q_den = ratio_squared.denominator * gram_limit_squared.numerator
            q = mp.mpf(q_num) / q_den
            deviation = mp.mpf(abs(q_num - q_den)) / q_den / (mp.sqrt(q) + 1)
            upper_normalized = float(psi_hi * mp.mpf(theta) ** upper)
            lower_normalized = float(psi_lo * mp.mpf(theta) ** exps[n_index + 1])
            local_exponent = float(-2 * mp.log(psi_hi) / mp.log(h_sq))
        height_monotone = height_monotone and (prev_h is None or h_sq > prev_h)
        deviation_monotone = deviation_monotone and (prev_dev is None or deviation <= prev_dev)
        prev_h, prev_dev = h_sq, deviation
        brackets.append((psi_lo, psi_hi))
        records.append(construction.ConvergentCertificate(
            n_index=n_index, exponent=m_n, subspace=conv.subspace, height_squared=h_sq,
            ratio_squared=ratio_squared, ratio_deviation=deviation,
            psi_lo=construction._float_down(psi_lo), psi_hi=construction._float_up(psi_hi),
            psi_bracket=(psi_lo.man_exp, psi_hi.man_exp),
            upper_normalized=upper_normalized, lower_normalized=lower_normalized,
            local_exponent=local_exponent,
            checks=tuple((name, True) for name in construction._CONVERGENT_CHECKS),
        ))
    if not height_monotone:
        raise CertificationFailure("height-monotone", nmax)
    if not deviation_monotone:
        raise CertificationFailure("ratio-trend", nmax)
    cert = construction.InstanceCertification(
        params=params, depth=depth, bits_used=bits_used, gram_limit_squared=gram_limit_squared,
        records=tuple(records),
        instance_checks=tuple((name, True) for name in construction._INSTANCE_CHECKS),
    )
    return cert, brackets


def _certify_outcome(run):
    try:
        return run()
    except CertificationFailure as err:
        return ("failure", err.check, err.n_index)
    except PrecisionExhaustedError:
        return ("precision-exhausted",)


_CTXS = [None, PrecisionContext(bits=128), PrecisionContext(bits=256, max_bits=384)]
_CTX_IDS = ["default", "bits-128", "over-the-cap"]


@pytest.mark.parametrize(
    "ell, beta, nmax, seeds, ctx",
    [
        pytest.param(ell, beta, nmax, 50, ctx, id=f"l{ell}-{beta}-n{nmax}-{name}")
        for ell, beta, nmax in [(1, 3, 4), (1, Fraction(11, 4), 4), (1, None, 3),
                                (2, Fraction(5, 2), 2), (2, 3, 2), (2, None, 2)]
        for ctx, name in zip(_CTXS, _CTX_IDS)
    ]
    # the unbounded slack at depth 6 is 3^-823543: 0.17 s per call and route
    + [pytest.param(1, None, 4, 5, None, id="l1-None-n4-default")]
    # the route's ell = 3 brackets come from the mpmath engine; seeds 4 and
    # 11 are primitive
    + [pytest.param(3, None, 1, 12, None, id="l3-None-n1-default")],
)
def test_integer_brackets_match_the_angle_profile_route(ell, beta, nmax, seeds, ctx):
    """certify_instance agrees with the AngleProfile route seed by seed: the
    same rows, the same psi doubles, the same Gram limit and the same
    failing check at the same N.  For ell <= 2 the bracket values and
    bits_used agree too; for ell = 3 the proved bracket at 512 bits
    contains the one two mpmath runs agreed on."""
    variant = INFINITE if beta is None else FINITE
    outcomes = set()
    for seed in range(seeds):
        params = ConstructionParams.create(ell, beta, seed=seed, variant=variant)
        new = _certify_outcome(lambda: certify_instance(params, nmax, ctx=ctx))
        old = _certify_outcome(lambda: _profile_route_certify(params, nmax, ctx))
        if isinstance(new, tuple):
            assert new == old, seed
            outcomes.add(new[0])
            continue
        old, brackets = old
        assert list(new.as_records()) == list(old.as_records()), seed
        assert [(r.psi_lo.hex(), r.psi_hi.hex()) for r in new.records] == [
            (r.psi_lo.hex(), r.psi_hi.hex()) for r in old.records
        ], seed
        new_brackets = [tuple(mp.ldexp(*end) for end in r.psi_bracket) for r in new.records]
        if ell <= 2:
            assert new_brackets == brackets
            assert new.bits_used == old.bits_used
        else:
            assert all(lo <= old_lo and old_hi <= hi
                       for (lo, hi), (old_lo, old_hi) in zip(new_brackets, brackets)), seed
            assert new.bits_used == 512
        assert new.gram_limit_squared == old.gram_limit_squared
        outcomes.add("certified")
    # every case reaches the route it is meant to compare
    assert ("precision-exhausted" in outcomes) == (ctx is not None and ctx.max_bits < 512)
    assert "certified" in outcomes or ctx is not None


@pytest.mark.parametrize(
    "ell, beta, seed", [(1, Fraction(3), 0), (1, None, 0), (2, Fraction(5, 2), 0), (2, None, 4)],
    ids=["l1-b3", "l1-inf", "l2-b5_2", "l2-inf"],
)
def test_low_block_certificates_form_no_gram_determinant(ell, beta, seed, monkeypatch):
    """At ell <= 2 the limit's squared volume is the squared norm of the
    generators' label over denominator^(2 ell) (Cauchy-Binet), a sum the
    sine maps form anyway: no generalized determinant is taken, and the
    limit is the generators' own gram_squared (the unbounded l = 2
    instance first certifies at seed 4)."""
    params = ConstructionParams.create(ell, beta, seed=seed, variant=FINITE if beta else INFINITE)
    nmax = 2
    want = build_generators(params, nmax + 2).gram_squared()

    def refuse(_matrix):
        raise AssertionError("a Gram determinant was formed")

    monkeypatch.setattr(exact, "generalized_determinant_squared", refuse)
    assert certify_instance(params, nmax).gram_limit_squared == want


def test_certificates_keep_their_convergents_and_exact_deviations():
    """Each certificate keeps its convergent's subspace and its ratio
    deviation as a dyadic Fraction; construction binds no mpmath."""
    assert not hasattr(construction, "mp")
    cases = [(ConstructionParams.create(1, 3, seed=0), 5),
             (ConstructionParams.create(2, Fraction(5, 2), seed=0), 2),
             (ConstructionParams.create(1, None, variant=INFINITE), 3)]
    for params, nmax in cases:
        for rec in certify_instance(params, nmax).records:
            dev = rec.ratio_deviation
            assert type(dev) is Fraction and dev.denominator & (dev.denominator - 1) == 0
            assert rec.subspace == build_convergent(params, rec.n_index).subspace


def test_digits_are_read_once_per_certification(monkeypatch):
    """certify_instance reads every digit (i, j, k) at most once, and a
    non-primitive convergent 1 stops it after convergent 1's own digits."""
    reads = []

    class Counting:
        def __init__(self, stream):
            self.stream = stream

        def digit(self, i, j, k):
            reads.append((i, j, k))
            return self.stream.digit(i, j, k)

    monkeypatch.setattr(construction, "stream_for", lambda p: Counting(stream_for(p)))
    for ell, beta, nmax in [(1, 3, 4), (2, Fraction(5, 2), 2), (1, None, 3)]:
        del reads[:]
        variant = INFINITE if beta is None else FINITE
        params = ConstructionParams.create(ell, beta, seed=0, variant=variant)
        certify_instance(params, nmax)
        assert len(reads) == len(set(reads)) and reads, (ell, beta)
        # the generators at depth nmax + 2 need every digit up to it
        start = 1 if beta is None else 0
        assert len(reads) == ell * ell * (nmax + 3 - start)
    del reads[:]
    params = ConstructionParams.create(2, None, seed=1, variant=INFINITE)
    with pytest.raises(CertificationFailure, match="primitive-basis"):
        certify_instance(params, 2)
    assert sorted(reads) == [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1)]


def refuse_the_angle_engine(monkeypatch):
    """Certificates are proved from integer brackets: the angle engine and
    AngleProfile.widened raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate called the angle engine or widened a profile")

    monkeypatch.setattr(angles, "angles_adaptive", refuse)
    # construction imports no angle engine: one it imported would raise too
    monkeypatch.setattr(construction, "angles_adaptive", refuse, raising=False)
    monkeypatch.setattr(AngleProfile, "widened", refuse)


def test_sines_below_the_double_range_print_from_the_exact_bracket(monkeypatch):
    """At l=1 beta=3 N=5 psi is about 5e-510: its double ends read 0 and
    5e-324, while the row prints the dyadic bracket rounded outward."""
    refuse_the_angle_engine(monkeypatch)
    start = time.perf_counter()
    cert = certify_instance(finite_params(), 5)
    assert time.perf_counter() - start < 60
    rec = cert.records[-1]
    assert rec.psi_lo == 0.0 and rec.psi_hi == 5e-324
    row = [r for r in cert.as_records() if r["check"] == "quantities"][-1]
    lo, hi = Decimal(row["psi_lo"]), Decimal(row["psi_hi"])
    assert 0 < lo <= hi
    assert lo <= Fraction(*_dyadic_fraction(rec.psi_bracket[0]))
    assert hi >= Fraction(*_dyadic_fraction(rec.psi_bracket[1]))
    exponent = -2 * hi.log10() / Decimal(rec.height_squared).log10()
    assert row["local_exponent"] == "2.998017"
    assert abs(float(exponent) - 2.998017) < 1e-6
    # rows that fit a double keep their bytes
    assert row["psi_lo"] == "4.787367840780352591e-510"
    earlier = [r for r in cert.as_records() if r["check"] == "quantities"][-2]
    assert earlier["psi_lo"] == f"{cert.records[-2].psi_lo:.18e}"


def _dyadic_fraction(end):
    man, exp = end
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def test_dyadic_widening_rounds_as_angle_profile_widened():
    """angles._widened and angles._ceil_dyadic give the values
    AngleProfile.widened gives at the same precision, for ends and slacks near each other and far
    apart, including a lower end pushed to zero."""
    rng = random.Random(7)
    for _ in range(400):
        prec = rng.choice([64, 96, 512, 1024])
        k = rng.randrange(1, 3000)
        lo = rng.getrandbits(prec + 4) | 1 << (prec + 3)
        hi = lo + rng.randrange(0, 1 << 8)
        slack = Fraction(rng.randrange(1, 10**6), rng.choice([1, 3, 7, 10**9]) << rng.randrange(
            max(0, k - prec - 20), k + 3 * prec))
        profile = AngleProfile(t=1, psi=(mp.ldexp(lo, -k),), lo=(mp.ldexp(lo, -k),),
                               hi=(mp.ldexp(hi, -k),), resolved=(True,), rel_err_bound=0,
                               bits_used=prec)
        widened = profile.widened(slack)
        tau = angles._ceil_dyadic(slack, prec)
        assert mp.ldexp(*tau) == mp.fdiv(slack.numerator, slack.denominator, prec=prec,
                                         rounding="c")
        got = angles._widened((lo, -k), (hi, -k), tau, prec)
        if widened.lo[0] == 0:
            assert got is None
            continue
        assert (mp.ldexp(*got[0]), mp.ldexp(*got[1])) == (widened.lo[0], widened.hi[0])
        assert got[0][0].bit_length() <= prec and got[1][0].bit_length() <= prec + 1


# ---------------------------------------------------------------------------
# ell >= 3: the inertia proof on the Gram pencil


@pytest.mark.parametrize("ell, beta, nmax", [(3, Fraction(9, 4), 2), (4, Fraction(5, 2), 1)])
def test_certificates_at_ell_3_and_4_hold_an_svd_reference(ell, beta, nmax, monkeypatch):
    """ell = 3 up to N = 2 (psi_3 near 2.5e-1017) and ell = 4 at N = 1
    (psi_4 near 2.4e-519) certify.  Each proved bracket, before and after
    the slack widens it, holds the largest sine of an mpmath SVD of the
    same pair at 4 log2(1/psi) + 600 bits, and the local exponent moves
    toward beta with N."""
    proved = []
    widened = construction._widened

    def widen(lo, hi, tau, prec):
        proved.append((lo, hi))
        return widened(lo, hi, tau, prec)

    monkeypatch.setattr(construction, "_widened", widen)
    params = ConstructionParams.create(ell, beta, seed=0)
    cert = certify_instance(params, nmax)
    assert cert.bits_used == 512 and len(proved) == nmax
    target = build_generators(params, nmax + 2).real_basis()
    for rec, ((lo, exp), (hi, _)) in zip(cert.records, proved):
        basis = RealBasis.from_subspace(build_convergent(params, rec.n_index).subspace)
        ref = svd_sines(target, basis, 4 * (-exp - lo.bit_length()) + 600)[-1]
        assert mp.ldexp(lo, exp) <= ref <= mp.ldexp(hi, exp)
        assert mp.ldexp(*rec.psi_bracket[0]) <= ref <= mp.ldexp(*rec.psi_bracket[1])
    gaps = [abs(rec.local_exponent - beta) for rec in cert.records]
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 0.03, gaps


@pytest.mark.parametrize(
    "ell, seconds, pins",
    [
        ("3", 10, {("9/4", "1"): "d39123dca67de0bf9a41f7a1b7c33fa8855221bb734b842c4685c3c3188a2400",
                   ("9/4", "2"): "299add7d583d727e06b48651af7e59760cc547666bae1305c2f976e0d4d6f47a"}),
        ("4", 30, {("5/2", "1"): "beb2afacfedd669838664f19ea288b5cc52db54d419c68ce2c5817191dfd33a3"}),
        ("5", 30, {("5/2", "1"): "74f1848f380cee0abf2e3f83aa533d764264a2fb807ebed23d9f807c4c1e5cb9"}),
    ],
    ids=["l3", "l4", "l5"],
)
def test_certificates_above_ell_2_keep_their_bytes(monkeypatch, ell, seconds, pins):
    """construct --certify at seed 0 keeps its bytes with the angle engine
    and AngleProfile.widened refused, and the pins of one ell take less
    than seconds.  ell = 3 at N = 1 prints the bytes it printed when two
    mpmath runs at up to 182,902 bits gave its bracket, and at N = 2 those
    it printed when a Rayleigh quotient was the lower end of its largest
    sine; ell = 4 and 5 at N = 1 those they printed when Sylvester's test
    ran on the whole pencil (ell = 5 took about 10 s then)."""
    refuse_the_angle_engine(monkeypatch)
    start = time.perf_counter()
    for (beta, nmax), want in pins.items():
        out = io.StringIO()
        argv = ["construct", "--ell", ell, "--beta", beta, "--nmax", nmax, "--certify", "--no-header"]
        assert cli.run_command(argv, stdout=out) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want, (beta, nmax)
    assert time.perf_counter() - start < seconds


def test_a_wrong_proposal_fails_psi_resolution(monkeypatch):
    """An eigenvalue proposal twice the true one fails Sylvester's test,
    and the certificate stops at psi-resolution instead of printing a
    bracket."""
    eigsy = mp.eigsy
    monkeypatch.setattr(angles.mp, "eigsy", lambda m, **kw: eigsy(m, **kw) * 2)
    params = ConstructionParams.create(3, Fraction(9, 4), seed=0)
    with pytest.raises(CertificationFailure, match="psi-resolution") as err:
        certify_instance(params, 1)
    assert err.value.n_index == 1
