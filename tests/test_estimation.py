"""Tests for record scans, exponent estimation, and exclusivity reports."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction
from math import isqrt

import pytest
from mpmath import mp

from subdioph import construction as con
from subdioph import estimation as est
from subdioph import exact
from subdioph.angles import PrecisionContext
from subdioph.enumeration import (
    EXACT_LINES,
    EXACT_PLUECKER,
    EnumSpec,
    enumerate_subspaces,
    exact_strategy,
)
from subdioph.errors import (
    InsufficientRecordsError,
    IrrationalityViolationError,
    ParameterError,
    StrategyMismatchError,
    SubdiophError,
)
from embedded_lines import embedded_line_records


def fibonacci_lines(hmax2):
    """Independent oracle: (0,1) then consecutive Fibonacci pairs by height."""
    out = [(0, 1)]
    a, b = 1, 1
    while a * a + b * b <= hmax2:
        out.append((a, b))
        a, b = b, a + b
    return out


@pytest.fixture(scope="module")
def golden_records():
    return est.scan_line_records(est.golden_line_target(), 10**8)


@pytest.fixture(scope="module")
def finite_params():
    return con.ConstructionParams.create(ell=1, beta=Fraction(3), seed=0)


class TestQuadraticValue:
    def test_sign_cases(self):
        # exact sign of m + n sqrt(d), as the quadratic line engine compares
        sign = est._surd_sign
        assert sign(1, 1, 5) == 1
        assert sign(-1, -1, 5) == -1
        assert sign(0, 0, 5) == 0
        assert sign(7, 0, 5) == 1
        assert sign(0, -3, 5) == -1
        # 9 - 4 sqrt(5) > 0 because 81 > 80
        assert sign(9, -4, 5) == 1
        # 2 - sqrt(5) < 0 because 4 < 5
        assert sign(2, -1, 5) == -1
        # -2 + sqrt(5) > 0
        assert sign(-2, 1, 5) == 1
        # -9 + 4 sqrt(5) < 0
        assert sign(-9, 4, 5) == -1


class TestTargets:
    def test_rational_bracket(self):
        t = est.RationalLineTarget(Fraction(2, 5), Fraction(1, 125))
        assert t.slope_bracket() == (Fraction(2, 5), Fraction(2, 5) + Fraction(1, 125))
        with pytest.raises(ParameterError):
            est.RationalLineTarget(Fraction(1), Fraction(-1))

    def test_quadratic_validation(self):
        with pytest.raises(ParameterError):
            est.QuadraticLineTarget(Fraction(1), Fraction(0), 5)
        with pytest.raises(ParameterError):
            est.QuadraticLineTarget(Fraction(1), Fraction(1), 9)
        with pytest.raises(ParameterError):
            est.QuadraticLineTarget(Fraction(1), Fraction(1), 1)

    def test_instance_target(self, finite_params):
        target = est.line_target_for_instance(finite_params, height_squared_max=10**8)
        assert target.value.denominator == 5**27
        # seed-0 digit prefix 2, 3, 3, 2 at exponents 1, 3, 9, 27
        expected = (
            Fraction(2, 5) + Fraction(3, 125) + Fraction(3, 5**9) + Fraction(2, 5**27)
        )
        assert target.value == expected
        assert target.tail_upper == Fraction(6, 5**81)
        # the bracket must stay far below the candidate margin over the range
        assert target.tail_upper * 10**4 < Fraction(1, 10**6)

    @pytest.mark.parametrize("ell, beta", [(1, Fraction(3)), (2, Fraction(5, 2)), (2, None)])
    @pytest.mark.parametrize("start", [0, 1, 3])
    def test_series_depth_is_least_from_start(self, ell, beta, start):
        variant = con.FINITE if beta is not None else con.INFINITE
        params = con.ConstructionParams.create(ell, beta, seed=0, variant=variant)
        for h2 in (2, 10**4, 10**12):
            bound = Fraction(1, (isqrt(h2) + 1) << 64)
            depth = est.series_depth(params, h2, start)
            assert depth >= start and con.tail_bound(params, depth) <= bound
            assert depth == start or con.tail_bound(params, depth - 1) > bound

    @pytest.mark.parametrize("beta", [Fraction(3), Fraction(11, 4), None])
    def test_instance_target_builds_one_exponent_schedule(self, monkeypatch, beta):
        """series_depth and the tail bound read single exponents; only the
        generators' digit table builds a schedule."""
        variant = con.FINITE if beta is not None else con.INFINITE
        params = con.ConstructionParams.create(1, beta, seed=0, variant=variant)
        want = est.line_target_for_instance(params, 10**12)
        calls = []
        term_exponents = con.term_exponents
        monkeypatch.setattr(con, "term_exponents", lambda *a: calls.append(a) or term_exponents(*a))
        assert est.line_target_for_instance(params, 10**12) == want
        assert len(calls) == 1

    def test_instance_target_requires_line(self):
        p2 = con.ConstructionParams.create(ell=2, beta=Fraction(5, 2), seed=0)
        with pytest.raises(ParameterError):
            est.line_target_for_instance(p2, height_squared_max=100)
        with pytest.raises(TypeError):
            est.line_target_for_instance(
                con.ConstructionParams.create(ell=1, beta=Fraction(3), seed=0)
            )


class TestRecordHelpers:
    def _rec(self, h2, lo, hi):
        sub = exact.RationalSubspace.from_basis([[1], [h2]])
        return est.ApproximationRecord(sub, h2, lo, hi, 1)

    def test_validate_catches_violations(self):
        good = [self._rec(2, 0.1, 0.2), self._rec(5, 0.01, 0.02)]
        est.validate_record_list(good)
        with pytest.raises(SubdiophError):
            est.validate_record_list([self._rec(2, 0.3, 0.2)])
        with pytest.raises(SubdiophError):
            est.validate_record_list([self._rec(5, 0.1, 0.2), self._rec(2, 0.01, 0.02)])
        with pytest.raises(SubdiophError):
            est.validate_record_list([self._rec(2, 0.01, 0.02), self._rec(5, 0.1, 0.2)])

    def test_widen_clamps(self):
        rec = self._rec(2, 0.001, 0.002)
        wide = est.widen_records([rec], 0.01)[0]
        assert wide.psi_lo == 0.0
        assert abs(wide.psi_hi - 0.012) < 1e-15
        with pytest.raises(ParameterError):
            est.widen_records([rec], -0.1)

    def test_widen_rounds_outward(self):
        """In floats 0.1 + 0.7 falls below the exact sum and 0.8 - 0.1 above
        the exact difference; the widened ends must still hold them."""
        up = est.widen_records([self._rec(2, 0.05, 0.1)], 0.7)[0]
        assert Fraction(up.psi_hi) >= Fraction(0.1) + Fraction(0.7)
        down = est.widen_records([self._rec(2, 0.8, 0.9)], 0.1)[0]
        assert Fraction(down.psi_lo) <= Fraction(0.8) - Fraction(0.1)


class TestGoldenScan:
    def test_records_are_fibonacci(self, golden_records):
        coords = [r.subspace.pluecker.coords for r in golden_records]
        assert coords == fibonacci_lines(10**8)

    def test_record_list_shape(self, golden_records):
        est.validate_record_list(golden_records)
        for rec in golden_records:
            assert rec.j_index == 1
            assert rec.source == est.SOURCE_ENUMERATED
            assert rec.psi_hi - rec.psi_lo <= 1e-12 * rec.psi_hi + 1e-300

    def test_pinned_small_record(self, golden_records):
        rec = next(r for r in golden_records if r.height_squared == 2)
        with mp.workprec(200):
            phi = (1 + mp.sqrt(5)) / 2
            ref = float(mp.sqrt((2 - phi) / (2 * (2 + phi))))
        assert abs(rec.psi_hi - ref) < 1e-12 * ref

    def test_estimate_in_expected_range(self, golden_records):
        e = est.estimate_exponent(golden_records)
        assert 1.8 <= e.mu_hat <= 2.2
        assert e.window[1] == golden_records[-1].height_squared
        assert len(e.per_record) == len(golden_records) - 1  # (0,1) excluded

    def test_zone_parameter_does_not_change_records(self):
        golden = est.golden_line_target()
        a = est.scan_line_records(golden, 10**4)
        b = est.scan_line_records(golden, 10**4, zone=2)
        assert [r.subspace for r in a] == [r.subspace for r in b]
        assert [r.psi_hi for r in a] == [r.psi_hi for r in b]


class TestRationalScan:
    def test_matches_generic_scan(self):
        value = Fraction(424, 1000)
        fast = est.scan_line_records(est.RationalLineTarget(value), 300)
        spec = EnumSpec(n=2, e=1, height_squared_max=300, strategy=EXACT_LINES)
        generic = est.scan_records([[1], [value]], spec)
        assert [r.subspace for r in fast] == [r.subspace for r in generic]
        assert [r.height_squared for r in fast] == [r.height_squared for r in generic]
        for a, b in zip(fast, generic):
            assert abs(a.psi_hi - b.psi_hi) < 1e-9 * a.psi_hi

    def test_exact_meeting_raises(self):
        with pytest.raises(IrrationalityViolationError) as info:
            est.scan_line_records(est.RationalLineTarget(Fraction(1, 2)), 10)
        assert info.value.vector == (2, 1)

    def test_tail_interval_covers_true_slope(self):
        # the true slope sits anywhere in [value, value + tail]; push it to
        # the top of the bracket and check the reported interval still covers
        value, tail = Fraction(2, 5), Fraction(1, 10**9)
        wide = est.scan_line_records(est.RationalLineTarget(value, tail), 2000)
        sharp = est.scan_line_records(est.RationalLineTarget(value + tail), 2000)
        sharp_by_h2 = {r.height_squared: r for r in sharp}
        for rec in wide:
            mate = sharp_by_h2.get(rec.height_squared)
            if mate is not None:
                assert rec.psi_lo <= mate.psi_hi
                assert rec.psi_hi >= mate.psi_lo

    def test_too_wide_bracket_rejected(self):
        target = est.RationalLineTarget(Fraction(2, 5), Fraction(1, 100))
        with pytest.raises(ParameterError):
            est.scan_line_records(target, 10**6)


class TestEmbeddedScan:
    def test_images_match_plane_records(self):
        golden = est.golden_line_target()
        plane = est.scan_line_records(golden, 2 * 10**4)
        amb = est.scan_records(golden, EnumSpec(3, 1, 2 * 10**4))
        assert [r.height_squared for r in plane] == [r.height_squared for r in amb]
        for p, a in zip(plane, amb):
            x1, x2 = p.subspace.pluecker.coords
            assert a.subspace.pluecker.coords == (x1, x2, 0)

    def test_estimates_agree(self):
        golden = est.golden_line_target()
        mu2 = est.estimate_exponent(est.scan_line_records(golden, 10**5)).mu_hat
        mu3 = est.estimate_exponent(
            est.scan_records(golden, EnumSpec(3, 1, 10**5))
        ).mu_hat
        assert abs(mu3 - mu2) < 1e-9

    def test_axes_variant(self):
        golden = est.golden_line_target()
        amb = embedded_line_records(golden, 3, 10**4, axes=(0, 2))
        for rec in amb:
            coords = rec.subspace.pluecker.coords
            assert coords[1] == 0

    def test_parameter_validation(self):
        golden = est.golden_line_target()
        with pytest.raises(ParameterError):
            embedded_line_records(golden, 3, 10**4, axes=(1, 0))
        with pytest.raises(ParameterError):
            embedded_line_records(golden, 3, 10**4, axes=(0, 3))

    def test_plane_passthrough(self):
        golden = est.golden_line_target()
        a = est.scan_line_records(golden, 10**4)
        b = est.scan_records(golden, EnumSpec(2, 1, 10**4))
        assert [r.subspace for r in a] == [r.subspace for r in b]


def _hex_rows(records):
    return [
        (r.subspace.pluecker.coords, r.height_squared, r.psi_lo.hex(), r.psi_hi.hex())
        for r in records
    ]


class TestLineGate:
    """Line targets take the line engine over every unsharded window of
    lines in R^n, and the records there are the plane records, embedded."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_scan_records_over_lines_in_n_space(self, n):
        golden = est.golden_line_target()
        records = est.scan_records(golden, EnumSpec(n, 1, 10**6))
        assert _hex_rows(records) == _hex_rows(
            embedded_line_records(golden, n, 10**6)
        )

    def test_irrationality_scan_in_three_space_embeds_the_plane_witness(self):
        golden = est.golden_line_target()
        plane = est.irrationality_scan(golden, EnumSpec(2, 1, 10**6))
        space = est.irrationality_scan(golden, EnumSpec(3, 1, 10**6))
        x1, x2 = plane.witness.pluecker.coords
        assert space.witness.pluecker.coords == (x1, x2, 0)
        assert space.scanned == plane.scanned
        assert space.min_psi_lower.hex() == plane.min_psi_lower.hex()
        assert space.ok

    def test_irrationality_scan_in_four_space_embeds_the_offender(self):
        meeting = est.RationalLineTarget(Fraction(3, 5))
        plane = est.irrationality_scan(meeting, EnumSpec(2, 1, 100))
        space = est.irrationality_scan(meeting, EnumSpec(4, 1, 100))
        assert space.offender.pluecker.coords == (5, 3, 0, 0)
        assert (space.scanned, space.ok) == (plane.scanned, False)

    @pytest.mark.parametrize(
        "spec",
        [EnumSpec(2, 1, 10**4, shard_count=2), EnumSpec(3, 1, 10**4, shard_count=3,
                                                     shard_index=1),
         EnumSpec(3, 2, 10**4), EnumSpec(4, 2, 100, EXACT_PLUECKER)],
        ids=["plane-shard", "space-shard", "hyperplanes", "planes-r4"],
    )
    @pytest.mark.parametrize("scan", [est.scan_records, est.irrationality_scan])
    def test_refuses_a_shard_or_a_window_of_higher_subspaces(self, scan, spec):
        with pytest.raises(StrategyMismatchError):
            scan(est.golden_line_target(), spec)

    def test_the_census_strategy_picks_no_engine(self):
        golden = est.golden_line_target()
        default = _hex_rows(est.scan_records(golden, EnumSpec(3, 1, 10**4)))
        echelon = est.scan_records(golden, EnumSpec(3, 1, 10**4, "exact-echelon"))
        assert _hex_rows(echelon) == default


class TestGenericScan:
    def test_iterable_input_and_order_independence(self):
        value = Fraction(424, 1000)
        spec = EnumSpec(n=2, e=1, height_squared_max=200, strategy=EXACT_LINES)
        subs = list(enumerate_subspaces(spec))
        random.Random(7).shuffle(subs)
        a = est.scan_records([[1], [value]], spec)
        b = est.scan_records([[1], [value]], subs)
        assert [r.subspace for r in a] == [r.subspace for r in b]
        assert [r.psi_hi for r in a] == [r.psi_hi for r in b]

    def test_repeated_subspace_in_chained_shards(self):
        # shards may overlap; a repeated subspace must not change the records
        spec = EnumSpec(n=3, e=2, height_squared_max=14, strategy=EXACT_LINES)
        target = [[1, 0], [0, 1], [Fraction(1, 3), Fraction(1, 7)]]
        subs = list(enumerate_subspaces(spec))
        expected = est.scan_records(target, spec, j_index=2)
        repeat = expected[-1].subspace
        chained = itertools.chain(subs[:5], [repeat], subs[5:])
        records = est.scan_records(target, chained, j_index=2)
        assert [r.subspace for r in records] == [r.subspace for r in expected]
        assert [(r.psi_lo, r.psi_hi) for r in records] == [
            (r.psi_lo, r.psi_hi) for r in expected
        ]

    def test_rational_plane_meeting_raises(self):
        spec = EnumSpec(n=3, e=2, height_squared_max=3, strategy=EXACT_LINES)
        target = [[1, 0], [0, 1], [0, 0]]
        with pytest.raises(IrrationalityViolationError) as info:
            est.scan_records(target, spec, j_index=2)
        assert info.value.subspace.pluecker.coords == (1, 0, 0)

    def test_plane_records_monotone(self):
        spec = EnumSpec(n=3, e=2, height_squared_max=14, strategy=EXACT_LINES)
        target = [[1, 0], [0, 1], [Fraction(1, 3), Fraction(1, 7)]]
        records = est.scan_records(target, spec, j_index=2)
        assert records
        est.validate_record_list(records)

    def test_j_index_validation(self):
        spec = EnumSpec(n=3, e=2, height_squared_max=3, strategy=EXACT_LINES)
        target = [[1, 0], [0, 1], [Fraction(1, 3), Fraction(1, 7)]]
        with pytest.raises(ParameterError):
            est.scan_records(target, spec, j_index=3)
        with pytest.raises(StrategyMismatchError):
            est.scan_records(est.golden_line_target(), spec)


class TestEstimator:
    def _line(self, x1, x2):
        return exact.RationalSubspace.from_basis([[x1], [x2]])

    def test_synthetic_two_point(self):
        records = [
            est.ApproximationRecord(self._line(1, 2), 4, 0.25, 0.25, 1),
            est.ApproximationRecord(self._line(1, 4), 16, 1 / 16, 1 / 16, 1),
        ]
        e = est.estimate_exponent(records)
        assert abs(e.per_record[0] - 2.0) < 1e-9
        assert abs(e.per_record[1] - 2.0) < 1e-9
        assert abs(e.mu_hat - 2.0) < 1e-9

    def test_height_one_excluded_and_insufficient(self):
        records = [
            est.ApproximationRecord(self._line(0, 1), 1, 0.5, 0.5, 1),
            est.ApproximationRecord(self._line(1, 2), 4, 0.25, 0.25, 1),
        ]
        with pytest.raises(InsufficientRecordsError):
            est.estimate_exponent(records)
        with pytest.raises(InsufficientRecordsError):
            est.estimate_exponent([])

    def test_tail_window(self):
        records = [
            est.ApproximationRecord(self._line(1, 2), 4, 0.25, 0.25, 1),
            est.ApproximationRecord(self._line(1, 4), 16, 1 / 16, 1 / 16, 1),
            est.ApproximationRecord(self._line(1, 8), 64, 1 / 512, 1 / 512, 1),
        ]
        e = est.estimate_exponent(records)
        # betas = (2, 2, 3); the tail of length 2 gives max(2, 3)
        assert abs(e.mu_hat - 3.0) < 1e-9
        assert e.window == (16, 64)
        assert len(e.diagnostics["secant_slopes"]) == 2

    def test_scale_invariance(self):
        spec = EnumSpec(n=2, e=1, height_squared_max=150, strategy=EXACT_LINES)
        base = [[1], [Fraction(424, 1000)]]
        scaled = [[7], [7 * Fraction(424, 1000)]]
        e1 = est.estimate_exponent(est.scan_records(base, spec))
        e2 = est.estimate_exponent(est.scan_records(scaled, spec))
        assert e1.mu_hat == e2.mu_hat

    def test_zero_sine_raises(self):
        records = [
            est.ApproximationRecord(self._line(1, 2), 4, 0.0, 0.25, 1),
            est.ApproximationRecord(self._line(1, 4), 16, 0.0, 0.0, 1),
        ]
        with pytest.raises(IrrationalityViolationError):
            est.estimate_exponent(records)

    @pytest.mark.parametrize("case", ["golden-1e300", "l1-b3-1e12"])
    def test_log_once_keeps_the_two_log_floats(self, case):
        """mu_hat, per_record and the secant slopes take each log once, and
        keep the doubles of the formulas that took four logs per secant."""
        if case == "golden-1e300":
            records = est.scan_line_records(est.golden_line_target(), 10**300)
        else:
            params = con.ConstructionParams.create(1, Fraction(3), seed=0)
            records = est.instance_records(params, EnumSpec(2, 1, 10**12))
        usable = [r for r in records if r.height_squared > 1]
        betas = [-2.0 * math.log(r.psi_hi) / math.log(r.height_squared) for r in usable]
        secants = [
            -2.0 * (math.log(b.psi_hi) - math.log(a.psi_hi))
            / (math.log(b.height_squared) - math.log(a.height_squared))
            for a, b in zip(usable, usable[1:])
        ]
        e = est.estimate_exponent(records)
        tail = (len(betas) + 1) // 2
        assert e.mu_hat.hex() == max(betas[-tail:]).hex()
        assert [x.hex() for x in e.per_record] == [x.hex() for x in betas]
        assert [x.hex() for x in e.diagnostics["secant_slopes"]] == [x.hex() for x in secants]

    def test_summary_keys(self):
        records = [
            est.ApproximationRecord(self._line(1, 2), 4, 0.25, 0.25, 1),
            est.ApproximationRecord(self._line(1, 4), 16, 1 / 16, 1 / 16, 1),
        ]
        s = est.estimate_exponent(records, burn_in=1).summary()
        assert set(s) == {"muHat", "recordCount", "window", "burnIn"}
        assert s["burnIn"] == 1
        json.dumps(s)


class TestCertificationRecords:
    def test_sources_and_estimate(self, finite_params):
        cert = con.certify_instance(finite_params, nmax=2)
        records = est.records_from_certification(cert)
        assert [r.source for r in records] == ["constructed:1", "constructed:2"]
        assert [r.height_squared for r in records] == [
            rec.height_squared for rec in cert.records
        ]
        assert all(r.j_index == 1 for r in records)
        e = est.estimate_exponent(records)
        assert 2.5 < e.mu_hat < 3.2

    @pytest.mark.parametrize(
        "ell, beta", [(1, Fraction(3)), (2, Fraction(5, 2))], ids=["l1-b3", "l2-b5_2"]
    )
    def test_subspaces_are_the_certified_convergents(self, ell, beta):
        params = con.ConstructionParams.create(ell, beta, seed=0)
        records = est.records_from_certification(con.certify_instance(params, 2))
        assert [r.subspace for r in records] == [
            con.build_convergent(params, n_index).subspace for n_index in (1, 2)
        ]


@pytest.mark.parametrize(
    "ell, beta, nmax", [(1, Fraction(3), 5), (3, Fraction(9, 4), 2)], ids=["l1-b3-n5", "l3-b9_4-n2"]
)
def test_certificate_records_keep_their_exponents(ell, beta, nmax):
    """Each record keeps its certificate's dyadic bracket, and the exponent
    reads its log: at l=1 N=5 (psi near 4.8e-510) and at l=3 N=2 (psi_3
    near 2.5e-1017) the doubles are [0.0, 5e-324], whose log gave 1.903
    and 0.723 where the certificates read 2.998 and 2.272."""
    cert = con.certify_instance(con.ConstructionParams.create(ell, beta, seed=0), nmax)
    records = est.records_from_certification(cert)
    assert [r.psi_bracket for r in records] == [rec.psi_bracket for rec in cert.records]
    assert records[-1].psi_hi < 1e-300
    betas = est.estimate_exponent(records).per_record
    want = [rec.local_exponent for rec in cert.records if rec.height_squared > 1]
    assert len(betas) == len(want) == nmax
    assert all(abs(b - w) <= 1e-12 for b, w in zip(betas, want)), (betas, want)


def test_widened_records_widen_their_dyadic_bracket():
    """widen_records moves a dyadic bracket's ends outward by at least tau,
    as it moves the doubles, and floors a lower end at 0: the last record
    here has psi far below tau."""
    cert = con.certify_instance(con.ConstructionParams.create(1, Fraction(3), seed=0), 5)
    records = est.records_from_certification(cert)
    tau = 2.0**-30

    def value(end):
        return end[0] * Fraction(2) ** end[1]

    widened = est.widen_records(records, tau)
    for rec, wide in zip(records, widened):
        (lo, hi), (w_lo, w_hi) = rec.psi_bracket, wide.psi_bracket
        assert value(w_hi) >= value(hi) + Fraction(tau)
        assert value(w_lo) <= max(0, value(lo) - Fraction(tau))
        assert (wide.psi_lo, wide.psi_hi) == (max(0.0, math.nextafter(rec.psi_lo - tau, 0.0)),
                                               math.nextafter(rec.psi_hi + tau, math.inf))
    assert widened[0].psi_bracket[0][0] > 0 and widened[-1].psi_bracket[0] == (0, 0)


def test_exclusivity_reads_one_digit_table(monkeypatch):
    """The records and the height ratio deviations of one check share a
    digit table: at l = 1 the line target's generators and the convergents
    read it, at l = 2 the scanned generators and the convergents."""
    tables = []
    init = con._DigitTable.__init__

    def counted(self, *args):
        tables.append(self)
        init(self, *args)

    monkeypatch.setattr(con._DigitTable, "__init__", counted)
    for ell, beta, spec in ((1, Fraction(3), EnumSpec(2, 1, 10**6, EXACT_LINES)),
                            (2, Fraction(5, 2), EnumSpec(4, 2, 8, EXACT_PLUECKER))):
        del tables[:]
        report = est.exclusivity_check(con.ConstructionParams.create(ell, beta, seed=0), 3, spec)
        assert len(report.records) >= 1 and len(tables) == 1


def test_each_call_reads_every_digit_once(monkeypatch):
    """height_ratio_deviations and records_from_certification each build
    one digit table for all their convergents (and generators), as
    certify_instance does: at l=1 beta=3, nmax 4, 7 and 5 digit reads."""
    params = con.ConstructionParams.create(1, Fraction(3), seed=0)
    cert = con.certify_instance(params, 4)
    reads = []
    stream_for = con.stream_for

    class Counting:
        def __init__(self, stream):
            self.stream = stream

        def digit(self, i, j, k):
            reads.append((i, j, k))
            return self.stream.digit(i, j, k)

    monkeypatch.setattr(con, "stream_for", lambda p: Counting(stream_for(p)))
    devs = est.height_ratio_deviations(params, 4)
    assert len(reads) == len(set(reads)) == 7
    assert [dev for _conv, dev in devs] == [rec.ratio_deviation for rec in cert.records]
    del reads[:]
    records = est.records_from_certification(cert)
    assert len(reads) == len(set(reads)) == 5
    assert [r.subspace for r in records] == [
        con.build_convergent(params, n_index).subspace for n_index in range(1, 5)
    ]


class TestDeviations:
    def test_finite_deviations_shrink(self, finite_params):
        devs = est.height_ratio_deviations(finite_params, 3)
        values = [dev for _conv, dev in devs]
        assert values[0] < 1e-6
        assert values[1] < values[0]
        assert devs[0][0].subspace.pluecker.coords == (125, 53)

    @pytest.mark.parametrize(
        "ell, beta, nmax", [(1, 3, 4), (2, Fraction(5, 2), 2)], ids=["l1-b3", "l2-b5_2"]
    )
    def test_deviations_match_the_certificate(self, ell, beta, nmax):
        """Both come from the exact squared ratio, so deviations far below
        the working precision keep their digits (about 1.5e-170 at l=1,
        N=4 and 1.9e-216 at l=2, N=2) instead of cancelling to noise or 0."""
        params = con.ConstructionParams.create(ell=ell, beta=beta, seed=0)
        cert = con.certify_instance(params, nmax)
        devs = est.height_ratio_deviations(params, nmax)
        assert [dev for _conv, dev in devs] == [rec.ratio_deviation for rec in cert.records]
        assert all(dev > 0 for _conv, dev in devs)

    def test_deviations_below_the_double_range_print_as_themselves(self):
        """At l=2 beta=3 seed 0 the deviations of N=2 and N=3 (about 2.4e-373
        and 1.5e-2235) lie below the double range.  The certificate rows and
        the exclusivity report print them in the shape of a double's .6e
        text, not as 0; N=1 prints exactly as its double does."""
        params = con.ConstructionParams.create(ell=2, beta=Fraction(3), seed=0)
        cert = con.certify_instance(params, 3)
        rows = [r["ratio_deviation"] for r in cert.as_records() if r["check"] == "quantities"]
        report = est.exclusivity_check(params, 3, EnumSpec(4, 2, 1, EXACT_PLUECKER))
        assert report.as_dict()["deviations"] == rows
        assert rows[0] == f"{float(cert.records[0].ratio_deviation):.6e}"
        for text, rec in zip(rows[1:], cert.records[1:]):
            assert re.fullmatch(r"\d\.\d{6}e-\d{3,}", text)
            assert float(rec.ratio_deviation) == 0.0 < rec.ratio_deviation
            assert abs(mp.mpf(text) / rec.ratio_deviation - 1) < 1e-6

    def test_infinite_first_deviation(self):
        ipar = con.ConstructionParams.create(
            ell=1, beta=None, seed=0, variant=con.INFINITE
        )
        devs = est.height_ratio_deviations(ipar, 2)
        assert 0.01 < devs[0][1] < 0.02
        assert devs[1][1] < 1e-10


class TestExclusivity:
    def test_finite_midsize(self, finite_params):
        spec = EnumSpec(n=2, e=1, height_squared_max=10**5, strategy=EXACT_LINES)
        rep = est.exclusivity_check(finite_params, nmax=4, spec=spec)
        assert rep.burn_in_index == 1
        assert rep.burn_in_height_squared == 18434
        assert rep.ok
        assert not rep.interlopers
        matched_n = {n for _pos, n in rep.matched}
        assert 1 in matched_n
        pos = next(pos for pos, n in rep.matched if n == 1)
        assert rep.records[pos].subspace.pluecker.coords == (125, 53)
        json.dumps(rep.as_dict())

    def test_wrong_shape_rejected(self, finite_params):
        spec = EnumSpec(n=3, e=1, height_squared_max=100, strategy=EXACT_LINES)
        with pytest.raises(ParameterError):
            est.exclusivity_check(finite_params, nmax=2, spec=spec)

    def test_no_anchor_is_honest(self, finite_params):
        # window ends before the first convergent beyond burn-in
        spec = EnumSpec(n=2, e=1, height_squared_max=500, strategy=EXACT_LINES)
        rep = est.exclusivity_check(finite_params, nmax=2, spec=spec)
        assert rep.band is None
        assert not rep.ok

    def test_generic_path_matches_fast(self, finite_params):
        spec = EnumSpec(n=2, e=1, height_squared_max=500, strategy=EXACT_LINES)
        fast = est.exclusivity_check(finite_params, nmax=2, spec=spec)
        slow = est.scan_records(
            con.build_generators(finite_params, 4).real_basis(), spec
        )
        assert [r.subspace for r in fast.records] == [r.subspace for r in slow]

    def test_inflated_band_flags_interlopers(self, finite_params):
        # with an absurdly wide band, ordinary continued-fraction records
        # beyond the first convergent must be flagged, proving the filter runs
        spec = EnumSpec(n=2, e=1, height_squared_max=10**8, strategy=EXACT_LINES)
        rep = est.exclusivity_check(
            finite_params, nmax=4, spec=spec, band_factor=1e12
        )
        assert rep.interlopers
        assert not rep.ok

    def test_infinite_windows(self):
        ipar = con.ConstructionParams.create(
            ell=1, beta=None, seed=0, variant=con.INFINITE
        )
        spec = EnumSpec(n=2, e=1, height_squared_max=13000, strategy=EXACT_LINES)
        rep = est.exclusivity_check(ipar, nmax=2, spec=spec)
        assert rep.ok
        assert {n for _pos, n in rep.matched} == {1, 2}
        assert rep.products == ()
        assert rep.band is None

    def test_infinite_convergent_above_the_window_is_not_judged(self):
        """N = 3 lies above H^2 <= 13000: the report still carries its
        deviation, and only N = 1 and N = 2 are judged."""
        ipar = con.ConstructionParams.create(
            ell=1, beta=None, seed=0, variant=con.INFINITE
        )
        spec = EnumSpec(n=2, e=1, height_squared_max=13000, strategy=EXACT_LINES)
        rep = est.exclusivity_check(ipar, nmax=3, spec=spec)
        assert rep.as_dict()["matched"] == [[3, 1], [10, 2]]
        assert rep.as_dict()["deviations"] == ["1.140879e-02", "6.134254e-14", "3.365073e-123"]
        assert rep.ok and not rep.interlopers

    @staticmethod
    def infinite_report_with(monkeypatch, edit):
        """The infinite seed-0 report at H^2 <= 13000 (convergents at
        positions 3 and 10) over the records that edit makes of them."""
        ipar = con.ConstructionParams.create(ell=1, beta=None, seed=0, variant=con.INFINITE)
        spec = EnumSpec(n=2, e=1, height_squared_max=13000, strategy=EXACT_LINES)
        records = edit(est.instance_records(ipar, spec))
        monkeypatch.setattr(est, "instance_records", lambda *_args, **_kw: records)
        return est.exclusivity_check(ipar, nmax=2, spec=spec)

    def test_infinite_window_without_a_record_fails(self, monkeypatch):
        """Convergent 2 (H^2 = 9697) gone: its +-25% window holds no record,
        which fails the report but names no interloper."""
        rep = self.infinite_report_with(monkeypatch, lambda recs: recs[:10])
        assert rep.as_dict()["matched"] == [[3, 1]]
        assert not rep.ok
        assert rep.interlopers == ()

    def test_infinite_window_led_by_another_record_names_it(self, monkeypatch):
        """A record at H^2 = 11642, inside convergent 2's window, with a
        smaller sine than the convergent is the window's interloper."""

        def add_rival(recs):
            rival = dataclasses.replace(
                recs[10],
                subspace=exact.RationalSubspace.from_basis([[89], [61]]),
                height_squared=89**2 + 61**2,
                psi_lo=1e-15,
                psi_hi=2e-15,
            )
            return recs + [rival]

        rep = self.infinite_report_with(monkeypatch, add_rival)
        assert rep.as_dict()["matched"] == [[3, 1], [10, 2]]
        assert not rep.ok
        assert rep.interlopers == (11,)

    # sha256 of json.dumps(report.as_dict()) for nmax 3 at H^2 <= 14; the
    # same bytes as scanning the generators truncated at depth nmax + 2
    PLANE_REPORT_SHA256 = {
        ("5/2", 0): "ace2529f3584fe61a60b6b3631ff12c13fb469849398096d9f7a8f483faa50c0",
        ("5/2", 1): "ac2d926c1b8f7c6f52adb3cb85c7f44a371644cc8fee3a598e43adcc572bc347",
        ("3", 0): "c6ddccbc4cec0ea1964b39288e31030bbfd0a9bdb00f7eff643ab61758497e52",
        ("3", 1): "62d34ad5dbf358f7edded53943603308d5d833bd8c1e2240a31e3a39b282133f",
    }

    @pytest.mark.parametrize(
        "beta, seed", sorted(PLANE_REPORT_SHA256),
        ids=lambda v: v.replace("/", "_") if isinstance(v, str) else f"seed{v}",
    )
    def test_plane_reports_keep_their_bytes(self, beta, seed):
        params = con.ConstructionParams.create(2, Fraction(beta), seed=seed)
        rep = est.exclusivity_check(params, 3, EnumSpec(4, 2, 14, EXACT_PLUECKER))
        digest = hashlib.sha256(json.dumps(rep.as_dict()).encode()).hexdigest()
        assert digest == self.PLANE_REPORT_SHA256[beta, seed]


class TestInstanceRecords:
    def test_a_line_instance_scans_its_line(self, finite_params):
        spec = EnumSpec(n=3, e=1, height_squared_max=10**6, strategy=EXACT_LINES)
        target = est.line_target_for_instance(finite_params, height_squared_max=10**6)
        assert est.instance_records(finite_params, spec) == est.scan_records(target, spec)

    def test_a_line_instance_refuses_a_precision_context(self, finite_params):
        spec = EnumSpec(n=2, e=1, height_squared_max=100, strategy=EXACT_LINES)
        with pytest.raises(ParameterError, match="no precision"):
            est.instance_records(finite_params, spec, ctx=PrecisionContext(bits=64))

    @pytest.mark.parametrize("ell, n, e", [(1, 2, 2), (2, 4, 1), (2, 5, 2), (2, 3, 2)])
    def test_the_window_must_fit_the_instance(self, ell, n, e):
        params = con.ConstructionParams.create(ell, Fraction(3), seed=0)
        spec = EnumSpec(n, e, 5, exact_strategy(n, e))
        with pytest.raises(ParameterError, match="the window must hold"):
            est.instance_records(params, spec)

    def test_plane_records_are_widened_by_the_truncation_slack(self):
        params = con.ConstructionParams.create(2, Fraction(3), seed=1)
        spec = EnumSpec(4, 2, 14, EXACT_PLUECKER)
        gens = con.build_generators(params, est.series_depth(params, 14, 1))
        truncated = est.scan_records(gens.real_basis(), spec, j_index=1)
        records = est.instance_records(params, spec, j_index=1)
        assert records == est.widen_records(truncated, est._float_up(gens.angle_slack))
        assert all(r.psi_lo < t.psi_lo and r.psi_hi > t.psi_hi
                   for r, t in zip(records, truncated))

    def test_exclusivity_reads_instance_records_at_the_default_depth(self):
        params = con.ConstructionParams.create(2, Fraction(5, 2), seed=0)
        spec = EnumSpec(4, 2, 8, EXACT_PLUECKER)
        report = est.exclusivity_check(params, 2, spec)
        assert list(report.records) == est.instance_records(params, spec)


class TestIrrationality:
    def test_fast_golden(self):
        spec = EnumSpec(n=2, e=1, height_squared_max=400, strategy=EXACT_LINES)
        rep = est.irrationality_scan(est.golden_line_target(), spec)
        assert rep.ok and rep.certified_exhaustive
        assert rep.min_psi_lower > 0
        assert rep.witness.pluecker.coords == (8, 13)
        json.dumps(rep.as_dict())

    def test_fast_meeting_offender(self):
        spec = EnumSpec(n=2, e=1, height_squared_max=9, strategy=EXACT_LINES)
        rep = est.irrationality_scan(est.RationalLineTarget(Fraction(0)), spec)
        assert not rep.ok
        assert rep.offender.pluecker.coords == (1, 0)
        assert rep.min_psi_lower == 0.0

    def test_line_target_rejects_j_index(self):
        spec = EnumSpec(n=2, e=1, height_squared_max=400, strategy=EXACT_LINES)
        with pytest.raises(ParameterError):
            est.irrationality_scan(est.golden_line_target(), spec, j_index=3)
        with pytest.raises(ParameterError):
            est.scan_records(est.golden_line_target(), spec, j_index=3)

    def test_generic_offender(self):
        spec = EnumSpec(n=2, e=1, height_squared_max=9, strategy=EXACT_LINES)
        rep = est.irrationality_scan([[1], [0]], spec)
        assert not rep.ok
        assert rep.offender.pluecker.coords == (1, 0)

    def test_generic_positive_witness(self):
        spec = EnumSpec(n=3, e=2, height_squared_max=6, strategy=EXACT_LINES)
        target = [[1, 0], [0, 1], [Fraction(1, 3), Fraction(1, 7)]]
        rep = est.irrationality_scan(target, spec, j_index=2)
        assert rep.ok
        assert rep.min_psi_lower > 0
        assert rep.scanned > 0

    def test_empty_window_raises(self):
        with pytest.raises(InsufficientRecordsError):
            est.irrationality_scan([[1], [Fraction(1, 3)]], [])
