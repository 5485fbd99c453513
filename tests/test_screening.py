"""Label-screened generic scans against an unscreened reference.

The reference below is the scan as it was before label screening: every
candidate gets an angle profile from angles_adaptive, in enumeration order;
records come from a sort by (h2, coords) and a sweep of running minima, and
the irrationality witness is the first strict minimum of lower endpoints.
The screened scans must report the same records and the same
IrrationalityReport, psi bounds compared as float hex.  Pairs with at
most two angles take their sines from their labels alone, as dyadic
brackets (angles._sine_mantissas); a pair-level oracle holds the
plane-pair brackets against angles_adaptive.
"""

import io
import itertools
import logging
import math
import random
import time
from fractions import Fraction
from itertools import groupby
from operator import itemgetter, mul
from unittest import mock

import pytest
from mpmath import mp

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from subdioph import angles as angles_module
from subdioph import cli, enumeration
from subdioph import estimation as est
from subdioph import exact
from subdioph.angles import (
    PrecisionContext,
    RealBasis,
    angles_adaptive,
    exact_relative_bits,
    plane_sine_at_least,
    _sine_mantissas,
)
from subdioph.construction import ConstructionParams, build_generators
from subdioph.enumeration import (
    EXACT_ECHELON,
    EXACT_LINES,
    EXACT_PLUECKER,
    EnumSpec,
    enumerate_subspaces,
)
from subdioph.errors import IrrationalityViolationError, SubdiophError

SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# unscreened reference


def reference_profiles(target, subs, j_index):
    """(sub, lo, hi) of every candidate in enumeration order."""
    if isinstance(target, RealBasis):
        basis = target
    elif any(isinstance(x, float) for row in target for x in row):
        basis = RealBasis.from_float(target)
    else:
        basis = RealBasis.from_exact(target)
    for scanned, sub in enumerate(subs, start=1):
        prof = angles_adaptive(basis, RealBasis.from_subspace(sub))
        if not prof.resolved[j_index - 1]:
            err = IrrationalityViolationError("unresolved")
            err.subspace, err.scanned = sub, scanned
            raise err
        yield sub, prof.lo[j_index - 1], prof.hi[j_index - 1]


def reference_records(target, subs, j_index):
    pool = [
        (sub.height_squared, sub.pluecker.coords, hi, lo)
        for sub, lo, hi in reference_profiles(target, subs, j_index)
    ]
    pool.sort(key=itemgetter(0, 1))
    raw = []
    for _h2, level in groupby(pool, key=itemgetter(0)):
        best = next(level)
        for row in level:
            if row[2] < best[2]:
                best = row
        if not raw or best[2] < raw[-1][2]:
            raw.append(best)
    return [
        (coords, h2, max(0.0, math.nextafter(float(lo), 0.0)).hex(),
         math.nextafter(float(hi), math.inf).hex())
        for h2, coords, hi, lo in raw
    ]


def reference_report(target, subs, j_index):
    try:
        min_lo = None
        scanned = 0
        for scanned, (sub, lo, _hi) in enumerate(
            reference_profiles(target, subs, j_index), start=1
        ):
            if min_lo is None or lo < min_lo:
                min_lo, witness = lo, sub
    except IrrationalityViolationError as err:
        return (err.scanned, 0.0.hex(), None, err.subspace.pluecker.coords, False)
    min_psi = max(0.0, math.nextafter(float(min_lo), 0.0))
    return (scanned, min_psi.hex(), witness.pluecker.coords, None, min_lo > 0)


# ---------------------------------------------------------------------------
# the screened scans in the same terms


def screened_records(target, subs, j_index):
    return [
        (r.subspace.pluecker.coords, r.height_squared, r.psi_lo.hex(), r.psi_hi.hex())
        for r in est.scan_records(target, subs, j_index=j_index)
    ]


def screened_report(target, subs, j_index):
    rep = est.irrationality_scan(target, subs, j_index=j_index)
    return (
        rep.scanned,
        rep.min_psi_lower.hex(),
        None if rep.witness is None else rep.witness.pluecker.coords,
        None if rep.offender is None else rep.offender.pluecker.coords,
        rep.ok,
    )


def outcome(scan, *args):
    """The scan's result, or the subspace and count of the error it raises."""
    try:
        return scan(*args)
    except IrrationalityViolationError as err:
        return ("raised", err.subspace.pluecker.coords, err.scanned)


def assert_same_scans(target, spec, j_index):
    subs = list(enumerate_subspaces(spec))
    assert outcome(screened_records, target, spec, j_index) == outcome(
        reference_records, target, subs, j_index
    )
    assert screened_report(target, spec, j_index) == reference_report(target, subs, j_index)


# ---------------------------------------------------------------------------
# targets

def random_entry(rng):
    return Fraction(rng.randint(-999, 999), rng.randint(1, 999))


def random_target(n, d, seed):
    """A full-rank n x d rational basis of large height: no small subspace
    contains it or, for d + e <= n, meets it."""
    rng = random.Random(seed)
    while True:
        rows = [[random_entry(rng) for _ in range(d)] for _ in range(n)]
        if exact.rank(rows) == d:
            return rows


def exact_targets(n, d):
    return st.integers(0, 2**32).map(lambda seed: random_target(n, d, seed))


@SETTINGS
@given(target=exact_targets(4, 2), j_index=st.sampled_from([1, 2]))
def test_planes_vs_planes_r4(target, j_index):
    assert_same_scans(target, EnumSpec(4, 2, 6, EXACT_PLUECKER), j_index)


@SETTINGS
@given(
    n=st.sampled_from([3, 4]),
    target_lines=st.booleans(),
    candidate_lines=st.booleans(),
    data=st.data(),
)
def test_lines_and_hyperplanes(n, target_lines, candidate_lines, data):
    d = 1 if target_lines else n - 1
    e = 1 if candidate_lines else n - 1
    # hyperplanes of R^4 against each other have t = 3: the mpmath path
    assume(min(d, e) <= 2)
    target = data.draw(exact_targets(n, d))
    j_index = data.draw(st.integers(1, min(d, e)))
    spec = EnumSpec(n, e, 14 if n == 3 else 6, EXACT_LINES)
    assert_same_scans(target, spec, j_index)


@SETTINGS
@given(target=exact_targets(4, 2))
def test_plane_target_vs_lines_r4(target):
    assert_same_scans(target, EnumSpec(4, 1, 9, EXACT_LINES), 1)


@SETTINGS
@given(target=exact_targets(4, 2), j_index=st.sampled_from([1, 2]))
def test_plane_target_vs_hyperplanes_r4(target, j_index):
    # d + e > n: the subspaces always meet, every pairing is 0
    assert_same_scans(target, EnumSpec(4, 3, 4, EXACT_LINES), j_index)


@SETTINGS
@given(
    shape=st.sampled_from([(4, 2, 2, EXACT_PLUECKER), (3, 1, 1, EXACT_LINES),
                           (3, 2, 1, EXACT_LINES), (4, 1, 2, EXACT_LINES)]),
    j_index=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_target_meeting_a_candidate(shape, j_index, data):
    n, e, d, strategy = shape
    assume(j_index <= min(d, e))
    # the first column is a small integer vector, so the target contains
    # an enumerated line and meets some enumerated subspaces
    small = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    assume(any(small))
    rest = random_target(n, d, data.draw(st.integers(0, 2**32)))
    target = [[x, *row[1:]] for x, row in zip(small, rest)]
    assume(exact.rank(target) == d)
    assert_same_scans(target, EnumSpec(n, e, 6, strategy), j_index)


@SETTINGS
@given(target=exact_targets(4, 2), j_index=st.sampled_from([1, 2]), data=st.data())
def test_chained_shards_with_a_repeat(target, j_index, data):
    spec = EnumSpec(4, 2, 6, EXACT_PLUECKER)
    shards = [list(enumerate_subspaces(s)) for s in
              (EnumSpec(4, 2, 6, EXACT_PLUECKER, shard_count=2, shard_index=i)
               for i in (1, 0))]
    subs = list(itertools.chain(*shards))
    repeat = subs[data.draw(st.integers(0, len(subs) - 1))]
    at = data.draw(st.integers(0, len(subs)))
    chained = subs[:at] + [repeat] + subs[at:]
    expected = reference_records(target, chained, j_index)
    assert screened_records(target, iter(chained), j_index) == expected
    assert screened_report(target, iter(chained), j_index) == reference_report(
        target, chained, j_index
    )
    assert screened_records(target, spec, j_index) == expected


# ---------------------------------------------------------------------------
# plane pairs: both sines from the labels

# a plane census per ambient dimension, each small enough for the reference
PLANE_SPECS = {
    3: EnumSpec(3, 2, 14, EXACT_LINES),
    4: EnumSpec(4, 2, 6, EXACT_PLUECKER),
    5: EnumSpec(5, 2, 4, EXACT_ECHELON),
}
THREE_SPACES_R5 = EnumSpec(5, 3, 3, EXACT_ECHELON)
# pairs with two angles in R^5, (target dimension, census): two planes, a
# plane against 3-spaces and a 3-space against planes; the smaller space
# is a plane each time, and d + e = n off the first
R5_PAIRS = [(2, PLANE_SPECS[5]), (2, THREE_SPACES_R5), (3, PLANE_SPECS[5])]


@SETTINGS
@given(target=exact_targets(3, 2), j_index=st.sampled_from([1, 2]))
def test_planes_vs_planes_r3(target, j_index):
    # two planes in R^3 meet: psi_1 = 0 raises at the first candidate, and
    # psi_2 is read off the labels
    spec = PLANE_SPECS[3]
    assert_same_scans(target, spec, j_index)
    raised = outcome(screened_records, target, spec, j_index)[0] == "raised"
    assert raised == (j_index == 1)


@SETTINGS
@given(pair=st.sampled_from(R5_PAIRS), j_index=st.sampled_from([1, 2]), seed=st.integers(0, 2**32))
@example(pair=R5_PAIRS[1], j_index=1, seed=51)
@example(pair=R5_PAIRS[1], j_index=2, seed=52)
@example(pair=R5_PAIRS[2], j_index=1, seed=53)
@example(pair=R5_PAIRS[2], j_index=2, seed=54)
def test_planes_vs_planes_r5(pair, j_index, seed):
    d, spec = pair
    assert_same_scans(random_target(5, d, seed), spec, j_index)


@SETTINGS
@given(
    n=st.sampled_from([3, 4, 5]),
    j_index=st.sampled_from([1, 2]),
    enumerated=st.booleans(),
    data=st.data(),
)
def test_plane_target_meeting_planes(n, j_index, enumerated, data):
    # a small integer first column makes the target meet enumerated planes
    # in a line (wedge2 = 0); a small second column as well makes the
    # target an enumerated plane, whose psi_2 is 0
    small = st.lists(st.integers(-1, 1), min_size=n, max_size=n).filter(any)
    rest = random_target(n, 2, data.draw(st.integers(0, 2**32)))
    second = data.draw(small) if enumerated else [row[1] for row in rest]
    target = [[x, y] for x, y in zip(data.draw(small), second)]
    assume(exact.rank(target) == 2)
    assert_same_scans(target, PLANE_SPECS[n], j_index)


FLOAT_PAIRS = [(3, 2, PLANE_SPECS[3]), (4, 2, PLANE_SPECS[4])] + [(5, *p) for p in R5_PAIRS]


@SETTINGS
@given(pair=st.sampled_from(FLOAT_PAIRS), j_index=st.sampled_from([1, 2]), seed=st.integers(0, 2**32))
@example(pair=FLOAT_PAIRS[3], j_index=1, seed=55)
@example(pair=FLOAT_PAIRS[3], j_index=2, seed=56)
@example(pair=FLOAT_PAIRS[4], j_index=1, seed=57)
@example(pair=FLOAT_PAIRS[4], j_index=2, seed=58)
def test_float_plane_targets(pair, j_index, seed):
    n, d, spec = pair
    rng = random.Random(seed)
    target = [[rng.uniform(-9.0, 9.0) for _ in range(d)] for _ in range(n)]
    assert_same_scans(target, spec, j_index)


def random_plane(rng, n):
    """A random plane basis: small integers, or large-height rationals."""
    while True:
        if rng.random() < 0.5:
            rows = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(n)]
        else:
            rows = [[random_entry(rng) for _ in range(2)] for _ in range(n)]
        if exact.rank(rows) == 2:
            return rows


def squared(x):
    """x^2 as an integer fraction (num, den) for an mpf x."""
    man, exp = x.man_exp
    return (man * man << 2 * exp, 1) if exp >= 0 else (man * man, 1 << -2 * exp)


def test_plane_sines_match_the_engine():
    """Both sines of random exact plane pairs in R^3 to R^6, read off the
    labels as a scan reads them (the target's raw minors, the candidate's
    normalized label), against angles_adaptive on the bases: the same zero
    sines, the same brackets as doubles, overlapping brackets as mpf, and
    the same mpf whenever the candidate's basis minors are its label.  The
    exact screen puts each sine at or above 0 and its lower end, and below
    its upper end unless the two ends meet."""
    rng = random.Random(26)
    identical = total = 0
    for ctx in (None, PrecisionContext(bits=64)):
        bits = exact_relative_bits(ctx)
        for n in range(3, 7):
            for _ in range(50):
                a = RealBasis.from_exact(random_plane(rng, n))
                sub = exact.RationalSubspace.from_basis(random_plane(rng, n))
                xa = exact.raw_minors(exact.transpose(a.columns))
                xb = sub.pluecker.coords
                labels = (
                    sum(x * x for x in xa) * sub.height_squared,
                    exact.squared_image_norm(exact.wedge_map(xa, 2, 2, n))(xb),
                    sum(map(mul, xa, xb)) ** 2,
                )
                brackets = [
                    None if m is None else (mp.ldexp(*m[0]), mp.ldexp(*m[1]))
                    for m in _sine_mantissas(*labels, bits)
                ]
                prof = angles_adaptive(a, RealBasis.from_subspace(sub), ctx)
                minors = exact.raw_minors(sub.basis)
                label_basis = minors in (xb, tuple(-x for x in xb))
                for k, bracket in enumerate(brackets):
                    assert (bracket is not None) == prof.resolved[k]
                    assert plane_sine_at_least(*labels, k + 1, 0, 1)
                    if bracket is None:
                        continue
                    lo, hi = bracket
                    assert est._float_down(lo).hex() == est._float_down(prof.lo[k]).hex()
                    assert est._float_up(hi).hex() == est._float_up(prof.hi[k]).hex()
                    assert lo <= prof.hi[k] and prof.lo[k] <= hi
                    same = (lo, hi) == (prof.lo[k], prof.hi[k])
                    assert same or not label_basis
                    assert plane_sine_at_least(*labels, k + 1, *squared(lo))
                    assert plane_sine_at_least(*labels, k + 1, *squared(hi)) == (lo == hi)
                    identical += same
                    total += 1
    assert total > 600 and identical > total // 2


def test_exact_meeting_is_not_a_precision_failure():
    """An exact pair with a zero sine meets the target exactly, whether
    its labels prove it (t <= 2) or the Gram pencil does (t = 3)."""
    line = [[1], [Fraction(1, 3)], [Fraction(2, 7)]]
    with pytest.raises(IrrationalityViolationError, match="meets the target exactly") as err:
        est.scan_records(line, EnumSpec(3, 2, 12, EXACT_LINES))
    assert err.value.subspace.pluecker.coords == (0, 3, 1)
    plane = [[1, 0], [0, 1], [1, 1], [0, 0]]
    with pytest.raises(IrrationalityViolationError, match="meets the target exactly"):
        est.scan_records(plane, PLANE_SPECS[4], j_index=2)
    space = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(IrrationalityViolationError, match="meets the target exactly") as err:
        est.scan_records(space, EnumSpec(6, 3, 1, EXACT_ECHELON), j_index=3)
    assert err.value.scanned == 1


# ---------------------------------------------------------------------------
# census labels against subspace streams

# every strategy, lines to 3-spaces in R^3 to R^5; (n, e, height bound, strategy)
ENTRY_SPECS = [
    (3, 1, 40, EXACT_LINES),
    (3, 2, 30, EXACT_LINES),
    (3, 1, 12, EXACT_ECHELON),
    (4, 3, 8, EXACT_LINES),
    (4, 2, 8, EXACT_PLUECKER),
    (4, 2, 4, EXACT_ECHELON),
    (5, 2, 4, EXACT_ECHELON),
    (5, 3, 3, EXACT_ECHELON),
]


def entry_outcome(caplog, scan, target, source, j_index):
    """What a scan returns or raises, in float hex, with its DEBUG counts."""
    caplog.clear()
    try:
        out = scan(target, source, j_index=j_index)
    except SubdiophError as err:
        sub = getattr(err, "subspace", None)
        result = (type(err).__name__, str(err), getattr(err, "scanned", None),
                  None if sub is None else sub.pluecker.coords)
    else:
        if isinstance(out, list):
            result = [(r.subspace.pluecker.coords, r.height_squared, r.psi_lo.hex(),
                       r.psi_hi.hex()) for r in out]
        else:
            result = (out.scanned, out.min_psi_lower.hex(), out.ok,
                      None if out.witness is None else out.witness.pluecker.coords,
                      None if out.offender is None else out.offender.pluecker.coords)
    messages = [r.getMessage() for r in caplog.records if r.name == "subdioph"]
    return result, messages


def entry_cases():
    """(target, spec, j_index): exact and float targets of every dimension
    against every census of ENTRY_SPECS, a target that meets candidates, a
    sine index out of range and a census in another ambient space."""
    rng = random.Random(28)
    for n, e, hmax2, strategy in ENTRY_SPECS:
        spec = EnumSpec(n, e, hmax2, strategy)
        for d in range(1, n):
            if min(d, e) >= 3:
                continue  # the mpmath path: covered by the reference oracle above
            exact_target = random_target(n, d, rng.getrandbits(32))
            float_target = [[rng.uniform(-9.0, 9.0) for _ in range(d)] for _ in range(n)]
            for j_index in range(1, min(d, e) + 1):
                yield exact_target, spec, j_index
                yield float_target, spec, j_index
        meeting = [[int(i == k) + (i == n - 1) for k in range(min(e, n - 1))] for i in range(n)]
        yield meeting, spec, 1
        yield random_target(n, 1, rng.getrandbits(32)), spec, 2
        yield random_target(n + 1, 1, rng.getrandbits(32)), spec, 1


def test_census_scans_match_subspace_scans(caplog):
    """scan_records and irrationality_scan on an EnumSpec read labels from
    enumerate_labels and build subspaces only where needed; on the stream
    enumerate_subspaces(spec) they take each subspace's label.  Both must
    give the same records, reports, errors and DEBUG counts."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    cases = outcomes = 0
    for target, spec, j_index in entry_cases():
        for scan in (est.scan_records, est.irrationality_scan):
            census = entry_outcome(caplog, scan, target, spec, j_index)
            stream = entry_outcome(caplog, scan, target, enumerate_subspaces(spec), j_index)
            assert census == stream, (target, spec, j_index, scan.__name__)
            cases += 1
            outcomes += isinstance(census[0], tuple) and isinstance(census[0][0], str)
    assert cases > 150 and 0 < outcomes < cases


@pytest.fixture
def built_subspaces(monkeypatch):
    """Count of RationalSubspace objects built while a test runs."""
    built = []
    init = exact.RationalSubspace.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(exact.RationalSubspace, "__init__", counted)
    return built


@pytest.mark.parametrize(
    "target, spec, j_index, candidates",
    [
        ([[1, 0], [0, 1], [3, 5], [7, -2]], EnumSpec(4, 2, 30, EXACT_PLUECKER), 2, 5786),
        ([[1000003], [1414213], [1732051]], EnumSpec(3, 1, 200, EXACT_LINES), 1, 4909),
        ([[1], [Fraction(-47, 53)], [Fraction(29, 71)]], EnumSpec(3, 2, 60, EXACT_LINES), 1, 793),
        # t = 2 with d != e: the survivors are bracketed from their labels
        (random_target(5, 2, 5), EnumSpec(5, 3, 3, EXACT_ECHELON), 2, 190),
        ([[1, 0], [0, 1], [3, 5], [7, -2], [2, 9]], EnumSpec(5, 3, 8, EXACT_ECHELON), 2, 1890),
    ],
    ids=["planes-r4", "lines-r3", "hyperplanes-r3", "3-spaces-r5", "3-spaces-r5-h8"],
)
def test_census_scans_build_few_subspaces(
    built_subspaces, caplog, target, spec, j_index, candidates
):
    """A scan over an EnumSpec builds a subspace for each record or witness
    it reports, not one per candidate.  Every pair here has at most two
    angles, so no row is profiled (which would decode a basis): each
    candidate is bracketed from its labels or skipped."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    records = est.scan_records(target, spec, j_index=j_index)
    counts = scan_counts(caplog)
    assert counts["candidates"] == candidates and counts["profiled"] == 0
    assert counts["label_only"] + counts["skipped"] == candidates
    # one subspace per candidate would break the bound
    assert len(built_subspaces) <= len(records) < candidates
    del built_subspaces[:]
    report = est.irrationality_scan(target, spec, j_index=j_index)
    counts = scan_counts(caplog)
    assert report.ok and len(built_subspaces) <= 1 and counts["profiled"] == 0


class NoMpmath:
    """Stands in for mpmath's context: reading any of its names raises."""

    def __getattr__(self, name):
        raise AssertionError(f"an exact scan used mp.{name}")


def exact_scan_outcomes():
    """Scans with at most two angles, psi bounds as float hex: the records
    and report of planes in R^4 with j = 2 and of a plane against the
    3-spaces of R^5 with j = 2, the report of a line irrationality scan,
    and the exit code and rows of the records verb on an ell = 2
    instance."""
    plane = [[1, 0], [0, 1], [3, 5], [7, -2]]
    out = []
    for target, spec in ((plane, EnumSpec(4, 2, 60, EXACT_PLUECKER)),
                         ([*plane, [2, 9]], EnumSpec(5, 3, 8, EXACT_ECHELON))):
        records = est.scan_records(target, spec, j_index=2)
        out.append([(r.subspace.pluecker.coords, r.height_squared, r.psi_lo.hex(), r.psi_hi.hex())
                    for r in records])
        report = est.irrationality_scan(target, spec, j_index=2)
        out.append({**report.as_dict(), "minPsiLower": report.min_psi_lower.hex()})
    report = est.irrationality_scan([[1000003], [1414213], [1732051]], EnumSpec(3, 1, 2000))
    out.append({**report.as_dict(), "minPsiLower": report.min_psi_lower.hex()})
    rows = io.StringIO()
    argv = ["records", "--ell", "2", "--beta", "5/2", "--hmax-squared", "60", "--no-header"]
    out.append((cli.run_command(argv, stdout=rows), rows.getvalue().splitlines()))
    return out


def test_exact_scans_build_no_mpf(monkeypatch):
    """A pair with at most two angles keeps its sine bracket in integers
    from its labels to its record, and a scan over a census reads its
    labels: with the angle module's mpmath context, the label decoder, the
    angle engine and the subspace census replaced by ones that raise, the
    scans give the same bytes, within 60 s."""
    want = exact_scan_outcomes()
    r4, r4_report, r5, r5_report, line_report, (code, rows) = want
    assert len(r4) >= 2 and code == 0 and len(rows) >= 2
    assert [(lo, hi) for *_, lo, hi in r5] == [("0x1.10ba8493671f0p-3", "0x1.10ba8493671f2p-3")]
    assert (r5_report["scanned"], r5_report["minPsiLower"]) == (1890, "0x1.10ba8493671f0p-3")
    assert (line_report["scanned"], line_report["minPsiLower"]) == (155833, "0x1.2e561d0a21782p-8")

    def refuse(*args, **kwargs):
        raise AssertionError("a scan decoded a basis, called the angle engine or built a subspace census")

    monkeypatch.setattr(angles_module, "mp", NoMpmath())
    monkeypatch.setattr(exact, "pluecker_decode", refuse)
    monkeypatch.setattr(est, "_adaptive_brackets", refuse)
    monkeypatch.setattr(enumeration, "enumerate_subspaces", refuse)
    # estimation imports no subspace census: one it imported would raise too
    monkeypatch.setattr(est, "enumerate_subspaces", refuse, raising=False)
    start = time.perf_counter()
    assert exact_scan_outcomes() == want
    assert time.perf_counter() - start < 60


# a rational 3-space of R^6 whose first sine is 0 against some 3-spaces
# of the census (they share a direction), so j = 3 scans over proved zeros
T3_TARGET = [[3, 0, 1], [0, 2, 1], [1, 1, 3], [2, 1, 0], [1, 3, 1], [0, 1, 2]]


def t3_scan_outcomes():
    """Records and report of the 200 3-spaces of R^6 at H^2 <= 2 against
    T3_TARGET with j = 3, psi bounds as float hex: every pair has three
    angles, so each is proved on its Gram pencil."""
    spec = EnumSpec(6, 3, 2, EXACT_ECHELON)
    records = est.scan_records(T3_TARGET, spec, j_index=3)
    report = est.irrationality_scan(T3_TARGET, spec, j_index=3)
    rows = [(r.subspace.pluecker.coords, r.height_squared, r.psi_lo.hex(), r.psi_hi.hex())
            for r in records]
    return rows, {**report.as_dict(), "minPsiLower": report.min_psi_lower.hex()}


def test_t3_scans_pack_no_profile(monkeypatch):
    """A pair with three angles takes its dyadic bracket from the angle
    engine before any profile is packed: with angles._profile and
    angles._packed replaced by functions that raise, the scans give the
    same bytes."""
    want = t3_scan_outcomes()
    assert len(want[0]) == 2 and want[1]["scanned"] == 200 and want[1]["ok"]

    def refuse(*args):
        raise AssertionError("a scan packed an angle profile")

    monkeypatch.setattr(angles_module, "_profile", refuse)
    monkeypatch.setattr(angles_module, "_packed", refuse)
    assert t3_scan_outcomes() == want


def test_bars_below_the_double_range_take_the_integer_test():
    """A bar below 2^-1022 has no normal double to bracket it, so
    _at_least decides it by the integer test alone.  With _NORMAL_MIN
    raised to 2.0 every bar takes that branch, and the scans with at most
    two angles and those with three give the same outcomes."""
    want = exact_scan_outcomes(), t3_scan_outcomes()
    bars = []
    bar_power = est._bar_power

    def logged(num, den, power):
        bar = bar_power(num, den, power)
        bars.append(bar[2:])
        return bar

    with mock.patch.object(est, "_NORMAL_MIN", 2.0), mock.patch.object(est, "_bar_power", logged):
        got = exact_scan_outcomes(), t3_scan_outcomes()
    assert got == want
    assert bars and set(bars) == {(None, None)}


def algebraic_plane(bits):
    """A plane of R^4 with irrational entries, read at bits."""
    return [[1, 0], [0, 1], [mp.sqrt(2), mp.sqrt(3)], [mp.sqrt(5), -mp.sqrt(7)]]


@pytest.mark.parametrize("j_index", [1, 2])
def test_evaluator_target_scans_match_the_reference(j_index):
    """An evaluator target screens nothing: each candidate takes the
    brackets angles_adaptive proves, read once and widened by the reading
    error, and the scans agree with the unscreened reference."""
    target = RealBasis.from_evaluator(4, 2, algebraic_plane, source="algebraic")
    assert_same_scans(target, EnumSpec(4, 2, 6, EXACT_PLUECKER), j_index)


def scan_counts(caplog):
    """The counts of the last generic scan's DEBUG line."""
    message = [r.getMessage() for r in caplog.records if r.name == "subdioph"][-1]
    return {k: int(v) for k, v in (f.split("=") for f in message.split(": ")[1].split())}


# ---------------------------------------------------------------------------
# the P test of rules_out (_at_least) against the integer test


def screen_tier(w_lo, w_hi, l_lo, l_hi, bar):
    """'double' when _at_least decides from doubles alone, else 'integer'."""
    try:
        est._at_least(w_lo, w_hi, l_lo, l_hi, (None, None, *bar[2:]))
    except TypeError:
        return "integer"
    return "double"


def screen_draws(rng):
    """(kind, wedge2, scale, bar) draws for the screen: random, exact ties,
    within 2^-40 of the bar, and P^2 below 1e-300, over small labels, labels
    of about 200 bits and the depth-3 generators of an ell = 2 instance,
    whose squared label (about 2^2864) lies beyond the double range."""
    gens = build_generators(ConstructionParams.create(2, Fraction(5, 2), seed=0), 3)
    big_label2 = sum(x * x for x in exact.raw_minors(gens.integer_matrix))
    assert big_label2.bit_length() > 1100
    for draw in range(10_000):
        power = 2 * rng.randint(1, 3)
        # a bar as rules_out makes it from a dyadic end below 1, maybe with
        # the slack factor 2^b / (2^b - 1)
        bits = rng.choice([53, 256, 516])
        den = 1 << (bits + rng.randint(0, 40))
        num = rng.randrange(1, den)
        if rng.random() < 0.3:
            num, den = num << bits, den * ((1 << bits) - 1)
        bar = est._bar_power(num, den, power)
        top, bottom = bar[:2]
        label2 = rng.choice([rng.randint(1, 10**6), rng.getrandbits(200) | 1, big_label2])
        scale = label2 * rng.randint(1, 10**4)
        kind = ("random", "tie", "near", "tiny")[draw % 4]
        if kind == "tie":
            k = rng.randint(1, 10**6)
            wedge2, scale = top * k, bottom * k
        elif kind == "near":
            # |wedge2 / scale - bar| < 2^-41 bar, on a scale far above 2^41
            scale = rng.choice([rng.getrandbits(200) | 1, big_label2]) * rng.randint(1, 10**4)
            wedge2 = top * scale * ((1 << 70) + rng.randint(-(1 << 29), 1 << 29)) // (
                bottom << 70
            )
            wedge2 = min(wedge2, scale)
        elif kind == "tiny":
            scale = big_label2 * rng.randint(1, 10**4)
            wedge2 = rng.randrange(0, scale >> rng.randint(1000, 2000))
        else:
            wedge2 = rng.randrange(0, scale + 1) >> rng.choice([0, 0, 0, 8, 60])
        yield kind, wedge2, scale, bar


def test_rounded_screen_decides_as_the_integer_test():
    """_at_least agrees with wedge2 * bottom >= top * scale on every draw of
    exact integers, and on bounds around them it decides the same or
    defers (None).  Its doubles, stepped one ulp outward, decide the clear
    cases and the draws within 2^-41 of the bar alone; ties and bars below
    the normal range go to the integer test."""
    rng = random.Random(40)
    tiers, deferred = {}, 0
    for kind, wedge2, scale, bar in screen_draws(rng):
        top, bottom = bar[:2]
        want = wedge2 * bottom >= top * scale
        assert est._at_least(wedge2, wedge2, scale, scale, bar) == want
        tier = screen_tier(wedge2, wedge2, scale, scale, bar)
        tiers.setdefault(kind, []).append(tier)
        if kind == "tie":
            assert wedge2 * bottom == top * scale
        if kind == "tiny":
            assert wedge2 / scale < 1e-300
        if kind == "tie" or bar[2] is None:
            assert tier == "integer", (kind, wedge2, scale)
        # bounds around the draw, from exact to wider than the gap to the bar
        spread = rng.choice([0, 1, 1 << 20, scale >> 60, scale >> 20])
        w_lo, w_hi = max(0, wedge2 - rng.randint(0, spread)), wedge2 + rng.randint(0, spread)
        l_lo, l_hi = max(1, scale - rng.randint(0, spread)), scale + rng.randint(0, spread)
        got = est._at_least(w_lo, w_hi, l_lo, l_hi, bar)
        assert got in (None, want), (kind, wedge2, scale)
        deferred += got is None
    assert all(len(t) == 2500 for t in tiers.values())
    assert tiers["random"].count("double") > 2000
    assert tiers["near"].count("double") > 2000
    assert 2000 < deferred < 10_000


# ---------------------------------------------------------------------------
# the rounded screen of wide target labels against the exact one


def huge_rational(rng):
    return Fraction(rng.getrandbits(200) - (1 << 199), rng.getrandbits(200) | 1)


def wide_target(kind, seed, n, d):
    """A target whose label is far wider than the screen keeps: the
    generators of an ell = 2 instance (beta 5/2) truncated at depth 2 to 4,
    a plane of R^4, or a basis of huge random rationals in R^n."""
    rng = random.Random(seed)
    if kind == "generators":
        params = ConstructionParams.create(2, Fraction(5, 2), seed=seed)
        return build_generators(params, 2 + seed % 3).real_basis()
    while True:
        rows = [[huge_rational(rng) for _ in range(d)] for _ in range(n)]
        if exact.rank(rows) == d:
            return RealBasis.from_exact(rows)


def near_candidates(basis, e, rng, count=8):
    """e-subspaces near the target, with a few small random ones: each
    column is a sum of target columns cut to its leading 16 to 60 bits,
    plus a unit of noise.  Their wide labels leave the screen's boxes
    loose, so many of their rows fall back to the exact integers."""
    cols, out = basis.columns, []
    while len(out) < count:
        picks = []
        for _ in range(e):
            if rng.random() < 0.2:
                picks.append([rng.randint(-3, 3) for _ in range(basis.n)])
                continue
            col = [sum(x) for x in zip(*rng.sample(cols, rng.randint(1, len(cols))))]
            shift = max(0, max(abs(x).bit_length() for x in col) - rng.randint(16, 60))
            picks.append([(x >> shift) + rng.randint(-1, 1) for x in col])
        rows = [list(row) for row in zip(*picks)]
        if exact.rank(rows) == e:
            out.append(exact.RationalSubspace.from_basis(rows))
    return out


# (target kind, n, d, candidate e, census window)
WIDE_CASES = [
    ("generators", 4, 2, 2, EnumSpec(4, 2, 8, EXACT_PLUECKER)),
    ("generators", 4, 2, 1, EnumSpec(4, 1, 12)),
    ("generators", 4, 2, 3, EnumSpec(4, 3, 12)),
    ("rationals", 4, 2, 2, EnumSpec(4, 2, 6, EXACT_PLUECKER)),
    ("rationals", 5, 2, 2, EnumSpec(5, 2, 4, EXACT_ECHELON)),
    ("rationals", 5, 1, 2, EnumSpec(5, 2, 4, EXACT_ECHELON)),
    ("rationals", 5, 2, 1, EnumSpec(5, 1, 8)),
]


def logged_scans(target, source, j_index):
    """Records and report of both scans, every rules_out decision in order
    and the counts of each scan's DEBUG line, with the rows that carried a
    box counted apart."""
    decisions, counts, boxed = [], [], [0]
    rules_out, log = est._GenericScan.rules_out, est._GenericScan.log

    def logged_rules_out(scan, row, x, slack=False):
        boxed[0] += row[8] is not None
        decision = rules_out(scan, row, x, slack)
        decisions.append((row[1], x, slack, decision))
        return decision

    def logged_log(scan, name):
        counts.append((name, dict(scan.counts)))
        log(scan, name)

    with mock.patch.object(est._GenericScan, "rules_out", logged_rules_out), \
            mock.patch.object(est._GenericScan, "log", logged_log):
        records = outcome(screened_records, target, source, j_index)
        report = screened_report(target, source, j_index)
    return (records, report, decisions, counts), boxed[0]


@SETTINGS
@given(
    case=st.sampled_from(WIDE_CASES),
    seed=st.integers(0, 2**32),
    j_index=st.sampled_from([1, 2]),
    near=st.booleans(),
)
@example(case=WIDE_CASES[0], seed=3, j_index=2, near=False)
@example(case=WIDE_CASES[4], seed=5, j_index=1, near=True)
def test_rounded_screen_scans_as_the_exact_one(case, seed, j_index, near):
    """Wide labels (depth 2 to 4 generators, huge rationals in R^4 and R^5)
    screened on their leading bits give the records, the report, every
    rules_out decision and the DEBUG counts of the same scans with every
    bit kept, over census windows and over near candidates, some repeated,
    that force the exact fallback."""
    kind, n, d, e, spec = case
    assume(j_index <= min(d, e))
    target = wide_target(kind, seed, n, d)
    assert max(abs(x).bit_length() for x in target.label) > est._KEPT_BITS
    source = spec
    if near:
        # a repeated candidate meets its own bracket end as the bar: a tie
        subs = near_candidates(target, e, random.Random(seed))
        source = subs + list(enumerate_subspaces(spec)) + subs[::2]
    rounded, boxed = logged_scans(target, source, j_index)
    with mock.patch.object(est, "_KEPT_BITS", 10**9):
        whole, whole_boxed = logged_scans(target, source, j_index)
    assert rounded == whole
    assert whole_boxed == 0 and (boxed > 0 or d + e > n or not rounded[2])


def exact_skip(label2, wedge2, cos2, j_index, x, slack, bits):
    """rules_out's decision from the exact label integers."""
    man, exp = x
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    if slack:
        num, den = num << bits, den * ((1 << bits) - 1)
    if cos2 is None:
        return wedge2 * den * den >= label2 * num * num
    return plane_sine_at_least(label2, wedge2, cos2, j_index, num * num, den * den)


@SETTINGS
@given(case=st.sampled_from(WIDE_CASES), seed=st.integers(0, 2**32), j_index=st.sampled_from([1, 2]))
@example(case=WIDE_CASES[0], seed=7, j_index=2)
@example(case=WIDE_CASES[6], seed=8, j_index=1)
def test_rounded_screen_defers_at_ties(case, seed, j_index):
    """On every boxed row, rules_out decides as the exact label integers
    do, for bars at the row's own bracket ends, near them and far off, with
    and without slack; the box alone decides the same or defers, and at
    the bracket ends, which lie within 2^-512 of the sine, it defers."""
    kind, n, d, e, spec = case
    assume(j_index <= min(d, e) and d + e <= n)
    target = wide_target(kind, seed, n, d)
    rng = random.Random(seed)
    subs = near_candidates(target, e, rng) + list(itertools.islice(enumerate_subspaces(spec), 40))
    xa, bits = target.label, exact_relative_bits()
    wedge2_of = exact.squared_image_norm(exact.wedge_map(xa, d, e, n))
    cos2_of = exact.squared_image_norm(exact.contraction_map(xa, d, e, n))
    scan = est._GenericScan(target, j_index, None)
    rows = [row for row in scan.rows(subs) if row[8] is not None]
    assert rows
    for row in rows:
        label2 = sum(x * x for x in xa) * row[0]
        wedge2 = wedge2_of(row[1])
        cos2 = None if min(d, e) == 1 else cos2_of(row[1])
        lo, hi = _sine_mantissas(label2, wedge2, cos2, bits)[j_index - 1]
        near = (max(1, lo[0] + rng.randint(-(1 << 40), 1 << 40)), lo[1])
        far = (max(1, lo[0] >> rng.randint(1, 8)), lo[1])
        for x, slack, tie in ((lo, False, True), (hi, False, lo != hi), (near, rng.random() < 0.5, False),
                              (far, False, False), (lo, True, False)):
            want = exact_skip(label2, wedge2, cos2, j_index, x, slack, bits)
            assert scan.rules_out(row, x, slack) == want
            boxed = scan._box_screen(row[8])
            assert boxed in (None, want)
            assert boxed is None or not tie
