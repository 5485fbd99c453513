"""Enumeration tests: completeness against independent references, sharding."""

import io
import itertools
import logging
import math
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from mpmath import zeta

from subdioph import estimation as est
from subdioph import exact, reports
from subdioph.cli import run_command
from subdioph.enumeration import (
    CHECKPOINT,
    EXACT_ECHELON,
    EXACT_LINES,
    EXACT_PLUECKER,
    STRATEGIES,
    SUBSPACE,
    EnumSpec,
    enumerate_events,
    enumerate_labels,
    enumerate_subspaces,
    exact_strategy,
    leading_range,
    primitive_vectors,
    _plane_label,
    shard_partition,
)
from subdioph.errors import (
    NotDecomposableError,
    ParameterError,
    StrategyMismatchError,
    SubdiophError,
)


def keys(subspaces):
    return [s.pluecker.coords for s in subspaces]


def reference_subspaces(n, e, hmax2):
    """Independent census for e=2: all pairs of short integer vectors.

    Every plane with squared height at most hmax2 is spanned by a reduced
    basis of its saturated lattice with
    (|v1| * |v2|)^2 <= (4/3) * hmax2, so scanning all such pairs cannot
    miss one.  Returns a dict keyed by normalized coordinates.
    """
    assert e == 2
    prod_cap_sq = 4 * hmax2 // 3 + 1
    top = isqrt(prod_cap_sq)
    vecs = [
        v
        for v in itertools.product(range(-top, top + 1), repeat=n)
        if 0 < sum(x * x for x in v) <= prod_cap_sq
    ]
    found = {}
    for v1, v2 in itertools.combinations(vecs, 2):
        n1 = sum(x * x for x in v1)
        n2 = sum(x * x for x in v2)
        if n1 * n2 > prod_cap_sq:
            continue
        basis = [[a, b] for a, b in zip(v1, v2)]
        if exact.rank(basis) != 2:
            continue
        sub = exact.RationalSubspace.from_basis(basis)
        if sub.pluecker.height_squared <= hmax2:
            found.setdefault(sub.pluecker.coords, sub)
    return found


def reference_lines(n, hmax2):
    top = isqrt(hmax2)
    found = {}
    for vec in itertools.product(range(-top, top + 1), repeat=n):
        norm = sum(x * x for x in vec)
        if not 0 < norm <= hmax2:
            continue
        sub = exact.RationalSubspace.from_basis([(x,) for x in vec])
        found.setdefault(sub.pluecker.coords, sub)
    return found


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_dimensions():
    with pytest.raises(ParameterError):
        EnumSpec(n=1, e=1, height_squared_max=1)
    with pytest.raises(ParameterError):
        EnumSpec(n=3, e=4, height_squared_max=1)
    with pytest.raises(ParameterError):
        EnumSpec(n=2, e=1, height_squared_max=0)


def test_spec_strategy_constraints():
    with pytest.raises(StrategyMismatchError):
        EnumSpec(n=4, e=2, height_squared_max=4, strategy=EXACT_LINES)
    with pytest.raises(StrategyMismatchError):
        EnumSpec(n=3, e=2, height_squared_max=4, strategy=EXACT_PLUECKER)
    with pytest.raises(ParameterError):
        EnumSpec(n=2, e=1, height_squared_max=4, shard_count=2, shard_index=2)
    with pytest.raises(ParameterError):
        EnumSpec(n=2, e=1, height_squared_max=4, strategy="magic")


def test_exact_strategy_covers_every_shape():
    for n in range(2, 8):
        for e in range(1, n + 1):
            strategy = exact_strategy(n, e)
            assert strategy in STRATEGIES
            assert EnumSpec(n, e, 1, strategy).strategy == strategy
            assert EnumSpec(n, e, 1, EXACT_ECHELON).strategy == EXACT_ECHELON
    assert exact_strategy(5, 2) == exact_strategy(6, 3) == EXACT_ECHELON


# ---------------------------------------------------------------------------
# lines


def test_lines_tiny_cases():
    assert sorted(keys(enumerate_subspaces(EnumSpec(2, 1, 1)))) == [(0, 1), (1, 0)]
    got = sorted(keys(enumerate_subspaces(EnumSpec(2, 1, 2))))
    assert got == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert sorted(keys(enumerate_subspaces(EnumSpec(3, 1, 1)))) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_lines_match_reference_census():
    for n, hmax2 in ((2, 100), (3, 20), (4, 9)):
        ours = list(enumerate_subspaces(EnumSpec(n, 1, hmax2)))
        ref = reference_lines(n, hmax2)
        assert len(ours) == len(set(keys(ours))), "duplicate lines emitted"
        assert set(keys(ours)) == set(ref)


def test_line_heights_recompute_exactly():
    for sub in enumerate_subspaces(EnumSpec(3, 1, 12)):
        pv = exact.pluecker_coordinates(sub.basis)
        assert pv.height_squared == sub.pluecker.height_squared
        assert sum(x * x for x in pv.coords) == pv.height_squared


# ---------------------------------------------------------------------------
# hyperplanes


def test_hyperplanes_3_2_small_census():
    spec = EnumSpec(n=3, e=2, height_squared_max=2, strategy=EXACT_LINES)
    got = list(enumerate_subspaces(spec))
    assert len(got) == 9
    assert set(keys(got)) == set(reference_subspaces(3, 2, 2))


def test_hyperplane_heights_match_normal_norms():
    spec = EnumSpec(n=4, e=3, height_squared_max=6, strategy=EXACT_LINES)
    for sub in enumerate_subspaces(spec):
        assert sub.n == 4 and sub.e == 3
        assert sub.pluecker.height_squared <= 6
        pv = exact.pluecker_coordinates(sub.basis)
        assert pv == sub.pluecker


def test_hyperplanes_match_reference_census():
    spec = EnumSpec(n=3, e=2, height_squared_max=9, strategy=EXACT_LINES)
    got = keys(enumerate_subspaces(spec))
    assert len(got) == len(set(got))
    assert set(got) == set(reference_subspaces(3, 2, 9))


# ---------------------------------------------------------------------------
# planes in R^4


def test_planes4_unit_height():
    spec = EnumSpec(n=4, e=2, height_squared_max=1, strategy=EXACT_PLUECKER)
    got = keys(enumerate_subspaces(spec))
    assert len(got) == 6
    for coords in got:
        assert sum(abs(c) for c in coords) == 1


def test_planes4_norm_two_count():
    spec = EnumSpec(n=4, e=2, height_squared_max=2, strategy=EXACT_PLUECKER)
    got = keys(enumerate_subspaces(spec))
    # 6 coordinate planes plus 12 two-coordinate patterns in 2 sign classes:
    # the three complementary index pairs fail the decomposability quadric
    assert len(got) == 30


def test_planes4_match_reference_census():
    spec = EnumSpec(n=4, e=2, height_squared_max=6, strategy=EXACT_PLUECKER)
    got = list(enumerate_subspaces(spec))
    assert len(got) == len(set(keys(got)))
    ref = reference_subspaces(4, 2, 6)
    assert set(keys(got)) == set(ref)
    for sub in got:
        a, b, c, d, e_, f = sub.pluecker.coords
        assert a * f - b * e_ + c * d == 0
        assert exact.pluecker_coordinates(sub.basis) == sub.pluecker


# ---------------------------------------------------------------------------
# labels first, bases on demand


def test_plane_bases_on_demand_match_decode():
    spec = EnumSpec(n=4, e=2, height_squared_max=60, strategy=EXACT_PLUECKER)
    count = 0
    for sub in enumerate_subspaces(spec):
        label = sub.pluecker
        assert sub.basis == exact.pluecker_decode(label).basis
        assert exact.pluecker_coordinates(sub.basis) == label
        # perturb the partner of a nonzero coordinate in the relation
        # x12*x34 - x13*x24 + x14*x23 = 0, so its value moves off zero
        i = next(k for k, c in enumerate(label.coords) if c != 0)
        perturbed = list(label.coords)
        perturbed[5 - i] += 1
        with pytest.raises(SubdiophError, match="Pluecker relation"):
            _plane_label(tuple(perturbed))
        count += 1
    assert count == 21626


def test_plane_relation_agrees_with_decode():
    """On every normalized 6-tuple of small norm, the relation check accepts
    exactly the labels that pluecker_decode accepts."""
    accepted = 0
    for coords in itertools.product(range(-2, 3), repeat=6):
        if not 0 < sum(c * c for c in coords) <= 6 or gcd(*coords) != 1:
            continue
        if next(c for c in coords if c != 0) < 0:
            continue
        label = exact.PlueckerVector(4, 2, coords)
        try:
            exact.pluecker_decode(label)
            decodes = True
        except NotDecomposableError:
            decodes = False
        try:
            assert _plane_label(coords) == label.coords
            passes = True
        except SubdiophError:
            passes = False
        assert passes == decodes, coords
        accepted += passes
    assert accepted == len(reference_subspaces(4, 2, 6))


TRUSTED_LABEL_SPECS = [
    *(EnumSpec(n, 1, hmax2) for n, hmax2 in ((2, 400), (3, 120), (4, 40), (5, 14))),
    *(EnumSpec(n, n - 1, hmax2) for n, hmax2 in ((3, 120), (4, 40), (5, 14))),
    EnumSpec(4, 2, 60, strategy=EXACT_PLUECKER),
    *(EnumSpec(n, e, hmax2, EXACT_ECHELON) for n, e, hmax2 in ((4, 2, 14), (5, 2, 8), (6, 3, 3))),
]


@pytest.mark.parametrize(
    "spec", TRUSTED_LABEL_SPECS, ids=lambda s: f"{s.n}-{s.e}-h{s.height_squared_max}"
)
def test_enumerated_labels_pass_the_validating_constructor(spec):
    """The enumerators build labels without PlueckerVector's checks; each
    must equal the label the checked constructor makes of its coordinates."""
    count = 0
    for sub in enumerate_subspaces(spec):
        label = sub.pluecker
        assert (label.n, label.e) == (spec.n, spec.e)
        assert type(label.coords) is tuple
        assert label == exact.PlueckerVector(spec.n, spec.e, label.coords)
        count += 1
    assert count > 10


def test_line_bases_are_their_labels():
    spec = EnumSpec(n=3, e=1, height_squared_max=200)
    for sub in enumerate_subspaces(spec):
        assert sub.basis == tuple((c,) for c in sub.pluecker.coords)
        assert exact.pluecker_coordinates(sub.basis) == sub.pluecker


@pytest.fixture
def decode_calls(monkeypatch):
    """Counts of pluecker_decode and raw_minors calls while a test runs."""
    calls = {"decode": 0, "minors": 0}
    decode, minors = exact.pluecker_decode, exact.raw_minors

    def counted_decode(pv):
        calls["decode"] += 1
        return decode(pv)

    def counted_minors(basis):
        calls["minors"] += 1
        return minors(basis)

    monkeypatch.setattr(exact, "pluecker_decode", counted_decode)
    monkeypatch.setattr(exact, "raw_minors", counted_minors)
    return calls


@pytest.mark.parametrize("n, e, hmax2", [(3, 1, 200), (4, 2, 14)], ids=["lines-r3", "planes-r4"])
def test_cli_enumerate_neither_decodes_nor_takes_minors(decode_calls, n, e, hmax2):
    out = io.StringIO()
    argv = ["enumerate", "--n", str(n), "--e", str(e), "--hmax-squared", str(hmax2),
            "--no-header"]
    assert run_command(argv, stdout=out) == 0
    rows = len(list(enumerate_subspaces(EnumSpec(n, e, hmax2, exact_strategy(n, e)))))
    assert len(out.getvalue().splitlines()) == rows > 1000
    assert decode_calls == {"decode": 0, "minors": 0}


LABEL_PATH_SPECS = {
    "lines-r3": EnumSpec(3, 1, 60),
    "hyperplanes-r3": EnumSpec(3, 2, 60),
    "hyperplanes-r4": EnumSpec(4, 3, 20),
    "planes-r4": EnumSpec(4, 2, 20, EXACT_PLUECKER),
    "planes-r4-shard-1-of-3": EnumSpec(4, 2, 30, EXACT_PLUECKER, shard_count=3, shard_index=1),
    "echelon-planes-r5": EnumSpec(5, 2, 8, EXACT_ECHELON),
    "echelon-3-spaces-r5": EnumSpec(5, 3, 8, EXACT_ECHELON),
}


@pytest.mark.parametrize("fmt", reports.FORMATS)
@pytest.mark.parametrize("name", list(LABEL_PATH_SPECS))
def test_cli_enumerate_label_rows_match_subspace_rows(name, fmt):
    """enumerate writes its rows from enumerate_labels; they must be the
    rows built from enumerate_subspaces, label and height read off each
    subspace, serialized by emit_report."""
    spec = LABEL_PATH_SPECS[name]
    argv = ["enumerate", "--n", str(spec.n), "--e", str(spec.e),
            "--hmax-squared", str(spec.height_squared_max), "--strategy", spec.strategy,
            "--shards", str(spec.shard_count), "--shard-index", str(spec.shard_index),
            "--format", fmt, "--no-header"]
    out = io.StringIO()
    assert run_command(argv, stdout=out) == 0
    subspaces = list(enumerate_subspaces(spec))
    rows = [
        {"coords": [reports.exact_str(c) for c in sub.pluecker.coords],
         "heightSquared": reports.exact_str(sub.height_squared)}
        for sub in subspaces
    ]
    expected = io.StringIO()
    reports.emit_report(rows, fmt, expected, no_header=True)
    assert out.getvalue() == expected.getvalue()
    assert len(rows) > 10

    labels = list(enumerate_labels(spec))
    assert labels == [(sub.pluecker.coords, sub.height_squared) for sub in subspaces]
    assert all(h2 == sum(c * c for c in coords) for coords, h2 in labels)
    cursor = sum(leading_range(spec)) // 2
    assert list(enumerate_labels(spec, cursor=cursor)) == [
        (sub.pluecker.coords, sub.height_squared)
        for sub in enumerate_subspaces(spec, cursor=cursor)
    ]


TARGET_PLANE = [[1, 0], [0, 1], [Fraction(-37, 91), Fraction(52, 77)],
                [Fraction(15, 29), Fraction(-64, 83)]]
TARGET_LINE = [[1], [Fraction(-47, 53)], [Fraction(29, 71)]]


@pytest.fixture
def engine_calls(monkeypatch):
    """Count of angle-engine calls made by the record scans."""
    calls = {"angles": 0}
    engine = est.angles_adaptive

    def counted(a, b, ctx=None):
        calls["angles"] += 1
        return engine(a, b, ctx)

    monkeypatch.setattr(est, "angles_adaptive", counted)
    return calls


def scan_counts(caplog):
    """The counts of the last generic scan's DEBUG line."""
    message = [r.getMessage() for r in caplog.records if r.name == "subdioph"][-1]
    return {k: int(v) for k, v in (f.split("=") for f in message.split(": ")[1].split())}


def test_plane_scan_decodes_only_what_it_profiles(decode_calls, engine_calls, caplog):
    caplog.set_level(logging.DEBUG, logger="subdioph")
    spec = EnumSpec(n=4, e=2, height_squared_max=8, strategy=EXACT_PLUECKER)
    est.scan_records(TARGET_PLANE, spec, j_index=2)
    counts = scan_counts(caplog)
    assert counts["candidates"] == len(list(enumerate_subspaces(spec)))
    # plane pairs read both sines off their labels: nothing is profiled
    assert decode_calls["decode"] == engine_calls["angles"] == counts["profiled"] == 0
    assert counts["label_only"] == counts["candidates"] - counts["skipped"]


@pytest.mark.parametrize("j_index, most", [(2, 1000), (1, 100)])
def test_plane_scan_profiles_few_planes(decode_calls, engine_calls, j_index, most):
    spec = EnumSpec(n=4, e=2, height_squared_max=60, strategy=EXACT_PLUECKER)
    records = est.scan_records(TARGET_PLANE, spec, j_index=j_index)
    assert records
    assert decode_calls["decode"] == engine_calls["angles"] < most


@pytest.mark.parametrize(
    "e, scan",
    [(1, est.scan_records), (1, est.irrationality_scan), (2, est.scan_records),
     (2, est.irrationality_scan)],
    ids=["lines-records", "lines-irrationality", "hyperplanes-records",
         "hyperplanes-irrationality"],
)
def test_single_sine_scans_skip_decode_and_engine(decode_calls, engine_calls, e, scan):
    scan(TARGET_LINE, EnumSpec(n=3, e=e, height_squared_max=40, strategy=EXACT_LINES))
    assert decode_calls["decode"] == engine_calls["angles"] == 0


@pytest.fixture
def bracket_calls(monkeypatch):
    """Count of label brackets (_sine_mantissa) built by the generic scans."""
    calls = {"brackets": 0}
    bracket = est._sine_mantissa

    def counted(label2, wedge2, cos2, bits, index):
        calls["brackets"] += 1
        return bracket(label2, wedge2, cos2, bits, index)

    monkeypatch.setattr(est, "_sine_mantissa", counted)
    return calls


@pytest.mark.parametrize(
    "e, scan",
    [(1, est.irrationality_scan), (2, est.scan_records)],
    ids=["lines-irrationality", "hyperplanes-records"],
)
def test_single_sine_scans_bracket_only_survivors(
    decode_calls, engine_calls, bracket_calls, e, scan
):
    spec = EnumSpec(n=3, e=e, height_squared_max=40, strategy=EXACT_LINES)
    candidates = len(list(enumerate_subspaces(spec)))
    scan(TARGET_LINE, spec)
    assert 0 < bracket_calls["brackets"] <= candidates // 10
    assert decode_calls["decode"] == engine_calls["angles"] == 0


def test_scan_logs_its_counts(caplog):
    """label_only counts the pairs bracketed from their labels (single
    angles and plane pairs), skipped every pair the labels ruled out; each
    candidate is counted once."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    spec = EnumSpec(n=4, e=2, height_squared_max=8, strategy=EXACT_PLUECKER)
    est.scan_records(TARGET_PLANE, spec, j_index=2)
    counts = scan_counts(caplog)
    assert counts == {
        "candidates": 314, "label_only": 9, "profiled": 0, "skipped": 305,
    }
    assert counts["candidates"] == counts["label_only"] + counts["profiled"] + counts["skipped"]
    est.irrationality_scan(TARGET_LINE, EnumSpec(3, 1, 40, EXACT_LINES))
    counts = scan_counts(caplog)
    assert counts == {
        "candidates": 433, "label_only": 20, "profiled": 0, "skipped": 413,
    }
    assert counts["candidates"] == counts["label_only"] + counts["profiled"] + counts["skipped"]


@pytest.mark.parametrize("n, hmax2", [(3, 200), (4, 30), (5, 12)])
def test_hyperplane_labels_match_kernel_bases(n, hmax2):
    """The label read off the normal is the label of the normal's kernel."""
    spec = EnumSpec(n=n, e=n - 1, height_squared_max=hmax2)
    subs = list(enumerate_subspaces(spec))
    normals = [vec for vec, _ in primitive_vectors(n, hmax2)]
    assert len(subs) == len(normals)
    for sub, normal in zip(subs, normals):
        kernel = exact.RationalSubspace.from_basis(
            exact.transpose(exact.rational_kernel([normal]))
        )
        assert sub.pluecker.coords == kernel.pluecker.coords
        assert sub.height_squared == sum(x * x for x in normal)


def test_plane_scan_candidates_skip_fraction_helpers(monkeypatch):
    """Only the target pays for exact.rank and clear_denominators; the
    candidates go from label to angles in integers."""
    calls = {"rank": 0, "clear": 0}
    rank, clear = exact.rank, exact.clear_denominators

    def counted_rank(m):
        calls["rank"] += 1
        return rank(m)

    def counted_clear(v):
        calls["clear"] += 1
        return clear(v)

    monkeypatch.setattr(exact, "rank", counted_rank)
    monkeypatch.setattr(exact, "clear_denominators", counted_clear)
    spec = EnumSpec(n=4, e=2, height_squared_max=4, strategy=EXACT_PLUECKER)
    target = [[1, 0], [0, 1], [Fraction(-37, 91), Fraction(52, 77)],
              [Fraction(15, 29), Fraction(-64, 83)]]
    records = est.scan_records(target, spec, j_index=2)
    assert records and len(list(enumerate_subspaces(spec))) == 74
    assert calls["rank"] <= 1
    assert calls["clear"] <= 2


# ---------------------------------------------------------------------------
# echelon census


@pytest.mark.parametrize(
    "n, e, hmax2",
    [(2, 1, 200), (3, 1, 40), (3, 2, 40), (4, 1, 14), (4, 3, 14), (5, 1, 8), (5, 4, 8)],
)
def test_echelon_matches_exact_lines(n, e, hmax2):
    echelon = keys(enumerate_subspaces(EnumSpec(n, e, hmax2, EXACT_ECHELON)))
    lines = keys(enumerate_subspaces(EnumSpec(n, e, hmax2, EXACT_LINES)))
    assert len(echelon) == len(set(echelon)) > 20
    assert set(echelon) == set(lines)


@pytest.mark.parametrize("hmax2, count", [(14, 1322), (30, 5786), (60, 21626)])
def test_echelon_matches_exact_pluecker(hmax2, count):
    echelon = keys(enumerate_subspaces(EnumSpec(4, 2, hmax2, EXACT_ECHELON)))
    planes = keys(enumerate_subspaces(EnumSpec(4, 2, hmax2, EXACT_PLUECKER)))
    assert len(echelon) == len(set(echelon)) == count
    assert set(echelon) == set(planes)


def test_full_dimension_is_one_subspace():
    for n in (2, 3, 5):
        got = keys(enumerate_subspaces(EnumSpec(n, n, 9, exact_strategy(n, n))))
        assert got == [(1,)]


def test_echelon_bases_decode_to_their_labels():
    for spec in (EnumSpec(5, 2, 4, EXACT_ECHELON), EnumSpec(5, 3, 3, EXACT_ECHELON)):
        subs = list(enumerate_subspaces(spec))
        assert len(subs) > 100
        for sub in subs:
            assert sub.height_squared <= spec.height_squared_max
            assert exact.pluecker_coordinates(sub.basis) == sub.pluecker


def complement_label(label):
    """Label of the orthogonal complement: the coordinate at the complement
    of a row set S is the one at S, signed by the permutation (S, S^c)."""
    n, e = label.n, label.e
    index = {rows: k for k, rows in enumerate(itertools.combinations(range(n), n - e))}
    coords = [0] * len(index)
    for rows, c in zip(itertools.combinations(range(n), e), label.coords):
        rest = tuple(i for i in range(n) if i not in rows)
        swaps = sum(1 for i in rows for j in rest if j < i)
        coords[index[rest]] = -c if swaps & 1 else c
    if next(c for c in coords if c != 0) < 0:
        coords = [-c for c in coords]
    return tuple(coords)


def test_complement_label_is_the_kernel_label():
    subs = enumerate_subspaces(EnumSpec(5, 2, 12, EXACT_ECHELON))
    for sub in itertools.islice(subs, 0, None, 97):
        kernel = exact.RationalSubspace.from_basis(
            exact.transpose(exact.rational_kernel(exact.transpose(sub.basis)))
        )
        assert kernel.pluecker.coords == complement_label(sub.pluecker)


@pytest.mark.parametrize(
    "n, e, hmax2", [(5, 2, 8), (6, 2, 4), (6, 3, 4)], ids=["5-2", "6-2", "6-3"]
)
def test_echelon_census_is_closed_under_duality(n, e, hmax2):
    """H(B^perp) = H(B) (Schmidt 1967): the (n, e) census maps onto the
    (n, n - e) census through the complement label."""
    census = keys(enumerate_subspaces(EnumSpec(n, e, hmax2, EXACT_ECHELON)))
    dual = keys(enumerate_subspaces(EnumSpec(n, n - e, hmax2, EXACT_ECHELON)))
    assert len(census) == len(set(census)) and len(dual) == len(set(dual))
    labels = [exact.PlueckerVector(n, e, c) for c in census]
    assert {complement_label(label) for label in labels} == set(dual)


def reference_basis_box(n, e, hmax2, bound):
    """Spans of the integer n x e bases with entries in [-bound, bound],
    through RationalSubspace.from_basis on every matrix, deduped by label:
    a sample of the census, kept as an independent oracle."""
    seen, out = set(), []
    for values in itertools.product(range(-bound, bound + 1), repeat=n * e):
        rows = [values[i * e : (i + 1) * e] for i in range(n)]
        try:
            sub = exact.RationalSubspace.from_basis(rows)
        except SubdiophError:
            continue
        if sub.pluecker.coords in seen or sub.height_squared > hmax2:
            continue
        seen.add(sub.pluecker.coords)
        out.append(sub)
    return out


def test_basis_box_emits_valid_deduped_sample():
    """Entries in [-1, 1] reach 1,370 of the 1,890 planes of R^5 at H^2 <= 8;
    the echelon census holds every one of them."""
    sample = reference_basis_box(5, 2, 8, 1)
    ks = keys(sample)
    assert len(ks) == len(set(ks)) == 1370
    for sub in sample:
        assert exact.pluecker_coordinates(sub.basis) == sub.pluecker
    census = set(keys(enumerate_subspaces(EnumSpec(5, 2, 8, exact_strategy(5, 2)))))
    assert len(census) == 1890 and set(ks) <= census


def test_basis_box_finds_full_small_census():
    # at this scale the box provably covers the reference census
    got = set(keys(reference_basis_box(3, 2, 2, 1)))
    assert got == set(reference_subspaces(3, 2, 2))
    assert got == set(keys(enumerate_subspaces(EnumSpec(3, 2, 2, EXACT_ECHELON))))


# ---------------------------------------------------------------------------
# sharding and resumption


def test_shard_union_matches_single_run_lines():
    spec = EnumSpec(n=2, e=1, height_squared_max=100)
    full = keys(enumerate_subspaces(spec))
    for count in (1, 3, 4, 7, 25):
        shards = shard_partition(spec, count)
        union = []
        for shard in shards:
            union.extend(keys(enumerate_subspaces(shard)))
        assert sorted(union) == sorted(full), f"shard mismatch at count {count}"


def test_shard_union_matches_single_run_echelon():
    spec = EnumSpec(n=5, e=2, height_squared_max=12, strategy=EXACT_ECHELON)
    full = keys(enumerate_subspaces(spec))
    assert len(full) == 5450
    for count in (2, 3, 5):
        union = []
        for shard in shard_partition(spec, count):
            union.extend(keys(enumerate_subspaces(shard)))
        assert len(union) == len(set(union)), f"shards overlap at count {count}"
        assert sorted(union) == sorted(full)


def test_shard_partition_validation_and_empty_shards():
    spec = EnumSpec(n=2, e=1, height_squared_max=4)
    assert shard_partition(spec, 1) == [spec]
    lo, hi = leading_range(spec)
    many = shard_partition(spec, (hi - lo + 1) + 5)
    assert any(not list(enumerate_subspaces(s)) for s in many)
    with pytest.raises(ParameterError):
        shard_partition(spec, 0)
    with pytest.raises(ParameterError):
        shard_partition(shard_partition(spec, 2)[0], 2)


def test_events_checkpoint_resume():
    spec = EnumSpec(n=2, e=1, height_squared_max=64)
    events = list(enumerate_events(spec))
    assert events == list(enumerate_events(spec)), "stream is not deterministic"
    full = [s.pluecker.coords for kind, s in events if kind == SUBSPACE]

    cut = [i for i, (kind, _) in enumerate(events) if kind == CHECKPOINT][1]
    cursor = events[cut][1]
    head = [s.pluecker.coords for kind, s in events[: cut + 1] if kind == SUBSPACE]
    tail = [
        s.pluecker.coords
        for kind, s in enumerate_events(spec, cursor=cursor)
        if kind == SUBSPACE
    ]
    assert head + tail == full


def test_checkpoints_cover_leading_range():
    spec = EnumSpec(n=3, e=1, height_squared_max=16)
    lo, hi = leading_range(spec)
    marks = [c for kind, c in enumerate_events(spec) if kind == CHECKPOINT]
    assert marks == list(range(lo, hi + 1))


def test_echelon_resumes_from_a_checkpoint():
    spec = EnumSpec(n=5, e=3, height_squared_max=9, strategy=EXACT_ECHELON)
    events = list(enumerate_events(spec))
    assert leading_range(spec) == (1, 3)
    assert [c for kind, c in events if kind == CHECKPOINT] == [1, 2, 3]
    full = [s.pluecker.coords for kind, s in events if kind == SUBSPACE]
    cut = events.index((CHECKPOINT, 1))
    head = [s.pluecker.coords for kind, s in events[:cut] if kind == SUBSPACE]
    tail = [s.pluecker.coords for s in enumerate_subspaces(spec, cursor=1)]
    assert head and tail and head + tail == full


# ---------------------------------------------------------------------------
# census counts against Schmidt's asymptotic formula


def ball_volume(i):
    return math.pi ** (i / 2) / math.gamma(i / 2 + 1)


def schmidt_constant(n, e):
    """c(n, e) with about c(n, e) X^(n/2) rational e-subspaces of R^n of
    squared height at most X (Schmidt, Duke Math. J. 35, 1968):
    c = (1/n) C(n, e) prod_{n-e<i<=n} V(i)/zeta(i) / prod_{i<=e} V(i)
    * prod_{2<=i<=e} zeta(i), with V(i) the volume of the unit i-ball."""
    c = math.comb(n, e) / n
    for i in range(n - e + 1, n + 1):
        c *= ball_volume(i) / float(zeta(i))
    for i in range(1, e + 1):
        c /= ball_volume(i)
    for i in range(2, e + 1):
        c *= float(zeta(i))
    return c


def census(n, e, hmax2):
    return enumerate_subspaces(EnumSpec(n, e, hmax2, exact_strategy(n, e)))


@pytest.mark.parametrize(
    "n, e, hmax2, count, tol",
    [
        (2, 1, 100_000, 95_520, 5e-4),
        (3, 1, 2_000, 155_833, 1e-4),
        (3, 2, 2_000, 155_833, 1e-4),
        (4, 1, 300, 205_744, 5e-3),
    ],
)
def test_line_and_hyperplane_counts_follow_schmidt(n, e, hmax2, count, tol):
    """Relative errors 2.8e-4, -4.4e-5, -4.4e-5 and 2.8e-3 at these bounds."""
    got = sum(1 for _ in census(n, e, hmax2))
    assert got == count
    assert abs(got / (schmidt_constant(n, e) * hmax2 ** (n / 2)) - 1) < tol


def test_plane_counts_in_four_space_approach_schmidt():
    """N(X) for planes in R^4 swings with the arithmetic of single heights
    (-18% at X = 25, +3% at X = 30), so the errors are compared over the
    dyadic windows (15, 30], (30, 60] and (60, 120]: both their mean and
    their largest value shrink as X grows (about -6.2%, -5.5%, -3.6% and
    18%, 13%, 8%)."""
    per_height = Counter(sub.height_squared for sub in census(4, 2, 120))
    counts = list(itertools.accumulate(per_height.get(x, 0) for x in range(121)))
    assert counts[60] == 21_626
    c = schmidt_constant(4, 2)
    windows = []
    for lo in (15, 30, 60):
        errs = [counts[x] / (c * x * x) - 1 for x in range(lo + 1, 2 * lo + 1)]
        windows.append((abs(sum(errs) / len(errs)), max(map(abs, errs))))
    means, peaks = zip(*windows)
    assert means[0] > means[1] > means[2] and means[2] < 0.04
    assert peaks[0] > peaks[1] > peaks[2] and peaks[2] < 0.1
