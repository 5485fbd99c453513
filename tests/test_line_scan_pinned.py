"""Exact line-record scans compared bit-for-bit with pinned rows.

The rows in data/line_scan_rows.jsonl were recorded with the Fraction-based
scanner that preceded the integer kernel.  Every record (coordinates, h^2,
psi_lo, psi_hi), every witness and every exact-meeting vector must come out
unchanged.  The `scanned` counts were changed on purpose since: they count
the rows the line walk keys (the two height-1 rows plus the walk's nodes
and probes, up to and including a meeting line), no longer the
rounding-window pool the scanner once swept; the meeting offender's went
from 62 to 6.  When the Stern-Brocot walk replaced the shell walk they
moved again, quadratic-a 20 -> 23, quadratic-neg-b 14 -> 20,
instance-l1-b3 13 -> 16, rational-exact 19 -> 22 and rational-half 4 -> 8,
and the meeting offender's stayed at 6.  Regenerate the file with

    PYTHONPATH=src python tests/test_line_scan_pinned.py > tests/data/line_scan_rows.jsonl

only when a change to the scan outputs is intended.
"""

import json
import logging
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subdioph import construction as con
from subdioph import estimation as est
from subdioph.enumeration import EXACT_LINES, EnumSpec
from subdioph.errors import IrrationalityViolationError
from embedded_lines import embedded_line_records

DATA = Path(__file__).parent / "data" / "line_scan_rows.jsonl"

# non-unit denominators in both parts; the second slope has b < 0
QUADRATIC_A = est.QuadraticLineTarget(Fraction(5, 7), Fraction(2, 9), 13)
QUADRATIC_NEG_B = est.QuadraticLineTarget(Fraction(17, 6), Fraction(-3, 4), 11)
# exact negative slope (key = lo2); it meets no line below h^2 ~ 1.4e14
RATIONAL_EXACT = est.RationalLineTarget(Fraction(-8890123, 7654321))
# bracket midpoint exactly 1/2: every odd x1 rounds a half to even
RATIONAL_HALF = est.RationalLineTarget(
    Fraction(1, 2) - Fraction(1, 10**12), Fraction(2, 10**12)
)


def instance_target(h2):
    params = con.ConstructionParams.create(1, 3, seed=12345)
    return est.line_target_for_instance(params, height_squared_max=h2)


def _record_rows(records):
    return [
        [list(r.subspace.pluecker.coords), r.height_squared, repr(r.psi_lo), repr(r.psi_hi)]
        for r in records
    ]


def _plane_case(name, target, h2):
    report = est.irrationality_scan(target, EnumSpec(2, 1, h2, EXACT_LINES))
    return {
        "case": name,
        "records": _record_rows(est.scan_line_records(target, h2)),
        "scanned": report.scanned,
        "min_psi_lower": repr(report.min_psi_lower),
        "witness": list(report.witness.pluecker.coords),
    }


def _embedded_case(name, target, n, h2, axes):
    records = embedded_line_records(target, n, h2, axes=axes)
    return {"case": name, "records": _record_rows(records)}


def _meeting_case(name, scan):
    try:
        scan()
    except IrrationalityViolationError as err:
        return {"case": name, "vector": list(err.vector)}
    raise AssertionError(f"{name}: no exact meeting was reported")


def line_scan_rows():
    """One row per pinned case, in file order."""
    meeting = est.RationalLineTarget(Fraction(3, 5))
    offender = est.irrationality_scan(meeting, EnumSpec(2, 1, 100, EXACT_LINES))
    return [
        _plane_case("quadratic-a", QUADRATIC_A, 10**6),
        _plane_case("quadratic-neg-b", QUADRATIC_NEG_B, 10**6),
        _plane_case("instance-l1-b3", instance_target(10**7), 10**7),
        _plane_case("rational-exact", RATIONAL_EXACT, 10**6),
        _plane_case("rational-half", RATIONAL_HALF, 10**5),
        _embedded_case("embedded-r3-01", QUADRATIC_A, 3, 10**5, (0, 1)),
        _embedded_case("embedded-r4-13", QUADRATIC_NEG_B, 4, 10**5, (1, 3)),
        _embedded_case("embedded-r3-02-instance", instance_target(10**6), 3, 10**6, (0, 2)),
        _meeting_case("meeting-plane",
                      lambda: est.scan_line_records(meeting, 100)),
        _meeting_case("meeting-r4-13",
                      lambda: embedded_line_records(meeting, 4, 100, axes=(1, 3))),
        {"case": "meeting-offender", "vector": list(offender.offender.pluecker.coords),
         "scanned": offender.scanned, "ok": offender.ok},
    ]


@pytest.fixture(scope="module")
def rows():
    return line_scan_rows()


PINNED = [json.loads(line) for line in DATA.read_text(encoding="utf-8").splitlines()]


def test_case_list_matches(rows):
    assert [r["case"] for r in rows] == [p["case"] for p in PINNED]


@pytest.mark.parametrize("index", range(len(PINNED)), ids=[p["case"] for p in PINNED])
def test_rows_bit_identical(rows, index):
    assert rows[index] == PINNED[index]


def test_meeting_vectors(rows):
    by_case = {r["case"]: r for r in rows}
    assert by_case["meeting-plane"]["vector"] == [5, 3]
    assert by_case["meeting-r4-13"]["vector"] == [0, 5, 0, 3]
    assert by_case["meeting-offender"]["vector"] == [5, 3]


def test_meeting_offender_counts_the_rows_keyed_up_to_it(caplog):
    """The line path counts the rows its walk keyed, the two height-1 rows
    plus the nodes (1, 1), (2, 1), (3, 2) and the offender, as its DEBUG
    line reports them; the generic path counts the enumeration up to it.
    Both name the same offender."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    spec = EnumSpec(2, 1, 100, EXACT_LINES)
    fast = est.irrationality_scan(est.RationalLineTarget(Fraction(3, 5)), spec)
    message = [r.getMessage() for r in caplog.records if r.name == "subdioph"][-1]
    counts = dict(f.split("=") for f in message.removeprefix("scan_lines: ").split())
    generic = est.irrationality_scan([[5], [3]], spec)
    assert fast.offender.pluecker.coords == generic.offender.pluecker.coords == (5, 3)
    assert fast.scanned == 2 + int(counts["nodes"]) + int(counts["probes"]) == 6
    assert generic.scanned == 62


def full_list_report(target, n, h2):
    """The irrationality report read off the whole record list: the last
    record's line and double lower end, its exact lower end's sign from
    the slope bracket itself, and the rows the walk keyed; for a line that
    meets the target, the meeting line and the rows keyed up to it."""
    spec = EnumSpec(n, 1, h2)
    try:
        engine, raw, keyed, place = est._line_scan(target, spec)
    except IrrationalityViolationError as err:
        return None, "0x0.0p+0", False, err.scanned, err.vector
    last = est._line_records(engine, raw, place)[-1]
    x1, x2 = last.subspace.pluecker.coords[:2]
    if isinstance(target, est.QuadraticLineTarget):
        ok = True  # an irrational slope meets no line
    else:
        s_lo, s_hi = target.slope_bracket()
        ok = not (x1 and s_lo <= Fraction(x2, x1) <= s_hi)
    return last.subspace.pluecker.coords, last.psi_lo.hex(), ok, keyed, None


WITNESS_CASES = {
    "quadratic-a": (lambda: QUADRATIC_A, 10**6),
    "quadratic-neg-b": (lambda: QUADRATIC_NEG_B, 10**6),
    "instance-l1-b3": (lambda: instance_target(10**7), 10**7),
    "rational-exact": (lambda: RATIONAL_EXACT, 10**6),
    "rational-half": (lambda: RATIONAL_HALF, 10**5),
    "meeting-offender": (lambda: est.RationalLineTarget(Fraction(3, 5)), 100),
    "golden-1e40": (est.golden_line_target, 10**40),
    "golden-1e400": (est.golden_line_target, 10**400),
    "instance-seed0-1e7": (
        lambda: est.line_target_for_instance(con.ConstructionParams.create(1, 3, seed=0), 10**7),
        10**7,
    ),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", list(WITNESS_CASES))
def test_witness_scan_matches_the_full_record_list(case, n):
    """A line irrationality scan builds its witness alone, and reports what
    the full record list's last record gives: the golden line at 10^400
    is ok with a 0.0 lower double, and the meeting keeps its offender."""
    make, h2 = WITNESS_CASES[case]
    report = est.irrationality_scan(make(), EnumSpec(n, 1, h2))
    got = (
        None if report.witness is None else report.witness.pluecker.coords,
        report.min_psi_lower.hex(), report.ok, report.scanned,
        None if report.offender is None else report.offender.pluecker.coords,
    )
    assert got == full_list_report(make(), n, h2)
    pinned = {p["case"]: p for p in PINNED}.get(case)
    if pinned is not None and n == 2:
        assert report.scanned == pinned["scanned"]
    if case == "golden-1e400":
        assert report.ok and report.min_psi_lower == 0.0


if __name__ == "__main__":
    for row in line_scan_rows():
        sys.stdout.write(json.dumps(row, separators=(",", ":")) + "\n")
