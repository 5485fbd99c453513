"""CLI data streams and generic scan records compared with pinned values.

data/cli_stream_digests.json holds the sha256 of each CLI data stream below
(header suppressed) and data/generic_scan_rows.jsonl every record of the
generic (angle-based) scans, with psi bounds as float hex.  Both were
recorded before enumeration yielded label-first subspaces; the streams and
records must stay byte-identical.  Regenerate both files with

    PYTHONPATH=src python tests/test_pinned_streams.py

only when a change to these outputs is intended.
"""

import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from subdioph import construction as con
from subdioph import estimation as est
from subdioph.cli import run_command
from subdioph.enumeration import EXACT_LINES, EXACT_PLUECKER, EnumSpec, exact_strategy

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "cli_stream_digests.json"
SCAN_ROWS = DATA / "generic_scan_rows.jsonl"

LABELS = {
    "plane-r4": {"n": 4, "e": 2, "coords": [1, -2, 3, 5, -1, -13]},
    "line-r3": {"n": 3, "e": 1, "coords": [2, -3, 7]},
    "hyperplane-r4": {"n": 4, "e": 3, "coords": [1, 4, -2, 5]},
}

CLI_CASES = {
    "enumerate-lines-r3-jsonl": ["enumerate", "--n", "3", "--e", "1", "--hmax-squared", "500"],
    "enumerate-lines-r3-csv": ["enumerate", "--n", "3", "--e", "1", "--hmax-squared", "500",
                               "--format", "csv"],
    "enumerate-planes-r4": ["enumerate", "--n", "4", "--e", "2", "--hmax-squared", "14"],
    "enumerate-hyperplanes-r3": ["enumerate", "--n", "3", "--e", "2", "--hmax-squared", "25"],
    "enumerate-planes-r4-shard-1-of-3": ["enumerate", "--n", "4", "--e", "2",
                                         "--hmax-squared", "30", "--shards", "3",
                                         "--shard-index", "1"],
    "records-l2-b3": ["records", "--ell", "2", "--beta", "3", "--hmax-squared", "14"],
    "records-l2-b3-j1-seed-1": ["records", "--ell", "2", "--beta", "3", "--j", "1",
                                "--seed", "1", "--hmax-squared", "14"],
    "estimate-l2-b3-j1-seed-1": ["estimate", "--ell", "2", "--beta", "3", "--j", "1",
                                 "--seed", "1", "--hmax-squared", "14"],
    "records-l2-inf-seed-9": ["records", "--ell", "2", "--beta", "inf", "--seed", "9",
                              "--hmax-squared", "8"],
}

# a plane and a line of large height, so no small subspace contains them
TARGET_PLANE = [[1, 0], [0, 1], [Fraction(-37, 91), Fraction(52, 77)],
                [Fraction(15, 29), Fraction(-64, 83)]]
TARGET_LINE = [[1], [Fraction(-47, 53)], [Fraction(29, 71)]]


def cli_stream(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command([*argv, "--no-header"], stdout=out, stderr=err)
    assert err.getvalue() == ""
    return code, out.getvalue()


def cli_digests():
    """sha256 and exit code of every pinned CLI stream, in a fixed order."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = dict(CLI_CASES)
        for name, label in LABELS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(label), encoding="utf-8")
            cases[f"decode-{name}"] = ["decode", "--pluecker", str(path)]
        for name, argv in cases.items():
            code, data = cli_stream(argv)
            out[name] = {"exit": code, "sha256": hashlib.sha256(data.encode()).hexdigest()}
    return out


def _record_rows(records):
    return [
        [list(r.subspace.pluecker.coords), r.height_squared, r.psi_lo.hex(), r.psi_hi.hex()]
        for r in records
    ]


def _irrationality_row(report):
    return {
        "scanned": report.scanned,
        "min_psi_lower": report.min_psi_lower.hex(),
        "witness": list(report.witness.pluecker.coords),
        "ok": report.ok,
    }


def scan_rows():
    """One row per generic scan case, in file order."""
    planes = EnumSpec(4, 2, 8, EXACT_PLUECKER)
    lines = EnumSpec(3, 1, 40, EXACT_LINES)
    hyperplanes = EnumSpec(3, 2, 40, EXACT_LINES)
    gens = con.build_generators(con.ConstructionParams.create(2, Fraction(5, 2), seed=11), 3)
    return [
        {"case": "plane-vs-planes-r4-j1",
         "records": _record_rows(est.scan_records(TARGET_PLANE, planes, j_index=1))},
        {"case": "plane-vs-planes-r4-j2",
         "records": _record_rows(est.scan_records(TARGET_PLANE, planes, j_index=2))},
        {"case": "l2-generators-vs-planes-r4-j2",
         "records": _record_rows(est.scan_records(gens.real_basis(), planes, j_index=2))},
        {"case": "line-vs-lines-r3",
         "records": _record_rows(est.scan_records(TARGET_LINE, lines))},
        {"case": "line-vs-hyperplanes-r3",
         "records": _record_rows(est.scan_records(TARGET_LINE, hyperplanes))},
        {"case": "irrationality-plane-vs-planes-r4",
         **_irrationality_row(est.irrationality_scan(TARGET_PLANE, planes, j_index=2))},
        {"case": "irrationality-line-vs-lines-r3",
         **_irrationality_row(est.irrationality_scan(TARGET_LINE, lines))},
    ]


PINNED_DIGESTS = json.loads(DIGESTS.read_text(encoding="utf-8"))
PINNED_ROWS = [json.loads(line) for line in SCAN_ROWS.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def digests():
    return cli_digests()


@pytest.fixture(scope="module")
def rows():
    return scan_rows()


def test_cli_case_list_matches(digests):
    assert list(digests) == list(PINNED_DIGESTS)


@pytest.mark.parametrize("name", list(PINNED_DIGESTS))
def test_cli_stream_byte_identical(digests, name):
    assert digests[name] == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", [name for name in CLI_CASES if name.startswith("records-l2")])
def test_instance_rows_hold_for_the_true_target(name):
    """An ell >= 2 instance row is the scan of the truncated generators
    widened by their angle_slack: each end lies at least one ulp outside
    the truncated target's bracket."""
    argv = CLI_CASES[name]
    flags = dict(zip(argv[1::2], argv[2::2]))
    ell, hmax = int(flags["--ell"]), int(flags["--hmax-squared"])
    infinite = con.is_infinite_beta(flags["--beta"])
    params = con.ConstructionParams.create(
        ell, None if infinite else Fraction(flags["--beta"]), seed=int(flags.get("--seed", 0)),
        variant=con.INFINITE if infinite else con.FINITE,
    )
    gens = con.build_generators(params, est.series_depth(params, hmax, 1))
    spec = EnumSpec(params.n, ell, hmax, exact_strategy(params.n, ell))
    truncated = est.scan_records(gens.real_basis(), spec, j_index=int(flags.get("--j", ell)))
    widened = est.widen_records(truncated, est._float_up(gens.angle_slack))
    rows = [json.loads(line) for line in cli_stream(argv)[1].splitlines()]
    assert rows and len(rows) == len(truncated)
    assert [(row["psiLo"], row["psiHi"]) for row in rows] == [
        (rec.psi_lo, rec.psi_hi) for rec in widened
    ]
    assert all(row["psiLo"] < rec.psi_lo and row["psiHi"] > rec.psi_hi
               for row, rec in zip(rows, truncated))


def test_scan_case_list_matches(rows):
    assert [r["case"] for r in rows] == [p["case"] for p in PINNED_ROWS]


@pytest.mark.parametrize("index", range(len(PINNED_ROWS)), ids=[p["case"] for p in PINNED_ROWS])
def test_scan_rows_bit_identical(rows, index):
    assert rows[index] == PINNED_ROWS[index]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(cli_digests(), indent=1) + "\n", encoding="utf-8")
    SCAN_ROWS.write_text(
        "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in scan_rows()),
        encoding="utf-8",
    )
    sys.stdout.write(f"wrote {DIGESTS.name} and {SCAN_ROWS.name}\n")
