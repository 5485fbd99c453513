"""Tests for report serialization and the command-line front end."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from subdioph import angles
from subdioph import cli
from subdioph import construction as con
from subdioph import enumeration
from subdioph import estimation as est
from subdioph import exact
from subdioph import morphisms as mor
from subdioph import reports
from subdioph.cli import run_command
from subdioph.errors import ParameterError, SerializationError

DATA = Path(__file__).parent / "data"
VERIFY_SEEDS_0_TO_19_SHA256 = "21071f747a6cf29f6aec52e4ae7defb5e31f868e6bc32fb260b28b1989f62c8f"
VERIFY_SEEDS_0_TO_9_ROWS_SHA256 = "521bff577baeaff97d4292b81623fc049076e2e46a791019e31529a1dddd734b"
# every draw of every verify suite for seeds 0-9, the matrices drawn from
# them and each generator's final state (see test_suites_draw_what_they_drew)
VERIFY_DRAWS_SEEDS_0_TO_9_SHA256 = "d7645cd64db6d7f1dc1559d91f395a34741bb4772d5daaf32e00a0370d6781bc"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def line_basis(tmp_path):
    return write_json(
        tmp_path / "basis.json", {"n": 2, "e": 1, "basis": [["3"], ["4"]]}
    )


@pytest.fixture
def t3_pair(tmp_path):
    """Two 3-spaces of R^5 with three principal angles; they share a
    direction, so their first sine is an exact 0."""
    a = write_json(tmp_path / "t3a.json",
                   {"n": 5, "e": 3, "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                              [1, 2, 3], [4, 5, 7]]})
    b = write_json(tmp_path / "t3b.json",
                   {"n": 5, "e": 3, "basis": [[1, 0, 2], [0, 1, 1], [3, 0, 1],
                                              [1, 1, 1], [0, 2, 5]]})
    return a, b


def refuse_svd(monkeypatch):
    """No SVD on the data path: mpmath's svd_r raises."""

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD on the data path")

    monkeypatch.setattr(mp, "svd_r", refuse)


class TestEmitReport:
    def test_jsonl_big_integers_become_decimal_strings(self):
        stream = io.StringIO()
        reports.emit_report(
            [{"small": 7, "big": 2**80}], reports.JSONL, stream, no_header=True
        )
        record = json.loads(stream.getvalue())
        assert record["small"] == 7
        assert record["big"] == str(2**80)

    def test_exact_str_small_values_match_str(self):
        for value in (0, 7, -7, 2**53, -(2**80), 10**602, Fraction(-3, 4), Fraction(5)):
            assert reports.exact_str(value) == str(value)

    def test_exact_str_beyond_the_int_str_digit_limit(self):
        value = -(7**20000)  # 16,902 digits
        text = reports.exact_str(value)
        assert len(text) == 16903 and text.startswith("-")
        assert int(text[-30:]) == -value % 10**30
        assert reports.exact_str(Fraction(value, 3)) == f"{text}/3"

    def test_header_only_for_empty_list(self):
        stream = io.StringIO()
        reports.emit_report([], reports.JSONL, stream, command="records")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["command"] == "records"

    def test_no_header_empty_list_writes_nothing(self):
        stream = io.StringIO()
        reports.emit_report([], reports.JSONL, stream, no_header=True)
        assert stream.getvalue() == ""

    def test_mixed_type_list_rejected(self):
        stream = io.StringIO()
        with pytest.raises(SerializationError):
            reports.emit_report(
                [{"values": [1, "two"]}], reports.JSONL, stream, no_header=True
            )

    def test_non_finite_float_rejected(self):
        stream = io.StringIO()
        with pytest.raises(SerializationError):
            reports.emit_report(
                [{"x": float("inf")}], reports.JSONL, stream, no_header=True
            )

    def test_csv_flattens_nested_keys_with_stable_columns(self):
        stream = io.StringIO()
        reports.emit_report(
            [
                {"a": 1, "nested": {"x": 2.5, "y": "z"}},
                {"a": 2, "nested": {"x": 3.5, "y": "w"}, "extra": True},
            ],
            reports.CSV,
            stream,
            no_header=True,
        )
        lines = stream.getvalue().splitlines()
        assert lines[0] == "a,nested.x,nested.y,extra"
        assert lines[1] == "1,2.5,z,"
        assert lines[2] == "2,3.5,w,true"

    def test_unknown_format_rejected(self):
        with pytest.raises(SerializationError):
            reports.emit_report([], "xml", io.StringIO())


class TestBasicCommands:
    def test_height(self, line_basis):
        code, out, err = run(["height", "--basis", line_basis, "--no-header"])
        assert code == 0
        assert err == ""
        assert json.loads(out) == {"heightSquared": "25"}

    def test_pluecker_decode_roundtrip(self, line_basis, tmp_path):
        code, out, _ = run(["pluecker", "--basis", line_basis, "--no-header"])
        assert code == 0
        emitted = json.loads(out)
        assert emitted["coords"] == ["3", "4"]
        pv_path = write_json(tmp_path / "pv.json", emitted)
        code, out, _ = run(["decode", "--pluecker", pv_path, "--no-header"])
        assert code == 0
        decoded = json.loads(out)
        assert decoded == {"n": 2, "e": 1, "basis": [["3"], ["4"]]}
        basis_path = write_json(tmp_path / "b2.json", decoded)
        code, out, _ = run(["height", "--basis", basis_path, "--no-header"])
        assert json.loads(out) == {"heightSquared": "25"}
        # a plane: its label, the basis decoded from it and that basis's
        # label again, byte for byte
        plane = write_json(tmp_path / "plane.json",
                           {"n": 4, "e": 2, "basis": [[1, 0], [0, 1], [3, 5], [7, -2]]})
        label = '{"n":4,"e":2,"coords":["1","5","-2","-3","-7","-41"],"heightSquared":"1769"}\n'
        basis = '{"n":4,"e":2,"basis":[["2","5"],["7","-3"],["41","0"],["0","41"]]}\n'
        label_path, basis_path = tmp_path / "label.json", tmp_path / "decoded.json"
        assert run(["pluecker", "--basis", plane, "--no-header"]) == (0, label, "")
        label_path.write_text(label, encoding="utf-8")
        assert run(["decode", "--pluecker", str(label_path), "--no-header"]) == (0, basis, "")
        basis_path.write_text(basis, encoding="utf-8")
        assert run(["pluecker", "--basis", str(basis_path), "--no-header"]) == (0, label, "")

    def test_rational_entries(self, tmp_path):
        path = write_json(
            tmp_path / "half.json", {"n": 2, "e": 1, "basis": [["1"], ["1/2"]]}
        )
        code, out, _ = run(["height", "--basis", path, "--no-header"])
        assert code == 0
        assert json.loads(out) == {"heightSquared": "5"}

    def test_angles_between_contained_line_and_plane(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"n": 3, "e": 1, "basis": [[1], [1], [0]]})
        b = write_json(
            tmp_path / "b.json",
            {"n": 3, "e": 2, "basis": [[1, 0], [0, 1], [0, 0]]},
        )
        code, out, _ = run(["angles", "--basis", a, "--basis-b", b, "--no-header"])
        assert code == 0
        record = json.loads(out)
        assert record["jIndex"] == 1
        assert record["sinLo"] == 0.0
        assert not record["resolved"]

    @pytest.mark.parametrize("extra", [[], ["--precision-bits", "128"]])
    def test_angles_bracket_rounds_outward(self, tmp_path, extra):
        # sin = sqrt(2)/2; the nearest double lies above it
        a = write_json(tmp_path / "a.json", {"n": 2, "e": 1, "basis": [[1], [0]]})
        b = write_json(tmp_path / "b.json", {"n": 2, "e": 1, "basis": [[1], [1]]})
        code, out, _ = run(["angles", "--basis", a, "--basis-b", b, "--no-header", *extra])
        assert code == 0
        record = json.loads(out)
        assert Fraction(record["sinLo"]) ** 2 < Fraction(1, 2) < Fraction(record["sinHi"]) ** 2

    def test_angles_fixed_precision(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"n": 2, "e": 1, "basis": [[1], [0]]})
        b = write_json(tmp_path / "b.json", {"n": 2, "e": 1, "basis": [[1], [1]]})
        code, out, _ = run(
            ["angles", "--basis", a, "--basis-b", b, "--no-header",
             "--precision-bits", "128"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["bitsUsed"] == 128
        assert abs(record["sin"] - 0.7071067811865476) < 1e-12

    @pytest.mark.parametrize("rel", ["0", "-1", "1", "2"])
    def test_angles_refuse_a_target_relative_error_outside_zero_one(self, t3_pair, rel):
        """A relative error of 0 made angles_adaptive double toward the bit
        cap on a pair with three angles, and never finish."""
        a, b = t3_pair
        code, out, err = run(["angles", "--basis", a, "--basis-b", b, "--target-rel-err", rel])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, seconds",
        [([], 60), (["--precision-bits", "2000000"], 10),
         (["--precision-bits", "600000", "--target-rel-err", "1e-10"], 10)],
        ids=["default", "bits-2000000", "bits-600000-rel-1e-10"],
    )
    def test_angles_of_a_pair_with_three_angles(self, t3_pair, monkeypatch, flags, seconds):
        """The pair is proved with no SVD: its first sine, an exact 0, prints
        unresolved, the other two resolved, at 512 bits.  A precision above
        the bit cap fails before any mpmath run, with one failure row: both
        of these ran past 60 s before the cap was first looked at."""
        refuse_svd(monkeypatch)
        a, b = t3_pair
        start = time.perf_counter()
        code, out, err = run(["angles", "--basis", a, "--basis-b", b, "--no-header", *flags])
        assert time.perf_counter() - start < seconds
        rows = [json.loads(line) for line in out.splitlines()]
        assert err == ""
        if flags:
            assert code == 1 and [row["error"] for row in rows] == ["PrecisionExhaustedError"]
            return
        assert code == 0 and [row["resolved"] for row in rows] == [False, True, True]
        assert all(row["sinLo"] <= row["sin"] <= row["sinHi"] and row["bitsUsed"] == 512
                   for row in rows)

    @pytest.mark.parametrize("bits", ["-8", "0", "8"])
    def test_angles_refuse_fewer_than_64_bits(self, tmp_path, bits):
        """At --precision-bits -8 the lines (1, 2, 3) and (1, 2, 4) got a
        resolved sine of 2."""
        a = write_json(tmp_path / "a.json", {"n": 3, "e": 1, "basis": [[1], [2], [3]]})
        b = write_json(tmp_path / "b.json", {"n": 3, "e": 1, "basis": [[1], [2], [4]]})
        code, out, err = run(["angles", "--basis", a, "--basis-b", b, "--precision-bits", bits])
        assert (code, out) == (2, "")
        assert err == "error: need at least 64 bits\n"

    def test_enumerate_lines(self):
        code, out, _ = run(
            ["enumerate", "--n", "2", "--hmax-squared", "10", "--no-header"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 12
        assert {"coords": ["0", "1"], "heightSquared": "1"} in rows

    def test_enumerate_shards_partition(self):
        full = run(["enumerate", "--n", "2", "--hmax-squared", "50", "--no-header"])
        parts = []
        for idx in ("0", "1", "2"):
            code, out, _ = run(
                ["enumerate", "--n", "2", "--hmax-squared", "50", "--no-header",
                 "--shards", "3", "--shard-index", idx]
            )
            assert code == 0
            parts.extend(out.splitlines())
        assert sorted(parts) == sorted(full[1].splitlines())


class TestConstructCommand:
    def test_low_beta_is_usage_error(self):
        code, out, err = run(["construct", "--ell", "1", "--beta", "2/1", "--nmax", "2"])
        assert code == 2
        assert out == ""
        assert "beta below admissible threshold" in err

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            ({"ell": 1, "beta": "3", "theta": "x"}, "bad instance descriptor"),
            ({"ell": 1, "beta": "3", "theta": [2]}, "bad instance descriptor"),
            ({"ell": 1, "beta": None, "variant": "finite"}, "bad instance descriptor"),
            ({"ell": 1, "beta": [1], "variant": "finite"}, "bad instance descriptor"),
            ({"ell": 1, "beta": "1/0"}, "bad instance descriptor"),
            ({"ell": 1, "beta": "3", "variant": "weird"}, "unknown variant 'weird'"),
            ({"ell": 1.7, "beta": "3", "theta": 5.9, "seed": True}, "bad instance descriptor"),
            ({"ell": 1, "beta": "3", "variant": "infinite"}, "bad instance descriptor"),
        ],
        ids=["theta-text", "theta-list", "beta-null", "beta-list", "beta-zero-denominator",
             "unknown-variant", "coerced-numbers", "infinite-finite-beta"],
    )
    def test_malformed_instance_is_usage_error(self, tmp_path, descriptor, message):
        path = write_json(tmp_path / "instance.json", descriptor)
        code, out, err = run(["construct", "--instance", path, "--nmax", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_certify_emits_jsonl_checks(self):
        code, out, _ = run(
            ["construct", "--ell", "1", "--beta", "3/1", "--nmax", "2",
             "--certify", "--no-header"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(row["ok"] for row in rows)
        checks = {row["check"] for row in rows}
        assert "quantities" in checks
        heights = [row["height_squared"] for row in rows if row["check"] == "quantities"]
        assert heights[0] == "18434"

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (["--ell", "1", "--beta", "3", "--nmax", "4"], "construct_certify_l1_b3_n4.jsonl"),
            (["--ell", "2", "--beta", "5/2", "--nmax", "1"], "construct_certify_l2_b5_2_n1.jsonl"),
        ],
    )
    def test_certify_rows_match_pinned_output(self, argv, pinned, monkeypatch):
        # rows recorded from the mpmath precision-doubling engine, now
        # proved from integer brackets: the angle engine and
        # AngleProfile.widened raise
        def refuse(*args, **kwargs):
            raise AssertionError("an ell <= 2 certificate called the angle engine or widened a profile")

        monkeypatch.setattr(angles, "angles_adaptive", refuse)
        # construction imports no angle engine: one it imported would raise too
        monkeypatch.setattr(con, "angles_adaptive", refuse, raising=False)
        monkeypatch.setattr(angles.AngleProfile, "widened", refuse)
        start = time.perf_counter()
        code, out, _ = run(["construct", *argv, "--certify", "--no-header"])
        assert time.perf_counter() - start < 60
        assert code == 0
        assert out == (DATA / pinned).read_text(encoding="utf-8")

    def test_certify_fails_on_a_non_primitive_first_convergent(self):
        code, out, _ = run(["construct", "--ell", "2", "--beta", "inf", "--seed", "1",
                            "--nmax", "2", "--certify", "--no-header"])
        assert code == 1
        assert out == (
            '{"type":"failure","error":"CertificationFailure",'
            '"detail":"check \'primitive-basis\' failed at N=1",'
            '"check":"primitive-basis","n_index":1}\n'
        )

    def test_heights_beyond_the_int_str_digit_limit(self):
        code, out, err = run(
            ["construct", "--ell", "2", "--beta", "5/2", "--nmax", "4", "--no-header"]
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        params = con.ConstructionParams.create(2, Fraction(5, 2))
        expected = con.build_convergent(params, 4).height_squared
        assert len(rows[-1]["heightSquared"]) > 4300
        assert rows[-1]["heightSquared"] == reports.exact_str(expected)
        assert rows[-1]["heightSquared"][-12:] == str(expected % 10**12).zfill(12)

    def test_convergent_listing_reads_each_digit_once(self, monkeypatch):
        reads = []
        digit = con.SeededDigitStream.digit

        def counted(stream, i, j, k):
            reads.append((i, j, k))
            return digit(stream, i, j, k)

        monkeypatch.setattr(con.SeededDigitStream, "digit", counted)
        code, _out, err = run(
            ["construct", "--ell", "2", "--beta", "5/2", "--nmax", "4", "--no-header"]
        )
        assert code == 0, err
        # four entries at the indices 0 to 4 of the finite variant
        assert len(set(reads)) == len(reads) == 20

    def test_convergent_listing(self):
        code, out, _ = run(
            ["construct", "--ell", "1", "--beta", "3", "--nmax", "1", "--no-header"]
        )
        assert code == 0
        descriptor, row = [json.loads(line) for line in out.splitlines()]
        assert descriptor == {
            "ell": 1, "beta": "3", "theta": 5, "seed": 0, "variant": "finite"
        }
        assert row["coords"] == ["125", "53"]
        assert row["heightSquared"] == "18434"

    def test_infinite_variant(self):
        code, out, _ = run(
            ["construct", "--ell", "1", "--beta", "inf", "--nmax", "1", "--no-header"]
        )
        assert code == 0
        descriptor = json.loads(out.splitlines()[0])
        assert descriptor["variant"] == "infinite"
        assert descriptor["theta"] == 3


class TestScanCommands:
    def test_records_instance_line(self):
        code, out, _ = run(
            ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "100000",
             "--no-header"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["heightSquared"] == "1"
        assert rows[-1]["coords"] == ["125", "53"]
        assert all(row["psiLo"] <= row["psiHi"] for row in rows)

    # rows and sha256 of records --ell 1 --beta 3 --seed 0 by height bound
    LARGE_WINDOWS = {
        10**12: (43, "68ea03098f0572e68df64341a1bc66e4c00d8d62777399595ff065edbaf5f4f1"),
        10**24: (45, "9122cd381ef51f02c28eee74a1fd40618fd893f4be91b5e2ce0252c84cb0f866"),
    }

    def test_records_over_a_large_window(self):
        """H^2 <= 10^12: the line walk follows the slope's continued
        fraction from height 1 and finds the 43 records that the
        rounding-window pool gave, row for row.  Below H^2 = 10^24 the line
        has a huge partial quotient; the walk crosses it with a few keyed
        rows, within 20 s, and the records keep their bytes."""
        for hmax, (count, digest) in self.LARGE_WINDOWS.items():
            start = time.perf_counter()
            code, out, err = run(
                ["records", "--ell", "1", "--beta", "3", "--seed", "0",
                 "--hmax-squared", str(hmax), "--no-header"]
            )
            assert time.perf_counter() - start < 20
            assert (code, err) == (0, "")
            rows = [json.loads(line) for line in out.splitlines()]
            assert len(rows) == count
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            heights = [int(row["heightSquared"]) for row in rows]
            assert heights == sorted(set(heights)) and heights[-1] <= hmax

    def test_records_stay_within_a_unit_height_bound(self):
        code, out, err = run(
            ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "1", "--no-header"]
        )
        assert (code, err) == (0, "")
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(row["heightSquared"], row["coords"]) for row in rows] == [("1", ["1", "0"])]

    @pytest.mark.parametrize("ell, beta", [("1", "3"), ("2", "5/2")])
    @pytest.mark.parametrize("hmax", ["0", "-1"])
    def test_nonpositive_height_bound_is_usage_error(self, ell, beta, hmax):
        code, out, err = run(["records", "--ell", ell, "--beta", beta, "--hmax-squared", hmax])
        assert (code, out, err) == (2, "", "error: height bound must be positive\n")

    def test_records_from_instance_file(self, tmp_path):
        path = write_json(
            tmp_path / "inst.json",
            {"ell": 1, "beta": "3", "theta": 5, "seed": 0, "variant": "finite"},
        )
        direct = run(
            ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "50000",
             "--no-header"]
        )
        via_file = run(
            ["records", "--instance", path, "--hmax-squared", "50000", "--no-header"]
        )
        assert direct == via_file

    def test_records_for_a_three_space_instance(self):
        # shape (6, 3) has only the echelon census
        code, out, err = run(
            ["records", "--ell", "3", "--beta", "9/4", "--hmax-squared", "2",
             "--no-header"]
        )
        assert (code, err) == (0, "")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 1 and rows[0]["jIndex"] == 3
        assert 0 < rows[0]["psiLo"] <= rows[0]["psiHi"]

    def test_records_for_a_plane_instance(self):
        code, out, err = run(
            ["records", "--ell", "2", "--beta", "3", "--hmax-squared", "2",
             "--no-header"]
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows and all(row["jIndex"] == 2 for row in rows)
        assert all(0 < row["psiLo"] <= row["psiHi"] for row in rows)

    def test_estimate_summary_line(self):
        code, out, _ = run(
            ["estimate", "--ell", "1", "--beta", "3", "--hmax-squared", "100000",
             "--no-header"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert set(summary) == {"muHat", "recordCount", "window", "burnIn"}
        assert 2.0 < summary["muHat"] < 3.5

    def test_rational_target_meeting_is_check_failure(self, tmp_path):
        path = write_json(
            tmp_path / "t.json", {"n": 2, "e": 1, "basis": [["1"], ["2"]]}
        )
        code, out, _ = run(
            ["records", "--basis", path, "--hmax-squared", "100", "--no-header"]
        )
        assert code == 1
        failure = json.loads(out.splitlines()[-1])
        assert failure["type"] == "failure"
        assert failure["error"] == "IrrationalityViolationError"

    def test_too_few_records_is_check_failure(self):
        code, out, _ = run(
            ["estimate", "--ell", "1", "--beta", "3", "--hmax-squared", "3",
             "--no-header"]
        )
        assert code == 1
        failure = json.loads(out.splitlines()[-1])
        assert failure["error"] == "InsufficientRecordsError"

    # exit code and sha256 of exclusivity at ell = 2, which fails at these
    # census heights; the second needs the Gram determinant of generators
    # truncated at depth 6, whose entries have about 30k digits
    PLANE_EXCLUSIVITY = {
        ("--beta", "3", "--seed", "1", "--nmax", "3", "--hmax-squared", "14"):
            (1, "d224f164f299249737e32ac01c7198ee8ae66339886eec73b537d34963c91a8b"),
        ("--beta", "5/2", "--seed", "0", "--nmax", "4", "--hmax-squared", "8"):
            (1, "8b208f68f47d528cf185a1a3fddfa8e772eb359b181b61c7e319957cf60751c7"),
    }

    def test_exclusivity_report(self):
        code, out, _ = run(
            ["exclusivity", "--ell", "1", "--beta", "3", "--nmax", "1",
             "--hmax-squared", "100000", "--no-header"]
        )
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        assert report["ok"] is True
        assert report["interlopers"] == []
        # ell = 2 scans at the depth records uses: a deeper scan took
        # about 20 s, so each run has 10 s
        for argv, (want_code, digest) in self.PLANE_EXCLUSIVITY.items():
            start = time.perf_counter()
            code, out, _ = run(["exclusivity", "--ell", "2", *argv, "--no-header"])
            assert time.perf_counter() - start < 10
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, digest)

    def test_harness_golden_default(self):
        code, out, _ = run(
            ["harness", "--n", "3", "--hmax-squared", "10000", "--no-header"]
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert set(payload) == {"muIntrinsic", "muAmbient", "delta", "recordPairs"}
        assert payload["delta"] == 0.0
        assert payload["recordPairs"]

    @pytest.mark.parametrize(
        "beta, n", [("3", 3), ("inf", 3), ("3", 2)], ids=["beta-3", "beta-inf", "n-2"]
    )
    def test_harness_on_an_instance(self, beta, n):
        """An ell = 1 instance's line target, placed in R^n by the
        coordinate plane of the first two axes and its projection."""
        x = 100000
        argv = ["harness", "--ell", "1", "--beta", beta, "--hmax-squared", str(x), "--no-header"]
        code, out, err = run(argv + (["--n", "2"] if n == 2 else []))
        assert code == 0, err
        params = con.params_from_descriptor({"ell": 1, "beta": beta})
        plane = mor.coordinate_embedding(2, n).matrix
        report = mor.embedding_harness(
            est.line_target_for_instance(params, height_squared_max=x),
            exact.RationalSubspace.from_basis(plane),
            mor.RationalMap.from_rows(exact.transpose(plane)), x,
        )
        row = json.loads(out)
        assert row == json.loads(json.dumps(report.as_dict()))
        if beta == "3":
            assert row["muIntrinsic"] == 2.7594624726622823
            assert len(row["recordPairs"]) == 10

    def test_harness_refuses_a_plane_instance(self):
        code, out, err = run(
            ["harness", "--ell", "2", "--beta", "3", "--hmax-squared", "100", "--no-header"]
        )
        assert code == 2 and out == ""
        assert "only when ell = 1" in err


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["heights", "pluecker", "angles", "distortion"])
    def test_suites_pass(self, suite):
        code, out, _ = run(["verify", suite, "--no-header"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows
        assert all(row["ok"] and row["failures"] == 0 for row in rows)

    def test_all_runs_every_suite(self):
        code, out, _ = run(["verify", "all", "--no-header"])
        assert code == 0
        suites = {json.loads(line)["suite"] for line in out.splitlines()}
        assert suites == {"heights", "pluecker", "angles", "distortion"}

    def test_all_passes_on_seeds_0_to_19(self, monkeypatch):
        """Every suite passes on twenty seeds, with no SVD on the data path,
        and the rows are those that the multiprecision invariance check
        gave (digest of the twenty streams, seed 0 first)."""
        refuse_svd(monkeypatch)
        digest = hashlib.sha256()
        start = time.perf_counter()
        for seed in range(20):
            code, out, _ = run(["verify", "all", "--seed", str(seed), "--no-header"])
            rows = [json.loads(line) for line in out.splitlines()]
            assert code == 0, seed
            assert len(rows) == 7 and all(row["ok"] for row in rows), seed
            digest.update(out.encode())
        assert time.perf_counter() - start < 60
        assert digest.hexdigest() == VERIFY_SEEDS_0_TO_19_SHA256


    def test_all_rows_of_seeds_0_to_9_keep_their_bytes(self):
        """The data rows of verify all, header line dropped, for seeds 0-9
        (digest of the ten streams, taken before rank, minors and compounds
        of small integer matrices had their inline and Bareiss lanes)."""
        digest = hashlib.sha256()
        for seed in range(10):
            code, out, _ = run(["verify", "all", "--seed", str(seed)])
            header, rows = out.split("\n", 1)
            assert code == 0 and json.loads(header)["type"] == "header", seed
            digest.update(rows.encode())
        assert digest.hexdigest() == VERIFY_SEEDS_0_TO_9_ROWS_SHA256

    def test_suites_draw_what_they_drew(self, monkeypatch):
        """The rows of a passing seed are the same bytes for every seed, so
        they cannot show which matrices a suite judged.  Each suite gets a
        generator that records its draws, and the matrices that
        _random_full_rank and _rotation return are recorded too, for seeds
        0-9: a faster suite must draw and judge the same matrices."""
        log = []

        class RecordingRandom(random.Random):
            def randint(self, a, b):
                value = super().randint(a, b)
                log.append(("randint", a, b, value))
                return value

            def gauss(self, mu=0.0, sigma=1.0):
                value = super().gauss(mu, sigma)
                log.append(("gauss", mu, sigma, value.hex()))
                return value

        def recorded(name, func):
            def draw(*args, **kwargs):
                out = func(*args, **kwargs)
                log.append((name, repr(out)))
                return out
            return draw

        monkeypatch.setattr(cli, "_random_full_rank", recorded("full-rank", cli._random_full_rank))
        monkeypatch.setattr(cli, "_rotation", recorded("rotation", cli._rotation))
        digest = hashlib.sha256()
        for seed in range(10):
            for name, suite in cli._SUITES.items():
                log.clear()
                rng = RecordingRandom(seed)
                log.append(("rows", repr(suite(rng))))
                log.append(("state", hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()))
                digest.update(repr((seed, name, log)).encode())
        assert digest.hexdigest() == VERIFY_DRAWS_SEEDS_0_TO_9_SHA256


class TestRunPlumbing:
    def test_usage_errors_exit_two_and_keep_data_stream_clean(self):
        for argv in ([], ["frobnicate"], ["height"], ["height", "--basis", "/nope"]):
            code, out, err = run(argv)
            assert code == 2
            assert out == ""

    @pytest.mark.parametrize(
        "command, flag, payload",
        [
            ("decode", "--pluecker", {"n": "x", "e": 2, "coords": [1, 0, 0, 0, 0, 1]}),
            ("decode", "--pluecker", {"n": 4, "e": None, "coords": [1, 0, 0, 0, 0, 1]}),
            ("decode", "--pluecker", {"n": 4, "e": 2, "coords": 5}),
            ("height", "--basis", {"n": "x", "e": 1, "basis": [["3"], ["4"]]}),
            ("height", "--basis", {"n": 2, "e": [1], "basis": [["3"], ["4"]]}),
            ("decode", "--pluecker", {"n": 2, "e": 1, "coords": ["7/2", "1"]}),
            # x12 x34 - x13 x24 + x14 x23 = 4: no plane has this label
            ("decode", "--pluecker", {"n": 4, "e": 2, "coords": [1, 2, 3, 4, 5, 2]}),
        ],
    )
    def test_malformed_headers_are_usage_errors(self, tmp_path, command, flag, payload):
        path = write_json(tmp_path / "bad.json", payload)
        code, out, err = run([command, flag, path])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["height", "--basis"], {"n": 1, "e": 1, "basis": [["BIG"]]}),
            (["decode", "--pluecker"], {"n": 2, "e": 1, "coords": ["BIG", 1]}),
            (["construct", "--nmax", "1", "--instance"], {"ell": 1, "beta": "3", "seed": "BIG"}),
        ],
        ids=["height", "decode", "construct-instance"],
    )
    def test_an_integer_past_the_digit_limit_is_a_usage_error(self, tmp_path, argv, payload):
        """json.load refuses an unquoted integer of more than 4,300 digits
        with a ValueError that is no JSONDecodeError: the CLI exits 2 with
        one error line naming the file, and writes no data."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload).replace('"BIG"', "1" + "0" * 5000), encoding="utf-8")
        code, out, err = run([*argv, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1

    def test_negative_label_shape_is_usage_error(self, tmp_path):
        path = write_json(tmp_path / "label.json", {"n": -1, "e": 1, "coords": []})
        code, out, err = run(["decode", "--pluecker", path])
        assert (code, out) == (2, "")
        assert err == "error: negative shape (-1,1)\n"

    @pytest.mark.parametrize(
        "argv, count",
        [(["--n", "5", "--e", "2"], 1890),
         (["--n", "6", "--e", "3", "--strategy", "exact-echelon"], 12800)],
        ids=["planes-r5", "3-spaces-r6"],
    )
    def test_censuses_in_five_and_six_space(self, argv, count):
        """At H^2 <= 8, within 20 s: the 3-spaces of R^6 walk 70,288
        echelon matrices, each with 20 inline 3 x 3 minors."""
        start = time.perf_counter()
        code, out, err = run(["enumerate", *argv, "--hmax-squared", "8"])
        assert time.perf_counter() - start < 20
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        assert list(json.loads(header)) == ["type", "command", "generated"]
        assert len(rows) == len({tuple(json.loads(row)["coords"]) for row in rows}) == count

    @pytest.mark.parametrize(
        "extra, retired_message",
        [
            (["--basis-box-bound", "1"], "--basis-box-bound only applies to --strategy basis-box"),
            (["--strategy", "exact-lines", "--basis-box-bound", "1"],
             "--basis-box-bound only applies to --strategy basis-box"),
            (["--strategy", "basis-box"], "--strategy basis-box needs --basis-box-bound K"),
            (["--strategy", "basis-box", "--basis-box-bound", "0"], "positive entry bound"),
        ],
    )
    def test_basis_box_bound_usage_errors(self, extra, retired_message):
        # the basis-box strategy and its entry bound are gone: argparse
        # rejects them before any strategy check could run
        code, out, err = run(["enumerate", "--n", "3", "--e", "2", "--hmax-squared", "2", *extra])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert retired_message not in err
        if "basis-box" in extra:
            assert "argument --strategy: invalid choice: 'basis-box'" in err
        else:
            assert "unrecognized arguments: --basis-box-bound 1" in err

    def test_byte_identical_reruns(self):
        argv = ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "50000",
                "--no-header", "--format", "csv"]
        assert run(argv) == run(argv)

    def test_parser_reuse_leaks_nothing_between_calls(self):
        """run_command parses with one parser per process: a call with
        --format csv and --no-header leaves nothing behind for the next."""
        records = ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "5000"]

        def without_timestamp(result):
            code, out, err = result
            head, *body = out.splitlines()
            return code, {k: v for k, v in json.loads(head).items() if k != "generated"}, body, err

        cli.build_parser.cache_clear()
        lone = without_timestamp(run(records))
        enumerate_csv = ["enumerate", "--n", "3", "--hmax-squared", "20", "--format", "csv",
                         "--no-header"]
        assert run(enumerate_csv)[1].startswith("coords,heightSquared\n")
        assert without_timestamp(run(records)) == lone
        assert lone[1] == {"type": "header", "command": "records"}
        assert cli.build_parser() is cli.build_parser()

    def test_header_carries_the_only_timestamp(self):
        argv = ["estimate", "--ell", "1", "--beta", "3", "--hmax-squared", "50000"]
        _, out_a, _ = run(argv)
        _, out_b, _ = run(argv)
        head_a, *data_a = out_a.splitlines()
        head_b, *data_b = out_b.splitlines()
        assert data_a == data_b
        assert json.loads(head_a)["type"] == "header"
        assert json.loads(head_a)["command"] == "estimate"

    def test_out_file(self, tmp_path, line_basis):
        target = tmp_path / "report.jsonl"
        code, out, _ = run(
            ["height", "--basis", line_basis, "--out", str(target), "--no-header"]
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {"heightSquared": "25"}

    def test_failure_stream_is_valid_jsonl(self, tmp_path):
        path = write_json(
            tmp_path / "t.json", {"n": 2, "e": 1, "basis": [["1"], ["2"]]}
        )
        code, out, _ = run(["records", "--basis", path, "--hmax-squared", "100"])
        assert code == 1
        for line in out.splitlines():
            json.loads(line)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_closed_output_stream_keeps_the_exit_code(self, line_basis, fmt):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        for argv, code in (
            (["enumerate", "--n", "3", "--e", "1", "--hmax-squared", "20"], 0),
            (["records", "--basis", line_basis, "--hmax-squared", "100"], 1),
        ):
            err = io.StringIO()
            assert run_command(argv + ["--format", fmt], stdout=ClosedPipe(), stderr=err) == code
            assert err.getvalue() == ""

    def test_closed_pipe_as_out_file(self, line_basis):
        # the row fits the file buffer, so the pipe breaks when it closes
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = ["height", "--basis", line_basis, "--out", f"/dev/fd/{write_end}"]
            assert run(argv) == (0, "", "")
        finally:
            os.close(write_end)

    def test_reader_that_stops_after_one_line(self):
        # about 0.6 MB of rows, far beyond a pipe buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "subdioph.cli", "enumerate", "--n", "3", "--e", "1",
             "--hmax-squared", "500"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert json.loads(first)["type"] == "header"
        assert err == ""

    def test_module_entry_point(self, line_basis):
        proc = subprocess.run(
            [sys.executable, "-m", "subdioph.cli", "height", "--basis", line_basis,
             "--no-header"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"heightSquared": "25"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "3", "--e", "0", "--hmax-squared", "5"],
            ["records", "--basis", "LINE", "--e", "0", "--hmax-squared", "20"],
            ["records", "--basis", "LINE", "--j", "0", "--hmax-squared", "20"],
            ["estimate", "--basis", "LINE", "--e", "0", "--hmax-squared", "20"],
            ["records", "--ell", "1", "--beta", "3", "--j", "0", "--hmax-squared", "20"],
            ["records", "--ell", "1", "--beta", "3", "--n", "0", "--hmax-squared", "20"],
            ["harness", "--n", "0", "--hmax-squared", "100"],
        ],
        ids=["enumerate-e", "records-e", "records-j", "estimate-e", "instance-j",
             "instance-n", "harness-n"],
    )
    def test_an_explicit_zero_is_not_a_missing_flag(self, tmp_path, argv):
        """0 reaches the validators: no default stands in for it."""
        line = write_json(tmp_path / "line.json",
                          {"n": 3, "e": 1, "basis": [["1"], ["2/3"], ["5/7"]]})
        code, out, err = run([line if x == "LINE" else x for x in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["records", "--ell", "1", "--beta", "3", "--e", "0"],
            ["records", "--ell", "1", "--beta", "3", "--e", "2"],
            ["estimate", "--ell", "1", "--beta", "3", "--e", "2"],
            ["records", "--ell", "2", "--beta", "3", "--n", "1"],
            ["records", "--ell", "2", "--beta", "3", "--n", "7"],
            ["estimate", "--ell", "2", "--beta", "3", "--n", "7"],
            ["records", "--ell", "1", "--beta", "3", "--basis", "LINE"],
            ["estimate", "--ell", "2", "--beta", "3", "--basis", "LINE"],
            ["records", "--basis", "LINE", "--n", "7"],
            ["estimate", "--basis", "LINE", "--n", "2"],
            ["construct", "--ell", "1", "--beta", "3", "--nmax", "2", "--depth", "4"],
            ["records", "--ell", "1", "--beta", "3", "--precision-bits", "64"],
            ["records", "--ell", "1", "--beta", "3", "--target-rel-err", "1/1000"],
            ["estimate", "--ell", "1", "--beta", "3", "--precision-bits", "64"],
            ["estimate", "--ell", "1", "--beta", "3", "--target-rel-err", "1/1000"],
            ["exclusivity", "--ell", "1", "--beta", "3", "--nmax", "3", "--precision-bits", "64"],
            ["exclusivity", "--ell", "1", "--beta", "3", "--nmax", "3",
             "--target-rel-err", "1/1000"],
            ["harness", "--seed", "5"],
            ["records", "--basis", "LINE", "--seed", "5"],
            ["records", "--instance", "INSTANCE", "--seed", "7"],
            ["harness", "--instance", "INSTANCE", "--theta", "53"],
            ["construct", "--instance", "INSTANCE", "--ell", "2", "--nmax", "2"],
        ],
        ids=["records-e0", "records-e2", "estimate-e2", "records-n1", "records-n7",
             "estimate-n7", "records-basis-and-instance", "estimate-basis-and-instance",
             "records-basis-n7", "estimate-basis-n2", "construct-depth-without-certify",
             "records-l1-bits", "records-l1-rel-err", "estimate-l1-bits",
             "estimate-l1-rel-err", "exclusivity-l1-bits", "exclusivity-l1-rel-err",
             "harness-seed-without-instance", "records-basis-and-seed",
             "records-instance-and-seed", "harness-instance-and-theta",
             "construct-instance-and-ell"],
    )
    def test_instance_scan_rejects_a_shape_flag_it_would_ignore(self, tmp_path, argv):
        """--e must be the instance's ell, and on the generic path --n its
        n; neither may fall back silently to the instance's own shape.  A
        target basis must be the only target, and fix --n; --depth is read
        by --certify alone.  The exact line engine of an ell = 1 instance
        reads no precision flag, the golden line of a harness without an
        instance no --seed, and an instance file no inline instance flag."""
        files = {
            "LINE": write_json(tmp_path / "line.json",
                               {"n": 3, "e": 1, "basis": [["1"], ["2/3"], ["5/7"]]}),
            "INSTANCE": write_json(tmp_path / "instance.json",
                                   {"ell": 1, "beta": "3", "seed": 0}),
        }
        code, out, err = run([files.get(x, x) for x in argv]
                             + ["--hmax-squared", "20"] * (argv[0] != "construct"))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["records", "--ell", "2", "--beta", "3", "--hmax-squared", "5"],
            ["estimate", "--ell", "2", "--beta", "3", "--j", "1", "--seed", "1",
             "--hmax-squared", "14"],
            ["records", "--basis", "LINE", "--hmax-squared", "30"],
        ],
        ids=["records-l2", "estimate-l2", "records-basis"],
    )
    @pytest.mark.parametrize("flag", [["--precision-bits", "96"], ["--target-rel-err", "1/1000"]])
    def test_a_generic_scan_keeps_the_precision_flags(self, tmp_path, argv, flag):
        line = write_json(tmp_path / "line.json",
                          {"n": 3, "e": 1, "basis": [["1"], ["2/3"], ["5/7"]]})
        code, out, err = run([line if x == "LINE" else x for x in argv] + flag)
        assert (code, err) == (0, "")
        assert out

    def test_basis_n_equal_to_its_rows_keeps_the_scan(self, tmp_path):
        line = write_json(tmp_path / "line.json",
                          {"n": 3, "e": 1, "basis": [["1"], ["2/3"], ["5/7"]]})
        base = ["records", "--basis", line, "--hmax-squared", "30", "--no-header"]
        default = run(base)
        assert default[0] == 0 and default[1]
        assert run([*base, "--n", "3"]) == default

    @pytest.mark.parametrize("strategy", ["exact-lines", "exact-echelon"])
    @pytest.mark.parametrize("verb", ["records", "estimate"])
    def test_strategy_picks_no_engine_for_a_line_target(self, verb, strategy):
        """An ell = 1 instance scans with the line engine whatever --strategy
        says: a census of lines would give other brackets, and take seconds
        (at H^2 <= 10^12, far more than the 30 s it is given)."""
        for hmax in ("100000", "1000000000000"):
            base = [verb, "--ell", "1", "--beta", "3", "--hmax-squared", hmax, "--no-header"]
            default = run(base)
            assert default[0] == 0 and default[1]
            start = time.perf_counter()
            assert run([*base, "--strategy", strategy]) == default
            assert time.perf_counter() - start < 30

    def test_strategy_and_n_scan_lines_in_three_space(self):
        base = ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "100000",
                "--no-header"]
        code, out, err = run([*base, "--n", "3", "--strategy", "exact-lines"])
        assert (code, err) == (0, "")
        plane = [json.loads(line) for line in run(base)[1].splitlines()]
        space = [json.loads(line) for line in out.splitlines()]
        assert [row["coords"] for row in space] == [row["coords"] + ["0"] for row in plane]
        assert [row["psiHi"] for row in space] == [row["psiHi"] for row in plane]

    # the flags each verb reads, of the three that once came with every verb
    READS = {
        "height": (),
        "pluecker": (),
        "decode": (),
        "angles": ("--precision-bits", "--target-rel-err"),
        "enumerate": (),
        "construct": ("--seed",),
        "records": ("--seed", "--precision-bits", "--target-rel-err"),
        "estimate": ("--seed", "--precision-bits", "--target-rel-err"),
        "exclusivity": ("--seed", "--precision-bits", "--target-rel-err"),
        "harness": ("--seed",),
        "verify": ("--seed",),
    }

    @pytest.mark.parametrize("verb", sorted(READS))
    def test_every_flag_a_verb_accepts_is_one_it_reads(self, tmp_path, verb):
        required = {
            "height": ["--basis", "B"],
            "pluecker": ["--basis", "B"],
            "decode": ["--pluecker", "B"],
            "angles": ["--basis", "B", "--basis-b", "B"],
            "verify": ["heights"],
        }.get(verb, [])
        for flag in ("--seed", "--precision-bits", "--target-rel-err"):
            value = "1/1000" if flag == "--target-rel-err" else "64"
            code, out, err = run([verb, *required, flag, value])
            refused = code == 2 and "unrecognized arguments" in err
            assert refused != (flag in self.READS[verb]), (verb, flag, err)
            assert not refused or out == ""

    def test_instance_e_equal_to_ell_keeps_the_line_scan(self):
        base = ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "10000",
                "--no-header"]
        default = run(base)
        assert default[0] == 0 and default[1]
        assert run([*base, "--e", "1"]) == default
        assert run([*base, "--n", "2"]) == default

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_a_label_stream_that_raises_at_once_writes_nothing(self, monkeypatch, fmt):
        def broken(*args):
            raise ParameterError("census refused")
            yield  # a generator: the error comes at the first draw

        # a line window is written from the runs of this census, any other
        # window from its labels
        monkeypatch.setattr(enumeration, "_primitive_with_leading", broken)
        monkeypatch.setattr(cli, "enumerate_labels", broken)
        for n, e in (("3", "1"), ("3", "2"), ("4", "2")):
            code, out, err = run(["enumerate", "--n", n, "--e", e, "--hmax-squared", "5",
                                  "--format", fmt])
            assert (code, out, err) == (2, "", "error: census refused\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_enumerate_streams_in_constant_memory(self, fmt):
        # 155,833 lines; writing them all at once peaked at 126-150 MiB.  The
        # child reports VmHWM, the peak RSS of its own address space:
        # ru_maxrss would carry over the forking test process's size at exec.
        script = (
            "from subdioph.cli import run_command\n"
            "code = run_command(['enumerate', '--n', '3', '--e', '1', '--hmax-squared',"
            f" '2000', '--out', '/dev/null', '--format', '{fmt}'])\n"
            "with open('/proc/self/status') as status:\n"
            "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
            "print(code, peak)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.stderr == ""
        code, peak_kib = map(int, proc.stdout.split())
        assert code == 0
        assert peak_kib < 64 * 1024
