"""Tests for report serialization and the command-line front end."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subdioph import cli
from subdioph import construction as con
from subdioph import reports
from subdioph.cli import run_command
from subdioph.errors import ParameterError, SerializationError

DATA = Path(__file__).parent / "data"


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
    def test_certify_rows_match_pinned_output(self, argv, pinned):
        # rows recorded from the mpmath precision-doubling engine
        code, out, _ = run(["construct", *argv, "--certify", "--no-header"])
        assert code == 0
        assert out == (DATA / pinned).read_text(encoding="utf-8")

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

    def test_records_over_a_large_window(self):
        """H^2 <= 10^12: the shell search walks O(log H) dyadic shells from
        height 1 and finds the 43 records that the rounding-window pool
        gave, row for row."""
        code, out, err = run(
            ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "1000000000000",
             "--no-header"]
        )
        assert (code, err) == (0, "")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 43
        heights = [int(row["heightSquared"]) for row in rows]
        assert heights == sorted(set(heights)) and heights[-1] <= 10**12

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

    def test_exclusivity_report(self):
        code, out, _ = run(
            ["exclusivity", "--ell", "1", "--beta", "3", "--nmax", "1",
             "--hmax-squared", "100000", "--no-header"]
        )
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        assert report["ok"] is True
        assert report["interlopers"] == []

    def test_harness_golden_default(self):
        code, out, _ = run(
            ["harness", "--n", "3", "--hmax-squared", "10000", "--no-header"]
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert set(payload) == {"muIntrinsic", "muAmbient", "delta", "recordPairs"}
        assert payload["delta"] == 0.0
        assert payload["recordPairs"]


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
        ],
    )
    def test_malformed_headers_are_usage_errors(self, tmp_path, command, flag, payload):
        path = write_json(tmp_path / "bad.json", payload)
        code, out, err = run([command, flag, path])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_negative_label_shape_is_usage_error(self, tmp_path):
        path = write_json(tmp_path / "label.json", {"n": -1, "e": 1, "coords": []})
        code, out, err = run(["decode", "--pluecker", path])
        assert (code, out) == (2, "")
        assert err == "error: negative shape (-1,1)\n"

    def test_planes_in_five_space_are_a_census(self):
        code, out, err = run(["enumerate", "--n", "5", "--e", "2", "--hmax-squared", "8"])
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        assert list(json.loads(header)) == ["type", "command", "generated"]
        assert len(rows) == len({tuple(json.loads(row)["coords"]) for row in rows}) == 1890

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
        ],
        ids=["records-e0", "records-e2", "estimate-e2", "records-n1", "records-n7",
             "estimate-n7"],
    )
    def test_instance_scan_rejects_a_shape_flag_it_would_ignore(self, argv):
        """--e must be the instance's ell, and on the generic path --n its
        n; neither may fall back silently to the instance's own shape."""
        code, out, err = run([*argv, "--hmax-squared", "20"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_instance_e_equal_to_ell_keeps_the_line_scan(self):
        base = ["records", "--ell", "1", "--beta", "3", "--hmax-squared", "10000",
                "--no-header"]
        default = run(base)
        assert default[0] == 0 and default[1]
        assert run([*base, "--e", "1"]) == default
        assert run([*base, "--n", "2"]) == default

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_a_label_stream_that_raises_at_once_writes_nothing(self, monkeypatch, fmt):
        def broken(spec, cursor=None):
            raise ParameterError("census refused")
            yield  # a generator: the error comes at the first draw

        monkeypatch.setattr(cli, "enumerate_labels", broken)
        code, out, err = run(["enumerate", "--n", "3", "--hmax-squared", "5", "--format", fmt])
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
