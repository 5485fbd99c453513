"""Tests of the benchmark's own helpers.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tail_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 101)]
    value, percentile, samples = worker.tail(latencies)
    assert (value, percentile, samples) == (90.0, 90.0, 100)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_bracket_width_flags_underflow():
    assert worker.bracket_rel_width_max([(1.0, 1.0), (0.5, 1.0)]) == 0.5
    assert worker.bracket_rel_width_max([(0.0, 5e-324)]) == 1.0
    assert worker.bracket_rel_width_max([(0.0, 0.0)]) == 1.0
    assert worker.bracket_rel_width_max([]) == 0.0


def test_self_time_subtracts_children_and_generators_time_each_next():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def items():
        for _ in range(3):
            clock.now += 1.0
            yield leaf()

    def outer():
        clock.now += 1.0
        leaf()
        return list(gen())

    wrapped_leaf = tracer.wrap(leaf, "exact", "leaf")
    gen = tracer.wrap(items, "enumeration", "items")
    leaf = wrapped_leaf  # noqa: F811  (calls inside items and outer hit the wrapper)
    outer = tracer.wrap(outer, "estimation", "outer")
    assert len(outer()) == 3

    totals = tracer.totals()
    assert totals["exact.leaf"] == {"calls": 4, "self_s": 8.0, "incl_s": 8.0}
    # three yields plus the final StopIteration
    assert totals["enumeration.items"]["calls"] == 4
    assert totals["enumeration.items"]["self_s"] == 3.0
    assert totals["estimation.outer"]["self_s"] == 1.0
    assert tracer.layer_self_s() == {"exact": 8.0, "enumeration": 3.0, "estimation": 1.0}


def test_install_rebinds_imported_names_and_restore_undoes_it():
    from subdioph import angles, construction, estimation

    original = angles.angles_adaptive
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert angles.angles_adaptive is not original
        assert construction.angles_adaptive is angles.angles_adaptive
        assert estimation.angles_adaptive is angles.angles_adaptive
        assert angles.angles_adaptive.__wrapped__ is original
    finally:
        tracer.restore()
    assert angles.angles_adaptive is original
    assert construction.angles_adaptive is original


def _raise(err):
    def run():
        raise err

    return run


def test_unexpected_failure_makes_run_incorrect(tmp_path):
    runner = worker.Runner("cli", 1, str(tmp_path))
    known = workloads.Op("probe", _raise(TypeError("defect")), lambda _out: None,
                         known_defect=lambda err: isinstance(err, TypeError))
    results, _ = runner.run_pass([known, workloads.Op("fine", lambda: 1, lambda _out: None)])
    assert [row[-1] for row in results] == ["known-defect", "ok"]
    assert runner.unexpected_failures == 0

    ops = [
        workloads.Op("raises", _raise(RuntimeError("boom")), lambda _out: None),
        workloads.Op("wrong", lambda: 1, lambda _out: "wrong output"),
        workloads.Op("probe", _raise(ValueError("other")), lambda _out: None,
                     known_defect=lambda err: isinstance(err, TypeError)),
    ]
    results, _ = runner.run_pass(ops)
    assert [row[-1] for row in results] == ["raised", "check", "raised"]
    assert runner.unexpected_failures == 3
    assert worker.op_counts(results)["failed"] == 3


def test_known_defects_are_only_the_listed_ops(tmp_path):
    ctx = workloads.PassContext(workdir=str(tmp_path))
    errors = [TypeError("t"), ValueError("v"), RuntimeError("r"),
              workloads.CertificationFailure("primitive-basis", 1),
              workloads.CertificationFailure("quantities", 1)]
    accepted = {}
    for name, build in workloads.PASSES.items():
        for op in build(workloads.rng_for(name, 1, 0), ctx):
            for err in errors:
                if op.known_defect(err):
                    accepted.setdefault(op.kind, set()).add(str(err))
    assert accepted == {
        "cli.probe-records-l2": {"t"},
        "cli.probe-decode-bad-n": {"v"},
        "cli.probe-construct-l2-n4": {"v"},
        "certify.l2-inf-n1": {str(errors[3])},
    }


def test_record_checks():
    rec = types.SimpleNamespace
    good = [rec(height_squared=1, psi_lo=0.4, psi_hi=0.5), rec(height_squared=2, psi_lo=0.1, psi_hi=0.2)]
    assert workloads.check_records(good) is None
    flat = [good[0], rec(height_squared=2, psi_lo=0.1, psi_hi=0.5)]
    assert "decrease" in workloads.check_records(flat)
    assert "bracket" in workloads.check_records([rec(height_squared=1, psi_lo=0.6, psi_hi=0.5)])


def test_fibonacci_labels():
    assert workloads.fibonacci_labels(34) == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5)]


def test_pass_inputs_depend_on_seed_and_pass():
    draw = [workloads.rng_for("cli", s, p).random() for s, p in ((1, 0), (1, 0), (1, 1), (2, 0))]
    assert draw[0] == draw[1]
    assert len(set(draw)) == 3


def _run_lines(backend, workload="cli", value=1.0):
    detail = {"detail": {"workload": workload, "trace": 0, "env": {"mpmath_backend": backend}}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"pass_s": {"value": value, "unit": "s"}}}
    return json.dumps(detail) + "\n" + json.dumps(result) + "\n"


def test_compare_refuses_different_backends(tmp_path):
    spec = {"end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": []}
    old, new = tmp_path / "old", tmp_path / "new"
    old.write_text(_run_lines("python"))
    new.write_text(_run_lines("gmpy"))
    with pytest.raises(compare.Incomparable):
        compare.compare(compare.load_runs(old), compare.load_runs(new), spec)
    new.write_text(_run_lines("python", value=1.5))
    (row,) = compare.compare(compare.load_runs(old), compare.load_runs(new), spec)
    assert row["verdict"] == "WORSE"
