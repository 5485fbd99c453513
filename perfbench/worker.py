"""One workload in one fresh process: set up, warm up, time passes, check.

Started by run.py with ``src`` on PYTHONPATH.  Prints ``ready`` once the
inputs of the first pass exist (run.py times set-up up to that line) and,
as its last line, one JSON object with the pass and op measurements.  With
``--setup-only`` it exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

import mpmath
from subdioph import angles

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURE_NOTES = 5
# Calibration time on the reference machine in its usual state; op times
# are reported in seconds at that speed (see Calibration).
REFERENCE_CALIBRATION_S = 0.0018
# Stop early once timed passes exceed this multiple of the budget, so a run
# on a heavily loaded machine still ends in time.
SLOW_MACHINE_CAP = 1.5


class Calibration:
    """A fixed pure-Python integer loop that reads the machine's current speed.

    On small shared hosts the same code runs tens of percent slower for
    seconds at a time, in CPU time as much as in wall time, and this loop
    slows down with it.  It runs before the first op of a pass and after
    every op; each op's wall time is scaled by REFERENCE_CALIBRATION_S over
    the mean of the two loop times around it.  The loop reads no data, so
    what an op leaves in cache or on the heap does not change its reading,
    and it adds nothing to the peak resident set.
    """

    STEPS = 20_000

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(self.STEPS):
            total += i * i
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def scale(self) -> float:
        """Reference over measured speed, over every sample so far."""
        return REFERENCE_CALIBRATION_S / statistics.median(self.samples)


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.ctx = workloads.PassContext(workdir=workdir)
        self.build = workloads.PASSES[workload]
        self.next_pass = -1
        self.tracer = None
        self.counters = None
        # failures other than an op's known defect; any one makes the run incorrect
        self.unexpected_failures = 0
        self.failure_notes: list[str] = []
        self.calibration = Calibration()

    def ops_for_pass(self, index: int):
        return self.build(workloads.rng_for(self.workload, self.seed, index), self.ctx)

    def ops_for_next_pass(self):
        self.next_pass += 1
        return self.ops_for_pass(self.next_pass - 1)

    def run_pass(self, ops, traced: bool = False):
        """Time each op, then check outputs untimed.  Returns
        [(kind, seconds, wall seconds, status)] and the sine brackets of the
        ops that succeeded.  Seconds are scaled to the reference speed;
        status is ok, known-defect, raised, exit or check."""
        outcomes = []
        before = self.calibration.measure()
        for op in ops:
            t0 = time.perf_counter()
            try:
                if traced:
                    with self.tracer.span(tracing.BENCH, op.kind):
                        out = op.run()
                else:
                    out = op.run()
                error = None
            except Exception as err:  # a failed op is a measurement, not a crash
                out, error = None, err
            wall = time.perf_counter() - t0
            after = self.calibration.measure()
            seconds = wall * REFERENCE_CALIBRATION_S / ((before + after) / 2)
            before = after
            outcomes.append((op, out, error, seconds, wall))

        results, brackets = [], []
        for op, out, error, seconds, wall in outcomes:
            counters = self.counters if traced else None
            status = self.judge(op, out, error, counters)
            results.append((op.kind, seconds, wall, status))
            if status == "ok":
                brackets.extend(op.brackets(out))
                if counters is not None:
                    counters.note_op_counts(op.counts(out))
        return results, brackets

    def judge(self, op, out, error, counters=None) -> str:
        if counters is not None and op.exits is not None:
            counters.note_exit(None if error is not None else out.code)
            if error is None:
                counters.note_report_bytes(len(out.data.encode()))
        if error is not None:
            if op.known_defect(error):
                return "known-defect"
            return self.unexpected(op, f"raised {type(error).__name__}: {error}", "raised")
        if op.exits is not None and out.code not in op.exits:
            return self.unexpected(op, f"exit {out.code}: {out.err.strip()[:200]}", "exit")
        try:
            problem = op.check(out)
        except Exception as err:
            problem = f"check raised {type(err).__name__}: {err}"
        if problem:
            return self.unexpected(op, problem, "check")
        return "ok"

    def unexpected(self, op, text: str, status: str) -> str:
        self.unexpected_failures += 1
        self.note(f"{op.kind}: {text}")
        return status

    def note(self, text: str) -> None:
        if len(self.failure_notes) < MAX_FAILURE_NOTES:
            self.failure_notes.append(text[:300])

    def timed_passes(self, count: int, cap_s: float):
        """count passes, fewer if the machine is so slow that they pass cap_s.
        Returns scaled and wall pass times, the op results and the brackets."""
        passes, walls, ops, brackets = [], [], [], []
        while len(passes) < count and sum(walls) < cap_s:
            results, found = self.run_pass(self.ops_for_next_pass())
            passes.append(sum(row[1] for row in results))
            walls.append(sum(row[2] for row in results))
            ops.extend(results)
            brackets.extend(found)
        return passes, walls, ops, brackets

    def paired_passes(self, count: int, cap_s: float):
        """count pairs of passes on the same inputs, one untraced and one
        traced, the order alternating.  Returns the number of pairs, the
        untraced and traced scaled seconds summed over them, and every op
        result."""
        plain_s = traced_s = wall_s = 0.0
        ops, pairs = [], 0
        while pairs < count and wall_s < cap_s:
            index = self.next_pass
            self.next_pass += 1
            for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                pass_ops = self.ops_for_pass(index)
                if traced:
                    self.tracer.install()
                try:
                    results, _brackets = self.run_pass(pass_ops, traced)
                finally:
                    self.tracer.restore()
                seconds = sum(row[1] for row in results)
                wall_s += sum(row[2] for row in results)
                if traced:
                    traced_s += seconds
                else:
                    plain_s += seconds
                ops.extend(results)
            pairs += 1
        return pairs, plain_s, traced_s, ops


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it,
    that percentile, and the sample count (the maximum when n <= 10)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 10 if n > 10 else n
    return ordered[k - 1], 100.0 * k / n, n


def bracket_rel_width_max(brackets) -> float:
    """Largest (hi - lo) / hi; a bracket whose upper end underflowed to 0
    counts as 1, like one whose lower end did."""
    return max(((hi - lo) / hi if hi > 0 else 1.0 for lo, hi in brackets), default=0.0)


def op_counts(ops) -> dict:
    failed_by_kind: dict[str, dict[str, int]] = {}
    for kind, _seconds, _wall, status in ops:
        if status != "ok":
            row = failed_by_kind.setdefault(kind, {})
            row[status] = row.get(status, 0) + 1
    failed = sum(sum(row.values()) for row in failed_by_kind.values())
    return {"attempted": len(ops), "failed": failed, "failed_by_kind": failed_by_kind}


def summarize(passes, walls, ops, brackets) -> dict:
    ok = [seconds for _kind, seconds, _wall, status in ops if status == "ok"]
    ok_wall = [wall for _kind, _seconds, wall, status in ops if status == "ok"]
    value, percentile, samples = tail(ok) if ok else (0.0, 0.0, 0)
    counts = op_counts(ops)
    return {
        "pass_s": statistics.median(passes),
        "passes": len(passes),
        "op_p50_ms": 1000.0 * statistics.median(ok) if ok else 0.0,
        "op_tail_ms": 1000.0 * value,
        "op_tail_percentile": percentile,
        "op_samples": samples,
        "ok_frac": len(ok) / counts["attempted"],
        "bracket_rel_width_max": bracket_rel_width_max(brackets),
        **counts,
        "wall_pass_s": statistics.median(walls),
        "wall_op_p50_ms": 1000.0 * statistics.median(ok_wall) if ok_wall else 0.0,
        "wall_op_tail_ms": 1000.0 * tail(ok_wall)[0] if ok_wall else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        runner = Runner(args.workload, args.seed, workdir)
        warmup = runner.ops_for_next_pass()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        runner.run_pass(warmup)

        nominal = workloads.NOMINAL_PASS_S[args.workload]
        cap_s = SLOW_MACHINE_CAP * args.seconds
        if args.trace:
            # each pair runs two passes, so half as many pairs fill the budget;
            # at least two, so that traced and untraced each run first once
            count = max(2, round(args.seconds / 2 / nominal))
            runner.tracer = tracing.Tracer()
            runner.counters = tracing.LayerCounters(runner.tracer, angles.DEFAULT_BITS)
            pairs, plain_s, traced_s, ops = runner.paired_passes(count, cap_s)
            result = op_counts(ops)
            layers = tracing.layer_metrics(runner.tracer, runner.counters)
            layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
            result["layers"] = layers
            result["traced_passes"] = pairs
            if args.spans:
                result["spans"] = runner.tracer.write_spans(args.spans)
        else:
            count = max(1, round(args.seconds / nominal))
            result = summarize(*runner.timed_passes(count, cap_s))
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["speed_scale"] = runner.calibration.scale()

        oracle = workloads.ORACLES.get(args.workload)
        oracle_problem = None
        if oracle is not None:
            rng = workloads.rng_for(args.workload, args.seed, runner.next_pass)
            try:
                oracle_problem = oracle(runner.ctx, rng)
            except Exception as err:
                oracle_problem = f"oracle raised {type(err).__name__}: {err}"
        if oracle_problem:
            runner.note(f"oracle: {oracle_problem}")

        result["correct"] = runner.unexpected_failures == 0 and not oracle_problem
        result["failure_notes"] = runner.failure_notes
        result["env"] = {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        }
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
