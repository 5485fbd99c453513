"""Layered benchmark for subdioph.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, line_records, subspace_scan, cli (see BENCHMARK.json for
why each exists).  Each run is a closed loop with one caller: a fresh worker
process imports subdioph from ``src``, runs one untimed warm-up pass, then
timed passes over the workload's op list, one op at a time, and checks every
op's output.  The pass count is ``--seconds`` over the workload's nominal
pass time (see workloads.NOMINAL_PASS_S), so a run measures about
``--seconds`` on the reference machine.  Set-up time is taken
from several fresh processes, each timed from its start until its inputs are
ready.  Times are scaled to the reference machine's speed by a calibration
loop run between ops (see worker.Calibration); the detail line also holds
them unscaled.  ``--trace 1`` runs pairs of passes on the same inputs, one
untraced and one with every layer's public functions wrapped, and reports
per-layer metrics instead of end-to-end ones.  The last line of standard
output is the JSON result; the line before it holds the environment and the
details behind the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify", "line_records", "subspace_scan", "cli")
SETUP_SAMPLES = 5  # fresh processes whose set-up is timed, the worker included
RUN_TIMEOUT_S = 170.0  # the whole run, set-up samples included
WORK_DIR = ".bench_work"


def metric_units(trace: int) -> dict[str, str]:
    """Units of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit(root: str) -> str | None:
    """HEAD commit read from the checkout's own .git, if it has one."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def worker_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    # angles reads this cap; an inherited value would change the precision policy
    env.pop("SUBDIOPH_MAX_BITS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def start_worker(args, root: str, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and its set-up time."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", os.path.join(root, WORK_DIR), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker until the deadline; kill it if it is still running."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"run exceeded {RUN_TIMEOUT_S} s") from None
    return out


def run_worker(args, root: str) -> tuple[dict, list[float]]:
    """The worker's result and the set-up time of each process."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s = start_worker(args, root, ["--setup-only"])
        finish(proc, deadline)
        setups.append(setup_s)
    spans = os.path.join(root, WORK_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    proc, setup_s = start_worker(args, root, ["--spans", spans] if args.trace else [])
    setups.append(setup_s)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1]), setups


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "subdioph", "__init__.py")):
        print("error: run from the root of a subdioph checkout (src/subdioph missing)",
              file=sys.stderr)
        return 1
    load = os.getloadavg()[0]
    try:
        result, setups = run_worker(args, root)
    except (WorkerError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    # set-up runs seconds before the passes, so the run's median speed scales it
    setup_s = statistics.median(setups) * result["speed_scale"]
    values = result["layers"] if args.trace else dict(result, setup_s=setup_s)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units(args.trace).items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(
            result["env"],
            nproc=os.cpu_count(),
            loadavg_start=load,
            machine=platform.machine(),
            commit=git_commit(root),
        ),
        "speed_scale": result["speed_scale"],
        "setup_samples_s": setups,
        "failed_by_kind": result["failed_by_kind"],
        "failure_notes": result["failure_notes"],
    }
    if args.trace:
        detail["traced_passes"] = result["traced_passes"]
        detail["spans"] = result.get("spans")
    else:
        for key in ("passes", "op_tail_percentile", "op_samples"):
            detail[key] = result[key]
        detail["wall"] = {
            "pass_s": result["wall_pass_s"],
            "op_p50_ms": result["wall_op_p50_ms"],
            "op_tail_ms": result["wall_op_tail_ms"],
            "setup_s": statistics.median(setups),
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
