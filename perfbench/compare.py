"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage:

    python3 perfbench/compare.py RUNS        # spread of each metric over runs
    python3 perfbench/compare.py OLD NEW     # medians of NEW against OLD

RUNS, OLD and NEW each hold the standard output of one or more ``run.py`` runs
(each run prints a ``detail`` line followed by its result line), for example
``perfbench/baseline.jsonl``.  For every workload and metric present in both,
the medians are compared against the metric's bound from BENCHMARK.json.
Runs taken on different mpmath backends are not comparable: the script
refuses them and exits with code 2.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


class Incomparable(Exception):
    pass


def load_runs(path: str) -> list[tuple[dict, dict]]:
    """(detail, result) pairs in file order."""
    runs, detail = [], None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "detail" in record:
                detail = record["detail"]
            elif "metrics" in record and detail is not None:
                runs.append((detail, record))
                detail = None
    return runs


def backends(runs) -> set[str]:
    return {detail["env"]["mpmath_backend"] for detail, _ in runs}


def medians(runs) -> dict[tuple[str, int, str], float]:
    """Median value per (workload, trace flag, metric)."""
    values: dict[tuple[str, int, str], list[float]] = {}
    for detail, result in runs:
        for name, metric in result["metrics"].items():
            key = (detail["workload"], detail["trace"], name)
            values.setdefault(key, []).append(metric["value"])
    return {key: statistics.median(vals) for key, vals in values.items()}


def spreads(runs, spec) -> list[dict]:
    """Per workload and end-to-end metric: median, quartiles and the
    inter-quartile distance as a share of the median, next to the bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[tuple[str, str], list[float]] = {}
    for detail, result in runs:
        if detail["trace"]:
            continue
        for name, metric in result["metrics"].items():
            values.setdefault((detail["workload"], name), []).append(metric["value"])
    rows = []
    for (workload, name), vals in sorted(values.items()):
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rows.append(dict(workload=workload, metric=name, runs=len(vals), q1=q1, median=med,
                         q3=q3, spread=(q3 - q1) / med if med else 0.0, bound=bounds.get(name)))
    return rows


def compare(old_runs, new_runs, spec) -> list[dict]:
    old_backends, new_backends = backends(old_runs), backends(new_runs)
    if len(old_backends | new_backends) != 1:
        raise Incomparable(
            f"runs use different mpmath backends: {sorted(old_backends)} vs {sorted(new_backends)}"
        )
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = medians(old_runs), medians(new_runs)
    rows = []
    for key in sorted(old.keys() & new.keys()):
        workload, _trace, name = key
        meta = metrics.get(name)
        if meta is None:
            continue
        before, after = old[key], new[key]
        change = (after - before) / before if before else 0.0
        worse = change if meta["better"] == "lower" else -change
        bound = meta.get("bound")
        if bound is None:
            verdict = "-"
        elif worse > bound:
            verdict = "WORSE"
        elif worse < -bound:
            verdict = "better"
        else:
            verdict = "within bound"
        rows.append(dict(workload=workload, metric=name, old=before, new=after,
                         change=change, bound=bound, verdict=verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if len(argv) == 1:
        for row in spreads(load_runs(argv[0]), spec):
            print(f"{row['workload']:14s} {row['metric']:22s} n={row['runs']:2d} "
                  f"median={row['median']:.6g} q1={row['q1']:.6g} q3={row['q3']:.6g} "
                  f"spread={row['spread']:.4f} bound={row['bound']}")
        return 0
    try:
        rows = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    except Incomparable as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:14s} {row['metric']:40s} {row['old']:12.6g} "
              f"{row['new']:12.6g} {100 * row['change']:+8.1f}% {bound:>5s} {row['verdict']}")
    return 1 if any(row["verdict"] == "WORSE" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
