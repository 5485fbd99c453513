"""The four benchmark workloads: per-pass op lists and their output checks.

Every input of a pass comes from ``random.Random(f"{workload}/{seed}/{pass}")``,
so no timed call repeats the arguments of an earlier call in the process; the
CLI enumerations alone have fixed sizes, so their row counts are known.
An op's ``run`` is the timed call through subdioph's public API; its
``check`` runs untimed afterwards and returns a failure message or None.
Functions are looked up on the modules at call time, so a traced pass sees
the tracer's wrappers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable

import subdioph as sd
from subdioph import cli, construction as con, estimation as est, exact, morphisms as mor
from subdioph.enumeration import EXACT_LINES, EXACT_PLUECKER, EnumSpec
from subdioph.errors import CertificationFailure

# Seed-independent enumeration sizes and their known row counts.
LINES_R3_H2 = 500
LINES_R3_COUNT = 19_489
PLANES_R4_H2 = 14
PLANES_R4_COUNT = 1_322
SCAN_PLANES_R4_H2 = 4
SCAN_LINES_R3_H2 = 25
SCAN_LINES_R3_COUNT = 205
SCAN_HYPERPLANES_R3_H2 = 25

# The ell = 2 unbounded instance fails 'primitive-basis' at N = 1 for about
# half of all digit seeds.  A block of consecutive seeds per pass keeps that
# share of failed ops steady from run to run.
UNBOUNDED_L2_SEEDS_PER_PASS = 128


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    brackets: Callable[[object], list[tuple[float, float]]] = lambda _out: []
    # CLI ops: exit codes that count as success (None: not a CLI op)
    exits: frozenset | None = None
    # work counts for the traced run, read from a successful op's output
    counts: Callable[[object], dict] = lambda _out: {}
    # True for an exception the op raises today because of a known defect:
    # the op still counts as failed, but the run's outputs stay correct.
    # Any other failure makes the run incorrect.
    known_defect: Callable[[BaseException], bool] = lambda _err: False


@dataclass
class PassContext:
    """State shared by the passes of one process."""

    workdir: str
    stream_digests: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


# ---------------------------------------------------------------------------
# shared checks


def check_records(records, min_count: int = 1) -> str | None:
    """Heights strictly up, upper sines strictly down, lo <= hi."""
    if len(records) < min_count:
        return f"expected at least {min_count} records, got {len(records)}"
    for rec in records:
        if not (0.0 <= rec.psi_lo <= rec.psi_hi):
            return f"bad sine bracket [{rec.psi_lo}, {rec.psi_hi}]"
    for prev, cur in zip(records, records[1:]):
        if cur.height_squared <= prev.height_squared:
            return "record heights do not increase strictly"
        if cur.psi_hi >= prev.psi_hi:
            return "record upper sines do not decrease strictly"
    return None


def record_brackets(records) -> list[tuple[float, float]]:
    return [(r.psi_lo, r.psi_hi) for r in records]


def fibonacci_labels(height_squared_max: int) -> list[tuple[int, int]]:
    out = []
    a, b = 0, 1
    while a * a + b * b <= height_squared_max:
        out.append((a, b))
        a, b = b, a + b
    return out


# ---------------------------------------------------------------------------
# certify


def _fails_primitive_basis(err: BaseException) -> bool:
    return isinstance(err, CertificationFailure) and err.check == "primitive-basis"


def _certify_op(kind, ell, beta, nmax, seed, known_defect=lambda _err: False) -> Op:
    variant = con.INFINITE if beta is None else con.FINITE

    def run():
        params = con.ConstructionParams.create(ell, beta, seed=seed, variant=variant)
        return sd.certify_instance(params, nmax)

    def check(cert):
        if len(cert.records) != nmax:
            return f"{len(cert.records)} certified levels, expected {nmax}"
        for rec in cert.records:
            failed = [name for name, ok in rec.checks if not ok]
            if failed:
                return f"checks {failed} false at N={rec.n_index}"
            if not (0.0 < rec.psi_lo <= rec.psi_hi):
                return f"bad sine bracket at N={rec.n_index}"
        failed = [name for name, ok in cert.instance_checks if not ok]
        if failed:
            return f"instance checks {failed} false"
        return None

    return Op(
        kind, run, check,
        brackets=lambda cert: [(r.psi_lo, r.psi_hi) for r in cert.records],
        known_defect=known_defect,
    )


def certify_pass(rng: random.Random, ctx: PassContext) -> list[Op]:
    # Three l2-b5_2 ops per pass put the tail latency inside one cluster.
    # The probes are spread between the large ops: machine speed on small
    # hosts swings within seconds, and spreading samples it across the pass.
    large = [
        _certify_op("certify.l1-b3-n4", 1, 3, 4, rng.getrandbits(40)),
        _certify_op("certify.l2-b5_2-n1", 2, Fraction(5, 2), 1, rng.getrandbits(40)),
        _certify_op("certify.l1-inf-n2", 1, None, 2, rng.getrandbits(40)),
        _certify_op("certify.l2-b5_2-n1", 2, Fraction(5, 2), 1, rng.getrandbits(40)),
        _certify_op("certify.l1-b11_4-n3", 1, Fraction(11, 4), 3, rng.getrandbits(40)),
        _certify_op("certify.l2-b5_2-n1", 2, Fraction(5, 2), 1, rng.getrandbits(40)),
    ]
    base = rng.getrandbits(40)
    probes = [
        _certify_op("certify.l2-inf-n1", 2, None, 1, base + k, _fails_primitive_basis)
        for k in range(UNBOUNDED_L2_SEEDS_PER_PASS)
    ]
    step = -(-len(probes) // len(large))
    ops = []
    for i, op in enumerate(large):
        ops.append(op)
        ops.extend(probes[i * step:(i + 1) * step])
    return ops


# ---------------------------------------------------------------------------
# line_records


def quadratic_target(rng: random.Random) -> est.QuadraticLineTarget:
    """Seeded slope (p + sqrt(d)) / q in [0.7, 1.5], d nonsquare."""
    while True:
        d = rng.randrange(2, 400)
        if isqrt(d) ** 2 != d:
            break
    q = rng.randrange(3, 13)
    p = round(q * rng.uniform(0.7, 1.5) - math.sqrt(d))
    return est.QuadraticLineTarget(Fraction(p, q), Fraction(1, q), d)


QUADRATIC_H2 = 10**6
INSTANCE_H2 = 10**7
EXCLUSIVITY_H2 = 10**7
HARNESS_H2 = 10**6
# Exhaustive zones below the library defaults keep every op near half a
# second, so latency percentiles do not straddle clusters of unlike ops;
# certification still covers each whole window.
LINE_ZONE = 2_000
HARNESS_ZONES = {"zone": 1_000, "ambient_zone": 100}


def _line_scan_op(kind, make_target, h2, counted=False) -> Op:
    def run():
        records = est.scan_line_records(make_target(), h2, zone=LINE_ZONE)
        return records, est.estimate_exponent(records)

    def check(out):
        records, estimate = out
        bad = check_records(records, min_count=2)
        if bad:
            return bad
        if not math.isfinite(estimate.mu_hat) or estimate.mu_hat <= 0:
            return f"exponent estimate {estimate.mu_hat}"
        return None

    return Op(kind, run, check, brackets=lambda out: record_brackets(out[0]),
              counts=(lambda out: {"records": len(out[0])}) if counted else (lambda _out: {}))


def _irrationality_op(kind, make_target, h2) -> Op:
    def run():
        return est.irrationality_scan(
            make_target(), EnumSpec(2, 1, h2, EXACT_LINES), zone=LINE_ZONE
        )

    def check(report):
        if not report.ok or report.min_psi_lower <= 0.0:
            return "irrationality witness not positive"
        if report.scanned < 1:
            return "empty candidate pool"
        return None

    return Op(kind, run, check, counts=lambda report: {"candidates": report.scanned})


def _instance_scan_op(seed: int) -> Op:
    params = con.ConstructionParams.create(1, 3, seed=seed)
    return _line_scan_op(
        "line.instance",
        lambda: est.line_target_for_instance(params, height_squared_max=INSTANCE_H2),
        INSTANCE_H2,
    )


def line_records_pass(rng: random.Random, ctx: PassContext) -> list[Op]:
    quads = [quadratic_target(rng) for _ in range(2)]
    instance_seeds = [rng.getrandbits(40) for _ in range(3)]
    excl_params = con.ConstructionParams.create(1, 3, seed=rng.getrandbits(40))
    harness_target = quadratic_target(rng)

    def harness():
        f_sub = exact.RationalSubspace.from_basis(((1, 0), (0, 1), (0, 0)))
        proj = mor.RationalMap.from_rows(((1, 0, 0), (0, 1, 0)))
        return mor.embedding_harness(harness_target, f_sub, proj, HARNESS_H2, **HARNESS_ZONES)

    def check_harness(report):
        if len(report.record_pairs) != len(report.intrinsic_records):
            return "an intrinsic record has no ambient mate"
        return check_records(report.intrinsic_records, 2) or check_records(
            report.ambient_records, 2
        )

    def exclusivity():
        spec = EnumSpec(2, 1, EXCLUSIVITY_H2, EXACT_LINES)
        return est.exclusivity_check(excl_params, 4, spec, zone=LINE_ZONE)

    def check_exclusivity(report):
        if not report.ok:
            return f"interlopers {list(report.interlopers)}"
        return check_records(report.records, 2)

    # the pool op scans the quadratic window again, so records / candidates
    # is a yield; kinds alternate so each samples the whole pass
    scans = [_line_scan_op("line.quadratic", lambda q=q: q, QUADRATIC_H2, counted=True)
             for q in quads]
    pools = [_irrationality_op("line.quadratic-pool", lambda q=q: q, QUADRATIC_H2)
             for q in quads]
    instances = [_instance_scan_op(seed) for seed in instance_seeds]
    return [
        scans[0], instances[0], pools[0],
        Op("line.exclusivity", exclusivity, check_exclusivity,
           brackets=lambda r: record_brackets(r.records)),
        scans[1], instances[1], pools[1],
        Op("line.harness-r3", harness, check_harness,
           brackets=lambda r: record_brackets(r.intrinsic_records + r.ambient_records)),
        instances[2],
    ]


def golden_oracle() -> str | None:
    """Criterion-07 oracle: golden-line records, intrinsic and in R^3, are
    consecutive Fibonacci pairs."""
    f_sub = exact.RationalSubspace.from_basis(((1, 0), (0, 1), (0, 0)))
    proj = mor.RationalMap.from_rows(((1, 0, 0), (0, 1, 0)))
    report = mor.embedding_harness(
        est.golden_line_target(), f_sub, proj, HARNESS_H2, **HARNESS_ZONES
    )
    expected = fibonacci_labels(HARNESS_H2)
    intrinsic = [tuple(r.subspace.pluecker.coords) for r in report.intrinsic_records]
    ambient = [tuple(r.subspace.pluecker.coords) for r in report.ambient_records]
    if intrinsic != expected:
        return f"golden records {intrinsic[:4]}... are not consecutive Fibonacci pairs"
    if ambient != [(a, b, 0) for a, b in expected]:
        return "golden records in R^3 are not the embedded Fibonacci pairs"
    return None


# ---------------------------------------------------------------------------
# subspace_scan


def _big_fraction(rng: random.Random) -> Fraction:
    """A rational of large height, so no small subspace contains the target."""
    return Fraction(rng.randrange(-(10**9), 10**9), rng.randrange(10**8, 10**9))


def _scan_group(rng: random.Random) -> list[Op]:
    plane = [[1, 0], [0, 1], [_big_fraction(rng), _big_fraction(rng)],
             [_big_fraction(rng), _big_fraction(rng)]]
    line = [[1], [_big_fraction(rng)], [_big_fraction(rng)]]
    gen_params = con.ConstructionParams.create(2, Fraction(5, 2), seed=rng.getrandbits(40))
    planes = EnumSpec(4, 2, SCAN_PLANES_R4_H2, EXACT_PLUECKER)

    def generators_scan():
        gens = sd.build_generators(gen_params, 3)
        return est.scan_records(gens.real_basis(), planes, j_index=2)

    def irrationality():
        return est.irrationality_scan(line, EnumSpec(3, 1, SCAN_LINES_R3_H2, EXACT_LINES))

    def check_irrationality(report):
        if report.scanned != SCAN_LINES_R3_COUNT:
            return f"scanned {report.scanned} lines, expected {SCAN_LINES_R3_COUNT}"
        if not report.ok or report.min_psi_lower <= 0.0:
            return "irrationality witness not positive"
        return None

    return [
        Op("scan.plane-r4", lambda: est.scan_records(plane, planes, j_index=2),
           check_records, brackets=record_brackets),
        Op("scan.l2-generators-r4", generators_scan, check_records, brackets=record_brackets),
        Op("scan.line-vs-lines-r3", irrationality, check_irrationality),
        Op("scan.line-vs-hyperplanes-r3",
           lambda: est.scan_records(line, EnumSpec(3, 2, SCAN_HYPERPLANES_R3_H2, EXACT_LINES)),
           check_records, brackets=record_brackets),
    ]


def subspace_scan_pass(rng: random.Random, ctx: PassContext) -> list[Op]:
    return [op for _ in range(3) for op in _scan_group(rng)]


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliOutput:
    code: int
    data: str
    err: str

    def body(self) -> list[str]:
        """Data lines without the header line, which carries a timestamp."""
        lines = self.data.splitlines()
        if lines and (lines[0].startswith('{"type":"header"') or lines[0].startswith("# ")):
            lines = lines[1:]
        return lines

    def rows(self) -> list[dict]:
        return [json.loads(line) for line in self.body()]

    def csv_rows(self) -> list[dict]:
        return list(csv.DictReader(io.StringIO("\n".join(self.body()))))


def run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run_command(argv, stdout=out, stderr=err)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _cli_op(kind, argv, check, exits=frozenset({0}), brackets=lambda _o: [],
            known_defect=lambda _err: False) -> Op:
    return Op(kind, lambda: run_cli(argv), check, brackets=brackets, exits=exits,
              known_defect=known_defect)


def _check_certify_rows(nmax):
    def check(out):
        rows = out.rows()
        if not all(row["ok"] for row in rows):
            return "a certification check is false"
        levels = [row for row in rows if row["check"] == "quantities"]
        if len(levels) != nmax:
            return f"{len(levels)} certified levels, expected {nmax}"
        return None

    return check


def _certify_row_brackets(out):
    return [
        (float(r["psi_lo"]), float(r["psi_hi"]))
        for r in out.rows()
        if r["check"] == "quantities"
    ]


def _check_record_rows(out):
    rows = out.rows()
    if len(rows) < 2:
        return "fewer than two records"
    for row in rows:
        if not (0.0 <= row["psiLo"] <= row["psiHi"]):
            return "bad sine bracket"
    for prev, cur in zip(rows, rows[1:]):
        if int(cur["heightSquared"]) <= int(prev["heightSquared"]):
            return "record heights do not increase strictly"
        if cur["psiHi"] >= prev["psiHi"]:
            return "record upper sines do not decrease strictly"
    return None


def _check_estimate(out):
    (row,) = out.rows()
    if not (math.isfinite(row["muHat"]) and row["muHat"] > 0 and row["recordCount"] >= 2):
        return f"bad estimate {row}"
    return None


def _check_stream(ctx: PassContext, key: str, count: int, parse):
    """Row count must match the known count and the data stream (header
    dropped) must equal the first one seen for the same arguments."""

    def check(out):
        body = out.body()
        rows = parse(out)
        if len(rows) != count:
            return f"{len(rows)} rows, expected {count}"
        digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
        first = ctx.stream_digests.setdefault(key, digest)
        if digest != first:
            return "data stream differs from an earlier identical call"
        return None

    return check


def _check_angles(dims):
    def check(out):
        rows = out.rows()
        if len(rows) != min(dims):
            return f"{len(rows)} angles, expected {min(dims)}"
        for row in rows:
            if not (0.0 <= row["sinLo"] <= row["sin"] <= row["sinHi"] <= 1.0):
                return "bad sine bracket"
        return None

    return check


def _random_basis(rng: random.Random, n: int, e: int) -> list[list[str]]:
    while True:
        rows = [[f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(e)] for _ in range(n)]
        if exact.rank([[Fraction(x) for x in row] for row in rows]) == e:
            return rows


def _raises(kind: type) -> Callable[[BaseException], bool]:
    return lambda err: isinstance(err, kind)


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


def cli_pass(rng: random.Random, ctx: PassContext) -> list[Op]:
    seed = str(rng.getrandbits(40))
    n = rng.randint(3, 5)
    da, db = rng.randint(1, n - 1), rng.randint(1, n - 1)
    basis_a = _write_json(os.path.join(ctx.workdir, "basis-a.json"),
                          {"n": n, "e": da, "basis": _random_basis(rng, n, da)})
    basis_b = _write_json(os.path.join(ctx.workdir, "basis-b.json"),
                          {"n": n, "e": db, "basis": _random_basis(rng, n, db)})
    bad_label = _write_json(os.path.join(ctx.workdir, "bad-label.json"),
                            {"n": "x", "e": 2, "coords": [rng.randint(-9, 9) for _ in range(6)]})
    instance = ["--ell", "1", "--beta", "3", "--seed", seed]
    lines = ["enumerate", "--n", "3", "--e", "1", "--hmax-squared", str(LINES_R3_H2)]
    planes = ["enumerate", "--n", "4", "--e", "2", "--hmax-squared", str(PLANES_R4_H2)]
    any_exit = frozenset({0, 1, 2})
    return [
        _cli_op("cli.construct-certify", ["construct", *instance, "--nmax", "3", "--certify"],
                _check_certify_rows(3), brackets=_certify_row_brackets),
        _cli_op("cli.records", ["records", *instance, "--hmax-squared", "100000"],
                _check_record_rows,
                brackets=lambda o: [(r["psiLo"], r["psiHi"]) for r in o.rows()]),
        _cli_op("cli.estimate", ["estimate", *instance, "--hmax-squared", "100000"],
                _check_estimate),
        _cli_op("cli.enumerate-lines-jsonl", lines,
                _check_stream(ctx, "lines-jsonl", LINES_R3_COUNT, CliOutput.rows)),
        _cli_op("cli.enumerate-lines-csv", [*lines, "--format", "csv"],
                _check_stream(ctx, "lines-csv", LINES_R3_COUNT, CliOutput.csv_rows)),
        _cli_op("cli.enumerate-planes", planes,
                _check_stream(ctx, "planes-jsonl", PLANES_R4_COUNT, CliOutput.rows)),
        _cli_op("cli.angles", ["angles", "--basis", basis_a, "--basis-b", basis_b],
                _check_angles((da, db)),
                brackets=lambda o: [(r["sinLo"], r["sinHi"]) for r in o.rows() if r["resolved"]]),
        _cli_op("cli.exclusivity",
                ["exclusivity", *instance, "--nmax", "4", "--hmax-squared", "100000"],
                lambda o: None if o.rows()[0]["ok"] else "exclusivity report not ok"),
        _cli_op("cli.verify-all", ["verify", "all", "--seed", seed],
                lambda o: None if all(r["ok"] for r in o.rows()) else "a verify suite failed"),
        # Known defects: each raises out of run_command today instead of
        # ending in one of the documented exit codes.
        _cli_op("cli.probe-records-l2", ["records", "--ell", "2", "--beta", "3",
                                         "--hmax-squared", "2", "--seed", seed],
                lambda o: None, exits=any_exit, known_defect=_raises(TypeError)),
        _cli_op("cli.probe-decode-bad-n", ["decode", "--pluecker", bad_label],
                lambda o: None, exits=any_exit, known_defect=_raises(ValueError)),
        # Python's 4300-digit limit on int -> str conversion
        _cli_op("cli.probe-construct-l2-n4", ["construct", "--ell", "2", "--beta", "5/2",
                                              "--nmax", "4", "--seed", seed],
                lambda o: None, exits=any_exit, known_defect=_raises(ValueError)),
    ]


def cli_oracle(ctx: PassContext, rng: random.Random) -> str | None:
    """Byte-identical reruns: the same certify call twice, header dropped."""
    argv = ["construct", "--ell", "1", "--beta", "3", "--seed", str(rng.getrandbits(40)),
            "--nmax", "3", "--certify"]
    first, second = run_cli(argv), run_cli(argv)
    if first.code != 0 or first.body() != second.body():
        return "construct --certify reruns differ"
    return None


# Pass time of each workload on the reference machine (2-core x86_64,
# CPython 3.11, mpmath on its Python backend).  A run makes
# round(seconds / nominal) timed passes, so the number of samples, and with
# it the rank the tail percentile lands on, does not drift with machine load.
NOMINAL_PASS_S = {
    "certify": 7.2,
    "line_records": 3.9,
    "subspace_scan": 3.3,
    "cli": 5.3,
}

PASSES = {
    "certify": certify_pass,
    "line_records": line_records_pass,
    "subspace_scan": subspace_scan_pass,
    "cli": cli_pass,
}

ORACLES = {
    "line_records": lambda ctx, rng: golden_oracle(),
    "cli": cli_oracle,
}
