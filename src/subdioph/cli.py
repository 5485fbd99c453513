"""Command-line front end: instance files in, JSONL/CSV reports out.

One verb per library capability.  All randomness flows from --seed, the only
timestamp lives in a suppressible header line, and identical invocations
produce byte-identical data output.  Exit codes: 0 success, 1 check or
certification failure (the failing record is still emitted to the data
stream), 2 usage error (diagnostics go to stderr, never to the data stream).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import IO, Sequence

from . import construction as con
from . import estimation as est
from . import exact
from . import morphisms as mor
from . import reports
from .reports import exact_str
from .angles import (
    PrecisionContext,
    RealBasis,
    angles_adaptive,
    principal_angles,
    _float_down,
    _float_up,
)
from .enumeration import (
    STRATEGIES, EnumSpec, census_runs, enumerate_labels, exact_strategy,
)
from .errors import (
    CertificationFailure,
    InsufficientRecordsError,
    IrrationalityViolationError,
    PrecisionExhaustedError,
    SubdiophError,
)

_CHECK_FAILURES = (
    CertificationFailure,
    IrrationalityViolationError,
    InsufficientRecordsError,
    PrecisionExhaustedError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures on our exit-code path
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# input parsing


def _parse_scalar(value) -> exact.Scalar:
    if isinstance(value, bool):
        raise _UsageError("matrix entries must be integers or rationals")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise _UsageError(f"bad matrix entry {value!r}: {err}") from None
        return int(frac) if frac.denominator == 1 else frac
    raise _UsageError(f"bad matrix entry {value!r}: use integers or 'p/q' strings")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise _UsageError(f"{path} is not valid JSON: {err}") from None


def _load_basis(path: str) -> exact.Matrix:
    data = _load_json(path)
    if not isinstance(data, dict) or "basis" not in data:
        raise _UsageError(f"{path}: expected an object with n, e and basis")
    rows = data["basis"]
    try:
        matrix = exact.as_matrix(
            [[_parse_scalar(x) for x in row] for row in rows]
        )
    except TypeError:
        raise _UsageError(f"{path}: basis must be a rectangular array") from None
    n, e = exact.shape(matrix)
    if "n" in data and _header_int(data, "n", path) != n:
        raise _UsageError(f"{path}: basis has {n} rows, header says {data['n']}")
    if "e" in data and _header_int(data, "e", path) != e:
        raise _UsageError(f"{path}: basis has {e} columns, header says {data['e']}")
    return matrix


def _header_int(data: dict, key: str, path: str) -> int:
    try:
        return int(data[key])
    except (TypeError, ValueError):
        raise _UsageError(f"{path}: {key} must be an integer, got {data[key]!r}") from None


def _load_pluecker(path: str) -> exact.PlueckerVector:
    data = _load_json(path)
    if not isinstance(data, dict) or not {"n", "e", "coords"} <= set(data):
        raise _UsageError(f"{path}: expected an object with n, e and coords")
    if not isinstance(data["coords"], list):
        raise _UsageError(f"{path}: coords must be a list")
    coords = tuple(_parse_scalar(x) for x in data["coords"])
    if not all(isinstance(c, int) for c in coords):
        raise _UsageError(f"{path}: coords must be integers")
    return exact.PlueckerVector(
        _header_int(data, "n", path), _header_int(data, "e", path), coords
    )


def _parse_beta(text: str):
    if con.is_infinite_beta(text):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise _UsageError(f"bad beta {text!r}: {err}") from None


def _inline_instance(args) -> bool:
    """Whether any of --ell, --beta, --theta and --seed is given."""
    return any(flag is not None for flag in (args.ell, args.beta, args.theta, args.seed))


def _instance_params(args) -> con.ConstructionParams:
    if args.instance:
        if _inline_instance(args):
            raise _UsageError("give either --instance or --ell/--beta/--theta/--seed, not both")
        return con.params_from_descriptor(_load_json(args.instance))
    if args.ell is None or args.beta is None:
        raise _UsageError("need --instance FILE or both --ell and --beta")
    beta = _parse_beta(args.beta)
    variant = con.FINITE if beta is not None else con.INFINITE
    return con.ConstructionParams.create(
        args.ell, beta, theta=args.theta, seed=_given(args.seed, 0), variant=variant
    )


def _precision_context(args) -> PrecisionContext | None:
    bits, rel = args.precision_bits, args.target_rel_err
    if bits is None and rel is None:
        return None
    kwargs = {}
    if bits is not None:
        kwargs["bits"] = bits
    if rel is not None:
        try:
            kwargs["target_rel_err"] = Fraction(rel)
        except (ValueError, ZeroDivisionError):
            try:
                kwargs["target_rel_err"] = Fraction(float(rel))
            except (OverflowError, ValueError) as err:
                raise _UsageError(f"bad --target-rel-err {rel!r}: {err}") from None
    return PrecisionContext(**kwargs)


# ---------------------------------------------------------------------------
# record builders


def _basis_record(sub: exact.RationalSubspace) -> dict:
    return {
        "n": sub.n,
        "e": sub.e,
        "basis": [[exact_str(x) for x in row] for row in sub.basis],
    }


def _pluecker_record(pv: exact.PlueckerVector) -> dict:
    return {
        "n": pv.n,
        "e": pv.e,
        "coords": [exact_str(c) for c in pv.coords],
        "heightSquared": exact_str(pv.height_squared),
    }


def _scan_row(rec: est.ApproximationRecord) -> dict:
    return {
        "heightSquared": exact_str(rec.height_squared),
        "psiLo": rec.psi_lo,
        "psiHi": rec.psi_hi,
        "jIndex": rec.j_index,
        "source": rec.source,
        "coords": [exact_str(c) for c in rec.subspace.pluecker.coords],
    }


def _given(value, default):
    """A flag's value, or the default when the flag is absent: an explicit 0
    is a value, and goes on to the validators."""
    return default if value is None else value


def _enum_spec(args, n: int, e: int, hmax: int, **shards) -> EnumSpec:
    """Enumeration window from --strategy (default: the fastest one for
    the shape)."""
    strategy = args.strategy or exact_strategy(n, e)
    return EnumSpec(n=n, e=e, height_squared_max=hmax, strategy=strategy, **shards)


def _run_scan(args) -> list[est.ApproximationRecord]:
    """Target resolution for records and estimate: an instance goes to
    instance_records (at ell >= 2 its brackets are widened by the truncation
    slack), a basis file to scan_records; the target picks the engine and
    --strategy the census."""
    hmax = args.hmax_squared
    if hmax is None:
        raise _UsageError("--hmax-squared is required")
    if args.instance or _inline_instance(args):
        if args.basis:
            raise _UsageError("give either a target --basis or an instance, not both")
        params = _instance_params(args)
        spec = _enum_spec(args, _given(args.n, params.n), _given(args.e, params.ell), hmax)
        return est.instance_records(params, spec, j_index=args.j, ctx=_precision_context(args))
    if not args.basis:
        raise _UsageError("need a target: --instance, --ell/--beta, or --basis")
    target = _load_basis(args.basis)
    n = exact.shape(target)[0]
    if args.n is not None and args.n != n:
        raise _UsageError(f"--n must equal the basis's n = {n}")
    spec = _enum_spec(args, n, _given(args.e, 1), hmax)
    return est.scan_records(target, spec, j_index=_given(args.j, 1), ctx=_precision_context(args))


# ---------------------------------------------------------------------------
# command handlers (records, exit code); enumerate hands over the writer of
# its census instead of a list of records


def _cmd_height(args):
    sub = exact.RationalSubspace.from_basis(_load_basis(args.basis))
    return [{"heightSquared": exact_str(sub.height_squared)}], 0


def _cmd_pluecker(args):
    sub = exact.RationalSubspace.from_basis(_load_basis(args.basis))
    return [_pluecker_record(sub.pluecker)], 0


def _cmd_decode(args):
    sub = exact.pluecker_decode(_load_pluecker(args.pluecker))
    return [_basis_record(sub)], 0


def _cmd_angles(args):
    a = RealBasis.from_exact(_load_basis(args.basis))
    b = RealBasis.from_exact(_load_basis(args.basis_b))
    if args.precision_bits is not None and args.target_rel_err is None:
        profile = principal_angles(a, b, bits=args.precision_bits)
    else:
        profile = angles_adaptive(a, b, ctx=_precision_context(args))
    rows = []
    for j in range(profile.t):
        rows.append(
            {
                "jIndex": j + 1,
                "sin": float(profile.psi[j]),
                "sinLo": _float_down(profile.lo[j]),
                "sinHi": _float_up(profile.hi[j]),
                "resolved": bool(profile.resolved[j]),
                "bitsUsed": profile.bits_used,
            }
        )
    return rows, 0


def _cmd_enumerate(args):
    if args.n is None or args.hmax_squared is None:
        raise _UsageError("--n and --hmax-squared are required")
    spec = _enum_spec(
        args, args.n, _given(args.e, 1), args.hmax_squared,
        shard_count=args.shards, shard_index=args.shard_index,
    )
    # a census walked in runs writes its rows per run of shared prefix
    runs = census_runs(spec)
    if runs is not None:
        return functools.partial(reports.emit_line_runs, runs), 0
    return functools.partial(reports.emit_labels, enumerate_labels(spec)), 0


def _cmd_construct(args):
    params = _instance_params(args)
    if args.nmax is None:
        raise _UsageError("--nmax is required")
    if args.depth is not None and not args.certify:
        raise _UsageError("--depth needs --certify")
    if args.certify:
        cert = con.certify_instance(params, args.nmax, depth=args.depth)
        return list(cert.as_records()), 0
    rows = [con.params_to_descriptor(params)]
    # one digit table serves every level, so each digit is read once
    table = con._digit_table(params, None, max(args.nmax, 0))
    for n_index in range(1, args.nmax + 1):
        conv = con.build_convergent(params, n_index, stream=table)
        rows.append(
            {
                "nIndex": n_index,
                "exponent": conv.exponent,
                "heightSquared": exact_str(conv.height_squared),
                "coords": [exact_str(c) for c in conv.subspace.pluecker.coords],
            }
        )
    return rows, 0


def _cmd_records(args):
    return [_scan_row(rec) for rec in _run_scan(args)], 0


def _cmd_estimate(args):
    estimate = est.estimate_exponent(_run_scan(args))
    return [estimate.summary()], 0


def _cmd_exclusivity(args):
    params = _instance_params(args)
    if args.nmax is None or args.hmax_squared is None:
        raise _UsageError("--nmax and --hmax-squared are required")
    n, e = params.n, params.ell
    spec = EnumSpec(n, e, args.hmax_squared, strategy=exact_strategy(n, e))
    report = est.exclusivity_check(params, args.nmax, spec, ctx=_precision_context(args))
    return [report.as_dict()], 0 if report.ok else 1


def _cmd_harness(args):
    if args.hmax_squared is None:
        raise _UsageError("--hmax-squared is required")
    n = _given(args.n, 3)
    if n < 2:
        raise _UsageError("ambient dimension must be at least 2")
    if args.instance or _inline_instance(args):  # the golden line reads no instance flag
        params = _instance_params(args)
        target = est.line_target_for_instance(params, height_squared_max=args.hmax_squared)
    else:
        target = est.golden_line_target()
    # the plane of the first two axes, and the projection onto it
    plane = mor.coordinate_embedding(2, n).matrix
    report = mor.embedding_harness(
        target, exact.RationalSubspace.from_basis(plane),
        mor.RationalMap.from_rows(exact.transpose(plane)), args.hmax_squared,
    )
    return [report.as_dict()], 0


# ---------------------------------------------------------------------------
# verify: named property suites


def _random_full_rank(rng, n, e, bound=9):
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(e)] for _ in range(n)]
        if exact.rank(m) == e:
            return m


def _check_row(suite: str, check: str, trials: int, failures: int, witness: str) -> dict:
    return {
        "suite": suite,
        "check": check,
        "trials": trials,
        "failures": failures,
        "ok": failures == 0,
        "witness": witness,
    }


def _suite_heights(rng) -> list[dict]:
    trials, failures, witness = 120, 0, ""
    for _ in range(trials):
        n = rng.randint(2, 5)
        e = rng.randint(1, min(3, n))
        m = _random_full_rank(rng, n, e)
        minors = exact.raw_minors(m)
        g = math.gcd(*(abs(v) for v in minors))
        ok = exact.generalized_determinant_squared(m) == g * g * exact.height_squared(m)
        if ok and g == 1:
            ok = exact.is_primitive_basis(m)
        if not ok:
            failures += 1
            witness = witness or str(m)
    return [_check_row("heights", "covolume-gcd-identity", trials, failures, witness)]


def _suite_pluecker(rng) -> list[dict]:
    shapes = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
    trials, failures, witness = 90, 0, ""
    for i in range(trials):
        n, e = shapes[i % len(shapes)]
        sub = exact.RationalSubspace.from_basis(_random_full_rank(rng, n, e))
        if exact.pluecker_decode(sub.pluecker) != sub:
            failures += 1
            witness = witness or str(sub.basis)
    rows = [_check_row("pluecker", "decode-roundtrip", trials, failures, witness)]
    rej_trials, rej_failures, rej_witness = 40, 0, ""
    done = 0
    while done < rej_trials:
        coords = [rng.randint(-9, 9) for _ in range(6)]
        # quadric for (4,2): p01*p23 - p02*p13 + p03*p12; nonzero, so the
        # coordinates are not all zero either
        quad = coords[0] * coords[5] - coords[1] * coords[4] + coords[2] * coords[3]
        if quad == 0:
            continue
        label = exact.label_from_minors(4, 2, coords)
        done += 1
        try:
            exact.pluecker_decode(label)
        except SubdiophError:
            continue
        rej_failures += 1
        rej_witness = rej_witness or str(list(label.coords))
    rows.append(
        _check_row(
            "pluecker", "decode-rejects-nondecomposable", rej_trials, rej_failures, rej_witness
        )
    )
    return rows


def _rotation(n: int, rng) -> list[list[float]]:
    """A random orthogonal matrix in doubles: the Q factor with a positive
    diagonal R of the Gaussian matrix that random_orthogonal draws, by
    twice-iterated modified Gram-Schmidt."""
    m = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    cols: list[list[float]] = []
    for col in zip(*m):
        v = list(col)
        for _pass in range(2):
            for q in cols:
                dot = math.fsum(x * y for x, y in zip(q, v))
                v = [x - dot * y for x, y in zip(v, q)]
        norm = math.sqrt(math.fsum(x * x for x in v))
        cols.append([x / norm for x in v])
    return [list(row) for row in zip(*cols)]


def _rotated(q: list[list[float]], rows) -> list[list[float]]:
    return [[math.fsum(x * y for x, y in zip(q_row, col)) for col in zip(*rows)] for q_row in q]


def _suite_angles(rng) -> list[dict]:
    bits = 128
    order_f, sym_f, invar_f = 0, 0, 0
    trials, witness = 40, ""
    for _ in range(trials):
        n = rng.randint(2, 4)
        da = rng.randint(1, n - 1) if n > 1 else 1
        db = rng.randint(1, n - 1) if n > 1 else 1
        a_rows = _random_full_rank(rng, n, da)
        b_rows = _random_full_rank(rng, n, db)
        a = RealBasis.from_exact(a_rows)
        b = RealBasis.from_exact(b_rows)
        ab = principal_angles(a, b, bits=bits)
        ba = principal_angles(b, a, bits=bits)
        tol = 4 * float(ab.rel_err_bound) + 1e-30
        if list(ab.psi) != sorted(ab.psi):
            order_f += 1
            witness = witness or f"ordering {a_rows} {b_rows}"
        if any(
            abs(float(x) - float(y)) > tol * max(1.0, float(x))
            for x, y in zip(ab.psi, ba.psi)
        ):
            sym_f += 1
            witness = witness or f"symmetry {a_rows} {b_rows}"
        q = _rotation(n, rng)
        ra = RealBasis.from_float(_rotated(q, a_rows))
        rb = RealBasis.from_float(_rotated(q, b_rows))
        rot = principal_angles(ra, rb, bits=bits)
        float_tol = 1e-12
        # an unresolved sine is an exact zero, not its floor placeholder
        if any(
            abs(float(x if rx else 0) - float(y if ry else 0))
            > float_tol + 4 * float(ab.rel_err_bound)
            for x, rx, y, ry in zip(ab.psi, ab.resolved, rot.psi, rot.resolved)
        ):
            invar_f += 1
            witness = witness or f"invariance {a_rows} {b_rows}"
    return [
        _check_row("angles", name, trials, count, witness if count else "")
        for name, count in (
            ("ascending-order", order_f),
            ("symmetry", sym_f),
            ("orthogonal-invariance", invar_f),
        )
    ]


def _suite_distortion(rng) -> list[dict]:
    trials, failures, witness = 150, 0, ""
    for _ in range(trials):
        n = rng.randint(2, 4)
        e = rng.randint(1, 2) if n >= 3 else 1
        phi = mor.RationalMap.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        c = mor.height_distortion_constant(phi, e)
        sub = exact.RationalSubspace.from_basis(_random_full_rank(rng, n, e))
        try:
            image = mor.apply_to_subspace(phi, sub)
        except SubdiophError:
            continue
        if image.height_squared > c * c * sub.height_squared:
            failures += 1
            witness = witness or f"{phi.matrix} {sub.basis}"
    return [_check_row("distortion", "height-bound", trials, failures, witness)]


_SUITES = {
    "heights": _suite_heights,
    "pluecker": _suite_pluecker,
    "angles": _suite_angles,
    "distortion": _suite_distortion,
}


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rows = []
    for name in names:
        rows.extend(_SUITES[name](random.Random(_given(args.seed, 0))))
    code = 0 if all(row["ok"] for row in rows) else 1
    return rows, code


_HANDLERS = {
    "height": _cmd_height,
    "pluecker": _cmd_pluecker,
    "decode": _cmd_decode,
    "angles": _cmd_angles,
    "enumerate": _cmd_enumerate,
    "construct": _cmd_construct,
    "records": _cmd_records,
    "estimate": _cmd_estimate,
    "exclusivity": _cmd_exclusivity,
    "harness": _cmd_harness,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# argument grammar


@functools.cache
def build_parser() -> _Parser:
    """The argument grammar, built once per process and shared by every
    call, so callers must not change it.  Reuse is safe: no argument has a
    mutable default, and every parse fills a new namespace."""
    parser = _Parser(prog="subdioph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=reports.FORMATS, default=reports.JSONL)
        p.add_argument("--out", default=None, help="write data here instead of stdout")
        p.add_argument("--no-header", action="store_true")

    def seed_flag(p):
        p.add_argument("--seed", type=int, default=None, help="default 0")

    def precision_flags(p):
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--target-rel-err", default=None)

    def instance_flags(p):
        p.add_argument("--instance", default=None, help="instance descriptor JSON")
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--beta", default=None, help="p/q or inf")
        p.add_argument("--theta", type=int, default=None)
        seed_flag(p)

    p = sub.add_parser("height", help="squared height of a basis file")
    p.add_argument("--basis", required=True)
    common(p)

    p = sub.add_parser("pluecker", help="normalized coordinates of a basis file")
    p.add_argument("--basis", required=True)
    common(p)

    p = sub.add_parser("decode", help="recover a basis from coordinates")
    p.add_argument("--pluecker", required=True, help="JSON with n, e, coords")
    common(p)

    p = sub.add_parser("angles", help="canonical angle sines of two bases")
    p.add_argument("--basis", required=True)
    p.add_argument("--basis-b", required=True)
    precision_flags(p)
    common(p)

    p = sub.add_parser("enumerate", help="rational subspaces by height")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--hmax-squared", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard-index", type=int, default=0)
    common(p)

    p = sub.add_parser("construct", help="materialize an instance")
    instance_flags(p)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--depth", type=int, default=None)
    common(p)

    for name, helptext in (
        ("records", "record subspaces against a target"),
        ("estimate", "approximation exponent from records"),
    ):
        p = sub.add_parser(name, help=helptext)
        instance_flags(p)
        p.add_argument("--basis", default=None, help="rational target basis JSON")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--e", type=int, default=None)
        p.add_argument("--j", type=int, default=None)
        p.add_argument("--hmax-squared", type=int, default=None)
        p.add_argument("--strategy", choices=STRATEGIES, default=None,
                       help="census order of a generic scan; line targets take the line engine")
        precision_flags(p)
        common(p)

    p = sub.add_parser("exclusivity", help="records beyond burn-in vs convergents")
    instance_flags(p)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--hmax-squared", type=int, default=None)
    precision_flags(p)
    common(p)

    p = sub.add_parser("harness", help="intrinsic vs ambient exponent comparison")
    instance_flags(p)
    p.add_argument("--n", type=int, default=None, help="ambient dimension")
    p.add_argument("--hmax-squared", type=int, default=None)
    common(p)

    p = sub.add_parser("verify", help="named deterministic property suites")
    p.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    seed_flag(p)
    common(p)

    return parser


def run_command(
    argv: Sequence[str],
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    """Parse argv, run one subcommand, emit its report, return the exit code."""
    out_stream = stdout if stdout is not None else sys.stdout
    err_stream = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(list(argv))
    except _UsageError as err:
        print(f"error: {err}", file=err_stream)
        return 2

    handle = None
    try:
        data_stream = out_stream
        if args.out:
            handle = open(args.out, "w", encoding="utf-8")
            data_stream = handle
        try:
            rows, code = _HANDLERS[args.command](args)
        except _CHECK_FAILURES as err:
            failure = {"type": "failure", "error": type(err).__name__, "detail": str(err)}
            for field in ("check", "n_index"):
                if hasattr(err, field):
                    failure[field] = getattr(err, field)
            rows, code = [failure], 1
        emit = functools.partial(reports.emit_report, rows) if isinstance(rows, list) else rows
        try:
            emit(
                args.format,
                data_stream,
                command=args.command,
                no_header=args.no_header,
            )
        except BrokenPipeError:
            # the reader stopped early (`| head`); the run's outcome stands
            pass
        return code
    except (_UsageError, SubdiophError) as err:
        print(f"error: {err}", file=err_stream)
        return 2
    except OSError as err:
        print(f"error: {err}", file=err_stream)
        return 2
    finally:
        if handle is not None:
            with contextlib.suppress(BrokenPipeError):
                handle.close()


def main() -> None:
    code = run_command(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # send what is still buffered to devnull, so that the flush at
        # interpreter exit does not report the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
