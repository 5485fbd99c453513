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

from mpmath import mp

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
    random_orthogonal,
)
from .enumeration import STRATEGIES, EnumSpec, enumerate_labels, exact_strategy
from .errors import (
    CertificationFailure,
    InsufficientRecordsError,
    IrrationalityViolationError,
    PrecisionExhaustedError,
    SubdiophError,
)

COMMANDS = (
    "height",
    "pluecker",
    "decode",
    "angles",
    "enumerate",
    "construct",
    "records",
    "estimate",
    "exclusivity",
    "harness",
    "verify",
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
    if text.strip().lower() in ("inf", "infinity"):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise _UsageError(f"bad beta {text!r}: {err}") from None


def _instance_params(args) -> con.ConstructionParams:
    if getattr(args, "instance", None):
        return con.params_from_descriptor(_load_json(args.instance))
    if getattr(args, "ell", None) is None or getattr(args, "beta", None) is None:
        raise _UsageError("need --instance FILE or both --ell and --beta")
    beta = _parse_beta(args.beta)
    variant = con.FINITE if beta is not None else con.INFINITE
    return con.ConstructionParams.create(
        args.ell, beta, theta=args.theta, seed=args.seed, variant=variant
    )


def _precision_context(args) -> PrecisionContext | None:
    bits = getattr(args, "precision_bits", None)
    rel = getattr(args, "target_rel_err", None)
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
    """Shared target resolution for the records and estimate commands."""
    hmax = args.hmax_squared
    if hmax is None:
        raise _UsageError("--hmax-squared is required")
    ctx = _precision_context(args)
    if getattr(args, "instance", None) or args.ell is not None:
        params = _instance_params(args)
        if args.e is not None and args.e != params.ell:
            raise _UsageError(f"--e must equal the instance's ell = {params.ell}")
        if params.ell == 1 and args.strategy is None and args.j in (None, 1):
            target = est.line_target_for_instance(params, height_squared_max=hmax)
            n = _given(args.n, 2)
            if n < 2:
                raise _UsageError("ambient dimension must be at least 2")
            return est.scan_embedded_line_records(target, n, hmax)
        if args.n is not None and args.n != params.n:
            raise _UsageError(f"--n must equal the instance's n = {params.n}")
        # the generators get depth at least 1, even where the series starts at 0
        generators = con.build_generators(params, est.series_depth(params, hmax, 1))
        spec = _enum_spec(args, params.n, params.ell, hmax)
        return est.scan_records(
            generators.real_basis(), spec, j_index=_given(args.j, params.ell), ctx=ctx
        )
    if args.basis:
        matrix = _load_basis(args.basis)
        n = exact.shape(matrix)[0]
        spec = _enum_spec(args, n, _given(args.e, 1), hmax)
        return est.scan_records(matrix, spec, j_index=_given(args.j, 1), ctx=ctx)
    raise _UsageError("need a target: --instance, --ell/--beta, or --basis")


# ---------------------------------------------------------------------------
# command handlers (records, exit code); enumerate hands over its label
# stream instead of a list of records


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
                "sinLo": est._float_down(profile.lo[j]),
                "sinHi": est._float_up(profile.hi[j]),
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
    return enumerate_labels(spec), 0


def _cmd_construct(args):
    params = _instance_params(args)
    if args.nmax is None:
        raise _UsageError("--nmax is required")
    if args.certify:
        cert = con.certify_instance(params, args.nmax, depth=args.depth)
        return list(cert.as_records()), 0
    rows = [con.params_to_descriptor(params)]
    for n_index in range(1, args.nmax + 1):
        conv = con.build_convergent(params, n_index)
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
    spec = EnumSpec(
        n=params.n,
        e=params.ell,
        height_squared_max=args.hmax_squared,
        strategy=exact_strategy(params.n, params.ell),
    )
    report = est.exclusivity_check(
        params, args.nmax, spec, ctx=_precision_context(args)
    )
    return [report.as_dict()], 0 if report.ok else 1


def _cmd_harness(args):
    if args.hmax_squared is None:
        raise _UsageError("--hmax-squared is required")
    n = _given(args.n, 3)
    if n < 2:
        raise _UsageError("ambient dimension must be at least 2")
    if getattr(args, "instance", None) or args.ell is not None:
        params = _instance_params(args)
        target = est.line_target_for_instance(
            params, height_squared_max=args.hmax_squared
        )
    else:
        target = est.golden_line_target()
    f_rows = [[1, 0], [0, 1]] + [[0, 0]] * (n - 2)
    f_subspace = exact.RationalSubspace.from_basis(f_rows)
    proj = mor.RationalMap.from_rows(
        [[1 if j == i else 0 for j in range(n)] for i in range(2)]
    )
    report = mor.embedding_harness(
        target, f_subspace, proj, args.hmax_squared
    )
    return [report.as_dict()], 0


# ---------------------------------------------------------------------------
# verify: named property suites


def _random_full_rank(rng, n, e, bound=9):
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(e)] for _ in range(n)]
        if exact.rank(m) == e:
            return m


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
    return [
        {
            "suite": "heights",
            "check": "covolume-gcd-identity",
            "trials": trials,
            "failures": failures,
            "ok": failures == 0,
            "witness": witness,
        }
    ]


def _suite_pluecker(rng) -> list[dict]:
    shapes = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
    trials, failures, witness = 90, 0, ""
    for i in range(trials):
        n, e = shapes[i % len(shapes)]
        sub = exact.RationalSubspace.from_basis(_random_full_rank(rng, n, e))
        if exact.pluecker_decode(sub.pluecker) != sub:
            failures += 1
            witness = witness or str(sub.basis)
    rows = [
        {
            "suite": "pluecker",
            "check": "decode-roundtrip",
            "trials": trials,
            "failures": failures,
            "ok": failures == 0,
            "witness": witness,
        }
    ]
    rej_trials, rej_failures, rej_witness = 40, 0, ""
    done = 0
    while done < rej_trials:
        coords = [rng.randint(-9, 9) for _ in range(6)]
        # quadric for (4,2): p01*p23 - p02*p13 + p03*p12
        quad = coords[0] * coords[5] - coords[1] * coords[4] + coords[2] * coords[3]
        if quad == 0 or all(c == 0 for c in coords):
            continue
        g = math.gcd(*(abs(c) for c in coords))
        coords = [c // g for c in coords]
        lead = next(c for c in coords if c != 0)
        if lead < 0:
            coords = [-c for c in coords]
        done += 1
        try:
            exact.pluecker_decode(exact.PlueckerVector(4, 2, tuple(coords)))
        except SubdiophError:
            continue
        rej_failures += 1
        rej_witness = rej_witness or str(coords)
    rows.append(
        {
            "suite": "pluecker",
            "check": "decode-rejects-nondecomposable",
            "trials": rej_trials,
            "failures": rej_failures,
            "ok": rej_failures == 0,
            "witness": rej_witness,
        }
    )
    return rows


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
        with mp.workprec(bits + 32):
            q = random_orthogonal(n, rng, bits=bits)
            qa = (q * mp.matrix(a_rows)).tolist()
            qb = (q * mp.matrix(b_rows)).tolist()
        ra = RealBasis.from_float([[float(x) for x in row] for row in qa])
        rb = RealBasis.from_float([[float(x) for x in row] for row in qb])
        rot = principal_angles(ra, rb, bits=bits)
        float_tol = 1e-12
        if any(
            abs(float(x) - float(y)) > float_tol + 4 * float(ab.rel_err_bound)
            for x, y in zip(ab.psi, rot.psi)
        ):
            invar_f += 1
            witness = witness or f"invariance {a_rows} {b_rows}"
    return [
        {
            "suite": "angles",
            "check": name,
            "trials": trials,
            "failures": count,
            "ok": count == 0,
            "witness": witness if count else "",
        }
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
    return [
        {
            "suite": "distortion",
            "check": "height-bound",
            "trials": trials,
            "failures": failures,
            "ok": failures == 0,
            "witness": witness,
        }
    ]


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
        rows.extend(_SUITES[name](random.Random(args.seed)))
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
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--target-rel-err", default=None)

    def instance_flags(p):
        p.add_argument("--instance", default=None, help="instance descriptor JSON")
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--beta", default=None, help="p/q or inf")
        p.add_argument("--theta", type=int, default=None)

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
        p.add_argument("--strategy", choices=STRATEGIES, default=None)
        common(p)

    p = sub.add_parser("exclusivity", help="records beyond burn-in vs convergents")
    instance_flags(p)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--hmax-squared", type=int, default=None)
    common(p)

    p = sub.add_parser("harness", help="intrinsic vs ambient exponent comparison")
    instance_flags(p)
    p.add_argument("--n", type=int, default=None, help="ambient dimension")
    p.add_argument("--hmax-squared", type=int, default=None)
    common(p)

    p = sub.add_parser("verify", help="named deterministic property suites")
    p.add_argument("suite", choices=tuple(_SUITES) + ("all",))
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
        emit = reports.emit_report if isinstance(rows, list) else reports.emit_labels
        try:
            emit(
                rows,
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
