"""Span tracing of subdioph's public functions, installed from outside.

The tracer replaces each public function of a layer module (and a few
classmethods) by a timing wrapper, everywhere the package binds it: in the
defining module, in modules that re-bound it with ``from ... import``, and in
the package namespace.  Generator functions get one span per ``next()``.
Spans stay in memory until ``write_spans`` is called; ``restore`` puts every
original back.  A layer's self time is the time its spans cover minus the
time their child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import math
import statistics
import time
from array import array

LAYERS = (
    "exact",
    "angles",
    "construction",
    "enumeration",
    "estimation",
    "morphisms",
    "reports",
    "cli",
)

# Public classmethods and methods wrapped besides module-level functions.
METHODS = (
    ("angles", "RealBasis", "from_exact"),
    ("angles", "RealBasis", "from_subspace"),
    ("angles", "AngleProfile", "widened"),
    ("exact", "RationalSubspace", "from_basis"),
    ("exact", "RationalSubspace", "from_pluecker"),
)

BENCH = "bench"
# Spans kept for the span file; aggregates count every span regardless.
MAX_STORED_SPANS = 200_000


class Tracer:
    """Timing wrappers plus the span store and per-name aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        # one open frame per active span: [span index, name id, start, child seconds]
        self.stack: list[list] = []
        self.span_count = 0
        self.span_index = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.hooks: dict[str, object] = {}
        self._ids: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key in self._ids:
            return self._ids[key]
        self._ids[key] = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        return len(self.names) - 1

    def enter(self, nid: int) -> None:
        index = self.span_count
        self.span_count += 1
        self.stack.append([index, nid, self.clock(), 0.0])

    def leave(self) -> float:
        end = self.clock()
        index, nid, start, child = self.stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.incl_s[nid] += duration
        self.self_s[nid] += duration - child
        parent = -1
        if self.stack:
            frame = self.stack[-1]
            frame[3] += duration
            parent = frame[0]
        if len(self.span_index) >= MAX_STORED_SPANS:
            return duration
        self.span_index.append(index)
        self.span_parent.append(parent)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        return duration

    def span(self, layer: str, name: str):
        """Context manager opening one span under the given name."""
        return _Span(self, self.name_id(layer, name))

    # -- wrappers -----------------------------------------------------------

    def wrap(self, func, layer: str, name: str):
        nid = self.name_id(layer, name)
        hook = self.hooks.get(f"{layer}.{name}")
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(func, nid, hook)

        def traced(*args, **kwargs):
            self.enter(nid)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.leave()
                raise
            duration = self.leave()
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        traced.__wrapped__ = func
        return traced

    def _wrap_generator(self, func, nid: int, hook):
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            try:
                while True:
                    self.enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.leave()
                        return
                    except BaseException:
                        self.leave()
                        raise
                    duration = self.leave()
                    if hook is not None:
                        hook(args, kwargs, item, duration)
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = func
        return traced

    def install(self, package_name: str = "subdioph") -> None:
        """Wrap every layer's public functions wherever the package binds them."""
        package = importlib.import_module(package_name)
        modules = {layer: importlib.import_module(f"{package_name}.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                replaced[id(obj)] = self.wrap(obj, layer, name)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, layer, f"{cls_name}.{attr}"))
            else:
                new = self.wrap(raw, layer, f"{cls_name}.{attr}")
            self._patch(cls, attr, new)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patch(module, name, wrapper)

    def _patch(self, target, attr: str, new) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, new)

    def restore(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per qualified name: calls, self seconds, inclusive seconds."""
        return {
            name: {"calls": self.calls[nid], "self_s": self.self_s[nid], "incl_s": self.incl_s[nid]}
            for nid, name in enumerate(self.names)
        }

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, layer in enumerate(self.layer_of):
            out[layer] = out.get(layer, 0.0) + self.self_s[nid]
        return out

    def write_spans(self, path) -> int:
        """Write the stored spans as gzipped tab-separated lines; returns
        how many were written (the first MAX_STORED_SPANS to end)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_index)):
                handle.write(
                    f"{self.span_index[i]}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
        return len(self.span_index)


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.leave()
        return False


class LayerCounters:
    """Work counts gathered by hooks on specific wrapped functions."""

    def __init__(self, tracer: Tracer, default_angle_bits: int):
        self.default_angle_bits = default_angle_bits
        self.angle_bits: list[int] = []
        self.adaptive_calls = 0
        self.doublings: list[float] = []
        self.first_doubling = 0
        self.principal_calls = 0
        self.levels = 0
        self.construction_bits_max = 0
        self.enum_items: dict[str, int] = {}
        self.enum_seconds: dict[str, float] = {}
        self.primitive_items = 0
        self.candidates = 0
        self.records = 0
        self.report_rows = 0
        self.report_bytes = 0
        self.exit_codes = {0: 0, 1: 0, 2: 0}
        self.raised = 0
        tracer.hooks.update(
            {
                "angles.angles_adaptive": self._adaptive,
                "angles.principal_angles": self._principal,
                "construction.certify_instance": self._certify,
                "enumeration.enumerate_subspaces": self._enumerated,
                "enumeration.primitive_vectors": self._primitive,
                "reports.emit_report": self._report,
            }
        )

    def _adaptive(self, args, kwargs, profile, _duration):
        ctx = kwargs.get("ctx", args[2] if len(args) > 2 else None)
        start = ctx.bits if ctx is not None else self.default_angle_bits
        self.adaptive_calls += 1
        self.angle_bits.append(profile.bits_used)
        self.doublings.append(math.log2(profile.bits_used / start))
        if profile.bits_used == 2 * start:
            self.first_doubling += 1

    def _principal(self, _args, _kwargs, profile, _duration):
        self.principal_calls += 1
        self.angle_bits.append(profile.bits_used)

    def _certify(self, _args, _kwargs, cert, _duration):
        self.levels += len(cert.records)
        self.construction_bits_max = max(self.construction_bits_max, cert.bits_used)

    def _enumerated(self, args, kwargs, _item, duration):
        spec = kwargs.get("spec", args[0] if args else None)
        key = strategy_key(spec)
        self.enum_items[key] = self.enum_items.get(key, 0) + 1
        self.enum_seconds[key] = self.enum_seconds.get(key, 0.0) + duration

    def _primitive(self, _args, _kwargs, _item, _duration):
        self.primitive_items += 1

    def _report(self, args, kwargs, _result, _duration):
        rows = kwargs.get("records", args[0] if args else ())
        self.report_rows += len(rows)

    def note_op_counts(self, counts: dict) -> None:
        """Counts an op reads off its own output (record and pool sizes)."""
        self.records += counts.get("records", 0)
        self.candidates += counts.get("candidates", 0)

    def note_report_bytes(self, count: int) -> None:
        self.report_bytes += count

    def note_exit(self, code) -> None:
        if code is None:
            self.raised += 1
        else:
            self.exit_codes[code] = self.exit_codes.get(code, 0) + 1


def strategy_key(spec) -> str:
    """Metric key of an enumeration window: its strategy, or hyperplanes."""
    if spec.strategy == "exact-lines" and spec.e == spec.n - 1 and spec.e != 1:
        return "hyperplanes"
    return spec.strategy


def layer_metrics(tracer: Tracer, counters: LayerCounters) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json, from one traced run."""
    totals = tracer.totals()
    layer_self = tracer.layer_self_s()

    def self_of(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls_of(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    bits = counters.angle_bits
    pairs = counters.adaptive_calls + counters.principal_calls
    angles_self = layer_self.get("angles", 0.0)
    certify_incl = totals.get("construction.certify_instance", {}).get("incl_s", 0.0)
    m = {
        "angles.self_s": angles_self,
        "angles.pairs": pairs,
        "angles.pairs_per_s": ratio(pairs, angles_self),
        "angles.bits_used_p50": statistics.median(bits) if bits else 0,
        "angles.bits_used_max": max(bits) if bits else 0,
        "angles.doublings_mean": statistics.fmean(counters.doublings) if counters.doublings else 0.0,
        "angles.first_doubling_ratio": ratio(counters.first_doubling, counters.adaptive_calls),
        "angles.orthonormal_basis.self_s": self_of("angles.orthonormal_basis"),
        "construction.self_s": layer_self.get("construction", 0.0),
        "construction.certify_instance.self_s": self_of("construction.certify_instance"),
        "construction.build_convergent.calls": calls_of("construction.build_convergent"),
        "construction.levels": counters.levels,
        "construction.levels_per_s": ratio(counters.levels, certify_incl),
        "construction.bits_used_max": counters.construction_bits_max,
        "exact.self_s": layer_self.get("exact", 0.0),
        "exact.pluecker_coordinates.calls": calls_of("exact.pluecker_coordinates"),
        "exact.pluecker_decode.calls": calls_of("exact.pluecker_decode"),
        "exact.pluecker_decode.self_s": self_of("exact.pluecker_decode"),
        "exact.raw_minors.calls": calls_of("exact.raw_minors"),
        "exact.is_primitive_basis.calls": calls_of("exact.is_primitive_basis"),
        "exact.determinant.calls": calls_of("exact.determinant"),
        "exact.rational_kernel.self_s": self_of("exact.rational_kernel"),
        "enumeration.self_s": layer_self.get("enumeration", 0.0),
        "enumeration.subspaces": sum(counters.enum_items.values()),
    }
    for key in ("exact-lines", "exact-pluecker", "hyperplanes"):
        m[f"enumeration.{key}.per_s"] = ratio(
            counters.enum_items.get(key, 0), counters.enum_seconds.get(key, 0.0)
        )
    m.update(
        {
            "enumeration.primitive_vectors.items": counters.primitive_items,
            "estimation.self_s": layer_self.get("estimation", 0.0),
            "estimation.scan_line_records.self_s": self_of("estimation.scan_line_records"),
            "estimation.scan_records.self_s": self_of("estimation.scan_records"),
            "estimation.irrationality_scan.self_s": self_of("estimation.irrationality_scan"),
            "estimation.candidates": counters.candidates,
            "estimation.records": counters.records,
            "estimation.record_yield": ratio(counters.records, counters.candidates),
            "estimation.exclusivity_check.self_s": self_of("estimation.exclusivity_check"),
            "morphisms.self_s": layer_self.get("morphisms", 0.0),
            "morphisms.embedding_harness.self_s": self_of("morphisms.embedding_harness"),
            "morphisms.apply_to_subspace.calls": calls_of("morphisms.apply_to_subspace"),
            "reports.self_s": layer_self.get("reports", 0.0),
            "reports.rows": counters.report_rows,
            "reports.bytes": counters.report_bytes,
            "reports.bytes_per_s": ratio(counters.report_bytes, layer_self.get("reports", 0.0)),
            "cli.self_s": layer_self.get("cli", 0.0),
            "cli.exit_0": counters.exit_codes.get(0, 0),
            "cli.exit_1": counters.exit_codes.get(1, 0),
            "cli.exit_2": counters.exit_codes.get(2, 0),
            "cli.raised": counters.raised,
        }
    )
    return m
