"""The exact-lines census in runs: streams against the per-label walk that
the runs replaced, and the run writer against emit_labels."""

import io
import itertools
import time
from math import gcd, isqrt

import pytest

from subdioph import enumeration, reports
from subdioph.cli import run_command
from subdioph.enumeration import (
    CHECKPOINT,
    EXACT_ECHELON,
    EXACT_LINES,
    SUBSPACE,
    EnumSpec,
    census_runs,
    enumerate_events,
    enumerate_labels,
    leading_range,
)
from subdioph.errors import ParameterError, SerializationError


def reference_with_leading(n, budget, lead):
    """The per-label walk: one (vector, squared norm) per draw, a new tuple
    and a gcd test per vector of a prefix that is not primitive."""

    def boxed(k, budget, zero_so_far):
        if k == 0:
            yield (), 0, zero_so_far
            return
        top = isqrt(budget)
        for v in range(0 if zero_so_far else -top, top + 1):
            for tail, tail_sq, tail_zero in boxed(k - 1, budget - v * v, zero_so_far and v == 0):
                yield (v,) + tail, v * v + tail_sq, tail_zero

    rem = budget - lead * lead
    if rem < 0:
        return
    if n == 1:
        if lead == 1:
            yield (1,), 1
        return
    for head, head_sq, zero in boxed(n - 2, rem, lead == 0):
        prefix = (lead,) + head
        top = isqrt(rem - head_sq)
        sq = lead * lead + head_sq
        if zero:
            if top:
                yield prefix + (1,), sq + 1
            continue
        g = gcd(*prefix)
        for v in range(-top, top + 1):
            if gcd(g, v) == 1:
                yield prefix + (v,), sq + v * v


def reference_hyperplane_label(normal):
    """The label of the hyperplane orthogonal to a primitive normal, one
    normal at a time: reversed, alternating signs, positive lead."""
    coords = [-x if i & 1 else x for i, x in enumerate(reversed(normal))]
    if next(c for c in coords if c != 0) < 0:
        coords = [-c for c in coords]
    return tuple(coords)


def reference_leads(spec, cursor):
    lo, hi = leading_range(spec)
    size, i, count = hi - lo + 1, spec.shard_index, spec.shard_count
    lo, hi = lo + i * size // count, lo + (i + 1) * size // count - 1
    return range(lo if cursor is None else max(lo, cursor + 1), hi + 1)


def reference_labels_at(spec, lead):
    for vec, h2 in reference_with_leading(spec.n, spec.height_squared_max, lead):
        yield (vec if spec.e == 1 else reference_hyperplane_label(vec)), h2


def reference_labels(spec, cursor=None):
    return [label for lead in reference_leads(spec, cursor)
            for label in reference_labels_at(spec, lead)]


def reference_events(spec, cursor=None):
    events = []
    for lead in reference_leads(spec, cursor):
        events += [(SUBSPACE, coords) for coords, _ in reference_labels_at(spec, lead)]
        events.append((CHECKPOINT, lead))
    return events


BOUNDS = {2: 200, 3: 150, 4: 60, 5: 25, 6: 12}
WINDOWS = [
    EnumSpec(n, e, BOUNDS[n], shard_count=count, shard_index=index)
    for n in BOUNDS
    for e in sorted({1, n - 1})
    for count, index in ((1, 0), (3, 1))
]
WINDOW_IDS = [f"r{s.n}-e{s.e}-shard{s.shard_index}of{s.shard_count}" for s in WINDOWS]


@pytest.fixture(params=[None, 3], ids=["runs", "runs-of-3"])
def run_size(request, monkeypatch):
    """The default run length, or runs of at most 3 values: every prefix
    past |v| = 1 is then cut into several runs."""
    if request.param is not None:
        monkeypatch.setattr(enumeration, "_RUN_LEN", request.param)
    return request.param


@pytest.mark.parametrize("spec", WINDOWS, ids=WINDOW_IDS)
def test_census_streams_are_the_per_label_streams(spec, run_size):
    assert reference_labels(spec)
    for cursor in (None, reference_leads(spec, None)[0]):
        want = reference_labels(spec, cursor)
        assert list(enumerate_labels(spec, cursor)) == want
        events = [(kind, item.pluecker.coords if kind == SUBSPACE else item)
                  for kind, item in enumerate_events(spec, cursor)]
        assert events == reference_events(spec, cursor)
    runs = census_runs(spec)
    assert (runs is None) == (spec.e != 1)
    if runs is not None:
        runs = list(runs)
        assert all(0 < len(values) <= enumeration._RUN_LEN for _, _, values in runs)
        assert [(prefix + (v,), sq + v * v) for prefix, sq, values in runs
                for v in values] == reference_labels(spec)


@pytest.mark.parametrize("n, bound", [(2, 300), (3, 120), (4, 40), (6, 9)])
def test_primitive_vectors_are_the_per_label_walk(n, bound, run_size):
    want = [pair for lead in range(isqrt(bound) + 1)
            for pair in reference_with_leading(n, bound, lead)]
    assert list(enumerate_labels(EnumSpec(n, 1, bound, EXACT_LINES))) == want


def test_only_a_line_census_has_runs():
    assert census_runs(EnumSpec(3, 2, 10)) is None
    assert census_runs(EnumSpec(4, 1, 10, EXACT_ECHELON)) is None


# ---------------------------------------------------------------------------
# the run writer


FIXED_HEADER = {"type": "header", "command": "enumerate", "generated": "2000-01-01T00:00:00+00:00"}
LINE_WINDOWS = [spec for spec in WINDOWS if spec.e == 1]
# shards with no leading value
EMPTY_WINDOWS = [EnumSpec(2, 1, 1, shard_count=3, shard_index=0),
                 EnumSpec(4, 1, 3, shard_count=5, shard_index=3)]


def written(emit, rows, fmt, no_header):
    out = io.StringIO()
    emit(rows, fmt, out, "enumerate", no_header)
    return out.getvalue()


@pytest.mark.parametrize("fmt", reports.FORMATS)
@pytest.mark.parametrize("no_header", [False, True])
@pytest.mark.parametrize("limits", [None, (5, 7)], ids=["default", "chunk-5-cache-7"])
def test_run_rows_are_the_label_rows(monkeypatch, run_size, fmt, no_header, limits):
    """Across chunk boundaries, cache resets and runs cut short, the run
    writer writes emit_labels' bytes for every line window, and the header
    alone for an empty window."""
    monkeypatch.setattr(reports, "header_line", lambda command: FIXED_HEADER)
    if limits is not None:
        monkeypatch.setattr(reports, "_LABEL_CHUNK", limits[0])
        monkeypatch.setattr(reports, "_TAIL_CACHE", limits[1])
    for spec in LINE_WINDOWS + EMPTY_WINDOWS:
        got = written(reports.emit_line_runs, census_runs(spec), fmt, no_header)
        want = written(reports.emit_labels, enumerate_labels(spec), fmt, no_header)
        assert got == want, spec
    for spec in EMPTY_WINDOWS:
        assert not list(enumerate_labels(spec))
        got = written(reports.emit_line_runs, census_runs(spec), fmt, no_header)
        assert got.count("\n") == (0 if no_header else 1)


@pytest.mark.parametrize("fmt", reports.FORMATS)
def test_cli_lines_are_the_label_rows(fmt):
    """The enumerate verb writes line windows from their runs, and
    hyperplane windows label by label: both with the bytes of emit_labels
    over enumerate_labels, a shard of the lines of R^3 at H^2 <= 500
    included."""
    for spec in WINDOWS + [EnumSpec(3, 1, 500, shard_count=3, shard_index=1)]:
        argv = ["enumerate", "--n", str(spec.n), "--e", str(spec.e),
                "--hmax-squared", str(spec.height_squared_max),
                "--shards", str(spec.shard_count), "--shard-index", str(spec.shard_index),
                "--format", fmt, "--no-header"]
        out = io.StringIO()
        assert run_command(argv, stdout=out) == 0
        assert out.getvalue() == written(reports.emit_labels, enumerate_labels(spec), fmt, True)


@pytest.mark.parametrize("fmt", reports.FORMATS)
def test_runs_past_the_digit_limit_print_in_full(monkeypatch, fmt):
    """A run whose prefix or values pass the int -> str digit limit goes
    through exact_str; the runs around it keep the fast text."""
    big = 7**6000
    runs = [((1, 2), 5, range(-2, 3)), ((1, big), 1 + big * big, (-1, 1)),
            ((3,), 9, (big,)), ((1, 2), 5, range(-2, 3))]
    labels = [(prefix + (v,), sq + v * v) for prefix, sq, values in runs for v in values]
    want = written(reports.emit_labels, labels, fmt, True)
    seen = []
    exact_str = reports.exact_str
    monkeypatch.setattr(reports, "exact_str", lambda v: seen.append(v) or exact_str(v))
    got = written(reports.emit_line_runs, runs, fmt, True)
    assert got == want and str(big % 10**50).zfill(50) in got
    past = {x for prefix, sq, values in runs[1:3]
            for x in (*prefix, *values, *(sq + v * v for v in values))}
    assert seen and set(seen) <= past


def test_run_writer_rejects_an_unknown_format_and_a_failing_stream():
    stream = io.StringIO()
    with pytest.raises(SerializationError):
        reports.emit_line_runs(census_runs(EnumSpec(2, 1, 5)), "xml", stream)

    def broken():
        raise ParameterError("census refused")
        yield

    with pytest.raises(ParameterError):
        reports.emit_line_runs(broken(), "jsonl", stream)
    assert stream.getvalue() == ""


class _Stop(Exception):
    pass


class FirstWrite:
    """A stream that keeps its first data write and then stops the writer."""

    def __init__(self):
        self.text = None

    def write(self, text):
        if text.startswith("{") or text.startswith('"'):
            self.text = text
            raise _Stop


@pytest.mark.parametrize("spec", [EnumSpec(3, 1, 10**8), EnumSpec(2, 1, 10**40)],
                         ids=["r3-1e8", "r2-1e40"])
def test_a_huge_census_writes_its_first_rows_at_once(spec):
    """Rows go out in chunks of at most _LABEL_CHUNK rows plus one run,
    however long a prefix's range is."""
    stream = FirstWrite()
    start = time.perf_counter()
    with pytest.raises(_Stop):
        reports.emit_line_runs(census_runs(spec), "jsonl", stream, no_header=True)
    assert time.perf_counter() - start < 5
    rows = stream.text.count("\n")
    assert 0 < rows <= reports._LABEL_CHUNK + enumeration._RUN_LEN
    want = list(itertools.islice(enumerate_labels(spec), rows))
    assert stream.text == written(reports.emit_labels, want, "jsonl", True)
