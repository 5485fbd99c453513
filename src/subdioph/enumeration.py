"""Exhaustive enumeration of rational subspaces up to a height bound.

This is the brute-force oracle behind exponent measurement: it must emit
exactly one representative per subspace, never miss one below the bound,
and behave deterministically so that runs are reproducible and shardable.

Every strategy is a complete census.  EXACT_ECHELON covers every shape: it
walks reduced echelon bases scaled by the label's first nonzero coordinate
(see _echelon_at).  EXACT_LINES (dimension 1, or codimension 1 via
primitive normal vectors) and EXACT_PLUECKER (planes in R^4 via integer
coordinate 6-tuples on the decomposability quadric) are faster paths for
their shapes, and exact_strategy picks them there.

Every strategy yields labels: (coords, squared height) pairs, both of
which it computes anyway.  A line is its own label; a hyperplane's label
is its primitive normal reversed with alternating signs; a plane in R^4 is
a point of the Pluecker quadric, checked against the Pluecker relation; an
echelon label is read off the minors of its scaled echelon basis.
enumerate_labels streams these pairs as they are, which is all a census
written to a file needs and all a generic record scan reads.
enumerate_events and enumerate_subspaces map the same streams to
subspaces: the labels are primitive with a positive lead by construction,
so they are built with PlueckerVector._normalized, without
PlueckerVector's checks; a line is built from its vector alone,
label and basis, by RationalSubspace._line.  Bases other than a line's are
decoded only on first access to .basis.

EXACT_LINES walks its census in runs: one (prefix, squared norm, last
coordinates) per prefix of the primitive vectors (see
_primitive_with_leading).  Lines expand a run to its vectors, and
hyperplanes sign and reverse its prefix once for all its labels;
census_runs hands the runs of a line census to a writer, and the
enumerate verb writes its rows per run (reports.emit_line_runs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, combinations
from math import gcd, isqrt
from operator import mul
from typing import Callable, Iterator, Sequence

from . import exact
from .errors import ParameterError, StrategyMismatchError, SubdiophError

EXACT_LINES = "exact-lines"
EXACT_PLUECKER = "exact-pluecker"
EXACT_ECHELON = "exact-echelon"
STRATEGIES = (EXACT_LINES, EXACT_PLUECKER, EXACT_ECHELON)


def exact_strategy(n: int, e: int) -> str:
    """The fastest complete strategy for e-dimensional subspaces of n-space."""
    if e == 1 or e == n - 1:
        return EXACT_LINES
    if (n, e) == (4, 2):
        return EXACT_PLUECKER
    return EXACT_ECHELON


SUBSPACE = "subspace"
CHECKPOINT = "checkpoint"

__all__ = [
    "EXACT_LINES",
    "EXACT_PLUECKER",
    "EXACT_ECHELON",
    "STRATEGIES",
    "exact_strategy",
    "SUBSPACE",
    "CHECKPOINT",
    "EnumSpec",
    "enumerate_labels",
    "enumerate_events",
    "enumerate_subspaces",
    "census_runs",
    "shard_partition",
    "leading_range",
]


@dataclass(frozen=True)
class EnumSpec:
    """Parameters of one enumeration run.

    Sharding splits the range of the leading coordinate (first vector or
    label entry walked by the strategy) into shard_count contiguous
    chunks; shard_index selects one.  Each subspace has one leading
    coordinate, so shards are disjoint and their union is the census.
    """

    n: int
    e: int
    height_squared_max: int
    strategy: str = EXACT_LINES
    shard_count: int = 1
    shard_index: int = 0

    def __post_init__(self) -> None:
        if self.n < 2 or not 1 <= self.e <= self.n:
            raise ParameterError(f"invalid dimensions ({self.n},{self.e})")
        if self.height_squared_max < 1:
            raise ParameterError("height bound must be positive")
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {self.strategy!r}")
        if self.strategy == EXACT_LINES and self.e not in (1, self.n - 1):
            raise StrategyMismatchError(
                "exact-lines handles dimension 1 or codimension 1 only"
            )
        if self.strategy == EXACT_PLUECKER and (self.n, self.e) != (4, 2):
            raise StrategyMismatchError("exact-pluecker handles (n,e) = (4,2) only")
        if not 0 <= self.shard_index < self.shard_count:
            raise ParameterError("shard index out of range")


# ---------------------------------------------------------------------------
# integer vector generation


def _boxed(k: int, budget: int, zero_so_far: bool) -> Iterator[tuple[tuple[int, ...], int, bool]]:
    """All integer k-tuples with squared norm <= budget, sign-canonical.

    While every earlier coordinate is zero the current one is restricted to
    be nonnegative, which picks one representative per sign class.  Yields
    (tuple, squared norm, still all zero).
    """
    if k == 0:
        yield (), 0, zero_so_far
        return
    top = isqrt(budget)
    start = 0 if zero_so_far else -top
    if k == 1:  # the last coordinate, without a generator per value
        for v in range(start, top + 1):
            yield (v,), v * v, zero_so_far and v == 0
        return
    for v in range(start, top + 1):
        for tail, tail_sq, tail_zero in _boxed(k - 1, budget - v * v, zero_so_far and v == 0):
            yield (v,) + tail, v * v + tail_sq, tail_zero


# (prefix, squared norm of the prefix, last coordinates): see _primitive_with_leading
_Run = tuple[tuple[int, ...], int, Sequence[int]]
# values per run: bounds the memory of a run's expansion at any height bound
_RUN_LEN = 1024


def _primitive_with_leading(
    n: int, budget: int, lead: int
) -> Iterator[_Run]:
    """Primitive sign-canonical n-vectors, n >= 2 (EnumSpec's least n),
    with first coordinate lead, in runs.

    A run is (prefix, sq, values): the vectors prefix + (v,) for v in
    values, ascending, where prefix holds the first n - 1 coordinates (from
    _boxed) and sq is its squared norm.  A primitive prefix (gcd 1) takes
    the range of every last coordinate that fits; any other prefix the
    tuple of those coprime to its gcd; the all-zero prefix v = 1 alone.
    Runs are never empty and hold at most _RUN_LEN values, so a prefix whose
    range is longer is cut into runs at fixed offsets from its start.
    """
    rem = budget - lead * lead
    if rem < 0:
        return
    for head, head_sq, zero in _boxed(n - 2, rem, lead == 0):
        prefix = (lead,) + head
        top = isqrt(rem - head_sq)
        sq = lead * lead + head_sq
        if zero:  # an all-zero prefix leaves v = 1 as the only primitive choice
            if top:
                yield prefix, sq, (1,)
            continue
        g = gcd(*prefix)
        for lo in range(-top, top + 1, _RUN_LEN):
            values = range(lo, min(lo + _RUN_LEN, top + 1))
            if g != 1:
                values = tuple([v for v in values if gcd(g, v) == 1])
            if values:
                yield prefix, sq, values


def _vectors(run: _Run) -> list[tuple[tuple[int, ...], int]]:
    """The (vector, squared norm) pairs of one run, in order."""
    prefix, sq, values = run
    return [(prefix + (v,), sq + v * v) for v in values]


# ---------------------------------------------------------------------------
# strategies: (label coords, squared height) of each subspace with one lead


def _lines_at(spec: EnumSpec, lead: int) -> Iterator[tuple[tuple[int, ...], int]]:
    # a primitive sign-canonical vector is its own normalized label
    runs = _primitive_with_leading(spec.n, spec.height_squared_max, lead)
    return chain.from_iterable(map(_vectors, runs))


def _hyperplanes_at(spec: EnumSpec, lead: int) -> Iterator[tuple[tuple[int, ...], int]]:
    runs = _primitive_with_leading(spec.n, spec.height_squared_max, lead)
    return chain.from_iterable(map(_hyperplanes, runs))


def _hyperplanes(run: _Run) -> list[tuple[tuple[int, ...], int]]:
    """Labels of the hyperplanes orthogonal to the primitive normals of one
    run, with their squared heights.

    The minor that omits row i of a basis is +-(-1)^i normal[i], and the
    lexicographic row sets omit the rows in reverse order: the label is the
    normal reversed, with alternating signs, made to lead with a positive
    entry; its squared norm is the normal's.  The normal prefix + (v,)
    reverses to (v,) + tail, so the run signs and reverses its prefix once:
    v > 0 gives (v,) + tail, v < 0 gives (-v,) + (-tail), and v = 0 (only
    after a nonzero prefix) whichever of tail and -tail leads positive.
    """
    prefix, sq, values = run
    n = len(prefix) + 1
    tail = tuple([-x if (n - 1 - i) & 1 else x for i, x in enumerate(prefix)][::-1])
    neg = tuple([-x for x in tail])
    # tail > neg exactly when the first nonzero entry of tail is positive
    zero = (0,) + max(tail, neg)
    return [
        ((v,) + tail if v > 0 else (-v,) + neg if v else zero, sq + v * v) for v in values
    ]


def _planes4_at(spec: EnumSpec, lead: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Planes in R^4 with coordinates (x12, x13, x14, x23, x24, x34).

    Decomposable exactly when x12*x34 - x13*x24 + x14*x23 = 0; the last
    coordinate is solved from the first five (or scanned when x12 = 0 makes
    the constraint degenerate).
    """
    bound = spec.height_squared_max
    rem = bound - lead * lead
    if rem < 0:
        return
    for (x13, x14, x23, x24), used, still_zero in _boxed(4, rem, lead == 0):
        cross = x13 * x24 - x14 * x23
        left = rem - used
        if lead != 0:
            if cross % lead != 0:
                continue
            x34 = cross // lead
            if x34 * x34 > left:
                continue
            candidates = (x34,)
        else:
            if cross != 0:
                continue
            top = isqrt(left)
            candidates = range(1 if still_zero else -top, top + 1)
        for x34 in candidates:
            coords = (lead, x13, x14, x23, x24, x34)
            if gcd(*coords) != 1:
                continue
            yield _plane_label(coords), lead * lead + used + x34 * x34


def _plane_label(coords: tuple[int, ...]) -> tuple[int, ...]:
    """coords, checked against x12*x34 - x13*x24 + x14*x23 = 0: for
    (n, e) = (4, 2) that relation is the whole decomposability test."""
    x12, x13, x14, x23, x24, x34 = coords
    if x12 * x34 - x13 * x24 + x14 * x23 != 0:
        raise SubdiophError(f"plane label {coords} fails the Pluecker relation")
    return coords


def _echelon_at(spec: EnumSpec, lead: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every e-subspace whose label has first nonzero coordinate d = lead.

    A subspace has one reduced echelon basis R: its rows J (the pivots
    j_1 < ... < j_e) form the identity, and column i is zero above row j_i.
    The label is d times the minors of R, where d is the label's entry at J,
    the first nonzero one.  The entry at J with j_i swapped for a free row
    k is +-d*R[k][i], so M = d*R is an integer matrix whose free entries
    fit the budget X - d^2 (X the height bound), and the minors of M are
    d^(e-1) times the label.  Walking the pivot sets and the free entries
    of M therefore reaches each subspace once, with no record of what was
    emitted.  A matrix whose minors over d^(e-1) are fractional or not
    primitive spans a subspace with another lead, and is skipped here.
    """
    n, e = spec.n, spec.e
    budget = spec.height_squared_max - lead * lead
    scale = lead ** (e - 1)
    for pivots in combinations(range(n), e):
        rows = [[0] * e for _ in range(n)]
        for i, j in enumerate(pivots):
            rows[j][i] = lead
        free = [(k, i) for i, j in enumerate(pivots) for k in range(j + 1, n)
                if k not in pivots]
        for values, _, _ in _boxed(len(free), budget, False):
            for (k, i), v in zip(free, values):
                rows[k][i] = v
            coords = exact._minors(rows, n, e)
            if scale != 1:  # lead 1 (and every line) has the minors as its label
                if any(m % scale for m in coords):
                    continue
                coords = tuple(m // scale for m in coords)
            h2 = sum(map(mul, coords, coords))
            if h2 <= spec.height_squared_max and gcd(*coords) == 1:
                yield coords, h2


# ---------------------------------------------------------------------------
# driver


def leading_range(spec: EnumSpec) -> tuple[int, int]:
    """Full range of the strategy's leading coordinate, before sharding."""
    # an echelon label leads with its pivot minor, which is positive
    lo = 1 if spec.strategy == EXACT_ECHELON else 0
    return (lo, isqrt(spec.height_squared_max))


def _shard_range(spec: EnumSpec) -> tuple[int, int]:
    lo, hi = leading_range(spec)
    size = hi - lo + 1
    i, count = spec.shard_index, spec.shard_count
    return (lo + i * size // count, lo + (i + 1) * size // count - 1)


def shard_partition(spec: EnumSpec, shard_count: int) -> list[EnumSpec]:
    """Split a run into shard_count runs over leading-coordinate chunks.

    The union of the shard outputs equals the unsharded output as a set,
    for any shard_count.
    """
    if shard_count < 1:
        raise ParameterError("need at least one shard")
    if spec.shard_count != 1:
        raise ParameterError("spec is already sharded")
    return [
        replace(spec, shard_count=shard_count, shard_index=i)
        for i in range(shard_count)
    ]


def _label_streams(
    spec: EnumSpec, cursor: int | None
) -> Iterator[tuple[int, Iterator[tuple[tuple[int, ...], int]]]]:
    """(lead, label stream) for each leading value of the run after cursor."""
    if spec.strategy == EXACT_LINES:
        labels_at = _lines_at if spec.e == 1 else _hyperplanes_at
    else:
        labels_at = _planes4_at if spec.strategy == EXACT_PLUECKER else _echelon_at
    lo, hi = _shard_range(spec)
    if cursor is not None:
        lo = max(lo, cursor + 1)
    for lead in range(lo, hi + 1):
        yield lead, labels_at(spec, lead)


def census_runs(spec: EnumSpec) -> Iterator[_Run] | None:
    """The labels of the run in runs (prefix, sq, values), or None for a
    census that is not walked in runs: anything but an exact-lines census
    of lines.  The labels of enumerate_labels(spec) are prefix + (v,), of
    squared height sq + v^2, for v in values, run after run.  A run is one
    prefix of _primitive_with_leading, so its vectors share their text up
    to the last coordinate."""
    if spec.strategy != EXACT_LINES or spec.e != 1:
        return None
    n, bound = spec.n, spec.height_squared_max
    lo, hi = _shard_range(spec)
    return chain.from_iterable(
        _primitive_with_leading(n, bound, lead) for lead in range(lo, hi + 1)
    )


def _label_subspace(spec: EnumSpec) -> Callable[[tuple[int, ...]], exact.RationalSubspace]:
    """The map from a label of the run to its subspace, as enumerate_subspaces
    builds it: a line census keeps each vector as its line's basis."""
    if spec.strategy == EXACT_LINES and spec.e == 1:
        return exact.RationalSubspace._line
    n, e = spec.n, spec.e
    normalized, subspace = exact.PlueckerVector._normalized, exact.RationalSubspace
    return lambda coords: subspace(normalized(n, e, coords))


def _subspaces(
    spec: EnumSpec, labels: Iterator[tuple[tuple[int, ...], int]]
) -> Iterator[exact.RationalSubspace]:
    make = _label_subspace(spec)
    return (make(c) for c, _ in labels)


def enumerate_labels(
    spec: EnumSpec, cursor: int | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(coords, height_squared) of every subspace of the run: its normalized
    label and the label's squared norm, in enumerate_events order, with no
    subspace object built.  cursor resumes after a checkpoint value."""
    return chain.from_iterable(labels for _lead, labels in _label_streams(spec, cursor))


def enumerate_events(
    spec: EnumSpec, cursor: int | None = None
) -> Iterator[tuple[str, object]]:
    """Stream of (SUBSPACE, subspace) and (CHECKPOINT, value) events.

    A checkpoint value c certifies that every subspace with leading
    coordinate at most c has been emitted; resuming with cursor=c continues
    after it.  Within a run the emitted coordinate labels are pairwise
    distinct and the order is a pure function of (spec, cursor).
    """
    for lead, labels in _label_streams(spec, cursor):
        for sub in _subspaces(spec, labels):
            yield SUBSPACE, sub
        yield CHECKPOINT, lead


def enumerate_subspaces(
    spec: EnumSpec, cursor: int | None = None
) -> Iterator[exact.RationalSubspace]:
    """The subspaces of enumerate_events, without its checkpoints."""
    for _lead, labels in _label_streams(spec, cursor):
        yield from _subspaces(spec, labels)
