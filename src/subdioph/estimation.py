"""Record-setting approximants and empirical approximation exponents.

A record is an enumerated subspace whose j-th proximity sine against a fixed
target is strictly smaller than that of every enumerated subspace of equal or
lower height.  Reading the record sequence on a log-log scale turns certified
angle intervals into an empirical approximation exponent.

One line engine and one label-screened generic scan feed a single record
sweep:

* the exact line engine, for lines in R^n, clears the target's
  denominators once and keys plane vectors by their exact squared cross
  terms, as plain integers (exact signs of m + n sqrt(d) for quadratic
  slopes).  From the height-1 level it walks the Stern-Brocot tree toward
  the slope's integer bracket: every record is a node whose interval meets
  the bracket, a convergent or a semiconvergent of the slope, and the run
  of one partial quotient costs a few keyed rows, placed by one division
  and a bisection, however long it is.  The search is complete by
  construction.  A record's squared sine is an integer interval, which
  angles._sqrt_interval roots to doubles; only the records are bracketed,
  and an irrationality scan brackets and builds only its witness, the
  last record, whose exact lower end gives the verdict.  That scan counts
  the rows the walk keyed, each a primitive vector with a positive lead:
  its line's label.  One walk serves every R^n: a line target embedded
  on two coordinate axes of R^n has the plane records, placed on those
  axes (the projection lemma, the paper's transfer result for a coordinate
  plane).
  Split an off-plane vector as v = (x, z) with x in the plane and z != 0.
  For x != 0 at distance d <= |x| from the target line,
      psi(v)^2 = (d^2 + |z|^2) / (|x|^2 + |z|^2) >= d^2 / |x|^2 = psi(x)^2,
  and the primitive vector of x is strictly lower; for x = 0, psi(v) = 1,
  which (1, 0) beats at height 1.  So no off-plane line sets a record.
  The target picks the engine: a line target takes this one (_line_scan)
  for any unsharded window of lines, whatever its census strategy, and
  refuses a sharded window or one of higher-dimensional subspaces;
* the generic scan walks the labels of an enumeration (a subspace is
  built only for a row it profiles or reports) and pairs an exact
  target's label (a float target is exact too) with every candidate's
  label in integers, through the target's wedge map, built once per
  scan.  For d + e <= n that pairing gives the product P of all the
  sines (Schmidt's identity), and psi_j >= P^(1/j) lets the sweep skip
  any candidate that cannot beat the running record or the level's best
  so far; for a pair with a single angle P is that sine, exactly.  A pair
  with two angles also pairs its labels through the target's contraction
  map (a dot product for two planes), and both squared sines are the
  roots of one integer quadratic, which screens them exactly.  A target
  label wider than the screen needs (a construction's generators truncated
  deep carry thousands of bits) pairs and screens on its leading bits:
  the error of those bits is a proved bound, so each pairing is a box of
  integers and each screen decides on the box, or on the exact integers
  where the box cannot decide, and every decision is the exact one.
  Only the survivors get a sine bracket, from their labels alone, as two
  dyadics (integer mantissa, exponent) that no mpf ever holds.  A pair
  with three or more angles decodes a basis and takes the dyadic bracket
  the angle engine proves on its Gram pencil, again with no mpf end;
  evaluator targets screen nothing.  The sweep compares dyadics exactly
  and rounds them to doubles only for the records and the witness it
  reports, as certificates round theirs.

The sweep's running minima over height levels are the records of either
source.  An irrationality scan is the second reduction of the same
sources: the least certified lower endpoint (for lines, the last record's),
where a candidate is skipped only when its label proves its lower endpoint
no smaller than the running minimum.

Records are conservative by construction: exponents use upper endpoints of
the sine intervals, irrationality witnesses use lower endpoints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import groupby, repeat
from math import isqrt
from numbers import Real
from operator import itemgetter, mul
from typing import Iterator, Mapping, Sequence

from . import exact
from .angles import (
    PrecisionContext,
    RealBasis,
    angles_adaptive,  # no scan calls it; perfbench's tracer rebinds it here
    exact_relative_bits,
    plane_sine_at_least,
    _adaptive_brackets,
    _dyadic_float,
    _dyadic_less,
    _float_down,
    _float_up,
    _log_dyadic,
    _offset,
    _plane_forms,
    _plane_sine_decision,
    _sine_mantissa,
    _sqrt_interval,
)
from .construction import (
    INFINITE,
    ConstructionParams,
    ConvergentMatrix,
    InstanceCertification,
    build_convergent,
    build_generators,
    series_start,
    tail_bound,
    _digit_table,
    _ratio_deviation,
)
from .enumeration import EnumSpec, _label_subspace, enumerate_labels
from .errors import (
    InsufficientRecordsError,
    IrrationalityViolationError,
    NumericalRankLossError,
    ParameterError,
    ShapeError,
    StrategyMismatchError,
    SubdiophError,
)
from .reports import sci_str

SOURCE_ENUMERATED = "enumerated"

# a slope bracket may move x1 * slope by at most 1/10 over the scan range
_BRACKET_ALLOWANCE = Fraction(1, 10)
# least bits of the sqrt(d) enclosure of a quadratic slope
_ROOT_BITS = 192


def constructed_source(n_index: int) -> str:
    """Source tag for a record coming from a construction convergent."""
    return f"constructed:{n_index}"


# ---------------------------------------------------------------------------
# exact signs of quadratic values m + n sqrt(d)


def _surd_sign(m: int, n: int, d: int) -> int:
    """Sign of m + n sqrt(d) for integers m, n and d >= 0."""
    if n == 0:
        return (m > 0) - (m < 0)
    if m == 0 or (m > 0) == (n > 0):
        return 1 if n > 0 else -1
    diff = m * m - n * n * d
    return (diff > 0) - (diff < 0) if m > 0 else (diff < 0) - (diff > 0)


# ---------------------------------------------------------------------------
# line targets


@dataclass(frozen=True)
class RationalLineTarget:
    """Line through (1, s) whose slope s lies in [value, value + tail_upper].

    A zero tail pins the slope exactly; a positive tail represents a slope
    known only through a truncated series with a certified remainder bound.
    """

    value: Fraction
    tail_upper: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.tail_upper < 0:
            raise ParameterError("tail bound must be nonnegative")

    def slope_bracket(self) -> tuple[Fraction, Fraction]:
        return self.value, self.value + self.tail_upper


@dataclass(frozen=True)
class QuadraticLineTarget:
    """Line through (1, a + b sqrt(d)) with an exact quadratic irrational slope.

    Cross terms stay inside the quadratic field, so record comparisons and
    zero tests are exact sign computations; no precision parameter exists.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if self.b == 0:
            raise ParameterError("quadratic slope needs a nonzero irrational part")
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise ParameterError("radicand must be a nonsquare integer >= 2")


def golden_line_target() -> QuadraticLineTarget:
    """The line of slope (1 + sqrt(5)) / 2."""
    return QuadraticLineTarget(Fraction(1, 2), Fraction(1, 2), 5)


def series_depth(params: ConstructionParams, height_squared_max: int, start: int) -> int:
    """Least series depth from start on whose tail bound stays below
    2^-64 / (isqrt(H^2) + 1), far below the bracket allowance of a scan up
    to squared height H^2."""
    if height_squared_max < 1:
        raise ParameterError("height bound must be positive")
    bound = Fraction(1, (isqrt(height_squared_max) + 1) << 64)
    depth = start
    while tail_bound(params, depth) > bound:
        depth += 1
    return depth


def line_target_for_instance(
    params: ConstructionParams, height_squared_max: int, stream=None
) -> RationalLineTarget:
    """Truncated-series line target of a one-dimensional instance for scans
    up to squared height H^2: truncated at series_depth, its slope bracket,
    widened across the whole scan range, stays far below the allowance.
    stream is build_generators' digit source."""
    if params.ell != 1:
        raise ParameterError("series instances define a line target only when ell = 1")
    depth = series_depth(params, height_squared_max, series_start(params))
    gens = build_generators(params, depth, stream=stream)
    value = Fraction(gens.integer_matrix[1][0], gens.denominator)
    return RationalLineTarget(value=value, tail_upper=tail_bound(params, depth))


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class ApproximationRecord:
    """A record approximant: the subspace with the smallest j-th proximity
    sine among all enumerated subspaces of height up to its own.

    psi_lo and psi_hi bracket the sine conservatively (outward-rounded
    floats); source is "enumerated" or "constructed:N".  A certificate's
    record keeps its dyadic bracket as psi_bracket, which holds the sine
    where the doubles underflow, and exponents read their logs from it.
    """

    subspace: exact.RationalSubspace
    height_squared: int
    psi_lo: float
    psi_hi: float
    j_index: int
    source: str = SOURCE_ENUMERATED
    psi_bracket: tuple[tuple[int, int], tuple[int, int]] | None = None


def validate_record_list(records: Sequence[ApproximationRecord]) -> None:
    """Check the record-list shape: heights strictly up, sines strictly down."""
    for rec in records:
        if not (0.0 <= rec.psi_lo <= rec.psi_hi):
            raise SubdiophError(f"malformed sine interval on record {rec}")
    for prev, cur in zip(records, records[1:]):
        if cur.height_squared <= prev.height_squared:
            raise SubdiophError("record heights must increase strictly")
        if cur.psi_hi >= prev.psi_hi:
            raise SubdiophError("record sine bounds must decrease strictly")


def widen_records(
    records: Sequence[ApproximationRecord], tau: float
) -> list[ApproximationRecord]:
    """Widen every sine interval by an additive slack (target substitution),
    a dyadic psi_bracket too, rounded outward to 64-bit mantissas."""
    if tau < 0:
        raise ParameterError("slack must be nonnegative")
    num, den = float(tau).as_integer_ratio()
    slack = (num, 1 - den.bit_length())  # den is a power of two
    # float sums round to nearest: step each end outward past the rounding
    return [
        replace(r, psi_lo=_float_down(r.psi_lo - tau), psi_hi=_float_up(r.psi_hi + tau),
                psi_bracket=r.psi_bracket and (_offset(r.psi_bracket[0], slack, 64, up=False) or (0, 0),
                                               _offset(r.psi_bracket[1], slack, 64, up=True)))
        for r in records
    ]


# ---------------------------------------------------------------------------
# exact line scanner

# Each engine clears the target's denominators once.  The slope lies in
# [p_lo, p_hi] / q, and every bracket below is an integer over one
# per-engine scale.  A row is (h2, vector, key), where key = engine.key(x1,
# x2) is the exact comparison object for the squared cross term: an int
# (rational slopes) or an (m, n) pair for m + n sqrt(d).  engine.zero is
# the key of a vector on the target.  engine.less(row_a, row_b) compares
# key / h2 of two rows exactly.  The walk places a vector against the slope
# bracket by its integer cross terms x1 p_lo - x2 q and x1 p_hi - x2 q.
# Only the rows the sweep returns get engine.bracket, an integer (lo2, hi2)
# of the same quantity over the scale.


def _square_bracket(lo: int, hi: int) -> tuple[int, int]:
    """Bracket of x^2 over lo <= x <= hi."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


class _RationalCross:
    """Cross terms against a slope bracket, over the scale q^2."""

    zero = 0

    def __init__(self, target: RationalLineTarget):
        s_lo, s_hi = target.slope_bracket()
        q = math.lcm(s_lo.denominator, s_hi.denominator)
        self.p_lo = s_lo.numerator * (q // s_lo.denominator)
        self.p_hi = s_hi.numerator * (q // s_hi.denominator)
        self.q = q
        self.exact_slope = target.tail_upper == 0
        sq_lo, sq_hi = _square_bracket(self.p_lo, self.p_hi)
        self.u2_lo, self.u2_hi = q * q + sq_lo, q * q + sq_hi

    def key(self, x1: int, x2: int) -> int:
        # the exact square, or the upper end of its bracket
        lo = x1 * self.p_lo - x2 * self.q
        if self.exact_slope:
            return lo * lo
        hi = x1 * self.p_hi - x2 * self.q
        return max(lo * lo, hi * hi)

    def bracket(self, x1: int, x2: int) -> tuple[int, int]:
        # x1 >= 0 on every plane row, so the first end is the lower one
        return _square_bracket(x1 * self.p_lo - x2 * self.q, x1 * self.p_hi - x2 * self.q)

    @staticmethod
    def less(row_a, row_b) -> bool:
        return row_a[2] * row_b[0] < row_b[2] * row_a[0]


class _QuadraticCross:
    """Cross terms against the slope (a + b sqrt(d)) / den.

    Keys are exact (m, n) pairs for (m + n sqrt(d)) / den^2; brackets use
    sqrt(d) in [r, r + 1] / 2^bits and sit over den^2 2^bits.
    """

    # m = e_rat^2 + e_irr^2 d is zero only when e_rat = e_irr = 0, so n is too
    zero = (0, 0)

    def __init__(self, target: QuadraticLineTarget, bits: int):
        self.d = target.d
        den = math.lcm(target.a.denominator, target.b.denominator)
        self.a = target.a.numerator * (den // target.a.denominator)
        self.b = target.b.numerator * (den // target.b.denominator)
        self.den = den
        self.bits = bits
        self.root = isqrt(self.d << (2 * bits))
        self.p_lo, self.p_hi = self._bracket(self.a, self.b)
        self.q = den << bits
        self.u2_lo, self.u2_hi = self._bracket(
            den * den + self.a * self.a + self.b * self.b * self.d, 2 * self.a * self.b
        )

    def _bracket(self, m: int, n: int) -> tuple[int, int]:
        base = (m << self.bits) + n * self.root
        return (base, base + n) if n >= 0 else (base + n, base)

    def key(self, x1: int, x2: int) -> tuple[int, int]:
        # den * (x1 * slope - x2) = e_rat + e_irr sqrt(d)
        e_rat = x1 * self.a - x2 * self.den
        e_irr = x1 * self.b
        return e_rat * e_rat + e_irr * e_irr * self.d, 2 * e_rat * e_irr

    def bracket(self, x1: int, x2: int) -> tuple[int, int]:
        lo2, hi2 = self._bracket(*self.key(x1, x2))
        return max(0, lo2), hi2

    def less(self, row_a, row_b) -> bool:
        (m_a, n_a), h2_a = row_a[2], row_a[0]
        (m_b, n_b), h2_b = row_b[2], row_b[0]
        return _surd_sign(m_a * h2_b - m_b * h2_a, n_a * h2_b - n_b * h2_a, self.d) < 0


def _cross_engine(target, hmax2: int = 1) -> "_RationalCross | _QuadraticCross":
    if isinstance(target, RationalLineTarget):
        return _RationalCross(target)
    if isinstance(target, QuadraticLineTarget):
        # 2^bits >= 2^64 H^4 keeps the slope's enclosure far narrower than
        # its 1/H^2-scale distance to a fraction of height H, so the walk
        # rarely finds a node inside it, and the record brackets tight
        return _QuadraticCross(target, max(_ROOT_BITS, 64 + 2 * hmax2.bit_length()))
    raise ParameterError("fast scans need a rational or quadratic line target")


def _check_bracket_width(engine, hmax2: int) -> None:
    allowance = _BRACKET_ALLOWANCE
    width = (engine.p_hi - engine.p_lo) * (isqrt(hmax2) + 1)
    if width * allowance.denominator > allowance.numerator * engine.q:
        raise ParameterError(
            "slope bracket too wide for the scan range; deepen the truncation"
        )


def _sweep_pool(pool: list, less, settle=None) -> list[tuple]:
    """Running minima over a pool of (h2, coords, ...) rows sorted by
    (h2, coords).

    Within one height the first row that no later row beats under
    less(a, b) wins, so ties go to the smallest coords; it becomes a record
    when it beats the previous record.  settle(level, record), when given,
    maps each height level to the rows that take part, given the running
    record (None before the first).
    """
    raw = []
    for _h2, level in groupby(pool, key=itemgetter(0)):
        if settle is not None:
            level = settle(level, raw[-1] if raw else None)
        best = next(level, None)
        if best is None:
            continue
        for row in level:
            if less(row, best):
                best = row
        if not raw or less(best, raw[-1]):
            raw.append(best)
    return raw


def _debug(msg: str, *args) -> None:
    # a process that never imported logging has no handler or level that
    # keeps a DEBUG record, so it does not pay for the import
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("subdioph").debug(msg, *args)


def _keyed(engine, x1: int, x2: int, pool: list, place) -> tuple:
    """The (h2, vector, key) row of a plane vector, appended to pool.  A
    vector that meets the target raises IrrationalityViolationError with
    the vector and its line placed in R^n, and the rows keyed up to and
    including it, all of pool, as .scanned."""
    key = engine.key(x1, x2)
    row = (x1 * x1 + x2 * x2, (x1, x2), key)
    pool.append(row)
    if key == engine.zero:
        vec = place((x1, x2))
        err = IrrationalityViolationError(f"enumerated line {vec} meets the target exactly")
        err.vector, err.subspace = vec, exact.RationalSubspace._line(vec)
        err.scanned = len(pool)
        raise err
    return row


def _placing(n: int, axes: tuple[int, int]):
    """Puts a plane vector on two increasing axes of R^n, keeping it
    primitive with a positive lead."""
    i0, i1 = axes
    if not (0 <= i0 < i1 < n):
        raise ParameterError("embedding axes must be increasing and in range")

    def place(vec: tuple[int, int]) -> tuple[int, ...]:
        out = [0] * n
        out[i0], out[i1] = vec
        return tuple(out)

    return place


def _walk(engine, hmax2: int, bar: tuple, pool: list, place, counts: dict) -> None:
    """Keys the Stern-Brocot candidates of _scan_lines into pool, one
    partial quotient's run at a time; bar is the running record of the
    height-1 rows.

    A vector travels with its cross terms (x1, x2, x1 p_lo - x2 q,
    x1 p_hi - x2 q).  The mediant m of the parents (l, r) lies below the
    bracket when its first cross term is positive, above it when its second
    is negative, and inside it otherwise.  A mediant below starts the run
    m + k s with s = r (above, s = l), whose members stay below for the
    k < K = -(c_lo(m) // c_lo(s)) that one division gives; the walk goes on
    from the parents of the member K, m + (K - 1) s and s.  The members near
    the bracket monotonically, so their key over h2 falls with k, and a
    member that beats no lower row is no record.  bar is the best row on
    the path from the root, all of them lower than the run.  If m beats
    bar, every member up to the height bound does and is keyed.  If not,
    the last member is keyed: when it fails too the run is skipped, and
    else a bisection finds the first member that beats bar, and the members
    from there on are keyed.  A node inside the bracket is keyed and both
    of its subtrees walked, each with the bar of its own path.  counts gets
    the runs and the probes: the rows keyed only to decide a run, a last
    member that fails and the bisection steps that fail.
    """
    less = engine.less
    p_lo, p_hi, q = engine.p_lo, engine.p_hi, engine.q
    stack = []
    if p_lo < 0:
        stack.append(((0, -1, q, q), (1, 0, p_lo, p_hi), bar))
    if p_hi > 0:
        stack.append(((1, 0, p_lo, p_hi), (0, 1, -q, -q), bar))
    while stack:
        left, right, bar = stack.pop()
        while True:
            l1, l2, l_lo, l_hi = left
            r1, r2, r_lo, r_hi = right
            m1, m2 = l1 + r1, l2 + r2
            h2 = m1 * m1 + m2 * m2
            if h2 > hmax2:
                break
            m_lo, m_hi = l_lo + r_lo, l_hi + r_hi
            if m_lo <= 0 <= m_hi:
                row = _keyed(engine, m1, m2, pool, place)
                if less(row, bar):
                    bar = row
                node = (m1, m2, m_lo, m_hi)
                if m_lo < 0 < m_hi:
                    stack.append((node, right, bar))
                # m_lo = m_hi = 0 met the target in _keyed
                if m_lo < 0:
                    right = node
                else:
                    left = node
                continue
            counts["runs"] += 1
            below = m_lo > 0
            s1, s2, s_lo, s_hi = right if below else left
            last = -(m_lo // s_lo if below else m_hi // s_hi) - 1
            e1, e2 = m1 + last * s1, m2 + last * s2
            bounded = e1 * e1 + e2 * e2 > hmax2
            if bounded:
                # the last member under the bound: the root of
                # |m + k s|^2 = hmax2, one below it at worst
                a, b = s1 * s1 + s2 * s2, m1 * s1 + m2 * s2
                end = (isqrt(b * b - a * (h2 - hmax2)) - b) // a
                e1, e2 = m1 + (end + 1) * s1, m2 + (end + 1) * s2
                end += e1 * e1 + e2 * e2 <= hmax2
            else:
                end = last
            row = _keyed(engine, m1, m2, pool, place)
            if less(row, bar):
                # every member beats bar and the one before it
                for k in range(1, end + 1):
                    row = _keyed(engine, m1 + k * s1, m2 + k * s2, pool, place)
                bar = row
            elif end:
                best = _keyed(engine, m1 + end * s1, m2 + end * s2, pool, place)
                if less(best, bar):
                    # member fails does not beat bar, member first does
                    fails, first, probed = 0, end, {end}
                    while first - fails > 1:
                        k = (fails + first) // 2
                        if less(_keyed(engine, m1 + k * s1, m2 + k * s2, pool, place), bar):
                            first = k
                            probed.add(k)
                        else:
                            fails = k
                            counts["probes"] += 1
                    for k in range(first, end):
                        if k not in probed:
                            _keyed(engine, m1 + k * s1, m2 + k * s2, pool, place)
                    bar = best
                else:
                    counts["probes"] += 1
            if bounded:
                break
            node = (m1 + last * s1, m2 + last * s2, m_lo + last * s_lo, m_hi + last * s_hi)
            if below:
                left = node
            else:
                right = node


def _scan_lines(target, hmax2: int, place=tuple) -> tuple[object, list[tuple], int]:
    """Certified record scan over every primitive plane line against a
    plane line target, up to the records' rows.

    The candidates are the height-1 rows (0, 1) and (1, 0) and, up to the
    height bound, the nodes of the Stern-Brocot tree whose open interval
    meets the slope bracket [p_lo, p_hi] / q: the path of the slope's
    continued fraction, branching at a node inside the bracket.  _walk keys
    them a partial quotient's run at a time, skipping the members that beat
    no lower row; the keyed rows are sorted by (h2, coords) and swept once.
    Only the records' rows are kept, and only the rows a caller reads are
    bracketed (_line_records).

    Lemma: every record x with x1 >= 1 is a candidate.  Let its slope
    r = x2 / x1 be the mediant of its Farey parents L < r < R, where
    (0, -1), (1, 0) and (0, 1) stand for -inf, 0 and inf.  As vectors
    x = L + R with L . R >= 0, so |L| and |R| are both less than |x|.  If
    (L, R) misses the bracket, one parent lies on the short arc of the
    projective line between r and the bracket, an arc that passes through
    inf = the line (0, 1) when it wraps.  That parent is lower than x and
    has a strictly smaller sine to every slope in the bracket, so a
    smaller key over h2: the exact key, and the bracketed key
    max(lo^2, hi^2) too, which falls monotonically toward the bracket.  So
    x is not a record.  Mediant heights increase down the tree (L . R >= 0
    below the two roots (-inf, 0) and (0, inf)), so a node above the bound
    ends its subtree.  An exact rational slope ends at its own node, the
    line that meets it.

    Returns the engine, the records' (h2, vector, key) rows in height
    order, and the rows keyed (the two height-1 rows, the walk's nodes and
    its probes).  A line that meets the target raises
    IrrationalityViolationError with the rows keyed up to and including
    it.  Logs its counts at DEBUG on the "subdioph" logger, a meeting's up
    to the meeting line.

    The same records serve the target embedded on two coordinate axes of
    R^n: no line off the embedded plane sets a record (see the module
    docstring).  place (the identity by default) puts a meeting vector in
    R^n, as _line_records does a record's.
    """
    if hmax2 < 1:
        raise ParameterError("height bound must be positive")
    engine = _cross_engine(target, hmax2)
    _check_bracket_width(engine, hmax2)
    counts = {"runs": 0, "probes": 0}
    pool, raw = [], []
    try:
        _keyed(engine, 0, 1, pool, place)
        _keyed(engine, 1, 0, pool, place)
        _walk(engine, hmax2, _sweep_pool(pool, engine.less)[0], pool, place, counts)
        # (h2, vector) is unique per row, so the sort never compares keys
        pool.sort()
        raw = _sweep_pool(pool, engine.less)
    finally:
        _debug(
            "scan_lines: runs=%d nodes=%d probes=%d records=%d",
            counts["runs"], len(pool) - 2 - counts["probes"], counts["probes"], len(raw),
        )
    return engine, raw, len(pool)


def _line_records(engine, raw: list[tuple], place=tuple) -> list[ApproximationRecord]:
    """The records of rows of _scan_lines: each row's integer bracket,
    rooted to doubles (angles._sqrt_interval), and its line, built once on
    the vector place puts in R^n (exact.RationalSubspace._line)."""
    bracket, u2_lo, u2_hi = engine.bracket, engine.u2_lo, engine.u2_hi
    line = exact.RationalSubspace._line
    records = []
    for h2, vec, _key in raw:
        lo2, hi2 = bracket(*vec)
        # the engine scale cancels in both ratios
        psi_lo, psi_hi = _sqrt_interval((lo2, h2 * u2_hi, hi2, h2 * u2_lo))
        records.append(ApproximationRecord(line(place(vec)), h2, psi_lo, psi_hi, 1))
    return records


_LINE_TARGETS = (RationalLineTarget, QuadraticLineTarget)


def _line_scan(
    target, spec, j_index: int = 1, axes: tuple[int, int] = (0, 1)
) -> tuple[object, list[tuple], int, object]:
    """The one gate of line targets: every line of an unsharded EnumSpec(n,
    1, X) window, first sine only, against the target on the given axes.

    One plane walk (_scan_lines) gives the records in every n >= 2: no line
    off the target's coordinate plane sets a record (module docstring).
    Returns what _scan_lines returns and the placing on the axes, which
    puts a meeting line there and, through _line_records, the records.
    """
    if not isinstance(spec, EnumSpec):
        raise ParameterError("fast line scans need an EnumSpec window")
    if spec.e != 1 or spec.shard_count != 1:
        raise StrategyMismatchError("line targets scan every line of an unsharded window")
    if j_index != 1:
        raise ParameterError("a line has a single proximity sine")
    place = _placing(spec.n, axes)
    return (*_scan_lines(target, spec.height_squared_max, place), place)


def scan_line_records(
    target, height_squared_max: int, zone: int | None = None
) -> list[ApproximationRecord]:
    """Records of every primitive plane line against a line target.

    One Stern-Brocot walk from height 1 covers the whole window
    (_scan_lines).
    zone is ignored, removed once the benchmark stops passing it (ROADMAP
    item 8).
    """
    engine, raw, _keyed_rows = _scan_lines(target, height_squared_max)
    return _line_records(engine, raw)


# ---------------------------------------------------------------------------
# generic scans: label screening, profiles on demand


def _coerce_target(target) -> RealBasis:
    if isinstance(target, RealBasis):
        return target
    if isinstance(target, exact.RationalSubspace):
        return RealBasis.from_subspace(target)
    rows = [list(row) for row in target]
    if any(isinstance(v, float) for row in rows for v in row):
        return RealBasis.from_float(rows)
    return RealBasis.from_exact(rows)


def _unresolved(
    sub: exact.RationalSubspace, scanned: int, exact_pair: bool
) -> IrrationalityViolationError:
    # the exact engine leaves a sine unresolved only when it is 0
    how = (
        "meets the target exactly" if exact_pair
        else "is indistinguishable from the target at the precision cap"
    )
    err = IrrationalityViolationError(f"subspace {sub.pluecker.coords} {how}")
    err.subspace = sub
    err.scanned = scanned
    return err


# least positive normal double: a bar below it is screened in integers
_NORMAL_MIN = sys.float_info.min
# leading bits of a wide target label that pairing and screening read
_KEPT_BITS = 128


def _bar_power(num: int, den: int, power: int) -> tuple:
    """(top, bottom, low, high) of the bar (num / den)^power: top / bottom
    exactly, and the doubles one step below and above its correctly rounded
    double, which bracket it, (None, None) unless that double is normal."""
    top, bottom = num**power, den**power
    bar = top / bottom  # correctly rounded; a bar is a sine, about 1 at most
    if bar < _NORMAL_MIN:
        return top, bottom, None, None
    return top, bottom, math.nextafter(bar, 0.0), math.nextafter(bar, math.inf)


def _at_least(w_lo: int, w_hi: int, l_lo: int, l_hi: int, bar: tuple) -> bool | None:
    """Whether W / L >= top / bottom for a bar of _bar_power and every
    w_lo <= W <= w_hi and 0 < l_lo <= L <= l_hi; None when these bounds do
    not decide, which exact W and L never leave.  A correctly rounded
    double q of w_lo / l_hi (of w_hi / l_lo) lies within half a step of it,
    so q above the bar's upper double proves at least, and q below its
    lower double proves less; every other case takes the integer test on
    the bounds."""
    top, bottom, low, high = bar
    if low is not None:
        q = w_lo / l_hi
        if q > high:
            return True
        if w_hi is not w_lo or l_hi is not l_lo:
            q = w_hi / l_lo
        if q < low:
            return False
    if w_lo * bottom >= top * l_hi:
        return True
    if w_hi * bottom < top * l_lo:
        return False
    return None


def _kept_bar(num: int, den: int) -> tuple:
    """Dyadics (num, den) at and below y = num / den >= 0, the leading
    _KEPT_BITS bits of y rounded up and down."""
    shift = max(0, _KEPT_BITS - num.bit_length() + den.bit_length())
    low, rest = divmod(num << shift, den)
    return (low + (rest > 0), 1 << shift), (low, 1 << shift)


def _norm_box(rows: exact.Matrix):
    """(v, err) -> (lo, hi) around |M v|^2 / 4^shift for a wedge or
    contraction map M of the target label, given rows, the same map of the
    kept label (each entry x >> shift), and err, the 1-norm of v.  Every
    entry of M is 0 or a signed label entry, so it differs from 2^shift
    times its kept entry by less than 2^shift, and a row holds at most one
    entry per coordinate of v: each coordinate of M v / 2^shift lies
    within err of that of rows v."""
    if len(rows) == 1:
        (row,) = rows

        def box(v, err):
            x = abs(sum(map(mul, row, v)))
            return (x - err) ** 2 if x > err else 0, (x + err) ** 2

        return box

    def box(v, err):
        lo = hi = 0
        for row in rows:
            x = abs(sum(map(mul, row, v)))
            hi += (x + err) ** 2
            if x > err:
                lo += (x - err) ** 2
        return lo, hi

    return box


class _GenericScan:
    """The candidates of one generic scan, screened by their labels.

    For d + e <= n the sines of the target A and a candidate B multiply to
    P = |X_A /\\ X_B| / (|X_A| |X_B|) (Schmidt 1967), and psi_j >= P^(1/j)
    because no sine exceeds 1.  An exact target, float targets included,
    turns its raw label into the integer wedge map and, for
    t = min(d, e) = 2, the contraction map once per candidate dimension,
    and each candidate label X_B pairs with them in integers:
    wedge2 = |X_A /\\ X_B|^2 and cos2, the squared contraction
    (<X_A, X_B>^2 when d = e).  With L = |X_A|^2 |X_B|^2 they give every
    sine: wedge2 / L is psi_1^2 for t = 1, and for t = 2 both squared
    sines are the roots of L x^2 - (L + wedge2 - cos2) x + wedge2; when
    d + e > n, wedge2 = 0 and psi_1 = 0.  Every bracket is a pair of
    dyadics (man, exp), as certificates keep theirs: a waiting row's comes
    from angles._sine_mantissa, a profiled row's from
    angles._adaptive_brackets, which no mpf end holds.

    The candidates are labels first.  An EnumSpec streams (coords, h2)
    from enumerate_labels, and its sine-index and ambient checks run once,
    at its first candidate; an iterable of subspaces gives each one's
    label and height, and is checked candidate by candidate.  A subspace
    is built from a census label only where one is needed: to profile a
    row, to raise on it, and for the records and witness a scan reports.

    * An exact pair with t <= 2 waits unbracketed, so a scan can skip it
      once its labels rule it out.  Its j-th sine is 0 only when
      wedge2 = 0 and, for j = 2, cos2 = L as well (the candidate contains
      the target or lies in it); that row raises at its place in the
      enumeration instead.  The exact engine resolves every nonzero sine.
    * Every other candidate (evaluator targets, t >= 3) is profiled at
      once through the angle engine, so an unresolved sine raises at its
      place.

    A target label wider than _KEPT_BITS bits pairs and screens on its
    leading bits: the label x >> shift keeps _KEPT_BITS bits of its
    largest entry, its maps pair with X_B in small integers, and _norm_box
    bounds their error, so a waiting row carries a box of L, wedge2 and
    cos2 over 4^shift instead of the integers.  The exact integers are
    formed only where the box cannot decide a screen, where the box of
    wedge2 holds 0 (the meeting check), and for a row's bracket.  A label
    of at most _KEPT_BITS bits keeps every bit, and its rows carry the
    exact integers from the start.

    rules_out tries P^(1/j) first and, for a pair with t = 2, then decides
    from the quadratic exactly.  bracket() brackets a waiting row that
    survives from its labels, as angles_adaptive would.  rows() yields
    (h2, coords, hi, lo, sub, scanned, wedge2, cos2, box) in enumeration
    order: hi, lo None on a waiting row; wedge2, cos2 None on a profiled
    or boxed row, cos2 None when t = 1; box None unless the row carries
    one, ((L_lo, L_hi), (wedge2_lo, wedge2_hi), (cos2_lo, cos2_hi) or
    None, pair) with pair: coords -> (wedge2, cos2) the exact pairing; sub
    None on a census row that was not profiled (subspace() builds it from
    coords).
    """

    def __init__(self, target, j_index: int, ctx: PrecisionContext | None):
        self.basis = _coerce_target(target)
        self.j_index = j_index
        self.ctx = ctx or PrecisionContext()
        self.bits = None
        # the raw minors will do: every ratio below is scale-free
        self.label = self.basis.label
        if self.label is not None:
            self.label2 = sum(x * x for x in self.label)
            if not self.label2:
                # a float target comes here with its rank unchecked
                raise NumericalRankLossError("target basis has dependent columns")
        self.counts = dict.fromkeys(("candidates", "label_only", "profiled", "skipped"), 0)
        # the bar of rules_out: its key (x, slack), _bar_power, y = x^2 as
        # (num, den), and _plane_forms of the ends of _kept_bar(y) once a
        # box needs them
        self._bar_key, self._bar, self._y, self._forms = (None, None), None, None, None

    def rows(self, spec) -> Iterator[tuple]:
        n, d, j_index, label = self.basis.n, self.basis.d, self.j_index, self.label
        counts = self.counts
        if isinstance(spec, EnumSpec):
            self._make = _label_subspace(spec)
            items = zip(enumerate_labels(spec), repeat(None))
        else:
            items = (((sub.pluecker.coords, sub.height_squared), sub) for sub in spec)
        e = None
        for scanned, ((coords, h2), sub) in enumerate(items, start=1):
            counts["candidates"] = scanned
            if sub is not None or scanned == 1:
                sub_n, sub_e = (spec.n, spec.e) if sub is None else (sub.n, sub.e)
                limit = min(d, sub_e)
                if not 1 <= j_index <= limit:
                    raise ParameterError(
                        f"sine index {j_index} is out of range for {limit} angles"
                    )
                if sub_n != n:
                    raise ShapeError("ambient dimensions differ")
                if label is not None and limit <= 2 and sub_e != e:
                    e = sub_e
                    wedge2_of, cos2_of, box_of = self._pairing(e, limit)
            if label is None or limit > 2:
                # the bracket the angle engine proves for angles_adaptive
                sub = self.subspace(coords, sub)
                counts["profiled"] += 1
                brackets = _adaptive_brackets(self.basis, RealBasis.from_subspace(sub), self.ctx)[0]
                if brackets[j_index - 1] is None:
                    raise _unresolved(sub, scanned, exact_pair=label is not None)
                lo, hi = brackets[j_index - 1]
                yield (h2, coords, hi, lo, sub, scanned, None, None, None)
                continue
            # where angles_adaptive would raise PrecisionExhaustedError
            self._bits()
            if box_of is not None:
                box = box_of(coords, h2)
                # wedge2 > 0: the pair does not meet
                if box[1][0]:
                    yield (h2, coords, None, None, sub, scanned, None, None, box)
                    continue
            wedge2 = wedge2_of(coords)
            cos2 = None if cos2_of is None else cos2_of(coords)
            # psi_1 = 0 on a pair that meets, psi_2 = 0 when one space holds the other
            if not wedge2 and (j_index == 1 or cos2 == self.label2 * h2):
                raise _unresolved(self.subspace(coords, sub), scanned, exact_pair=True)
            yield (h2, coords, None, None, sub, scanned, wedge2, cos2, None)

    def _pairing(self, e: int, limit: int) -> tuple:
        """(wedge2_of, cos2_of, box_of) for candidates of dimension e:
        wedge2_of and cos2_of (None when t = 1) pair a label with the whole
        target label, and box_of maps a label and its height to the box of
        rows() from the kept label, with the exact pairing as its last
        entry; box_of is None when the label is kept whole."""
        n, d, label, label2 = self.basis.n, self.basis.d, self.label, self.label2

        def maps(xa, through):
            cos = through(exact.contraction_map(xa, d, e, n)) if limit == 2 else None
            return through(exact.wedge_map(xa, d, e, n)), cos

        wedge2_of, cos2_of = maps(label, exact.squared_image_norm)
        shift = max(x.bit_length() for x in map(abs, label)) - _KEPT_BITS
        if shift <= 0:
            return wedge2_of, cos2_of, None
        wedge_box, cos_box = maps([x >> shift for x in label], _norm_box)
        # L = label2 h2, whose label2 / 4^shift lies between these
        low, high = label2 >> 2 * shift, -(-label2 >> 2 * shift)

        def pair(coords):
            return wedge2_of(coords), None if cos2_of is None else cos2_of(coords)

        def box_of(coords, h2):
            err = sum(map(abs, coords))
            cos = None if cos_box is None else cos_box(coords, err)
            return (low * h2, high * h2), wedge_box(coords, err), cos, pair

        return wedge2_of, cos2_of, box_of

    def subspace(self, coords: tuple[int, ...], sub) -> exact.RationalSubspace:
        """sub, or when it is None (a census row) the subspace of the label
        coords."""
        return sub if sub is not None else self._make(coords)

    def _bits(self) -> int:
        # asked for at the first exact pair, which is where angles_adaptive
        # would raise PrecisionExhaustedError
        if self.bits is None:
            self.bits = exact_relative_bits(self.ctx)
        return self.bits

    def bracket(self, row: tuple) -> tuple:
        """Dyadic (lo, hi) of a waiting row's j-th sine from its labels, the
        bracket that angles_adaptive would report."""
        wedge2, cos2 = (row[6], row[7]) if row[8] is None else row[8][3](row[1])
        self.counts["label_only"] += 1
        bits = self._bits()
        return _sine_mantissa(self.label2 * row[0], wedge2, cos2, bits, self.j_index - 1)

    def rules_out(self, row: tuple, x: tuple[int, int], slack: bool = False) -> bool:
        """Whether a waiting row's labels prove hi >= x for a dyadic x, from
        psi_j >= x, or with slack lo >= x, from psi_j (1 - 2^-b) >= x: exact
        brackets have relative width below 2^-b.  P^(1/j) >= x, that is
        P^2 = wedge2 / L >= x^(2j), is tried first (_at_least, with the bar
        memoised), then for a pair with t = 2 the quadratic decides
        (angles.plane_sine_at_least).  A row with a box is screened on the
        box first (_box_screen), and on the exact integers only where the
        box cannot decide, so every decision is the exact one.  A proof
        counts the row as skipped."""
        key = self._bar_key
        if key[0] is not x or key[1] != slack:
            man, exp = x
            num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
            if slack:
                bits = self._bits()
                num, den = num << bits, den * ((1 << bits) - 1)
            self._bar_key, self._bar = (x, slack), _bar_power(num, den, 2 * self.j_index)
            self._y, self._forms = (num * num, den * den), None
        box = row[8]
        if box is None:
            wedge2, cos2 = row[6], row[7]
        else:
            skip = self._box_screen(box)
            if skip is not None:
                self.counts["skipped"] += skip
                return skip
            wedge2, cos2 = box[3](row[1])
        scale, (num2, den2) = self.label2 * row[0], self._y
        if _at_least(wedge2, wedge2, scale, scale, self._bar) or (
            cos2 is not None and plane_sine_at_least(scale, wedge2, cos2, self.j_index, num2, den2)
        ):
            self.counts["skipped"] += 1
            return True
        return False

    def _box_screen(self, box: tuple) -> bool | None:
        """rules_out's decision on a box, None when the box cannot decide."""
        (l_lo, l_hi), (w_lo, w_hi), cos, _ = box
        skip = _at_least(w_lo, w_hi, l_lo, l_hi, self._bar)
        if skip or cos is None:
            return skip
        if self._forms is None:
            self._forms = [_plane_forms(*end) for end in _kept_bar(*self._y)]
        # psi_j^2 >= y holds for every y below a y where it holds
        forms_hi, forms_lo = self._forms
        if _plane_sine_decision(box[:3], self.j_index, forms_hi):
            return True
        if _plane_sine_decision(box[:3], self.j_index, forms_lo) is False:
            return False
        return None

    def log(self, name: str) -> None:
        _debug(
            "%s: candidates=%d label_only=%d profiled=%d skipped=%d",
            name, *self.counts.values(),
        )


def scan_records(
    target,
    spec,
    j_index: int = 1,
    ctx: PrecisionContext | None = None,
) -> list[ApproximationRecord]:
    """Record scan of an enumeration stream against a target span.

    Line targets take the certified line scan (_line_scan) over an
    unsharded window of lines in any R^n, which covers every primitive
    line up to the bound whatever the window's strategy.  Otherwise the
    candidates are labelled and screened (_GenericScan), sorted by
    (h2, coords) and swept by height level: a waiting candidate is
    bracketed only when its labels cannot prove its sine at least the
    smaller of the running record's upper endpoint and the least upper
    endpoint met so far in its level; a candidate they prove so could be
    neither a level minimum that beats the record nor a record.  The
    running minimum is taken over upper endpoints; an interval stuck at
    zero raises
    IrrationalityViolationError.  spec may be an EnumSpec or any iterable
    of rational subspaces (shard outputs can be chained; the sweep sorts by
    height, so merging scans is an order-independent min-reduction).
    """
    if isinstance(target, _LINE_TARGETS):
        engine, raw, _keyed_rows, place = _line_scan(target, spec, j_index)
        return _line_records(engine, raw, place)
    scan = _GenericScan(target, j_index, ctx)

    def settle(level, record):
        # a row ruled out against bar has hi >= psi >= bar: it beats neither
        # the record nor, under the sweep's strict <, a row yielded before it
        bar = None if record is None else record[2]
        for row in level:
            if row[2] is None:
                if bar is not None and scan.rules_out(row, bar):
                    continue
                lo, hi = scan.bracket(row)
                row = (row[0], row[1], hi, lo, row[4])
            if bar is None or _dyadic_less(row[2], bar):
                bar = row[2]
            yield row

    try:
        pool = list(scan.rows(spec))
        # by (h2, coords) alone: subspaces have no order, and a subspace that
        # chained shards repeat keeps its stream order
        pool.sort(key=itemgetter(0, 1))
        raw = _sweep_pool(pool, lambda a, b: _dyadic_less(a[2], b[2]), settle)
    finally:
        scan.log("scan_records")
    return [
        ApproximationRecord(
            scan.subspace(row[1], row[4]),
            row[0],
            _float_down(_dyadic_float(*row[3])),
            _float_up(_dyadic_float(*row[2])),
            j_index,
        )
        for row in raw
    ]


def instance_records(
    params: ConstructionParams,
    spec: EnumSpec,
    j_index: int | None = None,
    ctx: PrecisionContext | None = None,
    stream=None,
) -> list[ApproximationRecord]:
    """Certified records of an instance over a window of ell-spaces, in
    R^(2 ell) when ell >= 2; j_index defaults to ell, and stream is
    build_generators' digit source.

    At ell = 1 the line engine scans line_target_for_instance, whose slope
    bracket holds the truncation tail; it refuses a ctx.  Otherwise the
    generators truncated at series_depth(params, H^2, 1) are scanned with
    ctx, and each bracket is widened by their angle_slack: the records hold
    for the true target.  series_depth is the only truncation rule.
    """
    ell, hmax = params.ell, spec.height_squared_max
    if spec.e != ell or (ell > 1 and spec.n != params.n):
        raise ParameterError(f"the window must hold {ell}-spaces, in R^{params.n} if ell > 1")
    j_index = ell if j_index is None else j_index
    if ell == 1:
        if ctx is not None:
            raise ParameterError("an exact ell = 1 line scan takes no precision context")
        return scan_records(line_target_for_instance(params, hmax, stream), spec, j_index)
    # the generators get depth at least 1, even where the series starts at 0
    gens = build_generators(params, series_depth(params, hmax, 1), stream=stream)
    records = scan_records(gens.real_basis(), spec, j_index, ctx)
    return widen_records(records, _float_up(gens.angle_slack))


# ---------------------------------------------------------------------------
# exponent estimation


@dataclass(frozen=True)
class ExponentEstimate:
    """Empirical approximation exponent read off a record list.

    Each usable record (squared height above 1) contributes
    beta_i = -2 log(psi_hi_i) / log(H^2_i); the estimate is the largest beta
    over the trailing half of the list, where transient small-height effects
    have decayed.  window holds the squared-height span of that tail.
    """

    mu_hat: float
    per_record: tuple[float, ...]
    window: tuple[int, int]
    used: tuple[ApproximationRecord, ...]
    diagnostics: Mapping

    def summary(self) -> dict:
        return {
            "muHat": self.mu_hat,
            "recordCount": self.diagnostics["count"],
            "window": list(self.window),
            "burnIn": self.diagnostics.get("burn_in"),
        }


def estimate_exponent(
    records: Sequence[ApproximationRecord], burn_in: int | None = None
) -> ExponentEstimate:
    """Fit the empirical exponent from a record list (upper sine endpoints)."""
    usable = [r for r in records if r.height_squared > 1]
    if len(usable) < 2:
        raise InsufficientRecordsError(
            "need at least two records of squared height above 1"
        )
    for r in usable:
        if r.psi_hi <= 0.0:
            err = IrrationalityViolationError(
                "a record sine upper bound is zero; the exponent is unbounded"
            )
            err.subspace = r.subspace
            raise err
    # a certificate's dyadic keeps the log where its double underflows
    log_psi = [_log_dyadic(r.psi_bracket[1]) if r.psi_bracket else math.log(r.psi_hi) for r in usable]
    log_h2 = [math.log(r.height_squared) for r in usable]
    betas = tuple(-2.0 * lp / lh for lp, lh in zip(log_psi, log_h2))
    tail = (len(betas) + 1) // 2
    mu_hat = max(betas[-tail:])
    secants = tuple(
        -2.0 * (lp_b - lp_a) / (lh_b - lh_a)
        for lp_a, lp_b, lh_a, lh_b in zip(log_psi, log_psi[1:], log_h2, log_h2[1:])
    )
    diagnostics = {
        "count": len(records),
        "used": len(usable),
        "tail": tail,
        "height_squared_range": (
            records[0].height_squared,
            records[-1].height_squared,
        ),
        "secant_slopes": secants,
        "burn_in": burn_in,
    }
    return ExponentEstimate(
        mu_hat=mu_hat,
        per_record=betas,
        window=(usable[len(usable) - tail].height_squared, usable[-1].height_squared),
        used=tuple(usable),
        diagnostics=diagnostics,
    )


def records_from_certification(cert: InstanceCertification) -> list[ApproximationRecord]:
    """Convert certified convergents into construction-sourced records,
    rebuilt from one digit table: each digit is read once.  Each record
    keeps its certificate's dyadic psi_bracket."""
    if not cert.records:
        return []
    table = _digit_table(cert.params, None, max(rec.n_index for rec in cert.records))
    records = []
    for rec in cert.records:
        conv = build_convergent(cert.params, rec.n_index, stream=table)
        records.append(
            ApproximationRecord(
                subspace=conv.subspace,
                height_squared=rec.height_squared,
                psi_lo=rec.psi_lo,
                psi_hi=rec.psi_hi,
                j_index=cert.params.ell,
                source=constructed_source(rec.n_index),
                psi_bracket=rec.psi_bracket,
            )
        )
    return records


# ---------------------------------------------------------------------------
# exclusivity of construction convergents among records

# burn-in: the first index whose height ratio is this close to its limit
_DEVIATION_TOL = 0.1


def height_ratio_deviations(
    params: ConstructionParams, nmax: int, stream=None
) -> tuple[tuple[ConvergentMatrix, Real], ...]:
    """Per-index deviation of H(B_N) / theta^(l m_N) from its limit value.

    The limit is the square root of the exact squared l-volume of the
    generators truncated at depth nmax + 2, as in certify_instance.  Each
    deviation is certify_instance's ratio_deviation: formed from the exact
    squared ratio, so it keeps full relative accuracy however close the
    ratio is to its limit, and returned as that mpf, which does not
    underflow where a double would.  Generators and convergents share one
    digit table, so each digit is read once; stream may be that table.
    """
    table = _digit_table(params, stream, nmax + 3)
    limit2 = build_generators(params, nmax + 2, stream=table).gram_squared()
    out = []
    for n_index in range(1, nmax + 1):
        conv = build_convergent(params, n_index, stream=table)
        ratio2 = Fraction(conv.height_squared, params.theta ** (2 * params.ell * conv.exponent))
        out.append((conv, _ratio_deviation(ratio2, limit2)))
    return tuple(out)


@dataclass(frozen=True)
class ExclusivityReport:
    """Outcome of matching scan records against construction convergents.

    records are instance_records over the window.  Burn-in is the first
    index whose height ratio sits within _DEVIATION_TOL of its limit; only
    records at or beyond that height are judged.  A record is an interloper
    when it is not a convergent yet its quality product psi_hi * H^(alpha/l)
    stays within the band spanned by the convergents' own products (factor
    10 by default).  For the infinite variant the judgment is positional:
    within a +-25% height window around each convergent inside the window,
    the best record must be that convergent.
    """

    params: ConstructionParams
    nmax: int
    window: tuple[int, int]
    deviations: tuple[Real, ...]
    burn_in_index: int | None
    burn_in_height_squared: int | None
    records: tuple[ApproximationRecord, ...]
    matched: tuple[tuple[int, int], ...]
    products: tuple[float, ...]
    band: float | None
    interlopers: tuple[int, ...]
    ok: bool

    def as_dict(self) -> dict:
        return {
            "nmax": self.nmax,
            "window": list(self.window),
            "burnIn": self.burn_in_index,
            "burnInHeightSquared": self.burn_in_height_squared,
            "deviations": [sci_str(d) for d in self.deviations],
            "recordCount": len(self.records),
            "matched": [list(pair) for pair in self.matched],
            "band": self.band,
            "interlopers": list(self.interlopers),
            "ok": self.ok,
        }


def exclusivity_check(
    params: ConstructionParams,
    nmax: int,
    spec: EnumSpec,
    ctx: PrecisionContext | None = None,
    zone: int | None = None,
    band_factor: float = 10.0,
) -> ExclusivityReport:
    """Check that beyond burn-in only convergents set competitive records.

    The records are instance_records(params, spec, ctx=ctx), those the
    `records` verb prints.  They and the height ratio deviations read one
    digit table.  zone is ignored, removed once the benchmark stops
    passing it (ROADMAP item 8).
    """
    if nmax < 1:
        raise ParameterError("need at least one convergent index")
    if (spec.n, spec.e) != (params.n, params.ell):
        raise ParameterError(
            "enumeration shape must match the instance: (n, e) = (2l, l)"
        )
    table = _digit_table(params, None, nmax + 3)
    records = instance_records(params, spec, ctx=ctx, stream=table)
    devs = height_ratio_deviations(params, nmax, stream=table)
    burn_in_index = next(
        (n_index for n_index, (_conv, dev) in enumerate(devs, start=1) if dev <= _DEVIATION_TOL),
        None,
    )
    burn_in_h2 = None if burn_in_index is None else devs[burn_in_index - 1][0].height_squared

    by_coords = {
        conv.subspace.pluecker.coords: n_index
        for n_index, (conv, _dev) in enumerate(devs, start=1)
    }
    matched = tuple(
        (pos, by_coords[rec.subspace.pluecker.coords])
        for pos, rec in enumerate(records)
        if rec.subspace.pluecker.coords in by_coords
    )
    matched_positions = {pos for pos, _n in matched}

    band, interlopers = None, []
    if params.variant == INFINITE:
        products: tuple[float, ...] = ()
        covered = []
        for n_index, (conv, _dev) in enumerate(devs, start=1):
            h2 = conv.height_squared
            if h2 > spec.height_squared_max:
                continue
            lo_w = (3 * h2) // 4
            hi_w = min((5 * h2) // 4, spec.height_squared_max)
            window_records = [
                (pos, rec)
                for pos, rec in enumerate(records)
                if lo_w <= rec.height_squared <= hi_w
            ]
            if not window_records:
                covered.append(False)
                continue
            best_pos = min(window_records, key=lambda pr: pr[1].psi_hi)[0]
            hit = (best_pos, n_index) in matched
            covered.append(hit)
            if not hit:
                interlopers.append(best_pos)
        ok = bool(covered) and all(covered) and burn_in_index is not None
    else:
        beta_f = float(params.beta)
        products = tuple(
            rec.psi_hi * rec.height_squared ** (beta_f / 2.0) for rec in records
        )
        if burn_in_h2 is not None:
            anchor = [
                products[pos]
                for pos, _n in matched
                if records[pos].height_squared >= burn_in_h2
            ]
            if anchor:
                band = band_factor * max(anchor)
                interlopers = [
                    pos
                    for pos, rec in enumerate(records)
                    if rec.height_squared >= burn_in_h2
                    and pos not in matched_positions
                    and products[pos] <= band
                ]
        ok = band is not None and not interlopers

    return ExclusivityReport(
        params=params,
        nmax=nmax,
        window=(1, spec.height_squared_max),
        deviations=tuple(dev for _conv, dev in devs),
        burn_in_index=burn_in_index,
        burn_in_height_squared=burn_in_h2,
        records=tuple(records),
        matched=matched,
        products=products,
        band=band,
        interlopers=tuple(interlopers),
        ok=ok,
    )


# ---------------------------------------------------------------------------
# irrationality witnesses


@dataclass(frozen=True)
class IrrationalityReport:
    """Finite-height irrationality witness from a record scan.

    min_psi_lower is the least certified lower endpoint of the j-th sine over
    every subspace in the window, as a double (0.0 below the double range,
    ROADMAP item 1); ok says its exact value is positive: the target stays
    a positive angle away from all of them.  offender is set when some
    subspace is indistinguishable from the target.  certified_exhaustive is
    always True: every enumeration strategy is a complete census, and so is
    the line scan's Stern-Brocot walk.  A line target's witness is its last
    record, the only one the scan builds.

    scanned counts the candidates examined, up to and including the
    offender when there is one.  For a generic scan that is the enumeration
    count; for a line target it is the rows the line walk keyed, the two
    height-1 rows plus the walk's nodes and probes (_scan_lines).
    """

    j_index: int
    scanned: int
    min_psi_lower: float
    witness: exact.RationalSubspace | None
    offender: exact.RationalSubspace | None
    ok: bool
    certified_exhaustive: bool = True

    def as_dict(self) -> dict:
        return {
            "jIndex": self.j_index,
            "scanned": self.scanned,
            "certifiedExhaustive": self.certified_exhaustive,
            "minPsiLower": self.min_psi_lower,
            "witness": None if self.witness is None else list(self.witness.pluecker.coords),
            "offender": None
            if self.offender is None
            else list(self.offender.pluecker.coords),
            "ok": self.ok,
        }


def irrationality_scan(
    target,
    spec,
    j_index: int = 1,
    ctx: PrecisionContext | None = None,
    zone: int | None = None,
) -> IrrationalityReport:
    """Scan a window for the least certified angle against the target.

    Line targets read it off the last record of the line scan
    (_line_scan), on the target's axes in R^n: that record alone is
    built, and its exact lower end gives ok.  Other
    targets take the first strict minimum of the lower endpoints in
    enumeration order, skipping a waiting candidate only when its label
    bound proves its lower endpoint at least the running minimum.  zone is
    ignored, removed once the benchmark stops passing it (ROADMAP item 8).
    """
    try:
        if isinstance(target, _LINE_TARGETS):
            engine, raw, scanned, place = _line_scan(target, spec, j_index)
            (last,) = _line_records(engine, raw[-1:], place)
            witness, min_psi = last.subspace, last.psi_lo
            ok = engine.bracket(*raw[-1][1])[0] > 0
        else:
            scan = _GenericScan(target, j_index, ctx)
            min_lo = None
            try:
                for row in scan.rows(spec):
                    lo = row[3]
                    if lo is None:
                        if min_lo is not None and scan.rules_out(row, min_lo, slack=True):
                            continue
                        lo = scan.bracket(row)[0]
                    if min_lo is None or _dyadic_less(lo, min_lo):
                        min_lo, witness = lo, row
            finally:
                scan.log("irrationality_scan")
            if min_lo is None:
                raise InsufficientRecordsError("the enumeration window is empty")
            witness = scan.subspace(witness[1], witness[4])
            scanned = scan.counts["candidates"]
            min_psi, ok = _float_down(_dyadic_float(*min_lo)), min_lo[0] > 0
    except IrrationalityViolationError as err:
        return IrrationalityReport(
            j_index=j_index,
            scanned=err.scanned,
            min_psi_lower=0.0,
            witness=None,
            offender=err.subspace,
            ok=False,
        )
    return IrrationalityReport(
        j_index=j_index,
        scanned=scanned,
        min_psi_lower=min_psi,
        witness=witness,
        offender=None,
        ok=ok,
    )
