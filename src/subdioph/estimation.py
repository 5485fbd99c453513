"""Record-setting approximants and empirical approximation exponents.

A record is an enumerated subspace whose j-th proximity sine against a fixed
target is strictly smaller than that of every enumerated subspace of equal or
lower height.  Reading the record sequence on a log-log scale turns certified
angle intervals into an empirical approximation exponent.

One line engine and one label-screened generic scan feed a single record
sweep:

* the exact line engine, for lines in the plane, clears the target's
  denominators once and keys plane vectors by their exact squared cross
  terms, as plain integers (exact signs of m + n sqrt(d) for quadratic
  slopes).  From the height-1 level it walks dyadic height shells: the
  running record bounds |x1 p - x2 q| <= D for every vector of the shell
  that could beat it, and Fincke-Pohst enumeration lists that slab on a
  Lagrange-Gauss reduced lattice basis in O(1 + points) nodes.  The search
  is complete by construction and takes O(log H) shells; only the records
  get a bracket and become fractions, and an irrationality scan counts the
  rows the walk keyed.  A line target
  embedded on two coordinate axes of R^n has the plane records, embedded
  (the projection lemma): split an off-plane vector as v = (x, z) with x
  in the plane and z != 0.  For x != 0 at distance d <= |x| from the
  target line,
      psi(v)^2 = (d^2 + |z|^2) / (|x|^2 + |z|^2) >= d^2 / |x|^2 = psi(x)^2,
  and the primitive vector of x is strictly lower; for x = 0, psi(v) = 1,
  which (1, 0) beats at height 1.  So no off-plane line sets a record;
* the generic scan walks an enumeration and pairs an exact target's
  label with every candidate's label in integers.  For d + e <= n that
  pairing gives the product P of all the sines (Schmidt's identity), and
  psi_j >= P^(1/j) lets the sweep skip any candidate that cannot beat the
  running record; for a pair with a single angle P is that sine, exactly.
  Only the survivors get a sine bracket: a single-angle pair from its
  labels alone, any other after decoding a basis, through the adaptive
  angle engine.  Float and evaluator targets screen nothing.

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
from itertools import groupby
from math import gcd, isqrt
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from mpmath import mp

from . import exact
from .angles import (
    PrecisionContext,
    RealBasis,
    angles_adaptive,
    exact_relative_bits,
    sine_from_squared,
)
from .construction import (
    INFINITE,
    SUMMARY_BITS,
    ConstructionParams,
    ConvergentMatrix,
    InstanceCertification,
    build_convergent,
    build_generators,
    series_start,
    stream_for,
    tail_bound,
    xi_truncation,
    _ratio_deviation,
)
from .enumeration import (
    EXACT_LINES,
    EnumSpec,
    enumerate_subspaces,
)
from .errors import (
    InsufficientRecordsError,
    IrrationalityViolationError,
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
    params: ConstructionParams,
    height_squared_max: int | None = None,
    depth: int | None = None,
    stream=None,
) -> RationalLineTarget:
    """Truncated-series line target for a one-dimensional instance.

    When depth is omitted it is chosen so that the slope bracket, widened
    across the whole scan range, stays far below the bracket allowance.
    """
    if params.ell != 1:
        raise ParameterError("series instances define a line target only when ell = 1")
    stream = stream if stream is not None else stream_for(params)
    if depth is None:
        if height_squared_max is None:
            raise ParameterError("need either a depth or a height bound")
        depth = series_depth(params, height_squared_max, series_start(params))
    trunc = xi_truncation(stream, 1, 1, depth, params)
    return RationalLineTarget(value=trunc.value, tail_upper=trunc.tail_upper)


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class ApproximationRecord:
    """A record approximant: the subspace with the smallest j-th proximity
    sine among all enumerated subspaces of height up to its own.

    psi_lo and psi_hi bracket the sine conservatively (outward-rounded
    floats); source is "enumerated" or "constructed:N".
    """

    subspace: exact.RationalSubspace
    height_squared: int
    psi_lo: float
    psi_hi: float
    j_index: int
    source: str = SOURCE_ENUMERATED


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
    """Widen every sine interval by an additive slack (target substitution)."""
    if tau < 0:
        raise ParameterError("slack must be nonnegative")
    # float sums round to nearest: step each end outward past the rounding
    return [
        replace(r, psi_lo=_float_down(r.psi_lo - tau), psi_hi=_float_up(r.psi_hi + tau))
        for r in records
    ]


def _sqrt_interval(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """Conservative float bracket of [sqrt(lo), sqrt(hi)] for 0 <= lo <= hi."""
    f_lo = math.sqrt(max(0.0, math.nextafter(float(lo), 0.0)))
    f_hi = math.sqrt(math.nextafter(float(hi), math.inf))
    return max(0.0, math.nextafter(f_lo, 0.0)), math.nextafter(f_hi, math.inf)


def _float_down(x) -> float:
    return max(0.0, math.nextafter(float(x), 0.0))


def _float_up(x) -> float:
    return math.nextafter(float(x), math.inf)


# ---------------------------------------------------------------------------
# exact line scanner

# Each engine clears the target's denominators once.  The slope lies in
# [p_lo, p_hi] / q, and every bracket below is an integer over one
# per-engine scale.  A row is (h2, vector, key), where key = engine.key(x1,
# x2) is the exact comparison object for the squared cross term: an int
# (rational slopes) or an (m, n) pair for m + n sqrt(d).  engine.zero is
# the key of a vector on the target.  engine.less(row_a, row_b) compares
# key / h2 of two rows exactly.  engine.radius(record, top) is an integer D
# with |x1 p_lo - x2 q| <= D for every x with |x|^2 <= top whose row beats
# the record row under less: the slab the shell search walks.  Only the
# rows the sweep returns get engine.bracket, an integer (lo2, hi2) of the
# same quantity over the scale.


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
        self.scale = q * q
        self.exact_slope = target.tail_upper == 0
        sq_lo, sq_hi = _square_bracket(self.p_lo, self.p_hi)
        self.u2_lo, self.u2_hi = self.scale + sq_lo, self.scale + sq_hi

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

    @staticmethod
    def radius(record, top: int) -> int:
        # (x1 p_lo - x2 q)^2 <= key(x) < key_r |x|^2 / h2_r <= key_r top / h2_r
        return isqrt(record[2] * top // record[0])


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
        self.scale = (den * den) << bits
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

    def radius(self, record, top: int) -> int:
        # hi_r / 2^bits, the upper end of _bracket(m, n), bounds the
        # record's key from above.  2^bits den (x1 slope - x2) squares to
        # key(x) 2^(2 bits) < 2^bits hi_r top / h2_r, and x1 p_lo - x2 q
        # differs from it by x1 b (root - 2^bits sqrt(d)) or
        # x1 b (root + 1 - 2^bits sqrt(d)), less than isqrt(top) |b| in size
        h2, _vec, (m, n) = record
        hi = (m << self.bits) + n * self.root + max(n, 0)
        return isqrt((hi * top << self.bits) // h2) + 1 + isqrt(top) * abs(self.b)


def _cross_engine(target, hmax2: int = 1) -> "_RationalCross | _QuadraticCross":
    if isinstance(target, RationalLineTarget):
        return _RationalCross(target)
    if isinstance(target, QuadraticLineTarget):
        # 2^bits >= 2^64 H^4 keeps the enclosure error in radius() far below
        # the record slab at every height, and the record brackets tight
        return _QuadraticCross(target, max(_ROOT_BITS, 64 + 2 * hmax2.bit_length()))
    raise ParameterError("fast scans need a rational or quadratic line target")


def _check_bracket_width(engine, hmax2: int) -> None:
    allowance = _BRACKET_ALLOWANCE
    width = (engine.p_hi - engine.p_lo) * (isqrt(hmax2) + 1)
    if width * allowance.denominator > allowance.numerator * engine.q:
        raise ParameterError(
            "slope bracket too wide for the scan range; deepen the truncation"
        )


def _gauss_reduced(u: tuple, v: tuple, dd: int, xx: int) -> tuple:
    """Lagrange-Gauss reduction of the lattice basis (u, v) under the form
    F(w) = dd w[0]^2 + xx w[2]^2 on (x1, x2, y) vectors.

    Returns (u, v, F(u), B(u, v), F(v)) with F(u) <= F(v) and
    |2 B(u, v)| <= F(u), B being the form's inner product.
    """

    def inner(a, b):
        return dd * a[0] * b[0] + xx * a[2] * b[2]

    g11, g22 = inner(u, u), inner(v, v)
    while True:
        if g22 < g11:
            u, v, g11, g22 = v, u, g22, g11
        g12 = inner(u, v)
        mu = (2 * g12 + g11) // (2 * g11)
        if not mu:
            return u, v, g11, g12, g22
        v = (v[0] - mu * u[0], v[1] - mu * u[1], v[2] - mu * u[2])
        g22 = inner(v, v)


def _shell_vectors(engine, record, lo: int, top: int, basis: tuple) -> tuple[list, tuple, int]:
    """Primitive plane vectors (x1, x2), x1 >= 1 and lo < x1^2 + x2^2 <= top,
    among them every one whose row beats the record row (Fincke-Pohst).

    Such a vector has x1 <= X = isqrt(top) and |y| <= D for
    y = x1 p_lo - x2 q and D = engine.radius(record, top), so its point
    (x1, x2, y) of the lattice Z (1, 0, p_lo) + Z (0, 1, -q) lies in the
    ellipse D^2 x1^2 + X^2 y^2 <= 2 D^2 X^2.  The walk lists that ellipse on
    a basis reduced under this form, which keeps it at O(1 + points) nodes
    (a node is one c2 level or one point), and covers each pair +-w once.
    basis is a basis of that lattice, and the reduced one is returned for
    the next shell, whose form differs little.  Returns the vectors, the
    basis and the node count.
    """
    radius, width = engine.radius(record, top), isqrt(top)
    u, v, g11, g12, g22 = _gauss_reduced(*basis, radius * radius, width * width)
    (u1, u2, uy), (v1, v2, vy) = u, v
    det = g11 * g22 - g12 * g12
    # g11 F(c1 u + c2 v) = (g11 c1 + g12 c2)^2 + det c2^2 <= g11 2 D^2 X^2
    bound = 2 * radius * radius * width * width * g11
    vecs = []
    nodes = 0
    for c2 in range(isqrt(bound // det) + 1):
        reach = isqrt(bound - det * c2 * c2)
        centre = -g12 * c2
        first = -((reach - centre) // g11) if c2 else 1
        last = (centre + reach) // g11
        if not c2:
            # c1 u is primitive only for c1 = 1: c1 = 0 is the origin,
            # c1 < 0 the negatives and c1 >= 2 the multiples of u
            last = min(last, 1)
        nodes += 1 + max(0, last - first + 1)
        for c1 in range(first, last + 1):
            x1, x2 = c1 * u1 + c2 * v1, c1 * u2 + c2 * v2
            if x1 < 0:
                x1, x2 = -x1, -x2
            if (
                x1
                and abs(c1 * uy + c2 * vy) <= radius
                and lo < x1 * x1 + x2 * x2 <= top
                and gcd(x1, x2) == 1
            ):
                vecs.append((x1, x2))
    return vecs, (u, v), nodes


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


def _line(vec: tuple[int, ...]) -> exact.RationalSubspace:
    return exact.RationalSubspace.from_basis([[c] for c in vec])


def _debug(msg: str, *args) -> None:
    # a process that never imported logging has no handler or level that
    # keeps a DEBUG record, so it does not pay for the import
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("subdioph").debug(msg, *args)


def _meeting(vec: tuple[int, ...], scanned: int) -> IrrationalityViolationError:
    err = IrrationalityViolationError(
        f"enumerated line {vec} meets the target exactly"
    )
    err.vector = vec
    err.subspace = _line(vec)
    err.scanned = scanned
    return err


def _keyed(engine, vecs: list, keyed: int) -> list[tuple]:
    """(h2, vector, key) rows of plane vectors, keyed after `keyed` others.
    A vector that meets the target raises IrrationalityViolationError,
    which counts the rows keyed up to and including it."""
    rows = []
    for x1, x2 in vecs:
        key = engine.key(x1, x2)
        if key == engine.zero:
            raise _meeting((x1, x2), keyed + len(rows) + 1)
        rows.append((x1 * x1 + x2 * x2, (x1, x2), key))
    # (h2, vector) is unique per row, so the sort never compares keys
    rows.sort()
    return rows


def _scan_lines(target, hmax2: int) -> tuple[list[ApproximationRecord], int]:
    """Certified record scan over every primitive plane line against a
    plane line target.

    The sweep starts from the height-1 level, (0, 1) and (1, 0), and walks
    dyadic shells (h, min(2h, hmax2)] from h = 1: _shell_vectors lists
    every vector of the shell that can beat the running record, and those
    rows are keyed, sorted and swept on from the record.  The search is
    complete by construction, and it stays at O(1) nodes per shell while
    the records come at a steady rate, so the walk takes O(log H^2)
    shells.  Only the records are bracketed.

    Returns the records and the number of rows keyed: the two height-1 rows
    plus the shell rows.  A line that meets the target raises
    IrrationalityViolationError with the rows keyed up to and including
    it.  Logs its counts at DEBUG on the "subdioph" logger, a meeting's up
    to the meeting line.

    The same records serve the target embedded on two coordinate axes of
    R^n: no line off the embedded plane sets a record (see the module
    docstring), so scan_embedded_line_records embeds these.
    """
    if hmax2 < 1:
        raise ParameterError("height bound must be positive")
    engine = _cross_engine(target, hmax2)
    _check_bracket_width(engine, hmax2)
    counts = dict.fromkeys(("shells", "nodes", "shell_rows"), 0)
    raw = []
    try:
        raw = _sweep_pool(_keyed(engine, [(0, 1), (1, 0)], 0), engine.less)
        basis = ((1, 0, engine.p_lo), (0, 1, -engine.q))
        lo = 1
        while lo < hmax2:
            top = min(2 * lo, hmax2)
            vecs, basis, nodes = _shell_vectors(engine, raw[-1], lo, top, basis)
            counts["shells"] += 1
            counts["nodes"] += nodes
            rows = _keyed(engine, vecs, 2 + counts["shell_rows"])
            counts["shell_rows"] += len(rows)
            # the running record leads the shell: the sweep goes on from it
            raw += _sweep_pool([raw[-1], *rows], engine.less)[1:]
            lo = top
    except IrrationalityViolationError as err:
        counts["shell_rows"] = err.scanned - 2
        raise
    finally:
        _debug(
            "scan_lines: shells=%d nodes=%d shell_rows=%d records=%d",
            *counts.values(), len(raw),
        )
    raw = [(h2, vec, *engine.bracket(*vec)) for h2, vec, _key in raw]
    # the engine scale cancels in both ratios
    records = [
        ApproximationRecord(
            _line(vec),
            h2,
            *_sqrt_interval(
                Fraction(lo2, h2 * engine.u2_hi), Fraction(hi2, h2 * engine.u2_lo)
            ),
            j_index=1,
        )
        for h2, vec, lo2, hi2 in raw
    ]
    return records, 2 + counts["shell_rows"]


_LINE_TARGETS = (RationalLineTarget, QuadraticLineTarget)


def _line_scan(target, spec, j_index: int) -> tuple[list[ApproximationRecord], int]:
    """The line-target gate of both scans: plane lines in an EnumSpec window,
    first sine only.  Returns _scan_lines' records and keyed count."""
    if not isinstance(spec, EnumSpec):
        raise ParameterError("fast line scans need an EnumSpec window")
    if (spec.n, spec.e) != (2, 1):
        raise StrategyMismatchError("line targets scan lines in the plane")
    if j_index != 1:
        raise ParameterError("a line has a single proximity sine")
    return _scan_lines(target, spec.height_squared_max)


def scan_line_records(
    target, height_squared_max: int, zone: int | None = None
) -> list[ApproximationRecord]:
    """Records of every primitive plane line against a line target.

    One shell walk from height 1 covers the whole window (_scan_lines).
    zone is ignored, removed once the benchmark stops passing it (ROADMAP
    item 8).
    """
    return _scan_lines(target, height_squared_max)[0]


def scan_embedded_line_records(
    target, n: int, height_squared_max: int, axes: tuple[int, int] = (0, 1)
) -> list[ApproximationRecord]:
    """Records of every primitive line in n-space against a plane line
    target embedded on the coordinate axes.

    No line off the embedded plane sets a record: its sine is at least that
    of its projection to the plane, whose primitive vector is strictly lower
    (module docstring).  So these are the plane records, embedded on the
    axes, and a plane line that meets the target is reported embedded, with
    the plane scan's count.
    """
    i0, i1 = axes
    if not (0 <= i0 < i1 < n):
        raise ParameterError("embedding axes must be increasing and in range")

    def embed(vec: tuple[int, int]) -> tuple[int, ...]:
        out = [0] * n
        out[i0], out[i1] = vec
        return tuple(out)

    try:
        records = _scan_lines(target, height_squared_max)[0]
    except IrrationalityViolationError as err:
        raise _meeting(embed(err.vector), err.scanned) from None
    return [replace(r, subspace=_line(embed(r.subspace.pluecker.coords))) for r in records]


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


def _unresolved(sub: exact.RationalSubspace, scanned: int) -> IrrationalityViolationError:
    err = IrrationalityViolationError(
        f"subspace {sub.pluecker.coords} is indistinguishable from the"
        " target at the precision cap"
    )
    err.subspace = sub
    err.scanned = scanned
    return err


class _GenericScan:
    """The candidates of one generic scan, screened by their labels.

    For d + e <= n the sines of the target A and a candidate B multiply to
    P = |X_A /\\ X_B| / (|X_A| |X_B|) (Schmidt 1967), and psi_j >= P^(1/j)
    because no sine exceeds 1.  An exact target pairs its raw label with
    each candidate's label once, in integers (wedge2 = |X_A /\\ X_B|^2):

    * an exact pair with t <= 2 and wedge2 > 0 waits unbracketed, so a
      scan can skip it once P^(1/j) rules it out; for t = 1, P is the sine
      itself;
    * every other candidate (float or evaluator targets, t >= 3, wedge2 = 0)
      is profiled at once, so an unresolved sine raises at its place in
      the enumeration (a t = 1 pair with wedge2 = 0 raises without a
      profile).  A waiting pair has no zero sine, and the exact engine
      resolves every nonzero sine.

    A waiting row that survives its scan's test is bracketed by bracket():
    a t = 1 pair reads its sine off wedge2, with the bracket that
    angles_adaptive would report, and decodes no basis; a t = 2 pair is
    profiled.  rows() yields (h2, coords, hi, lo, sub, scanned, wedge2) in
    enumeration order, with hi and lo None on a waiting row.
    """

    def __init__(self, target, j_index: int, ctx: PrecisionContext | None):
        self.basis = _coerce_target(target)
        self.j_index = j_index
        self.ctx = ctx or PrecisionContext()
        self.bits = None
        self.label = None
        if self.basis.exact_matrix is not None:
            # the raw minors will do: every ratio below is scale-free
            self.label = exact.raw_minors(exact.transpose(self.basis.integer_columns()))
            self.label2 = sum(x * x for x in self.label)
        self.counts = dict.fromkeys(("candidates", "label_only", "profiled", "skipped"), 0)
        self._memo = (None, None)

    def rows(self, spec) -> Iterator[tuple]:
        n, d, j_index = self.basis.n, self.basis.d, self.j_index
        counts = self.counts
        subs = enumerate_subspaces(spec) if isinstance(spec, EnumSpec) else spec
        for scanned, sub in enumerate(subs, start=1):
            counts["candidates"] = scanned
            limit = min(d, sub.e)
            if not 1 <= j_index <= limit:
                raise ParameterError(
                    f"sine index {j_index} is out of range for {limit} angles"
                )
            if sub.n != n:
                raise ShapeError("ambient dimensions differ")
            pv = sub.pluecker
            h2 = pv.height_squared
            wedge2 = None
            if self.label is not None:
                wedge2 = exact.wedge_norm_squared(self.label, d, pv.coords, sub.e, n)
                if limit == 1 and d + sub.e <= n:
                    # where angles_adaptive would raise PrecisionExhaustedError
                    self._bits()
                    if not wedge2:
                        raise _unresolved(sub, scanned)
            if not wedge2 or limit > 2:
                lo, hi = self.profile(sub, scanned)
                yield (h2, pv.coords, hi, lo, sub, scanned, wedge2)
            else:
                yield (h2, pv.coords, None, None, sub, scanned, wedge2)

    def _bits(self) -> int:
        # asked for at the first exact pair, which is where angles_adaptive
        # would raise PrecisionExhaustedError
        if self.bits is None:
            self.bits = exact_relative_bits(self.ctx)
        return self.bits

    def bracket(self, row: tuple) -> tuple:
        """(lo, hi) of a waiting row's j-th sine: from its label when t = 1,
        with the bracket that angles_adaptive would report, else from the
        angle engine."""
        if row[4].e == 1 or self.basis.d == 1:
            self.counts["label_only"] += 1
            return sine_from_squared(row[6], self.label2 * row[0], self._bits())
        return self.profile(row[4], row[5])

    def profile(self, sub: exact.RationalSubspace, scanned: int) -> tuple:
        """(lo, hi) of the j-th sine from the angle engine."""
        self.counts["profiled"] += 1
        k = self.j_index - 1
        prof = angles_adaptive(self.basis, RealBasis.from_subspace(sub), self.ctx)
        if not prof.resolved[k]:
            raise _unresolved(sub, scanned)
        return prof.lo[k], prof.hi[k]

    def rules_out(self, row: tuple, x, slack: bool = False) -> bool:
        """Whether a waiting row's label proves hi >= x, from
        P^(1/j) >= x, or with slack lo >= x, from P^(1/j) (1 - 2^-b) >= x:
        exact brackets have relative width below 2^-b.  A proof counts the
        row as skipped."""
        if self._memo[0] is not x:
            man, exp = x.man_exp
            num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
            if slack:
                bits = self._bits()
                num, den = num << bits, den * ((1 << bits) - 1)
            # P^(1/j) >= num / den  <=>  wedge2 den^2j >= num^2j label2 h2
            power = 2 * self.j_index
            self._memo = (x, (num**power * self.label2, den**power))
        big, small = self._memo[1]
        if row[6] * small >= big * row[0]:
            self.counts["skipped"] += 1
            return True
        return False

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

    Line targets paired with a plane window take the certified line scan,
    which always covers every primitive line up to the bound.  Otherwise
    the candidates are labelled and screened (_GenericScan), sorted by
    (h2, coords) and swept by height level: a waiting candidate is
    bracketed only when its label bound cannot meet the running record's
    upper endpoint; a candidate whose bound does could be neither a level
    minimum that beats the record nor a record.  The running minimum is taken over upper
    endpoints; an interval stuck at zero raises
    IrrationalityViolationError.  spec may be an EnumSpec or any iterable
    of rational subspaces (shard outputs can be chained; the sweep sorts by
    height, so merging scans is an order-independent min-reduction).
    """
    if isinstance(target, _LINE_TARGETS):
        return _line_scan(target, spec, j_index)[0]
    scan = _GenericScan(target, j_index, ctx)

    def settle(level, record):
        for row in level:
            if row[2] is None:
                if record is not None and scan.rules_out(row, record[2]):
                    continue
                lo, hi = scan.bracket(row)
                row = (row[0], row[1], hi, lo, row[4])
            yield row

    try:
        pool = list(scan.rows(spec))
        # by (h2, coords) alone: subspaces have no order, and a subspace that
        # chained shards repeat keeps its stream order
        pool.sort(key=itemgetter(0, 1))
        raw = _sweep_pool(pool, lambda a, b: a[2] < b[2], settle)
    finally:
        scan.log("scan_records")
    return [
        ApproximationRecord(
            subspace=row[4],
            height_squared=row[0],
            psi_lo=_float_down(row[3]),
            psi_hi=_float_up(row[2]),
            j_index=j_index,
            source=SOURCE_ENUMERATED,
        )
        for row in raw
    ]


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
    betas = tuple(
        -2.0 * math.log(r.psi_hi) / math.log(r.height_squared) for r in usable
    )
    tail = (len(betas) + 1) // 2
    mu_hat = max(betas[-tail:])
    secants = tuple(
        -2.0
        * (math.log(b.psi_hi) - math.log(a.psi_hi))
        / (math.log(b.height_squared) - math.log(a.height_squared))
        for a, b in zip(usable, usable[1:])
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


def records_from_certification(
    cert: InstanceCertification, stream=None
) -> list[ApproximationRecord]:
    """Convert certified convergents into construction-sourced records."""
    stream = stream if stream is not None else stream_for(cert.params)
    records = []
    for rec in cert.records:
        conv = build_convergent(cert.params, rec.n_index, stream)
        records.append(
            ApproximationRecord(
                subspace=conv.subspace,
                height_squared=rec.height_squared,
                psi_lo=rec.psi_lo,
                psi_hi=rec.psi_hi,
                j_index=cert.params.ell,
                source=constructed_source(rec.n_index),
            )
        )
    return records


# ---------------------------------------------------------------------------
# exclusivity of construction convergents among records


def height_ratio_deviations(
    params: ConstructionParams,
    nmax: int,
    stream=None,
    depth: int | None = None,
) -> tuple[tuple[ConvergentMatrix, mp.mpf], ...]:
    """Per-index deviation of H(B_N) / theta^(l m_N) from its limit value.

    The limit is the square root of the exact squared l-volume of the
    depth-truncated generators.  Each deviation is certify_instance's
    ratio_deviation: formed from the exact squared ratio, so it keeps full
    relative accuracy however close the ratio is to its limit, and returned
    as that mpf, which does not underflow where a double would.
    """
    stream = stream if stream is not None else stream_for(params)
    depth = depth if depth is not None else nmax + 2
    limit2 = build_generators(params, depth, stream).gram_squared()
    out = []
    with mp.workprec(SUMMARY_BITS):
        for n_index in range(1, nmax + 1):
            conv = build_convergent(params, n_index, stream)
            ratio2 = Fraction(conv.height_squared, params.theta ** (2 * params.ell * conv.exponent))
            out.append((conv, _ratio_deviation(ratio2, limit2)))
    return tuple(out)


@dataclass(frozen=True)
class ExclusivityReport:
    """Outcome of matching scan records against construction convergents.

    Burn-in is the first index whose height ratio sits within the stated
    tolerance of its limit; only records at or beyond that height are judged.
    A record is an interloper when it is not a convergent yet its quality
    product psi_hi * H^(alpha/l) stays within the band spanned by the
    convergents' own products (factor 10 by default).  For the infinite
    variant the judgment is positional: within a +-25% height window around
    each in-range convergent, the best record must be that convergent.
    """

    params: ConstructionParams
    nmax: int
    window: tuple[int, int]
    deviations: tuple[mp.mpf, ...]
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
    deviation_tol: float = 0.1,
) -> ExclusivityReport:
    """Check that beyond burn-in only convergents set competitive records.

    zone is ignored, removed once the benchmark stops passing it (ROADMAP
    item 8).
    """
    if nmax < 1:
        raise ParameterError("need at least one convergent index")
    if (spec.n, spec.e) != (params.n, params.ell):
        raise ParameterError(
            "enumeration shape must match the instance: (n, e) = (2l, l)"
        )
    stream = stream_for(params)
    devs = height_ratio_deviations(params, nmax, stream)
    burn_in_index = None
    burn_in_h2 = None
    for n_index, (_conv, dev) in enumerate(devs, start=1):
        if dev <= deviation_tol:
            burn_in_index = n_index
            burn_in_h2 = devs[n_index - 1][0].height_squared
            break

    if params.ell == 1 and spec.strategy == EXACT_LINES:
        target = line_target_for_instance(
            params, height_squared_max=spec.height_squared_max, stream=stream
        )
        records = scan_records(target, spec)
    else:
        depth = nmax + 2
        gens = build_generators(params, depth, stream)
        records = scan_records(gens.real_basis(), spec, j_index=params.ell, ctx=ctx)
        records = widen_records(records, _float_up(gens.angle_slack))

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

    if params.variant == INFINITE:
        products: tuple[float, ...] = ()
        band = None
        interlopers = []
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
        band = None
        interlopers = []
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
    every subspace in the window; a positive value shows the target stays a
    positive angle away from all of them.  offender is set when some subspace
    is indistinguishable from the target.  certified_exhaustive is always
    True: every enumeration strategy is a complete census, and so is the
    line scan's shell search.

    scanned counts the candidates examined, up to and including the
    offender when there is one.  For a generic scan that is the enumeration
    count; for a line target it is the rows the shell walk keyed, the two
    height-1 rows plus the shell rows (_scan_lines).
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

    Line targets read it off the last record of the line scan.  Other
    targets take the first strict minimum of the lower endpoints in
    enumeration order, skipping a waiting candidate only when its label
    bound proves its lower endpoint at least the running minimum.  zone is
    ignored, removed once the benchmark stops passing it (ROADMAP item 8).
    """
    line = isinstance(target, _LINE_TARGETS)
    try:
        if line:
            records, scanned = _line_scan(target, spec, j_index)
            witness = records[-1].subspace
            min_psi = records[-1].psi_lo
            ok = min_psi > 0.0
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
                    if min_lo is None or lo < min_lo:
                        min_lo, witness = lo, row[4]
            finally:
                scan.log("irrationality_scan")
            if min_lo is None:
                raise InsufficientRecordsError("the enumeration window is empty")
            scanned = scan.counts["candidates"]
            min_psi, ok = _float_down(min_lo), min_lo > 0
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
