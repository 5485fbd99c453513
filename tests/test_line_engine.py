"""The exact line engine against brute force over every primitive vector.

The oracle walks a box of integer vectors, keeps the primitive
sign-canonical ones up to the height bound, and ranks them by the exact
value (v . u)^2 / |v|^2 for the target direction u = e_i0 + s e_i1: a larger
value is a smaller sine.  Records are the exact running strict minima of
the sine over height levels, ties within a level going to the smallest
coords.  Exact rational slopes compute in Fraction, quadratic slopes
(a + b sqrt(d)) in integer pairs (m, n) for m + n sqrt(d), compared by
exact surd signs.

The oracle walks every primitive vector of R^n, off the embedded plane
too, so it also checks the projection lemma the embedded scan rests on: no
off-plane line sets a record.

The engine must return exactly the oracle's records (each bracket holding
the exact sine), or raise IrrationalityViolationError at the one vector
that meets an exact rational target.

The pool the engine swept before the shell search (a census up to a zone
plus the rounding window above it, built by a per-row builder) stays below
as an oracle: swept by the engine's own sweep, it gives the same records
and meets the target at the same vector.  So does the shell walk the
Stern-Brocot walk replaced (Fincke-Pohst over dyadic height shells), which
must agree with it bit for bit, meeting vectors and refused brackets
included.  The `scanned` count of a line irrationality scan is the rows the
walk keyed, checked against the walk's DEBUG counts.
"""

import hashlib
import itertools
import logging
import math
import random
import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from subdioph import construction as con
from subdioph import estimation as est
from subdioph import exact
from subdioph import morphisms as mor
from subdioph.angles import _sqrt_interval
from subdioph.enumeration import EXACT_LINES, EnumSpec, enumerate_subspaces, primitive_vectors
from subdioph.errors import IrrationalityViolationError, ParameterError

SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


def brute_vectors(n, hmax2):
    """(h2, vec) of every primitive vector whose first nonzero entry is
    positive, from a plain walk over the box [-r, r]^n."""
    r = isqrt(hmax2)
    out = []
    for vec in itertools.product(range(-r, r + 1), repeat=n):
        h2 = sum(x * x for x in vec)
        if not 0 < h2 <= hmax2:
            continue
        lead = next(x for x in vec if x)
        if lead > 0 and gcd(*vec) == 1:
            out.append((h2, vec))
    return out


class RationalOracle:
    """Closeness (v . u)^2 / h2 and squared sines for an exact slope s."""

    def __init__(self, target):
        self.s = target.value
        self.u2 = 1 + self.s * self.s

    def closeness(self, x1, x2, h2):
        return (x1 + self.s * x2) ** 2 / h2

    def closer(self, a, b):
        return a > b

    def meets(self, c):
        return c == self.u2

    def bracket_holds(self, c, lo, hi):
        sin2 = 1 - c / self.u2
        return Fraction(lo) ** 2 <= sin2 <= Fraction(hi) ** 2


class QuadraticOracle:
    """The same for s = (a + b sqrt(d)) / den, in integer pairs (m, n) that
    stand for (m + n sqrt(d)) / den^2."""

    def __init__(self, target):
        den = target.a.denominator * target.b.denominator
        self.a = int(target.a * den)
        self.b = int(target.b * den)
        self.d, self.den = target.d, den
        # den^2 |u|^2 = den^2 + (a + b sqrt(d))^2
        self.u2 = (den * den + self.a * self.a + self.b * self.b * self.d, 2 * self.a * self.b)

    def closeness(self, x1, x2, h2):
        p, q = self.den * x1 + self.a * x2, self.b * x2
        return (p * p + q * q * self.d, 2 * p * q), h2

    def closer(self, a, b):
        (m_a, n_a), h_a = a
        (m_b, n_b), h_b = b
        return est._surd_sign(m_a * h_b - m_b * h_a, n_a * h_b - n_b * h_a, self.d) > 0

    def meets(self, c):
        return False

    def bracket_holds(self, c, lo, hi):
        # sin^2 = (h2 |u|^2 - (v . u)^2) / (h2 |u|^2), and |u|^2 > 0
        (m, n), h2 = c
        u_m, u_n = self.u2
        gap = (h2 * u_m - m, h2 * u_n - n)

        def sign(bound):
            p, q = (Fraction(bound) ** 2).as_integer_ratio()
            return est._surd_sign(p * h2 * u_m - q * gap[0], p * h2 * u_n - q * gap[1], self.d)

        return sign(lo) <= 0 <= sign(hi)


def oracle_for(target):
    if isinstance(target, est.QuadraticLineTarget):
        return QuadraticOracle(target)
    return RationalOracle(target)


def oracle_records(oracle, vectors, axes):
    """[(vec, h2, closeness)] of the running strict minima, or ("meets", vec)."""
    i0, i1 = axes
    ranked = sorted(vectors)
    records = []
    level_h2, best = None, None
    for h2, vec in ranked + [(None, None)]:
        if h2 != level_h2:
            if best is not None and (not records or oracle.closer(best[2], records[-1][2])):
                records.append(best)
            level_h2, best = h2, None
        if h2 is None:
            break
        c = oracle.closeness(vec[i0], vec[i1], h2)
        if oracle.meets(c):
            return ("meets", vec)
        if best is None or oracle.closer(c, best[2]):
            best = (vec, h2, c)
    return records


def scan_outcome(target, n, axes, hmax2):
    try:
        return est.scan_embedded_line_records(target, n, hmax2, axes=axes)
    except IrrationalityViolationError as err:
        return ("meets", err.vector)


def check_engine(target, n, axes, hmax2):
    oracle = oracle_for(target)
    expected = oracle_records(oracle, brute_vectors(n, hmax2), axes)
    got = scan_outcome(target, n, axes, hmax2)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, list)
    assert [(r.subspace.pluecker.coords, r.height_squared) for r in got] == [
        (vec, h2) for vec, h2, _c in expected
    ]
    for rec, (_vec, _h2, c) in zip(got, expected):
        assert oracle.bracket_holds(c, rec.psi_lo, rec.psi_hi)


def random_fraction(seed):
    rng = random.Random(seed)
    q = rng.randint(1, 10**8)
    return Fraction(rng.randint(-3 * q, 3 * q), q)


NONSQUARES = [d for d in range(2, 40) if isqrt(d) ** 2 != d]


# a small fraction meets a line of the window; a large one rarely does
TARGETS = {
    "small-rational": st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)).map(
        est.RationalLineTarget
    ),
    "rational": st.integers(0, 2**32).map(random_fraction).map(est.RationalLineTarget),
    "quadratic": st.builds(
        est.QuadraticLineTarget,
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 9)),
        st.sampled_from(NONSQUARES),
    ),
}


@pytest.mark.parametrize("kind", list(TARGETS))
@pytest.mark.parametrize("n, most", [(2, 2000), (3, 300), (4, 60), (5, 12)])
@SETTINGS
@given(data=st.data())
def test_engine_matches_brute_force(kind, n, most, data):
    target = data.draw(TARGETS[kind], label="target")
    hmax2 = data.draw(st.integers(10, most), label="hmax2")
    axes = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))), label="axes")
    check_engine(target, n, axes, hmax2)


# ---------------------------------------------------------------------------
# brackets only for the records


@pytest.fixture
def bracket_calls(monkeypatch):
    """Integer brackets taken by either cross engine while a test runs."""
    calls = {"brackets": 0}
    square, surd = est._square_bracket, est._QuadraticCross._bracket

    def counted_square(lo, hi):
        calls["brackets"] += 1
        return square(lo, hi)

    def counted_surd(self, m, n):
        calls["brackets"] += 1
        return surd(self, m, n)

    monkeypatch.setattr(est, "_square_bracket", counted_square)
    monkeypatch.setattr(est._QuadraticCross, "_bracket", counted_surd)
    return calls


@pytest.mark.parametrize(
    "target",
    [
        est.golden_line_target(),
        est.RationalLineTarget(Fraction(-314159265359, 100000000000)),
        est.RationalLineTarget(Fraction(141421356237, 100000000000), Fraction(1, 10**30)),
    ],
    ids=["quadratic", "rational", "tail-bracketed"],
)
@pytest.mark.parametrize("n, axes", [(2, (0, 1)), (3, (1, 2))])
def test_line_engine_brackets_only_its_records(bracket_calls, target, n, axes):
    est._cross_engine(target)
    setup = bracket_calls["brackets"]
    bracket_calls["brackets"] = 0
    records = est.scan_embedded_line_records(target, n, 20_000, axes=axes)
    assert len(records) >= 5
    # the engine's own set-up brackets, then one per record
    assert bracket_calls["brackets"] - setup <= len(records)


def test_wide_bracket_in_three_space_keeps_the_plane_records(monkeypatch):
    """Even a slope bracket far wider than the width gate allows, [1/4, 1/2],
    leaves no room for an off-plane record: the R^3 scan returns the plane
    records, embedded.  The record (1, 0, 0) has an upper sine bound of
    about 0.49 up to the next record at squared height 5.  Height alone
    bounds the sine of an off-plane vector there only by 1 / sqrt(5), which
    is smaller; the projection bounds it by the sine of a lower plane
    vector."""
    monkeypatch.setattr(est, "_check_bracket_width", lambda engine, hmax2: None)
    target = est.RationalLineTarget(Fraction(1, 4), Fraction(1, 4))
    plane = est.scan_line_records(target, 20)
    assert [(r.height_squared, r.subspace.pluecker.coords) for r in plane] == [
        (1, (1, 0)), (5, (2, 1)), (10, (3, 1)),
    ]
    embedded = est.scan_embedded_line_records(target, 3, 20)
    assert [(r.height_squared, r.subspace.pluecker.coords) for r in embedded] == [
        (1, (1, 0, 0)), (5, (2, 1, 0)), (10, (3, 1, 0)),
    ]
    assert [(r.psi_lo, r.psi_hi) for r in embedded] == [(r.psi_lo, r.psi_hi) for r in plane]


def test_exact_tie_goes_to_the_first_coords():
    """(1, 2) and (2, -1) mirror each other across the line of slope 1/3:
    one height, one exact cross term.  The sweep keeps the first coords.

    A complete scan of a rational slope meets no such tie at a record (none
    for any slope p/q with p, q < 45 below its meeting height), so the
    rule is checked on the engine's sweep directly.
    """
    engine = est._cross_engine(est.RationalLineTarget(Fraction(1, 3)))
    tied = [(5, vec, engine.key(*vec)) for vec in ((1, 2), (2, -1))]
    assert tied[0][2] == tied[1][2] == 25
    assert est._sweep_pool(tied, engine.less) == [tied[0]]


# ---------------------------------------------------------------------------
# the pool swept before the shell search, as an oracle


def reference_primitive_vectors(n, max_norm_sq):
    """The recursive walk of enumeration.primitive_vectors before its last
    coordinate became a range loop: one generator frame per coordinate."""

    def boxed(k, budget, zero_so_far):
        if k == 0:
            yield (), 0, zero_so_far
            return
        top = isqrt(budget)
        for v in range(0 if zero_so_far else -top, top + 1):
            for tail, tail_sq, tail_zero in boxed(k - 1, budget - v * v, zero_so_far and v == 0):
                yield (v,) + tail, v * v + tail_sq, tail_zero

    for lead in range(isqrt(max_norm_sq) + 1):
        rem = max_norm_sq - lead * lead
        for tail, tail_sq, all_zero in boxed(n - 1, rem, lead == 0):
            vec = (lead,) + tail
            if not (all_zero and lead == 0) and gcd(*vec) == 1:
                yield vec, lead * lead + tail_sq


def reference_candidates(engine, hmax2, skip_below):
    """(h2, x1, x2) rounding candidates from a generator, one row at a time."""
    step, den = engine.p_lo + engine.p_hi, 2 * engine.q
    for x1 in range(1, isqrt(hmax2) + 1):
        xhat, rem = divmod(x1 * step, den)
        if 2 * rem > den or (2 * rem == den and xhat & 1):
            xhat += 1
        for x2 in range(xhat - 2, xhat + 3):
            h2 = x1 * x1 + x2 * x2
            if skip_below < h2 <= hmax2 and gcd(x1, x2) == 1:
                yield h2, x1, x2


def reference_pool(engine, hmax2, zone, n, axes):
    """The unsorted pool, built with a per-row engine.key, a per-row zero
    test and a per-row embedding, or ("meets", vector)."""
    i0, i1 = axes

    def embed(x1, x2):
        vec = [0] * n
        vec[i0], vec[i1] = x1, x2
        return tuple(vec)

    plane = [(h2, vec[0], vec[1]) for vec, h2 in reference_primitive_vectors(2, zone)]
    plane.extend(reference_candidates(engine, hmax2, zone))
    pool = []
    for h2, x1, x2 in plane:
        key = engine.key(x1, x2)
        if (key if isinstance(key, int) else key[0]) == 0:
            return ("meets", embed(x1, x2))
        pool.append((h2, embed(x1, x2), key))
    return pool


POOL_TARGETS = {
    "exact-rational": TARGETS["small-rational"] | TARGETS["rational"],
    "tail-bracketed": st.builds(
        est.RationalLineTarget,
        st.integers(0, 2**32).map(random_fraction),
        st.integers(1, 10**6).map(lambda k: Fraction(k, 10**12)),
    ),
    "quadratic": TARGETS["quadratic"],
}


def counts_of(message):
    """The counts of a scan_lines: DEBUG line, by name."""
    return {k: int(v) for k, v in (f.split("=") for f in message.split(": ")[1].split())}


class ScanLinesLog(logging.Handler):
    """The counts of the last scan_lines: DEBUG line on the subdioph logger
    while the block runs (caplog is not reset between hypothesis examples)."""

    def __enter__(self):
        self.counts = None
        self.logger = logging.getLogger("subdioph")
        self.level = self.logger.level
        self.logger.addHandler(self)
        self.logger.setLevel(logging.DEBUG)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        self.logger.setLevel(self.level)

    def emit(self, record):
        if record.getMessage().startswith("scan_lines:"):
            self.counts = counts_of(record.getMessage())


@pytest.mark.parametrize("kind", list(POOL_TARGETS))
@pytest.mark.parametrize("n, most", [(2, 3000), (3, 200), (4, 40)])
@SETTINGS
@given(data=st.data())
def test_batch_pool_matches_the_per_row_builder(kind, n, most, data):
    """An irrationality scan meets the target where the per-row builder's
    pool does, with the zone below the height bound, and so do the plane
    and embedded record scans, the latter at the embedded vector.  Each
    counts the rows its walk keyed, up to and including a meeting vector:
    the two height-1 rows plus the nodes and probes of the walk's DEBUG
    line."""
    target = data.draw(POOL_TARGETS[kind], label="target")
    hmax2 = data.draw(st.integers(2, most), label="hmax2")
    zone = data.draw(st.integers(1, hmax2 - 1), label="zone")
    axes = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))), label="axes")
    engine = est._cross_engine(target, hmax2)
    expected = reference_pool(engine, hmax2, zone, n, axes)
    with ScanLinesLog() as log:
        report = est.irrationality_scan(target, EnumSpec(2, 1, hmax2))
    assert report.scanned == 2 + log.counts["nodes"] + log.counts["probes"]
    if isinstance(expected, tuple):
        assert reference_pool(engine, hmax2, zone, 2, (0, 1)) == (
            "meets", report.offender.pluecker.coords
        )
        with pytest.raises(IrrationalityViolationError) as plane:
            est.scan_line_records(target, hmax2)
        assert (plane.value.vector, plane.value.scanned) == (
            report.offender.pluecker.coords, report.scanned
        )
        with pytest.raises(IrrationalityViolationError) as embedded:
            est.scan_embedded_line_records(target, n, hmax2, axes=axes)
        assert expected == ("meets", embedded.value.vector)
        assert embedded.value.scanned == report.scanned
        assert embedded.value.subspace.pluecker.coords == embedded.value.vector
        return
    assert report.offender is None


MARGIN2 = Fraction(12, 5) ** 2


def reference_certified(engine, raw, hmax2, zone):
    """The per-record certificate that guarded the old pool: a vector
    outside it, up to the next record's height (the window), has a sine
    of at least 12/5 / (sqrt(window) |u|), which the record must beat.
    Where it failed, the old engine refused the scan."""
    # the scale of the engine's squared cross terms: q^2, over 2^bits for
    # a quadratic slope
    scale = engine.q * engine.q >> getattr(engine, "bits", 0)
    for idx, (h2, vec, _key) in enumerate(raw):
        window = raw[idx + 1][0] if idx + 1 < len(raw) else hmax2
        hi2 = engine.bracket(*vec)[1]
        if window > zone and (
            hi2 * window * engine.u2_hi * MARGIN2.denominator
            > MARGIN2.numerator * h2 * engine.u2_lo * scale
        ):
            return False
    return True


def reference_records(target, hmax2, zone):
    """The old engine: the per-row builder's pool, swept by the engine's
    sweep and bracketed by its brackets, as (coords, h2, psi_lo hex,
    psi_hi hex) rows; ("meets", vector) at a meeting; None where
    its certificate refused the scan."""
    engine = est._cross_engine(target, hmax2)
    pool = reference_pool(engine, hmax2, zone, 2, (0, 1))
    if isinstance(pool, tuple):
        return pool
    # (h2, vector) is unique per row, so the sort never compares keys
    raw = est._sweep_pool(sorted(pool), engine.less)
    if not reference_certified(engine, raw, hmax2, zone):
        return None
    out = []
    for h2, vec, _key in raw:
        lo2, hi2 = engine.bracket(*vec)
        lo, hi = sqrt_of(Fraction(lo2, h2 * engine.u2_hi), Fraction(hi2, h2 * engine.u2_lo))
        out.append((vec, h2, lo.hex(), hi.hex()))
    return out


@pytest.mark.parametrize("kind", list(POOL_TARGETS))
@SETTINGS
@given(data=st.data())
def test_shell_search_matches_the_old_pool(kind, data):
    """Wherever the old engine certified its pool, the line walk returns
    its records: same coords, heights and sine brackets to the last bit,
    and the same meeting vector."""
    target = data.draw(POOL_TARGETS[kind], label="target")
    hmax2 = data.draw(st.integers(10, 10**6), label="hmax2")
    zone = data.draw(st.integers(1, min(hmax2 - 1, 5_000)), label="zone")
    expected = reference_records(target, hmax2, zone)
    assume(expected is not None)
    try:
        records = est.scan_line_records(target, hmax2)
    except IrrationalityViolationError as err:
        assert expected == ("meets", err.vector)
        return
    assert [
        (r.subspace.pluecker.coords, r.height_squared, r.psi_lo.hex(), r.psi_hi.hex())
        for r in records
    ] == expected


# ---------------------------------------------------------------------------
# the shell walk that the Stern-Brocot walk replaced, as an oracle


def shell_radius(engine, record, top):
    """An integer D with |x1 p_lo - x2 q| <= D for every x with |x|^2 <= top
    whose row beats the record row under engine.less: the slab a shell
    lists."""
    h2, _vec, key = record
    if isinstance(engine, est._RationalCross):
        # (x1 p_lo - x2 q)^2 <= key(x) < key_r |x|^2 / h2_r <= key_r top / h2_r
        return isqrt(key * top // h2)
    # hi_r / 2^bits, the upper end of _bracket(m, n), bounds the record's
    # key from above.  2^bits den (x1 slope - x2) squares to
    # key(x) 2^(2 bits) < 2^bits hi_r top / h2_r, and x1 p_lo - x2 q
    # differs from it by x1 b (root - 2^bits sqrt(d)) or
    # x1 b (root + 1 - 2^bits sqrt(d)), less than isqrt(top) |b| in size
    m, n = key
    hi = (m << engine.bits) + n * engine.root + max(n, 0)
    return isqrt((hi * top << engine.bits) // h2) + 1 + isqrt(top) * abs(engine.b)


def gauss_reduced(u, v, dd, xx):
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


def shell_vectors(engine, record, lo, top, basis):
    """Primitive plane vectors (x1, x2), x1 >= 1 and lo < x1^2 + x2^2 <= top,
    among them every one whose row beats the record row (Fincke-Pohst).

    Such a vector has x1 <= X = isqrt(top) and |y| <= D for
    y = x1 p_lo - x2 q and D = shell_radius(engine, record, top), so its
    point (x1, x2, y) of the lattice Z (1, 0, p_lo) + Z (0, 1, -q) lies in
    the ellipse D^2 x1^2 + X^2 y^2 <= 2 D^2 X^2.  The walk lists that
    ellipse on a basis reduced under this form and covers each pair +-w
    once.  Returns the vectors and the reduced basis, for the next shell.
    """
    radius, width = shell_radius(engine, record, top), isqrt(top)
    u, v, g11, g12, g22 = gauss_reduced(*basis, radius * radius, width * width)
    (u1, u2, uy), (v1, v2, vy) = u, v
    det = g11 * g22 - g12 * g12
    # g11 F(c1 u + c2 v) = (g11 c1 + g12 c2)^2 + det c2^2 <= g11 2 D^2 X^2
    bound = 2 * radius * radius * width * width * g11
    vecs = []
    for c2 in range(isqrt(bound // det) + 1):
        reach = isqrt(bound - det * c2 * c2)
        centre = -g12 * c2
        first = -((reach - centre) // g11) if c2 else 1
        last = (centre + reach) // g11
        if not c2:
            # c1 u is primitive only for c1 = 1
            last = min(last, 1)
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
    return vecs, (u, v)


def shell_rows(engine, vecs):
    """The sorted (h2, vector, key) rows of vecs, or the vector that meets."""
    rows = []
    for x1, x2 in vecs:
        key = engine.key(x1, x2)
        if key == engine.zero:
            return (x1, x2)
        rows.append((x1 * x1 + x2 * x2, (x1, x2), key))
    return sorted(rows)


def shell_scan(target, n, axes, hmax2):
    """The shell walk: from the height-1 rows, every dyadic shell
    (h, min(2h, hmax2)] lists the vectors that can beat the running record,
    and the sweep goes on from it.  Returns the records as (coords, h2,
    psi_lo hex, psi_hi hex) rows, ("meets", vector) or
    ("ParameterError", message)."""
    place = est._placing(n, axes)
    try:
        engine = est._cross_engine(target, hmax2)
        est._check_bracket_width(engine, hmax2)
    except ParameterError as err:
        return ("ParameterError", str(err))
    rows = shell_rows(engine, [(0, 1), (1, 0)])
    if isinstance(rows, tuple):
        return ("meets", place(rows))
    raw = est._sweep_pool(rows, engine.less)
    basis = ((1, 0, engine.p_lo), (0, 1, -engine.q))
    lo = 1
    while lo < hmax2:
        top = min(2 * lo, hmax2)
        vecs, basis = shell_vectors(engine, raw[-1], lo, top, basis)
        rows = shell_rows(engine, vecs)
        if isinstance(rows, tuple):
            return ("meets", place(rows))
        raw += est._sweep_pool([raw[-1], *rows], engine.less)[1:]
        lo = top
    out = []
    for h2, vec, _key in raw:
        lo2, hi2 = engine.bracket(*vec)
        psi_lo, psi_hi = _sqrt_interval((lo2, h2 * engine.u2_hi, hi2, h2 * engine.u2_lo))
        out.append((place(vec), h2, psi_lo.hex(), psi_hi.hex()))
    return out


def walk_scan(target, n, axes, hmax2):
    """The engine's outcome in the shape of shell_scan's."""
    try:
        got = scan_outcome(target, n, axes, hmax2)
    except ParameterError as err:
        return ("ParameterError", str(err))
    if isinstance(got, tuple):
        return got
    return [
        (r.subspace.pluecker.coords, r.height_squared, r.psi_lo.hex(), r.psi_hi.hex())
        for r in got
    ]


def steep_quadratic(draw):
    """(a + b sqrt(d)), b of either sign, a up to 200 in size: steep slopes."""
    return est.QuadraticLineTarget(
        Fraction(draw(st.integers(-200, 200)), draw(st.integers(1, 9))),
        Fraction(draw(st.integers(1, 9) | st.integers(-9, -1)), draw(st.integers(1, 9))),
        draw(st.sampled_from([d for d in range(2, 102) if isqrt(d) ** 2 != d])),
    )


def meeting_rational(draw, hmax2):
    """An exact slope x2 / x1 with x1^2 + x2^2 <= hmax2: steep, negative or
    flat, it meets a line of the window."""
    r = isqrt(hmax2)
    x1 = draw(st.integers(1, r))
    x2 = draw(st.integers(-isqrt(hmax2 - x1 * x1), isqrt(hmax2 - x1 * x1)))
    return est.RationalLineTarget(Fraction(x2, x1))


def bracketed(draw, hmax2):
    """A slope bracket up to the width allowance 1 / (10 X),
    X = isqrt(hmax2) + 1, or just past it; often it holds a fraction of
    height <= H."""
    width = Fraction(
        draw(st.integers(1, 1000) | st.integers(990, 1010)), 10_000 * (isqrt(hmax2) + 1)
    )
    if draw(st.booleans()):
        r = isqrt(hmax2)
        x1 = draw(st.integers(1, r))
        x2 = draw(st.integers(-isqrt(hmax2 - x1 * x1), isqrt(hmax2 - x1 * x1)))
        low = Fraction(x2, x1) - width * Fraction(draw(st.integers(0, 100)), 100)
    else:
        low = random_fraction(draw(st.integers(0, 2**32)))
    return est.RationalLineTarget(low, width)


WALK_FAMILIES = {
    "steep-quadratic": (lambda draw, hmax2: steep_quadratic(draw), 10**9),
    "meeting-rational": (meeting_rational, 10**6),
    "bracketed": (bracketed, 10**6),
}


@pytest.mark.parametrize("family", list(WALK_FAMILIES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_stern_brocot_walk_matches_the_shell_walk(family, n, data):
    """The walk of _scan_lines gives the shell walk's records, bit for bit,
    its meeting vector and its refusal of a bracket too wide, in the plane
    and on two coordinate axes of R^3 to R^5."""
    make, most = WALK_FAMILIES[family]
    hmax2 = data.draw(st.integers(1, most), label="hmax2")
    target = make(data.draw, hmax2)
    axes = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))), label="axes")
    assert walk_scan(target, n, axes, hmax2) == shell_scan(target, n, axes, hmax2)


@pytest.mark.parametrize("n, hmax2", [(1, 9), (2, 1), (2, 2), (2, 500), (3, 60), (4, 20), (5, 9)])
def test_primitive_vectors_keep_the_recursive_order(n, hmax2):
    assert list(primitive_vectors(n, hmax2)) == list(reference_primitive_vectors(n, hmax2))


# ---------------------------------------------------------------------------
# no row above the height bound


@pytest.mark.parametrize(
    "target", [est.golden_line_target(), est.RationalLineTarget(Fraction(1, 3))],
    ids=["quadratic", "rational"],
)
@pytest.mark.parametrize("n", [2, 3])
def test_no_pool_row_above_a_unit_height_bound(target, n):
    """With H^2 <= 1 only the coordinate axes qualify, and the line scan
    keys those two rows alone."""
    records = est.scan_embedded_line_records(target, n, 1)
    assert records and all(r.height_squared == 1 for r in records)
    report = est.irrationality_scan(target, EnumSpec(2, 1, 1))
    generic = est.irrationality_scan([[1], [5]], EnumSpec(2, 1, 1))
    assert report.scanned == generic.scanned == 2
    assert report.witness.pluecker.coords in ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# scan counts in the log


def line_scan_counts(caplog):
    """The counts of the last line scan's DEBUG line."""
    return counts_of([
        r.getMessage() for r in caplog.records
        if r.name == "subdioph" and r.getMessage().startswith("scan_lines:")
    ][-1])


def test_line_scan_logs_its_pool(caplog):
    caplog.set_level(logging.DEBUG, logger="subdioph")
    target = est.golden_line_target()
    report = est.irrationality_scan(target, EnumSpec(2, 1, 10**5))
    counts = line_scan_counts(caplog)
    assert list(counts) == ["runs", "nodes", "probes", "records"]
    # every partial quotient of the golden ratio is 1: each run is one
    # node, and each node a record after the height-1 record (0, 1)
    assert counts["runs"] == counts["nodes"] == counts["records"] - 1 == 12
    assert counts["probes"] == 0
    assert report.scanned == 2 + counts["nodes"] + counts["probes"]
    records = est.scan_embedded_line_records(target, 3, 10**5)
    assert line_scan_counts(caplog) == counts | {"records": len(records)}


def test_golden_irrationality_scan_counts_the_rows_it_keyed(caplog):
    """At H^2 <= 10^12 the golden line's scan keys the two height-1 rows
    and a few dozen nodes, and counts just those; a recount of the
    rounding-window pool gave 1,607,411 here, in seconds."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    report = est.irrationality_scan(est.golden_line_target(), EnumSpec(2, 1, 10**12))
    assert report.ok
    counts = line_scan_counts(caplog)
    assert report.scanned == 2 + counts["nodes"] + counts["probes"]
    assert report.scanned < 100


def test_ignored_zone_keywords_change_nothing():
    """The zone keywords that the benchmark still passes are ignored: each
    call gives the report it gives without them."""
    target = est.QuadraticLineTarget(Fraction(5, 7), Fraction(2, 9), 13)
    h2 = 10**5
    assert est.scan_line_records(target, h2, zone=2_000) == est.scan_line_records(target, h2)
    spec = EnumSpec(2, 1, h2, EXACT_LINES)
    assert est.irrationality_scan(target, spec, zone=2_000) == est.irrationality_scan(
        target, spec
    )
    params = con.ConstructionParams.create(1, Fraction(3), seed=0)
    assert est.exclusivity_check(params, 4, spec, zone=2_000) == est.exclusivity_check(
        params, 4, spec
    )
    f_sub = exact.RationalSubspace.from_basis(((1, 0), (0, 1), (0, 0)))
    proj = mor.RationalMap.from_rows(((1, 0, 0), (0, 1, 0)))
    zoned = mor.embedding_harness(target, f_sub, proj, h2, zone=1_000, ambient_zone=100)
    assert zoned == mor.embedding_harness(target, f_sub, proj, h2)


def fibonacci_pairs(hmax2):
    a, b, out = 0, 1, []
    while a * a + b * b <= hmax2:
        out.append((a, b))
        a, b = b, a + b
    return out


@pytest.mark.parametrize("hmax2", [10**12, 10**40], ids=["1e12", "1e40"])
def test_golden_line_walk_stays_logarithmic(caplog, hmax2):
    """The golden line's records are consecutive Fibonacci pairs (its
    convergents), and the walk keys those alone, one node per partial
    quotient and no probe: counts, not wall time."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    records = est.scan_line_records(est.golden_line_target(), hmax2)
    assert [r.subspace.pluecker.coords for r in records] == fibonacci_pairs(hmax2)
    assert len(records) == {10**12: 30, 10**40: 97}[hmax2]
    assert all(r.psi_lo > 0 for r in records)
    assert all(a.psi_hi > b.psi_hi for a, b in zip(records, records[1:]))
    counts = line_scan_counts(caplog)
    assert (counts["nodes"], counts["probes"]) == (len(records) - 1, 0)


def record_digest(records):
    """sha256 of the records as lines "coords h2 psi_lo psi_hi", the sines
    as float hex."""
    text = "".join(
        f"{r.subspace.pluecker.coords} {r.height_squared} {r.psi_lo.hex()} {r.psi_hi.hex()}\n"
        for r in records
    )
    return hashlib.sha256(text.encode()).hexdigest()


# digests of the records as the shell walk gave them when it still listed
# the whole c2 = 0 row of each shell
ROW_CLIP_RECORDS = {
    "instance-1e24": (45, "a0afafad62dadea99f2b747acd8b52b96c79e41e5e59d2f29534b2b2eceb9801"),
    "golden-1e12": (30, "fadd5989b19fe32538819507dc4800dba90570e49bf0e5806b362a5b468dae4a"),
}


@pytest.mark.parametrize("case", list(ROW_CLIP_RECORDS))
def test_shell_walk_lists_only_primitive_rows(caplog, case):
    """The l=1 beta=3 seed-0 instance line has a huge partial quotient, so
    the c2 = 0 row of a shell held the multiples of its last convergent:
    listing them took the shell walk 1,914,875 nodes at H^2 <= 10^24, and
    under 200,000 once it kept c1 = 1 alone.  The Stern-Brocot walk keys
    a primitive vector per node and crosses that run with a few probes.
    The records stay the same."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    if case == "instance-1e24":
        params = con.ConstructionParams.create(1, Fraction(3), seed=0)
        target = est.line_target_for_instance(params, height_squared_max=10**24)
        records = est.scan_line_records(target, 10**24)
        counts = line_scan_counts(caplog)
        assert 2 + counts["nodes"] + counts["probes"] < 100
    else:
        records = est.scan_line_records(est.golden_line_target(), 10**12)
    assert (len(records), record_digest(records)) == ROW_CLIP_RECORDS[case]


def test_golden_line_keys_few_rows(monkeypatch):
    """The walk keys only the two height-1 rows and the golden line's
    convergents, each a record: a census of the plane vectors up to
    squared height 10,000 would key 9,544."""
    keyed = []
    real = est._keyed

    def counted(engine, x1, x2, *rest):
        keyed.append((x1, x2))
        return real(engine, x1, x2, *rest)

    monkeypatch.setattr(est, "_keyed", counted)
    records = est.scan_line_records(est.golden_line_target(), 10**6)
    assert [r.subspace.pluecker.coords for r in records] == fibonacci_pairs(10**6)
    assert sorted(keyed) == sorted([(1, 0), *fibonacci_pairs(10**6)])


# A run of one partial quotient costs a few keyed rows, however long: a
# walk that keyed each member would key about 10^8 rows on the first line
# (a 10-digit partial quotient follows its convergent (81, 56)) and about
# 3 * 10^5 on the second, whose run (t, 1) cannot beat (1, 0) below
# t ~ 5 * 10^5.
LONG_QUOTIENTS = {
    "unbounded-1e20": (
        lambda: est.line_target_for_instance(
            con.ConstructionParams.create(1, None, seed=0, variant=con.INFINITE),
            height_squared_max=10**20,
        ),
        10**20,
        100,
    ),
    "flat-1e11": (
        lambda: est.RationalLineTarget(Fraction(1, 10**6) + Fraction(1, 10**40)), 10**11, 20
    ),
}


@pytest.mark.parametrize("case", list(LONG_QUOTIENTS))
def test_long_partial_quotients_key_few_rows(case):
    make, hmax2, most = LONG_QUOTIENTS[case]
    engine, raw, keyed = est._scan_lines(make(), hmax2)
    records = est._line_records(engine, raw)
    # the last record's exact lower sine end is positive
    assert engine.bracket(*raw[-1][1])[0] > 0 and keyed < most
    if case == "unbounded-1e20":
        assert (len(records), record_digest(records)) == (
            11, "17902406c3a1bd997859c003fbd96f5e8f4a2c899cb0a92ff2efb927017933bd"
        )
    else:
        assert [r.subspace.pluecker.coords for r in records] == [(1, 0)]


# records built from their vectors: one line constructor, no from_basis

VECTOR_TARGETS = {
    "golden": (est.golden_line_target, 10**40),
    "quadratic": (lambda: est.QuadraticLineTarget(Fraction(1, 3), Fraction(2, 5), 7), 10**12),
    "instance": (
        lambda: est.line_target_for_instance(
            con.ConstructionParams.create(1, Fraction(3), seed=0), height_squared_max=10**12
        ),
        10**12,
    ),
    "rational": (lambda: est.RationalLineTarget(Fraction(1414213, 1000003)), 10**10),
}
PLACEMENTS = [(2, (0, 1)), (3, (0, 1)), (3, (0, 2)), (3, (1, 2)), (5, (0, 4)), (5, (1, 3))]


def assert_line_of_its_column(sub, vec):
    """sub is the line through vec, label and basis, as from_basis gives it."""
    reference = exact.RationalSubspace.from_basis([[c] for c in vec])
    assert sub.pluecker == reference.pluecker
    assert sub.pluecker.coords == tuple(vec)
    assert sub.basis == reference.basis


@pytest.mark.parametrize("kind", list(VECTOR_TARGETS))
@pytest.mark.parametrize("n, axes", PLACEMENTS)
def test_line_records_are_the_lines_of_their_vectors(kind, n, axes):
    make, hmax2 = VECTOR_TARGETS[kind]
    records = est.scan_embedded_line_records(make(), n, hmax2, axes=axes)
    assert len(records) > 3
    for rec in records:
        assert rec.subspace.n == n
        assert_line_of_its_column(rec.subspace, rec.subspace.pluecker.coords)


@pytest.mark.parametrize("n, axes", PLACEMENTS)
def test_a_meeting_line_is_the_line_of_its_vector(n, axes):
    with pytest.raises(IrrationalityViolationError) as info:
        est.scan_embedded_line_records(est.RationalLineTarget(Fraction(3, 5)), n, 100, axes=axes)
    err = info.value
    expected = [0] * n
    expected[axes[0]], expected[axes[1]] = 5, 3
    assert err.vector == tuple(expected)
    assert_line_of_its_column(err.subspace, err.vector)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_enumerated_lines_are_the_lines_of_their_vectors(n):
    lines = list(enumerate_subspaces(EnumSpec(n, 1, 12)))
    assert lines
    for sub in lines:
        assert_line_of_its_column(sub, sub.pluecker.coords)


def sqrt_of(lo, hi):
    """_sqrt_interval of the reduced Fractions lo <= hi."""
    return _sqrt_interval((lo.numerator, lo.denominator, hi.numerator, hi.denominator))


def old_sqrt_interval(lo, hi):
    """The bracket before sines below the double range were scaled."""
    f_lo = math.sqrt(max(0.0, math.nextafter(float(lo), 0.0)))
    f_hi = math.sqrt(math.nextafter(float(hi), math.inf))
    return max(0.0, math.nextafter(f_lo, 0.0)), math.nextafter(f_hi, math.inf)


def test_sqrt_interval_keeps_its_bits_in_the_normal_range():
    rng = random.Random(20)
    for _ in range(2000):
        lo = Fraction(rng.getrandbits(rng.randint(1, 200)) + 1,
                      rng.getrandbits(rng.randint(1, 1200)) + 1)
        lo = max(lo, Fraction(1, 1 << 1022))
        hi = lo * Fraction(rng.randint(1000, 1010), 1000)
        got = sqrt_of(lo, hi)
        assert [x.hex() for x in got] == [x.hex() for x in old_sqrt_interval(lo, hi)]


@pytest.mark.parametrize("power", [1023, 1500, 2000, 2100])
def test_sqrt_interval_below_the_double_range_holds_the_root(power):
    """A squared sine below 2^-1022 keeps a tight, outward bracket."""
    x = Fraction(3, 1 << power)
    lo, hi = sqrt_of(x, x)
    assert 0.0 < lo < hi
    # lo^2 <= x <= hi^2, exactly
    assert Fraction(lo) ** 2 <= x <= Fraction(hi) ** 2
    if power <= 2000:  # a normal root: a few ulps wide
        assert hi - lo <= 4 * math.ulp(lo)


def test_sqrt_interval_reads_the_value_of_each_end():
    """An interval and the same interval with each end's numerator and
    denominator multiplied by a common factor up to 2^64 give the same
    doubles, in the double range and below 2^-1022."""
    rng = random.Random(33)
    tiny = 0
    for _ in range(2000):
        lo = Fraction(rng.getrandbits(rng.randint(1, 200)),
                      rng.getrandbits(rng.randint(1, 3000)) + 1)
        hi = lo * Fraction(rng.randint(1000, 1010), 1000)
        g, h = rng.randint(1, 1 << 64), rng.randint(1, 1 << 64)
        got = _sqrt_interval((lo.numerator * g, lo.denominator * g,
                              hi.numerator * h, hi.denominator * h))
        assert [x.hex() for x in got] == [x.hex() for x in sqrt_of(lo, hi)]
        tiny += 0 < lo < Fraction(1, 1 << 1022)
    assert tiny > 500


def scaled_sqrt_interval(interval):
    """The bracket of _sqrt_interval as it was before normal ends took the
    plain root: every end runs through the 4^k scaling, k = 0 for a normal
    end."""
    num_lo, den_lo, num_hi, den_hi = interval
    ends = []
    for num, den, toward in ((num_lo, den_lo, 0.0), (num_hi, den_hi, math.inf)):
        f, k = num / den, 0
        if f < sys.float_info.min and num:
            k = (den.bit_length() - num.bit_length()) // 2
            f = (num << 2 * k) / den
        root = math.sqrt(max(0.0, math.nextafter(f, toward)))
        ends.append(max(0.0, math.nextafter(math.ldexp(root, -k), toward)))
    return tuple(ends)


def per_row_records(target, n, axes, hmax2):
    """The records of a line scan built row by row from the walk's rows:
    engine.bracket, the scaled root, and the line of the placed vector.
    Returns them as (coords, n, h2, psi_lo hex, psi_hi hex, j_index,
    source) and the number of rows with an end below 2^-1022."""
    engine, raw, _keyed, place = est._line_scan(target, EnumSpec(n, 1, hmax2), axes=axes)
    out, tiny = [], 0
    for h2, vec, _key in raw:
        lo2, hi2 = engine.bracket(*vec)
        ends = (lo2, h2 * engine.u2_hi, hi2, h2 * engine.u2_lo)
        psi_lo, psi_hi = scaled_sqrt_interval(ends)
        sub = exact.RationalSubspace._line(place(vec))
        out.append((sub.pluecker.coords, sub.n, h2, psi_lo.hex(), psi_hi.hex(), 1, "enumerated"))
        tiny += 0 < lo2 and lo2 / ends[1] < sys.float_info.min
    return out, tiny


def built_rows(records):
    return [
        (r.subspace.pluecker.coords, r.subspace.n, r.height_squared, r.psi_lo.hex(),
         r.psi_hi.hex(), r.j_index, r.source)
        for r in records
    ]


BUILDER_CASES = {
    **{f"{kind}-r{n}-{axes[0]}{axes[1]}": (make, n, axes, hmax2)
       for kind, (make, hmax2) in VECTOR_TARGETS.items()
       for n, axes in [*PLACEMENTS[1:], (4, (0, 3)), (4, (1, 2))]},
    "rational-half": (
        lambda: est.RationalLineTarget(Fraction(1, 2) - Fraction(1, 10**12), Fraction(2, 10**12)),
        2, (0, 1), 10**5,
    ),
    "golden-1e300": (est.golden_line_target, 2, (0, 1), 10**300),
    "golden-1e400": (est.golden_line_target, 2, (0, 1), 10**400),
}


@pytest.mark.parametrize("case", list(BUILDER_CASES))
def test_record_builder_matches_the_per_row_path(case):
    """The one-loop record builder gives, record for record, what the rows
    give one at a time through the scaled root, which every end took
    before normal ends took the plain root: same line, height and sine
    doubles.  On the golden line the squared sines of 351 records fall
    below 2^-1022 by 10^300 and of 590 by 10^400, where 185 roots lie
    below the double range too: those take the scaled root."""
    make, n, axes, hmax2 = BUILDER_CASES[case]
    expected, tiny = per_row_records(make(), n, axes, hmax2)
    assert built_rows(est.scan_embedded_line_records(make(), n, hmax2, axes=axes)) == expected
    if axes == (0, 1):
        assert built_rows(est.scan_records(make(), EnumSpec(n, 1, hmax2))) == expected
    if n == 2:
        assert built_rows(est.scan_line_records(make(), hmax2)) == expected
    # rational-half's last record has a true 0.0 lower end
    zero_lo = sum(row[3] == "0x0.0p+0" for row in expected)
    assert (tiny, zero_lo) == {
        "golden-1e300": (351, 0), "golden-1e400": (590, 185), "rational-half": (0, 1)
    }.get(case, (0, 0))


def test_golden_line_irrationality_holds_below_the_double_range():
    """At H^2 <= 10^400 the last record's sine lies below the double range,
    so its double lower end reads 0.0; the scan takes its verdict from the
    exact lower end, which is positive."""
    report = est.irrationality_scan(est.golden_line_target(), EnumSpec(2, 1, 10**400))
    assert report.ok and report.offender is None and report.witness is not None


def test_golden_line_sines_hold_through_the_double_range():
    """At H^2 <= 10^300 the squared sines go far below 2^-1022, yet every
    record keeps a positive lower end, the list stays a record list, and
    the per-record exponent stays at the golden line's 2."""
    records = est.scan_line_records(est.golden_line_target(), 10**300)
    assert (len(records), record_digest(records)) == (
        719, "a03aeee372e5b72d3de6ebebba033f901acaa36052b738e5c17f6f2cc22f1826"
    )
    assert all(rec.psi_lo > 0.0 for rec in records)
    est.validate_record_list(records)
    assert est.estimate_exponent(records).per_record[-1] == pytest.approx(2.0, abs=0.01)
