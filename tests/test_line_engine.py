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
and meets the target at the same vector.  The `scanned` count of a line
irrationality scan is the rows the walk keyed, checked against the walk's
DEBUG counts.
"""

import hashlib
import itertools
import logging
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from subdioph import construction as con
from subdioph import estimation as est
from subdioph import exact
from subdioph import morphisms as mor
from subdioph.enumeration import EXACT_LINES, EnumSpec, primitive_vectors
from subdioph.errors import IrrationalityViolationError

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
    the two height-1 rows plus the shell rows of the walk's DEBUG line."""
    target = data.draw(POOL_TARGETS[kind], label="target")
    hmax2 = data.draw(st.integers(2, most), label="hmax2")
    zone = data.draw(st.integers(1, hmax2 - 1), label="zone")
    axes = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))), label="axes")
    engine = est._cross_engine(target, hmax2)
    expected = reference_pool(engine, hmax2, zone, n, axes)
    with ScanLinesLog() as log:
        report = est.irrationality_scan(target, EnumSpec(2, 1, hmax2))
    assert report.scanned == 2 + log.counts["shell_rows"]
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
    for idx, (h2, vec, _key) in enumerate(raw):
        window = raw[idx + 1][0] if idx + 1 < len(raw) else hmax2
        hi2 = engine.bracket(*vec)[1]
        if window > zone and (
            hi2 * window * engine.u2_hi * MARGIN2.denominator
            > MARGIN2.numerator * h2 * engine.u2_lo * engine.scale
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
        lo, hi = est._sqrt_interval(
            Fraction(lo2, h2 * engine.u2_hi), Fraction(hi2, h2 * engine.u2_lo)
        )
        out.append((vec, h2, lo.hex(), hi.hex()))
    return out


@pytest.mark.parametrize("kind", list(POOL_TARGETS))
@SETTINGS
@given(data=st.data())
def test_shell_search_matches_the_old_pool(kind, data):
    """Wherever the old engine certified its pool, the shell search returns
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
    assert list(counts) == ["shells", "nodes", "shell_rows", "records"]
    # dyadic shells from 1 up to 10^5
    assert counts["shells"] == 17
    assert 0 < counts["shell_rows"] <= counts["nodes"]
    assert report.scanned == 2 + counts["shell_rows"]
    records = est.scan_embedded_line_records(target, 3, 10**5)
    assert line_scan_counts(caplog) == counts | {"records": len(records)}


def test_golden_irrationality_scan_counts_the_rows_it_keyed(caplog):
    """At H^2 <= 10^12 the golden line's scan keys the two height-1 rows
    and a few dozen shell rows, and counts just those; a recount of the
    rounding-window pool gave 1,607,411 here, in seconds."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    report = est.irrationality_scan(est.golden_line_target(), EnumSpec(2, 1, 10**12))
    assert report.ok
    assert report.scanned == 2 + line_scan_counts(caplog)["shell_rows"]
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


@pytest.mark.parametrize(
    "hmax2, most_nodes", [(10**12, 2_000), (10**40, 4_000)], ids=["1e12", "1e40"]
)
def test_golden_line_walk_stays_logarithmic(caplog, hmax2, most_nodes):
    """The golden line's records are consecutive Fibonacci pairs (its
    convergents), and the shell search finds them in a bounded number of
    nodes per dyadic shell: counts, not wall time."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    records = est.scan_line_records(est.golden_line_target(), hmax2)
    assert [r.subspace.pluecker.coords for r in records] == fibonacci_pairs(hmax2)
    assert len(records) == {10**12: 30, 10**40: 97}[hmax2]
    assert all(r.psi_lo > 0 for r in records)
    assert all(a.psi_hi > b.psi_hi for a, b in zip(records, records[1:]))
    assert line_scan_counts(caplog)["nodes"] < most_nodes


def record_digest(records):
    """sha256 of the records as lines "coords h2 psi_lo psi_hi", the sines
    as float hex."""
    text = "".join(
        f"{r.subspace.pluecker.coords} {r.height_squared} {r.psi_lo.hex()} {r.psi_hi.hex()}\n"
        for r in records
    )
    return hashlib.sha256(text.encode()).hexdigest()


# digests of the records as the walk gave them when it still listed the
# whole c2 = 0 row of each shell
ROW_CLIP_RECORDS = {
    "instance-1e24": (45, "a0afafad62dadea99f2b747acd8b52b96c79e41e5e59d2f29534b2b2eceb9801"),
    "golden-1e12": (30, "fadd5989b19fe32538819507dc4800dba90570e49bf0e5806b362a5b468dae4a"),
}


@pytest.mark.parametrize("case", list(ROW_CLIP_RECORDS))
def test_shell_walk_lists_only_primitive_rows(caplog, case):
    """On the c2 = 0 row of a shell only c1 = 1 gives a primitive vector.
    The l=1 beta=3 seed-0 instance line has a huge partial quotient, so
    that row holds the multiples of its last convergent: listing them took
    1,914,875 nodes at H^2 <= 10^24.  The records stay the same."""
    caplog.set_level(logging.DEBUG, logger="subdioph")
    if case == "instance-1e24":
        params = con.ConstructionParams.create(1, Fraction(3), seed=0)
        target = est.line_target_for_instance(params, height_squared_max=10**24)
        records = est.scan_line_records(target, 10**24)
        assert line_scan_counts(caplog)["nodes"] < 200_000
    else:
        records = est.scan_line_records(est.golden_line_target(), 10**12)
    assert (len(records), record_digest(records)) == ROW_CLIP_RECORDS[case]


def test_golden_line_keys_few_rows(monkeypatch):
    """The shell walk keys only rows that could set a record: a census of
    the plane vectors up to squared height 10,000 would key 9,544."""
    keyed = []
    real = est._keyed

    def counted(engine, vecs, *rest):
        keyed.append(len(vecs))
        return real(engine, vecs, *rest)

    monkeypatch.setattr(est, "_keyed", counted)
    records = est.scan_line_records(est.golden_line_target(), 10**6)
    assert [r.subspace.pluecker.coords for r in records] == fibonacci_pairs(10**6)
    assert 0 < sum(keyed) < 500
