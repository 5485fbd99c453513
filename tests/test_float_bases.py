"""Float bases are exact dyadic rationals.

RealBasis.from_float keeps the exact value of every double, so a float
pair with t <= 2 takes the closed-form angle path and a float target is
label-screened like a rational one.  The multiprecision path that float
pairs used to take stays in the tests as the oracle (svd_sines).
"""

import hashlib
import json
import math
import random

import pytest
from mpmath import mp

from subdioph import angles
from subdioph import estimation as est
from subdioph.angles import RealBasis, angles_adaptive, principal_angles
from subdioph.enumeration import EXACT_PLUECKER, EnumSpec
from subdioph.errors import NumericalRankLossError, ShapeError
from svd_reference import svd_sines

ORACLE_BITS = 512


def float_basis(rng, n, d, scale=1.0):
    return [[rng.uniform(-scale, scale) for _ in range(d)] for _ in range(n)]


def nudged(rows, rng, eps):
    return [[x + eps * rng.uniform(-1.0, 1.0) for x in row] for row in rows]


def float_pairs():
    """Random float pairs with t <= 2, then nearly parallel ones whose
    sines lie between 2^-45 and 2^-18."""
    rng = random.Random(11)
    pairs = []
    while len(pairs) < 40:
        n = rng.randint(2, 5)
        da, db = rng.randint(1, n - 1), rng.randint(1, n - 1)
        if min(da, db) <= 2:
            pairs.append((float_basis(rng, n, da), float_basis(rng, n, db)))
    for _ in range(20):
        n = rng.randint(3, 5)
        d = rng.randint(1, 2)
        rows = float_basis(rng, n, d)
        pairs.append((rows, nudged(rows, rng, 2.0 ** -rng.randint(18, 45))))
    return pairs


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected(bad):
    rows = [[1.0], [bad], [0.0]]
    with pytest.raises(ShapeError):
        RealBasis.from_float(rows)
    with pytest.raises(ShapeError):
        est.scan_records(rows, EnumSpec(3, 2, 20))


def test_exact_brackets_lie_inside_the_multiprecision_brackets():
    """The closed-form brackets of a float pair lie inside the brackets
    that the multiprecision path reports at 512 bits: s (1 -/+ 2^-256)
    around each sine s above the floor 2^-128, [0, 2^-128] at or below it."""
    rel = mp.ldexp(1, -(ORACLE_BITS // 2))
    floor = mp.ldexp(1, -(ORACLE_BITS // 4))
    for rows_a, rows_b in float_pairs():
        a, b = RealBasis.from_float(rows_a), RealBasis.from_float(rows_b)
        prof = angles_adaptive(a, b)
        sines = svd_sines(a, b, ORACLE_BITS)
        assert len(sines) == prof.t
        with mp.workprec(2 * ORACLE_BITS):
            for s, lo, hi, resolved in zip(sines, prof.lo, prof.hi, prof.resolved):
                if s <= floor:
                    assert hi <= floor, (rows_a, rows_b)
                    continue
                assert resolved, (rows_a, rows_b)
                assert s * (1 - rel) <= lo <= hi <= s * (1 + rel), (rows_a, rows_b)


def test_float_pairs_never_take_the_multiprecision_path(monkeypatch):
    """A float pair with t <= 2 is proved on its label integers: it is not
    read through mpmath, and no eigenvalue or SVD is computed."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a float pair with t <= 2 reached mpmath")

    for name in ("eigsy", "svd_r"):
        monkeypatch.setattr(angles.mp, name, refuse)
    monkeypatch.setattr(RealBasis, "at", refuse)
    for rows_a, rows_b in float_pairs()[::7]:
        a, b = RealBasis.from_float(rows_a), RealBasis.from_float(rows_b)
        principal_angles(a, b)
        angles_adaptive(a, b)


def test_exactly_dependent_float_basis_raises_at_the_angle_engine():
    # 1 + 2^-60 rounds to 1.0: the columns are exactly equal
    lossy = RealBasis.from_float([[1.0, 1.0], [1.0, 1.0 + 2.0**-60], [0.0, 0.0]])
    line = RealBasis.from_float([[1.0], [2.0], [3.0]])
    solid = RealBasis.from_float([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for other in (line, solid):
        with pytest.raises(NumericalRankLossError):
            principal_angles(lossy, other)
        with pytest.raises(NumericalRankLossError):
            angles_adaptive(other, lossy)
    zero = [[0.0], [0.0], [0.0]]
    with pytest.raises(NumericalRankLossError):
        est.scan_records(zero, EnumSpec(3, 2, 20))


def test_nearly_dependent_float_basis_is_certified():
    """Intended: the columns (1, 1, 0) and (1, 1 + 2^-40, 0) are exactly
    independent, so the closed form certifies the plane they span, the
    xy-plane.  The multiprecision Gram-Schmidt at 64 bits reads them as
    dependent, and float pairs used to go through it."""
    nearly = RealBasis.from_float([[1.0, 1.0], [1.0, 1.0 + 2.0**-40], [0.0, 0.0]])
    line = RealBasis.from_float([[1.0], [2.0], [3.0]])
    with pytest.raises(NumericalRankLossError):
        svd_sines(nearly, line, 64)
    for prof in (principal_angles(nearly, line, bits=64), angles_adaptive(nearly, line)):
        assert prof.resolved == (True,)
        with mp.workprec(2 * prof.bits_used):
            assert prof.lo[0] <= 3 / mp.sqrt(14) <= prof.hi[0]


# ---------------------------------------------------------------------------
# float-target scans

# sha256 of the records of float_target_scans(), as the multiprecision
# path gave them: per scan, [coords, h2, psi_lo hex, psi_hi hex] per record
FLOAT_TARGET_RECORDS_SHA256 = "90f40d701a9e83e20928640b73b86beead26d6bc622201e288c13aef22536a8f"


def float_target_scans():
    """Two float planes in R^4 against planes (H^2 <= 12, j = 2), a float
    line in R^3 against hyperplanes and another against lines (H^2 <= 200)."""
    rng = random.Random(3)
    planes = [float_basis(rng, 4, 2), float_basis(rng, 4, 2)]
    lines = [float_basis(rng, 3, 1), float_basis(rng, 3, 1)]
    return [
        (planes[0], EnumSpec(4, 2, 12, EXACT_PLUECKER), 2),
        (planes[1], EnumSpec(4, 2, 12, EXACT_PLUECKER), 2),
        (lines[0], EnumSpec(3, 2, 200), 1),
        (lines[1], EnumSpec(3, 1, 200), 1),
    ]


def test_float_target_scans_are_pinned_and_screened(monkeypatch):
    scans = []

    class Recorded(est._GenericScan):
        def __init__(self, *args):
            super().__init__(*args)
            scans.append(self)

    monkeypatch.setattr(est, "_GenericScan", Recorded)
    out = []
    for target, spec, j_index in float_target_scans():
        records = est.scan_records(target, spec, j_index)
        out.append(
            [
                [list(r.subspace.pluecker.coords), r.height_squared, r.psi_lo.hex(), r.psi_hi.hex()]
                for r in records
            ]
        )
    blob = json.dumps(out, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == FLOAT_TARGET_RECORDS_SHA256
    assert len(scans) == 4
    assert all(scan.counts["skipped"] > 0 for scan in scans)
