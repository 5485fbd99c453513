"""Bases read back from labels, compared with pinned digests.

data/decoded_bases.json holds, per case, the number of subspaces and the
sha256 of their (label, basis) rows in enumeration order: every plane in
R^4 at H^2 <= 60 decoded with pluecker_decode, and every enumerated
hyperplane in R^3 (H^2 <= 200) and R^4 (H^2 <= 30).  The digests were
recorded with the Fraction row reduction that rational_kernel used before
it became fraction-free; the bases must stay the same.  Regenerate with

    PYTHONPATH=src python tests/test_decoded_bases.py

only when a change to the decoded bases is intended.

The oracle test compares rational_kernel with a Fraction reduced row
echelon form kept here, on random integer and rational matrices.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subdioph import exact
from subdioph.enumeration import EXACT_LINES, EXACT_PLUECKER, EnumSpec, enumerate_subspaces

DIGESTS = Path(__file__).parent / "data" / "decoded_bases.json"

CASES = {
    "planes-r4-h2-60": (EnumSpec(4, 2, 60, EXACT_PLUECKER), True),
    "hyperplanes-r3-h2-200": (EnumSpec(3, 2, 200, EXACT_LINES), False),
    "hyperplanes-r4-h2-30": (EnumSpec(4, 3, 30, EXACT_LINES), False),
}


def case_digest(spec, decode):
    """Row count and sha256 of the (label, basis) rows of one enumeration."""
    digest = hashlib.sha256()
    count = 0
    for sub in enumerate_subspaces(spec):
        basis = exact.pluecker_decode(sub.pluecker).basis if decode else sub.basis
        row = [list(sub.pluecker.coords), [list(r) for r in basis]]
        digest.update((json.dumps(row, separators=(",", ":")) + "\n").encode())
        count += 1
    return {"count": count, "sha256": digest.hexdigest()}


PINNED = json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_case_list_matches():
    assert list(CASES) == list(PINNED)


@pytest.mark.parametrize("name", list(PINNED))
def test_decoded_bases_match_pinned_digests(name):
    assert case_digest(*CASES[name]) == PINNED[name]


# ---------------------------------------------------------------------------
# rational_kernel against a Fraction reference


def reference_kernel(rows):
    """Right kernel over Q from the reduced row echelon form, one vector per
    free column with a 1 there, each cleared of denominators."""
    work = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(work), len(work[0])
    pivots = []
    r = 0
    for j in range(n_cols):
        p = next((i for i in range(r, n_rows) if work[i][j] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        work[r] = [x / work[r][j] for x in work[r]]
        for i in range(n_rows):
            if i != r and work[i][j] != 0:
                f = work[i][j]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(j)
        r += 1
        if r == n_rows:
            break
    out = []
    for j in (j for j in range(n_cols) if j not in pivots):
        v = [Fraction(0)] * n_cols
        v[j] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -work[i][j]
        out.append(exact.clear_denominators(v))
    return out


def random_matrix(rng, rational):
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    # low rank and zero rows/columns show up often at this entry range
    span = rng.choice((1, 2, 5, 40))

    def entry():
        num = rng.randint(-span, span)
        return Fraction(num, rng.randint(1, 9)) if rational else num

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        zero = rng.randrange(cols)
        for row in m:
            row[zero] = 0
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [0] * cols
    if rows > 1 and rng.random() < 0.3:
        k = rng.randint(-3, 3)
        m[-1] = [k * x for x in m[0]]
    return m


def test_rational_kernel_matches_fraction_reference():
    rng = random.Random(20260518)
    for trial in range(2000):
        m = random_matrix(rng, rational=trial % 2 == 1)
        assert exact.rational_kernel(m) == reference_kernel(m), m


if __name__ == "__main__":
    out = {name: case_digest(*args) for name, args in CASES.items()}
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {DIGESTS.name}\n")
