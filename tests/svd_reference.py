"""The multiprecision reference of the angle tests: Gram-Schmidt and an SVD.

svd_sines is the engine that evaluator bases and pairs with t >= 3 went
through before every sine was proved on integers.  It is kept here, apart
from the code it checks, so that no oracle tests the engine against
itself.
"""

from mpmath import mp

from subdioph.errors import NumericalRankLossError


def orthonormal_columns(basis, bits):
    """An orthonormal basis of the span of basis (a RealBasis read at
    bits + 32), as columns, by twice-iterated modified Gram-Schmidt.

    Raises NumericalRankLossError when a column norm collapses below
    2^(-bits/2) of the column at the working precision.
    """
    with mp.workprec(bits + 32):
        m = basis.at(bits + 32)
        cutoff = mp.mpf(2) ** (-(bits // 2))
        out = []
        for j in range(m.cols):
            col = [m[i, j] for i in range(m.rows)]
            v = list(col)
            for _pass in range(2):
                for q in out:
                    dot = mp.fsum(x * y for x, y in zip(q, v))
                    v = [x - dot * y for x, y in zip(v, q)]
            norm = mp.sqrt(mp.fsum(x * x for x in v))
            original = mp.sqrt(mp.fsum(x * x for x in col))
            if original == 0 or norm / original < cutoff:
                raise NumericalRankLossError(f"column {j} collapsed during orthonormalization")
            out.append([x / norm for x in v])
        return out


def svd_sines(a, b, bits):
    """Ascending sines of the principal angles between two RealBasis
    spans at bits: sqrt(1 - sigma^2) for each singular value sigma of
    Qa^T Qb, clamped to [0, 1]."""
    with mp.workprec(bits + 32):
        qa, qb = (mp.matrix(orthonormal_columns(x, bits)) for x in (a, b))
        cross = qa * qb.T
        if min(cross.rows, cross.cols) == 1:
            # a 1 x k cross-Gram: its singular value is its norm
            sigmas = [mp.sqrt(mp.fsum(x**2 for row in cross.tolist() for x in row))]
        else:
            sigmas = list(mp.svd_r(cross, compute_uv=False))
        one = mp.mpf(1)
        return sorted(mp.sqrt((one - s) * (one + s)) for s in (min(max(s, 0), one) for s in sigmas))
