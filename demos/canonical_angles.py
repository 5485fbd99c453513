"""Canonical angle profiles between subspaces of R^n.

Shows the certified angle machinery: profiles carry sine values, rigorous
lower/upper brackets, and a resolved flag.  Rational pairs with at most
two angles are evaluated exactly, so any nonzero sine is resolved and an
exactly-zero one is reported as an unresolved bracket down at the
precision floor.  Other pairs are evaluated at doubled working precision
until the requested relative error is met.
"""

from fractions import Fraction

from subdioph import angles as ang


def line(*entries):
    return ang.RealBasis.from_exact(tuple((Fraction(x),) for x in entries))


def main():
    # a tiny but nonzero angle: exact evaluation resolves it
    xi = Fraction(2, 5) + Fraction(3, 5**3) + Fraction(2, 5**9)
    profile = ang.angles_adaptive(line(1, xi), line(125, 53))
    print("tiny angle, resolved:", profile.resolved[0])
    print("  sin psi =", profile.psi[0])
    print("  bracket  [", profile.lo[0], ",", profile.hi[0], "]")
    print("  bits used:", profile.bits_used)

    # identical lines: the angle is exactly zero, reported as an
    # unresolved bracket [0, floor] instead of a fake small number
    same = ang.angles_adaptive(line(1, 2, 3), line(2, 4, 6))
    print("contained line, resolved:", same.resolved[0])
    print("  bracket  [", same.lo[0], ",", same.hi[0], "]")

    # a plane against a plane in R^4 has two canonical angles, ascending
    a = ang.RealBasis.from_exact(
        tuple(tuple(Fraction(x) for x in row) for row in
              ((1, 0), (0, 1), (2, 3), (-1, 4)))
    )
    b = ang.RealBasis.from_exact(
        tuple(tuple(Fraction(x) for x in row) for row in
              ((1, 1), (1, -1), (0, 2), (3, 0)))
    )
    prof = ang.principal_angles(a, b, bits=192)
    print("plane vs plane profile:", tuple(float(x) for x in prof.psi))

    # single-vector convenience wrapper
    print("vector angle (1,0) vs (1,1):", float(ang.vector_angle((1, 0), (1, 1))))


if __name__ == "__main__":
    main()
