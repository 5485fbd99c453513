"""Materializing and certifying digit-series instances.

Builds the seeded digit-series construction, lists its convergent
subspaces, and runs the full certification: exact truncation-tail and
primitivity checks per level plus resolved angle sandwiches and the
instance-wide monotonicity checks.
"""

from fractions import Fraction

from subdioph import construction as con
from subdioph.reports import sci_str


def main():
    params = con.ConstructionParams.create(1, Fraction(3), seed=0)
    print("instance descriptor:", dict(con.params_to_descriptor(params)))

    for n_index in (1, 2):
        conv = con.build_convergent(params, n_index)
        print(
            f"convergent N={n_index}: exponent {conv.exponent},",
            f"label {conv.subspace.pluecker.coords},",
            f"height^2 {conv.subspace.height_squared}",
        )

    cert = con.certify_instance(params, 3)
    print("certification bits used:", cert.bits_used)
    for rec in cert.records:
        flags = " ".join(
            f"{name}={'ok' if ok else 'FAIL'}" for name, ok in rec.checks
        )
        print(f"  N={rec.n_index}: {flags}")
        print(
            f"    local exponent {rec.local_exponent:.4f},",
            "height ratio deviation", sci_str(rec.ratio_deviation),
        )
    for name, ok in cert.instance_checks:
        print(f"  instance: {name}={'ok' if ok else 'FAIL'}")

    # the unbounded variant grows its exponent without limit
    unbounded = con.ConstructionParams.create(1, None, seed=0, variant=con.INFINITE)
    from subdioph.angles import PrecisionContext

    cert2 = con.certify_instance(unbounded, 3, ctx=PrecisionContext(bits=4096))
    exps = [round(rec.local_exponent, 2) for rec in cert2.records]
    print("unbounded variant local exponents:", exps)


if __name__ == "__main__":
    main()
