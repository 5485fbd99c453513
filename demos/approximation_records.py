"""Approximation records and empirical exponent estimates.

Scans all rational lines up to a height bound for record-setting
approximations to a quadratic target (the golden line), fits the decay
exponent from the certified records, and runs the exclusivity check
showing that a constructed instance's own convergents are its only
record-setters.
"""

from fractions import Fraction

from subdioph import construction as con
from subdioph import enumeration as enu
from subdioph import estimation as est


def main():
    target = est.golden_line_target()
    # the walk follows the slope's continued fraction, a few keyed rows
    # per partial quotient, so the window can be this large
    records = est.scan_line_records(target, 10**12)
    print("golden-line records up to height^2 = 10^12:")
    for rec in records[:8]:
        print(
            "  label", tuple(int(c) for c in rec.subspace.pluecker.coords),
            "height^2", rec.subspace.height_squared,
        )
    print(f"  ... {len(records)} records total (consecutive Fibonacci pairs)")

    result = est.estimate_exponent(records)
    print("estimated exponent:", dict(result.summary()))

    # records for a constructed instance, scanned exactly
    params = con.ConstructionParams.create(1, Fraction(3), seed=0)
    inst_target = est.line_target_for_instance(params, height_squared_max=10**6)
    inst_records = est.scan_embedded_line_records(inst_target, 2, 10**6)
    print("constructed-instance records:")
    for rec in inst_records:
        print(
            "  label", tuple(int(c) for c in rec.subspace.pluecker.coords),
            "height^2", rec.subspace.height_squared,
        )

    # exclusivity: beyond the burn-in, every record is a convergent
    spec = enu.EnumSpec(2, 1, 10**6, enu.EXACT_LINES)
    report = est.exclusivity_check(params, 3, spec)
    print(
        "exclusivity:", "ok" if report.ok else "violated",
        "| interlopers:", list(report.interlopers),
    )


if __name__ == "__main__":
    main()
