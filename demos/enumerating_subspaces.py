"""Enumerating rational subspaces by height, with sharding.

Lists all rational lines of R^3 below a height cutoff, shows the
strategy catalog (including the echelon census of planes in R^5), and
splits the same enumeration across three shards that partition the
output exactly.
"""

from subdioph import enumeration as enu


def main():
    spec = enu.EnumSpec(3, 1, 30, enu.EXACT_LINES)
    lines = list(enu.enumerate_subspaces(spec))
    print(f"lines in R^3 with height^2 <= {spec.height_squared_max}: {len(lines)}")
    for sub in lines[:6]:
        print("  label", sub.pluecker.coords, "height^2", sub.height_squared)
    print("  ...")

    # planes in R^4 need the quadric-filtered strategy
    quadric_spec = enu.EnumSpec(4, 2, 20, enu.EXACT_PLUECKER)
    planes = list(enu.enumerate_subspaces(quadric_spec))
    print(f"planes in R^4 with height^2 <= 20: {len(planes)}")

    # every other shape walks scaled reduced echelon bases
    echelon_spec = enu.EnumSpec(5, 2, 8, enu.exact_strategy(5, 2))
    census = list(enu.enumerate_subspaces(echelon_spec))
    print(f"planes in R^5 with height^2 <= 8 ({echelon_spec.strategy}): {len(census)}")

    # shards partition the exact enumerations without overlap
    whole = {s.pluecker.coords for s in lines}
    union = set()
    for shard_index in range(3):
        shard_spec = enu.EnumSpec(
            3, 1, 30, enu.EXACT_LINES, shard_count=3, shard_index=shard_index
        )
        part = {s.pluecker.coords for s in enu.enumerate_subspaces(shard_spec)}
        print(f"shard {shard_index}: {len(part)} lines")
        assert not (union & part)
        union |= part
    print("shards partition the full set:", union == whole)


if __name__ == "__main__":
    main()
