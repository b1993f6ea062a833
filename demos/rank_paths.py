"""Three roads to the same dimension.

The rank of the stacked representation matrices is the ground truth.  The
characteristic polynomial gives bounds for free, and the symbolic-diagonal
method recovers the exact rank from characteristic polynomials of n x n
node matrices evaluated in an extension field, either deterministically
(the least z-valuation over enough nonzero nodes to pin every coefficient)
or with random nonzero evaluation points (each trial is a certified lower
bound).
"""

import random

from groupalg import (IdealSpec, dim_bound_charpoly, dim_ideal,
                      dim_mulmuley_exact, dim_mulmuley_random, make_group,
                      parse_field_spec, random_element)

field = parse_field_spec("gf:3")
group = make_group("dihedral:4")
rng = random.Random(2024)

print("group:", group.name, " field: gf:3\n")
header = f"{'dim':>4} {'bounds':>10} {'exact path':>10} {'random path':>12}"
print(header)
print("-" * len(header))

for _ in range(8):
    f = random_element(field, group, rng)
    if f.is_zero:
        continue
    d = dim_ideal(IdealSpec("left", (f,)))
    b = dim_bound_charpoly(f)
    de = dim_mulmuley_exact(f)
    dr = dim_mulmuley_random(f, trials=3, seed=7)
    print(f"{d:>4} {f'[{b.lower},{b.upper}]':>10} {de:>10} {dr:>12}")
    assert de == d
    assert dr <= d  # specialization never overshoots

# same seed, same answer: the randomized path is reproducible
f = random_element(field, group, rng)
runs = {dim_mulmuley_random(f, trials=3, seed=11) for _ in range(5)}
print("\nfive seeded runs agree:", len(runs) == 1)
