#!/usr/bin/env python3
"""Closed-form lower bounds vs exact brute-force optima on a random corpus,
plus the derandomized independent-set extraction in action, and colorings
peeled from covers by repeated extraction against the chromatic number.
"""

import random

from hypercover import (
    Cover,
    Hypergraph,
    MultiplicityList,
    RPartiteBlock,
    chromatic_number,
    complete_hypergraph,
    derandomized_extraction,
    independence_number,
    is_proper_coloring,
    ks_chromatic_lower_bound,
    ks_order_lower_bound,
    log_cover,
    matching_cover_lower_bound,
    matching_number,
    min_cover_size,
    min_sum_of_orders,
    peel_coloring,
    sum_of_orders,
)

print("== the K_8 log-cover meets the order bound exactly ==")
h, c = log_cover(8)
print(f"  sum of orders {sum_of_orders(c)}  vs bound {ks_order_lower_bound(8, 1, 2):.1f}")

print()
print("== derandomized extraction: one part deleted per block ==")
res = derandomized_extraction(h, c)
print(f"  survivors {sorted(res.vertices)}  guarantee >= {res.guarantee}")
print(f"  conditional expectations never fall: "
      f"{[round(float(x), 3) for x in res.expectations]}")

print()
print("== exact oracles dominate the closed forms (seeded corpus) ==")
rng = random.Random(0)
ANY = MultiplicityList.any_positive()
for i in range(8):
    r = rng.choice((2, 3))
    n = rng.randint(r, 5)
    edges = [e for e in complete_hypergraph(n, r).edges if rng.random() < 0.6]
    if not edges:
        continue
    g = Hypergraph(r, n, frozenset(edges))
    bc = min_cover_size(g, ANY).value
    nu = matching_number(g)
    b_r = min_sum_of_orders(g).value
    alpha = independence_number(g)
    print(f"  n={n} r={r} |E|={len(g.edges):2d}: "
          f"bc={bc} >= {matching_cover_lower_bound(nu, len(g.edges), r):.2f}   "
          f"b_r={b_r} >= {ks_order_lower_bound(n, alpha, r):.2f}")


def star_cover(g: Hypergraph) -> Cover:
    """The graph g's edges covered by the stars {v} x (neighbours of v above v)."""
    later = {}
    for u, v in g.edges:
        later.setdefault(u, []).append(v)
    return Cover(2, tuple(RPartiteBlock(((u,), tuple(vs))) for u, vs in later.items()))


print()
print("== peeling star covers into colorings, against the chromatic number ==")
rng = random.Random(1)
for n in (6, 8, 10, 12):
    g = Hypergraph(2, n, [e for e in complete_hypergraph(n).edges if rng.random() < 0.5])
    peel = peel_coloring(g, star_cover)
    print(f"  n={n:2d} |E|={len(g.edges):2d} order {sum_of_orders(star_cover(g)):2d}: "
          f"{len(set(peel.colors))} colors (classes {list(peel.survivor_sizes)}), "
          f"proper {is_proper_coloring(g, peel.colors)}, chromatic number {chromatic_number(g)}")
print("  order a cover of a graph with chromatic number k needs (r=2, large k): "
      + ", ".join(f"k={k}: {ks_chromatic_lower_bound(k, 2):.0f}" for k in (2**10, 2**16)))
