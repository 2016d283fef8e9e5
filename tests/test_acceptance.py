"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and runtime limit is pinned here.
"""

import itertools
import math
import random
import time
from pathlib import Path


from conftest import random_cover_of, random_hypergraph

from hypercover import (
    MultiplicityList,
    adjacency_cube_matrix,
    block_count_by_recurrence,
    check_gamma_closed_form,
    complete_hypergraph,
    cover_incidence,
    cube_graph,
    derandomized_extraction,
    disjointness_matrix,
    disjointness_matrix_upto,
    floor_e_minus_one_factorial,
    gf2_rank,
    grid3_cover,
    hex_cover,
    independence_number,
    ks_order_lower_bound,
    label_partition,
    label_table,
    matching_cover_lower_bound,
    matching_number,
    min_cover_size,
    min_partition_size,
    partition_lower_bound,
    pi_partition,
    pinto_upper_bound,
    sum_of_orders,
    survivor_guarantee,
    verify_cover,
    verify_partition,
)

GOLDEN = Path(__file__).parent / "golden"
ANY = MultiplicityList.any_positive()


class Criterion:
    """Timer + one printed PASS/FAIL line per criterion."""

    def __init__(self, number: int, description: str, limit_seconds: float):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"{status} criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
            )
        return False


def test_criterion_1_block_counts():
    with Criterion(1, "block counts by exact sum, recurrence, and gamma form", 1.0):
        expected = [1, 3, 10, 41, 206, 1237]
        for r, value in enumerate(expected, start=1):
            assert floor_e_minus_one_factorial(r) == value
            assert block_count_by_recurrence(r) == value
        for r in range(2, 13):
            assert (
                floor_e_minus_one_factorial(r)
                == r * floor_e_minus_one_factorial(r - 1) + 1
            )
        for r in range(1, 13):
            assert check_gamma_closed_form(r, rel_tol=1e-6)


def test_criterion_2_label_partition():
    with Criterion(2, "symbolic one-coordinate partition tiles, counts, goldens", 30.0):
        for r in range(2, 8):
            blocks = label_partition(r)
            assert len(blocks) == floor_e_minus_one_factorial(r)
            base = r + 1
            seen = bytearray(base**r)
            covered = 0
            for b in blocks:
                for tup in itertools.product(*b.classes):
                    code = 0
                    for d in tup:
                        code = code * base + d
                    assert not seen[code], f"r={r}: tuple covered twice"
                    seen[code] = 1
                    covered += 1
            assert covered == base**r - math.factorial(r)
            for perm in itertools.permutations(range(r)):
                code = 0
                for d in perm:
                    code = code * base + d
                assert not seen[code], f"r={r}: all-distinct tuple covered"
        for r in (2, 3):
            golden = (GOLDEN / f"label_blocks_r{r}.txt").read_text()
            assert label_table(label_partition(r)) == golden


def test_criterion_3_cube_partitions():
    with Criterion(3, "cube partitions verify; sizes 1,4,13,40 and 1,11", 60.0):
        sizes = {(2, 1): 1, (2, 2): 4, (2, 3): 13, (2, 4): 40, (3, 1): 1, (3, 2): 11}
        for (r, m), size in sorted(sizes.items()):
            cover = pi_partition(r, m)
            assert len(cover.blocks) == size
            assert size == pinto_upper_bound(r, m)
            assert verify_partition(cube_graph(r, m).hypergraph, cover).ok


def test_criterion_4_hex_cover():
    with Criterion(4, "hexagonal {2,3}-covers within the 6m-3 budget", 10.0):
        for m in range(2, 7):
            h, c = hex_cover(m)
            n = 3 * m * m - 3 * m + 1
            assert h.n == n
            assert verify_cover(h, c, MultiplicityList.of(2, 3)).ok
            assert len(c.blocks) <= 6 * m - 3
            assert 6 * m - 3 < 2 * math.sqrt(3) * math.sqrt(n)


def test_criterion_5_grid3_cover():
    with Criterion(5, "square-grid 3-uniform {1..4}-covers, 6m-10 blocks", 60.0):
        for m in range(3, 7):
            h, c = grid3_cover(m)
            assert len(c.blocks) == 6 * m - 10
            assert verify_cover(h, c, MultiplicityList.up_to(4)).ok
        h2, c2 = grid3_cover(2)
        assert len(c2.blocks) == 2
        assert verify_partition(h2, c2).ok


def test_criterion_6_disjointness_rank():
    with Criterion(6, "disjointness matrices full rank over GF(2)", 5.0):
        # the certificate fact, over subsets of size at most k, across the
        # whole stated range (see the at-most-k note in the gf2 module)
        for n in range(1, 9):
            for k in range(1, min(3, n) + 1):
                m = disjointness_matrix_upto(n, k)
                assert gf2_rank(m) == m.rows, f"D(n={n}, <= {k}) not full rank"
        # the exact-size matrices the adjacency certificates rest on (n = 2k)
        for n, k, dim in ((2, 1, 2), (4, 2, 6), (6, 3, 20)):
            m = disjointness_matrix(n, k)
            assert m.rows == dim and gf2_rank(m) == dim


def test_criterion_7_adjacency_rank_certificates():
    with Criterion(7, "adjacency rank certificates at r=4, m=1,2", 30.0):
        assert gf2_rank(adjacency_cube_matrix(4, 1)) >= 6
        assert gf2_rank(adjacency_cube_matrix(4, 2)) >= 48
        assert partition_lower_bound(4, 2) == 8
        assert pinto_upper_bound(4, 2) == 42
        assert partition_lower_bound(4, 2) <= pinto_upper_bound(4, 2)


def test_criterion_8_oracle_regressions():
    with Criterion(8, "oracle minimums: n-1, n-2, and ceil(log2 n)", 300.0):
        for n in range(2, 6):
            assert min_partition_size(complete_hypergraph(n)).value == n - 1
        for n in (4, 5):
            assert min_partition_size(complete_hypergraph(n, 3)).value == n - 2
        for n in (2, 3, 4, 5, 8):
            outcome = min_cover_size(complete_hypergraph(n), ANY)
            assert outcome.value == math.ceil(math.log2(n))


def corpus_pairs():
    for r, m in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)):
        yield cube_graph(r, m).hypergraph, pi_partition(r, m)
    for m in range(2, 7):
        yield hex_cover(m)
    for m in range(2, 7):
        yield grid3_cover(m)


def test_criterion_9_derandomization():
    with Criterion(9, "extraction meets its guarantee; orders dominate the bound", 120.0):
        rng = random.Random(0)
        pairs = list(corpus_pairs())
        for _ in range(100):
            r = rng.choice((2, 3))
            h = random_hypergraph(rng, rng.randint(r, 6), r)
            pairs.append((h, random_cover_of(rng, h)))
        for h, c in pairs:
            res = derandomized_extraction(h, c)
            assert res.guarantee == survivor_guarantee(cover_incidence(h.n, c), h.r)
            assert len(res.vertices) >= res.guarantee
            for e in h.edges:
                assert not set(e) <= res.vertices, "extracted set not independent"
            if h.n <= 20:  # the independence oracle's guard
                alpha = independence_number(h)
                bound = ks_order_lower_bound(h.n, alpha, h.r)
                assert sum_of_orders(c) >= bound - 1e-9


def test_criterion_10_matching_bound_dominance():
    with Criterion(10, "cover numbers dominate the matching bound, 100 instances", 600.0):
        rng = random.Random(0)
        violations = 0
        for _ in range(100):
            r = rng.choice((2, 3))
            h = random_hypergraph(rng, rng.randint(r, 6), r)
            bc = min_cover_size(h, ANY).value
            nu = matching_number(h)
            if bc < matching_cover_lower_bound(nu, len(h.edges), r) - 1e-9:
                violations += 1
        assert violations == 0
