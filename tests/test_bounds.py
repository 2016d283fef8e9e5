"""Closed-form bounds, the derandomized extractor, and peeling."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_cover_of, random_hypergraph, singleton_block

from hypercover import bounds
from hypercover import (
    Cover,
    GF2Matrix,
    Hypergraph,
    MultiplicityList,
    complete_hypergraph,
    cover_incidence,
    derandomized_extraction,
    gf2_rank,
    independent_matchings_lower_bound,
    inertia,
    is_proper_coloring,
    ks_chromatic_lower_bound,
    ks_order_lower_bound,
    link_lower_bound,
    log_cover,
    matching_cover_lower_bound,
    min_partition_size,
    min_sum_of_orders,
    independence_number,
    peel_coloring,
    star_partition,
    sum_of_orders,
    survivor_guarantee,
)


class TestKsOrderBound:
    def test_alpha_equals_n(self):
        assert ks_order_lower_bound(9, 9, 3) == 0.0

    def test_k8(self):
        assert ks_order_lower_bound(8, 1, 2) == pytest.approx(24.0)

    def test_three_uniform(self):
        expected = 9 * math.log2(3) / math.log2(1.5)
        assert ks_order_lower_bound(9, 3, 3) == pytest.approx(expected)

    def test_valid_on_sparse_three_uniform(self):
        # a single triple with an isolated vertex: total order 3, alpha 3;
        # the loosened base-2 form (r-1) n log2(n/alpha) = 3.32 would exceed it
        assert ks_order_lower_bound(4, 3, 3) <= 3.0
        assert 2 * 4 * math.log2(4 / 3) > 3.0

    def test_domain(self):
        with pytest.raises(ValueError):
            ks_order_lower_bound(4, 0, 2)
        with pytest.raises(ValueError):
            ks_order_lower_bound(4, 5, 2)
        with pytest.raises(ValueError):
            ks_order_lower_bound(4, 1, 1)


class TestKsChromaticBound:
    def test_k_2_16(self):
        # case expressions at k = 2^16: 65536*(16-4-2) vs 65536*(16-4-1)-4*65536
        assert ks_chromatic_lower_bound(2**16, 2) == pytest.approx(458752.0)

    def test_r3_scales_cases(self):
        k = 2**16
        case_one = 4 * k * (16 - 4 - 2)
        case_two = 4 * k * (16 - 4 - 1) - 6 * 4 * k
        assert ks_chromatic_lower_bound(k, 3) == pytest.approx(min(case_one, case_two))

    @pytest.mark.parametrize("k", (17, 100, 2**10, 2**16))
    @pytest.mark.parametrize("r", (2, 3, 4))
    def test_below_naive_klogk(self, k, r):
        assert ks_chromatic_lower_bound(k, r) < (r - 1) ** 2 * k * math.log2(k)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            ks_chromatic_lower_bound(16, 2)


class TestMatchingBounds:
    def test_single_edge(self):
        assert matching_cover_lower_bound(1, 1, 3) == pytest.approx(1.0)

    def test_k4(self):
        assert matching_cover_lower_bound(2, 6, 2) == pytest.approx(4 / 6)

    @pytest.mark.parametrize("m", (1, 2, 5))
    def test_perfect_matching_hypergraph(self, m):
        assert matching_cover_lower_bound(m, m, 3) == pytest.approx(m)

    def test_independent_matchings_reduces(self):
        assert independent_matchings_lower_bound(1, 2, 6, 2) == pytest.approx(
            matching_cover_lower_bound(2, 6, 2)
        )

    def test_independent_matchings_values(self):
        assert independent_matchings_lower_bound(4, 2, 16, 2) == pytest.approx(1.0)
        assert independent_matchings_lower_bound(2, 3, 27, 3) == pytest.approx(
            math.sqrt(2) * 3**1.5 / math.sqrt(27)
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            matching_cover_lower_bound(0, 5, 2)
        with pytest.raises(ValueError):
            matching_cover_lower_bound(3, 2, 2)
        with pytest.raises(ValueError):
            independent_matchings_lower_bound(2, 3, 5, 2)


class TestValuesBeyondAFloat:
    """Inputs that fit a float but whose value does not: the float arithmetic
    rounds it to infinity, and an infinite lower bound is a wrong number."""

    @pytest.mark.parametrize("bound, args", [
        (ks_chromatic_lower_bound, (10**305, 5)),
        (ks_order_lower_bound, (10**300, 1, 10**300)),
        (independent_matchings_lower_bound, (10**300, 10**5, 10**306, 2)),
    ], ids=["ks-chromatic", "ks-order", "independent-matchings"])
    def test_infinite_value_is_refused(self, bound, args):
        with pytest.raises(ValueError, match="does not fit a float"):
            bound(*args)


class TestOrders:
    def test_sum_of_orders_empty(self):
        assert sum_of_orders(Cover(2, ())) == 0

    def test_star_partition(self):
        _, c = star_partition(4)
        assert sum_of_orders(c) == 9

    def test_log_cover_k8_meets_bound(self):
        _, c = log_cover(8)
        assert sum_of_orders(c) == 24 == ks_order_lower_bound(8, 1, 2)

    def test_incidence_sums_to_orders(self):
        _, c = log_cover(13)
        inc = cover_incidence(13, c)
        assert sum(inc) == sum_of_orders(c)


class TestExtraction:
    def test_edgeless_keeps_everything(self):
        h = Hypergraph(2, 5)
        res = derandomized_extraction(h, Cover(2, ()))
        assert res.vertices == frozenset(range(5))
        assert res.guarantee == 5

    def test_k4_log_cover(self):
        h, c = log_cover(4)
        res = derandomized_extraction(h, c)
        assert res.guarantee == 1  # each vertex in 2 blocks: ceil(4/4)
        assert len(res.vertices) >= 1
        assert all(e not in h.edges for e in
                   itertools.combinations(sorted(res.vertices), 2))

    def test_single_triple(self):
        h = Hypergraph(3, 3, frozenset({(0, 1, 2)}))
        c = Cover(3, (singleton_block((0, 1, 2)),))
        res = derandomized_extraction(h, c)
        assert res.guarantee == 2  # exact: ceil(3 * 2/3)
        assert len(res.vertices) == 2

    def test_uncovered_edge_rejected(self):
        h = complete_hypergraph(4)
        with pytest.raises(ValueError):
            derandomized_extraction(h, Cover(2, ()))

    def test_guarantee_uses_exact_arithmetic(self):
        # 6 * (2/3) is exactly 4, but the float sum lands at 4.000000000000001
        assert survivor_guarantee([1] * 6, 3) == 4

    def test_expectations_never_decrease(self):
        rng = random.Random(11)
        for _ in range(25):
            r = rng.choice((2, 3))
            h = random_hypergraph(rng, rng.randint(r, 6), r)
            c = random_cover_of(rng, h)
            res = derandomized_extraction(h, c)
            for before, after in zip(res.expectations, res.expectations[1:]):
                assert after >= before - 1e-9
            assert res.expectations[-1] == pytest.approx(len(res.vertices))

    def test_random_covers_guarantee_and_independence(self):
        rng = random.Random(5)
        for _ in range(40):
            r = rng.choice((2, 3))
            h = random_hypergraph(rng, rng.randint(r, 6), r)
            c = random_cover_of(rng, h)
            res = derandomized_extraction(h, c)
            assert len(res.vertices) >= res.guarantee
            assert res.guarantee == survivor_guarantee(cover_incidence(h.n, c), r)
            for e in h.edges:
                assert not set(e) <= res.vertices


class TestPeel:
    def test_edgeless_one_color(self):
        h = Hypergraph(2, 4)
        res = peel_coloring(h, lambda sub: Cover(2, ()))
        assert set(res.colors) == {0}

    def test_k4_with_log_cover_provider(self):
        h = complete_hypergraph(4)
        provider = lambda sub: log_cover(sub.n)[1] if sub.n >= 2 else Cover(2, ())
        res = peel_coloring(h, provider)
        assert len(set(res.colors)) <= 4
        assert is_proper_coloring(h, res.colors)

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_complete_host_against_listed(self, n, monkeypatch):
        # every subhypergraph peeled from K_n is complete, so none is listed;
        # the reference relabels listed edges one by one
        subs = []
        provider = lambda sub: subs.append(sub) or (
            log_cover(sub.n)[1] if sub.n >= 2 else Cover(2, ()))
        h = complete_hypergraph(n)
        res = peel_coloring(h, provider)
        assert all("edges" not in vars(sub) for sub in [h, *subs] if sub.n >= 2)

        def listed_induced(g, vertices):
            old = sorted(set(vertices))
            pos = {v: i for i, v in enumerate(old)}
            return Hypergraph(g.r, len(old), [tuple(pos[v] for v in e) for e in g.edges
                                              if set(e) <= pos.keys()]), old

        monkeypatch.setattr(bounds, "induced_subhypergraph", listed_induced)
        subs.clear()
        assert peel_coloring(Hypergraph(2, n, h.edges), provider) == res
        assert all(type(sub) is Hypergraph for sub in subs)
        assert is_proper_coloring(h, res.colors)

    def test_single_triple_two_colors(self):
        h = Hypergraph(3, 3, frozenset({(0, 1, 2)}))
        provider = lambda sub: Cover(
            3, tuple(singleton_block(e) for e in sub.edges)
        )
        res = peel_coloring(h, provider)
        assert len(set(res.colors)) <= 2
        assert res.survivor_sizes[0] >= 2
        assert is_proper_coloring(h, res.colors)

    def test_random_instances_proper(self):
        rng = random.Random(23)
        for _ in range(15):
            r = rng.choice((2, 3))
            h = random_hypergraph(rng, rng.randint(r, 6), r)
            provider = lambda sub: Cover(
                sub.r, tuple(singleton_block(e) for e in sub.edges)
            )
            res = peel_coloring(h, provider)
            assert is_proper_coloring(h, res.colors)


class TestBoundDominance:
    def test_order_bound_vs_exact_optimum(self):
        rng = random.Random(3)
        for _ in range(12):
            r = rng.choice((2, 3))
            n = rng.randint(r, 5)
            h = random_hypergraph(rng, n, r)
            alpha = independence_number(h)
            outcome = min_sum_of_orders(h)
            assert outcome.is_exact
            assert outcome.value >= ks_order_lower_bound(n, alpha, r) - 1e-9

    def test_any_cover_order_dominates_bound(self):
        rng = random.Random(9)
        for _ in range(12):
            r = rng.choice((2, 3))
            h = random_hypergraph(rng, rng.randint(r, 6), r)
            c = random_cover_of(rng, h)
            alpha = independence_number(h)
            assert sum_of_orders(c) >= ks_order_lower_bound(h.n, alpha, r) - 1e-9


def adjacency(n, edges):
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        rows[u][v] = rows[v][u] = 1
    return rows


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


class TestInertia:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete_graph(self, n):
        # eigenvalues n - 1 once and -1 n - 1 times
        assert inertia(adjacency(n, itertools.combinations(range(n), 2))) == (int(n > 1), n - 1)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 4), (2, 3), (3, 3)])
    def test_complete_bipartite(self, a, b):
        # +-sqrt(ab), the rest 0
        edges = [(u, a + v) for u in range(a) for v in range(b)]
        assert inertia(adjacency(a + b, edges)) == (1, 1)

    def test_five_cycle(self):
        # 2 cos(2 pi k / 5): 2, 0.618 twice, -1.618 twice
        assert inertia(adjacency(5, [(i, (i + 1) % 5) for i in range(5)])) == (3, 2)

    def test_petersen(self):
        # 3 once, 1 five times, -2 four times
        assert inertia(adjacency(10, PETERSEN)) == (6, 4)

    @pytest.mark.parametrize("n", (0, 1, 4))
    def test_empty_graph(self, n):
        assert inertia(adjacency(n, [])) == (0, 0)

    def test_rational_entries(self):
        # fraction-free elimination is exact only on integers, so others are refused
        for matrix in ([[Fraction(1, 2), 3], [3, Fraction(1, 3)]], [[0.5, 3], [3, 1]]):
            with pytest.raises(ValueError, match="integer"):
                inertia(matrix)
        assert inertia([[-2, 1], [1, -2]]) == (0, 2)


class TestLinkLowerBound:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_graham_pollak(self, n):
        assert link_lower_bound(complete_hypergraph(n), MultiplicityList.of(1)) == n - 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_alon_three_uniform(self, n):
        # the link of a vertex of K_n^3 is K_(n-1)
        assert link_lower_bound(complete_hypergraph(n, 3), MultiplicityList.of(1)) == n - 2

    @pytest.mark.parametrize("k", (2, 3))
    def test_any_single_multiplicity(self, k):
        # k times the link is still the sum of the bicliques
        assert link_lower_bound(complete_hypergraph(6), MultiplicityList.of(k)) == 5

    @pytest.mark.parametrize("lst", [MultiplicityList.any_positive(), MultiplicityList.up_to(2),
                                     MultiplicityList.of(1, 2), MultiplicityList.of(2, 4)],
                             ids=MultiplicityList.describe)
    def test_no_bound_for_other_lists(self, lst):
        assert link_lower_bound(complete_hypergraph(6), lst) == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_odd_lists_use_half_the_gf2_rank(self, n):
        # J - I over GF(2) has rank n for even n and n - 1 for odd n
        rows = adjacency(n, itertools.combinations(range(n), 2))
        rank = gf2_rank(GF2Matrix(n, n, [sum(bit << j for j, bit in enumerate(row))
                                         for row in rows]))
        assert rank == n - n % 2
        for lst in (MultiplicityList.of(1, 3), MultiplicityList.of(1, 3, 5)):
            assert link_lower_bound(complete_hypergraph(n), lst) == -(-rank // 2)

    def test_largest_link_counts(self):
        # K_5^3 plus a pendant triple: most vertex links are K_4, inertia (1, 3),
        # but that of 4 is K_4 plus the edge {5, 6}, inertia (2, 4)
        h = Hypergraph(3, 7, list(itertools.combinations(range(5), 3)) + [(4, 5, 6)])
        assert link_lower_bound(h, MultiplicityList.of(1)) == 4
        assert min_partition_size(h).value == 4

    def test_not_computed_above_the_work_cap(self, monkeypatch):
        h = complete_hypergraph(6)  # one link on 6 vertices: 216
        monkeypatch.setattr(bounds, "LINK_WORK_CAP", 215)
        assert link_lower_bound(h, MultiplicityList.of(1)) == 0
        monkeypatch.setattr(bounds, "LINK_WORK_CAP", 216)
        assert link_lower_bound(h, MultiplicityList.of(1)) == 5
