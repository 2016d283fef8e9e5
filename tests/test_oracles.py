"""Exact brute-force oracles: candidate enumeration and minimum searches."""

import dataclasses
import gc
import inspect
import random
import sys
import time

import pytest

from conftest import implied_edges, random_hypergraph

from hypercover import (
    Cover,
    GuardError,
    Hypergraph,
    MultiplicityList,
    RPartiteBlock,
    SearchBudget,
    chromatic_number,
    complete_hypergraph,
    cube_graph,
    enumerate_blocks,
    independence_number,
    link_lower_bound,
    matching_cover_lower_bound,
    matching_number,
    min_cover_size,
    min_partition_size,
    min_sum_of_orders,
    partition_lower_bound,
    pinto_upper_bound,
    verify_cover,
    verify_partition,
)
from hypercover import oracles

ANY = MultiplicityList.any_positive()


def stirling2(n: int, k: int) -> int:
    """The partitions of n labelled elements into k non-empty classes."""
    row = [1] + [0] * k  # S(0, j) for j = 0..k
    for _ in range(n):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row[k]


class TestEnumerateBlocks:
    def test_k3_count(self):
        assert len(enumerate_blocks(complete_hypergraph(3))) == 6

    def test_k4_count_golden(self):
        assert len(enumerate_blocks(complete_hypergraph(4))) == 25

    def test_single_triple(self):
        h = Hypergraph(3, 3, frozenset({(0, 1, 2)}))
        assert len(enumerate_blocks(h)) == 1

    def test_respects_edges(self):
        h = Hypergraph(2, 3, frozenset({(0, 1)}))
        blocks = enumerate_blocks(h)
        assert len(blocks) == 1
        assert implied_edges(blocks[0]) == [(0, 1)]

    def test_guard(self):
        # K_12's table counts about 1.9 * 10^7 work, over the guard
        with pytest.raises(GuardError, match="block table work"):
            enumerate_blocks(complete_hypergraph(12))

    def test_guard_override_env(self, monkeypatch):
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", "1")
        blocks = enumerate_blocks(complete_hypergraph(12))
        # unordered pairs of disjoint non-empty subsets: (3^12 - 2*2^12 + 1) / 2
        assert len(blocks) == (3**12 - 2 * 2**12 + 1) // 2

    @pytest.mark.parametrize("value", ["0", "", "true"])
    def test_guard_override_only_by_one(self, monkeypatch, value):
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", value)
        with pytest.raises(GuardError):
            enumerate_blocks(complete_hypergraph(12))

    def test_depth_does_not_grow_with_vertices(self, monkeypatch):
        # a frame per vertex would need 150 frames beyond the 100 left here
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", "1")
        h = Hypergraph(150, 150, [tuple(range(150))])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            blocks = enumerate_blocks(h)
        finally:
            sys.setrecursionlimit(limit)
        assert [b.parts for b in blocks] == [tuple((v,) for v in range(150))]


class TestBlockTable:
    """One block table per hypergraph, shared by equal hypergraphs while one
    is alive, dropped with the last of them, and never a way round the
    enumeration guard."""

    @pytest.mark.parametrize("lst", [ANY, MultiplicityList.up_to(2), MultiplicityList.of(2),
                                     MultiplicityList.of(1, 3), MultiplicityList.of(1)],
                             ids=MultiplicityList.describe)
    def test_repeated_searches_agree(self, lst):
        edges = random_hypergraph(random.Random(5), 6, 3).edges
        h = Hypergraph(3, 6, edges)
        first = min_cover_size(h, lst)
        assert min_cover_size(h, lst) == first
        equal = Hypergraph(3, 6, edges)
        assert oracles._block_table(equal) is oracles._block_table(h)
        assert min_cover_size(equal, lst) == first
        assert first.is_exact and first.nodes > 0 and verify_cover(h, first.witness, lst).ok

    def test_repeated_orders_and_partitions_agree(self):
        h = complete_hypergraph(4)
        orders, partition = min_sum_of_orders(h), min_partition_size(h)
        fresh = complete_hypergraph(4)
        assert (min_sum_of_orders(fresh), min_partition_size(fresh)) == (orders, partition)
        assert (min_sum_of_orders(h), min_partition_size(h)) == (orders, partition)

    def test_entry_dropped_with_the_hypergraph(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        h = Hypergraph(2, 5, edges)
        min_partition_size(h)
        assert Hypergraph(2, 5, edges) in oracles._TABLES
        del h
        gc.collect()
        assert Hypergraph(2, 5, edges) not in oracles._TABLES

    def test_guard_checked_on_every_lookup(self, monkeypatch):
        # a path on 9 of 4,000 vertices: the stars and adjacency masks may take
        # 4,000 * (8 + 4,000) bits, over the guard before the first block
        h = Hypergraph(2, 4000, [(v, v + 1) for v in range(8)])
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", "1")
        assert min_partition_size(h).value == 4
        assert h in oracles._TABLES
        monkeypatch.delenv("HYPERCOVER_GUARD_OVERRIDE")
        for search in (min_partition_size, enumerate_blocks,
                       lambda h: min_cover_size(h, ANY)):
            with pytest.raises(GuardError):
                search(h)

    @pytest.mark.parametrize("n,r,blocks,maximal", [
        (6, 2, 301, 31), (8, 3, 7770, 966), (7, 4, 1050, 350), (8, 4, 6951, 1701),
        (7, 5, 266, 140), (8, 5, 2646, 1050), (8, 6, 462, 266)])
    def test_complete_hypergraph_counts_are_stirling_numbers(self, n, r, blocks, maximal):
        # a block's r parts and, as one more class, a new vertex with the vertices
        # the block leaves out partition n + 1 vertices into r + 1 classes:
        # S(n + 1, r + 1) blocks; a maximal block leaves none out: S(n, r)
        assert (blocks, maximal) == (stirling2(n + 1, r + 1), stirling2(n, r))
        table = oracles._BlockTable(complete_hypergraph(n, r))
        assert (len(table.parts), len(table.maximal[0])) == (blocks, maximal)

    def test_sparse_matching_opens_parts_only_among_neighbours(self):
        # 3^24 part assignments, but a part opens only with a vertex that
        # shares an edge with every vertex placed so far: 12 blocks, the edges
        h = Hypergraph(2, 24, [(2 * i, 2 * i + 1) for i in range(12)])
        t0 = time.perf_counter()
        outcome = min_partition_size(h)
        assert time.perf_counter() - t0 < 5
        assert oracles._block_table(h).parts == [((2 * i,), (2 * i + 1,)) for i in range(12)]
        assert outcome.is_exact and outcome.value == 12

    @pytest.mark.parametrize("h,blocks", [
        (complete_hypergraph(9), (3**9 - 2 * 2**9 + 1) // 2),
        (complete_hypergraph(10), (3**10 - 2 * 2**10 + 1) // 2),
        (complete_hypergraph(8, 3), stirling2(9, 4)),
        (Hypergraph(2, 24, [(2 * i, 2 * i + 1) for i in range(12)]), 12),
        (cube_graph(2, 2).hypergraph, 169),
    ], ids=["K_9", "K_10", "K_8^3", "matching", "cube(2,2)"])
    def test_admitted_without_override(self, monkeypatch, h, blocks):
        # each builds in milliseconds, though it has 3^9 or more part assignments
        monkeypatch.delenv("HYPERCOVER_GUARD_OVERRIDE", raising=False)
        table = oracles._block_table(h)
        assert len(table.parts) == blocks
        assert table.work <= oracles.TABLE_WORK_GUARD

    @pytest.mark.parametrize("n,r", [(8, 2), (7, 3), (6, 4), (5, 5)])
    def test_complete_hosts_bound_their_vertex_counts(self, monkeypatch, n, r):
        # every h on n vertices counts no more work than K_n^r: its states,
        # the vertices they visit, its blocks and its edges are fewer
        monkeypatch.delenv("HYPERCOVER_GUARD_OVERRIDE", raising=False)
        rng = random.Random(n * r)
        for h in [complete_hypergraph(n, r)] + [random_hypergraph(rng, n, r, p)
                                                for p in (0.3, 0.6, 0.9)]:
            assert oracles._BlockTable(h).work <= oracles._block_table(
                complete_hypergraph(n, r)).work <= oracles.TABLE_WORK_GUARD

    def test_environment_read_once_past_the_guard(self, monkeypatch):
        # the count crosses the guard once; from then on no check reads the
        # environment again, at any pop or doubling of W
        calls = []
        check = oracles.check_guard
        monkeypatch.setattr(oracles, "check_guard",
                            lambda *args: calls.append(args) or check(*args))
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", "1")
        table = oracles._BlockTable(complete_hypergraph(12))
        assert len(calls) == 1 and table.work > oracles.TABLE_WORK_GUARD
        star = Hypergraph(2, 21, [(0, v) for v in range(1, 21)])
        assert len(oracles._BlockTable(star).parts) == 2**20 - 1
        assert len(calls) == 2

    def test_wide_w_refused_before_its_lists(self, monkeypatch):
        # the star K_{1,40} has 2^40 - 1 blocks, all subsets of its leaves
        # beside the centre; the count passes the guard within 2^18 of them
        monkeypatch.delenv("HYPERCOVER_GUARD_OVERRIDE", raising=False)
        star = Hypergraph(2, 41, [(0, v) for v in range(1, 41)])
        start = time.perf_counter()
        with pytest.raises(GuardError, match="block table work"):
            oracles._BlockTable(star)
        assert time.perf_counter() - start < 2

    def test_every_visit_counted(self, monkeypatch):
        # 2^16 first parts, each a subset of 16 vertices beside two common
        # neighbours, but only 32 blocks: the vertices each state's loops may
        # visit are counted, so the guard refuses 2^23 such states in time
        monkeypatch.delenv("HYPERCOVER_GUARD_OVERRIDE", raising=False)

        def fan(a):
            b1, b2 = 3 * a, 3 * a + 1
            return Hypergraph(3, 3 * a + 2, [(i, a + i, b1) for i in range(a)]
                              + [(i, 2 * a + i, b2) for i in range(a)])

        assert len(oracles._BlockTable(fan(12)).parts) == 24
        start = time.perf_counter()
        with pytest.raises(GuardError, match="block table work"):
            oracles._BlockTable(fan(23))
        assert time.perf_counter() - start < 2


class TestMinPartition:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_graham_pollak(self, n):
        outcome = min_partition_size(complete_hypergraph(n))
        assert outcome.is_exact and outcome.value == n - 1
        assert verify_partition(complete_hypergraph(n), outcome.witness).ok

    @pytest.mark.parametrize("n", (4, 5))
    def test_three_uniform(self, n):
        outcome = min_partition_size(complete_hypergraph(n, 3))
        assert outcome.is_exact and outcome.value == n - 2

    def test_single_edge(self):
        h = Hypergraph(3, 4, frozenset({(0, 1, 2)}))
        assert min_partition_size(h).value == 1

    def test_empty(self):
        assert min_partition_size(Hypergraph(2, 3)).value == 0

    @pytest.mark.parametrize("r,expected", [(2, 6), (3, 5)])
    def test_seven_vertices_within_default_budget(self, r, expected):
        # the link bound is tight, so the first level searched has the witness
        h = complete_hypergraph(7, r)
        outcome = min_partition_size(h)
        assert outcome.is_exact and outcome.value == expected
        assert verify_partition(h, outcome.witness).ok

    @pytest.mark.parametrize("r,m", [(3, 1), (4, 1)])
    def test_cube_between_bounds(self, r, m):
        h = cube_graph(r, m).hypergraph
        outcome = min_partition_size(h)
        assert partition_lower_bound(r, m) <= outcome.value <= pinto_upper_bound(r, m)


class TestMinCover:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
    def test_log_cover_number(self, n, expected):
        outcome = min_cover_size(complete_hypergraph(n), ANY)
        assert outcome.is_exact and outcome.value == expected
        assert verify_cover(complete_hypergraph(n), outcome.witness, ANY).ok

    def test_k3_partition_needs_two(self):
        assert min_cover_size(complete_hypergraph(3), MultiplicityList.of(1)).value == 2

    def test_finite_range_list_matches_unbounded_here(self):
        # {1..4} admits the bit-cover of K_4 just like the unbounded list
        h = complete_hypergraph(4)
        outcome = min_cover_size(h, MultiplicityList.up_to(4))
        assert outcome.value == 2
        assert verify_cover(h, outcome.witness, MultiplicityList.up_to(4)).ok

    def test_specific_list_requires_doubling(self):
        # one edge, multiplicity forced to exactly 2: the only block must repeat
        h = Hypergraph(2, 2, frozenset({(0, 1)}))
        outcome = min_cover_size(h, MultiplicityList.of(2))
        assert outcome.value == 2

    def test_partition_at_least_any_cover(self):
        rng = random.Random(17)
        for _ in range(10):
            r = rng.choice((2, 3))
            h = random_hypergraph(rng, rng.randint(r, 5), r)
            part = min_partition_size(h).value
            assert part >= min_cover_size(h, ANY).value
            assert part >= min_cover_size(h, MultiplicityList.of(1, 2)).value

    def test_budget_exhaustion_reports_unknown(self):
        h = complete_hypergraph(5)
        outcome = min_cover_size(h, MultiplicityList.of(1), SearchBudget(max_blocks=2))
        assert not outcome.is_exact
        assert outcome.status == "unknown"
        assert outcome.lower == 4  # the link bound n - 1 rules out sizes 0..3
        assert outcome.value is None

    def test_budget_exhaustion_without_a_link_bound(self):
        # no link bound holds for 1..2, so the levels 0..1 searched are what is proven
        h = complete_hypergraph(5)
        outcome = min_cover_size(h, MultiplicityList.up_to(2), SearchBudget(max_blocks=1))
        assert outcome.status == "unknown" and outcome.value is None
        assert outcome.lower == 2
        assert outcome.nodes > 0

    def test_link_bound_not_computed_above_its_work_cap(self):
        # a matching on 2,000 vertices is one link of m = 2,000 vertices,
        # m^3 = 8*10^9 over the cap
        h = Hypergraph(2, 2000, [(2 * i, 2 * i + 1) for i in range(1000)])
        start = time.perf_counter()
        assert link_lower_bound(h, MultiplicityList.of(1)) == 0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), 0.0, -1.0])
    def test_budget_rejects_non_finite_or_non_positive_seconds(self, seconds):
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=seconds)

    # lists with m0 = min L >= 2 cut states by each edge's whole deficit; a cut
    # counting planes[k] in place of planes[k - 1] gave K_5 {2,3} = 5 and K_6 {2} = 6
    @pytest.mark.parametrize("n,r,spec,expected", [
        (5, 2, "2,3", 4), (6, 2, "2", 5), (6, 2, "2,3", 5),
        (5, 3, "2,3", 5), (6, 3, "2", 5), (6, 3, "2,3", 5),
    ])
    def test_lists_above_one(self, n, r, spec, expected):
        h, lst = complete_hypergraph(n, r), MultiplicityList.parse(spec)
        outcome = min_cover_size(h, lst)
        assert outcome.is_exact and outcome.value == expected
        assert verify_cover(h, outcome.witness, lst).ok


class TestSearchStop:
    def test_exact(self):
        outcome = min_partition_size(complete_hypergraph(4))
        assert outcome.status == "exact" and outcome.stop == "exact"

    def test_link_bound_above_max_blocks(self):
        outcome = min_partition_size(complete_hypergraph(4), SearchBudget(max_blocks=1))
        assert outcome.status == "unknown" and outcome.lower == 3
        assert outcome.stop == "max_blocks"

    def test_levels_run_out(self):
        # K_4 needs 3 blocks for {1,3}; levels 0..2 are searched and fail
        outcome = min_cover_size(complete_hypergraph(4), MultiplicityList.of(1, 3),
                                 SearchBudget(max_blocks=2))
        assert outcome.status == "unknown" and outcome.lower == 3 and outcome.nodes > 0
        assert outcome.stop == "max_blocks"

    def test_no_list_value_within_max_blocks(self):
        outcome = min_cover_size(complete_hypergraph(4), MultiplicityList.of(5),
                                 SearchBudget(max_blocks=2))
        assert outcome.status == "unknown" and outcome.lower == 3 and outcome.nodes == 0
        assert outcome.stop == "max_blocks"

    def test_timeout(self):
        outcome = min_cover_size(complete_hypergraph(7), MultiplicityList.of(1, 3),
                                 SearchBudget(max_seconds=1e-6))
        assert outcome.status == "unknown" and outcome.stop == "timeout"
        assert 0 < outcome.lower <= 4  # K_7 {1,3} is 4

    def test_timeout_of_a_cost_search(self):
        outcome = min_sum_of_orders(complete_hypergraph(5), SearchBudget(max_seconds=1e-9))
        assert outcome.stop == "timeout"

    @pytest.mark.parametrize("value,stop", [
        (3, "timeout"), (3, "max_blocks"), (None, "exact"), (None, "budget"),
    ])
    def test_stop_agrees_with_value(self, value, stop):
        with pytest.raises(ValueError):
            oracles.SearchOutcome(3, value, stop=stop)

    @pytest.mark.parametrize("value,stop,status", [
        (3, "exact", "exact"), (None, "timeout", "unknown"), (None, "max_blocks", "unknown"),
    ])
    def test_status_follows_stop(self, value, stop, status):
        outcome = oracles.SearchOutcome(3, value, stop=stop)
        assert outcome.status == status and outcome.is_exact is (status == "exact")
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.status = "exact"

    @pytest.mark.parametrize("status,lower,value,stop,upper", [
        ("exact", 3, 3, "exact", 4), ("unknown", 5, None, "timeout", 4),
        ("unknown", 5, None, "max_blocks", 4),
    ])
    def test_upper_agrees_with_bracket(self, status, lower, value, stop, upper):
        with pytest.raises(ValueError):
            oracles.SearchOutcome(lower, value, stop=stop, upper=upper)
        # the same outcome without that upper end stands, with this status
        assert oracles.SearchOutcome(lower, value, stop=stop).status == status

    def test_exact_upper_is_the_value(self):
        assert oracles.SearchOutcome(3, 3).upper == 3


def bracket_corpus():
    """Seeded random hypergraphs at r = 2, 3 on up to 6 vertices, and K_4..K_6,
    K_4^3..K_6^3."""
    rng = random.Random(2600)
    corpus = [complete_hypergraph(n, r) for r in (2, 3) for n in (4, 5, 6)]
    for i in range(16):
        r = (2, 3)[i % 2]
        corpus.append(random_hypergraph(rng, rng.randint(r, 6), r))
    return corpus


class TestSearchBracket:
    """Every outcome carries the proven bracket [lower, upper]: upper is the
    value of an exact outcome, and otherwise the cost of min L copies of each
    edge as a block of singletons, a cover that always exists."""

    BUDGETS = (SearchBudget(), SearchBudget(max_blocks=2), SearchBudget(max_seconds=1e-6))

    @staticmethod
    def trivial_cover(h, lst):
        m0 = 1 if lst.allowed is None else min(lst.allowed)
        return Cover(h.r, tuple(RPartiteBlock(tuple((v,) for v in e))
                                for e in h.edges for _ in range(m0)))

    def assert_bracket(self, h, lst, outcome, cost):
        trivial = self.trivial_cover(h, lst)
        assert verify_cover(h, trivial, lst).ok
        assert outcome.lower <= outcome.upper
        if outcome.is_exact:
            assert outcome.upper == outcome.value <= cost(trivial)
        else:
            assert outcome.upper == cost(trivial)

    @pytest.mark.parametrize("h", bracket_corpus(), ids=lambda h: f"r{h.r}n{h.n}e{len(h.edges)}")
    def test_covers(self, h):
        for lst in (ANY, MultiplicityList.up_to(2), MultiplicityList.of(2),
                    MultiplicityList.of(1, 3), MultiplicityList.of(1)):
            for budget in self.BUDGETS:
                self.assert_bracket(h, lst, min_cover_size(h, lst, budget), len)

    @pytest.mark.parametrize("h", [h for h in bracket_corpus() if h.n <= 5],
                             ids=lambda h: f"r{h.r}n{h.n}e{len(h.edges)}")
    def test_orders(self, h):
        for budget in self.BUDGETS:
            self.assert_bracket(h, ANY, min_sum_of_orders(h, budget),
                                lambda c: sum(b.order() for b in c.blocks))


class TestMinSumOfOrders:
    def test_k2(self):
        assert min_sum_of_orders(complete_hypergraph(2)).value == 2

    def test_k4_bit_cover_optimal(self):
        outcome = min_sum_of_orders(complete_hypergraph(4))
        assert outcome.value == 8
        assert sum(b.order() for b in outcome.witness.blocks) == 8

    def test_single_triple(self):
        h = Hypergraph(3, 3, frozenset({(0, 1, 2)}))
        assert min_sum_of_orders(h).value == 3

    def test_k6_exact(self, monkeypatch):
        # no cap on the vertices: the table guard and the time budget bound it
        monkeypatch.delenv("HYPERCOVER_GUARD_OVERRIDE", raising=False)
        h = complete_hypergraph(6)
        outcome = min_sum_of_orders(h)
        assert outcome.is_exact and outcome.value == 16
        assert verify_cover(h, outcome.witness, ANY).ok
        assert sum(b.order() for b in outcome.witness.blocks) == 16

    def test_timeout_reports_proven_lower_bound(self):
        # the optimum for K_5 is 12; every total below the reported lower is ruled out
        outcome = min_sum_of_orders(complete_hypergraph(5), SearchBudget(max_seconds=1e-9))
        assert outcome.status == "unknown" and outcome.value is None
        assert 0 < outcome.lower <= 12
        assert min_sum_of_orders(complete_hypergraph(5)).value == 12


class TestIndependenceNumber:
    def test_complete_graph(self):
        assert independence_number(complete_hypergraph(4)) == 1

    @pytest.mark.parametrize("n,r", [(4, 3), (6, 3), (9, 4)])
    def test_complete_r_uniform(self, n, r):
        assert independence_number(complete_hypergraph(n, r)) == r - 1

    def test_cube_2_2_golden(self):
        # frozen by exhaustive 2^9 subset check when the oracle was written
        assert independence_number(cube_graph(2, 2).hypergraph) == 4

    def test_edgeless(self):
        assert independence_number(Hypergraph(2, 6)) == 6

    def test_large_complete_fast(self):
        assert independence_number(complete_hypergraph(19)) == 1

    def test_guard(self):
        with pytest.raises(GuardError):
            independence_number(Hypergraph(2, 21))


class TestMatchingNumber:
    def test_k4(self):
        assert matching_number(complete_hypergraph(4)) == 2

    def test_k9_3(self):
        assert matching_number(complete_hypergraph(9, 3)) == 3

    def test_single_edge(self):
        assert matching_number(Hypergraph(3, 3, frozenset({(0, 1, 2)}))) == 1

    def test_greedy_not_optimal_instance(self):
        # greedy takes (1,2) and blocks both (0,1) and (2,3); optimum is 2
        h = Hypergraph(2, 4, frozenset({(1, 2), (0, 1), (2, 3)}))
        assert matching_number(h) == 2

    def test_shortcut_skips_guard_when_tight(self):
        # 84 edges exceed the search guard, but greedy meets the n // r cap
        assert matching_number(complete_hypergraph(9, 3)) == 3

    def test_search_runs_when_shortcut_misses(self):
        star = Hypergraph(2, 20, frozenset((0, v) for v in range(1, 20)))
        assert matching_number(star) == 1

    def test_guard_when_search_needed(self):
        star = Hypergraph(2, 33, frozenset((0, v) for v in range(1, 33)))
        with pytest.raises(GuardError):
            matching_number(star)


class TestChromaticNumber:
    def test_k4(self):
        assert chromatic_number(complete_hypergraph(4)) == 4

    def test_k5_3(self):
        assert chromatic_number(complete_hypergraph(5, 3)) == 3

    def test_edgeless(self):
        assert chromatic_number(Hypergraph(2, 5)) == 1

    def test_k12_fast(self):
        assert chromatic_number(complete_hypergraph(12)) == 12

    def test_guard(self):
        with pytest.raises(GuardError):
            chromatic_number(complete_hypergraph(13))


class TestBoundDominance:
    def test_cover_number_vs_matching_bound(self):
        rng = random.Random(31)
        for _ in range(30):
            r = rng.choice((2, 3))
            h = random_hypergraph(rng, rng.randint(r, 6), r)
            bc = min_cover_size(h, ANY).value
            nu = matching_number(h)
            assert bc >= matching_cover_lower_bound(nu, len(h.edges), r) - 1e-9
