"""Differential checks: every optimized engine against a naive re-implementation.

The naive versions here are deliberately the dumbest possible enumerations so
the clever ones (bit-packed elimination, iterative deepening, branch and
bound) are never the only source of truth.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from conftest import random_hypergraph

from hypercover import (
    GF2Matrix,
    MultiplicityList,
    SubsetIndex,
    adjacency_cube_matrix,
    chromatic_number,
    complete_hypergraph,
    cube_graph,
    disjointness_matrix,
    disjointness_matrix_upto,
    enumerate_blocks,
    gf2_rank,
    independence_number,
    matching_number,
    min_cover_size,
    min_partition_size,
    min_sum_of_orders,
)

# gapped lists ({2}, {1,3}) need more than one multiplicity level in the search
LISTS = (MultiplicityList.any_positive(), MultiplicityList.up_to(2), MultiplicityList.of(2),
         MultiplicityList.of(1, 3), MultiplicityList.of(1))


def naive_min_cover(h, lst, candidates, max_t=4):
    """Try every multiset of candidate blocks of size 0..max_t."""
    block_edges = [list(b.implied_edges()) for b in candidates]
    for t in range(max_t + 1):
        for combo in itertools.combinations_with_replacement(block_edges, t):
            counts = Counter(e for edges in combo for e in edges)
            if all(counts[e] in lst for e in h.edges):
                return t
    return None


def naive_min_order(h, candidates):
    """Least total order of a set of candidates covering every edge, by a
    shortest-path sweep over all 2^|E| covered-edge sets in increasing order."""
    bit = {e: 1 << i for i, e in enumerate(h.sorted_edges())}
    blocks = [(sum(bit[e] for e in b.implied_edges()), b.order()) for b in candidates]
    best = {0: 0}
    for mask in range(1 << len(bit)):
        if mask not in best:
            continue
        for bmask, order in blocks:
            grown = mask | bmask
            if grown != mask:
                best[grown] = min(best.get(grown, math.inf), best[mask] + order)
    return best[(1 << len(bit)) - 1]


def naive_independence(h):
    best = 0
    for size in range(h.n, -1, -1):
        for subset in itertools.combinations(range(h.n), size):
            chosen = set(subset)
            if not any(set(e) <= chosen for e in h.edges):
                return size
    return best


def naive_matching(h):
    edges = h.sorted_edges()
    best = 0
    for size in range(len(edges), -1, -1):
        for combo in itertools.combinations(edges, size):
            verts = [v for e in combo for v in e]
            if len(verts) == len(set(verts)):
                return size
    return best


def naive_chromatic(h):
    if h.n == 0:
        return 0
    for k in range(1, h.n + 1):
        for coloring in itertools.product(range(k), repeat=h.n):
            if all(len(set(coloring[v] for v in e)) >= 2 for e in h.edges):
                return k
    return h.n


def naive_gf2_rank(matrix):
    rows = [[matrix.entry(i, j) for j in range(matrix.cols)] for i in range(matrix.rows)]
    rank = 0
    col = 0
    while rank < len(rows) and col < matrix.cols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def naive_cube_edges(r, m):
    """Filter every r-set of cube vertices by the definition: some coordinate
    shows all r fixed values."""
    n = (r + 1) ** m
    digits = [tuple(v // (r + 1) ** (m - 1 - j) % (r + 1) for j in range(m))
              for v in range(n)]
    return {combo for combo in itertools.combinations(range(n), r)
            if any({digits[v][j] for v in combo} == set(range(r)) for j in range(m))}


def naive_disjointness_rows(subsets):
    """Compare every pair of subsets."""
    masks = [sum(1 << v for v in s) for s in subsets]
    return tuple(sum(1 << j for j, mb in enumerate(masks) if not ma & mb) for ma in masks)


def naive_adjacency_rows(r, m):
    """Compare every pair of r/2-subsets: disjoint, and their union a cube edge."""
    edges = naive_cube_edges(r, m)
    subsets = list(SubsetIndex((r + 1) ** m, r // 2).subsets())
    return tuple(
        sum(1 << j for j, t in enumerate(subsets)
            if not set(s) & set(t) and tuple(sorted(s + t)) in edges)
        for s in subsets
    )


class TestSearchAgainstMultisetEnumeration:
    @pytest.mark.parametrize("seed", range(8))
    def test_small_graphs(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, rng.randint(2, 4), 2)
        candidates = enumerate_blocks(h)
        for lst in LISTS:
            expected = naive_min_cover(h, lst, candidates, max_t=4)
            got = min_cover_size(h, lst, candidates=candidates)
            if expected is not None:
                assert got.is_exact and got.value == expected
            else:
                assert (not got.is_exact) or got.value > 4

    @pytest.mark.parametrize("seed", range(4))
    def test_small_three_uniform(self, seed):
        rng = random.Random(100 + seed)
        h = random_hypergraph(rng, 4, 3)
        candidates = enumerate_blocks(h)
        expected = naive_min_cover(h, MultiplicityList.of(1), candidates, max_t=4)
        got = min_partition_size(h)
        assert expected is not None and got.value == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_five_vertices(self, seed):
        rng = random.Random(200 + seed)
        r = (2, 3)[seed % 2]
        h = random_hypergraph(rng, 5, r)
        candidates = enumerate_blocks(h)
        for lst in LISTS:
            got = min_cover_size(h, lst, candidates=candidates)
            assert got.is_exact and got.value == naive_min_cover(h, lst, candidates, max_t=6)

    def test_complete_graph_gapped_lists(self):
        # K_4 has a {1,2}-cover with 2 blocks, but a {1,3}-cover needs 3
        h = complete_hypergraph(4)
        candidates = enumerate_blocks(h)
        for lst in LISTS:
            got = min_cover_size(h, lst, candidates=candidates)
            assert got.is_exact and got.value == naive_min_cover(h, lst, candidates)
        assert min_cover_size(h, MultiplicityList.of(1, 3)).value == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_min_sum_of_orders(self, seed):
        rng = random.Random(300 + seed)
        r = (2, 3)[seed % 2]
        h = random_hypergraph(rng, rng.randint(r, 5), r)
        got = min_sum_of_orders(h)
        assert got.is_exact and got.value == naive_min_order(h, enumerate_blocks(h))
        assert sum(b.order() for b in got.witness.blocks) == got.value

    def test_forced_repeat_list(self):
        # multiplicity exactly 3 on a single edge: the one block, three times
        from hypercover import Hypergraph

        h = Hypergraph(2, 2, frozenset({(0, 1)}))
        candidates = enumerate_blocks(h)
        assert naive_min_cover(h, MultiplicityList.of(3), candidates) == 3
        assert min_cover_size(h, MultiplicityList.of(3)).value == 3


class TestNumbersAgainstSubsetEnumeration:
    @pytest.mark.parametrize("seed", range(10))
    def test_independence(self, seed):
        rng = random.Random(seed)
        r = rng.choice((2, 3))
        h = random_hypergraph(rng, rng.randint(r, 6), r)
        assert independence_number(h) == naive_independence(h)

    @pytest.mark.parametrize("seed", range(10))
    def test_matching(self, seed):
        rng = random.Random(50 + seed)
        r = rng.choice((2, 3))
        h = random_hypergraph(rng, rng.randint(r, 6), r)
        assert matching_number(h) == naive_matching(h)

    @pytest.mark.parametrize("seed", range(8))
    def test_chromatic(self, seed):
        rng = random.Random(80 + seed)
        r = rng.choice((2, 3))
        h = random_hypergraph(rng, rng.randint(r, 5), r)
        assert chromatic_number(h) == naive_chromatic(h)


class TestRankAgainstDenseElimination:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_matrices(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        data = tuple(rng.getrandbits(cols) for _ in range(rows))
        m = GF2Matrix(rows, cols, data)
        assert gf2_rank(m) == naive_gf2_rank(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_deficient_matrices(self, seed):
        # every row an XOR of a few random generators, so the rank is at most
        # the generator count and usually well below the row count
        rng = random.Random(100 + seed)
        cols = rng.randint(1, 40)
        gens = [rng.getrandbits(cols) for _ in range(rng.randint(1, 6))]
        data = []
        for _ in range(rng.randint(1, 30)):
            row = 0
            for g in rng.sample(gens, rng.randint(0, len(gens))):
                row ^= g
            data.append(row)
        m = GF2Matrix(len(data), cols, tuple(data))
        assert gf2_rank(m) == naive_gf2_rank(m) <= len(gens)

    def test_structured_matrices(self):
        for m in (disjointness_matrix(5, 2), disjointness_matrix(6, 2),
                  disjointness_matrix_upto(6, 2), adjacency_cube_matrix(4, 1),
                  adjacency_cube_matrix(4, 2), adjacency_cube_matrix(6, 1)):
            assert gf2_rank(m) == naive_gf2_rank(m)


class TestCubeAgainstDefinition:
    @pytest.mark.parametrize("r,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                     (3, 3), (4, 1), (4, 2), (5, 1), (6, 1)])
    def test_cube_graph_edges(self, r, m):
        assert cube_graph(r, m).hypergraph.edges == naive_cube_edges(r, m)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_disjointness_rows(self, n):
        for k in range(n + 1):
            exact = list(SubsetIndex(n, k).subsets())
            assert disjointness_matrix(n, k).data == naive_disjointness_rows(exact)
            upto = [s for i in range(k + 1) for s in SubsetIndex(n, i).subsets()]
            assert disjointness_matrix_upto(n, k).data == naive_disjointness_rows(upto)

    @pytest.mark.parametrize("r,m", [(4, 1), (4, 2), (6, 1)])
    def test_adjacency_rows(self, r, m):
        assert adjacency_cube_matrix(r, m).data == naive_adjacency_rows(r, m)
