"""Packed GF(2) linear algebra and the rank certificates."""

import math
import random
import time

import pytest

from conftest import entry

from hypercover import (
    GF2Matrix,
    GuardError,
    adjacency_cube_matrix,
    disjointness_matrix,
    disjointness_matrix_upto,
    gf2_rank,
    partition_lower_bound,
    pi_partition,
    rank_bound_from_cover,
)
from hypercover.gf2 import colex_subsets


class TestGF2Matrix:
    @pytest.mark.parametrize("row", [2.7, "3", True])
    def test_rows_that_are_not_ints_are_refused(self, row):
        # refused, not converted to 2, 3 or 1
        with pytest.raises(ValueError, match="rows must be integers"):
            GF2Matrix(1, 3, [row])


class TestRank:
    def test_zero_matrix(self):
        assert gf2_rank(GF2Matrix(4, 4, (0, 0, 0, 0))) == 0

    def test_identity(self):
        assert gf2_rank(GF2Matrix(5, 5, tuple(1 << i for i in range(5)))) == 5

    def test_dependent_rows(self):
        assert gf2_rank(GF2Matrix(3, 3, (0b011, 0b101, 0b110))) == 2

    def test_permutation_invariance(self):
        rng = random.Random(7)
        m = disjointness_matrix(5, 2)
        base = gf2_rank(m)
        rows = list(m.data)
        for _ in range(5):
            rng.shuffle(rows)
            perm = list(range(m.cols))
            rng.shuffle(perm)
            shuffled = tuple(
                sum(((row >> j) & 1) << perm[j] for j in range(m.cols))
                for row in rows
            )
            assert gf2_rank(GF2Matrix(m.rows, m.cols, shuffled)) == base


class TestSubsetIndex:
    """The index of a subset is its position in colex_subsets."""

    def test_colex_order_small(self):
        assert colex_subsets(4, 2) == [
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
        ]

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 1), (4, 4), (0, 0)])
    def test_bijection(self, n, k):
        # the combinatorial number system: the subset s_0 < ... < s_{k-1} has
        # colex index sum C(s_j, j+1), so the order is not checked against the
        # sort it is built from
        subsets = colex_subsets(n, k)
        assert len(subsets) == math.comb(n, k)
        for i, s in enumerate(subsets):
            assert len(s) == k and list(s) == sorted(set(s)) and all(0 <= x < n for x in s)
            assert sum(math.comb(x, j + 1) for j, x in enumerate(s)) == i


class TestDisjointnessMatrix:
    def test_d21(self):
        m = disjointness_matrix(2, 1)
        assert [[entry(m, i, j) for j in range(2)] for i in range(2)] == [[0, 1], [1, 0]]
        assert gf2_rank(m) == 2

    def test_d42_full_rank(self):
        m = disjointness_matrix(4, 2)
        assert m.rows == 6
        assert gf2_rank(m) == 6

    def test_d63_full_rank(self):
        m = disjointness_matrix(6, 3)
        assert m.rows == 20
        assert gf2_rank(m) == 20

    def test_exact_size_not_always_full(self):
        # the exact-k matrix is only a permutation matrix when n = 2k; for
        # n = 5, k = 2 it is the Petersen adjacency, singular over GF(2)
        assert gf2_rank(disjointness_matrix(5, 2)) < 10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_upto_full_rank(self, n):
        for k in range(0, min(3, n) + 1):
            m = disjointness_matrix_upto(n, k)
            assert m.rows == sum(math.comb(n, i) for i in range(k + 1))
            assert gf2_rank(m) == m.rows

    def test_symmetry(self):
        m = disjointness_matrix(5, 2)
        for i in range(m.rows):
            for j in range(m.cols):
                assert entry(m, i, j) == entry(m, j, i)


    @pytest.mark.parametrize("build", [disjointness_matrix, disjointness_matrix_upto])
    def test_guard_refuses_the_largest_term_first(self, build):
        # the exact row count, a sum of C(20000, size), has more digits than
        # an int may print, so the guard must refuse it before forming it
        start = time.perf_counter()
        with pytest.raises(GuardError, match="exceeds guard"):
            build(20_000, 10_000)
        assert time.perf_counter() - start < 1

    def test_guard_prints_a_count_that_fits(self):
        with pytest.raises(GuardError, match="^disjointness_matrix rows: 166661666700000"
                                             " exceeds guard 20000 "):
            disjointness_matrix(100_000, 3)

    def test_pinned_ranks(self):
        assert gf2_rank(disjointness_matrix(12, 6)) == 924
        assert gf2_rank(disjointness_matrix_upto(12, 5)) == 1586


class TestAdjacencyCube:
    def test_r4_m1_structure(self):
        m = adjacency_cube_matrix(4, 1)
        assert m.rows == 10
        index = colex_subsets(5, 2).index
        i = index((0, 1))
        j = index((2, 3))
        assert entry(m, i, j) == 1  # union is the unique edge {0,1,2,3}
        assert entry(m, i, index((1, 2))) == 0  # overlapping subsets

    def test_r4_m1_rank(self):
        assert gf2_rank(adjacency_cube_matrix(4, 1)) >= 6

    def test_symmetric_and_zero_when_subsets_intersect(self):
        m = adjacency_cube_matrix(4, 1)
        subs = colex_subsets(5, 2)
        for i, a in enumerate(subs):
            for j, b in enumerate(subs):
                assert entry(m, i, j) == entry(m, j, i)
                if set(a) & set(b):
                    assert entry(m, i, j) == 0

    def test_odd_r_rejected(self):
        with pytest.raises(ValueError):
            adjacency_cube_matrix(3, 1)
        with pytest.raises(ValueError):
            adjacency_cube_matrix(2, 1)


class TestPartitionBounds:
    def test_even_values(self):
        assert partition_lower_bound(4, 1) == 1
        assert partition_lower_bound(4, 2) == 8

    def test_odd_uses_r_minus_one(self):
        assert partition_lower_bound(3, 2) == 4
        assert partition_lower_bound(3, 1) == 1

    def test_rank_budget(self):
        assert rank_bound_from_cover(1, 4) == 6
        assert rank_bound_from_cover(0, 4) == 0
        assert rank_bound_from_cover(8, 4) == 48
        with pytest.raises(ValueError):
            rank_bound_from_cover(1, 3)

    def test_partition_rank_subadditivity(self):
        # any d-block partition forces adjacency rank <= d * C(r, r/2)
        for m in (1, 2):
            rank = gf2_rank(adjacency_cube_matrix(4, m))
            blocks = len(pi_partition(4, m).blocks)
            assert rank <= rank_bound_from_cover(blocks, 4)

