"""Grid constructions and the two classical baselines."""

import itertools
import math

import pytest

from conftest import implied_edges

from hypercover import MultiplicityList, multiplicity_profile, verify_cover, verify_partition
from hypercover.grids import (
    grid3_cover,
    hex_coordinates,
    hex_cover,
    log_cover,
    star_partition,
)


class TestHexCover:
    def test_m1_trivial(self):
        h, c = hex_cover(1)
        assert h.n == 1 and len(c.blocks) == 0
        assert verify_cover(h, c, MultiplicityList.of(2, 3)).ok  # vacuous

    @pytest.mark.parametrize("m", range(2, 7))
    def test_covers_with_list_23(self, m):
        h, c = hex_cover(m)
        assert h.n == 3 * m * m - 3 * m + 1
        assert len(c.blocks) <= 6 * m - 3
        assert verify_cover(h, c, MultiplicityList.of(2, 3)).ok

    @pytest.mark.parametrize("m", range(2, 7))
    def test_budget_beats_sqrt_bound(self, m):
        n = 3 * m * m - 3 * m + 1
        assert 6 * m - 3 < 2 * math.sqrt(3) * math.sqrt(n)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_multiplicity_is_three_minus_shared_lines(self, m):
        coords = hex_coordinates(m)
        h, c = hex_cover(m)
        profile = multiplicity_profile(h, c)
        for (i, a), (j, b) in itertools.combinations(enumerate(coords), 2):
            shared = sum(p == q for p, q in zip(a, b))
            assert shared <= 1  # two distinct cells share at most one line
            assert profile.count((i, j)) == 3 - shared

    def test_coordinate_count_formula(self):
        for m in range(1, 8):
            assert len(hex_coordinates(m)) == 3 * m * m - 3 * m + 1

    def test_vertex_ids_follow_xy_order(self):
        coords = hex_coordinates(4)
        assert coords == sorted(coords, key=lambda c: (c[0], c[1]))

    def test_coordinate_invariant(self):
        # every cell is an (x, y, z) tuple of cube coordinates summing to 0
        for m in range(1, 8):
            for cell in hex_coordinates(m):
                assert type(cell) is tuple and len(cell) == 3 and sum(cell) == 0


class TestGrid3Cover:
    def test_m2_perfect_partition(self):
        h, c = grid3_cover(2)
        assert h.n == 4 and len(c.blocks) == 2
        assert verify_partition(h, c).ok

    @pytest.mark.parametrize("m", range(3, 7))
    def test_covers_with_list_1234(self, m):
        h, c = grid3_cover(m)
        assert h.n == m * m
        assert len(c.blocks) == 6 * m - 10
        assert verify_cover(h, c, MultiplicityList.up_to(4)).ok

    @pytest.mark.parametrize("m", range(2, 7))
    def test_family_contributes_at_most_once(self, m):
        # per direction the middle line of a triple is unique, so each of the
        # four families covers a triple at most once
        _, c = grid3_cover(m)
        sizes = [m - 2, m - 2, 2 * m - 3, 2 * m - 3]
        start = 0
        for size in sizes:
            counts = {}
            for b in c.blocks[start : start + size]:
                for e in implied_edges(b):
                    counts[e] = counts.get(e, 0) + 1
            assert all(v == 1 for v in counts.values())
            start += size
        assert start == len(c.blocks)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            grid3_cover(1)


class TestStarPartition:
    def test_n2(self):
        h, c = star_partition(2)
        assert len(c.blocks) == 1

    @pytest.mark.parametrize("n", range(2, 33))
    def test_partitions(self, n):
        h, c = star_partition(n)
        assert len(c.blocks) == n - 1
        assert verify_partition(h, c).ok

    def test_sum_of_orders_n8(self):
        _, c = star_partition(8)
        assert sum(b.order() for b in c.blocks) == sum(range(2, 9))


class TestLogCover:
    def test_small(self):
        assert len(log_cover(2)[1].blocks) == 1
        h, c = log_cover(4)
        assert len(c.blocks) == 2
        assert verify_cover(h, c, MultiplicityList.of(1, 2)).ok

    def test_n8(self):
        h, c = log_cover(8)
        assert len(c.blocks) == 3
        assert verify_cover(h, c, MultiplicityList.up_to(3)).ok

    @pytest.mark.parametrize("n", range(2, 65))
    def test_multiplicity_is_hamming_distance(self, n):
        h, c = log_cover(n)
        assert len(c.blocks) == max(1, (n - 1).bit_length())
        profile = multiplicity_profile(h, c)
        for u, v in h.edges:
            assert profile.count((u, v)) == bin(u ^ v).count("1")
