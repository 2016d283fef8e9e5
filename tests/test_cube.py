"""Cube hypergraphs, the symbolic one-coordinate partition, and its recursion."""

import itertools
import math
from pathlib import Path

import pytest

from conftest import implied_edges

from hypercover import (
    GuardError,
    LabelBlock,
    block_count_by_recurrence,
    check_gamma_closed_form,
    cube_graph,
    floor_e_minus_one_factorial,
    label_partition,
    label_table,
    pi_partition,
    pinto_upper_bound,
    verify_partition,
)
from hypercover.cube import CUBE_EDGE_GUARD, CUBE_PART_GUARD, cube_labels

GOLDEN = Path(__file__).parent / "golden"

KNOWN_COUNTS = {1: 1, 2: 3, 3: 10, 4: 41, 5: 206, 6: 1237}


class TestBlockCounts:
    @pytest.mark.parametrize("r,expected", sorted(KNOWN_COUNTS.items()))
    def test_integer_sum(self, r, expected):
        assert floor_e_minus_one_factorial(r) == expected

    @pytest.mark.parametrize("r", range(2, 13))
    def test_recurrence_matches_sum(self, r):
        assert block_count_by_recurrence(r) == floor_e_minus_one_factorial(r)
        assert (
            floor_e_minus_one_factorial(r)
            == r * floor_e_minus_one_factorial(r - 1) + 1
        )

    @pytest.mark.parametrize("r", range(1, 13))
    def test_matches_float_floor(self, r):
        assert floor_e_minus_one_factorial(r) == math.floor(
            (math.e - 1) * math.factorial(r)
        )

    @pytest.mark.parametrize("r", range(1, 13))
    def test_gamma_closed_form(self, r):
        assert check_gamma_closed_form(r)

    def test_gamma_range_guard(self):
        with pytest.raises(ValueError):
            check_gamma_closed_form(13)


def tuple_code(tup, base):
    code = 0
    for d in tup:
        code = code * base + d
    return code


def assert_tiles_non_permutation_tuples(r):
    blocks = label_partition(r)
    assert len(blocks) == floor_e_minus_one_factorial(r)
    base = r + 1
    seen = bytearray(base**r)
    total = 0
    for b in blocks:
        for tup in b.tuples():
            code = tuple_code(tup, base)
            assert not seen[code], f"tuple {tup} covered twice"
            seen[code] = 1
            total += 1
    for perm in itertools.permutations(range(r)):
        assert not seen[tuple_code(perm, base)], f"permutation {perm} covered"
    assert total == base**r - math.factorial(r)


class TestLabelBlock:
    # True next to 1, in either order, must not merge into the label 1
    @pytest.mark.parametrize("classes", [({0}, {3}), ({0}, {-1}), ({0}, {True}),
                                         ({0}, {1.0}), ({0}, {"1"}), ({0}, set()),
                                         ([0], [1, True]), ([0], [True, 1])])
    def test_rejects_bad_labels(self, classes):
        with pytest.raises(ValueError):
            LabelBlock(2, classes)

    def test_accepts_any_iterable_class(self):
        block = LabelBlock(2, ([0, 2], range(3)))
        assert block.classes == ((0, 2), (0, 1, 2))
        assert LabelBlock(2, ([2, 0, 2], iter([1, 0, 2]))).classes == ((0, 2), (0, 1, 2))


class TestLabelPartition:
    def test_r2_blocks(self):
        blocks = label_partition(2)
        classes = [b.classes for b in blocks]
        star = 2
        assert classes == [
            ((0,), (0, star)),
            ((1,), (1, star)),
            ((star,), (0, 1, star)),
        ]

    def test_r3_first_block(self):
        first = label_partition(3)[0]
        assert first.classes == ((0,), (0, 3), (0, 1, 2, 3))

    @pytest.mark.parametrize("r", range(2, 6))
    def test_tiles_exactly(self, r):
        assert_tiles_non_permutation_tuples(r)

    @pytest.mark.parametrize("r", range(2, 8))
    def test_first_class_census(self, r):
        blocks = label_partition(r)
        star_first = [b for b in blocks if b.classes[0] == (r,)]
        assert len(star_first) == 1
        for x in range(r):
            with_x = [b for b in blocks if b.classes[0] == (x,)]
            assert len(with_x) == floor_e_minus_one_factorial(r - 1)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            label_partition(8)
        with pytest.raises(ValueError):
            label_partition(1)

    def test_guard_override(self, monkeypatch):
        monkeypatch.setenv("HYPERCOVER_GUARD_OVERRIDE", "1")
        assert len(label_partition(8)) == 69281 == floor_e_minus_one_factorial(8)

    @pytest.mark.parametrize("r", (2, 3))
    def test_table_matches_golden(self, r):
        expected = (GOLDEN / f"label_blocks_r{r}.txt").read_text()
        assert label_table(label_partition(r)) == expected


class TestCubeGraph:
    def test_single_coordinate(self):
        cg = cube_graph(2, 1)
        assert cg.hypergraph.n == 3
        assert cg.hypergraph.edges == ((0, 1),)
        cg = cube_graph(3, 1)
        assert cg.hypergraph.n == 4
        assert cg.hypergraph.edges == ((0, 1, 2),)

    def test_m2_edge_count_golden(self):
        # brute-force count frozen: 2 * 9 - 2 pairs separate on some coordinate
        assert len(cube_graph(2, 2).hypergraph.edges) == 16

    def test_encode_decode(self):
        # cube_labels gives the base-(r+1) digits of a vertex, first coordinate first
        for r, m in ((2, 2), (3, 3)):
            for v in range((r + 1) ** m):
                labels = cube_labels(v, r, m)
                assert len(labels) == m and all(0 <= x <= r for x in labels)
                assert tuple_code(labels, r + 1) == v
        assert cube_labels(5, 2, 2) == (1, 2)

    def test_edge_predicate(self):
        cg = cube_graph(2, 2)
        star = 2
        a, b = tuple_code((0, star), 3), tuple_code((1, star), 3)
        assert tuple(sorted((a, b))) in cg.hypergraph.edges
        c, d = tuple_code((star, star), 3), tuple_code((0, 0), 3)
        assert tuple(sorted((c, d))) not in cg.hypergraph.edges

    def test_size_guard(self):
        with pytest.raises(GuardError):
            cube_graph(4, 4)


class TestPiPartition:
    @pytest.mark.parametrize(
        "r,m,size",
        [(2, 1, 1), (2, 2, 4), (2, 3, 13), (2, 4, 40), (3, 1, 1), (3, 2, 11)],
    )
    def test_partitions_cube(self, r, m, size):
        cover = pi_partition(r, m)
        assert len(cover.blocks) == size == pinto_upper_bound(r, m)
        assert verify_partition(cube_graph(r, m).hypergraph, cover).ok

    @pytest.mark.parametrize("r,m", [(2, 2), (2, 3), (3, 2)])
    def test_w_block_covers_first_coordinate_edges(self, r, m):
        cg = cube_graph(r, m)
        cover = pi_partition(r, m)
        w = cover.blocks[0]
        fixed_first = set()
        for e in cg.hypergraph.edges:
            firsts = set(cube_labels(v, r, m)[0] for v in e)
            if firsts == set(range(r)):
                fixed_first.add(e)
        assert set(implied_edges(w)) == fixed_first
        for b in cover.blocks[1:]:
            assert not (set(implied_edges(b)) & fixed_first)

    @pytest.mark.parametrize("r,m", [(2, 2), (2, 3), (3, 2)])
    def test_children_project_into_parent_blocks(self, r, m):
        # cutting the first coordinate sends each non-W block's edges into the
        # implied edges of exactly one block of the previous dimension
        cg = cube_graph(r, m)
        parents = pi_partition(r, m - 1) if m > 1 else None
        cover = pi_partition(r, m)
        if parents is None:
            return
        parent_edge_sets = [frozenset(implied_edges(p)) for p in parents.blocks]
        base = r + 1
        size = base ** (m - 1)
        for b in cover.blocks[1:]:
            projected = set()
            for e in implied_edges(b):
                projected.add(tuple(sorted(v % size for v in e)))
            hits = [projected <= pes for pes in parent_edge_sets]
            assert sum(hits) == 1

    def test_size_guard(self):
        # 625 vertices pass, but 70644 blocks x 625 vertices do not
        with pytest.raises(GuardError, match="blocks x vertices"):
            pi_partition(4, 4)
        with pytest.raises(GuardError, match=r"4\^100000"):
            pi_partition(3, 100_000)

    def test_part_guard(self):
        # dimension 1 builds r singleton parts, in the cube's label parts and in its block
        wide = CUBE_PART_GUARD + 1
        with pytest.raises(GuardError, match=f"cube_graph label parts: {wide} exceeds"):
            cube_graph(wide, 1)
        with pytest.raises(GuardError, match=f"pi_partition parts: {wide} exceeds"):
            pi_partition(wide, 1)
        assert len(cube_graph(wide - 1, 1).hypergraph.edges[0]) == wide - 1
        assert pi_partition(wide - 1, 1).blocks[0].parts[-1] == (wide - 2,)
        # the most parts a dimension >= 2 builds within the other guards stays admitted
        assert pinto_upper_bound(5, 3) * (5 + 1) ** 3 <= CUBE_EDGE_GUARD  # blocks x vertices
        assert pinto_upper_bound(5, 3) * 5 == 213_215 <= CUBE_PART_GUARD

    def test_pinto_values(self):
        assert pinto_upper_bound(2, 3) == 13
        assert pinto_upper_bound(3, 2) == 11
        assert pinto_upper_bound(4, 2) == 42
        assert all(pinto_upper_bound(r, 1) == 1 for r in range(2, 8))


class TestLabelTable:
    def test_empty(self):
        assert label_table([]) == ""

    def test_stanza_shape(self):
        text = label_table(label_partition(2))
        stanzas = text.strip().split("\n\n")
        assert len(stanzas) == 3
        assert stanzas[0].splitlines()[0] == "0a1  0a2"
