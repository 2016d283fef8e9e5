"""Core types, the multiplicity verifier, and JSON round trips."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random
import tracemalloc

import pytest

from conftest import implied_edges

from hypercover import (
    Cover,
    GuardError,
    Hypergraph,
    MultiplicityList,
    RPartiteBlock,
    complete_hypergraph,
    cover_from_json,
    cover_to_json,
    cube_graph,
    grid3_cover,
    hex_cover,
    hypergraph_from_json,
    hypergraph_to_json,
    induced_subhypergraph,
    multiplicity_profile,
    pi_partition,
    verify_cover,
    verify_partition,
)
from hypercover import core, cube


def traced_profile(h, c):
    """multiplicity_profile(h, c) and the tracemalloc peak, in bytes, of building it."""
    tracemalloc.start()
    try:
        return multiplicity_profile(h, c), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def k4_star_blocks():
    return (
        RPartiteBlock((frozenset({0}), frozenset({1, 2, 3}))),
        RPartiteBlock((frozenset({1}), frozenset({2, 3}))),
        RPartiteBlock((frozenset({2}), frozenset({3}))),
    )


def k4_bit_blocks():
    return (
        RPartiteBlock((frozenset({0, 1}), frozenset({2, 3}))),
        RPartiteBlock((frozenset({0, 2}), frozenset({1, 3}))),
    )


class TestHypergraph:
    def test_canonicalization(self):
        h = Hypergraph(2, 4, frozenset({(3, 1), (1, 3), (0, 2)}))
        assert h.edges == ((0, 2), (1, 3))

    def test_edge_set_built_on_first_use(self):
        h = complete_hypergraph(4)
        assert "edge_set" not in vars(h)
        assert h.edge_set == frozenset(h.edges) and "edge_set" in vars(h)

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            Hypergraph(2, 4, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(2, 3, frozenset({(1, 3)}))

    @pytest.mark.parametrize("vertex", [True, 1.0, 1.5, "1", None])
    def test_rejects_non_integer_vertex(self, vertex):
        with pytest.raises(ValueError, match="not an integer"):
            Hypergraph(2, 3, [(0, vertex)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 4, frozenset({(0, 1)}))

    def test_complete_counts(self):
        assert len(complete_hypergraph(5).edges) == 10
        assert len(complete_hypergraph(5, 3).edges) == 10
        assert complete_hypergraph(5, 5).edges == ((0, 1, 2, 3, 4),)
        assert complete_hypergraph(3, 4).edges == ()

    @pytest.mark.parametrize("n,r", [(4_900, 2), (10**6, 2), (10**400, 2), (10**6, 999_990),
                                     (60, 30)])
    def test_complete_edges_guarded(self, n, r):
        # C(n, r) is compared by magnitude first, so none of these is formed
        with pytest.raises(GuardError, match="exceeds guard"):
            complete_hypergraph(n, r)

    def test_induced(self):
        sub, old = induced_subhypergraph(complete_hypergraph(5), [1, 3, 4])
        assert old == [1, 3, 4]
        assert sub.n == 3 and len(sub.edges) == 3

    # vertices h does not have, and vertices that are not ints (checked before
    # a set merges True into 1 and 2.0 into 2)
    @pytest.mark.parametrize("vertices", [[0, 7], [-3, 0, 1], [0, True, 2.0]], ids=repr)
    def test_induced_rejects_foreign_vertices(self, vertices):
        with pytest.raises(ValueError, match="vertices must"):
            induced_subhypergraph(complete_hypergraph(4), vertices)


class TestBlock:
    def test_rejects_empty_part(self):
        with pytest.raises(ValueError):
            RPartiteBlock((frozenset(), frozenset({1})))

    @pytest.mark.parametrize("vertex", [True, 1.0, "1", None])
    def test_rejects_non_integer_vertex(self, vertex):
        with pytest.raises(ValueError, match="integers"):
            RPartiteBlock(({0}, {vertex}))
        with pytest.raises(ValueError, match="integers"):
            RPartiteBlock(([0, 2], [1, vertex]))  # True would hide behind 1 in a set

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            RPartiteBlock((frozenset({0, 1}), frozenset({1, 2})))

    @pytest.mark.parametrize("parts", [({-1}, {0}), ([2, -1], [3]), ([0], [4, 1, -2])])
    def test_rejects_negative_vertex(self, parts):
        with pytest.raises(ValueError, match="non-negative"):
            RPartiteBlock(parts)

    def test_edge_count_singletons(self):
        assert len(implied_edges(RPartiteBlock(({0}, {1})))) == 1

    def test_edge_count_product(self):
        assert len(implied_edges(RPartiteBlock(({0, 1}, {2, 3}, {4})))) == 4

    def test_edge_count_widest_symbolic_block(self):
        # the widest block of the 3-uniform symbolic table: 1 * 4 * 4 tuples
        b = RPartiteBlock(({0}, {1, 2, 3, 4}, {5, 6, 7, 8}))
        assert len(implied_edges(b)) == 16

    def test_order(self):
        assert RPartiteBlock(({0}, {1})).order() == 2
        assert RPartiteBlock(({0, 1}, {2, 3}, {4})).order() == 5
        star = RPartiteBlock((frozenset({0}), frozenset(range(1, 8))))
        assert star.order() == 8

    def test_implied_edges_sorted(self):
        b = RPartiteBlock(({2, 0}, {1, 3}))
        assert sorted(implied_edges(b)) == [(0, 1), (0, 3), (1, 2), (2, 3)]


class TestPackedBits:
    """packed_bits shifts up to core._SHIFT_WIDTH bits and fills a byte table above."""

    @pytest.mark.parametrize("width", [0, 1, core._SHIFT_WIDTH - 1, core._SHIFT_WIDTH,
                                       core._SHIFT_WIDTH + 1, 5000])
    def test_both_paths_match_summed_shifts(self, width):
        rng = random.Random(width)
        cases = [[]]
        if width:
            drawn = [rng.randrange(width) for _ in range(min(width, 300))]
            # repeats, the top position, and positions out of order
            cases += [[width - 1], [width - 1, 0, width - 1], drawn + drawn[:50] + [width - 1],
                      list(range(width - 1, -1, -3))]
        for positions in cases:
            expected = sum(1 << j for j in set(positions))
            assert core.packed_bits(positions, width) == expected
            assert core.packed_bits(iter(positions), width) == expected


class TestMultiplicityProfile:
    def test_star_partition_profile(self):
        h = complete_hypergraph(4)
        profile = multiplicity_profile(h, Cover(2, k4_star_blocks()))
        assert profile.histogram() == {1: 6}
        assert profile.foreign == 0

    def test_empty_cover(self):
        h = complete_hypergraph(4)
        profile = multiplicity_profile(h, Cover(2, ()))
        assert profile.histogram() == {0: 6}
        assert profile.least == {0: (0, 1)}

    def test_uncovered_edges_are_not_held(self):
        # K_401 with no block leaves 80,200 edges covered 0 times; the profile
        # holds their number and the least of them, not the edges
        h = complete_hypergraph(401)
        profile, peak = traced_profile(h, Cover(2, ()))
        assert (profile.counts, profile.least) == ({0: 80_200}, {0: (0, 1)})
        assert peak < 100_000

    def test_bit_cover_hamming(self):
        h = complete_hypergraph(4)
        profile = multiplicity_profile(h, Cover(2, k4_bit_blocks()))
        for u, v in itertools.combinations(range(4), 2):
            assert profile.count((u, v)) == bin(u ^ v).count("1")

    def test_foreign_reported(self):
        h = Hypergraph(2, 4, frozenset({(0, 1)}))
        c = Cover(2, (RPartiteBlock(({0}, {1, 2})),))
        profile = multiplicity_profile(h, c)
        assert profile.count((0, 1)) == 1
        assert (profile.foreign, profile.least_foreign) == (1, (0, 2))
        assert profile.count((0, 2)) == 1

    def test_both_counting_directions_agree(self):
        # one block larger than the edge set, one smaller
        h = Hypergraph(2, 6, frozenset({(0, 3), (1, 3), (0, 4)}))
        big = RPartiteBlock(({0, 1, 2}, {3, 4, 5}))  # 9 implied > 3 edges
        small = RPartiteBlock(({0}, {3}))
        profile = multiplicity_profile(h, Cover(2, (big, small)))
        assert {e: profile.count(e) for e in h.edges} == {(0, 3): 2, (1, 3): 1, (0, 4): 1}
        # the big block's 9 r-sets less its 3 edges, each covered once
        assert profile.foreign == 6
        assert all(profile.count(e) == 1 for e in implied_edges(big) if e not in h.edge_set)

    def test_double_counting(self):
        h = complete_hypergraph(5)
        cover = Cover(2, k4_bit_blocks() + (RPartiteBlock(({0}, {4})),))
        profile = multiplicity_profile(h, cover)
        contributed = sum(
            1 for b in cover.blocks for e in implied_edges(b) if e in h.edges
        )
        assert sum(k * edges for k, edges in profile.histogram().items()) == contributed
        # on a complete hypergraph every implied edge lands, so each block
        # contributes exactly its edge count
        assert contributed == sum(math.prod(map(len, b.parts)) for b in cover.blocks)

    def test_masks_start_above_their_prefix(self):
        # edges near the top of a million vertices: every mask is a few bits,
        # where one as wide as n would take 125 KB
        n = 1_000_000
        edges = frozenset({(n - 5, n - 4), (n - 5, n - 1), (n - 3, n - 2)})
        c = Cover(2, (RPartiteBlock(({n - 5}, {n - 4, n - 3})),))
        profile, peak = traced_profile(Hypergraph(2, n, edges), c)
        assert max(m.bit_length() for m in itertools.chain(*profile.planes.values())) <= 2
        assert peak < 20_000
        assert {e: profile.count(e) for e in edges} == \
            {(n - 5, n - 4): 1, (n - 5, n - 1): 0, (n - 3, n - 2): 0}
        assert (profile.foreign, profile.least_foreign) == (1, (n - 5, n - 3))
        assert profile.count((n - 5, n - 3)) == 1

    def test_run_far_past_its_top_stays_narrow(self):
        # a counted prefix halfway up a million vertices whose run ends at the
        # last vertex: its link stops at the counters' top, two bits above the
        # prefix, and the edges past it are bare
        n = 1_000_000
        p = n // 2
        edges = frozenset({(p, p + 1), (p, p + 2), (p, p + 3), (p, n - 1), (p + 1, p + 3)})
        c = Cover(2, (RPartiteBlock(({p}, {p + 1, p + 2})),))
        profile, peak = traced_profile(Hypergraph(2, n, edges), c)
        assert max(m.bit_length() for m in itertools.chain(*profile.planes.values())) <= 2
        assert peak < 20_000
        assert (profile.counts[0], profile.least[0]) == (3, (p, p + 3))
        assert {e: profile.count(e) for e in edges} == {
            (p, p + 1): 1, (p, p + 2): 1, (p, p + 3): 0, (p, n - 1): 0, (p + 1, p + 3): 0}
        assert profile.foreign == 0

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            multiplicity_profile(complete_hypergraph(4, 3), Cover(2, k4_bit_blocks()))

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            multiplicity_profile(complete_hypergraph(3), Cover(2, k4_bit_blocks()))


class TestVerify:
    def test_star_partition_passes(self):
        h = complete_hypergraph(4)
        assert verify_cover(h, Cover(2, k4_star_blocks()), MultiplicityList.of(1)).ok
        assert verify_partition(h, Cover(2, k4_star_blocks())).ok

    def test_bit_cover_not_partition(self):
        h = complete_hypergraph(4)
        res = verify_cover(h, Cover(2, k4_bit_blocks()), MultiplicityList.of(1))
        assert not res.ok
        assert res.reason == "multiplicity"
        assert res.witness_multiplicity == 2

    def test_bit_cover_is_12_cover(self):
        h = complete_hypergraph(4)
        assert verify_cover(h, Cover(2, k4_bit_blocks()), MultiplicityList.of(1, 2)).ok

    def test_empty_empty_passes(self):
        h = Hypergraph(2, 0)
        assert verify_partition(h, Cover(2, ())).ok

    def test_foreign_fails_distinctly(self):
        h = Hypergraph(2, 3, frozenset({(0, 1)}))
        c = Cover(2, (RPartiteBlock(({0}, {1, 2})),))
        res = verify_partition(h, c)
        assert not res.ok and res.reason == "foreign"

    def test_partition_iff_profile_all_ones(self):
        h = complete_hypergraph(4)
        for blocks in (k4_star_blocks(), k4_bit_blocks()):
            profile = multiplicity_profile(h, Cover(2, blocks))
            expected = set(profile.histogram()) == {1} and not profile.foreign
            assert verify_partition(h, Cover(2, blocks)).ok == expected

    @pytest.mark.parametrize("h,blocks,lst", [
        (complete_hypergraph(4), k4_star_blocks(), MultiplicityList.of(1)),
        (complete_hypergraph(4), k4_bit_blocks(), MultiplicityList.of(1)),
        (Hypergraph(2, 3, frozenset({(0, 1)})), (RPartiteBlock(({0}, {1, 2})),),
         MultiplicityList.any_positive()),
    ])
    def test_result_carries_its_profile(self, h, blocks, lst):
        c = Cover(2, blocks)
        res = verify_cover(h, c, lst)
        assert res.profile == multiplicity_profile(h, c)
        assert res == dataclasses.replace(res, profile=None)  # not part of equality


class TestMultiplicityList:
    def test_parse_forms(self):
        assert MultiplicityList.parse("2,3").allowed == frozenset({2, 3})
        assert MultiplicityList.parse("1..4").allowed == frozenset({1, 2, 3, 4})
        assert MultiplicityList.parse("any").allowed is None

    def test_range_width_guard(self):
        with pytest.raises(GuardError):
            MultiplicityList.parse("1..1000000000")
        with pytest.raises(GuardError, match="multiplicity range width"):
            MultiplicityList.up_to(core.LIST_RANGE_GUARD + 1)

    def test_membership(self):
        assert 5 in MultiplicityList.any_positive()
        assert 0 not in MultiplicityList.any_positive()
        assert 2 not in MultiplicityList.of(1)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MultiplicityList.of(0)
        with pytest.raises(ValueError):
            MultiplicityList(frozenset())
        with pytest.raises(ValueError, match="not an integer"):
            MultiplicityList(frozenset({"3"}))

    # int() converts 2.5, True, "3" and 2.0, and a set merges 1.0 into 1
    @pytest.mark.parametrize("values", [(2.5,), (True,), ("3",), (2.0,), (1, 1.0), (2, None)],
                             ids=repr)
    def test_rejects_values_not_of_type_int(self, values):
        with pytest.raises(ValueError, match="not an integer"):
            MultiplicityList.of(*values)


class TestJson:
    def test_hypergraph_round_trip_byte_identical(self):
        h = complete_hypergraph(5, 3)
        text = hypergraph_to_json(h)
        assert hypergraph_to_json(hypergraph_from_json(text)) == text
        doc = json.loads(text)
        assert doc["edges"] == sorted(doc["edges"])

    # sha256 of (hypergraph_to_json, cover_to_json), recorded when the files
    # were first pinned: a change to either dump shows here
    @pytest.mark.parametrize("name,build,digests", [
        ("hex m=5", lambda: hex_cover(5),
         ("cfc36d3caa317dc689eb6a230c828e0d6ad6cb0d226d72209e9e35ccfc80901d",
          "76fbd7b10c789aa4f36f7bffe263ccd35550be28349403c8710cb5806d6446ed")),
        ("grid3 m=4", lambda: grid3_cover(4),
         ("d3d0b7373a947e8c9e9db258085fbee494cab911107587e9cb9ed6fb33bdb697",
          "9ba40191073c509421034211a98de0429c79766b95bbb3658d163358cc0c5db6")),
        ("pi-partition r=2 m=3", lambda: (cube_graph(2, 3).hypergraph, pi_partition(2, 3)),
         ("044c02d2a4f0ea474ad39a1830294be2b2a343b160c27af1b646bd366739556b",
          "65c015da222f4e0f3c6b45416466501614bc60d8bc986aa47520ff3be1ddc2b8")),
        ("pi-partition r=3 m=3", lambda: (cube_graph(3, 3).hypergraph, pi_partition(3, 3)),
         ("4c138e960847f7eddc646c0f75e03c9b29fb670f9dd982a1900a05a6996a1799",
          "0d9ba6e73c77e64e94cd2d3497ce64c968d38d2c6e18529362cc079339250307")),
        ("pi-partition r=5 m=2", lambda: (cube_graph(5, 2).hypergraph, pi_partition(5, 2)),
         ("b1984115165e7b88901381771761f3decbe1a0d741f1e27aa9ea51530f9446ad",
          "41d8d85b906d6a26da98fedbc76efe7a1682ff10c150fb5311ae4afc4d56303c")),
    ])
    def test_constructions_dump_pinned_bytes(self, name, build, digests):
        h, c = build()
        texts = (hypergraph_to_json(h), cover_to_json(c))
        assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == digests

    def test_cover_round_trip_byte_identical(self):
        c = Cover(2, k4_star_blocks() + k4_bit_blocks())
        text = cover_to_json(c)
        assert cover_to_json(cover_from_json(text)) == text

    @pytest.mark.parametrize("text", [
        '{"r": 2, "n": 3}',
        '{"r": 2, "n": 3, "edges": 5}',
        '{"r": 2, "n": 3, "edges": [5]}',
        '{"r": null, "n": 3, "edges": []}',
        '[1, 2]',
        '{"r": 2, "n": 3, "edges": [[0, 1], [0, true]]}',
        '{"r": 2, "n": 3, "edges": [[0, 1], [0, 1.0]]}',
        '{"r": 2, "n": 3, "edges": [[0, [1]]]}',
        '{"r": 2, "n": 3, "edges": ""}',
        '{"r": 2, "n": 3, "edges": {}}',
    ])
    def test_malformed_hypergraph_raises_value_error(self, text):
        with pytest.raises(ValueError):
            hypergraph_from_json(text)

    @pytest.mark.parametrize("text", [
        '{"r": 2}',
        '{"r": 2, "blocks": [{"parts": 3}]}',
        '{"r": 2, "blocks": [{}]}',
        '{"r": 2, "blocks": [[0, 1]]}',
        '{"r": 2, "blocks": [{"parts": [0, 1]}]}',
        '{"r": 2, "blocks": [{"parts": [[0, true], [2]]}]}',
        '{"r": 2, "blocks": [{"parts": [[0], ["1"]]}]}',
        '{"r": true, "blocks": []}',
        '{"r": 2.0, "blocks": []}',
        '{"r": 2, "blocks": ""}',
        '{"r": 2, "blocks": {}}',
        '{"r": 2, "blocks": [{"parts": ""}]}',
    ])
    def test_malformed_cover_raises_value_error(self, text):
        with pytest.raises(ValueError):
            cover_from_json(text)

    def test_block_order_preserved(self):
        c = Cover(2, k4_bit_blocks())
        doc = json.loads(cover_to_json(c))
        assert len(doc["blocks"]) == 2
        restored = cover_from_json(cover_to_json(c))
        assert restored.blocks == c.blocks


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as it was, whatever the test left."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """The bulk builders pause the cyclic collector and leave it as they found it."""

    @pytest.mark.parametrize("call,raises", [
        (lambda: hypergraph_from_json('{"r": 2, "n": 3, "edges": [[0, 1], [1, 2]]}'), None),
        (lambda: hypergraph_from_json('{"r": 2, "n": 3, "edges": [[0, 1]'), ValueError),
        (lambda: hypergraph_from_json('{"r": 2, "n": 3, "edges": [[0, true]]}'), ValueError),
        (lambda: complete_hypergraph(6, 3), None),
        (lambda: complete_hypergraph(10**6, 2), GuardError),
        (lambda: complete_hypergraph(3, 1), ValueError),  # refused inside the pause
        (lambda: cube_graph(3, 3), None),
        (lambda: cube_graph(4, 4), GuardError),
    ], ids=["valid", "malformed", "bool-vertex", "complete", "complete-guarded",
            "complete-r1", "cube", "cube-guarded"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored(self, collector_state, call, raises, enabled):
        (gc.enable if enabled else gc.disable)()
        if raises is None:
            call()
        else:
            with pytest.raises(raises):
                call()
        assert gc.isenabled() is enabled

    def test_paused_while_building_cube_edges(self, collector_state, monkeypatch):
        seen = []
        build = cube._canonical_hypergraph
        monkeypatch.setattr(cube, "_canonical_hypergraph",
                            lambda *args, **kwargs: seen.append(gc.isenabled())
                            or build(*args, **kwargs))
        gc.enable()
        cube_graph(2, 3)
        assert seen == [False] and gc.isenabled()

    def test_paused_while_parsing(self, collector_state, monkeypatch):
        seen = []
        loads = json.loads
        monkeypatch.setattr(core.json, "loads",
                            lambda text: seen.append(gc.isenabled()) or loads(text))
        gc.enable()
        hypergraph_from_json(hypergraph_to_json(complete_hypergraph(4)))
        assert seen == [False] and gc.isenabled()
