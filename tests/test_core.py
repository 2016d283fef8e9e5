"""Core types, the multiplicity verifier, and JSON round trips."""

import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from operator import itemgetter

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
from hypercover import bounds, core, cube


def traced(call, *args):
    """call(*args) and the tracemalloc peak, in bytes, of making it."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
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

    def test_direct_check_holds_two_columns(self):
        # the column check of a direct call keeps only the column before the
        # one it builds; keeping all six peaked at 6.0 columns
        edges = complete_hypergraph(20, 6).edges
        column = sys.getsizeof(list(map(itemgetter(0), edges)))
        h, peak = traced(Hypergraph, 6, 20, edges)
        assert h.edges is edges and peak < 2.5 * column

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

    @pytest.mark.parametrize("n,r", [(6, 2), (7, 3), (6, 4), (5, 5)])
    def test_induced_complete_against_listed(self, n, r):
        # the subhypergraph of a complete host is complete, and listed only on
        # request; below r vertices it is the empty host
        rng = random.Random(n * 10 + r)
        for _ in range(20):
            vertices = rng.sample(range(n), rng.randint(0, n))
            h = complete_hypergraph(n, r)
            sub, old = induced_subhypergraph(h, vertices)
            assert "edges" not in vars(h) and ("edges" not in vars(sub)) == (len(old) >= r)
            pos = {v: i for i, v in enumerate(old)}
            listed = Hypergraph(r, len(old), [tuple(pos[v] for v in e) for e in h.edges
                                              if set(e) <= set(old)])
            assert (sub, old) == (listed, sorted(vertices))
            assert sub.edges == listed.edges

    # vertices h does not have, and vertices that are not ints (checked before
    # a set merges True into 1 and 2.0 into 2)
    @pytest.mark.parametrize("vertices", [[0, 7], [-3, 0, 1], [0, True, 2.0]], ids=repr)
    def test_induced_rejects_foreign_vertices(self, vertices):
        with pytest.raises(ValueError, match="vertices must"):
            induced_subhypergraph(complete_hypergraph(4), vertices)


class TestImplicitCompleteHost:
    """complete_hypergraph holds K_n^r as (r, n) and lists its edges on the
    first read of `edges`; it is the listed host in every other respect."""

    @pytest.mark.parametrize("n,r", [(2, 2), (5, 2), (6, 3), (7, 4), (5, 5), (12, 3)])
    @pytest.mark.parametrize("read_first", [False, True], ids=["held", "read"])
    def test_equal_to_the_listed_host(self, n, r, read_first):
        k = complete_hypergraph(n, r)
        if read_first:
            assert k.edges == tuple(itertools.combinations(range(n), r))
        listed = Hypergraph(r, n, itertools.combinations(range(n), r))
        assert type(listed) is Hypergraph and type(k) is not Hypergraph
        assert k == listed and listed == k and not (k != listed or listed != k)
        assert k.edge_count == listed.edge_count == math.comb(n, r)
        assert ("edges" in vars(k)) == read_first  # compared without listing
        assert hypergraph_to_json(k) == hypergraph_to_json(listed)
        assert hash(k) == hash(listed)
        assert {listed: "listed"}[k] == "listed" and {k: "held"}[listed] == "held"
        assert len({k, listed, complete_hypergraph(n, r)}) == 1
        assert k.edge_set == listed.edge_set and k.edges == listed.edges

    @pytest.mark.parametrize("other", [
        Hypergraph(2, 5, list(itertools.combinations(range(5), 2))[:-1]),  # an edge short
        Hypergraph(2, 6, itertools.combinations(range(5), 2)),  # one vertex more
        Hypergraph(3, 5, itertools.combinations(range(5), 3)),  # K_5^3, also 10 edges
        complete_hypergraph(6),
        complete_hypergraph(5, 3),
    ], ids=["edge-short", "vertex-more", "other-r", "held-other-n", "held-other-r"])
    def test_unequal_hosts(self, other):
        k = complete_hypergraph(5)
        assert k != other and other != k and not (k == other or other == k)

    def test_replaced_fields_make_a_listed_host(self):
        k = complete_hypergraph(5)
        grown = dataclasses.replace(k, n=6)
        assert type(grown) is Hypergraph and grown.edges == k.edges
        assert grown == Hypergraph(2, 6, itertools.combinations(range(5), 2)) != k
        assert dataclasses.replace(k, edges=[(0, 1)]) == Hypergraph(2, 5, [(0, 1)])
        assert copy.deepcopy(k) == k and type(copy.copy(k)) is type(k)

    def test_not_equal_to_other_types(self):
        k = complete_hypergraph(4)
        assert k != (2, 4) and (2, 4) != k and k != "K_4"

    @pytest.mark.parametrize("n,r", [(0, 2), (1, 2), (3, 4)])
    def test_edgeless_host_is_listed(self, n, r):
        # n < r: no edge to hold, so the host is the plain empty Hypergraph
        k = complete_hypergraph(n, r)
        assert type(k) is Hypergraph and k.edges == () and k == Hypergraph(r, n)
        assert k.edge_count == 0 and hypergraph_to_json(k) == plain_dump(k)

    def test_hex_cover_host_lists_nothing_until_read(self):
        # hex_cover(40) builds K_4681 and its 234 blocks: 5.6 MB traced, where
        # listing the host's 10,953,540 edges takes over 600 MB
        (h, c), peak = traced(hex_cover, 40)
        assert "edges" not in vars(h) and h.edge_count == 10_953_540
        assert peak < 20_000_000 < 0.05 * h.edge_count * sys.getsizeof((0, 1))
        assert len(c.blocks) == 234

    def test_verify_and_extraction_list_nothing(self):
        h, c = hex_cover(25)
        assert verify_cover(h, c, MultiplicityList.of(2, 3)).ok
        assert sum(map(len, core.hypergraph_json_chunks(h))) > 1_620_900 * 4
        assert len(bounds.derandomized_extraction(h, c).vertices) >= 1
        assert "edges" not in vars(h) and "edge_set" not in vars(h)

    def test_edges_listed_once_when_read(self):
        h, _ = hex_cover(5)
        edges = h.edges
        assert edges is h.edges and edges == tuple(itertools.combinations(range(61), 2))


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
        profile, peak = traced(multiplicity_profile, h, Cover(2, ()))
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
        profile, peak = traced(multiplicity_profile, Hypergraph(2, n, edges), c)
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
        profile, peak = traced(multiplicity_profile, Hypergraph(2, n, edges), c)
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

    @pytest.mark.parametrize("shuffled", [False, True], ids=["canonical", "shuffled"])
    def test_equal_vertices_are_one_object(self, shuffled):
        rows = [list(e) for e in complete_hypergraph(300).edges]
        if shuffled:  # the general path, which sorts each row
            random.Random(1).shuffle(rows)
            rows = [row[::-1] for row in rows]
        h = hypergraph_from_json(json.dumps({"r": 2, "n": 300, "edges": rows}))
        assert len(h.edges) == 44_850 and len({id(v) for e in h.edges for v in e}) == 300

    def test_loader_peak_below_the_plain_document(self):
        # K_600 less its last edge, which the parse loads: most vertex
        # occurrences lie above 256, where a plain document holds an int of
        # its own for each. Peaks measured at 0.88 of the plain document's
        # (under Python 3.10 to 3.13 with the last edge, and 3.11 without
        # it), and at 1.62 when the edge tuples were built beside a document
        # with such ints.
        text = hypergraph_to_json(Hypergraph(2, 600, complete_hypergraph(600).edges[:-1]))
        h, peak = traced(hypergraph_from_json, text)
        assert len(h.edges) == 179_699
        assert peak < 0.95 * traced(json.loads, text)[1]

    def test_complete_loader_lists_no_edge(self):
        # K_600 is recognised, not parsed, and held as (r, n): its load peaked
        # at 0.005 of listing its 179,700 edges (1.0 when the load listed them,
        # 1.75 when it parsed them)
        text = hypergraph_to_json(complete_hypergraph(600))
        h, peak = traced(hypergraph_from_json, text)
        assert "edges" not in vars(h)
        edges, listing = traced(lambda: h.edges)
        assert len(edges) == 179_700 and peak < 0.05 * listing

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


def plain_dump(h):
    return json.dumps({"r": h.r, "n": h.n, "edges": h.edges}, sort_keys=True,
                      separators=(",", ":"))


def load_outcome(text):
    """hypergraph_from_json(text), or the message of its ValueError."""
    try:
        return hypergraph_from_json(text)
    except ValueError as exc:
        return str(exc)


# edits of a canonical K_n^r document, each keyed by what it does; only the
# first three, and the bytes of the document, leave one the complete-host
# path may accept
CANONICAL_VARIANTS = {
    "as-written": lambda t: t,
    "newline": lambda t: t + "\n",
    "whitespace": lambda t: t + " \t\r\n ",
    "whitespace-past-the-tail": lambda t: t + " " * 100,
    "leading-space": lambda t: " " + t,
    "edge-dropped": lambda t: t.replace("[0,1,2],", "", 1),
    "edge-repeated": lambda t: t.replace("[0,1,2],", "[0,1,2],[0,1,2],", 1),
    "edge-out-of-range": lambda t: t.replace("[0,1,2]", "[0,1,9]", 1),
    "edge-changed": lambda t: t.replace("[3,4,5]", "[2,4,5]", 1),
    "edge-reversed": lambda t: t.replace("[0,1,2]", "[2,1,0]", 1),
    "space-inserted": lambda t: t.replace(",", ", ", 1),
    "keys-reordered": lambda t: '{"r":3,"n":6,' + t[1:t.index(',"n":')] + "}",
    "tail-repeated": lambda t: t + ',"n":6,"r":3}',
    "bytes": lambda t: t.encode(),
    "n-of-5000-digits": lambda t: t.replace('"n":6', '"n":' + "1" * 5000),
    "n-over-the-guard": lambda t: t.replace('"n":6', '"n":100000000'),
    "n-below-the-edges": lambda t: t.replace('"n":6', '"n":5'),
    "r-over-n": lambda t: t.replace('"r":3', '"r":7'),
    "r-of-1": lambda t: t.replace('"r":3', '"r":1'),
}


class TestCompleteHostJson:
    """The canonical documents of K_n^r are written run by run and recognised
    without parsing; any other text loads as the parse alone loads it."""

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(15) for r in range(2, 7)]
                             + [(397, 2), (64, 3), (1801, 2)])
    def test_writer_matches_dumps(self, n, r):
        h = complete_hypergraph(n, r)
        text = hypergraph_to_json(h)
        assert text == plain_dump(h)

    def test_writer_checks_completeness_without_the_binomial(self):
        # C(10^6, 500,000) has about 300,000 digits; the one edge rules it out
        h = Hypergraph(500_000, 10**6, [tuple(range(0, 10**6, 2))])
        assert hypergraph_to_json(h) == plain_dump(h)

    @pytest.mark.parametrize("variant", CANONICAL_VARIANTS)
    def test_loads_as_the_parse_alone(self, variant, monkeypatch):
        text = CANONICAL_VARIANTS[variant](hypergraph_to_json(complete_hypergraph(6, 3)))
        parses = []
        parse = core._parse_hypergraph
        monkeypatch.setattr(core, "_parse_hypergraph", lambda t: parses.append(t) or parse(t))
        loaded = load_outcome(text)
        if variant in ("as-written", "newline", "whitespace", "bytes"):
            assert loaded == complete_hypergraph(6, 3) and parses == []
        else:  # turned away, raising nothing, and parsed once
            assert parses == [text]
        monkeypatch.setattr(core, "_complete_from_json", lambda t: None)
        assert load_outcome(text) == loaded

    # edgeless, single-edge and r = 1 hosts, in the canonical layout
    @pytest.mark.parametrize("n,r", [(0, 2), (1, 2), (3, 5), (4, 4), (9, 1), (3, 0)])
    def test_small_hosts(self, n, r, monkeypatch):
        text = json.dumps({"r": r, "n": n, "edges": list(itertools.combinations(range(n), r))},
                          sort_keys=True, separators=(",", ":"))
        loaded = load_outcome(text)
        assert loaded == (complete_hypergraph(n, r) if r >= 2 else "uniformity r must be at least 2")
        monkeypatch.setattr(core, "_complete_from_json", lambda t: None)
        assert load_outcome(text) == loaded

    def test_edgeless_host_lists_no_vertex(self):
        # n < r: the host has no edge, so the writer and the loader list none
        # of its vertices (listing them peaked at 64 MB at n = 10^6)
        h = Hypergraph(10**6 + 1, 10**6, [])
        text, peak = traced(hypergraph_to_json, h)
        assert text == plain_dump(h) and peak < 100_000
        loaded, peak = traced(hypergraph_from_json, text)
        assert loaded == h and peak < 100_000

    def test_short_text_turned_away_by_its_length(self):
        # K_n^(n-1) at n = 10^6 has 10^6 edges and K_n^n one, within the
        # guard; their literals were made only once the length check was
        # skipped
        for text in ('{"edges":[[0,1]],"n":1000000,"r":999999}',
                     '{"edges":[[0]],"n":1000000,"r":1000000}'):
            loaded, peak = traced(load_outcome, text)
            assert loaded == load_outcome(text.encode()) and peak < 100_000

    def test_guard_bounds_the_recognised_hosts(self, monkeypatch):
        # K_6^3 has 20 edges: with a guard of 19 it is parsed, and no
        # GuardError is raised
        k = complete_hypergraph(6, 3)
        text = hypergraph_to_json(k)
        monkeypatch.setattr(core, "COMPLETE_EDGE_GUARD", 19)
        parses = []
        parse = core._parse_hypergraph
        monkeypatch.setattr(core, "_parse_hypergraph", lambda t: parses.append(t) or parse(t))
        assert hypergraph_from_json(text) == k and parses == [text]


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
        (lambda: cover_from_json('{"r": 2, "blocks": [{"parts": [[0], [1, 2]]}]}'), None),
        (lambda: cover_from_json('{"r": 2, "blocks": [{"parts": [[0], [true]]}]}'), ValueError),
    ], ids=["valid", "malformed", "bool-vertex", "complete", "complete-guarded",
            "complete-r1", "cube", "cube-guarded", "cover", "cover-bool-vertex"])
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

    def test_paused_while_listing_complete_edges(self, collector_state, monkeypatch):
        seen = []
        combinations = itertools.combinations
        monkeypatch.setattr(core.itertools, "combinations",
                            lambda *args: seen.append(gc.isenabled()) or combinations(*args))
        gc.enable()
        h = complete_hypergraph(6, 3)
        assert seen == []  # held as (r, n) until read
        assert len(h.edges) == 20 and seen == [False] and gc.isenabled()

    def test_paused_while_parsing(self, collector_state, monkeypatch):
        seen = []
        loads = json.loads
        monkeypatch.setattr(core.json, "loads", lambda text, **kwargs:
                            seen.append(gc.isenabled()) or loads(text, **kwargs))
        gc.enable()
        # K_4 less its last edge: the complete K_4 is recognised, not parsed
        less = Hypergraph(2, 4, complete_hypergraph(4).edges[:-1])
        hypergraph_from_json(hypergraph_to_json(less))
        cover_from_json(cover_to_json(Cover(2, k4_star_blocks())))
        assert seen == [False, False] and gc.isenabled()
