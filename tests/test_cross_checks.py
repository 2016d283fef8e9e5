"""Differential checks: every optimized engine against a naive re-implementation.

The naive versions here are deliberately the dumbest possible enumerations so
the clever ones (bit-sliced counting, bulk canonicalisation, bit-packed
elimination, block enumeration on edge masks, iterative deepening, branch and
bound, the link bound, fraction-free inertia and coloring by color-class
masks) are never the only source of truth.
"""

import itertools
import math
import operator
import random
import re
from collections import Counter, namedtuple
from fractions import Fraction

import pytest

from conftest import entry, implied_edges, random_block, random_cover_of, random_hypergraph

from hypercover import (
    Cover,
    GF2Matrix,
    Hypergraph,
    MultiplicityList,
    RPartiteBlock,
    SearchBudget,
    SearchOutcome,
    adjacency_cube_matrix,
    chromatic_number,
    complete_hypergraph,
    cube_graph,
    derandomized_extraction,
    disjointness_matrix,
    disjointness_matrix_upto,
    enumerate_blocks,
    gf2_rank,
    grid3_cover,
    hex_cover,
    independence_number,
    inertia,
    link_lower_bound,
    log_cover,
    matching_number,
    min_cover_size,
    min_partition_size,
    min_sum_of_orders,
    multiplicity_profile,
    pi_partition,
    star_partition,
    verify_cover,
)
from hypercover import core, cube
from hypercover.core import _SHIFT_WIDTH, _canonical_columns
from hypercover.gf2 import colex_subsets
from hypercover.grids import hex_coordinates
from hypercover.oracles import _block_table, _search

# gapped lists ({2}, {1,3}) need more than one multiplicity level in the search
LISTS = (MultiplicityList.any_positive(), MultiplicityList.up_to(2), MultiplicityList.of(2),
         MultiplicityList.of(1, 3), MultiplicityList.of(1))


def naive_min_cover(h, lst, candidates, max_t=4):
    """Try every multiset of candidate blocks of size 0..max_t."""
    block_edges = [implied_edges(b) for b in candidates]
    for t in range(max_t + 1):
        for combo in itertools.combinations_with_replacement(block_edges, t):
            counts = Counter(e for edges in combo for e in edges)
            if all(counts[e] in lst for e in h.edges):
                return t
    return None


def naive_search(h, candidates, lst, max_blocks=SearchBudget().max_blocks):
    """The search core kept simple: iterative deepening on the block count from
    0, one edge bitmask per multiplicity level, branching on the lowest edge
    whose multiplicity is not admissible with its blocks in candidate order,
    failed (state, blocks left) pairs remembered; no lower bound, no cut.
    `nodes` counts the DFS calls."""
    index = {e: i for i, e in enumerate(h.edges)}
    full = (1 << len(index)) - 1
    masks = [sum(1 << index[e] for e in implied_edges(b)) for b in candidates]
    cover_by_edge = [[bi for bi, m in enumerate(masks) if m >> i & 1] for i in range(len(index))]
    saturate = lst.allowed is None
    levels = (1,) if saturate else sorted(lst.allowed)
    depth = levels[-1]
    failed, chosen, nodes = set(), [], [0]

    def dfs(planes, left):
        nodes[0] += 1
        ok = 0
        for k in levels:
            ok |= planes[k - 1] if k == depth else planes[k - 1] & ~planes[k]
        bad = full & ~ok
        if not bad:
            return True
        if left == 0 or (planes, left) in failed:
            return False
        for bi in cover_by_edge[(bad & -bad).bit_length() - 1]:
            b = masks[bi]
            if not saturate and planes[-1] & b:
                continue
            grown = [planes[0] | b]
            for k in range(1, depth):
                grown.append(planes[k] | (planes[k - 1] & b))
            chosen.append(bi)
            if dfs(tuple(grown), left - 1):
                return True
            chosen.pop()
        failed.add((planes, left))
        return False

    for t in range(max_blocks + 1):
        if dfs((0,) * depth, t):
            witness = Cover(h.r, tuple(candidates[bi] for bi in chosen))
            return SearchOutcome(t, t, witness, nodes[0])
    return SearchOutcome(max_blocks + 1, nodes=nodes[0], stop="max_blocks")


def naive_inertia(matrix):
    """(n+, n-) of a symmetric matrix from its characteristic polynomial, by
    Faddeev–LeVerrier over Fraction, and Descartes' rule of signs, which counts
    the positive roots exactly when every root is real."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(1)]  # of x^n, x^(n-1), ..., x^0
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):  # M_k = A M_(k-1) + c I, next c = -tr(A M_k) / k
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        coeffs.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / k)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return (sign_changes(coeffs),
            sign_changes([c if (n - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]))


def fraction_inertia(matrix):
    """(n+, n-) by symmetric elimination over Fraction, kept simple: a
    non-zero diagonal entry is a pivot as it stands; when the diagonal left is
    all zero but a_ij is not, adding row and column j to row and column i
    makes a_ii = 2 a_ij the pivot; when everything left is zero, so is the
    rest of the spectrum. Sylvester's law of inertia counts the pivots."""
    a = [[Fraction(x) for x in row] for row in matrix]
    plus = minus = 0
    while a:
        m = len(a)
        i = next((k for k in range(m) if a[k][k]), None)
        if i is None:
            i, j = next(((k, l) for k in range(m) for l in range(m) if a[k][l]), (None, None))
            if i is None:
                break
            for row in a:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
        pivot = a[i]
        if pivot[i] > 0:
            plus += 1
        else:
            minus += 1
        rest = [k for k in range(m) if k != i]
        a = [[a[k][l] - f * pivot[l] for l in rest] if (f := a[k][i] / pivot[i])
             else [a[k][l] for l in rest] for k in rest]
    return plus, minus


def naive_link_lower_bound(h, lst):
    """The link bound from its definition: for each (r-2)-set S, the link's
    0/1 adjacency matrix over its vertices in increasing order, with
    fraction_inertia for one-value lists and naive_gf2_rank for odd lists."""
    allowed = lst.allowed
    if allowed is None or (len(allowed) > 1 and not all(k % 2 for k in allowed)):
        return 0
    best = 0
    for s in itertools.combinations(range(h.n), h.r - 2):
        pairs = [tuple(v for v in e if v not in s) for e in h.edges if set(s) <= set(e)]
        vertices = sorted({v for pair in pairs for v in pair})
        if not vertices:
            continue
        rows = [[int((min(u, v), max(u, v)) in pairs) for v in vertices] for u in vertices]
        if len(allowed) == 1:
            best = max(best, *fraction_inertia(rows))
        else:
            m = GF2Matrix(len(rows), len(rows),
                          tuple(sum(bit << j for j, bit in enumerate(row)) for row in rows))
            best = max(best, -(-naive_gf2_rank(m) // 2))
    return best


def naive_min_order(h, candidates):
    """Least total order of a set of candidates covering every edge, by a
    shortest-path sweep over all 2^|E| covered-edge sets in increasing order."""
    bit = {e: 1 << i for i, e in enumerate(h.edges)}
    blocks = [(sum(bit[e] for e in implied_edges(b)), b.order()) for b in candidates]
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
    edges = h.edges
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
    rows = [[entry(matrix, i, j) for j in range(matrix.cols)] for i in range(matrix.rows)]
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
    subsets = colex_subsets((r + 1) ** m, r // 2)
    return tuple(
        sum(1 << j for j, t in enumerate(subsets)
            if not set(s) & set(t) and tuple(sorted(s + t)) in edges)
        for s in subsets
    )


def naive_hex_cover(m):
    """hex_cover's blocks, each line and its rest found by scanning every cell."""
    coords = hex_coordinates(m)
    ids = {c: i for i, c in enumerate(coords)}
    blocks = []
    for axis in range(3):
        key = lambda c, a=axis: c[a]
        values = sorted(set(key(c) for c in coords))
        for val in values[:-1]:
            line = frozenset(ids[c] for c in coords if key(c) == val)
            rest = frozenset(ids[c] for c in coords if key(c) > val)
            if line and rest:
                blocks.append(RPartiteBlock((line, rest)))
    return tuple(blocks)


def naive_grid3_cover(m):
    """grid3_cover's blocks, each line, its later and its earlier lines found by
    scanning every cell; vertex v is the v-th cell in row-major order."""
    cells = [(row, col) for row in range(1, m + 1) for col in range(1, m + 1)]
    ids = {c: v for v, c in enumerate(cells)}
    families = [
        (lambda c: c[0], range(2, m)),                      # rows
        (lambda c: c[1], range(2, m)),                      # columns
        (lambda c: c[0] - c[1] + m, range(2, 2 * m - 1)),  # diagonals
        (lambda c: c[0] + c[1] - 1, range(2, 2 * m - 1)),  # counter-diagonals
    ]
    blocks = []
    for key, middle in families:
        for i in middle:
            line = frozenset(ids[c] for c in cells if key(c) == i)
            later = frozenset(ids[c] for c in cells if key(c) > i)
            earlier = frozenset(ids[c] for c in cells if key(c) < i)
            blocks.append(RPartiteBlock((line, later, earlier)))
    return tuple(blocks)


def naive_profile(h, c):
    """List every implied edge of every block: (edge of h -> count, foreign r-set -> count)."""
    counts = {e: 0 for e in h.edges}
    foreign = {}
    for b in c.blocks:
        for e in implied_edges(b):
            if e in counts:
                counts[e] += 1
            else:
                foreign[e] = foreign.get(e, 0) + 1
    return counts, foreign


def naive_verify(h, c, lst):
    """(ok, reason, witness edge, witness multiplicity) by a sorted scan over all edges."""
    counts, foreign = naive_profile(h, c)
    if foreign:
        e = min(foreign)
        return False, "foreign", e, foreign[e]
    for e in sorted(counts):
        if counts[e] not in lst:
            return False, "multiplicity", e, counts[e]
    return True, None, None, None


def naive_canonical(edges, r, n):
    """Sort and check the edges one by one."""
    out = set()
    for edge in edges:
        if any(type(v) is not int for v in edge):
            raise ValueError(f"edge {edge!r} has a vertex that is not an integer")
        t = tuple(sorted(edge))
        if len(t) != r or len(set(t)) != r:
            raise ValueError(f"edge {edge!r} must have exactly {r} distinct vertices")
        if t[0] < 0 or t[-1] >= n:
            raise ValueError(f"edge {edge!r} has a vertex outside 0..{n - 1}")
        out.add(t)
    return frozenset(out)


def naive_block_parts(parts):
    """Check the parts as frozensets, one rule at a time, and order them by
    their sorted vertex tuples; raise what RPartiteBlock raises."""
    parts = [list(p) for p in parts]
    if any(type(v) is not int for p in parts for v in p):
        raise ValueError("vertices must be integers")
    sets = [frozenset(p) for p in parts]
    if len(sets) < 2:
        raise ValueError("a block needs at least 2 parts")
    if not all(sets):
        raise ValueError("empty parts are rejected")
    if any(a & b for a, b in itertools.combinations(sets, 2)):
        raise ValueError("parts must be pairwise disjoint")
    if any(v < 0 for p in sets for v in p):
        raise ValueError("vertices must be non-negative")
    return tuple(tuple(sorted(p)) for p in sorted(sets, key=lambda p: tuple(sorted(p))))


def naive_label_classes(r, classes):
    """Check the label classes as given, then keep each as the sorted tuple
    of its frozenset; raise what LabelBlock raises."""
    classes = [list(c) for c in classes]
    if len(classes) != r:
        raise ValueError(f"expected {r} label classes")
    if not all(classes):
        raise ValueError("label classes must be non-empty")
    if any(type(x) is not int or not 0 <= x <= r for c in classes for x in c):
        raise ValueError(f"labels must be integers in 0..{r}")
    return tuple(tuple(sorted(frozenset(c))) for c in classes)


def naive_enumerate_blocks(h):
    """Filter all (r+1)^n part assignments: skip those with an empty part or
    seen under another part order, keep those whose transversals are edges."""
    r, n = h.r, h.n
    seen = set()
    out = []
    for assign in itertools.product(range(r + 1), repeat=n):
        parts = [tuple(v for v in range(n) if assign[v] == p + 1) for p in range(r)]
        if any(not p for p in parts):
            continue
        key = tuple(sorted(parts))
        if key in seen:
            continue
        seen.add(key)
        if any(tuple(sorted(c)) not in h.edges for c in itertools.product(*parts)):
            continue
        out.append(RPartiteBlock(tuple(map(frozenset, key))))
    out.sort(key=lambda b: tuple(tuple(sorted(p)) for p in b.parts))
    return out


def naive_table(h):
    """The parts and edge masks of naive_enumerate_blocks(h), the masks over
    the indices of h.edges."""
    index = {e: i for i, e in enumerate(h.edges)}
    blocks = naive_enumerate_blocks(h)
    return ([b.parts for b in blocks],
            [sum(1 << index[e] for e in implied_edges(b)) for b in blocks])


def naive_blocks_by_edge_sets(h):
    """The parts and edge masks of the blocks of h, sorted by parts, found
    from the sets F of edges rather than from part assignments, so that a
    sparse h on many vertices stays cheap: two vertices of F lie in one part
    exactly when no edge of F holds both, and F is the edge set of a block
    when these classes are r disjoint parts whose transversals are F."""
    found = []
    for size in range(1, len(h.edges) + 1):
        for chosen in itertools.combinations(range(len(h.edges)), size):
            edges = {h.edges[i] for i in chosen}
            vertices = set().union(*edges)
            together = {v: set() for v in vertices}
            for e in edges:
                for v in e:
                    together[v].update(e)
            classes = {frozenset(vertices - together[v] | {v}) for v in vertices}
            if len(classes) != h.r or sum(map(len, classes)) != len(vertices):
                continue
            parts = tuple(sorted(tuple(sorted(c)) for c in classes))
            if {tuple(sorted(t)) for t in itertools.product(*parts)} == edges:
                found.append((parts, sum(1 << i for i in chosen)))
    found.sort()
    return [parts for parts, _ in found], [mask for _, mask in found]


def naive_locally_maximal(blocks, h):
    """Blocks to which no vertex outside can be added, in any part, keeping
    every transversal of the grown block an edge of h."""
    out = []
    for b in blocks:
        grown = (b.parts[:i] + (set(p) | {v},) + b.parts[i + 1:]
                 for v in range(h.n) if all(v not in p for p in b.parts)
                 for i, p in enumerate(b.parts))
        if not any(all(tuple(sorted(c)) in h.edges for c in itertools.product(*parts))
                   for parts in grown):
            out.append(b)
    return out


def random_profile_case(rng):
    """A hypergraph and a cover, r = 2..5, drawn so that edges of h no block
    reaches, blocks that reach no edge of h, and prefixes (first r-1
    vertices) found only in h or only in the cover all turn up."""
    r = rng.randint(2, 5)
    n = rng.randint(r, r + 4)
    h = random_hypergraph(rng, n, r, rng.choice((0.0, 0.3, 0.7, 1.0)), nonempty=False)
    shape = rng.choice(("cover-of-h", "random", "empty", "off-h"))
    if shape == "cover-of-h":
        return h, random_cover_of(rng, h, extra=rng.randint(0, 2))
    if shape == "empty":
        return h, Cover(r, ())
    blocks = [random_block(rng, n, r) for _ in range(rng.randint(1, 3))]
    if shape == "off-h":  # h avoids the top vertex; every block edge uses it
        top = n - 1
        h = Hypergraph(r, n, frozenset(e for e in h.edges if top not in e))
        others = rng.sample(range(top), rng.randint(r - 1, top))
        parts = [others[i::r - 1] for i in range(r - 1)] + [[top]]
        blocks.append(RPartiteBlock(tuple(map(frozenset, parts))))
        blocks = [b for b in blocks if any(top in p for p in b.parts)]
    return h, Cover(r, tuple(blocks))


def spread(rng, h, c, n=5000):
    """The same case with its vertices moved, in order, to far-apart ids in
    0..n-1, so that masks offset from their prefix are exercised."""
    ids = sorted(rng.sample(range(n), h.n))
    moved = Hypergraph(h.r, n, frozenset(tuple(ids[v] for v in e) for e in h.edges))
    blocks = (RPartiteBlock(tuple(frozenset(ids[v] for v in p) for p in b.parts))
              for b in c.blocks)
    return moved, Cover(c.r, tuple(blocks))


MISSED = MultiplicityList.any_positive()
VERIFY_LISTS = LISTS + (MultiplicityList.of(2, 3), MultiplicityList.up_to(4))


def assert_profile_matches(h, c):
    counts, foreign = naive_profile(h, c)
    profile = multiplicity_profile(h, c)
    assert {e: profile.count(e) for e in h.edges} == counts
    # equal counts, and every naive foreign r-set covered, give equal foreign sets
    assert {f: profile.count(f) for f in foreign} == foreign
    assert profile.foreign == len(foreign)
    assert profile.least_foreign == min(foreign, default=None)
    assert list(profile.histogram().items()) == sorted(Counter(counts.values()).items())
    least = {}
    for e in sorted(counts):
        least.setdefault(counts[e], e)
    assert profile.least == least
    for lst in VERIFY_LISTS:
        res = verify_cover(h, c, lst)
        assert (res.ok, res.reason, res.witness_edge, res.witness_multiplicity) == \
            naive_verify(h, c, lst)
    missed = min((e for e, k in counts.items() if k == 0), default=None)
    assert profile.least_outside(MISSED) == missed
    if missed is None:
        derandomized_extraction(h, c)
    else:
        with pytest.raises(ValueError, match=re.escape(f"misses edge {missed};")):
            derandomized_extraction(h, c)


class TestProfileAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_covers(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            assert_profile_matches(*random_profile_case(rng))

    @pytest.mark.parametrize("seed", range(3))
    def test_spread_vertices(self, seed):
        rng = random.Random(50 + seed)
        for _ in range(30):
            assert_profile_matches(*spread(rng, *random_profile_case(rng)))

    # pi-5-2 and pi-3-3: short runs whose last vertices are not consecutive, each
    # link equal to its one plane when built, and not with a block dropped or repeated
    @pytest.mark.parametrize("case", ["hex-3", "hex-4", "grid3-3", "grid3-4", "log-9",
                                      "pi-2-2", "pi-3-2", "pi-4-1", "pi-5-2", "pi-3-3"])
    def test_constructions(self, case):
        kind, *args = case.split("-")
        args = tuple(map(int, args))
        if kind == "pi":
            h, c = cube_graph(*args).hypergraph, pi_partition(*args)
        else:
            h, c = {"hex": hex_cover, "grid3": grid3_cover, "log": log_cover}[kind](*args)
        assert_profile_matches(h, c)
        # dropping a block leaves some edges short, adding one covers some twice
        assert_profile_matches(h, Cover(c.r, c.blocks[1:]))
        assert_profile_matches(h, Cover(c.r, c.blocks + c.blocks[:1]))


class TestProfileRuns:
    """Fixed cases for the ends of a prefix's run of edges in h."""

    @pytest.mark.parametrize("h, c, witness", [
        # the counters of prefix (1,) reach vertex 3; (1, 6) and (1, 7) lie past it
        (Hypergraph(2, 8, [(1, 2), (1, 3), (1, 6), (1, 7), (2, 3)]),
         Cover(2, (RPartiteBlock(((1,), (2, 3))), RPartiteBlock(((2,), (3,))))), (1, 6)),
        # the same above prefix (0, 2) of a 3-graph, with a bare run after it
        (Hypergraph(3, 9, [(0, 2, 3), (0, 2, 4), (0, 2, 8), (1, 2, 3), (2, 3, 4)]),
         Cover(3, (RPartiteBlock(((0,), (2,), (3, 4))), RPartiteBlock(((1,), (2,), (3,))))),
         (0, 2, 8)),
    ])
    def test_run_past_the_counters_top_is_bare(self, h, c, witness):
        assert_profile_matches(h, c)
        res = verify_cover(h, c, MultiplicityList.of(1))
        assert (res.reason, res.witness_edge, res.witness_multiplicity) == \
            ("multiplicity", witness, 0)

    @pytest.mark.parametrize("h, c, histogram, foreign, witness", [
        # prefix (0,) has one plane equal to its link, and so does (1,)
        (Hypergraph(2, 4, [(0, 1), (0, 2), (1, 3)]),
         Cover(2, (RPartiteBlock(((0,), (1, 2))), RPartiteBlock(((1,), (3,))))),
         {1: 3}, None, None),
        # one plane, a strict superset of the link: (0, 2) is foreign
        (Hypergraph(2, 4, [(0, 1), (0, 3)]), Cover(2, (RPartiteBlock(((0,), (1, 2, 3))),)),
         {1: 2}, (0, 2), ("foreign", (0, 2), 1)),
        # one plane, a strict subset of the link: (0, 2) lies inside it, uncounted
        (Hypergraph(2, 4, [(0, 1), (0, 2), (0, 3)]), Cover(2, (RPartiteBlock(((0,), (1, 3))),)),
         {0: 1, 1: 2}, None, ("multiplicity", (0, 2), 0)),
        # two planes whose union is the link: (0, 1) twice, (0, 2) once
        (Hypergraph(2, 3, [(0, 1), (0, 2)]),
         Cover(2, (RPartiteBlock(((0,), (1, 2))), RPartiteBlock(((0,), (1,))))),
         {1: 1, 2: 1}, None, ("multiplicity", (0, 1), 2)),
    ])
    def test_one_pass_cases(self, h, c, histogram, foreign, witness):
        assert_profile_matches(h, c)
        profile = multiplicity_profile(h, c)
        assert profile.histogram() == histogram
        assert profile.least_foreign == foreign
        res = verify_cover(h, c, MultiplicityList.of(1))
        assert (res.reason, res.witness_edge, res.witness_multiplicity) == \
            (witness or (None, None, None))
        # a count of 1 outside the list is found in a link that took the shortcut
        assert profile.least_outside(MultiplicityList.of(2)) == \
            min(e for e in h.edges if profile.count(e) != 2)

    @pytest.mark.parametrize("edges, histogram, witness", [
        ([(0, 1), (0, 1500), (0, 2999)], {1: 3}, None),
        ([(0, 1), (0, 700), (0, 2999), (1, 2)], {0: 2, 1: 2}, ("foreign", (0, 1500), 1)),
    ])
    def test_link_wider_than_shifting_pays(self, edges, histogram, witness, monkeypatch):
        # the link of (0,) is not consecutive and wider than packed_bits shifts
        h = Hypergraph(2, 3000, edges)
        c = Cover(2, (RPartiteBlock(((0,), (1, 1500, 2999))),))
        assert_profile_matches(h, c)
        widths = []
        packed_bits = core.packed_bits
        monkeypatch.setattr(core, "packed_bits",
                            lambda positions, width: widths.append(width)
                            or packed_bits(positions, width))
        profile = multiplicity_profile(h, c)
        # the block's part (1, 1500, 2999) in the planes phase, then the link in
        # the sweep, both set in the byte table
        assert widths == [2999, 2999] and _SHIFT_WIDTH < 2999
        assert profile.histogram() == histogram
        res = verify_cover(h, c, MultiplicityList.of(1))
        assert (res.reason, res.witness_edge, res.witness_multiplicity) == \
            (witness or (None, None, None))

    def test_counted_prefix_without_edges_is_all_foreign(self):
        h = Hypergraph(2, 6, [(0, 1), (2, 3)])
        c = Cover(2, (RPartiteBlock(((0,), (1,))), RPartiteBlock(((2,), (3,))),
                      RPartiteBlock(((1,), (4, 5)))))
        assert_profile_matches(h, c)
        profile = multiplicity_profile(h, c)
        # (1,) has counters and no edge of h, so the sweep never reaches it
        assert (1,) in profile.planes and all(e[0] != 1 for e in h.edges)
        assert (profile.foreign, profile.least_foreign) == (2, (1, 4))
        assert profile.count((1, 4)) == profile.count((1, 5)) == 1
        res = verify_cover(h, c, MultiplicityList.of(1))
        assert (res.reason, res.witness_edge, res.witness_multiplicity) == ("foreign", (1, 4), 1)

    @pytest.mark.parametrize("extra, least", [
        # a foreign r-set the sweep meets, (2, 5), above the unreached (1, 4)
        (((2,), (3, 5)), (1, 4)),
        # and one below it, (0, 2), which stays the least
        (((0,), (1, 2)), (0, 2)),
    ])
    def test_least_foreign_across_reached_and_unreached_prefixes(self, extra, least):
        h = Hypergraph(2, 6, [(0, 1), (2, 3)])
        blocks = [((0,), (1,)), ((2,), (3,)), ((1,), (4, 5)), extra]
        c = Cover(2, tuple(map(RPartiteBlock, blocks)))
        assert_profile_matches(h, c)
        profile = multiplicity_profile(h, c)
        assert (profile.foreign, profile.least_foreign) == (3, least)

    @pytest.mark.parametrize("extra, lst", [(0, MultiplicityList.of(1)),
                                            (1, MultiplicityList.of(1, 2)),
                                            (1, MultiplicityList.any_positive())])
    def test_uncounted_edge_inside_a_link_fails(self, extra, lst):
        # (0, 2) lies between (0, 1) and (0, 3), inside the link of prefix (0,),
        # and no block contains it; every other count (2 on (0, 1) with the
        # extra block) is admitted by lst
        h = complete_hypergraph(4)
        blocks = [((0,), (1, 3)), ((1, 2), (3,)), ((1,), (2,))] + [((0,), (1,))] * extra
        c = Cover(2, tuple(map(RPartiteBlock, blocks)))
        assert_profile_matches(h, c)
        profile = multiplicity_profile(h, c)
        # the covered (0, 3) puts (0, 2) below the counters' top of (0,): inside
        # the link, not past it
        assert profile.count((0, 3)) >= 1
        assert (profile.counts[0], profile.least[0]) == (1, (0, 2))
        res = verify_cover(h, c, lst)
        assert (res.ok, res.reason, res.witness_edge, res.witness_multiplicity) == \
            (False, "multiplicity", (0, 2), 0)


class TestHexCoverAgainstLineScan:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_same_blocks_in_order(self, m):
        assert hex_cover(m)[1].blocks == naive_hex_cover(m)


class TestGrid3CoverAgainstLineScan:
    @pytest.mark.parametrize("m", range(2, 11))
    def test_same_blocks_in_order(self, m):
        assert grid3_cover(m)[1].blocks == naive_grid3_cover(m)


def canonical_input(rng):
    """An edge collection in some container, with at most one bad edge."""
    r = rng.randint(2, 5)
    n = rng.randint(r, r + 4)
    edges = list(random_hypergraph(rng, n, r, rng.random(), nonempty=True).edges)
    edges += rng.sample(edges, rng.randint(0, len(edges)))  # duplicates
    for i in rng.sample(range(len(edges)), rng.randint(0, len(edges))):
        e = list(edges[i])
        rng.shuffle(e)  # unsorted
        edges[i] = tuple(e)
    bad = rng.choice(("none", "range-high", "range-low", "repeat", "short", "long",
                      "bool", "float", "str"))
    if bad != "none":
        i = rng.randrange(len(edges))
        e = list(edges[i])
        j = rng.randrange(r)
        e = {"range-high": lambda: e[:j] + [n] + e[j + 1:],
             "range-low": lambda: e[:j] + [-1] + e[j + 1:],
             "repeat": lambda: e[:j] + [e[j - 1]] + e[j + 1:],
             "short": lambda: e[:-1],
             "long": lambda: e + [n + 1],
             "bool": lambda: e[:j] + [e[j] == 1] + e[j + 1:],
             "float": lambda: e[:j] + [e[j] + 0.5] + e[j + 1:],
             "str": lambda: e[:j] + [str(e[j])] + e[j + 1:]}[bad]()
        edges[i] = tuple(e)
    container = rng.choice(("frozenset", "list", "lists", "iterator"))
    if container == "frozenset":
        edges = frozenset(edges)
    elif container == "lists":
        edges = [list(e) for e in edges]
    elif container == "iterator":
        edges = iter(edges)
    return r, n, edges


class TestCanonicalAgainstPerEdge:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_inputs(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            r, n, edges = canonical_input(rng)
            if not isinstance(edges, (frozenset, list)):
                edges = list(edges)  # read by both sides
                given = iter(edges)
            else:
                given = edges
            try:
                expected = naive_canonical(edges, r, n)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    Hypergraph(r, n, given)
            else:
                assert Hypergraph(r, n, given).edges == tuple(sorted(expected))

    def test_canonical_input_is_stored_as_given(self):
        edges = tuple(itertools.combinations(range(7), 3))
        assert Hypergraph(3, 7, edges).edges is edges

    def test_unhashable_and_subclassed_edges(self):
        pairs = [[1, 0], [2, 1], [0, 1]]
        assert Hypergraph(2, 3, pairs).edges == ((0, 1), (1, 2))
        assert Hypergraph(2, 3, (list(p) for p in pairs)).edges == ((0, 1), (1, 2))
        Pair = namedtuple("Pair", "u v")
        edges = Hypergraph(2, 3, [Pair(0, 1), Pair(1, 2)]).edges
        assert edges == ((0, 1), (1, 2)) and {type(e) for e in edges} == {tuple}

    @pytest.mark.parametrize("edges", [[(0, 1), (0, True)], [(0, 1), (0, 1.0)],
                                       [(0, 1), ("0", 1)], [(0, 1), (0, [1])]])
    def test_non_integer_hidden_behind_a_duplicate(self, edges):
        with pytest.raises(ValueError, match="not an integer"):
            Hypergraph(2, 3, edges)


def assert_same_as_checked(built, r, n, edges):
    """`built` came through the unchecked constructor: it must equal, hash
    like and store the edges of Hypergraph(r, n, edges), and be canonical."""
    checked = Hypergraph(r, n, edges)
    assert (built.r, built.n, built.edges) == (checked.r, checked.n, checked.edges)
    assert built == checked and hash(built) == hash(checked)
    assert type(built.edges) is tuple and built.edge_set == checked.edge_set
    assert _canonical_columns(built.edges, r, n) is not None
    assert all(map(operator.lt, built.edges, built.edges[1:]))


def generated_cube_edges(r, m, rng):
    """Per coordinate, every choice of one vertex per fixed label there, in
    shuffled order: an edge with several such coordinates repeats."""
    n = (r + 1) ** m
    edges = []
    for j in range(m):
        by_label = [[v for v in range(n) if v // (r + 1) ** (m - 1 - j) % (r + 1) == x]
                    for x in range(r)]
        edges.extend(itertools.product(*by_label))
    rng.shuffle(edges)
    return edges


def listed(h):
    """h as a plain Hypergraph of its edges, read here: the listed host."""
    return Hypergraph(h.r, h.n, h.edges)


def profile_fields(profile):
    return (profile.planes, profile.counts, profile.least, profile.foreign,
            profile.least_foreign)


def witnesses(h, c):
    return [(res.ok, res.reason, res.witness_edge, res.witness_multiplicity)
            for res in (verify_cover(h, c, lst) for lst in VERIFY_LISTS)]


def assert_implicit_matches_listed(build, c):
    """The profile and every verify witness of c on the K_n^r that `build`
    returns, taken before its edges are listed, equal those on the listed host."""
    h = build()
    implicit = profile_fields(multiplicity_profile(h, c)), witnesses(h, c)
    assert "edges" not in vars(h)
    reference = listed(h)
    assert type(reference) is Hypergraph
    assert implicit == (profile_fields(multiplicity_profile(reference, c)),
                        witnesses(reference, c))


def cover_variants(c):
    """c as built, less its first block, with its first block repeated, and empty."""
    return {"built": c, "less-first": Cover(c.r, c.blocks[1:]),
            "repeated": Cover(c.r, c.blocks + c.blocks[:1]), "empty": Cover(c.r, ())}


class TestImplicitCompleteHostAgainstListed:
    """K_n^r held as (r, n) is swept over its counted prefixes alone, in closed
    form; the same host with its edges listed is swept run by run."""

    @pytest.mark.parametrize("kind,arg", [*(("hex", m) for m in range(2, 7)),
                                          *(("grid3", m) for m in range(2, 6)),
                                          *(("star", n) for n in (2, 3, 7, 12)),
                                          *(("log", n) for n in (2, 3, 7, 12))])
    @pytest.mark.parametrize("variant", ["built", "less-first", "repeated", "empty"])
    def test_constructions(self, kind, arg, variant):
        build = {"hex": hex_cover, "grid3": grid3_cover, "star": star_partition,
                 "log": log_cover}[kind]
        c = cover_variants(build(arg)[1])[variant]
        assert_implicit_matches_listed(lambda: build(arg)[0], c)

    @pytest.mark.parametrize("n,r,blocks,bare", [
        # (0,) has no counters: its edge (0, 1) is the least bare one, before
        # any counted prefix
        (5, 2, [((1,), (2, 3, 4)), ((2,), (3, 4)), ((3,), (4,))], (0, 1)),
        (6, 3, [((1,), (2,), (3, 4, 5))], (0, 1, 2)),
        # the uncounted (1,) and (1, 2) lie between fully covered counted prefixes
        (5, 2, [((0,), (1, 2, 3, 4)), ((2,), (3, 4)), ((3,), (4,))], (1, 2)),
        (5, 3, [((0,), (1,), (2, 3, 4)), ((0,), (2,), (3, 4)), ((0,), (3,), (4,)),
                ((1,), (3,), (4,))], (1, 2, 3)),
        # (0, 2) is counted, and its least bare edge lies inside its link
        (6, 3, [((0,), (1,), (2, 3, 4, 5)), ((0, 3), (1, 2), (4, 5))], (0, 2, 3)),
        # every prefix below (3,) is counted and fully covered; (3,) is not counted
        (5, 2, [((0,), (1, 2, 3, 4)), ((1,), (2, 3, 4)), ((2,), (3, 4))], (3, 4)),
        # the first prefix counted, with its least bare edge inside its link
        (5, 2, [((0,), (2, 3, 4)), ((1,), (2, 3, 4))], (0, 1)),
    ])
    def test_least_bare_edge(self, n, r, blocks, bare):
        c = Cover(r, tuple(map(RPartiteBlock, blocks)))
        assert_implicit_matches_listed(lambda: complete_hypergraph(n, r), c)
        assert multiplicity_profile(complete_hypergraph(n, r), c).least[0] == bare

    def test_every_prefix_counted_and_covered(self):
        # the walk for an uncounted prefix runs out of prefixes
        h, c = star_partition(6)
        profile = multiplicity_profile(h, c)
        assert 0 not in profile.least and profile.counts == {1: 15}
        assert_implicit_matches_listed(lambda: star_partition(6)[0], c)


def verify_reads(profile):
    """What verify_cover reads of a profile: its fields, and for each list the
    witness it gives, the least foreign r-set or else the least edge outside
    the list, with that witness's count."""
    reads = []
    for lst in VERIFY_LISTS:
        e = profile.least_foreign
        if e is None:
            e = profile.least_outside(lst)
        reads.append((e, None if e is None else profile.count(e)))
    return profile_fields(profile), reads


class TestImplicitCubeHostAgainstListed:
    """The cube held as (r, m) is swept over the prefixes its walk yields; the
    same host with its edges listed is swept run by run."""

    listed: dict = {}  # (r, m) -> the listed host, listed once for all covers

    @pytest.mark.parametrize("r,m", [*((2, m) for m in range(1, 6)), *((3, m) for m in (1, 2, 3)),
                                     (4, 2), (5, 2), (6, 2)])
    @pytest.mark.parametrize("variant", ["built", "less-first", "repeated", "empty", "foreign"])
    def test_pi_partitions(self, r, m, variant):
        h = cube_graph(r, m).hypergraph
        c = pi_partition(r, m)
        # a block of singletons with the all-star vertex n - 1, which no edge has
        foreign = RPartiteBlock(tuple(zip(range(r - 1))) + ((h.n - 1,),))
        c = dict(cover_variants(c), foreign=Cover(r, c.blocks + (foreign,)))[variant]
        reads = verify_reads(multiplicity_profile(h, c))
        assert "edges" not in vars(h)
        if (r, m) not in self.listed:
            self.listed[r, m] = listed(h)
        assert reads == verify_reads(multiplicity_profile(self.listed[r, m], c))
        assert (reads[0][4] is not None) == (variant == "foreign")

    @pytest.mark.parametrize("r,m", [(2, 2), (3, 2), (4, 2)])
    def test_random_covers(self, r, m):
        # blocks of random vertices, most of them foreign, some repeated
        rng = random.Random(r * 10 + m)
        for _ in range(15):
            blocks = [random_block(rng, (r + 1) ** m, r) for _ in range(rng.randint(0, 6))]
            c = Cover(r, tuple(blocks + blocks[:rng.randint(0, 2)]))
            assert_implicit_matches_listed(lambda: cube_graph(r, m).hypergraph, c)


class TestCanonicalBuildersAgainstChecked:
    """complete_hypergraph and cube_graph skip the per-edge check; the checked
    constructor is the reference."""

    @pytest.mark.parametrize("r", range(2, 6))
    def test_complete(self, r):
        for n in range(10):
            assert_same_as_checked(complete_hypergraph(n, r), r, n,
                                   list(itertools.combinations(range(n), r)))

    @pytest.mark.parametrize("r,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2),
                                     (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1)])
    def test_cube_graph(self, r, m):
        rng = random.Random(r * 10 + m)
        assert_same_as_checked(cube_graph(r, m).hypergraph, r, (r + 1) ** m,
                               generated_cube_edges(r, m, rng))

    @pytest.mark.parametrize("n,r,message", [(3, 1, "uniformity r must be at least 2"),
                                             (-1, 2, "vertex count must be non-negative")])
    def test_complete_sizes_refused(self, n, r, message):
        with pytest.raises(ValueError, match=message):
            complete_hypergraph(n, r)


def enumeration_corpus():
    """Hypergraphs at r = 2..4, n <= 7 (n <= 6 at r = 4): seeded random ones
    at several densities, the empty one, complete ones and a single edge."""
    rng = random.Random(41)
    corpus = [Hypergraph(2, 0), Hypergraph(3, 2), Hypergraph(2, 5), Hypergraph(4, 6),
              complete_hypergraph(5), complete_hypergraph(7), complete_hypergraph(6, 3),
              complete_hypergraph(6, 4), Hypergraph(3, 6, [(1, 3, 5)])]
    for p in (0.15, 0.5, 0.9):
        for r in (2, 3, 4):
            for _ in range(3):
                corpus.append(random_hypergraph(rng, rng.randint(r, 6 if r == 4 else 7), r, p))
    return corpus


class TestBlocksAgainstAssignments:
    """The backtracking enumerator lists the same blocks, in the same order,
    as filtering every part assignment; the table's edge masks are the
    blocks' implied edges, and its locally maximal blocks are those no vertex
    extends."""

    @pytest.mark.parametrize("h", enumeration_corpus(), ids=lambda h: f"r{h.r}n{h.n}e{len(h.edges)}")
    def test_same_list(self, h):
        blocks = enumerate_blocks(h)
        assert blocks == naive_enumerate_blocks(h)
        table = _block_table(h)
        index = {e: i for i, e in enumerate(h.edges)}
        assert table.masks == [sum(1 << index[e] for e in implied_edges(b)) for b in blocks]
        parts, masks = table.maximal
        maximal = naive_locally_maximal(blocks, h)
        assert parts == [b.parts for b in maximal]
        assert masks == [table.masks[blocks.index(b)] for b in maximal]


class TestSearchAgainstMultisetEnumeration:
    @pytest.mark.parametrize("seed", range(8))
    def test_small_graphs(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, rng.randint(2, 4), 2)
        candidates = enumerate_blocks(h)
        for lst in LISTS:
            expected = naive_min_cover(h, lst, candidates, max_t=4)
            got = min_cover_size(h, lst)
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
            got = min_cover_size(h, lst)
            assert got.is_exact and got.value == naive_min_cover(h, lst, candidates, max_t=6)

    def test_complete_graph_gapped_lists(self):
        # K_4 has a {1,2}-cover with 2 blocks, but a {1,3}-cover needs 3
        h = complete_hypergraph(4)
        candidates = enumerate_blocks(h)
        for lst in LISTS:
            got = min_cover_size(h, lst)
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


def search_candidates(h, lst):
    """The candidates min_cover_size searches when it lists them itself."""
    if lst.allowed is None:
        return [RPartiteBlock(parts) for parts in _block_table(h).maximal[0]]
    return enumerate_blocks(h)


def with_isolated_vertex(h: Hypergraph) -> Hypergraph:
    """h with one more vertex in no edge: the same edges in the same order, so
    the same block table, masks and link bound, but never complete, so its
    search branches at the root over every block."""
    return Hypergraph(h.r, h.n + 1, h.edges)


class TestSearchAgainstKeptSimpleCore:
    """The search core, which starts at the link bound, cuts states that cannot
    finish and tries wide blocks first, against naive_search, which does none
    of these."""

    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_corpus(self, seed):
        rng = random.Random(700 + seed)
        r = (2, 3)[seed % 2]
        h = random_hypergraph(rng, rng.randint(r, 6), r)
        for lst in LISTS:
            expected = naive_search(h, search_candidates(h, lst), lst)
            got = min_cover_size(h, lst)
            assert (got.status, got.value) == (expected.status, expected.value)
            if got.is_exact:
                assert verify_cover(h, got.witness, lst).ok
                assert len(got.witness.blocks) == got.value
                assert link_lower_bound(h, lst) <= expected.value
                # built without checks, the witness blocks are canonical already
                assert all(b == RPartiteBlock(b.parts) for b in got.witness.blocks)

    # {2} is left out: the reference takes 12 s on K_6 and 42 s on K_6^3 there
    @pytest.mark.parametrize("r", (2, 3))
    @pytest.mark.parametrize("lst", [lst for lst in LISTS if lst.allowed != {2}],
                             ids=MultiplicityList.describe)
    def test_complete_visits_no_more_states(self, r, lst):
        h = complete_hypergraph(6, r)
        expected = naive_search(h, search_candidates(h, lst), lst)
        got = min_cover_size(with_isolated_vertex(h), lst)
        assert got.is_exact and got.value == expected.value
        assert verify_cover(h, got.witness, lst).ok
        assert 0 < got.nodes <= expected.nodes


class TestDeficitCutAgainstKeptSimpleCore:
    """Lists whose least value m0 is 2 or more cut a state by the blocks its
    edges still lack, m0 - c for an edge covered c < m0 times; naive_search
    has no cut."""

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_corpus(self, seed):
        rng = random.Random(1500 + seed)
        r = (2, 3)[seed % 2]
        h = random_hypergraph(rng, rng.randint(r, 6), r)
        for lst in (MultiplicityList.of(2), MultiplicityList.of(2, 3), MultiplicityList.of(3)):
            expected = naive_search(h, enumerate_blocks(h), lst)
            got = min_cover_size(h, lst)
            assert (got.status, got.value) == (expected.status, expected.value)
            if got.is_exact:
                assert verify_cover(h, got.witness, lst).ok


class TestRootOrbitsAgainstUnreduced:
    """A complete hypergraph's search branches at the root over one block per
    orbit of the permutations fixing e0; with an isolated vertex added, the
    same table is searched in full."""

    @pytest.mark.parametrize("n", (4, 5, 6))
    @pytest.mark.parametrize("r", (2, 3))
    @pytest.mark.parametrize("lst", LISTS + (MultiplicityList.of(2, 3),),
                             ids=MultiplicityList.describe)
    def test_complete(self, n, r, lst):
        h = complete_hypergraph(n, r)
        padded = with_isolated_vertex(h)
        table, padded_table = _block_table(h), _block_table(padded)
        assert (table.parts, table.masks) == (padded_table.parts, padded_table.masks)
        got, unreduced = min_cover_size(h, lst), min_cover_size(padded, lst)
        assert got.is_exact and got.value == unreduced.value
        assert verify_cover(h, got.witness, lst).ok
        assert 0 < got.nodes <= unreduced.nodes
        # at n = 6, test_complete_visits_no_more_states and the pins in
        # test_oracles check the unreduced values; naive_search takes up to 15 s
        if n < 6:
            assert naive_search(h, search_candidates(h, lst), lst).value == got.value

    @pytest.mark.parametrize("n", (4, 5))
    def test_min_sum_of_orders(self, n):
        h = complete_hypergraph(n)
        table = _block_table(h)
        got = min_sum_of_orders(h)
        unreduced = _search(with_isolated_vertex(h), table.parts, table.masks,
                            MultiplicityList.any_positive(), SearchBudget(),
                            costs=[sum(map(len, p)) for p in table.parts])
        assert got.is_exact and got.value == unreduced.value == naive_min_order(
            h, enumerate_blocks(h))
        assert sum(b.order() for b in got.witness.blocks) == got.value
        assert 0 < got.nodes <= unreduced.nodes


def numbers_case(case, seed0: int, top: int) -> Hypergraph:
    """An integer case draws r = 2 or 3 and r..top vertices from seed0 + case;
    the named cases are the inputs those draws never give: no vertices, no
    edges, and four-uniform edges (drawn from seed0 + 100 + k for "r4-k")."""
    if case == "n0":
        return Hypergraph(2, 0)
    if case == "edgeless":
        return Hypergraph(3, 5)
    if isinstance(case, str):
        rng = random.Random(seed0 + 100 + int(case[3:]))
        return random_hypergraph(rng, rng.randint(6, 9), 4, 0.1)
    rng = random.Random(seed0 + case)
    r = rng.choice((2, 3))
    return random_hypergraph(rng, rng.randint(r, top), r)


NAMED_CASES = ["n0", "edgeless", "r4-0", "r4-1", "r4-2"]


class TestNumbersAgainstSubsetEnumeration:
    @pytest.mark.parametrize("seed", [*range(10), *NAMED_CASES])
    def test_independence(self, seed):
        h = numbers_case(seed, 0, 6)
        assert independence_number(h) == naive_independence(h)

    @pytest.mark.parametrize("seed", [*range(10), *NAMED_CASES])
    def test_matching(self, seed):
        h = numbers_case(seed, 50, 6)
        assert matching_number(h) == naive_matching(h)

    @pytest.mark.parametrize("seed", [*range(8), *NAMED_CASES])
    def test_chromatic(self, seed):
        h = numbers_case(seed, 80, 5)
        assert chromatic_number(h) == naive_chromatic(h)


def symmetric_integer_matrix(rng):
    """A symmetric integer matrix up to 9 x 9: entries in -3..3, or 0/1 with a
    zero diagonal (an adjacency matrix), or with its diagonal zeroed."""
    n = rng.randint(0, 9)
    kind = rng.choice(("small", "adjacency", "zero-diagonal"))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rng.randint(0, 1) if kind == "adjacency" else rng.randint(-3, 3)
            rows[i][j] = rows[j][i] = 0 if i == j and kind != "small" else x
    return rows


class TestInertiaAgainstFractionElimination:
    """Fraction-free elimination against the same elimination over Fraction."""

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_matrices(self, seed):
        rng = random.Random(1300 + seed)
        for _ in range(500):
            matrix = symmetric_integer_matrix(rng)
            assert inertia(matrix) == fraction_inertia(matrix)

    @pytest.mark.parametrize("r,n", [(2, n) for n in range(4, 8)] + [(3, n) for n in range(4, 8)])
    def test_link_bound_of_complete_hypergraphs(self, r, n):
        h = complete_hypergraph(n, r)
        for lst in (MultiplicityList.of(1), MultiplicityList.of(2), MultiplicityList.of(1, 3),
                    MultiplicityList.up_to(2)):
            assert link_lower_bound(h, lst) == naive_link_lower_bound(h, lst)


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
        assert cube_graph(r, m).hypergraph.edges == tuple(sorted(naive_cube_edges(r, m)))

    @pytest.mark.parametrize("r,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1),
                                     (4, 2), (5, 1), (5, 2)])
    def test_walk_links(self, r, m):
        # every prefix of an edge once, in increasing order, each grouped under
        # its parent and linked to the last vertices of its edges
        links = {}
        for e in naive_cube_edges(r, m):
            links[e[:-1]] = links.get(e[:-1], 0) | 1 << e[-1] - e[-2] - 1
        walked = [((*q, w), link) for q, children in cube._cube_runs(r, m)
                  for w, link in children]
        assert walked == sorted(links.items())

    @pytest.mark.parametrize("n", range(0, 9))
    def test_disjointness_rows(self, n):
        for k in range(n + 1):
            exact = colex_subsets(n, k)
            assert disjointness_matrix(n, k).data == naive_disjointness_rows(exact)
            upto = [s for i in range(k + 1) for s in colex_subsets(n, i)]
            assert disjointness_matrix_upto(n, k).data == naive_disjointness_rows(upto)

    @pytest.mark.parametrize("r,m", [(4, 1), (4, 2), (6, 1), (8, 1), (10, 1)])
    def test_adjacency_rows(self, r, m):
        assert adjacency_cube_matrix(r, m).data == naive_adjacency_rows(r, m)
