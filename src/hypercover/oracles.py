"""Brute-force exact values at desk scale: minimum covers and partitions,
minimum total block order, independence, matching and chromatic numbers.

Every search either returns a proven exact value or an explicit "unknown"
outcome carrying the proven bracket [lower, upper]; a wrong number is never
emitted. Candidate blocks are restricted to those whose implied edges lie
inside the target hypergraph, which covers-with-foreign-coverage never
satisfy anyway. They are listed once per hypergraph, each as its parts and an
edge mask, in a table that every search of it (or of an equal hypergraph)
reads while it is alive. The table is built in time proportional to its
blocks: the last part of each block is read off as a subset of the vertices
that complete every transversal of the others, which a vertex does exactly
when its star holds as many edges meeting every other part as they have
transversals. Only a witness's blocks become RPartiteBlocks, built without
re-checking parts that are canonical already.

The three cover searches share one core, `_search`. Block-count searches
start deepening at `bounds.link_lower_bound`, the eigenvalue (or GF(2) rank)
bound of the links, since every smaller count is proven infeasible there.
Every search drops a state as soon as the blocks it can still afford cannot
give its edges the multiplicity they still lack, and tries the widest of the
cheapest blocks first. A complete hypergraph branches at the root over one
block per symmetry orbit only.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, itemgetter, or_

from .bounds import link_lower_bound
from .core import (
    LIST_RANGE_GUARD,
    Cover,
    Hypergraph,
    MultiplicityList,
    RPartiteBlock,
    _canonical_block,
    check_guard,
)

# _BlockTable work in mask bits: K_11, K_9^3, K_9^5 and the cube r=3 m=2 are
# within it, K_12 and K_9^4 over; 10^7 takes 0.1-0.3 s to count (2-core Intel
# Xeon, Python 3.11.7)
TABLE_WORK_GUARD = 10_000_000


@dataclass(frozen=True)
class SearchBudget:
    max_blocks: int = 16
    max_seconds: float = 120.0

    def __post_init__(self):
        if self.max_blocks < 0 or not 0 < self.max_seconds < math.inf:
            raise ValueError("budget fields must be positive and max_seconds finite")


@dataclass(frozen=True)
class SearchOutcome:
    """Either an exact optimum or a proven bracket "unknown, in [lower,
    upper]", with the reason the search stopped."""

    lower: int
    value: int | None = None
    witness: Cover | None = None
    nodes: int = 0  # states the search visited
    stop: str = "exact"  # why it stopped: "exact" | "timeout" | "max_blocks"
    upper: int | None = None  # the cost of a cover known to exist; the value when exact

    def __post_init__(self):
        if self.stop not in ("exact", "timeout", "max_blocks"):
            raise ValueError("stop must be 'exact', 'timeout' or 'max_blocks'")
        if (self.stop == "exact") != (self.value is not None):
            raise ValueError("exact outcomes carry a value, unknown ones do not")
        if self.value is not None:
            if self.upper is None:
                object.__setattr__(self, "upper", self.value)
            elif self.upper != self.value:
                raise ValueError("an exact outcome's upper end is its value")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError("lower must not exceed upper")

    @property
    def is_exact(self) -> bool:
        return self.stop == "exact"

    @property
    def status(self) -> str:
        return "exact" if self.stop == "exact" else "unknown"


class _OutOfTime(Exception):
    pass


class _BlockTable:
    """Every block of one hypergraph whose implied edges are edges of it, in
    the order of their parts: `parts` holds each block's parts and `masks`
    its edges as a mask over the indices of h.edges.

    A block's edges are the AND of its parts' unions of stars, since an r-edge
    that meets r disjoint parts is one of their transversals. The table keeps
    the stars, never h, so that h stays collectable while its table is cached.

    Parts open in order of their least vertex, so every block is built once.
    The first r - 1 parts grow by adding vertices in increasing order: a
    state's children are the next vertex to add, which joins an open part or
    opens the next one. Any two vertices of a block in different parts share
    one of its edges, so each state carries `common`, the vertices that share
    an edge of h with every vertex placed so far: a part opens only with a
    vertex of `common`, and no vertex is added once fewer vertices of
    `common` would be left above it than parts are still to open (the last
    part included; each takes its least vertex from there).

    Once r - 1 parts are open, the state carries candidates for W instead,
    and W is read off when it is popped: the candidates above the least
    vertex of part r - 1 that complete every transversal of those parts to
    an edge. A vertex s outside the parts does so exactly when star[s] holds
    prod |P_i| edges of the AND of their unions, since each such edge is one
    transversal plus s. When part r - 1 opens with v, the candidates are the
    vertices above v that share an edge with every vertex placed. So W is
    disjoint from every part, and each non-empty subset S of W is the last
    part of exactly one block, whose edges are the AND of the other parts'
    unions with the union of S's stars.

    Every state with k >= 1 open parts grows in one join loop: v joins part
    i, and the child's `common` is the state's (W once k = r - 1) & adj[v],
    which leaves out v. Below r - 1 the loop stops once fewer than r - k
    vertices of `common` lie above v, and skips v when fewer of the child's
    do; at r - 1 it counts from vertex 0 and needs one, since the last part
    may lie below v. W only shrinks as the parts grow, so a state whose W is
    empty is dropped with its subtree, and every state kept from there on
    yields at least one block.

    `work` counts, in mask bits, what the build does: n·(|E| + n) for the
    stars and adjacency masks; |E| + n for each state popped and again for
    each vertex its loops may visit, each of which reads a star or an
    adjacency mask; and |E| for each block. It is checked against
    TABLE_WORK_GUARD before the masks are built, at every pop, and before
    each vertex of W doubles the lists of a state's last parts, so a wide W
    is refused before 2^|W| lists exist.
    """

    def __init__(self, h: Hypergraph):
        r, n, edges = h.r, h.n, len(h.edges)
        width = edges + n  # the bits of a star and an adjacency mask
        work, limit = n * width, TABLE_WORK_GUARD
        if work > limit:
            limit = _over(work)
        star = [0] * n  # for each vertex, the mask of the edges that hold it
        adj = [0] * n  # for each vertex, the others that share an edge with it
        for i, e in enumerate(h.edges):
            held = sum(1 << v for v in e)
            for v in e:
                star[v] |= 1 << i
                adj[v] |= held ^ 1 << v
        self.star = star
        active = sum(1 << v for v in range(n) if star[v])
        # (last vertex placed, parts, each part's union, common while fewer than
        # r - 1 parts are open and W's candidates from then on); depth does not
        # grow with n
        stack = [(-1, (), (), active)]
        groups = []  # (first r - 1 parts, last parts in increasing order, their masks)
        while stack:
            last, parts, unions, common = stack.pop()
            k = len(parts)
            above = active >> (last + 1) << (last + 1)
            # the pop and each vertex its loops may visit, each reading an edge
            # and a vertex mask: W's candidates are drawn from common, the
            # vertices that join or open a part from above
            work += (1 + (common | above).bit_count()) * width
            if work > limit:
                limit = _over(work)
            if k == r - 1:
                # W: the candidates whose stars hold one edge per transversal of the
                # parts; its non-empty subsets in increasing order, with their unions
                # of stars: v alone, v before each subset above v, then those subsets
                prefix, count = reduce(and_, unions), math.prod(map(len, parts))
                w, lasts, ors = 0, [], []
                rest = common
                while rest:
                    v = rest.bit_length() - 1
                    rest ^= 1 << v
                    sv = star[v]
                    if (prefix & sv).bit_count() == count:
                        work += edges * (len(lasts) + 1)
                        if work > limit:
                            limit = _over(work)
                        w |= 1 << v
                        lasts = [(v,), *[(v,) + s for s in lasts], *lasts]
                        ors = [sv, *[sv | u for u in ors], *ors]
                if not w:
                    continue
                groups.append((parts, lasts, [prefix & u for u in ors]))
                common = w
            else:
                rest = common & above
                while rest:  # open part k + 1 with v
                    low = rest & -rest
                    rest ^= low
                    if rest.bit_count() < r - k - 1:
                        break
                    v = low.bit_length() - 1
                    near = (common & adj[v]) >> (v + 1) << (v + 1)
                    if near.bit_count() >= r - k - 1:
                        stack.append((v, parts + ((v,),), unions + (star[v],), near))
            rest = above if k else 0
            while rest:  # v joins an open part
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                floor = 0 if k == r - 1 else v + 1
                if (common >> floor).bit_count() < r - k:
                    break
                near = common & adj[v]
                if (near >> floor).bit_count() < r - k:
                    continue
                sv = star[v]
                for i in range(k):
                    stack.append((v, parts[:i] + (parts[i] + (v,),) + parts[i + 1:],
                                  unions[:i] + (unions[i] | sv,) + unions[i + 1:], near))
        # blocks of one group share their first r - 1 parts: sorting groups sorts blocks
        groups.sort(key=itemgetter(0))
        self.parts = [parts + (s,) for parts, lasts, _ in groups for s in lasts]
        self.masks = [mask for _, _, masks in groups for mask in masks]
        self.work = work

    @cached_property
    def maximal(self) -> tuple[list, list]:
        """The parts and masks of the locally maximal blocks: those that no
        single vertex extends while staying inside h's edges.

        For r >= 2 a block's edge mask determines it: two of its vertices lie
        in one part exactly when no edge of it holds both. So if w extends a
        block B to B', which the table holds since it holds every block of h,
        then B's mask is the mask of B' without star[w], and w lies in a part
        of B' with at least two vertices; conversely, dropping such a w from a
        table block leaves a block, whose mask names it. B is therefore locally
        maximal exactly when no table block B' and vertex w of a part of B'
        with two or more vertices give mask(B') & ~star[w] = mask(B). For
        covers with unbounded admissible multiplicity, any block may be grown
        to a locally maximal one without hurting validity, so searching them
        preserves the minimum.
        """
        star = self.star
        shrunk = {mask & ~star[w] for block, mask in zip(self.parts, self.masks)
                  for p in block if len(p) > 1 for w in p}
        kept = [i for i, mask in enumerate(self.masks) if mask not in shrunk]
        return [self.parts[i] for i in kept], [self.masks[i] for i in kept]


def _over(work: int) -> float:
    """The limit on a block table's work once `work` has crossed
    TABLE_WORK_GUARD: GuardError unless the override is set, and no limit
    from then on, so the environment is read once per build."""
    check_guard("block table work", work, TABLE_WORK_GUARD)
    return math.inf


_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # Hypergraph -> _BlockTable


def _block_table(h: Hypergraph) -> _BlockTable:
    """h's block table, built on first use and shared by every equal
    hypergraph while one of them is alive (a table depends only on r, n and
    the edges). The work its build counted is checked against
    TABLE_WORK_GUARD on every call, so a table built under the guard override
    is not handed out without it."""
    table = _TABLES.get(h)
    if table is None:
        table = _TABLES[h] = _BlockTable(h)
    check_guard("block table work", table.work, TABLE_WORK_GUARD)
    return table


def enumerate_blocks(h: Hypergraph) -> list[RPartiteBlock]:
    """All complete r-partite blocks on subsets of the vertices whose implied
    edges are edges of h, each once up to part reordering, sorted by parts.
    They are read from h's block table (`_BlockTable`)."""
    return [_canonical_block(parts) for parts in _block_table(h).parts]


def _root_orbits(parts: list, branches: list[int]) -> list[int]:
    """The first of `branches`, the candidates covering e0 = (0, ..., r-1) in
    try order, of each orbit under the permutations of K_n^r that fix e0 as a
    set. Each such block puts one vertex of e0 in each part, so these
    permutations map one onto another exactly when their part sizes agree as
    multisets; the size of a part is also the only thing its cost reads."""
    seen, kept = set(), []
    for bi in branches:
        shape = tuple(sorted(map(len, parts[bi])))
        if shape not in seen:
            seen.add(shape)
            kept.append(bi)
    return kept


def _search(h: Hypergraph, parts: list, masks: list[int], lst: MultiplicityList,
            budget: SearchBudget, costs: list[int] | None = None) -> SearchOutcome:
    """Least total cost of a multiset of candidate blocks giving every edge of
    h a multiplicity in `lst`. Candidate bi has the parts parts[bi], covers the
    edges whose indices in h.edges are the bits of masks[bi], and costs
    costs[bi], or 1 when costs is None. The candidates must be h's block table,
    or its locally maximal blocks, with costs that read only part sizes: when
    h is complete, every permutation of the vertices then maps them onto
    themselves and keeps their costs.

    Iterative deepening on the total cost. Unit-cost searches start at
    `link_lower_bound(h, lst)`, below which no cover exists, and stop after
    budget.max_blocks; cost searches start at 0 and go up to r|E|, the cost of
    the all-singleton cover. The state is one edge bitmask per multiplicity
    level: plane k holds the edges covered at least k+1 times, up to the
    largest value of `lst` that the top cost can reach (none above it can be
    reached, so with no such value the search ends at once); the unbounded
    list keeps a single plane that saturates. A state fails at
    once when the blocks left to it, each covering at most as many edges as
    the widest candidate, cannot add the multiplicity its edges still lack:
    one for each edge whose multiplicity is not admissible, and m0 - c - 1
    more for each edge covered c < m0 = min L times. Otherwise the search
    branches on the lowest such edge, trying its blocks cheapest first and,
    among equal costs, widest first (ties keep the candidates' order). Failed
    (state, remaining cost) pairs are remembered across levels. Only the
    witness's blocks are built as RPartiteBlocks, canonical by construction.
    An unknown outcome's upper end is the cost of min L copies of each edge
    as a block of singletons (r|E| for a cost search, whose list is the
    unbounded one). The outcome's `nodes` counts the states visited over all
    levels; the clock is read at every 256th, and a search past
    budget.max_seconds stops as "timeout".

    When h is complete, the root branches on e0 = h.edges[0] over one block
    per orbit (`_root_orbits`): every cover holds a block covering e0, and a
    permutation fixing e0 maps that block to its orbit's representative and
    the cover to another cover of the same cost. Deeper states branch on all
    their blocks.
    """
    edges = len(h.edges)
    full = (1 << edges) - 1
    unit = costs is None
    if unit:
        costs = [1] * len(masks)
    widths = [mask.bit_count() for mask in masks]
    cover_by_edge: list[list[int]] = [[] for _ in range(edges)]
    for bi in sorted(range(len(masks)), key=lambda bi: (costs[bi], -widths[bi])):
        mask = masks[bi]
        while mask:
            low = mask & -mask
            cover_by_edge[low.bit_length() - 1].append(bi)
            mask ^= low
    cheapest, widest = min(costs, default=1), max(widths, default=0)
    if unit:
        top, start = budget.max_blocks, link_lower_bound(h, lst)
    else:
        top, start = h.r * edges, 0
    saturate = lst.allowed is None
    # min L copies of each edge as a block of singletons cover h
    upper = (1 if saturate else min(lst.allowed)) * edges * (1 if unit else h.r)
    # no edge is covered more often than the top cost allows, so higher levels
    # admit nothing
    levels = (1,) if saturate else sorted(k for k in lst.allowed if k <= top)
    if full and not levels:
        return SearchOutcome(max(start, top + 1), stop="max_blocks", upper=upper)
    depth = max(levels, default=0)
    # an edge covered c < m0 = min L times lacks m0 - c blocks: one is counted
    # as bad, the others are its absences from planes[c], ..., planes[m0 - 2]
    under = levels[0] - 1 if levels else 0
    roots = cover_by_edge[0] if edges else []
    if edges == math.comb(h.n, h.r):
        roots = _root_orbits(parts, roots)
    check_guard("search multiplicity planes", depth, LIST_RANGE_GUARD)
    t_end = time.monotonic() + budget.max_seconds
    nodes = 0
    failed: set = set()
    chosen: list[int] = []

    def dfs(planes: tuple, left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes % 256 == 0 and time.monotonic() > t_end:
            raise _OutOfTime
        ok = 0
        for k in levels:
            ok |= planes[k - 1] if k == depth else planes[k - 1] & ~planes[k]
        bad = full & ~ok
        if not bad:
            return True
        need = bad.bit_count()
        if under:  # planes are subsets of full
            need += sum((full ^ plane).bit_count() for plane in planes[:under])
        if left // cheapest * widest < need:
            return False
        key = (planes, left)
        if key in failed:
            return False
        # only the root has no covered edge
        for bi in cover_by_edge[(bad & -bad).bit_length() - 1] if planes[0] else roots:
            if costs[bi] > left:
                break
            b = masks[bi]
            if not saturate and planes[-1] & b:
                continue
            grown = [planes[0] | b]
            for k in range(1, depth):
                grown.append(planes[k] | (planes[k - 1] & b))
            chosen.append(bi)
            if dfs(tuple(grown), left - costs[bi]):
                return True
            chosen.pop()
        failed.add(key)
        return False

    for t in range(start, top + 1):
        try:
            found = dfs((0,) * depth, t)
        except _OutOfTime:
            return SearchOutcome(t, nodes=nodes, stop="timeout", upper=upper)
        if found:
            witness = Cover(h.r, tuple(_canonical_block(parts[bi]) for bi in chosen))
            return SearchOutcome(t, t, witness, nodes)
    return SearchOutcome(max(start, top + 1), nodes=nodes, stop="max_blocks", upper=upper)


def min_cover_size(
    h: Hypergraph,
    lst: MultiplicityList,
    budget: SearchBudget | None = None,
) -> SearchOutcome:
    """Smallest number of blocks giving every edge a multiplicity in `lst`.

    Iterative deepening on the block count; blocks may repeat (a multiset
    cover). The search runs over h's block table, and with the unbounded list
    over its locally maximal blocks only, which preserves the minimum.
    """
    table = _block_table(h)
    parts, masks = table.maximal if lst.allowed is None else (table.parts, table.masks)
    return _search(h, parts, masks, lst, budget or SearchBudget())


def min_partition_size(h: Hypergraph, budget: SearchBudget | None = None) -> SearchOutcome:
    """Smallest number of blocks covering every edge exactly once."""
    return min_cover_size(h, MultiplicityList.of(1), budget)


def min_sum_of_orders(h: Hypergraph, budget: SearchBudget | None = None) -> SearchOutcome:
    """Minimum total block order over all covers (every edge hit at least once).

    An "unknown" outcome carries the first total order not yet ruled out.
    """
    table = _block_table(h)
    return _search(h, table.parts, table.masks, MultiplicityList.any_positive(),
                   budget or SearchBudget(),
                   costs=[sum(map(len, parts)) for parts in table.parts])


def _lower_masks(h: Hypergraph) -> list[list[int]]:
    """For each vertex v, the masks of the other vertices of the edges whose
    largest vertex is v."""
    lower: list[list[int]] = [[] for _ in range(h.n)]
    for e in h.edges:
        lower[e[-1]].append(sum(1 << v for v in e[:-1]))
    return lower


def independence_number(h: Hypergraph) -> int:
    """Largest vertex set containing no edge of h entirely."""
    check_guard("independence_number vertices", h.n, 20)
    n, lower = h.n, _lower_masks(h)
    best = 0

    def rec(i: int, chosen: int, count: int):
        nonlocal best
        if count + (n - i) <= best:
            return
        if i == n:
            best = count
            return
        if all(m & ~chosen for m in lower[i]):
            rec(i + 1, chosen | 1 << i, count + 1)
        rec(i + 1, chosen, count)

    rec(0, 0, 0)
    return best


def matching_number(h: Hypergraph) -> int:
    """Largest set of pairwise disjoint edges."""
    edges = h.edges
    emasks = [sum(1 << v for v in e) for e in edges]
    support = reduce(or_, emasks, 0)
    greedy, used = 0, 0
    for em in emasks:
        if not em & used:
            used |= em
            greedy += 1
    if greedy == support.bit_count() // h.r:
        return greedy
    check_guard("matching_number edges", len(edges), 30)
    best = greedy

    def rec(i: int, used: int, count: int):
        nonlocal best
        if count > best:
            best = count
        if i == len(edges):
            return
        if count + (support & ~used).bit_count() // h.r <= best:
            return
        if not emasks[i] & used:
            rec(i + 1, used | emasks[i], count + 1)
        rec(i + 1, used, count)

    rec(0, 0, 0)
    return best


def chromatic_number(h: Hypergraph) -> int:
    """Fewest colors so that no edge is monochromatic."""
    check_guard("chromatic_number vertices", h.n, 12)
    n, lower = h.n, _lower_masks(h)

    def feasible(k: int) -> bool:
        classes = [0] * k  # the vertices given each color so far

        def bt(v: int, used: int) -> bool:
            if v == n:
                return True
            for c in range(min(used + 1, k)):
                cls = classes[c]
                # c is free for v unless v completes an edge within c's class
                if all(m & ~cls for m in lower[v]):
                    classes[c] = cls | 1 << v
                    if bt(v + 1, max(used, c + 1)):
                        return True
                    classes[c] = cls
            return False

        return bt(0, 0)

    # one color suffices exactly when h has no edge; no vertices need none
    for k in range(1, n + 1):
        if feasible(k):
            return k
    return n
