"""Brute-force exact values at desk scale: minimum covers and partitions,
minimum total block order, independence, matching and chromatic numbers.

Every search either returns a proven exact value or an explicit "unknown"
outcome carrying the proven lower bracket; a wrong number is never emitted.
Candidate blocks are restricted to those whose implied edges lie inside the
target hypergraph, which covers-with-foreign-coverage never satisfy anyway.

The three cover searches share one core, `_search`. Block-count searches
start deepening at `bounds.link_lower_bound`, the eigenvalue (or GF(2) rank)
bound of the links, since every smaller count is proven infeasible there.
Every search drops a state as soon as the blocks it can still afford cannot
reach every edge that still needs one, and tries the widest of the cheapest
blocks first.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import reduce
from operator import attrgetter, or_

from .bounds import link_lower_bound
from .core import (
    LIST_RANGE_GUARD,
    Cover,
    Hypergraph,
    MultiplicityList,
    RPartiteBlock,
    check_guard,
    check_power_guard,
)

ENUMERATION_GUARD = 16_500  # assignments (r+1)^n: n <= 8 at r = 2, n <= 7 at r = 3
CANDIDATE_GUARD = 200_000  # candidate blocks handed to one search


@dataclass(frozen=True)
class SearchBudget:
    max_blocks: int = 16
    max_seconds: float = 120.0

    def __post_init__(self):
        if self.max_blocks < 0 or not 0 < self.max_seconds < math.inf:
            raise ValueError("budget fields must be positive and max_seconds finite")


@dataclass(frozen=True)
class SearchOutcome:
    """Either an exact optimum or a proven bracket "unknown, >= lower"."""

    status: str  # "exact" | "unknown"
    lower: int
    value: int | None = None
    witness: Cover | None = None
    nodes: int = 0  # states the search visited

    def __post_init__(self):
        if self.status not in ("exact", "unknown"):
            raise ValueError("status must be 'exact' or 'unknown'")
        if (self.status == "exact") != (self.value is not None):
            raise ValueError("exact outcomes carry a value, unknown ones do not")

    @property
    def is_exact(self) -> bool:
        return self.status == "exact"


class _OutOfTime(Exception):
    pass


class _Deadline:
    def __init__(self, seconds: float):
        self.t_end = time.monotonic() + seconds
        self.calls = 0

    def check(self):
        self.calls += 1
        if self.calls % 256 == 0 and time.monotonic() > self.t_end:
            raise _OutOfTime


def _fits(edges, parts, v: int, i: int) -> bool:
    """True iff every transversal of the parts other than i, plus v, is an edge
    (vacuously while another part is empty)."""
    others = parts[:i] + parts[i + 1:]
    return all(tuple(sorted((*c, v))) in edges for c in itertools.product(*others))


def enumerate_blocks(h: Hypergraph) -> list[RPartiteBlock]:
    """All complete r-partite blocks on subsets of the vertices whose implied
    edges are edges of h, each once up to part reordering, sorted by parts.

    Vertices are given out in order: each stays out, joins an open part or
    opens the next, so parts open in order of their least vertex and every
    block is built once. A vertex joins a part only if it fits; each
    transversal is checked when its largest vertex joins, and a failed check
    prunes the subtree. A vertex in no edge only stays out: every vertex of a
    block lies in one of its edges. The (r+1)^n part assignments bound the work.
    """
    r, n, edges = h.r, h.n, h.edge_set
    check_power_guard("enumerate_blocks assignments", 1, r + 1, n, ENUMERATION_GUARD)
    in_edge = {v for e in h.edges for v in e}
    out = []
    stack = [(0, 0, ((),) * r)]  # (next vertex, parts opened, parts); depth does not grow with n
    while stack:
        v, opened, parts = stack.pop()
        if n - v < r - opened:
            continue
        if v == n:
            out.append(RPartiteBlock(parts))
            continue
        stack.append((v + 1, opened, parts))
        for i in range(min(opened + 1, r) if v in in_edge else 0):
            if _fits(edges, parts, v, i):
                stack.append((v + 1, max(opened, i + 1),
                              parts[:i] + (parts[i] + (v,),) + parts[i + 1:]))
    out.sort(key=attrgetter("parts"))
    return out


def _locally_maximal(blocks, h: Hypergraph) -> list[RPartiteBlock]:
    """The blocks of h (all their edges in h) that no single vertex can extend
    while staying inside h's edges.

    For covers with unbounded admissible multiplicity, any block may be grown
    to such a block without hurting validity, so restricting the search to
    them preserves the minimum.
    """
    return [b for b in blocks
            if not any(_fits(h.edge_set, b.parts, v, i)
                       for v in set(range(h.n)) - b.support() for i in range(b.r))]


def _search(h: Hypergraph, candidates, lst: MultiplicityList, budget: SearchBudget,
            cost=None) -> SearchOutcome:
    """Least total cost of a multiset of candidates giving every edge of h a
    multiplicity in `lst`; a block costs cost(block), or 1 when cost is None.

    Iterative deepening on the total cost. Unit-cost searches start at
    `link_lower_bound(h, lst)`, below which no cover exists, and stop after
    budget.max_blocks; cost searches start at 0 and go up to r|E|, the cost of
    the all-singleton cover. The state is one edge bitmask per multiplicity
    level: plane k holds the edges covered at least k+1 times, up to the
    largest value of `lst` that the top cost can reach (none above it can be
    reached, so with no such value the search ends at once); the unbounded
    list keeps a single plane that saturates. A state fails at
    once when the blocks left to it, each covering at most as many edges as
    the widest candidate, cannot reach every edge whose multiplicity is not
    admissible, since each such edge needs one more block. Otherwise the search
    branches on the lowest such edge, trying its blocks cheapest first and,
    among equal costs, widest first (ties keep the candidates' order). Failed
    (state, remaining cost) pairs are remembered across levels.
    """
    index = {e: i for i, e in enumerate(h.edges)}
    full = (1 << len(index)) - 1
    masks, costs = [], []
    cover_by_edge: list[list[int]] = [[] for _ in index]
    for bi, b in enumerate(candidates):
        mask = 0
        for e in b.implied_edges():
            if e not in index:
                raise ValueError(f"candidate block covers non-edge {e}")
            mask |= 1 << index[e]
            cover_by_edge[index[e]].append(bi)
        masks.append(mask)
        costs.append(1 if cost is None else cost(b))
    widths = [mask.bit_count() for mask in masks]
    for blocks in cover_by_edge:
        blocks.sort(key=lambda bi: (costs[bi], -widths[bi]))
    cheapest, widest = min(costs, default=1), max(widths, default=0)
    if cost is None:
        top, start = budget.max_blocks, link_lower_bound(h, lst)
    else:
        top, start = h.r * len(index), 0
    saturate = lst.allowed is None
    # no edge is covered more often than the top cost allows, so higher levels
    # admit nothing
    levels = (1,) if saturate else sorted(k for k in lst.allowed if k <= top)
    if full and not levels:
        return SearchOutcome("unknown", max(start, top + 1))
    depth = max(levels, default=0)
    check_guard("search multiplicity planes", depth, LIST_RANGE_GUARD)
    deadline = _Deadline(budget.max_seconds)
    failed: set = set()
    chosen: list[int] = []

    def dfs(planes: tuple, left: int) -> bool:
        deadline.check()
        ok = 0
        for k in levels:
            ok |= planes[k - 1] if k == depth else planes[k - 1] & ~planes[k]
        bad = full & ~ok
        if not bad:
            return True
        if left // cheapest * widest < bad.bit_count():
            return False
        key = (planes, left)
        if key in failed:
            return False
        for bi in cover_by_edge[(bad & -bad).bit_length() - 1]:
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
            return SearchOutcome("unknown", t, nodes=deadline.calls)
        if found:
            witness = Cover(h.r, tuple(candidates[bi] for bi in chosen))
            return SearchOutcome("exact", t, t, witness, deadline.calls)
    return SearchOutcome("unknown", max(start, top + 1), nodes=deadline.calls)


def min_cover_size(
    h: Hypergraph,
    lst: MultiplicityList,
    budget: SearchBudget | None = None,
    candidates: list[RPartiteBlock] | None = None,
) -> SearchOutcome:
    """Smallest number of blocks giving every edge a multiplicity in `lst`.

    Iterative deepening on the block count; blocks may repeat (a multiset
    cover). With the unbounded list the search runs over locally maximal
    blocks only, which preserves the minimum.
    """
    budget = budget or SearchBudget()
    if candidates is None:
        candidates = enumerate_blocks(h)
        if lst.allowed is None:
            candidates = _locally_maximal(candidates, h)
    check_guard("min_cover_size candidates", len(candidates), CANDIDATE_GUARD)
    return _search(h, candidates, lst, budget)


def min_partition_size(h: Hypergraph, budget: SearchBudget | None = None) -> SearchOutcome:
    """Smallest number of blocks covering every edge exactly once."""
    return min_cover_size(h, MultiplicityList.of(1), budget)


def min_sum_of_orders(h: Hypergraph, budget: SearchBudget | None = None) -> SearchOutcome:
    """Minimum total block order over all covers (every edge hit at least once).

    An "unknown" outcome carries the first total order not yet ruled out.
    """
    check_guard("min_sum_of_orders vertices", h.n, 5)
    return _search(h, enumerate_blocks(h), MultiplicityList.any_positive(),
                   budget or SearchBudget(), cost=RPartiteBlock.order)


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
