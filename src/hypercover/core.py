"""Core data model: r-uniform hypergraphs, complete r-partite blocks, covers,
and the multiplicity verifier every construction in this package is checked
against.

Conventions
- Vertices are integers 0..n-1, of type int exactly: bool, float and str
  vertices are refused, never converted.
- An edge is a sorted tuple of r distinct vertices; a hypergraph stores its
  edges deduplicated in this canonical form, as one increasing tuple.
- A complete r-partite block is given by r pairwise-disjoint non-empty vertex
  sets; its implied edges are all r-sets taking exactly one vertex per part.
  It stores each part as an increasing tuple and the parts in lexicographic
  order, so equal blocks compare equal and no consumer sorts a part again.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import itemgetter, lt, or_

Edge = tuple[int, ...]

GUARD_ENV = "HYPERCOVER_GUARD_OVERRIDE"
LIST_RANGE_GUARD = 100_000  # multiplicities in one "lo..hi" list
PROFILE_WORK_GUARD = 2_000_000_000  # counter bits added in multiplicity_profile
COMPLETE_EDGE_GUARD = 12_000_000  # edges of K_n^r; hex_cover(40) has 10,953,540
# packed_bits ORs shifts up to this width: below it shifting beat the byte
# table at every density timed (by 18% or more; 2-core Intel Xeon, Python
# 3.11.7), and at 2,048 bits with half the positions set the two broke even
_SHIFT_WIDTH = 1024


class GuardError(ValueError):
    """A size guard would be exceeded (lift with HYPERCOVER_GUARD_OVERRIDE=1)."""


def check_guard(description: str, actual: int, limit: int) -> None:
    """GuardError if actual > limit, unless the override is set. A count with
    more digits than int-to-str conversion allows is named by its power of two."""
    if actual > limit and os.environ.get(GUARD_ENV) != "1":
        try:
            shown = str(actual)
        except ValueError:
            shown = f"at least 2^{actual.bit_length() - 1}"
        raise GuardError(f"{description}: {shown} exceeds guard {limit}"
                         f" (set {GUARD_ENV}=1 to override)")


def check_power_guard(description: str, factor: int, base: int, exponent: int,
                      limit: int) -> None:
    """check_guard on factor * base**exponent (factor >= 1, base >= 2). It exceeds the
    limit once exponent > limit.bit_length(), and is then neither computed nor printed."""
    if exponent <= limit.bit_length():
        check_guard(description, factor * base**exponent, limit)
    elif os.environ.get(GUARD_ENV) != "1":
        raise GuardError(f"{description}: {factor} * {base}^{exponent} exceeds guard"
                         f" {limit} (set {GUARD_ENV}=1 to override)")


def _bounded_comb(n: int, k: int, limit: int) -> int | None:
    """C(n, k) (n >= 0), or None where it is known to exceed limit. For
    1 <= k < n it is at least n and at least 2^min(k, n-k), so it exceeds the
    limit once n or min(k, n-k) is too large, and is then not computed."""
    k = min(k, n - k)
    if k < 1:
        return int(k == 0)
    if n > limit or k > limit.bit_length():
        return None
    return math.comb(n, k)


def check_comb_guard(description: str, n: int, k: int, limit: int) -> None:
    """check_guard on C(n, k) (n >= 0), which is neither computed nor printed
    where _bounded_comb knows it exceeds the limit."""
    count = _bounded_comb(n, k, limit)
    if count is not None:
        check_guard(description, count, limit)
    elif os.environ.get(GUARD_ENV) != "1":
        raise GuardError(f"{description}: C(n, k) with n > {limit} or min(k, n - k) >"
                         f" {limit.bit_length()} exceeds guard {limit}"
                         f" (set {GUARD_ENV}=1 to override)")


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off, then restore its state.

    For the bulk builds of acyclic data only (a JSON document, tuples of
    ints): they cannot form a reference cycle, so a collection during the
    build walks millions of new objects and frees none of them. A collector
    the caller had turned off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _canonical_edge(edge, r: int, n: int) -> Edge:
    if any(type(v) is not int for v in edge):
        raise ValueError(f"edge {edge!r} has a vertex that is not an integer")
    t = tuple(sorted(edge))
    if len(t) != r or len(set(t)) != r:
        raise ValueError(f"edge {edge!r} must have exactly {r} distinct vertices")
    if t[0] < 0 or t[-1] >= n:
        raise ValueError(f"edge {edge!r} has a vertex outside 0..{n - 1}")
    return t


def _canonical_columns(rows, r: int, n: int, json_ints: bool = False,
                       keep: bool = True) -> list | None:
    """The columns of `rows`, column i holding item i of every row, if every
    row holds r ints increasing within 0..n-1; None otherwise.

    The rows must be sequences: a row without a length raises TypeError, and a
    mapping with r keys KeyError. Checked column by column, so the loops over
    the rows run in C, and the columns are kept for the caller; with `keep`
    false, only the column before the one being built is kept, so no more than
    two are held at once and only the last two are returned.
    Fewer rows than columns, such as one edge on 10^6 vertices, are checked
    row by row instead, so the loops over the vertices do, and then transposed.

    `json_ints` says the rows are parsed JSON with no bool, float or negative
    number in them; the type and sign passes are then skipped. Of the other
    JSON values, a string, array, object or null raises TypeError when
    compared with an int, NaN fails every comparison and Infinity is below
    neither the next column nor n, so any of them still fails the check.
    """
    if not rows:
        return []
    if set(map(len, rows)) != {r}:
        return None
    if len(rows) < r:
        if (all(set(map(type, e)) == {int} and all(map(lt, e, e[1:])) for e in rows)
                and min(e[0] for e in rows) >= 0 and max(e[-1] for e in rows) < n):
            return list(zip(*rows))
        return None
    columns = []
    for i in range(r):
        if not keep:
            del columns[:-1]
        column = list(map(itemgetter(i), rows))
        if not json_ints and set(map(type, column)) != {int}:
            return None
        if columns:
            if not all(map(lt, columns[-1], column)):
                return None
        elif not json_ints and min(column) < 0:
            return None
        columns.append(column)
    return columns if max(columns[-1]) < n else None


def _drop_repeats(edges) -> tuple:
    """The sorted `edges` as a tuple, each once; sorting made repeats adjacent."""
    return tuple(map(itemgetter(0), itertools.groupby(edges)))


def _in_order(edges) -> tuple:
    """Canonical edges as their strictly increasing tuple: `edges` itself when
    it already is one, else sorted with repeats dropped."""
    if all(map(lt, edges, itertools.islice(edges, 1, None))):
        return tuple(edges)
    return _drop_repeats(sorted(edges))


def _check_sizes(r: int, n: int) -> None:
    if r < 2:
        raise ValueError("uniformity r must be at least 2")
    if n < 0:
        raise ValueError("vertex count must be non-negative")


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertices 0..n-1.

    `edges` is the strictly increasing tuple of its edges, which is their
    canonical order; `edge_set` holds the same edges for membership tests.
    """

    r: int
    n: int
    edges: tuple = ()

    def __post_init__(self):
        r, n, edges = self.r, self.n, self.edges
        _check_sizes(r, n)
        if isinstance(edges, Iterator):  # read once, maybe checked twice
            edges = tuple(edges)
        # checked before deduplication, which would let (0, True) hide behind (0, 1)
        if (set(map(type, edges)) <= {tuple}
                and _canonical_columns(edges, r, n, keep=False) is not None):
            edges = _in_order(edges)
        else:
            edges = _drop_repeats(sorted(_canonical_edge(e, r, n) for e in edges))
        object.__setattr__(self, "edges", edges)

    @cached_property
    def edge_set(self) -> frozenset:
        """The edges as a frozenset, built on first use."""
        return frozenset(self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _links(self, planes: dict) -> Iterator[tuple]:
        """The host side of multiplicity_profile's sweep: for each prefix p of
        an edge of h, in increasing order, then for each prefix in `planes` that
        is of no edge of h, (p, counters, cover, link, past). counters is
        planes.get(p, ()) and cover their OR; link is the mask of p's link in
        h, clipped at the last vertex the cover reaches; past is the least edge
        of p beyond that vertex, or None.

        h's edges are sorted, so those of a prefix p form one run, at most
        n - 1 - p[-1] long, that ends before p + (n,): each is found by one
        bisect bounded by that length, and clipped by a second bounded by the
        run, made only when the run passes the cover's top."""
        edges, n = self.edges, self.n
        total = len(edges)
        reached = 0  # counted prefixes with a run in h
        end = 0
        while end < total:
            start = end
            p = edges[start][:-1]
            pmax = p[-1]
            end = bisect_left(edges, p + (n,), start, min(total, start + n - 1 - pmax))
            counters = planes.get(p, ())
            if counters:
                reached += 1
            # every bit some block covers above p; most counted runs have one plane
            cover = counters[0] if len(counters) == 1 else reduce(or_, counters, 0)
            top = pmax + cover.bit_length()
            stop = end
            if edges[end - 1][-1] > top:
                stop = bisect_left(edges, p + (top + 1,), start, end)
            link = 0
            if stop > start:
                first, last = edges[start][-1], edges[stop - 1][-1]
                if last - first == stop - 1 - start:  # consecutive last vertices
                    link = ((1 << (stop - start)) - 1) << (first - pmax - 1)
                else:
                    low = pmax + 1
                    link = packed_bits([e[-1] - low for e in edges[start:stop]], last - pmax)
            yield p, counters, cover, link, edges[stop] if stop < end else None
        if reached < len(planes):  # the rest have no edge in h
            for p, counters in planes.items():
                if (i := bisect_left(edges, p)) == total or edges[i][:-1] != p:
                    yield p, counters, reduce(or_, counters), 0, None


class _HeldHypergraph(Hypergraph):
    """A host held by its sizes: its edges are listed on the first read of
    `edges`, and its edge count is a closed form.

    It compares and hashes equal to the listed host with the same edges: a
    listed h with the same r, n and edge count is that host when
    _same_edges(h). The hash is the listed host's, so it lists the edges.
    _runs() is its walk in the form of _complete_runs, which writes its
    document."""

    def __post_init__(self):
        # only a call of the class, as dataclasses.replace makes, gets here:
        # the fields it is given need not be this host, so they make a listed host
        object.__setattr__(self, "__class__", Hypergraph)
        Hypergraph.__post_init__(self)

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return ((self.r, self.n, self.edge_count) == (other.r, other.n, other.edge_count)
                and self._same_edges(other))

    __hash__ = Hypergraph.__hash__


class _CompleteHypergraph(_HeldHypergraph):
    """K_n^r (n >= r) held as (r, n); its edge count and links are closed forms."""

    @cached_property
    def edges(self) -> tuple:
        with _collector_paused():
            # combinations of range(n) are increasing tuples in increasing order
            return tuple(itertools.combinations(range(self.n), self.r))

    @property
    def edge_count(self) -> int:
        return math.comb(self.n, self.r)

    def _same_edges(self, other: Hypergraph) -> bool:
        """C(n, r) distinct r-subsets of 0..n-1 are all of them."""
        return True

    def _runs(self) -> Iterator[tuple]:
        return _complete_runs(self.n, self.r)

    def __repr__(self) -> str:
        return f"complete_hypergraph({self.n}, {self.r})"

    def _links(self, planes: dict) -> Iterator[tuple]:
        """Hypergraph._links of K_n^r in closed form, for the counted prefixes
        and the least uncounted one, in increasing order: every vertex above
        p[-1] is in p's link, so the link is the whole span of the cover, and
        past is p with the next vertex. Each counted prefix is an
        (r-1)-subset of 0..n-2; the first such subset they skip is yielded
        too, with no counters, since its least edge may be the least edge no
        block covers."""
        n = self.n
        q = next((p for p in itertools.combinations(range(n - 1), self.r - 1)
                  if p not in planes), None)
        for p in sorted([*planes, q] if q is not None else planes):
            counters = planes.get(p, ())
            cover = reduce(or_, counters, 0)
            width = cover.bit_length()
            top = p[-1] + width
            yield p, counters, cover, (1 << width) - 1, p + (top + 1,) if top < n - 1 else None


def _complete_runs(n: int, r: int) -> Iterator[tuple]:
    """The walk of K_n^r (2 <= r <= n) in the form of _cube_runs: each
    (r-2)-subset q of 0..n-3 with its children q + (w,), each linked to every
    vertex above w."""
    for q in itertools.combinations(range(n - 2), r - 2):
        yield q, [(w, (1 << n - 1 - w) - 1) for w in range(q[-1] + 1 if q else 0, n - 1)]


# selectors for itertools.compress: "0" and "1" as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_bytes(mask: int) -> bytes:
    """Byte i of the result is bit i of mask (up to its top bit), for
    itertools.compress to pick the vertices of a link in C."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _canonical_hypergraph(r: int, n: int, edges: tuple) -> Hypergraph:
    """Hypergraph(r, n, edges) without the per-edge check, for builders whose
    edges are canonical by construction.

    The caller guarantees that `edges` is a tuple of strictly increasing
    r-tuples of ints in 0..n-1, in strictly increasing order. The result
    compares and hashes equal to Hypergraph(r, n, edges). r and n are still
    checked.
    """
    _check_sizes(r, n)
    h = object.__new__(Hypergraph)
    h.__dict__.update(r=r, n=n, edges=edges)  # the fields, as frozen __init__ sets them
    return h


def _complete(n: int, r: int) -> Hypergraph:
    """K_n^r, unguarded: held as (r, n) when it has an edge, and listed as
    the empty host when n < r."""
    _check_sizes(r, n)
    if n < r:
        return _canonical_hypergraph(r, n, ())
    h = object.__new__(_CompleteHypergraph)
    h.__dict__.update(r=r, n=n)  # the fields but edges, which is listed on first read
    return h


def _is_complete(h: Hypergraph) -> bool:
    """h has an edge and all C(n, r) r-subsets of 0..n-1; read off the edge
    count, with the binomial formed only where it can equal it."""
    count = h.edge_count
    return count > 0 and _bounded_comb(h.n, h.r, count) == count


def complete_hypergraph(n: int, r: int = 2) -> Hypergraph:
    """K_n^r: all r-subsets of 0..n-1, listed only when `edges` is first read.
    The guard still bounds C(n, r), the edges a reader may list."""
    check_comb_guard("complete_hypergraph edges", n, r, COMPLETE_EDGE_GUARD)
    return _complete(n, r)


def induced_subhypergraph(h: Hypergraph, vertices) -> tuple[Hypergraph, list[int]]:
    """Subhypergraph induced by `vertices`, relabeled to 0..len-1.

    Returns (subhypergraph, old_ids) where old_ids[new] = original vertex.
    The relabelling keeps the order of vertices, so the edges stay sorted,
    and the subhypergraph of a complete h is complete, listing no edge.
    ValueError for a vertex that is not an int in 0..n-1.
    """
    vertices = tuple(vertices)  # checked before a set merges True into 1
    if set(map(type, vertices)) - {int}:
        raise ValueError("vertices must be integers")
    old = sorted(set(vertices))
    if old and (old[0] < 0 or old[-1] >= h.n):
        raise ValueError(f"vertices must lie in 0..{h.n - 1}")
    if _is_complete(h):
        return _complete(len(old), h.r), old
    pos = {v: i for i, v in enumerate(old)}
    edges = tuple(tuple(pos[v] for v in e) for e in h.edges if all(v in pos for v in e))
    return Hypergraph(h.r, len(old), edges), old


@dataclass(frozen=True)
class RPartiteBlock:
    """A complete r-partite r-graph: r disjoint non-empty vertex classes.

    `parts` holds each class as an increasing tuple of vertices, the classes
    in lexicographic order, so equal blocks compare equal.
    """

    parts: tuple = ()

    def __post_init__(self):
        parts = tuple(map(tuple, self.parts))  # checked before a set merges True into 1
        if set(map(type, itertools.chain.from_iterable(parts))) - {int}:
            raise ValueError("vertices must be integers")
        parts = [p if len(p) == 1 else tuple(sorted(set(p))) for p in parts]
        if len(parts) < 2:
            raise ValueError("a block needs at least 2 parts")
        if not all(parts):
            raise ValueError("empty parts are rejected")
        if len(set().union(*parts)) != sum(map(len, parts)):
            raise ValueError("parts must be pairwise disjoint")
        if min(map(itemgetter(0), parts)) < 0:
            raise ValueError("vertices must be non-negative")
        object.__setattr__(self, "parts", tuple(sorted(parts)))

    @property
    def r(self) -> int:
        return len(self.parts)

    def order(self) -> int:
        return sum(len(p) for p in self.parts)


def _canonical_block(parts: tuple) -> RPartiteBlock:
    """RPartiteBlock(parts) without its checks, for builders whose parts are
    canonical by construction.

    The caller guarantees that `parts` is a tuple of at least 2 non-empty,
    pairwise disjoint, strictly increasing tuples of non-negative ints, in
    increasing order. The result compares and hashes equal to
    RPartiteBlock(parts).
    """
    block = object.__new__(RPartiteBlock)
    block.__dict__["parts"] = parts  # the field, as frozen __init__ sets it
    return block


@dataclass(frozen=True)
class Cover:
    """An ordered collection of complete r-partite blocks of one uniformity."""

    r: int
    blocks: tuple = ()

    def __post_init__(self):
        blocks = tuple(self.blocks)
        for b in blocks:
            if b.r != self.r:
                raise ValueError(f"block uniformity {b.r} != cover uniformity {self.r}")
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class MultiplicityList:
    """The list L of admissible edge multiplicities.

    `allowed` is a frozenset of positive integers, or None for the unbounded
    list (any multiplicity >= 1 admissible).
    """

    allowed: frozenset | None = None

    def __post_init__(self):
        if self.allowed is not None:
            values = tuple(self.allowed)  # checked before a set can merge 1.0 into 1
            if not values:
                raise ValueError("multiplicity list must be non-empty")
            odd = [x for x in values if type(x) is not int]
            if odd:  # bool, float and str are refused, as for vertices
                raise ValueError(f"multiplicity {odd[0]!r} is not an integer")
            allowed = frozenset(values)
            if any(x < 1 for x in allowed):
                raise ValueError("multiplicities must be positive")
            object.__setattr__(self, "allowed", allowed)

    @classmethod
    def of(cls, *values: int) -> "MultiplicityList":
        return cls(values)

    @classmethod
    def up_to(cls, p: int) -> "MultiplicityList":
        return cls._range(1, p)

    @classmethod
    def _range(cls, lo: int, hi: int) -> "MultiplicityList":
        """lo..hi, refused by LIST_RANGE_GUARD before the set is built."""
        check_guard("multiplicity range width", hi - lo + 1, LIST_RANGE_GUARD)
        return cls(frozenset(range(lo, hi + 1)))

    @classmethod
    def any_positive(cls) -> "MultiplicityList":
        return cls(None)

    @classmethod
    def parse(cls, spec: str) -> "MultiplicityList":
        """Parse "a,b,c", "1..p", or "any"."""
        spec = spec.strip()
        if spec.lower() == "any":
            return cls.any_positive()
        if ".." in spec:
            return cls._range(*(int(x) for x in spec.split("..", 1)))
        return cls(frozenset(int(x) for x in spec.split(",")))

    def __contains__(self, count: int) -> bool:
        if self.allowed is None:
            return count >= 1
        return count in self.allowed

    def describe(self) -> str:
        if self.allowed is None:
            return "any"
        return ",".join(str(x) for x in sorted(self.allowed))


def packed_bits(positions, width: int) -> int:
    """The int with bit j set for each j in `positions` (all below width;
    repeats allowed).

    Up to _SHIFT_WIDTH bits, one shift per position is ORed into an int. Each
    OR costs time in the width, so wider masks, such as gf2's wide columns
    and the links of K_4681-scale runs, are set in a byte table instead, in
    O(len(positions) + width), where shifting would take their product."""
    if width <= _SHIFT_WIDTH:
        bits = 0
        for j in positions:
            bits |= 1 << j
        return bits
    row = bytearray((width + 7) // 8)
    for j in positions:
        row[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(row, "little")


def _split(mask: int, planes) -> list:
    """Split mask by the bit-sliced counters `planes` (plane k holds bit k of
    each count) into non-empty (submask, count) pairs."""
    groups = [(mask, 0)] if mask else []
    for k, plane in enumerate(planes):
        groups = [(m, count) for g, low in groups
                  for m, count in ((g & ~plane, low), (g & plane, low | 1 << k)) if m]
    return groups


@dataclass(frozen=True)
class MultiplicityProfile:
    """How many blocks of a cover contain each r-set, and what verify reads of it.

    The prefix of an edge is its first r-1 vertices. Bit i of a mask of
    prefix p stands for the last vertex p[-1] + 1 + i, so a mask is as wide as
    the span it covers above p, whatever n is. planes[p][k] has bit i set when
    bit k of the number of blocks containing that r-set is 1; prefixes of no
    block edge have no planes. counts maps each multiplicity, 0 included, to
    the number of edges of h covered that often, and least maps it to the
    least such edge. A covered r-set that is not an edge of h is foreign;
    foreign is their number and least_foreign the least of them, or None.
    The pass that builds the profile fills them all; no query reads the
    counters again, except count.
    """

    planes: dict
    counts: dict
    least: dict
    foreign: int
    least_foreign: Edge | None

    def histogram(self) -> dict:
        """Multiplicity -> number of edges of h covered that often, ascending."""
        return dict(sorted(self.counts.items()))

    def count(self, edge: Edge) -> int:
        """Number of blocks containing the sorted r-set `edge`."""
        i = edge[-1] - edge[-2] - 1
        return sum(1 << k for k, plane in enumerate(self.planes.get(edge[:-1], ()))
                   if plane >> i & 1)

    def least_outside(self, lst: "MultiplicityList") -> Edge | None:
        """The least edge of h whose multiplicity is not in `lst`; those covered
        0 times all are, since no list admits 0."""
        return min((e for count, e in self.least.items() if count not in lst), default=None)


def _cuts(b: RPartiteBlock) -> list:
    """(cut, upper, bits) for each part P of b that holds the largest vertex
    of some edge of b. An edge whose largest vertex lies in P has one vertex
    from each of the other parts cut below max(P) as its prefix; the cut
    parts give each such prefix once. upper holds the vertices of P above the
    least top a prefix can have, the only ones a mask of P can take. bits
    bounds the bits of those masks: each spans at most max(P) minus that top."""
    parts = b.parts
    second, first = sorted(q[0] for q in parts)[-2:]
    cuts = []
    for p in parts:
        # no cut part is empty iff max(P) exceeds the least vertex of every
        # other part, tested before any cut is built
        floor = second if p[0] == first else first
        if p[-1] > floor:
            cut = tuple([q[:bisect_left(q, p[-1])] for q in parts if q is not p])
            bits = math.prod(map(len, cut)) * (p[-1] - floor)
            cuts.append((cut, p[bisect_right(p, floor):], bits))
    return cuts


def multiplicity_profile(h: Hypergraph, c: Cover) -> MultiplicityProfile:
    """Count, for every edge of h and every foreign r-set, the blocks of c
    containing it.

    Block edges are never listed: for each part P of a block and each prefix
    its cut parts give, one mask of the vertices of P above the prefix is
    added to the counters of that prefix. Masks start just above their
    prefix, so the work is the span the blocks cover, not the vertex count.

    The counters are then read in one sweep over prefixes, in increasing
    order, whose links come from h (h._links): a listed h gives the runs of
    its sorted edges, and then the counted prefixes of none of its edges;
    K_n^r gives the counted prefixes alone, in closed form; the cube host
    gives every prefix its walk meets, and then those of none of its edges.
    A link is clipped at the last vertex the counters reach, where the
    prefix's cover, the OR of its counters, ends. Each link is tallied as it comes: a link equal to its
    one plane is covered exactly once, and the edges of all such links are
    summed in the sweep and added to multiplicity 1 once, after it; any other
    link is split by its counters, whose bits outside it are foreign. The
    edges of h no block covers, bare, number |E| less the covered ones. The
    sweep meets prefixes in increasing order, so the first edge it meets at
    each multiplicity is the least, and so is the first bare one: a link's
    bare bits, then the edge past its top, or a prefix with no counters.
    """
    if c.r != h.r:
        raise ValueError(f"cover uniformity {c.r} != hypergraph uniformity {h.r}")
    cuts = []
    for b in c.blocks:
        block_cuts = _cuts(b)
        top = max(upper[-1] for _, upper, _ in block_cuts)  # the part of b's top is never cut away
        if top >= h.n:
            raise ValueError(f"block vertex {top} outside 0..{h.n - 1}")
        cuts += block_cuts
    check_guard("multiplicity_profile counter bits added",
                sum(bits for _, _, bits in cuts), PROFILE_WORK_GUARD)
    planes: dict = {}
    for cut, upper, _ in cuts:
        low = upper[0]
        whole = packed_bits([v - low for v in upper], upper[-1] - low + 1)
        # a combination has one vertex per cut part; its sorted tuple is the prefix
        prefixes = (zip(cut[0]) if len(cut) == 1
                    else map(tuple, map(sorted, itertools.product(*cut))))
        for p in prefixes:
            shift = p[-1] + 1 - low
            mask = whole >> shift if shift >= 0 else whole << -shift
            counters = planes.get(p)
            if counters is None:
                planes[p] = [mask]
                continue
            for k, plane in enumerate(counters):  # add 1 at each bit of mask, with carry
                counters[k] = plane ^ mask
                mask &= plane
                if not mask:
                    break
            else:
                counters.append(mask)
    counts, least = {}, {}
    foreign, least_foreign = 0, None
    once = 0  # edges of the links equal to their one plane
    # bit i of a mask of p stands for vertex p[-1] + 1 + i
    for p, counters, cover, link, past in h._links(planes):
        if cover == link and len(counters) == 1:
            if not once:
                least.setdefault(1, p + (p[-1] + (link & -link).bit_length(),))
            once += link.bit_count()
        else:
            pmax = p[-1]
            mask = cover & ~link
            if mask:  # a counted prefix of no edge of h comes last: keep the least
                e = p + (pmax + (mask & -mask).bit_length(),)
                if least_foreign is None or e < least_foreign:
                    least_foreign = e
                foreign += mask.bit_count()
            for m, count in _split(link, counters):
                if count not in least:
                    least[count] = p + (pmax + (m & -m).bit_length(),)
                counts[count] = counts.get(count, 0) + m.bit_count()
        if past is not None:  # after the link's edges, all below the top
            least.setdefault(0, past)
    if once:
        counts[1] = counts.get(1, 0) + once
    counts.pop(0, None)
    bare = h.edge_count - sum(counts.values())
    if bare:
        counts[0] = bare
    return MultiplicityProfile(planes, counts, least, foreign, least_foreign)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None  # "multiplicity" | "foreign" when not ok
    witness_edge: Edge | None = None
    witness_multiplicity: int | None = None
    profile: MultiplicityProfile | None = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.ok


def verify_cover(h: Hypergraph, c: Cover, lst: MultiplicityList) -> VerifyResult:
    """Pass iff every edge multiplicity lies in `lst` and nothing foreign is covered."""
    profile = multiplicity_profile(h, c)
    e = profile.least_foreign
    if e is not None:
        return VerifyResult(False, "foreign", e, profile.count(e), profile)
    e = profile.least_outside(lst)
    if e is not None:
        return VerifyResult(False, "multiplicity", e, profile.count(e), profile)
    return VerifyResult(True, profile=profile)


def verify_partition(h: Hypergraph, c: Cover) -> VerifyResult:
    """Exact-once coverage: verify_cover with L = {1}."""
    return verify_cover(h, c, MultiplicityList.of(1))


# --- JSON round trip ---------------------------------------------------------
#
# Hypergraph: {"r": int, "n": int, "edges": [[v, ...], ...]}  edges sorted
# Cover:      {"r": int, "blocks": [{"parts": [[v, ...], ...]}, ...]}
#
# Canonical form sorts vertices inside edges/parts and sorts the edge list and
# the parts of each block; block order is preserved. Dumps of canonical
# objects round-trip byte-identically. The dumps hold only dicts, tuples and
# ints built in place, which form no cycle, so json's circular-reference check
# (an id-dict insert and delete per edge) is off.
#
# A complete host K_n^r is fixed by (n, r), and the cube host by (r, m), and
# so is each one's document: it is written without json and without reading
# an edge, from the host's walk (_complete_runs, _cube_runs), one join per
# (r-1)-prefix over the decimal literals of its link (_json_chunks), in the
# bytes json.dumps writes. Loading turns that around: a str, or its UTF-8
# bytes, whose tail names (n, r) with 1 <= C(n, r) <= COMPLETE_EDGE_GUARD, or
# with n = (r+1)^m for an (r, m) the cube guards admit, at least 2r|E| long,
# and which equals that host's document chunk by chunk up to the tail's "}",
# with JSON whitespace after it at most, is that host, held as (r, n) or
# (r, m) without parsing, decoding or listing an edge. Any other text falls
# through to the parse below, bytes decoded first.
#
# A parsed document is loaded so that it and its edges are never held
# twice. Its number literals are parsed once per distinct literal (_Literals),
# so each vertex is one int object however often it occurs; without that,
# every occurrence above 256 is an int of its own. r and n are checked first.
# The rows are then checked column by column with the check Hypergraph itself
# runs (_canonical_columns), which keeps the columns. When no float literal
# was parsed and the text holds no "t", "f" or "-", the document holds no
# bool, float or negative number, and the check skips its type and sign
# passes, which pays for the parse hook. The rows are then released, and only
# then are the edge tuples zipped from the columns and put in order. A
# document that fails the check is passed to Hypergraph as tuples, the
# general path with its own errors.


def _json_chunks(n: int, r: int, runs) -> Iterator[str]:
    """The canonical document of the host on 0..n-1 whose walk is `runs`, in
    the form of _cube_runs, in chunks: the edges of each (r-1)-prefix p in
    one, a single join of the decimal literals of p's link, each opened by
    "],[" and p's own literals, which its parent q's give with one more."""
    literals = list(map(str, range(n)))
    opening = '{"edges":[['
    for q, links in runs:
        parent = "".join([literals[v] + "," for v in q])
        for w, link in links:
            head = parent + literals[w] + ","
            if link & link + 1:
                last = itertools.compress(itertools.islice(literals, w + 1, None), _bit_bytes(link))
            else:  # every vertex from w + 1 on, as in K_n^r: a slice
                last = literals[w + 1:w + 1 + link.bit_length()]
            yield opening + head + ("],[" + head).join(last)
            opening = "],["
    yield f']],"n":{n},"r":{r}}}'


def hypergraph_json_chunks(h: Hypergraph) -> Iterator[str]:
    """hypergraph_to_json(h) in chunks, for writing without joining them: a
    host held by its sizes, or a listed complete h (C(n, r) > 0 edges), run
    by run from its walk, with no edge read; any other h, the edgeless n < r
    among them, in one chunk."""
    if isinstance(h, _HeldHypergraph):
        return _json_chunks(h.n, h.r, h._runs())
    if _is_complete(h):
        return _json_chunks(h.n, h.r, _complete_runs(h.n, h.r))
    doc = {"r": h.r, "n": h.n, "edges": h.edges}  # tuples dump as arrays, already sorted
    return iter([json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False)])


def hypergraph_to_json(h: Hypergraph) -> str:
    return "".join(hypergraph_json_chunks(h))


def _json_int(doc, key: str) -> int:
    """doc[key], which must be a JSON integer (true, 2.0 and "2" are refused)."""
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, not {type(value).__name__}")
    return value


def _json_array(doc, key: str) -> list:
    """doc[key], which must be a JSON array ("" and {} are refused, not read as
    empty); the TypeError is reported as malformed JSON."""
    value = doc[key]
    if type(value) is not list:
        raise TypeError(f"{key!r} must be an array, not {type(value).__name__}")
    return value


class _Literals(dict):
    """Number literal -> its value by `parse`, parsed on first sight: as a json
    hook (its bound __getitem__), it makes equal numbers of one document one
    object."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, literal: str):
        value = self[literal] = self.parse(literal)
        return value


def _parse_hypergraph(text: str) -> Hypergraph:
    floats = _Literals(float)
    doc = json.loads(text, parse_int=_Literals(int).__getitem__, parse_float=floats.__getitem__)
    r, n, rows = _json_int(doc, "r"), _json_int(doc, "n"), _json_array(doc, "edges")
    del doc
    _check_sizes(r, n)  # before any column is read: no columns would zip to no edges
    # a bool is spelt with a "t" or an "f", and a negative number with a "-"
    json_ints = not floats and not any(c in text for c in "tf-")
    try:  # a JSON row is a list, or else a value without a length or an object
        columns = _canonical_columns(rows, r, n, json_ints)
    except (TypeError, KeyError):
        columns = None
    if columns is None:
        return Hypergraph(r, n, map(tuple, rows))
    del rows  # the last reference to the document: its lists go before any tuple is built
    edges = tuple(zip(*columns))
    del columns
    return _canonical_hypergraph(r, n, _in_order(edges))


# the end of a canonical document, JSON whitespace after it allowed, with
# digits few enough for int(); it is searched for in the last _TAIL characters
_COMPLETE_TAIL = re.compile(r',"n":([0-9]{1,9}),"r":([0-9]{1,9})\}[ \t\n\r]*\Z')
_COMPLETE_TAIL_BYTES = re.compile(_COMPLETE_TAIL.pattern.encode())
_TAIL = 64


def _cube_dimension(n: int, r: int) -> int | None:
    """The m >= 1 with n = (r+1)^m, if there is one (r >= 2)."""
    m, power = 0, 1
    while power < n:
        power *= r + 1
        m += 1
    return m if m and power == n else None


def _matches(text: str | bytes, chunks, end: int) -> bool:
    """`text`, a str or its UTF-8 bytes, starts with the chunks joined, and
    they end at `end`; compared chunk by chunk, in place."""
    pos = 0
    for chunk in map(str if isinstance(text, str) else str.encode, chunks):
        if not text.startswith(chunk, pos):
            return False
        pos += len(chunk)
    return pos == end


def _closed_form_from_json(text: str | bytes) -> Hypergraph | None:
    """The host held in closed form whose canonical document `text`, a str or
    its UTF-8 bytes, is, followed by JSON whitespace at most: K_n^r within
    COMPLETE_EDGE_GUARD, or the cube of dimension m when n = (r+1)^m, within
    its guards. None for any other text.

    (n, r) are read from the tail. Each of an edge's r literals takes a digit
    and a comma or bracket, so a text shorter than 2r|E| is turned away
    before any chunk is made. The literals made are then never more than the
    text's characters, since n <= r|E| for both: a 40-character text naming
    K_n^(n-1) at n = 10^6 (10^6 edges) would otherwise list 10^6 literals and
    join all but one of them, 4 s and 182 MB traced. The rest is compared
    chunk by chunk, in place, and the match must end at the tail's "}". Only
    a byte-for-byte match is trusted, and it is exactly the text json.loads
    reads as that host."""
    tail = (_COMPLETE_TAIL if isinstance(text, str) else _COMPLETE_TAIL_BYTES).search(
        text, max(0, len(text) - _TAIL))
    if tail is None:
        return None
    n, r = int(tail[1]), int(tail[2])
    # n < r has no edge, and r < 2 no host: both go to the parse, which
    # lists no vertex, so an n of nine digits costs nothing there
    if r < 2:
        return None
    hosts = []
    edges = _bounded_comb(n, r, COMPLETE_EDGE_GUARD)
    if edges and edges <= COMPLETE_EDGE_GUARD:
        hosts.append(complete_hypergraph(n, r))
    if m := _cube_dimension(n, r):
        from .cube import _cube  # which imports this module

        with suppress(GuardError):
            hosts.append(_cube(r, m))
    return next((h for h in hosts if len(text) >= 2 * r * h.edge_count
                 and _matches(text, hypergraph_json_chunks(h), tail.end(2) + 1)), None)


def hypergraph_from_json(text: str | bytes) -> Hypergraph:
    """Raises ValueError on text that is not a hypergraph document.

    A str, or its UTF-8 bytes, holding the canonical document of a complete
    or cube host is recognised without parsing or decoding
    (_closed_form_from_json). Any other text is parsed, bytes once decoded as UTF-8, so that the two forms
    of a document load alike."""
    h = _closed_form_from_json(text) if isinstance(text, (str, bytes, bytearray)) else None
    if h is not None:
        return h
    if isinstance(text, (bytes, bytearray)):
        text = text.decode()  # a UTF-8 BOM is kept, as in the str, where json refuses it
    try:
        # the document, one list per edge, is freed inside _parse_hypergraph,
        # before collection resumes
        with _collector_paused():
            return _parse_hypergraph(text)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed hypergraph JSON: {exc!r}") from None


def cover_to_json(c: Cover) -> str:
    blocks = [{"parts": b.parts} for b in c.blocks]  # tuples dump as arrays, already sorted
    return json.dumps({"r": c.r, "blocks": blocks}, sort_keys=True,
                      separators=(",", ":"), check_circular=False)


def cover_from_json(text: str) -> Cover:
    """Raises ValueError on text that is not a cover document."""
    try:
        with _collector_paused():  # a JSON document and tuples of ints
            doc = json.loads(text)
            blocks = tuple(RPartiteBlock(tuple(_json_array(b, "parts")))
                           for b in _json_array(doc, "blocks"))
            return Cover(_json_int(doc, "r"), blocks)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed cover JSON: {exc!r}") from None
