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
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from contextlib import contextmanager
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


def check_comb_guard(description: str, n: int, k: int, limit: int) -> None:
    """check_guard on C(n, k) (n >= 0). For 1 <= k < n it is at least n and at least
    2^min(k, n-k), so it exceeds the limit once n or min(k, n-k) is too large, and
    is then neither computed nor printed."""
    k = min(k, n - k)
    if k < 1 or (n <= limit and k <= limit.bit_length()):
        check_guard(description, math.comb(n, k) if k >= 0 else 0, limit)
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


def _is_canonical(edges, r: int, n: int) -> bool:
    """True iff every edge is an increasing tuple of r ints in 0..n-1.

    Checked column by column, so the loops over the edges run in C; fewer
    edges than columns, such as one edge on 10^6 vertices, are checked edge
    by edge instead, so the loops over the vertices do.
    """
    if not edges:
        return True
    if set(map(type, edges)) != {tuple} or set(map(len, edges)) != {r}:
        return False
    if len(edges) < r:
        return (all(set(map(type, e)) == {int} and all(map(lt, e, e[1:])) for e in edges)
                and min(e[0] for e in edges) >= 0 and max(e[-1] for e in edges) < n)
    previous = None
    for i in range(r):
        column = list(map(itemgetter(i), edges))
        if set(map(type, column)) != {int}:
            return False
        if previous is None:
            if min(column) < 0:
                return False
        elif not all(map(lt, previous, column)):
            return False
        previous = column
    return max(previous) < n


def _drop_repeats(edges) -> tuple:
    """The sorted `edges` as a tuple, each once; sorting made repeats adjacent."""
    return tuple(map(itemgetter(0), itertools.groupby(edges)))


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
        if not _is_canonical(edges, r, n):
            edges = sorted(_canonical_edge(e, r, n) for e in edges)
        elif not all(map(lt, edges, itertools.islice(edges, 1, None))):
            edges = sorted(edges)
        else:
            object.__setattr__(self, "edges", tuple(edges))
            return
        object.__setattr__(self, "edges", _drop_repeats(edges))

    @cached_property
    def edge_set(self) -> frozenset:
        """The edges as a frozenset, built on first use."""
        return frozenset(self.edges)


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


def complete_hypergraph(n: int, r: int = 2) -> Hypergraph:
    """K_n^r: all r-subsets of 0..n-1."""
    check_comb_guard("complete_hypergraph edges", n, r, COMPLETE_EDGE_GUARD)
    with _collector_paused():
        # combinations of range(n) are increasing tuples in increasing order
        return _canonical_hypergraph(r, n, tuple(itertools.combinations(range(n), r)))


def induced_subhypergraph(h: Hypergraph, vertices) -> tuple[Hypergraph, list[int]]:
    """Subhypergraph induced by `vertices`, relabeled to 0..len-1.

    Returns (subhypergraph, old_ids) where old_ids[new] = original vertex.
    The relabelling keeps the order of vertices, so the edges stay sorted.
    ValueError for a vertex that is not an int in 0..n-1.
    """
    vertices = tuple(vertices)  # checked before a set merges True into 1
    if set(map(type, vertices)) - {int}:
        raise ValueError("vertices must be integers")
    old = sorted(set(vertices))
    if old and (old[0] < 0 or old[-1] >= h.n):
        raise ValueError(f"vertices must lie in 0..{h.n - 1}")
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

    h is then read in one sweep over its runs, the edges of one prefix each,
    found by one bisect bounded by the run's greatest length. A run becomes
    the link mask of its prefix, clipped at the last vertex the counters
    reach; the edges past that top are bare (covered 0 times), and so is the
    whole run of a prefix without counters. The OR of the prefix's counters,
    read once, gives both that top and the foreign bits. Each link is tallied
    as it is built: a link equal to its one plane is covered exactly once, and
    the edges of all such links are summed in the sweep and added to
    multiplicity 1 once, after it; any other link is split by its counters,
    whose bits outside it are foreign. The sweep reads h in increasing order,
    so the first edge it meets at each multiplicity, and its first foreign
    r-set, are the least; a link's edges precede the bare ones past its top.
    Counted prefixes the sweep never reaches have no edge in h, so all their
    bits are foreign; they are looked up only when some are left.
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
    # h's edges are sorted, so those of a prefix p form one run, at most
    # n - 1 - p[-1] long, that ends before p + (n,)
    edges, n = h.edges, h.n
    total = len(edges)
    counts, least = {}, {}
    foreign, least_foreign = 0, None
    counters_of = planes.get
    once = 0  # edges of the links equal to their one plane
    reached = 0  # counted prefixes with a run in h
    end = 0
    while end < total:
        start = end
        p = edges[start][:-1]
        pmax = p[-1]
        end = bisect_left(edges, p + (n,), start, min(total, start + n - 1 - pmax))
        counters = counters_of(p, ())
        reached += bool(counters)
        cover = reduce(or_, counters, 0)  # every bit some block covers above p
        # the link stops at the last vertex the counters reach; the rest is bare
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
        if cover == link and len(counters) == 1:
            if not once:
                least.setdefault(1, edges[start])
            once += stop - start
        else:
            mask = cover & ~link
            if mask:  # bit i of a mask of p stands for vertex pmax + 1 + i
                if least_foreign is None:
                    least_foreign = p + (pmax + (mask & -mask).bit_length(),)
                foreign += mask.bit_count()
            for m, count in _split(link, counters):
                if count not in least:
                    least[count] = p + (pmax + (m & -m).bit_length(),)
                counts[count] = counts.get(count, 0) + m.bit_count()
        if stop < end:  # after the link's edges, all below the top
            least.setdefault(0, edges[stop])
            counts[0] = counts.get(0, 0) + end - stop
    if once:
        counts[1] = counts.get(1, 0) + once
    if reached < len(planes):  # the rest have no edge in h: all their bits are foreign
        rest = [(p, reduce(or_, c)) for p, c in planes.items()
                if (i := bisect_left(edges, p)) == total or edges[i][:-1] != p]
        foreign += sum(m.bit_count() for _, m in rest)
        least_foreign = min(filter(None, (least_foreign, *(
            p + (p[-1] + (m & -m).bit_length(),) for p, m in rest))))
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


def hypergraph_to_json(h: Hypergraph) -> str:
    doc = {"r": h.r, "n": h.n, "edges": h.edges}  # tuples dump as arrays, already sorted
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False)


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


def _parse_hypergraph(text: str) -> Hypergraph:
    doc = json.loads(text)
    return Hypergraph(_json_int(doc, "r"), _json_int(doc, "n"),
                      map(tuple, _json_array(doc, "edges")))


def hypergraph_from_json(text: str) -> Hypergraph:
    """Raises ValueError on text that is not a hypergraph document."""
    try:
        # the document, one list per edge, is freed when _parse_hypergraph
        # returns, before collection resumes
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
        doc = json.loads(text)
        blocks = tuple(RPartiteBlock(tuple(_json_array(b, "parts")))
                       for b in _json_array(doc, "blocks"))
        return Cover(_json_int(doc, "r"), blocks)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed cover JSON: {exc!r}") from None
