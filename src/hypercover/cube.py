"""Cube hypergraphs over the label alphabet {0..r-1, *} and their partitions.

The vertex set of the cube hypergraph of dimension m is {0..r-1, *}^m; an
r-set of vertices is an edge when some coordinate shows all r fixed values.
A partition of its edge set into complete r-partite blocks is built by a
dimension-by-dimension recursion whose engine is a symbolic partition of one
coordinate: label blocks over {0..r-1, *} that tile every r-tuple except the
r! all-distinct fixed ones.

Labels are integers; the star label is encoded as r itself (so the alphabet
is range(r + 1) and the order 0 < 1 < ... < r-1 < * is the numeric order).
Vertex ids are the base-(r+1) value of the label tuple, first coordinate most
significant.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import attrgetter, eq, getitem, or_

from .core import (Cover, Edge, Hypergraph, _bit_bytes, _canonical_block, _collector_paused,
                   _HeldHypergraph, check_guard, check_power_guard)

CUBE_EDGE_GUARD = 10**7
# parts built: of the dimensions m >= 2 the other guards admit, pi_partition(5, 3)
# builds the most, 213,215; only dimension 1, with r singleton parts, builds more
CUBE_PART_GUARD = 250_000
LABEL_R_GUARD = 7  # floor((e-1) 7!) = 8660 blocks


def floor_e_minus_one_factorial(r: int) -> int:
    """floor((e-1) * r!), computed exactly as the integer sum of r!/k!.

    Python integers are unbounded, so the exact sum can never overflow.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    fact = math.factorial(r)
    return sum(fact // math.factorial(k) for k in range(1, r + 1))


def block_count_by_recurrence(r: int) -> int:
    """The same count via n_r = r * n_{r-1} + 1 with n_1 = 1."""
    if r < 1:
        raise ValueError("r must be at least 1")
    n = 1
    for k in range(2, r + 1):
        n = k * n + 1
    return n


def check_gamma_closed_form(r: int, rel_tol: float = 1e-6) -> bool:
    """Check e * Gamma(r+1, 1) - r! against the exact integer count.

    Gamma(s+1, 1) is built iteratively from Gamma(1, 1) = 1/e via
    Gamma(s+1, 1) = s * Gamma(s, 1) + 1/e.
    """
    if not 1 <= r <= 12:
        raise ValueError("supported range is 1 <= r <= 12")
    g = math.exp(-1.0)  # Gamma(1, 1)
    for s in range(1, r + 1):
        g = s * g + math.exp(-1.0)
    value = math.e * g - math.factorial(r)
    exact = floor_e_minus_one_factorial(r)
    return abs(value - exact) <= rel_tol * exact


@dataclass(frozen=True)
class LabelBlock:
    """One symbolic block: label sets S_1..S_r over the alphabet {0..r-1, r=*}.

    `classes` holds each S_j as an increasing tuple of labels. Its implied
    tuples are S_1 x S_2 x ... x S_r.
    """

    r: int
    classes: tuple

    def __post_init__(self):
        classes = tuple(map(tuple, self.classes))  # checked before a set merges True into 1
        if len(classes) != self.r:
            raise ValueError(f"expected {self.r} label classes")
        if not all(classes):
            raise ValueError("label classes must be non-empty")
        if set(map(type, itertools.chain.from_iterable(classes))) != {int}:
            raise ValueError(f"labels must be integers in 0..{self.r}")
        classes = tuple(tuple(sorted(set(c))) for c in classes)
        if min(c[0] for c in classes) < 0 or max(c[-1] for c in classes) > self.r:
            raise ValueError(f"labels must be integers in 0..{self.r}")
        object.__setattr__(self, "classes", classes)


def label_partition(r: int) -> list[LabelBlock]:
    """The block-count-minimal symbolic partition of one cube coordinate.

    Tiles {0..r-1, *}^r minus the r! all-distinct fixed tuples with exactly
    floor((e-1) r!) blocks. Each block is determined by scanning a tuple left
    to right until a value repeats or a star appears: a prefix of distinct
    fixed singletons, then the prefix values plus star, then full classes.
    The all-star-first block absorbs tuples starting with *.

    Emitted sorted by the per-class label lists, which groups blocks by their
    first-class label with star last.
    """
    if r < 2:
        raise ValueError("uniformity must be at least 2")
    check_guard("label_partition uniformity", r, LABEL_R_GUARD)
    star = r
    full = tuple(range(r + 1))
    blocks = [_label_block(r, ((star,),) + (full,) * (r - 1))]
    for j in range(2, r + 1):
        for prefix in itertools.permutations(range(r), j - 1):
            classes = tuple((x,) for x in prefix)
            classes += (tuple(sorted(prefix)) + (star,),) + (full,) * (r - j)
            blocks.append(_label_block(r, classes))
    blocks.sort(key=attrgetter("classes"))
    return blocks


def _label_block(r: int, classes: tuple) -> LabelBlock:
    """LabelBlock(r, classes) without its checks, for builders whose classes
    are canonical by construction: r non-empty increasing tuples of labels in
    0..r. The result compares and hashes equal to LabelBlock(r, classes)."""
    block = object.__new__(LabelBlock)
    block.__dict__.update(r=r, classes=classes)  # the fields, as frozen __init__ sets them
    return block


def label_table(blocks: list[LabelBlock]) -> str:
    """Render label blocks as per-class columns, one stanza per block."""
    if not blocks:
        return ""
    r = blocks[0].r

    def cell(x: int, j: int) -> str:
        return ("*" if x == r else str(x)) + f"a{j + 1}"

    columns = [[[cell(x, j) for x in b.classes[j]] for j in range(r)]
               for b in blocks]
    widths = [max(len(c) for cols in columns for c in cols[j]) for j in range(r)]
    stanzas = []
    for cols in columns:
        height = max(len(col) for col in cols)
        lines = []
        for row in range(height):
            cells = [(col[row] if row < len(col) else "").ljust(widths[j])
                     for j, col in enumerate(cols)]
            lines.append("  ".join(cells).rstrip())
        stanzas.append("\n".join(lines))
    return "\n\n".join(stanzas) + "\n"


@dataclass(frozen=True)
class CubeGraph:
    """The cube hypergraph of uniformity r and dimension m; `cube_labels`
    gives the labels of a vertex. `hypergraph` is held as (r, m) and lists
    its edges only when they are first read."""

    r: int
    m: int
    hypergraph: Hypergraph


def cube_labels(v: int, r: int, m: int) -> tuple:
    """The m labels of vertex v of the cube over {0..r-1, *}, first coordinate first."""
    labels = []
    for _ in range(m):
        v, x = divmod(v, r + 1)
        labels.append(x)
    return tuple(reversed(labels))


def _cube_runs(r: int, m: int) -> Iterator[tuple]:
    """The walk of the cube hypergraph of uniformity r and dimension m: for
    each (r-2)-set q that is the parent of a prefix, in increasing order, q and
    the list of (w, link) for the prefixes q + (w,) of an edge, w increasing.
    Bit i of link stands for vertex w + 1 + i, as in a profile mask.

    Vertex v shows the base-(r+1) digits of v as labels, the first coordinate
    most significant, with r the star. An (r-1)-set p shows r-1 distinct
    fixed labels at some coordinates; at each, its link holds the vertices
    above p[-1] that show the missing label there, and at no other
    coordinate does p meet an edge. The walk runs depth first over sorted
    vertex lists, keeping for each coordinate still showing distinct fixed
    labels the set of those labels. A vertex is taken only where some such
    coordinate stays completable: each label still missing there is shown
    by some vertex above it, the largest of which has stars elsewhere. So
    every branch ends in a prefix, and each prefix is met once. A parent
    finds all its children's links at once: each child's link is the OR,
    over its coordinates, of the vertices with the one label still missing.

    Dimension 1 has one edge, 0..r-1, which is yielded without the walk."""
    if m == 1:
        yield tuple(range(r - 2)), [(r - 2, 1)]
        return
    base = r + 1
    n = base**m
    weights = [base ** (m - 1 - j) for j in range(m)]
    ones = (1 << n) - 1
    # labels[j][x]: the vertices showing label x at j, a run of weight
    # vertices in every period of base * weight
    labels = [[(((1 << w) - 1) << x * w) * (ones // ((1 << base * w) - 1)) for x in range(r)]
              for w in weights]
    # below[j][x]: the vertices under the largest one showing x at j
    below = [[(1 << n - 1 - (r - x) * w) - 1 for x in range(r)] for w in weights]
    digits = list(itertools.product(range(base), repeat=m))  # the labels of each vertex
    unset = [0] * base

    def grow(alive: tuple) -> tuple:
        """(ws, steps) for a node whose alive coordinates, as (j, labels
        shown), are `alive`: steps holds (w, w's alive coordinates) for each
        vertex w that extends it, in the order of ws, w increasing."""
        taken = 0
        for j, shown in alive:
            free = [x for x in range(r) if not shown >> x & 1]
            lo = free[0]
            # taking lo leaves the second label least, taking any other lo
            taken |= labels[j][lo] & below[j][free[1]]
            for x in free[1:]:
                taken |= labels[j][x] & below[j][lo]
        ws = list(itertools.compress(range(n), _bit_bytes(taken)))
        steps = []
        for w in ws:
            grown = []
            for j, shown in alive:
                x = digits[w][j]
                if x < r and not shown >> x & 1:
                    shown |= 1 << x
                    if below[j][(~shown & shown + 1).bit_length() - 1] >> w & 1:
                        grown.append((j, shown))
            steps.append((w, tuple(grown)))
        return ws, steps

    def children(alive: tuple) -> tuple:
        """(ws, links) for a parent whose alive coordinates each miss two
        labels: links holds (w, link) for each child w, in the order of ws."""
        pick = [unset] * m  # pick[j][x]: the vertices a child showing x at j links to
        taken = 0
        for j, shown in alive:
            a, b = (x for x in range(r) if not shown >> x & 1)
            pick[j] = [0] * base
            pick[j][a], pick[j][b] = labels[j][b], labels[j][a]
            taken |= labels[j][a] & below[j][b] | labels[j][b] & below[j][a]
        ws = list(itertools.compress(range(n), _bit_bytes(taken)))
        return ws, [(w, reduce(or_, map(getitem, pick, digits[w])) >> w + 1) for w in ws]

    # a node's steps depend on its alive coordinates alone, and on its last
    # vertex v only through the w > v taken: each is found once and sliced
    known: dict = {}

    def after(v: int, alive: tuple, level) -> list:
        found = known.get(alive)
        if found is None:
            found = known[alive] = level(alive)
        ws, steps = found
        return steps[bisect_right(ws, v):]

    root = tuple((j, 0) for j in range(m))
    if r == 2:
        yield (), children(root)[1]
        return
    q: list = []
    stack = [iter(after(-1, root, grow))]  # stack[i] extends q[:i]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if q:
                q.pop()
        elif len(q) == r - 3:  # q + [w] is a parent
            w, alive = step
            yield (*q, w), after(w, alive, children)
        else:
            w, alive = step
            q.append(w)
            stack.append(iter(after(w, alive, grow)))


class _CubeHypergraph(_HeldHypergraph):
    """The cube hypergraph of uniformity r and dimension m, on n = (r+1)^m
    vertices, held as (r, m): its links, its edges and its document come
    from one walk (_cube_runs)."""

    @cached_property
    def edges(self) -> tuple:
        with _collector_paused():
            return tuple(self._walked_edges())

    def _walked_edges(self) -> Iterator[Edge]:
        """The edges in increasing order, from the walk: each prefix with
        each vertex of its link."""
        n = self.n
        return itertools.chain.from_iterable(
            map((*q, w).__add__, zip(itertools.compress(range(w + 1, n), _bit_bytes(link))))
            for q, links in _cube_runs(self.r, self.m) for w, link in links)

    @property
    def edge_count(self) -> int:
        """Inclusion and exclusion over the k coordinates that show all r fixed
        labels: the vertices showing label 0 at the first of them fix an order,
        each other one permutes the labels, and the rest are free. No r! is
        formed at dimension 1, where r may be large."""
        r, m = self.r, self.m
        factorial = math.factorial(r) if m > 1 else 1
        return sum((-1) ** (k + 1) * math.comb(m, k) * factorial ** (k - 1)
                   * (r + 1) ** ((m - k) * r) for k in range(1, m + 1))

    def _same_edges(self, other: Hypergraph) -> bool:
        """Another cube host with the same r and n is this one; a listed host's
        edges, as many and in increasing order, are walked against these."""
        return type(other) is _CubeHypergraph or all(map(eq, self._walked_edges(), other.edges))

    def __repr__(self) -> str:
        return f"cube_graph({self.r}, {self.m}).hypergraph"

    def _runs(self) -> Iterator[tuple]:
        return _cube_runs(self.r, self.m)

    def _links(self, planes: dict) -> Iterator[tuple]:
        """Hypergraph._links from the walk's links: every prefix of an edge in
        increasing order, then each counted prefix of none, whose link is 0.
        Those are found only when some counted prefix was not met, by walking
        again and dropping each prefix met from a copy of the planes."""
        reached = 0  # counted prefixes met by the walk
        for q, links in _cube_runs(self.r, self.m):
            for w, link in links:
                p = (*q, w)
                counters = planes.get(p, ())
                if counters:
                    reached += 1
                cover = counters[0] if len(counters) == 1 else reduce(or_, counters, 0)
                width = cover.bit_length()
                rest = link >> width
                if rest:
                    yield (p, counters, cover, link & (1 << width) - 1,
                           p + (w + width + (rest & -rest).bit_length(),))
                else:
                    yield p, counters, cover, link, None
        if reached < len(planes):
            left = dict(planes)
            for q, links in _cube_runs(self.r, self.m):
                for w, _ in links:
                    left.pop((*q, w), None)
            for p, counters in left.items():
                yield p, counters, reduce(or_, counters), 0, None


def _cube(r: int, m: int) -> Hypergraph:
    """The cube hypergraph of uniformity r >= 2 and dimension m >= 1, held as
    (r, m). The guards bound what a reader may list: the vertex entries of
    the edges at each coordinate, and the parts of one vertex per fixed label
    at each coordinate."""
    check_power_guard("cube_graph generated vertex entries", m * r, r + 1,
                      (m - 1) * r, CUBE_EDGE_GUARD)
    check_guard("cube_graph label parts", m * r, CUBE_PART_GUARD)
    h = object.__new__(_CubeHypergraph)
    h.__dict__.update(r=r, n=(r + 1) ** m, m=m)  # edges is listed on first read
    return h


def cube_graph(r: int, m: int) -> CubeGraph:
    """The cube hypergraph of uniformity r and dimension m, held as (r, m):
    its edges are listed only when `edges` is first read, and its edge count,
    document and links come in closed form or from one walk over its edge
    prefixes. The guards still bound the edges a reader may list."""
    if r < 2:
        raise ValueError("uniformity must be at least 2")
    if m < 1:
        raise ValueError("dimension must be at least 1")
    return CubeGraph(r, m, _cube(r, m))


def pinto_upper_bound(r: int, m: int) -> int:
    """(B^m - 1) / (B - 1) = 1 + B + ... + B^(m-1) with B = floor((e-1) r!)."""
    if r < 2 or m < 1:
        raise ValueError("need r >= 2 and m >= 1")
    b = floor_e_minus_one_factorial(r) if m > 1 else 0  # no r! for a large r at m = 1
    return sum(b**i for i in range(m))


def pi_partition(r: int, m: int) -> Cover:
    """Partition the dimension-m cube hypergraph into complete r-partite blocks.

    Dimension 1 is the single block of the r fixed singleton vertices. Each
    further dimension prepends a coordinate: one block W pairs the vertex
    classes of fixed first coordinates, and every block of the previous
    dimension spawns one concrete block per symbolic label block. The result
    has (B^m - 1)/(B - 1) blocks, B = floor((e-1) r!).
    """
    if r < 2 or m < 1:
        raise ValueError("need r >= 2 and m >= 1")
    # blocks x vertices is at least the vertex count, which bounds m before B^m
    check_power_guard("pi_partition vertices", 1, r + 1, m, CUBE_EDGE_GUARD)
    labels = label_partition(r) if m > 1 else []
    check_guard("pi_partition blocks x vertices",
                pinto_upper_bound(r, m) * (r + 1) ** m, CUBE_EDGE_GUARD)
    check_guard("pi_partition parts", pinto_upper_bound(r, m) * r, CUBE_PART_GUARD)
    base = r + 1
    blocks = [tuple(zip(range(r)))]  # the singletons (0,), ..., (r-1,)
    size = base
    for _ in range(m - 1):
        grown = [tuple(tuple(range(i * size, (i + 1) * size)) for i in range(r))]
        for parent in blocks:
            for lab in labels:
                grown.append(tuple(
                    tuple(x * size + v for x in lab.classes[j] for v in parent[j])
                    for j in range(r)
                ))
        blocks = grown
        size *= base
    # each part is increasing, x then v, and the parts are disjoint, as their
    # parents' are; sorting the parts makes each block canonical
    return Cover(r, tuple(_canonical_block(tuple(sorted(parts))) for parts in blocks))
