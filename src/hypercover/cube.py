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
from dataclasses import dataclass
from operator import attrgetter

from .core import (Cover, Hypergraph, RPartiteBlock, _canonical_hypergraph, _collector_paused,
                   _drop_repeats, check_guard, check_power_guard)

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

    def tuples(self):
        yield from itertools.product(*self.classes)


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
    blocks = [LabelBlock(r, ((star,),) + (full,) * (r - 1))]
    for j in range(2, r + 1):
        for prefix in itertools.permutations(range(r), j - 1):
            classes = tuple((x,) for x in prefix)
            classes += (prefix + (star,),) + (full,) * (r - j)
            blocks.append(LabelBlock(r, classes))
    blocks.sort(key=attrgetter("classes"))
    return blocks


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
    gives the labels of a vertex."""

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


def cube_graph(r: int, m: int) -> CubeGraph:
    """The cube hypergraph of uniformity r and dimension m: for each of the m
    coordinates, the (r+1)^((m-1) r) choices of one vertex per fixed value there."""
    if r < 2:
        raise ValueError("uniformity must be at least 2")
    if m < 1:
        raise ValueError("dimension must be at least 1")
    check_power_guard("cube_graph generated vertex entries", m * r, r + 1,
                      (m - 1) * r, CUBE_EDGE_GUARD)
    # at each coordinate, the r parts of the vertices showing one fixed label there
    check_guard("cube_graph label parts", m * r, CUBE_PART_GUARD)
    base = r + 1
    n = base**m
    with _collector_paused():  # tuples of ints only
        edges = []  # an edge with several such coordinates repeats; the sort drops repeats
        for j in range(m):
            # the vertices showing label 0 at j; label x adds x * weight to each
            weight = base ** (m - 1 - j)
            zero = [hi + lo for hi in range(0, n, base * weight) for lo in range(weight)]
            with_label = zip(*(range(v, v + r * weight, weight) for v in zero))
            edges.extend(map(tuple, map(sorted, itertools.product(*with_label))))
        edges.sort()  # in place: a set would hold a second table of all the edges
        # each edge is r distinct vertices of 0..n-1, sorted
        return CubeGraph(r, m, _canonical_hypergraph(r, n, _drop_repeats(edges)))


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
    return Cover(r, tuple(RPartiteBlock(parts) for parts in blocks))
