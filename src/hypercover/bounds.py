"""Closed-form lower bounds plus the derandomized independent-set machinery.

The closed forms relate the total vertex count of any cover (sum of block
orders) and the block count of any cover to the independence, chromatic and
matching numbers of the covered hypergraph. The derandomizer realizes the
probabilistic argument behind the order bound: deleting one part per block
leaves an independent set, and choosing deletions by conditional expectation
guarantees at least ceil(sum_i (1 - 1/r)^{a_i}) survivors, a_i being the
number of blocks containing vertex i.

The link bound closes exact searches from below: it lifts the eigenvalue
proof of Graham–Pollak to r-graphs through the links of (r-2)-sets.

All logarithms are base 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Cover,
    Hypergraph,
    MultiplicityList,
    induced_subhypergraph,
    multiplicity_profile,
)
from .gf2 import GF2Matrix, gf2_rank

LINK_WORK_CAP = 200_000  # sum of m^3 over the link matrices link_lower_bound eliminates


def _float_domain(bound):
    """Let a closed form raise ValueError, not OverflowError or an infinite
    value, where an input or its value does not fit a float."""

    @functools.wraps(bound)
    def checked(*args, **kwargs):
        try:
            value = bound(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{bound.__name__}: an input or the value does not fit"
                             " a float")
        return value

    return checked


@_float_domain
def ks_order_lower_bound(n: int, alpha: float, r: int) -> float:
    """n * log2(n/alpha) / log2(1 + 1/(r-1)): no cover has total order below this.

    Exact form of the survivor argument: deleting one random part per block
    leaves an independent set of expected size sum (1-1/r)^{a_i}, which Jensen
    pushes to n (1-1/r)^{b/n} <= alpha for total order b. The popular
    simplification to (r-1) n log(n/alpha) is only sound for the natural
    logarithm; in base 2 (which the r = 2 tight case n log2 n forces) it
    overstates the bound for r >= 3, so the exact form is used. The ratio of
    logarithms is taken in natural logarithms, the denominator as log1p, which
    stays accurate (and non-zero) where 1 + 1/(r-1) rounds to 1.
    """
    if r < 2:
        raise ValueError("uniformity must be at least 2")
    if not 1 <= alpha <= n:
        raise ValueError("need 1 <= alpha <= n")
    if alpha == n:
        return 0.0
    return n * math.log(n / alpha) / math.log1p(1 / float(r - 1))


@_float_domain
def ks_chromatic_lower_bound(k: int, r: int) -> float:
    """Order lower bound in terms of the chromatic number k, large k.

    Both proof cases are explicit; the guaranteed bound is their minimum:
      (r-1)^2 k (log k - loglog k - logloglog k)
      (r-1)^2 k (log k - loglog k - 1) - 2r(r-1)^2 k
    """
    if r < 2:
        raise ValueError("uniformity must be at least 2")
    if k < 17:
        raise ValueError("k must be at least 17 so that logloglog k > 0")
    lg = math.log2(k)
    lglg = math.log2(lg)
    lglglg = math.log2(lglg)
    c = (r - 1) ** 2 * k
    case_one = c * (lg - lglg - lglglg)
    case_two = c * (lg - lglg - 1) - 2 * r * c
    return min(case_one, case_two)


@_float_domain
def matching_cover_lower_bound(nu: int, edge_count: int, r: int) -> float:
    """nu^(1 + 1/(r-1)) / |E|^(1/(r-1)): no cover has fewer blocks."""
    if r < 2:
        raise ValueError("uniformity must be at least 2")
    if nu < 1 or edge_count < nu:
        raise ValueError("need 1 <= nu <= edge_count")
    e = 1.0 / (r - 1)
    return nu ** (1 + e) / edge_count**e


@_float_domain
def independent_matchings_lower_bound(k: int, m: int, edge_count: int, r: int) -> float:
    """k^(1/(r-1)) * m^(1 + 1/(r-1)) / |E|^(1/(r-1)) given k independent m-matchings."""
    if r < 2:
        raise ValueError("uniformity must be at least 2")
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    if edge_count < k * m:
        raise ValueError("edge count below k * m is impossible")
    e = 1.0 / (r - 1)
    return k**e * m ** (1 + e) / edge_count**e


def inertia(matrix) -> tuple[int, int]:
    """(n+, n-): how many eigenvalues of a symmetric integer matrix, given as
    a sequence of rows, are positive and how many negative. ValueError for an
    entry that is not an int.

    Sylvester's law of inertia: a congruence keeps both counts, so eliminate
    symmetrically and count the pivots by sign. The elimination is
    fraction-free (Bareiss), which is exact only on integers: after each step
    every entry left is the previous pivot times the Schur complement, so the
    next pivot d_k is a leading minor and the true pivot is d_k / d_(k-1),
    positive exactly when the two agree in sign. Each update divides exactly
    by the previous pivot; a remainder would mean a broken invariant and
    raises. A non-zero diagonal entry is a pivot as it stands. When the
    diagonal left is all zero but a_ij is not, adding row and column j to row
    and column i makes a_ii = 2 a_ij the pivot; when everything left is zero,
    so is the rest of the spectrum.
    """
    a = [list(row) for row in matrix]
    if not all(isinstance(x, int) for row in a for x in row):
        raise ValueError("inertia takes integer entries only")
    plus = minus = 0
    previous = 1
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
        p = pivot[i]
        if (p > 0) == (previous > 0):
            plus += 1
        else:
            minus += 1
        rest = [k for k in range(m) if k != i]
        rows = []
        for k in rest:
            row, f = a[k], a[k][i]
            new = []
            for l in rest:
                q, rem = divmod(p * row[l] - f * pivot[l], previous)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                new.append(q)
            rows.append(new)
        a, previous = rows, p
    return plus, minus


def link_lower_bound(h: Hypergraph, lst: MultiplicityList) -> int:
    """A lower bound on the block count of every L-cover of h by blocks that
    imply only edges of h, from the links of its (r-2)-sets; 0 where no
    argument applies.

    The link of an (r-2)-set S is the graph of the pairs {u, v} with S + {u, v}
    an edge. A block covers an edge through S only if it puts S's vertices in
    distinct parts, and then the edges it covers through S form a biclique
    between its two other parts. With L = {k} these bicliques add up to k
    times the link's adjacency matrix A; each has one positive and one
    negative eigenvalue, so the cover has at least max(n+, n-) blocks (the
    Graham–Pollak proof; Alon's n - 2 for K_n^3). With every value of L odd
    they add up to A over GF(2), each of rank at most 2, so it has at least
    ceil(rank2(A) / 2). Other lists get 0. The bound is the largest over all
    S. It is not computed, and 0 is returned, when the sum of m^3 over the
    links, m the vertices of a link, exceeds LINK_WORK_CAP.
    """
    allowed = lst.allowed
    if allowed is None or (len(allowed) > 1 and not all(k % 2 for k in allowed)):
        return 0
    links: dict[tuple, dict] = {}  # S -> {link vertex u: the mask of u's link neighbours}
    for e in h.edges:
        for i, j in itertools.combinations(range(h.r), 2):
            rows = links.setdefault(e[:i] + e[i + 1:j] + e[j + 1:], {})
            rows[e[i]] = rows.get(e[i], 0) | 1 << e[j]
            rows[e[j]] = rows.get(e[j], 0) | 1 << e[i]
    if sum(len(rows) ** 3 for rows in links.values()) > LINK_WORK_CAP:
        return 0
    best = 0
    for rows in links.values():
        if len(allowed) == 1:
            best = max(best, *inertia([rows[u] >> v & 1 for v in rows] for u in rows))
        else:
            best = max(best, -(-gf2_rank(GF2Matrix(len(rows), h.n, rows.values())) // 2))
    return best


def sum_of_orders(c: Cover) -> int:
    """Total number of vertices over all blocks of the cover."""
    return sum(b.order() for b in c.blocks)


def cover_incidence(n: int, c: Cover) -> list[int]:
    """a_i = number of blocks containing vertex i; sums to sum_of_orders."""
    counts = [0] * n
    for b in c.blocks:
        for p in b.parts:
            for v in p:
                counts[v] += 1
    return counts


def survivor_guarantee(incidence, r: int) -> int:
    """ceil(sum_i (1 - 1/r)^{a_i}), exact via rational arithmetic.

    The ceiling of a float sum would misround cases like 3 * (2/3) = 2.
    """
    beta = Fraction(r - 1, r)
    return math.ceil(sum(beta**a for a in incidence))


@dataclass(frozen=True)
class ExtractionResult:
    vertices: frozenset
    guarantee: int
    expectations: tuple  # exact (Fraction) conditional expectation before each step and at the end


def derandomized_extraction(h: Hypergraph, c: Cover) -> ExtractionResult:
    """Delete one part per block, chosen by the method of conditional expectations.

    Requires every edge of h to be covered at least once (blocks may cover
    non-edges of h; independence of the survivors only needs every edge hit).
    Processes blocks in cover order; at each block the deleted part is the one
    maximizing the conditional expectation of the survivor count, ties going
    to the lowest-indexed part. The final expectation equals the survivor
    count exactly and never drops below the initial one, so the survivor set
    is independent and has size >= ceil(sum (1 - 1/r)^{a_i}). The
    expectations are exact (integer weights over a common denominator), so
    ties and small gaps between parts are decided exactly.
    """
    missed = multiplicity_profile(h, c).least.get(0)
    if missed is not None:
        raise ValueError(f"cover misses edge {missed}; the guarantee is void")
    r = h.r
    incidence = cover_incidence(h.n, c)
    top = max(incidence, default=0)
    # a survivor that a of the blocks still to come contain outlives them with
    # probability ((r-1)/r)^a = weight / r^top, weight = (r-1)^a r^(top-a)
    start = {a: (r - 1) ** a * r ** (top - a) for a in set(incidence)}
    weight = [start[a] for a in incidence]
    total, scale = sum(weight), r**top
    guarantee = -(-total // scale)  # ceil(sum_i ((r-1)/r)^a_i), exactly
    survivors = set(range(h.n))
    expectations = [Fraction(total, scale)]
    for b in c.blocks:
        loss = []
        for p in b.parts:
            alive = [v for v in p if v in survivors]
            for v in alive:  # one block fewer: the weight grows by r/(r-1)
                grown = weight[v] * r // (r - 1)
                total += grown - weight[v]
                weight[v] = grown
            loss.append(sum(weight[v] for v in alive))
        least = min(loss)
        survivors.difference_update(b.parts[loss.index(least)])
        total -= least
        expectations.append(Fraction(total, scale))
    return ExtractionResult(frozenset(survivors), guarantee, tuple(expectations))


@dataclass(frozen=True)
class PeelResult:
    colors: tuple  # color of each vertex
    survivor_sizes: tuple  # independent-set sizes in extraction order


def peel_coloring(h: Hypergraph, cover_provider) -> PeelResult:
    """Properly color h by repeatedly extracting independent sets.

    `cover_provider` must return a Cover of any induced subhypergraph it is
    handed (vertices relabeled 0..n'-1). Each extracted set gets a fresh
    color; extraction always keeps at least one vertex, so this terminates.
    """
    colors = [-1] * h.n
    alive = list(range(h.n))
    sizes = []
    color = 0
    while alive:
        sub, old_ids = induced_subhypergraph(h, alive)
        survivors = derandomized_extraction(sub, cover_provider(sub)).vertices
        if not survivors:
            raise RuntimeError("extraction returned no vertices")
        sizes.append(len(survivors))
        for v in survivors:
            colors[old_ids[v]] = color
        alive = [old_ids[v] for v in range(sub.n) if v not in survivors]
        color += 1
    return PeelResult(tuple(colors), tuple(sizes))


def is_proper_coloring(h: Hypergraph, colors) -> bool:
    """No edge monochromatic: every edge sees at least two colors."""
    return all(len(set(colors[v] for v in e)) >= 2 for e in h.edges)
