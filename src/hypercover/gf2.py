"""GF(2) linear algebra for partition-size rank certificates.

Matrices are bit-packed: each row is a Python int with bit j = column j.
Rank over the two-element field is the certificate engine; the certified
inequality is  (number of blocks in a partition) >= rank / C(r, r/2)  for the
adjacency matrix of an even-uniformity hypergraph, whose rows and columns are
indexed by r/2-subsets of the vertices in colexicographic order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import check_comb_guard, check_guard, check_power_guard, packed_bits
from .cube import cube_labels

MATRIX_ROW_GUARD = 20_000


@dataclass(frozen=True)
class GF2Matrix:
    """A rows x cols binary matrix, one packed int per row."""

    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        data = tuple(self.data)
        if set(map(type, data)) - {int}:  # bool, float and str are refused, not converted
            raise ValueError("rows must be integers")
        if len(data) != self.rows:
            raise ValueError("data length must equal the row count")
        if any(x < 0 or x >> self.cols for x in data):
            raise ValueError("row bits outside the column range")
        object.__setattr__(self, "data", data)


def gf2_rank(matrix: GF2Matrix) -> int:
    """Rank over GF(2) by Gaussian elimination on packed rows."""
    pivots: dict[int, int] = {}  # leading bit -> the echelon row that leads with it
    for row in matrix.data:
        while row and (lead := row.bit_length() - 1) in pivots:
            row ^= pivots[lead]
        if row:
            pivots[lead] = row
    return len(pivots)


def colex_subsets(n: int, k: int) -> list:
    """All k-subsets of 0..n-1 as increasing tuples, in colexicographic order."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def _columns_by(subsets, keys) -> dict:
    """key -> the mask of the columns j with the key among keys(subsets[j]), in
    one pass over the subsets."""
    columns: dict = {}
    for j, s in enumerate(subsets):
        for key in keys(s):
            columns.setdefault(key, []).append(j)
    return {key: packed_bits(c, len(subsets)) for key, c in columns.items()}


def _disjointness(n: int, low: int, k: int, description: str) -> GF2Matrix:
    """Disjointness over the subsets of 0..n-1 of size low..k, size by size in
    colexicographic order: each row is every column but those that share one
    of its vertices."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    sizes = range(low, k + 1)
    top = min(max(n // 2, low), k)  # the size of the largest term C(n, size) of the sum
    if min(top, n - top) * n.bit_length() > 64:
        # C(n, top) may not fit in 64 bits, so the sum may be too long to form
        # or print; it is at least its largest term, so refusing that is sound
        check_comb_guard(description, n, top, MATRIX_ROW_GUARD)
    check_guard(description, sum(math.comb(n, size) for size in sizes), MATRIX_ROW_GUARD)
    subsets = [s for size in sizes for s in colex_subsets(n, size)]
    containing = _columns_by(subsets, iter)  # vertex -> the columns holding it
    full = (1 << len(subsets)) - 1
    data = (full & ~reduce(or_, map(containing.__getitem__, s), 0) for s in subsets)
    return GF2Matrix(len(subsets), len(subsets), tuple(data))


def disjointness_matrix(n: int, k: int) -> GF2Matrix:
    """The C(n,k) x C(n,k) matrix with entry 1 iff the two k-subsets are disjoint."""
    return _disjointness(n, k, k, "disjointness_matrix rows")


def disjointness_matrix_upto(n: int, k: int) -> GF2Matrix:
    """Disjointness matrix over all subsets of size at most k.

    The at-most-k matrix has full GF(2) rank for every n and k. The
    exact-size matrix above is only guaranteed full rank at n = 2k (where it
    is a permutation matrix), which is the case the adjacency certificates
    rest on.
    """
    return _disjointness(n, 0, k, "disjointness_matrix_upto rows")


def adjacency_cube_matrix(r: int, m: int) -> GF2Matrix:
    """Adjacency matrix of the dimension-m cube hypergraph on r/2-subsets.

    Entry (s, t) is 1 iff s and t are disjoint and s u t is an edge, i.e. some
    coordinate of the union shows all r fixed labels. Such a coordinate shows
    r/2 distinct fixed labels on s and the other r/2 on t, which also makes s
    and t disjoint; so row s is the union, over the coordinates where s shows
    r/2 distinct fixed labels, of the columns showing the others there. Even
    r >= 4 only; rows and columns follow the colexicographic subset order.
    """
    if r % 2 or r < 4:
        if r == 2:
            hint = ("; at r=2 the cube hypergraph is a graph: bound its partitions by"
                    " the Graham-Pollak inertia bound (link_lower_bound, within its"
                    " work cap), or find them with search min-partition at small m")
        elif r >= 3:
            hint = (f"; odd r inherits the even case at r-1 (for r={r} consult"
                    f" partition_lower_bound instead)")
        else:
            hint = ""
        raise ValueError(f"certificates need even r >= 4{hint}")
    if m < 1:
        raise ValueError("dimension must be at least 1")
    half = r // 2
    # there are at least as many rows as vertices, so m is bounded before (r+1)^m is formed
    check_power_guard("adjacency_cube_matrix vertices", 1, r + 1, m, MATRIX_ROW_GUARD)
    check_comb_guard("adjacency_cube_matrix rows", (r + 1) ** m, half, MATRIX_ROW_GUARD)
    labels = [cube_labels(v, r, m) for v in range((r + 1) ** m)]

    def halves(s):
        """(j, the labels of s at j) at each coordinate j where s shows r/2
        distinct fixed labels."""
        for j, shown in enumerate(map(frozenset, zip(*map(labels.__getitem__, s)))):
            if len(shown) == half and r not in shown:
                yield j, shown

    subsets = colex_subsets(len(labels), half)
    showing = _columns_by(subsets, halves)
    fixed = frozenset(range(r))
    data = (reduce(or_, (showing.get((j, fixed - shown), 0) for j, shown in halves(s)), 0)
            for s in subsets)
    return GF2Matrix(len(subsets), len(subsets), tuple(data))


def partition_lower_bound(r: int, m: int) -> int:
    """Least number of blocks any partition of the dimension-m cube needs.

    ceil(([C(r, r/2) + 1]^m - 1) / C(r, r/2)) for even r; odd r >= 3 inherits
    the bound of uniformity r - 1.
    """
    if r < 3 or m < 1:
        raise ValueError("need r >= 3 and m >= 1")
    k = r if r % 2 == 0 else r - 1
    c = math.comb(k, k // 2)
    return -(-((c + 1) ** m - 1) // c)


def rank_bound_from_cover(d: int, r: int) -> int:
    """Largest adjacency rank a d-block partition permits: d * C(r, r/2)."""
    if r % 2 or r < 2:
        raise ValueError("even uniformity r >= 2 required")
    if d < 0:
        raise ValueError("block count must be non-negative")
    return d * math.comb(r, r // 2)
