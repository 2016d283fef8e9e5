"""Explicit covering constructions on grids, plus the two classical baselines.

hex_cover     {2,3}-multicover of K_n from a hexagonal grid, n = 3m^2-3m+1
grid3_cover   {1,2,3,4}-multicover of the complete 3-uniform K_{m^2}^3 from a
              square grid (rows, columns, diagonals, counter-diagonals)
star_partition  the n-1 star bicliques partitioning K_n
log_cover       the ceil(log2 n) bit-split bicliques covering K_n

Each makes its host, K_n or K_n^3, first. The host is held as (r, n) and
lists no edge until one is read, but complete_hypergraph's guard on C(n, r)
still refuses a large argument before any coordinate or block is built.
"""

from __future__ import annotations

from .core import Cover, Hypergraph, RPartiteBlock, complete_hypergraph


def hex_coordinates(m: int) -> list[tuple]:
    """All cells of the side-m hexagon as cube coordinates (x, y, z) with
    x + y + z = 0, sorted by (x, y); 3m^2 - 3m + 1 cells."""
    if m < 1:
        raise ValueError("side length must be at least 1")
    lim = m - 1
    out = []
    for x in range(-lim, lim + 1):
        for y in range(-lim, lim + 1):
            z = -x - y
            if -lim <= z <= lim:
                out.append((x, y, z))
    return out


def hex_cover(m: int) -> tuple[Hypergraph, Cover]:
    """Cover K_n (n = 3m^2-3m+1) so every edge has multiplicity 2 or 3.

    Vertices sit on a hexagonal grid; for each of the three line directions
    and each line except the last, one biclique pairs the line against the
    union of all later lines. Two cells share at most one line, so an edge is
    covered once per direction in which its cells differ: 2 or 3 times.
    """
    if m < 1:
        raise ValueError("side length must be at least 1")
    h = complete_hypergraph(3 * m * m - 3 * m + 1, 2)
    cells = hex_coordinates(m)  # vertex i is cells[i]
    blocks = []
    for axis in range(3):
        lines: dict = {}  # coordinate value -> the vertices of its line, one pass
        for i, cell in enumerate(cells):
            lines.setdefault(cell[axis], []).append(i)
        # from the last line down, so rest is the running union of the later lines
        axis_blocks, rest = [], []
        for value in sorted(lines, reverse=True):
            if rest:
                axis_blocks.append(RPartiteBlock((lines[value], rest)))
            rest = rest + lines[value]
        blocks += reversed(axis_blocks)
    return h, Cover(2, tuple(blocks))


def grid3_cover(m: int) -> tuple[Hypergraph, Cover]:
    """Cover K_{m^2}^3 so every triple has multiplicity between 1 and 4.

    Four block families, one per line direction of the square grid (rows,
    columns, diagonals, counter-diagonals). The block for line i in a family
    has parts (line i, union of later lines, union of earlier lines), so a
    family covers a triple at most once: when the triple's three lines in
    that direction are distinct. 6m - 10 blocks for m >= 3; 2 for m = 2.
    """
    if m < 2:
        raise ValueError("grid side must be at least 2")
    h = complete_hypergraph(m * m, 3)
    families = [  # the line of the cell (row, column), both numbered from 1
        (lambda rc: rc[0], range(2, m)),                      # rows
        (lambda rc: rc[1], range(2, m)),                      # columns
        (lambda rc: rc[0] - rc[1] + m, range(2, 2 * m - 1)),  # diagonals
        (lambda rc: rc[0] + rc[1] - 1, range(2, 2 * m - 1)),  # counter-diagonals
    ]
    blocks = []
    for key, middle in families:
        lines: dict = {}  # line -> its vertices, one pass
        for v in range(m * m):  # vertex v is the cell (v // m + 1, v % m + 1)
            lines.setdefault(key((v // m + 1, v % m + 1)), []).append(v)
        for i in middle:
            later = [v for value, line in lines.items() if value > i for v in line]
            earlier = [v for value, line in lines.items() if value < i for v in line]
            blocks.append(RPartiteBlock((lines[i], later, earlier)))
    return h, Cover(3, tuple(blocks))


def star_partition(n: int) -> tuple[Hypergraph, Cover]:
    """Partition K_n into the n-1 stars ({i}, {i+1..n-1})."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    h = complete_hypergraph(n, 2)
    blocks = tuple(
        RPartiteBlock((frozenset({i}), frozenset(range(i + 1, n))))
        for i in range(n - 1)
    )
    return h, Cover(2, blocks)


def log_cover(n: int) -> tuple[Hypergraph, Cover]:
    """Cover K_n with ceil(log2 n) bicliques, one per bit position.

    Block i splits vertices on bit i, so edge {u, v} is covered exactly
    Hamming(u, v) times. Blocks with an empty side are skipped.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    h = complete_hypergraph(n, 2)
    bits = max(1, (n - 1).bit_length())
    blocks = []
    for i in range(bits):
        zeros = frozenset(v for v in range(n) if not (v >> i) & 1)
        ones = frozenset(v for v in range(n) if (v >> i) & 1)
        if zeros and ones:
            blocks.append(RPartiteBlock((zeros, ones)))
    return h, Cover(2, tuple(blocks))
