"""Shared corpus generators for the test suite. All randomness is seeded."""

from __future__ import annotations

import itertools
import random

from hypercover import Cover, Hypergraph, RPartiteBlock


def random_hypergraph(rng: random.Random, n: int, r: int, p: float = 0.5,
                      nonempty: bool = True) -> Hypergraph:
    """Each r-subset kept with probability p; optionally forced non-empty."""
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
    if nonempty and not edges:
        pool = list(itertools.combinations(range(n), r))
        edges = [pool[rng.randrange(len(pool))]]
    return Hypergraph(r, n, frozenset(edges))


def implied_edges(b: RPartiteBlock) -> list:
    """Every edge of the block, one per transversal of its parts, as a sorted
    tuple: the listing the profiler and the block table never build."""
    return [tuple(sorted(combo)) for combo in itertools.product(*b.parts)]


def entry(matrix, i: int, j: int) -> int:
    """Entry (i, j) of a GF2Matrix, read off its packed row i."""
    return matrix.data[i] >> j & 1


def singleton_block(edge) -> RPartiteBlock:
    return RPartiteBlock(tuple(frozenset({v}) for v in edge))


def random_block(rng: random.Random, n: int, r: int) -> RPartiteBlock:
    """A random block on 0..n-1; may cover non-edges of any particular h."""
    while True:
        verts = rng.sample(range(n), rng.randint(r, n))
        parts = [[] for _ in range(r)]
        for i, v in enumerate(verts):
            parts[i % r].append(v)
        if all(parts):
            return RPartiteBlock(tuple(frozenset(p) for p in parts))


def random_cover_of(rng: random.Random, h: Hypergraph, extra: int = 2) -> Cover:
    """A cover of h: one singleton block per edge plus a few random blocks.

    The random extras may cover non-edges (foreign coverage), which the
    extraction machinery explicitly tolerates.
    """
    blocks = [singleton_block(e) for e in h.edges]
    for _ in range(extra):
        if h.n >= h.r:
            blocks.append(random_block(rng, h.n, h.r))
    rng.shuffle(blocks)
    return Cover(h.r, tuple(blocks))
