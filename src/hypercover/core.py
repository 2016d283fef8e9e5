"""Core data model: r-uniform hypergraphs, complete r-partite blocks, covers,
and the multiplicity verifier every construction in this package is checked
against.

Conventions
- Vertices are integers 0..n-1.
- An edge is a sorted tuple of r distinct vertices; edge sets are stored
  deduplicated in this canonical form.
- A complete r-partite block is given by r pairwise-disjoint non-empty vertex
  sets; its implied edges are all r-sets taking exactly one vertex per part.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

Edge = tuple[int, ...]

GUARD_ENV = "HYPERCOVER_GUARD_OVERRIDE"
LIST_RANGE_GUARD = 100_000  # multiplicities in one "lo..hi" list


class GuardError(ValueError):
    """A size guard would be exceeded (lift with HYPERCOVER_GUARD_OVERRIDE=1)."""


def check_guard(description: str, actual: int, limit: int) -> None:
    if actual > limit and os.environ.get(GUARD_ENV) != "1":
        raise GuardError(
            f"{description}: {actual} exceeds guard {limit}"
            f" (set {GUARD_ENV}=1 to override)"
        )


def check_power_guard(description: str, factor: int, base: int, exponent: int,
                      limit: int) -> None:
    """check_guard on factor * base**exponent (factor >= 1, base >= 2). It exceeds the
    limit once exponent > limit.bit_length(), and is then neither computed nor printed."""
    if exponent <= limit.bit_length():
        check_guard(description, factor * base**exponent, limit)
    elif os.environ.get(GUARD_ENV) != "1":
        raise GuardError(f"{description}: {factor} * {base}^{exponent} exceeds guard"
                         f" {limit} (set {GUARD_ENV}=1 to override)")


def _canonical_edge(edge, r: int, n: int) -> Edge:
    t = tuple(sorted(int(v) for v in edge))
    if len(t) != r or len(set(t)) != r:
        raise ValueError(f"edge {edge!r} must have exactly {r} distinct vertices")
    if t[0] < 0 or t[-1] >= n:
        raise ValueError(f"edge {edge!r} has a vertex outside 0..{n - 1}")
    return t


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertices 0..n-1."""

    r: int
    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("uniformity r must be at least 2")
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = frozenset(_canonical_edge(e, self.r, self.n) for e in self.edges)
        object.__setattr__(self, "edges", canon)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def complete_hypergraph(n: int, r: int = 2) -> Hypergraph:
    """K_n^r: all r-subsets of 0..n-1."""
    return Hypergraph(r, n, frozenset(itertools.combinations(range(n), r)))


def induced_subhypergraph(h: Hypergraph, vertices) -> tuple[Hypergraph, list[int]]:
    """Subhypergraph induced by `vertices`, relabeled to 0..len-1.

    Returns (subhypergraph, old_ids) where old_ids[new] = original vertex.
    """
    old = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(old)}
    keep = set(old)
    edges = frozenset(
        tuple(pos[v] for v in e) for e in h.edges if all(v in keep for v in e)
    )
    return Hypergraph(h.r, len(old), edges), old


@dataclass(frozen=True)
class RPartiteBlock:
    """A complete r-partite r-graph: r disjoint non-empty vertex classes.

    Parts are canonicalized (vertices sorted inside each part, parts ordered
    by their sorted vertex tuples) so equal blocks compare equal.
    """

    parts: tuple = ()

    def __post_init__(self):
        parts = tuple(frozenset(int(v) for v in p) for p in self.parts)
        if len(parts) < 2:
            raise ValueError("a block needs at least 2 parts")
        if any(not p for p in parts):
            raise ValueError("empty parts are rejected")
        support = set()
        for p in parts:
            if support & p:
                raise ValueError("parts must be pairwise disjoint")
            support |= p
        if any(v < 0 for v in support):
            raise ValueError("vertices must be non-negative")
        ordered = tuple(sorted(parts, key=lambda p: tuple(sorted(p))))
        object.__setattr__(self, "parts", ordered)

    @property
    def r(self) -> int:
        return len(self.parts)

    def support(self) -> frozenset:
        return frozenset(v for p in self.parts for v in p)

    def edge_count(self) -> int:
        return math.prod(len(p) for p in self.parts)

    def order(self) -> int:
        return sum(len(p) for p in self.parts)

    def implied_edges(self):
        """Yield every edge of the block in canonical sorted-tuple form."""
        for combo in itertools.product(*(sorted(p) for p in self.parts)):
            yield tuple(sorted(combo))

    def contains_edge(self, edge: Edge) -> bool:
        """True iff `edge` takes exactly one vertex from each part."""
        hit = [False] * len(self.parts)
        for v in edge:
            for i, p in enumerate(self.parts):
                if v in p:
                    if hit[i]:
                        return False
                    hit[i] = True
                    break
            else:
                return False
        return all(hit)


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
            allowed = frozenset(int(x) for x in self.allowed)
            if not allowed:
                raise ValueError("multiplicity list must be non-empty")
            if any(x < 1 for x in allowed):
                raise ValueError("multiplicities must be positive")
            object.__setattr__(self, "allowed", allowed)

    @classmethod
    def of(cls, *values: int) -> "MultiplicityList":
        return cls(frozenset(values))

    @classmethod
    def up_to(cls, p: int) -> "MultiplicityList":
        return cls(frozenset(range(1, p + 1)))

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
            lo, hi = (int(x) for x in spec.split("..", 1))
            check_guard("multiplicity range width", hi - lo + 1, LIST_RANGE_GUARD)
            return cls(frozenset(range(lo, hi + 1)))
        return cls(frozenset(int(x) for x in spec.split(",")))

    def __contains__(self, count: int) -> bool:
        if self.allowed is None:
            return count >= 1
        return count in self.allowed

    def describe(self) -> str:
        if self.allowed is None:
            return "any"
        return ",".join(str(x) for x in sorted(self.allowed))


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its inputs, for machine-checkable comparisons."""

    name: str
    inputs: dict = field(default_factory=dict)
    value: float = 0.0
    direction: str = "lower"

    def __post_init__(self):
        if self.direction not in ("lower", "upper"):
            raise ValueError("direction must be 'lower' or 'upper'")
        if not math.isfinite(self.value):
            raise ValueError("bound value must be finite")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": dict(self.inputs),
            "value": float(self.value),
            "direction": self.direction,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class MultiplicityProfile:
    """Per-edge coverage counts plus any block-implied edges outside h."""

    multiplicity: dict
    foreign: dict

    def histogram(self) -> dict:
        hist: dict[int, int] = {}
        for c in self.multiplicity.values():
            hist[c] = hist.get(c, 0) + 1
        return dict(sorted(hist.items()))


def _check_compatible(h: Hypergraph, c: Cover) -> None:
    if c.r != h.r:
        raise ValueError(f"cover uniformity {c.r} != hypergraph uniformity {h.r}")
    for b in c.blocks:
        top = max(b.support(), default=-1)
        if top >= h.n:
            raise ValueError(f"block vertex {top} outside 0..{h.n - 1}")


def multiplicity_profile(h: Hypergraph, c: Cover) -> MultiplicityProfile:
    """Count, for every edge of h, the blocks of c containing it.

    Block edges not in h (foreign coverage) are tallied separately. Every
    implied edge of every block is enumerated once.
    """
    _check_compatible(h, c)
    counts = {e: 0 for e in h.edges}
    foreign: dict[Edge, int] = {}
    for b in c.blocks:
        for e in b.implied_edges():
            if e in counts:
                counts[e] += 1
            else:
                foreign[e] = foreign.get(e, 0) + 1
    return MultiplicityProfile(counts, foreign)


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
    if profile.foreign:
        e = min(profile.foreign)
        return VerifyResult(False, "foreign", e, profile.foreign[e], profile)
    for e in sorted(profile.multiplicity):
        if profile.multiplicity[e] not in lst:
            return VerifyResult(False, "multiplicity", e, profile.multiplicity[e], profile)
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
# objects round-trip byte-identically.


def hypergraph_to_json(h: Hypergraph) -> str:
    doc = {"r": h.r, "n": h.n, "edges": [list(e) for e in h.sorted_edges()]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def hypergraph_from_json(text: str) -> Hypergraph:
    """Raises ValueError on text that is not a hypergraph document."""
    try:
        doc = json.loads(text)
        return Hypergraph(int(doc["r"]), int(doc["n"]),
                          frozenset(tuple(e) for e in doc["edges"]))
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed hypergraph JSON: {exc!r}") from None


def cover_to_json(c: Cover) -> str:
    blocks = [{"parts": [sorted(p) for p in b.parts]} for b in c.blocks]
    return json.dumps({"r": c.r, "blocks": blocks}, sort_keys=True,
                      separators=(",", ":"))


def cover_from_json(text: str) -> Cover:
    """Raises ValueError on text that is not a cover document."""
    try:
        doc = json.loads(text)
        blocks = tuple(RPartiteBlock(tuple(map(frozenset, b["parts"])))
                       for b in doc["blocks"])
        return Cover(int(doc["r"]), blocks)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed cover JSON: {exc!r}") from None
