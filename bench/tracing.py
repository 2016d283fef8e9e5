"""Layer spans for the traced run, recorded from the benchmark's own code.

The tracer wraps coarse public functions of each hypercover layer (never
per-edge methods such as ``contains_edge`` or ``implied_edges``) and
records one span per call: name, start, end, parent span and job id. Spans
are kept in memory and written out when the run ends.

Modules that did ``from .core import ...`` hold their own copies of those
names, and calls inside a module resolve through its globals, so the wrapper
is bound in place of the original under every name, in every ``hypercover``
module, that refers to it.

Counts (edges profiled, matrix pairs built, candidates enumerated, ...) are
computed from each call's arguments and result, after the span has ended;
they are not counters inside the package.

A memory pass runs the same wrappers under ``tracemalloc``: it resets the
traced peak at every span boundary and carries the peak up to the enclosing
spans, so each span learns the highest traced memory above its entry level.
That pass is never timed.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("core", "grids", "cube", "gf2", "bounds", "oracles", "cli")


def _profile_counts(a, result):
    return {"edges": len(a["h"].edges),
            "block_edges": sum(math.prod(len(p) for p in b.parts) for b in a["c"].blocks)}


def _json_counts(a, result):
    text = result if isinstance(result, str) else a["text"]
    return {"bytes": len(text)}  # the package writes ASCII JSON: one byte per character


def _cube_graph_counts(a, result):
    return {"candidates": math.comb((a["r"] + 1) ** a["m"], a["r"]),
            "edges": len(result.hypergraph.edges)}


def _search_counts(a, result):
    return {"exact": int(result.status == "exact")}


def _enumerate_counts(a, result):
    h = a["h"]
    return {"candidates": len(result), "assignments": (h.r + 1) ** h.n}


# span name -> (module, attribute path) of each traced function, and its count function
TRACED = {
    "core.profile": (("hypercover.core", ("multiplicity_profile",)), _profile_counts),
    "core.verify": (("hypercover.core", ("verify_cover", "verify_partition")), None),
    "core.canon": (("hypercover.core", ("Hypergraph.__post_init__", "complete_hypergraph",
                                        "induced_subhypergraph")), None),
    "core.json": (("hypercover.core", ("hypergraph_to_json", "hypergraph_from_json",
                                       "cover_to_json", "cover_from_json")), _json_counts),
    "grids.build": (("hypercover.grids", ("hex_cover", "grid3_cover", "star_partition",
                                          "log_cover")),
                    lambda a, result: {"blocks": len(result[1].blocks)}),
    "cube.graph": (("hypercover.cube", ("cube_graph",)), _cube_graph_counts),
    "cube.partition": (("hypercover.cube", ("pi_partition",)),
                       lambda a, result: {"blocks": len(result.blocks)}),
    "gf2.build": (("hypercover.gf2", ("disjointness_matrix", "disjointness_matrix_upto",
                                      "adjacency_cube_matrix")),
                  lambda a, result: {"pairs": result.rows * result.cols}),
    "gf2.rank": (("hypercover.gf2", ("gf2_rank",)),
                 lambda a, result: {"rows": a["matrix"].rows}),
    "bounds.extract": (("hypercover.bounds", ("derandomized_extraction",)),
                       lambda a, result: {"blocks": len(a["c"].blocks)}),
    "oracles.enumerate": (("hypercover.oracles", ("enumerate_blocks",)), _enumerate_counts),
    "oracles.search": (("hypercover.oracles", ("min_cover_size", "min_partition_size",
                                               "min_sum_of_orders")), _search_counts),
    "oracles.invariants": (("hypercover.oracles", ("independence_number", "matching_number",
                                                   "chromatic_number")), None),
    "cli": (("hypercover.cli", ("main",)), None),
}

# per-layer metrics: name -> (unit, better); every traced run reports all of them
METRICS = {
    "core.profile.self_s": ("s", "lower"),
    "core.profile.share": ("fraction", "lower"),
    "core.profile.calls": ("count", "lower"),
    "core.profile.edges": ("count", "lower"),
    "core.profile.block_edges": ("count", "lower"),
    "core.verify.self_s": ("s", "lower"),
    "core.verify.profiles_per_verify": ("ratio", "lower"),
    "core.canon.self_s": ("s", "lower"),
    "core.canon.share": ("fraction", "lower"),
    "core.canon.calls": ("count", "lower"),
    "core.json.self_s": ("s", "lower"),
    "core.json.share": ("fraction", "lower"),
    "core.json.bytes": ("B", "lower"),
    "core.peak_mb": ("MB", "lower"),
    "core.share": ("fraction", "lower"),
    "grids.build.self_s": ("s", "lower"),
    "grids.build.share": ("fraction", "lower"),
    "grids.blocks": ("count", "lower"),
    "grids.share": ("fraction", "lower"),
    "cube.graph.self_s": ("s", "lower"),
    "cube.graph.share": ("fraction", "lower"),
    "cube.graph.candidates": ("count", "lower"),
    "cube.graph.edge_yield": ("ratio", "higher"),
    "cube.partition.self_s": ("s", "lower"),
    "cube.partition.blocks": ("count", "lower"),
    "cube.peak_mb": ("MB", "lower"),
    "cube.share": ("fraction", "lower"),
    "gf2.build.self_s": ("s", "lower"),
    "gf2.build.share": ("fraction", "lower"),
    "gf2.build.pairs": ("count", "lower"),
    "gf2.rank.self_s": ("s", "lower"),
    "gf2.rank.share": ("fraction", "lower"),
    "gf2.rank.rows": ("count", "lower"),
    "gf2.peak_mb": ("MB", "lower"),
    "gf2.share": ("fraction", "lower"),
    "bounds.extract.self_s": ("s", "lower"),
    "bounds.extract.share": ("fraction", "lower"),
    "bounds.extract.blocks": ("count", "lower"),
    "bounds.share": ("fraction", "lower"),
    "oracles.enumerate.self_s": ("s", "lower"),
    "oracles.enumerate.share": ("fraction", "lower"),
    "oracles.enumerate.calls": ("count", "lower"),
    "oracles.enumerate.yield": ("ratio", "higher"),
    "oracles.search.self_s": ("s", "lower"),
    "oracles.search.share": ("fraction", "lower"),
    "oracles.search.calls": ("count", "lower"),
    "oracles.search.exact_ratio": ("ratio", "higher"),
    "oracles.invariants.self_s": ("s", "lower"),
    "oracles.peak_mb": ("MB", "lower"),
    "oracles.share": ("fraction", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.share": ("fraction", "lower"),
    "cli.calls": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# metrics computed from call arguments and results rather than counted by the package
COMPUTED = tuple(name for name, (unit, _) in METRICS.items()
                 if unit in ("count", "B") or name.endswith(("yield", "ratio", "_per_verify")))


@dataclass
class Span:
    name: str
    start: float
    job: int
    parent: int  # index into the tracer's spans, -1 for a job's top level
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    base: int = 0  # memory pass: traced bytes at entry
    peak: int = 0  # memory pass: highest traced bytes while open


class Tracer:
    """Installs span-recording wrappers into the loaded hypercover modules."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1
        self.bindings: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hypercover" or name.startswith("hypercover."))]
        for span_name, ((module_name, paths), counter) in TRACED.items():
            module = sys.modules[module_name]
            for path in paths:
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                wrapper = self._wrap(span_name, original, counter)
                targets = [owner] if owner is not module else modules
                for target in targets:
                    for name, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, name, wrapper)
                            self.bindings.append((target, name, original, wrapper))

    def uninstall(self) -> None:
        for target, name, original, _ in reversed(self.bindings):
            setattr(target, name, original)
        self.bindings.clear()

    def _wrap(self, span_name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].counts = counter(bound.arguments, result)
            return result

        return wrapper

    def _enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, 0.0, self.job, parent)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                self.spans[parent].peak = max(self.spans[parent].peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = perf_counter()
        return len(self.spans) - 1

    def _exit(self, index: int) -> None:
        end = perf_counter()
        span = self.spans[index]
        span.end = end
        self.stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            if span.parent >= 0:
                parent = self.spans[span.parent]
                parent.peak = max(parent.peak, span.peak)

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.job] for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, -math.inf
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def _outermost(spans: list[Span], i: int) -> bool:
    """A span not nested in a span of the same name (one call, not its delegate)."""
    p = spans[i].parent
    return p < 0 or spans[p].name != spans[i].name


def _layer_root(spans: list[Span], i: int) -> bool:
    """A span with no ancestor in its own layer."""
    layer = spans[i].name.split(".")[0]
    p = spans[i].parent
    while p >= 0:
        if spans[p].name.split(".")[0] == layer:
            return False
        p = spans[p].parent
    return True


def pass_metrics(spans: list[Span], pass_s: float) -> dict:
    """Per-layer figures of one traced pass whose jobs took `pass_s` in all."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + own[i]
        if _outermost(spans, i):
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, value in s.counts.items():
                counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value

    verify_jobs = {s.job for i, s in enumerate(spans)
                   if s.name == "core.verify" and _outermost(spans, i)}
    profiles_in_verify_jobs = sum(1 for i, s in enumerate(spans)
                                  if s.name == "core.profile" and s.job in verify_jobs
                                  and _outermost(spans, i))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in TRACED:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.share"] = ratio(self_s.get(name, 0.0), pass_s)
        m[f"{name}.calls"] = calls.get(name, 0)
    for layer in LAYERS:
        m[f"{layer}.share"] = ratio(sum(v for k, v in self_s.items()
                                        if k.split(".")[0] == layer), pass_s)
    m["core.profile.edges"] = counts.get("core.profile.edges", 0)
    m["core.profile.block_edges"] = counts.get("core.profile.block_edges", 0)
    m["core.verify.profiles_per_verify"] = ratio(profiles_in_verify_jobs,
                                                 calls.get("core.verify", 0))
    m["core.json.bytes"] = counts.get("core.json.bytes", 0)
    m["grids.blocks"] = counts.get("grids.build.blocks", 0)
    m["cube.graph.candidates"] = counts.get("cube.graph.candidates", 0)
    m["cube.graph.edge_yield"] = ratio(counts.get("cube.graph.edges", 0),
                                       counts.get("cube.graph.candidates", 0))
    m["cube.partition.blocks"] = counts.get("cube.partition.blocks", 0)
    m["gf2.build.pairs"] = counts.get("gf2.build.pairs", 0)
    m["gf2.rank.rows"] = counts.get("gf2.rank.rows", 0)
    m["bounds.extract.blocks"] = counts.get("bounds.extract.blocks", 0)
    m["oracles.enumerate.yield"] = ratio(counts.get("oracles.enumerate.candidates", 0),
                                         counts.get("oracles.enumerate.assignments", 0))
    m["oracles.search.exact_ratio"] = ratio(counts.get("oracles.search.exact", 0),
                                            calls.get("oracles.search", 0))
    return m


def peak_metrics(spans: list[Span]) -> dict:
    """Per-layer peak traced memory above entry, in MiB, from a memory pass."""
    peaks = dict.fromkeys(LAYERS, 0)
    for i, s in enumerate(spans):
        if _layer_root(spans, i):
            layer = s.name.split(".")[0]
            peaks[layer] = max(peaks[layer], s.peak - s.base)
    return {f"{layer}.peak_mb": peaks[layer] / 2**20 for layer in ("core", "cube", "gf2", "oracles")}
