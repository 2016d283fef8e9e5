"""The benchmark's three workloads: their jobs, pinned values and output checks.

A job goes through the command line in-process (``hypercover.cli.main``)
wherever a subcommand exists, and through the public library otherwise. Every
job's output is checked after its timed region, against a value pinned in
``PINS`` (a value the paper states or a closed form it proves) or against a
small recomputation written here, independent of the package. A failed check
raises ``Mismatch``.

The package is always reached through module attributes at call time
(``ctx.cli.main``, ``ctx.hc.gf2_rank``), so the traced run sees the wrappers
it installs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import ModuleType
from typing import Callable

WORKLOADS = ("cover-pipeline", "cube-bracket", "exact-search")

HEX_M = 12
GRID3_M = 8
PI_SIZES = ((2, 5), (3, 3), (5, 2))
RANK_R, RANK_M = 4, 2
DISJOINT_N, DISJOINT_K = 12, 6
UPTO_N, UPTO_K = 12, 5

# exact-search corpus: (r, n, how many random instances), each instance with
# half of the r-sets as edges; a fixed edge count keeps the search cost of a
# corpus from swinging with the seed as much as independent coin flips would
CORPUS_SHAPES = ((2, 5, 3), (2, 6, 10), (2, 7, 8), (3, 5, 3), (3, 6, 8))
MIN_SUM_ORDERS_MAX_N = 5  # the package's guard on min_sum_of_orders

PINS = {
    # hexagonal {2,3}-cover of K_n, n = 3m^2 - 3m + 1, within 6m - 3 blocks
    "hex.max_blocks": 6 * HEX_M - 3,
    "hex.multiplicities": (2, 3),
    # square-grid {1..4}-cover of K_{m^2}^3 with exactly 6m - 10 blocks
    "grid3.blocks": 6 * GRID3_M - 10,
    "grid3.multiplicities": (1, 2, 3, 4),
    # cube partitions: (B^m - 1)/(B - 1) blocks, B = floor((e-1) r!) = 3, 10, 206
    "pi.blocks": {(2, 5): 121, (3, 3): 111, (5, 2): 207},
    # adjacency rank (C(4,2) + 1)^2 - 1 and the partition bound it certifies
    "rank.4.2": 48,
    "partition_lower_bound.4.2": 8,
    # disjointness matrices: C(12,6) (a permutation matrix) and sum_{k<=5} C(12,k)
    "disjointness.12.6": 924,
    "disjointness_upto.12.5": 1586,
    # oracle optima: Graham-Pollak n-1, ceil(log2 n) covering, 3-uniform n-2
    "K6.partition": 5,
    "K6.cover_any": 3,
    "K6^3.partition": 4,
}


class Mismatch(Exception):
    """A job's output disagrees with a pinned or recomputed value."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    """What one set-up hands to the jobs: the package, a work dir, the corpus."""

    workload: str
    hc: ModuleType
    cli: ModuleType
    workdir: str
    corpus: list = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def make_corpus(workload: str, seed: int, workdir: str) -> list:
    """The seeded inputs of a workload; only exact-search has any.

    Drawn from a private ``random.Random(seed)``, because ``cli.main``
    reseeds the global generator on every call. The two pinned instances are
    written as JSON files for the command line by this code, not by the
    package's serializer.
    """
    if workload != "exact-search":
        return []
    rng = random.Random(seed)
    corpus = []
    for r, n, count in CORPUS_SHAPES:
        for _ in range(count):
            pool = list(itertools.combinations(range(n), r))
            corpus.append((r, n, sorted(rng.sample(pool, len(pool) // 2))))
    for name, r in (("K6", 2), ("K6^3", 3)):
        doc = {"r": r, "n": 6, "edges": [list(e) for e in itertools.combinations(range(6), r)]}
        with open(os.path.join(workdir, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return corpus


def build_jobs(ctx: Context, pins: dict = PINS) -> list[Job]:
    builders = {
        "cover-pipeline": _cover_pipeline,
        "cube-bracket": _cube_bracket,
        "exact-search": _exact_search,
    }
    return builders[ctx.workload](ctx, pins)


def _cli(ctx: Context, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = ctx.cli.main(argv)
        return rc, out.getvalue()
    return run


def _payload(result) -> dict:
    rc, text = result
    expect(rc == 0, f"exit code {rc}")
    lines = text.splitlines()
    expect(len(lines) == 1, f"expected one payload line, got {len(lines)}")
    return json.loads(lines[0])


def _check_histogram(p: dict, allowed, edges: int) -> None:
    expect(p["status"] == "ok", f"verify status {p['status']}: {p['witness']}")
    expect(p["foreign"] == 0, f"{p['foreign']} foreign edges")
    hist = {int(k): v for k, v in p["histogram"].items()}
    expect(set(hist) <= set(allowed), f"multiplicities {sorted(hist)} outside {allowed}")
    expect(sum(hist.values()) == edges, f"histogram counts {sum(hist.values())} edges, not {edges}")


def _multiplicities(blocks, edges: set) -> dict:
    """Edge -> number of blocks containing it; foreign edges included."""
    counts = dict.fromkeys(edges, 0)
    for b in blocks:
        for combo in itertools.product(*b.parts):
            e = tuple(sorted(combo))
            counts[e] = counts.get(e, 0) + 1
    return counts


def _is_independent(vertices, edges: set, r: int) -> bool:
    if math.comb(len(vertices), r) <= len(edges):
        return not any(c in edges for c in itertools.combinations(sorted(vertices), r))
    return not any(set(e) <= vertices for e in edges)


# --- cover-pipeline ------------------------------------------------------------


def _cover_pipeline(ctx: Context, pins: dict) -> list[Job]:
    hex_h, hex_c = ctx.path("hex.h.json"), ctx.path("hex.c.json")
    g3_h, g3_c = ctx.path("grid3.h.json"), ctx.path("grid3.c.json")
    hex_n = 3 * HEX_M * HEX_M - 3 * HEX_M + 1
    hex_edges = math.comb(hex_n, 2)
    g3_edges = math.comb(GRID3_M * GRID3_M, 3)

    def check_hex(result):
        p = _payload(result)
        expect((p["n"], p["r"], p["edges"]) == (hex_n, 2, hex_edges), f"hex shape {p}")
        expect(p["blocks"] <= pins["hex.max_blocks"], f"hex uses {p['blocks']} blocks")
        expect(p["written"] == [hex_h, hex_c], f"written {p['written']}")

    def check_grid3(result):
        p = _payload(result)
        expect((p["n"], p["r"], p["edges"]) == (GRID3_M**2, 3, g3_edges), f"grid3 shape {p}")
        expect(p["blocks"] == pins["grid3.blocks"], f"grid3 uses {p['blocks']} blocks")
        expect(p["written"] == [g3_h, g3_c], f"written {p['written']}")

    def check_hex_verify(result):
        _check_histogram(_payload(result), pins["hex.multiplicities"], hex_edges)

    def check_grid3_verify(result):
        _check_histogram(_payload(result), pins["grid3.multiplicities"], g3_edges)

    def extract():
        with open(hex_h, encoding="utf-8") as fh:
            h = ctx.hc.hypergraph_from_json(fh.read())
        with open(hex_c, encoding="utf-8") as fh:
            c = ctx.hc.cover_from_json(fh.read())
        return h, c, ctx.hc.derandomized_extraction(h, c)

    def check_extract(result):
        h, c, res = result
        incidence = [0] * h.n
        for b in c.blocks:
            for part in b.parts:
                for v in part:
                    incidence[v] += 1
        beta = Fraction(h.r - 1, h.r)
        guarantee = math.ceil(sum(beta**a for a in incidence))
        expect(res.guarantee == guarantee, f"guarantee {res.guarantee}, expected {guarantee}")
        expect(len(res.vertices) >= guarantee, f"{len(res.vertices)} survivors < {guarantee}")
        expect(_is_independent(res.vertices, h.edges, h.r), "survivors contain an edge")

    m = str(HEX_M)
    g = str(GRID3_M)
    return [
        Job("construct hex-cover", _cli(ctx, ["construct", "hex-cover", "--m", m,
                                              "--hypergraph-out", hex_h, "--cover-out", hex_c]),
            check_hex),
        Job("construct grid3-cover", _cli(ctx, ["construct", "grid3-cover", "--m", g,
                                                "--hypergraph-out", g3_h, "--cover-out", g3_c]),
            check_grid3),
        Job("verify hex --list 2,3", _cli(ctx, ["verify", "--hypergraph", hex_h,
                                                "--cover", hex_c, "--list", "2,3"]),
            check_hex_verify),
        Job("verify grid3 --list 1..4", _cli(ctx, ["verify", "--hypergraph", g3_h,
                                                   "--cover", g3_c, "--list", "1..4"]),
            check_grid3_verify),
        Job("derandomized_extraction hex", extract, check_extract),
    ]


# --- cube-bracket --------------------------------------------------------------


def _cube_bracket(ctx: Context, pins: dict) -> list[Job]:
    jobs = []
    edges_seen: dict = {}
    for r, m in PI_SIZES:
        h, c = ctx.path(f"pi{r}.{m}.h.json"), ctx.path(f"pi{r}.{m}.c.json")

        def check_construct(result, r=r, m=m):
            p = _payload(result)
            expect(p["r"] == r and p["n"] == (r + 1) ** m, f"cube shape {p}")
            expect(p["blocks"] == p["pinto_upper_bound"] == pins["pi.blocks"][(r, m)],
                   f"pi-partition r={r} m={m}: {p['blocks']} blocks,"
                   f" bound {p['pinto_upper_bound']}")
            edges_seen[(r, m)] = p["edges"]

        def check_verify(result, r=r, m=m):
            p = _payload(result)
            edges = edges_seen.pop((r, m))
            expect(p["list"] == "1", f"list {p['list']}")
            expect(p["histogram"] == {"1": edges}, f"histogram {p['histogram']}, edges {edges}")
            _check_histogram(p, (1,), edges)

        rm = ["--r", str(r), "--m", str(m)]
        jobs.append(Job(f"construct pi-partition r={r} m={m}",
                        _cli(ctx, ["construct", "pi-partition", *rm,
                                   "--hypergraph-out", h, "--cover-out", c]),
                        check_construct))
        jobs.append(Job(f"verify --partition r={r} m={m}",
                        _cli(ctx, ["verify", "--hypergraph", h, "--cover", c, "--partition"]),
                        check_verify))

    def check_rank(result):
        p = _payload(result)
        expect(p["rank"] == p["rank_lower_bound"] == pins["rank.4.2"], f"rank {p}")
        expect(p["partition_lower_bound"] == pins["partition_lower_bound.4.2"], f"rank {p}")
        expect(p["status"] == "ok", f"rank status {p['status']}")

    jobs.append(Job(f"rank r={RANK_R} m={RANK_M}",
                    _cli(ctx, ["rank", "--r", str(RANK_R), "--m", str(RANK_M)]), check_rank))

    def disjointness():
        matrix = ctx.hc.disjointness_matrix(DISJOINT_N, DISJOINT_K)
        return matrix, ctx.hc.gf2_rank(matrix)

    def check_disjointness(result):
        matrix, rank = result
        size = pins["disjointness.12.6"]
        expect(matrix.rows == matrix.cols == size, f"shape {matrix.rows}x{matrix.cols}")
        expect(rank == size, f"rank {rank} of {size}")
        # at n = 2k each k-set is disjoint from exactly its complement
        expect(all(row.bit_count() == 1 for row in matrix.data), "a row is not a unit vector")
        expect(len(set(matrix.data)) == size, "two rows share their disjoint partner")

    def disjointness_upto():
        matrix = ctx.hc.disjointness_matrix_upto(UPTO_N, UPTO_K)
        return matrix, ctx.hc.gf2_rank(matrix)

    def check_upto(result):
        matrix, rank = result
        size = pins["disjointness_upto.12.5"]
        expect(matrix.rows == matrix.cols == size, f"shape {matrix.rows}x{matrix.cols}")
        expect(rank == size, f"rank {rank} of {size}")
        expect(matrix.data[0] == (1 << size) - 1, "the empty set is not disjoint from all")

    jobs.append(Job(f"disjointness_matrix({DISJOINT_N},{DISJOINT_K}) rank",
                    disjointness, check_disjointness))
    jobs.append(Job(f"disjointness_matrix_upto({UPTO_N},{UPTO_K}) rank",
                    disjointness_upto, check_upto))
    return jobs


# --- exact-search --------------------------------------------------------------


def _check_witness(outcome, edges: set, allowed, what: str) -> None:
    """The witness covers only edges, each a number of times in `allowed`
    (None: at least once), with as many blocks as the claimed optimum."""
    expect(outcome.status == "exact", f"{what}: search returned {outcome.status}")
    counts = _multiplicities(outcome.witness.blocks, edges)
    expect(len(counts) == len(edges), f"{what}: witness covers a non-edge")
    bad = [c for c in counts.values() if (c < 1 if allowed is None else c not in allowed)]
    expect(not bad, f"{what}: witness multiplicities {sorted(set(bad))} not admissible")
    expect(len(outcome.witness.blocks) == outcome.value, f"{what}: witness size != value")


def _brute_independence(n: int, edges: set, r: int) -> int:
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size > best and _is_independent({v for v in range(n) if mask >> v & 1}, edges, r):
            best = size
    return best


def _instance_job(ctx: Context, index: int, instance) -> Job:
    r, n, edge_list = instance
    edges = set(edge_list)

    def run():
        hc = ctx.hc
        h = hc.Hypergraph(r, n, frozenset(edge_list))
        out = {
            "any": hc.min_cover_size(h, hc.MultiplicityList.any_positive()),
            "1..2": hc.min_cover_size(h, hc.MultiplicityList.up_to(2)),
            "partition": hc.min_partition_size(h),
            "alpha": hc.independence_number(h),
            "nu": hc.matching_number(h),
            "chi": hc.chromatic_number(h),
        }
        if n <= MIN_SUM_ORDERS_MAX_N:
            out["orders"] = hc.min_sum_of_orders(h)
        return out

    def check(out):
        _check_witness(out["any"], edges, None, "any")
        _check_witness(out["1..2"], edges, (1, 2), "1..2")
        _check_witness(out["partition"], edges, (1,), "partition")
        bc, b12, bp = out["any"].value, out["1..2"].value, out["partition"].value
        expect(bc <= b12 <= bp, f"any {bc} <= 1..2 {b12} <= partition {bp} fails")
        alpha, nu, chi = out["alpha"], out["nu"], out["chi"]
        expect(alpha == _brute_independence(n, edges, r), f"independence number {alpha}")
        expect(1 <= nu <= len(edges) and nu * r <= n, f"matching number {nu}")
        expect(2 <= chi <= n, f"chromatic number {chi}")
        # no cover has fewer blocks than nu^(1+1/(r-1)) / |E|^(1/(r-1))
        e = 1 / (r - 1)
        expect(bc >= nu ** (1 + e) / len(edges) ** e - 1e-9, "matching bound not dominated")
        if r == 2:  # t bicliques covering a graph give a proper 2^t colouring
            expect(2**bc >= chi, f"cover {bc} too small for chromatic number {chi}")
        if "orders" in out:
            orders = out["orders"]
            expect(orders.status == "exact", f"orders: search returned {orders.status}")
            counts = _multiplicities(orders.witness.blocks, edges)
            expect(len(counts) == len(edges) and min(counts.values()) >= 1,
                   "orders: witness is not a cover")
            total = sum(len(p) for b in orders.witness.blocks for p in b.parts)
            expect(total == orders.value, f"orders: witness order {total} != {orders.value}")
            if alpha < n:  # no cover has total order below n log2(n/alpha) / log2(1 + 1/(r-1))
                ks = n * math.log2(n / alpha) / math.log2(1 + 1 / (r - 1))
                expect(orders.value >= ks - 1e-9, f"orders {orders.value} below bound {ks}")

    return Job(f"search r={r} n={n} #{index}", run, check)


# CLI searches on the pinned instances. K_6^3 skips `1..2`: that search takes
# about 2 s, 40% of a pass, and with only 5-7 samples in a run its median
# swung by a quarter from run to run.
PINNED_SEARCHES = (
    ("K6", (("cover_any", ["min-cover", "--list", "any"]),
            ("cover_1..2", ["min-cover", "--list", "1..2"]),
            ("partition", ["min-partition"]))),
    ("K6^3", (("cover_any", ["min-cover", "--list", "any"]),
              ("partition", ["min-partition"]))),
)


def _exact_search(ctx: Context, pins: dict) -> list[Job]:
    jobs = [_instance_job(ctx, i, inst) for i, inst in enumerate(ctx.corpus)]
    for name, searches in PINNED_SEARCHES:
        path = ctx.path(name + ".json")
        values: dict = {}

        def check(result, goal, name=name, values=values, searches=searches):
            p = _payload(result)
            expect(p["status"] == "ok" and p["exact"], f"{name} {goal}: {p['status']}")
            expect(p["value"] == p["lower"] == p["report"]["value"], f"{name} {goal}: {p}")
            values[goal] = p["value"]
            pin = pins.get(f"{name}.{goal}")
            expect(pin is None or p["value"] == pin, f"{name} {goal} = {p['value']}, pinned {pin}")
            if goal == "partition":  # the last search: any <= 1..2 <= partition
                chain = [values.pop(g) for g, _ in searches]
                expect(chain == sorted(chain), f"{name}: any <= 1..2 <= partition fails: {chain}")

        for goal, argv in searches:
            jobs.append(Job(f"search {argv[0]} {name} {' '.join(argv[1:])}".rstrip(),
                            _cli(ctx, ["search", *argv, "--file", path]),
                            lambda result, goal=goal, check=check: check(result, goal)))
    return jobs
