"""Command-line surface: construct | verify | rank | bounds | search.

Payloads are UTF-8 JSON on stdout, diagnostics go to stderr. Exit codes:
0 ok, 1 verification/certificate failure, 3 search outcome unknown,
4 invalid parameters, a malformed input file or a size guard. Setting the
HYPERCOVER_GUARD_OVERRIDE environment variable to 1 lifts size guards
(unsafe: memory and time unbounded).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds as bnd
from . import gf2, oracles
from .core import (
    BoundReport,
    Cover,
    GuardError,
    Hypergraph,
    MultiplicityList,
    cover_from_json,
    cover_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    verify_cover,
    verify_partition,
)
from .cube import cube_graph, label_partition, label_table, pi_partition, pinto_upper_bound
from .grids import grid3_cover, hex_cover, log_cover, star_partition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 3
EXIT_ERROR = 4

CONSTRUCT_KINDS = (
    "hex-cover",
    "grid3-cover",
    "star-partition",
    "log-cover",
    "cube-graph",
    "pi-partition",
    "label-partition",
)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _need(args, names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ValueError(f"--{name} is required for this invocation")


def _write(path: str | None, text: str) -> list[str]:
    if path is None:
        return []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return [path]


def _cmd_construct(args) -> int:
    kind = args.kind
    written: list[str] = []
    payload: dict = {"kind": kind}
    h: Hypergraph | None = None
    c: Cover | None = None
    if kind == "hex-cover":
        _need(args, ["m"])
        h, c = hex_cover(args.m)
    elif kind == "grid3-cover":
        _need(args, ["m"])
        h, c = grid3_cover(args.m)
    elif kind == "star-partition":
        _need(args, ["n"])
        h, c = star_partition(args.n)
    elif kind == "log-cover":
        _need(args, ["n"])
        h, c = log_cover(args.n)
    elif kind == "cube-graph":
        _need(args, ["r", "m"])
        h = cube_graph(args.r, args.m).hypergraph
    elif kind == "pi-partition":
        _need(args, ["r", "m"])
        h = cube_graph(args.r, args.m).hypergraph
        c = pi_partition(args.r, args.m)
        payload["pinto_upper_bound"] = pinto_upper_bound(args.r, args.m)
    elif kind == "label-partition":
        _need(args, ["r"])
        blocks = label_partition(args.r)
        table = label_table(blocks)
        payload.update({"r": args.r, "blocks": len(blocks), "table": table})
        written += _write(args.table_out, table)
        payload["written"] = written
        _emit(payload)
        return EXIT_OK
    if h is not None:
        payload.update({"n": h.n, "r": h.r, "edges": len(h.edges)})
        written += _write(args.hypergraph_out, hypergraph_to_json(h) + "\n")
    if c is not None:
        payload["blocks"] = len(c.blocks)
        written += _write(args.cover_out, cover_to_json(c) + "\n")
    payload["written"] = written
    _emit(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.hypergraph, encoding="utf-8") as fh:
        h = hypergraph_from_json(fh.read())
    with open(args.cover, encoding="utf-8") as fh:
        c = cover_from_json(fh.read())
    if args.partition:
        lst = MultiplicityList.of(1)
        result = verify_partition(h, c)
    else:
        if args.list is None:
            raise ValueError("pass --list or --partition")
        lst = MultiplicityList.parse(args.list)
        result = verify_cover(h, c, lst)
    profile = result.profile
    payload = {
        "status": "ok" if result.ok else "fail",
        "list": lst.describe(),
        "histogram": {str(k): v for k, v in profile.histogram().items()},
        "foreign": profile.foreign_count(),
        "witness": None,
    }
    if not result.ok:
        payload["witness"] = {
            "edge": list(result.witness_edge),
            "multiplicity": result.witness_multiplicity,
            "reason": result.reason,
        }
    _emit(payload)
    return EXIT_OK if result.ok else EXIT_FAIL


def _cmd_rank(args) -> int:
    if args.r % 2 or args.r < 4:
        raise ValueError(
            f"certificates need even r >= 4; odd r inherits the even case at "
            f"r-1 (for r={args.r} consult the formula bound instead)"
        )
    matrix = gf2.adjacency_cube_matrix(args.r, args.m)
    rank = gf2.gf2_rank(matrix)
    formula = (math.comb(args.r, args.r // 2) + 1) ** args.m - 1
    payload = {
        "r": args.r,
        "m": args.m,
        "rank": rank,
        "rank_lower_bound": formula,
        "partition_lower_bound": gf2.partition_lower_bound(args.r, args.m),
        "status": "ok" if rank >= formula else "fail",
    }
    _emit(payload)
    return EXIT_OK if rank >= formula else EXIT_FAIL


def _cmd_bounds(args) -> int:
    name = args.name
    if name == "ks-order":
        _need(args, ["n", "alpha", "r"])
        value = bnd.ks_order_lower_bound(args.n, args.alpha, args.r)
        inputs = {"n": args.n, "alpha": args.alpha, "r": args.r}
    elif name == "ks-chromatic":
        _need(args, ["k", "r"])
        value = bnd.ks_chromatic_lower_bound(args.k, args.r)
        inputs = {"k": args.k, "r": args.r}
    elif name == "matching":
        _need(args, ["nu", "edges", "r"])
        value = bnd.matching_cover_lower_bound(args.nu, args.edges, args.r)
        inputs = {"nu": args.nu, "edges": args.edges, "r": args.r}
    else:  # independent-matchings
        _need(args, ["k", "m", "edges", "r"])
        value = bnd.independent_matchings_lower_bound(args.k, args.m, args.edges, args.r)
        inputs = {"k": args.k, "m": args.m, "edges": args.edges, "r": args.r}
    report = BoundReport(name, inputs, float(value), "lower")
    _emit(report.to_dict())
    return EXIT_OK


def _cmd_search(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        h = hypergraph_from_json(fh.read())
    budget = oracles.SearchBudget(
        max_blocks=args.max_blocks, max_seconds=args.max_seconds
    )
    if args.goal == "min-cover":
        if args.list is None:
            raise ValueError("--list is required for min-cover")
        lst = MultiplicityList.parse(args.list)
        outcome = oracles.min_cover_size(h, lst, budget)
        name = "min-cover"
    elif args.goal == "min-partition":
        outcome = oracles.min_partition_size(h, budget)
        name = "min-partition"
    else:
        outcome = oracles.min_sum_of_orders(h, budget)
        name = "min-sum-orders"
    payload = {
        "goal": name,
        "status": "ok" if outcome.is_exact else "unknown",
        "value": outcome.value,
        "lower": outcome.lower,
        "exact": outcome.is_exact,
        "report": BoundReport(
            name, {"n": h.n, "r": h.r, "edges": len(h.edges)},
            float(outcome.value if outcome.is_exact else outcome.lower), "lower",
        ).to_dict(),
    }
    _emit(payload)
    return EXIT_OK if outcome.is_exact else EXIT_UNKNOWN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercover",
        description="Covers, partitions, and rank certificates for r-uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named construction")
    p.add_argument("kind", choices=CONSTRUCT_KINDS)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--hypergraph-out")
    p.add_argument("--cover-out")
    p.add_argument("--table-out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a cover against a hypergraph")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--list", help='"a,b,c", "1..p", or "any"')
    p.add_argument("--partition", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rank", help="adjacency rank certificate for the cube hypergraph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("bounds", help="evaluate a closed-form lower bound")
    p.add_argument("name", choices=("ks-order", "ks-chromatic", "matching",
                                    "independent-matchings"))
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--nu", type=int)
    p.add_argument("--edges", type=int)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="exact brute-force search")
    p.add_argument("goal", choices=("min-cover", "min-partition", "min-sum-orders"))
    p.add_argument("--file", required=True)
    p.add_argument("--list", help='for min-cover: "a,b,c", "1..p", or "any"')
    p.add_argument("--max-blocks", type=int, default=16)
    p.add_argument("--max-seconds", type=float, default=120.0)
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
