"""Command-line surface: construct | verify | rank | bounds | search.

Payloads are UTF-8 JSON on stdout, diagnostics go to stderr. Exit codes:
0 ok, 1 verification/certificate failure, 3 search outcome unknown,
4 invalid parameters, a malformed input file or a size guard. Setting the
HYPERCOVER_GUARD_OVERRIDE environment variable to 1 lifts size guards
(unsafe: memory and time unbounded).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from . import bounds as bnd
from . import gf2, oracles
from .core import (
    GuardError,
    MultiplicityList,
    _complete_from_json,
    cover_from_json,
    cover_to_json,
    hypergraph_from_json,
    hypergraph_json_chunks,
    verify_cover,
)
from .cube import cube_graph, label_partition, label_table, pi_partition, pinto_upper_bound
from .grids import grid3_cover, hex_cover, log_cover, star_partition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 3
EXIT_ERROR = 4


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _need(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for this invocation")


def _report(name: str, inputs: dict, value) -> dict:
    """The `report` object of the bounds and search payloads: a lower bound
    named by its closed form or search goal, with its inputs. ValueError where
    the value does not fit a float."""
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name}: the value does not fit a float") from None
    return {"name": name, "inputs": inputs, "value": value, "direction": "lower"}


def _read_hypergraph(path: str):
    """The host in the file at `path`, read as bytes: a K_n^r document is
    recognised in them and held once. Any other is decoded, and its bytes
    dropped here, before the parse: under Python 3.10 a caller's arguments
    live until the call returns."""
    with open(path, "rb") as fh:
        text = fh.read()
    if (h := _complete_from_json(text)) is None:
        text = text.decode()
        h = hypergraph_from_json(text)
    return h


def _write(path: str | None, render) -> list[str]:
    """Write the strings render() yields to path, if one is given."""
    if path is None:
        return []
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(render())
    return [path]


def _label_partition(args):
    blocks = label_partition(args.r)
    return None, None, {"r": args.r, "blocks": len(blocks), "table": label_table(blocks)}


# kind -> (required options, each an int; builder: args -> (hypergraph, cover,
# payload fields)); a "table" field is also written to --table-out. Builders
# look the constructions up when called, so a wrapper bound in their place is used.
CONSTRUCTIONS = {
    "hex-cover": (("m",), lambda a: (*hex_cover(a.m), {})),
    "grid3-cover": (("m",), lambda a: (*grid3_cover(a.m), {})),
    "star-partition": (("n",), lambda a: (*star_partition(a.n), {})),
    "log-cover": (("n",), lambda a: (*log_cover(a.n), {})),
    "cube-graph": (("r", "m"), lambda a: (cube_graph(a.r, a.m).hypergraph, None, {})),
    "pi-partition": (("r", "m"), lambda a: (
        cube_graph(a.r, a.m).hypergraph, pi_partition(a.r, a.m),
        {"pinto_upper_bound": pinto_upper_bound(a.r, a.m)})),
    "label-partition": (("r",), _label_partition),
}

# name -> (closed form, its options in call order with their types; the options
# are also the payload's inputs)
BOUNDS = {
    "ks-order": (bnd.ks_order_lower_bound, {"n": int, "alpha": float, "r": int}),
    "ks-chromatic": (bnd.ks_chromatic_lower_bound, {"k": int, "r": int}),
    "matching": (bnd.matching_cover_lower_bound, {"nu": int, "edges": int, "r": int}),
    "independent-matchings": (bnd.independent_matchings_lower_bound,
                              {"k": int, "m": int, "edges": int, "r": int}),
}

# goal -> (the options of --list and --max-blocks it takes, the list then being
# required; search: (hypergraph, list or None, budget) -> outcome). Like the
# builders, searches look the oracles up when called.
SEARCHES = {
    "min-cover": (("list", "max_blocks"),
                  lambda h, lst, budget: oracles.min_cover_size(h, lst, budget)),
    "min-partition": (("max_blocks",),
                      lambda h, lst, budget: oracles.min_partition_size(h, budget)),
    "min-sum-orders": ((), lambda h, lst, budget: oracles.min_sum_of_orders(h, budget)),
}


def _cmd_construct(args) -> int:
    options, build = CONSTRUCTIONS[args.kind]
    _need(args, options)
    h, c, payload = build(args)
    payload["kind"] = args.kind
    written: list[str] = []
    if h is not None:
        payload.update({"n": h.n, "r": h.r, "edges": h.edge_count})
        # the host is written chunk by chunk, never joined
        written += _write(args.hypergraph_out,
                          lambda: itertools.chain(hypergraph_json_chunks(h), ("\n",)))
    if c is not None:
        payload["blocks"] = len(c.blocks)
        written += _write(args.cover_out, lambda: (cover_to_json(c), "\n"))
    if "table" in payload:
        written += _write(args.table_out, lambda: (payload["table"],))
    payload["written"] = written
    _emit(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the list first: a bad one is refused before either file is read
    if args.partition:
        lst = MultiplicityList.of(1)
    elif args.list is None:
        raise ValueError("pass --list or --partition")
    else:
        lst = MultiplicityList.parse(args.list)
    h = _read_hypergraph(args.hypergraph)
    with open(args.cover, encoding="utf-8") as fh:
        c = cover_from_json(fh.read())
    result = verify_cover(h, c, lst)
    profile = result.profile
    payload = {
        "status": "ok" if result.ok else "fail",
        "list": lst.describe(),
        "histogram": {str(k): v for k, v in profile.histogram().items()},
        "foreign": profile.foreign,
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
    bound, options = BOUNDS[args.name]
    _need(args, options)
    inputs = {name: getattr(args, name) for name in options}
    _emit(_report(args.name, inputs, bound(*inputs.values())))
    return EXIT_OK


def _cmd_search(args) -> int:
    # the options first: a bad one is refused before the file is read
    takes, search = SEARCHES[args.goal]
    for name in ("list", "max_blocks"):
        if name not in takes and getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {args.goal}")
    lst = None
    if "list" in takes:
        _need(args, ("list",))
        lst = MultiplicityList.parse(args.list)
    blocks = oracles.SearchBudget.max_blocks if args.max_blocks is None else args.max_blocks
    budget = oracles.SearchBudget(max_blocks=blocks, max_seconds=args.max_seconds)
    h = _read_hypergraph(args.file)
    outcome = search(h, lst, budget)
    payload = {
        "goal": args.goal,
        "status": "ok" if outcome.is_exact else "unknown",
        "value": outcome.value,
        "lower": outcome.lower,
        "exact": outcome.is_exact,
        "report": _report(args.goal, {"n": h.n, "r": h.r, "edges": h.edge_count},
                          outcome.lower),
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
    p.add_argument("kind", choices=CONSTRUCTIONS)
    for name in dict.fromkeys(o for options, _ in CONSTRUCTIONS.values() for o in options):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--hypergraph-out")
    p.add_argument("--cover-out")
    p.add_argument("--table-out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a cover against a hypergraph")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--cover", required=True)
    judged = p.add_mutually_exclusive_group()  # neither is a parameter error, exit 4
    judged.add_argument("--list", help='"a,b,c", "1..p", or "any"')
    judged.add_argument("--partition", action="store_true", help="the same as --list 1")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rank", help="adjacency rank certificate for the cube hypergraph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("bounds", help="evaluate a closed-form lower bound")
    p.add_argument("name", choices=BOUNDS)
    for name, kind in {o: t for _, options in BOUNDS.values() for o, t in options.items()}.items():
        p.add_argument(f"--{name}", type=kind)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="exact brute-force search")
    p.add_argument("goal", choices=SEARCHES)
    p.add_argument("--file", required=True)
    p.add_argument("--list", help='for min-cover: "a,b,c", "1..p", or "any"')
    p.add_argument("--max-blocks", type=int, help="not for min-sum-orders")
    p.add_argument("--max-seconds", type=float, default=oracles.SearchBudget.max_seconds)
    p.set_defaults(func=_cmd_search)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
