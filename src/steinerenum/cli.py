"""Command-line front end.

Usage::

    steinerenum stats     --input g.stp
    steinerenum simplify  --input g.stp [--output s.stp] [--map m.json]
    steinerenum seeds     --input g.stp [--seeds N] [--perturb X]
                          [--rng-seed S] [--seed-root R]
    steinerenum build     --input g.stp [--theta T | --theta-ratio R] ...
    steinerenum enumerate --input g.stp [--theta T | --theta-ratio R]
                          [--k K] [--output out.jsonl] [--report r.json]
                          [--no-seeds] [--no-simplify] [--exact] ...
    steinerenum count     --input g.stp [--no-simplify] [--node-cap N]
    steinerenum oracle    --input g.stp [--theta T]

Tree output is JSON lines, one tree per line, ascending cost::

    {"cost": 7, "edges": [[1, 2], [2, 3]]}

Costs are integers in the graph's scaled units (the scale is 1 unless
the input had decimal weights).  ``enumerate`` writes the K cheapest
trees within theta (``--k K``), or all of them when fewer exist.
``build`` takes the same preprocessing flags, stops after reduction,
traverses nothing and writes the reduced diagram.
Summaries go to stderr; data to stdout or --output.  The inputs are
read and the flags checked first, then every output file is opened
before any work: a bad input or flag or an unwritable path exits 3 with
nothing done, and a run that fails after that leaves its outputs empty,
as ``> file`` would.  So ``--output`` may name an input file, but two
outputs may not name one file (exit 2).
Exit codes: 0 ok, 2 usage, 3 bad input or unwritable output, 4 no tree
within theta, 5 node cap exceeded, 6 more trees within theta than
written (those written are exactly the cheapest).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import sys
from fractions import Fraction
from typing import TextIO

from .frontier import DEFAULT_NODE_CAP, NodeCapExceeded
from .graph import Graph, GraphError, SteinerTree, order_edges, parse_stp, simplify, write_stp
from .oracle import OracleError, brute_force_minimal_steiner
from .pipeline import RunConfig, RunResult, build_diagram, resolve_theta, run
from .seeds import SeedConfig, select_seeds
from .traverse import count_trees, validate_tree

EXIT_OK = 0
EXIT_BAD_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_NODE_CAP = 5
EXIT_TRUNCATED = 6


def _tree_line(tree: SteinerTree, g: Graph) -> str:
    pairs = [[g.edges[i][0], g.edges[i][1]] for i in tree.sorted_edges()]
    return json.dumps({"cost": tree.cost, "edges": pairs}, separators=(", ", ": "))


def _emit_trees(trees, g: Graph, out: TextIO):
    out.write("".join(_tree_line(t, g) + "\n" for t in trees))


def _write_report(out: TextIO, res: RunResult):
    report = {
        "graph": {
            "v": res.graph_vertices,
            "e": res.graph_edges,
            "t": res.graph_terminals,
        },
        "preprocessed": {"v": res.pre_vertices, "e": res.pre_edges},
        "bdd": {"nodes": res.bdd_nodes, "nodes_reduced": res.bdd_nodes_reduced},
        "timing_ms": {
            "construct": res.timing_ms["construct"],
            "reduce": res.timing_ms["reduce"],
            "traverse": res.timing_ms["traverse"],
        },
        "trees": {
            "count": len(res.trees),
            "min_cost": res.trees[0].cost if res.trees else None,
            "avg_cost": (
                sum(t.cost for t in res.trees) / len(res.trees)
                if res.trees
                else None
            ),
        },
    }
    json.dump(report, out, indent=2)
    out.write("\n")


def _theta_args(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--theta",
        type=str,
        default=None,
        help="absolute cost bound (number, or 'inf' for unbounded)",
    )
    group.add_argument(
        "--theta-ratio",
        type=str,
        default=None,
        help="bound as a multiple of the cheapest seed tree (default 1.2)",
    )


def _seed_args(p: argparse.ArgumentParser):
    p.add_argument("--seeds", type=int, default=3, help="number of seed trees")
    p.add_argument(
        "--perturb",
        type=float,
        default=0.05,
        help="fraction of edges deleted per perturbed seed run",
    )
    p.add_argument("--rng-seed", type=int, default=0, help="perturbation RNG seed")
    p.add_argument(
        "--seed-root",
        type=str,
        default="min-degree",
        help="root terminal for seed trees: 'min-degree' or a vertex id",
    )


def _fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise GraphError(f"{flag} {text} has a zero denominator") from None
    except ValueError:
        raise GraphError(f"{flag} expects a number, got {text!r}") from None


def _parse_theta(text: str) -> Fraction | float:
    return math.inf if text.lower() == "inf" else _fraction("--theta", text)


def _parse_root(args, g: Graph) -> int | None:
    if args.seed_root == "min-degree":
        return None
    try:
        root = int(args.seed_root)
    except ValueError:
        raise GraphError(f"--seed-root expects 'min-degree' or a vertex id, "
                         f"got {args.seed_root!r}")
    if root not in g.terminals:
        raise GraphError(f"seed root {root} is not a terminal")
    return root


def _seed_config(args, g: Graph) -> RunConfig:
    """The seed flags; ``build`` and ``enumerate`` add theirs to it."""
    return RunConfig(
        seeds=SeedConfig(
            num_seeds=args.seeds,
            perturb_fraction=args.perturb,
            rng_seed=args.rng_seed,
        ),
        seed_root=_parse_root(args, g),
    )


def _run_config(args, g: Graph) -> RunConfig:
    if len(g.terminals) < 2:
        raise GraphError("enumeration needs at least two terminals")
    theta = None if args.theta is None else _parse_theta(args.theta)
    ratio = None if args.theta_ratio is None else _fraction("--theta-ratio", args.theta_ratio)
    seed_trees = _load_seed_file(args.seeds_from_file, g) if args.seeds_from_file else None
    return dataclasses.replace(
        _seed_config(args, g),
        k=getattr(args, "k", 1000),  # build writes no trees
        theta=theta,
        theta_ratio=ratio,
        use_seeds=not (args.exact or args.no_seeds) and seed_trees is None,
        use_simplify=not (args.exact or args.no_simplify),
        node_cap=args.node_cap,
        seed_trees=seed_trees,
    )


def _count_config(args, g: Graph) -> RunConfig:
    return RunConfig(
        theta=math.inf,
        use_seeds=False,
        use_simplify=not args.no_simplify,
        node_cap=args.node_cap,
    )


def _oracle_bound(args, g: Graph) -> int | None:
    if len(g.terminals) < 2:
        raise GraphError("enumeration needs at least two terminals")
    if args.theta is None:
        return None
    return resolve_theta(RunConfig(theta=_parse_theta(args.theta)), g)


def _load_seed_file(path: str, g: Graph) -> tuple[frozenset[int], ...]:
    """Read externally supplied trees: JSONL of {"edges": [[u, v], ...]}.

    Endpoint pairs resolve to the smallest matching edge index; for
    parallel edges supply the intended integer indices via
    {"edge_indices": [...]}.  Every tree must be a minimal Steiner tree
    of ``g``; a malformed record raises GraphError naming its line.
    """
    lookup: dict[tuple[int, int], int] = {}
    for idx, (u, v, _) in enumerate(g.edges):
        key = (min(u, v), max(u, v))
        lookup.setdefault(key, idx)
    trees = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{ln}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraphError(f"{where}: invalid JSON: {exc.msg}") from None
            if not isinstance(rec, dict) or not isinstance(
                rec.get("edge_indices", rec.get("edges")), list
            ):
                raise GraphError(
                    f'{where}: expected an object with an "edges" or '
                    f'"edge_indices" list'
                )
            idxs = []
            if "edge_indices" in rec:
                for i in rec["edge_indices"]:
                    if type(i) is not int:  # not a float, string or bool
                        raise GraphError(
                            f"{where}: edge index {json.dumps(i)} is not an integer"
                        )
                    if not 0 <= i < len(g.edges):
                        raise GraphError(f"{where}: edge index {i} out of range")
                    idxs.append(i)
            else:
                for pair in rec["edges"]:
                    if not (
                        isinstance(pair, list) and len(pair) == 2
                        and all(type(z) is int for z in pair)  # no float or bool
                    ):
                        raise GraphError(
                            f"{where}: edge {json.dumps(pair)} is not a [u, v] pair"
                        )
                    u, v = pair
                    key = (min(u, v), max(u, v))
                    if key not in lookup:
                        raise GraphError(f"{where}: no edge between {u} and {v}")
                    idxs.append(lookup[key])
            tree = frozenset(idxs)
            if not validate_tree(SteinerTree(tree, g.tree_cost(tree)), g):
                raise GraphError(f"{where}: not a minimal Steiner tree")
            trees.append(tree)
    if not trees:
        raise GraphError(f"{path}: no trees found")
    return tuple(trees)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_stats(args, g: Graph, _) -> int:
    order = order_edges(g) if g.terminals else None
    info = {
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "terminals": len(g.terminals),
        "cost_scale": g.cost_scale,
        "min_weight": min((w for _, _, w in g.edges), default=None),
        "max_weight": max((w for _, _, w in g.edges), default=None),
        "frontier_width": order.frontier_width if order else None,
    }
    json.dump(info, args.output, indent=2)
    args.output.write("\n")
    return EXIT_OK


def _cmd_simplify(args, g: Graph, _) -> int:
    simplified, smap = simplify(g)
    args.output.write(write_stp(simplified))
    if args.map:
        json.dump(
            {
                "replacements": [list(c) for c in smap.replacements],
                "removed_loops": list(smap.removed_loops),
            },
            args.map,
            indent=2,
        )
        args.map.write("\n")
    print(
        f"simplify: {len(g.edges)} -> {len(simplified.edges)} edges",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_seeds(args, g: Graph, cfg: RunConfig) -> int:
    selection = select_seeds(g, cfg.seeds, cfg.seed_root)
    _emit_trees(selection.seed_trees, g, args.output)
    print(
        f"seeds: {len(selection.seed_trees)} distinct tree(s) of "
        f"{selection.requested} requested; union has "
        f"{len(selection.edge_map)} edges",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_build(args, g: Graph, cfg: RunConfig) -> int:
    d = build_diagram(g, cfg)
    args.output.write(d.reduced.dump())
    print(
        f"build: {d.nodes} nodes constructed, "
        f"{d.reduced.node_count} after reduction",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_enumerate(args, g: Graph, cfg: RunConfig) -> int:
    res = run(g, cfg)
    _emit_trees(res.trees, g, args.output)
    if args.report:
        _write_report(args.report, res)
    theta_text = "unbounded" if res.theta is None else str(res.theta)
    print(
        f"enumerate: {len(res.trees)} tree(s) within theta={theta_text}; "
        f"bdd nodes {res.bdd_nodes} -> {res.bdd_nodes_reduced}; "
        f"peak entries {res.peak_entries}",
        file=sys.stderr,
    )
    if res.truncated:
        print(
            f"enumerate: more trees within theta={theta_text} than the "
            f"{len(res.trees)} written; those written are the cheapest",
            file=sys.stderr,
        )
        return EXIT_TRUNCATED
    if not res.trees:
        print("enumerate: no tree within the cost bound", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_count(args, g: Graph, cfg: RunConfig) -> int:
    print(count_trees(build_diagram(g, cfg).reduced), file=args.output)
    return EXIT_OK


def _cmd_oracle(args, g: Graph, bound: int | None) -> int:
    trees = brute_force_minimal_steiner(g, bound)
    _emit_trees(trees, g, args.output)
    print(f"oracle: {len(trees)} tree(s)", file=sys.stderr)
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinerenum",
        description="Enumerate minimal Steiner trees within a cost bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, config=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="STP instance file")
        p.set_defaults(fn=fn, config=config)
        return p

    add("stats", _cmd_stats, "print instance statistics as JSON")

    p = add("simplify", _cmd_simplify, "write the simplified instance")
    p.add_argument("--output", default=None)
    p.add_argument("--map", default=None, help="write the expansion map as JSON")

    p = add("seeds", _cmd_seeds, "write seed trees as JSON lines", _seed_config)
    _seed_args(p)
    p.add_argument("--output", default=None)

    for name, fn, help_text in (
        ("build", _cmd_build, "construct, reduce and dump the diagram"),
        ("enumerate", _cmd_enumerate, "enumerate trees as JSON lines"),
    ):
        p = add(name, fn, help_text, _run_config)
        _theta_args(p)
        _seed_args(p)
        p.add_argument("--no-seeds", action="store_true", help="search the full graph")
        p.add_argument("--no-simplify", action="store_true")
        p.add_argument(
            "--exact",
            action="store_true",
            help="disable both preprocessing stages",
        )
        p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
        p.add_argument("--seeds-from-file", default=None, help="JSONL seed trees")
        p.add_argument("--output", default=None)
        if name == "enumerate":
            p.add_argument("--k", type=int, default=1000, help="trees written")
            p.add_argument("--report", default=None, help="write a JSON run report")

    p = add("count", _cmd_count, "print the exact tree count (unbounded)", _count_config)
    p.add_argument("--no-simplify", action="store_true")
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)

    p = add("oracle", _cmd_oracle, "brute-force reference enumeration", _oracle_bound)
    p.add_argument("--theta", type=str, default=None)
    p.add_argument("--output", default=None)

    return parser


def main(argv=None) -> int:
    # The pipeline builds acyclic data, which reference counting frees,
    # so cyclic collection finds next to nothing: even at a generation-0
    # threshold of 10,000, main made 29 generation-0 and 3 generation-1
    # passes, about 0.03 s, on a sparse-seeded benchmark instance (seed
    # 0, instance 0), and they freed only import-time objects.  So the
    # collector is off for the run.  Tests call main in process, so the
    # caller's setting comes back on return.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seeds_from_file", None):
        # both flags promise a search of the whole graph
        for flag, on in (("--exact", args.exact), ("--no-seeds", args.no_seeds)):
            if on:
                parser.error(
                    f"argument --seeds-from-file: not allowed with argument {flag}"
                )
    # two outputs on one file would clobber each other
    outputs: dict[str, str] = {}
    for flag in ("output", "report", "map"):
        path = getattr(args, flag, None)
        if path:
            other = outputs.setdefault(os.path.realpath(path), flag)
            if other != flag:
                parser.error(f"argument --{flag}: names the same file as --{other}")
    try:
        # read every input and check every flag value before opening
        # outputs: an output may overwrite an input, and a bad input must
        # leave existing outputs untouched
        with open(args.input, "r", encoding="utf-8") as fh:
            g = parse_stp(fh.read())
        cfg = args.config(args, g) if args.config else None
        with contextlib.ExitStack() as stack:
            for flag in ("output", "report", "map"):
                path = getattr(args, flag, None)
                if path:
                    setattr(args, flag, stack.enter_context(
                        open(path, "w", encoding="utf-8")))
            args.output = getattr(args, "output", None) or sys.stdout
            return args.fn(args, g, cfg)
    except (GraphError, OracleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NodeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NODE_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
