"""Command-line front end.

Usage::

    steinerenum stats     --input g.stp
    steinerenum simplify  --input g.stp [--output s.stp] [--map m.json]
    steinerenum seeds     --input g.stp [--seeds N] [--perturb X]
                          [--rng-seed S] [--seed-root R]
    steinerenum build     --input g.stp [--theta T | --theta-ratio R] ...
    steinerenum enumerate --input g.stp [--theta T | --theta-ratio R]
                          [--k K] [--output out.jsonl] [--report r.json]
                          [--exact | --seeds-from-file F] ...
    steinerenum count     --input g.stp [--node-cap N]

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
import gc
import math
import os
import sys
from fractions import Fraction
from io import TextIOBase

from .frontier import DEFAULT_NODE_CAP, NodeCapExceeded
from .graph import (Graph, GraphError, SteinerTree, default_root, order_edges, parse_stp,
                    simplify, write_stp)
from .pipeline import DEFAULT_THETA_RATIO, RunConfig, RunResult, build_diagram, run
from .seeds import SeedConfig, select_seeds
from .traverse import count_trees, validate_tree

EXIT_OK = 0
EXIT_BAD_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_NODE_CAP = 5
EXIT_TRUNCATED = 6


def _tree_line(tree: SteinerTree, texts: dict[int, str]) -> str:
    """The tree as one JSON object, ``{"cost": c, "edges": [[u, v], ...]}``
    with edges ascending by index, written out without the json module.
    ``texts`` holds the ``[u, v]`` text of each edge (``_edge_texts``)."""
    pairs = ", ".join(map(texts.__getitem__, tree.sorted_edges()))
    return f'{{"cost": {tree.cost}, "edges": [{pairs}]}}'


def _edge_texts(g: Graph, indices) -> dict[int, str]:
    edges = g.edges
    return {i: f"[{edges[i][0]}, {edges[i][1]}]" for i in indices}


def _emit_trees(trees, g: Graph, out: TextIOBase):
    """Write one line per tree, formatting each edge that the trees use
    once rather than once per tree."""
    texts = _edge_texts(g, set().union(*(t.edges for t in trees)))
    out.write("".join(_tree_line(t, texts) + "\n" for t in trees))


def _write_report(out: TextIOBase, res: RunResult, g: Graph):
    costs = [t.cost for t in res.trees]
    report = {
        "graph": {"v": g.vertex_count, "e": len(g.edges), "t": len(g.terminals)},
        "preprocessed": {"v": res.pre_vertices, "e": res.pre_edges},
        "bdd": {"nodes": res.bdd_nodes, "nodes_reduced": res.bdd_nodes_reduced},
        "timing_ms": res.timing_ms,
        "trees": {
            "count": len(costs),
            "min_cost": costs[0] if costs else None,
            "avg_cost": sum(costs) / len(costs) if costs else None,
        },
    }
    import json  # loaded only where a command writes or reads it
    json.dump(report, out, indent=2)
    out.write("\n")


def _theta_args(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--theta", help="absolute cost bound (number, or 'inf' for unbounded)")
    group.add_argument("--theta-ratio", help="bound as a multiple of the cheapest seed tree "
                       f"(default {float(DEFAULT_THETA_RATIO)})")


def _seed_args(p: argparse.ArgumentParser):
    p.add_argument("--seeds", type=int, default=SeedConfig.num_seeds,
                   help="number of seed trees")
    p.add_argument(
        "--perturb",
        type=float,
        default=SeedConfig.perturb_fraction,
        help="fraction of edges deleted per perturbed seed run",
    )
    p.add_argument("--rng-seed", type=int, default=SeedConfig.rng_seed,
                   help="perturbation RNG seed")
    p.add_argument("--seed-root", default="min-degree",
                   help="root terminal for seed trees: 'min-degree' or a vertex id")


def _fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise GraphError(f"{flag} {text} has a zero denominator") from None
    except ValueError:
        raise GraphError(f"{flag} expects a number, got {text!r}") from None


def _parse_theta(text: str) -> Fraction | float:
    return math.inf if text.lower() == "inf" else _fraction("--theta", text)


def _parse_root(args, g: Graph) -> int:
    if args.seed_root == "min-degree":
        return default_root(g)  # raises on a graph without terminals
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
    cfg = _seed_config(args, g)
    return cfg._replace(
        k=getattr(args, "k", RunConfig.k),  # build writes no trees
        theta=theta,
        theta_ratio=ratio,
        seeds=None if args.exact else seed_trees or cfg.seeds,
        node_cap=args.node_cap,
    )


def _count_config(args, g: Graph) -> RunConfig:
    return RunConfig(theta=math.inf, seeds=None, node_cap=args.node_cap)


def _load_seed_file(path: str, g: Graph) -> tuple[frozenset[int], ...]:
    """Read externally supplied trees: JSONL of {"edges": [[u, v], ...]}.

    An endpoint pair means the cheapest edge between its ends, ties to
    the smallest index, as a shortest-path search takes it; name any
    other parallel edge by integer index via {"edge_indices": [...]}.
    Every tree must be a minimal Steiner tree of ``g``; a malformed
    record raises GraphError naming its line.
    """
    import json
    lookup: dict[tuple[int, int], tuple[int, int]] = {}  # ends -> (weight, index)
    for idx, (u, v, w) in enumerate(g.edges):
        key = (min(u, v), max(u, v))
        lookup[key] = min(lookup.get(key, (w, idx)), (w, idx))
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
                    idxs.append(lookup[key][1])
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
    import json
    json.dump(info, args.output, indent=2)
    args.output.write("\n")
    return EXIT_OK


def _cmd_simplify(args, g: Graph, _) -> int:
    simplified, smap = simplify(g)
    args.output.write(write_stp(simplified))
    if args.map:
        import json
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
        f"{cfg.seeds.num_seeds} requested; union has "
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
        _write_report(args.report, res, g)
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
    p.add_argument("--output")
    p.add_argument("--map", help="write the expansion map as JSON")

    p = add("seeds", _cmd_seeds, "write seed trees as JSON lines", _seed_config)
    _seed_args(p)
    p.add_argument("--output")

    for name, fn, help_text in (
        ("build", _cmd_build, "construct, reduce and dump the diagram"),
        ("enumerate", _cmd_enumerate, "enumerate trees as JSON lines"),
    ):
        p = add(name, fn, help_text, _run_config)
        _theta_args(p)
        _seed_args(p)
        # both name the searched graph
        searched = p.add_mutually_exclusive_group()
        searched.add_argument("--exact", action="store_true",
                              help="search the whole graph")
        searched.add_argument("--seeds-from-file", help="JSONL seed trees")
        p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
        p.add_argument("--output")
        if name == "enumerate":
            p.add_argument("--k", type=int, default=RunConfig.k, help="trees written")
            p.add_argument("--report", help="write a JSON run report")

    p = add("count", _cmd_count, "print the exact tree count (unbounded)", _count_config)
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)

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
    except ValueError as exc:  # GraphError among them
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
