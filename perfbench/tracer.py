"""Run `steinerenum` CLI arguments in-process with every stage call timed.

Usage::

    python3 perfbench/tracer.py SPANS.json enumerate --input g.stp --output out.jsonl

The public functions are wrapped where ``cli`` and ``pipeline`` look them
up, so the package itself is untouched.  Each call becomes a span with
its parent; calls made once per tree are summed per (name, parent)
instead.  Counters are read off the returned objects, and the peak RSS is
sampled after preprocessing, construction and enumeration.  The original
functions are restored before the spans are written, and the process
exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import steinerenum.cli as cli
import steinerenum.pipeline as pipeline

# (module, attribute looked up at call time) -> span name "<layer>.<stage>"
WRAPPED = (
    (cli, "parse_stp", "graph.parse"),
    (cli, "run", "pipeline.run"),
    (cli, "_emit_trees", "cli.emit"),
    (pipeline, "select_seeds", "seeds.select"),
    (pipeline, "union_subgraph", "seeds.union"),
    (pipeline, "tosp_tree", "seeds.tosp"),
    (pipeline, "simplify", "graph.simplify"),
    (pipeline, "order_edges", "graph.order"),
    (pipeline, "construct_bdd", "frontier.construct"),
    (pipeline, "reduce_bdd", "traverse.reduce"),
    (pipeline, "count_trees", "traverse.count"),
    (pipeline, "enumerate_trees", "traverse.enumerate"),
    (pipeline, "expand_tree", "graph.expand"),
)
AGGREGATED = {"graph.expand"}  # called once per tree
# peak RSS is sampled when these stages return
MEMORY_MARKS = {"graph.order": "preprocess", "frontier.construct": "construct",
                "traverse.enumerate": "enumerate"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.results: dict[str, object] = {}  # kept for counting after the run

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            if name in AGGREGATED:
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                agg = self.aggregates.setdefault((name, parent), [0, 0.0])
                agg[0] += 1
                agg[1] += time.perf_counter() - t0
                return out
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "start": time.perf_counter()}
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if name in MEMORY_MARKS:
                self.counters[f"mem.peak_after_{MEMORY_MARKS[name]}_mb"] = peak_rss_mb()
            self.results.setdefault(name, (args, kwargs, out))
            return out
        return traced

    def count(self):
        """Read the layer counters off the recorded stage results."""
        c = self.counters
        r = self.results
        if "graph.parse" in r:
            c["graph.edges"] = len(r["graph.parse"][2].edges)
        if "seeds.select" in r:
            sel = r["seeds.select"][2]
            c["seeds.distinct"] = len(sel.seed_trees)
            c["seeds.union_edges"] = len(sel.edge_map)
        if "graph.simplify" in r:
            args, _, (simplified, _) = r["graph.simplify"]
            c["graph.simplify_edges_in"] = len(args[0].edges)
            c["graph.simplify_edges_out"] = len(simplified.edges)
        if "graph.order" in r:
            c["graph.frontier_width"] = r["graph.order"][2].frontier_width
        if "frontier.construct" in r:
            bdd = r["frontier.construct"][2]
            arcs = bdd.lo[2:] + bdd.hi[2:]
            c["frontier.nodes"] = bdd.node_count
            c["frontier.max_layer"] = max(bdd.layer_sizes(), default=0)
            c["frontier.arcs_zero"] = arcs.count(0)
            c["frontier.arcs_one"] = arcs.count(1)
            # every real node but the root has one first incoming arc;
            # each further arc into a real node is a merge hit
            real_arcs = len(arcs) - c["frontier.arcs_zero"] - c["frontier.arcs_one"]
            c["frontier.merge_hits"] = real_arcs - (bdd.node_count - 1)
        if "traverse.reduce" in r:
            c["traverse.nodes_reduced"] = r["traverse.reduce"][2].node_count
        if "traverse.enumerate" in r:
            _, kwargs, res = r["traverse.enumerate"]
            c["traverse.peak_entries"] = res.peak_entries
            c["traverse.sink_arrivals"] = res.sink_arrivals
            c["traverse.k"] = kwargs["k"]

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [{"name": n, "parent": p, "calls": a[0], "total_s": a[1]}
                           for (n, p), a in self.aggregates.items()],
            "counters": self.counters,
        }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    # a stage function the program no longer has goes untimed, and is
    # listed, rather than failing the run
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED
                 if hasattr(mod, attr)]
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in WRAPPED
               if not hasattr(mod, attr)]
    for mod, attr, name in WRAPPED:
        if hasattr(mod, attr):
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
    try:
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
    tracer.count()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
