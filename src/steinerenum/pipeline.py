"""End-to-end run: preprocessing, construction, traversal, expansion.

The stages compose as: seed selection on the input graph, union
subgraph, lossless simplification of that union, edge ordering,
diagram construction and pruning, top-k traversal, then expansion of
every tree back to original edge indices.  Costs stay exact integers
(scaled units) throughout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .frontier import DEFAULT_NODE_CAP, Bdd, construct_bdd
from .graph import (
    Graph,
    GraphError,
    SimplificationMap,
    SteinerTree,
    expand_tree,
    order_edges,
    simplify,
)
from .seeds import SeedConfig, select_seeds, tosp_tree, union_subgraph
from .traverse import enumerate_trees, reduce_bdd


@dataclass(frozen=True)
class RunConfig:
    """Full parameterization of one enumeration run.

    Exactly one of ``theta`` (absolute, unscaled input units) and
    ``theta_ratio`` applies; leaving both unset means ratio 1.2.  The
    ratio multiplies the cheapest seed tree's cost (a throwaway
    shortest-path tree provides the reference when seeds are disabled).
    ``use_seeds``/``use_simplify`` toggle the two preprocessing stages;
    exact mode is both off.  The run writes the ``k`` cheapest trees
    within theta, or all of them when fewer exist.  ``seed_trees``
    optionally injects externally supplied trees (original edge indices)
    instead of running the heuristic.
    """

    k: int = 1000
    theta: Fraction | float | None = None  # math.inf disables the bound
    theta_ratio: Fraction | None = None
    seeds: SeedConfig = field(default_factory=SeedConfig)
    seed_root: int | None = None
    use_seeds: bool = True
    use_simplify: bool = True
    node_cap: int = DEFAULT_NODE_CAP
    seed_trees: tuple[frozenset[int], ...] | None = None

    def __post_init__(self):
        if self.theta is not None and self.theta_ratio is not None:
            raise ValueError("theta and theta_ratio are mutually exclusive")
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class RunResult:
    trees: tuple[SteinerTree, ...]  # original edge indices, ascending cost
    theta: int | None  # scaled units actually applied (None: unbounded)
    graph_vertices: int
    graph_edges: int
    graph_terminals: int
    pre_vertices: int
    pre_edges: int
    bdd_nodes: int
    bdd_nodes_reduced: int
    peak_entries: int
    truncated: bool
    seed_trees: tuple[SteinerTree, ...]
    seeds_requested: int
    timing_ms: dict[str, float]


def _active_vertex_count(g: Graph) -> int:
    active = {z for u, v, _ in g.edges for z in (u, v)} | set(g.terminals)
    return len(active)


def resolve_theta(
    cfg: RunConfig, g: Graph, reference_cost: int | None
) -> int | None:
    """Scaled integer bound, or None for unbounded.  Absolute theta
    scales by the graph's fixed-point factor; a ratio takes the floor of
    ratio * reference.  A float theta counts as the decimal it prints
    as, so 0.29 means 29/100 rather than the binary value just below.
    A negative bound is rejected."""
    if cfg.theta is not None:
        if cfg.theta == math.inf:
            return None
        theta = cfg.theta
        if isinstance(theta, float):
            theta = Fraction(repr(theta))
        bound = math.floor(theta * g.cost_scale)
    else:
        ratio = cfg.theta_ratio if cfg.theta_ratio is not None else Fraction(6, 5)
        if reference_cost is None:
            raise GraphError("theta_ratio needs a reference tree cost")
        bound = math.floor(ratio * reference_cost)
    if bound < 0:
        raise GraphError("theta must be non-negative")
    return bound


@dataclass(frozen=True)
class Diagram:
    """Everything a run has before traversal: the reduced diagram and the
    constructed diagram's node count, the graph it was built on with the
    maps back to input edge indices, the applied theta and the seed
    trees."""

    nodes: int  # as constructed
    reduced: Bdd
    graph: Graph  # preprocessed
    edge_map: tuple[int, ...]  # preprocessed-graph edge -> input edge
    smap: SimplificationMap | None
    theta: int | None
    seed_trees: tuple[SteinerTree, ...]
    seeds_requested: int
    timing_ms: dict[str, float]


def build_diagram(g: Graph, cfg: RunConfig = RunConfig()) -> Diagram:
    """Preprocess g, then construct and reduce its diagram."""
    if len(g.terminals) < 2:
        raise GraphError("enumeration needs at least two terminals")

    seed_trees: tuple[SteinerTree, ...] = ()
    requested = 0

    if cfg.seed_trees is not None:
        seed_trees = tuple(
            SteinerTree(fs, g.tree_cost(fs)) for fs in cfg.seed_trees
        )
        requested = len(seed_trees)
        union: set[int] = set()
        for t in seed_trees:
            union |= t.edges
        work, edge_map = union_subgraph(g, union)
    elif cfg.use_seeds:
        selection = select_seeds(g, cfg.seeds, cfg.seed_root)
        seed_trees = selection.seed_trees
        requested = selection.requested
        work, edge_map = selection.graph, selection.edge_map
    else:
        work, edge_map = g, tuple(range(len(g.edges)))

    if seed_trees:
        reference = min(t.cost for t in seed_trees)
    elif cfg.theta_ratio is not None or cfg.theta is None:
        reference = tosp_tree(g, cfg.seed_root).cost
    else:
        reference = None
    theta = resolve_theta(cfg, g, reference)

    if cfg.use_simplify:
        simplified, smap = simplify(work)
    else:
        simplified, smap = work, None

    order = order_edges(simplified)

    t0 = time.perf_counter()
    bdd = construct_bdd(simplified, order, theta, node_cap=cfg.node_cap)
    t1 = time.perf_counter()
    reduced = reduce_bdd(bdd)
    t2 = time.perf_counter()
    return Diagram(
        nodes=bdd.node_count,
        reduced=reduced,
        graph=simplified,
        edge_map=edge_map,
        smap=smap,
        theta=theta,
        seed_trees=seed_trees,
        seeds_requested=requested,
        timing_ms={"construct": (t1 - t0) * 1000, "reduce": (t2 - t1) * 1000},
    )


def run(g: Graph, cfg: RunConfig = RunConfig()) -> RunResult:
    """Execute the full pipeline on a parsed graph."""
    d = build_diagram(g, cfg)

    t0 = time.perf_counter()
    result = enumerate_trees(d.reduced, k=cfg.k, theta=d.theta)
    timing = {**d.timing_ms, "traverse": (time.perf_counter() - t0) * 1000}

    trees = []
    for t in result.trees:
        if d.smap is not None:
            t = expand_tree(t, d.smap)
        trees.append(
            SteinerTree(frozenset(d.edge_map[i] for i in t.edges), t.cost)
        )
    trees.sort(key=lambda t: (t.cost, t.sorted_edges()))

    return RunResult(
        trees=tuple(trees),
        theta=d.theta,
        graph_vertices=g.vertex_count,
        graph_edges=len(g.edges),
        graph_terminals=len(g.terminals),
        pre_vertices=_active_vertex_count(d.graph),
        pre_edges=len(d.graph.edges),
        bdd_nodes=d.nodes,
        bdd_nodes_reduced=d.reduced.node_count,
        peak_entries=result.peak_entries,
        truncated=result.truncated,
        seed_trees=d.seed_trees,
        seeds_requested=d.seeds_requested,
        timing_ms=timing,
    )
