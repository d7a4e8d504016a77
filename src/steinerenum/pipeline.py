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
from .traverse import enumerate_trees, reduce_bdd, validate_tree


@dataclass(frozen=True)
class RunConfig:
    """Full parameterization of one enumeration run.

    Exactly one of ``theta`` (absolute, unscaled input units) and
    ``theta_ratio`` applies, and neither may be negative; leaving both
    unset means ratio 1.2.  The
    ratio multiplies the cheapest seed tree's cost; without seeds the
    reference is one shortest-path tree from ``seed_root``.
    ``use_seeds``/``use_simplify`` toggle the two preprocessing stages;
    exact mode is both off.  The run writes the ``k`` cheapest trees
    within theta, or all of them when fewer exist.  ``seed_trees``
    optionally injects externally supplied trees (original edge indices)
    instead of running the heuristic; each must be a minimal Steiner
    tree of the input graph.
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
        if self.node_cap < 1:
            raise ValueError("node_cap must be at least 1")
        if self.theta is not None and self.theta < 0:
            raise GraphError("theta must be non-negative")
        if self.theta_ratio is not None and self.theta_ratio < 0:
            raise GraphError("theta_ratio must be non-negative")


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
    timing_ms: dict[str, float]


def _active_vertex_count(g: Graph) -> int:
    active = {z for u, v, _ in g.edges for z in (u, v)} | set(g.terminals)
    return len(active)


def resolve_theta(
    cfg: RunConfig, g: Graph, reference_cost: int | None = None
) -> int | None:
    """Scaled integer bound, or None for unbounded.  Absolute theta
    scales by the graph's fixed-point factor; a ratio takes the floor of
    ratio * reference, where the reference is ``reference_cost`` or, when
    that is None, the cost of one shortest-path tree from
    ``cfg.seed_root``.  A float theta counts as the decimal it prints as,
    so 0.29 means 29/100 rather than the binary value just below."""
    if cfg.theta is not None:
        if cfg.theta == math.inf:
            return None
        theta = cfg.theta
        if isinstance(theta, float):
            theta = Fraction(repr(theta))
        return math.floor(theta * g.cost_scale)
    ratio = cfg.theta_ratio if cfg.theta_ratio is not None else Fraction(6, 5)
    if reference_cost is None:
        reference_cost = tosp_tree(g, cfg.seed_root).cost
    return math.floor(ratio * reference_cost)


@dataclass(frozen=True)
class Diagram:
    """Everything a run has before traversal: the reduced diagram and the
    constructed diagram's node count, the graph it was built on, the map
    from that graph's edges back to input edge indices and the applied
    theta."""

    nodes: int  # as constructed
    reduced: Bdd
    graph: Graph  # preprocessed; a seed union is renumbered by _compact
    smap: SimplificationMap  # preprocessed-graph edge -> input edges
    theta: int | None
    timing_ms: dict[str, float]


def _compact(g: Graph) -> Graph:
    """g on its terminals and edge endpoints, renumbered 1..n in
    ascending id.  The renumbering is monotone, so every order and tie
    that compares vertex ids comes out the same, and edge indices do not
    change."""
    used = sorted({z for u, v, _ in g.edges for z in (u, v)}.union(g.terminals))
    new = {v: i for i, v in enumerate(used, 1)}
    return Graph(
        vertex_count=len(used),
        edges=tuple((new[u], new[v], w) for u, v, w in g.edges),
        terminals=frozenset(new[t] for t in g.terminals),
        cost_scale=g.cost_scale,
    )


def build_diagram(g: Graph, cfg: RunConfig = RunConfig()) -> Diagram:
    """Preprocess g, then construct and reduce its diagram."""
    if len(g.terminals) < 2:
        raise GraphError("enumeration needs at least two terminals")

    if cfg.seed_trees is not None:
        for i, fs in enumerate(cfg.seed_trees):  # checked before costing
            try:
                valid = validate_tree(SteinerTree(fs, 0), g)
            except GraphError as exc:  # an edge index out of range
                raise GraphError(f"seed tree {i}: {exc}") from None
            if not valid:
                raise GraphError(f"seed tree {i}: not a minimal Steiner tree")
        seed_trees = tuple(SteinerTree(fs, g.tree_cost(fs)) for fs in cfg.seed_trees)
        work, edge_map = union_subgraph(g, frozenset().union(*cfg.seed_trees))
    elif cfg.use_seeds:
        selection = select_seeds(g, cfg.seeds, cfg.seed_root)
        seed_trees, work, edge_map = (
            selection.seed_trees, selection.graph, selection.edge_map
        )
    else:
        seed_trees, work, edge_map = (), g, tuple(range(len(g.edges)))
    if seed_trees:
        work = _compact(work)
    theta = resolve_theta(cfg, g, min((t.cost for t in seed_trees), default=None))

    if cfg.use_simplify:
        simplified, smap = simplify(work)
        smap = SimplificationMap(
            tuple(tuple(edge_map[i] for i in c) for c in smap.replacements),
            tuple(edge_map[i] for i in smap.removed_loops),
        )
    else:
        simplified, smap = work, SimplificationMap(tuple((i,) for i in edge_map), ())

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
        smap=smap,
        theta=theta,
        timing_ms={"construct": (t1 - t0) * 1000, "reduce": (t2 - t1) * 1000},
    )


def run(g: Graph, cfg: RunConfig = RunConfig()) -> RunResult:
    """Execute the full pipeline on a parsed graph.

    Trees come out in ``(cost, sorted_edges)`` order: ``enumerate_trees``
    returns them so, and mapping back keeps it because the map lists the
    preprocessed edges by the smallest input edge of each one's chain."""
    d = build_diagram(g, cfg)

    t0 = time.perf_counter()
    result = enumerate_trees(d.reduced, k=cfg.k, theta=d.theta)
    timing = {**d.timing_ms, "traverse": (time.perf_counter() - t0) * 1000}

    return RunResult(
        trees=tuple(expand_tree(t, d.smap) for t in result.trees),
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
        timing_ms=timing,
    )
