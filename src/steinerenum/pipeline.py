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
from fractions import Fraction

from .frontier import DEFAULT_NODE_CAP, Bdd, construct_bdd
from .graph import (
    Graph,
    GraphError,
    Record,
    SimplificationMap,
    SteinerTree,
    check_int,
    check_number,
    expand_tree,
    order_edges,
    simplify,
)
from .seeds import SeedConfig, select_seeds, tosp_tree, union_subgraph
from .traverse import enumerate_trees, reduce_bdd, validate_tree

DEFAULT_THETA_RATIO = Fraction(6, 5)  # when neither theta nor theta_ratio is set


class RunConfig(Record):
    """Full parameterization of one enumeration run.

    Exactly one of ``theta`` (absolute, unscaled input units) and
    ``theta_ratio`` applies, and neither may be negative; leaving both
    unset means ratio 1.2.  The ratio multiplies the cheapest seed
    tree's cost; without seeds the reference is one shortest-path tree
    from ``seed_root``.  A float theta or ratio counts as the decimal it
    prints as, and an infinite one sets no bound.
    ``seeds`` picks the searched graph: a ``SeedConfig`` runs the seed
    heuristic and searches the union of its trees; a tuple of trees
    (input edge indices, at least one, each a minimal Steiner tree of
    the input graph) searches their union as given; None searches the
    whole graph, which is exact mode.  The run writes the ``k`` cheapest
    trees within theta, or all of them when fewer exist.
    """

    k: int = 1000
    theta: Fraction | float | None = None
    theta_ratio: Fraction | float | None = None
    seeds: SeedConfig | tuple[frozenset[int], ...] | None = SeedConfig()
    seed_root: int | None = None
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        if self.theta is not None and self.theta_ratio is not None:
            raise ValueError("theta and theta_ratio are mutually exclusive")
        check_int("k", self.k)
        check_int("node_cap", self.node_cap)
        if self.seed_root is not None:
            check_int("seed_root", self.seed_root, None)
        for name in ("theta", "theta_ratio"):
            value = getattr(self, name)
            if value is not None and not check_number(name, value) >= 0:  # nan too
                raise GraphError(f"{name} must be non-negative")
        if self.seeds is not None and not self.seeds:
            raise GraphError("seeds holds no tree")


class RunResult(Record):
    trees: tuple[SteinerTree, ...]  # original edge indices, ascending cost
    theta: int | None  # scaled units actually applied (None: unbounded)
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
    """Scaled integer bound, or None when the bound is infinite.
    Absolute theta scales by the graph's fixed-point factor; a ratio
    takes the floor of ratio * reference, where the reference is
    ``reference_cost`` or, when that is None, the cost of one
    shortest-path tree from ``cfg.seed_root``.  A float counts as the
    decimal it prints as: 0.29 means 29/100, not the binary value below."""
    bound = cfg.theta if cfg.theta is not None else cfg.theta_ratio
    if bound == math.inf:
        return None
    if isinstance(bound, float):
        bound = Fraction(repr(bound))
    if cfg.theta is not None:
        return math.floor(bound * g.cost_scale)
    if reference_cost is None:
        reference_cost = tosp_tree(g, cfg.seed_root).cost
    if bound is None:
        bound = DEFAULT_THETA_RATIO
    return math.floor(bound * reference_cost)


class Diagram(Record):
    """Everything a run has before traversal: the reduced diagram and the
    constructed diagram's node count, the graph it was built on, the map
    from that graph's edges back to input edge indices and the applied
    theta."""

    nodes: int  # as constructed
    reduced: Bdd
    graph: Graph  # preprocessed; a seed union is renumbered by union_subgraph
    smap: SimplificationMap  # preprocessed-graph edge -> input edges
    theta: int | None
    timing_ms: dict[str, float]


def build_diagram(g: Graph, cfg: RunConfig = RunConfig()) -> Diagram:
    """Preprocess g, then construct and reduce its diagram."""
    if len(g.terminals) < 2:
        raise GraphError("enumeration needs at least two terminals")

    if isinstance(cfg.seeds, SeedConfig):
        seed_trees = select_seeds(g, cfg.seeds, cfg.seed_root).seed_trees
    elif cfg.seeds is not None:
        for i, fs in enumerate(cfg.seeds):  # checked before costing
            try:
                valid = validate_tree(SteinerTree(fs, 0), g)
            except GraphError as exc:  # an edge index out of range or not an int
                raise GraphError(f"seed tree {i}: {exc}") from None
            if not valid:
                raise GraphError(f"seed tree {i}: not a minimal Steiner tree")
        seed_trees = tuple(SteinerTree(fs, g.tree_cost(fs)) for fs in cfg.seeds)
    else:
        seed_trees = ()
    if seed_trees:
        work, edge_map = union_subgraph(g, set().union(*(t.edges for t in seed_trees)))
    else:
        work, edge_map = g, range(len(g.edges))
    theta = resolve_theta(cfg, g, min((t.cost for t in seed_trees), default=None))

    simplified, smap = simplify(work)
    smap = SimplificationMap(
        tuple(tuple(edge_map[i] for i in c) for c in smap.replacements),
        tuple(edge_map[i] for i in smap.removed_loops),
    )

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

    trees = result.trees
    # one disjoint chain per input edge, listed by smallest index: the identity
    if len(d.smap.replacements) != len(g.edges):
        trees = tuple(expand_tree(t, d.smap) for t in trees)
    return RunResult(
        trees=trees,
        theta=d.theta,
        pre_vertices=_active_vertex_count(d.graph),
        pre_edges=len(d.graph.edges),
        bdd_nodes=d.nodes,
        bdd_nodes_reduced=d.reduced.node_count,
        peak_entries=result.peak_entries,
        truncated=result.truncated,
        timing_ms=timing,
    )
