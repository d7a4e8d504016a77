"""Seed-tree selection: cheap feasible trees that induce the search subgraph.

One tree comes from a shortest-path heuristic on the intact graph; the
rest come from rerunning it on randomly thinned copies.  The union of
the seed trees' edges is the subgraph handed to the exact enumeration,
so diversity among seeds widens the searched neighborhood while keeping
it far smaller than the full instance.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from .graph import Graph, GraphError, SteinerTree, default_root


@dataclass(frozen=True)
class SeedConfig:
    """Knobs for seed selection.

    num_seeds counts trees including the unperturbed one.  Each
    perturbed run deletes ceil(perturb_fraction * |E|) random edges,
    resampling (up to max_retries) whenever a sample disconnects any
    terminal pair.  The same rng_seed reproduces the selection exactly;
    streams are split per seed index, so runs are order-independent.
    """

    num_seeds: int = 3
    perturb_fraction: float = 0.05
    rng_seed: int = 0
    max_retries: int = 50

    def __post_init__(self):
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be at least 1")
        if not 0 <= self.perturb_fraction < 1:
            raise ValueError("perturb_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class SeedSelection:
    """Chosen seed trees plus the union subgraph they induce.

    ``graph`` keeps the parent's vertex numbering; ``edge_map[j]`` is the
    parent edge index behind subgraph edge j.  ``seed_trees`` use parent
    edge indices and are deduplicated.  ``requested`` records how many
    seeds were asked for (perturbation can fail to deliver them all).
    """

    graph: Graph
    edge_map: tuple[int, ...]
    seed_trees: tuple[SteinerTree, ...]
    requested: int


class UnreachableTerminal(GraphError):
    """A terminal cannot be reached from the seed root."""


def _dijkstra(g: Graph, root: int, banned: frozenset[int]):
    """Single-source shortest paths ignoring banned edges.

    Tie-breaking is fixed: equal-distance relaxations prefer the
    lexicographically smallest (predecessor vertex, edge index), and the
    heap pops equal distances by vertex id, so the predecessor structure
    is reproducible bit for bit.
    """
    inf = math.inf
    edges, adjacency = g.edges, g.adjacency
    heappop, heappush = heapq.heappop, heapq.heappush
    dist: list[float] = [inf] * (g.vertex_count + 1)
    pred_edge: list[int] = [-1] * (g.vertex_count + 1)
    pred_vertex: list[int] = [0] * (g.vertex_count + 1)
    dist[root] = 0
    done = [False] * (g.vertex_count + 1)
    heap: list[tuple[float, int]] = [(0, root)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for idx in adjacency[u]:
            if idx in banned:
                continue
            a, b, cost = edges[idx]
            w = b if a == u else a
            if done[w]:
                continue
            nd = d + cost
            if nd < dist[w]:
                dist[w] = nd
                pred_vertex[w] = u
                pred_edge[w] = idx
                heappush(heap, (nd, w))
            elif nd == dist[w] and (u, idx) < (pred_vertex[w], pred_edge[w]):
                pred_vertex[w] = u
                pred_edge[w] = idx
    return dist, pred_edge, pred_vertex


def tosp_tree(
    g: Graph, root: int | None = None, banned: frozenset[int] = frozenset()
) -> SteinerTree:
    """Tree-of-shortest-paths heuristic.

    Union of the shortest root-to-terminal paths out of one predecessor
    structure.  Paths out of one predecessor tree form a tree whose
    leaves are the root or path ends, all of them terminals, so the
    result is already a minimal Steiner tree.
    """
    if root is None:
        root = default_root(g)
    elif root not in g.terminals:
        raise GraphError(f"seed root {root} is not a terminal")
    dist, pred_edge, _ = _dijkstra(g, root, banned)
    chosen: set[int] = set()
    for t in sorted(g.terminals):
        if dist[t] == math.inf:
            raise UnreachableTerminal(f"terminal {t} unreachable from root {root}")
        v = t
        while v != root:
            idx = pred_edge[v]
            chosen.add(idx)
            v = g.other_end(idx, v)
    return SteinerTree(frozenset(chosen), g.tree_cost(chosen))


def union_subgraph(g: Graph, edge_indices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph of g with exactly the given edges, original vertex ids."""
    edge_map = tuple(sorted(set(edge_indices)))
    sub = Graph(
        vertex_count=g.vertex_count,
        edges=tuple(g.edges[i] for i in edge_map),
        terminals=g.terminals,
        cost_scale=g.cost_scale,
    )
    return sub, edge_map


def select_seeds(
    g: Graph, cfg: SeedConfig = SeedConfig(), root: int | None = None
) -> SeedSelection:
    """Run the heuristic num_seeds times (first intact, rest perturbed)
    and return the distinct trees plus the union subgraph they induce.

    A perturbed attempt whose sample leaves a terminal unreachable from
    the root is drawn again; the shortest-path search that finds this is
    the one the tree is built from.
    """
    trees: list[SteinerTree] = [tosp_tree(g, root)]
    m = len(g.edges)
    delete_count = math.ceil(cfg.perturb_fraction * m)
    for seed_index in range(1, cfg.num_seeds):
        if delete_count == 0:
            break  # perturbed runs would all repeat the first tree
        rng = random.Random(f"{cfg.rng_seed}:{seed_index}")
        for _ in range(cfg.max_retries):
            banned = frozenset(rng.sample(range(m), min(delete_count, m)))
            try:
                trees.append(tosp_tree(g, root, banned))
            except UnreachableTerminal:
                continue
            break
        # retries exhausted: this seed is skipped; callers see fewer trees

    distinct: list[SteinerTree] = []
    seen: set[frozenset[int]] = set()
    for t in trees:
        if t.edges not in seen:
            seen.add(t.edges)
            distinct.append(t)
    union: set[int] = set()
    for t in distinct:
        union |= t.edges
    sub, edge_map = union_subgraph(g, union)
    return SeedSelection(sub, edge_map, tuple(distinct), cfg.num_seeds)
