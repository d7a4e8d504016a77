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

from .graph import Graph, GraphError, Record, SteinerTree, default_root

MAX_RETRIES = 50  # samples drawn per perturbed seed before it is skipped


class SeedConfig(Record):
    """Knobs for seed selection.

    num_seeds counts trees including the unperturbed one.  Each
    perturbed run deletes ceil(perturb_fraction * |E|) random edges,
    resampling (up to MAX_RETRIES) whenever a sample disconnects any
    terminal pair.  The same rng_seed reproduces the selection exactly;
    streams are split per seed index, so runs are order-independent.
    """

    num_seeds: int = 3
    perturb_fraction: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("num_seeds", "rng_seed"):
            value = getattr(self, name)  # a bool is an int to isinstance
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer")
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be at least 1")
        if not 0 <= self.perturb_fraction < 1:
            raise ValueError("perturb_fraction must lie in [0, 1)")


class SeedSelection(Record):
    """Chosen seed trees and the input edges they cover.

    ``seed_trees`` use input edge indices and are deduplicated;
    ``edge_map`` lists their union's edges in ascending order, as
    ``union_subgraph`` numbers the search graph's edges.
    """

    edge_map: tuple[int, ...]
    seed_trees: tuple[SteinerTree, ...]


class UnreachableTerminal(GraphError):
    """A terminal cannot be reached from the seed root."""


def _stop_arcs(g: Graph):
    """The seed searches' graph: stops joined by chains, each walked once.

    A vertex is pass-through when it is not a terminal and has exactly
    two edges, both of positive weight.  Every other vertex is a stop.
    The two edges are distinct and neither is a self-loop on any vertex
    a search reaches: a loop fills both places in its vertex's
    adjacency, and that vertex, having no other edge, is cut off from
    the terminals.  A chain runs from a stop through pass-through
    vertices to the next stop; an edge between two stops is a chain.

    Returns ``(through, arcs, chain_of)``: the pass-through flags;
    ``arcs[u]``, for a stop u, lists each chain leaving u as ``(stop
    reached, summed cost, vertex before it, edge into it, chain id)``;
    and ``chain_of[e]``, the id of edge e's chain.
    """
    edges, adjacency, terminals = g.edges, g.adjacency, g.terminals
    through = bytearray(len(adjacency))
    for v, adj in enumerate(adjacency):
        if len(adj) == 2 and v not in terminals:
            if edges[adj[0]][2] > 0 and edges[adj[1]][2] > 0:
                through[v] = 1
    arcs: list[list | None] = [None if t else [] for t in through]
    chain_of = [-1] * len(edges)
    for u, adj in enumerate(adjacency):
        if through[u]:
            continue
        for first in adj:
            if chain_of[first] >= 0:  # walked from its other end
                continue
            chain_of[first] = first
            a, b, cost = edges[first]
            w = near = b if a == u else a
            v, idx = u, first
            while through[w]:
                v = w
                e1, e2 = adjacency[v]
                idx = e2 if e1 == idx else e1
                chain_of[idx] = first
                a, b, c = edges[idx]
                w = b if a == v else a
                cost += c
            arcs[u].append((w, cost, v, idx, first))
            arcs[w].append((u, cost, near, first, first))
    return through, arcs, chain_of


def _dijkstra(arcs: list, root: int, cut):
    """Single-source shortest paths over the stop arcs of ``_stop_arcs``,
    skipping the chains in cut.

    Tie-breaking is fixed: equal-distance relaxations prefer the
    lexicographically smallest (predecessor vertex, edge index), and the
    heap pops equal distances by vertex id, so the predecessor structure
    is reproducible bit for bit.

    Only stops enter the heap.  An arc relaxes the stop it reaches with
    the chain's summed cost under the key (vertex before that stop, edge
    into it), so chain vertices get no distance or predecessor of their
    own, and a banned edge cuts its whole chain.  The stops' results
    equal a search that visits every vertex: with positive weights, a
    chain vertex on a shortest path to the far stop has exactly one
    tight neighbour, the one before it, so the far stop sees the same
    candidates and ties.  A zero-weight edge can give a vertex two tight
    neighbours, so its ends stay stops.
    """
    inf = math.inf
    heappop, heappush = heapq.heappop, heapq.heappush
    dist: list[float] = [inf] * len(arcs)
    pred_edge: list[int] = [-1] * len(arcs)
    pred_vertex: list[int] = [0] * len(arcs)
    dist[root] = 0
    done = bytearray(len(arcs))
    heap: list[tuple[float, int]] = [(0, root)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = 1
        for w, cost, v, idx, chain in arcs[u]:
            if done[w] or chain in cut:
                continue
            nd = d + cost
            if nd < dist[w]:
                dist[w] = nd
                pred_vertex[w] = v
                pred_edge[w] = idx
                heappush(heap, (nd, w))
            elif nd == dist[w] and (v, idx) < (pred_vertex[w], pred_edge[w]):
                pred_vertex[w] = v
                pred_edge[w] = idx
    return dist, pred_edge, pred_vertex


def tosp_tree(
    g: Graph,
    root: int | None = None,
    banned: frozenset[int] = frozenset(),
    stops=None,
) -> SteinerTree:
    """Tree-of-shortest-paths heuristic.

    Union of the shortest root-to-terminal paths out of one predecessor
    structure.  Paths out of one predecessor tree form a tree whose
    leaves are the root or path ends, all of them terminals, so the
    result is already a minimal Steiner tree.

    The search runs over chains of pass-through vertices (see
    ``_dijkstra``); a path is walked back through such a vertex by its
    other edge.  ``stops`` is ``_stop_arcs(g)``, passed in by callers
    that search one graph many times; without it each call builds its
    own.
    """
    if root is None:
        root = default_root(g)
    elif isinstance(root, bool) or not isinstance(root, int) or root not in g.terminals:
        raise GraphError(f"seed root {root} is not a terminal")
    through, arcs, chain_of = stops or _stop_arcs(g)
    dist, pred_edge, _ = _dijkstra(arcs, root, {chain_of[e] for e in banned})
    adjacency = g.adjacency
    chosen: set[int] = set()
    for t in sorted(g.terminals):
        if dist[t] == math.inf:
            raise UnreachableTerminal(f"terminal {t} unreachable from root {root}")
        v, idx = t, pred_edge[t]
        while v != root:
            chosen.add(idx)
            v = g.other_end(idx, v)
            if through[v]:
                e1, e2 = adjacency[v]
                idx = e2 if e1 == idx else e1
            else:
                idx = pred_edge[v]
    return SteinerTree(frozenset(chosen), g.tree_cost(chosen))


def union_subgraph(g: Graph, edge_indices) -> tuple[Graph, tuple[int, ...]]:
    """The search graph on the given edges of g, and its map back.

    Its vertices are the edges' endpoints and g's terminals, renumbered
    1..n in ascending id.  The renumbering is monotone, so every order
    and tie that compares vertex ids comes out as on g.  Subgraph edge j
    is input edge ``edge_map[j]``, listed in ascending order.
    """
    indices = set(edge_indices)
    for i in indices:  # checked before sorting, which a str would fail
        if isinstance(i, bool) or not isinstance(i, int):  # a bool is an int
            raise GraphError(f"edge index {i!r} is not an integer")
    edge_map = tuple(sorted(indices))
    for i in edge_map[:1] + edge_map[-1:]:  # ascending: its ends bound the rest
        if not 0 <= i < len(g.edges):
            raise GraphError(f"edge index {i} out of range")
    edges = [g.edges[i] for i in edge_map]
    used = sorted({z for u, v, _ in edges for z in (u, v)}.union(g.terminals))
    new = {v: i for i, v in enumerate(used, 1)}
    sub = Graph(
        vertex_count=len(used),
        edges=tuple((new[u], new[v], w) for u, v, w in edges),
        terminals=frozenset(new[t] for t in g.terminals),
        cost_scale=g.cost_scale,
    )
    return sub, edge_map


def select_seeds(
    g: Graph, cfg: SeedConfig = SeedConfig(), root: int | None = None
) -> SeedSelection:
    """Run the heuristic num_seeds times (first intact, rest perturbed)
    and return the distinct trees and the edges of their union.

    A perturbed attempt whose sample leaves a terminal unreachable from
    the root is drawn again; the shortest-path search that finds this is
    the one the tree is built from.
    """
    stops = _stop_arcs(g)
    trees: list[SteinerTree] = [tosp_tree(g, root, stops=stops)]
    m = len(g.edges)
    delete_count = math.ceil(cfg.perturb_fraction * m)
    for seed_index in range(1, cfg.num_seeds):
        if delete_count == 0:
            break  # perturbed runs would all repeat the first tree
        rng = random.Random(f"{cfg.rng_seed}:{seed_index}")
        for _ in range(MAX_RETRIES):
            banned = frozenset(rng.sample(range(m), min(delete_count, m)))
            try:
                trees.append(tosp_tree(g, root, banned, stops))
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
    union = tuple(sorted(set().union(*seen)))
    return SeedSelection(union, tuple(distinct))
