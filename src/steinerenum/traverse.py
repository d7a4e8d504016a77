"""Operations on the constructed diagram: pruning, counting, top-k search.

Costs at diagram nodes are lower bounds (merging keeps the minimum), so
the traversal re-derives exact path costs from the edge costs along
each path.  It runs best-first with each node's exact cheapest
completion as the heuristic (A*, Hart, Nilsson & Raphael 1968), so
trees come out cheapest first and theta prunes exactly: every heap
entry holds a tree at its key, and no entry over theta is ever pushed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .frontier import Bdd, ZERO, ONE
from .graph import Graph, GraphError, SteinerTree


class TraversalError(RuntimeError):
    pass


class EntryBudgetExceeded(TraversalError):
    def __init__(self, budget: int, written: int, live: int):
        super().__init__(
            f"live heap entries {live} exceed budget {budget} "
            f"after {written} tree(s) written"
        )
        self.budget = budget
        self.written = written
        self.live = live


def reduce_bdd(bdd: Bdd) -> Bdd:
    """Drop every node that cannot reach the 1-sink.

    Works bottom-up: a node dies when both arcs lead to the 0-sink or to
    dead nodes; arcs into dead nodes get redirected to the 0-sink.  The
    surviving diagram has no node with both arcs at the 0-sink, every
    node reaches the 1-sink, and the set of root-to-1-sink paths (hence
    the tree count) is untouched.  Node ids are renumbered compactly.
    If the root itself dies the result has root 0 and no nodes.
    """
    n = len(bdd.lo)
    new_lo = list(bdd.lo)
    new_hi = list(bdd.hi)
    alive = [False] * n
    alive[ONE] = True
    for level in range(bdd.level_count, 0, -1):
        for nid in bdd.levels[level]:
            if not alive[new_lo[nid]]:
                new_lo[nid] = ZERO
            if not alive[new_hi[nid]]:
                new_hi[nid] = ZERO
            alive[nid] = new_lo[nid] != ZERO or new_hi[nid] != ZERO

    # dead nodes map to the 0-sink, which only a dead root still needs
    remap = [ZERO] * n
    remap[ONE] = ONE
    next_id = 2
    levels: list[list[int]] = [[] for _ in range(bdd.level_count + 1)]
    for level in range(1, bdd.level_count + 1):
        for nid in bdd.levels[level]:
            if alive[nid]:
                remap[nid] = next_id
                levels[level].append(next_id)
                next_id += 1

    lo = [-1, -1]
    hi = [-1, -1]
    level_of = [0, 0]
    for level in range(1, bdd.level_count + 1):
        for nid in bdd.levels[level]:
            if alive[nid]:
                lo.append(remap[new_lo[nid]])
                hi.append(remap[new_hi[nid]])
                level_of.append(level)

    root = remap[bdd.root]
    return Bdd(
        level_count=bdd.level_count,
        edge_order=bdd.edge_order,
        edge_costs=bdd.edge_costs,
        root=root,
        lo=tuple(lo),
        hi=tuple(hi),
        level_of=tuple(level_of),
        levels=tuple(tuple(lvl) for lvl in levels),
    )


def count_trees(bdd: Bdd) -> int:
    """Exact number of root-to-1-sink paths (arbitrary precision)."""
    if bdd.root == ZERO:
        return 0
    ways: dict[int, int] = {bdd.root: 1}
    total = 0
    for level in range(1, bdd.level_count + 1):
        for nid in bdd.levels[level]:
            w = ways.pop(nid, 0)
            if not w:
                continue
            for t in (bdd.lo[nid], bdd.hi[nid]):
                if t == ONE:
                    total += w
                elif t >= 2:
                    ways[t] = ways.get(t, 0) + w
    return total


@dataclass(frozen=True)
class EnumerationResult:
    """Output of the top-k traversal plus its instrumentation.

    ``trees`` holds exactly the ``min(k, T)`` cheapest trees, where T
    is the number of trees within theta, ascending by
    ``(cost, sorted_edges)``; among trees tied at the cut cost the
    traversal's fixed push order decides which are kept.
    ``peak_entries`` is the largest heap size reached.  ``truncated``
    flags that at least one more tree within theta exists beyond those
    written.  ``sink_arrivals`` is the number of trees popped.
    """

    trees: tuple[SteinerTree, ...]
    peak_entries: int
    truncated: bool
    sink_arrivals: int


def _cheapest_completions(bdd: Bdd) -> list[float]:
    """Cost of the cheapest path from each node to the 1-sink, in one
    bottom-up pass: ``best[ONE] = 0``, ZERO (and every node that cannot
    reach the 1-sink) is ``math.inf``."""
    best = [math.inf] * len(bdd.lo)
    best[ONE] = 0
    for level in range(bdd.level_count, 0, -1):
        edge_cost = bdd.edge_costs[level - 1]
        for nid in bdd.levels[level]:
            best[nid] = min(best[bdd.lo[nid]], best[bdd.hi[nid]] + edge_cost)
    return best


def enumerate_trees(
    bdd: Bdd,
    *,
    k: int,
    theta: int | None = None,
    entry_budget: int | None = None,
) -> EnumerationResult:
    """Write the k cheapest trees within theta, or all of them when
    fewer exist.

    Best-first search over root-to-1-sink paths.  A heap entry stands
    for every path that starts with a fixed prefix ending at a node; its
    key ``f`` is the prefix cost plus the node's exact cheapest
    completion, which is the cost of the cheapest path in the entry.
    Each pop follows that cheapest completion down to the 1-sink,
    writing one tree, and pushes every sibling arc left behind on the
    way when its own ``f`` is within theta.  The entries partition the
    remaining paths, so trees come out in ascending cost and theta
    prunes exactly.  Equal keys pop in push order, which makes the
    outcome independent of hash ordering.  ``entry_budget`` bounds the
    heap size.
    """
    if k < 1:
        raise TraversalError("k must be at least 1")

    best = _cheapest_completions(bdd)
    # no path costs more than all edges together, and inf exceeds that
    limit = sum(bdd.edge_costs)
    if theta is not None:
        limit = min(limit, theta)
    if bdd.root == ZERO or best[bdd.root] > limit:
        return EnumerationResult((), 0, False, 0)

    # entry: (f, push counter, node, path); a path is a cons cell
    # (edge index, parent) per included edge, shared between entries
    heap: list[tuple] = [(best[bdd.root], 0, bdd.root, None)]
    pushes = 1
    peak = 1
    trees: list[SteinerTree] = []
    while heap and len(trees) < k:
        f, _, nid, path = heapq.heappop(heap)
        prefix = f - best[nid]
        while nid != ONE:
            level = bdd.level_of[nid]
            edge_cost = bdd.edge_costs[level - 1]
            lo, hi = bdd.lo[nid], bdd.hi[nid]
            lo_f = prefix + best[lo]
            hi_f = prefix + edge_cost + best[hi]
            included = (bdd.edge_order[level - 1], path)
            if lo_f <= hi_f:
                if hi_f <= limit:
                    heapq.heappush(heap, (hi_f, pushes, hi, included))
                    pushes += 1
                nid = lo
            else:
                if lo_f <= limit:
                    heapq.heappush(heap, (lo_f, pushes, lo, path))
                    pushes += 1
                nid, prefix, path = hi, prefix + edge_cost, included
        edges = []
        while path is not None:
            edges.append(path[0])
            path = path[1]
        trees.append(SteinerTree(frozenset(edges), f))
        peak = max(peak, len(heap))
        if entry_budget is not None and len(heap) > entry_budget:
            raise EntryBudgetExceeded(entry_budget, len(trees), len(heap))

    trees.sort(key=lambda t: (t.cost, t.sorted_edges()))
    return EnumerationResult(tuple(trees), peak, bool(heap), len(trees))


def validate_tree(tree: SteinerTree, g: Graph) -> bool:
    """Check the minimal-Steiner-tree conditions for an edge set on g:
    acyclic, all terminals in one component, every leaf a terminal."""
    parent = list(range(g.vertex_count + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deg: dict[int, int] = {}
    for idx in tree.edges:
        if not 0 <= idx < len(g.edges):
            raise GraphError(f"edge index {idx} out of range")
        u, v, _ = g.edges[idx]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    terms = sorted(g.terminals)
    if len(terms) < 2:
        return False
    root = find(terms[0])
    if any(find(t) != root for t in terms[1:]):
        return False
    return all(d != 1 or v in g.terminals for v, d in deg.items())
