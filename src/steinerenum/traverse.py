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
from array import array
from itertools import accumulate, compress
from operator import mul

from .frontier import Bdd, ZERO, ONE
from .graph import Graph, GraphError, Record, SteinerTree


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

    A node is alive when either arc leads to the 1-sink or to a live
    node; arcs into dead nodes get redirected to the 0-sink.  The
    surviving diagram has no node with both arcs at the 0-sink, every
    node reaches the 1-sink, and the set of root-to-1-sink paths (hence
    the tree count) is untouched.  Since ids are contiguous per level
    and arcs point to a sink or to the next level, liveness is decided
    level by level from the last, into a ``bytearray``.  The live ids
    keep their order and that layout: a live node's new id is the
    number of live ids up to it, the 1-sink included, so the running
    sum of the liveness bytes, zeroed at dead ids, is the renumbering
    (an ``array('q')``), and each level's live arcs go through it
    straight into the new arrays.  If the root itself dies the result
    has root 0 and no nodes.
    """
    lo, hi = bdd.lo, bdd.hi
    alive = bytearray(len(lo))
    alive[ONE] = 1
    for ids in reversed(bdd.levels):
        a, b = ids.start, ids.stop
        alive[a:b] = bytes([alive[x] | alive[y] for x, y in zip(lo[a:b], hi[a:b])])

    # dead ids map to the 0-sink, and so do arcs into them and a dead root
    remap = array("q", map(mul, accumulate(alive), alive))
    new_lo = array("q", (-1, -1))
    new_hi = array("q", (-1, -1))
    levels = [range(0)]
    for ids in bdd.levels[1:]:
        a, b = ids.start, ids.stop
        first, kept = len(new_lo), alive[a:b]
        new_lo.fromlist([remap[x] for x in compress(lo[a:b], kept)])
        new_hi.fromlist([remap[y] for y in compress(hi[a:b], kept)])
        levels.append(range(first, len(new_lo)))

    return Bdd(
        edge_order=bdd.edge_order,
        edge_costs=bdd.edge_costs,
        root=remap[bdd.root],
        lo=new_lo,
        hi=new_hi,
        levels=tuple(levels),
    )


def count_trees(bdd: Bdd) -> int:
    """Exact number of root-to-1-sink paths (arbitrary precision), in
    one pass over the levels from the last, as arcs point to the next
    level: ``ways[ONE] = 1``, ``ways[ZERO] = 0``."""
    lo, hi = bdd.lo, bdd.hi
    ways = [0] * len(lo)
    ways[ONE] = 1
    for ids in reversed(bdd.levels):
        a, b = ids.start, ids.stop
        ways[a:b] = [ways[x] + ways[y] for x, y in zip(lo[a:b], hi[a:b])]
    return ways[bdd.root]


class EnumerationResult(Record):
    """Output of the top-k traversal plus its instrumentation.

    ``trees`` holds the first ``min(k, T)`` of the T trees within theta
    in ``(cost, sorted_edges)`` order.  Trees tied at the cut cost are
    all popped and the smallest by ``sorted_edges`` kept, so the result
    depends only on the diagram's tree set, theta and k, not on the
    edge order or the diagram's shape.  ``peak_entries`` is the largest
    heap size reached.  ``truncated`` flags that at least one more tree
    within theta exists beyond those written.  ``sink_arrivals`` is the
    number of trees popped, those tied at the cut included.
    """

    trees: tuple[SteinerTree, ...]
    peak_entries: int
    truncated: bool
    sink_arrivals: int


def _cheapest_completions(bdd: Bdd) -> list[float]:
    """Cost of the cheapest path from each node to the 1-sink, in one
    bottom-up pass over the levels: ``best[ONE] = 0``, ZERO (and every
    node that cannot reach the 1-sink) is ``math.inf``."""
    lo, hi = bdd.lo, bdd.hi
    best = [math.inf] * len(lo)
    best[ONE] = 0
    for ids, edge_cost in zip(reversed(bdd.levels), reversed(bdd.edge_costs)):
        a, b = ids.start, ids.stop
        for nid, x, y in zip(ids, lo[a:b], hi[a:b]):
            via_lo, via_hi = best[x], best[y] + edge_cost
            best[nid] = via_hi if via_hi < via_lo else via_lo
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
    prunes exactly.  After the k-th tree the search keeps popping while
    the heap top equals the cut cost; those trees are sorted in with the
    rest and the first k kept.  Every arc leads to the next level, so an
    entry carries its node's level and each step down adds one.
    ``entry_budget`` bounds the heap size.
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

    # entry: (f, push counter, node, level, path); a path is a cons cell
    # (edge index, parent) per included edge, shared between entries
    heap: list[tuple] = [(best[bdd.root], 0, bdd.root, 1, None)]
    pushes = 1
    peak = 1
    trees: list[SteinerTree] = []
    lo_arcs, hi_arcs = bdd.lo, bdd.hi
    edge_costs, edge_order = bdd.edge_costs, bdd.edge_order
    while heap and (len(trees) < k or heap[0][0] == trees[-1].cost):
        f, _, nid, level, path = heapq.heappop(heap)
        prefix = f - best[nid]
        while nid != ONE:
            edge_cost = edge_costs[level - 1]
            lo, hi = lo_arcs[nid], hi_arcs[nid]
            lo_f = prefix + best[lo]
            hi_f = prefix + edge_cost + best[hi]
            included = (edge_order[level - 1], path)
            level += 1
            if lo_f <= hi_f:
                if hi_f <= limit:
                    heapq.heappush(heap, (hi_f, pushes, hi, level, included))
                    pushes += 1
                nid = lo
            else:
                if lo_f <= limit:
                    heapq.heappush(heap, (lo_f, pushes, lo, level, path))
                    pushes += 1
                nid, prefix, path = hi, prefix + edge_cost, included
        edges = []
        while path is not None:
            edges.append(path[0])
            path = path[1]
        trees.append(SteinerTree(frozenset(edges), f))
        peak = max(peak, len(heap))
        if entry_budget is not None and len(heap) > entry_budget:
            raise EntryBudgetExceeded(entry_budget, min(len(trees), k), len(heap))

    trees.sort(key=lambda t: (t.cost, t.sorted_edges()))
    truncated = bool(heap) or len(trees) > k
    return EnumerationResult(tuple(trees[:k]), peak, truncated, len(trees))


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
        if isinstance(idx, bool) or not isinstance(idx, int):  # a bool is an int
            raise GraphError(f"edge index {idx!r} is not an integer")
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
