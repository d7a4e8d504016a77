"""Operations on the constructed diagram: pruning, counting, top-k search.

Costs at diagram nodes are lower bounds (merging keeps the minimum), so
the traversal here re-derives exact path costs and applies the theta
filter precisely; anything the construction let through optimistically
is discarded at the sink.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frontier import Bdd, ZERO, ONE
from .graph import Graph, GraphError, SteinerTree


class TraversalError(RuntimeError):
    pass


class EntryBudgetExceeded(TraversalError):
    def __init__(self, budget: int, level: int, live: int):
        super().__init__(
            f"live cost entries {live} exceed budget {budget} at level {level}"
        )
        self.budget = budget
        self.level = level
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

    def target_alive(t: int) -> bool:
        return t == ONE or (t >= 2 and alive[t])

    for level in range(bdd.level_count, 0, -1):
        for nid in bdd.levels[level]:
            if not target_alive(new_lo[nid]):
                new_lo[nid] = ZERO
            if not target_alive(new_hi[nid]):
                new_hi[nid] = ZERO
            alive[nid] = new_lo[nid] != ZERO or new_hi[nid] != ZERO

    remap: dict[int, int] = {ZERO: ZERO, ONE: ONE}
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

    root = remap.get(bdd.root, ZERO) if bdd.root >= 2 else bdd.root
    if root >= 2 and not alive[bdd.root]:
        root = ZERO
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

    ``trees`` is ascending by cost.  ``peak_entries`` is the maximum
    number of retained cost entries alive at once (two adjacent levels).
    ``truncated`` flags that the sink cap dropped qualifying arrivals,
    so trees beyond the cheapest ``cap`` are missing.
    """

    trees: tuple[SteinerTree, ...]
    peak_entries: int
    truncated: bool
    sink_arrivals: int


def enumerate_trees(
    bdd: Bdd,
    *,
    k: int,
    theta: int | None = None,
    cap: int | None = None,
    entry_budget: int | None = None,
) -> EnumerationResult:
    """Collect the represented trees, guaranteeing the k cheapest.

    Level-synchronous sweep keeping at most k cost entries per node (the
    k cheapest prefixes; any k-cheapest full path extends a k-cheapest
    prefix, so the guarantee holds).  Entries over theta are dropped the
    moment they arise.  The sink retains up to ``cap`` cheapest arrivals
    (default 10*k).  Back-references live in an append-only arena sized
    by retained entries, so released levels stay decodable.

    Ties are ordered by (cost, source node id, source entry index, arc
    bit), which makes the outcome independent of hash ordering.
    """
    if k < 1:
        raise TraversalError("k must be at least 1")
    if cap is None:
        cap = 10 * k
    if cap < k:
        raise TraversalError("cap must be >= k")

    empty = EnumerationResult((), 0, False, 0)
    if bdd.root == ZERO:
        return empty

    # arena of back-references: parallel arrays (bit, parent slot)
    arena_bit: list[int] = []
    arena_parent: list[int] = []

    def alloc(bit: int, parent_slot: int) -> int:
        arena_bit.append(bit)
        arena_parent.append(parent_slot)
        return len(arena_bit) - 1

    # retained entry: (cost, slot); candidates carry their tie key
    current: dict[int, list[tuple[int, int]]] = {bdd.root: [(0, -1)]}
    sink: list[tuple[int, int, int, int, int]] = []  # cost, src, idx, bit, slot
    sink_truncated = False
    sink_arrivals = 0
    peak = 1
    prune_limit = max(4 * k, 256)
    sink_prune_limit = max(2 * cap, 256)

    for level in range(1, bdd.level_count + 1):
        edge_cost = bdd.edge_costs[level - 1]
        gathering: dict[int, list[tuple[int, int, int, int, int]]] = {}
        for nid in bdd.levels[level]:
            entries = current.get(nid)
            if not entries:
                continue
            for bit, tgt, extra in ((0, bdd.lo[nid], 0), (1, bdd.hi[nid], edge_cost)):
                if tgt == ZERO:
                    continue
                batch = []
                for idx, (cost, slot) in enumerate(entries):
                    nc = cost + extra
                    if theta is not None and nc > theta:
                        break  # entries are cost-sorted; the rest only grow
                    batch.append((nc, nid, idx, bit, slot))
                if not batch:
                    continue
                if tgt == ONE:
                    sink_arrivals += len(batch)
                    sink.extend(batch)
                    if len(sink) > sink_prune_limit:
                        sink.sort()
                        del sink[cap:]
                        sink_truncated = True
                else:
                    bucket = gathering.setdefault(tgt, [])
                    bucket.extend(batch)
                    if len(bucket) > prune_limit:
                        bucket.sort()
                        del bucket[k:]

        nxt: dict[int, list[tuple[int, int]]] = {}
        for tgt, bucket in gathering.items():
            bucket.sort()
            retained = []
            for nc, src, idx, bit, slot in bucket[:k]:
                retained.append((nc, alloc(bit, slot)))
            nxt[tgt] = retained

        live = sum(len(v) for v in current.values()) + sum(
            len(v) for v in nxt.values()
        )
        peak = max(peak, live)
        if entry_budget is not None and live > entry_budget:
            raise EntryBudgetExceeded(entry_budget, level, live)
        current = nxt

    sink.sort()
    if len(sink) > cap:
        del sink[cap:]
        sink_truncated = True

    trees = []
    for cost, src, idx, bit, slot in sink:
        bits: list[int] = [bit]
        s = slot
        while s >= 0:
            bits.append(arena_bit[s])
            s = arena_parent[s]
        bits.reverse()
        chosen = frozenset(
            bdd.edge_order[depth] for depth, b in enumerate(bits) if b
        )
        trees.append(SteinerTree(chosen, cost))
    trees.sort(key=lambda t: (t.cost, t.sorted_edges()))
    return EnumerationResult(tuple(trees), peak, sink_truncated, sink_arrivals)


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
