"""Test-only reference: the three-predicate frontier step.

This is the construction that ``FrontierSearch.step`` replaced, kept
verbatim (``is_one_sink``, ``is_zero_sink`` and ``generate`` called per
branch) so the differential test in ``test_frontier.py`` can require
byte-identical diagrams from the fused step.
"""

from __future__ import annotations

from dataclasses import dataclass

from steinerenum.frontier import (
    DEFAULT_NODE_CAP,
    ONE,
    ZERO,
    Bdd,
    NodeCapExceeded,
)
from steinerenum.graph import EdgeOrder, Graph, GraphError


@dataclass(frozen=True)
class _Step:
    """Static data for deciding the i-th ordered edge (u, v).

    A state entering step i covers the frontier F_{i-1}; with ``fresh``
    appended it becomes the working sequence that every index below
    points into.
    """

    cost: int
    fresh: tuple[tuple[int, bool, int], ...]  # endpoints entering here
    iu: int
    iv: int
    undecided: tuple[int, ...]  # per vertex: edge-ends not yet decided
    leaving: tuple[int, ...]  # non-terminal endpoints on their last edge
    nonterminal_ends: tuple[int, ...]
    others: tuple[tuple[int, bool], ...]  # (index, is a non-terminal)
    plan: tuple[tuple[int, int], ...]  # (vertex, index), F_i
    all_seen: bool  # every terminal has entered the frontier


class ReferenceFrontierSearch:
    """Step logic shared by construction and the unit tests.

    A state is the immutable tuple stored for a node at level i: one
    ``(representative, component holds a terminal, degree)`` entry per
    vertex of the frontier F_{i-1} in ascending vertex order.  A
    component's representative is its first frontier vertex, so equal
    tuples mean equal partitions, and the tuple is its own merge key.
    Exact terminal counts, undecided edge-ends per component and the
    path cost are not stored: the first two follow from the tuple and
    the level, and the cost is the caller's concern.
    """

    def __init__(self, g: Graph, order: EdgeOrder):
        if len(g.terminals) < 2:
            raise GraphError("enumeration needs at least two terminals")
        if len(order.permutation) != len(g.edges):
            raise GraphError("edge order does not match the graph")
        terms = g.terminals
        first_pos: dict[int, int] = {}
        last_pos: dict[int, int] = {}
        for i, idx in enumerate(order.permutation, 1):
            u, v, _ = g.edges[idx]
            for z in (u, v):
                first_pos.setdefault(z, i)
                last_pos[z] = i
        all_seen_at = max(first_pos.get(t, len(g.edges) + 1) for t in terms)
        # F_i: the vertices with a decided and an undecided edge after step i
        frontier: list[list[int]] = [[] for _ in range(len(g.edges) + 1)]
        for z in sorted(first_pos):
            for i in range(first_pos[z], last_pos[z]):
                frontier[i].append(z)
        remaining = [len(a) for a in g.adjacency]
        self.steps: list[_Step | None] = [None]
        for i, idx in enumerate(order.permutation, 1):
            u, v, c = g.edges[idx]
            entering = [z for z in dict.fromkeys((u, v)) if first_pos[z] == i]
            vertices = frontier[i - 1] + entering
            at = {z: j for j, z in enumerate(vertices)}
            iu, iv = at[u], at[v]
            ends = dict.fromkeys((iu, iv))
            self.steps.append(_Step(
                cost=c,
                fresh=tuple((z, z in terms, 0) for z in entering),
                iu=iu,
                iv=iv,
                undecided=tuple(remaining[z] for z in vertices),
                leaving=tuple(
                    j for j in ends
                    if last_pos[vertices[j]] == i and vertices[j] not in terms
                ),
                nonterminal_ends=tuple(
                    j for j in ends if vertices[j] not in terms
                ),
                others=tuple(
                    (j, z not in terms)
                    for j, z in enumerate(vertices) if j not in ends
                ),
                plan=tuple((f, at[f]) for f in frontier[i]),
                all_seen=i >= all_seen_at,
            ))
            remaining[u] -= 1
            remaining[v] -= 1

    # -- sink classification ------------------------------------------------

    @staticmethod
    def _undecided(ext: tuple, step: _Step, rep: int) -> int:
        """Undecided edge-ends, this edge's included, of component ``rep``
        (an undecided edge inside the component counts twice)."""
        return sum([r for e, r in zip(ext, step.undecided) if e[0] == rep])

    @staticmethod
    def _holds_all(ext: tuple, step: _Step, cu: int, cv: int) -> bool:
        """True iff components cu and cv together hold every terminal.

        Every terminal that has entered sits in some frontier component,
        unless all of them were sealed off in one component that left
        the frontier (the zero-sink rules kill a branch that seals off
        only some); then no frontier component holds a terminal.
        """
        if not step.all_seen:
            return False
        holders = {rep for rep, t, _ in ext if t}
        return bool(holders) and holders <= {cu, cv}

    def is_one_sink(self, state: tuple, i: int, x: int) -> bool:
        """True iff taking edge i completes a minimal Steiner tree right now.

        Only an inclusion can complete a tree.  The chosen edges plus
        edge i must connect all terminals in one acyclic component, leave
        no non-terminal with degree 1, and leave no other component
        holding edges; earlier exits were already screened, so checking
        the live frontier suffices.  The cost bound is not checked here.
        """
        if x != 1:
            return False
        step = self.steps[i]
        ext = state + step.fresh
        cu = ext[step.iu][0]
        cv = ext[step.iv][0]
        if cu == cv or not self._holds_all(ext, step, cu, cv):
            return False
        # the endpoints end at degree deg+1; degree 1 is a leaf
        if any(ext[j][2] == 0 for j in step.nonterminal_ends):
            return False
        for j, nonterminal in step.others:
            rep, _, d = ext[j]
            if d and (d == 1 and nonterminal or rep != cu and rep != cv):
                return False
        return True

    def is_zero_sink(self, state: tuple, i: int, x: int) -> bool:
        """True iff branch x of edge i can never reach a qualifying tree.

        Exclusion dies when it strands a terminal-bearing component (its
        last undecided edge-ends are this edge) or makes a leaving
        non-terminal a leaf.  Inclusion dies on a cycle, on a leaving
        non-terminal that would end as a leaf, or when it seals off a
        component holding some but not all terminals.  The cost bound is
        not checked here.
        """
        step = self.steps[i]
        ext = state + step.fresh
        cu, tu, _ = ext[step.iu]
        cv, tv, _ = ext[step.iv]
        if x == 0:
            if any(ext[j][2] == 1 for j in step.leaving):
                return True
            ends = 2 if cu == cv else 1
            return (tu and self._undecided(ext, step, cu) == ends) or (
                tv and self._undecided(ext, step, cv) == ends
            )
        if cu == cv or any(ext[j][2] == 0 for j in step.leaving):
            return True
        return (
            (tu or tv)
            and self._undecided(ext, step, cu) + self._undecided(ext, step, cv) == 2
            and not self._holds_all(ext, step, cu, cv)
        )

    # -- node generation ----------------------------------------------------

    def generate(self, state: tuple, i: int, x: int) -> tuple:
        """Successor state for branch x of edge i.

        Inclusion merges the endpoint components, which then hold a
        terminal if either did, and bumps both endpoint degrees.
        Endpoints whose last edge this was drop out, and every component
        is renamed after its first remaining frontier vertex.  The empty
        tuple means the frontier emptied.
        """
        step = self.steps[i]
        ext = state + step.fresh
        cu, tu, _ = ext[step.iu]
        cv, tv, _ = ext[step.iv]
        reps: dict[int, int] = {}
        out = []
        for f, j in step.plan:
            rep, t, d = ext[j]
            if x:
                if rep == cu or rep == cv:
                    rep, t = cu, tu or tv
                d += (j == step.iu) + (j == step.iv)
            out.append((reps.setdefault(rep, f), t, d))
        return tuple(out)


def reference_construct_bdd(
    g: Graph,
    order: EdgeOrder,
    theta: int | None = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    merge_nodes: bool = True,
) -> Bdd:
    """Build the layered diagram whose 1-sink paths are exactly the
    minimal Steiner trees of cost <= theta (plus, possibly, cheaper-
    looking paths that the exact traversal filter later discards).

    Levels are processed once each; only the previous layer's states
    stay in memory.  An inclusion dies when even the cheapest path into
    its node, plus the edge, exceeds theta.  ``merge_nodes=False``
    disables merging (exponential; debugging aid for equivalence checks
    on tiny inputs).
    """
    search = ReferenceFrontierSearch(g, order)
    if theta is not None and theta < 0:
        raise GraphError("theta must be non-negative")
    m = len(order.permutation)
    if m == 0:
        raise GraphError("cannot build a diagram over zero edges")

    lo: list[int] = [-1, -1]
    hi: list[int] = [-1, -1]
    # minimum path cost into each node, over the paths merged into it
    node_cost: list[int] = [0, 0]
    levels: list[list[int]] = [[] for _ in range(m + 1)]

    root = 2
    lo.append(ZERO)
    hi.append(ZERO)
    node_cost.append(0)
    levels[1].append(root)

    current: list[tuple[int, tuple]] = [(root, ())]
    for i in range(1, m + 1):
        c = search.steps[i].cost
        nxt: list[tuple[int, tuple]] = []
        table: dict[tuple, int] = {}
        for nid, state in current:
            arcs = [ZERO, ZERO]
            for x in (0, 1):
                cost = node_cost[nid] + c * x
                if x and theta is not None and cost > theta:
                    continue
                if search.is_one_sink(state, i, x):
                    arcs[x] = ONE
                    continue
                if search.is_zero_sink(state, i, x):
                    continue
                child = search.generate(state, i, x)
                if not child:
                    # frontier emptied without completing: dead branch
                    # (can only happen at the last level on connected input)
                    continue
                kept_id = table.get(child)
                if kept_id is not None:
                    node_cost[kept_id] = min(node_cost[kept_id], cost)
                    arcs[x] = kept_id
                    continue
                new_id = len(lo)
                if new_id - 2 >= node_cap:
                    raise NodeCapExceeded(
                        node_cap, i, [len(lvl) for lvl in levels[1:]]
                    )
                lo.append(ZERO)
                hi.append(ZERO)
                node_cost.append(cost)
                levels[i + 1].append(new_id)
                if merge_nodes:
                    table[child] = new_id
                nxt.append((new_id, child))
                arcs[x] = new_id
            lo[nid], hi[nid] = arcs
        current = nxt

    # any state surviving past the last level is impossible on connected
    # input; empty successor states were already routed to the 0-sink
    assert not current, "non-sink state escaped the final level"

    return Bdd(
        edge_order=tuple(order.permutation),
        edge_costs=tuple(g.edges[idx][2] for idx in order.permutation),
        root=root,
        lo=tuple(lo),
        hi=tuple(hi),
        levels=tuple(tuple(lvl) for lvl in levels),
    )


def reference_reduce_bdd(bdd: Bdd) -> Bdd:
    """Dead-node reduction as it stood with the three-predicate step."""
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
    for level in range(1, bdd.level_count + 1):
        for nid in bdd.levels[level]:
            if alive[nid]:
                lo.append(remap[new_lo[nid]])
                hi.append(remap[new_hi[nid]])

    root = remap.get(bdd.root, ZERO) if bdd.root >= 2 else bdd.root
    if root >= 2 and not alive[bdd.root]:
        root = ZERO
    return Bdd(
        edge_order=bdd.edge_order,
        edge_costs=bdd.edge_costs,
        root=root,
        lo=tuple(lo),
        hi=tuple(hi),
        levels=tuple(tuple(lvl) for lvl in levels),
    )
