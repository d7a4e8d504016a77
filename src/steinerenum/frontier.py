"""Layered decision-diagram construction by frontier-based search.

One edge is decided per level, in the order fixed by an EdgeOrder.  A
node's state summarizes the chosen edges as seen from the frontier (the
vertices that still touch undecided edges): which frontier vertices
share a component, whether each component holds a terminal, and each
frontier vertex's degree.  Branches that can no longer complete a
minimal Steiner tree of cost <= theta go to the 0-sink; branches whose
chosen edges form exactly such a tree go to the 1-sink.  One call,
``FrontierSearch.branches``, decides both branches of a node in a single
pass over its state, as a TdZdd spec step does (Iwashita & Minato 2013).
Nodes with equal states have indistinguishable futures and are merged,
keeping the cheaper cost, so a node's cost is a lower bound over its
incoming paths; the exact filter happens during traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, EdgeOrder

ZERO = 0  # sink ids double as arc-target encoding and dump tokens
ONE = 1

DEFAULT_NODE_CAP = 100_000_000


class ConstructionError(RuntimeError):
    pass


class NodeCapExceeded(ConstructionError):
    """Raised when the node budget is exhausted; carries layer statistics."""

    def __init__(self, cap: int, level: int, layer_sizes: list[int]):
        super().__init__(
            f"node cap {cap} exceeded at level {level}; "
            f"layer sizes so far: {layer_sizes}"
        )
        self.cap = cap
        self.level = level
        self.layer_sizes = layer_sizes


@dataclass(frozen=True)
class Bdd:
    """Layered diagram over an edge order.

    Node ids 0 and 1 are the sinks; real nodes start at 2.  ``lo``/``hi``
    give each node's arc targets, ``levels[i]`` lists the node ids whose
    decision variable is the i-th ordered edge (1-based; ``levels[0]`` is
    empty).  ``edge_order``/``edge_costs`` carry, per level, the original
    edge index and its cost, so traversal needs no extra context.
    ``root`` is 0 when no assignment survived construction or reduction.
    """

    level_count: int
    edge_order: tuple[int, ...]
    edge_costs: tuple[int, ...]
    root: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    level_of: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.lo) - 2

    def layer_sizes(self) -> list[int]:
        return [len(lvl) for lvl in self.levels[1:]]

    def dump(self) -> str:
        """Text form: header then one ``id level lo hi`` line per node."""
        out = [f"bdd {self.node_count} {self.level_count}"]
        for lvl in self.levels[1:]:
            for nid in lvl:
                out.append(
                    f"{nid} {self.level_of[nid]} {self.lo[nid]} {self.hi[nid]}"
                )
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class _Step:
    """Static data for deciding the i-th ordered edge (u, v).

    A state entering step i covers ``order.frontier_sets[i-1]``; with
    ``fresh`` appended it becomes the working sequence that every index
    below points into.
    """

    cost: int
    fresh: tuple[tuple[int, bool, int], ...]  # endpoints entering here
    iu: int
    iv: int
    undecided: tuple[int, ...]  # per vertex: edge-ends not yet decided
    leaving: tuple[int, ...]  # non-terminal endpoints on their last edge
    nonterminal_ends: tuple[int, ...]
    others: tuple[tuple[int, bool], ...]  # (index, is a non-terminal)
    keep: tuple[int, ...]  # index of each vertex of frontier_sets[i]
    kept: tuple[int, ...]  # those vertices, ascending
    dropped: tuple[tuple[int, int], ...]  # (index, vertex) leaving here
    all_seen: bool  # every terminal has entered the frontier


class FrontierSearch:
    """The frontier step, shared by construction and the unit tests.

    A state is the immutable tuple stored for a node at level i: one
    ``(representative, component holds a terminal, degree)`` entry per
    vertex of ``order.frontier_sets[i-1]`` in ascending vertex order.  A
    component's representative is its first frontier vertex, so equal
    tuples mean equal partitions, and the tuple is its own merge key.
    Exact terminal counts, undecided edge-ends per component and the
    path cost are not stored: the first two follow from the tuple and
    the level, and the cost is the caller's concern.  ``branches``
    decides one edge for one state, both ways, in a single pass.
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
        remaining = [len(a) for a in g.adjacency]
        self.steps: list[_Step | None] = [None]
        for i, idx in enumerate(order.permutation, 1):
            u, v, c = g.edges[idx]
            entering = [z for z in dict.fromkeys((u, v)) if first_pos[z] == i]
            vertices = sorted(order.frontier_sets[i - 1]) + entering
            at = {z: j for j, z in enumerate(vertices)}
            iu, iv = at[u], at[v]
            ends = dict.fromkeys((iu, iv))
            kept = tuple(sorted(order.frontier_sets[i]))
            keep = tuple(at[f] for f in kept)
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
                keep=keep,
                kept=kept,
                dropped=tuple(
                    (j, z) for j, z in enumerate(vertices) if j not in keep
                ),
                all_seen=i >= all_seen_at,
            ))
            remaining[u] -= 1
            remaining[v] -= 1

    def branches(self, state: tuple, i: int, include: bool) -> tuple:
        """Targets ``(lo, hi)`` of edge i from ``state``, each ZERO, ONE
        or the successor state.

        Exclusion dies when it strands a terminal-bearing component (its
        last undecided edge-ends are this edge) or makes a leaving
        non-terminal a leaf.  Inclusion, skipped unless ``include`` (the
        caller's cost bound), dies on a cycle, on a leaving non-terminal
        that would end as a leaf, or when it seals off some but not all
        terminals.  It completes a minimal Steiner tree (ONE) when the
        joined component holds every terminal, no non-terminal in it is a
        leaf and no other component holds edges; earlier exits were
        screened, so checking the live frontier suffices.

        Inclusion merges the endpoint components under the smaller
        representative (holding a terminal if either did) and bumps both
        endpoint degrees.  Endpoints on their last edge drop out; a
        component one of them named is renamed after its first remaining
        vertex; other entries are reused.  An emptied frontier is ZERO.
        """
        step = self.steps[i]
        ext = state + step.fresh
        iu, iv = step.iu, step.iv
        cu, tu, _ = ext[iu]
        cv, tv, _ = ext[iv]
        # undecided edge-ends, this edge's included, of the endpoint
        # components (an undecided edge inside one counts twice); only
        # the rules for terminal-bearing components read them
        und_u = und_v = 0
        if tu or tv:
            for (rep, _, _), r in zip(ext, step.undecided):
                if rep == cu:
                    und_u += r
                elif rep == cv:
                    und_v += r
        # leaving vertices that name their component, and the degrees of
        # the leaving non-terminals
        gone = [z for j, z in step.dropped if ext[j][0] == z]
        leaving = [ext[j][2] for j in step.leaving]

        # with cu == cv, und_u counts both ends of this edge
        if 1 in leaving or tu and und_u == (2 if cu == cv else 1) or tv and und_v == 1:
            lo = ZERO
        elif gone:
            lo = _renamed([ext[j] for j in step.keep], step.kept, gone)
        else:
            lo = tuple([ext[j] for j in step.keep]) or ZERO

        if not include or 0 in leaving or cu == cv:
            return lo, ZERO
        holds_all = False
        if step.all_seen:
            # entered terminals are all on the frontier, or all sealed off
            holders = {rep for rep, t, _ in ext if t}
            holds_all = bool(holders) and holders <= {cu, cv}
        if holds_all:
            if _completes(ext, step, cu, cv):
                return lo, ONE
        elif (tu or tv) and und_u + und_v == 2:
            return lo, ZERO

        m = cu if cu < cv else cv
        t = tu or tv
        out = []
        for j in step.keep:
            entry = ext[j]
            rep = entry[0]
            if rep == cu or rep == cv:
                entry = (m, t, entry[2] + (j == iu) + (j == iv))
            out.append(entry)
        hi = _renamed(out, step.kept, gone) if gone else tuple(out) or ZERO
        return lo, hi


def _completes(ext: tuple, step: _Step, cu: int, cv: int) -> bool:
    """True iff joining cu and cv, which hold every terminal, leaves no
    non-terminal leaf and no other component holding edges."""
    # the endpoints end at degree deg+1; degree 1 is a leaf
    if any(ext[j][2] == 0 for j in step.nonterminal_ends):
        return False
    for j, nonterminal in step.others:
        rep, _, d = ext[j]
        if d and (d == 1 and nonterminal or rep != cu and rep != cv):
            return False
    return True


def _renamed(entries: list, vertices: tuple[int, ...], gone: list[int]):
    """Entries with each component named after a vertex in ``gone``
    renamed after its first vertex; ZERO for an empty frontier."""
    for z in gone:
        first = None
        for k, (rep, t, d) in enumerate(entries):
            if rep == z:
                if first is None:
                    first = vertices[k]
                entries[k] = (first, t, d)
    return tuple(entries) or ZERO


def construct_bdd(
    g: Graph,
    order: EdgeOrder,
    theta: int | None = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Bdd:
    """Build the layered diagram whose 1-sink paths are exactly the
    minimal Steiner trees of cost <= theta (plus, possibly, paths over
    theta, which the traversal's exact cost check discards).

    Levels are processed once each; only the previous layer's states
    stay in memory.  Nodes with equal states merge and keep the cheaper
    cost into them, so an inclusion dies when even the cheapest path
    into its node, plus the edge, exceeds theta.  Ids are contiguous per
    level and nodes are decided in id order, so each node's arcs are
    appended as it is decided.
    """
    search = FrontierSearch(g, order)
    if theta is not None and theta < 0:
        raise GraphError("theta must be non-negative")
    m = len(order.permutation)
    if m == 0:
        raise GraphError("cannot build a diagram over zero edges")

    lo: list[int] = [-1, -1]
    hi: list[int] = [-1, -1]
    levels: list[list[int]] = [[], [2]]  # the root 2 is level 1's node
    states: list[tuple] = [()]
    costs: list[int] = [0]  # cheapest path cost into each node of a level
    for i in range(1, m + 1):
        c = search.steps[i].cost
        base = len(lo) + len(states)  # first id of level i+1
        # ids of level i+1: levels and arcs share one int object per node
        ids: list[int] = []
        nxt: list[tuple] = []
        nxt_costs: list[int] = []
        table: dict[tuple, int] = {}

        def node(child: tuple, cost: int) -> int:
            # id of the next-level node for child; a merge keeps the
            # cheaper cost
            nid = table.get(child)
            if nid is None:
                nid = base + len(ids)
                if nid - 2 >= node_cap:
                    sizes = [len(lvl) for lvl in levels[1:]] + [len(ids)]
                    raise NodeCapExceeded(
                        node_cap, i, sizes + [0] * (m - len(sizes))
                    )
                ids.append(nid)
                nxt.append(child)
                nxt_costs.append(cost)
                table[child] = nid
            elif cost < nxt_costs[nid - base]:
                nxt_costs[nid - base] = cost
            return nid

        for state, cost in zip(states, costs):
            to_lo, to_hi = search.branches(
                state, i, theta is None or cost + c <= theta
            )
            # a target that is not a state is a sink id
            lo.append(node(to_lo, cost) if to_lo.__class__ is tuple else to_lo)
            hi.append(node(to_hi, cost + c) if to_hi.__class__ is tuple else to_hi)
        if i < m:
            levels.append(ids)
        states, costs = nxt, nxt_costs

    # any state surviving past the last level is impossible on connected
    # input; empty successor states were already routed to the 0-sink
    assert not states, "non-sink state escaped the final level"

    return Bdd(
        level_count=m,
        edge_order=tuple(order.permutation),
        edge_costs=tuple(g.edges[idx][2] for idx in order.permutation),
        root=2,
        lo=tuple(lo),
        hi=tuple(hi),
        level_of=(0, 0) + tuple(
            level for level, ids in enumerate(levels) for _ in ids
        ),
        levels=tuple(tuple(ids) for ids in levels),
    )
