"""Layered decision-diagram construction by frontier-based search.

One edge is decided per level, in the order fixed by an EdgeOrder.  A
node's state summarizes the chosen edges as seen from the frontier (the
vertices that still touch undecided edges): which frontier vertices
share a component, whether each component holds a terminal, and each
frontier vertex's degree.  Branches that can no longer complete a
minimal Steiner tree of cost <= theta go to the 0-sink; branches whose
chosen edges form exactly such a tree go to the 1-sink.  The step of
level i, ``FrontierSearch.step(i)``, is planned once and decides both
branches of a node in one pass, as TdZdd does (Iwashita & Minato 2013).
Nodes with equal states have indistinguishable futures and are merged,
keeping the cheaper cost, so a node's cost is a lower bound over its
incoming paths; the exact filter happens during traversal.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from operator import itemgetter

from .graph import Graph, GraphError, EdgeOrder, Record, frontiers

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


class Bdd(Record):
    """Layered diagram over an edge order.

    Node ids 0 and 1 are the sinks; real nodes start at 2.  Ids are
    contiguous per level and rise level by level, and every arc points to
    a sink or to the next level, so a node's level is its depth: the
    root is on level 1.  ``lo``/``hi`` give each node's arc targets, and
    ``levels[i]`` is the id range whose decision variable is the i-th
    ordered edge (1-based; ``levels[0]`` is empty).
    ``edge_order``/``edge_costs`` carry, per level, the original edge
    index and its cost, so traversal needs no extra context.  ``root``
    is 0 when no assignment survived construction or reduction.
    """

    edge_order: tuple[int, ...]
    edge_costs: tuple[int, ...]
    root: int
    lo: array
    hi: array
    levels: tuple[range, ...]

    @property
    def level_count(self) -> int:
        return len(self.edge_order)

    @property
    def node_count(self) -> int:
        return len(self.lo) - 2

    def layer_sizes(self) -> list[int]:
        return [len(lvl) for lvl in self.levels[1:]]

    def dump(self) -> str:
        """Text form: header then one ``id level lo hi`` line per node."""
        out = [f"bdd {self.node_count} {self.level_count}"]
        for level, ids in enumerate(self.levels):
            for nid in ids:
                out.append(f"{nid} {level} {self.lo[nid]} {self.hi[nid]}")
        return "\n".join(out) + "\n"


# Static data for deciding the i-th ordered edge (u, v).
#
# A state entering step i covers the frontier F_{i-1} that the steps
# before it leave; with ``fresh`` appended it becomes the working
# sequence that every index below points into.  Only u and v can leave
# at step i.  A component is named after the member that leaves last, so
# it is sealed here, none of its vertices touching an undecided edge,
# exactly when its name is one of ``sealed``.
_Step = namedtuple("_Step", (
    "cost",
    "fresh",  # entries of the endpoints entering here
    "iu",  # indices of u and v
    "iv",
    "keep",  # index of each vertex of F_i
    "nonterminal",  # per vertex of F_i
    "dropped",  # index per leaving non-terminal
    "sealed",  # names of the leaving vertices
    "all_seen",  # every terminal has entered the frontier
))


class FrontierSearch:
    """The frontier step that ``construct_bdd`` applies level by level.

    A state is the immutable tuple stored for a node at level i: one
    entry per vertex of the frontier F_{i-1} in ascending vertex order.
    An entry is one int, ``name << shift | degree << 1 | terminal``: the
    name of the vertex's component, its degree among the chosen edges,
    and whether its component holds a terminal.  Every vertex with an
    edge has a fixed name, its rank by (step of its last edge, vertex
    id), and a component carries the largest name among its members.
    That member leaves the frontier last, so it is on the frontier while
    its component is, a name never changes, and equal tuples mean equal
    partitions: the tuple is its own merge key.  ``shift`` leaves room
    for the graph's largest degree, so equal entries are equal
    triples.  Exact terminal counts and the path cost are not stored:
    the first follows from the tuple and the level, and the cost is the
    caller's concern.  ``step(i)`` decides edge i for a state, both
    ways, in a single pass.  The steps follow from one walk of the
    frontier over ``g``; the order must permute its edge indices.
    """

    def __init__(self, g: Graph, order: EdgeOrder):
        if len(g.terminals) < 2:
            raise GraphError("enumeration needs at least two terminals")
        perm = order.permutation
        if sorted(perm) != list(range(len(g.edges))):
            raise GraphError("edge order is not a permutation of the graph's edges")
        self.shift = shift = max(map(len, g.adjacency)).bit_length() + 1
        self.degree_mask = (1 << shift) - 2
        last = {}  # vertex -> step of its last edge
        for i, idx in enumerate(perm):
            u, v, _ = g.edges[idx]
            last[u] = last[v] = i
        by_leaving = sorted(last, key=lambda z: (last[z], z))
        name = {z: r for r, z in enumerate(by_leaving)}
        terms = g.terminals
        unseen = set(terms)
        self.steps: list[_Step | None] = [None]
        before: tuple[int, ...] = ()  # F_{i-1}, ascending
        for idx, live in zip(perm, frontiers(g, perm)):
            u, v, c = g.edges[idx]
            entering = [z for z in dict.fromkeys((u, v)) if z not in before]
            unseen.difference_update((u, v))
            vertices = before + tuple(entering)
            at = {z: j for j, z in enumerate(vertices)}
            kept = tuple(sorted(live))
            leaving = [z for z in vertices if z not in live]
            self.steps.append(_Step(
                cost=c,
                fresh=tuple(name[z] << shift | (z in terms) for z in entering),
                iu=at[u],
                iv=at[v],
                keep=tuple(at[f] for f in kept),
                nonterminal=tuple(z not in terms for z in kept),
                dropped=tuple(at[z] for z in leaving if z not in terms),
                sealed=tuple(name[z] for z in leaving),
                all_seen=not unseen,
            ))
            before = kept

    def step(self, i: int):
        """Edge i's decision ``(state, include) -> (lo, hi)``, each target
        ZERO, ONE or the successor state.  What is fixed per level is
        planned once: the getter of the kept entries (none when they are
        all the entries, in order), the kept positions of u, v and the
        non-terminals, the leaving non-terminals and the leaving names.

        A non-terminal that leaves as a leaf dies on either branch.
        Exclusion's successor is the kept entries; it dies when it seals
        a terminal-bearing endpoint component (its name is in
        ``sealed``).  Inclusion, skipped unless ``include`` (the caller's
        cost bound), dies on a cycle, and when it seals a
        terminal-bearing merged component while terminals remain
        outside it.  It completes a minimal Steiner tree (ONE) when the
        merged component holds every terminal and no kept non-terminal
        is a leaf.  No other component can then hold edges: it would
        hold no terminal, and its leaves, non-terminals that never left
        as leaves, would still be on the frontier.

        Inclusion merges the endpoint components under the larger name
        (holding a terminal if either did) and bumps both endpoint
        degrees; no other entry changes.  An emptied frontier is ZERO.
        """
        _, fresh, iu, iv, keep, nonterminal, dropped, sealed, all_seen = self.steps[i]
        shift, degree = self.shift, self.degree_mask
        project = None  # None: the kept entries are ext itself, in order
        if sealed or keep != tuple(range(len(keep))):
            project = itemgetter(*keep) if len(keep) > 1 else (
                lambda ext: tuple([ext[j] for j in keep]))
        bumps = [keep.index(j) for j in (iu, iv) if j in keep]
        inner = [k for k, nt in enumerate(nonterminal) if nt]

        def decide(state: tuple, include: bool) -> tuple:
            ext = state + fresh
            eu, ev = ext[iu], ext[iv]
            cu, cv = eu >> shift, ev >> shift
            lo_dies = hi_dies = False  # a leaving non-terminal would be a leaf
            for j in dropped:
                d = ext[j] & degree
                if d == 2:
                    lo_dies = True
                elif not d:
                    hi_dies = True
            entries = ext if project is None else project(ext)

            if lo_dies or eu & 1 and cu in sealed or ev & 1 and cv in sealed:
                lo = ZERO
            else:
                lo = entries or ZERO

            if not include or hi_dies or cu == cv:
                return lo, ZERO
            holds_all = False
            if all_seen:
                # entered terminals are all on the frontier, or all sealed off
                holders = {entry >> shift for entry in ext if entry & 1}
                holds_all = bool(holders) and holders <= {cu, cv}

            m = cu if cu > cv else cv
            t = (eu | ev) & 1
            merged = m << shift | t
            pair = (cu, cv)
            out = [
                merged | entry & degree if entry >> shift in pair else entry
                for entry in entries
            ]
            for k in bumps:
                out[k] += 2
            if holds_all and all(out[k] & degree != 2 for k in inner):
                return lo, ONE
            if t and m in sealed and not holds_all:
                return lo, ZERO
            return lo, tuple(out) or ZERO

        return decide


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

    Levels are processed once each, by their step fetched once; only
    the previous layer's states, the keys of its id table, stay in
    memory.  Nodes with equal states merge and keep the cheaper cost
    into them, so an inclusion dies when even the cheapest path into its
    node, plus the edge, exceeds theta.  Ids are contiguous per level
    and nodes are decided in id order, so each node's arcs are appended
    to the ``lo``/``hi`` arrays as it is decided, and the arrays become
    the diagram's.
    """
    search = FrontierSearch(g, order)
    if theta is not None and theta < 0:
        raise GraphError("theta must be non-negative")
    m = len(order.permutation)
    limit = node_cap + 2  # the first id over the cap

    def over_cap(i: int, base: int) -> NodeCapExceeded:
        sizes = [len(lvl) for lvl in levels[1:]] + [limit - base]
        return NodeCapExceeded(node_cap, i, sizes + [0] * (m - len(sizes)))

    lo = array("q", (-1, -1))
    hi = array("q", (-1, -1))
    levels: list[range] = [range(0), range(2, 3)]  # the root 2 is level 1
    states: dict[tuple, int] = {(): 2}  # state -> id, in id order
    costs: list[int] = [0]  # cheapest path cost into each node of a level
    for i in range(1, m + 1):
        step, c = search.step(i), search.steps[i].cost
        base = new = len(lo) + len(states)  # first id of level i+1
        table: dict[tuple, int] = {}
        place = table.setdefault
        nxt_costs: list[int] = []
        # a target that is not a state is a sink id
        for state, cost in zip(states, costs):
            to_lo, to_hi = step(state, theta is None or cost + c <= theta)
            if to_lo.__class__ is tuple:
                to_lo = place(to_lo, new)
                if to_lo == new:
                    new += 1
                    nxt_costs.append(cost)
                elif cost < nxt_costs[to_lo - base]:
                    nxt_costs[to_lo - base] = cost
            if to_hi.__class__ is tuple:
                cost += c
                to_hi = place(to_hi, new)
                if to_hi == new:
                    new += 1
                    nxt_costs.append(cost)
                elif cost < nxt_costs[to_hi - base]:
                    nxt_costs[to_hi - base] = cost
            lo.append(to_lo)
            hi.append(to_hi)
            if new > limit:
                raise over_cap(i, base)
        costs = nxt_costs
        if i < m:
            levels.append(range(base, new))
        states = table

    # any state surviving past the last level is impossible on connected
    # input; empty successor states were already routed to the 0-sink
    assert not states, "non-sink state escaped the final level"

    return Bdd(
        edge_order=tuple(order.permutation),
        edge_costs=tuple(g.edges[idx][2] for idx in order.permutation),
        root=2,
        lo=lo,
        hi=hi,
        levels=tuple(levels),
    )
