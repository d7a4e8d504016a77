"""Problem instances and graph-level preprocessing.

This module owns the weighted multigraph type, the STP file format
(a SteinLib-compatible subset), deterministic edge ordering for the
layered search, and the lossless degree-2 simplification together with
the map needed to expand trees back onto the original edge set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from collections import deque
import math


class GraphError(ValueError):
    """Invalid graph data (range, weight, connectivity...)."""


class ParseError(GraphError):
    """Malformed STP input.

    Attributes:
        line: 1-based line number of the offending input line, or None
            for file-level problems.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Connected, undirected, integer-weighted multigraph with terminals.

    Vertices are 1-based ids in ``1..vertex_count``.  Edges keep their
    input order; that order is the canonical edge indexing used by every
    downstream structure (trees, orderings, simplification maps).
    Parallel edges are legal and stay distinct.  Self-loops are legal on
    input; simplification removes them.

    ``cost_scale`` records the fixed-point factor applied when decimal
    weights were scaled to integers (1 for integer inputs).  All cost
    arithmetic downstream is exact integer arithmetic in scaled units.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    terminals: frozenset[int]
    cost_scale: int = 1
    adjacency: tuple[tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise GraphError("vertex_count must be positive")
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for idx, (u, v, w) in enumerate(self.edges):
            if not (1 <= u <= n and 1 <= v <= n and w >= 0):
                for z in (u, v):
                    if not 1 <= z <= n:
                        raise GraphError(f"edge {idx}: endpoint {z} out of range")
                raise GraphError(f"edge {idx}: negative weight {w}")
            # a self-loop appears twice in its endpoint's list on purpose:
            # incidence counts treat loops as two edge-ends
            adj[u].append(idx)
            adj[v].append(idx)
        for t in self.terminals:
            if not 1 <= t <= n:
                raise GraphError(f"terminal {t} out of range")
        if self.cost_scale < 1:
            raise GraphError("cost_scale must be >= 1")
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))

        # Terminals and edge endpoints must share one component; other
        # vertices may stay isolated (simplification contracts vertices
        # away, and subgraphs keep the parent's numbering).  The smallest
        # such active vertex starts the search, and the next one it
        # missed is named.
        edges, terminals = self.edges, self.terminals
        seen = bytearray(self.vertex_count + 1)
        searched = False
        for v in range(1, self.vertex_count + 1):
            if seen[v] or not (adj[v] or v in terminals):
                continue
            if searched:
                raise GraphError(f"graph is disconnected: vertex {v} unreachable")
            searched = True
            seen[v] = 1
            stack = [v]
            while stack:
                u = stack.pop()
                for idx in adj[u]:
                    a, b, _ = edges[idx]
                    w = b if a == u else a
                    if not seen[w]:
                        seen[w] = 1
                        stack.append(w)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def other_end(self, edge_idx: int, v: int) -> int:
        u, w, _ = self.edges[edge_idx]
        return w if u == v else u

    def tree_cost(self, edge_indices) -> int:
        return sum(self.edges[i][2] for i in edge_indices)


@dataclass(frozen=True)
class SteinerTree:
    """An edge subset forming a minimal Steiner tree, with its exact cost.

    Edge indices refer to whichever graph the tree was produced on;
    expansion maps translate between graphs.
    """

    edges: frozenset[int]
    cost: int

    def sorted_edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))


# ---------------------------------------------------------------------------
# STP parsing / writing


_MAGIC = "33D32945"
# (section, keyword) of the count declarations
_DECLARATIONS = {("graph", "nodes"), ("graph", "edges"), ("terminals", "terminals")}


def parse_stp(text: str) -> Graph:
    """Parse the SteinLib STP subset into a Graph.

    Recognized structure: an optional magic first line, ``SECTION Graph``
    with ``Nodes``/``Edges`` declarations and ``E u v w`` lines,
    ``SECTION Terminals`` with ``Terminals``/``T v`` lines, arbitrary
    other sections (skipped), and a closing ``EOF``.  Keywords are
    case-insensitive.  Decimal weights are scaled to integers by the
    least common denominator; the factor lands in ``Graph.cost_scale``.
    Each distinct weight token is read as a ``Fraction`` and scaled
    once.  Endpoints are range-checked per column once ``Nodes`` is
    known; only a failure looks up the line of the first bad edge.
    """
    lines = text.splitlines()
    declared: dict[str, int] = {}  # "nodes", "edges", "terminals" -> count
    us: list[int] = []  # the edges by column: endpoints, weight tokens
    vs: list[int] = []
    wtoks: list[str] = []
    weights: dict[str, Fraction] = {}
    terminals: list[int] = []
    section: str | None = None
    saw_graph = False

    def bad(msg: str, ln: int):
        raise ParseError(msg, ln)

    for ln, raw in enumerate(lines, 1):
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head != "E" or section != "graph":  # edge lines skip all this
            if head.startswith(_MAGIC):
                continue
            head = head.lower()
            if section is None:
                if head == "section":
                    if len(tokens) < 2:
                        bad("SECTION needs a name", ln)
                    section = tokens[1].lower()
                    saw_graph = saw_graph or section == "graph"
                elif head == "eof":
                    break
                else:
                    bad(f"unexpected token {tokens[0]!r} outside any section", ln)
                continue
            if head == "end":
                section = None
                continue
            if (section, head) in _DECLARATIONS:
                try:
                    declared[head] = int(tokens[1])
                except (IndexError, ValueError):
                    bad(f"{head.capitalize()} needs an integer count", ln)
                continue
            if section == "terminals" and head == "t":
                try:
                    terminals.append(int(tokens[1]))
                except (IndexError, ValueError):
                    bad("T line needs a vertex id", ln)
                continue
            if section != "graph" or head != "e":
                if section == "graph":
                    bad(f"unknown keyword {tokens[0]!r} in Graph section", ln)
                # other sections, and keywords some instances carry in
                # Terminals (RootP and friends), are skipped
                continue
        if len(tokens) != 4:
            bad("E line needs: E <u> <v> <weight>", ln)
        _, u, v, tok = tokens
        fresh = tok not in weights
        try:
            us.append(int(u))
            vs.append(int(v))
            if fresh:
                f = Fraction(tok)
        except ValueError:
            bad("E line has a non-numeric field", ln)
        except ZeroDivisionError:
            bad(f"weight {tok} has a zero denominator", ln)
        if fresh:
            if f < 0:
                bad(f"negative weight {tok}", ln)
            weights[tok] = f
        wtoks.append(tok)

    if not saw_graph:
        raise ParseError("no Graph section found")
    n = declared.get("nodes")
    if n is None:
        raise ParseError("Graph section lacks a Nodes declaration")
    for key, found, what in (("edges", us, "E"), ("terminals", terminals, "T")):
        if declared.get(key, len(found)) != len(found):
            raise ParseError(f"{key.capitalize()} declares {declared[key]} "
                             f"but {len(found)} {what} lines found")
    if us and not (1 <= min(us) and max(us) <= n and 1 <= min(vs) and max(vs) <= n):
        first = next(j for j, (u, v) in enumerate(zip(us, vs))
                     if not (1 <= u <= n and 1 <= v <= n))
        bad(f"edge endpoint out of range 1..{n}", _edge_line(lines, first))
    for t in terminals:
        if not 1 <= t <= n:
            raise ParseError(f"terminal {t} out of range 1..{n}")

    scale = math.lcm(1, *(f.denominator for f in weights.values()))
    scaled = {tok: f.numerator * scale // f.denominator for tok, f in weights.items()}
    return Graph(
        vertex_count=n,
        edges=tuple(zip(us, vs, map(scaled.__getitem__, wtoks))),
        terminals=frozenset(terminals),
        cost_scale=scale,
    )


def _edge_line(lines: list[str], j: int) -> int:
    """Line number of edge j (0-based) in lines that parse up to it."""
    section = None
    for ln, raw in enumerate(lines, 1):
        tokens = raw.split()
        head = tokens[0].lower() if tokens else ""
        if section is None:
            section = tokens[1].lower() if head == "section" else None
        elif head == "end":
            section = None
        elif section == "graph" and head == "e":
            j -= 1
            if j < 0:
                return ln


def _weight_text(val: Fraction) -> str:
    """A non-negative weight as an exact decimal when its denominator
    divides a power of ten (``15/4`` -> ``3.75``), else as ``p/q``."""
    if val.denominator == 1:
        return str(val.numerator)
    digits = val.denominator.bit_length()  # 2^a 5^b divides 10^digits
    if 10**digits % val.denominator:
        return str(val)
    text = str(val.numerator * 10**digits // val.denominator).zfill(digits + 1)
    return f"{text[:-digits]}.{text[-digits:]}".rstrip("0")


def write_stp(g: Graph) -> str:
    """Render a Graph back to STP text (weights unscaled exactly)."""
    out = [f"{_MAGIC} STP File, STP Format Version 1.0", "", "SECTION Graph"]
    out.append(f"Nodes {g.vertex_count}")
    out.append(f"Edges {len(g.edges)}")
    for u, v, w in g.edges:
        out.append(f"E {u} {v} {_weight_text(Fraction(w, g.cost_scale))}")
    out.append("END")
    out.append("")
    out.append("SECTION Terminals")
    out.append(f"Terminals {len(g.terminals)}")
    for t in sorted(g.terminals):
        out.append(f"T {t}")
    out.append("END")
    out.append("")
    out.append("EOF")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Edge ordering


@dataclass(frozen=True)
class EdgeOrder:
    """A processing order for the layered search.

    ``permutation[i-1]`` is the original edge index processed at step i,
    and ``frontier_width`` is the largest frontier over the steps: the
    vertices incident to both processed and unprocessed edges.  The
    frontiers themselves follow from the order and the graph
    (``frontiers``), so one order serves any graph with these edges.
    """

    permutation: tuple[int, ...]
    frontier_width: int


def default_root(g: Graph) -> int:
    """Terminal with the smallest degree, ties to the smallest id."""
    if not g.terminals:
        raise GraphError("graph has no terminals")
    return min(g.terminals, key=lambda t: (g.degree(t), t))


def order_edges(g: Graph) -> EdgeOrder:
    """The narrower of two breadth-first edge orders.

    Diagram size grows exponentially with the frontier width, so two
    candidates are built, each in O(m): ``bfs_order`` from
    ``default_root(g)`` and from a pseudo-peripheral vertex.  The one
    with the smaller ``(frontier_width, sum of 2^|F_i|)`` wins, the
    first on a tie.  Neither candidate is better on every graph: a BFS
    from one end of a long axis keeps the frontier across the short one,
    but on some graphs the default root is the better start.
    """
    root = default_root(g)
    candidates = (_bfs_edges(g, root), _bfs_edges(g, pseudo_peripheral(g, root)))
    perm, (width, _) = min(
        ((perm, _profile(g, perm)) for perm in candidates), key=lambda pair: pair[1]
    )
    return EdgeOrder(tuple(perm), width)


def _profile(g: Graph, perm: list[int]) -> tuple[int, int]:
    sizes = [len(live) for live in frontiers(g, perm)]
    return max(sizes, default=0), sum(1 << n for n in sizes)


def pseudo_peripheral(g: Graph, start: int) -> int:
    """A vertex of nearly maximal eccentricity in start's component.

    The double sweep of Gibbs, Poole & Stockmeyer (1976): jump to a
    farthest vertex (least degree, then least id) until the
    eccentricity stops growing, and end on the last vertex reached.
    Each sweep is one BFS, and every sweep but the last raises the
    eccentricity, which the diameter bounds.
    """
    ecc, far = _sweep(g, start)
    while True:
        reached = far
        far_ecc, far = _sweep(g, reached)
        if far_ecc <= ecc:
            return reached
        ecc = far_ecc


def _sweep(g: Graph, start: int) -> tuple[int, int]:
    """Eccentricity of start, and its farthest vertex of least degree,
    ties to the least id."""
    seen = {start}
    layer = [start]
    depth = 0
    while True:
        nxt = []
        for u in layer:
            for idx in g.adjacency[u]:
                w = g.other_end(idx, u)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            return depth, min(layer, key=lambda v: (g.degree(v), v))
        layer = nxt
        depth += 1


def bfs_order(g: Graph, start: int | None = None) -> EdgeOrder:
    """Breadth-first edge order from a start vertex.

    The default start is ``default_root(g)``; incident edges are visited
    smallest-neighbor first, then by edge index.  Keeping the traversal
    breadth-first from one vertex keeps the frontier narrow on
    mesh-like instances.
    """
    if start is None:
        start = default_root(g)
    elif not 1 <= start <= g.vertex_count:
        raise GraphError(f"start vertex {start} out of range")
    elif g.edges and not g.adjacency[start]:
        raise GraphError(f"start vertex {start} has no edges")
    perm = _bfs_edges(g, start)
    return EdgeOrder(tuple(perm), _profile(g, perm)[0])


def _bfs_edges(g: Graph, start: int) -> list[int]:
    seen_edge = [False] * len(g.edges)
    seen_vertex = [False] * (g.vertex_count + 1)
    seen_vertex[start] = True
    queue = deque([start])
    perm: list[int] = []
    while queue:
        u = queue.popleft()
        incident = sorted(
            set(g.adjacency[u]), key=lambda i: (g.other_end(i, u), i)
        )
        for idx in incident:
            if seen_edge[idx]:
                continue
            seen_edge[idx] = True
            perm.append(idx)
            w = g.other_end(idx, u)
            if not seen_vertex[w]:
                seen_vertex[w] = True
                queue.append(w)
    if len(perm) != len(g.edges):
        raise GraphError("edge order did not reach every edge; graph disconnected")
    return perm


def frontiers(g: Graph, perm):
    """The frontier after each step of perm, as one set updated in place:
    a vertex is on it from its first edge until its last."""
    undecided = [len(a) for a in g.adjacency]
    live: set[int] = set()
    for idx in perm:
        u, v, _ = g.edges[idx]
        undecided[u] -= 1
        undecided[v] -= 1
        for z in (u, v):
            if undecided[z]:
                live.add(z)
            else:
                live.discard(z)
        yield live


# ---------------------------------------------------------------------------
# Lossless simplification


@dataclass(frozen=True)
class SimplificationMap:
    """Expansion data for trees found on a simplified graph.

    ``replacements[j]`` is the ordered list of original edge indices that
    simplified edge j stands for (a single index when the edge was left
    alone).  ``removed_loops`` lists original edges that vanished into
    self-loops; no minimal tree can use them.
    """

    replacements: tuple[tuple[int, ...], ...]
    removed_loops: tuple[int, ...]


def simplify(g: Graph) -> tuple[Graph, SimplificationMap]:
    """Contract degree-2 non-terminals and drop self-loops, to fixpoint.

    Contraction merges the two edges at a degree-2 non-terminal into one
    edge whose weight is the sum and whose expansion chain concatenates
    the originals.  Parallel edges produced this way are kept distinct;
    they stand for different original paths.  The transformation is
    lossless: minimal Steiner trees correspond one-to-one through
    ``expand_tree`` with equal cost.

    One worklist of degree-2 non-terminals runs over a live incidence
    map, in time linear in the edge count.  A chain record keeps its two
    endpoints, its cost and its two end edges; each original edge links
    to its neighbours in the chain, so joining two chains at a vertex is
    O(1) and reverses nothing.  A join that closes a loop drops the loop
    and re-queues the anchor vertex, which has lost two edge-ends.  Each
    surviving chain is walked once at the end, from its smaller
    endpoint; the simplified edges are listed by the smallest original
    index in their chain.
    """
    terminals = g.terminals
    # record id -> [u, v, cost, end edge at u, end edge at v]; a record
    # starts as one input edge and keeps that edge's index as its id
    recs: dict[int, list[int]] = {}
    incident: dict[int, set[int]] = {}  # vertex -> ids of live records at it
    links = [-1] * (2 * len(g.edges))  # slots 2i, 2i+1: chain neighbours of edge i
    removed_loops: list[int] = []
    for i, (u, v, w) in enumerate(g.edges):
        if u == v:
            removed_loops.append(i)
            continue
        recs[i] = [u, v, w, i, i]
        incident.setdefault(u, set()).add(i)
        incident.setdefault(v, set()).add(i)

    work = [v for v, inc in incident.items() if len(inc) == 2 and v not in terminals]
    while work:
        v = work.pop()
        if len(incident[v]) != 2:  # a loop closed at v since it was queued
            continue
        ra, rb = incident.pop(v)
        a, b = recs[ra], recs.pop(rb)
        # read a as x -> v and b as v -> y; ea and eb are the edges at v
        x, ex, ea = (a[0], a[3], a[4]) if a[1] == v else (a[1], a[4], a[3])
        y, ey, eb = (b[1], b[4], b[3]) if b[0] == v else (b[0], b[3], b[4])
        # each edge fills its first free neighbour slot
        links[2 * ea + (links[2 * ea] >= 0)] = eb
        links[2 * eb + (links[2 * eb] >= 0)] = ea
        inc_y = incident[y]
        inc_y.discard(rb)
        if x == y:
            inc_y.discard(ra)
            del recs[ra]
            removed_loops.extend(_chain(links, ex))
            if len(inc_y) == 2 and x not in terminals:
                work.append(x)
        else:
            inc_y.add(ra)
            recs[ra] = [x, y, a[2] + b[2], ex, ey]

    final = []
    for u, v, w, eu, ev in recs.values():
        if u > v:  # canonical orientation: small endpoint first
            u, v, eu = v, u, ev
        final.append((u, v, w, _chain(links, eu)))
    final.sort(key=lambda rec: min(rec[3]))
    simplified = Graph(
        vertex_count=g.vertex_count,
        edges=tuple((u, v, w) for u, v, w, _ in final),
        terminals=terminals,
        cost_scale=g.cost_scale,
    )
    replacements = tuple(tuple(chain) for *_, chain in final)
    return simplified, SimplificationMap(replacements, tuple(sorted(removed_loops)))


def _chain(links: list[int], start: int) -> list[int]:
    """Original edges of the chain whose end edge is start, in path order."""
    chain = [start]
    prev, cur = -1, start
    while True:
        first = links[2 * cur]
        nxt = links[2 * cur + 1] if first == prev else first
        if nxt < 0:
            return chain
        chain.append(nxt)
        prev, cur = cur, nxt


def expand_tree(tree: SteinerTree, smap: SimplificationMap) -> SteinerTree:
    """Translate a tree on the simplified graph back to original edges."""
    out: set[int] = set()
    for idx in tree.edges:
        if not 0 <= idx < len(smap.replacements):
            raise GraphError(f"edge index {idx} not covered by the map")
        out.update(smap.replacements[idx])
    return SteinerTree(frozenset(out), tree.cost)
