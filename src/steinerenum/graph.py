"""Problem instances and graph-level preprocessing.

This module owns the weighted multigraph type, the STP file format
(a SteinLib-compatible subset), deterministic edge ordering for the
layered search, and the lossless degree-2 simplification together with
the map needed to expand trees back onto the original edge set.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
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


class Record:
    """Base of the package's frozen records, without generated code.

    A record lists its fields once, as class annotations in constructor
    order; a class attribute of a field's name is its default, shared by
    every instance, so a default must be immutable.  The constructor
    takes the fields by position or name, then runs ``__post_init__``.
    Setting or deleting a field raises AttributeError; equality, hash and
    repr go over the fields in order.  ``_replace`` copies a record with
    some fields changed, through the constructor and its checks.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes at most {len(cls._fields)} fields")
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                object.__setattr__(self, name, kwargs.pop(name))
            elif name in cls.__dict__:
                object.__setattr__(self, name, cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__} needs field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unknown or repeated {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _frozen(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class Graph(Record):
    """Connected, undirected, integer-weighted multigraph with terminals.

    Vertices are 1-based ids in ``1..vertex_count``.  Edges keep their
    input order; that order is the canonical edge indexing used by every
    downstream structure (trees, orderings, simplification maps).
    Parallel edges are legal and stay distinct.  Self-loops are legal on
    input; simplification removes them.  ``adjacency[v]`` lists the
    edges at v, a self-loop twice; it follows from the fields and takes
    no part in equality, hash or repr.

    ``cost_scale`` records the fixed-point factor applied when decimal
    weights were scaled to integers (1 for integer inputs).  All cost
    arithmetic downstream is exact integer arithmetic in scaled units.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    terminals: frozenset[int]
    cost_scale: int = 1

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


class SteinerTree(Record):
    """An edge subset forming a minimal Steiner tree, with its exact cost.

    Edge indices refer to whichever graph the tree was produced on;
    expansion maps translate between graphs.  A run builds one per tree
    written, so the constructor is written out and the fields are slots.
    """

    __slots__ = ("edges", "cost")
    edges: frozenset[int]
    cost: int

    def __init__(self, edges: frozenset[int], cost: int):
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "cost", cost)

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


class EdgeOrder(Record):
    """A processing order for the layered search.

    ``permutation[i-1]`` is the original edge index processed at step i,
    and ``frontier_width`` is the largest frontier over the steps: the
    vertices incident to both processed and unprocessed edges.  The
    frontiers follow from the order and the graph, so one order serves
    any graph with these edges.  ``order_edges`` picks among
    greedy vertex sweeps by a score S, not by width.
    """

    permutation: tuple[int, ...]
    frontier_width: int


def default_root(g: Graph) -> int:
    """Terminal with the smallest degree, ties to the smallest id."""
    if not g.terminals:
        raise GraphError("graph has no terminals")
    return min(g.terminals, key=lambda t: (g.degree(t), t))


def order_edges(g: Graph) -> EdgeOrder:
    """The greedy vertex sweep (``_greedy_edges``) with the least
    frontier-state score S.

    S sums over the steps i the product over the frontier F_i of
    (1 + min(d_i(v), 2)), d_i(v) the decided edge-ends at v (a loop
    counts twice); unlike the width, it follows the constructed node
    count.  Sweeps start from ``default_root(g)``, then from the vertex
    that sweep discovers last, then from every other vertex with edges
    by ascending id.  The root's sweep always runs.  A sweep is charged
    m edge steps, and no later one starts that would take the steps
    spent on sweeps past min(best S so far, 2^14), so the search costs
    no more than the diagram it predicts.  Each sweep scores itself as
    it goes, and a later one stops once its running S reaches the best
    so far: the lowest S wins, the earlier sweep on a tie.
    """
    root = default_root(g)
    # sweeps number the vertices with edges (and the root, on a graph with
    # none) 0, 1, ... by ascending id, so their state grows with those
    # alone, not with the unused ids that seed unions keep
    active = [z for z, a in enumerate(g.adjacency) if a or z == root]
    at = [0] * len(g.adjacency)
    for j, z in enumerate(active):
        at[z] = j
    ends = [(at[u], at[v]) for u, v, _ in g.edges]
    adj = [g.adjacency[z] for z in active]
    nbrs = [{} for _ in active]  # neighbour -> edge count, loops left out
    for u, v in ends:
        if u != v:
            nu, nv = nbrs[u], nbrs[v]
            nu[v] = nu.get(v, 0) + 1
            nv[u] = nv.get(u, 0) + 1
    perm, last, score, width = _greedy_edges(at[root], adj, ends, nbrs, math.inf)
    spent, swept = len(g.edges), {at[root]}
    for start in chain((last,), range(len(active))):
        if start in swept:
            continue
        spent += len(g.edges)
        if spent > min(score, 1 << 14):
            break
        swept.add(start)
        sweep = _greedy_edges(start, adj, ends, nbrs, score)
        if sweep:
            perm, _, score, width = sweep
    return EdgeOrder(tuple(perm), width)


def _greedy_edges(
    start: int,
    adj: list,
    ends: list[tuple[int, int]],
    nbrs: list[dict[int, int]],
    bound: float,
) -> tuple[list[int], int, int, int] | None:
    """The greedy vertex sweep from start: its edge order, the vertex it
    discovered last, and the order's S (see ``order_edges``) and
    frontier width; None once the running S reaches bound.  Vertices
    are numbered 0, 1, ...: ``adj`` holds each one's incident edge
    indices, ``ends`` each edge's endpoints and ``nbrs`` each one's
    neighbours with the number of edges to them.

    The sweep places start, then one at a time the unplaced neighbour of
    placed vertices whose placement multiplies the frontier product
    least, ties to the one discovered first.  Placing a vertex decides
    its loops and its edges to unplaced vertices, by when their far ends
    were discovered, then by edge index; each decided edge-end updates
    its vertex's factor in the product and the running S and width.  A
    key is that multiplier, 2^a 3^b with a, b >= -(K+1), times 6^(K+1),
    K the most neighbours of any vertex: an exact integer.  Keys sit in
    a heap, and a placement recomputes only those of the vertex's
    neighbours and theirs.
    """
    deg = list(map(len, adj))
    done = [0] * len(deg)  # decided edge-ends
    fac = [1] * len(deg)  # factor in the frontier product: 1, 2 or 3
    stamp = [-1] * len(deg)  # discovery order, -1 until discovered
    placed = [False] * len(deg)
    scale = 6 ** (max(map(len, nbrs)) + 1)

    def key(w: int) -> int:
        num, den = 1, fac[w]
        for x, c in nbrs[w].items():
            if not placed[x]:
                d = done[x] + c
                num *= 1 if d == deg[x] else 2 if d == 1 else 3
                den *= fac[x]
        return num * scale // den

    current = {start: 0}
    heap = [(0, 0, start)]
    stamp[start] = 0
    discovered, last = 1, start
    perm: list[int] = []
    product, total, live, width = 1, 0, 0, 0
    while heap:
        k, _, w = heappop(heap)
        if placed[w] or current[w] != k:
            continue
        placed[w] = True
        redo = set()
        for x in nbrs[w]:  # by first edge to x, as found
            if not placed[x]:
                if stamp[x] < 0:
                    stamp[x], discovered, last = discovered, discovered + 1, x
                redo.add(x)
                redo.update(y for y in nbrs[x] if not placed[y] and stamp[y] >= 0)
        decided = set()
        for i in adj[w]:
            a, b = ends[i]
            x = b if a == w else a
            if x == w or not placed[x]:
                decided.add((stamp[x], i))
        for _, i in sorted(decided):
            perm.append(i)
            for z in ends[i]:
                d = done[z] = done[z] + 1
                if d == deg[z]:
                    product //= fac[z]
                    live -= fac[z] > 1
                    fac[z] = 1
                elif d == 1:
                    product *= 2
                    live += 1
                    fac[z] = 2
                elif d == 2:
                    product = product // 2 * 3
                    fac[z] = 3
            total += product
            if live > width:
                width = live
        if total >= bound:
            return None
        for y in redo:
            k = key(y)
            if current.get(y) != k:
                current[y] = k
                heappush(heap, (k, stamp[y], y))
    return perm, last, total, width


# ---------------------------------------------------------------------------
# Lossless simplification


class SimplificationMap(Record):
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
    """Translate a tree on the simplified graph back to original edges.

    The tree maps in one pass of C-level calls.  A negative index would
    read from the end of the map, so ``min`` rules those out first; an
    index past the end stops the pass.  Either way the error names the
    first bad index in iteration order."""
    edges, reps = tree.edges, smap.replacements
    try:
        if edges and min(edges) < 0:
            raise IndexError
        out = frozenset(chain.from_iterable(map(reps.__getitem__, edges)))
    except IndexError:
        bad = next(i for i in edges if not 0 <= i < len(reps))
        raise GraphError(f"edge index {bad} not covered by the map") from None
    return SteinerTree(out, tree.cost)
