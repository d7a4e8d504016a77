"""Shared instance generators.

Everything here is deterministic given the caller's Random instance, so
test failures reproduce bit for bit.  Instances are deliberately tiny:
the brute-force oracle sweeps 2^|E| edge subsets.
"""

import random
from collections import deque

import pytest

from perfbench.instances import grid
from steinerenum import EdgeOrder, Graph, GraphError, OracleError
from steinerenum.graph import default_root

_summary_lines: list[str] = []


def record_line(line: str):
    """Collect a per-criterion verdict for the terminal summary."""
    _summary_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _summary_lines:
        terminalreporter.section("acceptance criteria")
        for line in _summary_lines:
            terminalreporter.write_line(line)


def random_connected_graph(
    rng: random.Random,
    max_vertices: int = 8,
    max_edges: int = 14,
    terminal_sizes=(2, 3, 4),
    weight_lo: int = 1,
    weight_hi: int = 10,
    min_vertices: int = 2,
) -> Graph:
    """Random simple connected graph: spanning tree plus extra edges."""
    n = rng.randint(min_vertices, max_vertices)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = []
    present = set()
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        key = (min(a, b), max(a, b))
        present.add(key)
        edges.append((key[0], key[1], rng.randint(weight_lo, weight_hi)))
    room = min(max_edges, n * (n - 1) // 2) - len(edges)
    for _ in range(rng.randint(0, max(room, 0))):
        a, b = rng.sample(range(1, n + 1), 2)
        key = (min(a, b), max(a, b))
        if key in present:
            continue
        present.add(key)
        edges.append((key[0], key[1], rng.randint(weight_lo, weight_hi)))
    size = rng.choice([s for s in terminal_sizes if s <= n])
    terminals = frozenset(rng.sample(range(1, n + 1), size))
    return Graph(n, tuple(edges), terminals)


def subdivide_edge(g: Graph, edge_idx: int, rng: random.Random) -> Graph:
    """Split one edge with a fresh vertex, forcing a degree-2 non-terminal."""
    u, v, w = g.edges[edge_idx]
    nv = g.vertex_count + 1
    edges = list(g.edges)
    edges[edge_idx] = (u, nv, w)
    edges.append((nv, v, rng.randint(1, 10)))
    return Graph(nv, tuple(edges), g.terminals)


def add_parallel_edge_and_loop(
    g: Graph, rng: random.Random, loop_at_terminal: bool
) -> Graph:
    """Add a copy of a random edge (same or zero weight) and a self-loop,
    each at a random position in the edge list.  The loop sits at a
    terminal, or at a non-terminal when ``loop_at_terminal`` is false
    and one exists."""
    edges = list(g.edges)
    u, v, w = rng.choice(edges)
    edges.insert(rng.randrange(len(edges) + 1), (u, v, rng.choice((w, 0))))
    others = sorted(set(range(1, g.vertex_count + 1)) - g.terminals)
    pool = others if others and not loop_at_terminal else sorted(g.terminals)
    z = rng.choice(pool)
    edges.insert(rng.randrange(len(edges) + 1), (z, z, rng.randint(0, 10)))
    return Graph(g.vertex_count, tuple(edges), g.terminals)


def add_hub(g: Graph, rng: random.Random, degree: int) -> Graph:
    """Add a vertex joined to every vertex of g, and by parallel edges to
    random ones until it has ``degree`` edges, each new edge at a random
    position in the edge list.  The hub is a terminal half the time."""
    hub = g.vertex_count + 1
    ends = list(range(1, hub))
    ends += [rng.randrange(1, hub) for _ in range(degree - len(ends))]
    edges = list(g.edges)
    for z in ends:
        edges.insert(rng.randrange(len(edges) + 1), (z, hub, rng.randint(1, 10)))
    terminals = g.terminals | {hub} if rng.random() < 0.5 else g.terminals
    return Graph(hub, tuple(edges), terminals)


def grid_graph(rows: int, cols: int, terminals, weight_seed: int = 7) -> Graph:
    """The benchmark's grid with its weights and these terminals; vertex
    (r, c) is r*cols + c + 1."""
    inst = grid(rows, cols, random.Random(weight_seed))
    edges = tuple((u, v, int(w)) for u, v, w in inst.edges)
    return Graph(inst.vertex_count, edges, frozenset(terminals))


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
    return EdgeOrder(tuple(perm), max(map(len, frontiers(g, perm)), default=0))


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


def count_simple_paths(g: Graph, s: int, t: int) -> int:
    """Number of simple s-t paths, counting parallel edges separately."""
    if s == t:
        raise OracleError("endpoints must differ")
    on_path = [False] * (g.vertex_count + 1)
    on_path[s] = True
    adj = g.adjacency
    edges = g.edges

    def walk(u: int) -> int:
        if u == t:
            return 1
        total = 0
        for idx in adj[u]:
            eu, ev, _ = edges[idx]
            w = ev if eu == u else eu
            if not on_path[w]:
                on_path[w] = True
                total += walk(w)
                on_path[w] = False
        return total

    return walk(s)


@pytest.fixture
def triangle() -> Graph:
    """Terminals 1 and 3; best tree {e0, e1} cost 2, runner-up {e2} cost 3."""
    return Graph(3, ((1, 2, 1), (2, 3, 1), (1, 3, 3)), frozenset({1, 3}))


@pytest.fixture
def triangle_all_terminals() -> Graph:
    return Graph(3, ((1, 2, 1), (2, 3, 1), (1, 3, 3)), frozenset({1, 2, 3}))


@pytest.fixture
def square() -> Graph:
    """4-cycle, terminals at opposite corners; two path trees."""
    return Graph(
        4, ((1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 3)), frozenset({1, 3})
    )


TRIANGLE_STP = """\
33D32945 STP File, STP Format Version 1.0

SECTION Graph
Nodes 3
Edges 3
E 1 2 1
E 2 3 1
E 1 3 3
END

SECTION Terminals
Terminals 2
T 1
T 3
END

EOF
"""
