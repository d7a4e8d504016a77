"""Brute-force reference answers for small instances.

Deliberately independent of the production code paths: the subset sweep
below does its own cycle, connectivity and leaf checks so that agreement
with the main pipeline means something.
"""

from __future__ import annotations

from steinerenum.graph import Graph, SteinerTree


MAX_EDGES = 24


class OracleError(ValueError):
    pass


def brute_force_minimal_steiner(
    g: Graph, theta: int | None = None
) -> tuple[SteinerTree, ...]:
    """Every minimal Steiner tree of cost <= theta, by 2^|E| subset sweep.

    A subset qualifies when it is acyclic, puts all terminals in one
    component, and has no non-terminal leaf.  Results come back sorted by
    (cost, edge indices).  Guarded to MAX_EDGES edges because the sweep
    is exponential.
    """
    m = len(g.edges)
    if m > MAX_EDGES:
        raise OracleError(f"{m} edges exceeds the brute-force guard ({MAX_EDGES})")
    terms = sorted(g.terminals)
    if len(terms) < 2:
        raise OracleError("need at least two terminals")

    edges = g.edges
    found: list[tuple[int, tuple[int, ...], frozenset[int]]] = []
    for mask in range(1 << m):
        chosen = [i for i in range(m) if mask >> i & 1]
        # forest check via union-find
        parent = list(range(g.vertex_count + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        cyclic = False
        cost = 0
        deg: dict[int, int] = {}
        for i in chosen:
            u, v, w = edges[i]
            cost += w
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
            ru, rv = find(u), find(v)
            if ru == rv:
                cyclic = True
                break
            parent[ru] = rv
        if cyclic:
            continue
        if theta is not None and cost > theta:
            continue
        root = find(terms[0])
        if any(find(t) != root for t in terms[1:]):
            continue
        if any(d == 1 and v not in g.terminals for v, d in deg.items()):
            continue
        key = tuple(sorted(chosen))
        found.append((cost, key, frozenset(chosen)))

    found.sort(key=lambda rec: (rec[0], rec[1]))
    return tuple(SteinerTree(fs, c) for c, _, fs in found)
