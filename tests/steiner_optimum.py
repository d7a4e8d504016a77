"""Exact Steiner tree cost by Dreyfus & Wagner (1971), independent of the
frontier construction.

This is the form with one Dijkstra per terminal subset (Erickson, Monma
& Veinott 1987): ``best[S][v]`` is the cheapest tree joining the
terminals in S and vertex v.  A subset's labels start as the cheapest
merge at v of two complementary parts of S, and one multi-source
Dijkstra then grows them along the edges.  Time O(3^t n + 2^t m log n)
for t terminals, so it reaches graphs far past the brute-force oracle.
"""

from heapq import heapify, heappop, heappush
from math import inf
from operator import add

from steinerenum import Graph


def steiner_optimum(g: Graph) -> int:
    """Cost of a cheapest tree of g that joins all its terminals."""
    adj = [[] for _ in range(g.vertex_count + 1)]
    for u, v, w in g.edges:
        if u != v:
            adj[u].append((v, w))
            adj[v].append((u, w))
    *rest, root = sorted(g.terminals)
    best = [None]
    for s in range(1, 1 << len(rest)):
        if s & (s - 1) == 0:  # one terminal: plain distances
            dist = [inf] * len(adj)
            dist[rest[s.bit_length() - 1]] = 0
        else:  # merge two parts, the first holding the lowest terminal
            low, dist = s & -s, [inf] * len(adj)
            a = (s - 1) & s
            while a:
                if a & low:
                    dist = list(map(min, dist, map(add, best[a], best[s ^ a])))
                a = (a - 1) & s
        heap = [(d, v) for v, d in enumerate(dist) if d < inf]
        heapify(heap)
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heappush(heap, (d + w, v))
        best.append(dist)
    return best[-1][root] if rest else 0
