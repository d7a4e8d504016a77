"""Seed-tree heuristic: shortest-path trees, perturbation, union subgraph."""

import heapq
import math
import random

import pytest

from steinerenum import (
    Graph,
    GraphError,
    SeedConfig,
    SteinerTree,
    brute_force_minimal_steiner,
    select_seeds,
    tosp_tree,
    union_subgraph,
    validate_tree,
)
from steinerenum.seeds import (
    SeedSelection,
    UnreachableTerminal,
    _stop_arcs,
    default_root,
)
from .conftest import random_connected_graph


# -- test-only reference: seed selection with a separate connectivity
# search before each perturbed shortest-path tree, as it stood before
# select_seeds built each tree from the search that checks reachability,
# and with the leaf-stripping pass that tosp_tree dropped as a no-op on
# its own output (test_matches_reference_with_retries pins that claim).
# Its search visits every vertex, where tosp_tree's skips degree-2 chains.


def reference_dijkstra(g: Graph, root: int, banned: frozenset[int]):
    """Shortest paths with the production tie rule, every vertex a stop."""
    inf = math.inf
    edges, adjacency = g.edges, g.adjacency
    heappop, heappush = heapq.heappop, heapq.heappush
    dist: list[float] = [inf] * (g.vertex_count + 1)
    pred_edge: list[int] = [-1] * (g.vertex_count + 1)
    pred_vertex: list[int] = [0] * (g.vertex_count + 1)
    dist[root] = 0
    done = [False] * (g.vertex_count + 1)
    heap: list[tuple[float, int]] = [(0, root)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for idx in adjacency[u]:
            if idx in banned:
                continue
            a, b, cost = edges[idx]
            w = b if a == u else a
            if done[w]:
                continue
            nd = d + cost
            if nd < dist[w]:
                dist[w] = nd
                pred_vertex[w] = u
                pred_edge[w] = idx
                heappush(heap, (nd, w))
            elif nd == dist[w] and (u, idx) < (pred_vertex[w], pred_edge[w]):
                pred_vertex[w] = u
                pred_edge[w] = idx
    return dist, pred_edge, pred_vertex


def minimalize(edge_indices: set[int], g: Graph) -> set[int]:
    """Strip non-terminal leaf edges until every leaf is a terminal."""
    chosen = set(edge_indices)
    while True:
        deg: dict[int, int] = {}
        incident: dict[int, list[int]] = {}
        for idx in chosen:
            u, v, _ = g.edges[idx]
            for z in (u, v):
                deg[z] = deg.get(z, 0) + 1
                incident.setdefault(z, []).append(idx)
        victims = [
            v for v, d in deg.items() if d == 1 and v not in g.terminals
        ]
        if not victims:
            return chosen
        for v in victims:
            chosen.discard(incident[v][0])


def reference_tosp_tree(
    g: Graph, root: int | None = None, banned: frozenset[int] = frozenset()
):
    if root is None:
        root = default_root(g)
    elif root not in g.terminals:
        raise GraphError(f"seed root {root} is not a terminal")
    dist, pred_edge, _ = reference_dijkstra(g, root, banned)
    chosen: set[int] = set()
    for t in sorted(g.terminals):
        if dist[t] == math.inf:
            raise GraphError(f"terminal {t} unreachable from root {root}")
        v = t
        while v != root:
            idx = pred_edge[v]
            chosen.add(idx)
            v = g.other_end(idx, v)
    chosen = minimalize(chosen, g)
    return SteinerTree(frozenset(chosen), g.tree_cost(chosen))


def reference_terminals_connected(g: Graph, banned: set[int]) -> bool:
    edges, adjacency = g.edges, g.adjacency
    terms = sorted(g.terminals)
    seen = {terms[0]}
    stack = [terms[0]]
    while stack:
        u = stack.pop()
        for idx in adjacency[u]:
            if idx in banned:
                continue
            a, b, _ = edges[idx]
            w = b if a == u else a
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return all(t in seen for t in terms)


def reference_select_seeds(
    g: Graph, cfg: SeedConfig = SeedConfig(), root: int | None = None
) -> SeedSelection:
    trees: list[SteinerTree] = [reference_tosp_tree(g, root)]
    m = len(g.edges)
    delete_count = math.ceil(cfg.perturb_fraction * m)
    for seed_index in range(1, cfg.num_seeds):
        if delete_count == 0:
            break  # perturbed runs would all repeat the first tree
        rng = random.Random(f"{cfg.rng_seed}:{seed_index}")
        for _ in range(cfg.max_retries):
            banned = set(rng.sample(range(m), min(delete_count, m)))
            if reference_terminals_connected(g, banned):
                trees.append(reference_tosp_tree(g, root, frozenset(banned)))
                break
        # retries exhausted: this seed is skipped; callers see fewer trees

    distinct: list[SteinerTree] = []
    seen: set[frozenset[int]] = set()
    for t in trees:
        if t.edges not in seen:
            seen.add(t.edges)
            distinct.append(t)
    union: set[int] = set()
    for t in distinct:
        union |= t.edges
    sub, edge_map = union_subgraph(g, union)
    return SeedSelection(sub, edge_map, tuple(distinct), cfg.num_seeds)


def chain_rich_graph(rng: random.Random) -> Graph:
    """Small connected multigraph made of paths through fresh vertices.

    A random spanning tree of paths joins 2-5 core vertices, and up to
    four extras hang off random vertices: a path to any vertex (a
    parallel edge when it has no inner vertex), a cycle back to its
    start, a dead end or a self-loop.  Weights 0-3 make ties common and
    put zero-weight edges inside chains; edge order is shuffled, and
    terminals may sit inside a chain.
    """
    core = rng.randint(2, 5)
    n = core
    edges = []

    def path(u, v, inner):  # v None: a dead end after the inner vertices
        nonlocal n
        prev = u
        for _ in range(inner):
            n += 1
            edges.append((prev, n, rng.choice((0, 1, 1, 2, 3))))
            prev = n
        if v is not None:
            edges.append((prev, v, rng.choice((0, 1, 1, 2, 3))))

    for v in range(2, core + 1):
        path(rng.randint(1, v - 1), v, rng.randint(0, 3))
    for _ in range(rng.randint(0, 4)):
        u = rng.randint(1, n)
        kind = rng.randrange(4)
        if kind == 0:
            path(u, rng.randint(1, n), rng.randint(0, 3))
        elif kind == 1:
            path(u, u, rng.randint(1, 3))  # hanging cycle
        elif kind == 2:
            path(u, None, rng.randint(1, 3))
        else:
            path(u, u, 0)  # self-loop
    rng.shuffle(edges)
    terminals = rng.sample(range(1, n + 1), rng.randint(2, min(4, n)))
    return Graph(n, tuple(edges), frozenset(terminals))


class TestTosp:
    def test_triangle_prefers_cheap_path(self, triangle):
        t = tosp_tree(triangle)
        assert t.edges == frozenset({0, 1})
        assert t.cost == 2

    def test_valid_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_connected_graph(rng)
            t = tosp_tree(g)
            assert validate_tree(t, g)
            assert g.tree_cost(t.edges) == t.cost
            optimum = brute_force_minimal_steiner(g)[0].cost
            assert t.cost >= optimum

    def test_banned_edges_avoided(self, triangle):
        t = tosp_tree(triangle, banned=frozenset({0}))
        assert t.edges == frozenset({2})

    def test_root_must_be_terminal(self, triangle):
        with pytest.raises(GraphError):
            tosp_tree(triangle, root=2)

    def test_unreachable_terminal_raises(self, triangle):
        with pytest.raises(GraphError, match="unreachable"):
            tosp_tree(triangle, banned=frozenset({0, 2}))

    def test_deterministic(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_connected_graph(rng)
            assert tosp_tree(g).edges == tosp_tree(g).edges

    def test_default_root_min_degree(self):
        g = Graph(
            4, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1)), frozenset({1, 4})
        )
        assert default_root(g) == 4


    def test_chain_skipping_matches_flat_search(self):
        """The search that walks through degree-2 chains selects the flat
        reference's tree, or fails as it does, from every terminal root
        and with banned edges that cut chains."""
        rng = random.Random(47)
        compared = unreachable = 0
        for _ in range(1500):
            g = chain_rich_graph(rng)
            m = len(g.edges)
            bans = [frozenset()] + [
                frozenset(rng.sample(range(m), min(m, rng.randint(1, 2))))
                for _ in range(2)
            ]
            for root in sorted(g.terminals):
                for banned in bans:
                    try:
                        want = reference_tosp_tree(g, root, banned)
                    except GraphError:
                        want = None
                    try:
                        got = tosp_tree(g, root, banned)
                    except UnreachableTerminal:
                        got = None
                    assert got == want, (g, root, banned)
                    compared += 1
                    unreachable += want is None
        assert compared > 10_000 and 0 < unreachable < compared


class TestSelectSeeds:
    def test_single_seed_no_perturbation(self, triangle):
        sel = select_seeds(triangle, SeedConfig(num_seeds=1))
        assert len(sel.seed_trees) == 1
        assert sel.seed_trees[0].edges == frozenset({0, 1})
        assert sel.requested == 1

    def test_zero_perturbation_skips_reruns(self, triangle):
        sel = select_seeds(
            triangle, SeedConfig(num_seeds=5, perturb_fraction=0.0)
        )
        assert len(sel.seed_trees) == 1
        assert sel.requested == 5

    def test_seeds_are_valid_and_distinct(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_connected_graph(rng, max_vertices=8, max_edges=14)
            sel = select_seeds(g, SeedConfig(num_seeds=4, perturb_fraction=0.2))
            seen = set()
            for t in sel.seed_trees:
                assert validate_tree(t, g)
                assert t.edges not in seen
                seen.add(t.edges)

    def test_union_subgraph_structure(self):
        rng = random.Random(29)
        g = random_connected_graph(rng, max_vertices=8, max_edges=14)
        sel = select_seeds(g, SeedConfig(num_seeds=3, perturb_fraction=0.2))
        union = set()
        for t in sel.seed_trees:
            union |= t.edges
        assert set(sel.edge_map) == union
        assert list(sel.edge_map) == sorted(sel.edge_map)
        for j, parent_idx in enumerate(sel.edge_map):
            assert sel.graph.edges[j] == g.edges[parent_idx]
        assert sel.graph.terminals == g.terminals
        assert sel.graph.vertex_count == g.vertex_count

    def test_same_seed_reproduces(self):
        rng = random.Random(41)
        g = random_connected_graph(rng, max_vertices=8, max_edges=14)
        cfg = SeedConfig(num_seeds=4, perturb_fraction=0.3, rng_seed=9)
        a = select_seeds(g, cfg)
        b = select_seeds(g, cfg)
        assert [t.edges for t in a.seed_trees] == [t.edges for t in b.seed_trees]
        assert a.edge_map == b.edge_map

    def test_matches_reference_with_retries(self):
        """One search per perturbed attempt selects exactly what a
        connectivity check followed by a second search did, including
        seeds that need retries and seeds whose retries run out."""
        rng = random.Random(43)
        retried = exhausted = 0
        for n in range(400):
            g = random_connected_graph(rng, max_vertices=8, max_edges=14)
            cfg = SeedConfig(
                num_seeds=4,
                perturb_fraction=rng.choice((0.3, 0.4, 0.5, 0.6)),
                rng_seed=n,
                max_retries=rng.choice((2, 5)),
            )
            root = rng.choice([None, *sorted(g.terminals)])
            got = select_seeds(g, cfg, root)
            want = reference_select_seeds(g, cfg, root)
            assert got.seed_trees == want.seed_trees
            assert got.edge_map == want.edge_map
            assert got.graph == want.graph
            assert got.requested == want.requested
            # replay the samples to see which retry paths were taken
            m = len(g.edges)
            for seed_index in range(1, cfg.num_seeds):
                sampler = random.Random(f"{cfg.rng_seed}:{seed_index}")
                for attempt in range(cfg.max_retries):
                    banned = set(sampler.sample(range(m), math.ceil(
                        cfg.perturb_fraction * m)))
                    if reference_terminals_connected(g, banned):
                        retried += attempt > 0
                        break
                else:
                    exhausted += 1
        assert retried > 0 and exhausted > 0

    def test_chain_rich_matches_reference_with_retries(self):
        """All searches of one selection share the stop arcs walked
        once: perturbed searches whose bans cut chains, retries
        included, select what the flat reference selects."""
        rng = random.Random(53)
        cut_later = retried = 0
        for n in range(400):
            g = chain_rich_graph(rng)
            cfg = SeedConfig(
                num_seeds=4,
                perturb_fraction=rng.choice((0.1, 0.2, 0.3)),
                rng_seed=n,
                max_retries=rng.choice((2, 5)),
            )
            root = rng.choice([None, *sorted(g.terminals)])
            got = select_seeds(g, cfg, root)
            want = reference_select_seeds(g, cfg, root)
            assert got.seed_trees == want.seed_trees, (g, cfg, root)
            assert got.edge_map == want.edge_map
            assert got.requested == want.requested
            # replay the second and later seeds' samples, retries
            # included, counting bans that cut a chain through a
            # pass-through vertex
            _, _, chain_of = _stop_arcs(g)
            long_chains = {c for c in chain_of if chain_of.count(c) > 1}
            m = len(g.edges)
            for seed_index in range(2, cfg.num_seeds):
                sampler = random.Random(f"{cfg.rng_seed}:{seed_index}")
                for attempt in range(cfg.max_retries):
                    banned = set(sampler.sample(range(m), math.ceil(
                        cfg.perturb_fraction * m)))
                    cut_later += any(chain_of[e] in long_chains for e in banned)
                    if reference_terminals_connected(g, banned):
                        retried += attempt > 0
                        break
        assert cut_later > 100 and retried > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeedConfig(num_seeds=0)
        with pytest.raises(ValueError):
            SeedConfig(perturb_fraction=1.0)
        with pytest.raises(ValueError):
            SeedConfig(perturb_fraction=-0.1)


class TestUnionSubgraph:
    def test_identity_when_all_edges(self, triangle):
        sub, edge_map = union_subgraph(triangle, range(3))
        assert sub.edges == triangle.edges
        assert edge_map == (0, 1, 2)

    def test_subset(self, triangle):
        sub, edge_map = union_subgraph(triangle, {2})
        assert sub.edges == ((1, 3, 3),)
        assert edge_map == (2,)
