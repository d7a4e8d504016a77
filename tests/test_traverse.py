"""Reduction, counting, top-k enumeration, tree validation."""

import random

import pytest

from steinerenum import (
    Graph,
    GraphError,
    NodeCapExceeded,
    SteinerTree,
    TraversalError,
    construct_bdd,
    count_trees,
    enumerate_trees,
    order_edges,
    reduce_bdd,
    validate_tree,
)
from steinerenum.frontier import ONE, ZERO
from steinerenum.traverse import EntryBudgetExceeded
from .conftest import bfs_order, grid_graph, random_connected_graph, subdivide_edge
from .oracle import brute_force_minimal_steiner


def build(g, theta=None):
    return construct_bdd(g, order_edges(g), theta)


def reaches_one(bdd, nid):
    if nid == ONE:
        return True
    if nid == ZERO:
        return False
    return reaches_one(bdd, bdd.lo[nid]) or reaches_one(bdd, bdd.hi[nid])


class TestReduce:
    def test_triangle_drops_dead_node(self, triangle):
        bdd = build(triangle)
        red = reduce_bdd(bdd)
        assert bdd.node_count == 5
        assert red.node_count == 4
        assert count_trees(red) == count_trees(bdd) == 2

    def test_properties_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_connected_graph(rng)
            bdd = build(g)
            red = reduce_bdd(bdd)
            assert count_trees(red) == count_trees(bdd)
            for level in range(1, red.level_count + 1):
                for nid in red.levels[level]:
                    assert not (red.lo[nid] == ZERO and red.hi[nid] == ZERO)
                    assert reaches_one(red, nid)
            # compact ids: 2..n+1 in level order
            flat = [nid for lvl in red.levels for nid in lvl]
            assert flat == list(range(2, red.node_count + 2))

    def test_idempotent(self, square):
        red = reduce_bdd(build(square))
        again = reduce_bdd(red)
        assert again.lo == red.lo
        assert again.hi == red.hi
        assert again.levels == red.levels

    def test_infeasible_theta_kills_root(self, triangle):
        red = reduce_bdd(build(triangle, theta=1))
        assert red.root == ZERO
        assert red.node_count == 0
        assert count_trees(red) == 0


class TestCount:
    def test_frozen_counts(self, triangle, triangle_all_terminals, square):
        assert count_trees(reduce_bdd(build(triangle))) == 2
        assert count_trees(reduce_bdd(build(triangle_all_terminals))) == 3
        assert count_trees(reduce_bdd(build(square))) == 2

    def test_count_is_python_int(self):
        # 2x12 grid: count overflows nothing, stays exact
        g = grid_graph(2, 12, [1, 24])
        n = count_trees(reduce_bdd(build(g)))
        assert isinstance(n, int)
        assert n > 100


class TestEnumerate:
    def test_triangle_complete(self, triangle):
        red = reduce_bdd(build(triangle))
        res = enumerate_trees(red, k=10)
        assert [(t.cost, t.sorted_edges()) for t in res.trees] == [
            (2, (0, 1)),
            (3, (2,)),
        ]
        assert not res.truncated
        assert res.sink_arrivals == 2

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_connected_graph(rng)
            red = reduce_bdd(build(g))
            res = enumerate_trees(red, k=10**6)
            want = [
                (t.cost, t.sorted_edges())
                for t in brute_force_minimal_steiner(g)
            ]
            got = [(t.cost, t.sorted_edges()) for t in res.trees]
            assert got == want
            for t in res.trees:
                assert validate_tree(t, g)
                assert g.tree_cost(t.edges) == t.cost

    def test_theta_applied_exactly_at_traversal(self, triangle):
        # diagram built unbounded; traversal filter must be exact
        red = reduce_bdd(build(triangle))
        res = enumerate_trees(red, k=10, theta=2)
        assert [t.cost for t in res.trees] == [2]
        assert enumerate_trees(red, k=10, theta=1).trees == ()

    def test_k_cheapest_guarantee(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_connected_graph(rng)
            red = reduce_bdd(build(g))
            want = [t.cost for t in brute_force_minimal_steiner(g)]
            for k in (1, 2, 5):
                res = enumerate_trees(red, k=max(k, len(want) + 1))
                got = sorted(t.cost for t in res.trees)[:k]
                assert got == want[:k]

    def test_cap_truncates_keeping_cheapest(self, triangle_all_terminals):
        red = reduce_bdd(build(triangle_all_terminals))
        res = enumerate_trees(red, k=1)
        assert res.truncated
        assert len(res.trees) == 1
        assert res.trees[0].cost == 2

    def test_default_cap_is_k(self, triangle):
        red = reduce_bdd(build(triangle))
        res = enumerate_trees(red, k=1)
        # 2 trees, k 1: the cost-3 tree is left out
        assert [(t.cost, t.sorted_edges()) for t in res.trees] == [(2, (0, 1))]
        assert res.truncated

    def test_writes_exactly_the_cheapest_within_theta(self):
        rng = random.Random(13)
        bad = []
        for case in range(300):
            g = random_connected_graph(rng)
            oracle = [
                (t.cost, t.sorted_edges()) for t in brute_force_minimal_steiner(g)
            ]
            for theta in (None, 5, 15):
                within = [t for t in oracle if theta is None or t[0] <= theta]
                red = reduce_bdd(build(g, theta))
                for k in (1, 2, 3, 10):
                    res = enumerate_trees(red, k=k, theta=theta)
                    if (
                        [(t.cost, t.sorted_edges()) for t in res.trees] != within[:k]
                        or res.truncated != (len(within) > k)
                    ):
                        bad.append((case, theta, k))
        assert bad == []

    def test_dead_nodes_change_nothing(self):
        """The traversal gives the same answer on a constructed diagram,
        dead nodes included, as on its reduction."""
        rng = random.Random(41)
        for case in range(600):
            g = random_connected_graph(rng)
            if case % 3 == 0:
                g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
            for theta in (None, 0, 5, 20):
                bdd = build(g, theta)
                red = reduce_bdd(bdd)
                for k in (1, 3, 50):
                    got = enumerate_trees(bdd, k=k, theta=theta)
                    want = enumerate_trees(red, k=k, theta=theta)
                    assert got.trees == want.trees, (case, theta, k)
                    assert got.truncated == want.truncated, (case, theta, k)

    def test_cap_beyond_k_is_still_cheapest_first(self):
        # the second cost-28 tree needs a node's second-cheapest prefix
        g = grid_graph(3, 4, [1, 4, 9, 12])
        res = enumerate_trees(reduce_bdd(build(g)), k=10)
        want = [t.cost for t in brute_force_minimal_steiner(g)]
        assert want[:3] == [27, 28, 28]
        assert [t.cost for t in res.trees] == want[:10]
        assert res.truncated

    def test_peak_entries_bounded(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng)
            red = reduce_bdd(build(g))
            if red.root == ZERO:
                continue
            for k in (1, 3, 100):
                res = enumerate_trees(red, k=k)
                width = max(len(lvl) for lvl in red.levels[1:])
                assert res.peak_entries <= 2 * k * max(width, 1)

    def test_entry_budget(self):
        g = grid_graph(2, 8, [1, 16])
        red = reduce_bdd(build(g))
        with pytest.raises(EntryBudgetExceeded) as info:
            enumerate_trees(red, k=1000, entry_budget=3)
        assert info.value.budget == 3
        assert info.value.live > 3
        assert info.value.written == 1

    def test_entry_budget_holds_while_popping_ties(self):
        # unit 3x3 grid, opposite corners: six paths tie at cost 4, and
        # the heap outgrows 5 entries on the second of them
        g = grid_graph(3, 3, [1, 9])
        g = Graph(
            g.vertex_count, tuple((u, v, 1) for u, v, _ in g.edges), g.terminals
        )
        red = reduce_bdd(build(g))
        assert enumerate_trees(red, k=1).sink_arrivals == 6
        with pytest.raises(EntryBudgetExceeded) as info:
            enumerate_trees(red, k=1, entry_budget=5)
        assert info.value.written == 1

    def test_bad_arguments(self, triangle):
        red = reduce_bdd(build(triangle))
        with pytest.raises(TraversalError):
            enumerate_trees(red, k=0)

    def test_empty_diagram(self, triangle):
        red = reduce_bdd(build(triangle, theta=1))
        res = enumerate_trees(red, k=5)
        assert res.trees == ()
        assert res.peak_entries == 0
        assert not res.truncated

    def test_deterministic_under_ties(self):
        # every edge weight equal: plenty of cost ties to order stably
        g = grid_graph(3, 3, [1, 9], weight_seed=0)
        g = Graph(
            g.vertex_count,
            tuple((u, v, 1) for u, v, _ in g.edges),
            g.terminals,
        )
        red = reduce_bdd(build(g))
        runs = [enumerate_trees(red, k=7) for _ in range(3)]
        first = [(t.cost, t.sorted_edges()) for t in runs[0].trees]
        for res in runs[1:]:
            assert [(t.cost, t.sorted_edges()) for t in res.trees] == first


class TestCountsAndBounds:
    """construct_bdd and enumerate_trees apply RunConfig's rule before any
    work: a count is an int, not a bool, of at least 1, and a bound in
    scaled units is None or an int of at least 0."""

    def test_construct_bdd(self, triangle):
        order = order_edges(triangle)
        for kwargs, message in (
            # these two used to raise NodeCapExceeded on level 1, with
            # layer sizes [1, -1, 0] and [1, 1.5, 0]
            (dict(node_cap=0), "node_cap must be at least 1"),
            (dict(node_cap=2.5), "node_cap must be an integer"),
            (dict(node_cap=True), "node_cap must be an integer"),
            (dict(theta=True), "theta must be an integer"),  # built with theta 1
            (dict(theta=1.5), "theta must be an integer"),
            (dict(theta=-1), "theta must be non-negative"),
        ):
            with pytest.raises(GraphError, match=f"^{message}$"):
                construct_bdd(triangle, order, **kwargs)
        with pytest.raises(NodeCapExceeded):
            construct_bdd(triangle, order, node_cap=1)

    def test_enumerate_trees(self, triangle):
        red = reduce_bdd(build(triangle))
        for kwargs, message in (
            # k=2.5 traversed, then failed on slicing with a bare TypeError;
            # k=True ran as k=1, and theta=-1 returned no tree
            (dict(k=2.5), "k must be an integer"),
            (dict(k=True), "k must be an integer"),
            (dict(k=0), "k must be at least 1"),
            (dict(k=1, theta=True), "theta must be an integer"),
            (dict(k=1, theta=2.5), "theta must be an integer"),
            (dict(k=1, theta=-1), "theta must be non-negative"),
            (dict(k=1, entry_budget=True), "entry_budget must be an integer"),
            (dict(k=1, entry_budget=-1), "entry_budget must be non-negative"),
        ):
            with pytest.raises(TraversalError, match=f"^{message}$"):
                enumerate_trees(red, **kwargs)
        assert enumerate_trees(red, k=1, theta=0, entry_budget=0).trees == ()


class TestOrderIndependence:
    """Trees tied at the cut are chosen by sorted edges, so the edge order
    the diagram was built under changes nothing that gets written."""

    def test_grid_under_bfs_order_and_order_edges(self):
        # unit weights: every cost is shared by many trees
        g = grid_graph(4, 8, [1, 8, 25, 32])
        g = Graph(
            g.vertex_count, tuple((u, v, 1) for u, v, _ in g.edges), g.terminals
        )
        chosen, plain = order_edges(g), bfs_order(g)
        assert chosen.permutation != plain.permutation
        reduced = [reduce_bdd(construct_bdd(g, o)) for o in (chosen, plain)]
        for k in (1, 7, 50):
            a, b = (enumerate_trees(red, k=k) for red in reduced)
            assert a.sink_arrivals > k and b.sink_arrivals > k  # k cuts a tie
            assert a.trees == b.trees
            assert a.truncated and b.truncated

    def test_every_start_writes_the_same_trees(self):
        rng = random.Random(5)
        for case in range(150):
            # weights 1..2 tie often
            g = random_connected_graph(rng, weight_hi=2)
            want = [
                (t.cost, t.sorted_edges()) for t in brute_force_minimal_steiner(g)
            ]
            active = sorted({z for u, v, _ in g.edges for z in (u, v)})
            diagrams = [reduce_bdd(build(g))] + [
                reduce_bdd(construct_bdd(g, bfs_order(g, s))) for s in active
            ]
            for k in (1, 2, 3):
                for red in diagrams:
                    res = enumerate_trees(red, k=k)
                    got = [(t.cost, t.sorted_edges()) for t in res.trees]
                    assert got == want[:k], (case, k)
                    assert res.truncated == (len(want) > k), (case, k)


class TestValidateTree:
    def test_accepts_oracle_trees(self, square):
        for t in brute_force_minimal_steiner(square):
            assert validate_tree(t, square)

    def test_rejects_cycle(self, triangle_all_terminals):
        t = SteinerTree(frozenset({0, 1, 2}), 5)
        assert not validate_tree(t, triangle_all_terminals)

    def test_rejects_disconnected_terminals(self, triangle):
        assert not validate_tree(SteinerTree(frozenset({0}), 1), triangle)

    def test_rejects_nonterminal_leaf(self, triangle):
        assert not validate_tree(
            SteinerTree(frozenset({0, 1, 2}), 5), triangle
        )

    def test_rejects_when_fewer_than_two_terminals(self):
        g = Graph(2, ((1, 2, 1),), frozenset({1}))
        assert not validate_tree(SteinerTree(frozenset({0}), 1), g)
