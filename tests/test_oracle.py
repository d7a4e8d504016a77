"""Frozen reference answers; everything else is checked against these."""

import pytest

from steinerenum import (
    Graph,
    OracleError,
    brute_force_minimal_steiner,
)
from .conftest import count_simple_paths


def as_pairs(trees):
    return [(t.cost, t.sorted_edges()) for t in trees]


class TestBruteForce:
    def test_triangle_two_terminals(self, triangle):
        assert as_pairs(brute_force_minimal_steiner(triangle)) == [
            (2, (0, 1)),
            (3, (2,)),
        ]

    def test_triangle_theta_cuts_runner_up(self, triangle):
        assert as_pairs(brute_force_minimal_steiner(triangle, theta=2)) == [
            (2, (0, 1))
        ]

    def test_triangle_all_terminals(self, triangle_all_terminals):
        # any two of the three edges; never all three (cycle)
        assert as_pairs(brute_force_minimal_steiner(triangle_all_terminals)) == [
            (2, (0, 1)),
            (4, (0, 2)),
            (4, (1, 2)),
        ]

    def test_square_opposite_corners(self, square):
        assert as_pairs(brute_force_minimal_steiner(square)) == [
            (3, (0, 1)),
            (4, (2, 3)),
        ]

    def test_star_needs_all_spokes(self):
        # center 4 is not a terminal; the only tree uses every spoke
        g = Graph(
            4, ((1, 4, 1), (2, 4, 1), (3, 4, 1)), frozenset({1, 2, 3})
        )
        assert as_pairs(brute_force_minimal_steiner(g)) == [(3, (0, 1, 2))]

    def test_nonterminal_leaf_rejected(self):
        # path 1-2-3 with terminals {1,2}: edge (2,3) would dangle
        g = Graph(3, ((1, 2, 1), (2, 3, 1)), frozenset({1, 2}))
        assert as_pairs(brute_force_minimal_steiner(g)) == [(1, (0,))]

    def test_parallel_edges_counted_separately(self):
        g = Graph(2, ((1, 2, 2), (1, 2, 2)), frozenset({1, 2}))
        assert as_pairs(brute_force_minimal_steiner(g)) == [
            (2, (0,)),
            (2, (1,)),
        ]

    def test_self_loop_never_used(self):
        g = Graph(2, ((1, 2, 1), (2, 2, 1)), frozenset({1, 2}))
        assert as_pairs(brute_force_minimal_steiner(g)) == [(1, (0,))]

    def test_guard_on_edge_count(self):
        edges = tuple((1, 2, 1) for _ in range(25))
        g = Graph(2, edges, frozenset({1, 2}))
        with pytest.raises(OracleError, match="guard"):
            brute_force_minimal_steiner(g)

    def test_needs_two_terminals(self):
        g = Graph(2, ((1, 2, 1),), frozenset({1}))
        with pytest.raises(OracleError):
            brute_force_minimal_steiner(g)

    def test_sorted_by_cost_then_indices(self):
        g = Graph(
            4,
            ((1, 2, 5), (2, 3, 5), (1, 4, 5), (4, 3, 5)),
            frozenset({1, 3}),
        )
        assert as_pairs(brute_force_minimal_steiner(g)) == [
            (10, (0, 1)),
            (10, (2, 3)),
        ]


class TestCountSimplePaths:
    def test_single_edge(self):
        g = Graph(2, ((1, 2, 1),), frozenset({1, 2}))
        assert count_simple_paths(g, 1, 2) == 1

    def test_triangle(self, triangle):
        assert count_simple_paths(triangle, 1, 3) == 2

    def test_k4_has_five(self):
        edges = tuple(
            (u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)
        )
        g = Graph(4, edges, frozenset({1, 4}))
        assert count_simple_paths(g, 1, 4) == 5

    def test_parallel_edges(self):
        g = Graph(2, ((1, 2, 1), (1, 2, 2)), frozenset({1, 2}))
        assert count_simple_paths(g, 1, 2) == 2

    def test_loop_ignored(self):
        g = Graph(2, ((1, 2, 1), (1, 1, 1)), frozenset({1, 2}))
        assert count_simple_paths(g, 1, 2) == 1

    def test_same_endpoint_rejected(self, triangle):
        with pytest.raises(OracleError):
            count_simple_paths(triangle, 2, 2)

    def test_matches_tree_oracle_on_two_terminals(self, square):
        s, t = sorted(square.terminals)
        trees = brute_force_minimal_steiner(square)
        assert count_simple_paths(square, s, t) == len(trees)
