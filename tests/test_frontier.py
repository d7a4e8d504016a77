"""Construction-level behavior: sink rules, merging, capacity, structure."""

import hashlib
import random

import pytest

from steinerenum import (
    Graph,
    GraphError,
    FrontierSearch,
    NodeCapExceeded,
    construct_bdd,
    enumerate_trees,
    order_edges,
    reduce_bdd,
)
from steinerenum.frontier import ONE, ZERO
from .conftest import grid_graph, random_connected_graph


def decoded_subsets(bdd):
    """Every root-to-1-sink path as a frozenset of original edge indices."""
    found = []

    def walk(nid, chosen):
        if nid == ONE:
            found.append(frozenset(chosen))
            return
        if nid == ZERO:
            return
        edge = bdd.edge_order[bdd.level_of[nid] - 1]
        walk(bdd.lo[nid], chosen)
        walk(bdd.hi[nid], chosen | {edge})

    if bdd.root != ZERO:
        walk(bdd.root, frozenset())
    assert len(found) == len(set(found)), "duplicate subsets in the diagram"
    return set(found)


def walk_states(search, bits):
    """State after deciding the first len(bits) edges, checking that no
    decision on the way reaches a sink."""
    state = ()
    for i, x in enumerate(bits, 1):
        assert not search.is_one_sink(state, i, x)
        assert not search.is_zero_sink(state, i, x)
        state = search.generate(state, i, x)
    return state


def merge_cost_graph():
    """A parallel pair ordered first: taking the cheap or the dear edge
    leads to one frontier state."""
    return Graph(
        4,
        ((1, 2, 1), (1, 2, 9), (2, 3, 1), (3, 4, 1)),
        frozenset({1, 4}),
    )


class TestTriangleTrace:
    """Walk the canonical 3-edge instance step by step.

    Edge order from vertex 1 is (e0, e2, e1): first (1,2), then (1,3),
    then (2,3).  The frontier is {1, 2} after step 1 and {2, 3} after
    step 2.  The diagram must accept exactly {e0,e1} and {e2}.
    """

    @pytest.fixture
    def setup(self, triangle):
        order = order_edges(triangle)
        assert order.permutation == (0, 2, 1)
        return triangle, order, FrontierSearch(triangle, order)

    def test_first_step_states(self, setup):
        _, _, search = setup
        # both endpoints enter as singletons; only vertex 1 is a terminal
        assert search.generate((), 1, 0) == ((1, True, 0), (2, False, 0))
        assert search.generate((), 1, 1) == ((1, True, 1), (1, True, 1))
        # every incident edge of 1 and 2 is still undecided at step 1
        assert search.steps[1].undecided == (2, 2)

    def test_first_include_is_not_yet_a_tree(self, setup):
        _, _, search = setup
        assert not search.is_one_sink((), 1, 1)
        assert not search.is_zero_sink((), 1, 1)
        assert not search.is_zero_sink((), 1, 0)

    def test_direct_edge_completes_after_skip(self, setup):
        # skip e0, then include e2: both endpoints are terminals
        _, _, search = setup
        s1 = search.generate((), 1, 0)
        assert search.is_one_sink(s1, 2, 1)
        # skipping e2 as well strands terminal 1 (its last edge end)
        assert search.is_zero_sink(s1, 2, 0)

    def test_nonterminal_leaf_blocks_completion(self, setup):
        # include e0, then include e2: terminals connect but vertex 2
        # would be a degree-1 non-terminal, so this is not a 1-sink
        _, _, search = setup
        s1 = search.generate((), 1, 1)
        assert s1 == ((1, True, 1), (1, True, 1))
        assert search.steps[2].all_seen  # terminal 3 enters at step 2
        assert not search.is_one_sink(s1, 2, 1)
        assert not search.is_zero_sink(s1, 2, 1)

    def test_sealed_partial_component_dies(self, setup):
        # after e0 and e2, excluding e1 seals a component that holds
        # both terminals but cannot shed its non-terminal leaf
        _, _, search = setup
        s2 = search.generate(search.generate((), 1, 1), 2, 1)
        assert s2 == ((2, True, 1), (2, True, 1))
        assert search.is_zero_sink(s2, 3, 0)  # no undecided edge-end left
        assert search.is_zero_sink(s2, 3, 1)  # cycle

    def test_chain_completes_at_last_edge(self, setup):
        _, _, search = setup
        s2 = search.generate(search.generate((), 1, 1), 2, 0)
        assert search.is_one_sink(s2, 3, 1)
        assert search.is_zero_sink(s2, 3, 0)

    def test_constructed_structure(self, triangle):
        order = order_edges(triangle)
        bdd = construct_bdd(triangle, order)
        assert bdd.node_count == 5
        assert bdd.layer_sizes() == [1, 2, 2]
        assert decoded_subsets(bdd) == {
            frozenset({0, 1}),
            frozenset({2}),
        }


class TestSinkRules:
    def test_parallel_pair_gives_two_trees_not_both(self):
        g = Graph(2, ((1, 2, 1), (1, 2, 1)), frozenset({1, 2}))
        order = order_edges(g)
        bdd = construct_bdd(g, order)
        assert decoded_subsets(bdd) == {frozenset({0}), frozenset({1})}

    def test_self_loop_never_included(self):
        # the loop is ordered mid-search, while its vertex is live
        g = Graph(3, ((1, 2, 1), (2, 2, 4), (2, 3, 1)), frozenset({1, 3}))
        order = order_edges(g)
        assert order.permutation == (0, 1, 2)
        bdd = construct_bdd(g, order)
        assert decoded_subsets(bdd) == {frozenset({0, 2})}

    def test_leaving_fresh_nonterminal_dies(self):
        # including the dead-end edge (3,4) can never be repaired
        g = Graph(
            4, ((1, 2, 1), (2, 3, 1), (3, 4, 1)), frozenset({1, 3})
        )
        bdd = construct_bdd(g, order_edges(g))
        assert decoded_subsets(bdd) == {frozenset({0, 1})}

    def test_theta_prunes_during_construction(self, triangle):
        order = order_edges(triangle)
        assert decoded_subsets(construct_bdd(triangle, order, 2)) == {
            frozenset({0, 1})
        }
        assert decoded_subsets(construct_bdd(triangle, order, 1)) == set()

    def test_zero_theta(self, triangle):
        bdd = construct_bdd(triangle, order_edges(triangle), 0)
        assert decoded_subsets(bdd) == set()

    def test_all_terminal_triangle(self, triangle_all_terminals):
        bdd = construct_bdd(
            triangle_all_terminals, order_edges(triangle_all_terminals)
        )
        assert decoded_subsets(bdd) == {
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        }


class TestMerging:
    def test_merge_key_ignores_cost_and_exact_counts(self):
        # 5-cycle, all but vertex 5 terminals; the arc (4,5) comes last.
        # Both histories leave 4 and 5 in separate terminal-bearing
        # components: 2 + 2 terminals at cost 15, or 3 + 1 at cost 13.
        g = Graph(
            5,
            ((2, 4, 3), (4, 5, 6), (1, 2, 5), (1, 3, 7), (3, 5, 5)),
            frozenset({1, 2, 3, 4}),
        )
        order = order_edges(g)
        assert order.permutation == (2, 3, 0, 4, 1)
        search = FrontierSearch(g, order)
        a = walk_states(search, (0, 1, 1, 1))
        b = walk_states(search, (1, 0, 1, 1))
        assert a == b == ((4, True, 1), (5, True, 1))

    def test_merge_key_sees_partition(self):
        # 4-cycle ordered (1,2), (1,4), (2,3), (3,4); frontier {3, 4}
        g = Graph(
            4,
            ((1, 4, 5), (1, 2, 3), (2, 3, 10), (3, 4, 8)),
            frozenset({1, 2, 3}),
        )
        search = FrontierSearch(g, order_edges(g))
        joined = walk_states(search, (1, 1, 1))
        split = walk_states(search, (0, 1, 1))
        assert joined == ((3, True, 1), (3, True, 1))
        assert split == ((3, True, 1), (4, True, 1))

    def test_merge_key_sees_terminal_presence_and_degree(self):
        # ordered (2,3), (3,5), (2,4), (2,6), (1,5), ...; frontier {1, 4, 6}
        g = Graph(
            6,
            (
                (2, 6, 3), (2, 4, 1), (1, 6, 4), (2, 3, 3),
                (3, 5, 1), (1, 5, 4), (1, 4, 7),
            ),
            frozenset({1, 3, 5}),
        )
        search = FrontierSearch(g, order_edges(g))
        base = walk_states(search, (1, 0, 1, 1, 1))
        no_term = walk_states(search, (0, 1, 1, 1, 1))
        deg0 = walk_states(search, (1, 1, 1, 1, 0))
        assert base == ((1, True, 1), (4, True, 1), (4, True, 1))
        assert no_term == ((1, True, 1), (4, False, 1), (4, False, 1))
        assert deg0 == ((1, True, 0), (4, True, 1), (4, True, 1))

    def test_merged_equals_unmerged_subsets(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_connected_graph(rng, max_vertices=6, max_edges=10)
            order = order_edges(g)
            merged = construct_bdd(g, order)
            plain = construct_bdd(g, order, merge_nodes=False)
            assert decoded_subsets(merged) == decoded_subsets(plain)
            assert merged.node_count <= plain.node_count

    def test_merge_keeps_cheapest_cost(self):
        # take-cheap and take-dear converge on one node, which must keep
        # cost 1: with cost 9 the theta check would cut the only tree
        g = merge_cost_graph()
        order = order_edges(g, start=1)
        assert order.permutation[:2] == (0, 1)
        merged = construct_bdd(g, order)
        assert len(merged.levels[3]) == 1
        plain = construct_bdd(g, order, merge_nodes=False)
        assert len(plain.levels[3]) == 2
        assert decoded_subsets(merged) == decoded_subsets(plain) == {
            frozenset({0, 2, 3}),
            frozenset({1, 2, 3}),
        }
        result = enumerate_trees(
            reduce_bdd(construct_bdd(g, order, 10)), k=5, theta=10
        )
        assert [(t.cost, t.sorted_edges()) for t in result.trees] == [
            (3, (0, 2, 3))
        ]


class TestCapacityAndValidation:
    def test_node_cap(self):
        g = Graph(
            4,
            ((1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1), (2, 3, 1)),
            frozenset({1, 4}),
        )
        with pytest.raises(NodeCapExceeded) as exc:
            construct_bdd(g, order_edges(g), node_cap=2)
        assert exc.value.cap == 2
        assert exc.value.level >= 1
        assert exc.value.layer_sizes

    def test_needs_two_terminals(self):
        g = Graph(2, ((1, 2, 1),), frozenset({1}))
        with pytest.raises(GraphError):
            FrontierSearch(g, order_edges(g, start=1))

    def test_negative_theta_rejected(self, triangle):
        with pytest.raises(GraphError):
            construct_bdd(triangle, order_edges(triangle), -1)

    def test_order_graph_mismatch(self, triangle, square):
        with pytest.raises(GraphError):
            construct_bdd(triangle, order_edges(square))

    def test_dump_format(self, triangle):
        bdd = construct_bdd(triangle, order_edges(triangle))
        lines = bdd.dump().splitlines()
        assert lines[0] == f"bdd {bdd.node_count} {bdd.level_count}"
        assert len(lines) == bdd.node_count + 1
        for line in lines[1:]:
            nid, level, lo, hi = map(int, line.split())
            assert bdd.lo[nid] == lo and bdd.hi[nid] == hi
            assert bdd.level_of[nid] == level


# name, graph, order start, theta, node count, sha256 of Bdd.dump()
GOLDEN_DIAGRAMS = [
    (
        "triangle",
        lambda: Graph(3, ((1, 2, 1), (2, 3, 1), (1, 3, 3)), frozenset({1, 3})),
        None, None, 5,
        "d16dceb3d331a32653150115d472a7c2dd56d8ea0859fbbe69452576db217ca7",
    ),
    (
        "grid_2x20",
        lambda: grid_graph(2, 20, [1, 40]),
        None, None, 417,
        "0bae1d9b232fa9aee348ee8c538c77dfa0f28c32404b73974dc2e680a4c5c473",
    ),
    (
        "grid_4x4",
        lambda: grid_graph(4, 4, [1, 4, 13, 16]),
        None, None, 933,
        "dec277b41d8afd370fbd9c76f524791f1d0387c022d309ff4b7d6657f0f3c289",
    ),
    (
        "grid_4x8",
        lambda: grid_graph(4, 8, [1, 8, 25, 32]),
        None, None, 9833,
        "10f9ae64fcf2ff75084eaf8c5b94eb52fd78178e09fc9f0b819df43befd10db3",
    ),
    (
        "merge_cost_theta10",
        merge_cost_graph,
        1, 10, 5,
        "7ca75641128bf70268c93d60fc016289031b54799858e4734a6f9a32ea480741",
    ),
    (
        "random_2029_theta15",
        lambda: random_connected_graph(
            random.Random(2029), max_vertices=8, max_edges=14
        ),
        None, 15, 82,
        "6050a5730d050be00e25b04bf05831ed1ef93c22e9470c29b7ddd9e191f4197e",
    ),
]


class TestGoldenDiagrams:
    """The constructed diagram is pinned byte for byte: node ids, arcs
    and levels must not move under a change to the construction code."""

    @pytest.mark.parametrize(
        "make, start, theta, nodes, digest",
        [case[1:] for case in GOLDEN_DIAGRAMS],
        ids=[case[0] for case in GOLDEN_DIAGRAMS],
    )
    def test_dump_digest(self, make, start, theta, nodes, digest):
        g = make()
        bdd = construct_bdd(g, order_edges(g, start=start), theta)
        assert bdd.node_count == nodes
        assert hashlib.sha256(bdd.dump().encode()).hexdigest() == digest
