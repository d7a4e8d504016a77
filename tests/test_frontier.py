"""Construction-level behavior: sink rules, merging, capacity, structure."""

import hashlib
import random
import tracemalloc

import pytest

from steinerenum import (
    EdgeOrder,
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
from .conftest import (
    add_hub,
    add_parallel_edge_and_loop,
    bfs_order,
    frontiers,
    grid_graph,
    random_connected_graph,
    subdivide_edge,
)
from .frontier_reference import (
    ReferenceFrontierSearch,
    reference_construct_bdd,
    reference_reduce_bdd,
)


def decoded_subsets(bdd):
    """Every root-to-1-sink path as a frozenset of original edge indices."""
    found = []

    def walk(nid, level, chosen):
        if nid == ONE:
            found.append(frozenset(chosen))
            return
        if nid == ZERO:
            return
        edge = bdd.edge_order[level - 1]
        walk(bdd.lo[nid], level + 1, chosen)
        walk(bdd.hi[nid], level + 1, chosen | {edge})

    if bdd.root != ZERO:
        walk(bdd.root, 1, frozenset())
    assert len(found) == len(set(found)), "duplicate subsets in the diagram"
    return set(found)


class TripleSearch:
    """``FrontierSearch`` with states spelled as tuples of
    ``(representative, component holds a terminal, degree)`` triples,
    as the reference step and the literals below spell them; a
    component's representative is its first frontier vertex.  Each
    state is translated on the way in to the leave-order names the
    search uses (a component carries the largest rank of its vertices
    by step of last edge, then vertex id), and every successor is
    translated back on the way out, using the order's frontiers."""

    def __init__(self, g, order):
        self.packed = FrontierSearch(g, order)
        self.steps = self.packed.steps
        perm = order.permutation
        # frontiers[i] is F_i, ascending; a state at level i covers F_{i-1}
        self.frontiers = [()] + [tuple(sorted(f)) for f in frontiers(g, perm)]
        last = {}
        for i, idx in enumerate(perm):
            u, v, _ = g.edges[idx]
            last[u] = last[v] = i
        by_leaving = sorted(last, key=lambda z: (last[z], z))
        self.rank = {z: r for r, z in enumerate(by_leaving)}

    def step(self, i):
        shift, degree = self.packed.shift, self.packed.degree_mask
        decide = self.packed.step(i)

        def spelled(target):
            if target in (ZERO, ONE):
                return target
            first = {}  # component name -> first frontier vertex
            for z, e in zip(self.frontiers[i], target):
                first.setdefault(e >> shift, z)
            return tuple(
                (first[e >> shift], bool(e & 1), (e & degree) >> 1) for e in target
            )

        def triple_step(state, include):
            name = {}  # representative -> component name
            for z, (rep, _, _) in zip(self.frontiers[i - 1], state):
                name[rep] = max(name.get(rep, -1), self.rank[z])
            entries = tuple(name[rep] << shift | d << 1 | t for rep, t, d in state)
            return tuple(map(spelled, decide(entries, include)))

        return triple_step


def walk_states(search, bits):
    """State after deciding the first len(bits) edges, checking that no
    decision on the way reaches a sink."""
    state = ()
    for i, x in enumerate(bits, 1):
        state = search.step(i)(state, True)[x]
        assert state not in (ZERO, ONE)
    return state


def hub_graph(rng):
    """Nine vertices and a hub joined to each, once more by a parallel
    edge: degree 10.  States reach hub degree 8 on about a third of
    these, beyond a degree field of three bits."""
    g = random_connected_graph(
        rng, max_vertices=9, min_vertices=9, max_edges=9, terminal_sizes=(2, 5, 9)
    )
    return add_hub(g, rng, degree=10)


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
        return triangle, order, TripleSearch(triangle, order)

    def test_first_step_states(self, setup):
        _, _, search = setup
        # both endpoints enter as singletons; only vertex 1 is a terminal
        assert search.step(1)((), True) == (
            ((1, True, 0), (2, False, 0)),
            ((1, True, 1), (1, True, 1)),
        )
        # both stay on the frontier after step 1, so nothing is sealed
        assert search.frontiers[1] == (1, 2)
        assert search.steps[1].sealed == ()

    def test_first_include_is_not_yet_a_tree(self, setup):
        _, _, search = setup
        for target in search.step(1)((), True):
            assert target not in (ZERO, ONE)

    def test_direct_edge_completes_after_skip(self, setup):
        # skip e0, then include e2: both endpoints are terminals; skipping
        # e2 as well strands terminal 1 (its last edge end)
        _, _, search = setup
        s1 = search.step(1)((), True)[0]
        assert search.step(2)(s1, True) == (ZERO, ONE)
        # an inclusion pruned by the cost bound is not decided at all
        assert search.step(2)(s1, False) == (ZERO, ZERO)

    def test_nonterminal_leaf_blocks_completion(self, setup):
        # include e0, then include e2: terminals connect but vertex 2
        # would be a degree-1 non-terminal, so this is not a 1-sink
        _, _, search = setup
        s1 = search.step(1)((), True)[1]
        assert s1 == ((1, True, 1), (1, True, 1))
        assert search.steps[2].all_seen  # terminal 3 enters at step 2
        assert search.step(2)(s1, True)[1] not in (ZERO, ONE)

    def test_sealed_partial_component_dies(self, setup):
        # after e0 and e2, excluding e1 seals a component that holds
        # both terminals but cannot shed its non-terminal leaf (no
        # undecided edge-end left); including e1 closes a cycle
        _, _, search = setup
        s2 = search.step(2)(search.step(1)((), True)[1], True)[1]
        assert s2 == ((2, True, 1), (2, True, 1))
        assert search.step(3)(s2, True) == (ZERO, ZERO)

    def test_chain_completes_at_last_edge(self, setup):
        _, _, search = setup
        s2 = search.step(2)(search.step(1)((), True)[1], True)[0]
        assert search.step(3)(s2, True) == (ZERO, ONE)

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

    def test_nonterminal_path_blocks_completion(self):
        # the hand-built order takes the non-terminal path 3-4-5 first;
        # its ends 3 and 5 are still on the frontier, as leaves, when
        # (1,2) joins both terminals, so that inclusion is not a tree
        g = Graph(
            5,
            ((3, 4, 1), (4, 5, 1), (1, 2, 1), (1, 3, 1), (2, 5, 1)),
            frozenset({1, 2}),
        )
        order = EdgeOrder((0, 1, 2, 3, 4), 4)
        search = TripleSearch(g, order)
        path = walk_states(search, (1, 1))
        assert path == ((3, False, 1), (3, False, 1))
        assert search.steps[3].all_seen
        assert search.step(3)(path, True)[1] == (
            (1, True, 1), (1, True, 1), (3, False, 1), (3, False, 1)
        )
        bdd = construct_bdd(g, order)
        assert bdd.dump() == reference_construct_bdd(g, order).dump()
        assert decoded_subsets(bdd) == {frozenset({2}), frozenset({0, 1, 3, 4})}

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
        search = TripleSearch(g, order)
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
        search = TripleSearch(g, EdgeOrder((1, 0, 2, 3), 2))
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
        search = TripleSearch(g, EdgeOrder((3, 4, 1, 0, 5, 6, 2), 3))
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
            plain = reference_construct_bdd(g, order, merge_nodes=False)
            assert decoded_subsets(merged) == decoded_subsets(plain)
            assert merged.node_count <= plain.node_count

    def test_merge_keeps_cheapest_cost(self):
        # take-cheap and take-dear converge on one node, which must keep
        # cost 1: with cost 9 the theta check would cut the only tree
        g = merge_cost_graph()
        order = bfs_order(g, start=1)
        assert order.permutation[:2] == (0, 1)
        merged = construct_bdd(g, order)
        assert len(merged.levels[3]) == 1
        plain = reference_construct_bdd(g, order, merge_nodes=False)
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


class TestRenaming:
    """In the first-vertex spelling, a component whose first vertex
    leaves the frontier is renamed after its first remaining vertex, on
    either branch; the search's own names do not change.

    4-cycle 1-2-3-4 with terminals {1, 3}, ordered (1,2), (1,4), (2,3),
    (3,4): vertex 1 leaves at step 2, when the frontier becomes {2, 4}.
    """

    @pytest.fixture
    def search(self):
        g = Graph(
            4, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)), frozenset({1, 3})
        )
        order = order_edges(g)
        assert order.permutation == (0, 3, 1, 2)
        return TripleSearch(g, order)

    def test_renamed_on_both_branches(self, search):
        # with (1,2) taken, 1 names the component {1, 2}
        s1 = search.step(1)((), True)[1]
        assert s1 == ((1, True, 1), (1, True, 1))
        assert search.step(2)(s1, True) == (
            ((2, True, 1), (4, False, 0)),
            ((2, True, 1), (2, True, 1)),
        )

    def test_merged_component_renamed_on_inclusion(self, search):
        # with (1,2) skipped, taking (1,4) joins {1} and {4} under 1,
        # which then leaves; skipping it strands terminal 1
        s1 = search.step(1)((), True)[0]
        assert s1 == ((1, True, 0), (2, False, 0))
        assert search.step(2)(s1, True) == (
            ZERO,
            ((2, False, 0), (4, True, 1)),
        )


class TestFixedNames:
    def test_only_endpoint_components_are_rewritten(self):
        """At every reachable state of every level, exclusion's successor
        is the state's kept entries, unchanged, and inclusion rewrites
        only the entries of the two endpoint components: no name changes
        when a vertex leaves.  On simple graphs, on multigraphs with a
        parallel edge and a self-loop, and on graphs with a hub."""
        rng = random.Random(31)
        for n in range(200):
            if n >= 170:
                g = hub_graph(rng)
            else:
                g = random_connected_graph(rng, max_vertices=7, max_edges=10)
                if n % 2:
                    g = add_parallel_edge_and_loop(g, rng, n % 4 == 1)
            search = FrontierSearch(g, order_edges(g))
            shift = search.shift
            states = [()]
            for i in range(1, len(g.edges) + 1):
                step, decide = search.steps[i], search.step(i)
                nxt = []
                for state in states:
                    ext = state + step.fresh
                    kept = tuple(ext[j] for j in step.keep)
                    pair = {ext[step.iu] >> shift, ext[step.iv] >> shift}
                    lo, hi = decide(state, True)
                    if lo.__class__ is tuple:
                        assert lo == kept
                        nxt.append(lo)
                    if hi.__class__ is tuple:
                        assert len(hi) == len(kept)
                        for was, now in zip(kept, hi):
                            if was >> shift not in pair:
                                assert now == was
                        nxt.append(hi)
                states = list(dict.fromkeys(nxt))
            assert not states


class TestAgainstThreePredicateStep:
    def test_identical_diagrams(self):
        """The fused step builds byte-identical diagrams, before and
        after reduction, to the three-predicate step it replaced, on
        simple graphs, on multigraphs with a parallel edge and a
        self-loop, and on graphs with a hub (see ``hub_graph``)."""
        rng = random.Random(5)
        for n in range(1540):
            if n >= 1500:
                g = hub_graph(rng)
            else:
                g = random_connected_graph(rng)
                if n % 3 == 0:
                    g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
                if n >= 1200:
                    g = add_parallel_edge_and_loop(g, rng, n % 2 == 0)
            order = order_edges(g)
            for theta in (None, 0, 5, 10, 20, 40):
                bdd = construct_bdd(g, order, theta)
                ref = reference_construct_bdd(g, order, theta)
                assert bdd.dump() == ref.dump()
                assert reduce_bdd(bdd).dump() == reference_reduce_bdd(ref).dump()

    def test_identical_steps(self):
        """Both branches of every reachable state match the reference's
        sink predicates and successors, unmerged nodes included, on
        simple graphs, on multigraphs with a parallel edge and a
        self-loop, and on graphs with a hub (see ``hub_graph``)."""
        rng = random.Random(11)
        for n in range(340):
            if n >= 300:
                g = hub_graph(rng)
            else:
                g = random_connected_graph(rng, max_vertices=7, max_edges=10)
                if n >= 150:
                    g = add_parallel_edge_and_loop(g, rng, n % 2 == 0)
            order = order_edges(g)
            search = TripleSearch(g, order)
            ref = ReferenceFrontierSearch(g, order)
            states = [()]
            for i in range(1, len(order.permutation) + 1):
                nxt = []
                for state in states:
                    got = search.step(i)(state, True)
                    for x, target in enumerate(got):
                        if ref.is_one_sink(state, i, x):
                            assert target == ONE
                        elif ref.is_zero_sink(state, i, x):
                            assert target == ZERO
                        else:
                            want = ref.generate(state, i, x)
                            assert target == (want or ZERO)
                            if want:
                                nxt.append(want)
                    assert search.step(i)(state, False) == (got[0], ZERO)
                states = list(dict.fromkeys(nxt))


class TestLooseBound:
    def test_same_diagram_as_no_bound(self):
        """Theta at the sum of all edge costs prunes nothing, so it
        builds the diagram that no theta builds: on simple and
        subdivided graphs, on multigraphs with a parallel edge and a
        self-loop, on graphs with a hub, and on the 6x8 corner grid."""
        rng = random.Random(13)
        graphs = [grid_graph(6, 8, [1, 8, 41, 48])]
        for n in range(300):
            if n >= 270:
                g = hub_graph(rng)
            else:
                g = random_connected_graph(rng)
                if n % 3 == 0:
                    g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
                if n >= 180:
                    g = add_parallel_edge_and_loop(g, rng, n % 2 == 0)
            graphs.append(g)

        def digest(bdd):  # a mismatch on the grid is too long to diff
            return hashlib.sha256(bdd.dump().encode()).hexdigest()

        sizes = []
        for g in graphs:
            order = order_edges(g)
            total = sum(c for _, _, c in g.edges)
            bdd = construct_bdd(g, order)
            assert digest(bdd) == digest(construct_bdd(g, order, total))
            sizes.append(bdd.node_count)
        assert sizes[0] == 47_238  # the grid


class TestLayout:
    def test_levels_are_contiguous_id_ranges(self):
        """Each level is one run of ids, the runs rise level by level and
        every arc from levels[i] points to a sink or into levels[i+1], in
        constructed, reduced and unmerged diagrams alike.  reduce_bdd and
        count_trees decide in one pass over the ids from the last, and
        the traversal counts a node's level as its depth; all three rely
        on this."""
        rng = random.Random(23)
        for n in range(150):
            g = random_connected_graph(rng, max_vertices=6, max_edges=10)
            if n % 3 == 0:
                g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
            order = order_edges(g)
            for theta in (None, 5, 20):
                bdd = construct_bdd(g, order, theta)
                plain = reference_construct_bdd(
                    g, order, theta, merge_nodes=False
                )
                for d, ranged in (
                    (bdd, True), (reduce_bdd(bdd), True), (plain, False)
                ):
                    assert len(d.levels) == d.level_count + 1
                    assert not d.levels[0]
                    ids = [nid for lvl in d.levels[1:] for nid in lvl]
                    assert ids == list(range(2, len(d.lo)))
                    below = list(d.levels[2:]) + [()]
                    for lvl, nxt in zip(d.levels[1:], below):
                        for nid in lvl:
                            for t in (d.lo[nid], d.hi[nid]):
                                assert t in (ZERO, ONE) or t in nxt
                    if ranged:
                        assert all(type(lvl) is range for lvl in d.levels)


class TestStorage:
    def test_6x8_corner_grid_memory(self):
        """Arcs are two ``array('q')``, so the constructed diagram holds
        at most 24 B per node (54 B when they were tuples of ints), and
        ``reduce_bdd`` peaks at most at half the 8,433,464 B it took with
        a remap list and a list of live ids (tracemalloc, Python 3.11)."""
        g = grid_graph(6, 8, [1, 8, 41, 48])
        order = bfs_order(g, 48)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bdd = construct_bdd(g, order)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            reduce_bdd(bdd)
            reduce_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert bdd.node_count == 87_624
        assert held <= 24 * bdd.node_count
        assert reduce_peak <= 8_433_464 // 2


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

    def test_node_cap_reports_layers(self):
        # the ninth node would open level 4: levels 1-3 are complete and
        # level 4 holds two nodes so far
        g = Graph(
            4,
            ((1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1), (2, 3, 1)),
            frozenset({1, 4}),
        )
        with pytest.raises(NodeCapExceeded) as exc:
            construct_bdd(g, order_edges(g), node_cap=8)
        assert exc.value.level == 3
        assert exc.value.layer_sizes == [1, 2, 3, 2, 0]
        # a bound that prunes nothing, the sum of all edge costs, stops
        # at the same node
        with pytest.raises(NodeCapExceeded) as bounded:
            construct_bdd(g, order_edges(g), 5, node_cap=8)
        assert bounded.value.level == 3
        assert bounded.value.layer_sizes == [1, 2, 3, 2, 0]
        assert str(bounded.value) == str(exc.value)

    def test_needs_two_terminals(self):
        g = Graph(2, ((1, 2, 1),), frozenset({1}))
        with pytest.raises(GraphError):
            FrontierSearch(g, bfs_order(g, start=1))

    def test_negative_theta_rejected(self, triangle):
        with pytest.raises(GraphError):
            construct_bdd(triangle, order_edges(triangle), -1)

    def test_order_graph_mismatch(self, triangle, square):
        with pytest.raises(GraphError):
            construct_bdd(triangle, order_edges(square))

    @pytest.mark.parametrize("perm", [(2, 2, 2), (0, 0, 1), (0, 1, 5)])
    def test_order_must_be_a_permutation(self, triangle, perm):
        # each once gave a wrong answer: {2} twice, no tree, IndexError
        with pytest.raises(GraphError, match="not a permutation"):
            construct_bdd(triangle, EdgeOrder(perm, 2))

    def test_order_made_on_a_reindexed_copy(self, triangle):
        """An order depends on the edge indices only: one made on a copy
        with the same edges indexed otherwise builds the same diagram as
        the reference step does on the original."""
        rng = random.Random(3)
        graphs = [triangle, grid_graph(3, 4, [1, 12])]
        graphs += [random_connected_graph(rng) for _ in range(20)]
        for g in graphs:
            edges = list(g.edges)
            rng.shuffle(edges)
            h = Graph(g.vertex_count, tuple(edges), g.terminals)
            order = order_edges(h)
            bdd = construct_bdd(g, order)
            assert bdd.dump() == reference_construct_bdd(g, order).dump()
        h = Graph(3, triangle.edges[::-1], triangle.terminals)
        assert decoded_subsets(construct_bdd(triangle, order_edges(h))) == {
            frozenset({0, 1}), frozenset({2})
        }

    def test_dump_format(self, triangle):
        bdd = construct_bdd(triangle, order_edges(triangle))
        lines = bdd.dump().splitlines()
        assert lines[0] == f"bdd {bdd.node_count} {bdd.level_count}"
        assert len(lines) == bdd.node_count + 1
        for line in lines[1:]:
            nid, level, lo, hi = map(int, line.split())
            assert bdd.lo[nid] == lo and bdd.hi[nid] == hi
            assert nid in bdd.levels[level]


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

# name -> node count, sha256 of Bdd.dump() after reduce_bdd
GOLDEN_REDUCED = {
    "triangle": (
        4, "88fd6c156db2a852f2f5d524b38d1c87f4c3c37fb6ecee0730b2f588d0b1f1c6"
    ),
    "grid_2x20": (
        272, "3367e4a862b1e98abfbca4db7f4fb9ad45e474365df6de6dbe2de39ac5915dbb"
    ),
    "grid_4x4": (
        848, "141ce9d7abdbf7e3b611bdcf7641b073aa3b5ccb404f040c8b08438e3dabf2ab"
    ),
    "grid_4x8": (
        8302, "ba85c1e48a768fea2701bbdfb8c75da1a68af03885c8b1a90c95398f5d556bab"
    ),
    "merge_cost_theta10": (
        5, "7ca75641128bf70268c93d60fc016289031b54799858e4734a6f9a32ea480741"
    ),
    "random_2029_theta15": (
        25, "ba1331a55334215aa3e75a99940ee249afab0770d206cd1b9de4df147af5e51c"
    ),
}


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
        bdd = construct_bdd(g, bfs_order(g, start=start), theta)
        assert bdd.node_count == nodes
        assert hashlib.sha256(bdd.dump().encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, make, start, theta",
        [case[:4] for case in GOLDEN_DIAGRAMS],
        ids=[case[0] for case in GOLDEN_DIAGRAMS],
    )
    def test_reduced_dump_digest(self, name, make, start, theta):
        g = make()
        reduced = reduce_bdd(construct_bdd(g, bfs_order(g, start=start), theta))
        nodes, digest = GOLDEN_REDUCED[name]
        assert reduced.node_count == nodes
        assert hashlib.sha256(reduced.dump().encode()).hexdigest() == digest
