"""Library entry point: theta resolution and tree order on the run() path."""

import math
import random
from fractions import Fraction

import pytest

import steinerenum
from steinerenum import (
    Bdd,
    Graph,
    GraphError,
    RunConfig,
    RunResult,
    SeedConfig,
    SteinerTree,
    construct_bdd,
    count_trees,
    enumerate_trees,
    expand_tree,
    order_edges,
    parse_stp,
    pipeline,
    reduce_bdd,
    resolve_theta,
    run,
    select_seeds,
    simplify,
    tosp_tree,
    union_subgraph,
)
from steinerenum.frontier import ZERO
from steinerenum.pipeline import build_diagram

from .conftest import (
    add_parallel_edge_and_loop,
    grid_graph,
    random_connected_graph,
    subdivide_edge,
)
from .oracle import brute_force_minimal_steiner

# a two-edge path 1-2-3 with decimal weights; cost scale 100
DECIMAL_PATH_STP = """\
SECTION Graph
Nodes 3
Edges 2
E 1 2 0.14
E 2 3 0.15
END
SECTION Terminals
Terminals 2
T 1
T 3
END
EOF
"""


class TestResolveTheta:
    @pytest.mark.parametrize("theta", [0.29, Fraction("0.29")])
    def test_float_theta_is_its_decimal(self, theta):
        # 0.29 * 100 is 28.999... in binary floating point
        g = parse_stp(DECIMAL_PATH_STP)
        res = run(g, RunConfig(theta=theta, seeds=None))
        assert res.theta == 29
        assert [(t.cost, t.sorted_edges()) for t in res.trees] == [(29, (0, 1))]

    @pytest.mark.parametrize("ratio", [0.29, Fraction("0.29")])
    def test_float_ratio_is_its_decimal(self, ratio):
        # 0.29 * 100 is 28.999... in binary floating point
        g = parse_stp(DECIMAL_PATH_STP)
        assert resolve_theta(RunConfig(theta_ratio=ratio), g, 100) == 29

    def test_infinite_ratio_is_no_bound(self, triangle):
        # as theta=inf: the default ratio 1.2 would keep only the cost-2 tree
        assert resolve_theta(RunConfig(theta_ratio=math.inf), triangle, 2) is None
        for cfg in (RunConfig(theta_ratio=math.inf), RunConfig(theta=math.inf)):
            res = run(triangle, cfg)
            assert res.theta is None
            assert [t.edges for t in res.trees] == [
                frozenset({0, 1}), frozenset({2})
            ]

    def test_negative_theta_rejected(self):
        g = parse_stp(DECIMAL_PATH_STP)
        with pytest.raises(GraphError):
            resolve_theta(RunConfig(theta=-0.001), g, None)

    @pytest.mark.parametrize(
        "bound",
        [
            {"theta": Fraction(-1)},
            {"theta_ratio": Fraction(-1)},
            {"theta": float("nan")},
            {"theta_ratio": float("nan")},
        ],
        ids=["theta", "theta_ratio", "theta-nan", "theta_ratio-nan"],
    )
    def test_negative_bound_is_a_config_error(self, bound):
        # caught before any graph is read, whatever the reference cost
        (name,) = bound
        with pytest.raises(GraphError, match=f"^{name} must be non-negative$"):
            RunConfig(**bound)

    def test_non_integer_k_is_a_config_error(self):
        with pytest.raises(ValueError, match="^k must be an integer$"):
            RunConfig(k=2.5)

    @pytest.mark.parametrize(
        "field, error, message",
        [
            ("k", ValueError, "k must be an integer"),
            ("node_cap", ValueError, "node_cap must be an integer"),
            ("theta", GraphError, "theta must be a number, not a bool"),
            ("theta_ratio", GraphError, "theta_ratio must be a number, not a bool"),
        ],
    )
    def test_bool_is_a_config_error(self, field, error, message):
        # True is an int equal to 1: it once wrote one tree, bounded by 1
        # or failed with "node cap True exceeded"
        with pytest.raises(error, match=f"^{message}$"):
            RunConfig(**{field: True})

    @pytest.mark.parametrize("root", [True, 1.0, "1"])
    def test_non_integer_seed_root_is_a_config_error(self, root):
        # True is in frozenset({1, 3}): it once ran with root 1, and 1.0
        # failed inside the seed search with a TypeError
        with pytest.raises(ValueError, match="^seed_root must be an integer$"):
            RunConfig(seed_root=root)

    def test_integer_seed_root_runs(self, triangle):
        assert run(triangle, RunConfig(seed_root=3)).trees
        assert RunConfig().seed_root is None

    def test_replace_checks_the_bound(self):
        cfg = RunConfig()._replace(theta=Fraction(1))
        assert cfg.theta == 1 and cfg.seeds == RunConfig().seeds
        with pytest.raises(GraphError, match="theta must be non-negative"):
            RunConfig()._replace(theta=Fraction(-1))
        with pytest.raises(ValueError, match="mutually exclusive"):
            cfg._replace(theta_ratio=Fraction(2))

    def test_ratio_without_reference_uses_shortest_path_tree(self):
        rng = random.Random(3)
        graphs = [parse_stp(DECIMAL_PATH_STP)]
        graphs += [random_connected_graph(rng) for _ in range(20)]
        for g in graphs:
            want = math.floor(2 * tosp_tree(g).cost)
            assert resolve_theta(RunConfig(theta_ratio=Fraction(2)), g, None) == want


class TestInjectedSeedTrees:
    @pytest.mark.parametrize(
        "tree, problem",
        [
            ({-1}, "edge index -1 out of range"),
            ({5}, "edge index 5 out of range"),
            ({0}, "not a minimal Steiner tree"),  # does not span 1 and 3
            ({0, 1, 2}, "not a minimal Steiner tree"),  # a cycle
        ],
    )
    def test_bad_tree_is_named(self, triangle, tree, problem):
        cfg = RunConfig(seeds=(frozenset({2}), frozenset(tree)))
        with pytest.raises(GraphError, match=f"^seed tree 1: {problem}$"):
            build_diagram(triangle, cfg)

    def test_no_tree_is_a_config_error(self, triangle):
        # named before any graph is read, not as a disconnected union
        with pytest.raises(GraphError, match="^seeds holds no tree$"):
            build_diagram(triangle, RunConfig(seeds=()))

    def test_valid_trees_set_the_bound(self, triangle):
        cfg = RunConfig(seeds=(frozenset({2}), frozenset({0, 1})))
        res = run(triangle, cfg)
        assert res.theta == 2  # 1.2 times the cheaper tree, floored
        assert [t.edges for t in res.trees] == [frozenset({0, 1})]


class TestSeedsField:
    """RunConfig.seeds alone picks the searched graph."""

    # the 4-cycle 1-2-3-4-1, unit weights, terminals 1 and 3: two trees
    CYCLE = Graph(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)), frozenset({1, 3}))

    def test_none_searches_the_whole_graph(self):
        cfg = RunConfig(theta=math.inf, seeds=None)
        trees = run(self.CYCLE, cfg).trees
        assert trees == brute_force_minimal_steiner(self.CYCLE)
        assert [t.edges for t in trees] == [frozenset({0, 1}), frozenset({2, 3})]

    def test_one_tree_searches_only_itself(self):
        cfg = RunConfig(theta=math.inf, seeds=(frozenset({0, 1}),))
        assert [t.edges for t in run(self.CYCLE, cfg).trees] == [frozenset({0, 1})]

    def test_trees_search_exactly_their_union(self):
        rng = random.Random(29)
        for case in range(60):
            g = random_connected_graph(rng)
            every = brute_force_minimal_steiner(g)
            given = tuple(t.edges for t in rng.sample(every, min(len(every), 2)))
            union = frozenset().union(*given)
            cfg = RunConfig(theta=math.inf, seeds=given)
            want = tuple(t for t in every if t.edges <= union)
            assert run(g, cfg).trees == want, case

    def test_non_integer_index_is_a_graph_error(self, triangle):
        # 2.0 raised a bare TypeError, and True ran as edge 1 and came
        # back as a bool in the tree
        for tree, bad in ((frozenset({2.0}), "2.0"), (frozenset({True, 0}), "True")):
            with pytest.raises(
                GraphError, match=f"^seed tree 0: edge index {bad} is not an integer$"
            ):
                run(triangle, RunConfig(seeds=(tree,)))
        with pytest.raises(GraphError, match="^edge index True is not an integer$"):
            union_subgraph(triangle, {True, 0})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SeedConfig(max_retries=5),
            lambda: RunConfig(use_seeds=False),
            lambda: RunConfig(seed_trees=(frozenset({0}),)),
            lambda: RunConfig(use_simplify=True),
        ],
        ids=["max_retries", "use_seeds", "seed_trees", "use_simplify"],
    )
    def test_removed_fields_are_type_errors(self, make):
        with pytest.raises(TypeError, match="unknown"):
            make()

    def test_fields(self):
        """Fields change only on purpose: each addition or removal edits
        these lists."""
        assert RunConfig._fields == (
            "k", "theta", "theta_ratio", "seeds", "seed_root", "node_cap",
        )
        assert SeedConfig._fields == ("num_seeds", "perturb_fraction", "rng_seed")


def test_run_result_fields():
    """The input's sizes are the caller's graph, not result fields."""
    assert RunResult._fields == (
        "trees", "theta", "pre_vertices", "pre_edges", "bdd_nodes",
        "bdd_nodes_reduced", "peak_entries", "truncated", "timing_ms",
    )


def test_bdd_fields_and_root(triangle):
    """The root follows from the id layout: node 2 on a constructed
    diagram, even one whose two nodes reach no 1-sink, and 0 once
    reduction leaves no node."""
    assert Bdd._fields == ("edge_order", "edge_costs", "lo", "hi", "levels")
    bdd = construct_bdd(triangle, order_edges(triangle), 0)
    assert bdd.node_count == 2 and count_trees(bdd) == 0
    assert bdd.root == 2
    reduced = reduce_bdd(bdd)
    assert reduced.node_count == 0 and reduced.root == ZERO


@pytest.mark.parametrize(
    "make, message",
    [
        # True is in a set of ints as 1: it expanded to edge 1's chain
        (lambda g: expand_tree(SteinerTree(frozenset({True}), 0), simplify(g)[1]),
         "edge index True is not an integer"),
        (lambda g: SeedConfig(perturb_fraction=False),
         "perturb_fraction must be a number, not a bool"),
        # the three below raised a bare TypeError
        (lambda g: SeedConfig(perturb_fraction="0.1"),
         "perturb_fraction must be a number, not a str"),
        (lambda g: RunConfig(theta="3"), "theta must be a number, not a str"),
        (lambda g: RunConfig(theta_ratio="3"), "theta_ratio must be a number, not a str"),
    ],
    ids=["expand_tree-bool", "perturb-bool", "perturb-str", "theta-str", "ratio-str"],
)
def test_bools_and_non_numbers_are_graph_errors(triangle, make, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        make(triangle)


def test_configs_share_equal_seed_defaults():
    a, b = RunConfig(), RunConfig()
    assert a.seeds == b.seeds == SeedConfig()
    assert a == b and hash(a) == hash(b)
    assert RunConfig(seeds=SeedConfig(rng_seed=1)) != a


def test_simplification_changes_no_output():
    """run always simplifies; the diagram of the graph as given writes
    the same trees and the same truncation flag at every theta and k."""
    rng = random.Random(30)
    contracted = 0
    for case in range(300):
        g = random_connected_graph(rng, weight_hi=5)
        if case % 3 == 1:
            g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
        elif case % 3 == 2:
            g = add_parallel_edge_and_loop(g, rng, rng.random() < 0.5)
        whole = reduce_bdd(construct_bdd(g, order_edges(g)))
        for theta in (None, 0, 5, 20):
            for k in (1, 3, 10**6):
                want = enumerate_trees(whole, k=k, theta=theta)
                cfg = RunConfig(k=k, theta=math.inf if theta is None else theta, seeds=None)
                got = run(g, cfg)
                assert (got.trees, got.truncated) == (want.trees, want.truncated), (
                    case, theta, k)
        contracted += got.pre_edges < len(g.edges)
    assert contracted > 100


class TestTreeOrder:
    def test_trees_in_cost_then_edge_order(self):
        # small weights give many cost ties; subdivided edges give
        # simplified chains, and the seeded union remaps edge indices
        rng = random.Random(12)
        ties = 0
        for case in range(240):
            g = random_connected_graph(rng, weight_hi=3)
            for _ in range(rng.randint(0, 3)):
                g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
            if case % 3 == 0:
                g = add_parallel_edge_and_loop(g, rng, rng.random() < 0.5)
            bound = rng.choice([
                {"theta": math.inf}, {}, {"theta_ratio": Fraction(3, 2)},
                {"theta_ratio": Fraction(3)},
            ])
            cfg = RunConfig(
                k=rng.choice([1, 3, 10, 1000]),
                seeds=(SeedConfig(perturb_fraction=0.3, rng_seed=case)
                       if case % 2 == 0 else None),
                **bound,
            )
            trees = [(t.cost, t.sorted_edges()) for t in run(g, cfg).trees]
            assert trees == sorted(trees), case
            ties += sum(a[0] == b[0] for a, b in zip(trees, trees[1:]))
        assert ties > 100


class TestIdentityExpansion:
    """run maps trees back only when the map is not the identity."""

    # 3x3 grid, corner terminals: no degree-2 non-terminal
    GRID = grid_graph(3, 3, [1, 3, 7, 9])

    @staticmethod
    def expanded(g, cfg):
        d = build_diagram(g, cfg)
        found = enumerate_trees(d.reduced, k=cfg.k, theta=d.theta).trees
        return d, tuple(expand_tree(t, d.smap) for t in found)

    @staticmethod
    def count_expansions(monkeypatch) -> list:
        calls = []

        def counted(tree, smap):
            calls.append(tree)
            return expand_tree(tree, smap)

        monkeypatch.setattr(pipeline, "expand_tree", counted)
        return calls

    def test_identity_map_is_not_expanded(self, monkeypatch):
        g = self.GRID
        cfg = RunConfig(theta=math.inf, seeds=None)
        d, want = self.expanded(g, cfg)
        assert d.smap.replacements == tuple((i,) for i in range(len(g.edges)))
        assert len(want) > 1

        def fail(*_):
            raise AssertionError("expand_tree called on the identity map")

        monkeypatch.setattr(pipeline, "expand_tree", fail)
        assert run(g, cfg).trees == want

    def test_removed_loop_is_expanded(self, monkeypatch):
        # the loop comes first, so every other edge index shifts by one
        g = self.GRID
        g = Graph(g.vertex_count, ((5, 5, 1),) + g.edges, g.terminals)
        cfg = RunConfig(theta=math.inf, seeds=None)
        _, want = self.expanded(g, cfg)
        calls = self.count_expansions(monkeypatch)
        assert run(g, cfg).trees == want
        assert len(calls) == len(want) > 1

    def test_strict_seed_union_is_expanded(self, monkeypatch):
        g = self.GRID
        cfg = RunConfig(k=20)
        assert len(select_seeds(g, cfg.seeds).edge_map) < len(g.edges)
        _, want = self.expanded(g, cfg)
        calls = self.count_expansions(monkeypatch)
        assert run(g, cfg).trees == want
        assert len(calls) == len(want) > 0


def test_public_api():
    """Exports change only on purpose: each addition or removal edits
    this list."""
    assert steinerenum.__all__ == [
        "Bdd",
        "ConstructionError",
        "EdgeOrder",
        "EnumerationResult",
        "FrontierSearch",
        "Graph",
        "GraphError",
        "NodeCapExceeded",
        "ParseError",
        "RunConfig",
        "RunResult",
        "SeedConfig",
        "SeedSelection",
        "SimplificationMap",
        "SteinerTree",
        "TraversalError",
        "construct_bdd",
        "count_trees",
        "enumerate_trees",
        "expand_tree",
        "order_edges",
        "parse_stp",
        "reduce_bdd",
        "resolve_theta",
        "run",
        "select_seeds",
        "simplify",
        "tosp_tree",
        "union_subgraph",
        "validate_tree",
        "write_stp",
    ]
    assert all(hasattr(steinerenum, name) for name in steinerenum.__all__)
