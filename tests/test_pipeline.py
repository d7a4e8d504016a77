"""Library entry point: theta resolution and tree order on the run() path."""

import math
import random
from fractions import Fraction

import pytest

import steinerenum
from steinerenum import (
    Graph,
    GraphError,
    RunConfig,
    SeedConfig,
    enumerate_trees,
    expand_tree,
    parse_stp,
    pipeline,
    resolve_theta,
    run,
    select_seeds,
    tosp_tree,
)
from steinerenum.pipeline import build_diagram

from .conftest import (
    add_parallel_edge_and_loop,
    grid_graph,
    random_connected_graph,
    subdivide_edge,
)

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
        res = run(g, RunConfig(theta=theta, use_seeds=False, use_simplify=False))
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
        cfg = RunConfig(seed_trees=(frozenset({2}), frozenset(tree)))
        with pytest.raises(GraphError, match=f"^seed tree 1: {problem}$"):
            build_diagram(triangle, cfg)

    def test_no_tree_is_a_config_error(self, triangle):
        # named before any graph is read, not as a disconnected union
        with pytest.raises(GraphError, match="^seed_trees holds no tree$"):
            build_diagram(triangle, RunConfig(seed_trees=()))

    def test_valid_trees_set_the_bound(self, triangle):
        cfg = RunConfig(seed_trees=(frozenset({2}), frozenset({0, 1})))
        res = run(triangle, cfg)
        assert res.theta == 2  # 1.2 times the cheaper tree, floored
        assert [t.edges for t in res.trees] == [frozenset({0, 1})]


def test_configs_share_equal_seed_defaults():
    a, b = RunConfig(), RunConfig()
    assert a.seeds == b.seeds == SeedConfig()
    assert a == b and hash(a) == hash(b)
    assert RunConfig(seeds=SeedConfig(rng_seed=1)) != a


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
                seeds=SeedConfig(perturb_fraction=0.3, rng_seed=case),
                use_seeds=case % 2 == 0,
                use_simplify=case % 4 < 2,
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

    @pytest.mark.parametrize("use_simplify", [False, True])
    def test_identity_map_is_not_expanded(self, monkeypatch, use_simplify):
        g = self.GRID
        cfg = RunConfig(theta=math.inf, use_seeds=False, use_simplify=use_simplify)
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
        cfg = RunConfig(theta=math.inf, use_seeds=False)
        _, want = self.expanded(g, cfg)
        calls = self.count_expansions(monkeypatch)
        assert run(g, cfg).trees == want
        assert len(calls) == len(want) > 1

    def test_strict_seed_union_is_expanded(self, monkeypatch):
        g = self.GRID
        cfg = RunConfig(k=20, use_simplify=False)
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
