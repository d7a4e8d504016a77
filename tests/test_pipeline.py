"""Library entry point: theta resolution and tree order on the run() path."""

import math
import random
from fractions import Fraction

import pytest

from steinerenum import GraphError, RunConfig, SeedConfig, parse_stp, resolve_theta, run
from steinerenum import tosp_tree
from steinerenum.pipeline import build_diagram

from .conftest import add_parallel_edge_and_loop, random_connected_graph, subdivide_edge

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

    def test_negative_theta_rejected(self):
        g = parse_stp(DECIMAL_PATH_STP)
        with pytest.raises(GraphError):
            resolve_theta(RunConfig(theta=-0.001), g, None)

    @pytest.mark.parametrize(
        "bound",
        [{"theta": Fraction(-1)}, {"theta_ratio": Fraction(-1)}],
        ids=["theta", "theta_ratio"],
    )
    def test_negative_bound_is_a_config_error(self, bound):
        # caught before any graph is read, whatever the reference cost
        with pytest.raises(GraphError, match="must be non-negative"):
            RunConfig(**bound)


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

    def test_valid_trees_set_the_bound(self, triangle):
        cfg = RunConfig(seed_trees=(frozenset({2}), frozenset({0, 1})))
        res = run(triangle, cfg)
        assert res.theta == 2  # 1.2 times the cheaper tree, floored
        assert [t.edges for t in res.trees] == [frozenset({0, 1})]


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
