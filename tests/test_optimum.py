"""Second oracle: the first tree of a run costs exactly the optimum that
Dreyfus–Wagner finds, on graphs past the brute-force oracle's reach."""

import random

import pytest

from perfbench.instances import WORKLOADS
from steinerenum import Graph, SeedConfig, brute_force_minimal_steiner, parse_stp
from steinerenum.pipeline import RunConfig, build_diagram, run
from steinerenum.traverse import enumerate_trees

from .conftest import add_parallel_edge_and_loop, random_connected_graph, subdivide_edge
from .steiner_optimum import steiner_optimum


def weighted_grid(rng: random.Random) -> Graph:
    """A 3×n or 4×n grid of 30-150 edges, weights 0-10, in shuffled edge
    order, with one parallel edge, 1-3 subdivided edges and 2-6
    terminals."""
    rows = rng.choice((3, 4))
    cols = rng.randint(7, 28) if rows == 3 else rng.randint(5, 20)

    def vid(r, c):
        return r * cols + c + 1

    edges = [(vid(r, c), vid(r, c + 1), rng.randint(0, 10))
             for r in range(rows) for c in range(cols - 1)]
    edges += [(vid(r, c), vid(r + 1, c), rng.randint(0, 10))
              for r in range(rows - 1) for c in range(cols)]
    rng.shuffle(edges)
    u, v, _ = rng.choice(edges)
    edges.insert(rng.randrange(len(edges) + 1), (u, v, rng.randint(0, 10)))
    terminals = frozenset(rng.sample(range(1, rows * cols + 1), rng.randint(2, 6)))
    g = Graph(rows * cols, tuple(edges), terminals)
    for _ in range(rng.randint(1, 3)):
        g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
    return g


def test_agrees_with_brute_force():
    rng = random.Random(1971)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=8, max_edges=12,
                                   terminal_sizes=(2, 3, 4, 5), weight_lo=0)
        if rng.random() < 0.5:
            g = add_parallel_edge_and_loop(g, rng, rng.random() < 0.5)
        want = min(t.cost for t in brute_force_minimal_steiner(g))
        assert steiner_optimum(g) == want, g


def test_exact_runs_on_grids_find_the_optimum():
    # half at the CLI's default bound for --exact, half without a bound
    rng = random.Random(1987)
    for i in range(40):
        g = weighted_grid(rng)
        bound = {"theta": float("inf")} if i % 2 else {}
        cfg = RunConfig(k=1, use_seeds=False, use_simplify=False, **bound)
        assert run(g, cfg).trees[0].cost == steiner_optimum(g), (i, g)


@pytest.mark.parametrize("seed", range(5))
def test_seeded_runs_find_the_union_optimum(seed):
    g = parse_stp(WORKLOADS["sparse-seeded"].instance(seed, 0).stp())
    for perturb in (0.01, 0.05):
        d = build_diagram(g, RunConfig(k=1, seeds=SeedConfig(perturb_fraction=perturb)))
        first = enumerate_trees(d.reduced, k=1, theta=d.theta).trees[0]
        assert first.cost == steiner_optimum(d.graph), perturb
