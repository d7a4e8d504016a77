"""Deterministic instance generator for the benchmark.

Every instance is a function of (workload, seed, instance index) only.  The generator
returns the STP text handed to the program plus the exact edge list it
encodes, so the output checker can rebuild the original graph without
going through the program's parser.

Edge weights are written as decimals with at most one fractional digit;
``weight_units`` holds each weight times ``cost_scale`` so costs compare
exactly against the program's scaled integer costs.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class Instance:
    vertex_count: int
    edges: tuple[tuple[int, int, str], ...]  # u, v, weight as written
    terminals: tuple[int, ...]

    @property
    def cost_scale(self) -> int:
        """Fixed-point factor the STP format implies: the least common
        denominator of the written weights."""
        return lcm(*(Fraction(w).denominator for _, _, w in self.edges))

    def weight_units(self) -> list[int]:
        scale = self.cost_scale
        return [int(Fraction(w) * scale) for _, _, w in self.edges]

    def stp(self) -> str:
        out = ["33D32945 STP File, STP Format Version 1.0", "", "SECTION Graph",
               f"Nodes {self.vertex_count}", f"Edges {len(self.edges)}"]
        out.extend(f"E {u} {v} {w}" for u, v, w in self.edges)
        out += ["END", "", "SECTION Terminals", f"Terminals {len(self.terminals)}"]
        out.extend(f"T {t}" for t in self.terminals)
        out += ["END", "", "EOF"]
        return "\n".join(out) + "\n"


def grid(rows: int, cols: int, rng: random.Random) -> Instance:
    """Grid with integer weights 1-10 and the four corners as terminals.

    Vertex (r, c) is r*cols + c + 1; edges are listed row-major, the
    rightward edge of a vertex before its downward one.
    """
    def vid(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), str(rng.randint(1, 10))))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), str(rng.randint(1, 10))))
    corners = (vid(0, 0), vid(0, cols - 1), vid(rows - 1, 0), vid(rows - 1, cols - 1))
    return Instance(rows * cols, tuple(edges), corners)


# holey_grid: share of all grid edges removed as holes, and the most
# edges a remaining grid edge is split into
HOLE_FRAC = 0.15
MAX_SEGMENTS = 6


def holey_grid(side: int, rng: random.Random) -> Instance:
    """Square grid with holes, subdivided edges and one-decimal weights.

    A random spanning tree is kept intact so the graph stays connected;
    HOLE_FRAC of all grid edges are removed from the rest.  Each
    remaining grid edge becomes a chain of 1..MAX_SEGMENTS edges through
    fresh degree-2 vertices (numbered after the grid vertices).  Weights
    are 1.0-10.0 in steps of 0.1.

    Terminals are grid vertices, one drawn at random from each of five
    fixed 10%-wide boxes, near the four corners and at the centre, so
    every seed asks for a tree of similar extent.
    """
    def vid(r, c):
        return r * side + c + 1

    grid_edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                grid_edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < side:
                grid_edges.append((vid(r, c), vid(r + 1, c)))

    # random spanning tree by union-find over a shuffled edge list
    parent = list(range(side * side + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    shuffled = list(range(len(grid_edges)))
    rng.shuffle(shuffled)
    spare = []
    for i in shuffled:
        a, b = (find(z) for z in grid_edges[i])
        if a == b:
            spare.append(i)
        else:
            parent[a] = b
    holes = set(rng.sample(spare, round(HOLE_FRAC * len(grid_edges))))

    next_vertex = side * side + 1
    edges = []

    def weight() -> str:
        return f"{rng.randint(10, 100) / 10:.1f}"

    for i, (u, v) in enumerate(grid_edges):
        if i in holes:
            continue
        prev = u
        for _ in range(rng.randint(1, MAX_SEGMENTS) - 1):
            edges.append((prev, next_vertex, weight()))
            prev = next_vertex
            next_vertex += 1
        edges.append((prev, v, weight()))

    near, far, box = side // 8, side - 1 - side // 8, side // 10
    centres = [(near, near), (near, far), (far, near), (far, far), (side // 2, side // 2)]
    terminals = tuple(
        vid(r0 - box // 2 + rng.randrange(box), c0 - box // 2 + rng.randrange(box))
        for r0, c0 in centres
    )
    return Instance(next_vertex - 1, tuple(edges), terminals)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its instances and the CLI flags it runs with.

    ``theta_ratio`` None means an exact search of the whole graph with no
    cost bound (``--exact --theta inf``); otherwise seed trees drawn with
    ``perturb`` set the bound at ``theta_ratio`` times the cheapest one.
    The flags are built from these fields, so the checker tests the same
    k and bound the program is given.
    """

    name: str
    make: Callable[[random.Random], Instance]
    k: int
    min_trees: int  # trees every instance is known to hold within theta
    instances: int = 1  # instances per run; more where the cost varies by seed
    theta_ratio: Fraction | None = None
    perturb: float = 0.0  # used only with a theta ratio

    @property
    def args(self) -> tuple[str, ...]:
        """CLI flags besides --input and --output."""
        if self.theta_ratio is None:
            return ("--exact", "--theta", "inf", "--k", str(self.k))
        return ("--k", str(self.k), "--theta-ratio", str(self.theta_ratio),
                "--perturb", str(self.perturb))

    def instance(self, seed: int, index: int = 0) -> Instance:
        return self.make(random.Random(f"{self.name}:{seed}:{index}"))


WORKLOADS = {
    w.name: w
    for w in (
        # Traversal-bound: 4x8 grid, k=1000.  Any weighting of this grid
        # holds far more than 1000 minimal trees.
        Workload("grid-topk", lambda rng: grid(4, 8, rng), k=1000, min_trees=1000),
        # Construction-bound: 6x8 grid, k=1.
        Workload("grid-build", lambda rng: grid(6, 8, rng), k=1, min_trees=1),
        # Preprocessing-bound: the CLI's defaults (3 seeds, theta ratio
        # 1.2, simplify on) but for k and the perturbation.  At the
        # default 5% the seed union grows cycles, and building its diagram
        # took from 0.01 s to 2 s across 30 seeds; at 1% it stays under
        # 0.1 s.  The union's size still varies with the seed (quadratic
        # simplify), so each run averages 4 instances.
        Workload("sparse-seeded", lambda rng: holey_grid(100, rng), k=20, min_trees=1,
                 instances=4, theta_ratio=Fraction(6, 5), perturb=0.01),
    )
}
