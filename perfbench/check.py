"""Output checker for `steinerenum enumerate` JSON-lines output.

Runs outside the timed region.  Each emitted tree is mapped back to edge
indices of the generated instance, validated as a minimal Steiner tree
with ``validate_tree`` and re-costed from the generator's own weights.
The output as a whole must hold distinct trees in ascending cost order,
all within the applied theta, at least min(k, tree count) of them, and
its first-k cost sequence must match the reference recorded for the seed
when one ships with the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math

from steinerenum import Graph, SeedConfig, SteinerTree, select_seeds, validate_tree

from instances import Instance, Workload


def cost_digest(costs) -> str:
    return hashlib.sha256(",".join(map(str, costs)).encode()).hexdigest()


def reference_entry(costs) -> dict:
    """What the reference file stores for one seed's first-k costs."""
    return {"count": len(costs), "last": costs[-1] if costs else None,
            "sha256": cost_digest(costs)}


class Checker:
    """Checks outputs of one workload on one generated instance."""

    def __init__(self, workload: Workload, inst: Instance, reference: dict | None):
        self.workload = workload
        self.reference = reference
        units = inst.weight_units()
        self.graph = Graph(
            inst.vertex_count,
            tuple((u, v, w) for (u, v, _), w in zip(inst.edges, units)),
            frozenset(inst.terminals),
            inst.cost_scale,
        )
        self.index = {(min(u, v), max(u, v)): i for i, (u, v, _) in enumerate(inst.edges)}
        self.theta = None
        if workload.theta_ratio is not None:
            # the CLI applies its theta ratio to the cheapest seed tree
            seeds = select_seeds(self.graph, SeedConfig(perturb_fraction=workload.perturb))
            self.theta = math.floor(
                workload.theta_ratio * min(t.cost for t in seeds.seed_trees))

    def errors(self, text: str) -> list[str]:
        """Every problem found in one output, or [] when it passes."""
        errs: list[str] = []
        seen: set[frozenset[int]] = set()
        costs: list[int] = []
        for ln, line in enumerate(text.splitlines(), 1):
            try:
                rec = json.loads(line)
                cost, pairs = rec["cost"], rec["edges"]
                idxs = [self.index[(min(u, v), max(u, v))] for u, v in pairs]
            except (ValueError, KeyError, TypeError) as exc:
                errs.append(f"line {ln}: unreadable tree ({exc!r})")
                continue
            edges = frozenset(idxs)
            if len(edges) != len(idxs):
                errs.append(f"line {ln}: repeated edge")
            if not validate_tree(SteinerTree(edges, cost), self.graph):
                errs.append(f"line {ln}: not a minimal Steiner tree")
            if self.graph.tree_cost(edges) != cost:
                errs.append(f"line {ln}: cost {cost} != edge sum "
                            f"{self.graph.tree_cost(edges)}")
            if edges in seen:
                errs.append(f"line {ln}: duplicate tree")
            seen.add(edges)
            if costs and cost < costs[-1]:
                errs.append(f"line {ln}: cost {cost} below previous {costs[-1]}")
            if self.theta is not None and cost > self.theta:
                errs.append(f"line {ln}: cost {cost} above theta {self.theta}")
            costs.append(cost)

        k = self.workload.k
        need = self.reference["count"] if self.reference else min(k, self.workload.min_trees)
        if len(costs) < need:
            errs.append(f"{len(costs)} trees, expected at least {need}")
        if self.reference and reference_entry(costs[:k]) != self.reference:
            errs.append(f"first-{k} costs differ from the reference "
                        f"(k-th cost {costs[:k][-1:]} vs {self.reference['last']})")
        return errs
