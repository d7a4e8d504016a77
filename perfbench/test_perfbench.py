"""Tests of the benchmark itself: generator, checker and tracer.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import steinerenum.pipeline  # noqa: E402
import tracer  # noqa: E402
from check import Checker, reference_entry  # noqa: E402
from instances import WORKLOADS, Instance, Workload, grid, holey_grid  # noqa: E402
from run import layer_metrics, stage_shares  # noqa: E402

TINY_GRID = Workload("tiny-grid", lambda rng: grid(3, 4, rng), k=5, min_trees=5)
TINY_SEEDED = Workload("tiny-seeded", lambda rng: holey_grid(12, rng), k=5, min_trees=1,
                       theta_ratio=WORKLOADS["sparse-seeded"].theta_ratio, perturb=0.2)


def cli_output(tmp_path: Path, workload: Workload, inst: Instance, traced=False) -> bytes:
    stp = tmp_path / "g.stp"
    stp.write_text(inst.stp(), encoding="utf-8")
    out = tmp_path / ("traced.jsonl" if traced else "out.jsonl")
    prefix = ([str(HERE / "tracer.py"), str(tmp_path / "spans.json")] if traced
              else ["-m", "steinerenum"])
    proc = subprocess.run(
        [sys.executable, *prefix, "enumerate", "--input", str(stp), *workload.args,
         "--output", str(out)],
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True)
    assert proc.returncode in (0, 6), proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_byte_identical_per_seed(name):
    w = WORKLOADS[name]
    assert w.instance(3).stp() == w.instance(3).stp()
    assert w.instance(3).stp() != w.instance(4).stp()
    assert w.instance(3, 0).stp() != w.instance(3, 1).stp()


def test_holey_grid_shape():
    inst = holey_grid(100, random.Random(1))
    assert 55_000 < len(inst.edges) < 63_000
    assert len(set(inst.terminals)) == 5 and max(inst.terminals) <= 100 * 100
    assert inst.cost_scale == 10  # one decimal place: the scaling path runs
    assert all(len(w.partition(".")[2]) == 1 for _, _, w in inst.edges)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    inst = TINY_GRID.instance(0)
    text = cli_output(tmp_path_factory.mktemp("tiny"), TINY_GRID, inst).decode()
    lines = text.splitlines()
    ref = reference_entry([json.loads(line)["cost"] for line in lines][:TINY_GRID.k])
    return inst, lines, ref


def test_checker_accepts_program_output(tiny):
    inst, lines, ref = tiny
    assert len(lines) >= TINY_GRID.k
    assert Checker(TINY_GRID, inst, ref).errors("\n".join(lines)) == []


def _extra_edge(lines, inst):
    rec = json.loads(lines[0])
    used = {tuple(p) for p in rec["edges"]}
    rec["edges"].append(next([u, v] for u, v, _ in inst.edges if (u, v) not in used))
    return [json.dumps(rec)] + lines[1:]


def _dearer(lines):
    """Index of the first tree that costs more than the cheapest."""
    return next(j for j in range(1, len(lines))
                if json.loads(lines[j])["cost"] != json.loads(lines[0])["cost"])


def _swap_costs(lines, inst):
    j = _dearer(lines)
    a, b = json.loads(lines[0]), json.loads(lines[j])
    a["cost"], b["cost"] = b["cost"], a["cost"]
    out = list(lines)
    out[0], out[j] = json.dumps(a), json.dumps(b)
    return out


def _kth_cost(lines, inst):
    return lines[:TINY_GRID.k - 1]  # the k-th tree, and every later one, is missing


@pytest.mark.parametrize("corrupt", [
    _extra_edge,
    _swap_costs,
    _kth_cost,
    lambda lines, inst: [lines[0], lines[0]] + lines[2:],  # duplicate tree
    lambda lines, inst: lines[:1] + ["not json"] + lines[1:],
    lambda lines, inst: [lines[_dearer(lines)]] + lines,  # a dearer tree first
], ids=["extra-edge", "swapped-costs", "missing-kth", "duplicate", "garbage",
        "descending"])
def test_checker_rejects_corrupted_output(tiny, corrupt):
    inst, lines, ref = tiny
    bad = corrupt(lines, inst)
    assert Checker(TINY_GRID, inst, ref).errors("\n".join(bad))


def test_checker_rejects_wrong_kth_cost_in_reference(tiny):
    inst, lines, ref = tiny
    costs = [json.loads(line)["cost"] for line in lines][:TINY_GRID.k]
    wrong = reference_entry(costs[:-1] + [costs[-1] + 1])
    assert Checker(TINY_GRID, inst, wrong).errors("\n".join(lines))


def test_checker_rejects_cost_over_theta(tmp_path):
    inst = TINY_SEEDED.instance(0)
    checker = Checker(TINY_SEEDED, inst, None)
    text = cli_output(tmp_path, TINY_SEEDED, inst).decode()
    assert checker.errors(text) == []
    checker.theta = json.loads(text.splitlines()[0])["cost"] - 1
    assert any("above theta" in e for e in checker.errors(text))


@pytest.mark.parametrize("workload", [TINY_GRID, TINY_SEEDED], ids=lambda w: w.name)
def test_traced_output_equals_untraced(tmp_path, workload):
    inst = workload.instance(0)
    plain = cli_output(tmp_path, workload, inst)
    assert cli_output(tmp_path, workload, inst, traced=True) == plain
    dump = json.loads((tmp_path / "spans.json").read_text())
    names = {s["name"] for s in dump["spans"]} | {a["name"] for a in dump["aggregates"]}
    assert {"cli.main", "graph.parse", "pipeline.run", "frontier.construct",
            "traverse.enumerate"} <= names
    m = layer_metrics(dump)
    assert sum(stage_shares(m).values()) == pytest.approx(1.0)
    assert m["frontier.nodes"] >= m["traverse.nodes_reduced"] > 0
    if workload is TINY_SEEDED:
        assert m["seeds.distinct"] >= 1 and m["graph.expand_s"] > 0
        assert m["graph.simplify_edges_out"] < m["graph.simplify_edges_in"]


def test_tracer_restores_functions(tmp_path):
    inst = TINY_GRID.instance(0)
    stp = tmp_path / "g.stp"
    stp.write_text(inst.stp(), encoding="utf-8")
    before = steinerenum.pipeline.construct_bdd
    code = tracer.main([str(tmp_path / "spans.json"), "enumerate", "--input", str(stp),
                        *TINY_GRID.args, "--output", str(tmp_path / "out.jsonl")])
    assert code == 0
    assert steinerenum.pipeline.construct_bdd is before


def test_benchmark_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grid-topk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
