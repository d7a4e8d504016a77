#!/usr/bin/env python3
"""Record the benchmark's reference outputs and traced baseline.

Usage (from the repository root)::

    python3 perfbench/record.py reference   # seeds 0..99
    python3 perfbench/record.py baseline    # traced runs, seeds 0..4

``reference`` runs the CLI on every shipped (workload, seed, instance),
checks the output without a reference, and stores a digest of its
first-k cost sequence in ``perfbench/reference.json``.  ``baseline``
runs each workload traced and writes seed 0's per-layer values and
stage shares to ``perfbench/baseline.json``, with the quartiles of
``trace.overhead_s`` over seeds 0..4 to show whether it rises above
noise.  Both describe the program at the commit they are recorded on;
re-record only when a change is meant to alter the output or the
benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from instances import WORKLOADS  # noqa: E402

RECORDED_SEEDS = 100  # run.py maps any --seed onto these
BASELINE_SEEDS = 5
JOBS = 2  # one worker per core of a 2-core host


def reference_for(task: tuple[str, int, int]) -> tuple[str, int, int, dict]:
    import steinerenum.cli
    from check import Checker, reference_entry

    name, seed, index = task
    workload = WORKLOADS[name]
    inst = workload.instance(seed, index)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        stp, out = Path(tmp, "g.stp"), Path(tmp, "out.jsonl")
        stp.write_text(inst.stp(), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            code = steinerenum.cli.main(["enumerate", "--input", str(stp),
                                         *workload.args, "--output", str(out)])
        text = out.read_text(encoding="utf-8")
    errs = Checker(workload, inst, None).errors(text)
    if code not in (0, 6) or errs:
        raise SystemExit(f"{name} seed {seed} instance {index}: exit {code}, {errs[:3]}")
    costs = [json.loads(line)["cost"] for line in text.splitlines()][: workload.k]
    return name, seed, index, reference_entry(costs)


def record_reference():
    seeds = range(RECORDED_SEEDS)
    tasks = [(name, seed, i) for name, w in WORKLOADS.items()
             for seed in seeds for i in range(w.instances)]
    refs: dict[str, dict[str, list]] = {
        name: {str(seed): [None] * w.instances for seed in seeds}
        for name, w in WORKLOADS.items()}
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for name, seed, i, entry in pool.imap_unordered(reference_for, tasks):
            refs[name][str(seed)][i] = entry
    # one line per (workload, seed)
    lines = [f"  {json.dumps(f'{name}/{seed}')}: {json.dumps(entries)}"
             for name, by_seed in refs.items() for seed, entries in by_seed.items()]
    (HERE / "reference.json").write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def record_baseline():
    from run import stage_shares

    baseline = {}
    for name in WORKLOADS:
        runs = []
        for seed in range(BASELINE_SEEDS):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--trace", "1"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: traced run failed its checks")
            runs.append({n: m["value"] for n, m in result["metrics"].items()})
        values = runs[0]
        overheads = [r["trace.overhead_s"] for r in runs]
        q1, median, q3 = statistics.quantiles(overheads, n=4)
        baseline[name] = {
            "seed": 0,
            "stage_shares_of_cli_main": {
                k: round(v, 4) for k, v in stage_shares(values).items()},
            "per_layer": {n: round(v, 4) for n, v in values.items()},
            f"trace.overhead_s_seeds_0_to_{BASELINE_SEEDS - 1}": {
                "values": [round(v, 4) for v in overheads],
                "p25": round(q1, 4), "median": round(median, 4), "p75": round(q3, 4),
                # the tracer's cost cannot be told from run-to-run noise
                # when the quartiles straddle zero
                "within_noise": q1 <= 0 <= q3,
            },
        }
    (HERE / "baseline.json").write_text(
        json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    sub.add_parser("baseline")
    args = ap.parse_args()
    if args.what == "reference":
        record_reference()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
