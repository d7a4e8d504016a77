#!/usr/bin/env python3
"""Benchmark `steinerenum enumerate` end to end, and per layer when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-topk --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

One client runs one CLI child process at a time (a closed loop), cycling
over the workload's instances generated from ``--seed``, until
``--seconds`` have passed.  Each child's wall time, CPU time and peak RSS
come from its own rusage; a metric is the median over each instance's
children, averaged over the instances.  ``setup_s`` is the median wall
time of children that only import ``steinerenum.cli``, run between the
CLI children.  Every output is checked outside the timed children.

Reference outputs ship for seeds 0..99 (``perfbench/reference.json``);
any other ``--seed`` runs the instances of that seed modulo 100, so every
run is checked against a reference.

With ``--trace 1`` untraced children alternate with children run under
``perfbench/tracer.py``, whose output must be byte-identical; the run
reports per-layer times and counters instead of end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program runs
from ``src/`` of the same checkout; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of caches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 170  # a run must end within 180 s, whatever the window
# import-only children timed after each CLI child, so setup_s samples
# the same stretch of machine time as the other metrics
SETUP_PER_CHILD = 2

sys.path.insert(0, str(HERE))
from instances import WORKLOADS, Workload  # noqa: E402


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int | None  # None: killed by a signal, e.g. at the time limit


class Runner:
    """Starts CLI children one at a time inside a private work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC),
                    "PYTHONPYCACHEPREFIX": str(work / "pycache")}
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, argv: list[str]) -> Sample:
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # the child is reaped only by wait4 below, so its pid stays
            # valid for the timer's kill until then
            timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - t0
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                raise
            finally:
                timer.cancel()
                timer.join()
                _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Sample(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                      None if code < 0 else code)

    def import_s(self) -> float:
        """Wall time of a child that only imports the CLI module."""
        sample = self.child([sys.executable, "-c", "import steinerenum.cli"])
        if sample.code != 0:
            raise SystemExit("error: cannot import steinerenum.cli from src/")
        return sample.wall_s


def per_instance(samples: list[tuple[int, float]]) -> float:
    """Median of each instance's values, averaged over the instances."""
    by_instance: dict[int, list[float]] = {}
    for i, v in samples:
        by_instance.setdefault(i, []).append(v)
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def describe(name: str, unit: str, value: float, values: list[float]) -> str:
    """One human-readable line: the reported value, then the quartiles and
    count of all samples and a tail percentile when at least ten samples
    lie beyond it."""
    line = f"  {name:<30} {value:14.4f} {unit:<6}"
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        line += f" p25 {q[0]:.4f} p75 {q[2]:.4f}"
    line += f" n={len(values)}"
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            line += f" p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"
            break
    return line


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer times and counters from one tracer dump."""
    spans = dump["spans"]
    total: dict[str, float] = {}
    covered = [0.0] * len(spans)  # child time inside each span
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        if s["parent"] is not None:
            covered[s["parent"]] += dur
    for a in dump["aggregates"]:
        total[a["name"]] = total.get(a["name"], 0.0) + a["total_s"]
        if a["parent"] is not None:
            covered[a["parent"]] += a["total_s"]
    self_s = {}
    for s, cov in zip(spans, covered):
        layer = s["name"].split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + (s["end"] - s["start"] - cov)

    c = dump["counters"]
    m = {
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.emit_s": total.get("cli.emit", 0.0),
        "pipeline.run_s": total.get("pipeline.run", 0.0),
        "pipeline.self_s": self_s.get("pipeline", 0.0),
        "graph.parse_s": total.get("graph.parse", 0.0),
        "seeds.select_s": sum(v for n, v in total.items() if n.startswith("seeds.")),
        "graph.simplify_s": total.get("graph.simplify", 0.0),
        "graph.order_s": total.get("graph.order", 0.0),
        "frontier.construct_s": total.get("frontier.construct", 0.0),
        "traverse.reduce_s": total.get("traverse.reduce", 0.0),
        "traverse.count_s": total.get("traverse.count", 0.0),
        "traverse.enumerate_s": total.get("traverse.enumerate", 0.0),
        "graph.expand_s": total.get("graph.expand", 0.0),
    }
    for name in ("graph.edges", "seeds.distinct", "seeds.union_edges",
                 "graph.simplify_edges_in", "graph.simplify_edges_out",
                 "graph.frontier_width", "frontier.nodes", "frontier.max_layer",
                 "frontier.merge_hits", "frontier.arcs_zero", "frontier.arcs_one",
                 "traverse.nodes_reduced", "traverse.peak_entries",
                 "traverse.sink_arrivals", "mem.peak_after_preprocess_mb",
                 "mem.peak_after_construct_mb", "mem.peak_after_enumerate_mb"):
        m[name] = c.get(name, 0)
    m["traverse.live_frac"] = m["traverse.nodes_reduced"] / max(m["frontier.nodes"], 1)
    arrivals = m["traverse.sink_arrivals"]
    m["traverse.kept_frac"] = min(c.get("traverse.k", 0), arrivals) / max(arrivals, 1)
    return m


# Stages that partition cli.main_s, for the share table.
STAGES = {
    "parse": "graph.parse_s", "seeds": "seeds.select_s", "simplify": "graph.simplify_s",
    "order": "graph.order_s", "construct": "frontier.construct_s",
    "reduce": "traverse.reduce_s", "count": "traverse.count_s",
    "enumerate": "traverse.enumerate_s", "expand": "graph.expand_s",
    "pipeline_glue": "pipeline.self_s", "cli_self": "cli.self_s",
}


def stage_shares(m: dict[str, float]) -> dict[str, float]:
    return {stage: m[name] / m["cli.main_s"] for stage, name in STAGES.items()}


def bench(workload: Workload, seed: int, seconds: float, trace: bool,
          work: Path, deadline: float) -> dict:
    from check import Checker

    runner = Runner(work, deadline)
    runner.import_s()  # fills the byte-code cache before anything is timed
    setup: list[float] = []
    all_refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    recorded = sum(key.startswith(f"{workload.name}/") for key in all_refs)
    if not recorded:
        raise SystemExit(f"error: no reference outputs for {workload.name}")
    inst_seed = seed % recorded
    refs = all_refs[f"{workload.name}/{inst_seed}"]
    stps, checkers = [], []
    for i in range(workload.instances):
        inst = workload.instance(inst_seed, i)
        stps.append(work / f"instance{i}.stp")
        stps[-1].write_text(inst.stp(), encoding="utf-8")
        checkers.append(Checker(workload, inst, refs[i]))
    good: dict[int, bytes] = {}  # first output of each instance that passed
    problems: list[str] = []

    def passes(i: int, sample: Sample, out_name: str) -> bool:
        if sample.code not in (0, 6):
            problems.append(f"instance {i}: exit code {sample.code}")
            return False
        data = (work / out_name).read_bytes()
        if i in good:
            if data == good[i]:
                return True
            problems.append(f"instance {i}: {out_name} differs from its first good output")
            return False
        errs = checkers[i].errors(data.decode("utf-8"))
        problems.extend(f"instance {i}: {e}" for e in errs[:5])
        if not errs:
            good[i] = data
        return not errs

    plain: list[tuple[int, Sample]] = []
    traced: list[tuple[int, Sample]] = []
    layers: list[tuple[int, dict[str, float]]] = []
    attempted = failed = 0
    end = time.monotonic() + seconds
    while time.monotonic() < end or len(plain) < workload.instances:
        i = len(plain) % workload.instances
        cli_args = ["enumerate", "--input", str(stps[i]), *workload.args]
        for stale in ("out.jsonl", "traced.jsonl", "spans.json"):
            (work / stale).unlink(missing_ok=True)
        s = runner.child([sys.executable, "-m", "steinerenum", *cli_args,
                          "--output", "out.jsonl"])
        attempted += 1
        failed += not passes(i, s, "out.jsonl")
        plain.append((i, s))
        if not trace:
            setup.extend(runner.import_s() for _ in range(SETUP_PER_CHILD))
        else:
            s = runner.child([sys.executable, str(HERE / "tracer.py"), "spans.json",
                              *cli_args, "--output", "traced.jsonl"])
            attempted += 1
            traced.append((i, s))
            if passes(i, s, "traced.jsonl"):
                dump = json.loads((work / "spans.json").read_text(encoding="utf-8"))
                problems += [f"trace: {name} not found, not timed" for name in dump["missing"]]
                layers.append((i, layer_metrics(dump)))
            else:
                failed += 1

    lines = [f"{workload.name} seed={seed} (instances of seed {inst_seed}) "
             f"trace={int(trace)}: "
             f"attempted {attempted} failed {failed} "
             f"failed_frac {failed / attempted:.4f} "
             f"({workload.instances} instance(s), values are per-instance "
             f"medians averaged over instances)"]
    lines += [f"  check: {p}" for p in dict.fromkeys(problems)]
    walls = [(i, s.wall_s) for i, s in plain]
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if not trace:
        series = {"wall_s": ("s", walls),
                  "cpu_s": ("s", [(i, s.cpu_s) for i, s in plain]),
                  "peak_rss_mb": ("MB", [(i, s.rss_mb) for i, s in plain])}
        for name, (unit, samples) in series.items():
            metrics[name] = per_instance(samples)
            units[name] = unit
            lines.append(describe(name, unit, metrics[name], [v for _, v in samples]))
        metrics["setup_s"] = statistics.median(setup)
        units["setup_s"] = "s"
        lines.append(describe("setup_s", "s", metrics["setup_s"], setup))
    elif layers:
        for name in layers[0][1]:
            metrics[name] = per_instance([(i, m[name]) for i, m in layers])
        # each traced child runs right after an untraced one on the same
        # instance, so the pair's difference cancels slow drift of the host
        pairs = [(i, t.wall_s - p.wall_s) for (i, p), (_, t) in zip(plain, traced)]
        metrics["trace.overhead_s"] = per_instance(pairs)
        units = {n: "s" if n.endswith("_s") else "MB" if n.endswith("_mb")
                 else "ratio" if n.endswith("_frac") else "count" for n in metrics}
        lines += [f"  {n:<30} {v:14.4f} {units[n]}" for n, v in metrics.items()
                  if n != "trace.overhead_s"]
        lines.append(describe("trace.overhead_s", "s", metrics["trace.overhead_s"],
                              [d for _, d in pairs]))
        lines.append("  stage shares of cli.main_s: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(
                stage_shares(metrics).items(), key=lambda kv: -kv[1])))
    print("\n".join(lines), flush=True)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "steinerenum" / "cli.py").is_file():
        print(f"error: no steinerenum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # a terminated run still kills and reaps its child (see Runner.child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        for name in names:
            result = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           work, time.monotonic() + HARD_LIMIT_S)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
