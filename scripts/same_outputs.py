#!/usr/bin/env python3
"""Compare the CLI of this checkout with another source tree, command by command.

    python3 scripts/same_outputs.py OTHER_SRC

OTHER_SRC is the ``src/`` directory of another checkout, for example of
the parent commit (``git worktree add ../parent HEAD~1``, then pass
``../parent/src``).  Each command runs once with ``PYTHONPATH`` set to
this checkout's ``src/`` and once with it set to OTHER_SRC, and every
command whose exit code, stdout or stderr differ is printed.  The exit
status is 1 if any differ, else 0.

The instances are the benchmark's (``perfbench/instances.py``, seeds
0-4).  The 120 commands are ``enumerate`` with each workload's own flags
on every instance of every workload; on the grid-topk and grid-build
instances, the seven commands in ``GRID_COMMANDS``; and on instance 0 of
each sparse-seeded seed, the four commands in ``SPARSE_COMMANDS``:
``stats``, ``build`` at the benchmark's 1% perturbation, which dumps the
whole diagram built on the seeded search graph, and the two ``seeds``
commands, which write the seed trees themselves at the default 5%
perturbation and at the benchmark's 1%.  Seven more run ``stats`` on
copies of sparse-seeded seed 0 instance 0 with one fault each (see
``malformed``), so error messages, their line numbers and the exit
code are compared too: 127 commands in all.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.instances import WORKLOADS  # noqa: E402

SEEDS = range(5)
GRID_WORKLOADS = ("grid-topk", "grid-build")
GRID_COMMANDS = (
    ("build", "--exact", "--theta", "inf"),
    ("build", "--theta-ratio", "1.05"),
    ("count",),
    ("count", "--no-simplify"),
    ("enumerate", "--no-seeds", "--k", "50"),
    ("enumerate", "--k", "50", "--perturb", "0.3"),
    ("stats",),
)
SPARSE_COMMANDS = (
    ("stats",),
    ("build", "--perturb", "0.01"),
    ("seeds",),
    ("seeds", "--perturb", "0.01"),
)


def malformed(text: str) -> dict[str, str]:
    """One-fault copies of an STP text, by fault: an endpoint out of range
    on the last E line, a negative weight, a zero denominator and a
    five-token E line in the middle one, an Edges count one too high, a
    terminal out of range and a terminal on an isolated new vertex."""
    lines = text.splitlines()

    def at(prefix: str) -> list[int]:
        return [i for i, line in enumerate(lines) if line.startswith(prefix)]

    edges, (nodes,), (count,), first_t = at("E "), at("Nodes "), at("Edges "), at("T ")[0]
    n, mid = int(lines[nodes].split()[1]), edges[len(edges) // 2]

    def put(i: int, pos: int, token: str) -> dict[int, str]:
        tokens = lines[i].split()
        tokens[pos:pos + 1] = [token]
        return {i: " ".join(tokens)}

    faults = {
        "endpoint": put(edges[-1], 2, str(n + 1)),
        "negative": put(mid, 3, "-2.5"),
        "zero-den": put(mid, 3, "3/0"),
        "five-token": put(mid, 4, "1"),
        "edge-count": put(count, 1, str(len(edges) + 1)),
        "terminal": put(first_t, 1, str(n + 1)),
        "isolated": {**put(nodes, 1, str(n + 1)), **put(first_t, 1, str(n + 1))},
    }
    return {name: "\n".join(edit.get(i, line) for i, line in enumerate(lines)) + "\n"
            for name, edit in faults.items()}


def commands(work: Path) -> list[tuple[str, ...]]:
    """Write every instance under work and list the commands to compare."""
    out = []
    for w in WORKLOADS.values():
        for seed in SEEDS:
            for i in range(w.instances):
                stp = work / f"{w.name}-{seed}-{i}.stp"
                stp.write_text(w.instance(seed, i).stp(), encoding="utf-8")
                out.append(("enumerate", "--input", str(stp), *w.args))
                if w.name in GRID_WORKLOADS:
                    out.extend((cmd, "--input", str(stp), *flags)
                               for cmd, *flags in GRID_COMMANDS)
                elif i == 0:
                    out.extend((cmd, "--input", str(stp), *flags)
                               for cmd, *flags in SPARSE_COMMANDS)
                    if seed == 0:
                        for name, text in malformed(stp.read_text()).items():
                            bad = work / f"{w.name}-{seed}-{i}-{name}.stp"
                            bad.write_text(text, encoding="utf-8")
                            out.append(("stats", "--input", str(bad)))
    return out


def outcome(src: Path, argv: tuple[str, ...]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "steinerenum", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 scripts/same_outputs.py OTHER_SRC", file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    if not (other / "steinerenum").is_dir():
        print(f"error: {other} has no steinerenum package", file=sys.stderr)
        return 2
    ours = ROOT / "src"
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp))
        differing = 0
        for cmd in cmds:
            a, b = outcome(ours, cmd), outcome(other, cmd)
            if a != b:
                differing += 1
                parts = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b)
                         if x != y]
                print(f"differs ({', '.join(parts)}): steinerenum {' '.join(cmd)}")
    print(f"{differing} of {len(cmds)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
