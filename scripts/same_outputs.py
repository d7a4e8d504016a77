#!/usr/bin/env python3
"""Compare the CLI of this checkout with another source tree, command by command.

    python3 scripts/same_outputs.py OTHER_SRC

OTHER_SRC is the ``src/`` directory of another checkout, for example of
the parent commit (``git worktree add ../parent HEAD~1``, then pass
``../parent/src``).  Each command runs once with ``PYTHONPATH`` set to
this checkout's ``src/`` and once with it set to OTHER_SRC, and every
command whose exit code, stdout, stderr or written file differ is
printed.  The last lines count the differing commands by subcommand and
stream, one line per pair, such as ``build stdout: 20``.  The exit
status is 1 if any differ, else 0.

The instances are the benchmark's (``perfbench/instances.py``, seeds
0-4).  The 170 commands are ``enumerate`` with each workload's own flags
on every instance of every workload; on the grid-topk and grid-build
instances, the ten commands in ``GRID_COMMANDS``; and on instance 0 of
each sparse-seeded seed, the eight in ``SPARSE_COMMANDS`` and
``SEED_FILE_COMMANDS``.  Those eight are ``stats``; ``build`` at the
benchmark's 1% perturbation and at the default 5%, each of which dumps
the whole diagram built on the seeded search graph; ``enumerate --k 20``
at the default 5%, whose seed unions build larger diagrams than at 1%
(2,753 nodes on seed 3); the two ``seeds`` commands, which write the
seed trees themselves at the default 5% perturbation and at the
benchmark's 1%; and ``enumerate --k 20`` and ``build``, each with
``--seeds-from-file`` naming the trees that this checkout's ``seeds
--perturb 0.01`` wrote for that instance.  The grids have no degree-2
non-terminal, so simplification leaves them as they are.  Two of the
grid commands write a run report and an expansion map, the only paths
on which the CLI loads json, each to a file of its own; that file's
text is the fourth stream compared, with the report's ``timing_ms``
values masked (see ``masked``).  Two more stop at a node cap of 2000
and exit 5, so the cap's diagnostic, the level and the layer sizes so
far, is compared against the other tree's.  Seven more run ``stats`` on
copies of sparse-seeded seed 0 instance 0 with one fault each (see
``malformed``), so error messages, their line numbers and the exit code
are compared too: 177 commands in all.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.instances import WORKLOADS  # noqa: E402

SEEDS = range(5)
OUT = "<file>"  # stands for the command's own output file
FILE_FLAGS = ("--report", "--map")  # the flags that write the file compared
STREAMS = ("exit code", "stdout", "stderr", "file")  # as outcome returns them
GRID_WORKLOADS = ("grid-topk", "grid-build")
GRID_COMMANDS = (
    ("build", "--exact", "--theta", "inf"),
    ("build", "--theta-ratio", "1.05"),
    ("build", "--exact", "--theta", "inf", "--node-cap", "2000"),
    ("count",),
    ("enumerate", "--exact", "--k", "50"),
    ("enumerate", "--k", "50", "--perturb", "0.3"),
    ("enumerate", "--exact", "--k", "50", "--report", OUT),
    ("enumerate", "--exact", "--k", "50", "--node-cap", "2000"),
    ("simplify", "--map", OUT),
    ("stats",),
)
SPARSE_COMMANDS = (
    ("stats",),
    ("build", "--perturb", "0.01"),
    ("build",),
    ("enumerate", "--k", "20"),
    ("seeds",),
    ("seeds", "--perturb", "0.01"),
)
# run with the seed trees of this checkout's ``seeds --perturb 0.01``
SEED_FILE_COMMANDS = (
    ("enumerate", "--k", "20"),
    ("build",),
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
                    for j, (cmd, *flags) in enumerate(GRID_COMMANDS):
                        own = str(work / f"{stp.stem}-{j}.out")
                        out.append((cmd, "--input", str(stp),
                                    *(own if f == OUT else f for f in flags)))
                elif i == 0:
                    out.extend((cmd, "--input", str(stp), *flags)
                               for cmd, *flags in SPARSE_COMMANDS)
                    seeds = work / f"{w.name}-{seed}-{i}-seeds.jsonl"
                    code, text, err, _ = outcome(
                        ROOT / "src", ("seeds", "--input", str(stp), "--perturb", "0.01"))
                    if code:
                        raise RuntimeError(f"seeds on {stp} exited {code}: {err}")
                    seeds.write_text(text, encoding="utf-8")
                    out.extend((cmd, "--input", str(stp), "--seeds-from-file", str(seeds),
                                *flags) for cmd, *flags in SEED_FILE_COMMANDS)
                    if seed == 0:
                        for name, text in malformed(stp.read_text()).items():
                            bad = work / f"{w.name}-{seed}-{i}-{name}.stp"
                            bad.write_text(text, encoding="utf-8")
                            out.append(("stats", "--input", str(bad)))
    return out


def masked(text: str) -> str:
    """text with each number in a ``"timing_ms"`` object replaced by
    ``*``: a report's timings differ from run to run, its keys, their
    order and its other values do not."""
    return re.sub(r'"timing_ms": \{[^}]*\}',
                  lambda m: re.sub(r"-?\d[\d.eE+-]*", "*", m[0]), text)


def outcome(src: Path, argv: tuple[str, ...]) -> tuple[int, str, str, str | None]:
    """Exit code, stdout, stderr and the masked text of the file that a
    flag in ``FILE_FLAGS`` names (None without such a flag, or when the
    run wrote no file).  The file is removed first, so what is read is
    this run's."""
    written = next((Path(argv[i + 1]) for i, flag in enumerate(argv[:-1])
                    if flag in FILE_FLAGS), None)
    if written:
        written.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "steinerenum", *argv],
                          capture_output=True, text=True, env=env)
    text = masked(written.read_text()) if written and written.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, text


def tally(differences) -> list[str]:
    """One line per (subcommand, stream) pair among differences, which
    are (command, differing streams) pairs, with the number of commands
    whose stream differs: ``build stdout: 20``.  A stream is one of
    ``STREAMS``.  Sorted by subcommand, then stream."""
    counts = Counter((cmd[0], part) for cmd, parts in differences for part in parts)
    return [f"{sub} {part}: {n}" for (sub, part), n in sorted(counts.items())]


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
        differences = []
        for cmd in cmds:
            a, b = outcome(ours, cmd), outcome(other, cmd)
            if a != b:
                parts = [name for name, x, y in zip(STREAMS, a, b) if x != y]
                differences.append((cmd, parts))
                print(f"differs ({', '.join(parts)}): steinerenum {' '.join(cmd)}")
    print(f"{len(differences)} of {len(cmds)} commands differ")
    for line in tally(differences):
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
