"""End-to-end CLI behavior through real subprocesses."""

import gc
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from steinerenum import SteinerTree, bfs_order, cli, parse_stp, pipeline, simplify, write_stp
from steinerenum.oracle import brute_force_minimal_steiner
from .conftest import (
    TRIANGLE_STP,
    grid_graph,
    random_connected_graph,
    subdivide_edge,
)

CLI = [sys.executable, "-m", "steinerenum"]
NOT_A_TREE_RECORD = 'expected an object with an "edges" or "edge_indices" list'


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


@pytest.fixture
def tri_path(tmp_path):
    p = tmp_path / "tri.stp"
    p.write_text(TRIANGLE_STP)
    return str(p)


@pytest.fixture
def all_term_path(tmp_path):
    text = TRIANGLE_STP.replace("Terminals 2\nT 1\nT 3", "Terminals 3\nT 1\nT 2\nT 3")
    p = tmp_path / "tri3.stp"
    p.write_text(text)
    return str(p)


class TestEnumerate:
    def test_triangle_with_theta(self, tri_path):
        proc = run_cli("enumerate", "--input", tri_path, "--theta", "3", "--k", "10")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0]) == {"cost": 2, "edges": [[1, 2], [2, 3]]}
        assert json.loads(lines[1]) == {"cost": 3, "edges": [[1, 3]]}
        assert len(lines) == 2

    def test_matches_oracle_in_exact_mode(self, tri_path):
        a = run_cli("enumerate", "--input", tri_path, "--exact", "--theta", "inf")
        b = run_cli("oracle", "--input", tri_path)
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_costs_ascend(self, all_term_path):
        proc = run_cli(
            "enumerate", "--input", all_term_path, "--theta", "inf", "--exact"
        )
        costs = [json.loads(line)["cost"] for line in proc.stdout.splitlines()]
        assert costs == sorted(costs) == [2, 4, 4]

    def test_output_file(self, tri_path, tmp_path):
        out = tmp_path / "trees.jsonl"
        proc = run_cli(
            "enumerate", "--input", tri_path, "--theta", "3", "--output", str(out)
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert len(out.read_text().splitlines()) == 2

    def test_report_shape(self, tri_path, tmp_path):
        report = tmp_path / "report.json"
        run_cli(
            "enumerate", "--input", tri_path, "--theta", "inf",
            "--report", str(report),
        )
        data = json.loads(report.read_text())
        assert set(data) == {"graph", "preprocessed", "bdd", "timing_ms", "trees"}
        assert data["graph"] == {"v": 3, "e": 3, "t": 2}
        assert set(data["preprocessed"]) == {"v", "e"}
        assert set(data["bdd"]) == {"nodes", "nodes_reduced"}
        assert set(data["timing_ms"]) == {"construct", "reduce", "traverse"}
        assert data["trees"]["count"] == 2
        assert data["trees"]["min_cost"] == 2
        assert data["trees"]["avg_cost"] == 2.5


class TestExitCodes:
    def test_parse_failure_is_3(self, tmp_path):
        p = tmp_path / "bad.stp"
        p.write_text("SECTION Graph\nNodes 2\nE 1 2\nEND\nEOF\n")
        proc = run_cli("enumerate", "--input", str(p))
        assert proc.returncode == 3
        assert "error:" in proc.stderr

    def test_missing_file_is_3(self):
        proc = run_cli("stats", "--input", "/nonexistent.stp")
        assert proc.returncode == 3

    def test_infeasible_theta_is_4(self, tri_path):
        proc = run_cli("enumerate", "--input", tri_path, "--theta", "1")
        assert proc.returncode == 4
        assert proc.stdout == ""

    def test_node_cap_is_5(self, tri_path):
        proc = run_cli(
            "enumerate", "--input", tri_path, "--theta", "inf",
            "--exact", "--node-cap", "1",
        )
        assert proc.returncode == 5

    def test_truncation_is_6(self, all_term_path):
        proc = run_cli(
            "enumerate", "--input", all_term_path, "--theta", "inf",
            "--exact", "--k", "1",
        )
        assert proc.returncode == 6
        assert len(proc.stdout.splitlines()) == 1

    def test_usage_error_is_2(self, tri_path):
        proc = run_cli(
            "enumerate", "--input", tri_path, "--theta", "3",
            "--theta-ratio", "1.5",
        )
        assert proc.returncode == 2

    def test_unknown_subcommand_is_2(self):
        assert run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("enumerate", "--exact"),
            ("enumerate", "--no-seeds"),
            ("build", "--exact"),
            ("build", "--no-seeds"),
        ],
    )
    def test_seeds_from_file_with_full_search_is_2(
        self, tri_path, tmp_path, command, flag
    ):
        # both flags promise a search of the whole graph, which a seed
        # file would silently narrow to its trees
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_text('{"edges": [[1, 3]]}\n')
        proc = run_cli(
            command, "--input", tri_path, "--theta", "inf", flag,
            "--seeds-from-file", str(seeds),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"--seeds-from-file: not allowed with argument {flag}" in proc.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (("enumerate", "--theta", "1/0"), "--theta 1/0 has a zero denominator"),
            (
                ("enumerate", "--theta-ratio", "1/0"),
                "--theta-ratio 1/0 has a zero denominator",
            ),
            (("oracle", "--theta", "1/0"), "--theta 1/0 has a zero denominator"),
            (("enumerate", "--theta", "abc"), "--theta expects a number, got 'abc'"),
            (
                ("enumerate", "--theta-ratio", "inf"),
                "--theta-ratio expects a number, got 'inf'",
            ),
            (("enumerate", "--theta=-inf"), "--theta expects a number, got '-inf'"),
            (("oracle", "--theta", "abc"), "--theta expects a number, got 'abc'"),
        ],
        ids=[
            "theta", "theta_ratio", "oracle_theta", "theta_word",
            "theta_ratio_inf", "theta_minus_inf", "oracle_theta_word",
        ],
    )
    def test_zero_denominator_flag_is_3(self, tri_path, args, message):
        command, *flags = args
        proc = run_cli(command, "--input", tri_path, *flags)
        assert proc.returncode == 3
        assert f"error: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("command", ["enumerate", "build", "count"])
    def test_node_cap_below_one_is_3(self, tri_path, command, cap):
        # a cap below 1 is bad input, not a budget that ran out (exit 5)
        full = () if command == "count" else ("--exact", "--theta", "inf")
        proc = run_cli(command, "--input", tri_path, *full, "--node-cap", cap)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "error: node_cap must be at least 1" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("enumerate", "--theta", "inf", "--report"),
            ("simplify", "--map"),
            ("build", "--exact", "--theta", "inf", "--node-cap", "1", "--output"),
        ],
        ids=["enumerate_report", "simplify_map", "build_output"],
    )
    def test_unwritable_output_is_3_before_work(self, tri_path, tmp_path, args):
        # outputs open before any work: no data, no summary, and build
        # never reaches the node cap (exit 5)
        command, *flags = args
        missing = tmp_path / "missing" / "out"
        proc = run_cli(command, "--input", tri_path, *flags, str(missing))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert str(missing) in proc.stderr

    def test_bad_input_leaves_output_untouched(self, tmp_path):
        out = tmp_path / "trees.jsonl"
        out.write_text("kept\n")
        proc = run_cli(
            "enumerate", "--input", str(tmp_path / "missing.stp"),
            "--output", str(out),
        )
        assert proc.returncode == 3
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("enumerate", "--theta-ratio", "abc"),
            ("enumerate", "--k", "0"),
            ("enumerate", "--seeds-from-file", "BAD_SEEDS"),
            ("build", "--node-cap", "0"),
            ("build", "--theta", "-1"),
            ("seeds", "--seed-root", "x"),
            ("oracle", "--theta", "x"),
            ("enumerate", "--theta-ratio", "-1"),
            ("enumerate", "--seed-root", "2"),
            ("seeds", "--seed-root", "2"),
        ],
        ids=[
            "theta_ratio", "k", "seeds_file", "node_cap", "negative_theta",
            "seed_root", "oracle_theta", "negative_ratio",
            "enumerate_non_terminal_root", "seeds_non_terminal_root",
        ],
    )
    def test_bad_flag_leaves_outputs_untouched(self, tri_path, tmp_path, args):
        # flag values and the seed file are checked before outputs open
        bad_seeds = tmp_path / "bad.jsonl"
        bad_seeds.write_text('{"edges": [[1, 2]]}\n')  # not a Steiner tree
        out, report = tmp_path / "out.txt", tmp_path / "report.json"
        out.write_text("kept\n")
        report.write_text("kept\n")
        command, *flags = args
        flags = [str(bad_seeds) if f == "BAD_SEEDS" else f for f in flags]
        if command == "enumerate":
            flags += ["--report", str(report)]
        proc = run_cli(command, "--input", tri_path, *flags, "--output", str(out))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert out.read_text() == report.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command, first, second, spelling",
        [
            ("enumerate", "--output", "--report", "same"),
            ("enumerate", "--report", "--output", "dotted"),
            ("simplify", "--output", "--map", "dotted"),
            ("simplify", "--map", "--output", "symlink"),
        ],
    )
    def test_two_outputs_on_one_file_is_2(
        self, tri_path, tmp_path, command, first, second, spelling
    ):
        out = tmp_path / "out.txt"
        out.write_text("kept\n")
        alias = {
            "same": out,
            "dotted": tmp_path / "." / "out.txt",
            "symlink": tmp_path / "link.txt",
        }[spelling]
        if spelling == "symlink":
            alias.symlink_to(out)
        proc = run_cli(
            command, "--input", tri_path, first, str(out), second, str(alias)
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        message = proc.stderr.splitlines()[-1]
        assert "names the same file" in message
        assert first in message and second in message
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["enumerate", "build", "oracle"])
    def test_one_terminal_leaves_outputs_untouched(self, tmp_path, command):
        p = tmp_path / "one.stp"
        p.write_text(
            "SECTION Graph\nNodes 2\nEdges 1\nE 1 2 1\nEND\n"
            "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
        )
        out, report = tmp_path / "out.txt", tmp_path / "report.json"
        out.write_text("kept\n")
        report.write_text("kept\n")
        flags = ["--report", str(report)] if command == "enumerate" else []
        proc = run_cli(command, "--input", str(p), "--output", str(out), *flags)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "needs at least two terminals" in proc.stderr
        assert out.read_text() == report.read_text() == "kept\n"

    def test_gc_off_inside_and_restored(self, tri_path, tmp_path, monkeypatch):
        # main turns the cyclic collector off for its run only; tests and
        # other callers in the process keep their setting
        seen = []

        def stats(args, g, cfg):
            seen.append(gc.isenabled())
            return 0

        monkeypatch.setattr(cli, "_cmd_stats", stats)
        missing = str(tmp_path / "missing.stp")
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            assert cli.main(["stats", "--input", tri_path]) == 0
            assert seen == [False]
            assert gc.isenabled()
            assert cli.main(["stats", "--input", missing]) == 3
            assert gc.isenabled()
            gc.disable()
            assert cli.main(["stats", "--input", tri_path]) == 0
            assert seen == [False, False]
            assert not gc.isenabled()
            assert cli.main(["stats", "--input", missing]) == 3
            assert not gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_failed_run_leaves_output_empty(self, tri_path, tmp_path):
        out = tmp_path / "diagram.txt"
        out.write_text("old\n")
        proc = run_cli(
            "build", "--input", tri_path, "--exact", "--theta", "inf",
            "--node-cap", "1", "--output", str(out),
        )
        assert proc.returncode == 5
        assert out.read_text() == ""


class TestOtherSubcommands:
    def test_stats(self, tri_path):
        proc = run_cli("stats", "--input", tri_path)
        data = json.loads(proc.stdout)
        assert data["vertices"] == 3
        assert data["edges"] == 3
        assert data["terminals"] == 2
        assert data["frontier_width"] == 2

    def test_stats_reports_the_chosen_order_width(self, tmp_path):
        g = grid_graph(4, 8, [1, 8, 25, 32])
        path = tmp_path / "grid.stp"
        path.write_text(write_stp(g))
        data = json.loads(run_cli("stats", "--input", str(path)).stdout)
        assert bfs_order(g).frontier_width == 5
        assert data["frontier_width"] == 4

    def test_stats_on_one_vertex_without_edges(self, tmp_path):
        p = tmp_path / "one.stp"
        p.write_text(
            "SECTION Graph\nNodes 1\nEdges 0\nEND\n"
            "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
        )
        proc = run_cli("stats", "--input", str(p))
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert (data["vertices"], data["edges"]) == (1, 0)
        assert data["frontier_width"] == 0

    def test_count(self, tri_path, all_term_path):
        assert run_cli("count", "--input", tri_path).stdout.strip() == "2"
        assert run_cli("count", "--input", all_term_path).stdout.strip() == "3"

    def test_count_matches_oracle(self, tmp_path, capsys):
        rng = random.Random(31)
        for case in range(21):
            g = random_connected_graph(rng)
            if case % 3 == 0:
                g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
            path = tmp_path / f"g{case}.stp"
            path.write_text(write_stp(g))
            want = f"{len(brute_force_minimal_steiner(g))}\n"
            for extra in ([], ["--no-simplify"]):
                assert cli.main(["count", "--input", str(path), *extra]) == 0
                assert capsys.readouterr().out == want, (case, extra)

    def test_simplify_writes_valid_stp(self, tmp_path):
        chain = (
            "SECTION Graph\nNodes 4\nEdges 3\n"
            "E 1 2 1\nE 2 3 1\nE 3 4 1\nEND\n"
            "SECTION Terminals\nTerminals 2\nT 1\nT 4\nEND\nEOF\n"
        )
        src = tmp_path / "chain.stp"
        src.write_text(chain)
        out = tmp_path / "simple.stp"
        mp = tmp_path / "map.json"
        proc = run_cli(
            "simplify", "--input", str(src), "--output", str(out),
            "--map", str(mp),
        )
        assert proc.returncode == 0
        assert "E 1 4 3" in out.read_text()
        mapping = json.loads(mp.read_text())
        assert mapping["replacements"] == [[0, 1, 2]]
        assert mapping["removed_loops"] == []

    def test_simplify_writes_decimal_weights(self, tmp_path):
        chain = (
            "SECTION Graph\nNodes 4\nEdges 4\n"
            "E 1 2 1.5\nE 2 3 0.25\nE 3 4 2\nE 1 4 0.5\nEND\n"
            "SECTION Terminals\nTerminals 2\nT 1\nT 4\nEND\nEOF\n"
        )
        src = tmp_path / "chain.stp"
        src.write_text(chain)
        proc = run_cli("simplify", "--input", str(src))
        assert proc.returncode == 0
        assert "E 1 4 3.75" in proc.stdout
        simplified, _ = simplify(parse_stp(chain))
        reread = parse_stp(proc.stdout)

        def input_units(g):
            return [(u, v, Fraction(w, g.cost_scale)) for u, v, w in g.edges]

        assert input_units(reread) == input_units(simplified)

    def test_simplify_in_place(self, tri_path):
        proc = run_cli("simplify", "--input", tri_path, "--output", tri_path)
        assert proc.returncode == 0
        want, _ = simplify(parse_stp(TRIANGLE_STP))
        assert Path(tri_path).read_text() == write_stp(want)

    def test_seeds_jsonl(self, tri_path):
        proc = run_cli("seeds", "--input", tri_path, "--seeds", "2")
        assert proc.returncode == 0
        for line in proc.stdout.splitlines():
            rec = json.loads(line)
            assert set(rec) == {"cost", "edges"}

    def test_build_dump(self, tri_path):
        proc = run_cli("build", "--input", tri_path, "--theta", "inf", "--exact")
        lines = proc.stdout.splitlines()
        count, levels = map(int, lines[0].split()[1:])
        assert levels == 3
        assert len(lines) == count + 1

    def test_build_does_not_traverse(self, tri_path, monkeypatch, capsys):
        want = pipeline.build_diagram(
            parse_stp(TRIANGLE_STP),
            pipeline.RunConfig(theta=math.inf, use_seeds=False, use_simplify=False),
        ).reduced.dump()

        def no_traversal(*args, **kwargs):
            raise AssertionError("build traversed the diagram")

        monkeypatch.setattr(pipeline, "enumerate_trees", no_traversal)
        assert cli.main(["build", "--input", tri_path, "--theta", "inf", "--exact"]) == 0
        assert capsys.readouterr().out == want

    def test_oracle_theta(self, tri_path):
        proc = run_cli("oracle", "--input", tri_path, "--theta", "2")
        assert proc.stdout.splitlines() == ['{"cost": 2, "edges": [[1, 2], [2, 3]]}']

    def test_oracle_negative_theta_is_3(self, tmp_path):
        p = tmp_path / "edge.stp"
        p.write_text(
            "SECTION Graph\nNodes 2\nEdges 1\nE 1 2 0\nEND\n"
            "SECTION Terminals\nTerminals 2\nT 1\nT 2\nEND\nEOF\n"
        )
        for cmd in (("oracle",), ("enumerate", "--exact")):
            proc = run_cli(*cmd, "--input", str(p), "--theta", "-0.5")
            assert proc.returncode == 3
            assert proc.stdout == ""
            assert "theta must be non-negative" in proc.stderr

    def test_seeds_from_file_rejects_non_tree(self, tri_path, tmp_path):
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_text(
            '{"edges": [[1, 3]]}\n{"edges": [[1, 2], [2, 3], [1, 3]]}\n'
        )
        proc = run_cli(
            "enumerate", "--input", tri_path, "--theta-ratio", "1",
            "--seeds-from-file", str(seeds),
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"{seeds}:2: not a minimal Steiner tree" in proc.stderr

    def test_seeds_from_file_parses_input_once(
        self, tri_path, tmp_path, monkeypatch, capsys
    ):
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_text('{"edges": [[1, 3]]}\n')
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_stp(text)

        monkeypatch.setattr(cli, "parse_stp", counting_parse)
        code = cli.main([
            "enumerate", "--input", tri_path, "--theta", "inf",
            "--seeds-from-file", str(seeds),
        ])
        assert code == 0
        assert len(parsed) == 1
        assert capsys.readouterr().out.splitlines() == [
            '{"cost": 3, "edges": [[1, 3]]}'
        ]

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"cost": 1}', NOT_A_TREE_RECORD),
            ("[1, 2]", NOT_A_TREE_RECORD),
            ('{"edges": [[1, 2, 3]]}', "edge [1, 2, 3] is not a [u, v] pair"),
            ('{"edges": [[true, 2], [2, 3]]}', "edge [true, 2] is not a [u, v] pair"),
            ('{"edges": [[1.0, 3]]}', "edge [1.0, 3] is not a [u, v] pair"),
            ('{"edges": [[1.5, 3]]}', "edge [1.5, 3] is not a [u, v] pair"),
            ('{"edges": [[1, 2], [2,', "invalid JSON"),
            ('{"edge_indices": [[0]]}', "edge index [0] is not an integer"),
            ('{"edge_indices": [2.9]}', "edge index 2.9 is not an integer"),
        ],
        ids=[
            "no_edges", "not_an_object", "triple", "bool_endpoint",
            "float_endpoint", "fractional_endpoint", "truncated",
            "nested_index", "fractional_index",
        ],
    )
    def test_seeds_from_file_malformed_record_is_3(
        self, tri_path, tmp_path, record, message
    ):
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_text('{"edges": [[1, 3]]}\n' + record + "\n")
        proc = run_cli(
            "enumerate", "--input", tri_path, "--theta", "inf",
            "--seeds-from-file", str(seeds),
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"{seeds}:2: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_seeds_from_file(self, tri_path, tmp_path):
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_text('{"edges": [[1, 3]]}\n')
        proc = run_cli(
            "enumerate", "--input", tri_path, "--theta", "inf",
            "--seeds-from-file", str(seeds),
        )
        assert proc.returncode == 0
        assert [json.loads(x)["cost"] for x in proc.stdout.splitlines()] == [3]


    def test_seeds_from_file_may_be_the_output(self, tri_path, tmp_path):
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_text('{"edges": [[1, 2], [2, 3]]}\n{"edges": [[1, 3]]}\n')
        proc = run_cli(
            "enumerate", "--input", tri_path, "--theta", "inf",
            "--seeds-from-file", str(seeds), "--output", str(seeds),
        )
        assert proc.returncode == 0
        assert seeds.read_text() == (
            '{"cost": 2, "edges": [[1, 2], [2, 3]]}\n'
            '{"cost": 3, "edges": [[1, 3]]}\n'
        )

    def test_seeds_from_file_matches_heuristic_run(self, tmp_path, capsys):
        # the heuristic's own seeds, fed back from a file, give the same
        # union, reference cost and hence byte-identical trees; the
        # subdivided edges send the union through simplify
        rng = random.Random(47)
        stp, seeds = tmp_path / "g.stp", tmp_path / "seeds.jsonl"
        heuristic_out, file_out = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for case in range(150):
            g = random_connected_graph(rng)
            for _ in range(rng.randint(0, 3)):
                g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
            stp.write_text(write_stp(g))
            flags = ["--input", str(stp), "--k", str(rng.choice([1, 5, 1000]))]
            perturb = ["--perturb", "0.3", "--rng-seed", str(case)]
            assert cli.main(["seeds", *flags[:2], *perturb, "--output", str(seeds)]) == 0
            a = cli.main(["enumerate", *flags, *perturb, "--output", str(heuristic_out)])
            b = cli.main([
                "enumerate", *flags, "--seeds-from-file", str(seeds),
                "--output", str(file_out),
            ])
            assert a == b, case
            assert heuristic_out.read_text() == file_out.read_text(), case
        capsys.readouterr()


class TestDeterminism:
    def test_byte_identical_across_hash_seeds(self, tri_path, tmp_path):
        grid = tmp_path / "g.stp"
        # slightly richer instance than the triangle
        lines = ["SECTION Graph", "Nodes 6", "Edges 9"]
        edges = [
            (1, 2, 3), (2, 3, 1), (3, 4, 4), (4, 5, 1),
            (5, 6, 2), (1, 6, 5), (2, 5, 2), (3, 6, 2), (1, 4, 7),
        ]
        lines += [f"E {u} {v} {w}" for u, v, w in edges]
        lines += ["END", "SECTION Terminals", "Terminals 3",
                  "T 1", "T 4", "T 6", "END", "EOF"]
        grid.write_text("\n".join(lines) + "\n")
        outputs = set()
        for hash_seed in ("0", "1", "2"):
            proc = run_cli(
                "enumerate", "--input", str(grid), "--theta-ratio", "1.5",
                "--k", "50", "--rng-seed", "4",
                env_extra={"PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_shuffled_edge_lines_write_the_same_trees(self, tmp_path):
        lines = write_stp(grid_graph(4, 4, [1, 4, 13, 16])).splitlines()
        at = [i for i, line in enumerate(lines) if line.startswith("E ")]
        edge_lines = [lines[i] for i in at]
        random.Random(3).shuffle(edge_lines)
        shuffled = list(lines)
        for i, line in zip(at, edge_lines):
            shuffled[i] = line
        paths = [tmp_path / "grid.stp", tmp_path / "shuffled.stp"]
        for path, text in zip(paths, (lines, shuffled)):
            path.write_text("\n".join(text) + "\n")

        def written(path, k):
            proc = run_cli(
                "enumerate", "--input", str(path), "--exact", "--theta", "inf",
                "--k", str(k),
            )
            trees = [json.loads(line) for line in proc.stdout.splitlines()]
            return proc.returncode, sorted(
                (t["cost"], sorted(map(tuple, t["edges"]))) for t in trees
            )

        # a k that ends a cost group: edge indices differ between the two
        # files, so a tie cut at k would be broken differently
        _, first = written(paths[0], 60)
        k = max(k for k in range(1, 60) if first[k - 1][0] < first[k][0])
        assert written(paths[0], k) == written(paths[1], k) == (6, first[:k])


def test_readme_quick_start(tmp_path, capsys):
    """The README's quick-start command prints exactly what it shows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    stp = re.search(r"`tri\.stp`:\n\n```\n(.*?)```", readme, re.S).group(1)
    command, shown = re.search(
        r"```sh\n\$ steinerenum (enumerate --input tri\.stp [^\n]*)\n(.*?)```",
        readme, re.S,
    ).groups()
    (tmp_path / "tri.stp").write_text(stp)
    args = [str(tmp_path / a) if a == "tri.stp" else a for a in command.split()]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == shown


def test_tree_lines_match_json():
    """Tree lines are written without the json module, byte for byte as
    ``json.dumps`` with ``(", ", ": ")`` separators wrote them."""
    rng = random.Random(19)
    cases = 0
    for case in range(240):
        g = random_connected_graph(rng, max_vertices=12, max_edges=20)
        if case % 4 == 0:  # ids past one digit
            g = subdivide_edge(g, rng.randrange(len(g.edges)), rng)
        for size in (1, rng.randint(0, len(g.edges))):
            edges = frozenset(rng.sample(range(len(g.edges)), size))
            cost = rng.choice([0, rng.randrange(100), 2**64 + rng.randrange(10**6)])
            tree = SteinerTree(edges, cost)
            pairs = [[g.edges[i][0], g.edges[i][1]] for i in sorted(edges)]
            want = json.dumps({"cost": cost, "edges": pairs}, separators=(", ", ": "))
            assert cli._tree_line(tree, g) == want, (case, edges, cost)
            cases += 1
    assert cases == 480


def test_cli_import_leaves_out_slow_modules():
    """A structural guard on start-up cost: importing the CLI loads no
    dataclass code generation and no json.  ``-S`` keeps site-installed
    path hooks from loading any of them first."""
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, steinerenum.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
