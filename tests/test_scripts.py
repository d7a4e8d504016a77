"""The maintenance scripts under scripts/, loaded by path."""

import importlib.util
from pathlib import Path

import pytest

from .conftest import TRIANGLE_STP

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def same_outputs():
    path = ROOT / "scripts" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSameOutputs:
    def test_usage_errors_are_2(self, same_outputs, tmp_path, capsys):
        assert same_outputs.main([]) == 2
        assert same_outputs.main([str(tmp_path)]) == 2
        assert "no steinerenum package" in capsys.readouterr().err

    def test_commands_name_written_inputs(self, same_outputs, tmp_path):
        cmds = same_outputs.commands(tmp_path)
        assert len(cmds) == 177
        for cmd in cmds:
            assert cmd[1] == "--input"
            assert Path(cmd[2]).is_file()
            assert same_outputs.OUT not in cmd and "/dev/null" not in cmd
        # a report and a map on each of the 10 grid instances, each its own file
        files = [cmd[-1] for cmd in cmds if cmd[-2] in same_outputs.FILE_FLAGS]
        assert len(files) == len(set(files)) == 20

    def test_outcome_runs_the_cli(self, same_outputs, tmp_path):
        stp = tmp_path / "tri.stp"
        stp.write_text(TRIANGLE_STP)
        code, out, err, written = same_outputs.outcome(
            ROOT / "src", ("stats", "--input", str(stp))
        )
        assert code == 0
        assert '"terminals": 2' in out
        assert err == ""
        assert written is None

    def test_outcome_reads_the_written_file(self, same_outputs, tmp_path):
        stp, report = tmp_path / "tri.stp", tmp_path / "report.json"
        stp.write_text(TRIANGLE_STP)
        report.write_text("stale\n")
        code, _, _, written = same_outputs.outcome(
            ROOT / "src", ("enumerate", "--input", str(stp), "--report", str(report))
        )
        assert code == 0
        assert '"construct": *,' in written and '"traverse": *\n' in written
        assert '"graph": {' in written and "stale" not in written
        # a run that stops before opening its outputs writes no file
        code, _, _, written = same_outputs.outcome(
            ROOT / "src", ("enumerate", "--input", str(report), "--report", str(report))
        )
        assert code == 3 and written is None

    def test_masked_hides_only_timings(self, same_outputs):
        report = (
            '{\n  "bdd": {\n    "nodes": 5\n  },\n  "timing_ms": {\n'
            '    "construct": 0.25,\n    "reduce": 1e-05,\n    "traverse": 12\n'
            '  },\n  "trees": {\n    "count": 2\n  }\n}\n'
        )
        masked = same_outputs.masked(report)
        assert masked == report.replace("0.25", "*").replace("1e-05", "*").replace(
            "12\n", "*\n")
        assert same_outputs.masked(report.replace("0.25", "31.5")) == masked
        assert same_outputs.masked(report.replace('"nodes": 5', '"nodes": 6')) != masked
        assert same_outputs.masked(report.replace('"reduce"', '"prune"')) != masked
        smap = '{\n  "replacements": [\n    [0, 1]\n  ]\n}\n'
        assert same_outputs.masked(smap) == smap

    def test_tally_counts_commands_by_subcommand_and_stream(self, same_outputs):
        differences = [
            (("build", "--input", "a.stp"), ["stdout", "stderr"]),
            (("stats", "--input", "a.stp"), ["stdout"]),
            (("build", "--input", "b.stp", "--exact"), ["stdout"]),
            (("enumerate", "--input", "a.stp"), ["exit code", "stderr"]),
        ]
        assert same_outputs.tally(differences) == [
            "build stderr: 1",
            "build stdout: 2",
            "enumerate exit code: 1",
            "enumerate stderr: 1",
            "stats stdout: 1",
        ]
        assert same_outputs.tally([]) == []
