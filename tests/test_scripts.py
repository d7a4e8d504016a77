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
        assert len(cmds) == 127
        for cmd in cmds:
            assert cmd[1] == "--input"
            assert Path(cmd[2]).is_file()

    def test_outcome_runs_the_cli(self, same_outputs, tmp_path):
        stp = tmp_path / "tri.stp"
        stp.write_text(TRIANGLE_STP)
        code, out, err = same_outputs.outcome(
            ROOT / "src", ("stats", "--input", str(stp))
        )
        assert code == 0
        assert '"terminals": 2' in out
        assert err == ""
