"""The example scripts run to completion, and the demo rejects bad arguments
with one usage line."""

import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import demo_three_routes  # noqa: E402
import step_convergence  # noqa: E402


def test_demo_three_routes_on_a_shipped_scenario(capsys):
    assert demo_three_routes.main([str(SCRIPTS / "scenarios" / "n3_generic.json")]) == 0
    assert "TV to closed form" in capsys.readouterr().out


def test_step_convergence(capsys):
    assert step_convergence.main() == 0
    assert "order" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["missing.json"], ["--help"], ["a.json", "b.json"]], ids=["missing", "help", "two"]
)
def test_demo_usage_on_bad_arguments(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert demo_three_routes.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("usage:")
