"""A fault catalogue for ``recomb compare``: each case injects one plausible
fault into a route and checks that the cross-check of the routes catches
it, with exit code 4 and the failing block of ``comparison.json`` named.
Faults that today's gates miss are listed in README (the fault catalogue
under ``compare``), not committed here as expected failures."""

import json
from pathlib import Path

import pytest

from recomb.cli import main
from recomb.scenario import Scenario

from conftest import benchmark_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


def scenario_file(name: str, tmp_path: Path) -> Path:
    """A shipped scenario file by its stem, or a generated benchmark
    scenario named ``<workload>-<seed>`` written to tmp_path."""
    shipped = SCENARIO_DIR / f"{name}.json"
    if shipped.exists():
        return shipped
    workload, seed = name.rsplit("-", 1)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(benchmark_scenario(workload, int(seed))))
    return path


def compare(cfg: Path, out: Path, *extra: str) -> tuple[int, dict]:
    code = main(["compare", "--config", str(cfg), "--out", str(out), *extra])
    return code, json.loads((out / "comparison.json").read_text())


@pytest.mark.parametrize("name", ["n3_generic", "n4_single_crossover", "dense-n6-101"])
def test_rk4_at_four_times_the_default_step(name, tmp_path):
    # the default step is 0.05 / rho_total; at 0.2 / rho_total RK4 misses
    # the closed form by 2.2e-6 (n3_generic), 3.1e-6 (n4_single_crossover)
    # and 4.1e-6 (dense-n6, seed 101), against the 1e-6 gate it meets by
    # about 2e-8 at the default step
    cfg = scenario_file(name, tmp_path)
    code, report = compare(cfg, tmp_path / "default")
    assert code == 0 and report["closed_vs_integrated"]["pass"] is True
    step = 0.2 / Scenario.from_file(cfg).rates.total
    code, report = compare(cfg, tmp_path / "faulty", "--step", repr(step))
    check = report["closed_vs_integrated"]
    assert code == 4 and report["pass"] is False
    assert check["pass"] is False
    assert check["max"] > report["tolerances"]["closed_vs_integrated"]
