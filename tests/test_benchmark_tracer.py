"""The benchmark's tracer finds every entry point it wraps.

``perfbench/tracer.py`` wraps program functions by name and leaves out the
metrics of any it cannot find, so a renamed or reshaped entry point would
silently drop a per-layer metric from traced benchmark runs.  This test
loads the tracer from its file without changing it, serves one ``compare``
per shipped scenario under it, and checks that every per-layer metric
named in ``BENCHMARK.json`` is reported.  It also checks that RK4 runs
inside the traced spans: with a measure, the coefficient and measure
systems step in lockstep inside ``integrate_measure``.
"""

import importlib.util
import json
from pathlib import Path

from recomb import cli
from recomb.dynamics import rk4_plan
from recomb.scenario import Scenario

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "scripts" / "scenarios").glob("*.json"))
# run.py derives this one from traced and untraced request times
HARNESS_METRICS = {"trace.overhead_s"}
# run.py passes these to layer_metrics from outside the program
EXTRA = {"cli.import_s": 0.0, "cli.output_bytes": 0}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_reported_on_shipped_scenarios(tmp_path):
    assert len(SHIPPED) == 3
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for k, path in enumerate(SHIPPED):
            tracer.request = k
            argv = ["compare", "--config", str(path), "--out", str(tmp_path / path.stem), "--seed", "1"]
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == {}
    layers = tracer.layer_metrics(EXTRA)
    named = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert named - HARNESS_METRICS <= set(layers)
    # the Monte Carlo span and its sample count come from estimate_distribution
    samples = sum(
        mc.samples for mc in (Scenario.from_file(p).monte_carlo for p in SHIPPED) if mc is not None
    )
    assert layers["process.samples"] == samples > 0
    assert layers["process.mc_s"] > 0 and layers["process.sample_us"] > 0

    # every shipped scenario has a measure: one joint RK4 run each, whose
    # evaluations count once, plus the Monte Carlo reference RK4 of the
    # degenerate scenario, which has no closed form
    evals = 0
    for path in SHIPPED:
        scenario = Scenario.from_file(path)
        assert scenario.initial_measure is not None
        evals += 4 * int(rk4_plan(scenario.rates, scenario.grid.array(), scenario.step)[2].sum())
        if path.stem == "n4_bad_degenerate":
            reference = [0.0, scenario.mc_time()]
            evals += 4 * int(rk4_plan(scenario.rates, reference, scenario.step)[2].sum())
    assert layers["dynamics.measure_rk4_s"] > 0
    assert layers["dynamics.rhs_evals"] == evals
