"""Command-line front end.

Subcommands:

    lattice    inspect the partition lattice of a small ground set
    solve      build the closed form and write the trajectory plus tables
    integrate  fixed-step numerical integration (coefficients and measures)
    simulate   Monte Carlo estimate of the partition distribution
    compare    run all available routes and check them against each other

Exit codes: 0 success, 2 configuration error, 3 degenerate rates,
4 tolerance failure.  The RECOMB_LOG environment variable (debug, info,
warning, error) controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from recomb.closed_form import (
    DegeneracyError,
    build_closed_form,
    closed_form_size,
    linear_solution,
)
from recomb.dynamics import (
    CoefficientVector,
    integrate_coefficients,
    integrate_measure,
    mixtures,
    rk4_plan,
    rk4_row,
)
from recomb.measures import MAX_STATES
from recomb.partitions import MAX_SITES, bell_number, count_two_block, ground_set, lattice
from recomb.process import estimate_distribution
from recomb.scenario import (
    Scenario,
    ScenarioError,
    write_coefficient_csv,
    write_empirical_csv,
    write_measure_trajectory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERACY = 3
EXIT_TOLERANCE = 4

log = logging.getLogger("recomb")


@contextmanager
def _logging():
    """Within it, the ``recomb`` loggers write to the sys.stderr of this
    call alone, at the level RECOMB_LOG names now, in the lines of a fresh
    process: a later call in the same process logs as a fresh process does.
    The root logger is left alone, and the ``recomb`` logger is restored on
    exit."""
    level = os.environ.get("RECOMB_LOG", "warning").upper()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    before = log.level, log.propagate
    log.addHandler(handler)
    log.setLevel(getattr(logging, level, logging.WARNING))
    log.propagate = False
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(before[0])
        log.propagate = before[1]


def _load(args) -> Scenario:
    """The scenario with the command's --step, --seed and --samples
    overrides applied and checked like values from the file."""
    scenario = Scenario.from_file(args.config)
    given = {
        k: v for k in ("step", "seed", "samples") if (v := getattr(args, k, None)) is not None
    }
    if "step" in given:
        scenario.step = given.pop("step")
    if scenario.monte_carlo is not None:
        scenario.monte_carlo = replace(scenario.monte_carlo, **given)
    scenario.check()
    return scenario


def _out_dir(args) -> Path:
    """The output directory, made if missing; refused if it is or lies under a file."""
    out = Path(args.out)
    there = next((p for p in (out, *out.parents) if p.exists()), None)
    if there is not None and not there.is_dir():
        raise ScenarioError(f"--out {out}: {there} is not a directory")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _linear_regime(scenario: Scenario) -> bool:
    """Support restricted to ordered two-block partitions 1..k | k+1..n,
    whose labels ascend from 0 to 1 (the single-block partition is allowed,
    its operator is the identity)."""
    rates = scenario.rates
    labels = lattice(rates.ground).labels[rates.indices[rates.weights > 0]]
    support = labels[labels.max(axis=1) > 0]
    return bool(support.size) and bool(
        (support.max(axis=1) == 1).all() and (np.diff(support, axis=1) >= 0).all()
    )


def _check_substeps(scenario: Scenario, grid, measure: bool = False) -> np.ndarray:
    """Refuse an integration over grid that would take more than
    MAX_SUBSTEPS RK4 substeps, whose coefficient program (and measure
    program, if measure) would hold more than MAX_STATES cell indices, or
    whose right-hand sides would visit more than MAX_RK4_WORK cell indices,
    before any of it runs.  Return the coefficient system's substeps per
    grid interval."""
    try:
        substeps = rk4_plan(scenario.rates, grid, scenario.step)[2]
        if measure and scenario.initial_measure is not None:
            rk4_plan(scenario.rates, grid, scenario.step, scenario.space)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return substeps


def _check_closed_form(scenario: Scenario) -> None:
    """Refuse a closed form whose stored comparable pairs and expanded
    chains together exceed MAX_STATES, before any table is allocated.

    Memory follows the pairs alone, which n fixes: the chain scatter runs
    in bounded runs and solution.json is written in pieces, so at n = 10
    one rated partition and five (about 20 million chains, near the limit)
    both peak near 1 GB.  The chains bound the time."""
    pairs, chains = closed_form_size(scenario.rates)
    if pairs + chains > MAX_STATES:
        raise ScenarioError(
            f"the closed form at n = {len(scenario.ground)} would store {pairs} "
            f"comparable pairs and expand {chains} chains, above {MAX_STATES}"
        )


def _rk4_routes(scenario: Scenario, omega0, grid):
    """The coefficient trajectory from the top and, when omega0 is given,
    the measure trajectory from omega0, stepped in lockstep by one RK4 run
    (``integrate_measure`` with a0)."""
    a0 = CoefficientVector.delta_top(scenario.ground)
    if omega0 is None:
        return integrate_coefficients(scenario.rates, a0, grid, step=scenario.step), None
    mtraj = integrate_measure(scenario.rates, omega0, grid, step=scenario.step, a0=a0)
    return mtraj.coefficients, mtraj


def _measure_check(omega0, mtraj):
    """At each grid time, the measure trajectory's total variation
    deviation from the mixture of its coefficient trajectory and its
    absolute drift, both relative to the initial mass (a zero measure keeps
    both at 0).  The mixture depends on the coefficients and omega0 alone:
    it runs through the trie program of the coefficients' support."""
    mix = mixtures(mtraj.coefficients.values, omega0)
    dev = np.abs(mtraj.tensors.reshape(mtraj.times.size, -1) - mix).sum(axis=1)
    mass = omega0.norm() or 1.0
    return dev / mass, np.abs(mtraj.drift) / mass


def _deviation_check(dev: np.ndarray, tol: float) -> dict:
    """Per-time deviations, their maximum and whether it is within tol."""
    return {"per_time": dev.tolist(), "max": float(dev.max()), "pass": bool(dev.max() <= tol)}


def cmd_lattice(args) -> int:
    n = args.n
    if not 1 <= n <= MAX_SITES:
        raise ScenarioError(f"lattice size must be between 1 and {MAX_SITES}")
    info: dict = {
        "n": n,
        "bell": bell_number(n),
        "two_block": count_two_block(n),
    }
    if args.full:
        lat = lattice(ground_set(n))
        # mu(bottom, p): the product over p's blocks b of (-1)^(|b| - 1) (|b| - 1)!
        signed = np.array([1] + [(-1) ** (k - 1) * math.factorial(k - 1) for k in range(1, n + 1)])
        mu = signed[lat.block_sizes].prod(axis=1).tolist()
        info["partitions"] = list(lat.names)
        info["mobius_bottom_row"] = dict(zip(lat.names, mu))
    if args.format == "json":
        print(json.dumps(info, indent=2))
    else:
        print(f"n = {n}")
        print(f"bell number = {info['bell']}")
        print(f"two-block partitions = {info['two_block']}")
        if args.full:
            for p in info["partitions"]:
                print(f"  {p}  mobius(bottom, .) = {info['mobius_bottom_row'][p]}")
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario = _load(args)
    _check_closed_form(scenario)
    out = _out_dir(args)
    try:
        sol = build_closed_form(scenario.rates)
    except DegeneracyError as exc:
        (out / "degeneracy.json").write_text(
            json.dumps(exc.report.to_json_dict(), indent=2)
        )
        log.error("degenerate rates: %s", exc)
        return EXIT_DEGENERACY
    traj = sol.evaluate(scenario.ground, scenario.grid.array())
    write_coefficient_csv(out / "trajectory.csv", traj)
    # compact, from the C encoder, and written in pieces
    with open(out / "solution.json", "w") as fh:
        fh.writelines(sol.json_chunks())
    log.info("wrote %s and %s", out / "trajectory.csv", out / "solution.json")
    return EXIT_OK


def cmd_integrate(args) -> int:
    scenario = _load(args)
    grid = scenario.grid.array()
    _check_substeps(scenario, grid, measure=True)
    omega0 = scenario.build_measure()
    out = _out_dir(args)
    traj, mtraj = _rk4_routes(scenario, omega0, grid)
    write_coefficient_csv(out / "coefficients.csv", traj, include_drift=True)
    meta = {
        "step": traj.step,
        "max_drift": float(np.abs(traj.drift).max()),
    }
    if mtraj is not None:
        dev, drift = _measure_check(omega0, mtraj)
        write_measure_trajectory_csv(out / "measure_trajectory.csv", mtraj, dev)
        meta["max_mixture_dev"] = float(dev.max())
        meta["max_measure_drift"] = float(drift.max())
    (out / "integrate_meta.json").write_text(json.dumps(meta, indent=2))
    log.info("integration metadata: %s", meta)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load(args)
    if scenario.monte_carlo is None:
        raise ScenarioError("simulate needs a monte_carlo block in the scenario")
    samples, seed = scenario.monte_carlo.samples, scenario.monte_carlo.seed
    t = scenario.mc_time()
    out = _out_dir(args)
    dist = estimate_distribution(scenario.rates, t, samples, seed)
    write_empirical_csv(out / "empirical.csv", dist)
    meta = {
        "seed": seed,
        "samples": samples,
        "t": t,
        "generator": dist.generator,
    }
    (out / "empirical_meta.json").write_text(json.dumps(meta, indent=2))
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _load(args)
    _check_closed_form(scenario)
    grid = scenario.grid.array()
    g = scenario.ground
    lat = lattice(g)
    tol = scenario.tolerances.closed_vs_integrated
    report: dict = {
        "times": grid.tolist(),
        "partitions": lat.names,
        "linear_regime": _linear_regime(scenario),
        "fallback": None,
        "tolerances": {"closed_vs_integrated": tol},
    }

    sol = None
    try:
        sol = build_closed_form(scenario.rates)
        report["degeneracy"] = sol.report.to_json_dict()
    except DegeneracyError as exc:
        report["degeneracy"] = exc.report.to_json_dict()
        report["fallback"] = "numerical"

    substeps = _check_substeps(scenario, grid, measure=True)
    if scenario.monte_carlo is not None:
        t = scenario.mc_time()
        ref_grid = np.array([0.0, t]) if t > 0 else np.array([0.0])
        if sol is None:
            count = _check_substeps(scenario, ref_grid).sum()
    omega0 = scenario.build_measure()
    out = _out_dir(args)

    traj, mtraj = _rk4_routes(scenario, omega0, grid)
    report["integrated"] = traj.values.tolist()
    report["max_drift"] = float(np.abs(traj.drift).max())

    if sol is not None:
        closed = sol.evaluate(g, grid).values
        report["closed"] = closed.tolist()
        report["closed_vs_integrated"] = _deviation_check(
            np.abs(closed - traj.values).max(axis=1), tol
        )
        if report["linear_regime"]:
            lin = linear_solution(scenario.rates, g, grid).values
            report["closed_vs_linear_max"] = float(np.abs(closed - lin).max())

    if mtraj is not None:
        dev, _ = _measure_check(omega0, mtraj)
        report["measure_vs_mixture"] = _deviation_check(dev, tol)

    if scenario.monte_carlo is not None:
        samples, seed = scenario.monte_carlo.samples, scenario.monte_carlo.seed
        dist = estimate_distribution(scenario.rates, t, samples, seed)
        gate = scenario.tolerances.tv_gate(lat.size, samples)
        # the reference at t: the closed form; else the row of the RK4 run
        # above that is bit for bit a run over [0, t] alone; else that run
        if sol is not None:
            ref = sol.evaluate(g, ref_grid).values[-1]
        elif (j := rk4_row(grid, substeps, t, count)) is not None:
            ref = traj.values[j]
        else:
            a0 = CoefficientVector.delta_top(g)
            ref = integrate_coefficients(scenario.rates, a0, ref_grid, step=scenario.step).values[-1]
        # total variation to the reference, summed in lattice order
        tv = 0.5 * float(np.abs(dist.tally / samples - ref).sum())
        report["monte_carlo"] = {
            "t": t,
            "samples": samples,
            "seed": seed,
            "frequencies": {name: c / samples for name, c in dist.named_counts()},
            "tv": tv,
            "gate": gate,
            "pass": bool(tv <= gate),
        }

    checked = ("closed_vs_integrated", "measure_vs_mixture", "monte_carlo")
    passed = all(report[k]["pass"] for k in checked if k in report)
    report["pass"] = passed
    (out / "comparison.json").write_text(json.dumps(report, indent=2))
    log.info("comparison written to %s (pass=%s)", out / "comparison.json", passed)
    return EXIT_OK if passed else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recomb",
        description="Recombination dynamics on partition lattices: "
        "closed form, numerical integration, and Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="inspect the partition lattice")
    p.add_argument("n", type=int)
    p.add_argument("--full", action="store_true", help="print the enumeration and Moebius row")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_lattice, needs_out=False)

    for name, func, help_text in (
        ("solve", cmd_solve, "closed-form solve"),
        ("integrate", cmd_integrate, "fixed-step numerical integration"),
        ("simulate", cmd_simulate, "Monte Carlo estimate"),
        ("compare", cmd_compare, "cross-check every available route"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory")
        if name in ("integrate", "compare"):
            p.add_argument("--step", type=float, default=None)
        if name in ("simulate", "compare"):
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--samples", type=int, default=None)
        p.set_defaults(func=func, needs_out=True)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    with _logging():
        args = _parser().parse_args(argv)
        try:
            return args.func(args)
        except ScenarioError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
