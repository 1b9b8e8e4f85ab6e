#!/usr/bin/env python3
"""Run all three solution routes on one scenario and print a comparison.

Usage:
    python scripts/demo_three_routes.py [scenario.json]

Without an argument a random generic four-site system is used.
"""

import sys
from pathlib import Path

import numpy as np

from recomb.closed_form import build_closed_form
from recomb.dynamics import CoefficientVector, RateSystem, integrate_coefficients
from recomb.partitions import ground_set, lattice
from recomb.process import estimate_distribution
from recomb.scenario import Scenario, ScenarioError

USAGE = "usage: python scripts/demo_three_routes.py [scenario.json]"


def random_scenario(n=4, seed=1, total=3.0):
    rng = np.random.default_rng(seed)
    lat = lattice(ground_set(n))
    draw = rng.uniform(0.1, 1.0, lat.size)
    draw *= total / draw.sum()
    return RateSystem(ground_set(n), dict(zip(lat.parts, draw))), np.linspace(0, 4, 9)


def main(argv):
    if len(argv) > 1 or argv[:1] in (["-h"], ["--help"]):
        print(USAGE, file=sys.stderr)
        return 2
    if argv:
        try:
            scenario = Scenario.from_file(Path(argv[0]))
        except ScenarioError as exc:
            print(f"{USAGE} ({exc})", file=sys.stderr)
            return 2
        rates, grid = scenario.rates, scenario.grid.array()
        mc = scenario.monte_carlo
        samples, seed = (mc.samples, mc.seed) if mc else (100_000, 0)
    else:
        rates, grid = random_scenario()
        samples, seed = 100_000, 0

    g = rates.ground
    lat = lattice(g)
    print(f"n = {len(g)}, total rate = {rates.total:.4f}, grid end = {grid[-1]}")

    sol = build_closed_form(rates)
    traj = integrate_coefficients(
        rates, CoefficientVector.delta_top(g), grid, step=0.01 / rates.total
    )
    t_mc = float(grid[-1] / 2)
    dist = estimate_distribution(rates, t_mc, samples, seed)

    closed = sol.evaluate(g, grid)
    print(f"{'t':>6}  {'max |closed - RK4|':>20}")
    for t, dev in zip(grid, np.abs(closed.values - traj.values).max(axis=1)):
        print(f"{t:6.2f}  {dev:20.3e}")

    tv = 0.5 * np.abs(dist.tally / samples - sol.evaluate(g, [t_mc]).values[0]).sum()
    print(f"\nMonte Carlo at t = {t_mc}: N = {samples}, TV to closed form = {tv:.5f}")
    print(f"max conservation drift (RK4): {np.abs(traj.drift).max():.3e}")

    print("\nclosed-form state at the final grid point:")
    v = closed.state(-1)
    for p in lat.parts:
        print(f"  {str(p):>12}  {v.value(p):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
