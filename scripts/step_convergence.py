#!/usr/bin/env python3
"""Step-size convergence of the fixed-step integrator against the closed form.

Halves the step repeatedly and prints the max deviation and observed order;
a clean fourth-order slope is the expected outcome.
"""

import sys

import numpy as np

from recomb.closed_form import build_closed_form
from recomb.dynamics import CoefficientVector, RateSystem, integrate_coefficients
from recomb.partitions import ground_set, lattice


def main():
    n, seed, total = 4, 5, 3.0
    rng = np.random.default_rng(seed)
    g = ground_set(n)
    lat = lattice(g)
    draw = rng.uniform(0.1, 1.0, lat.size)
    draw *= total / draw.sum()
    rates = RateSystem(g, dict(zip(lat.parts, draw)))
    sol = build_closed_form(rates)
    grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    exact = sol.evaluate(g, grid).values

    print(f"{'step':>12}  {'max error':>12}  {'order':>6}")
    prev = None
    for k in range(7):
        step = 0.2 / rates.total / 2**k
        traj = integrate_coefficients(
            rates, CoefficientVector.delta_top(g), grid, step=step
        )
        err = np.abs(traj.values - exact).max()
        order = "" if prev is None else f"{np.log2(prev / err):6.2f}"
        print(f"{step:12.6f}  {err:12.3e}  {order:>6}")
        prev = err
    return 0


if __name__ == "__main__":
    sys.exit(main())
