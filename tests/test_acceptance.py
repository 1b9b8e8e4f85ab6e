"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
per-criterion timings.
"""

import json
import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad

from recomb.cli import main
from recomb.closed_form import (
    DegeneracyError,
    build_closed_form,
    detect_degeneracy,
    exp_convolution,
    exp_monomial_convolution,
    linear_solution,
)
from recomb.dynamics import (
    CoefficientVector,
    RateSystem,
    integrate_coefficients,
    integrate_measure,
)
from recomb.measures import Measure, TypeSpace, mixture, recombinator
from recomb.partitions import Partition, ground_set, lattice
from recomb.process import estimate_distribution

from conftest import random_rates
from oracles import (
    bell_oracle,
    coefficient_table,
    inverse_table,
    meet,
    meet_table,
    project,
    recovered_rates,
    restrict,
    tv_deviation,
    tv_distance,
)


@contextmanager
def criterion(number, name, limit=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f}s, budget {limit}s"
            )
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_lattice_suite():
    with criterion(1, "lattice suite", limit=10.0):
        # Bell counts against the recursion oracle
        assert [len(lattice(ground_set(n)).parts) for n in range(1, 9)] == [
            bell_oracle(n) for n in range(1, 9)
        ]
        assert [bell_oracle(n) for n in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]
        for n in range(1, 6):
            lat = lattice(ground_set(n))
            f = lat.finer
            # partial order: reflexive, antisymmetric, transitive
            assert f.diagonal().all()
            assert np.array_equal(f & f.T, np.eye(lat.size, dtype=bool))
            assert not np.any(((f.astype(int) @ f.astype(int)) > 0) & ~f)
            # meet is the greatest lower bound, exhaustively
            mt = meet_table(lat)
            for i in range(lat.size):
                for j in range(lat.size):
                    m = mt[i, j]
                    assert f[m, i] and f[m, j]
                    common = f[:, i] & f[:, j]
                    assert not np.any(common & ~f[:, m])
            # Moebius inversion on every interval, both orders
            zeta = lat.finer.astype(float)
            mob = lat.mobius_matrix.astype(float)
            eye = np.eye(lat.size)
            assert np.array_equal(zeta @ mob, eye)
            assert np.array_equal(mob @ zeta, eye)


def test_criterion_2_recombinator_algebra():
    with criterion(2, "recombinator algebra", limit=10.0):
        g = ground_set(4)
        space = TypeSpace.regular(4, 2)
        lat = lattice(g)
        parts = lat.parts
        subsets = [u for k in range(1, 5) for u in combinations(g, k)]
        rng = np.random.default_rng(2024)
        for _ in range(200):
            nu = Measure(space, rng.random((2, 2, 2, 2)))
            total = nu.norm()
            cached = {p: recombinator(p, nu) for p in parts}
            for a in parts:
                # idempotence and norm preservation
                assert tv_deviation(recombinator(a, cached[a]), cached[a]) <= 1e-12 * total
                assert abs(cached[a].norm() - total) <= 1e-12 * total
                for b in parts:
                    composed = recombinator(a, cached[b])
                    assert tv_deviation(composed, cached[meet(a, b)]) <= 1e-12 * total
                # marginalizing the block product equals the block product of
                # the marginal, on every subsystem
                for u in subsets:
                    lhs = project(cached[a], u)
                    rhs = recombinator(restrict(a, u), project(nu, u))
                    assert tv_deviation(lhs, rhs) <= 1e-12 * total


def test_criterion_3_measure_coefficient_equivalence():
    with criterion(3, "measure/coefficient equivalence", limit=60.0):
        g = ground_set(4)
        space = TypeSpace.regular(4, 2)
        grid = np.array([0.0, 0.1, 1.0, 10.0])
        rng = np.random.default_rng(7)
        for k in range(20):
            rates = random_rates(4, seed=100 + k, total=3.0)
            w = rng.random((2, 2, 2, 2))
            omega0 = Measure(space, w / w.sum())
            step = 0.02 / rates.total
            mt = integrate_measure(rates, omega0, grid, step=step)
            ct = integrate_coefficients(
                rates, CoefficientVector.delta_top(g), grid, step=step
            )
            for i in range(grid.size):
                dev = tv_deviation(mt.state(i), mixture(ct.state(i), omega0))
                assert dev <= 1e-6, (k, grid[i], dev)


def test_criterion_4_closed_form_vs_oracle():
    with criterion(4, "closed form vs numerical oracle", limit=120.0):
        grid = np.array([0.0, 0.1, 0.5, 1.0, 5.0, 10.0])
        for n in (4, 5):
            g = ground_set(n)
            for k in range(20):
                rates = random_rates(n, seed=200 + k, total=4.0)
                assert not detect_degeneracy(rates).degenerate
                sol = build_closed_form(rates)
                traj = integrate_coefficients(
                    rates,
                    CoefficientVector.delta_top(g),
                    grid,
                    step=0.01 / rates.total,
                )
                closed = sol.evaluate(g, grid).values
                for i, t in enumerate(grid):
                    dev = np.abs(closed[i] - traj.values[i]).max()
                    assert dev <= 1e-6, (n, k, t, dev)


def test_criterion_5_linear_regime_exactness():
    with criterion(5, "linear-regime exactness"):
        ts = np.linspace(0.0, 6.0, 10)
        # small systems: the general recursion reproduces the linear formula
        for n in (1, 2, 3):
            rates = random_rates(n, seed=300 + n, total=2.0)
            sol = build_closed_form(rates)
            dev = np.abs(
                sol.evaluate(ground_set(n), ts).values
                - linear_solution(rates, ground_set(n), ts).values
            ).max()
            assert dev <= 1e-10
        # single-crossover support: linear for every partition at n = 4, 5
        for n, values in ((4, (0.37, 0.81, 0.55)), (5, (0.37, 0.81, 0.55, 0.23))):
            g = ground_set(n)
            rates = RateSystem(
                g, {Partition([g[:k], g[k:]]): v for k, v in zip(range(1, n), values)}
            )
            sol = build_closed_form(rates)
            dev = np.abs(
                sol.evaluate(g, ts).values - linear_solution(rates, g, ts).values
            ).max()
            assert dev <= 1e-10


def test_criterion_6_marginalization():
    with criterion(6, "marginalization consistency"):
        n = 5
        g = ground_set(n)
        rates = random_rates(n, seed=400, total=4.0)
        sol = build_closed_form(rates)
        ts = (0.1, 0.7, 2.0, 6.0)
        closed = sol.evaluate(g, ts)
        for size in range(1, n):
            for u in combinations(g, size):
                sub = RateSystem(u, dict(zip(lattice(u).parts, rates.marginal(u))))
                direct = build_closed_form(sub)
                np.testing.assert_allclose(
                    direct.decay_table(u), sol.decay_table(u), atol=1e-10
                )
                sub_closed = direct.evaluate(u, ts)
                for k in range(len(ts)):
                    lhs = closed.state(k).marginal(u).values
                    assert np.abs(lhs - sub_closed.values[k]).max() <= 1e-10


def test_criterion_7_coefficient_structure():
    with criterion(7, "coefficient and inverse structure"):
        for n in (4, 5):
            g = ground_set(n)
            lat = lattice(g)
            rates = random_rates(n, seed=500 + n, total=4.0)
            sol = build_closed_form(rates)
            theta = coefficient_table(sol, g)
            eta = inverse_table(sol, g)
            psi = sol.decay_table(g)
            eye = np.eye(lat.size)
            assert theta[lat.top_index, lat.top_index] == 1.0
            assert abs(theta[lat.bottom_index, lat.bottom_index] - 1.0) <= 1e-9
            cols = theta.sum(axis=0)
            expected = np.zeros(lat.size)
            expected[lat.bottom_index] = 1.0
            assert np.abs(cols - expected).max() <= 1e-12
            assert np.abs(eta @ theta - eye).max() <= 1e-9
            assert np.abs(theta @ eta - eye).max() <= 1e-9
            assert np.abs(eta[:, lat.top_index] - 1.0).max() <= 1e-9
            assert np.abs(eta[lat.bottom_index] - 1.0).max() <= 1e-9
            ts = np.array([0.0, 0.5, 2.0])
            b = sol.evaluate(g, ts).values @ eta.T
            assert np.abs(b - np.exp(-np.multiply.outer(ts, psi))).max() <= 1e-9
            recovered = recovered_rates(sol, g)
            for p in lat.parts:
                assert abs(recovered[p] - rates.rate(p)) <= 1e-9


def test_criterion_8_monte_carlo_gate():
    with criterion(8, "Monte Carlo gate", limit=120.0):
        n_samples = 100_000
        for n, seed in ((3, 600), (4, 601)):
            g = ground_set(n)
            rates = random_rates(n, seed=seed, total=3.0)
            sol = build_closed_form(rates)
            for t, mc_seed in ((0.5, 11), (2.0, 12)):
                dist = estimate_distribution(rates, t, n_samples, seed=mc_seed)
                tv = tv_distance(dist.frequencies(), sol.evaluate(g, [t]).state(0))
                assert tv <= 0.01, (n, t, tv)
        # exact two-site chain within 3 sigma
        g2 = ground_set(2)
        rho, t = 1.0, 1.0
        rates2 = RateSystem(g2, {Partition.singletons(g2): rho})
        dist = estimate_distribution(rates2, t, n_samples, seed=13)
        p = math.exp(-rho * t)
        se = math.sqrt(p * (1 - p) / n_samples)
        assert abs(dist.frequency(Partition.whole(g2)) - p) <= 3 * se


def test_criterion_9_degeneracy_handling(tmp_path):
    with criterion(9, "degeneracy handling"):
        # constructed collision with the top decay rate
        doc = {
            "n": 4,
            "rates": {"1|2|3|4": 1.0, "1,2|3,4": 1.0},
            "initial_measure": "uniform",
            "time_grid": {"start": 0, "end": 10.0, "points": 4},
        }
        g = ground_set(4)
        rates = RateSystem.from_strings(g, doc["rates"])
        report = detect_degeneracy(rates)
        assert report.has_bad
        assert any(
            p.classification == "bad" and Partition.whole(p.subset) in (p.a, p.b)
            for p in report.pairs
        )
        with pytest.raises(DegeneracyError):
            build_closed_form(rates)
        cfg = tmp_path / "degenerate.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        assert json.loads((out / "degeneracy.json").read_text())["bad"] is True

        # the numerical route still satisfies the equivalence gate there
        space = TypeSpace.regular(4, 2)
        rng = np.random.default_rng(41)
        w = rng.random((2, 2, 2, 2))
        omega0 = Measure(space, w / w.sum())
        grid = np.array([0.0, 0.1, 1.0, 10.0])
        step = 0.02 / rates.total
        mt = integrate_measure(rates, omega0, grid, step=step)
        ct = integrate_coefficients(
            rates, CoefficientVector.delta_top(g), grid, step=step
        )
        for i in range(grid.size):
            dev = tv_deviation(mt.state(i), mixture(ct.state(i), omega0))
            assert dev <= 1e-6

        # exponential kernels against adaptive quadrature, diagonal included
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(25):
            a, b = rng.uniform(0.0, 5.0, 2)
            if rng.random() < 0.2:
                b = a
            t = rng.uniform(0.1, 4.0)
            oracle = quad(
                lambda s: math.exp(-b * s) * math.exp(-a * (t - s)), 0.0, t,
                epsabs=1e-12, epsrel=1e-12,
            )[0]
            assert abs(exp_convolution(a, b, t) - oracle) <= 1e-8
            checked += 1
        for _ in range(25):
            rho, sigma = rng.uniform(0.0, 5.0, 2)
            if rng.random() < 0.2:
                sigma = rho
            m = int(rng.integers(0, 7))
            t = rng.uniform(0.1, 4.0)
            oracle = math.exp(-rho * t) * quad(
                lambda s: s**m / math.factorial(m) * math.exp((rho - sigma) * s),
                0.0, t, epsabs=1e-12, epsrel=1e-12,
            )[0]
            assert abs(exp_monomial_convolution(rho, sigma, m, t) - oracle) <= 1e-8
            checked += 1
        assert checked == 50


def test_criterion_10_asymptotic_decay():
    with criterion(10, "asymptotic decay exponent"):
        g = ground_set(4)
        lat = lattice(g)
        ts = np.linspace(5.0, 15.0, 11)
        for seed in (700, 701, 702):
            rates = random_rates(4, seed=seed, total=3.5)
            sol = build_closed_form(rates)
            psi = sol.decay_table(g)
            psi_min = psi[psi > 1e-12].min()
            # tail mass away from the absorbing partition, summed without
            # cancellation against 1
            tail = np.delete(sol.evaluate(g, ts).values, lat.bottom_index, axis=1).sum(axis=1)
            slope = np.polyfit(ts, np.log(tail), 1)[0]
            assert abs(-slope - psi_min) <= 0.05 * psi_min, (seed, -slope, psi_min)
