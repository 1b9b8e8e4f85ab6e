import json
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad

from recomb.closed_form import (
    DEGENERACY_TOL,
    DegeneracyError,
    DegeneracyPair,
    _linear_decay,
    build_closed_form,
    detect_degeneracy,
    exp_convolution,
    exp_monomial_convolution,
    linear_solution,
)
from recomb import dynamics
from recomb.dynamics import CoefficientVector, RateSystem, integrate_coefficients
from recomb.partitions import Lattice, Partition, ground_set, lattice

from conftest import random_rates
from oracles import (
    NonInvertibleError,
    coefficient_table,
    decay_rate,
    decoupled_coefficient,
    inverse_table,
    is_refinement,
    linear_decay_rate,
    meet_of_set,
    rates_from_linear_decay,
    recovered_rates,
    restrict,
    split_block_count,
)


def all_subsets(g):
    return [u for k in range(1, len(g) + 1) for u in combinations(g, k)]


def single_crossover_rates(n, values):
    g = ground_set(n)
    return RateSystem(
        g, {Partition([g[:k], g[k:]]): v for k, v in zip(range(1, n), values)}
    )


def linear_solution_oracle(rates, u, t):
    """Defining sum over subsets of the lattice, products of exponential
    survival factors grouped by their meet.  Exponential in the lattice size,
    so used only for tiny systems."""
    lat = lattice(u)
    rate_of = rates.marginal(u).tolist()
    out = {p: 0.0 for p in lat.parts}
    for bits in range(2 ** lat.size):
        chosen = [lat.parts[i] for i in range(lat.size) if bits >> i & 1]
        term = 1.0
        for i in range(lat.size):
            if bits >> i & 1:
                term *= 1.0 - math.exp(-rate_of[i] * t)
            else:
                term *= math.exp(-rate_of[i] * t)
        out[meet_of_set(chosen, u)] += term
    return out


def closed_form_loop_oracle(rates, decay, tol_degeneracy=DEGENERACY_TOL):
    """Coefficient tables by the column-by-column loop: for each column b,
    each rated c coarser than b and each block of c, gather a full vector
    from the sub-tables, then mask off the partitions not finer than b."""
    tol_abs = tol_degeneracy * max(rates.total, 1.0)
    coeff = {}
    for u in all_subsets(rates.ground):
        lat = lattice(u)
        B = lat.size
        theta = np.zeros((B, B))
        if B == 1:
            theta[0, 0] = 1.0
            coeff[u] = theta
            continue
        psi = decay[u]
        top = lat.top_index
        finer = lat.finer
        rvec = rates.marginal(u)
        psi_top = psi[top]
        for jb in range(B):
            if jb == top or abs(psi_top - psi[jb]) <= tol_abs:
                continue
            col = np.zeros(B)
            for jc in np.nonzero(finer[jb])[0]:
                if jc == top or rvec[jc] == 0.0:
                    continue
                prod = np.ones(B)
                for block in lat.parts[jc].blocks:
                    ridx = lat.restriction_index(block)
                    prod *= coeff[block][:, ridx[jb]][ridx]
                col += rvec[jc] * prod
            theta[:, jb] = np.where(finer[:, jb], col / (psi_top - psi[jb]), 0.0)
        # minus each row's sum, taken in ascending column order
        theta[:, top] = -np.cumsum(theta, axis=1)[:, -1]
        theta[top, top] = 1.0
        coeff[u] = theta
    return coeff


def pairwise_scan_oracle(rates, decay, tol_abs):
    """Coinciding decay-rate pairs by the (B, B) difference matrix, one
    DegeneracyPair per pair, in a plain list."""
    pairs = []
    for u, psi in decay.items():
        lat = lattice(u)
        if lat.size < 2:
            continue
        top = lat.top_index
        rvec = rates.marginal(u)
        finer = lat.finer
        # mass of the upward interval [B, top), per partition B
        interval_mass = finer.astype(float) @ rvec - rvec[top]
        close = np.abs(psi[:, None] - psi[None, :]) <= tol_abs
        for i, j in zip(*np.nonzero(np.triu(close, 1))):
            if top in (i, j):
                other = i if j == top else j
                kind = "bad" if interval_mass[other] > 0.0 else "harmless"
            else:
                kind = "harmless"
            pairs.append(
                DegeneracyPair(
                    u, lat.parts[i], lat.parts[j], float(psi[i]), float(psi[j]), kind
                )
            )
    return pairs


def exp_sum_loop_oracle(theta, psi, times):
    """The exponential sum one grid time at a time: theta @ exp(-psi * t)."""
    return np.array([theta @ np.exp(-psi * t) for t in times])


def every_other_rate_zero(n):
    g = ground_set(n)
    return RateSystem(
        g, {p: 0.3 + 0.01 * i for i, p in enumerate(lattice(g).parts) if i % 2}
    )


class TestMarginals:
    def test_full_subset_identity(self):
        rates = random_rates(3, seed=0)
        marg = rates.marginal((1, 2, 3))
        assert np.array_equal(marg, [rates.rate(p) for p in lattice((1, 2, 3)).parts])

    def test_total_preserved_on_all_subsets(self):
        rates = random_rates(4, seed=1)
        for u in all_subsets(ground_set(4)):
            assert rates.marginal(u).sum() == pytest.approx(rates.total)

    def test_bottom_rate_marginalizes_to_bottom(self):
        g = ground_set(3)
        rates = RateSystem(g, {Partition.singletons(g): 1.0})
        marg = rates.marginal((1, 2))
        assert marg[lattice((1, 2)).bottom_index] == pytest.approx(1.0)

    def test_vector_marginal_full_set(self):
        rates = random_rates(3, seed=2)
        q = linear_solution(rates, (1, 2, 3), [0.7]).state(0)
        np.testing.assert_array_equal(q.marginal((1, 2, 3)).values, q.values)

    def test_delta_top_marginalizes_to_delta_top(self):
        g = ground_set(4)
        q = CoefficientVector.delta_top(g)
        for u in [(1, 2), (2, 3, 4)]:
            m = q.marginal(u)
            assert m.value(Partition.whole(u)) == pytest.approx(1.0)
            assert m.sum() == pytest.approx(1.0)

    def test_tower_property(self):
        rates = random_rates(4, seed=3)
        q = linear_solution(rates, ground_set(4), [0.9]).state(0)
        for v in [(1, 2, 3), (2, 3, 4)]:
            qv = q.marginal(v)
            for u in [(v[0],), v[:2]]:
                direct = q.marginal(u)
                via_v = qv.marginal(u)
                np.testing.assert_allclose(direct.values, via_v.values, atol=1e-14)


class TestDecayRates:
    def test_bottom_decays_at_zero_rate(self):
        rates = random_rates(4, seed=4)
        for u in all_subsets(ground_set(4)):
            assert decay_rate(rates, u, Partition.singletons(u)) == pytest.approx(0.0)

    def test_single_site_trivial(self):
        rates = random_rates(3, seed=5)
        assert decay_rate(rates, (2,), Partition.whole((2,))) == 0.0

    def test_top_decay_equals_linear_decay(self):
        rates = random_rates(4, seed=6)
        for u in all_subsets(ground_set(4)):
            top = Partition.whole(u)
            marg = rates.marginal(u)
            expected = rates.total - marg[lattice(u).top_index]
            assert decay_rate(rates, u, top) == pytest.approx(expected)
            assert linear_decay_rate(rates, u, top) == pytest.approx(expected)

    def test_block_additivity(self):
        rates = random_rates(4, seed=7)
        g = ground_set(4)
        lat = lattice(g)
        for b in lat.parts:
            for c in lat.parts:
                if not is_refinement(c, b):
                    continue
                parts_sum = sum(
                    decay_rate(rates, blk, restrict(c, blk)) for blk in b.blocks
                )
                assert decay_rate(rates, g, c) == pytest.approx(parts_sum)

    def test_zero_rates_give_zero_chi(self):
        g = ground_set(3)
        rates = RateSystem(g, {})
        for p in lattice(g).parts:
            assert linear_decay_rate(rates, g, p) == 0.0

    def test_chi_complementary_sum(self):
        rates = random_rates(4, seed=8)
        g = ground_set(4)
        lat = lattice(g)
        marg = rates.marginal(g)
        for a in lat.parts:
            interval_mass = sum(
                r for p, r in zip(lat.parts, marg) if is_refinement(a, p)
            )
            assert linear_decay_rate(rates, g, a) + interval_mass == pytest.approx(
                rates.total
            )
        assert linear_decay_rate(rates, g, Partition.singletons(g)) == pytest.approx(
            0.0
        )


class TestSplitBlockCount:
    def test_zero_iff_coarser(self):
        lat = lattice(ground_set(4))
        for a in lat.parts:
            for b in lat.parts:
                k = split_block_count(a, b)
                assert (k == 0) == is_refinement(a, b)
                assert k >= 0

    def test_top_row_is_indicator(self):
        g = ground_set(4)
        top = Partition.whole(g)
        for b in lattice(g).parts:
            k = split_block_count(top, b)
            assert k in (0, 1)
            assert (k == 0) == (b == top)

    def test_linear_expansion_of_decay(self):
        rates = random_rates(4, seed=9)
        g = ground_set(4)
        lat = lattice(g)
        rvec = rates.marginal(g)
        for a in lat.parts:
            combo = sum(
                split_block_count(a, b) * rvec[j] for j, b in enumerate(lat.parts)
            )
            assert combo == pytest.approx(decay_rate(rates, g, a), abs=1e-12)


class TestLinearSolution:
    def test_initial_condition(self):
        rates = random_rates(4, seed=10)
        g = ground_set(4)
        v = linear_solution(rates, g, [0.0]).state(0)
        assert v.value(Partition.whole(g)) == pytest.approx(1.0)
        assert v.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", (2, 3))
    def test_matches_subset_product_oracle(self, n):
        rates = random_rates(n, seed=11)
        g = ground_set(n)
        ts = (0.0, 0.3, 1.7)
        got = linear_solution(rates, g, ts)
        for k, t in enumerate(ts):
            oracle = linear_solution_oracle(rates, g, t)
            for p, expected in oracle.items():
                assert got.state(k).value(p) == pytest.approx(expected, abs=1e-12)

    def test_oracle_on_subsets_of_larger_system(self):
        rates = random_rates(4, seed=12)
        ts = (0.5, 2.0)
        for u in [(1, 3), (2, 3, 4)]:
            got = linear_solution(rates, u, ts)
            for k, t in enumerate(ts):
                oracle = linear_solution_oracle(rates, u, t)
                for p, expected in oracle.items():
                    assert got.state(k).value(p) == pytest.approx(expected, abs=1e-12)

    def test_probability_vector_for_all_times(self):
        rates = random_rates(4, seed=13)
        g = ground_set(4)
        values = linear_solution(rates, g, np.linspace(0, 8, 9)).values
        np.testing.assert_allclose(values.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert values.min() >= -1e-12

    def test_long_time_limit_hits_bottom(self):
        # support meets to the finest partition, so everything decouples
        rates = random_rates(3, seed=14)
        g = ground_set(3)
        v = linear_solution(rates, g, [200.0]).state(0)
        assert v.value(Partition.singletons(g)) == pytest.approx(1.0, abs=1e-10)

    def test_negative_time_rejected(self):
        rates = random_rates(2, seed=15)
        with pytest.raises(ValueError):
            linear_solution(rates, ground_set(2), [-0.1])


class TestLinearDecayInversion:
    def test_zero_decay_puts_total_on_top(self):
        g = ground_set(3)
        lat = lattice(g)
        chi = {p: 0.0 for p in lat.parts}
        out = rates_from_linear_decay(chi, 2.5, g)
        assert out[Partition.whole(g)] == pytest.approx(2.5)
        for p in lat.parts:
            if p != Partition.whole(g):
                assert out[p] == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        rates = random_rates(4, seed=16)
        g = ground_set(4)
        chi = {p: linear_decay_rate(rates, g, p) for p in lattice(g).parts}
        recovered = rates_from_linear_decay(chi, rates.total, g)
        for p in lattice(g).parts:
            assert recovered[p] == pytest.approx(rates.rate(p), abs=1e-10)

    def test_top_rate_comes_from_total_only(self):
        # decay rates never see the top rate; only the supplied total does
        g = ground_set(3)
        base = random_rates(3, seed=17)
        bumped = dict(base.rates)
        bumped[Partition.whole(g)] += 1.0
        rates2 = RateSystem(g, bumped)
        chi1 = {p: linear_decay_rate(base, g, p) for p in lattice(g).parts}
        chi2 = {p: linear_decay_rate(rates2, g, p) for p in lattice(g).parts}
        for p in lattice(g).parts:
            assert chi1[p] == pytest.approx(chi2[p])
        rec = rates_from_linear_decay(chi1, base.total, g)
        for p in lattice(g).parts:
            if p != Partition.whole(g):
                assert rec[p] == pytest.approx(base.rate(p), abs=1e-10)

    def test_incomplete_table_rejected(self):
        g = ground_set(3)
        with pytest.raises(ValueError):
            rates_from_linear_decay({Partition.whole(g): 0.0}, 1.0, g)

    def test_integer_decay_table(self):
        # integer decay rates are solved in floats, so the top keeps the
        # fractional part of the total
        g = ground_set(3)
        chi = {p: 2 * p.block_count - 2 for p in lattice(g).parts}
        as_float = {p: float(v) for p, v in chi.items()}
        assert rates_from_linear_decay(chi, 2.5, g) == rates_from_linear_decay(as_float, 2.5, g)


class TestBuild:
    def test_structure_identities(self):
        rates = random_rates(4, seed=18)
        sol = build_closed_form(rates)
        g = ground_set(4)
        for u in all_subsets(g):
            lat = lattice(u)
            theta = coefficient_table(sol, u)
            assert theta[lat.top_index, lat.top_index] == 1.0
            assert theta[lat.bottom_index, lat.bottom_index] == pytest.approx(1.0)
            rows = theta.sum(axis=1)
            expected = np.zeros(lat.size)
            expected[lat.top_index] = 1.0
            np.testing.assert_allclose(rows, expected, atol=1e-12)
            cols = theta.sum(axis=0)
            expected = np.zeros(lat.size)
            expected[lat.bottom_index] = 1.0
            np.testing.assert_allclose(cols, expected, atol=1e-12)

    def test_two_block_diagonal_formula(self):
        rates = random_rates(4, seed=19)
        sol = build_closed_form(rates)
        g = ground_set(4)
        lat = lattice(g)
        psi = sol.decay_table(g)
        rvec = rates.marginal(g)
        for i, p in enumerate(lat.parts):
            if p.block_count == 2:
                expected = rvec[i] / (psi[lat.top_index] - psi[i])
                assert coefficient_table(sol, g)[i, i] == pytest.approx(expected)

    def test_evaluate_initial_condition(self):
        rates = random_rates(4, seed=20)
        sol = build_closed_form(rates)
        v = sol.evaluate(ground_set(4), [0.0]).state(0)
        assert v.value(Partition.whole(ground_set(4))) == pytest.approx(1.0)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_long_time_limit(self):
        rates = random_rates(4, seed=21)
        sol = build_closed_form(rates)
        v = sol.evaluate(ground_set(4), [300.0]).state(0)
        assert v.value(Partition.singletons(ground_set(4))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_against_numerical_oracle(self):
        rates = random_rates(4, seed=22)
        g = ground_set(4)
        sol = build_closed_form(rates)
        grid = np.array([0.0, 0.1, 0.5, 1.0, 5.0])
        traj = integrate_coefficients(
            rates, CoefficientVector.delta_top(g), grid, step=0.01 / rates.total
        )
        dev = np.abs(sol.evaluate(g, grid).values - traj.values).max(axis=1)
        assert np.all(dev < 1e-8)

    def test_small_systems_match_linear_solution(self):
        rates = random_rates(4, seed=23)
        sol = build_closed_form(rates)
        ts = np.linspace(0, 5, 6)
        for u in [(1,), (2, 4), (1, 3, 4)]:
            np.testing.assert_allclose(
                sol.evaluate(u, ts).values, linear_solution(rates, u, ts).values, atol=1e-11
            )

    def test_small_systems_coefficients_are_mobius(self):
        rates = random_rates(4, seed=24)
        sol = build_closed_form(rates)
        for u in [(2,), (1, 4), (2, 3, 4)]:
            lat = lattice(u)
            np.testing.assert_allclose(
                coefficient_table(sol, u), lat.mobius_matrix.astype(float), atol=1e-11
            )
            np.testing.assert_allclose(
                inverse_table(sol, u), lat.finer.astype(float), atol=1e-10
            )

    def test_marginal_consistency(self):
        rates = random_rates(4, seed=25)
        g = ground_set(4)
        sol = build_closed_form(rates)
        ts = (0.2, 1.0, 4.0)
        full = sol.evaluate(g, ts)
        for u in all_subsets(g)[:-1]:
            sub = sol.evaluate(u, ts)
            for k in range(len(ts)):
                lhs = full.state(k).marginal(u).values
                np.testing.assert_allclose(lhs, sub.values[k], atol=1e-11)

    def test_marginal_equals_direct_subsystem_build(self):
        rates = random_rates(4, seed=26)
        for u in [(1, 2), (1, 3, 4)]:
            sub = RateSystem(u, dict(zip(lattice(u).parts, rates.marginal(u))))
            sub_sol = build_closed_form(sub)
            sol = build_closed_form(rates)
            np.testing.assert_allclose(
                coefficient_table(sub_sol, u), coefficient_table(sol, u), atol=1e-12
            )
            np.testing.assert_allclose(
                sub_sol.decay_table(u), sol.decay_table(u), atol=1e-12
            )

    def test_missing_table_rejected(self):
        rates = random_rates(3, seed=27)
        sol = build_closed_form(rates)
        with pytest.raises(ValueError):
            sol.evaluate((4,), [1.0])

    def test_negative_time_rejected(self):
        rates = random_rates(3, seed=28)
        sol = build_closed_form(rates)
        with pytest.raises(ValueError):
            sol.evaluate(ground_set(3), [-1.0])


ORACLE_SYSTEMS = {
    **{f"random-n{n}": (lambda n=n: random_rates(n, seed=40 + n)) for n in range(1, 7)},
    "zero-mix-n5": lambda: every_other_rate_zero(5),
    "single-crossover-n4": lambda: single_crossover_rates(4, [0.37, 0.81, 0.55]),
    "linear-n6": lambda: single_crossover_rates(6, [0.37, 0.81, 0.55, 0.23, 0.64]),
}


@pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
def test_tables_equal_loop_oracle(system):
    rates = ORACLE_SYSTEMS[system]()
    sol = build_closed_form(rates)
    decay = {u: sol.decay_table(u) for u in all_subsets(rates.ground)}
    oracle = closed_form_loop_oracle(rates, decay)
    for u, theta in oracle.items():
        assert np.array_equal(coefficient_table(sol, u), theta), u


@pytest.mark.parametrize("system", ["random-n5", "random-n6", "zero-mix-n5", "linear-n6"])
def test_tables_do_not_depend_on_the_run_size(system, monkeypatch):
    # runs of a few chains take every run boundary; each entry still sums
    # its terms in the same order
    import recomb.closed_form as cf

    rates = ORACLE_SYSTEMS[system]()
    whole = build_closed_form(rates)
    monkeypatch.setattr(cf, "_RUN_CHAINS", 5)
    dynamics._store.clear()  # a second build, not the kept solution
    runs = build_closed_form(rates)
    assert runs is not whole
    for u in all_subsets(rates.ground):
        assert np.array_equal(coefficient_table(runs, u), coefficient_table(whole, u)), u
        assert np.array_equal(runs.evaluate(u, GRID).values, whole.evaluate(u, GRID).values), u


@pytest.mark.parametrize("system", ["random-n4", "zero-mix-n5", "single-crossover-n4"])
@pytest.mark.parametrize("run", [3, 1 << 15])
def test_json_chunks_join_to_the_tables(system, run, monkeypatch):
    # the pieces join to compact JSON of every table, keys in lattice order
    import recomb.closed_form as cf

    monkeypatch.setattr(cf, "_RUN_CHAINS", run)
    rates = ORACLE_SYSTEMS[system]()
    sol = build_closed_form(rates)
    text = "".join(sol.json_chunks())
    doc = json.loads(text)
    assert json.dumps(doc) == text
    assert list(doc) == ["ground", "rho_total", "degeneracy", "subsets"]
    assert doc["degeneracy"] == sol.report.to_json_dict()
    us = all_subsets(rates.ground)
    assert list(doc["subsets"]) == [",".join(map(str, u)) for u in us]
    for u in us:
        names = [str(p) for p in lattice(u).parts]
        table = coefficient_table(sol, u)
        entry = doc["subsets"][",".join(map(str, u))]
        assert list(entry["decay"].items()) == list(zip(names, sol.decay_table(u).tolist()))
        coeff = {
            names[a]: {names[b]: table[a, b] for b in np.flatnonzero(table[a])}
            for a in range(len(names))
        }
        assert list(entry["coeff"]) == names
        assert [list(row.items()) for row in entry["coeff"].values()] == [
            list(row.items()) for row in coeff.values()
        ]


@pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
def test_evaluate_equals_dense_product(system):
    # one bincount over the pairs, against the dense product
    rates = ORACLE_SYSTEMS[system]()
    sol = build_closed_form(rates)
    for u in all_subsets(rates.ground):
        factors = np.exp(-np.multiply.outer(GRID, sol.decay_table(u)))
        dense = factors @ coefficient_table(sol, u).T
        assert np.abs(sol.evaluate(u, GRID).values - dense).max() <= 1e-14, u


def decay_table_loop_oracle(rates):
    """psi of every partition of every subset by a Python loop: the splitting
    rates of its blocks added one block at a time, in block order."""
    tables = {}
    for u in all_subsets(rates.ground):
        psi = []
        for p in lattice(u).parts:
            acc = 0.0
            for block in p.blocks:
                acc += rates.splitting_rate(block)
            psi.append(acc)
        tables[u] = np.array(psi)
    return tables


@pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
def test_decay_tables_equal_loop_oracle(system):
    rates = ORACLE_SYSTEMS[system]()
    sol = build_closed_form(rates)
    for u, psi in decay_table_loop_oracle(rates).items():
        assert np.array_equal(sol.decay_table(u), psi), u


GRID_SYSTEMS = {
    **{f"random-n{n}": (lambda n=n: random_rates(n, 1)) for n in range(1, 7)},
    "every-other-zero-n5": lambda: every_other_rate_zero(5),
    "single-crossover-n4": lambda: single_crossover_rates(4, [0.37, 0.81, 0.55]),
    "linear-n7": lambda: single_crossover_rates(7, [0.37, 0.81, 0.55, 0.23, 0.64, 0.45]),
}
GRID = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 7.0])


class TestGridEvaluation:
    @pytest.mark.parametrize("system", sorted(GRID_SYSTEMS))
    def test_evaluate_matches_per_time_loop(self, system):
        rates = GRID_SYSTEMS[system]()
        sol = build_closed_form(rates)
        for u in all_subsets(rates.ground):
            theta, psi = coefficient_table(sol, u), sol.decay_table(u)
            got = sol.evaluate(u, GRID)
            assert got.ground == u and np.array_equal(got.times, GRID)
            bound = 1e-13 * max(1.0, np.abs(theta).max())
            assert np.abs(got.values - exp_sum_loop_oracle(theta, psi, GRID)).max() <= bound, u

    @pytest.mark.parametrize("system", sorted(GRID_SYSTEMS))
    def test_linear_solution_matches_per_time_loop(self, system):
        rates = GRID_SYSTEMS[system]()
        for u in all_subsets(rates.ground):
            lat = lattice(u)
            # the rate mass above each partition, summed in ascending order
            chi = rates.total - np.cumsum(lat.finer * rates.marginal(u), axis=1)[:, -1]
            oracle = exp_sum_loop_oracle(lat.mobius_matrix.astype(float), chi, GRID)
            got = linear_solution(rates, u, GRID)
            assert np.abs(got.values - oracle).max() <= 1e-11, u
            assert [linear_decay_rate(rates, u, p) for p in lat.parts] == chi.tolist()

    def test_linear_decay_rate_reads_one_up_set(self, monkeypatch):
        import recomb.closed_form as cf

        def refuse(*args):
            raise AssertionError("a whole-lattice chi was computed")

        rates = random_rates(7, 1)
        g = rates.ground
        lat = lattice(g)
        chi = _linear_decay(rates, g)
        monkeypatch.setattr(cf, "_linear_decay", refuse)
        monkeypatch.setattr(cf, "_apply", refuse)
        loop = [linear_decay_rate(rates, g, p) for p in lat.parts]
        assert np.abs(np.array(loop) - chi).max() <= 1e-15

    def test_one_point_grid(self):
        rates = random_rates(4, 1)
        sol = build_closed_form(rates)
        g = ground_set(4)
        theta, psi = coefficient_table(sol, g), sol.decay_table(g)
        got = sol.evaluate(g, [1.3])
        assert got.values.shape == (1, lattice(g).size)
        assert np.abs(got.values - exp_sum_loop_oracle(theta, psi, [1.3])).max() <= 1e-13 * max(
            1.0, np.abs(theta).max()
        )
        assert linear_solution(rates, g, [1.3]).values.shape == (1, lattice(g).size)

    @pytest.mark.parametrize("bad", (-0.5, math.nan))
    def test_negative_time_in_grid_rejected(self, bad):
        rates = random_rates(3, 1)
        sol = build_closed_form(rates)
        with pytest.raises(ValueError):
            sol.evaluate(ground_set(3), [0.0, 1.0, bad])
        with pytest.raises(ValueError):
            linear_solution(rates, ground_set(3), [0.0, 1.0, bad])


class TestLinearSubstitution:
    SYSTEMS = {"random-n4": lambda: random_rates(4, 1), "linear-n7": GRID_SYSTEMS["linear-n7"]}

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_never_reads_mobius_matrix(self, system, monkeypatch):
        def refuse(lat):
            raise AssertionError("the dense Moebius matrix was read")

        monkeypatch.setattr(Lattice, "mobius_matrix", property(refuse))
        rates = self.SYSTEMS[system]()
        g = rates.ground
        lat = lattice(g)
        values = linear_solution(rates, g, GRID).values
        assert values.shape == (GRID.size, lat.size)
        chi = rates.total - lat.finer.astype(float) @ rates.marginal(g)
        recovered = rates_from_linear_decay(dict(zip(lat.parts, chi)), rates.total, g)
        assert np.abs(np.array(list(recovered.values())) - rates.marginal(g)).max() <= 1e-10

    @pytest.mark.parametrize("system", ["random-n7", "linear-n7"])
    def test_rows_sum_to_one(self, system):
        rates = random_rates(7, 1) if system == "random-n7" else GRID_SYSTEMS[system]()
        values = linear_solution(rates, rates.ground, GRID).values
        assert np.abs(values.sum(axis=1) - 1.0).max() <= 1e-14


class TestInverseCoefficients:
    def test_two_sided_inverse(self):
        rates = random_rates(4, seed=29)
        sol = build_closed_form(rates)
        g = ground_set(4)
        theta = coefficient_table(sol, g)
        eta = inverse_table(sol, g)
        eye = np.eye(theta.shape[0])
        assert np.abs(eta @ theta - eye).max() < 1e-10
        assert np.abs(theta @ eta - eye).max() < 1e-10

    def test_boundary_rows_and_columns(self):
        rates = random_rates(4, seed=30)
        sol = build_closed_form(rates)
        g = ground_set(4)
        lat = lattice(g)
        eta = inverse_table(sol, g)
        np.testing.assert_allclose(eta[:, lat.top_index], 1.0, atol=1e-10)
        np.testing.assert_allclose(eta[lat.bottom_index], 1.0, atol=1e-10)

    def test_decoupled_coefficient_is_pure_exponential(self):
        rates = random_rates(4, seed=31)
        sol = build_closed_form(rates)
        g = ground_set(4)
        lat = lattice(g)
        psi = sol.decay_table(g)
        for t in (0.0, 0.4, 2.5):
            for i, p in enumerate(lat.parts):
                got = decoupled_coefficient(sol, g, p, t)
                assert got == pytest.approx(math.exp(-psi[i] * t), abs=1e-10)

    def test_decoupled_block_product(self):
        rates = random_rates(4, seed=32)
        sol = build_closed_form(rates)
        g = ground_set(4)
        t = 0.8
        for p in lattice(g).parts:
            prod = 1.0
            for block in p.blocks:
                prod *= decoupled_coefficient(sol, block, Partition.whole(block), t)
            assert decoupled_coefficient(sol, g, p, t) == pytest.approx(prod, abs=1e-10)

    @pytest.mark.parametrize("n", [4, 5])
    def test_decoupled_coefficient_matches_inverse_table(self, n):
        rates = random_rates(n, seed=35)
        sol = build_closed_form(rates)
        g = ground_set(n)
        eta = inverse_table(sol, g)
        for t in (0.0, 0.7, 2.5):
            a_t = sol.evaluate(g, [t]).values[0]
            for i, p in enumerate(lattice(g).parts):
                expected = eta[i] @ a_t
                got = decoupled_coefficient(sol, g, p, t)
                assert abs(got - expected) <= 1e-12 * abs(expected), (t, p)

    def test_noninvertible_without_two_block_rates(self):
        # single-crossover support leaves most two-block partitions rateless,
        # so the coefficient diagonal vanishes there
        rates = single_crossover_rates(4, [0.37, 0.81, 0.55])
        sol = build_closed_form(rates)
        with pytest.raises(NonInvertibleError):
            inverse_table(sol, ground_set(4))
        with pytest.raises(NonInvertibleError):
            decoupled_coefficient(sol, ground_set(4), Partition.whole(ground_set(4)), 1.0)


class TestRateRecovery:
    def test_round_trip(self):
        rates = random_rates(4, seed=33)
        sol = build_closed_form(rates)
        rec = recovered_rates(sol, ground_set(4))
        for p in lattice(ground_set(4)).parts:
            assert rec[p] == pytest.approx(rates.rate(p), abs=1e-9)

    def test_round_trip_on_subsystems(self):
        rates = random_rates(4, seed=34)
        sol = build_closed_form(rates)
        for u in [(1, 2), (2, 3, 4)]:
            rec = recovered_rates(sol, u)
            marg = rates.marginal(u)
            for p, r in zip(lattice(u).parts, marg):
                assert rec[p] == pytest.approx(r, abs=1e-9)

    def test_top_only_rates(self):
        g = ground_set(3)
        rates = RateSystem(g, {Partition.whole(g): 3.0})
        sol = build_closed_form(rates)
        assert np.all(sol.decay_table(g) == 0.0)
        rec = recovered_rates(sol, g)
        assert rec[Partition.whole(g)] == pytest.approx(3.0)


def oracle_systems():
    g3, g4 = ground_set(3), ground_set(4)
    return {
        **{f"random-n{n}": random_rates(n, 1) for n in range(1, 7)},
        "every-other-zero-n5": every_other_rate_zero(5),
        "single-crossover-n4": single_crossover_rates(4, [0.37, 0.81, 0.55]),
        "single-crossover-n5": single_crossover_rates(5, [0.37, 0.81, 0.55, 0.23]),
        "zero-rates-n3": RateSystem(g3, {}),
        "bad-n4": RateSystem(
            g4, {Partition.singletons(g4): 1.0, Partition([[1, 2], [3, 4]]): 1.0}
        ),
        "linear-n7": single_crossover_rates(7, [0.37, 0.81, 0.55, 0.23, 0.64, 0.45]),
    }


class TestDegeneracy:
    @pytest.mark.parametrize("name", oracle_systems())
    def test_pairs_match_pairwise_oracle(self, name):
        rates = oracle_systems()[name]
        report = detect_degeneracy(rates)
        decay = {
            u: np.array([decay_rate(rates, u, p) for p in lattice(u).parts])
            for u in all_subsets(rates.ground)
        }

        def key(p):
            return (p.subset, str(p.a), str(p.b), p.value_a, p.value_b, p.classification)
        assert sorted(map(key, report.pairs)) == sorted(
            map(key, pairwise_scan_oracle(rates, decay, report.tolerance))
        )
        assert report.tolerance == DEGENERACY_TOL * max(rates.total, 1.0)
        # classes of one subset are disjoint, each in lattice order
        for u in all_subsets(rates.ground):
            index = lattice(u).index
            classes = [c for c in report.classes if c.subset == u]
            members = [index[p] for c in classes for p in c.members]
            assert len(members) == len(set(members))
            for c in classes:
                rows = [index[p] for p in c.members]
                assert rows == sorted(rows) and len(rows) >= 2
                assert set(c.bad) <= set(c.members)

    def test_generic_rates_report_empty(self):
        rates = random_rates(4, seed=35)
        report = detect_degeneracy(rates)
        assert not report.degenerate
        assert not report.has_bad

    def test_single_crossover_collisions_are_harmless(self):
        rates = single_crossover_rates(4, [0.37, 0.81, 0.55])
        report = detect_degeneracy(rates)
        assert report.degenerate
        assert not report.has_bad
        # collisions across non-nested intervals show up at the full system
        assert any(p.subset == (1, 2, 3, 4) for p in report.pairs)

    def test_zero_rates_fully_degenerate_but_solvable(self):
        g = ground_set(3)
        rates = RateSystem(g, {})
        report = detect_degeneracy(rates)
        assert report.degenerate and not report.has_bad
        sol = build_closed_form(rates)
        v = sol.evaluate(g, [7.0]).state(0)
        assert v.value(Partition.whole(g)) == pytest.approx(1.0)

    def test_constructed_bad_collision(self):
        # equal mass on the finest partition and on one two-block partition
        # drives that partition's decay rate onto the top one
        g = ground_set(4)
        rates = RateSystem(
            g, {Partition.singletons(g): 1.0, Partition([[1, 2], [3, 4]]): 1.0}
        )
        report = detect_degeneracy(rates)
        assert report.has_bad
        with pytest.raises(DegeneracyError) as err:
            build_closed_form(rates)
        assert err.value.report.has_bad
        bad = [p for p in err.value.report.pairs if p.classification == "bad"]
        assert any(
            {pair.a, pair.b} == {Partition.whole(g), Partition([[1, 2], [3, 4]])}
            for pair in bad
        )

    def test_report_ordering_smallest_subsystem_first(self):
        rates = single_crossover_rates(5, [0.37, 0.81, 0.55, 0.23])
        report = detect_degeneracy(rates)
        sizes = [len(p.subset) for p in report.pairs]
        assert sizes == sorted(sizes)

    def test_single_crossover_solves_exactly_linear(self):
        for n, values in ((4, [0.37, 0.81, 0.55]), (5, [0.37, 0.81, 0.55, 0.23])):
            rates = single_crossover_rates(n, values)
            sol = build_closed_form(rates)
            g = ground_set(n)
            ts = np.linspace(0.0, 6.0, 10)
            np.testing.assert_allclose(
                sol.evaluate(g, ts).values, linear_solution(rates, g, ts).values, atol=1e-10
            )


class TestLinearAgreementAtSpecialPartitions:
    @pytest.mark.parametrize("n", (4, 5))
    def test_top_and_singleton_pair_partitions(self, n):
        # even for fully generic rates the solution matches the linearized
        # one at the top element and at two-block partitions with a
        # singleton part
        rates = random_rates(n, seed=50 + n, total=4.0)
        sol = build_closed_form(rates)
        g = ground_set(n)
        lat = lattice(g)
        special = [Partition.whole(g)] + [
            p
            for p in lat.parts
            if p.block_count == 2 and min(len(b) for b in p.blocks) == 1
        ]
        assert len(special) == 1 + n
        ts = np.linspace(0.0, 5.0, 8)
        cols = [lat.index[p] for p in special]
        got = sol.evaluate(g, ts).values[:, cols]
        lin = linear_solution(rates, g, ts).values[:, cols]
        assert np.abs(got - lin).max() <= 1e-10


class TestExpKernels:
    def test_pair_value(self):
        assert exp_convolution(1.0, 2.0, 1.0) == pytest.approx(
            math.exp(-1) - math.exp(-2), abs=1e-15
        )

    def test_pair_symmetric(self):
        for a, b, t in [(0.4, 2.2, 1.3), (3.0, 0.0, 0.7)]:
            assert exp_convolution(a, b, t) == pytest.approx(exp_convolution(b, a, t))

    def test_pair_degenerate_branch(self):
        for a, t in [(0.0, 1.0), (1.5, 2.0)]:
            assert exp_convolution(a, a, t) == pytest.approx(t * math.exp(-a * t))

    def test_pair_near_diagonal_stable(self):
        a = 1.0
        for eps in (1e-13, 1e-9, 1e-6):
            got = exp_convolution(a, a + eps, 2.0)
            assert got == pytest.approx(2.0 * math.exp(-2.0 * a), rel=1e-6)

    def test_pair_rejects_negative(self):
        with pytest.raises(ValueError):
            exp_convolution(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            exp_convolution(1.0, 1.0, -1.0)

    def test_monomial_degenerate_branch(self):
        for rho, m, t in [(1.0, 0, 1.0), (0.7, 3, 2.0), (0.0, 5, 1.5)]:
            expected = t ** (m + 1) / math.factorial(m + 1) * math.exp(-rho * t)
            assert exp_monomial_convolution(rho, rho, m, t) == pytest.approx(expected)

    def test_monomial_order_zero_matches_pair(self):
        for rho, sigma, t in [(1.0, 2.0, 1.0), (2.0, 0.3, 2.5), (0.9, 0.9, 3.0)]:
            assert exp_monomial_convolution(rho, sigma, 0, t) == pytest.approx(
                exp_convolution(rho, sigma, t), abs=1e-12
            )

    def test_monomial_against_quadrature(self):
        cases = [
            (1.0, 2.0, 0, 1.0),
            (2.0, 2.0, 2, 1.0),
            (0.1, 4.0, 3, 2.0),
            (4.0, 0.1, 3, 2.0),
            (3.0, 3.0 + 1e-7, 2, 1.5),
            (0.0, 1.0, 5, 4.0),
            (1.0, 0.0, 5, 4.0),
            (6.0, 0.5, 8, 3.0),
            (0.5, 6.0, 8, 3.0),
            # x = (sigma - rho) t just below and above m + 1, where the
            # Poisson tail switches from the upper sum to one minus the head
            (0.0, 1.0, 20, 21.0 - 1e-9),
            (0.0, 1.0, 20, 21.0 + 1e-9),
        ]
        for rho, sigma, m, t in cases:
            oracle = math.exp(-rho * t) * quad(
                lambda s: s**m / math.factorial(m) * math.exp((rho - sigma) * s),
                0.0,
                t,
                epsabs=1e-12,
                epsrel=1e-12,
            )[0]
            got = exp_monomial_convolution(rho, sigma, m, t)
            assert got == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize(
        "rho, sigma, m, t",
        [(40.0, 1.0, 0, 1.0), (40.0, 1.0, 3, 1.0), (31.0, 0.5, 5, 1.0), (100.0, 2.0, 20, 0.5),
         (60.0, 20.0, 4, 1.0)],
    )
    def test_monomial_alternating_branch_relative(self, rho, sigma, m, t):
        # (rho - sigma) t >= 30 takes the alternating sum; some of these
        # values (down to 1e-27) lie far below an absolute bound, so the
        # error is checked relative to the value
        assert (rho - sigma) * t >= 30.0
        oracle = math.exp(-rho * t) * quad(
            lambda s: s**m / math.factorial(m) * math.exp((rho - sigma) * s),
            0.0,
            t,
            epsabs=0.0,
            epsrel=1e-13,
        )[0]
        got = exp_monomial_convolution(rho, sigma, m, t)
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_monomial_rejects_bad_input(self):
        with pytest.raises(ValueError):
            exp_monomial_convolution(1.0, 1.0, -1, 1.0)
        with pytest.raises(ValueError):
            exp_monomial_convolution(1.0, 1.0, 25, 1.0)
        with pytest.raises(ValueError):
            exp_monomial_convolution(-0.1, 1.0, 0, 1.0)


class TestKeptSolution:
    """The closed form is kept in the process store, keyed by the ground,
    lattice indices and rates in the order given."""

    @staticmethod
    def counted(monkeypatch, name):
        import recomb.closed_form as cf

        calls = []
        original = getattr(cf, name)

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(cf, name, counting)
        return calls

    @staticmethod
    def assert_same_tables(a, b, ground):
        for u in all_subsets(ground):
            assert np.array_equal(a.decay_table(u), b.decay_table(u)), u
            assert np.array_equal(coefficient_table(a, u), coefficient_table(b, u)), u

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_equal_rates_run_no_chain_scatter(self, n, monkeypatch):
        scatters = self.counted(monkeypatch, "_add_chains")
        first = build_closed_form(random_rates(n, seed=60 + n))
        built = len(scatters)
        assert built == n  # one chain scatter per subset size
        # a rate system of its own, with equal rates: the kept solution
        again = build_closed_form(random_rates(n, seed=60 + n))
        assert len(scatters) == built and again is first
        dynamics._store.clear()
        fresh = build_closed_form(random_rates(n, seed=60 + n))
        assert len(scatters) == 2 * built and fresh is not first
        self.assert_same_tables(again, fresh, ground_set(n))
        assert np.array_equal(again.evaluate(ground_set(n), GRID).values,
                              fresh.evaluate(ground_set(n), GRID).values)

    def test_other_keys_are_rebuilt(self, monkeypatch):
        scatters = self.counted(monkeypatch, "_add_chains")
        g = ground_set(4)
        lat = lattice(g)
        rng = np.random.default_rng(7)
        rated = {p: float(r) for p, r in zip(lat.parts[1:-1], rng.uniform(0.1, 1.0, lat.size - 2))}
        base = RateSystem(g, rated)
        reordered = RateSystem(g, dict(reversed(rated.items())))
        last = lat.parts[-2]
        ulp = RateSystem(g, {**rated, last: math.nextafter(rated[last], 1.0)})
        top = RateSystem(g, {**rated, lat.parts[lat.top_index]: 0.5})
        zero = RateSystem(g, {**rated, lat.parts[lat.bottom_index]: 0.0})
        first = build_closed_form(base)
        per_build = len(scatters)
        for k, rates in enumerate((reordered, ulp, top, zero), 2):
            sol = build_closed_form(rates)
            assert len(scatters) == k * per_build and sol is not first
            assert sol.rates is rates
        # and back: the store holds all five within its budget, so the
        # first rates find their solution kept
        assert build_closed_form(base) is first
        assert len(scatters) == 5 * per_build

    def test_degenerate_rates_raise_the_kept_report(self, monkeypatch):
        decays = self.counted(monkeypatch, "_decay_tables")
        bad = {"1|2|3|4": 1.0, "1,2|3,4": 1.0}  # scripts/scenarios/n4_bad_degenerate.json
        with pytest.raises(DegeneracyError) as first:
            build_closed_form(RateSystem.from_strings(ground_set(4), bad))
        with pytest.raises(DegeneracyError) as again:
            build_closed_form(RateSystem.from_strings(ground_set(4), bad))
        assert len(decays) == 1
        assert again.value.report is first.value.report and first.value.report.has_bad

    def test_kept_tables_are_read_only(self):
        rates = random_rates(4, seed=64)
        sol = build_closed_form(rates)
        g = ground_set(4)
        before = {u: (sol.decay_table(u).copy(), coefficient_table(sol, u)) for u in all_subsets(g)}
        with pytest.raises(ValueError):
            sol.decay_table(g)[0] = 0.0
        with pytest.raises(ValueError):
            sol.decay_table((1, 2))[:] = 1.0
        for u in all_subsets(g):
            with pytest.raises(ValueError):
                sol._coeff[u][0] = 0.0
        again = build_closed_form(random_rates(4, seed=64))
        assert again is sol
        for u, (psi, theta) in before.items():
            assert np.array_equal(again.decay_table(u), psi), u
            assert np.array_equal(coefficient_table(again, u), theta), u

    def test_other_rates_release_the_kept_solution(self, monkeypatch):
        # within the budget, other rates leave it kept; with the budget
        # below its pairs, the charge of the solution leaves its entry
        # alone over the budget, kept while it is the newest, and the entry
        # made for other rates releases it
        import gc
        import weakref

        sol = build_closed_form(random_rates(5, seed=65))
        ref, cells = weakref.ref(sol), sol.cells
        del sol
        build_closed_form(random_rates(5, seed=66))
        gc.collect()
        assert ref() is not None  # both are within the budget
        dynamics._store.clear()
        monkeypatch.setattr(dynamics, "MAX_STATES", cells - 1)
        sol = build_closed_form(random_rates(5, seed=65))
        ref = weakref.ref(sol)
        del sol
        assert build_closed_form(random_rates(5, seed=65)) is ref()  # the newest
        assert len(dynamics._store) == 1
        gc.collect()
        assert ref() is not None  # alone over the budget, the entry holds it
        build_closed_form(random_rates(5, seed=66))
        gc.collect()
        assert ref() is None

    def test_size_kept_with_the_solution(self, monkeypatch):
        from recomb.closed_form import closed_form_size

        rates = random_rates(5, seed=67)
        size = closed_form_size(rates)
        entry = dynamics._entry(rates)
        assert entry["size"] == size

        def refuse(*args):
            raise AssertionError("a marginal was summed again")

        equal = random_rates(5, seed=67)
        monkeypatch.setattr(RateSystem, "marginals", refuse)
        assert closed_form_size(equal) == size
        assert dynamics._entry(equal) is entry
