from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import recomb.dynamics as dynamics
from recomb.dynamics import (
    CoefficientVector,
    RateSystem,
    _program,
    coefficient_rhs,
    default_step,
    integrate_coefficients,
    integrate_measure,
    measure_rhs,
    mixtures,
    program_cells,
    rk4_plan,
)
from recomb.measures import (
    MAX_STATES,
    Measure,
    TypeSpace,
    mixture,
    product_measure,
    recombinator,
)
from recomb.partitions import (
    Lattice,
    Partition,
    ground_set,
    lattice,
)
from recomb.scenario import Scenario

import oracles
from conftest import benchmark_scenario, key_of, random_rates, slots, within_budget
from oracles import is_refinement, meet, meet_gain, refinement_gain, restrict, tv_deviation


def random_probability(n, seed):
    rng = np.random.default_rng(seed)
    lat = lattice(ground_set(n))
    v = rng.random(lat.size)
    return CoefficientVector(ground_set(n), v / v.sum())


RATE_KINDS = ["dense", "with-zeros", "top-only", "empty"]


def rate_system(n, kind, seed=12):
    """Rates of one kind on n sites: every partition rated, every other one
    at rate zero (listed finest first), only the single block, or none."""
    g = ground_set(n)
    if kind == "dense":
        return random_rates(n, seed=seed)
    if kind == "with-zeros":
        parts = lattice(g).parts[::-1]
        draw = np.random.default_rng(seed).uniform(0.1, 1.0, len(parts))
        draw[::2] = 0.0
        return RateSystem(g, dict(zip(parts, draw)))
    if kind == "top-only":
        return RateSystem(g, {Partition.whole(g): 1.5})
    return RateSystem(g, {})


class TestRateSystem:
    def test_total(self):
        rates = random_rates(3, seed=0, total=3.0)
        assert rates.total == pytest.approx(3.0)

    def test_negative_rejected(self):
        g = ground_set(2)
        with pytest.raises(ValueError):
            RateSystem(g, {Partition.whole(g): -1.0})

    def test_total_past_the_float_range_rejected(self):
        # each rate is finite and their total is not, by mapping and by index
        g = ground_set(2)
        lat = lattice(g)
        with pytest.raises(ValueError, match="add up to inf"):
            RateSystem(g, dict.fromkeys(lat.parts, 1e308))
        with pytest.raises(ValueError, match="add up to inf"):
            RateSystem.from_indices(g, [0, 1], [1e308, 1e308])

    @pytest.mark.parametrize(
        "indices, weights, message",
        [
            ([3, 3], [0.3, 0.4], r"^partition index 3 \(1\|2,3\) is given twice$"),
            ([1, 99], [0.3, 0.4], r"^partition index 99 is outside the 5 partitions of"),
            ([-1], [0.3], r"^partition index -1 is outside the 5 partitions of"),
            ([1, 2], [0.3], r"^partition index 2 has no rate$"),
            ([1], [0.3, 0.4], r"^rate 0.4 has no partition index$"),
            ([1.5], [0.3], r"^partition index 1.5 is not an integer$"),
            ([True], [0.3], r"^partition index True is not an integer$"),
            ([[1]], [0.3], r"^partition indices must be one flat list, got shape \(1, 1\)$"),
        ],
        ids=[
            "twice", "past-the-lattice", "negative", "index-without-rate", "rate-without-index",
            "float", "bool", "nested",
        ],
    )
    def test_bad_indices_refused_by_name(self, indices, weights, message):
        # a repeated index once counted in the total but fed the gain once,
        # so the coefficient right-hand side no longer summed to zero
        with pytest.raises(ValueError, match=message) as refused:
            RateSystem.from_indices(ground_set(3), indices, weights)
        assert "\n" not in str(refused.value)

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_bad_rate_refused_by_name_either_way(self, rate):
        # one check, after the keys: by mapping and by index the same line,
        # and a foreign key after a bad rate is named first
        g = ground_set(3)
        lat = lattice(g)
        message = rf"^rate for 1\|2,3 must be finite and nonnegative, got {rate}$"
        with pytest.raises(ValueError, match=message):
            RateSystem(g, {lat.parts[0]: 1.0, Partition([[1], [2, 3]]): rate})
        with pytest.raises(ValueError, match=message):
            RateSystem.from_indices(g, [0, 3], [1.0, rate])
        with pytest.raises(ValueError, match="is not on the ground set"):
            RateSystem(g, {Partition([[1], [2, 3]]): rate, Partition.whole((1, 2)): 1.0})

    def test_wrong_ground_rejected(self):
        with pytest.raises(ValueError):
            RateSystem(ground_set(3), {Partition.whole((1, 2)): 1.0})

    def test_marginal_definition(self):
        # induced rates sum the fibers of restriction, in the order the rates
        # were given, so the vector equals the restrict loop exactly
        systems = [random_rates(n, seed=1) for n in range(1, 6)]
        g = ground_set(5)
        parts = lattice(g).parts[::-1]
        draw = np.random.default_rng(1).uniform(0.1, 1.0, len(parts))
        draw[::3] = 0.0
        systems.append(RateSystem(g, dict(zip(parts, draw))))
        for rates in systems:
            for size in range(1, len(rates.ground) + 1):
                for u in combinations(rates.ground, size):
                    marg = rates.marginal(u)
                    expected = {}
                    for p, r in rates.rates.items():
                        q = restrict(p, u)
                        expected[q] = expected.get(q, 0.0) + r
                    vec = [expected.get(p, 0.0) for p in lattice(u).parts]
                    assert np.array_equal(marg, vec)
                    assert not marg.flags.writeable
            with pytest.raises(ValueError):
                rates.marginal((1, 9))

    def test_marginal_total_preserved(self):
        rates = random_rates(4, seed=2)
        for u in [(1,), (1, 3), (2, 3, 4)]:
            assert rates.marginal(u).sum() == pytest.approx(rates.total)

    def test_marginal_of_full_set_is_identity(self):
        rates = random_rates(3, seed=3)
        marg = rates.marginal((1, 2, 3))
        assert np.array_equal(marg, [rates.rate(p) for p in lattice((1, 2, 3)).parts])

    def test_bottom_rate_restricts_to_bottom(self):
        g = ground_set(3)
        rates = RateSystem(g, {Partition.singletons(g): 1.0})
        marg = rates.marginal((1, 2))
        assert marg[lattice((1, 2)).bottom_index] == pytest.approx(1.0)


class TestGainCoefficients:
    def test_gain_at_top_is_identity(self):
        q = random_probability(3, seed=4)
        top = Partition.whole((1, 2, 3))
        for a in lattice((1, 2, 3)).parts:
            assert refinement_gain(q, a, top) == pytest.approx(q.value(a))
            assert meet_gain(q, a, top) == pytest.approx(q.value(a))

    def test_gain_of_zero_vector(self):
        g = ground_set(3)
        zero = CoefficientVector(g, np.zeros(5))
        a = Partition.singletons(g)
        assert refinement_gain(zero, a, Partition.whole(g)) == 0.0

    def test_gain_zero_off_order(self):
        q = random_probability(3, seed=5)
        a = Partition([[1, 2], [3]])
        b = Partition([[1], [2, 3]])
        assert refinement_gain(q, a, b) == 0.0
        assert meet_gain(q, a, b) == 0.0

    def test_gain_row_sums_to_mass(self):
        q = random_probability(4, seed=6)
        lat = lattice(ground_set(4))
        for b in lat.parts:
            total = sum(refinement_gain(q, a, b) for a in lat.parts)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_meet_gain_counts_whole_fiber(self):
        # on two sites every partition meets the bottom at the bottom,
        # so the linearized gain there is the full mass
        g = ground_set(2)
        q = CoefficientVector.from_dict(
            g, {Partition.whole(g): 0.5, Partition.singletons(g): 0.5}
        )
        bottom = Partition.singletons(g)
        assert meet_gain(q, bottom, bottom) == pytest.approx(1.0)

    def test_meet_gain_reads_no_meet_table(self, monkeypatch):
        # one meet column from the labels, against the pairwise meet
        def refuse(lat):
            raise AssertionError("meet_gain read the dense meet table")

        monkeypatch.setattr(oracles, "meet_table", refuse)
        q = random_probability(4, seed=8)
        lat = lattice(ground_set(4))
        for b in lat.parts:
            for a in lat.parts:
                direct = sum(q.value(p) for p in lat.parts if meet(p, b) == a)
                assert meet_gain(q, a, b) == pytest.approx(direct, abs=1e-15)

    def test_gains_agree_on_singleton_pair_partitions(self):
        # the two gain notions coincide at the top and on two-block
        # partitions with a singleton part
        q = random_probability(4, seed=7)
        g = ground_set(4)
        for a in lattice(g).parts:
            if a.block_count == 2 and min(len(b) for b in a.blocks) == 1:
                assert refinement_gain(q, a, a) == pytest.approx(meet_gain(q, a, a))

    def test_gain_matches_direct_definition(self):
        # brute-force oracle: product over coarse blocks of the mass of
        # partitions restricting like the finer one, scaled by the total
        for n in (2, 3, 4):
            rng = np.random.default_rng(40 + n)
            lat = lattice(ground_set(n))
            q = CoefficientVector(ground_set(n), rng.uniform(0.0, 2.0, lat.size))
            mass = q.values.sum()
            for b in lat.parts:
                for a in lat.parts:
                    if not is_refinement(a, b):
                        continue
                    expected = mass ** (1 - b.block_count)
                    for u in b.blocks:
                        target = restrict(a, u)
                        expected *= sum(
                            q.value(c) for c in lat.parts if restrict(c, u) == target
                        )
                    assert refinement_gain(q, a, b) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_gain_blockwise_marginal_product(self):
        # the gain factors through the marginals of the coarse blocks
        for n in (2, 3, 4):
            q = random_probability(n, seed=10 + n)
            lat = lattice(ground_set(n))
            for b in lat.parts:
                margs = {u: q.marginal(u) for u in b.blocks}
                for a in lat.parts:
                    if not is_refinement(a, b):
                        continue
                    expected = 1.0
                    for u in b.blocks:
                        expected *= margs[u].value(restrict(a, u))
                    assert refinement_gain(q, a, b) == pytest.approx(
                        expected, abs=1e-13
                    )

    def test_marginal_reduction_relation(self):
        # summing gains over a restriction fiber gives the subsystem gain
        n = 4
        g = ground_set(n)
        q = random_probability(n, seed=17)
        lat = lattice(g)
        for size in (1, 2, 3):
            for u in combinations(g, size):
                sub = lattice(u)
                qu = q.marginal(u)
                for d in lat.parts:
                    b = restrict(d, u)
                    for a in sub.parts:
                        if not is_refinement(a, b):
                            continue
                        total = sum(
                            refinement_gain(q, c, d)
                            for c in lat.parts
                            if is_refinement(c, d) and restrict(c, u) == a
                        )
                        assert total == pytest.approx(
                            refinement_gain(qu, a, b), abs=1e-12
                        )

    def test_negative_vector_rejected(self):
        g = ground_set(2)
        bad = CoefficientVector(g, np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            refinement_gain(bad, Partition.whole(g), Partition.whole(g))


class TestCoefficientRhs:
    def test_at_initial_condition(self):
        # starting from all mass on the top block, the flow feeds each
        # partition at its own rate
        rates = random_rates(4, seed=8)
        lat = lattice(ground_set(4))
        rhs = coefficient_rhs(CoefficientVector.delta_top(ground_set(4)), rates)
        expected = rates.marginal(ground_set(4)).copy()
        expected[lat.top_index] -= rates.total
        np.testing.assert_allclose(rhs.values, expected, atol=1e-14)

    def test_zero_rates(self):
        g = ground_set(3)
        rates = RateSystem(g, {})
        rhs = coefficient_rhs(random_probability(3, seed=9), rates)
        assert np.all(rhs.values == 0.0)

    def test_entries_sum_to_zero(self):
        rates = random_rates(4, seed=10)
        rhs = coefficient_rhs(random_probability(4, seed=11), rates)
        assert rhs.values.sum() == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("kind", RATE_KINDS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_direct_gain_formula(self, n, kind):
        rates = rate_system(n, kind)
        q = random_probability(n, seed=13)
        lat = lattice(ground_set(n))
        rhs = coefficient_rhs(q, rates)
        for i, a in enumerate(lat.parts):
            direct = -rates.total * q.value(a) + sum(
                refinement_gain(q, a, b) * rates.rate(b)
                for b in lat.parts
                if is_refinement(a, b)
            )
            assert rhs.values[i] == pytest.approx(direct, abs=1e-13)

    def test_top_rate_is_immaterial(self):
        # adding mass on the single-block partition changes nothing
        g = ground_set(3)
        base = random_rates(3, seed=14)
        shifted = dict(base.rates)
        shifted[Partition.whole(g)] = shifted.get(Partition.whole(g), 0.0) + 2.0
        rates2 = RateSystem(g, shifted)
        q = random_probability(3, seed=15)
        np.testing.assert_allclose(
            coefficient_rhs(q, base).values,
            coefficient_rhs(q, rates2).values,
            atol=1e-13,
        )


class TestMeasureRhs:
    def test_product_measure_is_equilibrium(self):
        space = TypeSpace.regular(3, 2)
        nu = product_measure(space, [[0.3, 0.7], [0.5, 0.5], [0.2, 0.8]])
        rates = random_rates(3, seed=16)
        out = measure_rhs(nu, rates)
        assert np.abs(out).max() <= 1e-14

    def test_top_only_rates_give_zero(self):
        g = ground_set(3)
        space = TypeSpace.regular(3, 2)
        rates = RateSystem(g, {Partition.whole(g): 5.0})
        rng = np.random.default_rng(17)
        nu = Measure(space, rng.random((2, 2, 2)))
        assert np.abs(measure_rhs(nu, rates)).max() == 0.0

    def test_entry_sum_zero(self):
        space = TypeSpace.regular(3, 2)
        rng = np.random.default_rng(18)
        nu = Measure(space, rng.random((2, 2, 2)))
        rates = random_rates(3, seed=19)
        assert measure_rhs(nu, rates).sum() == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("kind", RATE_KINDS)
    @pytest.mark.parametrize(
        "sizes",
        [(2,), (3,), (2, 2), (3, 1), (2, 2, 2), (3, 1, 2), (2, 2, 2, 2), (2, 3, 2, 2), (2, 1, 3, 2, 2)],
        ids=lambda sizes: "x".join(map(str, sizes)),
    )
    def test_matches_direct_operator_sum(self, sizes, kind):
        from recomb.measures import recombinator

        n = len(sizes)
        space = TypeSpace(ground_set(n), sizes)
        rng = np.random.default_rng(20)
        nu = Measure(space, rng.random(sizes))
        rates = rate_system(n, kind, seed=21)
        direct = np.zeros(sizes)
        for p, r in rates.rates.items():
            direct += r * (recombinator(p, nu).weights - nu.weights)
        np.testing.assert_allclose(measure_rhs(nu, rates), direct, rtol=0, atol=1e-13)


class TestIntegration:
    def test_zero_rates_constant(self):
        g = ground_set(3)
        rates = RateSystem(g, {})
        a0 = random_probability(3, seed=22)
        traj = integrate_coefficients(rates, a0, np.linspace(0, 2, 5))
        for k in range(5):
            np.testing.assert_array_equal(traj.values[k], a0.values)

    def test_two_site_exact_exponential(self):
        # da/dt(top) = -rho * a(top) has the explicit solution exp(-rho t)
        g = ground_set(2)
        rho = 0.9
        rates = RateSystem(g, {Partition.singletons(g): rho})
        grid = np.linspace(0, 4, 9)
        traj = integrate_coefficients(rates, CoefficientVector.delta_top(g), grid)
        top = lattice(g).top_index
        err = np.abs(traj.values[:, top] - np.exp(-rho * grid)).max()
        assert err < 10 * (traj.step * rho) ** 4

    def test_conservation_over_long_horizon(self):
        rates = random_rates(4, seed=23)
        grid = np.linspace(0, 10, 21)
        traj = integrate_coefficients(
            rates, CoefficientVector.delta_top(ground_set(4)), grid
        )
        assert np.abs(traj.drift).max() < 1e-10

    def test_forward_invariance(self):
        rates = random_rates(4, seed=24)
        grid = np.linspace(0, 10, 21)
        traj = integrate_coefficients(
            rates, CoefficientVector.delta_top(ground_set(4)), grid
        )
        assert traj.values.min() >= -1e-12

    def test_measure_constant_cases(self):
        space = TypeSpace.regular(3, 2)
        nu = product_measure(space, [[0.3, 0.7], [0.5, 0.5], [0.2, 0.8]])
        rates = random_rates(3, seed=25)
        traj = integrate_measure(rates, nu, np.linspace(0, 2, 5))
        for k in range(5):
            np.testing.assert_allclose(traj.tensors[k], nu.weights, atol=1e-12)
        assert np.abs(traj.drift).max() < 1e-12

    @pytest.mark.parametrize("k", (-60, 5, 1022))
    def test_measure_run_scales_by_powers_of_two(self, k):
        # the run from omega * 2**k is the run from omega times 2**k, bit for
        # bit, also where an unscaled RK4 substep would overflow
        rng = np.random.default_rng(31)
        space = TypeSpace.regular(3, 2)
        nu = Measure(space, rng.random((2, 2, 2)))
        rates = random_rates(3, seed=32)
        grid = np.linspace(0, 2, 5)
        base = integrate_measure(rates, nu, grid).tensors
        scaled = integrate_measure(rates, Measure(space, np.ldexp(nu.weights, k)), grid)
        np.testing.assert_array_equal(scaled.tensors, np.ldexp(base, k))

    def test_equivalence_with_mixture(self):
        # the measure flow equals the coefficient mixture applied to the
        # initial measure, grid point by grid point
        rng = np.random.default_rng(26)
        space = TypeSpace.regular(4, 2)
        w = rng.random((2, 2, 2, 2))
        nu = Measure(space, w / w.sum())
        rates = random_rates(4, seed=27)
        grid = np.array([0.0, 0.1, 1.0, 3.0])
        step = 0.02 / rates.total
        mt = integrate_measure(rates, nu, grid, step=step)
        ct = integrate_coefficients(
            rates, CoefficientVector.delta_top(ground_set(4)), grid, step=step
        )
        for k in range(grid.size):
            dev = tv_deviation(mt.state(k), mixture(ct.state(k), nu))
            assert dev <= 1e-8

    def test_grid_validation(self):
        rates = random_rates(2, seed=28)
        a0 = CoefficientVector.delta_top(ground_set(2))
        with pytest.raises(ValueError):
            integrate_coefficients(rates, a0, [1.0, 2.0])
        with pytest.raises(ValueError):
            integrate_coefficients(rates, a0, [0.0, 0.0, 1.0])

    def test_step_guard(self):
        rates = random_rates(2, seed=29, total=4.0)
        a0 = CoefficientVector.delta_top(ground_set(2))
        with pytest.raises(ValueError):
            integrate_coefficients(rates, a0, [0.0, 1.0], step=1.0)

    def test_default_step_rule(self):
        rates = random_rates(3, seed=30, total=5.0)
        assert default_step(rates, 10.0) == pytest.approx(0.05 / 5.0)

    @pytest.mark.parametrize(
        "grid, step",
        [
            (np.linspace(0, 1, 3), None),
            (np.linspace(0, 1, 4), 0.07),
            (np.linspace(0, 2, 9), 0.05),
            (np.array([0.0, 0.3, 1.0]), 0.1),
            (np.array([0.0, 0.25, 0.5, 1.5]), 0.125),
        ],
    )
    def test_rk4_row_is_the_run_alone(self, grid, step):
        # wherever rk4_row names a row, it is the run over [0, t] alone bit
        # for bit; it names every grid time of the equal substeps of 0.125
        rates = random_rates(4, seed=33, total=1.0)
        a0 = CoefficientVector.delta_top(rates.ground)
        g, _, substeps = rk4_plan(rates, grid, step)
        run = integrate_coefficients(rates, a0, g, step=step).values
        rows = []
        for t in (*g.tolist(), 0.7):
            ref = [0.0, t] if t > 0 else [0.0]
            j = dynamics.rk4_row(g, substeps, t, rk4_plan(rates, ref, step)[2].sum())
            if j is not None:
                assert g[j] == t
                np.testing.assert_array_equal(run[j], integrate_coefficients(rates, a0, ref, step=step).values[-1])
                rows.append(j)
        assert rows[:1] == [0]
        if step == 0.125:
            assert rows == list(range(g.size))

    def test_rk4_row_refuses_other_substep_lengths(self):
        # 0, 0.3 and 1 at step 0.1 take 3 + 7 substeps, as [0, 1] alone
        # takes 10, but 0.3 / 3 is not 0.1 in floats
        rates = random_rates(3, seed=34, total=1.0)
        g, _, substeps = rk4_plan(rates, [0.0, 0.3, 1.0], 0.1)
        count = rk4_plan(rates, [0.0, 1.0], 0.1)[2].sum()
        assert substeps.tolist() == [3.0, 7.0] and count == 10.0
        assert dynamics.rk4_row(g, substeps, 1.0, count) is None
        assert dynamics.rk4_row(g, substeps, 1.0, 10.0 + 1) is None
        assert dynamics.rk4_row(g, substeps, 2.0, 20.0) is None

    def test_negative_initial_rejected(self):
        g = ground_set(2)
        rates = random_rates(2, seed=31)
        bad = CoefficientVector(g, np.array([1.2, -0.2]))
        with pytest.raises(ValueError):
            coefficient_rhs(bad, rates)


# the ordered two-block rates of seven sites (the linear regime)
LINEAR_N7 = {
    "1|2,3,4,5,6,7": 0.37, "1,2|3,4,5,6,7": 0.81, "1,2,3|4,5,6,7": 0.55,
    "1,2,3,4|5,6,7": 0.23, "1,2,3,4,5|6,7": 0.64, "1,2,3,4,5,6|7": 0.45,
}


# the ordered two-block rates of four sites, one crossover per event
SINGLE_CROSSOVER_N4 = {"1|2,3,4": 0.37, "1,2|3,4": 0.81, "1,2,3|4": 0.55}


def half_rated(n, seed=3):
    """random_rates(n, 1) with a random half of the partitions at rate zero."""
    rates = random_rates(n, 1)
    off = np.random.default_rng(seed).random(len(rates.rates)) < 0.5
    draw = [0.0 if o else r for r, o in zip(rates.rates.values(), off)]
    return RateSystem(rates.ground, dict(zip(rates.rates, draw)))


def dense_order_pairs(rates, space=None):
    """The pair program's rows, rates, per-position cells and block
    marginals, one (state, partition) pair per gaining state of each kept
    partition: on the lattice the gain pairs are read from the dense order
    ``Lattice.finer``, on a measure every state pairs with every kept
    partition.  Kept as an oracle for the trie program."""
    lat = lattice(rates.ground)
    kept = sorted(
        ((p, r) for p, r in rates.rates.items() if r > 0 and p.block_count > 1),
        key=lambda pr: -pr[0].block_count,
    )
    blocks = sorted({u for p, _ in kept for u in p.blocks})
    if space is None:
        part, rows = np.nonzero(lat.finer[:, [lat.index[p] for p, _ in kept]].T)
        marginals = [(lat.restriction_index(u), lattice(u).size) for u in blocks]
    else:
        part, rows = np.divmod(np.arange(len(kept) * space.n_states), space.n_states)
        coords = np.indices(space.sizes).reshape(len(space.sizes), -1)
        marginals = []
        for u in blocks:
            sub = space.subspace(u)
            letters = coords[[space.axis(x) for x in u]]
            marginals.append((np.ravel_multi_index(letters, sub.sizes), sub.n_states))
    offset = dict(zip(blocks, np.cumsum([0] + [size for _, size in marginals])))
    index = dict(zip(blocks, [idx for idx, _ in marginals]))
    cells = [[] for _ in range(max((p.block_count for p, _ in kept), default=0))]
    for k, (p, _) in enumerate(kept):
        for j, u in enumerate(p.blocks):
            cells[j].append(offset[u] + index[u][rows[part == k]])
    rate = np.array([r for _, r in kept])[part]
    return rows, rate, [np.concatenate(c) for c in cells], marginals


def pair_rhs(rates, vec, space=None):
    """The right-hand side of the pair program on ``dense_order_pairs``:
    each pair's rate times its block marginals, one position at a time,
    summed into its state."""
    rows, rate, cells, marginals = dense_order_pairs(rates, space)
    loss = sum(r for p, r in rates.rates.items() if r > 0 and p.block_count > 1)
    out = -loss * vec
    s = vec.sum()
    if s <= 0.0 or not rows.size:
        return out
    marg = np.concatenate([np.bincount(idx, vec / s, size) for idx, size in marginals])
    prod = rate * marg[cells[0]]
    for c in cells[1:]:
        prod[: c.size] *= marg[c]
    return out + s * np.bincount(rows, prod, vec.size)


def assert_matches_pairs(rates, space=None):
    width = lattice(rates.ground).size if space is None else space.n_states
    vec = np.random.default_rng(width).random(width)
    want = pair_rhs(rates, vec, space)
    got = _program(rates, space).rhs(vec)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestPairProgram:
    @pytest.mark.parametrize(
        "rates",
        [random_rates(n, 1) for n in range(1, 8)]
        + [half_rated(n) for n in range(1, 8)]
        + [RateSystem.from_strings(ground_set(4), SINGLE_CROSSOVER_N4)],
        ids=[f"all-{n}" for n in range(1, 8)] + [f"half-{n}" for n in range(1, 8)]
        + ["single-crossover-4"],
    )
    def test_pairs_match_dense_order(self, rates):
        assert_matches_pairs(rates)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_measure_matches_pairs(self, n):
        for rates in (random_rates(n, 1), half_rated(n)):
            assert_matches_pairs(rates, TypeSpace.regular(n, 3))

    def test_integration_reads_no_dense_order(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the coefficient program read Lattice.finer")

        monkeypatch.setattr(Lattice, "finer", property(refuse))
        for rates in (random_rates(6, 1), RateSystem.from_strings(ground_set(7), LINEAR_N7)):
            a0 = CoefficientVector.delta_top(rates.ground)
            traj = integrate_coefficients(rates, a0, np.linspace(0.0, 1.0, 3))
            assert np.abs(traj.drift).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cells_count_the_stored_indices(self, n):
        for rates in (random_rates(n, 1), half_rated(n)):
            for space in (None, TypeSpace.regular(n, 3)):
                prog = _program(rates, space)
                blocks = sum(c.size for level in prog.levels for c in level.cells)
                descent = sum(src.size + tgt.size for _, _, src, tgt in prog.descent)
                stored = prog.ground_cells.size + descent + blocks
                assert program_cells(rates, space) == stored

    def test_plan_refuses_a_program_above_the_bound(self, monkeypatch):
        # every partition of six sites rated, on 12**6 types: the block
        # marginals take 26,263,872 indices, 140,335,200 with the trie (the
        # coefficient work bound is tested at n = 10 in a child process, see
        # test_cli)
        compiles = count_compiles(monkeypatch)
        rates = random_rates(6, 1)
        space = TypeSpace.regular(6, 12)
        assert program_cells(rates, space) > MAX_STATES
        with pytest.raises(ValueError, match="measure program"):
            rk4_plan(rates, [0.0, 1.0], space=space)
        omega0 = Measure(space, np.ones(space.sizes), validate=False)
        with pytest.raises(ValueError, match="measure program"):
            integrate_measure(rates, omega0, [0.0, 1.0])
        assert not compiles and not slots(dynamics._entry(rates), "program")


def count_compiles(monkeypatch):
    """Empty the process cache of compiled tables, and record each program
    compiled from here on by (leaves, weights, spaces)."""
    calls = []
    compile_program = dynamics._compile

    def counted(tables, spaces):
        calls.append((tables.leaves.tobytes(), tables.weights.tobytes(), spaces))
        return compile_program(tables, spaces)

    dynamics._store.clear()
    monkeypatch.setattr(dynamics, "_compile", counted)
    return calls


def kept_tables():
    """The keys of the entries in the process store that hold compiled
    tables, least recently used first."""
    return [key for key, entry in dynamics._store.items() if "tables" in entry]


def flat_marginals(prog, unit, ground, space=None):
    """Every block marginal of unit in the program's block order, the way
    the program summed them before the descent: one ``np.bincount`` over
    each state's cell in each block marginal, state-major.  Kept as an
    oracle for the descent."""
    columns, sizes = [], []
    for u in prog.blocks:
        if space is None:
            columns.append(lattice(ground).restriction_index(u))
            sizes.append(lattice(u).size)
        else:
            coords = np.indices(space.sizes).reshape(len(space.sizes), -1)
            sub = space.subspace(u)
            columns.append(np.ravel_multi_index(coords[[space.axis(x) for x in u]], sub.sizes))
            sizes.append(sub.n_states)
    start = np.cumsum([0] + sizes)
    state_cells = np.zeros((unit.size, len(columns)), dtype=np.intp)
    for i, idx in enumerate(columns):
        state_cells[:, i] = start[i] + idx
    return np.bincount(state_cells.reshape(-1), unit.repeat(len(columns)), start[-1])


def einsum_mixture(values, omega0):
    """sum_A values[t, A] * R_A(omega0) for each row t, one
    ``recombinator`` einsum per partition with a nonzero coefficient, as
    the measure check summed it before it went through the trie.  Kept as
    an oracle for ``mixtures``."""
    parts = lattice(omega0.space.sites).parts
    mix = np.zeros((values.shape[0], omega0.space.n_states))
    for i in np.flatnonzero(np.any(values != 0.0, axis=0)):
        mix += np.outer(values[:, i], recombinator(parts[i], omega0).weights.reshape(-1))
    return mix


def interval_rates(n):
    """The ordered two-block partitions of n sites (the linear regime)."""
    g = ground_set(n)
    return RateSystem(g, {Partition([g[:k], g[k:]]): 0.2 + 0.1 * k for k in range(1, n)})


def one_rate(n):
    """One rated partition: the first half of the sites against the rest."""
    g = ground_set(n)
    blocks = [g[: (n + 1) // 2], g[(n + 1) // 2 :]]
    return RateSystem(g, {Partition([b for b in blocks if b]): 1.3})


SUPPORTS = {
    "all": lambda n: random_rates(n, 1),
    "half": half_rated,
    "intervals": interval_rates,
    "one": one_rate,
}


SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


def mixed_space(n):
    """Alphabets of sizes 3 and 2 in turn, so strides differ by axis."""
    return TypeSpace(ground_set(n), [3 - i % 2 for i in range(n)])


class TestDescent:
    @pytest.mark.parametrize("support", list(SUPPORTS))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_marginals_match_the_flat_sum(self, n, support):
        for space in (None, mixed_space(n)):
            rates = SUPPORTS[support](n)
            prog = _program(rates, space)
            width = lattice(rates.ground).size if space is None else space.n_states
            unit = np.random.default_rng(n).random(width)
            unit /= unit.sum()
            if not prog.blocks:
                assert prog.n_cells == 0 and not prog.descent
                continue
            got, want = prog.marginals(unit), flat_marginals(prog, unit, rates.ground, space)
            ends = np.cumsum([0] + [
                lattice(u).size if space is None else space.subspace(u).n_states
                for u in prog.blocks
            ])
            for u, lo, hi in zip(prog.blocks, ends[:-1], ends[1:]):
                assert np.abs(got[lo:hi] - want[lo:hi]).max() <= 1e-14, u

    def test_large_programs_descend(self):
        # the all-rated n = 7 programs sum most marginals from supersets,
        # so the oracle comparison above covers the descent, not only the
        # flat level
        for space in (None, mixed_space(7)):
            prog = _program(random_rates(7, 1), space)
            assert len(prog.descent) >= 2
            assert prog.n_ground < len(prog.blocks) / 2

    @pytest.mark.parametrize("n", range(4, 8))
    def test_levels_stop_where_merging_costs_a_call(self, n):
        # the deepest level stays only if summing its blocks from their
        # sources' sources would cost at least one call's worth of cells
        for rates in (random_rates(n, 1), half_rated(n), interval_rates(n)):
            for space in (None, mixed_space(n)):
                plan, _ = dynamics._plan(dynamics._tables(rates), space)
                states = dynamics._state_counter(rates.ground, space)
                source = {u: w for level in plan for u, w in level}
                if len(plan) > 1:
                    extra = sum(states(source[w]) - states(w) for _, w in plan[-1])
                    assert extra >= dynamics._DESCENT_CALL
                else:
                    assert all(w == rates.ground for w in source.values())

    @pytest.mark.parametrize("name", ["n3_generic", "n4_bad_degenerate", "n4_single_crossover"])
    def test_shipped_programs_stay_flat_and_bitwise(self, name):
        scenario = Scenario.from_file(SCENARIOS / f"{name}.json")
        for space in (None, scenario.space):
            prog = _program(scenario.rates, space)
            assert not prog.descent
            width = lattice(scenario.ground).size if space is None else space.n_states
            vec = np.random.default_rng(7).random(width)
            s = float(vec.sum())
            flat = flat_marginals(prog, vec / s, scenario.ground, space)
            want = -prog.loss * vec + s * prog.gain(flat)
            assert np.array_equal(prog.rhs(vec), want)


def assert_mixture_matches(values, omega0):
    got = mixtures(values, omega0)
    want = einsum_mixture(values, omega0)
    mass = omega0.norm() or 1.0
    assert np.abs(got - want).max() <= 1e-15 * mass


class TestMixtures:
    def setup_method(self):
        self.rng = np.random.default_rng(33)

    def unit_measure(self, space):
        w = self.rng.random(space.sizes)
        return Measure(space, w / w.sum())

    def coefficients(self, n, columns, times=3):
        """Random coefficients on the lattice indices columns, and the top."""
        values = np.zeros((times, lattice(ground_set(n)).size))
        values[:, columns] = self.rng.random((times, len(columns)))
        values[:, 0] = self.rng.random(times)
        return values

    @pytest.mark.parametrize("n", range(2, 7))
    def test_second_mixture_on_a_support_compiles_nothing(self, n, monkeypatch):
        # the support's program is compiled once, at unit rates, and kept:
        # other coefficients and another measure on the same support and
        # space reuse it
        space = mixed_space(n)
        columns = np.arange(1, lattice(space.sites).size)[::2]
        compiles = count_compiles(monkeypatch)
        assert_mixture_matches(self.coefficients(n, columns), self.unit_measure(space))
        assert len(compiles) == 1
        leaves, weights, spaces = compiles[0]
        assert sorted(np.frombuffer(leaves, dtype=np.intp)) == sorted(columns)
        assert np.all(np.frombuffer(weights) == 1.0) and spaces == (space,)
        assert_mixture_matches(self.coefficients(n, columns), self.unit_measure(space))
        assert len(compiles) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_uncovered_support_compiles_its_own(self, n):
        # the trajectory of interval rates reaches partitions that are not
        # rated, and a random support holds partitions no rate system here
        # rates: each mixture is the program of its own support
        space = mixed_space(n)
        omega0 = self.unit_measure(space)
        rates = interval_rates(n)
        grid = np.linspace(0.0, 1.0, 4)
        traj = integrate_coefficients(rates, CoefficientVector.delta_top(rates.ground), grid)
        assert_mixture_matches(traj.values, omega0)
        columns = np.arange(1, lattice(ground_set(n)).size)
        assert_mixture_matches(self.coefficients(n, columns), omega0)
        assert_mixture_matches(self.coefficients(n, columns[::2]), omega0)

    def test_zero_measure_maps_to_zero(self):
        space = mixed_space(4)
        zero = Measure(space, np.zeros(space.sizes))
        values = self.coefficients(4, np.arange(1, 15))
        assert not mixtures(values, zero).any()
        assert_mixture_matches(values, zero)

    def test_support_split_into_runs(self, monkeypatch):
        # a bound below the support program's cells: the support compiles in
        # runs, each at most the bound unless it holds one partition; the
        # entry of the support at unit rates is looked up once in the
        # process store, where its tables are kept and hold no program, and
        # no run's tables enter it
        space = mixed_space(5)
        omega0 = self.unit_measure(space)
        values = self.coefficients(5, np.arange(1, 52))
        whole = RateSystem(space.sites, {p: 1.0 for p in lattice(space.sites).parts[1:]})
        dynamics._store.clear()
        bound = program_cells(whole, space) // 5
        runs = []
        compile_program = dynamics._compile

        def counted(tables, spaces):
            runs.append(dynamics._plan(tables, *spaces)[1])
            return compile_program(tables, spaces)

        monkeypatch.setattr(dynamics, "MAX_STATES", bound)
        monkeypatch.setattr(dynamics, "_compile", counted)
        before = dict(dynamics._store)
        lookups = within_budget(monkeypatch)
        assert_mixture_matches(values, omega0)
        assert len(runs) > 5
        assert all(cells <= bound for cells in runs)
        assert lookups == [key_of(whole)]
        assert dynamics._store == before
        assert not slots(dynamics._entry(whole), "program")

    def test_measures_mixture_goes_through_the_trie(self, monkeypatch):
        space = mixed_space(4)
        omega0 = self.unit_measure(space)
        parts = lattice(space.sites).parts
        coeffs = dict(zip(parts, self.rng.random(len(parts))))

        def refuse(a, nu):
            raise AssertionError("mixture called the einsum operator")

        want = einsum_mixture(np.array([list(coeffs.values())]), omega0)
        monkeypatch.setattr("recomb.measures.recombinator", refuse)
        got = mixture(coeffs, omega0).weights.reshape(1, -1)
        assert np.abs(got - want).max() <= 1e-15


def assert_lockstep(rates, omega0, grid, step=None, a0=None):
    """The lockstep run of the coefficient and measure systems equals the
    two integrations run apart, bit for bit."""
    a0 = CoefficientVector.delta_top(rates.ground) if a0 is None else a0
    apart = integrate_coefficients(rates, a0, grid, step=step)
    alone = integrate_measure(rates, omega0, grid, step=step)
    joint = integrate_measure(rates, omega0, grid, step=step, a0=a0)
    assert alone.coefficients is None
    coeffs = joint.coefficients
    assert np.array_equal(coeffs.values, apart.values)
    assert np.array_equal(joint.tensors, alone.tensors)
    assert np.array_equal(coeffs.times, apart.times) and np.array_equal(joint.times, alone.times)
    assert coeffs.step == apart.step and joint.step == alone.step
    assert coeffs.ground == rates.ground and joint.space == omega0.space
    return joint


class TestLockstep:
    @pytest.mark.parametrize("name", ["n3_generic", "n4_bad_degenerate", "n4_single_crossover"])
    def test_shipped_scenarios(self, name):
        scenario = Scenario.from_file(SCENARIOS / f"{name}.json")
        omega0 = scenario.build_measure()
        assert_lockstep(scenario.rates, omega0, scenario.grid.array(), scenario.step)

    def test_all_rated_six_sites_uniform(self):
        # every partition of six sites rated, on alphabets 3, 3, 3, 2, 2, 2:
        # the descent takes several levels on both sides
        space = TypeSpace(ground_set(6), (3, 3, 3, 2, 2, 2))
        rates = random_rates(6, 5, total=3.0)
        prog = _program(rates, None, space)
        assert len(prog.descent) >= 1 and len(prog.levels) >= 3
        omega0 = Measure(space, np.full(space.sizes, 1.0 / space.n_states))
        assert_lockstep(rates, omega0, np.linspace(0.0, 2.0, 9))

    def test_zero_measure(self):
        # the measure part has no mass: it gains nothing, as alone, while the
        # coefficients step on
        space = mixed_space(4)
        rates = random_rates(4, 6)
        joint = assert_lockstep(rates, Measure(space, np.zeros(space.sizes)), np.linspace(0, 1, 5))
        assert not joint.tensors.any() and joint.coefficients.values[-1].min() > 0

    def test_zero_coefficients(self):
        space = mixed_space(3)
        rates = random_rates(3, 7)
        a0 = CoefficientVector(rates.ground, np.zeros(lattice(rates.ground).size))
        nu = Measure(space, np.random.default_rng(8).random(space.sizes))
        assert_lockstep(rates, nu, np.linspace(0, 1, 5), a0=a0)

    def test_top_only_rates_have_no_levels(self):
        space = mixed_space(4)
        rates = rate_system(4, "top-only")
        assert not _program(rates, None, space).levels
        nu = Measure(space, np.random.default_rng(9).random(space.sizes))
        assert_lockstep(rates, nu, np.linspace(0, 1, 5))

    def test_two_block_only_system(self):
        doc = {
            "n": 5,
            "two_block_only": True,
            "alphabet_sizes": [2, 3, 2, 3, 2],
            "rates": {"1|2,3,4,5": 0.3, "1,2|3,4,5": 0.5, "1,3,5|2,4": 0.7, "1,2,3,4|5": 0.2},
            "initial_measure": "uniform",
            "time_grid": {"start": 0, "end": 3.0, "points": 7},
        }
        scenario = Scenario.from_dict(doc)
        assert_lockstep(scenario.rates, scenario.build_measure(), scenario.grid.array())

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_product_measures(self, data):
        n = data.draw(st.integers(1, 4), "n")
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), "sizes")
        space = TypeSpace(ground_set(n), tuple(sizes))
        seed = data.draw(st.integers(0, 2**16), "seed")
        rates = rate_system(n, data.draw(st.sampled_from(RATE_KINDS), "kind"), seed)
        weight = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
        site_weights = [
            data.draw(st.lists(weight, min_size=k, max_size=k), f"site {x}")
            for x, k in zip(space.sites, sizes)
        ]
        nu = product_measure(space, site_weights)
        assert_lockstep(rates, nu, np.linspace(0.0, 1.5, 4))

    def test_stacked_rhs_is_each_program_rhs(self):
        # one evaluation of the stacked program gives each part's own
        # right-hand side, also where one part has no mass
        space = mixed_space(5)
        rates = random_rates(5, 10)
        prog = _program(rates, None, space)
        a, w = _program(rates), _program(rates, space)
        rng = np.random.default_rng(11)
        x, y = rng.random(lattice(rates.ground).size), rng.random(space.n_states)
        for u, v in ((x, y), (x, 0.0 * y), (0.0 * x, y)):
            got = prog.rhs(np.concatenate((u, v)))
            want = np.concatenate((a.rhs(u), w.rhs(v)))
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert prog.n_cells == a.n_cells + w.n_cells
        cells = sum(c.size for level in prog.levels for c in level.cells)
        assert cells == sum(c.size for p in (a, w) for level in p.levels for c in level.cells)
        assert sorted(prog.blocks) == sorted(a.blocks + w.blocks)

    @pytest.mark.parametrize(
        "n, alphabet, rated, seed, depths",
        [(4, 6, 8, 0, (1, 3)), (7, 2, 60, 2, (3, 2))],
        ids=["measure-deeper", "coefficients-deeper"],
    )
    def test_parts_of_different_depths(self, n, alphabet, rated, seed, depths):
        # the two parts' block marginals descend through different numbers
        # of levels, so the shallower part's depths run out first
        g = ground_set(n)
        rng = np.random.default_rng(seed)
        indices = rng.choice(np.arange(1, lattice(g).size), rated, replace=False)
        rates = RateSystem.from_indices(g, indices, rng.uniform(0.1, 1.0, rated))
        space = TypeSpace.regular(n, alphabet)
        tables = dynamics._tables(rates)
        assert tuple(len(dynamics._plan(tables, sp)[0]) for sp in (None, space)) == depths
        prog, a, w = _program(rates, None, space), _program(rates), _program(rates, space)
        assert len(prog.descent) == max(depths) - 1
        assert prog.n_cells == a.n_cells + w.n_cells
        assert sorted(prog.blocks) == sorted(a.blocks + w.blocks)
        x, y = rng.random(lattice(g).size), rng.random(space.n_states)
        for u, v in ((x, y), (x, 0.0 * y), (0.0 * x, y)):
            want = np.concatenate((a.rhs(u), w.rhs(v)))
            assert_same_bits(prog.rhs(np.concatenate((u, v))), want)
        omega0 = Measure(space, y.reshape(space.sizes) / y.sum())
        a0 = CoefficientVector(g, x / x.sum())
        assert_lockstep(rates, omega0, np.linspace(0.0, 0.5, 3), a0=a0)

    @pytest.mark.parametrize("bound", ["MAX_STATES", "MAX_RK4_WORK"])
    def test_refusals_name_their_program_before_compiling(self, bound, monkeypatch):
        # a bound below the coefficient program refuses it, one between the
        # two refuses the measure program; neither is compiled
        compiles = count_compiles(monkeypatch)
        space = mixed_space(4)
        rates = random_rates(4, 12)
        grid = np.linspace(0.0, 1.0, 3)
        a, w = program_cells(rates), program_cells(rates, space)
        assert a < w
        work = 4 * rk4_plan(rates, grid)[2].sum() if bound == "MAX_RK4_WORK" else 1
        nu = Measure(space, np.ones(space.sizes))
        a0 = CoefficientVector.delta_top(rates.ground)
        for limit, kind in ((a - 1, "coefficient"), (w - 1, "measure")):
            monkeypatch.setattr(dynamics, bound, int(limit * work))
            with pytest.raises(ValueError, match=f"^{kind} (program|integration) of"):
                integrate_measure(rates, nu, grid, a0=a0)
            assert not compiles and not slots(dynamics._entry(rates), "program")


def named_scenario(name):
    """A shipped scenario, or a generated benchmark one named workload-seed."""
    if name.startswith("dense-n6-"):
        return Scenario.from_dict(benchmark_scenario("dense-n6", int(name.rsplit("-", 1)[1])))
    return Scenario.from_file(SCENARIOS / f"{name}.json")


def assert_same_bits(got, want):
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def assert_rhs_oracles(prog, vec):
    got = prog.rhs(vec)
    assert_same_bits(got, oracles.trie_rhs(prog, vec))
    assert_same_bits(got, oracles.rhs_oracle(prog, vec))


class TestTrieRhs:
    """``_TrieProgram.rhs`` against the per-part loop it replaced
    (``oracles.trie_rhs``) and against the masked body it replaced
    (``oracles.rhs_oracle``), bit for bit and sign of zero included: an
    unmasked path serves input where every part has positive mass, the
    masked one all other input."""

    @pytest.mark.parametrize(
        "name",
        ["n3_generic", "n4_bad_degenerate", "n4_single_crossover", "dense-n6-101", "dense-n6-102"],
    )
    def test_stacked_and_single_programs(self, name):
        scenario = named_scenario(name)
        rates, space = scenario.rates, scenario.space
        rng = np.random.default_rng(len(name))
        width = lattice(rates.ground).size
        progs = [_program(rates, None, space), _program(rates), _program(rates, space)]
        for prog in progs:
            for _ in range(3):
                assert_rhs_oracles(prog, rng.random(prog.parts[-1][1]))
        stacked = progs[0]
        a = rng.random(width)
        w = rng.random(space.n_states)
        signed = np.concatenate((a, w))
        signed[::3] = -0.0
        zeros = np.zeros_like(signed)
        for vec in (
            np.concatenate((a, 0.0 * w)),  # a zero measure
            np.concatenate((0.0 * a, w)),  # zero coefficients
            np.concatenate((a, -0.0 * w)),
            np.concatenate((-0.0 * a, w)),
            np.concatenate((a, -w)),  # a part of negative mass
            signed,
            zeros,
            -zeros,
        ):
            assert_rhs_oracles(stacked, vec)

    @pytest.mark.parametrize("name", ["n3_generic", "n4_bad_degenerate", "dense-n6-101"])
    def test_single_part_without_positive_mass(self, name):
        # a zero, a signed zero and a negative mass each take the masked
        # path: -loss * vec, gaining nothing
        scenario = named_scenario(name)
        rng = np.random.default_rng(len(name) + 1)
        for prog in (_program(scenario.rates), _program(scenario.rates, scenario.space)):
            x = rng.random(prog.parts[-1][1])
            signed = x.copy()
            signed[::2] = -0.0
            for vec in (0.0 * x, -0.0 * x, -x, signed - 2 * x.sum() * (x == x.max())):
                assert_rhs_oracles(prog, vec)
                np.testing.assert_array_equal(prog.rhs(vec), -prog.loss * vec)

    def test_top_only_program(self):
        space = mixed_space(4)
        rates = rate_system(4, "top-only")
        prog = _program(rates, None, space)
        assert not prog.levels
        vec = np.random.default_rng(3).random(prog.parts[-1][1])
        vec[::2] = -0.0
        assert_rhs_oracles(prog, vec)




class TestProgramCache:
    """Programs are compiled once per entry of the process store (the
    ground and the lattice indices and rates in the order given) and tuple
    of state spaces, and kept while the store's entries hold at most
    MAX_STATES cells, least recently used dropped first."""

    @staticmethod
    def outputs(rates, space):
        """rhs of both programs and of the stacked one, the lockstep
        integration and the mixture of its coefficients."""
        rng = np.random.default_rng(4)
        a, w = rng.random(lattice(rates.ground).size), rng.random(space.n_states)
        omega0 = Measure(space, w.reshape(space.sizes) / w.sum())
        a0 = CoefficientVector.delta_top(rates.ground)
        joint = integrate_measure(rates, omega0, np.linspace(0.0, 1.0, 4), a0=a0)
        return [
            _program(rates).rhs(a),
            _program(rates, space).rhs(w),
            _program(rates, None, space).rhs(np.concatenate((a, w))),
            joint.tensors,
            joint.coefficients.values,
            mixtures(joint.coefficients.values, omega0),
        ]

    def assert_as_compiled_alone(self, systems, space, shared):
        """Each system's outputs equal, bit for bit, those of a compile with
        the cache emptied."""
        for rates, got in zip(systems, shared):
            dynamics._store.clear()
            for value, want in zip(got, self.outputs(rates, space)):
                assert_same_bits(value, want)

    def test_same_kept_rates_compile_per_entry(self, monkeypatch):
        # a zero rate and a rate on the top are not kept, so both systems
        # keep the same partitions at the same rates; their keys differ, so
        # each has an entry of its own and compiles its own programs, each
        # bitwise a fresh compile
        space = mixed_space(5)
        lat = lattice(space.sites)
        weights = np.random.default_rng(5).uniform(0.1, 1.0, lat.size)
        cut = lat.names.index("1,2,3|4,5")
        given = np.delete(np.arange(lat.size), cut)
        first = RateSystem.from_indices(space.sites, given, weights[given])
        weights[lat.top_index], weights[cut] = 2.0, 0.0
        second = RateSystem.from_indices(space.sites, range(lat.size), weights)
        assert first.total != second.total
        compiles = count_compiles(monkeypatch)
        shared = [self.outputs(rates, space) for rates in (first, second)]
        # the three programs of each rates, from the same kept rates, and
        # the mixture's on their one support
        assert len(compiles) == 7 and len(set(compiles)) == 4
        assert compiles[:3] == compiles[4:]
        assert dynamics._tables(first) is not dynamics._tables(second)
        assert len(kept_tables()) == 3
        self.assert_as_compiled_alone([first, second], space, shared)

    def test_other_rates_on_one_support_compile_their_own(self, monkeypatch):
        space = mixed_space(5)
        lat = lattice(space.sites)
        rng = np.random.default_rng(5)
        systems = [
            RateSystem.from_indices(space.sites, range(lat.size), rng.uniform(0.1, 1.0, lat.size))
            for _ in range(2)
        ]
        compiles = count_compiles(monkeypatch)
        shared = [self.outputs(rates, space) for rates in systems]
        # three programs per rates; both mixtures have every partition in
        # their support and share its program, which holds no rates
        assert len(compiles) == len(set(compiles)) == 7
        assert len(kept_tables()) == 3
        for rates in systems:  # each holds its own rates and loss
            assert_matches_pairs(rates)
            assert_matches_pairs(rates, space)
        assert len(compiles) == 7
        self.assert_as_compiled_alone(systems, space, shared)

    def test_lockstep_route_compiles_no_coefficient_program(self, monkeypatch):
        # the lockstep run and the mixture check of dense-n6 compile the
        # stacked program of the rates and the measure program of the
        # coefficients' support at unit rates, once each, and nothing else
        scenario = named_scenario("dense-n6-101")
        rates, space = scenario.rates, scenario.space
        omega0 = scenario.build_measure()
        compiles = count_compiles(monkeypatch)
        a0 = CoefficientVector.delta_top(rates.ground)
        joint = integrate_measure(rates, omega0, scenario.grid.array(), a0=a0)
        values = joint.coefficients.values
        mixtures(values, omega0)
        assert set(slots(dynamics._entry(rates), "program")) == {(None, space)}
        assert [spaces for _, _, spaces in compiles] == [(None, space), (space,)]
        support = np.flatnonzero(np.any(values != 0.0, axis=0))
        support = support[support != lattice(rates.ground).top_index]
        unit = RateSystem.from_indices(rates.ground, support, [1.0] * support.size)
        assert compiles[1] == tuple(a.tobytes() for a in dynamics._kept(unit)[1:]) + ((space,),)
        assert set(slots(dynamics._entry(unit), "program")) == {(space,)}

    def test_another_order_is_another_entry(self, monkeypatch):
        space = mixed_space(4)
        lat = lattice(space.sites)
        weights = np.linspace(0.2, 1.0, lat.size)
        compiles = count_compiles(monkeypatch)
        forward = RateSystem.from_indices(space.sites, range(lat.size), weights)
        backward = RateSystem.from_indices(space.sites, range(lat.size)[::-1], weights[::-1])
        assert forward.rates == backward.rates
        for rates in (forward, backward):
            _program(rates, space)
        assert len(compiles) == 2 and compiles[0] != compiles[1]
        assert len(kept_tables()) == 2

    @staticmethod
    def two_three_splits(n_systems):
        """Rate systems of one rated partition each, with blocks of 2 and 3
        sites: every system has its own entry, and every entry, once its
        program is compiled, holds the same cells."""
        g = ground_set(5)
        lat = lattice(g)
        splits = [i for i, b in enumerate(lat.blocks(range(lat.size)))
                  if sorted(map(len, b)) == [2, 3]]
        systems = [RateSystem.from_indices(g, [i], [1.0]) for i in splits[:n_systems]]
        # program_cells builds the tables: the entry holds its key and trie
        cells = {program_cells(rates) + dynamics._entry(rates).cells for rates in systems}
        assert len(systems) == n_systems and len(cells) == 1
        return systems, cells.pop()

    def test_oldest_compiled_again_past_the_bound(self, monkeypatch):
        # a budget of three compiled entries: the charge that makes a fourth
        # entry drops the least recently used while the others hold more, so
        # the store keeps the newest three, each looked up and compiled once
        import gc
        import weakref

        systems, cells = self.two_three_splits(8)
        compiles = count_compiles(monkeypatch)
        monkeypatch.setattr(dynamics, "MAX_STATES", 3 * cells)
        lookups = within_budget(monkeypatch)
        oldest = weakref.ref(_program(systems[0]))
        for rates in systems[1:]:
            _program(rates)
        assert len(compiles) == len(lookups) == len(systems)
        assert list(dynamics._store) == kept_tables() == [key_of(r) for r in systems[-3:]]
        gc.collect()
        assert oldest() is None  # released
        _program(systems[-1])  # the newest is kept
        assert len(compiles) == len(systems)
        _program(systems[0])  # the oldest was dropped
        assert len(compiles) == len(systems) + 1

    def test_newest_kept_alone_over_the_budget(self, monkeypatch):
        # a budget below one program: the newest entry stays, alone, until
        # another entry is made
        import gc
        import weakref

        systems, cells = self.two_three_splits(2)
        compiles = count_compiles(monkeypatch)
        monkeypatch.setattr(dynamics, "MAX_STATES", cells - 1)
        within_budget(monkeypatch)
        first = weakref.ref(_program(systems[0]))
        assert _program(systems[0]) is first()
        assert len(compiles) == 1 and len(dynamics._store) == 1
        _program(systems[1])
        gc.collect()
        assert first() is None and len(compiles) == 2
        assert kept_tables() == [key_of(systems[1])]

    @pytest.mark.parametrize("slot", ["closed_form", "jump"])
    def test_a_failed_build_fills_no_slot(self, slot, monkeypatch):
        # a build that raises leaves its entry without the slot and the
        # store's total the sum of its entries' cells; the next call builds
        # once, charges once and keeps what it built
        import recomb.closed_form as cf
        import recomb.process as proc

        rates = random_rates(4, seed=71)
        top = lattice(rates.ground).top_index
        module, name, call, key = {
            "closed_form": (cf, "_build", lambda: cf.build_closed_form(rates), "closed_form"),
            "jump": (proc, "_build_jump_table", lambda: proc._jump_table(rates, top), ("jump", top)),
        }[slot]
        build, builds = getattr(module, name), []

        def fails_once(*args):
            builds.append(args)
            if len(builds) == 1:
                raise RuntimeError("build failed")
            return build(*args)

        monkeypatch.setattr(module, name, fails_once)
        _program(RateSystem.from_indices((1, 2), [1], [1.0]))  # another entry in the store
        with pytest.raises(RuntimeError, match="build failed"):
            call()
        entry = dynamics._store[key_of(rates)]
        assert key not in entry
        assert dynamics._store.held == sum(e.cells for e in dynamics._store.values())
        charge, charges = dynamics._charge, []

        def counted(into, cells):
            charges.append((into, cells))
            charge(into, cells)

        monkeypatch.setattr(dynamics, "_charge", counted)
        value = call()
        assert len(builds) == 2 and entry[key] is value
        cells = value.cells if slot == "closed_form" else value[1].size
        assert charges == [(entry, cells)]
        assert call() is value and len(builds) == 2 and len(charges) == 1
        assert dynamics._store.held == sum(e.cells for e in dynamics._store.values())
