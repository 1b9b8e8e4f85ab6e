from itertools import combinations

import numpy as np
import pytest

from recomb.dynamics import (
    CoefficientVector,
    RateSystem,
    _program,
    coefficient_rhs,
    default_step,
    integrate_coefficients,
    integrate_measure,
    measure_rhs,
    meet_gain,
    program_cells,
    refinement_gain,
    rk4_plan,
)
from recomb.measures import (
    MAX_STATES,
    Measure,
    TypeSpace,
    mixture,
    product_measure,
    tv_deviation,
)
from recomb.partitions import (
    Lattice,
    Partition,
    ground_set,
    is_refinement,
    lattice,
    meet,
    restrict,
)

from conftest import random_rates


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

        monkeypatch.setattr(Lattice, "meet_table", property(refuse))
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
                stored = prog.state_cells.size + blocks
                assert program_cells(rates, space) == stored

    def test_plan_refuses_a_program_above_the_bound(self):
        # every partition of six sites rated, on 12**6 types: the state-cell
        # table alone holds 185,131,008 indices, 299,202,336 with the trie
        # (the coefficient bound is tested at n = 10 in a child process, see
        # test_cli)
        rates = random_rates(6, 1)
        space = TypeSpace.regular(6, 12)
        assert program_cells(rates, space) > MAX_STATES
        with pytest.raises(ValueError, match="measure program"):
            rk4_plan(rates, [0.0, 1.0], space=space)
        omega0 = Measure(space, np.ones(space.sizes), validate=False)
        with pytest.raises(ValueError, match="measure program"):
            integrate_measure(rates, omega0, [0.0, 1.0])
        assert space not in rates._programs
