import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb.measures import (
    Measure,
    TypeSpace,
    measure_from_csv,
    mixture,
    product_measure,
    recombinator,
    uniform_measure,
)
from recomb.partitions import Partition, ground_set

from oracles import (
    enumerate_partitions,
    invariant_partition_set,
    measure_to_csv,
    meet,
    project,
    restrict,
    tv_deviation,
)


def random_measure(space, rng, normalize=False):
    w = rng.random(tuple(space.sizes))
    if normalize:
        w /= w.sum()
    return Measure(space, w)


SUBSETS_3 = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


class TestNorm:
    def test_zero_measure(self):
        space = TypeSpace.regular(2, 2)
        assert Measure(space, np.zeros((2, 2))).norm() == 0.0

    def test_uniform_probability(self):
        assert uniform_measure(TypeSpace.regular(2, 2)).norm() == pytest.approx(1.0)

    def test_plain_sum(self):
        space = TypeSpace((1,), (3,))
        assert Measure(space, [0.2, 0.3, 0.5]).norm() == pytest.approx(1.0)


class TestProject:
    def test_identity_on_full_set(self):
        space = TypeSpace.regular(3, 2)
        nu = random_measure(space, np.random.default_rng(0))
        assert np.array_equal(project(nu, (1, 2, 3)).weights, nu.weights)

    def test_row_sums_by_hand(self):
        space = TypeSpace.regular(2, 2)
        nu = Measure(space, [[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_allclose(project(nu, (1,)).weights, [0.3, 0.7])
        np.testing.assert_allclose(project(nu, (2,)).weights, [0.4, 0.6])

    def test_norm_preserved(self, rng):
        space = TypeSpace((1, 2, 3), (2, 3, 2))
        nu = random_measure(space, rng)
        for u in SUBSETS_3:
            assert project(nu, u).norm() == pytest.approx(nu.norm(), abs=1e-12)

    def test_bad_subset(self):
        space = TypeSpace.regular(2, 2)
        nu = uniform_measure(space)
        with pytest.raises(ValueError):
            project(nu, (3,))
        with pytest.raises(ValueError):
            project(nu, ())


class TestRecombinator:
    def test_single_block_is_identity(self, rng):
        space = TypeSpace.regular(3, 2)
        nu = random_measure(space, rng)
        out = recombinator(Partition.whole((1, 2, 3)), nu)
        np.testing.assert_array_equal(out.weights, nu.weights)

    def test_zero_measure_fixed(self):
        space = TypeSpace.regular(2, 2)
        zero = Measure(space, np.zeros((2, 2)))
        for p in enumerate_partitions((1, 2)):
            assert recombinator(p, zero).norm() == 0.0

    def test_outer_product_by_hand(self):
        space = TypeSpace.regular(2, 2)
        nu = Measure(space, [[0.1, 0.2], [0.3, 0.4]])
        out = recombinator(Partition.singletons((1, 2)), nu)
        np.testing.assert_allclose(out.weights, np.outer([0.3, 0.7], [0.4, 0.6]))

    def test_negative_rejected(self):
        space = TypeSpace.regular(2, 2)
        nu = Measure(space, [[0.1, 0.2], [0.3, 0.4]])
        nu.weights[0, 0] = -0.5
        with pytest.raises(ValueError):
            recombinator(Partition.singletons((1, 2)), nu)

    def test_ground_mismatch(self):
        space = TypeSpace.regular(3, 2)
        nu = uniform_measure(space)
        with pytest.raises(ValueError):
            recombinator(Partition.whole((1, 2)), nu)

    def test_norm_preserved(self, rng):
        space = TypeSpace((1, 2, 3), (3, 2, 2))
        nu = random_measure(space, rng)
        for p in enumerate_partitions((1, 2, 3)):
            assert recombinator(p, nu).norm() == pytest.approx(nu.norm(), rel=1e-13)

    @given(st.floats(min_value=0.0, max_value=7.5))
    @settings(max_examples=25, deadline=None)
    def test_positive_homogeneity(self, c):
        space = TypeSpace.regular(3, 2)
        nu = random_measure(space, np.random.default_rng(5))
        p = Partition([[1, 3], [2]])
        lhs = recombinator(p, Measure(space, c * nu.weights)).weights
        rhs = c * recombinator(p, nu).weights
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_composition_law_and_idempotence(self, rng):
        # operator composition collapses to the meet, hence idempotence
        space = TypeSpace.regular(4, 2)
        parts = enumerate_partitions(ground_set(4))
        for _ in range(5):
            nu = random_measure(space, rng)
            cached = {p: recombinator(p, nu) for p in parts}
            for a in parts:
                for b in parts:
                    lhs = recombinator(a, cached[b])
                    rhs = cached[meet(a, b)]
                    assert tv_deviation(lhs, rhs) <= 1e-12 * nu.norm()

    def test_projection_identity(self, rng):
        # marginalizing a block product equals the block product of marginals
        from itertools import combinations

        space = TypeSpace.regular(4, 2)
        g = ground_set(4)
        subsets = [u for k in range(1, 5) for u in combinations(g, k)]
        for _ in range(5):
            nu = random_measure(space, rng)
            for a in enumerate_partitions(g):
                ra = recombinator(a, nu)
                for u in subsets:
                    lhs = project(ra, u)
                    rhs = recombinator(restrict(a, u), project(nu, u))
                    assert tv_deviation(lhs, rhs) <= 1e-12 * nu.norm()


class TestMixture:
    def test_delta_top_returns_input(self, rng):
        space = TypeSpace.regular(2, 2)
        nu = random_measure(space, rng)
        top = Partition.whole((1, 2))
        out = mixture({top: 1.0}, nu)
        np.testing.assert_allclose(out.weights, nu.weights)

    def test_delta_bottom_returns_product(self, rng):
        space = TypeSpace.regular(2, 2)
        nu = random_measure(space, rng)
        bottom = Partition.singletons((1, 2))
        out = mixture({bottom: 1.0}, nu)
        np.testing.assert_allclose(out.weights, recombinator(bottom, nu).weights)

    def test_uniform_coeffs_fix_product_measure(self):
        space = TypeSpace.regular(2, 2)
        nu = product_measure(space, [[0.3, 0.7], [0.4, 0.6]])
        coeffs = {p: 0.5 for p in enumerate_partitions((1, 2))}
        out = mixture(coeffs, nu)
        np.testing.assert_allclose(out.weights, nu.weights, atol=1e-15)

    def test_probability_preserved(self, rng):
        space = TypeSpace.regular(3, 2)
        nu = random_measure(space, rng, normalize=True)
        parts = enumerate_partitions((1, 2, 3))
        w = rng.random(len(parts))
        w /= w.sum()
        out = mixture(dict(zip(parts, w)), nu)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert out.weights.min() >= -1e-15


class TestInvariantPartitions:
    def test_top_always_invariant(self, rng):
        space = TypeSpace.regular(3, 2)
        nu = random_measure(space, rng)
        fixed, _ = invariant_partition_set(nu)
        assert Partition.whole((1, 2, 3)) in fixed

    def test_product_measure_fixed_by_all(self):
        space = TypeSpace.regular(2, 2)
        nu = product_measure(space, [[0.3, 0.7], [0.4, 0.6]])
        fixed, meet_p = invariant_partition_set(nu)
        assert fixed == set(enumerate_partitions((1, 2)))
        assert meet_p == Partition.singletons((1, 2))

    def test_generic_measure_only_top(self, rng):
        space = TypeSpace.regular(3, 2)
        nu = random_measure(space, rng)
        fixed, meet_p = invariant_partition_set(nu)
        assert fixed == {Partition.whole((1, 2, 3))}
        assert meet_p == Partition.whole((1, 2, 3))

    def test_zero_measure_rejected(self):
        space = TypeSpace.regular(2, 2)
        with pytest.raises(ValueError):
            invariant_partition_set(Measure(space, np.zeros((2, 2))))


class TestSpaceAndIO:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            TypeSpace((1, 2), (2,))
        with pytest.raises(ValueError):
            TypeSpace((1, 2), (2, 0))
        with pytest.raises(ValueError):
            TypeSpace((2, 1), (2, 2))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Measure(TypeSpace.regular(2, 2), np.zeros((2, 3)))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            Measure(TypeSpace.regular(2, 2), [[0.5, -0.1], [0.3, 0.3]])

    def test_csv_round_trip(self, tmp_path, rng):
        space = TypeSpace((1, 2, 3), (2, 3, 2))
        nu = random_measure(space, rng)
        path = tmp_path / "measure.csv"
        measure_to_csv(nu, path)
        again = measure_from_csv(path)
        assert again.space == space
        np.testing.assert_array_equal(again.weights, nu.weights)

    def test_csv_requires_all_states(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x1,x2,weight\n0,0,0.5\n1,1,0.5\n")
        with pytest.raises(ValueError):
            measure_from_csv(path)

    @pytest.mark.parametrize(
        "body",
        [
            # four rows for four states, but 0.0 twice and 1.1 missing
            "0,0,0.25\n0,1,0.25\n1,0,0.25\n0,0,0.25\n",
            # -1 would wrap to the last letter
            "0,0,0.25\n0,1,0.25\n1,0,0.25\n1,-1,0.25\n",
            # a row without its weight
            "0,0,0.25\n0,1,0.25\n1,0,0.25\n1,0.25\n",
        ],
        ids=["duplicate-state", "negative-letter", "short-row"],
    )
    def test_csv_lists_each_state_once(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,weight\n" + body)
        with pytest.raises(ValueError):
            measure_from_csv(path)
