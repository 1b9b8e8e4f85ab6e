import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb.partitions import Partition, bell_number, count_two_block, ground_set, lattice, parse_partition

from conftest import partition_of
from oracles import (
    bell_oracle,
    enumerate_partitions,
    finer_oracle,
    incidence_solve,
    is_refinement,
    join_disjoint,
    meet,
    meet_of_set,
    meet_table,
    mobius,
    restrict,
)


class TestEnumeration:
    def test_single_site(self):
        assert enumerate_partitions((1,)) == [Partition([[1]])]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_recursion_oracle(self, n):
        assert len(enumerate_partitions(ground_set(n))) == bell_oracle(n)

    def test_bell_numbers(self):
        assert [bell_number(k) for k in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]

    def test_deterministic_order(self):
        first = enumerate_partitions(ground_set(4))
        second = enumerate_partitions(ground_set(4))
        assert first == second
        # restricted-growth order starts at the single block, ends at singletons
        assert first[0] == Partition.whole(ground_set(4))
        assert first[-1] == Partition.singletons(ground_set(4))

    def test_all_distinct_and_canonical(self):
        parts = enumerate_partitions(ground_set(5))
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert p == Partition(p.blocks)

    def test_sublattice_keeps_labels(self):
        parts = enumerate_partitions((2, 5, 7))
        assert len(parts) == 5
        assert all(p.ground == (2, 5, 7) for p in parts)

    def test_empty_ground_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(())


class TestTwoBlockCount:
    def test_singleton(self):
        assert count_two_block(1) == 0

    @pytest.mark.parametrize("n,expected", [(4, 7), (6, 31)])
    def test_formula_values(self, n, expected):
        assert count_two_block(n) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_enumeration(self, n):
        parts = enumerate_partitions(ground_set(n))
        assert count_two_block(n) == sum(1 for p in parts if p.block_count == 2)


class TestRefinementOrder:
    def test_top_is_maximal(self):
        g = ground_set(4)
        top = Partition.whole(g)
        assert all(is_refinement(p, top) for p in enumerate_partitions(g))

    def test_bottom_refines_everything(self):
        assert is_refinement(
            Partition([[1], [2], [3]]), Partition([[1, 2], [3]])
        )

    def test_incomparable(self):
        assert not is_refinement(Partition([[1, 2], [3]]), Partition([[1], [2, 3]]))

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            is_refinement(Partition([[1, 2]]), Partition([[1], [2], [3]]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partial_order_axioms_exhaustive(self, n):
        # the order of the pairs, equal to the label comparison's
        lat = lattice(ground_set(n))
        f = lat.finer
        assert np.array_equal(f, finer_oracle(lat))
        assert f.diagonal().all()  # reflexive
        antisym = f & f.T
        assert np.array_equal(antisym, np.eye(lat.size, dtype=bool))  # antisymmetric
        # transitive: finer composed with finer stays inside finer
        reach = (f.astype(int) @ f.astype(int)) > 0
        assert not np.any(reach & ~f)


class TestLatticeTables:
    """The array tables against the object-level oracles, exhaustively."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_finer_matches_is_refinement(self, n):
        lat = lattice(ground_set(n))
        expected = [[is_refinement(a, b) for b in lat.parts] for a in lat.parts]
        assert np.array_equal(lat.finer, expected)
        assert np.array_equal(finer_oracle(lat), expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_meet_table_matches_meet(self, n):
        lat = lattice(ground_set(n))
        expected = [[lat.index[meet(a, b)] for b in lat.parts] for a in lat.parts]
        assert np.array_equal(meet_table(lat), expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_restriction_index_matches_restrict(self, n):
        g = ground_set(n)
        lat = lattice(g)
        for size in range(1, n + 1):
            for u in combinations(g, size):
                sub = lattice(u)
                expected = [sub.index[restrict(p, u)] for p in lat.parts]
                assert np.array_equal(lat.restriction_index(u), expected), u

    def test_restriction_index_rejects_foreign_sites(self):
        with pytest.raises(ValueError):
            lattice(ground_set(3)).restriction_index((2, 4))


class TestSharedCore:
    """Every lattice of a k-set shares one core with the lattice of {1..k}."""

    @pytest.mark.parametrize("size", range(1, 7))
    def test_subset_lattices_share_the_size_core(self, size):
        core = lattice(ground_set(size))
        for u in combinations(ground_set(6), size):
            lat = lattice(u)
            assert lat.labels is core.labels and lat.finer is core.finer
            assert lat.top_index == 0 and lat.bottom_index == lat.size - 1
            assert lat.parts[0] == Partition.whole(u)
            assert lat.parts[-1] == Partition.singletons(u)
            for k in range(1, size + 1):
                for v in combinations(u, k):
                    sub = lattice(v)
                    expected = [sub.index[restrict(p, v)] for p in lat.parts]
                    assert np.array_equal(lat.restriction_index(v), expected), (u, v)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_down_and_up_sets_match_finer(self, n):
        lat = lattice(ground_set(n))
        finer = finer_oracle(lat)
        (dptr, down), (uptr, up) = lat.down_sets, lat.up_sets
        for i in range(lat.size):
            below = down[dptr[i] : dptr[i + 1]]
            above = up[uptr[i] : uptr[i + 1]]
            assert below.tolist() == np.flatnonzero(finer[:, i]).tolist()
            assert above.tolist() == np.flatnonzero(finer[i]).tolist()
            assert below[0] == i and above[-1] == i

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pairs_are_the_nonzeros_of_finer(self, n):
        # the pairs come from the labels alone; the dense order, built by
        # its own label comparison, is the oracle
        lat = lattice(ground_set(n))
        rows, cols = np.nonzero(finer_oracle(lat))
        ptr, ups = lat.up_sets
        assert np.array_equal(lat.pair_rows, rows) and np.array_equal(ups, cols)
        assert np.array_equal(ptr, np.searchsorted(rows, np.arange(lat.size + 1)))
        assert lat.pair_count == ups.size
        dptr, below, at = lat.down_pairs
        assert np.array_equal(ups[at], np.repeat(np.arange(lat.size), np.diff(dptr)))
        assert np.array_equal(rows[at], below)

    def test_restriction_above_the_table_size(self):
        # n = 10 keeps each restriction alone instead of in one table
        g = ground_set(10)
        lat = lattice(g)
        rows = np.random.default_rng(9).choice(lat.size, 300, replace=False)
        for u in [(2,), (1, 4, 10), (1, 2, 3, 5, 6, 7, 8, 9, 10), g]:
            sub = lattice(u)
            expected = [sub.index[restrict(lat.parts[i], u)] for i in rows]
            assert np.array_equal(lat.restriction_index(u)[rows], expected), u

    @pytest.mark.parametrize("n", [5, 10])
    def test_restrictions_of_mixed_masks(self, n):
        # one mask per entry, through the table up to nine sites and by
        # lookups above; mask 0 reads 0
        g = ground_set(n)
        lat = lattice(g)
        rng = np.random.default_rng(n)
        rows = rng.integers(0, lat.size, 200)
        masks = rng.integers(0, 1 << n, 200)
        got = lat.restrictions(masks, rows)
        for m, i, index in zip(masks.tolist(), rows.tolist(), got.tolist()):
            u = tuple(x for s, x in enumerate(g) if m >> s & 1)
            assert index == (lattice(u).index[restrict(lat.parts[i], u)] if u else 0), (m, i)


class TestMeet:
    def test_identity_with_top(self):
        g = ground_set(4)
        for p in enumerate_partitions(g):
            assert meet(p, Partition.whole(g)) == p

    def test_idempotent(self):
        p = Partition([[1, 3], [2], [4]])
        assert meet(p, p) == p

    def test_hand_example(self):
        a = Partition([[1, 2], [3, 4]])
        b = Partition([[1], [2, 3, 4]])
        assert meet(a, b) == Partition([[1], [2], [3, 4]])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_greatest_lower_bound_exhaustive(self, n):
        parts = enumerate_partitions(ground_set(n))
        for a in parts:
            for b in parts:
                m = meet(a, b)
                assert is_refinement(m, a) and is_refinement(m, b)
                for c in parts:
                    if is_refinement(c, a) and is_refinement(c, b):
                        assert is_refinement(c, m)

    def test_meet_of_empty_set_is_top(self):
        g = ground_set(3)
        assert meet_of_set([], g) == Partition.whole(g)

    def test_meet_of_singleton(self):
        p = Partition([[1, 2], [3]])
        assert meet_of_set([p], ground_set(3)) == p

    def test_meet_of_all_two_block_is_bottom(self):
        g = ground_set(3)
        two_block = [p for p in enumerate_partitions(g) if p.block_count == 2]
        assert len(two_block) == 3
        assert meet_of_set(two_block, g) == Partition.singletons(g)


class TestRestrict:
    def test_full_subset_is_identity(self):
        p = Partition([[1, 3], [2, 4]])
        assert restrict(p, (1, 2, 3, 4)) == p

    def test_hand_example(self):
        assert restrict(Partition([[1, 3], [2, 4]]), (1, 2)) == Partition([[1], [2]])

    def test_top_restricts_to_top(self):
        g = ground_set(5)
        for u in [(1,), (2, 4), (1, 3, 5)]:
            assert restrict(Partition.whole(g), u) == Partition.whole(u)

    def test_bad_subset(self):
        with pytest.raises(ValueError):
            restrict(Partition([[1, 2]]), (1, 3))
        with pytest.raises(ValueError):
            restrict(Partition([[1, 2]]), ())

    @pytest.mark.parametrize("n", range(2, 5))
    def test_monotone_exhaustive(self, n):
        from itertools import combinations

        g = ground_set(n)
        parts = enumerate_partitions(g)
        subsets = [
            u for size in range(1, n + 1) for u in combinations(g, size)
        ]
        for a in parts:
            for b in parts:
                if not is_refinement(a, b):
                    continue
                for u in subsets:
                    assert is_refinement(restrict(a, u), restrict(b, u))


class TestJoinDisjoint:
    def test_single(self):
        p = Partition([[1, 2], [3]])
        assert join_disjoint([p]) == p

    def test_concatenation(self):
        a = Partition([[1, 2]])
        b = Partition([[3], [4]])
        assert join_disjoint([a, b]) == Partition([[1, 2], [3], [4]])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            join_disjoint([Partition([[1, 2]]), Partition([[2, 3]])])

    @given(partition_of(3), partition_of(2))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_with_restrict(self, a, b):
        shifted = Partition([[x + 10 for x in block] for block in b.blocks])
        joined = join_disjoint([a, shifted])
        assert restrict(joined, a.ground) == a
        assert restrict(joined, shifted.ground) == shifted


class TestMobius:
    def test_diagonal_is_one(self):
        for p in enumerate_partitions(ground_set(4)):
            assert mobius(p, p) == 1

    def test_zero_off_order(self):
        a = Partition([[1, 2], [3]])
        b = Partition([[1], [2, 3]])
        assert mobius(a, b) == 0

    def test_bottom_top_n3_against_matrix_inverse(self):
        lat = lattice(ground_set(3))
        inv = np.linalg.inv(lat.finer.astype(float))
        assert np.allclose(lat.mobius_matrix, np.round(inv))
        assert mobius(Partition.singletons((1, 2, 3)), Partition.whole((1, 2, 3))) == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bottom_top_product_formula(self, n):
        # independent oracle: alternating factorial for the full interval
        g = ground_set(n)
        expected = (-1) ** (n - 1) * math.factorial(n - 1)
        assert mobius(Partition.singletons(g), Partition.whole(g)) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inversion_identities_exhaustive(self, n):
        lat = lattice(ground_set(n))
        zeta = lat.finer.astype(float)
        mob = lat.mobius_matrix.astype(float)
        eye = np.eye(lat.size)
        assert np.array_equal(zeta @ mob, eye)
        assert np.array_equal(mob @ zeta, eye)


class TestIncidenceAlgebra:
    def test_zeta_squared_counts_intervals(self):
        lat = lattice(ground_set(4))
        zeta = lat.finer.astype(np.int64)
        zz = zeta @ zeta
        for i, a in enumerate(lat.parts):
            for j, b in enumerate(lat.parts):
                interval = sum(
                    1
                    for c in lat.parts
                    if is_refinement(a, c) and is_refinement(c, b)
                )
                assert zz[i, j] == interval

    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_solve_matches_dense_solver(self, n, columns):
        # a random element: arbitrary values on the order, zero off it
        rng = np.random.default_rng(100 + n)
        lat = lattice(ground_set(n))
        theta = lat.finer * rng.uniform(0.5, 1.5, (lat.size, lat.size))
        rhs = rng.uniform(-1.0, 1.0, (lat.size,) if columns is None else (lat.size, columns))
        x = incidence_solve(lat, theta, rhs)
        reference = np.linalg.solve(theta, rhs)
        assert x.shape == rhs.shape
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()
        # the pair solver inverts zeta as the dense one does
        x = lat.zeta_solve(rhs)
        reference = incidence_solve(lat, finer_oracle(lat).astype(float), rhs)
        assert x.shape == rhs.shape and x.dtype == float
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zeta_solve_keeps_integers(self, n):
        lat = lattice(ground_set(n))
        rhs = np.arange(lat.size, dtype=np.int64) - lat.size // 2
        x = lat.zeta_solve(rhs)
        assert x.dtype == np.int64
        assert np.array_equal(x, incidence_solve(lat, finer_oracle(lat), rhs))
        assert np.array_equal(x, lat.mobius_matrix @ rhs)
        assert lat.mobius_matrix.dtype == np.int64


class TestTextFormat:
    def test_parse_basic(self):
        g = ground_set(4)
        p = parse_partition("1,2|3,4", g)
        assert p == Partition([[1, 2], [3, 4]])

    def test_whitespace_ignored(self):
        g = ground_set(4)
        assert parse_partition(" 1 , 2 | 3 , 4 ", g) == parse_partition("1,2|3,4", g)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            parse_partition("1,2|2,3", ground_set(3))

    def test_rejects_gaps(self):
        with pytest.raises(ValueError):
            parse_partition("1|2", ground_set(3))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_partition("1,a|3", ground_set(3))
        with pytest.raises(ValueError):
            parse_partition("", ground_set(2))
        with pytest.raises(ValueError):
            parse_partition("1||2", ground_set(2))

    @given(st.integers(min_value=1, max_value=5).flatmap(partition_of))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_idempotent(self, p):
        text = str(p)
        again = parse_partition(text, p.ground)
        assert again == p
        assert str(again) == text


class TestPartitionBasics:
    def test_canonical_form_unique(self):
        assert Partition([[3, 1], [2]]) == Partition([[2], [1, 3]])
        assert hash(Partition([[3, 1], [2]])) == hash(Partition([[2], [1, 3]]))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition([[1, 2], [2, 3]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Partition([])
        with pytest.raises(ValueError):
            Partition([[1], []])
