import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from recomb.closed_form import build_closed_form
from recomb.dynamics import RateSystem
from recomb.measures import MAX_STATES
from recomb.partitions import MAX_SITES, Partition, bell_number, ground_set, lattice
from recomb.process import (
    _BLOCK,
    _final_indices,
    _jump_table,
    _row_search,
    _text_order,
    estimate_distribution,
    make_rng,
)

from conftest import random_rates
from oracles import decay_rate, is_refinement, simulate_path, transition_product_check, tv_distance


def splitting_rate_oracle(rates, u):
    """Total rate of events whose partition separates the sites of u, by a
    scan for the block of each rated partition that holds u's first site."""
    total = 0.0
    for p, r in rates.rates.items():
        block = next(b for b in p.blocks if u[0] in b)
        if not set(u) <= set(block):
            total += r
    return total


def catalog_oracle(rates, i):
    """Jumps out of lattice state i, built from Partition objects without a
    cache: the successor indices and the cumulative jump rates.  Each block
    is split by every rated proper partition of it at its marginal rate;
    blocks in order, each block's partitions sorted by text."""
    lat = lattice(rates.ground)
    blocks = lat.parts[i].blocks
    successors: list[int] = []
    weights: list[float] = []
    for k, block in enumerate(blocks):
        if len(block) == 1:
            continue
        rest = blocks[:k] + blocks[k + 1 :]
        sub = lattice(block)
        marg = rates.marginal(block)
        split = [j for j in np.flatnonzero(marg).tolist() if j != sub.top_index]
        for j in sorted(split, key=lambda j: str(sub.parts[j])):
            successors.append(lat.index[Partition(rest + sub.parts[j].blocks)])
            weights.append(float(marg[j]))
    return successors, list(accumulate(weights))


def reachable_oracle(rates, start):
    """Lattice states the chain can visit from index start, by a search over
    the oracle catalogs."""
    seen, stack = {start}, [start]
    while stack:
        for j in catalog_oracle(rates, stack.pop())[0]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def direct_method_oracle(catalogs, start, t_end, rng):
    """The chain at t_end by the direct method, one replicate at a time: an
    exponential waiting time at the exit rate, then a successor with
    probability proportional to its rate.  catalogs[i] is
    ``catalog_oracle(rates, i)`` for every lattice index i."""
    lat = lattice(start.ground)
    i, t = lat.index[start], 0.0
    while True:
        successors, cumulative = catalogs[i]
        if not successors:
            return lat.parts[i]
        total = cumulative[-1]
        t += rng.exponential(1.0 / total)
        if t > t_end:
            return lat.parts[i]
        k = bisect_right(cumulative, rng.random() * total)
        i = successors[min(k, len(successors) - 1)]


def bisection_final_indices(table, i, t_end, n, rng):
    """The jump loop of ``_final_indices`` with waiting times drawn by
    ``rng.exponential`` and each row searched by bisection: a reference
    that the sampler must match draw for draw, consuming the same stream in
    the same order and returning the same indices."""
    indptr, successors, cumulative = table
    ends = np.full(n, i, dtype=np.intp)
    for first in range(0, n, _BLOCK):
        block = ends[first : first + _BLOCK]  # a view: jumps write into ends
        live = np.arange(block.size)
        clock = np.zeros(block.size)
        while live.size:
            lo, hi = indptr[block[live]], indptr[block[live] + 1]
            moving = lo < hi
            live, clock, lo, hi = live[moving], clock[moving], lo[moving], hi[moving]
            total = cumulative[hi - 1]
            with np.errstate(over="ignore"):  # subnormal total: infinite wait
                scale = 1.0 / total
            clock = clock + rng.exponential(scale)
            jumps = clock <= t_end
            live, clock, lo, hi, total = (
                a[jumps] for a in (live, clock, lo, hi, total)
            )
            # bisect_right of each draw in its own slice of the cumulative
            # rates, clipped to the slice's last entry
            u = rng.random(live.size) * total
            last = hi - 1
            for _ in range(int((hi - lo).max(initial=0)).bit_length()):
                mid = (lo + hi) >> 1
                right = cumulative.take(mid, mode="clip") <= u
                searching = lo < hi
                lo = np.where(searching & right, mid + 1, lo)
                hi = np.where(searching & ~right, mid, hi)
            block[live] = successors[np.minimum(lo, last)]
    return ends


def two_site_rates(rho=1.0):
    g = ground_set(2)
    return RateSystem(g, {Partition.singletons(g): rho})


class TestExitRate:
    """The chain's exit rate out of a state is its decay rate."""

    def test_bottom_is_absorbing(self):
        rates = random_rates(4, seed=0)
        g = ground_set(4)
        assert decay_rate(rates, g, Partition.singletons(g)) == 0.0

    def test_top_rate_formula(self):
        rates = random_rates(4, seed=1)
        g = ground_set(4)
        expected = rates.total - rates.rate(Partition.whole(g))
        assert decay_rate(rates, g, Partition.whole(g)) == pytest.approx(expected)

    def test_matches_decay_rate_everywhere(self):
        # independent computation paths: block splitting scan vs marginal sums
        rates = random_rates(4, seed=2)
        g = ground_set(4)
        for c in lattice(g).parts:
            expected = sum(splitting_rate_oracle(rates, block) for block in c.blocks)
            assert decay_rate(rates, g, c) == pytest.approx(expected, abs=1e-12)

    def test_ground_mismatch(self):
        rates = random_rates(3, seed=3)
        with pytest.raises(ValueError):
            decay_rate(rates, ground_set(3), Partition.whole((1, 2)))


class TestChainTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_state_exhaustive(self, n):
        # successors strictly refine, and their rates add up to the exit rate
        rates = random_rates(n, seed=30 + n)
        lat = lattice(ground_set(n))
        for i, c in enumerate(lat.parts):
            successors, cumulative = catalog_oracle(rates, i)
            assert len(successors) == len(cumulative)
            assert all(lat.finer[j, i] and j != i for j in successors)
            exit_total = cumulative[-1] if cumulative else 0.0
            expected = sum(splitting_rate_oracle(rates, block) for block in c.blocks)
            assert exit_total == pytest.approx(expected, abs=1e-12)
        assert catalog_oracle(rates, lat.bottom_index) == ([], [])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("where", ["top", "middle", "bottom"])
    def test_jump_table_matches_catalog_oracle(self, n, where):
        # rows of the reachable, non-absorbing states only, each equal to the
        # oracle's catalog in successor order and in cumulative rates
        rates = random_rates(n, seed=40 + n)
        lat = lattice(ground_set(n))
        start = {
            "top": lat.top_index, "middle": lat.size // 2, "bottom": lat.bottom_index
        }[where]
        indptr, successors, cumulative = _jump_table(rates, start)
        assert indptr.shape == (lat.size + 1,) and indptr[-1] == successors.size
        rows = set(np.flatnonzero(np.diff(indptr)).tolist())
        live = {s for s in reachable_oracle(rates, start) if catalog_oracle(rates, s)[0]}
        assert rows == live
        for s in rows:
            oracle_successors, oracle_cumulative = catalog_oracle(rates, s)
            row = slice(indptr[s], indptr[s + 1])
            assert np.array_equal(successors[row], oracle_successors)
            assert np.array_equal(cumulative[row], oracle_cumulative)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exit_rates_are_closed_form_decay_rates(self, n):
        # the generator's row sums and the closed form's decay table are one
        # exit rate; every state is reachable from the top under random_rates
        rates = random_rates(n, seed=50 + n)
        g = ground_set(n)
        lat = lattice(g)
        indptr, _, cumulative = _jump_table(rates, lat.top_index)
        rows = np.diff(indptr) > 0
        exit_rates = np.zeros(lat.size)
        exit_rates[rows] = cumulative[indptr[1:][rows] - 1]
        np.testing.assert_allclose(
            exit_rates, build_closed_form(rates).decay_table(g), rtol=1e-12, atol=0
        )
        assert indptr[lat.bottom_index] == indptr[lat.bottom_index + 1]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_entries_are_distinct_strict_refinements(self, n):
        # every partition rated: every non-bottom state is reachable from the
        # top and has one non-empty row, and no entry repeats a pair
        rates = random_rates(n, seed=80 + n)
        lat = lattice(ground_set(n))
        indptr, successors, _ = _jump_table(rates, lat.top_index)
        states = np.repeat(np.arange(lat.size), np.diff(indptr))
        assert np.flatnonzero(np.diff(indptr)).tolist() == list(range(lat.size - 1))
        assert (lat.block_counts[successors] > lat.block_counts[states]).all()
        assert len(set(zip(states.tolist(), successors.tolist()))) == successors.size
        assert successors.size <= lat.pair_count - lat.size
        if n == 8:
            assert (successors.size, lat.pair_count - lat.size) == (68_771, 163_754)

    def test_size_bound_at_max_sites(self):
        strict_pairs = lattice(ground_set(MAX_SITES)).pair_count - bell_number(MAX_SITES)
        assert strict_pairs == 16_617_804 < MAX_STATES

    def test_table_covers_only_reachable_states(self):
        # one rated partition at n = 9: the top has one jump and its target is
        # absorbing, so a table over every state would hold many more rows
        g = ground_set(9)
        split = Partition([[1, 2, 3, 4], [5, 6, 7, 8, 9]])
        rates = RateSystem(g, {split: 1.0})
        lat = lattice(g)
        indptr, successors, cumulative = _jump_table(rates, lat.top_index)
        assert np.flatnonzero(np.diff(indptr)).tolist() == [lat.top_index]
        assert successors.tolist() == [lat.index[split]]
        assert cumulative.tolist() == [1.0]
        dist = estimate_distribution(rates, 1.0, 20_000, seed=3)
        assert set(dist.counts) == {Partition.whole(g), split}


class TestRowSearch:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 9, 4139])
    def test_matches_bisect_right(self, length):
        # rows of one length in one CSR array, each followed by a row of tiny
        # entries that a probe past the row would find below every draw
        rng = np.random.default_rng(length)
        kinds = [
            rng.uniform(0.1, 1.0, length),
            np.where(np.arange(length) % 3, 5e-324, 1.0),  # ties: 1 + 5e-324 == 1
            np.full(length, 5e-324),  # subnormal: on rows of up to 5, 0.9 of the total rounds up to it
        ]
        rows = [r for kind in kinds for r in (np.cumsum(kind), np.full(3, 1e-300))]
        starts = np.cumsum([0] + [r.size for r in rows[:-1]])
        lo, last, draws, expected = [], [], [], []
        for row, start in zip(rows[::2], starts[::2]):
            u = np.concatenate((
                [0.0, row[-1] * (1 - 2**-53), row[-1] * 0.9],
                row, np.nextafter(row, -np.inf), np.nextafter(row, np.inf),
            ))
            listed = row.tolist()
            lo += [start] * u.size
            last += [start + row.size - 1] * u.size
            draws.append(u)
            expected += [start + min(bisect_right(listed, x), row.size - 1) for x in u.tolist()]
        got = _row_search(np.concatenate(rows), np.array(lo), np.array(last), np.concatenate(draws))
        assert got.tolist() == expected

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("n_samples", [_BLOCK - 1, _BLOCK + 1])
    def test_counts_equal_bisection_oracle(self, n, n_samples):
        # every partition rated, so every row of the lattice is searched
        rates = random_rates(n, seed=60 + n)
        lat = lattice(ground_set(n))
        table = _jump_table(rates, lat.top_index)
        tally = np.bincount(bisection_final_indices(table, lat.top_index, 2.0, n_samples, make_rng(61)))
        expected = {lat.parts[j]: int(tally[j]) for j in np.flatnonzero(tally)}
        assert estimate_distribution(rates, 2.0, n_samples, seed=61).counts == expected


class TestTextOrder:
    @staticmethod
    def assert_text_order(ground):
        parts = lattice(ground).parts
        by_text = sorted(range(len(parts)), key=lambda i: str(parts[i]))
        assert np.argsort(_text_order(ground)).tolist() == by_text

    @pytest.mark.parametrize("k", range(1, 10))
    def test_one_digit_sites(self, k):
        self.assert_text_order(ground_set(k))

    @pytest.mark.parametrize(
        "ground", [(3, 9, 10, 12), (1, 2, 5, 10, 11, 20), (0, 7, 10, 100, 101), (-3, -1, 0, 4)]
    )
    def test_sites_of_several_characters(self, ground):
        self.assert_text_order(ground)

    def test_jump_table_on_sites_of_two_digits(self):
        # "10" < "12" < "3" < "9": the text order is not the order of the sites
        g = (3, 9, 10, 12)
        assert not np.array_equal(_text_order(g), _text_order(ground_set(4)))
        lat = lattice(g)
        weights = np.random.default_rng(70).uniform(0.1, 1.0, lat.size)
        rates = RateSystem(g, dict(zip(lat.parts, weights)))
        indptr, successors, cumulative = _jump_table(rates, lat.top_index)
        rows = np.flatnonzero(np.diff(indptr)).tolist()
        assert rows == [s for s in range(lat.size) if s != lat.bottom_index]
        for s in rows:
            oracle_successors, oracle_cumulative = catalog_oracle(rates, s)
            row = slice(indptr[s], indptr[s + 1])
            assert np.array_equal(successors[row], oracle_successors)
            assert np.array_equal(cumulative[row], oracle_cumulative)


class TestSimulatePath:
    def test_zero_horizon(self):
        rates = random_rates(3, seed=8)
        assert simulate_path(rates, 0.0, make_rng(0)) == Partition.whole(ground_set(3))

    def test_zero_rates_stay_at_top(self):
        g = ground_set(3)
        rates = RateSystem(g, {})
        assert simulate_path(rates, 50.0, make_rng(1)) == Partition.whole(g)

    def test_long_horizon_absorbs_at_bottom(self):
        # positive rates on every two-block partition force full refinement
        rates = random_rates(3, seed=9)
        rng = make_rng(2)
        hits = sum(
            simulate_path(rates, 400.0, rng) == Partition.singletons(ground_set(3))
            for _ in range(200)
        )
        assert hits == 200

    def test_negative_horizon_rejected(self):
        rates = random_rates(2, seed=11)
        with pytest.raises(ValueError):
            simulate_path(rates, -1.0, make_rng(0))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_direct_method_oracle(self, n):
        # the same draws from the same stream, path for path, through one
        # table; then simulate_path, which builds its own, continues the streams
        rates = random_rates(n, seed=24)
        lat = lattice(ground_set(n))
        top = Partition.whole(lat.ground)
        catalogs = [catalog_oracle(rates, i) for i in range(lat.size)]
        table = _jump_table(rates, lat.top_index)
        a, b = make_rng(25), make_rng(25)
        for _ in range(2000):
            end = _final_indices(table, lat.top_index, 0.7, 1, a)[0]
            assert lat.parts[end] == direct_method_oracle(catalogs, top, 0.7, b)
        for _ in range(5):
            assert simulate_path(rates, 0.7, a) == direct_method_oracle(catalogs, top, 0.7, b)


class TestKeptJumpTables:
    """The jump table of each start is kept with the rates in the process
    store."""

    @staticmethod
    def counted(monkeypatch):
        import recomb.process as proc

        calls = []
        original = proc._build_jump_table

        def counting(rates, start):
            calls.append(start)
            return original(rates, start)

        monkeypatch.setattr(proc, "_build_jump_table", counting)
        return calls

    @pytest.mark.parametrize("n", [3, 6])
    def test_two_seeds_build_one_table(self, n, monkeypatch):
        from recomb import dynamics

        builds = self.counted(monkeypatch)
        top = lattice(ground_set(n)).top_index
        warm = [estimate_distribution(random_rates(n, 70 + n), 0.7, 3000, seed) for seed in (1, 2)]
        assert builds == [top]
        assert not np.array_equal(warm[0].tally, warm[1].tally)
        for seed, dist in zip((1, 2), warm):
            dynamics._store.clear()
            cold = estimate_distribution(random_rates(n, 70 + n), 0.7, 3000, seed)
            assert np.array_equal(cold.tally, dist.tally), seed
        assert builds == [top] * 3

    def test_one_table_per_start(self, monkeypatch):
        builds = self.counted(monkeypatch)
        rates = random_rates(4, seed=75)
        lat = lattice(ground_set(4))
        starts = [lat.top_index, 3, lat.top_index, 3, lat.bottom_index]
        tables = [_jump_table(rates, i) for i in starts]
        assert builds == [lat.top_index, 3, lat.bottom_index]
        assert tables[2] is tables[0] and tables[3] is tables[1]

    def test_kept_arrays_are_read_only(self):
        rates = random_rates(4, seed=76)
        lat = lattice(ground_set(4))
        table = _jump_table(rates, lat.top_index)
        before = [a.copy() for a in table]
        for a in table:
            with pytest.raises(ValueError):
                a[0] = 0
        again = _jump_table(random_rates(4, seed=76), lat.top_index)
        assert all(np.array_equal(a, b) for a, b in zip(again, before))

    def test_entries_count_against_the_budget(self, monkeypatch):
        # within the budget the tables of two rates stay kept; below one
        # table's entries, a table is kept while its rates are the newest
        # and built again after an entry was made for other rates
        from recomb import dynamics

        builds = self.counted(monkeypatch)
        top = lattice(ground_set(4)).top_index
        first, other = random_rates(4, seed=77), random_rates(4, seed=78)
        entries = _jump_table(first, top)[1].size
        _jump_table(other, top)
        _jump_table(first, top)
        assert builds == [top] * 2
        dynamics._store.clear()
        monkeypatch.setattr(dynamics, "MAX_STATES", entries - 1)
        _jump_table(first, top)
        _jump_table(first, top)
        assert builds == [top] * 3 and len(dynamics._store) == 1
        _jump_table(other, top)
        _jump_table(first, top)
        assert builds == [top] * 5


class TestEstimateDistribution:
    def test_frequencies_sum_to_one(self):
        rates = random_rates(3, seed=12)
        dist = estimate_distribution(rates, 0.8, 2000, seed=4)
        assert sum(dist.frequencies().values()) == pytest.approx(1.0)
        assert sum(dist.counts.values()) == dist.n_samples

    def test_single_sample(self):
        rates = random_rates(3, seed=13)
        dist = estimate_distribution(rates, 0.5, 1, seed=5)
        assert sum(dist.counts.values()) == 1

    def test_two_site_exact_chain(self):
        # survival of the top state is a pure exponential
        rho, t, n = 1.0, 1.0, 100_000
        dist = estimate_distribution(two_site_rates(rho), t, n, seed=6)
        p = math.exp(-rho * t)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(dist.frequency(Partition.whole(ground_set(2))) - p) <= 3 * se

    def test_matches_closed_form_in_total_variation(self):
        rates = random_rates(3, seed=14, total=3.0)
        sol = build_closed_form(rates)
        n = 100_000
        dist = estimate_distribution(rates, 1.0, n, seed=7)
        tv = tv_distance(dist.frequencies(), sol.evaluate(ground_set(3), [1.0]).state(0))
        assert tv <= 0.01

    def test_reproducible(self):
        rates = random_rates(3, seed=15)
        a = estimate_distribution(rates, 1.0, 3000, seed=8)
        b = estimate_distribution(rates, 1.0, 3000, seed=8)
        assert a.counts == b.counts

    @pytest.mark.parametrize(
        "n_samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
    )
    def test_block_edges(self, n_samples):
        rates = random_rates(3, seed=24)
        a = estimate_distribution(rates, 0.7, n_samples, seed=25)
        b = estimate_distribution(rates, 0.7, n_samples, seed=25)
        assert sum(a.counts.values()) == n_samples
        assert a.counts == b.counts

    @pytest.mark.parametrize(
        "start, rates, reachable",
        [
            # two live 3-block states after the first round, the bottom after
            # the second
            ([[1, 4], [2, 3]], random_rates(4, seed=26), 4),
            # the second round holds the absorbing bottom beside the live
            # state [[1], [2, 3, 4]]
            (
                [[1, 2, 3, 4]],
                RateSystem(
                    ground_set(4),
                    {Partition([[1], [2], [3], [4]]): 1.0, Partition([[1], [2, 3, 4]]): 1.0},
                ),
                3,
            ),
        ],
        ids=["two-blocks", "absorbing-beside-live"],
    )
    def test_mixed_rounds_refine_the_start(self, start, rates, reachable):
        c = Partition(start)
        dist = estimate_distribution(rates, 0.8, 3 * _BLOCK, seed=27, start=c)
        assert sum(dist.counts.values()) == 3 * _BLOCK
        assert all(is_refinement(d, c) for d in dist.counts)
        assert len(dist.counts) == reachable

    def test_metadata(self):
        rates = random_rates(2, seed=16)
        dist = estimate_distribution(rates, 0.3, 10, seed=9)
        assert dist.generator == "philox"
        assert dist.seed == 9
        assert dist.t == 0.3


class TestKolmogorovBackwardConsistency:
    def test_short_time_derivative_matches_rates(self):
        # finite difference of the distribution at small t approximates the
        # jump rates out of the top state
        rates = random_rates(3, seed=17, total=3.0)
        g = ground_set(3)
        lat = lattice(g)
        t = 0.02 / rates.total
        n = 200_000
        dist = estimate_distribution(rates, t, n, seed=10)
        for p in lat.parts:
            freq = dist.frequency(p)
            if p == Partition.whole(g):
                derivative = (freq - 1.0) / t
                expected = rates.rate(p) - rates.total
            else:
                derivative = freq / t
                expected = rates.rate(p)
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / n) / t
            slack = 3 * se + 2.0 * t * rates.total**2
            assert abs(derivative - expected) <= slack


class TestBlockIndependence:
    def test_survival_probability(self):
        # staying put has probability exp(-decay_rate * t)
        rates = random_rates(3, seed=18, total=3.0)
        c = Partition([[1, 2], [3]])
        report = transition_product_check(rates, c, c, 0.7, 50_000, seed=11)
        expected = math.exp(-decay_rate(rates, ground_set(3), c) * 0.7)
        assert report.predicted == pytest.approx(expected, abs=1e-12)
        assert abs(report.z_score) <= 3.0

    def test_blockwise_product(self):
        rates = random_rates(3, seed=19, total=3.0)
        c = Partition([[1, 2], [3]])
        d = Partition.singletons(ground_set(3))
        report = transition_product_check(rates, c, d, 1.0, 50_000, seed=12)
        assert abs(report.z_score) <= 3.0

    def test_four_site_product(self):
        rates = random_rates(4, seed=20, total=3.0)
        c = Partition([[1, 4], [2, 3]])
        d = Partition([[1], [4], [2, 3]])
        report = transition_product_check(rates, c, d, 0.6, 50_000, seed=13)
        assert abs(report.z_score) <= 3.0

    def test_non_refinement_rejected(self):
        rates = random_rates(3, seed=21)
        c = Partition([[1, 2], [3]])
        d = Partition([[1], [2, 3]])
        with pytest.raises(ValueError):
            transition_product_check(rates, c, d, 1.0, 10, seed=0)


class TestTvDistance:
    def test_identical_distributions(self):
        rates = random_rates(3, seed=22)
        sol = build_closed_form(rates)
        v = sol.evaluate(ground_set(3), [1.0]).state(0)
        assert tv_distance(v.as_dict(), v) == pytest.approx(0.0)

    def test_disjoint_distributions(self):
        g = ground_set(2)
        a = {Partition.whole(g): 1.0}
        b = {Partition.singletons(g): 1.0}
        assert tv_distance(a, b) == pytest.approx(1.0)
