"""Partition texts spelled from the labels, partitions found by code, and
the degeneracy report kept by lattice index, against object-built oracles.

The oracles build one ``Partition`` per lattice entry, as the routes did
before they worked on codes: ``str`` of each part for the texts, the
``Lattice.index`` dictionary for lookups, and a copy of the earlier
equal-decay scan that held each class's members as objects.
"""

import json
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from recomb.closed_form import DEGENERACY_TOL, DegeneracyPair, _apply, _decay_tables, detect_degeneracy
from recomb.dynamics import RateSystem
from recomb.partitions import (
    Partition,
    _FEW_RESTRICTIONS,
    _lookup,
    bell_number,
    ground_set,
    lattice,
    parse_partition,
)
from recomb.scenario import Scenario

from conftest import benchmark_scenario, random_rates

ROOT = Path(__file__).resolve().parent.parent


def subsets(ground, sizes):
    return [u for k in sizes for u in combinations(ground, k)]


class TestNames:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_subset_of_small_grounds(self, n):
        for u in subsets(ground_set(n), range(1, n + 1)):
            lat = lattice(u)
            assert list(lat.names) == [str(p) for p in lat.parts]

    def test_subsets_holding_the_two_digit_site(self):
        # "10" takes two characters: every text of a subset that holds it
        # is longer than the positions' template
        us = [u for u in subsets(ground_set(10), range(1, 7)) if 10 in u]
        assert len(us) == sum(len(list(combinations(range(9), k))) for k in range(6))
        for u in us:
            lat = lattice(u)
            assert list(lat.names) == [str(p) for p in lat.parts]

    @pytest.mark.parametrize("ground", [(-3, 0, 7), (5, 17, 200, 1000), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)])
    def test_names_of_any_width(self, ground):
        lat = lattice(ground)
        assert list(lat.names) == [str(p) for p in lat.parts]


class TestLookupByCode:
    @pytest.mark.parametrize("ground", [ground_set(1), ground_set(5), (2, 3, 7, 10)])
    def test_label_rows_find_each_partition(self, ground):
        lat = lattice(ground)
        # each text written with its blocks reversed, so the labels need relabelling
        texts = ["|".join(reversed(name.split("|"))) for name in lat.names]
        rows, counts = zip(*(lat.label_row(t) for t in texts))
        assert lat.lookup(list(rows)).tolist() == [lat.index[parse_partition(t, ground)] for t in texts]
        assert list(counts) == [p.block_count for p in lat.parts]

    def test_locate_finds_partition_objects(self):
        lat = lattice(ground_set(6))
        order = np.random.default_rng(5).permutation(lat.size)
        assert lat.locate([lat.parts[i] for i in order]).tolist() == order.tolist()
        assert lat.locate([]).size == 0

    @pytest.mark.parametrize(
        "text", ["1,1|2,3", "1|2", "1|2,3,4", "0|1,2,3", "1||2,3", "1,a|2,3", "   ", "3,3|1,1|2"]
    )
    def test_label_row_refuses_like_parse_partition(self, text):
        with pytest.raises(ValueError) as expected:
            parse_partition(text, ground_set(3))
        with pytest.raises(ValueError) as got:
            lattice(ground_set(3)).label_row(text)
        assert str(got.value) == str(expected.value)

    def test_rates_by_index_match_rates_by_partition(self):
        by_partition = random_rates(5, seed=3)
        lat = lattice(by_partition.ground)
        by_index = RateSystem.from_indices(
            by_partition.ground, by_partition.indices.tolist(), by_partition.weights.tolist()
        )
        assert by_index.rates == by_partition.rates
        assert list(by_index.rates) == list(by_partition.rates)
        assert by_index.total == by_partition.total
        for u in subsets(lat.ground, range(1, 6)):
            assert np.array_equal(by_index.marginal(u), by_partition.marginal(u))

    def test_scenario_keeps_the_first_place_and_last_rate_of_a_repeated_key(self):
        doc = {"n": 3, "rates": {"1|2,3": 0.5, "1,2|3": 0.25, "2,3|1": 0.75}}
        rates = Scenario.from_dict(doc).rates
        g = ground_set(3)
        assert rates.rates == {parse_partition("1|2,3", g): 0.75, parse_partition("1,2|3", g): 0.25}
        assert list(rates.rates) == [parse_partition("1|2,3", g), parse_partition("1,2|3", g)]

    def test_refused_rate_is_named_by_its_text(self):
        g = (1, 2, 10)
        i = lattice(g).names.index("1,10|2")
        with pytest.raises(ValueError, match=r"rate for 1,10\|2 must be finite and nonnegative"):
            RateSystem.from_indices(g, [0, i], [1.0, -1.0])


@lru_cache(maxsize=None)
def eager_restriction_table(n):
    """The whole restriction table of n sites, row by row from the full set
    down, as it was built before its rows were filled on demand."""
    lat = lattice(ground_set(n))
    full = (1 << n) - 1
    table = np.zeros((1 << n, lat.size), dtype=np.int32)
    table[full] = np.arange(lat.size)
    for m in range(full - 1, 0, -1):
        s = (~m & (m + 1)).bit_length() - 1
        up = m | 1 << s
        if up == full:
            table[m] = _lookup(np.delete(lat.labels, s, axis=1))
        else:
            k, i = up.bit_count(), (up & ((1 << s) - 1)).bit_count()
            drop = eager_restriction_table(k)[((1 << k) - 1) ^ 1 << i]
            table[m] = drop[table[up]]
    return table


class TestRestrictionRows:
    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_rows_on_demand_equal_the_eager_table(self, n):
        lat = lattice(ground_set(n))
        assert np.array_equal(lat.restriction_table, eager_restriction_table(n))

    def test_few_entries_are_looked_up_without_filling_a_row(self):
        lat = lattice(ground_set(8))
        rows = np.arange(0, lat.size, 97)
        assert rows.size * _FEW_RESTRICTIONS < lat.size
        full = eager_restriction_table(8)
        for mask in (0, 1, 0b10110, 0b11111110):
            assert np.array_equal(lat.restrictions(mask, rows), full[mask, rows])
        many = np.arange(lat.size)
        assert np.array_equal(lat.restrictions(0b1011, many), full[0b1011])


def scan_oracle(rates, decay, tol_abs):
    """The equal-decay scan with members held as objects: for each class
    (subset, members, decay, bad members)."""
    classes = []
    for u, psi in decay.items():
        order = np.argsort(psi, kind="stable")
        cuts = np.flatnonzero(np.diff(psi[order]) > tol_abs) + 1
        if cuts.size == psi.size - 1:
            continue
        lat = lattice(u)
        top = lat.top_index
        bounds = np.concatenate(([0], cuts, [psi.size]))
        near = np.flatnonzero(np.abs(psi[top] - psi) <= tol_abs)
        rvec = rates.marginal(u)
        bad = set(near[_apply(lat, 1.0, rvec)[near] - rvec[top] > 0.0].tolist())
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi - lo < 2:
                continue
            run = np.sort(order[lo:hi])
            parts = [lat.parts[i] for i in run]
            bad_parts = tuple(p for i, p in zip(run, parts) if i in bad)
            classes.append((u, tuple(parts), tuple(psi[run].tolist()), bad_parts))
    return classes


def pairs_oracle(classes, tolerance):
    out = []
    for subset, members, decay, bad in classes:
        top = Partition.whole(subset)
        d = np.array(decay)
        close = np.abs(d[:, None] - d[None, :]) <= tolerance
        for i, j in zip(*np.nonzero(np.triu(close, 1))):
            a, b = members[i], members[j]
            kind = "bad" if top in (a, b) and (a in bad or b in bad) else "harmless"
            out.append(DegeneracyPair(subset, a, b, decay[i], decay[j], kind))
    return out


@pytest.mark.parametrize(
    "doc",
    [
        benchmark_scenario("sparse-n7-cold", 101),
        json.loads((ROOT / "scripts" / "scenarios" / "n4_bad_degenerate.json").read_text()),
    ],
    ids=["sparse-n7-cold-101", "n4_bad_degenerate"],
)
def test_degeneracy_report_matches_the_object_scan(doc):
    rates = Scenario.from_dict(doc).rates
    report = detect_degeneracy(rates)
    oracle = scan_oracle(rates, _decay_tables(rates), report.tolerance)
    assert report.tolerance == DEGENERACY_TOL * max(rates.total, 1.0)
    assert len(report.classes) == len(oracle) > 0
    for c, (subset, members, decay, bad) in zip(report.classes, oracle):
        assert (c.subset, c.members, c.decay, c.bad) == (subset, members, decay, bad)
        names = lattice(subset).names
        assert [names[i] for i in c.indices] == [str(p) for p in members]
    assert report.pairs == pairs_oracle(oracle, report.tolerance)
    assert report.has_bad == any(bad for *_, bad in oracle)
    assert report.to_json_dict()["classes"] == [
        {
            "subset": ",".join(map(str, subset)),
            "decay": min(decay),
            "partitions": [str(p) for p in members],
            "bad": [str(p) for p in bad],
        }
        for subset, members, decay, bad in oracle
    ]


def test_bell_many_names_per_lattice():
    for k in range(1, 11):
        assert len(set(lattice(ground_set(k)).names)) == bell_number(k)
