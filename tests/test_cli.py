import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import recomb
import recomb.cli as cli
import recomb.dynamics as dynamics
from recomb.cli import main
from recomb.dynamics import default_step, program_cells, rk4_plan, rk4_row
from recomb.measures import Measure, TypeSpace
from recomb.partitions import MAX_SITES, Lattice, Partition
from recomb.scenario import Scenario, ScenarioError
from recomb.partitions import ground_set, lattice

from conftest import benchmark_scenario, key_of, slots, within_budget
from oracles import (
    bell_oracle,
    enumerate_partitions,
    measure_to_csv,
    mobius,
    read_coefficient_csv,
    read_empirical_csv,
)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"

GENERIC_N3 = {
    "n": 3,
    "rates": {"1|2|3": 0.5, "1|2,3": 0.3, "1,2|3": 0.7, "1,3|2": 0.4},
    "initial_measure": "uniform",
    "time_grid": {"start": 0, "end": 2.0, "points": 5},
    "monte_carlo": {"samples": 20000, "seed": 11, "t": 1.0},
}

BAD_DEGENERATE_N4 = {
    "n": 4,
    "rates": {"1|2|3|4": 1.0, "1,2|3,4": 1.0},
    "initial_measure": "uniform",
    "time_grid": {"start": 0, "end": 1.0, "points": 3},
    "monte_carlo": {"samples": 20000, "seed": 3, "t": 0.5},
}

# every partition of six sites rated on 12**6 types: 2,985,984 states pass
# the grid bound, but the measure right-hand side would hold 140 million
# cell indices, 26 million of them for the block marginals
HUGE_MEASURE_PROGRAM = {
    "n": 6,
    "rates": {str(p): 1.0 for p in lattice(ground_set(6)).parts},
    "alphabet_sizes": [12] * 6,
}

# one rated partition of nine sites: the closed form stores 4,073,412
# comparable pairs and expands 105,690 chains
N9_ONE_RATE = {
    "n": 9,
    "rates": {"1,2,3,4|5,6,7,8,9": 1.0},
    "monte_carlo": {"samples": 20000, "seed": 1, "t": 1.0},
}

# one rated partition of ten sites: the coefficient program of its
# B(10) = 115,975 partitions holds 238,040 cell indices
N10_ONE_RATE = {"n": 10, "rates": {"1,2,3,4|5,6,7,8,9,10": 1.0}}

# five of the ten 9|1 splits rated: the closed form stores 43,289,930
# comparable pairs and expands 20,367,050 chains, 95 % of MAX_STATES together
N10_FIVE_SPLITS = {
    "n": 10,
    "rates": {
        ",".join(str(s) for s in range(1, 11) if s != i) + f"|{i}": 1.0 for i in range(1, 6)
    },
}

# all 511 two-block partitions of ten sites rated: the coefficient program
# would hold 8,734,070 cell indices and its default 10,220 RK4 substeps
# would visit 3.57e11 of them, and the closed form would store 43,289,930
# comparable pairs and expand 243,829,119 chains
N10_TWO_BLOCK = {
    "n": 10,
    "rates": {
        ",".join(map(str, a)) + "|" + ",".join(str(s) for s in range(1, 11) if s not in a): 1.0
        for a in ((1, *rest) for k in range(9) for rest in combinations(range(2, 11), k))
    },
}

SINGLE_CROSSOVER_N4 = {
    "n": 4,
    "two_block_only": True,
    "rates": {"1|2,3,4": 0.37, "1,2|3,4": 0.81, "1,2,3|4": 0.55},
    "time_grid": {"start": 0, "end": 3.0, "points": 7},
}

# a subnormal total rate: the exponential waiting-time scale overflows to
# infinity, so every replicate retires at the start state
SUBNORMAL_RATE_N2 = {
    "n": 2,
    "rates": {"1|2": 5e-324},
    "time_grid": {"start": 0, "end": 1.0, "points": 2},
    "monte_carlo": {"samples": 100, "seed": 1, "t": 1.0},
}


# a finite initial measure near the float limit: its total (6e307) passes
# the measure check, and an unscaled RK4 substep overflows
HUGE_FINITE_MEASURE_N2 = {
    "n": 2,
    "rates": {"1|2": 3.0},
    "initial_measure": [[3e307, 0], [0, 3e307]],
    "time_grid": {"start": 0, "end": 1.0, "points": 3},
}

# six ordered two-block rates at n = 7 (the linear regime): 13,621 harmless
# coinciding decay-rate pairs in 811 equal-decay classes
LINEAR_N7 = {
    "n": 7,
    "rates": {
        "1|2,3,4,5,6,7": 0.37, "1,2|3,4,5,6,7": 0.81, "1,2,3|4,5,6,7": 0.55,
        "1,2,3,4|5,6,7": 0.23, "1,2,3,4,5|6,7": 0.64, "1,2,3,4,5,6|7": 0.45,
    },
    "time_grid": {"start": 0, "end": 1.0, "points": 2},
    "monte_carlo": {"samples": 1000, "seed": 5, "t": 1.0},
}


# integrations without a practical bound on their RK4 substeps: a tiny
# given step (1e9 substeps), a huge rate under the default step 0.05 / rho
# (2e10), and a default step so small that the count overflows to inf
UNBOUNDED_INTEGRATIONS = [
    {**GENERIC_N3, "n": 2, "rates": {"1|2": 1.0}, "step": 1e-9},
    {**GENERIC_N3, "n": 2, "rates": {"1|2": 1e9}},
    {**GENERIC_N3, "rates": {"1|2,3": 1e307, "1,2|3": 1e307}},
]

# initial measures on GENERIC_N3's 2 x 2 x 2 types whose total mass is not a
# finite number; the file spec names a CSV the test writes
_ONES = [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]]
# each spec, and a word of the one line that refuses it
BAD_MEASURES = {
    "inline-nan": ([[[float("nan"), 1.0], [1.0, 1.0]], _ONES[1]], "finite total"),
    "inline-inf": ([[[float("inf"), 1.0], [1.0, 1.0]], _ONES[1]], "finite total"),
    "product-nan": ("product:nan,1;1,1;1,1", "finite total"),
    "file-nan": ("file:nan.csv", "finite total"),
    "inline-sum-overflow": (
        [[[1e308, 1e308], [1e308, 1e308]], [[0.0, 0.0], [0.0, 0.0]]], "finite total"
    ),
    # every leaf of an inline tensor is a JSON number, never an object, a
    # string or a bool
    "inline-object-leaf": ([[1, {}], [1, 1]], "must be a number"),
    "inline-text-leaf": ([[["0.5", 1.0], [1.0, 1.0]], _ONES[1]], "must be a number"),
    "inline-bool-leaf": ([[[True, 1.0], [1.0, 1.0]], _ONES[1]], "must be a number"),
}

# an inline measure of 5,000 nested arrays, past the JSON decoder's nesting
# limit; written into the file text in place of this spec
DEEPLY_NESTED = {"initial_measure": "nested"}


def run_cli(argv, address_space=None, **env_vars):
    """The command line in a fresh interpreter, so that numpy's warnings and
    log records reach its stderr: this package first on its path, and the
    log level only from env_vars.  address_space caps the child's virtual
    memory in bytes (RLIMIT_AS), in the child only."""
    env = {k: v for k, v in os.environ.items() if k != "RECOMB_LOG"}
    src = str(Path(recomb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    limit = None
    if address_space is not None:
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run(
        [sys.executable, "-m", "recomb.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit,
    )


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def assert_finite_outputs(*dirs):
    """Every JSON file under dirs parses without NaN or infinity literals,
    and every numeric CSV cell is finite."""
    def no_constant(name):
        raise AssertionError(f"non-finite number {name} in JSON output")

    for d in dirs:
        for path in d.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=no_constant)
        for path in d.rglob("*.csv"):
            with open(path, newline="") as fh:
                for row in csv.reader(fh):
                    for cell in row:
                        try:
                            x = float(cell)
                        except ValueError:
                            continue
                        assert math.isfinite(x), f"{path.name}: {cell}"


def assert_refused_before_output(capsys, out, word):
    """After exit 2: one stderr line naming the cause, no traceback, and no
    output directory."""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert word in err
    assert not out.exists()


# scenario files refused by a check of the loader that no other test
# reaches, with the message each is refused with by every command
LOADER_REFUSALS = {
    "no-n": ({k: v for k, v in GENERIC_N3.items() if k != "n"}, "scenario needs a site count 'n'"),
    "list-rates": (
        {**GENERIC_N3, "rates": [["1|2|3", 0.5]]},
        "rates must be a mapping of partition keys to numbers",
    ),
    "numeric-measure": (
        {**GENERIC_N3, "initial_measure": 0.5},
        "initial_measure must be a string spec or an inline tensor",
    ),
    "monte-carlo-without-seed": (
        {**GENERIC_N3, "monte_carlo": {"samples": 100}},
        "monte_carlo block needs samples and seed",
    ),
    "short-alphabet-sizes": (
        {**GENERIC_N3, "alphabet_sizes": [2, 2]},
        "alphabet_sizes must list one positive size per site",
    ),
    "json-array": ([GENERIC_N3], "scenario file must hold a JSON object"),
}


# each kind of bad rate key on three sites, with the message it is refused
# with; a duplicate is named in the blocks' sorted order, not as written
BAD_RATE_KEYS = {
    "duplicate-site": ("1,1|2,3", "site 1 appears in more than one block"),
    "duplicates-sorted": ("3,3|1,1|2", "site 1 appears in more than one block"),
    "missing-site": ("1|2", "partition '1|2' does not cover the ground set (1, 2, 3) exactly"),
    "site-outside": ("1|2,3,4", "partition '1|2,3,4' does not cover the ground set (1, 2, 3) exactly"),
    "site-zero": ("0|1,2,3", "partition '0|1,2,3' does not cover the ground set (1, 2, 3) exactly"),
    "empty-block": ("1||2,3", "empty block in partition string '1||2,3'"),
    "non-integer": ("1,a|2,3", "bad partition string '1,a|2,3'"),
    "whitespace-only": ("   ", "empty partition string"),
}


@pytest.mark.parametrize("key, message", BAD_RATE_KEYS.values(), ids=BAD_RATE_KEYS.keys())
def test_bad_rate_key_refused_with_its_message(tmp_path, capsys, key, message):
    doc = {"n": 3, "rates": {"1|2,3": 0.5, key: 1.0}, "monte_carlo": {"samples": 100, "seed": 1}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: bad rate key {key!r}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "integrate", "simulate", "compare"])
def test_rate_total_past_the_float_range_refused(tmp_path, command):
    # each rate is finite, their total is not: refused with one line, in a
    # child where a RuntimeWarning would end the run with a traceback
    doc = {
        "n": 2,
        "rates": {"1|2": 1e308, "1,2": 1e308},
        "initial_measure": "uniform",
        "monte_carlo": {"samples": 1000, "seed": 1},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    proc = run_cli(
        [command, "--config", str(cfg), "--out", str(out)], PYTHONWARNINGS="error::RuntimeWarning"
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "configuration error: bad rates: the rates add up to inf, past the float range\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["solve", "integrate", "simulate", "compare"])
def test_out_naming_a_file_refused(tmp_path, capsys, command, under):
    # --out an existing file, or a path below one: exit 2 with one line
    # naming the path, and nothing written
    cfg = write_config(tmp_path, GENERIC_N3)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "out" if under else taken
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: --out {out}: {taken} is not a directory\n"
    assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "kept"


class TestLatticeCommand:
    def test_counts(self, capsys):
        assert main(["lattice", "4"]) == 0
        out = capsys.readouterr().out
        assert "bell number = 15" in out
        assert "two-block partitions = 7" in out

    def test_single_site(self, capsys):
        assert main(["lattice", "1"]) == 0
        assert "bell number = 1" in capsys.readouterr().out

    def test_large(self, capsys):
        assert main(["lattice", "8"]) == 0
        assert "bell number = 4140" in capsys.readouterr().out

    def test_out_of_range(self):
        assert main(["lattice", "11"]) == 2
        # reported whatever the log level
        proc = run_cli(["lattice", "11"], RECOMB_LOG="critical")
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("configuration error: lattice size")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_full_json(self, capsys, n, fmt):
        # the printout read from the lattice arrays, against the one built
        # from Partition objects and the dense Moebius oracle
        assert main(["lattice", str(n), "--full", "--format", fmt]) == 0
        out = capsys.readouterr().out
        parts = enumerate_partitions(ground_set(n))
        bottom = Partition.singletons(ground_set(n))
        row = {str(p): mobius(bottom, p) for p in parts}
        two_block = sum(1 for p in parts if p.block_count == 2)
        if fmt == "json":
            expected = {
                "n": n,
                "bell": bell_oracle(n),
                "two_block": two_block,
                "partitions": [str(p) for p in parts],
                "mobius_bottom_row": row,
            }
            assert out == json.dumps(expected, indent=2) + "\n"
            doc = json.loads(out)
            assert doc["bell"] == bell_oracle(n)
            assert len(doc["partitions"]) == bell_oracle(n)
            if n == 3:
                assert doc["mobius_bottom_row"]["1,2,3"] == 2
        else:
            lines = [f"n = {n}", f"bell number = {bell_oracle(n)}",
                     f"two-block partitions = {two_block}"]
            lines += [f"  {p}  mobius(bottom, .) = {row[p]}" for p in row]
            assert out == "\n".join(lines) + "\n"


class TestSolveCommand:
    def test_zero_rates_constant_trajectory(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"n": 3, "rates": {}, "time_grid": {"start": 0, "end": 2.0, "points": 4}},
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        times, keys, values = read_coefficient_csv(out / "trajectory.csv")
        top_col = keys.index("1,2,3")
        np.testing.assert_array_equal(values[:, top_col], np.ones(4))

    def test_known_exponential_column(self, tmp_path):
        # one rate on the finest partition: survival of the top block decays
        # at exactly that rate
        cfg = write_config(
            tmp_path,
            {
                "n": 3,
                "rates": {"1|2|3": 1.0},
                "time_grid": {"start": 0, "end": 2.0, "points": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        times, keys, values = read_coefficient_csv(out / "trajectory.csv")
        top_col = keys.index("1,2,3")
        np.testing.assert_allclose(values[:, top_col], np.exp(-times), atol=1e-12)

    def test_solution_json_written(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC_N3)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "solution.json").read_text()
        assert "\n" not in text  # compact, from the C encoder
        doc = json.loads(text)
        assert doc["rho_total"] == pytest.approx(1.9)
        assert "1,2,3" in doc["subsets"]
        assert doc["subsets"]["1,2,3"]["coeff"]["1,2,3"]["1,2,3"] == 1.0

    def test_degenerate_exit_code_and_report(self, tmp_path):
        cfg = write_config(tmp_path, BAD_DEGENERATE_N4)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        doc = json.loads((out / "degeneracy.json").read_text())
        assert doc["bad"] is True
        # the bad pair is the subset's top and a bad member of its class
        (top_class,) = [
            c for c in doc["classes"]
            if c["subset"] == "1,2,3,4" and "1,2,3,4" in c["partitions"]
        ]
        assert "1,2|3,4" in top_class["bad"]
        assert not (out / "trajectory.csv").exists()

    def test_solve_has_no_step_flag(self, tmp_path):
        # solve never integrates, so it takes no step
        cfg = write_config(tmp_path, GENERIC_N3)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                  "--step", "0.01"])
        assert exc.value.code == 2


class TestIntegrateCommand:
    def test_huge_finite_measure_stays_finite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HUGE_FINITE_MEASURE_N2)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "measure_trajectory.csv").exists()
        assert_finite_outputs(out)
        # deviations are relative to the initial mass (6e307)
        meta = json.loads((out / "integrate_meta.json").read_text())
        assert meta["max_mixture_dev"] <= 1e-10
        assert meta["max_measure_drift"] <= 1e-10

    def test_drift_and_mixture_metadata(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC_N3)
        out = tmp_path / "out"
        assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "integrate_meta.json").read_text())
        assert meta["max_drift"] <= 1e-10
        assert meta["max_mixture_dev"] <= 1e-10
        assert (out / "coefficients.csv").exists()
        assert (out / "measure_trajectory.csv").exists()

    def test_csv_round_trip_exact(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC_N3)
        out = tmp_path / "out"
        assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        times, keys, values = read_coefficient_csv(out / "coefficients.csv")
        from recomb.dynamics import CoefficientVector, integrate_coefficients

        scenario = Scenario.from_file(cfg)
        traj = integrate_coefficients(
            scenario.rates,
            CoefficientVector.delta_top(ground_set(3)),
            scenario.grid.array(),
        )
        np.testing.assert_array_equal(values, traj.values)  # bit-exact re-parse
        np.testing.assert_array_equal(times, traj.times)


class TestSimulateCommand:
    def test_reproducible_output(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC_N3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "empirical.csv").read_bytes() == (out2 / "empirical.csv").read_bytes()
        meta = json.loads((out1 / "empirical_meta.json").read_text())
        assert meta["generator"] == "philox"
        assert meta["seed"] == 11

    def test_single_sample(self, tmp_path):
        doc = dict(GENERIC_N3)
        doc["monte_carlo"] = {"samples": 1, "seed": 0, "t": 0.5}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        counts = read_empirical_csv(out / "empirical.csv", ground_set(3))
        assert sum(counts.values()) == 1

    def test_two_site_exact_frequency(self, tmp_path):
        n_samples = 100_000
        doc = {
            "n": 2,
            "rates": {"1|2": 1.0},
            "time_grid": {"start": 0, "end": 1.0, "points": 2},
            "monte_carlo": {"samples": n_samples, "seed": 21, "t": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        counts = read_empirical_csv(out / "empirical.csv", ground_set(2))
        from recomb.partitions import Partition

        freq = counts[Partition.whole(ground_set(2))] / n_samples
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / n_samples)
        assert abs(freq - p) <= 3 * se

    def test_missing_block_is_config_error(self, tmp_path):
        doc = {k: v for k, v in GENERIC_N3.items() if k != "monte_carlo"}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_outputs_list_partitions_by_text(self, tmp_path):
        # every partition of four sites rated, so the chain reaches all 15;
        # 1,4|2|3 sorts before 1|2,3,4 by text, after it in lattice order
        names = list(lattice(ground_set(4)).names)
        assert names.index("1|2,3,4") < names.index("1,4|2|3")
        doc = {
            "n": 4,
            "rates": {name: 0.2 for name in names},
            "time_grid": {"start": 0, "end": 1.0, "points": 2},
            "monte_carlo": {"samples": 20_000, "seed": 5, "t": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 0
        with open(tmp_path / "sim" / "empirical.csv", newline="") as fh:
            rows = [row[0] for row in list(csv.reader(fh))[1:]]
        report = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert rows == list(report["monte_carlo"]["frequencies"]) == sorted(names)


class TestCompareCommand:
    def test_generic_passes(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC_N3)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["pass"] is True
        assert doc["fallback"] is None
        assert doc["closed_vs_integrated"]["max"] <= 1e-6
        assert doc["measure_vs_mixture"]["max"] <= 1e-6
        assert doc["monte_carlo"]["pass"] is True

    def test_linear_n7_degeneracy_report_is_compact(self, tmp_path):
        # one entry per equal-decay class, not per coinciding pair
        cfg = write_config(tmp_path, LINEAR_N7)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["linear_regime"] is True and doc["degeneracy"]["degenerate"] is True
        assert len(json.dumps(doc["degeneracy"], indent=2)) < 250_000

    def test_large_measure_total_passes(self, tmp_path):
        # the measure deviation is relative to the initial mass (4e100), so
        # rounding at that scale does not fail the gate
        cfg = write_config(
            tmp_path, {**GENERIC_N3, "initial_measure": "product:1e100,3e100;1,2;1,1"}
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["measure_vs_mixture"]["max"] <= 1e-6
        assert doc["measure_vs_mixture"]["pass"]

    def test_single_crossover_flag(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE_CROSSOVER_N4)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["linear_regime"] is True
        assert doc["closed_vs_linear_max"] <= 1e-10

    def test_degenerate_falls_back_to_numerical(self, tmp_path):
        cfg = write_config(tmp_path, BAD_DEGENERATE_N4)
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--out", str(out)])
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["fallback"] == "numerical"
        assert "closed" not in doc
        assert doc["measure_vs_mixture"]["pass"] is True
        assert code == 0

    def test_tolerance_failure_exit_code(self, tmp_path):
        doc = dict(GENERIC_N3)
        doc["tolerances"] = {"closed_vs_integrated": 1e-18}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 4


class TestFallbackReference:
    """Without a closed form, compare takes the Monte Carlo reference at t
    from the coefficient trajectory it has integrated when that row is bit
    for bit a run over [0, t] alone (``dynamics.rk4_row``), and integrates
    [0, t] once otherwise."""

    @staticmethod
    def reference_runs(monkeypatch):
        """The grid of each integrate_coefficients call compare makes."""
        grids, real = [], cli.integrate_coefficients

        def counted(rates, a0, grid, step=None):
            grids.append(np.asarray(grid).tolist())
            return real(rates, a0, grid, step=step)

        monkeypatch.setattr(cli, "integrate_coefficients", counted)
        return grids

    @staticmethod
    def reference_row(doc):
        scenario = Scenario.from_dict(doc)
        grid, t = scenario.grid.array(), scenario.mc_time()
        substeps = rk4_plan(scenario.rates, grid, scenario.step)[2]
        count = rk4_plan(scenario.rates, [0.0, t] if t > 0 else [0.0], scenario.step)[2].sum()
        return rk4_row(grid, substeps, t, count), substeps[: np.searchsorted(grid, t)].sum(), count

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.0], ids=["shipped", "inner-grid-time", "start"])
    def test_row_reused_byte_for_byte(self, tmp_path, monkeypatch, t):
        doc = json.loads((SCENARIO_DIR / "n4_bad_degenerate.json").read_text())
        doc["monte_carlo"]["t"] = t
        assert self.reference_row(doc)[0] is not None
        cfg = write_config(tmp_path, doc)
        grids = self.reference_runs(monkeypatch)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "row")]) == 0
        assert grids == []
        monkeypatch.setattr(cli, "rk4_row", lambda *args: None)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert grids == [[0.0, t] if t > 0 else [0.0]]
        row, run = (tmp_path / d / "comparison.json" for d in ("row", "run"))
        assert row.read_bytes() == run.read_bytes()

    @pytest.mark.parametrize(
        "grid, step, t, same_count",
        [
            # t = 1 is a grid time reached in 5 + 5 + 5 substeps, as many as
            # a run over [0, 1] alone takes, but (1 - 2/3) / 5 is not 1 / 15
            ({"start": 0, "end": 1.0, "points": 4}, 0.07, 1.0, True),
            ({"start": 0, "end": 1.0, "points": 3}, None, 0.7, False),
        ],
        ids=["other-substep-lengths", "off-the-grid"],
    )
    def test_reference_integrated_once(self, tmp_path, monkeypatch, grid, step, t, same_count):
        doc = {**BAD_DEGENERATE_N4, "time_grid": grid, "step": step}
        doc["monte_carlo"] = {**BAD_DEGENERATE_N4["monte_carlo"], "t": t}
        row, before, count = self.reference_row(doc)
        assert row is None and bool(before == count) == same_count
        cfg = write_config(tmp_path, doc)
        grids = self.reference_runs(monkeypatch)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert grids == [[0.0, t]]


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_oversized_closed_form_refused(tmp_path, command):
    # the pairs and chains are counted above MAX_STATES: refused before any
    # table exists, instead of scattering 243,829,119 chains
    cfg = write_config(tmp_path, N10_TWO_BLOCK)
    out = tmp_path / "out"
    proc = run_cli([command, "--config", str(cfg), "--out", str(out)], address_space=2 << 30)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(
        "configuration error: the closed form at n = 10 would store 43289930 "
        "comparable pairs and expand 243829119 chains"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_nine_site_closed_form_runs(tmp_path, command):
    # the tables live on the comparable pairs: no (B, B) table of the 21,147
    # partitions, in a child that could not hold a dense one
    cfg = write_config(tmp_path, N9_ONE_RATE)
    out = tmp_path / "out"
    proc = run_cli([command, "--config", str(cfg), "--out", str(out)], address_space=2 << 30)
    assert proc.returncode == 0, proc.stderr
    assert_finite_outputs(out)


def test_ten_site_closed_form_near_the_limit_fits(tmp_path):
    # the accepted input near the size limit peaks like a one-rate input:
    # the chains run in bounded runs and solution.json is written in pieces
    cfg = write_config(tmp_path, N10_FIVE_SPLITS)
    out = tmp_path / "out"
    proc = run_cli(["solve", "--config", str(cfg), "--out", str(out)], address_space=2 << 30)
    assert proc.returncode == 0, proc.stderr
    assert (out / "solution.json").stat().st_size > 0
    assert_finite_outputs(out)


def test_ten_site_integration_runs(tmp_path):
    # the coefficient program reads restriction indices only: no (B, B)
    # table of the 115,975 partitions, in a child that could not hold one
    cfg = write_config(tmp_path, N10_ONE_RATE)
    out = tmp_path / "out"
    proc = run_cli(["integrate", "--config", str(cfg), "--out", str(out)], address_space=2 << 30)
    assert proc.returncode == 0, proc.stderr
    assert (out / "coefficients.csv").stat().st_size > 0
    assert_finite_outputs(out)


def test_oversized_coefficient_program_refused(tmp_path):
    assert len(N10_TWO_BLOCK["rates"]) == 511
    cfg = write_config(tmp_path, N10_TWO_BLOCK)
    out = tmp_path / "out"
    proc = run_cli(["integrate", "--config", str(cfg), "--out", str(out)], address_space=2 << 30)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(
        "configuration error: coefficient integration of 10220 RK4 substeps "
        "over 8734070 cell indices"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["integrate", "compare"])
def test_measure_work_refused_before_out(tmp_path, command, monkeypatch, capsys):
    # a work bound between the coefficient and the measure integrations:
    # the measure RK4 is refused before --out exists
    scenario = Scenario.from_dict(GENERIC_N3)
    _, _, substeps = rk4_plan(scenario.rates, scenario.grid.array())
    coefficient = int(4 * substeps.sum()) * program_cells(scenario.rates)
    assert 4 * substeps.sum() * program_cells(scenario.rates, scenario.space) > coefficient
    monkeypatch.setattr(dynamics, "MAX_RK4_WORK", coefficient)
    cfg = write_config(tmp_path, GENERIC_N3)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: measure integration of 76 RK4 substeps")
    assert not out.exists()


def test_warm_compare_pass_compiles_nothing(tmp_path, monkeypatch):
    # in one process, a second compare pass over the shipped scenarios finds
    # every trie program compiled: the rate systems' and those of the
    # mixtures' supports
    files = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(files) == 3

    def serve(name):
        return [
            main(["compare", "--config", str(cfg), "--out", str(tmp_path / name / cfg.stem)])
            for cfg in files
        ]

    codes = serve("first")
    compiles = []
    compile_program = dynamics._compile

    def counted(tables, spaces):
        compiles.append(spaces)
        return compile_program(tables, spaces)

    monkeypatch.setattr(dynamics, "_compile", counted)
    assert serve("second") == codes
    assert compiles == []


@pytest.mark.parametrize("name", ["n3_generic", "n4_bad_degenerate"])
@pytest.mark.parametrize("command", ["solve", "simulate", "compare"])
def test_repeated_rates_build_nothing(tmp_path, monkeypatch, command, name):
    # a request on rates served before, at another seed, builds no closed
    # form, decay table or jump table: they come from the kept entry, and
    # the files and exit code are those of a request that builds them
    import recomb.closed_form as cf
    import recomb.process as proc

    builds = []
    for module, attr in ((cf, "_build"), (cf, "_decay_tables"), (proc, "_build_jump_table")):
        original = getattr(module, attr)

        def counted(*args, original=original, attr=attr):
            builds.append(attr)
            return original(*args)

        monkeypatch.setattr(module, attr, counted)
    cfg = SCENARIO_DIR / f"{name}.json"

    def serve(out, *extra):
        code = main([command, "--config", str(cfg), "--out", str(out), *extra])
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    seed = [] if command == "solve" else ["--seed", "5"]
    serve(tmp_path / "first")
    built = list(builds)
    assert built
    warm = serve(tmp_path / "warm", *seed)
    assert builds == built
    dynamics._store.clear()
    cold = serve(tmp_path / "cold", *seed)
    assert builds == built * 2
    assert warm == cold


def test_warm_cycle_builds_each_artifact_once(tmp_path, monkeypatch):
    # one process serving compare on the shipped files, pass after pass,
    # builds each closed form, chain count, jump table and program once per
    # key, and every pass writes what a request writes after the process
    # store is emptied
    import collections

    import recomb.closed_form as cf
    import recomb.process as proc

    def served(rates, *start):
        return (rates.ground, rates.indices.tobytes(), rates.weights.tobytes(), *start)

    def compiled(tables, spaces):
        return tables.leaves.tobytes(), tables.weights.tobytes(), spaces

    builds = collections.Counter()
    for module, attr, key in (
        (cf, "_build", served),
        (cf, "_size", served),
        (proc, "_build_jump_table", served),
        (dynamics, "_compile", compiled),
    ):
        original = getattr(module, attr)

        def counted(*args, original=original, attr=attr, key=key):
            builds[attr, key(*args)] += 1
            return original(*args)

        monkeypatch.setattr(module, attr, counted)
    files = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(files) == 3

    def serve(out, cfg):
        code = main(["compare", "--config", str(cfg), "--out", str(out)])
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    passes = [[serve(tmp_path / f"pass{k}" / cfg.stem, cfg) for cfg in files] for k in range(3)]
    assert {attr for attr, _ in builds} == {"_build", "_size", "_build_jump_table", "_compile"}
    assert set(builds.values()) == {1}
    cold = []
    for cfg in files:
        dynamics._store.clear()
        cold.append(serve(tmp_path / "cold" / cfg.stem, cfg))
    for got in passes:
        assert got == cold


def test_refused_requests_keep_the_store_bounded(tmp_path, monkeypatch):
    # requests refused at new rates leave an entry that holds no program,
    # closed form or jump table: a trie and plan (integrate, refused for its
    # substeps) and a chain count (solve, refused for its size).  It still
    # counts what it holds, so under a budget of a few entries the store's
    # length and cells stay bounded however many are served
    import random

    monkeypatch.setattr(cli, "MAX_STATES", 1)  # every closed form refused by its size
    rng = random.Random(5)
    names = lattice(ground_set(5)).names

    def refuse():
        doc = {"n": 5, "rates": {p: rng.uniform(0.1, 1.0) for p in names},
               "time_grid": {"start": 0.0, "end": 100.0, "points": 3}}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "out")
        assert main(["integrate", "--config", str(cfg), "--out", out, "--step", "1e-5"]) == 2
        assert main(["solve", "--config", str(cfg), "--out", out]) == 2

    dynamics._store.clear()
    refuse()
    one = sum(e.cells for e in dynamics._store.values())  # the two requests' entry
    assert len(dynamics._store) == 1 and one > 0
    monkeypatch.setattr(dynamics, "MAX_STATES", 3 * one)
    for _ in range(20):
        refuse()
        held = sum(e.cells for e in dynamics._store.values())
        assert len(dynamics._store) <= 3 and held <= dynamics.MAX_STATES
        assert held == dynamics._store.held


def test_store_total_is_its_entries_cells(tmp_path, monkeypatch):
    # a process serving every command on the shipped files, twice, under a
    # bound of the largest entry a compare pass leaves: after every lookup
    # and every charge the store's total is the sum of its entries' cells,
    # at most the bound unless the store holds the entry just used alone,
    # and entries are dropped on the way
    files = sorted(SCENARIO_DIR.glob("*.json"))
    for cfg in files:
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
    largest = max(entry.cells for entry in dynamics._store.values())
    assert sum(entry.cells for entry in dynamics._store.values()) > largest
    dynamics._store.clear()
    monkeypatch.setattr(dynamics, "MAX_STATES", largest)
    lookups = within_budget(monkeypatch)
    for k in range(2):
        for cfg in files:
            for command in ("solve", "integrate", "simulate", "compare"):
                out = tmp_path / f"{command}{k}" / cfg.stem
                main([command, "--config", str(cfg), "--out", str(out)])
    assert len(set(lookups)) > len(dynamics._store) and len(lookups) > 6 * len(files)


def test_compare_fills_one_entry(tmp_path):
    # one compare keeps what its rates determine in one entry: the lockstep
    # program, the closed form, its chain count and the jump table of the
    # top, each charged what it holds; the only other entry is the mixture
    # support's, which holds its measure program alone
    cfg = SCENARIO_DIR / "n3_generic.json"
    scenario = Scenario.from_file(cfg)
    rates, space = scenario.rates, scenario.space
    dynamics._store.clear()
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(dynamics._store) == 2
    entry = dynamics._store.pop(key_of(rates))
    (support,) = dynamics._store.values()
    tables = entry["tables"]
    assert set(slots(entry, "program")) == {(None, space)}
    assert entry["closed_form"].rates.ground == rates.ground and entry.get("size") is not None
    assert set(slots(entry, "jump")) == {lattice(rates.ground).top_index}
    programs = tables.plans[None][1] + tables.plans[space][1]
    jumps = sum(table[1].size for table in slots(entry, "jump").values())
    key = 1 + rates.indices.size + rates.weights.size
    assert entry.cells == key + tables.words + programs + entry["closed_form"].cells + jumps
    assert set(slots(support, "program")) == {(space,)}
    assert support.get("closed_form") is None and support.get("size") is None
    assert not slots(support, "jump")


def test_routes_build_no_partition(tmp_path, monkeypatch):
    # every command finds partitions by lattice index and spells them from
    # Lattice.names: no Partition is built and no view by Partition read,
    # on the shipped scenarios and the generated benchmark ones
    def refuse(*args, **kwargs):
        raise AssertionError("a route built or read a Partition")

    configs = sorted(SCENARIO_DIR.glob("*.json"))
    for workload in ("dense-n6", "sparse-n7-cold"):
        configs.append(write_config(tmp_path, benchmark_scenario(workload, 101), f"{workload}.json"))
    monkeypatch.setattr(Partition, "__init__", refuse)
    monkeypatch.setattr(Partition, "_from_canonical", classmethod(refuse))
    monkeypatch.setattr(Lattice, "parts", property(refuse))
    monkeypatch.setattr(Lattice, "index", property(refuse))
    refused = {("solve", "n4_bad_degenerate"): 3, ("simulate", "n4_single_crossover"): 2}
    for cfg in configs:
        for command in ("solve", "integrate", "simulate", "compare"):
            out = tmp_path / cfg.stem / command
            code = main([command, "--config", str(cfg), "--out", str(out)])
            assert code == refused.get((command, cfg.stem), 0), (command, cfg.stem)


def test_solve_without_a_measure_builds_no_trie(tmp_path):
    # a solve without a measure fills the closed form and its chain count
    # of its rates' entry, and no trie, plan or program
    doc = {key: value for key, value in GENERIC_N3.items() if key != "initial_measure"}
    cfg = write_config(tmp_path, doc)
    rates = Scenario.from_file(cfg).rates
    dynamics._store.clear()
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert list(dynamics._store) == [key_of(rates)]
    (entry,) = dynamics._store.values()
    assert entry.get("tables") is None
    assert entry.get("closed_form") is not None and entry.get("size") is not None
    assert not slots(entry, "jump")


def test_each_call_logs_to_its_own_stderr(tmp_path, monkeypatch):
    # in one process, each call logs to the stderr current at that call, at
    # the level RECOMB_LOG names then, the lines a fresh process writes; the
    # host's root logger and the recomb logger are as they were after it
    import contextlib
    import io
    import logging

    monkeypatch.delenv("RECOMB_LOG", raising=False)
    root, recomb_log = logging.getLogger(), logging.getLogger("recomb")
    before = list(root.handlers), root.level, list(recomb_log.handlers), recomb_log.level
    assert recomb_log.propagate

    def serve(name, out):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["solve", "--config", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out)])
        assert (list(root.handlers), root.level, list(recomb_log.handlers), recomb_log.level) == before
        assert recomb_log.propagate
        return code, err.getvalue()

    bad = "n4_bad_degenerate"
    fresh = run_cli(["solve", "--config", str(SCENARIO_DIR / f"{bad}.json"), "--out", str(tmp_path / "fresh")])
    assert fresh.stderr.startswith("ERROR recomb: degenerate rates: ")
    assert len(fresh.stderr.splitlines()) == 1
    for k in range(2):
        assert serve(bad, tmp_path / str(k)) == (3, fresh.stderr)
    monkeypatch.setenv("RECOMB_LOG", "info")
    out = tmp_path / "info"
    code, err = serve("n3_generic", out)
    assert (code, err) == (0, f"INFO recomb: wrote {out / 'trajectory.csv'} and {out / 'solution.json'}\n")


def test_consecutive_calls_share_no_state(tmp_path, monkeypatch):
    # the parser is built once per process, and an option given to one call
    # does not reach the next
    cfg = write_config(tmp_path, GENERIC_N3)
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0

    def refuse():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", refuse)
    runs = {
        "seeded": ["compare", "--seed", "5"],
        "unseeded": ["compare"],
        "stepped": ["integrate", "--step", "0.01"],
        "default": ["integrate"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    seeds = [
        json.loads((tmp_path / name / "comparison.json").read_text())["monte_carlo"]["seed"]
        for name in ("seeded", "unseeded")
    ]
    assert seeds == [5, GENERIC_N3["monte_carlo"]["seed"]]
    steps = [
        json.loads((tmp_path / name / "integrate_meta.json").read_text())["step"]
        for name in ("stepped", "default")
    ]
    rates = Scenario.from_dict(GENERIC_N3).rates
    assert steps == [0.01, default_step(rates, GENERIC_N3["time_grid"]["end"])]


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_subnormal_rate_runs_quietly(tmp_path, command):
    cfg = write_config(tmp_path, SUBNORMAL_RATE_N2)
    proc = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0
    assert proc.stderr == ""


class TestScenarioValidation:
    def test_partition_keys_checked(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 3, "rates": {"1,2|3,4": 1.0}})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_negative_rate_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 3, "rates": {"1,2|3": -0.5}})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_grid_must_start_at_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"n": 2, "rates": {}, "time_grid": {"start": 1.0, "end": 2.0, "points": 3}},
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_two_block_only_enforced(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"n": 3, "two_block_only": True, "rates": {"1|2|3": 1.0}},
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert (
            main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
            == 2
        )

    def test_unknown_measure_spec(self, tmp_path):
        doc = dict(GENERIC_N3)
        doc["initial_measure"] = "gaussian"
        cfg = write_config(tmp_path, doc)
        assert main(["integrate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_product_measure_spec(self, tmp_path):
        doc = dict(GENERIC_N3)
        doc["initial_measure"] = "product:0.3,0.7;0.5,0.5;0.2,0.8"
        doc.pop("monte_carlo")
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "integrate_meta.json").read_text())
        # a product measure is an equilibrium: the trajectory stays put
        assert meta["max_measure_drift"] <= 1e-12

    def test_inline_tensor_spec(self, tmp_path):
        doc = dict(GENERIC_N3)
        w = np.full((2, 2, 2), 1 / 8)
        doc["initial_measure"] = w.tolist()
        doc.pop("monte_carlo")
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "integrate_meta.json").read_text())
        assert meta["max_mixture_dev"] <= 1e-10

    def test_inline_tensor_shape_checked(self, tmp_path):
        doc = dict(GENERIC_N3)
        doc["initial_measure"] = [[0.5, 0.5], [0.5, 0.5]]
        cfg = write_config(tmp_path, doc)
        assert main(["integrate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_measure_file_spec(self, tmp_path):
        from recomb.measures import TypeSpace, uniform_measure

        measure_to_csv(uniform_measure(TypeSpace.regular(3, 2)), tmp_path / "m.csv")
        doc = dict(GENERIC_N3)
        doc["initial_measure"] = "file:m.csv"
        doc.pop("monte_carlo")
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0

    def test_scenario_error_is_valueerror(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict({"n": 0})

    def test_integral_floats_read_as_integers(self):
        doc = {**GENERIC_N3, "n": 3.0, "alphabet_sizes": [2.0, 3, 2]}
        doc["monte_carlo"] = {"samples": 1e5, "seed": 11.0, "t": 1.0}
        doc["time_grid"] = {"start": 0, "end": 2.0, "points": 5.0}
        s = Scenario.from_dict(doc)
        assert (s.n, s.alphabet_sizes, s.grid.points) == (3, (2, 3, 2), 5)
        assert (s.monte_carlo.samples, s.monte_carlo.seed) == (100_000, 11)
        assert all(type(v) is int for v in (s.n, s.grid.points, *s.alphabet_sizes))

    @pytest.mark.parametrize("command", ["solve", "integrate", "simulate", "compare"])
    @pytest.mark.parametrize(
        "change",
        [
            {"rates": {"1|2|3": float("nan")}},
            {"rates": {"1|2|3": float("inf")}},
            {"step": 1.0},
            {"monte_carlo": {"samples": 100, "seed": -5}},
            {"monte_carlo": {"samples": -5, "seed": 1}},
            {"monte_carlo": {"samples": 100, "seed": 1, "t": -1.0}},
            {"time_grid": {"start": 0, "end": float("nan"), "points": 3}},
            {"n": MAX_SITES + 1},
            {"n": 30},
            {"alphabet_sizes": ["a", 2, 2]},
            {"monte_carlo": {"samples": "many", "seed": 1}},
            {"time_grid": {"start": 0, "end": "two", "points": 3}},
            {"tolerances": {"closed_vs_integrated": [1]}},
            {"time_grid": 5},
            {"monte_carlo": [100, 1]},
            {"tolerances": "tight"},
            # rejected before the grid is allocated (about 15 GiB)
            {"time_grid": {"start": 0, "end": 2.0, "points": 2_000_000_000}},
            # a grid of no points does not hide 10**9 types
            {"time_grid": {"start": 0, "end": 2.0, "points": 0}, "alphabet_sizes": [1000] * 3},
            # integers are never truncated, iterated or read from a bool
            {"alphabet_sizes": "232"},
            {"time_grid": {"start": 0, "end": 2.0, "points": 2.9}},
            {"monte_carlo": {"samples": 10.7, "seed": 1}},
            {"monte_carlo": {"samples": 100, "seed": True}},
            {"n": 3.5},
            # one sampler end state per sample
            {"monte_carlo": {"samples": 10**15, "seed": 1}},
            {"tolerances": {"closed_vs_integrated": float("nan")}},
            {"tolerances": {"closed_vs_integrated": -1}},
            {"tolerances": {"monte_carlo_tv": float("nan")}},
            {"tolerances": {"monte_carlo_tv": -0.5}},
            HUGE_MEASURE_PROGRAM,
            # numbers are never read from a bool or a string, and a flag
            # only from a bool
            {"tolerances": {"closed_vs_integrated": True}},
            {"tolerances": {"monte_carlo_tv": "0.1"}},
            {"rates": {"1|2|3": True}},
            {"rates": {"1|2|3": "0.5"}},
            {"time_grid": {"start": 0, "end": "1.5", "points": 3}},
            {"time_grid": {"start": False, "end": 2.0, "points": 3}},
            {"step": "0.1"},
            {"monte_carlo": {"samples": 100, "seed": 1, "t": "1"}},
            {"two_block_only": "false", "rates": {"1|2,3": 0.3, "1,2|3": 0.7}},
            {"two_block_only": 0},
            {"rates": {"1|2|3": 10**400}},  # past the float range
            DEEPLY_NESTED,
        ],
        ids=[
            "nan-rate", "inf-rate", "step-bound", "negative-seed", "negative-samples",
            "negative-mc-time", "nan-grid-end", "n-above-cap", "n-30",
            "text-alphabet-size", "text-samples", "text-grid-end", "list-tolerance",
            "scalar-time-grid", "list-monte-carlo", "text-tolerances", "huge-grid",
            "no-points-huge-types",
            "text-alphabet-sizes", "fractional-points", "fractional-samples",
            "bool-seed", "fractional-n", "huge-samples", "nan-route-tolerance",
            "negative-route-tolerance", "nan-tv-tolerance", "negative-tv-tolerance",
            "huge-measure-program",
            "bool-route-tolerance", "text-tv-tolerance", "bool-rate", "numeric-text-rate",
            "numeric-text-grid-end", "bool-grid-start", "text-step", "text-mc-time",
            "text-two-block-only", "integer-two-block-only", "huge-integer-rate",
            "deeply-nested-measure",
        ],
    )
    def test_bad_file_value_rejected(self, tmp_path, capsys, command, change):
        # json writes NaN and Infinity literals, which the scenario loader reads
        cfg = write_config(tmp_path, {**GENERIC_N3, **change})
        if change is DEEPLY_NESTED:
            cfg.write_text(cfg.read_text().replace('"nested"', "[" * 5000 + "]" * 5000))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))
        if change is HUGE_MEASURE_PROGRAM:
            assert "measure program" in err
        if change is DEEPLY_NESTED:
            assert f"cannot read scenario {cfg}: " in err and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--step", "1.0"],
            ["compare", "--step", "1.0"],
            ["integrate", "--step", "0"],
            ["simulate", "--seed", "-5"],
            ["compare", "--seed", "-5"],
            ["simulate", "--samples", "-5"],
            ["compare", "--samples", "-5"],
            ["simulate", "--samples", "0"],
            ["simulate", "--samples", "1000000000000000"],
            ["compare", "--samples", "1000000000000000"],
        ],
    )
    def test_bad_override_rejected(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, GENERIC_N3)
        out = tmp_path / "out"
        assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", ["integrate", "compare"])
    @pytest.mark.parametrize(
        "doc", UNBOUNDED_INTEGRATIONS, ids=["tiny-step", "huge-rate", "overflowing-count"]
    )
    def test_unbounded_integration_rejected(self, tmp_path, capsys, command, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert_refused_before_output(capsys, out, "substeps")

    def test_unbounded_fallback_integration_rejected(self, tmp_path, capsys):
        # without a closed form, compare integrates the Monte Carlo
        # reference over [0, t]: 4e10 substeps at t = 1e9
        doc = {**BAD_DEGENERATE_N4, "monte_carlo": {"samples": 100, "seed": 3, "t": 1e9}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert_refused_before_output(capsys, out, "substeps")

    @pytest.mark.parametrize("command", ["integrate", "compare"])
    @pytest.mark.parametrize(
        "last, word",
        [("0,0,0", "exactly once"), ("1,1,-1", "nonnegative")],
        ids=["duplicate-state", "negative-letter"],
    )
    def test_bad_measure_file_rejected(self, tmp_path, capsys, command, last, word):
        # the state 1,1,1 is missing: its row is replaced by last
        rows = [",".join(map(str, c)) for c in np.ndindex(2, 2, 2)][:-1] + [last]
        (tmp_path / "m.csv").write_text("x1,x2,x3,weight\n" + "".join(f"{r},0.125\n" for r in rows))
        cfg = write_config(tmp_path, {**GENERIC_N3, "initial_measure": "file:m.csv"})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert_refused_before_output(capsys, out, word)

    @pytest.mark.parametrize("command", ["integrate", "compare"])
    @pytest.mark.parametrize("spec, word", BAD_MEASURES.values(), ids=BAD_MEASURES)
    def test_non_finite_measure_rejected(self, tmp_path, capsys, command, spec, word):
        w = np.ones((2, 2, 2))
        w[0, 0, 0] = np.nan
        measure_to_csv(Measure(TypeSpace.regular(3, 2), w, validate=False), tmp_path / "nan.csv")
        # json writes NaN and Infinity literals, which the scenario loader reads
        cfg = write_config(tmp_path, {**GENERIC_N3, "initial_measure": spec})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert_refused_before_output(capsys, out, word)

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("case", [k for k in BAD_MEASURES if k.endswith("-leaf")])
    def test_malformed_inline_measure_refused_on_load(self, tmp_path, capsys, command, case):
        # the scenario loader checks every leaf of an inline measure, so the
        # commands that never read the measure refuse it with the line that
        # integrate and compare print (test_non_finite_measure_rejected)
        spec, word = BAD_MEASURES[case]
        cfg = write_config(tmp_path, {**GENERIC_N3, "initial_measure": spec})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert_refused_before_output(capsys, out, word)

    @pytest.mark.parametrize("command", ["integrate", "compare"])
    @pytest.mark.parametrize("warnings", ["default", "error::RuntimeWarning"])
    def test_overflowing_product_measure_one_line(self, tmp_path, command, warnings):
        # the per-site weights are finite but their product overflows: the
        # finite-total check refuses it with one line, no warning before it
        # and no traceback, also when warnings are errors
        spec = "product:1e200,1e200;1e200,1e200;1,1"
        cfg = write_config(tmp_path, {**GENERIC_N3, "initial_measure": spec})
        out = tmp_path / "out"
        proc = run_cli([command, "--config", str(cfg), "--out", str(out)], PYTHONWARNINGS=warnings)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert "finite total" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()


    @pytest.mark.parametrize("command", ["solve", "integrate", "simulate", "compare"])
    def test_non_utf8_file_one_line(self, tmp_path, command):
        # a file that is not UTF-8 (here a UTF-16 byte-order mark) cannot be
        # read as a scenario: one line and exit 2, no traceback, also when
        # the interpreter's own default encoding is UTF-8
        cfg = tmp_path / "scenario.json"
        cfg.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        proc = run_cli([command, "--config", str(cfg), "--out", str(out)], PYTHONUTF8="1")
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"configuration error: cannot read scenario {cfg}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "integrate", "simulate", "compare"])
    @pytest.mark.parametrize("doc, message", LOADER_REFUSALS.values(), ids=LOADER_REFUSALS)
    def test_loader_refusal_one_line(self, tmp_path, capsys, command, doc, message):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["integrate", "compare"])
    def test_measure_file_on_other_sites_one_line(self, tmp_path, capsys, command):
        # a uniform measure on two sites, for a scenario of three
        measure_to_csv(Measure(TypeSpace.regular(2, 2), np.full((2, 2), 0.25)), tmp_path / "m.csv")
        cfg = write_config(tmp_path, {**GENERIC_N3, "initial_measure": "file:m.csv"})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: measure file space TypeSpace(sites=(1, 2), sizes=(2, 2)) "
            "does not match the scenario\n"
        )
        assert not out.exists()

    def test_tv_tolerance_override_gates_compare(self, tmp_path):
        # a gate of 0.0 in place of max(0.01, 5 sqrt(B / N)): no sample of
        # 20,000 meets it, so only the Monte Carlo check fails
        cfg = write_config(tmp_path, {**GENERIC_N3, "tolerances": {"monte_carlo_tv": 0.0}})
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 4
        report = json.loads((out / "comparison.json").read_text())
        assert report["monte_carlo"]["gate"] == 0.0 and report["monte_carlo"]["tv"] > 0.0
        assert report["monte_carlo"]["pass"] is False and report["pass"] is False
        assert report["closed_vs_integrated"]["pass"] and report["measure_vs_mixture"]["pass"]


class TestCsvFormat:
    def test_trajectory_float_precision(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC_N3)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[0] == "t"
        # every numeric cell re-parses exactly through 17 significant digits
        for row in body:
            for cell in row:
                x = float(cell)
                assert format(x, ".17g") == cell


@st.composite
def scenario_docs(draw):
    """Small scenario documents: sizes, alphabets, rate supports (none, the
    single block only, or any set), steps, grids, samples and seeds."""
    n = draw(st.integers(1, 4))
    g = ground_set(n)
    support = draw(
        st.one_of(
            st.just([]),
            st.just([Partition.whole(g)]),
            st.lists(st.sampled_from(lattice(g).parts), unique=True),
        )
    )
    doc = {
        "n": n,
        "rates": {str(p): draw(st.floats(0.0, 3.0)) for p in support},
        "alphabet_sizes": draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        "initial_measure": draw(st.sampled_from([None, "uniform"])),
        "time_grid": {
            "start": 0,
            "end": draw(st.floats(0.1, 3.0)),
            "points": draw(st.integers(1, 5)),
        },
        "monte_carlo": {
            "samples": draw(st.integers(1, 2000)),
            "seed": draw(st.integers(0, 2**64)),
            "t": draw(st.one_of(st.none(), st.floats(0.0, 3.0))),
        },
    }
    step = draw(st.one_of(st.none(), st.floats(0.005, 1.0)))
    if step is not None:
        doc["step"] = step
    return doc


@settings(max_examples=50, deadline=None, database=None)
@given(doc=scenario_docs())
def test_compare_exit_code_and_finite_csv(doc):
    # every scenario ends in a known exit code, and neither compare's JSON
    # nor integrate's CSVs and JSON hold a non-finite number
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        compared, integrated = Path(tmp) / "compare", Path(tmp) / "integrate"
        assert main(["compare", "--config", str(cfg), "--out", str(compared)]) in (0, 2, 3, 4)
        assert main(["integrate", "--config", str(cfg), "--out", str(integrated)]) in (0, 2)
        assert_finite_outputs(compared, integrated)
