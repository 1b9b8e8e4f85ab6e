"""Scenario files and table I/O for the command-line front end.

A scenario is a JSON document:

    {
      "n": 3,
      "alphabet_sizes": [2, 2, 2],            // optional, default all 2
      "rates": {"1|2,3": 0.4, "1|2|3": 0.8},  // partition text keys
      "two_block_only": false,                 // restrict keys to two-block partitions
      "initial_measure": "uniform",            // or "product:p1,p2;q1,q2" or "file:PATH"
                                               // or an inline nested array (dense tensor), optional
      "time_grid": {"start": 0, "end": 5.0, "points": 11},
      "step": 0.01,                            // optional integrator step
      "monte_carlo": {"samples": 100000, "seed": 42, "t": 1.0},   // optional
      "tolerances": {"closed_vs_integrated": 1e-6, "monte_carlo_tv": null}
    }

All emitted CSV numbers carry 17 significant digits so files re-parse to the
exact in-memory values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from recomb.dynamics import CoefficientTrajectory, MeasureTrajectory, RateSystem
from recomb.dynamics import check_step, program_cells
from recomb.measures import (
    MAX_STATES,
    Measure,
    TypeSpace,
    measure_from_csv,
    product_measure,
    uniform_measure,
)
from recomb.partitions import MAX_SITES, bell_number, ground_set, lattice
from recomb.process import EmpiricalDistribution

__all__ = [
    "ScenarioError",
    "TimeGrid",
    "MonteCarloBlock",
    "Tolerances",
    "Scenario",
    "FLOAT_FORMAT",
    "write_coefficient_csv",
    "write_measure_trajectory_csv",
    "write_empirical_csv",
]

FLOAT_FORMAT = ".17g"


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


def _integer(value, name: str) -> int:
    """A JSON integer, or an integral number such as 1e5; never a bool, a
    fractional number or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    """A JSON number as a float; never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ScenarioError(f"{name} is out of range, got {value!r}") from exc


@dataclass(frozen=True)
class TimeGrid:
    start: float
    end: float
    points: int

    def array(self) -> np.ndarray:
        if self.start != 0.0:
            raise ScenarioError("time grid must start at 0")
        if self.points < 1 or not (math.isfinite(self.end) and self.end > self.start):
            raise ScenarioError("time grid needs a finite end > 0 and at least one point")
        return np.linspace(self.start, self.end, self.points)


@dataclass(frozen=True)
class MonteCarloBlock:
    samples: int
    seed: int
    t: float | None = None  # defaults to the grid end


@dataclass(frozen=True)
class Tolerances:
    closed_vs_integrated: float = 1e-6
    monte_carlo_tv: float | None = None  # default: max(0.01, 5*sqrt(B(n)/N))

    def tv_gate(self, lattice_size: int, n_samples: int) -> float:
        if self.monte_carlo_tv is not None:
            return self.monte_carlo_tv
        return max(0.01, 5.0 * math.sqrt(lattice_size / n_samples))


@dataclass
class Scenario:
    n: int
    rates: RateSystem
    alphabet_sizes: tuple[int, ...]
    grid: TimeGrid
    two_block_only: bool = False
    initial_measure: str | list | None = None
    step: float | None = None
    monte_carlo: MonteCarloBlock | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    base_dir: Path = field(default_factory=Path)

    @property
    def ground(self) -> tuple[int, ...]:
        return ground_set(self.n)

    @property
    def space(self) -> TypeSpace:
        return TypeSpace(self.ground, self.alphabet_sizes)

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "Scenario":
        if "n" not in doc:
            raise ScenarioError("scenario needs a site count 'n'")
        n = _integer(doc["n"], "n")
        if not 1 <= n <= MAX_SITES:
            raise ScenarioError(f"n must be between 1 and {MAX_SITES}, got {n}")
        ground = ground_set(n)

        raw_rates = doc.get("rates", {})
        if not isinstance(raw_rates, dict):
            raise ScenarioError("rates must be a mapping of partition keys to numbers")
        two_block_only = doc.get("two_block_only", False)
        if not isinstance(two_block_only, bool):
            raise ScenarioError(f"two_block_only must be true or false, got {two_block_only!r}")
        # each key read to block labels, and all found by code at once; a
        # partition given twice keeps its first place and its last rate
        lat = lattice(ground)
        rows, values = [], []
        for key, value in raw_rates.items():
            try:
                row, blocks = lat.label_row(key)
            except ValueError as exc:
                raise ScenarioError(f"bad rate key {key!r}: {exc}") from exc
            if two_block_only and blocks != 2:
                raise ScenarioError(
                    f"two_block_only scenario has a non-two-block key {key!r}"
                )
            rows.append(row)
            values.append(_number(value, f"rate of {key!r}"))
        parsed = dict(zip(lat.lookup(rows).tolist(), values))
        try:
            rates = RateSystem.from_indices(ground, list(parsed), list(parsed.values()))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad rates: {exc}") from exc

        measure_spec = doc.get("initial_measure")
        if measure_spec is not None and not isinstance(measure_spec, (str, list)):
            raise ScenarioError(
                "initial_measure must be a string spec or an inline tensor"
            )
        if isinstance(measure_spec, list):
            # every leaf of an inline tensor is a JSON number, whichever
            # command runs; walked without recursion, however deep
            stack = [measure_spec]
            while stack:
                leaf = stack.pop()
                if isinstance(leaf, list):
                    stack.extend(reversed(leaf))
                else:
                    _number(leaf, "inline measure entry")

        for key in ("time_grid", "monte_carlo", "tolerances"):
            if not isinstance(doc.get(key), (dict, type(None))):
                raise ScenarioError(f"{key} must be a mapping")
        grid_doc = doc.get("time_grid") or {}
        mc_doc = doc.get("monte_carlo")
        tol_doc = doc.get("tolerances") or {}
        try:
            sizes = doc.get("alphabet_sizes")
            if sizes is None:
                sizes = (2,) * n
            elif isinstance(sizes, list):
                sizes = tuple(_integer(s, "alphabet_sizes entry") for s in sizes)
            else:
                raise ScenarioError("alphabet_sizes must be a list")
            grid = TimeGrid(
                _number(grid_doc.get("start", 0.0), "time_grid start"),
                _number(grid_doc.get("end", 1.0), "time_grid end"),
                _integer(grid_doc.get("points", 11), "time_grid points"),
            )
            step = doc.get("step")
            step = None if step is None else _number(step, "step")
            monte_carlo = None
            if mc_doc is not None:
                monte_carlo = MonteCarloBlock(
                    _integer(mc_doc["samples"], "monte_carlo samples"),
                    _integer(mc_doc["seed"], "monte_carlo seed"),
                    None if mc_doc.get("t") is None else _number(mc_doc["t"], "monte_carlo t"),
                )
            tv = tol_doc.get("monte_carlo_tv")
            tolerances = Tolerances(
                _number(
                    tol_doc.get("closed_vs_integrated", 1e-6), "tolerances closed_vs_integrated"
                ),
                None if tv is None else _number(tv, "tolerances monte_carlo_tv"),
            )
        except KeyError as exc:
            raise ScenarioError("monte_carlo block needs samples and seed") from exc
        for name in ("closed_vs_integrated", "monte_carlo_tv"):
            tol = getattr(tolerances, name)
            if tol is not None and not (math.isfinite(tol) and tol >= 0):
                raise ScenarioError(
                    f"tolerances {name} must be finite and nonnegative, got {tol}"
                )
        if len(sizes) != n or any(s < 1 for s in sizes):
            raise ScenarioError("alphabet_sizes must list one positive size per site")

        # a trajectory holds one value per partition, and one per type on the
        # measure route, at every grid point
        width = max(bell_number(n), math.prod(sizes) if measure_spec is not None else 1)
        if max(grid.points, 1) * width > MAX_STATES:
            raise ScenarioError(
                f"time grid of {grid.points} points x {width} values exceeds {MAX_STATES}"
            )
        if measure_spec is not None:
            cells = program_cells(rates, TypeSpace(ground, sizes))
            if cells > MAX_STATES:
                raise ScenarioError(
                    f"measure program of {cells} cell indices exceeds {MAX_STATES}"
                )
        grid.array()  # validate now

        scenario = cls(
            n=n,
            rates=rates,
            alphabet_sizes=sizes,
            grid=grid,
            two_block_only=two_block_only,
            initial_measure=measure_spec,
            step=step,
            monte_carlo=monte_carlo,
            tolerances=tolerances,
            base_dir=base_dir or Path(),
        )
        scenario.check()
        return scenario

    def check(self) -> None:
        """Check the fields the command line can override: the integrator
        step against the rates, and the Monte Carlo block."""
        if self.step is not None:
            try:
                check_step(self.step, self.rates)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
        mc = self.monte_carlo
        if mc is None:
            return
        # the sampler holds one end state per sample
        if not 1 <= mc.samples <= MAX_STATES:
            raise ScenarioError(
                f"monte_carlo samples must be between 1 and {MAX_STATES}, got {mc.samples}"
            )
        if not 0 <= mc.seed < 2**128:  # the Philox key range
            raise ScenarioError(f"monte_carlo seed must be in [0, 2**128), got {mc.seed}")
        if mc.t is not None and not (math.isfinite(mc.t) and mc.t >= 0):
            raise ScenarioError(f"monte_carlo t must be finite and nonnegative, got {mc.t}")

    @classmethod
    def from_file(cls, path) -> "Scenario":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError("scenario file must hold a JSON object")
        return cls.from_dict(doc, base_dir=path.parent)

    def build_measure(self) -> Measure | None:
        spec = self.initial_measure
        if spec is None:
            return None
        space = self.space
        if isinstance(spec, list):
            # inline dense tensor, nested by site in ascending order; its
            # leaves were checked to be numbers when the scenario loaded
            try:
                return Measure(space, np.asarray(spec, dtype=float))
            except ValueError as exc:
                raise ScenarioError(f"bad inline measure tensor: {exc}") from exc
        if spec == "uniform":
            return uniform_measure(space)
        if spec.startswith("product:"):
            body = spec[len("product:") :]
            try:
                site_weights = [
                    [float(x) for x in chunk.split(",")] for chunk in body.split(";")
                ]
                return product_measure(space, site_weights)
            except ValueError as exc:
                raise ScenarioError(f"bad product measure spec {spec!r}: {exc}") from exc
        if spec.startswith("file:"):
            path = Path(spec[len("file:") :])
            if not path.is_absolute():
                path = self.base_dir / path
            try:
                nu = measure_from_csv(path)
            except (OSError, ValueError) as exc:
                raise ScenarioError(f"cannot load measure {path}: {exc}") from exc
            if nu.space != space:
                raise ScenarioError(
                    f"measure file space {nu.space} does not match the scenario"
                )
            return nu
        raise ScenarioError(f"unknown initial_measure spec {spec!r}")

    def mc_time(self) -> float:
        if self.monte_carlo is None:
            raise ScenarioError("scenario has no monte_carlo block")
        return self.grid.end if self.monte_carlo.t is None else self.monte_carlo.t


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def write_coefficient_csv(
    path, traj: CoefficientTrajectory, include_drift: bool = False
) -> None:
    """Columns: t, one per partition key, optionally the conservation drift."""
    lat = lattice(traj.ground)
    drift = traj.drift
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t", *lat.names]
        if include_drift:
            header.append("drift")
        writer.writerow(header)
        for k, t in enumerate(traj.times):
            row = [_fmt(t)] + [_fmt(v) for v in traj.values[k]]
            if include_drift:
                row.append(_fmt(drift[k]))
            writer.writerow(row)


def write_measure_trajectory_csv(path, traj: MeasureTrajectory, mixture_dev: np.ndarray) -> None:
    """Columns: t, one per state (letters joined by '.'), drift, and the
    deviation from the coefficient-mixture representation."""
    space = traj.space
    labels = [".".join(str(c) for c in coords) for coords in np.ndindex(*space.sizes)]
    drift = traj.drift
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + labels + ["drift", "mixture_dev"])
        flat = traj.tensors.reshape(traj.tensors.shape[0], -1)
        for k, t in enumerate(traj.times):
            writer.writerow(
                [_fmt(t)] + [_fmt(v) for v in flat[k]] + [_fmt(drift[k]), _fmt(mixture_dev[k])]
            )


def write_empirical_csv(path, dist: EmpiricalDistribution) -> None:
    """Columns: partition key, count, frequency; rows sorted by key."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partition", "count", "frequency"])
        for name, c in dist.named_counts():
            writer.writerow([name, c, _fmt(c / dist.n_samples)])
