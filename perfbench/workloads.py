"""Seeded scenario files for the benchmark workloads.

The seed changes rate values (and the Monte Carlo seed) only.  Support,
site count, alphabets, time grid, integrator step and sample counts are
fixed per workload, so every seed asks for the same amount of work.  Rates
are scaled to a fixed total because the default integrator step is
0.05 / total: a seed-dependent total would change the RK4 substep count.

Only the standard library is used, so the inputs do not depend on the
program under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GENERATED = ("dense-n6", "sparse-n7-cold")
WORKLOADS = ("shipped",) + GENERATED
SHIPPED_DIR = Path("scripts") / "scenarios"
SHIPPED_FILES = ("n3_generic.json", "n4_bad_degenerate.json", "n4_single_crossover.json")
RATE_TOTAL = 3.0
GRID = {"start": 0, "end": 2.0, "points": 9}
MC_SAMPLES = 5000
MC_T = 1.0


def set_partitions(n: int) -> list[str]:
    """Partition keys of {1..n} in restricted-growth-string order."""
    keys = []

    def rec(labels: list[int], used: int) -> None:
        if len(labels) == n:
            blocks = [[] for _ in range(used)]
            for site, lab in enumerate(labels, start=1):
                blocks[lab].append(str(site))
            keys.append("|".join(",".join(b) for b in blocks))
            return
        for v in range(used + 1):
            rec(labels + [v], used + (v == used))

    rec([], 0)
    return keys


def ordered_two_block(n: int) -> list[str]:
    """The n - 1 interval splits 1..k | k+1..n."""
    sites = [str(s) for s in range(1, n + 1)]
    return [",".join(sites[:k]) + "|" + ",".join(sites[k:]) for k in range(1, n)]


def _scaled_rates(keys: list[str], rng: random.Random) -> dict[str, float]:
    draws = [1.0 - rng.random() for _ in keys]  # in (0, 1], so every rate is positive
    scale = RATE_TOTAL / sum(draws)
    return {k: d * scale for k, d in zip(keys, draws)}


def generated_scenario(workload: str, seed: int) -> dict:
    """Scenario document of a generated workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-n6":
        doc = {
            "n": 6,
            "alphabet_sizes": [3, 3, 3, 2, 2, 2],
            "rates": _scaled_rates(set_partitions(6), rng),
            "initial_measure": "uniform",
        }
    elif workload == "sparse-n7-cold":
        doc = {"n": 7, "rates": _scaled_rates(ordered_two_block(7), rng)}
    else:
        raise ValueError(f"no generated scenario for workload {workload!r}")
    doc["time_grid"] = dict(GRID)
    doc["monte_carlo"] = {"samples": MC_SAMPLES, "seed": seed, "t": MC_T}
    return doc


def write_scenarios(workload: str, seed: int, root: Path, out_dir: Path) -> list[Path]:
    """Write or locate the workload's scenario files; returns their paths.

    ``shipped`` uses the committed scenario files under ``root`` as they are;
    the seed reaches those requests through ``--seed``.
    """
    if workload == "shipped":
        paths = [root / SHIPPED_DIR / name for name in SHIPPED_FILES]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            raise FileNotFoundError(f"shipped scenarios missing: {missing}")
        return paths
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-{seed}.json"
    path.write_text(json.dumps(generated_scenario(workload, seed), indent=1, sort_keys=True) + "\n")
    return [path]
