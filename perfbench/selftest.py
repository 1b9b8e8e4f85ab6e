"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Asserts that:

- the same seed gives byte-identical scenario files, and another seed
  changes rate values and the Monte Carlo seed only;
- every workload runs with no failed request, untraced and traced, and the
  untraced run reports every end-to-end metric;
- the exact counts of the traced run repeat across two runs with different
  seeds.

Runs are one second long, so the printed figures check the plumbing and are
not measurements.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from worker import ROOT

RUN = Path(__file__).resolve().parent / "run.py"
END_TO_END = ("setup_s", "scenarios_per_s", "request_p50_s", "peak_rss_mb")
EXACT_COUNTS = (
    "dynamics.rhs_evals",
    "process.samples",
    "measures.recombinator_calls",
    "partitions.lattices_built",
    "closed_form.degenerate_pairs",
)
SEEDS = (1, 2)


def check_scenarios() -> None:
    base = ROOT / ".perfbench" / "selftest"
    for workload in workloads.GENERATED:
        docs = {}
        for seed in SEEDS:
            first, second = (workloads.write_scenarios(workload, seed, ROOT, base / f"{workload}-{k}")
                             for k in ("a", "b"))
            for p, q in zip(first, second):
                assert p.read_bytes() == q.read_bytes(), f"{p} and {q} differ"
            docs[seed] = [json.loads(p.read_text()) for p in first]
        (one,), (two,) = docs[SEEDS[0]], docs[SEEDS[1]]
        assert one["rates"] != two["rates"], f"{workload}: seed does not change the rates"
        assert one["rates"].keys() == two["rates"].keys(), f"{workload}: seed changes the support"
        for doc in (one, two):
            doc.pop("rates")
            doc["monte_carlo"].pop("seed")
        assert one == two, f"{workload}: seed changes more than the rates"
        print(f"{workload}: scenarios byte-identical per seed; seeds differ in rates only")


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    print(proc.stdout, end="")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload}: failed requests\n{proc.stderr}"
    return result["metrics"]


def main() -> int:
    check_scenarios()
    for workload in workloads.WORKLOADS:
        metrics = run(workload, SEEDS[0], 0)
        missing = [m for m in END_TO_END if m not in metrics]
        assert not missing, f"{workload}: missing end-to-end metrics {missing}"
        counts = [run(workload, seed, 1) for seed in SEEDS]
        for name in EXACT_COUNTS:
            values = [c.get(name, {}).get("value") for c in counts]
            assert values[0] is not None and values[0] == values[1], f"{workload}: {name} {values}"
        print(f"{workload}: exact counts repeat: "
              + ", ".join(f"{n} = {counts[0][n]['value']}" for n in EXACT_COUNTS))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
