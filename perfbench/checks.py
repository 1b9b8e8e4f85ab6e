"""Output checks applied to every ``recomb compare`` request.

A request passes when it exited 0 and its ``comparison.json``:

- has ``pass: true``;
- has ``closed_vs_integrated.max`` and ``measure_vs_mixture.max`` (where
  present) at most the scenario tolerance, 1e-6;
- on ``sparse-n7-cold``, has ``closed_vs_linear_max`` at most 1e-10, the
  bound of acceptance criterion 5;
- has a Monte Carlo estimate within ``tv_bound`` of the reference in total
  variation, where it ran one.

The program's own Monte Carlo gate, max(0.01, 5 sqrt(B / N)), is above 1 on
the generated workloads (B = 203 or 877 partitions, N = 5000 samples), so it
can never fail there; ``tv_bound`` is the benchmark's own bound.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOLERANCE = 1e-6
LINEAR_TOLERANCE = 1e-10
TV_DELTA = 1e-9

# keys each generated workload must produce; the shipped files each take
# different branches, so there only the keys present are checked
REQUIRED = {
    "dense-n6": ("closed_vs_integrated", "measure_vs_mixture", "monte_carlo"),
    "sparse-n7-cold": ("closed_vs_integrated", "closed_vs_linear_max", "monte_carlo"),
}


def tv_bound(reference, n_samples: int, delta: float = TV_DELTA) -> float:
    """Total-variation bound for an N-sample empirical distribution against
    the true distribution p, exceeded with probability at most ``delta``.

    Mean: E|f_i - p_i| <= sd(f_i) = sqrt(p_i (1 - p_i) / N) by Jensen, so
    E[TV] <= 1/2 sum_i sqrt(p_i (1 - p_i) / N).
    Deviation: moving one sample changes TV by at most 1/N, so McDiarmid's
    inequality gives P(TV >= E[TV] + eps) <= exp(-2 N eps^2), that is
    eps = sqrt(ln(1 / delta) / (2 N)).

    The reference (closed form, or RK4 on the degenerate fallback) is within
    1e-6 of p, which the bound ignores.
    """
    mean = 0.5 * sum(math.sqrt(max(p, 0.0) * max(1.0 - p, 0.0) / n_samples) for p in reference)
    return mean + math.sqrt(math.log(1.0 / delta) / (2.0 * n_samples))


def _monte_carlo_problem(report: dict) -> str | None:
    mc = report["monte_carlo"]
    rows = report.get("closed") or report["integrated"]
    times = report["times"]
    k = min(range(len(times)), key=lambda i: abs(times[i] - mc["t"]))
    if abs(times[k] - mc["t"]) > 1e-12:
        return f"Monte Carlo time {mc['t']} is not on the grid"
    reference = dict(zip(report["partitions"], rows[k]))
    freqs = mc["frequencies"]
    if set(freqs) - set(reference):
        return "Monte Carlo produced partitions outside the lattice"
    tv = 0.5 * sum(abs(freqs.get(p, 0.0) - ref) for p, ref in reference.items())
    bound = tv_bound(reference.values(), mc["samples"])
    if not tv <= bound:
        return f"Monte Carlo TV {tv:.4g} above bound {bound:.4g}"
    return None


def problems(workload: str, code, out_dir: Path) -> list[str]:
    """Everything wrong with one request's result; empty when it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads((Path(out_dir) / "comparison.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable comparison.json: {exc}"]
    found = []
    for key in REQUIRED.get(workload, ()):
        if key not in report:
            found.append(f"missing {key}")
    if report.get("pass") is not True:
        found.append("pass is not true")
    for key in ("closed_vs_integrated", "measure_vs_mixture"):
        if key in report and not report[key]["max"] <= TOLERANCE:
            found.append(f"{key}.max {report[key]['max']:.3g} > {TOLERANCE}")
    if workload == "sparse-n7-cold":
        if report.get("linear_regime") is not True:
            found.append("linear_regime is not true")
        if not report.get("closed_vs_linear_max", math.inf) <= LINEAR_TOLERANCE:
            found.append(f"closed_vs_linear_max above {LINEAR_TOLERANCE}")
    if "monte_carlo" in report:
        problem = _monte_carlo_problem(report)
        if problem:
            found.append(problem)
    return found
