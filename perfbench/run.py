"""Benchmark of ``recomb compare``: seeded requests from one client in a
closed loop, measured end to end (``--trace 0``) or layer by layer
(``--trace 1``).

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 20 --trace 0

Run it from any directory of a source checkout; the program is imported from
the checkout's ``src``.  Outputs go under ``.perfbench/`` in the checkout.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit and sample count, the failed ratio,
and the environment.  Workloads, metrics and their expected movements are
described in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from speed import rescaled
from tracer import LAYER_METRICS
from worker import COLD, HERE, ROOT, SRC, child_env

# printed with the other metrics but left out of the result line: wall times,
# whose spread across runs is the host's (see METRICS.md)
PRINTED_ONLY = ("wall_setup_s", "wall_scenarios_per_s", "wall_request_p50_s")
DEADLINE_S = 170.0  # a run that is not done by then is stopped and fails

def unit(metric: str) -> str:
    if metric.endswith("scenarios_per_s"):
        return "1/s"
    for suffix, u in (("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return u
    return "count"


class Stopped(RuntimeError):
    """A worker failed to set up or ran past the deadline."""


def run_worker(args, out: Path, setup_only: bool, deadline: float) -> tuple[float, float, dict]:
    """Start one worker, time it from a fresh interpreter to READY, wait for
    it to end, and return the set-up time (wall and, untraced, rescaled to
    reference speed) and its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - start))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline - start)
        ready = proc.stdout.readline().strip() == "READY"
        ready_at = time.perf_counter()
        proc.stdout.close()
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any request child
        proc.wait()
        raise Stopped(f"worker in {out.name} passed the {DEADLINE_S:.0f} s deadline")
    if not ready or code != 0:
        raise Stopped(f"worker in {out.name} failed with exit code {code}")
    report = json.loads((out / "worker.json").read_text())
    samples = report.get("speed_samples")
    ref_setup_s = rescaled(start, ready_at, samples) if samples else None
    return ready_at - start, ref_setup_s, report


def median_layers(passes: list[dict]) -> dict:
    """Median per metric over traced passes; counts stay whole numbers."""
    out = {}
    for m, (kind, _) in LAYER_METRICS.items():
        if all(m in p for p in passes):
            median = statistics.median_low if kind == "count" else statistics.median
            out[m] = median(p[m] for p in passes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "recomb" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'recomb' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    # one worker at a time; the set-up-only ones run before and after the
    # serving one, so set-up is sampled at both ends of the run
    names = ["serve"] if args.trace else ["setup-1", "serve", "setup-2"]
    wall_setups, setups, reports = [], [], []
    try:
        for name in names:
            wall_setup_s, setup_s, report = run_worker(args, run_dir / name, name != "serve", deadline)
            wall_setups.append(wall_setup_s)
            setups.append(setup_s)
            reports.append(report)
    except (Stopped, OSError, ValueError) as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1
    serve = reports[names.index("serve")]

    attempted = failed = 0
    for report in reports:
        for rec in report["requests"]:
            attempted += 1
            found = checks.problems(args.workload, rec["code"], Path(rec["out"]))
            if found:
                failed += 1
                print(f"request {rec['out']}: {'; '.join(found)}", file=sys.stderr)
            shutil.rmtree(rec["out"], ignore_errors=True)

    timed = [r for r in serve["requests"] if r["phase"] == "timed"]
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
             f"env {json.dumps(serve['env'], sort_keys=True)}"]
    if args.trace:
        traced = [r["seconds"] for r in timed if r["traced"]]
        plain = [r["seconds"] for r in timed if not r["traced"]]
        passes = [r["layers"] for r in timed if "layers" in r]
        metrics = median_layers(passes) if passes else {}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        note = {m: f"median of {len(passes)} traced passes" for m in metrics}
        note["trace.overhead_s"] = (f"traced minus untraced request_p50_s, "
                                    f"n={len(traced)} and n={len(plain)}")
        for metric, reason in sorted(serve.get("absent", {}).items()):
            lines.append(f"{metric:32s} absent ({reason})")
    else:
        # a cold child that died before its first probe left no samples;
        # such a request has failed, and its wall time stands in
        ref_seconds = [r.get("ref_seconds", r["seconds"]) for r in timed]
        metrics = {
            "setup_s": statistics.median(setups),
            "scenarios_per_s": len(timed) / sum(ref_seconds),
            "request_p50_s": statistics.median(ref_seconds),
            "peak_rss_mb": serve["peak_rss_mb"],
            "wall_setup_s": statistics.median(wall_setups),
            "wall_scenarios_per_s": len(timed) / serve["window_s"],
            "wall_request_p50_s": statistics.median(r["seconds"] for r in timed),
        }
        ref = "at reference speed"
        note = {
            "setup_s": f"median of {len(setups)} fresh set-ups, {ref}",
            "scenarios_per_s": f"{len(timed)} requests in {sum(ref_seconds):.2f} s {ref}",
            "request_p50_s": f"median of n={len(timed)} requests, {ref}",
            "peak_rss_mb": "request-serving processes" + (", children included" if args.workload in COLD else ""),
            "wall_setup_s": f"median of {len(wall_setups)} fresh set-ups, wall time",
            "wall_scenarios_per_s": f"{len(timed)} requests in {serve['window_s']:.2f} s of wall time",
            "wall_request_p50_s": f"median of n={len(timed)} requests, wall time",
        }
    for metric, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        lines.append(f"{metric:32s} {shown} {unit(metric):6s} {note[metric]}")
    lines.append(f"{'failed_ratio':32s} {failed / attempted:14.6g} {'ratio':6s} "
                 f"{failed} of {attempted} requests of the run, warm-ups included")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()
                    if m not in PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
