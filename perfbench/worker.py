"""One serving process of the benchmark: set up, then send ``recomb compare``
requests in a closed loop with one client until the time is up.

Warm workloads call ``recomb.cli.main`` in this process, after one untimed
warm-up pass that fills the per-process lattice cache.  The cold workload
starts one ``python -m recomb.cli compare`` child per request, one at a time.

Protocol with ``run.py``: the worker prints ``READY`` on standard output when
set-up is done, and at exit writes ``worker.json`` into its ``--out``
directory.  Request outputs are checked by ``run.py`` after the worker ended,
so checking costs no request time.

With ``--trace 0`` the worker samples its speed from its start (see
``speed.py``), and each request records its wall time rescaled to reference
speed; a cold request samples in its child, through ``sampled_cli.py``.
With ``--trace 1`` untraced and traced passes alternate; traced passes run
with the wrappers of ``tracer.py`` installed (in-process, or in the child
through ``traced_cli.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD = {"sparse-n7-cold"}

import workloads  # this directory is sys.path[0]
from speed import Sampler, rescaled
from tracer import Tracer


def environment() -> dict:
    """Versions, BLAS and its thread count, and the load the benchmark makes."""
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "load": "one client process with at most nproc threads; cold-workload children run one at a time",
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    return env


def _blas_threads():
    """Thread count of the OpenBLAS that numpy links, or None if not found."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)  # symbol lookup covers its BLAS
    except (ImportError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Server:
    def __init__(self, args, scenarios, cli, import_s, sampler):
        self.args = args
        self.scenarios = scenarios
        self.cli = cli
        self.import_s = import_s
        self.out = Path(args.out)
        self.requests: list[dict] = []
        self.tracer = Tracer() if args.trace else None
        self.sampler = sampler  # None when tracing

    def request(self, scenario: Path, phase: str, traced: bool) -> dict:
        index = len(self.requests)
        out = self.out / f"req-{index:04d}"
        argv = ["compare", "--config", str(scenario), "--out", str(out), "--seed", str(self.args.seed)]
        rec = {"index": index, "scenario": scenario.name, "out": str(out), "phase": phase, "traced": traced}
        cold = self.args.workload in COLD
        if cold:
            self._cold(argv, rec)
        else:
            self._warm(argv, rec)
        result = out / "comparison.json"
        rec["output_bytes"] = result.stat().st_size if result.is_file() else 0
        if cold and rec["traced"] and Path(rec["spans"]).is_file():
            child = json.loads(Path(rec["spans"]).read_text())
            rec["layers"] = {**child["layers"], "cli.output_bytes": rec["output_bytes"]}
            self.tracer.absent.update(child["absent"])
        self.requests.append(rec)
        return rec

    def _warm(self, argv, rec) -> None:
        tracer = self.tracer if rec["traced"] else None
        if tracer:
            tracer.request = rec["index"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rec["code"] = self.cli.main(argv)
        except Exception:  # a crash is a failed request, not the end of the run
            traceback.print_exc()
            rec["code"] = "exception"
        end = time.perf_counter()
        rec["seconds"] = end - start
        if self.sampler:
            rec["ref_seconds"] = rescaled(start, end, self.sampler.samples)

    def _cold(self, argv, rec) -> None:
        samples = self.out / f"speed-{rec['index']:04d}.json"
        if rec["traced"]:
            rec["spans"] = str(self.out / f"spans-{rec['index']:04d}.json")
            cmd = [sys.executable, str(HERE / "traced_cli.py"), rec["spans"], *argv]
        elif self.sampler:
            cmd = [sys.executable, str(HERE / "sampled_cli.py"), str(samples), *argv]
        else:
            cmd = [sys.executable, "-m", "recomb.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, cwd=ROOT)
        end = time.perf_counter()
        rec["seconds"] = end - start
        rec["code"] = proc.returncode
        if self.sampler and samples.is_file():
            probes = json.loads(samples.read_text())
            samples.unlink()
            if probes:
                rec["ref_seconds"] = rescaled(start, end, probes)

    def one_pass(self, phase: str, traced: bool) -> list[dict]:
        """One request per scenario.  A traced warm pass sums its requests'
        layer totals; a traced cold pass reads them from the child."""
        warm_tracer = self.tracer if traced and self.args.workload not in COLD else None
        if warm_tracer:
            warm_tracer.install()
            warm_tracer.reset_totals()
        try:
            recs = [self.request(s, phase, traced) for s in self.scenarios]
        finally:
            if warm_tracer:
                warm_tracer.uninstall()
        if warm_tracer:
            extra = {"cli.import_s": self.import_s,
                     "cli.output_bytes": sum(r["output_bytes"] for r in recs)}
            recs[0]["layers"] = warm_tracer.layer_metrics(extra)
        return recs

    def serve(self) -> dict:
        """Whole passes until --seconds have gone by; with tracing, passes
        alternate untraced/traced and the run ends after a traced one."""
        passes = 0
        start = time.perf_counter()
        while True:
            traced = bool(self.args.trace) and passes % 2 == 1
            self.one_pass("timed", traced)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= self.args.seconds and (not self.args.trace or passes % 2 == 0):
                break
        return {"window_s": elapsed, "passes": passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sampler = None
    if not args.trace:
        sampler = Sampler()
        sampler.start()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    import recomb.cli as cli  # timed: the import is part of set-up
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"recomb imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    scenarios = workloads.write_scenarios(args.workload, args.seed, ROOT, out / "scenarios")
    server = Server(args, scenarios, cli, import_s, sampler)
    if args.workload not in COLD:
        server.one_pass("warmup", False)
    print("READY", flush=True)
    if sampler and args.workload in COLD:
        sampler.stop()  # cold requests sample in their own process

    report = {"import_s": import_s, "env": environment()}
    if not args.setup_only:
        report.update(server.serve())
    if sampler:
        sampler.stop()
        report["speed_samples"] = sampler.samples
    report["peak_rss_mb"] = peak_rss_mb()
    report["requests"] = server.requests
    if server.tracer:
        report["absent"] = server.tracer.absent
        if server.tracer.spans:  # cold-workload spans are in each child's file
            (out / "spans.json").write_text(json.dumps(server.tracer.spans))
    (out / "worker.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
