"""Spans and counters around the program's public entry points.

The wrappers live in the benchmark's own files; the program is not edited.
Each entry point is looked up by its public name and rebound wherever a
``recomb`` module holds it, so calls made through ``from ... import`` names
are seen too.  An entry point that is missing, or no longer has the expected
shape (say ``Lattice.finer`` stopped being a lazy property), is recorded as
absent: its metrics are left out of the result and the run goes on.

A span's self time is its duration minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import tracemalloc

# metric -> (kind, what it is made from); "self" metrics are span self times
# in seconds, "count" metrics are exact call or item counts.
LAYER_METRICS = {
    "partitions.lattice_s": ("self", "partitions.lattice"),
    "partitions.lattices_built": ("count", "partitions.lattices_built"),
    "partitions.finer_s": ("self", "partitions.finer"),
    "partitions.mobius_s": ("self", "partitions.mobius"),
    "partitions.restriction_s": ("self", "partitions.restriction"),
    "partitions.restriction_calls": ("count", "partitions.restriction_calls"),
    "cli.import_s": ("extra", "cli.import_s"),
    "cli.self_s": ("self", "cli"),
    "cli.output_bytes": ("extra", "cli.output_bytes"),
    "closed_form.build_s": ("self", "closed_form.build"),
    "closed_form.builds": ("count", "closed_form.builds"),
    "closed_form.refused": ("count", "closed_form.refused"),
    "closed_form.degenerate_pairs": ("count", "closed_form.degenerate_pairs"),
    "closed_form.evaluate_s": ("self", "closed_form.evaluate"),
    "closed_form.linear_s": ("self", "closed_form.linear"),
    "dynamics.rhs_compile_s": ("self", "dynamics.rhs_compile"),
    "dynamics.coeff_rk4_s": ("self", "dynamics.coeff_rk4"),
    "dynamics.measure_rk4_s": ("self", "dynamics.measure_rk4"),
    "dynamics.rhs_evals": ("count", "dynamics.rhs_evals"),
    "dynamics.coeff_rhs_us": ("ratio", ("dynamics.coeff_rk4", "dynamics.coeff_rhs_evals")),
    "dynamics.measure_rhs_us": ("ratio", ("dynamics.measure_rk4", "dynamics.measure_rhs_evals")),
    "dynamics.measure_alloc_peak_mb": ("peak", "dynamics.measure_alloc_peak_mb"),
    "measures.mixture_s": ("self", "measures.mixture"),
    "measures.recombinator_calls": ("count", "measures.recombinator_calls"),
    "process.mc_s": ("self", "process.mc"),
    "process.samples": ("count", "process.samples"),
    "process.sample_us": ("ratio", ("process.mc", "process.samples")),
    "scenario.load_s": ("self", "scenario.load"),
    "scenario.measure_s": ("self", "scenario.measure"),
}


def rk4_evaluations(times, step) -> int:
    """Right-hand-side evaluations of classical fixed-step RK4 over a grid:
    four per substep, ceil(span / step) substeps per grid interval."""
    evals = 0
    for a, b in zip(times[:-1], times[1:]):
        evals += 4 * max(1, math.ceil((b - a) / step - 1e-12))
    return evals


class Tracer:
    """In-memory spans of traced requests, plus per-request totals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, parent id, request, name, start, end)
        self.request = None
        self._stack: list[list] = []  # open spans: [id, name, start, child time]
        self._next_id = 0
        self._installed: list[tuple] = []  # (owner, attribute, original)
        self.absent: dict[str, str] = {}  # metric -> reason
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, float] = {}

    # spans -----------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, self.request, name, start, end))

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def reset_totals(self) -> None:
        self.self_time, self.counts, self.peaks = {}, {}, {}

    def layer_metrics(self, extra: dict) -> dict:
        """Layer metrics from the totals gathered since the last reset.

        A ratio whose base is 0 (say, no measure route on this workload)
        reads 0."""
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if metric in self.absent:
                continue
            if kind == "self":
                out[metric] = self.self_time.get(source, 0.0)
            elif kind == "count":
                out[metric] = self.counts.get(source, 0)
            elif kind == "peak":
                out[metric] = self.peaks.get(source, 0.0)
            elif kind == "ratio":
                span, base = source
                n = self.counts.get(base, 0)
                out[metric] = self.self_time.get(span, 0.0) / n * 1e6 if n else 0.0
            elif source in extra:
                out[metric] = extra[source]
        return out

    # wrapping --------------------------------------------------------------

    def _mark_absent(self, metrics, reason: str) -> None:
        for m in metrics:
            self.absent.setdefault(m, reason)

    def _wrapper(self, fn, span=None, counter=None, before=None, after=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer.count(counter)
            if before:
                before(args, kwargs)
            if span:
                tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                if span:
                    tracer.exit()
            if after:
                after(args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "recomb" and not name.startswith("recomb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _function(self, module, name, metrics, **hooks):
        original = getattr(sys.modules.get(module), name, None)
        if not callable(original):
            self._mark_absent(metrics, f"{module}.{name} not found")
            return
        self._rebind(original, self._wrapper(original, **hooks))

    def _member(self, module, qualname, shape, metrics, **hooks):
        cls_name, attr = qualname.split(".")
        cls = getattr(sys.modules.get(module), cls_name, None)
        static = inspect.getattr_static(cls, attr, None) if inspect.isclass(cls) else None
        if shape == "property" and isinstance(static, property) and static.fget:
            new = property(self._wrapper(static.fget, **hooks), static.fset, static.fdel, static.__doc__)
        elif shape == "classmethod" and isinstance(static, classmethod):
            new = classmethod(self._wrapper(static.__func__, **hooks))
        elif shape == "method" and inspect.isfunction(static):
            new = self._wrapper(static, **hooks)
        else:
            self._mark_absent(metrics, f"{module}.{qualname} is not a {shape}")
            return
        self._installed.append((cls, attr, static))
        setattr(cls, attr, new)

    def _parameter_getter(self, fn, param, metrics):
        """Function reading one named argument of calls to fn, or None."""
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        if sig is None or param not in sig.parameters:
            self._mark_absent(metrics, f"{getattr(fn, '__qualname__', fn)} has no parameter {param!r}")
            return None

        def get(args, kwargs):
            return sig.bind(*args, **kwargs).arguments[param]

        return get

    def install(self) -> None:
        """Wrap every traced entry point; idempotent per install/uninstall pair."""
        if self._installed:
            return
        self._member("recomb.partitions", "Lattice.__init__", "method",
                     ["partitions.lattice_s", "partitions.lattices_built"],
                     span="partitions.lattice", counter="partitions.lattices_built")
        self._member("recomb.partitions", "Lattice.finer", "property",
                     ["partitions.finer_s"], span="partitions.finer")
        self._member("recomb.partitions", "Lattice.mobius_matrix", "property",
                     ["partitions.mobius_s"], span="partitions.mobius")
        self._member("recomb.partitions", "Lattice.restriction_index", "method",
                     ["partitions.restriction_s", "partitions.restriction_calls"],
                     span="partitions.restriction", counter="partitions.restriction_calls")
        self._function("recomb.cli", "main", ["cli.self_s"], span="cli")
        self._member("recomb.scenario", "Scenario.from_file", "classmethod",
                     ["scenario.load_s"], span="scenario.load")
        self._member("recomb.scenario", "Scenario.build_measure", "method",
                     ["scenario.measure_s"], span="scenario.measure")
        self._install_closed_form()
        self._install_dynamics()
        self._function("recomb.measures", "mixture", ["measures.mixture_s"], span="measures.mixture")
        self._function("recomb.measures", "recombinator", ["measures.recombinator_calls"],
                       counter="measures.recombinator_calls")
        self._install_process()

    def _install_closed_form(self) -> None:
        def pairs(source, metric="closed_form.degenerate_pairs"):
            found = getattr(getattr(source, "report", None), "pairs", None)
            if found is None:
                self._mark_absent([metric], "degeneracy report has no pairs list")
            else:
                self.count(metric, len(found))

        def refused(exc):
            if hasattr(exc, "report"):
                self.count("closed_form.refused")
                pairs(exc)

        self._function("recomb.closed_form", "build_closed_form",
                       ["closed_form.build_s", "closed_form.builds", "closed_form.refused",
                        "closed_form.degenerate_pairs"],
                       span="closed_form.build", counter="closed_form.builds",
                       after=lambda args, kwargs, sol: pairs(sol), on_error=refused)
        self._member("recomb.closed_form", "ClosedFormSolution.evaluate", "method",
                     ["closed_form.evaluate_s"], span="closed_form.evaluate")
        self._function("recomb.closed_form", "linear_solution", ["closed_form.linear_s"],
                       span="closed_form.linear")

    def _install_dynamics(self) -> None:
        """RK4 spans, preceded by one public right-hand-side call on the same
        rate system: the first call compiles the program the integrator
        reuses, so compilation is timed apart from integration."""
        dyn = sys.modules.get("recomb.dynamics")
        for route, integrate_name, rhs_name, state_param in (
            ("coeff", "integrate_coefficients", "coefficient_rhs", "a0"),
            ("measure", "integrate_measure", "measure_rhs", "omega0"),
        ):
            integrate = getattr(dyn, integrate_name, None)
            rhs = getattr(dyn, rhs_name, None)
            rk4_metrics = [f"dynamics.{route}_rk4_s", f"dynamics.{route}_rhs_us", "dynamics.rhs_evals"]
            if route == "measure":
                rk4_metrics.append("dynamics.measure_alloc_peak_mb")
            if integrate is None:
                self._mark_absent(rk4_metrics + ["dynamics.rhs_compile_s"], f"recomb.dynamics.{integrate_name} not found")
                continue
            get_rates = self._parameter_getter(integrate, "rates", ["dynamics.rhs_compile_s"])
            get_state = self._parameter_getter(integrate, state_param, ["dynamics.rhs_compile_s"])
            if rhs is None:
                self._mark_absent(["dynamics.rhs_compile_s"], f"recomb.dynamics.{rhs_name} not found")
            compile_first = rhs is not None and get_rates is not None and get_state is not None
            self._rebind(integrate, self._integrate_wrapper(
                integrate, route, rhs if compile_first else None, get_rates, get_state))

    def _integrate_wrapper(self, integrate, route, rhs, get_rates, get_state):
        tracer = self
        evals = f"dynamics.{route}_rhs_evals"
        measure = route == "measure"

        @functools.wraps(integrate)
        def wrapper(*args, **kwargs):
            if measure:
                tracemalloc.start()
            try:
                if rhs is not None:
                    tracer.enter("dynamics.rhs_compile")
                    try:
                        rhs(get_state(args, kwargs), get_rates(args, kwargs))
                    finally:
                        tracer.exit()
                tracer.enter(f"dynamics.{route}_rk4")
                try:
                    traj = integrate(*args, **kwargs)
                finally:
                    tracer.exit()
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = "dynamics.measure_alloc_peak_mb"
                    tracer.peaks[key] = max(tracer.peaks.get(key, 0.0), peak)
            times, step = getattr(traj, "times", None), getattr(traj, "step", None)
            if times is None or step is None:
                tracer._mark_absent([f"dynamics.{route}_rhs_us", "dynamics.rhs_evals"],
                                    "trajectory has no times/step")
            else:
                n = rk4_evaluations(list(times), float(step))
                tracer.count(evals, n)
                tracer.count("dynamics.rhs_evals", n)
            return traj

        return wrapper

    def _install_process(self) -> None:
        proc = sys.modules.get("recomb.process")
        fn = getattr(proc, "estimate_distribution", None)
        metrics = ["process.mc_s", "process.samples", "process.sample_us"]
        if fn is None:
            self._mark_absent(metrics, "recomb.process.estimate_distribution not found")
            return
        get_samples = self._parameter_getter(fn, "n_samples", metrics[1:])
        before = None
        if get_samples is not None:
            def before(args, kwargs):
                self.count("process.samples", int(get_samples(args, kwargs)))
        self._rebind(fn, self._wrapper(fn, span="process.mc", before=before))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []
