"""Machine-speed sampler, used to rescale wall times to a reference speed.

On a shared VM a vCPU can run the same code at speeds up to 2x apart, and
a speed can hold for a few seconds or for minutes.  A wall time therefore says as much
about the host as about the program.  While it measures, a process samples
its own speed: every ``PERIOD_S`` a ``SIGALRM`` handler runs a fixed probe
in the measured thread and records the probe's CPU time.  The probe mixes
what the program does: small numpy calls and scalar draws from a Philox
generator (as in the Monte Carlo and RK4 loops) and generator expressions,
``any`` and frozenset tests (as in the partition lattice).  So it slows and
speeds up with the program.  Either half alone tracked some workload less
well, and so did a probe a third as long: a short probe mostly measures
refilling the caches the program has just used.

``rescaled`` turns a wall interval into seconds at reference speed, the
speed at which one probe takes ``REF_PROBE_S`` of CPU time.  The probes'
own time is left out.  A change to the program moves rescaled times as it
moves wall times; a change in host speed moves them far less.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.04
REF_PROBE_S = 500e-6
SMOOTH = 2  # neighbours on each side whose median stands for a probe


class Sampler:
    """Runs the probe every ``PERIOD_S`` of wall time from ``start`` to
    ``stop``; ``samples`` holds (wall start, wall end, CPU seconds) per probe,
    on the ``time.perf_counter`` clock, which all processes share."""

    def __init__(self):
        import numpy as np  # here, so that importing this module stays cheap

        self.vec = np.arange(64, dtype=float)
        self.rng = np.random.Generator(np.random.Philox(key=0))
        self.sets = [frozenset(range(i, i + 5)) for i in range(40)]
        self.samples: list[tuple[float, float, float]] = []
        self.probe()  # the first call pays for lazy set-up in numpy

    def probe(self) -> float:
        """CPU time of one fixed probe in this thread."""
        vec, rng, sets = self.vec, self.rng, self.sets
        start = time.thread_time()
        acc, table = 0.0, {}
        for i in range(80):
            table[i & 15] = acc
            acc += float(vec @ vec[::-1]) * 1e-9 + rng.exponential() + (i * 0.5) % 7.0
        for _ in range(3):
            for a in sets:
                acc += any(b <= a for b in sets[:12]) + len(tuple(x for x in a if x & 1))
        return time.thread_time() - start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = self.probe()
        self.samples.append((start, time.perf_counter(), cpu))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def rescaled(a: float, b: float, samples: list) -> float:
    """Wall time from ``a`` to ``b``, less the probes in it, at reference speed.

    Each stretch before a probe is scaled by the speed that probe measured;
    the stretch after the last probe before ``b`` by that last probe.  With
    no probe before ``b`` at all, the first probe stands in.  A probe's CPU
    time is taken as the median over it and its two neighbours on each side,
    so one disturbed probe does not set the scale of its stretch.
    """
    if not samples:
        raise ValueError("no speed samples")

    def scale(k: int) -> float:
        window = samples[max(0, k - SMOOTH):k + SMOOTH + 1]
        return REF_PROBE_S / statistics.median(cpu for _, _, cpu in window)

    i = bisect.bisect_left(samples, a, key=lambda s: s[0])
    total, t = 0.0, a
    while i < len(samples) and samples[i][0] < b:
        start, end, _ = samples[i]
        total += max(0.0, start - t) * scale(i)
        t = max(t, min(end, b))
        i += 1
    return total + max(0.0, b - t) * scale(max(i - 1, 0))
