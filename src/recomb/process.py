"""Exact continuous-time Monte Carlo simulation of the backward partitioning
chain on the partition lattice.

The chain starts from the single-block partition and progressively refines:
each block is replaced by a proper partition of itself at the corresponding
marginal rate, independently across blocks.  Its distribution at time t
matches the coefficient vector of the forward dynamics, which is what the
estimator here is compared against.

The chain's state is an index into ``lattice(rates.ground)``.  One jump loop,
``_final_indices``, samples it by the direct method: an exponential waiting
time at the state's exit rate, then a successor drawn from a CSR jump table
over the states reachable from the start, which each sampler call builds
once and passes in.  All replicates advance together, in blocks of 4096, one
vectorised waiting-time and jump round at a time; every jump strictly
refines, so n sites take at most n - 1 rounds.  The generator is
counter-based (numpy Philox), so seeded replicate streams are reproducible
and independent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from recomb.dynamics import RateSystem
from recomb.partitions import Partition, is_refinement, lattice, restrict

__all__ = [
    "GENERATOR_NAME",
    "make_rng",
    "EmpiricalDistribution",
    "simulate_path",
    "estimate_distribution",
    "transition_product_check",
    "BlockIndependenceReport",
    "tv_distance",
]

GENERATOR_NAME = "philox"

# replicates advanced together; bounds the sampler's temporaries
_BLOCK = 4096


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator; stream identity goes into metadata."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass
class EmpiricalDistribution:
    """Replicate counts per partition, with the sampling metadata."""

    counts: dict[Partition, int]
    n_samples: int
    t: float
    seed: int | None = None
    generator: str = GENERATOR_NAME

    def frequency(self, p: Partition) -> float:
        return self.counts.get(p, 0) / self.n_samples

    def frequencies(self) -> dict[Partition, float]:
        return {p: c / self.n_samples for p, c in self.counts.items()}


def _jump_table(rates: RateSystem, start: int):
    """The chain's generator as CSR arrays over ``lattice(rates.ground)``:
    row s lists successors[indptr[s]:indptr[s + 1]] and their cumulative
    rates.  Each block U of s is replaced by every rated proper partition of
    U at U's marginal rate; blocks in order, each block's partitions sorted
    by text.  Only states reachable from start have rows, each found in the
    frontier round of its first jump; every other row is empty."""
    lat, n = lattice(rates.ground), len(rates.ground)
    bits = 1 << np.arange(n)
    seen, reached = np.zeros((2, lat.size), dtype=bool)
    reached[start] = True
    jumps = []  # per round: states, block positions, successors, rates
    while (frontier := np.flatnonzero(reached & ~seen)).size:
        seen[frontier] = True
        lab = lat.labels[frontier]
        masks = (lab[:, None, :] == np.arange(n)[:, None]) @ bits  # sites of block k
        row, k = np.nonzero(masks & (masks - 1))  # blocks of two or more sites
        pieces = [(row[:0],) * 2 + (lab[:0], np.empty(0))]  # for a round with no split
        for u in np.unique(masks[row, k]).tolist():
            cols = np.flatnonzero(u & bits)
            sub = lattice(tuple(rates.ground[c] for c in cols))
            marg = rates.marginal(sub.ground)
            j = [j for j in np.flatnonzero(marg).tolist() if j != sub.top_index]
            j.sort(key=lambda j: str(sub.parts[j]))
            hit = np.flatnonzero(masks[row, k] == u)
            at, rank = np.repeat(hit, len(j)), np.tile(np.arange(len(j)), hit.size)
            new = lab[row[at]]
            new[:, cols] = n + sub.labels[j][rank]  # fresh labels on U's sites
            pieces.append((frontier[row[at]], k[at], new, marg[j][rank]))
        state, position, new, rate = map(np.concatenate, zip(*pieces))
        jumps.append((state, position, lat._lookup(new), rate))
        reached[jumps[-1][2]] = True
    state, position, successors, rate = map(np.concatenate, zip(*jumps))
    order = np.lexsort((position, state))  # stable, so each block's splits stay in text order
    state, successors, rate = state[order], successors[order], rate[order]
    rows = np.split(rate, np.flatnonzero(np.diff(state)) + 1)  # summed one row at a time
    indptr = np.searchsorted(state, np.arange(lat.size + 1))
    return indptr, successors, np.concatenate([np.cumsum(r) for r in rows])


def _final_indices(table, i: int, t_end: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Lattice indices at t_end of n replicates of the chain, each started
    from index i, with ``table`` the (indptr, successors, cumulative) arrays
    of ``_jump_table`` for a start from which i is reachable.

    The replicates advance together, in blocks of ``_BLOCK``.  Each round
    draws, for every live replicate, an exponential waiting time at its
    state's exit rate, then, for those still before t_end, a successor with
    probability proportional to its rate.  A state without successors is
    absorbing and retires without a draw.  Every jump strictly refines, so a
    block takes at most one round fewer than there are sites."""
    indptr, successors, cumulative = table
    ends = np.full(n, i, dtype=np.intp)
    for first in range(0, n, _BLOCK):
        block = ends[first : first + _BLOCK]  # a view: jumps write into ends
        live = np.arange(block.size)
        clock = np.zeros(block.size)
        while live.size:
            lo, hi = indptr[block[live]], indptr[block[live] + 1]
            moving = lo < hi
            live, clock, lo, hi = live[moving], clock[moving], lo[moving], hi[moving]
            total = cumulative[hi - 1]
            with np.errstate(over="ignore"):  # subnormal total: infinite wait
                scale = 1.0 / total
            clock = clock + rng.exponential(scale)
            jumps = clock <= t_end
            live, clock, lo, hi, total = (
                a[jumps] for a in (live, clock, lo, hi, total)
            )
            # bisect_right of each draw in its own slice of the cumulative
            # rates, clipped to the slice's last entry
            u = rng.random(live.size) * total
            last = hi - 1
            for _ in range(int((hi - lo).max(initial=0)).bit_length()):
                mid = (lo + hi) >> 1
                right = cumulative.take(mid, mode="clip") <= u
                searching = lo < hi
                lo = np.where(searching & right, mid + 1, lo)
                hi = np.where(searching & ~right, mid, hi)
            block[live] = successors[np.minimum(lo, last)]
    return ends


def _start_index(rates: RateSystem, t_end: float, start: Partition | None) -> int:
    if t_end < 0:
        raise ValueError("time horizon must be nonnegative")
    lat = lattice(rates.ground)
    if start is None:
        return lat.top_index
    if start.ground != rates.ground:
        raise ValueError("start partition is not on the ground set")
    return lat.index[start]


def simulate_path(
    rates: RateSystem,
    t_end: float,
    rng: np.random.Generator,
    start: Partition | None = None,
) -> Partition:
    """Value of the chain at t_end, started from the single-block partition
    (or from ``start``)."""
    i = _start_index(rates, t_end, start)
    return lattice(rates.ground).parts[_final_indices(_jump_table(rates, i), i, t_end, 1, rng)[0]]


def estimate_distribution(
    rates: RateSystem,
    t: float,
    n_samples: int,
    seed: int,
    start: Partition | None = None,
) -> EmpiricalDistribution:
    """Relative frequencies over independent replicates of the chain at time t."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    i = _start_index(rates, t, start)
    ends = _final_indices(_jump_table(rates, i), i, t, n_samples, make_rng(seed))
    parts = lattice(rates.ground).parts
    tally = np.bincount(ends)
    counts = {parts[j]: int(tally[j]) for j in np.flatnonzero(tally)}
    return EmpiricalDistribution(counts, n_samples, t=t, seed=seed)


def tv_distance(frequencies: Mapping[Partition, float], reference) -> float:
    """Total variation distance between two distributions on the lattice:
    half the sum of absolute differences."""
    ref = reference.as_dict() if hasattr(reference, "as_dict") else dict(reference)
    keys = set(frequencies) | set(ref)
    return 0.5 * sum(abs(frequencies.get(p, 0.0) - ref.get(p, 0.0)) for p in keys)


@dataclass
class BlockIndependenceReport:
    """Empirical transition probability against the per-block product of
    closed-form factors, with the binomial z-score."""

    start: Partition
    end: Partition
    t: float
    n_samples: int
    empirical: float
    predicted: float
    z_score: float


def transition_product_check(
    rates: RateSystem,
    c: Partition,
    d: Partition,
    t: float,
    n_samples: int,
    seed: int,
) -> BlockIndependenceReport:
    """Estimate the transition probability from c to d over a horizon t and
    compare it with the product of closed-form block factors.

    The end partition must refine the start; anything else has probability
    zero and is rejected."""
    from recomb.closed_form import build_closed_form

    if not is_refinement(d, c):
        raise ValueError("end partition must refine the start partition")
    hits = estimate_distribution(rates, t, n_samples, seed, start=c).counts.get(d, 0)
    empirical = hits / n_samples
    sol = build_closed_form(rates)
    predicted = 1.0
    for block in c.blocks:
        predicted *= sol.evaluate(block, [t]).state(0).value(restrict(d, block))
    se = (predicted * (1.0 - predicted) / n_samples) ** 0.5
    if se > 0:
        z = (empirical - predicted) / se
    else:
        z = 0.0 if empirical == predicted else float("inf")
    return BlockIndependenceReport(c, d, t, n_samples, empirical, predicted, z)
