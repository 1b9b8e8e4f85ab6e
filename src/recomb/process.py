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
over the states reachable from the start, which is built once per start,
kept in the process store (``dynamics._entry``) and passed in.  From it each
call builds per-state tables: whether the state has a row, the row's first
and last entry, the exit rate and its reciprocal.  All replicates advance
together, in blocks of 4096, one vectorised waiting-time and jump round at a
time, each round gathering from those tables by state; every jump strictly
refines, so n sites take at most n - 1 rounds.  The generator is
counter-based (numpy Philox), so seeded replicate streams are reproducible
and independent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from recomb.dynamics import RateSystem, _entry
from recomb.partitions import Partition, lattice

__all__ = [
    "GENERATOR_NAME",
    "make_rng",
    "EmpiricalDistribution",
    "estimate_distribution",
]

GENERATOR_NAME = "philox"

# replicates advanced together; bounds the sampler's temporaries
_BLOCK = 4096


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator; stream identity goes into metadata."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(eq=False)
class EmpiricalDistribution:
    """Replicate counts per partition, with the sampling metadata.  The
    counts are kept by lattice index, one entry per partition: ``tally[i]``
    replicates ended at the i-th partition of ``lattice(ground)``, and
    ``counts`` is their view by ``Partition``."""

    ground: tuple[int, ...]
    tally: np.ndarray
    n_samples: int
    t: float
    seed: int | None = None
    generator: str = GENERATOR_NAME

    @cached_property
    def counts(self) -> dict[Partition, int]:
        """The counts of the partitions reached, in lattice order."""
        parts = lattice(self.ground).parts
        return {parts[i]: int(self.tally[i]) for i in np.flatnonzero(self.tally)}

    def named_counts(self) -> list[tuple[str, int]]:
        """(text, count) of each partition reached, sorted by text."""
        names = lattice(self.ground).names
        return sorted((names[i], int(self.tally[i])) for i in np.flatnonzero(self.tally))

    def frequency(self, p: Partition) -> float:
        return self.counts.get(p, 0) / self.n_samples

    def frequencies(self) -> dict[Partition, float]:
        return {p: c / self.n_samples for p, c in self.counts.items()}


def _jump_table(rates: RateSystem, start: int):
    """``_build_jump_table`` of rates and start, kept in the entry of rates
    in the process store (``dynamics._entry``) at ``("jump", start)`` and
    charged its entries."""
    return _entry(rates).fill(
        ("jump", start), lambda: _build_jump_table(rates, start), lambda table: table[1].size
    )


def _build_jump_table(rates: RateSystem, start: int):
    """The chain's generator as read-only CSR arrays over
    ``lattice(rates.ground)``: row s lists successors[indptr[s]:indptr[s +
    1]] and their cumulative rates.  Each block U of s is replaced by every
    rated proper partition of U at U's marginal rate; blocks in order, each
    block's partitions in the order of U's lattice.  Only states reachable
    from start have rows, each found in the frontier round of its first
    jump; every other row is empty.  A successor is written as block
    labels, its state's row with U's sites relabelled by the split: the
    split's first block keeps U's label and its l-th block, l >= 1, takes
    a new label, the state's block count plus l - 1, so every label stays
    below n; ``Lattice.lookup`` finds it.

    Each entry is a distinct strict refinement (s, successor), so the table
    holds at most ``pair_count - size`` entries: 16,617,804 at ``MAX_SITES``
    = 10 sites, below ``MAX_STATES``, and 163,754 at n = 8, where every
    partition rated gives 68,771."""
    lat, n = lattice(rates.ground), len(rates.ground)
    bits = 1 << np.arange(n)
    seen, reached = np.zeros((2, lat.size), dtype=bool)
    reached[start] = True
    jumps = []  # per round: states, block positions, successors, rates
    while (frontier := np.flatnonzero(reached & ~seen)).size:
        seen[frontier] = True
        masks = lat.block_masks[frontier]  # sites of block k
        row, k = np.nonzero(masks & (masks - 1))  # blocks of two or more sites
        labels = lat.labels[frontier]
        pieces = [(row[:0],) * 2 + (labels[:0], np.empty(0))]  # for a round with no split
        sets = masks[row, k]
        by = np.argsort(sets)  # the blocks grouped by their sites
        us, firsts = np.unique(sets[by], return_index=True)
        for u, hit in zip(us.tolist(), np.split(by, firsts[1:])):
            cols = np.flatnonzero(u & bits)
            sub = lattice(tuple(rates.ground[c] for c in cols))
            marg = rates.marginal(sub.ground)
            j = np.flatnonzero(marg[1:]) + 1  # the rated proper splits; 0 is the top
            at, rank = np.repeat(hit, j.size), np.tile(np.arange(j.size), hit.size)
            state, split = frontier[row[at]], sub.labels[j][rank]
            new = labels[row[at]]
            # U's sites split as the j-th partition: its block 0 keeps U's
            # label, its block l >= 1 takes the state's block count + l - 1
            fresh = lat.block_counts[state, None] - 1 + split
            new[:, cols] = np.where(split == 0, k[at, None], fresh)
            pieces.append((state, k[at], new, marg[j][rank]))
        state, position, new, rate = map(np.concatenate, zip(*pieces))
        jumps.append((state, position, lat.lookup(new), rate))
        reached[jumps[-1][2]] = True
    state, position, successors, rate = map(np.concatenate, zip(*jumps))
    order = np.lexsort((position, state))  # stable, so each block's splits stay in lattice order
    state, successors, rate = state[order], successors[order], rate[order]
    indptr = np.searchsorted(state, np.arange(lat.size + 1))
    # each row summed from its first entry, rows of one length in one cumsum
    cumulative, sizes = np.empty_like(rate), np.diff(indptr)
    for m in np.unique(sizes[sizes > 0]).tolist():
        at = indptr[np.flatnonzero(sizes == m), None] + np.arange(m)
        cumulative[at] = np.cumsum(rate[at], axis=1)
    for a in (indptr, successors, cumulative):
        a.flags.writeable = False
    return indptr, successors, cumulative


def _final_indices(table, i: int, t_end: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Lattice indices at t_end of n replicates of the chain, each started
    from index i, with ``table`` the (indptr, successors, cumulative) arrays
    of ``_jump_table`` for a start from which i is reachable.

    The replicates advance together, in blocks of ``_BLOCK``, each carrying
    its state.  Each round draws, for every live replicate, an exponential
    waiting time at its state's exit rate, then, for those still before
    t_end, a successor with probability proportional to its rate.  A state
    without successors is absorbing and retires without a draw.  Every jump
    strictly refines, so a block takes at most one round fewer than there
    are sites.  What a round reads of a state comes from tables built once
    per call, indexed by state: whether it has a row, its row's first and
    last entry, its exit rate (the row total) and that rate's reciprocal.
    The successor is found by ``_row_search``, and the arrays of the live
    replicates are compressed through one index array per mask."""
    indptr, successors, cumulative = table
    lo, last = indptr[:-1], indptr[1:] - 1
    moving = lo <= last
    total = np.zeros(lo.size)
    total[moving] = cumulative[last[moving]]
    with np.errstate(over="ignore", divide="ignore"):  # subnormal total: infinite wait
        wait = 1.0 / total  # read only where moving
    ends = np.full(n, i, dtype=np.intp)
    for first in range(0, n, _BLOCK):
        block = ends[first : first + _BLOCK]  # a view: jumps write into ends
        live, state, clock = np.arange(block.size), block, np.zeros(block.size)
        while live.size:
            keep = np.flatnonzero(moving.take(state))
            live, clock, state = (a.take(keep) for a in (live, clock, state))
            with np.errstate(over="ignore", invalid="ignore"):  # a draw times an infinite wait
                clock += rng.standard_exponential(keep.size) * wait.take(state)
            keep = np.flatnonzero(clock <= t_end)
            live, clock, state = (a.take(keep) for a in (live, clock, state))
            u = rng.random(keep.size) * total.take(state)
            state = successors.take(_row_search(cumulative, lo.take(state), last.take(state), u))
            block[live] = state
    return ends


def _row_search(cumulative: np.ndarray, lo: np.ndarray, last: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each draw u, ``bisect_right`` of u in its row cumulative[lo:last
    + 1], clipped to last, by binary lifting.

    q, the last entry known to be at most the draw, starts before the row
    and moves up by each power of two, largest first, when the entry there
    is at most the draw; a probe past the row reads its last entry, the row
    total.  That entry is at most the draw only when every entry is, and
    then the answer is last, which the clip gives."""
    q = lo - 1
    for step in (1 << np.arange(int((last - lo).max(initial=0)).bit_length())[::-1]).tolist():
        probe = np.minimum(q + step, last)
        q = np.where(cumulative.take(probe) <= u, probe, q)
    return np.minimum(q + 1, last)


def _start_index(rates: RateSystem, t_end: float, start: Partition | None) -> int:
    if t_end < 0:
        raise ValueError("time horizon must be nonnegative")
    lat = lattice(rates.ground)
    if start is None:
        return lat.top_index
    if start.ground != rates.ground:
        raise ValueError("start partition is not on the ground set")
    return lat.index[start]


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
    tally = np.bincount(ends, minlength=lattice(rates.ground).size)
    return EmpiricalDistribution(rates.ground, tally, n_samples, t=t, seed=seed)
