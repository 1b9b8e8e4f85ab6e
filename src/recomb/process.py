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
kept in the process store (``dynamics._entry``) and passed in.  All replicates
advance together, in blocks of 4096, one vectorised waiting-time and jump
round at a time; every jump strictly refines, so n sites take at most n - 1
rounds.  The generator is
counter-based (numpy Philox), so seeded replicate streams are reproducible
and independent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from recomb.dynamics import RateSystem, _entry
from recomb.partitions import Partition, ground_set, lattice

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


@lru_cache(maxsize=None)
def _text_rank(ground: tuple[int, ...]) -> np.ndarray:
    """Rank of each partition of ground, in lattice order, among the texts
    ``1,2|3`` of all of them (``Lattice.names``)."""
    names = lattice(ground).names
    rank = np.empty(len(names), dtype=np.intp)
    rank[np.argsort(np.array(names))] = np.arange(len(names))
    return rank


def _text_order(ground: tuple[int, ...]) -> np.ndarray:
    """``_text_rank`` of the ground; grounds whose sites all have one
    character share the rank of their size.  All texts of one ground hold
    each name once and k - 1 separators, so they have one length and, since
    ``,`` < digit < ``|``, with one character per site their order depends
    on the positions only; a longer name, say 10, which sorts before 2,
    shifts the characters after it."""
    if len(ground) < 10 and all(0 <= x <= 9 for x in ground):
        ground = ground_set(len(ground))
    return _text_rank(ground)


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
    block's partitions sorted by text (``_text_order``).  Only states
    reachable from start have rows, each found in the frontier round of its
    first jump; every other row is empty.  A successor is written as the
    first site of each site's block (``Lattice.first_sites``): its state's
    row with U's sites taken from the split of U, whose first site is U's,
    so the split's own blocks start where it says and every other block
    keeps its start; its code follows from those starts
    (``Lattice.lookup_first_sites``).

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
        first_site = lat.first_sites[frontier]
        pieces = [(row[:0],) * 2 + (first_site[:0], np.empty(0))]  # for a round with no split
        sets = masks[row, k]
        by = np.argsort(sets)  # the blocks grouped by their sites
        us, firsts = np.unique(sets[by], return_index=True)
        for u, hit in zip(us.tolist(), np.split(by, firsts[1:])):
            cols = np.flatnonzero(u & bits)
            sub = lattice(tuple(rates.ground[c] for c in cols))
            marg = rates.marginal(sub.ground)
            j = np.flatnonzero(marg)
            j = j[j != sub.top_index]
            j = j[np.argsort(_text_order(sub.ground)[j])]
            at, rank = np.repeat(hit, j.size), np.tile(np.arange(j.size), hit.size)
            new = first_site[row[at]]
            new[:, cols] = cols[sub.first_sites[j]][rank]  # U's sites split as the j-th partition
            pieces.append((frontier[row[at]], k[at], new, marg[j][rank]))
        state, position, new, rate = map(np.concatenate, zip(*pieces))
        jumps.append((state, position, lat.lookup_first_sites(new), rate))
        reached[jumps[-1][2]] = True
    state, position, successors, rate = map(np.concatenate, zip(*jumps))
    order = np.lexsort((position, state))  # stable, so each block's splits stay in text order
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
    are sites.  The successor is found by ``_row_search``, and the arrays of
    the live replicates are compressed through one index array per mask."""
    indptr, successors, cumulative = table
    starts, stops = indptr[:-1], indptr[1:]
    ends = np.full(n, i, dtype=np.intp)
    for first in range(0, n, _BLOCK):
        block = ends[first : first + _BLOCK]  # a view: jumps write into ends
        live, state, clock = np.arange(block.size), block, np.zeros(block.size)
        while live.size:
            lo, last = starts.take(state), stops.take(state) - 1
            keep = np.flatnonzero(lo <= last)
            live, clock, lo, last = (a.take(keep) for a in (live, clock, lo, last))
            total = cumulative.take(last)
            with np.errstate(over="ignore", invalid="ignore"):  # subnormal total: infinite wait
                clock += rng.standard_exponential(keep.size) * (1.0 / total)
            keep = np.flatnonzero(clock <= t_end)
            live, clock, lo, last, total = (a.take(keep) for a in (live, clock, lo, last, total))
            state = successors.take(_row_search(cumulative, lo, last, rng.random(keep.size) * total))
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
