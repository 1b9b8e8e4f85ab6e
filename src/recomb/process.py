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
from functools import lru_cache
from typing import Mapping

import numpy as np

from recomb.dynamics import RateSystem
from recomb.partitions import Partition, ground_set, is_refinement, lattice, restrict

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


@lru_cache(maxsize=None)
def _text_rank(names: tuple[str, ...]) -> np.ndarray:
    """Rank of each partition of the sites called ``names``, in lattice
    order, among the texts ``1,2|3`` of all of them, computed from the
    labels with no ``Partition`` or ``str`` built.

    Each text lists the sites block by block, each block ascending (a
    stable argsort of the labels), with ``,`` inside a block and ``|``
    between blocks.  So every text of one ground holds each name once and
    k - 1 separators: all have one length, and their order is one lexsort
    of the character matrix.  With one character per site that length is
    2k - 1 and, since ``,`` < digit < ``|``, the order depends on the
    positions only (``_text_order`` shares it); a longer name, say 10, which
    sorts before 2, shifts the characters after it."""
    k = len(names)
    labels = lattice(ground_set(k)).labels
    order = np.argsort(labels, axis=1, kind="stable")
    tokens = np.empty((labels.shape[0], 2 * k - 1), dtype=np.int8)  # site positions, then k for ",", k + 1 for "|"
    tokens[:, 0::2] = order
    tokens[:, 1::2] = k + (np.diff(np.take_along_axis(labels, order, axis=1), axis=1) != 0)
    spelled = [name.encode() for name in names] + [b",", b"|"]
    width = max(map(len, spelled))
    chars = np.array([list(c.ljust(width, b"\0")) for c in spelled], dtype=np.uint8)
    lengths = np.array([len(c) for c in spelled])
    text = np.zeros((labels.shape[0], sum(lengths[:k]) + k - 1), dtype=np.uint8)
    cursor = np.zeros(labels.shape[0], dtype=np.intp)
    for token in tokens.T:  # one character column at a time
        for c in range(width):
            at = np.flatnonzero(lengths[token] > c)
            text[at, cursor[at] + c] = chars[token[at], c]
        cursor += lengths[token]
    rank = np.empty(labels.shape[0], dtype=np.intp)
    rank[np.lexsort(text.T[::-1])] = np.arange(labels.shape[0])
    return rank


def _text_order(ground: tuple[int, ...]) -> np.ndarray:
    """``_text_rank`` of the ground's site names; grounds whose sites all
    have one character share the rank of their size."""
    names = tuple(map(str, ground))
    if all(len(name) == 1 for name in names):
        names = tuple("0123456789"[: len(names)])
    return _text_rank(names)


def _jump_table(rates: RateSystem, start: int):
    """The chain's generator as CSR arrays over ``lattice(rates.ground)``:
    row s lists successors[indptr[s]:indptr[s + 1]] and their cumulative
    rates.  Each block U of s is replaced by every rated proper partition of
    U at U's marginal rate; blocks in order, each block's partitions sorted
    by text (``_text_order``).  Only states reachable from start have rows,
    each found in the frontier round of its first jump; every other row is
    empty.

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
        lab = lat.labels[frontier]
        masks = (lab[:, None, :] == np.arange(n)[:, None]) @ bits  # sites of block k
        row, k = np.nonzero(masks & (masks - 1))  # blocks of two or more sites
        pieces = [(row[:0],) * 2 + (lab[:0], np.empty(0))]  # for a round with no split
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
            new = lab[row[at]]
            new[:, cols] = n + sub.labels[j][rank]  # fresh labels on U's sites
            pieces.append((frontier[row[at]], k[at], new, marg[j][rank]))
        state, position, new, rate = map(np.concatenate, zip(*pieces))
        jumps.append((state, position, lat._lookup(new), rate))
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
