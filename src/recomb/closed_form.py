"""Closed-form solution machinery over the subset lattice.

For each nonempty subset u of the ground set the solver tabulates decay
rates and mixing coefficients so that the coefficient vector at time t is

    a_t(A) = sum_{B coarser than A} coeff(A, B) * exp(-decay(B) * t)

built smallest subset first.  Below the top, coeff(A, B) sums over the
chains A <= B <= C, with C rated at r(C) and not the top, the terms
r(C) * prod over the blocks U of C of coeff_U(A|U, B|U), and is divided by
decay(top) - decay(B).  Every table lives on the comparable pairs A <= B of
its lattice (``Lattice.up_sets``), the only entries that can be nonzero.
The subsets of one size share one lattice core, so one scatter adds the
chains of all of them, streamed in pieces below the partitions rated in any
of them: one gather per block position from a flat store of the smaller
subsets' pair tables, and one np.add.at per piece that sums each entry's
terms in C order.  The build
requires all decay rates of a subsystem to be distinct; coincidences are
grouped into equal-decay classes and either reported (harmless: away from
the top element, where the coefficients extend continuously) or fatal (a
member hitting the top decay rate, which breaks the pure-exponential form).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
from scipy.special import gammainc

from recomb.dynamics import CoefficientTrajectory, RateSystem, _entry
from recomb.partitions import Partition, _ranges, _runs, as_ground, ground_set, lattice

__all__ = [
    "DEGENERACY_TOL",
    "DegeneracyPair",
    "DegeneracyClass",
    "DegeneracyReport",
    "DegeneracyError",
    "ClosedFormSolution",
    "linear_solution",
    "detect_degeneracy",
    "closed_form_size",
    "build_closed_form",
    "exp_convolution",
    "exp_monomial_convolution",
]

DEGENERACY_TOL = 1e-9
MAX_MONOMIAL_ORDER = 20


@dataclass(frozen=True)
class DegeneracyPair:
    subset: tuple[int, ...]
    a: Partition
    b: Partition
    value_a: float
    value_b: float
    classification: str  # "bad" | "harmless"


@dataclass(frozen=True)
class DegeneracyClass:
    """A maximal run of one subsystem's sorted decay rates with no step above
    the tolerance, in lattice order; the bad members collide badly with the top.

    The members are kept as lattice indices of ``lattice(subset)``;
    ``members`` and ``bad`` are their views as ``Partition``."""

    subset: tuple[int, ...]
    indices: tuple[int, ...]
    decay: tuple[float, ...]
    bad_indices: tuple[int, ...]

    @property
    def members(self) -> tuple[Partition, ...]:
        parts = lattice(self.subset).parts
        return tuple(parts[i] for i in self.indices)

    @property
    def bad(self) -> tuple[Partition, ...]:
        parts = lattice(self.subset).parts
        return tuple(parts[i] for i in self.bad_indices)


@dataclass(frozen=True)
class DegeneracyReport:
    """Equal-decay classes per subsystem, smallest subsystem first, and the
    absolute tolerance that joined them."""

    classes: tuple[DegeneracyClass, ...]
    tolerance: float

    @property
    def degenerate(self) -> bool:
        return bool(self.classes)

    @property
    def has_bad(self) -> bool:
        return any(c.bad_indices for c in self.classes)

    @property
    def cells(self) -> int:
        """The members its classes list, each an index and a decay rate."""
        return sum(2 * len(c.indices) for c in self.classes)

    @property
    def pairs(self) -> list[DegeneracyPair]:
        """Every pair of one class within the tolerance; a pair is bad when
        it joins the top to a bad member."""
        out = []
        for c in self.classes:
            lat, bad = lattice(c.subset), set(c.bad_indices)
            d = np.array(c.decay)
            close = np.abs(d[:, None] - d[None, :]) <= self.tolerance
            for i, j in zip(*np.nonzero(np.triu(close, 1))):
                a, b = c.indices[i], c.indices[j]
                kind = "bad" if lat.top_index in (a, b) and (a in bad or b in bad) else "harmless"
                out.append(DegeneracyPair(c.subset, lat.parts[a], lat.parts[b], c.decay[i], c.decay[j], kind))
        return out

    def to_json_dict(self) -> dict:
        classes = []
        for c in self.classes:
            names = lattice(c.subset).names
            classes.append({
                "subset": ",".join(str(x) for x in c.subset),
                "decay": min(c.decay),
                "partitions": [names[i] for i in c.indices],
                "bad": [names[i] for i in c.bad_indices],
            })
        return {
            "degenerate": self.degenerate,
            "bad": self.has_bad,
            "tolerance": self.tolerance,
            "classes": classes,
        }


class DegeneracyError(RuntimeError):
    """Raised when a decay rate collides with the top decay rate."""

    def __init__(self, report: DegeneracyReport):
        bad = sum(len(c.bad_indices) for c in report.classes)
        super().__init__(
            f"{bad} bad decay-rate coincidence(s); closed form unavailable"
        )
        self.report = report


def _sizes(ground: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """All nonempty subsets by size, smallest first, lexicographic within a size."""
    return [list(combinations(ground, k)) for k in range(1, len(ground) + 1)]


def _linear_decay(rates: RateSystem, g: tuple[int, ...]) -> np.ndarray:
    """chi on lattice(g): the total minus the rate mass coarser than each
    partition."""
    return rates.total - _apply(lattice(g), 1.0, rates.marginal(g))


def _apply(lat, table, vector: np.ndarray) -> np.ndarray:
    """table @ vector for a table on the comparable pairs (1.0 for the zeta
    function): one bincount, each row summed in ascending order."""
    return np.bincount(lat.pair_rows, table * vector[lat.up_sets[1]], lat.size)


def _times(times) -> np.ndarray:
    """The grid as a float array, checked to be 1-d and nonnegative."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(times >= 0):
        raise ValueError("times must be a 1-d array of nonnegative times")
    return times


def linear_solution(rates: RateSystem, u, times) -> CoefficientTrajectory:
    """Solution of the linearized system at the grid times, as probability
    vectors.

    Moebius inversion of exp(-chi t), chi the interval-complement decay
    rates, by one substitution over the whole grid (``Lattice.zeta_solve``);
    the defining sum over subsets of the lattice serves as a test oracle.
    """
    g, times = as_ground(u), _times(times)
    survival = np.exp(-np.multiply.outer(_linear_decay(rates, g), times))
    return CoefficientTrajectory(g, times, lattice(g).zeta_solve(survival).T)


@lru_cache(maxsize=None)
def _global_masks(n: int, k: int) -> np.ndarray:
    """(C(n, k), 2^k) masks over the n positions of a ground set: row i
    holds those of the subsets of its i-th k-subset (in ``_sizes`` order),
    indexed by their masks over that subset's positions."""
    local = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    masks = (local @ (1 << np.array(list(combinations(range(n), k)), dtype=np.int64).T)).T
    masks.flags.writeable = False
    return masks


def _decay_tables(rates: RateSystem) -> dict[tuple[int, ...], np.ndarray]:
    """psi_u on lattice(u) for every subset u: the splitting rates of the
    blocks, added one block position at a time in block order, for all
    subsets of one size at once."""
    n = len(rates.ground)
    split = np.zeros(1 << n)  # by the mask of a subset; 0 for none
    tables: dict[tuple[int, ...], np.ndarray] = {}
    for k, us in enumerate(_sizes(rates.ground), 1):
        # the blocks of a k-subset's partitions have at most k sites
        rates.marginals(us)  # all k-subsets' marginals in one restriction lookup
        split[_global_masks(n, k)[:, -1]] = [rates.splitting_rate(u) for u in us]
        lat = lattice(us[0])
        gather = split[_global_masks(n, k)]
        psi = np.zeros((len(us), lat.size))
        for masks in lat.block_masks.T:
            psi += gather[:, masks]
        psi.flags.writeable = False
        tables.update(zip(us, psi))
    return tables


def _scan_degeneracies(
    rates: RateSystem, decay: dict[tuple[int, ...], np.ndarray], tol_abs: float
) -> DegeneracyReport:
    """Equal-decay classes, the components of |psi_a - psi_b| <= tol_abs, as
    runs of one sort per subsystem.  A member near the top decay rate is bad
    exactly when rate mass sits strictly between it and the top; the
    coefficient column then cannot vanish and monomial terms would be
    needed.  All other coincidences leave the exponential ansatz intact."""
    classes = []
    for u, psi in decay.items():
        order = np.argsort(psi, kind="stable")
        cuts = np.flatnonzero(np.diff(psi[order]) > tol_abs) + 1
        if cuts.size == psi.size - 1:
            continue  # no two rates within the tolerance
        lat = lattice(u)
        top = lat.top_index
        bounds = np.concatenate(([0], cuts, [psi.size]))
        near = np.flatnonzero(np.abs(psi[top] - psi) <= tol_abs)
        rvec = rates.marginal(u)
        # mass of the upward interval [B, top) for the B near the top; none at the top
        bad = set(near[_apply(lat, 1.0, rvec)[near] - rvec[top] > 0.0].tolist())
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi - lo < 2:
                continue
            run = np.sort(order[lo:hi]).tolist()
            bad_run = tuple(i for i in run if i in bad)
            classes.append(DegeneracyClass(u, tuple(run), tuple(psi[run].tolist()), bad_run))
    return DegeneracyReport(tuple(classes), tol_abs)


def detect_degeneracy(rates: RateSystem) -> DegeneracyReport:
    """List all decay-rate coincidences, classified bad or harmless.

    Comparison is relative to max(rho_total, 1)."""
    decay = _decay_tables(rates)
    return _scan_degeneracies(rates, decay, DEGENERACY_TOL * max(rates.total, 1.0))


class ClosedFormSolution:
    """Per-subset decay tables, and coefficient tables on the comparable
    pairs of each subset's lattice (``Lattice.up_sets`` order), evaluated on
    a whole time grid by one bincount per block of times.

    Immutable once built, its tables read-only; evaluation is pure.
    """

    def __init__(self, rates, decay, coeff, report):
        self.rates: RateSystem = rates
        self._decay: dict[tuple[int, ...], np.ndarray] = decay
        self._coeff: dict[tuple[int, ...], np.ndarray] = coeff
        self.report: DegeneracyReport = report

    def _key(self, u) -> tuple[int, ...]:
        g = as_ground(u)
        if g not in self._coeff:
            raise ValueError(f"no table for subset {g}")
        return g

    @cached_property
    def cells(self) -> int:
        """The comparable pairs its coefficient tables store."""
        return sum(theta.size for theta in self._coeff.values())

    def decay_table(self, u) -> np.ndarray:
        return self._decay[self._key(u)]

    def evaluate(self, u, times) -> CoefficientTrajectory:
        """The probability vectors on the subsystem u at the grid times:
        the sum of theta(a, b) exp(-decay(b) t) over the nonzero pairs, one
        bincount per block of times, each entry in ascending b."""
        g, times = self._key(u), _times(times)
        lat = lattice(g)
        theta = self._coeff[g]
        nz = np.flatnonzero(theta)
        rows, cols, theta = lat.pair_rows[nz], lat.up_sets[1][nz], theta[nz]
        values = np.empty((times.size, lat.size))
        step = max(1, _RUN_CHAINS // max(nz.size, 1))  # times per bincount
        for lo in range(0, times.size, step):
            block = times[lo : lo + step]
            factors = np.exp(-np.multiply.outer(self._decay[g], block))  # (B, times)
            at = (rows[:, None] * block.size + np.arange(block.size)).ravel()
            sums = np.bincount(at, (factors[cols] * theta[:, None]).ravel(), factors.size)
            values[lo : lo + step] = sums.reshape(factors.shape).T
        return CoefficientTrajectory(g, times, values)

    def json_chunks(self):
        """The solution as compact JSON text in pieces, each subset's decay
        table and then its coefficient rows in runs of about _RUN_CHAINS
        pairs, so that no piece holds a whole table.  Joined, the pieces
        are json.dumps of {"ground", "rho_total", "degeneracy", "subsets":
        {u: {"decay": {a: psi_u(a)}, "coeff": {a: {b: theta_u(a, b) for
        the nonzero pairs, ascending b}}}}}, every partition named in
        the ``1,2|3`` format and listed in lattice order."""
        dumps = json.dumps
        yield (
            f'{{"ground": {dumps(",".join(map(str, self.rates.ground)))}, '
            f'"rho_total": {dumps(self.rates.total)}, '
            f'"degeneracy": {dumps(self.report.to_json_dict())}, "subsets": {{'
        )
        for i, (u, psi) in enumerate(self._decay.items()):
            lat = lattice(u)
            ptr, ups = lat.up_sets
            theta = self._coeff[u]
            names = lat.names
            decay = dumps(dict(zip(names, psi.tolist())))
            yield f'{", " if i else ""}{dumps(",".join(map(str, u)))}: {{"decay": {decay}, "coeff": {{'
            for lo, hi in _runs(np.diff(ptr), _RUN_CHAINS):
                coeff: dict[str, dict[str, float]] = {names[a]: {} for a in range(lo, hi)}
                nz = ptr[lo] + np.flatnonzero(theta[ptr[lo] : ptr[hi]])
                for a, b, value in zip(
                    lat.pair_rows[nz].tolist(), ups[nz].tolist(), theta[nz].tolist()
                ):
                    coeff[names[a]][names[b]] = value
                yield (", " if lo else "") + dumps(coeff)[1:-1]
            yield "}}"
        yield "}}"


# chains per run of the chain scatter; bounds its temporaries at n = 10
_RUN_CHAINS = 1 << 15


@lru_cache(maxsize=None)
def _pair_pointers(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The up-set pointers of the lattices of 0, ..., k - 1 sites, one after
    another, and for each mask of k sites where those of the lattice of its
    sites start; the lattice of no sites has one pair."""
    ptrs = [np.zeros(1, dtype=np.intp)]
    ptrs += [lattice(ground_set(s)).up_sets[0][:-1] for s in range(1, k)]
    starts = np.cumsum([0] + [len(p) for p in ptrs])
    return np.concatenate(ptrs), starts[[m.bit_count() for m in range(1 << k)]]


def _chain_pieces(lat, c: np.ndarray):
    """The chains a <= b <= c of lat below the ascending partitions c (none
    the top), in pieces of up to about _RUN_CHAINS chains.  A piece lists
    (c, a) items and their chains: (c, masks, base, first, fan, pair, b,
    rank).  For item i, masks[j, i] is the mask of c's j-th block V and
    base[j, i] the up-set pointer of a|V in V's lattice, both 0 past c's
    last block; its chains are first[i], ..., first[i] + fan[i] - 1.  For
    chain h, pair[h] is the position of (a, b) among lat's pairs and
    base[j, i] + rank[j, h] that of (a|V, b|V) among V's.

    The chains are taken by a, in the lattice q of a's k_a blocks: the b
    between a and c are the pi o a for pi below the partition s that c
    induces on a's blocks.  In q, (a|V, b|V) is (bottom, pi) restricted to
    the blocks of s inside V, so its rank is q's restriction index of pi to
    the sites at s's block mask.  A pair (a, b) has one k_a, so taking one
    k_a after another keeps its chains in c order."""
    n = len(lat.ground)
    ptr, ups = lat.up_sets
    dptr, below, at = lat.down_pairs
    sub_ptr, sub_start = _pair_pointers(n)
    masks = lat.block_masks.T
    for lo, hi in _runs(dptr[c + 1] - dptr[c], 8 * _RUN_CHAINS):  # runs of (c, a) items
        cr = c[lo:hi]
        fan = dptr[cr + 1] - dptr[cr]
        i = _ranges(dptr[cr], fan)
        a = below[i]
        order = np.argsort(lat.block_counts[a], kind="stable")
        cs, s = np.repeat(cr, fan)[order], (at[i] - ptr[a])[order]  # s: c as an index of q
        a = a[order]
        bounds = np.searchsorted(lat.block_counts[a], np.arange(n + 2)).tolist()
        for k in range(2, n + 1):  # only the top has one block
            q = lattice(ground_set(k))
            qptr, qbelow = q.down_sets
            span = qptr[s[bounds[k] : bounds[k + 1]] + 1] - qptr[s[bounds[k] : bounds[k + 1]]]
            for lo2, hi2 in _runs(span, _RUN_CHAINS):
                rc, ra, rs = (x[bounds[k] + lo2 : bounds[k] + hi2] for x in (cs, a, s))
                rf = span[lo2:hi2]
                first = np.cumsum(rf) - rf
                run = np.repeat(np.arange(rc.size), rf)
                pi = qbelow[_ranges(qptr[rs], rf)]
                pair = ptr[ra][run] + pi
                vm = masks[: int(lat.block_counts[rc].max())][:, rc]  # (J, items)
                base = sub_ptr[sub_start[vm] + lat.restrictions(vm, ra)]
                rank = q.restrictions(q.block_masks.T[: len(vm)][:, rs][:, run], pi)
                yield rc, vm, base, first, rf, pair, ups[pair], rank


def _add_chains(flat, lat, rvec, cols, store, offset) -> None:
    """Add r_u(c) * prod over the blocks V of c of coeff_V(a|V, b|V) to
    theta_u(a, b) for every subset u of one size and every chain
    a <= b <= c of lat with c rated and not the top and b a kept column of
    u; each entry sums its terms in c order.

    flat holds the theta_u on the pairs of lat one after another; rvec and
    cols are (subsets, B) and offset[u, m] is the start in store of the pair
    table of u's sites at mask m (0, a cell holding 1.0, for mask 0).  The
    chains come in pieces from ``_chain_pieces``, below the partitions rated
    in some subset."""
    rated = np.flatnonzero(rvec.any(axis=0))
    pieces = _chain_pieces(lat, rated[rated != lat.top_index])
    stride = lat.pair_count
    for c, masks, base, first, fan, pair, b, rank in pieces:
        step = max(1, 8 * _RUN_CHAINS // pair.size)  # subsets per pass
        for lo in range(0, len(rvec), step):
            w = rvec[lo : lo + step, c]
            u, i = np.nonzero(w)  # the rated items of each subset
            if not u.size:
                continue
            u += lo
            h = _ranges(first[i], fan[i])  # their chains
            rep = np.repeat(np.arange(u.size), fan[i])
            keep = cols[u[rep], b[h]]
            if not keep.all():
                h, rep = h[keep], rep[keep]
            elif h.size == pair.size:  # one subset takes every chain
                h = slice(None)
            start = offset[u, masks[:, i]] + base[:, i]  # (J, rated items)
            prod = store[start[0][rep] + rank[0, h]]
            for j in range(1, len(start)):
                prod *= store[start[j][rep] + rank[j, h]]
            np.add.at(flat, u[rep] * stride + pair[h], w[u - lo, i][rep] * prod)


@lru_cache(maxsize=None)
def _chains_below(k: int) -> np.ndarray:
    """Chains a <= b <= c below each partition c of k sites: the product
    over c's blocks V of the comparable pairs of V's lattice."""
    pairs = np.array([1] + [lattice(ground_set(s)).pair_count for s in range(1, k + 1)])
    return pairs[lattice(ground_set(k)).block_sizes].prod(axis=1)


def closed_form_size(rates: RateSystem) -> tuple[int, int]:
    """(pairs, chains): the comparable pairs whose coefficients the closed
    form stores, over every subset, and the chains a <= b <= c its scatter
    expands, with c rated and not the top (before the decay rates drop any
    column).  Counted from block sizes and the marginal rates; no table is
    built.  Kept in the entry of rates in the process store
    (``dynamics._entry``) at ``"size"``, uncharged: a count is not the
    cells it sizes."""
    return _entry(rates).fill("size", lambda: _size(rates))


def _size(rates: RateSystem) -> tuple[int, int]:
    """``closed_form_size`` of rates, counted."""
    n = len(rates.ground)
    pairs = sum(math.comb(n, k) * lattice(ground_set(k)).pair_count for k in range(1, n + 1))
    chains = 0
    for us in _sizes(rates.ground):
        below = _chains_below(len(us[0]))
        for marg in rates.marginals(us):
            chains += int(below[1:][marg[1:] != 0.0].sum())  # 0 is the top
    return pairs, chains


def build_closed_form(rates: RateSystem) -> ClosedFormSolution:
    """Build decay and coefficient tables for every nonempty subset.

    Raises DegeneracyError when a decay rate collides with the top decay
    rate of its subsystem (the pure-exponential form then fails).  Harmless
    coincidences are attached to the returned solution's report; the
    coefficients extend continuously there.

    The solution, or the report that refused it, is kept in the entry of
    rates in the process store (``dynamics._entry``) at ``"closed_form"``,
    charged its ``cells``: while it is kept, a call on equal rates returns
    that solution, built from equal rates, or raises with that report.
    """
    solution = _entry(rates).fill("closed_form", lambda: _build(rates), lambda s: s.cells)
    if isinstance(solution, DegeneracyReport):
        raise DegeneracyError(solution)
    return solution


def _build(rates: RateSystem) -> ClosedFormSolution | DegeneracyReport:
    """The closed form of rates, or the report of its bad coincidences."""
    ground = rates.ground
    tol_abs = DEGENERACY_TOL * max(rates.total, 1.0)
    decay = _decay_tables(rates)
    report = _scan_degeneracies(rates, decay, tol_abs)
    if report.has_bad:
        return report
    # distinctness is inherited downward from the full system: a collision in
    # a subsystem forces one with the identical decay gap at the top level
    if report.classes and not any(c.subset == ground for c in report.classes):
        raise AssertionError(
            "subsystem decay collision without a top-level one; "
            "marginal rates are inconsistent"
        )

    # one flat store of the proper subsets' pair tables, in subset order, and
    # their starts by ground mask; its first cell is a 1.0 that stands in
    # for the blocks a partition lacks (mask 0)
    n, sizes = len(ground), _sizes(ground)
    offset = np.zeros(1 << n, dtype=np.intp)
    cells = 1
    for k, us in enumerate(sizes[:-1], 1):
        pairs = lattice(us[0]).up_sets[1].size
        offset[_global_masks(n, k)[:, -1]] = cells + pairs * np.arange(len(us))
        cells += pairs * len(us)
    store = np.empty(cells)
    store[0] = 1.0
    coeff: dict[tuple[int, ...], np.ndarray] = {}
    for k, us in enumerate(sizes, 1):
        lat = lattice(us[0])
        ptr, ups = lat.up_sets
        top = lat.top_index
        if k == n:
            flat = np.zeros(len(us) * ups.size)
        else:
            at = offset[_global_masks(n, k)[0, -1]]
            flat = store[at : at + len(us) * ups.size]
            flat[:] = 0.0
        theta = flat.reshape(len(us), ups.size)
        rvec = np.stack([rates.marginal(u) for u in us])
        psi = np.stack([decay[u] for u in us])
        gap = psi[:, top, None] - psi
        # a harmless top collision has no rate mass in [b, top), so its whole
        # column vanishes and the exponential set stays valid
        cols = np.abs(gap) > tol_abs
        cols[:, top] = False
        _add_chains(flat, lat, rvec, cols, store, offset[_global_masks(n, k)])
        # divide the kept columns by their gaps (the others are still zero)
        # and put minus each row's sum, in ascending b, in its top column;
        # runs of whole rows bound the temporaries
        scale = np.where(cols, gap, 1.0)
        for lo, hi in _runs(np.diff(ptr), 32 * _RUN_CHAINS // len(us)):
            part = theta[:, ptr[lo] : ptr[hi]]
            part /= scale[:, ups[ptr[lo] : ptr[hi]]]
            rows = np.arange(len(us))[:, None] * (hi - lo) + (lat.pair_rows[ptr[lo] : ptr[hi]] - lo)
            sums = np.bincount(rows.ravel(), part.ravel(), len(us) * (hi - lo))
            part[:, ptr[lo:hi] - ptr[lo]] = -sums.reshape(len(us), hi - lo)
        theta[:, ptr[top]] = 1.0
        theta.flags.writeable = False
        coeff.update(zip(us, theta))
    return ClosedFormSolution(rates, decay, coeff, report)


def exp_convolution(alpha: float, beta: float, t: float) -> float:
    """Convolution of two exponential decays:
    integral_0^t exp(-beta*s) exp(-alpha*(t-s)) ds.

    Equals (exp(-beta t) - exp(-alpha t)) / (alpha - beta) away from the
    diagonal and t*exp(-alpha t) on it; symmetric in the two rates.
    """
    if alpha < 0 or beta < 0 or t < 0:
        raise ValueError("rates and time must be nonnegative")
    hi, lo = (alpha, beta) if alpha >= beta else (beta, alpha)
    d = hi - lo
    if d == 0.0:
        return t * math.exp(-hi * t)
    z = d * t
    if z < 1e-5:
        # short series of (1 - exp(-z)) / z; avoids cancellation near the diagonal
        series = 1.0 - z / 2.0 + z * z / 6.0 - z * z * z / 24.0
        return t * math.exp(-lo * t) * series
    return math.exp(-lo * t) * (-math.expm1(-z)) / d


def exp_monomial_convolution(rho: float, sigma: float, m: int, t: float) -> float:
    """Convolution of a monomial-weighted decay with an exponential decay:
    exp(-rho*t) * integral_0^t s^m / m! * exp((rho - sigma) s) ds.

    Order zero agrees with exp_convolution.  The monomial order is capped;
    nested degenerate solutions beyond that are out of scope.
    """
    if rho < 0 or sigma < 0 or t < 0:
        raise ValueError("rates and time must be nonnegative")
    m = int(m)
    if m < 0:
        raise ValueError("monomial order must be nonnegative")
    if m > MAX_MONOMIAL_ORDER:
        raise ValueError(f"monomial order capped at {MAX_MONOMIAL_ORDER}")
    if t == 0.0:
        return 0.0
    d = rho - sigma
    if d == 0.0:
        return t ** (m + 1) / math.factorial(m + 1) * math.exp(-rho * t)
    z = d * t
    if z >= 30.0:
        # alternating closed form; terms decay by factor <= m/z < 1 here
        acc = (-1.0) ** (m + 1) * math.exp(-rho * t) / d ** (m + 1)
        for ell in range(m + 1):
            acc += (
                (-1.0) ** ell
                * t ** (m - ell)
                / (math.factorial(m - ell) * d ** (ell + 1))
                * math.exp(-sigma * t)
            )
        return acc
    if z > -1.0:
        # series around the diagonal; all terms positive for z > 0
        base = 1.0
        acc = 1.0 / (m + 1)
        for j in range(1, 500):
            base *= z / j
            term = base / (m + j + 1)
            acc += term
            if abs(term) <= 1e-18 * abs(acc):
                break
        return math.exp(-rho * t) * t ** (m + 1) / math.factorial(m) * acc
    # d < 0 with a large argument: regularized lower incomplete gamma
    x = -z
    return math.exp(-rho * t) * float(gammainc(m + 1, x)) / (-d) ** (m + 1)
