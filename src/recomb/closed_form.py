"""Closed-form solution machinery over the subset lattice.

For each nonempty subset u of the ground set the solver tabulates decay
rates and mixing coefficients so that the coefficient vector at time t is

    a_t(A) = sum_{B coarser than A} coeff(A, B) * exp(-decay(B) * t)

built smallest subset first.  Below the top, coeff(A, B) sums over the
chains A <= B <= C, with C rated at r(C) and not the top, the terms
r(C) * prod over the blocks U of C of coeff_U(A|U, B|U), and is divided by
decay(top) - decay(B).  The subsets of one size share one lattice core, so
one scatter adds the chains of all of them: one gather per block position
from a flat store of the smaller subsets' tables, and one np.add.at that
sums each entry's terms in C order.  The build
requires all decay rates of a subsystem to be distinct; coincidences are
grouped into equal-decay classes and either reported (harmless: away from
the top element, where the coefficients extend continuously) or fatal (a
member hitting the top decay rate, which breaks the pure-exponential form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping

import numpy as np
from scipy.special import gammainc

from recomb.dynamics import CoefficientTrajectory, RateSystem
from recomb.partitions import Partition, as_ground, bell_number, lattice

__all__ = [
    "DEGENERACY_TOL",
    "DegeneracyPair",
    "DegeneracyClass",
    "DegeneracyReport",
    "DegeneracyError",
    "NonInvertibleError",
    "ClosedFormSolution",
    "decay_rate",
    "linear_decay_rate",
    "split_block_count",
    "linear_solution",
    "rates_from_linear_decay",
    "detect_degeneracy",
    "build_closed_form",
    "exp_convolution",
    "exp_monomial_convolution",
]

DEGENERACY_TOL = 1e-9
MAX_MONOMIAL_ORDER = 20

_DIAG_TOL = 1e-12


class NonInvertibleError(RuntimeError):
    """The coefficient table has a vanishing diagonal entry."""


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
    the tolerance, in lattice order; the bad members collide badly with the top."""

    subset: tuple[int, ...]
    members: tuple[Partition, ...]
    decay: tuple[float, ...]
    bad: tuple[Partition, ...]


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
        return any(c.bad for c in self.classes)

    @property
    def pairs(self) -> list[DegeneracyPair]:
        """Every pair of one class within the tolerance; a pair is bad when
        it joins the top to a bad member."""
        out = []
        for c in self.classes:
            top = Partition.whole(c.subset)
            d = np.array(c.decay)
            close = np.abs(d[:, None] - d[None, :]) <= self.tolerance
            for i, j in zip(*np.nonzero(np.triu(close, 1))):
                a, b = c.members[i], c.members[j]
                kind = "bad" if top in (a, b) and (a in c.bad or b in c.bad) else "harmless"
                out.append(DegeneracyPair(c.subset, a, b, c.decay[i], c.decay[j], kind))
        return out

    def to_json_dict(self) -> dict:
        return {
            "degenerate": self.degenerate,
            "bad": self.has_bad,
            "tolerance": self.tolerance,
            "classes": [
                {
                    "subset": ",".join(str(x) for x in c.subset),
                    "decay": min(c.decay),
                    "partitions": [str(p) for p in c.members],
                    "bad": [str(p) for p in c.bad],
                }
                for c in self.classes
            ],
        }


class DegeneracyError(RuntimeError):
    """Raised when a decay rate collides with the top decay rate."""

    def __init__(self, report: DegeneracyReport):
        bad = sum(len(c.bad) for c in report.classes)
        super().__init__(
            f"{bad} bad decay-rate coincidence(s); closed form unavailable"
        )
        self.report = report


def _sizes(ground: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """All nonempty subsets by size, smallest first, lexicographic within a size."""
    return [list(combinations(ground, k)) for k in range(1, len(ground) + 1)]


def decay_rate(rates: RateSystem, u, a: Partition) -> float:
    """Total transition rate out of a partition state: additive over blocks,
    each block contributing the rate of events that split it."""
    g = as_ground(u)
    if a.ground != g:
        raise ValueError("partition is not on the requested subset")
    if not set(g) <= set(rates.ground):
        raise ValueError("subset is not inside the ground set")
    return float(sum(rates.splitting_rate(block) for block in a.blocks))


def linear_decay_rate(rates: RateSystem, u, a: Partition) -> float:
    """Decay rate of the linearized system: marginal rate mass outside the
    interval from a to the top."""
    g = as_ground(u)
    if a.ground != g:
        raise ValueError("partition is not on the requested subset")
    return float(_linear_decay(rates, g)[lattice(g).index[a]])


def _linear_decay(rates: RateSystem, g: tuple[int, ...]) -> np.ndarray:
    """chi on lattice(g): the total minus the rate mass coarser than each
    partition."""
    return rates.total - lattice(g).finer @ rates.marginal(g)


def _times(times) -> np.ndarray:
    """The grid as a float array, checked to be 1-d and nonnegative."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(times >= 0):
        raise ValueError("times must be a 1-d array of nonnegative times")
    return times


def _rates_from_decay(g, product: np.ndarray, total: float) -> dict[Partition, float]:
    """Rates -product, product = theta @ psi, with the total added on the top:
    the rates whose solution has coefficient table theta and decay rates psi."""
    lat = lattice(g)
    vals = -product
    vals[lat.top_index] += total
    return {p: float(vals[i]) for i, p in enumerate(lat.parts)}


def split_block_count(a: Partition, b: Partition) -> int:
    """Number of blocks of a that b separates; zero iff b is coarser than a.

    The decay rate satisfies
    decay(a) = sum_b split_block_count(a, b) * rate(b)."""
    if a.ground != b.ground:
        raise ValueError("ground-set mismatch")
    owner: dict[int, int] = {}
    for k, block in enumerate(b.blocks):
        for x in block:
            owner[x] = k
    return sum(1 for block in a.blocks if len({owner[x] for x in block}) > 1)


def linear_solution(rates: RateSystem, u, times) -> CoefficientTrajectory:
    """Solution of the linearized system at the grid times, as probability
    vectors.

    Moebius inversion of exp(-chi t), chi the interval-complement decay
    rates, by one substitution over the whole grid; the defining sum over
    subsets of the lattice serves as a test oracle.
    """
    g, times = as_ground(u), _times(times)
    lat = lattice(g)
    survival = np.exp(-np.multiply.outer(_linear_decay(rates, g), times))
    return CoefficientTrajectory(g, times, lat.incidence_solve(lat.finer, survival).T)


def rates_from_linear_decay(
    chi_table: Mapping[Partition, float], rho_total: float, u
) -> dict[Partition, float]:
    """Invert the linear decay rates back to rates by upper Moebius inversion.

    The top-element rate is not determined by the decay rates; it is fixed
    by the supplied total."""
    g = as_ground(u)
    lat = lattice(g)
    if set(chi_table) != set(lat.parts):
        raise ValueError("decay table must cover every partition of the subset")
    chi = np.array([chi_table[p] for p in lat.parts], dtype=float)
    return _rates_from_decay(g, lat.incidence_solve(lat.finer, chi), rho_total)


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
        split[_global_masks(n, k)[:, -1]] = [rates.splitting_rate(u) for u in us]
        lat = lattice(us[0])
        gather = split[_global_masks(n, k)]
        psi = np.zeros((len(us), lat.size))
        for masks in lat.block_masks.T:
            psi += gather[:, masks]
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
        bad = set(near[lat.finer[near] @ rvec - rvec[top] > 0.0].tolist())
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi - lo < 2:
                continue
            run = np.sort(order[lo:hi])
            parts = [lat.parts[i] for i in run]
            bad_parts = tuple(p for i, p in zip(run, parts) if i in bad)
            classes.append(DegeneracyClass(u, tuple(parts), tuple(psi[run].tolist()), bad_parts))
    return DegeneracyReport(tuple(classes), tol_abs)


def detect_degeneracy(rates: RateSystem) -> DegeneracyReport:
    """List all decay-rate coincidences, classified bad or harmless.

    Comparison is relative to max(rho_total, 1)."""
    decay = _decay_tables(rates)
    return _scan_degeneracies(rates, decay, DEGENERACY_TOL * max(rates.total, 1.0))


class ClosedFormSolution:
    """Per-subset decay and coefficient tables, evaluated on a whole time
    grid by one product.

    Immutable once built; evaluation is pure.
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

    def decay_table(self, u) -> np.ndarray:
        return self._decay[self._key(u)]

    def coefficient_table(self, u) -> np.ndarray:
        return self._coeff[self._key(u)]

    def evaluate(self, u, times) -> CoefficientTrajectory:
        """The probability vectors on the subsystem u at the grid times."""
        g, times = self._key(u), _times(times)
        factors = np.exp(-np.multiply.outer(times, self._decay[g]))
        return CoefficientTrajectory(g, times, factors @ self._coeff[g].T)

    def _invertible(self, g: tuple[int, ...]) -> np.ndarray:
        """The coefficient table of g, checked to have no vanishing diagonal."""
        theta = self._coeff[g]
        scale = max(1.0, float(np.abs(theta).max()))
        if np.abs(np.diag(theta)).min() <= _DIAG_TOL * scale:
            raise NonInvertibleError(
                "coefficient table has a vanishing diagonal entry; "
                "inverse requires positive rates on all two-block partitions"
            )
        return theta

    def inverse_table(self, u) -> np.ndarray:
        """Inverse of the coefficient table in the incidence algebra."""
        g = self._key(u)
        theta = self._invertible(g)
        return lattice(g).incidence_solve(theta, np.eye(theta.shape[0]))

    def decoupled_coefficient(self, u, a: Partition, t: float) -> float:
        """Inverse-transformed coefficient; decays as a pure exponential
        exp(-decay(a) * t).  One substitution solves for the whole vector."""
        g = self._key(u)
        lat = lattice(g)
        x = lat.incidence_solve(self._invertible(g), self.evaluate(g, [t]).values[0])
        return float(x[lat.index[a]])

    def recovered_rates(self, u) -> dict[Partition, float]:
        """Rates reconstructed from decay rates and coefficients; round-trips
        with the marginal input rates."""
        g = self._key(u)
        return _rates_from_decay(g, self._coeff[g] @ self._decay[g], self.rates.total)

    def to_json_dict(self) -> dict:
        out = {
            "ground": ",".join(str(x) for x in self.rates.ground),
            "rho_total": self.rates.total,
            "degeneracy": self.report.to_json_dict(),
            "subsets": {},
        }
        for u, psi in self._decay.items():
            lat = lattice(u)
            theta = self._coeff[u]
            key = ",".join(str(x) for x in u)
            names = [str(p) for p in lat.parts]
            out["subsets"][key] = {
                "decay": {name: float(psi[i]) for i, name in enumerate(names)},
                "coeff": {
                    name: {names[j]: theta[i, j] for j in np.flatnonzero(theta[i])}
                    for i, name in enumerate(names)
                },
            }
        return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i], ..., starts[i] + counts[i] - 1."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


# chains per run of the chain scatter; bounds its temporaries at n = 8
_RUN_CHAINS = 1 << 15


def _add_chains(flat, lat, rvec, cols, store, offset) -> None:
    """Add r_u(c) * prod over the blocks V of c of coeff_V(a|V, b|V) to
    theta_u[a, b] for every subset u of one size and every chain
    a <= b <= c of lat with c rated and not the top and b a kept column of
    u; each entry sums its terms in c order.

    flat holds the row-major theta_u one after another; rvec and cols are
    (subsets, B) and offset[u, m] is the start in store of the table of u's
    sites at mask m."""
    size = lat.size
    ptr, down = lat.down_sets
    u, c = np.nonzero(rvec)  # by subset, then c
    u, c = u[c != lat.top_index], c[c != lat.top_index]
    fan = ptr[c + 1] - ptr[c]
    b = down[_ranges(ptr[c], fan)]
    u, c = np.repeat(u, fan), np.repeat(c, fan)
    keep = cols[u, b]
    u, b, c = u[keep], b[keep], c[keep]
    if not b.size:
        return
    fan = ptr[b + 1] - ptr[b]
    masks = lat.block_masks
    table = lat.restriction_table
    stride = np.array([bell_number(m.bit_count()) for m in range(len(table))])  # B of each mask
    ends = np.cumsum(fan)
    cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], _RUN_CHAINS), "right"))
    for lo, hi in zip(cuts, [*cuts[1:], b.size]):
        us, bs, cs, fs = u[lo:hi], b[lo:hi], c[lo:hi], fan[lo:hi]
        a = down[_ranges(ptr[bs], fs)]
        prod = None
        for j in range(int(lat.block_counts[cs].max())):
            m = masks[cs, j]
            at = np.repeat(offset[us, m] + table[m, bs], fs)
            m = np.repeat(m, fs)
            at += table[m, a] * stride[m]
            if prod is None:
                prod = store[at]
            else:
                prod *= store[at]
        at = np.repeat(us * size * size + bs, fs) + a * size
        np.add.at(flat, at, np.repeat(rvec[us, cs], fs) * prod)


def build_closed_form(rates: RateSystem) -> ClosedFormSolution:
    """Build decay and coefficient tables for every nonempty subset.

    Raises DegeneracyError when a decay rate collides with the top decay
    rate of its subsystem (the pure-exponential form then fails).  Harmless
    coincidences are attached to the returned solution's report; the
    coefficients extend continuously there.
    """
    ground = rates.ground
    tol_abs = DEGENERACY_TOL * max(rates.total, 1.0)
    decay = _decay_tables(rates)
    report = _scan_degeneracies(rates, decay, tol_abs)
    if report.has_bad:
        raise DegeneracyError(report)
    # distinctness is inherited downward from the full system: a collision in
    # a subsystem forces one with the identical decay gap at the top level
    if report.classes and not any(c.subset == ground for c in report.classes):
        raise AssertionError(
            "subsystem decay collision without a top-level one; "
            "marginal rates are inconsistent"
        )

    # one flat store of the proper subsets' tables, in subset order, and
    # their starts by ground mask; its first cell is a 1.0 that stands in
    # for the blocks a partition lacks (mask 0)
    n, sizes = len(ground), _sizes(ground)
    offset = np.zeros(1 << n, dtype=np.intp)
    cells = 1
    for k, us in enumerate(sizes[:-1], 1):
        offset[_global_masks(n, k)[:, -1]] = cells + bell_number(k) ** 2 * np.arange(len(us))
        cells += bell_number(k) ** 2 * len(us)
    store = np.empty(cells)
    store[0] = 1.0
    coeff: dict[tuple[int, ...], np.ndarray] = {}
    for k, us in enumerate(sizes, 1):
        lat = lattice(us[0])
        size = lat.size
        top = lat.top_index
        if k == n:
            flat = np.zeros(size * size)
        else:
            at = offset[_global_masks(n, k)[0, -1]]
            flat = store[at : at + len(us) * size * size]
            flat[:] = 0.0
        theta = flat.reshape(len(us), size, size)
        rvec = np.stack([rates.marginal(u) for u in us])
        psi = np.stack([decay[u] for u in us])
        gap = psi[:, top, None] - psi
        # a harmless top collision has no rate mass in [b, top), so its whole
        # column vanishes and the exponential set stays valid
        cols = np.abs(gap) > tol_abs
        cols[:, top] = False
        _add_chains(flat, lat, rvec, cols, store, offset[_global_masks(n, k)])
        theta /= np.where(cols, gap, 1.0)[:, None, :]  # in place: other columns are still zero
        theta[:, :, top] = -theta.sum(axis=2)
        theta[:, top, top] = 1.0
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
