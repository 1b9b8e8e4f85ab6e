"""The nonlinear dynamics on coefficient vectors over the partition lattice
and on measures, with a fixed-step 4th-order integrator as numerical oracle.

The coefficient system:

    da/dt (A) = -rho_total * a(A) + sum_{B coarser than A} gain(a; A, B) * rate(B)

where the gain factor is the blockwise marginal product defined below.  The
measure system applies block-product operators instead.  Both right-hand
sides share one gain term, compiled once per rate system (and per type
space) into flat (state, partition) pairs: every block marginal is one
``np.bincount`` over the states' block cells, and the gain is one more over
the pairs.  On the lattice the pairs are the comparable ones, a finer than
p; on a measure every state pairs with every rated partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from recomb.measures import MAX_STATES, Measure, TypeSpace
from recomb.partitions import (
    Partition,
    as_ground,
    bell_number,
    is_refinement,
    lattice,
)

__all__ = [
    "RateSystem",
    "CoefficientVector",
    "CoefficientTrajectory",
    "MeasureTrajectory",
    "refinement_gain",
    "meet_gain",
    "coefficient_rhs",
    "measure_rhs",
    "integrate_coefficients",
    "integrate_measure",
    "default_step",
    "rk4_plan",
]

_NEG_TOL = 1e-8
MAX_STEP_FRACTION = 0.25  # step * rho_total must stay below this
MAX_SUBSTEPS = 10**6  # RK4 substeps one integration may take over its whole grid


class RateSystem:
    """Nonnegative recombination rates on the partitions of a ground set.

    Immutable by convention; derived tables are cached on first use: the
    marginal rates per subset and the compiled gain term per state space
    (None for the coefficient system, a ``TypeSpace`` for the measure system).
    """

    __slots__ = (
        "ground",
        "rates",
        "total",
        "_indices",
        "_weights",
        "_marginals",
        "_programs",
    )

    def __init__(self, ground, rates: Mapping[Partition, float]):
        g = as_ground(ground)
        clean: dict[Partition, float] = {}
        for p, r in rates.items():
            if not isinstance(p, Partition):
                raise TypeError("rate keys must be Partition objects")
            if p.ground != g:
                raise ValueError(f"partition {p} is not on the ground set {g}")
            r = float(r)
            if not (math.isfinite(r) and r >= 0):
                raise ValueError(f"rate for {p} must be finite and nonnegative, got {r}")
            clean[p] = r
        self.ground = g
        self.rates = clean
        self.total = float(sum(clean.values()))
        # lattice indices and weights of the rates, in the order given
        index = lattice(g).index
        self._indices = np.array([index[p] for p in clean], dtype=np.intp)
        self._weights = np.array(list(clean.values()), dtype=float)
        self._marginals: dict[tuple[int, ...], np.ndarray] = {}
        self._programs: dict[TypeSpace | None, _PairProgram] = {}

    @classmethod
    def from_strings(cls, ground, rates: Mapping[str, float]) -> "RateSystem":
        from recomb.partitions import parse_partition

        g = as_ground(ground)
        return cls(g, {parse_partition(k, g): v for k, v in rates.items()})

    def rate(self, p: Partition) -> float:
        return self.rates.get(p, 0.0)

    def support(self) -> list[Partition]:
        return [p for p, r in self.rates.items() if r > 0]

    def marginal(self, u) -> np.ndarray:
        """Rates induced on the subsystem u, as a read-only vector in
        ``lattice(u)`` order: the sums over the fibers of restriction to u,
        accumulated in the order the rates were given."""
        g = as_ground(u)
        cached = self._marginals.get(g)
        if cached is None:
            ridx = lattice(self.ground).restriction_index(g)
            cached = np.bincount(
                ridx[self._indices], weights=self._weights, minlength=lattice(g).size
            )
            cached.flags.writeable = False
            self._marginals[g] = cached
        return cached

    def splitting_rate(self, u) -> float:
        """Total rate of events whose partition separates the sites of u: the
        total minus the marginal rate of keeping u whole.  This is the decay
        rate of the single-block partition of u; a partition's decay (exit)
        rate is the sum over its blocks."""
        g = as_ground(u)
        return float(self.total - self.marginal(g)[lattice(g).top_index])

    def __repr__(self) -> str:
        return f"RateSystem(n={len(self.ground)}, total={self.total:.6g})"


@dataclass
class CoefficientVector:
    """A real vector indexed by the partitions of a ground set."""

    ground: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self.ground = as_ground(self.ground)
        lat = lattice(self.ground)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (lat.size,):
            raise ValueError(f"values must have length {lat.size}")
        self.values = v

    @classmethod
    def delta_top(cls, ground) -> "CoefficientVector":
        """The initial condition: all mass on the single-block partition."""
        g = as_ground(ground)
        lat = lattice(g)
        v = np.zeros(lat.size)
        v[lat.top_index] = 1.0
        return cls(g, v)

    @classmethod
    def from_dict(cls, ground, mapping: Mapping[Partition, float]) -> "CoefficientVector":
        g = as_ground(ground)
        lat = lattice(g)
        v = np.zeros(lat.size)
        for p, x in mapping.items():
            v[lat.index[p]] = float(x)
        return cls(g, v)

    def value(self, p: Partition) -> float:
        return float(self.values[lattice(self.ground).index[p]])

    def as_dict(self) -> dict[Partition, float]:
        lat = lattice(self.ground)
        return {p: float(self.values[i]) for i, p in enumerate(lat.parts)}

    def sum(self) -> float:
        return float(self.values.sum())

    def marginal(self, u) -> "CoefficientVector":
        """Sums over restriction fibers: the induced vector on the subsystem u."""
        g = as_ground(u)
        ridx = lattice(self.ground).restriction_index(g)
        sums = np.bincount(ridx, weights=self.values, minlength=lattice(g).size)
        return CoefficientVector(g, sums)


def refinement_gain(q: CoefficientVector, a: Partition, b: Partition) -> float:
    """Blockwise marginal product: the gain coefficient of the nonlinear system.

    For a finer than b this is

        ||q||_1 ** (1 - |b|) * prod_i ( sum of q over partitions restricting
                                        to a's trace on the i-th block of b )

    and zero otherwise; it is also zero for the zero vector.  Only defined
    for nonnegative q.
    """
    if q.ground != a.ground or a.ground != b.ground:
        raise ValueError("ground-set mismatch")
    v = q.values
    if v.min() < -_NEG_TOL * max(1.0, abs(v).max()):
        raise ValueError("gain coefficients are only defined for nonnegative vectors")
    if not is_refinement(a, b):
        return 0.0
    total = float(v.sum())
    if total == 0.0:
        return 0.0
    lat = lattice(q.ground)
    out = total ** (1 - b.block_count)
    for block in b.blocks:
        ridx = lat.restriction_index(block)
        out *= float(v[ridx == ridx[lat.index[a]]].sum())
    return out


def meet_gain(q: CoefficientVector, a: Partition, b: Partition) -> float:
    """Linearized gain: total mass of partitions whose meet with b equals a."""
    if q.ground != a.ground or a.ground != b.ground:
        raise ValueError("ground-set mismatch")
    if not is_refinement(a, b):
        return 0.0
    lat = lattice(q.ground)
    col = lat.meet_table[:, lat.index[b]]
    return float(q.values[col == lat.index[a]].sum())


@dataclass(frozen=True)
class _PairProgram:
    """Compiled gain term of one right-hand side.

    Each rated partition p with at least two blocks feeds the state x by
    r_p * s * prod_U (m_U(x|U) / s) over the blocks U of p, where s is the
    mass and m_U the marginal on U.  The (state, p) pairs that can gain are
    stored sorted by descending block count, with one cell array per block
    position, so the product over positions is a run of shrinking in-place
    multiplies.  Single-block rates act as the identity and cancel their
    share of the loss, so the loss rate is the sum of the kept rates.
    """

    loss: float               # sum of the kept rates
    state_cells: np.ndarray   # (N * blocks,) each state's cell per block marginal, state-major
    n_blocks: int
    n_cells: int              # cells of all block marginals together
    rows: np.ndarray          # (P,) state fed by each pair
    rate: np.ndarray          # (P,) rate of each pair's partition
    cells: list               # per block position, the cells of the pairs that have it

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        out = -self.loss * vec
        s = float(vec.sum())
        if s <= 0.0 or not self.rows.size:
            return out
        # unit mass first, as in measures.recombinator
        marg = np.bincount(self.state_cells, (vec / s).repeat(self.n_blocks), self.n_cells)
        prod = self.rate * marg[self.cells[0]]
        for cells in self.cells[1:]:
            head = prod[: cells.size]
            head *= marg[cells]
        out += s * np.bincount(self.rows, prod, vec.size)
        return out


def _program(rates: RateSystem, space: TypeSpace | None = None) -> _PairProgram:
    """The gain term of the coefficient system (space None) or of the
    measure system on space, compiled on first use and cached on the rates.

    On the lattice a partition a gains from p only when a refines p, and its
    cell in the marginal on a block U is the restriction of a to U; on a
    measure every state gains, and its cell is its letters on U.
    """
    prog = rates._programs.get(space)
    if prog is not None:
        return prog
    kept = sorted(
        ((p, r) for p, r in rates.rates.items() if r > 0 and p.block_count > 1),
        key=lambda pr: -pr[0].block_count,
    )
    blocks = sorted({u for p, _ in kept for u in p.blocks})
    if space is None:
        lat = lattice(rates.ground)
        width = lat.size
        marginals = [(lat.restriction_index(u), lattice(u).size) for u in blocks]
        # a refines p exactly when p cuts no block of a, that is when the
        # block counts of a's restrictions to the blocks of p add up to a's
        count = {u: lattice(u).block_counts[idx] for u, (idx, _) in zip(blocks, marginals)}
        gains = [
            np.flatnonzero(sum(count[u] for u in p.blocks) == lat.block_counts) for p, _ in kept
        ]
    else:
        if space.sites != rates.ground:
            raise ValueError("measure sites must match the rate system ground set")
        width = space.n_states
        gains = [np.arange(width)] * len(kept)
        coords = np.indices(space.sizes).reshape(len(space.sizes), -1)
        marginals = []
        for u in blocks:
            sub = space.subspace(u)
            axes = [space.axis(x) for x in u]
            marginals.append((np.ravel_multi_index(coords[axes], sub.sizes), sub.n_states))
    state_cells = np.zeros((width, len(blocks)), dtype=np.intp)
    n_cells = 0
    for i, (idx, size) in enumerate(marginals):
        state_cells[:, i] = n_cells + idx
        n_cells += size
    block_id = {u: i for i, u in enumerate(blocks)}
    ids = np.full((len(kept), max((p.block_count for p, _ in kept), default=0)), -1)
    for k, (p, _) in enumerate(kept):
        ids[k, : p.block_count] = [block_id[u] for u in p.blocks]
    part = np.repeat(np.arange(len(kept)), [g.size for g in gains])  # by descending block count
    rows = np.concatenate([part[:0], *gains])  # states ascending; part[:0] when nothing is kept
    cells = []
    for position in ids.T:
        block = position[part]
        m = int(np.count_nonzero(block >= 0))  # a prefix of the pairs
        cells.append(state_cells[rows[:m], block[:m]])
    rate = np.array([r for _, r in kept])[part]
    loss = float(sum(r for _, r in kept))
    prog = _PairProgram(loss, state_cells.reshape(-1), len(blocks), n_cells, rows, rate, cells)
    rates._programs[space] = prog
    return prog


def program_cells(rates: RateSystem, space: TypeSpace | None = None) -> int:
    """The number of cell indices ``_program(rates, space)`` stores, from
    block sizes alone: one per state and distinct block, and one per block of
    each gain pair.  Every state of a measure gains from a rated partition p;
    on the lattice the prod_V B(|V|) partitions finer than p do."""
    kept = [p for p, r in rates.rates.items() if r > 0 and p.block_count > 1]
    if space is None:
        states = bell_number(len(rates.ground))
        gaining = [math.prod(bell_number(len(u)) for u in p.blocks) for p in kept]
    else:
        states = space.n_states
        gaining = [states] * len(kept)
    blocks = {u for p in kept for u in p.blocks}
    return states * len(blocks) + sum(p.block_count * m for p, m in zip(kept, gaining))


def coefficient_rhs(a: CoefficientVector, rates: RateSystem) -> CoefficientVector:
    """Right-hand side of the induced system on the partition lattice.

    Entries sum to zero for nonnegative input, mirroring mass conservation.
    """
    if a.ground != rates.ground:
        raise ValueError("ground-set mismatch")
    v = a.values
    if v.min() < -_NEG_TOL * max(1.0, abs(v).max()):
        raise ValueError("coefficient vector must be nonnegative")
    return CoefficientVector(a.ground, _program(rates).rhs(v))


def measure_rhs(omega: Measure, rates: RateSystem) -> np.ndarray:
    """Right-hand side of the measure-valued system; a signed tensor whose
    entries sum to zero."""
    w = omega.weights
    if w.min() < -_NEG_TOL * max(1.0, abs(w).max()):
        raise ValueError("measure must be nonnegative")
    prog = _program(rates, omega.space)
    return prog.rhs(w.reshape(-1)).reshape(w.shape)


def default_step(rates: RateSystem, span: float) -> float:
    """Default integrator step: 0.05 / rho_total, capped by the grid span."""
    if rates.total <= 0.0:
        return max(span, 1.0) / 8.0
    return min(0.05 / rates.total, max(span, 1e-12))


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("grid must be a 1-d array of times")
    if g[0] != 0.0:
        raise ValueError("grid must start at 0")
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing")
    return g


def check_step(step, rates: RateSystem) -> float:
    """An integrator step: finite, positive, and step * rho_total at most
    MAX_STEP_FRACTION."""
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if step * rates.total > MAX_STEP_FRACTION + 1e-12:
        raise ValueError(
            f"step {step} too large: step * rho_total must be <= {MAX_STEP_FRACTION}"
        )
    return step


def rk4_plan(
    rates: RateSystem, grid, step: float | None = None, space: TypeSpace | None = None
) -> tuple[np.ndarray, float, np.ndarray]:
    """The checked grid, the integrator step (``step``, or ``default_step``)
    and the number of RK4 substeps in each grid interval, for the coefficient
    system (space None) or the measure system on space.

    The counts are floats, so an integration without bound reads as inf
    instead of overflowing; a total above MAX_SUBSTEPS raises ValueError, and
    so does a gain term above MAX_STATES cell indices (``program_cells``).
    """
    cells = program_cells(rates, space)
    if cells > MAX_STATES:
        kind = "coefficient" if space is None else "measure"
        raise ValueError(f"{kind} program of {cells} cell indices exceeds {MAX_STATES}")
    g = _validate_grid(grid)
    span = float(g[-1] - g[0]) if g.size > 1 else 1.0
    h = default_step(rates, span) if step is None else check_step(step, rates)
    with np.errstate(over="ignore"):
        substeps = np.maximum(1.0, np.ceil(np.diff(g) / h - 1e-12))
    total = float(substeps.sum())
    if total > MAX_SUBSTEPS:
        raise ValueError(
            f"integration needs {total:.3g} RK4 substeps, more than {MAX_SUBSTEPS}; "
            "use a larger step or a shorter time grid"
        )
    return g, h, substeps


def _rk4(rhs, y0: np.ndarray, grid: np.ndarray, substeps: np.ndarray) -> np.ndarray:
    out = np.empty((grid.size,) + y0.shape)
    out[0] = y0
    y = y0.astype(float).copy()
    for k in range(grid.size - 1):
        h = (grid[k + 1] - grid[k]) / substeps[k]
        for _ in range(int(substeps[k])):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    return out


@dataclass
class CoefficientTrajectory:
    """Coefficient states on a time grid, plus the conservation diagnostic."""

    ground: tuple[int, ...]
    times: np.ndarray
    values: np.ndarray  # (T, B)
    step: float = field(default=float("nan"))

    def state(self, k: int) -> CoefficientVector:
        return CoefficientVector(self.ground, self.values[k])

    @property
    def drift(self) -> np.ndarray:
        """Per-grid-point deviation of the entry sum from its initial value.

        Reported, never corrected: conservation is a correctness signal.
        """
        sums = self.values.sum(axis=1)
        return sums - sums[0]


@dataclass
class MeasureTrajectory:
    """Measure states on a time grid, plus the conservation diagnostic."""

    space: TypeSpace
    times: np.ndarray
    tensors: np.ndarray  # (T, *sizes)
    step: float = field(default=float("nan"))

    def state(self, k: int) -> Measure:
        return Measure(self.space, self.tensors[k], validate=False)

    @property
    def drift(self) -> np.ndarray:
        sums = self.tensors.reshape(self.tensors.shape[0], -1).sum(axis=1)
        return sums - sums[0]


def integrate_coefficients(
    rates: RateSystem,
    a0: CoefficientVector,
    grid,
    step: float | None = None,
) -> CoefficientTrajectory:
    """Classical 4th-order fixed-step integration of the coefficient system."""
    if a0.ground != rates.ground:
        raise ValueError("ground-set mismatch")
    g, h, substeps = rk4_plan(rates, grid, step)
    prog = _program(rates)
    values = _rk4(prog.rhs, a0.values, g, substeps)
    return CoefficientTrajectory(rates.ground, g, values, step=h)


def integrate_measure(
    rates: RateSystem,
    omega0: Measure,
    grid,
    step: float | None = None,
) -> MeasureTrajectory:
    """Fixed-step integration of the measure-valued system."""
    g, h, substeps = rk4_plan(rates, grid, step, omega0.space)
    prog = _program(rates, omega0.space)
    # run at a total below one, scaled by a power of two: exact for a finite
    # run, and a total near the float limit cannot overflow inside a substep
    weights = omega0.weights.reshape(-1)
    exp = math.frexp(float(weights.sum()))[1]
    flat = np.ldexp(_rk4(prog.rhs, np.ldexp(weights, -exp), g, substeps), exp)
    tensors = flat.reshape((g.size,) + tuple(omega0.space.sizes))
    return MeasureTrajectory(omega0.space, g, tensors, step=h)
