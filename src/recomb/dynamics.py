"""The nonlinear dynamics on coefficient vectors over the partition lattice
and on measures, with a fixed-step 4th-order integrator as numerical oracle.

The coefficient system:

    da/dt (A) = -rho_total * a(A) + sum_{B coarser than A} gain(a; A, B) * rate(B)

where the gain factor is the blockwise marginal product defined below.  The
measure system applies block-product operators instead.  Both right-hand
sides share one gain term, compiled once per rate system (and per type
space): every block marginal is one ``np.bincount`` over the states' block
cells, and the sum over rated partitions p of r_p times the product of the
marginals on p's blocks is factored over the prefix trie of those blocks,
so partitions that begin with the same blocks share the partial product
(the distributive law; Aji & McEliece, "The generalized distributive law",
2000).  The trie is summed from the leaves up, one ``np.bincount`` per node
height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

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
_RUN_STATES = 1 << 20  # candidate states per run of trie edges compiled at once


class RateSystem:
    """Nonnegative recombination rates on the partitions of a ground set.

    Immutable by convention; derived tables are cached on first use: the
    marginal rates per subset, the prefix trie of the rated partitions' blocks
    and the compiled gain term per state space (None for the coefficient
    system, a ``TypeSpace`` for the measure system).
    """

    __slots__ = (
        "ground",
        "rates",
        "total",
        "_indices",
        "_weights",
        "_marginals",
        "_programs",
        "_trie",
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
        self._programs: dict[TypeSpace | None, _TrieProgram] = {}
        self._trie: tuple | None = None

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
            whole = lattice(self.ground)
            ridx = whole.restrictions(whole.mask(g), self._indices)
            cached = np.bincount(ridx, weights=self._weights, minlength=lattice(g).size)
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
    col = lat.meet_row(lat.index[b])
    return float(q.values[col == lat.index[a]].sum())


class _Level(NamedTuple):
    """The edges into the trie nodes of one height, whose values are
    ``values[lo:hi]``.  ``sum`` gathers each edge cell's child value at
    ``child``, multiplies in the marginal cell of each of its edge's blocks
    (``cells``, one array per block position, a shrinking prefix of the edge
    cells) and adds it into its parent's value at ``parent`` (relative to
    lo)."""

    lo: int
    hi: int
    child: np.ndarray
    parent: np.ndarray
    cells: list

    def sum(self, values: np.ndarray, marg: np.ndarray) -> np.ndarray:
        prod = values[self.child]
        for c in self.cells:
            head = prod[: c.size]
            head *= marg[c]
        return np.bincount(self.parent, prod, self.hi - self.lo)


@dataclass(frozen=True)
class _TrieProgram:
    """Compiled gain term of one right-hand side.

    Each rated partition p with at least two blocks feeds the state x by
    r_p * s * prod_U (m_U(x|U) / s) over the blocks U of p, where s is the
    mass and m_U the marginal on U.  The sum over p is factored over the
    prefix trie of the blocks (``_trie``): a node's value F lives on the
    states of its remainder C, a leaf holds r_p, and

        F(x) = sum over the edges to children c of prod_U m_U(x|U) * F_c(x|C_c)

    over the states x of C that neither the edge's blocks nor C_c cut (all of
    them on a measure).  The values sit in one vector, leaves first and the
    root last, and are filled one node height at a time: per level, one
    gather of child values, one gather-multiply per block position (edges
    sorted by descending block count, so the positions are shrinking
    prefixes) and one ``np.bincount`` into the parents.  Single-block rates
    act as the identity and cancel their share of the loss, so the loss rate
    is the sum of the kept rates.
    """

    loss: float               # sum of the kept rates
    state_cells: np.ndarray   # (N * blocks,) each state's cell per block marginal, state-major
    n_blocks: int
    n_cells: int              # cells of all block marginals together
    values: np.ndarray        # every node value but the root's, with r_p at the leaf of each kept p
    levels: list              # one _Level per node height, the root's last

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        out = -self.loss * vec
        s = float(vec.sum())
        if s <= 0.0 or not self.levels:
            return out
        # unit mass first, as in measures.recombinator
        marg = np.bincount(self.state_cells, (vec / s).repeat(self.n_blocks), self.n_cells)
        *inner, root = self.levels
        values = self.values.copy() if inner else self.values
        for level in inner:
            values[level.lo : level.hi] = level.sum(values, marg)
        out += s * root.sum(values, marg)
        return out


def _trie(rates: RateSystem) -> tuple[list, list, dict]:
    """The rated partitions of at least two blocks, by descending block
    count, and the prefix trie of their blocks (canonical order, by least
    site) with each single-child chain merged into one edge; built on first
    use and cached on the rates.

    Nodes are named by their prefix: the root is ``()`` and the leaf of the
    k-th kept partition is its ``blocks``.  The edges (parent, blocks, child)
    come in post-order, so the edges out of one node follow the first
    appearance of their first block among the kept partitions.  Each node
    maps to its height (0 at the leaves) and its remainder, the sites its
    prefix leaves uncovered."""
    if rates._trie is not None:
        return rates._trie
    kept = sorted(
        ((p, r) for p, r in rates.rates.items() if r > 0 and p.block_count > 1),
        key=lambda pr: -pr[0].block_count,
    )
    root: dict = {}
    for p, _ in kept:
        node = root
        for u in p.blocks:
            node = node.setdefault(u, {})
    edges: list = []
    nodes: dict = {}

    def visit(prefix, rest, node):
        h = 0
        for u, child in node.items():
            blocks = (u,)
            while len(child) == 1:
                ((v, child),) = child.items()
                blocks += (v,)
            end = prefix + blocks
            covered = {x for v in blocks for x in v}
            left = tuple(x for x in rest if x not in covered)
            if child:
                visit(end, left, child)
            else:
                nodes[end] = (0, left)
            h = max(h, nodes[end][0] + 1)
            edges.append((prefix, blocks, end))
        nodes[prefix] = (h, rest)

    if kept:
        visit((), rates.ground, root)
    rates._trie = kept, edges, nodes
    return rates._trie


def _program(rates: RateSystem, space: TypeSpace | None = None) -> _TrieProgram:
    """The gain term of the coefficient system (space None) or of the
    measure system on space, compiled on first use and cached on the rates.

    A node of the trie with remainder C holds one value per state of C: the
    partitions ``lattice(C)`` on the coefficient side, the product of C's
    alphabets on a measure.  An edge carrying the blocks U_1..U_j to a child
    with remainder C' feeds the states of C that none of U_1..U_j, C' cuts:
    all of them on a measure; on the lattice those whose block count is the
    sum of the counts of their restrictions.  Such a state's cell in the
    marginal on U is its restriction to U, and its child value the one at
    its restriction to C'.
    """
    prog = rates._programs.get(space)
    if prog is not None:
        return prog
    ground = rates.ground
    if space is None:
        n_states = lambda c: bell_number(len(c))  # noqa: E731
    else:
        if space.sites != ground:
            raise ValueError("measure sites must match the rate system ground set")
        alphabet = dict(zip(space.sites, space.sizes))
        n_states = lambda c: math.prod(alphabet[x] for x in c)  # noqa: E731
    kept, edges, nodes = _trie(rates)
    blocks = sorted({u for p, _ in kept for u in p.blocks})
    # the subsets each remainder is restricted to: every block at the root,
    # and on each edge its blocks and its child's remainder (empty at a leaf)
    wanted: dict = {ground: dict.fromkeys(blocks)} if kept else {}
    for prefix, edge_blocks, end in edges:
        subsets = wanted.setdefault(nodes[prefix][1], {})
        subsets.update(dict.fromkeys(edge_blocks + (nodes[end][1],)))
    # (c, u) -> each state of c restricted to u, and on the lattice the block
    # count of that restriction; the empty u has one state
    size_of = {c: n_states(c) for c in wanted}
    restricted: dict = {}
    whole = lattice(ground)
    from_ground: dict = {}
    for c, subsets in wanted.items():
        if space is None:
            # a partition of the ground set above each partition x of c: its
            # restriction to u is x's
            for u in (c, *subsets):
                if u and u not in from_ground:
                    from_ground[u] = whole.restriction_index(u)
            above = np.empty(size_of[c], np.intp)
            above[from_ground[c]] = np.arange(whole.size)
            for u in subsets:
                if u:
                    idx = from_ground[u] if c == ground else from_ground[u][above]
                    restricted[c, u] = idx, lattice(u).block_counts[idx].astype(np.int8)
                else:
                    restricted[c, u] = (np.zeros(size_of[c], np.intp),) * 2
        else:
            # mixed-radix strides of u's letters at their axes in c, one row
            # per subset: one product gives every restriction of c's states
            strides = []
            for u in subsets:
                row, stride = [0] * len(c), 1
                for x in reversed(u):
                    row[c.index(x)], stride = stride, stride * alphabet[x]
                strides.append(row)
            letters = np.array(np.unravel_index(np.arange(size_of[c]), [alphabet[x] for x in c]))
            at = np.array(strides, dtype=np.intp) @ letters
            for u, idx in zip(subsets, at):
                restricted[c, u] = idx, None
    state_cells = np.zeros((n_states(ground), len(blocks)), dtype=np.intp)
    start = {}
    n_cells = 0
    for i, u in enumerate(blocks):
        state_cells[:, i] = n_cells + restricted[ground, u][0]
        start[u] = n_cells
        n_cells += n_states(u)
    # node values: leaves first, then inner nodes by height, the root last
    offset = {p.blocks: k for k, (p, _) in enumerate(kept)}
    lo: dict = {}
    size = len(kept)
    for prefix in sorted((p for p in nodes if nodes[p][0]), key=lambda p: nodes[p][0]):
        offset[prefix] = size
        lo.setdefault(nodes[prefix][0], size)
        size += size_of[nodes[prefix][1]]
    by_height: dict = {}
    for edge in edges:
        by_height.setdefault(nodes[edge[0]][0], []).append(edge)

    def feed(run, lo):
        # the edge cells of a run of edges: every state of each parent's
        # remainder, edge-major, and on the lattice only those that no block
        # or child remainder of the edge cuts
        rests = [nodes[prefix][1] for prefix, _, _ in run]
        fan = np.array([size_of[c] for c in rests])
        first = np.repeat(np.cumsum(fan) - fan, fan)
        parent = np.arange(first.size) - first
        parent += np.repeat([offset[prefix] - lo for prefix, _, _ in run], fan)
        tails = [restricted[c, nodes[end][1]] for c, (_, _, end) in zip(rests, run)]
        child = np.concatenate([i for i, _ in tails])
        child += np.repeat([offset[end] for _, _, end in run], fan)
        count = np.concatenate([k for _, k in tails]) if space is None else None
        cells = []
        for j in range(len(run[0][1])):
            have = [(c, e[1][j]) for c, e in zip(rests, run) if len(e[1]) > j]
            heads = [restricted[c, u] for c, u in have]
            cells.append(np.concatenate([i for i, _ in heads]))
            cells[j] += np.repeat([start[u] for _, u in have], fan[: len(have)])
            if count is not None:
                count[: cells[j].size] += np.concatenate([k for _, k in heads])
        if count is None:
            return child, parent, cells
        keep = np.flatnonzero(count == np.concatenate([lattice(c).block_counts for c in rests]))
        return child[keep], parent[keep], [c[keep[: np.searchsorted(keep, c.size)]] for c in cells]

    levels = []
    for h in sorted(by_height):
        level = sorted(by_height[h], key=lambda e: -len(e[1]))
        # runs of about _RUN_STATES candidate states bound the arrays the
        # lattice filters; a position's cells stay a prefix across runs,
        # since the edges keep their order
        ends = np.cumsum([size_of[nodes[prefix][1]] for prefix, _, _ in level])
        cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], _RUN_STATES), "right"))
        runs = [feed(level[i:k], lo[h]) for i, k in zip(cuts, [*cuts[1:], len(level)])]
        child, parent = (np.concatenate([run[f] for run in runs]) for f in (0, 1))
        cells = [
            np.concatenate([run[2][j] for run in runs if len(run[2]) > j])
            for j in range(len(level[0][1]))
        ]
        levels.append(_Level(lo[h], lo.get(h + 1, size), child, parent, cells))
    values = np.zeros(offset.get((), 0))  # all but the root, placed last: its values are the gain
    values[: len(kept)] = [r for _, r in kept]
    loss = float(sum(r for _, r in kept))
    prog = _TrieProgram(loss, state_cells.reshape(-1), len(blocks), n_cells, values, levels)
    rates._programs[space] = prog
    return prog


def program_cells(rates: RateSystem, space: TypeSpace | None = None) -> int:
    """The number of cell indices ``_program(rates, space)`` stores, from
    the trie and block sizes alone: one per state and distinct block, and one
    per block of each edge cell.  An edge out of a node with remainder C
    feeds every state of C on a measure; on the lattice it feeds the
    prod_V B(|V|) partitions of C that its blocks and its child's remainder
    V do not cut."""
    kept, edges, nodes = _trie(rates)
    if space is None:
        states = bell_number(len(rates.ground))
        fed = [
            math.prod(bell_number(len(v)) for v in blocks + (nodes[end][1],))
            for _, blocks, end in edges
        ]
    else:
        states = space.n_states
        alphabet = dict(zip(space.sites, space.sizes))
        fed = [math.prod(alphabet[x] for x in nodes[prefix][1]) for prefix, _, _ in edges]
    blocks = {u for p, _ in kept for u in p.blocks}
    return states * len(blocks) + sum(len(e[1]) * m for e, m in zip(edges, fed))


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
