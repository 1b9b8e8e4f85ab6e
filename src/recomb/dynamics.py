"""The nonlinear dynamics on coefficient vectors over the partition lattice
and on measures, with a fixed-step 4th-order integrator as numerical oracle.

The coefficient system:

    da/dt (A) = -rho_total * a(A) + sum_{B coarser than A} gain(a; A, B) * rate(B)

where the gain factor is the blockwise marginal product defined below.  The
measure system applies block-product operators instead.  Both right-hand
sides share one gain term: the block marginals are summed from the states,
or from the marginal of a smaller superset, one ``np.bincount`` per descent
level, and the sum over rated partitions p of r_p times the product of the
marginals on p's blocks is factored over the prefix trie of those blocks,
so partitions that begin with the same blocks share the partial product
(the distributive law; Aji & McEliece, "The generalized distributive law",
2000).  The trie is summed from the leaves up, one ``np.bincount`` per node
height.  With the coefficients of a trajectory in its leaves, the program
of their support gives the mixture of block-product operators
(``mixtures``), and compiled over several state spaces at once, one program
steps the coefficient and the measure system in lockstep (``_compile``).

What the rates alone determine is kept in one entry per rate system in a
per-process store (``_entry``), keyed by the ground and the lattice indices
and rates in the order given, one slot per artifact: the trie
(``"tables"``, ``_tables``) and its programs, compiled once per tuple of
state spaces (``("program", spaces)``, ``_program``), the closed form
(``"closed_form"``) and its count (``"size"``), and the sampler's jump
table of each start (``("jump", start)``).  A mixture's support is kept as
the entry of its partitions at unit rates.  Every slot is filled by one
method, ``_Entry.fill``, which builds it on first use and charges the cells
it holds (``_charge``); the store is bounded by the cells its entries hold:
past MAX_STATES, the least recently used are dropped.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from sys import getsizeof
from typing import Mapping, NamedTuple

import numpy as np

from recomb.measures import MAX_STATES, Measure, TypeSpace
from recomb.partitions import Partition, _runs, as_ground, bell_number, lattice

__all__ = [
    "RateSystem",
    "CoefficientVector",
    "CoefficientTrajectory",
    "MeasureTrajectory",
    "coefficient_rhs",
    "measure_rhs",
    "integrate_coefficients",
    "integrate_measure",
    "default_step",
    "rk4_plan",
    "mixtures",
]

_NEG_TOL = 1e-8
MAX_STEP_FRACTION = 0.25  # step * rho_total must stay below this
MAX_SUBSTEPS = 10**6  # RK4 substeps one integration may take over its whole grid
_RUN_STATES = 1 << 20  # candidate states per run of trie edges compiled at once
_DESCENT_CALL = 512  # cells that cost about one more np.bincount call (see _descent)
MAX_RK4_WORK = 1 << 35  # cell indices one integration may visit: 4 * substeps * program_cells


class RateSystem:
    """Nonnegative recombination rates on the partitions of a ground set.

    The rates are kept by lattice index: ``indices`` holds the lattice
    index of each rated partition once, in the order given, and
    ``weights`` its rate; ``rates`` is their view by ``Partition``.
    Immutable by convention; the marginal rates per subset are cached on
    first use.  The compiled gain terms are kept with what else the rates
    determine in their entry of the process store (``_entry``).
    """

    __slots__ = ("ground", "total", "indices", "weights", "_rates", "_marginals")

    def __init__(self, ground, rates: Mapping[Partition, float]):
        g = as_ground(ground)
        clean: dict[Partition, float] = {}
        for p, r in rates.items():
            if not isinstance(p, Partition):
                raise TypeError("rate keys must be Partition objects")
            if p.ground != g:
                raise ValueError(f"partition {p} is not on the ground set {g}")
            clean[p] = float(r)
        self._setup(g, lattice(g).locate(clean), list(clean.values()))
        self._rates = clean

    @classmethod
    def from_indices(cls, ground, indices, weights) -> "RateSystem":
        """The rates weights[i] of the partitions at the lattice indices
        indices[i] of ``lattice(ground)``, each index once, checked like
        those of a mapping; no ``Partition`` is built.  An index that is
        not an integer or is outside the lattice, an index given twice, and
        an index without a rate or a rate without an index are refused by
        name."""
        g = as_ground(ground)
        lat = lattice(g)
        weights = [float(r) for r in weights]
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise ValueError(f"partition indices must be one flat list, got shape {idx.shape}")
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"partition index {idx[0].item()!r} is not an integer")
        idx = idx.astype(np.intp)
        if idx.size != len(weights):
            k = min(idx.size, len(weights))
            if k < idx.size:
                raise ValueError(f"partition index {idx[k]} has no rate")
            raise ValueError(f"rate {weights[k]} has no partition index")
        outside = np.flatnonzero((idx < 0) | (idx >= lat.size))
        if outside.size:
            bad = idx[outside[0]]
            raise ValueError(f"partition index {bad} is outside the {lat.size} partitions of {g}")
        order = np.argsort(idx, kind="stable")
        twice = order[1:][idx[order[1:]] == idx[order[:-1]]]
        if twice.size:
            bad = idx[twice.min()]
            raise ValueError(f"partition index {bad} ({lat.names[bad]}) is given twice")
        self = object.__new__(cls)
        self._setup(g, idx, weights)
        self._rates = None
        return self

    def _setup(self, g: tuple[int, ...], indices: np.ndarray, weights: list[float]) -> None:
        bad = next((k for k, r in enumerate(weights) if not (math.isfinite(r) and r >= 0)), None)
        if bad is not None:
            name = lattice(g).names[indices[bad]]
            raise ValueError(f"rate for {name} must be finite and nonnegative, got {weights[bad]}")
        self.ground = g
        self.total = float(sum(weights))
        if not math.isfinite(self.total):
            raise ValueError(f"the rates add up to {self.total}, past the float range")
        self.indices = indices
        self.weights = np.array(weights, dtype=float)
        self._marginals: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def rates(self) -> dict[Partition, float]:
        """The rates by ``Partition``, in the order given; built on first
        use when the rates were given by index."""
        if self._rates is None:
            g = self.ground
            blocks = lattice(g).blocks(self.indices)
            self._rates = {
                Partition._from_canonical(b, g): r for b, r in zip(blocks, self.weights.tolist())
            }
        return self._rates

    @classmethod
    def from_strings(cls, ground, rates: Mapping[str, float]) -> "RateSystem":
        from recomb.partitions import parse_partition

        g = as_ground(ground)
        return cls(g, {parse_partition(k, g): v for k, v in rates.items()})

    def rate(self, p: Partition) -> float:
        return self.rates.get(p, 0.0)

    def marginal(self, u) -> np.ndarray:
        """Rates induced on the subsystem u, as a read-only vector in
        ``lattice(u)`` order: the sums over the fibers of restriction to u,
        accumulated in the order the rates were given."""
        g = as_ground(u)
        cached = self._marginals.get(g)
        return self.marginals([g])[0] if cached is None else cached

    def marginals(self, us) -> list[np.ndarray]:
        """``marginal(u)`` for each subset u of us.  Those not cached yet
        share one ``restrictions`` call per run of about _RUN_STATES
        entries, so that call sees how many restrictions are asked for: a
        few are looked up, many read the table."""
        gs = [as_ground(u) for u in us]
        todo = [g for g in dict.fromkeys(gs) if g not in self._marginals]
        whole, step = lattice(self.ground), max(1, _RUN_STATES // max(self.indices.size, 1))
        for lo in range(0, len(todo), step):
            run = todo[lo : lo + step]
            masks = np.array([whole.mask(g) for g in run], dtype=np.int64)
            for g, ridx in zip(run, whole.restrictions(masks[:, None], self.indices)):
                m = np.bincount(ridx, weights=self.weights, minlength=lattice(g).size)
                m.flags.writeable = False
                self._marginals[g] = m
        return [self._marginals[g] for g in gs]

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

    The block marginals sit in one vector too, ``blocks`` in order: the
    first ``n_ground`` are summed from the states in one ``np.bincount``,
    the others one descent level at a time from the marginal of a superset
    (``_descent``).

    A program may also run several systems of the same rates at once, on
    their state vectors stacked, compiled directly over their tuple of
    spaces (``_compile``): ``parts`` holds each one's range, and
    ``n_ground`` then counts the blocks summed from each state.
    """

    loss: float               # sum of the kept rates
    blocks: tuple             # the blocks, in the order of their marginals
    ground_cells: np.ndarray  # (N * n_ground,) each state's cell per block summed from it, state-major
    n_ground: int | np.ndarray
    n_cells: int              # cells of all block marginals together
    descent: list             # (lo, hi, src, tgt) per level: marg[lo:hi] sums marg[src] at tgt
    values: np.ndarray        # every node value but the root's, with r_p at the leaf of each kept p
    levels: list              # one _Level per node height, the root's last
    leaves: np.ndarray        # the lattice index of each leaf's partition
    parts: tuple              # (lo, hi) of each stacked state vector
    slices: tuple = field(init=False)            # slice(lo, hi) of each part
    state_part: np.ndarray = field(init=False)   # the part of each state
    ground_state: np.ndarray = field(init=False)  # the state of each ground cell

    def __post_init__(self):
        sizes = [hi - lo for lo, hi in self.parts]
        object.__setattr__(self, "slices", tuple(slice(lo, hi) for lo, hi in self.parts))
        object.__setattr__(self, "state_part", np.repeat(np.arange(len(sizes)), sizes))
        object.__setattr__(self, "ground_state", np.repeat(np.arange(sum(sizes)), self.n_ground))

    def marginals(self, unit: np.ndarray) -> np.ndarray:
        """Every block marginal of the state vector unit, in one vector."""
        marg = np.bincount(self.ground_cells, unit[self.ground_state], self.n_cells)
        for lo, hi, src, tgt in self.descent:
            marg[lo:hi] = np.bincount(tgt, marg[src], hi - lo)
        return marg

    def gain(self, marg: np.ndarray, leaves: np.ndarray | None = None) -> np.ndarray:
        """The sum over the kept partitions of their leaf value (r_p, or the
        given leaves) times the product of their block marginals in marg."""
        *inner, root = self.levels
        if leaves is not None:
            values = np.concatenate((leaves, self.values[leaves.size :]))
        else:
            values = self.values.copy() if inner else self.values
        for level in inner:
            values[level.lo : level.hi] = level.sum(values, marg)
        return root.sum(values, marg)

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        out = -self.loss * vec
        if not self.levels:
            return out
        # each part's mass is summed from its own slice, as alone (the ufunc
        # ndarray.sum calls): one np.add.reduceat would start each sum at its
        # first entry, not at 0, and pair the terms differently
        mass = [np.add.reduce(vec[part]) for part in self.slices]
        # unit mass first, as in measures.recombinator: one part is scaled
        # by its mass, stacked parts by their masses taken by state
        if all(m > 0.0 for m in mass):
            scale = mass[0] if len(mass) == 1 else np.array(mass).take(self.state_part)
            gain = self.gain(self.marginals(vec / scale))
            gain *= scale
            out += gain
            return out
        # a part whose mass is not positive reads zeros and gains nothing
        live = np.array(mass) > 0.0
        scale = np.where(live, mass, np.inf)[self.state_part]
        gain = self.gain(self.marginals(vec / scale))
        held = live[self.state_part]
        np.multiply(gain, scale, out=gain, where=held)
        return np.add(out, gain, out=out, where=held)


class _Tables:
    """The tables compiled from the kept rates of a rate system (``_kept``):
    the lattice index of each kept partition in trie order (``leaves``),
    its rate (``weights``), their prefix trie (``_trie``) and, per state
    space, the descent plan and cell count (``plans``)."""

    __slots__ = ("ground", "leaves", "weights", "trie", "words", "plans")

    def __init__(self, ground: tuple, leaves: np.ndarray, weights: np.ndarray):
        self.ground = ground
        self.leaves = leaves
        self.weights = weights
        self.trie = _trie(ground, leaves)
        _, edges, nodes = self.trie
        # what it holds before any program, in 8-byte words: one for itself,
        # its kept rates, and the tuples each trie edge makes
        # (sys.getsizeof): its own, its blocks, its child's name and the
        # child's height and remainder; about 80 % of the trie's allocations
        # at n = 3..7
        made = sum(
            getsizeof(e) + getsizeof(e[1]) + getsizeof(e[2]) + getsizeof(nodes[e[2]])
            + getsizeof(nodes[e[2]][1])
            for e in edges
        )
        self.words = 1 + leaves.size + weights.size + made // 8
        self.plans: dict = {}


def _kept(rates: RateSystem) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The ground of rates, and the lattice indices and rates of its kept
    partitions, in trie order: the rated partitions with at least two
    blocks, in the order given, stably sorted by descending block count.
    That order sets the order of every ``np.bincount`` sum of a program."""
    g, indices, weights = rates.ground, rates.indices, rates.weights
    count = lattice(g).block_counts[indices]
    order = np.flatnonzero((weights > 0) & (count > 1))
    order = order[np.argsort(-count[order], kind="stable")]
    return g, indices[order], weights[order]


class _Entry(dict):
    """What a rate system determines, kept in the process store
    (``_entry``): one slot per artifact, filled on first use by the module
    that builds it (``fill``) with read-only arrays and handed to every
    later caller as it is.  The slots are its compiled tables (``"tables"``,
    ``_tables``), the program of each tuple of spaces (``("program",
    spaces)``, ``_program``), the closed form or the ``DegeneracyReport``
    that refused it (``"closed_form"``), its ``(pairs, chains)`` count
    (``"size"``) and the Monte Carlo jump table of each start index
    (``("jump", start)``).  What they hold is charged to ``cells`` as they
    are filled (``_charge``)."""

    __slots__ = ("cells",)

    def __init__(self):
        super().__init__()
        self.cells = 0

    def fill(self, slot, build, cells=None):
        """The value kept at slot: on first use build() and, given cells,
        charged cells(value).  A build that raises leaves no slot and no
        charge."""
        if slot not in self:
            self[slot] = build()
            if cells is not None:
                _charge(self, cells(self[slot]))
        return self[slot]


class _Store(dict):
    """Every entry of the process by its rates' key, least recently used
    first, and the cells they hold together (``held``)."""

    def __init__(self):
        super().__init__()
        self.held = 0

    def clear(self) -> None:
        super().clear()
        self.held = 0


_store = _Store()


def _entry(rates: RateSystem) -> _Entry:
    """The entry of rates in the process store, made on first use, and now
    the most recently used.  Its key is the ground and the lattice indices
    and rates in the order given: the marginals sum the rates in that order
    and the total counts every rate, zero and top ones too, so only an
    equal key builds bitwise-equal artifacts.  A new entry is charged one
    cell for itself and one per index and rate of its key."""
    key = (rates.ground, rates.indices.tobytes(), rates.weights.tobytes())
    entry = _store.pop(key, None)
    if entry is not None:
        _store[key] = entry
        return entry
    entry = _store[key] = _Entry()
    _charge(entry, 1 + rates.indices.size + rates.weights.size)
    return entry


def _charge(entry: _Entry, cells: int) -> None:
    """Add cells to entry and to the store's total, then drop the other
    entries, least recently used first, while the store holds more than
    MAX_STATES cells: a store past the bound holds entry alone."""
    entry.cells += cells
    store = _store
    store.held += cells
    while store.held > MAX_STATES and len(store) > 1:
        old = next(key for key, kept in store.items() if kept is not entry)
        store.held -= store.pop(old).cells


def _tables(rates: RateSystem, entry: _Entry | None = None) -> _Tables:
    """The compiled tables of rates, kept in its entry of the process store
    (``_entry``, or the one given): built from its kept rates on first use
    and charged their ``words``."""
    if entry is None:
        entry = _entry(rates)
    return entry.fill("tables", lambda: _Tables(*_kept(rates)), lambda tables: tables.words)


def _trie(ground: tuple, leaves: np.ndarray) -> tuple[list, list, dict]:
    """The blocks of the partitions at the lattice indices leaves, and the
    prefix trie of their blocks (canonical order, by least site) with each
    single-child chain merged into one edge.

    Nodes are named by their prefix: the root is ``()`` and the leaf of the
    k-th partition is its blocks.  The edges (parent, blocks, child) come in
    post-order, so the edges out of one node follow the first appearance of
    their first block among the partitions.  Each node maps to its height
    (0 at the leaves) and its remainder, the sites its prefix leaves
    uncovered."""
    kept = lattice(ground).blocks(leaves)
    root: dict = {}
    for blocks in kept:
        node = root
        for u in blocks:
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
        visit((), ground, root)
    return kept, edges, nodes


def _state_counter(ground: tuple, space: TypeSpace | None):
    """The number of states of a subset of ground: its partitions on the
    coefficient side (space None), the product of its alphabets on space."""
    if space is None:
        return lambda c: bell_number(len(c))
    if space.sites != ground:
        raise ValueError("measure sites must match the rate system ground set")
    alphabet = dict(zip(space.sites, space.sizes))
    return lambda c: math.prod(alphabet[x] for x in c)


def _descent(ground: tuple, blocks: list, n_states) -> list:
    """Where each block marginal is summed from, by depth: a list of levels,
    each a list of (block, source) pairs in block order, the source being
    the ground at depth 0 and a block of a level above otherwise.

    A block's marginal is the marginal, on it, of the marginal of any
    superset, so each block descends from its smallest kept superset (by
    state count, found with one comparison of site masks), or from the
    ground when no block contains it.  Descending costs one ``np.bincount``
    per level, about as much as _DESCENT_CALL cells: from the deepest level
    up, a level whose blocks, summed from their source's source instead,
    would cost fewer than _DESCENT_CALL more cells is merged into the one
    above.  Small programs so keep one flat level, and one whose flat sum
    takes fewer than _DESCENT_CALL cells needs no search."""
    if n_states(ground) * len(blocks) < _DESCENT_CALL:
        return [[(u, ground) for u in blocks]]
    at = {x: i for i, x in enumerate(ground)}
    masks = np.array([sum(1 << at[x] for x in u) for u in blocks], dtype=np.int64)
    # the states of each block, and of the ground at index -1
    cost = np.array([n_states(u) for u in blocks] + [n_states(ground)], dtype=float)
    within = (masks & masks[:, None]) == masks[:, None]  # [i, j]: block i lies in block j
    np.fill_diagonal(within, False)
    src = np.where(within.any(axis=1), np.where(within, cost[:-1], np.inf).argmin(axis=1), -1)
    depth = np.zeros(len(blocks), dtype=np.intp)
    for i in sorted(range(len(blocks)), key=lambda i: -len(blocks[i])):
        if src[i] >= 0:
            depth[i] = depth[src[i]] + 1  # a superset has more sites: its depth is set
    while depth.max() > 0:
        deepest = np.flatnonzero(depth == depth.max())
        up = src[src[deepest]]
        if (cost[up] - cost[src[deepest]]).sum() >= _DESCENT_CALL:
            break
        src[deepest], depth[deepest] = up, depth[deepest] - 1
    return [
        [(u, ground if s < 0 else blocks[s]) for u, s, d in zip(blocks, src, depth) if d == k]
        for k in range(depth.max() + 1)
    ]


def _program(rates: RateSystem, *spaces) -> _TrieProgram:
    """The gain term of the systems on spaces (None, the default, for the
    coefficient system), their state vectors stacked in that order,
    compiled (``_compile``) once per entry of the process store and tuple
    of spaces, and charged the ``program_cells`` of each space."""
    spaces = spaces or (None,)
    entry = _entry(rates)
    tables = _tables(rates, entry)
    return entry.fill(
        ("program", spaces),
        lambda: _compile(tables, spaces),
        lambda _: sum(tables.plans[space][1] for space in spaces),
    )


# one system of a program: its space, state counter, descent plan and restrictions
_System = namedtuple("_System", "space n_states descent restricted")


def _restrictions(tables: _Tables, space: TypeSpace | None) -> _System:
    """The state counter and descent plan of the system on space, and the
    restrictions its program reads: each block at its source, and on each
    trie edge its blocks and its child's remainder (empty at a leaf)."""
    ground = tables.ground
    n_states = _state_counter(ground, space)
    if space is not None:
        alphabet = dict(zip(space.sites, space.sizes))
    _, edges, nodes = tables.trie
    descent, _ = _plan(tables, space)
    wanted: dict = {}
    for level in descent:
        for u, w in level:
            wanted.setdefault(w, {})[u] = None
    for prefix, edge_blocks, end in edges:
        subsets = wanted.setdefault(nodes[prefix][1], {})
        subsets.update(dict.fromkeys(edge_blocks + (nodes[end][1],)))
    # (c, u) -> each state of c restricted to u, and on the lattice the block
    # count of that restriction; the empty u has one state
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
            above = np.empty(n_states(c), np.intp)
            above[from_ground[c]] = np.arange(whole.size)
            for u in subsets:
                if u:
                    idx = from_ground[u] if c == ground else from_ground[u][above]
                    restricted[c, u] = idx, lattice(u).block_counts[idx].astype(np.int8)
                else:
                    restricted[c, u] = (np.zeros(n_states(c), np.intp),) * 2
        else:
            # mixed-radix strides of u's letters at their axes in c, one row
            # per subset: one product gives every restriction of c's states
            strides = []
            for u in subsets:
                row, stride = [0] * len(c), 1
                for x in reversed(u):
                    row[c.index(x)], stride = stride, stride * alphabet[x]
                strides.append(row)
            letters = np.array(np.unravel_index(np.arange(n_states(c)), [alphabet[x] for x in c]))
            at = np.array(strides, dtype=np.intp) @ letters
            for u, idx in zip(subsets, at):
                restricted[c, u] = idx, None
    return _System(space, n_states, descent, restricted)


def _compile(tables: _Tables, spaces: tuple) -> _TrieProgram:
    """The gain term of the systems on spaces (None for the coefficient
    system) over the trie of tables, their state vectors stacked in that
    order: one evaluation steps them all.

    A node of the trie with remainder C holds one value per state of C: the
    partitions ``lattice(C)`` on the coefficient side, the product of C's
    alphabets on a measure.  An edge carrying the blocks U_1..U_j to a child
    with remainder C' feeds the states of C that none of U_1..U_j, C' cuts:
    all of them on a measure; on the lattice those whose block count is the
    sum of the counts of their restrictions.  Such a state's cell in the
    marginal on U is its restriction to U, and its child value the one at
    its restriction to C'.  A block marginal summed from a superset W reads
    each state of W restricted to the block.

    Block marginals are laid out by descent depth and node values by node
    height, each holding every system's segment in turn, so each is one
    ``np.bincount``; a level's edge rows come by descending block count,
    within one count system after system.  No bin takes terms from two
    systems, and each takes them in its system's own order: each part of
    ``rhs`` is bitwise the system's program alone.
    """
    ground = tables.ground
    kept, edges, nodes = tables.trie
    systems = [_restrictions(tables, space) for space in spaces]
    # the block marginals, depth after depth, and their sums
    starts: list = [{} for _ in systems]
    blocks, n_cells, steps = [], 0, []
    for d in range(max(len(s.descent) for s in systems)):
        first, src, tgt = n_cells, [], []
        for s, start in zip(systems, starts):
            for u, w in s.descent[d] if d < len(s.descent) else ():
                blocks.append(u)
                start[u] = n_cells
                n_cells += s.n_states(u)
                if d:
                    src.append(np.arange(start[w], start[w] + s.n_states(w)))
                    tgt.append(start[u] - first + s.restricted[w, u][0])
        if d:
            steps.append((first, n_cells, np.concatenate(src), np.concatenate(tgt)))
    sizes = [s.n_states(ground) for s in systems]
    tops = [len(s.descent[0]) for s in systems]
    ground_cells = np.empty(sum(n * k for n, k in zip(sizes, tops)), dtype=np.intp)
    at = 0
    for s, start, n, k in zip(systems, starts, sizes, tops):
        cells = ground_cells[at : at + n * k].reshape(n, k)
        for i, (u, _) in enumerate(s.descent[0]):
            cells[:, i] = start[u] + s.restricted[ground, u][0]
        at += n * k
    # node values: the leaves first, then the inner nodes height after
    # height, each height every system's nodes in turn; the roots come last
    inner: dict = {}
    for prefix, (h, _) in nodes.items():
        if h:
            inner.setdefault(h, []).append(prefix)
    size = len(kept) * len(systems)
    offsets = [{b: k * len(kept) + i for i, b in enumerate(kept)} for k in range(len(systems))]
    lo = {}
    for h in sorted(inner):
        lo[h] = size
        for s, offset in zip(systems, offsets):
            for prefix in inner[h]:
                offset[prefix] = size
                size += s.n_states(nodes[prefix][1])
    by_height: dict = {}  # the edges by their parent's height, then by block count
    for edge in edges:
        by_height.setdefault(nodes[edge[0]][0], {}).setdefault(len(edge[1]), []).append(edge)

    def feed(s, start, offset, run, lo):
        # the edge cells of a run of edges of one block count: every state
        # of each parent's remainder, edge-major, and on the lattice only
        # those that no block or child remainder of the edge cuts
        rests = [nodes[prefix][1] for prefix, _, _ in run]
        fan = np.array([s.n_states(c) for c in rests])
        counts = []

        def gather(subsets, firsts):
            # each state of each remainder restricted to its edge's subset, plus its first
            pairs = [s.restricted[c, u] for c, u in zip(rests, subsets)]
            counts.append([k for _, k in pairs])
            return np.concatenate([i for i, _ in pairs]) + np.repeat(firsts, fan)

        shift = np.repeat(np.cumsum(fan) - fan - [offset[p] - lo for p, _, _ in run], fan)
        parent = np.arange(shift.size) - shift
        child = gather([nodes[end][1] for _, _, end in run], [offset[end] for _, _, end in run])
        cells = [gather(us, [start[u] for u in us]) for us in zip(*(b for _, b, _ in run))]
        if s.space is not None:
            return child, parent, cells
        count = sum(np.concatenate(k) for k in counts)
        keep = np.flatnonzero(count == np.concatenate([lattice(c).block_counts for c in rests]))
        return child[keep], parent[keep], [c[keep] for c in cells]

    levels = []
    for h in sorted(by_height):
        runs = []
        for count in sorted(by_height[h], reverse=True):
            group = by_height[h][count]
            for s, start, offset in zip(systems, starts, offsets):
                # runs of about _RUN_STATES candidate states bound the filtered arrays
                fed = [s.n_states(nodes[prefix][1]) for prefix, _, _ in group]
                for i, k in _runs(fed, _RUN_STATES):
                    runs.append(feed(s, start, offset, group[i:k], lo[h]))
        child, parent = (np.concatenate([run[f] for run in runs]) for f in (0, 1))
        cells = [
            np.concatenate([run[2][j] for run in runs if len(run[2]) > j])
            for j in range(len(runs[0][2]))
        ]
        levels.append(_Level(lo[h], lo.get(h + 1, size), child, parent, cells))
    # all but the roots, placed last: their values are the gain
    values = np.zeros(offsets[0].get((), 0))
    values[: len(kept) * len(systems)] = np.tile(tables.weights, len(systems))
    n_ground = tops[0] if len(tops) == 1 else np.repeat(tops, sizes)
    ends = np.cumsum([0] + sizes).tolist()
    return _TrieProgram(
        float(sum(tables.weights.tolist())), tuple(blocks), ground_cells, n_ground, n_cells,
        steps, values, levels, np.tile(tables.leaves, len(systems)), tuple(zip(ends, ends[1:])),
    )


def _plan(tables: _Tables, space: TypeSpace | None) -> tuple[list, int]:
    """The descent of the block marginals (``_descent``) and the cell count
    of the program of tables on space, from the trie and block sizes
    alone; kept with the tables."""
    plan = tables.plans.get(space)
    if plan is not None:
        return plan
    ground = tables.ground
    n_states = _state_counter(ground, space)
    kept, edges, nodes = tables.trie
    if space is None:
        fed = [
            math.prod(bell_number(len(v)) for v in blocks + (nodes[end][1],))
            for _, blocks, end in edges
        ]
    else:
        fed = [n_states(nodes[prefix][1]) for prefix, _, _ in edges]
    descent = _descent(ground, sorted({u for blocks in kept for u in blocks}), n_states)
    marginals = sum(
        n_states(w) * (1 if w == ground else 2) for level in descent for _, w in level
    )
    cells = marginals + sum(len(e[1]) * m for e, m in zip(edges, fed))
    plan = tables.plans[space] = descent, cells
    return plan


def program_cells(rates: RateSystem, space: TypeSpace | None = None) -> int:
    """The number of cell indices ``_program(rates, space)`` stores, from
    the trie and block sizes alone, kept with the tables: for each block
    marginal summed from the ground one per state, and for each summed from
    a superset W two per state of W (its source and its target); and one
    per block of each edge cell.  An edge out of a node with remainder C
    feeds every state of C on a measure; on the lattice it feeds the
    prod_V B(|V|) partitions of C that its blocks and its child's remainder
    V do not cut."""
    return _plan(_tables(rates), space)[1]


def mixtures(values: np.ndarray, omega0: Measure) -> np.ndarray:
    """The flat weights of sum_A values[t, A] * R_A(omega0) for each row t
    of a (T, B) array of coefficients on omega0's sites, R_A being the
    block-product operator of ``measures.recombinator``.

    The top's operator is the identity; the other partitions with a nonzero
    coefficient go through the trie program of that support at unit rates
    (``_support_programs``), with their coefficients in its leaves and no
    loss, on omega0's block marginals summed once.  It depends on the
    support alone, not on any rates, and is kept like a rate system's."""
    space = omega0.space
    lat = lattice(space.sites)
    w = omega0.weights.reshape(-1)
    out = np.outer(values[:, lat.top_index], w)
    s = float(w.sum())
    used = np.any(values != 0.0, axis=0)
    used[lat.top_index] = False
    if s == 0.0 or not used.any():  # the zero measure maps to itself
        return out
    unit = w / s
    for prog in _support_programs(np.flatnonzero(used), space):
        marg = prog.marginals(unit)
        out += s * np.stack([prog.gain(marg, row) for row in values[:, prog.leaves]])
    return out


def _support_programs(support: np.ndarray, space: TypeSpace):
    """Programs whose leaves are the partitions at the lattice indices
    support, at unit rates: the program of the support, kept in the entry
    of its unit-rate ``RateSystem`` (``_program``), or when it would hold
    more than MAX_STATES cell indices, the programs of each half, compiled
    one after the other (the mixture is linear in the leaves).  The halves'
    tables are built outside the store, so none outlives its use."""
    runs = [support]
    while runs:
        run = runs.pop()
        rates = RateSystem.from_indices(space.sites, run, [1.0] * run.size)
        whole = run is support
        tables = _tables(rates) if whole else _Tables(*_kept(rates))
        if run.size > 1 and _plan(tables, space)[1] > MAX_STATES:
            runs += [run[run.size // 2 :], run[: run.size // 2]]
        else:
            yield _program(rates, space) if whole else _compile(tables, (space,))


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
    instead of overflowing.  ValueError is raised, before anything is
    compiled, for a gain term above MAX_STATES cell indices
    (``program_cells``), for a total above MAX_SUBSTEPS, and for an
    integration whose right-hand sides would visit more than MAX_RK4_WORK
    cell indices: four evaluations per substep.
    """
    kind = "coefficient" if space is None else "measure"
    cells = program_cells(rates, space)
    if cells > MAX_STATES:
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
    if 4 * total * cells > MAX_RK4_WORK:
        raise ValueError(
            f"{kind} integration of {total:.0f} RK4 substeps over {cells} cell indices "
            f"would visit {4 * total * cells:.3g} cells, more than {MAX_RK4_WORK}"
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


def rk4_row(grid: np.ndarray, substeps: np.ndarray, t: float, count: float) -> int | None:
    """The index j of the row of ``_rk4`` over grid, in substeps, that is
    bit for bit its result over [0, t] alone in count substeps, or None.

    The system is autonomous, so a row depends on the start and on the
    lengths of the substeps taken before it alone.  Row j is that result
    when grid[j] is t, the substeps before it number count and each of them,
    ``(grid[k + 1] - grid[k]) / substeps[k]``, is t / count long."""
    j = int(np.searchsorted(grid, t))
    if j == grid.size or grid[j] != t or substeps[:j].sum() != count:
        return None
    if j and not (np.diff(grid[: j + 1]) / substeps[:j] == t / count).all():
        return None
    return j


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
    coefficients: CoefficientTrajectory | None = None  # stepped in lockstep, if asked for

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
    a0: CoefficientVector | None = None,
) -> MeasureTrajectory:
    """Fixed-step integration of the measure-valued system.

    Given a0, the coefficient system from a0 is stepped in lockstep: one
    RK4 run takes the stacked state [a0 | measure] through the program
    compiled directly on both spaces (``_program(rates, None, space)``),
    and the trajectory's ``coefficients`` hold the first part; neither
    single-system program is compiled.  Each part is bitwise what
    ``integrate_coefficients`` and this function without a0 give.  Both
    systems are planned before anything is compiled."""
    if a0 is not None:
        if a0.ground != rates.ground:
            raise ValueError("ground-set mismatch")
        rk4_plan(rates, grid, step)
    g, h, substeps = rk4_plan(rates, grid, step, omega0.space)
    # run at a total below one, scaled by a power of two: exact for a finite
    # run, and a total near the float limit cannot overflow inside a substep
    weights = omega0.weights.reshape(-1)
    exp = math.frexp(float(weights.sum()))[1]
    y0 = np.ldexp(weights, -exp)
    if a0 is None:
        run = _rk4(_program(rates, omega0.space).rhs, y0, g, substeps)
        coefficients = None
    else:
        prog = _program(rates, None, omega0.space)
        run = _rk4(prog.rhs, np.concatenate((a0.values, y0)), g, substeps)
        cut = a0.values.size
        coefficients = CoefficientTrajectory(rates.ground, g, run[:, :cut].copy(), step=h)
        run = run[:, cut:]
    tensors = np.ldexp(run, exp).reshape((g.size,) + tuple(omega0.space.sizes))
    return MeasureTrajectory(omega0.space, g, tensors, step=h, coefficients=coefficients)
