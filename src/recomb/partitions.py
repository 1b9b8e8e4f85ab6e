"""Set partitions of a finite ground set and their refinement lattice.

Partitions are stored in canonical block form: each block is a sorted tuple
of site labels and blocks are ordered by their smallest element.  Partitions
of subsets keep the original site labels, so moving between a system and its
subsystems never relabels anything.

Text format used in configs and CSV keys: blocks joined by ``|``, elements
by ``,``, e.g. ``1,2|3,4``.  Whitespace is ignored.

A lattice of k sites is the lattice of {1..k} with its sites renamed, so all
lattices of one size share one core: the label arrays, the order, meet and
Moebius tables, and the restriction indices, keyed by the position mask of the
sub-block.  Only ``Lattice.parts`` and ``Lattice.index`` name the sites; they
are built on first use.

All objects here are immutable after construction and safe to share across
threads; a cached core, lattice or table is at worst built twice on a race.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb
from typing import Iterable

import numpy as np

__all__ = [
    "MAX_SITES",
    "Partition",
    "ground_set",
    "bell_number",
    "count_two_block",
    "enumerate_partitions",
    "is_refinement",
    "meet",
    "meet_of_set",
    "restrict",
    "join_disjoint",
    "mobius",
    "parse_partition",
    "Lattice",
    "lattice",
]

# largest site count the command line and scenario files accept: Bell(10) is
# 115975 partitions, and the dense (B, B) tables grow with its square
MAX_SITES = 10
# largest lattice whose restriction indices are kept as one (2^n, B) table
# (8.5 MB at n = 8); a larger one looks up and keeps each restriction alone
_TABLE_SITES = 8


def ground_set(n: int) -> tuple[int, ...]:
    """The ground set {1, ..., n}."""
    if n < 1:
        raise ValueError("ground set must have at least one site")
    return tuple(range(1, n + 1))


def as_ground(elements) -> tuple[int, ...]:
    """Validate and normalize a ground set: nonempty, strictly increasing ints."""
    g = tuple(int(x) for x in elements)
    if not g:
        raise ValueError("ground set must be nonempty")
    if any(a >= b for a, b in zip(g, g[1:])):
        raise ValueError(f"ground set must be strictly increasing, got {g}")
    return g


class Partition:
    """A set partition in canonical form; equality and hashing are structural."""

    __slots__ = ("blocks", "_ground", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        canon = sorted(tuple(sorted(int(x) for x in block)) for block in blocks)
        if not canon:
            raise ValueError("a partition needs at least one block")
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("blocks must be nonempty")
            for x in block:
                if x in seen:
                    raise ValueError(f"site {x} appears in more than one block")
                seen.add(x)
        self.blocks: tuple[tuple[int, ...], ...] = tuple(canon)
        self._ground = tuple(sorted(seen))
        self._hash = hash(self.blocks)

    @classmethod
    def _from_canonical(cls, blocks, ground) -> "Partition":
        self = object.__new__(cls)
        self.blocks = blocks
        self._ground = ground
        self._hash = hash(blocks)
        return self

    @classmethod
    def singletons(cls, ground) -> "Partition":
        """The finest partition (all blocks of size one)."""
        g = as_ground(ground)
        return cls._from_canonical(tuple((x,) for x in g), g)

    @classmethod
    def whole(cls, ground) -> "Partition":
        """The coarsest partition (a single block)."""
        g = as_ground(ground)
        return cls._from_canonical((g,), g)

    @property
    def ground(self) -> tuple[int, ...]:
        return self._ground

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in block) for block in self.blocks)

    def __repr__(self) -> str:
        return f"Partition({self})"


def parse_partition(text: str, ground) -> Partition:
    """Parse the ``1,2|3,4`` text format against a declared ground set.

    Rejects duplicates and missing sites relative to the ground set.
    """
    g = as_ground(ground)
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty partition string")
    blocks = []
    for chunk in compact.split("|"):
        if not chunk:
            raise ValueError(f"empty block in partition string {text!r}")
        try:
            blocks.append([int(x) for x in chunk.split(",")])
        except ValueError as exc:
            raise ValueError(f"bad partition string {text!r}") from exc
    p = Partition(blocks)
    if p.ground != g:
        raise ValueError(
            f"partition {text!r} does not cover the ground set {g} exactly"
        )
    return p


_BELL: list[int] = [1]


def bell_number(n: int) -> int:
    """Number of partitions of an n-set, by the standard binomial recursion."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_BELL) <= n:
        m = len(_BELL) - 1
        _BELL.append(sum(comb(m, k) * _BELL[k] for k in range(m + 1)))
    return _BELL[n]


def count_two_block(n: int) -> int:
    """Number of partitions of an n-set into exactly two blocks: 2^(n-1) - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 ** (n - 1) - 1


def _rgs_labels(n: int) -> np.ndarray:
    """All restricted growth strings of length n >= 1, one row each, in
    lexicographic order.

    Entry [p, s] is the block number of site s in partition p; blocks are
    numbered in order of first appearance, which is the canonical block order.
    """
    labels = np.zeros((1, 1), dtype=np.int8)
    for _ in range(n - 1):
        fan = labels.max(axis=1).astype(np.int64) + 2  # join a block, or open one
        start = np.repeat(np.cumsum(fan) - fan, fan)
        new = (np.arange(start.size) - start).astype(np.int8)
        labels = np.column_stack([np.repeat(labels, fan, axis=0), new])
    return labels


def _canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel every row to its restricted growth string: same blocks, numbered
    in order of first appearance."""
    rows = np.arange(labels.shape[0])
    number = np.full((len(labels), int(labels.max(initial=0)) + 1), -1, np.int64)
    used = np.zeros(labels.shape[0], dtype=np.int64)
    out = np.empty(labels.shape, dtype=np.int64)
    for s in range(labels.shape[1]):
        col = labels[:, s]
        fresh = number[rows, col] < 0
        number[rows[fresh], col[fresh]] = used[fresh]
        used += fresh
        out[:, s] = number[rows, col]
    return out


def _encode(rgs: np.ndarray) -> np.ndarray:
    """Base-n code of each length-n restricted growth string; increasing in
    lexicographic order because every label is below n."""
    n = rgs.shape[1]
    return rgs.astype(np.int64) @ n ** np.arange(n - 1, -1, -1, dtype=np.int64)


def enumerate_partitions(ground) -> list[Partition]:
    """All partitions of the ground set, in restricted-growth-string order."""
    return list(lattice(as_ground(ground)).parts)


def _check_same_ground(a: Partition, b: Partition) -> None:
    if a.ground != b.ground:
        raise ValueError(f"ground-set mismatch: {a.ground} vs {b.ground}")


def is_refinement(a: Partition, b: Partition) -> bool:
    """True iff every block of a is contained in some block of b."""
    _check_same_ground(a, b)
    owner: dict[int, int] = {}
    for k, block in enumerate(b.blocks):
        for x in block:
            owner[x] = k
    for block in a.blocks:
        k = owner[block[0]]
        if any(owner[x] != k for x in block[1:]):
            return False
    return True


def meet(a: Partition, b: Partition) -> Partition:
    """Coarsest common refinement: all nonempty pairwise block intersections."""
    _check_same_ground(a, b)
    owner: dict[int, int] = {}
    for k, block in enumerate(b.blocks):
        for x in block:
            owner[x] = k
    blocks = []
    for block in a.blocks:
        groups: dict[int, list[int]] = {}
        for x in block:
            groups.setdefault(owner[x], []).append(x)
        blocks.extend(groups.values())
    return Partition(blocks)


def meet_of_set(partitions: Iterable[Partition], ground) -> Partition:
    """Iterated meet; the empty collection yields the coarsest partition."""
    g = as_ground(ground)
    result = Partition.whole(g)
    for p in partitions:
        if p.ground != g:
            raise ValueError(f"ground-set mismatch: {p.ground} vs {g}")
        result = meet(result, p)
    return result


def restrict(a: Partition, u) -> Partition:
    """The induced partition of a nonempty subset u: nonempty traces of blocks."""
    g = as_ground(u)
    if not set(g) <= set(a.ground):
        raise ValueError(f"{g} is not a subset of the ground set {a.ground}")
    keep = set(g)
    blocks = [tuple(x for x in block if x in keep) for block in a.blocks]
    return Partition(b for b in blocks if b)


def join_disjoint(parts: Iterable[Partition]) -> Partition:
    """Combine partitions of pairwise disjoint ground sets into one partition."""
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one partition to join")
    blocks: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for p in parts:
        if seen & set(p.ground):
            raise ValueError("ground sets overlap")
        seen.update(p.ground)
        blocks.extend(p.blocks)
    return Partition(blocks)


class _Core:
    """What every lattice of a k-set shares: the arrays of ``Lattice``, and
    its lazy tables, which ``Lattice`` fills on first use.  Restriction
    indices are keyed by the position mask of the sub-block (bit s for the
    s-th site)."""

    def __init__(self, k: int):
        self.labels = _rgs_labels(k)
        self.codes = _encode(self.labels)
        self.block_counts = self.labels.max(axis=1).astype(np.int64) + 1
        self.finer: np.ndarray | None = None
        self.meet_table: np.ndarray | None = None
        self.mobius: np.ndarray | None = None
        self.order: tuple[np.ndarray, ...] | None = None
        self.block_masks: np.ndarray | None = None
        self.restriction_table: np.ndarray | None = None
        self.restriction: dict[int, np.ndarray] = {}


@lru_cache(maxsize=None)
def _core(k: int) -> _Core:
    return _Core(k)


def _lookup(labels: np.ndarray) -> np.ndarray:
    """Index of each row of a (rows, k) block-label array in the lattice of
    a k-set."""
    return np.searchsorted(_core(labels.shape[1]).codes, _encode(_canonical(labels)))


class Lattice:
    """Enumeration, order, meet and Moebius tables for one ground set.

    The single representation is ``labels``, the (B, n) array of restricted
    growth strings in enumeration order; every table is derived from it with
    array operations.  Lattices of one size share these arrays and tables
    through one core.  In this order the top is the first partition and the
    bottom the last.  Heavy tables are built lazily and kept for the
    lifetime of the process; everything is read-only after construction.
    """

    def __init__(self, ground: tuple[int, ...]):
        self.ground = ground
        self._core = core = _core(len(ground))
        self.labels = core.labels
        self.codes = core.codes
        self.block_counts = core.block_counts
        self.size = len(self.labels)
        self.top_index = 0
        self.bottom_index = self.size - 1

    @cached_property
    def parts(self) -> tuple[Partition, ...]:
        """The partitions in enumeration order, named by the ground set."""
        ground, parts = self.ground, []
        for row in self.labels.tolist():
            blocks: list[list[int]] = [[] for _ in range(max(row) + 1)]
            for site, lab in zip(ground, row):
                blocks[lab].append(site)
            parts.append(Partition._from_canonical(tuple(map(tuple, blocks)), ground))
        return tuple(parts)

    @cached_property
    def index(self) -> dict[Partition, int]:
        return {p: i for i, p in enumerate(self.parts)}

    def _lookup(self, labels: np.ndarray) -> np.ndarray:
        """Lattice index of each row of a (k, n) block-label array."""
        return _lookup(labels)

    @property
    def finer(self) -> np.ndarray:
        """Boolean matrix: finer[i, j] iff parts[i] refines parts[j].

        a refines b iff b's labels are constant on each block of a, that is,
        every site carries b's label of the first site of its a-block."""
        core = self._core
        if core.finer is None:
            lab = self.labels
            first = np.argmax(lab[:, :, None] == lab[:, None, :], axis=2)
            f = np.ones((self.size, self.size), dtype=bool)
            for s in range(1, lab.shape[1]):
                f &= (lab[:, first[:, s]] == lab[:, s, None]).T
            core.finer = f
        return core.finer

    def _order(self) -> tuple[np.ndarray, ...]:
        core = self._core
        if core.order is None:
            a, c = np.nonzero(self.finer)  # the up-sets: by a, then c
            by_c = np.argsort(c, kind="stable")  # the down-sets: by c, then a
            starts = lambda rows: np.searchsorted(rows, np.arange(self.size + 1))  # noqa: E731
            core.order = starts(c[by_c]), a[by_c], starts(a), c
        return core.order

    @property
    def down_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """The order as CSR rows by the coarser element: indices[indptr[c]:
        indptr[c + 1]] are the partitions that refine parts[c], ascending;
        parts[c] itself comes first."""
        return self._order()[:2]

    @property
    def up_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """The transpose of ``down_sets``: the partitions coarser than
        parts[a], ascending, with parts[a] itself last (a coarser partition
        has a smaller label at every site, so it comes earlier)."""
        return self._order()[2:]

    @property
    def block_masks(self) -> np.ndarray:
        """(B, n) block masks: bit s of entry [i, j] is set iff the s-th site
        of the ground set lies in the j-th block of parts[i]; zero past the
        last block."""
        core = self._core
        if core.block_masks is None:
            n = len(self.ground)
            blocks = self.labels[:, None, :] == np.arange(n)[None, :, None]
            core.block_masks = blocks.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
        return core.block_masks

    @property
    def meet_table(self) -> np.ndarray:
        """meet_table[i, j] = index of parts[i] meet parts[j]: the blocks of
        the meet are the sites sharing both labels."""
        core = self._core
        if core.meet_table is None:
            n = len(self.ground)
            lab = self.labels.astype(np.int64)
            m = np.empty((self.size, self.size), dtype=np.int64)
            for i in range(self.size):
                m[i] = self._lookup(lab[i] * n + lab)
            core.meet_table = m
        return core.meet_table

    def incidence_solve(self, theta: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solution x of theta @ x = rhs, for an incidence-algebra element
        given as a (B, B) table that vanishes off the order and has a nonzero
        diagonal, and a right-hand side of B rows, a vector or a table.

        Coarsest-first substitution over the strictly coarser elements up(i):
        x[i] = (rhs[i] - theta[i, up(i)] @ x[up(i)]) / theta[i, i].  For a
        boolean table (the zeta function) x keeps the dtype of rhs, so an
        integer right-hand side is solved exactly.
        """
        ptr, ups = self.up_sets
        x = np.zeros(rhs.shape, dtype=rhs.dtype if theta.dtype == bool else float)
        for i in np.argsort(self.block_counts, kind="stable"):
            up = ups[ptr[i] : ptr[i + 1] - 1]
            x[i] = (rhs[i] - theta[i, up] @ x[up]) / theta[i, i]
        return x

    @property
    def mobius_matrix(self) -> np.ndarray:
        """Integer matrix of the Moebius function, the inverse of zeta; zero
        outside the order."""
        core = self._core
        if core.mobius is None:
            core.mobius = self.incidence_solve(self.finer, np.eye(self.size, dtype=np.int64))
        return core.mobius

    def restriction_index(self, u) -> np.ndarray:
        """restriction_index(u)[j] = index of parts[j] restricted to u, in lattice(u)."""
        g = as_ground(u)
        if not set(g) <= set(self.ground):
            raise ValueError(f"{g} is not a subset of the ground set {self.ground}")
        mask = sum(1 << self.ground.index(x) for x in g)
        if len(self.ground) <= _TABLE_SITES:
            return self.restriction_table[mask]
        cached = self._core.restriction.get(mask)
        if cached is None:
            cols = [s for s in range(len(self.ground)) if mask >> s & 1]
            cached = self._core.restriction[mask] = _lookup(self.labels[:, cols])
        return cached

    @property
    def restriction_table(self) -> np.ndarray:
        """(2^n, B) table whose row m is the restriction index to the sites
        at mask m (as in ``block_masks``); row 0 is zero.

        Built from n lookups, one per dropped site: every other row drops
        one more site from a row with one site more, through the table of
        the smaller lattice."""
        core = self._core
        if core.restriction_table is None:
            n = len(self.ground)
            full = (1 << n) - 1
            table = np.zeros((1 << n, self.size), dtype=np.intp)
            table[full] = np.arange(self.size)
            for m in range(full - 1, 0, -1):
                s = (~m & (m + 1)).bit_length() - 1  # the lowest site outside m
                up = m | 1 << s
                if up == full:
                    table[m] = _lookup(np.delete(self.labels, s, axis=1))
                else:
                    # restrict to up, then drop s, the i-th of up's k sites
                    k, i = up.bit_count(), (up & ((1 << s) - 1)).bit_count()
                    drop = lattice(ground_set(k)).restriction_table[((1 << k) - 1) ^ 1 << i]
                    table[m] = drop[table[up]]
            table.flags.writeable = False
            core.restriction_table = table
        return core.restriction_table


@lru_cache(maxsize=None)
def lattice(ground: tuple[int, ...]) -> Lattice:
    return Lattice(as_ground(ground))


def mobius(a: Partition, b: Partition) -> int:
    """Moebius function of the refinement order; zero unless a refines b."""
    _check_same_ground(a, b)
    lat = lattice(a.ground)
    return int(lat.mobius_matrix[lat.index[a], lat.index[b]])
