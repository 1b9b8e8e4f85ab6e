"""Set partitions of a finite ground set and their refinement lattice.

Partitions are stored in canonical block form: each block is a sorted tuple
of site labels and blocks are ordered by their smallest element.  Partitions
of subsets keep the original site labels, so moving between a system and its
subsystems never relabels anything.

Text format used in configs and CSV keys: blocks joined by ``|``, elements
by ``,``, e.g. ``1,2|3,4``.  Whitespace is ignored.

All objects here are immutable after construction and safe to share across
threads; the per-ground-set cache is at worst rebuilt on a race.
"""

from __future__ import annotations

from functools import lru_cache
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


class Lattice:
    """Enumeration, order, meet and Moebius tables for one ground set.

    The single representation is ``labels``, the (B, n) array of restricted
    growth strings in enumeration order; every table is derived from it with
    array operations.  Heavy tables are built lazily and kept for the
    lifetime of the cache entry; everything is read-only after construction.
    """

    def __init__(self, ground: tuple[int, ...]):
        self.ground = ground
        self.labels = _rgs_labels(len(ground))
        self.codes = _encode(self.labels)
        parts = []
        for row in self.labels.tolist():
            blocks: list[list[int]] = [[] for _ in range(max(row) + 1)]
            for site, lab in zip(ground, row):
                blocks[lab].append(site)
            parts.append(Partition._from_canonical(tuple(map(tuple, blocks)), ground))
        self.parts: tuple[Partition, ...] = tuple(parts)
        self.size = len(self.parts)
        self.index: dict[Partition, int] = {p: i for i, p in enumerate(self.parts)}
        self.top_index = self.index[Partition.whole(ground)]
        self.bottom_index = self.index[Partition.singletons(ground)]
        self.block_counts = self.labels.max(axis=1).astype(np.int64) + 1
        self._finer: np.ndarray | None = None
        self._meet_table: np.ndarray | None = None
        self._mobius: np.ndarray | None = None
        self._restrict_index: dict[tuple[int, ...], np.ndarray] = {}

    def _lookup(self, labels: np.ndarray) -> np.ndarray:
        """Lattice index of each row of a (k, n) block-label array."""
        return np.searchsorted(self.codes, _encode(_canonical(labels)))

    @property
    def finer(self) -> np.ndarray:
        """Boolean matrix: finer[i, j] iff parts[i] refines parts[j].

        a refines b iff b's labels are constant on each block of a, that is,
        every site carries b's label of the first site of its a-block."""
        if self._finer is None:
            lab = self.labels
            first = np.argmax(lab[:, :, None] == lab[:, None, :], axis=2)
            f = np.ones((self.size, self.size), dtype=bool)
            for s in range(1, lab.shape[1]):
                f &= (lab[:, first[:, s]] == lab[:, s, None]).T
            self._finer = f
        return self._finer

    @property
    def meet_table(self) -> np.ndarray:
        """meet_table[i, j] = index of parts[i] meet parts[j]: the blocks of
        the meet are the sites sharing both labels."""
        if self._meet_table is None:
            n = len(self.ground)
            lab = self.labels.astype(np.int64)
            m = np.empty((self.size, self.size), dtype=np.int64)
            for i in range(self.size):
                m[i] = self._lookup(lab[i] * n + lab)
            self._meet_table = m
        return self._meet_table

    def incidence_solve(self, theta: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solution x of theta @ x = rhs, for an incidence-algebra element
        given as a (B, B) table that vanishes off the order and has a nonzero
        diagonal, and a right-hand side of B rows, a vector or a table.

        Coarsest-first substitution over the strictly coarser elements up(i):
        x[i] = (rhs[i] - theta[i, up(i)] @ x[up(i)]) / theta[i, i].  For a
        boolean table (the zeta function) x keeps the dtype of rhs, so an
        integer right-hand side is solved exactly.
        """
        finer = self.finer
        x = np.zeros(rhs.shape, dtype=rhs.dtype if theta.dtype == bool else float)
        for i in np.argsort(self.block_counts, kind="stable"):
            up = np.flatnonzero(finer[i])
            up = up[up != i]
            x[i] = (rhs[i] - theta[i, up] @ x[up]) / theta[i, i]
        return x

    @property
    def mobius_matrix(self) -> np.ndarray:
        """Integer matrix of the Moebius function, the inverse of zeta; zero
        outside the order."""
        if self._mobius is None:
            self._mobius = self.incidence_solve(self.finer, np.eye(self.size, dtype=np.int64))
        return self._mobius

    def restriction_index(self, u) -> np.ndarray:
        """restriction_index(u)[j] = index of parts[j] restricted to u, in lattice(u)."""
        g = as_ground(u)
        cached = self._restrict_index.get(g)
        if cached is None:
            if not set(g) <= set(self.ground):
                raise ValueError(f"{g} is not a subset of the ground set {self.ground}")
            cols = [self.ground.index(x) for x in g]
            cached = lattice(g)._lookup(self.labels[:, cols])
            self._restrict_index[g] = cached
        return cached


@lru_cache(maxsize=None)
def lattice(ground: tuple[int, ...]) -> Lattice:
    return Lattice(as_ground(ground))


def mobius(a: Partition, b: Partition) -> int:
    """Moebius function of the refinement order; zero unless a refines b."""
    _check_same_ground(a, b)
    lat = lattice(a.ground)
    return int(lat.mobius_matrix[lat.index[a], lat.index[b]])
