"""Set partitions of a finite ground set and their refinement lattice.

Partitions are stored in canonical block form: each block is a sorted tuple
of site labels and blocks are ordered by their smallest element.  Partitions
of subsets keep the original site labels, so moving between a system and its
subsystems never relabels anything.

Text format used in configs and CSV keys: blocks joined by ``|``, elements
by ``,``, e.g. ``1,2|3,4``.  Whitespace is ignored.

A lattice of k sites is the lattice of {1..k} with its sites renamed, so all
lattices of one size share one core: the label arrays, the order and
Moebius tables, the restriction table, keyed by the position mask of the
sub-block, and the texts of all partitions with each site spelled by its
position.  A lattice names its sites only at the edges: ``Lattice.names``
spells every text from that template by one ``str.translate``, and
``Lattice.label_row`` reads a text back to block labels, which
``Lattice.lookup`` finds by their code.  ``Lattice.parts`` and
``Lattice.index``, one ``Partition`` per entry, are views for the
accessors that take or return ``Partition``; they are built on first use.

The order is kept as its comparable pairs a <= b, grouped by a.  The up-set
of a partition a with k blocks is {pi o a : pi in the lattice of k sites}:
relabelling a's blocks by a restricted growth string pi of length k gives a
restricted growth string again, so the pairs come from the labels alone, with
no (B, B) table.  The pair (a, b) sits at a's pointer plus the index, in the
lattice of k sites, of the partition pi that b induces on a's blocks; in that
order b ascends, from the top to a itself.  Moebius inversion over them is
``Lattice.zeta_solve``; the dense ``finer`` and Moebius tables are views
built on demand from the pairs and from ``zeta_solve`` of the identity.

All objects here are immutable after construction and safe to share across
threads; a cached core, lattice or table is at worst built twice on a race,
and a row of the restriction table, filled on first use, at worst written
twice with the same values.
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
    "parse_partition",
    "Lattice",
    "lattice",
]

# largest site count the command line and scenario files accept: Bell(10) is
# 115975 partitions with 16,733,779 comparable pairs
MAX_SITES = 10
# largest lattice whose restriction indices are kept as one (2^n, B) table
# (43 MB at n = 9), filled a row at a time when asked for; a larger one
# looks up only the restrictions asked for
_TABLE_SITES = 9
# a call for fewer than one restriction in _FEW_RESTRICTIONS of a lattice's
# partitions looks them up, and fills no row of the table
_FEW_RESTRICTIONS = 64
# the character that spells the s-th site in a core's texts, and the one
# that stands in for a site name of two or more characters
_POSITIONS = "0123456789"
_PLACEHOLDERS = "ABCDEFGHIJ"


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


def _text_blocks(text: str) -> list[list[int]]:
    """The blocks of a ``1,2|3,4`` text as written, whitespace ignored;
    empty texts and blocks and sites that are not integers are refused."""
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
    return blocks


def parse_partition(text: str, ground) -> Partition:
    """Parse the ``1,2|3,4`` text format against a declared ground set.

    Rejects duplicates and missing sites relative to the ground set.
    """
    g = as_ground(ground)
    p = Partition(_text_blocks(text))
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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i], ..., starts[i] + counts[i] - 1."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def _runs(counts: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Consecutive (lo, hi) runs of items with positive counts, adding up
    to about cap each; an item above cap runs alone."""
    ends = np.cumsum(counts)
    if not ends.size:
        return []
    cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], max(cap, 1)), "right"))
    return list(zip(cuts.tolist(), [*cuts[1:].tolist(), len(ends)]))


class _Core:
    """What every lattice of a k-set shares: the arrays of ``Lattice``, and
    its lazy tables, which ``Lattice`` fills on first use.  The rows of the
    restriction table are keyed by the position mask of the sub-block (bit
    s for the s-th site)."""

    def __init__(self, k: int):
        self.labels = _rgs_labels(k)
        self.codes = _encode(self.labels)
        self.block_counts = self.labels.max(axis=1).astype(np.int64) + 1
        self.up: tuple[np.ndarray, np.ndarray] | None = None
        self.pair_rows: np.ndarray | None = None
        self.down: tuple[np.ndarray, ...] | None = None
        self.finer: np.ndarray | None = None
        self.mobius: np.ndarray | None = None
        self.block_masks: np.ndarray | None = None
        self.first_sites: np.ndarray | None = None
        self.texts: str | None = None
        # the restriction table, and which of its rows are filled (None
        # once all are)
        self.restriction_table: np.ndarray | None = None
        self.filled: np.ndarray | None = None


def _fans(core: _Core) -> np.ndarray:
    """The size of each up-set: Bell(k) above a partition with k blocks."""
    bell = np.array([bell_number(m) for m in range(core.labels.shape[1] + 1)])
    return bell[core.block_counts]


def _up_sets(core: _Core) -> tuple[np.ndarray, np.ndarray]:
    """The order as pairs: pointers by a and the b >= a, each up-set in the
    order of the lattice pi that relabels a's blocks, which is ascending b.

    b = pi o a has code pi @ w_a, where w_a[j] sums the base-k place values
    of the sites in a's j-th block: one product and one searchsorted per
    block count."""
    labels, k = core.labels, core.labels.shape[1]
    ptr = np.concatenate(([0], np.cumsum(_fans(core))))
    ups = np.empty(ptr[-1], dtype=np.int32)
    place = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for m in range(1, k + 1):
        a = np.flatnonzero(core.block_counts == m)
        weights = (labels[a, None, :] == np.arange(m)[:, None]) @ place
        codes = weights @ _core(m).labels.T.astype(np.int64)
        ups[(ptr[a, None] + np.arange(bell_number(m))).ravel()] = np.searchsorted(
            core.codes, codes.ravel()
        )
    return ptr, ups


@lru_cache(maxsize=None)
def _core(k: int) -> _Core:
    return _Core(k)


def _lookup(labels: np.ndarray) -> np.ndarray:
    """Index of each row of a (rows, k) block-label array in the lattice of
    a k-set."""
    return np.searchsorted(_core(labels.shape[1]).codes, _encode(_canonical(labels)))


def _texts(core: _Core) -> str:
    """Every text of the lattice of k sites, in lattice order, one line
    each, with the s-th site spelled ``_POSITIONS[s]``: the sites block by
    block, each block ascending (a stable argsort of the labels), with
    ``,`` inside a block and ``|`` between blocks.  One character matrix,
    decoded once."""
    if core.texts is None:
        labels = core.labels
        k = labels.shape[1]
        order = np.argsort(labels, axis=1, kind="stable")
        chars = np.full((labels.shape[0], 2 * k), ord("\n"), dtype=np.uint8)
        chars[:, 0:-1:2] = np.frombuffer(_POSITIONS.encode(), np.uint8)[order]
        cut = np.diff(np.take_along_axis(labels, order, axis=1), axis=1) != 0
        chars[:, 1:-1:2] = np.where(cut, ord("|"), ord(","))
        core.texts = chars.tobytes().decode("ascii")
    return core.texts


class Lattice:
    """Enumeration, order, restriction and Moebius tables for one ground set.

    The single representation is ``labels``, the (B, n) array of restricted
    growth strings in enumeration order; every table is derived from it with
    array operations.  Lattices of one size share these arrays and tables
    through one core.  In this order the top is the first partition and the
    bottom the last.  The order is kept as its comparable pairs
    (``up_sets``); the (B, B) tables are dense views for tests and small
    lattices.  Heavy tables are built lazily and kept for the lifetime of
    the process; everything is read-only after construction.
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

    def blocks(self, rows) -> list[tuple[tuple[int, ...], ...]]:
        """The canonical blocks of the partitions at the lattice indices
        rows, named by the ground set; equal blocks are one tuple."""
        ground, out, shared = self.ground, [], {}
        for row in self.labels[rows].tolist():
            blocks: list[list[int]] = [[] for _ in range(max(row) + 1)]
            for site, lab in zip(ground, row):
                blocks[lab].append(site)
            out.append(tuple(shared.setdefault(b, b) for b in map(tuple, blocks)))
        return out

    @cached_property
    def parts(self) -> tuple[Partition, ...]:
        """The partitions in enumeration order, named by the ground set: a
        view for the accessors that take or return ``Partition``."""
        ground = self.ground
        return tuple(Partition._from_canonical(b, ground) for b in self.blocks(slice(None)))

    @cached_property
    def index(self) -> dict[Partition, int]:
        return {p: i for i, p in enumerate(self.parts)}

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The text ``1,2|3`` of each partition, in lattice order: the
        core's texts with each position spelled by its site, in one
        ``str.translate`` of one character per character; a longer name,
        such as 10, goes in through a placeholder and one ``str.replace``."""
        spelled = list(zip(_POSITIONS, _PLACEHOLDERS, map(str, self.ground)))
        text = _texts(self._core).translate(
            str.maketrans({pos: x if len(x) == 1 else hold for pos, hold, x in spelled})
        )
        for _, hold, x in spelled:
            if len(x) > 1:
                text = text.replace(hold, x)
        return tuple(text.split("\n")[:-1])

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {x: s for s, x in enumerate(self.ground)}

    def label_row(self, text: str) -> tuple[list[int], int]:
        """Block labels of a ``1,2|3,4`` text of a partition of the ground
        set, one per site with the blocks numbered as written, and the
        number of blocks.  A text that ``parse_partition`` refuses raises
        its error."""
        blocks = _text_blocks(text)
        at, row = self._positions, [-1] * len(self.ground)
        for j, block in enumerate(blocks):
            for x in block:
                s = at.get(x)
                if s is None or row[s] >= 0:
                    parse_partition(text, self.ground)  # raises: a site outside or twice
                row[s] = j
        if -1 in row:
            parse_partition(text, self.ground)  # raises: a site missing
        return row, len(blocks)

    def lookup(self, labels) -> np.ndarray:
        """Lattice index of each row of a (rows, n) block-label array, the
        blocks numbered in any order: the code of its canonical labels,
        searched in ``codes``."""
        labels = np.asarray(labels, dtype=np.int64).reshape(-1, len(self.ground))
        return _lookup(labels)

    def lookup_first_sites(self, first: np.ndarray) -> np.ndarray:
        """Lattice index of each partition given as a (rows, n) array of the
        position of the first site of each site's block (as in
        ``first_sites``): a block's label is the number of blocks that
        start before it, so the labels come from one running count of the
        block starts, with no relabelling loop."""
        starts = first == np.arange(first.shape[1])
        labels = np.take_along_axis(np.cumsum(starts, axis=1) - 1, first.astype(np.intp), axis=1)
        return np.searchsorted(self.codes, _encode(labels))

    def locate(self, partitions) -> np.ndarray:
        """Lattice index of each partition of the ground set, by its code;
        no ``Partition`` of the lattice is built."""
        at, rows = self._positions, []
        for p in partitions:
            row = [0] * len(at)
            for j, block in enumerate(p.blocks):
                for x in block:
                    row[at[x]] = j
            rows.append(row)
        return self.lookup(rows)

    @property
    def first_sites(self) -> np.ndarray:
        """(B, n) position of the first site of each site's block: where the
        running maximum of the labels steps up, the block of that label
        starts."""
        core = self._core
        if core.first_sites is None:
            lab = self.labels
            starts = np.diff(np.maximum.accumulate(lab, axis=1), axis=1, prepend=-1) > 0
            rows, sites = np.nonzero(starts)
            first = np.zeros(lab.shape, dtype=np.int8)
            first[rows, lab[rows, sites]] = sites
            core.first_sites = np.take_along_axis(first, lab.astype(np.intp), axis=1)
        return core.first_sites

    @property
    def finer(self) -> np.ndarray:
        """Boolean matrix: finer[i, j] iff parts[i] refines parts[j].  The
        dense view of the comparable pairs (``up_sets``), for tests and
        small lattices; no route reads it."""
        core = self._core
        if core.finer is None:
            core.finer = np.zeros((self.size, self.size), dtype=bool)
            core.finer[self.pair_rows, self.up_sets[1]] = True
        return core.finer

    @property
    def up_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """The order as CSR rows by the finer element: indices[indptr[a]:
        indptr[a + 1]] are the partitions coarser than parts[a], ascending,
        with parts[a] itself last (a coarser partition has a smaller label
        at every site, so it comes earlier).  Position p of indices is the
        comparable pair (pair_rows[p], indices[p]); tables on the pairs are
        indexed by it."""
        core = self._core
        if core.up is None:
            core.up = _up_sets(core)
        return core.up

    @property
    def pair_count(self) -> int:
        """The number of comparable pairs, counted without building them."""
        return int(_fans(self._core).sum())

    @property
    def block_sizes(self) -> np.ndarray:
        """(B, n) block sizes: entry [i, j] is the number of sites in the
        j-th block of parts[i]; zero past the last block."""
        n = len(self.ground)
        return (self.labels[:, :, None] == np.arange(n)).sum(axis=1)

    @property
    def pair_rows(self) -> np.ndarray:
        """The finer element of each comparable pair, in ``up_sets`` order."""
        core = self._core
        if core.pair_rows is None:
            ptr = self.up_sets[0]
            core.pair_rows = np.repeat(np.arange(self.size, dtype=np.int32), np.diff(ptr))
        return core.pair_rows

    @property
    def down_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transpose of ``up_sets`` as (indptr, indices, positions):
        indices[indptr[c]: indptr[c + 1]] are the partitions that refine
        parts[c], ascending, with parts[c] itself first, and positions are
        those pairs' positions in ``up_sets``."""
        core = self._core
        if core.down is None:
            ups = self.up_sets[1]
            pos = np.argsort(ups, kind="stable").astype(np.int32)
            ptr = np.concatenate(([0], np.cumsum(np.bincount(ups, minlength=self.size))))
            core.down = ptr, self.pair_rows[pos], pos
        return core.down

    @property
    def down_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """The order as CSR rows by the coarser element: indices[indptr[c]:
        indptr[c + 1]] are the partitions that refine parts[c], ascending;
        parts[c] itself comes first."""
        return self.down_pairs[:2]

    @property
    def block_masks(self) -> np.ndarray:
        """(B, n) block masks: bit s of entry [i, j] is set iff the s-th site
        of the ground set lies in the j-th block of parts[i]; zero past the
        last block.  Set one site at a time, so no (B, n, n) table is made."""
        core = self._core
        if core.block_masks is None:
            lab = self.labels
            rows = np.arange(lab.shape[0])
            core.block_masks = np.zeros(lab.shape, dtype=np.int64)
            for s in range(lab.shape[1]):
                core.block_masks[rows, lab[:, s]] |= 1 << s
        return core.block_masks

    def zeta_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Moebius inversion: x with the sum of x over each up-set equal to
        rhs, for a vector or a table of B rows; an integer rhs is solved
        exactly in its own dtype, any other in floats.  Coarsest first, one
        block count at a time: x[a] = rhs[a] - the sum of x over the b
        strictly above a, one reduceat per block count.  Summing the
        nonnegative terms of a linear solution keeps its rounding near the
        unit roundoff, where weighting by the Moebius function would cancel
        terms up to (n - 1)! in size."""
        ptr, ups = self.up_sets
        rhs = np.asarray(rhs)
        x = rhs.copy() if rhs.dtype.kind in "iu" else rhs.astype(float)
        for k in range(2, len(self.ground) + 1):
            a = np.flatnonzero(self.block_counts == k)
            fan = ptr[a + 1] - ptr[a] - 1
            x[a] -= np.add.reduceat(x[ups[_ranges(ptr[a], fan)]], np.cumsum(fan) - fan, axis=0)
        return x

    @property
    def mobius_matrix(self) -> np.ndarray:
        """Integer matrix of the Moebius function, the inverse of zeta; zero
        outside the order: ``zeta_solve`` of the identity.  A dense view
        for tests and tracing; no route reads it."""
        core = self._core
        if core.mobius is None:
            core.mobius = self.zeta_solve(np.eye(self.size, dtype=np.int64))
        return core.mobius

    def mask(self, u) -> int:
        """The position mask of the sites of u: bit s for the s-th site of
        the ground set."""
        g = as_ground(u)
        if not set(g) <= set(self.ground):
            raise ValueError(f"{g} is not a subset of the ground set {self.ground}")
        return sum(1 << self.ground.index(x) for x in g)

    def restriction_index(self, u) -> np.ndarray:
        """restriction_index(u)[j] = index of parts[j] restricted to u, in lattice(u)."""
        return self.restrictions(self.mask(u), np.arange(self.size)).astype(np.intp)

    def restrictions(self, masks, rows) -> np.ndarray:
        """Index of parts[rows[i]] restricted to the sites at position mask
        masks[i], in the lattice of those sites; 0 for mask 0.  masks and
        rows broadcast.  Up to ``_TABLE_SITES`` sites this reads
        ``restriction_table``, filling the rows it needs; a call for few
        entries, and any call above, looks up only the entries asked for,
        one lookup per number of sites kept."""
        masks = np.asarray(masks, dtype=np.int64)
        entries = np.broadcast(masks, rows).size
        if len(self.ground) <= _TABLE_SITES and entries * _FEW_RESTRICTIONS >= self.size:
            return self._restriction_rows(masks)[masks, rows]
        masks, rows = np.broadcast_arrays(masks, rows)
        bits = masks[..., None] >> np.arange(len(self.ground)) & 1
        kept = bits.sum(axis=-1)
        out = np.zeros(masks.shape, dtype=np.intp)
        for k in np.unique(kept[kept > 0]).tolist():
            at = kept == k
            sites = np.nonzero(bits[at])[1].reshape(-1, k)  # ascending in each row
            out[at] = _lookup(self.labels[rows[at][:, None], sites])
        return out

    def _restriction_rows(self, masks) -> np.ndarray:
        """The (2^n, B) restriction table with at least its rows at masks
        filled; row 0 is zero.  It starts as zeros, whose pages the system
        provides only once a row is written.

        Each row is one lookup, or drops one more site from a row with one
        site more (which it fills first), through a row of the table of the
        smaller lattice."""
        core = self._core
        n = len(self.ground)
        full = (1 << n) - 1
        if core.restriction_table is None:
            table = np.zeros((1 << n, self.size), dtype=np.int32)
            table[full] = np.arange(self.size)
            filled = np.zeros(1 << n, dtype=bool)
            filled[[0, full]] = True
            core.restriction_table, core.filled = table, filled
        table, filled, masks = core.restriction_table, core.filled, np.asarray(masks)
        if filled is None or filled[masks].all():  # None once every row is filled
            return table
        for m in np.unique(masks[~filled[masks]]).tolist():
            chain = []  # m and the rows above it that are not filled, m first
            while not filled[m]:
                chain.append(m)
                m |= ~m & (m + 1)  # add the lowest site outside m
            for m in reversed(chain):
                s = (~m & (m + 1)).bit_length() - 1  # the lowest site outside m
                up = m | 1 << s
                if up == full:
                    table[m] = _lookup(np.delete(self.labels, s, axis=1))
                else:
                    # restrict to up, then drop s, the i-th of up's k sites
                    k, i = up.bit_count(), (up & ((1 << s) - 1)).bit_count()
                    drop = ((1 << k) - 1) ^ 1 << i
                    table[m] = lattice(ground_set(k))._restriction_rows(drop)[drop][table[up]]
                filled[m] = True
        if filled.all():
            core.filled = None
        return table

    @property
    def restriction_table(self) -> np.ndarray:
        """(2^n, B) int32 table whose row m is the restriction index to the
        sites at mask m (as in ``block_masks``); row 0 is zero.  Every row
        filled, read-only."""
        table = self._restriction_rows(np.arange(1 << len(self.ground))).view()
        table.flags.writeable = False
        return table


@lru_cache(maxsize=None)
def lattice(ground: tuple[int, ...]) -> Lattice:
    return Lattice(as_ground(ground))

