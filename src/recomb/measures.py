"""Finite product type spaces, nonnegative measures as dense tensors, and
the block-product operators driven by partitions.

Weights live in a dense float tensor in row-major mixed-radix order over the
sites in ascending order, so projections and tensor products are exact index
arithmetic.  Measures are value types: every operation is pure and results
are safe to share between threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from recomb.partitions import Partition, as_ground, lattice

__all__ = [
    "TypeSpace",
    "Measure",
    "recombinator",
    "mixture",
    "uniform_measure",
    "product_measure",
    "measure_from_csv",
]

# dense tensors only; keep the full state space well inside memory
MAX_STATES = 1 << 26

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class TypeSpace:
    """A product of finite per-site alphabets, ordered by site index."""

    sites: tuple[int, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", as_ground(self.sites))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) != len(self.sites):
            raise ValueError("one alphabet size per site required")
        if any(s < 1 for s in self.sizes):
            raise ValueError("alphabet sizes must be positive")
        if self.n_states > MAX_STATES:
            raise ValueError("state space too large for a dense tensor")

    @classmethod
    def regular(cls, n: int, size: int = 2) -> "TypeSpace":
        return cls(tuple(range(1, n + 1)), (size,) * n)

    @property
    def n_states(self) -> int:
        out = 1
        for s in self.sizes:
            out *= s
        return out

    def axis(self, site: int) -> int:
        return self.sites.index(site)

    def subspace(self, u) -> "TypeSpace":
        g = as_ground(u)
        if not set(g) <= set(self.sites):
            raise ValueError(f"{g} is not a subset of the sites {self.sites}")
        return TypeSpace(g, tuple(self.sizes[self.axis(s)] for s in g))


class Measure:
    """A nonnegative measure on a finite product space, stored densely."""

    __slots__ = ("space", "weights")

    def __init__(self, space: TypeSpace, weights, validate: bool = True):
        w = np.asarray(weights, dtype=float)
        if w.shape != tuple(space.sizes):
            raise ValueError(f"weights must have shape {tuple(space.sizes)}")
        if validate:
            if w.min() < -_NEG_TOL * max(1.0, abs(w).max()):
                raise ValueError("measure weights must be nonnegative")
            with np.errstate(over="ignore"):
                total = w.sum()
            # NaN passes the sign check, and huge weights can sum past the float range
            if not np.isfinite(total):
                raise ValueError(f"measure weights must have a finite total, got {total}")
        self.space = space
        self.weights = w

    def norm(self) -> float:
        return float(self.weights.sum())

    def __repr__(self) -> str:
        return f"Measure(space={self.space.sites}, norm={self.norm():.6g})"


def recombinator(a: Partition, nu: Measure) -> Measure:
    """Replace nu by the mass-normalized product of its marginals over the
    blocks of a, in site order.  The zero measure maps to itself."""
    space = nu.space
    if a.ground != space.sites:
        raise ValueError(f"partition ground {a.ground} != sites {space.sites}")
    w = nu.weights
    if w.size and w.min() < -_NEG_TOL * max(1.0, abs(w).max()):
        raise ValueError("recombinator is only defined for nonnegative measures")
    total = float(w.sum())
    if total == 0.0:
        return Measure(space, np.zeros_like(w), validate=False)
    if a.block_count == 1:
        return Measure(space, w.copy(), validate=False)
    scaled = w / total  # unit mass first; a direct total**(1-r) can overflow
    operands: list = []
    for block in a.blocks:
        drop = tuple(i for i, s in enumerate(space.sites) if s not in block)
        operands.append(scaled.sum(axis=drop))
        operands.append([space.axis(s) for s in block])
    out = np.einsum(*operands, list(range(len(space.sites))))
    out *= total
    return Measure(space, out, validate=False)


def mixture(coeffs, nu0: Measure) -> Measure:
    """Weighted combination sum_c coeffs(c) * recombinator(c, nu0), taken
    through a trie program on nu0's block marginals
    (``recomb.dynamics.mixtures``).

    Accepts a Partition -> float mapping or any object with an as_dict()
    method producing one.
    """
    from recomb.dynamics import mixtures  # recomb.dynamics imports this module

    items = coeffs.as_dict() if hasattr(coeffs, "as_dict") else dict(coeffs)
    space = nu0.space
    w = nu0.weights
    if w.size and w.min() < -_NEG_TOL * max(1.0, abs(w).max()):
        raise ValueError("mixtures are only defined for nonnegative measures")
    lat = lattice(space.sites)
    values = np.zeros((1, lat.size))
    for p, c in items.items():
        if p.ground != space.sites:
            raise ValueError(f"partition ground {p.ground} != sites {space.sites}")
        values[0, lat.index[p]] = float(c)
    return Measure(space, mixtures(values, nu0)[0].reshape(space.sizes), validate=False)


def uniform_measure(space: TypeSpace) -> Measure:
    w = np.full(tuple(space.sizes), 1.0 / space.n_states)
    return Measure(space, w, validate=False)


def product_measure(space: TypeSpace, site_weights: Iterable[Iterable[float]]) -> Measure:
    """Tensor product of per-site weight vectors, in site order."""
    vectors = [np.asarray(v, dtype=float) for v in site_weights]
    if len(vectors) != len(space.sites):
        raise ValueError("one weight vector per site required")
    for v, s in zip(vectors, space.sizes):
        if v.shape != (s,):
            raise ValueError("weight vector length must match the alphabet size")
        if v.min() < 0:
            raise ValueError("site weights must be nonnegative")
    out = vectors[0]
    # an overflowing product is refused by Measure's check of the total
    with np.errstate(over="ignore"):
        for v in vectors[1:]:
            out = np.multiply.outer(out, v)
    return Measure(space, out)


def measure_from_csv(path) -> Measure:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[-1] != "weight" or len(header) < 2:
            raise ValueError("expected site columns followed by a weight column")
        sites = tuple(int(name.lstrip("x")) for name in header[:-1])
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"row {row} needs one letter per site and a weight")
            rows.append((tuple(int(x) for x in row[:-1]), float(row[-1])))
    if not rows:
        raise ValueError("no states in measure file")
    if any(x < 0 for c, _ in rows for x in c):
        raise ValueError("letters must be nonnegative")
    sizes = tuple(max(c[i] for c, _ in rows) + 1 for i in range(len(sites)))
    space = TypeSpace(sites, sizes)
    # distinct states, as many as the space holds, are every state once
    if len({c for c, _ in rows}) != len(rows) or len(rows) != space.n_states:
        raise ValueError("measure file must list every state exactly once")
    w = np.zeros(sizes)
    for coords, value in rows:
        w[coords] = value
    return Measure(space, w)
