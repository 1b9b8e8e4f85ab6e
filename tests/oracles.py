"""Object-level oracles for the lattice arrays and the solver routes.

The routes work on lattice arrays (labels, codes, comparable pairs).  The
helpers here redo the same algebra on ``Partition`` objects, or invert and
check a route's output, so that tests can compare the two.  No route calls
them.  A helper that was a method takes its former instance as the first
argument and reads only the public table views; ``coefficient_table``
reads the pair tables a closed-form solution stores.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from recomb.closed_form import ClosedFormSolution
from recomb.dynamics import _NEG_TOL, CoefficientVector, RateSystem
from recomb.measures import Measure, recombinator
from recomb.partitions import Lattice, Partition, as_ground, lattice, parse_partition
from recomb.process import _final_indices, _jump_table, _start_index, estimate_distribution


def bell_oracle(n: int) -> int:
    """Independent binomial recursion for the enumeration count."""
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


# partitions ----------------------------------------------------------------


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


def mobius(a: Partition, b: Partition) -> int:
    """Moebius function of the refinement order; zero unless a refines b."""
    _check_same_ground(a, b)
    lat = lattice(a.ground)
    return int(lat.mobius_matrix[lat.index[a], lat.index[b]])


def finer_oracle(lat: Lattice) -> np.ndarray:
    """Boolean matrix: [i, j] iff parts[i] refines parts[j], built by its
    own label comparison, apart from the comparable pairs that
    ``Lattice.finer`` marks.  a refines b iff b's labels are constant on
    each block of a, that is, every site carries b's label of the first
    site of its a-block."""
    lab = lat.labels
    first = np.array([[row.index(x) for x in row] for row in lab.tolist()])
    f = np.ones((lat.size, lat.size), dtype=bool)
    for s in range(1, lab.shape[1]):
        f &= (lab[:, first[:, s]] == lab[:, s, None]).T
    return f


def incidence_solve(lat: Lattice, theta: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution x of theta @ x = rhs, for an incidence-algebra element
    given as a dense (B, B) table that vanishes off the order and has a
    nonzero diagonal, and a right-hand side of B rows, a vector or a
    table: the dense reference for ``Lattice.zeta_solve``.

    Coarsest-first substitution over the strictly coarser elements up(i):
    x[i] = (rhs[i] - theta[i, up(i)] @ x[up(i)]) / theta[i, i].  For a
    boolean table (the zeta function) x keeps the dtype of rhs, so an
    integer right-hand side is solved exactly.
    """
    ptr, ups = lat.up_sets
    x = np.zeros(rhs.shape, dtype=rhs.dtype if theta.dtype == bool else float)
    for i in np.argsort(lat.block_counts, kind="stable"):
        up = ups[ptr[i] : ptr[i + 1] - 1]
        x[i] = (rhs[i] - theta[i, up] @ x[up]) / theta[i, i]
    return x


def meet_row(lat: Lattice, i: int) -> np.ndarray:
    """Index of parts[i] meet each partition: the blocks of the meet are
    the sites sharing both labels."""
    lab = lat.labels.astype(np.int64)
    return lat.lookup(lab[i] * len(lat.ground) + lab)


def meet_table(lat: Lattice) -> np.ndarray:
    """meet_table[i, j] = index of parts[i] meet parts[j]; a dense view
    for tests and small lattices."""
    return np.stack([meet_row(lat, i) for i in range(lat.size)])


# dynamics ------------------------------------------------------------------


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
    col = meet_row(lat, lat.index[b])
    return float(q.values[col == lat.index[a]].sum())


def trie_rhs(prog, vec: np.ndarray) -> np.ndarray:
    """The right-hand side of a bound trie program with a Python loop over
    its stacked parts: each part's mass as a float, the scale repeated from
    a list and each live part's gain added into its own slice.  Kept as the
    bitwise reference for ``_TrieProgram.rhs``."""
    out = -prog.loss * vec
    if not prog.levels:
        return out
    mass = [float(vec[lo:hi].sum()) for lo, hi in prog.parts]
    if max(mass) <= 0.0:
        return out
    sizes = [hi - lo for lo, hi in prog.parts]
    scale = np.repeat([s if s > 0.0 else np.inf for s in mass], sizes)
    gain = prog.gain(prog.marginals(vec / scale))
    for (lo, hi), s in zip(prog.parts, mass):
        if s > 0.0:
            out[lo:hi] += s * gain[lo:hi]
    return out


def rhs_oracle(prog, vec: np.ndarray) -> np.ndarray:
    """The right-hand side of a bound trie program with every part masked:
    the masses in one array, the scale gathered by state, and the gain
    scaled and added only where the state's part has positive mass.  Kept
    as the bitwise reference for ``_TrieProgram.rhs``, whose unmasked path
    serves input where every part has positive mass."""
    out = -prog.loss * vec
    if not prog.levels:
        return out
    mass = np.array([np.add.reduce(vec[part]) for part in prog.slices])
    live = mass > 0.0
    scale = np.where(live, mass, np.inf)[prog.state_part]
    gain = prog.gain(prog.marginals(vec / scale))
    held = live[prog.state_part]
    np.multiply(gain, scale, out=gain, where=held)
    return np.add(out, gain, out=out, where=held)


# closed form ---------------------------------------------------------------

_DIAG_TOL = 1e-12


class NonInvertibleError(RuntimeError):
    """The coefficient table has a vanishing diagonal entry."""


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
    lat = lattice(g)
    ptr, ups = lat.up_sets
    i = lat.index[a]
    # the rate mass of a's up-set alone, summed in ascending order
    return float(rates.total - np.cumsum(rates.marginal(g)[ups[ptr[i] : ptr[i + 1]]])[-1])


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
    return _rates_from_decay(g, lat.zeta_solve(chi), rho_total)


def coefficient_table(sol: ClosedFormSolution, u) -> np.ndarray:
    """The coefficient table of u as a dense (B, B) array, zero off the
    order, from the pair table that ``json_chunks`` and ``evaluate`` read."""
    g = as_ground(u)
    lat = lattice(g)
    table = np.zeros((lat.size, lat.size))
    table[lat.pair_rows, lat.up_sets[1]] = sol._coeff[sol._key(g)]
    return table


def _invertible(sol: ClosedFormSolution, g: tuple[int, ...]) -> np.ndarray:
    """The dense coefficient table of g, checked to have no vanishing
    diagonal."""
    theta = coefficient_table(sol, g)
    scale = max(1.0, float(np.abs(theta).max()))
    if np.abs(np.diag(theta)).min() <= _DIAG_TOL * scale:
        raise NonInvertibleError(
            "coefficient table has a vanishing diagonal entry; "
            "inverse requires positive rates on all two-block partitions"
        )
    return theta


def inverse_table(sol: ClosedFormSolution, u) -> np.ndarray:
    """Inverse of the coefficient table in the incidence algebra."""
    g = as_ground(u)
    theta = _invertible(sol, g)
    return incidence_solve(lattice(g), theta, np.eye(theta.shape[0]))


def decoupled_coefficient(sol: ClosedFormSolution, u, a: Partition, t: float) -> float:
    """Inverse-transformed coefficient; decays as a pure exponential
    exp(-decay(a) * t).  One substitution solves for the whole vector."""
    g = as_ground(u)
    lat = lattice(g)
    x = incidence_solve(lat, _invertible(sol, g), sol.evaluate(g, [t]).values[0])
    return float(x[lat.index[a]])


def recovered_rates(sol: ClosedFormSolution, u) -> dict[Partition, float]:
    """Rates reconstructed from decay rates and coefficients; round-trips
    with the marginal input rates."""
    g = as_ground(u)
    product = coefficient_table(sol, g) @ sol.decay_table(g)
    return _rates_from_decay(g, product, sol.rates.total)


# measures ------------------------------------------------------------------


def tv_deviation(a: Measure | np.ndarray, b: Measure | np.ndarray) -> float:
    """Total variation norm of the (signed) difference: sum of |entries|."""
    wa = a.weights if isinstance(a, Measure) else np.asarray(a)
    wb = b.weights if isinstance(b, Measure) else np.asarray(b)
    return float(np.abs(wa - wb).sum())


def project(nu: Measure, u) -> Measure:
    """Marginal over the sites outside u.  Preserves the total mass."""
    g = as_ground(u)
    space = nu.space
    if not set(g) <= set(space.sites):
        raise ValueError(f"{g} is not a subset of the sites {space.sites}")
    drop = tuple(i for i, s in enumerate(space.sites) if s not in g)
    out = nu.weights.sum(axis=drop) if drop else nu.weights.copy()
    return Measure(space.subspace(g), out, validate=False)


def invariant_partition_set(
    nu: Measure, eps: float = 1e-10
) -> tuple[set[Partition], Partition]:
    """Partitions whose block-product operator fixes nu (relative tolerance
    eps), together with their meet."""
    total = nu.norm()
    if total <= 0.0:
        raise ValueError("invariant partitions are undefined for the zero measure")
    fixed = {
        p
        for p in lattice(nu.space.sites).parts
        if tv_deviation(recombinator(p, nu), nu) <= eps * total
    }
    return fixed, meet_of_set(fixed, nu.space.sites)


def measure_to_csv(nu: Measure, path) -> None:
    """Flat CSV: one row per state, letter columns (0-based) plus weight."""
    space = nu.space
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{s}" for s in space.sites] + ["weight"])
        flat = nu.weights.reshape(-1)
        for j, coords in enumerate(np.ndindex(*space.sizes)):
            writer.writerow([*coords, format(flat[j], ".17g")])


# process -------------------------------------------------------------------


def tv_distance(frequencies: Mapping[Partition, float], reference) -> float:
    """Total variation distance between two distributions on the lattice:
    half the sum of absolute differences, over a set of ``Partition``."""
    ref = reference.as_dict() if hasattr(reference, "as_dict") else dict(reference)
    keys = set(frequencies) | set(ref)
    return 0.5 * sum(abs(frequencies.get(p, 0.0) - ref.get(p, 0.0)) for p in keys)


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


# scenario files ------------------------------------------------------------


def read_coefficient_csv(path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Times, partition keys, and the value matrix of a trajectory CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "t":
            raise ValueError("trajectory CSV must start with a 't' column")
        keys = header[1:]
        if keys and keys[-1] == "drift":
            keys = keys[:-1]
        width = len(keys)
        times, rows = [], []
        for row in reader:
            times.append(float(row[0]))
            rows.append([float(x) for x in row[1 : 1 + width]])
    return np.array(times), keys, np.array(rows)


def read_empirical_csv(path, ground) -> dict[Partition, int]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {parse_partition(row[0], ground): int(row[1]) for row in reader}
