"""The public names of the package, and the oracles kept out of it."""

import importlib

import recomb
from recomb.closed_form import ClosedFormSolution
from recomb.dynamics import RateSystem
from recomb.partitions import Lattice

MODULES = ["cli", "closed_form", "dynamics", "measures", "partitions", "process", "scenario"]

PUBLIC = [
    "ClosedFormSolution",
    "CoefficientTrajectory",
    "CoefficientVector",
    "DegeneracyError",
    "DegeneracyReport",
    "EmpiricalDistribution",
    "Lattice",
    "Measure",
    "MeasureTrajectory",
    "Partition",
    "RateSystem",
    "Scenario",
    "ScenarioError",
    "TypeSpace",
    "bell_number",
    "build_closed_form",
    "coefficient_rhs",
    "count_two_block",
    "detect_degeneracy",
    "estimate_distribution",
    "exp_convolution",
    "exp_monomial_convolution",
    "ground_set",
    "integrate_coefficients",
    "integrate_measure",
    "lattice",
    "linear_solution",
    "make_rng",
    "measure_from_csv",
    "measure_rhs",
    "mixture",
    "parse_partition",
    "product_measure",
    "recombinator",
    "uniform_measure",
]

# the helpers that only tests call, kept in tests/oracles.py
MOVED = [
    "BlockIndependenceReport",
    "NonInvertibleError",
    "_check_same_ground",
    "_rates_from_decay",
    "decay_rate",
    "enumerate_partitions",
    "invariant_partition_set",
    "is_refinement",
    "join_disjoint",
    "linear_decay_rate",
    "measure_to_csv",
    "meet",
    "meet_gain",
    "meet_of_set",
    "mobius",
    "project",
    "rates_from_linear_decay",
    "read_coefficient_csv",
    "read_empirical_csv",
    "refinement_gain",
    "restrict",
    "simulate_path",
    "split_block_count",
    "transition_product_check",
    "tv_deviation",
    "tv_distance",
]
MOVED_MEMBERS = [
    (Lattice, "meet_row"),
    (Lattice, "meet_table"),
    (Lattice, "incidence_solve"),
    (ClosedFormSolution, "coefficient_table"),
    (ClosedFormSolution, "_invertible"),
    (ClosedFormSolution, "inverse_table"),
    (ClosedFormSolution, "decoupled_coefficient"),
    (ClosedFormSolution, "recovered_rates"),
    (RateSystem, "support"),
]


def test_public_names_resolve_and_moved_names_are_gone():
    assert sorted(recomb.__all__) == PUBLIC
    assert all(hasattr(recomb, name) for name in recomb.__all__)
    modules = [recomb] + [importlib.import_module(f"recomb.{m}") for m in MODULES]
    for module in modules[1:]:
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    for module in modules:
        kept = [name for name in MOVED if hasattr(module, name)]
        assert not kept, (module.__name__, kept)
    assert not [(cls.__name__, attr) for cls, attr in MOVED_MEMBERS if hasattr(cls, attr)]
