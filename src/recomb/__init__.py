"""Lattice-based solver for the general recombination dynamics on finite type spaces.

Three independent routes to the same object: a recursive closed form over the
partition lattice, fixed-step numerical integration of the nonlinear dynamics,
and exact Monte Carlo simulation of the backward partitioning chain.
"""

from recomb.closed_form import (
    ClosedFormSolution,
    DegeneracyError,
    DegeneracyReport,
    build_closed_form,
    detect_degeneracy,
    exp_convolution,
    exp_monomial_convolution,
    linear_solution,
)
from recomb.dynamics import (
    CoefficientTrajectory,
    CoefficientVector,
    MeasureTrajectory,
    RateSystem,
    coefficient_rhs,
    integrate_coefficients,
    integrate_measure,
    measure_rhs,
)
from recomb.measures import (
    Measure,
    TypeSpace,
    measure_from_csv,
    mixture,
    product_measure,
    recombinator,
    uniform_measure,
)
from recomb.partitions import (
    Lattice,
    Partition,
    bell_number,
    count_two_block,
    ground_set,
    lattice,
    parse_partition,
)
from recomb.process import (
    EmpiricalDistribution,
    estimate_distribution,
    make_rng,
)
from recomb.scenario import Scenario, ScenarioError

__all__ = [
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
