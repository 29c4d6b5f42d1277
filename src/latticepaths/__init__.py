"""Directed lattice walks with a reflecting or absorbing boundary at altitude 0.

Exact finite-length statistics by recurrence, numerical kernel-method
generating functions, structural constants, asymptotic regime formulas and
limit-law goodness of fit, with a TSV command-line front end.
"""

from .asymptotics import (
    AsymptoticEstimate,
    Classification,
    Criticality,
    DriftSign,
    arch_asymptotic,
    classify,
    excursion_asymptotic,
    final_altitude_asymptotic,
    meander_ratio_asymptotic,
)
from .enumeration import (
    AltitudeDistribution,
    BoundaryRule,
    BruteForceSummary,
    ReturnsDistribution,
    arch_mass,
    arch_series,
    bridge_and_walk_mass,
    brute_force,
    excursion_mass,
    excursion_series,
    final_altitude_expectation,
    meander_distribution,
    meander_mass,
    meander_mass_series,
    path_probabilities,
    path_probability,
    returns_to_zero_distribution,
    step,
)
from .errors import (
    BranchDegenerateError,
    InconsistentCaseError,
    InvalidModelError,
    LatticePathError,
    ModelFileError,
    NoRho1Error,
    NotLukasiewiczError,
    NumericalSingularityError,
    PeriodicModelError,
)
from .kernel import (
    BranchSet,
    StructuralConstants,
    excursion_gf,
    excursion_gf_bf,
    excursion_gf_vandermonde,
    perturbation_identity_residual,
    small_branch_u1,
    small_branches,
    solve_boundary_gfs,
    structural_constants,
    u1_expansion_check,
)
from .laws import (
    FitReport,
    LimitLawSpec,
    Statistic,
    final_altitude_law,
    fit,
    returns_law,
)
from .model import (
    LaurentPolynomial,
    ModelKind,
    ValidationReport,
    WalkModel,
    format_model,
    load_model,
    parse_model,
    validate,
)

__version__ = "0.1.0"
