"""Directed lattice walks with a reflecting or absorbing boundary at altitude 0.

Exact finite-length statistics by recurrence, numerical kernel-method
generating functions, structural constants, asymptotic regime formulas and
limit-law goodness of fit, with a TSV command-line front end.

Importing the package loads none of its layers. ``_EXPORTS`` names the
module that defines each exported name; the first access to a name, or to a
submodule such as ``latticepaths.kernel``, imports that module and caches
the value here (PEP 562). So a caller pays for numpy and for compiling a
layer only when it uses one: loading and validating a model imports
neither.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": (
        "AsymptoticEstimate", "Classification", "Criticality", "DriftSign",
        "arch_asymptotic", "classify", "excursion_asymptotic",
        "final_altitude_asymptotic", "meander_ratio_asymptotic",
    ),
    "enumeration": (
        "AltitudeDistribution", "BoundaryRule", "BruteForceSummary", "ReturnsDistribution",
        "arch_mass", "arch_series", "bridge_and_walk_mass", "brute_force", "excursion_mass",
        "excursion_series", "final_altitude_expectation", "meander_distribution",
        "meander_mass", "meander_mass_series", "path_probabilities", "path_probability",
        "returns_to_zero_distribution", "step",
    ),
    "errors": (
        "BranchDegenerateError", "InconsistentCaseError", "InvalidModelError",
        "LatticePathError", "ModelFileError", "NotLukasiewiczError",
        "NumericalSingularityError", "PeriodicModelError",
    ),
    "kernel": (
        "BranchSet", "StructuralConstants", "excursion_gf", "excursion_gf_bf",
        "excursion_gf_vandermonde", "perturbation_identity_residual", "small_branch_u1",
        "small_branches", "solve_boundary_gfs", "structural_constants", "u1_expansion_check",
    ),
    "laws": (
        "FitReport", "LimitLawSpec", "Statistic", "final_altitude_law", "fit", "returns_law",
    ),
    "model": (
        "LaurentPolynomial", "ModelKind", "ValidationReport", "WalkModel", "format_model",
        "load_model", "parse_model", "validate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "verify"})

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
