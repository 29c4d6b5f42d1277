"""What importing the package and each CLI command load, and the export surface.

Each command runs as the first call of a fresh interpreter with no bytecode
cache, as users run the CLI. Importing the package loads no layer; a
command imports the layers its handler calls, and only those, and argparse
only for help, a usage error or a command line the command table's reader
leaves to it. These tests check which modules are loaded, not how long
loading takes.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import latticepaths

SRC = Path(latticepaths.__file__).resolve().parent.parent
MODEL = str(Path(__file__).resolve().parent.parent / "models" / "motzkin_reflection.model")
LAYERS = ("enumeration", "kernel", "asymptotics", "laws", "verify")

# the first call of a fresh interpreter, with the library call a user makes
# before a command; prints the exit code and the loaded modules
PROBE = """
import contextlib, io, json, sys
import latticepaths
from latticepaths import cli
latticepaths.load_model(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.run(json.loads(sys.argv[2]))
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_by(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, MODEL, json.dumps(argv)],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


@pytest.mark.parametrize("argv, code", [
    (["validate", MODEL], 0),
    (["--help"], 0),
    (["count", "--what", "excursions", MODEL], 2),  # no --n
    (["validate", "/nonexistent/path.model"], 1),
])
def test_validate_help_and_errors_load_no_layer_and_no_numpy(argv, code):
    got, modules = loaded_by(argv)
    assert got == code
    assert "latticepaths.model" in modules
    assert modules & {"numpy", *(f"latticepaths.{layer}" for layer in LAYERS)} == set()


@pytest.mark.parametrize("argv, code, argparse", [
    (["validate", MODEL], 0, False),
    (["count", "--n", "10", "--what", "excursions", "--exact", MODEL], 0, False),
    (["table2", MODEL], 0, False),
    (["validate", "/nonexistent/path.model"], 1, False),
    (["--help"], 0, True),
    (["count", "--what", "excursions", MODEL], 2, True),  # no --n
    (["count", "--n=10", "--what", "excursions", MODEL], 0, True),
])
def test_argparse_is_imported_for_help_usage_errors_and_other_shapes_alone(argv, code, argparse):
    # a well-formed command line is read off the command table; argparse
    # prints help and usage errors and parses every other shape
    got, modules = loaded_by(argv)
    assert got == code
    assert ("argparse" in modules) == argparse


@pytest.mark.parametrize("argv, code", [
    (["validate", MODEL], 0),
    (["validate", "/nonexistent/path.model"], 1),
    (["--help"], 0),
])
def test_validate_help_and_model_file_errors_import_no_dataclasses(argv, code):
    # the model layer is plain classes: dataclasses, and the inspect module
    # it imports, would be most of the start-up of a command that reads a model
    got, modules = loaded_by(argv)
    assert got == code
    assert modules & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("argv", [
    ["count", "--n", "10", "--what", "excursions", "--exact", MODEL],
    ["table2", MODEL],
])
def test_exact_commands_load_the_dps_alone(argv):
    got, modules = loaded_by(argv)
    assert got == 0
    assert "latticepaths.enumeration" in modules
    assert {f"latticepaths.{layer}" for layer in LAYERS[1:]} & modules == set()


# the names the package exported when every layer was imported eagerly, by
# the module that defines each
EXPORTED_FROM = {
    "asymptotics": {
        "AsymptoticEstimate", "Classification", "Criticality", "DriftSign", "arch_asymptotic",
        "classify", "excursion_asymptotic", "final_altitude_asymptotic",
        "meander_ratio_asymptotic",
    },
    "enumeration": {
        "AltitudeDistribution", "BoundaryRule", "BruteForceSummary", "ReturnsDistribution",
        "arch_mass", "arch_series", "bridge_and_walk_mass", "brute_force", "excursion_mass",
        "excursion_series", "final_altitude_expectation", "meander_distribution",
        "meander_mass", "meander_mass_series", "path_probabilities", "path_probability",
        "returns_to_zero_distribution", "step",
    },
    "errors": {
        "BranchDegenerateError", "InconsistentCaseError", "InvalidModelError",
        "LatticePathError", "ModelFileError", "NotLukasiewiczError",
        "NumericalSingularityError", "PeriodicModelError",
    },
    "kernel": {
        "BranchSet", "StructuralConstants", "excursion_gf", "excursion_gf_bf",
        "excursion_gf_vandermonde", "perturbation_identity_residual", "small_branch_u1",
        "small_branches", "solve_boundary_gfs", "structural_constants", "u1_expansion_check",
    },
    "laws": {"FitReport", "LimitLawSpec", "Statistic", "final_altitude_law", "fit", "returns_law"},
    "model": {
        "LaurentPolynomial", "ModelKind", "ValidationReport", "WalkModel", "format_model",
        "load_model", "parse_model", "validate",
    },
}
EXPORTED = set().union(*EXPORTED_FROM.values())
SUBMODULES = ("enumeration", "kernel", "asymptotics", "laws", "verify", "model", "cli")


def test_all_lists_the_exported_names_once():
    assert len(EXPORTED) == 60
    assert sorted(latticepaths.__all__) == sorted(EXPORTED | {"__version__"})


def test_each_export_is_its_modules_object():
    wrong = [name for module, names in EXPORTED_FROM.items() for name in names
             if getattr(latticepaths, name)
             is not getattr(importlib.import_module(f"latticepaths.{module}"), name)]
    assert wrong == []


def test_star_import_and_dir_cover_every_export():
    namespace = {}
    exec("from latticepaths import *", namespace)
    assert EXPORTED | {"__version__"} <= set(namespace)
    assert EXPORTED | set(SUBMODULES) <= set(dir(latticepaths))


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        latticepaths.no_such_name


def test_submodules_resolve_as_attributes():
    for name in SUBMODULES:
        assert getattr(latticepaths, name) is importlib.import_module(f"latticepaths.{name}")
