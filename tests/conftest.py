"""Shared fixtures: the registry of test models, loaded from models/, and the hypothesis profile."""

from __future__ import annotations

import atexit
import os
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from latticepaths import LaurentPolynomial, WalkModel, format_model, load_model, parse_model

# every run, local or CI, draws the same examples, with no time limit per
# example, and writes no example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
# hypothesis also caches the constants it finds in the tested source under
# its storage directory, ./.hypothesis by default: keep that in a temporary
# directory, removed at exit, unless the user set one
if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    _storage = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(_storage)
    atexit.register(shutil.rmtree, _storage, ignore_errors=True)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

MODEL_NAMES = [
    "dyck_reflection",
    "dyck_absorption",
    "motzkin_reflection",
    "motzkin_absorption",
    "drift_up_absorption",
    "drift_up_reflection",
    "supercritical_drift_down",
    "drift_down_reflection",
    "critical_drift_down",
    "two_down_reflection",
]

# the roster of acceptance models: Dyck both kinds, Motzkin both kinds,
# a positive-drift and a negative-drift supercritical walk, and a c=2 walk
ORACLE_MODEL_NAMES = [
    "dyck_reflection",
    "dyck_absorption",
    "motzkin_reflection",
    "motzkin_absorption",
    "drift_up_absorption",
    "supercritical_drift_down",
    "two_down_reflection",
]


# the Python and numpy versions on which the golden digests of outputs that
# go through numpy's eigenvalue solve (a kernel of degree 4 or more) or
# argparse's layout were taken (test_cli's FRONT_END_SHA256, test_kernel's
# C2_KERNEL_OUTPUTS_SHA256); elsewhere those tests skip. No c <= 3
# boundary system goes through LAPACK
FRONT_END_PLATFORM = ((3, 11), "2.4.6")

# absorbing, negative drift, lam = P0geq(tau)/P(tau) = 1 + 2.2e-7: just
# supercritical, with rho1 within 1e-10 of rho
NEAR_CRITICAL_MODEL = "P: -1:2/5 0:1/2 1:1/10\nP0: -1:5499999/10000000 1:4500001/10000000\n"


# one model in each reachable regime cell (boundary kind, drift sign,
# criticality), by its shipped name or its text. Five keys are absent, since
# no valid aperiodic Lukasiewicz model reaches them: a reflecting wall has
# P0geq(1) = P(1) = 1, so at tau = 1 (zero drift) it is critical and with
# negative drift (tau > 1) supercritical; an absorbing wall has P0geq(1) < 1,
# so with zero drift it is subcritical. The two critical cells with positive
# drift are built on tau = 1/2, where P(1/2) = 9/10 = P0geq(1/2) exactly.
REGIME_CELLS = {
    ("reflection", "positive", "subcritical"): "drift_up_reflection",
    ("reflection", "positive", "critical"): "P: -1:1/10 0:1/2 1:2/5\nP0: 0:4/5 1:1/5\n",
    ("reflection", "positive", "supercritical"): "P: -1:1/9 1:2/9 2:2/3\nP0: 0:2/5 1:3/5\n",
    ("reflection", "zero", "critical"): "motzkin_reflection",
    ("reflection", "negative", "supercritical"): "drift_down_reflection",
    ("absorption", "positive", "subcritical"): "drift_up_absorption",
    ("absorption", "positive", "critical"):
        "P: -1:1/10 0:1/2 1:2/5\nP0: -1:1/20 0:17/20 1:1/10\n",
    ("absorption", "positive", "supercritical"):
        "P: -1:1/13 1:9/13 2:3/13\nP0: -1:3/14 0:3/7 1:5/14\n",
    ("absorption", "zero", "subcritical"): "motzkin_absorption",
    ("absorption", "negative", "subcritical"): "P: -1:1/2 0:1/4 1:1/4\nP0: -1:1/2 0:1/4 1:1/4\n",
    ("absorption", "negative", "critical"): "critical_drift_down",
    ("absorption", "negative", "supercritical"): "supercritical_drift_down",
}


def regime_cell_model(entry: str) -> WalkModel:
    """The model of a ``REGIME_CELLS`` entry."""
    if entry in MODEL_NAMES:
        return load_model(MODELS_DIR / f"{entry}.model")
    return parse_model(entry)


@pytest.fixture(scope="session")
def models() -> dict[str, WalkModel]:
    return {name: load_model(MODELS_DIR / f"{name}.model") for name in MODEL_NAMES}


def fresh_copies(models) -> list[WalkModel]:
    """Each model re-parsed from its text: an equal model that holds none of
    the parts derived on the original, its structural constants and period
    included, as a CLI command's freshly loaded model holds none. A test
    that counts a solve runs on these, since the session fixtures keep
    whatever earlier tests derived."""
    return [parse_model(format_model(model)) for model in models]


def _random_weights(rng: random.Random, exponents: list[int]) -> dict[int, Fraction]:
    nums = [rng.randint(1, 9) for _ in exponents]
    total = sum(nums)
    return {e: Fraction(v, total) for e, v in zip(exponents, nums)}


def random_model(rng: random.Random, *, lukasiewicz: bool = False) -> WalkModel:
    """A random model with exact weights summing to 1 on both lines. Its P0
    may have no positive jump, a boundary that never leaves 0, which
    ``validate`` rejects."""
    c = 1 if lukasiewicz else rng.choice([1, 1, 2, 3])
    d = rng.randint(1, 3)
    exps = [-c, d] + [e for e in range(-c + 1, d) if rng.random() < 0.6]
    p = LaurentPolynomial.from_terms(_random_weights(rng, sorted(set(exps))))
    if rng.random() < 0.5:
        b_exps = sorted({rng.randint(0, d) for _ in range(rng.randint(1, 3))})
    else:
        b_exps = sorted({rng.randint(-c, d) for _ in range(rng.randint(2, 4))})
        if all(e < 0 for e in b_exps):
            b_exps.append(rng.randint(0, d))
    p0 = LaurentPolynomial.from_terms(_random_weights(rng, b_exps))
    return WalkModel(P=p, P0=p0)


@pytest.fixture(scope="session")
def random_models() -> list[WalkModel]:
    rng = random.Random(20140623)
    return [random_model(rng) for _ in range(12)]
