"""Criticality classification and closed-form asymptotic estimates.

Every estimate here is the leading term of a singularity analysis of the
relevant generating function, specialized to aperiodic walks whose only
down jump is -1. The regime is selected by two signs: the drift P'(1) and
the comparison of the boundary weight P0geq(tau) against P(tau). Blank
regime combinations (they cannot occur for the model kind) raise
InconsistentCaseError; periodic or multi-down models are rejected up front.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    InconsistentCaseError,
    NotLukasiewiczError,
    NumericalSingularityError,
    PeriodicModelError,
)
from .kernel import (
    StructuralConstants,
    _altitude_derivative_ratio,
    require_rho1,
    small_branch_u1,
    structural_constants,
)
from .model import WalkModel


class Criticality(enum.Enum):
    SUPERCRITICAL = "supercritical"
    CRITICAL = "critical"
    SUBCRITICAL = "subcritical"


class DriftSign(enum.Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"


@dataclass(frozen=True)
class Classification:
    criticality: Criticality
    drift_sign: DriftSign


@dataclass(frozen=True)
class AsymptoticEstimate:
    n: int
    value: float
    formula_id: str


def require_aperiodic(model: WalkModel) -> None:
    if not model.is_aperiodic:
        raise PeriodicModelError(
            f"step polynomial has period {model.period}; asymptotics need period 1"
        )


def require_lukasiewicz(model: WalkModel) -> None:
    if not model.is_lukasiewicz:
        raise NotLukasiewiczError(
            f"asymptotic formulas cover a single down jump of -1, model has c={model.c}"
        )


def drift_sign(model: WalkModel) -> DriftSign:
    """Sign of P'(1), decided in exact arithmetic: the coefficient sum of P'."""
    delta = model.P.derivative().total_weight()
    if delta > 0:
        return DriftSign.POSITIVE
    if delta < 0:
        return DriftSign.NEGATIVE
    return DriftSign.ZERO


def classify(model: WalkModel, constants: StructuralConstants | None = None) -> Classification:
    """(criticality, drift sign) for an aperiodic model."""
    require_aperiodic(model)
    sc = constants or structural_constants(model)
    crit = (
        Criticality.SUPERCRITICAL
        if sc.sign > 0
        else Criticality.CRITICAL
        if sc.sign == 0
        else Criticality.SUBCRITICAL
    )
    return Classification(criticality=crit, drift_sign=drift_sign(model))


def _constants_and_class(model: WalkModel) -> tuple[StructuralConstants, Classification]:
    require_aperiodic(model)
    require_lukasiewicz(model)
    sc = structural_constants(model)
    return sc, classify(model, sc)


def excursion_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order mass of length-n excursions."""
    sc, cls = _constants_and_class(model)
    if n < 1:
        raise ValueError("asymptotic estimates need n >= 1")
    if cls.criticality is Criticality.SUPERCRITICAL:
        rho1 = require_rho1(sc)
        if sc.gamma is None:
            raise NumericalSingularityError("supercritical pole not resolved")
        value = sc.gamma * rho1 ** (-n)
        return AsymptoticEstimate(n, value, "excursions/supercritical")
    if cls.criticality is Criticality.CRITICAL:
        value = (1.0 / sc.kappa) * sc.rho ** (-n) / math.sqrt(math.pi * n)
        return AsymptoticEstimate(n, value, "excursions/critical")
    assert sc.E_at_rho is not None
    value = sc.E_at_rho**2 * sc.kappa * sc.rho ** (-n) / (2.0 * math.sqrt(math.pi * n**3))
    return AsymptoticEstimate(n, value, "excursions/subcritical")


def arch_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order mass of length-n arches, exponential factor included."""
    sc, _ = _constants_and_class(model)
    if n < 1:
        raise ValueError("asymptotic estimates need n >= 1")
    value = sc.kappa * sc.rho ** (-n) / (2.0 * math.sqrt(math.pi * n**3))
    return AsymptoticEstimate(n, value, "arches")


def meander_ratio_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order surviving mass of length-n walks in the absorption model.

    Reflecting Lukasiewicz boundaries conserve mass, so the ratio is
    identically 1 there.
    """
    sc, cls = _constants_and_class(model)
    if n < 1:
        raise ValueError("asymptotic estimates need n >= 1")
    if model.is_reflection:
        return AsymptoticEstimate(n, 1.0, "meanders/reflection-conserved")
    e1 = sc.E_at_1
    if e1 is None:
        raise NumericalSingularityError("excursion series diverges at z=1")
    if cls.drift_sign is DriftSign.POSITIVE:
        q1 = float(model.P0geq.total_weight())
        return AsymptoticEstimate(n, 1.0 - (1.0 - q1) * e1, "meanders/positive-drift")
    if cls.drift_sign is DriftSign.ZERO:
        if cls.criticality is not Criticality.SUBCRITICAL:
            raise InconsistentCaseError(
                "zero drift forces the subcritical case in the absorption model"
            )
        value = e1 * sc.kappa / math.sqrt(math.pi * n)
        return AsymptoticEstimate(n, value, "meanders/subcritical/zero-drift")
    if cls.criticality is Criticality.SUPERCRITICAL:
        rho1 = require_rho1(sc)
        if sc.gamma is None:
            raise NumericalSingularityError("supercritical pole not resolved")
        value = rho1 * sc.gamma / (e1 * (rho1 - 1.0)) * rho1 ** (-n)
        return AsymptoticEstimate(n, value, "meanders/supercritical/neg-drift")
    if cls.criticality is Criticality.CRITICAL:
        value = (
            sc.rho
            / (e1 * sc.kappa * (sc.rho - 1.0))
            * sc.rho ** (-n)
            / math.sqrt(math.pi * n)
        )
        return AsymptoticEstimate(n, value, "meanders/critical/neg-drift")
    assert sc.E_at_rho is not None
    value = (
        sc.E_at_rho**2
        / e1
        * sc.kappa
        * sc.rho
        / (2.0 * (sc.rho - 1.0))
        * sc.rho ** (-n)
        / math.sqrt(math.pi * n**3)
    )
    return AsymptoticEstimate(n, value, "meanders/subcritical/neg-drift")


def final_altitude_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order expected final altitude of surviving length-n walks."""
    sc, cls = _constants_and_class(model)
    if n < 1:
        raise ValueError("asymptotic estimates need n >= 1")
    ddP1 = float(model.P.derivative().derivative().total_weight())
    if cls.drift_sign is DriftSign.POSITIVE:
        return AsymptoticEstimate(n, sc.delta * n, "final-altitude/positive-drift")
    if model.is_reflection:
        if cls.drift_sign is DriftSign.ZERO:
            if cls.criticality is not Criticality.CRITICAL:
                raise InconsistentCaseError(
                    "zero drift forces the critical case in the reflection model"
                )
            value = math.sqrt(2.0 * ddP1 * n / math.pi)
            return AsymptoticEstimate(n, value, "final-altitude/reflection/critical")
        if cls.criticality is not Criticality.SUPERCRITICAL:
            raise InconsistentCaseError(
                "negative drift forces the supercritical case in the reflection model"
            )
        ddQ1 = float(model.P0geq.derivative().derivative().total_weight())
        value = (sc.delta0geq * ddP1 + sc.delta * ddQ1) / (
            2.0 * sc.delta * (sc.delta - sc.delta0geq)
        )
        return AsymptoticEstimate(n, value, "final-altitude/reflection/supercritical")
    # absorption
    if cls.drift_sign is DriftSign.ZERO:
        if cls.criticality is not Criticality.SUBCRITICAL:
            raise InconsistentCaseError(
                "zero drift forces the subcritical case in the absorption model"
            )
        value = math.sqrt(ddP1 * math.pi * n / 2.0)
        return AsymptoticEstimate(n, value, "final-altitude/absorption/subcritical")
    e1 = sc.E_at_1
    if e1 is None:
        raise NumericalSingularityError("excursion series diverges at z=1")
    if cls.criticality is Criticality.SUPERCRITICAL:
        rho1 = require_rho1(sc)
        if abs(rho1 - 1.0) < 1e-9:
            raise NumericalSingularityError("expectation constant degenerate at rho1=1")
        g = _altitude_derivative_ratio(model, rho1, small_branch_u1(model, rho1), sc.delta,
                                       sc.delta0geq)
        value = (1.0 - 1.0 / rho1) * e1 * g
        return AsymptoticEstimate(n, value, "final-altitude/absorption/supercritical")
    if cls.criticality is Criticality.CRITICAL:
        # coefficient asymptotics of the altitude derivative and of the
        # meander mass both carry 1/kappa, which cancels in the ratio
        g = _altitude_derivative_ratio(model, sc.rho, sc.tau, sc.delta, sc.delta0geq)
        value = (1.0 - 1.0 / sc.rho) * e1 * g
        return AsymptoticEstimate(n, value, "final-altitude/absorption/critical")
    assert sc.E_at_rho is not None and sc.r is not None
    value = sc.r * (1.0 - 1.0 / sc.rho) * e1 / sc.E_at_rho
    return AsymptoticEstimate(n, value, "final-altitude/absorption/subcritical/neg-drift")

