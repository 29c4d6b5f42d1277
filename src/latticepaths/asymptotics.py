"""Criticality classification and closed-form asymptotic estimates.

Every estimate here is the leading term of a singularity analysis of the
relevant generating function, specialized to aperiodic walks whose only
down jump is -1. The regime is selected by two signs: the drift P'(1) and
the comparison of the boundary weight P0geq(tau) against P(tau). Models
that ``validate`` rejects, periodic models and multi-down models are
rejected up front.

With an absorbing wall a walk alive at length n has not been absorbed yet,
so m_n = (1 - P0geq(1))*(e_n + e_(n+1) + ...); without positive drift
every walk is absorbed and 1 - P0geq(1) = 1/E(1). The meander estimates
there are this tail sum of the excursion estimate and hold no constant of
their own.

With negative drift the final altitude converges in law to a discrete law
with PGF G(u) ~ (P0geq(u) - P(u))/(1 - z0*P(u)), z0 being the excursion
singularity: rho1 when supercritical, rho otherwise, and 1 for a reflecting
wall. The estimate is its mean G'(1) = (delta - delta0geq)/(1 - P0geq(1))
- z0*delta/(z0 - 1), or that expression's limit at z0 = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NotLukasiewiczError, NumericalSingularityError, PeriodicModelError
from .kernel import StructuralConstants, structural_constants
from .model import WalkModel, require_valid


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
    require_valid(model)  # an invalid model is told validate's text first
    if not model.is_aperiodic:
        raise PeriodicModelError(
            f"step polynomial has period {model.period}; asymptotics need period 1"
        )


def require_lukasiewicz(model: WalkModel) -> None:
    require_valid(model)
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


def _classification(model: WalkModel, sc: StructuralConstants) -> Classification:
    crit = {1: Criticality.SUPERCRITICAL, 0: Criticality.CRITICAL, -1: Criticality.SUBCRITICAL}
    return Classification(criticality=crit[sc.sign], drift_sign=drift_sign(model))


def classify(model: WalkModel) -> Classification:
    """(criticality, drift sign) for an aperiodic model."""
    require_aperiodic(model)
    return _classification(model, structural_constants(model))


def _constants_and_class(model: WalkModel) -> tuple[StructuralConstants, Classification]:
    require_aperiodic(model)
    require_lukasiewicz(model)
    sc = structural_constants(model)
    return sc, _classification(model, sc)


def _excursions(sc: StructuralConstants, cls: Classification, n: int) -> AsymptoticEstimate:
    """The excursion estimate of the regime cell (sc, cls)."""
    if cls.criticality is Criticality.SUPERCRITICAL:
        if sc.gamma is None:
            raise NumericalSingularityError("supercritical pole not resolved")
        value = sc.gamma * sc.rho1 ** (-n)
    elif cls.criticality is Criticality.CRITICAL:
        value = (1.0 / sc.kappa) * sc.rho ** (-n) / math.sqrt(math.pi * n)
    else:
        assert sc.E_at_rho is not None
        value = sc.E_at_rho**2 * sc.kappa * sc.rho ** (-n) / (2.0 * math.sqrt(math.pi * n**3))
    return AsymptoticEstimate(n, value, f"excursions/{cls.criticality.value}")


def excursion_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order mass of length-n excursions."""
    sc, cls = _constants_and_class(model)
    if n < 1:
        raise ValueError("asymptotic estimates need n >= 1")
    return _excursions(sc, cls, n)


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
    identically 1 there. An absorbing wall without positive drift gives the
    tail sum of the excursion estimate (module docstring).
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
    e_n = _excursions(sc, cls, n).value
    if cls.drift_sign is DriftSign.ZERO:
        # rho = 1 and e_k ~ k**-1.5, whose tail from n is 2n*e_n; P0geq(1) < 1
        # makes the case subcritical
        return AsymptoticEstimate(n, e_n * 2.0 * n / e1, "meanders/subcritical/zero-drift")
    # e_k falls like z0**-k at the excursion singularity z0
    z0 = sc.rho1 if cls.criticality is Criticality.SUPERCRITICAL else sc.rho
    value = e_n * z0 / ((z0 - 1.0) * e1)
    return AsymptoticEstimate(n, value, f"meanders/{cls.criticality.value}/neg-drift")


def final_altitude_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order expected final altitude of surviving length-n walks."""
    sc, cls = _constants_and_class(model)
    if n < 1:
        raise ValueError("asymptotic estimates need n >= 1")
    ddP1 = float(model.P.derivative().derivative().total_weight())
    if cls.drift_sign is DriftSign.POSITIVE:
        return AsymptoticEstimate(n, sc.delta * n, "final-altitude/positive-drift")
    if model.is_reflection:
        if cls.drift_sign is DriftSign.ZERO:  # critical: P0geq(1) = 1 at tau = 1
            value = math.sqrt(2.0 * ddP1 * n / math.pi)
            return AsymptoticEstimate(n, value, "final-altitude/reflection/critical")
        # negative drift: G'(1) at z0 = 1 (module docstring), which reads
        # the drifts and second derivatives at 1, not the criticality sign
        ddQ1 = float(model.P0geq.derivative().derivative().total_weight())
        value = (sc.delta0geq * ddP1 - sc.delta * ddQ1) / (
            2.0 * sc.delta * (sc.delta - sc.delta0geq)
        )
        return AsymptoticEstimate(n, value, "final-altitude/reflection/supercritical")
    # absorption
    if cls.drift_sign is DriftSign.ZERO:  # subcritical, as for the meanders
        value = math.sqrt(ddP1 * math.pi * n / 2.0)
        return AsymptoticEstimate(n, value, "final-altitude/absorption/subcritical")
    if sc.E_at_1 is None:
        raise NumericalSingularityError("excursion series diverges at z=1")
    # negative drift: G'(1) (module docstring)
    z0 = sc.rho
    if cls.criticality is Criticality.SUPERCRITICAL:
        if abs(sc.rho1 - 1.0) < 1e-9:
            raise NumericalSingularityError("expectation constant degenerate at rho1=1")
        z0 = sc.rho1
    q1 = float(model.P0geq.total_weight())
    value = (sc.delta - sc.delta0geq) / (1.0 - q1) - z0 * sc.delta / (z0 - 1.0)
    formula = f"final-altitude/absorption/{cls.criticality.value}"
    if cls.criticality is Criticality.SUBCRITICAL:
        formula += "/neg-drift"
    return AsymptoticEstimate(n, value, formula)
