"""Criticality classification and closed-form asymptotic estimates.

Every estimate here is the leading term of a singularity analysis of the
relevant generating function, specialized to aperiodic walks whose only
down jump is -1. The regime is selected by two signs: the drift P'(1) and
the comparison of the boundary weight P0geq(tau) against P(tau). Models
that ``validate`` rejects, periodic models and multi-down models are
rejected up front by the one gate of every estimate and limit law. A cell
reads at most one ``structural_constants`` record, which the model solves
once and keeps, and none where its formula reads only exact coefficient
sums: the reflecting meander ratio, and the final altitude in every cell
but an absorbing wall with negative drift.

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


# the kernel's criticality sign (+1, 0, -1) to its class
_CRITICALITY = dict(zip((1, 0, -1), Criticality))


def classify(model: WalkModel) -> Classification:
    """(criticality, drift sign) for an aperiodic model."""
    require_aperiodic(model)
    return Classification(_constants(model)[1], drift_sign(model))


def _gate(model: WalkModel, n: int = 1) -> None:
    """The one gate of the estimates at length n and the limit laws (no n):
    an aperiodic model whose only down jump is -1, and n >= 1."""
    require_aperiodic(model)
    require_lukasiewicz(model)
    if n < 1:
        raise ValueError("asymptotic estimates need n >= 1")


def _constants(model: WalkModel) -> tuple[StructuralConstants, Criticality]:
    """The kernel constants of a regime cell, solved once per model, and
    the criticality they decide."""
    sc = structural_constants(model)
    return sc, _CRITICALITY[sc.sign]


def _gamma(sc: StructuralConstants) -> float:
    """The residue weight of the supercritical excursion pole, read by the
    excursion estimate and the returns law."""
    if sc.gamma is None:
        raise NumericalSingularityError("supercritical pole not resolved")
    return sc.gamma


def _absorbed(model: WalkModel, sc: StructuralConstants, crit: Criticality
              ) -> tuple[float, float, float]:
    """(E(1), P0geq(1), excursion singularity z0) of an absorbing wall,
    read by the meander and final-altitude estimates."""
    if sc.E_at_1 is None:
        raise NumericalSingularityError("excursion series diverges at z=1")
    z0 = sc.rho1 if crit is Criticality.SUPERCRITICAL else sc.rho
    return sc.E_at_1, float(model.P0geq.total_weight()), z0


def _excursions(sc: StructuralConstants, crit: Criticality, n: int) -> AsymptoticEstimate:
    """The excursion estimate of the regime cell (sc, crit)."""
    if crit is Criticality.SUPERCRITICAL:
        value = _gamma(sc) * sc.rho1 ** (-n)
    elif crit is Criticality.CRITICAL:
        value = (1.0 / sc.kappa) * sc.rho ** (-n) / math.sqrt(math.pi * n)
    else:  # c = 1 and sign < 0, where structural_constants sets E_at_rho
        value = sc.E_at_rho**2 * sc.kappa * sc.rho ** (-n) / (2.0 * math.sqrt(math.pi * n**3))
    return AsymptoticEstimate(n, value, f"excursions/{crit.value}")


def excursion_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order mass of length-n excursions."""
    _gate(model, n)
    return _excursions(*_constants(model), n)


def arch_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order mass of length-n arches, exponential factor included."""
    _gate(model, n)
    sc = structural_constants(model)
    value = sc.kappa * sc.rho ** (-n) / (2.0 * math.sqrt(math.pi * n**3))
    return AsymptoticEstimate(n, value, "arches")


def meander_ratio_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order surviving mass of length-n walks in the absorption model.

    Reflecting Lukasiewicz boundaries conserve mass, so the ratio is
    identically 1 there. An absorbing wall without positive drift gives the
    tail sum of the excursion estimate (module docstring).
    """
    _gate(model, n)
    if model.is_reflection:
        return AsymptoticEstimate(n, 1.0, "meanders/reflection-conserved")
    sc, crit = _constants(model)
    e1, q1, z0 = _absorbed(model, sc, crit)
    sign = drift_sign(model)
    if sign is DriftSign.POSITIVE:
        return AsymptoticEstimate(n, 1.0 - (1.0 - q1) * e1, "meanders/positive-drift")
    e_n = _excursions(sc, crit, n).value
    if sign is DriftSign.ZERO:
        # rho = 1 and e_k ~ k**-1.5, whose tail from n is 2n*e_n; P0geq(1) < 1
        # makes the case subcritical
        return AsymptoticEstimate(n, e_n * 2.0 * n / e1, "meanders/subcritical/zero-drift")
    # e_k falls like z0**-k at the excursion singularity z0
    value = e_n * z0 / ((z0 - 1.0) * e1)
    return AsymptoticEstimate(n, value, f"meanders/{crit.value}/neg-drift")


def final_altitude_asymptotic(model: WalkModel, n: int) -> AsymptoticEstimate:
    """Leading-order expected final altitude of surviving length-n walks."""
    _gate(model, n)
    sign = drift_sign(model)
    dP = model.P.derivative()
    delta = float(dP.total_weight())
    if sign is DriftSign.POSITIVE:
        return AsymptoticEstimate(n, delta * n, "final-altitude/positive-drift")
    ddP1 = float(dP.derivative().total_weight())
    if model.is_reflection:
        if sign is DriftSign.ZERO:  # critical: P0geq(1) = 1 at tau = 1
            value = math.sqrt(2.0 * ddP1 * n / math.pi)
            return AsymptoticEstimate(n, value, "final-altitude/reflection/critical")
        # negative drift: G'(1) at z0 = 1 (module docstring), which reads
        # the drifts and second derivatives at 1, not the criticality sign
        dQ = model.P0geq.derivative()
        delta0 = float(dQ.total_weight())
        ddQ1 = float(dQ.derivative().total_weight())
        value = (delta0 * ddP1 - delta * ddQ1) / (2.0 * delta * (delta - delta0))
        return AsymptoticEstimate(n, value, "final-altitude/reflection/supercritical")
    # absorption
    if sign is DriftSign.ZERO:  # subcritical, as for the meanders
        value = math.sqrt(ddP1 * math.pi * n / 2.0)
        return AsymptoticEstimate(n, value, "final-altitude/absorption/subcritical")
    # negative drift: G'(1) (module docstring), the one cell that reads
    # kernel constants
    sc, crit = _constants(model)
    _, q1, z0 = _absorbed(model, sc, crit)
    if crit is Criticality.SUPERCRITICAL and abs(z0 - 1.0) < 1e-9:
        raise NumericalSingularityError("expectation constant degenerate at rho1=1")
    value = (delta - sc.delta0geq) / (1.0 - q1) - z0 * delta / (z0 - 1.0)
    formula = f"final-altitude/absorption/{crit.value}"
    if crit is Criticality.SUBCRITICAL:
        formula += "/neg-drift"
    return AsymptoticEstimate(n, value, formula)
