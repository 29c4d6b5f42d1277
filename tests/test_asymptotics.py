"""Regime classification and asymptotic formulas against exact values."""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from latticepaths import (
    Criticality,
    DriftSign,
    NotLukasiewiczError,
    PeriodicModelError,
    arch_asymptotic,
    arch_mass,
    classify,
    excursion_asymptotic,
    excursion_mass,
    final_altitude_asymptotic,
    final_altitude_expectation,
    meander_mass,
    meander_ratio_asymptotic,
    parse_model,
    small_branch_u1,
    structural_constants,
)
from latticepaths.asymptotics import require_lukasiewicz
from latticepaths.kernel import composed_boundary_derivatives


@dataclass(frozen=True)
class BoundaryExpansionReport:
    """Residuals of the local expansion of P0geq(u1(z)) near z=1."""

    case: str  # "sqrt" (rho = 1) or "quadratic" (rho > 1)
    residuals: dict[float, float]
    scaled: dict[float, float]


def boundary_expansion_check(model) -> BoundaryExpansionReport:
    """Check the Puiseux behavior of the composed boundary weight near z=1,
    at eps = 1e-2 and 1e-3.

    With rho = 1 the expansion is P0geq(1) - kappa*sqrt(eps) + O(eps); with
    rho > 1 it is quadratic in eps with an O(eps**3) remainder. Residuals
    are returned raw and scaled by the expected remainder order.
    """
    require_lukasiewicz(model)
    sc = structural_constants(model)
    quadratic = sc.rho > 1.0 + 1e-9
    if quadratic:
        base = float(model.P0geq(small_branch_u1(model, 1.0)))
        a1, a2 = composed_boundary_derivatives(model, 1.0)
    else:
        base = float(model.P0geq.total_weight())
    residuals: dict[float, float] = {}
    scaled: dict[float, float] = {}
    for eps in (1e-2, 1e-3):
        val = float(model.P0geq(small_branch_u1(model, 1.0 - eps)))
        if quadratic:
            residuals[eps] = abs(val - (base - a1 * eps + 0.5 * a2 * eps * eps))
            scaled[eps] = residuals[eps] / eps**3
        else:
            residuals[eps] = abs(val - (base - sc.kappa * math.sqrt(eps)))
            scaled[eps] = residuals[eps] / eps
    return BoundaryExpansionReport("quadratic" if quadratic else "sqrt", residuals, scaled)


def test_classify_examples(models):
    cls = classify(models["motzkin_reflection"])
    assert (cls.criticality, cls.drift_sign) == (Criticality.CRITICAL, DriftSign.ZERO)
    cls = classify(models["motzkin_absorption"])
    assert (cls.criticality, cls.drift_sign) == (Criticality.SUBCRITICAL, DriftSign.ZERO)
    model = parse_model("P: -1:0.5 0:0.2 1:0.3\nP0: -1:0.1 1:0.9\n")
    cls = classify(model)
    assert (cls.criticality, cls.drift_sign) == (Criticality.SUPERCRITICAL, DriftSign.NEGATIVE)


def test_classify_more_regimes(models):
    cls = classify(models["drift_up_absorption"])
    assert (cls.criticality, cls.drift_sign) == (Criticality.SUBCRITICAL, DriftSign.POSITIVE)
    cls = classify(models["drift_down_reflection"])
    assert (cls.criticality, cls.drift_sign) == (Criticality.SUPERCRITICAL, DriftSign.NEGATIVE)


def test_classify_rejects_periodic(models):
    with pytest.raises(PeriodicModelError):
        classify(models["dyck_reflection"])


def test_reflection_regimes_are_forced(models, random_models):
    # zero drift puts a reflecting boundary exactly at criticality and
    # negative drift strictly above it
    for model in list(models.values()) + random_models:
        if not (model.is_reflection and model.is_aperiodic):
            continue
        cls = classify(model)
        if cls.drift_sign is DriftSign.ZERO:
            assert cls.criticality is Criticality.CRITICAL
        if cls.drift_sign is DriftSign.NEGATIVE:
            assert cls.criticality is Criticality.SUPERCRITICAL


def test_absorption_zero_drift_is_subcritical(models, random_models):
    for model in list(models.values()) + random_models:
        if model.is_reflection or not model.is_aperiodic:
            continue
        cls = classify(model)
        if cls.drift_sign is DriftSign.ZERO:
            assert cls.criticality is Criticality.SUBCRITICAL


def test_excursion_asymptotic_critical(models):
    model = models["motzkin_reflection"]
    for n, tol in ((500, 0.05), (2000, 0.02)):
        est = excursion_asymptotic(model, n)
        assert est.formula_id == "excursions/critical"
        exact = excursion_mass(model, n, "float")
        assert exact / est.value == pytest.approx(1.0, abs=tol)


def test_excursion_asymptotic_subcritical(models):
    model = models["motzkin_absorption"]
    est = excursion_asymptotic(model, 1000)
    assert est.formula_id == "excursions/subcritical"
    assert excursion_mass(model, 1000, "float") / est.value == pytest.approx(1.0, abs=0.05)


def test_excursion_asymptotic_supercritical(models):
    model = models["supercritical_drift_down"]
    for n in (500, 1000, 2000):
        est = excursion_asymptotic(model, n)
        assert est.formula_id == "excursions/supercritical"
        assert excursion_mass(model, n, "float") / est.value == pytest.approx(1.0, abs=0.01)


def test_arch_asymptotic(models):
    # exponential factor included: arch mass times rho^n n^(3/2) levels off
    for name in ("motzkin_reflection", "motzkin_absorption"):
        model = models[name]
        est = arch_asymptotic(model, 2000)
        exact = arch_mass(model, 2000, "float")
        assert exact / est.value == pytest.approx(1.0, abs=0.01)
    assert arch_mass(models["motzkin_reflection"], 1) == Fraction(1, 2)


def test_meander_ratio_reflection_is_one(models):
    est = meander_ratio_asymptotic(models["motzkin_reflection"], 17)
    assert est.value == 1.0
    assert meander_mass(models["motzkin_reflection"], 17) == 1


def test_meander_ratio_subcritical_zero_drift(models):
    model = models["motzkin_absorption"]
    for n, tol in ((500, 0.05), (2000, 0.03)):
        est = meander_ratio_asymptotic(model, n)
        assert est.formula_id == "meanders/subcritical/zero-drift"
        assert meander_mass(model, n, "float") / est.value == pytest.approx(1.0, abs=tol)


def test_meander_ratio_positive_drift_limit(models):
    model = models["drift_up_absorption"]
    est = meander_ratio_asymptotic(model, 2000)
    assert est.formula_id == "meanders/positive-drift"
    assert meander_mass(model, 2000, "float") == pytest.approx(est.value, rel=5e-3)


def test_meander_ratio_supercritical(models):
    model = models["supercritical_drift_down"]
    for n in (500, 1000):
        est = meander_ratio_asymptotic(model, n)
        assert meander_mass(model, n, "float") / est.value == pytest.approx(1.0, abs=0.01)


def test_meander_ratio_subcritical_negative_drift():
    # an absorbing boundary with P0 = P: the walk drifts down onto it, and
    # P0geq(tau) < P(tau); the estimate's correction is O(1/n), so the gap
    # to 1 shrinks by about half each time n doubles
    model = parse_model("P: -1:1/2 0:1/4 1:1/4\nP0: -1:1/2 0:1/4 1:1/4\n")
    cls = classify(model)
    assert (cls.criticality, cls.drift_sign) == (Criticality.SUBCRITICAL, DriftSign.NEGATIVE)
    gaps = []
    for n in (1000, 2000):
        est = meander_ratio_asymptotic(model, n)
        assert est.formula_id == "meanders/subcritical/neg-drift"
        gaps.append(abs(meander_mass(model, n, "float") / est.value - 1.0))
    assert gaps[1] < 0.03
    assert gaps[1] < 0.6 * gaps[0]


def test_final_altitude_positive_drift(models):
    for name in ("drift_up_absorption", "drift_up_reflection"):
        model = models[name]
        est = final_altitude_asymptotic(model, 2000)
        assert est.formula_id == "final-altitude/positive-drift"
        exact = float(final_altitude_expectation(model, 2000, "float"))
        assert exact / est.value == pytest.approx(1.0, abs=0.02)


def test_final_altitude_reflection_critical(models):
    model = models["motzkin_reflection"]
    est = final_altitude_asymptotic(model, 2000)
    assert est.value == pytest.approx(math.sqrt(2 * (2 / 3) * 2000 / math.pi), abs=1e-9)
    exact = float(final_altitude_expectation(model, 2000, "float"))
    assert exact / est.value == pytest.approx(1.0, abs=0.03)


def test_final_altitude_absorption_subcritical(models):
    model = models["motzkin_absorption"]
    est = final_altitude_asymptotic(model, 2000)
    assert est.value == pytest.approx(math.sqrt((2 / 3) * math.pi * 2000 / 2), abs=1e-9)
    exact = float(final_altitude_expectation(model, 2000, "float"))
    assert exact / est.value == pytest.approx(1.0, abs=0.03)


def test_final_altitude_reflection_negative_drift_constant(models):
    model = models["drift_down_reflection"]
    est = final_altitude_asymptotic(model, 2000)
    # (delta0*P''(1) + delta*P0geq''(1)) / (2 delta (delta - delta0)) = 15/14
    assert est.value == pytest.approx(15 / 14, abs=1e-12)
    exact = float(final_altitude_expectation(model, 2000, "float"))
    assert exact == pytest.approx(est.value, rel=1e-6)


def test_final_altitude_absorption_negative_drift_constant(models):
    model = models["supercritical_drift_down"]
    est = final_altitude_asymptotic(model, 1000)
    exact = float(final_altitude_expectation(model, 1000, "float"))
    assert exact == pytest.approx(est.value, rel=1e-3)


def test_final_altitude_absorption_subcritical_negative_drift():
    model = parse_model("P: -1:1/2 0:1/5 1:3/10\nP0: -1:7/10 1:3/10\n")
    cls = classify(model)
    assert (cls.criticality, cls.drift_sign) == (Criticality.SUBCRITICAL, DriftSign.NEGATIVE)
    est = final_altitude_asymptotic(model, 5000)
    assert est.formula_id == "final-altitude/absorption/subcritical/neg-drift"
    exact = float(final_altitude_expectation(model, 5000, "float"))
    assert exact == pytest.approx(est.value, rel=0.02)


def test_critical_negative_drift_cells(models):
    # boundary tangent to the bulk exactly: tau = 2, P(tau) = 9/10 = P0geq(tau)
    model = models["critical_drift_down"]
    cls = classify(model)
    assert (cls.criticality, cls.drift_sign) == (Criticality.CRITICAL, DriftSign.NEGATIVE)
    est = excursion_asymptotic(model, 1000)
    assert excursion_mass(model, 1000, "float") / est.value == pytest.approx(1.0, abs=0.01)
    est = meander_ratio_asymptotic(model, 2000)
    assert est.formula_id == "meanders/critical/neg-drift"
    assert meander_mass(model, 2000, "float") / est.value == pytest.approx(1.0, abs=0.01)
    est = final_altitude_asymptotic(model, 2000)
    assert est.formula_id == "final-altitude/absorption/critical"
    assert est.value == pytest.approx(18 / 11, abs=1e-9)
    exact = float(final_altitude_expectation(model, 2000, "float"))
    assert exact / est.value == pytest.approx(1.0, abs=0.02)


def test_impossible_cells_raise(models):
    # an absorbing boundary with zero drift can only be subcritical, so the
    # other two zero-drift cells are unreachable through classify; exercise
    # the guard through the meander table instead, which shares it
    with pytest.raises(PeriodicModelError):
        final_altitude_asymptotic(models["dyck_reflection"], 100)
    with pytest.raises(NotLukasiewiczError):
        final_altitude_asymptotic(models["two_down_reflection"], 100)
    with pytest.raises(NotLukasiewiczError):
        excursion_asymptotic(models["two_down_reflection"], 100)


def test_estimates_are_positive(models):
    for name in ("motzkin_reflection", "motzkin_absorption", "supercritical_drift_down",
                 "drift_up_absorption"):
        model = models[name]
        assert excursion_asymptotic(model, 300).value > 0
        assert arch_asymptotic(model, 300).value > 0
        assert meander_ratio_asymptotic(model, 300).value > 0


def test_reflection_positive_drift_slope(models):
    model = models["drift_up_reflection"]
    exact = float(final_altitude_expectation(model, 2000, "float"))
    assert exact / 2000 == pytest.approx(0.4, abs=0.008)


def test_boundary_expansion_sqrt_case(models):
    rep = boundary_expansion_check(models["motzkin_reflection"])
    assert rep.case == "sqrt"
    assert rep.residuals[1e-2] > rep.residuals[1e-3]
    assert all(s < 2.0 for s in rep.scaled.values())


def test_boundary_expansion_quadratic_case(models):
    rep = boundary_expansion_check(models["supercritical_drift_down"])
    assert rep.case == "quadratic"
    assert rep.residuals[1e-2] > 100 * rep.residuals[1e-3]
    assert all(s < 5e3 for s in rep.scaled.values())


def test_boundary_expansion_rejects_multi_down(models):
    with pytest.raises(NotLukasiewiczError):
        boundary_expansion_check(models["two_down_reflection"])
