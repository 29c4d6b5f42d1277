"""Regime classification and asymptotic formulas against exact values."""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from latticepaths import (
    Criticality,
    DriftSign,
    NotLukasiewiczError,
    NumericalSingularityError,
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
from latticepaths import asymptotics, laws
from latticepaths.asymptotics import drift_sign, require_lukasiewicz
from latticepaths.kernel import composed_boundary_derivatives
from conftest import NEAR_CRITICAL_MODEL, REGIME_CELLS, random_model, regime_cell_model


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
        u1 = small_branch_u1(model, 1.0)
        base = float(model.P0geq(u1))
        a1, a2 = composed_boundary_derivatives(model, 1.0, u1)
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
    # the meanders are the tail sum of the excursion estimate, whose error
    # falls geometrically here: 1.3e-13 at n = 2000
    est = meander_ratio_asymptotic(model, 2000)
    assert est.formula_id == "meanders/supercritical/neg-drift"
    assert meander_mass(model, 2000, "float") / est.value == pytest.approx(1.0, abs=1e-9)


def test_meander_estimate_raises_where_the_excursion_estimate_raises():
    # lam = 1 + 2.2e-7: rho1 is 1e-14 below rho, too close for the pole
    # constants, and the meanders read them through the excursion estimate
    model = parse_model(NEAR_CRITICAL_MODEL)
    for estimate in (excursion_asymptotic, meander_ratio_asymptotic):
        with pytest.raises(NumericalSingularityError, match="^supercritical pole not resolved$"):
            estimate(model, 100)


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
    # (delta0*P''(1) - delta*P0geq''(1)) / (2 delta (delta - delta0)) = 15/14
    assert est.value == pytest.approx(15 / 14, abs=1e-12)
    exact = float(final_altitude_expectation(model, 2000, "float"))
    assert exact == pytest.approx(est.value, rel=1e-6)


def test_final_altitude_reflection_negative_drift_constant_with_a_curved_boundary():
    # P0geq''(1) = 6/5 != 0, so the sign of its term shows: the limit law's
    # PGF pi_0*(P0geq(u) - P(u))/(1 - P(u)), pi_0 = delta/(delta - delta0),
    # has G'(1) = (delta0*P''(1) - delta*P0geq''(1)) / (2 delta (delta - delta0))
    # = 158/105
    model = parse_model("P: -1:7/10 0:1/5 2:1/10\nP0: 1:2/5 2:3/5\n")
    est = final_altitude_asymptotic(model, 2000)
    assert est.formula_id == "final-altitude/reflection/supercritical"
    assert est.value == pytest.approx(158 / 105, abs=1e-12)
    exact = float(final_altitude_expectation(model, 2000, "float"))
    assert exact / est.value == pytest.approx(1.0, abs=1e-6)


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


def _exact_limit_mean(model, z0):
    """G'(1) for G(u) ~ (P0geq(u) - P(u))/(1 - z0*P(u)), in exact arithmetic:
    both polynomials are cleared of u**-c and divided by (u - 1) while both
    vanish at 1, and G'(1) is then N'(1)/N(1) - D'(1)/D(1)."""
    c = model.c
    width = c + max(model.P.hi, model.P0geq.hi) + 1
    N, D = [Fraction(0)] * width, [Fraction(0)] * width
    D[c] = Fraction(1)
    for e, w in model.P0geq.terms():
        N[e + c] += w
    for e, w in model.P.terms():
        N[e + c] -= w
        D[e + c] -= z0 * w
    while sum(N) == 0 and sum(D) == 0:
        # synthetic division by (u - 1): q_(k-1) = sum of a_j over j >= k
        N = [sum(N[k:]) for k in range(1, len(N))]
        D = [sum(D[k:]) for k in range(1, len(D))]
    return (sum(k * a for k, a in enumerate(N)) / sum(N)
            - sum(k * a for k, a in enumerate(D)) / sum(D))


# the curved reflecting boundary of the test above, the subcritical
# absorbing model of test_final_altitude_absorption_subcritical_negative_drift
# and a subcritical absorbing draw of random_model(random.Random(7))
CURVED_REFLECTION = "P: -1:7/10 0:1/5 2:1/10\nP0: 1:2/5 2:3/5\n"
INLINE_SUBCRITICAL = "P: -1:1/2 0:1/5 1:3/10\nP0: -1:7/10 1:3/10\n"
SUBCRITICAL_DRAW = "P: -1:5/12 0:1/2 2:1/12\nP0: -1:1/2 2:1/2\n"


@pytest.mark.parametrize("name,z0,mean", [
    ("drift_down_reflection", Fraction(1), Fraction(15, 14)),
    pytest.param(CURVED_REFLECTION, Fraction(1), Fraction(158, 105), id="curved-reflection"),
    ("critical_drift_down", Fraction(10, 9), Fraction(18, 11)),
])
def test_final_altitude_mean_exactly(models, name, z0, mean):
    # z0 is rational: 1 with a reflecting wall, rho = 1/P(2) = 10/9 at the
    # critical boundary
    model = models[name] if name in models else parse_model(name)
    assert _exact_limit_mean(model, z0) == mean
    for n in (1, 2000):
        est = final_altitude_asymptotic(model, n)
        assert abs(est.value / float(mean) - 1) <= 1e-14, est


@pytest.mark.parametrize("name,mean", [
    ("supercritical_drift_down", "2.481317235396"),
    pytest.param(INLINE_SUBCRITICAL, "7.158697631922", id="subcritical-absorption"),
    pytest.param(SUBCRITICAL_DRAW, "3.829744868219", id="subcritical-absorption-draw"),
])
def test_final_altitude_mean_at_50_digits(models, name, mean):
    # z0 = rho1 = 1/P(u*) with P0geq(u*) = P(u*) when supercritical, rho =
    # 1/P(tau) with P'(tau) = 0 otherwise; G'(1) is the derivative of the
    # limit PGF's logarithm at 1, taken numerically at 50 digits
    mpmath = pytest.importorskip("mpmath")
    model = models[name] if name in models else parse_model(name)
    cls = classify(model)
    with mpmath.workdps(50):
        def poly(lp, k=0):
            terms = [(e, mpmath.mpf(w.numerator) / w.denominator) for e, w in lp.terms()]
            return lambda u: mpmath.fsum(w * mpmath.ff(e, k) * u ** (e - k) for e, w in terms)

        P, Q = poly(model.P), poly(model.P0geq)
        # with negative drift tau > 1; P0geq - P rises from -inf at 0 to
        # a positive value at tau when supercritical
        tau = mpmath.findroot(poly(model.P, 1), (1, 100), solver="anderson")
        z0 = 1 / P(tau)
        if cls.criticality is Criticality.SUPERCRITICAL:
            u_star = mpmath.findroot(lambda u: Q(u) - P(u), (mpmath.mpf("1e-3"), tau),
                                     solver="anderson")
            assert 0 < u_star < tau
            z0 = 1 / P(u_star)
        limit_mean = mpmath.diff(lambda u: mpmath.log((Q(u) - P(u)) / (1 - z0 * P(u))), 1)
        assert mpmath.nstr(limit_mean, 13) == mean
        for n in (1, 2000):
            value = final_altitude_asymptotic(model, n).value
            assert abs(value / limit_mean - 1) <= 1e-12, (name, value, limit_mean)


def test_final_altitude_estimates_converge_on_random_negative_drift_walks():
    # the 39 aperiodic negative-drift draws among 400 Lukasiewicz ones: 29
    # reflecting, 3 absorbing supercritical and 7 absorbing subcritical; the
    # relative error of the estimate against the float expectation must
    # shrink by 0.7 from n = 500 to 2000 (the slowest, a subcritical draw,
    # shrinks by 0.613) or sit at round-off; NaN, which an underflowed
    # expectation gives, passes neither test
    rng = random.Random(3)
    cells = Counter()
    for model in (random_model(rng, lukasiewicz=True) for _ in range(400)):
        if model.violations or not model.is_aperiodic or drift_sign(model) is not DriftSign.NEGATIVE:
            continue
        est = final_altitude_asymptotic(model, 2000)
        cells[est.formula_id] += 1
        err = {n: abs(float(final_altitude_expectation(model, n, "float")) / est.value - 1)
               for n in (500, 2000)}
        assert err[2000] < 1e-9 or err[2000] <= 0.7 * err[500], (est.formula_id, err,
                                                                  model.P.to_spec_string(),
                                                                  model.P0.to_spec_string())
    assert cells == {"final-altitude/reflection/supercritical": 29,
                     "final-altitude/absorption/supercritical": 3,
                     "final-altitude/absorption/subcritical/neg-drift": 7}


def test_impossible_cells_raise(models):
    # a valid model reaches every regime cell it classifies into; the models
    # that have no cell are rejected before any: periodic ones, and those
    # with a down jump below -1
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


# per regime cell: the formula ids of the excursion, meander and
# final-altitude estimates at n = 2000 (the arch estimate is "arches" in
# every cell), and the families of the returns and final-altitude laws
CELL_OUTCOMES = {
    ("reflection", "positive", "subcritical"): (
        "excursions/subcritical", "meanders/reflection-conserved",
        "final-altitude/positive-drift", "negbin2", "gaussian"),
    ("reflection", "positive", "critical"): (
        "excursions/critical", "meanders/reflection-conserved",
        "final-altitude/positive-drift", "rayleigh", "gaussian"),
    ("reflection", "positive", "supercritical"): (
        "excursions/supercritical", "meanders/reflection-conserved",
        "final-altitude/positive-drift", "gaussian", "gaussian"),
    ("reflection", "zero", "critical"): (
        "excursions/critical", "meanders/reflection-conserved",
        "final-altitude/reflection/critical", "rayleigh", "half-normal"),
    ("reflection", "negative", "supercritical"): (
        "excursions/supercritical", "meanders/reflection-conserved",
        "final-altitude/reflection/supercritical", "gaussian", "discrete"),
    ("absorption", "positive", "subcritical"): (
        "excursions/subcritical", "meanders/positive-drift",
        "final-altitude/positive-drift", "negbin2", "gaussian"),
    ("absorption", "positive", "critical"): (
        "excursions/critical", "meanders/positive-drift",
        "final-altitude/positive-drift", "rayleigh", "gaussian"),
    ("absorption", "positive", "supercritical"): (
        "excursions/supercritical", "meanders/positive-drift",
        "final-altitude/positive-drift", "gaussian", "gaussian"),
    ("absorption", "zero", "subcritical"): (
        "excursions/subcritical", "meanders/subcritical/zero-drift",
        "final-altitude/absorption/subcritical", "negbin2", "rayleigh"),
    ("absorption", "negative", "subcritical"): (
        "excursions/subcritical", "meanders/subcritical/neg-drift",
        "final-altitude/absorption/subcritical/neg-drift", "negbin2", "discrete"),
    ("absorption", "negative", "critical"): (
        "excursions/critical", "meanders/critical/neg-drift",
        "final-altitude/absorption/critical", "rayleigh", "discrete"),
    ("absorption", "negative", "supercritical"): (
        "excursions/supercritical", "meanders/supercritical/neg-drift",
        "final-altitude/absorption/supercritical", "gaussian", "discrete"),
}


def _cell(model):
    cls = classify(model)
    return (model.kind().value, cls.drift_sign.value, cls.criticality.value)


def test_regime_cells_table(models, random_models):
    assert set(CELL_OUTCOMES) == set(REGIME_CELLS)
    for key, entry in REGIME_CELLS.items():
        model = regime_cell_model(entry)
        assert _cell(model) == key, entry
        outcome = (
            excursion_asymptotic(model, 2000).formula_id,
            meander_ratio_asymptotic(model, 2000).formula_id,
            final_altitude_asymptotic(model, 2000).formula_id,
            laws.returns_law(model).family,
            laws.final_altitude_law(model).family,
        )
        assert outcome == CELL_OUTCOMES[key], key
        assert arch_asymptotic(model, 2000).formula_id == "arches"
    # every model the estimates take lands on a key of the table
    rng = random.Random(3)
    draws = [random_model(rng, lukasiewicz=True) for _ in range(400)]
    reached = Counter()
    for model in list(models.values()) + random_models + draws:
        if model.violations or not (model.is_aperiodic and model.is_lukasiewicz):
            continue
        reached[_cell(model)] += 1
    assert set(reached) <= set(REGIME_CELLS), reached


def test_solve_counts(monkeypatch):
    # a cell whose formula reads only coefficient sums makes no kernel
    # solve: the reflecting meander ratio, the final altitude outside an
    # absorbing wall with negative drift, and the final-altitude law; every
    # other estimate and the returns law make exactly one
    calls = []
    solve = asymptotics.structural_constants

    def counted(model):
        calls.append(model)
        return solve(model)

    monkeypatch.setattr(asymptotics, "structural_constants", counted)
    for (kind, sign, _), entry in REGIME_CELLS.items():
        model = regime_cell_model(entry)
        expected = {
            excursion_asymptotic: 1,
            arch_asymptotic: 1,
            meander_ratio_asymptotic: 0 if kind == "reflection" else 1,
            final_altitude_asymptotic: 1 if (kind, sign) == ("absorption", "negative") else 0,
        }
        for estimate, count in expected.items():
            calls.clear()
            estimate(model, 2000)
            assert len(calls) == count, (estimate.__name__, entry)
        for law, count in ((laws.returns_law, 1), (laws.final_altitude_law, 0)):
            calls.clear()
            law(model)
            assert len(calls) == count, (law.__name__, entry)
