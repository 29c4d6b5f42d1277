"""Limit-law selection, CDFs, Kolmogorov fits and moment calibration.

``negbin2_pmf`` and ``calibrated_returns_scaling`` are references kept here:
the package fits through CDFs and fixes the critical time scale at 2.
"""

import math

import pytest

from latticepaths import (
    InconsistentCaseError,
    LatticePathError,
    LimitLawSpec,
    PeriodicModelError,
    Statistic,
    final_altitude_expectation,
    final_altitude_law,
    fit,
    returns_law,
    structural_constants,
)
from latticepaths import laws
from latticepaths.laws import (
    NORM_RETURNS_CRITICAL,
    NORM_SHIFT_ONE,
    fit_curve,
    half_normal_cdf,
    negbin2_cdf,
    rayleigh_cdf,
    std_normal_cdf,
    supercritical_returns_variance_rate,
)
from latticepaths.enumeration import returns_moments
from conftest import MODEL_NAMES


def negbin2_pmf(lam, k):
    """P(K = k) = (k+1) lam**k (1-lam)**2 on k = 0, 1, ..."""
    if k < 0:
        return 0.0
    return (k + 1) * lam**k * (1.0 - lam) ** 2


def calibrated_returns_scaling(model, n):
    """Empirical c in the critical normalization kappa*(X_n-1)/sqrt(c*n).

    Matching the Rayleigh(1) mean sqrt(pi/2) to the measured mean of
    kappa*X_n/sqrt(c*n) gives c = 2 kappa^2 E[X_n]^2 / (pi n); the analytic
    value is 2.
    """
    sc = structural_constants(model)
    mean, _ = returns_moments(model, n, "float")
    return 2.0 * (sc.kappa * float(mean)) ** 2 / (math.pi * n)


def reference_kolmogorov_distance(points, law, n, mode):
    """The three-branch sup distance that ``laws.fit`` must reproduce exactly."""
    if not points:
        raise LatticePathError("empty distribution")
    if law.family == "negbin2":
        lam = float(law.params["lam"])
        shift = 1 if law.normalization == NORM_SHIFT_ONE else 0
        cum = 0.0
        worst = 0.0
        for k, p in points:
            cum += p
            worst = max(worst, abs(cum - negbin2_cdf(lam, k - shift)))
        return worst
    if law.family == "discrete":
        raise InconsistentCaseError("the discrete limit law has no closed-form CDF to fit")
    scale = float(law.params.get("scale", 1.0))
    cdf = {
        "gaussian": std_normal_cdf,
        "rayleigh": lambda x: rayleigh_cdf(x, scale),
        "half-normal": lambda x: half_normal_cdf(x, scale),
    }[law.family]
    x_of = laws._normalizer(law, n, points, mode)
    cum = 0.0
    worst = 0.0
    for k, p in points:
        x = x_of(k)
        worst = max(worst, abs(cum - cdf(x)))
        cum += p
        worst = max(worst, abs(cum - cdf(x)))
    return worst


def _regime_law(model, statistic):
    if statistic is Statistic.RETURNS_TO_ZERO:
        return returns_law(model)
    return final_altitude_law(model)


def test_fit_matches_reference_distance(models):
    checked = 0
    for name in MODEL_NAMES:
        model = models[name]
        for statistic in Statistic:
            try:
                law = _regime_law(model, statistic)
            except LatticePathError:
                continue  # periodic or multi-down: no regime law
            if law.family == "discrete":
                continue
            for n, mode in ((250, "float"), (2000, "float"), (24, "exact")):
                points = laws._distribution_points(model, statistic, n, mode)
                report = fit(model, statistic, n, mode=mode)
                assert report.sup_distance == reference_kolmogorov_distance(points, law, n, mode)
                checked += 1
    assert checked == 11 * 3


def test_law_selection(models):
    # each regime law's family and its exact params keys, so that no
    # unread entry comes back unnoticed
    expected = [
        (returns_law, "motzkin_absorption", "negbin2", {"lam"}),
        (returns_law, "motzkin_reflection", "rayleigh", {"scale", "kappa"}),
        (returns_law, "supercritical_drift_down", "gaussian",
         {"mu_rate", "derived_variance_rate"}),
        (final_altitude_law, "motzkin_reflection", "half-normal", {"scale"}),
        (final_altitude_law, "motzkin_absorption", "rayleigh", {"scale"}),
        (final_altitude_law, "drift_up_absorption", "gaussian", set()),
        (final_altitude_law, "drift_up_reflection", "gaussian", set()),
        (final_altitude_law, "supercritical_drift_down", "discrete", set()),
    ]
    for law_of, name, family, keys in expected:
        law = law_of(models[name])
        assert (law.family, set(law.params)) == (family, keys), name


def test_law_selection_rejects_periodic(models):
    with pytest.raises(PeriodicModelError):
        returns_law(models["dyck_reflection"])
    with pytest.raises(PeriodicModelError):
        final_altitude_law(models["dyck_absorption"])


def test_negbin2_parameters(models):
    law = returns_law(models["motzkin_absorption"])
    assert law.params["lam"] == pytest.approx(2 / 3, abs=1e-14)


def test_negbin2_mass_sums_to_one():
    for lam in (0.1, 0.5, 2 / 3, 0.9):
        total = 0.0
        k = 0
        while True:
            p = negbin2_pmf(lam, k)
            total += p
            if p < 1e-17 and k > 5:
                break
            k += 1
        assert total == pytest.approx(1.0, abs=1e-12)
        # closed-form CDF agrees with the running sum
        assert negbin2_cdf(lam, 10) == pytest.approx(
            sum(negbin2_pmf(lam, j) for j in range(11)), abs=1e-14
        )


def test_cdf_monotone_and_bounded():
    grid = [x / 7.0 for x in range(-30, 60)]
    for cdf in (std_normal_cdf, lambda x: rayleigh_cdf(x, 0.8), lambda x: half_normal_cdf(x, 1.3)):
        vals = [cdf(x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert std_normal_cdf(8.0) == pytest.approx(1.0, abs=1e-12)
    assert rayleigh_cdf(10.0) == pytest.approx(1.0, abs=1e-12)
    assert half_normal_cdf(9.0) == pytest.approx(1.0, abs=1e-12)
    assert rayleigh_cdf(-1.0) == 0.0 and half_normal_cdf(-0.5) == 0.0


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, -1e-300, -math.inf])
def test_fit_refuses_a_nan_or_negative_tolerance_before_the_dp(models, monkeypatch, tolerance):
    def no_dp(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(laws, "_distribution_points", no_dp)
    for statistic in Statistic:
        with pytest.raises(ValueError, match="^tolerance must be a number >= 0, got "):
            fit(models["motzkin_absorption"], statistic, 20, tolerance=tolerance)


def test_fit_final_altitude_rayleigh(models):
    report = fit(models["motzkin_absorption"], Statistic.FINAL_ALTITUDE, 2000)
    assert report.law.family == "rayleigh"
    assert report.sup_distance <= 0.05 and report.passed


def test_fit_final_altitude_half_normal(models):
    report = fit(models["motzkin_reflection"], Statistic.FINAL_ALTITUDE, 2000)
    assert report.law.family == "half-normal"
    assert report.sup_distance <= 0.05 and report.passed


def test_fit_returns_negbin(models):
    report = fit(models["motzkin_absorption"], Statistic.RETURNS_TO_ZERO, 2000)
    assert report.law.family == "negbin2"
    assert report.sup_distance <= 0.05 and report.passed


def test_fit_returns_rayleigh_critical(models):
    report = fit(models["motzkin_reflection"], Statistic.RETURNS_TO_ZERO, 2000)
    assert report.law.family == "rayleigh"
    assert report.law.normalization == NORM_RETURNS_CRITICAL
    assert report.sup_distance <= 0.05 and report.passed


def test_fit_gaussian_cases(models):
    report = fit(models["drift_up_absorption"], Statistic.FINAL_ALTITUDE, 2000)
    assert report.law.family == "gaussian" and report.sup_distance <= 0.05
    report = fit(models["supercritical_drift_down"], Statistic.RETURNS_TO_ZERO, 1000)
    assert report.law.family == "gaussian" and report.sup_distance <= 0.05


def test_fit_distances_shrink(models):
    cases = [
        (models["motzkin_absorption"], Statistic.FINAL_ALTITUDE),
        (models["motzkin_absorption"], Statistic.RETURNS_TO_ZERO),
        (models["motzkin_reflection"], Statistic.FINAL_ALTITUDE),
        (models["motzkin_reflection"], Statistic.RETURNS_TO_ZERO),
    ]
    for model, statistic in cases:
        distances = [fit(model, statistic, n).sup_distance for n in (250, 500, 1000, 2000)]
        assert distances[-1] < distances[0]


def _count_dp_calls(monkeypatch) -> list:
    """The argument tuples of every distribution DP that ``fit`` runs."""
    calls = []
    for name in ("meander_distribution", "returns_to_zero_distribution"):
        dp = getattr(laws, name)
        monkeypatch.setattr(laws, name, lambda *a, dp=dp, **k: calls.append(a) or dp(*a, **k))
    return calls


def test_fit_discrete_law_has_no_cdf(models, monkeypatch):
    calls = _count_dp_calls(monkeypatch)
    for measure in (fit, fit_curve):
        with pytest.raises(InconsistentCaseError, match="no closed-form CDF"):
            measure(models["supercritical_drift_down"], Statistic.FINAL_ALTITUDE, 200)
    # rejected before any DP runs
    assert calls == []


def test_fit_unknown_law_family_raises_before_the_dp(models, monkeypatch):
    calls = _count_dp_calls(monkeypatch)
    law = LimitLawSpec(family="cauchy", params={}, normalization=NORM_SHIFT_ONE)
    for statistic in Statistic:
        with pytest.raises(LatticePathError, match="no CDF for law family 'cauchy'"):
            fit(models["motzkin_reflection"], statistic, 50, law)
    assert calls == []


def test_fit_curve_rows(models):
    for name, statistic, n in (("motzkin_absorption", Statistic.FINAL_ALTITUDE, 400),
                               ("motzkin_reflection", Statistic.RETURNS_TO_ZERO, 30)):
        rows = fit_curve(models[name], statistic, n)
        assert all(0.0 <= fe <= 1.0 + 1e-12 and 0.0 <= fl <= 1.0 for _, fe, fl in rows)
        assert rows[-1][1] == pytest.approx(1.0, abs=1e-9)
        xs = [x for x, _, _ in rows]
        assert xs == sorted(xs)
        # the plotted rows are the ones whose sup distance the fit reports
        report = fit(models[name], statistic, n)
        assert rows == list(report.curve)
        assert laws.kolmogorov_distance(rows, report.law) == report.sup_distance > 0.0


def test_moment_summary_examples(models):
    assert returns_moments(models["dyck_reflection"], 2, "exact") == (1, 0)
    mean = final_altitude_expectation(models["drift_up_absorption"], 2000, "float")
    assert mean / 2000 == pytest.approx(0.4, abs=0.008)
    law = returns_law(models["supercritical_drift_down"])
    slope = (
        returns_moments(models["supercritical_drift_down"], 1500, "float")[0]
        - returns_moments(models["supercritical_drift_down"], 1000, "float")[0]
    ) / 500
    assert slope == pytest.approx(law.params["mu_rate"], rel=1e-3)


def test_supercritical_sigma_adjudication(models):
    # the variance is the derived rate times n plus a constant (ROADMAP U),
    # so the difference of two variances reads the rate: it matches to
    # 3.1e-11 and 1.1e-12 relative, where the paper's printed expression is
    # 3.7e-4 off on supercritical_drift_down
    for name in ("supercritical_drift_down", "drift_down_reflection"):
        model = models[name]
        _, v1 = returns_moments(model, 2000, "float")
        _, v2 = returns_moments(model, 4000, "float")
        slope = (v2 - v1) / 2000
        rate = returns_law(model).params["derived_variance_rate"]
        assert slope == pytest.approx(rate, rel=1e-6), name


def test_critical_scaling_calibration(models):
    # the sqrt(c n) family calibrates to c = 2 at the analytic normalization
    c_hat = calibrated_returns_scaling(models["motzkin_reflection"], 2000)
    assert c_hat == pytest.approx(2.0, abs=0.1)
    c_far = calibrated_returns_scaling(models["motzkin_reflection"], 500)
    c_near = calibrated_returns_scaling(models["motzkin_reflection"], 4000)
    assert abs(c_near - 2.0) < abs(c_far - 2.0)


def test_returns_law_hypothesis_adjudication(models):
    # for the zero-drift absorption walk the negative binomial fits the
    # returns counts and the Rayleigh-style normalization does not
    model = models["motzkin_absorption"]
    negbin = fit(model, Statistic.RETURNS_TO_ZERO, 2000)
    sc_kappa = returns_law(models["motzkin_reflection"]).params["kappa"]
    rayleigh = LimitLawSpec(
        family="rayleigh",
        params={"scale": 1.0, "kappa": sc_kappa},
        normalization=NORM_RETURNS_CRITICAL,
    )
    forced = fit(model, Statistic.RETURNS_TO_ZERO, 2000, law=rayleigh)
    assert negbin.sup_distance < forced.sup_distance
    # and the Rayleigh does fit the final altitude of the same walk
    assert fit(model, Statistic.FINAL_ALTITUDE, 2000).sup_distance <= 0.05


def test_variance_rate_formula_consistency():
    assert supercritical_returns_variance_rate(1.0, 0.5, 0.0) == pytest.approx(
        3 * 0.25 - 2 * 0.125 - 0.5
    )
