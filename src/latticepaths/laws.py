"""Limit laws for returns to zero and final altitude, and goodness of fit.

The exact finite-n distribution is always the ground truth here; the limit
statements are hypotheses measured against it with a Kolmogorov sup
distance. Law selection follows the regime tables: returns to zero are
Gaussian / Rayleigh / negative binomial across the supercritical, critical
and subcritical cases, and the final altitude of surviving walks is
discrete / half-normal-or-Rayleigh / Gaussian across drift signs.

A fit walks the exact CDF once, building one (x, exact CDF, law CDF) row
per support point; the sup distance is taken over those rows, and they are
the rows ``fit --plot`` prints, so plotting costs no second DP. The
discrete law has no CDF and is rejected before any DP runs.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .asymptotics import Criticality, DriftSign, _constants_and_class
from .enumeration import (
    meander_distribution,
    returns_moments,
    returns_to_zero_distribution,
)
from .errors import InconsistentCaseError, LatticePathError, NumericalSingularityError
from .kernel import structural_constants
from .model import WalkModel


class Statistic(enum.Enum):
    RETURNS_TO_ZERO = "returns"
    FINAL_ALTITUDE = "final-alt"


NORM_IDENTITY = "X_n"
NORM_SHIFT_ONE = "X_n - 1"
NORM_SQRT_N = "X_n / sqrt(n)"
NORM_STANDARDIZED = "(X_n - mean_n) / sd_n"
NORM_RETURNS_CRITICAL = "kappa * (X_n - 1) / sqrt(2 n)"


@dataclass(frozen=True)
class LimitLawSpec:
    """A limit law plus the finite-n normalization that should reach it."""

    family: str  # gaussian | rayleigh | half-normal | negbin2 | discrete | empirical
    params: Mapping[str, Any]
    normalization: str


@dataclass(frozen=True)
class FitReport:
    statistic: Statistic
    n: int
    law: LimitLawSpec
    sup_distance: float
    tolerance: float
    passed: bool
    curve: tuple[tuple[float, float, float], ...] = field(repr=False)


def std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def rayleigh_cdf(x: float, scale: float = 1.0) -> float:
    if x <= 0.0:
        return 0.0
    return 1.0 - math.exp(-x * x / (2.0 * scale * scale))


def half_normal_cdf(x: float, scale: float = 1.0) -> float:
    if x <= 0.0:
        return 0.0
    return math.erf(x / (scale * math.sqrt(2.0)))


def negbin2_pmf(lam: float, k: int) -> float:
    """P(K = k) = (k+1) lam**k (1-lam)**2 on k = 0, 1, ..."""
    if k < 0:
        return 0.0
    return (k + 1) * lam**k * (1.0 - lam) ** 2


def negbin2_cdf(lam: float, k: int) -> float:
    if k < 0:
        return 0.0
    return 1.0 - lam ** (k + 1) * ((k + 2) - (k + 1) * lam)


def supercritical_returns_variance_rate(rho1: float, gamma: float, alpha2: float) -> float:
    """Renewal variance rate Var(X_n)/n implied by the arch-size tilt at rho1."""
    return alpha2 * (rho1 * gamma) ** 3 + 3.0 * gamma**2 - 2.0 * gamma**3 - gamma


def returns_law(model: WalkModel) -> LimitLawSpec:
    """Predicted limit law for the number of returns to zero of excursions."""
    sc, cls = _constants_and_class(model)
    if cls.criticality is Criticality.SUPERCRITICAL:
        assert sc.rho1 is not None and sc.gamma is not None and sc.alpha2 is not None
        printed = (
            sc.alpha2 * (sc.rho1 * sc.gamma) ** 3
            - sc.gamma
            + sc.gamma**2 * (sc.rho1 + 2.0)
            - 2.0 * sc.gamma**3
        )
        return LimitLawSpec(
            family="gaussian",
            params={
                "mu_rate": sc.gamma,
                "printed_sigma_expression": printed,
                "derived_variance_rate": supercritical_returns_variance_rate(
                    sc.rho1, sc.gamma, sc.alpha2
                ),
                "rho1": sc.rho1,
            },
            normalization=NORM_STANDARDIZED,
        )
    if cls.criticality is Criticality.CRITICAL:
        return LimitLawSpec(
            family="rayleigh",
            params={
                "scale": 1.0,
                "kappa": sc.kappa,
                "time_scale": 2.0,
                "printed_normalization": "kappa / sqrt(2 pi) * (X_n - 1)",
            },
            normalization=NORM_RETURNS_CRITICAL,
        )
    return LimitLawSpec(
        family="negbin2",
        params={"lam": sc.lam},
        normalization=NORM_SHIFT_ONE,
    )


def final_altitude_law(model: WalkModel) -> LimitLawSpec:
    """Predicted limit law for the final altitude of surviving walks."""
    sc, cls = _constants_and_class(model)
    ddP1 = float(model.P.derivative().derivative().total_weight())
    if cls.drift_sign is DriftSign.POSITIVE:
        return LimitLawSpec(
            family="gaussian",
            params={"mean_rate": sc.delta},
            normalization=NORM_STANDARDIZED,
        )
    if cls.drift_sign is DriftSign.ZERO:
        scale = math.sqrt(ddP1)
        if model.is_reflection:
            return LimitLawSpec(
                family="half-normal",
                params={"scale": scale},
                normalization=NORM_SQRT_N,
            )
        return LimitLawSpec(
            family="rayleigh",
            params={"scale": scale},
            normalization=NORM_SQRT_N,
        )
    return LimitLawSpec(family="discrete", params={}, normalization=NORM_IDENTITY)


def empirical_law(points: Mapping[int, Any]) -> LimitLawSpec:
    """Freeze a distribution into a law usable as a fit target (self-fits)."""
    cum = 0.0
    table = []
    for k in sorted(points):
        cum += float(points[k])
        table.append((k, cum))
    return LimitLawSpec(
        family="empirical",
        params={"cdf_points": tuple(table)},
        normalization=NORM_IDENTITY,
    )


def _distribution_points(model: WalkModel, statistic: Statistic, n: int, mode: str
                         ) -> list[tuple[int, float]]:
    if statistic is Statistic.FINAL_ALTITUDE:
        cond = meander_distribution(model, n, mode).conditional()
        return [(k, float(p)) for k, p in sorted(cond.items())]
    dist = returns_to_zero_distribution(model, n, mode)
    return [(k, float(p)) for k, p in sorted(dist.prob.items())]


# the continuous families, as (x, scale) -> CDF at x
_CONTINUOUS_CDF: dict[str, Callable[[float, float], float]] = {
    "gaussian": lambda x, scale: std_normal_cdf(x),
    "rayleigh": rayleigh_cdf,
    "half-normal": half_normal_cdf,
}


def _normalizer(law: LimitLawSpec, n: int, points: list[tuple[int, float]], mode: str
                ) -> Callable[[int], float]:
    if law.normalization == NORM_SQRT_N:
        root = math.sqrt(n)
        return lambda k: k / root
    if law.normalization == NORM_RETURNS_CRITICAL:
        kappa = float(law.params["kappa"])
        time_scale = float(law.params.get("time_scale", 2.0))
        denom = math.sqrt(time_scale * n)
        return lambda k: kappa * (k - 1) / denom
    if law.normalization == NORM_STANDARDIZED:
        mean = sum(k * p for k, p in points)
        var = sum(k * k * p for k, p in points) - mean * mean
        if var <= 0.0:
            # an exact point mass is the model's; a float one is a float DP
            # that lost the distribution
            error = LatticePathError if mode == "exact" else NumericalSingularityError
            raise error("degenerate distribution: zero variance")
        sd = math.sqrt(var)
        return lambda k: (k - mean) / sd
    if law.normalization == NORM_SHIFT_ONE:
        return lambda k: float(k - 1)
    return lambda k: float(k)


def _law_at(law: LimitLawSpec, n: int, points: list[tuple[int, float]], mode: str
            ) -> Callable[[int], tuple[float, float]]:
    """k -> (x, law CDF at x) for a support point k of the distribution."""
    if law.family == "negbin2":
        lam = float(law.params["lam"])
        shift = 1 if law.normalization == NORM_SHIFT_ONE else 0
        return lambda k: (float(k - shift), negbin2_cdf(lam, k - shift))
    if law.family == "empirical":
        table = sorted(law.params["cdf_points"])
        keys = [k for k, _ in table]

        def empirical_at(k: int) -> tuple[float, float]:
            i = bisect.bisect_right(keys, k)
            return float(k), table[i - 1][1] if i else 0.0

        return empirical_at
    cdf = _CONTINUOUS_CDF.get(law.family)
    if cdf is None:
        raise LatticePathError(f"no continuous CDF for law family {law.family!r}")
    scale = float(law.params.get("scale", 1.0))
    x_of = _normalizer(law, n, points, mode)

    def continuous_at(k: int) -> tuple[float, float]:
        x = x_of(k)
        return x, cdf(x, scale)

    return continuous_at


def _cdf_rows(points: list[tuple[int, float]], law: LimitLawSpec, n: int, mode: str
              ) -> list[tuple[float, float, float]]:
    """(x, exact CDF, law CDF) at every support point, in order of k.

    An empirical law's rows run over the union of the distribution's
    support and the table's, so both step functions are compared at every
    jump of either.
    """
    if not points:
        raise LatticePathError("empty distribution")
    at = _law_at(law, n, points, mode)
    if law.family == "empirical":
        extra = {k for k, _ in law.params["cdf_points"]} - {k for k, _ in points}
        points = sorted([*points, *((k, 0.0) for k in extra)])
    rows = []
    cum = 0.0
    for k, p in points:
        cum += p
        x, law_cdf = at(k)
        rows.append((x, cum, law_cdf))
    return rows


def kolmogorov_distance(rows: list[tuple[float, float, float]], law: LimitLawSpec) -> float:
    """Sup distance between the exact CDF and the law's CDF over the rows.

    A continuous law is compared at both sides of every jump of the exact
    CDF: the left limit is the previous row's exact CDF. Step laws are
    compared at the rows only.
    """
    continuous = law.family in _CONTINUOUS_CDF
    worst = 0.0
    left = 0.0
    for _, exact, at_law in rows:
        if continuous:
            worst = max(worst, abs(left - at_law))
        worst = max(worst, abs(exact - at_law))
        left = exact
    return worst


def fit(
    model: WalkModel,
    statistic: Statistic,
    n: int,
    law: Optional[LimitLawSpec] = None,
    mode: str = "float",
    tolerance: float = 0.05,
) -> FitReport:
    """Measure the exact length-n distribution against a limit law.

    The law defaults to the regime's law for the statistic; the discrete
    law has no CDF and is rejected before the DP runs, as is n < 1, where
    the normalizations divide by zero.
    """
    if n < 1:
        raise LatticePathError(f"a fit needs n >= 1, got n={n}")
    if law is None:
        law = (
            returns_law(model)
            if statistic is Statistic.RETURNS_TO_ZERO
            else final_altitude_law(model)
        )
    if law.family == "discrete":
        raise InconsistentCaseError("the discrete limit law has no closed-form CDF to fit")
    rows = _cdf_rows(_distribution_points(model, statistic, n, mode), law, n, mode)
    distance = kolmogorov_distance(rows, law)
    return FitReport(
        statistic=statistic,
        n=n,
        law=law,
        sup_distance=distance,
        tolerance=tolerance,
        passed=distance <= tolerance,
        curve=tuple(rows),
    )


def fit_curve(
    model: WalkModel,
    statistic: Statistic,
    n: int,
    law: Optional[LimitLawSpec] = None,
    mode: str = "float",
) -> list[tuple[float, float, float]]:
    """(x, exact CDF, law CDF) rows at the support points, for plotting.

    These are the rows whose sup distance ``fit`` reports.
    """
    return list(fit(model, statistic, n, law, mode).curve)


def moment_summary(model: WalkModel, statistic: Statistic, n: int, mode: str = "float"):
    """(mean, variance) of the exact length-n distribution of the statistic."""
    if statistic is Statistic.FINAL_ALTITUDE:
        cond = meander_distribution(model, n, mode).conditional()
        mean = sum(k * p for k, p in cond.items())
        var = sum(k * k * p for k, p in cond.items()) - mean * mean
        return mean, var
    return returns_moments(model, n, mode)


def calibrated_returns_scaling(model: WalkModel, n: int) -> float:
    """Empirical c in the critical normalization kappa*(X_n-1)/sqrt(c*n).

    Matching the Rayleigh(1) mean sqrt(pi/2) to the measured mean of
    kappa*X_n/sqrt(c*n) gives c = 2 kappa^2 E[X_n]^2 / (pi n); the analytic
    value is 2.
    """
    sc = structural_constants(model)
    mean, _ = returns_moments(model, n, "float")
    return 2.0 * (sc.kappa * float(mean)) ** 2 / (math.pi * n)
