"""Limit laws for returns to zero and final altitude, and goodness of fit.

The exact finite-n distribution is always the ground truth here; the limit
statements are hypotheses measured against it with a Kolmogorov sup
distance. Law selection follows the regime tables: returns to zero are
Gaussian / Rayleigh / negative binomial across the supercritical, critical
and subcritical cases, and the final altitude of surviving walks is
discrete / half-normal-or-Rayleigh / Gaussian across drift signs.

A law's params hold what its CDF or normalization reads, plus the
supercritical returns law's two rates: the mean rate gamma and the renewal
variance rate of ``supercritical_returns_variance_rate``. The difference
(Var_4000 - Var_2000)/2000 of the exact returns distribution matches that
variance rate to 1e-6 relative on the supercritical shipped models.

A fit walks the exact CDF once, building one (x, exact CDF, law CDF) row
per support point; the sup distance is taken over those rows, and they are
the rows ``fit --plot`` prints, so plotting costs no second DP. One table,
``_FAMILIES``, gives each law family's CDF at x and whether the family is
continuous. The discrete law has no CDF and is rejected before any DP runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Optional

from .asymptotics import Criticality, DriftSign, _constants, _gamma, _gate, drift_sign
from .enumeration import meander_distribution, returns_to_zero_distribution
from .errors import InconsistentCaseError, LatticePathError, NumericalSingularityError
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

    family: str  # gaussian | rayleigh | half-normal | negbin2 | discrete
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


def negbin2_cdf(lam: float, k: float) -> float:
    if k < 0:
        return 0.0
    return 1.0 - lam ** (k + 1) * ((k + 2) - (k + 1) * lam)


def supercritical_returns_variance_rate(rho1: float, gamma: float, alpha2: float) -> float:
    """Renewal variance rate Var(X_n)/n implied by the arch-size tilt at rho1."""
    return alpha2 * (rho1 * gamma) ** 3 + 3.0 * gamma**2 - 2.0 * gamma**3 - gamma


def returns_law(model: WalkModel) -> LimitLawSpec:
    """Predicted limit law for the number of returns to zero of excursions."""
    _gate(model)
    sc, crit = _constants(model)
    if crit is Criticality.SUPERCRITICAL:
        # rho1 is set under a supercritical sign; alpha2 and gamma are set
        # together, where the pole is resolved
        gamma = _gamma(sc)
        return LimitLawSpec(
            family="gaussian",
            params={
                "mu_rate": gamma,
                "derived_variance_rate": supercritical_returns_variance_rate(
                    sc.rho1, gamma, sc.alpha2
                ),
            },
            normalization=NORM_STANDARDIZED,
        )
    if crit is Criticality.CRITICAL:
        return LimitLawSpec(
            family="rayleigh",
            params={"scale": 1.0, "kappa": sc.kappa},
            normalization=NORM_RETURNS_CRITICAL,
        )
    return LimitLawSpec(
        family="negbin2",
        params={"lam": sc.lam},
        normalization=NORM_SHIFT_ONE,
    )


def final_altitude_law(model: WalkModel) -> LimitLawSpec:
    """Predicted limit law for the final altitude of surviving walks.

    The law reads the drift sign and P''(1) alone, behind the estimates'
    gate, so it takes no ``structural_constants`` solve.
    """
    _gate(model)
    sign = drift_sign(model)
    if sign is DriftSign.POSITIVE:
        return LimitLawSpec(family="gaussian", params={}, normalization=NORM_STANDARDIZED)
    if sign is DriftSign.ZERO:
        scale = math.sqrt(float(model.P.derivative().derivative().total_weight()))
        return LimitLawSpec(
            family="half-normal" if model.is_reflection else "rayleigh",
            params={"scale": scale},
            normalization=NORM_SQRT_N,
        )
    return LimitLawSpec(family="discrete", params={}, normalization=NORM_IDENTITY)


def _distribution_points(model: WalkModel, statistic: Statistic, n: int, mode: str
                         ) -> list[tuple[int, float]]:
    if statistic is Statistic.FINAL_ALTITUDE:
        cond = meander_distribution(model, n, mode).conditional()
        return [(k, float(p)) for k, p in sorted(cond.items())]
    dist = returns_to_zero_distribution(model, n, mode)
    return [(k, float(p)) for k, p in sorted(dist.prob.items())]


# every law family: (its params -> its CDF at x, whether it is continuous)
_FAMILIES: dict[str, tuple[Callable[[Mapping[str, Any]], Callable[[float], float]], bool]] = {
    "gaussian": (lambda params: std_normal_cdf, True),
    "rayleigh": (lambda params: partial(rayleigh_cdf, scale=float(params.get("scale", 1.0))), True),
    "half-normal": (
        lambda params: partial(half_normal_cdf, scale=float(params.get("scale", 1.0))), True),
    "negbin2": (lambda params: partial(negbin2_cdf, float(params["lam"])), False),
}


def _normalizer(law: LimitLawSpec, n: int, points: list[tuple[int, float]], mode: str
                ) -> Callable[[int], float]:
    if law.normalization == NORM_SQRT_N:
        root = math.sqrt(n)
        return lambda k: k / root
    if law.normalization == NORM_RETURNS_CRITICAL:
        kappa = float(law.params["kappa"])
        denom = math.sqrt(2.0 * n)
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


def _cdf_rows(points: list[tuple[int, float]], law: LimitLawSpec, n: int, mode: str
              ) -> list[tuple[float, float, float]]:
    """(x, exact CDF, law CDF) at every support point, in order of k."""
    if not points:
        raise LatticePathError("empty distribution")
    cdf = _FAMILIES[law.family][0](law.params)
    x_of = _normalizer(law, n, points, mode)
    rows = []
    cum = 0.0
    for k, p in points:
        cum += p
        x = x_of(k)
        rows.append((x, cum, cdf(x)))
    return rows


def kolmogorov_distance(rows: list[tuple[float, float, float]], law: LimitLawSpec) -> float:
    """Sup distance between the exact CDF and the law's CDF over the rows.

    A continuous law is compared at both sides of every jump of the exact
    CDF: the left limit is the previous row's exact CDF. Step laws are
    compared at the rows only.
    """
    continuous = _FAMILIES[law.family][1]
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

    The law defaults to the regime's law for the statistic; a family with
    no CDF in ``_FAMILIES``, the discrete law among them, is rejected
    before the DP runs, as is n < 1, where the normalizations divide by
    zero, and a tolerance that is NaN or negative, which no fit passes.
    """
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be a number >= 0, got {tolerance!r}")
    if n < 1:
        raise LatticePathError(f"a fit needs n >= 1, got n={n}")
    if law is None:
        law = (
            returns_law(model)
            if statistic is Statistic.RETURNS_TO_ZERO
            else final_altitude_law(model)
        )
    if law.family not in _FAMILIES:
        if law.family == "discrete":
            raise InconsistentCaseError("the discrete limit law has no closed-form CDF to fit")
        raise LatticePathError(f"no CDF for law family {law.family!r}")
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

