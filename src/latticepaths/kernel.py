"""Numerical kernel method for boundary walk models.

The kernel equation 1 - z*P(u) = 0 has c+d roots; the c of smallest modulus
(the small branches, all vanishing as z -> 0) eliminate the unknown boundary
series from the functional equation. This module finds the branches with
one eigenvalue solve of the kernel polynomial's companion matrix plus Newton
refinement, takes the boundary generating functions from E(z)'s closed
form when c = 1 and from the resulting c x c linear system otherwise,
evaluates the closed product formula of the boundary-free model, and
derives the structural constants that drive every asymptotic regime.

Every boundary quantity at z (the F_k, E(z), the boundary-free product,
the Vandermonde form and the perturbation identity) reads the same c
branches, so each takes an optional ``BranchSet`` solved at that z and
then makes no solve of its own: one companion solve per z serves them all.

The excursion pole rho1 is found in the branch variable: on (0, rho) the
real small branch satisfies z = 1/P(u1(z)), so the boundary denominator
1 - z*P0geq(u1(z)) vanishes exactly where P0geq(u) = P(u). Its root u* on
(0, tau) is a root of a Laurent polynomial, found without any branch
solve, and rho1 = 1/P(u*); u* is also the small branch at rho1 from which
alpha and alpha2 are derived, so the branch is not solved again there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BranchDegenerateError, NumericalSingularityError
from .model import LaurentPolynomial, WalkModel, require_valid

ROOT_RESIDUAL_TOL = 1e-12
ROOT_REL_WIDTH = 1e-13


def _is_real(v: complex) -> bool:
    """Whether v is real up to round-off: |Im v| <= 1e-8*(1 + |Re v|)."""
    return abs(v.imag) <= 1e-8 * (1.0 + abs(v.real))


def _real(v: complex, what: str, z: complex) -> float:
    """Re v, for a value at real z that must be real (``_is_real``)."""
    if not _is_real(v):
        raise NumericalSingularityError(f"non-real {what} {v} at z={z}")
    return float(v.real)


@dataclass(frozen=True)
class BranchSet:
    """The c small-modulus roots of 1 - z*P(u) = 0, sorted by modulus."""

    z: complex
    branches: tuple[complex, ...]
    residuals: tuple[float, ...]

    @property
    def u1(self) -> float:
        """The real positive branch (exists for real z in (0, rho])."""
        candidates = [b.real for b in self.branches if _is_real(b) and b.real > 0]
        if len(candidates) != 1:
            raise NumericalSingularityError(
                f"expected one real positive small branch at z={self.z}, got {candidates}"
            )
        return candidates[0]


def _kernel_coeffs(model: WalkModel, z: complex) -> list[complex]:
    """Coefficients (descending degree) of u**c - z * u**c * P(u); an absent
    jump subtracts an exact 0."""
    coeffs = [0j] * (model.c + model.d + 1)
    coeffs[model.c] += 1.0
    for k, p in enumerate(model.P.float_coeffs):
        coeffs[k] -= z * p
    return coeffs[::-1]


def _companion_roots(coeffs: list[complex]) -> list[complex]:
    """Roots of the polynomial with descending coefficients ``coeffs``.

    Zero end coefficients are trimmed as ``np.roots`` trims them (a trailing
    zero is a root at 0), and the companion matrix is the one it builds:
    first row -p[1:]/p[0], divided by numpy, and ones on the subdiagonal.
    The eigenvalue call is the same, so the roots are the same to the last
    bit. The end coefficients are -z times the weights of the deepest and
    highest jumps, 0 only when that product underflows.
    """
    nonzero = [i for i, v in enumerate(coeffs) if v]
    first, last = nonzero[0], nonzero[-1]
    p = coeffs[first : last + 1]
    m = len(p) - 1
    roots: list[complex] = []
    if m:
        companion = np.zeros((m, m), dtype=complex)
        row = [-v for v in p[1:]]
        if abs(p[0]) > 1e-290:
            np.divide(row, p[0], out=companion[0])
        else:
            # p[0] is -z times P's top weight: this small (at subnormal z)
            # the quotients overflow, eigvals rejects the inf/NaN matrix and
            # small_branches reports it, so numpy need not warn as well.
            # errstate costs about a tenth of a solve, hence the branch
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                np.divide(row, p[0], out=companion[0])
        companion.flat[m :: m + 1] = 1.0  # the subdiagonal
        roots = np.linalg.eigvals(companion).tolist()
    return roots + [0j] * (len(coeffs) - 1 - last)


def _refine_root(z: complex, u: complex, P: LaurentPolynomial, dP: LaurentPolynomial
                 ) -> tuple[complex, complex]:
    """Newton steps on f(u) = 1 - z*P(u), with f'(u) = -z*P'(u); small
    branches are never 0. Newton stops before a step that is not finite:
    at tiny z, P's Horner overflows at a large root (3e155 at z = 1e-155 on
    the Motzkin walk), and the root is kept as the companion solve gave it.

    Returns (u, f(u)) at the root Newton stops at. P and its derivative dP
    are evaluated by their own Horner (``LaurentPolynomial.__call__``), so
    f(u) is the residual that ``small_branches`` accepts or rejects; only
    after the last of the 60 steps, which moves u past its last f, is f
    evaluated once more.
    """
    floor = _branch_residual_floor(z)
    for _ in range(60):
        fx = 1.0 - z * P(u)
        if abs(fx) < floor:
            return u, fx
        dfx = -z * dP(u)
        if dfx == 0:
            return u, fx
        nxt = u - fx / dfx
        if nxt == u or not cmath.isfinite(nxt):
            return u, fx
        u = nxt
    return u, 1.0 - z * P(u)


def _branch_residual_floor(z: complex) -> float:
    return 1e-15 * (1.0 + abs(z))


def small_branches(model: WalkModel, z: complex) -> BranchSet:
    """Find the c small branches of the kernel equation at z.

    Roots come from the companion matrix of the cleared-denominator kernel
    polynomial and are refined by Newton iteration on P's Horner
    (``_refine_root``); each is accepted when its residual |1 - z*P(u)|,
    Newton's last evaluation at the root it stops at, is at most
    ``ROOT_RESIDUAL_TOL``. A collision between the c-th and (c+1)-th
    modulus is tolerated only for real z at the point where the real
    branches merge (the square-root singularity); elsewhere it means z left
    the disk of analyticity and is reported as degenerate. A z so small
    that the companion solve loses the small branches raises
    ``NumericalSingularityError``. A model that ``validate`` rejects raises
    ``InvalidModelError`` with its text.
    """
    require_valid(model)
    if z == 0:
        raise ValueError("z must be nonzero; all small branches vanish at z=0")
    if not cmath.isfinite(z):
        raise ValueError("z must be finite")
    # at tiny |z| the companion matrix, with entries of size 1/z, overflows
    # or returns the small roots, of size about z, as exactly 0
    try:
        roots = _companion_roots(_kernel_coeffs(model, z))
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(f"kernel companion solve failed at z={z}: {exc}") from exc
    if 0 in roots:
        raise NumericalSingularityError(f"kernel companion solve lost a small branch at z={z}")
    P, dP = model.P, model.P.derivative()
    try:
        refined = [_refine_root(z, r, P, dP) for r in roots]
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalSingularityError(f"kernel root refinement failed at z={z}: {exc}") from exc
    refined.sort(key=lambda pair: abs(pair[0]))
    roots = [u for u, _ in refined]
    c = model.c
    # where P's Horner overflows at the largest root, Newton stopped there; a
    # lone c = 1 branch is still right, but for c >= 2 the boundary system
    # solved from the branches is far off (ROADMAP J, step 1), so the exit 2
    # stays until a forward-error test can tell
    if c > 1 and not cmath.isfinite(model.P(roots[-1])):
        raise NumericalSingularityError(f"kernel polynomial overflows at a root at z={z}")
    merged = False
    if len(roots) > c:
        inner, outer = abs(roots[c - 1]), abs(roots[c])
        if outer - inner <= 1e-9 * max(outer, 1e-30):
            merged = True
            a, b = roots[c - 1], roots[c]
            real_merge = (
                abs(complex(z).imag) <= 1e-12 * (1.0 + abs(z))
                and abs(a.imag) <= 1e-6 * (1.0 + abs(a.real))
                and abs(b.imag) <= 1e-6 * (1.0 + abs(b.real))
            )
            if not real_merge:
                raise BranchDegenerateError(
                    f"small and large branches collide at z={z}: |u_c|={inner}, |u_c+1|={outer}"
                )
    small = tuple(roots[:c])
    residuals = tuple(abs(fx) for _, fx in refined[:c])
    # a merged pair is a double root: Newton stalls there but the residual
    # stays quadratically small, so only the tolerance is relaxed
    tol = 1e-6 if merged else ROOT_RESIDUAL_TOL
    for u, r in zip(small, residuals):
        if not r <= tol:  # a NaN branch, which overflow can leave, fails too
            raise NumericalSingularityError(
                f"kernel root {u} at z={z} has residual {r} > {tol}"
            )
    return BranchSet(z=complex(z), branches=small, residuals=residuals)


def small_branch_u1(model: WalkModel, z: float) -> float:
    return small_branches(model, z).u1


def _branches_at(model: WalkModel, z: complex, branches: Optional[BranchSet]) -> BranchSet:
    """``branches`` if it was solved at z, else the branches solved now."""
    if branches is None:
        return small_branches(model, z)
    if branches.z != complex(z):
        raise ValueError(f"branches were solved at z={branches.z}, not at z={z}")
    return branches


def solve_boundary_gfs(model: WalkModel, z: float, branches: Optional[BranchSet] = None
                       ) -> list[float]:
    """Values F_0(z)..F_{c-1}(z) of the boundary generating functions.

    Substituting each small branch into the functional equation kills the
    left side and leaves c linear equations sum_k r_k(u_i) F_k = 1/z, with
    the r_k of ``WalkModel.boundary_corrections``. For c = 1 its solution
    is the closed form F_0 = E(z) = 1/(1 - z*P0geq(u1(z))), taken with no
    linear solve; for c >= 2 LAPACK solves the system. ``branches``, if
    given, is the ``BranchSet`` at z, which is then not solved again; this
    holds for every boundary quantity below.
    """
    branches = _branches_at(model, z, branches)
    if model.is_lukasiewicz:
        # the lone branch, real at any real z inside the disk, negative z too
        u1 = _real(branches.branches[0], "small branch", z)
        den = 1.0 - z * float(model.P0geq(u1))
        if abs(den) < 1e-14:
            raise NumericalSingularityError(f"excursion series pole at z={z}")
        return [1.0 / den]
    u = branches.branches
    A = np.array([[complex(r(ui)) for r in model.boundary_corrections] for ui in u])
    b = np.array([1.0 / z] * model.c, dtype=complex)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(f"boundary system singular at z={z}") from exc
    resid = float(np.max(np.abs(A @ x - b)))
    if resid > 1e-8 * max(1.0, float(np.max(np.abs(b)))):
        raise NumericalSingularityError(f"boundary system ill conditioned at z={z}")
    return [_real(v, "F_k value", z) for v in x]


def excursion_gf(model: WalkModel, z: float, branches: Optional[BranchSet] = None) -> float:
    """E(z) = F_0(z) for the boundary model (``solve_boundary_gfs``)."""
    return solve_boundary_gfs(model, z, branches)[0]


def excursion_gf_vandermonde(model: WalkModel, z: float, branches: Optional[BranchSet] = None
                             ) -> float:
    """E(z) through the alternating Vandermonde-minor form over the branches.

    For c=1 the minors are empty products and the expression collapses to
    the closed single-branch form, so this delegates there.
    """
    if model.is_lukasiewicz:
        return excursion_gf(model, z, branches)
    u = _branches_at(model, z, branches).branches
    c = model.c

    def minor(ell: int) -> complex:
        v = 1.0 + 0j
        for m in range(c):
            for nn in range(m + 1, c):
                if m != ell and nn != ell:
                    v *= u[m] - u[nn]
        return v

    num = 0j
    den = 0j
    for ell in range(c):
        sign = -1.0 if ell % 2 else 1.0
        term = sign * u[ell] ** (c - 1) * minor(ell)
        num += term
        den += term * (1.0 - z * complex(model.P0geq(u[ell])))
    if den == 0:
        raise NumericalSingularityError(f"degenerate branch minors at z={z}")
    return _real(num / den, "excursion value", z)


def excursion_gf_bf(model: WalkModel, z: float, branches: Optional[BranchSet] = None) -> float:
    """Boundary-free excursion series: the signed product of the small branches
    over z times the deepest down weight."""
    u = _branches_at(model, z, branches).branches
    c = model.c
    prod = 1.0 + 0j
    for b in u:
        prod *= b
    p_minus_c = model.P.float_coeffs[0]
    return _real((-1.0) ** (c + 1) * prod / (z * p_minus_c), "boundary-free value", z)


def perturbation_identity_residual(model: WalkModel, z: float,
                                   branches: Optional[BranchSet] = None) -> float:
    """How far the boundary perturbation identity is from holding at z.

    The boundary excursion series is the boundary-free one divided by
    1 - z*Efree(z) * L, where L is the divided-difference functional
    sum_i g(u_i) u_i**(c-1) / prod_{m != i}(u_i - u_m) applied to
    g = P0geq - Pgeq. The factor vanishes exactly when P0 = P, which is
    what makes it a measure of the boundary's perturbation. Contract:
    residual <= 1e-9 well inside the disk of analyticity. One branch solve
    serves both sides.
    """
    branches = _branches_at(model, z, branches)
    u = branches.branches
    c = model.c
    p_geq = model.P.nonneg_part()
    lam_sum = 0j
    for i, ui in enumerate(u):
        denom = 1.0 + 0j
        for m, um in enumerate(u):
            if m != i:
                denom *= ui - um
        g = complex(model.P0geq(ui)) - complex(p_geq(ui))
        lam_sum += g * ui ** (c - 1) / denom
    e_free = excursion_gf_bf(model, z, branches)
    denominator = 1.0 - z * e_free * lam_sum
    if denominator == 0:
        raise NumericalSingularityError(f"perturbation denominator vanished at z={z}")
    predicted = _real(e_free / denominator, "perturbation value", z)
    return abs(excursion_gf(model, z, branches) - predicted)


# ---------------------------------------------------------------------------
# Structural constants.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralConstants:
    """Constants controlling the singular behavior of the walk model.

    tau minimizes P on (0, inf); rho = 1/P(tau) is the radius of the
    boundary-free excursion series; C scales the square-root branch
    expansion u1(z) = tau - C*sqrt(1 - z/rho) + O(1 - z/rho). delta and
    delta0geq are the drifts P'(1) and (P0geq)'(1). lam compares the
    boundary weight P0geq(tau) to P(tau): above 1 the denominator root
    rho1 < rho exists (supercritical), at 1 it is tangent at rho, below 1
    there is none; sign (+1, 0, -1) is the sign of P0geq(tau) - P(tau)
    that decides this, exact when tau = 1. rho1 = 1/P(u*), where u* in
    (0, tau) solves P0geq(u) = P(u). kappa = C*rho*(P0geq)'(tau).
    alpha, alpha2 are the first two z-derivatives of P0geq(u1(z)) at rho1,
    taken at u1 = u*, and gamma = 1/(alpha*rho1**2+1) is the residue
    weight of the excursion pole. E_at_rho, E_at_1 are values of the
    excursion series where finite, for c = 1 only.
    """

    tau: float
    rho: float
    C: float
    delta: float
    delta0geq: float
    lam: float
    kappa: float
    sign: int
    rho1: Optional[float] = None
    alpha: Optional[float] = None
    alpha2: Optional[float] = None
    gamma: Optional[float] = None
    E_at_rho: Optional[float] = None
    E_at_1: Optional[float] = None


def _bracketed_newton(f, df, lo: float, hi: float) -> float:
    """Root of f in the bracket (lo, hi), where f(lo) < 0 < f(hi).

    Safeguarded Newton: each value of f moves one end of the bracket to
    the current point; the Newton step is taken when it lands inside the
    bracket, and the bracket is bisected otherwise. The root is returned
    once a Newton step or the bracket is within ``ROOT_REL_WIDTH`` of the
    point, or when f is exactly 0 there; a step below one ulp, which
    leaves the point where it is, is within that width.
    """
    u = 0.5 * (lo + hi)
    for _ in range(200):
        fu = f(u)
        if fu == 0:
            return u
        if fu < 0:
            lo = u
        else:
            hi = u
        dfu = df(u)
        step = fu / dfu if dfu else math.inf
        nxt = u - step
        if abs(step) <= ROOT_REL_WIDTH * u and lo <= nxt <= hi:
            return nxt
        if lo < nxt < hi:
            u = nxt
        else:
            u = 0.5 * (lo + hi)
            if hi - lo <= ROOT_REL_WIDTH * u:
                return u
    raise NumericalSingularityError(f"root in ({lo}, {hi}) did not converge")


def _bracket_end(f, start: float, factor: float, what: str) -> float:
    """The first of start*factor, start*factor**2, ..., start*factor**200
    at which f is positive; ``NumericalSingularityError`` if there is none."""
    x = start
    for _ in range(200):
        x *= factor
        if f(x) > 0:
            return x
    raise NumericalSingularityError(f"failed to bracket {what}")


def _find_tau(model: WalkModel) -> float:
    """Unique positive root of P'(u); P is strictly convex on (0, inf).

    tau is 1 when the drift P'(1), the coefficient sum of P', is exactly 0.
    Otherwise P' has the drift's sign at 1, so 1 is the upper end of the
    bracket when the drift is positive and the lower end when it is
    negative; the other end is halved or doubled from 1 until P' changes
    sign, and safeguarded Newton on P', whose derivative P'' is positive,
    finds the root inside (``_bracketed_newton``).
    """
    dP = model.P.derivative()
    delta = dP.total_weight()
    if delta == 0:
        return 1.0
    if delta > 0:
        lo, hi = _bracket_end(lambda u: -dP(u), 1.0, 0.5, "the minimum of P"), 1.0
    else:
        lo, hi = 1.0, _bracket_end(dP, 1.0, 2.0, "the minimum of P")
    return _bracketed_newton(dP, dP.derivative(), lo, hi)


def boundary_denominator(model: WalkModel, z: float) -> float:
    """1 - z*P0geq(u1(z)); its root on (0, rho] is the excursion pole rho1."""
    u1 = small_branch_u1(model, z)
    return 1.0 - z * float(model.P0geq(u1))


def u1_derivatives(model: WalkModel, z: float, u1: float) -> tuple[float, float, float]:
    """(u1, u1', u1'') from implicit differentiation of 1 = z*P(u1), where
    ``u1`` is the small branch at z."""
    dP = model.P.derivative()
    ddP = dP.derivative()
    d1 = float(dP(u1))
    if d1 == 0:
        raise NumericalSingularityError(f"u1 derivative singular at z={z} (branch point)")
    du1 = -1.0 / (z * z * d1)
    ddu1 = -(2.0 * d1 * du1 + z * float(ddP(u1)) * du1 * du1) / (z * d1)
    return u1, du1, ddu1


def composed_boundary_derivatives(model: WalkModel, z: float, u1: float) -> tuple[float, float]:
    """First and second z-derivative of P0geq(u1(z)); ``u1`` as in ``u1_derivatives``."""
    u1, du1, ddu1 = u1_derivatives(model, z, u1)
    dq = model.P0geq.derivative()
    ddq = dq.derivative()
    first = float(dq(u1)) * du1
    second = float(ddq(u1)) * du1 * du1 + float(dq(u1)) * ddu1
    return first, second


def _criticality_sign(model: WalkModel, tau: float) -> int:
    """Sign of P0geq(tau) - P(tau); decided exactly when tau = 1 exactly."""
    if model.P.derivative().total_weight() == 0:
        diff = model.P0geq.total_weight() - model.P.total_weight()
        return (diff > 0) - (diff < 0)
    diff_f = float(model.P0geq(tau)) - float(model.P(tau))
    tol = 1e-9 * max(1.0, abs(float(model.P(tau))))
    if diff_f > tol:
        return 1
    if diff_f < -tol:
        return -1
    return 0


def _find_rho1(model: WalkModel, rho: float, tau: float, sign: int
               ) -> tuple[Optional[float], Optional[float]]:
    """(rho1, u*) with rho1 = 1/P(u*) and u* the small branch there; u* is
    None when the boundary is critical (rho1 is rho) or subcritical (there
    is no rho1).

    u* is the root of P0geq - P on (0, tau): tau is the upper end of its
    bracket, the lower end is halved from tau until P0geq - P is negative,
    and safeguarded Newton with h' = P0geq' - P' finds the root inside
    (``_bracketed_newton``).
    """
    if sign < 0:
        return None, None
    if sign == 0:
        return rho, None
    # D(1/P(u)) = (P(u) - P0geq(u))/P(u) for u in (0, tau): the opposite
    # sign of f = P0geq - P, which is positive at tau
    P, Q = model.P, model.P0geq
    dP, dQ = P.derivative(), Q.derivative()
    lo = _bracket_end(lambda u: P(u) - Q(u), tau, 0.5, "rho1 from below")
    u = _bracketed_newton(lambda u: Q(u) - P(u), lambda u: dQ(u) - dP(u), lo, tau)
    return 1.0 / P(u), u


def structural_constants(model: WalkModel) -> StructuralConstants:
    """Compute every structural constant that is finite for the model.

    Optional fields stay None when the quantity is infinite or does not
    exist in the model's regime: rho1 is 1/P(u*) on every supercritical
    model, and alpha/alpha2/gamma need it below rho*(1 - 1e-10), the one
    rule for a pole resolved from rho; E_at_rho is finite only below
    criticality, E_at_1 only when the excursion series converges at z=1.
    Both are left None when c >= 2: their closed forms hold for c = 1
    only, and the boundary determinant that would replace them for c >= 2
    (ROADMAP Q) is not built yet.

    The exact values at u = 1 are coefficient sums (``total_weight``): the
    drifts delta and delta0geq, and the criticality sign when tau = 1, come
    from exact rationals without evaluating any polynomial at a
    ``Fraction``. tau and u* are roots found by safeguarded Newton in a
    bracket, each within about one ulp of the true root.
    """
    require_valid(model)
    tau = _find_tau(model)
    p_tau = float(model.P(tau))
    dP = model.P.derivative()
    ddP = dP.derivative()
    rho = 1.0 / p_tau
    C = math.sqrt(2.0 * p_tau / float(ddP(tau)))
    delta = float(dP.total_weight())
    dq = model.P0geq.derivative()
    delta0 = float(dq.total_weight())
    lam = float(model.P0geq(tau)) / p_tau
    kappa = C * rho * float(dq(tau))
    sign = _criticality_sign(model, tau)
    rho1, u_star = _find_rho1(model, rho, tau, sign)
    alpha = alpha2 = gamma = None
    if u_star is not None and rho1 < rho * (1.0 - 1e-10):
        alpha, alpha2 = composed_boundary_derivatives(model, rho1, u_star)
        gamma = 1.0 / (alpha * rho1 * rho1 + 1.0)
    E_at_rho = E_at_1 = None
    if model.is_lukasiewicz:
        E_at_rho = 1.0 / (1.0 - lam) if sign < 0 else None
        if rho > 1.0 + 1e-12:
            den = boundary_denominator(model, 1.0)
        else:
            den = 1.0 - float(model.P0geq(tau))
        if den > 1e-9:
            E_at_1 = 1.0 / den
    return StructuralConstants(
        tau=tau,
        rho=rho,
        C=C,
        delta=delta,
        delta0geq=delta0,
        lam=lam,
        kappa=kappa,
        sign=sign,
        rho1=rho1,
        alpha=alpha,
        alpha2=alpha2,
        gamma=gamma,
        E_at_rho=E_at_rho,
        E_at_1=E_at_1,
    )


def u1_expansion_check(model: WalkModel, constants: StructuralConstants) -> float:
    """Max scaled residual of u1(rho(1-eps)) against tau - C*sqrt(eps), for
    eps = 1e-2, 1e-3 and 1e-4, with rho, tau and C from the model's
    structural ``constants``.

    The remainder of the branch expansion is linear in eps, so the residual
    divided by eps stays bounded; the largest such ratio is returned.
    """
    worst = 0.0
    for eps in (1e-2, 1e-3, 1e-4):
        z = constants.rho * (1.0 - eps)
        u1 = small_branch_u1(model, z)
        predicted = constants.tau - constants.C * math.sqrt(eps)
        worst = max(worst, abs(u1 - predicted) / eps)
    return worst
