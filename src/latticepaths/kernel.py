"""Numerical kernel method for boundary walk models.

The kernel equation 1 - z*P(u) = 0 has c+d roots; the c of smallest modulus
(the small branches, all vanishing as z -> 0) eliminate the unknown boundary
series from the functional equation. This module finds the roots of the
kernel polynomial, of degree c + d, in closed form through degree 3 (the
quadratic formula at c = d = 1, Cardano and deflation at c + d = 3) and
with one eigenvalue solve of its companion matrix from degree 4, refines
them by Newton, takes the boundary generating functions from E(z)'s closed
form when c = 1 and from the resulting c x c linear system otherwise,
evaluates the closed product formula of the boundary-free model, and
derives the structural constants that drive every asymptotic regime.

A branch is accepted where its residual is within the larger of the
branch tolerance and the floor at which Newton stops, 1e-15*(1 + |z|), or
within the round-off of z*P's terms at it: far outside the disk the
residual's round-off grows with z. A c >= 2 system is solved from its
adjugate in plain complex arithmetic for c <= 3, with no numpy call, and
by one LAPACK call, ``np.linalg.solve``, from c = 4. Its residual is
checked, and so is a first-order bound on each F_k's error that takes in
round-off and how far each branch may be from its root, the square root
of round-off at the double root at rho: an F_k whose bound exceeds 1e-8
of itself raises (exit 2).

Every boundary quantity at z (the F_k, E(z), the boundary-free product,
E(z) = 1/(1 - z*L[P0geq]) over all c branches, which is the closed form
at c = 1, and the perturbation identity) reads the same c branches, so
each takes an optional ``BranchSet`` solved at that z and then makes no
solve of its own: one branch solve per z serves them all. L is the
divided difference over the branches (``_divided_difference``).

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
from dataclasses import FrozenInstanceError, dataclass
from operator import mul
from typing import Optional

import numpy as np

from .errors import BranchDegenerateError, NumericalSingularityError
from .model import LaurentPolynomial, WalkModel, require_valid

ROOT_RESIDUAL_TOL = 1e-12
ROOT_REL_WIDTH = 1e-13
U1_EXPANSION_BOUND = 10.0
BOUNDARY_FORWARD_EPS = 1e-15
BOUNDARY_FORWARD_TOL = 1e-8


def _is_real(v: complex) -> bool:
    """Whether v is real up to round-off: |Im v| <= 1e-8*(1 + |Re v|)."""
    return abs(v.imag) <= 1e-8 * (1.0 + abs(v.real))


def _real(v: complex, what: str, z: complex) -> float:
    """Re v, for a value at real z that must be real (``_is_real``)."""
    if not _is_real(v):
        raise NumericalSingularityError(f"non-real {what} {v} at z={z}")
    return float(v.real)


@dataclass(slots=True, unsafe_hash=True, init=False)
class BranchSet:
    """The c small-modulus roots of 1 - z*P(u) = 0, sorted by modulus."""

    z: complex
    branches: tuple[complex, ...]
    residuals: tuple[float, ...]

    # frozen by hand: the slots' own setters cost about half of what a frozen
    # dataclass's object.__setattr__ does, and with slots its generated
    # __setattr__ raises TypeError for a name that is not a field (3.11)
    def __init__(self, z: complex, branches: tuple[complex, ...], residuals: tuple[float, ...]):
        _set_z(self, z)
        _set_branches(self, branches)
        _set_residuals(self, residuals)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return BranchSet, (self.z, self.branches, self.residuals)

    @property
    def u1(self) -> float:
        """The real positive branch (exists for real z in (0, rho])."""
        candidates = [b.real for b in self.branches if _is_real(b) and b.real > 0]
        if len(candidates) != 1:
            raise NumericalSingularityError(
                f"expected one real positive small branch at z={self.z}, got {candidates}"
            )
        return candidates[0]


_set_z, _set_branches, _set_residuals = (
    getattr(BranchSet, name).__set__ for name in ("z", "branches", "residuals"))


def _kernel_coeffs(model: WalkModel, z: complex) -> list[complex]:
    """Coefficients (descending degree) of u**c - z * u**c * P(u): 0j - z*p
    for each weight p of P, and (1 + 0j) - z*p at u**c, where an absent
    jump's p is an exact 0."""
    weights = model.P.float_coeffs
    coeffs = []
    for p in reversed(weights):
        coeffs.append(0j - z * p)
    c = model.c
    coeffs[-1 - c] = (1 + 0j) - z * weights[c]
    return coeffs


def _quadratic_roots(a: complex, b: complex, c: complex) -> list[complex]:
    """Roots of a*u**2 + b*u + c, a and c nonzero: q/a and c/q with
    q = -(b + sd)/2, sd = sqrt(b**2 - 4ac) signed so that b + sd adds."""
    disc = b * b - 4.0 * a * c
    if not cmath.isfinite(disc):
        # beyond |z| of about 1e154 the squares overflow: dividing the
        # coefficients by a power of two near the largest of them is
        # exact and leaves the roots as they are
        top = max(abs(x) for v in (a, b, c) for x in (v.real, v.imag))
        s = math.ldexp(1.0, -math.frexp(top)[1])
        a, b, c = a * s, b * s, c * s
        disc = b * b - 4.0 * a * c
    sd = cmath.sqrt(disc)
    if (b.conjugate() * sd).real < 0:
        sd = -sd
    q = -0.5 * (b + sd)
    return [q / a, c / q]


_CUBE_ROOTS_OF_ONE = (1.0, complex(-0.5, 0.75**0.5), complex(-0.5, -0.75**0.5))


def _cubic_roots(a: complex, b: complex, c: complex, d: complex) -> list[complex]:
    """Roots of a*u**3 + b*u**2 + c*u + d, a and d nonzero, dominant root
    first: Cardano on u = t - b/(3a), t**3 + p*t + q = 0, gives the root of
    largest modulus from the cube roots of -q/2 +- sqrt(q**2/4 + p**3/27),
    the sign taken that adds, and backward deflation by that root, from the
    constant term up, leaves the quadratic for the other two
    (``_quadratic_roots``). Where p**3 or q**2 overflows (|z| below about
    1e-52 at c = 2, 1e-103 at c = 1, d = 2) the terms are not finite, and
    ``OverflowError`` is raised."""
    B, C, D = b / a, c / a, d / a
    s = B / 3.0
    p = C - B * s
    h = 0.5 * ((2.0 * s * s - C) * s + D)  # q/2
    p3 = p / 3.0
    disc = h * h + p3 * p3 * p3
    if not cmath.isfinite(disc):
        raise OverflowError("the cubic's closed form overflows")
    sd = cmath.sqrt(disc)
    if (h.conjugate() * sd).real > 0:
        sd = -sd
    w = sd - h
    real = not (B.imag or C.imag or D.imag)
    if not w:  # p = q = 0: a triple root
        r = -s
    else:
        # with real coefficients, disc >= 0 leaves w real, and its real cube
        # root keeps the one real root real; disc < 0 means three real roots
        if real and not w.imag:
            base = math.copysign(abs(w.real) ** (1.0 / 3.0), w.real)
        else:
            base = w ** (1.0 / 3.0)
        r = max((k * base - p3 / (k * base) - s for k in _CUBE_ROOTS_OF_ONE), key=abs)
        if real and w.imag:
            r = complex(r.real)
    gamma = -d / r
    beta = (gamma - c) / r
    alpha = (beta - b) / r
    return [r, *_quadratic_roots(alpha, beta, gamma)]


def _companion_roots(coeffs: list[complex]) -> list[complex]:
    """Roots of the polynomial with descending coefficients ``coeffs``, by
    ``np.linalg.eigvals`` on the companion matrix that ``np.roots`` builds,
    end zeros trimmed as it trims them: np.roots' roots to the last bit."""
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


def _refine_roots(z: complex, roots: list[complex], P: LaurentPolynomial,
                  dP: LaurentPolynomial, floor: float) -> list[tuple[complex, complex]]:
    """Newton on f(u) = 1 - z*P(u) from each root; (u, f(u)) where it stops:
    |f| below ``floor``, f' = 0, a step that leaves u or is not finite (P's
    Horner overflows at a large root at tiny z), or 60 steps. A step back
    to an earlier iterate (Newton cycling between neighbouring floats whose
    last-bit residuals stay above the floor) stops at the iterate of the
    run with the smallest |f|."""
    refined = []
    for u in roots:
        fx = 1.0 - z * P(u)
        seen = {}
        while not abs(fx) < floor and len(seen) < 60:
            seen[u] = fx
            dfx = -z * dP(u)
            if dfx == 0:
                break
            nxt = u - fx / dfx
            if nxt == u or not cmath.isfinite(nxt):
                break
            if nxt in seen:
                u, fx = min(seen.items(), key=lambda item: abs(item[1]))
                break
            u = nxt
            fx = 1.0 - z * P(u)
        refined.append((u, fx))
    return refined


def small_branches(model: WalkModel, z: complex) -> BranchSet:
    """Find the c small branches of the kernel equation at z.

    The roots of the kernel polynomial come in closed form when its degree
    c + d is at most 3 and its end coefficients are nonzero
    (``_quadratic_roots``, ``_cubic_roots``: no numpy call at all), and
    from ``_companion_roots`` otherwise; refined by Newton
    (``_refine_roots``), they are ordered by modulus, and the c smallest
    are accepted when each residual |1 - z*P(u)| is within
    ``_residual_tolerance`` or Newton's floor 1e-15*(1 + |z|), whichever is
    larger, or failing both within 1e-15*(1 + |z|*P(|u|)), the round-off of
    z*P's terms at u (P's weights are not negative): the floor is the larger
    only from |z| of about 999, far outside the disk, where the residual's
    round-off grows with z. A closed form whose terms overflow (the
    quadratic from |z| of about 1e-308, the cubic from about 1e-52 at
    c = 2 and 1e-103 at c = 1, d = 2), a root solve that fails or loses a
    small branch raise ``NumericalSingularityError``, an invalid model
    ``InvalidModelError``.
    """
    require_valid(model)
    if z == 0:
        raise ValueError("z must be nonzero; all small branches vanish at z=0")
    if not cmath.isfinite(z):
        raise ValueError("z must be finite")
    # at tiny |z| the companion matrix, with entries of size 1/z, overflows
    # or returns the small roots, of size about z, as exactly 0; the closed
    # forms keep them until their own terms overflow
    coeffs = _kernel_coeffs(model, z)
    closed = len(coeffs) <= 4 and coeffs[0] != 0 and coeffs[-1] != 0
    try:
        if not closed:
            roots = _companion_roots(coeffs)
        elif len(coeffs) == 3:
            roots = _quadratic_roots(*coeffs)
        else:
            roots = _cubic_roots(*coeffs)
    except OverflowError as exc:  # caught first: this clause reads no numpy
        raise NumericalSingularityError(f"kernel closed form overflows at a root at z={z}") from exc
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(f"kernel companion solve failed at z={z}: {exc}") from exc
    if 0 in roots:
        raise NumericalSingularityError(f"kernel companion solve lost a small branch at z={z}")
    P = model.P
    floor = 1e-15 * (1.0 + abs(z))
    try:
        refined = _refine_roots(z, roots, P, P.derivative(), floor)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalSingularityError(f"kernel root refinement failed at z={z}: {exc}") from exc
    if len(refined) == 2:
        # c = d = 1: the small root and the large one; sort() would swap
        # them on the same test, so a tie keeps its order
        (u, fu), (v, _) = refined
        if abs(v) < abs(u):
            (v, _), (u, fu) = refined
        tol = _residual_tolerance(z, u, v)
        branches, residuals = (u,), (abs(fu),)
    else:
        refined.sort(key=lambda pair: abs(pair[0]))
        c = model.c
        tol = (_residual_tolerance(z, refined[c - 1][0], refined[c][0]) if len(refined) > c
               else ROOT_RESIDUAL_TOL)
        branches = tuple(u for u, _ in refined[:c])
        residuals = tuple(abs(fx) for _, fx in refined[:c])
    if tol < floor:
        # far outside the disk the residual's round-off grows with the size
        # of z*P's terms, so a root is accepted where Newton stops
        tol = floor
    for u, r in zip(branches, residuals):
        # a NaN branch, which overflow can leave, fails both tests; the
        # second is read only where the first fails
        if not r <= tol and not r <= 1e-15 * (1.0 + abs(z) * P(abs(u))):
            raise NumericalSingularityError(
                f"kernel root {u} at z={z} has residual {r} > {tol}"
            )
    return BranchSet(complex(z), branches, residuals)


def _residual_tolerance(z: complex, a: complex, b: complex) -> float:
    """The residual tolerance of the c small branches, where a and b are the
    c-th and (c+1)-th roots by modulus: ``ROOT_RESIDUAL_TOL`` while their
    moduli differ. Where they meet, real z with real roots is the branch
    point, a double root that Newton leaves with a quadratically small
    residual, and the tolerance is 1e-6; anywhere else z has left the disk
    of analyticity and the branches are degenerate."""
    inner, outer = abs(a), abs(b)
    if not outer - inner <= 1e-9 * max(outer, 1e-30):
        return ROOT_RESIDUAL_TOL
    if (abs(complex(z).imag) <= 1e-12 * (1.0 + abs(z))
            and abs(a.imag) <= 1e-6 * (1.0 + abs(a.real))
            and abs(b.imag) <= 1e-6 * (1.0 + abs(b.real))):
        return 1e-6
    raise BranchDegenerateError(
        f"small and large branches collide at z={z}: |u_c|={inner}, |u_c+1|={outer}"
    )


def small_branch_u1(model: WalkModel, z: float) -> float:
    return small_branches(model, z).u1


def _branches_at(model: WalkModel, z: complex, branches: Optional[BranchSet]) -> BranchSet:
    """``branches`` if it was solved at z, else the branches solved now."""
    if branches is None:
        return small_branches(model, z)
    if branches.z != complex(z):
        raise ValueError(f"branches were solved at z={branches.z}, not at z={z}")
    return branches


def _divided_difference(g, u) -> complex:
    """L[g] = sum_i g(u_i)*u_i**(c-1) / prod_{m != i}(u_i - u_m) over the c
    branches u: the divided difference of u**(c-1)*g at them, so L[1] = 1
    and L[g] = g(u_1) at c = 1. A float branch with a float g gives a float;
    a float meets a complex as the complex with imaginary part 0 would."""
    c = len(u)
    if c == 1:
        # the sum below is 0.0 + g(u_1)*u_1**0/1.0: g(u_1) to the bit for a
        # finite value, but for the sign of a zero part, which every
        # 1 - z*L drops
        return g(u[0])
    total = 0.0
    for i, ui in enumerate(u):
        denom = 1.0
        for m, um in enumerate(u):
            if m != i:
                denom *= ui - um
        total += g(ui) * ui ** (c - 1) / denom
    return total


def _excursion_value(model: WalkModel, z: complex, u) -> complex:
    """E(z) = 1/(1 - z*L[P0geq]) over the branches u; a denominator below
    1e-14 is the excursion series' pole."""
    den = 1.0 - z * _divided_difference(model.P0geq, u)
    if abs(den) < 1e-14:
        raise NumericalSingularityError(f"excursion series pole at z={z}")
    return 1.0 / den


def solve_boundary_gfs(model: WalkModel, z: float, branches: Optional[BranchSet] = None
                       ) -> list[float]:
    """Values F_0(z)..F_{c-1}(z) of the boundary generating functions.

    Each small branch u_i gives one equation sum_k r_k(u_i) F_k = 1/z, with
    the r_k of ``WalkModel.boundary_corrections``. For c = 1 the solution
    is F_0 = E(z) = 1/(1 - z*P0geq(u1)), with no linear solve. For c = 2
    and 3 the system A x = b comes from A's adjugate and determinant in
    plain complex arithmetic, with no numpy call (``_adjugate_solve``); from
    c = 4 it takes one LAPACK call, ``np.linalg.solve``, and |A^-1| one
    ``np.linalg.inv`` (``_lapack_solve``). Then:

    - a zero determinant, or a singular LAPACK factorisation, means the
      system is singular, and a residual max_i |sum_k r_k(u_i) x_k - 1/z|
      above 1e-8*max(1, |1/z|) that it is ill conditioned;
    - an F_k that is identically 0, at an altitude below c that the walk
      never reaches (``_boundary_system``), is returned as an exact 0.0,
      where the solve leaves round-off, and is not gated;
    - every other F_k passes the forward-error gate, or
      ``NumericalSingularityError`` is raised: its first-order bound
      (|A^-1|*w)_k is within ``BOUNDARY_FORWARD_TOL``*|F_k|, where w_i
      bounds how far round-off, and the error of the branch u_i, move row
      i's equation (``_row_errors``, ``_branch_error``).

    eps = ``BOUNDARY_FORWARD_EPS`` = 1e-15, about 4.5 units of round-off
    (2**-53), is the relative size of what moves an entry: r_k(u_i) is a
    Horner sum of at most c + d + 1 terms, at a branch that Newton leaves
    within about eps of itself inside the disk, so each moves it by a few
    units of |A|abs, r_k on its coefficients' absolute values at |u_i|; 1/z
    is rounded once. The tolerance, 1e-8 relative, is ten times ROADMAP J's
    1e-9 because the bound is pessimistic: over 22,006 values of 163
    c >= 2 models at real z in (-rho, rho), wherever the bound without its
    branch term, which only adds to it, read above
    1e-12 relative the solve's error was at most 0.64 of it (median 0.05;
    one call with wrong companion branches aside, which the gate refuses on
    its other F_k), the values the gate passed were within
    1e-9 relative of a 60-digit or exact-series reference but for 7, 1.0e-9
    to 2.4e-9 relative and under 1e-12 absolute off. With c = 2 an error
    of eps in r_0(u_i), about 1/z, moves F_1 by about eps*z**-1.5 of
    itself: on ``two_down_reflection`` the gate passes F_1 down to
    z = 1e-4 (bound 8e-9, error 1.0e-9) and refuses it below about 9e-5.
    At z = rho the c-th branch is a double root of the kernel, right only
    to about the square root of round-off, and the branch term refuses the
    values there: on the c >= 2 models of ``test_kernel`` those that came
    back were up to 2.7e-7 relative off. ``branches``, here and in every
    boundary quantity below, is the ``BranchSet`` at z, solved if not
    given.
    """
    branches = _branches_at(model, z, branches)
    if model.is_lukasiewicz:
        # the lone branch, real at any real z inside the disk, negative z too
        u1 = _real(branches.branches[0], "small branch", z)
        return [_excursion_value(model, z, [u1])]
    system = _boundary_system(model)
    rows, absolute, betas = _system_rows(system, z, branches)
    rhs = 1.0 / z
    try:
        x, inverse = (_adjugate_solve if model.c <= 3 else _lapack_solve)(rows, rhs)
    except ZeroDivisionError as exc:  # caught first: this clause reads no numpy
        raise NumericalSingularityError(f"boundary system singular at z={z}") from exc
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(f"boundary system singular at z={z}") from exc
    resid = max([abs(sum(map(mul, row, x)) - rhs) for row in rows])
    if resid > 1e-8 * max(1.0, abs(rhs)):
        raise NumericalSingularityError(f"boundary system ill conditioned at z={z}")
    zeros = system[0]
    for k in zeros:
        x[k] = 0.0
    # the first bounds take each branch term at its m_k bound, which
    # evaluates no r_k' (about 1.5 us of a 31 us kernel-sweep solve on
    # two_down_reflection); where one fails, they are taken again with
    # |r_k'(u_i)|, which is smaller (``_row_errors``)
    errors = _row_errors(system, branches, x, abs(rhs), absolute, betas, False)
    exact = False
    for k, row in enumerate(inverse):
        if k in zeros:
            continue
        bound = sum(map(mul, row, errors))
        if not bound <= BOUNDARY_FORWARD_TOL * abs(x[k]) and not exact:
            errors = _row_errors(system, branches, x, abs(rhs), absolute, betas, True)
            exact = True
            bound = sum(map(mul, row, errors))
        if not bound <= BOUNDARY_FORWARD_TOL * abs(x[k]):
            raise NumericalSingularityError(
                f"boundary value F_{k} at z={z} has forward-error bound {bound:.3g}"
                f" > {BOUNDARY_FORWARD_TOL:g}*|F_{k}|")
    return [_real(v, "F_k value", z) for v in x]


def _boundary_system(model: WalkModel) -> tuple:
    """(zeros, polys, kernel) for the model's c x c boundary system, built
    once per model and kept in its ``__dict__``.

    zeros lists each k < c whose F_k is identically 0: with g the gcd of
    P's jumps, a P step keeps the altitude mod g, so the walk reaches
    altitude k only if k is 0 mod g or P0geq has a jump j = k mod g, and
    from such a j every such k >= 0 is reached (the up steps first, then
    the down steps). polys[k] is r_k as (lo, its coefficients paired with
    their absolute values, m_k the largest |exponent| in r_k, and r_k' as
    lo and coefficients); kernel is (P.lo, P'.lo, P's coefficients paired
    with those of P', P'' as lo and coefficients, M2 the largest
    |j*(j - 1)| over P's jumps j), for ``_branch_error``. Coefficients are
    highest first.
    """
    derived = model.__dict__
    try:
        return derived["_boundary_system"]
    except KeyError:
        pass
    P, dP = model.P, model.P.derivative()
    g = math.gcd(*P.support())
    reached = {j % g for j in (0, *model.P0geq.support())}
    zeros = tuple(k for k in range(model.c) if k % g not in reached)
    polys = tuple((r.lo, tuple(zip([complex(v) for v in reversed(r.coeffs)],
                                   [abs(v) for v in reversed(r.float_coeffs)])),
                   max(-r.lo, r.hi), *_horner(r.derivative()))
                  for r in model.boundary_corrections)
    # P' has P's length, one exponent lower: the end jumps -c < 0 < d of a
    # valid model stay
    kernel = (P.lo, dP.lo, tuple(zip(reversed(P.float_coeffs), reversed(dP.float_coeffs))),
              *_horner(dP.derivative()), float(max(abs(j * (j - 1)) for j in P.support())))
    return derived.setdefault("_boundary_system", (zeros, polys, kernel))


def _horner(poly: LaurentPolynomial) -> tuple[int, tuple[float, ...]]:
    """(lo, float coefficients highest first) of a Laurent polynomial."""
    return poly.lo, tuple(reversed(poly.float_coeffs))


def _system_rows(system, z: complex, branches: BranchSet) -> tuple[list, list, list]:
    """(A, |A|abs, beta), one pass over the branches: A[i][k] = r_k(u_i),
    by the Horner sum that calling r_k makes, to the bit; |A|abs[i][k], r_k
    on its coefficients' absolute values at |u_i|, in the same loop; and
    beta[i], the relative error of u_i beyond eps (``_branch_error``)."""
    _, polys, kernel = system
    rows, absolute, betas = [], [], []
    for u, residual in zip(branches.branches, branches.residuals):
        t = abs(u)
        row, arow = [], []
        for lo, pairs, _, _, _ in polys:
            acc = 0
            a = 0.0
            for v, w in pairs:
                acc = acc * u + v
                a = a * t + w
            row.append(acc * u**lo)
            arow.append(a * t**lo)
        rows.append(row)
        absolute.append(arow)
        betas.append(_branch_error(kernel, z, u, t, residual))
    return rows, absolute, betas


def _adjugate_solve(rows, rhs: complex) -> tuple[list, list]:
    """(x, |A^-1|) for the 2 x 2 or 3 x 3 system A x = (rhs, ..., rhs), A
    the list of ``rows``, in plain complex arithmetic: with adj the
    adjugate, x_k = (sum_i adj[k][i])*rhs/det and |A^-1|[k][i] =
    |adj[k][i]|/|det|. A zero determinant raises ``ZeroDivisionError``.
    For 2 x 2 systems Cramer's rule is forward stable (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 1.10.1)."""
    if len(rows) == 2:
        # written out: this is the hot case
        (a, b), (e, d) = rows
        det = a * d - b * e
        q = rhs / det
        s = 1.0 / abs(det)
        return [(d - b) * q, (a - e) * q], [[abs(d) * s, abs(b) * s], [abs(e) * s, abs(a) * s]]
    # adj[k][i] is the cofactor (i, k), the indices taken cyclically, which
    # signs it
    adj = [[rows[(i + 1) % 3][(k + 1) % 3] * rows[(i + 2) % 3][(k + 2) % 3]
            - rows[(i + 1) % 3][(k + 2) % 3] * rows[(i + 2) % 3][(k + 1) % 3]
            for i in range(3)] for k in range(3)]
    det = rows[0][0] * adj[0][0] + rows[0][1] * adj[1][0] + rows[0][2] * adj[2][0]
    q = rhs / det
    s = 1.0 / abs(det)
    return [sum(row) * q for row in adj], [[abs(v) * s for v in row] for row in adj]


def _lapack_solve(rows, rhs: complex) -> tuple[list, list]:
    """(x, |A^-1|) as ``_adjugate_solve`` gives them, for any c: one
    ``np.linalg.solve`` and one ``np.linalg.inv``, which raise
    ``np.linalg.LinAlgError`` on a singular A."""
    x = np.linalg.solve(rows, [rhs] * len(rows)).tolist()
    return x, np.abs(np.linalg.inv(rows)).tolist()


def _row_errors(system, branches: BranchSet, x, rhs_abs: float, absolute, betas,
                exact: bool) -> list[float]:
    """w_i, a first-order bound on how far round-off and the error of the
    branch u_i move row i of A x = b, sum_k r_k(u_i) x_k = 1/z, so that
    (|A^-1|*w)_k bounds the error of x_k:
    w_i = eps*|b| + sum_k (eps*|A|abs[i][k] + |r_k'(u_i)|*delta_i)*|x_k|,
    with eps = ``BOUNDARY_FORWARD_EPS`` and delta_i = beta_i*|u_i| how much
    farther than eps*|u_i| the branch may be from its root
    (``_branch_error``). |A|abs[i][k], r_k at |u_i| on its coefficients'
    absolute values, bounds what round-off in r_k's terms, and in a branch
    within eps*|u_i| of its root, moves r_k(u_i) by.

    Each term a_j*u**j of r_k moves by |j|*delta/|u| of itself when u moves
    by delta, so |r_k'(u_i)|*delta_i is at most m_k*beta_i*|A|abs[i][k],
    m_k the largest |j| in r_k: unless ``exact``, that bound stands in for
    it, and no r_k' is evaluated."""
    polys = system[1]
    size = list(map(abs, x))
    base = BOUNDARY_FORWARD_EPS * rhs_abs
    errors = []
    for u, arow, beta in zip(branches.branches, absolute, betas):
        w = base
        if exact:
            delta = beta * abs(u)
            for (_, _, _, dlo, dcoeffs), a, s in zip(polys, arow, size):
                d = 0j
                for v in dcoeffs:
                    d = d * u + v
                w += (BOUNDARY_FORWARD_EPS * a + abs(d * u**dlo) * delta) * s
        else:
            for (_, _, m, _, _), a, s in zip(polys, arow, size):
                w += (BOUNDARY_FORWARD_EPS + m * beta) * a * s
        errors.append(w)
    return errors


def _branch_error(kernel, z: complex, u: complex, t: float, residual: float) -> float:
    """max(0, delta/t - eps): how far beyond eps*t, relative to t = |u|, the
    branch u may be from the root of f(w) = 1 - z*P(w) that it stands for,
    with eps = ``BOUNDARY_FORWARD_EPS``.

    |f(u)| is at most e, the larger of ``residual``, which
    ``small_branches`` computed, and 1e-15*(1 + |z|*P(|u|)), the round-off
    of z*P's terms at u that it accepts a residual within. To second order
    the nearest root u + h solves f(u) + f'*h + f''*h**2/2 = 0, with
    f' = -z*P'(u) and f'' = -z*P''(u), so |f'|*|h| <= e + |f''|*|h|**2/2.
    Where f'**2 >= 2*|f''|*e, the smaller root of that bound gives
    delta = 2e/(|f'| + sqrt(f'**2 - 2*|f''|*e)), e/|f'| to first order,
    and more with a larger |f''|; so |f''| is first taken as its bound
    M2*|z|*P(|u|)/|u|**2 (each term j*(j - 1)*p_j*u**(j - 2) of P'' is at
    most M2/|u|**2 of p_j*|u|**j), and P'' is evaluated only where that
    leaves f'**2 < 2*|f''|*e. Nearer the double root at z = rho, where f'
    vanishes, h = -2f/(f' + s) with s = sqrt(f'**2 - 2*f*f'') signed to
    add, and |f' + s|**2 >= |f'|**2 + |s|**2 >= 2*|f|*|f''|, so
    delta = sqrt(2e/|f''|): the square-root form, equal to the first at
    f'**2 = 2*|f''|*e. Inside the disk delta is about e/|f'|, within a few
    units of round-off of t; at rho it is about sqrt(e)."""
    lo, dlo, pairs, ddlo, ddcoeffs, m2 = kernel
    p = 0.0
    d = 0j
    for v, dv in pairs:
        p = p * t + v
        d = d * u + dv
    zp = abs(z) * p * t**lo  # |z|*P(|u|), P's weights being non-negative
    e = 1e-15 * (1.0 + zp)
    if residual > e:
        e = residual
    f1 = abs(z * d * u**dlo)
    f2 = m2 * zp / (t * t)
    if not (f1 and 2.0 * (f2 / f1) * (e / f1) <= 1.0):
        d = 0j
        for v in ddcoeffs:
            d = d * u + v
        f2 = abs(z * d * u**ddlo)
    # the ratios keep the terms finite far outside the disk, where f'**2
    # and f''*e overflow
    if f1 and 2.0 * (f2 / f1) * (e / f1) <= 1.0:
        delta = 2.0 * (e / f1) / (1.0 + math.sqrt(1.0 - 2.0 * (f2 / f1) * (e / f1)))
    else:
        delta = math.sqrt(2.0 * e / f2) if f2 else math.inf
    beta = delta / t - BOUNDARY_FORWARD_EPS
    return beta if beta > 0 else 0.0


def excursion_gf(model: WalkModel, z: float, branches: Optional[BranchSet] = None) -> float:
    """E(z) = F_0(z) for the boundary model (``solve_boundary_gfs``)."""
    return solve_boundary_gfs(model, z, branches)[0]


def excursion_gf_vandermonde(model: WalkModel, z: float, branches: Optional[BranchSet] = None
                             ) -> float:
    """E(z) = 1/(1 - z*L[P0geq]) over all the small branches, with no linear
    solve: Cramer's rule on the boundary system, its Vandermonde minors
    summed into the divided difference L (``_divided_difference``)."""
    u = _branches_at(model, z, branches).branches
    return _real(_excursion_value(model, z, u), "excursion value", z)


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
    g = P0geq - Pgeq (``_divided_difference``). The factor vanishes exactly
    when P0 = P, which is what makes it a measure of the boundary's
    perturbation. Contract: residual <= 1e-9 well inside the disk of
    analyticity. One branch solve serves both sides.
    """
    branches = _branches_at(model, z, branches)
    p_geq = model.P.nonneg_part()
    lam_sum = _divided_difference(lambda u: complex(model.P0geq(u)) - complex(p_geq(u)),
                                  branches.branches)
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
    """1 - z*P0geq(u1(z)); its root on (0, rho] is the excursion pole rho1.

    It is 1 - z*L[P0geq] over the real branch u1 alone, also for c >= 2,
    where it confirms the rho1 of ``structural_constants``; over all c
    branches it would be 1/E(z), the switch ROADMAP Q makes with rho1.
    """
    return 1.0 - z * _divided_difference(model.P0geq, [small_branch_u1(model, z)])


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
    """Every structural constant that is finite for the model, solved once
    per model object.

    The record is kept in the model's ``__dict__`` beside its other derived
    parts, as ``cached_property`` keeps them, and every later call on the
    same object returns it; an equal model parsed separately makes its own
    solve, and a solve that raises stores nothing. Concurrent first calls
    each solve the same record, and all return the one stored first.

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
    derived = model.__dict__
    try:
        return derived["_structural_constants"]
    except KeyError:
        return derived.setdefault("_structural_constants", _solve_constants(model))


def _solve_constants(model: WalkModel) -> StructuralConstants:
    """The kernel solve behind ``structural_constants``."""
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
        # rho = 1 (no drift) makes z = 1 the branch point, where u1 = tau
        u1 = small_branch_u1(model, 1.0) if rho > 1.0 + 1e-12 else tau
        den = 1.0 - _divided_difference(model.P0geq, [u1])
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
    """Largest scaled remainder of the branch expansion u1(rho(1 - eps)) =
    tau - C*sqrt(eps) + D*eps + O(eps**1.5), D = -P(tau)*P'''(tau)/(3*P''(tau)**2),
    for eps = 1e-2, 1e-3 and 1e-4, with rho, tau and C from ``constants``.

    |(u1 - tau + C*sqrt(eps))/eps - D| is O(sqrt(eps)); it is returned over
    sqrt(eps)*(|D| + C), where C keeps the scale where D is 0 (jumps -1, 0
    and 4). It reads 0.12-0.62 on the shipped models and random draws,
    and 45-89 where C is 1% off; ``verify`` fails it above
    ``U1_EXPANSION_BOUND``.
    """
    tau, C = constants.tau, constants.C
    ddP = model.P.derivative().derivative()
    p2 = float(ddP(tau))
    D = -float(model.P(tau)) * float(ddP.derivative()(tau)) / (3.0 * p2 * p2)
    worst = 0.0
    for eps in (1e-2, 1e-3, 1e-4):
        u1 = small_branch_u1(model, constants.rho * (1.0 - eps))
        ratio = (u1 - tau + C * math.sqrt(eps)) / eps
        worst = max(worst, abs(ratio - D) / (math.sqrt(eps) * (abs(D) + C)))
    return worst
