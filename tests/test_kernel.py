"""Kernel branches, generating-function evaluations, structural constants."""

import hashlib
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from latticepaths import (
    BranchDegenerateError,
    BranchSet,
    InvalidModelError,
    NumericalSingularityError,
    excursion_gf,
    excursion_gf_bf,
    excursion_gf_vandermonde,
    excursion_series,
    final_altitude_expectation,
    parse_model,
    perturbation_identity_residual,
    small_branch_u1,
    small_branches,
    solve_boundary_gfs,
    structural_constants,
    u1_expansion_check,
)
from latticepaths import kernel
from latticepaths.asymptotics import final_altitude_asymptotic
from latticepaths.kernel import boundary_denominator, u1_derivatives
from conftest import FRONT_END_PLATFORM, NEAR_CRITICAL_MODEL, fresh_copies, random_model

F = Fraction
NEVER_LEAVES_0 = "P0 has no positive jump: the walk never leaves 0"


def test_dyck_branch_closed_form(models):
    bs = small_branches(models["dyck_reflection"], 0.5)
    assert bs.u1 == pytest.approx(2 - math.sqrt(3), abs=1e-14)
    assert max(bs.residuals) <= 1e-12
    # closed form (1 - sqrt(1-z^2))/z on a grid
    for z in (0.1, 0.3, 0.7, 0.9):
        assert small_branch_u1(models["dyck_reflection"], z) == pytest.approx(
            (1 - math.sqrt(1 - z * z)) / z, abs=1e-12
        )


def test_branches_vanish_at_small_z(models, random_models):
    for model in list(models.values()) + random_models:
        bs = small_branches(model, 1e-5)
        assert all(abs(b) < 0.05 for b in bs.branches)
        assert max(bs.residuals) <= 1e-12


def test_branch_count_and_residuals(models):
    for model in models.values():
        sc = structural_constants(model)
        for t in (0.1, 0.4, 0.8, 0.95):
            bs = small_branches(model, t * sc.rho)
            assert len(bs.branches) == model.c
            assert max(bs.residuals) <= 1e-12


def test_branches_at_complex_z(models):
    model = models["motzkin_reflection"]
    z = 0.3 + 0.2j
    bs = small_branches(model, z)
    assert len(bs.branches) == 1
    assert max(bs.residuals) <= 1e-12


def test_newton_stops_where_it_cycles_between_floats(monkeypatch):
    # at z = rho/2, Newton from this model's large root (about -7.72) steps
    # between neighbouring floats whose residuals stay just above the floor;
    # it stops at its first revisit, where it ran all 60 steps (61 of the
    # solve's 67 evaluations of P), and keeps the iterate with the smaller |f|
    model = parse_model("P: -2:2/11 2:8/11 3:1/11\nP0: 1:1\n")
    z = 0.5 * structural_constants(model).rho
    refine, runs = kernel._refine_roots, []

    def counted(z, roots, P, dP, floor):
        refined = []
        for root in roots:
            residuals = []

            def evaluated(u):
                value = P(u)
                residuals.append(abs(1.0 - z * value))
                return value

            refined += refine(z, [root], evaluated, dP, floor)
            runs.append((residuals, abs(refined[-1][1])))
        return refined

    monkeypatch.setattr(kernel, "_refine_roots", counted)
    branches = small_branches(model, z)
    assert len(branches.branches) == 2 and max(branches.residuals) <= 1e-15
    assert len(runs) == 5 and sum(len(residuals) for residuals, _ in runs) <= 10
    assert all(kept == min(residuals) for residuals, kept in runs)


def test_branch_at_rho_merges_to_tau(models):
    bs = small_branches(models["motzkin_reflection"], 1.0)
    assert bs.u1 == pytest.approx(1.0, abs=1e-6)


def test_branch_degenerate_beyond_rho(models):
    with pytest.raises(BranchDegenerateError):
        small_branches(models["motzkin_reflection"], 1.2)
    with pytest.raises(BranchDegenerateError):
        small_branches(models["dyck_reflection"], 1.3)


def test_u1_monotone(models):
    for model in models.values():
        sc = structural_constants(model)
        grid = [sc.rho * t for t in np.linspace(0.02, 0.98, 30)]
        vals = [small_branch_u1(model, z) for z in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < sc.tau for v in vals)


def test_boundary_gf_limits(models):
    for model in models.values():
        gfs = solve_boundary_gfs(model, 1e-4)
        assert gfs[0] == pytest.approx(1.0, abs=1e-3)
        assert all(abs(v) < 1e-3 for v in gfs[1:])


def test_gf_matches_series_lukasiewicz(models):
    # closed single-branch form against the recurrence coefficients
    model = models["motzkin_reflection"]
    e = excursion_series(model, 80)
    z = 0.2
    series = sum(float(c) * z**n for n, c in enumerate(e))
    assert solve_boundary_gfs(model, z)[0] == pytest.approx(series, abs=1e-12)
    u1 = small_branch_u1(model, z)
    assert excursion_gf(model, z) == pytest.approx(1.0 / (1.0 - z * float(model.P0geq(u1))), abs=1e-12)


def _altitude_mass_table(model, top):
    """mass dicts for every length 0..top in one recurrence pass."""
    from latticepaths import AltitudeDistribution, step

    dist = AltitudeDistribution(n=0, mass={0: Fraction(1)})
    out = [dist.mass]
    for _ in range(top):
        dist = step(model, dist)
        out.append(dist.mass)
    return out


def test_gf_matches_series_all_models(models):
    for model in models.values():
        sc = structural_constants(model)
        masses = _altitude_mass_table(model, 80)
        for frac in (0.25, 0.5):
            z = frac * sc.rho
            tail = z**81 / (1 - z)
            gfs = solve_boundary_gfs(model, z)
            for k in range(model.c):
                series = sum(float(masses[n].get(k, 0)) * z**n for n in range(81))
                assert abs(gfs[k] - series) <= 1e-9 + tail, (k, z)


def test_vandermonde_matches_system_c2(models):
    model = models["two_down_reflection"]
    sc = structural_constants(model)
    for t in (0.15, 0.3, 0.45, 0.6, 0.8):
        z = t * sc.rho
        assert excursion_gf_vandermonde(model, z) == pytest.approx(
            solve_boundary_gfs(model, z)[0], abs=1e-9
        )


def test_vandermonde_is_the_closed_form_bit_for_bit_for_c1(models):
    # at c = 1 both routes are 1/(1 - z*L[P0geq]) over the lone branch, the
    # closed form over its real part: on a real branch they round alike
    chosen = [model for model in models.values() if model.c == 1]
    checked = 0
    for model in chosen:
        for z in _z_points(model):
            try:
                want = excursion_gf(model, z)
                got = excursion_gf_vandermonde(model, z)
            except NumericalSingularityError:
                continue
            assert repr(got) == repr(want), (str(model.P), str(model.P0), z)
            checked += 1
    assert checked == 7 * len(chosen)  # every real z of the grid


def test_vandermonde_raises_at_the_excursion_pole_as_the_closed_form_does(models):
    model = models["supercritical_drift_down"]
    rho1 = structural_constants(model).rho1
    for quantity in (excursion_gf, excursion_gf_vandermonde):
        with pytest.raises(NumericalSingularityError, match=f"excursion series pole at z={rho1}"):
            quantity(model, rho1)


def test_divided_difference_of_one_is_one(models, random_models):
    # L[1] is the divided difference of u**(c-1), its leading coefficient
    from latticepaths.kernel import _divided_difference

    chosen = list(models.values()) + [m for m in random_models if m.c >= 2]
    assert {m.c for m in chosen} == {1, 2, 3}
    checked = 0
    for model in chosen:
        for z in _z_points(model):
            try:
                u = small_branches(model, z).branches
            except NumericalSingularityError:
                continue
            assert abs(_divided_difference(lambda _: 1.0, u) - 1.0) <= 1e-12, (str(model.P), z)
            checked += 1
    assert checked == 11 * len(chosen)  # all but the underflowing z


def test_boundary_free_gf(models):
    # product formula against the recurrence with the boundary replaced by P
    dyck = models["dyck_reflection"]
    val = excursion_gf_bf(dyck, 0.5)
    assert val == pytest.approx(4 * (2 - math.sqrt(3)), abs=1e-12)
    motz_r = models["motzkin_reflection"]
    motz_a = models["motzkin_absorption"]
    e = excursion_series(motz_a, 90)
    z = 0.2
    series = sum(float(c) * z**n for n, c in enumerate(e))
    assert excursion_gf_bf(motz_r, z) == pytest.approx(series, abs=1e-12)
    assert excursion_gf_bf(motz_r, 1e-6) == pytest.approx(1.0, abs=1e-5)


def test_perturbation_identity(models):
    for model in models.values():
        sc = structural_constants(model)
        top = 0.9 * (sc.rho if sc.rho1 is None else min(sc.rho, sc.rho1))
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert perturbation_identity_residual(model, t * top) <= 1e-9


def test_perturbation_vanishes_when_boundary_free(models):
    # P0 = P makes the correction factor exactly zero
    model = models["motzkin_absorption"]
    z = 0.25
    assert excursion_gf(model, z) == pytest.approx(excursion_gf_bf(model, z), abs=1e-12)


def test_structural_constants_dyck(models):
    sc = structural_constants(models["dyck_reflection"])
    assert sc.tau == pytest.approx(1.0, abs=1e-12)
    assert sc.rho == pytest.approx(1.0, abs=1e-12)
    assert sc.C == pytest.approx(math.sqrt(2), abs=1e-12)
    assert sc.delta == 0.0


def test_structural_constants_motzkin_reflection(models):
    sc = structural_constants(models["motzkin_reflection"])
    assert sc.tau == 1.0 and sc.rho == 1.0
    assert sc.C == pytest.approx(math.sqrt(3), abs=1e-12)
    assert sc.kappa == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert sc.lam == pytest.approx(1.0, abs=1e-14)
    assert sc.rho1 == pytest.approx(1.0, abs=1e-12)


def test_structural_constants_motzkin_absorption(models):
    sc = structural_constants(models["motzkin_absorption"])
    assert sc.lam == pytest.approx(2 / 3, abs=1e-14)
    assert sc.kappa == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert sc.E_at_rho == pytest.approx(3.0, abs=1e-12)
    assert sc.E_at_1 == pytest.approx(3.0, abs=1e-12)
    assert sc.rho1 is None


def test_structural_constants_drifted():
    model = parse_model("P: -1:0.3 0:0.3 1:0.4\nP0: 0:0.5 1:0.5\n")
    sc = structural_constants(model)
    assert sc.tau == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert sc.delta == pytest.approx(0.1, abs=1e-15)
    assert sc.rho == pytest.approx(1.0 / float(model.P(sc.tau)), abs=1e-12)


def test_structural_constants_supercritical(models):
    sc = structural_constants(models["supercritical_drift_down"])
    assert sc.tau == pytest.approx(math.sqrt(5 / 3), abs=1e-10)
    assert sc.lam > 1
    assert sc.rho1 is not None and 1.0 < sc.rho1 < sc.rho
    assert abs(boundary_denominator(models["supercritical_drift_down"], sc.rho1)) <= 1e-11
    assert sc.gamma == pytest.approx(1.0 / (sc.alpha * sc.rho1**2 + 1.0), abs=1e-14)
    # E(1) = 1/(1 - P0geq(1)) because the small branch passes through 1
    assert sc.E_at_1 == pytest.approx(10.0, abs=1e-9)


def test_rho1_exists_exactly_off_the_subcritical_sign(models, random_models):
    # the supercritical formulas read sc.rho1 with no guard: rho1 is missing
    # only where the criticality sign is negative, and lies in (0, rho]
    for model in list(models.values()) + random_models:
        sc = structural_constants(model)
        assert (sc.rho1 is None) == (sc.sign < 0)
        if sc.rho1 is not None:
            assert 0 < sc.rho1 <= sc.rho


def test_criticality_trichotomy(models, random_models):
    # the near-critical model has lam = 1 + 2.2e-7 and rho1 1e-14 below rho
    for model in list(models.values()) + random_models + [parse_model(NEAR_CRITICAL_MODEL)]:
        sc = structural_constants(model)
        if sc.lam > 1 + 1e-9:
            assert sc.rho1 is not None and sc.rho1 < sc.rho
        elif sc.lam < 1 - 1e-9:
            assert sc.rho1 is None
        else:
            assert sc.rho1 == pytest.approx(sc.rho, rel=1e-10)


def test_u1_derivatives_match_finite_differences(models):
    model = models["supercritical_drift_down"]
    z, h = 0.8, 1e-6
    u, du, ddu = u1_derivatives(model, z, small_branch_u1(model, z))
    fd1 = (small_branch_u1(model, z + h) - small_branch_u1(model, z - h)) / (2 * h)
    fd2 = (small_branch_u1(model, z + h) - 2 * u + small_branch_u1(model, z - h)) / (h * h)
    assert du == pytest.approx(fd1, rel=1e-7)
    assert ddu == pytest.approx(fd2, rel=1e-3)


def test_u1_expansion_residuals(models):
    # residuals shrink linearly in eps, so the scaled residual stays bounded
    for name in ("motzkin_reflection", "dyck_reflection", "supercritical_drift_down"):
        model = models[name]
        sc = structural_constants(model)
        raw = []
        for eps in (1e-2, 1e-3, 1e-4):
            u1 = small_branch_u1(model, sc.rho * (1 - eps))
            raw.append(abs(u1 - (sc.tau - sc.C * math.sqrt(eps))))
        assert raw[0] > raw[1] > raw[2]
        assert u1_expansion_check(model, sc) < 10.0


def test_u1_expansion_check_fails_where_c_is_one_percent_off(models):
    from dataclasses import replace

    from latticepaths.kernel import U1_EXPANSION_BOUND

    for name, model in models.items():
        sc = structural_constants(model)
        assert u1_expansion_check(model, sc) < 0.6, name
        for factor in (0.99, 1.01):
            assert u1_expansion_check(model, replace(sc, C=sc.C * factor)) > U1_EXPANSION_BOUND


def test_u1_expansion_check_passes_on_random_draws_and_where_the_next_term_is_zero(
        random_models):
    # the next term D is 0 when the third derivative of P vanishes at tau,
    # as it does with jumps -1, 0 and 4 only
    zero_d = parse_model("P: -1:1/2 0:1/4 4:1/4\nP0: -1:1/4 0:1/4 1:1/2\n")
    rng = random.Random(5)
    draws = [m for m in (random_model(rng) for _ in range(130)) if not m.violations]
    assert len(draws) >= 100
    for model in [zero_d, *random_models, *draws]:
        assert u1_expansion_check(model, structural_constants(model)) < 0.7, str(model.P)


def _count_solves(monkeypatch):
    """The z of every ``small_branches`` call from now on, in order."""
    from latticepaths import kernel

    calls = []
    solve = kernel.small_branches

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(kernel, "small_branches", counted)
    return calls


def test_structural_constants_makes_at_most_one_branch_solve(models, random_models, monkeypatch):
    # rho1 is found in the branch variable, and alpha/alpha2 are taken at
    # its root u*; only E(1) solves for the branches
    calls = _count_solves(monkeypatch)
    solved = 0
    for model in fresh_copies(list(models.values()) + random_models):
        calls.clear()
        structural_constants(model)
        assert len(calls) <= 1, (str(model.P), str(model.P0), calls)
        solved += len(calls)
    assert solved > 0


def _z_bisection_rho1(model, rho):
    """Root of the boundary denominator by plain bisection in z."""
    lo, hi = 0.5 * rho, rho * (1.0 - 1e-12)
    while boundary_denominator(model, lo) <= 0:
        lo *= 0.5
    assert boundary_denominator(model, hi) <= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if boundary_denominator(model, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_rho1_matches_z_space_bisection(models, random_models):
    checked = 0
    for model in list(models.values()) + random_models:
        sc = structural_constants(model)
        if sc.sign <= 0:
            continue
        checked += 1
        assert sc.rho1 == pytest.approx(_z_bisection_rho1(model, sc.rho), rel=1e-12)
        assert abs(boundary_denominator(model, sc.rho1)) <= 1e-11
    assert checked >= 5


def test_alpha2_near_tangency_matches_high_precision_reference():
    # u* = 1.0346 sits next to tau = 1.0407, where alpha2 = 7.6e5 is badly
    # conditioned: with u1 solved again at rho1 it is 1.3e-11 (relative) off
    # the 50-digit value, at u* about 1e-14
    mpmath = pytest.importorskip("mpmath")
    model = parse_model("P: -3:9/34 -1:7/34 0:2/17 1:2/17 2:3/17 3:2/17\nP0: -1:1/10 3:9/10\n")
    sc = structural_constants(model)

    def derivatives(poly):
        terms = [(e, mpmath.mpf(c.numerator) / c.denominator) for e, c in poly.terms()]
        return [lambda u, k=k: mpmath.fsum(c * mpmath.ff(e, k) * u ** (e - k) for e, c in terms)
                for k in range(3)]

    with mpmath.workdps(50):
        (P, dP, ddP), (Q, dQ, ddQ) = derivatives(model.P), derivatives(model.P0geq)
        lo, hi = mpmath.mpf(0.5), mpmath.findroot(dP, sc.tau)  # P > P0geq at 1/2
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if P(mid) > Q(mid) else (lo, mid)
        u = (lo + hi) / 2
        z = 1 / P(u)
        du = -1 / (z * z * dP(u))
        ddu = -(2 * dP(u) * du + z * ddP(u) * du * du) / (z * dP(u))
        alpha2 = ddQ(u) * du * du + dQ(u) * ddu
        assert abs(sc.rho1 - z) <= 1e-15 * z
        assert abs(sc.alpha2 - alpha2) <= 1e-12 * abs(alpha2)


def test_rho1_of_reflecting_negative_drift_is_one(models):
    # a reflecting walk conserves mass, so the excursion pole sits at z = 1
    for name in ("drift_down_reflection", "two_down_reflection"):
        sc = structural_constants(models[name])
        assert sc.delta < 0
        assert sc.rho1 == pytest.approx(1.0, abs=1e-14)


def test_boundary_polynomials_are_built_once_per_model(models, monkeypatch):
    from latticepaths.model import LaurentPolynomial

    from_terms = LaurentPolynomial.from_terms.__func__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return from_terms(cls, *args, **kwargs)

    for model in models.values():
        first = (solve_boundary_gfs(model, 0.2), perturbation_identity_residual(model, 0.2))
        monkeypatch.setattr(LaurentPolynomial, "from_terms", classmethod(counted))
        again = (solve_boundary_gfs(model, 0.2), perturbation_identity_residual(model, 0.2))
        monkeypatch.undo()
        assert again == first
        assert built == [], str(model.P)


BOUNDARY_QUANTITIES = (solve_boundary_gfs, excursion_gf, excursion_gf_bf,
                       excursion_gf_vandermonde, perturbation_identity_residual)


def _outcome(call):
    """repr of what call() returns, or the type and message of what it raises."""
    try:
        return repr(call())
    except Exception as exc:  # the comparison covers failures too
        return type(exc), str(exc)


def _z_points(model):
    """A grid in (0, rho), complex z on |z| = rho/2, and a z so small that
    the kernel polynomial's end coefficients underflow to 0."""
    rho = structural_constants(model).rho
    grid = [rho * t for t in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    circle = [0.5 * rho * complex(math.cos(a), math.sin(a)) for a in (0.4, 1.3, 2.2, 3.1)]
    return grid + circle + [5e-324]


def test_branches_and_boundary_quantities_repr_identical_to_np_roots(models, random_models,
                                                                    monkeypatch):
    # a kernel of degree >= 3 takes the companion solve, which finds the
    # same roots as np.roots (a quadratic takes its closed form, pinned by
    # the accuracy test below); on every model a quantity handed the
    # BranchSet at z gives what it gives when it solves on its own
    from latticepaths import kernel

    companion_roots = kernel._companion_roots

    def np_roots(coeffs):
        # np.roots divides at 5e-324 as the kernel does, under the same errstate
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return [complex(r) for r in np.roots(coeffs)]

    for model in list(models.values()) + random_models:
        for z in _z_points(model):
            if model.c + model.d >= 3:
                coeffs = kernel._kernel_coeffs(model, z)
                assert _outcome(lambda: companion_roots(coeffs)) == _outcome(
                    lambda: np_roots(coeffs))
                got = _outcome(lambda: small_branches(model, z))
                monkeypatch.setattr(kernel, "_companion_roots", np_roots)
                want = _outcome(lambda: small_branches(model, z))
                monkeypatch.undo()
                assert got == want, (str(model.P), z)
            try:
                branches = small_branches(model, z)
            except Exception:
                continue
            for quantity in BOUNDARY_QUANTITIES:
                assert _outcome(lambda: quantity(model, z, branches)) == _outcome(
                    lambda: quantity(model, z)), (quantity.__name__, str(model.P), z)


def _reference_kernel_coeffs(model, z):
    """The kernel polynomial's descending coefficients as a complex128 array,
    with the same += and -= per element as the kernel's Python list."""
    coeffs = np.zeros(model.c + model.d + 1, dtype=complex)
    coeffs[model.c] += 1.0
    for k, p in enumerate(model.P.float_coeffs):
        coeffs[k] -= z * p
    return coeffs[::-1]


def test_coefficients_roots_and_residuals_bit_identical_to_a_numpy_reference(models,
                                                                            random_models):
    # the reference does not call the kernel's own coefficients, so a bit
    # that changed there would show; repr compares signed zeros too
    from latticepaths import kernel

    checked = 0
    for model in list(models.values()) + random_models:
        for z in _z_points(model):
            reference = _reference_kernel_coeffs(model, z)
            coeffs = kernel._kernel_coeffs(model, z)
            assert [repr(v) for v in coeffs] == [repr(complex(v)) for v in reference], (
                str(model.P), z)
            if model.c + model.d >= 3:  # a quadratic takes its closed form
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    want = _outcome(lambda: [complex(r) for r in np.roots(reference)])
                assert _outcome(lambda: kernel._companion_roots(coeffs)) == want, (
                    str(model.P), z)
            try:
                branches = small_branches(model, z)
            except Exception:
                continue
            checked += 1
            for u, r in zip(branches.branches, branches.residuals):
                assert repr(r) == repr(abs(1.0 - z * complex(model.P(u)))), (str(model.P), z)
    assert checked > 0


def _quadratic_kernel_models(models):
    """The shipped c = d = 1 models and the valid c = d = 1 ones of 60 c = 1
    draws."""
    rng = random.Random(11)
    draws = [random_model(rng, lukasiewicz=True) for _ in range(60)]
    return [m for m in [*models.values(), *draws] if m.c == m.d == 1 and not m.violations]


def _mp_small_root(model, z):
    """The small root of z*p1*u**2 + (z*p0 - 1)*u + z*p_-1 at 50 digits, with
    the model's float weights, by the stable form of the quadratic formula,
    and its condition number: how far a relative change of e in the
    coefficients moves it, in units of e*|u|."""
    import mpmath

    with mpmath.workdps(50):
        p_low, p0, p1 = (mpmath.mpf(p) for p in model.P.float_coeffs)
        z = mpmath.mpf(z)
        a, b, c = z * p1, z * p0 - 1, z * p_low
        sd = mpmath.sqrt(b * b - 4 * a * c)
        q = -(b + (sd if b >= 0 else -sd)) / 2
        u = c / q
        cond = (abs(a) * u * u + abs(b) * abs(u) + abs(c)) / abs(u * (2 * a * u + b))
        return u, float(cond)


def test_quadratic_kernel_branch_within_its_conditioning_of_a_50_digit_root(models):
    # at c = d = 1 the small branch comes from the closed form and Newton:
    # within 2 units of round-off times its condition number of the exact
    # root, all the way to the branch point (the companion solve reads up
    # to 3.1 units), which is 1.2e-15 or less inside 0.99 rho and 2e-9 or
    # less nearer rho
    import mpmath

    unit = 2.0**-53
    chosen = _quadratic_kernel_models(models)
    checked = 0
    for model in chosen:
        rho = structural_constants(model).rho
        ts = [k / 50 for k in range(-49, 50) if k] + [0.99, -0.99]
        ts += [10.0**-k for k in range(3, 301, 9)] + [1 - 10.0**-k for k in range(4, 13, 2)]
        for t in ts:
            z = rho * t
            u = small_branches(model, z).branches[0]
            ref, cond = _mp_small_root(model, z)
            err = float(abs((mpmath.mpc(u) - ref) / ref))
            assert err <= 2 * unit * cond, (str(model.P), t, err, cond)
            assert err <= (1.2e-15 if abs(t) <= 0.99 else 2e-9), (str(model.P), t, err)
            checked += 1
    assert len(chosen) >= 20 and checked == 139 * len(chosen)


def test_quadratic_kernel_makes_no_eigenvalue_solve(models, monkeypatch):
    from conftest import MODELS_DIR
    from latticepaths.cli import run
    from latticepaths.verify import _kernel_checks

    def no_eigvals(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called for a quadratic kernel")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    for model in _quadratic_kernel_models(models):
        rho = structural_constants(model).rho
        for z in (-0.5 * rho, 1e-200, 0.25 * rho, 0.5 * rho, 0.3j * rho):
            small_branches(model, z)
        for quantity in BOUNDARY_QUANTITIES:
            quantity(model, 0.25 * rho)
    for name, model in models.items():
        if model.c == model.d == 1:
            failed = [(check, detail) for check, ok, detail in _kernel_checks(model) if not ok]
            assert failed == [], name
            assert run(["gf-eval", "--z", "0.1", str(MODELS_DIR / f"{name}.model")]) == 0
    # a kernel of degree 4 or more still takes the companion solve
    companion = _companion_kernel_model(models)
    with pytest.raises(AssertionError, match="eigvals"):
        small_branches(companion, 0.1)
    # nor any other numpy call: the kernel's whole np fails on first use
    from latticepaths import kernel

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used for a quadratic kernel")

    chosen = [(model, structural_constants(model).rho) for model in _quadratic_kernel_models(models)]
    monkeypatch.setattr(kernel, "np", NoNumpy())
    for model, rho in chosen:
        for z in (-0.5 * rho, 1e-200, 0.25 * rho, 0.5 * rho, 0.3j * rho):
            small_branches(model, z)
        for quantity in (solve_boundary_gfs, excursion_gf, excursion_gf_bf,
                         perturbation_identity_residual):
            for z in (-0.5 * rho, 0.25 * rho, 0.5 * rho):
                quantity(model, z)
    with pytest.raises(AssertionError, match="np.linalg used"):
        small_branches(companion, 0.1)


def _companion_kernel_model(models):
    """The first c >= 2 model of ``_c_ge_2_models`` whose kernel has degree
    c + d >= 4, so that its roots come from the companion solve."""
    return next(m for m in _c_ge_2_models(models) if m.c + m.d >= 4)


def _cubic_kernel_models(models):
    """``two_down_reflection`` and the valid c + d = 3 models of 100 seed-7
    draws: c = 2, d = 1 and c = 1, d = 2."""
    rng = random.Random(7)
    draws = [random_model(rng) for _ in range(100)]
    return [models["two_down_reflection"],
            *(m for m in draws if m.c + m.d == 3 and not m.violations)]


def test_degree_3_kernel_makes_no_eigenvalue_solve(models, monkeypatch):
    # the roots of a cubic come from Cardano and deflation in plain complex
    # arithmetic, where the terms stay finite; at 1e-200 they overflow, and
    # the call raises before any numpy call
    from latticepaths import kernel

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used for a cubic kernel")

    chosen = [(model, structural_constants(model).rho) for model in _cubic_kernel_models(models)]
    assert len(chosen) == 22 and {(m.c, m.d) for m, _ in chosen} == {(2, 1), (1, 2)}
    monkeypatch.setattr(kernel, "np", NoNumpy())
    for model, rho in chosen:
        for z in (-0.5 * rho, 0.25 * rho, 0.5 * rho, 0.3j * rho):
            assert len(small_branches(model, z).branches) == model.c
        with pytest.raises(NumericalSingularityError, match="closed form overflows"):
            small_branches(model, 1e-200)
    with pytest.raises(AssertionError, match="np.linalg used"):
        small_branches(_companion_kernel_model(models), 0.1)


def _mp_kernel_roots(model, z):
    """The roots of u**c - z*u**c*P(u), with P's float weights and z as
    given, at 50 digits (more below |z| = 1e-50, where they spread over
    hundreds of decades)."""
    import mpmath

    with mpmath.workdps(50 if abs(z) > 1e-50 else 400):
        coeffs = [-mpmath.mpmathify(z) * mpmath.mpf(p) for p in reversed(model.P.float_coeffs)]
        coeffs[-1 - model.c] += 1
        return mpmath.polyroots(coeffs, maxsteps=20000, extraprec=2000)


def test_degree_3_branches_match_50_digit_roots(models):
    # relative error of every branch the closed form returns at
    # _golden_points, but rho itself, the double root: within 2e-15, and
    # 1e-14 at 0.999 rho, where the branch is worse conditioned; the
    # companion solve read up to 1.2e-15 and 8.0e-15 at the same points.
    # Where the closed form overflows (1e-100 with c = 2, 1e-300) the call
    # raises, as at 1e200, outside the disk, where the branches collide
    import mpmath

    checked = raised = 0
    for model in _cubic_kernel_models(models):
        sc = structural_constants(model)
        for z in _golden_points(sc):
            if z == sc.rho:
                continue
            try:
                branches = small_branches(model, z).branches
            except (NumericalSingularityError, BranchDegenerateError):
                raised += 1
                continue
            roots = _mp_kernel_roots(model, z)
            bound = 1e-14 if z == 0.999 * sc.rho else 2e-15
            for u in branches:
                ref = min(roots, key=lambda r: abs(r - u))
                err = float(abs(mpmath.mpc(u) - ref) / abs(ref))
                assert err <= bound, (str(model.P), z, u, err)
                checked += 1
    assert (checked, raised) == (564, 40)


@pytest.mark.parametrize("P", ["-1:1/4 0:1/4 1:1/4 2:1/4", "-1:1/2 1:1/4 2:1/4",
                               "-1:1/2 0:1/4 2:1/4"])
def test_c1_d2_branch_from_the_closed_form_down_to_where_its_terms_overflow(P):
    # u1 = z*p_-1 + O(z**2) to 12 digits from 1e-20 down to 1e-100, where
    # the companion solve lost the small branch from about 1e-30; from
    # about 1e-103 p**3 overflows in Cardano's terms and the call raises
    model = parse_model(f"P: {P}\nP0: 0:1/2 1:1/2\n")
    p_low = model.P.float_coeffs[0]
    for k in range(20, 101, 5):
        z = 10.0**-k
        assert small_branch_u1(model, z) == pytest.approx(z * p_low, rel=1e-12), k
    for z in (1e-110, 1e-200, 1e-300):
        with pytest.raises(NumericalSingularityError, match="closed form overflows"):
            small_branches(model, z)


def test_branch_set_is_a_frozen_record_of_its_fields(models):
    import copy
    import pickle
    from dataclasses import fields

    branches = small_branches(models["motzkin_reflection"], 0.3)
    same = BranchSet(z=branches.z, branches=branches.branches, residuals=branches.residuals)
    assert [f.name for f in fields(BranchSet)] == ["z", "branches", "residuals"]
    assert same == branches and hash(same) == hash(branches)
    assert same is not branches
    assert BranchSet(branches.z, branches.branches, (1e-13,)) != branches
    assert branches != (branches.z, branches.branches, branches.residuals)
    assert repr(branches).startswith("BranchSet(z=(0.3+0j), branches=(")
    assert repr(branches) == (f"BranchSet(z={branches.z!r}, branches={branches.branches!r}, "
                              f"residuals={branches.residuals!r})")
    for name in ("z", "branches", "residuals", "extra"):
        with pytest.raises(AttributeError):
            setattr(branches, name, 0)
    with pytest.raises(AttributeError):
        del branches.z
    assert not hasattr(branches, "__dict__")
    assert copy.copy(branches) == pickle.loads(pickle.dumps(branches)) == branches
    assert branches.u1 == branches.branches[0].real
    assert branches == same


@pytest.mark.parametrize("b", [-1e8 + 0j, complex(-6e7, 8e7)])
def test_quadratic_formula_flips_the_square_root_against_b(b):
    # with Re(conj(b)*sqrt(b**2 - 4ac)) < 0 the root's sign flips, so that
    # b + sd adds and the small root, near 1/|b|, keeps its digits; the
    # reference is (-b +- sqrt(b**2 - 4))/2 at 50 digits
    import mpmath

    from latticepaths import kernel

    roots = kernel._quadratic_roots(1 + 0j, b, 1 + 0j)
    with mpmath.workdps(50):
        sd = mpmath.sqrt(mpmath.mpc(b) ** 2 - 4)
        want = [(-mpmath.mpc(b) + sd) / 2, (-mpmath.mpc(b) - sd) / 2]
    assert len(roots) == 2
    for r in want:
        got = min(roots, key=lambda v: abs(mpmath.mpc(v) - r))
        assert abs(mpmath.mpc(got) - r) <= 1e-15 * abs(r), (got, r)


@pytest.mark.parametrize("name", ["motzkin_reflection", "dyck_absorption",
                                  "supercritical_drift_down"])
@pytest.mark.parametrize("z", [1e160, 1e200, -1e200, 1e200j, 1e300])
def test_quadratic_kernel_far_outside_the_disk_reports_the_collision(models, name, z):
    # b**2 - 4ac overflows from |z| of about 1e154 unless the coefficients
    # are scaled; there the branches of modulus 1 or so meet the large ones
    with pytest.raises(BranchDegenerateError, match="small and large branches collide"):
        small_branches(models[name], z)


@pytest.mark.parametrize("k", [5, 8, 12, 50, 160, 200])
def test_far_outside_the_disk_a_root_is_accepted_where_newton_stops(models, k):
    # u*P(u) = 0.1u**2 + 0.5u + 0.4 has roots -1 and -4, so the small branch
    # tends to -1; its residual's round-off grows with the size of z*P's
    # terms, 1.2e-12 at 1e5, past the 1e-12 that held below |z| = 999
    branches = small_branches(models["critical_drift_down"], 10.0 ** k).branches
    assert len(branches) == 1
    assert abs(branches[0] + 1) < 1e-4


@pytest.mark.parametrize("z", [1e-250, 1e-300])
def test_motzkin_branch_at_tiny_z_is_z_over_3(models, z):
    # u1 = z/3 + O(z**2); Newton stops at the large root, whose Horner
    # overflows, and the small one comes straight from the closed form
    assert small_branch_u1(models["motzkin_reflection"], z) == pytest.approx(z / 3, rel=1e-12)


def test_boundary_quantities_make_one_solve_or_none_when_handed_branches(models, monkeypatch):
    calls = _count_solves(monkeypatch)
    for model in models.values():
        z = 0.3 * structural_constants(model).rho
        branches = small_branches(model, z)
        for quantity in BOUNDARY_QUANTITIES:
            calls.clear()
            quantity(model, z)
            assert calls == [z], (quantity.__name__, str(model.P))
            calls.clear()
            quantity(model, z, branches)
            assert calls == [], (quantity.__name__, str(model.P))


def test_gf_eval_makes_one_solve(monkeypatch):
    from conftest import MODELS_DIR
    from latticepaths.cli import run

    calls = _count_solves(monkeypatch)
    # c = 1 and c = 2, which also prints the Vandermonde form
    for name in ("motzkin_absorption", "two_down_reflection"):
        calls.clear()
        assert run(["gf-eval", "--z", "0.3", str(MODELS_DIR / f"{name}.model")]) == 0
        assert calls == [0.3], name


def test_branches_from_another_z_raise(models):
    for name in ("motzkin_absorption", "two_down_reflection"):
        model = models[name]
        branches = small_branches(model, 0.2)
        for quantity in BOUNDARY_QUANTITIES:
            with pytest.raises(ValueError):
                quantity(model, 0.3, branches)
            quantity(model, 0.2, branches)


def _lukasiewicz_models(models):
    """The shipped c = 1 models and the valid ones of 50 c = 1 draws."""
    rng = random.Random(3)
    draws = [random_model(rng, lukasiewicz=True) for _ in range(50)]
    return [m for m in models.values() if m.c == 1] + [m for m in draws if not m.violations]


def test_c1_boundary_value_is_the_excursion_closed_form_bit_for_bit(models):
    # at c = 1, F_0 and E(z) are one float: 1/(1 - z*P0geq(u1(z))), on
    # both sides of 0 and up to 0.99 of the nearer singularity
    checked = 0
    for model in _lukasiewicz_models(models):
        sc = structural_constants(model)
        top = min(sc.rho, sc.rho1 or sc.rho)
        for t in (-0.99, -0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            z = t * (sc.rho if t < 0 else top)
            u1 = small_branches(model, z).branches[0]
            closed = 1.0 / (1.0 - z * float(model.P0geq(u1.real)))
            got = solve_boundary_gfs(model, z)
            assert repr(got) == repr([excursion_gf(model, z)]) == repr([closed]), (
                str(model.P), str(model.P0), z)
            checked += 1
    assert checked == 12 * 56


def test_c1_boundary_values_make_no_linear_solve(models, monkeypatch):
    from latticepaths.verify import _kernel_checks

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called for a c = 1 model")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    for model in _lukasiewicz_models(models):
        rho = structural_constants(model).rho
        for z in (-0.5 * rho, 0.25 * rho, 0.5 * rho):
            solve_boundary_gfs(model, z)
            excursion_gf(model, z)
    for name, model in models.items():
        if model.c == 1:
            failed = [(check, detail) for check, ok, detail in _kernel_checks(model) if not ok]
            assert failed == [], name


def _c_ge_2_models(models):
    """``two_down_reflection`` and the valid c >= 2 draws of 100 seed-7 draws."""
    rng = random.Random(7)
    draws = [random_model(rng) for _ in range(100)]
    return [models["two_down_reflection"], *(m for m in draws if m.c >= 2 and not m.violations)]


def _mp_boundary_values(model, z, branches):
    """F_0..F_{c-1} at 60 digits, from the roots of u**c - z*u**c*P(u) (P's
    float weights and z as given) that Newton at 60 digits reaches from the
    float branches, and r_k on their float coefficients. The roots are those
    of ``_mp_kernel_roots``; its polyroots took 3.7 s on these points, where
    Newton from a branch right to 1e-15 takes a few steps."""
    import mpmath

    with mpmath.workdps(60):
        coeffs = [-mpmath.mpf(z) * mpmath.mpf(p) for p in reversed(model.P.float_coeffs)]
        coeffs[-1 - model.c] += 1
        roots = []
        for u in branches.branches:
            u = mpmath.mpc(u)
            for _ in range(30):
                f, df = mpmath.polyval(coeffs, u, derivative=True)
                u -= f / df
                if abs(f / df) <= mpmath.mpf(10) ** -58 * abs(u):
                    break
            roots.append(u)
        A = mpmath.matrix([[mpmath.polyval([mpmath.mpf(v) for v in reversed(r.float_coeffs)], u)
                            * u**r.lo for r in model.boundary_corrections] for u in roots])
        b = mpmath.matrix([1 / mpmath.mpf(z)] * model.c)
        return [complex(v) for v in mpmath.lu_solve(A, b)]


def test_c_le_3_boundary_values_are_as_accurate_as_the_linear_solve(models):
    # ROADMAP J's contract at verify's points: each F_k from the adjugate is
    # within 1e-9 relative (1e-12 absolute) of a 60-digit solve, and its
    # worst error is at most 1.5 times numpy's solve of the same rows (it
    # read 2.04e-10 against 2.68e-10); or the forward-error gate refuses it:
    # two c = 3 points at 0.05 rho, whose F_2 the solve gets 2.7e-9 and
    # 1.6e-9 relative off
    refused = {("-3:1/3 -2:1/3 0:1/9 2:2/9", 0.05), ("-3:1/24 -2:7/24 2:1/3 3:1/3", 0.05)}
    checked = values = 0
    worst = worst_lapack = 0.0
    for model in _c_ge_2_models(models):
        rho = structural_constants(model).rho
        for t in (0.05, 0.15, 0.25, 0.35, 0.45):
            z = rho * t
            branches = small_branches(model, z)
            checked += 1
            if (model.P.to_spec_string(), t) in refused:
                with pytest.raises(NumericalSingularityError, match="F_2 .* forward-error bound"):
                    solve_boundary_gfs(model, z, branches)
                continue
            got = solve_boundary_gfs(model, z, branches)
            want = _mp_boundary_values(model, z, branches)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (str(model.P), z)
            rows = [[complex(r(u)) for r in model.boundary_corrections] for u in branches.branches]
            lapack = np.linalg.solve(rows, [1.0 / z] * model.c).tolist()
            for v, w, ref in zip(got, lapack, want):
                worst = max(worst, abs(v - ref) / abs(ref))
                worst_lapack = max(worst_lapack, abs(w - ref) / abs(ref))
                values += 1
    assert (checked, values) == (5 * 34, 419)
    assert worst <= 1.5 * worst_lapack, (worst, worst_lapack)


# c = 4 and 5: the two c = 4 models solve on every point here, the c = 5 one
# is refused at 0.05 rho
C_GE_4_MODELS = ("P: -4:1/4 -1:1/4 0:1/4 1:1/4\nP0: 0:1/2 1:1/2\n",
                 "P: -4:1/5 -3:1/5 -1:1/5 1:1/5 2:1/5\nP0: 0:1/2 1:1/2\n",
                 "P: -5:1/6 -2:1/6 -1:1/6 0:1/6 1:1/6 3:1/6\nP0: -2:1/4 0:1/4 2:1/2\n")


def test_c_ge_4_boundary_values_are_the_linear_solve_bit_for_bit():
    # from c = 4 the system keeps its one np.linalg.solve: F_k is numpy's
    # solve of sum_k r_k(u_i) F_k = 1/z, taken here outside the kernel
    checked = 0
    for text in C_GE_4_MODELS:
        model = parse_model(text)
        rho = structural_constants(model).rho
        for t in (0.05, 0.15, 0.25, 0.35, 0.45, -0.5):
            z = rho * t
            branches = small_branches(model, z)
            try:
                got = solve_boundary_gfs(model, z, branches)
            except NumericalSingularityError:
                continue
            A = np.array([[complex(r(u)) for r in model.boundary_corrections]
                          for u in branches.branches])
            x = np.linalg.solve(A, np.array([1.0 / z] * model.c, dtype=complex))
            assert repr(got) == repr([float(v.real) for v in x]), (text, t)
            checked += 1
    assert checked == 17


def test_c_le_3_boundary_system_makes_no_numpy_call(models, monkeypatch):
    # c = 2 and 3 take the adjugate in plain complex arithmetic: handed its
    # branches, the boundary system makes no numpy call, and a c = 2 model
    # of degree 3, whose roots come in closed form, makes none at all; from
    # c = 4 the system takes one np.linalg.solve and one np.linalg.inv
    from latticepaths import kernel

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used")

    handed = []
    for model in _c_ge_2_models(models):
        rho = structural_constants(model).rho
        for t in (0.05, 0.25, 0.45, -0.5):
            branches = small_branches(model, t * rho)
            handed.append((model, t * rho, branches,
                           _outcome(lambda: solve_boundary_gfs(model, t * rho, branches))))
    assert {m.c for m, _, _, _ in handed} == {2, 3}
    two_down = models["two_down_reflection"]
    rho = structural_constants(two_down).rho
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "np", NoNumpy())
        for model, z, branches, want in handed:
            assert _outcome(lambda: solve_boundary_gfs(model, z, branches)) == want
        for z in (0.05 * rho, 0.3 * rho, 0.9 * rho, -0.5 * rho):
            for quantity in (solve_boundary_gfs, excursion_gf, perturbation_identity_residual):
                quantity(two_down, z)
    calls = []
    for name in ("solve", "inv"):
        def recorded(*args, call=getattr(np.linalg, name), name=name):
            calls.append(name)
            return call(*args)
        monkeypatch.setattr(np.linalg, name, recorded)
    model = parse_model(C_GE_4_MODELS[0])
    branches = small_branches(model, 0.3 * structural_constants(model).rho)
    solve_boundary_gfs(model, branches.z.real, branches)
    assert calls == ["solve", "inv"]


def test_c_ge_2_boundary_system_with_two_equal_branches_is_singular(models):
    # the last two rows equal: the adjugate's determinant is an exact 0 at
    # c = 2 and 3, each of its products met once with its factors swapped
    for model in (models["two_down_reflection"],
                  parse_model("P: -3:1/3 0:7/15 2:1/5\nP0: 0:1/2 1:1/2\n")):
        z = 0.3 * structural_constants(model).rho
        u = small_branches(model, z).branches
        twice = (*u[: model.c - 1], u[model.c - 2])
        with pytest.raises(NumericalSingularityError, match="boundary system singular"):
            solve_boundary_gfs(model, z, BranchSet(complex(z), twice, (0.0,) * model.c))


def test_c_ge_2_boundary_system_with_a_large_residual_is_ill_conditioned(models, monkeypatch):
    # a solution moved by 1e-6 of 1/z leaves a residual above the gate,
    # 1e-8*max(1, |1/z|)
    from latticepaths import kernel

    model = models["two_down_reflection"]
    z = 0.3 * structural_constants(model).rho
    branches = small_branches(model, z)
    solve_boundary_gfs(model, z, branches)
    adjugate_solve = kernel._adjugate_solve

    def moved(rows, rhs):
        x, inverse = adjugate_solve(rows, rhs)
        return [v + 1e-6 / z for v in x], inverse

    monkeypatch.setattr(kernel, "_adjugate_solve", moved)
    with pytest.raises(NumericalSingularityError, match="boundary system ill conditioned"):
        solve_boundary_gfs(model, z, branches)


def _series_values(model, z, series):
    """F_k(z) from the exact altitude series, summed in float: every
    coefficient is a non-negative weight, so the sum does not cancel."""
    return [math.fsum(float(w) * z**t for t, w in enumerate(coeffs)) for coeffs in series]


def test_c_ge_2_boundary_values_at_small_z_are_right_or_raise(models):
    # ROADMAP J's grid: z = rho*10**-k for k = 1..12, 1e-100 and 1e-300.
    # Each F_k the kernel returns is within 1e-9 relative (1e-12 absolute,
    # pytest.approx's floor, as in test_cli's gf-eval case) of the exact
    # altitude series; below about 1e-6 rho the forward-error gate refuses
    # what the solve cannot resolve. 30 terms leave a tail below 1e-24
    # relative at 0.1 rho
    from latticepaths.enumeration import altitude_series

    right = raised = 0
    for model in _c_ge_2_models(models):
        sc = structural_constants(model)
        series = altitude_series(model, 30, model.c)
        for z in [sc.rho * 10.0**-k for k in range(1, 13)] + [1e-100, 1e-300]:
            try:
                got = solve_boundary_gfs(model, z)
            except NumericalSingularityError:
                raised += 1
                continue
            want = _series_values(model, z, series)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (str(model.P), z)
            right += 1
    assert (right, raised) == (83, 393)  # 34 models, 14 points


def test_gate_passes_two_down_reflection_down_to_1e_4_and_refuses_below(models):
    # F_1 = z/2 + O(z**2) comes from rows of size about 1/z: at 1e-4 the
    # solve is 1.0e-9 relative off and the bound reads 8e-9, at 3e-5 4.3e-9
    # and 4.9e-8, so the gate passes the first and refuses the second
    from latticepaths.enumeration import altitude_series

    model = models["two_down_reflection"]
    series = altitude_series(model, 30, 2)
    for z in (0.5, 0.1, 1e-2, 1e-3, 1e-4):
        assert solve_boundary_gfs(model, z) == pytest.approx(
            _series_values(model, z, series), rel=2e-9), z
    for z in (3e-5, 1e-5, 1e-8, 1e-20):
        with pytest.raises(NumericalSingularityError, match="F_1 .* forward-error bound"):
            solve_boundary_gfs(model, z)


def test_gate_refuses_c_ge_2_values_at_the_branch_point_and_passes_them_next_to_it(models):
    # at z = rho the c-th branch is a double root, right only to about the
    # square root of round-off, and the gate sees it through each branch's
    # own error: every c >= 2 model here raises there, where 16 of them
    # returned values 1.8e-9 to 2.7e-7 relative off a 60-digit solve with
    # exit 0 (F_0 of P: -2:2/9 -1:5/27 0:1/3 1:7/27 / P0: 0:9/16 1:7/16
    # 6.7e-8 off among them).
    # At 0.99 rho and 0.999 rho, where the branch is a simple root, every
    # value comes back, within 1.2e-13 relative of a 60-digit solve
    from latticepaths import kernel

    for model in _c_ge_2_models(models):
        rho = structural_constants(model).rho
        with pytest.raises(NumericalSingularityError, match="forward-error bound"):
            solve_boundary_gfs(model, rho)
        for t in (0.99, 0.999):
            branches = small_branches(model, t * rho)
            want = _mp_boundary_values(model, t * rho, branches)
            assert solve_boundary_gfs(model, t * rho, branches) == pytest.approx(
                want, rel=1.2e-13), (str(model.P), t)
    # the largest branch of two_down_reflection, beyond eps of itself: a few
    # units of round-off inside the disk, about sqrt(1e-15) at rho
    model = models["two_down_reflection"]
    system = kernel._boundary_system(model)
    rho = structural_constants(model).rho
    for t, low, high in ((0.3, 0.0, 1e-15), (0.999, 1e-14, 1e-12), (1.0, 1e-9, 1e-6)):
        branches = small_branches(model, t * rho)
        u, residual = branches.branches[-1], branches.residuals[-1]
        beta = kernel._branch_error(system[2], t * rho, u, abs(u), residual)
        assert low <= beta <= high, (t, beta)


def test_an_unreachable_altitude_reads_exactly_zero_and_is_not_gated(models):
    # P on even jumps keeps the parity of the altitude, and P0geq's jumps 0
    # and 2 are even, so F_1 is identically 0: the solve leaves round-off of
    # about 1e-15 there, which no relative gate could accept
    from latticepaths.enumeration import altitude_series

    for text in ("P: -2:4/7 0:1/14 2:5/14\nP0: -1:3/4 2:1/4\n",
                 "P: -2:7/20 0:3/10 2:7/20\nP0: -2:2/5 0:9/20 2:3/20\n"):
        model = parse_model(text)
        assert not any(altitude_series(model, 40, 2)[1])
        rho = structural_constants(model).rho
        for t in (0.006, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, -0.5):
            values = solve_boundary_gfs(model, t * rho)
            assert values[1] == 0.0 and values[0] > 0, (text, t)
    # the odd jump of P0 reaches odd altitudes, so F_1 is not 0 there
    model = parse_model("P: -2:1/11 0:5/11 2:5/11\nP0: 1:1/4 2:3/4\n")
    assert solve_boundary_gfs(model, 0.3 * structural_constants(model).rho)[1] > 0


@pytest.mark.parametrize("z", [1e8, 1e200])
def test_a_root_is_accepted_where_its_residual_is_round_off_of_z_p_terms(z):
    # the branch -0.142799 has z*P terms of about 14*|z| (its u**-3 term),
    # so its residual, 1.2e-7 at 1e8 and 2.4e185 at 1e200, is round-off
    # above Newton's floor 1e-15*(1 + |z|) but within 1e-15*(1 + |z|*P(|u|))
    model = parse_model("P: -3:1/24 -2:7/24 2:1/3 3:1/3\nP0: 3:1\n")
    branches = small_branches(model, z)
    assert abs(branches.branches[0] + 0.1427989727) < 1e-9
    for u, r in zip(branches.branches, branches.residuals):
        assert r <= 1e-15 * (1 + abs(z) * model.P(abs(u)))


def _count_evaluations(monkeypatch):
    """The argument of every polynomial evaluation from now on, in order."""
    from latticepaths.model import LaurentPolynomial

    args = []
    evaluate = LaurentPolynomial.__call__

    def counted(self, x):
        args.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(LaurentPolynomial, "__call__", counted)
    return args


def test_constants_and_estimates_evaluate_no_polynomial_at_a_fraction(models, random_models,
                                                                     monkeypatch):
    # exact values at u = 1 are coefficient sums; Horner on Fractions is
    # reserved for the exact DP's callers
    from latticepaths import (arch_asymptotic, classify, excursion_asymptotic,
                              final_altitude_asymptotic, meander_ratio_asymptotic)
    from latticepaths.errors import LatticePathError

    args = _count_evaluations(monkeypatch)
    calls = [structural_constants, classify] + [
        lambda model, estimate=estimate: estimate(model, 100)
        for estimate in (excursion_asymptotic, arch_asymptotic, meander_ratio_asymptotic,
                         final_altitude_asymptotic)]
    evaluated = 0
    for model in fresh_copies(list(models.values()) + random_models):
        for call in calls:
            args.clear()
            try:
                call(model)
            except LatticePathError:
                pass
            evaluated += len(args)
            assert not [x for x in args if isinstance(x, Fraction)], str(model.P)
    assert evaluated > 0


def test_structural_constants_are_solved_once_per_model_object(models, random_models,
                                                                monkeypatch):
    # the record is kept on the model: the first call solves, and a second
    # returns the same object with no branch solve and no evaluation
    solves = _count_solves(monkeypatch)
    args = _count_evaluations(monkeypatch)
    checked = 0
    for model in fresh_copies(list(models.values()) + random_models):
        if model.violations:
            continue
        args.clear()
        first = structural_constants(model)
        assert args, str(model.P)
        solves.clear()
        args.clear()
        assert structural_constants(model) is first
        assert (solves, args) == ([], []), str(model.P)
        checked += 1
    assert checked >= len(models)


def test_an_equal_model_parsed_separately_makes_its_own_solve(models, monkeypatch):
    # the record is kept per model object, not per process or per value
    args = _count_evaluations(monkeypatch)
    for model in models.values():
        first = structural_constants(model)
        (copy,) = fresh_copies([model])
        args.clear()
        again = structural_constants(copy)
        assert copy == model and args, str(model.P)
        assert again == first and again is not first


def test_a_solve_that_raises_stores_nothing(models, monkeypatch):
    # an invalid model raises on every call; a fault inside the solve
    # raises on every call it lasts, and the next call after it solves
    never = parse_model("P: -1:4/13 0:7/13 1:2/13\nP0: -1:1/2 0:1/2\n")
    for _ in range(2):
        with pytest.raises(InvalidModelError, match=f"^{NEVER_LEAVES_0}$"):
            structural_constants(never)
    (model,) = fresh_copies([models["supercritical_drift_down"]])

    def fault(*args):
        raise NumericalSingularityError("injected")

    monkeypatch.setattr(kernel, "_criticality_sign", fault)
    for _ in range(2):
        with pytest.raises(NumericalSingularityError, match="^injected$"):
            structural_constants(model)
    monkeypatch.undo()
    assert structural_constants(model) == structural_constants(models["supercritical_drift_down"])


def test_tau_and_rho1_need_few_evaluations(models, monkeypatch):
    # safeguarded Newton inside the bracket: bisection to 1e-13 and a Newton
    # polish took 61 evaluations for tau and 99-100 for rho1
    from latticepaths.kernel import _find_rho1, _find_tau

    constants = {name: structural_constants(model) for name, model in models.items()}
    args = _count_evaluations(monkeypatch)
    for name, model in models.items():
        sc = constants[name]
        args.clear()
        assert _find_tau(model) == sc.tau
        assert len(args) <= 20, (name, len(args))
        args.clear()
        assert _find_rho1(model, sc.rho, sc.tau, sc.sign)[0] == sc.rho1
        assert len(args) <= 35, (name, len(args))


def test_bracketed_newton_bisects_where_newton_leaves_the_bracket():
    from latticepaths.kernel import ROOT_REL_WIDTH, _bracketed_newton

    # no usable derivative: every step is a bisection
    assert _bracketed_newton(lambda u: u - 0.3, lambda u: 0.0, 0.0, 1.0) == pytest.approx(
        0.3, rel=2 * ROOT_REL_WIDTH)
    # a Newton step from the midpoint of this flat-then-steep f overshoots
    # the bracket
    def f(u):
        return math.atan(20.0 * (u - 0.9))

    def df(u):
        return 20.0 / (1.0 + (20.0 * (u - 0.9)) ** 2)

    assert _bracketed_newton(f, df, 0.0, 1.0) == pytest.approx(0.9, rel=1e-15)


def _mp_derivative(mpmath, poly, k):
    """The kth derivative of ``poly`` as a function of an mpmath number."""
    terms = [(e, mpmath.mpf(c.numerator) / c.denominator) for e, c in poly.terms()]
    return lambda u: mpmath.fsum(c * mpmath.ff(e, k) * u ** (e - k) for e, c in terms)


def test_tau_and_rho1_within_an_ulp_of_high_precision_roots(models, random_models):
    # tau and u* may land on either float next to the true root: 2.3e-16
    # bounds one ulp relative; bisection with a Newton polish was at worst
    # 1.8e-16 for tau and 2.2e-16 for rho1 over 250 models
    import random

    from conftest import NEAR_CRITICAL_MODEL, random_model
    from latticepaths.kernel import _find_rho1

    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    cases = list(models.values()) + random_models + [random_model(rng) for _ in range(40)]
    checked = 0
    with mpmath.workdps(40):
        for model in cases:
            if model.P0.hi < 1:  # 6 of the 40 draws, which validate rejects
                with pytest.raises(InvalidModelError, match=f"^{NEVER_LEAVES_0}$"):
                    structural_constants(model)
                continue
            sc = structural_constants(model)
            tau = mpmath.findroot(_mp_derivative(mpmath, model.P, 1), mpmath.mpf(sc.tau))
            assert abs(sc.tau - tau) <= 2.3e-16 * tau, str(model.P)
            u_star = _find_rho1(model, sc.rho, sc.tau, sc.sign)[1]
            if u_star is None:
                continue
            checked += 1
            P, Q = _mp_derivative(mpmath, model.P, 0), _mp_derivative(mpmath, model.P0geq, 0)
            u = mpmath.findroot(lambda u: P(u) - Q(u), mpmath.mpf(u_star))
            assert abs(sc.rho1 - 1 / P(u)) <= 2.3e-16 / P(u), (str(model.P), str(model.P0))
    assert checked >= 10


def test_excursion_values_are_left_unset_for_c_ge_2():
    # E_at_rho = 1/(1 - lam) and E_at_1 = 1/(1 - P0geq(u1(1))) hold for
    # c = 1 only; for c >= 2 they were wrong wherever they were set (E_at_1
    # on 97 and E_at_rho on 87 of the 151 valid c >= 2 draws below), here
    # E(1) = 1.2857 where the boundary system and the summed series give 1.0551
    model = parse_model("P: -2:1/2 -1:1/9 0:1/3 1:1/18\nP0: -2:7/9 1:2/9\n")
    assert solve_boundary_gfs(model, 1.0)[0] == pytest.approx(1.0551040906, rel=1e-9)
    assert sum(excursion_series(model, 400, "float")) == pytest.approx(1.0551040906, rel=1e-9)
    rng = random.Random(7)
    checked = 0
    for model in [model, *(random_model(rng) for _ in range(400))]:
        if model.c > 1 and not model.violations:
            sc = structural_constants(model)
            assert (sc.E_at_rho, sc.E_at_1) == (None, None), (str(model.P), str(model.P0))
            checked += 1
    assert checked == 1 + 151


def test_small_branches_raise_on_a_nan_branch(models, monkeypatch):
    # a NaN root sorts among the small branches, and its NaN residual
    # compares false with the tolerance; Newton stops before a non-finite
    # step, so a refinement that returns a NaN root and f(root) stands in for one
    from latticepaths import kernel

    nan = complex(math.nan, math.nan)
    monkeypatch.setattr(kernel, "_refine_roots",
                        lambda z, roots, P, dP, floor: [(nan, nan)] * len(roots))
    with pytest.raises(NumericalSingularityError, match="residual nan"):
        small_branches(models["motzkin_reflection"], 0.1)


def test_newton_stops_before_a_non_finite_step(models):
    # at z = 1e-155 P's Horner overflows at the large root, 3e155, and the
    # next Newton step would be NaN: the root is kept, and the small branch,
    # z/3 + O(z^2), is found; with c = 2 the cubic's closed form overflows
    # long before (from about 1e-52), so the call raises there
    for z in (1e-155, 1e-200):
        branches = small_branches(models["motzkin_reflection"], z)
        assert branches.u1 == pytest.approx(z / 3, rel=1e-12)
        with pytest.raises(NumericalSingularityError, match="overflows at a root"):
            small_branches(models["two_down_reflection"], z)


def test_small_branches_reject_non_finite_z(models):
    for z in (math.nan, math.inf, -math.inf, complex(0.1, math.inf)):
        with pytest.raises(ValueError, match="z must be finite"):
            small_branches(models["two_down_reflection"], z)


def test_a_boundary_that_never_leaves_0_has_no_constants_or_estimate():
    # from 0 the walk stays at 0 or is absorbed, so the exact final
    # altitude is 0 at every n, where the estimate read 5.520734817053883
    model = parse_model("P: -1:4/13 0:7/13 1:2/13\nP0: -1:1/2 0:1/2\n")
    assert final_altitude_expectation(model, 40, "exact") == 0
    for call in (structural_constants, lambda m: final_altitude_asymptotic(m, 1000)):
        with pytest.raises(InvalidModelError, match=f"^{NEVER_LEAVES_0}$"):
            call(model)


# SHA-256 over the repr of every value, or the type and text of every raise,
# of the kernel's public calls on the shipped c = d = 1 models at the points
# of ``_golden_points``, taken before the quadratic solve lost its per-call
# overhead. A change to any of these outputs must update it on purpose and
# say why in CHANGES.md. These models take no LAPACK call, so the digest
# holds on every numpy build. It moved once: accepting a root where Newton
# stops gave ``critical_drift_down`` values at z = 1e200, where its six
# calls raised on the root's residual (the digest read
# 3e3ac325bac8120f35f6ab35f76ca834d9e6a3771283090b442182753c5ad56d before).
KERNEL_OUTPUTS_SHA256 = "7e39fad34c5cded8ccb42dc29a4ade2ec80cac23beeda82dd620fcb1d016e094"
KERNEL_OUTPUT_CALLS = (small_branches, solve_boundary_gfs, excursion_gf, excursion_gf_vandermonde,
                       excursion_gf_bf, perturbation_identity_residual)


def _golden_points(sc):
    """verify's five z, eight evenly spread z of kernel-sweep's kind, points
    toward and at rho, on the negative axis, at rho1, at extreme moduli and
    off the axis."""
    rho = sc.rho
    zs = [rho * t for t in (0.05, 0.15, 0.25, 0.35, 0.45)]
    zs += [rho * 0.5 * (i + 0.55) / 8 for i in range(8)]
    zs += [0.9 * rho, 0.999 * rho, rho, -0.5 * rho, -0.9 * rho]
    zs += [sc.rho1] if sc.rho1 is not None else []
    return zs + [1e-100, 1e-300, 1e200, complex(0.3 * rho, 0.2 * rho)]


def _outputs_digest(named_models):
    """SHA-256 over each (name, model)'s constants, its u1 expansion check and
    the outcome of every ``KERNEL_OUTPUT_CALLS`` call at ``_golden_points``,
    and the number of calls."""
    digest = hashlib.sha256()
    checked = 0
    for name, model in named_models:
        sc = structural_constants(model)
        digest.update(f"{name} constants\n{sc!r}\n".encode())
        digest.update(f"{name} u1_expansion_check\n{_outcome(lambda: u1_expansion_check(model, sc))}\n"
                      .encode())
        for z in _golden_points(sc):
            for call in KERNEL_OUTPUT_CALLS:
                outcome = _outcome(lambda: call(model, z))
                digest.update(f"{name} {call.__name__} {z!r}\n{outcome}\n".encode())
                checked += 1
    return digest.hexdigest(), checked


def test_kernel_outputs_match_their_golden_digest(models):
    quadratic = [(name, m) for name, m in models.items() if m.c == m.d == 1]
    digest, checked = _outputs_digest(quadratic)
    assert checked == 1218  # 9 models, 22 or 23 points, 6 calls
    assert digest == KERNEL_OUTPUTS_SHA256


# Built as KERNEL_OUTPUTS_SHA256, over the c >= 2 models of the accuracy
# test (``_c_ge_2_models``) at ``_golden_points``, taken while the boundary
# system's residual was still checked by numpy calls (it read
# 9a699260045b7a2ff9599b357e4409552bd0895a9047b40f73f5f6f915c197ff then, and
# the plain-arithmetic check left it so). It moved once since: accepting a
# root where Newton stops turned the z = 1e200 outcomes of 19 of the 34
# models from a residual raise into branches, and changed the bound in the
# text of one more's raise (it read
# abef450846be3504edc9f4f19de8f57ca55ad83efcf44047ea616088a2e3a52d then).
# It moved again when the 7 models of degree c + d = 3 took their roots in
# closed form and every c >= 2 boundary value passed the forward-error
# gate: 766 of the 4646 lines it hashes changed (CHANGES.md lists them by
# kind, BENCH_65ee5f8.json line by line; it read
# 46e9db25abe73ac8af67302c5f65c68418c7fa4c0913e2d753e85178b48c45dd then).
# It moved again when c = 2 and 3 took their values from the adjugate and
# the gate took in each branch's own error: 1374 of the lines changed, 1207
# values in their last bits, 47 values at z = rho now refused, and the text
# of 120 raises (CHANGES.md lists them by kind, BENCH_78ebd1c.json line by
# line). The digest covers the models' branches, which a numpy build may
# round differently, so it is checked where it was taken.
C2_KERNEL_OUTPUTS_SHA256 = "a2259b37cb81bcf63661788a429f87299bbab723810620066292f5f59a9c7f6e"


@pytest.mark.skipif((sys.version_info[:2], np.__version__) != FRONT_END_PLATFORM,
                    reason="digest taken on Python 3.11 with numpy 2.4.6")
def test_c_ge_2_kernel_outputs_match_their_golden_digest(models):
    digest, checked = _outputs_digest(enumerate(_c_ge_2_models(models)))
    assert checked == 4578  # 34 models, 22 or 23 points, 6 calls
    assert digest == C2_KERNEL_OUTPUTS_SHA256
