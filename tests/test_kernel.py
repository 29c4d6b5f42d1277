"""Kernel branches, generating-function evaluations, structural constants."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from latticepaths import (
    BranchDegenerateError,
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
from latticepaths.asymptotics import final_altitude_asymptotic
from latticepaths.kernel import boundary_denominator, u1_derivatives
from conftest import NEAR_CRITICAL_MODEL, random_model

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


def test_vandermonde_delegates_for_c1(models):
    model = models["motzkin_reflection"]
    assert excursion_gf_vandermonde(model, 0.3) == excursion_gf(model, 0.3)


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
    for model in list(models.values()) + random_models:
        calls.clear()
        structural_constants(model)
        assert len(calls) <= 1, (str(model.P), str(model.P0), calls)


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
    # the companion solve finds the same roots as np.roots, and a quantity
    # handed the BranchSet at z gives what it gives when it solves on its own
    from latticepaths import kernel

    companion_roots = kernel._companion_roots

    def np_roots(coeffs):
        # np.roots divides at 5e-324 as the kernel does, under the same errstate
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return [complex(r) for r in np.roots(coeffs)]

    for model in list(models.values()) + random_models:
        for z in _z_points(model):
            coeffs = kernel._kernel_coeffs(model, z)
            assert _outcome(lambda: companion_roots(coeffs)) == _outcome(lambda: np_roots(coeffs))
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
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                want = _outcome(lambda: [complex(r) for r in np.roots(reference)])
            assert _outcome(lambda: kernel._companion_roots(coeffs)) == want, (str(model.P), z)
            try:
                branches = small_branches(model, z)
            except Exception:
                continue
            checked += 1
            for u, r in zip(branches.branches, branches.residuals):
                assert repr(r) == repr(abs(1.0 - z * complex(model.P(u)))), (str(model.P), z)
    assert checked > 0


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


def test_c_ge_2_boundary_values_are_the_linear_solve_bit_for_bit(models):
    # ROADMAP J's contract: F_k is numpy's solve of sum_k r_k(u_i) F_k = 1/z,
    # taken here outside the kernel at verify's points
    rng = random.Random(7)
    draws = [random_model(rng) for _ in range(100)]
    chosen = [models["two_down_reflection"], *(m for m in draws if m.c >= 2 and not m.violations)]
    checked = 0
    for model in chosen:
        rho = structural_constants(model).rho
        for t in (0.05, 0.15, 0.25, 0.35, 0.45):
            z = rho * t
            branches = small_branches(model, z)
            A = np.array([[complex(r(u)) for r in model.boundary_corrections]
                          for u in branches.branches])
            x = np.linalg.solve(A, np.array([1.0 / z] * model.c, dtype=complex))
            assert repr(solve_boundary_gfs(model, z, branches)) == repr(
                [float(v.real) for v in x]), (str(model.P), str(model.P0), z)
            checked += 1
    assert checked == 5 * 34


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
    for model in list(models.values()) + random_models:
        for call in calls:
            args.clear()
            try:
                call(model)
            except LatticePathError:
                pass
            evaluated += len(args)
            assert not [x for x in args if isinstance(x, Fraction)], str(model.P)
    assert evaluated > 0


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
    monkeypatch.setattr(kernel, "_refine_root", lambda z, u, P, dP: (nan, nan))
    with pytest.raises(NumericalSingularityError, match="residual nan"):
        small_branches(models["motzkin_reflection"], 0.1)


def test_newton_stops_before_a_non_finite_step(models):
    # at z = 1e-155 P's Horner overflows at the large root, 3e155, and the
    # next Newton step would be NaN: the root is kept, and the small branch,
    # z/3 + O(z^2), is found; with c = 2 the boundary system is not trusted
    # there, so the stop raises
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
