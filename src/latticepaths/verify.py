"""Self-contained invariant suite for a single model.

Each check yields (name, passed, detail). The suite cross-validates the
dynamic programs against brute force, the generating-function evaluations
against truncated series of the dynamic programs, and the structural
constants against the behavior of the branches. It is intentionally cheap
enough to run on every model file.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import enumeration as en
from . import kernel
from .errors import LatticePathError
from .model import WalkModel, validate

Check = tuple[str, bool, str]


def _check(name: str, failures: Iterable[str], first: bool = False) -> Check:
    """A check that passes when ``failures`` yields no detail. It reports
    the last detail yielded; with ``first``, the first, and ``failures`` is
    not run any further."""
    detail = None
    for detail in failures:
        if first:
            break
    return name, detail is None, detail or ""


def run_verification(model: WalkModel) -> Iterator[Check]:
    report = validate(model)
    yield "model-valid", report.ok, "; ".join(report.violations)
    if not report.ok:
        return
    yield from _oracle_checks(model)
    yield from _series_identity_checks(model)
    yield from _kernel_checks(model)


def _oracle_checks(model: WalkModel) -> Iterator[Check]:
    names = ("meander-distribution", "arch-mass", "returns-distribution", "bridge-and-walk")
    first_failure: dict[str, int] = {}  # each check's first failing length
    for n in range(0, 7):
        bf = en.brute_force(model, n)
        walk_total = bridge = Fraction(0)
        for path, w in en.enumerate_walk_paths(model, n):
            walk_total += w
            if not sum(path):  # the walk ends at altitude 0
                bridge += w
        wrong = (
            en.meander_distribution(model, n, "exact").mass != bf.meander,
            n >= 1 and en.arch_mass(model, n, "exact") != bf.arch_mass,
            bool(bf.excursion_mass)
            and en.returns_to_zero_distribution(model, n, "exact").prob
            != bf.returns_distribution(),
            en.bridge_and_walk_mass(model, n, "exact") != (walk_total, bridge),
        )
        for name, failed in zip(names, wrong):
            if failed:
                first_failure.setdefault(name, n)
    for name in names:
        n = first_failure.get(name)
        yield f"oracle/{name}", n is None, "" if n is None else f"n={n}"


def _series_identity_checks(model: WalkModel) -> Iterator[Check]:
    # one exact pass per series, long enough for the float comparison; the
    # shorter checks read its prefix
    n_float = 200
    ee = en.excursion_series(model, n_float, "exact")
    me = en.meander_mass_series(model, n_float, "exact")
    n_cons = 100
    e_series = ee[: n_cons + 1]
    m_series = me[: n_cons + 1]
    if model.is_reflection and model.is_lukasiewicz:
        ok = all(m == 1 for m in m_series)
        yield "conservation/reflection-mass-one", ok, ""
    elif model.is_lukasiewicz:
        loss = Fraction(1) - model.P0geq.total_weight()
        # m_{n+1} = 1 - loss * (e_0 + ... + e_n), with the prefix sums kept
        # running
        ok = all(
            m == 1 - loss * prefix
            for m, prefix in zip(m_series[1:], itertools.accumulate(e_series[:n_cons]))
        )
        yield "conservation/absorption-identity", ok, ""
    else:
        ok = all(m_series[i + 1] <= m_series[i] for i in range(n_cons))
        yield "conservation/monotone-mass", ok, ""

    n_arch = 60
    # a_m over D**m times e_(n-m) over D**(n-m) is a numerator over D**n, so
    # e = 1 + A·E holds on the integer numerators
    den = en._denominator(model)
    a_num = _numerators(en.arch_series(model, n_arch, "exact"), den)
    e_num = _numerators(e_series[: n_arch + 1], den)
    yield _check("identity/excursions-are-arch-sequences", (
        f"n={n}" for n in range(1, n_arch + 1)
        if sum(a_num[m] * e_num[n - m] for m in range(1, n + 1)) != e_num[n]
    ), first=True)

    yield _check("returns/row-sums-one", (
        f"n={n}" for n in range(0, 26)
        if e_series[n] != 0
        and sum(en.returns_to_zero_distribution(model, n, "exact").prob.values(), Fraction(0)) != 1
    ))

    ef = en.excursion_series(model, n_float, "float")
    mf = en.meander_mass_series(model, n_float, "float")

    def float_failures():
        for n in range(n_float + 1):
            for exact, approx in ((ee[n], ef[n]), (me[n], mf[n])):
                ex = float(exact)
                if abs(approx - ex) > 1e-12 * max(1.0, abs(ex)):
                    yield f"n={n}"

    yield _check("float/agrees-with-exact", float_failures())


def _numerators(series: list[Fraction], den: int) -> list[int]:
    """The numerators of series[t] over den**t, for every t."""
    out = []
    scale = 1
    for x in series:
        out.append(x.numerator * (scale // x.denominator))
        scale *= den
    return out


def _kernel_checks(model: WalkModel) -> Iterator[Check]:
    sc = kernel.structural_constants(model)
    rho = sc.rho
    zs = [rho * t for t in (0.05, 0.15, 0.25, 0.35, 0.45)]

    # one branch solve per z of zs, read by every check at those z
    branch_sets = [kernel.small_branches(model, z) for z in zs]
    yield _check("kernel/root-residual", (
        f"z={z:.6g}" for z, branches in zip(zs, branch_sets) if max(branches.residuals) > 1e-12
    ))

    grid = [rho * t for t in np.linspace(0.02, 0.98, 25)]
    u_vals = [kernel.small_branch_u1(model, z) for z in grid]
    ok = all(b > a for a, b in zip(u_vals, u_vals[1:]))
    yield "kernel/u1-increasing", ok, ""

    n_terms = 80
    low = en.altitude_series(model, n_terms, model.c, "exact")

    def gf_failures():
        for z in (0.25 * rho, 0.5 * rho):
            if z >= 0.99:
                continue
            gfs = kernel.solve_boundary_gfs(model, z)
            tail = z ** (n_terms + 1) / (1.0 - z)
            for k in range(model.c):
                series = sum(float(m) * z**n for n, m in enumerate(low[k]))
                if abs(gfs[k] - series) > 1e-9 + tail:
                    yield f"k={k} z={z:.6g}"

    yield _check("kernel/gf-matches-series", gf_failures())

    def perturbation_failures():
        for z, branches in zip(zs, branch_sets):
            res = kernel.perturbation_identity_residual(model, z, branches)
            if res > 1e-9:
                yield f"z={z:.6g} residual={res:.3g}"

    yield _check("kernel/perturbation-identity", perturbation_failures())

    if model.c >= 2:
        yield _check("kernel/vandermonde-matches-system", (
            f"z={z:.6g}" for z, branches in zip(zs, branch_sets)
            if abs(kernel.excursion_gf_vandermonde(model, z, branches)
                   - kernel.solve_boundary_gfs(model, z, branches)[0]) > 1e-9
        ))

    worst = kernel.u1_expansion_check(model, constants=sc)
    yield ("kernel/u1-expansion-bounded", worst <= kernel.U1_EXPANSION_BOUND,
           f"max scaled remainder {worst:.3g}")

    lam = sc.lam
    if lam > 1 + 1e-9:
        ok = sc.rho1 is not None and sc.rho1 < rho
    elif lam < 1 - 1e-9:
        ok = sc.rho1 is None
    else:
        ok = sc.rho1 is not None and abs(sc.rho1 - rho) <= 1e-10 * rho
    yield "kernel/criticality-trichotomy", ok, f"lam={lam:.6g}"

    if sc.rho1 is not None and 0 < sc.rho1 < rho:
        try:
            residual = abs(kernel.boundary_denominator(model, sc.rho1))
            yield "kernel/rho1-is-root", residual <= 1e-9, f"residual {residual:.3g}"
        except LatticePathError:
            yield "kernel/rho1-is-root", False, "branch evaluation failed at rho1"
