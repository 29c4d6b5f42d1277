"""Exact counting: recurrences against the brute-force oracle and identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from latticepaths import (
    AltitudeDistribution,
    BoundaryRule,
    InvalidModelError,
    LatticePathError,
    arch_mass,
    arch_series,
    bridge_and_walk_mass,
    brute_force,
    excursion_mass,
    excursion_series,
    final_altitude_expectation,
    meander_distribution,
    meander_mass,
    meander_mass_series,
    parse_model,
    path_probability,
    returns_to_zero_distribution,
    step,
)
from latticepaths.enumeration import (
    _returns_from_arches,
    bridge_mass_series,
    bridge_paths,
    enumerate_meander_paths,
    enumerate_walk_paths,
    returns_mean_series,
    returns_moments,
)
from conftest import MODEL_NAMES

F = Fraction


def test_step_examples(models):
    start = AltitudeDistribution(n=0, mass={0: F(1)})
    assert step(models["dyck_reflection"], start).mass == {1: F(1)}
    assert step(models["dyck_absorption"], start).mass == {1: F(1, 2)}
    assert step(models["motzkin_reflection"], start).mass == {0: F(1, 2), 1: F(1, 2)}


def test_meander_distribution_examples(models):
    assert meander_distribution(models["dyck_reflection"], 0).mass == {0: F(1)}
    assert meander_distribution(models["dyck_reflection"], 4).mass == {
        0: F(3, 8), 2: F(1, 2), 4: F(1, 8),
    }
    assert meander_distribution(models["dyck_absorption"], 2).mass == {0: F(1, 4), 2: F(1, 4)}


def test_meander_matches_iterated_step(models, random_models):
    # the random models put different denominators in P and P0, so the DP's
    # integers run over the lcm of both; step() stays on plain Fractions.
    # At n = 60 a window of rise 3 spans two exact blocks.
    for model in [models["motzkin_reflection"], models["two_down_reflection"], *random_models]:
        dist = AltitudeDistribution(n=0, mass={0: F(1)})
        for n in range(1, 61):
            dist = step(model, dist)
            if n <= 40 or n == 60:
                assert dist.mass == meander_distribution(model, n).mass


def test_exact_series_entries_are_fractions(models, random_models):
    for model in [*models.values(), *random_models]:
        for series in (excursion_series(model, 30), meander_mass_series(model, 30),
                       arch_series(model, 30), bridge_mass_series(model, 30)):
            assert len(series) == 31
            assert all(type(v) is Fraction for v in series)


def test_excursion_examples(models):
    assert excursion_mass(models["dyck_reflection"], 0) == 1
    assert excursion_mass(models["dyck_reflection"], 4) == F(3, 8)
    assert excursion_mass(models["motzkin_reflection"], 2) == F(5, 12)


def test_meander_mass_examples(models):
    assert meander_mass(models["dyck_reflection"], 7) == 1
    assert meander_mass(models["dyck_absorption"], 2) == F(1, 2)
    assert meander_mass(models["motzkin_absorption"], 1) == F(2, 3)


def test_bridge_examples(models):
    assert bridge_and_walk_mass(models["dyck_reflection"], 4) == (1, F(3, 8))
    assert bridge_and_walk_mass(models["dyck_reflection"], 0) == (1, 1)
    assert bridge_and_walk_mass(models["motzkin_reflection"], 2) == (1, F(1, 3))
    # a walk that only rises has no altitude 0 among its rows on Z
    rising = parse_model("P: 1:1/2 2:1/2\nP0: 1:1\n")
    for mode in ("exact", "float"):
        with pytest.raises(InvalidModelError):
            bridge_mass_series(rising, 4, mode)


def test_returns_examples(models):
    assert returns_to_zero_distribution(models["dyck_reflection"], 2).prob == {1: F(1)}
    assert returns_to_zero_distribution(models["dyck_reflection"], 4).prob == {
        1: F(1, 3), 2: F(2, 3),
    }
    assert returns_to_zero_distribution(models["motzkin_reflection"], 1).prob == {1: F(1)}
    with pytest.raises(LatticePathError):
        returns_to_zero_distribution(models["dyck_reflection"], 3)


def test_arch_examples(models):
    assert arch_mass(models["dyck_reflection"], 2) == F(1, 2)
    assert arch_mass(models["dyck_reflection"], 4) == F(1, 8)
    assert arch_mass(models["motzkin_reflection"], 1) == F(1, 2)


def test_final_altitude_examples(models):
    assert final_altitude_expectation(models["dyck_reflection"], 0) == 0
    assert final_altitude_expectation(models["dyck_reflection"], 1) == 1
    assert final_altitude_expectation(models["dyck_absorption"], 2) == 1


def test_brute_force_empty_path(models):
    bf = brute_force(models["motzkin_reflection"], 0)
    assert bf.path_count == 1 and bf.meander == {0: F(1)}
    assert bf.excursion_mass == 1


def test_brute_force_guard(models):
    with pytest.raises(ValueError):
        brute_force(models["dyck_reflection"], 13)


@pytest.mark.parametrize("n", range(0, 9))
def test_oracle_equivalence_fixed_models(models, n):
    for model in models.values():
        bf = brute_force(model, n)
        assert meander_distribution(model, n).mass == bf.meander
        assert excursion_mass(model, n) == bf.excursion_mass
        if n >= 1:
            assert arch_mass(model, n) == bf.arch_mass
        if bf.excursion_mass:
            assert returns_to_zero_distribution(model, n).prob == bf.returns_distribution()
            assert bf.final_altitude_expectation() == final_altitude_expectation(model, n)


def test_oracle_equivalence_random_models(random_models):
    for model in random_models:
        for n in range(0, 6):
            bf = brute_force(model, n)
            assert meander_distribution(model, n).mass == bf.meander
            if n >= 1:
                assert arch_mass(model, n) == bf.arch_mass
            if bf.excursion_mass:
                assert returns_to_zero_distribution(model, n).prob == bf.returns_distribution()
            walk_total = bridge = F(0)
            for path, w in enumerate_walk_paths(model, n):
                walk_total += w
                if sum(path) == 0:
                    bridge += w
            assert bridge_and_walk_mass(model, n) == (walk_total, bridge)


def test_conservation_reflection(models):
    series = meander_mass_series(models["motzkin_reflection"], 200)
    assert all(m == 1 for m in series)


def test_absorption_mass_identity(models):
    # surviving mass after n+1 steps drops by the absorbed share of every
    # excursion seen so far
    for name in ("motzkin_absorption", "dyck_absorption", "drift_up_absorption"):
        model = models[name]
        loss = 1 - model.P0geq.total_weight()
        e = excursion_series(model, 200)
        m = meander_mass_series(model, 201)
        acc = F(0)
        for n in range(201):
            acc += e[n]
            assert m[n + 1] == 1 - loss * acc


def test_mass_monotone_for_two_down(models):
    # a -2 jump from altitude 1 dies even under a reflecting boundary line
    m = meander_mass_series(models["two_down_reflection"], 60)
    assert m[2] == F(7, 8)
    assert all(m[i + 1] <= m[i] for i in range(60))


def test_excursions_are_arch_sequences(models):
    for model in models.values():
        e = excursion_series(model, 100)
        a = arch_series(model, 100)
        for n in range(1, 101):
            conv = sum((a[m] * e[n - m] for m in range(1, n + 1)), F(0))
            assert conv == e[n], f"{n}"


def test_returns_row_sums(models):
    for model in models.values():
        for n in range(1, 26):
            try:
                dist = returns_to_zero_distribution(model, n)
            except LatticePathError:
                continue
            assert sum(dist.prob.values(), F(0)) == 1


def test_float_mode_agreement(models):
    cases = [("motzkin_reflection", 500), ("motzkin_absorption", 500),
             ("dyck_absorption", 500), ("supercritical_drift_down", 300),
             ("two_down_reflection", 300)]
    for name, top in cases:
        model = models[name]
        ee = excursion_series(model, top)
        ef = excursion_series(model, top, "float")
        me = meander_mass_series(model, top)
        mf = meander_mass_series(model, top, "float")
        for n in range(top + 1):
            assert ef[n] == pytest.approx(float(ee[n]), rel=1e-12, abs=1e-300)
            assert mf[n] == pytest.approx(float(me[n]), rel=1e-12)


def _full_width_float_walk(model, n, on_step=None, *, free=False, trail=(), at_zero=None):
    """The float DP with no live window: every row of the full width steps
    every time, into fresh zeros, with the engine's term order (boundary
    terms, then bulk terms)."""
    bulk = [(j, float(p)) for j, p in model.P.terms()]
    rim = [(j, float(p)) for j, p in model.P0.terms() if j >= 0]
    if free:
        start, rise, first = n * model.c, model.d, 0
    else:
        start, rise, first = 0, max(model.d, model.P0.hi, 1), 1
    size = start + n * rise + 1
    vec = np.zeros((size,) + trail)
    vec[(start,) + (0,) * len(trail)] = 1.0
    for t in range(1, n + 1):
        new = np.zeros_like(vec)
        if not free:
            for j, p in rim:
                new[j] += p * vec[0]
        for j, p in bulk:
            src, top = max(first, -j), size - 1 - max(j, 0)
            new[src + j : top + j + 1] += p * vec[src : top + 1]
        vec = new
        if at_zero is not None:
            vec[0] = at_zero(vec[0])
        if on_step is not None:
            on_step(t, vec)
    return vec


@pytest.mark.parametrize("name,n", [(name, 3000) for name in MODEL_NAMES]
                         + [("dyck_reflection", 2999), ("dyck_absorption", 2999)]
                         + [(f"random{i}", 1000) for i in range(12)])
def test_live_window_matches_full_width_float_dp(models, random_models, name, n):
    # the engine steps only rows that can be non-zero; dropping exact zeros
    # must leave every float bit as the full-width DP has it, including for
    # supercritical_drift_down, whose top rows underflow to 0, for the
    # period-2 Dyck models, whose row 0 is empty after every odd step, and
    # for the random models, with up to 7 jumps and absent jumps between
    model = random_models[int(name[6:])] if name.startswith("random") else models[name]
    excursions = [1.0]
    final = _full_width_float_walk(model, n, lambda t, vec: excursions.append(float(vec[0])))
    assert meander_distribution(model, n, "float").mass == {
        k: float(w) for k, w in enumerate(final) if w}
    assert excursion_series(model, n, "float") == excursions
    assert meander_mass(model, n, "float") == float(final.sum())

    arches = [0.0]

    def record_arch(t, vec):
        arches.append(float(vec[0]))
        vec[0] = 0.0

    _full_width_float_walk(model, n, record_arch)
    assert arch_series(model, n, "float") == arches
    # the float returns law is the arch convolution powers over e_n
    if excursions[n] > 0.0:
        assert returns_to_zero_distribution(model, n, "float") == _returns_from_arches(
            arches, excursions[n], n, "float")
    else:
        with pytest.raises(LatticePathError):
            returns_to_zero_distribution(model, n, "float")

    means = [0.0]

    def record_mean(t, vec):
        m0, m1, _ = vec[0]
        means.append(float(m1) / float(m0) if m0 else None)

    w0, w1, w2 = _full_width_float_walk(
        model, n, record_mean, trail=(3,),
        at_zero=lambda row: np.array([row[0], row[1] + row[0], row[2] + 2 * row[1] + row[0]]))[0]
    assert returns_mean_series(model, n, "float") == means
    if w0:
        mean = float(w1) / float(w0)
        assert returns_moments(model, n, "float") == (mean, float(w2) / float(w0) - mean * mean)
    else:
        with pytest.raises(LatticePathError):
            returns_moments(model, n, "float")

    free = _full_width_float_walk(model, n, free=True)
    assert bridge_and_walk_mass(model, n, "float") == (float(free.sum()), float(free[n * model.c]))


def test_returns_float_mode_agreement(models):
    # float mode may drop a trailing tail of total mass <= 1e-13
    model = models["motzkin_absorption"]
    exact = returns_to_zero_distribution(model, 40)
    flt = returns_to_zero_distribution(model, 40, "float")
    assert set(flt.prob) <= set(exact.prob)
    dropped = sum(float(p) for k, p in exact.prob.items() if k not in flt.prob)
    assert dropped <= 1e-12
    for k, p in flt.prob.items():
        assert p == pytest.approx(float(exact.prob[k]), rel=1e-9)


def _count_axis_laws(model, top):
    """The exact returns law at every length 1..top (None where there is no
    excursion), from a DP over (altitude, returns so far) on integers over
    D**t: an independent reference for the arch-power law."""
    den = math.lcm(*(p.denominator for poly in (model.P, model.P0) for _, p in poly.terms()))
    bulk = [(j, int(p * den)) for j, p in model.P.terms()]
    rim = [(j, int(p * den)) for j, p in model.P0.terms()]
    state = {(0, 0): 1}
    laws = {}
    for t in range(1, top + 1):
        new = {}
        for (alt, k), w in state.items():
            for j, p in rim if alt == 0 else bulk:
                a = alt + j
                # a walk above (top - t) * c cannot be back at 0 by length top
                if 0 <= a <= (top - t) * model.c:
                    key = (a, k + (a == 0))
                    new[key] = new.get(key, 0) + w * p
        state = new
        row = {k: w for (a, k), w in state.items() if a == 0}
        total = sum(row.values())
        laws[t] = {k: Fraction(w, total) for k, w in row.items()} if total else None
    return laws


def test_returns_law_matches_count_axis_reference(models, random_models):
    for model in [*models.values(), *random_models]:
        for n, law in _count_axis_laws(model, 40).items():
            if law is None:
                with pytest.raises(LatticePathError):
                    returns_to_zero_distribution(model, n)
            else:
                assert returns_to_zero_distribution(model, n).prob == law, n


# the models whose float law is sound: excursion masses that do not decay
# exponentially, or decay slowly enough for FFT round-off at these n
@pytest.mark.parametrize("name,n", [
    (name, n) for name in ("drift_down_reflection", "dyck_absorption", "dyck_reflection",
                           "motzkin_absorption", "motzkin_reflection") for n in (400, 2000)
] + [("supercritical_drift_down", 400)])
def test_returns_float_law_matches_moments(models, name, n):
    model = models[name]
    law = returns_to_zero_distribution(model, n, "float")
    mean, var = returns_moments(model, n, "float")
    assert sum(law.prob.values()) == pytest.approx(1.0, rel=0, abs=1e-12)
    assert law.mean() == pytest.approx(mean, rel=1e-10)
    assert law.variance() == pytest.approx(var, rel=1e-9)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_returns_law_edge_cases(models, mode):
    for name in ("dyck_reflection", "dyck_absorption"):
        for n in (1, 3, 41):
            with pytest.raises(LatticePathError):
                returns_to_zero_distribution(models[name], n, mode)
    # arches of this walk have length >= 13, so at n = 36 there are at most
    # 2 returns, fewer than the 3 baby steps of the arch-power law
    model = parse_model("P: -1:1/2 0:1/4 1:1/4\nP0: 12:1\n")
    law = _count_axis_laws(model, 36)[36]
    assert set(law) == {1, 2}
    got = returns_to_zero_distribution(model, 36, mode).prob
    if mode == "exact":
        assert got == law
    else:
        assert got.keys() == law.keys()
        for k, p in got.items():
            assert p == pytest.approx(float(law[k]), rel=1e-12)


def test_returns_moments_match_distribution(models, random_models):
    # n = 30 fits one exact block; at n = 60 the rise-3 random model steps
    # the two walks in 6 and 5 blocks of columns
    for model, n in ((models["motzkin_reflection"], 30), (models["motzkin_absorption"], 30),
                     (random_models[0], 60)):
        dist = returns_to_zero_distribution(model, n)
        mean, var = returns_moments(model, n, "exact")
        assert mean == dist.mean() and var == dist.variance()
        fmean, fvar = returns_moments(model, n, "float")
        assert fmean == pytest.approx(float(mean), rel=1e-12)
        assert fvar == pytest.approx(float(var), rel=1e-11)


def test_returns_mean_series_consistent(models):
    model = models["motzkin_reflection"]
    series = returns_mean_series(model, 12, "exact")
    for n in range(1, 13):
        assert series[n] == returns_to_zero_distribution(model, n).mean()


def test_path_probability_table_values(models):
    for name in ("dyck_reflection", "dyck_absorption"):
        model = models[name]
        uudd = (1, 1, -1, -1)
        udud = (1, -1, 1, -1)
        below = (-1, 1, 1, -1)
        assert path_probability(BoundaryRule.UNIFORM, model, uudd) == F(1, 6)
        assert path_probability(BoundaryRule.ABSOLUTE_VALUE, model, uudd) == F(1, 3)
        assert path_probability(BoundaryRule.ABSOLUTE_VALUE, model, udud) == F(2, 3)
        assert path_probability(BoundaryRule.REFLECTION, model, uudd) == F(1, 3)
        assert path_probability(BoundaryRule.REFLECTION, model, udud) == F(2, 3)
        assert path_probability(BoundaryRule.ABSORPTION, model, uudd) == F(1, 2)
        assert path_probability(BoundaryRule.ABSORPTION, model, udud) == F(1, 2)
        for rule in (BoundaryRule.ABSOLUTE_VALUE, BoundaryRule.REFLECTION, BoundaryRule.ABSORPTION):
            assert path_probability(rule, model, below) == 0
        assert path_probability(BoundaryRule.UNIFORM, model, below) == F(1, 6)


def test_path_probability_columns_sum_to_one(models):
    model = models["motzkin_reflection"]
    paths = bridge_paths(model, 4)
    for rule in BoundaryRule:
        total = sum((path_probability(rule, model, p) for p in paths), F(0))
        assert total == 1, rule


def test_path_probability_rejects_non_excursion(models):
    model = models["motzkin_reflection"]
    assert path_probability(BoundaryRule.REFLECTION, model, (1, 1, -1, 0)) == 0


def test_enumerate_paths_weights_are_exact(models):
    model = models["motzkin_absorption"]
    total = sum((w for _, w in enumerate_meander_paths(model, 5)), F(0))
    assert total == meander_mass(model, 5)


def test_boundary_jump_higher_than_bulk():
    # the boundary may out-jump the bulk; DP vectors must make room for it
    from latticepaths import parse_model

    model = parse_model("P: -1:1/2 1:1/2\nP0: 0:1/2 4:1/2\n")
    for n in range(0, 9):
        bf = brute_force(model, n)
        assert meander_distribution(model, n).mass == bf.meander
        if n >= 1:
            assert arch_mass(model, n) == bf.arch_mass
        if bf.excursion_mass:
            assert returns_to_zero_distribution(model, n).prob == bf.returns_distribution()
    ee = excursion_series(model, 60)
    ef = excursion_series(model, 60, "float")
    assert all(ef[n] == pytest.approx(float(ee[n]), rel=1e-12, abs=1e-300) for n in range(61))
    mean_e, var_e = returns_moments(model, 20, "exact")
    mean_f, var_f = returns_moments(model, 20, "float")
    assert mean_f == pytest.approx(float(mean_e), rel=1e-12)
    assert var_f == pytest.approx(float(var_e), rel=1e-11)


def test_deep_down_jump_arches():
    # arches that climb via the boundary and descend three at a time
    from latticepaths import parse_model

    model = parse_model("P: -3:1/4 0:1/2 1:1/4\nP0: 0:1/4 6:3/4\n")
    for n in range(1, 9):
        assert arch_mass(model, n) == brute_force(model, n).arch_mass
