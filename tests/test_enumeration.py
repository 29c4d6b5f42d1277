"""Exact counting: recurrences against the brute-force oracle and identities."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from latticepaths import (
    AltitudeDistribution,
    BoundaryRule,
    InvalidModelError,
    LatticePathError,
    NumericalSingularityError,
    ReturnsDistribution,
    arch_mass,
    arch_series,
    bridge_and_walk_mass,
    brute_force,
    enumeration,
    excursion_mass,
    excursion_series,
    final_altitude_expectation,
    meander_distribution,
    meander_mass,
    meander_mass_series,
    parse_model,
    path_probabilities,
    path_probability,
    returns_to_zero_distribution,
    step,
)
from latticepaths.enumeration import (
    _Arithmetic,
    _excursions_from_arches,
    _moments_from_excursions,
    _numbers,
    _return_totals,
    _returns_from_arches,
    _truncated_product,
    _walk,
    bridge_mass_series,
    bridge_paths,
    enumerate_meander_paths,
    enumerate_walk_paths,
    final_altitude_series,
    returns_mean_series,
    returns_moments,
)
from latticepaths.cli import fmt
from conftest import MODEL_NAMES

F = Fraction
TINY = np.finfo(float).tiny


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


def test_float_bridge_mass_past_the_float_range_raises(models, monkeypatch):
    # altitude 0 of the walk on Z underflows on its own before n = 8000 on
    # these models: the float bridge mass raises, as the series does,
    # instead of reading 0
    for name in ("drift_up_absorption", "critical_drift_down", "two_down_reflection"):
        with pytest.raises(NumericalSingularityError, match="underflowed"):
            bridge_and_walk_mass(models[name], 8000, "float")
    model = models["supercritical_drift_down"]
    assert bridge_and_walk_mass(model, 8000, "float")[1] == bridge_mass_series(
        model, 8000, "float")[8000] > 0
    # a Dyck walk has no bridge of odd length: there 0 is the float value,
    # read from the one walk on Z without walking row 0 again
    walk, calls = enumeration._walk, []
    monkeypatch.setattr(enumeration, "_walk", lambda *a, **k: calls.append(a) or walk(*a, **k))
    assert bridge_and_walk_mass(models["dyck_reflection"], 7, "float") == (1.0, 0.0)
    assert len(calls) == 1


def test_walk_starts_every_readout_at_mass_one_at_zero(models):
    # _walk puts the length-0 readout first, for both steppers; row 0 and
    # the arches come back as arrays in the mode's dtype
    n = 12
    for name, free in (("motzkin_absorption", False), ("two_down_reflection", False),
                       ("motzkin_absorption", True)):
        model = models[name]
        c = model.c
        start = {"row0": 1, "arches": 0, "low": (1,) + (0,) * (c - 1), "total": 1,
                 "moment": (0, 1)}
        for mode in ("exact", "float"):
            arith = _Arithmetic(model, mode)
            for readout, first in start.items():
                series = _walk(model, n, arith, readout, top=c, free=free)
                assert len(series) == n + 1
                assert series[0] == first
                if readout in ("row0", "arches"):
                    assert isinstance(series, np.ndarray) and series.dtype == arith.dtype
    # row 0 of this walk on Z falls below the smallest normal float on its
    # own: _walk raises, unless the walk may end in underflow
    model = models["drift_up_absorption"]
    arith = _Arithmetic(model, "float")
    with pytest.raises(NumericalSingularityError, match="float series underflowed") as info:
        _walk(model, 8000, arith, "row0", free=True)
    assert info.traceback[-1].name == "_walk"
    series = _walk(model, 8000, arith, "row0", free=True, underflow_ends=True)
    assert len(series) == 8001 and ((series > 0) & (series < TINY)).any()


def test_walk_low_readout_on_z_reads_altitudes_zero_up_in_both_modes(models):
    # on the walk on Z, where altitude 0 is not row 0 of the state, "low"
    # reads altitudes 0..top-1 in both modes, as "row0" reads altitude 0
    n = 12
    for name in ("motzkin_absorption", "two_down_reflection"):
        model = models[name]
        top = model.c + 1
        low, row0 = {}, {}
        for mode in ("exact", "float"):
            arith = _Arithmetic(model, mode)
            low[mode] = [_numbers(arith.series(rows))
                         for rows in zip(*_walk(model, n, arith, "low", top=top, free=True))]
            row0[mode] = _numbers(arith.series(_walk(model, n, arith, "row0", free=True)))
        for exact_rows, float_rows in zip(low["exact"], low["float"]):
            for x, y in zip(exact_rows, float_rows):
                assert float(x) == pytest.approx(y, abs=1e-12), name
        assert low["exact"][0] == row0["exact"], name
        assert low["float"][0] == row0["float"], name


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


def test_excursions_are_arch_sequences(models, random_models):
    for model in models.values():
        e = excursion_series(model, 100)
        a = arch_series(model, 100)
        for n in range(1, 101):
            conv = sum((a[m] * e[n - m] for m in range(1, n + 1)), F(0))
            assert conv == e[n], f"{n}"
    # the returns law takes e_n from the arch numerators this way
    for model in [*models.values(), *random_models]:
        arith = _Arithmetic(model, "exact")
        arches = _walk(model, 120, arith, "arches")
        assert list(_excursions_from_arches(arches)) == list(_walk(model, 120, arith, "row0"))


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


def _flush_edges(vec):
    """Zero the leading and trailing runs of rows whose mass (the first
    column, if there are more) is below the smallest normal float; raise if
    that leaves no such row in a non-zero state."""
    small = (vec if vec.ndim == 1 else vec[:, 0]) < TINY
    first = small.argmin()  # the first normal row, 0 if there is none
    if small[first]:
        if vec.any():
            raise NumericalSingularityError("every mass is below tiny")
        return
    vec[:first] = 0
    vec[len(vec) - small[::-1].argmin() :] = 0


def _full_width_float_walk(model, n, on_step=None, *, free=False, trail=(), at_zero=None,
                           flush=True):
    """The float DP with no live window: every row of the full width steps
    every time, into zeroed rows, with the engine's term order (boundary
    terms, then bulk terms). After ``on_step`` the edge runs of rows below
    the smallest normal float are flushed to 0, as the engine does, unless
    ``flush`` is false (the raw DP)."""
    bulk = [(j, float(p)) for j, p in model.P.terms()]
    rim = [(j, float(p)) for j, p in model.P0.terms() if j >= 0]
    if free:
        start, rise, first = n * model.c, model.d, 0
    else:
        start, rise, first = 0, max(model.d, model.P0.hi, 1), 1
    size = start + n * rise + 1
    # (weight, source rows, target rows) of every bulk jump
    jumps = [(p, slice(max(first, -j), size - max(j, 0)),
              slice(max(first, -j) + j, size + min(j, 0))) for j, p in bulk]
    vec, new, term = np.zeros((3, size) + trail)
    vec[(start,) + (0,) * len(trail)] = 1.0
    for t in range(1, n + 1):
        new.fill(0.0)
        if not free:
            for j, p in rim:
                new[j] += p * vec[0]
        for p, src, dst in jumps:
            product = term[: dst.stop - dst.start]
            np.multiply(vec[src], p, product)
            new[dst] += product
        vec, new = new, vec
        if at_zero is not None:
            vec[0] = at_zero(vec[0])
        if on_step is not None:
            on_step(t, vec)
        if flush:
            _flush_edges(vec)
    return vec


@pytest.mark.parametrize("name,n", [(name, 3000) for name in MODEL_NAMES]
                         + [("dyck_reflection", 2999), ("dyck_absorption", 2999)]
                         + [(f"random{i}", 1000) for i in range(12)])
def test_live_window_matches_full_width_float_dp(models, random_models, name, n):
    # the engine steps only rows that can be non-zero; dropping exact zeros
    # and flushing edge rows below tiny must leave every float bit as the
    # full-width DP with the same flush has it, including for
    # supercritical_drift_down, whose top rows go subnormal, for the
    # period-2 Dyck models, whose row 0 is empty after every odd step, and
    # for the random models, with up to 7 jumps and absent jumps between
    model = random_models[int(name[6:])] if name.startswith("random") else models[name]
    excursions = [1.0]
    totals = [(0.0, 1.0)]  # (first moment, total mass) after every step

    def record(t, vec):
        excursions.append(float(vec[0]))
        totals.append((float(np.arange(len(vec), dtype=float) @ vec), float(vec.sum())))

    final = _full_width_float_walk(model, n, record)
    mass = meander_distribution(model, n, "float").mass
    assert mass == {k: float(w) for k, w in enumerate(final) if w}
    assert excursion_series(model, n, "float") == excursions
    assert meander_mass(model, n, "float") == float(final.sum())
    # the total and the moment readouts sum the whole state as the
    # full-width DP holds it, so they keep every bit too
    assert meander_mass_series(model, n, "float") == [total for _, total in totals]
    assert final_altitude_series(model, n, "float") == [
        moment / total if total else None for moment, total in totals]
    # the flush touches only masses far below 1e-280 in the raw DP, which
    # holds subnormal dust at its edges
    raw_excursions = [1.0]
    raw = _full_width_float_walk(
        model, n, lambda t, vec: raw_excursions.append(float(vec[0])), flush=False)
    for got, want in ((np.array([mass.get(k, 0.0) for k in range(len(raw))]), raw),
                      (np.array(excursions), np.array(raw_excursions))):
        kept = want >= 1e-280
        assert np.array_equal(got[kept], want[kept])

    arches = [0.0]

    def record_arch(t, vec):
        arches.append(float(vec[0]))
        vec[0] = 0.0

    _full_width_float_walk(model, n, record_arch)
    # an entry below the smallest normal float beside a normal state has
    # underflowed on its own, and the float series raises instead of
    # returning it: random11's arches hold one at t = 962
    dust = [t for t, a in enumerate(arches) if 0.0 < a < TINY]
    if dust:
        assert (name, dust[0]) == ("random11", 962)
        with pytest.raises(NumericalSingularityError):
            arch_series(model, n, "float")
    else:
        assert arch_series(model, n, "float") == arches
    # the returns law takes e_n from the arches, E = 1 + A·E: zero where the
    # walk's e_n is, and close to it wherever that is a normal float
    e = np.array(excursions)
    from_arches = _excursions_from_arches(np.array(arches))
    assert np.array_equal(from_arches == 0, e == 0)
    normal = e >= np.finfo(float).tiny
    assert np.all(np.abs(from_arches - e)[normal] <= 1e-11 * e[normal])
    # the float returns law is the arch series' powers over that e_n
    if excursions[n] > 0.0:
        assert returns_to_zero_distribution(model, n, "float").prob == _returns_from_arches(
            np.array(arches), n)
    else:
        with pytest.raises(LatticePathError):
            returns_to_zero_distribution(model, n, "float")

    # the float moments and mean series are products of the excursion series
    means = [0.0] + [float(s) / float(x) if x else None
                     for s, x in zip(_return_totals(e)[1:], e[1:])]
    assert returns_mean_series(model, n, "float") == means
    if excursions[n]:
        moments = _moments_from_excursions(e, _Arithmetic(model, "float"))
        assert returns_moments(model, n, "float") == moments
    else:
        with pytest.raises(LatticePathError):
            returns_moments(model, n, "float")

    # a full-width DP of the count's moments adds the same non-negative
    # terms in another order
    dp_means = [0.0]

    def record_mean(t, vec):
        m0, m1, _ = vec[0]
        dp_means.append(float(m1) / float(m0) if m0 else None)

    w0, w1, w2 = _full_width_float_walk(
        model, n, record_mean, trail=(3,),
        at_zero=lambda row: np.array([row[0], row[1] + row[0], row[2] + 2 * row[1] + row[0]]))[0]
    assert [m is None for m in means] == [m is None for m in dp_means]
    for got, want in zip(means, dp_means):
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12, abs=0)
    if w0:
        mean = float(w1) / float(w0)
        assert moments[0] == pytest.approx(mean, rel=1e-12, abs=0)
        assert moments[1] == pytest.approx(float(w2) / float(w0) - mean * mean, rel=1e-9, abs=0)

    # the bridges: altitude 0 of the walk on Z, row n*c of its rows
    zero = n * model.c
    bridges = [1.0]
    free = _full_width_float_walk(
        model, n, lambda t, vec: bridges.append(float(vec[zero])), free=True)
    if any(0.0 < b < TINY for b in bridges):
        # altitude 0 underflows on its own, from t = 970 on random11, whose
        # exact bridge mass at n = 1000 is 1.06e-317 where the flushed DP
        # holds 0: both float readouts raise
        assert name == "random11"
        for stat in (bridge_mass_series, bridge_and_walk_mass):
            with pytest.raises(NumericalSingularityError, match="underflowed"):
                stat(model, n, "float")
    else:
        assert bridge_mass_series(model, n, "float") == bridges
        assert bridge_and_walk_mass(model, n, "float") == (float(free.sum()), float(free[zero]))


@pytest.mark.xfail(strict=True, reason="ROADMAP N: the edge flush needs a stated floor")
def test_float_bridges_just_above_the_flush_are_right_or_raise(random_models):
    # the flush drops rows below tiny beside altitude 0 that still feed it:
    # on random11 at n = 969, 15 entries from t = 940 (about 9e-299 and
    # below) are more than 1e-10 off, the worst by 12.8%, with no raise
    model = random_models[11]
    try:
        got = bridge_mass_series(model, 969, "float")
    except NumericalSingularityError:
        return
    want = bridge_mass_series(model, 969, "exact")
    off = [t for t, (g, w) in enumerate(zip(got, want)) if abs(F(g) - w) > F(1, 10**10) * w]
    assert not off, f"{len(off)} entries off from t = {off[0]}"


def test_float_meander_holds_no_subnormal_dust(models):
    # edge rows below the smallest normal float are flushed after every
    # step, so no subnormal survives to the final state
    for name in MODEL_NAMES:
        mass = meander_distribution(models[name], 3000, "float").mass
        assert min(mass.values()) >= TINY


def test_arch_walk_underflow_ends_only_the_returns_arches(models):
    # walks that have not yet returned to 0 decay like 0.89**t here, so the
    # float arch state underflows as a whole near t = 6300: the returns law
    # reads the arches after it as 0 (the n = 8000 case of
    # test_returns_float_law_matches_moments), while an arch mass of that
    # length has no float value
    model = models["drift_down_reflection"]
    with pytest.raises(NumericalSingularityError):
        arch_mass(model, 8000, "float")
    assert arch_mass(model, 2000, "float") > 0


@pytest.mark.parametrize("name", MODEL_NAMES + [f"random{i}" for i in range(12)])
def test_returns_float_mode_agreement(models, random_models, name):
    # the exact law, integers from the arch walk, is an independent route
    # for the float law's round-off: float mode may drop a trailing tail of
    # total mass <= 1e-12 and keeps every other probability to 1e-10
    model = random_models[int(name[6:])] if name.startswith("random") else models[name]
    n = 200
    try:
        exact = returns_to_zero_distribution(model, n)
    except LatticePathError:
        assert name == "random9"  # its arch lengths are multiples of 3
        with pytest.raises(LatticePathError, match="no excursion"):
            returns_to_zero_distribution(model, n, "float")
        return
    flt = returns_to_zero_distribution(model, n, "float")
    support = sorted(exact.prob)
    assert sorted(flt.prob) == support[: len(flt.prob)]
    dropped = sum(float(exact.prob[k]) for k in support[len(flt.prob) :])
    assert dropped <= 1e-12
    for k, p in flt.prob.items():
        assert p == pytest.approx(float(exact.prob[k]), rel=1e-10, abs=0)


def test_excursions_from_arches_by_doubling(models, random_models):
    # e by doubling: exact numerators are those of the per-length sums
    # e_t = sum_m a_m·e_(t-m), and float ones agree with the walk's exact
    # row 0 over D**t
    for model in [*models.values(), *random_models]:
        arches = _walk(model, 200, _Arithmetic(model, "exact"), "arches")
        want = [1]
        for t in range(1, 201):
            want.append(np.array(want[::-1], dtype=object) @ arches[1 : t + 1])
        assert list(_excursions_from_arches(arches)) == want
    n = 600
    for model in models.values():
        arith = _Arithmetic(model, "exact")
        exact = _numbers(arith.series(_walk(model, n, arith, "row0")))
        flt = _excursions_from_arches(_walk(model, n, _Arithmetic(model, "float"), "arches"))
        for got, want in zip(flt, exact):
            assert got == pytest.approx(float(want), rel=1e-12, abs=0)


def _dot_loop_product(factor, x, n):
    """Coefficients 0..n of the product of the series x and factor by one
    integer dot product per degree, over the terms that reach it: the loop
    that the exact ``_truncated_product`` replaced, kept as its reference."""
    lf, lx = (int(np.flatnonzero(y)[0]) if y.any() else n + 1 for y in (factor, x))
    rev_factor = factor[::-1]  # rev_factor[n - j] = factor[j]
    out = np.zeros(n + 1, dtype=object)
    for m in range(lx + lf, n + 1):
        out[m] = x[lx : m - lf + 1] @ rev_factor[n - m + lx : n - lf + 1]
    return out


@pytest.mark.parametrize("n", [1, 24, 55, 200])
def test_exact_products_match_the_per_degree_dot_loop(models, random_models, n):
    # the exact products of the returns law and the returns moments, among
    # the arch series, its square and the excursion series, leading zeros
    # (the Dyck models' odd lengths, random9's period 3) included
    for model in [*models.values(), *random_models]:
        arith = _Arithmetic(model, "exact")
        a = _walk(model, n, arith, "arches")
        e = _walk(model, n, arith, "row0")
        square = _dot_loop_product(a, a, n)
        for factor, x in ((a, a), (a, square), (square, a), (a, e), (e, a), (e, e)):
            assert list(_truncated_product(factor, n)(x)) == list(_dot_loop_product(factor, x, n))
        tail = e.copy()
        tail[0] = 0
        assert list(_return_totals(e)) == list(_dot_loop_product(e, tail, n))


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
    # the exact law, moments and mean series at every n <= 40
    for model in [*models.values(), *random_models]:
        means = returns_mean_series(model, 40, "exact")
        for n, law in _count_axis_laws(model, 40).items():
            if law is None:
                assert means[n] is None
                for stat in (returns_to_zero_distribution, returns_moments):
                    with pytest.raises(LatticePathError):
                        stat(model, n, "exact")
            else:
                ref = ReturnsDistribution(n=n, prob=law)
                assert returns_to_zero_distribution(model, n).prob == law, n
                assert returns_moments(model, n, "exact") == (ref.mean(), ref.variance()), n
                assert means[n] == ref.mean(), n


# every shipped model, those whose excursion masses decay exponentially
# included: there the nth coefficients of the arch powers lie far below
# their largest ones
@pytest.mark.parametrize("name,n", [
    (name, n) for name in MODEL_NAMES for n in (400, 2000)
] + [("drift_down_reflection", 8000)])
def test_returns_float_law_matches_moments(models, name, n):
    # no row's weight is below the smallest normal float, where it would
    # keep only a subnormal's bits (drift_down_reflection at n = 8000 has 50)
    model = models[name]
    law = returns_to_zero_distribution(model, n, "float")
    mean, var = returns_moments(model, n, "float")
    e_n = excursion_mass(model, n, "float")
    assert all(p * e_n >= np.finfo(float).tiny for p in law.prob.values())
    assert sum(law.prob.values()) == pytest.approx(1.0, rel=0, abs=1e-12)
    assert law.mean() == pytest.approx(mean, rel=1e-10)
    assert law.variance() == pytest.approx(var, rel=1e-9)


@pytest.mark.parametrize("scale,stop", [(1.0, 3), (1.1, None)])
def test_returns_float_law_off_the_excursion_mass_raises(models, monkeypatch, scale, stop):
    # weights that end short of e_n, or add up past it by more than 1e-9 of
    # it, are no law
    weights = enumeration._arch_power_weights
    monkeypatch.setattr(enumeration, "_arch_power_weights", lambda arch, n: (
        scale * w for w in itertools.islice(weights(arch, n), stop)))
    with pytest.raises(NumericalSingularityError, match="excursion mass"):
        returns_to_zero_distribution(models["motzkin_absorption"], 400, "float")


@pytest.mark.parametrize("spec,n,error", [
    # weights that sum past 1: the masses pass the largest float near t = 440
    ("P: -1:2/5 0:5/3 1:7/3\nP0: 0:1/2 1:3/2\n", 600, "overflowed"),
    # one arch, of length 1 and mass 8: every arch mass is finite, and
    # e_t = 8^t passes the largest float at t = 342
    ("P: -2:4/5 1:8/7\nP0: -2:2 0:8\n", 343, "overflowed"),
    # e_n is 1.85e-316, below the smallest normal float, while the arch walk
    # still holds normal masses
    ("P: -1:1/100 1:99/100\nP0: 0:1/20 1:1/20\n", 440, "underflowed"),
])
def test_returns_float_statistics_outside_the_float_range_raise(spec, n, error):
    model = parse_model(spec)
    for stat in (returns_to_zero_distribution, returns_moments, excursion_series):
        with pytest.raises(NumericalSingularityError, match=error):
            stat(model, n, "float")


def test_returns_float_law_near_the_float_range_holds():
    # e_584 is 2.0e305 and sum k(k - 1) w_k, about mean^2 * e_n, passes the
    # largest float: the moments raise, the law does not. Halving every
    # weight halves every path of length n alike, so the law is that of the
    # halved model, whose float masses are the same ones times 2**-584
    spec = "P: -1:{0} 1:{0}\nP0: 0:{1} 1:{0}\n"
    model, halved = parse_model(spec.format(1, 3)), parse_model(spec.format("1/2", "3/2"))
    with pytest.raises(NumericalSingularityError, match="overflowed"):
        returns_moments(model, 584, "float")
    law = returns_to_zero_distribution(model, 584, "float")
    reference = returns_to_zero_distribution(halved, 584, "float")
    assert list(law.prob) == list(reference.prob)
    assert list(law.prob.values()) == pytest.approx(list(reference.prob.values()), rel=1e-12)


def test_returns_float_mean_series_past_the_float_range_raises():
    # e_428 is 2.7e306 and the returns its excursions total, about 410 times
    # that, pass the largest float inside one np.convolve, which ignores
    # np.errstate: the last means must raise, not read inf
    model = parse_model("P: -1:1 1:1\nP0: 0:5 1:1\n")
    with pytest.raises(NumericalSingularityError, match="overflowed"):
        returns_mean_series(model, 428, "float")


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
    # the walks in 2 blocks of columns
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


def test_path_probabilities_of_no_paths_and_of_mixed_lengths(models):
    model = models["motzkin_reflection"]
    assert path_probabilities(BoundaryRule.REFLECTION, model, []) == []
    with pytest.raises(ValueError, match="different lengths"):
        path_probabilities(BoundaryRule.UNIFORM, model, [(1, -1), (1, 0, -1)])


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_exact_distribution_sums_match_fraction_sums(models, name):
    # the integer sums over the common denominator give the reduced
    # Fractions that Fraction addition and division give
    for n in range(31):
        dist = meander_distribution(models[name], n)
        total = sum(dist.mass.values(), F(0))
        assert dist.total() == total and type(dist.total()) is F
        conditional = dist.conditional()
        assert conditional == {k: w / total for k, w in sorted(dist.mass.items())}
        assert list(conditional) == sorted(dist.mass)
        assert all(type(p) is F for p in conditional.values())
        assert dist.expectation() == sum(k * w for k, w in dist.mass.items()) / total
        assert type(dist.expectation()) is F


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_float_distribution_sums_keep_every_bit(models, name):
    dist = meander_distribution(models[name], 200, "float")
    total = sum(dist.mass.values())
    assert dist.total() == total
    assert dist.conditional() == {k: w / total for k, w in sorted(dist.mass.items())}
    assert dist.expectation() == sum(k * w for k, w in dist.mass.items()) / total


def test_empty_distribution_has_zero_total_and_no_conditional():
    dist = AltitudeDistribution(n=5, mass={})
    assert dist.total() == 0 and fmt(dist.total()) == "0"
    with pytest.raises(LatticePathError, match="no surviving mass"):
        dist.conditional()
    with pytest.raises(LatticePathError, match="no surviving mass"):
        dist.expectation()


def test_int_masses_give_the_values_of_fraction_masses():
    ints = AltitudeDistribution(n=2, mass={0: 1, 2: 3})
    fractions = AltitudeDistribution(n=2, mass={0: F(1), 2: F(3)})
    assert ints.total() == fractions.total() == 4
    assert ints.conditional() == fractions.conditional() == {0: F(1, 4), 2: F(3, 4)}
    assert ints.expectation() == fractions.expectation() == F(3, 2)


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
