"""Property tests over random models: the exact DP against the brute-force
oracle and against iterated ``step()``, the float series against the exact
ones, and the float returns law against the returns moments.

The models are drawn by hypothesis, with the profile that ``conftest.py``
loads: derandomized, so every run draws the same examples.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latticepaths import (
    AltitudeDistribution,
    BoundaryRule,
    InvalidModelError,
    LatticePathError,
    LaurentPolynomial,
    NumericalSingularityError,
    WalkModel,
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
    altitude_series,
    bridge_mass_series,
    bridge_paths,
    enumerate_meander_paths,
    enumerate_walk_paths,
    final_altitude_series,
    path_altitudes,
    returns_moments,
)

F = Fraction
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 10, 12)


@st.composite
def walk_models(draw):
    """A model with c in {1, 2, 3} and d <= 3: rational weights, summing to
    1 on each line or not, a reflecting or an absorbing P0 (which may
    out-jump P, or have no non-negative jump at all), and periodic models:
    with period p, every jump of P is -c modulo p. Hypothesis draws the
    shape and a seed; the jumps strictly between -c and d, P0's jumps and
    the weights come from the seed, because hypothesis's own draws of them
    gave mostly two-jump models."""
    c = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.integers(1, 3))
    periodic = draw(st.booleans())
    reflecting = draw(st.booleans())
    normalized = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = rng.choice([q for q in range(2, c + d + 1) if (c + d) % q == 0]) if periodic else 1
    jumps = [-c] + [j for j in range(-c + 1, d) if (j + c) % p == 0 and rng.random() < 0.6] + [d]
    if reflecting:
        rim = rng.sample(range(0, d + 2), rng.randint(1, 3))
    else:
        rim = rng.sample(range(-c, d + 2), rng.randint(1, 4))
        if min(rim) >= 0:
            rim.append(rng.randint(-c, -1))

    def poly(exps):
        weights = [F(rng.randint(1, 9), rng.choice(DENOMINATORS)) for _ in exps]
        total = sum(weights) if normalized else 1
        return LaurentPolynomial.from_terms({e: w / total for e, w in zip(exps, weights)})

    return WalkModel(P=poly(jumps), P0=poly(sorted(rim)))


def _max_length(model):
    """The longest length the oracle walks for this model: 6, or less when
    P has many jumps, so that no length has more than about 4000 paths."""
    jumps = len(model.P.support()) + 1
    return min(6, int(math.log(4000) / math.log(jumps)))


def _bridges(model, n):
    """(total walk mass, bridge mass) of the walks on Z of length n."""
    total = bridge = F(0)
    for path, w in enumerate_walk_paths(model, n):
        total += w
        if path_altitudes(path)[-1] == 0:
            bridge += w
    return total, bridge


@settings(max_examples=60)
@given(walk_models(), st.integers(1, 5))
def test_exact_dp_matches_brute_force(model, top):
    # every exact series, the distribution and the bridges, so that every
    # readout of the packed walk is checked: row 0, the arches, the rows
    # below top, the total and the first moment, altitude 0 on Z, and the
    # final rows of both walks
    n = _max_length(model)
    oracle = [brute_force(model, t) for t in range(n + 1)]
    masses = [sum(bf.meander.values(), F(0)) for bf in oracle]
    bridges = [_bridges(model, t) for t in range(n + 1)]

    assert excursion_series(model, n) == [bf.excursion_mass for bf in oracle]
    assert arch_series(model, n) == [F(0)] + [bf.arch_mass for bf in oracle[1:]]
    assert meander_mass_series(model, n) == masses
    assert final_altitude_series(model, n) == [
        bf.final_altitude_expectation() if m else None for bf, m in zip(oracle, masses)]
    assert altitude_series(model, n, top) == [
        [bf.meander.get(a, F(0)) for bf in oracle] for a in range(top)]
    assert bridge_mass_series(model, n) == [bridge for _, bridge in bridges]
    for t, bf in enumerate(oracle):
        assert meander_distribution(model, t).mass == bf.meander
        assert meander_mass(model, t) == masses[t]
        assert excursion_mass(model, t) == bf.excursion_mass
        assert bridge_and_walk_mass(model, t) == bridges[t]
        if t >= 1:
            assert arch_mass(model, t) == bf.arch_mass
        if masses[t]:
            assert final_altitude_expectation(model, t) == bf.final_altitude_expectation()
        if bf.excursion_mass:
            assert returns_to_zero_distribution(model, t).prob == bf.returns_distribution()
        else:
            with pytest.raises(LatticePathError):
                returns_to_zero_distribution(model, t)


def _rule_walk(model, rule):
    """The absorbing walk of the reflection or absorption rule, None where
    reflection is undefined: P0 has no non-negative jump."""
    if rule is BoundaryRule.ABSORPTION:
        return WalkModel(P=model.P, P0=model.P)
    total = model.P0geq.total_weight()
    return WalkModel(P=model.P, P0=model.P0geq.scaled(1 / total)) if total else None


@settings(max_examples=60)
@given(walk_models(), st.integers(0, 4))
def test_path_probability_matches_the_exact_dp(model, n):
    # every jump sequence over the models' jumps and their negatives, so
    # that the folded keys of the absolute-value rule are among them: the
    # table's columns come from one enumeration per rule, and the exact DP's
    # excursion mass of the rule's walk is the reference of the bounded ones
    jumps = sorted({s * j for j in (*model.P.support(), *model.P0.support()) for s in (1, -1)})
    paths = list(itertools.product(jumps, repeat=n))
    for rule in BoundaryRule:
        bounded = rule in (BoundaryRule.REFLECTION, BoundaryRule.ABSORPTION)
        walk = _rule_walk(model, rule) if bounded else model
        if walk is None:
            with pytest.raises(InvalidModelError):
                path_probability(rule, model, paths[0])
            continue
        column = {p: path_probability(rule, model, p) for p in paths}
        total = sum(column.values(), F(0))
        assert total == (1 if any(column.values()) else 0), rule
        for p, prob in column.items():
            alts = path_altitudes(p)
            if alts[-1] != 0 or (rule is not BoundaryRule.UNIFORM and min(alts) < 0):
                assert prob == 0, (rule, p)
        if bounded:
            e_n = excursion_mass(walk, n, "exact")
            assert total == (1 if e_n else 0), rule
            weights = {p: w for p, w in enumerate_meander_paths(walk, n) if path_altitudes(p)[-1] == 0}
            assert set(weights) <= set(column)
            for p, prob in column.items():
                assert prob == (weights[p] / e_n if p in weights else 0), (rule, p)


def _stepped(model, n, *, arches=False):
    """The distributions after 0..n steps of ``step()``; with ``arches``
    row 0 is cleared after every step."""
    dist = AltitudeDistribution(n=0, mass={0: F(1)})
    out = [dist]
    for _ in range(n):
        dist = step(model, dist)
        out.append(dist)
        if arches:
            dist = AltitudeDistribution(n=dist.n, mass={k: w for k, w in dist.mass.items() if k})
    return out


def _free_bridges(model, n):
    """Mass at altitude 0 of the walk on Z after 0..n steps of P, from
    integer numerators over D**t, D the lcm of P's denominators."""
    den = math.lcm(*(p.denominator for _, p in model.P.terms()))
    jumps = [(j, int(p * den)) for j, p in model.P.terms()]
    mass = {0: 1}
    out = [F(1)]
    for t in range(1, n + 1):
        new = {}
        for alt, w in mass.items():
            for j, p in jumps:
                new[alt + j] = new.get(alt + j, 0) + w * p
        mass = new
        out.append(F(mass.get(0, 0), den**t))
    return out


@settings(max_examples=60)
@given(walk_models(), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_path_probabilities_match_path_probability(model, n, seed):
    # a column from one tally lookup equals the paths one by one: the
    # bridges, random jump sequences over the jumps and their negatives,
    # one that climbs off every bridge and one that goes below 0 at once
    rng = random.Random(seed)
    jumps = sorted({s * j for j in (*model.P.support(), *model.P0.support()) for s in (1, -1)})
    paths = [tuple(rng.choice(jumps) for _ in range(n)) for _ in range(40)]
    paths += [(model.P.hi,) * n, (model.P.lo,) * n, *bridge_paths(model, n)[:40]]
    for rule in BoundaryRule:
        try:
            want = [path_probability(rule, model, p) for p in paths]
        except InvalidModelError:
            with pytest.raises(InvalidModelError):
                path_probabilities(rule, model, paths)
            continue
        assert path_probabilities(rule, model, paths) == want, rule


@settings(max_examples=60)
@given(walk_models(), st.integers(0, 30))
def test_exact_distribution_sums_match_fraction_sums(model, n):
    # the integer sums over the common denominator give the reduced
    # Fractions that Fraction addition and division give
    dist = meander_distribution(model, n)
    total = sum(dist.mass.values(), F(0))
    assert dist.total() == total and type(dist.total()) is F
    if not total:
        with pytest.raises(LatticePathError, match="no surviving mass"):
            dist.conditional()
        return
    assert dist.conditional() == {k: w / total for k, w in sorted(dist.mass.items())}
    assert dist.expectation() == sum(k * w for k, w in dist.mass.items()) / total


@pytest.mark.parametrize("spec", [
    # three down-jumps, and a boundary that out-jumps P
    "P: -3:1/4 1:1/2 2:1/4\nP0: -1:1/2 0:1/4 3:1/4\n",
    # weights that do not sum to 1, so numerators grow faster than D**t
    "P: -2:2/3 -1:1/2 1:5/4\nP0: 0:3/2 2:1/3\n",
    # period 2
    "P: -1:1/2 1:1/2\nP0: 1:1\n",
])
def test_exact_series_match_step_across_field_widths(spec, monkeypatch):
    # the packed walk widens its fields as the numerators grow; at n = 120
    # every series crosses several widenings, and the single-length
    # results are checked at every length, so on both sides of each
    model = parse_model(spec)
    n = 120
    widenings = []
    widen = enumeration._widen

    def counting(state, old, new):
        if new > old:
            widenings.append(new)
        return widen(state, old, new)

    monkeypatch.setattr(enumeration, "_widen", counting)
    stepped = _stepped(model, n)
    masses = [d.total() for d in stepped]
    assert excursion_series(model, n) == [d.mass.get(0, F(0)) for d in stepped]
    assert len(widenings) >= 6
    assert meander_mass_series(model, n) == masses
    assert final_altitude_series(model, n) == [d.expectation() if m else None
                                                for d, m in zip(stepped, masses)]
    assert altitude_series(model, n, 3) == [[d.mass.get(a, F(0)) for d in stepped]
                                            for a in range(3)]
    assert arch_series(model, n) == [F(0)] + [d.mass.get(0, F(0))
                                              for d in _stepped(model, n, arches=True)[1:]]
    assert bridge_mass_series(model, n) == _free_bridges(model, n)
    for t in range(n + 1):
        assert meander_distribution(model, t).mass == stepped[t].mass
        assert meander_mass(model, t) == masses[t]


def _agrees(approx, exact):
    """Float ``approx`` is within 1e-12 relative of ``exact``, unless
    ``exact`` is below the smallest normal float, where float mode flushes."""
    if exact is None:
        return approx is None
    if 0 < exact < sys.float_info.min:
        return True
    return abs(approx - exact) <= 1e-12 * exact


@settings(max_examples=60)
@given(walk_models(), st.integers(1, 150), st.integers(1, 4))
def test_float_series_agree_with_exact(model, n, top):
    # every readout of the float walk: row 0, the arches, the total, the
    # first moment, the rows below top, altitude 0 on Z and the final rows;
    # each agrees with exact mode or raises
    readouts = (
        excursion_series, arch_series, meander_mass_series, final_altitude_series,
        bridge_mass_series,
        lambda model, n, mode: [m for row in altitude_series(model, n, top, mode) for m in row],
        lambda model, n, mode: meander_distribution(model, n, mode).mass,
    )
    for readout in readouts:
        exact = readout(model, n, "exact")
        try:
            approx = readout(model, n, "float")
        except NumericalSingularityError:
            continue
        if isinstance(exact, dict):
            assert approx.keys() <= exact.keys()
            exact, approx = list(exact.values()), [approx.get(k, 0.0) for k in exact]
        assert len(approx) == len(exact)
        assert all(_agrees(a, e) for a, e in zip(approx, exact)), readout


def _assert_float_range_raise(model, exc):
    """A float returns statistic raises only where its masses leave the
    float range: an overflow, on a model whose P or P0 weights sum past 1,
    or an underflow. Weights that do not add up to e_n are no such raise."""
    msg = str(exc)
    if "overflowed" in msg:
        assert max(model.P.total_weight(), model.P0.total_weight()) > 1, msg
    else:
        assert "underflowed" in msg or "below the smallest normal float" in msg, msg


@settings(max_examples=60)
@given(walk_models(), st.integers(300, 600))
def test_float_returns_law_sums_to_one_and_matches_the_moments(model, n):
    # the float law is right or raises on leaving the float range:
    # non-negative, summing to 1, with the mean and variance that the
    # excursion series gives on its own
    try:
        law = returns_to_zero_distribution(model, n, "float")
    except NumericalSingularityError as exc:
        _assert_float_range_raise(model, exc)
        return
    except LatticePathError:
        # no excursion of length n, so no moments either
        with pytest.raises(LatticePathError, match="no excursion"):
            returns_moments(model, n, "float")
        return
    probs = list(law.prob.values())
    assert min(probs) >= 0
    assert math.fsum(probs) == pytest.approx(1.0, rel=0, abs=1e-9)
    try:
        mean, var = returns_moments(model, n, "float")
    except NumericalSingularityError as exc:
        # the moments' own products can pass the float range where the
        # law's do not (sum k(k - 1) w_k is about mean^2 * e_n)
        _assert_float_range_raise(model, exc)
        return
    assert law.mean() == pytest.approx(mean, rel=1e-8)
    # the law's variance is its second moment less mean^2, so its round-off
    # is relative to mean^2: a point mass reads about 1e-15 * mean^2 off 0
    assert law.variance() == pytest.approx(var, rel=1e-8, abs=1e-12 * mean**2)
