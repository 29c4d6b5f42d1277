"""Model types, parsing and validation."""

import random
from fractions import Fraction

import numpy as np
import pytest

from latticepaths import (
    InvalidModelError,
    LaurentPolynomial,
    ModelFileError,
    ModelKind,
    WalkModel,
    format_model,
    parse_model,
    validate,
)
from latticepaths.model import require_valid
from conftest import MODEL_NAMES, MODELS_DIR, random_model


def test_laurent_evaluation_and_trimming():
    p = LaurentPolynomial.from_terms({-1: Fraction(3, 10), 0: Fraction(3, 10), 1: Fraction(2, 5)})
    assert p.lo == -1 and p.hi == 1
    assert p(Fraction(1)) == 1
    assert p(Fraction(2)) == Fraction(3, 20) + Fraction(3, 10) + Fraction(4, 5)
    q = LaurentPolynomial.from_terms({2: Fraction(0), 3: Fraction(1, 2)})
    assert q.lo == 3 and q.coeffs == (Fraction(1, 2),)


def test_laurent_derivative_and_nonneg_part():
    p = LaurentPolynomial.from_terms({-1: Fraction(1, 2), 1: Fraction(1, 2)})
    dp = p.derivative()
    assert dp(Fraction(1)) == 0
    assert dp(2.0) == pytest.approx(0.5 - 0.5 / 4.0)
    assert p.nonneg_part().to_spec_string() == "1:1/2"


def test_zero_polynomial():
    z = LaurentPolynomial.from_terms({})
    assert z.is_zero
    assert z(2.0) == 0
    assert z.derivative().is_zero


def test_validate_examples(models):
    r = validate(models["dyck_reflection"])
    assert r.ok and r.kind is ModelKind.REFLECTION and r.lukasiewicz and r.period == 2
    r = validate(models["dyck_absorption"])
    assert r.ok and r.kind is ModelKind.ABSORPTION
    assert models["dyck_absorption"].P0geq.to_spec_string() == "1:1/2"
    r = validate(models["motzkin_reflection"])
    assert r.ok and r.kind is ModelKind.REFLECTION and r.period == 1


def test_validate_reports_violations():
    bad = parse_model("P: -1:1/2 1:1/3\nP0: 1:1\n")
    report = validate(bad)
    assert not report.ok
    assert any("P(1)" in v for v in report.violations)
    with pytest.raises(InvalidModelError):
        require_valid(bad)
    no_down = parse_model("P: 0:1/2 1:1/2\nP0: 1:1\n")
    assert any("negative jump" in v for v in validate(no_down).violations)


def test_classify_kind(models):
    assert models["dyck_reflection"].kind() is ModelKind.REFLECTION
    assert models["dyck_absorption"].kind() is ModelKind.ABSORPTION
    assert models["motzkin_reflection"].kind() is ModelKind.REFLECTION


def test_parse_decimal_weights_are_exact():
    m = parse_model("P: -1:0.3 0:0.3 1:0.4\nP0: 0:0.5 1:0.5\n")
    assert dict(m.P.terms())[-1] == Fraction(3, 10)
    assert m.P.total_weight() == 1


def test_parse_errors():
    with pytest.raises(ModelFileError):
        parse_model("P: -1:1/2 1:1/2\n")  # missing P0
    with pytest.raises(ModelFileError):
        parse_model("P: -1:1/2 1:1/2\nP0: 1:1\nP: 0:1\n")  # duplicate
    with pytest.raises(ModelFileError):
        parse_model("P: -1:1/2 x:1/2\nP0: 1:1\n")
    with pytest.raises(ModelFileError):
        parse_model("P: -1:-1/2 1:3/2\nP0: 1:1\n")
    with pytest.raises(ModelFileError):
        parse_model("Q: -1:1/2 1:1/2\nP0: 1:1\n")


WEIGHT_SPELLINGS = ["1/3", "007/010", "0.3", "1e-1", "+1/2", "1_0/3", "١/٢", "0",
                    "0/5", "1/0", "1/2/3", "-1/2", "x", "1/", "/2", "nan", "1.5/2"]


@pytest.mark.parametrize("spelling", WEIGHT_SPELLINGS)
def test_weight_spellings_parse_where_fraction_parses(spelling):
    # the parser reads a weight exactly as Fraction(str) does on the running
    # Python: 1_0/3 is an error on 3.10 and 10/3 from 3.11 on
    text = f"P: -1:1/2 1:1/2 2:{spelling}\nP0: 0:1\n"
    try:
        want = Fraction(spelling)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ModelFileError) as info:
            parse_model(text)
        assert str(info.value) == f"bad weight {spelling!r} on P line"
        return
    if want < 0:
        with pytest.raises(ModelFileError) as info:
            parse_model(text)
        assert str(info.value) == f"negative weight {spelling} on P line"
        return
    p = parse_model(text).P
    # a zero weight drops its jump
    assert p == _reference_from_terms({-1: Fraction(1, 2), 1: Fraction(1, 2), 2: want})
    assert dict(p.terms()).get(2, 0) == want
    assert all(type(c) is Fraction for c in p.coeffs)


def _reference_from_terms(terms, allow_negative_coeffs=False):
    """``from_terms`` as one Fraction per weight, per sum and per gap."""
    items = terms.items() if isinstance(terms, dict) else list(terms)
    acc = {}
    for exp, weight in items:
        w = Fraction(weight)
        if w < 0 and not allow_negative_coeffs:
            raise ModelFileError(f"negative weight {w} on jump {exp}")
        if w != 0:
            acc[exp] = acc.get(exp, Fraction(0)) + w
    acc = {e: w for e, w in acc.items() if w != 0}
    if not acc:
        return LaurentPolynomial(0, ())
    lo, hi = min(acc), max(acc)
    return LaurentPolynomial(lo, tuple(acc.get(e, Fraction(0)) for e in range(lo, hi + 1)))


def _reference_terms(poly):
    return [(poly.lo + k, c) for k, c in enumerate(poly.coeffs) if c != 0]


def _assert_same_poly(got, want):
    assert got == want and hash(got) == hash(want)
    assert all(type(c) is Fraction for c in got.coeffs)
    assert list(got.terms()) == _reference_terms(want)


def test_from_terms_on_mixed_repeated_and_cancelling_terms():
    p = LaurentPolynomial.from_terms([(0, 1), (0, Fraction(1, 2)), (3, 0.25), (-2, 0)])
    assert (p.lo, p.coeffs) == (0, (Fraction(3, 2), 0, 0, Fraction(1, 4)))
    _assert_same_poly(p, _reference_from_terms([(0, 1), (0, Fraction(1, 2)), (3, 0.25)]))
    cancel = [(2, 1), (-1, Fraction(1, 3)), (2, -1.0), (0, 0.5), (-1, Fraction(-1, 3))]
    _assert_same_poly(LaurentPolynomial.from_terms(cancel, allow_negative_coeffs=True),
                      LaurentPolynomial(0, (Fraction(1, 2),)))
    assert LaurentPolynomial.from_terms([(1, 2), (1, -2)], allow_negative_coeffs=True).is_zero
    for weight in (-1, Fraction(-1, 2), -0.5):
        with pytest.raises(ModelFileError) as info:
            LaurentPolynomial.from_terms([(0, 1), (3, weight)])
        assert str(info.value) == f"negative weight {Fraction(weight)} on jump 3"
    rng = random.Random(11)
    for _ in range(300):
        terms = [(rng.randint(-4, 4), rng.choice([
            rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            rng.randint(-8, 8) / 4])) for _ in range(rng.randint(0, 8))]
        terms += [(e, -w) for e, w in terms if rng.random() < 0.3]  # cancel some
        _assert_same_poly(LaurentPolynomial.from_terms(iter(terms), allow_negative_coeffs=True),
                          _reference_from_terms(terms, allow_negative_coeffs=True))


def _reference_parse(text):
    """The model file read with Fraction(str) for every weight."""
    polys = {}
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            label, body = line.split(":", 1)
            polys[label.strip()] = _reference_from_terms(
                {int(j): Fraction(w) for j, w in (pair.split(":", 1) for pair in body.split())})
    return polys["P"], polys["P0"]


def test_parsed_models_keep_their_terms_equality_and_hash():
    rng = random.Random(7)
    texts = [(MODELS_DIR / f"{name}.model").read_text(encoding="utf-8") for name in MODEL_NAMES]
    texts += [format_model(random_model(rng)) for _ in range(50)]
    for text in texts:
        model = parse_model(text)
        ref_p, ref_p0 = _reference_parse(text)
        _assert_same_poly(model.P, ref_p)
        _assert_same_poly(model.P0, ref_p0)
        _assert_same_poly(model.P0geq, _reference_from_terms(
            [(e, c) for e, c in _reference_terms(ref_p0) if e >= 0]))
        assert model == WalkModel(ref_p, ref_p0) and hash(model) == hash(WalkModel(ref_p, ref_p0))


def test_roundtrip_fixed(models):
    for model in models.values():
        assert parse_model(format_model(model)) == model


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        model = random_model(rng)
        assert parse_model(format_model(model)) == model


def test_p0geq_weight_bounded(models, random_models):
    for model in list(models.values()) + random_models:
        total = model.P0geq.total_weight()
        assert total <= 1
        assert (total == 1) == model.is_reflection


def test_period_divides_support_offsets(models, random_models):
    for model in list(models.values()) + random_models:
        g = model.period
        sup = model.P.support()
        assert all((e - sup[0]) % g == 0 for e in sup)


def test_periodicity_values(models):
    assert models["dyck_reflection"].period == 2
    assert models["motzkin_reflection"].period == 1
    assert models["two_down_reflection"].period == 1


def _fraction_horner(poly, x):
    """Horner evaluation on the Fraction coefficients themselves."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc * x**poly.lo


def _random_laurent(rng):
    lo = rng.randint(-3, 1)
    terms = {lo + k: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for k in range(rng.randint(1, 6))}
    terms[lo] = Fraction(rng.randint(1, 9), rng.randint(1, 12))
    return LaurentPolynomial.from_terms(terms, allow_negative_coeffs=True)


def test_float_evaluation_matches_fraction_horner():
    rng = random.Random(7)
    for _ in range(200):
        poly = _random_laurent(rng)
        re, im = rng.uniform(-2, 2), rng.uniform(-2, 2)
        for x in (re, complex(re, im), np.float64(re), np.complex128(complex(re, im)),
                  complex(re, 0.0), complex(-re, -0.0)):
            got, want = poly(x), _fraction_horner(poly, x)
            assert type(got) is type(want), (poly, x)
            assert repr(got) == repr(want), (poly, x)


def test_exact_evaluation_stays_exact():
    rng = random.Random(8)
    for _ in range(100):
        poly = _random_laurent(rng)
        x = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        assert poly(x) == _fraction_horner(poly, x)
        assert type(poly(x)) is Fraction
        if poly.lo >= 0:
            k = rng.randint(-5, 5)
            assert poly(k) == _fraction_horner(poly, Fraction(k))
            assert type(poly(k)) is Fraction


def test_value_at_one_is_fraction_horner_at_one(models, random_models):
    # the exact value at u = 1 is the coefficient sum, computed once
    for model in list(models.values()) + random_models:
        for poly in (model.P, model.P0, model.P0geq):
            for p in (poly, poly.derivative(), poly.derivative().derivative()):
                got, want = p.total_weight(), _fraction_horner(p, Fraction(1))
                assert got == want and type(got) is type(want), str(p)
                assert p.total_weight() is got


def test_cached_views_keep_models_equal_and_hashable(models):
    for name, model in models.items():
        fresh = parse_model(format_model(model))
        assert model.P0geq is model.P0geq
        assert model.P.derivative() is model.P.derivative()
        model.P0geq.derivative()
        model.P(0.5), model.P0(0.3 + 0.1j)
        assert model == fresh and hash(model) == hash(fresh), name
        assert model.P == fresh.P and hash(model.P) == hash(fresh.P), name
        assert {fresh: name}[model] == name
