"""Model types, parsing and validation."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepaths import (
    InvalidModelError,
    LaurentPolynomial,
    ModelFileError,
    ModelKind,
    WalkModel,
    format_model,
    load_model,
    parse_model,
    validate,
)
from latticepaths.model import MAX_WEIGHT_EXPONENT, _parse_poly_line, require_valid
from conftest import MODEL_NAMES, MODELS_DIR, fresh_copies, random_model


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
    short_boundary = parse_model("P: -1:1/2 1:1/2\nP0: -1:1/4 1:1/2\n")
    assert validate(short_boundary).violations == ("P0(1) = 3/4 != 1",)
    stays = parse_model("P: -1:1/2 1:1/2\nP0: -1:1/2 0:1/2\n")
    assert validate(stays).violations == ("P0 has no positive jump: the walk never leaves 0",)


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
    with pytest.raises(ModelFileError, match="^P line has no jump:weight pairs$"):
        parse_model("P:\nP0: 1:1\n")
    with pytest.raises(ModelFileError, match="^malformed pair '1' on P0 line$"):
        parse_model("P: -1:1/2 1:1/2\nP0: 1\n")
    with pytest.raises(ModelFileError, match="^duplicate jump -1 on P line$"):
        parse_model("P: -1:1/4 -1:1/4 1:1/2\nP0: 1:1\n")
    with pytest.raises(ModelFileError, match="^line 2: expected 'P:' or 'P0:' line$"):
        parse_model("P: -1:1/2 1:1/2\nP0 1\nP0: 1:1\n")


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


def test_period_is_the_support_gcd_read_once_per_model(models, random_models, monkeypatch):
    # period is derived once per model: the first read walks P's support,
    # later reads return the stored gcd
    support = LaurentPolynomial.support
    calls = []

    def counted(self):
        calls.append(self)
        return support(self)

    rng = random.Random(11)
    cases = fresh_copies(list(models.values()) + random_models
                         + [random_model(rng) for _ in range(50)])
    monkeypatch.setattr(LaurentPolynomial, "support", counted)
    for model in cases:
        sup = support(model.P)
        expected = math.gcd(*(e - sup[0] for e in sup)) or 1
        calls.clear()
        assert model.period == expected, str(model.P)
        assert calls == [model.P]
        calls.clear()
        assert model.period == expected and model.is_aperiodic == (expected == 1)
        assert calls == [], str(model.P)
    assert {model.period for model in cases} >= {1, 2}


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


def test_weight_exponent_beyond_the_bound_raises_at_once():
    # Fraction would build 10**99999999 first, which takes minutes
    start = time.perf_counter()
    with pytest.raises(ModelFileError) as info:
        parse_model("P: -1:1e-99999999 1:1/2\nP0: 0:1\n")
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == "weight '1e-99999999' on P line has |exponent| > 4300"
    for spelling in ("1E4301", "1e-43_01", "0.5e+4301"):
        with pytest.raises(ModelFileError, match=r"\|exponent\| > 4300"):
            parse_model(f"P: -1:1/2 1:{spelling}\nP0: 0:1\n")
    # at the bound the weight is read exactly, as Fraction reads it
    p = parse_model("P: -1:1e-4300 1:1/2 2:1E4300\nP0: 0:1\n").P
    assert dict(p.terms()) == {-1: Fraction(1, 10**4300), 1: Fraction(1, 2), 2: 10**4300}


def _parent_parse_poly_line(body, label):
    """The parser as it read weights before ASCII a and a/b went through
    int(): every weight through the exponent guard and Fraction(str)."""
    pairs = body.split()
    if not pairs:
        raise ModelFileError(f"{label} line has no jump:weight pairs")
    terms = {}
    for pair in pairs:
        if ":" not in pair:
            raise ModelFileError(f"malformed pair {pair!r} on {label} line")
        jump_s, weight_s = pair.split(":", 1)
        try:
            jump = int(jump_s)
        except ValueError as exc:
            raise ModelFileError(f"bad jump {jump_s!r} on {label} line") from exc
        _, e, exponent = weight_s.lower().partition("e")
        try:
            if e and abs(int(exponent)) > MAX_WEIGHT_EXPONENT:
                raise ModelFileError(
                    f"weight {weight_s!r} on {label} line has |exponent| > {MAX_WEIGHT_EXPONENT}")
            weight = Fraction(weight_s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFileError(f"bad weight {weight_s!r} on {label} line") from exc
        if weight < 0:
            raise ModelFileError(f"negative weight {weight_s} on {label} line")
        if jump in terms:
            raise ModelFileError(f"duplicate jump {jump} on {label} line")
        terms[jump] = weight
    return LaurentPolynomial.from_terms(terms)


def _outcome(parse, body, label):
    try:
        return parse(body, label)
    except ModelFileError as exc:
        return f"ModelFileError: {exc}"


# well-formed weights three times in four, so that most lines parse; the
# rest are spellings that int() and Fraction(str) read differently, or not at all
GOOD_WEIGHTS = st.one_of(
    st.integers(0, 10**30).map(str),
    st.builds("{}/{}".format, st.integers(0, 10**12), st.integers(1, 10**6)),
    st.sampled_from(["0", "0/5", "01/2", "007/010", "+1/3", "0.25", "1e-3", "1_0/3", "٣/4", "-0"]),
)
HOSTILE_WEIGHTS = st.one_of(
    st.sampled_from(["1/0", "-1/3", "1e4301", "²", "1//3", "/3", "3/", "", "1/2/3", "1" * 4301,
                     "1/" + "1" * 4301, "nan", "inf", "1.5/2", "x", "0e5", "1e-4300"]),
    st.text(alphabet="0123456789/+-._eE٣²", max_size=7),
)


def _mostly(good, bad, odds):
    """``good``, or one time in ``odds`` ``bad``."""
    return st.integers(1, odds).flatmap(lambda k: bad if k == 1 else good)


WEIGHTS = _mostly(GOOD_WEIGHTS, HOSTILE_WEIGHTS, 4)
JUMPS = _mostly(st.integers(-4, 4).map(str), st.sampled_from(["+2", "-0", "٣", "x", "", "1.0"]), 8)
PAIRS = _mostly(st.builds("{}:{}".format, JUMPS, WEIGHTS),
                st.sampled_from(["1", "abc", "1:2:3", ":", "::"]), 12)


@settings(max_examples=1000)
@given(pairs=st.lists(PAIRS, max_size=5), label=st.sampled_from(["P", "P0"]),
       sep=st.sampled_from([" ", "\t", "  "]))
def test_parser_reads_each_line_as_the_fraction_str_parser_does(pairs, label, sep):
    body = sep.join(pairs)
    got = _outcome(_parse_poly_line, body, label)
    want = _outcome(_parent_parse_poly_line, body, label)
    if isinstance(want, str):
        assert got == want, body
    else:
        _assert_same_poly(got, want)
        assert (got.lo, got.coeffs) == (want.lo, want.coeffs)


def _respelled(text, spell):
    """The model file with each weight respelled by ``spell``."""
    model = parse_model(text)
    return "".join(f"{label}: " + " ".join(f"{e}:{spell(c)}" for e, c in poly.terms()) + "\n"
                   for label, poly in (("P", model.P), ("P0", model.P0)))


def _decimal(c):
    """c as a decimal string where it has one (2/5 as 0.4), else as a/b."""
    for k in range(30):
        m, r = divmod(c.numerator * 10**k, c.denominator)
        if not r:
            digits = str(m).rjust(k + 1, "0")
            return f"{digits[:-k]}.{digits[-k:]}" if k else digits
    return str(c)


def test_parsed_models_equal_and_hash_as_the_same_fractions_spelled_any_way(models, random_models):
    texts = [(MODELS_DIR / f"{name}.model").read_text(encoding="utf-8") for name in MODEL_NAMES]
    texts += [format_model(m) for m in random_models]
    for text in texts:
        model = parse_model(text)
        built = WalkModel(LaurentPolynomial.from_terms(dict(model.P.terms())),
                          LaurentPolynomial.from_terms(dict(model.P0.terms())))
        doubled = _respelled(text, lambda c: f"{2 * c.numerator}/{2 * c.denominator}")
        decimal = _respelled(text, _decimal)
        for other in (built, parse_model(doubled), parse_model(decimal)):
            assert model == other and hash(model) == hash(other), text
            assert hash(model.P) == hash(other.P) and hash(model.P0) == hash(other.P0)
            assert {other: True}[model]
    assert "0.5" in _respelled("P: -1:1/2 1:1/2\nP0: 1:1\n", _decimal)


def test_model_values_are_frozen_and_print_their_fields(models):
    model = models["motzkin_absorption"]
    report = validate(model)
    for obj, name in ((model.P, "lo"), (model, "P"), (report, "ok")):
        for attr in (name, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 1)
            with pytest.raises(AttributeError):
                delattr(obj, attr)
    assert repr(LaurentPolynomial(-1, (Fraction(1, 2), Fraction(0), Fraction(1, 2)))) == (
        "LaurentPolynomial(lo=-1, coeffs=(Fraction(1, 2), Fraction(0, 1), Fraction(1, 2)))")
    assert repr(WalkModel(P=LaurentPolynomial(0, ()), P0=LaurentPolynomial(1, (Fraction(1),)))) == (
        "WalkModel(P=LaurentPolynomial(lo=0, coeffs=()), "
        "P0=LaurentPolynomial(lo=1, coeffs=(Fraction(1, 1),)))")
    assert repr(validate(models["dyck_reflection"])) == (
        "ValidationReport(ok=True, violations=(), kind=<ModelKind.REFLECTION: 'reflection'>, "
        "lukasiewicz=True, period=2)")
    assert report == validate(parse_model(format_model(model)))
    assert hash(report) == hash(validate(parse_model(format_model(model))))
    assert model != model.P and model.P != (model.P.lo, model.P.coeffs)


@pytest.mark.parametrize("p0", ["-1:11/20 1:9/20", "-2:1/2 -1:1/2", "-1:1/4 0:1/4 2:1/2",
                                "-3:1/2 -1:1/4 1:1/4", "0:1", "1:1"])
def test_sliced_p0geq_is_the_nonnegative_terms(p0):
    model = parse_model(f"P: -1:1/2 1:1/2\nP0: {p0}\n")
    want = _reference_from_terms([(e, c) for e, c in model.P0.terms() if e >= 0])
    _assert_same_poly(model.P0geq, want)
    assert (model.P0geq.lo, model.P0geq.coeffs) == (want.lo, want.coeffs)


@pytest.mark.parametrize("data", [
    b"P: -1:1/2 1:1/2\r\nP0: 1:1\r\n",
    b"P: -1:1/2 1:1/2\rP0: 1:1\rP: 1:1\r",
    b"P: -1:1/2 1:1/2\nP0: 1:1\n\xff\n",
    b"P: -1:1/2 1:1/2\nP0: 1:1\n\xe2\x80",
    b"\xef\xbb\xbfP: -1:1/2 1:1/2\nP0: 1:1\n",
    b"P: -1:1/2 1:1/2\n\x0cP0: 1:1 1:0\n",
    b"P: -1:1/2 1:1/2\nP0: 1:1\xe2\x80\xa8Q: 1\n",
    b"",
], ids=["crlf", "cr", "bad-utf8", "cut-utf8", "bom", "form-feed", "line-separator", "empty"])
def test_load_model_reads_a_file_as_a_text_mode_read_does(tmp_path, data):
    path = tmp_path / "m.model"
    path.write_bytes(data)

    def outcome(read):
        try:
            return read()
        except (ModelFileError, UnicodeDecodeError) as exc:
            return f"{type(exc).__name__}: {exc}"

    assert outcome(lambda: load_model(path)) == outcome(
        lambda: parse_model(path.read_text(encoding="utf-8")))


def test_nonneg_part_of_any_polynomial_is_its_nonnegative_terms():
    rng = random.Random(9)
    for _ in range(300):
        terms = {rng.randint(-5, 3): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(rng.randint(0, 6))}
        poly = LaurentPolynomial.from_terms(terms, allow_negative_coeffs=True)
        want = _reference_from_terms([(e, c) for e, c in terms.items() if e >= 0],
                                     allow_negative_coeffs=True)
        _assert_same_poly(poly.nonneg_part(), want)
        assert (poly.nonneg_part().lo, poly.nonneg_part().coeffs) == (want.lo, want.coeffs)
