"""Weighted step sets for directed walks with a boundary at altitude zero.

A walk model is a pair of Laurent polynomials with exact rational weights:
``P`` lists the jumps available at positive altitude, ``P0`` the jumps
available on the boundary. Only the non-negative-exponent part of ``P0``
can actually be taken from altitude zero; weight that ``P0`` carries on
negative jumps is lost, which is what makes a boundary absorbing. When
``P0`` has no negative part at all the boundary reflects and no mass is
lost there.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import cached_property

from .errors import InvalidModelError, ModelFileError

Rational = int | Fraction
# a weight's exponent e makes Fraction build 10**|e|, in time that grows faster
# than |e|; 4300 is also CPython's cap on the digits of an int read from text
MAX_WEIGHT_EXPONENT = 4300
_ZERO = Fraction(0)


class _Record:
    """A frozen record: equal, and hashed, by the tuple of its ``_fields``,
    with the repr ``Name(field=value, ...)`` and no attribute set or deleted
    after ``__init__``, which writes ``__dict__``; the semantics of a frozen
    dataclass, without importing ``dataclasses`` (and ``inspect``) at
    start-up. ``cached_property`` values go into ``__dict__`` too."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _trimmed(weights: dict[int, Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    """(lo, coeffs) of the polynomial with the given weights by exponent,
    zero weights dropped."""
    support = [e for e, w in weights.items() if w]
    if not support:
        return 0, ()
    lo = min(support)
    return lo, tuple(weights.get(e, _ZERO) for e in range(lo, max(support) + 1))


class LaurentPolynomial(_Record):
    """Finite-support Laurent polynomial ``sum coeffs[k] * u**(lo + k)``.

    ``coeffs`` is trimmed: the first and last entries are non-zero unless
    the polynomial is identically zero (represented as ``lo=0, coeffs=()``).
    """

    _fields = __match_args__ = ("lo", "coeffs")
    lo: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, lo: int, coeffs: tuple[Fraction, ...]):
        self.__dict__.update(lo=lo, coeffs=coeffs)

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]],
        *,
        allow_negative_coeffs: bool = False,
    ) -> "LaurentPolynomial":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for exp, weight in items:
            # a Fraction is immutable, so it is kept as given
            w = weight if type(weight) is Fraction else Fraction(weight)
            if not allow_negative_coeffs and w.numerator < 0:
                raise ModelFileError(f"negative weight {w} on jump {exp}")
            if w:
                acc[exp] = acc[exp] + w if exp in acc else w
        return cls(*_trimmed(acc))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1 if self.coeffs else 0

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (exponent, coefficient) for the non-zero coefficients."""
        for k, c in enumerate(self.coeffs, self.lo):
            if c:
                yield k, c

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms())

    @cached_property
    def float_coeffs(self) -> tuple[float, ...]:
        """``float(c)`` for every coefficient, from exponent lo to hi."""
        return tuple(float(c) for c in self.coeffs)

    @cached_property
    def _horner_float(self) -> tuple[float, ...]:
        return self.float_coeffs[::-1]

    @cached_property
    def _horner_complex(self) -> tuple[complex, ...]:
        return tuple(complex(c) for c in reversed(self.coeffs))

    @cached_property
    def _horner_exact(self) -> tuple[Fraction, ...]:
        return self.coeffs[::-1]

    def __call__(self, x):
        """Horner evaluation; exact for int and Fraction arguments.

        Mixed ``Fraction`` arithmetic rounds each coefficient to
        ``float(c)`` or ``complex(c)`` before it meets a float or complex
        argument, so those conversions are cached, highest degree first:
        the result, and its type for numpy scalars too, is the same as
        Horner on the ``Fraction`` coefficients.
        """
        if type(x) is float:
            coeffs = self._horner_float
        elif isinstance(x, complex):
            coeffs = self._horner_complex
        elif isinstance(x, float):
            coeffs = self._horner_float
        else:
            coeffs = self._horner_exact
        if not coeffs:
            return 0 * x
        acc = 0
        for c in coeffs:
            acc = acc * x + c
        return acc * x**self.lo

    def derivative(self) -> "LaurentPolynomial":
        return self._derivative

    @cached_property
    def _derivative(self) -> "LaurentPolynomial":
        return LaurentPolynomial.from_terms(
            ((e - 1, e * c) for e, c in self.terms() if e != 0),
            allow_negative_coeffs=True,
        )

    def nonneg_part(self) -> "LaurentPolynomial":
        return self if self.lo >= 0 else self._nonneg_part

    @cached_property
    def _nonneg_part(self) -> "LaurentPolynomial":
        # the coefficients from exponent 0 on, less their leading zeros; the
        # last one is non-zero, so the zero polynomial is left with lo = 0
        coeffs = self.coeffs[-self.lo:]
        lo = 0
        while lo < len(coeffs) and not coeffs[lo]:
            lo += 1
        return LaurentPolynomial(lo, coeffs[lo:])

    def total_weight(self) -> Fraction:
        """The exact value at u = 1, the sum of the coefficients: the same
        ``Fraction`` as Horner at ``Fraction(1)``, computed once."""
        return self._total_weight

    @cached_property
    def _total_weight(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))

    def scaled(self, factor: Rational) -> "LaurentPolynomial":
        f = Fraction(factor)
        return LaurentPolynomial.from_terms(
            ((e, c * f) for e, c in self.terms()), allow_negative_coeffs=True
        )

    def to_spec_string(self) -> str:
        return " ".join(f"{e}:{c}" for e, c in self.terms())


class ModelKind(enum.Enum):
    REFLECTION = "reflection"
    ABSORPTION = "absorption"


class WalkModel(_Record):
    """Step polynomial ``P`` (positive altitude) and boundary polynomial ``P0``.

    Each part derived from them is built once per model, on first use, and
    kept in the model's ``__dict__``: the hash, since a model keys caches
    such as ``_rule_tally``'s, the period, and the kernel's structural
    constants, which ``structural_constants`` stores there on its first
    solve. Equal models parsed separately each build their own.
    """

    _fields = __match_args__ = ("P", "P0")
    P: LaurentPolynomial
    P0: LaurentPolynomial

    def __init__(self, P: LaurentPolynomial, P0: LaurentPolynomial):
        self.__dict__.update(P=P, P0=P0)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.P, self.P0))

    @cached_property
    def P0geq(self) -> LaurentPolynomial:
        return self.P0.nonneg_part()

    @cached_property
    def _integer_weights(self) -> tuple[int, tuple, tuple]:
        """(D, P's terms, P0geq's terms): D the lcm of the denominators of
        every weight in P and P0, each term (jump, weight * D), all ints;
        the weights of the exact walk."""
        P, P0 = self.P, self.P0
        p = [c.as_integer_ratio() for c in P.coeffs]
        p0 = [c.as_integer_ratio() for c in P0.coeffs]
        den = math.lcm(*[b for _, b in p], *[b for _, b in p0])
        return (den, tuple([(e, a * (den // b)) for e, (a, b) in enumerate(p, P.lo) if a]),
                tuple([(e, a * (den // b)) for e, (a, b) in enumerate(p0, P0.lo) if a and e >= 0]))

    @cached_property
    def boundary_corrections(self) -> tuple[LaurentPolynomial, ...]:
        """r_0..r_{c-1}: a small branch u of the kernel turns the functional
        equation into sum_k r_k(u) F_k = 1/z, with r_0 = P - P0geq and
        r_k = sum over j <= -k-1 of p_j u**(j+k)."""
        r0 = LaurentPolynomial.from_terms(
            [(e, p) for e, p in self.P.terms()]
            + [(e, -p) for e, p in self.P0geq.terms()],
            allow_negative_coeffs=True,
        )
        return (r0,) + tuple(
            LaurentPolynomial.from_terms(
                ((j + k, p) for j, p in self.P.terms() if j <= -k - 1),
                allow_negative_coeffs=True,
            )
            for k in range(1, self.c)
        )

    @property
    def c(self) -> int:
        return -self.P.lo

    @property
    def d(self) -> int:
        return self.P.hi

    @property
    def is_reflection(self) -> bool:
        return self.P0geq == self.P0

    @property
    def is_lukasiewicz(self) -> bool:
        return self.c == 1

    @cached_property
    def period(self) -> int:
        """gcd of the support offsets of P; 1 means aperiodic."""
        sup = self.P.support()
        if not sup:
            return 1
        g = 0
        for e in sup:
            g = math.gcd(g, e - sup[0])
        return max(g, 1)

    @property
    def is_aperiodic(self) -> bool:
        return self.period == 1

    def kind(self) -> ModelKind:
        return ModelKind.REFLECTION if self.is_reflection else ModelKind.ABSORPTION

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """The model invariants it breaks, found once per model and read by
        ``validate`` and ``require_valid``. The asymptotics are stated for
        probability weights with a walk that can leave 0: both lines sum to
        1, P has a negative and a positive jump, P0 a positive one."""
        found: list[str] = []
        if self.P.is_zero:
            found.append("P is identically zero")
        if self.P0.is_zero:
            found.append("P0 is identically zero")
        for name, poly in (("P", self.P), ("P0", self.P0)):
            for e, c in poly.terms():
                if c < 0:
                    found.append(f"{name} has negative weight {c} on jump {e}")
        if not self.P.is_zero:
            if self.P.total_weight() != 1:
                found.append(f"P(1) = {self.P.total_weight()} != 1")
            if self.c < 1:
                found.append("P has no negative jump (c < 1)")
            if self.d < 1:
                found.append("P has no positive jump (d < 1)")
        if not self.P0.is_zero:
            if self.P0.total_weight() != 1:
                found.append(f"P0(1) = {self.P0.total_weight()} != 1")
            if self.P0.hi < 1:
                found.append("P0 has no positive jump: the walk never leaves 0")
        return tuple(found)


class ValidationReport(_Record):
    _fields = __match_args__ = ("ok", "violations", "kind", "lukasiewicz", "period")
    ok: bool
    violations: tuple[str, ...]
    kind: ModelKind
    lukasiewicz: bool
    period: int

    def __init__(self, ok: bool, violations: tuple[str, ...], kind: ModelKind,
                 lukasiewicz: bool, period: int):
        self.__dict__.update(ok=ok, violations=violations, kind=kind, lukasiewicz=lukasiewicz,
                             period=period)


def validate(model: WalkModel) -> ValidationReport:
    """Check every model invariant and report the violated ones."""
    return ValidationReport(
        ok=not model.violations,
        violations=model.violations,
        kind=model.kind(),
        lukasiewicz=model.is_lukasiewicz,
        period=model.period,
    )


def require_valid(model: WalkModel) -> None:
    """Raise ``InvalidModelError`` with ``validate``'s text; the one guard of
    the kernel and asymptotic layers."""
    if model.violations:
        raise InvalidModelError("; ".join(model.violations))


def _read_weight(weight_s: str, label: str) -> Fraction:
    """The weight ``Fraction(weight_s)`` reads: ASCII digits ``a`` or ``a/b``
    through ``int``, any other spelling through the exponent guard and
    ``Fraction`` itself, so both routes fail, and succeed, alike."""
    num_s, slash, den_s = weight_s.partition("/")
    try:
        if num_s.isascii() and num_s.isdigit() and (
                not slash or den_s.isascii() and den_s.isdigit()):
            return Fraction(int(num_s), int(den_s) if slash else 1)
        _, e, exponent = weight_s.lower().partition("e")
        if e and abs(int(exponent)) > MAX_WEIGHT_EXPONENT:
            raise ModelFileError(
                f"weight {weight_s!r} on {label} line has |exponent| > {MAX_WEIGHT_EXPONENT}")
        weight = Fraction(weight_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFileError(f"bad weight {weight_s!r} on {label} line") from exc
    if weight < 0:
        raise ModelFileError(f"negative weight {weight_s} on {label} line")
    return weight


def _parse_poly_line(body: str, label: str) -> LaurentPolynomial:
    pairs = body.split()
    if not pairs:
        raise ModelFileError(f"{label} line has no jump:weight pairs")
    weights: dict[int, Fraction] = {}
    for pair in pairs:
        jump_s, colon, weight_s = pair.partition(":")
        if not colon:
            raise ModelFileError(f"malformed pair {pair!r} on {label} line")
        try:
            jump = int(jump_s)
        except ValueError as exc:
            raise ModelFileError(f"bad jump {jump_s!r} on {label} line") from exc
        weight = _read_weight(weight_s, label)
        if jump in weights:
            raise ModelFileError(f"duplicate jump {jump} on {label} line")
        weights[jump] = weight
    return LaurentPolynomial(*_trimmed(weights))


def parse_model(text: str) -> WalkModel:
    """Parse the line-oriented model format.

    Comment lines start with ``#``. The file must contain exactly one
    ``P:`` line and one ``P0:`` line, each listing ``jump:weight`` pairs
    separated by whitespace. A weight parses exactly where
    ``fractions.Fraction`` parses the string on the running Python: ``a/b``,
    an integer, a decimal, an exponent, each with an optional sign;
    underscores between digits only from Python 3.11 on. A zero weight drops
    its jump; a negative weight, a zero denominator, an exponent beyond
    ``MAX_WEIGHT_EXPONENT`` in size or a jump repeated on one line raises
    ``ModelFileError``.
    """
    polys: dict[str, LaurentPolynomial] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ModelFileError(f"line {lineno}: expected 'P:' or 'P0:' line")
        label, body = line.split(":", 1)
        label = label.strip()
        if label not in ("P", "P0"):
            raise ModelFileError(f"line {lineno}: unknown label {label!r}")
        if label in polys:
            raise ModelFileError(f"line {lineno}: duplicate {label} line")
        polys[label] = _parse_poly_line(body, label)
    for needed in ("P", "P0"):
        if needed not in polys:
            raise ModelFileError(f"missing {needed} line")
    return WalkModel(P=polys["P"], P0=polys["P0"])


def format_model(model: WalkModel) -> str:
    return f"P: {model.P.to_spec_string()}\nP0: {model.P0.to_spec_string()}\n"


def load_model(path: str | os.PathLike) -> WalkModel:
    # one unbuffered read and one decode: the lines, and a decoding error,
    # are those of a text-mode read, without the cost of its text layer
    try:
        with open(path, "rb", buffering=0) as f:
            data = f.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    return parse_model(data.decode("utf-8"))
