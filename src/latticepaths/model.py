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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Union

from .errors import InvalidModelError, ModelFileError

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class LaurentPolynomial:
    """Finite-support Laurent polynomial ``sum coeffs[k] * u**(lo + k)``.

    ``coeffs`` is trimmed: the first and last entries are non-zero unless
    the polynomial is identically zero (represented as ``lo=0, coeffs=()``).
    """

    lo: int
    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_terms(
        cls,
        terms: Union[Mapping[int, Rational], Iterable[tuple[int, Rational]]],
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
        acc = {e: w for e, w in acc.items() if w}
        if not acc:
            return cls(0, ())
        lo = min(acc)
        hi = max(acc)
        zero = Fraction(0)
        coeffs = tuple(acc.get(e, zero) for e in range(lo, hi + 1))
        return cls(lo, coeffs)

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
    def _complex_coeffs(self) -> tuple[complex, ...]:
        return tuple(complex(c) for c in self.coeffs)

    def __call__(self, x):
        """Horner evaluation; exact for int and Fraction arguments.

        Mixed ``Fraction`` arithmetic rounds each coefficient to
        ``float(c)`` or ``complex(c)`` before it meets a float or complex
        argument, so those conversions are cached: the result, and its type
        for numpy scalars too, is the same as Horner on the ``Fraction``
        coefficients.
        """
        if self.is_zero:
            return 0 * x
        if isinstance(x, complex):
            coeffs = self._complex_coeffs
        elif isinstance(x, float):
            coeffs = self.float_coeffs
        else:
            coeffs = self.coeffs
        acc = 0
        for c in reversed(coeffs):
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
        return LaurentPolynomial.from_terms(
            ((e, c) for e, c in self.terms() if e >= 0),
            allow_negative_coeffs=True,
        )

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


@dataclass(frozen=True)
class WalkModel:
    """Step polynomial ``P`` (positive altitude) and boundary polynomial ``P0``."""

    P: LaurentPolynomial
    P0: LaurentPolynomial

    @cached_property
    def P0geq(self) -> LaurentPolynomial:
        return self.P0.nonneg_part()

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

    @property
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


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    kind: ModelKind
    lukasiewicz: bool
    period: int


def validate(model: WalkModel) -> ValidationReport:
    """Check every model invariant and report the violated ones."""
    violations: list[str] = []
    if model.P.is_zero:
        violations.append("P is identically zero")
    if model.P0.is_zero:
        violations.append("P0 is identically zero")
    for name, poly in (("P", model.P), ("P0", model.P0)):
        for e, c in poly.terms():
            if c < 0:
                violations.append(f"{name} has negative weight {c} on jump {e}")
    if not model.P.is_zero:
        if model.P.total_weight() != 1:
            violations.append(f"P(1) = {model.P.total_weight()} != 1")
        if model.c < 1:
            violations.append("P has no negative jump (c < 1)")
        if model.d < 1:
            violations.append("P has no positive jump (d < 1)")
    if not model.P0.is_zero and model.P0.total_weight() != 1:
        violations.append(f"P0(1) = {model.P0.total_weight()} != 1")
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        kind=model.kind(),
        lukasiewicz=model.is_lukasiewicz,
        period=model.period,
    )


def require_valid(model: WalkModel) -> None:
    report = validate(model)
    if not report.ok:
        raise InvalidModelError("; ".join(report.violations))


def _parse_poly_line(body: str, label: str) -> LaurentPolynomial:
    pairs = body.split()
    if not pairs:
        raise ModelFileError(f"{label} line has no jump:weight pairs")
    terms: dict[int, Fraction] = {}
    for pair in pairs:
        if ":" not in pair:
            raise ModelFileError(f"malformed pair {pair!r} on {label} line")
        jump_s, weight_s = pair.split(":", 1)
        try:
            jump = int(jump_s)
        except ValueError as exc:
            raise ModelFileError(f"bad jump {jump_s!r} on {label} line") from exc
        try:
            weight = Fraction(weight_s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFileError(f"bad weight {weight_s!r} on {label} line") from exc
        if weight < 0:
            raise ModelFileError(f"negative weight {weight_s} on {label} line")
        if jump in terms:
            raise ModelFileError(f"duplicate jump {jump} on {label} line")
        terms[jump] = weight
    return LaurentPolynomial.from_terms(terms)


def parse_model(text: str) -> WalkModel:
    """Parse the line-oriented model format.

    Comment lines start with ``#``. The file must contain exactly one
    ``P:`` line and one ``P0:`` line, each listing ``jump:weight`` pairs
    separated by whitespace. A weight parses exactly where
    ``fractions.Fraction`` parses the string on the running Python: ``a/b``,
    an integer, a decimal, an exponent, each with an optional sign;
    underscores between digits only from Python 3.11 on. A zero weight drops
    its jump; a negative weight, a zero denominator or a jump repeated on
    one line raises ``ModelFileError``.
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


def load_model(path: Union[str, Path]) -> WalkModel:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    return parse_model(text)
