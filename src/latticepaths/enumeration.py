"""Exact finite-length statistics for boundary walk models.

Everything here is ground truth for the rest of the package: step-by-step
recurrences in exact arithmetic (default) or double precision
(``mode="float"``, for lengths in the thousands), plus a brute-force path
enumerator used as an independent oracle in the tests.

The recurrence is the obvious one. Mass sitting at altitude zero steps with
the boundary polynomial, mass at positive altitude steps with the bulk
polynomial, and anything landing below zero is discarded (absorbed).

One engine, ``_walk``, runs every recurrence as slice updates on a numpy
array indexed by altitude. Exact mode works on integers: every weight is an
integer over D, the lcm of the denominators in ``P`` and ``P0``, so the
state after t steps is a vector of Python ints (an ``object`` array) over
D**t, and a value becomes a ``Fraction`` only when it is output. Float mode
runs the same updates on float64. Each step touches only the live window of
rows that can be non-zero, between two reused arrays; rows that are exactly
zero (unreachable, or underflowed in float mode) drop out of it, so the
results are those of a full-width update, bit for bit.

A step is a fixed number of numpy calls, whatever the number of jumps: a
read-only strided view of the zero-padded state stacks the source rows of
every jump, one multiply by the dense jump weights fills one term row per
jump, and one reduce along the rows adds them into the new state. The
reduce adds the boundary row first and then the jumps in ascending order,
the order of a term-by-term update, and the zeros it adds besides (padding,
absent jumps) are exact, so float results keep every bit. Exact mode makes
the same calls on blocks of columns in turn, so that only one block of
big-int products is alive at a time.

The returns-to-zero law needs no count axis: an excursion is a sequence of
arches, so the weight of k returns is w_k = [z^n] A(z)^k, where A is the
arch series. One two-column walk gives A and the excursion mass e_n, and
baby steps (A^1..A^B, B about sqrt(n)/2) with giant steps (A^(qB)) give
every w_k from about 2 sqrt(K) truncated products for a law ending at K
returns: integer dot products in exact mode, where the numerators of A^k
are over D**n like e_n's, and FFT products in float mode.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import InvalidModelError, LatticePathError
from .model import LaurentPolynomial, WalkModel

Mode = str  # "exact" | "float"
Number = Union[Fraction, float]

BRUTE_FORCE_MAX_LENGTH = 12

# entries (columns times the trailing size) per multiply and reduce in an
# exact DP step: the products are big ints, so only one block of them is
# alive at a time. A block keeps at least 32 columns, below which the numpy
# calls cost more than the products.
_EXACT_BLOCK = 128


@dataclass(frozen=True)
class AltitudeDistribution:
    """Mass per altitude after n steps. Total mass can be below 1 (absorption)."""

    n: int
    mass: dict[int, Number]

    def total(self) -> Number:
        return sum(self.mass.values())

    def expectation(self) -> Number:
        """Mean altitude conditioned on survival."""
        total = self.total()
        if not total:
            raise LatticePathError(f"no surviving mass at n={self.n}")
        return sum(k * w for k, w in self.mass.items()) / total

    def conditional(self) -> dict[int, Number]:
        total = self.total()
        if not total:
            raise LatticePathError(f"no surviving mass at n={self.n}")
        return {k: w / total for k, w in sorted(self.mass.items())}


@dataclass(frozen=True)
class ReturnsDistribution:
    """Distribution of the number of returns to altitude zero, conditioned
    on the walk being an excursion of length n."""

    n: int
    prob: dict[int, Number]

    def mean(self) -> Number:
        return sum(k * p for k, p in self.prob.items())

    def variance(self) -> Number:
        m = self.mean()
        return sum(k * k * p for k, p in self.prob.items()) - m * m


def _check_mode(mode: Mode) -> None:
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")


def step(model: WalkModel, dist: AltitudeDistribution) -> AltitudeDistribution:
    """Advance the altitude distribution by one step of the walk."""
    new: dict[int, Number] = {}
    for alt, w in dist.mass.items():
        if not w:
            continue
        poly = model.P0 if alt == 0 else model.P
        for jump, p in poly.terms():
            tgt = alt + jump
            if tgt < 0:
                continue  # absorbed
            new[tgt] = new.get(tgt, 0) + w * p
    new = {k: v for k, v in sorted(new.items()) if v}
    return AltitudeDistribution(n=dist.n + 1, mass=new)


# ---------------------------------------------------------------------------
# The DP engine. Every series below is one pass of ``_walk`` with a callback
# that reads what it needs from the state after each step.
# ---------------------------------------------------------------------------


def _denominator(model: WalkModel) -> int:
    """The lcm D of every weight's denominator in P and P0."""
    return math.lcm(*(p.denominator for poly in (model.P, model.P0) for _, p in poly.terms()))


def _scaled_terms(poly: LaurentPolynomial, den: int) -> list[tuple[int, int]]:
    """(jump, weight * den) for every term; den must clear every denominator."""
    return [(j, p.numerator * (den // p.denominator)) for j, p in poly.terms()]


class _Arithmetic:
    """The number system one DP runs in, and the model's weights in it.

    Exact: weights are Python ints over ``den`` held in ``object`` arrays,
    so a mass accumulated over t steps is an integer over den**t. Float:
    float64 weights and arrays, with den = 1. ``stencil`` holds the bulk
    weights of jumps -c..d in ascending order and ``rim`` the boundary
    weights of jumps 0..P0geq.hi (negative boundary jumps are absorbed),
    both dense, with 0 for an absent jump.
    """

    def __init__(self, model: WalkModel, mode: Mode):
        _check_mode(mode)
        self.exact = mode == "exact"
        self.den = _denominator(model) if self.exact else 1
        self.dtype: type = object if self.exact else float
        self.stencil = self._dense(model.P, min(model.P.lo, 0))
        self.rim = self._dense(model.P0geq, 0)

    def _dense(self, poly: LaurentPolynomial, lo: int) -> np.ndarray:
        """The weights of the jumps lo..poly.hi, for lo <= poly.lo."""
        coeffs = (Fraction(0),) * (poly.lo - lo) + poly.coeffs
        if self.exact:
            scaled = [p.numerator * (self.den // p.denominator) for p in coeffs]
            return np.array(scaled, dtype=object)
        return np.array([float(p) for p in coeffs])

    def value(self, x, t: int) -> Number:
        """A mass accumulated over t steps, in the mode's output type."""
        return Fraction(x, self.den**t) if self.exact else float(x)

    def ratio(self, x, y) -> Number:
        """x / y for two masses of the same step (the scale cancels)."""
        return Fraction(x, y) if self.exact else float(x) / float(y)


def _max_rise(model: WalkModel) -> int:
    """Largest upward jump available anywhere (the boundary may out-jump the bulk)."""
    rise = model.d
    if not model.P0geq.is_zero:
        rise = max(rise, model.P0geq.hi)
    return max(rise, 1)


def _ignore(t: int, vec: np.ndarray) -> None:
    pass


def _walk(model: WalkModel, n: int, arith: _Arithmetic, on_step: Callable[[int, np.ndarray], None],
          *, free: bool = False, start=1,
          at_zero: Optional[Callable[[np.ndarray], None]] = None) -> np.ndarray:
    """Run n steps from altitude 0 and return the final state.

    The state is indexed by altitude. Row 0 starts as ``start``, a scalar
    or a row whose shape is a trailing axis that every step carries along;
    every other row starts at 0. After each step ``at_zero(row)``, if
    given, updates the row at altitude 0 in place, and then
    ``on_step(t, state)`` runs; it may modify the state but must not keep a
    reference to it, because the engine reuses the array two steps later.
    With ``free`` the walk lives on Z with no boundary (only P applies) and
    altitude 0 sits at index ``n * c``.

    Only the live window ``[lo, hi]`` of rows that can be non-zero is
    stepped: it widens by the largest jumps each step and is then trimmed
    past rows that are exactly zero. A step is a fixed number of numpy
    calls, whatever the number of jumps. Each state buffer has d zero rows
    below and c above, so a read-only strided view ``S[k, i] = state[i -
    j_k]`` stacks the sources of every jump j_k = -c..d; one multiply by
    the dense stencil fills one term row per jump, and one reduce over the
    rows adds them into the new window. Exact mode does that for one block
    of columns after another, reusing a term array one block wide, which
    bounds the big-int products alive at once; float mode takes the whole
    window as one block. On the bounded walk row 0 steps
    with P0 instead: its boundary terms go in a term row of their own, put
    first, and row 0 of the source is zeroed before the bulk multiply.

    Every float state is bit for bit the full-width, term-by-term update
    (boundary terms, then the jumps in ascending order, each added to a
    zeroed row): a reduce along the leading axis adds the rows in that
    order, and padding rows, absent jumps, the zeroed row 0 and rows
    outside the window add an exact +0.0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    start = np.asarray(start, dtype=arith.dtype)
    trail = start.shape
    # the bounded walk's lo falls too: trimming can lift it off row 0, which
    # a period-2 walk leaves empty after every other step
    fall = max(model.c, 0)
    if free:
        if model.c < 0 or model.d < 0:
            # altitude 0 sits at index n * c, after the n * c rows below it
            raise InvalidModelError("the walk on Z needs P to have a jump <= 0 and a jump >= 0")
        rise, lo = model.d, n * fall
    else:
        rise, lo = _max_rise(model), 0
    size = lo + n * rise + 1
    top = size - 1
    below = max(model.d, 0)  # zero rows that the top jump reads below row 0
    pair = np.zeros((2, below + size + fall) + trail, dtype=arith.dtype)
    row = pair.strides[1]
    stacks = np.lib.stride_tricks.as_strided(
        pair[:, below + fall:], shape=(2, len(arith.stencil), size) + trail,
        strides=(pair.strides[0], -row, row) + pair.strides[2:], writeable=False)
    vec, new = pair[:, below : below + size]
    stack, spare = stacks
    # exact mode steps the window a block of columns at a time, float mode
    # all at once; the rim fits in the first block
    width = max(len(arith.rim), 32, _EXACT_BLOCK // math.prod(trail)) if arith.exact else size
    # rows 1.. are written before they are read, so only row 0 (zero past
    # the rim) is cleared: pages past the widest window are never touched
    terms = np.empty((len(arith.stencil) + 1, width) + trail, dtype=arith.dtype)
    terms[0] = 0
    bulk_terms = terms[1:]
    rim_terms = terms[0, : len(arith.rim)]
    ones = (1,) * len(trail)
    stencil = arith.stencil.reshape((-1, 1) + ones)
    rim = arith.rim.reshape((-1,) + ones)
    vec[lo, ...] = start
    hi = lo
    old_lo, old_hi = lo, hi  # rows of ``new`` that may hold an old state
    nonzero = any if trail else bool  # per row: cheaper each step than ndarray.any() on a slice
    for t in range(1, n + 1):
        wlo = lo - fall if lo > fall else 0  # max() and min() calls cost more
        whi = hi + rise if hi + rise < top else top
        if old_lo < wlo:
            new[old_lo:wlo] = 0
        if old_hi > whi:
            new[whi + 1 : old_hi + 1] = 0
        rows = bulk_terms
        if lo == 0 and not free:  # row 0 steps with the boundary
            np.multiply(rim, vec[0], rim_terms)
            vec[0] = 0
            rows = terms
        # the term columns are relative to the block, which starts at wlo =
        # 0 when the rim row is in; out (and the reduce's axis and dtype)
        # passed by position: keywords cost more per call
        for b in range(wlo, whi + 1, width):
            e = b + width if b + width <= whi else whi + 1
            np.multiply(stack[:, b:e], stencil, bulk_terms[:, : e - b])
            np.add.reduce(rows[:, : e - b], 0, None, new[b:e])
            rows = bulk_terms
        vec, new = new, vec
        stack, spare = spare, stack
        old_lo, old_hi = lo, hi
        lo, hi = wlo, whi
        if at_zero is not None:
            at_zero(vec[0])
        on_step(t, vec)
        while hi > lo and not nonzero(vec[hi]):
            hi -= 1
        while lo < hi and not nonzero(vec[lo]):
            lo += 1
    return vec


def meander_distribution(model: WalkModel, n: int, mode: Mode = "exact") -> AltitudeDistribution:
    """Altitude distribution after n steps, starting at 0, boundary applied."""
    arith = _Arithmetic(model, mode)
    vec = _walk(model, n, arith, _ignore)
    return AltitudeDistribution(n=n, mass={k: arith.value(w, n) for k, w in enumerate(vec) if w})


def altitude_series(model: WalkModel, n: int, top: int, mode: Mode = "exact") -> list[list]:
    """For each altitude 0..top-1, its mass after every length 0..n (one DP pass)."""
    arith = _Arithmetic(model, mode)
    out = [[arith.value(int(a == 0), 0)] for a in range(top)]

    def record(t, vec):
        for a, series in enumerate(out):
            series.append(arith.value(vec[a] if a < len(vec) else 0, t))

    _walk(model, n, arith, record)
    return out


def excursion_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """e_0..e_n, the per-length masses of walks pinned back to altitude 0."""
    arith = _Arithmetic(model, mode)
    out = [arith.value(1, 0)]
    _walk(model, n, arith, lambda t, vec: out.append(arith.value(vec[0], t)))
    return out


def excursion_mass(model: WalkModel, n: int, mode: Mode = "exact") -> Number:
    return meander_distribution(model, n, mode).mass.get(0, Fraction(0) if mode == "exact" else 0.0)


def meander_mass_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """m_0..m_n, the surviving mass per length (1 for every n iff nothing absorbs)."""
    arith = _Arithmetic(model, mode)
    out = [arith.value(1, 0)]
    _walk(model, n, arith, lambda t, vec: out.append(arith.value(vec.sum(), t)))
    return out


def meander_mass(model: WalkModel, n: int, mode: Mode = "exact") -> Number:
    arith = _Arithmetic(model, mode)
    return arith.value(_walk(model, n, arith, _ignore).sum(), n)


def final_altitude_expectation(model: WalkModel, n: int, mode: Mode = "exact") -> Number:
    """Expected final altitude conditioned on surviving to step n."""
    return meander_distribution(model, n, mode).expectation()


def final_altitude_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """Expected final altitude (conditioned on survival) for every length 0..n."""
    arith = _Arithmetic(model, mode)
    out = [arith.value(0, 0)]
    idx = np.arange(n * _max_rise(model) + 1, dtype=arith.dtype)

    def record(t, vec):
        total = vec.sum()
        out.append(arith.ratio(idx @ vec, total) if total else None)

    _walk(model, n, arith, record)
    return out


def bridge_and_walk_mass(model: WalkModel, n: int, mode: Mode = "exact") -> tuple[Number, Number]:
    """(total walk mass, mass at altitude 0) for the unconstrained walk on Z.

    Only P applies; there is no boundary. With probability weights the total
    is exactly 1, which doubles as a sanity check on the DP.
    """
    arith = _Arithmetic(model, mode)
    vec = _walk(model, n, arith, _ignore, free=True)
    return arith.value(vec.sum(), n), arith.value(vec[n * model.c], n)


def bridge_mass_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """Mass at altitude 0 of the unconstrained walk, for every length 0..n."""
    arith = _Arithmetic(model, mode)
    out = [arith.value(1, 0)]
    _walk(model, n, arith, lambda t, vec: out.append(arith.value(vec[n * model.c], t)), free=True)
    return out


# ---------------------------------------------------------------------------
# Arches: excursions of positive length touching 0 only at their endpoints.
# ---------------------------------------------------------------------------


def arch_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """a_0..a_n with a_0 = 0; a_m is the mass of arches of length m."""
    arith = _Arithmetic(model, mode)
    out = [arith.value(0, 0)]

    def record(t, vec):
        out.append(arith.value(vec[0], t))
        vec[0] = 0  # an arch ends at its first return to 0

    _walk(model, n, arith, record)
    return out


def arch_mass(model: WalkModel, n: int, mode: Mode = "exact") -> Number:
    if n < 1:
        raise ValueError("arches have length >= 1")
    return arch_series(model, n, mode)[n]


# ---------------------------------------------------------------------------
# Returns to zero: number of times altitude 0 is reached again after leaving
# the origin (the origin itself does not count). An excursion is a sequence
# of arches, so the law comes from powers of the arch series, in either
# mode. The moment DPs instead carry a trailing axis of the running count's
# moments, which the engine's at_zero hook updates at every arrival at 0.
# ---------------------------------------------------------------------------


def _count_return_moments(row: np.ndarray) -> None:
    """Row (m0, m1) or (m0, m1, m2) of the count's moments: one more return
    maps it to (m0, m1 + m0, m2 + 2 m1 + m0)."""
    # Python ints or floats: cheaper per step than numpy scalars, and the
    # same IEEE double arithmetic
    m0, m1, *m2 = row.tolist()
    row[1] = m1 + m0
    if m2:
        row[2] = m2[0] + 2 * m1 + m0


_MOMENTS_START = (1, 0, 0)  # one excursion of length 0, with no return


def returns_to_zero_distribution(model: WalkModel, n: int, mode: Mode = "exact") -> ReturnsDistribution:
    """Distribution of the number of returns to 0 among excursions of length n.

    One walk carries two columns: the excursions, and the arches, whose row
    0 is recorded and cleared as in ``arch_series``. The law comes from the
    arch series' powers (``_returns_from_arches``).
    """
    arith = _Arithmetic(model, mode)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ReturnsDistribution(n=0, prob={0: arith.value(1, 0)})
    arch = [0]

    def record(t, vec):
        arch.append(vec[0, 1])
        vec[0, 1] = 0

    e_n = _walk(model, n, arith, record, start=(1, 1))[0, 0]
    return _returns_from_arches(arch, e_n, n, mode)


def _first_nonzero(x: np.ndarray) -> int:
    """Index of the first non-zero entry of x, len(x) if there is none."""
    nz = np.flatnonzero(x)
    return int(nz[0]) if len(nz) else len(x)


def _truncated_product(factor: np.ndarray, n: int, exact: bool) -> Callable[[np.ndarray], np.ndarray]:
    """x -> coefficients 0..n of the product of the series x and factor.

    Exact: one integer dot product per degree, over the terms that reach
    it, so the terms past degree n, which hold the largest ints, are never
    formed. Float: an FFT product with the factor's transform made once;
    round-off can leave a coefficient slightly negative, which is clipped
    to 0.
    """
    if exact:
        rev_factor = factor[::-1]  # rev_factor[n - j] = factor[j]
        lf = _first_nonzero(factor)

        def times(x):
            # degree m adds x[i] * factor[m - i] for lx <= i <= m - lf
            out = np.zeros(n + 1, dtype=object)
            lx = _first_nonzero(x)
            for m in range(lx + lf, n + 1):
                out[m] = x[lx : m - lf + 1] @ rev_factor[n - m + lx : n - lf + 1]
            return out

        return times
    size = 1 << (2 * (n + 1) - 1).bit_length()
    f = np.fft.rfft(factor, size)

    def times(x):
        w = np.fft.irfft(np.fft.rfft(x, size) * f, size)[: n + 1]
        np.maximum(w, 0.0, out=w)
        return w

    return times


def _arch_power_weights(arch: np.ndarray, n: int, exact: bool) -> Iterator:
    """w_1, w_2, ...: the nth coefficients of A, A^2, ..., the powers of the
    arch series A, by baby steps and giant steps.

    Baby steps make A^1..A^B one product at a time, with B about sqrt(n)/2,
    and keep each reversed, in one array. Giant steps make A^(qB), and
    w_(qB+r) = sum_m A^(qB)[m] * A^r[n-m], so one product of the reversed
    baby powers with A^(qB) gives the B weights after it. The weights stop
    when a power underflows (every coefficient below 1e-320: in exact
    mode, when it is 0).
    """
    baby = max(1, math.isqrt(n) // 2)
    rev = np.empty((baby, n + 1), dtype=arch.dtype)  # row r - 1: A^r, reversed
    step_baby = _truncated_product(arch, n, exact)
    power = arch
    for r in range(baby):
        if r:
            power = step_baby(rev[r - 1, ::-1])
        rev[r] = power[::-1]
        yield power[n]
        if power.max() < 1e-320:
            return
    step_giant = _truncated_product(power, n, exact)  # times A^B
    giant = power
    while True:
        yield from rev @ giant
        giant = step_giant(giant)
        if giant.max() < 1e-320:
            return


def _returns_from_arches(arch: list, e_n: Union[int, float], n: int, mode: Mode) -> ReturnsDistribution:
    """The returns law from the arch series a_0..a_n and the excursion mass
    e_n, both as a DP of that mode holds them: exact numerators of a_m over
    D**m, whose products are numerators over D**n like e_n, or floats.

    An excursion with exactly k returns is a k-sequence of arches, so the
    unnormalized weight w_k of k returns is the nth coefficient of the kth
    power of the arch series. The weights are taken in ascending k until
    they add up to e_n, or to e_n * (1 - 1e-13) in float mode.
    """
    exact = mode == "exact"
    if e_n <= 0:
        raise LatticePathError(f"no excursion of length {n}")
    target = e_n if exact else e_n * (1.0 - 1e-13)
    weights = _arch_power_weights(np.array(arch, dtype=object if exact else float), n, exact)
    prob: dict[int, Number] = {}
    cum = 0
    for k, w in zip(range(1, n + 1), weights):
        if w > 0:
            prob[k] = Fraction(w, e_n) if exact else float(w) / float(e_n)
            cum += w
        if cum >= target:
            break
    return ReturnsDistribution(n=n, prob=prob)


def returns_moments(model: WalkModel, n: int, mode: Mode = "float") -> tuple[Number, Number]:
    """(mean, variance) of the number of returns among length-n excursions.

    Runs an altitude-indexed DP carrying the zeroth, first and second moment
    of the running return count, so large n stay cheap.
    """
    arith = _Arithmetic(model, mode)
    if n == 0:
        zero = arith.value(0, 0)
        return zero, zero
    w0, w1, w2 = _walk(model, n, arith, _ignore, start=_MOMENTS_START,
                       at_zero=_count_return_moments)[0]
    if not w0:
        raise LatticePathError(f"no excursion of length {n}")
    mean = arith.ratio(w1, w0)
    return mean, arith.ratio(w2, w0) - mean * mean


def returns_mean_series(model: WalkModel, n: int, mode: Mode = "float") -> list:
    """Expected number of returns among excursions, for every length 0..n.

    Entries are None where no excursion of that length exists.
    """
    arith = _Arithmetic(model, mode)
    out: list = [arith.value(0, 0)]

    def record(t, vec):
        m0, m1 = vec[0]
        out.append(arith.ratio(m1, m0) if m0 else None)

    # the mean needs only m0 and m1, which never read m2
    _walk(model, n, arith, record, start=_MOMENTS_START[:2], at_zero=_count_return_moments)
    return out


# ---------------------------------------------------------------------------
# Brute force oracle and the four boundary rules of the length-4 table. The
# oracle walks every path on its own, independently of the DP engine, with
# integer weights over D**n.
# ---------------------------------------------------------------------------


def _walks(model: WalkModel, n: int, den: int, *, boundary: bool, absorbing: bool
           ) -> Iterator[tuple[list[int], int, list[int]]]:
    """Depth-first over every length-n walk from altitude 0.

    Yields (jumps, numerator, altitudes): the walk's weight is numerator /
    den**n. With ``boundary`` P0 applies at altitude 0, with ``absorbing``
    walks going below 0 are dropped. The two lists are reused between
    items, so copy what you keep.
    """
    if n > BRUTE_FORCE_MAX_LENGTH:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_MAX_LENGTH}")
    bulk = _scaled_terms(model.P, den)
    rim = _scaled_terms(model.P0, den) if boundary else bulk
    jumps: list[int] = []
    alts = [0]
    nums = [1]
    if n == 0:
        yield jumps, 1, alts
        return
    pending = [iter(rim)]  # the untried jumps at every depth
    while pending:
        for j, p in pending[-1]:
            alt = alts[-1] + j
            if absorbing and alt < 0:
                continue
            jumps.append(j)
            alts.append(alt)
            if len(jumps) == n:
                yield jumps, nums[-1] * p, alts
                jumps.pop()
                alts.pop()
                continue
            nums.append(nums[-1] * p)
            pending.append(iter(rim if alt == 0 else bulk))
            break
        else:
            pending.pop()
            if jumps:
                jumps.pop()
                alts.pop()
                nums.pop()


def _weighted_paths(model: WalkModel, n: int, *, boundary: bool, absorbing: bool
                    ) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    den = _denominator(model)
    scale = den**n
    weights: dict[int, Fraction] = {}  # one Fraction per distinct numerator
    for jumps, num, _ in _walks(model, n, den, boundary=boundary, absorbing=absorbing):
        w = weights.get(num)
        if w is None:
            w = weights[num] = Fraction(num, scale)
        yield tuple(jumps), w


def enumerate_meander_paths(model: WalkModel, n: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield every surviving boundary walk of length n with its weight."""
    yield from _weighted_paths(model, n, boundary=True, absorbing=True)


def enumerate_walk_paths(model: WalkModel, n: int, *, boundary_at_zero: bool = False
                         ) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield every unconstrained walk of length n on Z with its weight.

    With ``boundary_at_zero`` the boundary polynomial applies whenever the
    walk sits at altitude 0, which is the weighting used when folding
    bridges by absolute value.
    """
    yield from _weighted_paths(model, n, boundary=boundary_at_zero, absorbing=False)


def path_altitudes(path: tuple[int, ...]) -> tuple[int, ...]:
    alts = [0]
    for j in path:
        alts.append(alts[-1] + j)
    return tuple(alts)


@dataclass(frozen=True)
class BruteForceSummary:
    """Aggregates of the full path enumeration, all exact."""

    n: int
    path_count: int
    meander: dict[int, Fraction]
    excursion_mass: Fraction
    returns: dict[int, Fraction]
    arch_mass: Fraction

    def final_altitude_expectation(self) -> Fraction:
        total = sum(self.meander.values(), Fraction(0))
        if total == 0:
            raise LatticePathError(f"no surviving path of length {self.n}")
        return sum(k * w for k, w in self.meander.items()) / total

    def returns_distribution(self) -> dict[int, Fraction]:
        if self.excursion_mass == 0:
            raise LatticePathError(f"no excursion of length {self.n}")
        return {k: w / self.excursion_mass for k, w in sorted(self.returns.items())}


def brute_force(model: WalkModel, n: int) -> BruteForceSummary:
    """Enumerate all surviving paths of length n and aggregate them."""
    den = _denominator(model)
    meander: dict[int, int] = {}
    returns: dict[int, int] = {}
    count = 0
    for _, num, alts in _walks(model, n, den, boundary=True, absorbing=True):
        count += 1
        final = alts[-1]
        meander[final] = meander.get(final, 0) + num
        if final == 0:
            k = alts.count(0) - 1  # an arch is an excursion with exactly one return
            returns[k] = returns.get(k, 0) + num
    scale = den**n
    return BruteForceSummary(
        n=n,
        path_count=count,
        meander={k: Fraction(w, scale) for k, w in sorted(meander.items())},
        excursion_mass=Fraction(sum(returns.values()), scale),
        returns={k: Fraction(w, scale) for k, w in sorted(returns.items())},
        arch_mass=Fraction(returns.get(1, 0), scale),
    )


class BoundaryRule(enum.Enum):
    """The four boundary constraints of the length-4 demonstration table."""

    UNIFORM = "uniform"
    ABSOLUTE_VALUE = "absolute-value"
    REFLECTION = "reflection"
    ABSORPTION = "absorption"


def _canonical_boundary(model: WalkModel, rule: BoundaryRule) -> WalkModel:
    if rule is BoundaryRule.REFLECTION:
        p0geq = model.P0geq
        total = p0geq.total_weight()
        if total == 0:
            raise InvalidModelError("P0 has no non-negative jump; reflection rule undefined")
        return WalkModel(P=model.P, P0=p0geq.scaled(Fraction(1) / total))
    if rule is BoundaryRule.ABSORPTION:
        return WalkModel(P=model.P, P0=model.P)
    raise ValueError(f"no boundary walk model for rule {rule}")


@functools.lru_cache(maxsize=32)
def _bridge_tally(model: WalkModel, n: int, folded: bool) -> tuple[int, dict[tuple[int, ...], int]]:
    """(total, {target: numerator}) over the length-n bridges, both over D**n.

    One walk over every length-n walk on Z: a bridge is keyed by its jumps,
    or with ``folded`` (P0 applies at altitude 0) by its absolute altitudes,
    so a table asks for every path of one rule from one enumeration. The
    dict is shared between callers and must not be modified.
    """
    total = 0
    hits: dict[tuple[int, ...], int] = {}
    for jumps, num, alts in _walks(model, n, _denominator(model), boundary=folded, absorbing=False):
        if alts[-1] != 0:
            continue
        total += num
        key = tuple(map(abs, alts)) if folded else tuple(jumps)
        hits[key] = hits.get(key, 0) + num
    return total, hits


@functools.lru_cache(maxsize=32)
def _rule_walk(model: WalkModel, rule: BoundaryRule, n: int) -> tuple[WalkModel, Fraction]:
    """The boundary walk of the reflection or absorption rule, with its
    excursion mass at length n: one DP for all the paths of a table."""
    walk = _canonical_boundary(model, rule)
    return walk, excursion_mass(walk, n, "exact")


def path_probability(rule: BoundaryRule, model: WalkModel, path: tuple[int, ...]) -> Fraction:
    """Probability of one length-n path under one of the four boundary rules,
    conditioned on the rule's sample space (bridges, or excursions of that
    length). Paths outside the sample space get probability 0.
    """
    n = len(path)
    alts = path_altitudes(path)
    if rule in (BoundaryRule.UNIFORM, BoundaryRule.ABSOLUTE_VALUE):
        if n > BRUTE_FORCE_MAX_LENGTH:
            raise ValueError(f"bridge enumeration capped at n <= {BRUTE_FORCE_MAX_LENGTH}")
        if alts[-1] != 0:
            return Fraction(0)
        folded = rule is BoundaryRule.ABSOLUTE_VALUE
        if folded and any(a < 0 for a in alts):
            return Fraction(0)  # a folded bridge never leaves N
        total, hits = _bridge_tally(model, n, folded)
        # a bridge hits the path itself, or folds onto it by absolute value
        hit = hits.get(alts if folded else tuple(path), 0)
        return Fraction(hit, total) if total else Fraction(0)
    walk, e_n = _rule_walk(model, rule, n)
    if alts[-1] != 0 or any(a < 0 for a in alts):
        return Fraction(0)
    weight = Fraction(1)
    for alt, j in zip(alts, path):
        poly = walk.P0 if alt == 0 else walk.P
        coeff = dict(poly.terms()).get(j, Fraction(0))
        if coeff == 0:
            return Fraction(0)
        weight *= coeff
    if e_n == 0:
        return Fraction(0)
    return weight / e_n


def bridge_paths(model: WalkModel, n: int) -> list[tuple[int, ...]]:
    """All length-n jump sequences ending at altitude 0 with positive P-weight."""
    walks = _walks(model, n, _denominator(model), boundary=False, absorbing=False)
    return sorted((tuple(jumps) for jumps, _, alts in walks if alts[-1] == 0), reverse=True)
