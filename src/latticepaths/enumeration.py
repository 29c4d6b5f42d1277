"""Exact finite-length statistics for boundary walk models.

Everything here is ground truth for the rest of the package: step-by-step
recurrences in exact arithmetic (default) or double precision
(``mode="float"``, for lengths in the thousands), plus a brute-force path
enumerator used as an independent oracle in the tests.

The recurrence is the obvious one. Mass sitting at altitude zero steps with
the boundary polynomial, mass at positive altitude steps with the bulk
polynomial, and anything landing below zero is discarded (absorbed).

One entry point, ``_walk``, runs every recurrence and records the readout
its caller names (row 0, the arches, the low rows, the total, the first
moment) or returns the final rows, in either mode. Exact mode works on
integers: every weight is an integer over D, the lcm of the denominators in
``P`` and ``P0``, so the state after t steps holds Python ints over D**t.
The exact state is one Python int with row i in bits [i*w, (i+1)*w)
(Kronecker substitution): a step is one shift and at most one small-int
multiply per jump, a small correction for row 0's boundary weights, and a
right shift that drops the fields landing below 0. The field width grows,
by one repack, as the numerators do. Per-step readouts read only the low
fields; the total and the first moment come from exact mass balance on the
rows below c.

Each statistic that ``count`` and ``dist`` print has one private helper
(``_excursion_series``, ``_final_masses``, ``_returns_law``, ...) that
returns its exact values as (numerator, denominator) pairs of those ints,
a numerator over D**t or a ratio of two masses, and its float values as
floats. The public function makes each pair a ``Fraction``; the CLI
prints the pairs as they are, with no ``Fraction`` made.

Float mode runs the same recurrence on one float64 numpy array indexed by
altitude, in place. Each step touches only the live window of rows that
can be non-zero. After every step the edge rows below
the smallest normal float (``np.finfo(float).tiny``, about 2.2e-308) are
set to 0 and drop out of it: the subnormal dust that exponentially
decaying masses leave at the window's edges, wrong by orders of
magnitude, more than ten times slower to multiply than normal floats, and
sticky, since 0.6 * 4.9e-324 rounds back to 4.9e-324. So float results
are bit for bit those of a full-width update that applies the same flush
after every step, and they equal the unflushed DP wherever its mass is at
least about 1e-280.
A float state with no row left at or above tiny has underflowed as a whole,
and the walk raises ``NumericalSingularityError`` (the CLI exits 2) instead
of returning zeros; a state that is exactly 0, because nothing survives, is
a result. Row 0 can also fall below tiny on its own while the mass above it
stays normal; a float excursion or arch series holding such an entry raises
too. The returns law alone reads on: its arch walk holds the walks that
have not returned yet, which can underflow as a whole while e_n stays
normal, and the arches after that step are taken as 0. A float mass past
the largest float (weights summing past 1) raises too, not going on as inf.

A float step is two numpy calls, whatever the number of jumps, and O(1)
Python work: a read-only strided view of the zero-padded state stacks the
source rows of every jump, one multiply by the dense jump weights fills one
term row per jump, and one reduce along the rows writes their sums back into
the state. Both run over the window rounded out to 64-row blocks, on views
made again only when that block range changes; row 0's boundary terms are
numpy-scalar products. The reduce adds the boundary row first and then the
jumps in ascending order, the order of a term-by-term update, and the zeros
it adds besides (padding, absent jumps, the rows of the blocks outside the
window) are exact, so float results keep every bit. A walk that reads only
row 0 (the excursion and arch series) steps no row above the return horizon
(n - t)*c, which cannot reach 0 by step n; so there the state that
underflows as a whole is that of the rows below the horizon.

Every walk carries one column. The returns-to-zero statistics need no
count axis: an excursion is a sequence of arches, E = 1/(1 - A) with A the
arch series, so the weight of k returns is w_k = [z^n] A(z)^k. One arch
walk gives A, compressed by its period p (the gcd of the arch lengths), so
that the law works to length n/p; e_n comes from A by doubling, two
convolutions per doubling of the known terms. Baby steps (A^1..A^B, B
about sqrt(n/p)/2) with giant steps (A^(qB)) give every w_k from about
B + K/B truncated products for a law ending at K returns. The products
skip both factors' leading zeros. In exact mode, where the numerators of
A^k are over D**n, a product is the padded "valid" convolution that the
doubling ends with, whose terms past degree n are products with zeros; in
float mode it is a staircase of direct products, whose coefficients, sums
of non-negative terms, keep a small relative error; a float law that does
not add up to e_n raises. The mean and variance come from the excursion
series alone: (E - 1)·E and (E - 1)^2·E sum k·w_k and k(k - 1)·w_k with
non-negative terms.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import InvalidModelError, LatticePathError, NumericalSingularityError
from .model import LaurentPolynomial, WalkModel

Mode = str  # "exact" | "float"
Number = Union[Fraction, float]

BRUTE_FORCE_MAX_LENGTH = 12

# rows below the smallest normal float leave the float walk's window as 0
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class AltitudeDistribution:
    """Mass per altitude after n steps. Total mass can be below 1 (absorption)."""

    n: int
    mass: dict[int, Number]

    def _scaled(self) -> tuple[dict[int, Number], object]:
        """(masses, their sum) in ``_final_masses``' form. Rational masses
        become integer numerators over L, the lcm of their denominators,
        so exact sums add integers, and their sum is the pair (sum, L);
        float masses and their sum are floats."""
        masses = self.mass
        if not all(isinstance(w, (int, Fraction)) for w in masses.values()):
            return masses, sum(masses.values())
        den = math.lcm(*(w.denominator for w in masses.values()))
        nums = {k: w.numerator * (den // w.denominator) for k, w in masses.items()}
        return nums, (sum(nums.values()), den)

    def total(self) -> Number:
        return _number(self._scaled()[1])

    def expectation(self) -> Number:
        """Mean altitude conditioned on survival."""
        masses, mass = self._scaled()
        moment = sum(k * w for k, w in masses.items())
        return _number(_over_survivors({0: moment}, mass, self.n)[0])

    def conditional(self) -> dict[int, Number]:
        law = _over_survivors(*self._scaled(), self.n)
        return {k: _number(p) for k, p in sorted(law.items())}


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


def _number(v):
    """An exact value's (numerator, denominator) pair as a ``Fraction``; a
    float or None as it is."""
    return Fraction(*v) if type(v) is tuple else v


def _numbers(values) -> list:
    """``_number`` of each of the values."""
    return [Fraction(*v) if type(v) is tuple else v for v in values]


def _over_survivors(xs: dict, mass, n: int) -> dict:
    """Each of xs over the surviving mass after n steps, ``mass`` as
    ``_final_masses`` gives it: integer numerators over the pair
    (total, L) give the pairs (x, total), floats x / total. Raises when
    no mass survives."""
    exact = type(mass) is tuple
    total = mass[0] if exact else mass
    if not total:
        raise LatticePathError(f"no surviving mass at n={n}")
    if exact:
        return {k: (x, total) for k, x in xs.items()}
    return {k: x / total for k, x in xs.items()}


@contextlib.contextmanager
def _overflow_raises():
    """A float overflow in the block raises ``NumericalSingularityError``."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalSingularityError(f"float masses overflowed: {exc}") from exc


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
# The DP engine. Every series below is one pass of ``_walk``, which records
# the readout the series names after each step.
# ---------------------------------------------------------------------------


def _denominator(model: WalkModel) -> int:
    """The lcm D of every weight's denominator in P and P0."""
    return math.lcm(*(p.denominator for p in model.P.coeffs + model.P0.coeffs))


def _scaled_terms(poly: LaurentPolynomial, den: int) -> list[tuple[int, int]]:
    """(jump, weight * den) for every term; den must clear every denominator."""
    return [(j, p.numerator * (den // p.denominator)) for j, p in poly.terms()]


class _Arithmetic:
    """The number system one DP runs in, and the model's weights in it.

    Exact: every weight is an integer over ``den``, the lcm of the weights'
    denominators, so a mass accumulated over t steps is an integer over
    den**t; ``bulk`` holds (jump, weight) for P and ``rim`` for P0geq
    (negative boundary jumps are absorbed), both as those integers. Float:
    float64, with den = 1.

    A value leaves the DP in the mode's output form: an exact one as the
    (numerator, denominator) pair of ints, which ``_number`` makes a
    ``Fraction``, a float one as a float.
    """

    def __init__(self, model: WalkModel, mode: Mode):
        if mode not in ("exact", "float"):
            raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
        self.exact = mode == "exact"
        self.dtype: type = object if self.exact else float
        self.den = _denominator(model) if self.exact else 1
        if self.exact:
            self.bulk = _scaled_terms(model.P, self.den)
            self.rim = _scaled_terms(model.P0geq, self.den)

    def value(self, x, t: int):
        """A mass accumulated over t steps: (x, den**t), or a float."""
        return (x, self.den**t) if self.exact else float(x)

    def series(self, xs) -> list:
        """The masses xs[t], each accumulated over t steps: the pairs
        (xs[t], den**t), or floats."""
        if not self.exact:
            return [float(x) for x in xs]
        powers = itertools.accumulate(itertools.repeat(self.den, len(xs) - 1), operator.mul,
                                      initial=1)
        return list(zip(xs, powers))

    def ratio(self, x, y):
        """x / y for two masses of the same step (the scale cancels): the
        pair (x, y), or a float."""
        return (x, y) if self.exact else float(x) / float(y)


def _max_rise(model: WalkModel) -> int:
    """Largest upward jump available anywhere (the boundary may out-jump the bulk)."""
    rise = model.d
    if not model.P0geq.is_zero:
        rise = max(rise, model.P0geq.hi)
    return max(rise, 1)


def _walk(model: WalkModel, n: int, arith: _Arithmetic, readout: Optional[str] = None, *,
          top: int = 0, free: bool = False, underflow_ends: bool = False) -> Sequence:
    """Run n steps from altitude 0 and return the readout at every length
    0..n, or with no readout the rows after n steps.

    The walk starts with mass 1 at altitude 0. Mass at altitude 0 steps
    with P0, mass above it with P, and mass landing below 0 is absorbed.
    With ``free`` the walk lives on Z with no boundary (only P applies),
    and row n*c of the final rows is altitude 0; it records only the final
    rows, "row0" and "low", and its "arches", "total" and "moment" mean
    nothing (the exact "total" reads -39 at n = 4 on the absorbing Motzkin
    walk). ``readout`` names what is recorded:

    - None: nothing; the final rows are returned instead;
    - "row0": the mass at altitude 0;
    - "arches": row 0, which is then cleared (an arch ends at its first
      return to 0);
    - "low": the tuple of the masses at altitudes 0..top-1;
    - "total": the total mass;
    - "moment": (first moment, total mass), the first moment being the sum
      of altitude times mass.

    Exact mode runs ``_packed_walk`` and float mode ``_float_walk``; both
    record the same readouts from length 1, so no caller depends on the
    mode, and the length-0 readout is put first here. "row0" and "arches"
    come back as arrays of ``arith.dtype``, unscaled: exact numerators of
    the length-t entry over den**t, or floats; the other readouts as lists.

    A float "row0" or "arches" entry between 0 and the smallest normal
    float is row 0 underflowing on its own while the mass above it stays
    normal (a state that underflows as a whole raises in the stepper); the
    entries after it fall to 0, so such a series raises
    ``NumericalSingularityError``. With ``underflow_ends`` (the returns
    law's arches) the series is kept as it is, and a float state that
    underflows as a whole ends the walk, every later readout and the final
    rows being 0, instead of raising.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if free and (model.c < 0 or model.d < 0):
        # altitude 0 sits at row n * c, after the n * c rows below it
        raise InvalidModelError("the walk on Z needs P to have a jump <= 0 and a jump >= 0")
    stepper = _packed_walk if arith.exact else _float_walk
    out = stepper(model, n, arith, readout, top, free, underflow_ends)
    if readout is None:
        return out
    # the readout at length 0: mass 1 at altitude 0
    first = {"row0": 1, "arches": 0, "total": 1, "moment": (0, 1),
             "low": tuple(int(a == 0) for a in range(top))}[readout]
    if readout not in ("row0", "arches"):
        return [first, *out]
    series = np.array([first, *out], dtype=arith.dtype)
    if not (arith.exact or underflow_ends):
        dust = np.flatnonzero((series > 0) & (series < _TINY))
        if len(dust):
            raise NumericalSingularityError(
                f"float series underflowed at length {dust[0]} of {n}: "
                f"{series[dust[0]]:.3g} is below {_TINY:.3g}")
    return series


def _field_bytes(grow: int, t: int) -> int:
    """Bytes per field to hold any integer up to grow**t."""
    return max(1, -(-(grow**t).bit_length() // 8))


def _widen(state: int, old: int, new: int) -> int:
    """``state`` with its fields of ``old`` bytes moved into fields of
    ``new`` bytes."""
    rows = -(-state.bit_length() // (8 * old))
    fields = np.zeros((rows, new), dtype=np.uint8)
    fields[:, :old] = np.frombuffer(state.to_bytes(rows * old, "little"), np.uint8).reshape(rows, old)
    return int.from_bytes(fields.tobytes(), "little")


def _unpack(state: int, rows: int, nbytes: int) -> list[int]:
    """The first ``rows`` fields of ``nbytes`` bytes each of ``state``."""
    buf = memoryview(state.to_bytes(rows * nbytes, "little"))
    return [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, rows * nbytes, nbytes)]


def _packed_walk(model, n, arith, readout, top, free, underflow_ends):
    """The exact walk on one Python int: row i is the integer in bits
    [i*w, (i+1)*w) (Kronecker substitution).

    A step sums the state shifted up by j + c fields times the bulk weight
    of jump j, over the jumps j, by Horner's rule on the weights over their
    gcd, which multiplies once at the end; adds row 0 times its boundary
    weights less its bulk weights, a small correction; and shifts right by
    c fields, which drops exactly the fields that land below 0: the
    absorption. No carry crosses a field: the weights are
    non-negative, so every field of every partial sum is at most grow
    times the state's total, where grow bounds the integer weights' sums
    (it is den for probability weights), and after t steps that total is
    at most grow**t. When the steps outrun the width, one repack widens
    the fields to hold grow**t for an eighth more steps, 16 at least. On
    the walk on Z nothing shifts down: altitude a after t steps is field
    a + t*c.

    The readouts read low fields only: row 0, the rows below top, and for
    the total and the first moment, mass balance on rows 0..c-1, the only
    rows that lose mass or step with P0. Every row above them keeps its
    mass times the bulk weights' sum, and moves its first moment by their
    first moment. The final rows are unpacked once.
    """
    fall = max(model.c, 0)
    size = n * (fall + model.d) + 1 if free else n * _max_rise(model) + 1
    bulk = {j + fall: p for j, p in arith.bulk}  # field offsets before the shift
    rim = {} if free else {j + fall: p for j, p in arith.rim}
    grow = max(sum(bulk.values()), sum(rim.values()), 1)
    offsets = sorted(bulk, reverse=True) or [0]
    # Horner's rule on the weights over their gcd, which multiplies once:
    # (fields to shift up, weight) after the first offset
    unit = math.gcd(*bulk.values()) or 1
    first = bulk.get(offsets[0], 0) // unit
    horner = [(a - b, bulk[b] // unit) for a, b in zip(offsets, offsets[1:])]
    balanced = readout in ("total", "moment")
    if balanced:
        s0 = sum(bulk.values())
        s1 = sum((k - fall) * p for k, p in bulk.items())
        # per row i below max(c, 1): its mass and first moment after a
        # step, less those of a row above, which are s0 and i*s0 + s1
        balance = []
        for i in range(max(fall, 1)):
            terms = rim if i == 0 else {k: p for k, p in bulk.items() if k + i >= fall}
            mass = sum(terms.values())
            moment = sum((k - fall + i) * p for k, p in terms.items())
            balance.append((mass - s0, moment - i * s0 - s1))
        total, moment = 1, 0
    series = []
    state = 1
    nbytes = 1
    cap = 0  # the fields hold every numerator up to step cap
    for t in range(1, n + 1):
        if t > cap:
            cap = min(n, t + max(16, t // 8))
            wider = _field_bytes(grow, cap)
            state = _widen(state, nbytes, wider)
            nbytes = wider
            w = 8 * nbytes
            mask = (1 << w) - 1
            shifts = [(gap * w, p) for gap, p in horner]
            swap = sum(p << (k * w) for k, p in rim.items()) - sum(
                p << (k * w) for k, p in bulk.items())
        row0 = state & mask
        if balanced:
            low = state & ((1 << (len(balance) * w)) - 1)
            extra_mass, extra_moment = 0, s1 * total
            for a, b in balance:
                v = low & mask
                extra_mass += a * v
                extra_moment += b * v
                low >>= w
            total, moment = s0 * total + extra_mass, s0 * moment + extra_moment
        acc = state if first == 1 else state * first
        for shift, p in shifts:
            acc = (acc << shift) + (state if p == 1 else state * p)
        if unit != 1:
            acc *= unit
        if offsets[-1]:
            acc <<= offsets[-1] * w
        if free:
            state = acc
        else:
            if row0:
                acc += row0 * swap
            state = acc >> (fall * w)
        if readout is None:
            continue
        if readout == "row0":
            series.append((state >> (t * fall * w)) & mask if free else state & mask)
        elif readout == "arches":
            row0 = state & mask
            series.append(row0)
            state -= row0
        elif readout == "low":
            low = (state >> (t * fall * w) if free else state) & ((1 << (top * w)) - 1)
            series.append(tuple((low >> (a * w)) & mask for a in range(top)))
        elif readout == "total":
            series.append(total)
        else:
            series.append((moment, total))
    return series if readout else np.array(_unpack(state, size, nbytes), dtype=object)


@_overflow_raises()
def _float_walk(model, n, arith, readout, top, free, underflow_ends):
    """The float walk, in place on one numpy array indexed by altitude
    (with ``free``, by altitude + n*c).

    Only the live window ``[lo, hi]`` of rows that can be non-zero is
    stepped: it widens by the largest jumps each step and, after the
    readout, is trimmed past the edge rows below ``_TINY``, which are set
    to 0. If that leaves no row at or above ``_TINY`` while some row is not
    0, the state has underflowed and ``NumericalSingularityError`` is
    raised (or with ``underflow_ends`` the walk ends). For the "row0" and
    "arches" readouts of the bounded walk the window also ends at the
    return horizon (n - t)*c: a step lowers the altitude by at most c, so a
    row above it at step t cannot reach 0 by step n, and no row at or
    below the next step's horizon reads it.

    A step is two numpy calls, whatever the number of jumps. The state has
    d zero rows below and c above, so a read-only strided view
    ``S[k, i] = state[i - j_k]`` stacks the sources of every jump
    j_k = -c..d; one multiply by the dense stencil fills one term row per
    jump, which reads the state, and one reduce over the rows, which reads
    only the terms, writes their sums back into the state. Both run over
    the window rounded out to 64-row blocks, on views that are made again
    only when that block range changes. A row above the block keeps its old
    mass only under the return horizon, and is cleared with the rows above
    the horizon after the step. On the bounded walk row 0 steps with P0
    instead: its boundary terms, products of numpy scalars (which raise on
    overflow as the multiply does), go in a term row of their own, put
    first, and row 0 of the state is zeroed before the multiply.

    Every state is bit for bit the full-width, term-by-term update
    (boundary terms, then the jumps in ascending order, each added to a
    zeroed row) with the same edge flush after every step: a reduce along
    the leading axis adds the rows in that order, and padding rows, absent
    jumps, the zeroed row 0 and rows outside the window add an exact +0.0.
    The "total" and "moment" readouts read the whole state as the
    full-width update holds it: the total by one reduce, the first moment
    by one ``dot`` with the row indices (the BLAS dot product that ``@``
    calls, without the matmul dispatch), so they keep every bit too.
    """
    # the bounded walk's lo falls too: trimming can lift it off row 0, which
    # a period-2 walk leaves empty after every other step
    fall = max(model.c, 0)
    if free:
        rise, lo = model.d, n * fall
    else:
        rise, lo = _max_rise(model), 0
    size = lo + n * rise + 1
    top_row = size - 1
    zero = lo  # the row of altitude 0
    cut = readout in ("row0", "arches") and not free
    horizon = n * fall if cut else top_row
    shrink = fall if cut else 0
    stencil = _dense_floats(model.P, min(model.P.lo, 0)).reshape(-1, 1)
    # (row, weight) of every boundary jump, the weights numpy scalars
    rim = [(i, r) for i, r in enumerate(_dense_floats(model.P0geq, 0)) if r]
    below = max(model.d, 0)  # zero rows that the top jump reads below row 0
    padded = np.zeros(below + size + fall)
    row = padded.strides[0]
    stacked = np.lib.stride_tricks.as_strided(
        padded[below + fall:], shape=(len(stencil), size), strides=(-row, row), writeable=False)
    vec = padded[below : below + size]
    # rows 1.. are written before they are read, so only row 0 (zero past
    # the rim) is cleared: pages past the widest window are never touched
    terms = np.empty((len(stencil) + 1, size))
    terms[0] = 0
    rim_terms = terms[0]
    # the block range the views were made for; term columns count from the
    # block's first row, which is row 0 whenever the rim row is in
    vlo = vhi = -1
    if readout == "moment":
        idx = np.arange(size, dtype=float)
    series = []
    multiply, reduce, tiny = np.multiply, np.add.reduce, _TINY  # locals read faster
    vec[lo] = 1
    hi = lo
    for t in range(1, n + 1):
        wlo = lo - fall if lo > fall else 0  # max() and min() calls cost more
        reach = hi + rise if hi + rise < top_row else top_row
        horizon -= shrink
        whi = reach if reach < horizon else horizon
        # the 64-row blocks around the window; the rows added compute +0.0
        # below wlo and (without the horizon) above whi
        blo = wlo & -64
        bhi = whi | 63
        if bhi > top_row:
            bhi = top_row
        if vlo != blo or vhi != bhi:
            width = bhi + 1 - blo
            vlo, vhi, sources, bulk_rows, all_rows, block = (
                blo, bhi, stacked[:, blo : bhi + 1], terms[1:, :width], terms[:, :width],
                vec[blo : bhi + 1])
        rows = bulk_rows
        if lo == 0 and not free:  # row 0 steps with the boundary
            v0 = vec.item(0)
            for i, r in rim:
                rim_terms[i] = r * v0
            vec[0] = 0
            rows = all_rows
        # out (and the reduce's axis and dtype) passed by position: keywords
        # cost more per call
        multiply(sources, stencil, bulk_rows)
        reduce(rows, 0, None, block)
        lo, hi = wlo, whi
        if readout is None:
            pass
        elif readout == "row0":
            series.append(vec.item(zero))
        elif readout == "arches":
            series.append(vec.item(0))
            vec[0] = 0
        elif readout == "low":
            series.append(tuple(vec[zero + a] if zero + a < size else 0 for a in range(top)))
        elif readout == "total":
            series.append(reduce(vec))
        else:
            series.append((idx.dot(vec), reduce(vec)))
        # trim past the edge rows below tiny; edge ends as vec[lo]
        edge = vec.item(hi)
        while edge < tiny and hi > lo:
            hi -= 1
            edge = vec.item(hi)
        if lo < hi:  # vec[hi] >= tiny stops the scan
            edge = vec.item(lo)
            while edge < tiny:
                lo += 1
                edge = vec.item(lo)
        if edge < tiny and vec[wlo : whi + 1].any():
            if not underflow_ends:
                raise NumericalSingularityError(
                    f"float DP underflowed at step {t} of {n}: every mass is below {_TINY:.3g}")
            if readout:
                series += [0] * (n - t)
            vec[wlo : whi + 1] = 0
            break
        # rows past whi up to reach hold mass above the horizon, stepped or
        # (above the block) left from the last step: cleared, so that every
        # row outside [lo, hi] is 0 again; an edge of one or two rows, the
        # common case, by item, which costs less than a slice
        if hi < reach:
            if reach - hi > 2:
                vec[hi + 1 : reach + 1] = 0
            else:
                vec[hi + 1] = vec[reach] = 0
        if lo > wlo:
            if lo - wlo > 2:
                vec[wlo:lo] = 0
            else:
                vec[wlo] = vec[lo - 1] = 0
    return series if readout else vec


def _dense_floats(poly: LaurentPolynomial, lo: int) -> np.ndarray:
    """The float weights of the jumps lo..poly.hi, for lo <= poly.lo, with
    0 for an absent jump."""
    return np.array([0.0] * (poly.lo - lo) + list(poly.float_coeffs))


def _final_masses(model: WalkModel, n: int, mode: Mode) -> tuple[dict[int, Number], object]:
    """(the mass of each altitude with mass after n steps, ascending; their
    sum): exact masses are integer numerators over L = D**n and their sum
    the pair (sum, L), float masses and their sum are floats."""
    arith = _Arithmetic(model, mode)
    final = _walk(model, n, arith)
    rows = np.flatnonzero(final)
    masses = dict(zip(rows.tolist(), final[rows].tolist()))
    return masses, arith.value(sum(masses.values()), n)


def meander_distribution(model: WalkModel, n: int, mode: Mode = "exact") -> AltitudeDistribution:
    """Altitude distribution after n steps, starting at 0, boundary applied."""
    masses, mass = _final_masses(model, n, mode)
    if type(mass) is tuple:
        masses = {k: Fraction(w, mass[1]) for k, w in masses.items()}
    return AltitudeDistribution(n=n, mass=masses)


def altitude_series(model: WalkModel, n: int, top: int, mode: Mode = "exact") -> list[list]:
    """For each altitude 0..top-1, its mass after every length 0..n (one DP pass)."""
    arith = _Arithmetic(model, mode)
    series = _walk(model, n, arith, "low", top=top)
    return [_numbers(arith.series(rows)) for rows in zip(*series)] if top > 0 else []


def _excursion_series(model: WalkModel, n: int, mode: Mode) -> list:
    arith = _Arithmetic(model, mode)
    return arith.series(_walk(model, n, arith, "row0"))


def excursion_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """e_0..e_n, the per-length masses of walks pinned back to altitude 0."""
    return _numbers(_excursion_series(model, n, mode))


def excursion_mass(model: WalkModel, n: int, mode: Mode = "exact") -> Number:
    arith = _Arithmetic(model, mode)
    return _number(arith.value(_walk(model, n, arith, "row0")[n], n))


def _meander_mass_series(model: WalkModel, n: int, mode: Mode) -> list:
    arith = _Arithmetic(model, mode)
    return arith.series(_walk(model, n, arith, "total"))


def meander_mass_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """m_0..m_n, the surviving mass per length (1 for every n iff nothing absorbs)."""
    return _numbers(_meander_mass_series(model, n, mode))


def meander_mass(model: WalkModel, n: int, mode: Mode = "exact") -> Number:
    arith = _Arithmetic(model, mode)
    return _number(arith.value(_walk(model, n, arith).sum(), n))


def final_altitude_expectation(model: WalkModel, n: int, mode: Mode = "exact") -> Number:
    """Expected final altitude conditioned on surviving to step n."""
    return meander_distribution(model, n, mode).expectation()


def _final_altitude_series(model: WalkModel, n: int, mode: Mode) -> list:
    arith = _Arithmetic(model, mode)
    series = _walk(model, n, arith, "moment")
    return [arith.ratio(moment, total) if total else None for moment, total in series]


def final_altitude_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """Expected final altitude (conditioned on survival) for every length 0..n."""
    return _numbers(_final_altitude_series(model, n, mode))


def bridge_and_walk_mass(model: WalkModel, n: int, mode: Mode = "exact") -> tuple[Number, Number]:
    """(total walk mass, mass at altitude 0) for the unconstrained walk on Z.

    Only P applies; there is no boundary. With probability weights the total
    is exactly 1, which doubles as a sanity check on the DP.
    """
    arith = _Arithmetic(model, mode)
    final = _walk(model, n, arith, free=True)
    bridge = final[n * model.c]
    if not arith.exact and bridge < _TINY and n * model.c % model.period == 0:
        # a float 0 can be row 0 underflowed on its own: the series raises
        # then; at a length that the period skips, 0 is the bridge mass
        bridge = _walk(model, n, arith, "row0", free=True)[n]
    return _number(arith.value(final.sum(), n)), _number(arith.value(bridge, n))


def _bridge_mass_series(model: WalkModel, n: int, mode: Mode) -> list:
    arith = _Arithmetic(model, mode)
    return arith.series(_walk(model, n, arith, "row0", free=True))


def bridge_mass_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """Mass at altitude 0 of the unconstrained walk, for every length 0..n."""
    return _numbers(_bridge_mass_series(model, n, mode))


# ---------------------------------------------------------------------------
# Arches: excursions of positive length touching 0 only at their endpoints.
# ---------------------------------------------------------------------------


def _arch_series(model: WalkModel, n: int, mode: Mode) -> list:
    arith = _Arithmetic(model, mode)
    return arith.series(_walk(model, n, arith, "arches"))


def arch_series(model: WalkModel, n: int, mode: Mode = "exact") -> list:
    """a_0..a_n with a_0 = 0; a_m is the mass of arches of length m."""
    return _numbers(_arch_series(model, n, mode))


def arch_mass(model: WalkModel, n: int, mode: Mode = "exact") -> Number:
    if n < 1:
        raise ValueError("arches have length >= 1")
    arith = _Arithmetic(model, mode)
    return _number(arith.value(_walk(model, n, arith, "arches")[n], n))


# ---------------------------------------------------------------------------
# Returns to zero: number of times altitude 0 is reached again after leaving
# the origin (the origin itself does not count): the law from the powers of
# the arch series A, the moments from products of E = 1/(1 - A) with itself.
# ---------------------------------------------------------------------------


@_overflow_raises()
def _returns_law(model: WalkModel, n: int, mode: Mode) -> dict:
    arith = _Arithmetic(model, mode)
    if n == 0:
        return {0: arith.value(1, 0)}
    return _returns_from_arches(_walk(model, n, arith, "arches", underflow_ends=True), n)


def returns_to_zero_distribution(model: WalkModel, n: int, mode: Mode = "exact") -> ReturnsDistribution:
    """Distribution of the number of returns to 0 among excursions of length
    n, from the powers of the arch series (``_returns_from_arches``)."""
    law = _returns_law(model, n, mode)
    return ReturnsDistribution(n=n, prob={k: _number(p) for k, p in law.items()})


def _finite(x: np.ndarray) -> np.ndarray:
    """x, whose floats come from ``np.convolve``, which ignores
    ``np.errstate``: one past the largest float raises here."""
    if not np.isfinite(x).all():
        raise NumericalSingularityError("float masses overflowed: overflow encountered in convolve")
    return x


def _first_nonzero(x: np.ndarray) -> int:
    """Index of the first non-zero entry of x, len(x) if there is none."""
    nz = x.nonzero()[0]
    return int(nz[0]) if len(nz) else len(x)


def _low_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients 0..k-1 of the product of the series x and y, both of
    length k: a "valid" ``np.convolve`` of y with x behind k - 1 zeros, so
    that every term past degree k - 1 (in exact mode the largest ints) is a
    product with one of those zeros."""
    padded = np.concatenate((np.zeros(len(x) - 1, dtype=x.dtype), x))
    return np.convolve(padded, y, "valid")


def _truncated_product(factor: np.ndarray, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> coefficients 0..n of the product of the series x and factor, of
    factor's dtype: exact numerators (``object``) or floats.

    Both factors' leading zeros are skipped. Exact: one ``_low_product``,
    whose terms past degree n, which would be the largest ints, are all
    products with zeros. Float: a staircase of direct products
    (``np.convolve``), chunk s of x times the terms of factor that reach
    degree n from it, in about sqrt(len/128) equal chunks (3 at n = 2000):
    more chunks form fewer terms past n, and each costs one more call and a
    pass over its outputs. Each coefficient, a sum of non-negative
    products, keeps its round-off relative to itself (an FFT's is relative
    to the largest coefficient).
    """
    lf = _first_nonzero(factor)
    exact = factor.dtype == object

    def times(x):
        out = np.zeros(n + 1, dtype=factor.dtype)
        lx = _first_nonzero(x)
        low = lx + lf  # the lowest degree that can be non-zero
        size = n + 1 - low
        if size > 0:
            xs, fs = x[lx : lx + size], factor[lf : lf + size]
            if exact:
                out[low:] = _low_product(xs, fs)
            else:
                chunk = -(-size // max(1, math.isqrt(size // 128)))
                for s in range(0, size, chunk):
                    out[low + s :] += np.convolve(xs[s : s + chunk], fs[: size - s])[: size - s]
        return out if exact else _finite(out)

    return times


def _arch_power_weights(arch: np.ndarray, n: int) -> Iterator:
    """w_1, w_2, ...: the nth coefficients of A, A^2, ..., the powers of the
    arch series A, by baby steps and giant steps.

    Baby steps make A^1..A^B one product at a time, with B about sqrt(n)/2
    and at least 2, and keep each reversed, in one array. Giant steps make A^(qB), and
    w_(qB+r) = sum_m A^(qB)[m] * A^r[n-m], so one product of the reversed
    baby powers with A^(qB) gives the B weights after it; the product skips
    the giant power's leading zeros. The weights stop when a power
    underflows (every coefficient below 1e-320: in exact mode, when it is 0).
    """
    baby = max(2, math.isqrt(n) // 2)
    rev = np.empty((baby, n + 1), dtype=arch.dtype)  # row r - 1: A^r, reversed
    step_baby = _truncated_product(arch, n)
    power = arch
    for r in range(baby):
        if r:
            power = step_baby(power)
        rev[r] = power[::-1]
        yield power[n]
        if power.max() < 1e-320:
            return
    step_giant = _truncated_product(power, n)  # times A^B
    giant = power
    while True:
        low = _first_nonzero(giant)
        yield from rev[:, low:] @ giant[low:]
        giant = step_giant(giant)
        if giant.max() < 1e-320:
            return


def _excursions_from_arches(arch: np.ndarray) -> np.ndarray:
    """e_0..e_n from the arch series a_0..a_n, by doubling: E = 1/(1 - A).

    With e_0..e_(m-1) known, c_t = sum_(i<m) e_i·a_(m+t-i) for t < m (one
    ``np.convolve``) is the coefficient m + t of A·(e_0 + ... + e_(m-1)z^(m-1)),
    and e_(m+t) = sum_(i<=t) e_i·c_(t-i) (another): the Newton step
    E <- E + E·(1 - (1 - A)·E) of the inverse, whose residual past degree m
    is A times the known terms. So every e_t is a sum of non-negative
    products, made in log2(n) rounds. The first convolution is a "valid"
    one, which forms no degree past m + k - 1; the second, a
    ``_low_product``, forms no term past t but products with zeros. Exact
    numerators a_m over D**m give numerators e_t over D**t.
    """
    e = np.zeros(len(arch), dtype=arch.dtype)
    e[0] = 1
    m = 1
    while m < len(arch):
        k = min(m, len(arch) - m)  # e_m..e_(m+k-1) are made this round
        c = np.convolve(arch[1 : m + k], e[:m], "valid")
        e[m : m + k] = _low_product(c, e[:k])
        m += k
    return e if e.dtype == object else _finite(e)


def _returns_from_arches(arch: np.ndarray, n: int) -> dict:
    """The returns law {k: probability}, ascending in k, from the arch
    series a_0..a_n as ``_walk``'s "arches" readout gives it: exact
    numerators of a_m over D**m (``object``), which give the pairs
    (w_k, e_n), or floats.

    An excursion with exactly k returns is a k-sequence of arches, so the
    unnormalized weight w_k of k returns is the nth coefficient of the kth
    power of the arch series; the excursion mass e_n comes from the arches
    too (``_excursions_from_arches``). Every arch length is a multiple of
    the period p, the gcd of the lengths with a non-zero arch mass, so the
    law works on the compressed series a_0, a_p, a_2p, ... to length n/p,
    and there is no excursion of length n unless p divides n. The weights
    are taken in ascending k until they add up to e_n, or to
    e_n * (1 - 1e-13) in float mode; weights that end short of that, or pass
    e_n by more than 1e-9 of it, raise ``NumericalSingularityError``. A
    float weight below the smallest normal float counts toward that sum but
    gives no row, as in the float meander distribution.

    A float e_n below the smallest normal float (0 after an e_t between 0
    and it) has underflowed and raises ``NumericalSingularityError``; an
    e_n of 0 otherwise means no excursion of length n.
    """
    exact = arch.dtype == object
    period = math.gcd(*np.flatnonzero(arch).tolist())
    if not period:  # no arch of length n or less
        raise LatticePathError(f"no excursion of length {n}")
    arch = arch[::period]
    size = n // period  # the compressed length
    e = _excursions_from_arches(arch)
    e_n = e[size] if n % period == 0 else 0
    dust = [] if exact else np.flatnonzero((e > 0) & (e < _TINY))
    if len(dust) and e_n < _TINY:
        raise NumericalSingularityError(
            f"float excursion mass underflowed: {e[dust[0]]:.3g} at length {dust[0] * period}, "
            f"{e_n:.3g} at length {n}")
    if e_n <= 0:
        raise LatticePathError(f"no excursion of length {n}")
    target = e_n if exact else e_n * (1.0 - 1e-13)
    weights = _arch_power_weights(arch, size)
    prob = {}
    cum = 0
    for k, w in zip(range(1, size + 1), weights):
        if w > 0 and (exact or w >= _TINY):
            prob[k] = (w, e_n) if exact else float(w) / float(e_n)
        cum += w
        if cum >= target:
            break
    if not target <= cum <= (e_n if exact else e_n * (1.0 + 1e-9)):
        raise NumericalSingularityError(
            f"returns law at length {n}: the weights add up to {cum / e_n:.17g} of the "
            "excursion mass")
    return prob


def _return_totals(e: np.ndarray) -> np.ndarray:
    """Coefficients 0..n of (E - 1)·E from the excursion series e_0..e_n:
    the tth, sum_k k·w_k, totals the returns of the excursions of length t."""
    n = len(e) - 1
    tail = e.copy()
    tail[0] = 0
    return _truncated_product(e, n)(tail)


def _moments_from_excursions(e: np.ndarray, arith: _Arithmetic) -> tuple[Number, Number]:
    """(mean, variance) of the returns at length n = len(e) - 1 >= 1: with
    s = (E - 1)·E, sum k(k - 1)·w_k = 2·[z^n] s·(E - 1)."""
    n = len(e) - 1
    if not e[n]:
        raise LatticePathError(f"no excursion of length {n}")
    s = _return_totals(e)
    mean = _number(arith.ratio(s[n], e[n]))
    return mean, _number(arith.ratio(2 * (s[:n] @ e[n:0:-1]) + s[n], e[n])) - mean * mean


@_overflow_raises()
def returns_moments(model: WalkModel, n: int, mode: Mode = "float") -> tuple[Number, Number]:
    """(mean, variance) of the number of returns among length-n excursions,
    from products of the excursion series, so large n stay cheap."""
    arith = _Arithmetic(model, mode)
    if n == 0:
        zero = _number(arith.value(0, 0))
        return zero, zero
    return _moments_from_excursions(_walk(model, n, arith, "row0"), arith)


@_overflow_raises()
def _returns_mean_series(model: WalkModel, n: int, mode: Mode) -> list:
    arith = _Arithmetic(model, mode)
    e = _walk(model, n, arith, "row0")
    s = _return_totals(e)
    return [arith.value(0, 0)] + [arith.ratio(x, y) if y else None for x, y in zip(s[1:], e[1:])]


def returns_mean_series(model: WalkModel, n: int, mode: Mode = "float") -> list:
    """Expected number of returns among excursions, for every length 0..n.

    Entries are None where no excursion of that length exists.
    """
    return _numbers(_returns_mean_series(model, n, mode))


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


def _weighted_paths(model: WalkModel, n: int, *, bounded: bool
                    ) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """The length-n walks with weights: surviving boundary walks if ``bounded``, else all on Z."""
    den = _denominator(model)
    scale = den**n
    weights: dict[int, Fraction] = {}  # one Fraction per distinct numerator
    for jumps, num, _ in _walks(model, n, den, boundary=bounded, absorbing=bounded):
        w = weights.get(num)
        if w is None:
            w = weights[num] = Fraction(num, scale)
        yield tuple(jumps), w


def enumerate_meander_paths(model: WalkModel, n: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield every surviving boundary walk of length n with its weight."""
    yield from _weighted_paths(model, n, bounded=True)


def enumerate_walk_paths(model: WalkModel, n: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield every unconstrained walk of length n on Z with its P-weight.

    P applies at every altitude, 0 included; the folded weighting of the
    absolute-value rule, with P0 at altitude 0, is ``_rule_tally``'s.
    """
    yield from _weighted_paths(model, n, bounded=False)


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
    """The absorbing walk of the reflection or absorption rule."""
    if rule is BoundaryRule.REFLECTION:
        p0geq = model.P0geq
        total = p0geq.total_weight()
        if total == 0:
            raise InvalidModelError("P0 has no non-negative jump; reflection rule undefined")
        return WalkModel(P=model.P, P0=p0geq.scaled(Fraction(1) / total))
    return WalkModel(P=model.P, P0=model.P)


@functools.lru_cache(maxsize=64)
def _rule_tally(model: WalkModel, rule: BoundaryRule, n: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """(total, {key: numerator}) over the length-n walks of one rule that
    end at 0, both over the walk's D**n.

    One enumeration per rule: uniform walks on Z keyed by their jumps, the
    absolute-value rule's walks on Z (P0 at altitude 0) by their absolute
    altitudes, the reflection and absorption rules' absorbing walks
    (``_canonical_boundary``) by their jumps. The dict is shared between
    callers and must not be modified.

    The cache is keyed by the model's value, not its identity: equal models
    loaded by different commands in one process share a tally, so a second
    ``table2`` on an equal model costs only lookups. Each lookup hashes the
    model's ``Fraction`` weights, so callers look up once per rule
    (``path_probabilities``), not once per path.
    """
    folded = rule is BoundaryRule.ABSOLUTE_VALUE
    bounded = rule in (BoundaryRule.REFLECTION, BoundaryRule.ABSORPTION)
    walk = _canonical_boundary(model, rule) if bounded else model
    total = 0
    hits: dict[tuple[int, ...], int] = {}
    for jumps, num, alts in _walks(walk, n, _denominator(walk),
                                   boundary=rule is not BoundaryRule.UNIFORM, absorbing=bounded):
        if alts[-1] != 0:
            continue
        total += num
        key = tuple(map(abs, alts)) if folded else tuple(jumps)
        hits[key] = hits.get(key, 0) + num
    return total, hits


def _path_probabilities(rule: BoundaryRule, model: WalkModel,
                        paths: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """``path_probabilities`` as (numerator, denominator) pairs."""
    if not paths:
        return []
    n = len(paths[0])
    if any(len(path) != n for path in paths):
        raise ValueError("paths of different lengths")
    total, hits = _rule_tally(model, rule, n)
    # a walk hits the path itself, or folds onto it by absolute value
    keys = map(path_altitudes if rule is BoundaryRule.ABSOLUTE_VALUE else tuple, paths)
    return [(hit, total) if hit else (0, 1) for hit in map(hits.get, keys)]


def path_probabilities(rule: BoundaryRule, model: WalkModel,
                       paths: Sequence[Sequence[int]]) -> list[Fraction]:
    """Probability of each of the paths, all of one length n, under one of
    the four boundary rules, conditioned on the rule's sample space
    (bridges, or excursions of that length). Paths outside the sample space
    get probability 0. The rule's walks are enumerated once
    (``_rule_tally``), so n <= BRUTE_FORCE_MAX_LENGTH.
    """
    return _numbers(_path_probabilities(rule, model, paths))


def path_probability(rule: BoundaryRule, model: WalkModel, path: Sequence[int]) -> Fraction:
    """``path_probabilities`` of the one path."""
    return path_probabilities(rule, model, [path])[0]


def bridge_paths(model: WalkModel, n: int) -> list[tuple[int, ...]]:
    """All length-n jump sequences ending at altitude 0 with positive P-weight."""
    return sorted(_rule_tally(model, BoundaryRule.UNIFORM, n)[1], reverse=True)
