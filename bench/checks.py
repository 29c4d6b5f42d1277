"""Independent checks of the benchmark's operation outputs.

Every operation's TSV or return value is parsed after its timed region and
compared with a route other than the one that produced it:

- the model file is re-read here and its period, drift, tau, rho and lambda
  are computed from the jump weights without calling the package;
- exact series are compared with the brute-force oracle for small n, and
  with the reflection, absorption and arch-convolution identities at full n;
- float masses must lie in [0, 1], float distributions must be
  non-negative and sum to 1, and the float returns law must agree with the
  moment DP (``returns_moments``);
- boundary generating functions are compared with truncated series of a
  small float DP written here.

A check returns None when the output is right and a one-line reason when it
is not. No golden outputs are stored, so a fix to the package never has to
be matched by an edit here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from pathlib import Path

ZERO = Fraction(0)
ORACLE_MAX_N = 10
ORACLE_MAX_PATHS = 5_000
FLOAT_SUM_TOL = 1e-9
MOMENT_REL_TOL = 1e-6
ASYM_RATIO_TOL = 1e-3
GF_SERIES_TERMS = 90


class ModelSpec:
    """A model as written in its file, with the quantities the checks need."""

    def __init__(self, name: str, path: str, P: dict[int, Fraction], P0: dict[int, Fraction]):
        self.name = name
        self.path = path
        self.P = dict(sorted(P.items()))
        self.P0 = dict(sorted(P0.items()))

    @classmethod
    def read(cls, path: Path) -> "ModelSpec":
        lines = {}
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            label, _, body = line.partition(":")
            terms = {}
            for tok in body.split():
                jump, _, weight = tok.partition(":")
                terms[int(jump)] = Fraction(weight)
            lines[label.strip()] = terms
        return cls(path.stem, str(path), lines["P"], lines["P0"])

    def text(self) -> str:
        def line(poly):
            return " ".join(f"{j}:{w}" for j, w in poly.items())
        return f"# {self.name}\nP: {line(self.P)}\nP0: {line(self.P0)}\n"

    @property
    def c(self) -> int:
        return -min(self.P)

    @property
    def d(self) -> int:
        return max(self.P)

    @property
    def rise(self) -> int:
        return max([self.d, 1] + [j for j in self.P0 if j >= 0])

    @property
    def period(self) -> int:
        jumps = sorted(self.P)
        return max(math.gcd(*[j - jumps[0] for j in jumps]), 1)

    @property
    def lukasiewicz(self) -> bool:
        return self.c == 1

    @property
    def reflection(self) -> bool:
        return all(j >= 0 for j in self.P0)

    @property
    def asymptotic(self) -> bool:
        """Aperiodic with a single down jump of -1: the asymptotic commands apply."""
        return self.period == 1 and self.lukasiewicz

    @property
    def loss(self) -> Fraction:
        return sum((w for j, w in self.P0.items() if j < 0), ZERO)

    @property
    def drift(self) -> Fraction:
        return sum((j * w for j, w in self.P.items()), ZERO)

    def oracle_cap(self) -> int:
        """Largest n <= 10 whose full path enumeration stays small."""
        branching = max(len(self.P), len(self.P0))
        n = 0
        while n < ORACLE_MAX_N and branching ** (n + 1) <= ORACLE_MAX_PATHS:
            n += 1
        return n

    def evaluate(self, poly: dict[int, Fraction], u: complex) -> complex:
        return sum(float(w) * u**j for j, w in poly.items())

    @cached_property
    def tau(self) -> float:
        # u*P'(u) = sum j p u^j increases on (0, inf); its root minimises P
        lo, hi = 1e-9, 1e9
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if sum(j * float(w) * mid**j for j, w in self.P.items()) < 0:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    @cached_property
    def rho(self) -> float:
        return 1.0 / self.evaluate(self.P, self.tau).real

    @cached_property
    def lam(self) -> float:
        p0geq = {j: w for j, w in self.P0.items() if j >= 0}
        return (self.evaluate(p0geq, self.tau) / self.evaluate(self.P, self.tau)).real

    def criticality(self) -> str:
        if self.drift == 0:  # tau = 1 exactly, so lambda = P0geq(1) is exact
            p0geq = sum((w for j, w in self.P0.items() if j >= 0), ZERO)
            return "critical" if p0geq == 1 else "supercritical" if p0geq > 1 else "subcritical"
        if abs(self.lam - 1.0) <= 1e-9:
            return "critical"
        return "supercritical" if self.lam > 1.0 else "subcritical"

    def drift_sign(self) -> str:
        return "positive" if self.drift > 0 else "negative" if self.drift < 0 else "zero"

    @cached_property
    def boundary_masses(self) -> list[list[float]]:
        """Float mass per altitude after n = 0..GF_SERIES_TERMS steps."""
        width = GF_SERIES_TERMS * self.rise + 1
        vec = [0.0] * width
        vec[0] = 1.0
        out = [vec[: self.c]]
        bulk = [(j, float(w)) for j, w in self.P.items()]
        boundary = [(j, float(w)) for j, w in self.P0.items() if j >= 0]
        for _ in range(GF_SERIES_TERMS):
            new = [0.0] * width
            for alt, mass in enumerate(vec):
                if mass:
                    for j, w in boundary if alt == 0 else bulk:
                        if alt + j >= 0:
                            new[alt + j] += mass * w
            vec = new
            out.append(vec[: self.c])
        return out

    def gf_series(self, k: int, z: float) -> float:
        return sum(masses[k] * z**n for n, masses in enumerate(self.boundary_masses))


class Oracle:
    """Brute-force and moment-DP results from the package, cached per run.

    These are the package's own independent routes; they run outside the
    timed region and are computed once per (model, n).
    """

    def __init__(self, lp):
        self.lp = lp
        self._models = {}
        self._cache = {}

    def model(self, spec: ModelSpec):
        if spec.name not in self._models:
            self._models[spec.name] = self.lp.load_model(spec.path)
        return self._models[spec.name]

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def brute(self, spec: ModelSpec, n: int):
        return self._cached(("bf", spec.name, n),
                            lambda: self.lp.enumeration.brute_force(self.model(spec), n))

    def bridge(self, spec: ModelSpec, n: int) -> Fraction:
        def compute():
            walks = self.lp.enumeration.enumerate_walk_paths(self.model(spec), n)
            return sum((w for p, w in walks if sum(p) == 0), ZERO)
        return self._cached(("bridge", spec.name, n), compute)

    def moments(self, spec: ModelSpec, n: int) -> tuple[float, float]:
        return self._cached(("moments", spec.name, n),
                            lambda: self.lp.enumeration.returns_moments(self.model(spec), n, "float"))

    def series_value(self, spec: ModelSpec, what: str, n: int):
        """What `count --what` must print at length n, from brute force."""
        if what == "bridges":
            return self.bridge(spec, n)
        bf = self.brute(spec, n)
        surviving = sum(bf.meander.values(), ZERO)
        if what == "excursions":
            return bf.excursion_mass
        if what == "meanders":
            return surviving
        if what == "arches":
            return bf.arch_mass
        if what == "returns":
            if not bf.excursion_mass:
                return None
            return sum((k * p for k, p in bf.returns_distribution().items()), ZERO)
        if what == "final-alt":
            return bf.final_altitude_expectation() if surviving else None
        raise ValueError(what)


# ---------------------------------------------------------------------------
# TSV parsing
# ---------------------------------------------------------------------------


def rows(out: str) -> list[list[str]]:
    return [line.split("\t") for line in out.splitlines() if line and not line.startswith("#")]


def header_value(out: str, name: str) -> str:
    for line in out.splitlines():
        if line.startswith(f"# {name}\t"):
            return line.split("\t", 1)[1]
    raise ValueError(f"no '# {name}' header")


def number(cell: str, exact: bool):
    if cell == "-":
        return None
    return Fraction(cell) if exact else float(cell)


def parse_series(out: str, exact: bool) -> list:
    table = rows(out)
    if [int(r[0]) for r in table] != list(range(len(table))):
        raise ValueError("series rows are not numbered 0, 1, 2, ...")
    return [number(r[1], exact) for r in table]


def parse_distribution(out: str, exact: bool) -> dict[int, object]:
    return {int(r[0]): number(r[1], exact) for r in rows(out)}


def close(got, want, exact: bool, rel: float = 1e-9) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if exact:
        return got == want
    return abs(got - float(want)) <= rel * abs(float(want)) + 1e-300


def expected_cli_rc(spec: ModelSpec, command: str, what: str) -> int:
    """Documented exit code: 1 for models the asymptotic commands reject."""
    if command in ("asym", "fit") and not spec.asymptotic:
        return 1
    if command == "fit" and what == "final-alt" and spec.drift < 0:
        return 1  # the negative-drift "discrete" law has no CDF to fit
    return 0


# ---------------------------------------------------------------------------
# Checks. Each takes the operation's result and the pass's results by key.
# ---------------------------------------------------------------------------


def series_of(results, key, n: int):
    """The exact series another operation of the pass printed, if it reaches n."""
    res = results.get(key)
    if res is None or res.rc != 0:
        return None
    try:
        series = parse_series(res.out, True)
    except ValueError:
        return None
    return series if len(series) > n else None


def check_count(res, results, oracle, spec, what, n, exact):
    if res.rc != 0:
        return f"exit code {res.rc}"
    vals = parse_series(res.out, exact)
    if len(vals) != n + 1:
        return f"{len(vals)} rows, expected {n + 1}"
    for k in range(min(n, spec.oracle_cap()) + 1):
        want = oracle.series_value(spec, what, k)
        if not close(vals[k], want, exact):
            return f"{what}[{k}] = {vals[k]}, brute force gives {want}"
    present = [v for v in vals if v is not None]
    if what in ("excursions", "meanders", "arches", "bridges"):
        if len(present) != len(vals) or any(not 0 <= v <= 1 for v in present):
            return f"{what} mass outside [0, 1]"
    if what == "final-alt" and any(not 0 <= v <= k * spec.rise for k, v in enumerate(vals) if v is not None):
        return "final altitude outside [0, n * rise]"
    if what == "returns" and any(not 0 <= v <= k for k, v in enumerate(vals) if v is not None):
        return "mean returns outside [0, n]"
    if what == "meanders":
        return _check_meander_identity(vals, results, spec, n, exact)
    if what == "arches" and exact:
        e = series_of(results, ("count", spec.name, "excursions", True), n)
        if e is None:
            return "no excursion series to convolve with"
        for k in range(1, n + 1):
            if sum((vals[m] * e[k - m] for m in range(1, k + 1)), ZERO) != e[k]:
                return f"excursions are not arch sequences at n={k}"
    return None


def _check_meander_identity(m, results, spec, n, exact):
    tol = 0 if exact else 1e-9
    if spec.lukasiewicz and spec.reflection:
        if any(abs(v - 1) > tol for v in m):
            return "reflection mass is not 1"
        return None
    if spec.lukasiewicz and exact:
        e = series_of(results, ("count", spec.name, "excursions", True), n)
        if e is None:
            return "no excursion series for the absorption identity"
        acc = ZERO
        for k in range(n):
            acc += e[k]
            if m[k + 1] != 1 - spec.loss * acc:
                return f"absorption identity fails at n={k + 1}"
        return None
    slack = 0 if exact else 1e-12
    if any(b > a * (1 + slack) for a, b in zip(m, m[1:])):
        return "surviving mass increases"
    return None


def check_dist(res, results, oracle, spec, what, n, exact):
    if exact and what == "returns":
        e = series_of(results, ("count", spec.name, "excursions", True), n)
        if e is None:
            return "no excursion series to decide the exit code"
        if e[n] == 0:
            return None if res.rc == 1 else f"exit code {res.rc}, expected 1 (no excursion)"
    if res.rc != 0:
        return f"exit code {res.rc}"
    dist = parse_distribution(res.out, exact)
    if not dist or any(p is None or p < 0 for p in dist.values()):
        return "negative or missing probability"
    total = sum(dist.values(), ZERO if exact else 0.0)
    if (total != 1) if exact else abs(total - 1.0) > FLOAT_SUM_TOL:
        return f"probabilities sum to {float(total)!r}"
    mean = sum((k * p for k, p in dist.items()), ZERO if exact else 0.0)
    if what == "final-alt":
        mass = number(header_value(res.out, "meander_mass"), exact)
        if not 0 <= mass <= 1:
            return f"meander mass {mass} outside [0, 1]"
        if exact:
            for key, want, label in (
                (("count", spec.name, "meanders", True), mass, "meander mass"),
                (("count", spec.name, "final-alt", True), mean, "mean altitude"),
            ):
                s = series_of(results, key, n)
                if s is not None and s[n] != want:
                    return f"{label} {want} differs from the count series value {s[n]}"
        return None
    if exact:
        s = series_of(results, ("count", spec.name, "returns", True), n)
        if s is not None and s[n] != mean:
            return f"mean returns {mean} differs from the moment series value {s[n]}"
        return None
    var = sum(k * k * p for k, p in dist.items()) - mean * mean
    ref_mean, ref_var = oracle.moments(spec, n)
    for label, got, want in (("mean", mean, ref_mean), ("variance", var, ref_var)):
        if abs(got - want) > MOMENT_REL_TOL * abs(want):
            return f"returns {label} {got:.9g} disagrees with returns_moments {want:.9g}"
    return None


def check_fit(res, results, oracle, spec, what, n):
    want_rc = expected_cli_rc(spec, "fit", what)
    if res.rc != want_rc:
        return f"exit code {res.rc}, expected {want_rc}"
    if want_rc:
        return None
    (row,) = rows(res.out)
    law, sup, passed = row[2], float(row[4]), row[5]
    if what == "returns":
        family = {"supercritical": "gaussian", "critical": "rayleigh",
                  "subcritical": "negbin2"}[spec.criticality()]
    elif spec.drift > 0:
        family = "gaussian"
    else:
        family = "half-normal" if spec.reflection else "rayleigh"
    if law != family:
        return f"law {law}, expected {family}"
    if not 0.0 <= sup <= 1.0:
        return f"sup distance {sup!r} outside [0, 1]"
    if passed != ("true" if sup <= 0.05 else "false"):
        return "passed flag disagrees with the distance"
    return None


def _asym_row(res):
    (row,) = rows(res.out)
    est, exact, ratio = float(row[2]), float(row[3]), number(row[4], False)
    return est, exact, ratio


def check_asym(res, results, oracle, spec, what, n):
    want_rc = expected_cli_rc(spec, "asym", what)
    if res.rc != want_rc:
        return f"exit code {res.rc}, expected {want_rc}"
    if want_rc:
        return None
    est, exact, ratio = _asym_row(res)
    if not (math.isfinite(est) and est > 0 and math.isfinite(exact) and exact >= 0):
        return f"estimate {est!r} / exact {exact!r} not a finite positive pair"
    if ratio is None or abs(ratio - exact / est) > 1e-9 * abs(ratio):
        return f"ratio {ratio} is not exact / estimate"
    return None


def check_asym_large(res, results, oracle, spec, what, n):
    if res.rc == 2:
        return None  # a loud numerical failure is an accepted outcome
    if res.rc != 0:
        return f"exit code {res.rc}, expected 0 or 2"
    ref = results.get(("asym", spec.name, what, 2000))
    if ref is None or ref.rc != 0:
        return "no n=2000 ratio to compare with"
    ratio, ref_ratio = _asym_row(res)[2], _asym_row(ref)[2]
    if ratio is None or abs(ratio - ref_ratio) > ASYM_RATIO_TOL:
        return f"ratio {ratio} at n={n} vs {ref_ratio} at n=2000"
    return None


def check_table2(res, results, oracle, spec):
    if res.rc != 0:
        return f"exit code {res.rc}"
    printed = {tuple(int(j) for j in r[0].split()): [Fraction(v) for v in r[1:]] for r in rows(res.out)}
    bridges = [p for p in itertools.product(spec.P, repeat=4) if sum(p) == 0]
    if set(printed) != set(bridges):
        return "rows are not the length-4 bridges"

    def weight(path, boundary):
        """P-weight of the path; with a boundary, walks below 0 weigh nothing."""
        w, alt = Fraction(1), 0
        for j in path:
            w *= (boundary if alt == 0 and boundary is not None else spec.P).get(j, ZERO)
            alt += j
            if alt < 0 and boundary is not None:
                return ZERO
        return w

    total = sum(weight(p, None) for p in bridges)
    p0geq = {j: w for j, w in spec.P0.items() if j >= 0}
    scale = sum(p0geq.values(), ZERO)
    reflect = {j: w / scale for j, w in p0geq.items()}
    jumps = sorted(set(spec.P) | set(reflect))
    excursions = [p for p in itertools.product(jumps, repeat=4) if sum(p) == 0]
    e_reflect = sum(weight(p, reflect) for p in excursions)
    e_absorb = sum(weight(p, spec.P) for p in excursions)
    for path, (uniform, absval, refl, absorb) in printed.items():
        want = (weight(path, None) / total,
                weight(path, reflect) / e_reflect if e_reflect else ZERO,
                weight(path, spec.P) / e_absorb if e_absorb else ZERO)
        if (uniform, refl, absorb) != want:
            return f"path {path}: {uniform}, {refl}, {absorb} expected {want}"
        if not 0 <= absval <= 1:
            return f"path {path}: absolute-value probability {absval} outside [0, 1]"
    return None


def check_verify(res, results, oracle, spec):
    if res.rc != 0:
        return f"exit code {res.rc}"
    table = rows(res.out)
    if not table or table[0][:2] != ["PASS", "model-valid"]:
        return "missing model-valid check"
    failed = [r[1] for r in table if r[0] != "PASS"]
    return f"checks failed: {failed}" if failed else None


# --- library calls (kernel sweep) ------------------------------------------


def check_kernel(res, results, oracle, spec, what, z):
    v = res.value
    if what == "small_branches":
        if len(v.branches) != spec.c:
            return f"{len(v.branches)} small branches, expected {spec.c}"
        for u in v.branches:
            if abs(1 - z * spec.evaluate(spec.P, u)) > 1e-10 or abs(u) >= spec.tau:
                return f"branch {u} is not a small root of the kernel at z={z}"
        return None
    if what in ("solve_boundary_gfs", "excursion_gf"):
        values = v if what == "solve_boundary_gfs" else [v]
        if len(values) != (spec.c if what == "solve_boundary_gfs" else 1):
            return "wrong number of boundary values"
        for k, got in enumerate(values):
            want = spec.gf_series(k, z)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                return f"F_{k}({z}) = {got!r}, series gives {want!r}"
        return None
    if what == "perturbation_identity_residual":
        return None if 0 <= v <= 1e-9 else f"perturbation residual {v!r} > 1e-9"
    raise ValueError(what)


def check_constants(res, results, oracle, spec):
    sc = res.value
    for name, got, want, tol in (("rho", sc.rho, spec.rho, 1e-9), ("tau", sc.tau, spec.tau, 1e-7),
                                 ("lam", sc.lam, spec.lam, 1e-9)):
        if abs(got - want) > tol * max(1.0, abs(want)):
            return f"{name} = {got!r}, independent value {want!r}"
    return None


def check_classify(res, results, oracle, spec):
    cls = res.value
    if cls.criticality.value != spec.criticality() or cls.drift_sign.value != spec.drift_sign():
        return f"{cls.criticality.value}/{cls.drift_sign.value}, expected {spec.criticality()}/{spec.drift_sign()}"
    return None


def check_estimate(res, results, oracle, spec, what, n):
    est = res.value
    prefix = {"excursion_asymptotic": "excursions", "arch_asymptotic": "arches",
              "meander_ratio_asymptotic": "meanders",
              "final_altitude_asymptotic": "final-altitude"}[what]
    if est.n != n or not est.formula_id.startswith(prefix):
        return f"estimate for n={est.n} by {est.formula_id}"
    if not (math.isfinite(est.value) and est.value > 0):
        return f"estimate {est.value!r} is not finite and positive"
    if what == "excursion_asymptotic" and spec.criticality() not in est.formula_id:
        return f"formula {est.formula_id} does not match the {spec.criticality()} regime"
    return None

