"""The benchmark workloads, each a fixed list of operations built from a seed.

An operation is one CLI command run in-process through ``latticepaths.cli.run``
or one public library call. The seed picks the n values within each
workload's ranges, the z grid jitter, the seeded random models and the
order of operations; the package only ever sees the generated inputs.

- ``exact-series``: exact ``Fraction`` arithmetic, the known hot spot, plus
  the length-4 table and ``verify`` on one model. Nearly all of its time is
  in the exact DP and almost none in the kernel.
- ``float-large-n``: float DP, returns FFT and moment DP at n in the
  thousands, plus the sizes at which float mode is known to go wrong.
- ``kernel-sweep``: library calls into the kernel and the closed-form
  asymptotics, which every CLI workload spends at most a few percent on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

import checks
from checks import ModelSpec

COUNT_WHATS = ("excursions", "meanders", "arches", "bridges", "returns", "final-alt")
FLOAT_COUNT_WHATS = ("meanders", "final-alt", "excursions", "returns")
ASYM_WHATS = ("excursions", "arches", "meanders", "final-alt")
# the sizes at which float mode is known to underflow silently
LARGE_ASYM = (("critical_drift_down", "excursions", 8000),
              ("supercritical_drift_down", "final-alt", 60000))
RANDOM_MODELS = 6
ESTIMATES = ("excursion_asymptotic", "arch_asymptotic", "meander_ratio_asymptotic",
             "final_altitude_asymptotic")


@dataclass
class Op:
    """One operation: ``argv`` for a CLI command or ``call`` for a library call.

    ``check(result, results_by_key)`` runs after the pass and returns None or
    the reason the output is wrong. ``scale`` is False for an operation whose
    time is kept as measured rather than scaled to reference speed.
    """

    name: str
    key: tuple
    check: Callable
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], Any]] = None
    scale: bool = True


@dataclass
class Result:
    op: Op
    seconds: float
    scaled: float = 0.0  # ``seconds`` at reference speed
    rc: Optional[int] = None
    out: str = ""
    err: str = ""
    value: Any = None
    exc: Optional[BaseException] = None


@dataclass
class Context:
    """What the workload functions need: the package, model specs and the oracle cache."""

    lp: Any
    root: Path
    scratch: Path
    tiny: bool
    oracle: checks.Oracle = field(init=False)
    shipped: dict[str, ModelSpec] = field(init=False)

    def __post_init__(self):
        self.oracle = checks.Oracle(self.lp)
        self.shipped = {p.stem: ModelSpec.read(p) for p in sorted((self.root / "models").glob("*.model"))}
        if not self.shipped:
            raise FileNotFoundError(f"no model files under {self.root / 'models'}")

    def bind(self, fn, *args):
        """A check with the oracle and arguments filled in."""
        return lambda res, results: fn(res, results, self.oracle, *args)


def random_spec(rng: random.Random, index: int) -> ModelSpec:
    """A valid random model drawn like the test suite's random models (c, d <= 3)."""
    def weights(exponents):
        nums = [rng.randint(1, 9) for _ in exponents]
        return {e: Fraction(v, sum(nums)) for e, v in zip(exponents, nums)}

    c = rng.choice([1, 1, 2, 3])
    d = rng.randint(1, 3)
    P = weights(sorted(set([-c, d] + [e for e in range(-c + 1, d) if rng.random() < 0.6])))
    if rng.random() < 0.5:
        b_exps = sorted({rng.randint(0, d) for _ in range(rng.randint(1, 3))})
    else:
        b_exps = sorted({rng.randint(-c, d) for _ in range(rng.randint(2, 4))})
        if all(e < 0 for e in b_exps):
            b_exps.append(rng.randint(0, d))
    return ModelSpec(f"random{index}", "", P, weights(b_exps))


def cli_op(ctx, spec, argv, key, check, *check_args) -> Op:
    # the name leaves out n, which the seed picks, except for asym, whose n is fixed
    shown = argv
    if argv[0] != "asym" and "--n" in argv:
        i = argv.index("--n")
        shown = argv[:i] + argv[i + 2:]
    return Op(name=" ".join(shown + [spec.name]), key=key, argv=argv + [spec.path],
              check=ctx.bind(check, spec, *check_args))


def exact_series(ctx: Context, rng: random.Random) -> list[Op]:
    specs = list(ctx.shipped.values())
    for i in range(1 if ctx.tiny else RANDOM_MODELS):
        spec = random_spec(rng, i)
        spec.path = str(ctx.scratch / f"random{i}.model")
        Path(spec.path).write_text(spec.text(), encoding="utf-8")
        specs.append(spec)
    ops = []
    for spec in specs:
        # exact DP cost grows like n^2 * width * jumps, and with the size of
        # the weights' denominators: shrink n for wider models. A random
        # model's cost still varies tenfold with its shape, so the random
        # models run at small n, where many of them add up to a steady
        # share of the pass, and the seed moves the pass time little.
        if ctx.tiny:
            n, n_dist = 12, 6
        elif spec.name.startswith("random"):
            n, n_dist = rng.randint(17, 19), rng.randint(11, 13)
        else:
            cost = spec.rise * max(len(spec.P), len(spec.P0)) / 3
            n_dist = rng.randint(23, 25)
            n = max(n_dist, round(rng.randint(54, 56) / cost ** 0.5))
        for what in COUNT_WHATS:
            ops.append(cli_op(ctx, spec, ["count", "--n", str(n), "--what", what, "--exact"],
                              ("count", spec.name, what, True), checks.check_count, what, n, True))
        for what in ("final-alt", "returns"):
            ops.append(cli_op(ctx, spec, ["dist", "--n", str(n_dist), "--what", what, "--exact"],
                              ("dist", spec.name, what, True), checks.check_dist, what, n_dist, True))
    for spec in ctx.shipped.values():
        ops.append(cli_op(ctx, spec, ["table2"], ("table2", spec.name), checks.check_table2))
    # the invariant suite on its cheapest model: exact series to n = 200,
    # brute force to n = 6 and the kernel checks
    spec = ctx.shipped["dyck_reflection"]
    ops.append(cli_op(ctx, spec, ["verify"], ("verify", spec.name), checks.check_verify))
    return ops


def float_large_n(ctx: Context, rng: random.Random) -> list[Op]:
    scale = 10 if ctx.tiny else 1
    ops = []
    for spec in ctx.shipped.values():
        for what in FLOAT_COUNT_WHATS:
            # n about 3000, so that these DPs and not the single n = 60000
            # one take most of the pass
            n = rng.randint(2950, 3050) // scale
            ops.append(cli_op(ctx, spec, ["count", "--n", str(n), "--what", what],
                              ("count", spec.name, what, False), checks.check_count, what, n, False))
        # n = 2000, even so that every shipped model, the period-2 Dyck walks
        # included, has excursions of length n; the returns FFT's cost jumps
        # with the factors of its length, so the seed does not vary this n
        n = 2000 // scale
        for what in ("final-alt", "returns"):
            ops.append(cli_op(ctx, spec, ["dist", "--n", str(n), "--what", what],
                              ("dist", spec.name, what, False), checks.check_dist, what, n, False))
            ops.append(cli_op(ctx, spec, ["fit", "--n", str(n), "--what", what],
                              ("fit", spec.name, what), checks.check_fit, what, n))
        for what in ASYM_WHATS:
            ops.append(cli_op(ctx, spec, ["asym", "--n", "2000", "--what", what],
                              ("asym", spec.name, what, 2000), checks.check_asym, what, 2000))
    for name, what, n in LARGE_ASYM:
        spec = ctx.shipped[name]
        op = cli_op(ctx, spec, ["asym", "--n", str(n // scale), "--what", what],
                    ("asym", name, what, n), checks.check_asym_large, what, n // scale)
        # the n = 60000 float DP runs for seconds over arrays of tens of
        # thousands of floats; its own time averages the host's speed better
        # than the short compute-bound reference timings around it follow it
        op.scale = n < 20000
        ops.append(op)
    return ops


def kernel_sweep(ctx: Context, rng: random.Random) -> list[Op]:
    lp = ctx.lp
    ops = []
    points = 3 if ctx.tiny else 8
    for spec in ctx.shipped.values():
        model = ctx.oracle.model(spec)
        ops.append(Op(name=f"structural_constants {spec.name}", key=("constants", spec.name),
                      call=lambda m=model: lp.kernel.structural_constants(m),
                      check=ctx.bind(checks.check_constants, spec)))
        if spec.period == 1:
            ops.append(Op(name=f"classify {spec.name}", key=("classify", spec.name),
                          call=lambda m=model: lp.asymptotics.classify(m),
                          check=ctx.bind(checks.check_classify, spec)))
        for i in range(points):
            z = spec.rho * 0.5 * (i + rng.uniform(0.1, 1.0)) / points
            for what in ("small_branches", "solve_boundary_gfs", "excursion_gf",
                         "perturbation_identity_residual"):
                ops.append(Op(name=f"{what} {spec.name}", key=(what, spec.name, i),
                              call=partial(lambda w, m, z: getattr(lp.kernel, w)(m, z), what, model, z),
                              check=ctx.bind(checks.check_kernel, spec, what, z)))
        if spec.asymptotic:
            for what in ESTIMATES:
                n = rng.randint(1000, 2000)
                ops.append(Op(name=f"{what} {spec.name}", key=(what, spec.name),
                              call=partial(lambda w, m, n: getattr(lp.asymptotics, w)(m, n), what, model, n),
                              check=ctx.bind(checks.check_estimate, spec, what, n)))
    return ops


WORKLOADS = {
    "exact-series": exact_series,
    "float-large-n": float_large_n,
    "kernel-sweep": kernel_sweep,
}
