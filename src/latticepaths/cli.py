"""Command-line front end.

Every subcommand reads a model file, runs one family of operations and
writes deterministic TSV to stdout: ``#``-prefixed header lines, tab
separated columns, exact rationals as ``a/b`` and floats with 12
significant digits. Diagnostics go to stderr. Exit codes: 0 success,
1 model or file error, 2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import asymptotics, enumeration, kernel, laws
from .errors import (
    BranchDegenerateError,
    LatticePathError,
    NumericalSingularityError,
)
from .model import load_model, validate
from .verify import run_verification

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY_FAILED = 3


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_rows(rows) -> None:
    """Write one tab-separated line per row of cells, all in one write.

    A header is a row of strings whose first cell starts with ``#``. If
    ``rows`` raises part way, the rows made so far are still written.
    """
    lines = []
    try:
        for row in rows:
            lines.append("\t".join(map(fmt, row)) + "\n")
    finally:
        sys.stdout.write("".join(lines))


def _cmd_validate(args) -> int:
    model = load_model(args.model)
    report = validate(model)
    _write_rows([
        ("# field", "value"),
        ("ok", report.ok),
        ("kind", report.kind.value),
        ("lukasiewicz", report.lukasiewicz),
        ("period", report.period),
        *(("violation", v) for v in report.violations),
    ])
    return EXIT_OK


def _cmd_classify(args) -> int:
    model = load_model(args.model)
    cls = asymptotics.classify(model)
    _write_rows([
        ("# field", "value"),
        ("criticality", cls.criticality.value),
        ("drift", cls.drift_sign.value),
        ("kind", model.kind().value),
    ])
    return EXIT_OK


def _cmd_constants(args) -> int:
    model = load_model(args.model)
    sc = kernel.structural_constants(model)
    names = ("tau", "rho", "C", "delta", "delta0geq", "lam", "kappa",
             "rho1", "alpha", "alpha2", "gamma", "E_at_rho", "E_at_1", "r")
    _write_rows([("# constant", "value"), *((name, getattr(sc, name)) for name in names)])
    return EXIT_OK


# names, not function objects: the series is looked up in ``enumeration`` at
# call time, so a wrapper installed there (a tracer, a test double) applies
_COUNT_SERIES = {
    "excursions": "excursion_series",
    "meanders": "meander_mass_series",
    "arches": "arch_series",
    "bridges": "bridge_mass_series",
    "returns": "returns_mean_series",
    "final-alt": "final_altitude_series",
}


def _cmd_count(args) -> int:
    model = load_model(args.model)
    mode = "exact" if args.exact else "float"
    series = getattr(enumeration, _COUNT_SERIES[args.what])(model, args.n, mode)
    _write_rows([("# n", args.what), *enumerate(series)])
    return EXIT_OK


def _cmd_gf_eval(args) -> int:
    model = load_model(args.model)
    z = args.z
    values = kernel.solve_boundary_gfs(model, z)

    def rows():
        yield "# quantity", "value"
        for k, v in enumerate(values):
            yield f"F_{k}", v
        if model.c >= 2:
            yield "F_0_vandermonde", kernel.excursion_gf_vandermonde(model, z)
        yield "E_free", kernel.excursion_gf_bf(model, z)
        yield "perturbation_residual", kernel.perturbation_identity_residual(model, z)

    _write_rows(rows())
    return EXIT_OK


# (estimate in ``asymptotics``, exact value in ``enumeration``), looked up by
# name at call time for the same reason as ``_COUNT_SERIES``
_ASYM = {
    "excursions": ("excursion_asymptotic", "excursion_mass"),
    "arches": ("arch_asymptotic", "arch_mass"),
    "meanders": ("meander_ratio_asymptotic", "meander_mass"),
    "final-alt": ("final_altitude_asymptotic", "final_altitude_expectation"),
}


def _cmd_asym(args) -> int:
    model = load_model(args.model)
    n = args.n
    estimate, exact_value = _ASYM[args.what]
    est = getattr(asymptotics, estimate)(model, n)
    exact = float(getattr(enumeration, exact_value)(model, n, "float"))
    ratio = exact / est.value if est.value else None
    _write_rows([("# what", "n", "estimate", "exact", "ratio", "formula"),
                 (args.what, n, est.value, exact, ratio, est.formula_id)])
    return EXIT_OK


def _cmd_dist(args) -> int:
    model = load_model(args.model)
    mode = "exact" if args.exact else "float"
    n = args.n
    if args.what == "final-alt":
        dist = enumeration.meander_distribution(model, n, mode)

        def rows():  # the mass goes out even when no walk survives
            yield "# meander_mass", dist.total()
            yield "# altitude", "probability"
            yield from sorted(dist.conditional().items())

        _write_rows(rows())
    else:
        dist = enumeration.returns_to_zero_distribution(model, n, mode)
        _write_rows([("# returns", "probability"), *sorted(dist.prob.items())])
    return EXIT_OK


def _cmd_fit(args) -> int:
    model = load_model(args.model)
    statistic = (
        laws.Statistic.FINAL_ALTITUDE if args.what == "final-alt" else laws.Statistic.RETURNS_TO_ZERO
    )
    mode = "exact" if args.exact else "float"
    report = laws.fit(model, statistic, args.n, mode=mode, tolerance=args.tolerance)
    rows = [
        ("# statistic", "n", "law", "normalization", "sup_distance", "passed"),
        (statistic.value, report.n, report.law.family, report.law.normalization,
         report.sup_distance, report.passed),
    ]
    if args.plot:
        rows += [("# x", "exact_cdf", "law_cdf"), *report.curve]
    _write_rows(rows)
    return EXIT_OK


def _cmd_table2(args) -> int:
    model = load_model(args.model)
    n = 4
    paths = enumeration.bridge_paths(model, n)
    rules = (
        enumeration.BoundaryRule.UNIFORM,
        enumeration.BoundaryRule.ABSOLUTE_VALUE,
        enumeration.BoundaryRule.REFLECTION,
        enumeration.BoundaryRule.ABSORPTION,
    )

    def rows():
        yield "# path", "uniform", "absolute-value", "reflection", "absorption"
        for path in paths:
            probs = [enumeration.path_probability(rule, model, path) for rule in rules]
            yield " ".join(str(j) for j in path), *probs

    _write_rows(rows())
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = load_model(args.model)
    failed = []

    def rows():
        for name, passed, detail in run_verification(model):
            if passed:
                yield "PASS", name
            else:
                failed.append(name)
                yield "FAIL", name, detail

    _write_rows(rows())
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticepaths",
        description="Exact and asymptotic statistics of boundary walk models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a model file")
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, "check the model invariants and report")
    add("classify", _cmd_classify, "criticality, drift sign and model kind")
    add("constants", _cmd_constants, "structural constants, one per line")

    p = add("count", _cmd_count, "exact or float series of a counting statistic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", choices=sorted(_COUNT_SERIES), required=True)
    p.add_argument("--exact", action="store_true")

    p = add("gf-eval", _cmd_gf_eval, "evaluate the generating functions at z")
    p.add_argument("--z", type=float, required=True)

    p = add("asym", _cmd_asym, "asymptotic estimate vs the exact value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", choices=list(_ASYM), required=True)

    p = add("dist", _cmd_dist, "full distribution of a statistic at length n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", choices=["final-alt", "returns"], required=True)
    p.add_argument("--exact", action="store_true")

    p = add("fit", _cmd_fit, "Kolmogorov fit of the exact distribution vs its limit law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", choices=["final-alt", "returns"], required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--plot", action="store_true", help="also emit CDF plot data")

    add("table2", _cmd_table2, "length-4 table under the four boundary rules")
    add("verify", _cmd_verify, "run the invariant suite on the model")
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (BranchDegenerateError, NumericalSingularityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LatticePathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
