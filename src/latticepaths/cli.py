"""Command-line front end.

Every subcommand reads a model file, runs one family of operations and
writes deterministic TSV to stdout: ``#``-prefixed header lines, tab
separated columns, exact rationals as ``a/b`` and floats with 12
significant digits. Diagnostics go to stderr. Exit codes: 0 success,
1 model or file error, 2 numerical failure, 3 verification failure.
argparse's own usage errors (a missing, unknown or malformed argument)
exit 2 as well, before any model is read.

The grammar is declared once, in ``COMMANDS``. ``run`` reads a well-formed
command line straight off it (``_read_argv``: the subcommand, options
spelled in full, each once, values its types and choices accept, one model
path) into the namespace argparse would make; argparse, built from the same
table by ``build_parser``, is imported only for ``--help``, a usage error or
a shape the reader leaves to it (an abbreviation, ``--n=5``, ``--``, a
value starting with ``-``, a repeated option), so its text and its errors
are the only ones there are.

``count``, ``dist`` and ``table2`` take their values from the DPs'
private helpers, exact ones as (numerator, denominator) pairs of ints,
and ``_cell`` writes each as ``fmt`` writes its ``Fraction``, float or
None, so the public functions' ``Fraction``s are never made.

Only the model layer is imported with this module. Each handler imports
the layers it calls (``from . import enumeration``) when it runs, so
``validate``, ``--help``, usage errors and model-file errors never import
numpy, and ``count``, ``dist`` and ``table2`` load the DPs alone.
"""

from __future__ import annotations

import functools
import math
import sys
from types import SimpleNamespace

from .errors import (
    BranchDegenerateError,
    LatticePathError,
    NumericalSingularityError,
)
from .model import load_model, validate

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


def _cell(v) -> str:
    """An exact, float or missing value as ``fmt`` spells its ``Fraction``,
    float or None, with no ``Fraction`` made: an exact (numerator,
    denominator) pair as the reduced a/b (a alone when b is 1), a float
    with 12 significant digits, None as -."""
    if type(v) is tuple:
        x, y = v
        g = math.gcd(x, y)
        return f"{x // g}" if y == g else f"{x // g}/{y // g}"
    return "-" if v is None else f"{v:.12g}"


def _value_lines(rows) -> list[str]:
    """One "key<TAB>value" line per (key, value) row, the value a ``_cell``."""
    return [f"{key}\t{_cell(v)}\n" for key, v in rows]


def _cmd_validate(model, args) -> int:
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


def _cmd_classify(model, args) -> int:
    from . import asymptotics

    cls = asymptotics.classify(model)
    _write_rows([
        ("# field", "value"),
        ("criticality", cls.criticality.value),
        ("drift", cls.drift_sign.value),
        ("kind", model.kind().value),
    ])
    return EXIT_OK


def _cmd_constants(model, args) -> int:
    from . import kernel

    sc = kernel.structural_constants(model)
    names = ("tau", "rho", "C", "delta", "delta0geq", "lam", "kappa",
             "rho1", "alpha", "alpha2", "gamma", "E_at_rho", "E_at_1")
    _write_rows([("# constant", "value"), *((name, getattr(sc, name)) for name in names)])
    return EXIT_OK


# names, not function objects: the series is looked up in ``enumeration`` at
# call time, so a wrapper installed there (a tracer, a test double) applies.
# Each names the private helper of a public series, which returns exact
# values as (numerator, denominator) pairs; bench/tracer.py wraps only the
# public names.
_COUNT_SERIES = {
    "excursions": "_excursion_series",
    "meanders": "_meander_mass_series",
    "arches": "_arch_series",
    "bridges": "_bridge_mass_series",
    "returns": "_returns_mean_series",
    "final-alt": "_final_altitude_series",
}


def _cmd_count(model, args) -> int:
    from . import enumeration

    series = getattr(enumeration, _COUNT_SERIES[args.what])(model, args.n, args.mode)
    sys.stdout.write("".join([f"# n\t{args.what}\n", *_value_lines(enumerate(series))]))
    return EXIT_OK


def _cmd_gf_eval(model, args) -> int:
    from . import kernel

    z = args.z
    # one branch solve at z serves every quantity below
    branches = kernel.small_branches(model, z)
    values = kernel.solve_boundary_gfs(model, z, branches)

    def rows():
        yield "# quantity", "value"
        for k, v in enumerate(values):
            yield f"F_{k}", v
        if model.c >= 2:
            yield "F_0_vandermonde", kernel.excursion_gf_vandermonde(model, z, branches)
        yield "E_free", kernel.excursion_gf_bf(model, z, branches)
        yield "perturbation_residual", kernel.perturbation_identity_residual(model, z, branches)

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


def _cmd_asym(model, args) -> int:
    from . import asymptotics, enumeration

    n = args.n
    estimate, exact_value = _ASYM[args.what]
    est = getattr(asymptotics, estimate)(model, n)
    exact = float(getattr(enumeration, exact_value)(model, n, "float"))
    # a float below the smallest normal one has lost its digits, or has
    # underflowed to 0; an exact 0 beside a normal estimate is a length
    # with no such walk
    if est.value < sys.float_info.min or 0 < exact < sys.float_info.min:
        raise NumericalSingularityError(
            f"estimate {est.value:.3g} or exact {exact:.3g} below the smallest normal float")
    _write_rows([("# what", "n", "estimate", "exact", "ratio", "formula"),
                 (args.what, n, est.value, exact, exact / est.value, est.formula_id)])
    return EXIT_OK


def _cmd_dist(model, args) -> int:
    from . import enumeration

    n = args.n
    if args.what == "final-alt":
        masses, mass = enumeration._final_masses(model, n, args.mode)
        lines = [f"# meander_mass\t{_cell(mass)}\n# altitude\tprobability\n"]
        try:  # the mass goes out even when no walk survives
            lines += _value_lines(enumeration._over_survivors(masses, mass, n).items())
        finally:
            sys.stdout.write("".join(lines))
    else:
        law = enumeration._returns_law(model, n, args.mode)
        sys.stdout.write("".join(["# returns\tprobability\n", *_value_lines(law.items())]))
    return EXIT_OK


def _cmd_fit(model, args) -> int:
    from . import laws

    statistic = laws.Statistic(args.what)
    report = laws.fit(model, statistic, args.n, mode=args.mode, tolerance=args.tolerance)
    rows = [
        ("# statistic", "n", "law", "normalization", "sup_distance", "passed"),
        (statistic.value, report.n, report.law.family, report.law.normalization,
         report.sup_distance, report.passed),
    ]
    if args.plot:
        rows += [("# x", "exact_cdf", "law_cdf"), *report.curve]
    _write_rows(rows)
    return EXIT_OK


def _cmd_table2(model, args) -> int:
    from . import enumeration

    n = 4
    paths = enumeration.bridge_paths(model, n)
    rules = list(enumeration.BoundaryRule)

    lines = ["\t".join(["# path", *(rule.value for rule in rules)]) + "\n"]
    try:
        # one column per rule, each from one tally lookup
        columns = [enumeration._path_probabilities(rule, model, paths) for rule in rules]
        for path, *probs in zip(paths, *columns):
            lines.append("\t".join([" ".join(map(str, path)), *map(_cell, probs)]) + "\n")
    finally:
        sys.stdout.write("".join(lines))
    return EXIT_OK


def _cmd_verify(model, args) -> int:
    from . import verify

    failed = []

    def rows():
        for name, passed, detail in verify.run_verification(model):
            if passed:
                yield "PASS", name
            else:
                failed.append(name)
                yield "FAIL", name, detail

    _write_rows(rows())
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def non_negative_float(text: str) -> float:
    """``float(text)`` if it is a number >= 0; anything else raises
    ValueError, which argparse reports as a usage error."""
    value = float(text)
    if not value >= 0:  # NaN too
        raise ValueError(f"not a number >= 0: {text!r}")
    return value


_N = ("--n", {"type": int, "required": True})
_LAWS = ("--what", {"choices": ["final-alt", "returns"], "required": True})
_EXACT = ("--exact", {"dest": "mode", "action": "store_const", "const": "exact",
                      "default": "float"})

# The command-line grammar, declared once: each subcommand's handler, its
# help and its options, each option as its ``add_argument`` keywords, in
# the order the help lists them. Every subcommand also takes one model path.
# ``build_parser`` builds argparse from it, and ``_read_argv`` reads a
# well-formed command line straight off it.
COMMANDS = {
    "validate": (_cmd_validate, "check the model invariants and report", ()),
    "classify": (_cmd_classify, "criticality, drift sign and model kind", ()),
    "constants": (_cmd_constants, "structural constants, one per line", ()),
    "count": (_cmd_count, "exact or float series of a counting statistic", (
        _N, ("--what", {"choices": sorted(_COUNT_SERIES), "required": True}), _EXACT)),
    "gf-eval": (_cmd_gf_eval, "evaluate the generating functions at z", (
        ("--z", {"type": float, "required": True}),)),
    "asym": (_cmd_asym, "asymptotic estimate vs the exact value", (
        _N, ("--what", {"choices": list(_ASYM), "required": True}))),
    "dist": (_cmd_dist, "full distribution of a statistic at length n", (_N, _LAWS, _EXACT)),
    "fit": (_cmd_fit, "Kolmogorov fit of the exact distribution vs its limit law", (
        _N, _LAWS, _EXACT, ("--tolerance", {"type": non_negative_float, "default": 0.05}),
        ("--plot", {"action": "store_true", "help": "also emit CDF plot data"}))),
    "table2": (_cmd_table2, "length-4 table under the four boundary rules", ()),
    "verify": (_cmd_verify, "run the invariant suite on the model", ()),
}


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser():
    """The argparse parser of ``COMMANDS``: the source of every help text
    and usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="latticepaths",
        description="Exact and asymptotic statistics of boundary walk models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a model file")
        p.set_defaults(handler=handler)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


# the add_argument keywords and actions ``_read_argv`` knows; an option
# with any other falls back to argparse
_KEYWORDS = frozenset({"type", "choices", "required", "action", "const", "dest", "default",
                       "help"})
_ACTIONS = ("store", "store_const", "store_true")


def _read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read
    straight off ``COMMANDS``, or None where argv is not of the one shape
    read here: the subcommand first; options spelled in full, each at most
    once, a value (not starting with ``-``) converted by the option's type
    and held by its choices; one model path; every required option given.
    argparse parses, or reports, whatever else."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, options = COMMANDS[argv[0]]
    args = {"command": argv[0], "handler": handler}
    spec = {}
    for flag, keywords in options:
        action = keywords.get("action", "store")
        default = keywords.get("default", False if action == "store_true" else None)
        if (not keywords.keys() <= _KEYWORDS or action not in _ACTIONS
                or (isinstance(default, str) and "type" in keywords)):
            return None
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        spec[flag] = dest, action, keywords
        args.setdefault(dest, default)
    models = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            models.append(token)
            continue
        if token not in spec:  # help, an abbreviation, --n=5, --, a repeat
            return None
        dest, action, keywords = spec.pop(token)
        if action != "store":
            args[dest] = keywords.get("const", True)
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        try:
            value = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    if len(models) != 1 or any(keywords.get("required") for _, _, keywords in spec.values()):
        return None
    args["model"] = models[0]
    return SimpleNamespace(**args)


def run(argv: list[str]) -> int:
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.handler(load_model(args.model), args)
    except (BranchDegenerateError, NumericalSingularityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (LatticePathError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
