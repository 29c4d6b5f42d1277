"""Span tracer applied from outside the package, for the traced run only.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
wrapper that records a span, both in its defining module and in every
``latticepaths`` module that imported it by name, so that no call escapes.
``uninstall`` puts the originals back. Spans stay in memory; ``write`` dumps
them at the end of the run.

A span's self time is its duration minus the time covered by its child
spans. Work counts come from the call arguments and returned objects: steps
are the ``n`` argument of each DP entry, paths the items each oracle
generator yields. A span "enters" a layer when its parent span belongs to
another layer; calls, steps and errors are counted at entries only, so a DP
function calling another DP function counts once. Yielded paths are counted
for every generator, as no generator re-yields another's paths.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

DP_FUNCTIONS = (
    "meander_distribution", "excursion_series", "excursion_mass", "meander_mass_series",
    "meander_mass", "final_altitude_expectation", "final_altitude_series",
    "bridge_and_walk_mass", "bridge_mass_series", "arch_series", "arch_mass",
    "returns_to_zero_distribution", "returns_moments", "returns_mean_series",
)
LAYERS = {
    "model": {"model": ("load_model", "parse_model", "validate")},
    "enumeration.oracle": {"enumeration": ("brute_force", "enumerate_meander_paths",
                                           "enumerate_walk_paths", "path_probability",
                                           "bridge_paths")},
    "kernel.small_branches": {"kernel": ("small_branches", "small_branch_u1")},
    "kernel.boundary_gf": {"kernel": ("solve_boundary_gfs", "excursion_gf", "excursion_gf_bf",
                                      "excursion_gf_vandermonde", "perturbation_identity_residual")},
    "kernel.structural_constants": {"kernel": ("structural_constants",)},
    "asymptotics": {"asymptotics": ("classify", "excursion_asymptotic", "arch_asymptotic",
                                    "meander_ratio_asymptotic", "final_altitude_asymptotic")},
    "laws": {"laws": ("fit", "fit_curve", "returns_law", "final_altitude_law",
                      "kolmogorov_distance")},
    "verify": {"verify": ("run_verification",)},
    "cli": {"cli": ("run",)},
}
SPAN_HEADER = "# pass\tid\tparent\tlayer\tstart_s\tduration_s\tself_s\twork\tentry\terror\n"


def dp_layer(name: str, mode: str) -> str:
    """The enumeration layer of one DP call, decided by its arithmetic mode."""
    if mode == "exact":
        return "enumeration.exact_dp"
    if name == "returns_to_zero_distribution":
        return "enumeration.returns_fft"
    if name in ("returns_moments", "returns_mean_series"):
        return "enumeration.moments"
    return "enumeration.float_dp"


class _Span:
    __slots__ = ("layer", "parent", "start", "duration", "child", "work", "entry", "error",
                 "generator")

    def __init__(self, layer, parent, entry, work, generator):
        self.layer = layer
        self.parent = parent
        self.entry = entry
        self.work = work
        self.generator = generator
        self.start = _perf()
        self.duration = 0.0
        self.child = 0.0
        self.error = False


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, layer, work, generator=False):
        parent = self._stack[-1] if self._stack else None
        span = _Span(layer, parent, parent is None or parent.layer != layer, work, generator)
        self.spans.append(span)
        return span

    def _close(self, span, elapsed, failed):
        span.duration += elapsed
        if failed and span.entry:
            group = span.layer.split(".")[0]
            span.error = span.parent is None or span.parent.layer.split(".")[0] != group
        if self._stack:
            self._stack[-1].child += elapsed

    def _function(self, fn, layer_of, work_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer_of(args, kwargs), work_of(args, kwargs))
            self._stack.append(span)
            failed = True
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = _perf() - t0
                self._stack.pop()
                self._close(span, elapsed, failed)
        return wrapper

    def _generator(self, fn, layer):
        # a generator's span covers only the time spent inside next(); the
        # consumer's work between items belongs to whoever consumes
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, 0, generator=True)
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    self._stack.append(span)
                    failed = True
                    t0 = _perf()
                    try:
                        item = next(inner)
                        failed = False
                    except StopIteration:
                        failed = False
                        return
                    finally:
                        elapsed = _perf() - t0
                        self._stack.pop()
                        self._close(span, elapsed, failed)
                    span.work += 1
                    yield item
            return items()
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, lp) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "latticepaths" or name.startswith("latticepaths."))]
        wrapped = {}
        for layer, where in LAYERS.items():
            for module_name, names in where.items():
                module = getattr(lp, module_name)
                for name in names:
                    fn = getattr(module, name)
                    if inspect.isgeneratorfunction(fn):
                        wrapped[fn] = self._generator(fn, layer)
                    else:
                        wrapped[fn] = self._function(fn, lambda a, k, layer=layer: layer,
                                                     lambda a, k: 0)
        for name in DP_FUNCTIONS:
            fn = getattr(lp.enumeration, name)
            mode_of = _argument(fn, "mode")
            n_of = _argument(fn, "n")
            wrapped[fn] = self._function(
                fn, lambda a, k, name=name, mode_of=mode_of: dp_layer(name, mode_of(a, k)), n_of)
        wrapped[lp.enumeration.step] = self._function(
            lp.enumeration.step, lambda a, k: "enumeration.exact_dp", lambda a, k: 1)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: self time, entries, work and errors out of the layer."""
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0, "errors": 0})
        for span in self.spans:
            row = out[span.layer]
            row["self_s"] += span.duration - span.child
            if span.entry:
                row["calls"] += 1
            if span.entry or span.generator:  # every yielded path is work
                row["work"] += span.work
            row["errors"] += span.error
        return dict(out)

    def write(self, fh, number: int) -> None:
        """Append this tracer's spans as TSV rows tagged with pass ``number``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        for i, s in enumerate(self.spans):
            parent = index[id(s.parent)] if s.parent is not None else -1
            fh.write(f"{number}\t{i}\t{parent}\t{s.layer}\t{s.start:.9f}\t{s.duration:.9f}\t"
                     f"{s.duration - s.child:.9f}\t{s.work}\t{int(s.entry)}\t{int(s.error)}\n")


def _argument(fn, name):
    """A getter for one argument of ``fn`` from (args, kwargs), default included."""
    params = list(inspect.signature(fn).parameters.values())
    position = [p.name for p in params].index(name)
    default = params[position].default

    def get(args, kwargs):
        if len(args) > position:
            return args[position]
        return kwargs.get(name, default)
    return get
