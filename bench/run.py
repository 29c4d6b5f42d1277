"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload exact-series --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` in
this one process, with numpy/BLAS capped at one thread, and driven as a
closed loop: each operation starts when the previous one returns. A pass
runs the workload's fixed operation list once, each pass in a fresh seeded
order. A run makes a fixed number of passes, ``--seconds`` divided by the
seconds PASS_SECONDS allots to one of the workload's passes, so parent and
change are measured over the same number of passes however fast the code is. Outputs
are checked after each pass, outside the timed region.

On a shared host, interference from other tenants changes the speed of the
processor by a third or more, in stretches from a fraction of a second to
minutes, and slows process time as much as wall time. So the benchmark
follows the host's speed: between operations, at least every REF_EVERY_S
of operation time, it times a fixed reference computation that does not use
the package (``reference_work``). Each operation's time is scaled to
*reference speed*, the speed of a host on which that computation takes
REF_NOMINAL_S: it is multiplied by REF_NOMINAL_S over the median of the
reference timings taken within REF_WINDOW_S of the operation (within the
operation's own duration, if that is longer). A program that is slower or
faster reads slower or faster by the same factor; only the host's speed
drops out. The one exception is an operation marked ``scale=False`` in
``workloads.py`` (the n = 60000 float DP, which runs for seconds on large
arrays): the short reference follows its speed worse than its own time
averages the host, so its time is kept as measured. The raw wall-clock
figures are in the details line.

With ``--trace 0`` the run reports the end-to-end metrics, all times at
reference speed. ``setup_s`` is the median time of SETUP_SAMPLES fresh
interpreters, sampled in groups spread over the run, each scaled by the
reference timings just before and after it. Each operation's latency is
its median over the run's passes: ``op_p50_ms`` is the median over
operations, ``op_tail_ms`` the latency at the highest percentile with at
least 10 operations beyond it, and ``wall_s`` the time to finish the
operation list, the sum of the operations' latencies.

With ``--trace 1`` untraced and traced passes alternate and only the
per-layer metrics are reported; they come from the traced passes in raw
wall-clock time, and ``trace.overhead_s`` is the difference between the
median traced and untraced pass at reference speed. The last line of stdout
is the result object; the line before it holds the run's details (failed
operations, tail percentile, raw timings, versions, seed).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import collections
import contextlib
import gc
import io
import json
import math
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 15
SETUP_GROUPS = 5
# Seconds of ``--seconds`` allotted to each untraced pass. They fix how many
# passes a run makes; the passes' measured length never does. A
# float-large-n pass takes 12-16 s at the seed commit, so its run goes
# past ``--seconds`` to make three passes, enough for a median.
PASS_SECONDS = {"exact-series": 5.0, "float-large-n": 10.0, "kernel-sweep": 0.4}
# The host-speed reference: timed at least every REF_EVERY_S of operation
# time, each timing the fastest of REF_REPEATS runs; an operation is scaled
# by the median timing within REF_WINDOW_S of it, to a host on which the
# reference takes REF_NOMINAL_S, a round figure a little under its time on
# the 2-core host the benchmark was defined on (0.3-0.5 ms there). An
# operation longer than REF_WINDOW_S is scaled by the timings within its
# own duration of it.
REF_EVERY_S = 0.02
REF_REPEATS = 3
REF_WINDOW_S = 0.25
REF_NOMINAL_S = 2.5e-4
# A run far slower than nominal stops after the pass that crosses this, so
# that it still exits within the time a run is allowed.
HARD_STOP_S = 140.0
SETUP_MODEL = "models/motzkin_reflection.model"
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import latticepaths; "
    "from latticepaths import cli; latticepaths.load_model(sys.argv[1]); "
    "sys.exit(cli.run(['validate', sys.argv[1]]))"
)

# Outputs the package is known to get wrong, each with the shape of the
# reason its check gives. They still count as failed operations and are named
# in the run's details; `correct` turns false for any other failure, and for
# one of these operations failing in another way, so that a change breaking
# anything else shows while these stand.
_SUM_OFF = r"probabilities sum to \S+"
_SUP_OFF = r"sup distance \S+ outside \[0, 1\]"
KNOWN_DEFECTS = {
    # the float returns law is built from FFT powers of the raw arch series;
    # round-off swamps the n-th coefficient when excursion masses decay
    # exponentially
    **{f"dist --what returns {model}": _SUM_OFF for model in (
        "critical_drift_down", "drift_up_absorption", "drift_up_reflection",
        "supercritical_drift_down", "two_down_reflection")},
    **{f"fit --what returns {model}": _SUP_OFF for model in (
        "critical_drift_down", "drift_up_absorption", "drift_up_reflection")},
    # float DPs carry raw masses, which go subnormal and then to 0
    "asym --n 8000 --what excursions critical_drift_down": r"ratio None at n=8000 vs \S+ at n=2000",
    "asym --n 60000 --what final-alt supercritical_drift_down":
        r"ratio \S+ at n=60000 vs \S+ at n=2000",
}


_REF_ARRAY = np.linspace(0.0, 1.0, 3000)


def reference_work():
    """A fixed mix of the interpreter's integer and Fraction arithmetic and
    short numpy steps on a vector of a few thousand floats, like the
    package's exact and float DPs; it does not touch the package."""
    acc = 0
    for i in range(1, 300):
        acc = (acc * 31 + i * i) % 1000003
    x = Fraction(1, 3)
    for i in range(1, 30):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    a = _REF_ARRAY
    for _ in range(12):
        b = np.zeros_like(a)
        b[1:] += 0.5 * a[:-1]
        b[:-1] += 0.5 * a[1:]
        a = b / b.sum()
    return acc, x, a


def time_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()  # the package's garbage must not slow the reference
    try:
        best = math.inf
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def known_defect(name: str, reason: str) -> bool:
    shape = KNOWN_DEFECTS.get(name)
    return shape is not None and re.fullmatch(shape, reason) is not None


def import_package():
    src = ROOT / "src"
    if not (src / "latticepaths").is_dir():
        raise ImportError(f"no package under {src}")
    sys.path.insert(0, str(src))
    import latticepaths
    import latticepaths.cli  # noqa: F401
    return latticepaths


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """Wall times of fresh interpreters importing the package, loading a model
    and running ``validate``: each as measured and at reference speed, from
    the reference timings just before and after it."""
    times = []
    for _ in range(samples):
        before = time_reference()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SETUP_MODEL], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        seconds = time.perf_counter() - t0
        reference = (before + time_reference()) / 2
        times.append((seconds, seconds * REF_NOMINAL_S / reference))
        if proc.returncode != 0 or "ok\ttrue" not in proc.stdout:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def setup_schedule(passes: int) -> collections.Counter:
    """Set-up samples to take before each pass (index ``passes`` is after the
    last): SETUP_GROUPS equal groups spread evenly over the run."""
    at = collections.Counter()
    for g in range(SETUP_GROUPS):
        at[round(g * passes / (SETUP_GROUPS - 1))] += SETUP_SAMPLES // SETUP_GROUPS
    return at


def planned_passes(workload: str, seconds: float, trace: bool) -> int:
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    # a traced run pairs every untraced pass with a traced one
    return max(2, passes + passes % 2) if trace else passes


def execute(op, lp) -> workloads.Result:
    res = workloads.Result(op=op, seconds=0.0)
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                res.rc = lp.cli.run(op.argv)
            except SystemExit as exc:  # argparse rejects the command line
                res.rc = exc.code
            except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
                res.exc = exc
        res.seconds = time.perf_counter() - t0
        res.out, res.err = out.getvalue(), err.getvalue()
    else:
        t0 = time.perf_counter()
        try:
            res.value = op.call()
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            res.exc = exc
        res.seconds = time.perf_counter() - t0
    return res


def verdict(res, by_key) -> str | None:
    if res.exc is not None:
        return "raised " + "".join(traceback.format_exception_only(type(res.exc), res.exc)).strip()
    try:
        return res.op.check(res, by_key)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the operation
        return f"output could not be checked: {type(exc).__name__}: {exc}"


def local_reference(marks, start: float, end: float) -> float:
    """Median reference timing within REF_WINDOW_S of an operation, or within
    its own duration if that is longer, always including the timings just
    before and just after it."""
    times = [t for t, _ in marks]
    window = max(REF_WINDOW_S, end - start)
    before = bisect.bisect_right(times, start) - 1
    after = bisect.bisect_left(times, end)
    lo = min(before, bisect.bisect_left(times, start - window))
    hi = max(after, bisect.bisect_right(times, end + window) - 1)
    return statistics.median(r for _, r in marks[lo:hi + 1])


def run_pass(ops, lp, rng, tracer=None):
    """Run the operations once in a seeded order, timing the reference before,
    between and after them, and set each result's time at reference speed."""
    order = ops[:]
    rng.shuffle(order)
    marks = [(time.perf_counter(), time_reference())]
    results, spans = [], []
    since_mark = 0.0
    if tracer is not None:
        tracer.install(lp)
    try:
        for op in order:
            start = time.perf_counter()
            res = execute(op, lp)
            results.append(res)
            spans.append((start, time.perf_counter()))
            since_mark += res.seconds
            if since_mark >= REF_EVERY_S:
                marks.append((time.perf_counter(), time_reference()))
                since_mark = 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    marks.append((time.perf_counter(), time_reference()))
    for res, (start, end) in zip(results, spans):
        res.scaled = (res.seconds * REF_NOMINAL_S / local_reference(marks, start, end)
                      if res.op.scale else res.seconds)
    by_key = {r.op.key: r for r in results}
    failures = [(r, reason) for r in results if (reason := verdict(r, by_key)) is not None]
    return results, failures, [r for _, r in marks]


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies_ms)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; do not let git search parent directories
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def layer_metrics(summaries, stdout_bytes, overhead) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures, each the smallest over the traced passes (the
    counts are the same in every pass)."""
    def least(layer, field):
        return min(s.get(layer, {}).get(field, 0) for s in summaries)

    def rate(layer):
        busy = least(layer, "self_s")
        return least(layer, "work") / busy if busy > 0 else 0.0

    def errors(group):
        return min(sum(row["errors"] for layer, row in s.items()
                       if layer.split(".")[0] == group) for s in summaries)

    sb_calls = least("kernel.small_branches", "calls")
    return {
        "model.self_s": (least("model", "self_s"), "s"),
        "enumeration.exact_dp.self_s": (least("enumeration.exact_dp", "self_s"), "s"),
        "enumeration.exact_dp.steps_per_s": (rate("enumeration.exact_dp"), "1/s"),
        "enumeration.float_dp.self_s": (least("enumeration.float_dp", "self_s"), "s"),
        "enumeration.float_dp.steps_per_s": (rate("enumeration.float_dp"), "1/s"),
        "enumeration.returns_fft.self_s": (least("enumeration.returns_fft", "self_s"), "s"),
        "enumeration.moments.self_s": (least("enumeration.moments", "self_s"), "s"),
        "enumeration.oracle.self_s": (least("enumeration.oracle", "self_s"), "s"),
        "enumeration.oracle.paths_per_s": (rate("enumeration.oracle"), "1/s"),
        "enumeration.errors": (errors("enumeration"), "count"),
        "kernel.errors": (errors("kernel"), "count"),
        "kernel.small_branches.calls": (sb_calls, "count"),
        "kernel.small_branches.us_per_call": (
            1e6 * least("kernel.small_branches", "self_s") / sb_calls if sb_calls else 0.0, "us"),
        "kernel.boundary_gf.self_s": (least("kernel.boundary_gf", "self_s"), "s"),
        "kernel.structural_constants.calls": (least("kernel.structural_constants", "calls"), "count"),
        "kernel.structural_constants.self_s": (least("kernel.structural_constants", "self_s"), "s"),
        "asymptotics.self_s": (least("asymptotics", "self_s"), "s"),
        "laws.self_s": (least("laws", "self_s"), "s"),
        "verify.self_s": (least("verify", "self_s"), "s"),
        "cli.self_s": (least("cli", "self_s"), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "trace.overhead_s": (overhead, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (self-test only)")
    args = parser.parse_args(argv)

    try:
        lp = import_package()
    except ImportError as exc:
        print(f"cannot import the package from src/: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    scratch = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(lp=lp, root=ROOT, scratch=scratch, tiny=args.tiny)
    ops = workloads.WORKLOADS[args.workload](ctx, rng)
    if len({op.key for op in ops}) != len(ops):
        raise ValueError(f"{args.workload}: operation keys are not unique")

    passes = planned_passes(args.workload, args.seconds, bool(args.trace))
    schedule = collections.Counter() if args.trace else setup_schedule(passes)
    if not args.trace:
        measure_setup(1)  # untimed warm-up of the interpreter and file caches
    setup: list[tuple[float, float]] = []

    plain_walls, traced_walls, summaries, tracers = [], [], [], []
    raw_walls, references = [], []
    scaled: dict[tuple, list[float]] = collections.defaultdict(list)
    attempted = failed = 0
    failures: dict[str, str] = {}
    unexpected: set[str] = set()
    stdout_bytes = 0
    start = time.perf_counter()
    for index in range(passes):
        setup += measure_setup(schedule[index])
        traced = bool(args.trace) and index % 2 == 1
        tracer = tracing.Tracer() if traced else None
        results, failing, marks = run_pass(ops, lp, rng, tracer)
        references += marks
        attempted += len(results)
        failed += len(failing)
        for res, reason in failing:
            failures.setdefault(res.op.name, reason)
            if not known_defect(res.op.name, reason):
                unexpected.add(res.op.name)
                failures[res.op.name] = reason
        wall = sum(r.scaled for r in results)
        if traced:
            traced_walls.append(wall)
            summaries.append(tracer.summary())
            tracers.append(tracer)
            stdout_bytes = sum(len(r.out.encode()) for r in results)
        else:
            plain_walls.append(wall)
            raw_walls.append(sum(r.seconds for r in results))
            for r in results:
                scaled[r.op.key].append(r.scaled)
        paired = not args.trace or traced
        if paired and time.perf_counter() - start > HARD_STOP_S:
            break
    if not args.trace:
        setup += measure_setup(SETUP_SAMPLES - len(setup))  # the group after the last pass

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
        metrics = layer_metrics(summaries, stdout_bytes, overhead)
        spans_path = scratch / "spans.tsv"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(tracing.SPAN_HEADER)
            for number, t in enumerate(tracers):
                t.write(fh, number)
    else:
        latencies = [1e3 * statistics.median(times) for times in scaled.values()]
        tail_ms, tail_pct = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(scaled_s for _, scaled_s in setup), "s"),
            "wall_s": (sum(latencies) / 1e3, "s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain_walls) + len(traced_walls),
        "passes_planned": passes,
        "ops_per_pass": len(ops),
        "failed_share": failed / attempted,
        "failed_ops": failures,
        "unexpected_failures": sorted(unexpected),
    }
    if args.trace:
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        detail.update(op_tail_percentile=tail_pct, op_samples=len(latencies),
                      setup_samples_s=[raw for raw, _ in setup], pass_walls_s=plain_walls,
                      raw_pass_walls_s=raw_walls,
                      reference_quartiles_s=statistics.quantiles(references, n=4),
                      reference_timings=len(references))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
