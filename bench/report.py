"""One-command benchmark report, steadiness check and single-call figures.

    python3 bench/report.py                        # every workload, seed 1
    python3 bench/report.py --workloads exact-series,kernel-sweep --trace
    python3 bench/report.py --steady 10            # 10 seeds per workload, two sets
    python3 bench/report.py --calls                # single-call timings
    python3 bench/report.py --steady 10 --trace --calls --save bench/baseline.json

Run from the root of a checkout. Each (workload, seed) runs ``bench/run.py``
for ``run_seconds`` of ``BENCHMARK.json`` in its own process, so
``peak_rss_mb`` is per workload. The report prints
every metric by name with its unit and each run's correctness verdict.

``--steady N`` runs N seeds per workload, alternating the seeds between two
sets, and reports for every end-to-end metric the spread of all N runs (the
distance between the first and third quartile as a share of the median)
and whether the runs agree within the metric's bound in ``BENCHMARK.json``:
the spread and the difference between the two sets' medians, either way,
must both stay within it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_TIMEOUT_S = 600


def run_one(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def print_run(run: dict) -> None:
    result, detail = run["result"], run["detail"]
    print(f"== {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"({run['elapsed_s']:.1f} s, {detail['passes']} passes of {detail['ops_per_pass']} ops)")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if not run["trace"]:
        print(f"  {'op_tail percentile':40s} {detail['op_tail_percentile']:>16.4g} % "
              f"of {detail['op_samples']} operations, median of {len(detail['pass_walls_s'])} passes")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':40s} {share:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  correct: {str(result['correct']).lower()}")
    for name, reason in sorted(detail["failed_ops"].items()):
        known = "" if name in detail["unexpected_failures"] else " [known defect]"
        print(f"    FAILED {name}: {reason}{known}")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(runs: list[dict]) -> list[dict]:
    rows = []
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload in WORKLOADS:
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["workload"] == workload]
            if len(values) < 4:
                continue
            set_a, set_b = values[0::2], values[1::2]
            worse = sign * (statistics.median(set_b) - statistics.median(set_a)) / statistics.median(set_a)
            s = spread(values)
            rows.append({
                "metric": name, "workload": workload, "unit": metric["unit"], "bound": bound,
                "median": statistics.median(values), "spread": s, "b_worse_than_a": worse,
                "agree": s <= bound and abs(worse) <= bound,
                "steady": s < bound / 3,
            })
    return rows


def print_steadiness(rows: list[dict]) -> None:
    print(f"{'metric':14s} {'workload':15s} {'median':>12s} {'unit':5s} {'spread':>8s} "
          f"{'B vs A':>8s} {'bound':>6s}  verdict")
    for r in rows:
        verdict = ("agree" if r["agree"] else "DISAGREE") + ("" if r["steady"] else ", spread > bound/3")
        print(f"{r['metric']:14s} {r['workload']:15s} {r['median']:>12.6g} {r['unit']:5s} "
              f"{r['spread']:>8.4f} {r['b_worse_than_a']:>+8.4f} {r['bound']:>6.3f}  {verdict}")


def single_calls() -> dict[str, float]:
    """Median wall time of the single calls the project's state notes quote."""
    sys.path.insert(0, str(ROOT / "src"))
    import latticepaths as lp
    from latticepaths import cli, enumeration as en

    model = lp.load_model(ROOT / "models" / "motzkin_absorption.model")
    path = str(ROOT / "models" / "motzkin_absorption.model")

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["verify", path])

    calls = {
        "excursion_series exact n=500": (lambda: en.excursion_series(model, 500, "exact"), 3),
        "meander_mass_series float n=5000": (lambda: en.meander_mass_series(model, 5000, "float"), 5),
        "returns_to_zero_distribution float n=2000":
            (lambda: en.returns_to_zero_distribution(model, 2000, "float"), 5),
        "returns_moments float n=2000": (lambda: en.returns_moments(model, 2000, "float"), 5),
        "cli verify": (verify, 3),
        "structural_constants": (lambda: lp.structural_constants(model), 201),
    }
    out = {}
    for name, (fn, repeats) in calls.items():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
        print(f"  {name:45s} {out[name]:>12.6g} s  (median of {repeats}, motzkin_absorption)")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="also make a traced run per seed")
    parser.add_argument("--steady", type=int, metavar="N", help="steadiness check over N seeds")
    parser.add_argument("--calls", action="store_true", help="time the single calls")
    parser.add_argument("--save", type=Path, help="write everything measured as JSON")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    saved: dict = {"spec_run_seconds": SPEC["run_seconds"]}
    if args.calls:
        saved["single_calls_s"] = single_calls()
    seeds = list(range(1, args.steady + 1)) if args.steady else [1]
    runs = []
    if not args.calls or args.steady:
        for seed in seeds:
            for workload in workloads:
                # a steadiness check traces only its first seed
                traced = args.trace and (not args.steady or seed == seeds[0])
                for trace in (0, 1) if traced else (0,):
                    run = run_one(workload, seed, trace)
                    runs.append(run)
                    print_run(run)
                    sys.stdout.flush()
    saved["runs"] = runs
    if args.steady:
        rows = steadiness([r for r in runs if not r["trace"]])
        print_steadiness(rows)
        saved["steadiness"] = rows
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    wrong = [f"{r['workload']} seed {r['seed']}" for r in runs if not r["result"]["correct"]]
    if wrong:
        print(f"incorrect outputs in: {', '.join(wrong)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
