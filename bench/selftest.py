"""Self-test of the benchmark harness, not of the package.

    python3 bench/selftest.py

Run from the root of a checkout. It checks that

- a tiny-size run of every workload emits exactly the metrics named in
  ``BENCHMARK.json``, each with its unit, untraced and traced;
- the checker flags deliberately corrupted output rows as failed operations
  and passes the same outputs uncorrupted;
- a known defect is excused only when it fails in its known way;
- the benchmark exits non-zero without printing a result in a directory
  that holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run
import workloads

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics_emitted() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = tiny_run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            assert isinstance(result["failed"], int)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {got} != {want}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload} trace {trace}: {len(got)} metrics with units")


def corrupt(res: workloads.Result, row: int, replace) -> workloads.Result:
    lines = res.out.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    cells = lines[data[row]].split("\t")
    cells[-1] = replace(cells[-1])
    lines[data[row]] = "\t".join(cells)
    return workloads.Result(op=res.op, seconds=res.seconds, rc=res.rc, out="\n".join(lines) + "\n")


def check_checker_flags_corruption() -> None:
    lp = run.import_package()
    scratch = run.OUT_DIR / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(lp=lp, root=ROOT, scratch=scratch, tiny=True)
    ops = {op.key: op for op in workloads.exact_series(ctx, random.Random(7))
           + workloads.float_large_n(ctx, random.Random(7))}
    model = "motzkin_absorption"
    keys = [("count", model, "excursions", True), ("count", model, "meanders", True),
            ("dist", model, "returns", True), ("dist", model, "final-alt", False),
            ("table2", model)]
    results = {key: run.execute(ops[key], lp) for key in ops if key[:2] == keys[0][:2] or key in keys}
    cases = [
        (keys[0], 3, lambda v: str(Fraction(v) + Fraction("1/7"))),
        (keys[1], -1, lambda v: str(Fraction(v) * 2)),
        (keys[2], 0, lambda v: "0"),
        (keys[3], 0, lambda v: repr(-float(v))),
        (keys[4], 1, lambda v: "1/2"),
    ]
    for key, row, replace in cases:
        res = results[key]
        clean = run.verdict(res, results)
        assert clean is None, f"{key}: clean output flagged: {clean}"
        bad = corrupt(res, row, replace)
        reason = run.verdict(bad, {**results, key: bad})
        assert reason is not None, f"{key}: corrupted row not flagged"
        print(f"ok  corrupted {' '.join(map(str, key[:3]))} flagged: {reason}")


def check_known_defects_by_shape() -> None:
    name = "dist --what returns critical_drift_down"
    assert run.known_defect(name, "probabilities sum to 7.95397749607e+74")
    for reason in ("raised ZeroDivisionError: division by zero", "exit code 1",
                   "negative or missing probability"):
        assert not run.known_defect(name, reason), reason
    assert not run.known_defect("dist --what returns dyck_reflection", "probabilities sum to 2.0")
    asym = "asym --n 60000 --what final-alt supercritical_drift_down"
    assert run.known_defect(asym, "ratio 0.889405240186 at n=60000 vs 0.999999999999 at n=2000")
    assert not run.known_defect(asym, "exit code 1, expected 0 or 2")
    print("ok  known defects excused only in their known shape")


def check_fails_without_package() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = tiny_run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the package"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"
    print(f"ok  exits {proc.returncode} without a result when the package is absent")


if __name__ == "__main__":
    check_checker_flags_corruption()
    check_known_defects_by_shape()
    check_fails_without_package()
    check_metrics_emitted()
    print("self-test passed")
    sys.exit(0)
