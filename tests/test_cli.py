"""Command-line driver: output format, determinism and exit codes."""

import subprocess
import sys
from pathlib import Path

import pytest

from latticepaths import enumeration, laws
from latticepaths.cli import fmt, run
from conftest import MODELS_DIR

DYCK = str(MODELS_DIR / "dyck_reflection.model")
DYCK_ABS = str(MODELS_DIR / "dyck_absorption.model")
MOTZ_R = str(MODELS_DIR / "motzkin_reflection.model")
MOTZ_A = str(MODELS_DIR / "motzkin_absorption.model")
C2 = str(MODELS_DIR / "two_down_reflection.model")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_output(capsys):
    code, out, _ = invoke(capsys, "validate", DYCK)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# field\tvalue"
    assert "ok\ttrue" in lines
    assert "kind\treflection" in lines
    assert "period\t2" in lines


def test_validate_reports_violations(capsys, tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("P: -1:1/2 1:1/3\nP0: 1:1\n")
    code, out, _ = invoke(capsys, "validate", str(p))
    assert code == 0
    assert "ok\tfalse" in out
    assert "violation" in out


def test_missing_file_exits_one(capsys):
    code, _, err = invoke(capsys, "validate", "/nonexistent/path.model")
    assert code == 1
    assert "error" in err


def test_classify_output(capsys):
    code, out, _ = invoke(capsys, "classify", MOTZ_A)
    assert code == 0
    assert "criticality\tsubcritical" in out
    assert "drift\tzero" in out
    assert "kind\tabsorption" in out


def test_classify_periodic_exits_one(capsys):
    code, _, err = invoke(capsys, "classify", DYCK)
    assert code == 1
    assert "period" in err


def test_constants_output(capsys):
    code, out, _ = invoke(capsys, "constants", MOTZ_R)
    assert code == 0
    rows = dict(
        line.split("\t") for line in out.splitlines() if not line.startswith("#")
    )
    assert float(rows["C"]) == pytest.approx(3**0.5, abs=1e-11)
    assert float(rows["kappa"]) == pytest.approx(3**0.5 / 2, abs=1e-11)
    assert rows["alpha"] == "-"


def test_count_exact_matches_brute_force(capsys):
    code, out, _ = invoke(capsys, "count", "--n", "4", "--what", "excursions", "--exact", MOTZ_R)
    assert code == 0
    assert out.splitlines()[0] == "# n\texcursions"
    assert "4\t133/432" in out


def test_count_float_format(capsys):
    code, out, _ = invoke(capsys, "count", "--n", "3", "--what", "meanders", MOTZ_A)
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert rows[0] == ["0", "1"]
    assert float(rows[3][1]) == pytest.approx(13 / 27, abs=1e-9)


def test_count_returns_has_gaps_for_dyck(capsys):
    code, out, _ = invoke(capsys, "count", "--n", "3", "--what", "returns", "--exact", DYCK)
    assert code == 0
    lines = out.splitlines()
    assert "1\t-" in lines  # no excursion of odd length
    assert "2\t1" in lines


def test_gf_eval_output(capsys):
    code, out, _ = invoke(capsys, "gf-eval", "--z", "0.2", MOTZ_R)
    assert code == 0
    rows = dict(
        line.split("\t") for line in out.splitlines() if not line.startswith("#")
    )
    assert float(rows["F_0"]) == pytest.approx(1.1200461887, abs=1e-9)
    assert float(rows["perturbation_residual"]) <= 1e-9


def test_gf_eval_c2_includes_all_boundary_gfs(capsys):
    code, out, _ = invoke(capsys, "gf-eval", "--z", "0.3", C2)
    assert code == 0
    assert "F_1\t" in out
    assert "F_0_vandermonde\t" in out


def test_gf_eval_beyond_rho_exits_two(capsys):
    code, _, err = invoke(capsys, "gf-eval", "--z", "1.5", MOTZ_R)
    assert code == 2
    assert "numerical" in err


def test_fit_zero_variance_exit_code_follows_mode(capsys):
    # at n = 3000 round-off swamps the float returns law (a mass of 446.6 on
    # 2 returns), whose variance comes out <= 0, a numerical failure; at
    # n = 2 every exact excursion has one return, which is the model's own
    # point mass
    drift_down = str(MODELS_DIR / "supercritical_drift_down.model")
    code, _, err = invoke(capsys, "fit", "--n", "3000", "--what", "returns", drift_down)
    assert code == 2
    assert "zero variance" in err
    code, _, err = invoke(capsys, "fit", "--n", "2", "--what", "returns", "--exact", drift_down)
    assert code == 1
    assert "zero variance" in err


def test_asym_output(capsys):
    code, out, _ = invoke(capsys, "asym", "--n", "2000", "--what", "excursions", MOTZ_R)
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[0] == "excursions" and row[1] == "2000"
    assert float(row[4]) == pytest.approx(1.0, abs=0.02)


def test_asym_periodic_exits_one(capsys):
    code, _, _ = invoke(capsys, "asym", "--n", "100", "--what", "excursions", DYCK)
    assert code == 1


def test_dist_output(capsys):
    code, out, _ = invoke(capsys, "dist", "--n", "4", "--what", "returns", "--exact", DYCK)
    assert code == 0
    lines = out.splitlines()
    assert "1\t1/3" in lines and "2\t2/3" in lines


def test_dist_final_alt_reports_mass(capsys):
    code, out, _ = invoke(capsys, "dist", "--n", "2", "--what", "final-alt", "--exact", DYCK_ABS)
    assert code == 0
    assert out.splitlines()[0] == "# meander_mass\t1/2"
    assert "0\t1/2" in out and "2\t1/2" in out


def test_fit_output_and_plot(capsys):
    code, out, _ = invoke(capsys, "fit", "--n", "500", "--what", "final-alt", MOTZ_A)
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[2] == "rayleigh"
    assert float(row[4]) <= 0.05
    assert row[5] == "true"
    code, out, _ = invoke(
        capsys, "fit", "--n", "200", "--what", "final-alt", "--plot", MOTZ_A
    )
    assert code == 0
    assert "# x\texact_cdf\tlaw_cdf" in out


def test_fit_plot_prints_the_measured_rows_from_one_dp(capsys, models, monkeypatch):
    argv = ["fit", "--n", "300", "--what", "final-alt", MOTZ_A]
    _, fit_out, _ = invoke(capsys, *argv)
    calls = []
    dp = laws.meander_distribution
    monkeypatch.setattr(laws, "meander_distribution",
                        lambda *a, **k: calls.append(a) or dp(*a, **k))
    code, out, _ = invoke(capsys, *argv, "--plot")
    assert code == 0
    assert len(calls) == 1
    rows = laws.fit_curve(models["motzkin_absorption"], laws.Statistic.FINAL_ALTITUDE, 300)
    plot = "".join("\t".join(fmt(c) for c in row) + "\n" for row in rows)
    assert out == fit_out + "# x\texact_cdf\tlaw_cdf\n" + plot


def test_table2_dyck(capsys):
    for path in (DYCK, DYCK_ABS):
        code, out, _ = invoke(capsys, "table2", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# path\tuniform\tabsolute-value\treflection\tabsorption"
        assert lines[1] == "1 1 -1 -1\t1/6\t1/3\t1/3\t1/2"
        assert lines[2] == "1 -1 1 -1\t1/6\t2/3\t2/3\t1/2"
        for line in lines[3:]:
            assert line.endswith("\t1/6\t0\t0\t0")
        assert len(lines) == 7


def test_verify_passes(capsys):
    code, out, _ = invoke(capsys, "verify", MOTZ_R)
    assert code == 0
    assert "FAIL" not in out
    assert "PASS\tmodel-valid" in out


def test_verify_catches_invalid_model(capsys, tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("P: -1:1/2 1:1/3\nP0: 1:1\n")
    code, out, _ = invoke(capsys, "verify", str(p))
    assert code == 3
    assert "FAIL\tmodel-valid" in out


def test_output_is_deterministic(capsys):
    _, out1, _ = invoke(capsys, "constants", MOTZ_A)
    _, out2, _ = invoke(capsys, "constants", MOTZ_A)
    assert out1 == out2
    _, out1, _ = invoke(capsys, "dist", "--n", "30", "--what", "final-alt", MOTZ_A)
    _, out2, _ = invoke(capsys, "dist", "--n", "30", "--what", "final-alt", MOTZ_A)
    assert out1 == out2


def fresh_process(*argv):
    """(exit code, stdout, stderr) of the command as the first call of a new
    interpreter, with argparse's usage text wrapped at 80 columns."""
    proc = subprocess.run(
        [sys.executable, "-m", "latticepaths.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
             "PATH": "/usr/bin:/bin", "COLUMNS": "80"},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point():
    code, out, _ = fresh_process("validate", DYCK)
    assert code == 0
    assert "ok\ttrue" in out


def test_repeated_commands_match_a_fresh_process(capsys, monkeypatch):
    # the parser is built once per process: a parse, a parse error and the
    # usage text on stderr must not depend on the calls made before
    monkeypatch.setenv("COLUMNS", "80")
    commands = [
        ("count", "--n", "12", "--what", "excursions", "--exact", MOTZ_R),
        ("count", "--n", "12", "--what", "excursions", MOTZ_R),
        ("count", "--n", "x", "--what", "excursions", MOTZ_R),
    ]
    expected = [fresh_process(*argv) for argv in commands]
    assert expected[2][0] == 2 and "usage: latticepaths count" in expected[2][2]
    for _ in range(2):
        for argv, want in zip(commands, expected):
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == want


def test_table2_bridge_tally_keeps_models_apart(capsys):
    # each pair shares P and differs in P0, on which the folded
    # (absolute-value) bridges depend; the Motzkin pair's tables differ
    paths = (DYCK, DYCK_ABS, MOTZ_R, MOTZ_A)
    uncached = {}
    for path in paths:
        enumeration._bridge_tally.cache_clear()
        uncached[path] = invoke(capsys, "table2", path)
    assert uncached[MOTZ_R] != uncached[MOTZ_A]
    enumeration._bridge_tally.cache_clear()
    for path in paths + paths:
        assert invoke(capsys, "table2", path) == uncached[path]
