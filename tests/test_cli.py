"""Command-line driver: output format, determinism and exit codes."""

import dataclasses
import hashlib
import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from latticepaths import enumeration, kernel, laws
from latticepaths.cli import _write_rows, fmt, run
from latticepaths.errors import LatticePathError, NumericalSingularityError
from latticepaths.model import load_model, validate
from latticepaths.verify import run_verification
from conftest import MODEL_NAMES, MODELS_DIR, NEAR_CRITICAL_MODEL

DYCK = str(MODELS_DIR / "dyck_reflection.model")
DYCK_ABS = str(MODELS_DIR / "dyck_absorption.model")
MOTZ_R = str(MODELS_DIR / "motzkin_reflection.model")
MOTZ_A = str(MODELS_DIR / "motzkin_absorption.model")
C2 = str(MODELS_DIR / "two_down_reflection.model")
NEVER_LEAVES_0 = "P0 has no positive jump: the walk never leaves 0"


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
    assert list(rows)[-2:] == ["E_at_rho", "E_at_1"]


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
    # F_0 is the excursion series summed at z; at negative z the c = 1
    # branch is negative
    series = enumeration.excursion_series(load_model(MOTZ_R), 200, "float")
    f0 = {}
    for z in (0.2, -0.2):
        code, out, _ = invoke(capsys, "gf-eval", "--z", str(z), MOTZ_R)
        assert code == 0, z
        rows = dict(
            line.split("\t") for line in out.splitlines() if not line.startswith("#")
        )
        f0[z] = float(rows["F_0"])
        assert f0[z] == pytest.approx(sum(e * z**t for t, e in enumerate(series)), abs=1e-9), z
        assert float(rows["perturbation_residual"]) <= 1e-9, z
    assert f0[0.2] == pytest.approx(1.1200461887, abs=1e-9)


def test_gf_eval_c2_includes_all_boundary_gfs(capsys):
    code, out, _ = invoke(capsys, "gf-eval", "--z", "0.3", C2)
    assert code == 0
    assert "F_1\t" in out
    assert "F_0_vandermonde\t" in out


def test_gf_eval_beyond_rho_exits_two(capsys):
    code, _, err = invoke(capsys, "gf-eval", "--z", "1.5", MOTZ_R)
    assert code == 2
    assert "numerical" in err


def test_gf_eval_far_beyond_rho_says_the_branches_collide(capsys):
    code, out, err = invoke(capsys, "gf-eval", "--z", "1e200", MOTZ_R)
    assert (code, out) == (2, "")
    assert "collide" in err and "Traceback" not in err


def test_fit_zero_variance_exit_code_follows_mode(capsys):
    # at n = 2 every excursion has one return: in exact mode that is the
    # model's own point mass, a model error, while in float mode a variance
    # that comes out <= 0 is taken for a numerical failure
    drift_down = str(MODELS_DIR / "supercritical_drift_down.model")
    code, _, err = invoke(capsys, "fit", "--n", "2", "--what", "returns", drift_down)
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


@pytest.mark.parametrize("name,what,n", [("critical_drift_down", "excursions", 8000),
                                         ("supercritical_drift_down", "final-alt", 60000),
                                         ("drift_up_absorption", "excursions", 8000),
                                         ("drift_up_reflection", "arches", 8000)])
def test_asym_at_large_n_exits_two_or_keeps_its_ratio(capsys, name, what, n):
    # the float masses behind these underflow long before n, the whole walk
    # state on the drift-down models and row 0 alone on the drift-up ones:
    # that must exit 2, never print 0, a subnormal or a drifted ratio
    model = str(MODELS_DIR / f"{name}.model")
    code, out, err = invoke(capsys, "asym", "--n", str(n), "--what", what, model)
    if code == 2:
        assert "numerical" in err
        return
    assert code == 0
    _, ref, _ = invoke(capsys, "asym", "--n", "2000", "--what", what, model)
    ratio, ref_ratio = (lines.splitlines()[1].split("\t")[4] for lines in (out, ref))
    assert float(ratio) == pytest.approx(float(ref_ratio), rel=1e-3)


@pytest.mark.parametrize("name", ["drift_up_absorption", "drift_up_reflection"])
@pytest.mark.parametrize("what", ["excursions", "arches"])
def test_count_series_with_an_underflowed_row_exits_two(capsys, name, what):
    # row 0 falls below the smallest normal float near t = 6120-6146 while
    # the mass above it stays normal; the series must not print subnormal
    # rows and then zeros
    model = str(MODELS_DIR / f"{name}.model")
    code, out, err = invoke(capsys, "count", "--n", "8000", "--what", what, model)
    assert code == 2
    assert out == ""
    assert "underflowed" in err


@pytest.mark.parametrize("name", ["drift_up_absorption", "drift_up_reflection",
                                  "drift_down_reflection", "critical_drift_down",
                                  "two_down_reflection"])
def test_count_bridges_with_an_underflowed_row_exits_two(capsys, name):
    # altitude 0 of the walk on Z falls below the smallest normal float
    # near t = 6190-6860 while the mass around it stays normal (the first
    # three models share their bridges: P and its mirror image); the series
    # must not print subnormal rows and then zeros
    model = str(MODELS_DIR / f"{name}.model")
    code, out, err = invoke(capsys, "count", "--n", "8000", "--what", "bridges", model)
    assert (code, out) == (2, "")
    assert err.startswith("numerical error:") and "underflowed" in err


def test_count_bridges_with_normal_rows_exits_zero(capsys):
    # supercritical_drift_down's bridge masses decay too, but stay normal
    model = str(MODELS_DIR / "supercritical_drift_down.model")
    code, out, err = invoke(capsys, "count", "--n", "8000", "--what", "bridges", model)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 8001
    assert min(float(row.split("\t")[1]) for row in rows) >= np.finfo(float).tiny
    assert rows[-1] == "8000\t1.98888836702e-92"


@pytest.mark.parametrize("name", ["drift_up_absorption", "drift_up_reflection",
                                  "critical_drift_down"])
def test_dist_returns_with_an_underflowed_excursion_mass_exits_two(capsys, name):
    # the float arch walk underflows near t = 6100-6600, and e_n with it:
    # a numerical failure, not a model without excursions of length 8000
    model = str(MODELS_DIR / f"{name}.model")
    code, out, err = invoke(capsys, "dist", "--n", "8000", "--what", "returns", model)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical error:") and "underflowed" in err


@pytest.mark.parametrize("name", ["drift_up_absorption", "critical_drift_down"])
@pytest.mark.parametrize("argv", [("count", "--what", "excursions"), ("dist", "--what", "returns"),
                                  ("asym", "--what", "arches")],
                         ids=lambda argv: argv[0])
def test_row0_readouts_past_the_float_range_exit_two(capsys, name, argv):
    # the float walk behind these reads row 0 only, so it drops the rows
    # above the return horizon; the rows below it underflow before n, on
    # their own or with the whole state, and that still exits 2
    model = str(MODELS_DIR / f"{name}.model")
    code, out, err = invoke(capsys, *argv, "--n", "8000", model)
    assert (code, out) == (2, "")
    assert err.startswith("numerical error:") and err.count("\n") == 1


def test_dist_returns_sums_to_one_on_decaying_excursion_masses(capsys):
    # the excursion masses of this walk decay exponentially, and the nth
    # coefficients of the arch powers with them
    model = str(MODELS_DIR / "drift_up_absorption.model")
    code, out, _ = invoke(capsys, "dist", "--n", "400", "--what", "returns", model)
    assert code == 0
    probs = [float(line.split("\t")[1]) for line in out.splitlines()[1:]]
    assert min(probs) >= 0
    assert sum(probs) == pytest.approx(1.0, rel=0, abs=1e-9)


def test_fit_returns_distance_is_at_most_one_on_decaying_excursion_masses(capsys):
    model = str(MODELS_DIR / "critical_drift_down.model")
    code, out, _ = invoke(capsys, "fit", "--n", "2000", "--what", "returns", model)
    assert code == 0
    assert 0 <= float(out.splitlines()[1].split("\t")[4]) <= 1


def test_dist_returns_without_excursions_exits_one(capsys):
    # a Dyck walk has no excursion of odd length
    code, out, err = invoke(capsys, "dist", "--n", "7", "--what", "returns", DYCK)
    assert code == 1
    assert out == ""
    assert "no excursion of length 7" in err


@pytest.mark.parametrize("name,z", [("two_down_reflection", "1e-100"),
                                    ("two_down_reflection", "1e-110"),
                                    ("two_down_reflection", "1e-155"),
                                    ("two_down_reflection", "1e-200"),
                                    ("motzkin_reflection", "1e-320"),
                                    ("two_down_reflection", "1e-320")])
def test_gf_eval_at_tiny_z_exits_two(capsys, name, z):
    # with c = 2 the companion solve returns the small branches as 0 here
    # (at 1e-320 its matrix overflows, silently), or, from 1e-110 to 1e-200,
    # P's Horner overflows at a large root, where the boundary system gives
    # F_1 = 0 or -1.7e39 for about z/2; with c = 1 at 1e-320 the quadratic's
    # large root is inf and Newton's Horner overflows there; none of it may
    # end in a traceback, a warning, a model error or a number
    model = str(MODELS_DIR / f"{name}.model")
    code, out, err = invoke(capsys, "gf-eval", "--z", z, model)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical error:") and "Traceback" not in err


def test_gf_eval_just_above_the_tiny_z_failures(capsys):
    # at 1e-150 the c = 1 branch is still found, and F_0 and E_free round to 1
    code, out, err = invoke(capsys, "gf-eval", "--z", "1e-150", MOTZ_R)
    rows = dict(line.split("\t") for line in out.splitlines() if not line.startswith("#"))
    assert (code, err, rows["F_0"], rows["E_free"]) == (0, "", "1", "1")


@pytest.mark.parametrize("name,z", [("motzkin_reflection", "1e-155"),
                                    ("motzkin_reflection", "1e-200"),
                                    ("motzkin_reflection", "1e-250"),
                                    ("motzkin_reflection", "1e-300")])
def test_gf_eval_at_tiny_z_where_newton_stops_exits_zero(capsys, name, z):
    # from 1e-155 P's Horner overflows at the large root; Newton stops there
    # instead of stepping to NaN, so the c = 1 branch, z/3 from the
    # quadratic's closed form, is still found and F_0 and E_free round to 1
    model = str(MODELS_DIR / f"{name}.model")
    code, out, err = invoke(capsys, "gf-eval", "--z", z, model)
    rows = dict(line.split("\t") for line in out.splitlines() if not line.startswith("#"))
    assert (code, err, rows["F_0"], rows["E_free"]) == (0, "", "1", "1")


@pytest.mark.xfail(strict=True, reason="ROADMAP J")
@pytest.mark.parametrize("z", ["1e-10", "1e-31"])
def test_gf_eval_c2_at_small_z_is_right_or_exits_two(capsys, z):
    # F_1 = 5.72e-11 for about 5e-11 at 1e-10, F_0 = -1 at 1e-31, both
    # with exit 0; the reference is the exact altitude series to 30 terms
    series = enumeration.altitude_series(load_model(C2), 30, 2)
    code, out, _ = invoke(capsys, "gf-eval", "--z", z, C2)
    if code == 2:
        return
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines() if not line.startswith("#"))
    for k, coeffs in enumerate(series):
        want = float(sum(c * Fraction(float(z)) ** t for t, c in enumerate(coeffs)))
        assert float(rows[f"F_{k}"]) == pytest.approx(want, rel=1e-9), k


@pytest.mark.xfail(strict=True, reason="ROADMAP Q")
def test_constants_c2_pole_is_the_excursion_pole_or_absent(capsys):
    # rho1 1, alpha 1, alpha2 6 and gamma 0.5 with exit 0: the c = 1 root of
    # P0geq(u) = P(u), which every reflecting model has at u = 1; the
    # excursion series' ratio e_n/e_(n+1) is 1.0873780254 at n = 2000
    series = enumeration.excursion_series(load_model(C2), 2001, "float")
    code, out, _ = invoke(capsys, "constants", C2)
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines() if not line.startswith("#"))
    assert rows["rho1"] == "-" or float(rows["rho1"]) == pytest.approx(
        series[2000] / series[2001], abs=1e-6)


@pytest.mark.parametrize("z", ["nan", "inf"])
def test_gf_eval_at_non_finite_z_exits_one(capsys, z):
    # rejected before the companion solve, so no numpy warning is raised
    # (the suite turns one into an error) and no numerical error is claimed
    for model in (MOTZ_R, C2):
        code, out, err = invoke(capsys, "gf-eval", "--z", z, model)
        assert (code, out, err) == (1, "", "error: z must be finite\n")


@pytest.mark.parametrize("what,model", [("returns", MOTZ_R),
                                        ("final-alt", str(MODELS_DIR / "motzkin_absorption.model"))])
@pytest.mark.parametrize("exact", [False, True])
def test_fit_at_n_zero_exits_one(capsys, what, model, exact):
    # the critical normalisation divides by sqrt(2n) and the zero-drift one
    # by sqrt(n): n < 1 is refused before the law is resolved or a DP runs
    argv = ["fit", "--n", "0", "--what", what, model] + (["--exact"] if exact else [])
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: a fit needs n >= 1, got n=0\n"


def test_float_walk_with_no_surviving_mass_exits_one(capsys, tmp_path):
    # an exactly zero float state is a model property, not an underflow
    p = tmp_path / "dead.model"
    p.write_text("P: -1:1/2 1:1/2\nP0: -1:1\n")
    code, _, err = invoke(capsys, "dist", "--n", "10", "--what", "final-alt", str(p))
    assert code == 1
    assert "no surviving mass" in err


def test_asym_periodic_exits_one(capsys):
    code, _, _ = invoke(capsys, "asym", "--n", "100", "--what", "excursions", DYCK)
    assert code == 1


@pytest.mark.parametrize("what", ["excursions", "arches", "meanders", "final-alt"])
def test_asym_at_n_zero_exits_one_after_the_model_gates(capsys, what):
    # the model is refused first: a periodic model names its period and a
    # c = 2 model its down jump, whatever n is
    for model, message in (
        (MOTZ_R, "asymptotic estimates need n >= 1"),
        (DYCK, "step polynomial has period 2; asymptotics need period 1"),
        (C2, "asymptotic formulas cover a single down jump of -1, model has c=2"),
    ):
        code, out, err = invoke(capsys, "asym", "--n", "0", "--what", what, model)
        assert (code, out, err) == (1, "", f"error: {message}\n"), model


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


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_verify_passes(capsys, name):
    code, out, _ = invoke(capsys, "verify", str(MODELS_DIR / f"{name}.model"))
    assert code == 0
    assert "FAIL" not in out
    assert "PASS\tmodel-valid" in out


def test_verify_passes_on_a_just_supercritical_model(capsys, tmp_path):
    # lam = 1 + 2.2e-7, so the trichotomy wants rho1 below rho: it is
    # 1/P(u*), 1e-14 below, too close for the pole constants
    path = tmp_path / "near_critical.model"
    path.write_text(NEAR_CRITICAL_MODEL)
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0
    assert "FAIL" not in out
    assert "PASS\tkernel/criticality-trichotomy" in out.splitlines()
    assert "PASS\tkernel/rho1-is-root" in out.splitlines()


def test_fit_returns_with_an_unresolved_supercritical_pole_exits_two(capsys, tmp_path):
    # lam = 1 + 1e-6: supercritical, but rho1 is within 1e-10*rho of rho, so
    # gamma is None; asym --what excursions exits 2 with the same text
    path = tmp_path / "near_critical.model"
    path.write_text("P: -1:2/5 0:1/2 1:1/10\nP0: -1:10999991/20000000 1:9000009/20000000\n")
    code, out, err = invoke(capsys, "fit", "--n", "200", "--what", "returns", str(path))
    assert (code, out, err) == (2, "", "numerical error: supercritical pole not resolved\n")


# ROADMAP Z's family P0: -1:(1 - q) 1:q with q = (9/20)(1 + s), where
# lam - 1 = s exactly; s = 0 is critical_drift_down
NEAR_CRITICAL_S = [sign * Fraction(1, 10**k) for sign in (1, -1) for k in range(3, 15)]
NEAR_CRITICAL_COMMANDS = [
    ("validate",), ("classify",), ("constants",), ("gf-eval", "--z", "0.5"),
    *(("asym", "--n", "400", "--what", what)
      for what in ("excursions", "arches", "meanders", "final-alt")),
    *(("count", "--n", "200", "--what", what)
      for what in ("excursions", "meanders", "arches", "bridges", "returns", "final-alt")),
    *((name, "--n", "200", "--what", what) for name in ("dist", "fit")
      for what in ("final-alt", "returns")),
]


def _near_critical_model(tmp_path, s):
    q = Fraction(9, 20) * (1 + s)
    path = tmp_path / "near_critical.model"
    path.write_text(f"P: -1:2/5 0:1/2 1:1/10\nP0: -1:{1 - q} 1:{q}\n")
    return str(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", NEAR_CRITICAL_S, ids=lambda s: f"{float(s):+.0e}")
def test_near_critical_family_subcommands_raise_nothing(capsys, tmp_path, s):
    # each answers or exits 1 or 2 with a message; on this family that is
    # 2 where the supercritical pole is not resolved (s = +1e-5 to +1e-8),
    # and 1 from fit --what final-alt, whose limit law is discrete
    path = _near_critical_model(tmp_path, s)
    for argv in NEAR_CRITICAL_COMMANDS:
        code, out, err = invoke(capsys, *argv, path)
        assert code in (0, 1, 2), argv
        assert (code == 0) == (err == ""), argv
        assert "Traceback" not in err, argv


# at s = +1e-7 kernel/rho1-is-root re-solves the branch at rho1, next to
# the branch point rho, and misses its 1e-9 bound (residual 3.2e-9); at
# s = +1e-8 rho1 rounds to rho, which kernel/criticality-trichotomy rejects
# under a supercritical sign
VERIFY_FAILS_NEAR_CRITICAL = {
    Fraction(1, 10**7): "ROADMAP Z step 3: kernel/rho1-is-root",
    Fraction(1, 10**8): "ROADMAP Z step 3: kernel/criticality-trichotomy, rho1 rounds to rho",
}
# lam - 1 = +-1.05e-9, just outside a 1e-9 band on lam and inside the
# kernel's band, which calls both critical; the trichotomy reads that sign
TRICHOTOMY_BAND_S = [sign * Fraction(21, 20 * 10**9) for sign in (1, -1)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [
    pytest.param(s, marks=pytest.mark.xfail(strict=True, reason=VERIFY_FAILS_NEAR_CRITICAL[s]))
    if s in VERIFY_FAILS_NEAR_CRITICAL else s
    for s in NEAR_CRITICAL_S + TRICHOTOMY_BAND_S], ids=lambda s: f"{float(s):+.2e}"
    if s in TRICHOTOMY_BAND_S else f"{float(s):+.0e}")
def test_near_critical_family_verify_exits_zero(capsys, tmp_path, s):
    code, out, _ = invoke(capsys, "verify", _near_critical_model(tmp_path, s))
    assert code == 0, [line for line in out.splitlines() if line.startswith("FAIL")]
    assert "PASS\tkernel/criticality-trichotomy" in out.splitlines()


@pytest.mark.filterwarnings("error")
def test_verify_trichotomy_on_a_zero_drift_model_reads_the_exact_sign(capsys, tmp_path):
    # tau = 1, so the kernel's sign is exact: P0geq(1) - P(1) = -1e-12 is
    # subcritical, and there is no rho1, though lam - 1 is inside 1e-9
    path = tmp_path / "zero_drift.model"
    path.write_text("P: -1:1/3 0:1/3 1:1/3\n"
                    "P0: -1:1/1000000000000 1:999999999999/1000000000000\n")
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0, [line for line in out.splitlines() if line.startswith("FAIL")]
    assert "PASS\tkernel/criticality-trichotomy" in out.splitlines()


@pytest.mark.parametrize("fault", ["no rho1", "flipped sign"])
def test_verify_trichotomy_fails_on_branches_or_sign_that_contradict(
        capsys, monkeypatch, fault):
    # on supercritical_drift_down (lam > 1): a missing rho1 contradicts the
    # supercritical sign, and a subcritical sign contradicts lam
    structural_constants = kernel.structural_constants

    def wrong(model):
        sc = structural_constants(model)
        if fault == "no rho1":
            return dataclasses.replace(sc, rho1=None)
        return dataclasses.replace(sc, sign=-sc.sign)

    monkeypatch.setattr(kernel, "structural_constants", wrong)
    code, out, _ = invoke(capsys, "verify", str(MODELS_DIR / "supercritical_drift_down.model"))
    assert code == 3
    assert any(line.startswith("FAIL\tkernel/criticality-trichotomy\t")
               for line in out.splitlines())


@pytest.mark.parametrize("m", [1, 17, 60])
def test_verify_arch_identity_fails_on_a_perturbed_arch_series(models, monkeypatch, m):
    # the identity e = 1 + A·E is checked on integer numerators: one arch
    # mass moved by 1/D**m, at one length m up to the check's last, fails it
    # there
    model = models["motzkin_absorption"]
    den = enumeration._denominator(model)
    arch_series = enumeration.arch_series

    def perturbed(model, n, mode="exact"):
        series = arch_series(model, n, mode)
        series[m] += Fraction(1, den**m)
        return series

    name = "identity/excursions-are-arch-sequences"
    assert (name, True, "") in list(run_verification(model))
    monkeypatch.setattr(enumeration, "arch_series", perturbed)
    assert (name, False, f"n={m}") in list(run_verification(model))


def test_verify_kernel_check_names_its_last_failing_z(models, monkeypatch):
    # the perturbation identity wrong at the second and fourth z of the
    # check's grid: the FAIL line names the last of them
    model = models["motzkin_absorption"]
    zs = [kernel.structural_constants(model).rho * t for t in (0.05, 0.15, 0.25, 0.35, 0.45)]
    residual = kernel.perturbation_identity_residual

    def wrong(model, z, branches=None):
        return 1e-6 if z in (zs[1], zs[3]) else residual(model, z, branches)

    name = "kernel/perturbation-identity"
    assert (name, True, "") in list(run_verification(model))
    monkeypatch.setattr(kernel, "perturbation_identity_residual", wrong)
    assert (name, False, f"z={zs[3]:.6g} residual=1e-06") in list(run_verification(model))


def test_verify_oracle_checks_name_their_own_failing_length(models, monkeypatch):
    # the meander distribution wrong only at n = 2 and the bridge masses only
    # at n = 5: each oracle line names its own first failing length, and a
    # passing line names none
    model = models["motzkin_absorption"]
    meander_distribution = enumeration.meander_distribution
    bridge_and_walk_mass = enumeration.bridge_and_walk_mass

    def wrong_meander(model, n, mode="exact"):
        dist = meander_distribution(model, n, mode)
        if n == 2:
            dist.mass[0] += 1
        return dist

    def wrong_bridge(model, n, mode="exact"):
        total, bridge = bridge_and_walk_mass(model, n, mode)
        return (total, bridge + 1) if n == 5 else (total, bridge)

    monkeypatch.setattr(enumeration, "meander_distribution", wrong_meander)
    monkeypatch.setattr(enumeration, "bridge_and_walk_mass", wrong_bridge)
    # the oracle lines come right after model-valid
    assert list(itertools.islice(run_verification(model), 1, 5)) == [
        ("oracle/meander-distribution", False, "n=2"),
        ("oracle/arch-mass", True, ""),
        ("oracle/returns-distribution", True, ""),
        ("oracle/bridge-and-walk", False, "n=5"),
    ]


def test_verify_catches_invalid_model(capsys, tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("P: -1:1/2 1:1/3\nP0: 1:1\n")
    code, out, _ = invoke(capsys, "verify", str(p))
    assert code == 3
    assert "FAIL\tmodel-valid" in out


@pytest.mark.parametrize("step, violation, told", [
    ("1:1", "P has no negative jump (c < 1)", ("classify", "constants", "gf-eval", "asym", "fit")),
    ("-1:1", "P has no positive jump (d < 1)", ("classify", "constants", "gf-eval", "asym", "fit")),
])
def test_models_without_a_jump_direction_exit_without_a_traceback(capsys, tmp_path, step,
                                                                   violation, told):
    # the exact commands answer; every kernel and asymptotic command exits
    # 1 with validate's own text, the asymptotic ones before they test for
    # a single down jump of -1; the boundary P0: 0:1 never leaves 0, which
    # validate reports too
    violation += f"; {NEVER_LEAVES_0}"
    p = tmp_path / "one_way.model"
    p.write_text(f"P: {step}\nP0: 0:1\n")
    commands = [
        (("validate",), 0), (("count", "--n", "5", "--what", "excursions"), 0),
        (("dist", "--n", "5", "--what", "returns"), 0), (("table2",), 0),
        (("classify",), 1), (("constants",), 1), (("gf-eval", "--z", "0.2"), 1),
        (("asym", "--n", "10", "--what", "excursions"), 1),
        (("fit", "--n", "10", "--what", "final-alt"), 1), (("verify",), 3),
    ]
    for argv, want in commands:
        code, out, err = invoke(capsys, *argv, str(p))
        assert code == want, argv
        assert "Traceback" not in out + err
        if want == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if argv[0] in told:
            assert err == f"error: {violation}\n"
    assert f"FAIL\tmodel-valid\t{violation}" in out


@pytest.mark.parametrize("text", [
    "P: -1:1 0:1 1:1\nP0: 0:1 1:1\n",  # asym --what meanders printed 1 for 1.83e94
    "P: -1:1/3 0:1/3 1:1/3\nP0: 0:1/4 1:1/4\n",  # ... and 1 for 0.0346
    # never leaves 0: asym --what excursions died in a ZeroDivisionError,
    # --what final-alt printed 29.13 for 0 at n = 2000
    "P: -1:1/3 0:1/3 1:1/3\nP0: 0:1\n",
    "P: 1:1\nP0: 0:1\n",
    "P: -1:1\nP0: 0:1\n",
    "P: -1:1 1:1\nP0: 1:1\n",  # periodic as well
])
def test_models_that_validate_rejects_exit_one_from_the_kernel_and_asymptotics(
        capsys, tmp_path, text):
    # validate is the one judge: every kernel and asymptotic command exits 1
    # with its text, before any other test of the model, and verify fails
    # on it; the exact commands take any model the parser accepts
    p = tmp_path / "rejected.model"
    p.write_text(text)
    violations = "; ".join(validate(load_model(p)).violations)
    assert violations
    for argv in [("classify",), ("constants",), ("gf-eval", "--z", "0.2"),
                 *(("asym", "--n", "200", "--what", what)
                   for what in ("excursions", "arches", "meanders", "final-alt")),
                 *(("fit", "--n", "50", "--what", what) for what in ("final-alt", "returns"))]:
        assert invoke(capsys, *argv, str(p)) == (1, "", f"error: {violations}\n"), argv
    code, out, _ = invoke(capsys, "verify", str(p))
    assert (code, out) == (3, f"FAIL\tmodel-valid\t{violations}\n")
    for argv in [("count", "--n", "6", "--what", "excursions"), ("table2",),
                 ("dist", "--n", "6", "--what", "returns"),
                 ("dist", "--n", "6", "--what", "final-alt")]:
        code, out, err = invoke(capsys, *argv, str(p))
        assert (code, err) == (0, "") and out, argv


def test_output_is_deterministic(capsys):
    _, out1, _ = invoke(capsys, "constants", MOTZ_A)
    _, out2, _ = invoke(capsys, "constants", MOTZ_A)
    assert out1 == out2
    _, out1, _ = invoke(capsys, "dist", "--n", "30", "--what", "final-alt", MOTZ_A)
    _, out2, _ = invoke(capsys, "dist", "--n", "30", "--what", "final-alt", MOTZ_A)
    assert out1 == out2


def test_writer_spells_every_cell_kind(capsys):
    # exact rationals as a/b, floats with 12 significant digits, None as -
    cells = [(0, "0"), (-7, "-7"), (3 * 10**40, "3" + "0" * 40), (0.1, "0.1"), (-0.0, "-0"),
             (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"),
             (1e-320, "9.99988867183e-321"), (123456789.123456789, "123456789.123"),
             (np.float64(2 / 3), "0.666666666667"), (np.float64("nan"), "nan"),
             (np.int64(-5), "-5"), (Fraction(1, 3), "1/3"), (Fraction(4), "4"), (None, "-"),
             (True, "true"), (False, "false"), ("# n", "# n"), ("", ""), ("a b", "a b")]
    _write_rows([tuple(c for c, _ in cells), *((c,) for c, _ in cells)])
    want = "\t".join(w for _, w in cells) + "\n" + "".join(w + "\n" for _, w in cells)
    assert capsys.readouterr().out == want
    assert [fmt(c) for c, _ in cells] == [w for _, w in cells]

    def raising():
        yield "# n", "value"
        yield 1, Fraction(1, 2)
        raise ZeroDivisionError("after two rows")

    with pytest.raises(ZeroDivisionError):
        _write_rows(raising())
    assert capsys.readouterr().out == "# n\tvalue\n1\t1/2\n"


PUBLIC_SERIES = {
    "excursions": enumeration.excursion_series,
    "meanders": enumeration.meander_mass_series,
    "arches": enumeration.arch_series,
    "bridges": enumeration.bridge_mass_series,
    "returns": enumeration.returns_mean_series,
    "final-alt": enumeration.final_altitude_series,
}


def _written_over_public_values(capsys, model, command, what=None, n=None, mode=None):
    """(exit code, stdout) of ``count``, ``dist`` or ``table2`` as
    ``_write_rows`` and ``fmt`` write the public functions' ``Fraction``s,
    floats and Nones."""
    try:
        if command == "table2":
            paths = enumeration.bridge_paths(model, 4)
            rules = list(enumeration.BoundaryRule)

            def rows():
                yield "# path", *(rule.value for rule in rules)
                columns = [enumeration.path_probabilities(rule, model, paths) for rule in rules]
                for path, *probs in zip(paths, *columns):
                    yield " ".join(str(j) for j in path), *probs

            _write_rows(rows())
        elif command == "count":
            series = PUBLIC_SERIES[what](model, n, mode)
            _write_rows([("# n", what), *enumerate(series)])
        elif what == "final-alt":
            dist = enumeration.meander_distribution(model, n, mode)

            def rows():
                yield "# meander_mass", dist.total()
                yield "# altitude", "probability"
                yield from sorted(dist.conditional().items())

            _write_rows(rows())
        else:
            dist = enumeration.returns_to_zero_distribution(model, n, mode)
            _write_rows([("# returns", "probability"), *sorted(dist.prob.items())])
        code = 0
    except NumericalSingularityError:
        code = 2
    except LatticePathError:
        code = 1
    return code, capsys.readouterr().out


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_count_dist_and_table2_rows_are_what_the_writer_prints_over_the_public_values(
        capsys, tmp_path, random_models, mode):
    # count, dist and table2 print the DP's values as pairs of ints or
    # floats, with no Fraction made: the bytes must be those of the writer
    # over the public functions, on the shipped and random models, a
    # period-2 model with "-" rows (odd lengths have no excursion), and a
    # model with no surviving mass, where dist --what final-alt writes its
    # two headers and exits 1 (and table2 its header, with no reflection
    # rule)
    paths = {name: MODELS_DIR / f"{name}.model" for name in MODEL_NAMES}
    for i, model in enumerate(random_models):
        paths[f"random{i}"] = tmp_path / f"random{i}.model"
        paths[f"random{i}"].write_text("".join(
            f"{line}: {' '.join(f'{j}:{p}' for j, p in poly.terms())}\n"
            for line, poly in (("P", model.P), ("P0", model.P0))))
    paths["dead"] = tmp_path / "dead.model"
    paths["dead"].write_text("P: -1:1/2 1:1/2\nP0: -1:1\n")
    runs = [("count", what, n) for what in PUBLIC_SERIES for n in (0, 1, 2, 37, 60)]
    runs += [("dist", what, n) for what in ("final-alt", "returns") for n in (0, 1, 13, 24)]
    exact = ("--exact",) if mode == "exact" else ()
    for name, path in paths.items():
        model = load_model(path)
        for command, what, n in runs:
            code, out, _ = invoke(capsys, command, "--n", str(n), "--what", what, *exact,
                                  str(path))
            want = _written_over_public_values(capsys, model, command, what, n, mode)
            assert (code, out) == want, (name, command, what, n)
        if mode == "exact":  # table2 is exact in both runs
            code, out, _ = invoke(capsys, "table2", str(path))
            assert (code, out) == _written_over_public_values(capsys, model, "table2"), name
    assert "\n37\t-\n" in invoke(capsys, "count", "--n", "37", "--what", "returns", *exact,
                                 str(paths["dyck_reflection"]))[1]
    assert invoke(capsys, "dist", "--n", "13", "--what", "final-alt", *exact,
                  str(paths["dead"]))[:2] == (1, "# meander_mass\t0\n# altitude\tprobability\n")


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


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading):
    """The body of the first fenced block under README's ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_cli_commands_exit_zero(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    lines = readme_block("CLI").splitlines()
    assert lines and all(line.startswith("latticepaths ") for line in lines)
    for line in lines:
        code, out, err = invoke(capsys, *line.split()[1:])
        assert (code, err) == (0, ""), line
        assert out


def test_readme_library_example_runs(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    exec(readme_block("Library example"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and float(out[1]) == pytest.approx(3**0.5 / 2, abs=1e-12)


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
        enumeration._rule_tally.cache_clear()
        uncached[path] = invoke(capsys, "table2", path)
    assert uncached[MOTZ_R] != uncached[MOTZ_A]
    enumeration._rule_tally.cache_clear()
    for path in paths + paths:
        assert invoke(capsys, "table2", path) == uncached[path]


def test_table2_looks_up_each_rule_tally_once(capsys, monkeypatch):
    # one lookup per boundary rule and one for the bridges, however many
    # bridges the table has (31 on this model)
    lookups = []
    tally = enumeration._rule_tally

    def counted(*args):
        lookups.append(args[1:])
        return tally(*args)

    monkeypatch.setattr(enumeration, "_rule_tally", counted)
    code, out, _ = invoke(capsys, "table2", C2)
    assert code == 0 and len(out.splitlines()) == 1 + 31
    assert len(lookups) <= 5


# SHA-256 over the stdout, stderr and exit code of the exact commands below
# on every shipped model, taken before table2's tally lookups and the exact
# distribution sums moved to integers. A change to any exact output must
# update it on purpose and say why in CHANGES.md.
EXACT_OUTPUTS_SHA256 = "a26d615093f390f46b89a124d19239bdcc93b93a0050b6d18a3ab68b65e4c885"


def test_exact_outputs_match_their_golden_digest(capsys):
    commands = [("table2",), ("dist", "--n", "24", "--what", "final-alt", "--exact"),
                ("fit", "--n", "30", "--what", "final-alt", "--exact")]
    digest = hashlib.sha256()
    for name in MODEL_NAMES:
        for argv in commands:
            code, out, err = invoke(capsys, *argv, str(MODELS_DIR / f"{name}.model"))
            digest.update(f"{name} {' '.join(argv)}\n{code}\n{out}\0{err}\0".encode())
    assert digest.hexdigest() == EXACT_OUTPUTS_SHA256


# SHA-256 over the stdout, stderr and exit code of every subcommand at small
# n on the shipped models, on a model with no negative jump and on a missing
# file, plus each subcommand's --help and two usage errors, taken before the
# handlers took their model from ``run``. Three changes since: that model's
# validate now also reports that its P0 never leaves 0, in its own output,
# verify's and the 12 kernel and asymptotic errors; constants prints no
# r row, on any model; and the c = 1 branch comes from the quadratic's
# closed form, which moved gf-eval's round-off perturbation_residual by an
# ulp or two on four models. argparse lays out help differently across
# Python versions and the c >= 2 gf-eval residual still moves with the
# LAPACK build, so the digest is checked where it was taken.
FRONT_END_SHA256 = "4be84f2a2a32f49bc80af2b29faaa56099e258ce05f1122ab8cab23e7f3957c9"
FRONT_END_PLATFORM = ((3, 11), "2.4.6")
FRONT_END_COMMANDS = [
    ("validate",), ("classify",), ("constants",),
    *(("count", "--n", "8", "--what", what, *exact)
      for what in ("excursions", "meanders", "arches", "bridges", "returns", "final-alt")
      for exact in ((), ("--exact",))),
    ("gf-eval", "--z", "0.1"),
    *(("asym", "--n", "40", "--what", what)
      for what in ("excursions", "arches", "meanders", "final-alt")),
    *((name, "--n", "10", "--what", what, *exact) for name in ("dist", "fit")
      for what in ("final-alt", "returns") for exact in ((), ("--exact",))),
    ("fit", "--n", "20", "--what", "final-alt", "--plot"),
    ("table2",), ("verify",),
]


@pytest.mark.skipif((sys.version_info[:2], np.__version__) != FRONT_END_PLATFORM,
                    reason="digest taken on Python 3.11 with numpy 2.4.6")
def test_front_end_outputs_match_their_golden_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    one_way = tmp_path / "one_way.model"
    one_way.write_text("P: 1:1\nP0: 0:1\n")
    paths = {name: str(MODELS_DIR / f"{name}.model") for name in MODEL_NAMES}
    paths.update(one_way=str(one_way), missing="/nonexistent/path.model")
    runs = [(f"{name} {' '.join(argv)}", (*argv, path))
            for name, path in paths.items() for argv in FRONT_END_COMMANDS]
    runs += [(f"help {name}", (*name.split(), "--help"))
             for name in ("", *{argv[0] for argv in FRONT_END_COMMANDS})]
    runs += [("usage --n x", ("count", "--n", "x", "--what", "excursions", DYCK)),
             ("usage no model", ("count", "--n", "8", "--what", "excursions"))]
    digest = hashlib.sha256()
    for key, argv in sorted(runs):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        digest.update(f"{key}\n{code}\n{captured.out}\0{captured.err}\0".encode())
    assert digest.hexdigest() == FRONT_END_SHA256
