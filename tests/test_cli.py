"""Command-line tests: golden outputs, exit codes, metadata shape, and
byte-level determinism of reruns."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cantorloc import (CantorSpec, RadiusSchedule, cli, lambda0_closed_form,
                       sweep_reverse_counterexample)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_eigs_ball_case(capsys):
    code, out, err = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,2",
        "--iterate", "0", "--rho", "1")
    assert code == 0
    assert err == ""
    rows = csv_rows(out)
    assert rows[0]["k"] == "0"
    assert float(rows[0]["lambda"]) == pytest.approx(-math.expm1(-1.0), rel=1e-15)


def test_eigs_auto_truncation_reaches_tail(capsys):
    code, out, _ = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,2",
        "--iterate", "2", "--rho", "6", "--kmax", "auto")
    assert code == 0
    rows = csv_rows(out)
    lam0 = float(rows[0]["lambda"])
    assert float(rows[-1]["lambda"]) < max(1e-12, 1e-9 * lam0)


def test_eigs_fixed_kmax_row_count(capsys):
    code, out, _ = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,2",
        "--iterate", "1", "--rho", "2", "--kmax", "4")
    assert code == 0
    assert [r["k"] for r in csv_rows(out)] == ["0", "1", "2", "3", "4"]


def test_invalid_alphabet_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,3",
        "--iterate", "1", "--rho", "1")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_unknown_flag_exits_two(capsys):
    code = cli.main(["eigs", "--no-such-flag"])
    capsys.readouterr()
    assert code == 2


def test_enumeration_cap_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "4")
    code, _, err = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,2",
        "--iterate", "3", "--rho", "2")
    assert code == 3
    assert "error:" in err
    # An explicit --kmax is held to the same cap: 10^12 rows once died
    # allocating its table, with a traceback and exit 1.
    monkeypatch.delenv("CTFL_MAX_INTERVALS")
    code, out, err = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,2",
        "--iterate", "3", "--rho", "2", "--kmax", "1000000000000")
    assert (code, out) == (3, "")
    assert "error:" in err and "Traceback" not in err
    # The norm sizes its arrays by rho: 10^13 indices once died asking for
    # 9.10 TiB, with a traceback and exit 1.
    code, out, err = run_cli(
        capsys, "norm", "--base", "3", "--alphabet", "0,2",
        "--iterate", "4", "--rho", "1e13")
    assert (code, out) == (3, "")
    assert "error:" in err and "Traceback" not in err


def test_eigs_past_the_cap_needs_no_enumeration(capsys, monkeypatch):
    # An explicit --kmax builds the table from the block tree, and norm
    # walks the tree too, so neither stops at the interval cap; --kmax auto
    # stops there because its table would have more rows than the cap.
    monkeypatch.delenv("CTFL_MAX_INTERVALS", raising=False)
    deep = ("--base", "3", "--alphabet", "0,2", "--iterate", "32", "--rho", "43046721")
    code, out, err = run_cli(capsys, "eigs", *deep, "--kmax", "2")
    assert (code, err) == (0, "")
    rows = csv_rows(out)
    assert [r["k"] for r in rows] == ["0", "1", "2"]
    assert all(0.0 < float(r["err"]) < 1e-12 * float(r["lambda"]) for r in rows)
    code, _, err = run_cli(capsys, "eigs", *deep)
    assert code == 3
    assert "error:" in err
    # 2^24 intervals, past the default cap of 10^7.
    code, out, err = run_cli(capsys, "norm", "--base", "3", "--alphabet", "0,2",
                             "--iterate", "24", "--rho", "531441")
    assert (code, err) == (0, "")
    [row] = csv_rows(out)
    assert row["argmax_k"] == "0"
    exact = lambda0_closed_form(CantorSpec(3, (0, 2)), 24, 531441.0)
    assert abs(float(row["value"]) - exact) <= float(row["value_err"])


def test_cantor_fn_mid_third_midpoint(capsys):
    code, out, _ = run_cli(
        capsys, "cantor-fn", "--base", "3", "--alphabet", "0,2",
        "--iterate", "1", "--x", "0.5")
    assert code == 0
    rows = csv_rows(out)
    assert rows == [{"x": "0.5", "value": "0.5"}]


def test_cantor_fn_is_monotone_across_calls(capsys):
    values = []
    for i in range(21):
        code, out, _ = run_cli(
            capsys, "cantor-fn", "--base", "3", "--alphabet", "0,2",
            "--iterate", "4", "--x", str(i / 20.0))
        assert code == 0
        values.append(float(csv_rows(out)[0]["value"]))
    assert values[0] == 0.0
    assert values[-1] == 1.0
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_norm_reports_certificate_columns(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--base", "3", "--alphabet", "0,1",
        "--iterate", "2", "--rho", "3")
    assert code == 0
    row = csv_rows(out)[0]
    assert set(row) == {"value", "argmax_k", "k_truncation", "tail_bound", "value_err"}
    assert row["argmax_k"] == "0"
    assert float(row["tail_bound"]) < max(1e-12, 1e-9 * float(row["value"]))


def test_norm_start_at_inner_flag_is_removed(capsys):
    code, out, err = run_cli(
        capsys, "norm", "--base", "3", "--alphabet", "1,2",
        "--iterate", "2", "--rho", "3", "--start-at-inner")
    assert code == 2
    assert out == ""
    assert "--start-at-inner" in err


def test_json_output_shape(capsys):
    code, out, _ = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,2",
        "--iterate", "1", "--rho", "2", "--format", "json", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["k", "lambda", "err"]
    meta = doc["metadata"]
    for key in ("cap", "gamma", "h_equivalent", "schedule", "seed", "spec",
                "tolerances", "version"):
        assert key in meta
    assert meta["seed"] == 7
    assert meta["spec"] == {"alphabet": [0, 2], "base": 3}
    assert meta["h_equivalent"] == pytest.approx(3.0**-1)
    assert meta["tolerances"]["tail_absolute"] == 1e-12
    assert meta["tolerances"]["tail_relative"] == 1e-9
    assert len(doc["rows"][0]) == 3


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,2",
        "--iterate", "2", "--rho", "4", "--kmax", "6")
    assert code == 0
    path = tmp_path / "eigs.csv"
    code2, out2, _ = run_cli(
        capsys, "eigs", "--base", "3", "--alphabet", "0,2",
        "--iterate", "2", "--rho", "4", "--kmax", "6", "--out", str(path))
    assert code2 == 0
    assert out2 == ""
    assert path.read_text() == out


def test_sweep_precise_ball_row(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--experiment", "precise", "--base", "3",
        "--alphabet", "0,2", "--nmax", "3")
    assert code == 0
    rows = csv_rows(out)
    assert [r["n"] for r in rows] == ["0", "1", "2", "3"]
    assert float(rows[0]["norm"]) == pytest.approx(-math.expm1(-1.0), rel=1e-12)
    assert all(float(r["thm32_ratio"]) > 0.0 for r in rows)


def test_sweep_reverse_ratio_halves(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--experiment", "reverse", "--base", "3",
        "--size", "2", "--nmax", "10")
    assert code == 0
    rows = csv_rows(out)
    ratios = {int(r["n"]): float(r["ratio"]) for r in rows}
    assert all(v > 0.0 for v in ratios.values())
    # Strict decay at the rate (|A|/M)^(n/4): a flat ratio would spread
    # the normalized band by (3/2)^2 = 2.25.
    assert all(ratios[n + 1] < ratios[n] for n in range(1, 10))
    normalized = [ratios[n] * 1.5 ** (n / 4.0) for n in range(2, 11)]
    assert max(normalized) / min(normalized) <= 1.5


def test_sweep_rejects_alphabet_for_size_experiments(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--experiment", "reverse", "--base", "3",
        "--alphabet", "0,2", "--nmax", "4")
    assert code == 2
    assert "error:" in err


def test_sweep_reverse_blanks_capped_depths(capsys, monkeypatch):
    # Depths 9 and 10 need 142 and 245 norm indices.  Past a cap of 100 the
    # reverse sweep blanks them and keeps its other rows, as the precise
    # sweep does; it once exited 3 and printed no row at all.
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "100")
    argv = ("sweep", "--experiment", "reverse", "--base", "3", "--size", "2",
            "--nmax", "10")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("\n9,\n10,\n")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    golden = json.loads((GOLDEN / "sweep_reverse_base3.json").read_text())
    assert json.loads(out)["rows"] == golden["rows"][:9] + [[9, None], [10, None]]
    ratios = dict(sweep_reverse_counterexample(3, 2, RadiusSchedule(), 10))
    assert [n for n, r in ratios.items() if r is None] == [9, 10]


@pytest.mark.parametrize("flags", [
    "--experiment reverse --base 3 --size 0 --nmax 4",
    "--experiment reverse --base 0 --size 2 --nmax 4",
    "--experiment indexed-decay --base 0 --nmax 4",
    "--experiment indexed-counterexample --base 0",
    "--experiment indexed-counterexample --base 4 --size 0",
])
def test_sweep_zero_base_or_size_is_refused(capsys, flags):
    # A given 0 once fell back to the flag's default, and the sweep ran.
    code, out, err = run_cli(capsys, "sweep", *flags.split())
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("base", ["0", "1"])
def test_sweep_reverse_checks_the_base_before_the_size(capsys, base):
    # The size check once ran first and named the range [1, base - 1].
    code, out, err = run_cli(capsys, "sweep", "--experiment", "reverse", "--base", base,
                             "--size", "2")
    assert (code, out) == (2, "")
    assert err == f"error: base must be at least 2, got {base}\n"


def test_sweep_indexed_decay_reports_fit(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--experiment", "indexed-decay", "--nmax", "8",
        "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["n", "lambda0", "fitted_beta"]
    assert doc["metadata"]["fitted_beta"] == doc["rows"][-1][2]
    lambdas = [row[1] for row in doc["rows"]]
    assert lambdas[-1] < lambdas[0]


def test_sweep_indexed_counterexample_lower_bound(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--experiment", "indexed-counterexample",
        "--base", "4", "--size", "2", "--nmax", "5")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 5
    bound = float(rows[0]["lower_bound_product"])
    assert all(float(r["lower_bound_product"]) == bound for r in rows)
    assert float(rows[-1]["lambda0"]) > 0.5 * bound


def test_sweep_positive_measure_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--experiment", "positive-measure", "--levels", "6",
        "--rho", "1.5")
    assert code == 0
    for row in csv_rows(out):
        measure = float(row["measure"])
        assert float(row["lambda0"]) >= float(row["norm_lower_bound"]) - 1e-15
        assert float(row["norm_lower_bound"]) == pytest.approx(
            math.exp(-1.5) * measure, rel=1e-12)


def test_levels_file_round_trip(capsys, tmp_path):
    path = tmp_path / "levels.txt"
    path.write_text("# two level spec\n3;0,2\n\n4;1,3\n")
    code, out, _ = run_cli(
        capsys, "eigs", "--levels-file", str(path), "--iterate", "2",
        "--rho", "2", "--kmax", "0")
    assert code == 0
    assert float(csv_rows(out)[0]["lambda"]) > 0.0


def test_levels_file_bad_line_exits_two(capsys, tmp_path):
    path = tmp_path / "levels.txt"
    path.write_text("3;0,2\n5;0,9\n")
    code, _, err = run_cli(
        capsys, "eigs", "--levels-file", str(path), "--iterate", "1",
        "--rho", "1")
    assert code == 2
    assert "levels.txt:2" in err


def test_levels_file_conflicts_with_inline_spec(capsys, tmp_path):
    path = tmp_path / "levels.txt"
    path.write_text("3;0,2\n")
    code, _, err = run_cli(
        capsys, "eigs", "--levels-file", str(path), "--base", "3",
        "--alphabet", "0,2", "--iterate", "1", "--rho", "1")
    assert code == 2
    assert "error:" in err


def test_reruns_are_byte_identical(capsys):
    argv = ("sweep", "--experiment", "reverse", "--base", "3", "--size", "2",
            "--nmax", "2", "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# Exact stdout of sweeps and norms that the benchmark does not run; between
# them they reach every first-eigenvalue entry point and the metadata that
# echoes the norm's truncation thresholds.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    ("sweep --experiment precise --base 3 --alphabet 0,2 --nmax 6 --format json",
     "sweep_precise_base3.json"),
    ("sweep --experiment indexed-decay --nmax 8 --seed 1 --format json",
     "sweep_indexed_decay_seed1.json"),
    ("sweep --experiment indexed-counterexample --base 4 --size 2 --nmax 5",
     "sweep_indexed_counterexample.csv"),
    ("sweep --experiment positive-measure --levels 8 --rho 1.0",
     "sweep_positive_measure.csv"),
    ("sweep --experiment reverse --base 3 --size 2 --nmax 10 --format json",
     "sweep_reverse_base3.json"),
    ("norm --base 3 --alphabet 1,2 --iterate 6 --rho 27 --format json",
     "norm_reverse_base3.json"),
    # Eigenvalue table from the block tree; rows 1 to 7 reach the depth-8
    # interval at the origin.
    ("eigs --base 3 --alphabet 0,2 --iterate 8 --rho 81 --kmax auto",
     "eigs_mid_third_n8.csv"),
    # Argmax 1967, certified by the branch-and-bound walk over the block
    # tree; nothing is enumerated.
    ("norm --base 3 --alphabet 1,2 --iterate 15 --rho 3856.1790282438915",
     "norm_reverse_n15.csv"),
    # The benchmark's sweep-precise and eigs-auto commands, pinned bit for
    # bit: 17 certified norms to n = 16, and 561 rows at n = 11.
    ("sweep --experiment precise --base 3 --alphabet 0,2 --nmax 16",
     "sweep_precise_base3_n16.csv"),
    ("eigs --base 3 --alphabet 0,2 --iterate 11 --rho 420.8883462392372 --kmax auto",
     "eigs_mid_third_n11.csv"),
])
def test_golden_stdout(capsys, monkeypatch, argv, golden):
    monkeypatch.delenv("CTFL_MAX_INTERVALS", raising=False)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_verify_report_is_deterministic(capsys):
    argv = ("verify", "--suite", "cantor", "--seed", "42", "--samples", "60")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1 == out2
    lines = out1.splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert "properties passed" in lines[-1]


def test_verify_exit_reflects_failures(capsys):
    # The kernel suite holds at the default tolerances.
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "special_fn", "--seed", "3",
        "--samples", "40")
    assert code == 0
    assert "FAIL" not in out
    # Forcing an absurd tolerance must flip the exit code.
    code_tight, out_tight, _ = run_cli(
        capsys, "verify", "--suite", "special_fn", "--seed", "3",
        "--samples", "40", "--tol", "1e-30")
    assert code_tight == 1
    assert "FAIL" in out_tight


def test_verify_counts_capped_sweep_depths_as_failures(capsys, monkeypatch):
    # Past a cap of 50 the sweeps blank their deeper rows; the properties
    # over them fail, where the reverse sweep once ended verify with exit 3.
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "50")
    code, out, err = run_cli(capsys, "verify", "--suite", "experiments")
    assert (code, err) == (1, "")
    assert "FAIL experiments.bounded_ratio_band" in out
    assert "FAIL experiments.reverse_ratio_decreasing" in out


def test_verify_unknown_suite_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert err.startswith("error: unknown suite 'nonsense'")


def test_cli_runs_without_scipy():
    # numpy is the only runtime dependency: eigenvalues, a norm scan and a
    # sweep, quadrature included, leave scipy unimported, and numpy's
    # polynomial package too (it once supplied Gauss-Legendre nodes).  They
    # leave numpy.ma (which a bare np.unique imports) and the verify suites
    # unimported as well.  The experiments module is entered in sys.modules
    # but runs only when the sweep needs it: eigs and norm leave it a lazy
    # module, whose class becomes types.ModuleType once it has run.
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        "import sys, types\n"
        "from cantorloc import cli\n"
        "def loaded():\n"
        "    return type(sys.modules['cantorloc.experiments']) is types.ModuleType\n"
        "for argv in (['eigs', '--base', '3', '--alphabet', '0,2', '--iterate', '6',\n"
        "              '--rho', '27', '--kmax', 'auto'],\n"
        "             ['norm', '--base', '3', '--alphabet', '1,2', '--iterate', '8',\n"
        "              '--rho', '81']):\n"
        "    assert cli.main(argv) == 0\n"
        "assert not loaded()\n"
        "assert cli.main(['sweep', '--experiment', 'precise', '--base', '3',\n"
        "                 '--alphabet', '0,2', '--nmax', '6']) == 0\n"
        "assert loaded()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m.startswith('numpy.polynomial')\n"
        "             or m.split('.')[:2] in (['numpy', 'ma'], ['cantorloc', 'verify'])))\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert run.stdout.splitlines()[-1] == "[]"
