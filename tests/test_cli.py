"""Command-line tests: golden outputs, exit codes, metadata shape, and
byte-level determinism of reruns."""

import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cantorloc import (CantorSpec, CapExceededError, cli, lambda0_closed_form,
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
    # 10^13 norm indices once died asking for 9.10 TiB, with a traceback
    # and exit 1.  No array of the norm grows with rho now: these radii stop
    # at lambda_0, whose expansion overflows, and a rho whose indices reach
    # 2^53, past which doubles do not hold them all, is refused first.
    for rho in ("1e13", "1e15", "1e16"):
        code, out, err = run_cli(
            capsys, "norm", "--base", "3", "--alphabet", "0,2",
            "--iterate", "4", "--rho", rho)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("2^53" in err) == (rho == "1e16") and "Traceback" not in err


def test_a_row_without_an_error_bound_exits_2(capsys):
    # The expansion's error bound overflows on blocks as wide as rho =
    # 10^10: eigs once printed nan and exited 0, and now that no norm
    # array grows with rho, the norm reaches such radii too.  The row is
    # refused with one error line: the overflow once printed seven numpy
    # warnings first, which pytest's filter now turns into failures.
    for argv in (["eigs", "--kmax", "0"], ["norm"]):
        code, out, err = run_cli(capsys, *argv, "--base", "3", "--alphabet", "0,2",
                                 "--iterate", "4", "--rho", "1e10")
        assert (code, out) == (2, "")
        assert err == "error: lambda_0 has no finite error bound (value nan, err nan)\n"


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
    argv = ("eigs", "--base", "3", "--alphabet", "0,2", "--iterate", "1", "--rho", "2",
            "--format", "json")
    # eigs reads no seed; it once recorded this one and ignored it.
    assert run_cli(capsys, *argv, "--seed", "7")[:2] == (2, "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["k", "lambda", "err"]
    meta = doc["metadata"]
    for key in ("cap", "gamma", "h_equivalent", "schedule", "seed", "spec",
                "tolerances", "version"):
        assert key in meta
    assert meta["seed"] == 0
    assert meta["tolerances"]["tol_override"] is None
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


def test_sweep_rejects_alphabet_for_size_experiments(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--experiment", "reverse", "--base", "3",
        "--alphabet", "0,2", "--nmax", "4")
    assert code == 2
    assert "error:" in err


# The flags each sweep experiment reads, and a valid value of each sweep
# flag; --levels-file is a path filled in by the test.
SWEEP_READS = {
    "precise": ("--base", "--alphabet", "--nmax", "--gamma"),
    "reverse": ("--base", "--size", "--nmax", "--gamma"),
    "indexed-decay": ("--base", "--nmax", "--delta", "--epsilon", "--gamma", "--seed"),
    "indexed-counterexample": ("--base", "--size", "--nmax", "--gamma"),
    "positive-measure": ("--levels-file", "--levels", "--rho"),
}
SWEEP_VALUES = {"--base": "3", "--alphabet": "0,2", "--levels-file": None, "--nmax": "5",
                "--gamma": "0.5", "--size": "1", "--delta": "0.5", "--epsilon": "0.5",
                "--rho": "2", "--levels": "2", "--seed": "1"}
SWEEP_REQUIRED = {"precise": ["--base", "3", "--alphabet", "0,2"]}


@pytest.mark.parametrize("experiment, flag",
                         [(e, f) for e in SWEEP_READS for f in SWEEP_VALUES])
def test_sweep_takes_only_the_flags_it_reads(capsys, tmp_path, experiment, flag):
    # Each experiment once accepted every sweep flag and ignored those it
    # does not read, printing numbers for a set or schedule nobody asked for.
    levels = tmp_path / "levels.txt"
    levels.write_text("2;0\n4;0,1,2\n")
    value = SWEEP_VALUES[flag] or str(levels)
    code, out, err = run_cli(capsys, "sweep", "--experiment", experiment,
                             *SWEEP_REQUIRED.get(experiment, []), flag, value)
    if flag in SWEEP_READS[experiment]:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out) == (2, "")
        assert err == f"error: {experiment} sweeps do not read {flag}\n"


@pytest.mark.parametrize("argv, flag", [
    *[(argv, flag) for argv in ("eigs --base 3 --alphabet 0,2 --iterate 1 --rho 2",
                                "norm --base 3 --alphabet 0,2 --iterate 2 --rho 3",
                                "cantor-fn --base 3 --alphabet 0,2 --iterate 1 --x 0.5")
      for flag in ("--seed", "--tol")],
    *[(" ".join(["sweep --experiment", e, *SWEEP_REQUIRED.get(e, [])]), "--tol")
      for e in SWEEP_READS],
])
def test_commands_refuse_a_seed_or_tolerance_they_do_not_read(capsys, argv, flag):
    # Every command once took both and recorded them in its metadata; only
    # verify and the indexed-decay sweep read a seed, and only verify a
    # tolerance.
    code, out, err = run_cli(capsys, *argv.split(), flag, "1")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} 1" in err


def test_sweep_names_every_refused_flag(capsys):
    code, out, err = run_cli(capsys, "sweep", "--experiment", "positive-measure",
                             "--levels", "3", "--base", "5", "--nmax", "9", "--gamma", "7")
    assert (code, out) == (2, "")
    assert err == "error: positive-measure sweeps do not read --base, --gamma, --nmax\n"


@pytest.mark.parametrize("given, left_out", [
    ("precise --base 3 --alphabet 0,2 --nmax 3 --gamma 1",
     "precise --base 3 --alphabet 0,2 --nmax 3"),
    ("reverse --base 3 --size 2 --nmax 3 --gamma 1", "reverse --nmax 3"),
    ("indexed-decay --base 3 --nmax 5 --delta 0.5 --epsilon 0.6666666666666666 --gamma 1",
     "indexed-decay --nmax 5"),
    ("indexed-decay --seed 0 --nmax 5", "indexed-decay --nmax 5"),
    ("indexed-counterexample --base 4 --size 2 --nmax 3 --gamma 1",
     "indexed-counterexample --nmax 3"),
    ("positive-measure --levels 12 --rho 1", "positive-measure"),
])
def test_sweep_defaults_are_the_flags_given(capsys, given, left_out):
    outputs = [run_cli(capsys, "sweep", "--format", "json", "--experiment", *argv.split())
               for argv in (given, left_out)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_sweep_past_the_cap_exits_3_without_rows(capsys, monkeypatch):
    # A sweep certifies every depth or prints no row.  The precise sweep to
    # n = 16 prints its golden at a cap of 244, the peak of its walk's live
    # pairs (tests/golden/commands.txt), and exits 3 one below; the reverse
    # sweep to n = 10 peaks at 3,186.  Both once blanked the depths past the
    # cap and printed the rest.
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "243")
    code, out, err = run_cli(capsys, "sweep", "--experiment", "precise", "--base", "3",
                             "--alphabet", "0,2", "--nmax", "16")
    assert (code, out) == (3, "")
    assert err.startswith("error: 244 live (range, block) pairs of the norm's walk would "
                          "pass the cap of 243")
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "3185")
    code, out, err = run_cli(capsys, "sweep", "--experiment", "reverse", "--base", "3",
                             "--size", "2", "--nmax", "10", "--format", "json")
    assert (code, out) == (3, "")
    assert err.startswith("error: 3186 live (range, block) pairs")
    with pytest.raises(CapExceededError):
        sweep_reverse_counterexample(3, 2, 10)


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


def test_sweep_alphabets_are_held_to_the_cap_before_they_are_built(capsys, monkeypatch):
    # tuple(range(size)) once came first, and a MemoryError traceback ended
    # the sweep with exit 1, the code of a failed verify property.
    monkeypatch.delenv("CTFL_MAX_INTERVALS", raising=False)
    code, out, err = run_cli(capsys, "sweep", "--experiment", "reverse", "--base",
                             "10000000000", "--size", "5000000000", "--nmax", "2")
    assert (code, out) == (3, "")
    assert err == ("error: 5000000000 alphabet digits would pass the cap of 10000000 "
                   "(set CTFL_MAX_INTERVALS to move it)\n")
    for delta in ("20", "30", "38"):
        code, out, err = run_cli(capsys, "sweep", "--experiment", "indexed-decay",
                                 "--nmax", "6", "--delta", delta)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "alphabet digits would pass the cap" in err


@pytest.mark.parametrize("delta, power", [("39", "3^40"), ("1000", "3^1001"),
                                          ("inf", "3^inf")])
def test_sweep_indexed_decay_refuses_bases_past_int64(capsys, delta, power):
    # numpy's or float's own words once ended these: "high is out of bounds
    # for int64", "Numerical result out of range", "cannot convert float
    # infinity to integer".
    code, out, err = run_cli(capsys, "sweep", "--experiment", "indexed-decay",
                             "--nmax", "6", "--delta", delta)
    assert (code, out) == (2, "")
    assert err == (f"error: delta = {delta} (--delta) puts the largest base M^(1+delta) "
                   f"= {power} at or past 2^63, beyond the int64 bases drawn\n")


@pytest.mark.parametrize("argv", [
    "norm --base 3 --alphabet 0,2 --iterate 1000000 --rho 1",
    "eigs --base 3 --alphabet 0,2 --iterate 1000000 --rho 1 --kmax 0",
])
def test_a_deep_iterate_is_refused_at_once(capsys, argv):
    # The scale check once formed every exact level product, O(n^2) bits,
    # and was killed for memory at n = 300,000 instead of refusing.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    assert err == ("error: iterate blocks are narrower than the smallest representable "
                   "double; reduce the depth\n")


def test_cantor_fn_at_a_deep_iterate(capsys):
    # 0.3 leaves the mid-third iterate within a few dozen digits, and the
    # metadata's 1 / 3^n underflows to 0 without forming 3^n.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cantor-fn", "--base", "3", "--alphabet", "0,2",
                             "--iterate", "1000000", "--x", "0.3", "--format", "json")
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["rows"] == [[0.3, 0.39999999999417923]]
    assert doc["metadata"]["h_equivalent"] == 0.0


def test_cantor_fn_inside_a_deep_iterate(capsys):
    # 0.25 is 0.0202... in base 3, so every digit stays in the alphabet and
    # the rank of the block reached has 10^6 digits in base |A| = 2.  Joined
    # one digit at a time it cost O(n^2): 1.3 s at n = 2*10^5.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cantor-fn", "--base", "3", "--alphabet", "0,2",
                             "--iterate", "1000000", "--x", "0.25")
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "")
    assert out == "x,value\n0.25,0.33333333333333331\n"


def test_h_equivalent_is_formed_only_until_it_underflows():
    # Past 2^1075 the product's reciprocal rounds to 0.0.
    assert cli._h_equivalent([2] * 1074) == 5e-324
    assert cli._h_equivalent([3] * 678) == 1 / 3 ** 678 == 5e-324
    assert cli._h_equivalent([2] * 1075) == cli._h_equivalent([3] * 679) == 0.0


@pytest.mark.parametrize("n_max", ["2", "4"])
def test_sweep_indexed_decay_refuses_fewer_than_five_depths(capsys, n_max):
    # The fit takes the last ceil(n_max/2) depths: --nmax 2 once fitted a
    # line through one depth, printed numpy's RankWarning and exited 0.
    code, out, err = run_cli(capsys, "sweep", "--experiment", "indexed-decay",
                             "--nmax", n_max)
    assert (code, out) == (2, "")
    assert err == "error: n_max must be at least 5, so the fit has three depths\n"


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


@pytest.mark.parametrize("argv,bases", [
    # 1 / (M_1 ... M_300) underflows, and radii pass 2^700.
    ("indexed-decay --nmax 300 --delta 3", None),
    ("indexed-decay --nmax 130 --delta 3", None),
    # 2^-64, which a sum of logarithms missed by 7 ulps.
    ("indexed-counterexample --base 4 --size 2 --nmax 6", [4, 4, 16, 256, 4 ** 8, 4 ** 16]),
])
def test_indexed_h_equivalent_is_one_over_the_level_product(capsys, argv, bases):
    code, out, err = run_cli(capsys, "sweep", "--experiment", *argv.split(), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    meta = doc["metadata"]
    bases = bases or [lv["base"] for lv in meta["spec"]["levels"]]
    assert len(doc["rows"]) == len(bases) + argv.startswith("indexed-decay")
    assert meta["h_equivalent"] == 1 / math.prod(bases)


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


def test_sweep_positive_measure_records_no_gamma(capsys):
    # The experiment's radius is --rho: it refuses --gamma, and its metadata
    # once echoed --gamma's default.
    argv = ("sweep", "--experiment", "positive-measure", "--levels", "3",
            "--rho", "1.0", "--format", "json")
    code, out, err = run_cli(capsys, *argv, "--gamma", "0.5")
    assert (code, out) == (2, "") and "--gamma" in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    metadata = json.loads(out)["metadata"]
    assert metadata["gamma"] is None and metadata["schedule"] is None


def test_sweep_positive_measure_refuses_a_file_and_a_count(capsys, tmp_path):
    # Given both, the file once won and --levels was ignored without a word.
    path = tmp_path / "levels.txt"
    path.write_text("2;0\n4;0,1,2\n")
    code, out, err = run_cli(capsys, "sweep", "--experiment", "positive-measure",
                             "--levels-file", str(path), "--levels", "7")
    assert (code, out) == (2, "")
    assert err == "error: --levels-file excludes --levels\n"


def test_required_spec_flags_name_levels_file_only_where_it_is_read(capsys):
    # The precise sweep refuses --levels-file, yet its message once offered it.
    code, out, err = run_cli(capsys, "sweep", "--experiment", "precise", "--nmax", "2")
    assert (code, out, err) == (2, "", "error: --base and --alphabet are required\n")
    code, out, err = run_cli(capsys, "norm", "--iterate", "2", "--rho", "1")
    assert (code, out) == (2, "")
    assert err == "error: --base and --alphabet are required (or pass --levels-file)\n"


@pytest.mark.parametrize("experiment", ["precise --base 3 --alphabet 0,2", "reverse"])
def test_sweep_refuses_gamma_above_one(capsys, monkeypatch, experiment):
    # rho(0) = gamma must not pass M^0 = 1.  The check once ran per depth
    # and failed at n = 0 with a message about rho(0), not about gamma.
    import cantorloc.experiments as experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep computed a norm")

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "operator_norms", forbidden)
        code, out, err = run_cli(capsys, "sweep", "--experiment", *experiment.split(),
                                 "--nmax", "3", "--gamma", "2")
    assert (code, out) == (2, "")
    assert err == "error: gamma must lie in (0, 1], got 2.0\n"


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


def test_csv_cells_round_trip_every_double():
    # 17 significant digits give back each double, from 1e-300 to 1e300.
    rng = np.random.default_rng(20240818)
    values = rng.uniform(-1.0, 1.0, 300) * 10.0 ** rng.integers(-300, 300, 300)
    text = cli.render_csv(["x"], [[float(v)] for v in values])
    assert [float(r["x"]) for r in csv_rows(text)] == values.tolist()


def test_reruns_are_byte_identical(capsys):
    argv = ("sweep", "--experiment", "reverse", "--base", "3", "--size", "2",
            "--nmax", "2", "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


GOLDEN = Path(__file__).parent / "golden"


def golden_commands():
    """(argv, golden) for each line of the golden list, argv being the
    command without its leading `cantorloc` word."""
    pairs = []
    for line in (GOLDEN / "commands.txt").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            golden, *words = line.split()
            words.remove("cantorloc")
            pairs.append((" ".join(words), golden))
    return pairs


@pytest.mark.parametrize("argv, golden", golden_commands())
def test_golden_stdout(capsys, monkeypatch, argv, golden):
    # Leading NAME=value words set the environment, as in a shell.
    monkeypatch.delenv("CTFL_MAX_INTERVALS", raising=False)
    words = argv.split()
    while "=" in words[0]:
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    code, out, err = run_cli(capsys, *words)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_eigs_auto_reads_no_tail_bound(capsys, monkeypatch):
    # --kmax auto needs the norm's k_truncation alone.
    from cantorloc.operator import NormResult

    def forbidden(self):
        raise AssertionError("eigs read the norm's tail bound")

    monkeypatch.setattr(NormResult, "tail_bound", property(forbidden))
    code, out, err = run_cli(capsys, "eigs", "--base", "3", "--alphabet", "0,2", "--iterate",
                             "11", "--rho", "420.8883462392372", "--kmax", "auto")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "eigs_mid_third_n11.csv").read_text(encoding="utf-8")


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


def test_verify_exits_3_when_a_sweep_passes_the_cap(capsys, monkeypatch):
    # Past a cap of 50 no norm fits, so the sweeps print no row and verify
    # stops with the cap's exit code; it once counted blanked depths as
    # failed properties.
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "50")
    code, out, err = run_cli(capsys, "verify", "--suite", "experiments")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "would pass the cap of 50" in err


@pytest.mark.parametrize("flags", ["--samples 0", "--samples -3", "--tol inf", "--tol nan",
                                   "--tol -1"])
def test_verify_refuses_no_samples_and_a_bad_tolerance(capsys, flags):
    # --samples 0 once printed PASS lines drawn from nothing, and --tol inf
    # passed every epsilon property.
    code, out, err = run_cli(capsys, "verify", "--suite", "special_fn", *flags.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_fails_a_property_that_drew_no_sample(capsys, monkeypatch):
    # A check over nothing passes its own test vacuously; verify fails it.
    import cantorloc.verify as verify

    monkeypatch.setitem(verify._SUITES, "experiments", lambda seed, samples, tol: [
        verify.PropertyCheck("experiments", "norm_vs_twice_lambda0", True, 0.0, 1e-10, 0)])
    code, out, err = run_cli(capsys, "verify", "--suite", "experiments")
    assert (code, err) == (1, "")
    assert "FAIL experiments.norm_vs_twice_lambda0 worst=0.000e+00 tol=1.000e-10 samples=0" in out


def test_verify_writes_its_table_to_out(capsys, tmp_path):
    # The report stays on stdout; --out takes the checks as a table, with
    # the suite, samples, seed and tolerance in the JSON metadata.
    argv = ("verify", "--suite", "cantor", "--seed", "5", "--samples", "20", "--tol", "0.5")
    tables = {}
    for fmt in ("csv", "json"):
        path = tmp_path / f"verify.{fmt}"
        code, out, err = run_cli(capsys, *argv, "--format", fmt, "--out", str(path))
        assert (code, err) == (0, "")
        assert out.endswith(" properties passed\n")
        tables[fmt] = path.read_text()
    rows = csv_rows(tables["csv"])
    assert [(r["suite"], r["passed"]) for r in rows] == [("cantor", "true")] * 6
    assert [line.split()[1] for line in out.splitlines()[:-1]] == [
        f"cantor.{r['name']}" for r in rows]
    # One formatter writes each value, in either format.
    doc = json.loads(tables["json"])
    assert cli.render_csv(doc["columns"], doc["rows"]) == tables["csv"]
    meta = doc["metadata"]
    assert (meta["suite"], meta["samples"], meta["seed"]) == ("cantor", 20, 5)
    # The first property draws the samples that the metadata records.
    assert out.splitlines()[0].startswith("PASS cantor.weak_subadditivity ")
    assert "samples=20" in out.splitlines()[0].split()
    assert rows[0]["samples"] == "20"
    assert meta["tolerances"]["tol_override"] == 0.5


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


def run_module(*argv, env=None):
    """`python -m cantorloc.cli` in a fresh process, the entry the benchmark
    starts; stdout and stderr as bytes."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    base_env = {k: v for k, v in os.environ.items() if k != "CTFL_MAX_INTERVALS"}
    return subprocess.run([sys.executable, "-m", "cantorloc.cli", *argv], capture_output=True,
                          timeout=120, env=dict(base_env, PYTHONPATH=src, **(env or {})))


def test_module_entry_prints_the_golden_bytes_to_stdout_and_out(tmp_path):
    golden = "norm_reverse_base3.json"
    argv = next(a for a, g in golden_commands() if g == golden)
    run = run_module(*argv.split())
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (GOLDEN / golden).read_bytes()
    path = tmp_path / "norm.json"
    to_file = run_module(*argv.split(), "--out", str(path))
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert path.read_bytes() == run.stdout


def test_module_entry_exit_codes():
    bad = run_module("eigs", "--base", "3", "--alphabet", "0,5", "--iterate", "1", "--rho", "1")
    assert (bad.returncode, bad.stdout) == (2, b"")
    assert bad.stderr == b"error: alphabet letters must lie in [0, 2], got (0, 5)\n"
    capped = run_module("eigs", "--base", "3", "--alphabet", "0,2", "--iterate", "3",
                        "--rho", "2", env={"CTFL_MAX_INTERVALS": "4"})
    assert (capped.returncode, capped.stdout) == (3, b"")
    assert capped.stderr.startswith(b"error: ") and capped.stderr.count(b"\n") == 1


def test_main_leaves_the_collector_alone(capsys):
    # Only the process entry run() freezes the collector; tests and library
    # callers of main keep a normal one.
    before = (gc.isenabled(), gc.get_freeze_count())
    code, _, _ = run_cli(capsys, "norm", "--base", "3", "--alphabet", "1,2",
                         "--iterate", "6", "--rho", "27")
    assert code == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_run_returns_the_code_of_main_and_freezes_the_collector():
    # run() is called in a fresh interpreter only: frozen objects would stay
    # out of every later collection of the test process.
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = ("import gc, sys\n"
              "from cantorloc import cli\n"
              "sys.argv = ['cantorloc', '--no-such-flag']\n"
              "code = cli.run()\n"
              "print(code, gc.get_freeze_count() > 0)\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert run.stdout == "2 True\n"
