import csv
import re
import runpy
from pathlib import Path

import pytest

from irs_aircomp import cli, experiments
from irs_aircomp.cli import main


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


TOY = """
m = 2
k = 2
n_sweep = 8, 16
trials = 3
seed = 5
"""


def test_validate_fast_exits_zero(capsys):
    assert main(["validate", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_validate_exits_one_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "mse_identity_error", lambda rng, n: 1.0)
    assert main(["validate", "--fast"]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] vector-channel MSE equals scalar-channel MSE for phase-aligned b" in out
    assert out.count("[FAIL]") == 1 and out.endswith("1 check(s) failed\n")


def test_sweep_seed_override_is_the_config_seed(tmp_path):
    cfg = write_config(tmp_path, TOY)
    reseeded = write_config(tmp_path, TOY.replace("seed = 5", "seed = 9"), name="nine.cfg")
    csvs = {}
    for name, argv in (
        ("flag", ["--config", cfg, "--seed", "9"]),
        ("file", ["--config", reseeded]),
        ("five", ["--config", cfg]),
    ):
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 0
        csvs[name] = out.read_text(encoding="utf-8")
    assert csvs["flag"] == csvs["file"] != csvs["five"]


def test_sweep_scheme_subset_and_trial_override(tmp_path):
    cfg = write_config(tmp_path, TOY)
    out = tmp_path / "c.csv"
    code = main(
        ["sweep", "--config", cfg, "--schemes", "OPT_PC_IRS", "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["scheme"] for r in rows} == {"OPT_PC_IRS"}
    assert all(int(r["trials"]) == 2 for r in rows)


def test_bounds_writes_reference_curves(tmp_path):
    cfg = write_config(tmp_path, TOY)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["N"]) for r in rows] == [8, 16]
    # quadratic element scaling of the bound
    assert float(rows[0]["mse_upper_bound"]) == pytest.approx(
        4 * float(rows[1]["mse_upper_bound"]), rel=1e-12
    )


@pytest.mark.parametrize("redraw", [False, True])
def test_bounds_equal_the_sweep_bound_columns(redraw, tmp_path):
    cfg = write_config(tmp_path, TOY + f"redraw_geometry_per_trial = {redraw}\n")
    bounds, sweep = tmp_path / "bounds.csv", tmp_path / "sweep.csv"
    assert main(["bounds", "--config", cfg, "--out", str(bounds)]) == 0
    assert main(["sweep", "--config", cfg, "--schemes", "OPT_PC_IRS", "--out", str(sweep)]) == 0
    with open(bounds, newline="") as fa, open(sweep, newline="") as fb:
        want = [(r["N"], r["mse_upper_bound"], r["n_threshold"]) for r in csv.DictReader(fa)]
        got = [(r["N"], r["bound_mse"], r["n_threshold"]) for r in csv.DictReader(fb)]
    assert got == want


def test_bounds_outside_binary_phases_exit_two(tmp_path, capsys):
    # the sweep leaves its bound columns empty at l = 4; bounds refuses to write them
    cfg = write_config(tmp_path, TOY + "l = 4\n")
    bounds, sweep = tmp_path / "bounds.csv", tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--schemes", "OPT_PC_IRS", "--out", str(sweep)]) == 0
    with open(sweep, newline="") as fh:
        assert {(r["bound_mse"], r["n_threshold"]) for r in csv.DictReader(fh)} == {("", "")}
    capsys.readouterr()
    assert main(["bounds", "--config", cfg, "--out", str(bounds)]) == 2
    assert re.fullmatch(r"error: bounds assume .*, got l = 4\n", capsys.readouterr().err)
    assert not bounds.exists()


@pytest.mark.parametrize("redraw", [False, True])
def test_single_prints_the_sweep_row_at_n(redraw, tmp_path, capsys):
    cfg = write_config(
        tmp_path, TOY.replace("n_sweep = 8, 16", "n_sweep = 4, 8, 16")
        + f"redraw_geometry_per_trial = {redraw}\n",
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--schemes", "OPT_PC_IRS", "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    for N, row in zip((4, 8, 16), rows[1:]):
        capsys.readouterr()
        assert main(["single", "--config", cfg, "--n", str(N), "--scheme", "OPT_PC_IRS"]) == 0
        assert capsys.readouterr().out.splitlines() == [rows[0], row]


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "nonsense_key = 3\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    # an unparsable list element is quoted as written, without the space after the comma
    cfg = write_config(tmp_path, TOY.replace("n_sweep = 8, 16", "n_sweep = 64, x"))
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: n_sweep: cannot parse 'x' as int\n"
    # a dBm value whose watts overflow a float is named, on every command that reads a config
    for key in ("pmax_dbm", "sigma2_dbm"):
        cfg = write_config(tmp_path, TOY + f"{key} = 4000\n")
        for argv in (["sweep", "--out", str(tmp_path / "x.csv")],
                     ["bounds", "--out", str(tmp_path / "b.csv")],
                     ["single", "--n", "8", "--scheme", "OPT_PC_IRS"]):
            capsys.readouterr()
            assert main([*argv, "--config", cfg]) == 2
            assert capsys.readouterr().err == f"error: {key}: 4000 dBm overflows the watts of a float\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("output = x.csv", "unknown key 'output'\n"),
        ("n = 1024", "unknown key 'n'; element counts come from n_sweep\n"),
    ],
)
def test_retired_config_keys_exit_two(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path, TOY + line + "\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.endswith(message)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--out", "{missing}"], "failed writing sweep CSV to {missing}: "),
        (["bounds", "--out", "{missing}"], "failed writing bounds CSV to {missing}: "),
        (["single", "--n", "8", "--scheme", "OPT_PC_IRS,INV_PC_IRS"], "single takes exactly one"),
        (["sweep", "--schemes", " , ", "--out", "{out}"], "at least one scheme is required"),
    ],
    ids=["sweep-missing-dir", "bounds-missing-dir", "single-two-schemes", "sweep-no-schemes"],
)
def test_unwritable_output_or_bad_scheme_list_exits_two(
    argv, message, tmp_path, capsys, monkeypatch
):
    # one error line and exit 2 before any trial is drawn, and no output file left behind
    calls, draws = [], experiments._effective_draws
    monkeypatch.setattr(experiments, "_effective_draws", lambda *a: calls.append(1) or draws(*a))
    paths = {"missing": str(tmp_path / "missing" / "x.csv"), "out": str(tmp_path / "x.csv")}
    cfg = write_config(tmp_path, TOY)
    assert main([arg.format(**paths) for arg in argv] + ["--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(**paths))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert calls == []
    assert not (tmp_path / "missing").exists() and not (tmp_path / "x.csv").exists()


def test_sweep_into_a_directory_exits_two_before_any_trial(tmp_path, capsys, monkeypatch):
    # an --out that names a directory is refused, naming it, before run_sweep starts
    calls, sweep = [], cli.run_sweep
    monkeypatch.setattr(cli, "run_sweep", lambda *a: calls.append(1) or sweep(*a))
    out = tmp_path / "outdir"
    out.mkdir()
    assert main(["sweep", "--config", write_config(tmp_path, TOY), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: failed writing sweep CSV to {out}: it is a directory\n"
    assert calls == [] and list(out.iterdir()) == []


def test_missing_config_exits_two(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "none.cfg"), "--out", "x.csv"]) == 2


def test_unknown_scheme_exits_two(tmp_path, capsys):
    # the engine's one error line names the id and lists the valid ones, on sweep and single
    cfg = write_config(tmp_path, TOY)
    out = tmp_path / "x.csv"
    for argv in (["sweep", "--schemes", "OPT_PC_IRS, MAGIC", "--out", str(out)],
                 ["single", "--n", "8", "--scheme", "MAGIC"]):
        assert main([*argv, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            "error: unknown scheme 'MAGIC'; valid: OPT_PC_IRS, INV_PC_IRS, OPT_PC_NO_IRS,"
            " INV_PC_NO_IRS, FIXED_PHASE_OPT_PC\n"
        )


def test_bad_arguments_exit_two():
    assert main(["sweep"]) == 2


def test_duplicate_scheme_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, TOY)
    out = tmp_path / "x.csv"
    code = main(
        ["sweep", "--config", cfg, "--schemes", "OPT_PC_IRS,OPT_PC_IRS", "--out", str(out)]
    )
    assert code == 2
    assert "duplicate schemes" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_config_exits_two(tmp_path):
    cfg = write_config(tmp_path, TOY + "pmax = nan\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def test_count_past_int64_exits_two_naming_it(tmp_path, capsys):
    # a 401-digit M overflowed a float in the finiteness check: a traceback and exit 1
    big = "1" + "0" * 400
    cfg = write_config(tmp_path, TOY.replace("m = 2", f"m = {big}"))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: M must be below 2**63, got {big}\n"
    assert not out.exists()


def test_block_direct_with_direct_scheme_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, TOY + "block_direct = true\n")
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", cfg, "--schemes", "OPT_PC_IRS,INV_PC_NO_IRS", "--out", str(out)])
    assert code == 2
    assert "no direct link for INV_PC_NO_IRS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme, bound", [("INV_PC_IRS", True), ("FIXED_PHASE_OPT_PC", False)])
def test_single_prints_the_one_point_sweep_csv(scheme, bound, tmp_path, capsys):
    cfg = write_config(tmp_path, TOY.replace("n_sweep = 8, 16", "n_sweep = 16"))
    out = tmp_path / "one.csv"
    assert main(["sweep", "--config", cfg, "--schemes", scheme, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["single", "--config", cfg, "--n", "16", "--scheme", scheme]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text(encoding="utf-8")
    _, row = printed.splitlines()
    assert row.startswith(f"{scheme},16,")
    assert all(row.split(",")[-2:]) == bound  # bound_mse and n_threshold filled or empty


@pytest.mark.parametrize("pure_los", [False, True])
@pytest.mark.parametrize(
    "argv, scheme",
    [
        (["sweep", "--schemes", "FIXED_PHASE_OPT_PC,INV_PC_IRS"], "FIXED_PHASE_OPT_PC"),
        (["single", "--n", "8", "--scheme", "INV_PC_IRS"], "INV_PC_IRS"),
    ],
)
def test_degenerate_channel_exits_two(argv, scheme, pure_los, tmp_path, capsys):
    # rho_r underflows to 0 at this exponent, so every reflected gamma is 0; four
    # levels leave the bound columns empty, so the bound inputs' rho_min > 0
    # check does not come first (test_underflowing_rho_min_exits_two_before_any_trial)
    text = TOY + "l = 4\nblock_direct = true\npathloss_exponent_reflected = 400\n"
    cfg = write_config(tmp_path, text + f"pure_los = {pure_los}\n")
    out = tmp_path / "x.csv"
    tail = ["--out", str(out)] if argv[0] == "sweep" else []
    assert main([*argv, "--config", cfg, *tail]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"{scheme} at N=8, trial 0: zero effective channel, power control undefined"
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["pathloss_exponent_reflected = 200", "device_center = 1e150, 0, 0"]
)
@pytest.mark.parametrize(
    "argv",
    [["sweep"], ["single", "--n", "8", "--scheme", "OPT_PC_NO_IRS"], ["bounds"]],
    ids=lambda argv: argv[0],
)
def test_underflowing_rho_min_exits_two_before_any_trial(
    argv, line, tmp_path, capsys, monkeypatch
):
    # rho_1 min(rho_r) underflows to 0 at l = 2: the bound inputs refuse it, naming
    # rho_min, before any trial is drawn and before any output is written
    calls = []
    monkeypatch.setattr(experiments, "_effective_draws", lambda *a: calls.append(1))
    cfg = write_config(tmp_path, TOY + line + "\n")
    out = tmp_path / "x.csv"
    tail = [] if argv[0] == "single" else ["--out", str(out)]
    assert main([*argv, "--config", cfg, *tail]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = r"error: rho_min = rho_1 min\(rho_r\) underflows to 0 \(rho_1 = \S+\)\n"
    assert re.fullmatch(message, captured.err)
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("pure_los", [False, True])
def test_underflowing_gamma_exits_two(pure_los, tmp_path, capsys):
    # rho_r is about 1e-233 at this exponent: every gamma is nonzero, but its
    # square underflows to 0, which leaves power control as undefined as a zero;
    # four levels, as rho_1 rho_r underflows too
    text = TOY + "l = 4\nblock_direct = true\npathloss_exponent_reflected = 100\n"
    cfg = write_config(tmp_path, text + f"pure_los = {pure_los}\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", cfg, "--schemes", "OPT_PC_IRS", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: OPT_PC_IRS at N=8, trial 0: \|gamma\|\^2 underflows the float64 dynamic "
        r"range: \|gamma\| = \S+ squares to 0, power control undefined\n",
        captured.err,
    )
    assert not out.exists()


def run_scaling_script(argv) -> int:
    script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_scaling_law.py"))
    return script["main"](argv)


@pytest.mark.parametrize(
    "line, bad, message",
    [
        ("trials = 3", "trials = 0", "trials must be a positive integer, got 0"),
        ("n_sweep = 8, 16", "n_sweep = 16, 8", "n_sweep must be strictly increasing"),
        ("n_sweep = 8, 16", "n_sweep = 8,x", "n_sweep: cannot parse 'x' as int"),
        ("seed = 5", "seed = 5\nl = 4", "the bound assumes binary phases (l = 2), got l = 4"),
    ],
    ids=["no-trials", "decreasing-n", "unparsable-n", "four-levels"],
)
def test_scaling_script_errors_exit_two(line, bad, message, tmp_path, capsys):
    cfg = write_config(tmp_path, TOY.replace(line, bad))
    out = tmp_path / "scaling.csv"
    assert run_scaling_script(["--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_scaling_script_writes_the_sweep_csv_and_its_ratios(tmp_path, capsys):
    # the recipe script is irs-aircomp sweep of INV_PC_IRS plus a printed table
    cfg = write_config(tmp_path, TOY.replace("n_sweep = 8, 16", "n_sweep = 8, 16, 32"))
    out, swept = tmp_path / "scaling.csv", tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--schemes", "INV_PC_IRS", "--out", str(swept)]) == 0
    capsys.readouterr()
    assert run_scaling_script(["--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == swept.read_bytes()
    header, *table, slope, wrote = capsys.readouterr().out.splitlines()
    assert header.split() == ["N", "mean", "MSE", "std.", "error", "bound", "mean/bound"]
    assert slope.startswith("log-log slope: mean ") and wrote == f"wrote {out}"
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [line.split()[0] for line in table] == [row["N"] for row in rows] == ["8", "16", "32"]
    ratios = [float(row["mean_mse"]) / float(row["bound_mse"]) for row in rows]
    assert [line.split()[-1] for line in table] == [f"{ratio:.3f}" for ratio in ratios]
