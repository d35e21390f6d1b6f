import csv
import re

import pytest

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


def test_sweep_same_seed_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TOY)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


def test_single_matches_closed_form(capsys, tmp_path):
    # one pure line-of-sight device: MSE = 1/(1 + SNR) with the full array gain
    cfg = write_config(
        tmp_path,
        """
        m = 4
        k = 1
        pure_los = true
        block_direct = true
        phi_t = 0.3
        nu = 0.3
        trials = 2
        seed = 9
        """,
    )
    assert main(["single", "--config", cfg, "--n", "16", "--scheme", "OPT_PC_IRS"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("scheme,")
    row = out[1].split(",")
    mse = float(row[5])

    from irs_aircomp.channel import make_geometry, SystemConfig
    from irs_aircomp.numerics import RngStream

    system = SystemConfig(
        M=4, K=1, N=16, pure_los=True, block_direct=True, phi_t=0.3, nu=(0.3,)
    )
    geo = make_geometry(system, RngStream(9, 0))
    gamma_sq = geo.rho_1 * geo.rho_r[0] * 4 * 16**2
    snr = system.Pmax * gamma_sq / system.sigma2
    assert mse == pytest.approx(1.0 / (1.0 + snr), rel=1e-12)


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


def test_bad_config_exits_two(tmp_path):
    cfg = write_config(tmp_path, "nonsense_key = 3\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


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


def test_missing_config_exits_two(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "none.cfg"), "--out", "x.csv"]) == 2


def test_unknown_scheme_exits_two(tmp_path):
    cfg = write_config(tmp_path, TOY)
    code = main(
        ["sweep", "--config", cfg, "--schemes", "MAGIC", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


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
    # rho_r underflows to 0 at this exponent, so every reflected gamma is 0
    text = TOY + "block_direct = true\npathloss_exponent_reflected = 400\n"
    cfg = write_config(tmp_path, text + f"pure_los = {pure_los}\n")
    out = tmp_path / "x.csv"
    tail = ["--out", str(out)] if argv[0] == "sweep" else []
    assert main([*argv, "--config", cfg, *tail]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"{scheme} at N=8, trial 0: zero effective channel, power control undefined"
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("pure_los", [False, True])
def test_underflowing_gamma_exits_two(pure_los, tmp_path, capsys):
    # rho_r is about 1e-233 at this exponent: every gamma is nonzero, but its
    # square underflows to 0, which leaves power control as undefined as a zero
    text = TOY + "block_direct = true\npathloss_exponent_reflected = 100\n"
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
