"""Self-tests of the benchmark's correctness checker.

Each check passes on a genuine output of the simulator and fails on a
deliberately corrupted copy of it.  Run from the repository root:

    python3 -m pytest -q benchmark/test_check.py
"""

import copy
import sys
from dataclasses import asdict, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def failed_names(run) -> set[str]:
    checks = check.Checks()
    run(checks)
    return checks.failed_names()


@pytest.fixture(scope="module")
def fixed(tmp_path_factory):
    wl = workloads.SweepFixed(SEED, tmp_path_factory.mktemp("fixed"), inputs.FIXED_CHECK_TRIALS)
    wl.setup()
    return wl, [asdict(r) for r in wl.run_round().output.rows]


@pytest.fixture(scope="module")
def redraw(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("redraw")
    inputs.write_inputs("sweep-redraw-cli", out_dir, SEED)
    wl = workloads.SweepRedrawCli(SEED, out_dir, inputs.REDRAW_CHECK_TRIALS)
    wl.setup()
    wl.run_round()
    return wl


@pytest.fixture(scope="module")
def scaling(tmp_path_factory):
    wl = workloads.ScalingLos(SEED, tmp_path_factory.mktemp("scaling"), inputs.SCALING_CHECK_TRIALS)
    wl.setup()
    return wl, wl.run_round().output


@pytest.fixture(scope="module")
def block(fixed):
    wl, _ = fixed
    system = replace(wl.config.system, N=64)
    geometry = workloads.channel.make_geometry(system, workloads.numerics.RngStream(SEED, 0))
    long_term = workloads.experiments.compute_long_term(geometry, system)
    stream = workloads.numerics.RngStream(SEED, workloads.CHECK_STREAM_BASE)
    return workloads._block(geometry, system, long_term, stream, optimal=True)


def sweep_failures(wl, rows):
    return failed_names(lambda c: workloads._check_sweep(c, rows, wl.config, redraw=False))


def test_genuine_outputs_pass(fixed, redraw, scaling, block):
    wl, rows = fixed
    assert sweep_failures(wl, rows) == set()
    assert failed_names(lambda c: redraw.check(None, c)) == set()
    wl_s, points = scaling
    assert failed_names(lambda c: wl_s.check(points, c)) == set()
    assert failed_names(lambda c: check.check_block(c, block)) == set()


def _drop_row(rows):
    del rows[3]


def _perturb_mse(rows):
    # OPT_PC_IRS at N=128 raised above its inversion twin and above N=64
    row = next(r for r in rows if (r["scheme"], r["N"]) == ("OPT_PC_IRS", 128))
    row["mean_mse"] *= 1e3


def _swap_schemes(rows):
    for r in rows:
        if r["scheme"] == "OPT_PC_IRS":
            r["scheme"] = "FIXED_PHASE_OPT_PC"
        elif r["scheme"] == "FIXED_PHASE_OPT_PC":
            r["scheme"] = "OPT_PC_IRS"


def _wrong_trials(rows):
    rows[0]["trials"] += 1


def _nan_mean(rows):
    rows[1]["mean_mse"] = float("nan")


def _inversion_ktilde(rows):
    next(r for r in rows if r["scheme"] == "INV_PC_IRS")["mean_ktilde"] = 2.0


def _bound(rows):
    next(r for r in rows if r["scheme"] == "OPT_PC_IRS")["bound_mse"] *= 1 + 1e-6


def _threshold(rows):
    next(r for r in rows if r["scheme"] == "INV_PC_IRS")["n_threshold"] *= 1 - 1e-6


def _unsorted_decreasing(rows):
    curve = [r for r in rows if r["scheme"] == "OPT_PC_IRS"]
    curve[1]["mean_mse"], curve[2]["mean_mse"] = curve[2]["mean_mse"], curve[1]["mean_mse"]


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (_drop_row, "rows.complete"),
        (_wrong_trials, "rows.trials"),
        (_nan_mean, "rows.finite_positive"),
        (_inversion_ktilde, "rows.ktilde"),
        (_perturb_mse, "rows.opt_le_inv"),
        (_unsorted_decreasing, "rows.opt_irs_decreasing"),
        (_swap_schemes, "rows.ordering_n256"),
        (_bound, "rows.bound_mse"),
        (_threshold, "rows.n_threshold"),
    ],
)
def test_row_checks_fail_on_corrupted_rows(fixed, corrupt, expected):
    wl, rows = fixed
    rows = copy.deepcopy(rows)
    corrupt(rows)
    assert expected in sweep_failures(wl, rows)


def test_geometry_averaged_curve_must_fall_at_every_step(redraw):
    _, rows = check.parse_csv(redraw.csv_path.read_text(encoding="utf-8"))
    curve = [r for r in rows if r["scheme"] == "OPT_PC_IRS"]
    curve[3]["mean_mse"] = curve[2]["mean_mse"] * (1 + 1e-9)  # a rise far inside the noise
    run = lambda c: workloads._check_sweep(c, rows, redraw.config, redraw=True)  # noqa: E731
    assert "rows.opt_irs_decreasing" in failed_names(run)


def test_csv_checks_fail_on_corrupted_file(redraw):
    header, rows = check.parse_csv(redraw.csv_path.read_text(encoding="utf-8"))
    assert failed_names(lambda c: check.check_csv_format(c, header.upper(), rows)) == {"csv.header"}
    assert failed_names(lambda c: check.check_csv_format(c, header, rows[::-1])) == {"csv.sorted"}


def _wrong_gamma(b):
    """Effective channels of the all-zero phase configuration, not the voted one."""
    rho_1 = check.path_loss(
        np.linalg.norm(np.subtract(b.irs_position, b.ap_position)), b.exponent_reflected, b.ref_loss
    )
    G = np.sqrt(rho_1) * np.outer(
        check.steering(b.M, b.phi_r, b.spacing), check.steering(b.N, b.phi_t, b.spacing).conj()
    )
    b.gammas = (b.h_direct + b.h_reflect @ G.T) @ b.v.conj()


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (lambda b: setattr(b, "v", b.v * np.exp(0.01j * np.arange(b.M))), "block.beamformer"),
        (_wrong_gamma, "block.effective_channel"),
        (lambda b: setattr(b, "gammas", b.gammas * 1.001), "block.effective_channel"),
        (lambda b: setattr(b, "opt_mse", b.opt_mse * (1 + 1e-6)), "block.power_search"),
        (lambda b: setattr(b, "inv_mse", b.inv_mse * (1 + 1e-6)), "block.inversion"),
        (lambda b: setattr(b, "opt_mse", 0.0), "block.lower_bound"),
        (lambda b: setattr(b, "inv_mse", b.opt_mse * 0.5), "block.inversion_vs_search"),
    ],
)
def test_block_checks_fail_on_corrupted_block(block, corrupt, expected):
    b = copy.deepcopy(block)
    corrupt(b)
    assert expected in failed_names(lambda c: check.check_block(c, b))


def _scale_mses(points, factor):
    for p in points:
        p.mses = [m * factor(p.N) for m in p.mses]


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (lambda pts: setattr(pts[0], "bound", pts[0].bound * 1.01), "scaling.bound"),
        (lambda pts: _scale_mses(pts, lambda n: 0.1), "scaling.ratio_above_one"),
        (lambda pts: setattr(pts[-1], "mses", [m * 20 for m in pts[-1].mses]), "scaling.ratio_falls"),
        (lambda pts: _scale_mses(pts, lambda n: (n / 512) ** 1.5), "scaling.slope"),
        (lambda pts: setattr(pts[1], "voted", [1 - v for v in pts[1].voted]), "scaling.vote_fraction"),
    ],
)
def test_scaling_checks_fail_on_corrupted_output(scaling, corrupt, expected):
    wl, points = scaling
    points = copy.deepcopy(points)
    corrupt(points)
    assert expected in failed_names(lambda c: wl.check(points, c))
