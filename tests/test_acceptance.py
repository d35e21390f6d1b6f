"""Acceptance suite: one end-to-end check per criterion, pinned tolerances.

Each test prints a single PASS/FAIL line before asserting, so a plain
pytest run yields a per-criterion scoreboard.

Two checks pin large-system tolerances at finite sizes that the system
measurably does not reach (details and measured values in their
docstrings); they fail honestly rather than with loosened thresholds:
  - criterion 2, the mean-MSE scaling slope and 1.1x closed-form bound;
  - criterion 5's second clause, the array-gain approximation at N=512.
"""

import math
import time

import numpy as np

from irs_aircomp.analysis import (
    AsymptoticParams,
    approx_array_gain,
    group_split,
    lambda1,
    n_threshold,
)
from irs_aircomp.channel import (
    SystemConfig,
    effective_scalar_channel,
    make_geometry,
    sample_channels,
)
from irs_aircomp.experiments import ExperimentConfig, Scheme, compute_long_term, run_sweep
from irs_aircomp.numerics import RngStream, array_response
from irs_aircomp.oracles import channel_power_error, mse_identity_error, power_control_gap
from irs_aircomp.protocol import optimal_power_control, per_device_phases

def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def pure_los_system(N: int, sigma2: float, K: int = 21, M: int = 10) -> SystemConfig:
    """Blocked direct links, purely line-of-sight IRS links, unit path losses."""
    return SystemConfig(
        M=M,
        N=N,
        K=K,
        L=2,
        Pmax=1.0,
        sigma2=sigma2,
        pure_los=True,
        block_direct=True,
        ref_loss_linear=1.0,
        pathloss_exponent_reflected=0.0,
        pathloss_exponent_direct=0.0,
        device_radius=0.0,
    )


def test_criterion_1_power_control_matches_oracle():
    """Closed-form power control vs the dense 1-D search oracle, 200 instances."""
    t0 = time.time()
    worst_excess, worst_diff, feasible = power_control_gap(np.random.default_rng(1001), 200)
    elapsed = time.time() - t0
    ok = worst_excess <= 1e-9 and worst_diff <= 1e-7 and feasible and elapsed < 10.0
    report(
        1,
        "optimal power control vs search oracle",
        ok,
        f"worst excess {worst_excess:.2e}, worst |rel diff| {worst_diff:.2e}, {elapsed:.1f}s",
    )
    assert worst_excess <= 1e-9
    assert worst_diff <= 1e-7
    assert feasible
    assert elapsed < 10.0


def test_criterion_2_mse_scaling_law():
    """Mean MSE under the full-power-weakest inversion rule vs the N^-2 law.

    Pinned recipe: pure line-of-sight, blocked direct links, binary
    phases, M=10, K=21, unit path losses, 10^3 angle-geometry draws per
    point, N in {64, 128, 256, 512}; requires fitted log-log slope in
    [-2.3, -1.7] and mean MSE <= 1.1x the closed-form bound at N in
    {256, 512}: one redrawn-geometry ``run_sweep``, whose bound column at
    unit path losses is the closed form at rho_min = 1.

    This check FAILS by construction of the finite-size statistics, and
    is kept at its stated tolerances deliberately.  The closed-form
    bound replaces the weakest device's array gain by the large-system
    mean gain; at K=21 the minimum over devices sits far below that mean
    until N is in the tens of thousands (measured here: mean/bound 9.3x
    at N=256, 3.5x at N=512), and the 1/min statistic is heavy-tailed at
    N=64, which steepens the fitted slope to about -4 to -5.  The
    inverse-square trend itself is visible between consecutive large-N
    points; see scripts/run_scaling_law.py for the wide-N diagnostic.
    """
    t0 = time.time()
    sweep = (64, 128, 256, 512)
    config = ExperimentConfig(
        system=pure_los_system(sweep[0], 1.0),
        n_sweep=sweep,
        trials=1000,
        seed=101,
        redraw_geometry_per_trial=True,
    )
    rows = run_sweep(config, [Scheme.INV_PC_IRS]).rows  # sorted by N
    slope = float(np.polyfit(np.log(sweep), np.log([r.mean_mse for r in rows]), 1)[0])
    ratios = {r.N: r.mean_mse / r.bound_mse for r in rows}
    elapsed = time.time() - t0
    slope_ok = -2.3 <= slope <= -1.7
    bound_ok = ratios[256] <= 1.1 and ratios[512] <= 1.1
    report(
        2,
        "MSE scaling law and closed-form bound",
        slope_ok and bound_ok and elapsed < 300.0,
        f"slope {slope:.2f} (need [-2.3,-1.7]), mean/bound {ratios[256]:.2f} at N=256 "
        f"and {ratios[512]:.2f} at N=512 (need <= 1.1), {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert slope_ok, f"fitted slope {slope:.3f} outside [-2.3, -1.7]"
    assert bound_ok, f"mean/bound ratios {ratios[256]:.2f}, {ratios[512]:.2f} exceed 1.1"


def test_criterion_3_channel_inversion_asymptotically_optimal():
    """Optimal-vs-inversion MSE ratio approaches 1 beyond the element threshold.

    Same pure line-of-sight regime; sigma2 = 20 puts the epsilon = 0.9
    threshold at about 55 elements, safely below every tested N, and the
    ratio is estimated as the mean of per-realization MSE_o/MSE_c over
    10^3 angle-geometry draws (the Monte Carlo estimate of E[ratio]):
    one redrawn-geometry ``run_sweep`` of both schemes, whose per-trial
    MSEs pair the two rules on each draw.
    """
    t0 = time.time()
    sigma2 = 20.0
    sweep = (256, 384, 512, 640)
    params = AsymptoticParams(
        M=10, N=512, K=21, Pmax=1.0, sigma2=sigma2, rho_min=1.0, epsilon=0.9
    )
    threshold = n_threshold(params)
    assert threshold <= min(sweep), "parameterization must exercise the guarantee"
    config = ExperimentConfig(
        system=pure_los_system(sweep[0], sigma2),
        n_sweep=sweep,
        trials=1000,
        seed=202,
        redraw_geometry_per_trial=True,
    )
    mses = run_sweep(config, [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS]).trial_mse
    mean_ratio = {}
    for N in sweep:
        ratios = mses["OPT_PC_IRS", N] / mses["INV_PC_IRS", N]
        mean_ratio[N] = math.fsum(ratios.tolist()) / len(ratios)
    elapsed = time.time() - t0
    above_threshold_ok = all(mean_ratio[N] >= 0.9 for N in sweep)
    at_512_ok = mean_ratio[512] >= 0.98
    detail = ", ".join(f"N={N}: {mean_ratio[N]:.4f}" for N in sweep)
    report(
        3,
        "channel inversion asymptotic optimality",
        above_threshold_ok and at_512_ok and elapsed < 300.0,
        f"threshold {threshold:.0f}, {detail}, {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert above_threshold_ok
    assert at_512_ok


def test_criterion_4_effective_channel_power_closed_form():
    """Monte Carlo E|v^H h(Theta)|^2 against the closed form, five configurations.

    500 calls of 200 replicated devices: 1e5 draws per configuration.
    """
    t0 = time.time()
    worst, stderr = channel_power_error(np.random.default_rng(4004), 500)
    elapsed = time.time() - t0
    ok = worst <= 0.02 and elapsed < 60.0
    report(
        4,
        "effective channel power closed form",
        ok,
        f"worst relative error {worst:.4f} (s.e. {stderr:.4f}) over 5 configurations, "
        f"{elapsed:.0f}s",
    )
    assert worst <= 0.02
    assert elapsed < 60.0


def test_criterion_5_vote_statistics_and_array_gain():
    """Vote-split fraction and mean voted array gain, 200 random-angle geometries.

    Clause one (green): the empirical mean fraction of elements whose
    vote matches a device's preference sits within 3% of the exact
    binomial probability lambda1(21).

    Clause two FAILS at its stated tolerance and is kept deliberately:
    at N=512, K=21 the measured mean gain exceeds the large-system
    approximation by ~30%.  The approximation keeps only the squared
    coherent mean; the incoherent residual variance contributes ~1.7N,
    i.e. ~16% at N=512 (plus ~2.4% from evaluating the vote-win
    probability exactly instead of by its large-K limit), so agreement
    within 10% needs N of a few thousand at this K.
    """
    t0 = time.time()
    K, N = 21, 512
    cfg = pure_los_system(N, 1.0, K=K)
    fractions = []
    gains = []
    for trial in range(200):
        geo = make_geometry(cfg, RngStream(303, trial))
        lt = compute_long_term(geo, cfg)
        a_t = array_response(N, geo.phi_t, geo.spacing_ratio)
        coeff = np.exp(1j * lt.theta_voted.phases)
        for k in range(K):
            pref = per_device_phases(geo.phi_t, geo.nu[k], N, 2, geo.spacing_ratio)
            n1, _ = group_split(lt.theta_voted, pref)
            fractions.append(n1 / N)
            a_k = array_response(N, geo.nu[k], geo.spacing_ratio)
            gains.append(abs(np.vdot(a_t, coeff * a_k)) ** 2)
    lam = lambda1(K)
    frac_err = abs(float(np.mean(fractions)) - lam) / lam
    gain_ratio = float(np.mean(gains)) / approx_array_gain(N, K)
    elapsed = time.time() - t0
    split_ok = frac_err <= 0.03
    gain_ok = abs(gain_ratio - 1.0) <= 0.10
    report(
        5,
        "vote split probability and array-gain approximation",
        split_ok and gain_ok and elapsed < 120.0,
        f"|N1|/N err {frac_err:.4f} (need <= 0.03), gain/approx {gain_ratio:.3f} "
        f"(need within 0.10 of 1), {elapsed:.0f}s",
    )
    assert elapsed < 120.0
    assert split_ok
    assert gain_ok, f"mean gain is {gain_ratio:.3f}x the large-system approximation"


def test_criterion_6_static_beamformer_unbeaten():
    """No random unit combiner beats the steering-matched one, blocked direct links."""
    t0 = time.time()
    cfg = SystemConfig(M=10, N=64, K=4, block_direct=True)
    geo = make_geometry(cfg, RngStream(606, 0))
    lt = compute_long_term(geo, cfg)
    gen = np.random.default_rng(6006)
    vs = gen.standard_normal((200, 10)) + 1j * gen.standard_normal((200, 10))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    beaten = 0
    worst_margin = np.inf
    for trial in range(20):
        real = sample_channels(geo, cfg, RngStream(606, trial + 1))
        best = optimal_power_control(
            effective_scalar_channel(real, lt.v, lt.theta_voted), cfg.Pmax, cfg.sigma2
        ).mse
        for v in vs:
            mse_v = optimal_power_control(
                effective_scalar_channel(real, v, lt.theta_voted), cfg.Pmax, cfg.sigma2
            ).mse
            worst_margin = min(worst_margin, mse_v - best)
            if mse_v < best - 1e-12:
                beaten += 1
    elapsed = time.time() - t0
    ok = beaten == 0 and elapsed < 60.0
    report(
        6,
        "static receive beamformer optimality",
        ok,
        f"{beaten} of 4000 combiner/realization pairs beat it, "
        f"smallest margin {worst_margin:.3e}, {elapsed:.0f}s",
    )
    assert beaten == 0
    assert elapsed < 60.0


def test_criterion_7_scheme_ordering_and_power_trends():
    """Qualitative curve reproduction at scenario defaults (K=20, M=10).

    One ``run_sweep`` over N 32-512 with the geometry redrawn per trial,
    so the N-trends average over the static angles as well as the
    fading; otherwise a single geometry draw dominates the trend and
    monotonicity is not a statistical statement.  The ordering is read
    from the N=256 rows.  The critical number and the
    optimal-vs-inversion gap come from the per-trial values; the gap is
    measured per realization as 1 - MSE_o/MSE_c, whose mean is
    tail-robust; absolute inversion means are heavy-tailed under deep
    fades of the weakest device.  Every N sees the same trials (a
    smaller surface is a sub-array of a larger one), so neighbouring
    means are positively correlated and the hypot of their standard
    errors overstates the standard error of their difference: the trend
    tests stay valid, and conservative.
    """
    t0 = time.time()
    sweep = (32, 64, 128, 256, 512)
    trials = 1000
    config = ExperimentConfig(
        system=SystemConfig(),
        n_sweep=sweep,
        trials=trials,
        seed=404,
        redraw_geometry_per_trial=True,
    )
    result = run_sweep(
        config,
        [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS, Scheme.FIXED_PHASE_OPT_PC, Scheme.OPT_PC_NO_IRS],
    )
    rows = {r.scheme: r for r in result.rows if r.N == 256}
    opt, fixed, bare = (
        rows["OPT_PC_IRS"],
        rows["FIXED_PHASE_OPT_PC"],
        rows["OPT_PC_NO_IRS"],
    )
    se_opt_fixed = math.hypot(opt.stderr_mse, fixed.stderr_mse)
    se_fixed_bare = math.hypot(fixed.stderr_mse, bare.stderr_mse)
    ordering_ok = (
        fixed.mean_mse - opt.mean_mse > 3 * se_opt_fixed
        and bare.mean_mse - fixed.mean_mse > 3 * se_fixed_bare
    )

    kt_mean, kt_se, gap_mean, gap_se = [], [], [], []
    for N in sweep:
        kts = result.trial_ktilde["OPT_PC_IRS", N]
        ratios = 1.0 - result.trial_mse["OPT_PC_IRS", N] / result.trial_mse["INV_PC_IRS", N]
        kt_mean.append(float(np.mean(kts)))
        kt_se.append(float(np.std(kts, ddof=1) / math.sqrt(trials)))
        gap_mean.append(float(np.mean(ratios)))
        gap_se.append(float(np.std(ratios, ddof=1) / math.sqrt(trials)))

    kt_ok = all(k >= 1.0 for k in kt_mean) and all(
        kt_mean[i + 1] <= kt_mean[i] + math.hypot(kt_se[i], kt_se[i + 1])
        for i in range(len(sweep) - 1)
    )
    gap_ok = all(
        gap_mean[i + 1] <= gap_mean[i] + math.hypot(gap_se[i], gap_se[i + 1])
        for i in range(len(sweep) - 1)
    )
    elapsed = time.time() - t0
    ok = ordering_ok and kt_ok and gap_ok and elapsed < 600.0
    kt_str = "/".join(f"{k:.1f}" for k in kt_mean)
    gap_str = "/".join(f"{g:.2f}" for g in gap_mean)
    report(
        7,
        "scheme ordering, critical number, inversion gap",
        ok,
        f"N=256 means {opt.mean_mse:.2f} < {fixed.mean_mse:.2f} < {bare.mean_mse:.2f}, "
        f"mean k~ {kt_str}, ratio gap {gap_str}, {elapsed:.0f}s",
    )
    assert ordering_ok
    assert kt_ok
    assert gap_ok
    assert elapsed < 600.0


def test_criterion_8_general_mse_identity():
    """Vector-channel MSE equals scalar-channel MSE for phase-aligned transmit scalars."""
    t0 = time.time()
    worst = mse_identity_error(np.random.default_rng(8008), 100)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        8,
        "vector-channel vs scalar-channel MSE identity",
        ok,
        f"worst relative difference {worst:.2e} over 100 instances, {elapsed:.2f}s",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0
