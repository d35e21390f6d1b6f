"""Oracle checks of the paper's claims, one implementation each.

``irs-aircomp validate`` and the acceptance suite run the same checks,
each at its own generator and budget.  A check returns its worst-case
figure and leaves the tolerance to the caller; a generator and a budget
fix every draw, and so the figure.
"""

from __future__ import annotations

import numpy as np

from .analysis import expected_channel_power_gain
from .channel import SystemConfig, effective_scalar_channel, make_geometry, sample_channels
from .experiments import compute_long_term
from .numerics import RngStream
from .protocol import (
    PhaseShiftVector,
    evaluate_mse,
    evaluate_mse_general,
    optimal_power_control,
    oracle_power_control,
    receive_beamformer,
)

__all__ = [
    "random_power_instance",
    "power_control_gap",
    "channel_power_error",
    "mse_identity_error",
]

# (Rician factor, M, N) of the channel-power configurations
_CHANNEL_POWER_CASES = ((1.0, 1, 8), (10.0, 1, 64), (1.0, 10, 8), (10.0, 10, 64), (10.0, 1, 8))


def random_power_instance(rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """1 to 5 effective channels spanning four decades, and a noise power of 0 or 1."""
    K = int(rng.integers(1, 6))
    mags = 10.0 ** rng.uniform(-2.0, 2.0, K)
    phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, K))
    return mags * phases, float(rng.choice([0.0, 1.0]))


def power_control_gap(rng: np.random.Generator, instances: int) -> tuple[float, float, bool]:
    """Closed-form power control against the dense 1-D search oracle at Pmax = 1.

    Returns the worst signed excess (opt - oracle)/scale, the worst
    |opt - oracle|/scale, and whether every closed-form power lay in
    [0, Pmax].
    """
    worst_excess = worst_diff = 0.0
    feasible = True
    for _ in range(instances):
        gammas, sigma2 = random_power_instance(rng)
        opt = optimal_power_control(gammas, 1.0, sigma2)
        orc = oracle_power_control(gammas, 1.0, sigma2)
        scale = max(opt.mse, orc.mse, 1e-12)
        worst_excess = max(worst_excess, (opt.mse - orc.mse) / scale)
        worst_diff = max(worst_diff, abs(opt.mse - orc.mse) / scale)
        feasible = feasible and bool(np.all((opt.powers >= 0) & (opt.powers <= 1.0 + 1e-12)))
    return worst_excess, worst_diff, feasible


def channel_power_error(rng: np.random.Generator, calls: int) -> tuple[float, float]:
    """Monte Carlo E|v^H h(Theta)|^2 against the closed form: worst relative error and its s.e.

    Five (Rician factor, M, N) configurations, each with random binary
    phases and 200 co-located devices at one random angle, so that every
    call draws 200 independent samples.  The standard error is that of
    the worst configuration's Monte Carlo mean over its ``calls`` (at
    least 2) per-call means, relative to the closed form.
    """
    copies = 200
    worst = stderr = 0.0
    for i, (delta, M, N) in enumerate(_CHANNEL_POWER_CASES):
        nu = float(rng.uniform(-np.pi / 2, np.pi / 2))
        cfg = SystemConfig(
            M=M, N=N, K=copies, rician_delta=delta, nu=(nu,) * copies, device_radius=0.0
        )
        geometry = make_geometry(cfg, RngStream(4100 + i, 0))
        theta = PhaseShiftVector(rng.integers(0, 2, N), 2)
        v = receive_beamformer(geometry.phi_r, M)
        expected = expected_channel_power_gain(geometry, cfg, theta)[0]
        total, per_call = 0.0, []
        for j in range(calls):
            realization = sample_channels(geometry, cfg, RngStream(4200 + i, j))
            gammas = effective_scalar_channel(realization, v, theta)
            per_call.append(float(np.mean(np.abs(gammas) ** 2)))
            total += per_call[-1]
        error = abs(total / calls - expected) / expected
        if error > worst:
            worst = error
            stderr = float(np.std(per_call, ddof=1) / np.sqrt(calls) / expected)
    return worst, stderr


def mse_identity_error(rng: np.random.Generator, instances: int) -> float:
    """Vector-channel MSE against scalar-channel MSE for phase-aligned b, worst relative gap.

    Random small systems with unit path losses and voted phases; the
    transmit scalars are the optimal powers aligned to each device's
    effective channel, so the two MSE forms must agree.
    """
    worst = 0.0
    for i in range(instances):
        cfg = SystemConfig(
            M=int(rng.integers(1, 6)),
            N=int(rng.integers(2, 17)),
            K=int(rng.integers(1, 7)),
            sigma2=float(rng.uniform(0.0, 2.0)),
            Pmax=float(rng.uniform(0.1, 2.0)),
            ref_loss_linear=1.0,
            pathloss_exponent_reflected=0.0,
            pathloss_exponent_direct=0.0,
        )
        geometry = make_geometry(cfg, RngStream(808, i))
        lt = compute_long_term(geometry, cfg)
        realization = sample_channels(geometry, cfg, RngStream(809, i))
        gammas = effective_scalar_channel(realization, lt.v, lt.theta_voted)
        if np.any(np.abs(gammas) == 0.0):
            continue
        sol = optimal_power_control(gammas, cfg.Pmax, cfg.sigma2)
        b = np.sqrt(sol.powers) * gammas.conj() / np.abs(gammas)
        general = evaluate_mse_general(lt.v, lt.theta_voted, b, sol.eta, realization, cfg.sigma2)
        reduced = evaluate_mse(gammas, sol, cfg.sigma2)
        worst = max(worst, abs(general - reduced) / max(reduced, 1e-12))
    return worst
