"""Closed-form performance theory for the multi-timescale protocol.

Vote-alignment probability, the large-system array-gain approximation,
the MSE upper bound under suboptimal (inversion) power control, the
element-count threshold for near-optimality of channel inversion, and
the per-realization MSE lower bound.  The asymptotic expressions assume
binary phases (levels = 2); the simulator itself supports any level
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import Geometry, SystemConfig, _require_geometry
from .numerics import _MAX_FLOAT, _require_count, _require_powers, array_response, sinc_normalized
from .protocol import PhaseShiftVector

__all__ = [
    "AsymptoticParams",
    "lambda1",
    "approx_array_gain",
    "mse_upper_bound",
    "n_threshold",
    "mse_lower_bound",
    "group_split",
    "min_gamma_sq_approx",
    "expected_channel_power_gain",
]

_SINC_HALF_SQ = sinc_normalized(0.5) ** 2  # (2/pi)^2


def _require_epsilon(epsilon: float) -> None:
    """Reject a target optimality ratio epsilon outside (0, 1), NaN included."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")


@dataclass(frozen=True)
class AsymptoticParams:
    """Inputs to the large-system bounds.

    ``rho_min`` is the IRS-AP path loss times the smallest device-IRS
    path loss, rho_1 rho_{r,1}; ``epsilon`` is the target optimality
    ratio in (0, 1).  M, N and K are positive integers, Pmax a positive
    and sigma2 a non-negative finite power.
    """

    M: int
    N: int
    K: int
    Pmax: float
    sigma2: float
    rho_min: float
    epsilon: float = 0.9

    def __post_init__(self) -> None:
        for name in ("M", "N", "K"):
            _require_count(getattr(self, name), name)
        _require_powers(self.Pmax, self.sigma2)
        if not 0.0 < self.rho_min <= 1.0:
            raise ValueError("rho_min must be in (0, 1]")
        _require_epsilon(self.epsilon)


def lambda1(K: int) -> float:
    """Probability that a device's preferred binary phase wins the K-device vote.

    The other K-1 devices independently share the device's preference
    with probability 1/2 each; the device wins when at least half of
    them agree.  For even K an exact tie is possible and is credited
    with half its probability mass, which matches the deterministic
    smaller-phase tie-break on average over symmetric angle draws.
    Always in [1/2, 1].

    Exact big-integer binomial arithmetic, no overflow at any K.
    """
    _require_count(K, "K")
    n = K - 1
    if K % 2 == 1:
        wins = sum(math.comb(n, j) for j in range((K - 1) // 2, K))
        return float(Fraction(wins, 2**n))
    wins = sum(math.comb(n, j) for j in range(K // 2, K))
    tie = math.comb(n, (K - 2) // 2)
    return float(Fraction(2 * wins + tie, 2 ** (n + 1)))


def approx_array_gain(N: int, K: int) -> float:
    """Large-system mean array gain after voting: (2 N^2 / (pi K)) sinc(1/2)^2."""
    _require_count(N, "N")
    _require_count(K, "K")
    return (2.0 * N**2 / (math.pi * K)) * _SINC_HALF_SQ


def mse_upper_bound(params: AsymptoticParams) -> float:
    """Large-system MSE upper bound under inversion power control.

    pi K sigma^2 / (2 Pmax rho_min sinc(1/2)^2 M N^2): decays as
    K/(N^2 M).  Valid in the binary-phase, large-N regime.
    """
    p = params
    return (math.pi * p.K * p.sigma2) / (
        2.0 * p.Pmax * p.rho_min * _SINC_HALF_SQ * p.M * p.N**2
    )


def n_threshold(params: AsymptoticParams) -> float:
    """Element count beyond which inversion power control loses at most 1 - epsilon.

    ``params.rho_min`` is the IRS-AP path loss times the weakest
    device's IRS-link path loss.  Derived from the large-system
    approximation of the weakest effective channel, so it is meaningful
    only where that approximation holds.
    """
    p = params
    root_eps = math.sqrt(p.epsilon)
    return math.sqrt(
        (math.pi * p.K * root_eps * p.sigma2)
        / (2.0 * p.rho_min * p.M * p.Pmax * (1.0 - root_eps) * _SINC_HALF_SQ)
    )


def mse_lower_bound(gamma1_sq: float, Pmax: float, sigma2: float) -> float:
    """Per-realization MSE floor from the weakest effective channel power.

    Pmax must be positive and finite, sigma2 non-negative and finite, and
    ``gamma1_sq`` positive and finite.
    """
    _require_powers(Pmax, sigma2)
    if not 0 < gamma1_sq <= _MAX_FLOAT:  # also NaN
        raise ValueError(f"gamma1_sq must be positive and finite, got {gamma1_sq!r}")
    return Pmax * sigma2 * gamma1_sq / (sigma2 + Pmax * gamma1_sq) ** 2


def group_split(theta_star: PhaseShiftVector, theta_k: PhaseShiftVector) -> tuple[int, int]:
    """Element counts where the voted phase equals / differs from device k's preference."""
    if theta_star.num_elements != theta_k.num_elements or theta_star.levels != theta_k.levels:
        raise ValueError("phase-shift vectors must share N and levels")
    n1 = int(np.count_nonzero(theta_star.indices == theta_k.indices))
    return n1, theta_star.num_elements - n1


def min_gamma_sq_approx(params: AsymptoticParams) -> float:
    """Large-system weakest effective channel power: (2 rho_min sinc^2 / (pi K)) M N^2."""
    p = params
    return (2.0 * p.rho_min * _SINC_HALF_SQ / (math.pi * p.K)) * p.M * p.N**2


def expected_channel_power_gain(
    geometry: Geometry, config: SystemConfig, theta: PhaseShiftVector
) -> np.ndarray:
    """Closed-form E|v^H h_k(Theta)|^2 under the static beamformer, per device.

    rho_d + (M rho_1 rho_r / (delta + 1)) (delta |a_N^H(phi_t) Theta a_N(nu_k)|^2 + N);
    the pure line-of-sight limit drops the scattered N term.  A geometry
    not made under ``config`` (another device count or spacing ratio)
    raises ``ValueError``.
    """
    _require_geometry(geometry, config)
    N, spacing = theta.num_elements, config.spacing_ratio
    a_t = array_response(N, geometry.phi_t, spacing)
    coeff = theta.phasors
    gains = np.empty(config.K)
    for k in range(config.K):
        a_k = array_response(N, geometry.nu[k], spacing)
        align = abs(np.vdot(a_t, coeff * a_k)) ** 2
        base = config.M * geometry.rho_1 * geometry.rho_r[k]
        if config.pure_los:
            reflected = base * align
        else:
            d = config.rician_delta
            reflected = base / (d + 1.0) * (d * align + N)
        gains[k] = geometry.rho_d[k] + reflected
    return gains
