"""The multi-timescale protocol.

Long-term stage: a static receive beamformer from the IRS arrival angle
and a discrete IRS phase configuration built from per-device phase
projections fused by majority vote.  The projection is one kernel over
all devices, a (K, N) level-index matrix (:func:`phase_index_rows`),
and the vote one count over that matrix (:func:`vote_indices`);
:func:`per_device_phases` and :func:`majority_vote` are their per-device
forms.  Short-term stage: per-block optimal transmit power control with
its denoising factor, the channel-inversion baseline, exact MSE
evaluation, and an independent 1-D search oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, effective_scalar_channel
from .numerics import array_response

__all__ = [
    "DegenerateChannelError",
    "PhaseShiftVector",
    "PowerSolution",
    "receive_beamformer",
    "quantize_phase",
    "phase_index_rows",
    "vote_indices",
    "per_device_phases",
    "majority_vote",
    "optimal_power_control",
    "channel_inversion_power_control",
    "power_control_rows",
    "evaluate_mse",
    "evaluate_mse_general",
    "oracle_power_control",
]

TWO_PI = 2.0 * np.pi


class DegenerateChannelError(ValueError):
    """A device has zero effective channel; power control would divide by it."""


@dataclass(frozen=True, eq=False)
class PhaseShiftVector:
    """N discrete IRS phases, each an exact integer multiple of 2*pi/levels.

    Stored as integer level indices so equality of phases is exact.
    """

    indices: np.ndarray
    levels: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if idx.ndim != 1 or np.any(idx < 0) or np.any(idx >= self.levels):
            raise ValueError("indices must be a 1-D array of values in [0, levels)")

    @property
    def num_elements(self) -> int:
        return int(self.indices.shape[0])

    @property
    def phases(self) -> np.ndarray:
        return self.indices * (TWO_PI / self.levels)

    @classmethod
    def zero(cls, n_elements: int, levels: int) -> "PhaseShiftVector":
        """All-zero phases (the fixed, non-configured surface)."""
        return cls(indices=np.zeros(n_elements, dtype=np.int64), levels=levels)


@dataclass(frozen=True, eq=False)
class PowerSolution:
    """Per-device transmit powers, the denoising factor, and the achieved MSE.

    ``critical_number`` counts devices transmitting at exactly Pmax
    under the weakest-first ordering.
    """

    powers: np.ndarray
    eta: float
    critical_number: int
    mse: float
    scheme_label: str = "optimal"

    def __post_init__(self) -> None:
        p = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "powers", p)
        if np.any(p < 0):
            raise ValueError("powers must be non-negative")
        if np.any(p > 0) and not self.eta > 0:
            raise ValueError("eta must be positive when any device transmits")
        if not 0 <= self.critical_number <= p.shape[0]:
            raise ValueError("critical_number must lie in [0, K]")


def receive_beamformer(phi_r: float, M: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Static unit-norm receive beamformer: the IRS-arrival steering vector / sqrt(M)."""
    return array_response(M, phi_r, spacing_ratio) / np.sqrt(M)


# Elements per row block of the phase-index kernel: a block stays in
# cache at large N and amortises the per-call overhead at small N.
_PHASE_BLOCK = 1 << 14


# 2*pi = _TWO_PI_HI + _TWO_PI_LO exactly: the high part keeps 26
# significant bits (a multiple of 2**-23), the low part the other 27.
_TWO_PI_HI = math.floor(TWO_PI * 2**23) / 2**23
_TWO_PI_LO = TWO_PI - _TWO_PI_HI
# Below this |theta| the quotient n is at most 2**26, so n*_TWO_PI_HI
# and n*_TWO_PI_LO are exact products.
_REDUCE_LIMIT = 2**26 * TWO_PI


def _mod_2pi(theta: np.ndarray) -> np.ndarray:
    """``np.mod(theta, 2*pi)`` bit for bit, without libm ``fmod``.

    A Cody-Waite reduction of u = |theta|: with n = floor(u / 2*pi),
    r = (u - n*HI) - n*LO.  Both products are exact, and so is
    u - n*HI (a multiple of ulp(u), at most u or 2*pi in magnitude), so
    r is the one rounding of u - n*2*pi.  The correctly rounded quotient is never
    below the true one and at most one above it, so n is either the
    true quotient, and r the exact remainder that ``fmod`` returns, or
    one too large, and r a small negative number that one added 2*pi
    takes back to that exact remainder (its rounding error is far below
    half an ulp of a remainder that close to 2*pi).  Negative theta then
    takes numpy's own step, the rounded 2*pi - r for a non-zero
    remainder, and a zero remainder is +0.  Inputs at or past
    ``_REDUCE_LIMIT``, and NaN, go to ``np.mod`` itself.
    """
    u = np.abs(theta)
    if not (u < _REDUCE_LIMIT).all():
        return np.mod(theta, TWO_PI)
    n = u / TWO_PI
    np.floor(n, out=n)
    r = n * _TWO_PI_HI
    np.subtract(u, r, out=r)
    n *= _TWO_PI_LO
    r -= n
    np.add(r, TWO_PI, out=r, where=r < 0.0)
    np.subtract(TWO_PI, r, out=r, where=(theta < 0.0) & (r > 0.0))
    return r


def _quantize_indices(theta: np.ndarray, levels: int) -> np.ndarray:
    """Nearest level index by circular distance; ties go to the smaller phase value.

    :func:`_mod_2pi` maps any phase into [0, 2*pi]; 2*pi itself lands
    on index ``levels``, which wraps to 0 like every other round-up past
    the top level.
    """
    x = _mod_2pi(theta)
    x *= levels / TWO_PI
    lo = np.floor(x)
    x -= lo  # distance above the lower level, in level steps
    idx = lo.astype(np.int64)
    idx += x > 0.5
    np.subtract(idx, levels, out=idx, where=idx >= levels)
    tie = x == 0.5
    if tie.any():
        # the top level ties with the wrap to 0, the smaller phase
        idx[tie & (idx == levels - 1)] = 0
    return idx


def quantize_phase(theta: float, levels: int) -> float:
    """Project a phase onto the discrete set {0, 2*pi/L, ..., (L-1)*2*pi/L}.

    Minimizes circular distance; exact ties resolve to the smaller set
    element.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    idx = _quantize_indices(np.array([theta]), levels)[0]
    return float(idx * (TWO_PI / levels))


def phase_index_rows(
    phi_t: float, nu, n_elements: int, levels: int, spacing_ratio: float = 0.5
) -> np.ndarray:
    """Every device's preferred discrete phases as a (K, N) int64 index matrix.

    Row k quantizes 2*pi*spacing_ratio*m*(sin(phi_t) - sin(nu_k)) at
    element m, the continuous phases that conjugate the two steering
    vectors exactly (their inner product reaches N when unquantized).
    Rows are quantized a cache-sized block at a time.
    """
    nu = np.asarray(nu, dtype=float)
    if not np.isfinite(phi_t):
        raise ValueError(f"phi_t must be finite, got {phi_t!r}")
    if nu.ndim != 1 or not np.isfinite(nu).all():
        raise ValueError(f"nu must be a 1-D array of finite angles, got {nu!r}")
    if n_elements < 1 or levels < 1:
        raise ValueError("n_elements and levels must be >= 1")
    steps = TWO_PI * spacing_ratio * np.arange(n_elements)
    diff = np.sin(phi_t) - np.sin(nu)
    out = np.empty((nu.shape[0], n_elements), dtype=np.int64)
    rows = max(1, _PHASE_BLOCK // n_elements)
    for start in range(0, nu.shape[0], rows):
        block = diff[start : start + rows, None]
        out[start : start + rows] = _quantize_indices(steps * block, levels)
    return out


def vote_indices(indices: np.ndarray, levels: int) -> np.ndarray:
    """Per-column plurality of a (K, N) level-index matrix; ties to the smaller phase.

    One count over (element, level) pairs; argmax keeps the first
    maximizer, the smallest level.
    """
    n = indices.shape[1]
    keys = indices + levels * np.arange(n)
    counts = np.bincount(keys.ravel(), minlength=levels * n)
    return counts.reshape(n, levels).argmax(axis=1)


def per_device_phases(
    phi_t: float,
    nu_k: float,
    n_elements: int,
    levels: int,
    spacing_ratio: float = 0.5,
) -> PhaseShiftVector:
    """Device k's preferred discrete phases: one row of :func:`phase_index_rows`."""
    rows = phase_index_rows(phi_t, [nu_k], n_elements, levels, spacing_ratio)
    return PhaseShiftVector(indices=rows[0], levels=levels)


def majority_vote(per_device, levels: int | None = None) -> PhaseShiftVector:
    """Fuse per-device phase preferences element-wise by plurality.

    For each element the discrete phase with the most votes wins; ties
    resolve to the smaller phase value.  The count of :func:`vote_indices`
    over the stacked preferences.
    """
    per_device = list(per_device)
    if not per_device:
        raise ValueError("majority_vote needs at least one device")
    n = per_device[0].num_elements
    if levels is None:
        levels = per_device[0].levels
    for psv in per_device:
        if psv.num_elements != n or psv.levels != levels:
            raise ValueError("all phase-shift vectors must share N and levels")
    stacked = np.stack([psv.indices for psv in per_device])
    return PhaseShiftVector(indices=vote_indices(stacked, levels), levels=levels)


def _gamma_magnitudes(gammas, ndim: int = 1) -> np.ndarray:
    g = np.abs(np.asarray(gammas, dtype=complex))
    if g.ndim != ndim or g.shape[-1] < 1:
        raise ValueError(f"gammas must be a non-empty {ndim}-D array")
    if not np.isfinite(g).all():
        raise ValueError("gammas must be finite, got a NaN or infinite effective channel")
    if (g == 0.0).any():
        raise DegenerateChannelError("zero effective channel, power control undefined")
    return g


def _alignment_mse(g: np.ndarray, powers: np.ndarray, eta: np.ndarray, sigma2: float) -> np.ndarray:
    """Per row: sum of (sqrt(p_k)|gamma_k|/sqrt(eta) - 1)^2 plus sigma^2/eta.

    ``g`` and ``powers`` are (B, K), ``eta`` is (B,).  Compensated
    summation per row: near-optimal solutions cancel catastrophically
    term by term.
    """
    misalign = np.sqrt(powers) * g / np.sqrt(eta)[:, None] - 1.0
    return np.array(
        [
            math.fsum([*row, sigma2 / e])
            for row, e in zip((misalign**2).tolist(), eta.tolist())
        ]
    )


def power_control_rows(gammas, Pmax: float, sigma2: float, inversion: bool = False):
    """Power control on every row of a (B, K) block of effective channels.

    Returns ``(powers, eta, critical_number, mse)``: powers (B, K), the
    other three (B,).  Each row is solved exactly as
    :func:`optimal_power_control` (or, with ``inversion``,
    :func:`channel_inversion_power_control`) solves it alone.
    """
    return _power_rows(_gamma_magnitudes(gammas, ndim=2), Pmax, sigma2, inversion)


def _power_rows(g: np.ndarray, Pmax: float, sigma2: float, inversion: bool):
    """Row-wise kernel on validated magnitudes g (B, K).

    Devices sorted ascending by |gamma|^2 (stable, original index breaks
    ties) transmit at Pmax up to the critical index and channel-invert
    beyond it; the denoising factor is the smallest of the per-prefix
    candidates, smallest index on ties.  The inversion rule fixes the
    critical index at the weakest device, eta = Pmax |gamma_1|^2, so its
    MSE reduces to sigma^2/eta.
    """
    if not Pmax > 0:
        raise ValueError("Pmax must be positive")
    if not sigma2 >= 0:
        raise ValueError("sigma2 must be non-negative")
    B, K = g.shape
    rows = np.arange(B)[:, None]
    g2 = g**2
    if not (g2.min() > 0.0 and g2.max() < np.inf):
        raise ValueError(
            f"|gamma|^2 leaves the float64 dynamic range: |gamma| spans "
            f"[{g.min():.3g}, {g.max():.3g}], squared [{g2.min():.3g}, {g2.max():.3g}]"
        )
    if inversion:
        weakest = g2.argmin(axis=1)[:, None]
        eta = Pmax * g2[rows, weakest][:, 0]
        powers = eta[:, None] / g2
        powers[rows, weakest] = Pmax  # exact, not Pmax*g2min/g2min
        return powers, eta, np.ones(B, dtype=np.int64), sigma2 / eta

    order = np.argsort(g2, axis=1, kind="stable")
    gs, gs2 = g[rows, order], g2[rows, order]
    amp_sum = np.cumsum(np.sqrt(Pmax) * gs, axis=1)
    power_sum = sigma2 + np.cumsum(Pmax * gs2, axis=1)
    eta_candidates = (power_sum / amp_sum) ** 2
    kt = eta_candidates.argmin(axis=1)  # first minimizer
    eta = eta_candidates[rows[:, 0], kt]
    powers = np.empty_like(g)
    powers[rows, order] = np.where(np.arange(K) <= kt[:, None], Pmax, eta[:, None] / gs2)
    return powers, eta, kt + 1, _alignment_mse(g, powers, eta, sigma2)


def _single_row(gammas, Pmax: float, sigma2: float, inversion: bool, label: str) -> PowerSolution:
    powers, eta, kt, mse = _power_rows(_gamma_magnitudes(gammas)[None, :], Pmax, sigma2, inversion)
    return PowerSolution(
        powers=powers[0],
        eta=float(eta[0]),
        critical_number=int(kt[0]),
        mse=float(mse[0]),
        scheme_label=label,
    )


def optimal_power_control(
    gammas, Pmax: float, sigma2: float, scheme_label: str = "optimal"
) -> PowerSolution:
    """MSE-optimal per-block power control and denoising factor.

    Devices sorted ascending by |gamma|^2 (stable, original index breaks
    ties) transmit at Pmax up to the critical index and channel-invert
    beyond it; the denoising factor is the smallest of the per-prefix
    candidates, smallest index on ties.  One row of
    :func:`power_control_rows`.
    """
    return _single_row(gammas, Pmax, sigma2, False, scheme_label)


def channel_inversion_power_control(gammas, Pmax: float, sigma2: float) -> PowerSolution:
    """Channel-inversion baseline: all effective amplitudes aligned exactly.

    The denoising factor is Pmax times the weakest |gamma|^2, so the
    weakest device transmits at exactly Pmax and the MSE reduces to
    sigma^2/eta.  One row of :func:`power_control_rows`.
    """
    return _single_row(gammas, Pmax, sigma2, True, "channel_inversion")


def evaluate_mse(gammas, solution: PowerSolution, sigma2: float) -> float:
    """MSE of a power solution on the scalar effective channels."""
    if not solution.eta > 0:
        raise ValueError("eta must be positive")
    g = np.abs(np.asarray(gammas, dtype=complex))
    return float(_alignment_mse(g[None], solution.powers[None], np.array([solution.eta]), sigma2)[0])


def evaluate_mse_general(
    v: np.ndarray,
    theta: PhaseShiftVector,
    b,
    eta: float,
    realization: ChannelRealization,
    sigma2: float,
) -> float:
    """MSE for arbitrary complex transmit scalars b_k, from the vector channels.

    Equals :func:`evaluate_mse` whenever b_k = sqrt(p_k) * conj(gamma_k)/|gamma_k|.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    b = np.asarray(b, dtype=complex)
    gam = effective_scalar_channel(realization, v, theta)
    if b.shape != gam.shape:
        raise ValueError(f"b must have shape {gam.shape}, got {b.shape}")
    z = gam * b / math.sqrt(eta)
    v_norm_sq = float(np.linalg.norm(v) ** 2)
    terms = ((z.real - 1.0) ** 2 + z.imag**2).tolist()
    return math.fsum([*terms, sigma2 * v_norm_sq / eta])


def _clipped_inversion_mse(g2: np.ndarray, g: np.ndarray, eta, Pmax, sigma2):
    """MSE over a grid of eta values with the per-eta-optimal feasible powers."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    p = np.minimum(Pmax, eta[:, None] / g2[None, :])
    misalign = np.sqrt(p) * g[None, :] / np.sqrt(eta)[:, None] - 1.0
    return (misalign**2).sum(axis=1) + sigma2 / eta


def oracle_power_control(
    gammas, Pmax: float, sigma2: float, eta_grid_resolution: int = 2048
) -> PowerSolution:
    """Independent verification oracle for the optimal power control.

    For fixed eta the MSE-minimizing feasible power is
    min(Pmax, eta/|gamma_k|^2); the oracle scans a dense geometric grid
    of eta values up to the largest prefix candidate and refines the
    best bracket by golden-section search.
    """
    if eta_grid_resolution < 3:
        raise ValueError("eta_grid_resolution must be >= 3")
    g = _gamma_magnitudes(gammas)
    g2 = g**2
    gs2 = np.sort(g2)
    gs = np.sqrt(gs2)
    amp_sum = np.cumsum(np.sqrt(Pmax) * gs)
    power_sum = sigma2 + np.cumsum(Pmax * gs2)
    eta_candidates = (power_sum / amp_sum) ** 2

    eta_hi = float(eta_candidates.max())
    # reach below the exact-inversion knee so the sigma2 = 0 optimum is covered
    eta_lo = 1e-4 * min(float(eta_candidates.min()), Pmax * float(gs2[0]))
    grid = np.geomspace(eta_lo, eta_hi, eta_grid_resolution)
    mse_grid = _clipped_inversion_mse(g2, g, grid, Pmax, sigma2)
    best = int(np.argmin(mse_grid))

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.shape[0] - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while (b - a) > 1e-13 * b:
        fc = _clipped_inversion_mse(g2, g, c, Pmax, sigma2)[0]
        fd = _clipped_inversion_mse(g2, g, d, Pmax, sigma2)[0]
        if fc < fd:
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    eta_star = float((a + b) / 2.0)

    candidates = np.append(grid[max(best - 1, 0) : best + 2], eta_star)
    mse_cand = _clipped_inversion_mse(g2, g, candidates, Pmax, sigma2)
    eta_best = float(candidates[int(np.argmin(mse_cand))])

    powers = np.minimum(Pmax, eta_best / g2)
    mse = float(_alignment_mse(g[None], powers[None], np.array([eta_best]), sigma2)[0])
    return PowerSolution(
        powers=powers,
        eta=eta_best,
        critical_number=int(np.count_nonzero(eta_best / g2 >= Pmax)),
        mse=mse,
        scheme_label="oracle",
    )
