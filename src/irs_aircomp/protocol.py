"""The multi-timescale protocol.

Long-term stage: a static receive beamformer from the IRS arrival angle
and a discrete IRS phase configuration built from per-device phase
projections fused by majority vote.  The projection is one kernel over
all devices, a (K, N) level-index matrix (:func:`phase_index_rows`)
that counts the fixed half-level thresholds each scaled phase passes,
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

    @property
    def phasors(self) -> np.ndarray:
        """exp(1j * phases), read from a table of the L level phasors.

        Each table entry is the same expression on the same level
        phase, so the result equals the N-element ``exp`` bit for bit.
        """
        levels = np.arange(self.levels) * (TWO_PI / self.levels)
        return np.exp(1j * levels)[self.indices]

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

    def __post_init__(self) -> None:
        p = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "powers", p)
        if (p < 0).any():
            raise ValueError("powers must be non-negative")
        if not self.eta > 0 and (p > 0).any():
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


def _reduce_2pi(theta: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Signed Cody-Waite remainder of theta by 2*pi, written into ``out``.

    With q = trunc(theta / 2*pi), out = (theta - q*HI) - q*LO; for
    |theta| below ``_REDUCE_LIMIT`` both products and the first
    difference are exact, so ``out`` is the one rounding of
    theta - q*2*pi.  Rounding is symmetric, so a negative theta gives
    exactly minus the remainder of |theta|.  ``out`` and ``scratch`` are
    buffers of theta's shape, distinct from it and from each other.
    """
    q = np.divide(theta, TWO_PI, out=scratch)
    np.trunc(q, out=q)
    np.multiply(q, _TWO_PI_HI, out=out)
    np.subtract(theta, out, out=out)
    q *= _TWO_PI_LO
    out -= q
    return out


def _quantize_indices(theta: np.ndarray, levels: int) -> np.ndarray:
    """Nearest level index by circular distance; ties go to the smaller phase value.

    The reference definition of the quantizer.  ``np.mod`` maps any
    phase into [0, 2*pi]; 2*pi itself lands on index ``levels``, which
    wraps to 0 like every other round-up past the top level.
    """
    x = np.mod(theta, TWO_PI)
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
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    idx = _quantize_indices(np.array([theta]), levels)[0]
    return float(idx * (TWO_PI / levels))


# Most levels the threshold kernel and the count vote serve.  Each makes
# one pass per level, and the paths above the cap (the reference
# quantizer, the sort vote) cost the same at any level count.  At K=21
# the threshold kernel stops winning near L=16 at N=512 and L=18-20 at
# N=4096 and 8192 (timeit).
_COUNT_LEVELS = 16


def _index_rows(steps: np.ndarray, diff: np.ndarray, levels: int) -> np.ndarray:
    """Level of steps[m]*diff[k] at every (k, m): the body of :func:`phase_index_rows`."""
    K, n = diff.shape[0], steps.shape[0]
    out = np.empty((K, n), dtype=np.int64)
    rows = max(1, _PHASE_BLOCK // n)
    if levels > _COUNT_LEVELS or not abs(steps[-1]) * np.abs(diff).max(initial=0.0) < _REDUCE_LIMIT:
        # above the level cap, past the exact reduction's range, or not finite: the reference path
        for start in range(0, K, rows):
            theta = steps * diff[start : start + rows, None]
            out[start : start + rows] = _quantize_indices(theta, levels)
        return out
    lift = np.where(steps[-1] * diff < 0.0, TWO_PI, 0.0)[:, None]
    shape = (min(rows, K), n)
    theta, x, scratch = np.empty(shape), np.empty(shape), np.empty(shape)
    passed, under_top = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    for start in range(0, K, rows):
        stop = min(start + rows, K)
        b = stop - start
        o, r, flag, top = out[start:stop], x[:b], passed[:b], under_top[:b]
        np.multiply(steps, diff[start:stop, None], out=theta[:b])
        _reduce_2pi(theta[:b], r, scratch[:b])
        r += lift[start:stop]  # np.mod's step for theta < 0; other rows add 0.0
        r *= levels / TWO_PI  # the reference's own x
        # level >= j where x > j - 1/2; at L = 1 the top test zeroes this count
        count = np.greater(r, 0.5, out=flag)
        if levels > 2:  # count in int64; at L = 2 the one flag is the count
            np.copyto(o, flag)
            for j in range(2, levels):
                o += np.greater(r, j - 0.5, out=flag)
            count = o
        np.multiply(count, np.less(r, levels - 0.5, out=top), out=o)
    return out


def phase_index_rows(
    phi_t: float, nu, n_elements: int, levels: int, spacing_ratio: float = 0.5
) -> np.ndarray:
    """Every device's preferred discrete phases as a (K, N) int64 index matrix.

    Row k quantizes theta = 2*pi*spacing_ratio*m*(sin(phi_t) - sin(nu_k))
    at element m, the continuous phases that conjugate the two steering
    vectors exactly (their inner product reaches N when unquantized).
    The levels equal :func:`_quantize_indices` of theta bit for bit, at
    one reduction and L comparisons per element:

    * theta = steps_m * d_k, and |theta| = |steps_m| * |d_k| exactly, so
      a row's phases share one sign and the largest |theta| is the
      product of the two largest factors; past ``_REDUCE_LIMIT``, or
      above ``_COUNT_LEVELS`` levels, the reference quantizer runs
      instead.
    * The reference's level depends on x = fl(np.mod(theta, 2*pi) *
      L/(2*pi)) alone: it is the number of j = 1 .. L-1 with
      x > j - 1/2, and 0 where x >= L - 1/2 (the top level wraps to 0,
      and a tie at L - 1/2 goes to 0, the smaller phase).  Each j - 1/2
      is an exact float, so every comparison is exact.
    * The signed Cody-Waite remainder rho of theta (:func:`_reduce_2pi`)
      is np.mod's exact fmod step when the quotient rounds to its true
      integer part, and np.mod of a negative theta adds 2*pi to it, as
      the kernel does, so x is the reference's own product.
    * Where the quotient comes out one too large, rho has the wrong sign
      and |rho| <= 2*pi * 2**-27 below ``_REDUCE_LIMIT``.  The kernel's
      x is then <= 0 (theta >= 0) or at least fl(2*pi * L/(2*pi))
      (theta < 0), level 0 either way; the reference's x lies within
      L * 2**-27 of L or of 0, level 0 as well.  A zero remainder of a
      negative theta likewise gives x near L here and +0 in np.mod.

    Rows are quantized a cache-sized block at a time.
    """
    nu = np.asarray(nu, dtype=float)
    if not np.isfinite(phi_t):
        raise ValueError(f"phi_t must be finite, got {phi_t!r}")
    if nu.ndim != 1 or not np.isfinite(nu).all():
        raise ValueError(f"nu must be a 1-D array of finite angles, got {nu!r}")
    if n_elements < 1 or levels < 1:
        raise ValueError("n_elements and levels must be >= 1")
    if not (math.isfinite(spacing_ratio) and spacing_ratio > 0):
        raise ValueError(f"spacing_ratio must be finite and positive, got {spacing_ratio!r}")
    steps = TWO_PI * spacing_ratio * np.arange(n_elements)
    return _index_rows(steps, np.sin(phi_t) - np.sin(nu), levels)


def vote_indices(indices: np.ndarray, levels: int) -> np.ndarray:
    """Per-column plurality of a (K, N) level-index matrix; ties to the smaller phase.

    Up to ``_COUNT_LEVELS`` levels, one compare-and-sum per level above
    0, counted in the smallest unsigned type that holds K; level 0 gets
    the rest.  A level takes a column only with strictly more votes than
    every smaller level.  Above the cap, each column is sorted and the
    longest run of equal levels wins, the first (smallest) on ties.
    """
    K, n = indices.shape
    if levels > _COUNT_LEVELS:
        ordered = np.sort(indices.T, axis=1).ravel()  # one column after another, ascending
        fresh = np.empty(ordered.size, dtype=bool)
        fresh[0], fresh[1:] = True, ordered[1:] != ordered[:-1]
        fresh[::K] = True  # every column starts a run
        starts = np.flatnonzero(fresh)
        # longest run first, then the earliest: the offset in its column breaks ties
        score = np.diff(starts, append=ordered.size) * (K + 1) - starts % K
        best = np.maximum.reduceat(score, np.flatnonzero(starts % K == 0))
        return ordered[np.arange(n) * K + (-best) % (K + 1)].astype(np.int64)
    tally = np.min_scalar_type(K)
    counts = [
        np.add.reduce((indices == j).view(np.uint8), axis=0, dtype=tally)
        for j in range(1, levels)
    ]
    most = K - sum(counts)
    vote = np.zeros(n, dtype=np.int64)
    for j, count in enumerate(counts, start=1):
        np.copyto(vote, j, where=count > most)
        np.maximum(most, count, out=most)
    return vote


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
    """|gammas|, checked: finite, nonzero, and with every |gamma|^2 neither 0 nor inf."""
    g = np.abs(np.asarray(gammas, dtype=complex))
    if g.ndim != ndim or g.shape[-1] < 1:
        raise ValueError(f"gammas must be a non-empty {ndim}-D array")
    smallest, largest = float(g.min()), float(g.max())
    if not largest < math.inf:  # also NaN, which max propagates
        raise ValueError("gammas must be finite, got a NaN or infinite effective channel")
    if smallest == 0.0:
        raise DegenerateChannelError("zero effective channel, power control undefined")
    # a correctly rounded square is monotone, so the extremes decide for all
    if not (smallest * smallest > 0.0 and largest * largest < math.inf):
        raise ValueError(
            f"|gamma|^2 leaves the float64 dynamic range: |gamma| spans "
            f"[{smallest:.3g}, {largest:.3g}], squared "
            f"[{smallest * smallest:.3g}, {largest * largest:.3g}]"
        )
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
    g2 = g**2  # within range: :func:`_gamma_magnitudes` checked the extremes
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


def _single_row(gammas, Pmax: float, sigma2: float, inversion: bool) -> PowerSolution:
    powers, eta, kt, mse = _power_rows(_gamma_magnitudes(gammas)[None, :], Pmax, sigma2, inversion)
    return PowerSolution(
        powers=powers[0],
        eta=float(eta[0]),
        critical_number=int(kt[0]),
        mse=float(mse[0]),
    )


def optimal_power_control(gammas, Pmax: float, sigma2: float) -> PowerSolution:
    """MSE-optimal per-block power control and denoising factor.

    Devices sorted ascending by |gamma|^2 (stable, original index breaks
    ties) transmit at Pmax up to the critical index and channel-invert
    beyond it; the denoising factor is the smallest of the per-prefix
    candidates, smallest index on ties.  One row of
    :func:`power_control_rows`.
    """
    return _single_row(gammas, Pmax, sigma2, False)


def channel_inversion_power_control(gammas, Pmax: float, sigma2: float) -> PowerSolution:
    """Channel-inversion baseline: all effective amplitudes aligned exactly.

    The denoising factor is Pmax times the weakest |gamma|^2, so the
    weakest device transmits at exactly Pmax and the MSE reduces to
    sigma^2/eta.  One row of :func:`power_control_rows`.
    """
    return _single_row(gammas, Pmax, sigma2, True)


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
    )
