"""The multi-timescale protocol.

Long-term stage: a static receive beamformer from the IRS arrival angle
and a discrete IRS phase configuration built from per-device phase
projections fused by majority vote.  The projection is one kernel over
all devices, a (K, N) level-index matrix (:func:`phase_index_rows`)
that rounds each phase in turns, with the reference quantizer where a
phase lies too near a half-level, and the vote one count over that
matrix (:func:`vote_indices`);
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
from .numerics import _require_count, _require_spacing, array_response

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
        _require_count(self.levels, "levels")
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
        """exp(1j * phases), read from :func:`_phasor_table`.

        Each table entry is the same expression on the same level
        phase, so the result equals the N-element ``exp`` bit for bit.
        """
        return _phasor_table(self.levels)[self.indices]

    @classmethod
    def zero(cls, n_elements: int, levels: int) -> "PhaseShiftVector":
        """All-zero phases (the fixed, non-configured surface)."""
        return cls(indices=np.zeros(n_elements, dtype=np.int64), levels=levels)


def _phasor_table(levels: int) -> np.ndarray:
    """The L level phasors exp(1j * l*2*pi/L), l < L: a phase-shift vector's phasors index it."""
    return np.exp(1j * (np.arange(levels) * (TWO_PI / levels)))


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
    _require_count(M, "M")
    return array_response(M, phi_r, spacing_ratio) / np.sqrt(M)


# Elements per row block of the phase-index kernel: its two float buffers
# (256 KiB each) stay in a core's L2 cache, and blocks are few at small N.
_PHASE_BLOCK = 1 << 15


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
    _require_count(levels, "levels")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    idx = _quantize_indices(np.array([theta]), levels)[0]
    return float(idx * (TWO_PI / levels))


# Most levels the count vote serves.  It makes one compare-and-sum pass
# per level, and the sort vote above the cap costs the same at any level
# count.  The phase kernel runs the same passes at every L.
_COUNT_LEVELS = 16
# The phase kernel decides fast while delta < 1/8 level: past that its
# doubt bands cover a quarter of the phases, and most blocks would fall back.
_MAX_DELTA = 0.125


def _doubt(levels: int, t_max):
    """delta of :func:`phase_index_rows`: how far its level coordinate may stray at |t| <= t_max."""
    return 4.0 * np.finfo(float).eps * levels * (t_max + 1.0)


def _index_rows(steps: np.ndarray, diff: np.ndarray, levels: int) -> np.ndarray:
    """Level of steps[m]*diff[k] at every (k, m): the body of :func:`phase_index_rows`.

    ``steps`` ascends from 0, so its last entry is the largest.  The
    levels come in the smallest unsigned dtype that holds levels - 1,
    or as the reference's own int64 when the whole call falls back.
    """
    K, n = diff.shape[0], steps.shape[0]
    rows = max(1, _PHASE_BLOCK // n)
    turns = steps * (1.0 / TWO_PI)
    delta = _doubt(levels, abs(turns[-1]) * np.abs(diff).max(initial=0.0))
    fast = delta < _MAX_DELTA  # also False for a NaN or infinite input
    out = np.empty((K, n), dtype=np.min_scalar_type(levels - 1) if fast else np.int64)
    t, k = np.empty((2, min(rows, K), n)) if fast else (None, None)
    for start in range(0, K, rows):
        o = out[start : start + rows]
        if fast:
            tb, kb = t[: len(o)], k[: len(o)]
            np.multiply(turns, diff[start : start + rows, None], out=tb)
            if levels == 2:  # level 1 where |f| > 1/4, f = t - rint(t) exactly
                np.rint(tb, out=kb)
                tb -= kb
                np.abs(tb, out=tb)
                level = np.greater(tb, 0.25 + delta / 2, out=o.view(bool))
                near = np.count_nonzero(tb >= 0.25 - delta / 2) != np.count_nonzero(level)
            else:  # level rint(L*frac(t)), the top level L wrapped to 0
                np.floor(tb, out=kb)
                tb -= kb
                tb *= levels
                np.rint(tb, out=kb)
                tb -= kb
                near = tb.max() >= 0.5 - delta or tb.min() <= delta - 0.5
                if not near:
                    whole = kb.astype(np.min_scalar_type(levels))  # k - L wraps for k < L
                    np.minimum(whole, whole - levels, out=o, casting="unsafe")
            if not near:
                continue
        o[...] = _quantize_indices(steps * diff[start : start + rows, None], levels)
    return out


def phase_index_rows(
    phi_t: float, nu, n_elements: int, levels: int, spacing_ratio: float = 0.5
) -> np.ndarray:
    """Every device's preferred discrete phases as a (K, N) int64 index matrix.

    Row k quantizes theta = 2*pi*spacing_ratio*m*(sin(phi_t) - sin(nu_k))
    at element m, the continuous phases that conjugate the two steering
    vectors exactly (their inner product reaches N when unquantized).
    The levels equal :func:`_quantize_indices` of theta bit for bit.

    With steps_m = 2*pi*spacing_ratio*m and d_k = sin(phi_t) - sin(nu_k),
    the reference takes theta = fl(steps_m*d_k), x = fl(np.mod(theta,
    2*pi) * fl(L/(2*pi))) and the level round(x) mod L, a tie at a
    half-level going to the smaller phase.  The kernel works in turns:
    t = fl(T_m*d_k), with T_m = fl(steps_m * fl(1/(2*pi))) formed once
    per call.  With u = 2**-53 and everything modulo L:

    * x is within 3Lu(1 + u) of L*theta/(2*pi): np.mod's fmod step is
      exact, its added 2*pi for theta < 0 rounds once, and x twice;
    * t has three roundings to theta's one: |t - theta/(2*pi)| <=
      4u(1 + 2u)|t|, or 4.01*L*u*|t| in level units;
    * the level coordinate y adds at most 2Lu.  At L = 2, f = t - rint(t)
      is exact and the level is 1 where y = 2|f| > 1/2; otherwise
      y = fl(L * fl(t - floor(t))), the difference exact for |t| >= 1
      and within u below, and the level is rint(y) with L wrapped to 0.

    So |y - x| <= L*u*(4.01|t| + 5.01) < 2.5*eps*L*(|t| + 1), and the
    kernel takes delta = 4*eps*L*(max|t| + 1), max|t| = fl(|T_{N-1}| *
    max|d_k|) bounding every |t| as rounding is monotone.  Where y lies
    more than delta from every half-level, x is on the same side of
    each and the levels agree; a reference tie lies on a half-level, so
    it is never decided fast.  A row block with an element within delta
    of a half-level is recomputed by :func:`_quantize_indices` from
    theta, as is the whole call when an input is not finite or delta
    reaches ``_MAX_DELTA``.  Per element the fast path makes 4 float
    passes, 2 comparisons and 2 counts at L = 2; at any other L, 6 float
    passes, a max and a min, and a cast and a wrap in the output dtype.
    """
    nu = np.asarray(nu, dtype=float)
    if not np.isfinite(phi_t):
        raise ValueError(f"phi_t must be finite, got {phi_t!r}")
    if nu.ndim != 1 or not np.isfinite(nu).all():
        raise ValueError(f"nu must be a 1-D array of finite angles, got {nu!r}")
    _require_count(n_elements, "n_elements")
    _require_count(levels, "levels")
    _require_spacing(spacing_ratio, n_elements)
    return _phase_rows(phi_t, nu, n_elements, levels, spacing_ratio).astype(np.int64)


def _phase_rows(phi_t, nu, n_elements: int, levels: int, spacing_ratio: float) -> np.ndarray:
    """Unchecked :func:`phase_index_rows` of a stack: phi_t (...), nu (..., K) give (..., K, N).

    Every geometry's rows are rows of one :func:`_index_rows` pass, in
    its small unsigned dtype, and the kernel is elementwise, so each
    (K, N) slice equals, bit for bit, the call on its geometry alone.
    """
    steps = TWO_PI * spacing_ratio * np.arange(n_elements)
    diff = np.sin(phi_t)[..., None] - np.sin(nu)
    return _index_rows(steps, diff.reshape(-1), levels).reshape(*diff.shape, n_elements)


def vote_indices(indices: np.ndarray, levels: int) -> np.ndarray:
    """Per-column plurality of a (K, N) level-index matrix; ties to the smaller phase.

    Up to ``_COUNT_LEVELS`` levels, one compare-and-sum per level above
    0, counted in the smallest unsigned type that holds K; level 0 gets
    the rest.  A level takes a column only with strictly more votes than
    every smaller level.  Above the cap, each column is sorted and the
    longest run of equal levels wins, the first (smallest) on ties.  A
    (..., K, N) stack votes along its device axis, each (K, N) matrix
    as it does alone: (..., N).
    """
    _require_count(levels, "levels")
    *stack, K, n = indices.shape
    if levels > _COUNT_LEVELS:
        # one column after another, ascending
        ordered = np.sort(np.swapaxes(indices, -1, -2), axis=-1).ravel()
        fresh = np.empty(ordered.size, dtype=bool)
        fresh[0], fresh[1:] = True, ordered[1:] != ordered[:-1]
        fresh[::K] = True  # every column starts a run
        starts = np.flatnonzero(fresh)
        # longest run first, then the earliest: the offset in its column breaks ties
        score = np.diff(starts, append=ordered.size) * (K + 1) - starts % K
        best = np.maximum.reduceat(score, np.flatnonzero(starts % K == 0))
        columns = ordered.size // K
        vote = ordered[np.arange(columns) * K + (-best) % (K + 1)]
        return vote.astype(np.int64).reshape(*stack, n)
    tally = np.min_scalar_type(K)
    counts = [
        np.add.reduce((indices == j).view(np.uint8), axis=-2, dtype=tally)
        for j in range(1, levels)
    ]
    most = K - sum(counts)
    vote = np.zeros((*stack, n), dtype=np.uint8)
    for j, count in enumerate(counts, start=1):
        np.maximum(vote, (count > most).view(np.uint8) * np.uint8(j), out=vote)
        np.maximum(most, count, out=most)
    return vote.astype(np.int64)


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


def majority_vote(per_device) -> PhaseShiftVector:
    """Fuse per-device phase preferences element-wise by plurality.

    For each element the discrete phase with the most votes wins; ties
    resolve to the smaller phase value.  The count of :func:`vote_indices`
    over the stacked preferences.
    """
    per_device = list(per_device)
    if not per_device:
        raise ValueError("majority_vote needs at least one device")
    n, levels = per_device[0].num_elements, per_device[0].levels
    for psv in per_device:
        if psv.num_elements != n or psv.levels != levels:
            raise ValueError("all phase-shift vectors must share N and levels")
    stacked = np.stack([psv.indices for psv in per_device])
    return PhaseShiftVector(indices=vote_indices(stacked, levels), levels=levels)


def _gamma_magnitudes(gammas, ndim: int = 1) -> np.ndarray:
    """|gammas|, checked: finite, and with every |gamma|^2 neither 0 nor inf.

    A |gamma|^2 of 0, from a zero gamma or one whose square underflows,
    leaves power control undefined: :class:`DegenerateChannelError`.
    """
    g = np.abs(np.asarray(gammas, dtype=complex))
    if g.ndim != ndim or g.shape[-1] < 1:
        raise ValueError(f"gammas must be a non-empty {ndim}-D array")
    smallest, largest = float(g.min()), float(g.max())
    if not largest < math.inf:  # also NaN, which max propagates
        raise ValueError("gammas must be finite, got a NaN or infinite effective channel")
    if smallest == 0.0:
        raise DegenerateChannelError("zero effective channel, power control undefined")
    # a correctly rounded square is monotone, so the extremes decide for all
    if smallest * smallest == 0.0:
        raise DegenerateChannelError(
            f"|gamma|^2 underflows the float64 dynamic range: |gamma| = {smallest:.3g} "
            "squares to 0, power control undefined"
        )
    if not largest * largest < math.inf:
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
    """Row-wise kernel on validated magnitudes g (B, K): the rule of :func:`optimal_power_control`,
    or with ``inversion`` that of :func:`channel_inversion_power_control`."""
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


# Points of the oracle's geometric eta grid.
_ORACLE_GRID = 2048


def oracle_power_control(gammas, Pmax: float, sigma2: float) -> PowerSolution:
    """Independent verification oracle for the optimal power control.

    For fixed eta the MSE-minimizing feasible power is
    min(Pmax, eta/|gamma_k|^2); the oracle scans a geometric grid of
    ``_ORACLE_GRID`` eta values up to the largest prefix candidate and
    refines the best bracket by golden-section search.
    """
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
    grid = np.geomspace(eta_lo, eta_hi, _ORACLE_GRID)
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
