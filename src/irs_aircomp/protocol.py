"""The multi-timescale protocol.

Long-term stage: a static receive beamformer from the IRS arrival angle
and a discrete IRS phase configuration built from per-device phase
projections fused by majority vote.  The projection is one kernel over
all devices, a (K, N) level-index matrix (:func:`phase_index_rows`)
that rounds each phase in fixed-point turns, with the reference
quantizer where a phase lies too near a half-level, and the vote one
count over that matrix (:func:`vote_indices`);
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
from .numerics import _fsums, _require_count, _require_spacing, array_response
from .numerics import _require_powers, _require_sigma2

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
        idx = _level_indices(self.indices, self.levels)
        if idx.ndim != 1:
            raise ValueError("indices must be a 1-D array of values in [0, levels)")
        object.__setattr__(self, "indices", idx.astype(np.int64, copy=False))

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


def _level_indices(indices, levels: int) -> np.ndarray:
    """``indices`` as an array, rejected unless its values are integers in [0, levels).

    The one check of level indices, whatever their shape: an integer
    array, not bool, then one range read of it viewed unsigned, where a
    negative index lies past every level count.
    """
    _require_count(levels, "levels")
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":  # a float would be truncated, a bool read as 0 or 1
        raise ValueError(f"indices must be integers, got an array of {indices.dtype}")
    if indices.view(indices.dtype.str.replace("i", "u")).max(initial=0) >= levels:
        raise ValueError(f"indices must lie in [0, levels) = [0, {levels})")
    return indices


def _phasor_table(levels: int) -> np.ndarray:
    """The L level phasors exp(1j * l*2*pi/L), l < L: a phase-shift vector's phasors index it.

    Read-only.  A table of at most ``_COUNT_LEVELS`` levels is built once
    per process; a larger one, on each call.
    """
    table = _PHASOR_TABLES.get(levels)
    if table is None:
        table = np.exp(1j * (np.arange(levels) * (TWO_PI / levels)))
        table.flags.writeable = False
        if levels <= _COUNT_LEVELS:
            _PHASOR_TABLES[levels] = table
    return table


_PHASOR_TABLES: dict[int, np.ndarray] = {}


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
        if p.ndim != 1:
            raise ValueError(f"powers must be a 1-D array, one per device, got shape {p.shape}")
        if not np.maximum.reduce(p, initial=0.0) < math.inf:  # also NaN, which max propagates
            raise ValueError("powers must be finite, got a NaN or infinite power")
        if np.minimum.reduce(p, initial=0.0) < 0:
            raise ValueError("powers must be non-negative")
        if not self.eta > 0 and (p > 0).any():
            raise ValueError("eta must be positive when any device transmits")
        if not 0 <= self.critical_number <= p.shape[0]:
            raise ValueError("critical_number must lie in [0, K]")


def receive_beamformer(phi_r: float, M: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Static unit-norm receive beamformer: the IRS-arrival steering vector / sqrt(M)."""
    _require_count(M, "M")
    return array_response(M, phi_r, spacing_ratio) / np.sqrt(M)


# Elements per row block of the phase-index kernel: its uint32 phases
# (128 KiB), and at L != 2 its two float buffers (256 KiB each), stay in a
# core's L2 cache, and blocks are few at small N.
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
# count.
_COUNT_LEVELS = 16
# The phase kernel's guard: its band w, in 2**-32 turn, times L stays
# below 2**28, so w stays below 1/16 of a level (1/8 of a quarter turn at
# L = 2).  Past it the near phases would be an eighth of all, and the
# whole call goes to the reference.
_GUARD = 1 << 28
# A quarter turn in the phase kernel's fixed-point turns of 2**-32 turn.
_QUARTER = 1 << 30


def _index_rows(slope: float, n: int, diff: np.ndarray, levels: int) -> np.ndarray:
    """Level of theta = fl(fl(slope*m)*diff[k]) at every (k, m), m < n: the body of
    :func:`phase_index_rows`.

    The levels come in the smallest unsigned dtype that holds levels - 1,
    or as the reference's own int64 when the whole call falls back.  Row
    k's phase is q = m*Delta_k mod 2**32 in 2**-32 turn, one wrapping
    uint32 product per element.  At L = 2, v = |q as int32| (read back as
    uint32, so that -2**31 is 2**31, half a turn) is its distance from
    turn 0, the level is v > 2**30 + w, and the elements with
    |v - 2**30| <= w are near.  At any other L the level is rint(y), y =
    q*(L*2**-32), with L wrapped to 0, and the elements with |y - rint(y)|
    >= 1/2 - (w + 1)*L*2**-32 are near.  The near elements of every row
    block are set by one :func:`_quantize_indices` call.
    """
    K, rows = diff.shape[0], max(1, _PHASE_BLOCK // n)
    per = (slope * (1.0 / TWO_PI)) * diff  # tau_k, the row's turns per element
    t_max = float((n - 1) * np.maximum.reduce(np.abs(per), initial=0.0))
    # w in 2**-32 turn, 2**32 * 4*eps*(t_max + 1) being 2**-18*(t_max + 1)
    band = (n - 1) / 2 + 2.0 + (t_max + 1.0) * 2.0**-18
    if not band * levels < _GUARD:  # also for a NaN or infinite input
        return _quantize_indices(slope * np.arange(n) * diff[:, None], levels)
    # Delta_k = rint(2**32 * (tau_k - rint(tau_k))), the difference exact
    fixed = np.rint((per - np.rint(per)) * 2.0**32).astype(np.int64).astype(np.uint32)
    w = int(band)
    counts, out = np.arange(n, dtype=np.uint32), np.empty((K, n), np.min_scalar_type(levels - 1))
    q = np.empty((min(rows, K), n), dtype=np.uint32)
    near, mask = [], np.empty(q.shape, dtype=bool)
    if levels == 2:
        lo, hi = np.uint32(_QUARTER - w), np.uint32(_QUARTER + w)
    else:
        y, whole = np.empty((2, *q.shape))
        scale, edge = levels * 2.0**-32, 0.5 - (w + 1) * levels * 2.0**-32
    for start in range(0, K, rows):
        o = out[start : start + rows]
        qb, mb = q[: len(o)], mask[: len(o)]
        np.multiply(counts, fixed[start : start + rows, None], out=qb)
        if levels == 2:
            np.abs(qb.view(np.int32), out=qb.view(np.int32))
            level = np.greater(qb, hi, out=o.view(bool))
            if np.count_nonzero(np.greater_equal(qb, lo, out=mb)) == np.count_nonzero(level):
                continue
            np.not_equal(mb, level, out=mb)  # lo <= v <= hi
        else:
            yb, kb = y[: len(o)], whole[: len(o)]
            np.multiply(qb, scale, out=yb)
            np.rint(yb, out=kb)
            level = kb.astype(np.min_scalar_type(levels))  # k - L wraps for k < L
            np.minimum(level, level - levels, out=o, casting="unsafe")
            yb -= kb
            np.abs(yb, out=yb)
            if not yb.max() >= edge:
                continue
            np.greater_equal(yb, edge, out=mb)
        near.append(np.flatnonzero(mb) + start * n)
    if near:
        flat = np.concatenate(near)
        r, m = np.divmod(flat, n)
        out.reshape(-1)[flat] = _quantize_indices(slope * m * diff[r], levels)
    return out


def phase_index_rows(
    phi_t: float, nu, n_elements: int, levels: int, spacing_ratio: float = 0.5
) -> np.ndarray:
    """Every device's preferred discrete phases as a (K, N) int64 index matrix.

    Row k quantizes theta = 2*pi*spacing_ratio*m*(sin(phi_t) - sin(nu_k))
    at element m, the continuous phases that conjugate the two steering
    vectors exactly (their inner product reaches N when unquantized).
    The levels equal :func:`_quantize_indices` of theta bit for bit.

    With the slope s = fl(2*pi*spacing_ratio), steps_m = fl(s*m) and d_k
    = sin(phi_t) - sin(nu_k), the reference takes theta = fl(steps_m*d_k),
    x = fl(np.mod(theta, 2*pi) * fl(L/(2*pi))) and the level round(x)
    mod L, a tie at a half-level going to the smaller phase.  With
    u = 2**-53, everything modulo L, and rho = theta/(2*pi) and E =
    s*m*d_k/(2*pi) the reference's and the exact phase in turns:

    * x/L is within 3u(1 + u) turn of rho at any L: np.mod's fmod step
      is exact, its added 2*pi for theta < 0 rounds once, and x twice;
    * rho = E(1 + a)(1 + b), |a|, |b| <= u, from the two roundings of
      theta.

    The kernel works in fixed-point turns.  It forms the row's turns per
    element tau_k = fl(fl(s*fl(1/(2*pi)))*d_k) = E/m*(1 + g)(1 + h)(1 +
    i), three roundings, and Delta_k = rint(2**32 * (tau_k -
    rint(tau_k))) as uint32, within 1/2 of 2**32*frac(tau_k) as the
    difference and the scaling are exact.  Then q = m*Delta_k mod 2**32,
    one wrapping multiply, lies within m/2 <= (n - 1)/2 of 2**32*m*tau_k
    modulo 2**32, m*rint(tau_k) being whole turns; |m*tau_k - rho| <=
    5u(1 + 2u)|E| with |E| <= t_max(1 + 4.01u), t_max = fl((n - 1) *
    max|tau_k|); and x/L lies within 3u(1 + u) turn of rho.  So q/2**32
    is within (n - 1)/2**33 + 2.5*eps*(t_max + 1)(1 + 5u) turn of x/L at
    every L, and the kernel takes one band w = floor((n - 1)/2 + 2 +
    2**32 * 4*eps*(t_max + 1)) in 2**-32 turn, the 2 covering the floor
    and the rounding of the bound.  The reference's level steps at the
    half-levels, (j + 1/2)/L turn, and a tie lies on one.  Only the read
    of the level from q depends on L:

    * at L = 2 the half-levels are the quarter and three-quarter turns,
      and v = |q as int32|, q's distance from turn 0, moves by no more
      than q does.  So where v > 2**30 + w the level is 1, where v <
      2**30 - w it is 0, and the elements with |v - 2**30| <= w are near;
    * at any other L the level coordinate is y = fl(q * (L*2**-32)), the
      factor exact.  y rounds once, by at most L*u, far below one unit
      L*2**-32 of q, so |y - x| < (w + 1)*L*2**-32 modulo L.  y -
      rint(y) and the edge 1/2 - (w + 1)*L*2**-32 are exact, so where
      |y - rint(y)| is below the edge, x lies strictly inside y's level,
      rint(y) with L wrapped to 0; the elements at or past the edge are
      near.

    The near elements, about K*n*(w + 1)*L/2**31 per call, are gathered
    over all row blocks and set by one :func:`_quantize_indices` call
    from their theta.  The whole call falls back to the reference when
    an input is not finite or w*L reaches 2**28 (``_GUARD``): w reaches
    1/16 of a level, 1/8 of a quarter turn at L = 2.  The guard also
    keeps every m below 2**32 and L*2**-32 exact.  Per element the
    kernel makes one uint32 multiply; then at L = 2 an abs, 2
    comparisons and 2 counts, and at any other L a float multiply, a
    rint, a cast and a wrap in the output dtype, a difference, an abs
    and a max.
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

    Every geometry's rows are rows of one :func:`_index_rows` pass at the
    slope fl(2*pi*spacing_ratio), in its small unsigned dtype (0/1 bytes
    at L = 2), and the kernel is elementwise, so each (K, N) slice
    equals, bit for bit, the call on its geometry alone.
    """
    diff = np.sin(phi_t)[..., None] - np.sin(nu)
    rows = _index_rows(TWO_PI * spacing_ratio, n_elements, diff.reshape(-1), levels)
    return rows.reshape(*diff.shape, n_elements)


def vote_indices(indices, levels: int) -> np.ndarray:
    """Per-column plurality of a (K, N) level-index matrix; ties to the smaller phase.

    ``indices`` must be an integer array (not bool) of at least 2
    dimensions, K >= 1, with every value in [0, levels); a (..., K, N) stack
    votes along its device axis, each (K, N) matrix as it does alone:
    (..., N).  The count is :func:`_vote`.
    """
    indices = _level_indices(indices, levels)
    if indices.ndim < 2 or indices.shape[-2] == 0:
        raise ValueError(
            f"indices must be a (..., K, N) array with K >= 1, got shape {indices.shape}"
        )
    return _vote(indices, levels)


def _vote(indices: np.ndarray, levels: int) -> np.ndarray:
    """Unchecked :func:`vote_indices`: the plurality of each column of (..., K, N) level indices.

    Up to ``_COUNT_LEVELS`` levels, one compare-and-sum per level above
    0, counted in the smallest unsigned type that holds K; level 0 gets
    the rest.  At L = 2 the indices are 0 or 1, so their sum is level
    1's count.  A level takes a column only with strictly more votes than
    every smaller level.  Above the cap, each column is sorted and the
    longest run of equal levels wins, the first (smallest) on ties.
    """
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
    if levels == 2:  # level 1 takes a column with more than level 0's K - count votes
        count = np.add.reduce(indices, axis=-2, dtype=tally)
        return (count > K - count).astype(np.int64)
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
    over the stacked preferences, unchecked: each vector has checked its own.
    """
    per_device = list(per_device)
    if not per_device:
        raise ValueError("majority_vote needs at least one device")
    n, levels = per_device[0].num_elements, per_device[0].levels
    for psv in per_device:
        if psv.num_elements != n or psv.levels != levels:
            raise ValueError("all phase-shift vectors must share N and levels")
    stacked = np.stack([psv.indices for psv in per_device])
    return PhaseShiftVector(indices=_vote(stacked, levels), levels=levels)


def _gamma_magnitudes(gammas, ndim: int = 1) -> np.ndarray:
    """|gammas|, checked: finite, and with every |gamma|^2 neither 0 nor inf.

    A |gamma|^2 of 0, from a zero gamma or one whose square underflows,
    leaves power control undefined: :class:`DegenerateChannelError`.
    """
    g = np.abs(np.asarray(gammas, dtype=complex))
    if g.ndim != ndim or g.shape[-1] < 1:
        raise ValueError(f"gammas must be a non-empty {ndim}-D array")
    smallest = float(np.minimum.reduce(g, axis=None))
    largest = float(np.maximum.reduce(g, axis=None))
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

    ``g`` and ``powers`` are (B, K), in any one order of the devices,
    and ``eta`` is (B,).  Each row's K + 1 terms are summed exactly
    rounded (:func:`~irs_aircomp.numerics._fsums`), so the order does
    not matter: near-optimal solutions cancel catastrophically term by
    term, and a plain sum would keep that error.
    """
    B, K = g.shape
    terms = np.empty((B, K + 1))
    misalign = terms[:, :K]
    np.sqrt(powers, out=misalign)
    misalign *= g
    misalign /= np.sqrt(eta)[:, None]
    misalign -= 1.0
    np.square(misalign, out=misalign)
    np.divide(sigma2, eta, out=terms[:, K])
    return _fsums(terms)


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
    _require_powers(Pmax, sigma2)
    B, K = g.shape
    g2 = g**2  # within range: :func:`_gamma_magnitudes` checked the extremes
    if inversion:
        weakest = np.arange(B), g2.argmin(axis=1)
        eta = Pmax * g2[weakest]
        powers = eta[:, None] / g2
        powers[weakest] = Pmax  # exact, not Pmax*g2min/g2min
        return powers, eta, np.ones(B, dtype=np.int64), sigma2 / eta

    # rows sorted ascending by |gamma|^2, through flat indices into the (B, K) block
    order = g2.argsort(axis=1, kind="stable")
    order += np.arange(0, B * K, K)[:, None]
    gs, gs2 = g.take(order), g2.take(order)
    sums = np.empty((2, B, K))  # amplitude and power prefix sums
    np.multiply(gs, math.sqrt(Pmax), out=sums[0])
    np.multiply(gs2, Pmax, out=sums[1])
    np.add.accumulate(sums, axis=2, out=sums)
    amp_sum, power_sum = sums
    power_sum += sigma2
    eta_candidates = np.divide(power_sum, amp_sum, out=power_sum)
    np.square(eta_candidates, out=eta_candidates)
    kt = eta_candidates.argmin(axis=1)  # first minimizer
    eta = eta_candidates[np.arange(B), kt]
    # Pmax up to the critical index; past it, and only there, eta/|gamma|^2
    sorted_powers = np.empty_like(gs2)
    sorted_powers.fill(Pmax)
    np.divide(eta[:, None], gs2, out=sorted_powers, where=np.arange(K) > kt[:, None])
    powers = np.empty((B, K))  # C order, so the flat indices address it
    powers.put(order, sorted_powers)
    return powers, eta, kt + 1, _alignment_mse(gs, sorted_powers, eta, sigma2)


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
    """MSE of a power solution on the scalar effective channels.

    ``gammas`` holds one finite channel per device of the solution, and
    ``sigma2`` is a non-negative finite noise power.
    """
    if not solution.eta > 0:
        raise ValueError("eta must be positive")
    _require_sigma2(sigma2)
    g = np.abs(np.asarray(gammas, dtype=complex))
    if g.shape != solution.powers.shape:
        raise ValueError(
            f"gammas must have shape {solution.powers.shape}, one per device, got {g.shape}"
        )
    if not np.maximum.reduce(g, initial=0.0) < math.inf:  # also NaN
        raise ValueError("gammas must be finite, got a NaN or infinite effective channel")
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
    _require_sigma2(sigma2)
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
    _require_powers(Pmax, sigma2)
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
