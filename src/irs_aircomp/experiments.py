"""Scheme registry, Monte Carlo engine, parameter sweeps, and persistence.

Long-term quantities (beamformer, voted phases, the line of sight's
sums) are computed once per geometry, at the largest N of the sweep,
and every N takes their first N elements; channels are redrawn per
trial.  This per-geometry stage runs on stacks of geometries
(:func:`_stage`): with the geometry redrawn per trial, a power block's
geometries go through it together, at most ``_STAGE_ELEMENTS``
device-elements at a time, and each geometry's terms are bit for bit
those it has alone.

With v and Theta fixed, power control needs only the effective scalar
channels gamma_k, so a trial draws those, exact in law, instead of the
N-element channels: the (K, M) direct links, then two complex normals
per device for each segment [N_{j-1}, N_j) of the sweep's element
counts, which give the segment's scattered projections on the voted and
the all-zero phase rows (:func:`_stage`).  gamma at N_i sums the
segments up to i, so differences along N are paired, as for a sub-array
of a larger surface.

Stream layout.  Every draw comes from a stream of the master seed,
:class:`~irs_aircomp.numerics.RngStream` (seed, id): a Philox keyed by
the seed, with the id in a counter word, so that streams are disjoint
by construction.  Stream 0 holds the reference geometry (the fixed one,
and the one the bound columns describe), stream 2 + 2t trial t's
redrawn geometry and stream 3 + 2t its channels.  The engine builds one
Philox per run and rewinds it to each of these streams by setting its
state (:func:`~irs_aircomp.numerics._rewinder`), which draws bit for
bit as a fresh ``RngStream(seed, id).generator()``.  These are the pure
line-of-sight scaling recipe's streams, and under ``pure_los`` the
gammas are the vector channel's, so that recipe is one redrawn-geometry
``run_sweep``.  No stream depends on N or on the trial count, and a
segment's normals sit at the same place in its trial's stream whatever
segments follow, so a longer run, a sweep whose element counts are a
prefix of another's and a ``single`` point (it runs the counts below
its N too) reproduce the values of the run they overlap.

The engine is trial-major: every scheme evaluates the trial's one draw
(schemes of one kind share its effective channels), and power control
runs on blocks of trials at once, one call per power rule on the
stacked rows of all its schemes at every N; the kernel is row-wise, so
each row is what its own call gives.  The direct-link schemes do not see
the IRS, so their combiner, one batched ``eigh`` per block of trials,
and their power control run once per trial and serve every N.  A
degenerate draw, one with some |gamma_k|^2 = 0, leaves power control
undefined: it raises :class:`~irs_aircomp.protocol.DegenerateChannelError`
naming the scheme, the N and the first trial that hit it.
"""

from __future__ import annotations

import csv
import enum
import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import AsymptoticParams, mse_upper_bound, n_threshold
from .channel import (
    Geometry,
    SystemConfig,
    _effective_draws,
    _line_of_sight,
    _make_geometries,
    _reflection_gain,
    _require_geometry,
    make_geometry,
)
from .numerics import RngStream, _is_integer, _project, _require_spacing, _responses, _rewinder
from .protocol import (
    DegenerateChannelError,
    PhaseShiftVector,
    _gamma_magnitudes,
    _phase_rows,
    _phasor_table,
    _power_rows,
    _vote,
    power_control_rows,
)

__all__ = [
    "ConfigError",
    "Scheme",
    "ExperimentConfig",
    "LongTermState",
    "SweepRow",
    "SweepResult",
    "compute_long_term",
    "run_trial",
    "run_sweep",
    "write_rows",
    "write_csv",
    "load_config",
]

class ConfigError(ValueError):
    """Configuration file or experiment setup is invalid."""


# How each scheme turns a channel draw into scalar channels: through the
# static beamformer with voted or all-zero phases, or through the
# dominant-direct combiner.  Schemes of one kind share their gammas.
_VOTED, _ZERO, _DIRECT = "voted", "zero", "direct"


class Scheme(str, enum.Enum):
    """A compared scheme: its effective-channel ``kind`` and its power rule.

    ``inversion`` selects channel inversion over optimal power control.
    Only the voted-phase schemes report the closed-form bound columns.
    """

    OPT_PC_IRS = ("OPT_PC_IRS", _VOTED, False)
    INV_PC_IRS = ("INV_PC_IRS", _VOTED, True)
    OPT_PC_NO_IRS = ("OPT_PC_NO_IRS", _DIRECT, False)
    INV_PC_NO_IRS = ("INV_PC_NO_IRS", _DIRECT, True)
    FIXED_PHASE_OPT_PC = ("FIXED_PHASE_OPT_PC", _ZERO, False)

    def __new__(cls, value: str, kind: str, inversion: bool):
        member = str.__new__(cls, value)
        member._value_ = value
        member.kind = kind
        member.inversion = inversion
        return member


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep: the system under test, its element counts, trial count and seed; frozen."""

    system: SystemConfig = field(default_factory=SystemConfig)
    n_sweep: tuple[int, ...] = (64, 128, 256, 512)
    trials: int = 10_000
    seed: int = 0
    epsilon: float = 0.9
    redraw_geometry_per_trial: bool = False

    def __post_init__(self) -> None:
        for n in self.n_sweep:
            if not _is_integer(n):
                raise ConfigError(f"n_sweep must hold integer element counts, got {n!r}")
        for name in ("trials", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        object.__setattr__(self, "n_sweep", tuple(int(n) for n in self.n_sweep))
        object.__setattr__(self, "seed", int(self.seed))
        if len(self.n_sweep) < 1 or any(n < 1 for n in self.n_sweep):
            raise ConfigError("n_sweep must contain positive element counts")
        if any(b <= a for a, b in zip(self.n_sweep, self.n_sweep[1:])):
            raise ConfigError("n_sweep must be strictly increasing")
        _require_spacing(self.system.spacing_ratio, self.n_sweep[-1], ConfigError)  # largest N
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must be in (0, 1)")


@dataclass(frozen=True)
class LongTermState:
    """The paper's long-term variables of one geometry, and nothing cached.

    ``v`` is the AP receive beamformer, fixed from the static angle
    information, and ``theta_voted`` the voted IRS phase configuration,
    fixed from statistical CSI.  The fixed-phase baseline is no
    long-term variable: it is ``PhaseShiftVector.zero(N, L)`` at any
    geometry.  :func:`compute_long_term` builds it; the engine passes
    the same values as arrays, one row per geometry, at the largest N of
    the sweep, and each N slices its first N elements where they are used.
    """

    v: np.ndarray
    theta_voted: PhaseShiftVector


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    N: int
    M: int
    K: int
    trials: int
    mean_mse: float
    stderr_mse: float
    mean_ktilde: float
    bound_mse: float | None = None
    n_threshold: float | None = None


_ROW_FIELDS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_ROW_FIELDS)


@dataclass
class SweepResult:
    """A sweep's rows and, keyed (scheme, N) as the rows sort, their T
    per-trial MSEs and critical numbers, paired: trial t is one draw.
    ``rejected_trials`` is always 0, as degenerate channels raise; it
    stays because ``benchmark/workloads.py`` reads it.
    """

    rows: list[SweepRow]
    rejected_trials: int = 0
    trial_mse: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    trial_ktilde: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)


def compute_long_term(geometry: Geometry, config: SystemConfig) -> LongTermState:
    """Static beamformer plus voted phase configuration.

    The voted phases come from one array computation: every device's
    preferred level indices as a (K, N) matrix
    (:func:`~irs_aircomp.protocol.phase_index_rows`), fused by one
    per-element count (:func:`~irs_aircomp.protocol.vote_indices`).
    The one-geometry case of :func:`_long_term`, and the one place that
    wraps its arrays in a phase-shift vector.  A geometry not made under
    ``config`` (another device count or spacing ratio) raises ``ValueError``.
    """
    _require_geometry(geometry, config)
    _, v, votes = _long_term(config, [geometry], config.N)
    return LongTermState(v=v[0], theta_voted=PhaseShiftVector(votes[0], config.L))


def _long_term(
    config: SystemConfig, geometries, n_elements: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The long-term arrays of B geometries: a_M(phi_r) (B, M), v (B, M) and the votes (B, N),
    N = ``n_elements`` (``config.N`` is not read).

    The first step of :func:`_stage`.  One steering pass gives
    every a_M(phi_r), and v = a_M / sqrt(M) is
    :func:`~irs_aircomp.protocol.receive_beamformer` bit for bit.  The
    preferred rows of all B*K devices are one phase-kernel pass, and
    the votes, the voted phases' level indices, one count along the
    device axis of the (B, K, N) stack: the unchecked count of
    :func:`~irs_aircomp.protocol.vote_indices`, which at L = 2 sums the
    kernel's 0/1 byte rows as they are.  Each geometry's rows equal, bit
    for bit, those of it alone.
    """
    spacing = config.spacing_ratio
    a_m = _responses(config.M, [g.phi_r for g in geometries], spacing)
    phi_t, nu = np.array([g.phi_t for g in geometries]), np.array([g.nu for g in geometries])
    votes = _vote(_phase_rows(phi_t, nu, n_elements, config.L, spacing), config.L)
    return a_m, a_m / math.sqrt(config.M), votes


def _direct_gammas(h_direct: np.ndarray) -> np.ndarray:
    """Direct-link gammas (B, K) of a (B, K, M) stack of blocks under the dominant-direct combiner.

    Each block's combiner is the unit-norm eigenvector of the largest
    eigenvalue of sum_k h_k h_k^H.  One batched matmul builds every such
    Gram matrix and one ``eigh`` call factors the stack; each block's
    result equals, bit for bit, the same steps on that block alone.
    """
    gram = np.matmul(h_direct.transpose(0, 2, 1), h_direct.conj())
    _, vecs = np.linalg.eigh(gram)
    return np.matmul(h_direct, vecs[:, :, -1:].conj())[:, :, 0]


# Trials whose gammas go through power control together; extra memory
# is this many rows of K per N and scheme kind, whatever the trial count.
_POWER_BLOCK = 64

# Most B*K*N elements of one stacked pass of the per-geometry stage.  Its
# largest arrays are the (B, K, N) phase levels, one byte each, and the
# (B, 2, N) complex rows, so memory stays bounded at any block size: 25
# default geometries (K = 20, N = 512) at once, and one at a time above
# K*N = 2**17, as at K = 21, N = 8192.  CPU time of the 2 000-trial
# redrawn default sweep (seed 7, N 64 to 512, every scheme), medians of
# 9 runs on 2 x86-64 cores: 0.91 s at 2**16, 0.83 s at 2**18 and 0.83 s
# at 2**20, peak RSS 42.6, 43.2 and 47.2 MiB.  The large-N scaling run
# (K = 21, N 8192 to 65536, 100 geometries) stacks one geometry at a
# time from 2**16 to 2**21: 1.62 s at 2**16 against 1.35 s at 2**22 (two
# at a time), medians of 5, but peak RSS 45 -> 64 MiB.
_STAGE_ELEMENTS = 1 << 18

_IRS_KINDS = (_VOTED, _ZERO)


def _stage(config: SystemConfig, geometries, sizes):
    """The per-geometry stage of B geometries: their block-independent terms of the voted
    and zero gammas at every N of ``sizes``.

    It runs at N = ``sizes[-1]`` (``config.N`` is not read) on stacks of
    at most max(1, ``_STAGE_ELEMENTS`` // (K*N)) geometries at a time.
    Per stack, :func:`_long_term` gives the receive arrays a_M(phi_r),
    the beamformers v and the votes; the voted phasors are read from the
    L-entry table of :class:`~irs_aircomp.protocol.PhaseShiftVector`,
    bit for bit its ``phasors``.  Then it builds the steering factors of
    the lines of sight with a_N(phi_t)^H folded in
    (:func:`~irs_aircomp.channel._line_of_sight`, about K(24 + N/512)
    exponentials per geometry) and each geometry's one gain
    (:func:`~irs_aircomp.channel._reflection_gain`; both kinds share it,
    and a_M(phi_r) is the beamformer's own).  Returns (conj(v) (B, M),
    gain (B,), line of sight (B, 2, P, K), coefficients (B, 2, P, 2, K)
    or None under ``pure_los``), kinds in the order of ``_IRS_KINDS``,
    one N or one segment per P.  The line of sight at N is the
    projection kernel's sum of the first N elements
    (:func:`~irs_aircomp.numerics._project`, one call per stack and kind
    for every geometry and N; no (B, K, N) array is formed): against the
    voted phasors, and for the all-zero phases, whose phasors are all
    ones, with one block product per geometry.  Each is bit for bit the
    sum :func:`~irs_aircomp.channel.effective_scalar_channel` forms at N,
    and every other step is elementwise or a sum along a contiguous last
    axis, so each geometry's terms equal, bit for bit, those of a stack
    of it alone.  Segment j holds the elements [N_{j-1}, N_j) of
    ``sizes``, of length L_j; c_j is the sum of its voted phasors and
    a_k = sqrt(rho_r,k / (delta + 1)) device k's scattered amplitude.  A
    block's two CN(0, 1) normals w1, w2 of device k and segment j, times
    the coefficients, give the segment's scattered projections on the
    voted and the zero rows: X = a_k sqrt(L_j) w1 and Y = a_k
    (conj(c_j)/sqrt(L_j) w1 + sqrt(L_j - |c_j|^2/L_j) w2).  These are
    jointly Gaussian with E|X|^2 = E|Y|^2 = a_k^2 L_j and E[X conj(Y)] =
    a_k^2 c_j: the law of the projections of the segment's i.i.d. CN(0,
    a_k^2) scattered elements, as every row element is unit-modulus and
    row_voted conj(row_zero) is the voted phasor.  Segments and devices
    are independent, as the elements are.
    """
    n = sizes[-1]
    starts = (0, *sizes[:-1])
    lengths = np.array([stop - start for start, stop in zip(starts, sizes)])
    root = np.sqrt(lengths)
    step = max(1, _STAGE_ELEMENTS // (config.K * n))
    parts = []
    for first in range(0, len(geometries), step):
        stack = geometries[first : first + step]
        a_m, v, votes = _long_term(config, stack, n)
        phasors = _phasor_table(config.L)[votes]  # (B, N), the voted phasors
        rho_r = np.array([g.rho_r for g in stack])
        gain = _reflection_gain(np.array([g.rho_1 for g in stack]), a_m, v)
        nu, phi_t = np.array([g.nu for g in stack]), [g.phi_t for g in stack]
        los = _line_of_sight(config, rho_r, nu, phi_t, n)
        voted, zero = _project(los, phasors[:, None], sizes), _project(los, None, sizes)
        line = np.concatenate((voted, zero), axis=1)  # (B, 2, P, K), kinds as in _IRS_KINDS
        coef = None
        if not config.pure_los:
            c = np.add.reduceat(phasors, starts, axis=-1)  # (B, P)
            # geometry, kind, segment, normal; each entry one pass into its place
            per_segment = np.zeros((len(stack), 2, len(sizes), 2), dtype=complex)
            per_segment[:, 0, :, 0] = root
            np.divide(c.conj(), root, out=per_segment[:, 1, :, 0])
            rest = np.maximum(0.0, lengths - np.abs(c) ** 2 / lengths)
            np.sqrt(rest, out=per_segment[:, 1, :, 1])
            a = np.sqrt(rho_r / (config.rician_delta + 1.0))
            coef = per_segment[..., None] * a[:, None, None, None]
        parts.append((v.conj(), gain, line, coef))
    if len(parts) == 1:
        return parts[0]
    return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))


def _stacked_gammas(terms, h_direct: np.ndarray, w: np.ndarray | None, schemes: list[Scheme]):
    """Effective channels per kind of a block of B trials, one draw per trial.

    ``terms`` are the stacked terms of :func:`_stage`, one geometry
    per trial or one (a leading axis of 1) that every trial shares, and
    ``h_direct`` (B, K, M) and ``w`` (B, P, 2, K) the trials' draws of
    :func:`~irs_aircomp.channel._effective_draws`: their direct links and
    two normals per device and segment (None under ``pure_los``).  The
    voted and zero gammas at N_i are v^H h_d + gain (line of sight at
    N_i + the sum of the scattered projections of the segments up to i),
    each (P, B, K), one row per N of the terms' sizes; under
    ``pure_los`` they are v^H h_d + gain (line of sight at N_i), bit for
    bit the vector channel's
    :func:`~irs_aircomp.channel.effective_scalar_channel` at N.  The
    direct kind does not see the IRS: one batched combiner gives it
    (1, B, K), one row that serves every N.
    """
    kinds = dict.fromkeys(s.kind for s in schemes)
    out = {}
    if _DIRECT in kinds:
        out[_DIRECT] = _direct_gammas(h_direct)[None]
    if not kinds.keys() - {_DIRECT}:
        return out
    conj_v, gain, reflected, coef = terms  # reflected: (B or 1, 2, P, K)
    if coef is not None:
        # each segment's two normals, then the running sum over segments
        scattered = coef[:, :, :, 0] * w[:, None, :, 0]
        scattered += coef[:, :, :, 1] * w[:, None, :, 1]
        reflected = reflected + np.add.accumulate(scattered, axis=2, out=scattered)
    combined = np.matmul(h_direct, conj_v[:, :, None])[:, None, None, :, 0]
    gammas = (combined + gain[:, None, None, None] * reflected).transpose(1, 2, 0, 3)
    out.update((kind, gammas[i]) for i, kind in enumerate(_IRS_KINDS) if kind in kinds)
    return out


def _degenerate_error(block: dict, schemes: list[Scheme], start: int, config: ExperimentConfig):
    """The error of the first failing (scheme, N) magnitude check of ``block``.

    Some kind of the block failed power control's input check.  The
    check runs again scheme by scheme in the caller's order, then N by
    N, each on the block's gammas at that N alone, and the first that
    fails decides: a zero |gamma_k|^2 gives the
    :class:`~irs_aircomp.protocol.DegenerateChannelError` that names the
    (scheme, N) and the first trial ``start + b`` that hit it, and any
    other failure, a non-finite gamma, raises its own ``ValueError`` here.
    """
    for s in schemes:
        for p, gammas in enumerate(block[s.kind]):
            try:
                _gamma_magnitudes(gammas, ndim=2)
            except DegenerateChannelError as exc:
                where = "every N" if s.kind == _DIRECT else f"N={config.n_sweep[p]}"
                first = start + np.flatnonzero((np.abs(gammas) ** 2 == 0.0).any(axis=1))[0]
                return DegenerateChannelError(f"{s.value} at {where}, trial {first}: {exc}")


def _stderrs(values: np.ndarray) -> np.ndarray:
    """Standard errors of the means along the last axis, T values each, in whole-array passes.

    Each equals ``np.std(row, ddof=1) / sqrt(T)`` of its row alone, bit
    for bit: these are ``np.std``'s own steps (the mean, the squared
    deviations, their sum over T - 1, the root) without its argument
    handling, and each sum runs along the contiguous last axis, as it
    does over a 1-D row.  With T = 1 they are 0.
    """
    T = values.shape[-1]
    if T == 1:
        return np.zeros(values.shape[:-1])
    mean = np.add.reduce(values, axis=-1, keepdims=True)
    mean /= T
    deviations = np.subtract(values, mean)
    np.square(deviations, out=deviations)
    variance = np.add.reduce(deviations, axis=-1)
    variance /= T - 1
    return np.sqrt(variance, out=variance) / math.sqrt(T)


def _reject_blocked(system: SystemConfig, schemes: list[Scheme]) -> None:
    """Refuse direct-link schemes on blocked direct links before any draw."""
    blocked = [s.value for s in schemes if s.kind == _DIRECT]
    if system.block_direct and blocked:
        raise ConfigError(f"block_direct leaves no direct link for {', '.join(blocked)}")


def run_trial(
    config: SystemConfig,
    geometry: Geometry,
    scheme: Scheme,
    stream: RngStream | np.random.Generator,
) -> tuple[float, int]:
    """One coherence block under one scheme: (mse, critical_number).

    The engine at one geometry, one N and one trial: one scheme of one
    trial of a :func:`run_sweep` whose only element count is
    ``config.N``, the per-geometry stage (:func:`_stage`) on
    ``geometry``, which a direct-link scheme skips, and one draw from
    ``stream`` with one segment of N elements.  A geometry not made
    under ``config`` (another device count or spacing ratio) raises
    ``ValueError`` before any draw, and a draw with some |gamma_k|^2 = 0
    raises :class:`~irs_aircomp.protocol.DegenerateChannelError`.
    """
    scheme = Scheme(scheme)
    _reject_blocked(config, [scheme])
    _require_geometry(geometry, config)
    terms = None if scheme.kind == _DIRECT else _stage(config, [geometry], (config.N,))
    h_direct, w = _effective_draws(geometry.rho_d, config, 1, [stream])
    gammas = _stacked_gammas(terms, h_direct, w, [scheme])
    _, _, kt, mse = power_control_rows(
        gammas[scheme.kind][0], config.Pmax, config.sigma2, inversion=scheme.inversion
    )
    return float(mse[0]), int(kt[0])


def _bound_params(config: ExperimentConfig, reference: Geometry) -> list[AsymptoticParams]:
    """The closed-form bounds' inputs at each N of the sweep.

    ``rho_min`` is the IRS-AP path loss times the weakest device-IRS
    path loss of ``reference``, the geometry of stream 0; with
    the geometry redrawn per trial it describes that geometry only.  A
    product that underflows to 0 raises :class:`ConfigError`.
    """
    system = config.system
    rho_min = reference.rho_1 * min(reference.rho_r.tolist())
    if rho_min == 0.0:
        raise ConfigError(f"rho_min = rho_1 min(rho_r) underflows to 0 (rho_1 = {reference.rho_1})")
    return [
        AsymptoticParams(
            M=system.M,
            N=N,
            K=system.K,
            Pmax=system.Pmax,
            sigma2=system.sigma2,
            rho_min=rho_min,
            epsilon=config.epsilon,
        )
        for N in config.n_sweep
    ]


def run_sweep(config: ExperimentConfig, schemes) -> SweepResult:
    """Monte Carlo means over the sweep axis for each scheme.

    Geometry is drawn once and held fixed (it does not depend on N),
    matching the multi-timescale split: long-term variables per
    geometry, channels per trial.  With ``redraw_geometry_per_trial``
    each trial draws its own geometry, shared by every N, for studies
    whose randomness lives in the static angles.  Draws follow the
    module's stream layout, and each trial's one draw serves every
    scheme and every N as the module docstring describes: the rows at
    N_i depend on the element counts up to N_i and not on those above
    it, and under ``pure_los`` the gammas are the vector channel's, bit
    for bit.  The per-geometry stage (long-term state, line of sight
    and segment terms, at the largest N) runs once per block of trials:
    each trial draws its geometry from its own stream, and the block's
    geometries then go through the stage stacked, at most
    ``_STAGE_ELEMENTS`` (B*K*N) at a time, so that memory stays bounded
    at large N; a fixed geometry goes through it once.  Each geometry's
    terms equal, bit for bit, those it has alone; with only direct-link
    schemes, which do not see the IRS, it does not run.  Per block of trials,
    |gamma| is taken once per kind and each power rule makes one
    row-wise call.  Every row's mean is the ``math.fsum`` of its T values
    over T, and its standard error is ``np.std``'s, bit for bit
    (:func:`_stderrs`); the per-trial values behind each row are
    returned as ``trial_mse`` and ``trial_ktilde``.  A draw with some
    |gamma_k|^2 = 0 raises ``DegenerateChannelError`` naming the scheme,
    the N ("every N" for the direct-link schemes) and the first such
    trial, the first (scheme, N) in the caller's order of schemes that
    fails; it is checked per kind before any power control.  At L = 2
    the bound inputs (:func:`_bound_params`) are made before any trial,
    so a rho_min that underflows to 0 raises ``ConfigError`` first.
    """
    schemes = [Scheme(s) for s in schemes]
    if not schemes:
        raise ConfigError("at least one scheme is required")
    if len(set(schemes)) < len(schemes):
        duplicates = sorted({s.value for s in schemes if schemes.count(s) > 1})
        raise ConfigError(f"duplicate schemes: {', '.join(duplicates)}")
    system = config.system
    _reject_blocked(system, schemes)
    T, P, K = config.trials, len(config.n_sweep), system.K
    redraw = config.redraw_geometry_per_trial
    rewind = _rewinder(config.seed)
    reference = make_geometry(system, rewind(0))
    params = _bound_params(config, reference) if system.L == 2 else []
    rho_d, terms = reference.rho_d, None  # the direct-link schemes read no stage terms
    sees_irs = any(s.kind != _DIRECT for s in schemes)
    if sees_irs and not redraw:  # the stage reads its element count from n_sweep, not system.N
        terms = _stage(system, [reference], config.n_sweep)
    mses = np.empty((len(schemes), P, T))
    ktildes = np.empty((len(schemes), P, T), dtype=np.int64)
    # each power rule's schemes, as positions in the caller's order
    rules = [
        (inversion, at)
        for inversion in (False, True)
        if (at := [i for i, s in enumerate(schemes) if s.inversion == inversion])
    ]
    for start in range(0, T, _POWER_BLOCK):
        stop = min(start + _POWER_BLOCK, T)
        trials = range(start, stop)
        if redraw:
            geometries = _make_geometries(system, [2 + 2 * t for t in trials], rewind)
            if sees_irs:
                terms = _stage(system, geometries, config.n_sweep)
            rho_d = np.array([g.rho_d for g in geometries])
        h_direct, w = _effective_draws(rho_d, system, P, [3 + 2 * t for t in trials], rewind)
        block = _stacked_gammas(terms, h_direct, w, schemes)
        try:
            magnitudes = {kind: _gamma_magnitudes(g, ndim=3) for kind, g in block.items()}
        except ValueError as exc:
            raise _degenerate_error(block, schemes, start, config) from exc
        for inversion, at in rules:
            parts = [magnitudes[schemes[i].kind] for i in at]
            g = np.concatenate(parts).reshape(-1, K)
            _, _, kt, mse = _power_rows(g, system.Pmax, system.sigma2, inversion)
            kt, mse = kt.reshape(-1, stop - start), mse.reshape(-1, stop - start)
            first = 0
            for i, part in zip(at, parts):
                last = first + len(part)
                # a kind with one row, the direct kind, fills every N
                mses[i, :, start:stop], ktildes[i, :, start:stop] = mse[first:last], kt[first:last]
                first = last

    threshold = n_threshold(params[0]) if params else None  # the same at every N
    bounds = [(mse_upper_bound(p), threshold) for p in params] or [(None, None)] * P
    stderrs = _stderrs(mses).tolist()
    ktilde_sums = np.add.reduce(ktildes, axis=2).tolist()
    names = [s.value for s in schemes]
    trial_mses, trial_ktildes = list(mses.reshape(-1, T)), list(ktildes.reshape(-1, T))
    result = SweepResult(rows=[])  # rows and per-trial values in (scheme, N) order
    for i in sorted(range(len(schemes)), key=names.__getitem__):
        name, voted = names[i], schemes[i].kind == _VOTED
        for p, N in enumerate(config.n_sweep):
            bound, threshold = bounds[p] if voted else (None, None)
            result.trial_mse[name, N] = trial_mses[i * P + p]
            result.trial_ktilde[name, N] = trial_ktildes[i * P + p]
            result.rows.append(
                SweepRow(
                    scheme=name,
                    N=N,
                    M=system.M,
                    K=K,
                    trials=T,
                    mean_mse=math.fsum(trial_mses[i * P + p].tolist()) / T,
                    stderr_mse=stderrs[i][p],
                    mean_ktilde=ktilde_sums[i][p] / T,
                    bound_mse=bound,
                    n_threshold=threshold,
                )
            )
    return result


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # full round-trip precision
    return str(value)


def write_rows(result: SweepResult, fh) -> None:
    """Fixed header, then rows sorted by (scheme, N) with round-trip floats."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_ROW_FIELDS)
    for r in sorted(result.rows, key=lambda r: (r.scheme, r.N)):
        writer.writerow([_format_cell(getattr(r, name)) for name in _ROW_FIELDS])


def write_csv(result: SweepResult, path) -> None:
    """:func:`write_rows` into a UTF-8 file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_rows(result, fh)
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path}: {exc}") from exc


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse(raw: str, key: str, hint):
    """The value of ``raw`` for a field annotated ``hint``.

    The shapes are int, float and bool, ``X | None`` (a file value is
    never None), ``tuple[X, ...]`` and the triple ``tuple[X, X, X]``,
    both comma-separated.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        (hint,) = set(args) - {type(None)}
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        parts = tuple(_parse(part.strip(), key, args[0]) for part in raw.split(","))
        if args[-1] is not Ellipsis and len(parts) != len(args):
            raise ConfigError(f"{key}: expected three comma-separated coordinates")
        return parts
    if hint is bool:
        return _parse_bool(raw, key)
    try:
        return hint(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {hint.__name__}") from exc


def _config_keys() -> dict:
    """{key: (config class, field name, annotation)}, one key per settable field.

    Every field of :class:`SystemConfig` but ``N`` (a sweep takes its
    element counts from ``n_sweep``) and of :class:`ExperimentConfig`
    but ``system``, under its lower-cased name.
    """
    keys = {}
    for cls, skip in ((SystemConfig, "N"), (ExperimentConfig, "system")):
        hints = typing.get_type_hints(cls)
        keys.update(
            (f.name.lower(), (cls, f.name, hints[f.name])) for f in fields(cls) if f.name != skip
        )
    return keys


_KEYS = _config_keys()
_DBM_KEYS = {"pmax_dbm": "pmax", "sigma2_dbm": "sigma2"}


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def load_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file; unspecified keys take defaults.

    ``#`` starts a comment.  The keys are the fields of
    :class:`~irs_aircomp.channel.SystemConfig` but ``N`` and of
    :class:`ExperimentConfig` but ``system``, lower-cased (``m``,
    ``pmax``, ``nu``, ``n_sweep``, ``trials``, ...), each parsed by the
    field's annotation: a tuple is comma-separated (``nu`` one angle in
    radians per device, ``ap_position``, ``irs_position`` and
    ``device_center`` a triple in meters, ``n_sweep`` strictly
    increasing element counts), a bool is true/yes/1/on or
    false/no/0/off.  ``pmax_dbm`` and ``sigma2_dbm`` set ``pmax`` and
    ``sigma2`` in dBm (W = 10^((dBm-30)/10)).

    Unknown keys, duplicate keys, unparsable values, or violated
    invariants raise ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    kwargs: dict = {SystemConfig: {}, ExperimentConfig: {}}
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        key = key.lower()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)

        if key in _DBM_KEYS:
            base = _DBM_KEYS[key]
            if base in seen:
                raise ConfigError(f"{key} conflicts with {base}")
            seen.add(base)
            cls, name, hint = _KEYS[base]
            try:
                kwargs[cls][name] = dbm_to_watts(_parse(raw, key, hint))
            except OverflowError:
                raise ConfigError(f"{key}: {raw} dBm overflows the watts of a float") from None
        elif key in _KEYS:
            cls, name, hint = _KEYS[key]
            kwargs[cls][name] = _parse(raw, key, hint)
        else:
            why = "; element counts come from n_sweep" if key == "n" else ""
            raise ConfigError(f"line {lineno}: unknown key {key!r}{why}")

    try:
        system = SystemConfig(**kwargs[SystemConfig])
        return ExperimentConfig(system=system, **kwargs[ExperimentConfig])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

