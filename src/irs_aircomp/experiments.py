"""Scheme registry, Monte Carlo engine, parameter sweeps, and persistence.

Long-term quantities (beamformer, voted phases) are computed once per
geometry; channels are redrawn per trial.  Every trial owns a
counter-based stream derived from (master seed, point index, trial
index), so runs are a pure function of the configuration and seed.
The engine is trial-major: each trial draws one channel block from its
stream, every scheme evaluates that same block (schemes of one kind
share its effective channels), and power control runs on blocks of
trials at once.  Only a scheme whose channels come out degenerate draws
again, from the same stream, as if it had been run alone.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import astuple, dataclass, field, replace
from functools import cached_property

import numpy as np

from .analysis import AsymptoticParams, mse_upper_bound, n_threshold
from .channel import (
    ChannelRealization,
    Geometry,
    SystemConfig,
    _reflection_factors,
    _scalar_channels,
    line_of_sight,
    make_geometry,
    sample_channels,
)
from .numerics import RngStream, as_generator
from .protocol import (
    DegenerateChannelError,
    PhaseShiftVector,
    phase_index_rows,
    power_control_rows,
    receive_beamformer,
    vote_indices,
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

CSV_HEADER = (
    "scheme,N,M,K,trials,mean_mse,stderr_mse,mean_ktilde,bound_mse,n_threshold"
)

_MAX_REDRAWS = 100


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


@dataclass
class ExperimentConfig:
    """A sweep: the system under test plus trial counts, seed, and output."""

    system: SystemConfig = field(default_factory=SystemConfig)
    n_sweep: tuple[int, ...] = (64, 128, 256, 512)
    trials: int = 10_000
    seed: int = 0
    epsilon: float = 0.9
    redraw_geometry_per_trial: bool = False
    output: str | None = None

    def __post_init__(self) -> None:
        self.n_sweep = tuple(int(n) for n in self.n_sweep)
        if len(self.n_sweep) < 1 or any(n < 1 for n in self.n_sweep):
            raise ConfigError("n_sweep must contain positive element counts")
        if any(b <= a for a, b in zip(self.n_sweep, self.n_sweep[1:])):
            raise ConfigError("n_sweep must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must be in (0, 1)")


@dataclass(frozen=True)
class LongTermState:
    """Per-geometry long-term variables: beamformer and phase configurations.

    ``voted_reflection`` and ``zero_reflection`` are the block-independent
    (gain, row) factors of the effective channel under each phase
    configuration, built on first use and shared by every block drawn on
    this geometry.
    """

    v: np.ndarray
    theta_voted: PhaseShiftVector
    theta_fixed: PhaseShiftVector
    geometry: Geometry = field(repr=False)

    @cached_property
    def voted_reflection(self) -> tuple[complex, np.ndarray]:
        return _reflection_factors(self.geometry, self.v, self.theta_voted.phases)

    @cached_property
    def zero_reflection(self) -> tuple[complex, np.ndarray]:
        return _reflection_factors(self.geometry, self.v, self.theta_fixed.phases)


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


@dataclass
class SweepResult:
    rows: list[SweepRow]
    rejected_trials: int = 0


def compute_long_term(geometry: Geometry, config: SystemConfig) -> LongTermState:
    """Static beamformer plus voted and all-zero phase configurations.

    The voted phases come from one array computation: every device's
    preferred level indices as a (K, N) matrix
    (:func:`~irs_aircomp.protocol.phase_index_rows`), fused by one
    per-element count (:func:`~irs_aircomp.protocol.vote_indices`).
    """
    v = receive_beamformer(geometry.phi_r, config.M, geometry.spacing_ratio)
    preferred = phase_index_rows(
        geometry.phi_t, geometry.nu, config.N, config.L, geometry.spacing_ratio
    )
    return LongTermState(
        v=v,
        theta_voted=PhaseShiftVector(vote_indices(preferred, config.L), config.L),
        theta_fixed=PhaseShiftVector.zero(config.N, config.L),
        geometry=geometry,
    )


def _dominant_direct_combiner(realization: ChannelRealization) -> np.ndarray:
    """Unit-norm combiner matched to the strongest direction of the direct channels."""
    H = realization.h_direct  # (K, M)
    corr = H.T @ H.conj()  # sum_k h_k h_k^H
    _, vecs = np.linalg.eigh(corr)
    return vecs[:, -1]


# Trials whose gammas go through power control together; extra memory
# is this many rows of K per scheme kind, whatever the trial count.
_POWER_BLOCK = 64


def _kind_gammas(
    kind: str, realization: ChannelRealization, long_term: LongTermState
) -> np.ndarray:
    if kind == _DIRECT:
        v = _dominant_direct_combiner(realization)
        return realization.h_direct @ v.conj()
    if kind == _VOTED:
        gain, row = long_term.voted_reflection
    else:
        gain, row = long_term.zero_reflection
    return _scalar_channels(realization, long_term.v, gain, row)


def _trial_gammas(
    config: SystemConfig,
    geometry: Geometry,
    long_term: LongTermState,
    gen: np.random.Generator,
    schemes: list[Scheme],
    los: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], int]:
    """One trial's effective channels per kind, and the degenerate draws rejected.

    Every kind starts from the trial's first draw.  A kind whose
    channels are degenerate moves on to the next draw of the same
    generator, drawn only then, so each scheme sees the draw sequence
    that a fresh generator of the trial's stream would give it alone;
    its rejections count once per scheme.
    """
    draws: list[ChannelRealization] = []
    gammas: dict[str, np.ndarray] = {}
    redraws: dict[str, int] = {}
    for scheme in schemes:
        kind = scheme.kind
        if kind in gammas:
            continue
        for i in range(_MAX_REDRAWS):
            if i == len(draws):
                draws.append(sample_channels(geometry, config, gen, los))
            g = _kind_gammas(kind, draws[i], long_term)
            if np.all(np.abs(g) > 0.0):
                gammas[kind], redraws[kind] = g, i
                break
        else:
            raise DegenerateChannelError(
                f"{scheme.value}: degenerate channel persisted through {_MAX_REDRAWS} redraws"
            )
    return gammas, sum(redraws[s.kind] for s in schemes)


def _power_control(scheme: Scheme, gammas: np.ndarray, config: SystemConfig):
    """(mse, critical_number) per row of a (B, K) gamma block under the scheme's rule."""
    _, _, kt, mse = power_control_rows(
        gammas, config.Pmax, config.sigma2, inversion=scheme.inversion
    )
    return mse, kt


def run_trial(
    config: SystemConfig,
    geometry: Geometry,
    scheme: Scheme,
    stream: RngStream | np.random.Generator,
    long_term: LongTermState | None = None,
) -> tuple[float, int]:
    """One coherence block under one scheme: (mse, critical_number).

    Degenerate all-zero channels are rejected and redrawn from the same
    stream.  The same evaluation as one scheme of one :func:`run_sweep`
    trial.
    """
    scheme = Scheme(scheme)
    if long_term is None:
        long_term = compute_long_term(geometry, config)
    gammas, _ = _trial_gammas(config, geometry, long_term, as_generator(stream), [scheme])
    mse, kt = _power_control(scheme, gammas[scheme.kind][None, :], config)
    return float(mse[0]), int(kt[0])


def _trial_streams(seed: int, point: int, trial: int, trials: int) -> tuple[RngStream, RngStream]:
    """(geometry stream, channel stream) for one (point, trial) coordinate."""
    base = point * trials + trial
    return RngStream(seed, 2 + 2 * base), RngStream(seed, 3 + 2 * base)


def run_sweep(config: ExperimentConfig, schemes) -> SweepResult:
    """Monte Carlo means over the sweep axis for each scheme.

    Geometry is drawn once from stream 0 and held fixed (it does not
    depend on N), matching the multi-timescale split: long-term
    variables per geometry, channels per trial.  With
    ``redraw_geometry_per_trial`` each trial draws its own geometry,
    for studies whose randomness lives in the static angles.  Each
    trial draws one channel block that every scheme evaluates.
    """
    schemes = [Scheme(s) for s in schemes]
    if not schemes:
        raise ConfigError("at least one scheme is required")
    duplicates = sorted({s.value for s in schemes if schemes.count(s) > 1})
    if duplicates:
        raise ConfigError(f"duplicate schemes: {', '.join(duplicates)}")
    blocked = [s.value for s in schemes if s.kind == _DIRECT]
    if config.system.block_direct and blocked:
        raise ConfigError(f"block_direct leaves no direct link for {', '.join(blocked)}")
    kinds = list(dict.fromkeys(s.kind for s in schemes))
    T = config.trials
    base_system = config.system

    reference_geometry = make_geometry(base_system, RngStream(config.seed, 0))
    rho_min = reference_geometry.rho_1 * float(np.min(reference_geometry.rho_r))

    rows: list[SweepRow] = []
    rejected = 0
    for p, N in enumerate(config.n_sweep):
        system = replace(base_system, N=N)
        geometry, long_term, los = reference_geometry, None, None
        if not config.redraw_geometry_per_trial:
            long_term = compute_long_term(reference_geometry, system)
            los = line_of_sight(reference_geometry, system)
            los.setflags(write=False)  # shared by every block's h_reflect under pure_los

        mses = {s: np.empty(T) for s in schemes}
        ktildes = {s: np.empty(T, dtype=np.int64) for s in schemes}
        for start in range(0, T, _POWER_BLOCK):
            stop = min(start + _POWER_BLOCK, T)
            block = {kind: np.empty((stop - start, system.K), dtype=complex) for kind in kinds}
            for t in range(start, stop):
                geo_stream, chan_stream = _trial_streams(config.seed, p, t, T)
                if config.redraw_geometry_per_trial:
                    geometry = make_geometry(system, geo_stream)
                    long_term = compute_long_term(geometry, system)
                gammas, redrawn = _trial_gammas(
                    system, geometry, long_term, chan_stream.generator(), schemes, los
                )
                rejected += redrawn
                for kind in kinds:
                    block[kind][t - start] = gammas[kind]
            for s in schemes:
                mses[s][start:stop], ktildes[s][start:stop] = _power_control(
                    s, block[s.kind], system
                )

        bound = threshold = None
        if system.L == 2:
            params = AsymptoticParams(
                M=system.M,
                N=N,
                K=system.K,
                Pmax=system.Pmax,
                sigma2=system.sigma2,
                rho_min=rho_min,
                epsilon=config.epsilon,
            )
            bound = mse_upper_bound(params)
            threshold = n_threshold(params, rho_min)
        for s in schemes:
            vals = mses[s]
            mean = math.fsum(vals) / T
            stderr = float(np.std(vals, ddof=1) / math.sqrt(T)) if T > 1 else 0.0
            voted = s.kind == _VOTED
            rows.append(
                SweepRow(
                    scheme=s.value,
                    N=N,
                    M=system.M,
                    K=system.K,
                    trials=T,
                    mean_mse=mean,
                    stderr_mse=stderr,
                    mean_ktilde=math.fsum(ktildes[s]) / T,
                    bound_mse=bound if voted else None,
                    n_threshold=threshold if voted else None,
                )
            )

    rows.sort(key=lambda r: (r.scheme, r.N))
    return SweepResult(rows=rows, rejected_trials=rejected)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # full round-trip precision
    return str(value)


def write_rows(result: SweepResult, fh) -> None:
    """Fixed header, then rows sorted by (scheme, N) with round-trip floats."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in sorted(result.rows, key=lambda r: (r.scheme, r.N)):
        writer.writerow([_format_cell(value) for value in astuple(r)])


def write_csv(result: SweepResult, path) -> None:
    """:func:`write_rows` into a UTF-8 file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_rows(result, fh)
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path}: {exc}") from exc


_SYSTEM_KEYS = {
    "m": ("M", int),
    "n": ("N", int),
    "k": ("K", int),
    "l": ("L", int),
    "pmax": ("Pmax", float),
    "sigma2": ("sigma2", float),
    "rician_delta": ("rician_delta", float),
    "spacing_ratio": ("spacing_ratio", float),
    "pathloss_exponent_reflected": ("pathloss_exponent_reflected", float),
    "pathloss_exponent_direct": ("pathloss_exponent_direct", float),
    "ref_loss_linear": ("ref_loss_linear", float),
    "pure_los": ("pure_los", bool),
    "block_direct": ("block_direct", bool),
    "device_radius": ("device_radius", float),
    "phi_r": ("phi_r", float),
    "phi_t": ("phi_t", float),
}
_TRIPLE_KEYS = {"ap_position", "irs_position", "device_center"}
_EXPERIMENT_KEYS = {
    "trials": ("trials", int),
    "seed": ("seed", int),
    "epsilon": ("epsilon", float),
    "redraw_geometry_per_trial": ("redraw_geometry_per_trial", bool),
    "output": ("output", str),
}
_DBM_KEYS = {"pmax_dbm": "pmax", "sigma2_dbm": "sigma2"}


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_value(raw: str, key: str, kind):
    if kind is bool:
        return _parse_bool(raw, key)
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from exc


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def load_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file; unspecified keys take defaults.

    ``#`` starts a comment.  Recognized keys:

    system     -- m, n, k, l, pmax, sigma2, rician_delta, spacing_ratio,
                  pathloss_exponent_reflected, pathloss_exponent_direct,
                  ref_loss_linear, pure_los, block_direct, device_radius,
                  phi_r, phi_t, nu (comma-separated radians, one per device),
                  ap_position, irs_position, device_center (comma triples, m)
    experiment -- n_sweep (comma-separated, strictly increasing), trials,
                  seed, epsilon, redraw_geometry_per_trial, output
    dBm forms  -- pmax_dbm, sigma2_dbm (converted via W = 10^((dBm-30)/10))

    Unknown keys, duplicate keys, unparsable values, or violated
    invariants raise ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    system_kwargs: dict = {}
    experiment_kwargs: dict = {}
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
            field_name, _ = _SYSTEM_KEYS[base]
            system_kwargs[field_name] = dbm_to_watts(_parse_value(raw, key, float))
        elif key in _SYSTEM_KEYS:
            field_name, kind = _SYSTEM_KEYS[key]
            system_kwargs[field_name] = _parse_value(raw, key, kind)
        elif key in _TRIPLE_KEYS:
            parts = [_parse_value(p, key, float) for p in raw.split(",")]
            if len(parts) != 3:
                raise ConfigError(f"{key}: expected three comma-separated coordinates")
            system_kwargs[key] = tuple(parts)
        elif key == "nu":
            system_kwargs["nu"] = tuple(
                _parse_value(p, key, float) for p in raw.split(",")
            )
        elif key == "n_sweep":
            experiment_kwargs["n_sweep"] = tuple(
                _parse_value(p, key, int) for p in raw.split(",")
            )
        elif key in _EXPERIMENT_KEYS:
            field_name, kind = _EXPERIMENT_KEYS[key]
            experiment_kwargs[field_name] = _parse_value(raw, key, kind)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    try:
        system = SystemConfig(**system_kwargs)
        return ExperimentConfig(system=system, **experiment_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

