"""Scheme registry, Monte Carlo engine, parameter sweeps, and persistence.

Long-term quantities (beamformer, voted phases, line of sight) are
computed once per geometry, at the largest N of the sweep, and every N
takes their first N elements; channels are redrawn per trial.  Streams
are counter-based and keyed by coordinate: a trial's channel block by
(master seed, trial), a redrawn geometry by (master seed, trial), so
runs are a pure function of the configuration and seed, and a
sub-sweep, a ``single`` point or a longer run reproduces the draws of
the run it overlaps.  The engine is trial-major: each trial draws one
channel block at the largest N, every N evaluates its first N columns
(a smaller surface is a sub-array of a larger one), every scheme
evaluates that same block (schemes of one kind share its effective
channels), and power control runs on blocks of trials at once.  The
direct-link schemes do not see the IRS, so their combiner, one batched
``eigh`` per block of trials, and their power control run once per
trial and serve every N.  A degenerate channel block, one with some
effective channel gamma_k = 0, leaves power control undefined: it raises
:class:`~irs_aircomp.protocol.DegenerateChannelError` naming the
scheme, the N and the first trial that hit it.
"""

from __future__ import annotations

import csv
import enum
import math
import typing
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .analysis import AsymptoticParams, mse_upper_bound, n_threshold
from .channel import (
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
    """A sweep: the system under test, its element counts, trial count and seed."""

    system: SystemConfig = field(default_factory=SystemConfig)
    n_sweep: tuple[int, ...] = (64, 128, 256, 512)
    trials: int = 10_000
    seed: int = 0
    epsilon: float = 0.9
    redraw_geometry_per_trial: bool = False

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
    this geometry.  The engine holds one state per geometry, at the
    largest N of the sweep, and each N slices its first N elements where
    they are used.
    """

    v: np.ndarray
    theta_voted: PhaseShiftVector
    theta_fixed: PhaseShiftVector
    geometry: Geometry = field(repr=False)

    @cached_property
    def voted_reflection(self) -> tuple[complex, np.ndarray]:
        return _reflection_factors(self.geometry, self.v, self.theta_voted)

    @cached_property
    def zero_reflection(self) -> tuple[complex, np.ndarray]:
        return _reflection_factors(self.geometry, self.v, self.theta_fixed)


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
    """A sweep's rows.  ``rejected_trials`` is always 0, as degenerate
    channels raise; it stays because ``benchmark/workloads.py`` reads it.
    """

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


def _kind_gammas(kind: str, block, long_term: LongTermState, N: int) -> np.ndarray:
    """Scalar channels of the voted or all-zero phases at N, from the block's first N columns."""
    gain, row = long_term.voted_reflection if kind == _VOTED else long_term.zero_reflection
    return _scalar_channels(block.h_direct, block.h_reflect[:, :N], long_term.v, gain, row[:N])


def _block_gammas(config: SystemConfig, trials, schemes: list[Scheme], sizes: tuple[int, ...]):
    """Effective channels per kind of a block of trials, one channel block drawn per trial.

    ``trials`` yields (geometry, long_term, los, generator) per trial;
    ``config``, ``long_term`` and ``los`` are at the largest N.  Each N
    takes the first N elements of the reflection rows and the first N
    columns of the block; every element of these depends on its index
    alone, so the slices equal, bit for bit, what
    :func:`compute_long_term` and :func:`sample_channels` give at N.
    The voted and zero kinds come out (P, B, K), one row per N of
    ``sizes``.  The direct kind does not see the IRS: one batched
    combiner gives it (1, B, K), one row that serves every N.
    """
    kinds = dict.fromkeys(s.kind for s in schemes)
    rows = {kind: [] for kind in kinds if kind != _DIRECT}
    direct = []
    for geometry, long_term, los, gen in trials:
        block = sample_channels(geometry, config, gen, los)
        for kind, kind_rows in rows.items():
            kind_rows.append([_kind_gammas(kind, block, long_term, N) for N in sizes])
        direct.append(block.h_direct)
    out = {kind: np.stack(kind_rows, axis=1) for kind, kind_rows in rows.items()}
    if _DIRECT in kinds:
        out[_DIRECT] = _direct_gammas(np.stack(direct))[None]
    return out


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
    long_term: LongTermState | None = None,
) -> tuple[float, int]:
    """One coherence block under one scheme: (mse, critical_number).

    The same evaluation as one scheme of one :func:`run_sweep` trial:
    one channel block drawn from ``stream``.  A block with some
    gamma_k = 0 raises :class:`~irs_aircomp.protocol.DegenerateChannelError`.
    """
    scheme = Scheme(scheme)
    _reject_blocked(config, [scheme])
    if long_term is None:
        long_term = compute_long_term(geometry, config)
    trial = (geometry, long_term, None, as_generator(stream))
    gammas = _block_gammas(config, [trial], [scheme], sizes=(config.N,))
    _, _, kt, mse = power_control_rows(
        gammas[scheme.kind][0], config.Pmax, config.sigma2, inversion=scheme.inversion
    )
    return float(mse[0]), int(kt[0])


# Stream keys are (kind, N, trial).  Both the geometry and the channel
# stream are keyed by the trial alone (N = 0): every N of a trial sees
# the same geometry and the same channel block, of which it takes the
# first N columns, and no draw depends on the other N values of the
# sweep or on the number of trials.
_GEOMETRY_KEY, _CHANNEL_KEY = 0, 1


def _keyed_generator(seed: int, kind: int, n: int, trial: int) -> np.random.Generator:
    """Counter-based (Philox) generator of the stream at (kind, n, trial).

    The seed, taken mod 2**64, is the run entropy, which numpy pads to
    its four-word pool when a spawn key is given, and each key part must
    fit one 32-bit word.  The assembled entropy is therefore fixed-width
    and distinct for distinct (seed mod 2**64, key), unlike the
    variable-width words of ``RngStream``'s (seed, stream_id), and at
    seven words it never equals that of an ``RngStream`` whose stream_id
    is below 2**64 (four words at most).
    """
    key = (kind, n, trial)
    if not all(0 <= part < 1 << 32 for part in key):
        raise ValueError(f"stream key parts must be in [0, 2**32), got {key}")
    ss = np.random.SeedSequence(seed % (1 << 64), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _bound_params(config: ExperimentConfig, reference: Geometry) -> list[AsymptoticParams]:
    """The closed-form bounds' inputs at each N of the sweep.

    ``rho_min`` is the IRS-AP path loss times the weakest device-IRS
    path loss of ``reference``, the geometry drawn from stream 0; with
    the geometry redrawn per trial it describes that geometry only.
    """
    system = config.system
    rho_min = reference.rho_1 * float(np.min(reference.rho_r))
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

    Geometry is drawn once from stream 0 and held fixed (it does not
    depend on N), matching the multi-timescale split: long-term
    variables per geometry, channels per trial.  With
    ``redraw_geometry_per_trial`` each trial draws its own geometry,
    shared by every N, for studies whose randomness lives in the static
    angles.  Each trial draws one channel block, at the largest N, that
    every scheme evaluates and of which every N takes the first N
    columns, as a smaller surface is a sub-array of a larger one.  The
    direct-link schemes do not see the IRS: their combiner, gammas and
    power control run once per trial, so their rows are the same at
    every N.  The long-term state and line of sight of a geometry are
    built once, at the largest N, and every N slices them where it uses
    them.  A block with some gamma_k = 0 raises ``DegenerateChannelError``
    naming the scheme, the N ("every N" for the direct-link schemes) and
    the first such trial.
    """
    schemes = [Scheme(s) for s in schemes]
    if not schemes:
        raise ConfigError("at least one scheme is required")
    duplicates = sorted({s.value for s in schemes if schemes.count(s) > 1})
    if duplicates:
        raise ConfigError(f"duplicate schemes: {', '.join(duplicates)}")
    system = config.system
    _reject_blocked(system, schemes)
    T = config.trials
    largest = replace(system, N=config.n_sweep[-1])

    def long_term(geometry: Geometry):
        state = compute_long_term(geometry, largest)
        los = line_of_sight(geometry, largest)
        los.setflags(write=False)  # shared by every block's h_reflect under pure_los
        return geometry, state, los

    reference = make_geometry(system, RngStream(config.seed, 0))
    fixed = None if config.redraw_geometry_per_trial else long_term(reference)

    def trials(start: int, stop: int):
        for t in range(start, stop):
            per_geometry = fixed
            if per_geometry is None:
                gen = _keyed_generator(config.seed, _GEOMETRY_KEY, 0, t)
                per_geometry = long_term(make_geometry(system, gen))
            yield *per_geometry, _keyed_generator(config.seed, _CHANNEL_KEY, 0, t)

    shape = (len(config.n_sweep), T)
    mses = {s: np.empty(shape) for s in schemes}
    ktildes = {s: np.empty(shape, dtype=np.int64) for s in schemes}
    for start in range(0, T, _POWER_BLOCK):
        stop = min(start + _POWER_BLOCK, T)
        block = _block_gammas(largest, trials(start, stop), schemes, config.n_sweep)
        for s in schemes:
            kind_rows = block[s.kind]
            for p, gammas in enumerate(kind_rows):
                # a kind with one row, the direct kind, fills every N
                at = slice(None) if len(kind_rows) == 1 else p
                try:
                    _, _, ktildes[s][at, start:stop], mses[s][at, start:stop] = power_control_rows(
                        gammas, system.Pmax, system.sigma2, inversion=s.inversion
                    )
                except DegenerateChannelError as exc:
                    where = "every N" if s.kind == _DIRECT else f"N={config.n_sweep[p]}"
                    first = start + np.flatnonzero((np.abs(gammas) == 0.0).any(axis=1))[0]
                    raise DegenerateChannelError(
                        f"{s.value} at {where}, trial {first}: {exc}"
                    ) from exc

    bounds = [(None, None)] * len(config.n_sweep)
    if system.L == 2:
        bounds = [
            (mse_upper_bound(params), n_threshold(params, params.rho_min))
            for params in _bound_params(config, reference)
        ]
    rows: list[SweepRow] = []
    for p, (N, (bound, threshold)) in enumerate(zip(config.n_sweep, bounds)):
        for s in schemes:
            vals = mses[s][p]
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
                    mean_ktilde=math.fsum(ktildes[s][p]) / T,
                    bound_mse=bound if voted else None,
                    n_threshold=threshold if voted else None,
                )
            )

    rows.sort(key=lambda r: (r.scheme, r.N))
    return SweepResult(rows=rows)


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
        parts = tuple(_parse(part, key, args[0]) for part in raw.split(","))
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
            kwargs[cls][name] = dbm_to_watts(_parse(raw, key, hint))
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

