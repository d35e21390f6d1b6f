"""Scenario geometry and per-coherence-block channel realizations.

Three link types: device-AP direct (Rayleigh), device-IRS (Rician with
line-of-sight steering component), IRS-AP (deterministic rank-1
line-of-sight, never materialized as a matrix).  The IRS-AP link reaches
the AP through a_N(phi_t)^H, so a block keeps the device-IRS line of
sight with that steering folded in: device k's steering factors at the
difference slope 2*pi*s*(sin(nu_k) - sin(phi_t)), K(N/B + B) values
for K devices and N elements, from about K(24 + N/512) exponentials.
Every reader of the effective channel needs only their sums against
Theta's phasors, which the projection kernel forms from the factors, so
no (K, N) line-of-sight array is built unless ``h_reflect`` or
:func:`line_of_sight` is read; those two multiply a_N(phi_t) back in.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import (
    _MAX_FLOAT,
    RngStream,
    _blocked_dot,
    _expand,
    _Factors,
    _project,
    _require_count,
    _require_powers,
    _require_ref_loss,
    _require_spacing,
    _responses,
    _slope,
    _steering_factors,
    as_generator,
)

__all__ = [
    "SystemConfig",
    "Geometry",
    "ChannelRealization",
    "pathloss",
    "make_geometry",
    "line_of_sight",
    "sample_channels",
    "effective_scalar_channel",
]


@dataclass(frozen=True)
class SystemConfig:
    """Scalar protocol and scenario parameters, validated once and then frozen.

    Powers are in watts, angles in radians, positions in meters.  Every
    |coordinate| of the AP and the IRS, and |device_center| +
    device_radius, must be at most 2**510 m, so that every distance is
    a finite float.
    ``rician_delta`` is the linear line-of-sight to scattered power
    ratio of the device-IRS links; ``pure_los`` replaces those links by
    their line-of-sight component exactly (the delta -> infinity limit).
    ``ref_loss_linear`` is the attenuation at the 1 m reference distance.
    Angle fields left at None are drawn uniformly from (-pi/2, pi/2)
    when the geometry is built; setting them pins the draw (regression
    scenarios).
    """

    M: int = 10
    N: int = 256
    K: int = 20
    L: int = 2
    Pmax: float = 0.1          # 20 dBm
    sigma2: float = 1e-11      # -80 dBm
    rician_delta: float = 10.0  # 10 dB
    spacing_ratio: float = 0.5
    pathloss_exponent_reflected: float = 2.2
    pathloss_exponent_direct: float = 3.8
    ref_loss_linear: float = 1e-3  # 30 dB at 1 m
    pure_los: bool = False
    block_direct: bool = False
    ap_position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    irs_position: tuple[float, float, float] = (0.0, 0.0, 10.0)
    device_center: tuple[float, float, float] = (200.0, 0.0, 0.0)
    device_radius: float = 20.0
    phi_r: float | None = None
    phi_t: float | None = None
    nu: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("M", "N", "K", "L"):
            _require_count(getattr(self, name), name)
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not _all_finite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        _require_powers(self.Pmax, self.sigma2)
        if self.rician_delta < 0:
            raise ValueError("rician_delta must be non-negative")
        _require_spacing(self.spacing_ratio, max(self.N, self.M))
        if min(self.pathloss_exponent_reflected, self.pathloss_exponent_direct) < 0:
            raise ValueError("path loss exponents must be non-negative")
        _require_ref_loss(self.ref_loss_linear)
        if self.device_radius < 0:
            raise ValueError("device_radius must be non-negative")
        extents = {name: max(abs(c) for c in getattr(self, name)) for name in _POSITIONS}
        extents["device_radius"] = self.device_radius
        reach = max(  # the largest |coordinate| of the AP, the IRS or a device
            extents["ap_position"], extents["irs_position"],
            extents["device_center"] + self.device_radius,
        )
        if not reach <= _MAX_COORDINATE:
            name = max(extents, key=extents.get)
            raise ValueError(
                f"{name} is too far out: every |coordinate| and |device_center| + device_radius"
                f" must be at most 2**510 m, got {getattr(self, name)!r}"
            )
        if self.nu is not None and len(self.nu) != self.K:
            raise ValueError("nu override must provide one angle per device")


# The positions, and the bound on a node's coordinates.  A distance is
# the norm of a coordinate difference, which squares each part: parts up
# to 2 * 2**510 keep a sum of three squares, and so every distance, finite.
_POSITIONS = ("ap_position", "irs_position", "device_center")
_MAX_COORDINATE = 2.0**510


def _all_finite(value) -> bool:
    """Whether a config value, a number or a tuple or list of numbers, is finite throughout.

    A number is finite when it lies within the float range, so a Python
    int past it is not; any other value (an array, a string, a nested
    sequence) is read as a float array, as numpy reads it.
    """
    if not isinstance(value, np.ndarray):
        try:
            items = value if isinstance(value, (tuple, list)) else (value,)
            return all(-_MAX_FLOAT <= x <= _MAX_FLOAT for x in items)
        except (TypeError, ValueError):
            pass
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


@dataclass(frozen=True, eq=False)
class Geometry:
    """Static node placement, angles, and large-scale path losses."""

    device_positions: np.ndarray  # (K, 3)
    phi_r: float                  # IRS -> AP angle of arrival
    phi_t: float                  # IRS -> AP angle of departure
    nu: np.ndarray                # (K,) device -> IRS angles of arrival
    rho_1: float                  # IRS-AP path loss
    rho_d: np.ndarray             # (K,) direct path losses (0 when blocked)
    rho_r: np.ndarray             # (K,) device-IRS path losses
    spacing_ratio: float = 0.5    # the config's; effective_scalar_channel reads it


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One coherence block: what it drew, and the factors of its line of sight.

    ``h_direct`` (K, M) holds the direct links and ``scattered`` (K, N)
    the device-IRS links' scattered part, amplitude included, or None
    under ``pure_los``.  The device-IRS line of sight depends only on the
    geometry and N and is kept as steering factors ``los`` with the
    IRS-AP steering a_N(phi_t)^H folded in: row k of their expansion is
    :func:`line_of_sight`'s row k times conj(a_N(phi_t)), up to rounding.
    The IRS-AP link is rank-1 deterministic and lives in the geometry
    (rho_1, phi_r, phi_t).  Both are expanded on the fly, never stored:
    ``h_reflect`` builds the (K, N) device-IRS vectors on each read.
    """

    h_direct: np.ndarray
    scattered: np.ndarray | None
    geometry: Geometry = field(repr=False)
    los: _Factors = field(repr=False)

    @property
    def h_reflect(self) -> np.ndarray:
        """The (K, N) device-IRS vectors: the line of sight plus the scattered part, if any."""
        los = _unfolded(self.los, self.geometry)
        return los if self.scattered is None else self.scattered + los


def _caller_level() -> int:
    """The ``stacklevel`` of its caller's warning at the first frame outside the package."""
    frame, level = sys._getframe(1), 1
    while frame.f_back and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    return level


def pathloss(distance: float, exponent: float, ref_loss_linear: float) -> float:
    """Large-scale power attenuation ref_loss_linear * distance**(-exponent).

    Distances under the 1 m reference are clamped to 1 m with a warning
    (near-field guard).  The one-distance case of :func:`_pathlosses`.
    A negative or non-finite distance or exponent, or a reference loss
    outside (0, 1], the range ``SystemConfig`` takes, raises
    ``ValueError`` naming it.
    """
    if not 0 <= distance <= _MAX_FLOAT:
        raise ValueError(f"distance must be non-negative and finite, got {distance!r}")
    if not 0 <= exponent <= _MAX_FLOAT:
        raise ValueError(f"exponent must be non-negative and finite, got {exponent!r}")
    _require_ref_loss(ref_loss_linear)
    return float(_pathlosses(np.array([distance], dtype=float), exponent, ref_loss_linear)[0])


def _pathlosses(distances: np.ndarray, exponent: float, ref_loss_linear: float) -> np.ndarray:
    """:func:`pathloss` at each distance of an array, warning once per clamped one.

    The one place of the clamp, its warning and the power.  The powers
    are Python-float ``**``, libm ``pow``: numpy's vectorised np.power
    is not libm pow (on an AVX-512 build of numpy 2.4.6 it differed on
    10 474 of 200 000 distances at exponent 2.2), so vectorising would
    move every path loss, and every sweep result, in the last bits.
    """
    flat = distances.ravel().tolist()
    for distance in flat:
        if distance < 1.0:
            warnings.warn(
                f"distance {distance} m inside 1 m reference, clamping", stacklevel=_caller_level()
            )
    power = -exponent
    losses = [ref_loss_linear * (1.0 if d < 1.0 else d) ** power for d in flat]
    return np.array(losses).reshape(distances.shape)


def make_geometry(
    config: SystemConfig, stream: RngStream | np.random.Generator
) -> Geometry:
    """Draw the static scenario: device positions on a disk plus link angles.

    Devices are uniform over the disk of radius ``device_radius`` around
    ``device_center``, in the horizontal plane through it: every device
    has ``device_center``'s z coordinate.  Path losses follow 3-D
    Euclidean distances (reflected exponent for AP-IRS and IRS-device
    links, direct exponent for device-AP links).  Angles are drawn
    uniformly from (-pi/2, pi/2) unless pinned in the config; the draws
    always happen so that pinning one angle never shifts the rest of the
    stream.  The one-stream case of :func:`_make_geometries`.
    """
    return _make_geometries(config, [stream])[0]


def _make_geometries(config: SystemConfig, streams, generator=as_generator) -> list[Geometry]:
    """:func:`make_geometry` of each stream, the arithmetic done once for all of them.

    Each stream makes its draws from ``generator(stream)``: by default a
    stream is an RngStream or a Generator, and the engine passes stream
    ids with its :func:`~irs_aircomp.numerics._rewinder`.  A geometry is
    3K + 2 uniforms u in one ``random`` call, in make_geometry's order:
    the K radius fractions, the K azimuths, phi_r, phi_t and the K nu,
    each ``low + (high - low) * u`` on [low, high) as numpy's ``uniform``
    forms it, so the stream ends where K + K + 1 + 1 + K uniform draws
    leave it.  Positions, distances and path losses of every geometry
    are then elementwise passes over the (B, K) stacks, each path loss a
    Python ``**``, so every geometry equals, bit for bit, the call with
    its stream alone.  The geometries' arrays are rows of the stacks.
    """
    K = config.K
    draws = np.empty((len(streams), 3 * K + 2))
    for row, stream in zip(draws, streams):
        generator(stream).random(out=row)
    B = len(draws)
    radii = config.device_radius * np.sqrt(draws[:, :K])
    azimuth = draws[:, K : 2 * K] * (2.0 * np.pi)  # on [0, 2*pi)
    angles = draws[:, 2 * K :] * np.pi - np.pi / 2  # phi_r, phi_t, nu on [-pi/2, pi/2)
    positions = np.empty((B, K, 3))
    positions[..., 0] = config.device_center[0] + radii * np.cos(azimuth)
    positions[..., 1] = config.device_center[1] + radii * np.sin(azimuth)
    positions[..., 2] = config.device_center[2]
    phi_r = angles[:, 0].tolist() if config.phi_r is None else [config.phi_r] * B
    phi_t = angles[:, 1].tolist() if config.phi_t is None else [config.phi_t] * B
    nu = angles[:, 2:] if config.nu is None else np.tile(np.asarray(config.nu, dtype=float), (B, 1))

    exp_r = config.pathloss_exponent_reflected
    exp_d = config.pathloss_exponent_direct
    ref = config.ref_loss_linear
    nodes = np.array((config.ap_position, config.irs_position))
    rho_1 = pathloss(np.linalg.norm(nodes[1] - nodes[0]), exp_r, ref)
    # (B, K, 2): to the AP, to the IRS
    dist = np.linalg.norm(positions[..., None, :] - nodes, axis=-1)
    rho_d = np.zeros((B, K)) if config.block_direct else _pathlosses(dist[..., 0], exp_d, ref)
    rho_r = _pathlosses(dist[..., 1], exp_r, ref)
    return [
        Geometry(
            device_positions=positions[b],
            phi_r=phi_r[b],
            phi_t=phi_t[b],
            nu=nu[b],
            rho_1=rho_1,
            rho_d=rho_d[b],
            rho_r=rho_r[b],
            spacing_ratio=config.spacing_ratio,
        )
        for b in range(B)
    ]


def _require_geometry(geometry: Geometry, config: SystemConfig) -> None:
    """Refuse a geometry not made under ``config``: per-device arrays that do not hold
    ``config.K`` devices, or a spacing ratio other than ``config.spacing_ratio``."""
    for name in ("nu", "rho_d", "rho_r"):
        if (shape := np.shape(getattr(geometry, name))) != (config.K,):
            raise ValueError(f"geometry.{name} has shape {shape}, not config.K = {config.K}")
    if (spacing := geometry.spacing_ratio) != config.spacing_ratio:
        raise ValueError(
            f"geometry.spacing_ratio = {spacing!r},"
            f" not config.spacing_ratio = {config.spacing_ratio!r}"
        )


def line_of_sight(geometry: Geometry, config: SystemConfig) -> np.ndarray:
    """Line-of-sight part of the device-IRS links, (K, N), amplitude included.

    Steering vectors toward each device scaled by the Rician
    line-of-sight amplitude sqrt(rho_r delta/(delta+1)), or by
    sqrt(rho_r) with ``pure_los``.  It depends only on the geometry and
    N, and draws nothing.

    Row k is the expansion of :func:`_line_of_sight`'s factors, at the
    difference slope with the amplitude folded into the coarse factor,
    each times a_N(phi_t)'s (:func:`_unfolded`): within
    amplitude*eps*(m*(2|d_k| + |s_t| + |s_k|)/2 + 20) of the complex
    chain amplitude*exp(2j*pi*s*sin(nu_k)*m) at element m, for the slopes
    s_k = 2*pi*s*sin(nu_k), s_t = 2*pi*s*sin(phi_t) and d_k = s_k - s_t
    (``tests/steering_bound.py`` counts the roundings).  Element m
    depends on m alone, so the first n columns at N equal the whole
    output at n.  A geometry not made under ``config`` (another device
    count or spacing ratio) raises ``ValueError``.
    """
    _require_geometry(geometry, config)
    los = _line_of_sight(config, geometry.rho_r, geometry.nu, geometry.phi_t, config.N)
    return _unfolded(los, geometry)


def _line_of_sight(config: SystemConfig, rho_r, nu, phi_t, n_elements: int) -> _Factors:
    """The folded steering factors of the line of sight of a stack, rho_r and nu (B, K)
    and phi_t (B,), or of one geometry, (K,) and a float, at ``n_elements``; of
    ``config`` it reads the link model and the spacing, not N.

    Device k's slope is the difference fl(s_k - s_t) of its own, s_k =
    (2*pi*s)*sin(nu_k), and the IRS-AP departure slope s_t of
    a_N(phi_t), so row k of the expansion is the line of sight times
    conj(a_N(phi_t)), and its sums against Theta's phasors are the
    reflected path's.  Every step is elementwise, so each geometry's
    factors equal, bit for bit, those of the call on it alone.
    """
    rho = rho_r
    if not config.pure_los:
        delta = config.rician_delta
        rho = rho * delta / (delta + 1.0)
    spacing = config.spacing_ratio
    if np.ndim(phi_t):
        departure = np.array([[_slope(angle, spacing)] for angle in phi_t])
    else:
        departure = _slope(phi_t, spacing)
    slope = (2.0 * np.pi * spacing) * np.sin(nu) - departure
    return _steering_factors(slope[..., None], n_elements, np.sqrt(rho)[..., None])


def _unfolded(los: _Factors, geometry: Geometry) -> np.ndarray:
    """The (K, n) line of sight of a block's folded factors: their rows times a_N(phi_t).

    a_N(phi_t) is multiplied in factor by factor, its coarse factors into
    the coarse ones and its fine factors into the fine ones, before the
    K*n products of the expansion.
    """
    steering = _steering_factors(_slope(geometry.phi_t, geometry.spacing_ratio), los.n)
    return _expand(_Factors(los.coarse * steering.coarse, los.fine * steering.fine, los.n))


# numpy divides a complex by the real sqrt(2) (Smith's method) as a
# multiplication of both parts by 1/(sqrt(2) + 0*0).
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def sample_channels(
    geometry: Geometry,
    config: SystemConfig,
    stream: RngStream | np.random.Generator,
) -> ChannelRealization:
    """Draw one coherence block of small-scale fading.

    Direct links: sqrt(rho_d) times an i.i.d. unit-variance complex
    Gaussian vector.  Device-IRS links mix the steering-vector
    line-of-sight component with an i.i.d. scattered component at the
    configured Rician ratio; with ``pure_los`` the scattered part is
    dropped exactly and no scattered draw is made.  The line-of-sight
    part is kept as the folded factors of :func:`_line_of_sight`, a_N(phi_t)^H
    included: about K(24 + N/512) exponentials and no (K, N) array
    whether or not the block is pure line of sight; it does not touch
    the stream.  A geometry not made under ``config`` (another device
    count or spacing ratio) raises ``ValueError`` before any draw.

    Draw order: the direct links first, a (K, M) real plane then a
    (K, M) imaginary plane; then the scattered part element-major, each
    element's devices in turn, each value's real part before its
    imaginary part.  Scattered element (k, m), part c, is therefore
    normal number 2KM + 2(mK + k) + c of the stream whatever N is, so
    the first n columns of a block drawn at N equal, bit for bit, the
    block drawn at n from the same generator state.  That holds for one
    block: where the stream stands after it depends on N.
    ``scattered`` is a (K, N) view of the element-major buffer.

    The arithmetic is real and in place, and ``h_reflect`` equals, bit
    for bit, ``los + a*((x + 1j*y)/sqrt(2))`` with ``los`` =
    :func:`line_of_sight`: the complex division scales each part by
    ``_INV_SQRT2``, and the product with the real amplitude a has cross
    terms that are signed zeros, which vanish in the sum with the
    line-of-sight part (a scattered term is never zero).  ``los`` itself
    is within :func:`line_of_sight`'s bound of the complex steering
    chain.  The direct links keep the complex product, whose signed zeros
    a blocked link (rho_d = 0) shows.
    """
    _require_geometry(geometry, config)
    gen = as_generator(stream)
    K, N = config.K, config.N
    los = _line_of_sight(config, geometry.rho_r, geometry.nu, geometry.phi_t, N)

    h_direct = _direct_links(geometry.rho_d, gen.standard_normal((2, K, config.M)))
    if config.pure_los:
        return ChannelRealization(h_direct, None, geometry, los)

    nlos_amp = np.sqrt(geometry.rho_r / (config.rician_delta + 1.0))
    scattered = np.empty((N, K), dtype=complex)
    parts = scattered.view(float)  # (N, 2K): per element, each device's real and imaginary
    gen.standard_normal(out=parts)
    parts *= _INV_SQRT2
    parts *= np.repeat(nlos_amp, 2)
    return ChannelRealization(h_direct, scattered.T, geometry, los)


def _direct_links(rho_d: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Direct links (..., K, M) from normals (..., 2, K, M), real plane then imaginary.

    ``rho_d`` is (..., K), one path loss per device of each block or of
    all of them.  Every step is elementwise, so each block's links equal,
    bit for bit, those of a call on it alone.
    """
    h_direct = np.empty(normals.shape[:-3] + normals.shape[-2:], dtype=complex)
    np.multiply(normals[..., 0, :, :], _INV_SQRT2, out=h_direct.real)
    np.multiply(normals[..., 1, :, :], _INV_SQRT2, out=h_direct.imag)
    np.multiply(np.sqrt(rho_d)[..., None], h_direct, out=h_direct)
    return h_direct


def _effective_draws(
    rho_d: np.ndarray, config: SystemConfig, segments: int, streams, generator=as_generator
):
    """Each trial's draws for its effective channels, one trial per stream: (h_direct, w).

    ``h_direct`` (B, K, M) holds the direct links, bit for bit those of
    :func:`sample_channels` from the same generator state, and ``w`` (B,
    P, 2, K), P = ``segments``, two CN(0, 1) normals per device and
    segment, from which the caller builds each segment's scattered
    projections (None under ``pure_los``).  A trial draws the direct
    planes, then segment by segment the first normal of every device
    before the second, each value's real part before its imaginary part,
    so a segment's normals sit at the same place in the stream whatever
    segments follow.  It makes them in one ``standard_normal(out=...)``
    call into its row of one buffer, from ``generator(stream)``: by
    default a stream is an RngStream or a Generator, and the engine
    passes stream ids with its :func:`~irs_aircomp.numerics._rewinder`.
    ``rho_d`` is (B, K), or one (K,) row that the trials share.  Every
    later step is elementwise, so row b holds, bit for bit, the draws of
    a call with its stream alone.
    """
    K, M = config.K, config.M
    direct = 2 * K * M
    normals = np.empty((len(streams), direct + (0 if config.pure_los else 4 * segments * K)))
    for row, stream in zip(normals, streams):
        generator(stream).standard_normal(out=row)
    h_direct = _direct_links(rho_d, normals[:, :direct].reshape(-1, 2, K, M))
    if config.pure_los:
        return h_direct, None
    parts = normals[:, direct:]
    parts *= _INV_SQRT2
    return h_direct, parts.view(complex).reshape(-1, segments, 2, K)


def effective_scalar_channel(realization: ChannelRealization, v: np.ndarray, theta) -> np.ndarray:
    """Per-device scalar channel seen after receive combining and reflection.

    Returns, for each device k, v^H (h_direct_k + G Theta h_reflect_k)
    where G = sqrt(rho_1) a_M(phi_r) a_N(phi_t)^H is the rank-1 IRS-AP
    link: v^H h_direct_k + gain * (a_N(phi_t)^H Theta h_reflect_k), with
    the gain of :func:`_reflection_gain`, O(M + N) per device.  The line
    of sight's factors carry a_N(phi_t)^H already, so its share is the
    projection kernel :func:`~irs_aircomp.numerics._project` of the
    factors against Theta's phasors, the engine's own.  The scattered
    part, if any, adds its sums against conj(a_N(phi_t)) Theta in blocks
    of the same fixed shape (:func:`~irs_aircomp.numerics._blocked_dot`),
    so the result does not depend on the BLAS thread count: no (K, N)
    array is formed.  The element spacing is the block's geometry's,
    checked as ``SystemConfig`` checks its own before any steering.
    """
    geo, los = realization.geometry, realization.los
    M, N = realization.h_direct.shape[1], los.n
    v = np.asarray(v)
    if v.shape != (M,):
        raise ValueError(f"v must have shape ({M},), got {v.shape}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"v must be unit norm, got ||v|| = {norm}")
    if theta.num_elements != N:
        raise ValueError(f"phase-shift vector has {theta.num_elements} elements, expected {N}")
    _require_spacing(geo.spacing_ratio, max(M, N))  # a geometry's copy no config has checked

    gain = _reflection_gain(geo.rho_1, _responses(M, [geo.phi_r], geo.spacing_ratio), v[None])
    phasors = theta.phasors
    reflected = _project(los, phasors[None], (N,))[0, 0]
    if realization.scattered is not None:
        row = _responses(N, [geo.phi_t], geo.spacing_ratio)[0]
        np.conjugate(row, out=row)
        row *= phasors
        reflected += _blocked_dot(realization.scattered, row)
    return realization.h_direct @ v.conj() + gain[0] * reflected


def _reflection_gain(rho_1, a_m, v):
    """The gains (B,) of B geometries' reflected paths: sqrt(rho_1) v^H a_M(phi_r).

    The IRS-AP link is rank-1, so under phases Theta it reaches v^H as
    one scalar gain times a_N(phi_t)^H Theta applied to every device's
    IRS link; the line of sight's factors carry a_N(phi_t)^H, so the
    gain is all that is left.  ``rho_1`` holds one value per geometry
    (or one that all share), ``a_m`` its a_M(phi_r) and ``v`` its
    beamformer as (M,) rows.  a_M(phi_r) comes from the caller, so the
    one the beamformer was built from serves the gain too.  Each gain is
    one M-term dot product per geometry, summed as ``np.vdot`` of the
    pair sums it, so every geometry's gain equals, bit for bit, that of
    a call on it alone.
    """
    return np.sqrt(rho_1) * np.matmul(v.conj()[:, None, :], a_m[:, :, None])[:, 0, 0]
