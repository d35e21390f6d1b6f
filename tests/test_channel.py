import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from irs_aircomp import channel, numerics
from irs_aircomp.channel import (
    SystemConfig,
    effective_scalar_channel,
    line_of_sight,
    make_geometry,
    pathloss,
    sample_channels,
)
from irs_aircomp.experiments import ExperimentConfig, Scheme, compute_long_term, run_sweep
from irs_aircomp.numerics import RngStream, array_response
from irs_aircomp.protocol import (
    PhaseShiftVector,
    channel_inversion_power_control,
    optimal_power_control,
)
from steering_bound import folded_bound, projection_bound


OPT = Scheme.OPT_PC_IRS
BLOCK = numerics._STEERING_BLOCK  # elements per block of the steering kernel
EPS = np.finfo(float).eps


def test_pathloss_reference_distance():
    # 30 dB attenuation at 1 m
    assert pathloss(1.0, 2.2, 1e-3) == pytest.approx(1e-3, rel=1e-15)


def test_pathloss_ten_meters():
    assert pathloss(10.0, 2.2, 1e-3) == pytest.approx(1e-3 * 10 ** (-2.2), rel=1e-12)


def test_pathloss_zero_exponent():
    assert pathloss(5.0, 0.0, 1e-3) == pytest.approx(1e-3, rel=1e-15)


def test_pathloss_near_field_clamps_with_warning():
    with pytest.warns(UserWarning):
        assert pathloss(0.5, 2.0, 1e-3) == pytest.approx(1e-3, rel=1e-15)


@pytest.mark.parametrize("exponent", [0.0, 2.2, 3.8])
def test_batched_path_losses_match_per_call_pathloss_bits(exponent):
    edge = [0.0, 0.5, 1.0, np.nextafter(1.0, 0.0)]
    distances = np.concatenate([np.random.default_rng(7).uniform(0.0, 400.0, 5000), edge])
    with warnings.catch_warnings(record=True) as per_call:
        warnings.simplefilter("always")
        want = np.array([pathloss(d, exponent, 1e-3) for d in distances])
    with warnings.catch_warnings(record=True) as batched:
        warnings.simplefilter("always")
        got = channel._pathlosses(distances, exponent, 1e-3)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    clamped = int((distances < 1.0).sum())
    assert clamped > 4 and len(batched) == len(per_call) == clamped
    assert [str(w.message) for w in batched] == [str(w.message) for w in per_call]


def test_make_geometry_path_losses_match_per_call_pathloss():
    # devices within a meter of the AP clamp, one warning per distance
    config = SystemConfig(K=40, device_center=(0.0, 0.0, 0.0), device_radius=1.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        geo = make_geometry(config, RngStream(4, 0))
    dist_ap = np.linalg.norm(geo.device_positions - config.ap_position, axis=1)
    dist_irs = np.linalg.norm(geo.device_positions - config.irs_position, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho_d = np.array([pathloss(d, 3.8, 1e-3) for d in dist_ap])
        rho_r = np.array([pathloss(d, 2.2, 1e-3) for d in dist_irs])
    np.testing.assert_array_equal(geo.rho_d.view(np.uint64), rho_d.view(np.uint64))
    np.testing.assert_array_equal(geo.rho_r.view(np.uint64), rho_r.view(np.uint64))
    assert len(caught) == int((dist_ap < 1.0).sum()) > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda config: pathloss(0.5, 2.0, 1e-3),
        lambda config: make_geometry(config, RngStream(4, 0)),
        lambda config: run_sweep(ExperimentConfig(config, (8,), trials=2, seed=4), [OPT]),
        lambda config: run_sweep(
            ExperimentConfig(config, (8,), trials=2, seed=4, redraw_geometry_per_trial=True), [OPT]
        ),
    ],
    ids=["pathloss", "make_geometry", "run_sweep", "run_sweep-redraw"],
)
def test_near_field_warning_names_the_caller(call):
    # a clamp deep inside the package points at the code that called into it
    config = SystemConfig(K=40, device_center=(0.0, 0.0, 0.0), device_radius=1.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(config)
    clamps = [w for w in caught if "inside 1 m reference" in str(w.message)]
    assert clamps and {w.filename for w in clamps} == {__file__}


class TestMakeGeometry:
    def test_deterministic(self):
        cfg = SystemConfig()
        a = make_geometry(cfg, RngStream(3, 0))
        b = make_geometry(cfg, RngStream(3, 0))
        np.testing.assert_array_equal(a.device_positions, b.device_positions)
        np.testing.assert_array_equal(a.nu, b.nu)
        assert a.phi_r == b.phi_r and a.phi_t == b.phi_t

    def test_irs_ap_pathloss(self):
        geo = make_geometry(SystemConfig(), RngStream(0, 0))
        assert geo.rho_1 == pytest.approx(1e-3 * 10 ** (-2.2), rel=1e-12)

    def test_disk_lies_at_the_device_center_height(self):
        # devices 500 m up lie in the plane z = 500, and their path losses follow
        # the 3-D distances from there
        cfg = SystemConfig(device_center=(200.0, 0.0, 500.0))
        geo = make_geometry(cfg, RngStream(5, 0))
        flat = make_geometry(replace(cfg, device_center=(200.0, 0.0, 0.0)), RngStream(5, 0))
        assert np.all(geo.device_positions[:, 2] == 500.0)
        np.testing.assert_array_equal(geo.device_positions[:, :2], flat.device_positions[:, :2])
        for rho, node, exponent in (
            (geo.rho_d, cfg.ap_position, 3.8), (geo.rho_r, cfg.irs_position, 2.2)
        ):
            want = [pathloss(math.dist(p, node), exponent, 1e-3) for p in geo.device_positions]
            np.testing.assert_allclose(rho, want, rtol=1e-15)
        assert np.all(geo.rho_d < flat.rho_d)

    def test_degenerate_disk_equal_losses(self):
        cfg = SystemConfig(device_radius=0.0)
        geo = make_geometry(cfg, RngStream(1, 0))
        np.testing.assert_allclose(geo.rho_d, geo.rho_d[0])
        np.testing.assert_allclose(geo.rho_r, geo.rho_r[0])
        np.testing.assert_allclose(
            np.linalg.norm(geo.device_positions - cfg.ap_position, axis=1), 200.0
        )

    def test_angle_ranges_and_overrides(self):
        cfg = SystemConfig(K=5, phi_t=0.25, nu=(0.1, 0.2, 0.3, 0.4, 0.5))
        geo = make_geometry(cfg, RngStream(2, 0))
        assert geo.phi_t == 0.25
        np.testing.assert_array_equal(geo.nu, [0.1, 0.2, 0.3, 0.4, 0.5])
        assert -np.pi / 2 < geo.phi_r < np.pi / 2

    def test_override_does_not_shift_other_draws(self):
        base = make_geometry(SystemConfig(), RngStream(9, 0))
        pinned = make_geometry(SystemConfig(phi_t=0.0), RngStream(9, 0))
        np.testing.assert_array_equal(base.device_positions, pinned.device_positions)
        assert base.phi_r == pinned.phi_r
        np.testing.assert_array_equal(base.nu, pinned.nu)

    def test_blocked_direct_zeroes_losses(self):
        geo = make_geometry(SystemConfig(block_direct=True), RngStream(4, 0))
        assert np.all(geo.rho_d == 0.0)

    def test_nu_override_length_checked(self):
        with pytest.raises(ValueError):
            SystemConfig(K=3, nu=(0.1, 0.2))


@pytest.mark.parametrize(
    "overrides",
    [
        dict(Pmax=float("nan")),
        dict(sigma2=float("inf")),
        dict(rician_delta=float("inf")),
        dict(spacing_ratio=float("nan")),
        dict(device_radius=float("inf")),
        dict(phi_t=float("nan")),
        dict(nu=(0.1, float("nan")), K=2),
        dict(irs_position=(0.0, float("inf"), 10.0)),
        dict(nu=np.array([0.1, np.inf]), K=2),
        dict(ap_position=(float("-inf"), 0.0, 0.0)),
        dict(device_center=[200.0, 0.0, float("nan")]),
        dict(spacing_ratio=1e308),  # finite, but its phases overflow
        dict(rician_delta="inf"),  # not a number: read as numpy reads it
    ],
)
def test_system_config_rejects_non_finite(overrides):
    name = next(iter(overrides))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SystemConfig(**overrides)


def test_farthest_accepted_positions_keep_distances_finite():
    # a norm squares each coordinate difference: past the bound such a distance
    # would be infinite, with a numpy overflow warning, and its path loss exactly 0
    edge = 2.0**510
    config = SystemConfig(
        K=4,
        ap_position=(-edge, -edge, -edge),
        irs_position=(edge, edge, edge),
        device_center=(-edge / 2, edge / 2, 0.0),
        device_radius=edge / 2,
        pathloss_exponent_reflected=0.01,
        pathloss_exponent_direct=0.01,
    )
    with np.errstate(all="raise"):
        geo = make_geometry(config, RngStream(30, 0))
    assert np.all(np.isfinite(geo.device_positions))
    for rho, node in ((geo.rho_d, config.ap_position), (geo.rho_r, config.irs_position)):
        want = [pathloss(math.dist(p, node), 0.01, 1e-3) for p in geo.device_positions]
        np.testing.assert_allclose(rho, want, rtol=1e-15)
    assert geo.rho_1 == pathloss(math.dist(config.irs_position, config.ap_position), 0.01, 1e-3)


_PAST_EDGE = math.nextafter(2.0**510, math.inf)  # one ulp past the farthest accepted coordinate


@pytest.mark.parametrize(
    "overrides",
    [
        dict(device_center=(2.0**1021, 0.0, 0.0)),
        dict(ap_position=(0.0, -1e308, 0.0)),
        dict(irs_position=(0.0, 0.0, 1e308)),
        dict(device_radius=2.0**1021),
        dict(device_center=(1e200, 0.0, 0.0)),
        dict(device_center=(0.0, -2.0**600, 3e250)),
        dict(ap_position=(-_PAST_EDGE, 0.0, 0.0)),
        dict(irs_position=(0.0, _PAST_EDGE, 0.0)),
        dict(device_center=(0.0, 0.0, -_PAST_EDGE)),
        # |device_center| + device_radius is exactly one ulp past 2**510
        dict(device_radius=2.0**509 + 2.0**458, device_center=(-(2.0**509), 0.0, 0.0)),
    ],
)
def test_system_config_rejects_positions_past_finite_distances(overrides):
    name = next(iter(overrides))
    with pytest.raises(ValueError, match=f"^{name} is too far out"):
        SystemConfig(**overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(Pmax=0.0), "Pmax must be positive"),
        (dict(sigma2=-1e-12), "sigma2 must be non-negative"),
        (dict(rician_delta=-1.0), "rician_delta must be non-negative"),
        (dict(pathloss_exponent_direct=-0.1), "path loss exponents must be non-negative"),
        (dict(ref_loss_linear=0.0), r"ref_loss_linear must be in \(0, 1\]"),
        (dict(ref_loss_linear=1.5), r"ref_loss_linear must be in \(0, 1\]"),
        (dict(device_radius=-1.0), "device_radius must be non-negative"),
    ],
    ids=[
        "Pmax=0", "sigma2<0", "rician_delta<0", "exponent<0", "ref_loss=0", "ref_loss>1",
        "device_radius<0",
    ],
)
def test_system_config_rejects_out_of_range_scalars(overrides, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SystemConfig(**overrides)


def test_pathloss_rejects_non_positive_reference_loss():
    with pytest.raises(ValueError, match="^ref_loss_linear must be positive$"):
        pathloss(10.0, 2.2, 0.0)


@pytest.mark.parametrize("spacing", [0.0, -0.5])
def test_system_config_rejects_non_positive_spacing(spacing):
    with pytest.raises(ValueError, match="spacing_ratio must be positive"):
        SystemConfig(spacing_ratio=spacing)


class TestSampleChannels:
    def test_pure_los_exact(self):
        cfg = SystemConfig(K=3, N=8, pure_los=True)
        geo = make_geometry(cfg, RngStream(5, 0))
        real = sample_channels(geo, cfg, RngStream(5, 1))
        for k in range(3):
            expected = np.sqrt(geo.rho_r[k]) * array_response(8, geo.nu[k], 0.5)
            np.testing.assert_allclose(real.h_reflect[k], expected, rtol=1e-12)

    def test_blocked_direct_zero_vector(self):
        cfg = SystemConfig(K=2, block_direct=True)
        geo = make_geometry(cfg, RngStream(6, 0))
        real = sample_channels(geo, cfg, RngStream(6, 1))
        np.testing.assert_array_equal(real.h_direct, 0.0)

    def test_reflected_power_matches_large_scale(self):
        # E ||h_reflect||^2 = rho_r * N regardless of the Rician split
        cfg = SystemConfig(K=2000, N=8, rician_delta=3.0, device_radius=0.0)
        geo = make_geometry(cfg, RngStream(7, 0))
        total = 0.0
        calls = 50  # 1e5 independent device draws in all
        for j in range(calls):
            real = sample_channels(geo, cfg, RngStream(7, 10 + j))
            total += np.mean(np.sum(np.abs(real.h_reflect) ** 2, axis=1))
        mean = total / calls
        assert mean == pytest.approx(geo.rho_r[0] * 8, rel=0.02)

    @pytest.mark.parametrize("pure_los", [False, True])
    @pytest.mark.parametrize("block_direct", [False, True])
    def test_block_at_n_is_prefix_of_larger_block(self, pure_los, block_direct):
        # a smaller surface is a sub-array of a larger one, draw for draw
        big = SystemConfig(K=6, M=4, N=8192, pure_los=pure_los, block_direct=block_direct)
        for seed in range(3):
            geo = make_geometry(big, RngStream(seed, 0))
            gen = RngStream(seed, 1).generator()
            gen.standard_normal(seed)  # any generator state, not only a fresh stream
            state = gen.bit_generator.state
            block = sample_channels(geo, big, gen)
            for N in (1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 513, 8191):  # block edges of the kernel
                gen.bit_generator.state = state
                sized = sample_channels(geo, replace(big, N=N), gen)
                np.testing.assert_array_equal(bits(sized.h_direct), bits(block.h_direct))
                np.testing.assert_array_equal(bits(sized.h_reflect), bits(block.h_reflect[:, :N]))

    @pytest.mark.parametrize("pure_los", [False, True])
    def test_effective_block_draws_in_documented_order(self, pure_los):
        # one standard_normal call: the direct real plane, the imaginary plane, then
        # each segment's normals, as three successive calls draw them
        cfg = SystemConfig(K=5, M=3, pure_los=pure_los)
        geo = make_geometry(cfg, RngStream(16, 0))
        gen = RngStream(16, 1).generator()
        h_direct, w = channel._effective_draws(geo.rho_d, cfg, 4, [gen])
        after = gen.bit_generator.random_raw(2)
        ref = RngStream(16, 1).generator()
        planes = np.empty((cfg.K, cfg.M), dtype=complex)
        planes.real = ref.standard_normal((cfg.K, cfg.M)) * channel._INV_SQRT2
        planes.imag = ref.standard_normal((cfg.K, cfg.M)) * channel._INV_SQRT2
        np.testing.assert_array_equal(bits(h_direct[0]), bits(np.sqrt(geo.rho_d)[:, None] * planes))
        if pure_los:
            assert w is None
        else:
            parts = ref.standard_normal((1, 4, 2, 2 * cfg.K)) * channel._INV_SQRT2
            assert w.shape == (1, 4, 2, cfg.K)
            np.testing.assert_array_equal(bits(w.view(float)), bits(parts))
        np.testing.assert_array_equal(after, ref.bit_generator.random_raw(2))

    @pytest.mark.parametrize("pure_los", [False, True])
    @pytest.mark.parametrize("block_direct", [False, True])
    def test_block_draw_rows_are_the_per_trial_draws(self, pure_los, block_direct):
        # the engine's block draw, each trial on the one rewound Philox and its own
        # geometry's path losses, holds in row b that trial's fresh-stream draw
        cfg = SystemConfig(K=5, M=3, pure_los=pure_los, block_direct=block_direct)
        geometries = [make_geometry(cfg, RngStream(17, 2 + 2 * t)) for t in range(7)]
        rho_d = np.array([g.rho_d for g in geometries])
        streams = [3 + 2 * t for t in range(7)]
        h_direct, w = channel._effective_draws(rho_d, cfg, 4, streams, numerics._rewinder(17))
        for b, (geo, stream) in enumerate(zip(geometries, streams)):
            h_b, w_b = channel._effective_draws(geo.rho_d, cfg, 4, [RngStream(17, stream)])
            np.testing.assert_array_equal(bits(h_direct[b]), bits(h_b[0]))
            assert (w is None) == (w_b is None) == pure_los
            if w is not None:
                np.testing.assert_array_equal(bits(w[b]), bits(w_b[0]))

    def test_scattered_part_keeps_its_law(self):
        # per-device variance a_k^2, uncorrelated parts, elements and devices
        cfg = SystemConfig(K=5, M=2, N=16, rician_delta=1.5, device_radius=60.0)
        geo = make_geometry(cfg, RngStream(15, 0))
        los = line_of_sight(geo, cfg)
        gen = RngStream(15, 1).generator()
        blocks = 4000
        w = np.stack([sample_channels(geo, cfg, gen).h_reflect - los for _ in range(blocks)])
        amp = np.sqrt(geo.rho_r / (cfg.rician_delta + 1.0))
        u = w / amp[:, None]  # (blocks, K, N): i.i.d. CN(0, 1) if the law holds
        n = u.size  # 320 000 complex samples
        se = 1.0 / np.sqrt(n / cfg.K)  # one device's variance, relative error
        per_device = np.mean(np.abs(u) ** 2, axis=(0, 2))
        assert np.all(np.abs(per_device - 1.0) < 5 * se)
        assert abs(np.mean(u.real**2) - 0.5) < 5 * np.sqrt(0.5 / n)
        # moments of products of independent halves: variance 1/4 for real x imag
        assert abs(np.mean(u.real * u.imag)) < 5 * np.sqrt(0.25 / n)
        for pair in (u[:, :, 1:] * u[:, :, :-1].conj(), u[:, 1:, :] * u[:, :-1, :].conj()):
            # E[u_a conj(u_b)] = 0 for distinct entries; |product|^2 has mean 1
            assert abs(np.mean(pair)) < 5 / np.sqrt(pair.size)

    def test_determinism(self):
        cfg = SystemConfig(K=4)
        geo = make_geometry(cfg, RngStream(8, 0))
        a = sample_channels(geo, cfg, RngStream(8, 1))
        b = sample_channels(geo, cfg, RngStream(8, 1))
        np.testing.assert_array_equal(a.h_direct, b.h_direct)
        np.testing.assert_array_equal(a.h_reflect, b.h_reflect)


def complex_line_of_sight(geo, cfg):
    """The line-of-sight term as complex array expressions: the reference for the kernel."""
    los = np.exp(
        2j * np.pi * geo.spacing_ratio * np.sin(geo.nu)[:, None] * np.arange(cfg.N)[None, :]
    )
    if cfg.pure_los:
        return np.sqrt(geo.rho_r)[:, None] * los
    delta = cfg.rician_delta
    return np.sqrt(geo.rho_r * delta / (delta + 1.0))[:, None] * los


def complex_sample_channels(geo, cfg, gen, los):
    """One block as complex array expressions on the line-of-sight term ``los``: the reference.

    The scattered normals come element-major, each device's real part
    before its imaginary part.
    """
    K, M, N = cfg.K, cfg.M, cfg.N
    g_direct = (gen.standard_normal((K, M)) + 1j * gen.standard_normal((K, M))) / np.sqrt(2.0)
    h_direct = np.sqrt(geo.rho_d)[:, None] * g_direct
    if cfg.pure_los:
        return h_direct, los
    x, y = gen.standard_normal((N, K, 2)).transpose(2, 1, 0)
    g_reflect = (x + 1j * y) / np.sqrt(2.0)
    nlos_amp = np.sqrt(geo.rho_r / (cfg.rician_delta + 1.0))[:, None]
    return h_direct, los + nlos_amp * g_reflect


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_within_folded_bound(got, want, geo):
    """``got``, the kernel's line of sight, is within the folded bound of the chain ``want``.

    Row k of ``want`` is a_k exp(i s_k m), a_k = |want[k, 0]|; ``got`` is
    the split kernel at the difference slope s_k - s_t times
    ``array_response`` at the departure slope s_t
    (:func:`steering_bound.folded_bound` derives the bound).
    """
    m = np.arange(got.shape[1])
    departure = 2.0 * math.pi * geo.spacing_ratio * math.sin(geo.phi_t)
    bound = folded_bound(np.abs(want[:, :1]), los_slopes(geo)[:, None], departure, m)
    assert np.all(np.abs(got - want) <= bound)


def los_slopes(geo):
    return 2.0 * np.pi * geo.spacing_ratio * np.sin(geo.nu)


class TestKernelsMatchComplexFormulas:
    """The real-arithmetic kernels against the complex expressions.

    The channel draws are bit for bit the complex expressions on the
    kernel's line of sight, and the line of sight, the folded factors
    times a_N(phi_t), is within the derived bound of the complex chain
    (:func:`assert_within_folded_bound`).
    """

    @pytest.mark.parametrize("pure_los", [False, True])
    @pytest.mark.parametrize("block_direct", [False, True])
    @pytest.mark.parametrize("spacing_ratio", [0.5, 0.37, 1.0, 2.3])
    def test_random_geometries(self, pure_los, block_direct, spacing_ratio):
        for seed, N in enumerate((1, 7, BLOCK, 513)):
            cfg = SystemConfig(
                K=6, M=4, N=N, pure_los=pure_los, block_direct=block_direct,
                spacing_ratio=spacing_ratio, rician_delta=0.5 + seed,
            )
            geo = make_geometry(cfg, RngStream(seed, 0))
            los = line_of_sight(geo, cfg)
            real = sample_channels(geo, cfg, RngStream(seed, 1))
            h_direct, h_reflect = complex_sample_channels(
                geo, cfg, RngStream(seed, 1).generator(), los
            )
            np.testing.assert_array_equal(bits(real.h_direct), bits(h_direct))
            np.testing.assert_array_equal(bits(real.h_reflect), bits(h_reflect))
            assert_within_folded_bound(los, complex_line_of_sight(geo, cfg), geo)

    @pytest.mark.parametrize("pure_los", [False, True])
    def test_pinned_angles(self, pure_los):
        # signed zeros, endfire, and a sine that underflows against the spacing
        nu = (0.0, -0.0, np.pi / 2, -np.pi / 2, 1e-300, -1e-300)
        cfg = SystemConfig(K=6, N=40, nu=nu, pure_los=pure_los, spacing_ratio=0.37)
        geo = make_geometry(cfg, RngStream(3, 0))
        los = line_of_sight(geo, cfg)
        real = sample_channels(geo, cfg, RngStream(3, 1))
        h_direct, h_reflect = complex_sample_channels(geo, cfg, RngStream(3, 1).generator(), los)
        np.testing.assert_array_equal(bits(real.h_direct), bits(h_direct))
        np.testing.assert_array_equal(bits(real.h_reflect), bits(h_reflect))
        assert_within_folded_bound(los, complex_line_of_sight(geo, cfg), geo)

    def test_large_array(self):
        # N = 8192 and spacings up to 2.3: |s_k m| up to 2 pi 2.3 8191, about 1.2e5
        for spacing_ratio in (0.5, 2.3):
            cfg = SystemConfig(K=21, N=8192, pure_los=True, ref_loss_linear=1.0,
                               pathloss_exponent_reflected=0.0, device_radius=0.0,
                               spacing_ratio=spacing_ratio)
            geo = make_geometry(cfg, RngStream(4, 0))
            los = line_of_sight(geo, cfg)
            assert_within_folded_bound(los, complex_line_of_sight(geo, cfg), geo)

    @pytest.mark.parametrize("pure_los", [False, True])
    def test_folded_factors_times_departure_steering_within_bound(self, pure_los):
        # line_of_sight and h_reflect multiply a_N(phi_t) back into the block's folded
        # factors: the same line of sight, at every split level up to 65 536 elements,
        # within the folded bound of the complex chain
        for seed, spacing_ratio in enumerate((0.5, 2.3)):
            cfg = SystemConfig(K=5, N=65536, pure_los=pure_los, spacing_ratio=spacing_ratio)
            geo = make_geometry(cfg, RngStream(40 + seed, 0))
            los = line_of_sight(geo, cfg)
            block = sample_channels(geo, cfg, RngStream(40 + seed, 1))
            want = los if pure_los else block.scattered + los
            np.testing.assert_array_equal(bits(block.h_reflect), bits(want))
            assert_within_folded_bound(los, complex_line_of_sight(geo, cfg), geo)


class TestProjection:
    """The projection kernel on the folded factors against the line of sight's n-term sums."""

    @pytest.mark.parametrize("pure_los", [False, True])
    def test_kernel_within_derived_bound(self, pure_los):
        sizes = (1, BLOCK - 1, BLOCK, BLOCK + 1, 511, 512, 513, 8191, 8192, 65536)
        cfg = SystemConfig(K=21, N=sizes[-1], pure_los=pure_los)
        geo = make_geometry(cfg, RngStream(32, 0))
        theta = compute_long_term(geo, cfg).theta_voted
        phasors = theta.phasors  # the engine's voted row
        row = array_response(cfg.N, geo.phi_t).conj() * phasors  # a_N(phi_t)^H Theta
        los = line_of_sight(geo, cfg)
        factors = channel._line_of_sight(cfg, geo.rho_r, geo.nu, geo.phi_t, cfg.N)
        got = numerics._project(factors, phasors[None], sizes)[0]
        ones = numerics._project(factors, None, sizes)[0]
        for p, n in enumerate(sizes):
            # the sum at n is the call at n alone, and within the bound of the (K, n) matvec;
            # the ones row's is the all-ones phasors', bit for bit
            alone = channel._line_of_sight(cfg, geo.rho_r, geo.nu, geo.phi_t, n)
            one = numerics._project(alone, phasors[None, :n], (n,))[0, 0]
            np.testing.assert_array_equal(bits(got[p]), bits(one))
            zero = PhaseShiftVector.zero(n, cfg.L).phasors
            np.testing.assert_array_equal(
                bits(ones[p]), bits(numerics._project(alone, zero[None], (n,))[0, 0])
            )
            bound = projection_bound(np.abs(los[:, 0]), phasors[:n])
            assert np.all(np.abs(got[p] - los[:, :n] @ row[:n]) <= bound), n
            steering = array_response(n, geo.phi_t).conj()
            assert np.all(np.abs(ones[p] - los[:, :n] @ steering) <= bound), n

    def test_pure_los_block_forms_no_device_by_element_array(self):
        # sample_channels and effective_scalar_channel at K = 21, N = 65536 peak
        # below a quarter of one (K, N) complex array
        cfg = SystemConfig(K=21, N=65536, pure_los=True)
        geo = make_geometry(cfg, RngStream(31, 0))
        state = compute_long_term(geo, cfg)
        tracemalloc.start()
        try:
            block = sample_channels(geo, cfg, RngStream(31, 1))
            effective_scalar_channel(block, state.v, state.theta_voted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.K * cfg.N * 16 / 4


class TestEffectiveScalarChannel:
    def _aligned_setup(self, M=4, N=16):
        cfg = SystemConfig(
            M=M, N=N, K=1, pure_los=True, block_direct=True, phi_t=0.3, nu=(0.3,)
        )
        geo = make_geometry(cfg, RngStream(11, 0))
        real = sample_channels(geo, cfg, RngStream(11, 1))
        return cfg, geo, real

    def test_perfectly_aligned_gain(self):
        cfg, geo, real = self._aligned_setup()
        v = array_response(4, geo.phi_r, 0.5) / 2.0
        theta = PhaseShiftVector.zero(16, 2)  # nu = phi_t, no phase needed
        gam = effective_scalar_channel(real, v, theta)
        expected = geo.rho_1 * geo.rho_r[0] * 4 * 16**2
        assert abs(gam[0]) ** 2 == pytest.approx(expected, rel=1e-10)

    def test_orthogonal_combiner_nulls_reflection(self):
        cfg, geo, real = self._aligned_setup()
        a_m = array_response(4, geo.phi_r, 0.5)
        gen = np.random.default_rng(0)
        v = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        v = v - (np.vdot(a_m, v) / 4.0) * a_m  # project out the IRS arrival direction
        v /= np.linalg.norm(v)
        gam = effective_scalar_channel(real, v, PhaseShiftVector.zero(16, 2))
        np.testing.assert_allclose(np.abs(gam), 0.0, atol=1e-12)

    def test_single_element_reduction(self):
        cfg = SystemConfig(M=3, N=1, K=2)
        geo = make_geometry(cfg, RngStream(12, 0))
        real = sample_channels(geo, cfg, RngStream(12, 1))
        v = array_response(3, geo.phi_r, 0.5) / np.sqrt(3)
        gam = effective_scalar_channel(real, v, PhaseShiftVector.zero(1, 2))
        expected = real.h_direct @ v.conj() + np.sqrt(geo.rho_1) * np.vdot(
            v, array_response(3, geo.phi_r, 0.5)
        ) * real.h_reflect[:, 0]
        np.testing.assert_allclose(gam, expected, rtol=1e-12)

    def test_linearity_in_reflected_channel(self):
        cfg = SystemConfig(M=2, N=8, K=2, block_direct=True)
        geo = make_geometry(cfg, RngStream(13, 0))
        real = sample_channels(geo, cfg, RngStream(13, 1))
        v = array_response(2, geo.phi_r, 0.5) / np.sqrt(2)
        theta = PhaseShiftVector.zero(8, 2)
        gam = effective_scalar_channel(real, v, theta)
        # the scattered part and the line of sight's coarse factors, amplitude and all
        scaled = type(real)(
            h_direct=real.h_direct,
            scattered=(2.0 - 1.0j) * real.scattered,
            geometry=geo,
            los=real.los._replace(coarse=(2.0 - 1.0j) * real.los.coarse),
        )
        gam_scaled = effective_scalar_channel(scaled, v, theta)
        np.testing.assert_allclose(gam_scaled, (2.0 - 1.0j) * gam, rtol=1e-12)

    def test_magnitude_invariant_to_global_combiner_phase(self):
        cfg = SystemConfig(M=4, N=8, K=3, block_direct=True)
        geo = make_geometry(cfg, RngStream(14, 0))
        real = sample_channels(geo, cfg, RngStream(14, 1))
        v = array_response(4, geo.phi_r, 0.5) / 2.0
        theta = PhaseShiftVector.zero(8, 2)
        base = np.abs(effective_scalar_channel(real, v, theta))
        rotated = np.abs(effective_scalar_channel(real, v * np.exp(0.7j), theta))
        np.testing.assert_allclose(rotated, base, rtol=1e-12)

    def test_non_unit_combiner_rejected(self):
        cfg, geo, real = self._aligned_setup()
        with pytest.raises(ValueError):
            effective_scalar_channel(real, np.ones(4), PhaseShiftVector.zero(16, 2))

    def test_dimension_mismatch_rejected(self):
        cfg, geo, real = self._aligned_setup()
        v = array_response(4, geo.phi_r, 0.5) / 2.0
        with pytest.raises(ValueError):
            effective_scalar_channel(real, v, PhaseShiftVector.zero(5, 2))

    def test_combiner_of_another_size_rejected(self):
        cfg, geo, real = self._aligned_setup()
        with pytest.raises(ValueError, match=r"^v must have shape \(4,\), got \(3,\)$"):
            effective_scalar_channel(real, np.ones(3) / np.sqrt(3), PhaseShiftVector.zero(16, 2))

    @pytest.mark.parametrize("spacing", [math.inf, math.nan, 0.0, -0.5, 1e306])
    def test_bad_geometry_spacing_rejected(self, spacing):
        # the block's geometry carries a spacing that no config checks here: a bad one
        # is named, not steered into NaN gammas (inf, nan) or wrong ones (the rest)
        cfg = SystemConfig(M=4, N=64, K=3)
        geo = make_geometry(cfg, RngStream(15, 0))
        state = compute_long_term(geo, cfg)
        block = sample_channels(geo, cfg, RngStream(15, 1))
        bad = replace(block, geometry=replace(geo, spacing_ratio=spacing))
        with pytest.raises(ValueError, match="^spacing_ratio must be"):
            effective_scalar_channel(bad, state.v, state.theta_voted)


# The Rician public path at the default scenario, as float hex: N -> (each
# device's gamma as "real imag", the optimal rule's MSE, the inversion rule's
# MSE).  The counts cross the 64-element steering block.
RICIAN_GAMMAS = {
    64: (
        [
            "0x1.c67ac66fe2dbbp-20 -0x1.1aab17b45d57ep-19",
            "0x1.9a7d46b960d74p-19 0x1.a38d19c8129c8p-18",
            "0x1.c8cacd7d0d898p-22 0x1.7ca2e26b9e3dcp-20",
            "0x1.08d819304c3abp-17 0x1.eedb55d3ace2dp-21",
            "0x1.e57684b8482b3p-17 0x1.615931d834030p-24",
            "0x1.67c0801af6f28p-18 0x1.9c3b7136180d6p-21",
            "0x1.53a5f020bbe0dp-19 0x1.a0d35ac70c25ep-19",
            "0x1.843dbe85dd1bfp-17 -0x1.b4a0d7a3493d7p-18",
            "-0x1.acf07d287066cp-22 -0x1.0ec0965768878p-18",
            "0x1.8b5f45d451cffp-18 0x1.9654dcb89447cp-18",
            "0x1.1de44d6eae942p-17 -0x1.1f87593fdc1a3p-19",
            "-0x1.e1ce8bc484f80p-26 0x1.35c164364f294p-18",
            "0x1.e678142a032c1p-18 -0x1.450bd5a7694fep-21",
            "0x1.e1723ef57d199p-17 -0x1.0c2e7a3ba3c88p-20",
            "-0x1.4c0c13cb294ecp-20 0x1.12f435848a6e3p-19",
            "0x1.5f0ecb4bfd7a1p-18 0x1.0446ea2151253p-17",
            "0x1.9c51f029c482cp-20 0x1.48c2af6161842p-18",
            "0x1.0ff413b256802p-18 0x1.722c34176357ap-19",
            "0x1.04cd06ab29f49p-18 0x1.b13ee6cd2fe08p-19",
            "0x1.25ed5168abe37p-17 0x1.7f617ba663deap-19",
        ],
        "0x1.0f2c0d77b68eap+2",
        "0x1.6d057f283160bp+5",
    ),
    65: (
        [
            "0x1.1ae119eaf7d46p-20 -0x1.c3f5754d428a7p-20",
            "0x1.30bc6fa35ce0fp-19 0x1.9212d2b810682p-18",
            "0x1.7f29d08c96eb7p-23 0x1.14a01ee7fb14fp-19",
            "0x1.108414aac9645p-17 0x1.4caf120f33d30p-23",
            "0x1.03502c04b0f2ap-16 0x1.47273319ca9b0p-22",
            "0x1.837a5ce434c7ep-18 0x1.6f7f4d9789828p-21",
            "0x1.9b1ea18fbf73cp-19 0x1.71739bb4168fcp-19",
            "0x1.66dff0fd69473p-17 -0x1.c9994429c0e19p-18",
            "-0x1.07053d8abcf5ap-22 -0x1.35c756f2cb40dp-18",
            "0x1.7d684953b827cp-18 0x1.6c8eb357e3d7fp-18",
            "0x1.310f2cde78d5dp-17 -0x1.a4542e21ceda6p-20",
            "0x1.79d02ccf5c918p-23 0x1.5de9fdd76c6f8p-18",
            "0x1.f6a6bc2aeca26p-18 -0x1.62cd95287b2a1p-20",
            "0x1.fe249e5eca44ap-17 -0x1.eae3ec01f6217p-21",
            "-0x1.113bafb090b4bp-19 0x1.ccce48f8d0610p-20",
            "0x1.524cae90f2b27p-18 0x1.1839dec3cd38ep-17",
            "0x1.49ecd120a4faap-21 0x1.75240353cf577p-18",
            "0x1.18c5f118ef3d2p-18 0x1.20bc99081ca5dp-19",
            "0x1.fe7220ce06b07p-19 0x1.054ded7e3a7b1p-18",
            "0x1.392fab913a2fbp-17 0x1.1bb994c96e518p-19",
        ],
        "0x1.01124f384e714p+2",
        "0x1.958c3a6089e60p+4",
    ),
    512: (
        [
            "0x1.cae216fbaac54p-16 0x1.e11183068b06bp-17",
            "0x1.5321338a71202p-15 0x1.448db06d18172p-18",
            "0x1.65f0ec8459547p-15 -0x1.c8f48cb29822bp-17",
            "0x1.0f3527e41c966p-14 0x1.46504dc1adf93p-16",
            "0x1.990e3f87f9034p-15 0x1.e9b870871b157p-17",
            "0x1.752577fb91da4p-15 -0x1.4358b4fb688d4p-18",
            "0x1.3f160627232fep-15 0x1.9e876cfdc81cep-17",
            "0x1.a14de3f64a944p-15 -0x1.4d7df32770df0p-19",
            "0x1.bf4c682fe28f7p-15 -0x1.d8fd3c8d64348p-17",
            "0x1.381e744342e38p-15 0x1.644974c100b2cp-17",
            "0x1.79b300911bac2p-15 -0x1.f883415b927c0p-26",
            "0x1.935dbcaefd19dp-16 0x1.83073191fe572p-17",
            "0x1.493c60466f271p-14 0x1.aaddae1bd4695p-19",
            "0x1.04bdda1850ea4p-15 -0x1.a7944170a523cp-18",
            "0x1.edbd7d2327c5bp-15 -0x1.6eefcec019cb6p-16",
            "0x1.e80160aefbd70p-16 0x1.e260e1cfd21a4p-16",
            "0x1.ef388fa951915p-16 0x1.044ef67f97e1dp-18",
            "0x1.790fc1a55fc51p-15 0x1.afaabd6edc522p-17",
            "0x1.ef6658134c8c6p-16 -0x1.efda4018ab056p-19",
            "0x1.3bba6c3e810f5p-15 0x1.597e1ee5ff0e6p-18",
        ],
        "0x1.fa2f31848af6cp-4",
        "0x1.2002f5d97ee72p-3",
    ),
}

def rician_public_path(N):
    """The default scenario's Rician block at N through the public calls, as float hex."""
    cfg = SystemConfig(N=N)
    geo = make_geometry(cfg, RngStream(29, 0))
    state = compute_long_term(geo, cfg)
    block = sample_channels(geo, cfg, RngStream(29, 1))
    gammas = effective_scalar_channel(block, state.v, state.theta_voted)
    return (
        [f"{g.real.hex()} {g.imag.hex()}" for g in gammas],
        optimal_power_control(gammas, cfg.Pmax, cfg.sigma2).mse.hex(),
        channel_inversion_power_control(gammas, cfg.Pmax, cfg.sigma2).mse.hex(),
    )


def test_rician_public_path_is_pinned_bit_for_bit():
    # sample_channels and effective_scalar_channel, and both power rules on their
    # gammas, equal the recorded values in every bit, in this process whatever its
    # BLAS thread count: the scattered part's sums go through fixed-shape products of
    # 64 elements, each too small for OpenBLAS to split across threads
    assert {N: rician_public_path(N) for N in RICIAN_GAMMAS} == {
        N: (pairs, opt, inv) for N, (pairs, opt, inv) in RICIAN_GAMMAS.items()
    }
