import csv
import io
import itertools
import math
import re
import typing
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from irs_aircomp import analysis, channel, experiments, numerics, protocol
from irs_aircomp.channel import (
    SystemConfig,
    effective_scalar_channel,
    line_of_sight,
    make_geometry,
    sample_channels,
)
from irs_aircomp.experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    Scheme,
    SweepResult,
    SweepRow,
    compute_long_term,
    load_config,
    run_sweep,
    run_trial,
    write_csv,
    write_rows,
)
from irs_aircomp.numerics import RngStream, array_response
from irs_aircomp.protocol import DegenerateChannelError, PhaseShiftVector, power_control_rows
from steering_bound import projection_bound


def small_config(**overrides):
    system = SystemConfig(M=4, N=16, K=3)
    defaults = dict(system=system, n_sweep=(8, 16), trials=4, seed=11)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def reflection(geometry, v, theta):
    """One geometry's reflected-path gain and row, from their formulas:
    sqrt(rho_1) v^H a_M(phi_r) and a_N(phi_t)^H Theta."""
    spacing = geometry.spacing_ratio
    gain = np.sqrt(geometry.rho_1) * np.vdot(v, array_response(v.shape[0], geometry.phi_r, spacing))
    row = array_response(theta.num_elements, geometry.phi_t, spacing).conj() * theta.phasors
    return gain, row


class TestRunTrial:
    def test_inversion_matches_closed_form_exactly(self):
        # one segment of 16 elements: gamma = v^H h_d + gain (los . row + a sqrt(16) w1),
        # los . row the projection kernel's sum of the line of sight's folded factors,
        # a_N(phi_t)^H in them, against the voted phasors
        cfg = SystemConfig(M=4, N=16, K=3)
        geo = make_geometry(cfg, RngStream(50, 0))
        lt = compute_long_term(geo, cfg)
        stream = RngStream(50, 1)
        mse, kt = run_trial(cfg, geo, Scheme.INV_PC_IRS, stream)
        h_direct, w = channel._effective_draws(geo.rho_d, cfg, 1, [stream])
        gain, _ = reflection(geo, lt.v, lt.theta_voted)
        a = np.sqrt(geo.rho_r / (cfg.rician_delta + 1.0))
        scattered = (4.0 * a) * w[0, 0, 0]
        los = channel._line_of_sight(cfg, geo.rho_r, geo.nu, geo.phi_t, cfg.N)
        line = numerics._project(los, lt.theta_voted.phasors[None], (cfg.N,))[0, 0]
        gam = h_direct[0] @ lt.v.conj() + gain * (line + scattered)
        assert mse == cfg.sigma2 / (cfg.Pmax * float(np.min(np.abs(gam) ** 2)))
        assert kt == 1

    @pytest.mark.parametrize("scheme", [Scheme.OPT_PC_NO_IRS, Scheme.INV_PC_NO_IRS])
    def test_direct_link_scheme_skips_the_stage(self, scheme, monkeypatch):
        # the dominant-direct combiner's gammas, without the per-geometry stage
        cfg = SystemConfig(M=4, N=4096, K=3)
        geo = make_geometry(cfg, RngStream(53, 0))
        monkeypatch.setattr(experiments, "_stage", lambda *a: pytest.fail("stage ran"))
        mse, kt = run_trial(cfg, geo, scheme, RngStream(53, 1))
        h_direct, _ = channel._effective_draws(geo.rho_d, cfg, 1, [RngStream(53, 1)])
        gammas = experiments._direct_gammas(h_direct)
        _, _, want_kt, want = power_control_rows(gammas, cfg.Pmax, cfg.sigma2, scheme.inversion)
        assert (mse, kt) == (want[0], want_kt[0])

    def test_optimal_never_worse_than_inversion_on_shared_stream(self):
        cfg = SystemConfig(M=4, N=32, K=5)
        geo = make_geometry(cfg, RngStream(51, 0))
        for t in range(10):
            stream = RngStream(51, t + 1)
            mse_opt, _ = run_trial(cfg, geo, Scheme.OPT_PC_IRS, stream)
            mse_inv, _ = run_trial(cfg, geo, Scheme.INV_PC_IRS, stream)
            assert mse_opt <= mse_inv + 1e-12

    def test_pure_los_single_device_closed_form(self):
        # aligned device: |gamma|^2 = rho_1 rho_r M N^2 and the K = 1 optimum
        cfg = SystemConfig(
            M=4, N=16, K=1, L=2, pure_los=True, block_direct=True, phi_t=0.3, nu=(0.3,)
        )
        geo = make_geometry(cfg, RngStream(52, 0))
        mse, kt = run_trial(cfg, geo, Scheme.OPT_PC_IRS, RngStream(52, 1))
        gamma_sq = geo.rho_1 * geo.rho_r[0] * 4 * 16**2
        snr = cfg.Pmax * gamma_sq / cfg.sigma2
        assert mse == pytest.approx(1.0 / (1.0 + snr), rel=1e-12)
        assert kt == 1

    def test_blocked_direct_links_rejected_up_front(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "_effective_draws", lambda *a: calls.append(1))
        cfg = SystemConfig(M=4, N=16, K=3, block_direct=True)
        geo = make_geometry(cfg, RngStream(54, 0))
        with pytest.raises(ConfigError, match="no direct link for OPT_PC_NO_IRS$"):
            run_trial(cfg, geo, Scheme.OPT_PC_NO_IRS, RngStream(54, 1))
        assert calls == []

    def test_degenerate_block_raises_without_redraw(self, monkeypatch):
        calls = []
        original = experiments._effective_draws
        monkeypatch.setattr(
            experiments, "_effective_draws", lambda *a: calls.append(1) or original(*a)
        )
        monkeypatch.setattr(experiments, "_direct_gammas", lambda h: 0.0 * h[:, :, 0])
        cfg = SystemConfig(M=4, N=16, K=3)
        geo = make_geometry(cfg, RngStream(55, 0))
        with pytest.raises(DegenerateChannelError, match="zero effective channel"):
            run_trial(cfg, geo, Scheme.OPT_PC_NO_IRS, RngStream(55, 1))
        assert calls == [1]

    def test_no_irs_schemes_ignore_reflection(self):
        cfg = SystemConfig(M=4, N=16, K=3)
        geo = make_geometry(cfg, RngStream(53, 0))
        a, _ = run_trial(cfg, geo, Scheme.OPT_PC_NO_IRS, RngStream(53, 1))
        big_irs = SystemConfig(M=4, N=64, K=3)
        geo2 = make_geometry(big_irs, RngStream(53, 0))
        b, _ = run_trial(big_irs, geo2, Scheme.OPT_PC_NO_IRS, RngStream(53, 1))
        assert a == b  # direct draws identical, N plays no role without the IRS


# every public call that takes a geometry and its config
GEOMETRY_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda cfg, geo, gen: sample_channels(geo, cfg, gen),
        lambda cfg, geo, gen: compute_long_term(geo, cfg),
        lambda cfg, geo, gen: run_trial(cfg, geo, Scheme.OPT_PC_IRS, gen),
        lambda cfg, geo, gen: run_trial(cfg, geo, Scheme.INV_PC_NO_IRS, gen),
        lambda cfg, geo, gen: line_of_sight(geo, cfg),
        lambda cfg, geo, gen: analysis.expected_channel_power_gain(
            geo, cfg, PhaseShiftVector.zero(cfg.N, cfg.L)
        ),
    ],
    ids=[
        "sample_channels", "compute_long_term", "run_trial", "run_trial-direct",
        "line_of_sight", "expected_channel_power_gain",
    ],
)


@pytest.mark.parametrize("pure_los", [False, True])
@GEOMETRY_CALLS
def test_geometry_of_another_device_count_rejected(call, pure_los):
    # a K = 1 geometry under a K = 5 config is refused, naming K, and leaves
    # the caller's generator where it was
    cfg = SystemConfig(M=4, N=16, K=5, pure_los=pure_los)
    geo = make_geometry(replace(cfg, K=1), RngStream(57, 0))
    gen = RngStream(57, 1).generator()
    with pytest.raises(ValueError, match=r"shape \(1,\), not config\.K = 5$"):
        call(cfg, geo, gen)
    fresh = RngStream(57, 1).generator()
    assert np.array_equal(gen.bit_generator.random_raw(2), fresh.bit_generator.random_raw(2))


@pytest.mark.parametrize("spacing", [math.inf, math.nan, 0.0, -0.5, 0.37])
@GEOMETRY_CALLS
def test_geometry_of_another_spacing_rejected(call, spacing):
    # the engine reads the spacing from the config: a geometry that carries another
    # one, valid or not, is refused, naming both, and leaves the generator where it was
    cfg = SystemConfig(M=4, N=16, K=5)
    geo = replace(make_geometry(cfg, RngStream(58, 0)), spacing_ratio=spacing)
    gen = RngStream(58, 1).generator()
    message = r"^geometry\.spacing_ratio = .+, not config\.spacing_ratio = 0\.5$"
    with pytest.raises(ValueError, match=message):
        call(cfg, geo, gen)
    fresh = RngStream(58, 1).generator()
    assert np.array_equal(gen.bit_generator.random_raw(2), fresh.bit_generator.random_raw(2))


class TestFrozenConfigs:
    """A validated config cannot change after its checks; ``replace`` checks the copy."""

    @pytest.mark.parametrize(
        "config, name, value",
        [
            (SystemConfig(), "device_center", (2.0**600, 0.0, 0.0)),
            (SystemConfig(), "spacing_ratio", 2.3),
            (ExperimentConfig(), "trials", 0),
            (ExperimentConfig(), "system", SystemConfig(K=3)),
        ],
        ids=[
            "system-device_center", "system-spacing_ratio", "experiment-trials", "experiment-system"
        ],
    )
    def test_assignment_raises(self, config, name, value):
        before = getattr(config, name)
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, value)
        assert getattr(config, name) == before

    def test_replace_validates_as_construction_does(self):
        with pytest.raises(ValueError, match="^device_center is too far out"):
            replace(SystemConfig(), device_center=(2.0**1021, 0.0, 0.0))
        with pytest.raises(ValueError, match="spacing_ratio must be positive"):
            replace(SystemConfig(), spacing_ratio=0.0)
        with pytest.raises(ConfigError, match="trials must be a positive integer, got 0"):
            replace(ExperimentConfig(), trials=0)
        with pytest.raises(ConfigError, match="n_sweep must be strictly increasing"):
            replace(ExperimentConfig(), n_sweep=(64, 32))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestPrefixes:
    """Slices of the state built at the largest N are the state built at N."""

    @pytest.mark.parametrize("levels", [2, 4])
    @pytest.mark.parametrize("pure_los", [False, True])
    def test_prefix_slices_bit_identical(self, levels, pure_los):
        block = numerics._STEERING_BLOCK  # the steering kernel's block edges, and the last element
        sweep = (1, 32, block - 1, block, block + 1, 100, 512, 1024, 8191, 8192)
        system = SystemConfig(K=7, L=levels, pure_los=pure_los, spacing_ratio=0.37)
        largest = replace(system, N=sweep[-1])
        for seed in range(12):
            geo = make_geometry(system, RngStream(seed, 0))
            state, whole = compute_long_term(geo, largest), line_of_sight(geo, largest)
            thetas = state.theta_voted, PhaseShiftVector.zero(largest.N, levels)
            gain, rows = zip(*(reflection(geo, state.v, theta) for theta in thetas))
            for N in sweep:
                los = whole[:, :N]  # the engine's blocks at N under pure_los
                sized = replace(system, N=N)
                want = compute_long_term(geo, sized)
                want_los = line_of_sight(geo, sized)
                assert np.array_equal(bits(state.v), bits(want.v))
                assert np.array_equal(state.theta_voted.indices[:N], want.theta_voted.indices)
                assert np.array_equal(bits(los), bits(want_los))
                wanted = want.theta_voted, PhaseShiftVector.zero(N, levels)
                want_gain, want_rows = zip(*(reflection(geo, want.v, theta) for theta in wanted))
                assert np.array_equal(bits(np.array(gain)), bits(np.array(want_gain)))
                for row, want_row in zip(rows, want_rows, strict=True):  # voted, then zero
                    assert np.array_equal(bits(row[:N]), bits(want_row))
                    # the strided line-of-sight view in the block's reflected matvec
                    assert np.array_equal(bits(los @ row[:N]), bits(want_los @ want_row))

    @pytest.mark.parametrize("redraw", [False, True])
    def test_sweep_builds_no_phase_vectors(self, redraw, monkeypatch):
        # the engine passes level indices as arrays; only the public
        # compute_long_term wraps them, in its voted phases
        checked = []
        validate = PhaseShiftVector.__post_init__

        def counting(self):
            checked.append(self)
            validate(self)

        monkeypatch.setattr(PhaseShiftVector, "__post_init__", counting)
        cfg = small_config(n_sweep=(4, 8, 16), trials=5, redraw_geometry_per_trial=redraw)
        run_sweep(cfg, list(Scheme))
        assert checked == []
        compute_long_term(make_geometry(cfg.system, RngStream(1, 0)), cfg.system)
        assert len(checked) == 1


class TestStackedStage:
    """A power block's per-geometry stage, stacked, against each geometry on its own."""

    @pytest.mark.parametrize("N", [63, 64, 65])  # the largest N about the steering block edge
    @pytest.mark.parametrize("pure_los", [False, True])
    @pytest.mark.parametrize("levels", [2, 4, 17])  # 17: the sort vote and reference quantizer
    @pytest.mark.parametrize("B", [1, 6, 64])
    def test_stacked_terms_equal_one_geometry_terms(self, B, levels, pure_los, N, monkeypatch):
        system = SystemConfig(L=levels, pure_los=pure_los)
        largest, sizes = replace(system, N=N), (1, 40, N)
        streams = [RngStream(5, 2 + 2 * t) for t in range(B)]
        geometries = channel._make_geometries(system, streams)
        alone = []
        for geometry, stream in zip(geometries, streams, strict=True):
            want = make_geometry(system, stream)
            for f in fields(want):
                got, one = (np.asarray(getattr(g, f.name), float) for g in (geometry, want))
                assert np.array_equal(bits(got), bits(one)), f.name
            state = compute_long_term(geometry, largest)
            thetas = state.theta_voted, PhaseShiftVector.zero(N, system.L)
            terms = experiments._stage(largest, [geometry], sizes)
            # the beamformer is compute_long_term's and the gain the formula's; the line
            # of sight at n, on the voted and the zero row, is within the derived bound
            # of the expanded line of sight's 2-D matvec
            los = line_of_sight(geometry, largest)
            gain, rows = zip(*(reflection(geometry, state.v, theta) for theta in thetas))
            assert np.array_equal(bits(terms[0][0]), bits(state.v.conj()))
            assert np.array_equal(bits(terms[1]), bits(np.array(gain[:1])))
            for line, row, theta in zip(terms[2][0], rows, thetas, strict=True):
                for got, n in zip(line, sizes, strict=True):
                    bound = projection_bound(np.abs(los[:, 0]), theta.phasors[:n])
                    assert np.all(np.abs(got - los[:, :n] @ row[:n]) <= bound)
            alone.append(terms)
        # the module's element budget, then stacks of 5 geometries and a partial last
        for stack in (None, 5):
            if stack is not None:
                monkeypatch.setattr(experiments, "_STAGE_ELEMENTS", stack * system.K * N)
            stacked = experiments._stage(largest, geometries, sizes)
            for b, want in enumerate(alone):
                for got, one in zip(stacked, want, strict=True):
                    if one is None:
                        assert got is None and pure_los
                    else:
                        assert np.array_equal(bits(got[b]), bits(one[0]))


class TestBlockSizes:
    """A sweep's values do not depend on how its trials and geometries are blocked."""

    @pytest.mark.parametrize("pure_los", [False, True], ids=["rician", "pure_los"])
    @pytest.mark.parametrize("redraw", [False, True], ids=["fixed", "redrawn"])
    def test_rows_byte_identical_under_every_block_size(self, redraw, pure_los, monkeypatch):
        # power blocks of 1, 7 (a partial last block) and 64 trials, each with the default
        # stage budget and budgets of one and two geometries per stacked stage pass
        system = SystemConfig(M=4, K=3, pure_los=pure_los)
        config = small_config(
            system=system, n_sweep=(8, 40, 70), trials=20, redraw_geometry_per_trial=redraw
        )

        def sweep():
            result = run_sweep(config, list(Scheme))
            out = io.StringIO()
            write_rows(result, out)
            values = [bits(v) for v in result.trial_mse.values()]
            values += list(result.trial_ktilde.values())
            return out.getvalue(), values

        want_rows, want_values = sweep()
        per_geometry = system.K * config.n_sweep[-1]
        budgets = (experiments._STAGE_ELEMENTS, per_geometry, 2 * per_geometry)
        for power, stage in itertools.product((1, 7, 64), budgets):
            monkeypatch.setattr(experiments, "_POWER_BLOCK", power)
            monkeypatch.setattr(experiments, "_STAGE_ELEMENTS", stage)
            rows, values = sweep()
            assert rows == want_rows, (power, stage)
            assert all(map(np.array_equal, values, want_values)), (power, stage)


class TestKeyedStreams:
    """Draws keyed by the trial: one channel block at the largest N, and a geometry."""

    @pytest.mark.parametrize("redraw", [False, True])
    def test_sub_sweep_rows_equal_full_sweep_rows(self, redraw):
        # a prefix of the element counts reproduces its rows; another subset
        # reproduces the rows up to its first gap and the direct-link rows
        system = SystemConfig(M=4, K=3)

        def rows(n_sweep):
            config = small_config(system=system, n_sweep=n_sweep, redraw_geometry_per_trial=redraw)
            return run_sweep(config, list(Scheme)).rows

        full = rows((64, 128, 256, 512))
        assert rows((64, 128, 256)) == [r for r in full if r.N in (64, 128, 256)]
        gap = rows((64, 256))
        direct = ("OPT_PC_NO_IRS", "INV_PC_NO_IRS")
        kept = [r for r in gap if r.N == 64 or r.scheme in direct]
        assert kept == [r for r in full if r.N == 64 or (r.N == 256 and r.scheme in direct)]
        assert all(r not in full for r in gap if r not in kept)

    @pytest.mark.parametrize("redraw", [False, True])
    def test_longer_run_extends_per_trial_values(self, redraw):
        # 40 and 80 trials: the longer run also crosses a power-control block boundary
        schemes = [Scheme.OPT_PC_IRS, Scheme.INV_PC_NO_IRS, Scheme.FIXED_PHASE_OPT_PC]
        short, long = (
            run_sweep(small_config(trials=T, redraw_geometry_per_trial=redraw), schemes)
            for T in (40, 80)
        )
        for name in ("trial_mse", "trial_ktilde"):
            values, longer = getattr(short, name), getattr(long, name)
            assert values.keys() == longer.keys()
            for key, head in values.items():
                assert len(head) == 40 and len(longer[key]) == 80
                assert np.array_equal(bits(longer[key][:40]), bits(head))

    @pytest.mark.parametrize(
        "redraw, schemes",
        [
            (False, list(Scheme)),
            (True, list(Scheme)),
            (False, [Scheme.INV_PC_NO_IRS]),
            (True, [Scheme.INV_PC_NO_IRS]),
        ],
        ids=["False", "True", "False-direct", "True-direct"],
    )
    def test_per_geometry_work_once_per_geometry(self, redraw, schemes, monkeypatch):
        # 130 trials, three power blocks, at three N: each geometry is drawn once,
        # and the stage runs once per block on its stack of geometries, never
        # per scheme or per N, and not at all for direct-link schemes alone
        calls = {"make_geometry": [], "_make_geometries": [], "_stage": [], "_long_term": []}
        for name, stacks in calls.items():
            original = getattr(experiments, name)

            def counted(config, arg, *rest, _stacks=stacks, _original=original):
                _stacks.append(len(arg) if isinstance(arg, list) else 1)
                return _original(config, arg, *rest)

            monkeypatch.setattr(experiments, name, counted)
        cfg = small_config(n_sweep=(4, 8, 16), trials=130, redraw_geometry_per_trial=redraw)
        run_sweep(cfg, schemes)
        # the reference geometry of stream 0, then each trial's own, a block at a time
        blocks = [64, 64, 2]
        stacks = [] if schemes == [Scheme.INV_PC_NO_IRS] else blocks if redraw else [1]
        assert calls == {
            "make_geometry": [1],
            "_make_geometries": blocks if redraw else [],
            "_stage": stacks,
            "_long_term": stacks,
        }

    @pytest.mark.parametrize("redraw", [False, True])
    def test_three_steering_vectors_per_geometry(self, redraw, monkeypatch):
        # per stack of geometries, three steering vectors in two passes: a_M(phi_r),
        # steered once for the beamformer and the gain alike, and the devices' lines
        # of sight, as factors, with a_N(phi_t)^H folded into their slopes
        calls = []
        for module in (numerics, channel):
            original = module._steering_factors

            def counted(slope, n_elems, amplitude=None, _original=original):
                calls.append((np.shape(slope), n_elems))
                return _original(slope, n_elems, amplitude)

            monkeypatch.setattr(module, "_steering_factors", counted)
        cfg = small_config(n_sweep=(4, 8, 16), trials=70, redraw_geometry_per_trial=redraw)
        run_sweep(cfg, list(Scheme))
        M, N, K = cfg.system.M, cfg.n_sweep[-1], cfg.system.K
        assert calls == [
            call
            for B in ((64, 6) if redraw else (1,))
            for call in (((B, 1), M), ((B, K, 1), N))
        ]

    @pytest.mark.parametrize("redraw", [False, True])
    def test_no_irs_rows_equal_at_every_n(self, redraw):
        # the direct-link schemes do not see the IRS, so N cannot move their rows
        cfg = small_config(n_sweep=(4, 16, 64, 256), trials=9, redraw_geometry_per_trial=redraw)
        rows = run_sweep(cfg, list(Scheme)).rows
        for s in (Scheme.OPT_PC_NO_IRS, Scheme.INV_PC_NO_IRS):
            stats = {
                (r.mean_mse, r.stderr_mse, r.mean_ktilde) for r in rows if r.scheme == s.value
            }
            assert len(stats) == 1

    def test_keys_injective(self):
        # RngStream(seed, stream_id) keys every draw of the engine.  Hashing the
        # bare pair as SeedSequence entropy, which numpy splits into 32-bit words
        # padded with zero words, gave (3 + 2**32, 7) the stream of
        # (3, 1 + 7 * 2**32) and (3 + 5 * 2**32, 0) that of (3, 5); every key of a
        # grid of in- and out-of-range words, both pairs included, owns its own
        # stream.
        def first(seed, stream_id):
            return tuple(RngStream(seed, stream_id).generator().bit_generator.random_raw(2))

        parts = (0, 1, 3, 5, 7, 101, 2**32 - 1, 2**32, 3 + 2**32, 1 + 7 * 2**32, 3 + 5 * 2**32)
        parts += (2**63, 2**64 - 1)
        assert len({first(seed, stream_id) for seed in parts for stream_id in parts}) == 13 * 13
        # each key draws as numpy's Philox at key (seed, 0) and counter
        # (0, 0, stream_id, 0); the first draws are pinned here
        pinned = {
            (0, 0): (0x2F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2),
            (42, 7): (0x2BFB9D635BE188E2, 0x2B0049F790AFFF84),
            (101, 3): (0x3C6BECB998753C5B, 0x4729157CA750024B),
            (2**32 - 1, 2**32 - 1): (0xD4F1A480CD7DB805, 0xA63BCF35188AA5CD),
        }
        assert {key: first(*key) for key in pinned} == pinned
        for seed, stream_id in pinned:
            philox = np.random.Philox(key=seed, counter=stream_id << 128)
            assert tuple(philox.random_raw(2)) == pinned[seed, stream_id]
        assert first(-1, 3) == first(2**64 - 1, 3)  # the seed is taken mod 2**64
        with pytest.raises(ValueError, match="stream_id must be in"):
            RngStream(3, 2**64)

    def test_pure_los_recipe_is_run_sweep(self):
        # the scaling recipe by hand: trial t's geometry from stream 2 + 2t and its
        # vector channel from stream 3 + 2t, evaluated at each N on its own.  The
        # element counts cross the steering block, the 70 trials a power block,
        # and the spacing is the default and one past a wavelength.
        sizes, seed = (32, 64, 65, 512), 17
        schemes = [Scheme.INV_PC_IRS, Scheme.OPT_PC_IRS]
        for spacing in (0.5, 2.3):
            system = SystemConfig(M=4, K=5, pure_los=True, block_direct=True, spacing_ratio=spacing)
            config = ExperimentConfig(
                system=system, n_sweep=sizes, trials=70, seed=seed, redraw_geometry_per_trial=True
            )
            want = []
            for s, N in itertools.product(schemes, sizes):
                sized = replace(system, N=N)
                want.append([])
                for t in range(config.trials):
                    geometry = make_geometry(sized, RngStream(seed, 2 + 2 * t))
                    state = compute_long_term(geometry, sized)
                    block = sample_channels(geometry, sized, RngStream(seed, 3 + 2 * t))
                    gammas = effective_scalar_channel(block, state.v, state.theta_voted)
                    rows = power_control_rows(gammas[None], system.Pmax, system.sigma2, s.inversion)
                    want[-1].append(float(rows[3][0]))
            mses = run_sweep(config, schemes).trial_mse
            got = [mses[s.value, N].tolist() for s, N in itertools.product(schemes, sizes)]
            assert got == want, spacing


class TestRunSweep:
    def test_single_trial_zero_stderr(self):
        result = run_sweep(small_config(n_sweep=(8,), trials=1), [Scheme.OPT_PC_IRS])
        assert len(result.rows) == 1
        assert result.rows[0].stderr_mse == 0.0
        assert result.rows[0].trials == 1

    def test_rows_keyed_and_sorted(self):
        result = run_sweep(small_config(), [Scheme.INV_PC_IRS, Scheme.OPT_PC_IRS])
        keys = [(r.scheme, r.N) for r in result.rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_bound_columns_only_for_irs_schemes(self, scheme):
        rows = run_sweep(small_config(), [scheme]).rows
        voted = scheme in (Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS)
        assert voted == (scheme.kind == experiments._VOTED)
        assert len(rows) == 2
        for r in rows:
            assert (r.bound_mse is not None, r.n_threshold is not None) == (voted, voted)

    def test_redraw_mode_changes_geometry_not_determinism(self):
        cfg = small_config(redraw_geometry_per_trial=True, trials=3)
        a = run_sweep(cfg, [Scheme.OPT_PC_IRS])
        b = run_sweep(cfg, [Scheme.OPT_PC_IRS])
        assert a.rows == b.rows

    def test_mean_mse_decreases_with_elements(self):
        # optimized-phase mean MSE strictly decreasing over a 64..512 sweep
        system = SystemConfig()  # scenario defaults: K=20, M=10
        cfg = ExperimentConfig(system=system, n_sweep=(64, 128, 256, 512), trials=1000, seed=77)
        result = run_sweep(cfg, [Scheme.OPT_PC_IRS])
        means = [r.mean_mse for r in sorted(result.rows, key=lambda r: r.N)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_duplicate_schemes_rejected(self):
        with pytest.raises(ConfigError, match="duplicate schemes: OPT_PC_IRS"):
            run_sweep(small_config(), [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS, "OPT_PC_IRS"])

    def test_no_schemes_rejected(self):
        with pytest.raises(ConfigError, match="^at least one scheme is required$"):
            run_sweep(small_config(), [])

    @pytest.mark.parametrize("schemes", ["INV_PC_IRS", Scheme.INV_PC_IRS], ids=["id", "member"])
    def test_one_string_rejected_naming_it(self, schemes):
        # a Scheme member is a string too: neither is read as a list of one-letter ids
        message = "^schemes must be a list of scheme ids, got the one string 'INV_PC_IRS'$"
        with pytest.raises(ConfigError, match=message):
            run_sweep(small_config(), schemes)

    @pytest.mark.parametrize("entry", ["run_sweep", "run_trial"])
    def test_unknown_scheme_lists_the_valid_ids(self, entry):
        cfg = small_config()
        geometry = make_geometry(cfg.system, RngStream(1, 0))
        valid = "OPT_PC_IRS, INV_PC_IRS, OPT_PC_NO_IRS, INV_PC_NO_IRS, FIXED_PHASE_OPT_PC"
        with pytest.raises(ConfigError, match=f"^unknown scheme 'bogus'; valid: {valid}$"):
            if entry == "run_sweep":
                run_sweep(cfg, [Scheme.OPT_PC_IRS, "bogus"])
            else:
                run_trial(cfg.system, geometry, "bogus", RngStream(1, 1))

    @pytest.mark.parametrize("redraw", [False, True])
    def test_non_finite_gamma_raises_its_own_error(self, redraw, monkeypatch):
        # a NaN gamma is no degenerate channel: its ValueError comes out as it is
        monkeypatch.setattr(experiments, "_direct_gammas", lambda h: np.full(h.shape[:2], np.nan))
        cfg = small_config(redraw_geometry_per_trial=redraw)
        with pytest.raises(ValueError, match="^gammas must be finite") as info:
            run_sweep(cfg, [Scheme.OPT_PC_IRS, Scheme.INV_PC_NO_IRS])
        assert not isinstance(info.value, DegenerateChannelError)

    @pytest.mark.parametrize("redraw", [False, True])
    def test_scheme_rows_independent_of_other_schemes(self, redraw):
        cfg = small_config(redraw_geometry_per_trial=redraw, trials=5)
        together = run_sweep(cfg, list(Scheme))
        for s in Scheme:
            alone = run_sweep(cfg, [s])
            assert alone.rows == [r for r in together.rows if r.scheme == s.value]

    def test_run_trial_is_single_trial_sweep(self):
        # run_trial draws one segment at its N, as a one-N sweep does
        geo = make_geometry(small_config().system, RngStream(small_config().seed, 0))
        for N in (8, 16):
            cfg = small_config(n_sweep=(N,), trials=1)
            for s in Scheme:
                (row,) = run_sweep(cfg, [s]).rows
                stream = RngStream(cfg.seed, 3)  # trial 0's channel stream
                mse, kt = run_trial(SystemConfig(M=4, N=N, K=3), geo, s, stream)
                assert (row.N, row.mean_mse, row.mean_ktilde) == (N, mse, kt)

    def test_blocked_direct_links_rejected_up_front(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "_effective_draws", lambda *a: calls.append(1))
        cfg = small_config(system=SystemConfig(M=4, N=16, K=3, block_direct=True))
        schemes = [Scheme.INV_PC_NO_IRS, Scheme.OPT_PC_IRS, Scheme.OPT_PC_NO_IRS]
        with pytest.raises(ConfigError, match="no direct link for INV_PC_NO_IRS, OPT_PC_NO_IRS$"):
            run_sweep(cfg, schemes)
        assert calls == []

    @pytest.mark.parametrize(
        "kind, N, message",
        [
            (experiments._VOTED, 8, "OPT_PC_IRS at N=8"),
            (experiments._ZERO, 16, "FIXED_PHASE_OPT_PC at N=16"),
            (experiments._DIRECT, None, "OPT_PC_NO_IRS at every N"),
        ],
    )
    def test_degenerate_gamma_raises_at_its_trial(self, kind, N, message, monkeypatch):
        # trial 66, in the second of three power blocks, has a zero gamma for one
        # kind at one N: the sweep names scheme, N and trial, and draws each trial
        # of the two blocks it reaches once, with no redraw
        draws = []  # the channel stream of every trial drawn
        original = experiments._effective_draws
        monkeypatch.setattr(
            experiments, "_effective_draws", lambda *a: draws.extend(a[3]) or original(*a)
        )
        engine_gammas = experiments._stacked_gammas
        sizes = small_config().n_sweep

        def zero_trial_66(*args):
            gammas = engine_gammas(*args)
            start = len(draws) - gammas[kind].shape[1]  # the block's first trial
            if start <= 66 < len(draws):
                gammas[kind][0 if N is None else sizes.index(N), 66 - start, 1] = 0.0
            return gammas

        monkeypatch.setattr(experiments, "_stacked_gammas", zero_trial_66)
        with pytest.raises(DegenerateChannelError, match=f"^{message}, trial 66: zero effective"):
            run_sweep(small_config(trials=130), list(Scheme))
        assert draws == [3 + 2 * t for t in range(128)]


class TestStackedPowerControl:
    """One power-control call per rule per block, split back into (scheme, N) rows."""

    @pytest.mark.parametrize("redraw", [False, True])
    def test_stacked_rows_equal_per_scheme_calls(self, redraw, monkeypatch):
        # inversion schemes first, so the rule grouping differs from the caller's order
        schemes = [
            Scheme.INV_PC_NO_IRS,
            Scheme.INV_PC_IRS,
            Scheme.FIXED_PHASE_OPT_PC,
            Scheme.OPT_PC_NO_IRS,
            Scheme.OPT_PC_IRS,
        ]
        config = small_config(n_sweep=(4, 8, 16), trials=70, redraw_geometry_per_trial=redraw)
        system, T = config.system, config.trials
        blocks = []
        engine_gammas = experiments._stacked_gammas
        monkeypatch.setattr(
            experiments,
            "_stacked_gammas",
            lambda *a: blocks.append(engine_gammas(*a)) or blocks[-1],
        )
        result = run_sweep(config, schemes)
        assert len(blocks) == 2
        keys = sorted((s.value, N) for s in schemes for N in config.n_sweep)
        assert list(result.trial_mse) == list(result.trial_ktilde) == keys
        # each (scheme, N)'s values are those of its own power-control call per block
        for s in schemes:
            for p, N in enumerate(config.n_sweep):
                runs = [
                    power_control_rows(
                        block[s.kind][min(p, len(block[s.kind]) - 1)],
                        system.Pmax,
                        system.sigma2,
                        inversion=s.inversion,
                    )
                    for block in blocks
                ]
                mse = np.concatenate([run[3] for run in runs])
                kt = np.concatenate([run[2] for run in runs])
                assert np.array_equal(bits(result.trial_mse[s.value, N]), bits(mse))
                assert np.array_equal(result.trial_ktilde[s.value, N], kt)
        # each row's statistics are those of its per-trial values
        assert [(r.scheme, r.N) for r in result.rows] == keys
        for r in result.rows:
            mse, kt = result.trial_mse[r.scheme, r.N], result.trial_ktilde[r.scheme, r.N]
            assert r.mean_mse == math.fsum(mse.tolist()) / T
            assert r.stderr_mse == float(np.std(mse, ddof=1) / math.sqrt(T))
            assert r.mean_ktilde == math.fsum(kt.tolist()) / T
        # the direct-link schemes do not see the IRS, so N cannot move their values
        for s, values in itertools.product(
            (Scheme.OPT_PC_NO_IRS, Scheme.INV_PC_NO_IRS), (result.trial_mse, result.trial_ktilde)
        ):
            first, *rest = (values[s.value, N] for N in config.n_sweep)
            assert all(np.array_equal(bits(first), bits(other)) for other in rest)

    @pytest.mark.parametrize(
        "schemes",
        [list(Scheme), [Scheme.FIXED_PHASE_OPT_PC, Scheme.OPT_PC_IRS], [Scheme.INV_PC_NO_IRS]],
        ids=["all", "optimal", "inversion"],
    )
    def test_one_call_per_rule_per_block(self, schemes, monkeypatch):
        rules = []
        engine_power_control = experiments._power_rows

        def record(g, Pmax, sigma2, inversion):
            rules.append(inversion)
            return engine_power_control(g, Pmax, sigma2, inversion)

        def per_scheme(*args, **kwargs):
            raise AssertionError("per-(scheme, N) power control on a block in range")

        monkeypatch.setattr(experiments, "_power_rows", record)
        monkeypatch.setattr(experiments, "power_control_rows", per_scheme)
        run_sweep(small_config(trials=130), schemes)  # three blocks
        assert rules == sorted({s.inversion for s in schemes}) * 3

    @pytest.mark.parametrize("inversion_first", [False, True])
    def test_degenerate_error_names_callers_first_scheme(self, inversion_first, monkeypatch):
        # both rules fail at the same zero; the caller's first scheme is named
        engine_gammas = experiments._stacked_gammas

        def zero_trial_3(*args):
            gammas = engine_gammas(*args)
            gammas[experiments._VOTED][1, 3, 0] = 0.0
            return gammas

        monkeypatch.setattr(experiments, "_stacked_gammas", zero_trial_3)
        schemes = [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS, Scheme.OPT_PC_NO_IRS]
        if inversion_first:
            schemes.reverse()
        first = next(s for s in schemes if s.kind == experiments._VOTED)
        with pytest.raises(DegenerateChannelError, match=f"^{first.value} at N=16, trial 3: zero"):
            run_sweep(small_config(), schemes)


    def test_degenerate_and_non_finite_messages_pinned(self, monkeypatch):
        # the whole message of each error, and the stacked check's error as its cause
        engine_gammas = experiments._stacked_gammas
        bad = {}

        def spoiled(*args):
            gammas = engine_gammas(*args)
            gammas[experiments._VOTED][1, 3, 0] = bad["value"]
            return gammas

        monkeypatch.setattr(experiments, "_stacked_gammas", spoiled)
        schemes = [Scheme.INV_PC_IRS, Scheme.OPT_PC_NO_IRS]
        bad["value"] = 0.0
        with pytest.raises(DegenerateChannelError) as info:
            run_sweep(small_config(), schemes)
        assert str(info.value) == (
            "INV_PC_IRS at N=16, trial 3: zero effective channel, power control undefined"
        )
        assert isinstance(info.value.__cause__, DegenerateChannelError)
        bad["value"] = np.nan
        with pytest.raises(ValueError) as info:
            run_sweep(small_config(), schemes)
        assert type(info.value) is ValueError
        assert str(info.value) == "gammas must be finite, got a NaN or infinite effective channel"


class TestDirectGammas:
    def test_batched_combiner_equals_per_block_loop(self):
        # one matmul and one eigh over the stack, bit for bit the per-block steps
        gen = np.random.default_rng(8)
        for B, K, M in ((1, 1, 1), (7, 3, 4), (64, 20, 10), (33, 5, 12)):
            H = gen.standard_normal((B, K, M, 2)) @ np.array([1.0, 1.0j])
            H *= gen.uniform(1e-6, 1.0, (B, K, 1))
            batched = experiments._direct_gammas(H)
            for b in range(B):
                _, vecs = np.linalg.eigh(H[b].T @ H[b].conj())
                alone = H[b] @ vecs[:, -1].conj()
                assert np.array_equal(bits(batched[b]), bits(alone))


class TestWriteCsv:
    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(SweepResult(rows=[]), path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_single_row_two_lines(self, tmp_path):
        row = SweepRow("OPT_PC_IRS", 8, 4, 3, 2, 0.5, 0.1, 1.5, None, None)
        path = tmp_path / "one.csv"
        write_csv(SweepResult(rows=[row]), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1] == "OPT_PC_IRS,8,4,3,2,0.5,0.1,1.5,,"

    def test_unwritable_path_names_it(self, tmp_path):
        path = tmp_path / "absent" / "x.csv"
        with pytest.raises(OSError, match=f"^failed writing sweep CSV to {re.escape(str(path))}: "):
            write_csv(SweepResult(rows=[]), path)

    def test_round_trip_bit_exact(self, tmp_path):
        result = run_sweep(small_config(), [Scheme.OPT_PC_IRS, Scheme.INV_PC_NO_IRS])
        path = tmp_path / "sweep.csv"
        write_csv(result, path)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            parsed = list(reader)
        rows = sorted(result.rows, key=lambda r: (r.scheme, r.N))
        assert len(parsed) == len(rows)
        for got, want in zip(parsed, rows):
            assert got["scheme"] == want.scheme
            assert int(got["N"]) == want.N
            assert float(got["mean_mse"]) == want.mean_mse  # bit-exact round trip
            assert float(got["stderr_mse"]) == want.stderr_mse
            assert float(got["mean_ktilde"]) == want.mean_ktilde
            if want.bound_mse is None:
                assert got["bound_mse"] == ""
            else:
                assert float(got["bound_mse"]) == want.bound_mse


class TestLoadConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_empty_file_gives_scenario_defaults(self, tmp_path):
        cfg = load_config(self.write(tmp_path, "# nothing but a comment\n"))
        s = cfg.system
        assert (s.M, s.K, s.L) == (10, 20, 2)
        assert s.Pmax == pytest.approx(0.1)
        assert s.sigma2 == pytest.approx(1e-11)
        assert s.rician_delta == 10.0
        assert s.ref_loss_linear == pytest.approx(1e-3)
        assert s.pathloss_exponent_reflected == 2.2
        assert s.pathloss_exponent_direct == 3.8
        assert cfg.trials == 10_000

    def test_dbm_conversion(self, tmp_path):
        cfg = load_config(self.write(tmp_path, "pmax_dbm = 20\nsigma2_dbm = -80\n"))
        assert cfg.system.Pmax == pytest.approx(0.1, rel=1e-12)
        assert cfg.system.sigma2 == pytest.approx(1e-11, rel=1e-12)

    def test_decreasing_sweep_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, "n_sweep = 64,32\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, "bandwidth = 10\n"))

    def test_unparsable_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, "trials = many\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, "m = 4\nm = 8\n"))

    def test_dbm_and_linear_conflict_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, "pmax = 0.1\npmax_dbm = 20\n"))

    def test_full_round(self, tmp_path):
        text = """
        # scenario
        m = 4
        k = 3          # devices
        l = 4
        pure_los = true
        block_direct = yes
        nu = 0.1, -0.2, 0.3
        n_sweep = 16, 32
        trials = 7
        seed = 99
        device_center = 100, 0, 0
        """
        cfg = load_config(self.write(tmp_path, text))
        assert cfg.system.M == 4 and cfg.system.K == 3 and cfg.system.L == 4
        assert cfg.system.pure_los and cfg.system.block_direct
        assert cfg.system.nu == (0.1, -0.2, 0.3)
        assert cfg.n_sweep == (16, 32) and cfg.trials == 7 and cfg.seed == 99
        assert cfg.system.device_center == (100.0, 0.0, 0.0)

    def test_invariant_violation_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, "k = 0\n"))

    @pytest.mark.parametrize(
        "line",
        [
            "pmax = nan",
            "sigma2 = inf",
            "rician_delta = inf",
            "spacing_ratio = 1e308",
            # finite phases at the default N = 256, not at the sweep's largest N
            "spacing_ratio = 1e304\nn_sweep = 64, 1000000",
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, line):
        with pytest.raises(ConfigError, match="must be finite"):
            load_config(self.write(tmp_path, line + "\n"))

    @pytest.mark.parametrize(
        "line, name, count",
        [
            pytest.param("n_sweep = 64, 1" + "0" * 400, "n_sweep", 10**400,
                         id="n_sweep past the float range"),
            pytest.param("m = 1" + "0" * 400, "M", 10**400, id="M past the float range"),
            pytest.param(f"k = {2**63}", "K", 2**63, id="K=2**63"),
            pytest.param(f"trials = {2**63}", "trials", 2**63, id="trials=2**63"),
        ],
    )
    def test_count_past_int64_rejected_naming_it(self, tmp_path, line, name, count):
        # an M past the float range overflowed the finiteness check, and an n_sweep
        # there was blamed on spacing_ratio
        with pytest.raises(ConfigError, match=rf"^{name} must be below 2\*\*63, got {count}$"):
            load_config(self.write(tmp_path, line + "\n"))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pure_los = maybe", "pure_los: expected a boolean, got 'maybe'"),
            ("ap_position = 1, 2", "ap_position: expected three comma-separated coordinates"),
            ("trials 5", "line 1: expected 'key = value', got 'trials 5'"),
        ],
        ids=["boolean", "triple", "no-equals"],
    )
    def test_malformed_value_or_line_rejected(self, tmp_path, line, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(self.write(tmp_path, line + "\n"))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_every_committed_config_loads(self):
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
        assert paths
        for path in paths:
            assert isinstance(load_config(path), ExperimentConfig), path.name

    @pytest.mark.parametrize(
        "owner, name",
        [(SystemConfig, f.name) for f in fields(SystemConfig) if f.name != "N"]
        + [(ExperimentConfig, f.name) for f in fields(ExperimentConfig) if f.name != "system"],
    )
    def test_every_settable_field_round_trips(self, tmp_path, owner, name):
        default = getattr(owner(), name)
        value = other_value(typing.get_type_hints(owner)[name], default)
        assert value != default
        cfg = load_config(self.write(tmp_path, f"{name.lower()} = {config_text(value)}\n"))
        loaded = cfg.system if owner is SystemConfig else cfg
        assert getattr(loaded, name) == value
        assert replace(loaded, **{name: default}) == owner()  # nothing else moved


@pytest.mark.parametrize(
    "owner, name, bad, good",
    [
        (SystemConfig, "M", 2.5, np.int64(2)),
        (SystemConfig, "N", 64.0, np.int32(64)),
        (SystemConfig, "K", 3.5, np.uint8(3)),
        (SystemConfig, "K", True, 1),
        (SystemConfig, "L", 2.5, np.int64(2)),
        (ExperimentConfig, "n_sweep", (64.5, 128.9), np.array([64, 128])),
        (ExperimentConfig, "n_sweep", (64, np.float64(128)), (64, np.int64(128))),
        (ExperimentConfig, "trials", 2.5, np.int64(2)),
        (ExperimentConfig, "trials", True, 1),
        (ExperimentConfig, "seed", 1.5, np.uint64(1)),
    ],
)
def test_non_integer_counts_rejected(owner, name, bad, good):
    # int() truncated 64.5 to 64, and the other fields failed deep inside run_sweep
    error = ConfigError if owner is ExperimentConfig else ValueError
    with pytest.raises(error, match=f"^{name} must "):
        owner(**{name: bad})
    owner(**{name: good})  # Python and numpy integers are counts


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(n_sweep=()), "n_sweep must contain positive element counts"),
        (dict(epsilon=0.0), r"epsilon must be in \(0, 1\)"),
        (dict(epsilon=1.0), r"epsilon must be in \(0, 1\)"),
        (dict(epsilon=math.nan), r"epsilon must be in \(0, 1\)"),
    ],
    ids=["empty-n_sweep", "epsilon=0", "epsilon=1", "epsilon=nan"],
)
def test_experiment_config_rejects_out_of_range(overrides, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("seed", [np.int64(11), np.uint64(11), np.int32(11)])
def test_numpy_integer_seed_runs_as_its_int(seed):
    # the config accepted np.int64, then run_sweep overflowed keying its streams
    cfg = small_config(seed=seed)
    assert type(cfg.seed) is int
    assert run_sweep(cfg, list(Scheme)).rows == run_sweep(small_config(seed=11), list(Scheme)).rows


def other_value(hint, default):
    """A valid value of a field annotated ``hint`` that differs from ``default``."""
    args = typing.get_args(hint)
    if type(None) in args:  # unset by default: an angle, or one angle per device
        (hint,) = set(args) - {type(None)}
        one = 0.25
        return (one,) * SystemConfig().K if typing.get_origin(hint) is tuple else one
    if typing.get_origin(hint) is tuple:
        return tuple(other_value(args[0], x) for x in default)
    if hint is bool:
        return not default
    return default + 1 if hint is int else (default or 2.0) / 2


def config_text(value):
    if isinstance(value, tuple):
        return ", ".join(config_text(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else repr(value)


def test_array_records_compare_by_identity():
    # an elementwise == on their arrays would raise, as would hashing them by value
    config = small_config(trials=1)
    geometry = make_geometry(config.system, RngStream(1, 0))
    records = [
        geometry,
        sample_channels(geometry, config.system, RngStream(1, 1)),
        compute_long_term(geometry, config.system),
        run_sweep(config, [Scheme.OPT_PC_IRS]),
    ]
    for record in records:
        twin = replace(record)
        assert record == record and record != twin
        assert hash(record) == hash(record) != hash(twin)
        assert {record, twin, record} == {record, twin}
