import csv
import itertools
import typing
from dataclasses import fields, replace

import numpy as np
import pytest

from irs_aircomp import experiments
from irs_aircomp.channel import SystemConfig, line_of_sight, make_geometry
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
)
from irs_aircomp.numerics import RngStream
from irs_aircomp.protocol import DegenerateChannelError, PhaseShiftVector


def small_config(**overrides):
    system = SystemConfig(M=4, N=16, K=3)
    defaults = dict(system=system, n_sweep=(8, 16), trials=4, seed=11)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunTrial:
    def test_inversion_matches_closed_form_exactly(self):
        from irs_aircomp.channel import effective_scalar_channel, sample_channels

        cfg = SystemConfig(M=4, N=16, K=3)
        geo = make_geometry(cfg, RngStream(50, 0))
        lt = compute_long_term(geo, cfg)
        stream = RngStream(50, 1)
        mse, kt = run_trial(cfg, geo, Scheme.INV_PC_IRS, stream, lt)
        real = sample_channels(geo, cfg, stream)
        gam = effective_scalar_channel(real, lt.v, lt.theta_voted)
        assert mse == cfg.sigma2 / (cfg.Pmax * float(np.min(np.abs(gam) ** 2)))
        assert kt == 1

    def test_optimal_never_worse_than_inversion_on_shared_stream(self):
        cfg = SystemConfig(M=4, N=32, K=5)
        geo = make_geometry(cfg, RngStream(51, 0))
        lt = compute_long_term(geo, cfg)
        for t in range(10):
            stream = RngStream(51, t + 1)
            mse_opt, _ = run_trial(cfg, geo, Scheme.OPT_PC_IRS, stream, lt)
            mse_inv, _ = run_trial(cfg, geo, Scheme.INV_PC_IRS, stream, lt)
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
        monkeypatch.setattr(experiments, "sample_channels", lambda *a: calls.append(1))
        cfg = SystemConfig(M=4, N=16, K=3, block_direct=True)
        geo = make_geometry(cfg, RngStream(54, 0))
        with pytest.raises(ConfigError, match="no direct link for OPT_PC_NO_IRS$"):
            run_trial(cfg, geo, Scheme.OPT_PC_NO_IRS, RngStream(54, 1))
        assert calls == []

    def test_degenerate_block_raises_without_redraw(self, monkeypatch):
        calls = []
        original = experiments.sample_channels
        monkeypatch.setattr(
            experiments, "sample_channels", lambda *a: calls.append(1) or original(*a)
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
        lt = compute_long_term(geo, cfg)
        a, _ = run_trial(cfg, geo, Scheme.OPT_PC_NO_IRS, RngStream(53, 1), lt)
        big_irs = SystemConfig(M=4, N=64, K=3)
        geo2 = make_geometry(big_irs, RngStream(53, 0))
        lt2 = compute_long_term(geo2, big_irs)
        b, _ = run_trial(big_irs, geo2, Scheme.OPT_PC_NO_IRS, RngStream(53, 1), lt2)
        assert a == b  # direct draws identical, N plays no role without the IRS


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestPrefixes:
    """Slices of the state built at the largest N are the state built at N."""

    @pytest.mark.parametrize("levels", [2, 4])
    @pytest.mark.parametrize("pure_los", [False, True])
    def test_prefix_slices_bit_identical(self, levels, pure_los):
        sweep = (1, 32, 100, 512, 1024)
        system = SystemConfig(K=7, L=levels, pure_los=pure_los, spacing_ratio=0.37)
        largest = replace(system, N=sweep[-1])
        for seed in range(12):
            geo = make_geometry(system, RngStream(seed, 0))
            state, whole = compute_long_term(geo, largest), line_of_sight(geo, largest)
            for N in sweep:
                los = whole[:, :N]  # the engine's blocks at N under pure_los
                sized = replace(system, N=N)
                want = compute_long_term(geo, sized)
                want_los = line_of_sight(geo, sized)
                assert np.array_equal(bits(state.v), bits(want.v))
                assert np.array_equal(state.theta_voted.indices[:N], want.theta_voted.indices)
                assert np.array_equal(bits(los), bits(want_los))
                for name in ("voted_reflection", "zero_reflection"):
                    (gain, row), (want_gain, want_row) = getattr(state, name), getattr(want, name)
                    assert np.array_equal(bits(np.array([gain])), bits(np.array([want_gain])))
                    assert np.array_equal(bits(row[:N]), bits(want_row))
                    # the strided line-of-sight view in the block's reflected matvec
                    assert np.array_equal(bits(los @ row[:N]), bits(want_los @ want_row))

    @pytest.mark.parametrize("redraw", [False, True])
    def test_sweep_builds_phase_vectors_once_per_geometry(self, redraw, monkeypatch):
        checked = []
        validate = PhaseShiftVector.__post_init__

        def counting(self):
            checked.append(self)
            validate(self)

        monkeypatch.setattr(PhaseShiftVector, "__post_init__", counting)
        cfg = small_config(n_sweep=(4, 8, 16), trials=5, redraw_geometry_per_trial=redraw)
        run_sweep(cfg, list(Scheme))
        # compute_long_term's voted and zero phases, at the largest N, and none per N
        assert len(checked) == 2 * (cfg.trials if redraw else 1)


def per_trial_mses(monkeypatch, config, schemes):
    """Per-trial MSEs of one run_sweep, one list per (scheme, N) power-control call.

    Every block of trials makes the same calls in the same order, so the
    j-th call of each block extends the j-th list.
    """
    calls = []
    engine_power_control = experiments.power_control_rows

    def record(*args, **kwargs):
        out = engine_power_control(*args, **kwargs)
        calls.append(out[3].tolist())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "power_control_rows", record)
        run_sweep(config, schemes)
    blocks = -(-config.trials // experiments._POWER_BLOCK)
    per_block = len(calls) // blocks
    return [sum(calls[j::per_block], []) for j in range(per_block)]


class TestKeyedStreams:
    """Draws keyed by the trial: one channel block at the largest N, and a geometry."""

    @pytest.mark.parametrize("redraw", [False, True])
    def test_sub_sweep_rows_equal_full_sweep_rows(self, redraw):
        system = SystemConfig(M=4, K=3)
        full = run_sweep(
            small_config(system=system, n_sweep=(64, 128, 256, 512),
                         redraw_geometry_per_trial=redraw),
            list(Scheme),
        )
        sub = run_sweep(
            small_config(system=system, n_sweep=(64, 256), redraw_geometry_per_trial=redraw),
            list(Scheme),
        )
        assert sub.rows == [r for r in full.rows if r.N in (64, 256)]

    @pytest.mark.parametrize("redraw", [False, True])
    def test_longer_run_extends_per_trial_values(self, redraw, monkeypatch):
        # 40 and 80 trials: the longer run also crosses a power-control block boundary
        schemes = [Scheme.OPT_PC_IRS, Scheme.INV_PC_NO_IRS, Scheme.FIXED_PHASE_OPT_PC]
        short = per_trial_mses(
            monkeypatch, small_config(trials=40, redraw_geometry_per_trial=redraw), schemes
        )
        long = per_trial_mses(
            monkeypatch, small_config(trials=80, redraw_geometry_per_trial=redraw), schemes
        )
        assert len(short) == len(long)
        for values, longer in zip(short, long):
            assert len(values) == 40 and len(longer) == 80
            assert longer[:40] == values

    @pytest.mark.parametrize("redraw", [False, True])
    def test_per_geometry_work_once_per_geometry(self, redraw, monkeypatch):
        calls = {"make_geometry": 0, "compute_long_term": 0, "line_of_sight": 0}
        for name in calls:
            original = getattr(experiments, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(experiments, name, counted)
        cfg = small_config(n_sweep=(4, 8, 16), trials=5, redraw_geometry_per_trial=redraw)
        run_sweep(cfg, list(Scheme))
        # one geometry per trial, shared by every N, besides the reference of stream 0
        geometries = cfg.trials if redraw else 1
        assert calls == {
            "make_geometry": 1 + redraw * cfg.trials,
            "compute_long_term": geometries,
            "line_of_sight": geometries,
        }

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
        # Key parts spilling across 32-bit words, as in the RngStream(seed, stream_id)
        # pair where (3 + 2**32, 7) and (3, 1 + 7 * 2**32) give one stream, are refused,
        # and every in-range (seed, kind, n, trial) owns its own stream.
        parts = (0, 1, 7, 2**32 - 1)
        seeds = (0, 3, 3 + 2**32, 2**64 - 1)
        first = {}
        for seed, kind, n, trial in itertools.product(seeds, (0, 1), parts, parts):
            gen = experiments._keyed_generator(seed, kind, n, trial)
            first[(seed, kind, n, trial)] = tuple(gen.bit_generator.random_raw(2))
        keyed = set(first.values())
        assert len(keyed) == len(first)
        # nor does any keyed stream repeat the reference or benchmark-style streams
        for seed in seeds:
            for stream_id in (0, 1, 2, 3, 1 << 40, (1 << 40) + 1):
                raw = tuple(RngStream(seed, stream_id).generator().bit_generator.random_raw(2))
                assert raw not in keyed
        for key in ((0, 0, 2**32), (1, 1 + 7 * 2**32, 0), (2**32, 0, 0), (0, -1, 0)):
            with pytest.raises(ValueError, match="stream key parts"):
                experiments._keyed_generator(3, *key)


class TestRunSweep:
    def test_single_trial_zero_stderr(self):
        result = run_sweep(small_config(n_sweep=(8,), trials=1), [Scheme.OPT_PC_IRS])
        assert len(result.rows) == 1
        assert result.rows[0].stderr_mse == 0.0
        assert result.rows[0].trials == 1

    def test_deterministic_given_seed(self):
        cfg = small_config()
        a = run_sweep(cfg, [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS])
        b = run_sweep(cfg, [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS])
        assert a.rows == b.rows

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

    @pytest.mark.parametrize("redraw", [False, True])
    def test_scheme_rows_independent_of_other_schemes(self, redraw):
        cfg = small_config(redraw_geometry_per_trial=redraw, trials=5)
        together = run_sweep(cfg, list(Scheme))
        for s in Scheme:
            alone = run_sweep(cfg, [s])
            assert alone.rows == [r for r in together.rows if r.scheme == s.value]

    def test_run_trial_is_single_trial_sweep(self):
        # the sweep draws at N = 16 and slices N = 8; run_trial draws at each N
        cfg = small_config(n_sweep=(8, 16), trials=1)
        geo = make_geometry(cfg.system, RngStream(cfg.seed, 0))
        for s in Scheme:
            rows = run_sweep(cfg, [s]).rows
            for N, row in zip(cfg.n_sweep, rows):
                gen = experiments._keyed_generator(cfg.seed, experiments._CHANNEL_KEY, 0, 0)
                mse, kt = run_trial(SystemConfig(M=4, N=N, K=3), geo, s, gen)
                assert (row.N, row.mean_mse, row.mean_ktilde) == (N, mse, kt)

    def test_blocked_direct_links_rejected_up_front(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "sample_channels", lambda *a: calls.append(1))
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
        blocks = []
        original = experiments.sample_channels
        monkeypatch.setattr(
            experiments, "sample_channels", lambda *a: blocks.append(original(*a)) or blocks[-1]
        )

        def sound(h_direct):
            return len(blocks) <= 66 or not np.array_equal(h_direct, blocks[66].h_direct)

        engine_gammas = experiments._kind_gammas
        monkeypatch.setattr(
            experiments,
            "_kind_gammas",
            lambda k, block, lt, n: (
                engine_gammas(k, block, lt, n) * ((k, n) != (kind, N) or sound(block.h_direct))
            ),
        )
        engine_direct = experiments._direct_gammas
        monkeypatch.setattr(
            experiments,
            "_direct_gammas",
            lambda h: engine_direct(h)
            * np.array([kind != experiments._DIRECT or sound(x) for x in h])[:, None],
        )
        with pytest.raises(DegenerateChannelError, match=f"^{message}, trial 66: zero effective"):
            run_sweep(small_config(trials=130), list(Scheme))
        assert len(blocks) == 128


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

    @pytest.mark.parametrize("line", ["pmax = nan", "sigma2 = inf", "rician_delta = inf"])
    def test_non_finite_value_rejected(self, tmp_path, line):
        with pytest.raises(ConfigError, match="must be finite"):
            load_config(self.write(tmp_path, line + "\n"))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

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
