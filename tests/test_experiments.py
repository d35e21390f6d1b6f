import csv
import itertools
import math

import numpy as np
import pytest

from irs_aircomp import experiments
from irs_aircomp.channel import SystemConfig, effective_scalar_channel, make_geometry
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
from irs_aircomp.protocol import (
    DegenerateChannelError,
    channel_inversion_power_control,
    optimal_power_control,
)


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
        cfg = small_config(n_sweep=(16,), trials=1)
        system = SystemConfig(M=4, N=16, K=3)
        geo = make_geometry(system, RngStream(cfg.seed, 0))
        for s in Scheme:
            (row,) = run_sweep(cfg, [s]).rows
            mse, kt = run_trial(system, geo, s, RngStream(cfg.seed, 3))
            assert (row.mean_mse, row.mean_ktilde) == (mse, kt)

    def test_blocked_direct_links_rejected_up_front(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "sample_channels", lambda *a: calls.append(1))
        cfg = small_config(system=SystemConfig(M=4, N=16, K=3, block_direct=True))
        schemes = [Scheme.INV_PC_NO_IRS, Scheme.OPT_PC_IRS, Scheme.OPT_PC_NO_IRS]
        with pytest.raises(ConfigError, match="no direct link for INV_PC_NO_IRS, OPT_PC_NO_IRS$"):
            run_sweep(cfg, schemes)
        assert calls == []

    def test_degenerate_draws_exhaust_redraws(self, monkeypatch):
        calls = []
        original = experiments.sample_channels
        monkeypatch.setattr(
            experiments, "sample_channels", lambda *a: calls.append(1) or original(*a)
        )
        engine_gammas = experiments._kind_gammas
        monkeypatch.setattr(
            experiments,
            "_kind_gammas",
            lambda kind, real, lt: engine_gammas(kind, real, lt) * (kind != experiments._DIRECT),
        )
        with pytest.raises(DegenerateChannelError, match="OPT_PC_NO_IRS.*100 redraws"):
            run_sweep(small_config(), [Scheme.OPT_PC_IRS, Scheme.OPT_PC_NO_IRS])
        assert len(calls) == experiments._MAX_REDRAWS

    def test_degenerate_redraws_match_per_scheme_draws(self, monkeypatch):
        # Declare about half of all draws degenerate, differently for voted and
        # all-zero phases, and compare with each scheme run alone on a fresh
        # generator of the trial's stream, redrawing until it gets a sound block.
        def flaky(realization, gammas, voted):
            row = 0 if voted else 1
            return 0.0 * gammas if realization.h_direct[row, 0].real < 0 else gammas

        engine_gammas = experiments._kind_gammas
        monkeypatch.setattr(
            experiments,
            "_kind_gammas",
            lambda kind, real, lt: flaky(
                real, engine_gammas(kind, real, lt), kind == experiments._VOTED
            ),
        )
        cfg = small_config(trials=6)
        schemes = [Scheme.INV_PC_IRS, Scheme.FIXED_PHASE_OPT_PC, Scheme.OPT_PC_IRS]
        result = run_sweep(cfg, schemes)

        geo = make_geometry(cfg.system, RngStream(cfg.seed, 0))
        rejected = 0
        for p, N in enumerate(cfg.n_sweep):
            system = SystemConfig(M=4, N=N, K=3)
            lt = compute_long_term(geo, system)
            for s in schemes:
                theta = lt.theta_fixed if s is Scheme.FIXED_PHASE_OPT_PC else lt.theta_voted
                rule = (
                    channel_inversion_power_control
                    if s is Scheme.INV_PC_IRS
                    else optimal_power_control
                )
                mses = []
                for t in range(cfg.trials):
                    gen = RngStream(cfg.seed, 3 + 2 * (p * cfg.trials + t)).generator()
                    for redraws in itertools.count():
                        realization = experiments.sample_channels(geo, system, gen)
                        gammas = flaky(
                            realization,
                            effective_scalar_channel(realization, lt.v, theta),
                            theta is lt.theta_voted,
                        )
                        if np.all(gammas != 0):
                            break
                    rejected += redraws
                    mses.append(rule(gammas, system.Pmax, system.sigma2).mse)
                (row,) = [r for r in result.rows if (r.scheme, r.N) == (s.value, N)]
                assert row.mean_mse == math.fsum(mses) / cfg.trials
        assert rejected > 0
        assert result.rejected_trials == rejected


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
