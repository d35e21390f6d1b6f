"""The three benchmark workloads, driven through the simulator's public API and CLI.

Every call into the simulator goes through a module attribute
(``channel.sample_channels``, ``cli.main``, ...), the same names the
simulator's own modules look up, so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import irs_aircomp.cli as cli
from irs_aircomp import analysis, channel, experiments, numerics, protocol

import check
import inputs

# Block checks draw from streams far above any stream a sweep or scaling trial uses.
CHECK_STREAM_BASE = 1 << 40


@dataclass
class Round:
    """One round: the same operations every time, one per scheme-trial."""

    scheme_trials: int
    failed: int
    redraws: int
    output: object


def _block(geometry, system, long_term, stream, *, optimal: bool):
    """Draw a fresh block through the program and package it for ``check_block``."""
    realization = channel.sample_channels(geometry, system, stream)
    gammas = channel.effective_scalar_channel(realization, long_term.v, long_term.theta_voted)
    inv = protocol.channel_inversion_power_control(gammas, system.Pmax, system.sigma2)
    opt = protocol.optimal_power_control(gammas, system.Pmax, system.sigma2) if optimal else None
    return check.Block(
        M=system.M,
        N=system.N,
        spacing=geometry.spacing_ratio,
        phi_r=geometry.phi_r,
        phi_t=geometry.phi_t,
        ap_position=system.ap_position,
        irs_position=system.irs_position,
        exponent_reflected=system.pathloss_exponent_reflected,
        ref_loss=system.ref_loss_linear,
        v=long_term.v,
        theta_phases=long_term.theta_voted.phases,
        h_direct=realization.h_direct,
        h_reflect=realization.h_reflect,
        gammas=gammas,
        Pmax=system.Pmax,
        sigma2=system.sigma2,
        inv_mse=inv.mse,
        opt_mse=None if opt is None else opt.mse,
    )


def _check_sweep(checks, rows, config, *, redraw: bool) -> None:
    """Row, bound-column and fresh-block checks shared by both sweep workloads."""
    system = config.system
    check.check_rows(
        checks, rows, n_sweep=config.n_sweep, trials=config.trials, M=system.M, K=system.K,
        geometry_averaged=redraw,
    )
    # run_sweep's bound columns describe the reference geometry from stream 0
    reference = channel.make_geometry(system, numerics.RngStream(config.seed, 0))
    check.check_bound_columns(
        checks,
        rows,
        system=asdict(system),
        device_positions=reference.device_positions,
        epsilon=config.epsilon,
    )
    for i, N in enumerate(config.n_sweep):
        sized = replace(system, N=N)
        stream = numerics.RngStream(config.seed, CHECK_STREAM_BASE + 2 * i)
        geometry = channel.make_geometry(sized, stream) if redraw else reference
        long_term = experiments.compute_long_term(geometry, sized)
        block_stream = numerics.RngStream(config.seed, CHECK_STREAM_BASE + 2 * i + 1)
        check.check_block(checks, _block(geometry, sized, long_term, block_stream, optimal=True))


class SweepFixed:
    """``run_sweep`` at the default SystemConfig(), all schemes, geometry held fixed."""

    name = "sweep-fixed"
    timed_trials, check_trials = inputs.FIXED_TRIALS, inputs.FIXED_CHECK_TRIALS

    def __init__(self, seed: int, out_dir: Path, trials: int):
        self.seed = seed
        self.trials = trials

    def setup(self) -> None:
        self.config = experiments.ExperimentConfig(
            system=channel.SystemConfig(),
            n_sweep=inputs.FIXED_N,
            trials=self.trials,
            seed=self.seed,
        )
        self.schemes = list(experiments.Scheme)

    def run_round(self) -> Round:
        result = experiments.run_sweep(self.config, self.schemes)
        n = len(self.config.n_sweep) * len(self.schemes) * self.config.trials
        return Round(n, 0, result.rejected_trials, result)

    def check(self, output, checks) -> None:
        rows = [asdict(r) for r in output.rows]
        _check_sweep(checks, rows, self.config, redraw=False)


class SweepRedrawCli:
    """``irs-aircomp sweep`` from a config file, geometry redrawn every trial."""

    name = "sweep-redraw-cli"
    timed_trials, check_trials = inputs.REDRAW_TRIALS, inputs.REDRAW_CHECK_TRIALS

    def __init__(self, seed: int, out_dir: Path, trials: int):
        self.seed = seed
        self.trials = trials
        self.config_path = inputs.cli_config_path(out_dir, seed)
        self.csv_path = inputs.cli_csv_path(out_dir, seed)

    def setup(self) -> None:
        self.config = replace(experiments.load_config(self.config_path), trials=self.trials)

    def run_round(self) -> Round:
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["sweep", "--config", str(self.config_path), "--trials", str(self.trials),
                "--out", str(self.csv_path)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        rows = len(self.config.n_sweep) * len(experiments.Scheme)
        if code != 0 or stdout.getvalue().strip() != f"wrote {rows} rows to {self.csv_path}":
            raise RuntimeError(f"sweep exited {code}: {stdout.getvalue()} {stderr.getvalue()}")
        found = re.search(r"rejected and redrew (\d+) degenerate trials", stderr.getvalue())
        return Round(rows * self.config.trials, 0, int(found.group(1)) if found else 0, None)

    def check(self, output, checks) -> None:
        header, rows = check.parse_csv(self.csv_path.read_text(encoding="utf-8"))
        check.check_csv_format(checks, header, rows)
        _check_sweep(checks, rows, self.config, redraw=True)


class ScalingLos:
    """The pure line-of-sight recipe of scripts/run_scaling_law.py, inversion rule only."""

    name = "scaling-los"
    timed_trials, check_trials = inputs.SCALING_TRIALS, inputs.SCALING_CHECK_TRIALS

    def __init__(self, seed: int, out_dir: Path, trials: int):
        self.seed = seed
        self.trials = trials

    def setup(self) -> None:
        self.systems = [
            channel.SystemConfig(
                M=inputs.SCALING_M, N=N, K=inputs.SCALING_K, L=2, Pmax=1.0,
                sigma2=inputs.SCALING_SIGMA2, pure_los=True, block_direct=True,
                ref_loss_linear=1.0, pathloss_exponent_reflected=0.0,
                pathloss_exponent_direct=0.0, device_radius=0.0,
            )
            for N in inputs.SCALING_N
        ]

    def run_round(self) -> Round:
        points, failed = [], 0
        for system in self.systems:
            mses, phi_t, nu, voted = [], [], [], []
            for t in range(self.trials):
                geometry = channel.make_geometry(
                    system, numerics.RngStream(self.seed, 2 + 2 * t).generator()
                )
                long_term = experiments.compute_long_term(geometry, system)
                realization = channel.sample_channels(
                    geometry, system, numerics.RngStream(self.seed, 3 + 2 * t)
                )
                gammas = channel.effective_scalar_channel(
                    realization, long_term.v, long_term.theta_voted
                )
                try:
                    sol = protocol.channel_inversion_power_control(
                        gammas, system.Pmax, system.sigma2
                    )
                except protocol.DegenerateChannelError:
                    failed += 1
                    continue
                mses.append(sol.mse)
                phi_t.append(geometry.phi_t)
                nu.append(geometry.nu)
                voted.append(long_term.theta_voted.indices)
            params = analysis.AsymptoticParams(
                M=system.M, N=system.N, K=system.K, Pmax=system.Pmax,
                sigma2=system.sigma2, rho_min=1.0,
            )
            bound = analysis.mse_upper_bound(params)
            points.append(check.ScalingPoint(system.N, mses, bound, phi_t, nu, voted))
        n = len(self.systems) * self.trials
        return Round(n, failed, 0, points)

    def check(self, output, checks) -> None:
        system = self.systems[0]
        check.check_scaling(
            checks, output, K=system.K, M=system.M, Pmax=system.Pmax,
            sigma2=system.sigma2, spacing=system.spacing_ratio,
        )
        for i, sized in enumerate(self.systems):
            stream = numerics.RngStream(self.seed, CHECK_STREAM_BASE + 2 * i)
            geometry = channel.make_geometry(sized, stream)
            long_term = experiments.compute_long_term(geometry, sized)
            block_stream = numerics.RngStream(self.seed, CHECK_STREAM_BASE + 2 * i + 1)
            check.check_block(checks, _block(geometry, sized, long_term, block_stream, optimal=False))


WORKLOADS = {w.name: w for w in (SweepFixed, SweepRedrawCli, ScalingLos)}
