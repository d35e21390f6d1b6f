"""The inputs of each benchmark workload, derived from the workload seed alone.

This module imports nothing from the simulator, so the launcher can
write the input files before any workload process starts.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("sweep-fixed", "sweep-redraw-cli", "scaling-los")

# The correctness checks run each workload at its check size on the
# workload seed and on this second seed.
SECOND_SEED_OFFSET = 7919

# Timed rounds are short (about 0.2 s here), so that the speed gauge of
# reference.py brackets each one closely; the checks need more trials.

# sweep-fixed: run_sweep at the default SystemConfig(), geometry fixed.
FIXED_N = (64, 128, 256, 512)
FIXED_TRIALS = 10
FIXED_CHECK_TRIALS = 50

# sweep-redraw-cli: `irs-aircomp sweep` from a config file, geometry
# redrawn on every trial.
REDRAW_N = (32, 64, 128, 256, 512)
REDRAW_TRIALS = 6
REDRAW_CHECK_TRIALS = 30

# scaling-los: the pure line-of-sight recipe of scripts/run_scaling_law.py.
SCALING_N = (512, 2048, 8192)
SCALING_TRIALS = 4
SCALING_CHECK_TRIALS = 40
SCALING_K = 21
SCALING_M = 10
SCALING_SIGMA2 = 1.0


def second_seed(seed: int) -> int:
    return seed + SECOND_SEED_OFFSET


def cli_config_path(out_dir: Path, seed: int) -> Path:
    return out_dir / f"sweep-redraw-cli-{seed}.cfg"


def cli_csv_path(out_dir: Path, seed: int) -> Path:
    return out_dir / f"sweep-redraw-cli-{seed}.csv"


def write_inputs(workload: str, out_dir: Path, seed: int) -> None:
    """Write the files a workload reads.

    Only sweep-redraw-cli reads one: the default scenario with the
    geometry redrawn every trial.
    """
    if workload == "sweep-redraw-cli":
        cli_config_path(out_dir, seed).write_text(
            "# default scenario (M=10, K=20, L=2), geometry redrawn every trial\n"
            f"n_sweep = {','.join(str(n) for n in REDRAW_N)}\n"
            f"trials = {REDRAW_TRIALS}\n"
            f"seed = {seed}\n"
            "redraw_geometry_per_trial = true\n",
            encoding="utf-8",
        )
