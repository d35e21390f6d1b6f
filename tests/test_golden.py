"""Byte-for-byte regression against sweep CSVs committed under tests/data/.

The six cases cover both geometry modes, pure line of sight, blocked
direct links, four phase levels and the scaling recipe.  Each file was
last regenerated by a change that moved the streams or the rounding on
purpose; ``CHANGES.md`` records every regeneration, with how far each
file's cells moved and why.

Any change that keeps the random streams must reproduce them exactly; a
change that alters the streams on purpose regenerates the cases it
alters with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

and says so.  Only the named cases are rewritten; each is reported as
``unchanged`` or ``rewritten``.
"""

import sys
from pathlib import Path

import pytest

from irs_aircomp.channel import SystemConfig
from irs_aircomp.experiments import ExperimentConfig, Scheme, run_sweep, write_csv

DATA = Path(__file__).resolve().parent / "data"

IRS_SCHEMES = [Scheme.OPT_PC_IRS, Scheme.INV_PC_IRS, Scheme.FIXED_PHASE_OPT_PC]

# name -> (experiment config, schemes)
CASES = {
    "default_fixed": (
        ExperimentConfig(system=SystemConfig(), n_sweep=(32, 128), trials=25, seed=21),
        list(Scheme),
    ),
    "default_redraw": (
        ExperimentConfig(
            system=SystemConfig(),
            n_sweep=(32, 128),
            trials=25,
            seed=22,
            redraw_geometry_per_trial=True,
        ),
        list(Scheme),
    ),
    "pure_los": (
        ExperimentConfig(
            system=SystemConfig(pure_los=True), n_sweep=(32, 128), trials=25, seed=23
        ),
        list(Scheme),
    ),
    "block_direct_irs_only": (
        ExperimentConfig(
            system=SystemConfig(block_direct=True), n_sweep=(32, 128), trials=25, seed=24
        ),
        IRS_SCHEMES,
    ),
    "levels4": (
        ExperimentConfig(system=SystemConfig(L=4), n_sweep=(32, 128), trials=25, seed=25),
        list(Scheme),
    ),
    # the scaling-law recipe: unit path losses, fresh angles and vote per trial
    "scaling_los": (
        ExperimentConfig(
            system=SystemConfig(
                M=10, K=21, Pmax=1.0, sigma2=1.0, pure_los=True, block_direct=True,
                ref_loss_linear=1.0, pathloss_exponent_reflected=0.0,
                pathloss_exponent_direct=0.0, device_radius=0.0,
            ),
            n_sweep=(2048, 8192),
            trials=8,
            seed=26,
            redraw_geometry_per_trial=True,
        ),
        IRS_SCHEMES,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_byte_identical(name, tmp_path):
    config, schemes = CASES[name]
    path = tmp_path / f"{name}.csv"
    write_csv(run_sweep(config, schemes), path)
    assert path.read_bytes() == (DATA / f"golden_{name}.csv").read_bytes()


def test_every_golden_file_has_a_case():
    orphans = sorted(
        path.name for path in DATA.glob("golden_*.csv")
        if path.stem.removeprefix("golden_") not in CASES
    )
    assert orphans == []


def regenerate(names) -> None:
    """Rewrite the golden files of the named cases, and of no other."""
    if not names or not set(names) <= set(CASES):
        raise SystemExit(f"usage: test_golden.py NAME [NAME ...], NAME in {', '.join(CASES)}")
    DATA.mkdir(exist_ok=True)
    for name in names:
        config, schemes = CASES[name]
        path = DATA / f"golden_{name}.csv"
        before = path.read_bytes() if path.exists() else None
        write_csv(run_sweep(config, schemes), path)
        print(f"{name}: {'unchanged' if path.read_bytes() == before else 'rewritten'}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
