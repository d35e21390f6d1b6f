"""Byte-for-byte regression against sweep CSVs committed under tests/data/.

The six cases cover both geometry modes, pure line of sight, blocked
direct links, four phase levels and the scaling recipe.  The scaling
case reads its system and geometry mode from ``configs/scaling_law.cfg``
and sets only its own element counts, trials and seed, so the golden
file pins the committed recipe as well as the engine.  Each file was
last regenerated by a change that moved the streams or the rounding on
purpose; ``CHANGES.md`` records every regeneration, with how far each
file's cells moved and why.

Any change that keeps the random streams must reproduce them exactly; a
change that alters the streams on purpose regenerates the cases it
alters with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

and says so.  Only the named cases are rewritten; each is reported as
``unchanged`` or ``rewritten``.

``bounds_compare.csv`` pins ``irs-aircomp bounds`` on
``configs/compare.cfg`` the same way; it draws no trials, so only a
change to the closed forms, the geometry stream or the CSV format moves it.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from irs_aircomp.channel import SystemConfig
from irs_aircomp.cli import main
from irs_aircomp.experiments import ExperimentConfig, Scheme, load_config, run_sweep, write_csv

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SCALING_RECIPE = CONFIGS / "scaling_law.cfg"

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
    # the committed scaling-law recipe: unit path losses, fresh angles and vote per trial
    "scaling_los": (
        replace(load_config(SCALING_RECIPE), n_sweep=(2048, 8192), trials=8, seed=26),
        IRS_SCHEMES,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_byte_identical(name, tmp_path):
    config, schemes = CASES[name]
    path = tmp_path / f"{name}.csv"
    write_csv(run_sweep(config, schemes), path)
    assert path.read_bytes() == (DATA / f"golden_{name}.csv").read_bytes()


def test_bounds_csv_byte_identical(tmp_path):
    path = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", str(CONFIGS / "compare.cfg"), "--out", str(path)]) == 0
    assert path.read_bytes() == (DATA / "bounds_compare.csv").read_bytes()


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
