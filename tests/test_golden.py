"""Byte-for-byte regression against sweep CSVs committed under tests/data/.

Each committed file was generated before the change it guards: the
first four by the per-scheme engine that drew every scheme's channel
block separately, ``levels4`` (the only non-binary vote) by the
per-device phase projection and vote.  Any change that keeps the
random streams must reproduce them exactly; a change that alters the
streams on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so.
"""

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_byte_identical(name, tmp_path):
    config, schemes = CASES[name]
    path = tmp_path / f"{name}.csv"
    write_csv(run_sweep(config, schemes), path)
    assert path.read_bytes() == (DATA / f"golden_{name}.csv").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, (config, schemes) in CASES.items():
        write_csv(run_sweep(config, schemes), DATA / f"golden_{name}.csv")
