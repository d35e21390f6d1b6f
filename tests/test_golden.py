"""Byte-for-byte regression against sweep CSVs committed under tests/data/.

Every earlier engine change (trial-major draws, the batched vote, the
real-arithmetic kernels, the prefix slicing) reproduced the files of the
engine before it exactly.  Five changes altered the streams on purpose,
and two the values computed from them:

- the coordinate-keyed engine (channel streams keyed by (N, trial),
  redraw-mode geometry streams by the trial alone) regenerated all six
  files once; ``golden_scaling_los.csv`` kept its output until the
  steering kernel below;
- the one-block engine (each trial's channel block drawn once, at the
  largest N, from a stream keyed by the trial alone, with element-major
  scattered draws that every N takes as a prefix, and the direct-link
  schemes evaluated once per trial) regenerated the other five:
  ``golden_default_fixed.csv``, ``golden_default_redraw.csv``,
  ``golden_pure_los.csv``, ``golden_block_direct_irs_only.csv`` and
  ``golden_levels4.csv``.  The scaling case is pure line of sight with
  blocked direct links, so it has no scattered draw and its direct
  links are signed zeros, which vanish in every gamma: the new draws
  reproduce it exactly;
- the effective-channel engine (each trial draws, after its direct
  links, two complex normals per device and segment between the sweep's
  element counts, in place of the (K, N) scattered block) regenerated
  the four cases with a scattered part: ``golden_default_fixed.csv``,
  ``golden_default_redraw.csv``, ``golden_block_direct_irs_only.csv``
  and ``golden_levels4.csv``.  Their ``*_NO_IRS`` rows, which read the
  direct links alone, are byte-identical to the files before.  The two
  pure line-of-sight cases draw nothing after the direct links and
  compute each gamma as before, so ``golden_pure_los.csv`` and
  ``golden_scaling_los.csv`` are unchanged;
- the factorised steering kernel (element m = hB + l of the line of
  sight and of the IRS steering row as exp(i s hB) exp(i s l), B = 64)
  keeps the streams and the first 64 elements bit for bit, and moves
  later elements by ulps.  It regenerated all six files.  Only rows at
  N above 64 changed: the N = 128 rows of the five small cases, by at
  most 8.2e-13 relative, and ``golden_scaling_los.csv``, by at most
  2.5e-11.  No ``mean_ktilde`` moved, and the ``*_NO_IRS`` rows are
  byte-identical;
- the scaling recipe's stream layout (trial t's redrawn geometry from
  ``RngStream(seed, 2+2t)``, its channels from ``RngStream(seed, 3+2t)``)
  regenerated all six files; every ``mean_mse`` moved by at most 2.4
  standard errors of the difference;
- the counter-keyed streams (``RngStream(seed, id)`` a Philox keyed by
  the seed mod 2**64, with the id in a counter word in place of a
  ``SeedSequence`` hash of the pair, so that the engine rewinds one
  Philox per run to each trial's streams) keep the layout above but
  change every draw.  They regenerated all six files.  In the two
  cases whose geometry is redrawn per trial, ``default_redraw`` and
  ``scaling_los``, every ``mean_mse`` moved by at most 1.95 standard
  errors of the difference; in the four fixed-geometry cases stream 0
  now draws another geometry, so their means moved by more than the
  within-geometry standard errors (up to 29.5 of them);
- the line-of-sight projection (each gamma's line-of-sight term summed
  from the steering factors, one (K, B) @ (B,) product per block of B =
  64 elements weighted by the block's coarse factor, in place of a
  matvec over the expanded (K, N) line of sight) keeps the streams and
  moves rounding only.  It regenerated all six files.  Only
  ``mean_mse`` and ``stderr_mse`` cells of IRS rows changed, the N = 32
  rows too (below one block the sum is grouped as coarse factor times
  the fine sum).  The largest relative move per file:
  ``default_fixed`` 1.96e-14, ``default_redraw`` 3.42e-15, ``pure_los``
  6.15e-15, ``block_direct_irs_only`` 5.32e-15, ``levels4`` 1.69e-14
  and ``scaling_los`` 5.92e-14.  No ``mean_ktilde`` moved, and the
  ``*_NO_IRS`` rows are byte-identical.

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
