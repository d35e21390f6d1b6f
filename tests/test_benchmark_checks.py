"""The benchmark's own correctness checks pass on every workload.

``benchmark/worker.py``'s ``run_checks`` runs a workload at its check
size on its seed and on the second seed, then checks the output with
``benchmark/check.py``.  The workloads call the package through its
public names (``SweepResult.rejected_trials``, ``Geometry.spacing_ratio``,
bare ``RngStream`` arguments, the CLI), so a change that breaks one of
those reads fails here, and not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCHMARK))

import inputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 1  # benchmark/run.py's default


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_checks_pass(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    inputs.write_inputs(name, tmp_path, SEED)
    workload = cls(SEED, tmp_path, cls.timed_trials)
    workload.setup()
    totals, failed, passed = worker.run_checks(workload, tmp_path)
    assert failed == []
    assert totals["failed"] == 0 and totals["attempted"] > 0
    assert passed > 0
