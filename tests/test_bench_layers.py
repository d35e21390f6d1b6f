"""Every layer of ``scripts/bench_layers.py`` runs on this checkout's package.

The script times the package's functions through their own signatures,
so a change to one of them breaks the perf record's tool unless the
script moves with it.  Each layer's callable reads the generator's
current loop variables, so it runs before the next one is made.
"""

import importlib.util
from pathlib import Path

import irs_aircomp

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def test_every_layer_runs_once():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    names = []
    for name, fn in bench.layers(irs_aircomp, long=False):
        assert fn is not None, f"{name} is missing from the package"
        fn()
        names.append(name)
    assert len(names) == len(set(names)) > 0
