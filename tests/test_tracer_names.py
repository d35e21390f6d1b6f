"""The benchmark's traced layer names all resolve in the package.

``benchmark/run.py --trace 1`` looks every name of ``benchmark/tracer.py``'s
``TRACED`` up with ``getattr`` and stops on a missing one, so a renamed
or deleted function breaks the benchmark's per-layer trace.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attr", traced_names(), ids=lambda part: part)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"irs_aircomp.{module}")
    if "." in attr:  # a method, which the tracer replaces on its class
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth)), f"{module}.{attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
