"""Every layer of ``scripts/bench_layers.py`` runs on this checkout's package.

The script times the package's functions through their own signatures,
so a change to one of them breaks the perf record's tool unless the
script moves with it.  Each layer's callable reads the generator's
current loop variables, so it runs before the next one is made.  The
script's count of code lines, which each side's record carries, is
checked on a sample file and on this checkout.
"""

import importlib.util
from pathlib import Path

import irs_aircomp

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_every_layer_runs_once():
    names = []
    for name, fn in load_script().layers(irs_aircomp, long=False):
        assert fn is not None, f"{name} is missing from the package"
        fn()
        names.append(name)
    assert len(names) == len(set(names)) > 0
    # the whole scaling-recipe trial, where its fixed cost rules and at the largest N
    assert {"scaling trial[K=21,N=16]", "scaling trial[K=21,N=8192]"} <= set(names)
    # the scaling recipe's config file through the engine
    assert "experiments.run_sweep[scaling recipe,INV_PC_IRS,T=64]" in names


SAMPLE = '''"""Module docstring,
two lines."""

import math  # a comment


# a comment line
class Box:
    """One-line class docstring."""

    size = (
        1,

        2,
    )

    def area(self):
        """Function docstring."""
        text = """not a docstring,
        three lines of a string
        """
        return math.pi * self.size[0] ** 2, text
'''


def test_src_code_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "stale.py").write_text("x = 1\n", encoding="utf-8")
    # import, class, size = (, 1, 2, ), def, the three string lines, return
    assert load_script().src_code_lines(tmp_path) == 11


def test_src_code_lines_of_this_checkout():
    # the number the bench records per side: src has comments and docstrings
    src = SCRIPT.parents[1] / "src"
    nonblank = sum(
        1 for f in src.rglob("*.py") for line in f.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    assert 0 < load_script().src_code_lines(src) < nonblank
