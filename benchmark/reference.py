"""Frozen reference measurements that gauge the machine's speed at the moment.

The machine this benchmark was tuned on changes speed by up to 1.7x
within a minute (other tenants share its cores), so raw wall-clock
figures taken a minute apart disagree by 20-30 %.  Every timed interval
is therefore bracketed by two reference measurements, and its time is
scaled to what it would be when the reference takes its nominal time: a
workload that ran while the reference took twice its nominal time is
credited with half its measured time.

Two references, each matched to the work it gauges:

- ``run_kernel`` for rounds inside a process: the simulator's kinds of
  work with numpy alone (Philox Gaussian draws, steering-vector
  exponentials, binary phase projection and a vote by ``np.add.at``,
  small complex products, a Hermitian eigendecomposition, sorting and
  compensated sums);
- ``launch_numpy`` for whole processes: a bare interpreter that imports
  numpy and exits.

Neither imports the simulator, so a change to the simulator cannot move
them.  Do not edit them: figures taken with different references do not
compare.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

# Reference times, in seconds, that define the nominal machine speed.
NOMINAL_S = 0.035
NOMINAL_LAUNCH_S = 0.15


def run_kernel(reps: int = 12) -> float:
    """Run the kernel once; return its wall time in seconds."""
    import numpy as np  # here, so that the launcher itself never loads numpy or BLAS

    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, 0))))
    K, M, N = 20, 10, 256
    nu = gen.uniform(-1.5, 1.5, K)
    m = np.arange(N)
    v = np.exp(1j * np.pi * 0.3 * np.arange(M)) / math.sqrt(M)
    row = np.exp(-1j * np.pi * 0.2 * m)
    acc = 0.0
    for _ in range(reps):
        levels = np.mod(np.pi * np.outer(np.sin(nu), m), 2 * np.pi) / np.pi
        idx = np.floor(levels + 0.5).astype(np.int64) % 2
        counts = np.zeros((2, N), dtype=np.int64)
        for k in range(K):
            np.add.at(counts, (idx[k], m), 1)
        voted = counts.argmax(axis=0)
        for _ in range(5):
            gd = (gen.standard_normal((K, M)) + 1j * gen.standard_normal((K, M))) / math.sqrt(2)
            los = np.exp(2j * np.pi * 0.5 * np.sin(nu)[:, None] * m[None, :])
            gr = (gen.standard_normal((K, N)) + 1j * gen.standard_normal((K, N))) / math.sqrt(2)
            h = 0.9 * los + 0.3 * gr
            gam = gd @ v.conj() + h @ (row * np.exp(1j * np.pi * voted))
            np.linalg.eigh(gd.T @ gd.conj())
            g = np.abs(gam)
            gs = g[np.argsort(g**2, kind="stable")]
            c = (np.cumsum(gs**2) + 1.0) / np.cumsum(gs)
            acc += math.fsum(((gs / c[int(np.argmin(c))]) - 1.0).tolist())
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return time.perf_counter() - start


def launch_numpy(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.monotonic() - start


class SpeedGauge:
    """Brackets timed intervals with a reference measurement.

    Create it just before the first interval and call ``factor`` just
    after each one.
    """

    def __init__(self, measure=run_kernel, nominal: float = NOMINAL_S) -> None:
        self._measure = measure
        self._nominal = nominal
        self._last = measure()

    def factor(self) -> float:
        """Multiplier that scales the interval just ended to the nominal speed."""
        now = self._measure()
        reference = (self._last + now) / 2
        self._last = now
        return self._nominal / reference
