"""The derived bound on the line-of-sight projection against the expanded line of sight.

Shared by the tests that compare the projection kernel
(``numerics._project``) with ``line_of_sight(geometry, config)[:, :n] @
row[:n]``.  The bound is fixed from the arithmetic, before any error is
read:

* each expanded element is within amplitude*eps*(|slope|*m + 8) of the
  complex chain (the steering kernel's stated bound), which covers the
  rounding of the one complex product coarse*fine that the expanded
  element adds over the factors the kernel reads;
* the expanded side sums n products, with at most n + 2 roundings along
  any path, and the kernel sums the same products grouped by block: a
  B-term sum per block, one product by the coarse factor, a sum over the
  blocks and the partial last block, at most n + B + 8 roundings along
  any path.  With u = eps/2 and gamma(j) = j*u/(1 - j*u), an
  ordinary complex sum of products along j roundings is within
  gamma(j) * sum |terms| (Higham, Accuracy and Stability of Numerical
  Algorithms, sections 3.1 and 3.6), each term at most amplitude*(1 +
  4*eps)*|row[m]|.
"""

import math

import numpy as np

from irs_aircomp.numerics import _STEERING_BLOCK as BLOCK

EPS = np.finfo(float).eps


def gamma(j: int) -> float:
    u = EPS / 2
    return j * u / (1.0 - j * u)


def projection_bound(amplitude, slope, row) -> np.ndarray:
    """Per device k, a bound on |projection - line_of_sight[k, :n] @ row| for n = len(row).

    ``amplitude`` and ``slope`` (K,) are each device's line-of-sight
    amplitude and phase slope, ``row`` the n elements it is summed with.
    """
    n = row.shape[-1]
    weights = np.abs(row)
    total = math.fsum(weights.tolist())
    moment = math.fsum((np.arange(n) * weights).tolist())  # sum of m*|row[m]|
    steering = EPS * (np.abs(slope) * moment + 8.0 * total)
    sums = (gamma(n + 2) + gamma(n + BLOCK + 8)) * (1.0 + 4.0 * EPS) * total
    return np.asarray(amplitude) * (steering + sums) * (1.0 + 4.0 * EPS)
