"""The reference phase quantizer and plurality vote that the tests hold the kernels to.

Both are written from their definitions and share no code with the
package's kernels.  The np.mod quantizer takes a phase's remainder
modulo 2*pi and rounds it to the nearest of L levels by circular
distance, a tie going to the smaller phase; the vote counts each level
per element and takes the most votes, a tie going to the smaller level.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def reference_levels(remainder, levels):
    """Levels (floats) of the phases whose np.mod(theta, 2*pi) is ``remainder``; NaN stays NaN."""
    x = remainder * (levels / TWO_PI)
    out = np.floor(x)
    x -= out  # above the lower level, in level steps; a tie on the top level wraps up to 0
    out += (x > 0.5) | ((x == 0.5) & (out == levels - 1))
    out[out == levels] = 0
    return out


def count_vote(indices, levels):
    """Per-element plurality along the device axis of (..., K, N) level indices: one
    bincount over (element, level) keys."""
    columns = np.moveaxis(np.asarray(indices, dtype=np.int64), -2, -1)
    flat = columns.reshape(-1, columns.shape[-1])
    keys = flat + levels * np.arange(len(flat))[:, None]
    counts = np.bincount(keys.ravel(), minlength=levels * len(flat)).reshape(-1, levels)
    return counts.argmax(axis=1).reshape(columns.shape[:-1])
