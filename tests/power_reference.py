"""The row kernel of power control as a plain reference, that the tests hold the package's to.

It is the kernel written with two-dimensional fancy indexing, for the
sorted gathers and the scatter of the powers back, and with one
``math.fsum`` per row for the MSE.  It shares no code with the package.
Both rules take the magnitudes |gamma| (B, K) and give (powers (B, K),
eta (B,), critical number (B,), mse (B,)).
"""

import math

import numpy as np


def reference_power_rows(g, Pmax, sigma2, inversion):
    """Each row of ``g`` under the optimal rule, or with ``inversion`` channel inversion."""
    B, K = g.shape
    g2 = g**2
    if inversion:
        weakest = np.arange(B), g2.argmin(axis=1)
        eta = Pmax * g2[weakest]
        powers = eta[:, None] / g2
        powers[weakest] = Pmax
        return powers, eta, np.ones(B, dtype=np.int64), sigma2 / eta

    rows = np.arange(B)[:, None]
    order = np.argsort(g2, axis=1, kind="stable")
    gs, gs2 = g[rows, order], g2[rows, order]
    amp_sum = np.cumsum(np.sqrt(Pmax) * gs, axis=1)
    power_sum = sigma2 + np.cumsum(Pmax * gs2, axis=1)
    eta_candidates = (power_sum / amp_sum) ** 2
    kt = eta_candidates.argmin(axis=1)  # first minimizer
    eta = eta_candidates[rows[:, 0], kt]
    powers = np.empty_like(g)
    powers[rows, order] = np.where(np.arange(K) <= kt[:, None], Pmax, eta[:, None] / gs2)
    return powers, eta, kt + 1, reference_alignment_mse(g, powers, eta, sigma2)


def reference_alignment_mse(g, powers, eta, sigma2):
    """Per row, math.fsum of (sqrt(p_k) g_k / sqrt(eta) - 1)^2 over k, and sigma2 / eta."""
    misalign = np.sqrt(powers) * g / np.sqrt(eta)[:, None] - 1.0
    return np.array(
        [math.fsum([*row, sigma2 / e]) for row, e in zip((misalign**2).tolist(), eta.tolist())]
    )
