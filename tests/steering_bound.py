"""The derived bounds on the split steering kernel, its folded line of sight and its projection.

Shared by the tests that compare the steering kernel, ``line_of_sight``
and the projection kernel (``numerics._project``) with complex
references.  Each bound is fixed from the arithmetic, before any error
is read.  With u = eps/2:

* a sine-cosine pair of a rounded phase p is within an ulp in each
  part, at most eps of exp(i p);
* a rounded complex product xy is within sqrt(5) u |x||y| of xy (Brent,
  Percival and Zimmermann, "Error bounds on complex floating-point
  multiplication", 2007), and a real amplitude times a complex value
  within u of it;
* a phase fl(s k) is within u |s| k of s k.

**The kernel's element.**  Element m = 512c + 64d + 8a + b of a row of
slope s is fl(C F), with the coarse factor C = fl(amplitude fl(E_512c
E_64d)) and the fine factor F = fl(E_8a E_b), each E_k the sine-cosine
pair of fl(s k).  Each split level adds one exponential and one rounded
complex product per element; a level a count does not reach is left
out, which only drops terms.  The four phase errors sum to at most u
|s| m, the four pairs add 4 eps, the three complex products 3 sqrt(5) u
and the amplitude u.  The complex chain amplitude*exp(1j*fl(s m)) is
off by u |s| m in its phase, eps in its pair and u in its amplitude.
So the two differ by at most amplitude*eps*(|s| m + 5 + 1.5 sqrt(5) +
1), about eps*(|s| m + 9.4): :func:`steering_bound` allows 12.

**The folded line of sight.**  ``line_of_sight`` multiplies
``array_response``'s factors at the departure slope s_t into the
kernel's factors at the difference slope d = fl(s_k - s_t), coarse into
coarse and fine into fine, and expands: element m is fl(fl(C A_c)
fl(F A_f)), against the chain at the device's slope s_k.  d is within u
|d| of s_k - s_t, a phase error u |d| m; C and F add u |d| m, 4 eps, two
level products 2 sqrt(5) u and the amplitude u; A_c and A_f add u |s_t|
m, 4 eps and two level products 2 sqrt(5) u; the three products that
join them 3 sqrt(5) u; the chain u |s_k| m + eps + u.  In all,
amplitude*eps*(m (2|d| + |s_t| + |s_k|)/2 + 9 + 3.5 sqrt(5) + 1), about
17.8 eps past the phase terms: :func:`folded_bound` allows 20.

**The projection.**  The reference sums line_of_sight[k, m] times the
row conj(A_m) theta_m, A_m = fl(A_c A_f) ``array_response``'s element,
in a (K, n) BLAS matvec.  With P_m = C F, the exact product of the
factors the kernel reads, line_of_sight[k, m] is P_m A_c A_f (1 +
d1)(1 + d2)(1 + d3) and the row's element conj(A_c A_f) theta_m (1 +
d4)(1 + d5), each |d_i| <= sqrt(5) u.  |A_c A_f| is within 4 eps + 2
sqrt(5) u of 1, so each term is within 8 eps + 9 sqrt(5) u, about 18
eps, of P_m theta_m: the bound allows 20 eps.  Each side then sums in
real arithmetic: a part of a complex inner product of j terms is an
inner product of 2j real products, within gamma(2j) (Higham, Accuracy
and Stability of Numerical Algorithms, section 3.1) of the sum of their
moduli, at most sum |x||y|, so the complex sum is within sqrt(2)
gamma(2j) sum |x||y|.  The reference sums n terms: sqrt(2) gamma(2n +
2).  The kernel sums a B-term block product, multiplies it by its
coarse factor (sqrt(5) u <= gamma(3)) and adds at most n/B + 2 block
sums: sqrt(2) gamma(n + 2B + 8) covers the three.  |P_m| <= amplitude
(1 + 8 eps).
"""

import math

import numpy as np

from irs_aircomp.numerics import _STEERING_BLOCK as BLOCK

EPS = np.finfo(float).eps


def gamma(j: int) -> float:
    u = EPS / 2
    return j * u / (1.0 - j * u)


def steering_bound(amplitude, slope, m) -> np.ndarray:
    """Bound on |kernel - complex chain| at elements ``m``, for rows of ``slope`` and
    ``amplitude`` (broadcast against ``m``)."""
    return np.asarray(amplitude) * EPS * (np.abs(slope) * m + 12.0)


def folded_bound(amplitude, device_slope, departure_slope, m) -> np.ndarray:
    """Bound on |line_of_sight - complex chain| at elements ``m``: the kernel at the
    difference slope times ``array_response`` at ``departure_slope``, against the chain
    at ``device_slope``."""
    difference = np.abs(device_slope - departure_slope)
    slopes = 2.0 * difference + abs(departure_slope) + np.abs(device_slope)
    return np.asarray(amplitude) * EPS * (slopes * m / 2.0 + 20.0)


def projection_bound(amplitude, phasors) -> np.ndarray:
    """Per device k, a bound on |projection - line_of_sight[k, :n] @ row| for n = len(phasors).

    ``amplitude`` (K,) holds each device's line-of-sight amplitude,
    ``phasors`` the n phase phasors theta the kernel sums the folded
    factors with, and row = conj(a_N(phi_t)) * theta the reference's.
    """
    n = phasors.shape[-1]
    total = math.fsum(np.abs(phasors).tolist())
    terms = 20.0 * EPS + math.sqrt(2.0) * (
        gamma(2 * n + 2) * (1.0 + 20.0 * EPS) + gamma(n + 2 * BLOCK + 8)
    )
    return np.asarray(amplitude) * (1.0 + 8.0 * EPS) * terms * total
