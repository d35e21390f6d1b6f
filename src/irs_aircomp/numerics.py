"""Complex-vector primitives, deterministic RNG streams, and special functions."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "as_generator",
    "array_response",
    "sinc_normalized",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, stream_id).

    The same (seed, stream_id) pair reproduces a bit-identical draw
    sequence; distinct stream_ids give disjoint sequences.  Monte Carlo
    trials each own one stream, so results do not depend on scheduling
    order.  Both parts are integers, Python or numpy (not bool), and
    are stored as Python ints.  The stream is a Philox4x64 generator
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
    2011) keyed by the seed mod 2**64, with stream_id, which must be
    below 2**64, in a counter word above the two that draws advance
    (:func:`_philox_words`): no hash is involved, every pair owns its
    own stream, and stream s would have to draw 2**128 blocks of four
    64-bit outputs to reach stream s + 1.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError(f"stream_id must be in [0, 2**64), got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """Materialize a fresh Philox generator at the origin of this stream."""
        key, counter = _philox_words(self.seed, self.stream_id)
        bits = np.random.Philox(counter=np.array(counter, np.uint64), key=np.array(key, np.uint64))
        return np.random.Generator(bits)


def _philox_words(seed: int, stream_id: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Philox (key, counter) words at the origin of stream ``stream_id`` of ``seed``.

    The key is (seed mod 2**64, 0) and the counter (0, 0, stream_id, 0).
    Philox increments the counter before each block of four outputs,
    carrying from word 0 into word 1, so a stream's draws never touch
    word 2 short of 2**128 blocks, and distinct (key, stream_id) pairs
    never share a block.
    """
    return (seed & _MASK64, 0), (0, 0, stream_id, 0)


def _rewinder(seed: int):
    """``rewind(stream_id)``: one Generator of ``seed``, rewound to the origin of that stream.

    One Philox is built, once; each call sets its state to the stream's
    key and counter with the empty buffers of a fresh one (no buffered
    output, no buffered 32-bit half-word), and returns the one Generator
    on it.  That Generator then draws, bit for bit, as
    ``RngStream(seed, stream_id).generator()`` does, whatever was drawn
    from it before.  A state set took 4.0 us where a fresh generator took
    25.1 (scripts/bench_layers.py, 2 x86-64 cores).  Each call moves
    every Generator it returned before, so a caller draws from one
    stream at a time.
    """
    gen = RngStream(seed).generator()
    bits = gen.bit_generator
    origin = bits.state
    words = origin["state"]["counter"]

    def rewind(stream_id: int) -> np.random.Generator:
        words[:] = _philox_words(seed, stream_id)[1]
        bits.state = origin
        return gen

    return rewind


def as_generator(stream: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either an RngStream or an already-materialized Generator.

    Passing a Generator lets multi-draw routines share one advancing
    state; passing an RngStream always starts from the stream origin.
    """
    if isinstance(stream, np.random.Generator):
        return stream
    return stream.generator()


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_count(value, name: str) -> None:
    """Reject a count ``name`` that is not an integer >= 1, naming it."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def array_response(n_elems: int, angle: float, spacing_ratio: float = 0.5) -> np.ndarray:
    """Steering vector of a uniform linear array.

    Entry m (0-indexed) is exp(i*2*pi*spacing_ratio*m*sin(angle)) where
    spacing_ratio is the element spacing in wavelengths.  All entries
    have unit modulus and entry 0 is exactly 1.  It is the one-row case
    of :func:`_steering`: the first ``_STEERING_BLOCK`` entries equal
    the complex chain exp(2j*pi*spacing_ratio*sin(angle)*m) bit for bit,
    and later entries are within the bound stated there.  A non-finite
    angle or spacing, one whose phases overflow, or a spacing that is
    not positive is rejected.
    """
    _require_count(n_elems, "n_elems")
    if not (math.isfinite(angle) and math.isfinite(spacing_ratio)):
        raise ValueError(
            f"angle and spacing_ratio must be finite, got {angle!r}, {spacing_ratio!r}"
        )
    _require_spacing(spacing_ratio, n_elems)
    return _steering(_slope(angle, spacing_ratio), n_elems)


def _require_spacing(spacing_ratio: float, n_elems: int, error=ValueError) -> None:
    """Reject a spacing that is not positive, or one (or a count) at which
    4*pi*spacing*n, a bound on every phase, overflows."""
    if not (n_elems < 1e308 and math.isfinite(2.0 * _TWO_PI * spacing_ratio * n_elems)):
        raise error(
            f"spacing_ratio must be finite, and 4*pi*spacing*{n_elems} too, got {spacing_ratio!r}"
        )
    if not spacing_ratio > 0:
        raise error(f"spacing_ratio must be positive, got {spacing_ratio!r}")


def _responses(n_elems: int, angles, spacing_ratio: float) -> np.ndarray:
    """:func:`array_response` of each angle, unchecked, one row per angle: (len(angles), n_elems).

    The rows are one :func:`_steering` pass over the angles' slopes, and
    the kernel is elementwise, so each row equals, bit for bit, the
    call with its angle alone.
    """
    slopes = np.array([_slope(angle, spacing_ratio) for angle in angles])
    return _steering(slopes[:, None], n_elems)


def _slope(angle: float, spacing_ratio: float) -> float:
    """The phase step 2*pi*spacing_ratio*sin(angle) of a steering vector, a Python float."""
    # + 0.0 turns a -0 slope into +0, as the complex chain's imaginary part does
    return _TWO_PI * spacing_ratio * math.sin(angle) + 0.0


# Elements per block of the factorised steering kernel.  At K = 21 a
# block of 64 took 1.16x the time of a block of 32 at N = 512, 0.97x at
# 2048 and 0.83x at 8192 (scripts/bench_layers.py, 2 x86-64 cores), 12 %
# less over the three N of the scaling recipe; it also leaves the default
# sweep's N = 64 and every receive array a single exponential per element.
_STEERING_BLOCK = 64
_STEPS = np.arange(_STEERING_BLOCK, dtype=float)
_TWO_PI = 2.0 * math.pi


def _steering(slope, n_elems: int, amplitude=None) -> np.ndarray:
    """Steering rows amplitude * exp(i*slope*m) for m < n_elems, along a new last axis.

    ``slope`` is a float or an array of phase slopes whose last axis
    has length 1, such as a (K, 1) column or a (B, K, 1) stack, and
    ``amplitude``, if given, broadcasts against it.  With B =
    ``_STEERING_BLOCK``, element m = hB + l is the product of a coarse
    factor amplitude*exp(i*slope*hB) and a fine factor exp(i*slope*l)
    (:func:`_steering_factors`): K(n/B + B) exponentials and K*n complex
    products instead of K*n exponentials.  Each factor's phase is one
    rounded product, off by at most eps/2*|slope|*hB and eps/2*|slope|*l,
    so element m's phase is off by at most eps/2*|slope|*m, as the direct
    phase fl(slope*m) is, and the two differ by at most eps*|slope|*m;
    the exponentials and the products add a few eps.  The first B
    elements are the direct exponentials times the coarse factor
    amplitude + 0i (without an amplitude, 1 + 0i with the slope's sign of
    zero, which leaves them as they are), bit for bit the complex chain
    amplitude*exp(1j*slope*m); later ones are within
    amplitude*eps*(|slope|*m + 8) of it.  B is fixed, so element m
    depends on m alone, and the first n elements at N are the whole
    output at n.
    """
    return _expand(_steering_factors(slope, n_elems, amplitude))


class _Factors(typing.NamedTuple):
    """Steering rows of n elements as factors: element hB + l is coarse[..., h] * fine[..., l].

    ``coarse`` (..., ceil(n/B)) holds amplitude*exp(i*slope*hB) and
    ``fine`` (..., min(n, B)) exp(i*slope*l), B = ``_STEERING_BLOCK``.
    """

    coarse: np.ndarray
    fine: np.ndarray
    n: int


def _steering_factors(slope, n_elems: int, amplitude=None) -> _Factors:
    """The factors of :func:`_steering`'s rows, without the K*n products.

    The fine steps l < min(n, B) and the coarse steps hB < n make one
    phase array, one cosine pass and one sine pass.  The factors of n
    elements are prefixes of those of any larger count.
    """
    one_block = n_elems <= _STEERING_BLOCK
    if one_block:  # the one coarse step, 0, is the first fine step
        steps = _STEPS[:n_elems]
    else:
        steps = np.concatenate((_STEPS, np.arange(0.0, n_elems, _STEERING_BLOCK)))
    phase = slope * steps
    phasors = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=phasors.real)
    np.sin(phase, out=phasors.imag)
    coarse = phasors[..., :1].copy() if one_block else phasors[..., _STEERING_BLOCK:]
    if amplitude is not None:
        np.multiply(amplitude, coarse, out=coarse)
    return _Factors(coarse, phasors[..., :_STEERING_BLOCK], n_elems)


def _expand(factors: _Factors) -> np.ndarray:
    """The (..., n) steering rows of ``factors``: every coarse factor times every fine one."""
    coarse, fine, n = factors
    if n <= _STEERING_BLOCK:
        return coarse * fine
    out = (coarse[..., None] * fine[..., None, :]).reshape(*fine.shape[:-1], -1)
    return np.ascontiguousarray(out[..., :n])


def _project(factors: _Factors, rows: np.ndarray, sizes) -> np.ndarray:
    """Sums over m < n of steering row k times row j, at each n of ``sizes``: (..., J, P, K).

    ``factors`` hold K steering rows (..., K) and ``rows`` (..., J, >=
    n) J rows of elements, for ascending element counts ``sizes`` up to
    the factors' n.  The sum at n is sum_h coarse[k, h] S[h] over the
    blocks h < n // B, plus coarse[k, n // B] times the partial last
    block's sum over l < n % B, where S[h] = sum_l fine[k, l] row[hB + l]
    is one (K, B) @ (B,) product per block: no (K, n) array is formed.
    Every block's product is the same BLAS matrix-vector call whatever
    the count of blocks, the stack or ``sizes``, the coarse weights are
    elementwise and each n sums its own prefix of blocks along a
    contiguous last axis, so the sum at n equals, bit for bit, a call
    with that n alone on that geometry's factors and rows.  Against the
    n-term sum of the expanded rows (:func:`_expand`) it differs by
    rounding alone: that side rounds one more product per element and
    sums in another order.
    """
    coarse, fine, _ = factors
    H, width = sizes[-1] // _STEERING_BLOCK, fine.shape[-1]  # width is B wherever H > 0
    blocks = rows[..., : H * width].reshape(*rows.shape[:-1], H, width, 1)
    per_block = np.matmul(fine[..., None, None, :, :], blocks)[..., 0]  # (..., J, H, K)
    weighted = np.empty(per_block.shape[:-2] + (fine.shape[-2], H), dtype=complex)
    np.multiply(coarse[..., None, :, :H], np.swapaxes(per_block, -1, -2), out=weighted)
    sums = []
    for n in sizes:
        h, tail = divmod(n, _STEERING_BLOCK)
        total = weighted[..., :h].sum(axis=-1)
        if tail:
            part = np.matmul(fine[..., None, :, :tail], rows[..., h * _STEERING_BLOCK : n, None])
            total += coarse[..., None, :, h] * part[..., 0]
        sums.append(total)
    return np.stack(sums, axis=-2)


def sinc_normalized(x: float) -> float:
    """Normalized sinc: sin(pi*x)/(pi*x) with the removable singularity at 0."""
    return float(np.sinc(x))
