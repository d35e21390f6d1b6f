"""Complex-vector primitives, deterministic RNG streams, and special functions."""

from __future__ import annotations

import functools
import itertools
import math
import sys
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
        return _philox_generator(self.seed, self.stream_id)


def _philox_generator(seed: int, stream_id: int) -> np.random.Generator:
    """A fresh Generator at the origin of stream ``stream_id`` of integer ``seed``, unchecked."""
    key, counter = _philox_words(seed, stream_id)
    bits = np.random.Philox(_philox_key()(key), counter=np.array(counter, np.uint64))
    return np.random.Generator(bits)


@functools.cache
def _philox_key() -> type:
    """The seed-sequence type that hands Philox its key words as they are.

    ``Philox(key=...)`` also builds a ``SeedSequence()`` from fresh OS
    entropy, which it then drops: 9 of the 15 us of a generator (2 x86-64
    cores).  Seeded with one of these, Philox reads the key from
    ``generate_state`` and draws no entropy; its state, and so every draw,
    is that of ``Philox(key=key)``, and neither can ``spawn``.  The type
    is made on first use, so that importing the package does not import
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, words: tuple[int, ...]):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return np.array(self.words, dtype)

    return PhiloxKey


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
    gen = _philox_generator(seed, 0)
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
    Anything else raises ``TypeError``.
    """
    if isinstance(stream, np.random.Generator):
        return stream
    if isinstance(stream, RngStream):
        return stream.generator()
    raise TypeError(f"stream must be an RngStream or a numpy Generator, got {stream!r}")


# The one check of each model quantity that both the config classes and
# the public functions take: counts, powers, the reference loss and the
# element spacing.  Each raises ``ValueError`` naming the quantity.  A
# value is finite when it lies within +-_MAX_FLOAT: NaN, the infinities
# and a Python int past the float range are not.
_MAX_FLOAT = sys.float_info.max


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_count(value, name: str) -> None:
    """Reject a count ``name`` that is not an integer in [1, 2**63), naming it.

    A count of 2**63 or more fits no int64, so numpy could not size or
    index an array by it.
    """
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if value >= 2**63:
        raise ValueError(f"{name} must be below 2**63, got {value!r}")


def _require_powers(Pmax: float, sigma2: float) -> None:
    """Reject a Pmax that is not positive and finite, or a bad sigma2 (:func:`_require_sigma2`)."""
    if not 0 < Pmax <= _MAX_FLOAT:
        raise ValueError(f"Pmax must be positive and finite, got {Pmax!r}")
    _require_sigma2(sigma2)


def _require_sigma2(sigma2: float) -> None:
    """Reject a noise power sigma2 that is not non-negative and finite, NaN included."""
    if not 0 <= sigma2 <= _MAX_FLOAT:
        raise ValueError(f"sigma2 must be non-negative and finite, got {sigma2!r}")


def _require_ref_loss(ref_loss_linear: float) -> None:
    """Reject a 1 m reference loss C0 outside (0, 1], NaN included: it attenuates."""
    if not 0.0 < ref_loss_linear <= 1.0:
        raise ValueError("ref_loss_linear must be in (0, 1]")


def array_response(n_elems: int, angle: float, spacing_ratio: float = 0.5) -> np.ndarray:
    """Steering vector of a uniform linear array.

    Entry m (0-indexed) is exp(i*2*pi*spacing_ratio*m*sin(angle)) where
    spacing_ratio is the element spacing in wavelengths.  All entries
    have unit modulus and entry 0 is exactly 1.  It is the one-row case
    of :func:`_steering`: the first ``_STEERING_BLOCK`` entries equal
    the complex chain exp(2j*pi*spacing_ratio*sin(angle)*m) bit for bit,
    and later entries are within the bound stated there.  A non-finite
    angle is rejected, and so is a spacing that :func:`_require_spacing`
    rejects.
    """
    _require_count(n_elems, "n_elems")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    _require_spacing(spacing_ratio, n_elems)
    return _steering(_slope(angle, spacing_ratio), n_elems)


def _require_spacing(spacing_ratio: float, n_elems: int) -> None:
    """Reject a spacing that is not positive, or one (or a count) at which
    4*pi*spacing*n, a bound on every phase, overflows; NaN, the
    infinities and an int past the float range included."""
    if not (abs(spacing_ratio) <= _MAX_FLOAT and n_elems < 1e308
            and math.isfinite(2.0 * _TWO_PI * spacing_ratio * n_elems)):
        raise ValueError(
            f"spacing_ratio must be finite, and 4*pi*spacing*{n_elems} too, got {spacing_ratio!r}"
        )
    if not spacing_ratio > 0:
        raise ValueError(f"spacing_ratio must be positive, got {spacing_ratio!r}")


def _responses(n_elems: int, angles, spacing_ratio: float) -> np.ndarray:
    """:func:`array_response` of each angle, unchecked, one row per angle: (len(angles), n_elems).

    The rows are one :func:`_steering` pass over the angles' slopes, and
    the kernel is elementwise, so each row equals, bit for bit, the
    call with its angle alone.
    """
    return _steering(np.array([[_slope(angle, spacing_ratio)] for angle in angles]), n_elems)


def _slope(angle: float, spacing_ratio: float) -> float:
    """The phase step 2*pi*spacing_ratio*sin(angle) of a steering vector, a Python float."""
    # + 0.0 turns a -0 slope into +0, as the complex chain's imaginary part does
    return _TWO_PI * spacing_ratio * math.sin(angle) + 0.0


# Elements per block of the factorised steering kernel.  At K = 21 a
# block of 64 took 1.16x the time of a block of 32 at N = 512, 0.97x at
# 2048 and 0.83x at 8192 (scripts/bench_layers.py, 2 x86-64 cores), 12 %
# less over the three N of the scaling recipe; it also leaves the default
# sweep's N = 64 and every receive array in a single block.
_STEERING_BLOCK = 64
# Each factor is split once more, B = 8 * 8: exp(i*slope*8a) * exp(i*slope*b).
_SPLIT = 8
_ONES = np.ones(_STEERING_BLOCK, dtype=complex)  # the phasors of the all-zero phases
_ONES.flags.writeable = False
_TWO_PI = 2.0 * math.pi


def _steering(slope, n_elems: int) -> np.ndarray:
    """Steering rows exp(i*slope*m) for m < n_elems, along a new last axis.

    ``slope`` is a float or an array of phase slopes whose last axis
    has length 1, such as a (K, 1) column or a (B, K, 1) stack.  With B =
    ``_STEERING_BLOCK``, element m = hB + l is the product of a coarse
    factor exp(i*slope*hB) and a fine factor exp(i*slope*l), each itself
    a product of two exponentials (:func:`_steering_factors`): about K(24
    + n/512) exponentials and K*n complex products instead of K*n
    exponentials.  Each exponential's phase is one rounded product, so
    element m's phase is off by at most eps/2*|slope|*m, as the direct
    phase fl(slope*m) is, and the two differ by at most eps*|slope|*m;
    the exponentials and the products add a few eps each.  The first
    ``_SPLIT`` elements are the direct exponentials times factors 1 + 0i
    with the slope's sign of zero, which leave them as they are, bit for
    bit the complex chain exp(1j*slope*m); later ones are within
    eps*(|slope|*m + 12) of it (``tests/steering_bound.py`` counts the
    roundings).  The split is fixed, so element m depends on m alone, and
    the first n elements at N are the whole output at n.
    """
    factors = _steering_factors(slope, n_elems)
    # at n <= B the one coarse factor is 1 + 0i, with the slope's sign of
    # zero, and its products leave every fine factor as it is
    return factors.fine if n_elems <= _STEERING_BLOCK else _expand(factors)


class _Factors(typing.NamedTuple):
    """Steering rows of n elements as factors: element hB + l is coarse[..., h] * fine[..., l].

    ``coarse`` (..., ceil(n/B)) holds amplitude*exp(i*slope*hB) and
    ``fine`` (..., min(n, B)) exp(i*slope*l), B = ``_STEERING_BLOCK``.
    """

    coarse: np.ndarray
    fine: np.ndarray
    n: int


@functools.lru_cache(maxsize=64)
def _split_steps(n_elems: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The phase steps of :func:`_steering_factors` at ``n_elems``, and where each level ends.

    Four levels of steps, 1, 8, 64 and 512 apart: the b < min(n, 8), the
    8a < min(n, B) past one level, the hB < n past one block and the
    512c < n past 8 blocks.  A level that no product needs is left out.
    """
    fine, blocks = min(n_elems, _STEERING_BLOCK), -(-n_elems // _STEERING_BLOCK)
    counts = (
        min(fine, _SPLIT),
        -(-fine // _SPLIT) if fine > _SPLIT else 0,
        min(blocks, _SPLIT) if blocks > 1 else 0,
        -(-blocks // _SPLIT) if blocks > _SPLIT else 0,
    )
    steps = np.concatenate([np.arange(c, dtype=float) * _SPLIT**i for i, c in enumerate(counts)])
    steps.flags.writeable = False
    return steps, tuple(itertools.accumulate(counts))


def _pairs(low: np.ndarray, high: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` products high[..., a] * low[..., b], in the order a * len(low) + b."""
    out = (high[..., :, None] * low[..., None, :]).reshape(*low.shape[:-1], -1)
    return out if out.shape[-1] == count else out[..., :count]


def _steering_factors(slope, n_elems: int, amplitude=None) -> _Factors:
    """The factors of :func:`_steering`'s rows, without the K*n products.

    Every exponential is one phase array, one cosine pass and one sine
    pass over the steps of :func:`_split_steps`: 24 per row at n = 512,
    28 at 2048 and 40 at 8192.  Fine factor 8a + b is exp(i*slope*8a) *
    exp(i*slope*b), and past 8 blocks coarse factor 8c + d is
    exp(i*slope*512c) * exp(i*slope*64d).  The products with a step-0
    exponential, 1 + 0i with the slope's sign of zero, leave the other
    factor as it is, so every factor is the same whatever the level
    count: the factors of n elements are prefixes of those of any larger
    count.
    """
    steps, (b, a, d, c) = _split_steps(n_elems)
    phase = slope * steps
    phasors = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=phasors.real)
    np.sin(phase, out=phasors.imag)
    fine_n, blocks = min(n_elems, _STEERING_BLOCK), -(-n_elems // _STEERING_BLOCK)
    fine = phasors[..., :b] if a == b else _pairs(phasors[..., :b], phasors[..., b:a], fine_n)
    # the coarse levels: the 64d steps (in one block, the first fine step, 0) and the 512c
    low = phasors[..., :1] if d == a else phasors[..., a:d]
    high = phasors[..., d:c]
    if amplitude is not None:  # into the smaller level: amplitude * (1 + 0i) is amplitude + 0i
        if c == d:
            low = amplitude * low
        else:
            high = amplitude * high
    coarse = low if c == d else _pairs(low, high, blocks)
    return _Factors(coarse, fine, n_elems)


def _expand(factors: _Factors) -> np.ndarray:
    """The (..., n) steering rows of ``factors``: every coarse factor times every fine one."""
    coarse, fine, n = factors
    out = (coarse[..., None] * fine[..., None, :]).reshape(*fine.shape[:-1], -1)
    return np.ascontiguousarray(out[..., :n])


def _project(factors: _Factors, rows: np.ndarray | None, sizes) -> np.ndarray:
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

    ``rows`` None is the one all-ones row (J = 1) of the all-zero
    phases: then every full block's product is one (K, B) @ (B,) product
    with ones, made once, and the sums are those of a ones row, bit for
    bit.
    """
    coarse, fine, _ = factors
    H = sizes[-1] // _STEERING_BLOCK
    if H and rows is None:  # (..., 1, K, H): the one product times each coarse factor
        per_block = np.matmul(fine, _ONES[:, None])
        weighted = coarse[..., None, :, :H] * per_block[..., None, :, :]
    elif H:
        blocks = rows[..., : H * _STEERING_BLOCK].reshape(*rows.shape[:-1], H, _STEERING_BLOCK, 1)
        per_block = np.matmul(fine[..., None, None, :, :], blocks)[..., 0]  # (..., J, H, K)
        weighted = np.empty(per_block.shape[:-2] + (fine.shape[-2], H), dtype=complex)
        np.multiply(coarse[..., None, :, :H], per_block.swapaxes(-1, -2), out=weighted)
    sums = None
    for p, n in enumerate(sizes):
        h, tail = divmod(n, _STEERING_BLOCK)
        total = np.add.reduce(weighted[..., :h], axis=-1) if h else 0.0  # no blocks: +0, +0j
        if tail:
            last = _ONES[:tail, None] if rows is None else rows[..., h * _STEERING_BLOCK : n, None]
            part = np.matmul(fine[..., None, :, :tail], last)
            total = total + coarse[..., None, :, h] * part[..., 0]
        if sums is None:  # (..., J, P, K), in the shape of the first sum
            sums = np.empty((*total.shape[:-1], len(sizes), total.shape[-1]), dtype=complex)
        sums[..., p, :] = total
    return sums


def _blocked_dot(matrix: np.ndarray, row: np.ndarray) -> np.ndarray:
    """sum_m matrix[k, m] row[m] of a (K, n) matrix and an (n,) row, in blocks of B elements: (K,).

    Each full block is one (B,) @ (B, K) product of the row's block and
    the matrix's columns, the block sums are added in order and the
    partial last block's product is added: the products have one shape
    whatever n, as :func:`_project`'s do.  OpenBLAS runs a
    matrix-vector product of fewer than 9 216 elements on one thread, so
    below K = 144 the sum has the same bits under any BLAS thread count.
    """
    columns = matrix.T  # (n, K); a view of a block's element-major buffer
    n, H = row.shape[-1], row.shape[-1] // _STEERING_BLOCK
    edge = H * _STEERING_BLOCK
    total = 0.0
    if H:
        per_block = np.matmul(
            row[:edge].reshape(H, 1, _STEERING_BLOCK),
            columns[:edge].reshape(H, _STEERING_BLOCK, columns.shape[-1]),
        )
        total = np.add.reduce(per_block[:, 0], axis=0)
    if edge < n:
        total = total + row[edge:] @ columns[edge:]
    return total


# :func:`_fsums` leaves a block to ``math.fsum`` unless its size times
# its largest term, a bound on every sum it forms, stays below this.
_FSUM_LIMIT = float(np.finfo(float).max) / 8
# Blocks of fewer terms than this go to ``math.fsum`` row by row.  The
# whole-array passes cost about 9 us whatever the size and fsum about
# 35 ns a term: alone and warm they break even near 250 terms, at 10 and
# at 21 terms a row, and inside a default 2- to 4-trial ``run_sweep``
# with the benchmark's reference kernel run before each call, between
# 378 and 567 (9 rows of 21 per trial; 2 x86-64 cores, BLAS pinned).
_FSUMS_MIN_TERMS = 512


def _fsums(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a (B, n) array of non-negative terms, bit for bit.

    The sums run in whole-array passes, error-free where it counts.  Let
    S be a row's exact sum, at most n top for the block's largest term
    top, and sigma = 2 n top.  Then high = fl(fl(x + sigma) - sigma)
    keeps the bits of a term x from the spacing of the doubles at sigma
    up, and low = x - high, with |low| <= 2**-52 sigma; both steps are
    exact (Sterbenz, and x close to high).  A row's highs are multiples
    of that spacing and sum to less than sigma, so their sum t is exact
    in any order.  Its lows sum to s within (n - 1)u/(1 - (n - 1)u) n
    2**-52 sigma, u = 2**-53: a quarter of D = n**2 2**-103 sigma, and
    fl(s -+ D) errs by less than another.  So t + fl(s - D) <= S <= t +
    fl(s + D), and as rounding is monotone, where the two ends round to
    the same double so does S: that double is the correctly rounded sum,
    fsum's, ties to even included.  A row whose ends differ goes to
    ``math.fsum``: its sum lies within about n**3 2**-50 top/S ulp of a
    rounding midpoint (2**-37 ulp at n = 21 for a row as large as its
    block's largest term), or on one, an exact tie, as the sum of two
    terms of one binade is half the time.  So does every row of a block
    with a non-finite term or a size times largest term past
    ``_FSUM_LIMIT``: the passes raise no floating-point warning, and an
    overflowing sum raises ``OverflowError`` as fsum does.  A block of
    fewer than ``_FSUMS_MIN_TERMS`` terms, where the passes cost more
    than fsum, goes to fsum row by row.
    """
    if terms.size < _FSUMS_MIN_TERMS:
        return np.array([math.fsum(row) for row in terms.tolist()])
    n = terms.shape[-1]
    top = float(np.maximum.reduce(terms, axis=None, initial=0.0))
    if not top * terms.size < _FSUM_LIMIT:  # also NaN
        return np.array([math.fsum(row) for row in terms.tolist()])
    sigma = 2.0 * n * top
    split = np.empty((2, *terms.shape))
    high = np.add(terms, sigma, out=split[0])
    high -= sigma
    np.subtract(terms, high, out=split[1])
    t, s = np.add.reduce(split, axis=-1)
    bound = n * n * 2.0**-103 * sigma
    ends = np.add.outer((bound, -bound), s)  # (2, B): fl(s + D), fl(s - D)
    ends += t
    sums = ends[0]
    unsure = sums != ends[1]
    if np.count_nonzero(unsure):
        for i in np.flatnonzero(unsure):
            sums[i] = math.fsum(terms[i].tolist())
    return sums


def sinc_normalized(x: float) -> float:
    """Normalized sinc: sin(pi*x)/(pi*x) with the removable singularity at 0."""
    return float(np.sinc(x))
