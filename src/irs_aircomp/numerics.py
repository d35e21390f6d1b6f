"""Complex-vector primitives, deterministic RNG streams, and special functions."""

from __future__ import annotations

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
    sequence; distinct stream_ids give statistically independent
    sequences.  Monte Carlo trials each own one stream, so results do
    not depend on scheduling order.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        """Materialize a fresh counter-based (Philox) generator."""
        ss = np.random.SeedSequence((self.seed & _MASK64, self.stream_id))
        return np.random.Generator(np.random.Philox(ss))


def as_generator(stream: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either an RngStream or an already-materialized Generator.

    Passing a Generator lets multi-draw routines share one advancing
    state; passing an RngStream always starts from the stream origin.
    """
    if isinstance(stream, np.random.Generator):
        return stream
    return stream.generator()


def array_response(n_elems: int, angle: float, spacing_ratio: float = 0.5) -> np.ndarray:
    """Steering vector of a uniform linear array.

    Entry m (0-indexed) is exp(i*2*pi*spacing_ratio*m*sin(angle)) where
    spacing_ratio is the element spacing in wavelengths.  All entries
    have unit modulus and entry 0 is exactly 1.
    """
    if n_elems < 1:
        raise ValueError(f"n_elems must be a positive integer, got {n_elems}")
    m = np.arange(n_elems)
    return np.exp(2j * np.pi * spacing_ratio * np.sin(angle) * m)


def sinc_normalized(x: float) -> float:
    """Normalized sinc: sin(pi*x)/(pi*x) with the removable singularity at 0."""
    return float(np.sinc(x))
