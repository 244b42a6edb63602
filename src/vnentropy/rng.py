"""Deterministic, splittable random streams.

Every source of randomness in the package (Gaussian probe vectors,
Rademacher start vectors, uniform index draws, sign flips) is drawn from an
:class:`RngStream`, a thin stateful wrapper around a counter-based Philox
bit generator keyed by ``(seed, stream_id)``.  Distinct stream ids give
statistically independent sequences, and identical ``(seed, stream_id)``
pairs reproduce the identical draw sequence on any platform or worker
count.  Streams derived with :meth:`RngStream.child` never share state, so
parallel probes can each own a stream without coordination.

Frozen draw conventions (acceptance seeds depend on these):

* uniform doubles: ``u = ((raw64 >> 11) + 0.5) * 2**-53``, strictly inside
  ``(0, 1)``;
* Gaussians: inverse normal CDF (``scipy.special.ndtri``) of those uniforms;
* Rademacher signs: low bit of a raw 64-bit word;
* bounded integers: modulo rejection on raw 64-bit words (unbiased).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
# words per piece of a draw written into a given array
DRAW_CHUNK = 2**13
# splitmix64 finalizer constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


@dataclass
class RngStream:
    """One reproducible stream of random draws.

    Draw methods consume the stream; two freshly built streams with the
    same ``(seed, stream_id)`` yield identical sequences.  A single
    instance must not be shared across workers, but building one stream
    per worker (via :meth:`child`) is cheap and safe.
    """

    seed: int
    stream_id: int = 0
    _bitgen: np.random.Philox | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError(
                f"stream_id must be a 64-bit unsigned integer, got {self.stream_id}"
            )

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream; pure in (seed, stream_id, index)."""
        if index < 0:
            raise ValueError("child index must be nonnegative")
        derived = _splitmix64((self.stream_id * _GOLDEN + index + 1) & _MASK64)
        return RngStream(self.seed, derived)

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words as a uint64 array."""
        if self._bitgen is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._bitgen = np.random.Philox(key=key)
        return np.atleast_1d(self._bitgen.random_raw(count))


def uniform_doubles(stream: RngStream, n: int) -> np.ndarray:
    """``n`` doubles uniform on the open interval (0, 1)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    raw = stream.raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def gaussian_vector(stream: RngStream, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``n`` i.i.d. standard normal draws via the inverse-CDF transform.

    With ``out``, a float64 array of shape (n,) that may be strided (a
    column of a probe block), the draws are written into it and it is
    returned.  They go ``DRAW_CHUNK`` words at a time through small
    contiguous temporaries; Philox continues one sequence across
    ``random_raw`` calls and the transform is element-wise, so ``out``
    gets the bits of the one-shot draw and the stream ends at the same
    place.
    """
    if out is None:
        return ndtri(uniform_doubles(stream, n))
    if out.shape != (n,) or out.dtype != np.float64:
        raise ValueError(
            f"out must be a float64 array of shape ({n},), got {out.dtype} {out.shape}"
        )
    if n < 1:
        raise ValueError("dimension must be at least 1")
    for start in range(0, n, DRAW_CHUNK):
        part = out[start : start + DRAW_CHUNK]
        ndtri(uniform_doubles(stream, part.size), out=part)
    return out


def rademacher_vector(stream: RngStream, n: int) -> np.ndarray:
    """``n`` i.i.d. uniform signs in {+1.0, -1.0}."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    bits = stream.raw(n) & np.uint64(1)
    return 2.0 * bits.astype(np.float64) - 1.0


def uniform_indices(stream: RngStream, bound: int, count: int) -> np.ndarray:
    """``count`` unbiased draws from {0, ..., bound-1} (modulo rejection)."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    if bound == 1:
        stream.raw(count)  # keep stream position independent of bound
        return np.zeros(count, dtype=np.int64)
    remainder = (1 << 64) % bound
    # raws >= limit would bias the modulus and are rejected (never happens
    # when bound divides 2**64).
    limit = np.uint64(((1 << 64) - remainder) - 1) if remainder else None
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        raw = stream.raw(count - filled)
        accepted = raw if limit is None else raw[raw <= limit]
        take = accepted[: count - filled]
        out[filled : filled + take.size] = (take % np.uint64(bound)).astype(np.int64)
        filled += take.size
    return out

