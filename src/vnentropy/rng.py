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

A Gaussian draw may be computed in pieces with the same words:
:func:`gaussian_vector` runs a large draw from a fresh stream as
``DRAW_PIECE``-word pieces spread over the CPUs, each from its own Philox
generator advanced to the piece's first word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .threads import fan_out

_MASK64 = (1 << 64) - 1
# words per step of a draw's transform, each through one small temporary
DRAW_CHUNK = 2**13
# words per piece of a one-shot draw that the CPUs share: a multiple of 4,
# the words of one Philox counter, so each piece starts on a counter
DRAW_PIECE = 2**16
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

    def _philox(self, word: int = 0) -> np.random.Philox:
        """A new generator of this stream, standing at ``word``, a multiple of 4."""
        bitgen = np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        bitgen.advance(word // 4)
        return bitgen

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words as a uint64 array."""
        if self._bitgen is None:
            self._bitgen = self._philox()
        return np.atleast_1d(self._bitgen.random_raw(count))


def uniform_doubles(stream: RngStream, n: int) -> np.ndarray:
    """``n`` doubles uniform on the open interval (0, 1)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    raw = stream.raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _fill_gaussian(words, out: np.ndarray) -> None:
    """Write Gaussians into ``out`` from ``words(count)``, the next raw
    words of one sequence, ``DRAW_CHUNK`` at a time: each chunk goes through
    the operations of :func:`uniform_doubles` and ``ndtri``, in their order,
    so with their bits, in place on its contiguous words and their doubles
    until ``ndtri`` writes ``out``."""
    for start in range(0, out.size, DRAW_CHUNK):
        part = out[start : start + DRAW_CHUNK]
        raw = words(part.size)
        np.right_shift(raw, np.uint64(11), out=raw)
        u = raw.astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        ndtri(u, out=part)


def gaussian_vector(stream: RngStream, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``n`` i.i.d. standard normal draws via the inverse-CDF transform.

    With ``out``, a float64 array of shape (n,) that may be strided (a
    column of a probe block), the draws are written into it and it is
    returned; without, into a new array.  The words go through the
    transform ``DRAW_CHUNK`` at a time (see :func:`_fill_gaussian`).

    A draw of at least two ``DRAW_PIECE``-word pieces from a stream that
    has not drawn yet runs piece by piece through
    :func:`~vnentropy.threads.fan_out`, so on a pool when called from the
    main thread.  Each piece has its own generator of the stream, advanced
    to the piece's first word; Philox is counter-based, so the pieces hold
    the words of one serial draw, and the stream is then left standing
    where that draw would leave it.  Any other draw runs serially on the
    stream.  Either way ``out`` gets the bits of the one-shot draw.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if out is None:
        out = np.empty(n)
    elif out.shape != (n,) or out.dtype != np.float64:
        raise ValueError(
            f"out must be a float64 array of shape ({n},), got {out.dtype} {out.shape}"
        )
    if stream._bitgen is not None or n < 2 * DRAW_PIECE:
        _fill_gaussian(stream.raw, out)
        return out

    def piece(start: int) -> None:
        part = out[start : start + DRAW_PIECE]
        _fill_gaussian(stream._philox(start).random_raw, part)

    fan_out(piece, list(range(0, n, DRAW_PIECE)))
    stream._bitgen = stream._philox(n - n % 4)
    stream._bitgen.random_raw(n % 4)
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

