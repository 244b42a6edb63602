"""Random-projection entropy estimation for low-rank density matrices.

Post-multiplying R by a random projection Pi (n x s) preserves the
nonzero singular values of a rank-k matrix up to relative error, so the
entropy can be read off the top-k singular values of the sketch
R~ = R Pi.  Three projections are provided:

* ``gaussian``: entrywise standard normal, scaled 1/sqrt(s) so that
  E[Pi Pi^T] = I;
* ``srht``: subsampled randomized Hadamard transform
  sqrt(n'/s) * D H S with the dimension zero-padded to the next power of
  two n'; only the s sampled columns of H are formed, entry by entry from
  the bits of their row and column indices;
* ``countsketch``: one random +-1 per input coordinate, applied in
  O(nnz(R)).

``exact_debug`` uses Pi = I (s = n) and reproduces the spectrum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .densmat import SparseSymMatrix
from .linalg import check_oracle_size, entropy_from_probs, thin_singular_values
from .rng import (
    RngStream,
    gaussian_vector,
    rademacher_vector,
    uniform_indices,
)

PROJECTION_KINDS = ("gaussian", "srht", "countsketch", "exact_debug")
SKETCH_CLAMP = 1e-12


@dataclass(frozen=True)
class ProjectionSpec:
    """Which projection to apply, its width s, and the randomness source."""

    kind: str
    s: int
    stream: RngStream

    def __post_init__(self) -> None:
        if self.kind not in PROJECTION_KINDS:
            raise ValueError(f"kind must be one of {PROJECTION_KINDS}, got {self.kind!r}")
        if self.s < 1:
            raise ValueError("s must be at least 1")


@dataclass(frozen=True)
class SketchSpectrum:
    """Approximate probabilities recovered from a sketch plus their entropy."""

    probs_tilde: np.ndarray
    entropy_tilde: float
    kind: str
    s: int


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def apply_gaussian(R: SparseSymMatrix, s: int, stream: RngStream) -> np.ndarray:
    """Sketch R~ = R (G / sqrt(s)) with G entrywise standard normal.

    The 1/sqrt(s) scale makes E[Pi Pi^T] = I, so singular values of the
    sketch track the probabilities directly.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    g = gaussian_vector(stream, R.n * s).reshape(R.n, s)
    return R.matmat(g / math.sqrt(s))


def _hadamard_signs(rows: int, cols: np.ndarray) -> np.ndarray:
    """Entries (-1)^popcount(i & j) of the unnormalised Sylvester-Hadamard
    matrix for i < rows and j in ``cols``, as a (rows, len(cols)) array.

    The parity of popcount(x) is the low bit of x folded onto itself by
    xor-shifts, which needs no numpy 2 ``bitwise_count``.
    """
    x = np.arange(rows, dtype=np.int64)[:, None] & cols[None, :]
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return 1.0 - 2.0 * (x & 1)


def apply_srht(R: SparseSymMatrix, s: int, stream: RngStream) -> np.ndarray:
    """Sketch through Pi = sqrt(n'/s) D H S, padded to n' = next power of two.

    Only the s sampled columns of H, restricted to the first n rows, are
    built: every entry of Pi is then +-1/sqrt(s), and the sketch costs
    O(nnz(R) s + n s) with no dense copy of R.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    n = R.n
    np2 = _next_pow2(n)
    signs = rademacher_vector(stream.child(0), np2)
    sampled = uniform_indices(stream.child(1), np2, s)
    pi = signs[:n, None] * _hadamard_signs(n, sampled)
    return R.matmat(pi) / math.sqrt(s)


def apply_countsketch(R: SparseSymMatrix, s: int, stream: RngStream) -> np.ndarray:
    """Sketch with one random sign per coordinate, in O(nnz(R)).

    Row t of Pi holds a single +-1 in a uniformly chosen column; R Pi
    scatters each stored column of R into one sketch column.  A filled R
    is sketched as (Pi^T R)^T, a sparse product with its block: R is
    exactly symmetric and each entry sums over the same coordinates in
    the same order, so the sketch is bitwise the same.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    cols = uniform_indices(stream.child(0), s, R.n)
    signs = rademacher_vector(stream.child(1), R.n)
    if R.block is not None:
        pi_t = sp.csr_matrix((signs, (cols, np.arange(R.n))), shape=(s, R.n))
        return (pi_t @ R.block).T
    pi = sp.csc_matrix(
        (signs, (np.arange(R.n), cols)), shape=(R.n, s), dtype=np.float64
    )
    return (R.csr @ pi).toarray()


def default_s_sketch(kind: str, n: int, k: int, epsilon: float) -> int:
    """Sketch width for the requested projection, capped at n.

    gaussian / srht: ceil((k + ceil(ln n)) * max(1, ceil(ln k)) / eps^2);
    countsketch:     ceil(k^2 / eps^2).
    Only asymptotic widths are known; the leading constant is taken as 1.
    """
    if kind not in ("gaussian", "srht", "countsketch"):
        raise ValueError(f"no default width for projection kind {kind!r}")
    if k < 1 or n < 1:
        raise ValueError("n and k must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if kind == "countsketch":
        s = math.ceil(k**2 / epsilon**2)
    else:
        s = math.ceil(
            (k + math.ceil(math.log(n))) * max(1, math.ceil(math.log(k))) / epsilon**2
        )
    return min(n, max(1, s))


def sketch_entropy(R: SparseSymMatrix, k: int, spec: ProjectionSpec) -> SketchSpectrum:
    """Approximate the top-k probabilities and entropy from a sketch of R.

    The caller asserts rank(R) <= k; the recovered values are the top-k
    singular values of R Pi with entropy taken over those above the
    clamp.  ``exact_debug`` makes R dense, so it shares the oracle's n limit.
    """
    if not 1 <= k <= R.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={R.n}")
    if spec.kind == "gaussian":
        sketch = apply_gaussian(R, spec.s, spec.stream)
    elif spec.kind == "srht":
        sketch = apply_srht(R, spec.s, spec.stream)
    elif spec.kind == "countsketch":
        sketch = apply_countsketch(R, spec.s, spec.stream)
    else:  # exact_debug: Pi = I_n
        check_oracle_size(R.n)
        sketch = R.to_dense()
    probs = thin_singular_values(sketch, min(k, min(sketch.shape)))
    return SketchSpectrum(
        probs_tilde=probs,
        entropy_tilde=entropy_from_probs(probs, SKETCH_CLAMP),
        kind=spec.kind,
        s=sketch.shape[1],
    )
