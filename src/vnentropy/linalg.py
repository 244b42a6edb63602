"""Dense kernels: QR, symmetric eigenvalues, Gram-route singular values,
and entropy from a probability vector.

These back the matrix generators, the exact-entropy oracle, and the
sketch pipeline.  Dense matrices are plain row-major float64 ndarrays.
"""

from __future__ import annotations

import numpy as np

from .densmat import SparseSymMatrix

DEFAULT_ORACLE_LIMIT = 4096
SYMMETRY_TOL = 1e-10
RANK_TOL = 1e-12
ENTROPY_CLAMP = 1e-14


def householder_qr(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of a full-column-rank n x k matrix.

    Raises if a Householder pivot falls below ``1e-12 * ||a||_F`` (rank
    deficiency within tolerance).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < a.shape[1] or a.shape[1] < 1:
        raise ValueError(f"need an n x k matrix with n >= k >= 1, got shape {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    pivots = np.abs(np.diag(r))
    threshold = RANK_TOL * np.linalg.norm(a)
    if np.any(pivots < threshold):
        raise ValueError(
            f"rank-deficient input: pivot {pivots.min():.3e} below {threshold:.3e}"
        )
    return q


def dense_eigvalsh(a: np.ndarray, max_n: int = DEFAULT_ORACLE_LIMIT) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix, ascending.

    Inputs must be symmetric within ``1e-10 * max|A|`` and no larger than
    ``max_n`` (the exact path refuses oversized problems rather than
    silently taking hours).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > max_n:
        raise ValueError(f"matrix size {n} exceeds the oracle limit {max_n}")
    scale = np.max(np.abs(a)) if n else 0.0
    if np.max(np.abs(a - a.T)) > SYMMETRY_TOL * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(a)


def thin_singular_values(b: np.ndarray, top: int) -> np.ndarray:
    """Top singular values of an n x s matrix, descending.

    Computed as square roots of the eigenvalues of the small s x s Gram
    matrix B^T B (negative eigenvalue noise clamped to zero).  The Gram
    route squares the conditioning, which is acceptable here because every
    caller compares squared values anyway.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {b.shape}")
    bound = min(b.shape)
    if top < 0 or top > bound:
        raise ValueError(f"top must lie in [0, {bound}], got {top}")
    if top == 0:
        return np.zeros(0)
    gram = b.T @ b
    gram = (gram + gram.T) / 2.0
    w = dense_eigvalsh(gram, max_n=max(gram.shape[0], DEFAULT_ORACLE_LIMIT))
    # Gram eigenvalues at the eigensolver noise floor would square-root into
    # spurious ~1e-8 singular values; treat them as exact zeros.
    floor = max(b.shape) * np.finfo(np.float64).eps * max(w[-1], 0.0)
    w = np.where(w > floor, w, 0.0)
    sv = np.sqrt(np.clip(w[::-1], 0.0, None))
    return sv[:top]


def entropy_from_probs(probs: np.ndarray, clamp: float) -> float:
    """Shannon-form entropy -sum p*ln(p) with p <= clamp treated as zero.

    Probabilities below ``-clamp`` are rejected; values in ``(0, clamp]``
    contribute nothing, matching the convention 0*ln(0) = 0.
    """
    p = np.asarray(probs, dtype=np.float64)
    if clamp < 0:
        raise ValueError("clamp must be nonnegative")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < -clamp):
        raise ValueError(f"negative probability {p.min()!r} below -{clamp}")
    p = p[p > clamp]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log(p)))


def exact_entropy(
    R: SparseSymMatrix, max_n: int = DEFAULT_ORACLE_LIMIT
) -> tuple[float, np.ndarray]:
    """Exact entropy from the dense eigenvalues, and the spectrum, descending;
    the oracle for all tests.

    Eigenvalues in ``[-1e-10 * n, 0]`` are treated as zero; anything more
    negative means the input is not positive semidefinite.
    """
    if R.n > max_n:
        raise ValueError(f"matrix size {R.n} exceeds the oracle limit {max_n}")
    w = dense_eigvalsh(R.to_dense(), max_n=max_n)
    floor = -1e-10 * R.n
    if w[0] < floor:
        raise ValueError(f"eigenvalue {w[0]!r} below {floor!r}: not positive semidefinite")
    probs = np.clip(w[::-1], 0.0, None)
    return entropy_from_probs(probs, ENTROPY_CLAMP), probs
