import numpy as np

from vnentropy import RngStream, SparseSymMatrix, householder_qr
from vnentropy.rng import gaussian_vector


def rotated_density(probs, stream: RngStream) -> tuple[SparseSymMatrix, np.ndarray]:
    """Dense density matrix with the given spectrum in a random orthonormal basis."""
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.size
    q = householder_qr(gaussian_vector(stream, n * n).reshape(n, n))
    dense = (q * probs) @ q.T
    dense = (dense + dense.T) / 2.0
    return SparseSymMatrix.from_dense(dense), probs


def diagonal_matrix(diag) -> SparseSymMatrix:
    return SparseSymMatrix.from_dense(np.diag(np.asarray(diag, dtype=np.float64)))
