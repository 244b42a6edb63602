"""Density-matrix container, reproducible generators, and Matrix Market I/O.

A density matrix is a symmetric positive semidefinite matrix with unit
trace; its eigenvalues are the probabilities of the underlying pure
states.  Matrices are stored in CSR form (:class:`SparseSymMatrix`).
Generators that know their own spectrum attach a :class:`SpectralModel`
so estimator output can be checked against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .rng import RngStream, gaussian_vector

TRACE_TOL = 1e-10


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; message carries the line number."""


@dataclass
class SparseSymMatrix:
    """Symmetric real matrix in CSR form.

    Both triangles are stored explicitly (col_indices sorted within each
    row).  Instances are immutable after construction and safe for
    concurrent read-only use.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def scipy_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.values, self.col_indices, self.row_offsets),
                shape=(self.n, self.n),
            )
        return self._csr

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseSymMatrix":
        """Store a dense symmetric matrix with every entry explicit.

        Keeping explicit zeros preserves a single nnz-proportional code
        path for the dense-fill generator families.
        """
        a = np.ascontiguousarray(dense, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains non-finite entries")
        n = a.shape[0]
        return cls(
            n=n,
            row_offsets=np.arange(0, n * n + 1, n, dtype=np.int64),
            col_indices=np.tile(np.arange(n, dtype=np.int64), n),
            values=a.ravel().copy(),
        )

    def to_dense(self) -> np.ndarray:
        return self.scipy_csr.toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product with a vector of shape (n,), O(nnz)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(
                f"dimension mismatch: matrix is {self.n}x{self.n}, vector has shape {x.shape}"
            )
        return self.scipy_csr @ x

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Product with a dense matrix of shape (n, s), O(nnz * s)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(f"shape mismatch: matrix is {self.n}x{self.n}, got {x.shape}")
        return self.scipy_csr @ x

    def shifted(self, scale: float, shift: float) -> "SparseSymMatrix":
        """The matrix scale * self + shift * I.

        When every diagonal entry is stored, the result shares this
        matrix's index arrays, and those of its CSR form, and owns only a
        new values array; otherwise it is a one-off CSR sum.
        """
        rows = np.repeat(np.arange(self.n), np.diff(self.row_offsets))
        diag = np.flatnonzero(rows == self.col_indices)
        del rows
        if diag.size != self.n:
            a = (scale * self.scipy_csr + shift * sp.identity(self.n, format="csr")).tocsr()
            a.sort_indices()
            return SparseSymMatrix(
                n=self.n,
                row_offsets=a.indptr.astype(np.int64),
                col_indices=a.indices.astype(np.int64),
                values=a.data,
                _csr=a,
            )
        values = self.values * scale
        values[diag] += shift
        csr = self.scipy_csr
        return SparseSymMatrix(
            n=self.n,
            row_offsets=self.row_offsets,
            col_indices=self.col_indices,
            values=values,
            _csr=sp.csr_matrix((values, csr.indices, csr.indptr), shape=csr.shape, copy=False),
        )

    def trace(self) -> float:
        return float(self.scipy_csr.diagonal().sum())

    def validate_density(self) -> None:
        """Check the unit-trace requirement (on demand, not at build time)."""
        t = self.trace()
        if abs(t - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {t!r} is not 1 within {TRACE_TOL}")


@dataclass
class SpectralModel:
    """Ground-truth spectrum attached to a generated matrix.

    ``probs`` is descending (ties broken by original index) and may be
    None when the generator could not afford an exact eigendecomposition.
    """

    probs: np.ndarray | None

    def validate(self) -> None:
        if self.probs is not None:
            p = np.asarray(self.probs)
            if np.any(p < 0):
                raise ValueError("probabilities must be nonnegative")
            if not abs(p.sum() - 1.0) <= TRACE_TOL:  # also refuses NaN
                raise ValueError(f"probabilities sum to {p.sum():.12g}, not 1")
            if np.any(np.diff(p) > 0):
                raise ValueError("probabilities must be sorted descending")

    @property
    def p_min(self) -> float:
        return float(self.probs[-1])


def _sym_from_product(q: np.ndarray, probs: np.ndarray) -> SparseSymMatrix:
    dense = (q * probs) @ q.T
    dense = (dense + dense.T) / 2.0  # make symmetry exact
    return SparseSymMatrix.from_dense(dense)


def generate_haar_like_density(
    n: int, stream: RngStream
) -> tuple[SparseSymMatrix, SpectralModel]:
    """Random dense density matrix R = G G^T / trace(G G^T), G Gaussian.

    The spectrum is recovered by the exact eigendecomposition oracle when
    n is within its default size limit; otherwise the model carries no
    probabilities.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    g = gaussian_vector(stream, n * n).reshape(n, n)
    w = g @ g.T
    w = (w + w.T) / 2.0
    r = SparseSymMatrix.from_dense(w / np.trace(w))
    from . import linalg

    if n <= linalg.DEFAULT_ORACLE_LIMIT:
        _, model = linalg.exact_entropy(r)
    else:
        model = SpectralModel(probs=None)
    return r, model


def poisson_spectrum(n: int) -> np.ndarray:
    """Closed-form descending spectrum of the unit-trace tridiagonal matrix:
    (4 / (2n)) * sin^2(i*pi / (2n+2)) for i = 1..n."""
    i = np.arange(1, n + 1, dtype=np.float64)
    probs = (4.0 / (2.0 * n)) * np.sin(i * np.pi / (2.0 * n + 2.0)) ** 2
    return probs[::-1].copy()


def generate_tridiagonal_poisson(n: int) -> tuple[SparseSymMatrix, SpectralModel]:
    """Second-difference matrix (diag 2, off-diag -1) scaled to unit trace."""
    if n < 2:
        raise ValueError("n must be at least 2")
    scale = 1.0 / (2.0 * n)
    diag = np.full(n, 2.0 * scale)
    off = np.full(n - 1, -1.0 * scale)
    a = sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")
    a.sort_indices()
    r = SparseSymMatrix(
        n=n,
        row_offsets=a.indptr.astype(np.int64),
        col_indices=a.indices.astype(np.int64),
        values=a.data.astype(np.float64),
    )
    return r, SpectralModel(probs=poisson_spectrum(n))


def low_rank_probs(k: int, decay: str) -> np.ndarray:
    if decay == "exponential":
        w = np.exp(-np.arange(1, k + 1, dtype=np.float64))
    elif decay == "linear":
        w = np.arange(k, 0, -1, dtype=np.float64)
    else:
        raise ValueError(f"unknown decay {decay!r} (expected 'exponential' or 'linear')")
    return w / w.sum()


def generate_low_rank_density(
    n: int, k: int, decay: str, stream: RngStream
) -> tuple[SparseSymMatrix, SpectralModel]:
    """Rank-k density matrix with exponentially or linearly decaying spectrum."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    probs = low_rank_probs(k, decay)
    from . import linalg

    q = linalg.householder_qr(gaussian_vector(stream, n * k).reshape(n, k))
    return _sym_from_product(q, probs), SpectralModel(probs=probs)


def generate_linear_plus_uniform(
    n: int, k: int, stream: RngStream
) -> tuple[SparseSymMatrix, SpectralModel]:
    """Full-rank spectrum: top-k weights k, k-1, ..., 1, then a flat tail of ones."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    weights = np.concatenate(
        [np.arange(k, 0, -1, dtype=np.float64), np.ones(n - k, dtype=np.float64)]
    )
    probs = weights / weights.sum()
    from . import linalg

    q = linalg.householder_qr(gaussian_vector(stream, n * n).reshape(n, n))
    return _sym_from_product(q, probs), SpectralModel(probs=probs)


# ---------------------------------------------------------------------------
# Matrix Market exchange (coordinate, real, symmetric; lower triangle only)
# ---------------------------------------------------------------------------


def write_matrix_market(R: SparseSymMatrix, path) -> None:
    """Serialize the lower triangle with 17 significant digits."""
    rows = np.repeat(np.arange(R.n), np.diff(R.row_offsets))
    mask = rows >= R.col_indices
    li, lj, lv = rows[mask], R.col_indices[mask], R.values[mask]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{R.n} {R.n} {li.size}\n")
        for i, j, v in zip(li, lj, lv):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def read_matrix_market(path) -> SparseSymMatrix:
    """Parse a coordinate real Matrix Market file into a symmetric matrix.

    Accepts ``symmetric`` headers (lower triangle mirrored) and ``general``
    headers whose data happens to be exactly symmetric; anything else is a
    :class:`MatrixMarketError` carrying the offending line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()

    def fail(lineno: int, msg: str) -> None:
        raise MatrixMarketError(f"{path}:{lineno}: {msg}")

    if not lines:
        fail(1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        fail(1, "missing '%%MatrixMarket' header")
    _, obj, fmt, fld, symmetry = (t.lower() for t in header)
    if (obj, fmt, fld) != ("matrix", "coordinate", "real"):
        fail(1, f"unsupported header '{lines[0].strip()}' (need matrix coordinate real)")
    if symmetry not in ("symmetric", "general"):
        fail(1, f"unsupported symmetry {symmetry!r}")

    lineno = 1
    while lineno < len(lines) and lines[lineno].lstrip().startswith("%"):
        lineno += 1
    if lineno >= len(lines):
        fail(len(lines), "missing size line")
    size_line = lineno + 1
    parts = lines[lineno].split()
    if len(parts) != 3:
        fail(size_line, f"malformed size line {lines[lineno].strip()!r}")
    try:
        nrows, ncols, count = (int(p) for p in parts)
    except ValueError:
        fail(size_line, f"malformed size line {lines[lineno].strip()!r}")
    if nrows != ncols:
        fail(size_line, f"matrix must be square, got {nrows}x{ncols}")
    if nrows < 1 or count < 0:
        fail(size_line, "invalid dimensions")

    entries: dict[tuple[int, int], float] = {}
    seen = 0
    for offset, line in enumerate(lines[size_line:], start=size_line + 1):
        if not line.strip():
            continue
        seen += 1
        if seen > count:
            fail(offset, f"more than the declared {count} entries")
        parts = line.split()
        if len(parts) != 3:
            fail(offset, f"malformed entry {line.strip()!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            fail(offset, f"malformed entry {line.strip()!r}")
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            fail(offset, f"index ({i}, {j}) out of range for n={nrows}")
        if not np.isfinite(v):
            fail(offset, f"non-finite value {parts[2]!r}")
        if symmetry == "symmetric" and i < j:
            fail(offset, f"upper-triangle entry ({i}, {j}) in a symmetric file")
        if (i - 1, j - 1) in entries:
            fail(offset, f"duplicate entry ({i}, {j})")
        entries[(i - 1, j - 1)] = v
    if seen != count:
        fail(len(lines), f"declared {count} entries but found {seen}")

    if symmetry == "general":
        for (i, j), v in entries.items():
            if entries.get((j, i)) != v:
                raise MatrixMarketError(
                    f"{path}: 'general' file is not symmetric at entry ({i + 1}, {j + 1})"
                )
        full = entries
    else:
        full = dict(entries)
        for (i, j), v in entries.items():
            if i != j:
                full[(j, i)] = v

    n = nrows
    if full:
        ii = np.fromiter((k[0] for k in full), dtype=np.int64, count=len(full))
        jj = np.fromiter((k[1] for k in full), dtype=np.int64, count=len(full))
        vv = np.fromiter(full.values(), dtype=np.float64, count=len(full))
        order = np.lexsort((jj, ii))
        ii, jj, vv = ii[order], jj[order], vv[order]
        row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(row_offsets, ii + 1, 1)
        row_offsets = np.cumsum(row_offsets)
    else:
        ii = jj = np.zeros(0, dtype=np.int64)
        vv = np.zeros(0, dtype=np.float64)
        row_offsets = np.zeros(n + 1, dtype=np.int64)
    return SparseSymMatrix(n=n, row_offsets=row_offsets, col_indices=jj, values=vv)
