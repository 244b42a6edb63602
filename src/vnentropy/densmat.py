"""Density-matrix container, reproducible generators, and Matrix Market I/O.

A density matrix is a symmetric positive semidefinite matrix with unit
trace; its eigenvalues are the probabilities of the underlying pure
states.  A matrix (:class:`SparseSymMatrix`) with every entry stored is
one dense n x n block, multiplied through BLAS in fixed row bands from
n = 2048 up while the BLAS runs one thread; any other is stored in CSR
form.
Generators that know their own spectrum return it, a descending array,
so estimator output can be checked against ground truth; the haar
generator's spectrum comes from the exact oracle.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools  # the kernels behind csr @ x, which has no out=

from . import linalg
from .rng import RngStream, gaussian_vector
from .threads import blas_thread_functions, fan_out

TRACE_TOL = 1e-10

# width of the square tiles in which a filled matrix is symmetrized and
# checked, one tile pair at a time; the bits do not depend on it.  A lowrank
# n = 4096 build on 2 vCPUs took 0.17 s at 96 on the pool and 0.19 s at 64 or
# 128 (medians of 9); at 64 two threads gained nothing over one, waiting on
# each other for the GIL between numpy calls
_TILE = 96
# from TILE_POOL_MIN_N rows up, the tile pairs are dealt round-robin into
# _PAIR_TASKS task lists for fan_out, even shares of the lower triangle for up
# to 8 CPUs; below it the pool cost more than it saved
TILE_POOL_MIN_N = 2048
_PAIR_TASKS = 8
# a filled product of at least BAND_MIN_N rows runs in bands of BAND_ROWS rows
BAND_ROWS = 256
BAND_MIN_N = 2048
# a work buffer of at least this many bytes (one transparent huge page) gets its own mapping
HUGE_PAGE = 2**21


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; message carries the line number."""


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric real matrix, stored in exactly one of two fields.

    * ``block``: a filled matrix, with all n^2 entries stored
      (``block=``, the haar, lowrank and linuniform generators, and
      a Matrix Market file that lists every entry), is one C-ordered
      float64 n x n array, read-only: 8 n^2 bytes and no column indices.
      ``matvec``, ``matmat``, ``matmat_into``, ``shifted`` and
      ``to_dense`` work on it through numpy/BLAS (the products in row
      bands from n = 2048 up while the BLAS runs one thread, on a thread
      pool when called from the main thread);
    * ``csr``: any other matrix is a canonical CSR: both triangles are
      stored explicitly, column indices are sorted within each row and
      none repeats.  It runs on scipy's CSR kernels, even when it stores
      n^2 entries.

    The constructor is the one gate for a matrix from outside the library.
    It stores a copy: a block through :meth:`_adopt`, a CSR made float64
    and canonical, refused unless square, exactly symmetric and finite, its
    upper entries then given their lower mirrors' bits.  Instances are
    immutable and safe for concurrent read-only use.
    """

    csr: sp.csr_matrix | None = None
    block: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.csr is None) == (self.block is None):
            raise ValueError("a matrix stores exactly one of csr and block")
        if self.block is not None:
            a = self._adopt(np.array(self.block, dtype=np.float64, order="C", ndmin=1))
            object.__setattr__(self, "block", a.block)
            return
        csr = sp.csr_matrix(self.csr, dtype=np.float64, copy=True)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {csr.shape}")
        csr.sum_duplicates()
        t = csr.T.tocsr()
        fields = ((csr.indptr, t.indptr), (csr.indices, t.indices), (csr.data, t.data))
        if not all(np.array_equal(x, y) for x, y in fields):  # NaN is unequal to itself
            raise ValueError("matrix is not exactly symmetric")
        if not np.isfinite(csr.data).all():
            raise ValueError("matrix contains non-finite entries")
        upper = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr)) < csr.indices
        np.copyto(csr.data, t.data, where=upper)
        object.__setattr__(self, "csr", csr)

    @classmethod
    def _unchecked(cls, csr=None, block=None) -> "SparseSymMatrix":
        """Hold storage that the library checked or derived itself, past the gate."""
        r = object.__new__(cls)
        r.__dict__.update(csr=csr, block=block)
        return r

    @property
    def n(self) -> int:
        return (self.csr if self.block is None else self.block).shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz if self.block is None else self.block.size)

    @property
    def scipy_csr(self) -> sp.csr_matrix | sp.bsr_matrix:
        """The stored matrix as one scipy matrix, for the benchmark harness
        only: the CSR itself, or a BSR of one n x n block that views the
        block."""
        if self.block is None:
            return self.csr
        return sp.bsr_matrix((self.block[None], [0], [0, 1]), shape=(self.n, self.n))

    @classmethod
    def _adopt(cls, a: np.ndarray, symmetrize: bool = False) -> "SparseSymMatrix":
        """Check a C-ordered float64 array and hold it, uncopied and made
        read-only, as the block of a filled matrix, past the gate.

        One pass over the tile pairs (I, J), J <= I, checks each pair for
        exact symmetry and finiteness while it is in cache; with
        ``symmetrize`` it first writes (a[I,J] + a[J,I].T) / 2 and its
        transpose into the pair, the bits of (a + a.T) / 2 since addition
        commutes.  Without, a pair that passes gets its lower triangle's
        bits in its upper one, where only a zero's sign can change.  So the
        block is bitwise equal to its transpose, and reads back from the
        lower triangle that :func:`write_matrix_market` writes.
        From n = ``TILE_POOL_MIN_N`` up, the pairs run in
        ``_PAIR_TASKS`` task lists through
        :func:`~vnentropy.threads.fan_out`, so on a pool when called from
        the main thread.  Each pair belongs to one task and every operation
        is element-wise, so the bits do not depend on the CPU count.  No
        n x n temporary is made unless a pair fails; then whole-array
        checks name the fault, asymmetry before non-finite entries.
        """
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]

        def clean(pairs) -> bool:
            """Whether every pair of the task is exactly symmetric and finite;
            it symmetrizes every pair even after one fails."""
            ok = True
            for i, j in pairs:
                if symmetrize:
                    lo = (a[i, j] + a[j, i].T) / 2.0
                    a[i, j] = lo
                    a[j, i] = lo.T
                # x - y is exactly 0 just when x == y, both finite
                with np.errstate(invalid="ignore", over="ignore"):
                    ok = ok and not (a[i, j] - a[j, i].T).any()
                if ok and not symmetrize:  # only a zero's sign can differ
                    t = a[i, j]
                    a[j, i] = t.T if i != j else np.where(np.tri(len(t), dtype=bool), t, t.T)
            return ok

        starts = range(0, n, _TILE)
        pairs = [
            (slice(i, i + _TILE), slice(j, j + _TILE)) for i in starts for j in starts if j <= i
        ]
        if n >= TILE_POOL_MIN_N:
            flags = fan_out(clean, [pairs[r::_PAIR_TASKS] for r in range(_PAIR_TASKS)])
        else:
            flags = [clean(pairs)]
        if not all(flags):
            if not np.array_equal(a, a.T):  # NaN is unequal to itself
                raise ValueError("matrix is not exactly symmetric")
            raise ValueError("matrix contains non-finite entries")
        a.flags.writeable = False
        return cls._unchecked(block=a)

    def to_dense(self) -> np.ndarray:
        """The dense matrix; read-only when it is the block of a filled matrix."""
        return self.csr.toarray() if self.block is None else self.block

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product with a vector of shape (n,), O(nnz)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(
                f"dimension mismatch: matrix is {self.n}x{self.n}, vector has shape {x.shape}"
            )
        return self.csr @ x if self.block is None else self.block @ x

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Product with a dense matrix of shape (n, s), O(nnz * s): the
        product of :meth:`matmat_into` in a new array."""
        x = np.asarray(x, dtype=np.float64)
        return self.matmat_into(x, np.empty(x.shape))

    def matmat_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Product with a dense matrix x of shape (n, s), written into the
        float64 array ``out`` of the same shape, which must not overlap x;
        returns the product, ``out`` but in one case below.

        A CSR makes the zero-filled ``csr_matvec`` (one column) or
        ``csr_matvecs`` call of scipy's own ``csr @ x``, which has no
        ``out=``, into ``out``, which must then be C-ordered.

        A filled matrix multiplies through BLAS gemm.  Gemm rounds each
        column the same at any block width, but a one-column product would
        go through gemv, which rounds differently; it is padded to two
        columns instead, and the product is the first column of a new
        n x 2 array, ``out`` left as it is: ``einsum`` sums that strided
        column in another order than a contiguous one.  From n =
        ``BAND_MIN_N`` up, while numpy's bundled OpenBLAS runs one thread
        (as the CLI holds it), the product fills its output in bands of
        ``BAND_ROWS`` rows, the rows left over at the end joining the last
        band; the bands run through :func:`~vnentropy.threads.fan_out`, so
        on a pool when called from the main thread.  The layout depends on
        n only, and each band gets the bits of one unbanded product.
        Smaller bands would reach OpenBLAS's small-matrix kernel at narrow
        widths, which rounds differently, so below ``BAND_MIN_N`` the
        product stays one call; so it does under a BLAS on more threads,
        which already share the CPUs.

        The probe loop reuses its ``out`` arrays, made by
        :func:`work_buffer`, for every product of a block.  Measured on a
        2-vCPU Xeon virtual machine, a tridiagonal n = 65536 product of 16
        columns took 3.2-4.1 ms into a new array or into a reused
        ``np.empty`` one from glibc's heap, and 1.5-2.1 ms into a reused
        private anonymous mapping.  Advised to take transparent huge pages,
        such mappings cut the minor page faults of one Taylor and one
        Chebyshev run (m = 50, s = 64) from about 13100 to 96; of 4 KiB
        pages, they ran as fast but faulted 40976 times.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(f"shape mismatch: matrix is {self.n}x{self.n}, got {x.shape}")
        if out.shape != x.shape or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 array of shape {x.shape}, got {out.dtype} {out.shape}"
            )
        if np.may_share_memory(x, out):
            raise ValueError("out overlaps x")
        if self.block is not None:
            if x.shape[1] == 1:
                pair = np.repeat(x, 2, axis=1)
                return _banded_product(self.block, pair, np.empty(pair.shape))[:, :1]
            return _banded_product(self.block, x, out)
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-ordered for a CSR product")
        csr, (n, s) = self.csr, x.shape
        out.fill(0.0)
        if s == 1:
            _sparsetools.csr_matvec(n, n, csr.indptr, csr.indices, csr.data, x.ravel(), out.ravel())
        else:
            _sparsetools.csr_matvecs(
                n, n, s, csr.indptr, csr.indices, csr.data, x.ravel(), out.ravel()
            )
        return out

    def shifted(self, scale: float, shift: float) -> "SparseSymMatrix":
        """The matrix scale * self + shift * I.

        A filled matrix gives a new block.  A CSR whose every diagonal
        entry is stored gives one that shares its index arrays and owns
        only a new data array; any other CSR gives a one-off CSR sum.
        """
        if self.block is not None:
            a = self.block * scale
            a.reshape(-1)[:: self.n + 1] += shift
            a.flags.writeable = False
            return SparseSymMatrix._unchecked(block=a)
        csr = self.csr
        diag = np.flatnonzero(np.repeat(np.arange(self.n), np.diff(csr.indptr)) == csr.indices)
        if diag.size != self.n:
            a = (scale * csr + shift * sp.identity(self.n, format="csr")).tocsr()
            return SparseSymMatrix._unchecked(a)  # a sum of canonical CSRs is canonical
        data = csr.data * scale
        data[diag] += shift
        return SparseSymMatrix._unchecked(
            sp.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape, copy=False)
        )

    def trace(self) -> float:
        return float((self.csr if self.block is None else self.block).diagonal().sum())

    def validate_density(self) -> None:
        """Check the unit-trace requirement (on demand, not at build time)."""
        t = self.trace()
        if abs(t - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {t!r} is not 1 within {TRACE_TOL}")


def validate_spectrum(probs: np.ndarray) -> None:
    """Refuse a spectrum that is not a probability vector: a negative entry
    or a sum off 1.  The order is not checked (the sidecar reader sorts)."""
    if np.any(probs < 0):
        raise ValueError("probabilities must be nonnegative")
    if not abs(probs.sum() - 1.0) <= TRACE_TOL:  # also refuses NaN
        raise ValueError(f"probabilities sum to {probs.sum():.12g}, not 1")


def _banded_product(view: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """view @ x, written into and returned as ``out``, in row bands from
    n = BAND_MIN_N up while the BLAS runs one thread (see ``matmat_into``)."""
    n = view.shape[0]
    blas = blas_thread_functions()
    # a BLAS on more threads, or one whose count is unknown, already shares the CPUs
    if n < BAND_MIN_N or blas is None or blas[0]() != 1:
        return np.matmul(view, x, out=out)
    edges = [*range(0, n - n % BAND_ROWS, BAND_ROWS), n]

    def band(rows: slice) -> None:
        np.matmul(view[rows], x, out=out[rows])

    fan_out(band, [slice(a, b) for a, b in zip(edges, edges[1:])])
    return out


def work_buffer(shape: tuple[int, ...]) -> np.ndarray:
    """A new uninitialised C-ordered float64 array of ``shape``, for the
    probe loop to reuse (see :meth:`SparseSymMatrix.matmat_into`).  From
    ``HUGE_PAGE`` bytes up it is its own private anonymous mapping, advised
    to use transparent huge pages and unmapped once the array is freed;
    smaller, or where ``mmap`` has no ``MADV_HUGEPAGE``, it is ``np.empty``.
    """
    size = 8 * math.prod(shape)
    if size < HUGE_PAGE or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty(shape)
    mapping = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    with contextlib.suppress(OSError):  # a kernel without huge pages refuses the advice
        mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping, dtype=np.float64).reshape(shape)


# bytes per entry of the n x n matrix that each dense generator's build
# peaks at under tracemalloc, rounded up from its measured peak at n = 1024
# (haar with its oracle 24.00, in its Gaussian draw; linuniform 33.03 and
# lowrank 8.36 n^2; haar reads 24.00 n^2 at 2048, lowrank 8.07 at 4096).
# On top come about 0.2 MB of tile temporaries and one band of the writer
# (under 1 MiB), so the figures bound a whole ``generate`` from n = 512 up
# (traced at n = 1024: 24.05, 33.06 and 8.87 n^2; a haar one at n = 256,
# 512 and 2048: 24.72, 24.13 and 24.01).
DENSE_PEAK = {"haar": 25, "linuniform": 34, "lowrank": 9}


def generate_haar_like_matrix(n: int, stream: RngStream) -> SparseSymMatrix:
    """Random dense density matrix R = G G^T / trace(G G^T), G Gaussian,
    scaled in place and handed over as the block; its spectrum is the
    exact oracle's to compute."""
    if n < 1:
        raise ValueError("n must be at least 1")
    g = gaussian_vector(stream, n * n).reshape(n, n)
    w = g @ g.T
    del g
    w /= np.trace(w)
    return SparseSymMatrix._adopt(w, symmetrize=True)


def poisson_spectrum(n: int) -> np.ndarray:
    """Closed-form descending spectrum of the unit-trace tridiagonal matrix:
    (4 / (2n)) * sin^2(i*pi / (2n+2)) for i = 1..n."""
    i = np.arange(1, n + 1, dtype=np.float64)
    probs = (4.0 / (2.0 * n)) * np.sin(i * np.pi / (2.0 * n + 2.0)) ** 2
    return probs[::-1].copy()


def generate_tridiagonal_poisson(n: int) -> tuple[SparseSymMatrix, np.ndarray]:
    """Second-difference matrix (diag 2, off-diag -1) scaled to unit trace."""
    if n < 2:
        raise ValueError("n must be at least 2")
    scale = 1.0 / (2.0 * n)
    diag = np.full(n, 2.0 * scale)
    off = np.full(n - 1, -1.0 * scale)
    a = sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")
    a.sort_indices()
    return SparseSymMatrix._unchecked(a), poisson_spectrum(n)


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
) -> tuple[SparseSymMatrix, np.ndarray]:
    """Rank-k density matrix with exponentially or linearly decaying spectrum."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    probs = low_rank_probs(k, decay)
    q = linalg.householder_qr(gaussian_vector(stream, n * k).reshape(n, k))
    return SparseSymMatrix._adopt((q * probs) @ q.T, symmetrize=True), probs


def generate_linear_plus_uniform(
    n: int, k: int, stream: RngStream
) -> tuple[SparseSymMatrix, np.ndarray]:
    """Full-rank spectrum: top-k weights k, k-1, ..., 1, then a flat tail of ones."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    weights = np.concatenate(
        [np.arange(k, 0, -1, dtype=np.float64), np.ones(n - k, dtype=np.float64)]
    )
    probs = weights / weights.sum()
    q = linalg.householder_qr(gaussian_vector(stream, n * n).reshape(n, n))
    return SparseSymMatrix._adopt((q * probs) @ q.T, symmetrize=True), probs


# ---------------------------------------------------------------------------
# Matrix Market exchange (coordinate, real, symmetric; lower triangle only)
# ---------------------------------------------------------------------------


# stored entries per band of whole rows that the writer formats at once (a
# longer row is a band by itself); this bounds its text and index temporaries
# to one band's.  A haar n = 1024 generate took the same time with bands of
# 1024, 4096, 16384 and 65536 entries (1.14-1.19 s, medians of 5) and peaked
# at 99.6, 99.8, 102.8 and 113.3 MB RSS
_WRITE_BAND = 4096


def _lower_bands(R: SparseSymMatrix):
    """R's lower-triangle entries in row order, in bands of whole rows of
    about ``_WRITE_BAND`` stored entries: each band's 0-based rows, columns
    and values."""
    n, block, csr = R.n, R.block, R.csr
    # a block is walked as a CSR whose every row stores n entries
    indptr = np.arange(0, n * n + 1, n) if block is not None else csr.indptr
    start = 0
    while start < n:
        end = int(np.searchsorted(indptr, int(indptr[start]) + _WRITE_BAND, side="right")) - 1
        end = max(end, start + 1)
        rows = np.repeat(np.arange(start, end), np.diff(indptr[start : end + 1]))
        if block is not None:
            cols, values = np.tile(np.arange(n), end - start), block[start:end].reshape(-1)
        else:
            entries = slice(indptr[start], indptr[end])
            cols, values = csr.indices[entries], csr.data[entries]
        lower = rows >= cols
        yield rows[lower], cols[lower], values[lower]
        start = end


def _head(n: int, count: int) -> str:
    """The writer's header and size lines."""
    return f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {count}\n"


def write_matrix_market(R: SparseSymMatrix, path) -> None:
    """Serialize the lower triangle with 17 significant digits.

    One pass over the row bands counts the lower-triangle entries for the
    size line; a second formats each band's entries in one ``%`` call, the
    bytes of one ``"{} {} {:.17g}\\n".format`` line per entry.  No
    n^2- or nnz-length temporary is made.

    Any older companion ``<path>.block`` is removed first.  Once the text
    of a filled matrix is complete, the SHA-256 of its bytes and the block
    go into a new companion, which :func:`read_matrix_market` reads in
    place of the text while the text keeps that digest.
    """
    _drop_companion(path)
    count = sum(rows.size for rows, _, _ in _lower_bands(R))
    digest = hashlib.sha256()
    with open(path, "w", encoding="ascii") as fh:

        def put(text: str) -> None:
            fh.write(text)
            digest.update(text.encode("ascii"))

        put(_head(R.n, count))
        for rows, cols, values in _lower_bands(R):
            k = rows.size
            fields = [0] * (3 * k)
            fields[0::3] = (rows + 1).tolist()
            fields[1::3] = (cols + 1).tolist()
            fields[2::3] = values.tolist()
            put(("%d %d %.17g\n" * k) % tuple(fields))
    if R.block is not None:
        _write_companion(path, digest.digest(), R.block)


def remove_matrix_market(path) -> None:
    """Delete the file at ``path`` and its companion, if any."""
    Path(path).unlink()
    _drop_companion(path)


# The companion of a filled matrix's text, <path>.block, holds the SHA-256 of
# the text's bytes, then the block, as two np.save records.  The text stays
# the only authority: the companion is read only while the text has its
# digest, and any fault in it leaves the text to the parse.  The text is
# hashed _HASH_CHUNK bytes at a time.
_HASH_CHUNK = 2**20


def _companion(path) -> Path:
    return Path(str(path) + ".block")


def _drop_companion(path) -> None:
    with contextlib.suppress(OSError):  # one left behind no longer matches its text
        _companion(path).unlink(missing_ok=True)


def _write_companion(path, digest: bytes, block: np.ndarray) -> None:
    """Write the companion of the text at ``path`` to a temporary file, the
    block straight from memory (``np.save`` calls ``tofile`` on a real
    file), and move it into place whole.  An OSError leaves the text
    without one."""
    companion = _companion(path)
    partial = Path(str(companion) + ".tmp")
    with contextlib.suppress(OSError):
        try:
            with open(partial, "wb") as fh:
                np.save(fh, np.frombuffer(digest, dtype=np.uint8))
                np.save(fh, block)
            os.replace(partial, companion)
        finally:
            partial.unlink(missing_ok=True)


def _cached_matrix(path) -> SparseSymMatrix | None:
    """The filled matrix in the companion of the text at ``path``, or None
    when there is none to trust: the text, hashed in ``_HASH_CHUNK``
    pieces, must have the SHA-256 the companion records, and the block
    must be a C-ordered float64 array of the n the text declares, which
    :meth:`SparseSymMatrix._adopt` finds exactly symmetric and finite.
    Any fault of the companion (missing, stale, truncated, malformed,
    pickled, or too large to allocate) gives None."""
    digest = hashlib.sha256()
    try:
        with open(_companion(path), "rb") as cache, open(path, "rb") as text:
            recorded = np.load(cache, allow_pickle=False)
            head = text.read(128)  # holds the writer's two first lines
            digest.update(head)
            for chunk in iter(functools.partial(text.read, _HASH_CHUNK), b""):
                digest.update(chunk)
            if recorded.tobytes() != digest.digest():
                return None
            a = np.load(cache, allow_pickle=False)
        if a.dtype != np.float64 or a.ndim != 2 or not a.flags.c_contiguous:
            return None
        n = a.shape[0]
        if not head.startswith(_head(n, n * (n + 1) // 2).encode("ascii")):
            return None
        return SparseSymMatrix._adopt(a)
    except (OSError, ValueError, EOFError, MemoryError):
        return None


# one data line of a coordinate real file: 1-based row, column, value
_ENTRY = np.dtype([("i", "i8"), ("j", "i8"), ("v", "f8")])


def _fail(path, lineno: int, msg: str) -> NoReturn:
    raise MatrixMarketError(f"{path}:{lineno}: {msg}")


def read_matrix_market(path) -> SparseSymMatrix:
    """Parse a coordinate real Matrix Market file into a symmetric matrix.

    Accepts ``symmetric`` headers (lower triangle mirrored) and ``general``
    headers whose data happens to be exactly symmetric; anything else is a
    :class:`MatrixMarketError` carrying the offending line number.  The
    data lines stream from the open file into one array, whose range,
    finiteness and (for ``symmetric`` files) lower triangle are checked as
    arrays.  A file that lists every entry (n(n+1)/2 of a ``symmetric``
    one, n^2 of a ``general`` one) fills a NaN-filled block, which
    :meth:`SparseSymMatrix._adopt` proves exactly symmetric and finite, so
    free of repeats; any other becomes a CSR, which must keep every entry.
    A ``general`` file's CSR must then pass the :class:`SparseSymMatrix`
    gate; a ``symmetric`` one, checked and mirrored bit for bit already, is
    held past it.  Only a file that fails is read again, line by line, by
    :func:`_locate_fault`.

    A file whose companion ``<path>.block`` (see :func:`write_matrix_market`)
    still matches it is not parsed: its block is read from the companion
    (:func:`_cached_matrix`), with the bits the parse would give.
    """
    cached = _cached_matrix(path)
    if cached is not None:
        return cached
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        if not first:
            _fail(path, 1, "empty file")
        header = first.split()
        if len(header) != 5 or header[0] != "%%MatrixMarket":
            _fail(path, 1, "missing '%%MatrixMarket' header")
        _, obj, fmt, fld, symmetry = (t.lower() for t in header)
        if (obj, fmt, fld) != ("matrix", "coordinate", "real"):
            _fail(path, 1, f"unsupported header '{first.strip()}' (need matrix coordinate real)")
        if symmetry not in ("symmetric", "general"):
            _fail(path, 1, f"unsupported symmetry {symmetry!r}")

        size_line = 1
        line = "%"
        while line.lstrip().startswith("%"):
            line = fh.readline()
            if not line:
                _fail(path, size_line, "missing size line")
            size_line += 1
        parts = line.split()
        if len(parts) != 3 or "_" in line:  # int() would read "1_0" as 10
            _fail(path, size_line, f"malformed size line {line.strip()!r}")
        try:
            nrows, ncols, count = (int(p) for p in parts)
        except ValueError:
            _fail(path, size_line, f"malformed size line {line.strip()!r}")
        if nrows != ncols:
            _fail(path, size_line, f"matrix must be square, got {nrows}x{ncols}")
        if nrows < 1 or count < 0:
            _fail(path, size_line, "invalid dimensions")

        entries = np.zeros(0, dtype=_ENTRY)
        first_entry = next((ln for ln in fh if ln.strip()), None)
        if first_entry is not None:  # loadtxt warns on a body with no data line
            try:
                entries = np.loadtxt(
                    itertools.chain((first_entry,), fh), dtype=_ENTRY, comments=None, ndmin=1
                )
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                _locate_fault(path, size_line, nrows, count, symmetry, str(exc))
    i, j, v = entries["i"] - 1, entries["j"] - 1, entries["v"]
    symmetric = symmetry == "symmetric"
    bad = i.size != count or np.any((i < 0) | (i >= nrows) | (j < 0) | (j >= nrows))
    if bad or not np.all(np.isfinite(v)) or (symmetric and np.any(i < j)):
        _locate_fault(path, size_line, nrows, count, symmetry, "invalid entries")
    try:
        if count == (nrows * (nrows + 1) // 2 if symmetric else nrows * nrows):
            a = np.full((nrows, nrows), np.nan)
            a[i, j] = v
            if symmetric:
                a[j, i] = v
            return SparseSymMatrix._adopt(a)
        if symmetric:
            lower = i != j
            i, j, v = (np.concatenate((a, b[lower])) for a, b in ((i, j), (j, i), (v, v)))
        # the COO-to-CSR conversion sums repeats, leaving nnz short of the count
        csr = sp.csr_matrix((v, (i, j)), shape=(nrows, nrows))
        if csr.nnz != v.size:
            raise ValueError("repeated entries")
        # a symmetric file's entries were checked above and mirrored with their own bits
        return SparseSymMatrix._unchecked(csr) if symmetric else SparseSymMatrix(csr)
    except ValueError as exc:
        _locate_fault(path, size_line, nrows, count, symmetry, str(exc))


def _locate_fault(path, size_line, nrows, count, symmetry, reason) -> NoReturn:
    """Raise the error of a file whose data lines failed a check as arrays.

    Reads the data lines again and applies the checks to each in file
    order: entry count, three fields, integer indices and a float value
    (digit-group underscores, which Python's ``int``/``float`` accept, are
    malformed), index range, finiteness, lower triangle for ``symmetric``
    files, no duplicate; then the total count; then, for ``general``
    files, symmetry at the first offending entry in file order.
    ``reason`` is the error if none of these fire.  The lines stream from
    the file, and entry (i, j) is kept under the one key i * (n + 1) + j.
    """
    entries: dict[int, float] = {}
    width = nrows + 1
    lineno = size_line  # the last line read, once the loop ends
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(itertools.islice(fh, size_line, None), start=size_line + 1):
            if not line.strip():
                continue
            if len(entries) == count:
                _fail(path, lineno, f"more than the declared {count} entries")
            parts = line.split()
            if len(parts) != 3 or "_" in line:
                _fail(path, lineno, f"malformed entry {line.strip()!r}")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                _fail(path, lineno, f"malformed entry {line.strip()!r}")
            if not (1 <= i <= nrows and 1 <= j <= nrows):
                _fail(path, lineno, f"index ({i}, {j}) out of range for n={nrows}")
            if not math.isfinite(v):
                _fail(path, lineno, f"non-finite value {parts[2]!r}")
            if symmetry == "symmetric" and i < j:
                _fail(path, lineno, f"upper-triangle entry ({i}, {j}) in a symmetric file")
            key = i * width + j
            if key in entries:
                _fail(path, lineno, f"duplicate entry ({i}, {j})")
            entries[key] = v
    if len(entries) != count:
        _fail(path, lineno, f"declared {count} entries but found {len(entries)}")
    if symmetry == "general":
        for key, v in entries.items():
            i, j = divmod(key, width)
            if entries.get(j * width + i) != v:
                raise MatrixMarketError(
                    f"{path}: 'general' file is not symmetric at entry ({i}, {j})"
                )
    raise MatrixMarketError(f"{path}: {reason}")
