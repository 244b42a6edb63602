import hashlib
import io
import math
import mmap
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from conftest import diagonal_matrix
from vnentropy import (
    RngStream,
    SparseSymMatrix,
    entropy_from_probs,
    exact_entropy,
    generate_haar_like_matrix,
    generate_linear_plus_uniform,
    generate_low_rank_density,
    generate_tridiagonal_poisson,
    poisson_spectrum,
    read_matrix_market,
    write_matrix_market,
)
from vnentropy import densmat
from vnentropy.densmat import MatrixMarketError, low_rank_probs, validate_spectrum
from vnentropy.linalg import householder_qr
from vnentropy.rng import gaussian_vector
from vnentropy.threads import one_blas_thread


def test_matvec_identity():
    r = diagonal_matrix([1.0, 1.0, 1.0])
    assert np.array_equal(r.matvec(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_matvec_zero_matrix():
    r = SparseSymMatrix(block=np.zeros((4, 4)))
    assert np.array_equal(r.matvec(np.ones(4)), np.zeros(4))


def test_matvec_dimension_mismatch():
    r = diagonal_matrix([0.5, 0.5])
    with pytest.raises(ValueError):
        r.matvec(np.ones(3))


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_matvec_matches_dense_multiply(seed):
    g = gaussian_vector(RngStream(seed), 16 * 16).reshape(16, 16)
    dense = (g + g.T) / 2.0
    r = SparseSymMatrix(block=dense)
    x = gaussian_vector(RngStream(seed, 1), 16)
    expected = dense @ x
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(r.matvec(x) - expected) <= 1e-12 * max(scale, 1e-30)


def test_block_constructor_holds_one_copy_of_the_values():
    # 8 n^2 bytes of values, at the peak too (8.80 n^2 with the tile
    # temporaries); a column index array, or a second copy, adds 4 n^2 or more
    n = 512
    dense = np.eye(n) / n
    tracemalloc.start()
    try:
        r = SparseSymMatrix(block=dense)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * n * n


def test_every_constructor_yields_a_read_only_block_or_canonical_csr(tmp_path):
    # a filled matrix is one n x n block, bitwise equal to its transpose,
    # and no CSR; the CSR kernels need sorted, duplicate-free rows
    g = gaussian_vector(RngStream(2), 36).reshape(6, 6)
    filled = SparseSymMatrix(block=g + g.T)
    tri, _ = generate_tridiagonal_poisson(6)
    sym = tmp_path / "sym.mtx"
    write_matrix_market(tri, sym)
    full_sym = tmp_path / "full-sym.mtx"
    write_matrix_market(filled, full_sym)
    cached = tmp_path / "cached.mtx"
    write_matrix_market(filled, cached)
    densmat._companion(full_sym).unlink()  # parse this one
    general = tmp_path / "general.mtx"
    general.write_text(GEN + "3 3 5\n3 1 0.5\n2 2 1.0\n1 3 0.5\n3 3 0.25\n1 1 2.0\n")
    full_general = tmp_path / "full-general.mtx"
    full_general.write_text(GEN + "2 2 4\n2 1 0.5\n1 1 2.0\n2 2 0.0\n1 2 0.5\n")
    no_diagonal = SparseSymMatrix(
        sp.csr_matrix((np.array([0.5, 0.5]), np.array([1, 0]), np.array([0, 1, 2])), shape=(2, 2))
    )
    # n^2 entries stored by hand stay a CSR
    by_hand = SparseSymMatrix(sp.csr_matrix(g + g.T))
    blocks = {
        "constructor": filled,
        "haar": generate_haar_like_matrix(5, RngStream(1)),
        "lowrank": generate_low_rank_density(5, 2, "linear", RngStream(1))[0],
        "linuniform": generate_linear_plus_uniform(5, 2, RngStream(1))[0],
        "read full symmetric": read_matrix_market(full_sym),
        "read from its companion": read_matrix_market(cached),
        "read full general": read_matrix_market(full_general),
        "shifted filled": filled.shifted(2.0, -1.0),
    }
    for name, r in blocks.items():
        block = r.block
        assert r.csr is None and r.nnz == r.n * r.n, name
        assert block.shape == (r.n, r.n) and block.dtype == np.float64, name
        assert block.flags.c_contiguous and not block.flags.writeable, name
        assert r.to_dense() is block, name
        assert np.array_equal(block.view(np.uint64), block.T.view(np.uint64)), name
    csrs = {
        "tridiagonal": tri,
        "read symmetric": read_matrix_market(sym),
        "read general": read_matrix_market(general),
        "shifted stored diagonal": tri.shifted(2.0, -1.0),
        "shifted without diagonal": no_diagonal.shifted(2.0, -1.0),
        "n^2 entries by hand": by_hand,
    }
    for name, r in csrs.items():
        csr = r.csr
        # a fresh wrapper recomputes the flag instead of trusting a cached one
        fresh = sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)
        assert csr.format == "csr" and fresh.has_canonical_format, name
        assert r.block is None, name


def test_a_matrix_stores_exactly_one_of_csr_and_block():
    tri, _ = generate_tridiagonal_poisson(3)
    with pytest.raises(ValueError, match="exactly one of csr and block"):
        SparseSymMatrix()
    with pytest.raises(ValueError, match="exactly one of csr and block"):
        SparseSymMatrix(csr=tri.csr, block=tri.to_dense())


class Abort(BaseException):
    """Not an Exception, as a KeyboardInterrupt is not."""


@pytest.mark.parametrize("fails", [False, True], ids=["result", "exception"])
def test_once_computes_once_for_eight_concurrent_callers(fails):
    r = diagonal_matrix([0.5, 0.5])
    calls, seen, start = [], [], threading.Barrier(8)

    def compute():
        calls.append(None)
        time.sleep(0.01)  # the other callers arrive while it runs, and wait
        if fails:
            raise Abort()
        return object()

    def call():
        start.wait()
        try:
            seen.append(r.once("key", compute))
        except Abort as exc:
            seen.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race would show
    try:
        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1 and len(seen) == 8
    assert all(x is seen[0] for x in seen)
    assert isinstance(seen[0], Abort) == fails
    if fails:  # a later call raises it again, without computing
        with pytest.raises(Abort) as excinfo:
            r.once("key", compute)
        assert excinfo.value is seen[0] and len(calls) == 1


@pytest.mark.parametrize("family", ["csr", "block"])
def test_once_keeps_one_result_per_key_and_per_instance(family):
    if family == "csr":
        r, again = generate_tridiagonal_poisson(4)[0], generate_tridiagonal_poisson(4)[0]
    else:
        r, again = diagonal_matrix([0.5, 0.5]), diagonal_matrix([0.5, 0.5])
    calls = []

    def compute(tag):
        calls.append(tag)
        return tag

    assert r.once("a", lambda: compute("a")) == "a"
    assert r.once("b", lambda: compute("b")) == "b"
    assert r.once("a", lambda: compute("not run")) == "a"
    # a shifted matrix and an equal new one hold their own results
    assert r.shifted(1.0, 0.0).once("a", lambda: compute("shifted")) == "shifted"
    assert again.once("a", lambda: compute("again")) == "again"
    assert calls == ["a", "b", "shifted", "again"]


def test_adopted_block_is_read_only_and_the_constructor_leaves_its_input_writable():
    g = gaussian_vector(RngStream(3), 25).reshape(5, 5)
    dense = g + g.T
    r = SparseSymMatrix(block=dense)
    assert np.array_equal(r.block, dense) and not np.shares_memory(r.block, dense)
    with pytest.raises(ValueError, match="read-only"):
        r.block[0, 0] = 1.0
    dense[0, 0] = 1.0  # the caller's array stays writable
    assert r.block[0, 0] == g[0, 0] * 2.0


def test_scipy_csr_is_the_csr_or_a_bsr_view_of_the_block():
    # the benchmark harness reads scipy_csr and counts its data, indices
    # and indptr bytes
    tri, _ = generate_tridiagonal_poisson(5)
    assert tri.scipy_csr is tri.csr
    for n in (1, 7):
        r = SparseSymMatrix(block=np.eye(n) / n)
        bsr = r.scipy_csr
        assert bsr.format == "bsr" and bsr.shape == (n, n)
        assert np.shares_memory(bsr.data[0], r.block)
        assert np.array_equal(bsr.toarray(), r.block)
        assert bsr.data.nbytes + bsr.indices.nbytes + bsr.indptr.nbytes == 8 * n * n + 12


def test_filled_matmat_does_not_depend_on_block_width():
    # gemm rounds a column the same at every block width, but a one-column
    # product goes through gemv unless matmat pads it
    n = 1024
    g = gaussian_vector(RngStream(4), n * n).reshape(n, n)
    r = SparseSymMatrix(block=(g + g.T) / 2.0)
    x = gaussian_vector(RngStream(5), n * 129).reshape(n, 129)
    full = r.matmat(x)
    for w in range(1, 130):
        assert np.array_equal(r.matmat(x[:, :w]), full[:, :w]), w


def _filled(n, seed=0):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return SparseSymMatrix(block=(g + g.T) / 2.0)


def _bands(monkeypatch, r, x):
    """r.matmat(x), and the (start, stop) rows of the bands it hands to
    fan_out, or None when it makes one call."""
    seen = []

    def record(fn, tasks):
        seen.extend((t.start, t.stop) for t in tasks)
        return [fn(t) for t in tasks]

    with monkeypatch.context() as m:
        m.setattr(densmat, "fan_out", record)
        return r.matmat(x), seen or None


def test_filled_products_run_in_fixed_bands_from_n_2048(monkeypatch):
    for n, edges in (
        (2047, None),
        (2048, list(range(0, 2049, 256))),
        (2049, [*range(0, 1793, 256), 2049]),  # one row left over joins the last band
        (2303, [*range(0, 1793, 256), 2303]),
        (2304, list(range(0, 2305, 256))),
    ):
        r = _filled(n)
        x = np.random.default_rng(1).standard_normal((n, 3))
        with one_blas_thread():
            out, bands = _bands(monkeypatch, r, x)
            assert np.array_equal(out, r.block @ x), n
        assert bands == (None if edges is None else list(zip(edges, edges[1:]))), n


def test_filled_products_leave_a_multithreaded_or_unknown_blas_one_call(monkeypatch):
    r = _filled(2048)
    x = np.ones((2048, 3))
    functions = densmat.blas_thread_functions()
    if functions is not None:
        get, set_ = functions
        before = get()
        set_(2)
        try:
            assert _bands(monkeypatch, r, x)[1] is None
        finally:
            set_(before)
    monkeypatch.setattr(densmat, "blas_thread_functions", lambda: None)
    assert _bands(monkeypatch, r, x)[1] is None


def test_banded_bits_do_not_depend_on_workers_or_calling_thread(monkeypatch):
    n = 2100
    r = _filled(n)
    x = np.random.default_rng(2).standard_normal((n, 129))
    with one_blas_thread():
        reference = r.block @ x
        for workers in (1, 2, 3):
            monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: workers)
            assert np.array_equal(r.matmat(x), reference), workers
        caller = {}
        worker = threading.Thread(target=lambda: caller.setdefault("out", r.matmat(x)))
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert np.array_equal(caller["out"], reference)


@pytest.mark.parametrize("n", [2048, 2049, 2100])
def test_banded_matmat_does_not_depend_on_block_width(n):
    r = _filled(n, seed=n)
    x = np.random.default_rng(3).standard_normal((n, 129))
    with one_blas_thread():
        full = r.matmat(x)
        for w in (1, 2, 3, 4, 5, 8, 64, 127, 128, 129):
            assert np.array_equal(r.matmat(x[:, :w]), full[:, :w]), w


def _bits(a):
    """The bits of a float64 array, in which -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def _csr_case(kind):
    """A symmetric n=40 CSR with empty rows, or with int64 index arrays, or
    storing -0.0 in a third of its entries."""
    rng = np.random.default_rng(11)
    a = sp.random(40, 40, density=0.15, random_state=rng, format="csr")
    a = (a + a.T).tocsr()
    if kind == "empty-rows":
        keep = np.ones(40)
        keep[[0, 3, 17, 39]] = 0.0
        a = (sp.diags(keep) @ a @ sp.diags(keep)).tocsr()
        a.eliminate_zeros()
    if kind == "negative-zero":
        a.sort_indices()
        lower = np.repeat(np.arange(40), np.diff(a.indptr)) >= a.indices
        a.data[lower & (rng.random(a.nnz) < 1 / 3)] = -0.0
        mirror = a.T.tocsr()
        mirror.sort_indices()
        a.data = np.where(lower, a.data, mirror.data)
    r = SparseSymMatrix(a)
    if kind == "int64-indices":
        r.csr.indices, r.csr.indptr = r.csr.indices.astype(np.int64), r.csr.indptr.astype(np.int64)
    return r


@pytest.mark.parametrize("kind", ["empty-rows", "int64-indices", "negative-zero"])
def test_csr_matmat_into_is_bitwise_scipys_product(kind):
    r = _csr_case(kind)
    assert (np.diff(r.csr.indptr).min() == 0) == (kind == "empty-rows")
    assert r.csr.indices.dtype == (np.int64 if kind == "int64-indices" else np.int32)
    assert ((r.csr.data == 0.0) & np.signbit(r.csr.data)).any() == (kind == "negative-zero")
    for width in (1, 2, 16, 129):
        x = np.random.default_rng(width).standard_normal((40, width))
        x[::7] = -0.0
        expected = r.csr @ x
        out = np.full((40, width), np.nan)  # so a missing zero fill shows
        assert r.matmat_into(x, out) is out
        assert np.array_equal(_bits(out), _bits(expected)), width
        assert np.array_equal(_bits(r.matmat(x)), _bits(expected)), width


@pytest.mark.parametrize("n", [300, 2100])  # below and above BAND_MIN_N
def test_filled_matmat_into_is_bitwise_the_padded_gemm(n):
    r = _filled(n, seed=n)
    with one_blas_thread():
        for width in (1, 2, 16, 129):
            x = np.random.default_rng(width).standard_normal((n, width))
            out = np.full((n, width), np.nan)
            got = r.matmat_into(x, out)
            if width == 1:
                # gemv rounds differently, and einsum sums a contiguous column in
                # another order than the strided first column of the n x 2 product
                expected = (r.block @ np.repeat(x, 2, axis=1))[:, :1]
                assert got.strides == (16, 8) and np.isnan(out).all()
            else:
                expected = r.block @ x
                assert got is out
            assert np.array_equal(_bits(got), _bits(expected)), width
            assert np.array_equal(_bits(r.matmat(x)), _bits(expected)), width


def test_matmat_into_refuses_a_wrong_or_overlapping_out():
    r, x = _csr_case("empty-rows"), np.ones((40, 3))
    for matrix in (r, SparseSymMatrix(block=r.to_dense())):
        with pytest.raises(ValueError, match="out must be a float64 array of shape"):
            matrix.matmat_into(x, np.empty((40, 2)))
        with pytest.raises(ValueError, match="out must be a float64 array of shape"):
            matrix.matmat_into(x, np.empty((40, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="out overlaps x"):
            matrix.matmat_into(x, x)
    with pytest.raises(ValueError, match="C-ordered"):
        r.matmat_into(x, np.empty((40, 6))[:, ::2])


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no MADV_HUGEPAGE here")
def test_work_buffers_from_one_huge_page_up_are_their_own_mappings():
    def mapped(a):
        while isinstance(a, (np.ndarray, memoryview)):
            a = a.base if isinstance(a, np.ndarray) else a.obj
        return isinstance(a, mmap.mmap)

    for shape, own in (((1024, 255), False), ((1024, 256), True), ((65536, 16), True)):
        a = densmat.work_buffer(shape)
        assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
        assert a.flags.writeable and mapped(a) == own, shape
        a[-1, -1] = 1.0


def _plain_refusal(a):
    """The message of the whole-array checks the tiled ones replace."""
    if not np.array_equal(a, a.T):
        return "matrix is not exactly symmetric"
    if not np.all(np.isfinite(a)):
        return "matrix contains non-finite entries"


def _symmetric(n):
    g = gaussian_vector(RngStream(8), n * n).reshape(n, n)
    return (g + g.T) / 2.0


def _bad_matrix(n, fault):
    a = _symmetric(n)
    kind, i, j = fault
    if kind == "asymmetric":
        a[i, j] += 1.0
    elif kind == "lone inf":
        a[i, j] = np.inf
    else:
        a[i, j] = a[j, i] = {"nan": np.nan, "inf": np.inf}[kind]
    return a


@pytest.mark.parametrize(
    "fault",
    [
        ("asymmetric", 10, 3),  # diagonal tile
        ("asymmetric", 3, 10),
        ("asymmetric", 280, 10),  # off-diagonal tile
        ("asymmetric", 10, 280),
        ("asymmetric", 299, 270),  # partial tile in the last tile row
        ("nan", 5, 5),
        ("nan", 290, 20),
        ("inf", 7, 7),
        ("inf", 299, 100),
        ("inf", 299, 280),
        ("lone inf", 120, 299),
        ("asymmetric", 299, 295),  # last, partial diagonal tile
        ("inf", 298, 298),
    ],
)
def test_tiled_checks_refuse_like_the_plain_ones(monkeypatch, fault):
    # n=300 gives a partial last tile row and column; with the pool
    # threshold lifted, its tile pairs run as tasks on 1 and 3 CPUs too
    a = _bad_matrix(300, fault)
    expected = _plain_refusal(a)
    for cpus in (None, 1, 3):
        if cpus is not None:
            monkeypatch.setattr(densmat, "TILE_POOL_MIN_N", 0)
            monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: cpus)
        for build in (lambda a: SparseSymMatrix(block=a), SparseSymMatrix._adopt):
            with pytest.raises(ValueError) as excinfo:
                build(a.copy())
            assert str(excinfo.value) == expected, cpus


@pytest.mark.parametrize(
    "inf_pair, asymmetric_pair",
    [
        ((0, 0), (1, 0)),  # the first and second pairs: tasks 0 and 1
        ((1, 0), (0, 0)),
        ((0, 0), (3, 2)),  # the first and ninth pairs: both task 0, inf first
    ],
)
def test_asymmetry_wins_whichever_task_finds_the_non_finite_entry(
    monkeypatch, inf_pair, asymmetric_pair
):
    # from TILE_POOL_MIN_N up, pair p of the row-major list of tile pairs
    # (I, J), J <= I, falls to task p % 8; a task stops at an asymmetric
    # pair but not at a non-finite one
    n, t = 2100, densmat._TILE
    assert n >= densmat.TILE_POOL_MIN_N
    a = _filled(n).to_dense().copy()
    (i, j), (k, m) = inf_pair, asymmetric_pair
    a[i * t + 7, j * t + 3] = a[j * t + 3, i * t + 7] = np.inf
    a[k * t + 9, m * t + 2] += 1.0
    for cpus in (1, 2, 3):
        monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: cpus)
        with pytest.raises(ValueError, match="^matrix is not exactly symmetric$"):
            SparseSymMatrix(block=a)


def _bits_on_any_cpus(monkeypatch, build):
    """The stored values of build() at 1, 2 and 3 available CPUs, and
    when built on a thread other than the main one."""
    bits = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: cpus)
        bits.append(build().block.tobytes())
    caller = {}
    worker = threading.Thread(target=lambda: caller.setdefault("r", build()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    return bits + [caller["r"].block.tobytes()]


def _first_result(fn):
    """fn, run on the first call only; later calls return that result."""
    results = []

    def first(*args):
        if not results:
            results.append(fn(*args))
        return results[0]

    return first


@pytest.mark.parametrize("n", [100, 300, 2100])
@pytest.mark.parametrize("family", ["lowrank", "linuniform"])
def test_generated_bits_do_not_depend_on_cpus_or_calling_thread(monkeypatch, family, n):
    # every build draws the same matrix, so the draw runs once; the draw
    # itself stands in for its QR, whose bits are not at stake here
    draw, qr = _first_result(gaussian_vector), _first_result(lambda g: g)
    monkeypatch.setattr(densmat, "gaussian_vector", draw)
    monkeypatch.setattr("vnentropy.linalg.householder_qr", qr)
    if family == "lowrank":
        build = lambda: generate_low_rank_density(n, 10, "linear", RngStream(n))
    else:
        build = lambda: generate_linear_plus_uniform(n, 10, RngStream(n))
    probs = build()[1]
    bits = _bits_on_any_cpus(monkeypatch, lambda: build()[0])
    q = qr()
    d = (q * probs) @ q.T
    assert bits == [((d + d.T) / 2.0).tobytes()] * 4


@pytest.mark.parametrize("n", [300, 2100])
def test_block_constructor_bits_do_not_depend_on_cpus_or_calling_thread(monkeypatch, n):
    if n == 300:
        dense = generate_haar_like_matrix(n, RngStream(3)).to_dense()
    else:
        dense = _filled(n).to_dense()
    bits = _bits_on_any_cpus(monkeypatch, lambda: SparseSymMatrix(block=dense))
    assert bits == [dense.tobytes()] * 4


def test_block_constructor_does_not_alias_its_argument():
    dense = _symmetric(300)
    kept = dense.copy()
    r = SparseSymMatrix(block=dense)
    dense[...] = np.nan
    assert np.array_equal(r.to_dense(), kept)
    assert not np.shares_memory(r.block, dense)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 64])
def test_haar_like_density_is_unit_trace_psd(n):
    r = generate_haar_like_matrix(n, RngStream(0))
    assert abs(r.trace() - 1.0) < 1e-10
    r.validate_density()
    w = np.linalg.eigvalsh(r.to_dense())
    assert w.min() >= -1e-10
    _, model = exact_entropy(r)
    assert model.size == n
    validate_spectrum(model)
    assert np.all(np.diff(model) <= 0)


def test_haar_like_density_entropy_near_log_n():
    n = 64
    h, _ = exact_entropy(generate_haar_like_matrix(n, RngStream(7)))
    # dense random mixing: entropy sits an O(1) constant below ln n
    assert math.log(n) - 1.0 < h < math.log(n)


def test_haar_generation_is_deterministic():
    a = generate_haar_like_matrix(16, RngStream(3))
    b = generate_haar_like_matrix(16, RngStream(3))
    assert np.array_equal(a.block, b.block)


@pytest.mark.parametrize("n", [5, 300, 2100])
def test_haar_block_has_the_bits_of_the_symmetrized_scaled_product(monkeypatch, n):
    # the product is scaled in place and then symmetrized in tile pairs (on
    # the pool at n = 2100); the reference symmetrizes a copy, then scales
    monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: 2)
    r = generate_haar_like_matrix(n, RngStream(n))
    g = gaussian_vector(RngStream(n), n * n).reshape(n, n)
    w = g @ g.T
    assert r.block.tobytes() == (((w + w.T) / 2.0) / np.trace(w)).tobytes()


def test_tridiagonal_poisson_small_values():
    r, model = generate_tridiagonal_poisson(8)
    assert abs(model.sum() - 1.0) < 1e-10
    assert abs(model[0] - 0.25 * math.sin(8 * math.pi / 18) ** 2) < 1e-12
    assert abs(model[0] - 0.242462) < 1e-6
    h = entropy_from_probs(model, 1e-14)
    assert abs(h - 1.8204) < 1e-4


def test_tridiagonal_spectrum_matches_eigensolver():
    for n in (8, 32):
        r, model = generate_tridiagonal_poisson(n)
        csr = r.csr
        assert abs(csr - csr.T).max() == 0
        assert csr.has_sorted_indices
        w = np.linalg.eigvalsh(r.to_dense())
        assert np.max(np.abs(w[::-1] - model)) < 1e-8
        assert np.max(np.abs(np.sort(poisson_spectrum(n)) - w)) < 1e-12


def test_tridiagonal_rejects_tiny_n():
    with pytest.raises(ValueError):
        generate_tridiagonal_poisson(1)


def test_low_rank_linear_probs():
    assert np.allclose(low_rank_probs(4, "linear"), [0.4, 0.3, 0.2, 0.1], atol=1e-15)


def test_low_rank_exponential_probs():
    expected = np.exp(-np.arange(1, 4.0))
    expected /= expected.sum()
    got = low_rank_probs(3, "exponential")
    assert np.allclose(got, expected, atol=1e-15)
    assert np.allclose(got, [0.66524, 0.24473, 0.09003], atol=5e-6)


def test_low_rank_density_has_rank_k():
    r, model = generate_low_rank_density(32, 4, "linear", RngStream(1))
    w = np.linalg.eigvalsh(r.to_dense())
    assert np.all(w[:-4] < 1e-10)
    assert abs(r.trace() - 1.0) < 1e-10
    validate_spectrum(model)
    assert np.all(np.diff(model) <= 0)


def test_low_rank_rejects_bad_k():
    with pytest.raises(ValueError):
        generate_low_rank_density(4, 5, "linear", RngStream(0))
    with pytest.raises(ValueError):
        generate_low_rank_density(4, 0, "linear", RngStream(0))
    with pytest.raises(ValueError):
        generate_low_rank_density(4, 2, "cubic", RngStream(0))


def test_linear_plus_uniform_probs():
    _, model = generate_linear_plus_uniform(6, 2, RngStream(0))
    assert np.allclose(model, np.array([2, 1, 1, 1, 1, 1]) / 7.0, atol=1e-15)


def test_linear_plus_uniform_full_k_matches_low_rank():
    _, a = generate_linear_plus_uniform(5, 5, RngStream(0))
    assert np.allclose(a, low_rank_probs(5, "linear"), atol=1e-15)


def test_linear_plus_uniform_full_rank():
    r, model = generate_linear_plus_uniform(12, 3, RngStream(2))
    assert model[-1] > 0
    w = np.linalg.eigvalsh(r.to_dense())
    assert w.min() > 0.5 * model[-1]


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 700])
@pytest.mark.parametrize("family", ["linear", "exponential", "linuniform"])
def test_generated_matrix_has_the_bits_of_the_symmetrized_copy(family, n):
    # the in-place tile-pair symmetrization against (d + d.T) / 2 of the
    # same product, stored through the constructor
    k = min(n, 3)
    if family == "linuniform":
        r, probs = generate_linear_plus_uniform(n, k, RngStream(n))
        q = householder_qr(gaussian_vector(RngStream(n), n * n).reshape(n, n))
    else:
        r, probs = generate_low_rank_density(n, k, family, RngStream(n))
        q = householder_qr(gaussian_vector(RngStream(n), n * k).reshape(n, k))
    d = (q * probs) @ q.T
    expected = SparseSymMatrix(block=(d + d.T) / 2.0).block
    assert r.block.dtype == expected.dtype and r.block.tobytes() == expected.tobytes()


def test_low_rank_generation_holds_one_dense_array():
    # the product's 8 n^2 bytes become the block (8.36 n^2 at the peak); a
    # symmetrized copy or a copy into the block adds 8 n^2
    n = 1024
    tracemalloc.start()
    try:
        generate_low_rank_density(n, 10, "linear", RngStream(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * n * n


@pytest.mark.parametrize("family", sorted(densmat.DENSE_PEAK))
def test_dense_generators_peak_within_their_recorded_bound(family):
    # generate refuses a build whose DENSE_PEAK figure exceeds the machine's
    # memory; the figure must cover the build, for haar with the oracle that
    # writes its sidecar, at sizes where that matters (haar read 32.21 n^2
    # when it copied its product twice and the oracle copied the block)
    n = 1024
    build = {
        "haar": lambda: exact_entropy(generate_haar_like_matrix(n, RngStream(1))),
        "linuniform": lambda: generate_linear_plus_uniform(n, 10, RngStream(1)),
        "lowrank": lambda: generate_low_rank_density(n, 10, "exponential", RngStream(1)),
    }[family]
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= densmat.DENSE_PEAK[family] * n * n


# ---------------------------------------------------------------------------
# Matrix Market persistence
# ---------------------------------------------------------------------------


def test_round_trip_preserves_everything(tmp_path):
    for build in (
        lambda: generate_tridiagonal_poisson(9)[0],
        lambda: generate_low_rank_density(12, 3, "exponential", RngStream(5))[0],
    ):
        r = build()
        path = tmp_path / "m.mtx"
        write_matrix_market(r, path)
        densmat._companion(path).unlink(missing_ok=True)
        back = read_matrix_market(path)
        assert back.n == r.n
        if r.block is not None:
            assert np.array_equal(back.block, r.block)
            continue
        assert np.array_equal(back.csr.indptr, r.csr.indptr)
        assert np.array_equal(back.csr.indices, r.csr.indices)
        assert np.array_equal(back.csr.data, r.csr.data)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**31, 2**48 + 5])
def test_round_trip_random_dense(seed, tmp_path):
    g = gaussian_vector(RngStream(seed), 36).reshape(6, 6)
    r = SparseSymMatrix(block=(g + g.T) / 2)
    path = tmp_path / "m.mtx"
    write_matrix_market(r, path)
    densmat._companion(path).unlink()
    assert np.array_equal(read_matrix_market(path).block, r.block)


def test_round_trip_of_a_filled_matrix_gives_the_same_block(tmp_path):
    r = generate_haar_like_matrix(300, RngStream(4))
    path = tmp_path / "m.mtx"
    write_matrix_market(r, path)
    densmat._companion(path).unlink()
    back = read_matrix_market(path)
    assert back.block.tobytes() == r.block.tobytes()


def test_reading_a_full_symmetric_file_fills_one_block(tmp_path):
    # the file's n(n+1)/2 entries are scattered into the block, which
    # _adopt checks: 12 n^2 of parsed entries, 8 of indices and 8 of block
    n = 1024
    r = generate_haar_like_matrix(n, RngStream(1))
    path = tmp_path / "haar.mtx"
    write_matrix_market(r, path)
    densmat._companion(path).unlink()
    tracemalloc.start()
    try:
        back = read_matrix_market(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.block, r.block)
    assert peak <= 29 * n * n


def test_reading_a_full_general_file_fills_one_block(tmp_path):
    d = _symmetric(7)
    order = np.random.default_rng(1).permutation(49)
    lines = [f"{k // 7 + 1} {k % 7 + 1} {d.flat[k]:.17g}\n" for k in order]
    path = tmp_path / "m.mtx"
    path.write_text(GEN + "7 7 49\n" + "".join(lines))
    r = read_matrix_market(path)
    assert r.block.tobytes() == d.tobytes()


@pytest.mark.parametrize("missing", [(4, 1), (3, 3)], ids=["off-diagonal", "diagonal"])
def test_a_symmetric_file_missing_one_entry_reads_as_csr(tmp_path, missing):
    n = 6
    d = _symmetric(n)
    kept = [(i, j) for i in range(n) for j in range(i + 1) if (i, j) != missing]
    lines = [f"{i + 1} {j + 1} {d[i, j]:.17g}\n" for i, j in kept]
    path = tmp_path / "m.mtx"
    path.write_text(SYM + f"{n} {n} {len(kept)}\n" + "".join(lines))
    rows, cols = zip(*{(a, b) for i, j in kept for a, b in ((i, j), (j, i))})
    expected = sp.csr_matrix((d[rows, cols], (rows, cols)), shape=(n, n))
    r = read_matrix_market(path)
    assert r.block is None
    for name in ("data", "indices", "indptr"):
        a, b = getattr(r.csr, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_one_based_indices_map_to_zero_based(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.5\n2 1 -1.0\n"
    )
    r = read_matrix_market(path)
    assert np.allclose(r.to_dense(), [[2.5, -1.0], [-1.0, 0.0]])


def test_general_symmetric_data_is_accepted(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 1.0\n1 2 0.5\n2 1 0.5\n"
    )
    r = read_matrix_market(path)
    assert np.allclose(r.to_dense(), [[1.0, 0.5], [0.5, 0.0]])


def test_general_asymmetric_data_is_rejected(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 1.0\n1 2 0.5\n2 1 0.25\n"
    )
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


SYM = "%%MatrixMarket matrix coordinate real symmetric\n"
GEN = "%%MatrixMarket matrix coordinate real general\n"


# (file content, line number or None, full message after "<path>:<line>: ")
@pytest.mark.parametrize(
    "content, line, message",
    [
        ("%%MatrixMarket matrix array real general\n1 1 1\n1 1 1.0\n", 1,
         "unsupported header '%%MatrixMarket matrix array real general'"
         " (need matrix coordinate real)"),
        (SYM + "2 2 1\n3 1 1.0\n", 3, "index (3, 1) out of range for n=2"),
        (SYM + "2 2 1\n1 2 1.0\n", 3, "upper-triangle entry (1, 2) in a symmetric file"),
        (SYM + "2 2 2\n1 1 1.0\n1 1 2.0\n", 4, "duplicate entry (1, 1)"),
        (SYM + "2 2 2\n1 1 1.0\n", 3, "declared 2 entries but found 1"),
        (SYM + "2 3 1\n1 1 1.0\n", 2, "matrix must be square, got 2x3"),
        (SYM + "2 2 1\n1 1 oops\n", 3, "malformed entry '1 1 oops'"),
        # header, comments and size line
        ("", 1, "empty file"),
        ("%%MatrixMarket matrix coordinate real\n2 2 0\n", 1,
         "missing '%%MatrixMarket' header"),
        ("%%MatrixMarket matrix coordinate real hermitian\n2 2 0\n", 1,
         "unsupported symmetry 'hermitian'"),
        (SYM + "% only\n  % comments\n", 3, "missing size line"),
        (SYM + "2 2\n", 2, "malformed size line '2 2'"),
        (SYM + "2 2 x\n", 2, "malformed size line '2 2 x'"),
        (SYM + "1_0 1_0 1\n1 1 1.0\n", 2, "malformed size line '1_0 1_0 1'"),
        (SYM + "0 0 0\n", 2, "invalid dimensions"),
        (SYM + "2 2 -1\n", 2, "invalid dimensions"),
        (SYM + "% a\n  % b\n2 2 1\n2 2 inf\n", 5, "non-finite value 'inf'"),
        # blank and whitespace-only lines count as lines, not as entries
        (SYM + "2 2 2\n1 1 1.0\n\n  \t \n3 1 1.0\n", 6, "index (3, 1) out of range for n=2"),
        (SYM + "2 2 3\n1 1 1.0\n2 2 1.0\n\n\n", 6, "declared 3 entries but found 2"),
        (SYM + "2 2 1\n\n", 3, "declared 1 entries but found 0"),
        # CRLF endings, tabs, a '%' line among the data
        (SYM.replace("\n", "\r\n") + "2 2 2\r\n1 1 1.0\r\n2 2 x\r\n", 4,
         "malformed entry '2 2 x'"),
        (SYM + "2 2 2\n1\t1\t1.0\n2\t1\n", 4, "malformed entry '2\\t1'"),
        (SYM + "2 2 2\n1 1 1.0\n% note\n2 2 1.0\n", 4, "malformed entry '% note'"),
        (SYM + "2 2 2\n1 1 1.0\n% a b\n", 4, "malformed entry '% a b'"),
        (SYM + "2 2 1\n1 1 1.0 2\n", 3, "malformed entry '1 1 1.0 2'"),
        (SYM + "2 2 1\n1.0 1 1.0\n", 3, "malformed entry '1.0 1 1.0'"),
        # entry count
        (SYM + "2 2 1\n1 1 1.0\n2 2 1.0\n", 4, "more than the declared 1 entries"),
        (SYM + "2 2 0\n1 1 1.0\n", 3, "more than the declared 0 entries"),
        (SYM + "2 2 1\n1 1 1.0\n2 2 x\n", 4, "more than the declared 1 entries"),
        (SYM + "2 2 3\n1 1 1.0\n2 2 1.0\n", 4, "declared 3 entries but found 2"),
        (GEN + "2 2 3\n2 1 0.5\n", 3, "declared 3 entries but found 1"),
        # duplicates
        (GEN + "2 2 3\n1 2 0.5\n2 1 0.5\n1 2 0.5\n", 5, "duplicate entry (1, 2)"),
        (GEN + "2 2 3\n1 2 0.5\n1 2 0.25\n2 1 0.5\n", 4, "duplicate entry (1, 2)"),
        # a file that lists as many entries as a full one, with a repeat
        (SYM + "2 2 3\n1 1 1.0\n2 1 0.5\n2 1 0.5\n", 5, "duplicate entry (2, 1)"),
        (GEN + "2 2 4\n1 1 1.0\n1 2 0.5\n2 1 0.5\n1 2 0.5\n", 6, "duplicate entry (1, 2)"),
        # indices
        (SYM + "2 2 1\n0 1 1.0\n", 3, "index (0, 1) out of range for n=2"),
        (SYM + "2 2 1\n-1 1 1.0\n", 3, "index (-1, 1) out of range for n=2"),
        (GEN + "2 2 1\n1 3 1.0\n", 3, "index (1, 3) out of range for n=2"),
        (SYM + "2 2 1\n99999999999999999999 1 1.0\n", 3,
         "index (99999999999999999999, 1) out of range for n=2"),
        (SYM + "2 2 1\n1 -99999999999999999999 1.0\n", 3,
         "index (1, -99999999999999999999) out of range for n=2"),
        # values
        (SYM + "2 2 1\n1 1 nan\n", 3, "non-finite value 'nan'"),
        (SYM + "2 2 1\n1 1 -inf\n", 3, "non-finite value '-inf'"),
        (SYM + "2 2 1\n1 1 1e400\n", 3, "non-finite value '1e400'"),
        # the first failing check in file order wins
        (SYM + "2 2 2\n3 1 1.0\n1 1 x\n", 3, "index (3, 1) out of range for n=2"),
        (SYM + "2 2 2\n1 1 x\n3 1 1.0\n", 3, "malformed entry '1 1 x'"),
        (SYM + "2 2 2\n3 1 nan\n", 3, "index (3, 1) out of range for n=2"),
        (SYM + "2 2 2\n1 2 nan\n", 3, "non-finite value 'nan'"),
        (SYM + "2 2 2\n1 1 1.0\n1 1 2.0\n1 2 1.0\n", 4, "duplicate entry (1, 1)"),
        (GEN + "2 2 2\n2 1 0.5\n2 1 0.5\n", 4, "duplicate entry (2, 1)"),
        # 'general' symmetry: the first offending entry in file order
        (GEN + "2 2 2\n1 1 1.0\n2 1 0.5\n", None,
         "'general' file is not symmetric at entry (2, 1)"),
        (GEN + "3 3 4\n2 1 0.25\n3 1 0.5\n1 2 0.5\n1 3 0.75\n", None,
         "'general' file is not symmetric at entry (2, 1)"),
        (GEN + "3 3 5\n3 3 1.0\n3 1 0.5\n1 3 0.75\n2 1 0.25\n1 2 0.5\n", None,
         "'general' file is not symmetric at entry (3, 1)"),
        # an explicit zero whose mirror is absent: equal values, unequal structure
        (GEN + "3 3 3\n1 1 1.0\n2 1 0.0\n3 3 1.0\n", None,
         "'general' file is not symmetric at entry (2, 1)"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, content, line, message):
    path = tmp_path / "bad.mtx"
    path.write_bytes(content.encode("ascii"))
    with pytest.raises(MatrixMarketError) as excinfo:
        read_matrix_market(path)
    where = path if line is None else f"{path}:{line}"
    assert str(excinfo.value) == f"{where}: {message}"


def test_a_repeat_in_a_full_file_on_the_tile_pool_is_located(tmp_path, monkeypatch):
    # with the pool threshold lifted, _adopt finds the NaN hole the repeat
    # leaves on its pool; n=300 gives a partial last tile row and column
    monkeypatch.setattr(densmat, "TILE_POOL_MIN_N", 0)
    monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: 3)
    n = 300
    path = tmp_path / "m.mtx"
    write_matrix_market(generate_low_rank_density(n, 10, "linear", RngStream(1))[0], path)
    with open(path, "rb+") as fh:  # replace the last line by the one before it
        fh.seek(-200, io.SEEK_END)
        *_, before, last, _ = fh.read().split(b"\n")
        fh.seek(-len(last) - 1, io.SEEK_END)
        fh.truncate()
        fh.write(before + b"\n")
    with pytest.raises(MatrixMarketError) as excinfo:
        read_matrix_market(path)
    # two header lines, then the n(n+1)/2 entries
    assert str(excinfo.value) == f"{path}:45152: duplicate entry ({n}, {n - 1})"


@pytest.mark.parametrize(
    "content, line",
    [
        (SYM + "10 10 1\n1_0 1 1.0\n", 3),
        (SYM + "2 2 2\n1 1 1.0\n2 1 1_0.5\n", 4),
        (GEN + "2 2 1\n1 1 0.000_1\n", 3),
    ],
)
def test_digit_group_underscores_are_malformed(tmp_path, content, line):
    # Python's int() and float() read "1_0" as 10; Matrix Market has no such syntax
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError) as excinfo:
        read_matrix_market(path)
    entry = content.splitlines()[line - 1]
    assert str(excinfo.value) == f"{path}:{line}: malformed entry {entry!r}"


def test_non_ascii_byte_is_a_decode_error(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_bytes(SYM.encode() + b"1 1 1\n1 1 1.0 \xc2\xb5\n")
    with pytest.raises(UnicodeDecodeError):
        read_matrix_market(path)


@pytest.mark.parametrize("body", ["", "\n", "  \n\t\n"])
def test_file_without_entries_reads_without_a_warning(tmp_path, body):
    # the suite turns warnings into errors, so numpy's "input contained no
    # data" warning would fail here
    path = tmp_path / "empty.mtx"
    path.write_text(SYM + "3 3 0\n" + body)
    r = read_matrix_market(path)
    assert (r.n, r.nnz) == (3, 0)


def test_blank_lines_and_tabs_among_the_data_are_accepted(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(
        (SYM + "2 2 3\r\n\r\n1\t1  0.5\n \n2 1 0.25\r\n\t2 2\t0.5 \n\n").encode()
    )
    r = read_matrix_market(path)
    assert np.array_equal(r.to_dense(), [[0.5, 0.25], [0.25, 0.5]])


def reference_matrix_market(R: SparseSymMatrix) -> bytes:
    """The writer's format, one formatted line per lower-triangle entry."""
    if R.block is not None:
        rows, cols = np.tril_indices(R.n)
        values = R.block[rows, cols]
    else:
        csr = R.csr
        rows = np.repeat(np.arange(R.n), np.diff(csr.indptr))
        mask = rows >= csr.indices
        rows, cols, values = rows[mask], csr.indices[mask], csr.data[mask]
    out = [
        "%%MatrixMarket matrix coordinate real symmetric\n",
        f"{R.n} {R.n} {rows.size}\n",
    ]
    for i, j, v in zip(rows, cols, values):
        out.append(f"{i + 1} {j + 1} {v:.17g}\n")
    return "".join(out).encode("ascii")


def _awkward_values() -> SparseSymMatrix:
    """n=7 with -0.0, a subnormal, 1e-5 (exponent form) and 1e300 among its
    values, an explicit zero, an empty row and rows missing their diagonal."""
    lower = {
        (0, 0): -0.0,
        (2, 0): 5e-324,
        (2, 2): 1e-5,
        (3, 1): 1e300,
        (3, 3): 0.0,
        (5, 2): -0.1,
        (6, 0): 1.0 / 3.0,
        (6, 5): 2.5e-308,
        (6, 6): 123456789.0,
    }
    rows, cols, data = [], [], []
    for (i, j), v in lower.items():
        for r, c in {(i, j), (j, i)}:
            rows.append(r)
            cols.append(c)
            data.append(v)
    csr = sp.csr_matrix((data, (rows, cols)), shape=(7, 7))
    csr.sort_indices()
    return SparseSymMatrix(csr)


WRITER_CASES = {
    # 79,999 data lines, many bands
    "tridiagonal": lambda: generate_tridiagonal_poisson(40000)[0],
    "haar": lambda: generate_haar_like_matrix(300, RngStream(4)),
    "awkward-values": _awkward_values,
}


@pytest.mark.parametrize("band", [1, 2, 7, None], ids=["band1", "band2", "band7", "default"])
@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writer_matches_the_reference_across_writes(tmp_path, monkeypatch, case, band):
    # bands of 1, 2 and 7 entries end on empty rows, on rows missing their
    # diagonal and inside rows longer than a band, which make bands alone
    r = WRITER_CASES[case]()
    if band is not None:
        if case == "tridiagonal":  # 40000 rows in bands this small take seconds
            r = generate_tridiagonal_poisson(3000)[0]
        monkeypatch.setattr(densmat, "_WRITE_BAND", band)
    path = tmp_path / "m.mtx"
    write_matrix_market(r, path)
    assert path.read_bytes() == reference_matrix_market(r)


class _FullDisk(OSError):
    pass


@pytest.mark.parametrize("n", [1024, 2048])
def test_writer_holds_one_band_at_a_time(tmp_path, monkeypatch, n):
    # the writer used to build about 31 n^2 bytes of n^2-length row, mask
    # and index arrays before its first write (31 MiB at n = 1024); now it
    # holds one band's text and temporaries.  Tracing a whole write costs
    # about 18 us per entry, so the file here fills up after 1 MiB of text,
    # past the counting pass over all bands and a dozen or more bands written
    x = np.random.default_rng(n).random(n)
    r = SparseSymMatrix(block=np.add.outer(x, x))
    assert r.block is not None
    room = [2**20]

    class SmallDisk(io.TextIOWrapper):
        def write(self, text):
            room[0] -= len(text)
            if room[0] < 0:
                raise _FullDisk("no space left")
            return super().write(text)

    def small_disk_open(path, mode, encoding):
        return SmallDisk(open(path, mode + "b"), encoding=encoding)

    monkeypatch.setattr(densmat, "open", small_disk_open, raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(_FullDisk):
            write_matrix_market(r, tmp_path / "m.mtx")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# The companion block written beside a filled matrix's text
# ---------------------------------------------------------------------------


def _parsed(path) -> SparseSymMatrix:
    """The matrix the text at ``path`` parses to: a copy with no companion."""
    alone = path.with_name("alone.mtx")
    alone.write_bytes(path.read_bytes())
    return read_matrix_market(alone)


def _no_parse(*args, **kwargs):
    raise AssertionError("the text was parsed")


def _signed_zeros_and_subnormals() -> SparseSymMatrix:
    d = _symmetric(6)
    d[0, 0] = -0.0
    d[3, 1] = d[1, 3] = -0.0
    d[4, 2] = d[2, 4] = 5e-324
    d[5, 5] = 2.5e-308
    return SparseSymMatrix(block=d)


CACHED_CASES = {
    "haar5": lambda: generate_haar_like_matrix(5, RngStream(1)),
    "haar300": lambda: generate_haar_like_matrix(300, RngStream(4)),
    # from n = 2048 up _adopt checks the read block on its tile pool
    "haar2100": lambda: generate_haar_like_matrix(2100, RngStream(2)),
    "lowrank": lambda: generate_low_rank_density(300, 10, "exponential", RngStream(3))[0],
    "linuniform": lambda: generate_linear_plus_uniform(300, 10, RngStream(3))[0],
    "signed-zeros-and-subnormals": _signed_zeros_and_subnormals,
}


@pytest.mark.parametrize("case", sorted(CACHED_CASES))
def test_a_read_from_the_companion_has_the_parsed_bits(tmp_path, case):
    r = CACHED_CASES[case]()
    path = tmp_path / "m.mtx"
    write_matrix_market(r, path)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "loadtxt", _no_parse)
        cached = read_matrix_market(path)
    assert not cached.block.flags.writeable
    assert cached.block.tobytes() == r.block.tobytes()
    assert cached.block.tobytes() == _parsed(path).block.tobytes()


def test_a_read_from_the_companion_holds_one_block(tmp_path):
    # the parse's 29 n^2 (test_reading_a_full_symmetric_file_fills_one_block)
    # becomes 8 n^2 of block plus tile temporaries; the text is hashed in
    # 1 MiB pieces before the block is read
    n = 1024
    r = generate_haar_like_matrix(n, RngStream(1))
    path = tmp_path / "haar.mtx"
    write_matrix_market(r, path)
    tracemalloc.start()
    try:
        back = read_matrix_market(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.block.tobytes() == r.block.tobytes()
    assert peak <= 9 * n * n


_UNPICKLED = []


def _unpickle_hook():
    _UNPICKLED.append(True)
    return 0.0


class _Unpickled:
    def __reduce__(self):
        return _unpickle_hook, ()


def _companion_of(path, *records) -> None:
    """Replace the companion of the text at ``path`` by these np.save records."""
    with open(densmat._companion(path), "wb") as fh:
        for record in records:
            np.save(fh, record)


def _digest(path) -> np.ndarray:
    return np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), dtype=np.uint8)


def _truncate(path, keep):
    companion = densmat._companion(path)
    with open(companion, "rb+") as fh:
        fh.truncate(keep(companion.stat().st_size))


def _edit_a_value(path, block):
    # one digit of the first data line, entry (1, 1), changes; the text stays valid
    lines = path.read_text().splitlines(keepends=True)
    i, j, value = lines[2].split()
    assert (i, j) == ("1", "1") and value[2] != "9"
    lines[2] = f"1 1 {value[:2]}{int(value[2]) + 1}{value[3:]}\n"
    path.write_text("".join(lines))


def _changed(block, index, value):
    a = block.copy()
    a[index] = value
    return a


def _too_large_to_allocate(path, block):
    # a header of 8 TiB of values and no data: np.load fails to allocate, or
    # to read, without touching the memory
    with open(densmat._companion(path), "wb") as fh:
        np.save(fh, _digest(path))
        header = {"descr": "<f8", "fortran_order": False, "shape": (2**20, 2**20)}
        np.lib.format.write_array_header_1_0(fh, header)


def _replace_by_a_directory(path, block):
    companion = densmat._companion(path)
    companion.unlink()
    companion.mkdir()


UNTRUSTED_COMPANIONS = {
    "none": lambda path, block: densmat._companion(path).unlink(),
    "a-directory": _replace_by_a_directory,
    "empty": lambda path, block: _truncate(path, lambda size: 0),
    "truncated": lambda path, block: _truncate(path, lambda size: size - 8),
    "stale-after-an-edited-value": _edit_a_value,
    "wrong-digest": lambda path, block: _companion_of(path, np.zeros(32, np.uint8), block),
    "float32": lambda path, block: _companion_of(path, _digest(path), block.astype(np.float32)),
    "fortran-ordered": lambda path, block: _companion_of(
        path, _digest(path), np.asfortranarray(block)
    ),
    "flat": lambda path, block: _companion_of(path, _digest(path), block.ravel()),
    "not-square": lambda path, block: _companion_of(path, _digest(path), block[:, :-1].copy()),
    "another-n": lambda path, block: _companion_of(path, _digest(path), block[:-1, :-1].copy()),
    "asymmetric": lambda path, block: _companion_of(
        path, _digest(path), _changed(block, (0, 1), 1.0)
    ),
    "nan": lambda path, block: _companion_of(path, _digest(path), _changed(block, (2, 2), np.nan)),
    "too-large": _too_large_to_allocate,
    "pickled-objects": lambda path, block: _companion_of(
        path, _digest(path), np.array([_Unpickled()], dtype=object)
    ),
}


@pytest.mark.parametrize("case", sorted(UNTRUSTED_COMPANIONS))
def test_a_companion_that_cannot_be_trusted_leaves_the_text_to_the_parse(tmp_path, case):
    r = generate_haar_like_matrix(5, RngStream(1))
    path = tmp_path / "m.mtx"
    write_matrix_market(r, path)
    UNTRUSTED_COMPANIONS[case](path, r.block)
    parses = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        parses.append(True)
        return loadtxt(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "loadtxt", counted)
        back = read_matrix_market(path)
    assert parses == [True]
    assert back.block.tobytes() == _parsed(path).block.tobytes()
    assert (back.block.tobytes() == r.block.tobytes()) == (case != "stale-after-an-edited-value")
    assert _UNPICKLED == []


def test_an_edited_text_with_a_companion_reports_its_fault(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix_market(generate_haar_like_matrix(5, RngStream(1)), path)
    # one digit: the last line, entry (5, 5), becomes (6, 5)
    text = path.read_text()
    last = text.rindex("\n", 0, -1) + 1
    path.write_text(text[:last] + "6" + text[last + 1 :])
    with pytest.raises(MatrixMarketError) as excinfo:
        read_matrix_market(path)
    # two header lines, then the 15 entries
    assert str(excinfo.value) == f"{path}:17: index (6, 5) out of range for n=5"


def test_only_a_block_that_its_text_mirrors_gets_a_companion(tmp_path):
    # every block does: _adopt gives a zero the sign of its lower entry, the
    # one the text keeps, so a block built with zeros of either sign gets a
    # companion too; a CSR gets none, and removes the one it writes over
    path = tmp_path / "m.mtx"
    csrs = {
        "tridiagonal": generate_tridiagonal_poisson(5)[0],
        "n^2 entries by hand": SparseSymMatrix(sp.csr_matrix(_symmetric(5))),
    }
    for name, r in csrs.items():
        write_matrix_market(generate_haar_like_matrix(5, RngStream(1)), path)
        assert densmat._companion(path).is_file()
        write_matrix_market(r, path)
        assert [p.name for p in tmp_path.iterdir()] == ["m.mtx"], name
    d = np.eye(3) / 3
    d[0, 1] = -0.0
    r = SparseSymMatrix(block=d)
    write_matrix_market(r, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mtx", "m.mtx.block"]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "loadtxt", _no_parse)
        back = read_matrix_market(path)
    assert back.block.tobytes() == r.block.tobytes()
    assert not np.signbit(back.block[0, 1])


# a zero whose mirror has the other sign, at the lower entry (i, j) of n x n:
# inside a diagonal tile, across an off-diagonal tile pair, and in the last,
# partial tile (tiles of 96 leave 8 rows at n = 200)
SIGNED_ZERO_PLACES = {
    "diagonal-tile": (3, (1, 0)),
    "tile-pair": (200, (150, 3)),
    "partial-tile": (200, (199, 194)),
}


def _zero_pair(n, place, lower):
    """_symmetric(n) with the zero ``lower`` at the lower entry ``place``
    and the zero of the other sign at its mirror."""
    d = _symmetric(n)
    i, j = place
    d[i, j], d[j, i] = lower, -lower
    return d


def _general_file(tmp_path, n, place, lower):
    d = _zero_pair(n, place, lower)
    lines = [f"{i + 1} {j + 1} {d[i, j]:.17g}\n" for i in range(n) for j in range(n)]
    path = tmp_path / "general.mtx"
    path.write_text(GEN + f"{n} {n} {n * n}\n" + "".join(lines))
    return read_matrix_market(path)


def _crafted_companion(tmp_path, n, place, lower):
    # the text holds the lower zero; the companion, with the digest of that
    # text, holds the block with the zero of the other sign above it
    d = _zero_pair(n, place, lower)
    text = d.copy()
    text[place[::-1]] = lower
    path = tmp_path / "crafted.mtx"
    write_matrix_market(SparseSymMatrix(block=text), path)
    _companion_of(path, _digest(path), d)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "loadtxt", _no_parse)
        return read_matrix_market(path)


SIGNED_ZERO_SOURCES = {
    "block-constructor": lambda tmp_path, *zero: SparseSymMatrix(block=_zero_pair(*zero)),
    "general-file": _general_file,
    "crafted-companion": _crafted_companion,
}


@pytest.mark.parametrize("lower", [-0.0, 0.0], ids=["lower-negative", "lower-positive"])
@pytest.mark.parametrize("place", sorted(SIGNED_ZERO_PLACES))
@pytest.mark.parametrize("source", sorted(SIGNED_ZERO_SOURCES))
def test_a_zero_and_its_mirror_take_the_sign_of_the_lower_one(tmp_path, source, place, lower):
    n, (i, j) = SIGNED_ZERO_PLACES[place]
    r = SIGNED_ZERO_SOURCES[source](tmp_path, n, (i, j), lower)
    b = r.block
    bits = b.view(np.uint64)
    assert np.array_equal(bits, bits.T)
    expected = _zero_pair(n, (i, j), lower)
    expected[j, i] = lower
    assert b.tobytes() == expected.tobytes()
    path = tmp_path / "m.mtx"
    write_matrix_market(r, path)
    assert densmat._companion(path).is_file()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "loadtxt", _no_parse)
        cached = read_matrix_market(path)
    assert cached.block.tobytes() == b.tobytes()
    assert _parsed(path).block.tobytes() == b.tobytes()


def test_a_companion_that_cannot_be_written_leaves_the_text_alone(tmp_path):
    # the companion's path is a directory, so moving it into place fails
    r = generate_haar_like_matrix(5, RngStream(1))
    path = tmp_path / "m.mtx"
    densmat._companion(path).mkdir()
    write_matrix_market(r, path)
    assert path.read_bytes() == reference_matrix_market(r)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mtx", "m.mtx.block"]
    assert list(densmat._companion(path).iterdir()) == []
    assert read_matrix_market(path).block.tobytes() == r.block.tobytes()


@st.composite
def sparse_symmetric(draw):
    """A symmetric CSR matrix with sorted indices, any subset of its lower
    triangle stored (diagonal entries too may be missing)."""
    n = draw(st.integers(min_value=1, max_value=12))
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    kept = draw(st.lists(st.sampled_from(lower), unique=True, max_size=len(lower)))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=len(kept),
            max_size=len(kept),
        )
    )
    rows, cols, data = [], [], []
    for (i, j), v in zip(kept, values):
        for r, c in {(i, j), (j, i)}:
            rows.append(r)
            cols.append(c)
            data.append(v)
    csr = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    csr.sort_indices()
    return SparseSymMatrix(csr)


def _stored_entries(csr) -> np.ndarray:
    """A CSR's stored entries in a dense array, each with its sign; scipy's
    toarray adds them into +0.0, which turns -0.0 into +0.0."""
    a = np.zeros(csr.shape)
    a[np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr)), csr.indices] = csr.data
    return a


@given(sparse_symmetric(), st.sampled_from([1, 2, 7, None]))
@example(SparseSymMatrix(sp.csr_matrix(([-0.0], [0], [0, 1]), shape=(1, 1))), None)
@settings(max_examples=200, deadline=None)
def test_matrix_market_round_trip_is_bitwise(tmp_path_factory, r, band):
    # band: the writer's band size in entries, or None for its own
    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    with pytest.MonkeyPatch.context() as m:
        if band is not None:
            m.setattr(densmat, "_WRITE_BAND", band)
        write_matrix_market(r, path)
    assert path.read_bytes() == reference_matrix_market(r)
    back = read_matrix_market(path)
    if back.block is not None:  # a file that lists every entry fills a block
        assert back.block.tobytes() == _stored_entries(r.csr).tobytes()
        return
    for name in ("data", "indices", "indptr"):
        a, b = getattr(back.csr, name), getattr(r.csr, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# a dense matrix the constructor refuses, and the refusal, the same for a
# block and a CSR; NaN is unequal to itself
GATE_REFUSALS = {
    "asymmetric": ([[0.5, 0.4], [-0.4, 0.5]], "^matrix is not exactly symmetric$"),
    "nan": ([[0.5, np.nan], [np.nan, 0.5]], "^matrix is not exactly symmetric$"),
    "inf": ([[np.inf, 0.0], [0.0, 0.5]], "^matrix contains non-finite entries$"),
    "non-square": (
        [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]],
        r"^expected a square matrix, got shape \(2, 3\)$",
    ),
}


@pytest.mark.parametrize("store", ["block", "csr"])
@pytest.mark.parametrize("case", sorted(GATE_REFUSALS))
def test_the_constructor_refuses_what_is_not_square_exactly_symmetric_and_finite(store, case):
    dense, message = GATE_REFUSALS[case]
    a = np.array(dense)
    with pytest.raises(ValueError, match=message):
        SparseSymMatrix(block=a) if store == "block" else SparseSymMatrix(sp.csr_matrix(a))


def test_the_constructor_sums_a_repeated_diagonal_entry():
    # row 0 stores its diagonal entry twice and row 1 none: taken as they
    # are, the three stored entries would pass for a full diagonal
    raw = sp.csr_matrix(([0.25, 0.25, 0.5], [0, 0, 2], [0, 2, 2, 3]), shape=(3, 3))
    r = SparseSymMatrix(raw)
    assert r.csr.has_canonical_format and r.nnz == 2
    assert np.array_equal(r.shifted(1.0, 1.0).to_dense(), raw.toarray() + np.eye(3))


def test_the_library_builds_its_own_matrices_past_the_gate(tmp_path, monkeypatch):
    # what the library checked or derived itself is not checked again
    no_diagonal = SparseSymMatrix(sp.csr_matrix(([0.5, 0.5], [1, 0], [0, 1, 2]), shape=(2, 2)))

    def gate(self):
        raise AssertionError("checked twice")

    monkeypatch.setattr(SparseSymMatrix, "__post_init__", gate)
    tri, _ = generate_tridiagonal_poisson(6)
    dense = [
        generate_haar_like_matrix(5, RngStream(1)),
        generate_low_rank_density(5, 2, "linear", RngStream(1))[0],
        generate_linear_plus_uniform(5, 2, RngStream(1))[0],
    ]
    for r in (tri, no_diagonal, *dense):
        assert np.array_equal(r.shifted(2.0, -1.0).to_dense(), 2.0 * r.to_dense() - np.eye(r.n))
    # the reader has checked a partial symmetric file's entries and mirrored
    # them with their own bits; a general file's symmetry is the gate's to check
    sym, general = tmp_path / "sym.mtx", tmp_path / "general.mtx"
    write_matrix_market(tri, sym)
    csr = read_matrix_market(sym).csr
    assert _csr_bits(csr) == _csr_bits(tri.csr) and csr.has_canonical_format
    general.write_text(GEN + "2 2 3\n1 1 1.0\n1 2 0.5\n2 1 0.5\n")
    with pytest.raises(AssertionError, match="checked twice"):
        read_matrix_market(general)
    path = tmp_path / "m.mtx"
    write_matrix_market(dense[0], path)
    monkeypatch.setattr(np, "loadtxt", _no_parse)
    assert read_matrix_market(path).block.tobytes() == dense[0].block.tobytes()


@st.composite
def partial_general_file(draw):
    """The size and data lines of a ``general`` file that lists both entries
    of each stored pair (a zero perhaps with the other sign at its mirror)
    but not all n^2 entries, in any order."""
    n = draw(st.integers(min_value=1, max_value=6))
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    kept = draw(st.lists(st.sampled_from(lower), unique=True, max_size=len(lower) - 1))
    lines = []
    for i, j in kept:
        v = draw(st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False))
        lines.append(f"{i + 1} {j + 1} {v!r}")
        if i != j:
            mirror = -v if v == 0.0 and draw(st.booleans()) else v
            lines.append(f"{j + 1} {i + 1} {mirror!r}")
    return n, draw(st.permutations(lines))


def _csr_bits(csr):
    return [a.tobytes() for a in (csr.indptr, csr.indices, csr.data)]


@given(partial_general_file())
@example((2, ["1 1 1.0", "1 2 0.0", "2 1 -0.0"]))
@settings(max_examples=200, deadline=None)
def test_a_partial_general_file_round_trips_bitwise(tmp_path_factory, file):
    n, lines = file
    folder = tmp_path_factory.mktemp("mm")
    path = folder / "general.mtx"
    path.write_text(GEN + f"{n} {n} {len(lines)}\n" + "".join(line + "\n" for line in lines))
    first = read_matrix_market(path)
    write_matrix_market(first, folder / "m.mtx")
    back = read_matrix_market(folder / "m.mtx").csr
    assert _csr_bits(back) == _csr_bits(back.T.tocsr()) == _csr_bits(first.csr)


def test_validate_density_catches_bad_trace():
    r = diagonal_matrix([0.5, 0.4])
    with pytest.raises(ValueError):
        r.validate_density()
