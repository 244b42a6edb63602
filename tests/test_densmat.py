import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import diagonal_matrix
from vnentropy import (
    RngStream,
    SparseSymMatrix,
    entropy_from_probs,
    exact_entropy,
    generate_haar_like_density,
    generate_linear_plus_uniform,
    generate_low_rank_density,
    generate_tridiagonal_poisson,
    poisson_spectrum,
    read_matrix_market,
    write_matrix_market,
)
from vnentropy.densmat import MatrixMarketError, low_rank_probs, validate_spectrum
from vnentropy.linalg import dense_eigvalsh
from vnentropy.rng import gaussian_vector


def test_matvec_identity():
    r = diagonal_matrix([1.0, 1.0, 1.0])
    assert np.array_equal(r.matvec(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_matvec_zero_matrix():
    r = SparseSymMatrix.from_dense(np.zeros((4, 4)))
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
    r = SparseSymMatrix.from_dense(dense)
    x = gaussian_vector(RngStream(seed, 1), 16)
    expected = dense @ x
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(r.matvec(x) - expected) <= 1e-12 * max(scale, 1e-30)


def test_from_dense_holds_one_copy_of_the_indices():
    # 8 n^2 bytes of values and 4 n^2 of int32 column indices, at the peak
    # too; an int64 copy of the indices, kept or transient, adds 8 n^2 more
    n = 512
    dense = np.eye(n) / n
    tracemalloc.start()
    try:
        r = SparseSymMatrix.from_dense(dense)
        r.scipy_csr
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 13 * n * n


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 64])
def test_haar_like_density_is_unit_trace_psd(n):
    r, model = generate_haar_like_density(n, RngStream(0))
    assert abs(r.trace() - 1.0) < 1e-10
    r.validate_density()
    w = dense_eigvalsh(r.to_dense())
    assert w.min() >= -1e-10
    assert model is not None and model.size == n
    validate_spectrum(model)


def test_haar_like_density_entropy_near_log_n():
    n = 64
    r, model = generate_haar_like_density(n, RngStream(7))
    h, oracle = exact_entropy(r)
    assert abs(h - entropy_from_probs(model, 1e-14)) < 1e-10
    # dense random mixing: entropy sits an O(1) constant below ln n
    assert math.log(n) - 1.0 < h < math.log(n)


def test_haar_generation_is_deterministic():
    a, _ = generate_haar_like_density(16, RngStream(3))
    b, _ = generate_haar_like_density(16, RngStream(3))
    assert np.array_equal(a.scipy_csr.data, b.scipy_csr.data)


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
        csr = r.scipy_csr
        assert abs(csr - csr.T).max() == 0
        assert csr.has_sorted_indices
        w = dense_eigvalsh(r.to_dense())
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
    w = dense_eigvalsh(r.to_dense())
    assert np.all(w[:-4] < 1e-10)
    assert abs(r.trace() - 1.0) < 1e-10
    validate_spectrum(model)


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
    w = dense_eigvalsh(r.to_dense())
    assert w.min() > 0.5 * model[-1]


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
        back = read_matrix_market(path)
        assert back.n == r.n
        assert np.array_equal(back.scipy_csr.indptr, r.scipy_csr.indptr)
        assert np.array_equal(back.scipy_csr.indices, r.scipy_csr.indices)
        assert np.array_equal(back.scipy_csr.data, r.scipy_csr.data)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**31, 2**48 + 5])
def test_round_trip_random_dense(seed, tmp_path):
    g = gaussian_vector(RngStream(seed), 36).reshape(6, 6)
    r = SparseSymMatrix.from_dense((g + g.T) / 2)
    path = tmp_path / "m.mtx"
    write_matrix_market(r, path)
    assert np.array_equal(read_matrix_market(path).scipy_csr.data, r.scipy_csr.data)


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


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("%%MatrixMarket matrix array real general\n1 1 1\n1 1 1.0\n", ":1:"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n", ":3:"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n", ":3:"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n1 1 2.0\n", ":4:"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n", "declared 2"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n", "square"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 oops\n", ":3:"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, content, fragment):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError) as excinfo:
        read_matrix_market(path)
    assert fragment in str(excinfo.value)


def test_from_dense_rejects_asymmetric():
    with pytest.raises(ValueError):
        SparseSymMatrix.from_dense(np.array([[1.0, 0.1], [0.2, 1.0]]))


def test_validate_density_catches_bad_trace():
    r = diagonal_matrix([0.5, 0.4])
    with pytest.raises(ValueError):
        r.validate_density()
