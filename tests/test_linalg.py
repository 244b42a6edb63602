import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import diagonal_matrix, rotated_density
from vnentropy import (
    RngStream,
    SparseSymMatrix,
    entropy_from_probs,
    exact_entropy,
    generate_haar_like_matrix,
    generate_tridiagonal_poisson,
    householder_qr,
    linalg,
    thin_singular_values,
)
from vnentropy.densmat import validate_spectrum
from vnentropy.rng import gaussian_vector


def test_qr_of_orthonormal_input_spans_same_space():
    a = np.eye(5)[:, :2]
    q = householder_qr(a)
    assert np.max(np.abs(q.T @ q - np.eye(2))) < 1e-12
    assert np.max(np.abs(q @ (q.T @ a) - a)) < 1e-12


def test_qr_single_basis_vector():
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    q = householder_qr(e1)
    assert np.allclose(np.abs(q), e1, atol=1e-15)


def test_qr_random_gaussian_is_orthonormal():
    a = gaussian_vector(RngStream(2), 24).reshape(8, 3)
    q = householder_qr(a)
    assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-10


def test_qr_rejects_rank_deficiency():
    a = np.ones((6, 2))  # two identical columns
    with pytest.raises(ValueError):
        householder_qr(a)


@pytest.mark.parametrize("store", ["block", "csr"])
def test_exact_spectrum_of_a_diagonal_and_an_analytic_2x2(store):
    def build(dense):
        if store == "block":
            return SparseSymMatrix(block=dense)
        return SparseSymMatrix(sp.csr_matrix(np.asarray(dense)))

    _, probs = exact_entropy(build(np.diag([0.5, 1 / 6, 1 / 3])))
    assert np.allclose(probs, [0.5, 1 / 3, 1 / 6], atol=1e-15)
    _, probs = exact_entropy(build([[0.5, -0.25], [-0.25, 0.5]]))
    assert np.allclose(probs, [0.75, 0.25], atol=1e-15)


def test_an_asymmetric_csr_never_reaches_the_oracle_and_oversized_is_refused(monkeypatch):
    # the constructor refuses any asymmetry, however small, so the oracle
    # takes every matrix as exactly symmetric
    for off in (1e-9, 1e-11):
        with pytest.raises(ValueError, match="^matrix is not exactly symmetric$"):
            SparseSymMatrix(sp.csr_matrix(np.array([[0.5, off], [0.0, 0.5]])))
    monkeypatch.setattr(linalg, "DEFAULT_ORACLE_LIMIT", 4)
    for r in (generate_tridiagonal_poisson(5)[0], SparseSymMatrix(block=np.eye(5) / 5)):
        with pytest.raises(ValueError, match="exceeds the oracle limit 4"):
            exact_entropy(r)


def test_exact_entropy_of_a_block_and_of_its_csr_are_bitwise_equal():
    r = generate_haar_like_matrix(50, RngStream(2))
    h, probs = exact_entropy(r)
    h_csr, probs_csr = exact_entropy(SparseSymMatrix(sp.csr_matrix(r.to_dense())))
    assert h == h_csr and probs.tobytes() == probs_csr.tobytes()


def test_the_oracle_makes_no_copy_of_a_block():
    # the block goes to the eigensolver as it is; a dense copy and the
    # symmetry check's temporaries read 16.0 n^2
    n = 1024
    r = generate_haar_like_matrix(n, RngStream(1))
    tracemalloc.start()
    try:
        exact_entropy(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n


def test_thin_singular_values_orthonormal_columns():
    q = householder_qr(gaussian_vector(RngStream(1), 40).reshape(10, 4))
    assert np.allclose(thin_singular_values(q, 4), np.ones(4), atol=1e-10)


def test_thin_singular_values_padded_diagonal():
    b = np.zeros((5, 2))
    b[0, 0], b[1, 1] = 2.0, 1.0
    assert np.allclose(thin_singular_values(b, 2), [2.0, 1.0], atol=1e-14)


def test_thin_singular_values_match_gram_eigensolve():
    b = gaussian_vector(RngStream(9), 256).reshape(32, 8)
    sv = thin_singular_values(b, 8)
    w = np.linalg.eigvalsh(b.T @ b)
    assert np.max(np.abs(sv - np.sqrt(np.clip(w[::-1], 0, None)))) < 1e-8


def test_thin_singular_values_frobenius_identity():
    b = gaussian_vector(RngStream(4), 200).reshape(25, 8)
    sv = thin_singular_values(b, 8)
    fro2 = np.sum(b**2)
    assert abs(np.sum(sv**2) - fro2) < 1e-8 * fro2


def test_thin_singular_values_edge_top():
    b = np.ones((3, 2))
    assert thin_singular_values(b, 0).size == 0
    with pytest.raises(ValueError):
        thin_singular_values(b, 3)


def test_entropy_examples():
    assert abs(entropy_from_probs([0.5, 0.5], 0.0) - math.log(2)) < 1e-12
    assert entropy_from_probs([1.0, 0.0, 0.0], 0.0) == 0.0
    assert abs(entropy_from_probs([0.25] * 4, 0.0) - math.log(4)) < 1e-12


def test_entropy_clamp_and_negative_rejection():
    assert entropy_from_probs([1.0, 5e-15], 1e-14) == 0.0
    with pytest.raises(ValueError):
        entropy_from_probs([1.0, -1e-10], 1e-14)
    # tiny negatives inside the clamp band are tolerated
    assert entropy_from_probs([1.0, -5e-15], 1e-14) == 0.0


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12))
@settings(max_examples=50)
def test_entropy_permutation_invariant_and_bounded(values):
    p = np.array(values)
    p /= p.sum()
    h = entropy_from_probs(p, 1e-14)
    assert abs(h - entropy_from_probs(p[::-1], 1e-14)) < 1e-10
    live = int(np.sum(p > 1e-14))
    assert -1e-12 <= h <= math.log(live) + 1e-12


def test_exact_entropy_maximally_mixed():
    h, model = exact_entropy(diagonal_matrix([1 / 16.0] * 16))
    assert abs(h - math.log(16)) < 1e-12
    assert np.allclose(model, 1 / 16.0, atol=1e-15)


def test_exact_entropy_pure_state_is_zero():
    psi = gaussian_vector(RngStream(3), 8)
    psi /= np.linalg.norm(psi)
    dense = np.outer(psi, psi)
    from vnentropy import SparseSymMatrix

    h, _ = exact_entropy(SparseSymMatrix(block=(dense + dense.T) / 2))
    assert abs(h) < 1e-12


def test_exact_entropy_matches_closed_form_spectrum():
    r, model = generate_tridiagonal_poisson(8)
    h, oracle = exact_entropy(r)
    assert abs(h - entropy_from_probs(model, 1e-14)) < 1e-10
    assert abs(h - 1.8204) < 1e-4
    validate_spectrum(oracle)
    assert np.all(np.diff(oracle) <= 0)


def test_exact_entropy_rejects_indefinite_and_oversized(monkeypatch):
    with pytest.raises(ValueError):
        exact_entropy(diagonal_matrix([1.5, -0.5]))
    r, _ = rotated_density([0.5, 0.3, 0.2], RngStream(0))
    monkeypatch.setattr(linalg, "DEFAULT_ORACLE_LIMIT", 2)
    with pytest.raises(ValueError):
        exact_entropy(r)
