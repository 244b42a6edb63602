import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import diagonal_matrix, rotated_density
from vnentropy import (
    RngStream,
    dense_eigvalsh,
    entropy_from_probs,
    exact_entropy,
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


def test_eigh_diagonal_and_analytic_2x2():
    w = dense_eigvalsh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-14)
    w = dense_eigvalsh(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)


def test_eigh_rejects_asymmetric_and_oversized(monkeypatch):
    with pytest.raises(ValueError):
        dense_eigvalsh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    monkeypatch.setattr(linalg, "DEFAULT_ORACLE_LIMIT", 4)
    with pytest.raises(ValueError):
        dense_eigvalsh(np.eye(5))


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
    w = dense_eigvalsh(b.T @ b)
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

    h, _ = exact_entropy(SparseSymMatrix.from_dense((dense + dense.T) / 2))
    assert abs(h) < 1e-12


def test_exact_entropy_matches_closed_form_spectrum():
    r, model = generate_tridiagonal_poisson(8)
    h, oracle = exact_entropy(r)
    assert abs(h - entropy_from_probs(model, 1e-14)) < 1e-10
    assert abs(h - 1.8204) < 1e-4
    validate_spectrum(oracle)


def test_exact_entropy_rejects_indefinite_and_oversized(monkeypatch):
    with pytest.raises(ValueError):
        exact_entropy(diagonal_matrix([1.5, -0.5]))
    r, _ = rotated_density([0.5, 0.3, 0.2], RngStream(0))
    monkeypatch.setattr(linalg, "DEFAULT_ORACLE_LIMIT", 2)
    with pytest.raises(ValueError):
        exact_entropy(r)
