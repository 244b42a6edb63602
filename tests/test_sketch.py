import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import diagonal_matrix
from vnentropy import (
    ProjectionSpec,
    RngStream,
    SparseSymMatrix,
    apply_countsketch,
    apply_gaussian,
    apply_srht,
    default_s_sketch,
    entropy_from_probs,
    generate_linear_plus_uniform,
    generate_low_rank_density,
    generate_tridiagonal_poisson,
    sketch_entropy,
)
from vnentropy import linalg
from vnentropy.rng import rademacher_vector, uniform_indices
from vnentropy.linalg import thin_singular_values
from vnentropy.sketch import SKETCH_CLAMP, _hadamard_signs


def countsketch_matrix(s, n, stream):
    """Dense Pi of the countsketch projection, drawn as apply_countsketch draws it."""
    cols = uniform_indices(stream.child(0), s, n)
    signs = rademacher_vector(stream.child(1), n)
    pi = np.zeros((n, s), dtype=np.float64)
    pi[np.arange(n), cols] = signs
    return pi


def hadamard_dense(n):
    return scipy.linalg.hadamard(n) / math.sqrt(n)


@pytest.mark.parametrize("n_pad", [1, 2, 8, 64])
def test_hadamard_columns_match_scipy(n_pad):
    rows = n_pad // 2 + 1  # 1, 2, 5, 33: below n_pad, and no power of two past 2
    cols = uniform_indices(RngStream(n_pad), n_pad, 3 * n_pad)  # repeats allowed
    expected = scipy.linalg.hadamard(n_pad)[:rows, cols]
    assert np.array_equal(_hadamard_signs(rows, cols), expected)


def test_srht_builds_no_dense_copy_at_n_65536(monkeypatch):
    r, _ = generate_tridiagonal_poisson(65536)

    def refuse(self):
        raise AssertionError("to_dense called")

    monkeypatch.setattr(SparseSymMatrix, "to_dense", refuse)
    sketch = apply_srht(r, 16, RngStream(1))
    assert sketch.shape == (65536, 16) and np.all(np.isfinite(sketch))


def test_gaussian_sketch_of_zero_matrix():
    r = SparseSymMatrix(block=np.zeros((5, 5)))
    assert np.array_equal(apply_gaussian(r, 7, RngStream(0)), np.zeros((5, 7)))


def test_gaussian_sketch_rank_one_concentrates():
    r, _ = generate_low_rank_density(128, 1, "linear", RngStream(3))
    sketch = apply_gaussian(r, 200, RngStream(4))
    top = np.linalg.norm(sketch, 2)
    assert abs(top - 1.0) < 0.25


def test_gaussian_sketch_preserves_frobenius_in_expectation():
    r, _ = generate_low_rank_density(64, 3, "linear", RngStream(5))
    truth = np.sum(r.to_dense() ** 2)
    vals = [np.sum(apply_gaussian(r, 64, RngStream(seed)) ** 2) for seed in range(100)]
    assert abs(np.mean(vals) - truth) < 0.1 * truth


def test_srht_matches_explicit_projection():
    r, _ = generate_low_rank_density(8, 3, "exponential", RngStream(7))
    sketch = apply_srht(r, 5, RngStream(9))
    d = rademacher_vector(RngStream(9).child(0), 8)
    idx = uniform_indices(RngStream(9).child(1), 8, 5)
    pi = math.sqrt(8 / 5) * (d[:, None] * hadamard_dense(8))[:, idx]
    assert np.max(np.abs(sketch - r.to_dense() @ pi)) < 1e-12
    assert np.allclose(np.linalg.norm(pi, axis=0), math.sqrt(8 / 5), atol=1e-12)


def test_srht_pads_to_next_power_of_two():
    r, _ = generate_low_rank_density(6, 2, "linear", RngStream(13))
    sketch = apply_srht(r, 4, RngStream(15))
    d = rademacher_vector(RngStream(15).child(0), 8)
    idx = uniform_indices(RngStream(15).child(1), 8, 4)
    padded = np.zeros((8, 8))
    padded[:6, :6] = r.to_dense()
    pi = math.sqrt(8 / 4) * (d[:, None] * hadamard_dense(8))[:, idx]
    assert np.max(np.abs(sketch - (padded @ pi)[:6, :])) < 1e-12


def test_srht_identity_frobenius_identity():
    r = SparseSymMatrix(block=np.eye(4))
    sketch = apply_srht(r, 2, RngStream(5))
    assert abs(np.sum(sketch**2) - 4.0) < 1e-10


def test_countsketch_structure():
    pi = countsketch_matrix(6, 16, RngStream(1))
    assert np.all(np.sum(np.abs(pi), axis=1) == 1.0)  # one +-1 per row
    assert np.sum(pi**2) == 16.0


def test_countsketch_on_identity_reproduces_projection():
    r = SparseSymMatrix(block=np.eye(4))
    sketch = apply_countsketch(r, 4, RngStream(3))
    assert np.array_equal(sketch, countsketch_matrix(4, 4, RngStream(3)))


def test_countsketch_equals_dense_projection_product():
    r, _ = generate_low_rank_density(20, 3, "linear", RngStream(8))
    sketch = apply_countsketch(r, 9, RngStream(11))
    pi = countsketch_matrix(9, 20, RngStream(11))
    assert np.max(np.abs(sketch - r.to_dense() @ pi)) < 1e-12


def test_countsketch_of_a_filled_matrix_is_bitwise_the_csr_sketch():
    # (Pi^T R)^T sums each entry over the same coordinates in the same
    # order as the CSR product R Pi, and R is exactly symmetric
    r, _ = generate_low_rank_density(1024, 10, "linear", RngStream(4))
    csr = scipy.sparse.csr_matrix(r.block)
    assert csr.nnz == r.n * r.n
    s, stream = 256, RngStream(9)
    cols = uniform_indices(stream.child(0), s, r.n)
    signs = rademacher_vector(stream.child(1), r.n)
    pi = scipy.sparse.csc_matrix((signs, (np.arange(r.n), cols)), shape=(r.n, s))
    probs = thin_singular_values((csr @ pi).toarray(), 10)
    got = sketch_entropy(r, 10, ProjectionSpec("countsketch", s, stream))
    assert np.array_equal(got.probs_tilde, probs)
    assert got.entropy_tilde == entropy_from_probs(probs, SKETCH_CLAMP)


def test_default_s_examples():
    assert default_s_sketch("countsketch", 10**4, 5, 0.5) == 100
    assert default_s_sketch("countsketch", 10**4, 1, 0.99) == 2
    assert default_s_sketch("srht", 1024, 5, 0.5) == 96
    assert default_s_sketch("gaussian", 1024, 5, 0.5) == 96
    # capped at n
    assert default_s_sketch("countsketch", 50, 10, 0.5) == 50


def test_default_s_rejects_bad_parameters():
    with pytest.raises(ValueError):
        default_s_sketch("exact_debug", 10, 2, 0.5)
    with pytest.raises(ValueError):
        default_s_sketch("srht", 10, 0, 0.5)
    with pytest.raises(ValueError):
        default_s_sketch("srht", 10, 2, 1.5)


@pytest.mark.parametrize(
    "family",
    [
        lambda: generate_low_rank_density(48, 5, "linear", RngStream(21)),
        lambda: generate_low_rank_density(48, 5, "exponential", RngStream(22)),
        lambda: generate_low_rank_density(64, 1, "linear", RngStream(23)),
    ],
)
def test_exact_debug_identity(family):
    r, model = family()
    k = model.size
    out = sketch_entropy(r, k, ProjectionSpec("exact_debug", 1, RngStream(0)))
    assert out.s == r.n
    assert np.max(np.abs(out.probs_tilde - model)) < 1e-8
    assert abs(out.entropy_tilde - entropy_from_probs(model, 1e-14)) < 1e-8


def test_rank_preservation():
    r, _ = generate_low_rank_density(64, 3, "exponential", RngStream(31))
    for kind in ("gaussian", "srht", "countsketch"):
        for seed in range(5):
            out = sketch_entropy(r, 6, ProjectionSpec(kind, 32, RngStream(seed)))
            assert np.sum(out.probs_tilde > 1e-8) <= 3


def test_sketch_spectrum_entropy_consistency():
    r, _ = generate_low_rank_density(32, 4, "linear", RngStream(41))
    out = sketch_entropy(r, 4, ProjectionSpec("gaussian", 48, RngStream(2)))
    assert out.entropy_tilde == entropy_from_probs(out.probs_tilde, 1e-12)
    assert out.probs_tilde.size == 4
    assert np.all(np.diff(out.probs_tilde) <= 0)


def test_squared_value_guarantee_smoke():
    # 100-seed version of the statistical property (full 200 in acceptance)
    r, model = generate_low_rank_density(256, 5, "linear", RngStream(51))
    p2 = model**2
    s = default_s_sketch("srht", 256, 5, 0.5)
    hits = 0
    for seed in range(100):
        out = sketch_entropy(r, 5, ProjectionSpec("srht", s, RngStream(seed)))
        hits += bool(np.all(np.abs(out.probs_tilde**2 - p2) <= 0.5 * p2))
    assert hits >= 85


def test_projection_spec_validation():
    with pytest.raises(ValueError):
        ProjectionSpec("fourier", 4, RngStream(0))
    with pytest.raises(ValueError):
        ProjectionSpec("gaussian", 0, RngStream(0))


def test_sketch_entropy_validates_k():
    r, _ = generate_low_rank_density(16, 2, "linear", RngStream(61))
    with pytest.raises(ValueError):
        sketch_entropy(r, 0, ProjectionSpec("gaussian", 4, RngStream(0)))
    with pytest.raises(ValueError):
        sketch_entropy(r, 17, ProjectionSpec("gaussian", 4, RngStream(0)))


def test_full_rank_input_with_exact_debug():
    r, model = generate_linear_plus_uniform(24, 4, RngStream(71))
    out = sketch_entropy(r, 24, ProjectionSpec("exact_debug", 1, RngStream(0)))
    assert np.max(np.abs(out.probs_tilde - model)) < 1e-8


@pytest.mark.parametrize("store", ["block", "csr"])
def test_sketch_gram_matrices_are_exactly_symmetric(store):
    # thin_singular_values hands b.T @ b to eigvalsh unsymmetrized: numpy
    # computes it through syrk, which fills both triangles alike
    if store == "block":
        r, _ = generate_low_rank_density(512, 10, "linear", RngStream(81))
    else:
        r, _ = generate_tridiagonal_poisson(512)
    sketches = [
        apply_gaussian(r, 400, RngStream(1)),
        apply_srht(r, 400, RngStream(2)),
        apply_countsketch(r, 400, RngStream(3)),
    ]
    for b in sketches:
        for order in (np.ascontiguousarray, np.asfortranarray):
            gram = order(b).T @ order(b)
            assert np.array_equal(gram, gram.T)


def test_exact_projection_refuses_n_above_the_oracle_limit(monkeypatch):
    r, _ = generate_low_rank_density(9, 2, "linear", RngStream(91))
    spec = ProjectionSpec("exact_debug", 1, RngStream(0))
    monkeypatch.setattr(linalg, "DEFAULT_ORACLE_LIMIT", 9)
    assert sketch_entropy(r, 2, spec).s == 9
    monkeypatch.setattr(linalg, "DEFAULT_ORACLE_LIMIT", 8)
    monkeypatch.setattr(SparseSymMatrix, "to_dense", lambda self: pytest.fail("made r dense"))
    with pytest.raises(ValueError, match="exceeds the oracle limit 8"):
        sketch_entropy(r, 2, spec)
