import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebval

from conftest import diagonal_matrix, rotated_density
from vnentropy import (
    EstimatorConfig,
    RngStream,
    SparseSymMatrix,
    cheb_coefficients,
    chebyshev,
    chebyshev_entropy,
    check_assumptions,
    generate_tridiagonal_poisson,
    relative_error,
    taylor,
    taylor_entropy,
)
import vnentropy.linalg
import vnentropy.power
import vnentropy.report
from vnentropy.densmat import low_rank_probs, work_buffer
from vnentropy.rng import gaussian_vector


def model_of(*probs):
    return np.array(probs)


def test_all_assumptions_hold():
    assert check_assumptions(model_of(0.5, 0.3, 0.2), 3, u=1.0, ell=0.1, k=3) == []


def test_ell_above_smallest_probability_fails():
    warnings = check_assumptions(model_of(0.5, 0.3, 0.2), 3, ell=0.25)
    assert warnings == ["assumption violated: ell exceeds the smallest probability"]
    # fewer than n probabilities list the nonzero ones: the smallest eigenvalue is 0
    assert check_assumptions(model_of(0.5, 0.3, 0.2), 4, ell=0.1) == warnings
    assert check_assumptions(model_of(0.5, 0.3, 0.2), 3, ell=0.2) == []
    assert check_assumptions(model_of(0.5, 0.3, 0.2), 4, u=0.5, k=3) == []


def test_no_model_means_unknown():
    assert check_assumptions(None, 3, u=0.1, ell=0.9, k=1) == []


def test_missing_parameters_stay_unknown():
    assert check_assumptions(model_of(0.7, 0.3), 2) == []


def test_rank_check_counts_live_probabilities():
    model = np.array([0.6, 0.4, 0.0, 0.0])
    assert check_assumptions(model, 4, k=2) == []
    assert check_assumptions(model, 4, k=1) == ["assumption violated: matrix rank exceeds the supplied k"]


def test_relative_error_examples():
    assert relative_error(0.7, 0.7) == 0.0
    assert relative_error(0.69, 0.6931) == pytest.approx(0.00447, abs=1e-5)
    with pytest.raises(ValueError):
        relative_error(0.5, 0.0)
    with pytest.raises(ValueError):
        relative_error(0.5, -1.0)


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=0.01, max_value=10),
    st.floats(min_value=0.01, max_value=100),
)
def test_relative_error_is_scale_invariant(a, b, c):
    assert relative_error(c * a, c * b) == pytest.approx(relative_error(a, b), rel=1e-12)


@st.composite
def nte_cases(draw):
    """A unit-trace descending spectrum of length 1-64, a zero padding, a u
    in [p1, 1] and a degree m in 1..60."""
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=64))
    probs = np.sort(np.array(weights))[::-1] / sum(weights)
    pad = draw(st.integers(0, 16))
    u = probs[0] + draw(st.floats(0.0, 1.0)) * (1.0 - probs[0])
    return probs, pad, min(u, 1.0), draw(st.integers(1, 60))


def assert_nte_matches_numpy_references(r, probs, u, m):
    """Both series' nte estimates on the n x n matrix r, whose spectrum is
    probs padded with zeros, against a numpy chebval sum and a double sum."""
    padded = np.concatenate([probs, np.zeros(r.n - probs.size)])
    model = probs
    cfg = EstimatorConfig(u_mode="manual", u_value=u, m_override=m, nte=True, s_override=0)

    cheb = chebyshev_entropy(r, cfg, model).estimate
    cheb_ref = -float(np.sum(chebval(2.0 * padded / u - 1.0, cheb_coefficients(u, m))))
    assert cheb == pytest.approx(cheb_ref, rel=1e-10)

    k = np.arange(1, m + 1)
    terms = np.sum(probs[:, None] * (1.0 - probs[:, None] / u) ** k / k)
    taylor_ref = math.log(1.0 / u) + float(terms)
    assert taylor_entropy(r, cfg, model).estimate == pytest.approx(taylor_ref, rel=1e-10)


@given(nte_cases())
@settings(max_examples=60, deadline=None)
def test_nte_matches_numpy_series_references(case):
    probs, pad, u, m = case
    r = diagonal_matrix(np.concatenate([probs, np.zeros(pad)]))
    assert_nte_matches_numpy_references(r, probs, u, m)


def counted_products(monkeypatch):
    """Record (matrix, columns) for every SparseSymMatrix.matmat_into call,
    which every matmat call also makes."""
    calls = []
    matmat_into = SparseSymMatrix.matmat_into

    def counting(self, x, out):
        calls.append((self, x.shape[1]))
        return matmat_into(self, x, out)

    monkeypatch.setattr(SparseSymMatrix, "matmat_into", counting)
    return calls


@pytest.mark.parametrize("m", range(1, 10))
@pytest.mark.parametrize(
    "estimator, per_probe",
    [(taylor_entropy, lambda m: math.ceil((m + 1) / 2)), (chebyshev_entropy, lambda m: math.ceil(m / 2))],
    ids=["taylor", "chebyshev"],
)
def test_probe_products_are_halved_and_never_on_r(monkeypatch, estimator, per_probe, m):
    r, model = generate_tridiagonal_poisson(16)
    calls = counted_products(monkeypatch)
    cfg = EstimatorConfig(u_mode="manual", u_value=0.3, m_override=m, s_override=3, seed=2)
    estimator(r, cfg, model)
    assert sum(cols for _, cols in calls) == 3 * per_probe(m)
    assert all(op is not r for op, _ in calls)


@pytest.mark.parametrize(
    "moments_of",
    [
        lambda op, G, m: taylor.moments(op.shifted(-1.0 / 0.7, 1.0).matmat_into, G.copy(), 0.7, m),
        lambda op, G, m: chebyshev.moments(op.shifted(4.0 / 0.7, -2.0).matmat_into, G.copy(), m),
    ],
    ids=["taylor", "chebyshev"],
)
def test_moments_at_degree_k_do_not_depend_on_m(moments_of):
    r, _ = rotated_density([0.4, 0.25, 0.2, 0.1, 0.05], RngStream(41))
    G = np.column_stack([gaussian_vector(RngStream(42).child(i), 5) for i in range(3)])
    full = moments_of(r, G, 13)
    for m in range(1, 14):
        forms = moments_of(r, G, m)
        assert np.array_equal(forms, full[:, : forms.shape[1]]), m


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("storage", ["csr", "block"])
@pytest.mark.parametrize(
    "module, buffers, scale, shift",
    [(taylor, 2, -1.0 / 0.7, 1.0), (chebyshev, 3, 4.0 / 0.7, -2.0)],
    ids=["taylor", "chebyshev"],
)
def test_moments_bits_do_not_depend_on_apply_writing_into_out(
    monkeypatch, module, buffers, scale, shift, storage, width
):
    # the probe block is one of the buffers the products rotate through
    r, _ = generate_tridiagonal_poisson(40)
    if storage == "block":
        r = SparseSymMatrix(block=r.to_dense())
    op = r.shifted(scale, shift)
    made = []

    def counted(shape):
        made.append(shape)
        return work_buffer(shape)

    monkeypatch.setattr(module, "work_buffer", counted)
    G = np.column_stack([gaussian_vector(RngStream(6).child(i), 40) for i in range(width)])
    args = (0.7,) if module is taylor else ()
    for m in (9, 10):
        made.clear()
        rotated = G.copy()
        into = module.moments(op.matmat_into, rotated, *args, m)
        fresh = module.moments(lambda x, out: op.matmat(x), G.copy(), *args, m)
        assert np.array_equal(into.view(np.int64), fresh.view(np.int64)), m
        assert made == [G.shape] * (buffers - 1) * 2
        # a one-column product of a block is a new array, so the block is kept
        assert np.array_equal(rotated, G) == (storage == "block" and width == 1)


def test_shifted_operator_shares_the_index_arrays():
    r, _ = generate_tridiagonal_poisson(8)
    y = r.shifted(-2.0, 1.0)
    np.testing.assert_array_equal(y.to_dense(), -2.0 * r.to_dense() + np.eye(8))
    assert np.shares_memory(y.csr.indices, r.csr.indices)
    assert np.shares_memory(y.csr.indptr, r.csr.indptr)
    assert not np.shares_memory(y.csr.data, r.csr.data)


def test_shifted_filled_matrix_shifts_its_diagonal_in_place():
    r, _ = rotated_density([0.5, 0.3, 0.15, 0.05], RngStream(7))
    y = r.shifted(4.0 / 0.7, -2.0)
    np.testing.assert_array_equal(y.to_dense(), 4.0 / 0.7 * r.to_dense() - 2.0 * np.eye(4))
    assert not np.shares_memory(y.block, r.block)


def test_shifted_operator_without_a_stored_diagonal_entry():
    dense = np.array([[0.0, 0.25, 0.0], [0.25, 0.5, 0.0], [0.0, 0.0, 0.5]])
    r = SparseSymMatrix(
        sp.csr_matrix(
            (np.array([0.25, 0.25, 0.5, 0.5]), np.array([1, 0, 1, 2]), np.array([0, 1, 3, 4])),
            shape=(3, 3),
        )
    )
    y = r.shifted(4.0, -2.0)
    np.testing.assert_array_equal(y.to_dense(), 4.0 * dense - 2.0 * np.eye(3))


@pytest.mark.parametrize("m", [1, 2, 7, 20, 60])
@pytest.mark.parametrize("u", ["p1", 0.5, 1.0])
def test_nte_stays_accurate_on_a_long_zero_padding(u, m):
    # The doubled moments subtract forms of order n from each other; at
    # n = 65536 with 10 nonzero eigenvalues the cancellation must stay small.
    n, probs = 65536, low_rank_probs(10, "linear")
    padded = np.concatenate([probs, np.zeros(n - probs.size)])
    r = SparseSymMatrix(sp.csr_matrix((padded, np.arange(n), np.arange(n + 1)), shape=(n, n)))
    assert_nte_matches_numpy_references(r, probs, probs[0] if u == "p1" else u, m)


@pytest.mark.parametrize("estimator", [taylor_entropy, chebyshev_entropy], ids=["taylor", "chebyshev"])
@pytest.mark.parametrize("nte", [False, True], ids=["probes", "nte"])
def test_one_pass_reads_every_degree_as_separate_runs_give_it(estimator, nte):
    # s above one probe block, so the per-degree reduction spans blocks
    r, model = rotated_density([0.4, 0.25, 0.2, 0.1, 0.05], RngStream(43))
    base = dict(u_mode="six", s_override=0 if nte else 130, nte=nte, seed=7)
    joint = estimator(r, EstimatorConfig(m_override=(9, 2, 5, 2), **base), model)
    assert joint.fields["m"] == 9 and sorted(joint.estimates) == [2, 5, 9]
    for m in (2, 5, 9):
        alone = estimator(r, EstimatorConfig(m_override=m, **base), model)
        assert joint.estimates[m] == alone.estimate and joint.fields["u"] == alone.fields["u"]
    assert joint.estimate == joint.estimates[9]


@pytest.mark.parametrize("estimator", [taylor_entropy, chebyshev_entropy], ids=["taylor", "chebyshev"])
def test_a_second_run_on_one_matrix_and_seed_runs_no_power_method(estimator, monkeypatch):
    r, model = rotated_density([0.5, 0.3, 0.2], RngStream(44))
    cfg = EstimatorConfig(u_mode="raw", m_override=4, s_override=8, seed=3)
    first = estimator(r, cfg, model)
    power_method, calls = vnentropy.report.power_method, []
    monkeypatch.setattr(vnentropy.report, "power_method", lambda *a: calls.append(a) or power_method(*a))
    again = estimator(r, cfg, model)
    assert calls == [] and repr(again) == repr(first)  # repr writes every float's bits
    # another seed or delta is another power method
    estimator(r, dataclasses.replace(cfg, seed=4), model)
    estimator(r, dataclasses.replace(cfg, delta=0.2), model)
    assert len(calls) == 2


def test_the_oracle_runs_once_per_matrix_and_its_spectrum_is_read_only(monkeypatch):
    exact_entropy, calls = vnentropy.linalg.exact_entropy, []
    monkeypatch.setattr(vnentropy.linalg, "exact_entropy", lambda r: calls.append(r) or exact_entropy(r))
    r = diagonal_matrix([0.5, 0.3, 0.2])
    first = vnentropy.report.oracle(r)
    assert vnentropy.report.oracle(r) is first and calls == [r]
    assert first[0] == exact_entropy(r)[0] and not first[1].flags.writeable
    with pytest.raises(ValueError):
        first[1][0] = 1.0


@st.composite
def permuted_cases(draw):
    """A unit-trace spectrum of length 2-16, a permutation of its indices,
    a seed and a degree m in 1..30."""
    weights = draw(st.lists(st.floats(1e-2, 1.0), min_size=2, max_size=16))
    probs = np.sort(np.array(weights))[::-1] / sum(weights)
    perm = np.array(draw(st.permutations(range(probs.size))))
    return probs, perm, draw(st.integers(0, 2**32)), draw(st.integers(1, 30))


@given(permuted_cases())
@settings(max_examples=40, deadline=None)
def test_estimates_are_invariant_under_permutation_similarity(case):
    # P R P^T with probes g estimates what R does with probes P^T g, and
    # its power method from start vectors x what R's does from P^T x.
    # Only the summation order changes, so the estimates agree to roundoff.
    probs, perm, seed, m = case
    r, _ = rotated_density(probs, RngStream(seed))
    dense = r.to_dense()
    permuted = SparseSymMatrix(block=dense[perm][:, perm])
    cfg = EstimatorConfig(u_mode="six", m_override=m, s_override=6, seed=seed)

    def unpermuted(draw):
        def drawn(stream, n, out=None):
            x = np.empty(n) if out is None else out
            x[perm] = draw(stream, n)
            return x

        return drawn

    for estimator, module in ((taylor_entropy, taylor), (chebyshev_entropy, chebyshev)):
        on_permuted = estimator(permuted, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "gaussian_vector", unpermuted(module.gaussian_vector))
            mp.setattr(vnentropy.power, "rademacher_vector", unpermuted(vnentropy.power.rademacher_vector))
            on_r = estimator(r, cfg)
        assert on_permuted.fields["u"] == pytest.approx(on_r.fields["u"], rel=1e-12)
        assert on_permuted.estimate == pytest.approx(on_r.estimate, rel=1e-9, abs=1e-12)
