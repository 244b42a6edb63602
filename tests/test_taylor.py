import math

import numpy as np
import pytest

from conftest import diagonal_matrix, rotated_density
from vnentropy import (
    EstimatorConfig,
    RngStream,
    default_m_taylor,
    entropy_from_probs,
    generate_linear_plus_uniform,
    generate_tridiagonal_poisson,
    taylor_entropy,
)
from vnentropy.rng import gaussian_vector
from vnentropy.taylor import moments


def single_form(r, u, m, g):
    """sum_k g^T R (I - R/u)^k g / k for one probe, from the moments of a
    1-column block summed in degree order."""
    y = r.shifted(-1.0 / u, 1.0)
    forms = moments(y.matmat_into, np.array(g, dtype=np.float64)[:, None], u, m)[0]
    return float(sum(f / k for k, f in enumerate(forms, start=1)))


def series_terms(probs, u, m):
    """sum_j p_j (1 - p_j/u)^k / k for k = 1..m: the exact trace terms,
    computed directly from the eigenvalues."""
    p = np.asarray(probs, dtype=np.float64)[:, None]
    k = np.arange(1, m + 1)
    return np.sum(p * (1.0 - p / u) ** k, axis=0) / k


def test_default_m_examples():
    assert default_m_taylor(1.0, 0.5, math.exp(-1)) == 2
    assert default_m_taylor(1.0, 1.0, 0.1) == math.ceil(math.log(10))
    assert default_m_taylor(0.06, 0.01, 0.1) == 14


def test_default_m_rejects_ell_above_u():
    with pytest.raises(ValueError):
        default_m_taylor(0.05, 0.1, 0.5)


def test_quadratic_form_scaled_identity_unit_probes():
    r = diagonal_matrix([0.5, 0.5])
    e1, e2 = np.eye(2)
    total = single_form(r, 1.0, 10, e1) + single_form(r, 1.0, 10, e2)
    assert total == pytest.approx(0.693065, abs=1e-6)


def test_quadratic_form_empty_sum():
    r = diagonal_matrix([0.5, 0.5])
    assert single_form(r, 1.0, 0, np.ones(2)) == 0.0


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_diagonal_matrix_pins_the_matvec_schedule(seed):
    # independent scalar oracle: for diagonal R the form factorizes per entry
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    u, m = 0.9, 17
    r = diagonal_matrix(probs)
    g = gaussian_vector(RngStream(seed), 4)
    expected = 0.0
    for j, p in enumerate(probs):
        q = 1.0 - p / u
        expected += g[j] ** 2 * sum(p * q**k / k for k in range(1, m + 1))
    got = single_form(r, u, m, g)
    assert got == pytest.approx(expected, rel=1e-10)


def test_batched_probes_match_single_probe_path():
    r, _ = rotated_density([0.5, 0.3, 0.2], RngStream(1))
    probes = np.column_stack([gaussian_vector(RngStream(2).child(i), 3) for i in range(5)])
    y = r.shifted(-1.0, 1.0)
    batched = moments(y.matmat_into, probes.copy(), 1.0, 8)
    single = np.vstack(
        [moments(y.matmat_into, probes[:, i : i + 1].copy(), 1.0, 8) for i in range(5)]
    )
    assert np.allclose(batched, single, rtol=1e-13, atol=1e-15)


def test_moments_match_eigendecomposition_at_every_degree():
    r, _ = rotated_density([0.4, 0.25, 0.2, 0.1, 0.05], RngStream(31))
    u, m = 0.8, 17
    lam, v = np.linalg.eigh(r.to_dense())
    G = np.column_stack([gaussian_vector(RngStream(32).child(i), 5) for i in range(3)])
    forms = moments(r.shifted(-1.0 / u, 1.0).matmat_into, G.copy(), u, m)
    assert forms.shape == (3, m)
    y = v.T @ G
    for k in range(1, m + 1):
        expected = np.sum(y**2 * (lam * (1.0 - lam / u) ** k)[:, None], axis=0)
        np.testing.assert_allclose(forms[:, k - 1], expected, rtol=1e-10, atol=1e-12)


def test_terms_nonnegative_when_u_covers_spectrum():
    r, _ = rotated_density([0.45, 0.35, 0.2], RngStream(3))
    for seed in range(10):
        g = gaussian_vector(RngStream(seed, 77), 3)
        values = np.array([single_form(r, 1.0, m, g) for m in range(1, 21)])
        # every term is nonnegative, so the value grows with m at a fixed probe
        assert values[0] >= -1e-10
        assert np.all(np.diff(values) >= -1e-12)


def test_nte_half_identity_matches_scalar_series():
    r = diagonal_matrix([0.5, 0.5])
    cfg = EstimatorConfig(u_mode="manual", u_value=1.0, m_override=10, nte=True, s_override=0)
    rep = taylor_entropy(r, cfg)
    assert rep.estimate == pytest.approx(0.693065, abs=1e-6)
    assert (rep.fields["s"], rep.fields["m"], rep.fields["u"]) == (0, 10, 1.0)


def test_nte_quarter_identity_converges():
    r = diagonal_matrix([0.25] * 4)
    cfg = EstimatorConfig(u_mode="manual", u_value=1.0, m_override=40, nte=True, s_override=0)
    rep = taylor_entropy(r, cfg)
    assert abs(rep.estimate - math.log(4)) <= 4e-4


def test_nte_on_diagonal_equals_scalar_series_for_any_m():
    probs = np.array([0.35, 0.3, 0.2, 0.15])
    r = diagonal_matrix(probs)
    for m in (1, 5, 23):
        cfg = EstimatorConfig(u_mode="manual", u_value=0.8, m_override=m, nte=True, s_override=0)
        rep = taylor_entropy(r, cfg)
        expected = math.log(1 / 0.8) + series_terms(probs, 0.8, m).sum()
        assert rep.estimate == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("epsilon", [0.5, 0.1])
def test_truncated_series_approaches_entropy_from_below(epsilon):
    _, model = generate_linear_plus_uniform(64, 8, RngStream(5))
    probs = model
    exact = entropy_from_probs(probs, 1e-14)
    u = 1.0
    m = default_m_taylor(u, model[-1], epsilon)
    y = 1.0 - probs / u
    forms = moments(
        lambda x, out: np.multiply(y[:, None], x, out=out), np.ones((probs.size, 1)), u, m
    )[0]
    partials = math.log(1 / u) + np.cumsum(forms / np.arange(1, m + 1))
    assert np.all(np.diff(partials) >= -1e-15)  # monotone from below
    gap = exact - partials[-1]
    assert -1e-10 <= gap <= epsilon * exact


def test_full_estimator_is_deterministic_and_reported():
    r, model = rotated_density([0.4, 0.3, 0.2, 0.1], RngStream(8))
    cfg = EstimatorConfig(epsilon=0.3, delta=0.2, ell=0.1, seed=4)
    a = taylor_entropy(r, cfg, model)
    b = taylor_entropy(r, cfg, model)
    assert a.estimate == b.estimate
    assert a.fields["method"] == "taylor" and a.exact is not None and a.rel_err is not None
    assert a.warnings == ()


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(ell=None)  # ell required without m override
    with pytest.raises(ValueError):
        EstimatorConfig(ell=0.1, s_override=0)  # s=0 only with nte
    with pytest.raises(ValueError):
        EstimatorConfig(ell=0.1, epsilon=1.5)
    with pytest.raises(ValueError):
        EstimatorConfig(ell=0.1, u_mode="manual", u_value=None)


def test_raw_u_mode_is_flagged_as_heuristic():
    r, model = rotated_density([0.5, 0.3, 0.2], RngStream(2))
    cfg = EstimatorConfig(ell=0.1, u_mode="raw", m_override=5, s_override=8, seed=0)
    rep = taylor_entropy(r, cfg, model)
    assert any("heuristic" in w for w in rep.warnings)


def test_assumption_violation_is_reported_not_raised():
    r, model = rotated_density([0.6, 0.4], RngStream(6))
    cfg = EstimatorConfig(u_mode="manual", u_value=0.5, m_override=10, s_override=8, seed=1)
    rep = taylor_entropy(r, cfg, model)
    assert "assumption violated: u is below the top probability p1" in rep.warnings
    assert any("assumption violated" in w for w in rep.warnings)


@pytest.mark.parametrize("u_mode", ["manual", "raw"])
def test_nte_series_stays_exact_when_u_is_below_p1(u_mode):
    # with u < p1 the top eigenvalues lie outside [0, u], where a Chebyshev
    # basis on [0, u] grows exponentially; the Taylor recurrence must keep
    # the series' own digits there (raw u/p1 is about 0.96 at this n)
    matrix, probs = generate_tridiagonal_poisson(1024)
    cfg = EstimatorConfig(
        u_mode=u_mode, u_value=0.9 * probs[0] if u_mode == "manual" else None,
        m_override=(100, 200), nte=True, seed=0,
    )
    rec = taylor_entropy(matrix, cfg, probs)
    u = rec.fields["u"]
    assert u < probs[0]
    for m in (100, 200):
        direct = math.log(1.0 / u) + float(np.sum(series_terms(probs, u, m)))
        assert abs(rec.estimates[m] - direct) <= 1e-12 * abs(direct), m
