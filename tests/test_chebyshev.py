import math

import numpy as np
import pytest

from conftest import diagonal_matrix, rotated_density
from numpy.polynomial.chebyshev import chebval
from vnentropy import (
    EstimatorConfig,
    RngStream,
    cheb_coefficients,
    chebyshev_entropy,
    default_m_cheb,
    entropy_from_probs,
    generate_low_rank_density,
)
from vnentropy.chebyshev import moments
from vnentropy.rng import gaussian_vector, uniform_doubles


def single_form(r, u, alphas, g):
    """g^T f_m(R) g for one probe: the moments of a 1-column block
    contracted with the coefficients in degree order."""
    x2 = r.shifted(4.0 / u, -2.0)
    forms = moments(x2.matmat_into, np.array(g, dtype=np.float64)[:, None], alphas.size - 1)[0]
    return float(sum(a * f for a, f in zip(alphas, forms)))


def series_at(u, alphas, x):
    """f_m(x) by numpy's Clenshaw evaluation, an independent reference."""
    return chebval((2.0 / u) * np.asarray(x, dtype=np.float64) - 1.0, alphas)


def nte_series_at(u, alphas, x):
    """f_m(x) through the estimator's nte route on the 1x1 diagonal [x]."""
    cfg = EstimatorConfig(
        u_mode="manual", u_value=u, m_override=alphas.size - 1, nte=True, s_override=0
    )
    return -chebyshev_entropy(diagonal_matrix([x]), cfg, np.array([x])).estimate


def direct_series(u, alphas, x):
    """Independent oracle: explicit cosine form of the Chebyshev series."""
    y = np.clip((2.0 / u) * x - 1.0, -1.0, 1.0)
    return sum(a * np.cos(w * np.arccos(y)) for w, a in enumerate(alphas))


def h(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)


def test_coefficient_closed_forms_at_u_one():
    c = cheb_coefficients(1.0, 4)
    assert c[0] == pytest.approx((1 - math.log(4)) / 2, abs=1e-15)
    assert c[0] == pytest.approx(-0.193147, abs=1e-6)
    assert c[1] == pytest.approx((3 - 2 * math.log(4)) / 4, abs=1e-15)
    assert c[1] == pytest.approx(0.056853, abs=1e-6)
    assert c[2] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert c[3] == pytest.approx(-1.0 / 24.0, abs=1e-15)


def test_coefficients_require_degree_one():
    with pytest.raises(ValueError):
        cheb_coefficients(1.0, 0)
    with pytest.raises(ValueError):
        cheb_coefficients(0.0, 3)


def test_series_at_endpoints():
    c = cheb_coefficients(1.0, 10)
    assert nte_series_at(1.0, c, 1.0) == pytest.approx(4.3e-4, abs=1e-5)
    for m in (2, 5, 10, 30):
        bound = 1.0 / (2 * m * (m + 1))
        assert abs(nte_series_at(1.0, cheb_coefficients(1.0, m), 0.0)) <= bound + 1e-12


def test_series_quarter_point_within_truncation_bound():
    c = cheb_coefficients(1.0, 10)
    assert abs(nte_series_at(1.0, c, 0.25) - 0.25 * math.log(0.25)) <= 1.0 / 220.0


def test_recurrence_matches_direct_cosine_series():
    stream = RngStream(21)
    for _ in range(200):
        u = 0.05 + 0.95 * uniform_doubles(stream, 1)[0]
        m = 1 + int(uniform_doubles(stream, 1)[0] * 40)
        x = u * uniform_doubles(stream, 1)[0]
        c = cheb_coefficients(u, m)
        a = nte_series_at(u, c, x)
        b = direct_series(u, c, x)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def test_truncation_bound_subset_of_grid():
    x = np.linspace(0.0, 0.5, 2001)
    for m in (2, 10):
        c = cheb_coefficients(0.5, m)
        err = np.max(np.abs(h(x) - series_at(0.5, c, x)))
        assert err <= 0.5 / (2 * m * (m + 1)) + 1e-12


def test_quadratic_form_zero_probe():
    r = diagonal_matrix([0.5, 0.5])
    assert single_form(r, 1.0, cheb_coefficients(1.0, 6), np.zeros(2)) == 0.0


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_quadratic_form_diagonal_oracle(seed):
    probs = np.array([0.45, 0.3, 0.15, 0.1])
    r = diagonal_matrix(probs)
    c = cheb_coefficients(0.9, 13)
    g = gaussian_vector(RngStream(seed), 4)
    expected = float(np.sum(g**2 * series_at(0.9, c, probs)))
    got = single_form(r, 0.9, c, g)
    assert got == pytest.approx(expected, rel=1e-10)


def test_degree_one_recurrence_hand_expansion():
    r, _ = rotated_density([0.6, 0.4], RngStream(14))
    c = cheb_coefficients(1.0, 1)
    g = gaussian_vector(RngStream(15), 2)
    dense = r.to_dense()
    mapped = 2.0 * dense - np.eye(2)
    expected = c[0] * float(g @ g) + c[1] * float(g @ (mapped @ g))
    assert single_form(r, 1.0, c, g) == pytest.approx(expected, rel=1e-12)


def test_moments_match_eigendecomposition_at_every_degree():
    r, _ = rotated_density([0.4, 0.25, 0.2, 0.1, 0.05], RngStream(31))
    u, m = 0.8, 17
    lam, v = np.linalg.eigh(r.to_dense())
    G = np.column_stack([gaussian_vector(RngStream(32).child(i), 5) for i in range(3)])
    forms = moments(r.shifted(4.0 / u, -2.0).matmat_into, G.copy(), m)
    assert forms.shape == (3, m + 1)
    y = v.T @ G
    for k in range(m + 1):
        t_k = np.cos(k * np.arccos(np.clip(2.0 * lam / u - 1.0, -1.0, 1.0)))
        expected = np.sum(y**2 * t_k[:, None], axis=0)
        np.testing.assert_allclose(forms[:, k], expected, rtol=1e-10, atol=1e-12)


def test_moments_of_a_block_match_its_columns():
    r, _ = rotated_density([0.5, 0.3, 0.2], RngStream(1))
    G = np.column_stack([gaussian_vector(RngStream(2).child(i), 3) for i in range(5)])
    x2 = r.shifted(4.0, -2.0)
    block = moments(x2.matmat_into, G.copy(), 8)
    single = np.vstack([moments(x2.matmat_into, G[:, i : i + 1].copy(), 8) for i in range(5)])
    assert np.allclose(block, single, rtol=1e-13, atol=1e-15)


def test_default_m_examples():
    assert default_m_cheb(1.0, 0.5, 0.5) == 2
    assert default_m_cheb(0.06, 0.01, 0.1) == 55
    assert default_m_cheb(0.3, 0.3, 0.2) >= 1  # uniform spectrum stays finite
    with pytest.raises(ValueError):
        default_m_cheb(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        default_m_cheb(0.5, 0.6, 0.5)


def test_nte_half_identity_within_truncation_bound():
    r = diagonal_matrix([0.5, 0.5])
    cfg = EstimatorConfig(u_mode="manual", u_value=1.0, m_override=30, nte=True, s_override=0)
    rep = chebyshev_entropy(r, cfg)
    assert abs(rep.estimate - math.log(2)) <= 2.0 / (2 * 30 * 31) + 1e-12


def test_nte_matches_scalar_sum_on_known_spectrum():
    r, model = rotated_density([0.4, 0.3, 0.2, 0.1], RngStream(3))
    cfg = EstimatorConfig(u_mode="manual", u_value=1.0, m_override=12, nte=True, s_override=0)
    rep = chebyshev_entropy(r, cfg, model)
    c = cheb_coefficients(1.0, 12)
    expected = -float(np.sum(series_at(1.0, c, model)))
    assert rep.estimate == pytest.approx(expected, rel=1e-10)


def test_nte_bound_holds_with_zero_probabilities():
    # rank-deficient input: the truncation bound covers p_i = 0 as well
    r, model = generate_low_rank_density(32, 4, "exponential", RngStream(6))
    m = 20
    cfg = EstimatorConfig(u_mode="manual", u_value=1.0, m_override=m, nte=True, s_override=0)
    rep = chebyshev_entropy(r, cfg, model)
    exact = entropy_from_probs(model, 1e-14)
    assert abs(rep.estimate - exact) <= 32 * 1.0 / (2 * m * (m + 1)) + 1e-12


def test_negated_series_stays_positive_inside_assumed_interval():
    ell, eps = 0.05, 0.5
    m = default_m_cheb(1.0, ell, eps)
    c = cheb_coefficients(1.0, m)
    x = np.linspace(ell, 1.0 - ell, 4001)
    floor = (1.0 - eps) * ell * math.log(1.0 / (1.0 - ell))
    assert np.min(-series_at(1.0, c, x)) >= floor - 1e-12


def test_full_estimator_deterministic_and_batched_consistent():
    r, model = rotated_density([0.4, 0.3, 0.2, 0.1], RngStream(2))
    cfg = EstimatorConfig(epsilon=0.4, delta=0.2, ell=0.1, seed=9)
    a = chebyshev_entropy(r, cfg, model)
    assert a.estimate == chebyshev_entropy(r, cfg, model).estimate
    assert a.fields["method"] == "chebyshev" and a.rel_err is not None


def test_top_probability_near_one_is_flagged():
    r, model = rotated_density([0.9, 0.1], RngStream(4))
    cfg = EstimatorConfig(
        ell=0.2, u_mode="manual", u_value=1.0, m_override=8, s_override=4, seed=0
    )
    rep = chebyshev_entropy(r, cfg, model)
    assert any("1 - ell" in w for w in rep.warnings)


def test_nte_pads_the_known_spectrum_with_zeros():
    probs = np.array([0.7, 0.3])
    r = diagonal_matrix([0.7, 0.3, 0.0, 0.0, 0.0])
    cfg = EstimatorConfig(u_mode="manual", u_value=0.7, m_override=9, nte=True, s_override=0)
    rep = chebyshev_entropy(r, cfg, probs)
    c = cheb_coefficients(0.7, 9)
    expected = -float(np.sum(series_at(0.7, c, [0.7, 0.3, 0.0, 0.0, 0.0])))
    assert rep.estimate == pytest.approx(expected, rel=1e-12)
