import math

import numpy as np
import pytest

from conftest import diagonal_matrix, rotated_density
from vnentropy import (
    EstimatorConfig,
    RngStream,
    cheb_coefficients,
    cheb_scalar_eval,
    chebyshev_entropy,
    default_m_cheb,
    entropy_from_probs,
    generate_low_rank_density,
)
from vnentropy.chebyshev import _batched_cheb_forms, _clenshaw_scalar
from vnentropy.rng import gaussian_vector, uniform_doubles


def single_form(r, coeffs, g):
    """g^T f_m(R) g for one probe, run through the block kernel as a 1-column block."""
    return float(_batched_cheb_forms(r, coeffs, np.asarray(g, dtype=np.float64)[:, None])[0])


def direct_series(u, alphas, x):
    """Independent oracle: explicit cosine form of the Chebyshev series."""
    y = np.clip((2.0 / u) * x - 1.0, -1.0, 1.0)
    return sum(a * np.cos(w * np.arccos(y)) for w, a in enumerate(alphas))


def h(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)


def test_coefficient_closed_forms_at_u_one():
    c = cheb_coefficients(1.0, 4)
    assert c.alphas[0] == pytest.approx((1 - math.log(4)) / 2, abs=1e-15)
    assert c.alphas[0] == pytest.approx(-0.193147, abs=1e-6)
    assert c.alphas[1] == pytest.approx((3 - 2 * math.log(4)) / 4, abs=1e-15)
    assert c.alphas[1] == pytest.approx(0.056853, abs=1e-6)
    assert c.alphas[2] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert c.alphas[3] == pytest.approx(-1.0 / 24.0, abs=1e-15)


def test_coefficients_require_degree_one():
    with pytest.raises(ValueError):
        cheb_coefficients(1.0, 0)
    with pytest.raises(ValueError):
        cheb_coefficients(0.0, 3)


def test_scalar_eval_at_endpoints():
    c = cheb_coefficients(1.0, 10)
    assert cheb_scalar_eval(c, 1.0) == pytest.approx(4.3e-4, abs=1e-5)
    for m in (2, 5, 10, 30):
        cm = cheb_coefficients(1.0, m)
        bound = 1.0 / (2 * m * (m + 1))
        assert abs(cheb_scalar_eval(cm, 0.0)) <= bound + 1e-12


def test_scalar_eval_quarter_point_within_truncation_bound():
    c = cheb_coefficients(1.0, 10)
    assert abs(cheb_scalar_eval(c, 0.25) - 0.25 * math.log(0.25)) <= 1.0 / 220.0


def test_scalar_eval_domain_error():
    c = cheb_coefficients(0.5, 5)
    with pytest.raises(ValueError):
        cheb_scalar_eval(c, 0.6)
    with pytest.raises(ValueError):
        cheb_scalar_eval(c, -0.1)


def test_clenshaw_matches_direct_cosine_series():
    stream = RngStream(21)
    for _ in range(200):
        u = 0.05 + 0.95 * uniform_doubles(stream, 1)[0]
        m = 1 + int(uniform_doubles(stream, 1)[0] * 40)
        x = u * uniform_doubles(stream, 1)[0]
        c = cheb_coefficients(u, m)
        a = cheb_scalar_eval(c, x)
        b = direct_series(u, c.alphas, x)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def test_truncation_bound_subset_of_grid():
    x = np.linspace(0.0, 0.5, 2001)
    for m in (2, 10):
        c = cheb_coefficients(0.5, m)
        err = np.max(np.abs(h(x) - cheb_scalar_eval(c, x)))
        assert err <= 0.5 / (2 * m * (m + 1)) + 1e-12


def test_quadratic_form_zero_probe():
    r = diagonal_matrix([0.5, 0.5])
    c = cheb_coefficients(1.0, 6)
    assert single_form(r, c, np.zeros(2)) == 0.0


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_quadratic_form_diagonal_oracle(seed):
    probs = np.array([0.45, 0.3, 0.15, 0.1])
    r = diagonal_matrix(probs)
    c = cheb_coefficients(0.9, 13)
    g = gaussian_vector(RngStream(seed), 4)
    expected = float(np.sum(g**2 * cheb_scalar_eval(c, probs)))
    got = single_form(r, c, g)
    assert got == pytest.approx(expected, rel=1e-10)


def test_degree_one_recurrence_hand_expansion():
    r, _ = rotated_density([0.6, 0.4], RngStream(14))
    c = cheb_coefficients(1.0, 1)
    g = gaussian_vector(RngStream(15), 2)
    dense = r.to_dense()
    mapped = (2.0 / c.u) * dense - np.eye(2)
    expected = c.alphas[0] * float(g @ g) + c.alphas[1] * float(g @ (mapped @ g))
    assert single_form(r, c, g) == pytest.approx(expected, rel=1e-12)


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
    expected = -float(np.sum(cheb_scalar_eval(c, model.probs)))
    assert rep.estimate == pytest.approx(expected, rel=1e-10)


def test_nte_bound_holds_with_zero_probabilities():
    # rank-deficient input: the truncation bound covers p_i = 0 as well
    r, model = generate_low_rank_density(32, 4, "exponential", RngStream(6))
    m = 20
    cfg = EstimatorConfig(u_mode="manual", u_value=1.0, m_override=m, nte=True, s_override=0)
    rep = chebyshev_entropy(r, cfg, model)
    exact = entropy_from_probs(model.probs, 1e-14)
    assert abs(rep.estimate - exact) <= 32 * 1.0 / (2 * m * (m + 1)) + 1e-12


def test_negated_series_stays_positive_inside_assumed_interval():
    ell, eps = 0.05, 0.5
    m = default_m_cheb(1.0, ell, eps)
    c = cheb_coefficients(1.0, m)
    x = np.linspace(ell, 1.0 - ell, 4001)
    floor = (1.0 - eps) * ell * math.log(1.0 / (1.0 - ell))
    assert np.min(-cheb_scalar_eval(c, x)) >= floor - 1e-12


def test_full_estimator_deterministic_and_batched_consistent():
    r, model = rotated_density([0.4, 0.3, 0.2, 0.1], RngStream(2))
    cfg = EstimatorConfig(epsilon=0.4, delta=0.2, ell=0.1, seed=9)
    a = chebyshev_entropy(r, cfg, model)
    assert a.estimate == chebyshev_entropy(r, cfg, model).estimate
    assert a.method == "chebyshev" and a.rel_err is not None


def test_top_probability_near_one_is_flagged():
    r, model = rotated_density([0.9, 0.1], RngStream(4))
    cfg = EstimatorConfig(
        ell=0.2, u_mode="manual", u_value=1.0, m_override=8, s_override=4, seed=0
    )
    rep = chebyshev_entropy(r, cfg, model)
    assert any("1 - ell" in w for w in rep.warnings)


def test_unchecked_internal_eval_handles_padded_zeros():
    c = cheb_coefficients(0.7, 9)
    vals = _clenshaw_scalar(c, np.array([0.0, 0.35, 0.7]))
    assert np.allclose(vals, cheb_scalar_eval(c, np.array([0.0, 0.35, 0.7])))
