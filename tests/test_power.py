import numpy as np
import pytest
import scipy.sparse

from conftest import diagonal_matrix, rotated_density
from vnentropy import EstimatorConfig, RngStream, SparseSymMatrix, default_power_params, power_method
from vnentropy.power import u_from_p1
from vnentropy.report import resolve_u
from vnentropy.rng import gaussian_vector


def test_default_params_examples():
    assert default_power_params(100, 0.1)[1] == 12
    assert default_power_params(1, 0.5)[0] == 1
    assert default_power_params(10**6, 0.5) == (8, 4)


def test_default_params_reject_bad_delta():
    for delta in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError):
            default_power_params(8, delta)


def test_power_on_scaled_identity_is_exact():
    r = diagonal_matrix([0.25] * 4)
    est = power_method(r, 3, 2, RngStream(0))
    assert est.p1_tilde == pytest.approx(0.25, abs=1e-15)


def test_power_on_rank_one_is_exact():
    psi = gaussian_vector(RngStream(5), 6)
    psi /= np.linalg.norm(psi)
    dense = np.outer(psi, psi)
    from vnentropy import SparseSymMatrix

    r = SparseSymMatrix(block=(dense + dense.T) / 2)
    est = power_method(r, 4, 3, RngStream(1))
    assert abs(est.p1_tilde - 1.0) < 1e-12


def test_power_never_exceeds_top_probability():
    r, model = rotated_density([0.5, 0.3, 0.2], RngStream(9))
    t, q = default_power_params(3, 0.1)
    for seed in range(50):
        est = power_method(r, t, q, RngStream(seed))
        assert est.p1_tilde <= model[0] + 1e-12


def test_power_lower_bound_holds_often():
    r, model = rotated_density([0.5, 0.3, 0.2], RngStream(9))
    t, q = default_power_params(3, 0.1)
    hits = sum(
        power_method(r, t, q, RngStream(seed)).p1_tilde >= model[0] / 6.0
        for seed in range(50)
    )
    assert hits >= 45


def test_power_is_deterministic():
    r, _ = rotated_density([0.4, 0.35, 0.25], RngStream(2))
    a = power_method(r, 3, 5, RngStream(11))
    b = power_method(r, 3, 5, RngStream(11))
    assert a == b


def test_u_mode_mapping():
    assert u_from_p1(0.5, "six") == 1.0
    assert u_from_p1(0.01, "six") == pytest.approx(0.06)
    assert u_from_p1(0.5, "raw") == 0.5


def test_power_on_a_zero_matrix_gives_zero_and_no_u():
    # every trial's iterate collapses, so none contributes a quotient
    r = SparseSymMatrix(csr=scipy.sparse.csr_matrix((5, 5)))
    assert power_method(r, 2, 3, RngStream(0)).p1_tilde == 0.0
    for mode in ("six", "raw"):
        with pytest.raises(ValueError, match="nonpositive estimate"):
            u_from_p1(0.0, mode)


def manual_u(value):
    return EstimatorConfig(delta=0.1, u_mode="manual", u_value=value, m_override=1)


def test_resolve_u_manual():
    r = diagonal_matrix([0.5, 0.5])
    assert resolve_u(r, manual_u(1.0)) == (1.0, None)
    with pytest.raises(ValueError):
        resolve_u(r, manual_u(1.5))
    with pytest.raises(ValueError):
        resolve_u(r, manual_u(0.0))


def test_resolve_u_six_covers_p1_when_lower_bound_holds():
    r, model = rotated_density([0.3, 0.3, 0.2, 0.2], RngStream(4))
    for seed in range(20):
        cfg = EstimatorConfig(delta=0.1, u_mode="six", m_override=1, seed=seed)
        u, pe = resolve_u(r, cfg)
        assert pe == power_method(r, *default_power_params(4, 0.1), RngStream(seed).child(0))
        p1t = pe.p1_tilde
        if p1t >= model[0] / 6.0:  # conditional guarantee
            assert u >= model[0] - 1e-12


def test_power_validates_t_and_q():
    r = diagonal_matrix([1.0])
    with pytest.raises(ValueError):
        power_method(r, 0, 1, RngStream(0))
    with pytest.raises(ValueError):
        power_method(r, 1, 0, RngStream(0))
