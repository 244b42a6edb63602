import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebval

from conftest import diagonal_matrix
from vnentropy import (
    EstimatorConfig,
    SpectralModel,
    cheb_coefficients,
    chebyshev_entropy,
    check_assumptions,
    relative_error,
    taylor_entropy,
)


def model_of(*probs):
    return SpectralModel(probs=np.array(probs))


def test_all_assumptions_hold():
    checks = check_assumptions(model_of(0.5, 0.3, 0.2), u=1.0, ell=0.1, k=3)
    assert checks.u_ge_p1 is True
    assert checks.ell_le_pmin is True
    assert checks.rank_le_k is True
    assert checks.warnings() == []


def test_ell_above_smallest_probability_fails():
    checks = check_assumptions(model_of(0.5, 0.3, 0.2), ell=0.25)
    assert checks.ell_le_pmin is False
    assert any("ell" in w for w in checks.warnings())


def test_no_model_means_unknown():
    checks = check_assumptions(None, u=1.0, ell=0.1, k=2)
    assert checks.u_ge_p1 is None
    assert checks.ell_le_pmin is None
    assert checks.rank_le_k is None
    assert checks.warnings() == []


def test_missing_parameters_stay_unknown():
    checks = check_assumptions(model_of(0.7, 0.3))
    assert checks.u_ge_p1 is None and checks.ell_le_pmin is None


def test_rank_check_counts_live_probabilities():
    model = SpectralModel(probs=np.array([0.6, 0.4, 0.0, 0.0]))
    assert check_assumptions(model, k=2).rank_le_k is True
    assert check_assumptions(model, k=1).rank_le_k is False


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


@given(nte_cases())
@settings(max_examples=60, deadline=None)
def test_nte_matches_numpy_series_references(case):
    probs, pad, u, m = case
    padded = np.concatenate([probs, np.zeros(pad)])
    r = diagonal_matrix(padded)
    model = SpectralModel(probs=probs)
    cfg = EstimatorConfig(u_mode="manual", u_value=u, m_override=m, nte=True, s_override=0)

    cheb = chebyshev_entropy(r, cfg, model).estimate
    cheb_ref = -float(np.sum(chebval(2.0 * padded / u - 1.0, cheb_coefficients(u, m))))
    assert cheb == pytest.approx(cheb_ref, rel=1e-10)

    k = np.arange(1, m + 1)
    terms = np.sum(probs[:, None] * (1.0 - probs[:, None] / u) ** k / k)
    taylor_ref = math.log(1.0 / u) + float(terms)
    assert taylor_entropy(r, cfg, model).estimate == pytest.approx(taylor_ref, rel=1e-10)
