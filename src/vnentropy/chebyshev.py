"""Entropy estimation through a Chebyshev expansion of h(x) = x ln x.

On [0, u] the function h has the closed-form Chebyshev series

    f_m(x) = sum_{w=0..m} alpha_w T_w((2/u) x - 1),
    alpha_0 = (u/2)(ln(u/4) + 1),
    alpha_1 = (u/4)(2 ln(u/4) + 3),
    alpha_w = (-1)^w u / (w^3 - w)   for w >= 2,

with |h - f_m| <= u / (2 m (m+1)) everywhere on the interval.  The
entropy estimate is the Gaussian probe average of -g^T f_m(R) g
= -sum_w alpha_w g^T T_w((2/u) R - I) g, with the moments g^T T_w g taken
from the forward three-term recurrence at one sparse matvec per probe
and degree (as in the kernel polynomial method).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .densmat import SparseSymMatrix, SpectralModel
from .report import EstimateReport, EstimatorConfig, PolynomialSeries, polynomial_entropy
from .rng import gaussian_vector

def cheb_coefficients(u: float, m: int) -> np.ndarray:
    """Closed-form coefficients alpha_0..alpha_m of the degree-m expansion
    of x ln x on [0, u]."""
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must lie in (0, 1], got {u}")
    if m < 1:
        raise ValueError("degree m must be at least 1 (alpha_1 is required)")
    w = np.arange(2, m + 1, dtype=np.float64)
    alphas = np.empty(m + 1, dtype=np.float64)
    alphas[0] = (u / 2.0) * (math.log(u / 4.0) + 1.0)
    alphas[1] = (u / 4.0) * (2.0 * math.log(u / 4.0) + 3.0)
    if m >= 2:
        alphas[2:] = np.where(w % 2 == 0, u, -u) / (w**3 - w)
    return alphas


def moments(
    apply: Callable[[np.ndarray], np.ndarray], G: np.ndarray, u: float, m: int
) -> np.ndarray:
    """b x (m+1) array whose column k holds g^T T_k((2/u) R - I) g,
    k = 0..m, for each column g of the n x b block G; ``apply`` multiplies
    by R.

    Forward recurrence T_0 = G, T_1 = (2/u) R G - G,
    T_{k+1} = (4/u) R T_k - 2 T_k - T_{k-1}, one product per degree, each
    new block updated in place.
    """
    forms = np.empty((G.shape[1], m + 1))
    forms[:, 0] = np.einsum("ij,ij->j", G, G)
    t_prev, t = G, apply(G)
    t *= 2.0 / u
    t -= G
    for k in range(1, m + 1):
        forms[:, k] = np.einsum("ij,ij->j", G, t)
        if k == m:
            break
        z = apply(t)
        z *= 4.0 / u
        z -= t
        z -= t
        z -= t_prev
        t_prev, t = t, z
    return forms


def default_m_cheb(u: float, ell: float, epsilon: float) -> int:
    """ceil(sqrt(u / (2 eps ell ln(1/(1-ell))))), at least 1."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < ell <= u <= 1.0 or ell >= 1.0:
        raise ValueError(f"need 0 < ell <= u <= 1 and ell < 1, got ell={ell}, u={u}")
    m = math.sqrt(u / (2.0 * epsilon * ell * math.log(1.0 / (1.0 - ell))))
    return max(1, math.ceil(m))


def chebyshev_entropy(
    R: SparseSymMatrix,
    cfg: EstimatorConfig,
    model: SpectralModel | None = None,
) -> EstimateReport:
    """Run the Chebyshev estimator: -(1/s) sum_i g_i^T f_m(R) g_i.

    In ``nte`` mode the trace of f_m(R) is summed exactly over known
    eigenvalues (zero-padded to the full dimension, where f_m is still
    defined), isolating truncation error from probe noise.
    """
    extra = ()
    if (
        cfg.ell is not None
        and model is not None
        and model.probs is not None
        and model.probs[0] > 1.0 - cfg.ell
    ):
        extra = ("assumption violated: top probability exceeds 1 - ell",)

    def series(u: float, m: int) -> PolynomialSeries:
        return PolynomialSeries(moments, -cheb_coefficients(u, m), 0.0)

    # Pass this module's gaussian_vector so that wrapping it traces the probe draws.
    return polynomial_entropy(
        R, cfg, model, "chebyshev", default_m_cheb, series, gaussian_vector, extra
    )
