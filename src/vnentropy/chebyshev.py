"""Entropy estimation through a Chebyshev expansion of h(x) = x ln x.

On [0, u] the function h has the closed-form Chebyshev series

    f_m(x) = sum_{w=0..m} alpha_w T_w((2/u) x - 1),
    alpha_0 = (u/2)(ln(u/4) + 1),
    alpha_1 = (u/4)(2 ln(u/4) + 3),
    alpha_w = (-1)^w u / (w^3 - w)   for w >= 2,

with |h - f_m| <= u / (2 m (m+1)) everywhere on the interval.  The
entropy estimate is the Gaussian probe average of -g^T f_m(R) g
= -sum_w alpha_w g^T T_w(X) g, X = (2/u) R - I.  The moments g^T T_w(X) g
come from the three-term recurrence on the shifted operator
2X = (4/u) R - 2I, built once per run, and from the kernel polynomial
method's doubling identities for symmetric X (Weisse et al., Rev. Mod.
Phys. 78, 275, 2006), so degrees 0..m cost ceil(m/2) sparse matvecs per
probe.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .densmat import SparseSymMatrix, SpectralModel
from .report import EstimatorConfig, PolynomialSeries, RunRecord, polynomial_entropy
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


def moments(apply: Callable[[np.ndarray], np.ndarray], G: np.ndarray, m: int) -> np.ndarray:
    """b x (m+1) array whose column k holds mu_k = g^T T_k(X) g, k = 0..m,
    for each column g of the n x b block G; ``apply`` multiplies by 2X.

    Runs T_1 = (2X G) / 2, T_{k+1} = 2X T_k - T_{k-1} up to T_{ceil(m/2)},
    one product each, and takes mu_{2k} = 2 |T_k|^2 - mu_0 and
    mu_{2k+1} = 2 T_{k+1} . T_k - mu_1.  Column k does not depend on m.
    """
    forms = np.empty((G.shape[1], m + 1))
    forms[:, 0] = np.einsum("ij,ij->j", G, G)
    t_prev, t = G, apply(G)
    t *= 0.5
    forms[:, 1] = np.einsum("ij,ij->j", G, t)
    for k in range(1, m // 2 + 1):
        forms[:, 2 * k] = 2.0 * np.einsum("ij,ij->j", t, t) - forms[:, 0]
        if 2 * k < m:
            z = apply(t)
            z -= t_prev
            t_prev, t = t, z
            forms[:, 2 * k + 1] = 2.0 * np.einsum("ij,ij->j", t, t_prev) - forms[:, 1]
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
) -> RunRecord:
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
        return PolynomialSeries(
            partial(moments, m=m), -cheb_coefficients(u, m), 0.0, scale=4.0 / u, shift=-2.0
        )

    # Pass this module's gaussian_vector so that wrapping it traces the probe draws.
    return polynomial_entropy(
        R, cfg, model, "chebyshev", default_m_cheb, series, gaussian_vector, extra
    )
