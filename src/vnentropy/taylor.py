"""Entropy estimation through the truncated series
ln(1/u) + sum_{k=1..m} tr(R (I - R/u)^k) / k, with the trace replaced by a
Gaussian probe average.

For a unit-trace PSD matrix whose spectrum lies in [ell, u] the infinite
series equals the entropy exactly; truncating at
m = ceil((u/ell) ln(1/eps)) leaves a relative tail below eps.  The terms
come from the forward recurrence Q_0 = R G, Q_k = Q_{k-1} - R Q_{k-1} / u,
one sparse matvec per probe and degree.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .densmat import SparseSymMatrix, SpectralModel
from .report import EstimateReport, EstimatorConfig, PolynomialSeries, polynomial_entropy
from .rng import gaussian_vector


def default_m_taylor(u: float, ell: float, epsilon: float) -> int:
    """ceil((u / ell) * ln(1 / epsilon)), at least 1."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < ell <= u <= 1.0:
        raise ValueError(f"need 0 < ell <= u <= 1, got ell={ell}, u={u}")
    return max(1, math.ceil((u / ell) * math.log(1.0 / epsilon)))


def moments(
    apply: Callable[[np.ndarray], np.ndarray], G: np.ndarray, u: float, m: int
) -> np.ndarray:
    """b x m array whose column k-1 holds g^T R (I - R/u)^k g, k = 1..m, for
    each column g of the n x b block G; ``apply`` multiplies by R.

    Runs Q_0 = R G, Q_k = Q_{k-1} - R Q_{k-1} / u at one product per degree
    plus one.  When u bounds the spectrum every form is nonnegative up to
    roundoff.
    """
    forms = np.empty((G.shape[1], m))
    q = apply(G)
    for k in range(m):
        q -= apply(q) / u
        forms[:, k] = np.einsum("ij,ij->j", G, q)
    return forms


def taylor_entropy(
    R: SparseSymMatrix,
    cfg: EstimatorConfig,
    model: SpectralModel | None = None,
) -> EstimateReport:
    """Run the truncated-series estimator and assemble a report.

    With ``cfg.nte`` the trace terms are computed exactly from known
    eigenvalues (the attached model, else the dense oracle), isolating
    truncation error from probe noise.
    """

    def series(u: float, m: int) -> PolynomialSeries:
        return PolynomialSeries(moments, 1.0 / np.arange(1, m + 1), math.log(1.0 / u))

    # Pass this module's gaussian_vector so that wrapping it traces the probe draws.
    return polynomial_entropy(
        R, cfg, model, "taylor", default_m_taylor, series, gaussian_vector
    )
