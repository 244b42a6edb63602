"""Entropy estimation through the truncated series
ln(1/u) + sum_{k=1..m} tr(R (I - R/u)^k) / k, with the trace replaced by a
Gaussian probe average.

For a unit-trace PSD matrix whose spectrum lies in [ell, u] the infinite
series equals the entropy exactly; truncating at
m = ceil((u/ell) ln(1/eps)) leaves a relative tail below eps.  Each probe
costs one sparse matvec per retained term.
"""

from __future__ import annotations

import math

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


def _batched_quadratic_forms(
    R: SparseSymMatrix, u: float, m: int, probes: np.ndarray
) -> np.ndarray:
    """sum_{k=1..m} g^T R (I - R/u)^k g / k for each probe column g.

    Maintains W = (I - R/u)^k G with one matvec batch per term: the product
    Z = R W serves both the terms G.Z/k and the next update W <- W - Z/u.
    When u bounds the spectrum every term is nonnegative up to roundoff.
    Columns never interact, so a block gives the same values as its columns
    one at a time.
    """
    if m == 0:
        return np.zeros(probes.shape[1])
    w = probes.copy()
    z = R.matmat(w)
    acc = np.zeros(probes.shape[1], dtype=np.float64)
    for k in range(1, m + 1):
        w -= z / u
        z = R.matmat(w)
        acc += np.einsum("ij,ij->j", probes, z) / k
    return acc


def taylor_series_terms(probs: np.ndarray, u: float, m: int) -> np.ndarray:
    """Exact trace terms sum_j p_j (1 - p_j/u)^k / k for k = 1..m.

    The scalar-series oracle: on a matrix with known spectrum this is what
    the probe average estimates.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    p = np.asarray(probs, dtype=np.float64)
    q = 1.0 - p / u
    terms = np.empty(m, dtype=np.float64)
    v = p * q
    for k in range(1, m + 1):
        terms[k - 1] = v.sum() / k
        v = v * q
    return terms


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
        return PolynomialSeries(
            kernel=lambda block: _batched_quadratic_forms(R, u, m, block),
            exact_trace=lambda probs: float(taylor_series_terms(probs, u, m).sum()),
            finish=lambda trace: math.log(1.0 / u) + trace,
        )

    # Pass this module's gaussian_vector so that wrapping it traces the probe draws.
    return polynomial_entropy(
        R, cfg, model, "taylor", default_m_taylor, series, gaussian_vector
    )
