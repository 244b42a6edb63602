"""Entropy estimation through a Chebyshev expansion of h(x) = x ln x.

On [0, u] the function h has the closed-form Chebyshev series

    f_m(x) = sum_{w=0..m} alpha_w T_w((2/u) x - 1),
    alpha_0 = (u/2)(ln(u/4) + 1),
    alpha_1 = (u/4)(2 ln(u/4) + 3),
    alpha_w = (-1)^w u / (w^3 - w)   for w >= 2,

with |h - f_m| <= u / (2 m (m+1)) everywhere on the interval.  The
entropy estimate is the Gaussian probe average of -g^T f_m(R) g, each
probe evaluated by the backward (Clenshaw) recurrence at one sparse
matvec per degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densmat import SparseSymMatrix, SpectralModel
from .report import EstimateReport, EstimatorConfig, PolynomialSeries, polynomial_entropy
from .rng import gaussian_vector

DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class ChebCoefficients:
    """Series coefficients alpha_0..alpha_m for the interval [0, u]."""

    u: float
    alphas: np.ndarray

    @property
    def degree(self) -> int:
        return self.alphas.size - 1


def cheb_coefficients(u: float, m: int) -> ChebCoefficients:
    """Closed-form coefficients of the degree-m expansion of x ln x on [0, u]."""
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
    return ChebCoefficients(u=u, alphas=alphas)


def _clenshaw_scalar(coeffs: ChebCoefficients, x: np.ndarray) -> np.ndarray:
    """Clenshaw evaluation of the series at points x; no domain check."""
    a = coeffs.alphas
    xp = (2.0 / coeffs.u) * x - 1.0
    b_kp1 = np.zeros_like(xp)
    b_kp2 = np.zeros_like(xp)
    b2 = np.zeros_like(xp)
    for k in range(coeffs.degree, -1, -1):
        b = a[k] + 2.0 * xp * b_kp1 - b_kp2
        if k == 2:
            b2 = b
        b_kp2 = b_kp1
        b_kp1 = b
    return 0.5 * (a[0] + b_kp1 - b2)


def cheb_scalar_eval(coeffs: ChebCoefficients, x) -> np.ndarray | float:
    """f_m(x) for scalar or array x in [0, u].

    The final combination (alpha_0 + b_0 - b_2) / 2 reproduces the full
    series including the whole alpha_0 term.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < -DOMAIN_SLACK) or np.any(arr > coeffs.u + DOMAIN_SLACK):
        raise ValueError(f"argument outside the domain [0, {coeffs.u}]")
    out = _clenshaw_scalar(coeffs, arr)
    return float(out) if np.isscalar(x) else out


def _batched_cheb_forms(
    R: SparseSymMatrix, coeffs: ChebCoefficients, probes: np.ndarray
) -> np.ndarray:
    """g^T f_m(R) g for each probe column, one matvec batch per degree.

    Backward recurrence y_k = alpha_k g + (4/u) R y_{k+1} - 2 y_{k+1} -
    y_{k+2}, then (alpha_0 g.g + g.(y_0 - y_2)) / 2.  Only three work
    blocks are live at a time.
    """
    a = coeffs.alphas
    m = coeffs.degree
    y_kp1 = np.zeros_like(probes)
    y_kp2 = np.zeros_like(probes)
    y2 = np.zeros_like(probes)
    for k in range(m, -1, -1):
        if k == m:
            y = a[k] * probes
        else:
            y = a[k] * probes + (4.0 / coeffs.u) * R.matmat(y_kp1) - 2.0 * y_kp1 - y_kp2
        if k == 2:
            y2 = y
        y_kp2 = y_kp1
        y_kp1 = y
    y0 = y_kp1
    gg = np.einsum("ij,ij->j", probes, probes)
    return 0.5 * (a[0] * gg + np.einsum("ij,ij->j", probes, y0 - y2))


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
        coeffs = cheb_coefficients(u, m)

        def exact_trace(probs: np.ndarray) -> float:
            full = np.concatenate([probs, np.zeros(R.n - probs.size)])
            return float(_clenshaw_scalar(coeffs, full).sum())

        return PolynomialSeries(
            kernel=lambda block: _batched_cheb_forms(R, coeffs, block),
            exact_trace=exact_trace,
            finish=lambda trace: -trace,
        )

    # Pass this module's gaussian_vector so that wrapping it traces the probe draws.
    return polynomial_entropy(
        R, cfg, model, "chebyshev", default_m_cheb, series, gaussian_vector, extra
    )
