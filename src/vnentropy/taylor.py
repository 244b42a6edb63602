"""Entropy estimation through the truncated series
ln(1/u) + sum_{k=1..m} tr(R (I - R/u)^k) / k, with the trace replaced by a
Gaussian probe average.

For a unit-trace PSD matrix whose spectrum lies in [ell, u] the infinite
series equals the entropy exactly; truncating at
m = ceil((u/ell) ln(1/eps)) leaves a relative tail below eps.  The terms
are products with the shifted operator Y = I - R/u, built once per run:
since R = u (I - Y) and Y is symmetric, the term g^T R Y^k g equals
u (nu_k - nu_{k+1}) with nu_{2j} = |Y^j g|^2 and nu_{2j+1} = Y^j g . Y^{j+1} g,
so degrees 1..m cost ceil((m+1)/2) sparse matvecs per probe.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .densmat import SparseSymMatrix, work_buffer
from .report import EstimatorConfig, PolynomialSeries, RunRecord, polynomial_entropy
from .rng import gaussian_vector


def default_m_taylor(u: float, ell: float, epsilon: float) -> int:
    """ceil((u / ell) * ln(1 / epsilon)), at least 1."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < ell <= u <= 1.0:
        raise ValueError(f"need 0 < ell <= u <= 1, got ell={ell}, u={u}")
    return max(1, math.ceil((u / ell) * math.log(1.0 / epsilon)))


def moments(
    apply: Callable[[np.ndarray, np.ndarray], np.ndarray], G: np.ndarray, u: float, m: int
) -> np.ndarray:
    """b x m array whose column k-1 holds g^T R Y^k g, Y = I - R/u, k = 1..m,
    for each column g of the n x b block G; ``apply(x, out)`` returns Y x,
    written into ``out`` where it can (as ``matmat_into``).

    Takes nu_1..nu_{m+1}, nu_j = g^T Y^j g, from the powers Y^j G at
    ceil((m+1)/2) products, and returns u (nu_k - nu_{k+1}).  The products
    alternate between two n x b buffers, G and one more, so G is
    overwritten.  Column k-1 does not depend on m.  When u bounds the
    spectrum every form is nonnegative up to roundoff.
    """
    nu = np.empty((G.shape[1], m + 1))  # column i-1 holds nu_i
    y, spare = G, work_buffer(G.shape)  # y is Y^((i-1)/2) G
    for i in range(1, m + 2, 2):
        y_next = apply(y, spare)
        nu[:, i - 1] = np.einsum("ij,ij->j", y, y_next)
        if i <= m:
            nu[:, i] = np.einsum("ij,ij->j", y_next, y_next)
        y, spare = y_next, y
    return u * (nu[:, :-1] - nu[:, 1:])


def taylor_entropy(
    R: SparseSymMatrix,
    cfg: EstimatorConfig,
    model: np.ndarray | None = None,
) -> RunRecord:
    """Run the truncated-series estimator and return its record.

    ``model`` is the known spectrum, descending, or None.  With ``cfg.nte``
    the trace terms are computed exactly from known eigenvalues (``model``,
    else the dense oracle), isolating truncation error from probe noise.
    """

    def series(u: float, m: int) -> PolynomialSeries:
        return PolynomialSeries(
            partial(moments, u=u, m=m),
            1.0 / np.arange(1, m + 1),
            math.log(1.0 / u),
            scale=-1.0 / u,
            shift=1.0,
        )

    # Pass this module's gaussian_vector so that wrapping it traces the probe draws.
    return polynomial_entropy(
        R, cfg, model, "taylor", default_m_taylor, series, gaussian_vector
    )
