"""Gaussian block probe driver shared by the Taylor and Chebyshev estimators.

Probe i draws its Gaussian vector from ``stream.child(i)``.  The probes are
stacked into n x b blocks of at most ``PROBE_CHUNK`` columns, each block is
handed to a caller-supplied kernel that returns one value per column (or
one row of them per quantity), and each quantity's per-probe values are
reduced from one contiguous array in fixed index order, so results are
bitwise reproducible however the probes are scheduled and however many
quantities one pass yields.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .rng import RngStream, gaussian_vector

PROBE_CHUNK = 128


def default_s(epsilon: float, delta: float) -> int:
    """Probe count ceil(20 ln(2/delta) / epsilon^2)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(20.0 * math.log(2.0 / delta) / epsilon**2)


def probe_average(
    n: int,
    s: int,
    stream: RngStream,
    kernel: Callable[[np.ndarray], np.ndarray],
    draw: Callable[[RngStream, int], np.ndarray] = gaussian_vector,
) -> float | np.ndarray:
    """Mean of kernel(G) over s Gaussian probes: for a kernel returning the
    quadratic forms g^T A g of the columns g of G, an unbiased estimate of
    trace(A).  A kernel may return a d x b array instead of b values, one
    row per matrix A; the result is then the d means.

    ``draw(stream, n)`` generates one probe vector.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    per_probe = None
    for start in range(0, s, PROBE_CHUNK):
        stop = min(start + PROBE_CHUNK, s)
        block = np.column_stack([draw(stream.child(i), n) for i in range(start, stop)])
        values = kernel(block)
        if per_probe is None:
            per_probe = np.empty(np.shape(values)[:-1] + (s,))
        per_probe[..., start:stop] = values
    means = np.array([row.sum() for row in per_probe.reshape(-1, s)]) / s
    return float(means[0]) if per_probe.ndim == 1 else means
