"""Power method for the top probability and the derived upper bound u.

Each of q independent trials runs t plain power iterations from a random
sign vector and reports the Rayleigh quotient; the best trial lower-bounds
the true top eigenvalue p1 (and, for positive semidefinite unit-trace
input, never exceeds it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .densmat import SparseSymMatrix
from .rng import RngStream, rademacher_vector

U_MODES = ("six", "raw", "manual")
_DEGENERATE_NORM = 1e-300


@dataclass(frozen=True)
class PowerEstimate:
    p1_tilde: float
    iterations: int
    repetitions: int


def default_power_params(n: int, delta: float) -> tuple[int, int]:
    """(t, q) = (ceil(ln sqrt(4n)), ceil(4.82 ln(1/delta))), each at least 1.

    Natural logarithms throughout; they give the larger (safer) counts.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    t = max(1, math.ceil(math.log(math.sqrt(4.0 * n))))
    q = max(1, math.ceil(4.82 * math.log(1.0 / delta)))
    return t, q


def power_method(
    R: SparseSymMatrix, t: int, q: int, stream: RngStream
) -> PowerEstimate:
    """Best Rayleigh quotient over q trials of t power iterations.

    Trial j draws its sign start vector from ``stream.child(j)``, so the
    trials are independent and may run in any order.  A trial whose
    iterate collapses to (near) zero contributes 0.
    """
    if t < 1 or q < 1:
        raise ValueError("t and q must be at least 1")
    best = 0.0
    for j in range(q):
        x = rademacher_vector(stream.child(j), R.n)
        for _ in range(t):
            x = R.matvec(x)
        nsq = float(x @ x)
        if math.sqrt(nsq) < _DEGENERATE_NORM:
            continue
        candidate = float(x @ R.matvec(x)) / nsq
        best = max(best, candidate)
    return PowerEstimate(p1_tilde=best, iterations=t, repetitions=q)


def u_from_p1(p1_tilde: float, mode: str) -> float:
    """Map a top-probability estimate to the upper bound u."""
    if mode == "six":
        u = min(1.0, 6.0 * p1_tilde)
    elif mode == "raw":
        # Heuristic from the experimental sweeps; carries no per-run guarantee.
        u = min(1.0, p1_tilde)
    else:
        raise ValueError(f"unknown u mode {mode!r}")
    if u <= 0.0:
        raise ValueError("power method returned a nonpositive estimate; cannot form u")
    return u

