"""Shared result assembly: estimator configuration, the one run record,
assumption checks against known spectra, relative error, and the skeleton
the Taylor and Chebyshev estimators share."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .densmat import SparseSymMatrix
from .hutchinson import default_s, probe_average
from .power import (
    U_MODES,
    PowerEstimate,
    default_power_params,
    power_method,
    u_from_p1,
)
from .rng import RngStream

RANK_CLAMP = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    """Parameters for the polynomial estimators.

    ``ell`` is a caller-supplied lower bound on the spectrum (the
    estimators never try to infer it); it may be omitted only when ``m``
    is overridden.  ``nte`` replaces the stochastic trace estimate with
    the exact truncated series from known eigenvalues, isolating the
    truncation error; it runs no probes, so ``s_override`` is then 0 or
    None.

    ``m_override`` may also be a tuple of degrees: one pass to the largest
    then reads the estimate at each, exactly as separate runs would give it.
    The power method of ``seed`` and ``delta`` and the oracle run once per
    matrix (:func:`power_estimate`, :func:`oracle`), for every run on it.
    """

    epsilon: float = 0.1
    delta: float = 0.1
    ell: float | None = None
    u_mode: str = "six"
    u_value: float | None = None
    m_override: int | tuple[int, ...] | None = None
    s_override: int | None = None
    nte: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.ell is not None and not 0.0 < self.ell <= 1.0:
            raise ValueError(f"ell must lie in (0, 1], got {self.ell}")
        if self.u_mode not in U_MODES:
            raise ValueError(f"u_mode must be one of {U_MODES}, got {self.u_mode!r}")
        if self.u_mode == "manual" and (
            self.u_value is None or not 0.0 < self.u_value <= 1.0
        ):
            raise ValueError(f"manual u must lie in (0, 1], got {self.u_value}")
        if self.m_override is not None and not min(self.degrees(), default=0) >= 1:
            raise ValueError("m override must be at least 1")
        if self.nte and self.s_override not in (None, 0):
            raise ValueError(f"nte runs no probes: s override must be 0, got {self.s_override}")
        if not self.nte and self.s_override is not None and self.s_override < 1:
            raise ValueError("s override must be >= 1 (0 is allowed only with nte)")
        if self.m_override is None and self.ell is None:
            raise ValueError("ell is required unless m is overridden")

    def degrees(self) -> list[int]:
        """The overridden degrees, ascending and without repeats."""
        m = self.m_override
        return sorted(set(m)) if isinstance(m, tuple) else [m]


def check_assumptions(
    probs: np.ndarray | None,
    n: int,
    u: float | None = None,
    ell: float | None = None,
    k: int | None = None,
) -> list[str]:
    """Warnings for the estimator parameters that a known spectrum
    ``probs`` of an n x n matrix contradicts; none without a spectrum, or
    for a parameter not given.  A spectrum of fewer than n probabilities
    lists the nonzero ones, so its smallest eigenvalue is 0."""
    if probs is None:
        return []
    out = []
    if u is not None and not u >= probs[0]:
        out.append("assumption violated: u is below the top probability p1")
    if ell is not None and not ell <= (probs[-1] if probs.size == n else 0.0):
        out.append("assumption violated: ell exceeds the smallest probability")
    if k is not None and not int(np.sum(probs > RANK_CLAMP)) <= k:
        out.append("assumption violated: matrix rank exceeds the supplied k")
    return out


def relative_error(estimate: float, exact: float) -> float:
    """|estimate - exact| / exact for exact > 0.

    Zero exact entropy means a pure state; report absolute error instead
    (see the CLI flag) rather than dividing by zero.
    """
    if exact <= 0.0:
        raise ValueError(f"relative error needs exact > 0, got {exact}")
    return abs(estimate - exact) / exact


@dataclass(frozen=True)
class RunRecord:
    """What one estimator run produced.  ``exact`` and ``rel_err`` are None
    when no spectrum is known, ``rel_err`` alone for a pure state.
    ``fields`` holds the method's own outputs in the order ``estimate``
    prints them.  A series run's ``estimates`` maps every degree it read to
    its partial sum; ``estimate`` and ``rel_err`` belong to the largest."""

    estimate: float
    exact: float | None
    rel_err: float | None
    warnings: tuple[str, ...]
    fields: dict
    estimates: dict[int, float] = field(default_factory=dict)


def run_record(
    estimate: float,
    probs: np.ndarray | None,
    warnings: list[str],
    fields: dict,
    estimates: dict[int, float] | None = None,
) -> RunRecord:
    """The record of a run, compared with the exact entropy of the spectrum
    ``probs`` when it is known: a pure state (zero entropy) gets no
    relative error and one more warning."""
    exact = rel_err = None
    if probs is not None:
        exact = linalg.entropy_from_probs(probs, linalg.ENTROPY_CLAMP)
        if exact > 0.0:
            rel_err = relative_error(estimate, exact)
        else:
            warnings = [*warnings, "exact entropy is zero (pure state); rel_err omitted"]
    return RunRecord(estimate, exact, rel_err, tuple(warnings), fields, estimates or {})


def power_estimate(R: SparseSymMatrix, seed: int, delta: float) -> PowerEstimate:
    """The power method behind u for every polynomial run with this seed and
    delta: t and q from ``delta``, trials from child stream 0 of ``seed``.
    It runs once per matrix, seed and delta (:meth:`SparseSymMatrix.once`)."""
    t, q = default_power_params(R.n, delta)
    return R.once(("power", seed, delta), lambda: power_method(R, t, q, RngStream(seed).child(0)))


def oracle(R: SparseSymMatrix) -> tuple[float, np.ndarray]:
    """``linalg.exact_entropy(R)``, computed once per matrix."""
    return R.once(("oracle",), lambda: linalg.exact_entropy(R))


def resolve_u(R: SparseSymMatrix, cfg: EstimatorConfig) -> tuple[float, PowerEstimate | None]:
    """Upper bound u per the config's mode: manual, else from the power
    method (:func:`power_estimate`)."""
    if cfg.u_mode == "manual":
        return float(cfg.u_value), None
    pe = power_estimate(R, cfg.seed, cfg.delta)
    return u_from_p1(pe.p1_tilde, cfg.u_mode), pe


class PolynomialSeries(NamedTuple):
    """One polynomial estimator once u and m are fixed: the entropy estimate
    is offset + sum_k weights[k] trace(P_k(R)), and ``moments(apply, G)``
    returns the b x len(weights) forms g^T P_k(R) g of the columns g of G,
    with ``apply(x, out)`` multiplying by the operator scale * R + shift * I
    that the series' recurrence runs on, into ``out`` where it can (as
    ``SparseSymMatrix.matmat_into``).  The last weight belongs to degree m;
    neither the weights nor the forms of lower degrees depend on m."""

    moments: Callable[..., np.ndarray]
    weights: np.ndarray
    offset: float
    scale: float
    shift: float


def polynomial_entropy(
    R: SparseSymMatrix,
    cfg: EstimatorConfig,
    model: np.ndarray | None,
    method: str,
    default_m: Callable[[float, float, float], int],
    series: Callable[[float, int], PolynomialSeries],
    draw: Callable[..., np.ndarray],
    extra_warnings: tuple[str, ...] = (),
) -> RunRecord:
    """Run a polynomial estimator and return its record.

    Resolves u (:func:`resolve_u`), takes the degrees from
    ``cfg.m_override`` or ``default_m(u, ell, epsilon)``, then traces
    ``series(u, largest degree)`` through its one ``moments`` recurrence and
    reads the partial sum at each degree: exactly over known eigenvalues
    with ``cfg.nte`` (the known spectrum ``model``, else the dense
    :func:`oracle`), otherwise with the probe driver over
    ``cfg.s_override`` (else ``default_s``) probes that ``draw`` takes from
    child stream 1 of ``cfg.seed``.  Either way the series' shifted operator is built once,
    from the eigenvalues or from R.
    """
    u, _ = resolve_u(R, cfg)
    degrees = cfg.degrees() if cfg.m_override is not None else [default_m(u, cfg.ell, cfg.epsilon)]
    poly = series(u, degrees[-1])
    # the weight index at which each degree's partial sum is complete
    last = len(poly.weights) - 1
    reads = {last - (degrees[-1] - m) for m in degrees}

    def traces(apply: Callable[..., np.ndarray], G: np.ndarray) -> np.ndarray:
        # sum_k weights[k] forms[:, k] in degree order, one row per degree
        # read; a BLAS product here would round differently for different
        # block widths
        forms = poly.moments(apply, G)
        acc = np.zeros(G.shape[1])
        partial_sums = []
        for k, w in enumerate(poly.weights):
            acc += forms[:, k] * w
            if k in reads:
                partial_sums.append(acc.copy())
        return np.array(partial_sums)

    if cfg.nte:
        probs = model if model is not None else oracle(R)[1]
        # The shifted operator of the eigenvalues padded to n with zeros, as
        # a diagonal, and one all-ones probe: its form is the exact trace.
        spectrum = np.full((R.n, 1), poly.shift)
        spectrum[: probs.size, 0] = poly.scale * probs + poly.shift
        per_degree = traces(
            lambda x, out: np.multiply(spectrum, x, out=out), np.ones((R.n, 1))
        )[:, 0]
        s_used = 0
    else:
        s_used = cfg.s_override if cfg.s_override else default_s(cfg.epsilon, cfg.delta)
        op = R.shifted(poly.scale, poly.shift)
        per_degree = probe_average(
            R.n, s_used, RngStream(cfg.seed).child(1), lambda G: traces(op.matmat_into, G), draw
        )
    estimates = {m: poly.offset + float(t) for m, t in zip(degrees, per_degree)}

    warnings = list(extra_warnings)
    if cfg.u_mode == "raw":
        warnings.append("u_mode 'raw' is heuristic: u >= p1 is not guaranteed")
    warnings += check_assumptions(model, R.n, u=u, ell=cfg.ell)
    m = degrees[-1]
    fields = {"method": method, "m": m, "s": s_used, "u": u, "seed": cfg.seed}
    return run_record(estimates[m], model, warnings, fields, estimates)
