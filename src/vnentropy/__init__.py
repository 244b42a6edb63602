"""Randomized estimators for the von Neumann entropy of density matrices.

Three estimation routes are provided next to an exact eigendecomposition
oracle: a truncated-series estimator, a Chebyshev-polynomial estimator
(both built on Gaussian trace estimation and a power-method bound for the
top probability), and a random-projection route for low-rank matrices.
"""

from .chebyshev import cheb_coefficients, chebyshev_entropy, default_m_cheb
from .densmat import (
    SparseSymMatrix,
    generate_haar_like_matrix,
    generate_linear_plus_uniform,
    generate_low_rank_density,
    generate_tridiagonal_poisson,
    poisson_spectrum,
    read_matrix_market,
    write_matrix_market,
)
from .hutchinson import default_s, probe_average
from .linalg import (
    entropy_from_probs,
    exact_entropy,
    householder_qr,
    thin_singular_values,
)
from .power import PowerEstimate, default_power_params, power_method
from .report import EstimatorConfig, RunRecord, check_assumptions, relative_error
from .rng import RngStream, gaussian_vector, rademacher_vector
from .sketch import (
    ProjectionSpec,
    SketchSpectrum,
    apply_countsketch,
    apply_gaussian,
    apply_srht,
    default_s_sketch,
    sketch_entropy,
)
from .taylor import default_m_taylor, taylor_entropy

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
