"""tailgauge: accuracy limits of high-quantile risk estimates under a GPD tail.

The package fits a generalized Pareto tail to loss data, computes the
finite-sample distribution of the resulting quantile estimator, maps its bias
and variance over sample size and tail heaviness, and applies a parametric
bias correction to fitted quantiles.  A Monte Carlo harness replicates the
whole estimation experiment for validation.

``tailgauge.density`` is the re-exported function ``density.density``, which
shadows its submodule: ``import tailgauge.density as D`` binds the function.
Reach the module with ``importlib.import_module("tailgauge.density")``.

If tailgauge is what loads numpy, and no OpenBLAS thread count is set, numpy's
OpenBLAS loads single-threaded: the package's largest matrix product is
540 x 60, and the idle workers of a default pool busy-wait for about 0.11 s
of CPU in every process.  Import numpy first, or set ``OPENBLAS_NUM_THREADS``
or ``OMP_NUM_THREADS``, to keep the pool.
"""

import os as _os
import sys as _sys

# OpenBLAS reads its thread count once, when numpy loads it; the variable is
# gone again afterwards, so child processes and a later BLAS (SciPy's own)
# keep their defaults
if "numpy" not in _sys.modules and _os.environ.keys().isdisjoint(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .bias import (BiasLawParams, BiasSurface, CALIBRATED_PARAMS,
                   PRACTICAL_PARAMS, SurfaceRow, bias_law, bias_practical,
                   correct_quantile, fit_bias_law)
from .density import (DEFAULT_N_GRID, DEFAULT_XI_GRID, DensitySpec,
                      EstimatorLaw, QuantileStats, bias_variance_surface,
                      cdf_of_estimator, density, psi, stats)
from .errors import (NumericalError, OutsideValidatedRegionWarning,
                     QuadratureError, ValidationError)
from .gpd import (ConfidenceLevel, GpdParams, cdf, mean, pdf, quantile,
                  sample, variance)
from .mle import (AsymptoticCovariance, MleEstimate, asymptotic_covariance,
                  fit, log_likelihood)
from .simulate import SimConfig, SimReport, check_mle_asymptotics, ks_test, run
from .tail import (Sample, TailFit, TailSelection, estimate_parent_quantile,
                   fit_tail, parent_quantile_from_tail_quantile, select_tail)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCovariance", "BiasLawParams", "BiasSurface",
    "CALIBRATED_PARAMS", "ConfidenceLevel", "DEFAULT_N_GRID",
    "DEFAULT_XI_GRID", "DensitySpec", "EstimatorLaw", "GpdParams",
    "MleEstimate", "NumericalError", "OutsideValidatedRegionWarning",
    "PRACTICAL_PARAMS", "QuadratureError",
    "QuantileStats", "Sample", "SimConfig", "SimReport", "SurfaceRow",
    "TailFit", "TailSelection", "ValidationError", "asymptotic_covariance",
    "bias_law", "bias_practical", "bias_variance_surface", "cdf",
    "cdf_of_estimator", "check_mle_asymptotics", "correct_quantile",
    "density", "estimate_parent_quantile", "fit", "fit_bias_law", "fit_tail",
    "ks_test", "log_likelihood", "mean", "parent_quantile_from_tail_quantile",
    "pdf", "psi", "quantile", "run", "sample", "select_tail", "stats",
    "variance",
]
