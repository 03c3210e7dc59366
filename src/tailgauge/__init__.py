"""tailgauge: accuracy limits of high-quantile risk estimates under a GPD tail.

The package fits a generalized Pareto tail to loss data, computes the
finite-sample distribution of the resulting quantile estimator, maps its bias
and variance over sample size and tail heaviness, and applies a parametric
bias correction to fitted quantiles.  A Monte Carlo harness replicates the
whole estimation experiment for validation.

``tailgauge.density`` is the re-exported function ``density.density``, which
shadows its submodule: ``import tailgauge.density as D`` binds the function.
Reach the module with ``importlib.import_module("tailgauge.density")``.
"""

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
