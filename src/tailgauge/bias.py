"""Parametric law for the finite-sample bias of the tail-quantile estimator.

The bias over the (n, xi) grid follows, to good approximation, a power law in
the sample size with exponential growth in the shape parameter:

    B(n, xi) = n**a1 * exp(ln(10) * (a2*xi + a3))

``PRACTICAL_PARAMS`` holds the rounded constants (-1, 3.5, 1.5) that give the
hand-computable form 10**((7*xi + 3)/2) / n; ``CALIBRATED_PARAMS`` holds the
unrounded constants for the alpha = 0.999, sigma = 1 configuration.  For any
other configuration, recover fresh constants from a computed surface with
``fit_bias_law``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .gpd import ConfidenceLevel

LN10 = math.log(10.0)


@dataclass(frozen=True)
class BiasLawParams:
    """Constants (a1, a2, a3) of the bias law."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a1, self.a2, self.a3))):
            raise ValidationError("bias-law constants must be finite")


class SurfaceRow(NamedTuple):
    n: int
    xi: float
    bias: float
    variance: float


@dataclass(frozen=True)
class BiasSurface:
    """Bias/variance grid at fixed (alpha, sigma), the regression input."""

    alpha: ConfidenceLevel
    sigma: float
    rows: tuple[SurfaceRow, ...]


# rounded constants for practice; exact inputs to correct_quantile's default
PRACTICAL_PARAMS = BiasLawParams(-1.0, 3.5, 1.5)
# the confidence level PRACTICAL_PARAMS and CALIBRATED_PARAMS hold for
PRACTICAL_ALPHA = 0.999
# regression constants published for the alpha = 0.999, sigma = 1 surface
CALIBRATED_PARAMS = BiasLawParams(-1.00733, 3.49572, 1.49397)


def bias_law(params: BiasLawParams, n: int, xi: float) -> float:
    """Evaluate the bias law at sample size ``n`` and shape ``xi``.

    Raises NumericalError when the value overflows a double.
    """
    if not (math.isfinite(n) and n >= 1):
        raise ValidationError(f"n must be a finite number >= 1, got {n}")
    if not math.isfinite(xi):
        raise ValidationError(f"xi must be finite, got {xi}")
    try:
        value = float(n) ** params.a1 * math.exp(LN10 * (params.a2 * xi + params.a3))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericalError(f"bias law overflows a double at n={n}, xi={xi}")
    return value


def bias_practical(n: int, xi: float) -> float:
    """Rounded practical form 10**((7*xi + 3)/2) / n.

    Calibrated for alpha = 0.999 and sigma = 1 only; recompute the law for
    other configurations.
    """
    return bias_law(PRACTICAL_PARAMS, n, xi)


def correct_quantile(q_hat: float, n: int, xi_hat: float,
                     law: BiasLawParams = PRACTICAL_PARAMS) -> float:
    """Bias-corrected quantile ``q_hat - B(n, xi_hat)`` under the given law."""
    return q_hat - bias_law(law, n, xi_hat)


def fit_bias_law(surface: BiasSurface) -> BiasLawParams:
    """Recover (a1, a2, a3) from a computed surface.

    The law is exactly log-linear, so ordinary least squares on
    ln(bias) = a1*ln(n) + ln(10)*(a2*xi + a3) returns the unique minimizer.
    Requires >= 12 rows spanning >= 3 distinct n and >= 3 distinct xi with
    strictly positive bias; degenerate grids raise ValidationError.
    """
    rows = surface.rows
    if len(rows) < 12:
        raise ValidationError(f"need at least 12 surface rows, got {len(rows)}")
    n = np.array([r.n for r in rows], dtype=float)
    xi = np.array([r.xi for r in rows], dtype=float)
    bias = np.array([r.bias for r in rows], dtype=float)
    if np.any(bias <= 0.0):
        r = rows[int(np.argmax(bias <= 0.0))]
        raise ValidationError("all bias values must be positive to fit the law; first "
                              f"non-positive cell (n={r.n}, xi={r.xi}) has bias {r.bias:.6g}")
    if len(np.unique(n)) < 3 or len(np.unique(xi)) < 3:
        raise ValidationError(
            "rank-deficient design: need >= 3 distinct n and >= 3 distinct xi")
    design = np.column_stack([np.log(n), LN10 * xi, np.full(n.size, LN10)])
    coef, _res, rank, _sv = np.linalg.lstsq(design, np.log(bias), rcond=None)
    if rank < 3:
        raise ValidationError("rank-deficient design: grid does not identify the law")
    return BiasLawParams(a1=float(coef[0]), a2=float(coef[1]), a3=float(coef[2]))
