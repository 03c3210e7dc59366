"""Generalized Pareto distribution: evaluation, inversion, moments, sampling.

The two-parameter GPD with scale ``sigma`` and shape ``xi`` has distribution
function ``F(x) = 1 - (1 + xi*x/sigma)**(-1/xi)`` on ``[0, inf)`` for
``xi >= 0`` and on ``[0, -sigma/xi]`` for ``xi < 0``.  At ``xi = 0`` it
degenerates to the exponential distribution.  The ``expm1``/``log1p`` forms
below keep full precision for any ``xi`` as long as their argument ``xi*t``
is a normal float, so the formulas switch to their exponential limits only
where ``xi*t`` is zero or subnormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# smallest normal float: a smaller xi*t has lost precision, and the limit
# form is exact to rounding there
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class GpdParams:
    """Scale/shape parameter pair of the tail model."""

    sigma: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValidationError(f"sigma must be a positive finite real, got {self.sigma}")
        if not math.isfinite(self.xi):
            raise ValidationError(f"xi must be finite, got {self.xi}")

    @property
    def support_upper(self) -> float:
        """Upper endpoint of the support (inf for xi >= 0)."""
        if self.xi < 0.0:
            return -self.sigma / self.xi
        return math.inf


@dataclass(frozen=True)
class ConfidenceLevel:
    """Probability level in the open interval (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")


def _scaled_expm1(xi, t) -> np.ndarray:
    """(exp(xi*t) - 1)/xi elementwise, with the xi -> 0 limit t; a NaN xi gives NaN.

    ``xi`` and ``t`` broadcast against each other.
    """
    xi, t = np.asarray(xi, dtype=float), np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0 * inf, x / 0
        z = xi * t
        direct = np.abs(z) >= _TINY
        direct |= np.isnan(xi)   # in place: no second mask
        return np.where(direct, np.expm1(z) / xi, t)


def _log1p_over_xi(xi: float, x, sigma: float) -> np.ndarray:
    """log(1 + xi*x/sigma)/xi elementwise, with the xi -> 0 limit x/sigma; a NaN
    xi gives NaN.  Where xi*x/sigma overflows, the log is log(xi) + log(x) -
    log(sigma): the 1 adds nothing at that size."""
    with np.errstate(all="ignore"):   # 0 * inf, x / 0, the overflow replaced
        s = x / sigma
        z = xi * s
        direct = np.abs(z) >= _TINY
        direct |= np.isnan(xi)
        log = np.where(z < np.inf, np.log1p(z), np.log(xi) + np.log(x) - math.log(sigma))
        return np.where(direct, log / xi, s)


def _log_pdf(p: GpdParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log density -(1 + xi)*log_term - log(sigma) at the floats ``x``, -inf off
    the support and NaN at NaN; with the support mask and log term ``cdf`` reads."""
    inside = (x >= 0.0) & (x < p.support_upper)
    log_term = _log1p_over_xi(p.xi, np.where(inside, x, 0.0), p.sigma)   # 1 + xi*x/sigma > 0
    val = -(1.0 + p.xi) * log_term - math.log(p.sigma)
    return np.select([inside, np.isnan(x)], [val, np.nan], -np.inf), inside, log_term


def cdf(p: GpdParams, x):
    """Distribution function; clamps to 0 below and 1 above the support, NaN at NaN."""
    x = np.asarray(x, dtype=float)
    _log_f, inside, log_term = _log_pdf(p, x)
    out = np.select([inside, x < 0.0, np.isnan(x)], [-np.expm1(-log_term), 0.0, np.nan], 1.0)
    return float(out) if out.ndim == 0 else out


def pdf(p: GpdParams, x):
    """Density function, ``exp(_log_pdf)``; zero outside the support, NaN at NaN."""
    out = np.exp(_log_pdf(p, np.asarray(x, dtype=float))[0])
    return float(out) if out.ndim == 0 else out


def quantile(p: GpdParams, level: ConfidenceLevel) -> float:
    """Quantile (inverse cdf) at the given confidence level.

    Raises NumericalError when it overflows a double.
    """
    with np.errstate(over="ignore"):
        q = float(p.sigma * _scaled_expm1(p.xi, -math.log1p(-level.alpha)))
    if q == math.inf:
        raise NumericalError(f"the GPD quantile overflows a double at alpha={level.alpha}, "
                             f"sigma={p.sigma:g}, xi={p.xi:g}")
    return q


def mean(p: GpdParams) -> float | None:
    """Expected value, or None when it does not exist (xi >= 1)."""
    if p.xi >= 1.0:
        return None
    return p.sigma / (1.0 - p.xi)


def variance(p: GpdParams) -> float | None:
    """Variance, or None when it does not exist (xi >= 0.5)."""
    if p.xi >= 0.5:
        return None
    return p.sigma**2 / ((1.0 - p.xi) ** 2 * (1.0 - 2.0 * p.xi))


def _from_uniform(p: GpdParams, u) -> np.ndarray:
    """The inverse transform ``sigma * (exp(xi*t) - 1)/xi``, ``t = -log(1-u)``,
    elementwise over uniforms ``u`` of any shape."""
    return p.sigma * _scaled_expm1(p.xi, -np.log1p(-u))


def sample(p: GpdParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` iid values by inverse-transform sampling.

    The generator is owned by the caller; draws are deterministic given its
    state and must not be shared across threads.  The transform is
    ``_from_uniform``, which the Monte Carlo harness applies to slices of
    a block of rows, so a row drawn there equals this function's draw.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    return _from_uniform(p, rng.random(count))
