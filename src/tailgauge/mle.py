"""Maximum-likelihood fitting of the GPD and the asymptotic law of the estimators.

The likelihood profiles to one dimension in theta = xi/sigma (Grimshaw 1993,
Technometrics 35(2)).  At fixed theta it is unimodal in xi with its peak at
mean(log1p(theta*x)); clipping that peak to XI_BOX gives the exact
box-constrained optimum, and the same clip keeps the profile bounded as theta
approaches the support edge -1/max(x).  The fit maximizes that profile over w,
where theta*max(x) = expm1(w): w -> -inf is the support edge, w = 0 the
exponential limit and large w the heavy-tail side.  The best point of a coarse
w-grid is polished by golden-section search between its neighbours.  Working
in units of x/max(x) keeps the fit scale-equivariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gpd import XI_ZERO_TOL, GpdParams

# search box for the shape parameter; the asymptotic theory needs xi > -0.5
XI_BOX = (-0.49, 5.0)
# points of the coarse search grid in w, and the golden-section tolerance in w
_N_GRID = 64
_W_TOL = 1e-9
# upper end of the w-bracket when the data do not bound it; expm1 stays finite
_W_MAX = 700.0
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MleEstimate:
    """Point estimate of (xi, sigma) with the achieved log-likelihood."""

    xi_hat: float
    sigma_hat: float
    log_likelihood: float
    n: int
    converged: bool

    def __post_init__(self):
        if not self.sigma_hat > 0.0:
            raise ValidationError(f"sigma_hat must be positive, got {self.sigma_hat}")


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Limiting normal law of (xi_hat, sigma_hat) at sample size n."""

    mean_vector: tuple[float, float]
    cov_matrix: np.ndarray


def _loglik(xi: float, sigma: float, x: np.ndarray) -> float:
    """Raw GPD log-likelihood; -inf when a point falls outside the support."""
    n = x.size
    if not (sigma > 0.0 and math.isfinite(sigma)):
        return -math.inf
    if abs(xi) < XI_ZERO_TOL:
        return -n * math.log(sigma) - float(x.sum()) / sigma
    z = xi / sigma * x
    if z.min() <= -1.0:
        return -math.inf
    return -n * math.log(sigma) - (1.0 + 1.0 / xi) * float(np.log1p(z).sum())


def log_likelihood(p: GpdParams, data) -> float:
    """Sum of log densities of ``data`` under ``p`` (-inf outside the support)."""
    x = np.asarray(data, dtype=float)
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValidationError("data must be a nonempty sequence of finite values")
    if x.min() < 0.0:
        return -math.inf
    return _loglik(p.xi, p.sigma, x)


def _profile(w: float, y: np.ndarray) -> tuple[float, float]:
    """Box-constrained profile log-likelihood at ``w`` and its maximizing xi.

    ``y`` is the data in units of its maximum and theta*max(x) = expm1(w).
    At fixed theta the likelihood peaks in xi at mean(log1p(theta*y)), so
    clipping that peak to XI_BOX gives the box-constrained optimum.
    """
    n = y.size
    theta = math.expm1(w)
    if theta == 0.0:
        return -n * (math.log(float(y.mean())) + 1.0), 0.0
    s = float(np.log1p(theta * y).sum())
    xi = min(max(s / n, XI_BOX[0]), XI_BOX[1])
    return -n * math.log(xi / theta) - (1.0 + 1.0 / xi) * s, xi


def fit(data) -> MleEstimate:
    """Maximize the GPD likelihood over xi in [-0.49, 5], sigma > 0.

    Raises ValidationError for fewer than two points, negative values, or
    constant data.  A maximizer found at the edge of the search bracket (the
    likelihood may be unbounded when many points are zero) is reported via
    ``converged=False`` rather than an exception.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("need at least two observations")
    if not np.all(np.isfinite(x)):
        raise ValidationError("data must be finite")
    if x.min() < 0.0:
        raise ValidationError("exceedances must be nonnegative")
    if x.max() == x.min():
        raise ValidationError("constant data: likelihood is degenerate")

    n = x.size
    scale = float(x.max())
    y = x / scale
    # The profile's slope brackets its maximizer.  Below -log1p(n) the point
    # at the support edge alone makes it increase.  Once theta*y >= 10 for
    # all but n/12 points it decreases, because 1 + 1/xi >= 1.2 in the box.
    j = n // 12
    y_j = float(np.partition(y, j)[j])
    w_hi = min(math.log1p(10.0 / y_j), _W_MAX) if y_j > 0.0 else _W_MAX
    grid = np.linspace(-math.log1p(n), w_hi, _N_GRID)
    vals = [_profile(w, y)[0] for w in grid]
    i = int(np.argmax(vals))

    # golden-section search between the best grid point's neighbours
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, _N_GRID - 1)]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = _profile(c, y)[0], _profile(d, y)[0]
    while b - a > _W_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = _profile(c, y)[0]
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = _profile(d, y)[0]
    w, best = (c, fc) if fc >= fd else (d, fd)
    if vals[i] > best:
        w = float(grid[i])

    xi = _profile(w, y)[1]
    theta = math.expm1(w)
    sigma = scale * xi / theta if theta != 0.0 else float(x.mean())
    return MleEstimate(
        xi_hat=xi,
        sigma_hat=sigma,
        log_likelihood=_loglik(xi, sigma, x),
        n=n,
        converged=bool(grid[0] + _W_TOL < w < grid[-1] - _W_TOL),
    )


def asymptotic_covariance(p: GpdParams, n: int) -> AsymptoticCovariance:
    """Mean vector and covariance of the limiting normal law of the estimators.

    cov = ((1 + xi)/n) * [[1 + xi, -sigma], [-sigma, 2*sigma^2]], valid for
    xi > -0.5.
    """
    if p.xi <= -0.5:
        raise ValidationError(f"asymptotic covariance requires xi > -0.5, got {p.xi}")
    if n < 1:
        raise ValidationError(f"n must be a positive integer, got {n}")
    c = (1.0 + p.xi) / n
    cov = c * np.array([[1.0 + p.xi, -p.sigma], [-p.sigma, 2.0 * p.sigma**2]])
    return AsymptoticCovariance(mean_vector=(p.xi, p.sigma), cov_matrix=cov)
