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

The search runs row-wise over an (R, n) block of samples (``fit_batch``):
each row keeps its own grid, bracket and stopping test, every step is one
(R, n) pass, and ``fit`` is the one-row case.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gpd import _TINY, GpdParams

_log = logging.getLogger("tailgauge")

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
class MleBatch:
    """Row-wise estimates of an (R, n) block of samples, as length-R arrays."""

    xi_hat: np.ndarray
    sigma_hat: np.ndarray
    log_likelihood: np.ndarray
    converged: np.ndarray


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Limiting normal law of (xi_hat, sigma_hat) at sample size n."""

    mean_vector: tuple[float, float]
    cov_matrix: np.ndarray


def _loglik(xi, sigma, x: np.ndarray):
    """Raw GPD log-likelihood of each row of ``x``; -inf outside the support.

    ``xi`` and ``sigma`` hold one value per row (scalars for a 1-D ``x``).
    The exponential limit is taken only where xi*x/sigma underflows to zero or
    a subnormal, the one place log1p loses precision.
    """
    xi, sigma = np.asarray(xi, dtype=float), np.asarray(sigma, dtype=float)
    z = (xi / sigma)[..., None] * x
    z_min, z_max = z.min(axis=-1), z.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log1p(z, out=z).sum(axis=-1)
        tail = np.where(np.maximum(z_max, -z_min) >= _TINY, s + s / xi,
                        x.sum(axis=-1) / sigma)
        ll = -x.shape[-1] * np.log(sigma) - tail
    return np.where((sigma > 0.0) & np.isfinite(sigma) & (z_min > -1.0), ll, -np.inf)


def log_likelihood(p: GpdParams, data) -> float:
    """Sum of log densities of ``data`` under ``p`` (-inf outside the support)."""
    x = np.asarray(data, dtype=float)
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValidationError("data must be a nonempty sequence of finite values")
    if x.min() < 0.0:
        return -math.inf
    return float(_loglik(p.xi, p.sigma, x.ravel()))


def _profile(w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-constrained profile log-likelihood of each row at its ``w``, and its xi.

    Row r of ``y`` is a sample in units of its maximum, and
    theta*max(x) = expm1(w[r]).  At fixed theta the likelihood peaks in xi at
    mean(log1p(theta*y)), so clipping that peak to XI_BOX gives the
    box-constrained optimum.
    """
    n = y.shape[1]
    theta = np.expm1(w)
    z = theta[:, None] * y
    # in place: one fresh (R, n) buffer per pass, not two (3x faster at n=1e5)
    s = np.log1p(z, out=z).sum(axis=1)
    xi = np.minimum(np.maximum(s / n, XI_BOX[0]), XI_BOX[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -n * np.log(xi / theta) - (1.0 + 1.0 / xi) * s
    at_zero = theta == 0.0
    if at_zero.any():
        val[at_zero] = -n * (np.log(y[at_zero].mean(axis=1)) + 1.0)
        xi[at_zero] = 0.0
    return val, xi


def _check_rows(x: np.ndarray) -> None:
    """Raise ValidationError for the first row that cannot be fitted."""
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError("data must be an (R, n) block with R >= 1 rows")
    if x.shape[1] < 2:
        raise ValidationError("need at least two observations")
    finite = np.isfinite(x).all(axis=1)
    for bad, what in ((~finite, "data must be finite"),
                      (finite & (x.min(axis=1) < 0.0), "exceedances must be nonnegative"),
                      (finite & (x.max(axis=1) == x.min(axis=1)),
                       "constant data: likelihood is degenerate")):
        if bad.any():
            where = f" (row {int(np.argmax(bad))})" if x.shape[0] > 1 else ""
            raise ValidationError(what + where)


def fit_batch(data) -> MleBatch:
    """Maximize the GPD likelihood of each row of an (R, n) block on its own.

    Every row gets the search of ``fit``, so row r of the result equals
    ``fit(data[r])`` bit for bit.  Raises ValidationError, naming the row,
    for fewer than two points per row, and for a row that is not finite, has
    negative values or is constant.
    """
    x = np.asarray(data, dtype=float)
    _check_rows(x)
    rows, n = x.shape
    scale = x.max(axis=1)
    y = x / scale[:, None]
    # The profile's slope brackets its maximizer.  Below -log1p(n) the point
    # at the support edge alone makes it increase.  Once theta*y >= 10 for
    # all but n/12 points it decreases, because 1 + 1/xi >= 1.2 in the box.
    j = n // 12
    y_j = np.partition(y, j, axis=1)[:, j]
    with np.errstate(divide="ignore"):
        w_hi = np.where(y_j > 0.0, np.minimum(np.log1p(10.0 / y_j), _W_MAX), _W_MAX)
    grid = np.linspace(np.full(rows, -math.log1p(n)), w_hi, _N_GRID, axis=1)
    # the grid one point at a time: an (R, n) pass each, no (R, 64, n) block
    best = np.full(rows, -np.inf)
    i = np.zeros(rows, dtype=int)
    for k in range(_N_GRID):
        val = _profile(grid[:, k], y)[0]
        up = val > best
        best[up], i[up] = val[up], k

    # golden-section search between each row's best grid point's neighbours
    a = grid[np.arange(rows), np.maximum(i - 1, 0)]
    b = grid[np.arange(rows), np.minimum(i + 1, _N_GRID - 1)]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = _profile(c, y)[0], _profile(d, y)[0]
    w, f = np.empty(rows), np.empty(rows)
    live, y_live = np.arange(rows), y
    rounds = 0
    while True:
        done = ~(b - a > _W_TOL)
        if done.any():
            take_c = fc >= fd
            w[live[done]] = np.where(take_c, c, d)[done]
            f[live[done]] = np.where(take_c, fc, fd)[done]
            live, y_live, a, b, c, d, fc, fd = (
                v[~done] for v in (live, y_live, a, b, c, d, fc, fd))
            if not live.size:
                break
        # each live row keeps the better half of its bracket and evaluates
        # one new point there
        rounds += 1
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = _INV_PHI * (b - a)
        w_new = np.where(left, b - h, a + h)
        f_new = _profile(w_new, y_live)[0]
        c, d = np.where(left, w_new, d), np.where(left, c, w_new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)

    on_grid = best > f
    w[on_grid] = grid[on_grid, i[on_grid]]
    xi = _profile(w, y)[1]
    theta = np.expm1(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.where(theta != 0.0, scale * xi / theta, x.mean(axis=1))
    converged = (grid[:, 0] + _W_TOL < w) & (w < grid[:, -1] - _W_TOL)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("mle fit_batch: %d rows of n=%d, %d golden-section rounds, "
                   "%d box-edge hits, %d not converged", rows, n, rounds,
                   int(np.isin(xi, XI_BOX).sum()), int((~converged).sum()))
    return MleBatch(xi_hat=xi, sigma_hat=sigma, log_likelihood=_loglik(xi, sigma, x),
                    converged=converged)


def fit(data) -> MleEstimate:
    """Maximize the GPD likelihood over xi in [-0.49, 5], sigma > 0.

    The one-row case of ``fit_batch``.  Raises ValidationError for data that
    are not one-dimensional, fewer than two points, negative values, or
    constant data.  A maximizer found at the
    edge of the search bracket (the likelihood may be unbounded when many
    points are zero) is reported via ``converged=False`` rather than an
    exception.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"data must be one-dimensional, got shape {x.shape}")
    est = fit_batch(x[None, :])
    return MleEstimate(
        xi_hat=float(est.xi_hat[0]),
        sigma_hat=float(est.sigma_hat[0]),
        log_likelihood=float(est.log_likelihood[0]),
        n=x.size,
        converged=bool(est.converged[0]),
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
