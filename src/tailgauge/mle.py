"""Maximum-likelihood fitting of the GPD and the asymptotic law of the estimators.

The likelihood profiles to one dimension in theta = xi/sigma (Grimshaw 1993,
Technometrics 35(2)).  At fixed theta it is unimodal in xi with its peak at
mean(log1p(theta*x)); clipping that peak to XI_BOX gives the exact
box-constrained optimum, and the same clip keeps the profile bounded as theta
approaches the support edge -1/max(x).  The fit maximizes that profile over w,
where theta*max(x) = expm1(w): w -> -inf is the support edge, w = 0 the
exponential limit and large w the heavy-tail side.  The profile can have
more than one peak, so every local maximum of a 16-point w-grid is polished
between its neighbours by Brent's method (parabolic steps with a
golden-section fallback, Brent 1973), and the best polished point wins.
Working in units of x/max(x) keeps the fit scale-equivariant, and the
profile's value at the chosen point, less n*log(max(x)), is the
log-likelihood the fit reports: there is no second likelihood pass.

The search runs row-wise over an (R, n) block of samples (``fit_batch``):
each row keeps its own grid, and each of its peaks its own bracket and
stopping test; every step is one pass over the block, a cache-sized slice of
rows at a time, and ``fit`` is the one-row case.  The search (``_fit_rows``)
checks and scales a block it owns in place: ``fit_batch`` hands it a copy of
its input, the Monte Carlo loop its own sample buffer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .gpd import _TINY, GpdParams
from .quadrature import _row_slices

_log = logging.getLogger("tailgauge")

# search box for the shape parameter; the asymptotic theory needs xi > -0.5
XI_BOX = (-0.49, 5.0)
# points of the coarse search grid in w.  Every local maximum of the grid is
# polished, so the grid only has to separate the profile's peaks.  Against
# the same search on 256 points, over 4001 seeded datasets (n log-uniform on
# [3, 2e4], xi uniform on [-0.48, 5]) and the two-peak dataset of the tests,
# grids of 8, 12, 16 and 24 points missed no maximum; 6 points missed the
# two-peak one.
_N_GRID = 16
# stopping tolerance of the polish in w, sqrt(eps): near a maximum the profile
# changes by O(dw^2), so a finer w cannot be resolved from its values
_W_TOL = math.sqrt(np.finfo(float).eps)
# upper end of the w-bracket when the data do not bound it; expm1 stays finite
_W_MAX = 700.0
# the golden-section fraction (3 - sqrt(5))/2 of Brent's fallback step
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class MleEstimate:
    """Point estimate of (xi, sigma) with the achieved log-likelihood."""

    xi_hat: float
    sigma_hat: float
    log_likelihood: float
    n: int
    converged: bool

    def __post_init__(self):
        if not 0.0 < self.sigma_hat < math.inf:
            raise ValidationError(f"sigma_hat must be positive finite, got {self.sigma_hat}")


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


def log_likelihood(p: GpdParams, data) -> float:
    """Sum of log densities of ``data`` under ``p`` (-inf outside the support).

    The exponential limit is taken only where xi*x/sigma underflows to zero or
    a subnormal, the one place log1p loses precision.
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValidationError("data must be a nonempty sequence of finite values")
    z = (p.xi / p.sigma) * x
    if x.min() < 0.0 or not z.min() > -1.0:
        return -math.inf
    if max(z.max(), -z.min()) >= _TINY:
        s = np.log1p(z).sum()
        tail = s + s / p.xi
    else:
        tail = x.sum() / p.sigma
    return float(-x.size * np.log(p.sigma) - tail)


def _profile(w: np.ndarray, y: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-constrained profile log-likelihood of row ``rows[i]`` of ``y`` at
    ``w[i]``, and its xi.

    Each row of ``y`` is a sample in units of its maximum, and for row
    ``rows[i]`` theta*max(x) = expm1(w[i]).  At fixed theta the likelihood
    peaks in xi at mean(log1p(theta*y)), so clipping that peak to XI_BOX
    gives the box-constrained optimum.  The rows are evaluated a cache-sized
    slice at a time, so no temporary is as large as ``y``.
    """
    n = y.shape[1]
    theta = np.expm1(w)
    s = np.empty(theta.shape)
    # one buffer the size of the first, longest, slice serves every slice;
    # "clip" only stops take from buffering its copy, as the rows are in range
    slices = list(_row_slices(rows.size, n))
    buf = np.empty((rows[slices[0]].size, n))
    for sl in slices:
        r = rows[sl]
        z = y.take(r, axis=0, out=buf[:r.size], mode="clip")
        z *= theta[sl, None]
        s[sl] = np.log1p(z, out=z).sum(axis=1)
    xi = np.minimum(np.maximum(s / n, XI_BOX[0]), XI_BOX[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -n * np.log(xi / theta) - (1.0 + 1.0 / xi) * s
    at_zero = theta == 0.0
    if at_zero.any():
        val[at_zero] = -n * (np.log(y[rows[at_zero]].mean(axis=1)) + 1.0)
        xi[at_zero] = 0.0
    return val, xi


def _check_rows(x: np.ndarray) -> np.ndarray:
    """Raise ValidationError for the first row that cannot be fitted; return
    each row's maximum."""
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError("data must be an (R, n) block with R >= 1 rows")
    if x.shape[1] < 2:
        raise ValidationError("need at least two observations")
    # min and max carry any NaN or infinity of their row: no (R, n) mask
    lo, hi = x.min(axis=1), x.max(axis=1)
    finite = np.isfinite(lo) & np.isfinite(hi)
    for bad, what in ((~finite, "data must be finite"),
                      (finite & (lo < 0.0), "exceedances must be nonnegative"),
                      (finite & (hi == lo), "constant data: likelihood is degenerate")):
        if bad.any():
            where = f" (row {int(np.argmax(bad))})" if x.shape[0] > 1 else ""
            raise ValidationError(what + where)
    return hi


def _polish(f, a, b, fa, fb, x, fx):
    """Brent's maximization of a batch of 1-D objectives inside brackets [a, b].

    ``f(u, live)`` returns the values of the searches ``live`` at the points
    ``u``.  Search c starts from its best point ``x`` (value ``fx``) between
    the evaluated ends ``a`` and ``b`` (values ``fa`` and ``fb``).  Each round
    takes a parabolic step through the three best points seen, or a
    golden-section step into the larger side of the bracket where the
    parabola is not trusted (Brent 1973, ch. 5), and stops once the bracket
    around x is within _W_TOL.  Every round is one call of ``f`` on the live
    searches.
    Returns the best point, its value, the final bracket and the number of
    rounds.
    """
    out = [np.empty_like(a) for _ in range(4)]
    live = np.arange(a.size)
    # the ends are the second and third best points, and a last step of half
    # the bracket lets the first steps be parabolic
    w, fw, v, fv = a, fa, b, fb
    d = e = 0.5 * (b - a)
    rounds = 0
    while True:
        done = np.abs(x - 0.5 * (a + b)) <= 2.0 * _W_TOL - 0.5 * (b - a)
        if done.any():
            for o, val in zip(out, (x, fx, a, b)):
                o[live[done]] = val[done]
            keep = ~done
            live, a, b, x, fx, w, fw, v, fv, d, e = (
                t[keep] for t in (live, a, b, x, fx, w, fw, v, fv, d, e))
            if not live.size:
                return (*out, rounds)
        rounds += 1
        mid = 0.5 * (a + b)
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        # the parabola's vertex, if it lies inside the bracket and moves less
        # than half the step before last
        para = ((np.abs(e) > _W_TOL) & (np.abs(p) < np.abs(0.5 * q * e))
                & (p > q * (a - x)) & (p < q * (b - x)))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / q
        u = x + step
        near_end = (u - a < 2.0 * _W_TOL) | (b - u < 2.0 * _W_TOL)
        gold = np.where(x >= mid, a - x, b - x)
        e = np.where(para, d, gold)
        d = np.where(para, np.where(near_end, np.copysign(_W_TOL, mid - x), step),
                     _CGOLD * gold)
        u = x + np.where(np.abs(d) >= _W_TOL, d, np.copysign(_W_TOL, d))
        fu = f(u, live)
        up = fu >= fx
        a = np.where(up, np.where(u >= x, x, a), np.where(u < x, u, a))
        b = np.where(up, np.where(u >= x, b, x), np.where(u < x, b, u))
        # x, w and v stay the best, second and third points seen
        to_w = ~up & ((fu >= fw) | (w == x))
        to_v = ~up & ~to_w & ((fu >= fv) | (v == x) | (v == w))
        v = np.where(up | to_w, w, np.where(to_v, u, v))
        fv = np.where(up | to_w, fw, np.where(to_v, fu, fv))
        w = np.where(up, x, np.where(to_w, u, w))
        fw = np.where(up, fx, np.where(to_w, fu, fw))
        x, fx = np.where(up, u, x), np.where(up, fu, fx)


def _fit_rows(x: np.ndarray):
    """The search of ``fit_batch`` on a block ``x`` the caller owns.

    Raises as ``fit_batch`` documents, divides each row by its maximum in
    place and allocates nothing else of the block's size.  Returns the
    row-wise ``xi``, ``sigma``, log-likelihood (the last profile pass's
    value, less n*log(max)) and ``converged``, which is False where sigma
    overflows a double.
    """
    scale = _check_rows(x)
    y = np.divide(x, scale[:, None], out=x)   # in place: y is x
    rows, n = y.shape
    every = np.arange(rows)
    # The profile's slope brackets its maximizer.  Below -log1p(n) the point
    # at the support edge alone makes it increase.  Once theta*y >= 10 for
    # all but n/12 points it decreases, because 1 + 1/xi >= 1.2 in the box.
    j = n // 12
    y_j = np.empty(rows)
    for sl in _row_slices(rows, n):
        y_j[sl] = np.partition(y[sl], j, axis=1)[:, j]
    with np.errstate(divide="ignore", over="ignore"):
        w_hi = np.where(y_j > 0.0, np.minimum(np.log1p(10.0 / y_j), _W_MAX), _W_MAX)
    w_lo = -math.log1p(n)
    grid = np.linspace(np.full(rows, w_lo), w_hi, _N_GRID, axis=1)
    # the grid one point at a time: an (R, n) pass each, no (R, G, n) block
    val = np.empty((rows, _N_GRID))
    for k in range(_N_GRID):
        val[:, k] = _profile(grid[:, k], y, every)[0]

    # every local maximum of the grid is a candidate, ends included; each is
    # polished between its neighbours and the best one wins its row
    peak = np.isfinite(val)
    peak[:, 1:] &= val[:, 1:] > val[:, :-1]
    peak[:, :-1] &= val[:, :-1] >= val[:, 1:]
    cand_r, cand_k = np.nonzero(peak)
    lo = (cand_r, np.maximum(cand_k - 1, 0))
    hi = (cand_r, np.minimum(cand_k + 1, _N_GRID - 1))
    at = (cand_r, cand_k)
    start = grid[lo], grid[hi], val[lo], val[hi], grid[at], val[at]
    del grid, val, peak   # the polish needs only its start points
    w, f, a, b, rounds = _polish(lambda u, live: _profile(u, y, cand_r[live])[0],
                                 *start)
    # per row the candidate of largest value, the first one on ties
    order = np.lexsort((-f, cand_r))
    pick = order[np.r_[True, cand_r[order[1:]] != cand_r[order[:-1]]]]
    w, a, b = w[pick], a[pick], b[pick]
    val, xi = _profile(w, y, every)
    theta = np.expm1(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sigma = scale * xi / theta
    # the exponential limit: sigma is the sample mean
    at_zero = theta == 0.0
    if at_zero.any():
        sigma[at_zero] = scale[at_zero] * y[at_zero].mean(axis=1)
    # a maximizer whose final bracket still touches an end of the grid,
    # w_lo or w_hi, is the bracket's edge, not a stationary point
    converged = (a > w_lo) & (b < w_hi) & np.isfinite(sigma)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("mle fit_batch: %d rows of n=%d, %d polish rounds, "
                   "%d rows with several grid peaks, %d box-edge hits, "
                   "%d not converged", rows, n, rounds,
                   int((np.bincount(cand_r, minlength=rows) > 1).sum()),
                   int(np.isin(xi, XI_BOX).sum()), int((~converged).sum()))
    return xi, sigma, val - n * np.log(scale), converged


def fit_batch(data) -> MleBatch:
    """Maximize the GPD likelihood of each row of an (R, n) block on its own.

    Every row gets the search of ``fit``, so row r of the result equals
    ``fit(data[r])`` bit for bit; ``data`` is left unchanged.  Raises
    ValidationError, naming the row, for fewer than two points per row, and
    for a row that is not finite, has negative values or is constant.  A
    row whose fitted sigma overflows a double is reported as not converged.
    """
    # the search scales a copy, freed when it returns: the input and the
    # copy are the only (R, n) arrays
    return MleBatch(*_fit_rows(np.array(data, dtype=float, order="C")))


def fit(data) -> MleEstimate:
    """Maximize the GPD likelihood over xi in [-0.49, 5], sigma > 0.

    The one-row case of ``fit_batch``.  Raises ValidationError for data that
    are not one-dimensional, fewer than two points, negative values, or
    constant data, and NumericalError when the fitted sigma overflows a
    double.  A maximizer found at the
    edge of the search bracket (the likelihood may be unbounded when many
    points are zero) is reported via ``converged=False`` rather than an
    exception.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"data must be one-dimensional, got shape {x.shape}")
    est = fit_batch(x[None, :])
    if not np.isfinite(est.sigma_hat[0]):
        raise NumericalError(f"the fitted sigma overflows a double (max(x)={x.max():g})")
    return MleEstimate(
        xi_hat=float(est.xi_hat[0]),
        sigma_hat=float(est.sigma_hat[0]),
        log_likelihood=float(est.log_likelihood[0]),
        n=x.size,
        converged=bool(est.converged[0]),
    )


def _check_size(n) -> None:
    """ValidationError unless the sample size ``n`` is a positive integer
    that a double holds."""
    try:
        ok = math.isfinite(n) and n == int(n) >= 1
    except OverflowError:   # an integer beyond the largest double
        ok, n = False, "an integer beyond the largest double"
    if not ok:
        raise ValidationError(f"n must be a positive integer, got {n}")


def asymptotic_covariance(p: GpdParams, n: int) -> AsymptoticCovariance:
    """Mean vector and covariance of the limiting normal law of the estimators.

    cov = ((1 + xi)/n) * [[1 + xi, -sigma], [-sigma, 2*sigma^2]], valid for
    xi > -0.5; the estimator law in ``density`` reads its normal from here.
    Raises NumericalError when an entry overflows a double.
    """
    if p.xi <= -0.5:
        raise ValidationError(f"asymptotic covariance requires xi > -0.5, got {p.xi}")
    _check_size(n)
    c = (1.0 + p.xi) / n
    try:
        cov = [c * (1.0 + p.xi), c * -p.sigma, c * -p.sigma, c * (2.0 * p.sigma**2)]
    except OverflowError:   # sigma**2 beyond a double: a float power raises
        cov = [math.inf]
    if not all(map(math.isfinite, cov)):
        raise NumericalError(
            f"asymptotic covariance overflows a double at sigma={p.sigma:g}, "
            f"xi={p.xi:g}, n={n}")
    return AsymptoticCovariance(mean_vector=(p.xi, p.sigma),
                                cov_matrix=np.reshape(cov, (2, 2)))
