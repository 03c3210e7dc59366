"""Monte Carlo validation harness for the quantile-estimator distribution.

Each replication draws a fresh GPD sample, fits the tail model by maximum
likelihood and records the plug-in quantile.  Replication r uses its own
counter-based stream, Philox keyed by (seed, r), so results are bitwise
reproducible and independent of any execution order.  One Philox generator
serves the whole run: it is re-keyed to (seed, r) before row r is drawn.
Samples are drawn and fitted a block of rows at a time, in one buffer that
every block reuses: each row's uniforms come from its own stream, the
inverse transform (``gpd.sample``'s) runs in place on cache-sized slices of
the block's rows, and the row-wise MLE search divides each row in place by
its maximum and fits it on its own, so results do not depend on the block
size either.  That buffer is the only array of the block's size.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .density import DensitySpec, cdf_of_estimator
from .errors import NumericalError, ValidationError
from .gpd import ConfidenceLevel, GpdParams, _from_uniform, _scaled_expm1, quantile
from .mle import _fit_rows, asymptotic_covariance
from .quadrature import _row_slices

MIN_REPLICATIONS = 100
MAX_FAILED_FRACTION = 0.10
# elements of one (rows, n) block of samples fitted in one call
_BLOCK_ELEMENTS = 1_000_000
# the KS test reads the CDF at every 8th sorted sample first, then between
# anchors only where D can be set: 271-335 of the 2000 points of a fig-1
# run (n 100, xi 0.25, R 2000), whose cold KS stage fell from a median of
# 26 to 7 ms (fresh processes, seeds 3, 5, 11, 12, 301 and 777)
_KS_ANCHOR_STEP = 8
# how far a computed CDF may decrease by rounding (256 ulp of 1)
_KS_SLACK = 256 * np.finfo(float).eps
# the Kolmogorov series stops at the first term below this
_KS_TERM_TOL = 1e-12
# below this argument the Kolmogorov survival takes its small-argument form
_KS_SMALL_Y = 0.2

_log = logging.getLogger("tailgauge")


@dataclass(frozen=True)
class SimConfig:
    """One replication experiment: n draws per replication, fixed seed."""

    n: int
    replications: int
    params: GpdParams
    alpha: ConfidenceLevel
    seed: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValidationError(f"n must be an integer >= 2, got {self.n}")
        r = self.replications
        if not (isinstance(r, (int, np.integer)) and r >= MIN_REPLICATIONS):
            raise ValidationError(f"need >= {MIN_REPLICATIONS} replications, got {r}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValidationError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimReport:
    """Summary of the replication experiment."""

    q_hat_samples: np.ndarray
    empirical_mean: float
    empirical_variance: float
    empirical_bias: float
    ks_statistic: float
    ks_p_value: float
    failed_fits: int


def _replicate(config: SimConfig):
    """Converged per-replication MLE results (xi_hat, sigma_hat, failed count).

    Also returns the wall seconds of the sample and fit stages.  Raises
    NumericalError when more than MAX_FAILED_FRACTION of the fits fail to
    converge.
    """
    reps, n = config.replications, config.n
    xi_hat, sigma_hat = np.empty(reps), np.empty(reps)
    ok = np.empty(reps, dtype=bool)
    stages = {"sample": 0.0, "fit": 0.0}
    # One Philox, re-keyed to (seed, r) for row r: setting the state resets
    # the counter and buffer, so row r is bitwise Philox(key=[seed, r])'s
    # stream, without a fresh generator (and its unused OS entropy) per row.
    bits = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    gen, state = np.random.Generator(bits), bits.state
    rows = max(1, _BLOCK_ELEMENTS // n)
    # the one block-sized array: every block fills its leading rows
    buf = np.empty((min(rows, reps), n))
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        t0 = time.perf_counter()
        x = buf[:stop - start]
        for r in range(start, stop):
            state["state"]["key"][1] = r
            bits.state = state
            gen.random(out=x[r - start])
        # in cache-sized slices of rows: no block-sized temporaries
        for sl in _row_slices(stop - start, n):
            x[sl] = _from_uniform(config.params, x[sl])
        t1 = time.perf_counter()
        # the search checks the rows and scales them in place
        xi_hat[start:stop], sigma_hat[start:stop], _, ok[start:stop] = _fit_rows(x)
        stages["sample"] += t1 - t0
        stages["fit"] += time.perf_counter() - t1
    failed = int((~ok).sum())
    if failed > MAX_FAILED_FRACTION * reps:
        raise NumericalError(f"{failed}/{reps} replications failed to converge")
    return xi_hat[ok], sigma_hat[ok], failed, stages


def run(config: SimConfig) -> SimReport:
    """Replicate the estimation experiment and compare against the theory CDF."""
    xi_hat, sigma_hat, failed, stages = _replicate(config)
    t0 = time.perf_counter()
    q_hats = sigma_hat * _scaled_expm1(xi_hat, -math.log1p(-config.alpha.alpha))
    t1 = time.perf_counter()
    spec = DensitySpec(
        n=config.n, alpha=config.alpha, sigma=config.params.sigma,
        xi=config.params.xi, allow_unvalidated=True)
    reads = []

    def cdf(v):
        reads.append(v.size)
        return cdf_of_estimator(spec, v)

    d_stat, p_val = ks_test(q_hats, cdf)
    t2 = time.perf_counter()
    _log.debug("simulate run: %d replications, %d failed fits; wall s: sample %.3f, "
               "fit %.3f, quantile %.3f, ks %.3f (%d of %d points)", config.replications,
               failed, stages["sample"], stages["fit"], t1 - t0, t2 - t1, sum(reads),
               q_hats.size)
    q_true = quantile(config.params, config.alpha)
    emp_mean = float(q_hats.mean())
    return SimReport(
        q_hat_samples=q_hats,
        empirical_mean=emp_mean,
        empirical_variance=float(q_hats.var(ddof=1)),
        empirical_bias=emp_mean - q_true,
        ks_statistic=d_stat,
        ks_p_value=p_val,
        failed_fits=failed,
    )


def ks_test(samples, theoretical_cdf) -> tuple[float, float]:
    """One-sample two-sided Kolmogorov-Smirnov test against a pointwise CDF.

    Returns (D, p) with the asymptotic Kolmogorov p-value; the goodness-of-fit
    family is this harness's choice, reported as such downstream.  Raises
    ValidationError for samples that are not a nonempty one-dimensional
    sequence of finite values, and for CDF values that are not finite or
    fall outside [0, 1] at any sample it reads.

    ``theoretical_cdf`` maps an array of sorted samples to their CDF values,
    and must be nondecreasing to within ``_KS_SLACK``.  It is read first at
    every ``_KS_ANCHOR_STEP``-th sorted sample and the last one, the
    anchors.  Between anchors a and b, F(x_a) <= F(x_i) <= F(x_b) bounds
    sample i's distance ``max((i+1)/N - F(x_i), F(x_i) - i/N)``; the CDF is
    then read only at the samples whose bound reaches the anchors' D, since
    no other can set D.  Anchor values that decrease by more than the slack
    void the bounds, and the CDF is read at every sample.  D is then the
    statistic of the CDF's values at every sample, as long as the callable
    returns the same value at a sample whatever other samples it is given.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError(f"samples must be nonempty, one-dimensional; got shape {x.shape}")
    x = np.sort(x)
    if not np.isfinite(x).all():
        raise ValidationError("samples must be finite")
    n = x.size
    i = np.arange(n)
    # every step-th sample, and the last one
    anchors = np.minimum(np.arange(0, n + _KS_ANCHOR_STEP - 1, _KS_ANCHOR_STEP), n - 1)
    fa = _cdf_values(theoretical_cdf, x[anchors])
    if (np.diff(fa) < -_KS_SLACK).any():
        d = _ks_distance(i, _cdf_values(theoretical_cdf, x), n)
    else:
        d = _ks_distance(anchors, fa, n)
        seg = i // _KS_ANCHOR_STEP   # sample i lies between anchors seg and seg + 1
        bound = np.maximum((i + 1) / n - fa[seg],
                           fa[np.minimum(seg + 1, anchors.size - 1)] - i / n)
        rest = i[(i % _KS_ANCHOR_STEP != 0) & (i != n - 1) & (bound >= d - _KS_SLACK)]
        if rest.size:
            d = max(d, _ks_distance(rest, _cdf_values(theoretical_cdf, x[rest]), n))
    return d, _kolmogorov_sf(math.sqrt(n) * d)


def _cdf_values(theoretical_cdf, x: np.ndarray) -> np.ndarray:
    """``theoretical_cdf(x)`` as floats, each checked to lie in [0, 1]."""
    f = np.asarray(theoretical_cdf(x), dtype=float)
    # NaN fails both comparisons, and an infinity the range
    if not ((f >= 0.0) & (f <= 1.0)).all():
        raise ValidationError("the CDF must return values in [0, 1] at every sample")
    return f


def _ks_distance(i: np.ndarray, f: np.ndarray, n: int) -> float:
    """The largest ``max((i+1)/n - f, f - i/n)``: how far the CDF values ``f``
    at the sorted samples ``i`` (from 0) lie from the empirical CDF."""
    return float(np.max(np.maximum((i + 1) / n - f, f - i / n)))


def _kolmogorov_sf(y: float) -> float:
    """Survival function of the Kolmogorov distribution; NaN at NaN.

    Below ``_KS_SMALL_Y`` it is ``1 - K(y)`` with the small-argument form
    ``K(y) = sqrt(2 pi)/y sum_k exp(-(2k-1)^2 pi^2/(8 y^2))`` (Marsaglia,
    Tsang & Wang 2003), of which the first term is the double sum: the
    second is below e^-246 of it there.  Above, the alternating series
    2 * sum_k (-1)^(k-1) exp(-2 k^2 y^2), truncated once terms drop below
    ``_KS_TERM_TOL``, which takes at most 19 terms from ``_KS_SMALL_Y`` up;
    past y = 3.717, where the first term is below it, that term is the sum.
    """
    if math.isnan(y):
        return math.nan
    if y <= 0.0:
        return 1.0
    if y < _KS_SMALL_Y:
        c = math.pi / y   # inf for a subnormal y; exp(-inf) is 0
        return 1.0 - math.sqrt(2.0 * math.pi) * math.exp(-0.125 * c * c - math.log(y))
    total = 0.0
    sign = 1.0
    for k in itertools.count(1):
        term = math.exp(-2.0 * k * k * y * y)
        if term < _KS_TERM_TOL:
            break
        total += sign * term
        sign = -sign
    # total is 0 only where the series stopped before its first term
    return min(1.0, max(0.0, 2.0 * (total or term)))


def check_mle_asymptotics(config: SimConfig):
    """Empirical vs asymptotic covariance of (xi_hat, sigma_hat).

    Returns (empirical 2x2, theoretical 2x2, entrywise max relative error).
    """
    if config.replications < 1000:
        raise ValidationError("asymptotics check needs >= 1000 replications")
    xi_hat, sigma_hat, _failed, _stages = _replicate(config)
    emp = np.cov(np.vstack([xi_hat, sigma_hat]))
    theo = asymptotic_covariance(config.params, config.n).cov_matrix
    max_rel = float(np.max(np.abs(emp - theo) / np.abs(theo)))
    return emp, theo, max_rel
