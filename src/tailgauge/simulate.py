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
# the Kolmogorov series stops at the first term below this
_KS_TERM_TOL = 1e-12

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
        xi_hat[start:stop], sigma_hat[start:stop], ok[start:stop] = _fit_rows(x)
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
    d_stat, p_val = ks_test(q_hats, lambda v: cdf_of_estimator(spec, v))
    t2 = time.perf_counter()
    _log.debug("simulate run: %d replications, %d failed fits; wall s: sample %.3f, "
               "fit %.3f, quantile %.3f, ks %.3f", config.replications, failed,
               stages["sample"], stages["fit"], t1 - t0, t2 - t1)
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
    ValidationError for a sample that is not finite, and for CDF values that
    are not finite or fall outside [0, 1].
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValidationError("samples must be nonempty")
    if not np.isfinite(x).all():
        raise ValidationError("samples must be finite")
    f = np.asarray(theoretical_cdf(x), dtype=float)
    # NaN fails both comparisons, and an infinity the range
    if not ((f >= 0.0) & (f <= 1.0)).all():
        raise ValidationError("the CDF must return values in [0, 1] at every sample")
    i = np.arange(1, x.size + 1)
    d_plus = float(np.max(i / x.size - f))
    d_minus = float(np.max(f - (i - 1) / x.size))
    d = max(d_plus, d_minus)
    return d, _kolmogorov_sf(math.sqrt(x.size) * d)


def _kolmogorov_sf(y: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Alternating series 2 * sum_k (-1)^(k-1) exp(-2 k^2 y^2), truncated once
    terms drop below ``_KS_TERM_TOL``; NaN at NaN.
    """
    if math.isnan(y):
        return math.nan
    if y <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100_001):
        term = math.exp(-2.0 * k * k * y * y)
        if term < _KS_TERM_TOL:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


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
