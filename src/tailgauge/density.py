"""Finite-sample density of the GPD quantile estimator, its CDF and moments.

The sampling law of the plug-in tail quantile at sample size ``n`` is
approximated by pushing the limiting bivariate normal of the parameter
estimators ``(u, v) = (xi_hat, sigma_hat)`` through the quantile map
``z = v / psi(u)``, with ``psi(u) = u / ((1-alpha)**(-u) - 1) > 0``.  Here
``u`` is normal with mean ``xi`` and sd ``(1+xi)/sqrt(n)``; given ``u``, ``v``
is normal with mean ``m(u) = sigma - sigma (u-xi)/(1+xi)`` and sd
``s = sigma sqrt((1+2 xi)/n)``.  Every output is an expectation over ``u`` of
that conditional normal:

    density    f(z) = E_u psi(u) phi((z psi(u) - m(u))/s) / s
    CDF        F(z) = E_u Phi((z psi(u) - m(u))/s)
    moments    E z = E_u m/psi,  E z^2 = E_u (m^2 + s^2)/psi^2

(the density is the paper's formula with its exponent split into the normal
densities of ``u`` and of ``v`` given ``u``).  All of them are weighted sums
over one u-rule, and so is the bias/variance surface.  One
``quadrature.adaptive_rule`` call builds that rule: it refines until the
moment integrands and the density at a few probe points are resolved, and
its totals are the moments.  ``stats`` takes the normalization defect in
closed form, as the CDF's mass over the density's z-window; only
``stats(method="quadrature")``, the cross-check, integrates the density over
z, across the moment window.
The u-rule, the z-windows and the z-quadrature all run at one fixed accuracy:
relative 1e-8 (``_REL_TOL``), with at most 20 refinement or widening steps
(``_MAX_REFINEMENTS``).  Nothing is memoised: each entry point builds its
spec's u-rule once and hands it down.  The approximation is validated for
``n >= 50`` and ``xi`` in [0, 0.5]; anything else must be requested
explicitly and is flagged by a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bias import BiasSurface, SurfaceRow
from .errors import OutsideValidatedRegionWarning, QuadratureError, ValidationError
from .gpd import ConfidenceLevel, GpdParams, _scaled_expm1, quantile
from .quadrature import adaptive_rule, integrate_adaptive

# relative accuracy of the u-rule, the z-windows and the z-quadrature, and the
# cap on their refinement or widening steps
_REL_TOL = 1e-8
_MAX_REFINEMENTS = 20

# elements of the (u, z) block of one chunk of the u-sums.  A chunk of 32K
# doubles is 256 KB and _erfc holds about eight arrays of that size at once,
# so its ~30 elementwise passes stay in the 2 MB per-core L2 instead of
# streaming through DRAM, and the allocator reuses the freed arrays; at 64K
# it often hands them back to the OS and faults them in again.
# cdf_of_estimator at fig-1 (960 u-nodes, the 2000 points of an R=2000
# Monte Carlo) on a 2-vCPU Xeon.  Warm in one process, median of 15: 4M
# 0.148 s, 1M 0.123, 256K 0.090, 128K 0.078, 64K 0.076, 32K 0.085, 16K
# 0.092, 4K 0.171.  Cold in a fresh process, as in the CLI, median
# [quartiles] of 20: 64K 0.102 s [0.079-0.137], 32K 0.084 s [0.073-0.090].
_WORKSPACE = 32_768
# the u-rule spans xi - 10 sd_u to 10 sd_u above the peak of the second-moment
# integrand, which psi^-2 ~ exp(2 t u) shifts 2 t sd_u^2 above xi
_U_HALFWIDTH_SDS = 10.0
# the u-rule also resolves the density at the images m(u)/psi(u) of the
# u-quantiles xi + k sd_u, which follow the skewed law from its mode out to
# both tails; probes spaced by the estimator's sd around q_true leave the
# rule unrefined below the mode at (n, xi) = (50, 0.5)
_PROBE_SDS = np.array([-6.0, -3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0, 6.0])
_Z_EXPANSION = 1.5

# rational approximations of erf/erfc (Cody 1969, Math. Comp. 23, as in his
# CALERF): |x| <= 0.46875, 0.46875 < |x| <= 4, |x| > 4
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00,
          6.61191906371416295e01, 2.98635138197400131e02,
          8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02,
          5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e00, 1.87295284992346725e00,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1
# erfc(x) rounds to 0 from here on; skipping those arguments also keeps
# exp() out of its slow subnormal range
_ERFC_ZERO = 27.3

# grid used for the published bias/variance tables: 20 log-spaced sample sizes
# in [50, 1000] and shape steps of 0.1
DEFAULT_N_GRID = tuple(int(v) for v in np.rint(np.geomspace(50, 1000, 20)))
DEFAULT_XI_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class DensitySpec:
    """Parameter tuple (n, alpha, sigma, xi) indexing one estimator density."""

    n: int
    alpha: ConfidenceLevel
    sigma: float
    xi: float
    allow_unvalidated: bool = False

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.xi) or self.xi <= -0.5:
            raise ValidationError(f"the density requires xi > -0.5, got {self.xi}")
        if not (self.in_validated_region or self.allow_unvalidated):
            raise ValidationError(
                f"(n={self.n}, xi={self.xi}) is outside the validated region "
                "(n >= 50, 0 <= xi <= 0.5); pass allow_unvalidated=True to override")

    @property
    def in_validated_region(self) -> bool:
        return self.n >= 50 and 0.0 <= self.xi <= 0.5


@dataclass(frozen=True)
class QuantileStats:
    """Moments of the estimator density against the true quantile."""

    mean: float
    variance: float
    bias: float
    true_quantile: float
    normalization_defect: float


def psi(u, level: ConfidenceLevel):
    """The weight ``u / ((1-alpha)**(-u) - 1)``; positive for all real u."""
    out = 1.0 / _scaled_expm1(u, -math.log1p(-level.alpha))
    return float(out) if out.ndim == 0 else out


def _nested(num, den, x):
    """Numerator and denominator of Cody's rational form, less their last terms."""
    xnum, xden = num[-1] * x, x
    for a, b in zip(num[:len(den) - 1], den[:-1]):
        xnum = (xnum + a) * x
        xden = (xden + b) * x
    return xnum, xden


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, elementwise, to a few ulp (Cody 1969)."""
    y = np.abs(x)
    out = np.zeros_like(y)
    small = y <= 0.46875
    mid = (y > 0.46875) & (y <= 4.0)
    big = ~(y <= 4.0) & ~(y >= _ERFC_ZERO)   # NaN falls here and stays NaN
    xs = x[small]
    num, den = _nested(_ERF_A, _ERF_B, xs * xs)
    out[small] = 1.0 - xs * (num + _ERF_A[3]) / (den + _ERF_B[3])
    ym = y[mid]
    num, den = _nested(_ERF_C, _ERF_D, ym)
    out[mid] = _times_gauss(ym, (num + _ERF_C[7]) / (den + _ERF_D[7]))
    yb = y[big]
    w = 1.0 / (yb * yb)
    num, den = _nested(_ERF_P, _ERF_Q, w)
    out[big] = _times_gauss(
        yb, (_INV_SQRT_PI - w * (num + _ERF_P[4]) / (den + _ERF_Q[4])) / yb)
    flip = (x < 0.0) & ~small
    out[flip] = 2.0 - out[flip]
    return out


def _times_gauss(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r * exp(-y^2), with y^2 split so that its rounding does not enter."""
    head = np.trunc(16.0 * y) / 16.0
    return np.exp(-head * head) * np.exp(-(y - head) * (y + head)) * r


class _Plan(NamedTuple):
    t: float
    q_true: float
    mean: float
    var: float
    u_nodes: np.ndarray
    u_weights: np.ndarray


def _warn_if_unvalidated(spec: DensitySpec) -> None:
    if not spec.in_validated_region:
        warnings.warn(
            f"(n={spec.n}, xi={spec.xi}) lies outside the validated region; "
            "results are an unchecked extrapolation",
            OutsideValidatedRegionWarning, stacklevel=3)


def _conditional_law(spec: DensitySpec, t: float, u: np.ndarray):
    """The law of (u, v) at the nodes ``u``: the normal density g of u,
    psi(u), and the mean m(u) and sd s of v given u."""
    xi, sigma = spec.xi, spec.sigma
    du = u - xi
    sd_u = (1.0 + xi) / math.sqrt(spec.n)
    g = np.exp(-0.5 * (du / sd_u) ** 2) / (sd_u * math.sqrt(2.0 * math.pi))
    m = sigma - sigma * du / (1.0 + xi)
    s = sigma * math.sqrt((1.0 + 2.0 * xi) / spec.n)
    return g, 1.0 / _scaled_expm1(u, t), m, s


def _integrand_matrix(law, z: np.ndarray):
    """``g psi phi((z psi - m)/s)/s`` on the (u, z) grid: the density's
    integrand, whose weighted u-sum is f(z)."""
    g, pu, m, s = law
    x = (pu / s)[:, None] * z[None, :] - (m / s)[:, None]
    return (g * pu / (s * math.sqrt(2.0 * math.pi)))[:, None] * np.exp(-0.5 * x * x)


def _u_sum(weights: np.ndarray, z: np.ndarray, matrix) -> np.ndarray:
    """``weights @ matrix(z)``, over chunks of ``z`` that keep the (u, z)
    block within _WORKSPACE elements, so that the elementwise passes of
    ``matrix`` run in cache (at least one column per chunk).  Chunking
    changes only the order of the BLAS sums."""
    out = np.empty(z.shape, dtype=float)
    step = max(1, _WORKSPACE // max(weights.size, 1))
    for k in range(0, z.size, step):
        out[k:k + step] = weights @ matrix(z[k:k + step])
    return out


def _density_from_plan(spec: DensitySpec, plan: _Plan, z: np.ndarray) -> np.ndarray:
    law = _conditional_law(spec, plan.t, plan.u_nodes)
    return _u_sum(plan.u_weights, z, lambda zz: _integrand_matrix(law, zz))


def _cdf_from_plan(spec: DensitySpec, plan: _Plan, q: np.ndarray) -> np.ndarray:
    """``E_u Phi((q psi(u) - m(u))/s)`` on the plan's u-rule, with
    ``Phi(x) = erfc(-x/sqrt(2))/2``."""
    g, pu, m, s = _conditional_law(spec, plan.t, plan.u_nodes)
    a, b = (pu / (math.sqrt(2.0) * s))[:, None], (m / (math.sqrt(2.0) * s))[:, None]
    return _u_sum(0.5 * plan.u_weights * g, q, lambda qq: _erfc(b - a * qq[None, :]))


def _moment_parts(spec: DensitySpec, plan: _Plan, z: np.ndarray) -> np.ndarray:
    """The moment integrands (f, z f, z^2 f), one row per point of ``z``."""
    fz = _density_from_plan(spec, plan, z)
    return np.stack([fz, z * fz, z * z * fz], axis=-1)


def _plan(spec: DensitySpec) -> _Plan:
    """The spec's u-rule and moments from one adaptive Kronrod call.

    Over the truncated u-range the rule resolves, each to relative
    ``_REL_TOL``, the mass of u, the moment integrands ``g m/psi`` and
    ``g (m^2 + s^2)/psi^2``, and the density at the probes.  Where psi^-2
    overflows the rule cannot resolve, and the QuadratureError names the spec.
    """
    t = -math.log1p(-spec.alpha.alpha)
    q = quantile(GpdParams(spec.sigma, spec.xi), spec.alpha)
    sd_u = (1.0 + spec.xi) / math.sqrt(spec.n)
    lo = spec.xi - _U_HALFWIDTH_SDS * sd_u
    hi = spec.xi + (_U_HALFWIDTH_SDS + 2.0 * t * sd_u) * sd_u
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _g, psi_k, m_k, _s = _conditional_law(spec, t, spec.xi + _PROBE_SDS * sd_u)
        probes = m_k / psi_k

        def integrands(u):
            law = _conditional_law(spec, t, u)
            g, pu, m, s = law
            return np.column_stack([g, g * m / pu, g * (m * m + s * s) / (pu * pu),
                                    _integrand_matrix(law, probes)])

        try:
            totals, _err, nodes, weights = adaptive_rule(
                integrands, lo, hi, _REL_TOL, _MAX_REFINEMENTS)
        except QuadratureError as exc:
            raise QuadratureError(
                f"u-rule failed at (n={spec.n}, xi={spec.xi}): {exc}") from exc
    mean = float(totals[1])
    return _Plan(t, q, mean, float(totals[2]) - mean * mean, nodes, weights)


def _window(spec: DensitySpec, plan: _Plan,
            moments: bool = True) -> tuple[float, float]:
    """Adaptive z-window: start at q +- 8 sd, widen each edge until it is idle.

    An edge is idle when each moment integrand there (f, |z| f, z^2 f), times
    the window's width, is below ``_REL_TOL`` of its total as the u-sums of
    ``plan`` give it, (1, |E z|, E z^2), so the second moment is not silently
    truncated.  With ``moments=False`` only the density's own mass counts
    (enough for plotting, the CDF and the normalization defect).  The two
    edges expand independently, at most ``_MAX_REFINEMENTS`` times.
    """
    s = math.sqrt(max(plan.var, 1e-300))
    lo, hi = plan.q_true - 8.0 * s, plan.q_true + 8.0 * s
    totals = [1.0, abs(plan.mean), plan.var + plan.mean ** 2][:3 if moments else 1]
    budget = _REL_TOL * np.maximum(totals, 1e-300)
    for _ in range(_MAX_REFINEMENTS + 1):
        parts = np.abs(_moment_parts(spec, plan, np.array([lo, hi])))
        contrib = parts[:, :len(totals)] * (hi - lo)
        grow_lo = bool(np.any(contrib[0] >= budget))
        grow_hi = bool(np.any(contrib[1] >= budget))
        if not (grow_lo or grow_hi):
            return lo, hi
        c = 0.5 * (lo + hi)
        if grow_lo:
            lo = c - (c - lo) * _Z_EXPANSION
        if grow_hi:
            hi = c + (hi - c) * _Z_EXPANSION
    raise QuadratureError(
        f"z-window did not close within {_MAX_REFINEMENTS} widenings at "
        f"(n={spec.n}, xi={spec.xi})")


def evaluation_window(spec: DensitySpec) -> tuple[float, float]:
    """The adaptively chosen z-range that carries the density's mass."""
    _warn_if_unvalidated(spec)
    return _window(spec, _plan(spec), moments=False)


def _estimator_quantiles(spec: DensitySpec, probs) -> np.ndarray:
    """Quantiles of ``cdf_of_estimator`` at ``probs``: 64 bisections of
    ``evaluation_window``, which take the bracket below the spacing of doubles."""
    plan = _plan(spec)
    lo, hi = _window(spec, plan, moments=False)
    p = np.asarray(probs, dtype=float)
    target = p + _cdf_from_plan(spec, plan, np.array([lo]))[0]   # F(q) = G(q) - G(lo)
    a, b = np.full(p.shape, lo), np.full(p.shape, hi)
    for _ in range(64):
        mid = 0.5 * (a + b)
        below = _cdf_from_plan(spec, plan, mid) < target
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    return 0.5 * (a + b)


def density(spec: DensitySpec, z):
    """Density of the quantile estimator at ``z`` (scalar or array)."""
    _warn_if_unvalidated(spec)
    plan = _plan(spec)
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = _density_from_plan(spec, plan, arr)
    return float(out[0]) if np.ndim(z) == 0 else out


def cdf_of_estimator(spec: DensitySpec, q):
    """CDF of the quantile estimator at ``q`` (scalar or array).

    The density's mass from the lower edge of ``evaluation_window`` to ``q``
    (clipped to the window): exactly 0 below the window.
    """
    _warn_if_unvalidated(spec)
    plan = _plan(spec)
    lo, hi = _window(spec, plan, moments=False)
    qa = np.atleast_1d(np.asarray(q, dtype=float))
    g = _cdf_from_plan(spec, plan, np.concatenate([[lo], np.clip(qa, lo, hi)]))
    out = np.clip(g[1:] - g[0], 0.0, 1.0)
    out[qa <= lo] = 0.0
    return float(out[0]) if np.ndim(q) == 0 else out


def stats(spec: DensitySpec, method: str = "hermite") -> QuantileStats:
    """Mean, variance and bias of the estimator density.

    ``method="hermite"`` (default; the name is historical) runs no
    quadrature over z.  It takes the moments ``E z = E_u m/psi`` and
    ``E z^2 = E_u (m^2 + s^2)/psi^2`` from the u-rule's totals, and the
    normalization defect ``|G(hi) - G(lo) - 1|`` from the u-sum
    ``G(q) = E_u Phi((q psi - m)/s)`` of the CDF at the ends of
    ``evaluation_window``.  ``method="quadrature"`` integrates
    (f, z f, z^2 f) over the wider moment z-window, the independent
    cross-check; it runs to relative ``_REL_TOL`` in at most
    ``_MAX_REFINEMENTS`` rounds, and the two methods agree to that accuracy.
    """
    if method not in ("hermite", "quadrature"):
        raise ValidationError(f"unknown stats method {method!r}")
    _warn_if_unvalidated(spec)
    plan = _plan(spec)
    if method == "hermite":
        g_lo, g_hi = _cdf_from_plan(
            spec, plan, np.array(_window(spec, plan, moments=False)))
        mass = g_hi - g_lo
        mean, var = plan.mean, plan.var
    else:
        totals, _err = integrate_adaptive(
            lambda zz: _moment_parts(spec, plan, zz), *_window(spec, plan),
            rel_tol=_REL_TOL, max_rounds=_MAX_REFINEMENTS)
        mass, i1, i2 = (float(v) for v in totals)
        mean, var = i1, i2 - i1 * i1
    return QuantileStats(
        mean=mean,
        variance=var,
        bias=mean - plan.q_true,
        true_quantile=plan.q_true,
        normalization_defect=abs(float(mass) - 1.0),
    )


def bias_variance_surface(n_values, xi_values, alpha: ConfidenceLevel,
                          sigma: float) -> BiasSurface:
    """Bias and variance over the (n, xi) grid, row-major by n then xi.

    Each cell carries the u-rule moments that ``stats`` returns, taken from
    the cell's plan; building the plan also checks that its u-rule resolves
    to relative ``_REL_TOL`` within ``_MAX_REFINEMENTS`` refinements.
    """
    rows = []
    for n in n_values:
        for xi in xi_values:
            spec = DensitySpec(n=int(n), alpha=alpha, sigma=sigma, xi=float(xi))
            plan = _plan(spec)
            rows.append(SurfaceRow(n=int(n), xi=float(xi),
                                   bias=plan.mean - plan.q_true,
                                   variance=plan.var))
    return BiasSurface(alpha=alpha, sigma=sigma, rows=tuple(rows))
