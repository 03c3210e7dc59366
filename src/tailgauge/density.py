"""Finite-sample density of the GPD quantile estimator, its CDF and moments.

The sampling law of the plug-in tail quantile at sample size ``n`` is
approximated by pushing the limiting bivariate normal of the parameter
estimators ``(u, v) = (xi_hat, sigma_hat)``, the one ``mle.asymptotic_covariance``
states, through the quantile map ``z = v / psi(u)``, with
``psi(u) = u / ((1-alpha)**(-u) - 1) > 0``.  Given ``u``, ``v`` is normal with
the conditional mean ``m(u)`` and sd ``s`` of that law.  Every output is an
expectation over ``u`` of that conditional normal:

    density    f(z) = E_u psi(u) phi((z psi(u) - m(u))/s) / s
    CDF        G(z) = E_u Phi((z psi(u) - m(u))/s)
    survival   S(z) = E_u Phi(-(z psi(u) - m(u))/s)
    mass       1 = E_u 1
    moments    E (z-q) = E_u (m/psi - q),  E (z-q)^2 = E_u ((m/psi - q)^2 + (s/psi)^2)

about the true quantile ``q`` (the density is the paper's formula with its
exponent split into the normal densities of ``u`` and of ``v`` given
``u``).  All of them are weighted sums over one u-rule per spec, and so is
each cell of the bias/variance surface.  One ``quadrature.adaptive_rule``
call builds the rules of all specs at once (``_plans``; one spec is a
batch of one): each rule is refined on its own until its mass, its moment
integrands and its density at a few probe points are resolved, and its
totals are the mass, the bias and ``E (z-q)^2``; ``stats`` reads its
normalization defect off that mass.
``G`` is the CDF on the whole line, with no window behind it; quantiles
bisect ``G`` up to the median and ``S`` above, from a bracket beyond which
every node's normal is exactly 0.  Only ``stats(method="quadrature")``, the
cross-check, integrates the density over z, across the whole line.
The u-rule and the z-quadrature run at one fixed accuracy: relative 1e-8
(``_REL_TOL``), with at most 20 refinement rounds (``_MAX_REFINEMENTS``).
Nothing is memoised: each entry point builds its spec's u-rule once and
hands it down, and ``bias_variance_surface`` builds every cell's rule in
one batch.  The approximation is validated for
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
from .mle import AsymptoticCovariance, asymptotic_covariance
from .quadrature import _WORKSPACE, adaptive_rule, integrate_adaptive

# relative accuracy of the u-rule and the z-quadrature, and the cap on their
# refinement rounds
_REL_TOL = 1e-8
_MAX_REFINEMENTS = 20

# the u-rule spans mu_u - 10 sd_u (u's mean and sd) to 10 sd_u above the peak of
# the second-moment integrand, which psi^-2 ~ exp(2 t u) shifts 2 t sd_u^2 up
_U_HALFWIDTH_SDS = 10.0
# the u-rule also resolves the density at the images m(u)/psi(u) of the
# u-quantiles mu_u + k sd_u, which follow the skewed law from its mode out to
# both tails; probes spaced by the estimator's sd around q_true leave the
# rule unrefined below the mode at (n, xi) = (50, 0.5)
_PROBE_SDS = np.array([-6.0, -3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0, 6.0])
# the estimator's mass that evaluation_window leaves below and above it
_WINDOW_TAIL = 1e-12

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
# the validated region: n >= VALIDATED_MIN_N and xi in VALIDATED_XI
VALIDATED_MIN_N = 50
VALIDATED_XI = (0.0, 0.5)


@dataclass(frozen=True)
class DensitySpec:
    """Parameter tuple (n, alpha, sigma, xi) indexing one estimator density."""

    n: int
    alpha: ConfidenceLevel
    sigma: float
    xi: float
    allow_unvalidated: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.n) and self.n == int(self.n) >= 1):
            raise ValidationError(f"n must be a positive integer, got {self.n}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.xi) or self.xi <= -0.5:
            raise ValidationError(f"the density requires xi > -0.5, got {self.xi}")
        if not (self.in_validated_region or self.allow_unvalidated):
            raise ValidationError(
                f"(n={self.n}, xi={self.xi}) is outside the validated region "
                f"(n >= {VALIDATED_MIN_N}, {VALIDATED_XI[0]:g} <= xi <= "
                f"{VALIDATED_XI[1]:g}); pass allow_unvalidated=True to override")

    @property
    def in_validated_region(self) -> bool:
        lo, hi = VALIDATED_XI
        return self.n >= VALIDATED_MIN_N and lo <= self.xi <= hi


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


class _Law(NamedTuple):
    """The normal law of (u, v) that ``mle.asymptotic_covariance`` states, in
    the form ``_conditional_law`` reads: the mean and sd of u, and the mean
    of v, its slope on u and its sd given u.  Floats for one spec, or arrays
    that broadcast with the nodes u."""

    mu_u: float
    sd_u: float
    mu_v: float
    slope: float
    s: float


class _Plan(NamedTuple):
    t: float
    law: _Law
    q_true: float
    mass: float
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


def _law(cov: AsymptoticCovariance) -> _Law:
    (mu_u, mu_v), ((c00, c01), (_c10, c11)) = cov.mean_vector, cov.cov_matrix.tolist()
    return _Law(mu_u, math.sqrt(c00), mu_v, c01 / c00, math.sqrt(c11 - c01 * c01 / c00))


def _conditional_law(law: _Law, t, u: np.ndarray):
    """The normal ``law`` of (u, v) at the nodes ``u``: the density g of u,
    psi(u), and the mean m(u) and sd s of the normal of v given u.  The
    law's fields and ``t`` are floats or arrays that broadcast with ``u``."""
    du = u - law.mu_u
    g = np.exp(-0.5 * (du / law.sd_u) ** 2) / (law.sd_u * math.sqrt(2.0 * math.pi))
    return g, 1.0 / _scaled_expm1(u, t), law.mu_v + law.slope * du, law.s


def _integrand_matrix(cond, z: np.ndarray):
    """``g psi phi((z psi - m)/s)/s`` on the (u, z) grid, or at one row of
    z per node: the density's integrand, whose weighted u-sum is f(z)."""
    g, pu, m, s = cond
    x = (pu / s)[:, None] * z - (m / s)[:, None]
    out = -0.5 * x   # in place from here on: one block besides x
    out *= x
    np.exp(out, out=out)
    out *= (g * pu / (s * math.sqrt(2.0 * math.pi)))[:, None]
    return out


def _u_sum(weights: np.ndarray, size: int, matrix) -> np.ndarray:
    """``weights @ matrix(cols)`` over slices ``cols`` of the ``size``
    points that keep the (u, point) block within _WORKSPACE elements, so
    that the elementwise passes of ``matrix`` run in cache (at least one
    column per slice).  Slicing changes only the order of the BLAS sums."""
    out = np.empty(size, dtype=float)
    step = max(1, _WORKSPACE // max(weights.size, 1))
    for k in range(0, size, step):
        cols = slice(k, k + step)
        out[cols] = weights @ matrix(cols)
    return out


def _density_from_plan(plan: _Plan, z: np.ndarray) -> np.ndarray:
    cond = _conditional_law(plan.law, plan.t, plan.u_nodes)
    return _u_sum(plan.u_weights, z.size, lambda cols: _integrand_matrix(cond, z[cols]))


def _cdf_from_plan(plan: _Plan, q: np.ndarray, upper=False) -> np.ndarray:
    """``G(q)``, and ``S(q)`` where ``upper`` (one flag, or one per point),
    on the plan's u-rule, with ``Phi(x) = erfc(-x/sqrt(2))/2``; S keeps its
    relative precision where G is 1."""
    g, pu, m, s = _conditional_law(plan.law, plan.t, plan.u_nodes)
    a, b = (pu / (math.sqrt(2.0) * s))[:, None], (m / (math.sqrt(2.0) * s))[:, None]
    sign = np.broadcast_to(np.where(upper, -1.0, 1.0), q.shape)
    return _u_sum(0.5 * plan.u_weights * g, q.size,
                  lambda cols: _erfc(sign[cols] * (b - a * q[None, cols])))


def _plan(spec: DensitySpec) -> _Plan:
    """The plan of one spec: ``_plans`` of a batch of one."""
    return _plans([spec])[0]


def _plans(specs) -> list[_Plan]:
    """The specs' limiting laws, u-rules and moments from one adaptive Kronrod call.

    Over each spec's truncated u-range its rule resolves, each to relative
    ``_REL_TOL``, the mass of u, the moment integrands ``g (m/psi - q)`` and
    ``g ((m/psi - q)^2 + (s/psi)^2)`` about the true quantile ``q``, and the
    density at the probes.  The bias is the first of those moments, so it is
    resolved directly, and the variance ``E (z-q)^2 - bias^2`` cancels
    nothing.  The integrand gathers each node's law, ``t``, ``q`` and probes
    by its spec, and every rule is refined on its own, so a spec's plan
    does not depend on the rest of ``specs``.  Where the rounding of
    ``m/psi - q`` swamps the bias (n beyond about 1e9), where psi^-2
    overflows, or where the rule does not hold the law's unit mass, the
    QuadratureError names the first such spec of ``specs``.
    """
    rows = []
    for spec in specs:
        params = GpdParams(spec.sigma, spec.xi)
        law = _law(asymptotic_covariance(params, spec.n))
        t = -math.log1p(-spec.alpha.alpha)
        rows.append((*law, t, quantile(params, spec.alpha),
                     law.mu_u - _U_HALFWIDTH_SDS * law.sd_u,
                     law.mu_u + (_U_HALFWIDTH_SDS + 2.0 * t * law.sd_u) * law.sd_u))
    # one row per field, one column per spec: the law, t, q_true, lo, hi
    cells = np.array(rows, dtype=float).reshape(len(specs), 9).T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        col = cells[:, :, None]
        _g, psi_k, m_k, _s = _conditional_law(_Law(*col[:5]), col[5],
                                              col[0] + _PROBE_SDS * col[1])
        laws, probes = cells[:7], (m_k / psi_k).T

        def integrands(u, cell):
            at = laws.take(cell, axis=1)
            g, pu, m, s = cond = _conditional_law(_Law(*at[:5]), at[5], u)
            d = m / pu - at[6]
            return np.column_stack([g, g * d, g * (d * d + (s / pu) ** 2),
                                    _integrand_matrix(cond, probes.take(cell, axis=1).T)])

        try:
            totals, _err, nodes, weights = adaptive_rule(
                integrands, cells[7], cells[8], _REL_TOL, _MAX_REFINEMENTS)
        except QuadratureError as exc:
            _plans(specs[:exc.index])   # an earlier spec may fail its mass check
            spec = specs[exc.index]
            raise QuadratureError(
                f"u-rule failed at (n={spec.n}, xi={spec.xi}): {exc}") from exc
    plans = []
    for spec, (*law, t, q_true, _lo, _hi), total, u_nodes, u_weights in zip(
            specs, rows, totals, nodes, weights):
        mass, bias, second = (float(v) for v in total[:3])
        if not abs(mass - 1.0) <= _REL_TOL:   # e.g. a u-range that rounds to a point
            raise QuadratureError(
                f"u-rule failed at (n={spec.n}, xi={spec.xi}): it holds mass {mass:.3g}")
        plans.append(_Plan(t, _Law(*law), q_true, mass, q_true + bias, second - bias * bias,
                           u_nodes, u_weights))
    return plans


def evaluation_window(spec: DensitySpec) -> tuple[float, float]:
    """The z-range that carries the density's mass: the estimator quantiles
    that leave ``_WINDOW_TAIL`` below and above."""
    _warn_if_unvalidated(spec)
    lo, hi = _estimator_quantiles(_plan(spec), (_WINDOW_TAIL, 1.0 - _WINDOW_TAIL))
    return float(lo), float(hi)


def _estimator_quantiles(plan: _Plan, probs) -> np.ndarray:
    """Quantiles of ``cdf_of_estimator`` at ``probs`` in (0, 1): ``G(q) = p``
    for ``p <= 0.5`` and ``S(q) = 1 - p`` above, where G resolves only to an
    ulp of 1, bisected to adjacent doubles; each step is one u-sum that
    takes G and S together.  The bracket is read off the u-rule: with
    ``K = _ERFC_ZERO sqrt(2)``, every node's erfc argument reaches
    ``_ERFC_ZERO`` below ``min((m - K s)/psi)``, so G is exactly 0 there, and
    S is exactly 0 above ``max((m + K s)/psi)``."""
    p = np.asarray(probs, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValidationError(f"probabilities must lie in (0, 1), got {probs}")
    upper = p > 0.5
    target = np.where(upper, 1.0 - p, p)

    def short(q):   # True where q lies below the quantile
        tail = _cdf_from_plan(plan, q, upper)
        return np.where(upper, tail > target, tail < target)
    _g, pu, m, s = _conditional_law(plan.law, plan.t, plan.u_nodes)
    reach = _ERFC_ZERO * math.sqrt(2.0) * s
    a = np.full(p.shape, np.min((m - reach) / pu))
    b = np.full(p.shape, np.max((m + reach) / pu))
    mid = 0.5 * (a + b)
    while np.any((a < mid) & (mid < b)):
        below = short(mid)
        a, b = np.where(below, mid, a), np.where(below, b, mid)
        mid = 0.5 * (a + b)
    return mid


def _pointwise(from_plan, plan: _Plan, points):
    """``from_plan(plan, x)`` on the flattened ``points``, in their shape;
    a float for a scalar."""
    arr = np.asarray(points, dtype=float)
    out = from_plan(plan, arr.ravel()).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


def density(spec: DensitySpec, z):
    """Density of the quantile estimator at ``z`` (scalar or array of any shape)."""
    _warn_if_unvalidated(spec)
    return _pointwise(_density_from_plan, _plan(spec), z)


def cdf_of_estimator(spec: DensitySpec, q):
    """CDF of the quantile estimator at ``q`` (scalar or array of any shape):
    the u-sum ``G(q)`` on the whole line, 0 at -inf, the u-rule's mass (1 to
    about 1e-14) at +inf, NaN at NaN."""
    _warn_if_unvalidated(spec)
    return _pointwise(_cdf_from_plan, _plan(spec), q)


def stats(spec: DensitySpec, method: str = "hermite") -> QuantileStats:
    """Mean, variance and bias of the estimator density.

    ``method="hermite"`` (default; the name is historical) runs no
    quadrature over z.  It takes the bias ``E_u (m/psi - q)``, the variance
    from ``E_u ((m/psi - q)^2 + (s/psi)^2)`` and the normalization defect
    ``|E_u 1 - 1|``, the mass of f over the whole line, from the u-rule's
    totals.  ``method="quadrature"`` integrates (f, (z-q) f, (z-q)^2 f) over
    the whole line, mapped onto (-1, 1), the independent cross-check; it
    runs to relative ``_REL_TOL`` in at most ``_MAX_REFINEMENTS`` rounds,
    and the two methods agree to that accuracy.
    """
    if method not in ("hermite", "quadrature"):
        raise ValidationError(f"unknown stats method {method!r}")
    _warn_if_unvalidated(spec)
    plan = _plan(spec)
    if method == "hermite":
        mass, mean, var = plan.mass, plan.mean, plan.var
    else:
        h = math.sqrt(plan.var)

        def moment_parts(x):   # z - q = h x/(1 - x^2) maps (-1, 1) onto the line
            w = 1.0 - x * x
            d = h * x / w
            fj = _density_from_plan(plan, plan.q_true + d) * (h * (1.0 + x * x) / (w * w))
            return np.column_stack([fj, d * fj, d * d * fj])

        totals, _err = integrate_adaptive(moment_parts, -1.0, 1.0,
                                          rel_tol=_REL_TOL, max_rounds=_MAX_REFINEMENTS)
        mass, bias, second = (float(v) for v in totals)
        mean, var = plan.q_true + bias, second - bias * bias
    return QuantileStats(
        mean=mean,
        variance=var,
        bias=mean - plan.q_true,
        true_quantile=plan.q_true,
        normalization_defect=abs(mass - 1.0),
    )


def bias_variance_surface(n_values, xi_values, alpha: ConfidenceLevel,
                          sigma: float) -> BiasSurface:
    """Bias and variance over the (n, xi) grid, row-major by n then xi.

    Every cell's spec is validated before any quadrature; then one
    ``_plans`` call builds the u-rules of all cells, each resolved to
    relative ``_REL_TOL`` within ``_MAX_REFINEMENTS`` refinements.  Each
    cell carries the u-rule moments that ``stats`` returns for its spec.
    """
    specs = [DensitySpec(n=int(n), alpha=alpha, sigma=sigma, xi=float(xi))
             for n in n_values for xi in xi_values]
    rows = tuple(SurfaceRow(n=spec.n, xi=spec.xi, bias=plan.mean - plan.q_true,
                            variance=plan.var)
                 for spec, plan in zip(specs, _plans(specs)))
    return BiasSurface(alpha=alpha, sigma=sigma, rows=rows)
