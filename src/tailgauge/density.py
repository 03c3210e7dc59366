"""Finite-sample density of the GPD quantile estimator, its CDF and moments.

The sampling law of the plug-in tail quantile at sample size ``n`` is
approximated by pushing a bivariate normal of the parameter estimators
``(u, v) = (xi_hat, sigma_hat)``, by default the limiting one that
``mle.asymptotic_covariance`` states, through the quantile map
``z = v / psi(u)``, with ``psi(u) = u / ((1-alpha)**(-u) - 1) > 0``.  Given
``u``, ``v`` is normal with the conditional mean ``m(u)`` and sd ``s`` of
that law.  The density and the CDF are expectations over ``u`` of that
conditional normal:

    density    f(z) = E_u psi(u) phi((z psi(u) - m(u))/s) / s
    CDF        G(z) = E_u Phi((z psi(u) - m(u))/s)
    survival   S(z) = E_u Phi(-(z psi(u) - m(u))/s)
    mass       1 = E_u 1

(the density is the paper's formula with its exponent split into the normal
densities of ``u`` and of ``v`` given ``u``).  ``EstimatorLaw`` holds one
spec's law, its normal fixed at construction from ``law=``.  All of these are
weighted sums over its adaptive u-rule, built on first use and refined until
its mass and its density at a few probe points are resolved; ``stats`` reads
its normalization defect off that mass.  The moments need no u-rule: with
``1/psi(u) = int_0^t e^{ru} dr`` they are exact 1-D integrals over ``r`` of
the normal's moment generating function, whatever its centre
(``EstimatorLaw.moments``), so nothing cancels at any ``n``; the surface and
``fit``'s bias read them.  ``G`` is the CDF on the whole line, with no window
behind it; quantiles bisect ``G`` up to the median and ``S`` above, from a
bracket beyond which every node's normal is exactly 0.  Only the cross-check
``stats(method="quadrature")`` integrates the density over z, across the
whole line.  Every rule runs at one fixed accuracy: relative 1e-8
(``_REL_TOL``), with at most 20 refinement rounds (``_MAX_REFINEMENTS``).
Nothing is memoised beyond one law object: the module functions build a
fresh one per call.  The approximation is validated for ``n >= 50`` and
``xi`` in [0, 0.5]; anything else must be requested explicitly and is
flagged by a warning.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bias import BiasSurface, SurfaceRow
from .errors import OutsideValidatedRegionWarning, QuadratureError, ValidationError
from .gpd import ConfidenceLevel, GpdParams, _scaled_expm1, quantile
from .mle import AsymptoticCovariance, _check_size, asymptotic_covariance
from .quadrature import _row_slices, adaptive_rule

# relative accuracy of the u-rule, the r-rule of the moments and the
# z-quadrature, and the cap on their refinement rounds
_REL_TOL = 1e-8
_MAX_REFINEMENTS = 20

# the u-rule spans mu_u - 10 sd_u (u's mean and sd) to 10 sd_u above
# mu_u + 2 t sd_u^2, the peak of g psi^-2 ~ g exp(2 t u).  The mass and the
# probes need less, but mu_u +- 10 sd_u moves the estimator's 1e-12 quantile
# by up to 1.5e-10 relative on the 20x11 grid, so the range stays and the
# outputs stay stable to the bit
_U_HALFWIDTH_SDS = 10.0
# the u-rule also resolves the density at the images m(u)/psi(u) of the
# u-quantiles mu_u + k sd_u, which follow the skewed law from its mode out to
# both tails; probes spaced by the estimator's sd around q_true leave the
# rule unrefined below the mode at (n, xi) = (50, 0.5)
_PROBE_SDS = np.array([-6.0, -3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0, 6.0])
# the frames a region warning skips to reach the user's call
_PACKAGE_DIR = os.path.dirname(__file__)

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
        _check_size(self.n)
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
    """The weight ``u / ((1-alpha)**(-u) - 1)``: positive, and 0 where
    ``(1-alpha)**(-u)`` overflows a double (u above about 102.7 at alpha 0.999)."""
    with np.errstate(over="ignore"):
        out = 1.0 / _scaled_expm1(u, -math.log1p(-level.alpha))
    return float(out) if out.ndim == 0 else out


def _rational(num, den, x, times=None):
    """Cody's rational form ``P(x) / Q(x)``, ``P`` times ``times`` where that
    is given, in place in two arrays: with the nested (Horner) sums ``p``
    and ``q`` of all but the last terms, every element rounds as
    ``(p + num[-2]) * times / (q + den[-1])``."""
    p, q = num[-1] * x, x.copy()
    for a, b in zip(num[:-2], den[:-1]):
        p += a
        p *= x
        q += b
        q *= x
    p += num[-2]
    if times is not None:
        p *= times   # before the division
    q += den[-1]
    p /= q
    return p


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, elementwise, to a few ulp (Cody 1969).

    Each branch evaluates the formula in its comment in place, in the
    formula's order of operations, so every element rounds as it would."""
    y = np.abs(x)
    out = np.zeros_like(y)
    small = y <= 0.46875
    mid = (y > 0.46875) & (y <= 4.0)
    big = ~(y <= 4.0) & ~(y >= _ERFC_ZERO)   # NaN falls here and stays NaN
    # 1 - x P(x^2) / Q(x^2)
    xs = x[small]
    r = _rational(_ERF_A, _ERF_B, xs * xs, times=xs)
    out[small] = np.subtract(1.0, r, out=r)
    # exp(-y^2) P(y) / Q(y)
    ym = y[mid]
    out[mid] = _times_gauss(ym, _rational(_ERF_C, _ERF_D, ym))
    # exp(-y^2) (1/sqrt(pi) - w P(w) / Q(w)) / y, w = 1/y^2
    yb = y[big]
    w = 1.0 / (yb * yb)
    r = _rational(_ERF_P, _ERF_Q, w, times=w)
    del w   # freed before _times_gauss takes its two work arrays
    np.subtract(_INV_SQRT_PI, r, out=r)
    r /= yb
    out[big] = _times_gauss(yb, r)
    np.subtract(2.0, out, out=out, where=(x < 0.0) & ~small)
    return out


def _times_gauss(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r * exp(-head^2) exp(-(y - head)(y + head)) = r * exp(-y^2), with
    head = trunc(16 y)/16 so that the rounding of y^2 does not enter; in
    place in ``r``, with two work arrays (``head`` is built twice)."""
    head = np.trunc(16.0 * y) / 16.0
    rest = y + head
    rest *= np.negative(np.subtract(y, head, out=head), out=head)
    np.exp(rest, out=rest)
    np.trunc(np.multiply(16.0, y, out=head), out=head)
    head /= 16.0
    head *= head
    np.exp(np.negative(head, out=head), out=head)
    head *= rest
    r *= head
    return r


class _Law(NamedTuple):
    """A normal law of (u, v) in the form ``_conditional_law`` reads: the mean
    and sd of u, and the mean of v, its slope on u and its sd given u."""

    mu_u: float
    sd_u: float
    mu_v: float
    slope: float
    s: float


class _URule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray
    mass: float
    bracket: tuple[float, float]   # G is 0 below it and S is 0 above it


def _conditional_law(law: _Law, t, u: np.ndarray):
    """The normal ``law`` of (u, v) at the nodes ``u``: the density g of u,
    psi(u), and the mean m(u) and sd s of the normal of v given u."""
    du = u - law.mu_u
    g = np.exp(-0.5 * (du / law.sd_u) ** 2) / (law.sd_u * math.sqrt(2.0 * math.pi))
    return g, 1.0 / _scaled_expm1(u, t), law.mu_v + law.slope * du, law.s


def _integrand_matrix(cond, z: np.ndarray):
    """``g psi phi((z psi - m)/s)/s`` on the (u, z) grid: the density's
    integrand, whose weighted u-sum is f(z)."""
    g, pu, m, s = cond
    x = (pu / s)[:, None] * z - (m / s)[:, None]
    out = -0.5 * x   # in place from here on: one block besides x
    out *= x
    np.exp(out, out=out)
    out *= (g * pu / (s * math.sqrt(2.0 * math.pi)))[:, None]
    return out


def _u_sum(weights: np.ndarray, size: int, matrix) -> np.ndarray:
    """``weights @ matrix(cols)`` over slices ``cols`` of the ``size``
    points whose (u, point) blocks are cache-sized (``_row_slices``), so
    that the elementwise passes of ``matrix`` run in cache (at least one
    column per slice).  Slicing changes only the order of the BLAS sums."""
    out = np.empty(size, dtype=float)
    for cols in _row_slices(size, max(weights.size, 1)):
        out[cols] = weights @ matrix(cols)
    return out


def _checked(law: AsymptoticCovariance) -> AsymptoticCovariance:
    """A passed ``law`` in floats, once it is a normal of (u, v) whose v given
    u is a proper normal; else a ValidationError says what it lacks."""
    try:
        mean, cov = (np.asarray(a, dtype=float) for a in (law.mean_vector, law.cov_matrix))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"law must be an AsymptoticCovariance of numbers: {exc}") from exc
    c00, c01, c10, c11 = cov.ravel().tolist() if cov.shape == (2, 2) else [math.nan] * 4
    lacks = ("a mean of two finite numbers" if mean.shape != (2,) or not np.isfinite(mean).all()
             else "a finite 2x2 covariance" if not np.isfinite([c00, c01, c10, c11]).all()
             else "a symmetric covariance" if c01 != c10
             else "c00 > 0" if not c00 > 0.0
             else "c11 - c01^2/c00 > 0" if not c11 - c01 * (c01 / c00) > 0.0 else None)
    if lacks:
        raise ValidationError(f"law needs {lacks}, got {law}")
    return AsymptoticCovariance(tuple(mean.tolist()), cov)


def _user_stacklevel() -> int:
    """The ``stacklevel`` at which ``warnings.warn``, called by this helper's
    caller, names the first frame outside the package: the user's own line,
    through any chain of package calls.  (``skip_file_prefixes`` does this
    from Python 3.12 on; the package supports 3.10.)"""
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    return level


class EstimatorLaw:
    """The finite-sample law of the quantile estimator at one spec: ``normal``, of
    (u, v), fixed at construction from ``law`` (``asymptotic_covariance``'s by
    default), ``t = -log(1 - alpha)``, the true quantile ``q_true``, the u-rule."""

    def __init__(self, spec: DensitySpec, law: AsymptoticCovariance | None = None):
        params = GpdParams(spec.sigma, spec.xi)
        law = asymptotic_covariance(params, spec.n) if law is None else _checked(law)
        (mu_u, mu_v), ((c00, c01), (_c10, c11)) = law.mean_vector, law.cov_matrix.tolist()
        slope = c01 / c00
        self.spec = spec
        self._normal = _Law(mu_u, math.sqrt(c00), mu_v, slope, math.sqrt(c11 - c01 * slope))
        self.t = -math.log1p(-spec.alpha.alpha)
        self.q_true = quantile(params, spec.alpha)
        self._u_rule = None

    normal = property(lambda self: self._normal, doc="The normal law of (u, v).")

    @property
    def u_rule(self) -> _URule:
        """The u-rule of ``normal``, built on first use by one adaptive Kronrod
        call after the region warning, which resolves the mass of u and the
        density at the probes on the truncated u-range to relative ``_REL_TOL``.
        Where it does not, holds no unit mass, or has a quantile bracket that is
        not finite (psi underflows on the u-range), QuadratureError names the spec."""
        if self._u_rule is not None:
            return self._u_rule
        spec, law, t = self.spec, self.normal, self.t
        if not spec.in_validated_region:
            warnings.warn(f"(n={spec.n}, xi={spec.xi}) lies outside the validated region; "
                          "results are an unchecked extrapolation",
                          OutsideValidatedRegionWarning, stacklevel=_user_stacklevel())
        failed = f"u-rule failed at (n={spec.n}, xi={spec.xi})"
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            _g, psi_k, m_k, _s = _conditional_law(law, t, law.mu_u + _PROBE_SDS * law.sd_u)
            probes = m_k / psi_k

            def integrands(u):
                cond = _conditional_law(law, t, u)
                return np.column_stack([cond[0], _integrand_matrix(cond, probes)])

            try:
                total, _err, nodes, weights = adaptive_rule(
                    integrands, law.mu_u - _U_HALFWIDTH_SDS * law.sd_u,
                    law.mu_u + (_U_HALFWIDTH_SDS + 2.0 * t * law.sd_u) * law.sd_u,
                    _REL_TOL, _MAX_REFINEMENTS)
            except QuadratureError as exc:
                raise QuadratureError(f"{failed}: {exc}") from exc
            mass = float(total[0])
            if not abs(mass - 1.0) <= _REL_TOL:   # e.g. a u-range that rounds to a point
                raise QuadratureError(f"{failed}: it holds mass {mass:.3g}")
            # with K = _ERFC_ZERO sqrt(2), every node's erfc argument reaches
            # _ERFC_ZERO below min((m - K s)/psi) and above max((m + K s)/psi)
            _g, pu, m, s = _conditional_law(law, t, nodes)
            reach = _ERFC_ZERO * math.sqrt(2.0) * s
            bracket = float(np.min((m - reach) / pu)), float(np.max((m + reach) / pu))
        if not all(map(math.isfinite, bracket)):
            raise QuadratureError(f"{failed}: its quantile bracket is not finite")
        self._u_rule = _URule(nodes, weights, mass, bracket)
        return self._u_rule

    @staticmethod
    def _shaped(points, evaluate):
        """``evaluate`` on the flat ``points``, in their shape; a float for a scalar."""
        arr = np.asarray(points, dtype=float)
        out = evaluate(arr.ravel()).reshape(arr.shape)
        return float(out) if out.ndim == 0 else out

    def _tail(self, q: np.ndarray, upper) -> np.ndarray:
        """``G(q)``, and ``S(q)`` where ``upper`` (one flag, or one per point),
        on the u-rule, with ``Phi(x) = erfc(-x/sqrt(2))/2``; S keeps its
        relative precision where G is 1."""
        rule = self.u_rule
        g, pu, m, s = _conditional_law(self.normal, self.t, rule.nodes)
        a, b = (pu / (math.sqrt(2.0) * s))[:, None], (m / (math.sqrt(2.0) * s))[:, None]
        sign = np.broadcast_to(np.where(upper, -1.0, 1.0), q.shape)
        tail = _u_sum(0.5 * rule.weights * g, q.size,
                      lambda cols: _erfc(sign[cols] * (b - a * q[None, cols])))
        # the rule's mass may round past 1 (by 1e-13 at n = 1e7, xi = -0.45)
        return np.minimum(tail, 1.0, out=tail)

    def density(self, z):
        """Density of the estimator at ``z`` (scalar or array of any shape)."""
        rule = self.u_rule
        cond = _conditional_law(self.normal, self.t, rule.nodes)
        return self._shaped(z, lambda x: _u_sum(
            rule.weights, x.size, lambda cols: _integrand_matrix(cond, x[cols])))

    def cdf(self, q):
        """The CDF ``G(q)`` on the whole line (scalar or array of any shape)."""
        return self._shaped(q, lambda x: self._tail(x, False))

    def sf(self, q):
        """The survival ``S(q) = 1 - G(q)``, to full relative precision in its tail."""
        return self._shaped(q, lambda x: self._tail(x, True))

    def quantile(self, probs):
        """The quantiles at ``probs`` in (0, 1), a scalar or any shape: ``G(q) = p``
        for ``p <= 0.5`` and ``S(q) = 1 - p`` above, where G resolves only to an
        ulp of 1, bisected to adjacent doubles from the u-rule's bracket, below
        which G is exactly 0 and above which S is; one u-sum a step."""
        p = np.asarray(probs, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ValidationError(f"probabilities must lie in (0, 1), got {probs}")

        def bisect(p):
            a, b = (np.full(p.shape, end) for end in self.u_rule.bracket)
            upper = p > 0.5
            target = np.where(upper, 1.0 - p, p)
            mid = 0.5 * (a + b)
            while np.any((a < mid) & (mid < b)):
                tail = self._tail(mid, upper)
                below = np.where(upper, tail > target, tail < target)   # mid short of q
                a, b = np.where(below, mid, a), np.where(below, b, mid)
                mid = 0.5 * (a + b)
            return mid

        return self._shaped(p, bisect)

    def moments(self) -> tuple[float, float]:
        """The exact bias and variance of the estimator about ``q_true``,
        from one adaptive Kronrod rule in r, with no u-rule.

        With ``1/psi(u) = int_0^t e^{ru} dr``, the moment generating function
        ``E e^{ru} = e^{r xi + h}`` (``h = r d + r^2 v/2``, ``d = mu_u - xi``,
        ``v = sd_u^2``) and Stein's lemma ``E (u - mu_u) e^{ru} = r v E e^{ru}``,
        the law's ``normal``, of mean ``(mu_u, mu_v)``, slope ``c`` and
        conditional sd ``s``, gives about ``q = S int_0^t e^{r xi} dr``
        (``S = sigma``), with nothing that cancels,

            bias        = int_0^t e^{r xi} [S expm1(h) + (mu_v - S + c r v) e^h] dr
            E z^2 - q^2 = int_0^2t min(r, 2t - r) e^{r xi}
                          [S^2 expm1(h) + e^h ((mu_v + c r v)^2 - S^2 + c^2 v + s^2)] dr

        (the triangle weight is ``1/psi^2 = int int e^{(a+b)u} da db``), and
        the variance ``(E z^2 - q^2) - 2 q bias - bias^2``.  Both integrals
        run on x in [0, 1]: r = t x, and the triangle folded at its kink as
        r = t x and r = t (1 + x).  The QuadratureError names the spec where
        they do not resolve (they overflow a double at tiny n and large xi)
        or where the variance overflows.
        """
        law, t, sigma, xi = self.normal, self.t, self.spec.sigma, self.spec.xi
        v, d = law.sd_u ** 2, law.mu_u - xi
        # the law over sigma: the bias scales as sigma, the variance as sigma^2
        c, dv, s = law.slope / sigma, (law.mu_v - sigma) / sigma, law.s / sigma
        failed = f"moments failed at (n={self.spec.n}, xi={xi})"

        def parts(r):   # the integrands of the bias and of E z^2 - q^2 at r
            h = r * d + 0.5 * v * r * r
            lift = dv + c * r * v   # (mu_v + c r v)/S - 1
            tilt, grow, rise = np.exp(xi * r), np.exp(h), np.expm1(h)
            return (tilt * (rise + lift * grow),
                    tilt * (rise + grow * (lift * (lift + 2.0) + c * c * v + s * s)))

        def integrands(x):
            bias, low = parts(t * x)
            _bias, high = parts(t * (1.0 + x))
            return np.column_stack([t * bias, t * t * (x * low + (1.0 - x) * high)])

        try:
            with np.errstate(over="ignore", invalid="ignore"):
                (bias, second), _err, _x, _w = adaptive_rule(
                    integrands, 0.0, 1.0, _REL_TOL, _MAX_REFINEMENTS)
        except QuadratureError as exc:
            raise QuadratureError(f"{failed}: {exc}") from exc
        q = self.q_true / sigma
        var = float(second - 2.0 * q * bias - bias * bias) * sigma * sigma
        if not math.isfinite(var):
            raise QuadratureError(f"{failed}: the variance overflows a double")
        return float(bias) * sigma, var

    def _reported_moments(self) -> tuple[float, float, float]:
        """``moments`` as every report gives them: the mean ``q_true + bias``,
        the bias as that mean less ``q_true`` (to half an ulp of it), the variance."""
        bias, var = self.moments()
        mean = self.q_true + bias
        return mean, mean - self.q_true, var

    def stats(self) -> QuantileStats:
        """Mean, variance and bias from ``moments``, and the normalization
        defect ``|E_u 1 - 1|``, the mass of f over the whole line on the
        u-rule (built first, so its errors come first)."""
        mass = self.u_rule.mass
        mean, bias, var = self._reported_moments()
        return QuantileStats(mean=mean, variance=var, bias=bias,
                             true_quantile=self.q_true, normalization_defect=abs(mass - 1.0))


def density(spec: DensitySpec, z):
    """Density of the quantile estimator at ``z`` (scalar or array of any shape)."""
    return EstimatorLaw(spec).density(z)


def cdf_of_estimator(spec: DensitySpec, q):
    """CDF of the quantile estimator at ``q`` (scalar or array of any shape):
    the u-sum ``G(q)`` on the whole line, 0 at -inf, the u-rule's mass (1 to
    about 1e-14) at +inf, NaN at NaN."""
    return EstimatorLaw(spec).cdf(q)


def stats(spec: DensitySpec, method: str = "hermite") -> QuantileStats:
    """Mean, variance and bias of the estimator density.

    ``method="hermite"`` (default; the name is historical) is
    ``EstimatorLaw.stats``, which runs no quadrature over z.
    ``method="quadrature"`` integrates (f, (z-q) f, (z-q)^2 f) over the
    whole line, mapped onto (-1, 1) on the scale of the law's sd, the
    independent cross-check; it runs to relative ``_REL_TOL`` in at most
    ``_MAX_REFINEMENTS`` rounds.  Inside the validated region the two
    methods agree to that accuracy; outside it the cross-check may raise
    QuadratureError where the default succeeds.
    """
    if method not in ("hermite", "quadrature"):
        raise ValidationError(f"unknown stats method {method!r}")
    law = EstimatorLaw(spec)
    st = law.stats()
    if method == "hermite":
        return st
    h, q = math.sqrt(st.variance), law.q_true

    def moment_parts(x):   # z - q = h x/(1 - x^2) maps (-1, 1) onto the line
        w = 1.0 - x * x
        d = h * x / w
        fj = law.density(q + d) * (h * (1.0 + x * x) / (w * w))
        return np.column_stack([fj, d * fj, d * d * fj])

    totals, _err, _nodes, _weights = adaptive_rule(moment_parts, -1.0, 1.0,
                                                   _REL_TOL, _MAX_REFINEMENTS)
    mass, bias, second = (float(v) for v in totals)
    mean = q + bias
    return QuantileStats(mean=mean, variance=second - bias * bias, bias=mean - q,
                         true_quantile=q, normalization_defect=abs(mass - 1.0))


def bias_variance_surface(n_values, xi_values, alpha: ConfidenceLevel,
                          sigma: float) -> BiasSurface:
    """Bias and variance over the (n, xi) grid, row-major by n then xi.

    Every cell's spec is validated before any quadrature; then each cell
    carries the exact moments that ``stats`` returns for its spec, from
    ``EstimatorLaw.moments`` alone, with no u-rule.
    """
    specs = [DensitySpec(n=int(n), alpha=alpha, sigma=sigma, xi=float(xi))
             for n in n_values for xi in xi_values]
    rows = []
    for spec in specs:
        _mean, bias, var = EstimatorLaw(spec)._reported_moments()
        rows.append(SurfaceRow(n=spec.n, xi=spec.xi, bias=bias, variance=var))
    return BiasSurface(alpha=alpha, sigma=sigma, rows=tuple(rows))
