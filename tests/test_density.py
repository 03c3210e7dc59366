import importlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import tailgauge as tg
from tailgauge.quadrature import adaptive_rule
from tailgauge.density import (_ERFC_ZERO, _REL_TOL, _cdf_from_plan, _conditional_law,
                               _erfc, _estimator_quantiles, _plan, _plans,
                               evaluation_window)

A999 = tg.ConfidenceLevel(0.999)


def _spec(n, xi, alpha=0.999, sigma=1.0, **kw):
    return tg.DensitySpec(n=n, alpha=tg.ConfidenceLevel(alpha), sigma=sigma,
                          xi=xi, **kw)


def _oracle_density(spec, z):
    """Independent route: scipy quadrature of psi(u) * binormal(u, z*psi(u))."""
    a = spec.alpha.alpha
    t = -math.log1p(-a)
    n, xi, sigma = spec.n, spec.xi, spec.sigma
    C = ((1 + xi) / n) * np.array([[1 + xi, -sigma], [-sigma, 2 * sigma**2]])
    Ci = np.linalg.inv(C)
    norm = 1.0 / (2 * math.pi * math.sqrt(np.linalg.det(C)))
    su = math.sqrt(C[0, 0])

    def g(u):
        p = 1.0 / t if abs(u) < 1e-12 else u / math.expm1(t * u)
        du, dv = u - xi, z * p - sigma
        q = Ci[0, 0] * du * du + 2 * Ci[0, 1] * du * dv + Ci[1, 1] * dv * dv
        return p * norm * math.exp(-0.5 * q)

    val, _ = integrate.quad(g, xi - 14 * su, xi + 14 * su, limit=300,
                            epsabs=0.0, epsrel=1e-11)
    return val


def _oracle_tail_mass(spec, q):
    """Independent S(q) for q > 0: the oracle density integrated over
    [q 2^k, q 2^(k+1)] until a piece no longer moves the sum.  One quad call
    to +inf loses the heavy tail far out (1e-9 relative at fig-1, q = 500)."""
    total, a = 0.0, q
    for _ in range(200):
        piece = integrate.quad(lambda z: _oracle_density(spec, z), a, 2.0 * a,
                               limit=400, epsabs=0.0, epsrel=1e-12)[0]
        total += piece
        a *= 2.0
        if piece <= 1e-17 * total:
            return total
    raise AssertionError(f"oracle tail mass did not settle beyond q={q}")


def _gauss_hermite_moments(spec):
    """Independent route: mean and variance of v/psi(u) from a 2-D
    Gauss-Hermite tensor rule under the limiting normal law of (u, v)."""
    t = -math.log1p(-spec.alpha.alpha)
    cov = tg.asymptotic_covariance(tg.GpdParams(spec.sigma, spec.xi),
                                   spec.n).cov_matrix
    L = np.linalg.cholesky(cov)
    x, w = np.polynomial.hermite.hermgauss(96)
    W = np.outer(w, w) / math.pi
    u = spec.xi + math.sqrt(2.0) * L[0, 0] * x
    v = spec.sigma + math.sqrt(2.0) * (L[1, 0] * x[:, None] + L[1, 1] * x[None, :])
    g = v / (u / np.expm1(t * u))[:, None]
    mean = float((W * g).sum())
    return mean, float((W * (g - mean) ** 2).sum())


def _bracket_density(spec, z):
    """The paper's bracket form of the density on the plan's u-rule:
    n/(2 pi sigma sqrt(1 + 4 xi + 5 xi^2 + 2 xi^3)) times the u-sum of
    psi exp(-(n/(1+2 xi)) [bracket])."""
    plan = _plan(spec)
    xi, sigma, n = spec.xi, spec.sigma, spec.n
    u = plan.u_nodes
    pu = u / np.expm1(plan.t * u)
    du = u - xi
    r = pu[:, None] * z[None, :] - sigma
    br = (du * du / (1.0 + xi))[:, None] \
        + (du / ((1.0 + xi) * sigma))[:, None] * r \
        + r * r / (2.0 * sigma * sigma)
    poly = 1.0 + 4.0 * xi + 5.0 * xi**2 + 2.0 * xi**3
    pre = n / (2.0 * math.pi * sigma * math.sqrt(poly))
    return pre * (plan.u_weights @ (pu[:, None] * np.exp(-(n / (1.0 + 2.0 * xi)) * br)))


class TestSpecValidation:
    def test_region_enforced(self):
        with pytest.raises(tg.ValidationError):
            _spec(30, 0.25)
        with pytest.raises(tg.ValidationError):
            _spec(100, 0.7)
        with pytest.raises(tg.ValidationError):
            _spec(100, -0.1)

    def test_override_allows_and_warns(self):
        spec = _spec(30, 0.25, allow_unvalidated=True)
        assert not spec.in_validated_region
        with pytest.warns(tg.OutsideValidatedRegionWarning):
            tg.density(spec, 10.0)

    def test_shape_hard_limit(self):
        # the density formula itself needs xi > -0.5, override or not
        with pytest.raises(tg.ValidationError):
            _spec(100, -0.6, allow_unvalidated=True)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 100.5, 0])
    def test_size_must_be_a_positive_integer(self, n):
        with pytest.raises(tg.ValidationError, match="positive integer"):
            _spec(n, 0.25, allow_unvalidated=True)


class TestPsi:
    def test_removable_singularity(self):
        assert tg.psi(0.0, A999) == pytest.approx(1.0 / math.log(1000), abs=1e-12)

    def test_direct_value(self):
        expected = 0.25 / (10**0.75 - 1.0)
        assert tg.psi(0.25, A999) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0540726, abs=1e-7)

    def test_inverts_quantile(self):
        q = tg.quantile(tg.GpdParams(1.0, 0.25), A999)
        assert tg.psi(0.25, A999) * q == pytest.approx(1.0, abs=1e-5)

    def test_positive_everywhere(self):
        u = np.linspace(-5.0, 5.0, 1001)
        assert np.all(tg.psi(u, A999) > 0)

    def test_series_band_continuity(self):
        # near u = 0 psi is (1/t)(1 - t u/2 + (t u)^2/12) to O((t u)^4)
        t = math.log(1000)
        for u in (9e-9, -9e-9, 1.1e-8, 1e-12, -1e-12, 1e-200, -1e-200):
            series = (1.0 - t * u / 2.0 + (t * u) ** 2 / 12.0) / t
            assert tg.psi(u, A999) == pytest.approx(series, rel=1e-15)
        for u in (9e-5, 1.1e-4):
            direct = u / math.expm1(t * u)
            assert tg.psi(u, A999) == pytest.approx(direct, rel=1e-9)

    def test_nan_stays_nan(self):
        assert math.isnan(tg.psi(np.nan, A999))
        out = tg.psi(np.array([np.nan, 0.25]), A999)
        assert math.isnan(out[0])
        assert out[1] == tg.psi(0.25, A999)


class TestDensity:
    def test_matches_independent_oracle(self, fig1_spec):
        for z in (5.0, 14.3, 18.494, 25.0, 60.0):
            mine = tg.density(fig1_spec, z)
            assert mine == pytest.approx(_oracle_density(fig1_spec, z), rel=1e-7)

    def test_oracle_at_second_config(self):
        spec = _spec(200, 0.4, alpha=0.99, sigma=2.0)
        for z in (5.0, 12.0, 20.0, 40.0):
            assert tg.density(spec, z) == pytest.approx(_oracle_density(spec, z), rel=1e-7)

    def test_normalization(self, fig1_stats):
        assert fig1_stats.normalization_defect < 1e-6

    def test_positivity_on_wide_grid(self, fig1_spec):
        lo, hi = evaluation_window(fig1_spec)
        z = np.linspace(lo - 10.0, hi + 10.0, 2001)
        assert np.all(tg.density(fig1_spec, z) >= 0.0)

    def test_unimodal_on_window(self, fig1_spec):
        lo, hi = evaluation_window(fig1_spec)
        f = tg.density(fig1_spec, np.linspace(lo, hi, 2001))
        d = np.diff(f)
        changes = np.sum(np.sign(d[np.abs(d) > 1e-14][:-1])
                         != np.sign(d[np.abs(d) > 1e-14][1:]))
        assert changes <= 1

    def test_peak_location_in_published_window(self, fig1_spec):
        # stated reproduction range [15, 21]; exact mode computes to ~14.29
        lo, hi = evaluation_window(fig1_spec)
        z = np.linspace(lo, hi, 4001)
        f = tg.density(fig1_spec, z)
        mode = float(z[np.argmax(f)])
        assert 15.0 <= mode <= 21.0, f"mode at {mode}"

    def test_far_left_tail_below_1e30(self, fig1_spec):
        # stated bound 1e-30; the covariance geometry actually admits ~3e-12
        assert tg.density(fig1_spec, -10.0) < 1e-30


class TestCdf:
    def test_limits(self, fig1_spec):
        # a CDF on the whole line: the mass below the window is kept, and
        # G(+inf) is the u-rule's mass
        lo, hi = evaluation_window(fig1_spec)
        assert tg.cdf_of_estimator(fig1_spec, -math.inf) == 0.0
        assert 0.0 < tg.cdf_of_estimator(fig1_spec, lo - 50.0) \
            <= tg.cdf_of_estimator(fig1_spec, lo) <= 1e-12
        assert abs(tg.cdf_of_estimator(fig1_spec, math.inf) - 1.0) <= 1e-14
        assert math.isnan(tg.cdf_of_estimator(fig1_spec, math.nan))
        assert tg.cdf_of_estimator(fig1_spec, hi + 50.0) == pytest.approx(1.0, abs=1e-6)

    def test_mean_lies_right_of_median(self, fig1_spec, fig1_stats):
        v = tg.cdf_of_estimator(fig1_spec, fig1_stats.mean)
        assert 0.5 < v < 0.75

    def test_derivative_matches_density(self, fig1_spec):
        for q in (12.0, 18.494, 30.0):
            h = 1e-4
            deriv = (tg.cdf_of_estimator(fig1_spec, q + h)
                     - tg.cdf_of_estimator(fig1_spec, q - h)) / (2 * h)
            assert deriv == pytest.approx(tg.density(fig1_spec, q), rel=1e-5)

    def test_vectorized_matches_scalar(self, fig1_spec):
        qs = np.array([31.0, 5.0, 18.494, 18.494, -2.0, 90.0])
        vec = tg.cdf_of_estimator(fig1_spec, qs)
        for q, v in zip(qs, vec):
            assert v == pytest.approx(tg.cdf_of_estimator(fig1_spec, float(q)), abs=1e-9)

    @pytest.mark.parametrize("law", [tg.density, tg.cdf_of_estimator],
                             ids=["density", "cdf"])
    def test_any_shape_is_the_flattened_call(self, fig1_spec, law):
        # the flattened call, not scalar calls: a BLAS sum over another
        # column count rounds differently
        for z in (np.array([[10.0, 20.0], [30.0, 40.0]]),
                  np.linspace(-5.0, 80.0, 24).reshape(2, 3, 4)[:, ::2],
                  np.empty((0, 3))):
            got = law(fig1_spec, z)
            assert got.shape == z.shape
            assert got.tobytes() == law(fig1_spec, z.ravel()).tobytes()

    def test_nondecreasing(self, fig1_spec):
        q = np.linspace(-5.0, 80.0, 300)
        f = tg.cdf_of_estimator(fig1_spec, q)
        assert np.all(np.diff(f) >= -1e-12)

    @pytest.mark.parametrize("n, xi, alpha, sigma, qs", [
        (100, 0.25, 0.999, 1.0, (12.0, 18.494, 30.0)),
        (200, 0.4, 0.99, 2.0, (15.0, 26.5, 40.0)),
        # a window 8e4 wide around a mode near 30
        (50, 0.5, 0.999, 1.0, (20.0, 60.0, 200.0)),
    ])
    def test_cdf_and_survival_match_oracle_from_infinity(self, n, xi, alpha, sigma, qs):
        spec = _spec(n, xi, alpha=alpha, sigma=sigma)
        lo, _hi = evaluation_window(spec)

        def mass(a, b):
            return integrate.quad(lambda z: _oracle_density(spec, z), a, b,
                                  limit=400, epsabs=1e-12, epsrel=1e-11)[0]

        below = mass(-math.inf, lo)
        for q in qs:
            assert abs(tg.cdf_of_estimator(spec, q) - (below + mass(lo, q))) <= 1e-8
        plan = _plan(spec)
        for q in (*qs, _estimator_quantiles(plan, [1 - 1e-4])[0]):
            s = _cdf_from_plan(plan, np.array([q]), upper=True)[0]
            assert abs(s - mass(q, math.inf)) <= 1e-8

    @pytest.mark.parametrize("n, xi, q", [
        (100, 0.25, 300.0),     # S = 1.7e-7
        (100, 0.25, 500.0),     # S = 1.4e-9
        (50, 0.5, 2e4),         # S = 4.3e-8
    ])
    def test_far_tail_survival_matches_split_oracle(self, n, xi, q):
        spec = _spec(n, xi)
        s = _cdf_from_plan(_plan(spec), np.array([q]), upper=True)[0]
        assert s == pytest.approx(_oracle_tail_mass(spec, q), rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(50, 1000), xi=st.floats(0.0, 0.5),
           alpha=st.floats(0.9, 0.9999), sigma=st.floats(0.1, 10.0),
           p=st.floats(1e-4, 1.0 - 1e-4))
    def test_inverts_estimator_quantiles(self, n, xi, alpha, sigma, p):
        # worst |F(F^-1(p)) - p| over 23,000 random (spec, p) draws from
        # these ranges: 2.4e-15 (median 7.8e-16), about 11 ulp of p = 0.5
        spec = _spec(n, xi, alpha=alpha, sigma=sigma)
        q = _estimator_quantiles(_plan(spec), np.array([p]))
        assert abs(tg.cdf_of_estimator(spec, q)[0] - p) <= 5e-15

    def test_erfc_against_scipy(self):
        # on the dyadic grid k/1024, x*x is exact, so the oracle's own
        # exp(-x*x) is not off by the ~x^2 ulp that its rounding costs
        # elsewhere (5.7e-14 relative near x = 26)
        x = np.append(np.arange(-40 * 1024, 40 * 1024 + 1) / 1024.0, -0.0)
        mine, ref = _erfc(x), special.erfc(x)
        normal = ref >= np.finfo(float).tiny
        np.testing.assert_allclose(mine[normal], ref[normal], rtol=1e-14, atol=0.0)
        # a subnormal double carries no relative accuracy
        np.testing.assert_allclose(mine[~normal], ref[~normal], rtol=0.0,
                                   atol=np.finfo(float).tiny)
        assert _erfc(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]


class TestStats:
    def test_fig1_bias_pin(self, fig1_stats):
        assert fig1_stats.bias == pytest.approx(2.475, abs=0.05)

    def test_fig1_true_quantile_pin(self, fig1_stats):
        assert fig1_stats.true_quantile == pytest.approx(18.494, abs=1e-3)

    def test_bias_by_construction(self, fig1_stats):
        assert fig1_stats.bias == fig1_stats.mean - fig1_stats.true_quantile

    def test_frozen_cross_validated_moments(self):
        # values confirmed by scipy double quadrature and by direct Monte
        # Carlo of the limiting normal law
        cases = {
            (50, 0.0): (0.664168, 10.4672),
            (50, 0.5): (40.575880, 21106.3442),
            (1000, 0.5): (1.530671, 191.4368),
            (100, 0.25): (2.474537, 121.3122),
        }
        for (n, xi), (bias, var) in cases.items():
            st = tg.stats(_spec(n, xi))
            assert st.bias == pytest.approx(bias, rel=1e-5)
            assert st.variance == pytest.approx(var, rel=1e-5)

    def test_moment_routes_agree(self):
        # hermite expectation vs direct density quadrature, 12 random specs
        rng = np.random.default_rng(9)
        for _ in range(12):
            spec = _spec(int(rng.integers(50, 2000)),
                         float(np.round(rng.uniform(0.0, 0.5), 3)),
                         alpha=float(rng.choice([0.99, 0.999, 0.9995])),
                         sigma=float(rng.uniform(0.5, 2.0)))
            fast = tg.stats(spec, method="hermite")
            slow = tg.stats(spec, method="quadrature")
            tol = 10 * _REL_TOL
            assert abs(fast.mean - slow.mean) <= tol * max(1.0, abs(slow.mean))
            assert abs(fast.variance - slow.variance) <= tol * max(1.0, slow.variance)

    def test_moments_match_gauss_hermite_oracle(self):
        rng = np.random.default_rng(23)
        specs = [_spec(n, xi) for n, xi in ((50, 0.0), (50, 0.5), (1000, 0.5), (100, 0.25))]
        specs += [_spec(int(rng.integers(50, 2000)),
                        float(np.round(rng.uniform(0.0, 0.5), 3)),
                        alpha=float(rng.choice([0.99, 0.999, 0.9995])),
                        sigma=float(rng.uniform(0.5, 2.0))) for _ in range(12)]
        for spec in specs:
            st = tg.stats(spec)
            mean, var = _gauss_hermite_moments(spec)
            assert st.mean == pytest.approx(mean, rel=1e-9)
            assert st.variance == pytest.approx(var, rel=1e-9)

    @pytest.mark.parametrize("n, xi", [(10, 1.0), (5, 0.25), (10, 0.25), (20, 0.5)])
    def test_small_n_moments_cover_the_second_moment(self, n, xi):
        # psi^-2 ~ exp(2 t u) pulls the second-moment integrand far above xi;
        # no z-window closes here, so the plan's moments are read directly
        spec = _spec(n, xi, allow_unvalidated=True)
        plan = _plan(spec)
        mean, var = _gauss_hermite_moments(spec)
        assert plan.mean == pytest.approx(mean, rel=1e-8)
        assert plan.var == pytest.approx(var, rel=1e-8)

    def test_bias_below_three_percent_at_n_1e4(self):
        st = tg.stats(_spec(10_000, 0.25))
        assert st.bias < 0.03

    def test_consistency_limit(self):
        # concentration at the true quantile as n grows
        sts = [tg.stats(_spec(n, 0.25)) for n in (100, 1000, 10_000)]
        biases = [s.bias for s in sts]
        variances = [s.variance for s in sts]
        assert biases[0] > biases[1] > biases[2] > 0
        assert variances[0] > variances[1] > variances[2] > 0
        assert abs(sts[-1].mean - sts[-1].true_quantile) < 0.05

    def test_unknown_method_rejected(self, fig1_spec):
        with pytest.raises(tg.ValidationError):
            tg.stats(fig1_spec, method="midpoint")


class TestSurface:
    def test_row_major_order_and_types(self):
        surf = tg.bias_variance_surface([50, 100], [0.0, 0.25], A999, 1.0)
        assert [(r.n, r.xi) for r in surf.rows] == [
            (50, 0.0), (50, 0.25), (100, 0.0), (100, 0.25)]

    def test_monotonic_in_n_and_xi(self, default_grid_stats):
        ns, xis = tg.DEFAULT_N_GRID, tg.DEFAULT_XI_GRID
        for xi in xis:
            col = [default_grid_stats[(n, xi)].bias for n in ns]
            assert np.all(np.diff(col) < 0), f"bias not decreasing in n at xi={xi}"
        for n in ns:
            row_b = [default_grid_stats[(n, xi)].bias for xi in xis]
            row_v = [default_grid_stats[(n, xi)].variance for xi in xis]
            assert np.all(np.diff(row_b) > 0), f"bias not increasing in xi at n={n}"
            assert np.all(np.diff(row_v) > 0), f"variance not increasing in xi at n={n}"

    def test_normalization_across_default_grid(self, default_grid_stats):
        worst = max(s.normalization_defect for s in default_grid_stats.values())
        assert worst < 1e-6

    @pytest.mark.parametrize("xi", tg.DEFAULT_XI_GRID)
    def test_log_log_slope_near_published_exponent(self, default_grid_stats, xi):
        # stated: per-shape slope within 0.05 of -1.007 and line residual
        # below 0.02; the exact surface is steeper and more curved at high xi
        ns = np.array(tg.DEFAULT_N_GRID, dtype=float)
        logb = np.log([default_grid_stats[(int(n), xi)].bias for n in ns])
        coef = np.polyfit(np.log(ns), logb, 1)
        resid = logb - np.polyval(coef, np.log(ns))
        assert abs(coef[0] - (-1.007)) <= 0.05, f"slope {coef[0]:.4f} at xi={xi}"
        assert np.abs(resid).max() < 0.02, f"residual {np.abs(resid).max():.4f} at xi={xi}"

    def test_variance_log_log_convexity_at_small_n(self):
        for xi in (0.3, 0.4, 0.5):
            v = {n: tg.stats(_spec(n, xi)).variance for n in (50, 100, 500, 1000)}
            small = (math.log(v[100]) - math.log(v[50])) / (math.log(100) - math.log(50))
            big = (math.log(v[1000]) - math.log(v[500])) / (math.log(1000) - math.log(500))
            assert small < big

    def test_cells_equal_stats_bitwise(self, default_grid_stats):
        surf = tg.bias_variance_surface(tg.DEFAULT_N_GRID, tg.DEFAULT_XI_GRID,
                                        A999, 1.0)
        assert len(surf.rows) == len(default_grid_stats)
        for r in surf.rows:
            st = default_grid_stats[(r.n, r.xi)]
            assert (r.bias, r.variance) == (st.bias, st.variance)

    def test_one_adaptive_rule_call_builds_every_cell(self, monkeypatch):
        # the whole 20 x 6 grid is one batch, not a loop of per-cell rules
        module = importlib.import_module("tailgauge.density")
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.size(args[1]))
            return adaptive_rule(*args, **kwargs)

        monkeypatch.setattr(module, "adaptive_rule", counted)
        surf = tg.bias_variance_surface(tg.DEFAULT_N_GRID, tg.DEFAULT_XI_GRID, A999, 1.0)
        assert len(surf.rows) == 120
        assert calls == [120]

    def test_empty_grid_is_an_empty_surface(self):
        assert tg.bias_variance_surface([], tg.DEFAULT_XI_GRID, A999, 1.0).rows == ()

    def test_failing_cell_is_named(self):
        # the batch raises the error that the cell's own rule raises
        msg = ("u-rule failed at (n=1000000000000, xi=0.25): panel budget exhausted "
               "(10619 panels, err=2.30e-06 > rel_tol=1e-08)")
        with pytest.raises(tg.QuadratureError) as exc:
            tg.bias_variance_surface([100, 10**12], [0.25], A999, 1.0)
        assert str(exc.value) == msg

    @pytest.mark.parametrize("n_values, xi, named", [
        ([10**12, 10**13], 0.25, "n=1000000000000, xi=0.25): panel budget"),
        ([10**300, 10**12], 0.5, f"n={10**300}, xi=0.5): it holds mass 0"),
        ([10**12, 10**300], 0.5, "n=1000000000000, xi=0.5): panel budget"),
    ])
    def test_first_failing_cell_in_row_major_order_is_named(self, n_values, xi, named):
        # whichever way each cell fails: its panel budget, or the mass check
        with pytest.raises(tg.QuadratureError, match=re.escape(named)):
            tg.bias_variance_surface(n_values, [xi], A999, 1.0)

    def test_quadrature_failure_carries_coordinates(self, monkeypatch):
        module = importlib.import_module("tailgauge.density")
        monkeypatch.setattr(module, "_REL_TOL", 1e-15)
        monkeypatch.setattr(module, "_MAX_REFINEMENTS", 0)
        with pytest.raises(tg.QuadratureError, match="n=50"):
            tg.bias_variance_surface([50], [0.25], A999, 1.0)


def test_batched_plans_equal_each_spec_plan_bitwise():
    # a spec's plan does not depend on the rest of its batch
    specs = [_spec(n, xi) for n in (50, 1000) for xi in (0.0, 0.5)] + [_spec(100, 0.25)]
    for spec, batched in zip(specs, _plans(specs)):
        alone = _plan(spec)
        for field, a, b in zip(alone._fields, batched, alone):
            np.testing.assert_array_equal(a, b, err_msg=f"{field} at {spec}")


def test_accuracy_change_reaches_every_entry_point(monkeypatch, fig1_spec):
    # nothing is memoised: after a warm call, a tighter accuracy must reach
    # the u-rule, stats, the CDF and the window, which a cache would hide
    tg.stats(fig1_spec)
    evaluation_window(fig1_spec)
    _plan(fig1_spec)
    module = importlib.import_module("tailgauge.density")
    monkeypatch.setattr(module, "_REL_TOL", 1e-15)
    monkeypatch.setattr(module, "_MAX_REFINEMENTS", 0)
    with pytest.raises(tg.QuadratureError):
        tg.stats(fig1_spec)
    with pytest.raises(tg.QuadratureError):
        tg.cdf_of_estimator(fig1_spec, 20.0)
    with pytest.raises(tg.QuadratureError):
        evaluation_window(fig1_spec)
    with pytest.raises(tg.QuadratureError):
        _plan(fig1_spec)


def test_moments_against_scipy_z_integration(fig1_spec):
    # independent z-side integration of the oracle density
    lo, hi = evaluation_window(fig1_spec)
    m, _ = integrate.quad(lambda z: z * _oracle_density(fig1_spec, z), lo, hi,
                          limit=400)
    st = tg.stats(fig1_spec)
    assert st.mean == pytest.approx(m, rel=1e-6)


@pytest.mark.parametrize("n, xi", [(100, 0.25), (50, 0.5)])
def test_window_and_cdf_run_no_z_quadrature(monkeypatch, n, xi):
    # only the stats(method="quadrature") cross-check integrates over z; the
    # windows, the CDF and default stats come from the u-sums
    # (u-rules have array ends, the z-quadrature is the one call on (-1, 1))
    module = importlib.import_module("tailgauge.density")
    calls = []

    def spy(f, lo, hi, *args):
        calls.append((lo, hi))
        return adaptive_rule(f, lo, hi, *args)

    monkeypatch.setattr(module, "adaptive_rule", spy)
    spec = _spec(n, xi)
    plan = _plan(spec)
    lo, hi = evaluation_window(spec)
    assert lo < plan.q_true < hi
    assert tg.cdf_of_estimator(spec, hi) == pytest.approx(1.0, abs=1e-6)
    assert tg.stats(spec).normalization_defect <= 1e-6
    assert calls and all(np.ndim(a) == 1 for a, _b in calls)
    u_calls = len(calls)
    tg.stats(spec, method="quadrature")
    assert len(calls) == u_calls + 2 and np.ndim(calls[-2][0]) == 1
    assert calls[-1] == (-1.0, 1.0)


def test_cross_check_raises_outside_the_validated_region():
    # at (10, 1.0) the u-rule moments exist, but the whole-line z-quadrature
    # does not resolve the heavy tail: a typed error, not a number
    spec = _spec(10, 1.0, allow_unvalidated=True)
    with pytest.warns(tg.OutsideValidatedRegionWarning):
        st = tg.stats(spec)
        assert math.isfinite(st.mean) and math.isfinite(st.variance)
        with pytest.raises(tg.QuadratureError, match="no convergence"):
            tg.stats(spec, method="quadrature")


@pytest.mark.parametrize("n, xi, ulps", [(100, 0.25, 0), (50, 0.0, 0), (50, 0.5, 2)])
def test_quantiles_do_not_follow_the_u_sum_order(n, xi, ulps):
    # the upper quantile bisects S, not G near 1, whose ulp of 1 let a
    # permuted u-rule move it by up to 1.7e-10 at fig-1.  S still carries a
    # few ulp of rounding, which can move an end of the final bracket by one
    # double; at (50, 0.5) that shows as 2 ulp of the returned midpoint
    probs = (1e-4, 1 - 1e-4)
    plan = _plan(_spec(n, xi))
    ref = _estimator_quantiles(plan, probs)
    for seed in range(8):
        k = np.random.default_rng(seed).permutation(plan.u_nodes.size)
        permuted = plan._replace(u_nodes=plan.u_nodes[k], u_weights=plan.u_weights[k])
        got = _estimator_quantiles(permuted, probs)
        assert np.all(np.abs(got - ref) <= ulps * np.spacing(ref)), (seed, got - ref)


def test_estimator_law_reads_asymptotic_covariance_alone(monkeypatch):
    # the limiting normal law has one statement: hand (400, 0.25) the n = 100
    # law and every output is the (100, 0.25) one, bit for bit
    module = importlib.import_module("tailgauge.density")
    small, large = _spec(100, 0.25), _spec(400, 0.25)
    z = np.linspace(*evaluation_window(small), 257)
    ref = (tg.stats(small), tg.cdf_of_estimator(small, z), tg.density(small, z))
    law = tg.asymptotic_covariance(tg.GpdParams(1.0, 0.25), 100)
    monkeypatch.setattr(module, "asymptotic_covariance", lambda _p, _n: law)
    got = (tg.stats(large), tg.cdf_of_estimator(large, z), tg.density(large, z))
    assert got[0] == ref[0]
    np.testing.assert_array_equal(got[1], ref[1])
    np.testing.assert_array_equal(got[2], ref[2])


@pytest.mark.parametrize("n, xi", [(100, 0.25), (50, 0.5), (50, 0.0), (1000, 0.5),
                                   (10, 1.0)])
def test_quantile_bracket_holds_no_mass_beyond_it(n, xi):
    # past (m -+ K s)/psi every node's erfc argument reaches _ERFC_ZERO, so
    # the bisection's bracket has G = 0 below it and S = 0 above it exactly
    plan = _plan(_spec(n, xi, allow_unvalidated=True))
    _g, pu, m, s = _conditional_law(plan.law, plan.t, plan.u_nodes)
    reach = _ERFC_ZERO * math.sqrt(2.0) * s
    lo, hi = np.min((m - reach) / pu), np.max((m + reach) / pu)
    assert _cdf_from_plan(plan, np.array([lo]))[0] == 0.0
    assert _cdf_from_plan(plan, np.array([hi]), upper=True)[0] == 0.0
    q = _estimator_quantiles(plan, (1e-300, 0.5, 1.0 - 2.0 ** -53))
    assert np.all((lo < q) & (q < hi))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_quantile_probability_outside_the_unit_interval_raises(fig1_spec, p):
    # no bracket end comes back as a quantile
    with pytest.raises(tg.ValidationError, match="probabilities"):
        _estimator_quantiles(_plan(fig1_spec), (0.5, p))


def test_window_covers_mass(fig1_spec, fig1_stats):
    lo, hi = evaluation_window(fig1_spec)
    assert lo < fig1_stats.true_quantile < fig1_stats.mean < hi


@pytest.mark.parametrize("n, xi, alpha, sigma", [
    (50, 0.0, 0.999, 1.0), (50, 0.5, 0.999, 1.0), (1000, 0.5, 0.999, 1.0),
    (100, 0.25, 0.999, 1.0), (200, 0.4, 0.99, 2.0), (10, 1.0, 0.999, 1.0),
])
def test_conditional_normal_density_matches_bracket_form(n, xi, alpha, sigma):
    spec = _spec(n, xi, alpha=alpha, sigma=sigma, allow_unvalidated=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tg.OutsideValidatedRegionWarning)
        lo, hi = evaluation_window(spec)
        core = _estimator_quantiles(_plan(spec), (1e-4, 1 - 1e-4))
        z = np.concatenate([np.linspace(lo, hi, 2001), np.linspace(*core, 2001)])
        mine = tg.density(spec, z)
    ref = _bracket_density(spec, z)
    assert np.abs(mine - ref).max() <= 1e-13 * ref.max()


@pytest.mark.parametrize("n, xi", [(20, 0.5), (30, 0.25), (10, 0.25),
                                   (10, 1.0), (5, 0.25)])
def test_stats_returns_plan_moments_where_no_moment_window_closes(n, xi):
    spec = _spec(n, xi, allow_unvalidated=True)
    with pytest.warns(tg.OutsideValidatedRegionWarning):
        st = tg.stats(spec)
    plan = _plan(spec)
    assert (st.mean, st.variance) == (plan.mean, plan.var)
    assert st.normalization_defect <= 1e-6


@pytest.mark.parametrize("n, xi", [(100, 0.25), (50, 0.5)])
def test_default_stats_defect_matches_whole_line_z_quadrature(n, xi):
    # the defect is the u-rule's mass, the integral of f over the whole
    # line; the z-quadrature of f over the whole line finds the same mass
    spec = _spec(n, xi)
    plan = _plan(spec)
    mass = plan.u_weights @ _conditional_law(plan.law, plan.t, plan.u_nodes)[0]
    defect = tg.stats(spec).normalization_defect
    assert abs(defect - abs(mass - 1.0)) <= 1e-15   # the order of the sum
    assert abs(tg.stats(spec, method="quadrature").normalization_defect - defect) <= 1e-11


def test_z_quadrature_agrees_with_u_rule_moments_on_default_grid(default_grid_stats):
    tol = 10 * _REL_TOL
    for (n, xi), fast in default_grid_stats.items():
        slow = tg.stats(_spec(n, xi), method="quadrature")
        assert abs(fast.mean - slow.mean) <= tol * max(1.0, abs(slow.mean)), (n, xi)
        assert abs(fast.variance - slow.variance) <= tol * max(1.0, slow.variance), (n, xi)


def test_moments_scale_as_one_over_n_until_the_bias_drowns_in_rounding():
    # the u-rule resolves the bias and E (z-q)^2 directly, so nothing
    # cancels at n = 1e8; by n = 1e12 rounding of m/psi - q swamps the
    # bias, and the rule refuses it rather than return a wrong number
    mid, big = tg.stats(_spec(10**6, 0.25)), tg.stats(_spec(10**8, 0.25))
    assert big.bias * 1e8 == pytest.approx(mid.bias * 1e6, rel=1e-4)
    assert big.variance * 1e8 == pytest.approx(mid.variance * 1e6, rel=1e-4)
    for n in (10**12, 10**16):
        with pytest.raises(tg.QuadratureError, match=f"n={n}, xi=0.25"):
            tg.stats(_spec(n, 0.25))
    # here the u-range rounds to one point and the rule holds no mass
    with pytest.raises(tg.QuadratureError, match="mass 0"):
        tg.stats(_spec(10**300, 0.5))


@pytest.mark.parametrize("n, xi, alpha", [(2, 2.0, 0.999), (10, 5.0, 0.99999)])
def test_unresolvable_u_rule_raises_quadrature_error(n, xi, alpha):
    # psi^-2 overflows on the u-range: a typed error naming the spec, not a
    # MemoryError from an unbounded refinement or a RuntimeWarning
    spec = _spec(n, xi, alpha=alpha, allow_unvalidated=True)
    with pytest.warns(tg.OutsideValidatedRegionWarning):
        with pytest.raises(tg.QuadratureError, match=f"n={n}, xi={xi}") as exc:
            tg.stats(spec)
    assert "the integrand is not finite on [" in str(exc.value)


@pytest.mark.parametrize("n, xi", [(100, 0.25), (50, 0.5)])
@pytest.mark.parametrize("workspace", [1, 4_000_000])
def test_chunk_size_does_not_change_results(monkeypatch, n, xi, workspace):
    # one column of the (u, z) block per chunk, or all of it in one chunk
    spec = _spec(n, xi)
    lo, hi = evaluation_window(spec)
    q, z = np.linspace(lo, hi, 2000), np.linspace(lo, hi, 512)
    cdf, dens = tg.cdf_of_estimator(spec, q), tg.density(spec, z)
    monkeypatch.setattr(importlib.import_module("tailgauge.density"),
                        "_WORKSPACE", workspace)
    assert np.abs(tg.cdf_of_estimator(spec, q) - cdf).max() <= 1e-14
    assert np.abs(tg.density(spec, z) - dens).max() <= 1e-14 * dens.max()


def test_cdf_workspace_stays_in_cache(fig1_spec):
    q = np.linspace(*evaluation_window(fig1_spec), 2000)
    tg.cdf_of_estimator(fig1_spec, q)   # first-call overhead off the trace
    tracemalloc.start()
    try:
        tg.cdf_of_estimator(fig1_spec, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
