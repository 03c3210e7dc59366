import math

import numpy as np
import pytest

import tailgauge as tg

A999 = tg.ConfidenceLevel(0.999)


class TestBiasLaw:
    def test_published_constants_direct_evaluation(self):
        # 100**a1 * 10**(a2/4 + a3) with the published constants; the value
        # is pinned by independent evaluation of the formula
        v = tg.bias_law(tg.CALIBRATED_PARAMS, 100, 0.25)
        assert v == pytest.approx(2.2554853, abs=1e-6)

    def test_pure_power_law_reduction(self):
        assert tg.bias_law(tg.BiasLawParams(-1.0, 0.0, 0.0), 10, 0.37) == pytest.approx(0.1)

    def test_power_law_scaling_in_n(self):
        law = tg.CALIBRATED_PARAMS
        ratio = tg.bias_law(law, 1000, 0.2) / tg.bias_law(law, 100, 0.2)
        assert ratio == pytest.approx(10.0**-1.00733, rel=1e-12)

    def test_n_validated(self):
        # NaN used to surface as a NumericalError "overflows a double"
        for n in (0, math.nan, math.inf):
            with pytest.raises(tg.ValidationError, match="n must be"):
                tg.bias_law(tg.PRACTICAL_PARAMS, n, 0.2)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_non_finite_xi_validated(self, xi):
        with pytest.raises(tg.ValidationError, match="finite"):
            tg.bias_law(tg.PRACTICAL_PARAMS, 100, xi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_constants_rejected(self, bad):
        for params in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(tg.ValidationError, match="constants must be finite"):
                tg.BiasLawParams(*params)

    @pytest.mark.parametrize("params, n", [
        ((1.0, 1000.0, 1.0), 10),       # exp(...) overflows
        ((400.0, 0.0, 0.0), 10),        # n**a1 overflows
        ((200.0, 0.0, 200.0), 10),      # both factors finite, product not
    ])
    def test_overflow_is_numerical_error(self, params, n):
        with pytest.raises(tg.NumericalError, match="overflows"):
            tg.bias_law(tg.BiasLawParams(*params), n, 1.0)


class TestBiasPractical:
    def test_fig1_configuration(self):
        assert tg.bias_practical(100, 0.25) == pytest.approx(2.37137, abs=1e-5)

    def test_exponential_shape(self):
        assert tg.bias_practical(1000, 0.0) == pytest.approx(0.0316228, abs=1e-7)

    def test_vanishes_for_large_n(self):
        assert tg.bias_practical(10**9, 0.5) < 1e-2
        assert tg.bias_practical(10**12, 0.5) < 1e-5

    def test_equals_rounded_law_exactly(self):
        rounded = tg.BiasLawParams(-1.0, 3.5, 1.5)
        for n in (50, 100, 777, 10**4):
            for xi in (0.0, 0.13, 0.25, 0.5):
                assert tg.bias_practical(n, xi) == tg.bias_law(rounded, n, xi)

    def test_monotonicity(self):
        ns = [50, 100, 200, 400, 800]
        assert np.all(np.diff([tg.bias_practical(n, 0.3) for n in ns]) < 0)
        xis = np.linspace(0.0, 0.5, 11)
        assert np.all(np.diff([tg.bias_practical(100, x) for x in xis]) > 0)
        assert np.all(np.diff([tg.bias_law(tg.CALIBRATED_PARAMS, 100, x) for x in xis]) > 0)


class TestCorrectQuantile:
    def test_fig1_mean_corrected_toward_truth(self):
        # E[q_hat] = 20.969 at the fig-1 configuration; correcting with the
        # practical law lands near the true 18.494
        assert tg.correct_quantile(20.969, 100, 0.25) == pytest.approx(18.598, abs=1e-3)

    def test_large_n_is_identity(self):
        q = 7.7
        assert tg.correct_quantile(q, 10**12, 0.25) == pytest.approx(q, abs=1e-8)

    def test_exact_cancellation(self):
        q_true = 18.493653007613958
        b = tg.bias_law(tg.PRACTICAL_PARAMS, 100, 0.25)
        assert abs(tg.correct_quantile(q_true + b, 100, 0.25) - q_true) < 1e-13

    def test_custom_law(self):
        law = tg.BiasLawParams(-1.0, 0.0, 0.0)
        assert tg.correct_quantile(5.0, 10, 0.9, law) == pytest.approx(4.9)


class TestFitBiasLaw:
    def _exact_surface(self, params, ns, xis):
        rows = tuple(
            tg.SurfaceRow(n=n, xi=x, bias=tg.bias_law(params, n, x), variance=1.0)
            for n in ns for x in xis)
        return tg.BiasSurface(alpha=A999, sigma=1.0, rows=rows)

    def test_exact_model_recovery(self):
        surf = self._exact_surface(tg.CALIBRATED_PARAMS,
                                   [50, 100, 200, 500, 1000], [0.0, 0.1, 0.3, 0.5])
        got = tg.fit_bias_law(surf)
        assert got.a1 == pytest.approx(tg.CALIBRATED_PARAMS.a1, abs=1e-9)
        assert got.a2 == pytest.approx(tg.CALIBRATED_PARAMS.a2, abs=1e-9)
        assert got.a3 == pytest.approx(tg.CALIBRATED_PARAMS.a3, abs=1e-9)

    def test_single_xi_is_rank_deficient(self):
        surf = self._exact_surface(tg.PRACTICAL_PARAMS,
                                   list(range(50, 63)), [0.25])
        with pytest.raises(tg.ValidationError, match="rank"):
            tg.fit_bias_law(surf)

    def test_collinear_design_is_rank_deficient(self):
        # three distinct n and xi, but xi = 0.1 log10(n) makes the xi column
        # a multiple of the log(n) column
        rows = tuple(tg.SurfaceRow(n=n, xi=0.1 * math.log10(n), bias=1.0, variance=1.0)
                     for n in (10, 100, 1000) for _ in range(4))
        with pytest.raises(tg.ValidationError, match="grid does not identify the law"):
            tg.fit_bias_law(tg.BiasSurface(alpha=A999, sigma=1.0, rows=rows))

    def test_too_few_rows(self):
        surf = self._exact_surface(tg.PRACTICAL_PARAMS, [50, 100, 200], [0.0, 0.2])
        with pytest.raises(tg.ValidationError, match="12"):
            tg.fit_bias_law(surf)

    def test_nonpositive_bias_rejected(self):
        rows = tuple(tg.SurfaceRow(n=n, xi=x, bias=-1.0, variance=1.0)
                     for n in (50, 100, 200, 400) for x in (0.0, 0.2, 0.4))
        with pytest.raises(tg.ValidationError, match="positive"):
            tg.fit_bias_law(tg.BiasSurface(alpha=A999, sigma=1.0, rows=rows))

    def test_surface_constants_expected_signs(self, regression_surface):
        got = tg.fit_bias_law(regression_surface)
        assert got.a1 < 0 and got.a2 > 0 and got.a3 > 0

    def test_residual_bound_on_default_surface(self, default_grid_stats):
        # stated bound: max |ln(bias) - fitted| < 0.05 on the default grid;
        # the exact surface carries ~0.10 of genuine curvature
        rows = tuple(tg.SurfaceRow(n=n, xi=x, bias=s.bias, variance=s.variance)
                     for (n, x), s in sorted(default_grid_stats.items()))
        surf = tg.BiasSurface(alpha=A999, sigma=1.0, rows=rows)
        law = tg.fit_bias_law(surf)
        resid = [abs(math.log(r.bias) - math.log(tg.bias_law(law, r.n, r.xi)))
                 for r in rows]
        assert max(resid) < 0.05, f"max log-residual {max(resid):.4f}"

    def test_all_bias_positive_in_validated_region(self, default_grid_stats):
        assert all(s.bias > 0 for s in default_grid_stats.values())


def test_corrected_estimator_centering(fig1_report, fig1_stats):
    # stated property: subtracting the exact surface bias recenters the
    # Monte Carlo mean onto the true quantile within 3 standard errors
    q = fig1_report.q_hat_samples
    corrected = q - fig1_stats.bias
    se = q.std(ddof=1) / math.sqrt(q.size)
    err = abs(corrected.mean() - fig1_stats.true_quantile)
    assert err <= 3 * se, f"|mean(q_tilde) - q| = {err:.3f} vs 3*SE = {3*se:.3f}"
