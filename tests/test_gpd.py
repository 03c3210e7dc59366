import math

import numpy as np
import pytest

import tailgauge as tg
from tailgauge.gpd import _log1p_over_xi, _scaled_expm1

A999 = tg.ConfidenceLevel(0.999)


def test_params_validation():
    with pytest.raises(tg.ValidationError):
        tg.GpdParams(0.0, 0.25)
    with pytest.raises(tg.ValidationError):
        tg.GpdParams(-1.0, 0.25)
    with pytest.raises(tg.ValidationError):
        tg.GpdParams(1.0, math.nan)
    for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(tg.ValidationError):
            tg.ConfidenceLevel(bad)


def test_support():
    assert tg.GpdParams(1.0, 0.25).support_upper == math.inf
    assert tg.GpdParams(1.0, -0.5).support_upper == 2.0


class TestCdf:
    def test_exponential_limit(self):
        assert tg.cdf(tg.GpdParams(1.0, 0.0), 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_inverts_true_quantile(self):
        # 18.49365 is the 0.999 point of the (sigma=1, xi=0.25) model
        assert tg.cdf(tg.GpdParams(1.0, 0.25), 18.49365) == pytest.approx(0.999, abs=1e-6)

    def test_boundaries(self):
        p = tg.GpdParams(1.0, 0.25)
        assert tg.cdf(p, 0.0) == 0.0
        assert tg.cdf(p, -3.0) == 0.0
        pneg = tg.GpdParams(1.0, -0.5)
        assert tg.cdf(pneg, 2.0) == 1.0
        assert tg.cdf(pneg, 5.0) == 1.0


class TestPdf:
    def test_exponential_at_origin(self):
        assert tg.pdf(tg.GpdParams(1.0, 0.0), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_scale_factor(self):
        assert tg.pdf(tg.GpdParams(2.0, 0.0), 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_direct_value(self):
        assert tg.pdf(tg.GpdParams(1.0, 0.25), 1.0) == pytest.approx(1.25**-5, rel=1e-12)

    def test_outside_support(self):
        assert tg.pdf(tg.GpdParams(1.0, 0.25), -1.0) == 0.0
        assert tg.pdf(tg.GpdParams(1.0, -0.5), 3.0) == 0.0


class TestQuantile:
    def test_fig1_pin(self):
        assert tg.quantile(tg.GpdParams(1.0, 0.25), A999) == pytest.approx(18.494, abs=1e-3)

    def test_exponential_limit(self):
        assert tg.quantile(tg.GpdParams(1.0, 0.0), A999) == pytest.approx(math.log(1000), abs=1e-12)

    def test_uniform_special_case(self):
        assert tg.quantile(tg.GpdParams(1.0, -1.0), A999) == pytest.approx(0.999, abs=1e-12)


def test_moments():
    assert tg.mean(tg.GpdParams(1.0, 0.25)) == pytest.approx(4.0 / 3.0)
    assert tg.mean(tg.GpdParams(1.0, 0.0)) == pytest.approx(1.0)
    assert tg.mean(tg.GpdParams(1.0, 1.0)) is None
    assert tg.variance(tg.GpdParams(1.0, 0.25)) == pytest.approx(32.0 / 9.0)
    assert tg.variance(tg.GpdParams(1.0, 0.0)) == pytest.approx(1.0)
    assert tg.variance(tg.GpdParams(1.0, 0.5)) is None


class TestSample:
    def test_count_validated(self):
        rng = np.random.default_rng(0)
        with pytest.raises(tg.ValidationError):
            tg.sample(tg.GpdParams(1.0, 0.0), rng, 0)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(101)
        x = tg.sample(tg.GpdParams(1.0, 0.0), rng, 10**6)
        assert abs(x.mean() - 1.0) < 0.01

    def test_empirical_high_quantile(self):
        rng = np.random.default_rng(202)
        x = tg.sample(tg.GpdParams(1.0, 0.25), rng, 10**6)
        assert np.quantile(x, 0.999) == pytest.approx(18.494, abs=1.5)

    def test_within_support(self):
        rng = np.random.default_rng(303)
        p = tg.GpdParams(1.0, -0.4)
        x = tg.sample(p, rng, 10**4)
        assert x.min() >= 0.0 and x.max() <= p.support_upper

    def test_deterministic_given_state(self):
        a = tg.sample(tg.GpdParams(1.0, 0.25), np.random.default_rng(7), 100)
        b = tg.sample(tg.GpdParams(1.0, 0.25), np.random.default_rng(7), 100)
        np.testing.assert_array_equal(a, b)


SIGMAS = (0.5, 1.0, 2.0)
XIS = tuple(np.round(np.arange(-0.4, 0.51, 0.1), 10))
ALPHAS = (0.9, 0.99, 0.999)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("xi", XIS)
def test_quantile_cdf_round_trip(sigma, xi):
    p = tg.GpdParams(sigma, xi)
    for a in ALPHAS:
        lvl = tg.ConfidenceLevel(a)
        assert abs(tg.cdf(p, tg.quantile(p, lvl)) - a) < 1e-10


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("xi", XIS)
def test_pdf_is_cdf_derivative(sigma, xi):
    p = tg.GpdParams(sigma, xi)
    for a in (0.3, 0.7, 0.95):
        x = tg.quantile(p, tg.ConfidenceLevel(a))
        h = 3e-6 * (1.0 + abs(x))
        deriv = (tg.cdf(p, x + h) - tg.cdf(p, x - h)) / (2 * h)
        assert deriv == pytest.approx(tg.pdf(p, x), rel=1e-6)


def test_continuity_at_zero_shape():
    for xi in (1e-9, -1e-9):
        p0 = tg.GpdParams(1.0, 0.0)
        p1 = tg.GpdParams(1.0, xi)
        for a in (0.5, 0.99, 0.999):
            lvl = tg.ConfidenceLevel(a)
            q0, q1 = tg.quantile(p0, lvl), tg.quantile(p1, lvl)
            assert abs(q1 - q0) / q0 < 1e-6
        for x in (0.5, 2.0, 7.0):
            assert abs(tg.cdf(p1, x) - tg.cdf(p0, x)) / tg.cdf(p0, x) < 1e-6
            assert abs(tg.pdf(p1, x) - tg.pdf(p0, x)) / tg.pdf(p0, x) < 1e-6


def test_sampling_ks_distance():
    # 1% critical value of the Kolmogorov statistic is ~1.63/sqrt(n)
    n = 10**5
    p = tg.GpdParams(1.0, 0.25)
    x = np.sort(tg.sample(p, np.random.default_rng(42), n))
    f = tg.cdf(p, x)
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - f), np.max(f - (i - 1) / n))
    assert d < 1.63 / math.sqrt(n)


def test_monotonicity():
    p = tg.GpdParams(1.0, 0.25)
    qs = [tg.quantile(p, tg.ConfidenceLevel(a)) for a in np.linspace(0.01, 0.999, 50)]
    assert np.all(np.diff(qs) > 0)
    x = np.linspace(-1.0, 40.0, 200)
    assert np.all(np.diff(tg.cdf(p, x)) >= 0)


@pytest.mark.parametrize("xi", [0.0, 1e-200, 1e-12, 9e-9, 1e-8, 3e-7, 2e-5, 9e-5, 1e-4,
                                -1e-200, -1e-12, -9e-9, -1e-8, -3e-7, -2e-5,
                                -9e-5, -1e-4])
def test_small_shape_against_scipy(xi):
    # the expm1/log1p forms hold full precision wherever xi*x is a normal
    # float; only below that is the exponential limit taken
    from scipy import stats as sps
    p = tg.GpdParams(1.5, xi)
    ref = sps.genpareto(c=xi, scale=p.sigma)
    x = np.append(np.geomspace(1e-3, 200.0, 80), 0.0)
    np.testing.assert_allclose(tg.pdf(p, x), ref.pdf(x), rtol=1e-12, atol=0.0)
    # scipy's genpareto cdf returns x/sigma (above 1) at |c| = 1e-200; the
    # exponential law is exact to rounding at such a shape
    ref_cdf = sps.expon(scale=p.sigma).cdf if abs(xi) < 1e-100 else ref.cdf
    np.testing.assert_allclose(tg.cdf(p, x), ref_cdf(x), rtol=1e-12, atol=0.0)
    for a in (0.5, 0.99, 0.999, 0.99999):
        assert tg.quantile(p, tg.ConfidenceLevel(a)) == pytest.approx(
            ref.ppf(a), rel=1e-12)


def test_scaled_expm1_broadcasts_an_array_of_shapes():
    # one array expression equals per-shape quantile calls, the zero limit
    # taken elementwise
    xi = np.array([0.0, 1e-200, -1e-200, 9e-9, -9e-9, 0.25, -0.45, 4.0])
    sigma = np.linspace(0.5, 3.0, xi.size)
    level = tg.ConfidenceLevel(0.999)
    q = sigma * _scaled_expm1(xi, -math.log1p(-level.alpha))
    expected = [tg.quantile(tg.GpdParams(s, x), level) for s, x in zip(sigma, xi)]
    np.testing.assert_allclose(q, expected, rtol=1e-15, atol=0.0)
    assert q[0] == sigma[0] * -math.log1p(-level.alpha)


def test_limit_helpers_keep_a_nan_shape():
    # a NaN xi is not the xi -> 0 limit; xi = 0 against t = inf still is
    t = -math.log1p(-0.999)
    assert math.isnan(_scaled_expm1(np.nan, t))
    assert math.isnan(_log1p_over_xi(np.nan, 2.0))
    out = _scaled_expm1(np.array([np.nan, 0.0, 0.25]), t)
    assert math.isnan(out[0])
    assert out[1:].tolist() == [t, math.expm1(0.25 * t) / 0.25]
    assert _scaled_expm1(0.0, np.inf) == np.inf
    assert _log1p_over_xi(0.0, np.inf) == np.inf
