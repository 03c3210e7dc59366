import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailgauge as tg
from tailgauge.mle import XI_BOX, _loglik, fit_batch

A999 = tg.ConfidenceLevel(0.999)


def _grid_search(x, xi_grid, sigma_grid):
    """Brute-force likelihood maximizer over an explicit grid."""
    z = xi_grid[:, None, None] * x[None, None, :] / sigma_grid[None, :, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.log1p(z).sum(axis=2)
        ll = -x.size * np.log(sigma_grid)[None, :] - (1 + 1 / xi_grid)[:, None] * t
    ll[~np.isfinite(ll)] = -np.inf
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    return float(xi_grid[i]), float(sigma_grid[j]), float(ll[i, j])


class TestLogLikelihood:
    def test_exponential_unit_points(self):
        assert tg.log_likelihood(tg.GpdParams(1.0, 0.0), [1.0, 1.0, 1.0]) == pytest.approx(-3.0)

    def test_outside_support_sentinel(self):
        assert tg.log_likelihood(tg.GpdParams(1.0, -0.5), [3.0]) == -math.inf

    def test_direct_value(self):
        expected = -math.log(2) - 1.0
        assert tg.log_likelihood(tg.GpdParams(2.0, 0.0), [2.0]) == pytest.approx(expected)

    def test_negative_data_sentinel(self):
        assert tg.log_likelihood(tg.GpdParams(1.0, 0.25), [1.0, -0.5]) == -math.inf

    @pytest.mark.parametrize("xi", [0.0, 1e-200, 1e-12, 9e-9, -1e-200, -1e-12, -9e-9, 0.3])
    def test_small_shape_against_scipy(self, xi):
        # the exponential limit only where xi*x/sigma underflows
        from scipy import stats as sps
        x = np.geomspace(1e-3, 200.0, 50)
        expected = float(sps.genpareto(c=xi, scale=1.5).logpdf(x).sum())
        assert tg.log_likelihood(tg.GpdParams(1.5, xi), x) == pytest.approx(
            expected, rel=1e-12)


class TestFit:
    def test_consistency_exponential(self):
        rng = np.random.default_rng(11)
        x = tg.sample(tg.GpdParams(1.0, 0.0), rng, 10**5)
        est = tg.fit(x)
        assert est.converged
        assert abs(est.xi_hat) < 0.015
        assert abs(est.sigma_hat - 1.0) < 0.015

    def test_consistency_heavy_tail(self):
        rng = np.random.default_rng(12)
        x = tg.sample(tg.GpdParams(1.0, 0.25), rng, 10**5)
        est = tg.fit(x)
        assert abs(est.xi_hat - 0.25) < 0.02
        assert abs(est.sigma_hat - 1.0) < 0.02

    def test_three_points_against_grid_oracle(self):
        # two-stage 2000 x 2000 grid search localizes the maximizer
        x = np.array([1.0, 2.0, 3.0])
        xi1, s1, _ = _grid_search(x, np.linspace(-0.49, 5.0, 2000),
                                  np.geomspace(0.05, 100.0, 2000))
        xi2, s2, _ = _grid_search(
            x,
            np.linspace(max(-0.49, xi1 - 0.01), min(5.0, xi1 + 0.01), 2000),
            np.geomspace(s1 * 0.99, s1 * 1.01, 2000))
        est = tg.fit(x)
        assert abs(est.xi_hat - xi2) < 1e-3
        assert abs(est.sigma_hat - s2) < 1e-3

    def test_degenerate_inputs(self):
        with pytest.raises(tg.ValidationError):
            tg.fit([1.0])
        with pytest.raises(tg.ValidationError):
            tg.fit([2.0, 2.0, 2.0])
        with pytest.raises(tg.ValidationError):
            tg.fit([1.0, -1.0, 2.0])
        with pytest.raises(tg.ValidationError, match="one-dimensional"):
            tg.fit([[1.0, 2.0], [3.0, 4.0]])

    def test_equivariance_under_scaling(self):
        rng = np.random.default_rng(13)
        x = tg.sample(tg.GpdParams(1.0, 0.25), rng, 100)
        base = tg.fit(x)
        for c in (0.01, 3.0, 1000.0):
            scaled = tg.fit(c * x)
            assert abs(scaled.xi_hat - base.xi_hat) < 1e-6
            assert abs(scaled.sigma_hat / base.sigma_hat - c) / c < 1e-6

    def test_beats_grid_oracle_on_random_datasets(self):
        # 200 datasets, n=100: the fit may never fall below a grid search
        rng = np.random.default_rng(14)
        for _ in range(200):
            sigma = float(rng.uniform(0.5, 2.0))
            xi = float(rng.uniform(-0.3, 0.5))
            x = tg.sample(tg.GpdParams(sigma, xi), rng, 100)
            est = tg.fit(x)
            _, _, ll_grid = _grid_search(
                x, np.linspace(-0.49, 1.5, 100),
                float(x.mean()) * np.geomspace(0.05, 20.0, 100))
            assert est.log_likelihood >= ll_grid - 1e-6

    def test_reported_point_is_local_max(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            x = tg.sample(tg.GpdParams(1.0, 0.2), rng, 200)
            est = tg.fit(x)
            assert est.converged
            center = _loglik(est.xi_hat, est.sigma_hat, x)
            for dx in (-1e-4, 0.0, 1e-4):
                for ds in (-1e-4, 0.0, 1e-4):
                    if dx == ds == 0.0:
                        continue
                    ll = _loglik(est.xi_hat * (1 + dx), est.sigma_hat * (1 + ds), x)
                    assert ll <= center + 1e-9


@pytest.mark.parametrize("xi, n, edge", [(10.0, 50, 1), (10.0, 200, 1),
                                         (-0.48, 20, 0)])
def test_box_edge_optimum_beats_grid_through_the_edge(xi, n, edge):
    # the constrained optimum sits on the box edge, reached exactly
    x = tg.sample(tg.GpdParams(1.0, xi), np.random.default_rng(16), n)
    est = tg.fit(x)
    assert est.xi_hat == XI_BOX[edge]
    # the same row inside a batch of interior fits lands on the edge too
    others = [tg.sample(tg.GpdParams(1.0, 0.25), np.random.default_rng(k), n)
              for k in range(3)]
    batch = fit_batch(np.stack([others[0], x, *others[1:]]))
    assert batch.xi_hat[1] == XI_BOX[edge]
    assert np.all(batch.xi_hat[[0, 2, 3]] != XI_BOX[edge])
    _, _, ll_grid = _grid_search(
        x, np.linspace(XI_BOX[0], XI_BOX[1], 200),
        float(np.median(x)) * np.geomspace(1e-5, 1e2, 300))
    assert est.log_likelihood >= ll_grid - 1e-9


def _gpd_rows(rows, n, seed):
    """Rows from shapes across the box, some of them landing on its edges."""
    rng = np.random.default_rng(seed)
    return np.stack([tg.sample(tg.GpdParams(float(rng.uniform(0.5, 2.0)), xi), rng, n)
                     for xi in rng.uniform(-0.48, 8.0, rows)])


class TestFitBatch:
    @pytest.mark.parametrize("n", [3, 100, 2000])
    def test_fit_is_bitwise_its_row_of_a_batch(self, n):
        x = _gpd_rows(40, n, seed=n)
        batch = fit_batch(x)
        for r in range(x.shape[0]):
            est = tg.fit(x[r])
            assert (est.xi_hat, est.sigma_hat, est.log_likelihood, est.converged) == (
                batch.xi_hat[r], batch.sigma_hat[r], batch.log_likelihood[r],
                batch.converged[r])
        assert np.isin(batch.xi_hat, XI_BOX).any()

    @pytest.mark.parametrize("bad, what", [
        (lambda r: np.full_like(r, 2.0), "constant"),
        (lambda r: np.where(np.arange(r.size) == 4, -1.0, r), "nonnegative"),
        (lambda r: np.where(np.arange(r.size) == 4, np.inf, r), "finite"),
        (lambda r: np.where(np.arange(r.size) == 4, np.nan, r), "finite"),
    ])
    def test_bad_row_is_named(self, bad, what):
        x = _gpd_rows(5, 20, seed=4)
        x[3] = bad(x[3])
        with pytest.raises(tg.ValidationError, match=rf"{what}.*\(row 3\)"):
            fit_batch(x)
        with pytest.raises(tg.ValidationError, match=what):
            tg.fit(x[3])

    @pytest.mark.parametrize("shape", [(0, 10), (4, 1), (10,), (2, 3, 4)])
    def test_shape_validated(self, shape):
        with pytest.raises(tg.ValidationError):
            fit_batch(np.ones(shape))

    def test_debug_log_reports_rounds_and_edge_hits(self, caplog):
        x = np.stack([tg.sample(tg.GpdParams(1.0, 10.0), np.random.default_rng(16), 50),
                      *_gpd_rows(3, 50, seed=5)])
        with caplog.at_level(logging.DEBUG, logger="tailgauge"):
            batch = fit_batch(x)
        (msg,) = [r.getMessage() for r in caplog.records if r.name == "tailgauge"]
        hits = int(np.isin(batch.xi_hat, XI_BOX).sum())
        assert "4 rows of n=50" in msg and f"{hits} box-edge hits" in msg
        assert int(msg.split(" golden-section rounds")[0].split()[-1]) > 10


def _gpd_sample(seed, n, xi):
    return tg.sample(tg.GpdParams(1.0, xi), np.random.default_rng(seed), n)


def _same_fit(a, b, ll_shift=0.0):
    """Equal up to summation order: loglik rel 1e-12, xi abs 1e-6."""
    assert a.log_likelihood == pytest.approx(b.log_likelihood + ll_shift, rel=1e-12)
    assert abs(a.xi_hat - b.xi_hat) <= 1e-6


_SAMPLES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 300),
                xi=st.floats(-0.45, 1.5))


class TestFitProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(c=st.floats(1e-3, 1e3), **_SAMPLES)
    def test_scale_equivariance(self, seed, n, xi, c):
        x = _gpd_sample(seed, n, xi)
        base, scaled = tg.fit(x), tg.fit(c * x)
        _same_fit(scaled, base, ll_shift=-n * math.log(c))
        if base.converged:
            assert scaled.sigma_hat == pytest.approx(c * base.sigma_hat, rel=1e-5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**_SAMPLES)
    def test_permutation_invariance(self, seed, n, xi):
        x = _gpd_sample(seed, n, xi)
        _same_fit(tg.fit(np.random.default_rng(seed).permutation(x)), tg.fit(x))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(step=st.floats(0.05, 2.0), **_SAMPLES)
    def test_ties_still_fit(self, seed, n, xi, step):
        # rounding onto a coarse grid makes most values tie
        x = np.round(_gpd_sample(seed, n, xi) / step) * step
        if x.max() == x.min():
            with pytest.raises(tg.ValidationError):
                tg.fit(x)
            return
        est = tg.fit(x)
        assert XI_BOX[0] <= est.xi_hat <= XI_BOX[1] and est.sigma_hat > 0.0
        assert est.log_likelihood == pytest.approx(
            float(_loglik(est.xi_hat, est.sigma_hat, x)), rel=1e-12)
        _same_fit(tg.fit(x[::-1]), est)


class TestAsymptoticCovariance:
    def test_exponential_case(self):
        ac = tg.asymptotic_covariance(tg.GpdParams(1.0, 0.0), 100)
        np.testing.assert_allclose(
            ac.cov_matrix, np.array([[1.0, -1.0], [-1.0, 2.0]]) / 100.0)
        assert ac.mean_vector == (0.0, 1.0)

    def test_direct_substitution(self):
        ac = tg.asymptotic_covariance(tg.GpdParams(1.0, 0.25), 1)
        np.testing.assert_allclose(
            ac.cov_matrix, 1.25 * np.array([[1.25, -1.0], [-1.0, 2.0]]))

    def test_inverse_n_scaling(self):
        a = tg.asymptotic_covariance(tg.GpdParams(2.0, 0.3), 50)
        b = tg.asymptotic_covariance(tg.GpdParams(2.0, 0.3), 500)
        np.testing.assert_allclose(a.cov_matrix / 10.0, b.cov_matrix)

    def test_domain_error(self):
        with pytest.raises(tg.ValidationError):
            tg.asymptotic_covariance(tg.GpdParams(1.0, -0.5), 10)

    @pytest.mark.parametrize("xi", [-0.4, -0.2, 0.0, 0.25, 0.5, 1.0])
    def test_determinant_identity(self, xi):
        sigma, n = 1.3, 77
        cov = tg.asymptotic_covariance(tg.GpdParams(sigma, xi), n).cov_matrix
        expected = (1 + xi) ** 2 * (2 * (1 + xi) - 1) * sigma**2 / n**2
        assert np.linalg.det(cov) == pytest.approx(expected, rel=1e-12)
        assert expected > 0


def test_asymptotic_normality_of_estimators(mle_cov_n1000):
    # empirical covariance over 5000 replications at n=1000 tracks the theory
    _emp, _theo, max_rel = mle_cov_n1000
    assert max_rel < 0.15
