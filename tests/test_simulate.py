import logging
import math

import numpy as np
import pytest

import tailgauge as tg
from tailgauge import simulate
from tailgauge.mle import MleBatch
from tailgauge.simulate import _kolmogorov_sf

A999 = tg.ConfidenceLevel(0.999)


def _config(**kw):
    base = dict(n=50, replications=150, params=tg.GpdParams(1.0, 0.25),
                alpha=A999, seed=99)
    base.update(kw)
    return tg.SimConfig(**base)


class TestConfigValidation:
    def test_minimum_replications(self):
        with pytest.raises(tg.ValidationError):
            _config(replications=99)

    def test_seed_range(self):
        with pytest.raises(tg.ValidationError):
            _config(seed=-1)
        with pytest.raises(tg.ValidationError):
            _config(seed=2**64)


class TestReproducibility:
    def test_bitwise_identical_reports(self):
        a = tg.run(_config())
        b = tg.run(_config())
        np.testing.assert_array_equal(a.q_hat_samples, b.q_hat_samples)
        assert a.empirical_mean == b.empirical_mean
        assert a.ks_statistic == b.ks_statistic
        assert a.ks_p_value == b.ks_p_value

    def test_seed_changes_output(self):
        a = tg.run(_config(seed=99))
        b = tg.run(_config(seed=100))
        assert not np.array_equal(a.q_hat_samples, b.q_hat_samples)

    def test_block_size_does_not_change_results(self, monkeypatch):
        a = tg.run(_config())
        monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 1)   # one row per block
        b = tg.run(_config())
        np.testing.assert_array_equal(a.q_hat_samples, b.q_hat_samples)
        assert (a.ks_statistic, a.failed_fits) == (b.ks_statistic, b.failed_fits)

    def test_replications_are_single_fits(self):
        # replication r is fit(sample r), through the same quantile map
        cfg = _config()
        rep = tg.run(cfg)
        for r in (0, 77, 149):
            est = tg.fit(tg.sample(cfg.params, simulate._stream(cfg.seed, r), cfg.n))
            assert est.converged
            q = tg.quantile(tg.GpdParams(est.sigma_hat, est.xi_hat), cfg.alpha)
            assert q == pytest.approx(rep.q_hat_samples[r], rel=1e-15)

    @pytest.mark.parametrize("xi", [0.25, 0.0])
    def test_block_rows_equal_per_row_samples(self, monkeypatch, xi):
        # 64 rows per block: the blocks are 64, 64 and 22 rows of R = 150
        cfg = _config(params=tg.GpdParams(1.0, xi))
        real, blocks = simulate.fit_batch, []

        def recording(x):
            blocks.append(x.copy())
            return real(x)

        monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 64 * cfg.n)
        monkeypatch.setattr(simulate, "fit_batch", recording)
        simulate._replicate(cfg)
        assert [b.shape[0] for b in blocks] == [64, 64, 22]
        x = np.concatenate(blocks)
        for r in range(cfg.replications):
            np.testing.assert_array_equal(
                x[r], tg.sample(cfg.params, simulate._stream(cfg.seed, r), cfg.n))

    def test_streams_differ_per_replication(self):
        g0 = simulate._stream(5, 0).random(4)
        g1 = simulate._stream(5, 1).random(4)
        assert not np.array_equal(g0, g1)


class TestKsTest:
    def test_point_mass_at_median(self):
        p = tg.GpdParams(1.0, 0.25)
        med = tg.quantile(p, tg.ConfidenceLevel(0.5))
        d, _ = tg.ks_test(np.full(1000, med), lambda v: tg.cdf(p, v))
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_single_sample_at_median(self):
        p = tg.GpdParams(1.0, 0.25)
        med = tg.quantile(p, tg.ConfidenceLevel(0.5))
        d, _ = tg.ks_test([med], lambda v: tg.cdf(p, v))
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(tg.ValidationError):
            tg.ks_test([], lambda v: v)

    def test_self_consistency_p_values(self):
        # samples drawn from the hypothesized law: p > 0.01 in >= 98/100 runs
        p = tg.GpdParams(1.0, 0.25)
        ok = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            x = tg.sample(p, rng, 10**4)
            _, pv = tg.ks_test(x, lambda v: tg.cdf(p, v))
            ok += pv > 0.01
        assert ok >= 98

    def test_kolmogorov_sf_reference_values(self):
        # frozen from the defining series
        assert _kolmogorov_sf(0.5) == pytest.approx(0.9639452437, abs=1e-9)
        assert _kolmogorov_sf(1.0) == pytest.approx(0.2699996717, abs=1e-9)
        assert _kolmogorov_sf(1.36) == pytest.approx(0.0494858768, abs=1e-9)
        assert _kolmogorov_sf(2.0) == pytest.approx(0.0006709253, abs=1e-9)
        assert _kolmogorov_sf(0.0) == 1.0
        assert _kolmogorov_sf(50.0) == 0.0


class TestRun:
    def test_report_accounting(self, fig1_report):
        assert fig1_report.q_hat_samples.size + fig1_report.failed_fits == 10_000
        assert fig1_report.empirical_bias == pytest.approx(
            fig1_report.empirical_mean - 18.493653007613958, abs=1e-12)
        assert fig1_report.failed_fits <= 0.10 * 10_000

    def test_consistency_at_large_n(self):
        # 100 replications of n = 10^5 exponential-tail fits
        cfg = tg.SimConfig(n=10**5, replications=100,
                           params=tg.GpdParams(1.0, 0.0), alpha=A999, seed=5)
        rep = tg.run(cfg)
        assert abs(rep.empirical_mean - math.log(1000)) < 0.5

    def test_histogram_matches_density_at_mode(self, fig1_report, fig1_spec):
        # 30-bin histogram vs the theoretical curve at the modal bin
        q = fig1_report.q_hat_samples
        hi = float(np.quantile(q, 0.995))
        counts, edges = np.histogram(q, bins=30, range=(float(q.min()), hi))
        dens = counts / (counts.sum() * (edges[1] - edges[0]))
        j = int(np.argmax(dens))
        center = 0.5 * (edges[j] + edges[j + 1])
        theory = tg.density(fig1_spec, center)
        assert abs(dens[j] - theory) / theory < 0.15

    def test_empirical_variance_within_three_se(self, fig1_report, fig1_stats):
        q = fig1_report.q_hat_samples
        s2 = q.var(ddof=1)
        m4 = np.mean((q - q.mean()) ** 4)
        se_var = math.sqrt((m4 - s2 * s2) / q.size)
        err = abs(s2 - fig1_stats.variance)
        assert err <= 3 * se_var, f"|var diff| = {err:.2f} vs 3*SE = {3*se_var:.2f}"

    def test_degenerate_when_fits_fail(self, monkeypatch):
        def bad_fit(x):
            rows = len(x)
            return MleBatch(xi_hat=np.full(rows, 0.1), sigma_hat=np.ones(rows),
                            log_likelihood=np.zeros(rows),
                            converged=np.zeros(rows, dtype=bool))
        monkeypatch.setattr(simulate, "fit_batch", bad_fit)
        with pytest.raises(tg.NumericalError):
            tg.run(_config())


def test_debug_log_reports_stages(caplog):
    with caplog.at_level(logging.DEBUG, logger="tailgauge"):
        rep = tg.run(_config())
    (msg,) = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("simulate run")]
    assert f"150 replications, {rep.failed_fits} failed fits" in msg
    for stage in ("sample", "fit", "quantile", "ks"):
        assert f" {stage} " in msg


class TestMleAsymptotics:
    def test_theoretical_matrix_exponential_case(self):
        theo = tg.asymptotic_covariance(tg.GpdParams(1.0, 0.0), 100).cov_matrix
        np.testing.assert_allclose(theo, np.array([[0.01, -0.01], [-0.01, 0.02]]))

    def test_replication_floor(self):
        with pytest.raises(tg.ValidationError):
            tg.check_mle_asymptotics(_config(replications=500))

    def test_covariance_within_15_percent_at_n1000(self, mle_cov_n1000):
        emp, theo, max_rel = mle_cov_n1000
        assert emp.shape == theo.shape == (2, 2)
        assert max_rel < 0.15

    def test_error_shrinks_by_n_1e4(self, mle_cov_n1000):
        _, _, rel_1000 = mle_cov_n1000
        cfg = tg.SimConfig(n=10**4, replications=5000,
                           params=tg.GpdParams(1.0, 0.25), alpha=A999, seed=71)
        _, _, rel_1e4 = tg.check_mle_asymptotics(cfg)
        assert rel_1e4 < rel_1000
