import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

import tailgauge as tg
from tailgauge import quadrature, simulate
from tailgauge.simulate import _kolmogorov_sf

A999 = tg.ConfidenceLevel(0.999)


def _philox(seed, replication):
    """A fresh generator on replication r's stream: Philox keyed by (seed, r)."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, replication], dtype=np.uint64)))


def _config(**kw):
    base = dict(n=50, replications=150, params=tg.GpdParams(1.0, 0.25),
                alpha=A999, seed=99)
    base.update(kw)
    return tg.SimConfig(**base)


def _ks_every_point(samples, cdf):
    """The KS statistic and p-value from the CDF at every sorted sample."""
    x = np.sort(np.asarray(samples, dtype=float))
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, x.size + 1)
    d = max(float(np.max(i / x.size - f)), float(np.max(f - (i - 1) / x.size)))
    return d, _kolmogorov_sf(math.sqrt(x.size) * d)


def _counting(cdf):
    """``cdf``, and the sizes of the arrays it is called with."""
    sizes = []

    def counted(v):
        sizes.append(v.size)
        return cdf(v)
    return counted, sizes


class TestConfigValidation:
    def test_minimum_replications(self):
        with pytest.raises(tg.ValidationError):
            _config(replications=99)

    @pytest.mark.parametrize("field, value", [
        ("n", 100.5), ("n", 100.0), ("n", math.nan), ("n", math.inf), ("n", 1),
        ("replications", 200.5), ("replications", 200.0), ("replications", math.nan),
        ("replications", math.inf),
    ])
    def test_sizes_must_be_integers(self, field, value):
        # all but n = 1 used to pass and make run() fail with a TypeError in np.empty
        with pytest.raises(tg.ValidationError, match=field):
            _config(**{field: value})

    def test_seed_range(self):
        with pytest.raises(tg.ValidationError):
            _config(seed=-1)
        with pytest.raises(tg.ValidationError):
            _config(seed=2**64)
        with pytest.raises(tg.ValidationError):   # used to run as seed 1
            _config(seed=1.5)


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
            est = tg.fit(tg.sample(cfg.params, _philox(cfg.seed, r), cfg.n))
            assert est.converged
            q = tg.quantile(tg.GpdParams(est.sigma_hat, est.xi_hat), cfg.alpha)
            assert q == pytest.approx(rep.q_hat_samples[r], rel=1e-15)

    @pytest.mark.parametrize("xi", [0.25, 0.0])
    def test_block_rows_equal_per_row_samples(self, monkeypatch, xi):
        # 64 rows per block: the blocks are 64, 64 and 22 rows of R = 150,
        # transformed three rows at a time (the last slice of a block is
        # shorter).  The search gets the rows in the one buffer every block
        # reuses and scales them in place, so the recorder copies them first
        cfg = _config(params=tg.GpdParams(1.0, xi))
        monkeypatch.setattr(quadrature, "_WORKSPACE", 3 * cfg.n)
        real, blocks = simulate._fit_rows, []

        def recording(x):
            blocks.append(x.copy())
            return real(x)

        monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 64 * cfg.n)
        monkeypatch.setattr(simulate, "_fit_rows", recording)
        simulate._replicate(cfg)
        assert [x.shape[0] for x in blocks] == [64, 64, 22]
        x = np.concatenate(blocks)
        for r in range(cfg.replications):
            np.testing.assert_array_equal(
                x[r], tg.sample(cfg.params, _philox(cfg.seed, r), cfg.n))

    @pytest.mark.parametrize("seed", [0, 99, 2**64 - 1])
    def test_block_rows_are_fresh_philox_streams(self, monkeypatch, seed):
        # the re-keyed generator's uniforms are Philox(key=[seed, r])'s, at
        # the first and last row and on both sides of each block boundary
        cfg = _config(seed=seed)
        u = _drawn_uniforms(monkeypatch, cfg, block_rows=64)
        for r in (0, 63, 64, 127, 128, cfg.replications - 1):
            np.testing.assert_array_equal(u[r], _philox(seed, r).random(cfg.n))

    def test_streams_differ_per_replication(self, monkeypatch):
        u = _drawn_uniforms(monkeypatch, _config(seed=5))
        assert len({row.tobytes() for row in u}) == u.shape[0]


def _drawn_uniforms(monkeypatch, cfg, block_rows=None):
    """The uniforms ``_replicate`` draws for ``cfg``, one row per replication."""
    real, uniforms = simulate._from_uniform, []

    def recording(params, u):
        uniforms.append(u.copy())
        return real(params, u)

    monkeypatch.setattr(simulate, "_from_uniform", recording)
    if block_rows is not None:
        monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", block_rows * cfg.n)
    simulate._replicate(cfg)
    return np.concatenate(uniforms)


@pytest.mark.parametrize("n, reps, bound", [(100, 2000, 3.0e6), (1000, 2000, 11e6),
                                             (10**4, 300, 11e6)])
def test_replicate_working_set(n, reps, bound):
    # only the one sample buffer scales with the block, and every block
    # reuses it: 1.6 MB at n = 100 (2000 rows), 8 MB at n = 1000 and n = 1e4
    # (1000 and 100 rows a block); the rows are scaled in place, and every
    # other pass runs on cache-sized slices of rows.  At n = 100 the peak,
    # 2.7 MB, is the buffer plus the inverse transform's slice temporaries
    # (1.1 MB); the search frees its (R, 16) grid before the polish and so
    # peaks 1.0 MB above the buffer (1.5 MB while the grid outlived it)
    cfg = _config(n=n, replications=reps, seed=3)
    simulate._replicate(cfg)   # first-call overhead off the trace
    tracemalloc.start()
    try:
        simulate._replicate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


class TestKsTest:
    def test_point_mass_at_median(self):
        p = tg.GpdParams(1.0, 0.25)
        med = tg.quantile(p, tg.ConfidenceLevel(0.5))
        x = np.full(1000, med)
        d, pv = tg.ks_test(x, lambda v: tg.cdf(p, v))
        assert d == pytest.approx(0.5, abs=1e-9)
        assert (d, pv) == _ks_every_point(x, lambda v: tg.cdf(p, v))

    def test_single_sample_at_median(self):
        p = tg.GpdParams(1.0, 0.25)
        med = tg.quantile(p, tg.ConfidenceLevel(0.5))
        d, _ = tg.ks_test([med], lambda v: tg.cdf(p, v))
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(tg.ValidationError):
            tg.ks_test([], lambda v: v)

    @pytest.mark.parametrize("samples", [3.0, np.ones((2, 2))])
    def test_samples_must_be_one_dimensional(self, samples):
        # numpy's AxisError and a bare IndexError before
        with pytest.raises(tg.ValidationError, match="one-dimensional"):
            tg.ks_test(samples, lambda v: np.full(v.shape, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # a NaN used to count as a sample: (0.5904, 0.2466)
        p = tg.GpdParams(1.0, 0.25)
        with pytest.raises(tg.ValidationError, match="finite"):
            tg.ks_test([1.0, bad, 2.0], lambda v: tg.cdf(p, v))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25, 1.25])
    def test_cdf_values_outside_unit_interval_rejected(self, bad):
        # a NaN CDF used to give (nan, 0.0)
        def cdf(v):
            f = np.linspace(0.1, 0.9, v.size)
            f[1] = bad
            return f

        with pytest.raises(tg.ValidationError, match=r"\[0, 1\]"):
            tg.ks_test([1.0, 2.0, 3.0], cdf)

    def test_cdf_values_at_the_ends_accepted(self):
        d, p = tg.ks_test([1.0, 2.0], lambda v: np.array([0.0, 1.0]))
        assert (d, p) == (0.5, _kolmogorov_sf(math.sqrt(2.0) * 0.5))

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

    def test_kolmogorov_sf_of_nan_is_nan(self):
        # it used to run all 100,000 terms and return 0.0
        assert math.isnan(_kolmogorov_sf(math.nan))

    def test_kolmogorov_sf_matches_scipy(self):
        # the alternating series stopped at 100,000 terms: 0.0198 at 1e-6
        # and 0.86 at 1e-5, where the survival is 1
        from scipy.special import kolmogorov
        ys = np.geomspace(1e-8, 10.0, 2001)
        ours = np.array([_kolmogorov_sf(float(y)) for y in ys])
        np.testing.assert_allclose(ours, kolmogorov(ys), rtol=0.0, atol=5e-12)
        assert _kolmogorov_sf(1e-6) == _kolmogorov_sf(1e-5) == 1.0
        assert _kolmogorov_sf(5e-324) == 1.0
        # far in the tail the leading term: it used to be 0 from y = 3.72 up
        ys = np.linspace(3.6, 26.0, 2241)
        ours = np.array([_kolmogorov_sf(float(y)) for y in ys])
        np.testing.assert_allclose(ours, kolmogorov(ys), rtol=1e-12, atol=0.0)
        assert _kolmogorov_sf(8.33) == pytest.approx(1.07e-60, rel=1e-2)

    def test_kolmogorov_sf_keeps_its_series_from_the_switch_up(self):
        def series(y):
            total, sign, k = 0.0, 1.0, 1
            while (term := math.exp(-2.0 * k * k * y * y)) >= 1e-12:
                total, sign, k = total + sign * term, -sign, k + 1
            return min(1.0, max(0.0, 2.0 * total))

        # where the first term is below the tolerance (y > 3.717), the
        # series returned 0 and the survival is now that term
        for y in map(float, np.geomspace(simulate._KS_SMALL_Y, 10.0, 500)):
            first = math.exp(-2.0 * y * y)
            assert _kolmogorov_sf(y) == (series(y) if first >= 1e-12 else 2.0 * first)


def _mc_case(n, xi, reps, seed):
    """q_hat of a Monte Carlo run, and the CDF of its estimator law."""
    rep = tg.run(tg.SimConfig(n=n, replications=reps, params=tg.GpdParams(1.0, xi),
                              alpha=A999, seed=seed))
    spec = tg.DensitySpec(n=n, alpha=A999, sigma=1.0, xi=xi, allow_unvalidated=True)
    return rep, lambda v: tg.cdf_of_estimator(spec, v)


class TestAnchoredKs:
    """The KS test reads the CDF at anchors and at the samples that can set
    D, and gets the D and p of the CDF at every sample."""

    @pytest.mark.parametrize("n, xi, reps, seed", [
        (100, 0.25, 2000, 3), (100, 0.25, 2000, 5), (100, 0.25, 2000, 11),
        (100, 0.25, 2000, 12), (100, 0.25, 2000, 301), (100, 0.25, 2000, 777),
        (50, 0.5, 2000, 1), (1000, 0.1, 2000, 1), (100, 0.0, 2000, 1)])
    def test_monte_carlo_runs_equal_every_point(self, n, xi, reps, seed):
        rep, cdf = _mc_case(n, xi, reps, seed)
        counted, sizes = _counting(cdf)
        ks = tg.ks_test(rep.q_hat_samples, counted)
        assert ks == (rep.ks_statistic, rep.ks_p_value)
        assert ks == _ks_every_point(rep.q_hat_samples, cdf)
        assert len(sizes) == 2 and sum(sizes) <= 400 * reps / 2000

    def test_criterion_6_fixture_equals_every_point(self, fig1_report, fig1_spec):
        ks = (fig1_report.ks_statistic, fig1_report.ks_p_value)
        assert ks == _ks_every_point(fig1_report.q_hat_samples,
                                     lambda v: tg.cdf_of_estimator(fig1_spec, v))
        assert ks[0] == pytest.approx(0.0833, abs=5e-5)

    @pytest.mark.parametrize("size", [1, 2, 3, 8, 9, 17, 100])
    @pytest.mark.parametrize("seed", range(5))
    def test_small_samples_with_ties_equal_every_point(self, size, seed):
        p = tg.GpdParams(1.0, 0.25)
        x = np.round(tg.sample(p, np.random.default_rng(seed), size), 1)
        counted, sizes = _counting(lambda v: tg.cdf(p, v))
        assert tg.ks_test(x, counted) == _ks_every_point(x, lambda v: tg.cdf(p, v))
        assert sum(sizes) <= size   # each sample is read once at most

    def test_decreasing_anchors_read_every_point(self):
        # 1 - F is no CDF: its anchors decrease, so no bound holds
        p = tg.GpdParams(1.0, 0.25)
        x = tg.sample(p, np.random.default_rng(8), 1000)
        counted, sizes = _counting(lambda v: 1.0 - tg.cdf(p, v))
        assert tg.ks_test(x, counted) == _ks_every_point(x, lambda v: 1.0 - tg.cdf(p, v))
        assert sizes == [126, 1000]

    def test_ulp_level_dips_stay_on_the_anchored_path(self):
        # samples 1e-15 apart, where the CDF rises about 10 ulp of 1 from one
        # anchor to the next: 100 ulp dips at every other anchor make the
        # anchor values decrease, by less than the slack.  D is set at the
        # first sample, an anchor, so no sample between anchors is read
        p = tg.GpdParams(1.0, 0.25)
        x = 1.0 + 1e-15 * np.arange(1000)
        dips = set(x[::16].tolist())

        def cdf(v):
            dip = np.array([t in dips for t in v.tolist()], dtype=float)
            return tg.cdf(p, v) - 100 * np.finfo(float).eps * dip
        counted, sizes = _counting(cdf)
        anchors = cdf(x[::8])
        assert (np.diff(anchors) < 0).any()
        assert tg.ks_test(x, counted) == _ks_every_point(x, cdf)
        assert sizes == [126]

    def test_values_outside_the_unit_interval_rejected_between_anchors(self):
        def cdf(v):
            f = np.linspace(0.1, 0.9, v.size)
            if v.size < 9:
                f[-1] = 1.5   # read between the anchors 0, 8 and 9
            return f
        with pytest.raises(tg.ValidationError, match=r"\[0, 1\]"):
            tg.ks_test(np.arange(10.0), cdf)


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
            return (np.full(rows, 0.1), np.ones(rows), np.zeros(rows),
                    np.zeros(rows, dtype=bool))
        monkeypatch.setattr(simulate, "_fit_rows", bad_fit)
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


def test_debug_log_reports_ks_points(caplog, monkeypatch):
    reads = []

    def cdf(spec, v):
        reads.append(v.size)
        return tg.cdf_of_estimator(spec, v)
    monkeypatch.setattr(simulate, "cdf_of_estimator", cdf)
    with caplog.at_level(logging.DEBUG, logger="tailgauge"):
        rep = tg.run(_config(n=100, replications=2000, seed=3))
    (msg,) = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("simulate run")]
    points = re.search(r" ks \d+\.\d{3} \((\d+) of (\d+) points\)$", msg)
    assert points and len(reads) == 2
    assert (int(points[1]), int(points[2])) == (sum(reads), rep.q_hat_samples.size)
    assert sum(reads) <= 400


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
