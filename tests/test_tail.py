import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailgauge as tg
from tailgauge.tail import fit_tail

A999 = tg.ConfidenceLevel(0.999)


def _synthetic_fit(u_hat, n_hat, N, xi_hat, sigma_hat):
    """TailFit with prescribed numbers (exceedances are placeholders)."""
    sel = tg.TailSelection(u_hat=u_hat, n_hat=n_hat,
                           exceedances=np.linspace(1.0, 2.0, n_hat))
    est = tg.MleEstimate(xi_hat=xi_hat, sigma_hat=sigma_hat,
                         log_likelihood=0.0, n=n_hat, converged=True)
    return tg.TailFit(selection=sel, estimate=est, N=N)


class TestSelectTail:
    def test_permutation_of_integers(self):
        values = np.arange(1.0, 101.0)
        rng = np.random.default_rng(3)
        rng.shuffle(values)
        sel = tg.select_tail(tg.Sample(values), 0.10)
        assert sel.n_hat == 10
        assert sel.u_hat == 90.0
        np.testing.assert_allclose(np.sort(sel.exceedances), np.arange(1.0, 11.0))

    def test_fraction_of_1000(self):
        values = np.random.default_rng(4).normal(size=1000)
        sel = tg.select_tail(tg.Sample(values), 0.15)
        assert sel.n_hat == 150

    def test_too_few_exceedances(self):
        with pytest.raises(tg.ValidationError):
            tg.select_tail(tg.Sample(np.arange(50.0)), 0.10)

    def test_fraction_domain(self):
        s = tg.Sample(np.arange(200.0))
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(tg.ValidationError):
                tg.select_tail(s, bad)

    def test_ties_inside_tail_are_shrunk_past(self):
        # 5 copies of the would-be threshold value: n_hat shrinks below them
        values = np.concatenate([np.arange(1.0, 84.0), np.full(5, 84.0),
                                 np.arange(85.0, 97.0)])
        assert values.size == 100
        sel = tg.select_tail(tg.Sample(values), 0.15)  # ties at ranks 13..17
        assert sel.n_hat == 12
        assert sel.u_hat == 84.0
        assert np.all(sel.exceedances > 0)
        desc = np.sort(values)[::-1]
        assert sel.u_hat == desc[sel.n_hat]
        assert desc[sel.n_hat - 1] > sel.u_hat

    def test_all_ties_at_max_cannot_yield_positive_exceedances(self):
        values = np.concatenate([np.full(11, 90.0), np.arange(1.0, 90.0)])
        with pytest.raises(tg.ValidationError):
            tg.select_tail(tg.Sample(values), 0.10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(size=500)
        sel_a = tg.select_tail(tg.Sample(values), 0.1)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        sel_b = tg.select_tail(tg.Sample(shuffled), 0.1)
        assert sel_a.u_hat == sel_b.u_hat
        assert sel_a.n_hat == sel_b.n_hat
        np.testing.assert_array_equal(np.sort(sel_a.exceedances),
                                      np.sort(sel_b.exceedances))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(20, 400),
           levels=st.integers(1, 60), skew=st.floats(1.0, 6.0),
           keep=st.integers(5, 60))
    def test_heavy_ties(self, seed, size, levels, skew, keep):
        # at most 60 distinct values, bunched at the low end by the skew, so
        # the threshold almost always ties; about a third of the examples
        # keep 10 or more values, a fifth raise with cap >= 10
        u = np.random.default_rng(seed).random(size)
        x = np.floor(levels * u**skew)
        fraction = min(keep + 0.5, size - 0.5) / size
        desc = np.sort(x)[::-1]
        cap = math.floor(fraction * x.size)
        survivors = int(np.sum(x > desc[cap]))   # values above the (cap+1)-th largest
        if cap < 10 or survivors < 10:
            with pytest.raises(tg.ValidationError):
                tg.select_tail(tg.Sample(x), fraction)
            return
        sel = tg.select_tail(tg.Sample(x), fraction)
        assert sel.n_hat == survivors <= cap
        assert np.all(sel.exceedances > 0.0)
        assert sel.u_hat == desc[sel.n_hat] < desc[sel.n_hat - 1]


class TestParentQuantile:
    def test_direct_evaluation(self):
        fit = _synthetic_fit(u_hat=5.0, n_hat=100, N=1000, xi_hat=0.25, sigma_hat=1.0)
        expected = 5.0 + (0.01**-0.25 - 1.0) / 0.25
        assert tg.estimate_parent_quantile(fit, A999) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(13.64911, abs=1e-5)

    def test_whole_sample_tail_reduces_to_gpd_quantile(self):
        fit = _synthetic_fit(u_hat=0.0, n_hat=200, N=200, xi_hat=0.3, sigma_hat=2.0)
        expected = tg.quantile(tg.GpdParams(2.0, 0.3), A999)
        assert tg.estimate_parent_quantile(fit, A999) == pytest.approx(expected, abs=1e-12)

    def test_exponential_limit_branch(self):
        fit = _synthetic_fit(u_hat=5.0, n_hat=100, N=1000, xi_hat=0.0, sigma_hat=1.0)
        assert tg.estimate_parent_quantile(fit, A999) == pytest.approx(
            5.0 - math.log(0.01), abs=1e-12)

    def test_not_in_tail_error(self):
        fit = _synthetic_fit(u_hat=5.0, n_hat=100, N=1000, xi_hat=0.25, sigma_hat=1.0)
        with pytest.raises(tg.ValidationError):
            tg.estimate_parent_quantile(fit, tg.ConfidenceLevel(0.5))

    def test_two_forms_identical(self):
        fit = _synthetic_fit(u_hat=5.0, n_hat=100, N=1000, xi_hat=0.25, sigma_hat=1.0)
        q_hat = tg.quantile(tg.GpdParams(1.0, 0.25), A999)
        via_q = tg.parent_quantile_from_tail_quantile(fit, q_hat, A999)
        assert via_q == pytest.approx(13.64911, abs=1e-5)
        assert via_q == pytest.approx(tg.estimate_parent_quantile(fit, A999), abs=1e-10)

    def test_identity_collapse(self):
        fit = _synthetic_fit(u_hat=0.0, n_hat=150, N=150, xi_hat=0.2, sigma_hat=1.0)
        assert tg.parent_quantile_from_tail_quantile(fit, 0.0, A999) == pytest.approx(0.0, abs=1e-14)


def test_equation_identities_on_random_draws():
    # (1-a)^(-xi) = 1 + (xi/sigma) q_hat, and the two parent-quantile forms
    # agree, across 1000 random parameter draws
    rng = np.random.default_rng(77)
    for _ in range(1000):
        xi = float(rng.uniform(0.01, 0.6))
        sigma = float(rng.uniform(0.3, 3.0))
        alpha = tg.ConfidenceLevel(float(rng.uniform(0.95, 0.9995)))
        n_hat = int(rng.integers(20, 300))
        N = n_hat * int(rng.integers(2, 20))
        u_hat = float(rng.uniform(0.0, 10.0))
        if N / n_hat * (1 - alpha.alpha) >= 1.0:
            continue
        q_hat = tg.quantile(tg.GpdParams(sigma, xi), alpha)
        lhs = (1 - alpha.alpha) ** -xi
        rhs = 1 + xi / sigma * q_hat
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        fit = _synthetic_fit(u_hat, n_hat, N, xi, sigma)
        a = tg.estimate_parent_quantile(fit, alpha)
        b = tg.parent_quantile_from_tail_quantile(fit, q_hat, alpha)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_parent_quantile_increasing_in_alpha():
    fit = _synthetic_fit(u_hat=5.0, n_hat=100, N=1000, xi_hat=0.25, sigma_hat=1.0)
    alphas = np.linspace(0.92, 0.9995, 40)
    vals = [tg.estimate_parent_quantile(fit, tg.ConfidenceLevel(a)) for a in alphas]
    assert np.all(np.diff(vals) > 0)


def test_fit_tail_pipeline_consistency():
    rng = np.random.default_rng(8)
    body = rng.normal(0.0, 1.0, size=9000)
    tail = tg.sample(tg.GpdParams(1.0, 0.25), rng, 1000) + 3.0
    sample = tg.Sample(np.concatenate([body, tail]))
    tf = fit_tail(sample, 0.10)
    assert tf.N == 10000
    assert tf.selection.n_hat == 1000
    assert tf.estimate.converged
    # the selected exceedances really are the fitted data
    ll = tg.log_likelihood(
        tg.GpdParams(tf.estimate.sigma_hat, tf.estimate.xi_hat),
        tf.selection.exceedances)
    assert ll == pytest.approx(tf.estimate.log_likelihood, abs=1e-6)


@pytest.mark.parametrize("u_hat, n_hat, exceedances, what", [
    (1.0, 3, [1.0, 2.0], "number of exceedances"),
    (1.0, 0, [], "number of exceedances"),
    (1.0, 2, [1.0, 0.0], "strictly positive"),
    (math.inf, 2, [1.0, 2.0], "threshold must be finite"),
    (math.nan, 2, [1.0, 2.0], "threshold must be finite"),
])
def test_tail_selection_validation(u_hat, n_hat, exceedances, what):
    with pytest.raises(tg.ValidationError, match=what):
        tg.TailSelection(u_hat=u_hat, n_hat=n_hat, exceedances=np.array(exceedances))


def test_tail_fit_needs_the_whole_sample():
    with pytest.raises(tg.ValidationError, match="N must be at least"):
        _synthetic_fit(u_hat=1.0, n_hat=50, N=49, xi_hat=0.25, sigma_hat=1.0)


def test_sample_validation():
    with pytest.raises(tg.ValidationError):
        tg.Sample(np.arange(5.0))
    with pytest.raises(tg.ValidationError):
        tg.Sample(np.array([1.0, np.inf] + [0.0] * 10))
