import importlib
import math
import re

import numpy as np
import pytest

import tailgauge as tg
from tailgauge import quadrature
from tailgauge.quadrature import KRONROD_WEIGHTS, _panel_sums, adaptive_rule, panel_nodes


def test_refinement_of_the_last_round_is_checked():
    # the 8 starting panels miss 1e-12; the one refinement max_rounds=0
    # allows meets it, and must be accepted rather than reported as a failure
    total, err, _nodes, _weights = adaptive_rule(lambda x: np.exp(-x * x), -6.0, 6.0,
                                                 rel_tol=1e-12, max_rounds=0)
    assert total == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-13)
    assert err <= 1e-12 * total


def test_vector_mode_against_closed_forms():
    a = 6.0

    def f(x):
        g = np.exp(-x * x)
        return np.stack([g, x * x * g, np.cos(x) ** 2], axis=-1)

    total, err, _nodes, _weights = adaptive_rule(f, -a, a, rel_tol=1e-12)
    exact = [math.sqrt(math.pi) * math.erf(a),
             0.5 * math.sqrt(math.pi) * math.erf(a) - a * math.exp(-a * a),
             a + 0.5 * math.sin(2.0 * a)]
    assert total.shape == err.shape == (3,)
    np.testing.assert_allclose(total, exact, rtol=1e-12, atol=0.0)
    assert np.all(err <= 1e-12 * np.abs(total))


def test_panel_budget_exhaustion_raises():
    # 1.6e5 periods on [0, 1] cannot be resolved within MAX_PANELS panels
    with pytest.raises(tg.QuadratureError, match="panel budget exhausted"):
        adaptive_rule(lambda x: 1.0 + np.sin(1e6 * x), 0.0, 1.0,
                      rel_tol=1e-12, max_rounds=100)


def _gauss(vector):
    """exp(-x^2), or it with x^2 exp(-x^2) and cos(x)^2."""
    def f(x):
        g = np.exp(-x * x)
        return np.stack([g, x * x * g, np.cos(x) ** 2], axis=-1) if vector else g
    return f


@pytest.mark.parametrize("vector", [False, True])
def test_rule_reproduces_its_total(vector):
    f = _gauss(vector)
    total, err, nodes, weights = adaptive_rule(f, -6.0, 6.0, rel_tol=1e-12)
    assert nodes.shape == weights.shape
    np.testing.assert_allclose(weights @ f(nodes), total, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("vector", [False, True])
def test_rule_is_the_plain_refinement_loop(vector):
    # the same nodes and weights, bit for bit, as the loop of an engine of
    # its own; the totals differ only in the order of their sums
    f = _gauss(vector)
    for lo, hi in ((-6.0, 6.0), (-3.0, 3.0), (0.0, 1.0)):
        got_total, _err, nodes, weights = adaptive_rule(f, lo, hi, rel_tol=1e-12)
        total, ref_nodes, ref_weights = _lone_rule(f, lo, hi, rel_tol=1e-12)
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(weights, ref_weights)
        np.testing.assert_allclose(got_total, total, rtol=1e-14, atol=0.0)


def test_integrand_that_is_not_finite_is_named():
    with pytest.raises(tg.QuadratureError, match=re.escape(
            "no convergence after 4 refinement rounds (the integrand is not finite "
            "on [0, 1])")):
        adaptive_rule(lambda x: np.full(x.shape, np.nan), 0.0, 1.0,
                      rel_tol=1e-12, max_rounds=3)


def test_chunks_do_not_change_the_rule(monkeypatch):
    # one panel per integrand call, after the first call of 8 panels that
    # tells the row size, gives the rule of whole-round calls
    f = _gauss(True)
    ref = adaptive_rule(f, -6.0, 6.0, rel_tol=1e-12)
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    monkeypatch.setattr(quadrature, "_WORKSPACE", 1)
    got = adaptive_rule(counted, -6.0, 6.0, rel_tol=1e-12)
    assert calls[0] == 8 * 15 and set(calls[1:]) == {15}
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)


def _lone_rule(f, lo, hi, rel_tol, max_rounds=20):
    """The refinement of one interval as a plain loop, the reference for
    ``adaptive_rule``: (total, nodes, weights)."""
    edges = np.linspace(lo, hi, 9)
    p_lo, p_hi = edges[:-1], edges[1:]

    def evaluate(a, b):
        x = panel_nodes(a, b)
        fv = f(x.ravel())
        return _panel_sums(fv.reshape(x.shape + fv.shape[1:]), 0.5 * (b - a))

    vals, errs = evaluate(p_lo, p_hi)
    for _ in range(max_rounds + 1):
        total, err = vals.sum(axis=0), errs.sum(axis=0)
        scale = np.maximum(np.abs(total), 1e-300)
        if np.all(err <= rel_tol * scale):
            weights = 0.5 * (p_hi - p_lo)[:, None] * KRONROD_WEIGHTS[None, :]
            return total, panel_nodes(p_lo, p_hi).ravel(), weights.ravel()
        norm = (errs / scale).reshape(len(errs), -1).max(axis=1)
        bad = norm > rel_tol / len(p_lo)
        if not bad.any():
            bad[np.argmax(norm)] = True
        mid = 0.5 * (p_lo[bad] + p_hi[bad])
        p_lo = np.concatenate([p_lo[~bad], p_lo[bad], mid])
        p_hi = np.concatenate([p_hi[~bad], mid, p_hi[bad]])
        new = slice(len(p_lo) - 2 * mid.size, None)
        add_v, add_e = evaluate(p_lo[new], p_hi[new])
        vals = np.concatenate([vals[~bad], add_v])
        errs = np.concatenate([errs[~bad], add_e])
    raise AssertionError("the reference did not converge")


def test_plan_u_rule_is_the_plain_refinement_loop(monkeypatch):
    # a spec's u-rule is the one the plain loop builds on its integrand, bit
    # for bit; its mass differs only in the order of the sums
    density = importlib.import_module("tailgauge.density")
    level = tg.ConfidenceLevel(0.999)
    for n, xi in ((100, 0.25), (50, 0.0), (50, 0.5), (1000, 0.0), (1000, 0.5)):
        seen = []

        def spy(f, lo, hi, rel_tol, max_rounds):
            seen.append((f, lo, hi, rel_tol, max_rounds))
            return adaptive_rule(f, lo, hi, rel_tol, max_rounds)

        monkeypatch.setattr(density, "adaptive_rule", spy)
        rule = tg.EstimatorLaw(tg.DensitySpec(n=n, alpha=level, sigma=1.0, xi=xi)).u_rule
        (f, lo, hi, rel_tol, max_rounds), = seen
        total, nodes, weights = _lone_rule(f, lo, hi, rel_tol, max_rounds)
        np.testing.assert_array_equal(rule.nodes, nodes)
        np.testing.assert_array_equal(rule.weights, weights)
        assert rule.mass == pytest.approx(total[0], rel=1e-14, abs=0.0)
