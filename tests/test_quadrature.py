import importlib
import math

import numpy as np
import pytest

import tailgauge as tg
from tailgauge import quadrature
from tailgauge.quadrature import KRONROD_WEIGHTS, _panel_sums, adaptive_rule, panel_nodes


def test_refinement_of_the_last_round_is_checked():
    # the 8 starting panels miss 1e-12; the one refinement max_rounds=0
    # allows meets it, and must be accepted rather than reported as a failure
    total, err, _nodes, _weights = adaptive_rule(lambda x, _c: np.exp(-x * x), -6.0, 6.0,
                                                 rel_tol=1e-12, max_rounds=0)
    assert total == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-13)
    assert err <= 1e-12 * total


def test_vector_mode_against_closed_forms():
    a = 6.0

    def f(x, _cell):
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
        adaptive_rule(lambda x, _c: 1.0 + np.sin(1e6 * x), 0.0, 1.0,
                      rel_tol=1e-12, max_rounds=100)


def _gauss(vector):
    """exp(-x^2), or it with x^2 exp(-x^2) and cos(x)^2; ``cell`` is unused."""
    def f(x, _cell):
        g = np.exp(-x * x)
        return np.stack([g, x * x * g, np.cos(x) ** 2], axis=-1) if vector else g
    return f


@pytest.mark.parametrize("vector", [False, True])
def test_rule_reproduces_its_total(vector):
    f = _gauss(vector)
    total, err, nodes, weights = adaptive_rule(f, -6.0, 6.0, rel_tol=1e-12)
    assert nodes.shape == weights.shape
    np.testing.assert_allclose(weights @ f(nodes, None), total, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("vector", [False, True])
def test_batch_gives_each_interval_its_own_rule_bitwise(vector):
    # a batch refines each interval as a lone call would: same totals,
    # errors, nodes and weights, bit for bit, whatever else is in the batch
    f = _gauss(vector)
    lo, hi = np.array([-6.0, -3.0, 0.0]), np.array([6.0, 3.0, 1.0])
    totals, errs, nodes, weights = adaptive_rule(f, lo, hi, rel_tol=1e-12)
    assert totals.shape == errs.shape == ((3, 3) if vector else (3,))
    for i in range(3):
        alone = adaptive_rule(f, lo[i], hi[i], rel_tol=1e-12)
        np.testing.assert_array_equal(totals[i], alone[0])
        np.testing.assert_array_equal(errs[i], alone[1])
        np.testing.assert_array_equal(nodes[i], alone[2])
        np.testing.assert_array_equal(weights[i], alone[3])
        # and as the plain single-interval loop, an engine of its own
        total, ref_nodes, ref_weights = _lone_rule(f, lo[i], hi[i], rel_tol=1e-12)
        np.testing.assert_array_equal(nodes[i], ref_nodes)
        np.testing.assert_array_equal(weights[i], ref_weights)
        np.testing.assert_allclose(totals[i], total, rtol=1e-14, atol=0.0)


def test_integrand_sees_each_node_interval():
    # f gets each node's interval index: integrating the index returns it
    # times the interval's length
    totals, _errs, nodes, _weights = adaptive_rule(
        lambda x, cell: cell + 0.0 * x, np.array([0.0, 1.0, 5.0]),
        np.array([1.0, 3.0, 6.0]), rel_tol=1e-12)
    np.testing.assert_allclose(totals, [0.0, 2.0, 2.0], rtol=1e-13, atol=0.0)
    assert [(x.min() > lo, x.max() < hi) for x, lo, hi in
            zip(nodes, (0.0, 1.0, 5.0), (1.0, 3.0, 6.0))] == [(True, True)] * 3


def test_chunks_do_not_change_the_rule(monkeypatch):
    # one panel per integrand call, after the first call of 8 panels that
    # tells the row size, gives the rule of whole-round calls
    f = _gauss(True)
    ref = adaptive_rule(f, np.array([-6.0, 0.0]), np.array([6.0, 1.0]), rel_tol=1e-12)
    calls = []

    def counted(x, cell):
        calls.append(x.size)
        return f(x, cell)

    monkeypatch.setattr(quadrature, "_WORKSPACE", 1)
    got = adaptive_rule(counted, np.array([-6.0, 0.0]), np.array([6.0, 1.0]),
                        rel_tol=1e-12)
    assert calls[0] == 8 * 15 and set(calls[1:]) == {15}
    np.testing.assert_array_equal(got[0], ref[0])
    for a, b in zip(got[2] + got[3], ref[2] + ref[3]):
        np.testing.assert_array_equal(a, b)


def test_one_unresolvable_interval_fails_the_batch():
    # the periodic integrand cannot be resolved on [0, 1]; the error names
    # that interval's index, after the others converged
    def f(x, cell):
        return np.where(cell == 1, 1.0 + np.sin(1e6 * x), np.exp(-x * x))

    with pytest.raises(tg.QuadratureError, match="panel budget exhausted") as exc:
        adaptive_rule(f, np.array([-3.0, 0.0, -6.0]), np.array([3.0, 1.0, 6.0]),
                      rel_tol=1e-12, max_rounds=100)
    assert exc.value.index == 1


def test_first_failing_interval_is_reported():
    # intervals 1 and 2 both fail, by different rules; the error is the
    # first one's, as its lone call would raise it
    def f(x, cell):
        return np.where(cell == 2, 1.0 + np.sin(1e6 * x), np.where(cell == 1, np.nan, 1.0))

    with pytest.raises(tg.QuadratureError) as exc:
        adaptive_rule(f, np.zeros(3), np.ones(3), rel_tol=1e-12, max_rounds=3)
    assert exc.value.index == 1
    with pytest.raises(tg.QuadratureError) as alone:
        adaptive_rule(lambda x, _c: np.full(x.shape, np.nan), 0.0, 1.0,
                      rel_tol=1e-12, max_rounds=3)
    assert str(exc.value) == str(alone.value)
    assert "the integrand is not finite on [0, 1]" in str(exc.value)


def test_failed_interval_is_frozen_while_the_rest_refine(monkeypatch):
    # the periodic integrand runs out of 40 panels on [0, 1]; its panels are
    # split no more, while (-40, 40) refines for another round, and the error
    # is the lone call's
    monkeypatch.setattr(quadrature, "MAX_PANELS", 40)
    calls = []

    def f(x, cell):
        calls.append(set(cell.tolist()))
        return np.where(cell == 1, 1.0 + np.sin(1e3 * x), np.exp(-x * x))

    with pytest.raises(tg.QuadratureError, match="panel budget exhausted") as exc:
        adaptive_rule(f, np.array([-6.0, 0.0, -3.0, -40.0]), np.array([6.0, 1.0, 3.0, 40.0]),
                      rel_tol=1e-12)
    assert exc.value.index == 1
    with pytest.raises(tg.QuadratureError) as alone:
        adaptive_rule(lambda x, _c: 1.0 + np.sin(1e3 * x), 0.0, 1.0, rel_tol=1e-12)
    assert str(exc.value) == str(alone.value)
    last = max(k for k, cells in enumerate(calls) if 1 in cells)
    assert any(3 in cells for cells in calls[last + 1:])


def test_empty_batch():
    totals, errs, nodes, weights = adaptive_rule(_gauss(False), np.array([]),
                                                 np.array([]), rel_tol=1e-12)
    assert totals.shape == errs.shape == (0,)
    assert nodes == weights == []


def _lone_rule(f, lo, hi, rel_tol, max_rounds=20):
    """The refinement of one interval as a plain loop, the reference for
    each interval of a batch: (total, nodes, weights)."""
    edges = np.linspace(lo, hi, 9)
    p_lo, p_hi = edges[:-1], edges[1:]

    def evaluate(a, b):
        x = panel_nodes(a, b)
        fv = f(x.ravel(), np.zeros(x.size, dtype=np.intp))
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


def test_surface_u_rules_are_the_lone_refinement(monkeypatch):
    # every cell's rule is the one the plain single-interval loop builds on
    # the cell's own integrand, bit for bit; the totals differ only in the
    # order of their sums
    density = importlib.import_module("tailgauge.density")
    seen = []

    def spy(f, lo, hi, rel_tol, max_rounds):
        seen.append((f, lo, hi, rel_tol, max_rounds))
        return adaptive_rule(f, lo, hi, rel_tol, max_rounds)

    monkeypatch.setattr(density, "adaptive_rule", spy)
    level = tg.ConfidenceLevel(0.999)
    specs = [tg.DensitySpec(n=n, alpha=level, sigma=1.0, xi=xi)
             for n, xi in ((100, 0.25), (50, 0.0), (50, 0.5), (1000, 0.0), (1000, 0.5))]
    plans = density._plans(specs)
    (f, lo, hi, rel_tol, max_rounds), = seen
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i, plan in enumerate(plans):
            total, nodes, weights = _lone_rule(
                lambda x, _c, i=i: f(x, np.full(x.size, i)), lo[i], hi[i], rel_tol, max_rounds)
            np.testing.assert_array_equal(plan.u_nodes, nodes)
            np.testing.assert_array_equal(plan.u_weights, weights)
            assert plan.mass == pytest.approx(total[0], rel=1e-14, abs=0.0)
