import math

import numpy as np
import pytest

import tailgauge as tg
from tailgauge.quadrature import adaptive_rule, integrate_adaptive


def test_refinement_of_the_last_round_is_checked():
    # the 8 starting panels miss 1e-12; the one refinement max_rounds=0
    # allows meets it, and must be accepted rather than reported as a failure
    total, err = integrate_adaptive(lambda x: np.exp(-x * x), -6.0, 6.0,
                                    rel_tol=1e-12, max_rounds=0)
    assert total == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-13)
    assert err <= 1e-12 * total


def test_vector_mode_against_closed_forms():
    a = 6.0

    def f(x):
        g = np.exp(-x * x)
        return np.stack([g, x * x * g, np.cos(x) ** 2], axis=-1)

    total, err = integrate_adaptive(f, -a, a, rel_tol=1e-12)
    exact = [math.sqrt(math.pi) * math.erf(a),
             0.5 * math.sqrt(math.pi) * math.erf(a) - a * math.exp(-a * a),
             a + 0.5 * math.sin(2.0 * a)]
    assert total.shape == err.shape == (3,)
    np.testing.assert_allclose(total, exact, rtol=1e-12, atol=0.0)
    assert np.all(err <= 1e-12 * np.abs(total))


def test_panel_budget_exhaustion_raises():
    # 1.6e5 periods on [0, 1] cannot be resolved within MAX_PANELS panels
    with pytest.raises(tg.QuadratureError, match="panel budget exhausted"):
        integrate_adaptive(lambda x: 1.0 + np.sin(1e6 * x), 0.0, 1.0,
                           rel_tol=1e-12, max_rounds=100)


@pytest.mark.parametrize("vector", [False, True])
def test_rule_reproduces_its_total(vector):
    def f(x):
        g = np.exp(-x * x)
        return np.stack([g, x * x * g, np.cos(x) ** 2], axis=-1) if vector else g

    total, err, nodes, weights = adaptive_rule(f, -6.0, 6.0, rel_tol=1e-12)
    assert nodes.shape == weights.shape
    np.testing.assert_allclose(weights @ f(nodes), total, rtol=2e-15, atol=0.0)
