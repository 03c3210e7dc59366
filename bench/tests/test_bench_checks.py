"""Each correctness check passes on real CLI output and rejects a corruption."""

import json

import numpy as np
import pytest

import checks
import workloads
from tailgauge import cli

SEED = 5


@pytest.fixture(scope="module")
def mc_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("mc") / "sim.json"
    assert cli.main(["simulate", "--n", "100", "--xi", "0.25", "--alpha", "0.999",
                     "--replications", "100", "--seed", str(SEED),
                     "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    n_grid, xi_grid = [50, 100, 200, 500, 1000], [0.0, 0.25, 0.5]
    out = tmp_path_factory.mktemp("bias") / "table.csv"
    assert cli.main(["bias-table", "--grid-n", ",".join(map(str, n_grid)),
                     "--grid-xi", ",".join(map(str, xi_grid)),
                     "--out", str(out)]) == 0
    return out.read_text(), n_grid, xi_grid


@pytest.fixture(scope="module")
def tail(tmp_path_factory):
    data = np.random.default_rng(SEED).standard_t(3.0, 20_000)
    tmp = tmp_path_factory.mktemp("tail")
    (tmp / "loss.csv").write_text("\n".join(map(repr, data.tolist())) + "\n")
    assert cli.main(["fit", str(tmp / "loss.csv"), "--alpha", "0.999",
                     "--out", str(tmp / "fit.json")]) == 0
    return json.loads((tmp / "fit.json").read_text()), data


def _failed(results):
    return sorted(k for k, ok in results.items() if not ok)


def test_mc_validate_accepts_and_rejects(mc_report):
    picks = workloads.pick(SEED, 100, 3, stream=10)
    assert _failed(checks.mc_validate(mc_report, picks)) == []

    bad = dict(mc_report, q_hat_samples=list(mc_report["q_hat_samples"]))
    bad["q_hat_samples"][picks[0]] *= 1.0 + 1e-3
    assert f"replay_r{picks[0]}" in _failed(checks.mc_validate(bad, picks))

    bad = dict(mc_report, failed_fits=11)
    assert {"failed_fit_share", "sample_count"} <= set(_failed(checks.mc_validate(bad, picks)))


def test_bias_surface_accepts_and_rejects(surface):
    text, n_grid, xi_grid = surface
    picks = [4, 11]
    assert _failed(checks.bias_surface(text, n_grid, xi_grid, picks)) == []

    lines = text.splitlines()
    cells = [line.split(",") for line in lines[1:]]
    cells[picks[1]][4] = repr(float(cells[picks[1]][4]) * 1.01)
    altered = "\n".join([lines[0]] + [",".join(c) for c in cells]) + "\n"
    assert _failed(checks.bias_surface(altered, n_grid, xi_grid, picks)) == [
        f"quadrature_cell{picks[1]}"]

    cells[0][5] = "-1.0"
    negative = "\n".join([lines[0]] + [",".join(c) for c in cells]) + "\n"
    assert "positive" in _failed(checks.bias_surface(negative, n_grid, xi_grid, picks))


def test_tail_fit_accepts_and_rejects(tail):
    report, data = tail
    assert _failed(checks.tail_fit(report, data, 0.1)) == []

    shifted = dict(report, Q_hat_alpha=report["Q_hat_alpha"] * (1.0 + 1e-6))
    assert _failed(checks.tail_fit(shifted, data, 0.1)) == ["parent_quantile"]

    # a consistent but sub-optimal fit: the reported likelihood matches its
    # parameters, yet a nearby point is better
    xi = report["xi_hat"] + 0.02
    ll = float(checks.gpd_loglik(
        np.sort(data)[::-1][:report["n_hat"]] - report["u_hat"], xi, report["sigma_hat"]))
    worse = dict(report, xi_hat=xi, log_likelihood=ll)
    assert "oracle_local" in _failed(checks.tail_fit(worse, data, 0.1))

    assert "converged" in _failed(checks.tail_fit(dict(report, converged=False), data, 0.1))


def test_loglik_oracle_matches_closed_form():
    x = np.array([0.5, 1.0, 2.0])
    expected = -3 * np.log(2.0) - (1 + 1 / 0.5) * np.log1p(0.25 * x).sum()
    assert checks.gpd_loglik(x, 0.5, 2.0) == pytest.approx(expected, rel=1e-14)
    assert checks.gpd_loglik(x, 0.0, 2.0) == pytest.approx(-3 * np.log(2.0) - 1.75)
    assert checks.gpd_loglik(x, -0.5, 1.0) == -np.inf  # 2.0 is beyond sigma/|xi|
