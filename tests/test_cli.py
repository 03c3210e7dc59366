import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tailgauge as tg
from tailgauge import cli
from tailgauge.cli import _emit_json, main, read_series


@pytest.fixture(scope="module")
def big_series(tmp_path_factory):
    """10^5 draws from the (sigma=1, xi=0.25) tail model, one per line."""
    rng = np.random.default_rng(55)
    x = tg.sample(tg.GpdParams(1.0, 0.25), rng, 10**5)
    path = tmp_path_factory.mktemp("data") / "losses.csv"
    path.write_text("loss\n" + "".join(f"{float(v)!r}\n" for v in x))
    return path, x


class TestReadSeries:
    def test_header_autodetect(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("value\n1.5\n2.5\n")
        np.testing.assert_allclose(read_series(p), [1.5, 2.5])

    def test_headerless(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1.5\n2.5\n")
        np.testing.assert_allclose(read_series(p), [1.5, 2.5])

    def test_bad_line_reported(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1.0\nnot-a-number\n")
        with pytest.raises(tg.ValidationError, match="line|number|:2"):
            read_series(p)


class TestFitCommand:
    def test_report_matches_empirical_quantile(self, big_series, tmp_path):
        path, x = big_series
        out = tmp_path / "fit.json"
        assert main(["fit", str(path), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        emp = float(np.quantile(x, 0.999))
        assert abs(rep["Q_hat_alpha"] - emp) / emp < 0.05
        assert rep["N"] == 10**5
        assert rep["n_hat"] == 10**4
        assert rep["converged"] is True
        assert rep["q_tilde_alpha"] == rep["q_hat_alpha"] - rep["bias_applied"]
        assert rep["bias_law_source"] == "practical_sigma_scaled"
        assert rep["warnings"] == []

    def test_double_negation_identity(self, big_series, tmp_path):
        path, x = big_series
        neg = tmp_path / "neg.csv"
        neg.write_text("".join(f"{float(-v)!r}\n" for v in x))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", str(path), "--out", str(out_a)]) == 0
        assert main(["fit", str(neg), "--negate", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_too_few_rows(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("".join(f"{v}\n" for v in range(50)))
        assert main(["fit", str(p)]) == 2
        assert "100" in capsys.readouterr().err

    def test_missing_file_is_io_error(self):
        assert main(["fit", "/nonexistent/losses.csv"]) == 4

    @pytest.mark.parametrize("source, text", [
        ("flag", "0.999"), ("env", "0.999"), ("config", "0.999"),
        ("config", "0.99900000000001"),
    ])
    def test_practical_law_at_practical_alpha(self, big_series, tmp_path,
                                              monkeypatch, source, text):
        path, _ = big_series
        out = tmp_path / "fit.json"
        argv = ["fit", str(path), "--out", str(out)]
        if source == "flag":
            argv += ["--alpha", text]
        elif source == "env":
            monkeypatch.setenv("TAILGAUGE_ALPHA", text)
        else:
            cfg = tmp_path / "tg.conf"
            cfg.write_text(f"alpha = {text}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["bias_law_source"] == "practical_sigma_scaled"

    def test_fresh_law_for_other_alpha(self, big_series, tmp_path):
        path, _ = big_series
        out = tmp_path / "fit99.json"
        assert main(["fit", str(path), "--alpha", "0.99", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["bias_law_source"] == "fitted_fresh_surface"
        assert rep["alpha"] == 0.99

    def test_determinism(self, big_series, tmp_path):
        path, _ = big_series
        a, b = tmp_path / "d1.json", tmp_path / "d2.json"
        main(["fit", str(path), "--out", str(a)])
        main(["fit", str(path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip_byte_identical(self, big_series, tmp_path):
        path, _ = big_series
        out = tmp_path / "r1.json"
        main(["fit", str(path), "--out", str(out)])
        payload = json.loads(out.read_text())
        again = tmp_path / "r2.json"
        _emit_json(payload, str(again))
        assert out.read_bytes() == again.read_bytes()


class TestDensityCommand:
    def test_grid_normalization_and_shape(self, tmp_path):
        out = tmp_path / "den.csv"
        assert main(["density", "--n", "100", "--xi", "0.25",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (512, 2)
        dz = rows[1, 0] - rows[0, 0]
        assert rows[:, 1].sum() * dz == pytest.approx(1.0, abs=1e-3)
        assert out.read_text().splitlines()[0] == "z,f_q"

    def test_mode_in_published_window(self, tmp_path):
        # stated [15, 21]; the exact curve peaks near 14.3
        out = tmp_path / "den2.csv"
        main(["density", "--n", "100", "--xi", "0.25", "--out", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        mode = rows[np.argmax(rows[:, 1]), 0]
        assert 15.0 <= mode <= 21.0, f"mode at {mode}"

    def test_heavy_shape_grid_resolves_the_peak(self, tmp_path):
        # the grid spans the estimator's 1e-4 and 1 - 1e-4 quantiles, not the
        # 8e4-wide mass window of this spec
        out = tmp_path / "den4.csv"
        assert main(["density", "--n", "50", "--xi", "0.5", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        dz = rows[1, 0] - rows[0, 0]
        assert rows[:, 1].sum() * dz == pytest.approx(1.0, abs=1e-3)
        assert np.sum(rows[:, 1] >= 0.5 * rows[:, 1].max()) >= 8

    def test_unresolvable_spec_exits_3(self, tmp_path, capsys):
        # the u-rule cannot resolve psi^-2 here; a typed error, not an OOM
        assert main(["density", "--n", "10", "--xi", "5", "--alpha", "0.99999",
                     "--override-region", "--out", str(tmp_path / "d.csv")]) == 3
        assert "n=10, xi=5.0" in capsys.readouterr().err

    def test_out_of_region_refused(self, capsys):
        assert main(["density", "--n", "30", "--xi", "0.25"]) == 2
        assert "validated region" in capsys.readouterr().err

    def test_override_region(self, tmp_path):
        out = tmp_path / "den3.csv"
        with pytest.warns(tg.OutsideValidatedRegionWarning):
            assert main(["density", "--n", "30", "--xi", "0.25",
                         "--override-region", "--out", str(out)]) == 0


class TestBiasTableCommand:
    def test_header_and_monotonicity(self, tmp_path):
        out = tmp_path / "tab.csv"
        assert main(["bias-table", "--grid-n", "50,100,200",
                     "--grid-xi", "0,0.25,0.5", "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        assert text[0] == "n,xi,alpha,sigma,bias,variance"
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        bias = rows[:, 4].reshape(3, 3)
        var = rows[:, 5].reshape(3, 3)
        assert np.all(np.diff(bias, axis=0) < 0)       # decreasing in n
        assert np.all(np.diff(bias, axis=1) > 0)       # increasing in xi
        assert np.all(np.diff(var, axis=1) > 0)

    def test_grid_range_syntax(self, tmp_path):
        out = tmp_path / "tab2.csv"
        assert main(["bias-table", "--grid-n", "50:200:3",
                     "--grid-xi", "0:0.5:3", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert sorted(set(rows[:, 0])) == [50.0, 100.0, 200.0]
        assert sorted(set(rows[:, 1])) == [0.0, 0.25, 0.5]


class TestSimulateCommand:
    def test_report_and_histogram(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--n", "50", "--xi", "0.25",
                     "--replications", "150", "--seed", "42",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["replications"] == 150
        assert len(rep["q_hat_samples"]) + rep["failed_fits"] == 150
        assert 0.0 <= rep["ks_p_value"] <= 1.0
        assert "Kolmogorov" in rep["gof_test"]
        hist = (tmp_path / "sim_hist.csv").read_text().splitlines()
        assert hist[0] == "z_lo,z_mid,z_hi,count,density"
        assert len(hist) == 31

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "s1.json", tmp_path / "s2.json"
        args = ["simulate", "--n", "50", "--xi", "0.25",
                "--replications", "150", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_requires_out(self, capsys):
        assert main(["simulate", "--n", "50", "--xi", "0.25",
                     "--replications", "150"]) == 2


class TestRegressCommand:
    def test_three_field_record(self, tmp_path):
        out = tmp_path / "law.json"
        assert main(["regress", "--grid-n", "50,100,200,400",
                     "--grid-xi", "0,0.1,0.2,0.3", "--out", str(out)]) == 0
        law = json.loads(out.read_text())
        assert set(law) == {"a1", "a2", "a3"}
        assert law["a1"] < 0 < law["a2"]


class TestCorrectCommand:
    def test_practical_law_default(self, tmp_path):
        out = tmp_path / "corr.json"
        assert main(["correct", "--q-hat", "20.969", "--n", "100",
                     "--xi", "0.25", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["bias"] == pytest.approx(2.37137, abs=1e-5)
        assert rep["q_tilde"] == pytest.approx(18.598, abs=1e-3)

    def test_custom_law_params(self, tmp_path):
        out = tmp_path / "corr2.json"
        assert main(["correct", "--q-hat", "5.0", "--n", "10", "--xi", "0.9",
                     "--law-params=-1,0,0", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["q_tilde"] == pytest.approx(4.9)

    def test_missing_inputs(self, capsys):
        assert main(["correct", "--q-hat", "5.0"]) == 2


class TestConfigLayering:
    def test_flag_beats_env_beats_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "tg.conf"
        cfg.write_text("# comment\nalpha = 0.9\n")
        for name, expected in (("file", 0.9), ("env", 0.99), ("flag", 0.995)):
            if name in ("env", "flag"):
                monkeypatch.setenv("TAILGAUGE_ALPHA", "0.99")
            else:
                monkeypatch.delenv("TAILGAUGE_ALPHA", raising=False)
            argv = ["bias-table", "--grid-n", "50,100,200", "--grid-xi",
                    "0,0.1,0.2", "--config", str(cfg),
                    "--out", str(tmp_path / f"tab_{name}.csv")]
            if name == "flag":
                argv += ["--alpha", "0.995"]
            assert main(argv) == 0
            rows = np.loadtxt(tmp_path / f"tab_{name}.csv", delimiter=",",
                              skiprows=1)
            assert rows[0, 2] == pytest.approx(expected)

    def test_io_error_exit_code(self, tmp_path):
        assert main(["correct", "--q-hat", "1.0", "--n", "10", "--xi", "0.1",
                     "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 4


class TestExitCodes:
    def test_bad_env_value_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TAILGAUGE_ALPHA", "abc")
        assert main(["density", "--n", "100", "--xi", "0.25"]) == 2
        assert "TAILGAUGE_ALPHA" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        (["bias-table", "--grid-n", "0:1000:20"], "0:1000:20"),
        (["bias-table", "--grid-n", "50:1000"], "50:1000"),
        (["bias-table", "--grid-n", "50:1000:0"], "50:1000:0"),
        (["bias-table", "--grid-xi", "0,abc"], "0,abc"),
        (["correct", "--q-hat", "5", "--n", "10", "--xi", "0.1",
          "--law-params=1,2"], "1,2"),
    ])
    def test_bad_user_text_exits_2(self, argv, text, capsys):
        assert main(argv) == 2
        assert text in capsys.readouterr().err

    def test_non_utf8_series_exits_2(self, tmp_path):
        p = tmp_path / "binary.csv"
        p.write_bytes(b"\xff\xfe1.0\n")
        assert main(["fit", str(p)]) == 2

    def test_bias_law_overflow_exits_3(self, capsys):
        assert main(["correct", "--q-hat", "5", "--n", "10", "--xi", "1",
                     "--law-params=1,1000,1"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_internal_arithmetic_error_propagates(self, monkeypatch):
        def broken(args):
            raise ZeroDivisionError("internal bug")
        monkeypatch.setattr(cli, "cmd_correct", broken)
        with pytest.raises(ZeroDivisionError, match="internal bug"):
            main(["correct", "--q-hat", "5", "--n", "10", "--xi", "0.1"])

    def test_internal_value_error_propagates(self, monkeypatch):
        def broken(args):
            raise ValueError("internal bug")
        monkeypatch.setattr(cli, "cmd_correct", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["correct", "--q-hat", "5", "--n", "10", "--xi", "0.1"])


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy is a test oracle
    src = os.path.dirname(os.path.dirname(tg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, tailgauge.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"
