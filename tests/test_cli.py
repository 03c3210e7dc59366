import dataclasses
import gc
import gzip
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailgauge as tg
from tailgauge import cli
from tailgauge.cli import _emit_json, main, read_series
from tailgauge.tail import fit_tail


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

    def test_bad_value_names_its_line(self, tmp_path, capsys):
        p = tmp_path / "file.csv"
        p.write_text("loss\n\n1.5\n   \n2.5\nbad\n3.5\n")
        msg = f"{p}:6: not a number: 'bad'"
        with pytest.raises(tg.ValidationError) as exc:
            read_series(p)
        assert str(exc.value) == msg
        assert main(["fit", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_compressed_name_is_not_decompressed(self, tmp_path, monkeypatch):
        p = tmp_path / "s.csv.gz"
        p.write_bytes(gzip.compress(b"1.5\n2.5\n", mtime=0))
        assert _fast_column(p) is None
        got = _read_outcome(p)
        want = np.array([1.5, 2.5])
        assert got != (want.shape, want.tobytes())
        monkeypatch.setattr(cli, "_load_column", lambda path, first: None)
        assert _read_outcome(p) == got

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_read_whole(self):
        values = [i / 7.0 for i in range(2000)]  # ~40 KB, within a pipe buffer
        data = ("loss\n" + "".join(f"{v!r}\n" for v in values)).encode()
        assert 8192 < len(data) < 65536
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            got = read_series(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert got.tobytes() == np.array(values).tobytes()


# name: (file bytes, whether np.loadtxt parses it, values or error text)
READ_CORPUS = {
    "header": (b"loss\n1.5\n2.5\n", True, [1.5, 2.5]),
    "no_header": (b"1.5\n2.5\n", True, [1.5, 2.5]),
    "blank_lines": (b"loss\n\n1.5\n   \n\t\n2.5\n\n", True, [1.5, 2.5]),
    "crlf": (b"loss\r\n1.5\r\n\r\n2.5\r\n", True, [1.5, 2.5]),
    "bom_value": (b"\xef\xbb\xbf1.5\n2.5\n", True, [1.5, 2.5]),
    "bom_header": (b"\xef\xbb\xbfloss\n1.5\n", True, [1.5]),
    "single_value": (b"3.25", True, [3.25]),
    "underscore": (b"1_0\n2\n", False, [10.0, 2.0]),
    "nan": (b"1\nnan\n", True, "non-finite"),
    "inf": (b"loss\ninf\n1\n", True, "non-finite"),
    "comment": (b"1\n# note\n2\n", False, ":2: not a number: '# note'"),
    "two_per_line": (b"1 2\n3 4\n", False, ":2: not a number: '3 4'"),
    "header_then_two": (b"loss\n1 2\n", False, ":2: not a number: '1 2'"),
    "bad_utf8_header": (b"lo\xffss\n1.5\n", False, [1.5]),
    "bad_utf8_value": (b"1.5\n2\xff\n", False,
                       ":2: not a number: '2\ufffd'"),
    "empty": (b"", False, []),
    "header_only": (b"loss\n", False, []),
}


def _fast_column(path):
    with open(path, encoding=cli.TEXT_ENCODING, errors="replace") as fh:
        return cli._load_column(path, fh.readline())


def _read_outcome(path):
    try:
        values = read_series(path)
    except tg.ValidationError as exc:
        return str(exc)
    return values.shape, values.tobytes()


class TestFastPathMatchesLoop:
    @pytest.mark.parametrize("data, fast, expected", READ_CORPUS.values(),
                             ids=READ_CORPUS.keys())
    def test_same_values_or_error(self, tmp_path, monkeypatch, data, fast,
                                  expected):
        p = tmp_path / "s.csv"
        p.write_bytes(data)
        assert (_fast_column(p) is not None) == fast
        got = _read_outcome(p)
        if isinstance(expected, str):
            assert expected in got
        else:
            want = np.array(expected, dtype=float)
            assert got == (want.shape, want.tobytes())
        monkeypatch.setattr(cli, "_load_column", lambda path, first: None)
        assert _read_outcome(p) == got

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=50))
    def test_repr_round_trips_bitwise(self, tmp_path_factory, values):
        p = tmp_path_factory.getbasetemp() / "repr.csv"
        p.write_text("\n".join(map(repr, values)) + "\n")
        expected = np.array(values, dtype=float).tobytes()
        assert _fast_column(p).tobytes() == expected
        assert read_series(p).tobytes() == expected


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

    @pytest.mark.parametrize("fraction", ["0.01", "0.6"])
    def test_tail_fraction_outside_bounds_exits_2(self, fraction, small_series, capsys):
        assert main(["fit", str(small_series), "--tail-fraction", fraction]) == 2
        assert capsys.readouterr().err == (
            f"error: tail fraction must lie in [0.02, 0.5], got {fraction}\n")

    def test_unconverged_fit_is_flagged(self, small_series, tmp_path, monkeypatch):
        def unconverged(sample, fraction):
            tf = fit_tail(sample, fraction)
            return dataclasses.replace(
                tf, estimate=dataclasses.replace(tf.estimate, converged=False))
        monkeypatch.setattr(cli, "fit_tail", unconverged)
        out = tmp_path / "fit.json"
        assert main(["fit", str(small_series), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["converged"] is False
        assert "mle_not_converged" in rep["warnings"]

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

    def test_estimator_law_for_other_alpha(self, big_series, tmp_path):
        path, _ = big_series
        out = tmp_path / "fit99.json"
        assert main(["fit", str(path), "--alpha", "0.99", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["bias_law_source"] == "estimator_law"
        assert rep["alpha"] == 0.99
        spec = tg.DensitySpec(n=rep["n_hat"], alpha=tg.ConfidenceLevel(0.99),
                              sigma=rep["sigma_hat"], xi=rep["xi_hat"])
        assert rep["bias_applied"] == tg.stats(spec).bias
        assert rep["q_tilde_alpha"] == rep["q_hat_alpha"] - rep["bias_applied"]

    def test_low_alpha(self, big_series, tmp_path):
        # below alpha 0.953 some default-grid cells have a non-positive bias;
        # fit reads the law at its fitted spec only
        path, _ = big_series
        out = tmp_path / "fit95.json"
        assert main(["fit", str(path), "--alpha", "0.95", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["bias_law_source"] == "estimator_law"
        assert np.isfinite(rep["bias_applied"])

    def test_unresolvable_law_exits_3(self, tmp_path, capsys):
        # n_hat = 10 with xi_hat near 3.8: up to alpha 0.9999 the law's exact
        # bias is finite (negative and huge, -1.2e49 at 0.9995); at 0.99999
        # its variance, 1.1e300 sigma_hat^2 = 3.4e317, overflows a double
        p = tmp_path / "heavy.csv"
        x = np.random.default_rng(3).pareto(0.15, 100)
        p.write_text("".join(f"{float(v)!r}\n" for v in x))
        out = tmp_path / "heavy99.json"
        for alpha in ("0.99", "0.9995"):
            assert main(["fit", str(p), "--alpha", alpha, "--out", str(out)]) == 0
            rep = json.loads(out.read_text())
            assert rep["n_hat"] == 10 and rep["xi_hat"] > 3.5
            assert -math.inf < rep["bias_applied"] < 0.0
        capsys.readouterr()
        assert main(["fit", str(p), "--alpha", "0.99999"]) == 3
        err = capsys.readouterr().err
        assert "n=10" in err and "the variance overflows a double" in err

    @pytest.mark.parametrize("alpha", ["0.999", "0.99"])
    @pytest.mark.parametrize("draw, warning", [
        (lambda: 100.0 * np.random.default_rng(4).beta(2, 3, 20000),
         "xi_hat_outside_validated_region"),    # xi_hat -0.365
        (lambda: np.random.default_rng(6).pareto(4.0, 400),
         "n_hat_below_validated_region"),       # n_hat 40
    ], ids=["bounded_beta", "short_pareto"])
    def test_region_warnings(self, tmp_path, alpha, draw, warning):
        p = tmp_path / "s.csv"
        p.write_text("".join(f"{float(v)!r}\n" for v in draw()))
        out = tmp_path / "fit.json"
        assert main(["fit", str(p), "--alpha", alpha, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["warnings"] == [warning]
        assert np.isfinite(rep["bias_applied"])
        if alpha == "0.99":     # the law as is, e.g. -0.00237 for the Beta
            law = tg.EstimatorLaw(tg.DensitySpec(
                n=rep["n_hat"], alpha=tg.ConfidenceLevel(0.99), sigma=rep["sigma_hat"],
                xi=rep["xi_hat"], allow_unvalidated=True))
            bias, _var = law.moments()
            assert rep["bias_applied"] == (law.q_true + bias) - law.q_true

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
        # psi underflows on the u-range, so the grid's quantile bracket is
        # not finite; a typed error, not an OOM or a grid of NaN, after the
        # region warning
        with pytest.warns(tg.OutsideValidatedRegionWarning):
            assert main(["density", "--n", "10", "--xi", "5", "--alpha", "0.99999",
                         "--override-region", "--out", str(tmp_path / "d.csv")]) == 3
        assert "n=10, xi=5.0" in capsys.readouterr().err

    def test_grid_ends_are_the_tail_quantiles(self, tmp_path):
        # the first z has G(z) = 1e-4 and the last S(z) = 1e-4, to the
        # digits the CSV prints
        out = tmp_path / "den5.csv"
        assert main(["density", "--n", "50", "--xi", "0", "--out", str(out)]) == 0
        z = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        spec = tg.DensitySpec(n=50, alpha=tg.ConfidenceLevel(0.999), sigma=1.0, xi=0.0)
        law = tg.EstimatorLaw(spec)
        g = law.cdf(z[0])
        s = law.sf(z[-1])
        assert g == pytest.approx(1e-4, rel=1e-7)
        assert s == pytest.approx(1e-4, rel=1e-7)

    def test_out_of_region_refused(self, capsys):
        assert main(["density", "--n", "30", "--xi", "0.25"]) == 2
        assert "validated region" in capsys.readouterr().err

    def test_size_beyond_a_double_exits_2(self, capsys):
        # an integer argparse takes, but no double holds: not an OverflowError
        assert main(["density", "--n", "1" + "0" * 400, "--xi", "0.25"]) == 2
        assert "beyond the largest double" in capsys.readouterr().err

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

    def test_every_cell_is_validated_before_any_quadrature(self, capsys):
        # at sigma 1e152 the moments of (50, 0.5) alone overflow (exit 3);
        # n = 10 is out of region
        assert main(["bias-table", "--grid-n", "50,10", "--grid-xi", "0.5",
                     "--sigma", "1e152"]) == 2
        assert "n=10, xi=0.5) is outside the validated region" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, digest", [
        ("0.999", "bd8acb72cb02a8b03bdf507c2cbab08c5c5b0fe414339c3f4e635193c88dc893"),
        ("0.99", "8ff92f07fd6bcddbcff631fb97bb236298fba614a5af4d4046ac724aeafd1cb5"),
    ])
    def test_default_grid_bytes_are_pinned(self, tmp_path, alpha, digest):
        # the sha256 of the default-grid CSV that the u-rule moments wrote;
        # the r-integrals write the same bytes
        out = tmp_path / "tab.csv"
        assert main(["bias-table", "--alpha", alpha, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_moments_scale_with_sigma(capsys):
    # the bias scales as sigma and the variance as sigma^2, so a sigma whose
    # moments fit a double resolves: 5e152 times the sigma-1 bias, and a
    # variance of 1.0076e308; at (50, 0.5) and 1e152 it is 2.1e308
    assert main(["bias-table", "--grid-n", "50", "--grid-xi", "0.25"]) == 0
    _n, _xi, _a, _s, bias, _var = capsys.readouterr().out.splitlines()[1].split(",")
    assert main(["bias-table", "--grid-n", "50", "--grid-xi", "0.25",
                 "--sigma", "5e152"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(5e152 * float(bias), rel=1e-8)
    assert row[5] == "1.00758959e+308"
    assert main(["bias-table", "--grid-n", "50", "--grid-xi", "0.5",
                 "--sigma", "1e152"]) == 3
    assert "n=50, xi=0.5): the variance overflows a double" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["density", "--n", "100", "--xi", "0.25", "--sigma", "1e160"],
    ["bias-table", "--grid-n", "100", "--grid-xi", "0.25", "--sigma", "1e300"],
])
def test_huge_sigma_exits_3(argv, capsys):
    # 2 sigma^2 overflows the asymptotic covariance: a typed numerical error
    assert main(argv) == 3
    assert "asymptotic covariance overflows" in capsys.readouterr().err


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
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "50", "--xi", "0.25", "--replications", "150"])
        assert exc.value.code == 2
        assert "required: --out" in capsys.readouterr().err

    def test_histogram_edge_is_numpy_quantile(self):
        # the edge is read off np.sort: bitwise np.quantile's "linear" rule
        rng = np.random.default_rng(8)
        for size in rng.integers(1, 2001, 300):
            x = rng.standard_t(3, size) * 10.0 ** rng.uniform(-3, 3)
            for p in (0.995, float(rng.uniform()), 0.5, 1.0):
                assert cli._linear_quantile(x, p) == float(np.quantile(x, p))


class TestRegressCommand:
    def test_three_field_record(self, tmp_path):
        out = tmp_path / "law.json"
        assert main(["regress", "--grid-n", "50,100,200,400",
                     "--grid-xi", "0,0.1,0.2,0.3", "--out", str(out)]) == 0
        law = json.loads(out.read_text())
        assert set(law) == {"a1", "a2", "a3"}
        assert law["a1"] < 0 < law["a2"]

    def test_nonpositive_cell_named(self, capsys):
        # at alpha 0.95, 20 of the 120 default cells have a non-positive bias
        assert main(["regress", "--alpha", "0.95"]) == 2
        assert "n=50, xi=0" in capsys.readouterr().err


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
        with pytest.raises(SystemExit) as exc:
            main(["correct", "--q-hat", "5.0"])
        assert exc.value.code == 2
        assert "required: --n, --xi" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--q-hat", "--xi"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_refused(self, tmp_path, capsys, flag, value):
        # NaN would reach the report as a bare NaN, which is not JSON
        args = {"--q-hat": "5.0", "--n": "100", "--xi": "0.25", flag: value}
        out = tmp_path / "corr.json"
        argv = ["correct", *(f"{k}={v}" for k, v in args.items()), "--out", str(out)]
        assert main(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


# the layered keys each subcommand reads, their documented defaults, and three
# other values of each key: one each for the flag, the environment and the file
LAYERED_KEYS = {
    "fit": ("alpha", "tail_fraction"),
    "density": ("alpha", "sigma"),
    "bias-table": ("alpha", "sigma"),
    "regress": ("alpha", "sigma"),
    "simulate": ("alpha", "sigma", "replications", "seed"),
    "correct": (),
}
LAYERED_DEFAULTS = {"alpha": "0.999", "tail_fraction": "0.1", "sigma": "1.0",
                    "seed": "0", "replications": "10000"}
LAYER_VALUES = {"alpha": ("0.99", "0.995", "0.998"),
                "tail_fraction": ("0.2", "0.15", "0.05"),
                "sigma": ("2", "3", "0.5"),
                "seed": ("1", "2", "3"),
                "replications": ("100", "101", "102")}


def _cheap_argv(command, series="losses.csv"):
    """A quick valid call of ``command``: one surface cell (12 for regress),
    100 Monte Carlo replications, a 2000-row series."""
    return {
        "fit": ["fit", str(series)],
        "density": ["density", "--n", "100", "--xi", "0.25"],
        "bias-table": ["bias-table", "--grid-n", "100", "--grid-xi", "0.25"],
        "regress": ["regress", "--grid-n", "50:400:4", "--grid-xi", "0.1:0.4:3"],
        "simulate": ["simulate", "--n", "50", "--xi", "0.25", "--replications", "100"],
        "correct": ["correct", "--q-hat", "20.969", "--n", "100", "--xi", "0.25"],
    }[command]


@pytest.fixture(scope="module")
def small_series(tmp_path_factory):
    x = tg.sample(tg.GpdParams(1.0, 0.25), np.random.default_rng(9), 2000)
    path = tmp_path_factory.mktemp("data") / "small.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in x))
    return path


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

    def test_config_file_with_utf8_bom(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TAILGAUGE_ALPHA", raising=False)
        cfg = tmp_path / "tg.conf"
        cfg.write_bytes(b"\xef\xbb\xbfalpha = 0.99\n")
        out = tmp_path / "tab.csv"
        assert main(["bias-table", "--grid-n", "100", "--grid-xi", "0.25",
                     "--config", str(cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert rows[0, 2] == 0.99

    def test_io_error_exit_code(self, tmp_path):
        assert main(["correct", "--q-hat", "1.0", "--n", "10", "--xi", "0.1",
                     "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 4

    @pytest.mark.parametrize("command, key", [
        (c, k) for c, keys in LAYERED_KEYS.items() for k in keys])
    def test_flag_beats_env_beats_config_beats_default(
            self, command, key, small_series, tmp_path, monkeypatch):
        for k in LAYERED_DEFAULTS:
            monkeypatch.delenv("TAILGAUGE_" + k.upper(), raising=False)
        env_name = "TAILGAUGE_" + key.upper()
        flag_name = "--" + key.replace("_", "-")
        argv = _cheap_argv(command, small_series)
        if flag_name in argv:     # simulate's --replications
            i = argv.index(flag_name)
            del argv[i:i + 2]
        runs = itertools.count()

        def output(flag=None, env=None, config=None):
            out = tmp_path / f"run{next(runs)}.out"
            extra = ["--out", str(out)]
            if flag is not None:
                extra += [flag_name, flag]
            if config is not None:
                cfg = tmp_path / "tg.conf"
                cfg.write_text(f"{key} = {config}\n")
                extra += ["--config", str(cfg)]
            if env is None:
                monkeypatch.delenv(env_name, raising=False)
            else:
                monkeypatch.setenv(env_name, env)
            assert main(argv + extra) == 0
            return out.read_bytes()

        flag, env, config = LAYER_VALUES[key]
        default = LAYERED_DEFAULTS[key]
        by_flag = {v: output(flag=v) for v in (flag, env, config, default)}
        assert len(set(by_flag.values())) == 4    # the key shows in the output
        assert output(flag=flag, env=env, config=config) == by_flag[flag]
        assert output(env=env, config=config) == by_flag[env]
        assert output(config=config) == by_flag[config]
        assert output() == by_flag[default]

    @pytest.mark.parametrize("command, flag", [
        *((c, "--" + k.replace("_", "-")) for c, keys in LAYERED_KEYS.items()
          for k in LAYERED_DEFAULTS if k not in keys),
        ("correct", "--config"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_cheap_argv(command) + ["--out", "x", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "tg.conf"
        cfg.write_text("alpha 0.99\n")
        assert main(_cheap_argv("bias-table") + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: bad config line: 'alpha 0.99'\n"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "tg.conf"
        cfg.write_text("sigma = 2\naplha = 0.99\n")
        assert main(_cheap_argv("bias-table") + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'aplha'\n"

    def test_one_config_file_serves_every_command(self, tmp_path, monkeypatch):
        # keys that another subcommand reads are accepted and left alone
        for k in LAYERED_DEFAULTS:
            monkeypatch.delenv("TAILGAUGE_" + k.upper(), raising=False)
        cfg = tmp_path / "tg.conf"
        cfg.write_text("seed = 3\nreplications = 200\ntail-fraction = 0.2\n"
                       "alpha = 0.999\nsigma = 2\n")
        out = tmp_path / "tab.csv"
        assert main(_cheap_argv("bias-table")
                    + ["--config", str(cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert rows[0, 3] == 2.0


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


def test_cli_import_leaves_scipy_out(small_series, tmp_path):
    # numpy is the only runtime dependency and scipy a test oracle; numpy.ma
    # is why simulate reads its histogram edge off _linear_quantile.  Neither
    # is imported by the CLI module, nor by a run of its subcommands.
    # numpy.random (about 5 MB of RSS, OpenSSL through secrets and hmac) is
    # loaded by simulate alone, so it runs last.
    runs = [_cheap_argv(c, small_series) + ["--out", str(tmp_path / f"{c}.out")]
            for c in ("density", "bias-table", "fit", "simulate")]
    src = os.path.dirname(os.path.dirname(tg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, tailgauge.cli\n"
        "mods = ('scipy', 'numpy.ma', 'numpy.random')\n"
        "print([m for m in mods if m in sys.modules])\n"
        f"for argv in {runs!r}:\n"
        "    assert tailgauge.cli.main(argv) == 0, argv\n"
        "    print([m for m in mods if m in sys.modules])\n")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines() == ["[]"] * 4 + ["['numpy.random']"]


def test_main_leaves_the_collector_unfrozen(tmp_path):
    # only the program entry freezes: in-process callers keep their collector
    assert main(_cheap_argv("simulate") + ["--out", str(tmp_path / "s.json")]) == 0
    assert gc.get_freeze_count() == 0


def test_entry_freezes_before_main(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda: 7 if gc.get_freeze_count() else 0)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry()
    finally:
        gc.unfreeze()
    assert exc.value.code == 7


def _main_exit(argv):
    """``main(argv)``'s exit code, that of an argparse exit included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, code", [
    (["correct", "--q-hat", "20.969", "--n", "100", "--xi", "0.25"], 0),
    (["simulate", "--n", "50", "--xi", "0.25", "--replications", "100",
      "--out", "{out}"], 0),
    (["density", "--n", "30", "--xi", "0.25"], 2),    # outside the region
    (["simulate", "--n", "50", "--xi", "0.25"], 2),   # no --out
    (["fit", "{heavy}", "--alpha", "0.99999"], 3),    # the variance overflows
    (["fit", "{missing}"], 4),
    (["fit", "{huge}"], 3),                           # the fitted sigma overflows
])
def test_module_entry_matches_main(argv, code, tmp_path, capsys):
    heavy = tmp_path / "heavy.csv"
    x = np.random.default_rng(3).pareto(0.15, 100)
    heavy.write_text("".join(f"{float(v)!r}\n" for v in x))
    # valid values whose tail fit has sigma_hat beyond a double; the child
    # used to print two RuntimeWarnings and exit 2
    huge = tmp_path / "huge.csv"
    huge.write_text("".join(f"{v!r}\n" for v in [*range(199), 1e308, 1e307, 5e307]))
    out = tmp_path / "sim.json"
    argv = [a.format(out=out, heavy=heavy, huge=huge, missing=tmp_path / "missing.csv")
            for a in argv]
    outputs = [out, tmp_path / "sim_hist.csv"]

    def written():
        files = {p.name: p.read_bytes() for p in outputs if p.exists()}
        for p in outputs:
            p.unlink(missing_ok=True)
        return files

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(tg.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-m", "tailgauge.cli", *argv], env=env,
                           capture_output=True, text=True)
    child_files = written()
    capsys.readouterr()
    assert (child.returncode, _main_exit(argv)) == (code, code)
    captured = capsys.readouterr()
    assert (child.stdout, child.stderr) == (captured.out, captured.err)
    assert child_files == written()
    assert bool(child_files) == ("--out" in argv)
    assert child_files or child.stdout or child.stderr
