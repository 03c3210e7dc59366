"""Command-line front end: fit loss series, emit densities, tables and reports.

Each subcommand takes only the layered options of LAYERED_OPTIONS that it
reads, resolved once before it runs: flags > environment (TAILGAUGE_*) >
key=value config file (via --config) > built-in defaults.  Exit codes:
0 success, 2 usage or validation error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from .bias import (BiasLawParams, PRACTICAL_ALPHA, PRACTICAL_PARAMS, bias_law,
                   bias_practical, fit_bias_law)
from .density import (DEFAULT_N_GRID, DEFAULT_XI_GRID, VALIDATED_MIN_N,
                      VALIDATED_XI, DensitySpec, EstimatorLaw, bias_variance_surface)
from .errors import NumericalError, ValidationError
from .gpd import ConfidenceLevel, GpdParams, quantile
from .simulate import SimConfig, run
from .tail import Sample, estimate_parent_quantile, fit_tail, \
    parent_quantile_from_tail_quantile

ENV_PREFIX = "TAILGAUGE_"
TEXT_ENCODING = "utf-8-sig"  # UTF-8; a leading BOM is dropped
_NUMPY_DECOMPRESSES = (".gz", ".bz2", ".xz", ".lzma")
TAIL_FRACTION_BOUNDS = (0.02, 0.5)
MIN_FIT_ROWS = 100
DENSITY_GRID_POINTS = 512
DENSITY_GRID_PROBS = (1e-4, 1.0 - 1e-4)
HISTOGRAM_BINS = 30

# the layered options: key -> (default, help).  A subcommand declares the
# keys it reads; each flag takes its default's type
LAYERED_OPTIONS = {
    "alpha": (0.999, "confidence level"),
    "tail_fraction": (0.10, "tail fraction"),
    "sigma": (1.0, "scale parameter"),
    "seed": (0, "Monte Carlo seed"),
    "replications": (10_000, "Monte Carlo replications"),
}


def _resolve(args: argparse.Namespace) -> None:
    """Fill each declared layered option whose flag is unset: environment >
    config file > default."""
    config = _config_file(args.config) if getattr(args, "config", None) else {}
    for key, (default, _help) in LAYERED_OPTIONS.items():
        if getattr(args, key, default) is not None:   # undeclared, or flagged
            continue
        env = ENV_PREFIX + key.upper()
        if env in os.environ:
            value = _cast(type(default), os.environ[env], env)
        elif key in config:
            value = _cast(type(default), config[key], f"config key {key!r}")
        else:
            value = default
        setattr(args, key, value)


def _cast(cast, text: str, source: str):
    """Convert user text with ``cast``; ValidationError unless a finite number."""
    try:
        val = cast(text)
    except ValueError:
        val = math.nan
    if not -math.inf < val < math.inf:
        raise ValidationError(f"{source}: not a finite {cast.__name__}: {text!r}")
    return val


def _config_file(path: str) -> dict:
    """The ``key = value`` lines of a config file; every key is a layered option."""
    out = {}
    with open(path, encoding=TEXT_ENCODING, errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            k = k.strip().replace("-", "_")
            if k not in LAYERED_OPTIONS:
                raise ValidationError(f"{path}: unknown config key {k!r}")
            out[k] = v.strip()
    return out


def _parse_grid(text: str, log_spaced: bool, cast):
    """Grid flag: 'lo:hi:count' (spaced) or a comma-separated list."""
    source = f"grid {text!r}"
    if ":" not in text:
        return [cast(_cast(float, v, source)) for v in text.split(",")]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"{source}: expected 'lo:hi:count'")
    lo, hi = (_cast(float, v, source) for v in parts[:2])
    count = _cast(int, parts[2], source)
    if count < 1 or (log_spaced and not (lo > 0.0 and hi > 0.0)):
        raise ValidationError(
            f"{source}: need count >= 1, and positive bounds for log spacing")
    space = np.geomspace if log_spaced else np.linspace
    return [cast(v) for v in space(lo, hi, count)]


def read_series(path: str) -> np.ndarray:
    """Read a loss series: UTF-8 text (a BOM is allowed), one value per line.

    Line 1 may be a header, i.e. any text that is not a number.  Blank lines
    are skipped; there are no comment lines.  A bad value raises
    ValidationError naming ``path:line``, and so does a non-finite value.
    A regular file is parsed by one ``np.loadtxt`` call; the line loop runs
    on any other input (a pipe, say) and where that call cannot be trusted,
    to give its exact result or error.
    """
    with open(path, encoding=TEXT_ENCODING, errors="replace") as fh:
        first = fh.readline()
        values = _load_column(path, first)
        if values is None:
            values = _read_lines(itertools.chain([first], fh), path)
    if values.size and not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: series contains non-finite values")
    return values


def _load_column(path: str, first: str) -> np.ndarray | None:
    """The series from one ``np.loadtxt`` call, or None to defer to the loop.

    ``first`` is the file's line 1; it decides whether to skip a header.
    """
    # numpy opens the path anew, which reads the same bytes again only for a
    # regular file: a pipe would be drained.  It opens a str path through its
    # DataSource, which decompresses by file extension and fetches URLs; a
    # plain absolute path it just opens.  (Handed our open file instead, it
    # pulls one line at a time and parses about half again slower.)
    if (not os.path.isfile(path)
            or os.path.splitext(path)[1] in _NUMPY_DECOMPRESSES):
        return None
    first = first.strip()
    try:
        float(first)
        header = False
    except ValueError:
        header = bool(first)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "no data" warning
            table = np.loadtxt(os.path.abspath(path), dtype=float,
                               comments=None, ndmin=2, skiprows=int(header),
                               encoding=TEXT_ENCODING)
    except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
        return None
    # with ndmin=2 a lone row "1 2" stays two columns; ndmin=1 would squeeze
    # it into the series [1, 2]
    return table[:, 0] if table.shape[1] == 1 else None


def _read_lines(lines, path: str) -> np.ndarray:
    """The line loop over ``path``'s lines: the series, or the error naming
    the first bad line."""
    values = []
    for i, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            if i == 0:
                continue  # header
            raise ValidationError(f"{path}:{i + 1}: not a number: {text!r}")
    return np.array(values, dtype=float)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    # JSON (RFC 8259) has no infinity or NaN: a value that overflowed is exit 3
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"an output value is not finite: {exc}") from exc
    _write(text + "\n", out_path)


def _emit_csv(header: list[str], rows, out_path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.9g}" if isinstance(v, float) else str(v) for v in row))
    _write("\n".join(lines) + "\n", out_path)


def _check_tail_fraction(fraction: float) -> float:
    lo, hi = TAIL_FRACTION_BOUNDS
    if not lo <= fraction <= hi:
        raise ValidationError(
            f"tail fraction must lie in [{lo}, {hi}], got {fraction}")
    return fraction


def _collect_region_warnings(record) -> list[str]:
    return sorted({str(w.message).split(";")[0] for w in record})


def cmd_fit(args: argparse.Namespace) -> None:
    alpha = ConfidenceLevel(args.alpha)
    fraction = _check_tail_fraction(args.tail_fraction)
    series = read_series(args.input)
    if series.size < MIN_FIT_ROWS:
        raise ValidationError(
            f"{args.input}: need at least {MIN_FIT_ROWS} rows, got {series.size}")
    if args.negate:
        series = -series

    tf = fit_tail(Sample(series), fraction)
    est, sel = tf.estimate, tf.selection
    q_hat = quantile(GpdParams(est.sigma_hat, est.xi_hat), alpha)
    q_big = estimate_parent_quantile(tf, alpha)

    warn = []
    if not est.converged:
        warn.append("mle_not_converged")
    if not VALIDATED_XI[0] <= est.xi_hat <= VALIDATED_XI[1]:
        warn.append("xi_hat_outside_validated_region")
    if sel.n_hat < VALIDATED_MIN_N:
        warn.append("n_hat_below_validated_region")

    b_practical = bias_practical(sel.n_hat, est.xi_hat)
    if math.isclose(alpha.alpha, PRACTICAL_ALPHA, rel_tol=0.0, abs_tol=1e-12):
        # the bias scales exactly linearly in sigma, so the sigma=1 law applies
        b_applied = est.sigma_hat * b_practical
        law_source = "practical_sigma_scaled"
    else:
        _mean, b_applied, _var = EstimatorLaw(DensitySpec(
            n=sel.n_hat, alpha=alpha, sigma=est.sigma_hat, xi=est.xi_hat,
            allow_unvalidated=True))._reported_moments()
        law_source = "estimator_law"
    q_tilde = q_hat - b_applied
    q_big_tilde = parent_quantile_from_tail_quantile(tf, q_tilde, alpha)

    _emit_json({
        "N": tf.N,
        "u_hat": sel.u_hat,
        "n_hat": sel.n_hat,
        "xi_hat": est.xi_hat,
        "sigma_hat": est.sigma_hat,
        "log_likelihood": est.log_likelihood,
        "converged": est.converged,
        "alpha": alpha.alpha,
        "tail_fraction": fraction,
        "q_hat_alpha": q_hat,
        "Q_hat_alpha": q_big,
        "bias_practical": b_practical,
        "bias_applied": b_applied,
        "bias_law_source": law_source,
        "q_tilde_alpha": q_tilde,
        "Q_tilde_alpha": q_big_tilde,
        "warnings": warn,
    }, args.out)


def cmd_density(args: argparse.Namespace) -> None:
    spec = DensitySpec(n=args.n, alpha=ConfidenceLevel(args.alpha), sigma=args.sigma,
                       xi=args.xi, allow_unvalidated=args.override_region)
    law = EstimatorLaw(spec)
    lo, hi = law.quantile(DENSITY_GRID_PROBS)
    z = np.linspace(lo, hi, DENSITY_GRID_POINTS)
    f = law.density(z)
    _emit_csv(["z", "f_q"], zip(z.tolist(), f.tolist()), args.out)


def _surface_from_args(args: argparse.Namespace):
    """The bias/variance surface over the --grid-n/--grid-xi grid."""
    n_grid = (_parse_grid(args.grid_n, True, lambda v: int(round(v)))
              if args.grid_n else list(DEFAULT_N_GRID))
    xi_grid = (_parse_grid(args.grid_xi, False, float)
               if args.grid_xi else list(DEFAULT_XI_GRID))
    return bias_variance_surface(n_grid, xi_grid, ConfidenceLevel(args.alpha),
                                 args.sigma)


def cmd_bias_table(args: argparse.Namespace) -> None:
    surface = _surface_from_args(args)
    _emit_csv(
        ["n", "xi", "alpha", "sigma", "bias", "variance"],
        ((r.n, r.xi, surface.alpha.alpha, surface.sigma, r.bias, r.variance)
         for r in surface.rows),
        args.out)


def _linear_quantile(values: np.ndarray, p: float) -> float:
    """``np.quantile(values, p)`` bit for bit, read off ``np.sort``.

    numpy's default "linear" rule: the virtual index (N-1)*p, interpolated
    from the far end for a fraction >= 0.5 as numpy's ``_lerp`` does.
    ``np.quantile`` itself would import ``numpy.ma`` into every cold run.
    """
    s = np.sort(values)
    v = (s.size - 1) * p
    i = min(math.floor(v), s.size - 1)
    a, b, t = s[i], s[min(i + 1, s.size - 1)], v - i
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def cmd_simulate(args: argparse.Namespace) -> None:
    config = SimConfig(
        n=args.n,
        replications=args.replications,
        params=GpdParams(args.sigma, args.xi),
        alpha=ConfidenceLevel(args.alpha),
        seed=args.seed,
    )
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        report = run(config)
    q = report.q_hat_samples
    _emit_json({
        "n": config.n,
        "replications": config.replications,
        "sigma": config.params.sigma,
        "xi": config.params.xi,
        "alpha": config.alpha.alpha,
        "seed": config.seed,
        "empirical_mean": report.empirical_mean,
        "empirical_variance": report.empirical_variance,
        "empirical_bias": report.empirical_bias,
        "ks_statistic": report.ks_statistic,
        "ks_p_value": report.ks_p_value,
        "gof_test": "one-sample two-sided Kolmogorov-Smirnov at 5% "
                    "(harness choice; level family not mandated upstream)",
        "failed_fits": report.failed_fits,
        "warnings": _collect_region_warnings(rec),
        "q_hat_samples": q.tolist(),
    }, args.out)

    # histogram over [min, 99.5% quantile]: extreme fits would otherwise
    # stretch the bins into uselessness
    hi = _linear_quantile(q, 0.995)
    counts, edges = np.histogram(q, bins=HISTOGRAM_BINS, range=(float(q.min()), hi))
    width = edges[1] - edges[0]
    dens = counts / (counts.sum() * width)
    base, _ext = os.path.splitext(args.out)
    _emit_csv(
        ["z_lo", "z_mid", "z_hi", "count", "density"],
        ((float(edges[i]), float(0.5 * (edges[i] + edges[i + 1])),
          float(edges[i + 1]), int(counts[i]), float(dens[i]))
         for i in range(HISTOGRAM_BINS)),
        base + "_hist.csv")


def cmd_regress(args: argparse.Namespace) -> None:
    law = fit_bias_law(_surface_from_args(args))
    _emit_json({"a1": law.a1, "a2": law.a2, "a3": law.a3}, args.out)


def cmd_correct(args: argparse.Namespace) -> None:
    if not math.isfinite(args.q_hat):
        raise ValidationError(f"--q-hat must be finite, got {args.q_hat}")
    if args.law_params:
        parts = args.law_params.split(",")
        if len(parts) != 3:
            raise ValidationError(
                f"--law-params: expected 'a1,a2,a3', got {args.law_params!r}")
        law = BiasLawParams(*(_cast(float, v, "--law-params") for v in parts))
    else:
        law = PRACTICAL_PARAMS
    b = bias_law(law, args.n, args.xi)
    _emit_json({
        "q_hat": args.q_hat,
        "n": args.n,
        "xi_hat": args.xi,
        "law_a1": law.a1,
        "law_a2": law.a2,
        "law_a3": law.a3,
        "bias": b,
        "q_tilde": args.q_hat - b,
    }, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailgauge",
        description="GPD tail fitting and finite-sample quantile-bias analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, *keys, out_required=False):
        """A subcommand with --out and the layered options ``keys``, plus
        --config where it takes any."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        for key in keys:
            default, key_help = LAYERED_OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                           help=f"{key_help} (default {default})")
        if keys:
            p.add_argument("--config", help="key=value config file (lowest precedence)")
        p.add_argument("--out", required=out_required,
                       help="JSON report path" if out_required
                       else "output path (default stdout)")
        return p

    def spec_flags(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--xi", type=float, required=True)

    p_fit = command("fit", cmd_fit, "fit a loss series and correct its quantile",
                    "alpha", "tail_fraction")
    p_fit.add_argument("input", help="CSV: one numeric value per line")
    p_fit.add_argument("--negate", action="store_true",
                       help="negate the series (return series, lower tail)")

    p_den = command("density", cmd_density, "estimator density table (CSV)",
                    "alpha", "sigma")
    spec_flags(p_den)
    p_den.add_argument("--override-region", action="store_true",
                       help="allow (n, xi) outside the validated region")

    for name, func, text in (
            ("bias-table", cmd_bias_table, "bias/variance surface (CSV)"),
            ("regress", cmd_regress, "fit the bias law to a fresh surface")):
        p_tab = command(name, func, text, "alpha", "sigma")
        p_tab.add_argument("--grid-n", help="'lo:hi:count' (log-spaced) or comma list")
        p_tab.add_argument("--grid-xi", help="'lo:hi:count' (linear) or comma list")

    spec_flags(command("simulate", cmd_simulate, "Monte Carlo replication report",
                       "alpha", "sigma", "replications", "seed", out_required=True))

    p_cor = command("correct", cmd_correct, "bias-correct a fitted quantile")
    p_cor.add_argument("--q-hat", dest="q_hat", type=float, required=True)
    spec_flags(p_cor)
    p_cor.add_argument("--law-params", dest="law_params",
                       help="'a1,a2,a3' overriding the practical law")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    """The program's entry (``python -m tailgauge.cli``, the ``tailgauge``
    script): ``main`` with the objects that exist after import (about 22,000
    that the collector tracks) frozen out of the collector, so that no
    collection, those at exit included, traverses them.  ``main`` itself
    leaves the collector as it is."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
