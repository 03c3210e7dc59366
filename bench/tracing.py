"""Spans around the calls one tailgauge layer makes into another.

Run as a script, this file is the traced child process::

    python bench/tracing.py SPANS_JSON JOB_ID CLI_ARG...

It imports ``tailgauge.cli`` inside a span, replaces the module attributes
through which one layer calls another (``TARGETS``) by wrappers that record
a span per call, runs ``tailgauge.cli.main(CLI_ARG...)`` inside a root span
and writes every span once, at exit.  Nothing in the package is edited: a
layer whose attribute no longer exists is simply not traced.

A span is (name, start, end, parent index, job id, attributes).  The
benchmark process turns the spans of one job into per-layer metrics:
summed self time (duration minus the part its child spans cover) for each
span name, counts from the attributes, and the uncovered remainder of the
child's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    job: int
    attrs: dict | None


class Recorder:
    """In-memory span list with a stack of the spans still open."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, i: int, attrs: dict | None = None) -> None:
        self.spans[i][2] = time.perf_counter()
        self.spans[i][5] = attrs
        self._open.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def traced(rec: Recorder, fn, name: str, attrs=None):
    """``fn`` wrapped in a span; ``attrs(args, result)`` annotates it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(i, attrs(args, result) if attrs and result is not None else None)
    return wrapper


def traced_quadrature(rec: Recorder, fn):
    """``integrate_adaptive`` in a span that counts integrand calls and error."""
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)

        i = rec.open("quadrature.integrate_adaptive")
        info = {}
        try:
            total, err = fn(counted, *args, **kwargs)
            info["rel_err"] = max(abs(float(e)) / max(abs(float(t)), 1e-300)
                                  for t, e in zip(_flat(total), _flat(err)))
            return total, err
        finally:
            info["rounds"] = max(calls - 1, 0)
            rec.close(i, info)
    return wrapper


def _flat(v):
    return v.ravel().tolist() if hasattr(v, "ravel") else [v]


def _fit_attrs(args, est):
    """Converged flag, and whether xi_hat sits at an end of the MLE box."""
    box = getattr(sys.modules["tailgauge.mle"], "XI_BOX", (-0.49, 5.0))
    edge = est.xi_hat <= box[0] + 1e-6 or est.xi_hat >= box[1] - 1e-6
    return {"converged": bool(est.converged), "edge": bool(edge)}


# (module, attribute, span name, attributes from (args, result))
TARGETS = [
    ("tailgauge.cli", "read_series", "cli.read_series",
     lambda a, r: {"rows": int(r.size)}),
    ("tailgauge.cli", "run", "simulate.run",
     lambda a, r: {"failed_fits": int(r.failed_fits)}),
    ("tailgauge.cli", "quantile", "gpd.quantile", None),
    ("tailgauge.tail", "select_tail", "tail.select_tail",
     lambda a, r: {"exceedances": int(r.n_hat)}),
    ("tailgauge.tail", "fit_mle", "mle.fit", _fit_attrs),
    ("tailgauge.simulate", "fit", "mle.fit", _fit_attrs),
    ("tailgauge.simulate", "sample", "gpd.sample", None),
    ("tailgauge.simulate", "quantile", "gpd.quantile", None),
    ("tailgauge.simulate", "ks_test", "simulate.ks_test", None),
    ("tailgauge.simulate", "cdf_of_estimator", "density.cdf_of_estimator",
     lambda a, r: {"points": int(getattr(r, "size", 1))}),
    ("tailgauge.density", "stats", "density.stats", None),
    ("tailgauge.density", "_density_from_plan", "density.eval", None),
    ("tailgauge.density", "_integrand_matrix", "density.integrand",
     lambda a, r: {"nodes": int(r.size)}),
]


def install(rec: Recorder) -> None:
    """Wrap every TARGETS attribute that exists, and the quadrature entry."""
    for module, attr, name, attrs in TARGETS:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is not None:
            setattr(mod, attr, traced(rec, fn, name, attrs))
    density = importlib.import_module("tailgauge.density")
    if hasattr(density, "integrate_adaptive"):
        density.integrate_adaptive = traced_quadrature(rec, density.integrate_adaptive)


def child(argv: list[str]) -> int:
    spans_path, job, cli_argv = argv[0], int(argv[1]), argv[2:]
    rec = Recorder(job)
    i = rec.open("cli.import")
    cli = importlib.import_module("tailgauge.cli")
    rec.close(i)
    install(rec)
    i = rec.open("cli.main")
    try:
        return cli.main(cli_argv)
    finally:
        rec.close(i)
        rec.dump(spans_path)


def load(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(*s) for s in json.load(fh)]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# span name -> metric holding the summed self time of its spans
SELF_TIME = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "cli.read_series": "cli.read_series_s",
    "tail.select_tail": "tail.select_tail_s",
    "mle.fit": "mle.fit_s",
    "gpd.sample": "gpd.sample_s",
    "gpd.quantile": "gpd.quantile_s",
    "simulate.run": "simulate.self_s",
    "simulate.ks_test": "simulate.ks_s",
    "density.cdf_of_estimator": "density.cdf_s",
    "density.stats": "density.stats_s",
    "density.eval": "density.eval_s",
    "density.integrand": "density.integrand_s",
    "quadrature.integrate_adaptive": "quadrature.self_s",
}

# (metric, unit, better) of the traced run, in BENCHMARK.json order
PER_LAYER = [(m, "s", "lower") for m in SELF_TIME.values()] + [
    ("cli.rows", "count", "lower"),
    ("tail.exceedances", "count", "lower"),
    ("mle.fit_calls", "count", "lower"),
    ("mle.fit_ms_p50", "ms", "lower"),
    ("mle.fit_ms_p99", "ms", "lower"),
    ("mle.converged_ratio", "ratio", "higher"),
    ("mle.box_edge_hits", "count", "lower"),
    ("simulate.failed_fits", "count", "lower"),
    ("density.cdf_points", "count", "lower"),
    ("density.integrand_nodes", "count", "lower"),
    ("quadrature.calls", "count", "lower"),
    ("quadrature.rounds", "count", "lower"),
    ("quadrature.max_rel_err", "ratio", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def p99(values: list[float]) -> float:
    """The 99th percentile, or 0.0 when fewer than TAIL_SAMPLES lie beyond it."""
    if len(values) < 100 * TAIL_SAMPLES:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def layer_metrics(jobs: list[tuple[list[Span], float]], untraced_s: float) -> dict:
    """Per-layer metrics of one traced job.

    ``jobs`` holds (spans, wall seconds) of each child process of the job;
    ``untraced_s`` is the wall time of the same job without tracing.  The
    self times plus ``trace.uncovered_s`` add up to ``trace.job_s``.
    """
    m = {name: 0.0 for name, _unit, _better in PER_LAYER}
    fit_ms, fits = [], []
    for spans, _wall in jobs:
        for s, own in zip(spans, self_times(spans)):
            m[SELF_TIME[s.name]] += own
            a = s.attrs or {}
            if s.name == "mle.fit":
                fit_ms.append(1e3 * (s.end - s.start))
                fits.append(a)
            elif s.name == "quadrature.integrate_adaptive":
                m["quadrature.calls"] += 1
                m["quadrature.rounds"] += a.get("rounds", 0)
                m["quadrature.max_rel_err"] = max(m["quadrature.max_rel_err"],
                                                  a.get("rel_err", 0.0))
            m["cli.rows"] += a.get("rows", 0)
            m["tail.exceedances"] += a.get("exceedances", 0)
            m["simulate.failed_fits"] += a.get("failed_fits", 0)
            m["density.cdf_points"] += a.get("points", 0)
            m["density.integrand_nodes"] += a.get("nodes", 0)
        m["trace.spans"] += len(spans)
    m["mle.fit_calls"] = len(fits)
    m["mle.converged_ratio"] = (sum(f.get("converged", False) for f in fits)
                                / len(fits) if fits else 0.0)
    m["mle.box_edge_hits"] = sum(f.get("edge", False) for f in fits)
    m["mle.fit_ms_p50"] = statistics.median(fit_ms) if fit_ms else 0.0
    m["mle.fit_ms_p99"] = p99(fit_ms)
    m["trace.job_s"] = sum(wall for _spans, wall in jobs)
    m["trace.uncovered_s"] = m["trace.job_s"] - sum(m[k] for k in SELF_TIME.values())
    m["trace.overhead_s"] = m["trace.job_s"] - untraced_s
    return m


if __name__ == "__main__":
    sys.exit(child(sys.argv[1:]))
