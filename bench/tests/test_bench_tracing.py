"""Span bookkeeping: self time, per-layer aggregation and the wrappers."""

import math

import pytest

import tracing
from tracing import Span


def _span(name, start, end, parent=-1, attrs=None):
    return Span(name, start, end, parent, 0, attrs)


def test_self_time_subtracts_covered_part_once():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("mle.fit", 1.0, 3.0, 0),
        _span("mle.fit", 2.0, 4.0, 0),      # overlaps its sibling
        _span("density.stats", 5.0, 6.0, 0),
        _span("density.integrand", 5.2, 5.5, 3),
        _span("gpd.sample", 9.5, 11.0, 0),  # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 2.0, 2.0, 0.7, 0.3, 1.5])


def test_layer_metrics_account_for_job_time():
    fits = [_span("mle.fit", 1.0 + i, 1.5 + i, 1, {"converged": i != 2, "edge": i == 1})
            for i in range(3)]
    spans = [_span("cli.import", 0.0, 0.5),
             _span("cli.main", 0.5, 9.0),
             *fits,
             _span("quadrature.integrate_adaptive", 5.0, 6.0, 1,
                   {"rounds": 4, "rel_err": 2e-7}),
             _span("density.integrand", 5.1, 5.6, 5, {"nodes": 300})]
    m = tracing.layer_metrics([(spans, 9.25)], untraced_s=9.0)
    self_total = sum(m[name] for name in tracing.SELF_TIME.values())
    assert self_total + m["trace.uncovered_s"] == pytest.approx(m["trace.job_s"])
    assert m["trace.uncovered_s"] == pytest.approx(0.25)
    assert m["trace.overhead_s"] == pytest.approx(0.25)
    assert m["cli.self_s"] == pytest.approx(8.5 - 1.5 - 1.0)
    assert m["quadrature.self_s"] == pytest.approx(0.5)
    assert m["mle.fit_calls"] == 3
    assert m["mle.fit_ms_p50"] == pytest.approx(500.0)
    assert m["mle.fit_ms_p99"] == 0.0  # fewer than ten fits beyond the 99th
    assert m["mle.converged_ratio"] == pytest.approx(2 / 3)
    assert m["mle.box_edge_hits"] == 1
    assert (m["quadrature.calls"], m["quadrature.rounds"]) == (1, 4)
    assert m["density.integrand_nodes"] == 300
    assert set(m) == {name for name, _unit, _better in tracing.PER_LAYER}


def test_p99_needs_ten_samples_beyond_it():
    assert tracing.p99([1.0] * 999) == 0.0
    values = [float(i) for i in range(1000)]
    assert tracing.p99(values) == pytest.approx(989.01)


def test_wrappers_nest_annotate_and_close_on_error():
    rec = tracing.Recorder(job=7)

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    traced_inner = tracing.traced(rec, inner, "gpd.sample", lambda a, r: {"nodes": len(r)})
    traced_outer = tracing.traced(rec, lambda x: traced_inner(x), "simulate.run")
    assert traced_outer(3) == [3, 3, 3]
    with pytest.raises(ValueError):
        traced_inner(-1)
    spans = [Span(*s) for s in rec.spans]
    assert [(s.name, s.parent, s.job) for s in spans] == [
        ("simulate.run", -1, 7), ("gpd.sample", 0, 7), ("gpd.sample", -1, 7)]
    assert spans[1].attrs == {"nodes": 3}
    assert spans[2].attrs is None
    assert all(s.end >= s.start for s in spans)


def test_quadrature_wrapper_counts_rounds_and_error():
    import numpy as np

    rec = tracing.Recorder(job=0)

    def integrate(f, lo, hi):
        for _ in range(3):
            f(np.linspace(lo, hi, 5))
        return np.array([2.0, 4.0]), np.array([2e-6, 1e-6])

    tracing.traced_quadrature(rec, integrate)(np.sin, 0.0, 1.0)
    attrs = rec.spans[0][5]
    assert attrs["rounds"] == 2
    assert math.isclose(attrs["rel_err"], 1e-6)
