"""BENCHMARK.json agrees with what the benchmark prints; inputs are seeded."""

import json
import re
from pathlib import Path

import numpy as np

import run
import tracing
import workloads

DEFINITION = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _triples(key):
    return [(m["name"], m["unit"], m["better"]) for m in DEFINITION[key]]


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in DEFINITION[key]]
    names += [w["name"] for w in DEFINITION["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_definition_matches_the_code():
    assert _triples("end_to_end") == run.END_TO_END
    assert _triples("per_layer") == tracing.PER_LAYER
    assert [w["name"] for w in DEFINITION["workloads"]] == list(workloads.WORKLOADS)


def test_seed_zero_is_the_published_grid():
    import tailgauge as tg

    n_grid, xi_grid = workloads.bias_grid(0)
    assert tuple(n_grid) == tg.DEFAULT_N_GRID
    assert tuple(xi_grid) == tg.DEFAULT_XI_GRID


def test_jittered_grids_stay_ordered_and_validated():
    for seed in range(1, 50):
        n_grid, xi_grid = workloads.bias_grid(seed)
        assert n_grid == workloads.bias_grid(seed)[0]
        assert np.all(np.diff(n_grid) > 0) and 50 <= n_grid[0] and n_grid[-1] <= 1000
        assert np.all(np.diff(xi_grid) > 0) and 0.0 <= xi_grid[0] and xi_grid[-1] <= 0.5


def test_picks_are_seeded_and_distinct():
    assert workloads.pick(3, 2000, 3, stream=10) == workloads.pick(3, 2000, 3, stream=10)
    assert len(set(workloads.pick(3, 2000, 3, stream=10))) == 3
