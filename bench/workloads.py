"""Seeded inputs and CLI invocations of the benchmark workloads.

Everything here runs before the timed region.  The same seed gives the same
inputs; the CLI receives only what is generated here.

- ``mc_validate``: the Monte Carlo validation experiment (Figure 1 of the
  paper) at R = 2000.  The per-replication MLE is the hot path, plus one
  cold CDF for the KS test.  One item is one replication.
- ``bias_surface``: the 20 x 6 (n, xi) bias/variance surface the bias law is
  fitted to.  It is the moment route (u-schedule, z-window, adaptive
  quadrature) and never calls the MLE.  One item is one surface cell.
- ``tail_fit``: ``fit`` on three loss series of 1e6 rows: a few large MLE
  fits instead of many small ones, and the only job that parses input.
  One item is one input row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHA = "0.999"

MC_N = 100
MC_XI = 0.25
MC_REPLICATIONS = 2000

# published table grid: 20 log-spaced n in [50, 1000], xi in 0.1 steps
GRID_N_RANGE = (50, 1000)
GRID_N_COUNT = 20
GRID_XI = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
# jitter stays well inside half a grid step, so the grid keeps its order
GRID_LOG_N_JITTER = 0.25 * np.log(GRID_N_RANGE[1] / GRID_N_RANGE[0]) / (GRID_N_COUNT - 1)
GRID_XI_JITTER = 0.02

TAIL_ROWS = 1_000_000
TAIL_FRACTION = 0.1


@dataclass(frozen=True)
class Invocation:
    """One ``python -m tailgauge.cli`` call and the file it writes."""

    argv: tuple[str, ...]
    out: Path


@dataclass
class Workload:
    """A job (one or more CLI invocations) and the inputs its checks need."""

    name: str
    seed: int
    items: int
    invocations: list[Invocation]
    inputs: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def pick(seed: int, population: int, count: int, stream: int) -> list[int]:
    """Seed-chosen distinct indices in [0, population), for spot checks."""
    return sorted(int(i) for i in _rng(seed, stream).choice(population, count, replace=False))


def bias_grid(seed: int) -> tuple[list[int], list[float]]:
    """The published grid for seed 0, a jittered copy of it otherwise."""
    n = np.geomspace(*GRID_N_RANGE, GRID_N_COUNT)
    xi = np.array(GRID_XI)
    if seed != 0:
        rng = _rng(seed, 1)
        n = n * np.exp(rng.uniform(-GRID_LOG_N_JITTER, GRID_LOG_N_JITTER, n.size))
        xi = xi + rng.uniform(-GRID_XI_JITTER, GRID_XI_JITTER, xi.size)
    n_grid = [int(v) for v in np.clip(np.rint(n), *GRID_N_RANGE)]
    xi_grid = [float(v) for v in np.clip(np.round(xi, 6), 0.0, 0.5)]
    return n_grid, xi_grid


def tail_series(seed: int) -> dict[str, np.ndarray]:
    """Three loss series: heavy (t3), edge-of-region (Lomax 2), bounded (Beta)."""
    return {
        "student_t3": _rng(seed, 2).standard_t(3.0, TAIL_ROWS),
        "lomax2": _rng(seed, 3).pareto(2.0, TAIL_ROWS),
        "beta23": 100.0 * _rng(seed, 4).beta(2.0, 3.0, TAIL_ROWS),
    }


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` under ``workdir``."""
    if name == "mc_validate":
        out = workdir / "simulate.json"
        argv = ("simulate", "--n", str(MC_N), "--xi", repr(MC_XI),
                "--alpha", ALPHA, "--sigma", "1", "--replications",
                str(MC_REPLICATIONS), "--seed", str(seed), "--out", str(out))
        return Workload(name, seed, MC_REPLICATIONS, [Invocation(argv, out)])
    if name == "bias_surface":
        n_grid, xi_grid = bias_grid(seed)
        out = workdir / "surface.csv"
        argv = ("bias-table", "--grid-n", ",".join(map(str, n_grid)),
                "--grid-xi", ",".join(map(repr, xi_grid)),
                "--alpha", ALPHA, "--sigma", "1", "--out", str(out))
        return Workload(name, seed, len(n_grid) * len(xi_grid),
                        [Invocation(argv, out)],
                        {"n_grid": n_grid, "xi_grid": xi_grid})
    if name == "tail_fit":
        series = tail_series(seed)
        invocations = []
        for label, values in series.items():
            path = workdir / f"{label}.csv"
            # repr round-trips exactly, so the CLI parses the same doubles
            path.write_text("\n".join(map(repr, values.tolist())) + "\n",
                            encoding="utf-8")
            out = workdir / f"{label}.json"
            argv = ("fit", str(path), "--alpha", ALPHA,
                    "--tail-fraction", repr(TAIL_FRACTION), "--out", str(out))
            invocations.append(Invocation(argv, out))
        return Workload(name, seed, sum(v.size for v in series.values()),
                        invocations, {"series": series})
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_validate", "bias_surface", "tail_fit")
