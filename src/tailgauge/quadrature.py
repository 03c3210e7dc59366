"""Vector-aware adaptive Gauss-Kronrod quadrature.

A 15-point Kronrod rule with its embedded 7-point Gauss rule supplies the
error estimate per panel.  Refinement is round-based: every round bisects the
panels whose error exceeds their share of the budget, and the new panels are
evaluated together, in chunks of at most ``_WORKSPACE`` integrand values.
Integrands map a node array to one value per node (scalar mode) or to a
(nodes, K) block (vector mode, K components integrated simultaneously over
the same panels).  ``adaptive_rule``, the one entry point, also hands back
the converged panels as one flat (nodes, weights) rule, for sums of other
integrands that the same panels resolve.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureError

# 15-point Kronrod nodes on [-1, 1] and weights; rows 0..6 carry the embedded
# 7-point Gauss weights, the interleaved Kronrod-only nodes have Gauss weight 0
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

KRONROD_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending
KRONROD_WEIGHTS = np.concatenate([_WK[:-1], _WK[::-1]])
_G = np.zeros(15)
_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])              # Gauss subset
GAUSS_WEIGHTS = _G

MAX_PANELS = 16384
# equal panels of the first round
_INIT_PANELS = 8
# elements of one block of integrand values: a chunk of adaptive_rule's
# panels, or of the density's u-sums.  A chunk of 32K doubles is 256 KB and
# density._erfc, in place, holds at most 6.4 arrays of that size besides
# its argument (4.3 at fig-1; tracemalloc peaks), so its few dozen
# elementwise passes stay in the 2 MB per-core L2 instead of streaming
# through DRAM, and the allocator reuses the freed arrays; at 64K it often
# hands them back to the OS and faults them in again.
# cdf_of_estimator at fig-1 (the 540-node u-rule, the 2000 points of an
# R=2000 Monte Carlo) on a 2-vCPU Xeon.  Warm in one process, median of 15:
# 4M 0.043 s, 1M 0.044, 256K 0.022, 128K 0.021, 64K 0.021, 32K 0.022, 16K
# 0.028, 4K 0.061.  Cold in a fresh process, as in the CLI, median
# [quartiles] of 20: 64K 0.060 s [0.056-0.062], 32K 0.056 s [0.054-0.061].
_WORKSPACE = 32_768


def _row_slices(rows: int, n: int):
    """Slices of ``rows`` rows of length ``n``, each of at most _WORKSPACE
    elements (one row where a row alone is longer).  Row-wise reductions
    do not depend on the other rows, so slicing changes no result."""
    step = max(1, _WORKSPACE // n)
    return (slice(i, i + step) for i in range(0, rows, step))


def panel_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(P, 15) node matrix for panels [lo_i, hi_i]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * KRONROD_NODES[None, :]


def _panel_sums(fvals: np.ndarray, half: np.ndarray):
    """Kronrod value and |K15 - G7| error per panel (and per component)."""
    # half scales the node sums afterwards: as a third einsum operand it
    # would move the last bits of every u-rule total
    k = (np.einsum("pn...,n->...p", fvals, KRONROD_WEIGHTS) * half).T
    g = (np.einsum("pn...,n->...p", fvals, GAUSS_WEIGHTS) * half).T
    return k, np.abs(k - g)


def adaptive_rule(f, lo: float, hi: float, rel_tol: float, max_rounds: int = 20):
    """Refine a composite Kronrod rule for ``f`` on [lo, hi] to ``rel_tol``.

    ``f(x)`` takes a flat node array; returns per-node values, or (nodes, K)
    for K simultaneous components, each held to ``rel_tol`` of its own total.
    Returns (integral, error_estimate, nodes, weights): the integral and
    error have the shape of one row of ``f``, and the flat ``nodes`` and
    ``weights`` are the rule of the panels it converged on, so
    ``weights @ f(nodes)`` is the integral up to rounding.  Raises
    QuadratureError when ``max_rounds + 1`` refinement rounds or MAX_PANELS
    panels do not reach the tolerance.
    """
    edges = np.linspace(lo, hi, _INIT_PANELS + 1)
    p_lo, p_hi = edges[:-1], edges[1:]
    vals, errs, step = _eval_panels(f, p_lo, p_hi, _INIT_PANELS)

    for rounds in range(max_rounds + 2):
        total = vals.sum(axis=0)
        err = errs.sum(axis=0)
        scale = np.maximum(np.abs(total), 1e-300)
        if np.all(err <= rel_tol * scale):
            weights = 0.5 * (p_hi - p_lo)[:, None] * KRONROD_WEIGHTS[None, :]
            return total, err, panel_nodes(p_lo, p_hi).ravel(), weights.ravel()
        if rounds > max_rounds:
            worst = float(np.max(err / scale))
            detail = (f"err={worst:.2e} > rel_tol={rel_tol}" if np.isfinite(worst)
                      else f"the integrand is not finite on [{lo:.6g}, {hi:.6g}]")
            raise QuadratureError(f"no convergence after {rounds} refinement rounds ({detail})")
        # bisect every panel holding more than its per-panel share of budget
        norm = (errs / scale).reshape(len(errs), -1).max(axis=1)
        bad = norm > rel_tol / len(p_lo)
        if not bad.any():
            bad[np.argmax(norm)] = True
        if len(p_lo) + bad.sum() > MAX_PANELS:
            raise QuadratureError(
                f"panel budget exhausted ({len(p_lo)} panels, "
                f"err={float(np.max(err / scale)):.2e} > rel_tol={rel_tol})")
        mid = 0.5 * (p_lo[bad] + p_hi[bad])
        p_lo = np.concatenate([p_lo[~bad], p_lo[bad], mid])
        p_hi = np.concatenate([p_hi[~bad], mid, p_hi[bad]])
        new = slice(len(p_lo) - 2 * mid.size, None)
        add_v, add_e, step = _eval_panels(f, p_lo[new], p_hi[new], step)
        vals = np.concatenate([vals[~bad], add_v])
        errs = np.concatenate([errs[~bad], add_e])


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray, step: int):
    """Kronrod values and errors of the panels [lo_i, hi_i], from ``f`` on
    ``step`` panels at a time, and the step that keeps the next chunk's
    (nodes, row) block within _WORKSPACE elements."""
    vals, errs, k = [], [], 0
    while k < lo.size:
        c = slice(k, k + step)
        nodes = panel_nodes(lo[c], hi[c])
        fv = f(nodes.ravel())
        v, e = _panel_sums(fv.reshape(nodes.shape + fv.shape[1:]), 0.5 * (hi[c] - lo[c]))
        vals.append(v)
        errs.append(e)
        k += step
        step = max(1, _WORKSPACE // (fv.size // len(nodes)))
    if len(vals) == 1:
        return vals[0], errs[0], step
    return np.concatenate(vals), np.concatenate(errs), step
