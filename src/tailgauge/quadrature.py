"""Vector-aware adaptive Gauss-Kronrod quadrature over a batch of intervals.

A 15-point Kronrod rule with its embedded 7-point Gauss rule supplies the
error estimate per panel.  Refinement is round-based: every round bisects the
panels whose error exceeds their share of their interval's budget, and the
new panels of every interval are evaluated together, in chunks of at most
``_WORKSPACE`` integrand values.  Integrands map a node array to one value
per node (scalar mode) or to a (nodes, K) block (vector mode, K components
integrated simultaneously over the same panels).  ``adaptive_rule``, the one
entry point, refines a batch of intervals side by side, each to its own
tolerance, round cap and panel budget.  Every interval's panels stay in one
state to the last round, and one that converges or fails is split no more;
then each interval's panels are cut into one flat (nodes, weights) rule, for
sums of other integrands that the same panels resolve.  An interval's rule
and totals do not depend on the rest of its batch.
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
# density._erfc holds about eight arrays of that size at once, so its ~30
# elementwise passes stay in the 2 MB per-core L2 instead of streaming
# through DRAM, and the allocator reuses the freed arrays; at 64K it often
# hands them back to the OS and faults them in again.
# cdf_of_estimator at fig-1 (960 u-nodes, the 2000 points of an R=2000
# Monte Carlo) on a 2-vCPU Xeon.  Warm in one process, median of 15: 4M
# 0.148 s, 1M 0.123, 256K 0.090, 128K 0.078, 64K 0.076, 32K 0.085, 16K
# 0.092, 4K 0.171.  Cold in a fresh process, as in the CLI, median
# [quartiles] of 20: 64K 0.102 s [0.079-0.137], 32K 0.084 s [0.073-0.090].
_WORKSPACE = 32_768


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


def adaptive_rule(f, lo, hi, rel_tol: float, max_rounds: int = 20):
    """Refine a composite Kronrod rule for ``f`` on each [lo, hi] to ``rel_tol``.

    ``lo`` and ``hi`` are floats, or arrays of B intervals refined side by
    side.  ``f(x, cell)`` takes a flat node array and the index of each
    node's interval; it returns per-node values, or (nodes, K) for K
    simultaneous components, each held to ``rel_tol`` of its interval's own
    total.  Returns (integral, error_estimate, nodes, weights): the integral
    and error have the shape of one row of ``f``, and the flat ``nodes`` and
    ``weights`` are the rule of the panels it converged on, so
    ``weights @ f(nodes)`` is the integral up to rounding.  For arrays the
    integral and error gain a leading axis of B, and nodes and weights are
    lists of B rules.  Raises QuadratureError when ``max_rounds + 1``
    refinement rounds or MAX_PANELS panels of an interval do not reach the
    tolerance; its ``index`` is the first such interval of the batch.
    """
    lo_b = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_b = np.atleast_1d(np.asarray(hi, dtype=float))
    if not lo_b.size:   # an empty batch
        return np.empty(0), np.empty(0), [], []
    # np.linspace's edges, interval by interval: a batched np.linspace
    # rescales every interval once one of them has a zero step
    edges = (np.arange(_INIT_PANELS + 1.0) * ((hi_b - lo_b) / _INIT_PANELS)[:, None]
             + lo_b[:, None])
    edges[:, -1] = hi_b
    # the panels of every interval, converged and failed ones too, grouped by
    # interval ``owner`` in the order that refining it alone would leave them
    p_lo, p_hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    owner = np.arange(lo_b.size).repeat(_INIT_PANELS)
    vals, errs, step = _eval_panels(f, p_lo, p_hi, owner, _INIT_PANELS)
    failed, failures = np.zeros(lo_b.size, dtype=bool), {}

    rounds = 0
    while True:
        count = np.bincount(owner)
        first = count.cumsum() - count
        total = np.add.reduceat(vals, first, axis=0)
        err = np.add.reduceat(errs, first, axis=0)
        scale = np.maximum(np.abs(total), 1e-300)
        live = ~failed & ~(err <= rel_tol * scale).reshape(lo_b.size, -1).all(axis=1)
        if not live.any():
            break
        if rounds > max_rounds:
            for i in np.flatnonzero(live).tolist():
                worst = float(np.max(err[i] / scale[i]))
                detail = (f"err={worst:.2e} > rel_tol={rel_tol}" if np.isfinite(worst)
                          else f"the integrand is not finite on "
                               f"[{lo_b[i]:.6g}, {hi_b[i]:.6g}]")
                failures[i] = (f"no convergence after {rounds} refinement rounds "
                               f"({detail})")
            break
        # bisect every live panel holding more than its per-panel share of budget
        norm = (errs / scale.repeat(count, axis=0)).reshape(len(errs), -1).max(axis=1)
        bad = (norm > (rel_tol / count).repeat(count)) & live.repeat(count)
        split = np.add.reduceat(bad, first, dtype=np.intp)
        for i in np.flatnonzero(live & (split == 0)):   # np.argmax's panel instead
            bad[first[i] + np.argmax(norm[first[i]:first[i] + count[i]])] = True
            split[i] = 1
        for i in np.flatnonzero(count + split > MAX_PANELS).tolist():   # fail unsplit
            failures[i] = (
                f"panel budget exhausted ({count[i]} panels, "
                f"err={float(np.max(err[i] / scale[i])):.2e} > rel_tol={rel_tol})")
            failed[i] = True
            bad[first[i]:first[i] + count[i]] = False
        if not bad.any():   # every live interval failed this round
            break
        kept = ~bad
        vals, errs = vals.compress(kept, axis=0), errs.compress(kept, axis=0)
        mid = 0.5 * (p_lo[bad] + p_hi[bad])
        p_lo = np.concatenate([p_lo[kept], p_lo[bad], mid])
        p_hi = np.concatenate([p_hi[kept], mid, p_hi[bad]])
        owner = np.concatenate([owner[kept], owner[bad], owner[bad]])
        add_v, add_e, step = _eval_panels(f, p_lo[len(vals):], p_hi[len(vals):],
                                          owner[len(vals):], step)
        vals = np.concatenate([vals, add_v])
        errs = np.concatenate([errs, add_e])
        del add_v, add_e   # not held through the next round's evaluation
        # regroup by interval: kept panels, left halves, right halves
        order = np.argsort(owner, kind="stable")
        p_lo, p_hi, owner = p_lo[order], p_hi[order], owner[order]
        vals = vals[order]   # one at a time: one spare copy of the state
        errs = errs[order]
        rounds += 1

    if failures:
        first_failure = min(failures)
        raise QuadratureError(failures[first_failure], index=first_failure)
    nodes, weights = zip(*_rules(p_lo, p_hi, count))
    if np.ndim(lo) == 0:
        return total[0], err[0], nodes[0], weights[0]
    return total, err, list(nodes), list(weights)


def _rules(lo: np.ndarray, hi: np.ndarray, count: np.ndarray) -> list:
    """The flat (nodes, weights) Kronrod rule of each run of ``count``
    panels [lo_i, hi_i]."""
    nodes = panel_nodes(lo, hi).ravel()
    weights = (0.5 * (hi - lo)[:, None] * KRONROD_WEIGHTS[None, :]).ravel()
    ends = count.cumsum() * KRONROD_NODES.size
    return [(nodes[a:b], weights[a:b])
            for a, b in zip((ends - count * KRONROD_NODES.size).tolist(), ends.tolist())]


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray, cell: np.ndarray, step: int):
    """Kronrod values and errors of the panels [lo_i, hi_i] of the intervals
    ``cell``, from ``f`` on ``step`` panels at a time, and the step that
    keeps the next chunk's (nodes, row) block within _WORKSPACE elements."""
    vals, errs, k = [], [], 0
    while k < lo.size:
        c = slice(k, k + step)
        nodes = panel_nodes(lo[c], hi[c])
        fv = f(nodes.ravel(), cell[c].repeat(KRONROD_NODES.size))
        v, e = _panel_sums(fv.reshape(nodes.shape + fv.shape[1:]), 0.5 * (hi[c] - lo[c]))
        vals.append(v)
        errs.append(e)
        k += step
        step = max(1, _WORKSPACE // (fv.size // len(nodes)))
    if len(vals) == 1:
        return vals[0], errs[0], step
    return np.concatenate(vals), np.concatenate(errs), step
