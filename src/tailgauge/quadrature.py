"""Vector-aware adaptive Gauss-Kronrod quadrature.

A 15-point Kronrod rule with its embedded 7-point Gauss rule supplies the
error estimate per panel.  Refinement is round-based: every round bisects the
panels whose error exceeds their share of the budget, and all new panels are
evaluated in one batched call.  Integrands map a node array to one value per
node (scalar mode) or to a (nodes, K) block (vector mode, K components
integrated simultaneously over the same panels).  ``adaptive_rule`` also
hands back the converged panels as one flat (nodes, weights) rule, for sums
of other integrands that the same panels resolve.
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


def panel_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(P, 15) node matrix for panels [lo_i, hi_i]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * KRONROD_NODES[None, :]


def _panel_sums(fvals: np.ndarray, half: np.ndarray):
    """Kronrod value and |K15 - G7| error per panel (and per component)."""
    if fvals.ndim == 2:     # (P, 15) scalar integrand
        k = (fvals @ KRONROD_WEIGHTS) * half
        g = (fvals @ GAUSS_WEIGHTS) * half
        return k, np.abs(k - g)
    k = np.einsum("pnk,n->pk", fvals, KRONROD_WEIGHTS) * half[:, None]
    g = np.einsum("pnk,n->pk", fvals, GAUSS_WEIGHTS) * half[:, None]
    return k, np.abs(k - g)


def adaptive_rule(f, lo: float, hi: float, rel_tol: float,
                  max_rounds: int = 20):
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
    edges_lo = np.linspace(lo, hi, _INIT_PANELS + 1)[:-1]
    edges_hi = np.linspace(lo, hi, _INIT_PANELS + 1)[1:]
    vals, errs = _eval_panels(f, edges_lo, edges_hi)

    for rounds in range(max_rounds + 2):
        total = vals.sum(axis=0)
        err = errs.sum(axis=0)
        scale = np.maximum(np.abs(total), 1e-300)
        if np.all(err <= rel_tol * scale):
            weights = 0.5 * (edges_hi - edges_lo)[:, None] * KRONROD_WEIGHTS[None, :]
            return total, err, panel_nodes(edges_lo, edges_hi).ravel(), weights.ravel()
        if rounds > max_rounds:
            raise QuadratureError(
                f"no convergence after {rounds} refinement rounds "
                f"(err={float(np.max(err / scale)):.2e} > rel_tol={rel_tol})")
        # bisect every panel holding more than its per-panel share of budget
        norm = (errs / scale).max(axis=-1) if errs.ndim == 2 else errs / scale
        bad = norm > rel_tol / len(edges_lo)
        if not bad.any():
            bad[np.argmax(norm)] = True
        if len(edges_lo) + bad.sum() > MAX_PANELS:
            raise QuadratureError(
                f"panel budget exhausted ({len(edges_lo)} panels, "
                f"err={float(np.max(err / scale)):.2e} > rel_tol={rel_tol})")
        mid = 0.5 * (edges_lo[bad] + edges_hi[bad])
        new_lo = np.concatenate([edges_lo[~bad], edges_lo[bad], mid])
        new_hi = np.concatenate([edges_hi[~bad], mid, edges_hi[bad]])
        keep_v, keep_e = vals[~bad], errs[~bad]
        add_v, add_e = _eval_panels(f, new_lo[len(keep_v):], new_hi[len(keep_v):])
        vals = np.concatenate([keep_v, add_v])
        errs = np.concatenate([keep_e, add_e])
        edges_lo, edges_hi = new_lo, new_hi


def integrate_adaptive(f, lo: float, hi: float, rel_tol: float,
                       max_rounds: int = 20):
    """(integral, error_estimate) of ``adaptive_rule``, without its rule."""
    total, err, _nodes, _weights = adaptive_rule(f, lo, hi, rel_tol, max_rounds)
    return total, err


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray):
    half = 0.5 * (hi - lo)
    nodes = panel_nodes(lo, hi)
    fv = f(nodes.ravel())
    if fv.ndim == 1:
        fv = fv.reshape(nodes.shape)
    else:
        fv = fv.reshape(nodes.shape + (fv.shape[-1],))
    return _panel_sums(fv, half)
