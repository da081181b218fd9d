"""Reported quantities and constant estimation.

`round_metrics` is the one per-point metric: from a single
`value_and_grads` call over the rows of every client, sampled or not
(exact full-batch gradients), it returns the mean value f and

    G_u  = |(1/n) sum_i grad_u f_i(u, v_i)|^2
    G_v  = (1/n) sum_i |grad_v f_i(u, v_i)|^2
    G_v_hat = (m/n) * G_v

These are per-run sample-path values of the theory's expectations; tests
average over seeds where variance matters. Constant estimation recovers the
smoothness L, the gradient dissimilarity b^2 (pointwise slack, a variance,
hence nonnegative) and the initial gap F0 feeding the step-size formulas.
All probe randomness comes from the generator the caller passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import _is_int, _row_sq_norms


@dataclass(frozen=True)
class ConstantEstimates:
    L_hat: float
    b2_hat: float
    F0: float


def round_metrics(oracle, u, v_all, m: int):
    """(f, G_u, G_v, G_v_hat) at (u, v_1..v_n) from one oracle pass.

    For R replicas on their joined oracle (`objectives.join_replicas`;
    u (R, d_u), v_all (R, n, d_v)) the pass covers all R * n clients and
    each quantity is an (R,) array whose entry r is bitwise replica r's
    value alone.
    """
    V = np.asarray(v_all)
    *lead, n, d_v = V.shape  # lead is (R,) for replicas, () for one run
    V = V.reshape(-1, d_v)
    vals, G_u, G_v = oracle.value_and_grads(np.arange(len(V)),
                                            np.repeat(u, n, axis=0) if lead else u, V)
    vals = vals.reshape(*lead, n)
    G_u, G_v = G_u.reshape(*lead, n, oracle.d_u), G_v.reshape(*lead, n, d_v)
    gbar = G_u.sum(axis=-2) / n
    g_v = np.square(G_v).sum(axis=-1).sum(axis=-1) / n
    g_u = _row_sq_norms(gbar)  # per replica, the same dot as a single run's `gbar @ gbar`
    return vals.sum(axis=-1) / n, g_u, g_v, (m / n) * g_v


def estimate_dissimilarity(oracle, u, v_all) -> float:
    """Pointwise dissimilarity slack (1/n) sum_i |grad_u f_i|^2 - |grad_u f|^2.

    By the variance identity this is nonnegative (up to roundoff); for the
    synthetic quadratic it equals (1/n) sum_i |a_i - abar|^2 at every point.
    """
    _, g, _ = oracle.value_and_grads(np.arange(oracle.n), u, v_all)
    gbar = g.mean(axis=0)
    return float(np.square(g).sum(axis=1).mean() - gbar @ gbar)


def estimate_smoothness(oracle, probe_points: int, radius: float, rng) -> float:
    """Empirical lower bound on the joint smoothness constant L.

    Samples base points x = (u, v) within `radius` of the origin and short
    displacements delta, and maximizes |grad f_i(x+delta) - grad f_i(x)| /
    |delta| over probes and clients; probe p is one two-row call on client
    p mod n at x and x + delta. The probe step is radius/1000, small
    enough to read local curvature. Raises ValueError unless probe_points
    is an int (`objectives._is_int`) >= 2 and radius is finite and > 0.
    """
    if not _is_int(probe_points):
        raise ValueError(f"probe_points must be an int, got {probe_points!r}")
    if probe_points < 2:
        raise ValueError("need at least 2 probe points")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius!r}")
    d_u, d_v = oracle.d_u, oracle.d_v
    step = radius * 1e-3
    best = 0.0
    for p in range(probe_points):
        i = p % oracle.n
        x = rng.standard_normal(d_u + d_v) * radius
        delta = rng.standard_normal(d_u + d_v)
        delta *= step / float(np.sqrt(delta @ delta))
        X = np.stack([x, x + delta])
        _, G_u, G_v = oracle.value_and_grads([i, i], X[:, :d_u], X[:, d_u:])
        diff = np.concatenate([G_u[1] - G_u[0], G_v[1] - G_v[0]])
        ratio = float(np.sqrt(diff @ diff)) / step
        if ratio > best:
            best = ratio
    return best


def estimate_initial_gap(oracle, u0, v_all0, lr: float, iters: int = 500) -> float:
    """F0 = f(u0, v0) - inf f.

    Uses the objective's exact infimum when it exposes one; otherwise runs a
    deterministic full-gradient descent (u first, then v at the new u) and
    reports f(u0, v0) minus the best value seen, an upper-bound proxy on the
    true gap. The descent steps with `lr`. Each iteration takes two oracle
    passes: the pass that values the new point also gives the next
    u-gradient.
    """
    ids = np.arange(oracle.n)
    u = np.array(u0, dtype=np.float64)
    V = np.array(v_all0, dtype=np.float64)
    vals, G_u, _ = oracle.value_and_grads(ids, u, V)
    f0 = float(vals.mean())
    if hasattr(oracle, "infimum"):
        return f0 - float(oracle.infimum())
    best = f0
    for _ in range(iters):
        u = u - lr * G_u.mean(axis=0)
        V = V - lr * oracle.value_and_grads(ids, u, V)[2]
        vals, G_u, _ = oracle.value_and_grads(ids, u, V)
        best = min(best, float(vals.mean()))
    return f0 - best


def estimate_constants(oracle, u0, v_all0, rng, probe_points: int = 120, radius: float = 1.0):
    """Bundle (L_hat, b2_hat, F0) at the given initial point; the gap
    descent steps with 0.5 / L_hat."""
    L_hat = estimate_smoothness(oracle, probe_points, radius, rng)
    return ConstantEstimates(
        L_hat=L_hat,
        b2_hat=estimate_dissimilarity(oracle, u0, v_all0),
        F0=estimate_initial_gap(oracle, u0, v_all0, lr=0.5 / max(L_hat, 1e-12)),
    )
