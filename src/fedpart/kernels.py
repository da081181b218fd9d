"""Local-step kernels: K simultaneous SGD steps on (u, v) for a block of
sampled clients at once, and the one regularized logistic gradient that
every logistic path uses.

All randomness is pre-drawn by the caller (noise rows / minibatch indices),
which keeps the kernels pure. Every client starts from the same shared
`u0` and its own row of `V0`; `Corr` holds one control-variate correction
c_i - c per row (zeros for the uncorrected algorithm), and the u-direction
is g - corr.

The quadratic kernel is elementwise on one fused (m, d_u + d_v) block of
(u | v) rows, with per-column step sizes and zero v-columns in Corr; x - 0.0
is exact, so its iterates are bitwise those of m per-client (u, v) loops.
Logistic shards are stored as one matrix X = [A | B] in their own dtype
(uint8 pixels for image data) with features X / scale. `logistic_grads` is
the one logistic gradient: it casts the rows it needs into a float64 buffer
and applies 1/scale once per product, not per feature. The logistic kernel
runs the clients one after another and makes the same call per step as the
per-client stochastic gradient, each reusing one buffer for its whole call,
so the two agree bitwise.
"""

from __future__ import annotations

import numpy as np


def quad_local_steps(W, C, steps, noise, Corr):
    """K steps of W -= steps * ((W - C) + noise[k] - Corr) on the fused block.

    W (m, d) is the start block, updated in place and returned; C and Corr
    are (m, d) rows, steps is (d,) and noise is (K, m, d).
    """
    G = np.empty_like(W)
    for noise_k in noise:
        np.subtract(W, C, out=G)
        G += noise_k
        G -= Corr
        G *= steps
        W -= G
    return W


def logistic_grads(X, y, scale, rows, u, v, rho, Z):
    """(margin, g_u, g_v) of the regularized logistic loss over the rows
    `rows` (an index array or slice) of a shard with features X / scale and
    labels y.

    The rows X[rows] are cast into the float64 buffer Z of their shape; A
    and B are its first d_u and last d_v columns. Loss per row:
    log(1 + exp(-y * (a.u + b.v))), averaged over the rows, plus the smooth
    non-convex regularizer rho * (|u|^2/(1+|u|^2) + |v|^2/(1+|v|^2)).
    """
    np.copyto(Z, X[rows])
    y = y[rows]
    d_u = u.shape[0]
    A, B = Z[:, :d_u], Z[:, d_u:]
    margin = y * ((A @ u + B @ v) / scale)
    # sigmoid(-margin), overflow-safe: exp only ever sees -|margin|
    t = np.exp(-np.abs(margin))
    w = -y * (np.where(margin <= 0.0, 1.0, t) / (1.0 + t))
    # gradient of s/(1+s) at s=|x|^2 is 2x/(1+|x|^2)^2
    su = np.dot(u, u)
    sv = np.dot(v, v)
    cu = 2.0 * rho / ((1.0 + su) * (1.0 + su))
    cv = 2.0 * rho / ((1.0 + sv) * (1.0 + sv))
    denom = scale * y.shape[0]
    return margin, (w @ A) / denom + cu * u, (w @ B) / denom + cv * v


def logistic_local_steps(u0, V0, shards, rho, gamma_u, gamma_v, idx, Corr, Z):
    """K minibatch steps on the regularized logistic loss, client by client.

    shards[j] = (X, y, scale) of the j-th sampled client; idx[j] has shape
    (K, batch), row k holding the shard rows of step k's batch. Every step
    casts its rows into the one float64 (batch, d_u + d_v) buffer Z.
    """
    U = np.empty_like(Corr)
    V = np.empty_like(V0)
    for j, ((X, y, scale), steps, corr_u) in enumerate(zip(shards, idx, Corr)):
        u = u0
        v = V0[j]
        for r in steps:
            _, g_u, g_v = logistic_grads(X, y, scale, r, u, v, rho, Z)
            u = u - gamma_u * (g_u - corr_u)
            v = v - gamma_v * g_v
        U[j] = u
        V[j] = v
    return U, V
