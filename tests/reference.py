"""Straightforward reference implementations the package's fast paths are
compared against. None of this runs in the package itself."""

import numpy as np

from fedpart import dataio
from fedpart.dataio import ClientShard
from fedpart.rng import stream


def stoch_grad(oracle, i, u, v, rng):
    """One stochastic gradient (g_u, g_v) at (u, v): row 0 of a one-draw
    `stoch_grads` block."""
    g_u, g_v = oracle.stoch_grads(i, u, v, 1, rng)
    return g_u[0], g_v[0]


def local_steps(oracle, i, u0, v0, K, gamma_u, gamma_v, rng, corr_u=None):
    """K simultaneous SGD steps on (u, v) for client i, one `stoch_grad`
    draw per step.

    Both gradients of each step are evaluated at the same (u_k, v_k) and the
    same draw. The u-direction is g_u - corr_u when a control-variate
    correction is given.
    """
    u = u0.copy()
    v = v0.copy()
    for _ in range(K):
        g_u, g_v = stoch_grad(oracle, i, u, v, rng)
        if corr_u is not None:
            g_u = g_u - corr_u
        u = u - gamma_u * g_u
        v = v - gamma_v * g_v
    return u, v


def fedsim(oracle, hp, seed, T):
    """Straight-line FedSim: sample, K plain SGD steps, plain averaging
    (eta_u = eta_v = 1), written without the fedcore round machinery."""
    u = np.zeros(oracle.d_u)
    v = [np.zeros(oracle.d_v) for _ in range(oracle.n)]
    for t in range(T):
        g = stream(seed, "sample", t)
        idx = np.arange(oracle.n)
        for j in range(hp.m):
            r = int(g.integers(j, oracle.n))
            idx[j], idx[r] = idx[r], idx[j]
        ids = np.sort(idx[: hp.m])
        new_u = []
        for i in ids:
            i = int(i)
            rng = stream(seed, "local", t, i)
            uu = u.copy()
            vv = v[i].copy()
            for _ in range(hp.K):
                gu, gv = stoch_grad(oracle, i, uu, vv, rng)
                uu = uu - hp.gamma_u * gu
                vv = vv - hp.gamma_v * gv
            new_u.append(uu)
            v[i] = vv
        u = np.sum(new_u, axis=0) / hp.m
    return u, v


def logistic_grads(A, B, y, u, v, rho):
    """(margin, g_u, g_v) of the regularized logistic loss over float64 rows
    (A, B, y), each block read as given: the package's gradient before
    shards kept their stored dtype and a scale."""
    margin = y * (A @ u + B @ v)
    t = np.exp(-np.abs(margin))
    w = -y * (np.where(margin <= 0.0, 1.0, t) / (1.0 + t))
    su = np.dot(u, u)
    sv = np.dot(v, v)
    cu = 2.0 * rho / ((1.0 + su) * (1.0 + su))
    cv = 2.0 * rho / ((1.0 + sv) * (1.0 + sv))
    rows = y.shape[0]
    return margin, (w @ A) / rows + cu * u, (w @ B) / rows + cv * v


def logistic_local_steps(u0, V0, shards, rho, gamma_u, gamma_v, idx, Corr):
    """K minibatch steps per client on float64 shards[j] = (A, B, y),
    gathering A[r] and B[r] separately per step; idx[j] (K, batch) holds
    client j's batch rows and Corr[j] its u-correction."""
    U = np.empty_like(Corr)
    V = np.empty_like(V0)
    for j, ((A, B, y), steps, corr_u) in enumerate(zip(shards, idx, Corr)):
        u = u0
        v = V0[j]
        for r in steps:
            _, g_u, g_v = logistic_grads(A[r], B[r], y[r], u, v, rho)
            u = u - gamma_u * (g_u - corr_u)
            v = v - gamma_v * g_v
        U[j] = u
        V[j] = v
    return U, V


def capped_shards(pixels, labels, n, scheme, seed, d_u, d_v, cap):
    """Client shards built the way the loader used to: scale the whole
    corpus to float64, copy every row into uncapped shards, then copy each
    shard's first `cap` rows again."""
    images = pixels.astype(np.float64) / 255.0
    if scheme == "iid":
        order = stream(seed, "partition").permutation(labels.shape[0])
    else:
        order = np.argsort(labels, kind="stable")
    y_all = dataio.binarize_labels(labels).astype(np.float64)
    a_all, b_all = images[:, :d_u], images[:, d_u:]
    base, rem = divmod(labels.shape[0], n)
    shards = []
    start = 0
    for i in range(n):
        size = base + 1 if i < rem else base
        rows = order[start : start + size]
        start += size
        A = np.ascontiguousarray(a_all[rows])
        B = np.ascontiguousarray(b_all[rows])
        y = y_all[rows]
        if size > cap:
            A, B, y = A[:cap].copy(), B[:cap].copy(), y[:cap].copy()
        shards.append(ClientShard(client_id=i + 1, X=np.hstack([A, B]), y=y, d_u=A.shape[1]))
    return shards
