"""Local-step kernels: K simultaneous SGD steps on (u, v) for a block of
sampled clients at once, and the one regularized logistic gradient that
every logistic path uses.

All randomness is pre-drawn by the caller (noise rows / minibatch indices),
which keeps the kernels pure. Every client starts from its own row of `V0`
and from `u0`, one shared start or one row per client; `Corr` holds one
control-variate correction c_i - c per row (zeros for the uncorrected
algorithm), and the u-direction is g - corr.

The quadratic kernel is elementwise on one fused (m, d_u + d_v) block of
(u | v) rows, with per-column step sizes and zero v-columns in Corr; x - 0.0
is exact, so its iterates are bitwise those of m per-client (u, v) loops.

Logistic shards are stored as one matrix X = [A | B] in their own dtype
(uint8 pixels for image data) with features X / scale. `logistic_grads` is
the one logistic gradient routine: it casts the rows it reads into a float64
buffer, applies 1/scale once per product, not per feature, and returns the
unscaled backward products w @ A and w @ B; `logistic_finish` turns summed
products into gradients. A minibatch is one call; the full-batch pass
(`logistic_full_batch`) casts a shard `_CHUNK_ROWS` rows at a time, sums
products and loss terms over the chunks and adds the regularizer's value
and gradients. All of them work in the arrays of one `LogisticWork`,
allocated once per call and reused by every step, chunk and client of it.

Numeric contract: the logistic kernel runs the clients one after another
and makes the same calls per step as a row of `stoch_grads`, with the
same IEEE operations in the same order as the float64 loop in
`tests/reference.py`, so on float shards (scale 1.0) local-step iterates and
stochastic gradients equal that loop bitwise. The full-batch sums over
chunks add in another order than one product over all rows, so full-batch
values and gradients match the loop within rtol 1e-12 and atol 1e-14, and a
shard of at most `_CHUNK_ROWS` rows is one chunk.
"""

from __future__ import annotations

import numpy as np

# shard rows cast per full-batch chunk: 128 x 784 float64 rows are 784 KiB,
# so a chunk's four products read it from a 2 MiB L2 cache
_CHUNK_ROWS = 128


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


class LogisticWork:
    """The arrays one logistic call works in, for batches of up to `rows`
    shard rows (`_CHUNK_ROWS` by default) of features in `dtype`."""

    def __init__(self, d_u, d_v, dtype, rows=_CHUNK_ROWS):
        self.gather = np.empty((rows, d_u + d_v), dtype)  # index rows, as stored
        self.Z = np.empty((rows, d_u + d_v))  # the same rows cast to float64
        self.y = np.empty(rows)
        self.margin = np.empty(rows)
        self.t = np.empty(rows)
        self.w = np.empty(rows)
        self.le = np.empty(rows, dtype=bool)
        self.P_u = np.empty(d_u)
        self.P_v = np.empty(d_v)
        self.tmp_u = np.empty(d_u)
        self.tmp_v = np.empty(d_v)


def logistic_grads(X, y, scale, rows, u, v, work):
    """(margin, w @ A, w @ B) of the logistic loss over the rows `rows` (an
    index array or a slice) of a shard with features X / scale and labels y,
    as views into `work` that the next call overwrites.

    The rows are cast into work.Z; A and B are its first d_u and last d_v
    columns. Per row the loss is log(1 + exp(-margin)) with margin
    y * (a.u + b.v), and w is its derivative in a.u + b.v.
    """
    if isinstance(rows, slice):
        src, y = X[rows], y[rows]
    else:
        # drawn rows are in range; "clip" lets take write straight into `out`
        src = np.take(X, rows, axis=0, out=work.gather[: rows.shape[0]], mode="clip")
        y = np.take(y, rows, out=work.y[: rows.shape[0]], mode="clip")
    k = src.shape[0]
    Z, margin, t, w, le = work.Z[:k], work.margin[:k], work.t[:k], work.w[:k], work.le[:k]
    np.copyto(Z, src)
    d_u = u.shape[0]
    A, B = Z[:, :d_u], Z[:, d_u:]
    # margin = y * ((A @ u + B @ v) / scale)
    np.matmul(A, u, out=margin)
    margin += np.matmul(B, v, out=t)
    margin /= scale
    margin *= y
    # sigmoid(-margin), overflow-safe: exp only ever sees -|margin|
    np.exp(np.negative(np.abs(margin, out=t), out=t), out=t)
    # w = -y * (where(margin <= 0, 1, t) / (1 + t))
    np.add(t, 1.0, out=w)
    np.copyto(t, 1.0, where=np.less_equal(margin, 0.0, out=le))
    t /= w
    np.negative(y, out=w)
    w *= t
    return margin, np.matmul(w, A, out=work.P_u), np.matmul(w, B, out=work.P_v)


def logistic_finish(P_u, P_v, denom, u, v, rho, work):
    """Turn the summed products P_u = w @ A and P_v = w @ B over `rows`
    rows into the gradients, in place: P / denom with denom = scale * rows,
    plus the gradient of the smooth non-convex regularizer
    rho * (|u|^2/(1+|u|^2) + |v|^2/(1+|v|^2))."""
    # gradient of s/(1+s) at s=|x|^2 is 2x/(1+|x|^2)^2
    for P, x, tmp in ((P_u, u, work.tmp_u), (P_v, v, work.tmp_v)):
        s = np.dot(x, x)
        P /= denom
        P += np.multiply(x, 2.0 * rho / ((1.0 + s) * (1.0 + s)), out=tmp)


def logistic_full_batch(X, y, scale, u, v, rho, work):
    """(value, g_u, g_v) of a shard's regularized loss: the mean loss over
    every row (see `logistic_grads`) plus rho * (|u|^2/(1+|u|^2) +
    |v|^2/(1+|v|^2)), and its gradients.

    The rows are cast `_CHUNK_ROWS` at a time into work.Z; the products
    and loss terms are summed over the chunks.
    """
    g_u, g_v = np.zeros(u.shape), np.zeros(v.shape)
    loss = 0.0
    rows = y.shape[0]
    for start in range(0, rows, _CHUNK_ROWS):
        margin, P_u, P_v = logistic_grads(X, y, scale, slice(start, start + _CHUNK_ROWS),
                                          u, v, work)
        g_u += P_u
        g_v += P_v
        loss += float(np.logaddexp(0.0, np.negative(margin, out=margin), out=margin).sum())
    logistic_finish(g_u, g_v, scale * rows, u, v, rho, work)
    su, sv = float(u @ u), float(v @ v)
    return loss / rows + rho * (su / (1.0 + su) + sv / (1.0 + sv)), g_u, g_v


def logistic_local_steps(u0, V0, shards, rho, gamma_u, gamma_v, idx, Corr, work):
    """K minibatch steps on the regularized logistic loss, client by client.

    shards[j] = (X, y, scale) of the j-th sampled client; idx[j] has shape
    (K, batch), row k holding the shard rows of step k's batch. Every step
    works in the arrays of `work` and updates its client's rows of the
    returned (U, V) in place.
    """
    U = np.empty_like(Corr)
    U[:] = u0
    V = np.empty_like(V0)
    for (X, y, scale), steps, corr_u, u, v, v0 in zip(shards, idx, Corr, U, V, V0):
        v[:] = v0
        denom = scale * steps.shape[1]
        for r in steps:
            _, g_u, g_v = logistic_grads(X, y, scale, r, u, v, work)
            logistic_finish(g_u, g_v, denom, u, v, rho, work)
            # u = u - gamma_u * (g_u - corr_u), v = v - gamma_v * g_v
            g_u -= corr_u
            g_u *= gamma_u
            u -= g_u
            g_v *= gamma_v
            v -= g_v
    return U, V
