"""Objectives over a shared variable u and per-client personal variables v_i.

The global objective is f(u, v) = (1/n) * sum_i f_i(u, v_i). An oracle
has three methods, each over N client rows: `ids` names the client of each
row (in any order, repeats allowed), U is one (d_u,) start for every row
or one (N, d_u) row per id, and V one (N, d_v) row per id.

- `value_and_grads` gives each row's exact value and both gradients: the
  full-batch metrics over all n clients and the smoothness probes.
- `stoch_grads` gives each row K stochastic gradients realizing K draws of
  (grad_u F, grad_v F)(u, v_i; xi), row j from generator rngs[j]:
  Scaffold-P's start of the control variates.
- `local_steps` runs K local SGD steps of each row, row j from rngs[j],
  with the u-direction g_u - Corr[j] (Corr one (N, d_u) row per id):
  a round's sampled clients in one call.

Every method raises ValueError naming ids when one lies outside [0, n),
U, V or Corr when one has the wrong shape, and rngs when it does not hold
one generator per row. Two concrete objectives are provided:

- QuadraticObjective: f_i = 0.5*|u - a_i|^2 + 0.5*|v_i - b_i|^2 with
  Gaussian gradient noise of exactly controllable second moment. Its
  curvature (L = 1), gradient dissimilarity b^2 and infimum are known in
  closed form, which makes step-size theory testable against ground truth.
- LogisticObjective: per-shard mean of log(1 + exp(-c * (a.u + b.v)))
  plus a smooth non-convex regularizer
  rho * (|u|^2/(1+|u|^2) + |v|^2/(1+|v|^2)).

The quadratic stores its centers once, as the fused float64 (n, d_u + d_v)
block of (a_i | b_i) rows; `centers_u` and `centers_v` are column views of
it. Its local steps run elementwise on one fused (N, d_u + d_v) block of
(u | v) rows against the gathered center rows, with per-column step sizes
and zero v-columns in the correction; x - 0.0 is exact, so its iterates
are bitwise those of N per-client (u, v) loops.

Logistic shards are stored as one matrix X in their own dtype (uint8
pixels for image data, `dataio.ClientShard`) with features X / scale. The
split is the objective's alone: `LogisticObjective(shards, d_u)` makes the
first d_u columns the shared features A and the rest the personal
features B, X = [A | B]. `logistic_grads` is the one logistic gradient
routine: it casts the rows it reads to float64, applies 1/scale once per
product, not per feature, and returns the unscaled backward products
w @ A and w @ B; `logistic_finish` turns summed products into gradients.
A minibatch is one call; the full-batch pass (`logistic_full_batch`) casts
a shard `_CHUNK_ROWS` rows at a time, sums products and loss terms over the
chunks and adds the regularizer's value and gradients. `stoch_grads` and
`local_steps` take their minibatch gradients from one per-row loop, so a
row's local steps draw its generator and compute each gradient exactly as
a K-draw `stoch_grads` row.

Numeric contract of the logistic objective, against the float64 loop in
`tests/reference.py`: the rows of a call run one after another, and each
minibatch gradient takes the same IEEE operations in the same order as
that loop, so on float shards (scale 1.0) local-step iterates and
stochastic gradients equal it bitwise. The full-batch sums over chunks add
in another order than one product over all rows, so full-batch values and
gradients match the loop within rtol 1e-12 and atol 1e-14, and a shard of
at most `_CHUNK_ROWS` rows is one chunk.

A row's results do not depend on the other rows of the call, so a one-row
call equals its row of a larger call bitwise. `join_replicas` makes the
oracles of R replica runs one objective over R * n clients, so each method
serves every replica in one call without knowing that replicas exist.

Both objectives are plain classes whose constructors check their arguments
once. That an oracle is immutable after construction is a convention of
both, not a guard; every stochastic evaluation takes its generators as an
explicit argument.

This module owns the rules that check what enters or leaves the numeric
core, each stated once: `_check_int` for every count argument (seeds use
its `_is_int`), `_finite_nonneg` and `_finite_pos` for every real
argument, `_check_rows` for the rows an oracle method takes and
`_check_out` for the arrays it returns, wherever `fedcore` and `metrics`
read them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dataio import ClientShard


class ObjectiveOracle:
    """Oracle contract: n, d_u, d_v and three methods over client rows
    (see the module docstring for ids, U and V).

    `local_steps` consumes each row's generator exactly as a K-draw
    `stoch_grads` row would, so it draws the same randomness as the
    per-step loop that the tests compare it to.
    """

    n: int
    d_u: int
    d_v: int

    def value_and_grads(self, ids, U, V):
        """(values (N,), grad_u rows (N, d_u), grad_v rows (N, d_v)): the
        exact f_i and both gradients of each row."""
        raise NotImplementedError

    def stoch_grads(self, ids, U, V, K, rngs):
        """(N, K, d_u) and (N, K, d_v) stacks: row j holds K independent
        stochastic gradients drawn from rngs[j], one batched draw
        value-identical to K single draws."""
        raise NotImplementedError

    def local_steps(self, ids, U, V, Corr, K, gamma_u, gamma_v, rngs):
        """K simultaneous SGD steps of each row from (U[j], V[j]) with
        generator rngs[j]; returns (U_K, V_K) rows.

        Both gradients of each step are evaluated at the same (u_k, v_k)
        and the same draw; the u-direction is g_u - Corr[j]."""
        raise NotImplementedError


def _check_rows(oracle, ids, U, V, rngs=None, Corr=None) -> int:
    """The row count N of a call; ValueError naming ids, U, V, Corr or rngs
    unless ids is 1-D with integers in [0, n), U is (d_u,) or (N, d_u), V is
    (N, d_v), Corr, when given, is (N, d_u) and rngs, when given, holds N
    generators."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"ids must be 1-D, got shape {ids.shape}")
    n, d_u, d_v, N = oracle.n, oracle.d_u, oracle.d_v, len(ids)
    # [] is float64; a float or bool id would index as an int
    if ids.dtype.kind not in "iu" and ids.size:
        raise ValueError(f"ids must be integers, got dtype {ids.dtype}")
    # one reduction: a negative id wraps to an unsigned value >= 2^63
    if np.maximum.reduce(ids.astype(np.uint64), initial=0) >= n:
        raise ValueError(f"ids must lie in [0, {n}), got {ids[(ids < 0) | (ids >= n)].tolist()}")
    if np.shape(U) not in ((d_u,), (N, d_u)):
        raise ValueError(f"U has shape {np.shape(U)}, expected ({d_u},) or ({N}, {d_u})")
    if np.shape(V) != (N, d_v):
        raise ValueError(f"V has shape {np.shape(V)}, expected ({N}, {d_v})")
    if Corr is not None and np.shape(Corr) != (N, d_u):
        raise ValueError(f"Corr has shape {np.shape(Corr)}, expected ({N}, {d_u})")
    if rngs is not None and len(rngs) != N:
        raise ValueError(f"rngs has {len(rngs)} generators, expected {N}")
    return N


def _check_out(method: str, got, *shapes):
    """got, the arrays an oracle's `method` returned; ValueError naming the
    method unless their shapes are `shapes`, in order."""
    if tuple(map(np.shape, got)) != shapes:
        raise ValueError(f"{method} returned rows of shapes "
                         f"{' and '.join(map(str, map(np.shape, got)))}, "
                         f"expected {' and '.join(map(str, shapes))}")
    return got


def _finite_nonneg(name: str, x) -> float:
    """x as a float; ValueError naming it unless finite and >= 0."""
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {x!r}")
    return float(x)


def _finite_pos(name: str, x) -> float:
    """x as a float; ValueError naming it unless finite and > 0."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be finite and > 0, got {x!r}")
    return float(x)


def _is_int(x) -> bool:
    """Whether x counts as an integer argument: a Python or numpy integer,
    not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_int(name: str, x, least: int) -> None:
    """ValueError naming x unless it is an int (`_is_int`) >= least."""
    if not (_is_int(x) and x >= least):
        raise ValueError(f"{name} must be an int >= {least}, got {x!r}")


class QuadraticObjective(ObjectiveOracle):
    """f_i(u, v_i) = 0.5*|u - a_i|^2 + 0.5*|v_i - b_i|^2.

    The centers are stored once, as the float64 (n, d_u + d_v) block of
    fused (a_i | b_i) rows; centers_u and centers_v are column views of it.
    ValueError unless both center arrays are 2-D, finite, of one n >= 1 and
    at least one column each, and both noise levels are finite and >= 0.

    stoch_grads adds independent zero-mean Gaussian noise with per-coordinate
    std sigma_u/sqrt(d_u) (resp. sigma_v/sqrt(d_v)), so the total noise
    second moment is exactly sigma_u^2 (sigma_v^2). The generator is
    consumed identically whether sigma is zero or not.
    """

    def __init__(self, centers_u, centers_v, sigma_u: float = 0.0, sigma_v: float = 0.0):
        a = np.asarray(centers_u, dtype=np.float64)
        b = np.asarray(centers_v, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0] or min(a.shape + b.shape) < 1:
            raise ValueError("centers_u and centers_v must be (n, d) arrays with equal n >= 1 "
                             "and d >= 1")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("centers must be finite")
        self.sigma_u = _finite_nonneg("sigma_u", sigma_u)
        self.sigma_v = _finite_nonneg("sigma_v", sigma_v)
        self.n, self.d_u = a.shape
        self.d_v = b.shape[1]
        self._centers = np.hstack([a, b])
        self.centers_u = self._centers[:, :self.d_u]  # (n, d_u) rows a_i
        self.centers_v = self._centers[:, self.d_u:]  # (n, d_v) rows b_i
        # per-column noise std for the (u | v) block
        self._noise_scale = np.repeat([self.sigma_u / math.sqrt(self.d_u),
                                       self.sigma_v / math.sqrt(self.d_v)], [self.d_u, self.d_v])

    def value_and_grads(self, ids, U, V):
        _check_rows(self, ids, U, V)
        DU = U - self.centers_u.take(ids, axis=0)
        DV = V - self.centers_v.take(ids, axis=0)
        return 0.5 * _row_sq_norms(DU) + 0.5 * _row_sq_norms(DV), DU, DV

    def _normals(self, rngs, K):
        """(N, K, d_u + d_v) standard normals, row j one (K, d) draw of
        rngs[j]."""
        z = np.empty((len(rngs), K, self.d_u + self.d_v))
        for g, z_j in zip(rngs, z):
            g.standard_normal(out=z_j)
        return z

    def stoch_grads(self, ids, U, V, K, rngs):
        _check_rows(self, ids, U, V, rngs)
        noise = self._normals(rngs, K) * self._noise_scale
        return ((U - self.centers_u.take(ids, axis=0))[:, None] + noise[:, :, : self.d_u],
                (V - self.centers_v.take(ids, axis=0))[:, None] + noise[:, :, self.d_u :])

    def local_steps(self, ids, U, V, Corr, K, gamma_u, gamma_v, rngs):
        # K steps of W -= steps * ((W - C) + noise[k] - Corr) on one fused
        # block of (u | v) rows W against the gathered (a_i | b_i) rows C;
        # the scaling writes the noise step-major, so each step adds a
        # contiguous (N, d) block
        _check_rows(self, ids, U, V, rngs, Corr)
        C = self._centers.take(ids, axis=0)
        noise = np.multiply(self._normals(rngs, K).transpose(1, 0, 2), self._noise_scale,
                            order="C")
        W = np.empty_like(C)
        W[:, :self.d_u] = U
        W[:, self.d_u:] = V
        Corr_w = np.zeros_like(W)
        Corr_w[:, :self.d_u] = Corr
        steps = np.full(W.shape[1], gamma_v)
        steps[:self.d_u] = gamma_u
        G = np.empty_like(W)
        for noise_k in noise:
            np.subtract(W, C, out=G)
            G += noise_k
            G -= Corr_w
            G *= steps
            W -= G
        return W[:, :self.d_u], W[:, self.d_u:]

    def dissimilarity_b2(self) -> float:
        """Exact b^2 = (1/n) sum_i |a_i - abar|^2, constant in (u, v)."""
        centered = self.centers_u - self.centers_u.mean(axis=0)
        return float((centered * centered).sum(axis=1).mean())

    def infimum(self) -> float:
        """inf f: attained at u = abar, v_i = b_i; equals b^2 / 2."""
        return 0.5 * self.dissimilarity_b2()


def _row_sq_norms(X: np.ndarray) -> np.ndarray:
    """|x|^2 of each row (last axis), bitwise equal to the per-row `x @ x`."""
    return np.matmul(X[..., None, :], X[..., :, None])[..., 0, 0]


# shard rows cast per full-batch chunk: 128 x 784 float64 rows are 784 KiB,
# so a chunk's four products read it from a 2 MiB L2 cache
_CHUNK_ROWS = 128


def logistic_grads(X, y, scale, rows, u, v):
    """(margin, w @ A, w @ B) of the logistic loss over the rows `rows` (an
    index array or a slice) of a shard with features X / scale and labels y.

    Only the rows read are cast to float64; A and B are the first d_u and
    last d_v columns of that cast. Per row the loss is log(1 + exp(-margin))
    with margin y * (a.u + b.v), and w is its derivative in a.u + b.v.
    """
    Z = X[rows].astype(np.float64, copy=False)
    y = y[rows]
    A, B = Z[:, :u.shape[0]], Z[:, u.shape[0]:]
    margin = A @ u
    margin += B @ v
    margin /= scale
    margin *= y
    # w = -y * sigmoid(-margin) = -y * (where(margin <= 0, 1, t) / (1 + t))
    # with t = exp(-|margin|), so exp never overflows
    t = np.exp(-np.abs(margin))
    w = t + 1.0
    t[margin <= 0.0] = 1.0
    t /= w
    w = -y
    w *= t
    return margin, w @ A, w @ B


def logistic_finish(P_u, P_v, denom, u, v, rho):
    """Turn the summed products P_u = w @ A and P_v = w @ B over `rows`
    rows into the gradients, in place: P / denom with denom = scale * rows,
    plus the gradient of the smooth non-convex regularizer
    rho * (|u|^2/(1+|u|^2) + |v|^2/(1+|v|^2))."""
    # gradient of s/(1+s) at s=|x|^2 is 2x/(1+|x|^2)^2
    for P, x in ((P_u, u), (P_v, v)):
        s = np.dot(x, x)
        P /= denom
        P += x * (2.0 * rho / ((1.0 + s) * (1.0 + s)))


def logistic_full_batch(X, y, scale, u, v, rho):
    """(value, g_u, g_v) of a shard's regularized loss: the mean loss over
    every row (see `logistic_grads`) plus rho * (|u|^2/(1+|u|^2) +
    |v|^2/(1+|v|^2)), and its gradients.

    The rows are cast `_CHUNK_ROWS` at a time; the products and loss terms
    are summed over the chunks.
    """
    g_u, g_v = np.zeros(u.shape), np.zeros(v.shape)
    loss = 0.0
    rows = y.shape[0]
    for start in range(0, rows, _CHUNK_ROWS):
        margin, P_u, P_v = logistic_grads(X, y, scale, slice(start, start + _CHUNK_ROWS), u, v)
        g_u += P_u
        g_v += P_v
        loss += float(np.logaddexp(0.0, -margin).sum())
    logistic_finish(g_u, g_v, scale * rows, u, v, rho)
    su, sv = float(u @ u), float(v @ v)
    return loss / rows + rho * (su / (1.0 + su) + sv / (1.0 + sv)), g_u, g_v


class LogisticObjective(ObjectiveOracle):
    """Per-shard regularized binary logistic loss.

    f_i(u, v_i) = (1/N_i) * sum_l log(1 + exp(-c_l * (a_l.u + b_l.v_i)))
                  + rho * (|u|^2/(1+|u|^2) + |v_i|^2/(1+|v_i|^2))

    with (a_l | b_l) the l-th row of the shard's features X / scale, split
    after its first d_u columns: ValueError unless the shards share one
    feature count W and d_u is an int with 1 <= d_u < W, so d_v = W - d_u,
    rho is finite and >= 0 and batch_size an int >= 1. The shards are held
    as given, in their stored dtype; each gradient casts only the rows it
    reads to float64. Minibatches are drawn uniformly with replacement,
    batch_size rows per step.
    """

    def __init__(self, shards: "list[ClientShard]", d_u: int, rho: float = 0.01,
                 batch_size: int = 1):
        if not shards:
            raise ValueError("need at least one shard")
        rho = _finite_nonneg("rho", rho)
        _check_int("batch_size", batch_size, 1)
        W = shards[0].X.shape[1]
        if not (_is_int(d_u) and 1 <= d_u <= W - 1):
            raise ValueError(f"d_u must be in [1, {W - 1}], got {d_u!r}")
        for i, s in enumerate(shards):
            if s.n_rows == 0:
                raise ValueError(f"shard {i} is empty")
            if s.X.shape[1] != W:
                raise ValueError(f"shard {i} has {s.X.shape[1]} features, shard 0 has {W}")
        self.shards = list(shards)
        self.rho = rho
        self.batch_size = int(batch_size)
        self.n = len(shards)
        self.d_u = int(d_u)
        self.d_v = W - self.d_u

    def value_and_grads(self, ids, U, V):
        N = _check_rows(self, ids, U, V)
        vals, G_u, G_v = np.empty(N), np.empty((N, self.d_u)), np.empty((N, self.d_v))
        for j, (i, u, v) in enumerate(zip(ids, np.broadcast_to(U, G_u.shape), V)):
            s = self.shards[i]
            vals[j], G_u[j], G_v[j] = logistic_full_batch(s.X, s.y, s.scale, u, v, self.rho)
        return vals, G_u, G_v

    def _minibatch_grads(self, i, u, v, K, rng):
        """Yield client i's K minibatch gradients (g_u, g_v), step k's at
        what u and v hold when it is asked for; the batch rows of all K
        steps are one (K, batch_size) draw of rng."""
        s = self.shards[i]
        denom = s.scale * self.batch_size
        for r in rng.integers(0, s.n_rows, size=(K, self.batch_size)):
            _, g_u, g_v = logistic_grads(s.X, s.y, s.scale, r, u, v)
            logistic_finish(g_u, g_v, denom, u, v, self.rho)
            yield g_u, g_v

    def stoch_grads(self, ids, U, V, K, rngs):
        N = _check_rows(self, ids, U, V, rngs)
        G_u, G_v = np.empty((N, K, self.d_u)), np.empty((N, K, self.d_v))
        for i, u, v, g, g_u, g_v in zip(ids, np.broadcast_to(U, (N, self.d_u)), V, rngs,
                                        G_u, G_v):
            for k, (P_u, P_v) in enumerate(self._minibatch_grads(i, u, v, K, g)):
                g_u[k], g_v[k] = P_u, P_v
        return G_u, G_v

    def local_steps(self, ids, U, V, Corr, K, gamma_u, gamma_v, rngs):
        N = _check_rows(self, ids, U, V, rngs, Corr)
        U_K, V_K = np.empty((N, self.d_u)), np.array(V, dtype=np.float64)
        U_K[:] = U
        for i, u, v, corr_u, g in zip(ids, U_K, V_K, Corr, rngs):
            for g_u, g_v in self._minibatch_grads(i, u, v, K, g):
                # u = u - gamma_u * (g_u - corr_u), v = v - gamma_v * g_v
                g_u -= corr_u
                g_u *= gamma_u
                u -= g_u
                g_v *= gamma_v
                v -= g_v
        return U_K, V_K


def _share(oracles, *names) -> None:
    values = {tuple(getattr(o, name) for name in names) for o in oracles}
    if len(values) != 1:
        raise ValueError(f"replicas must share ({', '.join(names)}), got {sorted(values)}")


def join_replicas(oracles) -> ObjectiveOracle:
    """One objective whose clients are the given replica oracles' clients in
    turn: replica r's client i is client r * n + i. A single oracle comes
    back unchanged.

    Replicas must be all quadratic or all logistic, of one (n, d_u, d_v)
    and one noise level (quadratic) or rho and batch size (logistic);
    quadratic centers are concatenated, logistic shards shared, not copied.
    Raises ValueError otherwise, and for an empty list.
    """
    oracles = list(oracles)
    if not oracles:
        raise ValueError("need at least one oracle")
    if len(oracles) == 1:
        return oracles[0]
    kinds = {type(o) for o in oracles}
    if len(kinds) != 1:
        raise ValueError(f"cannot join replicas of mixed types "
                         f"{sorted(k.__name__ for k in kinds)}")
    _share(oracles, "n", "d_u", "d_v")
    first = oracles[0]
    if type(first) is QuadraticObjective:
        _share(oracles, "sigma_u", "sigma_v")
        return QuadraticObjective(np.concatenate([o.centers_u for o in oracles]),
                                  np.concatenate([o.centers_v for o in oracles]),
                                  first.sigma_u, first.sigma_v)
    if type(first) is LogisticObjective:
        _share(oracles, "rho", "batch_size")
        return LogisticObjective([s for o in oracles for s in o.shards],
                                 first.d_u, first.rho, first.batch_size)
    raise ValueError(f"cannot join replicas of {type(first).__name__}; "
                     "replica runs need quadratic or logistic objectives")
