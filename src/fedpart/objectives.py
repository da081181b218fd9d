"""Objectives over a shared variable u and per-client personal variables v_i.

The global objective is f(u, v) = (1/n) * sum_i f_i(u, v_i). An oracle
exposes, per client i, the exact value and both gradients in one call
(`value_and_grads`) and K stochastic gradients realizing K draws of
(grad_u F, grad_v F)(u, v_i; xi) (`stoch_grads`). Two concrete objectives
are provided:

- QuadraticObjective: f_i = 0.5*|u - a_i|^2 + 0.5*|v_i - b_i|^2 with
  Gaussian gradient noise of exactly controllable second moment. Its
  curvature (L = 1), gradient dissimilarity b^2 and infimum are known in
  closed form, which makes step-size theory testable against ground truth.
- LogisticObjective: per-shard mean of log(1 + exp(-c * (a.u + b.v)))
  plus a smooth non-convex regularizer
  rho * (|u|^2/(1+|u|^2) + |v|^2/(1+|v|^2)). Every logistic gradient,
  full-batch or minibatch, comes from `kernels.logistic_grads` on the
  shard's stored feature matrix X = [A | B] (`dataio.ClientShard`).
  Minibatch gradients and local steps equal the float64 loop bitwise on
  float shards; full-batch values and gradients sum over row chunks and
  match it within rtol 1e-12 and atol 1e-14 (see `kernels`).

Two block methods work on the client state held as arrays:
`value_and_grads_all` evaluates all n clients in one pass and
`local_steps_block` runs the local steps of a round's sampled clients in one
kernel call; both take u as one start (d_u,) or one start per row. The
generic `value_and_grads_all` loops over the per-client `value_and_grads`,
which the logistic uses; the quadratic overrides it with one vectorized
pass. `local_steps_block` trusts the shapes checked once at run start;
`value_and_grads` checks dimensions on every call. `join_replicas` makes
the oracles of R replica runs one objective over R * n clients, so the
block methods serve every replica in one call without knowing that
replicas exist.

Oracles are immutable after construction; every stochastic evaluation takes
its generator as an explicit argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels

if TYPE_CHECKING:
    from .dataio import ClientShard


def _check_dims(u: np.ndarray, v: np.ndarray, d_u: int, d_v: int) -> None:
    if u.shape != (d_u,):
        raise ValueError(f"u has shape {u.shape}, expected ({d_u},)")
    if v.shape != (d_v,):
        raise ValueError(f"v has shape {v.shape}, expected ({d_v},)")


class ObjectiveOracle:
    """Oracle contract plus a generic `value_and_grads_all`.

    Subclasses provide n, d_u, d_v, `value_and_grads`, `stoch_grads` and
    `local_steps_block`. `value_and_grads_all` here loops over clients.
    `local_steps_block` consumes each client's generator exactly as K
    successive one-draw `stoch_grads` calls would, so it draws the same
    randomness as the per-step loop that the tests compare it to.
    """

    n: int
    d_u: int
    d_v: int

    def value_and_grads(self, i: int, u: np.ndarray, v: np.ndarray):
        """(f_i, grad_u f_i, grad_v f_i) at (u, v); raises ValueError on a
        dimension mismatch."""
        raise NotImplementedError

    def stoch_grads(self, i: int, u: np.ndarray, v: np.ndarray, K: int,
                    rng: np.random.Generator):
        """(K, d_u) and (K, d_v) stacks of K independent stochastic gradients
        at (u, v), one batched draw value-identical to K single draws."""
        raise NotImplementedError

    def value_and_grads_all(self, u: np.ndarray, V: np.ndarray):
        """(values (n,), grad_u rows (n, d_u), grad_v rows (n, d_v)) at
        (u, V), u one start (d_u,) or one per row (n, d_u); raises
        ValueError unless V has n rows."""
        if len(V) != self.n:
            raise ValueError(f"V has {len(V)} rows, expected {self.n}")
        U = np.broadcast_to(u, (self.n, self.d_u))
        vals, G_u, G_v = zip(*(self.value_and_grads(i, u_i, v)
                               for i, (u_i, v) in enumerate(zip(U, V))))
        return np.array(vals), np.stack(G_u), np.stack(G_v)

    def local_steps_block(self, ids, u, V, Corr, K, gamma_u, gamma_v, rngs):
        """K simultaneous SGD steps for clients ids (ascending) from
        (u, V[j]) with generator rngs[j], u one start (d_u,) or one per row
        (len(ids), d_u); returns (U_K, V_K) rows.

        Both gradients of each step are evaluated at the same (u_k, v_k)
        and the same draw; the u-direction is g_u - Corr[j]."""
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticObjective(ObjectiveOracle):
    """f_i(u, v_i) = 0.5*|u - a_i|^2 + 0.5*|v_i - b_i|^2.

    stoch_grads adds independent zero-mean Gaussian noise with per-coordinate
    std sigma_u/sqrt(d_u) (resp. sigma_v/sqrt(d_v)), so the total noise
    second moment is exactly sigma_u^2 (sigma_v^2). The generator is
    consumed identically whether sigma is zero or not.
    """

    centers_u: np.ndarray  # (n, d_u) rows a_i
    centers_v: np.ndarray  # (n, d_v) rows b_i
    sigma_u: float = 0.0
    sigma_v: float = 0.0

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.centers_u, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.centers_v, dtype=np.float64))
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0] or a.shape[0] < 1:
            raise ValueError("centers_u and centers_v must be (n, d) arrays with equal n >= 1")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("centers must be finite")
        if self.sigma_u < 0 or self.sigma_v < 0:
            raise ValueError("noise levels must be >= 0")
        object.__setattr__(self, "centers_u", a)
        object.__setattr__(self, "centers_v", b)
        # fused (a_i | b_i) rows and per-column noise std for the (u | v) block
        object.__setattr__(self, "_centers", np.hstack([a, b]))
        object.__setattr__(self, "_noise_scale", np.repeat(
            [self.sigma_u / math.sqrt(a.shape[1]), self.sigma_v / math.sqrt(b.shape[1])],
            [a.shape[1], b.shape[1]]))

    @property
    def n(self) -> int:
        return self.centers_u.shape[0]

    @property
    def d_u(self) -> int:
        return self.centers_u.shape[1]

    @property
    def d_v(self) -> int:
        return self.centers_v.shape[1]

    def value_and_grads(self, i, u, v):
        _check_dims(u, v, self.d_u, self.d_v)
        du = u - self.centers_u[i]
        dv = v - self.centers_v[i]
        return 0.5 * float(du @ du) + 0.5 * float(dv @ dv), du, dv

    def stoch_grads(self, i, u, v, K, rng):
        noise = rng.standard_normal((K, self.d_u + self.d_v)) * self._noise_scale
        return ((u - self.centers_u[i]) + noise[:, : self.d_u],
                (v - self.centers_v[i]) + noise[:, self.d_u :])

    def value_and_grads_all(self, u, V):
        DU = u - self.centers_u
        DV = np.asarray(V) - self.centers_v
        return 0.5 * _row_sq_norms(DU) + 0.5 * _row_sq_norms(DV), DU, DV

    def local_steps_block(self, ids, u, V, Corr, K, gamma_u, gamma_v, rngs):
        # one fused (m, d) block of (u | v) rows against the gathered
        # (a_i | b_i) rows; row j's draw of stoch_grads fills z[j], and
        # noise[k] holds step k's rows
        centers = self._centers[ids]
        m, d = centers.shape
        z = np.empty((m, K, d))
        for g, z_j in zip(rngs, z):
            g.standard_normal(out=z_j)
        noise = np.multiply(z.transpose(1, 0, 2), self._noise_scale, out=np.empty((K, m, d)))
        W = np.empty((m, d))
        W[:, :self.d_u] = u
        W[:, self.d_u:] = V
        Corr_w = np.zeros_like(W)
        Corr_w[:, :self.d_u] = Corr
        steps = np.full(d, gamma_v)
        steps[:self.d_u] = gamma_u
        W = kernels.quad_local_steps(W, centers, steps, noise, Corr_w)
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


def _reg_value(u: np.ndarray, v: np.ndarray) -> float:
    su = float(u @ u)
    sv = float(v @ v)
    return su / (1.0 + su) + sv / (1.0 + sv)


class LogisticObjective(ObjectiveOracle):
    """Per-shard regularized binary logistic loss.

    f_i(u, v_i) = (1/N_i) * sum_l log(1 + exp(-c_l * (a_l.u + b_l.v_i)))
                  + rho * (|u|^2/(1+|u|^2) + |v_i|^2/(1+|v_i|^2))

    with (a_l | b_l) the l-th row of the shard's features X / scale. The
    shards are held as given, in their stored dtype, which all shards
    share; each gradient casts only the rows it reads into float64 work
    arrays. Minibatches are drawn uniformly with replacement, batch_size
    rows per step.
    """

    def __init__(self, shards: "list[ClientShard]", rho: float = 0.01, batch_size: int = 1):
        if not shards:
            raise ValueError("need at least one shard")
        if rho < 0:
            raise ValueError("rho must be >= 0")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        d_u, d_v, dtype = shards[0].d_u, shards[0].d_v, shards[0].X.dtype
        for s in shards:
            if s.n_rows == 0:
                raise ValueError(f"shard {s.client_id} is empty")
            if (s.d_u, s.d_v) != (d_u, d_v):
                raise ValueError("all shards must share (d_u, d_v)")
            if s.X.dtype != dtype:
                raise ValueError(f"all shards must share one feature dtype, got {dtype} "
                                 f"and {s.X.dtype}")
        self.shards = list(shards)
        self.rho = float(rho)
        self.batch_size = int(batch_size)
        self.n = len(shards)
        self.d_u = d_u
        self.d_v = d_v
        self.dtype = dtype

    def value_and_grads(self, i, u, v):
        _check_dims(u, v, self.d_u, self.d_v)
        s = self.shards[i]
        work = kernels.LogisticWork(self.d_u, self.d_v, self.dtype)
        g_u, g_v = np.empty(self.d_u), np.empty(self.d_v)
        loss = kernels.logistic_full_batch(s.X, s.y, s.scale, u, v, self.rho, work, g_u, g_v)
        return loss + self.rho * _reg_value(u, v), g_u, g_v

    def stoch_grads(self, i, u, v, K, rng):
        s = self.shards[i]
        rows = rng.integers(0, s.n_rows, size=(K, self.batch_size))
        work = kernels.LogisticWork(self.d_u, self.d_v, self.dtype, self.batch_size)
        denom = s.scale * self.batch_size
        G_u = np.empty((K, self.d_u))
        G_v = np.empty((K, self.d_v))
        for r, g_u, g_v in zip(rows, G_u, G_v):
            _, P_u, P_v = kernels.logistic_grads(s.X, s.y, s.scale, r, u, v, work)
            kernels.logistic_finish(P_u, P_v, denom, u, v, self.rho, work)
            g_u[:] = P_u
            g_v[:] = P_v
        return G_u, G_v

    def local_steps_block(self, ids, u, V, Corr, K, gamma_u, gamma_v, rngs):
        shards = [self.shards[i] for i in ids]
        idx = [g.integers(0, s.n_rows, size=(K, self.batch_size))
               for s, g in zip(shards, rngs)]
        return kernels.logistic_local_steps(
            u, V, [(s.X, s.y, s.scale) for s in shards], self.rho, gamma_u, gamma_v, idx, Corr,
            kernels.LogisticWork(self.d_u, self.d_v, self.dtype, self.batch_size),
        )


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
                                 first.rho, first.batch_size)
    raise ValueError(f"cannot join replicas of {type(first).__name__}; "
                     "replica runs need quadratic or logistic objectives")
