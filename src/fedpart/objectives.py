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
- `local_steps` runs K local SGD steps of each row, row j from rngs[j]:
  a round's sampled clients in one kernel call.

Every method raises ValueError naming U or V when one has the wrong shape,
and rngs when it does not hold one generator per row. Two concrete
objectives are provided:

- QuadraticObjective: f_i = 0.5*|u - a_i|^2 + 0.5*|v_i - b_i|^2 with
  Gaussian gradient noise of exactly controllable second moment. Its
  curvature (L = 1), gradient dissimilarity b^2 and infimum are known in
  closed form, which makes step-size theory testable against ground truth.
- LogisticObjective: per-shard mean of log(1 + exp(-c * (a.u + b.v)))
  plus a smooth non-convex regularizer
  rho * (|u|^2/(1+|u|^2) + |v|^2/(1+|v|^2)). Every logistic gradient comes
  from `kernels.logistic_grads` on the shard's feature matrix X = [A | B]
  (`dataio.ClientShard`); `kernels.logistic_full_batch` returns a shard's
  regularized value and gradients.
  Minibatch gradients and local steps equal the float64 loop bitwise on
  float shards; full-batch values and gradients sum over row chunks and
  match it within rtol 1e-12 and atol 1e-14 (see `kernels`).

A row's results do not depend on the other rows of the call, so a one-row
call equals its row of a larger call bitwise. `join_replicas` makes the
oracles of R replica runs one objective over R * n clients, so each method
serves every replica in one call without knowing that replicas exist.

Oracles are immutable after construction; every stochastic evaluation takes
its generators as an explicit argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels

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


def _check_rows(ids, U, V, d_u: int, d_v: int, rngs=None) -> int:
    """The row count N of a call; ValueError naming U, V or rngs unless U
    is (d_u,) or (N, d_u), V is (N, d_v) and rngs, when given, holds N
    generators."""
    N = len(ids)
    if np.shape(U) not in ((d_u,), (N, d_u)):
        raise ValueError(f"U has shape {np.shape(U)}, expected ({d_u},) or ({N}, {d_u})")
    if np.shape(V) != (N, d_v):
        raise ValueError(f"V has shape {np.shape(V)}, expected ({N}, {d_v})")
    if rngs is not None and len(rngs) != N:
        raise ValueError(f"rngs has {len(rngs)} generators, expected {N}")
    return N


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

    def value_and_grads(self, ids, U, V):
        _check_rows(ids, U, V, self.d_u, self.d_v)
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
        _check_rows(ids, U, V, self.d_u, self.d_v, rngs)
        noise = self._normals(rngs, K) * self._noise_scale
        return ((U - self.centers_u.take(ids, axis=0))[:, None] + noise[:, :, : self.d_u],
                (V - self.centers_v.take(ids, axis=0))[:, None] + noise[:, :, self.d_u :])

    def local_steps(self, ids, U, V, Corr, K, gamma_u, gamma_v, rngs):
        # one fused (m, d) block of (u | v) rows against the gathered
        # (a_i | b_i) rows; noise[k] holds step k's rows
        m = _check_rows(ids, U, V, self.d_u, self.d_v, rngs)
        centers = self._centers.take(ids, axis=0)
        d = centers.shape[1]
        noise = np.multiply(self._normals(rngs, K).transpose(1, 0, 2), self._noise_scale,
                            out=np.empty((K, m, d)))
        W = np.empty((m, d))
        W[:, :self.d_u] = U
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
        for i, s in enumerate(shards):
            if s.n_rows == 0:
                raise ValueError(f"shard {i} is empty")
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

    def value_and_grads(self, ids, U, V):
        N = _check_rows(ids, U, V, self.d_u, self.d_v)
        work = kernels.LogisticWork(self.d_u, self.d_v, self.dtype)
        vals, G_u, G_v = np.empty(N), np.empty((N, self.d_u)), np.empty((N, self.d_v))
        for j, (i, u, v) in enumerate(zip(ids, np.broadcast_to(U, G_u.shape), V)):
            s = self.shards[i]
            vals[j], G_u[j], G_v[j] = kernels.logistic_full_batch(s.X, s.y, s.scale, u, v,
                                                                  self.rho, work)
        return vals, G_u, G_v

    def stoch_grads(self, ids, U, V, K, rngs):
        N = _check_rows(ids, U, V, self.d_u, self.d_v, rngs)
        work = kernels.LogisticWork(self.d_u, self.d_v, self.dtype, self.batch_size)
        G_u, G_v = np.empty((N, K, self.d_u)), np.empty((N, K, self.d_v))
        for i, u, v, g, g_u, g_v in zip(ids, np.broadcast_to(U, (N, self.d_u)), V, rngs,
                                        G_u, G_v):
            s = self.shards[i]
            denom = s.scale * self.batch_size
            for r, g_uk, g_vk in zip(g.integers(0, s.n_rows, size=(K, self.batch_size)),
                                     g_u, g_v):
                _, P_u, P_v = kernels.logistic_grads(s.X, s.y, s.scale, r, u, v, work)
                kernels.logistic_finish(P_u, P_v, denom, u, v, self.rho, work)
                g_uk[:] = P_u
                g_vk[:] = P_v
        return G_u, G_v

    def local_steps(self, ids, U, V, Corr, K, gamma_u, gamma_v, rngs):
        _check_rows(ids, U, V, self.d_u, self.d_v, rngs)
        shards = [self.shards[i] for i in ids]
        idx = [g.integers(0, s.n_rows, size=(K, self.batch_size))
               for s, g in zip(shards, rngs)]
        return kernels.logistic_local_steps(
            U, V, [(s.X, s.y, s.scale) for s in shards], self.rho, gamma_u, gamma_v, idx, Corr,
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
