"""Exact stationary floors of the synthetic quadratic, written from the
algebra alone, and the quadratic instances of acceptance criteria 3-5. None
of this runs in the package itself.

The quadratic f_i = 0.5*|u - a_i|^2 + 0.5*|v_i - b_i|^2 with isotropic
Gaussian gradient noise is linear-Gaussian and separable per coordinate, so
the expected stationary `grad_norm_u + grad_norm_v_hat` of FedAvg-P solves
one scalar recursion per block (the discrete Lyapunov equation of linear
SGD, taken in expectation over client sampling). Scaffold-P's u block
couples u with the n control variates, so its floor solves one linear
fixed point per coordinate instead.

K local steps with step gamma contract the distance to a client's center by
q = (1 - gamma)^K and add, per coordinate, the noise variance
N = gamma^2 sigma^2 / d * (1 - q^2) / (1 - (1 - gamma)^2).
"""

import numpy as np

from fedpart import dataio
from fedpart.fedcore import HyperParams


def _local(gamma, K, sigma, d):
    """(q, N) of K local steps on one block (see the module docstring)."""
    a = 1.0 - gamma
    q = a**K
    return q, gamma * gamma * sigma * sigma / d * (1.0 - q * q) / (1.0 - a * a)


def _stationary(eta, q, drive):
    """Stationary E|e|^2 of e' = (1 - eta (1 - q)) e + zero-mean noise with
    second moment eta^2 * drive, the noise independent of e."""
    c = 1.0 - eta * (1.0 - q)
    return eta * eta * drive / (1.0 - c * c)


def fedavg_p_floor(obj, hp):
    """Expected stationary grad_norm_u + grad_norm_v_hat of FedAvg-P on the
    `QuadraticObjective` obj with `HyperParams` hp.

    u term: the server error u - abar is driven by the sampled centers'
    mean, whose variance about abar is V_S = (n - m) / (m (n - 1)) b^2 for m
    of n drawn without replacement, and by the mean of m clients' local
    noise, d_u N_u / m. v term: a client's error |v_i - b_i|^2 moves only
    in the rounds that sample it, so its stationary value does not depend
    on m / n; grad_norm_v_hat weighs the mean over clients by m / n.
    """
    n, m = obj.n, hp.m
    q_u, N_u = _local(hp.gamma_u, hp.K, obj.sigma_u, obj.d_u)
    V_S = (n - m) / (m * (n - 1)) * obj.dissimilarity_b2() if n > 1 else 0.0
    u = _stationary(hp.eta_u, q_u, (1.0 - q_u) ** 2 * V_S + obj.d_u * N_u / m)
    return u + (m / n) * _personal_floor(obj, hp)


def _personal_floor(obj, hp):
    """Stationary (1/n) sum_i |v_i - b_i|^2, the same for both algorithms:
    a client's v_i moves only in the rounds that sample it, uncorrected."""
    q_v, N_v = _local(hp.gamma_v, hp.K, obj.sigma_v, obj.d_v)
    return _stationary(hp.eta_v, q_v, obj.d_v * N_v)


def scaffold_p_floor(obj, hp):
    """Expected stationary grad_norm_u + grad_norm_v_hat of Scaffold-P on
    the `QuadraticObjective` obj with `HyperParams` hp.

    u term, per coordinate: K corrected local steps return
    u_i = q u + (1 - q) r_i + w_i with r_i = a_i + c_i - c and w_i the
    client's local noise (variance N_u), and refresh
    c_i <- c_i - c + (u - u_i) / (K gamma_u); the server takes
    u <- (1 - eta_u) u + (eta_u / m) sum of the sampled u_i. c stays the mean
    of the c_i, so over the state x = (1, u, c_1..c_n) a round is affine in
    the inclusion indicators z_i:

        x' = (A_0 + sum_i z_i A_i) x + sum_i z_i b_i w_i.

    Its stationary second moment M = E[x x^T] is the fixed point of one
    linear map, which needs only P(i in S) = m/n and
    P(i, j in S) = m (m - 1) / (n (n - 1)); E|u - abar|^2 is read off M.
    v term: FedAvg-P's, since the correction acts on u only.
    """
    n, m, K, eta = obj.n, hp.m, hp.K, hp.eta_u
    q, N = _local(hp.gamma_u, K, obj.sigma_u, obj.d_u)
    beta = 1.0 / (K * hp.gamma_u)
    p1 = m / n
    p2 = m * (m - 1) / (n * (n - 1)) if n > 1 else 0.0
    s = n + 2
    one, u = np.eye(s)[0], np.eye(s)[1]
    c = np.r_[0.0, 0.0, np.full(n, 1.0 / n)]
    A_0 = np.eye(s)
    A_0[1, 1] = 1.0 - eta
    b = np.zeros((n, s))
    b[:, 1] = eta / m
    b[np.arange(n), 2 + np.arange(n)] = -beta
    D = p1 * N * (b.T @ b)
    u_term = 0.0
    for centers in obj.centers_u.T:
        A = np.zeros((n, s, s))
        for i, a_i in enumerate(centers):
            r_i = a_i * one - c
            r_i[2 + i] += 1.0
            A[i, 1] = (eta / m) * (q * u + (1.0 - q) * r_i)
            A[i, 2 + i] = -c + beta * (1.0 - q) * (u - r_i)
        S = A.sum(axis=0)
        L = (np.kron(A_0, A_0) + p1 * (np.kron(S, A_0) + np.kron(A_0, S))
             + (p1 - p2) * sum(np.kron(A_i, A_i) for A_i in A) + p2 * np.kron(S, S))
        # the constant coordinate's own equation is M[0, 0] = 1
        lhs = np.eye(s * s) - L
        lhs[0] = np.eye(s * s)[0]
        rhs = D.ravel().copy()
        rhs[0] = 1.0
        M = np.linalg.solve(lhs, rhs).reshape(s, s)
        abar = centers.mean()
        u_term += M[1, 1] - 2.0 * abar * M[0, 1] + abar * abar
    return u_term + (m / n) * _personal_floor(obj, hp)


def full_participation_trace(obj, hp):
    """Exact per-round (f, grad_norm_u, grad_norm_v, grad_norm_v_hat) of
    FedAvg-P and of Scaffold-P on the noiseless `QuadraticObjective` obj
    with m = n, from the all-zeros start: one (T,) array each.

    K local steps take u_i - a_i = q (u - a_i) with q = (1 - gamma_u)^K, so
    the server's u - abar contracts by c_u = 1 - eta_u (1 - q) a round:
    grad_norm_u = |u - abar|^2 is c_u^(2(t+1)) |abar|^2 after round t.
    Scaffold-P's noiseless start has c_i - c = abar - a_i, which every
    full-participation round keeps, so each client steps toward abar and
    the same c_u holds. Every v_i - b_i contracts by c_v alike, so
    grad_norm_v = grad_norm_v_hat = c_v^(2(t+1)) (1/n) sum_i |b_i|^2, and
    f = (grad_norm_u + b^2 + grad_norm_v) / 2.
    """
    assert hp.m == obj.n and obj.sigma_u == obj.sigma_v == 0.0
    c_u = 1.0 - hp.eta_u * (1.0 - (1.0 - hp.gamma_u) ** hp.K)
    c_v = 1.0 - hp.eta_v * (1.0 - (1.0 - hp.gamma_v) ** hp.K)
    t = np.arange(1, hp.T + 1)
    abar = obj.centers_u.mean(axis=0)
    g_u = c_u ** (2 * t) * float(abar @ abar)
    g_v = c_v ** (2 * t) * float(np.square(obj.centers_v).sum(axis=1).mean())
    return 0.5 * (g_u + obj.dissimilarity_b2() + g_v), g_u, g_v, g_v


def personal_trace(obj, hp):
    """Exact expected grad_norm_v after each round of FedAvg-P or Scaffold-P
    on the `QuadraticObjective` obj with `HyperParams` hp, at any m, from
    the all-zeros start: one (T,) array.

    A round samples client i with probability p = m / n. A sampled client's
    e_i = v_i - b_i becomes c_v e_i plus eta_v times its local noise, of
    second moment d_v N_v, with c_v = 1 - eta_v (1 - q_v); an unsampled
    one's stays. So S_t = E (1/n) sum_i |e_i|^2 follows
    S_{t+1} = (1 - p (1 - c_v^2)) S_t + p eta_v^2 d_v N_v from
    S_0 = (1/n) sum_i |b_i|^2, and grad_norm_v after round t is S_{t+1}.
    The correction acts on u only, so both algorithms share this trace.
    """
    p = hp.m / obj.n
    q_v, N_v = _local(hp.gamma_v, hp.K, obj.sigma_v, obj.d_v)
    c_v = 1.0 - hp.eta_v * (1.0 - q_v)
    S = float(np.square(obj.centers_v).sum(axis=1).mean())
    trace = np.empty(hp.T)
    for t in range(hp.T):
        S = (1.0 - p * (1.0 - c_v * c_v)) * S + p * hp.eta_v * hp.eta_v * obj.d_v * N_v
        trace[t] = S
    return trace


def criterion_03(gamma, T):
    """Criterion 3's instance at step size gamma, T rounds."""
    obj = dataio.synth_quadratic(8, 4, 4, spread=0.5, sigma_u=1.0, sigma_v=0.0, seed=3)
    return obj, HyperParams(gamma_u=gamma, gamma_v=gamma, eta_u=1.0, eta_v=1.0,
                            K=4, T=T, m=8)


def criterion_04(m, T):
    """Criterion 4's instance with m clients a round, T rounds."""
    obj = dataio.synth_quadratic(16, 5, 5, spread=2.0, sigma_u=1.0, sigma_v=0.0, seed=4)
    return obj, HyperParams(gamma_u=0.005, gamma_v=0.005, eta_u=1.0, eta_v=1.0,
                            K=10, T=T, m=m)


def criterion_05(K, T):
    """Criterion 5's instance with K local steps, T rounds."""
    obj = dataio.synth_quadratic(10, 5, 5, spread=1.5, sigma_u=0.0, sigma_v=0.0, seed=5)
    return obj, HyperParams(gamma_u=0.01, gamma_v=0.01, eta_u=1.0, eta_v=1.0,
                            K=K, T=T, m=9)
