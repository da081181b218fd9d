"""Exact stationary floors of the synthetic quadratic, written from the
algebra alone. None of this runs in the package itself.

The quadratic f_i = 0.5*|u - a_i|^2 + 0.5*|v_i - b_i|^2 with isotropic
Gaussian gradient noise is linear-Gaussian and separable per coordinate, so
the expected stationary `grad_norm_u + grad_norm_v_hat` of FedAvg-P solves
one scalar recursion per block (the discrete Lyapunov equation of linear
SGD, taken in expectation over client sampling).

K local steps with step gamma contract the distance to a client's center by
q = (1 - gamma)^K and add, per coordinate, the noise variance
N = gamma^2 sigma^2 / d * (1 - q^2) / (1 - (1 - gamma)^2).
"""


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
    q_v, N_v = _local(hp.gamma_v, hp.K, obj.sigma_v, obj.d_v)
    V_S = (n - m) / (m * (n - 1)) * obj.dissimilarity_b2() if n > 1 else 0.0
    u = _stationary(hp.eta_u, q_u, (1.0 - q_u) ** 2 * V_S + obj.d_u * N_u / m)
    v = _stationary(hp.eta_v, q_v, obj.d_v * N_v)
    return u + (m / n) * v
