"""Reported-quantity formulas, constant estimation, and the evaluation-only
guarantee (metrics never mutate oracle or state)."""

import math
import re

import numpy as np
import pytest

from fedpart import dataio, metrics
from fedpart.objectives import ObjectiveOracle, join_replicas
from fedpart.objectives import QuadraticObjective as quad
from fedpart.rng import stream
from reference import random_logistic


@pytest.mark.parametrize("n,d", [(10, 5), (200, 50)])  # (200, 50): pairwise sums
def test_round_metrics_of_joined_replicas_equal_single_formulas_bitwise(n, d):
    # a run alone's formulas, written out with its reductions
    objs = [dataio.synth_quadratic(n, d, d, 1.0, 0.0, 0.0, seed) for seed in (1, 2, 3)]
    joined = join_replicas(objs)
    rng = stream(33, "probe")
    u, V = rng.standard_normal((3, d)), rng.standard_normal((3, n, d))
    got = metrics.round_metrics(joined, u, V, 7)
    for r, obj in enumerate(objs):
        vals, G_u, G_v = obj.value_and_grads(np.arange(n), u[r], V[r])
        gbar = G_u.sum(axis=0) / n
        g_v = float(np.square(G_v).sum(axis=1).sum() / n)
        want = (float(vals.sum() / n), float(gbar @ gbar), g_v, (7 / n) * g_v)
        assert tuple(x[r] for x in got) == want
        assert metrics.round_metrics(obj, u[r], V[r], 7) == want


class Scaled(ObjectiveOracle):
    """Wrap an oracle, multiplying value and gradients by a constant."""

    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor
        self.n = inner.n
        self.d_u = inner.d_u
        self.d_v = inner.d_v

    def value_and_grads(self, ids, U, V):
        f, gu, gv = self.inner.value_and_grads(ids, U, V)
        return self.factor * f, self.factor * gu, self.factor * gv


# ------------------------------------------------------------ round metrics


def test_grad_norm_shared_vanishes_at_mean_center():
    obj = quad([[0.0], [2.0]], np.zeros((2, 1)))
    v_all = [np.array([5.0]), np.array([-1.0])]
    assert metrics.round_metrics(obj, np.array([1.0]), v_all, obj.n)[1] == 0.0


def test_grad_norm_shared_hand_case():
    obj = quad([[0.0], [2.0]], np.zeros((2, 1)))
    v_all = [np.zeros(1), np.zeros(1)]
    assert metrics.round_metrics(obj, np.array([0.0]), v_all, obj.n)[1] == pytest.approx(1.0, abs=0)


def test_grad_norm_shared_matches_reverse_order_accumulation():
    rng = stream(40, "probe")
    obj = quad(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    u = rng.standard_normal(3)
    v_all = [rng.standard_normal(2) for _ in range(5)]
    got = metrics.round_metrics(obj, u, v_all, obj.n)[1]
    acc = np.zeros(3)
    for i in reversed(range(5)):
        acc += obj.value_and_grads([i], u, v_all[i][None])[1][0]
    acc /= 5
    assert got == pytest.approx(float(acc @ acc), abs=1e-12)


def test_grad_norm_personal_cases():
    obj = quad(np.zeros((2, 1)), [[1.0], [math.sqrt(3.0)]])
    v_all = [np.zeros(1), np.zeros(1)]  # per-client squared norms 1 and 3
    _, _, g_v, g_v_hat = metrics.round_metrics(obj, np.zeros(1), v_all, m=1)
    assert g_v == pytest.approx(2.0, rel=1e-15)
    assert g_v_hat == pytest.approx(1.0, rel=1e-15)

    matched = [np.array([1.0]), np.array([math.sqrt(3.0)])]
    assert metrics.round_metrics(obj, np.zeros(1), matched, m=2)[2:] == (0.0, 0.0)

    full = metrics.round_metrics(obj, np.zeros(1), v_all, m=2)
    assert full[2] == full[3]


def test_grad_norm_v_hat_is_exact_scaling():
    rng = stream(41, "probe")
    obj = random_logistic(rng)
    u = rng.standard_normal(obj.d_u)
    v_all = [rng.standard_normal(obj.d_v) for _ in range(obj.n)]
    for m in (1, 2):
        _, _, g_v, g_v_hat = metrics.round_metrics(obj, u, v_all, m=m)
        assert g_v_hat == (m / obj.n) * g_v


def test_function_value():
    obj = quad([[1.0]], [[2.0]])
    assert metrics.round_metrics(obj, np.array([1.0]), [np.array([2.0])], 1)[0] == 0.0

    rng = stream(42, "probe")
    logi = random_logistic(rng, rho=0.0)
    zeros_v = [np.zeros(logi.d_v) for _ in range(logi.n)]
    assert metrics.round_metrics(logi, np.zeros(logi.d_u), zeros_v, logi.n)[0] == pytest.approx(
        math.log(2.0), rel=1e-15
    )
    u = rng.standard_normal(logi.d_u)
    v_all = [rng.standard_normal(logi.d_v) for _ in range(logi.n)]
    brute = sum(logi.value_and_grads([i], u, v_all[i][None])[0][0]
                for i in range(logi.n)) / logi.n
    assert metrics.round_metrics(logi, u, v_all, logi.n)[0] == pytest.approx(brute, abs=1e-12)


# ------------------------------------------------------ constant estimation


def test_smoothness_quadratic_near_one():
    rng = stream(43, "probe")
    obj = quad(rng.standard_normal((3, 4)), rng.standard_normal((3, 3)))
    L = metrics.estimate_smoothness(obj, probe_points=120, radius=1.0, rng=stream(43, "smooth"))
    # lower-bound estimator: <= 1 in exact arithmetic, roundoff adds ~1e-12
    assert 0.99 <= L <= 1.0 + 1e-9


def test_smoothness_scales_linearly():
    rng = stream(44, "probe")
    obj = quad(rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))
    L1 = metrics.estimate_smoothness(obj, 60, 1.0, stream(44, "smooth"))
    L3 = metrics.estimate_smoothness(Scaled(obj, 3.0), 60, 1.0, stream(44, "smooth"))
    assert L3 == pytest.approx(3.0 * L1, rel=1e-12)


def test_smoothness_logistic_below_classical_bound():
    rng = stream(45, "probe")
    obj = random_logistic(rng, rho=0.0)
    sq = max(
        float(np.square(s.X[r]).sum())
        for s in obj.shards
        for r in range(s.n_rows)
    )
    L = metrics.estimate_smoothness(obj, 120, 1.0, stream(45, "smooth"))
    assert L <= sq / 4.0 + 1e-6


def test_smoothness_needs_probes():
    obj = quad(np.zeros((1, 1)), np.zeros((1, 1)))
    for probes in (1, 2.5, 2.0, True):
        with pytest.raises(ValueError,
                           match=re.escape(f"probe_points must be an int >= 2, got {probes!r}")):
            metrics.estimate_smoothness(obj, probes, 1.0, stream(0, "smooth"))
    assert metrics.estimate_smoothness(obj, np.int64(2), 1.0, stream(0, "smooth")) > 0.0


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_smoothness_needs_finite_positive_radius(radius):
    obj = quad(np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        metrics.estimate_smoothness(obj, 2, radius, stream(0, "smooth"))


def test_dissimilarity_identical_clients_is_zero():
    obj = quad([[1.0, 2.0]] * 3, np.zeros((3, 2)))
    v_all = [np.zeros(2)] * 3
    assert metrics.estimate_dissimilarity(obj, np.zeros(2), v_all) == pytest.approx(0.0, abs=1e-15)


def test_dissimilarity_quadratic_closed_form_everywhere():
    rng = stream(46, "probe")
    obj = dataio.synth_quadratic(6, 3, 2, spread=1.7, sigma_u=0, sigma_v=0, seed=3)
    b2 = obj.dissimilarity_b2()
    for _ in range(10):
        u = rng.standard_normal(3)
        v_all = [rng.standard_normal(2) for _ in range(6)]
        assert metrics.estimate_dissimilarity(obj, u, v_all) == pytest.approx(b2, abs=1e-10)


def test_dissimilarity_never_negative():
    rng = stream(47, "probe")
    obj = random_logistic(rng, n=3)
    for _ in range(100):
        u = rng.standard_normal(obj.d_u)
        v_all = [rng.standard_normal(obj.d_v) for _ in range(obj.n)]
        assert metrics.estimate_dissimilarity(obj, u, v_all) >= -1e-12


def test_initial_gap_quadratic_uses_exact_infimum():
    obj = dataio.synth_quadratic(4, 2, 2, spread=1.0, sigma_u=0, sigma_v=0, seed=1)
    b2 = obj.dissimilarity_b2()
    u0 = np.zeros(2)
    v0 = [np.zeros(2) for _ in range(4)]
    f0 = metrics.round_metrics(obj, u0, v0, obj.n)[0]
    got = metrics.estimate_initial_gap(obj, u0, v0, lr=1.0)  # the infimum needs no step
    assert got == pytest.approx(f0 - b2 / 2.0, rel=1e-12)


def test_initial_gap_logistic_descent_proxy():
    rng = stream(48, "probe")
    obj = random_logistic(rng, rho=0.01)
    u0 = np.zeros(obj.d_u)
    v0 = [np.zeros(obj.d_v) for _ in range(obj.n)]
    f0 = metrics.round_metrics(obj, u0, v0, obj.n)[0]
    L = metrics.estimate_smoothness(obj, 30, 1.0, stream(0, "probe"))
    gap = metrics.estimate_initial_gap(obj, u0, v0, lr=0.5 / L, iters=200)
    assert 0.0 <= gap <= f0
    assert gap > 0.05  # descent actually made progress from log 2


class Counting(ObjectiveOracle):
    """Wrap an oracle, recording the row count of each `value_and_grads`
    call."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.d_u = inner.d_u
        self.d_v = inner.d_v
        self.rows = []

    def value_and_grads(self, ids, U, V):
        self.rows.append(len(ids))
        return self.inner.value_and_grads(ids, U, V)


def three_pass_gap(oracle, u0, v_all0, iters, lr):
    """The gap descent with a separate pass for f at every new point."""
    f0 = metrics.round_metrics(oracle, u0, v_all0, oracle.n)[0]
    u = u0.copy()
    V = np.array(v_all0, dtype=np.float64)
    best = f0
    ids = np.arange(oracle.n)
    for _ in range(iters):
        u = u - lr * oracle.value_and_grads(ids, u, V)[1].mean(axis=0)
        V = V - lr * oracle.value_and_grads(ids, u, V)[2]
        best = min(best, metrics.round_metrics(oracle, u, V, oracle.n)[0])
    return f0 - best


def test_initial_gap_two_passes_per_iteration():
    rng = stream(51, "probe")
    obj = Counting(random_logistic(rng, n=3, rho=0.01))
    u0 = rng.standard_normal(obj.d_u)
    v0 = [rng.standard_normal(obj.d_v) for _ in range(obj.n)]
    for iters in (0, 1, 40):
        obj.rows = []
        gap = metrics.estimate_initial_gap(obj, u0, v0, iters=iters, lr=0.3)
        assert obj.rows == [obj.n] * (2 * iters + 1)
        assert gap == three_pass_gap(obj, u0, v0, iters, 0.3)


def test_estimate_constants_probes_smoothness_once():
    rng = stream(53, "probe")
    obj = Counting(random_logistic(rng, n=3, rho=0.01))
    u0 = np.zeros(obj.d_u)
    v0 = [np.zeros(obj.d_v) for _ in range(obj.n)]
    est = metrics.estimate_constants(obj, u0, v0, stream(53, "smooth"), probe_points=10)
    assert obj.rows.count(2) == 10  # one two-row call per probe, no second probe run
    assert set(obj.rows) == {2, obj.n}
    assert est.F0 == metrics.estimate_initial_gap(obj, u0, v0, lr=0.5 / est.L_hat)


def test_estimate_constants_bundle():
    obj = dataio.synth_quadratic(5, 3, 2, spread=2.0, sigma_u=0, sigma_v=0, seed=5)
    b2 = obj.dissimilarity_b2()
    u0 = np.zeros(3)
    v0 = [np.zeros(2) for _ in range(5)]
    est = metrics.estimate_constants(obj, u0, v0, stream(49, "probe"), probe_points=120)
    assert 0.99 <= est.L_hat <= 1.01
    assert est.b2_hat == pytest.approx(b2, abs=1e-10)
    assert est.F0 == pytest.approx(
        metrics.round_metrics(obj, u0, v0, obj.n)[0] - b2 / 2.0, rel=1e-12
    )


def test_metrics_do_not_mutate_state():
    rng = stream(50, "probe")
    obj = random_logistic(rng)
    u = rng.standard_normal(obj.d_u)
    v_all = [rng.standard_normal(obj.d_v) for _ in range(obj.n)]
    before = (
        u.tobytes(),
        tuple(v.tobytes() for v in v_all),
        tuple(s.X.tobytes() + s.y.tobytes() for s in obj.shards),
    )
    metrics.round_metrics(obj, u, v_all, 1)
    metrics.estimate_dissimilarity(obj, u, v_all)
    metrics.estimate_constants(obj, u, v_all, stream(50, "smooth"), probe_points=10)
    after = (
        u.tobytes(),
        tuple(v.tobytes() for v in v_all),
        tuple(s.X.tobytes() + s.y.tobytes() for s in obj.shards),
    )
    assert before == after
