"""Objective oracles: closed-form values, gradient correctness against
finite differences, stochastic-gradient moments, and the equivalence of the
batched local-step kernels with the per-step reference loop."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fedpart
import reference
from fedpart import dataio, kernels
from fedpart.dataio import ClientShard, RawDataset
from fedpart.fedcore import HyperParams, run_training
from fedpart.objectives import LogisticObjective, QuadraticObjective
from fedpart.rng import stream


def quad(centers_u, centers_v, sigma_u=0.0, sigma_v=0.0):
    return QuadraticObjective(
        centers_u=np.asarray(centers_u, dtype=float),
        centers_v=np.asarray(centers_v, dtype=float),
        sigma_u=sigma_u,
        sigma_v=sigma_v,
    )


def one_row_logistic(a, b, c, rho=0.0, batch_size=1):
    shard = ClientShard(
        client_id=1,
        X=np.hstack([np.asarray([a], dtype=float), np.asarray([b], dtype=float)]),
        y=np.asarray([c], dtype=float),
        d_u=len(a),
    )
    return LogisticObjective([shard], rho=rho, batch_size=batch_size)


def random_logistic(rng, n=2, rows=7, d_u=3, d_v=2, rho=0.01, batch_size=1):
    shards = []
    for i in range(n):
        shards.append(
            ClientShard(
                client_id=i + 1,
                X=np.hstack([rng.standard_normal((rows, d_u)), rng.standard_normal((rows, d_v))]),
                y=np.where(rng.random(rows) < 0.5, -1.0, 1.0),
                d_u=d_u,
            )
        )
    return LogisticObjective(shards, rho=rho, batch_size=batch_size)


def value(oracle, i, u, v):
    return oracle.value_and_grads(i, u, v)[0]


def grads(oracle, i, u, v):
    return oracle.value_and_grads(i, u, v)[1:]


def central_diff_grads(oracle, i, u, v, h=1e-6):
    gu = np.empty_like(u)
    for j in range(u.size):
        e = np.zeros_like(u)
        e[j] = h
        gu[j] = (value(oracle, i, u + e, v) - value(oracle, i, u - e, v)) / (2 * h)
    gv = np.empty_like(v)
    for j in range(v.size):
        e = np.zeros_like(v)
        e[j] = h
        gv[j] = (value(oracle, i, u, v + e) - value(oracle, i, u, v - e)) / (2 * h)
    return gu, gv


def fd_relative_error(oracle, i, u, v):
    gu, gv = grads(oracle, i, u, v)
    fu, fv = central_diff_grads(oracle, i, u, v)
    num = math.sqrt(float(np.square(fu - gu).sum() + np.square(fv - gv).sum()))
    den = max(math.sqrt(float(np.square(gu).sum() + np.square(gv).sum())), 1e-8)
    return num / den


# ---------------------------------------------------------------- quadratic


def test_quad_value_at_centers_is_zero():
    obj = quad([[1.0, -2.0]], [[0.5]])
    assert value(obj, 0, np.array([1.0, -2.0]), np.array([0.5])) == 0.0


def test_quad_value_hand_case():
    obj = quad([[1.0]], [[0.0]])
    assert value(obj, 0, np.array([0.0]), np.array([2.0])) == pytest.approx(2.5, abs=0)


def test_quad_value_u_term_homogeneity():
    obj = quad([[2.0, 1.0]], [[0.0]])
    w = np.array([0.3, -0.4])
    v = np.array([0.0])  # v at center: value is the u-term alone
    v1 = value(obj, 0, np.array([2.0, 1.0]) + w, v)
    v2 = value(obj, 0, np.array([2.0, 1.0]) + 2 * w, v)
    assert v2 == pytest.approx(4 * v1, rel=1e-15)


def test_quad_grads_hand_cases():
    obj = quad([[1.0]], [[3.0]])
    gu, gv = grads(obj, 0, np.array([1.0]), np.array([3.0]))
    assert np.array_equal(gu, [0.0]) and np.array_equal(gv, [0.0])
    gu, _ = grads(obj, 0, np.array([0.0]), np.array([0.0]))
    assert np.array_equal(gu, [-1.0])


def test_quad_finite_difference():
    rng = stream(0, "probe")
    obj = quad(rng.standard_normal((3, 4)), rng.standard_normal((3, 2)))
    worst = 0.0
    for p in range(100):
        i = p % obj.n
        u = rng.standard_normal(obj.d_u)
        v = rng.standard_normal(obj.d_v)
        worst = max(worst, fd_relative_error(obj, i, u, v))
    assert worst <= 1e-7


def test_quad_dissimilarity_closed_form():
    a = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    obj = quad(a, np.zeros((3, 1)))
    # mean (0,2,4) = 2 -> squared distances 4,0,4 -> mean 8/3
    assert obj.dissimilarity_b2() == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert obj.infimum() == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_quad_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        quad(np.zeros((2, 3)), np.zeros((3, 2)))  # n mismatch
    with pytest.raises(ValueError):
        quad(np.zeros((2, 3)), np.zeros((2, 2)), sigma_u=-1.0)
    with pytest.raises(ValueError):
        quad(np.array([[np.inf, 0.0]]), np.zeros((1, 1)))


def test_quad_dim_mismatch_raises():
    obj = quad(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        value(obj, 0, np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError):
        grads(obj, 0, np.zeros(3), np.zeros(1))


# ----------------------------------------------------------------- logistic


def test_logistic_value_zero_point_is_log2():
    rng = stream(1, "probe")
    obj = random_logistic(rng, rho=0.0)
    u = np.zeros(obj.d_u)
    v = np.zeros(obj.d_v)
    for i in range(obj.n):
        assert value(obj, i, u, v) == pytest.approx(math.log(2.0), rel=1e-15)


def test_logistic_regularizer_vanishes_at_origin():
    obj = one_row_logistic([1.0], [1.0], +1.0, rho=1.0)
    assert value(obj, 0, np.zeros(1), np.zeros(1)) == pytest.approx(math.log(2.0), rel=1e-15)


def test_logistic_value_scalar_margin():
    obj = one_row_logistic([1.0], [0.0], +1.0, rho=0.0)
    got = value(obj, 0, np.array([2.0]), np.array([0.0]))
    assert got == pytest.approx(math.log(1.0 + math.exp(-2.0)), rel=1e-14)


def test_logistic_grads_at_origin():
    a = np.array([0.7, -1.2])
    b = np.array([0.4])
    obj = one_row_logistic(a, b, +1.0, rho=0.0)
    gu, gv = grads(obj, 0, np.zeros(2), np.zeros(1))
    assert np.allclose(gu, -a / 2, atol=1e-15)
    assert np.allclose(gv, -b / 2, atol=1e-15)
    # rho > 0 adds nothing at the origin
    obj_r = one_row_logistic(a, b, +1.0, rho=5.0)
    gu_r, gv_r = grads(obj_r, 0, np.zeros(2), np.zeros(1))
    assert np.array_equal(gu, gu_r) and np.array_equal(gv, gv_r)


def test_logistic_finite_difference():
    rng = stream(2, "probe")
    obj = random_logistic(rng, rho=0.01)
    worst = 0.0
    for p in range(100):
        i = p % obj.n
        u = rng.standard_normal(obj.d_u)
        v = rng.standard_normal(obj.d_v)
        worst = max(worst, fd_relative_error(obj, i, u, v))
    assert worst <= 1e-5


def test_logistic_regularizer_gradient_bounded():
    # zero-feature row isolates the rho part of grad_u; scalar max of
    # 2|u|/(1+|u|^2)^2 is 9/(8*sqrt(3)) ~ 0.6495
    obj = one_row_logistic([0.0, 0.0, 0.0], [0.0], +1.0, rho=1.0)
    rng = stream(3, "probe")
    seen = 0.0
    for _ in range(300):
        u = rng.standard_normal(3) * rng.uniform(0.0, 3.0)
        gu, _ = grads(obj, 0, u, np.zeros(1))
        seen = max(seen, float(np.sqrt(gu @ gu)))
    assert seen <= 0.65
    assert seen > 0.5  # the sampler actually got near the max


def test_logistic_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        LogisticObjective([])
    empty = ClientShard(client_id=1, X=np.zeros((0, 3)), y=np.zeros(0), d_u=2)
    with pytest.raises(ValueError):
        LogisticObjective([empty])
    good = ClientShard(client_id=1, X=np.zeros((1, 3)), y=np.ones(1), d_u=2)
    with pytest.raises(ValueError):
        LogisticObjective([good], rho=-0.1)
    with pytest.raises(ValueError):
        LogisticObjective([good], batch_size=0)
    other = ClientShard(client_id=2, X=np.zeros((1, 4)), y=np.ones(1), d_u=3)
    with pytest.raises(ValueError):
        LogisticObjective([good, other])
    pixels = ClientShard(client_id=2, X=np.zeros((1, 3), dtype=np.uint8), y=np.ones(1), d_u=2,
                         scale=255.0)
    with pytest.raises(ValueError, match="one feature dtype"):
        LogisticObjective([good, pixels])
    with pytest.raises(ValueError, match="V has 2 rows, expected 1"):
        LogisticObjective([good]).value_and_grads_all(np.zeros(2), np.zeros((2, 1)))


# ---------------------------------------------------------------- stochastic


def test_stoch_grad_noiseless_equals_exact():
    rng = stream(4, "probe")
    obj = quad(rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))
    u = rng.standard_normal(3)
    v = rng.standard_normal(2)
    g = grads(obj, 1, u, v)
    s = reference.stoch_grad(obj, 1, u, v, stream(4, "local", 0, 1))
    assert np.array_equal(g[0], s[0]) and np.array_equal(g[1], s[1])


def test_stoch_grad_noise_second_moment():
    obj = quad(np.zeros((1, 3)), np.zeros((1, 2)), sigma_u=1.0, sigma_v=0.5)
    u = np.array([0.1, -0.2, 0.3])
    v = np.array([1.0, 2.0])
    gu, gv = grads(obj, 0, u, v)
    rng = stream(5, "local", 0, 0)
    M = 100_000
    acc_u = 0.0
    acc_v = 0.0
    for _ in range(M):
        su, sv = reference.stoch_grad(obj, 0, u, v, rng)
        du = su - gu
        dv = sv - gv
        acc_u += float(du @ du)
        acc_v += float(dv @ dv)
    assert acc_u / M == pytest.approx(1.0, rel=0.03)
    assert acc_v / M == pytest.approx(0.25, rel=0.03)


def _unbiasedness_check(oracle, i, u, v, seed, M=100_000):
    gu, gv = grads(oracle, i, u, v)
    exact = np.concatenate([gu, gv])
    rng = stream(seed, "local", 0, i)
    total = np.zeros_like(exact)
    total_sq = np.zeros_like(exact)
    for _ in range(M):
        su, sv = reference.stoch_grad(oracle, i, u, v, rng)
        g = np.concatenate([su, sv])
        total += g
        total_sq += g * g
    mean = total / M
    var = np.maximum(total_sq / M - mean * mean, 0.0)
    bound = 4.0 * np.sqrt(var) / math.sqrt(M)
    assert np.all(np.abs(mean - exact) <= bound + 1e-14)


def test_stoch_grad_unbiased_quadratic():
    obj = quad([[1.0, 0.0, 2.0]], [[0.5, 0.5]], sigma_u=1.0, sigma_v=2.0)
    _unbiasedness_check(obj, 0, np.array([0.2, 0.1, 0.0]), np.array([1.0, -1.0]), seed=6)


def test_stoch_grad_unbiased_logistic():
    rng = stream(7, "probe")
    obj = random_logistic(rng, n=1, rows=7, batch_size=2)
    _unbiasedness_check(obj, 0, rng.standard_normal(obj.d_u), rng.standard_normal(obj.d_v), seed=8)


def test_logistic_single_row_batches_average_to_full_gradient():
    rng = stream(9, "probe")
    obj = random_logistic(rng, n=1, rows=6, rho=0.0)
    u = rng.standard_normal(obj.d_u)
    v = rng.standard_normal(obj.d_v)
    shard = obj.shards[0]
    per_row_u = []
    per_row_v = []
    for r in range(shard.n_rows):
        single = LogisticObjective(
            [ClientShard(client_id=1, X=shard.X[r : r + 1], y=shard.y[r : r + 1],
                         d_u=shard.d_u)],
            rho=0.0,
        )
        gu, gv = grads(single, 0, u, v)
        per_row_u.append(gu)
        per_row_v.append(gv)
    gu, gv = grads(obj, 0, u, v)
    assert np.allclose(np.mean(per_row_u, axis=0), gu, atol=1e-14)
    assert np.allclose(np.mean(per_row_v, axis=0), gv, atol=1e-14)


# -------------------------------------------------------- local-step kernels


def block_and_reference(obj, ids, u0, V0, Corr, K, gamma_u, gamma_v, seed):
    """local_steps_block over rows ids and the per-client reference loop
    reference.local_steps, each client on its own ("local", 0, i) stream."""
    fast = obj.local_steps_block(np.asarray(ids), u0, V0, Corr, K, gamma_u, gamma_v,
                                 [stream(seed, "local", 0, i) for i in ids])
    ref = [reference.local_steps(obj, i, u0, V0[j], K, gamma_u, gamma_v,
                                 stream(seed, "local", 0, i), Corr[j])
           for j, i in enumerate(ids)]
    return fast, (np.stack([r[0] for r in ref]), np.stack([r[1] for r in ref]))


def test_quad_local_steps_match_reference_loop_bitwise():
    rng = stream(10, "probe")
    obj = quad(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)),
               sigma_u=0.7, sigma_v=0.3)
    u0 = rng.standard_normal(3)
    V0 = rng.standard_normal((3, 2))
    Corr = rng.standard_normal((3, 3))
    fast, ref = block_and_reference(obj, [0, 1, 3], u0, V0, Corr, 9, 0.1, 0.2, seed=10)
    assert np.array_equal(ref[0], fast[0])
    assert np.array_equal(ref[1], fast[1])


def test_logistic_local_steps_match_reference_loop():
    rng = stream(11, "probe")
    obj = random_logistic(rng, n=3, rows=12, d_u=4, d_v=3, rho=0.05, batch_size=3)
    u0 = rng.standard_normal(4)
    V0 = rng.standard_normal((2, 3))
    Corr = rng.standard_normal((2, 4))
    fast, ref = block_and_reference(obj, [0, 2], u0, V0, Corr, 8, 0.2, 0.1, seed=11)
    assert np.array_equal(ref[0], fast[0])
    assert np.array_equal(ref[1], fast[1])


def test_logistic_local_steps_match_reference_loop_at_huge_margins():
    rng = stream(13, "probe")
    obj = random_logistic(rng, n=1, rows=12, d_u=4, d_v=3, rho=0.05, batch_size=3)
    s = obj.shards[0]
    scaled = ClientShard(client_id=s.client_id, X=500.0 * s.X, y=s.y, d_u=s.d_u)
    obj = LogisticObjective([scaled], rho=obj.rho, batch_size=obj.batch_size)
    u0 = rng.standard_normal(4)
    v0 = rng.standard_normal(3)
    corr = rng.standard_normal(4)
    margins = scaled.y * (scaled.A @ u0 + scaled.B @ v0)
    # past the point where math.exp(|margin|) overflows, on both signs
    assert margins.max() > 800.0 and margins.min() < -800.0
    fast, ref = block_and_reference(obj, [0], u0, v0[None], corr[None], 8, 0.2, 0.1, seed=13)
    assert np.all(np.isfinite(fast[0])) and np.all(np.isfinite(fast[1]))
    assert np.array_equal(ref[0], fast[0])
    assert np.array_equal(ref[1], fast[1])

    # full-batch value and gradients at the same margins, against an
    # independent logaddexp form: loss logaddexp(0, -m), sigmoid(-m) as
    # exp(-logaddexp(0, m))
    val, g_u, g_v = obj.value_and_grads(0, u0, v0)
    su, sv = float(u0 @ u0), float(v0 @ v0)
    w = -scaled.y * np.exp(-np.logaddexp(0.0, margins))
    rows = scaled.y.size
    want_val = np.logaddexp(0.0, -margins).mean() + obj.rho * (su / (1 + su) + sv / (1 + sv))
    want_u = scaled.A.T @ w / rows + obj.rho * 2.0 * u0 / (1 + su) ** 2
    want_v = scaled.B.T @ w / rows + obj.rho * 2.0 * v0 / (1 + sv) ** 2
    assert math.isfinite(val) and np.all(np.isfinite(g_u)) and np.all(np.isfinite(g_v))
    assert val == pytest.approx(want_val, rel=1e-12)
    assert np.allclose(g_u, want_u, rtol=1e-12, atol=1e-12)
    assert np.allclose(g_v, want_v, rtol=1e-12, atol=1e-12)


def test_local_steps_zero_gamma_is_identity():
    rng = stream(12, "probe")
    obj = quad(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), sigma_u=1.0)
    u0 = rng.standard_normal(2)
    V0 = rng.standard_normal((2, 2))
    U, V = obj.local_steps_block(np.array([0, 1]), u0, V0, np.zeros((2, 2)), 5, 0.0, 0.0,
                                 [stream(12, "local", 0, i) for i in (0, 1)])
    assert np.array_equal(U, np.stack([u0, u0])) and np.array_equal(V, V0)


# ------------------------------------------------------ stored feature dtype


def float_shards(rng, n, rows, d_u, d_v):
    """(shards, blocks): n random float64 shards and, per shard, its own
    contiguous (A, B, y) arrays for the float64 reference loop."""
    blocks = [(rng.standard_normal((rows, d_u)), rng.standard_normal((rows, d_v)),
               np.where(rng.random(rows) < 0.5, -1.0, 1.0)) for _ in range(n)]
    shards = [ClientShard(client_id=i + 1, X=np.hstack([A, B]), y=y, d_u=d_u)
              for i, (A, B, y) in enumerate(blocks)]
    return shards, blocks


def test_logistic_float_shards_equal_float64_loop_bitwise():
    # scale 1.0: x / 1.0 and 1.0 * rows are exact, and the column views of
    # one cast block give the gemvs of separate A[r] and B[r]; the 300-row
    # full batch sums over row chunks, so it matches within tolerance
    rng = stream(16, "probe")
    d_u, d_v, rows, batch, K, rho = 40, 30, 300, 50, 6, 0.05
    shards, blocks = float_shards(rng, 3, rows, d_u, d_v)
    obj = LogisticObjective(shards, rho=rho, batch_size=batch)
    ids = [0, 2]
    u0 = rng.standard_normal(d_u)
    V0 = rng.standard_normal((2, d_v))
    Corr = rng.standard_normal((2, d_u))
    U, V = obj.local_steps_block(np.array(ids), u0, V0, Corr, K, 0.2, 0.1,
                                 [stream(16, "local", 0, i) for i in ids])
    idx = [stream(16, "local", 0, i).integers(0, rows, size=(K, batch)) for i in ids]
    U_ref, V_ref = reference.logistic_local_steps(u0, V0, [blocks[i] for i in ids], rho,
                                                  0.2, 0.1, idx, Corr)
    assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref)

    v0 = V0[0]
    su, sv = float(u0 @ u0), float(v0 @ v0)
    for i, (A, B, y) in enumerate(blocks):
        val, g_u, g_v = obj.value_and_grads(i, u0, v0)
        margin, want_u, want_v = reference.logistic_grads(A, B, y, u0, v0, rho)
        want_val = (float(np.logaddexp(0.0, -margin).mean())
                    + rho * (su / (1.0 + su) + sv / (1.0 + sv)))
        assert val == pytest.approx(want_val, rel=1e-12)
        assert_close(g_u, want_u)
        assert_close(g_v, want_v)
        G_u, G_v = obj.stoch_grads(i, u0, v0, K, stream(16, "cv_init", i))
        draws = stream(16, "cv_init", i).integers(0, rows, size=(K, batch))
        for k, r in enumerate(draws):
            _, want_u, want_v = reference.logistic_grads(A[r], B[r], y[r], u0, v0, rho)
            assert np.array_equal(G_u[k], want_u) and np.array_equal(G_v[k], want_v)


CHUNK = kernels._CHUNK_ROWS
CHUNK_EDGES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


def test_full_batch_matches_float64_loop_at_chunk_edges():
    rng = stream(18, "probe")
    d_u, d_v, rho = 7, 4, 0.05
    blocks = [float_shards(rng, 1, rows, d_u, d_v)[1][0] for rows in CHUNK_EDGES]
    obj = LogisticObjective([ClientShard(client_id=i + 1, X=np.hstack([A, B]), y=y, d_u=d_u)
                             for i, (A, B, y) in enumerate(blocks)], rho=rho)
    u = rng.standard_normal(d_u)
    V = rng.standard_normal((obj.n, d_v))
    vals, G_u, G_v = obj.value_and_grads_all(u, V)
    su = float(u @ u)
    for i, ((A, B, y), v) in enumerate(zip(blocks, V)):
        margin, want_u, want_v = reference.logistic_grads(A, B, y, u, v, rho)
        sv = float(v @ v)
        want_val = (float(np.logaddexp(0.0, -margin).mean())
                    + rho * (su / (1.0 + su) + sv / (1.0 + sv)))
        val, g_u, g_v = obj.value_and_grads(i, u, v)
        assert val == pytest.approx(want_val, rel=1e-12)
        assert_close(g_u, want_u)
        assert_close(g_v, want_v)
        # the metrics pass gives each client's own call bitwise
        assert vals[i] == val
        assert np.array_equal(G_u[i], g_u) and np.array_equal(G_v[i], g_v)


# blocks of at least 4 columns: the backward product of a strided block of
# 1-3 columns is not bitwise that of its contiguous copy (README, numerics)
@pytest.mark.parametrize("batch,d_u,d_v", [(1, 5, 4), (3, 4, 7), (CHUNK + 1, 6, 4)])
def test_logistic_step_kernel_equals_float64_loop_bitwise(batch, d_u, d_v):
    rng = stream(19, "probe")
    shards, blocks = float_shards(rng, 3, 2 * CHUNK + 3, d_u, d_v)
    K, rho = 5, 0.05
    u0 = rng.standard_normal(d_u)
    V0 = rng.standard_normal((3, d_v))
    Corr = rng.standard_normal((3, d_u))
    idx = [rng.integers(0, 2 * CHUNK + 3, size=(K, batch)) for _ in range(3)]
    U, V = kernels.logistic_local_steps(
        u0, V0, [(s.X, s.y, s.scale) for s in shards], rho, 0.2, 0.1, idx, Corr,
        kernels.LogisticWork(d_u, d_v, np.float64, batch))
    U_ref, V_ref = reference.logistic_local_steps(u0, V0, blocks, rho, 0.2, 0.1, idx, Corr)
    assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref)


def pixel_and_float_oracles(n=4, cap=40, rho=0.01, batch_size=20):
    """The same label-sorted corpus as uint8 pixel shards (partition_clients)
    and as float64 shards built the old way (reference.capped_shards)."""
    rng = stream(17, "probe")
    pixels = rng.integers(0, 256, size=(203, 784)).astype(np.uint8)
    labels = rng.integers(0, 10, size=203)
    pixel = dataio.partition_clients(RawDataset(images=pixels, labels=labels), n,
                                     "by_label", 9, 392, 392, cap=cap)
    flt = reference.capped_shards(pixels, labels, n, "by_label", 9, 392, 392, cap)
    return (LogisticObjective(pixel, rho=rho, batch_size=batch_size),
            LogisticObjective(flt, rho=rho, batch_size=batch_size))


def assert_close(got, want):
    # aim 2's tolerance for logistic iterates
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14), np.max(np.abs(got - want))


def test_pixel_shards_match_float_shards_within_tolerance():
    pixel, flt = pixel_and_float_oracles()
    assert all(s.X.dtype == np.uint8 for s in pixel.shards)
    rng = stream(17, "point")
    u = 0.1 * rng.standard_normal(392)
    v = 0.1 * rng.standard_normal(392)
    for i in range(pixel.n):
        val, g_u, g_v = pixel.value_and_grads(i, u, v)
        want_val, want_u, want_v = flt.value_and_grads(i, u, v)
        assert val == pytest.approx(want_val, rel=1e-12)
        assert_close(g_u, want_u)
        assert_close(g_v, want_v)
        G_u, G_v = pixel.stoch_grads(i, u, v, 5, stream(17, "cv_init", i))
        W_u, W_v = flt.stoch_grads(i, u, v, 5, stream(17, "cv_init", i))
        assert_close(G_u, W_u)
        assert_close(G_v, W_v)

    hp = HyperParams(gamma_u=0.05, gamma_v=0.05, eta_u=1.0, eta_v=1.0, K=5, T=5, m=3)
    got = run_training("scaffold_p", pixel, hp, seed=17)
    want = run_training("scaffold_p", flt, hp, seed=17)
    assert [tr.sampled for tr in got.traces] == [tr.sampled for tr in want.traces]
    for a, b in ((got.u, want.u), (got.v_all, want.v_all),
                 (got.server.c, want.server.c), (got.clients.C, want.clients.C)):
        assert_close(a, b)
    assert [tr.f_value for tr in got.traces] == pytest.approx(
        [tr.f_value for tr in want.traces], rel=1e-12)


# ------------------------------------------------------------- block passes


def test_value_and_grads_all_match_per_client_calls_bitwise():
    rng = stream(14, "probe")
    for obj in (quad(rng.standard_normal((5, 3)), rng.standard_normal((5, 4))),
                random_logistic(rng, n=4, rows=9, d_u=3, d_v=4, rho=0.05)):
        u = rng.standard_normal(3)
        V = rng.standard_normal((obj.n, 4))
        vals, G_u, G_v = obj.value_and_grads_all(u, V)
        for i in range(obj.n):
            val, g_u, g_v = obj.value_and_grads(i, u, V[i])
            assert vals[i] == val
            assert np.array_equal(G_u[i], g_u) and np.array_equal(G_v[i], g_v)


def test_stoch_grads_block_equals_single_draws_bitwise():
    rng = stream(15, "probe")
    for obj in (quad(rng.standard_normal((2, 3)), rng.standard_normal((2, 2)),
                     sigma_u=0.8, sigma_v=0.4),
                random_logistic(rng, n=2, rows=11, d_u=3, d_v=2, batch_size=5)):
        u = rng.standard_normal(3)
        v = rng.standard_normal(2)
        G_u, G_v = obj.stoch_grads(1, u, v, 7, stream(15, "cv_init", 1))
        single = stream(15, "cv_init", 1)
        for k in range(7):
            g_u, g_v = reference.stoch_grad(obj, 1, u, v, single)
            assert np.array_equal(G_u[k], g_u) and np.array_equal(G_v[k], g_v)


# ------------------------------------------------------------ dependencies


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedpart.__file__)))
    code = ("import sys, fedpart, fedpart.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
