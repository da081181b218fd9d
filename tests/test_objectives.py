"""Objective oracles: closed-form values, gradient correctness against
finite differences, stochastic-gradient moments, and the equivalence of the
batched local steps with the per-step reference loop."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fedpart
import reference
from fedpart import dataio, objectives
from fedpart.dataio import ClientShard, RawDataset
from fedpart.fedcore import HyperParams, run_training
from fedpart.objectives import LogisticObjective
from fedpart.objectives import QuadraticObjective as quad
from fedpart.rng import stream
from reference import random_logistic


def one_row_logistic(a, b, c, rho=0.0, batch_size=1):
    shard = ClientShard(
        X=np.hstack([np.asarray([a], dtype=float), np.asarray([b], dtype=float)]),
        y=np.asarray([c], dtype=float),
    )
    return LogisticObjective([shard], len(a), rho=rho, batch_size=batch_size)


def value(oracle, i, u, v):
    return oracle.value_and_grads([i], u, v[None])[0][0]


def grads(oracle, i, u, v):
    _, (g_u,), (g_v,) = oracle.value_and_grads([i], u, v[None])
    return g_u, g_v


def fd_relative_error(oracle, i, u, v):
    gu, gv = grads(oracle, i, u, v)
    fu, fv = reference.central_diff(oracle, i, u, v)
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
    obj = random_logistic(rng, rows=7, rho=0.0)
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
    obj = random_logistic(rng, rows=7, rho=0.01)
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
        LogisticObjective([], 1)
    empty = ClientShard(X=np.zeros((0, 3)), y=np.zeros(0))
    with pytest.raises(ValueError):
        LogisticObjective([empty], 2)
    good = ClientShard(X=np.zeros((1, 3)), y=np.ones(1))
    with pytest.raises(ValueError):
        LogisticObjective([good], 2, rho=-0.1)
    with pytest.raises(ValueError):
        LogisticObjective([good], 2, batch_size=0)
    # shards of different widths have no one split
    wider = ClientShard(X=np.zeros((1, 4)), y=np.ones(1))
    with pytest.raises(ValueError, match="^shard 1 has 4 features, shard 0 has 3$"):
        LogisticObjective([good, wider], 2)
    with pytest.raises(ValueError, match=r"V has shape \(2, 1\), expected \(1, 1\)"):
        LogisticObjective([good], 2).value_and_grads([0], np.zeros(2), np.zeros((2, 1)))


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
    # one block of 100,000 draws, bitwise the one-draw calls in turn
    (G_u,), (G_v,) = obj.stoch_grads([0], u, v[None], 100_000, [stream(5, "local", 0, 0)])
    assert np.square(G_u - gu).sum(axis=1).mean() == pytest.approx(1.0, rel=0.03)
    assert np.square(G_v - gv).sum(axis=1).mean() == pytest.approx(0.25, rel=0.03)


def _unbiasedness_check(oracle, i, u, v, seed, M=100_000):
    exact = np.concatenate(grads(oracle, i, u, v))
    # one block of M draws, bitwise the one-draw calls in turn
    G = np.hstack([G[0] for G in oracle.stoch_grads([i], u, v[None], M,
                                                    [stream(seed, "local", 0, i)])])
    bound = 4.0 * G.std(axis=0) / math.sqrt(M)
    assert np.all(np.abs(G.mean(axis=0) - exact) <= bound + 1e-14)


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
            [ClientShard(X=shard.X[r : r + 1], y=shard.y[r : r + 1])], obj.d_u,
            rho=0.0,
        )
        gu, gv = grads(single, 0, u, v)
        per_row_u.append(gu)
        per_row_v.append(gv)
    gu, gv = grads(obj, 0, u, v)
    assert np.allclose(np.mean(per_row_u, axis=0), gu, atol=1e-14)
    assert np.allclose(np.mean(per_row_v, axis=0), gv, atol=1e-14)


# --------------------------------------------------------------- local steps


def block_and_reference(obj, ids, u0, V0, Corr, K, gamma_u, gamma_v, seed):
    """local_steps over rows ids and the per-client reference loop
    reference.local_steps, each client on its own ("local", 0, i) stream."""
    fast = obj.local_steps(ids, u0, V0, Corr, K, gamma_u, gamma_v,
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
    scaled = ClientShard(X=500.0 * s.X, y=s.y)
    obj = LogisticObjective([scaled], obj.d_u, rho=obj.rho, batch_size=obj.batch_size)
    u0 = rng.standard_normal(4)
    v0 = rng.standard_normal(3)
    corr = rng.standard_normal(4)
    A, B = scaled.X[:, :4], scaled.X[:, 4:]
    margins = scaled.y * (A @ u0 + B @ v0)
    # past the point where math.exp(|margin|) overflows, on both signs
    assert margins.max() > 800.0 and margins.min() < -800.0
    fast, ref = block_and_reference(obj, [0], u0, v0[None], corr[None], 8, 0.2, 0.1, seed=13)
    assert np.all(np.isfinite(fast[0])) and np.all(np.isfinite(fast[1]))
    assert np.array_equal(ref[0], fast[0])
    assert np.array_equal(ref[1], fast[1])

    # full-batch value and gradients at the same margins, against an
    # independent logaddexp form: loss logaddexp(0, -m), sigmoid(-m) as
    # exp(-logaddexp(0, m))
    (val,), (g_u,), (g_v,) = obj.value_and_grads([0], u0, v0[None])
    su, sv = float(u0 @ u0), float(v0 @ v0)
    w = -scaled.y * np.exp(-np.logaddexp(0.0, margins))
    rows = scaled.y.size
    want_val = np.logaddexp(0.0, -margins).mean() + obj.rho * (su / (1 + su) + sv / (1 + sv))
    want_u = A.T @ w / rows + obj.rho * 2.0 * u0 / (1 + su) ** 2
    want_v = B.T @ w / rows + obj.rho * 2.0 * v0 / (1 + sv) ** 2
    assert math.isfinite(val) and np.all(np.isfinite(g_u)) and np.all(np.isfinite(g_v))
    assert val == pytest.approx(want_val, rel=1e-12)
    assert np.allclose(g_u, want_u, rtol=1e-12, atol=1e-12)
    assert np.allclose(g_v, want_v, rtol=1e-12, atol=1e-12)


def bit_state(g):
    """A generator's bit-generator state as JSON text, arrays as lists."""
    return json.dumps(g.bit_generator.state, default=np.ndarray.tolist)


def test_local_steps_zero_gamma_is_identity():
    # and each row's generator ends where a K-draw stoch_grads row leaves a
    # fresh generator of the same stream
    rng = stream(12, "probe")
    for obj in (quad(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), sigma_u=1.0),
                random_logistic(rng, n=2, rows=9, d_u=2, d_v=2, batch_size=3)):
        u0 = rng.standard_normal(2)
        V0 = rng.standard_normal((2, 2))
        rngs = [stream(12, "local", 0, i) for i in (0, 1)]
        U, V = obj.local_steps([0, 1], u0, V0, np.zeros((2, 2)), 5, 0.0, 0.0, rngs)
        assert np.array_equal(U, np.stack([u0, u0])) and np.array_equal(V, V0)
        for i, g in enumerate(rngs):
            fresh = stream(12, "local", 0, i)
            obj.stoch_grads([i], u0, V0[i:i + 1], 5, [fresh])
            assert bit_state(g) == bit_state(fresh)


# ------------------------------------------------------ stored feature dtype


def float_shards(rng, n, rows, d_u, d_v):
    """(shards, blocks): n random float64 shards and, per shard, its own
    contiguous (A, B, y) arrays for the float64 reference loop."""
    blocks = [(rng.standard_normal((rows, d_u)), rng.standard_normal((rows, d_v)),
               np.where(rng.random(rows) < 0.5, -1.0, 1.0)) for _ in range(n)]
    shards = [ClientShard(X=np.hstack([A, B]), y=y) for A, B, y in blocks]
    return shards, blocks


def test_logistic_float_shards_equal_float64_loop_bitwise():
    # scale 1.0: x / 1.0 and 1.0 * rows are exact, and the column views of
    # one cast block give the gemvs of separate A[r] and B[r]; the 300-row
    # full batch sums over row chunks, so it matches within tolerance
    rng = stream(16, "probe")
    d_u, d_v, rows, batch, K, rho = 40, 30, 300, 50, 6, 0.05
    shards, blocks = float_shards(rng, 3, rows, d_u, d_v)
    obj = LogisticObjective(shards, d_u, rho=rho, batch_size=batch)
    ids = [0, 2]
    u0 = rng.standard_normal(d_u)
    V0 = rng.standard_normal((2, d_v))
    Corr = rng.standard_normal((2, d_u))
    U, V = obj.local_steps(ids, u0, V0, Corr, K, 0.2, 0.1,
                           [stream(16, "local", 0, i) for i in ids])
    idx = [stream(16, "local", 0, i).integers(0, rows, size=(K, batch)) for i in ids]
    U_ref, V_ref = reference.logistic_local_steps(u0, V0, [blocks[i] for i in ids], rho,
                                                  0.2, 0.1, idx, Corr)
    assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref)

    v0 = V0[0]
    su, sv = float(u0 @ u0), float(v0 @ v0)
    for i, (A, B, y) in enumerate(blocks):
        (val,), (g_u,), (g_v,) = obj.value_and_grads([i], u0, v0[None])
        margin, want_u, want_v = reference.logistic_grads(A, B, y, u0, v0, rho)
        want_val = (float(np.logaddexp(0.0, -margin).mean())
                    + rho * (su / (1.0 + su) + sv / (1.0 + sv)))
        assert val == pytest.approx(want_val, rel=1e-12)
        assert_close(g_u, want_u)
        assert_close(g_v, want_v)
        (G_u,), (G_v,) = obj.stoch_grads([i], u0, v0[None], K, [stream(16, "cv_init", i)])
        draws = stream(16, "cv_init", i).integers(0, rows, size=(K, batch))
        for k, r in enumerate(draws):
            _, want_u, want_v = reference.logistic_grads(A[r], B[r], y[r], u0, v0, rho)
            assert np.array_equal(G_u[k], want_u) and np.array_equal(G_v[k], want_v)


CHUNK = objectives._CHUNK_ROWS
CHUNK_EDGES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


def test_full_batch_matches_float64_loop_at_chunk_edges():
    rng = stream(18, "probe")
    d_u, d_v, rho = 7, 4, 0.05
    blocks = [float_shards(rng, 1, rows, d_u, d_v)[1][0] for rows in CHUNK_EDGES]
    obj = LogisticObjective([ClientShard(X=np.hstack([A, B]), y=y) for A, B, y in blocks],
                            d_u, rho=rho)
    u = rng.standard_normal(d_u)
    V = rng.standard_normal((obj.n, d_v))
    vals, G_u, G_v = obj.value_and_grads(np.arange(obj.n), u, V)
    su = float(u @ u)
    for i, ((A, B, y), v) in enumerate(zip(blocks, V)):
        margin, want_u, want_v = reference.logistic_grads(A, B, y, u, v, rho)
        sv = float(v @ v)
        want_val = (float(np.logaddexp(0.0, -margin).mean())
                    + rho * (su / (1.0 + su) + sv / (1.0 + sv)))
        (val,), (g_u,), (g_v,) = obj.value_and_grads([i], u, v[None])
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
    rows, K, rho = 2 * CHUNK + 3, 5, 0.05
    shards, blocks = float_shards(rng, 3, rows, d_u, d_v)
    obj = LogisticObjective(shards, d_u, rho=rho, batch_size=batch)
    u0 = rng.standard_normal(d_u)
    V0 = rng.standard_normal((3, d_v))
    Corr = rng.standard_normal((3, d_u))
    U, V = obj.local_steps([0, 1, 2], u0, V0, Corr, K, 0.2, 0.1,
                           [stream(19, "local", 0, i) for i in range(3)])
    idx = [stream(19, "local", 0, i).integers(0, rows, size=(K, batch)) for i in range(3)]
    U_ref, V_ref = reference.logistic_local_steps(u0, V0, blocks, rho, 0.2, 0.1, idx, Corr)
    assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref)


def pixel_and_float_oracles(n=4, cap=40, rho=0.01, batch_size=20):
    """The same label-sorted corpus as uint8 pixel shards (partition_clients)
    and as float64 shards built the old way (reference.capped_shards)."""
    rng = stream(17, "probe")
    pixels = rng.integers(0, 256, size=(203, 784)).astype(np.uint8)
    labels = rng.integers(0, 10, size=203)
    pixel = dataio.partition_clients(RawDataset(images=pixels, labels=labels), n,
                                     "by_label", 9, cap=cap)
    flt = reference.capped_shards(pixels, labels, n, "by_label", 9, cap)
    return (LogisticObjective(pixel, 392, rho=rho, batch_size=batch_size),
            LogisticObjective(flt, 392, rho=rho, batch_size=batch_size))


def assert_close(got, want):
    # aim 2's tolerance for logistic iterates
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14), np.max(np.abs(got - want))


def test_pixel_shards_match_float_shards_within_tolerance():
    pixel, flt = pixel_and_float_oracles()
    assert all(s.X.dtype == np.uint8 for s in pixel.shards)
    rng = stream(17, "point")
    u = 0.1 * rng.standard_normal(392)
    v = 0.1 * rng.standard_normal(392)
    ids = np.arange(pixel.n)
    V = np.tile(v, (pixel.n, 1))
    vals, G_u, G_v = pixel.value_and_grads(ids, u, V)
    want_vals, want_u, want_v = flt.value_and_grads(ids, u, V)
    assert vals == pytest.approx(want_vals, rel=1e-12)
    assert_close(G_u, want_u)
    assert_close(G_v, want_v)
    G_u, G_v = pixel.stoch_grads(ids, u, V, 5, [stream(17, "cv_init", i) for i in ids])
    W_u, W_v = flt.stoch_grads(ids, u, V, 5, [stream(17, "cv_init", i) for i in ids])
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


# ------------------------------------------------------------- row contract


def row_objective(kind, rng):
    """A noisy quadratic or a logistic objective of 5 clients, d_u = 3 and
    d_v = 4."""
    if kind == "quadratic":
        return quad(rng.standard_normal((5, 3)), rng.standard_normal((5, 4)),
                    sigma_u=0.8, sigma_v=0.4)
    return random_logistic(rng, n=5, rows=9, d_u=3, d_v=4, rho=0.05, batch_size=3)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_one_row_calls_equal_their_rows_of_larger_calls_bitwise(kind):
    def rngs(rows):
        return [stream(14, "local", 0, j) for j in rows]

    rng = stream(14, "probe")
    obj = row_objective(kind, rng)
    # all clients in order, one client twice, unordered ids with a repeat
    for ids in (list(range(obj.n)), [2, 2], [3, 1, 4, 0, 1]):
        U = rng.standard_normal((len(ids), 3))
        V = rng.standard_normal((len(ids), 4))
        Corr = rng.standard_normal((len(ids), 3))
        for start in (U, U[0]):  # one start per row, or one for every row
            full = obj.value_and_grads(ids, start, V)
            steps = obj.local_steps(ids, start, V, Corr, 4, 0.1, 0.2, rngs(range(len(ids))))
            for j, i in enumerate(ids):
                u = start if start.ndim == 1 else start[j:j + 1]
                one = obj.value_and_grads([i], u, V[j:j + 1])
                assert all(np.array_equal(x[j], y[0]) for x, y in zip(full, one))
                one = obj.local_steps([i], u, V[j:j + 1], Corr[j:j + 1], 4, 0.1, 0.2, rngs([j]))
                assert all(np.array_equal(x[j], y[0]) for x, y in zip(steps, one))
    if kind == "logistic":
        # shards of different stored dtypes: each row is its shard's own
        # objective's row
        pixels = ClientShard(X=rng.integers(0, 256, size=(9, 7)).astype(np.uint8),
                             y=np.where(rng.random(9) < 0.5, -1.0, 1.0), scale=255.0)
        mixed = LogisticObjective([pixels, obj.shards[0]], 3, rho=0.05, batch_size=3)
        ids = [1, 0, 0, 1]
        U, V, Corr = (rng.standard_normal((4, d)) for d in (3, 4, 3))
        full = mixed.value_and_grads(ids, U, V)
        steps = mixed.local_steps(ids, U, V, Corr, 4, 0.1, 0.2, rngs(range(4)))
        for j, i in enumerate(ids):
            alone = LogisticObjective([mixed.shards[i]], 3, rho=0.05, batch_size=3)
            one = alone.value_and_grads([0], U[j:j + 1], V[j:j + 1])
            assert all(np.array_equal(x[j], y[0]) for x, y in zip(full, one))
            one = alone.local_steps([0], U[j:j + 1], V[j:j + 1], Corr[j:j + 1], 4, 0.1, 0.2,
                                    rngs([j]))
            assert all(np.array_equal(x[j], y[0]) for x, y in zip(steps, one))


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_stoch_grads_rows_equal_one_row_calls_on_their_generators_bitwise(kind):
    rng = stream(15, "probe")
    obj = row_objective(kind, rng)
    ids = [3, 1, 1, 4]
    U = rng.standard_normal((4, 3))
    V = rng.standard_normal((4, 4))
    G_u, G_v = obj.stoch_grads(ids, U, V, 7, [stream(15, "cv_init", j) for j in range(4)])
    assert G_u.shape == (4, 7, 3) and G_v.shape == (4, 7, 4)
    for j, i in enumerate(ids):
        (g_u,), (g_v,) = obj.stoch_grads([i], U[j], V[j:j + 1], 7, [stream(15, "cv_init", j)])
        assert np.array_equal(G_u[j], g_u) and np.array_equal(G_v[j], g_v)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_wrong_row_shapes_raise_naming_the_array(kind):
    obj = row_objective(kind, stream(16, "probe"))
    ids = [0, 1]
    rngs = [stream(16, "local", 0, i) for i in ids]
    calls = (lambda ids, U, V: obj.value_and_grads(ids, U, V),
             lambda ids, U, V: obj.stoch_grads(ids, U, V, 2, rngs),
             lambda ids, U, V: obj.local_steps(ids, U, V, np.zeros((2, 3)), 2, 0.1, 0.1, rngs))
    U, V = np.zeros((2, 3)), np.zeros((2, 4))
    for call in calls:
        for bad_U, bad_V, match in (
                (np.zeros(4), V, r"^U has shape \(4,\), expected \(3,\) or \(2, 3\)$"),
                (np.zeros((3, 3)), V, r"^U has shape \(3, 3\), expected"),
                (U, np.zeros((2, 5)), r"^V has shape \(2, 5\), expected \(2, 4\)$"),
                (U, np.zeros(4), r"^V has shape \(4,\), expected \(2, 4\)$")):
            with pytest.raises(ValueError, match=match):
                call(ids, bad_U, bad_V)
        # unchecked, -1 would read client 4's row and 5 raise IndexError
        for bad_ids, bad in (([0, -1], -1), ([5, 1], 5)):
            with pytest.raises(ValueError, match=rf"^ids must lie in \[0, 5\), got \[{bad}\]$"):
                call(bad_ids, U, V)
        # unchecked, 1.5 and True would read client 1's row and 1.0 raise
        # numpy's TypeError
        for bad_ids, dtype in (([1.5, 0], "float64"), ([True, False], "bool"),
                               (np.array([1.0, 0.0]), "float64")):
            with pytest.raises(ValueError, match=rf"^ids must be integers, got dtype {dtype}$"):
                call(bad_ids, U, V)
        # unchecked, a scalar id raised TypeError (no len()) and a nested
        # list numpy's ambiguous truth value, naming neither ids
        for bad_ids, shape in ((1, r"\(\)"), (np.int64(1), r"\(\)"), ([[0, 1]], r"\(1, 2\)")):
            with pytest.raises(ValueError, match=rf"^ids must be 1-D, got shape {shape}$"):
                call(bad_ids, U, V)
    # [] is a float64 array, and a call of no rows returns no rows
    assert [x.shape for x in calls[0]([], U[0], V[:0])] == [(0,), (0, 3), (0, 4)]
    # one generator short: unchecked, the logistic rows past it would come
    # back unwritten
    for call in calls[1:]:
        rngs.pop()
        with pytest.raises(ValueError, match=r"^rngs has 1 generators, expected 2$"):
            call(ids, U, V)
        rngs.append(stream(16, "local", 0, 1))
    # a short Corr: unchecked, the logistic rows past it would come back
    # unwritten
    with pytest.raises(ValueError, match=r"^Corr has shape \(1, 3\), expected \(2, 3\)$"):
        obj.local_steps(ids, U, V, np.zeros((1, 3)), 2, 0.1, 0.1, rngs)


def test_stoch_grads_block_equals_single_draws_bitwise():
    rng = stream(15, "probe")
    for obj in (quad(rng.standard_normal((2, 3)), rng.standard_normal((2, 2)),
                     sigma_u=0.8, sigma_v=0.4),
                random_logistic(rng, n=2, rows=11, d_u=3, d_v=2, batch_size=5)):
        u = rng.standard_normal(3)
        v = rng.standard_normal(2)
        (G_u,), (G_v,) = obj.stoch_grads([1], u, v[None], 7, [stream(15, "cv_init", 1)])
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
