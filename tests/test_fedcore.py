"""Algorithm mechanics: sampling, local steps, merging, control variates,
full rounds and training runs, and the theory-prescribed step sizes.

The matched-seed reductions of the whole round (corrected == uncorrected for
n=1, eta=1 == a straight-line reimplementation, the control-variate mean)
are acceptance criteria 6 and 7 (`test_acceptance.py`); here one round is
pinned to a parallel SGD step for K=1, m=n, eta=1.
"""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import reference
from fedpart import dataio, fedcore, metrics
from fedpart.fedcore import (
    HyperParams,
    ServerState,
    TrainingResult,
    aggregate_shared,
    init_control_variates,
    merge_personal,
    recommended_step_sizes,
    round_streams,
    run_replicas,
    run_round,
    run_training,
    sample_clients,
    start_rounds,
    update_client_control,
    update_server_control,
)
from fedpart.objectives import LogisticObjective, ObjectiveOracle, QuadraticObjective, join_replicas
from fedpart.objectives import QuadraticObjective as quad
from fedpart.rng import stream


def hp_of(gamma_u=0.1, gamma_v=0.1, eta_u=1.0, eta_v=1.0, K=1, T=1, m=1):
    return HyperParams(gamma_u=gamma_u, gamma_v=gamma_v, eta_u=eta_u,
                       eta_v=eta_v, K=K, T=T, m=m)


def client_steps(u0, v0, obj, i, hp, rng, c_i=None, c=None):
    """Client i's local steps through a one-row `local_steps` call; the
    correction c_i - c applies when both are given."""
    corr = np.zeros(obj.d_u) if c_i is None else c_i - c
    U, V = obj.local_steps([i], u0, v0[None], corr[None], hp.K, hp.gamma_u, hp.gamma_v, [rng])
    return U[0], V[0]


# -------------------------------------------------------------- hyperparams


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="gamma_u"):
        hp_of(gamma_u=-0.1)
    with pytest.raises(ValueError, match="eta_v"):
        hp_of(eta_v=-1.0)
    with pytest.raises(ValueError, match="K"):
        hp_of(K=0)
    with pytest.raises(ValueError, match="T"):
        hp_of(T=-1)
    with pytest.raises(ValueError, match="m"):
        hp_of(m=0)
    hp_of(gamma_u=0.0, gamma_v=0.0)  # zero steps allowed


@pytest.mark.parametrize("name", ["gamma_u", "gamma_v", "eta_u", "eta_v"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_hyperparams_reject_non_finite_steps(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        hp_of(**{name: value})


@pytest.mark.parametrize("name", ["K", "T", "m"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_hyperparams_reject_non_int_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        hp_of(**{name: value})
    assert hp_of(**{name: np.int64(2)}) is not None  # numpy ints are ints


# ----------------------------------------------------------------- sampling


def test_sample_full_set():
    for seed in range(5):
        got = sample_clients(6, 6, stream(seed, "sample", 0))
        assert np.array_equal(got, np.arange(6))


def test_sample_is_sorted_m_subset():
    rng = stream(60, "sample", 0)
    for _ in range(200):
        got = sample_clients(7, 3, rng)
        assert got.shape == (3,)
        assert len(set(got.tolist())) == 3
        assert np.all(np.diff(got) > 0)
        assert got.min() >= 0 and got.max() < 7


class _SwapTargets:
    """Stands in for a generator: its one draw is the given swap targets,
    asked for as r_j uniform on {j..n-1}."""

    def __init__(self, n, m, targets):
        self.n, self.m, self.targets = n, m, targets

    def integers(self, low, high):
        assert np.array_equal(low, np.arange(self.m)) and high == self.n
        return np.array(self.targets)


@pytest.mark.parametrize("n,m", [(3, 2), (10, 1), (5, 3)])
def test_sample_counts_each_subset_m_factorial_times(n, m):
    # every equally likely swap-target vector once: the n!/(n-m)! vectors
    # give each m-subset exactly m! times, so the sample is uniform
    counts = {}
    for targets in itertools.product(*(range(j, n) for j in range(m))):
        subset = tuple(sample_clients(n, m, _SwapTargets(n, m, targets)).tolist())
        counts[subset] = counts.get(subset, 0) + 1
    assert sum(counts.values()) == math.perm(n, m)
    assert counts == dict.fromkeys(itertools.combinations(range(n), m), math.factorial(m))


def test_sample_equals_per_draw_fisher_yates():
    # the loop sample_clients replaced: one scalar draw per swap
    def per_draw(n, m, rng):
        idx = np.arange(n)
        for j in range(m):
            r = int(rng.integers(j, n))
            idx[j], idx[r] = idx[r], idx[j]
        return np.sort(idx[:m])

    for n, m in ((10, 9), (6, 6), (3, 1), (1000, 100)):
        for seed in range(40):
            got = sample_clients(n, m, stream(seed, "sample", n))
            want = per_draw(n, m, stream(seed, "sample", n))
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, m, seed)


# -------------------------------------------------------------- local steps


def test_local_steps_hand_trace():
    obj = quad([[1.0]], [[0.0]])
    u1, _ = client_steps(np.array([0.0]), np.array([0.0]), obj, 0,
                         hp_of(gamma_u=0.5, K=1), stream(0, "local", 0, 0))
    assert u1 == pytest.approx([0.5], abs=0)
    u2, _ = client_steps(np.array([0.0]), np.array([0.0]), obj, 0,
                         hp_of(gamma_u=0.5, K=2), stream(0, "local", 0, 0))
    assert u2 == pytest.approx([0.75], abs=0)


def test_local_steps_zero_step_is_identity():
    obj = quad([[1.0, 2.0]], [[3.0]], sigma_u=1.0, sigma_v=1.0)
    u0 = np.array([0.5, -0.5])
    v0 = np.array([0.25])
    u, v = client_steps(u0, v0, obj, 0, hp_of(gamma_u=0.0, gamma_v=0.0, K=4),
                        stream(1, "local", 0, 0))
    assert np.array_equal(u, u0) and np.array_equal(v, v0)


def test_scaffold_steps_equal_fedavg_when_correction_cancels():
    rng = stream(63, "probe")
    obj = quad(rng.standard_normal((2, 3)), rng.standard_normal((2, 2)),
               sigma_u=0.5, sigma_v=0.5)
    u0 = rng.standard_normal(3)
    v0 = rng.standard_normal(2)
    c = rng.standard_normal(3)
    hp = hp_of(gamma_u=0.1, gamma_v=0.2, K=6)
    a = client_steps(u0, v0, obj, 1, hp, stream(7, "local", 0, 1))
    b = client_steps(u0, v0, obj, 1, hp, stream(7, "local", 0, 1), c, c)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_scaffold_step_pulls_toward_mean_center():
    # noiseless, c_i = -a_i, c = -abar, K=1: u1 = u - gamma*(u - abar)
    a = np.array([[1.0, 0.0], [3.0, 2.0]])
    obj = quad(a, np.zeros((2, 1)))
    abar = a.mean(axis=0)
    u0 = np.array([5.0, -1.0])
    u1, _ = client_steps(
        u0, np.zeros(1), obj, 0, hp_of(gamma_u=0.25, K=1),
        stream(0, "local", 0, 0), -a[0], -abar,
    )
    assert np.allclose(u1, u0 - 0.25 * (u0 - abar), atol=1e-15)


# ------------------------------------------------------------ merge/aggregate


def test_merge_personal():
    v_old = np.array([0.0])
    v_K = np.array([2.0])
    assert np.array_equal(merge_personal(v_old, v_K, 1.0), v_K)
    assert np.array_equal(merge_personal(v_old, v_K, 0.0), v_old)
    assert merge_personal(v_old, v_K, 1.5) == pytest.approx([3.0], abs=0)


def test_aggregate_shared():
    u_old = np.array([7.0])
    same = np.array([u_old, u_old, u_old])
    for eta in (0.0, 0.5, 1.0, 2.0):
        assert aggregate_shared(u_old, same, eta) == pytest.approx([7.0], rel=1e-15)
    got = aggregate_shared(np.array([0.0]), np.array([[1.0], [3.0]]), 2.0)
    assert got == pytest.approx([4.0], abs=0)
    assert np.array_equal(aggregate_shared(u_old, same, 0.0), u_old)


def test_aggregate_full_participation_equals_mean_formula():
    rng = stream(64, "probe")
    u_old = rng.standard_normal(4)
    returned = rng.standard_normal((5, 4))
    got = aggregate_shared(u_old, returned, 0.7)
    brute = (1 - 0.7) * u_old + 0.7 * returned.mean(axis=0)
    assert np.allclose(got, brute, atol=1e-15)


@pytest.mark.parametrize("m", [1, 3, 9, 200])
def test_replica_sums_equal_a_run_alone_bitwise(m):
    # over (R, m, d_u), as a view of a wider block like `local_steps` returns,
    # each replica's row equals the single-run formula on its own rows
    rng = stream(65, "probe")
    u_old, c = rng.standard_normal((3, 50)), rng.standard_normal((3, 50))
    U = rng.standard_normal((3, m, 80))[..., :50]
    got_u = aggregate_shared(u_old, U, 0.7)
    got_c = update_server_control(c, U, 13)
    for r in range(3):
        assert np.array_equal(got_u[r], (1.0 - 0.7) * u_old[r] + (0.7 / m) * U[r].sum(axis=0))
        assert np.array_equal(got_c[r], c[r] + U[r].sum(axis=0) / 13)


def test_aggregate_is_unbiased_over_sampling():
    # frozen state, noiseless oracle: mean over sampled rounds of the
    # aggregated u matches the full-participation aggregate
    rng = stream(68, "probe")
    n, m, d = 5, 2, 3
    obj = quad(rng.standard_normal((n, d)), rng.standard_normal((n, 2)))
    hp = hp_of(gamma_u=0.1, gamma_v=0.1, eta_u=0.9, K=3, m=m)
    u0 = rng.standard_normal(d)
    v0 = [rng.standard_normal(2) for _ in range(n)]
    per_client = np.stack([
        reference.local_steps(obj, i, u0, v0[i], hp.K, hp.gamma_u, hp.gamma_v,
                              stream(0, "local", 0, i))[0]
        for i in range(n)
    ])
    full = aggregate_shared(u0, per_client, hp.eta_u)
    srng = stream(69, "sample", 0)
    draws = 10_000
    agg = np.empty((draws, d))
    for r in range(draws):
        ids = sample_clients(n, m, srng)
        agg[r] = aggregate_shared(u0, per_client[ids], hp.eta_u)
    err = np.abs(agg.mean(axis=0) - full)
    bound = 4.0 * agg.std(axis=0) / math.sqrt(draws)
    assert np.all(err <= bound), (err, bound)


# ------------------------------------------------------------ control variates


def test_init_control_variates_noiseless():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.0]])
    obj = quad(a, np.zeros((3, 2)))
    u0 = np.zeros(2)
    v0 = [np.zeros(2) for _ in range(3)]
    c_list, c = init_control_variates(u0, v0, obj, K=4, seed=0)
    for i in range(3):
        assert np.allclose(c_list[i], -a[i], atol=1e-15)
    assert np.allclose(c, -a.mean(axis=0), atol=1e-15)
    assert np.allclose(c, np.mean(c_list, axis=0), atol=1e-15)


def test_init_control_variates_deterministic_and_averaged():
    obj = quad(np.ones((2, 3)), np.ones((2, 2)), sigma_u=1.0)
    v0 = [np.zeros(2), np.zeros(2)]
    c1, cm1 = init_control_variates(np.zeros(3), v0, obj, K=8, seed=5)
    c2, cm2 = init_control_variates(np.zeros(3), v0, obj, K=8, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(c1, c2))
    assert np.array_equal(cm1, cm2)
    assert np.allclose(cm1, np.mean(c1, axis=0), atol=1e-15)


def _per_draw_control_variates(u0, v0, oracle, K, seed):
    """The per-draw loop init_control_variates batches: one single draw
    per averaged gradient, accumulated left to right, client by client."""
    c_list = []
    for i in range(oracle.n):
        g = stream(seed, "cv_init", i)
        acc = np.zeros(oracle.d_u)
        for _ in range(K):
            g_u, _ = reference.stoch_grad(oracle, i, u0, v0[i], g)
            acc = acc + g_u
        c_list.append(acc / K)
    return np.stack(c_list), np.stack(c_list).mean(axis=0)


def test_init_control_variates_match_per_draw_loop():
    rng = stream(66, "probe")
    obj = quad(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)),
               sigma_u=0.9, sigma_v=0.4)
    u0 = rng.standard_normal(3)
    v0 = rng.standard_normal((4, 2))
    for K in (1, 3, 10):
        C, c = init_control_variates(u0, v0, obj, K=K, seed=K)
        C_ref, c_ref = _per_draw_control_variates(u0, v0, obj, K, seed=K)
        assert np.array_equal(C, C_ref) and np.array_equal(c, c_ref)
    logit = reference.random_logistic(rng, n=3, rows=9, rho=0.05, batch_size=5)
    v0 = rng.standard_normal((3, 2))
    C, c = init_control_variates(u0, v0, logit, K=7, seed=1)
    C_ref, c_ref = _per_draw_control_variates(u0, v0, logit, 7, seed=1)
    assert np.allclose(C, C_ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(c, c_ref, rtol=1e-12, atol=1e-14)


def test_update_client_control():
    z = np.zeros(2)
    assert np.array_equal(update_client_control(z, z, np.ones(2), np.ones(2), 3, 0.1), z)
    c = np.array([1.0, -1.0])
    got = update_client_control(c, c, np.array([2.0, 2.0]), np.array([1.0, 3.0]), 2, 0.25)
    assert got == pytest.approx([2.0, -2.0], abs=0)  # (u_t - u_next)/(K*gamma)
    twice = update_client_control(c, c, np.array([3.0, 1.0]), np.array([1.0, 3.0]), 2, 0.25)
    assert np.allclose(twice, 2 * got, atol=1e-15)


def test_update_client_control_recovers_fresh_gradient():
    # K=1 noiseless: u_next = u - gamma*(g - c_i + c), so the update returns g
    rng = stream(65, "probe")
    obj = quad(rng.standard_normal((1, 3)), rng.standard_normal((1, 2)))
    u = rng.standard_normal(3)
    v = rng.standard_normal(2)
    c_i = rng.standard_normal(3)
    c = rng.standard_normal(3)
    u1, _ = client_steps(u, v, obj, 0, hp_of(gamma_u=0.3, K=1),
                         stream(2, "local", 0, 0), c_i, c)
    g = obj.value_and_grads([0], u, v[None])[1][0]
    got = update_client_control(c_i, c, u, u1, 1, 0.3)
    assert np.allclose(got, g, atol=1e-13)


def test_update_server_control():
    c = np.array([1.0, 1.0])
    assert np.array_equal(update_server_control(c, np.zeros((3, 2)), 5), c)
    got = update_server_control(c, np.array([[2.0, 0.0]]), 2)
    assert got == pytest.approx([2.0, 1.0], abs=0)


# ---------------------------------------------------------------- run_round


def start_one(algorithm, obj, hp, seed):
    """start_rounds for obj run alone, as run_training starts it: the
    replica (server, clients) and its rounds, each step one trace."""
    server, clients, rounds = start_rounds(algorithm, [obj], hp, [seed])
    return server, clients, (tr for (tr,) in rounds)


def one(server, clients):
    """Views of replica 0's (server, clients)."""
    res = TrainingResult.of_replica(0, [], server, clients)
    return res.server, res.clients


def test_run_round_matches_parallel_sgd_step():
    # K=1, m=n, eta=1: both algorithms take one exact parallel SGD step
    rng = stream(66, "probe")
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 2))
    obj = quad(a, b)
    hp = hp_of(gamma_u=0.2, gamma_v=0.4, K=1, m=3)
    states = {}
    for alg in fedcore.ALGORITHMS:
        server, clients, rounds = start_one(alg, obj, hp, seed=3)
        (tr,) = rounds
        assert tr.sampled == (1, 2, 3)
        server, clients = one(server, clients)
        states[alg] = (server.u.copy(), clients.V.copy())
    u_expect = np.zeros(2) - 0.2 * (np.zeros(2) - a).mean(axis=0)
    v_expect = [np.zeros(2) - 0.4 * (np.zeros(2) - b[i]) for i in range(3)]
    for alg, (u, v_all) in states.items():
        assert np.allclose(u, u_expect, atol=1e-14), alg
        for i in range(3):
            assert np.allclose(v_all[i], v_expect[i], atol=1e-14), alg
    # corrections telescope: the two algorithms agree bitwise on (u, v)
    assert np.array_equal(states["fedavg_p"][0], states["scaffold_p"][0])
    for va, vb in zip(states["fedavg_p"][1], states["scaffold_p"][1]):
        assert np.array_equal(va, vb)


def test_run_round_zero_steps_leaves_state_and_reports_initial_metrics():
    obj = quad([[1.0], [2.0]], [[1.0], [0.0]])
    hp = hp_of(gamma_u=0.0, gamma_v=0.0, eta_u=0.0, eta_v=0.0, K=3, m=2)
    server, clients, rounds = start_one("fedavg_p", obj, hp, seed=0)
    (tr,) = rounds
    server, clients = one(server, clients)
    assert np.array_equal(server.u, np.zeros(1))
    assert np.array_equal(clients.V, np.zeros((2, 1)))
    u0 = np.zeros(1)
    v0 = [np.zeros(1), np.zeros(1)]
    f, g_u, _, _ = metrics.round_metrics(obj, u0, v0, hp.m)
    assert tr.f_value == pytest.approx(f, abs=0)
    assert tr.grad_norm_u == pytest.approx(g_u, abs=0)


def test_run_round_unsampled_clients_untouched():
    obj = quad(np.arange(10.0).reshape(5, 2), np.ones((5, 3)), sigma_u=0.3)
    hp = hp_of(gamma_u=0.05, gamma_v=0.05, K=4, T=8, m=2)
    server, clients, rounds = start_one("scaffold_p", obj, hp, seed=9)
    after = one(server, clients)[1]  # views of the rows each round writes
    V0, C0 = after.V.copy(), after.C.copy()
    for tr in rounds:
        sampled0 = {s - 1 for s in tr.sampled}
        for i in range(obj.n):
            if i not in sampled0:
                assert after.V[i].tobytes() == V0[i].tobytes()
                assert after.C[i].tobytes() == C0[i].tobytes()
        V0, C0 = after.V.copy(), after.C.copy()
    assert tr.t == hp.T - 1


def test_start_rounds_rejects_a_bad_run_before_any_draw(monkeypatch):
    draws = []
    stoch_grads = QuadraticObjective.stoch_grads
    monkeypatch.setattr(QuadraticObjective, "stoch_grads",
                        lambda self, *args: draws.append(args) or stoch_grads(self, *args))
    obj = quad([[1.0], [2.0]], [[0.0], [1.0]], sigma_u=0.5)
    for algorithm, hp, match in (
            ("fedprox", hp_of(), "unknown algorithm 'fedprox'"),
            ("scaffold_p", hp_of(m=3), "m=3 exceeds n=2"),
            ("scaffold_p", hp_of(gamma_u=0.0), "scaffold_p needs gamma_u > 0")):
        with pytest.raises(ValueError, match=match):
            start_one(algorithm, obj, hp, seed=0)
        with pytest.raises(ValueError, match=match):
            run_training(algorithm, obj, hp, seed=0)
    with pytest.raises(ValueError, match="1 seeds for 2 oracles"):
        start_rounds("scaffold_p", [obj, obj], hp_of(), [0])
    # a stream reads its seed mod 2^64: -1 would replay the run of 2^64 - 1
    for seeds in ([-1], [2**64], [3, -1]):
        with pytest.raises(ValueError, match=rf"seed {seeds[-1]} is outside \[0, 2\^64\)"):
            run_replicas("scaffold_p", [obj] * len(seeds), hp_of(), seeds)
    # True would run as seed 1; a float seed would fail at its first draw
    for seeds in ([1.5], [True], [3, np.float64(2.0)]):
        for algorithm in fedcore.ALGORITHMS:
            with pytest.raises(ValueError,
                               match=re.escape(f"seed must be an int, got {seeds[-1]!r}")):
                start_rounds(algorithm, [obj] * len(seeds), hp_of(), seeds)
    assert draws == []
    assert len(run_training("scaffold_p", obj, hp_of(T=3), seed=2**64 - 1).traces) == 3
    # a zero u-step is the identity for the uncorrected algorithm
    res = run_training("fedavg_p", obj, hp_of(gamma_u=0.0, T=3, m=2), seed=0)
    assert len(res.traces) == 3 and np.array_equal(res.u, np.zeros(1))


def test_run_round_raises_on_divergence():
    obj = quad([[1.0]], [[1.0]])
    hp = hp_of(gamma_u=21.0, gamma_v=0.1, K=20, T=12, m=1)
    _, _, rounds = start_one("fedavg_p", obj, hp, seed=0)
    with pytest.raises(FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
        list(rounds)


@pytest.mark.parametrize("block,gamma_u,gamma_v", [("u", 1e8, 0.1), ("v", 0.1, 1e8)],
                         ids=["u", "v"])
def test_run_round_names_non_finite_iterate_block(block, gamma_u, gamma_v):
    # 50 steps grow the block by 1e8 each: it overflows within round 0
    obj = quad([[1.0]], [[1.0]])
    hp = hp_of(gamma_u=gamma_u, gamma_v=gamma_v, K=50, m=1)
    server, clients, rounds = start_one("fedavg_p", obj, hp, seed=0)
    with pytest.raises(FloatingPointError, match=f"non-finite {block} after round 0"), \
            np.errstate(over="ignore", invalid="ignore"):
        next(rounds)
    other = clients.V if block == "u" else server.u
    assert np.isfinite(other).all()


def test_run_round_names_non_finite_server_control():
    # 1/(K gamma_u) overflows: u barely moves, the control refresh is inf
    obj = quad([[1.0], [-2.0]], [[0.0], [0.0]])
    hp = hp_of(gamma_u=1e-320, gamma_v=0.1, K=1, m=2)
    server, clients, rounds = start_one("scaffold_p", obj, hp, seed=0)
    with pytest.raises(FloatingPointError, match="non-finite c after round 0"), \
            np.errstate(over="ignore", invalid="ignore"):
        next(rounds)
    assert np.isfinite(server.u).all() and np.isfinite(clients.V).all()


def test_run_round_names_non_finite_client_control():
    # a corrupted unsampled c_i is caught although the round never reads it
    obj = quad(np.arange(3.0).reshape(3, 1), np.zeros((3, 1)))
    hp = hp_of(gamma_u=0.1, gamma_v=0.1, K=2, m=1)
    server, clients, rounds = start_one("scaffold_p", obj, hp, seed=5)
    (sampled,) = sample_clients(3, 1, stream(5, "sample", 0))
    clients.C[0, (sampled + 1) % 3] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite c_i after round 0"):
        next(rounds)
    assert np.isfinite(server.u).all() and np.isfinite(server.c).all()


def test_replica_divergence_names_the_replica_and_its_seed():
    # centers of 1e300 overflow f in round 0; the healthy replica alone stays finite
    ok = quad([[1.0]], [[1.0]])
    big = quad([[1e300]], [[1e300]])
    hp = hp_of(K=2, T=3, m=1)
    assert np.isfinite(run_training("fedavg_p", ok, hp, seed=41).traces[-1].f_value)
    for oracles, seeds, r in (([ok, big], [41, 42], 1), ([big, ok], [43, 41], 0)):
        with pytest.raises(FloatingPointError, match=rf"non-finite f after round 0 "
                           rf"in replica {r} \(seed {seeds[r]}\)"), \
                np.errstate(over="ignore", invalid="ignore"):
            run_replicas("fedavg_p", oracles, hp, seeds)


# --------------------------------------------------------- stream schedule


def _fresh_streams(seed, n, m, t):
    """What a round drew before streams were planned: fresh `stream`
    generators for ("sample", t) and each ("local", t, i)."""
    ids = sample_clients(n, m, stream(seed, "sample", t))
    return ids, [stream(seed, "local", t, i) for i in ids.tolist()]


def _strip(traces):
    return [dataclasses.replace(tr, wall_ms=0.0) for tr in traces]


def _assert_same_run(a, b):
    # traces (all but wall_ms) and every state array, bitwise
    assert _strip(a.traces) == _strip(b.traces)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v_all, b.v_all)
    if a.clients.C is None:
        assert b.clients.C is None and a.server.c is None and b.server.c is None
    else:
        assert np.array_equal(a.clients.C, b.clients.C)
        assert np.array_equal(a.server.c, b.server.c)


def _per_round_stream_run(algorithm, oracle, hp, seed):
    """run_training as it was before scheduling: per-draw control-variate
    streams and fresh per-round streams, through run_round's own arithmetic."""
    # a fedavg_p start draws nothing; scaffold_p's control variates come
    # from the per-draw reference loop
    server, clients, _ = start_rounds(fedcore.FEDAVG_P, [oracle], hp, [seed])
    if algorithm == fedcore.SCAFFOLD_P:
        C, c = _per_draw_control_variates(server.u[0], clients.V[0], oracle, hp.K, seed)
        clients.C, server.c = C[None], c[None]
    traces = []
    for t in range(hp.T):
        ids, rngs = _fresh_streams(seed, oracle.n, hp.m, t)
        traces += run_round(server, clients, oracle, hp, t, ids[None], [rngs], [seed])
    return TrainingResult.of_replica(0, traces, server, clients)


def _small_oracle(objective, probe=75):
    if objective == "quadratic":
        return dataio.synth_quadratic(10, 3, 2, spread=1.0, sigma_u=1.0, sigma_v=0.5, seed=3)
    return reference.random_logistic(stream(probe, "probe"), n=10, rows=9, rho=0.05,
                                     batch_size=4)


@pytest.mark.parametrize("objective", ["quadratic", "logistic"])
@pytest.mark.parametrize("algorithm", fedcore.ALGORITHMS)
def test_scheduled_run_equals_per_round_streams(algorithm, objective):
    # T = 0, T = 1, and a T one block and a partial block long
    obj = _small_oracle(objective)
    m = 8
    block = fedcore._KEY_BLOCK // m
    for T in (0, 1, block + 7):
        hp = hp_of(gamma_u=0.01, gamma_v=0.02, eta_u=1.5, eta_v=1.2, K=3, T=T, m=m)
        got = run_training(algorithm, obj, hp, seed=17)
        _assert_same_run(got, _per_round_stream_run(algorithm, obj, hp, seed=17))


@pytest.mark.parametrize("objective", ["quadratic", "logistic"])
@pytest.mark.parametrize("algorithm", fedcore.ALGORITHMS)
def test_rounds_stopped_after_t_equal_a_run_of_t_rounds(algorithm, objective, monkeypatch):
    # t = 0, 1, partway through the second key block of 64 // m = 8 rounds,
    # and T: the streams planned past round t change nothing before it
    monkeypatch.setattr(fedcore, "_KEY_BLOCK", 64)
    obj = _small_oracle(objective)
    hp = hp_of(gamma_u=0.01, gamma_v=0.02, eta_u=1.3, K=3, T=20, m=8)
    for t in (0, 1, 11, hp.T):
        server, clients, rounds = start_one(algorithm, obj, hp, seed=8)
        traces = list(itertools.islice(rounds, t))
        stopped = TrainingResult.of_replica(0, traces, server, clients)
        _assert_same_run(run_training(algorithm, obj, dataclasses.replace(hp, T=t), seed=8),
                         stopped)


@pytest.mark.parametrize("algorithm", fedcore.ALGORITHMS)
def test_rounds_before_a_divergence_equal_a_run_that_stops_there(algorithm):
    obj = quad([[1.0]], [[1.0]])
    hp = hp_of(gamma_u=21.0, gamma_v=0.1, K=20, T=12, m=1)
    _, _, rounds = start_one(algorithm, obj, hp, seed=0)
    seen = []
    with pytest.raises(FloatingPointError) as err, np.errstate(over="ignore", invalid="ignore"):
        for tr in rounds:
            seen.append(tr)
    k = len(seen)
    assert 0 < k < hp.T and f" after round {k} " in str(err.value)
    alone = run_training(algorithm, obj, dataclasses.replace(hp, T=k), seed=0)
    assert _strip(seen) == _strip(alone.traces)


def test_round_streams_equal_fresh_streams():
    seen = []
    for t, ids, rngs in round_streams(0, 5, 2, 6):
        seen.append(t)
        want_ids, want_rngs = _fresh_streams(0, 5, 2, t)
        assert np.array_equal(ids, want_ids) and len(rngs) == 2
        for got, want in zip(rngs, want_rngs):
            assert np.array_equal(got.standard_normal(7), want.standard_normal(7))
            assert np.array_equal(got.integers(0, 9, 5), want.integers(0, 9, 5))
    assert seen == [0, 1, 2, 3, 4, 5]


# ----------------------------------------------------------------- replicas


@pytest.mark.parametrize("d", [5, 50])  # 50 takes numpy's pairwise row sums
@pytest.mark.parametrize("m", [1, 3, "n"])
@pytest.mark.parametrize("n", [10, 200])
@pytest.mark.parametrize("algorithm", fedcore.ALGORITHMS)
def test_replicas_equal_runs_alone(algorithm, n, m, d, monkeypatch):
    # each replica, its own seed and centers, bitwise the same run alone;
    # a smaller key block makes T = one block + 7 short
    monkeypatch.setattr(fedcore, "_KEY_BLOCK", 64)
    m = n if m == "n" else m
    seeds = [3, 4, 5, 6, 7]
    oracles = [dataio.synth_quadratic(n, d, d, spread=1.0, sigma_u=1.0, sigma_v=0.5, seed=s)
               for s in seeds]
    for T in (0, 1, max(1, 64 // m) + 7):
        hp = hp_of(gamma_u=0.02, gamma_v=0.03, eta_u=1.3, eta_v=1.1, K=2, T=T, m=m)
        alone = [run_training(algorithm, o, hp, s) for o, s in zip(oracles, seeds)]
        for R in (1, 2, 5):
            got = run_replicas(algorithm, oracles[:R], hp, seeds[:R])
            assert len(got) == R
            for a, b in zip(got, alone):
                _assert_same_run(a, b)
                assert a.u.shape == (d,) and a.v_all.shape == (n, d)


def test_replicas_share_round_time_and_span_a_key_block():
    # the real key block, one oracle shared by all replicas (as the
    # acceptance criteria run their seeds)
    obj = _small_oracle("quadratic")
    hp = hp_of(gamma_u=0.01, gamma_v=0.02, eta_u=1.5, eta_v=1.2, K=3,
               T=fedcore._KEY_BLOCK // 8 + 7, m=8)
    got = run_replicas("scaffold_p", [obj] * 3, hp, [17, 18, 19])
    for res, seed in zip(got, [17, 18, 19]):
        _assert_same_run(res, run_training("scaffold_p", obj, hp, seed))
    assert all(a.wall_ms == b.wall_ms == c.wall_ms for a, b, c in zip(*(r.traces for r in got)))


def test_joined_logistic_replicas_equal_runs_alone():
    # two replicas on different shards: a wrong r * n + i offset would run
    # one replica on the other's data
    objs = [_small_oracle("logistic", probe) for probe in (75, 76)]
    hp = hp_of(gamma_u=0.01, gamma_v=0.02, K=3, T=9, m=8)
    for algorithm in fedcore.ALGORITHMS:
        got = run_replicas(algorithm, objs, hp, [1, 2])
        for res, obj, seed in zip(got, objs, [1, 2]):
            _assert_same_run(res, run_training(algorithm, obj, hp, seed))


def test_join_replicas_lays_replicas_out_in_turn():
    a = quad([[1.0], [2.0]], [[3.0], [4.0]], sigma_u=0.5)
    b = quad([[5.0], [6.0]], [[7.0], [8.0]], sigma_u=0.5)
    joined = join_replicas([a, b])
    assert np.array_equal(joined.centers_u, [[1.0], [2.0], [5.0], [6.0]])
    assert np.array_equal(joined.centers_v, [[3.0], [4.0], [7.0], [8.0]])
    assert (joined.sigma_u, joined.sigma_v) == (0.5, 0.0)
    logistic = [_small_oracle("logistic", probe) for probe in (75, 76)]
    shards = join_replicas(logistic).shards
    assert len(shards) == 20
    assert all(s is t for s, t in zip(shards, logistic[0].shards + logistic[1].shards))
    assert join_replicas([a]) is a and join_replicas((o for o in [logistic[0]])) is logistic[0]


class _Delegate(ObjectiveOracle):
    """A custom objective: a quadratic's three row methods behind a type
    that `join_replicas` does not know."""

    def __init__(self, inner):
        self.inner, self.n, self.d_u, self.d_v = inner, inner.n, inner.d_u, inner.d_v

    def value_and_grads(self, *args):
        return self.inner.value_and_grads(*args)

    def stoch_grads(self, *args):
        return self.inner.stoch_grads(*args)

    def local_steps(self, *args):
        return self.inner.local_steps(*args)


def test_join_replicas_rejects_what_one_objective_cannot_hold():
    one = quad([[1.0]], [[1.0]])
    logistic = _small_oracle("logistic")
    for oracles, match in (
            ([], "need at least one oracle"),
            ([one, quad([[1.0, 2.0]], [[1.0]])], r"share \(n, d_u, d_v\)"),
            ([one, quad([[1.0], [2.0]], [[1.0], [2.0]])], r"share \(n, d_u, d_v\)"),
            ([one, logistic], r"mixed types \['LogisticObjective', 'QuadraticObjective'\]"),
            ([one, quad([[1.0]], [[1.0]], sigma_u=0.1)], r"share \(sigma_u, sigma_v\)"),
            ([one, quad([[1.0]], [[1.0]], sigma_v=0.1)], r"share \(sigma_u, sigma_v\)"),
            ([logistic, LogisticObjective(logistic.shards, 4, rho=0.05, batch_size=4)],
             r"share \(n, d_u, d_v\)"),
            ([logistic, LogisticObjective(logistic.shards, 3, rho=0.5, batch_size=4)],
             r"share \(rho, batch_size\)"),
            ([logistic, LogisticObjective(logistic.shards, 3, rho=0.05, batch_size=2)],
             r"share \(rho, batch_size\)"),
            ([_Delegate(one), _Delegate(one)], "cannot join replicas of _Delegate")):
        with pytest.raises(ValueError, match=match):
            join_replicas(oracles)


def test_custom_objective_runs_alone_but_not_as_replicas():
    obj = _small_oracle("quadratic")
    hp = hp_of(gamma_u=0.01, gamma_v=0.02, eta_u=1.5, K=3, T=5, m=4)
    for algorithm in fedcore.ALGORITHMS:
        _assert_same_run(run_training(algorithm, _Delegate(obj), hp, seed=3),
                         run_training(algorithm, obj, hp, seed=3))
    with pytest.raises(ValueError, match="need quadratic or logistic objectives"):
        run_replicas("fedavg_p", [_Delegate(obj)] * 2, hp, [1, 2])


class _Narrow(_Delegate):
    """A custom objective whose `narrow` output keeps only its first column:
    `U_K` or `V_K` of `local_steps`, the u-block `G_u` of `stoch_grads` or
    the u-gradients `full_G_u` of `value_and_grads`."""

    def __init__(self, inner, narrow):
        super().__init__(inner)
        self.narrow = narrow

    def value_and_grads(self, *args):
        vals, G_u, G_v = self.inner.value_and_grads(*args)
        return vals, G_u[:, :1] if self.narrow == "full_G_u" else G_u, G_v

    def stoch_grads(self, *args):
        G_u, G_v = self.inner.stoch_grads(*args)
        return (G_u[..., :1], G_v) if self.narrow == "G_u" else (G_u, G_v)

    def local_steps(self, *args):
        U_K, V_K = self.inner.local_steps(*args)
        return (U_K[:, :1] if self.narrow == "U_K" else U_K,
                V_K[:, :1] if self.narrow == "V_K" else V_K)


@pytest.mark.parametrize("narrow,algorithms,match", [
    ("U_K", fedcore.ALGORITHMS, r"local_steps returned rows of shapes \(4, 1\) and \(4, 2\), "
                                r"expected \(4, 3\) and \(4, 2\)"),
    ("V_K", fedcore.ALGORITHMS, r"local_steps returned rows of shapes \(4, 3\) and \(4, 1\), "
                                r"expected \(4, 3\) and \(4, 2\)"),
    ("G_u", [fedcore.SCAFFOLD_P], r"stoch_grads returned rows of shapes \(10, 3, 1\) and "
                                  r"\(10, 3, 2\), expected \(10, 3, 3\) and \(10, 3, 2\)"),
    ("full_G_u", fedcore.ALGORITHMS, r"value_and_grads returned rows of shapes \(10,\) and "
                                     r"\(10, 1\) and \(10, 2\), expected \(10,\) and "
                                     r"\(10, 3\) and \(10, 2\)"),
    ("full_G_u", ["estimate_dissimilarity", "estimate_initial_gap"],
     r"value_and_grads returned rows of shapes \(10,\) and \(10, 1\) and \(10, 2\)"),
    ("full_G_u", ["estimate_smoothness"],
     r"value_and_grads returned rows of shapes \(2,\) and \(2, 1\) and \(2, 2\), "
     r"expected \(2,\) and \(2, 3\) and \(2, 2\)"),
])
def test_custom_objective_outputs_are_checked(narrow, algorithms, match):
    # a narrow block would otherwise broadcast into u, V, the control
    # variates or an estimate; the wrapper has no `infimum`, so the initial
    # gap takes the descent path
    obj = _Narrow(_small_oracle("quadratic"), narrow)
    hp = hp_of(gamma_u=0.01, gamma_v=0.02, K=3, T=5, m=4)
    start = np.zeros(obj.d_u), np.zeros((obj.n, obj.d_v))
    calls = {
        **{a: lambda a=a: run_training(a, obj, hp, seed=3) for a in fedcore.ALGORITHMS},
        "estimate_smoothness": lambda: metrics.estimate_smoothness(obj, 2, 1.0, stream(0, "s")),
        "estimate_dissimilarity": lambda: metrics.estimate_dissimilarity(obj, *start),
        "estimate_initial_gap": lambda: metrics.estimate_initial_gap(obj, *start, lr=0.5),
    }
    for algorithm in algorithms:
        with pytest.raises(ValueError, match=match):
            calls[algorithm]()


# ------------------------------------------------------------- run_training


def test_run_training_t0_is_empty_and_identity():
    obj = quad([[1.0]], [[2.0]])
    res = run_training("fedavg_p", obj, hp_of(T=0), seed=0)
    assert res.traces == []
    assert np.array_equal(res.u, np.zeros(1))
    assert np.array_equal(res.v_all[0], np.zeros(1))


def test_run_training_deterministic():
    obj = quad(np.arange(6.0).reshape(3, 2), np.ones((3, 2)), sigma_u=0.5, sigma_v=0.5)
    hp = hp_of(gamma_u=0.1, gamma_v=0.1, K=3, T=20, m=2)
    a = run_training("scaffold_p", obj, hp, seed=11)
    b = run_training("scaffold_p", obj, hp, seed=11)
    assert np.array_equal(a.u, b.u)
    for va, vb in zip(a.v_all, b.v_all):
        assert np.array_equal(va, vb)
    for ta, tb in zip(a.traces, b.traces):
        assert (ta.t, ta.f_value, ta.grad_norm_u, ta.grad_norm_v,
                ta.grad_norm_v_hat, ta.sampled) == (
            tb.t, tb.f_value, tb.grad_norm_u, tb.grad_norm_v,
            tb.grad_norm_v_hat, tb.sampled)
    c = run_training("scaffold_p", obj, hp, seed=12)
    assert not np.array_equal(a.u, c.u)


def test_run_training_scaffold_converges_under_partial_participation():
    obj = dataio.synth_quadratic(4, 3, 2, spread=1.0, sigma_u=0, sigma_v=0, seed=2)
    assert obj.dissimilarity_b2() > 0.1
    hp = hp_of(gamma_u=0.05, gamma_v=0.05, K=5, T=600, m=2)
    res = run_training("scaffold_p", obj, hp, seed=0)
    last = res.traces[-1]
    assert last.grad_norm_u + last.grad_norm_v_hat <= 1e-10


def test_run_training_validates_m_against_oracle():
    obj = quad([[0.0]], [[0.0]])
    with pytest.raises(ValueError, match="exceeds"):
        run_training("fedavg_p", obj, hp_of(m=2), seed=0)


def test_run_training_checks_start_shapes():
    obj = quad([[1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="start shapes"):
        run_training("fedavg_p", obj, hp_of(T=1), seed=0, u0=np.zeros(3))
    with pytest.raises(ValueError, match="start shapes"):
        run_training("fedavg_p", obj, hp_of(T=1), seed=0, v0_all=[np.zeros(1)])


def test_run_training_custom_start_is_copied():
    obj = quad([[1.0]], [[1.0]])
    u0 = np.array([5.0])
    v0 = [np.array([3.0])]
    res = run_training("fedavg_p", obj, hp_of(T=0), seed=0, u0=u0, v0_all=v0)
    assert np.array_equal(res.u, [5.0])
    res.server.u[0] = 99.0
    assert u0[0] == 5.0  # caller's array untouched


# ------------------------------------------------------ prescribed step sizes


def test_step_sizes_degenerate_cases():
    for L, K in ((1.0, 1), (2.5, 4)):
        g, _, _ = recommended_step_sizes("fedavgp_partial", L, K, 10, 1.0, 0, 0, 0, 2, 4)
        assert g == pytest.approx(1.0 / (32 * L * K), rel=1e-15)
        g, eu, ev = recommended_step_sizes("fedavgp_full", L, K, 10, 1.0, 0, 0, 0, 4, 4)
        assert g == pytest.approx(1.0 / (84 * L * K), rel=1e-15)
        assert eu == 10.0 and ev == 1.0
        g, _, _ = recommended_step_sizes("scaffoldp", L, K, 10, 1.0, 0, 0, 0, 1, 1)
        assert g == pytest.approx(1.0 / (72 * L * K), rel=1e-15)


@pytest.mark.parametrize("name", ["L", "F0", "sigma_u", "sigma_v", "b"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_sizes_reject_non_finite_inputs(name, bad):
    args = dict(variant="fedavgp_partial", L=1.0, K=1, T=3, F0=1.0,
                sigma_u=1.0, sigma_v=0.0, b=0.0, m=1, n=1)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        recommended_step_sizes(**{**args, name: bad})


@pytest.mark.parametrize("name,bad", [("K", 2.5), ("K", True), ("T", 10.5), ("m", 2.5),
                                      ("n", 4.0), ("n", 0)])
def test_step_sizes_counts_are_ints(name, bad):
    args = dict(variant="fedavgp_partial", L=1.0, K=2, T=10, F0=1.0,
                sigma_u=1.0, sigma_v=0.0, b=0.0, m=2, n=4)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int >= 1, got {bad!r}")):
        recommended_step_sizes(**{**args, name: bad})
    assert recommended_step_sizes(**{**args, name: np.int64(2)}) is not None


def test_step_sizes_one_over_35():
    g, eu, ev = recommended_step_sizes("fedavgp_partial", 1.0, 1, 3, 1.0,
                                       sigma_u=1.0, sigma_v=0.0, b=0.0, m=1, n=1)
    assert g == pytest.approx(1.0 / 35.0, rel=1e-15)
    assert eu == 1.0 and ev == 1.0


def test_step_sizes_scaffold_sampling_factor():
    g, eu, ev = recommended_step_sizes("scaffoldp", 1.0, 1, 1, 1.0, 0, 0, 0, 2, 8)
    assert g == pytest.approx(1.0 / 144.0, rel=1e-15)  # n^(2/3)/m = 4/2
    assert eu == pytest.approx(math.sqrt(2.0))
    assert ev == pytest.approx(2.0)
    # the factor is clamped at 1 when m exceeds n^(2/3)
    g, _, _ = recommended_step_sizes("scaffoldp", 1.0, 1, 1, 1.0, 0, 0, 0, 8, 8)
    assert g == pytest.approx(1.0 / 72.0, rel=1e-15)


def test_step_sizes_frozen_hand_values():
    g, eu, ev = recommended_step_sizes("fedavgp_partial", 1.0, 2, 8, 2.0,
                                       sigma_u=2.0, sigma_v=3.0, b=1.0, m=2, n=4)
    assert g == pytest.approx(0.012774188885640877, rel=1e-12)
    assert eu == pytest.approx(2.0, rel=1e-15)  # sqrt(b^2 T/(L F0)) = 2 > sqrt(2)
    assert ev == pytest.approx(math.sqrt(2.0), rel=1e-15)

    g, eu, ev = recommended_step_sizes("fedavgp_full", 1.0, 3, 5, 2.0,
                                       sigma_u=2.0, sigma_v=1.0, b=0.0, m=4, n=4)
    assert g == pytest.approx(0.003775790072804037, rel=1e-12)
    assert eu == 5.0 and ev == 1.0

    g, eu, ev = recommended_step_sizes("scaffoldp", 2.0, 4, 10, 5.0,
                                       sigma_u=1.0, sigma_v=2.0, b=0.0, m=3, n=27)
    assert g == pytest.approx(0.0005716056158966955, rel=1e-12)
    assert eu == pytest.approx(math.sqrt(3.0))
    assert ev == pytest.approx(3.0)


def test_step_sizes_validation():
    with pytest.raises(ValueError, match="^L must be finite and > 0, got 0.0$"):
        recommended_step_sizes("fedavgp_partial", 0.0, 1, 1, 1.0, 0, 0, 0, 1, 1)
    with pytest.raises(ValueError, match="^T must be an int >= 1, got 0$"):
        recommended_step_sizes("fedavgp_partial", 1.0, 1, 0, 1.0, 0, 0, 0, 1, 1)
    with pytest.raises(ValueError, match=">= 0"):
        recommended_step_sizes("fedavgp_partial", 1.0, 1, 1, 1.0, -1, 0, 0, 1, 1)
    with pytest.raises(ValueError, match="m == n"):
        recommended_step_sizes("fedavgp_full", 1.0, 1, 1, 1.0, 0, 0, 0, 1, 2)
    with pytest.raises(ValueError, match="unknown variant"):
        recommended_step_sizes("fedsim", 1.0, 1, 1, 1.0, 0, 0, 0, 1, 1)
    with pytest.raises(ValueError, match="1 <= m <= n"):
        recommended_step_sizes("fedavgp_partial", 1.0, 1, 1, 1.0, 0, 0, 0, 3, 2)
