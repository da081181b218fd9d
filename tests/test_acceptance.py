"""End-to-end acceptance gate: ten scenario tests, one per release property.

Each test runs its full scenario, prints a single PASS/FAIL line with the
measured quantities, and then asserts. All scenarios are deterministic
(fixed seeds, counter-based streams), so the measured values are stable
across machines up to floating-point platform differences.

Frozen instance parameters (spreads, seeds, step sizes) were chosen once so
that each property holds with a comfortable margin; they are inputs to the
gate, not tuned against it.
"""

import math
import time

import numpy as np
import pytest

import reference
import theory
from fedpart import dataio, harness, metrics
from fedpart.fedcore import (
    HyperParams,
    recommended_step_sizes,
    run_replicas,
    run_training,
    sample_clients,
    start_rounds,
)
from fedpart.objectives import LogisticObjective, QuadraticObjective
from fedpart.rng import stream


def report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[{num:>2}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    return line


def prescribed_hp(variant, obj, K, T, m):
    # L = 1 exactly: both blocks of the quadratic have identity Hessian
    b2 = obj.dissimilarity_b2()
    u0 = np.zeros(obj.d_u)
    v0 = [np.zeros(obj.d_v) for _ in range(obj.n)]
    F0 = metrics.round_metrics(obj, u0, v0, obj.n)[0] - obj.infimum()
    gamma, eta_u, eta_v = recommended_step_sizes(
        variant, 1.0, K, T, F0, sigma_u=0.0, sigma_v=0.0,
        b=math.sqrt(b2), m=m, n=obj.n)
    return HyperParams(gamma_u=gamma / eta_u, gamma_v=gamma / eta_v,
                       eta_u=eta_u, eta_v=eta_v, K=K, T=T, m=m)


def hetero_instance():
    # spread tuned so the shared-gradient dissimilarity lands at b^2 ~ 10
    obj, b2 = dataio.synth_quadratic(10, 5, 5, spread=5.44,
                                     sigma_u=0.0, sigma_v=0.0, seed=1)
    assert 8.0 <= b2 <= 12.0
    return obj


def test_criterion_01_heterogeneity_elimination():
    obj = hetero_instance()
    t0 = time.perf_counter()
    res_f = run_training("fedavg_p", obj,
                         prescribed_hp("fedavgp_partial", obj, 20, 2000, 5), seed=0)
    res_s = run_training("scaffold_p", obj,
                         prescribed_hp("scaffoldp", obj, 20, 2000, 5), seed=0)
    elapsed = time.perf_counter() - t0
    fl_s = harness.floor_of(res_s.traces)
    fl_f = harness.floor_of(res_f.traces)
    ok = fl_s <= 1e-10 and fl_f >= 1e3 * fl_s and elapsed < 10.0
    line = report(1, "heterogeneity elimination", ok,
                  f"scaffold floor {fl_s:.3e}, fedavg floor {fl_f:.3e}, "
                  f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_02_full_participation_k_insensitivity():
    obj = hetero_instance()
    floors = {}
    for K in (5, 20, 80):
        res = run_training("fedavg_p", obj,
                           prescribed_hp("fedavgp_full", obj, K, 2000, 10), seed=0)
        # exact zeros would break the ratio; clamp well below the tolerance
        floors[K] = max(harness.floor_of(res.traces), 1e-24)
    spread_factor = max(floors.values()) / min(floors.values())
    ok = all(fl <= 1e-10 for fl in floors.values()) and spread_factor <= 10.0
    line = report(2, "full-participation K-insensitivity", ok,
                  "floors " + " ".join(f"K={k}:{fl:.2e}" for k, fl in floors.items())
                  + f", max/min {spread_factor:.2f}")
    assert ok, line


def test_criterion_03_floor_linear_in_gamma():
    means = {}
    for gamma in (0.02, 0.005):
        obj, hp = theory.criterion_03(gamma, T=3000)
        # the five seeds as one replica run; each is bitwise the seed alone
        floors = [harness.floor_of(res.traces)
                  for res in run_replicas("fedavg_p", [obj] * 5, hp, list(range(5)))]
        means[gamma] = float(np.mean(floors))
    ratio = means[0.02] / means[0.005]
    ok = 2.0 <= ratio <= 8.0
    line = report(3, "noise floor scales with gamma", ok,
                  f"floor({0.02:g})/floor({0.005:g}) = {ratio:.2f} (target 4)")
    assert ok, line


def test_criterion_04_floor_inverse_in_m():
    means = {}
    for m in (2, 8):
        obj, hp = theory.criterion_04(m, T=2000)
        floors = [harness.floor_of(res.traces)
                  for res in run_replicas("scaffold_p", [obj] * 5, hp, list(range(5)))]
        means[m] = float(np.mean(floors))
    ratio = means[2] / means[8]
    ok = 2.0 <= ratio <= 8.0
    line = report(4, "noise floor scales with 1/m", ok,
                  f"floor(m=2)/floor(m=8) = {ratio:.2f} (target 4)")
    assert ok, line


def test_criterion_05_k_bias_under_partial_participation():
    # per K, the five seeds as one replica run
    by_K = {}
    for K in (5, 20, 80):
        obj, hp = theory.criterion_05(K, T=1500)
        assert obj.dissimilarity_b2() > 0.0
        by_K[K] = [harness.floor_of(res.traces)
                   for res in run_replicas("fedavg_p", [obj] * 5, hp, list(range(5)))]
    all_increasing = True
    detail = []
    for seed in range(5):
        floors = [by_K[K][seed] for K in (5, 20, 80)]
        inc = floors[0] < floors[1] < floors[2]
        all_increasing = all_increasing and inc
        detail.append(f"s{seed}:{'<'.join(f'{f:.1e}' for f in floors)}")
    line = report(5, "larger K raises the partial-participation floor",
                  all_increasing, " ".join(detail))
    assert all_increasing, line


def _max_dev(a, b):
    return max(float(np.max(np.abs(np.asarray(x) - np.asarray(y))))
               for x, y in zip(a, b))


def test_criterion_06_reduction_suite():
    # (a) single client: the correction is identically zero, so the two
    # algorithms agree bitwise on u, v, f and grad_norm_u
    obj1 = QuadraticObjective(centers_u=np.array([[2.0, -1.0]]),
                              centers_v=np.array([[0.5]]),
                              sigma_u=0.7, sigma_v=0.7)
    hp1 = HyperParams(gamma_u=0.05, gamma_v=0.05, eta_u=0.8, eta_v=0.9,
                      K=4, T=200, m=1)
    res_f = run_training("fedavg_p", obj1, hp1, seed=21)
    res_s = run_training("scaffold_p", obj1, hp1, seed=21)
    dev_a = max(_max_dev([res_f.u], [res_s.u]),
                _max_dev(res_f.v_all, res_s.v_all),
                max(max(abs(tf.f_value - ts.f_value), abs(tf.grad_norm_u - ts.grad_norm_u))
                    for tf, ts in zip(res_f.traces, res_s.traces)))
    ok_a = dev_a == 0.0

    # (b) K=1, m=n, eta=1: one round is one exact parallel SGD step
    rng = stream(70, "probe")
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 2))
    obj2 = QuadraticObjective(centers_u=a, centers_v=b)
    hp2 = HyperParams(gamma_u=0.2, gamma_v=0.3, eta_u=1.0, eta_v=1.0,
                      K=1, T=1, m=4)
    dev_b = 0.0
    for alg in ("fedavg_p", "scaffold_p"):
        server, clients, rounds = start_rounds(alg, [obj2], hp2, [6])
        list(rounds)
        u_exp = -0.2 * (0.0 - a).mean(axis=0)
        v_exp = [-0.3 * (0.0 - b[i]) for i in range(4)]
        dev_b = max(dev_b, _max_dev([server.u[0]], [u_exp]),
                    _max_dev(clients.V[0], v_exp))
    ok_b = dev_b <= 1e-14

    # (c) eta_u = eta_v = 1: matches a straight-line FedSim implementation
    rng = stream(71, "probe")
    dev_c = 0.0
    for case in range(5):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        obj3 = QuadraticObjective(centers_u=rng.standard_normal((n, 3)),
                                  centers_v=rng.standard_normal((n, 2)),
                                  sigma_u=float(rng.uniform(0, 0.5)),
                                  sigma_v=float(rng.uniform(0, 0.5)))
        hp3 = HyperParams(gamma_u=float(rng.uniform(0.01, 0.2)),
                          gamma_v=float(rng.uniform(0.01, 0.2)),
                          eta_u=1.0, eta_v=1.0,
                          K=int(rng.integers(1, 5)), T=3, m=m)
        res = run_training("fedavg_p", obj3, hp3, seed=200 + case)
        u_ref, v_ref = reference.fedsim(obj3, hp3, seed=200 + case, T=3)
        dev_c = max(dev_c, _max_dev([res.u], [u_ref]), _max_dev(res.v_all, v_ref))
    ok_c = dev_c <= 1e-12

    ok = ok_a and ok_b and ok_c
    line = report(6, "reduction suite", ok,
                  f"(a) single-client dev {dev_a:.1e}, (b) parallel-SGD dev "
                  f"{dev_b:.1e}, (c) FedSim dev {dev_c:.1e}")
    assert ok, line


def test_criterion_07_control_variate_mean_invariant():
    obj, _ = dataio.synth_quadratic(10, 5, 5, spread=1.0,
                                    sigma_u=1.0, sigma_v=0.0, seed=7)
    hp = HyperParams(gamma_u=0.02, gamma_v=0.02, eta_u=1.0, eta_v=1.0,
                     K=5, T=500, m=3)
    server, clients, rounds = start_rounds("scaffold_p", [obj], hp, [0])
    worst = 0.0
    for _ in rounds:
        gap = np.linalg.norm(server.c[0] - np.mean(clients.C[0], axis=0))
        worst = max(worst, float(gap))
    ok = worst <= 1e-12
    line = report(7, "control-variate mean invariant", ok,
                  f"max ||c - mean(c_i)|| over {hp.T} rounds = {worst:.2e}")
    assert ok, line


def test_criterion_08_gradient_correctness():
    quad, _ = dataio.synth_quadratic(6, 4, 3, spread=1.2,
                                     sigma_u=0.0, sigma_v=0.0, seed=8)
    rng = stream(72, "probe")
    shards = [dataio.ClientShard(X=np.hstack([rng.standard_normal((12, 4)),
                                              rng.standard_normal((12, 3))]),
                                 y=np.where(rng.integers(0, 2, 12) > 0, 1.0, -1.0))
              for _ in range(3)]
    logit = LogisticObjective(shards=shards, d_u=4, rho=0.05)

    worst = 0.0
    for obj in (quad, logit):
        for p in range(100):
            i = p % obj.n
            u = rng.standard_normal(obj.d_u)
            v = rng.standard_normal(obj.d_v)
            _, (gu,), (gv,) = obj.value_and_grads([i], u, v[None])
            fu, fv = reference.central_diff(obj, i, u, v)
            num = math.sqrt(float(np.sum((gu - fu) ** 2) + np.sum((gv - fv) ** 2)))
            den = max(1.0, math.sqrt(float(np.sum(gu ** 2) + np.sum(gv ** 2))))
            worst = max(worst, num / den)
    ok_fd = worst <= 1e-5

    L_hat = metrics.estimate_smoothness(quad, probe_points=120, radius=1.0,
                                        rng=stream(73, "probe"))
    ok_L = 0.99 <= L_hat <= 1.01
    u0 = np.zeros(quad.d_u)
    v0 = [np.zeros(quad.d_v) for _ in range(quad.n)]
    b2_hat = metrics.estimate_dissimilarity(quad, u0, v0)
    b2_err = abs(b2_hat - quad.dissimilarity_b2())
    ok_b2 = b2_err <= 1e-10

    ok = ok_fd and ok_L and ok_b2
    line = report(8, "gradient correctness and constant recovery", ok,
                  f"FD rel err {worst:.2e}, L_hat {L_hat:.6f}, "
                  f"b2 err {b2_err:.1e}")
    assert ok, line


def test_criterion_09_corpus_trends(mnist_paths):
    images_path, labels_path = mnist_paths
    base = dict(objective="logistic_mnist", images_path=images_path,
                labels_path=labels_path, n=10, m=9, gamma=0.001,
                batch_size=200, seed=0, partition="by_label",
                per_client_cap=1000, d_u=392, d_v=392)
    t0 = time.perf_counter()
    runs = {}
    for name, alg, K, T in (("fedavg_k25", "fedavg_p", 25, 600),
                            ("scaffold_k25", "scaffold_p", 25, 600),
                            ("fedavg_k5", "fedavg_p", 5, 50)):
        cfg = harness.config_from_mapping({**base, "algorithm": alg, "K": K,
                                           "T": T, "output": f"acc9_{name}.csv"})
        oracle = harness.build_oracle(cfg)
        runs[name] = run_training(alg, oracle, cfg.hyper_params(), cfg.seed).traces
    elapsed = time.perf_counter() - t0

    gu = {k: np.array([tr.grad_norm_u for tr in v]) for k, v in runs.items()}
    early25 = float(gu["fedavg_k25"][40:50].mean())
    early5 = float(gu["fedavg_k5"][40:50].mean())
    ok_i = early25 < early5

    fl_scaffold = harness.floor_of(runs["scaffold_k25"])
    fl_fedavg = harness.floor_of(runs["fedavg_k25"])
    tail_s = float(gu["scaffold_k25"][500:].mean())
    tail_f = float(gu["fedavg_k25"][500:].mean())
    ok_ii = fl_scaffold < fl_fedavg and tail_s < tail_f

    ok = ok_i and ok_ii and elapsed <= 300.0
    line = report(9, "image-corpus trend reproduction", ok,
                  f"(i) round-50 grad_norm_u K=25 {early25:.2e} vs K=5 "
                  f"{early5:.2e}; (ii) floor scaffold {fl_scaffold:.2e} vs "
                  f"fedavg {fl_fedavg:.2e}, u-tail {tail_s:.2e} vs "
                  f"{tail_f:.2e}; {elapsed:.0f}s")
    assert ok, line


def test_criterion_10_step_size_pins():
    g35, eu, ev = recommended_step_sizes("fedavgp_partial", 1.0, 1, 3, 1.0,
                                         sigma_u=1.0, sigma_v=0.0, b=0.0,
                                         m=1, n=1)
    ok = (g35 == pytest.approx(1 / 35, rel=1e-15) and eu == 1.0 and ev == 1.0)
    g_part, _, _ = recommended_step_sizes("fedavgp_partial", 2.0, 4, 9, 1.0,
                                          0.0, 0.0, 0.0, 3, 3)
    ok = ok and g_part == pytest.approx(1 / (32 * 2.0 * 4), rel=1e-15)
    g_full, _, _ = recommended_step_sizes("fedavgp_full", 2.0, 4, 9, 1.0,
                                          0.0, 0.0, 0.0, 3, 3)
    ok = ok and g_full == pytest.approx(1 / (84 * 2.0 * 4), rel=1e-15)
    g_scaf, _, _ = recommended_step_sizes("scaffoldp", 1.0, 1, 1, 1.0,
                                          0.0, 0.0, 0.0, 2, 8)
    ok = ok and g_scaf == pytest.approx(1 / 144, rel=1e-15)
    line = report(10, "prescribed step-size pins", ok,
                  f"1/35 case {g35:.10g}, zero-noise partial {g_part:.6g}, "
                  f"full {g_full:.6g}, scaffold n=8 m=2 {g_scaf:.6g}")
    assert ok, line
