"""The stationary floors of FedAvg-P and Scaffold-P on the synthetic
quadratic against their exact values (`theory.fedavg_p_floor`,
`theory.scaffold_p_floor`), and their noiseless full-participation traces
against the exact per-round values (`theory.full_participation_trace`).

Each case runs 40 seeds as one replica run and compares the mean over
seeds of each seed's tail mean of grad_norm_u + grad_norm_v_hat with the
exact value, within 4 standard errors of that mean. The seeds' runs are
independent, so the standard error is the seeds' spread / sqrt(40). The
personal block's exact expected trace at partial participation
(`theory.personal_trace`) is checked on 200 seeds, window by window,
within 5 standard errors.
"""

import dataclasses
import math

import numpy as np
import pytest

import theory
from fedpart import dataio
from fedpart.fedcore import ALGORITHMS, HyperParams, run_replicas, run_training
from fedpart.objectives import QuadraticObjective
from fedpart.rng import stream

SEEDS = list(range(40))


def partial_personal_noise():
    # m < n and sigma_v > 0, so grad_norm_v_hat carries its (m/n) noise term,
    # with outer steps other than 1
    obj = dataio.synth_quadratic(10, 3, 3, spread=1.0, sigma_u=0.5, sigma_v=1.0, seed=6)
    return obj, HyperParams(gamma_u=0.02, gamma_v=0.03, eta_u=1.5, eta_v=1.2,
                            K=5, T=800, m=4)


def personal_instance_a():
    obj = dataio.synth_quadratic(8, 3, 2, spread=2.0, sigma_u=0.5, sigma_v=0.5, seed=13)
    return obj, HyperParams(gamma_u=0.1, gamma_v=0.1, eta_u=1.0, eta_v=1.0, K=2, T=100, m=3)


def personal_instance_b():
    obj = dataio.synth_quadratic(8, 3, 4, spread=1.0, sigma_u=1.0, sigma_v=0.7, seed=21)
    return obj, HyperParams(gamma_u=0.05, gamma_v=0.08, eta_u=1.5, eta_v=2.0, K=4, T=100, m=2)


def test_closed_form_gives_the_recorded_criterion_floors():
    # criterion 3's two step sizes and criterion 5's three K values; a floor
    # does not depend on T
    floors = [theory.fedavg_p_floor(*theory.criterion_03(gamma, T=1)) for gamma in (0.02, 0.005)]
    floors += [theory.fedavg_p_floor(*theory.criterion_05(K, T=1)) for K in (5, 20, 80)]
    assert floors == pytest.approx([1.2626e-3, 3.1328e-4, 7.4924e-4, 2.9876e-3, 1.1384e-2],
                                   rel=1e-4)
    # criterion 4's two m: an exact ratio of 5.05 against its target of 4
    floors = [theory.scaffold_p_floor(*theory.criterion_04(m, T=1)) for m in (2, 8)]
    assert floors == pytest.approx([2.3449e-3, 4.6421e-4], rel=1e-4)


def assert_tail_mean_matches(algorithm, obj, hp, exact, burn, **start):
    results = run_replicas(algorithm, [obj] * len(SEEDS), hp, SEEDS, **start)
    tails = np.array([np.mean([tr.grad_norm_u + tr.grad_norm_v_hat for tr in r.traces[burn:]])
                      for r in results])
    mean, se = tails.mean(), tails.std(ddof=1) / math.sqrt(len(SEEDS))
    assert abs(mean - exact) <= 4.0 * se, (mean, se, exact)


@pytest.mark.parametrize("instance", [lambda: theory.criterion_03(0.02, T=800),
                                      lambda: theory.criterion_05(5, T=800),
                                      partial_personal_noise],
                         ids=["criterion_03", "criterion_05", "partial_personal_noise"])
def test_fedavg_p_tail_mean_matches_the_exact_floor(instance):
    obj, hp = instance()
    # every transient has decayed far below the floor by round 200
    assert_tail_mean_matches("fedavg_p", obj, hp, theory.fedavg_p_floor(obj, hp), burn=200)


def test_scaffold_p_floor_reduces_to_fedavg_p_for_one_client():
    # one client: c_1 = c, so the correction vanishes (criterion 6a's instance)
    obj = QuadraticObjective(centers_u=np.array([[2.0, -1.0]]), centers_v=np.array([[0.5]]),
                             sigma_u=0.7, sigma_v=0.7)
    hp = HyperParams(gamma_u=0.05, gamma_v=0.05, eta_u=0.8, eta_v=0.9, K=4, T=200, m=1)
    assert theory.scaffold_p_floor(obj, hp) == pytest.approx(theory.fedavg_p_floor(obj, hp),
                                                             rel=1e-12)


@pytest.mark.parametrize("m", [2, 8])
def test_scaffold_p_tail_mean_matches_the_exact_floor(m):
    # criterion 4's instance, 500 rounds from the noiseless fixed point
    # (u = abar, v_i = b_i), where Scaffold-P's control variates start
    obj, hp = theory.criterion_04(m, T=500)
    # the start carries no transient of the means; 150 rounds let the
    # noise's second moments build up
    assert_tail_mean_matches("scaffold_p", obj, hp, theory.scaffold_p_floor(obj, hp), burn=150,
                             u0=obj.centers_u.mean(axis=0), v0_all=obj.centers_v)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("instance", range(6))
def test_full_participation_trace_matches_the_exact_trace(algorithm, instance):
    # a random noiseless instance with m = n; a round whose exact value has
    # decayed below 1e-8 of its first round's is left out, as rounding
    # dominates it
    rng = stream(instance, "probe")
    n, d_u, d_v, K = (int(x) for x in rng.integers([1, 1, 1, 1], [8, 6, 6, 9]))
    obj = QuadraticObjective(rng.standard_normal((n, d_u)), rng.standard_normal((n, d_v)))
    gamma_u, gamma_v, eta_u, eta_v = rng.uniform([0.01, 0.01, 0.5, 0.5], [0.1, 0.1, 1.5, 1.5])
    hp = HyperParams(gamma_u=gamma_u, gamma_v=gamma_v, eta_u=eta_u, eta_v=eta_v,
                     K=K, T=60, m=n)
    traces = run_training(algorithm, obj, hp, seed=instance).traces
    names = ("f_value", "grad_norm_u", "grad_norm_v", "grad_norm_v_hat")
    for name, exact in zip(names, theory.full_participation_trace(obj, hp)):
        got = np.array([getattr(tr, name) for tr in traces])
        keep = exact >= 1e-8 * exact[0]
        np.testing.assert_allclose(got[keep], exact[keep], rtol=1e-10, atol=0, err_msg=name)


@pytest.mark.parametrize("instance", [personal_instance_a, personal_instance_b,
                                      partial_personal_noise],
                         ids=["a", "b", "partial_personal_noise"])
def test_personal_block_trace_matches_its_exact_expectation(instance):
    # partial participation from the zero start, T = 100: over 200 seeds,
    # each window's mean grad_norm_v lies within 5 standard errors of its
    # exact mean; the windows read round 0, the transient and the floor
    obj, hp = instance()
    hp = dataclasses.replace(hp, T=100)

    def g_v(algorithm, seeds):
        return np.array([[tr.grad_norm_v for tr in r.traces]
                         for r in run_replicas(algorithm, [obj] * len(seeds), hp, seeds)])

    seeds = list(range(200))
    got = g_v("fedavg_p", seeds)
    # the correction acts on u only: Scaffold-P's seeds give the same traces
    assert np.array_equal(g_v("scaffold_p", seeds[:20]), got[:20])
    exact = theory.personal_trace(obj, hp)
    for window in (slice(0, 1), slice(1, 5), slice(5, 20), slice(20, 100)):
        means = got[:, window].mean(axis=1)
        se = means.std(ddof=1) / math.sqrt(len(seeds))
        assert abs(means.mean() - exact[window].mean()) <= 5.0 * se, (
            window, means.mean(), se, exact[window].mean())
