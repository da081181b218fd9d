"""FedAvg-P's stationary floor on the synthetic quadratic against its exact
value (`theory.fedavg_p_floor`).

Each case runs 40 seeds as one replica run and compares the mean over
seeds of each seed's tail mean of grad_norm_u + grad_norm_v_hat with the
exact value, within 4 standard errors of that mean. The seeds' runs are
independent, so the standard error is the seeds' spread / sqrt(40).
"""

import math

import numpy as np
import pytest

import theory
from fedpart import dataio
from fedpart.fedcore import HyperParams, run_replicas

SEEDS = list(range(40))


def criterion_03(gamma=0.02):
    obj, _ = dataio.synth_quadratic(8, 4, 4, spread=0.5, sigma_u=1.0, sigma_v=0.0, seed=3)
    return obj, HyperParams(gamma_u=gamma, gamma_v=gamma, eta_u=1.0, eta_v=1.0,
                            K=4, T=800, m=8)


def criterion_05(K=5):
    obj, _ = dataio.synth_quadratic(10, 5, 5, spread=1.5, sigma_u=0.0, sigma_v=0.0, seed=5)
    return obj, HyperParams(gamma_u=0.01, gamma_v=0.01, eta_u=1.0, eta_v=1.0,
                            K=K, T=800, m=9)


def partial_personal_noise():
    # m < n and sigma_v > 0, so grad_norm_v_hat carries its (m/n) noise term,
    # with outer steps other than 1
    obj, _ = dataio.synth_quadratic(10, 3, 3, spread=1.0, sigma_u=0.5, sigma_v=1.0, seed=6)
    return obj, HyperParams(gamma_u=0.02, gamma_v=0.03, eta_u=1.5, eta_v=1.2,
                            K=5, T=800, m=4)


def test_closed_form_gives_the_recorded_criterion_floors():
    # criterion 3's two step sizes and criterion 5's three K values
    floors = [theory.fedavg_p_floor(*criterion_03(gamma)) for gamma in (0.02, 0.005)]
    floors += [theory.fedavg_p_floor(*criterion_05(K)) for K in (5, 20, 80)]
    assert floors == pytest.approx([1.2626e-3, 3.1328e-4, 7.4924e-4, 2.9876e-3, 1.1384e-2],
                                   rel=1e-4)


@pytest.mark.parametrize("instance", [criterion_03, criterion_05, partial_personal_noise])
def test_fedavg_p_tail_mean_matches_the_exact_floor(instance):
    obj, hp = instance()
    burn = 200  # every transient has decayed far below the floor by then
    results = run_replicas("fedavg_p", [obj] * len(SEEDS), hp, SEEDS)
    tails = np.array([np.mean([tr.grad_norm_u + tr.grad_norm_v_hat for tr in r.traces[burn:]])
                      for r in results])
    mean, se = tails.mean(), tails.std(ddof=1) / math.sqrt(len(SEEDS))
    exact = theory.fedavg_p_floor(obj, hp)
    assert abs(mean - exact) <= 4.0 * se, (mean, se, exact)
