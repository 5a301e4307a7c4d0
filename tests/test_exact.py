"""Simulated operating characteristics against exact values.

The early statistics of a treatment design share the control at equal
allocation, so they are equicorrelated at 1/2 and have the one-factor form
Z_i = mu_i + sqrt(1/2) U + sqrt(1/2) E_i with U, E_i independent standard
normals and mu_i = sqrt(n1/2) delta_i (Dunnett 1955). Given U the arms are
selected independently, so the threshold rule's selection-size histogram is a
Poisson-binomial law integrated over U by Gauss-Hermite quadrature. The exact
side is computed here from the config's numbers alone, with nothing taken from
the engine or the score model.

Under the global null a Dunnett closed test rejects the intersection of all
hypotheses at exactly the level alpha, when the rule always continues an arm and
dropped arms have no follow-up (Bauer and Koehne 1994). Its stage-1 p-value,
Dunnett's for the largest of K statistics equicorrelated at 1/2, is uniform
(Dunnett 1955). Given the arms selected, the stage-2 p-value is Dunnett's over
those arms' stage-2 statistics: uniform again, and independent of stage 1,
because the stage-2 cohort is. Both combination tests, inverse normal with or
without stage-1 spending and Fisher, then reject with probability alpha.
"""

import math
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy.special import ndtr

from seamsim import CombinationConfig, EffectSpec, SampleSizePlan, Scenario, SelectionRule, TestSpec, run_scenario
from seamsim.cli import parse_config
from seamsim.engine import CHUNK_SIZE, _simulate_chunk

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def threshold_rule_exact(means, threshold):
    """Exact selection-size histogram (0..K) and per-arm selection rates.

    An arm is kept when its early statistic lies above ``threshold``.
    """
    x, w = np.polynomial.hermite.hermgauss(64)  # 200 nodes change no value by 1e-15
    u = math.sqrt(2.0) * x  # standard-normal nodes, weights w / sqrt(pi)
    half = math.sqrt(0.5)
    # P(arm i kept | U = u) for every node (rows) and arm (columns)
    p = ndtr((np.asarray(means)[None, :] + half * u[:, None] - threshold) / half)
    sizes = np.zeros((u.size, len(means) + 1))
    sizes[:, 0] = 1.0
    for i in range(len(means)):  # Poisson-binomial recursion over the arms
        sizes[:, 1:] = sizes[:, 1:] * (1.0 - p[:, i:i + 1]) + sizes[:, :-1] * p[:, i:i + 1]
        sizes[:, 0] *= 1.0 - p[:, i]
    weights = w / math.sqrt(math.pi)
    return weights @ sizes, weights @ p


def test_threshold_rule_selection_matches_its_exact_law():
    base = parse_config(CONFIG_DIR.joinpath("copd_threshold.yaml").read_text(), "treatment")
    n1 = base.plan.stage1_per_arm
    effects = base.effects.early
    means = [math.sqrt(n1 / 2.0) * (d - effects[0]) for d in effects[1:]]
    hist, arms = threshold_rule_exact(means, base.rule.threshold)
    np.testing.assert_allclose(hist, [0.02923, 0.07775, 0.16411, 0.30589, 0.42302], atol=5e-6)
    assert abs(hist.sum() - 1.0) < 1e-12
    assert abs(hist @ np.arange(hist.size) - arms.sum()) < 1e-12

    # fixed before running: three seeds at 2e5 replications, 27 cells in all
    # (five histogram cells and four arm rates per seed), each two-sided
    # |z| bound its Bonferroni share of a 0.001 family error
    seeds, reps = (1, 2, 3), 200_000
    bound = NormalDist().inv_cdf(1.0 - 0.001 / 54)
    worst = 0.0
    for seed in seeds:
        oc = run_scenario(replace(base, replications=reps, master_seed=seed))
        counts = [oc.futility_count, *oc.selected_size_counts, *oc.arm_selected_counts]
        for count, p in zip(counts, [*hist, *arms]):
            worst = max(worst, abs(count / reps - p) / math.sqrt(p * (1.0 - p) / reps))
    assert worst <= bound, f"worst |z| {worst:.2f} above {bound:.2f}"


def test_dunnett_rejects_the_global_null_intersection_at_exactly_alpha():
    # fixed before running: one seed per design at 64 chunks of replications,
    # each two-sided |z| bound its Bonferroni share of a 0.001 family error
    alpha, reps = 0.025, 64 * CHUNK_SIZE
    designs = (  # (K, rule, combination)
        (4, "best-1", CombinationConfig.from_sample_sizes(100, 300)),
        (4, "best-2", CombinationConfig.from_sample_sizes(100, 300, method="fisher")),
        (8, "best-2", CombinationConfig.from_sample_sizes(100, 300, alpha1=0.005)),
        (8, "random-1", CombinationConfig.from_sample_sizes(100, 300)),
    )
    bound = NormalDist().inv_cdf(1.0 - 0.001 / (2 * len(designs)))
    for seed, (k, rule, config) in enumerate(designs, start=1):
        assert config.alpha == alpha
        null = EffectSpec("treatment", (0.0,) * (k + 1), (0.0,) * (k + 1), correlation=0.4)
        scenario = Scenario(null, SampleSizePlan(100, 300), SelectionRule(rule), TestSpec("dunnett", config),
                            replications=reps, master_seed=seed)
        tally = sum(_simulate_chunk(scenario, a, a + CHUNK_SIZE) for a in range(0, reps, CHUNK_SIZE))
        rate = tally[3**k : -2].sum() / reps  # the codes from 3^K on reject the intersection of all
        z = (rate - alpha) / math.sqrt(alpha * (1.0 - alpha) / reps)
        assert abs(z) <= bound, f"K = {k} {rule}: rate {rate:.5f}, |z| {abs(z):.2f} above {bound:.2f}"
