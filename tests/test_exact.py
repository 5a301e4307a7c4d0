"""Simulated operating characteristics against exact values.

The early statistics of a treatment design share the control at equal
allocation, so they are equicorrelated at 1/2 and have the one-factor form
Z_i = mu_i + sqrt(1/2) U + sqrt(1/2) E_i with U, E_i independent standard
normals and mu_i = sqrt(n1/2) delta_i (Dunnett 1955). Given U the arms are
selected independently, so the threshold rule's selection-size histogram is a
Poisson-binomial law integrated over U by Gauss-Hermite quadrature. The exact
side is computed here from the config's numbers alone, with nothing taken from
the engine or the score model.
"""

import math
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy.special import ndtr

from seamsim import run_scenario
from seamsim.cli import parse_config

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
