"""Simulated operating characteristics against exact values.

The early statistics of a treatment design share the control at equal
allocation, so they are equicorrelated at 1/2 and have the one-factor form
Z_i = mu_i + sqrt(1/2) U + sqrt(1/2) E_i with U, E_i independent standard
normals and mu_i = sqrt(n1/2) delta_i (Dunnett 1955). Given U the arms are
selected independently, so the threshold rule's selection-size histogram is a
Poisson-binomial law integrated over U by Gauss-Hermite quadrature. Arm j beats
arm i exactly when E_j > E_i + (mu_i - mu_j) / sqrt(1/2), in which U cancels;
given E_i the other arms beat arm i independently. So arm i's rate under best-m,
fewer than m arms beating it, is a Poisson-binomial tail integrated over E_i,
and under the epsilon rule, no arm beating it by more than epsilon, a product of
normal CDFs integrated over E_i. The exact side is computed here from the
config's numbers alone, with nothing taken from the engine or the score model.

Under the global null a Dunnett closed test rejects the intersection of all
hypotheses at exactly the level alpha, when the rule always continues an arm and
dropped arms have no follow-up (Bauer and Koehne 1994). Its stage-1 p-value,
Dunnett's for the largest of K statistics equicorrelated at 1/2, is uniform
(Dunnett 1955). Given the arms selected, the stage-2 p-value is Dunnett's over
those arms' stage-2 statistics: uniform again, and independent of stage 1,
because the stage-2 cohort is. Both combination tests, inverse normal with or
without stage-1 spending and Fisher, then reject with probability alpha.

At a fixed prevalence tau the two early statistics of a subgroup design, the
subgroup's on tau n1 patients per arm and the full population's on n1, are
bivariate normal with correlation sqrt(tau). Each selection branch is then a
bivariate-normal rectangle, computed by 1-D quadrature of the conditional
normal; for the threshold pair it is an interval of the univariate normal
d = z_sub - z_full.
"""

import math
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import yaml
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from seamsim import CombinationConfig, EffectSpec, SampleSizePlan, Scenario, SelectionRule, TestSpec, run_scenario
from seamsim.cli import parse_config
from seamsim.engine import CHUNK_SIZE, _simulate_chunk

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def normal_nodes():
    """Gauss-Hermite nodes and weights for an expectation over one standard normal; 200 nodes
    change no rate below by 1e-15."""
    x, w = np.polynomial.hermite.hermgauss(64)
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def poisson_binomial(p):
    """Per row of p, the law (columns 0..n) of how many of n independent events of probabilities p occur."""
    sizes = np.zeros((p.shape[0], p.shape[1] + 1))
    sizes[:, 0] = 1.0
    for i in range(p.shape[1]):
        sizes[:, 1:] = sizes[:, 1:] * (1.0 - p[:, i:i + 1]) + sizes[:, :-1] * p[:, i:i + 1]
        sizes[:, 0] *= 1.0 - p[:, i]
    return sizes


def threshold_rule_exact(means, threshold):
    """Exact selection-size histogram (0..K) and per-arm selection rates.

    An arm is kept when its early statistic lies above ``threshold``.
    """
    u, weights = normal_nodes()
    half = math.sqrt(0.5)
    # P(arm i kept | U = u) for every node (rows) and arm (columns)
    p = ndtr((np.asarray(means)[None, :] + half * u[:, None] - threshold) / half)
    return weights @ poisson_binomial(p), weights @ p


def best_m_rule_exact(means, m):
    """Each arm's rate of being among the m largest early statistics."""
    e, weights = normal_nodes()
    means = np.asarray(means)
    rates = []
    for i, mean in enumerate(means):
        # P(arm j beats arm i | E_i = e), for every node (rows) and other arm j (columns)
        beats = ndtr(-(e[:, None] + (mean - np.delete(means, i)) / math.sqrt(0.5)))
        rates.append(weights @ poisson_binomial(beats)[:, :m].sum(axis=1))
    return np.array(rates)


def epsilon_rule_exact(means, epsilon):
    """Each arm's rate of lying within epsilon of the largest early statistic."""
    e, weights = normal_nodes()
    means = np.asarray(means)
    return np.array([weights @ ndtr(e[:, None] + (mean - np.delete(means, i) + epsilon) / math.sqrt(0.5)).prod(axis=1)
                     for i, mean in enumerate(means)])


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


def test_best_m_and_epsilon_rules_select_at_their_exact_rates():
    doc = yaml.safe_load(CONFIG_DIR.joinpath("copd_setting1.yaml").read_text())
    cases = []
    for base, exact, want in (
        (parse_config(doc, "treatment"), best_m_rule_exact, [0.03886, 0.33229, 0.86624, 0.76262]),
        (parse_config({**doc, "select": "epsilon", "epsilon": 0.5}, "treatment"), epsilon_rule_exact,
         [0.02651, 0.22544, 0.74800, 0.55247]),
    ):
        n1, effects = base.plan.stage1_per_arm, base.effects.early
        means = [math.sqrt(n1 / 2.0) * (d - effects[0]) for d in effects[1:]]
        rates = exact(means, base.rule.best_count or base.rule.epsilon)
        np.testing.assert_allclose(rates, want, atol=5e-6)
        cases.append((base, rates))
    assert cases[0][0].rule.best_count == 2 and abs(cases[0][1].sum() - 2.0) < 1e-12

    # fixed before running: two seeds at 5e5 replications, 16 cells in all (four arm rates per
    # rule and seed), each two-sided |z| bound its Bonferroni share of a 0.001 family error
    seeds, reps = (11, 12), 500_000
    bound = NormalDist().inv_cdf(1.0 - 0.001 / 32)
    worst = 0.0
    for base, rates in cases:
        for seed in seeds:
            oc = run_scenario(replace(base, replications=reps, master_seed=seed))
            assert oc.futility_count == 0
            for count, p in zip(oc.arm_selected_counts, rates):
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
        tally = sum(_simulate_chunk([scenario], a, a + CHUNK_SIZE)[0] for a in range(0, reps, CHUNK_SIZE))
        rate = tally[3**k : -2].sum() / reps  # the codes from 3^K on reject the intersection of all
        z = (rate - alpha) / math.sqrt(alpha * (1.0 - alpha) / reps)
        assert abs(z) <= bound, f"K = {k} {rule}: rate {rate:.5f}, |z| {abs(z):.2f} above {bound:.2f}"


def log_rank_mean(hazard_ratio, n):
    """Expected log-rank statistic of n patients per arm against a unit-hazard control, over one
    unit of follow-up: sqrt(events / 4) log(hazard_ratio), events expected over both arms."""
    events = n * (1.0 - math.exp(-1.0)) + n * (1.0 - math.exp(-hazard_ratio))
    return math.sqrt(events / 4.0) * math.log(hazard_ratio)


def bvn_lower(a, b, rho):
    """P(X < a, Y < b) for standard normals at correlation rho: the integral over u = Phi(x)
    in (0, Phi(a)) of P(Y < b | X = x) = Phi((b - rho x) / sqrt(1 - rho^2))."""
    s = math.sqrt(1.0 - rho * rho)
    return quad(lambda u: ndtr((b - rho * ndtri(u)) / s), 0.0, ndtr(a), epsabs=1e-14, epsrel=1e-13)[0]


def subgroup_branch_exact(means, rho, kind, limits):
    """(subgroup only, full population only, both, futility) rates of a subgroup rule applied
    to early statistics with the given means, on the scale where smaller is better."""
    (m_sub, m_full), (l1, l2) = means, limits
    if kind == "threshold-pair":  # d = z_sub - z_full: d <= l1 keeps the subgroup alone, d > l2 the full
        sd = math.sqrt(2.0 - 2.0 * rho)
        sub, not_full = (float(ndtr((limit - (m_sub - m_full)) / sd)) for limit in (l1, l2))
        return np.array([sub, 1.0 - not_full, not_full - sub, 0.0])
    a, b = l1 - m_sub, l2 - m_full  # each population continues when its statistic lies below its limit
    both = bvn_lower(a, b, rho)
    sub, full = float(ndtr(a)) - both, float(ndtr(b)) - both
    return np.array([sub, full, both, 1.0 - sub - full - both])


def test_subgroup_selection_matches_its_exact_law():
    doc = yaml.safe_load(CONFIG_DIR.joinpath("oncology.yaml").read_text())
    shipped = parse_config(doc, "subgroup")
    threshold = parse_config({**doc, "select": "thresh", "selim": [-0.5, 0.5]}, "subgroup")
    cases = []
    for base, want in ((shipped, [0.22890, 0.02170, 0.69842, 0.05099]),
                       (threshold, [0.65249, 0.07444, 0.27307, 0.0])):
        tau, n1, (sub, full) = base.prevalence, base.plan.stage1_per_arm, base.effects.early
        assert base.prevalence_fixed and base.effects.early_outcome == "T"
        means = (log_rank_mean(sub, tau * n1), log_rank_mean(full, n1))
        rates = subgroup_branch_exact(means, math.sqrt(tau), base.rule.kind, base.rule.limits)
        np.testing.assert_allclose(rates, want, atol=5e-6)
        assert abs(rates.sum() - 1.0) < 1e-12
        cases.append((base, rates))

    # fixed before running: two seeds at 2e5 replications, 14 cells in all (four rates of the
    # futility pair and three of the threshold pair per seed, whose futility is exactly 0),
    # each two-sided |z| bound its Bonferroni share of a 0.001 family error
    seeds, reps = (1, 2), 200_000
    bound = NormalDist().inv_cdf(1.0 - 0.001 / 28)
    worst = 0.0
    for base, rates in cases:
        for seed in seeds:
            oc = run_scenario(replace(base, replications=reps, master_seed=seed))
            counts = [oc.subgroup_counts[name].n for name in ("sub", "full", "both")] + [oc.futility_count]
            for count, p in zip(counts, rates):
                if p == 0.0:
                    assert count == 0
                    continue
                worst = max(worst, abs(count / reps - p) / math.sqrt(p * (1.0 - p) / reps))
    assert worst <= bound, f"worst |z| {worst:.2f} above {bound:.2f}"
