"""Tests for stage-wise p-values, combination tests and closed testing."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from seamsim._reference import closed_test, combine, intersection_pvalue, stage_pvalue
from seamsim.closedtest import CombinationConfig, fisher_critical_value, spending_boundaries

# Frozen oracle values (see test_statdist for the underlying estimates):
# P(max of two equicorrelated(r=0.5) standard normals <= 2.0) by 1e7-sample MC,
# and P(X <= 1, Y <= 1) at correlation 0.5 by the same route.
EQUICORR_MC, EQUICORR_SE = 0.9585697, 6.3e-5
BVN_MC, BVN_SE = 0.7453841, 1.38e-4

# 0.975 quantile of the chi-square distribution with 4 df, high-precision
# series evaluation, frozen.
CHI4_975 = 11.143286781877798


def default_config(**kw):
    return CombinationConfig.from_sample_sizes(100, 300, **kw)


# ---------------------------------------------------------------------------
# stage-wise p-values


def test_stage_pvalue_basics():
    assert stage_pvalue(0.0) == pytest.approx(0.5)
    assert stage_pvalue(1.959964) == pytest.approx(0.025, abs=1e-8)
    assert stage_pvalue(-math.inf) == 1.0
    assert stage_pvalue(math.inf) == 0.0
    z = np.array([-1.3, 0.0, 2.4])
    np.testing.assert_allclose(stage_pvalue(z) + stage_pvalue(-z), 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# intersection tests


def test_singleton_reduces_to_stage_pvalue_for_every_method():
    for method, kw in [
        ("dunnett", {}),
        ("simes", {}),
        ("bonferroni", {}),
        ("spiessens-debois", {"tau": 0.3}),
    ]:
        p = intersection_pvalue(np.array([1.7]), method, **kw)
        assert p == pytest.approx(stage_pvalue(1.7), abs=1e-15), method


def test_bonferroni_and_simes_hand_values():
    z = ndtri(1.0 - np.array([0.01, 0.04]))
    assert intersection_pvalue(z, "bonferroni") == pytest.approx(0.02, abs=1e-12)
    assert intersection_pvalue(z, "simes") == pytest.approx(0.02, abs=1e-12)
    # simes takes the best of m * p_(i) / i, here the larger p wins
    z = ndtri(1.0 - np.array([0.03, 0.04]))
    assert intersection_pvalue(z, "simes") == pytest.approx(0.04, abs=1e-12)
    assert intersection_pvalue(z, "bonferroni") == pytest.approx(0.06, abs=1e-12)
    # bonferroni saturates at 1
    assert intersection_pvalue(np.array([-3.0, -4.0, -5.0]), "bonferroni") == 1.0


def test_dunnett_pvalue_matches_the_frozen_mc_estimate():
    p = intersection_pvalue(np.array([2.0, 1.5]), "dunnett")
    assert p == pytest.approx(1.0 - EQUICORR_MC, abs=3 * EQUICORR_SE)


def test_subgroup_full_pvalue_matches_the_frozen_mc_estimate():
    p = intersection_pvalue(np.array([1.0, 0.7]), "spiessens-debois", tau=0.25)
    assert p == pytest.approx(1.0 - BVN_MC, abs=3 * BVN_SE)


def test_intersection_orderings_on_random_statistics():
    stream = np.random.default_rng(414)
    for _ in range(300):
        m = int(stream.integers(2, 6))
        z = stream.normal(scale=1.5, size=m)
        bonf = intersection_pvalue(z, "bonferroni")
        assert intersection_pvalue(z, "simes") <= bonf + 1e-12
        assert intersection_pvalue(z, "dunnett") <= bonf + 1e-12


def test_intersection_pvalue_argument_validation():
    with pytest.raises(ValueError, match="unknown intersection test"):
        intersection_pvalue(np.array([1.0]), "holm")
    with pytest.raises(ValueError, match="non-empty"):
        intersection_pvalue(np.array([]), "bonferroni")
    for method in ("dunnett", "bonferroni", "simes"):  # NaN would sort out of sight
        with pytest.raises(ValueError, match="NaN"):
            intersection_pvalue(np.array([np.nan, 2.0]), method)
    with pytest.raises(ValueError, match="bivariate"):
        intersection_pvalue(np.array([1.0, 2.0, 3.0]), "spiessens-debois", tau=0.3)
    with pytest.raises(ValueError, match="tau"):
        intersection_pvalue(np.array([1.0, 2.0]), "spiessens-debois")
    with pytest.raises(ValueError, match="tau"):
        intersection_pvalue(np.array([1.0, 2.0]), "spiessens-debois", tau=1.0)


# ---------------------------------------------------------------------------
# combination configuration


def test_weights_follow_the_stage_sample_sizes():
    config = default_config()
    assert config.w1 == pytest.approx(0.5)
    assert config.w2 == pytest.approx(math.sqrt(0.75))
    assert config.w1**2 + config.w2**2 == pytest.approx(1.0, abs=1e-12)
    half = CombinationConfig.from_sample_sizes(100, 300, weight=0.5)
    assert half.w1 == half.w2 == pytest.approx(math.sqrt(0.5))
    assert CombinationConfig() == half  # the default is the equal-weight pair


def test_config_validation():
    with pytest.raises(ValueError):
        CombinationConfig(method="stouffer")
    with pytest.raises(ValueError):
        CombinationConfig(alpha=0.0)
    with pytest.raises(ValueError):
        CombinationConfig(alpha1=0.05)  # above alpha
    with pytest.raises(ValueError):
        CombinationConfig(weight=0.0)
    with pytest.raises(ValueError):
        CombinationConfig(weight=1.0)
    with pytest.raises(ValueError):
        CombinationConfig(method="fisher", alpha1=0.01)
    with pytest.raises(ValueError):
        CombinationConfig.from_sample_sizes(100, 300, weight=1.0)
    with pytest.raises(ValueError):
        CombinationConfig.from_sample_sizes(100, 300, weight=0.0)


# ---------------------------------------------------------------------------
# combination tests


def test_chi_square_quantile_against_frozen_value():
    # -2 ln c is the upper-alpha quantile of the chi-square distribution with 4 df
    assert -2.0 * math.log(fisher_critical_value(0.025)) == pytest.approx(CHI4_975, abs=1e-8)
    # for independent uniform p-values P(p1 p2 <= c) = c (1 - ln c)
    for alpha in (1e-6, 0.001, 0.01, 0.025, 0.05, 0.1, 0.5, 0.9):
        c = fisher_critical_value(alpha)
        assert abs(c * (1.0 - math.log(c)) - alpha) <= 1e-14 * alpha
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError):
            fisher_critical_value(alpha)


def test_fisher_critical_value():
    crit = fisher_critical_value(0.025)
    assert crit == pytest.approx(math.exp(-CHI4_975 / 2.0), abs=1e-12)
    assert crit == pytest.approx(0.0038042234663053151, abs=1e-12)


def test_inverse_normal_combination_hand_case():
    config = default_config()
    result = combine(0.025, 0.025, config)
    y = ndtri(0.975)
    assert result.statistic == pytest.approx((0.5 + math.sqrt(0.75)) * y, abs=1e-12)
    assert result.statistic == pytest.approx(2.677, abs=5e-4)
    assert result.reject
    # a flat stage-2 p-value pulls the statistic below the boundary
    assert not combine(0.025, 0.5, config).reject


def test_fisher_combination_hand_cases():
    config = default_config(method="fisher")
    miss = combine(0.1, 0.1, config)
    assert miss.statistic == pytest.approx(0.01, abs=1e-15)
    assert not miss.reject
    hit = combine(0.01, 0.1, config)
    assert hit.statistic == pytest.approx(0.001, abs=1e-15)
    assert hit.reject
    # the boundary itself rejects
    crit = fisher_critical_value(config.alpha)
    assert combine(crit, 1.0, config).reject


def test_degenerate_pvalues_are_clamped_and_invalid_ones_rejected():
    config = default_config()
    result = combine(0.0, 0.5, config)
    assert math.isfinite(result.statistic)
    assert result.reject
    assert math.isfinite(combine(0.5, 1.0, config).statistic)
    for p1, p2 in ((-0.1, 0.5), (0.5, 1.1), (math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError):
            combine(p1, p2, config)


def test_combine_is_monotone_in_both_pvalues():
    stream = np.random.default_rng(99)
    configs = [default_config(), default_config(method="fisher")]
    for _ in range(200):
        p1, p2 = stream.uniform(size=2)
        s1, s2 = stream.uniform(size=2)
        for config in configs:
            if combine(p1, p2, config).reject:
                assert combine(p1 * s1, p2, config).reject
                assert combine(p1, p2 * s2, config).reject


# ---------------------------------------------------------------------------
# spending boundaries


def test_no_stage1_spending_reproduces_the_fixed_boundary():
    u1, u2 = spending_boundaries(default_config())
    assert u1 == math.inf
    assert u2 == pytest.approx(1.9599639845400543, abs=1e-12)


def test_all_alpha_at_stage_one_disables_the_final_look():
    u1, u2 = spending_boundaries(default_config(alpha1=0.025))
    assert u1 == pytest.approx(1.9599639845400543, abs=1e-12)
    assert u2 == math.inf


def test_split_spending_solves_the_joint_tail_equation():
    config = default_config(alpha1=0.0125)
    u1, u2 = spending_boundaries(config)
    assert u1 == pytest.approx(ndtri(1.0 - 0.0125), abs=1e-12)
    # the second boundary must be stricter than the no-spending one
    assert u2 > ndtri(0.975)
    # Monte Carlo check of P(C1 < u1, C2 >= u2) = alpha - alpha1 under the
    # null: C1 = Y1 and C2 = w1 Y1 + w2 Y2 for independent standard normals.
    stream = np.random.default_rng(3111)
    n = 2_000_000
    y1 = stream.standard_normal(n)
    y2 = stream.standard_normal(n)
    c2 = config.w1 * y1 + config.w2 * y2
    hit = np.mean((y1 < u1) & (c2 >= u2))
    target = config.alpha - config.alpha1
    se = math.sqrt(target * (1.0 - target) / n)
    assert hit == pytest.approx(target, abs=3 * se)


def test_combine_solves_the_spending_boundary_once_per_config():
    config = default_config(alpha1=0.005)
    spending_boundaries.cache_clear()
    results = {combine(p1, 0.01, config) for p1 in np.linspace(0.001, 0.5, 50)}
    info = spending_boundaries.cache_info()
    assert (info.misses, info.hits) == (1, 49)
    assert len(results) > 1


def test_spending_requires_the_inverse_normal_combination():
    with pytest.raises(ValueError):
        spending_boundaries(default_config(method="fisher"))


def test_early_stop_fires_on_the_stage1_statistic_alone():
    config = default_config(alpha1=0.0125)
    u1, _ = spending_boundaries(config)
    p1 = float(stage_pvalue(u1 + 0.01))
    # stage 2 went nowhere, but the interim look already crossed
    result = combine(p1, 0.9, config)
    assert result.reject
    assert not combine(float(stage_pvalue(u1 - 0.01)), 0.9, config).reject


# ---------------------------------------------------------------------------
# the closed family and the testing procedure


def test_single_hypothesis_reduces_to_the_combination_test():
    config = default_config()
    stream = np.random.default_rng(12)
    for _ in range(50):
        z1, z2 = stream.normal(loc=1.0, scale=1.5, size=2)
        rejected = closed_test([z1], [z2], {1}, "bonferroni", config)
        direct = combine(float(stage_pvalue(z1)), float(stage_pvalue(z2)), config).reject
        assert (1 in rejected) == direct


def test_overwhelming_evidence_rejects_everything_continued():
    config = default_config()
    z = [8.0, 8.0]
    assert closed_test(z, z, {1, 2}, "dunnett", config) == {1, 2}
    assert closed_test(z, z, {2}, "dunnett", config) == {2}


def test_dropped_arms_are_never_rejected():
    config = default_config()
    z1 = [1.0, 4.0, 1.0]
    z2 = [8.0, 8.0, 8.0]
    rejected = closed_test(z1, z2, {1}, "bonferroni", config)
    assert 2 not in rejected and 3 not in rejected
    assert closed_test(z1, z2, set(), "bonferroni", config) == frozenset()


def test_closure_blocks_elementary_rejection_when_an_intersection_fails():
    # strong arm 1, flat arm 2: the pairwise intersection decides H1's fate
    config = CombinationConfig(weight=0.5)
    z1 = [2.5, -2.0]
    z2 = [2.5, -2.0]
    rejected = closed_test(z1, z2, {1, 2}, "bonferroni", config)
    # elementary H1 alone would reject: C = sqrt(2) * 2.5 = 3.54
    pair_p = float(min(1.0, 2.0 * stage_pvalue(2.5)))
    pair = combine(pair_p, pair_p, config)
    assert (1 in rejected) == pair.reject
    assert 2 not in rejected


def test_rejections_are_always_a_subset_of_continued_arms():
    config = default_config()
    stream = np.random.default_rng(800)
    for _ in range(80):
        k = int(stream.integers(1, 5))
        z1 = stream.normal(loc=1.0, size=k)
        z2 = stream.normal(loc=1.0, size=k)
        cont = {int(i) + 1 for i in np.nonzero(stream.uniform(size=k) < 0.6)[0]}
        if not cont:
            cont = {1}
        for method in ("bonferroni", "simes"):
            rejected = closed_test(z1, z2, cont, method, config)
            assert rejected <= cont


def test_followed_up_arms_contribute_their_stage1_final_statistics():
    # arm 2 is dropped; under complete follow-up its (poor) final-outcome
    # statistic re-enters the pairwise intersection at stage 2 and blocks H1
    config = CombinationConfig(weight=0.5)
    z1 = [2.5, 2.5]
    z2 = [1.0, -3.0]
    discontinued = closed_test(z1, z2, {1}, "bonferroni", config)
    followed = closed_test(z1, z2, {1}, "bonferroni", config, stage2_contributors={1, 2})
    assert discontinued == {1}
    assert followed == frozenset()
    assert 2 not in followed  # follow-up never resurrects a dropped arm


def test_closed_test_input_validation():
    config = default_config()
    with pytest.raises(ValueError, match="equal length"):
        closed_test([1.0, 2.0], [1.0], {1}, "bonferroni", config)
    with pytest.raises(ValueError, match="1..K"):
        closed_test([1.0, 2.0], [1.0, 2.0], {3}, "bonferroni", config)
    # a NaN statistic that is read raises; -inf stage-2 data is a valid p of 1
    for z1, z2 in (([np.nan, 5.0], [5.0, 5.0]), ([5.0, 5.0], [5.0, np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            closed_test(z1, z2, {1, 2}, "bonferroni", config)
    assert closed_test([5.0, 5.0], [5.0, -np.inf], {1, 2}, "bonferroni", config) == {1}


def test_dunnett_closed_test_rejects_at_least_bonferroni():
    # exact dependence handling can only help on equicorrelated statistics
    config = default_config()
    stream = np.random.default_rng(42)
    wins = 0
    for _ in range(150):
        z1 = stream.normal(loc=1.2, size=3)
        z2 = stream.normal(loc=1.2, size=3)
        bonf = closed_test(z1, z2, {1, 2, 3}, "bonferroni", config)
        dunn = closed_test(z1, z2, {1, 2, 3}, "dunnett", config)
        assert bonf <= dunn
        wins += len(dunn) > len(bonf)
    assert wins > 0  # the refinement must actually fire somewhere
