"""Checks of the score-statistic simulation model.

Expected-statistic anchors are the console values from published runs of
the designs simulated here (rounded to the precision they were printed at);
covariance structure is checked entry-by-entry against the model's defining
correlations and by brute-force sampling moments.
"""

import math

import numpy as np
import pytest

from seamsim.simmodel import (
    EffectSpec,
    SampleSizePlan,
    build_score_model,
    effect_to_expectation,
    larger_is_better,
    resolve_prevalence,
    sample_replication,
)
from seamsim.statdist import replication_stream

COPD_EARLY = (0.0, 0.68, 0.82, 0.95, 0.91)
COPD_FINAL = (0.0, 0.13, 0.17, 0.23, 0.20)


def copd_spec(final=COPD_FINAL, final_outcome="N"):
    return EffectSpec(
        design="treatment",
        early=COPD_EARLY,
        final=final,
        final_outcome=final_outcome,
        correlation=0.4,
    )


def oncology_spec():
    return EffectSpec(
        design="subgroup",
        early=(0.6, 0.9),
        final=(0.6, 0.9),
        early_outcome="T",
        final_outcome="T",
        correlation=0.5,
    )


def test_normal_expectations_match_printed_run():
    plan = SampleSizePlan(100, 300)
    early = effect_to_expectation(copd_spec(), plan, "early", "stage1")
    np.testing.assert_allclose(early, [4.8, 5.8, 6.7, 6.4], atol=0.05)
    np.testing.assert_allclose(early, np.sqrt(50.0) * np.array(COPD_EARLY[1:]), rtol=1e-12)
    final1 = effect_to_expectation(copd_spec(), plan, "final", "stage1")
    np.testing.assert_allclose(final1, [0.9, 1.2, 1.6, 1.4], atol=0.05)
    final2 = effect_to_expectation(copd_spec(), plan, "final", "stage2-full")
    np.testing.assert_allclose(final2, [1.6, 2.1, 2.8, 2.4], atol=0.05)


def test_normal_expectations_smaller_stage1():
    plan = SampleSizePlan(40, 400)
    early = effect_to_expectation(copd_spec(), plan, "early", "stage1")
    np.testing.assert_allclose(early, [3.0, 3.7, 4.2, 4.1], atol=0.05)
    final2 = effect_to_expectation(copd_spec(), plan, "final", "stage2-full")
    np.testing.assert_allclose(final2, [1.8, 2.4, 3.3, 2.8], atol=0.05)


def test_binary_rate_expectation_frozen():
    # log-odds comparison of failure rates 0.40 vs 0.50 at 100 per arm:
    # theta = log((1-p)/p), o_k = n p_k, z = (theta_k - theta_0) /
    # sqrt(1/o_k + 1/(n-o_k) + 1/o_0 + 1/(n-o_0))
    spec = copd_spec(final=(0.50, 0.45, 0.45, 0.40, 0.40), final_outcome="B")
    plan = SampleSizePlan(100, 300)
    values = effect_to_expectation(spec, plan, "final", "stage1")
    assert values[2] == pytest.approx(1.418832319096315, abs=1e-12)
    assert values[0] == values[1]
    assert values[2] == values[3]
    # the early outcome is unchanged by the final outcome type
    np.testing.assert_allclose(
        effect_to_expectation(spec, plan, "early", "stage1"),
        effect_to_expectation(copd_spec(), plan, "early", "stage1"),
        rtol=1e-14,
    )


def test_survival_hazard_ratio_expectations_match_printed_run():
    spec = oncology_spec()
    plan = SampleSizePlan(100, 300, enrich_per_arm=200)
    early = effect_to_expectation(spec, plan, "early", "stage1", prevalence=0.3)
    np.testing.assert_allclose(early, [-1.46, -0.58], atol=0.005)
    final1 = effect_to_expectation(spec, plan, "final", "stage1", prevalence=0.3)
    np.testing.assert_allclose(final1, early, rtol=1e-14)  # same effects, same n
    enriched = effect_to_expectation(spec, plan, "final", "stage2-enriched")
    np.testing.assert_allclose(enriched, [-3.76], atol=0.005)
    both = effect_to_expectation(spec, plan, "final", "stage2-full", prevalence=0.3)
    np.testing.assert_allclose(both, [-2.52, -1.01], atol=0.005)
    sub_only = effect_to_expectation(spec, plan, "final", "stage2-subgroup-only")
    # without enrichment the subgroup-only cohort uses the stage-2 size
    o = 300 * (1 - math.exp(-1)) + 300 * (1 - math.exp(-0.6))
    assert sub_only[0] == pytest.approx(math.log(0.6) * math.sqrt(o / 4), rel=1e-12)


def test_effect_to_expectation_requires_prevalence_for_stage1():
    with pytest.raises(ValueError):
        effect_to_expectation(oncology_spec(), SampleSizePlan(100, 300), "early", "stage1")


def test_effect_to_expectation_requires_enrichment_size():
    with pytest.raises(ValueError):
        effect_to_expectation(
            oncology_spec(), SampleSizePlan(100, 300), "final", "stage2-enriched"
        )


def test_effect_to_expectation_rejects_unknown_labels():
    spec = copd_spec()
    plan = SampleSizePlan(100, 300)
    with pytest.raises(ValueError):
        effect_to_expectation(spec, plan, "late", "stage1")
    with pytest.raises(ValueError):
        effect_to_expectation(spec, plan, "final", "stage3")


def test_effect_spec_validation():
    with pytest.raises(ValueError):
        EffectSpec(design="parallel", early=(0.0, 0.1), final=(0.0, 0.1))
    with pytest.raises(ValueError):
        EffectSpec(design="treatment", early=(0.0, 0.1), final=(0.0, 0.1, 0.2))
    with pytest.raises(ValueError):
        EffectSpec(design="treatment", early=(0.0,), final=(0.0,))
    with pytest.raises(ValueError):  # more than eight comparisons
        EffectSpec(design="treatment", early=(0.0,) * 10, final=(0.0,) * 10)
    with pytest.raises(ValueError):
        EffectSpec(design="subgroup", early=(0.1, 0.2, 0.3), final=(0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        EffectSpec(design="treatment", early=(0.0, 0.1), final=(0.0, 0.1), early_outcome="X")
    with pytest.raises(ValueError):
        EffectSpec(design="treatment", early=(0.0, 0.1), final=(0.0, 0.1), correlation=1.2)
    with pytest.raises(ValueError):  # binary effects are rates in (0, 1)
        EffectSpec(design="treatment", early=(0.0, 0.1), final=(0.0, 1.2), final_outcome="B")
    with pytest.raises(ValueError):  # ratio effects must be positive
        EffectSpec(design="subgroup", early=(-0.5, 0.9), final=(0.6, 0.9), early_outcome="T")
    for bad in (float("nan"), float("inf")):  # a NaN effect would never select its arm
        with pytest.raises(ValueError, match="finite"):
            EffectSpec(design="treatment", early=(0.0, bad), final=(0.0, 0.1))
    spec = EffectSpec(design="treatment", early=(0.0, 0.1, 0.2), final=(0.0, 0.1, 0.2))
    assert spec.comparisons == 2


def test_sample_size_plan_validation():
    with pytest.raises(ValueError):
        SampleSizePlan(0, 300)
    with pytest.raises(ValueError):
        SampleSizePlan(100, -1)
    with pytest.raises(ValueError):
        SampleSizePlan(100, 300, enrich_per_arm=0)


def test_larger_is_better_orientation():
    for outcome in ("N", "T", "B"):
        assert larger_is_better("treatment", outcome)
    assert larger_is_better("subgroup", "N")
    assert not larger_is_better("subgroup", "T")
    assert not larger_is_better("subgroup", "B")


def test_treatment_model_covariance_structure():
    plan = SampleSizePlan(100, 300)
    model = build_score_model(copd_spec(), plan)
    cov = model.covariance
    k = model.comparisons
    assert model.dimension == 3 * k
    np.testing.assert_allclose(np.diag(cov), 1.0, atol=1e-14)
    e, f1, f2 = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    # a shared, equally allocated control induces 1/2 between arms within a block
    assert cov[e, e][0, 1] == pytest.approx(0.5)
    assert cov[f2, f2][2, 3] == pytest.approx(0.5)
    # early and stage-1 final share patients: rho on the diagonal, rho/2 off
    assert cov[e, f1][0, 0] == pytest.approx(0.4)
    assert cov[e, f1][0, 1] == pytest.approx(0.2)
    # the stage-2 cohort is new patients, independent of stage 1
    np.testing.assert_allclose(cov[e, f2], 0.0, atol=1e-14)
    np.testing.assert_allclose(cov[f1, f2], 0.0, atol=1e-14)


def test_subgroup_model_covariance_structure():
    plan = SampleSizePlan(100, 300, enrich_per_arm=200)
    model = build_score_model(oncology_spec(), plan, prevalence=0.3)
    cov = model.covariance
    root_tau = math.sqrt(0.3)
    k = model.comparisons
    e, f1, f2 = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    # nested populations correlate at sqrt(tau)
    assert cov[e, e][0, 1] == pytest.approx(root_tau)
    assert cov[f2, f2][0, 1] == pytest.approx(root_tau)
    assert cov[e, f1][0, 0] == pytest.approx(0.5)
    assert cov[e, f1][0, 1] == pytest.approx(0.5 * root_tau)
    np.testing.assert_allclose(cov[f1, f2], 0.0, atol=1e-14)


def test_perfect_correlation_ties_endpoints():
    # with equal effects and rho = 1 the early and final stage-1 statistics
    # coincide almost surely, which is the final-outcome-selection mode
    spec = EffectSpec(
        design="treatment", early=(0.0, 0.2, 0.4), final=(0.0, 0.2, 0.4), correlation=1.0
    )
    model = build_score_model(spec, SampleSizePlan(50, 100))
    for index in range(20):
        stats = sample_replication(model, replication_stream(11, index))
        np.testing.assert_allclose(stats.values[:2], stats.values[2:4], atol=1e-10)


def test_sampling_moments_match_model():
    model = build_score_model(copd_spec(), SampleSizePlan(100, 300))
    stream = replication_stream(17, 0)
    draws = np.array(
        [model.mean + model.cholesky @ stream.standard_normal(model.dimension)
         for _ in range(200_000)]
    )
    np.testing.assert_allclose(draws.mean(axis=0), model.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), model.covariance, atol=0.02)


def test_subgroup_stage2_mean_uses_both_branch():
    plan = SampleSizePlan(100, 300, enrich_per_arm=200)
    model = build_score_model(oncology_spec(), plan, prevalence=0.3)
    both = effect_to_expectation(oncology_spec(), plan, "final", "stage2-full", prevalence=0.3)
    np.testing.assert_allclose(model.mean[4:], both, rtol=1e-12)


def test_resolve_prevalence_fixed_passthrough():
    stream = replication_stream(1, 0)
    assert resolve_prevalence(0.3, True, stream, 200) == (0.3, 0)


def test_resolve_prevalence_redraws_degenerate():
    # a tiny cohort at high prevalence must discard all-subgroup draws
    stream = replication_stream(1, 1)
    total_redraws = 0
    for _ in range(200):
        tau, redraws = resolve_prevalence(0.9, False, stream, 2)
        assert tau == pytest.approx(0.5)  # only the split 1/2 is admissible
        total_redraws += redraws
    assert total_redraws > 0


def test_resolve_prevalence_rejects_a_rarely_kept_prevalence_without_drawing():
    stream = replication_stream(3, 0)
    with pytest.raises(ValueError, match="non-empty"):
        resolve_prevalence(1e-9, False, stream, 200)
    with pytest.raises(ValueError, match="non-empty"):
        resolve_prevalence(0.95, False, stream, 2)  # keeps 9.5 % of draws
    assert resolve_prevalence(1e-9, True, stream, 200) == (1e-9, 0)
    # nothing was drawn: the stream still starts where a fresh one does
    assert stream.random() == replication_stream(3, 0).random()


def test_resolve_prevalence_matches_binomial_mean():
    stream = replication_stream(2, 0)
    taus = [resolve_prevalence(0.3, False, stream, 200)[0] for _ in range(5000)]
    assert np.mean(taus) == pytest.approx(0.3, abs=0.005)
    with pytest.raises(ValueError):
        resolve_prevalence(1.2, True, stream, 200)
