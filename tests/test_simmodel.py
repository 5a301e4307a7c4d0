"""Checks of the score-statistic simulation model.

Expected-statistic anchors are the console values from published runs of
the designs simulated here (rounded to the precision they were printed at);
the covariance its factor implies is checked entry-by-entry against the
model's defining correlations and by brute-force sampling moments.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from seamsim.closedtest import CombinationConfig
from seamsim.engine import (
    OperatingCharacteristics,
    Scenario,
    SubgroupCounts,
    TestSpec,
    expected_sample_size,
)
from seamsim.selection import SelectionRule
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


def test_time_to_event_and_binary_expectations_are_frozen():
    # exact values of the T and B laws under both designs' effect scales:
    # treatment T reads effects as minus log hazard rates, subgroup B as odds
    # ratios against a control at rate 1/2
    treat_t = EffectSpec("treatment", COPD_EARLY, COPD_FINAL, "T", "T", 0.4)
    plan = SampleSizePlan(100, 300)
    assert effect_to_expectation(treat_t, plan, "final", "stage1").tolist() == [
        0.7169317053818021, 0.931899809306327, 1.2493937132735717, 1.0913888092176751,
    ]
    assert effect_to_expectation(treat_t, plan, "final", "stage2-full").tolist() == [
        1.2417621392782827, 1.6140978172823064, 2.164013390046968, 1.89034086837711,
    ]
    assert effect_to_expectation(treat_t, plan, "early", "stage1").tolist() == [
        3.4499363877002045, 4.076072441407697, 4.636675396084507, 4.46616842028011,
    ]
    sub_b = EffectSpec("subgroup", (0.6, 0.9), (0.6, 0.9), "B", "B", 0.5)
    plan = SampleSizePlan(100, 300, enrich_per_arm=200)
    cohorts = {
        "stage1": [-0.9731237863984853, -0.3722472601094759],
        "stage2-full": [-1.68549984009598, -0.6447511674879196],
        "stage2-enriched": [-2.512594812346425],
        "stage2-subgroup-only": [-3.0772876103063957],
    }
    for cohort, values in cohorts.items():
        assert effect_to_expectation(sub_b, plan, "final", cohort, prevalence=0.3).tolist() == values
    treat_b = copd_spec(final=(0.50, 0.45, 0.45, 0.40, 0.40), final_outcome="B")
    assert effect_to_expectation(treat_b, SampleSizePlan(100, 300), "final", "stage1")[2] == 1.418832319096315
    sub_t = effect_to_expectation(oncology_spec(), plan, "final", "stage2-enriched")
    assert sub_t.tolist() == [-3.7595324373526493]


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
    # minus log hazard theta enters as exp(-theta); an odds ratio of 2**53
    # makes the event rate or / (1 + or) round to 1
    with pytest.raises(ValueError, match="overflow"):
        EffectSpec(design="treatment", early=(0.0, 0.1), final=(0.0, -1000.0), final_outcome="T")
    with pytest.raises(ValueError, match="2\\*\\*53"):
        EffectSpec(design="subgroup", early=(1.0, 1.0), final=(2.0**53, 0.9), final_outcome="B")
    # the extreme values still accepted convert to finite statistics
    plan = SampleSizePlan(stage1_per_arm=100, stage2_per_arm=300)
    for spec, prevalence in (
        (EffectSpec(design="treatment", early=(0.0, 0.1), final=(0.0, -math.log(sys.float_info.max)),
                    final_outcome="T"), None),
        (EffectSpec(design="subgroup", early=(1.0, 1.0), final=(2.0**53 - 1, 0.9), final_outcome="B"), 0.3),
    ):
        assert np.isfinite(build_score_model(spec, plan, prevalence).mean).all()
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


def assert_factor_reproduces_covariance(spec, plan, prevalence=None):
    """chol @ chol.T is kron(S, U): S the endpoint/stage pattern, U the comparison block."""
    unit = np.full((spec.comparisons,) * 2, 0.5 if prevalence is None else math.sqrt(prevalence))
    np.fill_diagonal(unit, 1.0)
    for rho in (-1.0, 0.0, 0.4, 1.0):
        model = build_score_model(replace(spec, correlation=rho), plan, prevalence)
        np.testing.assert_array_equal(model.cholesky, np.tril(model.cholesky))
        stages = np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(
            model.cholesky @ model.cholesky.T, np.kron(stages, unit), rtol=0, atol=1e-14
        )


def test_treatment_model_covariance_structure():
    plan = SampleSizePlan(100, 300)
    model = build_score_model(copd_spec(), plan)
    cov = model.cholesky @ model.cholesky.T
    k = 4
    assert model.mean.size == 3 * k
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
    assert_factor_reproduces_covariance(copd_spec(), plan)


def test_subgroup_model_covariance_structure():
    plan = SampleSizePlan(100, 300, enrich_per_arm=200)
    model = build_score_model(oncology_spec(), plan, prevalence=0.3)
    cov = model.cholesky @ model.cholesky.T
    root_tau = math.sqrt(0.3)
    k = 2
    e, f1, f2 = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    # nested populations correlate at sqrt(tau)
    assert cov[e, e][0, 1] == pytest.approx(root_tau)
    assert cov[f2, f2][0, 1] == pytest.approx(root_tau)
    assert cov[e, f1][0, 0] == pytest.approx(0.5)
    assert cov[e, f1][0, 1] == pytest.approx(0.5 * root_tau)
    np.testing.assert_allclose(cov[f1, f2], 0.0, atol=1e-14)
    assert_factor_reproduces_covariance(oncology_spec(), plan, prevalence=0.3)


def test_perfect_correlation_ties_endpoints():
    # at rho = +-1 the early and stage-1 final statistics deviate from their
    # means by rho times each other almost surely; with equal effects and
    # rho = 1 they coincide, which is the final-outcome-selection mode
    for rho in (1.0, -1.0):
        spec = EffectSpec(
            design="treatment", early=(0.0, 0.2, 0.4), final=(0.0, 0.2, 0.4), correlation=rho
        )
        model = build_score_model(spec, SampleSizePlan(50, 100))
        for index in range(20):
            stats = sample_replication(model, replication_stream(11, index))
            deviation = stats.values - model.mean
            np.testing.assert_allclose(deviation[:2], rho * deviation[2:4], atol=1e-10)
            if rho == 1.0:
                np.testing.assert_allclose(stats.values[:2], stats.values[2:4], atol=1e-10)


def test_sampling_moments_match_model():
    model = build_score_model(copd_spec(), SampleSizePlan(100, 300))
    stream = replication_stream(17, 0)
    draws = np.array([sample_replication(model, stream).values for _ in range(200_000)])
    np.testing.assert_allclose(draws.mean(axis=0), model.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), model.cholesky @ model.cholesky.T, atol=0.02)


def test_subgroup_stage2_mean_uses_both_branch():
    plan = SampleSizePlan(100, 300, enrich_per_arm=200)
    model = build_score_model(oncology_spec(), plan, prevalence=0.3)
    both = effect_to_expectation(oncology_spec(), plan, "final", "stage2-full", prevalence=0.3)
    np.testing.assert_allclose(model.mean[4:], both, rtol=1e-12)


def test_subgroup_only_mean_follows_the_planned_cohort():
    # the enriched cohort when the plan has one, else the planned stage-2 size
    means = []
    for plan, cohort in ((SampleSizePlan(100, 300), "stage2-subgroup-only"),
                         (SampleSizePlan(100, 300, enrich_per_arm=200), "stage2-enriched")):
        model = build_score_model(oncology_spec(), plan, prevalence=0.3)
        assert model.subgroup_only == effect_to_expectation(oncology_spec(), plan, "final", cohort)[0]
        means.append(model.subgroup_only)
    assert means[0] != means[1]
    assert build_score_model(copd_spec(), SampleSizePlan(100, 300)).subgroup_only is None
    # the expected sample size budgets the same cohort: 2 * 100 + 2 * (n * 10 + 300 * 8) / 20
    counts = {"sub": SubgroupCounts(n=10), "full": SubgroupCounts(n=5), "both": SubgroupCounts(n=3)}
    oc = OperatingCharacteristics(design="subgroup", replications=20, futility_count=2,
                                  expected_total_sample_size=0.0, subgroup_counts=counts)
    for enrich, subgroup_only, size in ((None, 300, 740.0), (200, 200, 640.0)):
        plan = SampleSizePlan(100, 300, enrich_per_arm=enrich)
        assert plan.subgroup_only_per_arm == subgroup_only
        scenario = Scenario(effects=oncology_spec(), plan=plan,
                            rule=SelectionRule("futility-pair", limits=(0.0, 0.0)),
                            test=TestSpec("spiessens-debois", CombinationConfig()),
                            replications=20, master_seed=1, prevalence=0.3)
        assert expected_sample_size(scenario, oc) == size


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
