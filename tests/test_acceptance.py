"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package against reference
values for the bundled example configurations, with the Monte Carlo tolerance
stated next to every comparison. Every run is seeded, so the whole module is
deterministic. On a 2-core AMD EPYC machine the familywise-error sweep
(criterion 7) takes about 13 s of the whole test suite's 57 s.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from seamsim import (
    CombinationConfig,
    EffectSpec,
    SampleSizePlan,
    Scenario,
    SelectionRule,
    TestSpec,
    run_scenario,
)
from seamsim._reference import intersection_pvalue
from seamsim.closedtest import spending_boundaries
from seamsim.cli import (
    _expectation_lines,
    export_csv,
    export_json,
    parse_config,
    parse_sweep_config,
)
from seamsim.engine import sweep

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def load_scenario(name: str, design: str) -> Scenario:
    return parse_config(CONFIG_DIR.joinpath(name).read_text(), design)


def pct(count: int, total: int) -> float:
    return 100.0 * count / total


def test_expected_statistic_lines_are_exact(criterion):
    start = time.perf_counter()
    treat = _expectation_lines(load_scenario("copd_setting1.yaml", "treatment"))
    subpop = _expectation_lines(load_scenario("oncology.yaml", "subgroup"))
    elapsed = time.perf_counter() - start

    ok = treat == [
        "simulation of test statistics:",
        "expectation early = 4.8 5.8 6.7 6.4",
        "expectation final stage 1 = 0.9 1.2 1.6 1.4 and stage 2 = 1.6 2.1 2.8 2.4",
        "weights: stage 1 = 0.5 and stage 2 = 0.87",
    ] and subpop == [
        "simulation of test statistics:",
        "expectation early: sub-pop = -1.46 : full-pop = -0.58",
        "expectation final stage 1: sub-pop = -1.46 : full-pop = -0.58",
        "expectation final stage 2: sub-pop only = -3.76 : full-pop only = -1.01",
        "expectation final stage 2, both groups selected: sub-pop = -2.52 : full-pop = -1.01",
        "weights: stage 1 = 0.5 and stage 2 = 0.87",
    ]
    criterion(1, ok, f"deterministic expectation lines exact for both designs ({elapsed * 1e3:.0f} ms)")


def test_best_two_selection_operating_characteristics(criterion):
    scenario = load_scenario("copd_setting1.yaml", "treatment")
    start = time.perf_counter()
    oc = run_scenario(scenario)
    elapsed = time.perf_counter() - start

    overall = pct(oc.ptest_rejected_count, oc.replications)
    arms = [pct(c, oc.replications) for c in oc.arm_selected_counts]
    reference = (3.83, 32.82, 86.61, 76.74)  # tolerance 1.5 pp each
    arm_diff = max(abs(a - b) for a, b in zip(arms, reference))
    ok = abs(overall - 84.69) <= 1.5 and arm_diff <= 1.5 and elapsed < 5.0
    criterion(
        2,
        ok,
        f"reject H3/H4 {overall:.2f}% (ref 84.69 +- 1.5); worst arm-selection "
        f"diff {arm_diff:.2f} pp (tol 1.5); {elapsed:.2f}s (< 5s)",
    )


def test_threshold_selection_operating_characteristics(criterion):
    scenario = load_scenario("copd_threshold.yaml", "treatment")
    oc = run_scenario(scenario)
    futility = pct(oc.futility_count, oc.replications)
    overall = pct(oc.ptest_rejected_count, oc.replications)
    hist = [pct(c, oc.replications) for c in oc.selected_size_counts]
    reference = (8.00, 16.34, 30.98, 41.75)  # tolerance 1.5 pp each
    hist_diff = max(abs(a - b) for a, b in zip(hist, reference))
    ok = abs(futility - 2.93) <= 1.0 and abs(overall - 86.0) <= 1.5 and hist_diff <= 1.5
    criterion(
        3,
        ok,
        f"futility {futility:.2f}% (ref 2.93 +- 1.0); reject H3/H4 {overall:.2f}% "
        f"(ref 86 +- 1.5); worst histogram diff {hist_diff:.2f} pp (tol 1.5)",
    )


def test_threshold_sweep_expected_sample_sizes(criterion):
    base, axis, values = parse_sweep_config(
        CONFIG_DIR.joinpath("copd_threshold_sweep.yaml").read_text()
    )
    points = sweep(base, axis, values)
    reference = (
        2199.5, 2197.3, 2188.1, 2164.3, 2109.0, 1991.2, 1802.5,
        1548.2, 1264.0, 1004.2, 807.9, 688.2, 631.0,
    )  # tolerance 30 patients each
    sizes = [p.oc.expected_total_sample_size for p in points]
    worst = max(abs(a - b) for a, b in zip(sizes, reference))
    ok = len(sizes) == len(reference) and worst <= 30.0
    criterion(4, ok, f"13-point threshold sweep: worst E[N] diff {worst:.1f} (tol 30)")


def test_binary_final_outcome_power(criterion):
    scenario = load_scenario("copd_binary_final.yaml", "treatment")
    oc = run_scenario(scenario)
    overall = pct(oc.ptest_rejected_count, oc.replications)
    ok = abs(overall - 76.99) <= 1.5
    criterion(5, ok, f"binary final outcome: reject H3/H4 {overall:.2f}% (ref 76.99 +- 1.5)")


def test_subgroup_design_and_futility_grid(criterion):
    scenario = load_scenario("oncology.yaml", "subgroup")
    oc = run_scenario(scenario)
    union = pct(oc.union_rejected_count, oc.replications)
    rows = oc.subgroup_counts
    split = (
        pct(rows["sub"].n, oc.replications),
        pct(rows["full"].n, oc.replications),
        pct(rows["both"].n, oc.replications),
        pct(oc.futility_count, oc.replications),
    )
    reference_split = (23.09, 2.27, 69.87, 4.77)  # tolerance 1.5 pp each
    split_diff = max(abs(a - b) for a, b in zip(split, reference_split))

    # The full futility-limit grid, (subgroup limit, full limit) pairs with
    # the full-population limit moving slowest. Reference rows are
    # (sub-only, full-only, both, futility, union) percentages with a
    # 1.5 pp tolerance per cell; 2.5e5 replications keep the grid's own
    # Monte Carlo error near 0.1 pp.
    limits = (0.0, -1.0, -2.0, -3.0)
    grid_values = [(ls, lf) for lf in limits for ls in limits]
    reference_grid = (
        (23.1, 2.3, 69.9, 4.8, 76.7), (11.4, 16.2, 55.8, 16.7, 58.8),
        (2.3, 45.1, 26.5, 26.1, 34.2), (0.1, 66.0, 6.0, 27.9, 20.7),
        (60.0, 0.4, 32.3, 7.3, 83.9), (37.4, 4.0, 29.7, 29.0, 61.4),
        (12.3, 16.5, 16.9, 54.2, 30.3), (1.5, 28.4, 4.8, 65.4, 13.8),
        (84.9, 0.0, 7.4, 7.7, 88.6), (60.1, 0.3, 7.2, 32.4, 65.0),
        (24.1, 2.4, 5.6, 68.0, 29.2), (4.4, 5.3, 2.1, 88.2, 8.0),
        (91.6, 0.0, 0.7, 7.7, 89.7), (66.7, 0.0, 0.7, 32.6, 66.0),
        (28.6, 0.1, 0.6, 70.7, 28.8), (5.6, 0.4, 0.3, 93.7, 6.1),
    )
    grid = sweep(replace(scenario, replications=250_000), "futility-limits-grid", grid_values)
    worst_cell = 0.0
    for point, reference in zip(grid, reference_grid):
        branch = point.oc.subgroup_counts
        total = point.oc.replications
        got = (
            pct(branch["sub"].n, total),
            pct(branch["full"].n, total),
            pct(branch["both"].n, total),
            pct(point.oc.futility_count, total),
            pct(point.oc.union_rejected_count, total),
        )
        worst_cell = max(worst_cell, max(abs(a - b) for a, b in zip(got, reference)))

    ok = abs(union - 76.65) <= 1.5 and split_diff <= 1.5 and worst_cell <= 1.5
    criterion(
        6,
        ok,
        f"reject Hs/Hf {union:.2f}% (ref 76.65 +- 1.5); worst selection-split diff "
        f"{split_diff:.2f} pp; worst grid cell diff {worst_cell:.2f} pp over 16 rows (tol 1.5)",
    )


def test_familywise_error_rate_is_controlled(criterion):
    replications = 100_000
    bound = 0.025 + 3 * math.sqrt(0.025 * 0.975 / replications)
    start = time.perf_counter()
    worst = 0.0
    runs = 0
    seed = 900_000

    # Treatment designs: three active arms; the partial nulls remove one
    # true effect at a time and the error rate is the rejection rate of the
    # corresponding (true) hypothesis.
    plan = SampleSizePlan(100, 300)
    alt_early = (0.0, 0.3, 0.5, 0.7)
    alt_final = (0.0, 0.10, 0.15, 0.20)
    rules = (
        SelectionRule("all"),
        SelectionRule("best-1"),
        SelectionRule("best-2"),
        SelectionRule("best-3"),
        SelectionRule("epsilon", epsilon=1.0),
        SelectionRule("random-1"),
        SelectionRule("threshold", threshold=1.0),
    )
    for rule in rules:
        for intersection in ("dunnett", "bonferroni", "simes"):
            for method in ("inverse-normal", "fisher"):
                config = CombinationConfig.from_sample_sizes(100, 300, method=method)
                for null_arm in (None, 1, 2, 3):
                    if null_arm is None:
                        early = final = (0.0, 0.0, 0.0, 0.0)
                    else:
                        early = tuple(
                            0.0 if i == null_arm else v for i, v in enumerate(alt_early)
                        )
                        final = tuple(
                            0.0 if i == null_arm else v for i, v in enumerate(alt_final)
                        )
                    effects = EffectSpec(
                        design="treatment", early=early, final=final, correlation=0.4
                    )
                    seed += 1
                    oc = run_scenario(
                        Scenario(
                            effects,
                            plan,
                            rule,
                            TestSpec(intersection, config),
                            replications=replications,
                            master_seed=seed,
                        )
                    )
                    if null_arm is None:
                        fwer = oc.any_rejected_count / replications
                    else:
                        fwer = oc.hypothesis_rejected_counts[null_arm - 1] / replications
                    worst = max(worst, fwer)
                    runs += 1

    # Subgroup designs: hazard ratio 1 marks a true hypothesis; the partial
    # nulls keep an effect in the other population.
    plan_s = SampleSizePlan(100, 300, enrich_per_arm=200)
    sub_rules = (
        SelectionRule("futility-pair", limits=(0.0, 0.0)),
        SelectionRule("threshold-pair", limits=(-0.1, 0.1)),
    )
    for rule in sub_rules:
        for intersection in ("spiessens-debois", "bonferroni", "simes"):
            for method in ("inverse-normal", "fisher"):
                config = CombinationConfig.from_sample_sizes(100, 300, method=method)
                for hazards, which in (
                    ((1.0, 1.0), None),
                    ((1.0, 0.9), "hs"),
                    ((0.6, 1.0), "hf"),
                ):
                    effects = EffectSpec(
                        design="subgroup",
                        early=hazards,
                        final=hazards,
                        early_outcome="T",
                        final_outcome="T",
                        correlation=0.5,
                    )
                    seed += 1
                    oc = run_scenario(
                        Scenario(
                            effects,
                            plan_s,
                            rule,
                            TestSpec(intersection, config),
                            replications=replications,
                            master_seed=seed,
                            prevalence=0.3,
                        )
                    )
                    if which is None:
                        fwer = oc.union_rejected_count / replications
                    else:
                        fwer = (
                            sum(getattr(row, which) for row in oc.subgroup_counts.values())
                            / replications
                        )
                    worst = max(worst, fwer)
                    runs += 1

    elapsed = time.perf_counter() - start
    ok = worst <= bound and elapsed < 300.0
    criterion(
        7,
        ok,
        f"worst FWER {worst:.5f} <= {bound:.5f} over {runs} rule/test/method/null "
        f"runs of 10^5 replications ({elapsed:.0f}s, target < 300s)",
    )


def test_intersection_pvalues_match_brute_force(criterion):
    rng = np.random.default_rng(20260814)
    samples = 10_000_000
    chunk = 1_000_000
    worst_ratio = 0.0

    # Ten equicorrelated maxima (many-arm test) and ten bivariate maxima
    # (subgroup test): the implied exceedance probability must sit within
    # three Monte Carlo standard errors of a 1e7-sample estimate.
    for _ in range(10):
        m = int(rng.integers(2, 6))
        lam = rng.uniform(0.5, 2.0)
        z = rng.uniform(0.5, 2.5, size=m)
        p_impl = intersection_pvalue(z, "dunnett", lam=lam)
        r = 1.0 / (1.0 + lam)
        hits = 0
        for _ in range(samples // chunk):
            shared = rng.standard_normal(chunk)
            own = rng.standard_normal((chunk, m))
            draws = math.sqrt(r) * shared[:, None] + math.sqrt(1.0 - r) * own
            hits += int((draws.max(axis=1) > z.max()).sum())
        p_mc = hits / samples
        se = math.sqrt(p_mc * (1.0 - p_mc) / samples)
        worst_ratio = max(worst_ratio, abs(p_impl - p_mc) / (3.0 * se))

    for _ in range(10):
        tau = rng.uniform(0.1, 0.9)
        z = rng.uniform(0.5, 2.5, size=2)
        p_impl = intersection_pvalue(z, "spiessens-debois", tau=tau)
        rho = math.sqrt(tau)
        hits = 0
        for _ in range(samples // chunk):
            shared = rng.standard_normal(chunk)
            own = rng.standard_normal((chunk, 2))
            draws = math.sqrt(rho) * shared[:, None] + math.sqrt(1.0 - rho) * own
            hits += int((draws.max(axis=1) > z.max()).sum())
        p_mc = hits / samples
        se = math.sqrt(p_mc * (1.0 - p_mc) / samples)
        worst_ratio = max(worst_ratio, abs(p_impl - p_mc) / (3.0 * se))

    # Spending boundaries: under the null the early-stop and final-rejection
    # probabilities must match the allocated error split.
    config = CombinationConfig.from_sample_sizes(100, 300, alpha=0.025, alpha1=0.0125)
    u1, u2 = spending_boundaries(config)
    y1 = rng.standard_normal(samples)
    y2 = rng.standard_normal(samples)
    combined = config.w1 * y1 + config.w2 * y2
    early = float((y1 >= u1).mean())
    late = float(((y1 < u1) & (combined >= u2)).mean())
    se = math.sqrt(0.0125 * (1.0 - 0.0125) / samples)
    worst_ratio = max(
        worst_ratio, abs(early - 0.0125) / (3.0 * se), abs(late - 0.0125) / (3.0 * se)
    )

    ok = worst_ratio <= 1.0
    criterion(
        8,
        ok,
        f"20 intersection p-value points and the spending boundaries within "
        f"3*SE of 1e7-sample brute force (worst {worst_ratio:.2f} of tolerance)",
    )


def test_exports_do_not_depend_on_worker_count(criterion):
    treat = replace(
        load_scenario("copd_setting1.yaml", "treatment"), replications=3 * 4096 + 500
    )
    subpop = replace(
        load_scenario("oncology.yaml", "subgroup"), replications=2 * 4096 + 77
    )
    ok = True
    for scenario in (treat, subpop):
        exports = []
        for threads in (1, 4, 16):
            oc = run_scenario(scenario, threads=threads)
            exports.append((export_csv(oc, scenario), export_json(oc, scenario)))
        ok = ok and exports[0] == exports[1] == exports[2]
    criterion(9, ok, "CSV and JSON exports byte-identical at 1, 4 and 16 workers for both designs")


def _patients(rng, rho, replications):
    """``cohort_means(theta_early, theta_final, size)``: per replication, the early and final means of
    ``size`` patients whose unit-variance normal measurements correlate at rho within a patient."""

    def cohort_means(theta_early, theta_final, size):
        early = theta_early + rng.standard_normal((replications, size))
        final = (
            theta_final
            + rho * (early - theta_early)
            + math.sqrt(1.0 - rho * rho) * rng.standard_normal((replications, size))
        )
        return early.mean(axis=1), final.mean(axis=1)

    return cohort_means


def _worst_of_3se(stats, mean, cov):
    """Worst |empirical - law| of the mean and of the covariance, each over its 3*SE tolerance."""
    replications = stats.shape[0]
    mean_tol = 3.0 * np.sqrt(np.diag(cov) / replications)
    cov_tol = 3.0 * np.sqrt(
        (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / replications
    )
    return (float(np.max(np.abs(stats.mean(axis=0) - mean) / mean_tol)),
            float(np.max(np.abs(np.cov(stats, rowvar=False) - cov) / cov_tol)))


def test_patient_level_simulation_reproduces_model(criterion, engine_law):
    # Simulate raw patient outcomes with correlated normal early/final
    # measurements, form the standardized statistics of both stages, and check
    # their mean and covariance against the law the engine draws them from.
    replications = 100_000

    # Treatment design: two active arms and a control, six comparisons.
    k, rho = 2, 0.4
    n1, n2 = 16, 24
    effects = EffectSpec(
        design="treatment", early=(0.0, 0.3, 0.5), final=(0.0, 0.2, 0.4), correlation=rho
    )
    cohort_means = _patients(np.random.default_rng(31415), rho, replications)
    stats = np.empty((replications, 3 * k))
    early0, final0 = cohort_means(0.0, 0.0, n1)
    early0_s2, final0_s2 = cohort_means(0.0, 0.0, n2)
    for j, (theta_early, theta_final) in enumerate(((0.3, 0.2), (0.5, 0.4))):
        early, final = cohort_means(theta_early, theta_final, n1)
        stats[:, j] = (early - early0) * math.sqrt(n1 / 2)
        stats[:, k + j] = (final - final0) * math.sqrt(n1 / 2)
        early_s2, final_s2 = cohort_means(theta_early, theta_final, n2)
        stats[:, 2 * k + j] = (final_s2 - final0_s2) * math.sqrt(n2 / 2)
    mean, factor = engine_law(effects, SampleSizePlan(n1, n2))
    treatment = _worst_of_3se(stats, mean, factor @ factor.T)

    # Subgroup design at a fixed prevalence tau: per arm and stage, tau * n
    # patients of the subgroup and (1 - tau) * n of its complement, both
    # populations continued; the full population's effect is the mixture.
    tau, rho = 0.3, 0.5
    n1, n2 = 20, 30
    sub, rest = (0.5, 0.4), (0.2, 0.1)  # (early, final) effects in the subgroup and its complement
    full = tuple(tau * a + (1.0 - tau) * b for a, b in zip(sub, rest))
    effects = EffectSpec(design="subgroup", early=(sub[0], full[0]), final=(sub[1], full[1]), correlation=rho)
    cohort_means = _patients(np.random.default_rng(27182), rho, replications)

    def population_means(theta_sub, theta_rest, n):  # (subgroup, full) early and final means of one arm
        sub_early, sub_final = cohort_means(*theta_sub, round(tau * n))
        rest_early, rest_final = cohort_means(*theta_rest, round((1.0 - tau) * n))
        return [(sub_early, tau * sub_early + (1.0 - tau) * rest_early),
                (sub_final, tau * sub_final + (1.0 - tau) * rest_final)]

    def stage(n):  # the (subgroup, full) early and final statistics of one stage's cohort
        control, treated = population_means((0.0, 0.0), (0.0, 0.0), n), population_means(sub, rest, n)
        scale = np.array([math.sqrt(tau * n / 2), math.sqrt(n / 2)])
        return [(np.column_stack(t) - np.column_stack(c)) * scale for t, c in zip(treated, control)]

    early1, final1 = stage(n1)
    stats = np.hstack([early1, final1, stage(n2)[1]])  # stage 2 reports the final outcome only
    mean, factor = engine_law(effects, SampleSizePlan(n1, n2), tau)
    subgroup = _worst_of_3se(stats, mean, factor @ factor.T)

    ok = max(treatment + subgroup) <= 1.0
    criterion(
        10,
        ok,
        "patient-level simulation matches the engine's mean/covariance within 3*SE "
        f"(worst mean {treatment[0]:.2f}, covariance {treatment[1]:.2f} of tolerance; "
        f"subgroup design {subgroup[0]:.2f}, {subgroup[1]:.2f})",
    )
