"""Tests for the replication engine, its tallies and parameter sweeps."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seamsim.cli import parse_config
from seamsim.closedtest import (
    CombinationConfig,
    closed_test,
    combine,
    intersection_pvalue,
)
from seamsim.engine import (
    _GRID,
    _YMAX,
    _YMIN,
    InfeasibleScenarioError,
    OperatingCharacteristics,
    Scenario,
    SubgroupCounts,
    TestSpec,
    _draw_chunk,
    _dunnett_grid,
    _keep_quantile,
    _pool_size,
    _prepare,
    _sd_grid,
    expected_sample_size,
    run_scenario,
    sweep,
)
from seamsim.selection import SelectionRule, select_population, select_treatments
from seamsim.simmodel import (
    ARM_CORRELATION,
    EffectSpec,
    SampleSizePlan,
    build_score_model,
    effect_to_expectation,
    larger_is_better,
    resolve_prevalence,
    sample_replication,
)
from seamsim.statdist import bvn_cdf, equicorr_max_cdf, replication_stream

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def treatment_scenario(rule, method="bonferroni", reps=400, seed=777, **kw):
    effects = EffectSpec(
        design="treatment",
        early=(0.0, 0.3, 0.5, 0.7),
        final=(0.0, 0.10, 0.15, 0.20),
        correlation=0.4,
    )
    plan = SampleSizePlan(stage1_per_arm=60, stage2_per_arm=120)
    config = CombinationConfig.from_sample_sizes(60, 120)
    return Scenario(
        effects=effects,
        plan=plan,
        rule=rule,
        test=TestSpec(method, config),
        replications=reps,
        master_seed=seed,
        **kw,
    )


def subgroup_scenario(rule, method="simes", reps=400, seed=4242, **kw):
    effects = EffectSpec(
        design="subgroup",
        early=(0.6, 0.9),
        final=(0.6, 0.9),
        early_outcome="T",
        final_outcome="T",
        correlation=0.5,
    )
    plan = SampleSizePlan(stage1_per_arm=100, stage2_per_arm=300, enrich_per_arm=200)
    config = CombinationConfig.from_sample_sizes(100, 300)
    kw.setdefault("prevalence", 0.3)
    return Scenario(
        effects=effects,
        plan=plan,
        rule=rule,
        test=TestSpec(method, config),
        replications=reps,
        master_seed=seed,
        **kw,
    )


# ---------------------------------------------------------------------------
# scenario validation


def test_scenario_validation():
    with pytest.raises(ValueError, match="does not fit"):
        treatment_scenario(SelectionRule("threshold-pair", limits=(0, 0)))
    with pytest.raises(ValueError, match="does not fit"):
        subgroup_scenario(SelectionRule("all"))
    with pytest.raises(ValueError, match="Dunnett"):
        subgroup_scenario(SelectionRule("futility-pair", limits=(0, 0)), method="dunnett")
    with pytest.raises(ValueError, match="subgroup/full"):
        treatment_scenario(SelectionRule("all"), method="spiessens-debois")
    with pytest.raises(ValueError, match="prevalence"):
        subgroup_scenario(SelectionRule("futility-pair", limits=(0, 0)), prevalence=None)
    with pytest.raises(ValueError, match="prevalence"):
        treatment_scenario(SelectionRule("all"), prevalence=0.3)
    with pytest.raises(ValueError, match="ptest"):
        subgroup_scenario(SelectionRule("futility-pair", limits=(0, 0)), ptest=(1,))
    # options the other design ignores are rejected, not silently dropped
    with pytest.raises(ValueError, match="prevalence_fixed"):
        treatment_scenario(SelectionRule("all"), prevalence_fixed=False)
    with pytest.raises(ValueError, match="follow_up"):
        subgroup_scenario(SelectionRule("futility-pair", limits=(0, 0)), follow_up=True)
    # 200 stage-1 patients keep both populations in ~2e-7 of the draws
    with pytest.raises(ValueError, match="non-empty"):
        subgroup_scenario(
            SelectionRule("futility-pair", limits=(0, 0)), prevalence=1e-9, prevalence_fixed=False
        )
    with pytest.raises(ValueError, match="1..K"):
        treatment_scenario(SelectionRule("all"), ptest=(3, 4))
    with pytest.raises(ValueError, match="whole"):
        treatment_scenario(SelectionRule("all"), ptest=(1.5,))
    with pytest.raises(ValueError, match="replications"):
        treatment_scenario(SelectionRule("all"), reps=0)
    with pytest.raises(ValueError, match="replications"):
        treatment_scenario(SelectionRule("all"), reps=10_000_001)
    with pytest.raises(ValueError, match="unknown intersection"):
        TestSpec("holm", CombinationConfig())


def test_ptest_arms_are_normalised():
    scn = treatment_scenario(SelectionRule("all"), ptest=[3, 2, 3])
    assert scn.ptest == (2, 3)
    assert scn.design == "treatment"


def test_operating_characteristics_conservation_checks():
    with pytest.raises(ValueError, match="histogram"):
        OperatingCharacteristics(
            design="treatment",
            replications=10,
            futility_count=0,
            expected_total_sample_size=0.0,
            selected_size_counts=(4, 0, 0),
            arm_selected_counts=(4, 0, 0),
            hypothesis_rejected_counts=(0, 0, 0),
            any_rejected_count=0,
        )
    with pytest.raises(ValueError, match="branch counts"):
        OperatingCharacteristics(
            design="subgroup",
            replications=10,
            futility_count=1,
            expected_total_sample_size=0.0,
            subgroup_counts={"sub": SubgroupCounts(n=4), "full": SubgroupCounts(), "both": SubgroupCounts(n=4)},
            union_rejected_count=0,
        )


# ---------------------------------------------------------------------------
# exact sample-size identities


def test_select_all_never_stops_and_spends_the_full_budget():
    scn = treatment_scenario(SelectionRule("all"), reps=2000)
    oc = run_scenario(scn)
    k = scn.effects.comparisons
    assert oc.futility_count == 0
    assert oc.selected_size_counts == (0, 0, 2000)
    assert oc.arm_selected_counts == (2000,) * k
    # every replication recruits all four stage-1 and all four stage-2 cohorts
    assert oc.expected_total_sample_size == (k + 1) * 60 + (k + 1) * 120


def test_certain_futility_still_budgets_the_control_stage2_cohort():
    scn = treatment_scenario(SelectionRule("threshold", threshold=50.0), reps=1000)
    oc = run_scenario(scn)
    assert oc.futility_count == 1000
    assert oc.any_rejected_count == 0
    assert oc.selected_size_counts == (0, 0, 0)
    # the control group's stage-2 allocation is committed in every replication
    assert oc.expected_total_sample_size == 4 * 60 + 120


def test_subgroup_futility_recruits_stage_one_only():
    scn = subgroup_scenario(SelectionRule("futility-pair", limits=(-50.0, -50.0)), reps=500)
    oc = run_scenario(scn)
    assert oc.futility_count == 500
    assert oc.union_rejected_count == 0
    assert oc.expected_total_sample_size == 2 * 100
    assert all(c.n == 0 for c in oc.subgroup_counts.values())


# ---------------------------------------------------------------------------
# determinism


def test_thread_count_does_not_change_the_result():
    scn = treatment_scenario(SelectionRule("best-2"), method="dunnett", reps=10_000)
    serial = run_scenario(scn, threads=1)
    parallel = run_scenario(scn, threads=3)
    assert serial == parallel
    assert run_scenario(scn, threads=1) == serial


def test_varying_prevalence_runs_deterministically():
    scn = subgroup_scenario(
        SelectionRule("futility-pair", limits=(0.0, 0.0)),
        reps=2000,
        prevalence=0.1,
        prevalence_fixed=False,
    )
    # a tiny stage-1 cohort makes empty-subgroup redraws likely
    scn = replace(scn, plan=replace(scn.plan, stage1_per_arm=5))
    first = run_scenario(scn, threads=1)
    assert first == run_scenario(scn, threads=2)
    assert first.prevalence_redraws > 0
    fixed = run_scenario(replace(scn, prevalence_fixed=True))
    assert fixed.prevalence_redraws == 0


def test_varying_prevalence_subgroup_full_test_tallies_are_frozen():
    # CT-SD with a redrawn prevalence evaluates the bivariate CDF per row;
    # two full chunks plus a short one, tallies recorded from the engine
    doc = (CONFIG_DIR / "oncology.yaml").read_text() + "sprev_fixed: false\n"
    scn = replace(parse_config(doc, "subgroup"), replications=2 * 4096 + 5)
    oc = run_scenario(scn)
    assert (oc.futility_count, oc.prevalence_redraws, oc.clamped_pvalues) == (412, 0, 0)
    assert oc.union_rejected_count == 6223
    assert oc.subgroup_counts == {
        "sub": SubgroupCounts(n=1909, hs=1830, hf=0, both=0, intersection=1831),
        "full": SubgroupCounts(n=182, hs=0, hf=39, both=0, intersection=46),
        "both": SubgroupCounts(n=5694, hs=4327, hf=1376, both=1349, intersection=4379),
    }


def test_pool_size_never_exceeds_cpus_or_chunks():
    assert _pool_size(5000, 2, 50) == 2
    assert _pool_size(16, 64, 3) == 3
    assert _pool_size(4, 8, 10) == 4
    assert _pool_size(1, 8, 10) == 1
    assert _pool_size(0, 8, 10) == 1


# ---------------------------------------------------------------------------
# quantile grids and the chunk's random stream


GRID_MIDPOINTS = 0.5 * (_GRID[1:] + _GRID[:-1])


@pytest.mark.parametrize(
    "kind, m, corr",
    [("dunnett", m, ARM_CORRELATION) for m in range(2, 9)]
    + [("ct-sd", 2, tau) for tau in (0.3, 0.9)],
)
def test_grid_interpolation_error_is_below_1e_6_for_quantiles_up_to_6(kind, m, corr):
    # midpoints are where linear interpolation is worst
    if kind == "dunnett":
        grid, direct = _dunnett_grid(m), equicorr_max_cdf(m, corr, GRID_MIDPOINTS)
    else:
        root_tau = np.sqrt(corr)
        grid, direct = _sd_grid(root_tau), bvn_cdf(GRID_MIDPOINTS, GRID_MIDPOINTS, root_tau)
    exact = _keep_quantile(direct)
    inside = np.abs(exact) <= 6.0
    assert inside.sum() > 1000
    interpolated = np.interp(GRID_MIDPOINTS, _GRID, grid)
    assert np.max(np.abs(interpolated - exact)[inside]) < 1e-6


TAIL_POINTS = np.array([-40.0, -12.0, -9.0, -8.6, 8.6, 9.0, 12.0, 40.0])


@pytest.mark.parametrize(
    "kind, m, corr",
    [("dunnett", m, ARM_CORRELATION) for m in range(2, 9)]
    + [("ct-sd", 2, tau) for tau in (0.3, 0.9)],
)
def test_grid_tails_beyond_8_5_match_direct_evaluation(kind, m, corr):
    # np.interp holds the end values past the grid's +-8.5
    if kind == "dunnett":
        grid, direct = _dunnett_grid(m), equicorr_max_cdf(m, corr, TAIL_POINTS)
    else:
        root_tau = np.sqrt(corr)
        grid, direct = _sd_grid(root_tau), bvn_cdf(TAIL_POINTS, TAIL_POINTS, root_tau)
    exact = _keep_quantile(direct)
    interpolated = np.interp(TAIL_POINTS, _GRID, grid)
    if kind == "dunnett":
        # both sit at the p-value clamp
        np.testing.assert_array_equal(interpolated, exact)
        np.testing.assert_array_equal(exact, np.repeat([_YMIN, _YMAX], 4))
    else:
        # the upper plateau (7.809) lies below the clamp: bvn_cdf stops a few
        # ulps short of 1, and direct evaluation scatters over 7.799-7.824
        np.testing.assert_array_equal(interpolated[:4], _YMIN)
        assert np.all(interpolated[4:] < _YMAX - 0.1)
        np.testing.assert_allclose(interpolated, exact, rtol=0.0, atol=2e-2)


def test_cached_grids_are_read_only_fresh_builds():
    _dunnett_grid.cache_clear()
    _sd_grid.cache_clear()
    dunnett, sd = _dunnett_grid(4), _sd_grid(np.sqrt(0.3))
    assert _dunnett_grid(4) is dunnett and _sd_grid(np.sqrt(0.3)) is sd
    for grid in (dunnett, sd):
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0
    assert dunnett.tobytes() == _keep_quantile(equicorr_max_cdf(4, 0.5, _GRID)).tobytes()
    assert sd.tobytes() == _keep_quantile(bvn_cdf(_GRID, _GRID, np.sqrt(0.3))).tobytes()


def _dunnett(k):
    effects = EffectSpec(
        design="treatment",
        early=(0.0, 0.2, 0.3, 0.4, 0.5)[: k + 1],
        final=(0.0, 0.10, 0.12, 0.15, 0.20)[: k + 1],
        correlation=0.4,
    )
    return Scenario(
        effects=effects,
        plan=SampleSizePlan(stage1_per_arm=60, stage2_per_arm=120),
        rule=SelectionRule("best-2"),
        test=TestSpec("dunnett", CombinationConfig.from_sample_sizes(60, 120)),
        replications=3000,
        master_seed=31,
    )


def _ct_sd(prevalence):
    return subgroup_scenario(
        SelectionRule("futility-pair", limits=(0.0, 0.0)),
        method="spiessens-debois",
        reps=3000,
        prevalence=prevalence,
    )


@pytest.mark.parametrize(
    "first, second",
    [(_dunnett(2), _dunnett(4)), (_ct_sd(0.3), _ct_sd(0.6))],
    ids=["dunnett-m", "ct-sd-tau"],
)
def test_warm_grid_cache_gives_the_cold_cache_result(first, second):
    # the second run needs grids the first did not build (member counts 3
    # and 4 beside the shared 2, or another tau), so a grid served under the
    # wrong key would change its tallies
    def cold(scenario):
        _dunnett_grid.cache_clear()
        _sd_grid.cache_clear()
        return run_scenario(scenario)

    cold_first, cold_second = cold(first), cold(second)
    assert cold(first) == cold_first
    assert run_scenario(first) == cold_first  # warm: same key
    assert run_scenario(second) == cold_second  # warm: the other key beside it
    assert run_scenario(first) == cold_first


def _replay_draws(scn, rep, k):
    """One replication's draws through its own stream, in the engine's order."""
    stream = replication_stream(scn.master_seed, rep)
    tau = redraws = pick = None
    if scn.design == "subgroup":
        tau, redraws = resolve_prevalence(scn.prevalence, False, stream, 2 * scn.plan.stage1_per_arm)
    eps = stream.standard_normal(3 * k)
    if scn.rule.kind == "random-1":
        pick = stream.integers(k)
    return eps, tau, redraws, pick


@pytest.mark.parametrize(
    "scn",
    [
        treatment_scenario(SelectionRule("random-1"), reps=4301),
        replace(
            subgroup_scenario(
                SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=4301, prevalence_fixed=False
            ),
            plan=SampleSizePlan(stage1_per_arm=5, stage2_per_arm=300, enrich_per_arm=200),
        ),
    ],
    ids=["random-1", "varying-prevalence"],
)
def test_chunk_draws_replay_each_replication_stream(scn):
    pre = _prepare(scn)
    eps, taus, picks, redraws = _draw_chunk(pre, 4101, 4301)
    total_redraws = 0
    for row, rep in enumerate(range(4101, 4301)):
        want_eps, tau, extra, pick = _replay_draws(scn, rep, pre.k)
        assert eps[row].tobytes() == want_eps.tobytes()
        if pick is not None:
            assert picks[row] == pick
        if tau is not None:
            assert taus[row] == tau
            total_redraws += extra
    assert redraws == total_redraws
    if scn.design == "subgroup":
        assert redraws > 0


# ---------------------------------------------------------------------------
# the engine agrees exactly with the public single-replication functions


def _manual_treatment(scn):
    """Replay a treatment scenario replication-by-replication."""
    spec, plan, config = scn.effects, scn.plan, scn.test.config
    k = spec.comparisons
    model = build_score_model(spec, plan)
    orient = 1.0 if larger_is_better(spec.design, spec.early_outcome) else -1.0
    futility = 0
    size_hist = np.zeros(k, dtype=int)
    arm_counts = np.zeros(k, dtype=int)
    hyp_counts = np.zeros(k, dtype=int)
    any_count = 0
    ptest_count = 0
    for rep in range(scn.replications):
        stream = replication_stream(scn.master_seed, rep)
        x = sample_replication(model, stream).values
        outcome = select_treatments(orient * x[:k], scn.rule, stream)
        if outcome.stopped_for_futility:
            futility += 1
            continue
        cont = sorted(outcome.continued)
        size_hist[len(cont) - 1] += 1
        for arm in cont:
            arm_counts[arm - 1] += 1
        z1 = x[k : 2 * k]
        z2 = x[2 * k :]
        contributors = None
        if scn.follow_up:
            z2 = np.where(np.isin(np.arange(1, k + 1), cont), z2, z1)
            contributors = range(1, k + 1)
        rejected = closed_test(
            z1, z2, outcome, scn.test.intersection, config, stage2_contributors=contributors
        )
        for arm in rejected:
            hyp_counts[arm - 1] += 1
        any_count += bool(rejected)
        if scn.ptest is not None:
            ptest_count += bool(set(scn.ptest) & rejected)
    return futility, tuple(size_hist), tuple(arm_counts), tuple(hyp_counts), any_count, ptest_count


@pytest.mark.parametrize(
    "rule, method, follow_up",
    [
        (SelectionRule("best-2"), "bonferroni", False),
        (SelectionRule("threshold", threshold=0.8), "simes", False),
        (SelectionRule("random-1"), "bonferroni", False),
        (SelectionRule("best-1"), "bonferroni", True),
        (SelectionRule("epsilon", epsilon=0.5), "simes", False),
    ],
)
def test_engine_reproduces_the_single_replication_path(rule, method, follow_up):
    scn = treatment_scenario(rule, method=method, ptest=(2, 3), follow_up=follow_up)
    oc = run_scenario(scn)
    futility, sizes, arms, hyps, any_count, ptest_count = _manual_treatment(scn)
    assert oc.futility_count == futility
    assert oc.selected_size_counts == sizes
    assert oc.arm_selected_counts == arms
    assert oc.hypothesis_rejected_counts == hyps
    assert oc.any_rejected_count == any_count
    assert oc.ptest_rejected_count == ptest_count


def _manual_subgroup(scn):
    """Replay a subgroup scenario through the public per-replication API."""
    spec, plan, config = scn.effects, scn.plan, scn.test.config
    orient_early = 1.0 if larger_is_better(spec.design, spec.early_outcome) else -1.0
    orient_final = 1.0 if larger_is_better(spec.design, spec.final_outcome) else -1.0
    cohort = "stage2-enriched" if plan.enrich_per_arm is not None else "stage2-subgroup-only"
    sub_only_mean = float(effect_to_expectation(spec, plan, "final", cohort)[0])
    futility = union = redraws = 0
    branches = {name: np.zeros(5, dtype=int) for name in ("sub", "full", "both")}
    for rep in range(scn.replications):
        stream = replication_stream(scn.master_seed, rep)
        tau, extra = resolve_prevalence(
            scn.prevalence, scn.prevalence_fixed, stream, 2 * plan.stage1_per_arm
        )
        redraws += extra
        model = build_score_model(spec, plan, tau)
        x = sample_replication(model, stream).values
        s = -orient_early * x[:2]
        outcome = select_population(s[0], s[1], scn.rule)
        if outcome.stopped_for_futility:
            futility += 1
            continue
        cont = outcome.continued
        name = {frozenset({1}): "sub", frozenset({2}): "full", frozenset({1, 2}): "both"}[cont]
        z2_native = x[4:6].copy()
        if name == "sub":
            z2_native[0] += sub_only_mean - model.mean[4]
        z1 = orient_final * x[2:4]
        z2 = orient_final * z2_native
        rejected = closed_test(z1, z2, outcome, scn.test.intersection, config, tau=tau)
        p1 = intersection_pvalue(z1, scn.test.intersection, tau=tau)
        alive = sorted(cont)
        p2 = intersection_pvalue(z2[[i - 1 for i in alive]], scn.test.intersection, tau=tau)
        inter = combine(p1, p2, config).reject
        row = branches[name]
        row[0] += 1
        row[1] += 1 in rejected
        row[2] += 2 in rejected
        row[3] += rejected == {1, 2}
        row[4] += inter
        union += bool(rejected)
    return futility, branches, union, redraws


@pytest.mark.parametrize(
    "rule, method",
    [
        (SelectionRule("futility-pair", limits=(0.0, 0.0)), "simes"),
        (SelectionRule("threshold-pair", limits=(-0.1, 0.1)), "bonferroni"),
    ],
)
def test_engine_reproduces_the_subgroup_path(rule, method):
    for fixed in (True, False):
        scn = subgroup_scenario(rule, method=method, prevalence_fixed=fixed)
        oc = run_scenario(scn)
        futility, branches, union, redraws = _manual_subgroup(scn)
        assert (oc.futility_count, oc.prevalence_redraws) == (futility, redraws)
        assert oc.union_rejected_count == union
        for name, row in branches.items():
            got = oc.subgroup_counts[name]
            assert (got.n, got.hs, got.hf, got.both, got.intersection) == tuple(row), name
        # the recorded expected sample size follows the branch counts exactly
        n_sub, n_rest = branches["sub"][0], branches["full"][0] + branches["both"][0]
        manual = 2 * 100 + 2 * (200 * n_sub + 300 * n_rest) / scn.replications
        assert oc.expected_total_sample_size == pytest.approx(manual, abs=1e-12)


def test_follow_up_changes_the_outcome_but_not_the_draws():
    base = treatment_scenario(SelectionRule("best-1"), reps=3000, seed=91)
    kept = run_scenario(replace(base, follow_up=True))
    dropped = run_scenario(base)
    # selection is identical; only the stage-2 evidence differs
    assert kept.selected_size_counts == dropped.selected_size_counts
    assert kept.arm_selected_counts == dropped.arm_selected_counts
    assert kept.hypothesis_rejected_counts != dropped.hypothesis_rejected_counts


# ---------------------------------------------------------------------------
# aggregate sanity


def test_ptest_union_brackets_its_members():
    scn = treatment_scenario(SelectionRule("best-2"), reps=4000, ptest=(2, 3))
    oc = run_scenario(scn)
    h2, h3 = oc.hypothesis_rejected_counts[1], oc.hypothesis_rejected_counts[2]
    assert max(h2, h3) <= oc.ptest_rejected_count <= h2 + h3
    assert oc.ptest_rejected_count <= oc.any_rejected_count
    assert max(oc.hypothesis_rejected_counts) <= oc.any_rejected_count


def test_power_increases_with_the_final_effect_sizes():
    base = treatment_scenario(SelectionRule("best-2"), reps=20_000, seed=5150)
    strong = replace(
        base,
        effects=replace(base.effects, final=tuple(1.5 * v for v in base.effects.final)),
    )
    weak_power = run_scenario(base).any_rejected_count
    strong_power = run_scenario(strong).any_rejected_count
    assert strong_power > weak_power


# ---------------------------------------------------------------------------
# sweeps


def test_single_point_sweep_equals_run_scenario():
    base = treatment_scenario(SelectionRule("threshold", threshold=1.0), reps=3000)
    (point,) = sweep(base, "threshold", [1.0])
    assert point.axis == "threshold"
    assert point.value == 1.0
    assert point.oc == run_scenario(base)


def test_sweep_points_use_consecutive_seeds():
    base = treatment_scenario(SelectionRule("threshold", threshold=1.0), reps=3000)
    first, second = sweep(base, "threshold", [1.0, 1.0])
    assert first.oc != second.oc  # same settings, independent draws
    assert second.oc == run_scenario(replace(base, master_seed=base.master_seed + 1))


def test_stage1_allocation_sweep_preserves_the_budget():
    base = treatment_scenario(SelectionRule("best-2"), reps=500)
    base = replace(
        base,
        effects=EffectSpec(
            design="treatment",
            early=(0.0, 0.3, 0.5, 0.7, 0.6),
            final=(0.0, 0.10, 0.15, 0.20, 0.18),
            correlation=0.4,
        ),
        plan=SampleSizePlan(stage1_per_arm=100, stage2_per_arm=300),
    )
    points = sweep(base, "stage1-allocation", [40, 100, 160])
    plans = [p.scenario.plan for p in points]
    assert [(p.stage1_per_arm, p.stage2_per_arm) for p in plans] == [
        (40, 400),
        (100, 300),
        (160, 200),
    ]
    for p in plans:
        assert 5 * p.stage1_per_arm + 3 * p.stage2_per_arm == 1400


def test_sweep_validation_errors():
    base = treatment_scenario(SelectionRule("best-2"), reps=100)
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(base, "alpha", [0.025])
    with pytest.raises(ValueError, match="at least one"):
        sweep(base, "threshold", [])
    with pytest.raises(InfeasibleScenarioError, match="threshold selection rule"):
        sweep(base, "threshold", [1.0])
    with pytest.raises(InfeasibleScenarioError, match="futility-pair"):
        sweep(base, "futility-limits-grid", [(0.0, 0.0)])
    with pytest.raises(InfeasibleScenarioError, match="budget"):
        sweep(base, "stage1-allocation", [61])
    with pytest.raises(InfeasibleScenarioError, match="positive integers"):
        sweep(base, "stage1-allocation", [0])
    thresh = treatment_scenario(SelectionRule("threshold", threshold=1.0), reps=100)
    with pytest.raises(InfeasibleScenarioError, match="best-m"):
        sweep(thresh, "stage1-allocation", [30])


def test_futility_limit_sweep_reruns_the_subgroup_rule():
    base = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=800)
    points = sweep(base, "futility-limits-grid", [(0.0, 0.0), (-1.0, 0.0)])
    assert [p.scenario.rule.limits for p in points] == [(0.0, 0.0), (-1.0, 0.0)]
    # a stricter subgroup limit can only shrink the subgroup-side branches
    assert points[1].oc.subgroup_counts["sub"].n <= points[0].oc.subgroup_counts["sub"].n


def test_expected_sample_size_matches_the_recorded_value():
    scn = treatment_scenario(SelectionRule("threshold", threshold=0.8), reps=2000)
    oc = run_scenario(scn)
    assert expected_sample_size(scn, oc) == oc.expected_total_sample_size
