"""Scalar replay of a scenario: the reference the vectorised engine must equal.

``replay`` walks a scenario one replication at a time through the scalar names
on ``seamsim`` and returns the tallies ``run_scenario`` reports, keyed by
``OperatingCharacteristics`` field name. It matches the engine bit for bit with
the exactly evaluated Bonferroni, Simes and subgroup/full tests; Dunnett
quantiles the engine interpolates on a grid.
"""

import numpy as np

from seamsim import (
    build_score_model,
    closed_test,
    combine,
    effect_to_expectation,
    intersection_pvalue,
    larger_is_better,
    replication_stream,
    resolve_prevalence,
    sample_replication,
    select_population,
    select_treatments,
)

_BRANCH_OF = {frozenset({1}): "sub", frozenset({2}): "full", frozenset({1, 2}): "both"}
_EVENTS = ("n", "hs", "hf", "both", "intersection")


def replay(scn) -> dict:
    """The engine's tallies for scenario ``scn``, replayed one replication at a time."""
    spec = scn.effects
    early, final = (1.0 if larger_is_better(spec.design, code) else -1.0
                    for code in (spec.early_outcome, spec.final_outcome))
    return (_treatment if spec.design == "treatment" else _subgroup)(scn, early, final)


def _treatment(scn, early, final) -> dict:
    spec, plan, method, config = scn.effects, scn.plan, scn.test.intersection, scn.test.config
    k = spec.comparisons
    model = build_score_model(spec, plan)
    sizes, arms, hyps = np.zeros((3, k), int)
    futility = any_count = ptest_count = 0
    for rep in range(scn.replications):
        stream = replication_stream(scn.master_seed, rep)
        x = sample_replication(model, stream).values
        outcome = select_treatments(early * x[:k], scn.rule, stream)
        if outcome.stopped_for_futility:
            futility += 1
            continue
        cont = sorted(outcome.continued)
        sizes[len(cont) - 1] += 1
        arms[[a - 1 for a in cont]] += 1
        z1, z2 = final * x[k : 2 * k], final * x[2 * k :]
        contributors = None
        if scn.follow_up:  # dropped arms carry their stage-1 cohort's final statistic
            z2 = np.where(np.isin(np.arange(1, k + 1), cont), z2, z1)
            contributors = range(1, k + 1)
        rejected = closed_test(z1, z2, outcome, method, config, stage2_contributors=contributors)
        hyps[[a - 1 for a in rejected]] += 1
        any_count += bool(rejected)
        ptest_count += bool(set(scn.ptest or ()) & rejected)
    out = {
        "futility_count": futility,
        "selected_size_counts": tuple(map(int, sizes)),
        "arm_selected_counts": tuple(map(int, arms)),
        "hypothesis_rejected_counts": tuple(map(int, hyps)),
        "any_rejected_count": any_count,
    }
    if scn.ptest is not None:
        out["ptest_rejected_count"] = ptest_count
    return out


def _subgroup(scn, early, final) -> dict:
    spec, plan, method, config = scn.effects, scn.plan, scn.test.intersection, scn.test.config
    cohort = "stage2-enriched" if plan.enrich_per_arm is not None else "stage2-subgroup-only"
    sub_only_mean = float(effect_to_expectation(spec, plan, "final", cohort)[0])
    branches = {name: np.zeros(len(_EVENTS), int) for name in _BRANCH_OF.values()}
    futility = union = redraws = 0
    stage1 = 2 * plan.stage1_per_arm
    for rep in range(scn.replications):
        stream = replication_stream(scn.master_seed, rep)
        tau, extra = resolve_prevalence(scn.prevalence, scn.prevalence_fixed, stream, stage1)
        redraws += extra
        model = build_score_model(spec, plan, tau)
        x = sample_replication(model, stream).values
        outcome = select_population(-early * x[0], -early * x[1], scn.rule)  # smaller is better
        if outcome.stopped_for_futility:
            futility += 1
            continue
        name = _BRANCH_OF[outcome.continued]
        z2 = x[4:6].copy()
        if name == "sub":  # the model carries the both-populations stage-2 mean
            z2[0] += sub_only_mean - model.mean[4]
        z1, z2 = final * x[2:4], final * z2
        rejected = closed_test(z1, z2, outcome, method, config, tau=tau)
        p1 = intersection_pvalue(z1, method, tau=tau)
        p2 = intersection_pvalue(z2[[i - 1 for i in sorted(outcome.continued)]], method, tau=tau)
        intersection = combine(p1, p2, config).reject
        branches[name] += (1, 1 in rejected, 2 in rejected, rejected == {1, 2}, intersection)
        union += bool(rejected)
    return {
        "futility_count": futility,
        "subgroup_counts": {name: dict(zip(_EVENTS, map(int, row))) for name, row in branches.items()},
        "union_rejected_count": union,
        "prevalence_redraws": redraws,
    }
