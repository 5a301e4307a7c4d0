"""Scalar replay of a scenario: the reference the vectorised engine must equal.

``replay`` walks a scenario one replication at a time through the scalar
reference path in ``seamsim._reference`` and returns the tallies ``run_scenario`` reports, keyed by
``OperatingCharacteristics`` field name. It matches the engine bit for bit with
the exactly evaluated Bonferroni, Simes and subgroup/full tests; Dunnett
quantiles the engine interpolates on a grid.

``clamped_pvalues`` is counted by brute force over every one of the 2^K - 1
intersections at each stage, stage-2 intersections without data left out: a
p-value counts when Phi^-1(1 - p), p clipped to [1e-15, 1 - 1e-15], reaches the
clamp's -7.9413 or +7.9414.
"""

from itertools import combinations

import numpy as np
from scipy.special import ndtri

from seamsim._reference import (
    closed_test,
    combine,
    intersection_pvalue,
    replication_stream,
    resolve_prevalence,
    sample_replication,
    select_population,
    select_treatments,
)
from seamsim.closedtest import P_CLAMP
from seamsim.simmodel import build_score_model, effect_to_expectation, larger_is_better

_BRANCH_OF = {frozenset({1}): "sub", frozenset({2}): "full", frozenset({1, 2}): "both"}
_EVENTS = ("n", "hs", "hf", "both", "intersection")
_YMIN, _YMAX = ndtri(P_CLAMP), ndtri(1.0 - P_CLAMP)


def _clamps(z1, z2, contributors, method, tau=None) -> int:
    """Saturated p-values over every intersection of arms 0 .. K - 1 at both stages;
    stage 2 reads only the ``contributors``' statistics and skips intersections without any."""
    saturated = {}  # by stage and arms: intersections share their stage-2 arms

    def clamped(stage, z, arms):
        if (stage, arms) not in saturated:
            p = min(max(intersection_pvalue(z[list(arms)], method, tau=tau), P_CLAMP), 1.0 - P_CLAMP)
            saturated[stage, arms] = not _YMIN < ndtri(1.0 - p) < _YMAX
        return saturated[stage, arms]

    count = 0
    for size in range(1, len(z1) + 1):
        for members in combinations(range(len(z1)), size):
            alive = tuple(i for i in members if i in contributors)
            count += clamped(1, z1, members) + (clamped(2, z2, alive) if alive else 0)
    return count


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
    futility = any_count = ptest_count = clamps = 0
    for rep in range(scn.replications):
        stream = replication_stream(scn.master_seed, rep)
        x = sample_replication(model, stream).values
        outcome = select_treatments(early * x[:k], scn.rule, stream)
        cont = sorted(outcome.continued)
        z1, z2 = final * x[k : 2 * k], final * x[2 * k :]
        contributors = None
        if scn.follow_up:  # dropped arms carry their stage-1 cohort's final statistic
            z2 = np.where(np.isin(np.arange(1, k + 1), cont), z2, z1)
            contributors = range(1, k + 1)
        clamps += _clamps(z1, z2, {a - 1 for a in contributors or cont}, method)
        if outcome.stopped_for_futility:
            futility += 1
            continue
        sizes[len(cont) - 1] += 1
        arms[[a - 1 for a in cont]] += 1
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
        "clamped_pvalues": clamps,
    }
    if scn.ptest is not None:
        out["ptest_rejected_count"] = ptest_count
    return out


def _subgroup(scn, early, final) -> dict:
    spec, plan, method, config = scn.effects, scn.plan, scn.test.intersection, scn.test.config
    cohort = "stage2-enriched" if plan.enrich_per_arm is not None else "stage2-subgroup-only"
    sub_only_mean = float(effect_to_expectation(spec, plan, "final", cohort)[0])
    branches = {name: np.zeros(len(_EVENTS), int) for name in _BRANCH_OF.values()}
    futility = union = redraws = clamps = 0
    stage1 = 2 * plan.stage1_per_arm
    for rep in range(scn.replications):
        stream = replication_stream(scn.master_seed, rep)
        tau, extra = resolve_prevalence(scn.prevalence, scn.prevalence_fixed, stream, stage1)
        redraws += extra
        model = build_score_model(spec, plan, tau)
        x = sample_replication(model, stream).values
        outcome = select_population(-early * x[0], -early * x[1], scn.rule)  # smaller is better
        z2 = x[4:6].copy()
        if outcome.continued == {1}:  # the model carries the both-populations stage-2 mean
            z2[0] += sub_only_mean - model.mean[4]
        z1, z2 = final * x[2:4], final * z2
        clamps += _clamps(z1, z2, {a - 1 for a in outcome.continued}, method, tau)
        if outcome.stopped_for_futility:
            futility += 1
            continue
        name = _BRANCH_OF[outcome.continued]
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
        "clamped_pvalues": clamps,
    }
