"""Output checks: reference values, structural invariants and the oracle.

Every check returns a list of problems; an empty list means the output is
correct. Tolerances come from the Monte Carlo standard error at the
replication count actually run, so the checks hold for any seed:

* A rate is compared with its published reference within ``Z`` combined
  standard errors, sqrt(p(1-p) (1/n + 1/N_REF)) with N_REF the reference
  run's replication count, plus half a unit of the reference's last printed
  digit.
* The familywise error rate of a run of n replications fails when its count
  exceeds the binomial quantile at ``FWER_MISS / runs`` (a Bonferroni
  correction over the runs of the grid).
* Structural invariants hold for every replication and are exact.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

# About five standard errors: with ~70 reference values per pass, a correct
# program fails a pass with probability near 1e-4.
Z = 5.0
# Replications behind the published reference values (the configs' nsim).
N_REF = 10_000
# Chance that a correct program fails the FWER grid in one pass.
FWER_MISS = 1e-3

# Acceptance criteria 2-6 of the test suite, as percentages.
REFERENCES = {
    "copd_setting1": {
        "ptest": 84.69,
        "arm_selected": (3.83, 32.82, 86.61, 76.74),
    },
    "copd_threshold": {
        "futility": 2.93,
        "ptest": 86.0,
        "selected_size": (8.00, 16.34, 30.98, 41.75),
    },
    "copd_binary_final": {"ptest": 76.99},
    "oncology": {"union": 76.65, "split": (23.09, 2.27, 69.87, 4.77)},
    # expected total sample size per threshold 0, 0.5, ..., 6
    "copd_threshold_sweep": (
        2199.5, 2197.3, 2188.1, 2164.3, 2109.0, 1991.2, 1802.5,
        1548.2, 1264.0, 1004.2, 807.9, 688.2, 631.0,
    ),
    # (sub-only, full-only, both, futility, union) per futility-limit pair
    "oncology_limits_sweep": (
        (23.1, 2.3, 69.9, 4.8, 76.7), (11.4, 16.2, 55.8, 16.7, 58.8),
        (2.3, 45.1, 26.5, 26.1, 34.2), (0.1, 66.0, 6.0, 27.9, 20.7),
        (60.0, 0.4, 32.3, 7.3, 83.9), (37.4, 4.0, 29.7, 29.0, 61.4),
        (12.3, 16.5, 16.9, 54.2, 30.3), (1.5, 28.4, 4.8, 65.4, 13.8),
    ),
}


def _decimals(value: float) -> int:
    text = repr(float(value)).rstrip("0")
    return len(text.split(".")[1]) if "." in text else 0


def rate_problems(label, count, n, ref_pct, decimals=None) -> list:
    """Compare count/n with a reference percentage within Z combined SEs."""
    got = 100.0 * count / n
    p = min(max(ref_pct / 100.0, 1.0 / N_REF), 1.0 - 1.0 / N_REF)
    digits = _decimals(ref_pct) if decimals is None else decimals
    tol = 100.0 * Z * math.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / N_REF)) + 0.5 * 10.0**-digits
    if abs(got - ref_pct) > tol:
        return [f"{label}: {got:.3f}% vs reference {ref_pct}% (tolerance {tol:.3f} pp)"]
    return []


def _get(oc, key):
    return oc[key] if isinstance(oc, dict) else getattr(oc, key)


def _branch(oc, name):
    row = _get(oc, "subgroup_counts")[name]
    if isinstance(row, dict):
        return row
    return {f: getattr(row, f) for f in ("n", "hs", "hf", "both", "intersection")}


def invariant_problems(oc, plan, best_count=None) -> list:
    """Exact structural checks on one result (an OperatingCharacteristics or its JSON).

    Args:
        oc: the result.
        plan: (stage1_per_arm, stage2_per_arm, enrich_per_arm or None).
        best_count: m of a best-m rule, which continues exactly min(m, K) arms.
    """
    problems = []
    reps = _get(oc, "replications")
    futile = _get(oc, "futility_count")
    n1, n2, enrich = plan
    if _get(oc, "design") == "treatment":
        sizes = list(_get(oc, "selected_size_counts"))
        arms = list(_get(oc, "arm_selected_counts"))
        hyps = list(_get(oc, "hypothesis_rejected_counts"))
        any_count = _get(oc, "any_rejected_count")
        k = len(arms)
        if sum(sizes) + futile != reps:
            problems.append("selection histogram plus futility does not cover every replication")
        if sum(m * c for m, c in enumerate(sizes, start=1)) != sum(arms):
            problems.append("histogram and per-arm selection counts disagree")
        if any(h > a for h, a in zip(hyps, arms)):
            problems.append("an arm is rejected more often than it is selected")
        if not max(hyps, default=0) <= any_count <= min(sum(hyps), reps - futile):
            problems.append("any-rejection count outside [max H_i, min(sum H_i, non-futile)]")
        ptest = _get(oc, "ptest")
        if ptest is not None:
            members = [hyps[i - 1] for i in ptest]
            count = _get(oc, "ptest_rejected_count")
            if not max(members) <= count <= min(sum(members), any_count):
                problems.append("ptest count does not bracket its members")
        if best_count is not None:
            m = min(best_count, k)
            if futile != 0 or sizes[m - 1] != reps:
                problems.append(f"best-{best_count} did not continue exactly {m} arms")
        continued = sum(arms)
        expected = (k + 1) * n1 + n2 * (reps + continued) / reps
    else:
        rows = {name: _branch(oc, name) for name in ("sub", "full", "both")}
        if sum(r["n"] for r in rows.values()) + futile != reps:
            problems.append("branch counts plus futility do not cover every replication")
        for name, r in rows.items():
            if not (r["both"] <= min(r["hs"], r["hf"]) and max(r["hs"], r["hf"]) <= r["intersection"] <= r["n"]):
                problems.append(f"branch {name}: rejections not nested in the intersection and branch")
        if rows["sub"]["hf"] or rows["full"]["hs"]:
            problems.append("a population is rejected without continuing")
        union = sum(r["hs"] + r["hf"] - r["both"] for r in rows.values())
        if union != _get(oc, "union_rejected_count"):
            problems.append("union count differs from the branch rejections")
        sub_n = enrich or n2
        expected = 2.0 * n1 + 2.0 * (
            sub_n * rows["sub"]["n"] + n2 * (rows["full"]["n"] + rows["both"]["n"])
        ) / reps
    got = _get(oc, "expected_total_sample_size")
    if not math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"expected sample size {got} differs from the tallies ({expected})")
    return problems


def expected_size_problems(label, oc, plan, ref) -> list:
    """E[N] of a treatment design against its reference, within Z combined SEs.

    E[N] = (K+1) n1 + n2 (1 + mean arms continued); its standard error is
    n2 * sd(arms continued) / sqrt(n), with sd taken from the histogram.
    """
    reps = _get(oc, "replications")
    counts = np.array([_get(oc, "futility_count")] + list(_get(oc, "selected_size_counts")))
    sizes = np.arange(counts.size)
    mean = float((counts * sizes).sum()) / reps
    sd = math.sqrt(max(float((counts * sizes**2).sum()) / reps - mean * mean, 0.0))
    tol = Z * plan[1] * sd * math.sqrt(1.0 / reps + 1.0 / N_REF) + 0.05
    got = _get(oc, "expected_total_sample_size")
    if abs(got - ref) > tol:
        return [f"{label}: E[N] {got:.2f} vs reference {ref} (tolerance {tol:.2f})"]
    return []


def reference_problems(name: str, oc) -> list:
    """Checks of one single-scenario result against acceptance criteria 2, 3, 5, 6."""
    ref = REFERENCES[name]
    reps = _get(oc, "replications")
    problems = []
    if "ptest" in ref:
        problems += rate_problems(f"{name} ptest", _get(oc, "ptest_rejected_count"), reps, ref["ptest"])
    if "futility" in ref:
        problems += rate_problems(f"{name} futility", _get(oc, "futility_count"), reps, ref["futility"])
    for key, field in (("arm_selected", "arm_selected_counts"), ("selected_size", "selected_size_counts")):
        if key in ref:
            for i, (count, pct) in enumerate(zip(_get(oc, field), ref[key])):
                problems += rate_problems(f"{name} {key}[{i + 1}]", count, reps, pct, decimals=2)
    if "union" in ref:
        problems += rate_problems(f"{name} union", _get(oc, "union_rejected_count"), reps, ref["union"])
        counts = [_branch(oc, b)["n"] for b in ("sub", "full", "both")] + [_get(oc, "futility_count")]
        for label, count, pct in zip(("sub", "full", "both", "futility"), counts, ref["split"]):
            problems += rate_problems(f"{name} {label}", count, reps, pct, decimals=2)
    return problems


def subgroup_row_problems(label, oc, ref_row) -> list:
    reps = _get(oc, "replications")
    counts = [_branch(oc, b)["n"] for b in ("sub", "full", "both")]
    counts += [_get(oc, "futility_count"), _get(oc, "union_rejected_count")]
    problems = []
    for col, count, pct in zip(("sub", "full", "both", "futility", "union"), counts, ref_row):
        problems += rate_problems(f"{label} {col}", count, reps, pct, decimals=1)
    return problems


def fwer_limit(replications: int, level: float, runs: int) -> int:
    """Largest error count a run may show before the grid's FWER check fails."""
    return int(binom.isf(FWER_MISS / runs, replications, level))


# ---------------------------------------------------------------------------
# per-replication oracle


ORACLE_NAMES = (
    "replication_stream",
    "build_score_model",
    "sample_replication",
    "select_treatments",
    "select_population",
    "closed_test",
    "intersection_pvalue",
    "combine",
    "resolve_prevalence",
    "larger_is_better",
    "effect_to_expectation",
)


def oracle_available(seamsim) -> list:
    """Names the oracle needs that the package does not export."""
    return [name for name in ORACLE_NAMES if not hasattr(seamsim, name)]


def oracle_tallies(seamsim, scn) -> dict:
    """Replay a scenario replication by replication through the scalar public API.

    Returns the tallies ``run_scenario`` reports, for an exact comparison.
    Only exact intersection tests (Bonferroni, Simes) are replayed: the
    engine interpolates the Dunnett and subgroup/full quantiles on a grid.
    """
    s = seamsim
    spec, plan, config = scn.effects, scn.plan, scn.test.config
    k = spec.comparisons
    orient_early = 1.0 if s.larger_is_better(spec.design, spec.early_outcome) else -1.0
    orient_final = 1.0 if s.larger_is_better(spec.design, spec.final_outcome) else -1.0
    futility = 0
    out = {}
    if spec.design == "treatment":
        model = s.build_score_model(spec, plan)
        sizes, arms, hyps = np.zeros(k, int), np.zeros(k, int), np.zeros(k, int)
        any_count = ptest_count = 0
        for rep in range(scn.replications):
            stream = s.replication_stream(scn.master_seed, rep)
            x = s.sample_replication(model, stream).values
            outcome = s.select_treatments(orient_early * x[:k], scn.rule, stream)
            if outcome.stopped_for_futility:
                futility += 1
                continue
            cont = sorted(outcome.continued)
            sizes[len(cont) - 1] += 1
            arms[[a - 1 for a in cont]] += 1
            z1 = orient_final * x[k : 2 * k]
            z2 = orient_final * x[2 * k :]
            contributors = None
            if scn.follow_up:
                z2 = np.where(np.isin(np.arange(1, k + 1), cont), z2, z1)
                contributors = range(1, k + 1)
            rejected = s.closed_test(
                z1, z2, outcome, scn.test.intersection, config, stage2_contributors=contributors
            )
            hyps[[a - 1 for a in rejected]] += 1
            any_count += bool(rejected)
            if scn.ptest is not None:
                ptest_count += bool(set(scn.ptest) & rejected)
        out.update(
            selected_size_counts=tuple(int(c) for c in sizes),
            arm_selected_counts=tuple(int(c) for c in arms),
            hypothesis_rejected_counts=tuple(int(c) for c in hyps),
            any_rejected_count=any_count,
        )
        if scn.ptest is not None:
            out["ptest_rejected_count"] = ptest_count
    else:
        cohort = "stage2-enriched" if plan.enrich_per_arm is not None else "stage2-subgroup-only"
        sub_only_mean = float(s.effect_to_expectation(spec, plan, "final", cohort)[0])
        branches = {name: np.zeros(5, int) for name in ("sub", "full", "both")}
        union = redraws = 0
        fixed_model = s.build_score_model(spec, plan, scn.prevalence) if scn.prevalence_fixed else None
        for rep in range(scn.replications):
            stream = s.replication_stream(scn.master_seed, rep)
            tau, extra = s.resolve_prevalence(
                scn.prevalence, scn.prevalence_fixed, stream, 2 * plan.stage1_per_arm
            )
            redraws += extra
            model = fixed_model or s.build_score_model(spec, plan, tau)
            x = s.sample_replication(model, stream).values
            sel = -orient_early * x[:2]
            outcome = s.select_population(sel[0], sel[1], scn.rule)
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
            method = scn.test.intersection
            rejected = s.closed_test(z1, z2, outcome, method, config, tau=tau)
            p1 = s.intersection_pvalue(z1, method, tau=tau)
            alive = [i - 1 for i in sorted(cont)]
            p2 = s.intersection_pvalue(z2[alive], method, tau=tau)
            row = branches[name]
            row += (1, 1 in rejected, 2 in rejected, rejected == {1, 2}, s.combine(p1, p2, config).reject)
            union += bool(rejected)
        out["subgroup_counts"] = {
            name: dict(zip(("n", "hs", "hf", "both", "intersection"), (int(v) for v in row)))
            for name, row in branches.items()
        }
        out["union_rejected_count"] = union
        out["prevalence_redraws"] = redraws
    out["futility_count"] = futility
    return out


def oracle_problems(seamsim, scn, oc) -> list:
    """Differences between the engine's result and the oracle's, field by field."""
    want = oracle_tallies(seamsim, scn)
    problems = []
    for key, value in want.items():
        got = _get(oc, key)
        if key == "subgroup_counts":
            got = {name: _branch(oc, name) for name in value}
        if got != value:
            problems.append(f"oracle mismatch in {key}: engine {got} vs oracle {value}")
    return problems
