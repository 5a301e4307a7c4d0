"""Simulation engine: operating characteristics of a configured design.

Each replication draws its statistics from its own counter-based random
stream keyed by ``(master_seed, replication_index)``, so results depend only
on the scenario and seed -- never on chunking or worker count. Replications
are processed in fixed-size chunks of 4096; ``threads`` only distributes the
same chunks over a process pool, and every tally is an integer count, so a
run is bit-for-bit reproducible at any parallelism.

The closed testing procedure is evaluated in vectorised form. For the
Dunnett and subgroup/full-population intersection tests the monotone map
from a maximum statistic to its combination-ready quantile Phi^-1(1 - p) is
precomputed on a fine grid once per process for each (m, r) or tau and
interpolated. Against direct evaluation the absolute error is below 1e-6
(1.1e-7 measured) wherever the quantile lies in [-6, 6], i.e. for p down to
1e-9, far inside the Monte Carlo resolution. Past that it grows: to 4.4e-5
for quantiles of size 6 to 7, 6.6e-4 at the kink where p meets its
1 - 1e-15 clamp, and 2e-2 near 7.9, where the direct value itself has lost
most of its digits; all of these lie far beyond any critical value.
Bonferroni, Simes and all single-arm p-values are computed exactly.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .closedtest import (
    INTERSECTION_METHODS,
    P_CLAMP,
    CombinationConfig,
    HypothesisFamily,
    fisher_critical_value,
    spending_boundaries,
)
from .simmodel import (
    SUBGROUP,
    TREATMENT,
    EffectSpec,
    SampleSizePlan,
    _check_redraw_rate,
    build_score_model,
    effect_to_expectation,
    larger_is_better,
)
from .selection import SelectionRule
from .statdist import _MASK64, _rekey, bvn_cdf, equicorr_max_cdf, replication_stream

__all__ = [
    "TestSpec",
    "Scenario",
    "SubgroupCounts",
    "OperatingCharacteristics",
    "InfeasibleScenarioError",
    "run_scenario",
    "expected_sample_size",
    "sweep",
    "SweepPoint",
    "SWEEP_AXES",
    "CHUNK_SIZE",
]

CHUNK_SIZE = 4096
MAX_REPLICATIONS = 10_000_000

_YMIN = float(ndtri(P_CLAMP))
_YMAX = float(ndtri(1.0 - P_CLAMP))
_GRID_STEP = 1.0 / 512.0
_GRID = np.arange(-8.5, 8.5 + 0.5 * _GRID_STEP, _GRID_STEP)
# Quantile grids held per process: 64 of about 70 KB each, far more than the
# distinct (m, r) and tau of any sweep or error-rate grid.
_GRID_CACHE_SIZE = 64

SWEEP_AXES = ("stage1-allocation", "threshold", "futility-limits-grid")


class InfeasibleScenarioError(ValueError):
    """A structurally valid configuration that cannot be simulated."""


@dataclass(frozen=True)
class TestSpec:
    """Intersection test plus combination configuration."""

    __test__ = False  # not a test case, despite the name

    intersection: str
    config: CombinationConfig

    def __post_init__(self):
        if self.intersection not in INTERSECTION_METHODS:
            raise ValueError(f"unknown intersection test {self.intersection!r}")


@dataclass(frozen=True)
class Scenario:
    """A fully specified simulation run.

    Attributes:
        effects: effect assumptions (also fixes the design kind).
        plan: stage sample sizes.
        rule: interim selection rule.
        test: closed testing configuration.
        replications: number of simulated trials (at most ten million).
        master_seed: seed from which every replication stream is derived.
        ptest: treatment designs only -- the arms whose union of rejections
            is reported as the primary power summary.
        prevalence: subgroup prevalence tau (subgroup designs).
        prevalence_fixed: if false, the stage-1 prevalence is redrawn
            binomially in every replication; a prevalence for which fewer
            than one draw in ten keeps both populations non-empty is rejected.
        follow_up: if true, arms dropped at the interim contribute their
            stage-1 cohort's final-outcome statistic to stage-2 p-values
            instead of being excluded.
    """

    effects: EffectSpec
    plan: SampleSizePlan
    rule: SelectionRule
    test: TestSpec
    replications: int
    master_seed: int
    ptest: tuple | None = None
    prevalence: float | None = None
    prevalence_fixed: bool = True
    follow_up: bool = False

    def __post_init__(self):
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ValueError(f"replications must lie in 1..{MAX_REPLICATIONS}")
        design = self.effects.design
        if self.rule.is_subgroup_rule != (design == SUBGROUP):
            raise ValueError(f"selection rule {self.rule.kind!r} does not fit a {design} design")
        if self.test.intersection == "dunnett" and design != TREATMENT:
            raise ValueError("the Dunnett intersection test applies to treatment designs")
        if self.test.intersection == "spiessens-debois" and design != SUBGROUP:
            raise ValueError("the subgroup/full-population test applies to subgroup designs")
        if design == SUBGROUP:
            if self.prevalence is None or not 0.0 < self.prevalence < 1.0:
                raise ValueError("subgroup designs need a prevalence strictly in (0, 1)")
            if self.ptest is not None:
                raise ValueError("ptest applies to treatment designs only")
            if not self.prevalence_fixed:
                # treatment plus control recruit the stage-1 cohort
                _check_redraw_rate(self.prevalence, 2 * self.plan.stage1_per_arm)
        else:
            if self.prevalence is not None:
                raise ValueError("prevalence applies to subgroup designs only")
            k = self.effects.comparisons
            if self.ptest is not None:
                arms = tuple(sorted({int(i) for i in self.ptest}))
                if not arms or arms[0] < 1 or arms[-1] > k:
                    raise ValueError("ptest arms must be a non-empty subset of 1..K")
                object.__setattr__(self, "ptest", arms)

    @property
    def design(self) -> str:
        return self.effects.design


@dataclass(frozen=True)
class SubgroupCounts:
    """Rejection counts within one selection branch of a subgroup design."""

    n: int = 0
    hs: int = 0
    hf: int = 0
    both: int = 0
    intersection: int = 0


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Aggregated results of a simulation run. All counts are replications."""

    design: str
    replications: int
    futility_count: int
    expected_total_sample_size: float
    prevalence_redraws: int = 0
    clamped_pvalues: int = 0
    # treatment designs
    selected_size_counts: tuple | None = None
    arm_selected_counts: tuple | None = None
    hypothesis_rejected_counts: tuple | None = None
    any_rejected_count: int | None = None
    ptest: tuple | None = None
    ptest_rejected_count: int | None = None
    # subgroup designs
    subgroup_counts: dict | None = None
    union_rejected_count: int | None = None

    def __post_init__(self):
        if self.design == TREATMENT:
            non_futile = self.replications - self.futility_count
            if sum(self.selected_size_counts) != non_futile:
                raise ValueError("selection histogram must cover every non-futile replication")
        else:
            branch_total = sum(c.n for c in self.subgroup_counts.values())
            if branch_total + self.futility_count != self.replications:
                raise ValueError("branch counts plus futility must cover every replication")


# ---------------------------------------------------------------------------
# preparation


@dataclass
class _Prepared:
    scenario: Scenario
    k: int
    orient_early: float
    orient_final: float
    mean: np.ndarray | None          # fixed-prevalence model mean
    chol: np.ndarray | None
    subsets: tuple                   # 0-based member tuples, largest first
    u1: float
    u2: float
    fisher_crit: float
    grids: dict = field(default_factory=dict)  # member count m -> Phi^-1(1-p) on _GRID
    sub_only_mean: float = 0.0       # subgroup: stage-2 mean if only subgroup continues
    varying: bool = False


def _keep_quantile(p_keep):
    """Phi^-1(1 - p) from the probability 1 - p of keeping an intersection."""
    return ndtri(np.clip(p_keep, P_CLAMP, 1.0 - P_CLAMP))


def _read_only(grid):
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _dunnett_grid(m: int, r: float):
    """Dunnett quantile grid of m arms with common correlation r (shared, read-only)."""
    return _read_only(_keep_quantile(equicorr_max_cdf(m, r, _GRID)))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _sd_grid(root_tau: float):
    """Subgroup/full-population quantile grid at correlation sqrt(tau) (shared, read-only)."""
    return _read_only(_keep_quantile(bvn_cdf(_GRID, _GRID, root_tau)))


@lru_cache(maxsize=8192)
def _model_parts(spec: EffectSpec, plan: SampleSizePlan, prevalence: float | None):
    model = build_score_model(spec, plan, prevalence)
    return model.mean, model.cholesky


def _prepare(scenario: Scenario) -> _Prepared:
    spec, plan = scenario.effects, scenario.plan
    k = spec.comparisons
    if scenario.test.config.method == "inverse-normal":
        u1, u2 = spending_boundaries(scenario.test.config)
    else:
        u1 = u2 = math.inf
    pre = _Prepared(
        scenario=scenario,
        k=k,
        orient_early=1.0 if larger_is_better(spec.design, spec.early_outcome) else -1.0,
        orient_final=1.0 if larger_is_better(spec.design, spec.final_outcome) else -1.0,
        mean=None,
        chol=None,
        subsets=tuple(
            tuple(sorted(i - 1 for i in s)) for s in HypothesisFamily(k).intersections
        ),
        u1=u1,
        u2=u2,
        fisher_crit=fisher_critical_value(scenario.test.config.alpha),
        varying=spec.design == SUBGROUP and not scenario.prevalence_fixed,
    )
    if not pre.varying:
        pre.mean, pre.chol = _model_parts(spec, plan, scenario.prevalence)
    if spec.design == SUBGROUP:
        cohort = "stage2-enriched" if plan.enrich_per_arm is not None else "stage2-subgroup-only"
        pre.sub_only_mean = float(effect_to_expectation(spec, plan, "final", cohort)[0])
        if scenario.test.intersection == "spiessens-debois" and not pre.varying:
            pre.grids[2] = _sd_grid(math.sqrt(scenario.prevalence))
    if scenario.test.intersection == "dunnett":
        for m in range(2, k + 1):
            pre.grids[m] = _dunnett_grid(m, plan.arm_correlation)
    return pre


# ---------------------------------------------------------------------------
# chunk simulation


def _draw_chunk(pre: _Prepared, start: int, stop: int):
    """Per-replication draws; consumption order is part of the contract.

    One generator serves the chunk: re-keyed for each replication, it draws
    exactly what that replication's own ``replication_stream`` would.
    """
    scenario = pre.scenario
    n = stop - start
    d = 3 * pre.k
    eps = np.empty((n, d))
    taus = np.empty(n) if pre.varying else None
    redraws = 0
    rand_pick = np.empty(n, dtype=np.int64) if scenario.rule.kind == "random-1" else None
    total_stage1 = None
    if pre.varying:
        arms = 2  # treatment plus control recruit the stage-1 cohort
        total_stage1 = arms * scenario.plan.stage1_per_arm
    stream = replication_stream(scenario.master_seed, start)
    for row, rep in enumerate(range(start, stop)):
        _rekey(stream, scenario.master_seed, rep)
        if pre.varying:
            while True:
                count = int(stream.binomial(total_stage1, scenario.prevalence))
                if 0 < count < total_stage1:
                    break
                redraws += 1
            taus[row] = count / total_stage1
        eps[row] = stream.standard_normal(d)
        if rand_pick is not None:
            rand_pick[row] = stream.integers(pre.k)
    return eps, taus, rand_pick, redraws


def _statistics(pre: _Prepared, eps, taus):
    """Native-scale statistic matrix (n, 3k) plus the per-row stage-2 subgroup mean."""
    scenario = pre.scenario
    if not pre.varying:
        z = pre.mean + eps @ pre.chol.T
        mean_sub2 = None
        if scenario.design == SUBGROUP:
            mean_sub2 = np.full(eps.shape[0], pre.mean[4])
        return z, mean_sub2, taus
    z = np.empty_like(eps)
    mean_sub2 = np.empty(eps.shape[0])
    for tau in np.unique(taus):
        rows = taus == tau
        mean, chol = _model_parts(scenario.effects, scenario.plan, float(tau))
        z[rows] = mean + eps[rows] @ chol.T
        mean_sub2[rows] = mean[4]
    return z, mean_sub2, taus


def _select_chunk(pre: _Prepared, z_native):
    """Vectorised interim selection. Returns (continued mask, futile flags)."""
    scenario = pre.scenario
    n = z_native.shape[0]
    k = pre.k
    futile = np.zeros(n, dtype=bool)
    if scenario.design == TREATMENT:
        z = pre.orient_early * z_native[:, :k]
        rule = scenario.rule
        cont = np.zeros((n, k), dtype=bool)
        if rule.kind == "all":
            cont[:] = True
        elif rule.best_count is not None:
            order = np.argsort(-z, axis=1, kind="stable")
            np.put_along_axis(cont, order[:, : rule.best_count], True, axis=1)
        elif rule.kind == "epsilon":
            if rule.epsilon == 0.0:
                cont[np.arange(n), np.argmax(z, axis=1)] = True
            else:
                cont = z >= z.max(axis=1, keepdims=True) - rule.epsilon
        elif rule.kind == "threshold":
            cont = z > rule.threshold
            futile = ~cont.any(axis=1)
        return cont, futile
    # subgroup rules act on the scale where smaller is better
    s = -pre.orient_early * z_native[:, :2]
    l1, l2 = scenario.rule.limits
    cont = np.zeros((n, 2), dtype=bool)
    if scenario.rule.kind == "threshold-pair":
        diff = s[:, 0] - s[:, 1]
        sub_only = diff <= l1
        full_only = diff > l2
        cont[:, 0] = ~full_only
        cont[:, 1] = ~sub_only
    else:
        sub_go = s[:, 0] < l1
        full_go = s[:, 1] < l2
        cont[:, 0] = sub_go
        cont[:, 1] = full_go
        futile = ~sub_go & ~full_go
    return cont, futile


def _random_pick_mask(cont, rand_pick):
    n, k = cont.shape
    cont[:] = False
    cont[np.arange(n), rand_pick] = True
    return cont


def _stage_quantiles(pre: _Prepared, z, members, contrib, taus):
    """Phi^-1(1 - p) of one intersection's p-values for an array of replications.

    ``contrib`` restricts the statistics entering the test per replication
    (None means all members contribute, as at stage 1).
    """
    method = pre.scenario.test.intersection
    m_full = len(members)
    cols = list(members)
    if contrib is None:
        mcount = np.full(z.shape[0], m_full)
        zm = z[:, cols]
    else:
        mcount = contrib[:, cols].sum(axis=1)
        zm = np.where(contrib[:, cols], z[:, cols], -np.inf)

    if method in ("dunnett", "spiessens-debois"):
        cmax = zm.max(axis=1)
        y = np.empty(z.shape[0])
        for m in range(0, m_full + 1):
            rows = mcount == m
            if not rows.any():
                continue
            if m == 0:
                y[rows] = _YMIN  # no stage data: p = 1 by convention
            elif m == 1:
                y[rows] = np.clip(cmax[rows], _YMIN, _YMAX)
            elif m in pre.grids:
                y[rows] = np.interp(cmax[rows], _GRID, pre.grids[m])
            else:
                # varying prevalence: evaluate the bivariate CDF directly
                y[rows] = _keep_quantile(_bvn_equal_coords(cmax[rows], np.sqrt(taus[rows])))
        return y

    p_elem = 1.0 - ndtr(zm)  # -inf entries give p = 1, ignored below
    if method == "bonferroni":
        p_best = np.where(np.isfinite(zm), p_elem, np.inf).min(axis=1)
        p = np.where(mcount > 0, np.minimum(1.0, mcount * np.where(mcount > 0, p_best, 0.0)), 1.0)
    else:  # simes
        p_sorted = np.sort(np.where(np.isfinite(zm), p_elem, np.inf), axis=1)
        ranks = np.arange(1, m_full + 1, dtype=float)
        msafe = np.maximum(mcount, 1)[:, None]
        p = np.where(mcount > 0, np.min(msafe * p_sorted / ranks, axis=1), 1.0)
    return ndtri(1.0 - np.clip(p, P_CLAMP, 1.0 - P_CLAMP))


def _bvn_equal_coords(c, rho):
    """P(Z1 <= c, Z2 <= c) under per-element correlations rho.

    A name of its own so that per-row evaluations (perfbench's
    ``engine.closedtest.bvn_rows``) are traced apart from the grid builds.
    """
    return bvn_cdf(c, c, rho)


def _test_chunk(pre: _Prepared, z1, z2, cont, futile, taus):
    """Vectorised closed test. Returns (rejected mask, intersection-of-all mask, clamps)."""
    n, k = z1.shape
    contrib = np.ones_like(cont) if pre.scenario.follow_up else cont
    config = pre.scenario.test.config
    inverse_normal = config.method == "inverse-normal"

    candidate = cont & ~futile[:, None]
    full_subset_reject = np.zeros(n, dtype=bool)
    clamps = 0
    for members in pre.subsets:
        y1 = _stage_quantiles(pre, z1, members, None, taus)
        y2 = _stage_quantiles(pre, z2, members, contrib, taus)
        # clamp saturation of computed statistics (stage-2 "no data" rows are
        # structural, not numerical, and are excluded from the diagnostic)
        m2 = contrib[:, list(members)].sum(axis=1)
        clamps += int(np.sum((y1 <= _YMIN) | (y1 >= _YMAX)))
        clamps += int(np.sum(((y2 <= _YMIN) | (y2 >= _YMAX)) & (m2 > 0)))
        if inverse_normal:
            stat = config.w1 * y1 + config.w2 * y2
            reject = stat >= pre.u2
            if math.isfinite(pre.u1):
                reject |= y1 >= pre.u1
        else:
            reject = ndtr(-y1) * ndtr(-y2) <= pre.fisher_crit
        if len(members) == k:
            full_subset_reject = reject & ~futile
        candidate[:, list(members)] &= reject[:, None]
    return candidate & cont, full_subset_reject, clamps


def _simulate_chunk(pre: _Prepared, start: int, stop: int) -> dict:
    scenario = pre.scenario
    k = pre.k
    eps, taus, rand_pick, redraws = _draw_chunk(pre, start, stop)
    z, mean_sub2, taus = _statistics(pre, eps, taus)

    cont, futile = _select_chunk(pre, z)
    if rand_pick is not None:
        cont = _random_pick_mask(cont, rand_pick)

    z1 = pre.orient_final * z[:, k : 2 * k]
    z2_native = z[:, 2 * k :].copy()
    if scenario.design == SUBGROUP:
        # re-centre the subgroup statistic when stage 2 recruits it alone
        sub_only = cont[:, 0] & ~cont[:, 1]
        z2_native[sub_only, 0] += pre.sub_only_mean - mean_sub2[sub_only]
    z2 = pre.orient_final * z2_native
    if scenario.follow_up:
        z2 = np.where(cont, z2, z1)

    rejected, full_reject, clamps = _test_chunk(pre, z1, z2, cont, futile, taus)

    tally = {
        "n": stop - start,
        "futility": int(futile.sum()),
        "redraws": redraws,
        "clamps": clamps,
    }
    if scenario.design == TREATMENT:
        sizes = cont.sum(axis=1)
        tally["size_hist"] = np.bincount(sizes[~futile], minlength=k + 1)[1:]
        tally["arm_counts"] = cont.sum(axis=0)
        tally["hyp_counts"] = rejected.sum(axis=0)
        tally["any"] = int(rejected.any(axis=1).sum())
        if scenario.ptest is not None:
            cols = [i - 1 for i in scenario.ptest]
            tally["ptest"] = int(rejected[:, cols].any(axis=1).sum())
    else:
        sub_only = cont[:, 0] & ~cont[:, 1]
        full_only = cont[:, 1] & ~cont[:, 0]
        both = cont[:, 0] & cont[:, 1]
        rows = {}
        for name, mask in (("sub", sub_only), ("full", full_only), ("both", both)):
            rows[name] = np.array(
                [
                    mask.sum(),
                    (rejected[:, 0] & mask).sum(),
                    (rejected[:, 1] & mask).sum(),
                    (rejected[:, 0] & rejected[:, 1] & mask).sum(),
                    (full_reject & mask).sum(),
                ],
                dtype=np.int64,
            )
        tally["branches"] = rows
        tally["union"] = int((rejected[:, 0] | rejected[:, 1]).sum())
    return tally


def _merge_tallies(tallies: list) -> dict:
    """Key-wise sum of chunk tallies; nested dicts (subgroup branches) sum per key."""
    total = {}
    for key, value in tallies[0].items():
        parts = [t[key] for t in tallies]
        if isinstance(value, dict):
            total[key] = {name: sum(p[name] for p in parts) for name in value}
        else:
            total[key] = sum(parts)
    return total


def _chunk_task(args):
    pre, start, stop = args
    return _simulate_chunk(pre, start, stop)


def _pool_size(threads: int, cpus: int, chunks: int) -> int:
    """Worker processes worth starting: no more than requested, CPUs usable or chunks."""
    return max(1, min(threads, cpus, chunks))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_scenario(scenario: Scenario, threads: int = 1) -> OperatingCharacteristics:
    """Simulate a scenario and aggregate its operating characteristics.

    Args:
        scenario: the design, effects, rule and testing configuration.
        threads: worker processes, capped at the CPUs usable by this process
            and at the number of chunks; the result is identical for any value.

    Returns:
        OperatingCharacteristics with integer tallies and the expected total
        sample size.
    """
    pre = _prepare(scenario)
    bounds = [
        (start, min(start + CHUNK_SIZE, scenario.replications))
        for start in range(0, scenario.replications, CHUNK_SIZE)
    ]
    workers = _pool_size(threads, _usable_cpus(), len(bounds))
    if workers == 1:
        tallies = [_simulate_chunk(pre, a, b) for a, b in bounds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(_chunk_task, [(pre, a, b) for a, b in bounds]))
    total = _merge_tallies(tallies)

    common = dict(
        design=scenario.design,
        replications=scenario.replications,
        futility_count=total["futility"],
        prevalence_redraws=total["redraws"],
        clamped_pvalues=total["clamps"],
        expected_total_sample_size=0.0,
    )
    if scenario.design == TREATMENT:
        oc = OperatingCharacteristics(
            **common,
            selected_size_counts=tuple(int(c) for c in total["size_hist"]),
            arm_selected_counts=tuple(int(c) for c in total["arm_counts"]),
            hypothesis_rejected_counts=tuple(int(c) for c in total["hyp_counts"]),
            any_rejected_count=total["any"],
            ptest=scenario.ptest,
            ptest_rejected_count=total.get("ptest"),
        )
    else:
        oc = OperatingCharacteristics(
            **common,
            subgroup_counts={
                name: SubgroupCounts(*(int(v) for v in vals))
                for name, vals in total["branches"].items()
            },
            union_rejected_count=total["union"],
        )
    return replace(oc, expected_total_sample_size=expected_sample_size(scenario, oc))


def expected_sample_size(scenario: Scenario, oc: OperatingCharacteristics) -> float:
    """Expected total sample size implied by the simulated selections.

    Treatment designs recruit every arm plus control in stage 1; in stage 2
    each continued arm adds a cohort and the control cohort is budgeted in
    every replication (the convention behind the published threshold-sweep
    sample sizes, which count the control follow-through even when all
    experimental arms stop). Subgroup designs recruit both arms in stage 1
    and, unless the trial stops for futility, both arms in stage 2 -- at the
    enriched size when only the subgroup continues.
    """
    plan = scenario.plan
    reps = oc.replications
    if scenario.design == TREATMENT:
        k = scenario.effects.comparisons
        continued = sum(m * c for m, c in enumerate(oc.selected_size_counts, start=1))
        return (k + 1) * plan.stage1_per_arm + plan.stage2_per_arm * (reps + continued) / reps
    sub_only_n = plan.enrich_per_arm or plan.stage2_per_arm
    rows = oc.subgroup_counts
    stage2 = 2.0 * (
        sub_only_n * rows["sub"].n + plan.stage2_per_arm * (rows["full"].n + rows["both"].n)
    )
    return 2.0 * plan.stage1_per_arm + stage2 / reps


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepPoint:
    axis: str
    value: object
    scenario: Scenario
    oc: OperatingCharacteristics


def _apply_axis(base: Scenario, axis: str, value) -> Scenario:
    if axis == "threshold":
        if base.rule.kind != "threshold":
            raise InfeasibleScenarioError("threshold sweeps need a threshold selection rule")
        return replace(base, rule=SelectionRule("threshold", threshold=float(value)))
    if axis == "futility-limits-grid":
        if base.rule.kind != "futility-pair":
            raise InfeasibleScenarioError("futility-limit sweeps need a futility-pair rule")
        l1, l2 = value
        return replace(base, rule=SelectionRule("futility-pair", limits=(float(l1), float(l2))))
    # stage1-allocation: move patients between stages holding the total budget
    # (K+1)*n1 + (m+1)*n2 fixed, where m arms continue under a best-m rule.
    if base.rule.best_count is None:
        raise InfeasibleScenarioError("stage-1 allocation sweeps need a best-m selection rule")
    k = base.effects.comparisons
    m = min(base.rule.best_count, k)
    total = (k + 1) * base.plan.stage1_per_arm + (m + 1) * base.plan.stage2_per_arm
    n1 = int(value)
    if n1 != value or n1 <= 0:
        raise InfeasibleScenarioError("stage-1 sizes must be positive integers")
    n2_raw = (total - (k + 1) * n1) / (m + 1)
    n2 = round(n2_raw)
    if n2 <= 0 or abs(n2_raw - n2) > 1e-9:
        raise InfeasibleScenarioError(
            f"stage-1 size {n1} breaks the sample-size budget "
            f"({k + 1}*n1 + {m + 1}*n2 = {total})"
        )
    return replace(base, plan=replace(base.plan, stage1_per_arm=n1, stage2_per_arm=int(n2)))


def sweep(base: Scenario, axis: str, values, threads: int = 1) -> list:
    """Re-run a scenario along one design axis.

    Every grid point runs with an independently derived seed,
    ``master_seed + point_index``, so the first point of a one-value sweep
    reproduces ``run_scenario(base)`` exactly.

    Args:
        base: scenario providing every non-swept setting.
        axis: "stage1-allocation", "threshold" or "futility-limits-grid".
        values: axis values (limit pairs for the futility grid).
        threads: forwarded to run_scenario.

    Returns:
        list of SweepPoint in input order.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    points = []
    for index, value in enumerate(values):
        scn = _apply_axis(base, axis, value)
        scn = replace(scn, master_seed=(base.master_seed + index) & _MASK64)
        points.append(SweepPoint(axis=axis, value=value, scenario=scn, oc=run_scenario(scn, threads)))
    return points
