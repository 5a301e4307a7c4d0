"""Simulation engine: operating characteristics of a configured design.

Each replication draws its statistics from its own counter-based random
stream keyed by ``(master_seed, replication_index)``, so results depend only
on the scenario and seed -- never on chunking or worker count. Replications
are processed in fixed-size chunks of 4096, whose streams one vectorised pass
computes; ``threads`` only distributes the chunks over a process pool, and
every tally is an integer count, so a run is bit-for-bit reproducible at any
parallelism. The README's "Reproducibility contract, version 3" states this
guarantee, the draw order, how raw words become draws and draws statistics.

A run is a sweep of one point. Every point of a sweep runs at the configured
seed, so the points share each replication's draws (common random numbers) and
point i equals ``run_scenario`` of its own scenario. A task carries
``(scenarios, start, stop)``: one chunk range for every point, whose shared
settings pickle once, so the bundled 13-point sweep's task takes under 2 KB.
The chunk draws once, computes the statistics once per distinct effects
and plan (once in all, except along the stage-1 allocation axis), and builds
each closed-test block's stage-1 table once for the stage 2 of every point. All
tasks go through one ``map``, a process pool's above one worker; workers read
the Dunnett grids and spending boundaries from caches they inherit warm under
fork.

Both designs tally alike: a row's outcome code holds one base-3 digit per
comparison, 0 dropped, 1 continued, 2 rejected, plus 3^K if the intersection of
all is rejected. A chunk's tally is the histogram of its codes, 2 * 3^K bins,
then its prevalence redraws and clamped p-values; a task returns one such row
per point. The rows merge as a running sum, one chunk at a time; every
operating characteristic sums bins.

The closed test (Marcus, Peritz & Gabriel 1976) rejects a hypothesis when
every intersection holding it rejects, and evaluates only those that can
decide (Hommel, Bretz & Maurer 2007). With C a row's members with stage-2
data and D the rest, an intersection S's stage-2 p-value depends on S & C
alone, and its rejection never falls as its stage-1 quantile Phi^-1(1 - p)
rises. That quantile rises with S's best statistic at a fixed |S| (Dunnett,
Bonferroni, subgroup/full) or as a member's p falls (Simes), so the
candidates T | W_d, T within C and W_d the d worst members of D, decide:
(2^c - 1)(K - c + 1) per row, the whole lattice under follow-up. Clamped
p-values still count every intersection at both stages.

Dunnett's map from a maximum statistic to Phi^-1(1 - p) is precomputed on a fine
grid once per process for each number of arms K, every m from one trapezoid pass
on the grid's own lattice. The grid is uniform, step 1/512 over +-8.5, so a
statistic's interval is index arithmetic, not a search, and the quantile is
linear within it: bitwise what ``np.interp`` returns. Out to the p-value clamp a
grid point is within 1e-11 of the exact quantile and a read within 2e-8, except
in the interval at each end where the quantile reaches the clamp, whose corner
the line cuts by under 1e-3; past +-8.5 it holds the clamp's +-7.9414. The
subgroup/full, Bonferroni and Simes quantiles are exact up to the clamp.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .closedtest import (
    INTERSECTION_METHODS,
    P_CLAMP,
    CombinationConfig,
    fisher_critical_value,
    spending_boundaries,
)
from .simmodel import (
    ARM_CORRELATION,
    SUBGROUP,
    TREATMENT,
    EffectSpec,
    SampleSizePlan,
    _check_redraw_rate,
    _FieldError,
    build_score_model,
    larger_is_better,
)
from .selection import SelectionRule
from .statdist import (_MASK64, _binomial_counts, _normals, _philox_words, _picks, _read_only, bvn_max_sf,
                       dunnett_tails)

__all__ = [
    "TestSpec",
    "Scenario",
    "SubgroupCounts",
    "OperatingCharacteristics",
    "InfeasibleScenarioError",
    "run_scenario",
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
_BLOCK_CELLS = 1 << 17  # 2^K x rows per block of the closed test

SWEEP_AXES = ("stage1-allocation", "threshold", "futility-limits-grid")
# subgroup selection branches: subgroup only, full population only, both
_BRANCHES = ("sub", "full", "both")


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
        effects: effect assumptions (also fixes the design kind); every expected
            statistic must be finite at each prevalence a replication can take.
        plan: stage sample sizes.
        rule: interim selection rule.
        test: closed testing configuration.
        replications: number of simulated trials (at most ten million).
        master_seed: seed from which every replication stream is derived,
            in 0..2**64 - 1.
        ptest: treatment designs only -- the arms whose union of rejections
            is reported as the primary power summary.
        prevalence: subgroup prevalence tau (subgroup designs).
        prevalence_fixed: subgroup designs only -- if false, the stage-1
            prevalence is redrawn binomially in every replication; a
            prevalence for which fewer than one draw in ten keeps both
            populations non-empty is rejected.
        follow_up: treatment designs only -- if true, arms dropped at the
            interim contribute their stage-1 cohort's final-outcome statistic
            to stage-2 p-values instead of being excluded.
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
        for name in ("replications", "master_seed"):  # a float would truncate or fail later
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise _FieldError(name, f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer would reach the JSON export
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise _FieldError("replications", f"replications must lie in 1..{MAX_REPLICATIONS}")
        if not 0 <= self.master_seed <= _MASK64:
            raise _FieldError("master_seed", "seed must lie in 0..2**64 - 1")
        design = self.effects.design
        if self.rule.is_subgroup_rule != (design == SUBGROUP):
            raise ValueError(f"selection rule {self.rule.kind!r} does not fit a {design} design")
        if self.test.intersection == "dunnett" and design != TREATMENT:
            raise ValueError("the Dunnett intersection test applies to treatment designs")
        if self.test.intersection == "spiessens-debois" and design != SUBGROUP:
            raise ValueError("the subgroup/full-population test applies to subgroup designs")
        if design == SUBGROUP:
            if self.prevalence is None or not 0.0 < self.prevalence < 1.0:
                raise _FieldError("prevalence", "subgroup designs need a prevalence strictly in (0, 1)")
            if self.ptest is not None:
                raise ValueError("ptest applies to treatment designs only")
            if self.follow_up:
                raise ValueError("follow_up applies to treatment designs only")
        else:
            if self.prevalence is not None:
                raise ValueError("prevalence applies to subgroup designs only")
            if not self.prevalence_fixed:
                raise ValueError("prevalence_fixed applies to subgroup designs only")
            if self.ptest is not None:
                if not all(float(i).is_integer() for i in self.ptest):
                    raise _FieldError("ptest", "ptest arms must be whole numbers")
                arms = tuple(sorted({int(i) for i in self.ptest}))
                if not arms or arms[0] < 1 or arms[-1] > self.effects.comparisons:
                    raise _FieldError("ptest", "ptest arms must be a non-empty subset of 1..K")
                object.__setattr__(self, "ptest", arms)
        n = 2 * self.plan.stage1_per_arm  # treatment plus control recruit the stage-1 cohort
        if not self.prevalence_fixed:
            _check_redraw_rate(self.prevalence, n)
        # every expected statistic must be finite, at each prevalence a replication can take
        for tau in (self.prevalence,) if self.prevalence_fixed else (1 / n, (n - 1) / n):
            at = "" if tau is None else f" at a prevalence of {tau:g}"
            try:
                _, mean, shift = _model_parts(self.effects, self.plan, tau)
            except ValueError as exc:
                raise _FieldError("effects", f"effects{at}: {exc}") from exc
            if not np.isfinite(np.append(mean, shift)).all():
                raise _FieldError("effects", f"effects{at} give a non-finite expected statistic")

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
            if sum(self.selected_size_counts) + self.futility_count != self.replications:
                raise ValueError("selection histogram plus futility must cover every replication")
        else:
            branch_total = sum(c.n for c in self.subgroup_counts.values())
            if branch_total + self.futility_count != self.replications:
                raise ValueError("branch counts plus futility must cover every replication")


# ---------------------------------------------------------------------------
# preparation


def _tail_quantile(cdf, sf):
    """Phi^-1(1 - p), p = sf = 1 - cdf, from the smaller tail, p clamped: exactly _YMIN or _YMAX at an end."""
    lower = cdf < sf
    q = ndtri(np.where(lower, np.maximum(cdf, P_CLAMP), np.maximum(sf, 1.0 - (1.0 - P_CLAMP))))
    return np.negative(q, out=q, where=~lower)


@lru_cache(maxsize=None)  # one per K > 1, at most MAX_COMPARISONS - 1 of (K - 1) x 70 KB
def _dunnett_grids(k: int):
    """Dunnett quantile grids of m = 2 .. k equally allocated arms, row m - 2 (shared, read-only): one
    ``dunnett_tails`` pass, its nodes L = 90 grid steps apart so that every argument lands on the lattice
    (h = 0.249; a finer h moves no quantile by over 4e-15), 85 of them over |u| <= 10.44 (a further reach
    moves none by over 2e-12); each quantile from the smaller tail, so both keep their digits to the clamp."""
    return _read_only(_tail_quantile(*dunnett_tails(range(2, k + 1), _GRID[0], _GRID_STEP, _GRID.size)))


def _read_grid(values, x):
    """``np.interp(x, _GRID, values)``, bitwise, with x's interval found by index arithmetic.

    x + 8.5 (-8.5 is the first point) rounds monotonically and the points are exact, so the floor lands
    on x's interval or one past it; times 512 is np.interp's division by the exact step 1/512."""
    x = np.clip(x, _GRID[0], _GRID[-1])
    j = ((x + 8.5) * 512.0).astype(np.intp)
    j -= x < _GRID[j]
    low = values[j]
    return (values[np.minimum(j + 1, _GRID.size - 1)] - low) * 512.0 * (x - _GRID[j]) + low


@lru_cache(maxsize=8192)
def _model_parts(spec: EffectSpec, plan: SampleSizePlan, prevalence: float | None):
    """Each block's sign, +1 where larger favours treatment; then, times its block's sign,
    the score model's mean and how far its stage-2 subgroup mean, entry 4, moves when only
    the subgroup continues (0 in treatment designs)."""
    model = build_score_model(spec, plan, prevalence)
    codes = (spec.early_outcome, spec.final_outcome, spec.final_outcome)
    signs = np.array([1.0 if larger_is_better(spec.design, code) else -1.0 for code in codes])
    shift = 0.0
    if model.subgroup_only is not None:
        shift = signs[2] * (model.subgroup_only - float(model.mean[4]))  # inf - inf: NaN, no warning
    return signs, np.repeat(signs, spec.comparisons) * model.mean, shift


def _prepare(scenario: Scenario) -> None:
    """Warm the caches that forked workers inherit: the spending boundaries and Dunnett grids."""
    if scenario.test.config.method == "inverse-normal":
        spending_boundaries(scenario.test.config)
    k = scenario.effects.comparisons
    if scenario.test.intersection == "dunnett" and k > 1:
        _dunnett_grids(k)


# ---------------------------------------------------------------------------
# chunk simulation


def _draw_chunk(scenario: Scenario, start: int, stop: int):
    """Per-replication draws, in the order the README's contract, version 3, fixes.

    Row r reads replication r's own Philox words, computed for the whole chunk at once:
    one per prevalence try until both populations are non-empty, 3K normals, the random-1 pick.
    """
    seed, k = scenario.master_seed, scenario.effects.comparisons
    reps = np.arange(start, stop, dtype=np.uint64)
    width = 3 * k + (scenario.rule.kind == "random-1")  # words after the prevalence tries
    if scenario.prevalence_fixed:
        taus, redraws, words = None, 0, _philox_words(seed, reps, 0, -(-width // 4))
    else:
        n, counts, first = 2 * scenario.plan.stage1_per_arm, np.empty(reps.size), np.empty(reps.size, int)
        pending, block = np.arange(reps.size), 0
        # a pass tries a Philox block of each pending row; Scenario checks a try is kept w.p. >= 0.1
        while pending.size:
            tries = _binomial_counts(_philox_words(seed, reps[pending], block, 1), n, scenario.prevalence)
            kept = (0 < tries) & (tries < n)
            done = kept.any(axis=1)
            rows, at = pending[done], kept[done].argmax(axis=1)
            counts[rows], first[rows] = tries[done, at], 4 * block + at + 1
            pending, block = pending[~done], block + 1
        taus, redraws = counts / n, int(first.sum()) - reps.size  # every try but the kept one
        lead = first % 4  # each row's normals start at word `first`
        words = _philox_words(seed, reps, first // 4, (int(lead.max()) + width + 3) // 4)
        words = np.take_along_axis(words, lead[:, None] + np.arange(width), axis=1)
    rand_pick = _picks(words[:, 3 * k], k) if width > 3 * k else None
    return _normals(words[:, : 3 * k]), taus, rand_pick, redraws


def _statistics(scenario: Scenario, eps, taus):
    """Oriented statistic matrix (n, 3k) and each row's subgroup shift, from the row's own normals
    and prevalence alone by the README contract's rule. The shift moves a subgroup design's stage-2
    subgroup mean to that of the cohort recruited when only the subgroup continues."""
    spec, n, k = scenario.effects, eps.shape[0], scenario.effects.comparisons
    if taus is None:  # one model, whose mean broadcasts
        r = ARM_CORRELATION if scenario.prevalence is None else math.sqrt(scenario.prevalence)
        signs, mean, shift = _model_parts(spec, scenario.plan, scenario.prevalence)
        shift = np.full(n, shift)
    else:  # one model per distinct prevalence, gathered to its rows
        values, at = np.unique(taus, return_inverse=True)
        signs, means, shifts = zip(*(_model_parts(spec, scenario.plan, tau) for tau in values.tolist()))
        signs, r, mean, shift = signs[0], np.sqrt(taus), np.array(means)[at], np.array(shifts)[at]
    # chol(U), U equicorrelated at r, has d_j on its diagonal and c_j below it in column j
    e, a = eps.reshape(n, 3, k).transpose(1, 2, 0), np.empty((3, k, n))  # (block, column, row)
    d, total, prefix = 1.0, 0.0, 0.0  # d_j, sum_{l<j} c_l^2 and sum_{l<j} c_l e_l
    for j in range(k):
        a[:, j] = prefix + d * e[:, j]
        c = (r - total) / d  # c_j
        prefix, total = prefix + c * e[:, j], total + c * c
        d = np.sqrt(1.0 - total)
    rho = spec.correlation
    a[1] = rho * a[0] + math.sqrt(1.0 - rho * rho) * a[1]  # early and final on the stage-1 patients
    a *= signs[:, None, None]
    return np.add(a.reshape(3 * k, n).T, mean, out=np.empty_like(eps)), shift


def _select_chunk(scenario: Scenario, z, rand_pick):
    """Vectorised interim selection: the (n, k) continued mask.

    A row with no comparison continued is the decision to stop for futility,
    in both designs. ``rand_pick`` holds each row's draw for random-1.
    """
    n = z.shape[0]
    k = scenario.effects.comparisons
    if scenario.design == TREATMENT:
        z = z[:, :k]
        rule = scenario.rule
        cont = np.zeros((n, k), dtype=bool)
        if rule.kind == "all":
            cont[:] = True
        elif rule.kind == "random-1":
            cont[np.arange(n), rand_pick] = True
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
        return cont
    # subgroup rules act on the scale where smaller is better
    s = -z[:, :2]
    l1, l2 = scenario.rule.limits
    if scenario.rule.kind == "threshold-pair":
        diff = (s[:, 0] - s[:, 1])[:, None]  # d <= l1 drops the full population, d > l2 the subgroup
        return ~np.hstack([diff > l2, diff <= l1])
    return s < [l1, l2]


@lru_cache(maxsize=None)  # one per K, built on first use
def _lattice(k: int):
    """Per bitmask s < 2^K, a set of ranks: popcount, (m, rank) table slot m * K + lowest rank, and worst[d, s],
    the d highest ranks outside s; weight[m * K + r]: the C(K - 1 - r, m - 1) sets of m ranks, r the lowest."""
    popcount = np.array([bin(s).count("1") for s in range(1 << k)], dtype=np.uint8)
    lowest = np.array([max((s & -s).bit_length() - 1, 0) for s in range(1 << k)], dtype=np.uint8)
    outside = [[1 << r for r in reversed(range(k)) if not s >> r & 1] for s in range(1 << k)]
    worst = np.array([[sum(bits[:d]) for bits in outside] for d in range(k + 1)], dtype=np.uint8)
    weight = np.array([math.comb(k - 1 - r, m - 1) if m else 0 for m in range(k + 1) for r in range(k)])
    return tuple(map(_read_only, (popcount, popcount * k + lowest, worst, weight)))


def _quantile(p):  # Phi^-1(1 - p), p clipped to the p-value clamp
    return ndtri(1.0 - np.clip(p, P_CLAMP, 1.0 - P_CLAMP))


def _saturated(y):
    return (y <= _YMIN) | (y >= _YMAX)


def _stage_table(scenario: Scenario, z, contrib, cmax: int, tau):
    """One stage's table, a column per row, and each row's members best first, no data last, as flat
    indices; ``contrib`` marks members with data, at most ``cmax``. A set of ranks reads its column at its
    bitmask: Phi^-1(1 - p) by m and lowest rank, or, for Simes, least p / rank, times m for its p-value.
    Dunnett's quantiles read the grid of m at each statistic's computed interval (``_read_grid``)."""
    method, (rows, k) = scenario.test.intersection, z.shape
    scores = z if method in ("dunnett", "spiessens-debois") else 1.0 - ndtr(z)
    # ndtr is not monotone in the last bit near 1/sqrt(2): rank by z unless Simes
    key = np.where(contrib, scores if method == "simes" else -z, np.inf)
    order = np.argsort(key, axis=1, kind="stable") + k * np.arange(rows)[:, None]
    ranked = np.take(scores, order[:, :cmax]).T
    if method == "simes":
        # the least p / rank over each set of ranks T, whose top has its largest p
        least, popcount = np.full((1 << cmax, rows), np.inf), _lattice(k)[0]
        for b in range(cmax):
            np.minimum(least[: 1 << b], ranked[b] / popcount[1 << b : 2 << b, None], out=least[1 << b : 2 << b])
        return least, order
    # (m, rank) table: the best of m members with data ranks at most cmax - m
    table = np.full((cmax + 1, k, rows), _YMIN)  # m = 0: no stage data, p = 1
    for size in range(1, cmax + 1):
        cut = cmax - size + 1
        if method == "bonferroni":
            table[size, :cut] = _quantile(np.minimum(1.0, size * ranked[:cut]))
        elif size == 1:
            table[1, :cut] = np.clip(ranked[:cut], _YMIN, _YMAX)
        elif method == "dunnett":
            table[size, :cut] = _read_grid(_dunnett_grids(k)[size - 2], ranked[:cut])
        else:  # the subgroup/full test, at a fixed or per-row prevalence
            table[size, :cut] = _quantile(bvn_max_sf(ranked[:cut], np.sqrt(tau)))
    return table.reshape(-1, rows), order


def _test_chunk(scenario: Scenario, z1, z2s, conts, taus):
    """Vectorised closed test of one chunk's stage-1 statistics under each selection i, with stage-2
    statistics z2s[i] and continued mask conts[i]. Returns, a row per selection, the rejected masks,
    the intersection-of-all masks and the clamp counts."""
    n, k = z1.shape
    popcount, slot, worst, weight = _lattice(k)
    simes, config, every = scenario.test.intersection == "simes", scenario.test.config, np.ones((n, k), dtype=bool)
    crit, fisher, ones = fisher_critical_value(config.alpha), config.method == "fisher", np.ones(k, np.uint8)
    u1, u2 = (None, None) if fisher else spending_boundaries(config)
    rejected, full_reject = np.zeros((len(conts), n, k), dtype=bool), np.zeros((len(conts), n), dtype=bool)
    clamps, step = np.zeros(len(conts), dtype=np.int64), max(1, _BLOCK_CELLS >> k)
    for a in range(0, n, step):
        b = min(a + step, n)
        tau = scenario.prevalence if taus is None else taus[a:b]
        # the stage-1 table, its clamps and each row's rank bits serve every selection
        table1, order1 = _stage_table(scenario, z1[a:b], every[a:b], k, tau)
        if simes:  # only a row with a p-value within 1e-12 of 0 or 1 can saturate a Simes set
            edge = (table1[1] < 1e-12) | (table1[1 << (k - 1)] > 1.0 - 1e-12)
            clamps += int(np.count_nonzero(_saturated(_quantile(popcount[1:, None] * table1[1:, edge]))))
        else:
            clamps += int(np.count_nonzero(_saturated(table1), axis=1) @ weight)
            table1 = ndtr(-table1) if fisher else table1  # under Fisher, each (m, rank) entry's p-value, once
        bits = np.empty((b - a, k), dtype=np.uint8)
        np.put(bits, order1, 1 << np.arange(k))
        for i, (z2, cont) in enumerate(zip(z2s, conts)):
            # under follow-up, arms dropped at the interim contribute their stage-1 final statistic
            if scenario.follow_up:
                contrib, z2 = every[a:b], np.where(cont[a:b], z2[a:b], z1[a:b])
            else:
                contrib, z2 = cont[a:b], z2[a:b]
            size_of = contrib @ ones
            by_size = np.argsort(size_of, kind="stable")  # the block's rows in order of c
            z2, contrib, c = (np.take(x, by_size, axis=0) for x in (z2, contrib, size_of))
            cmax = int(c[-1])
            table2, order2 = _stage_table(scenario, z2, contrib, cmax, tau if taus is None else tau[by_size])
            p2 = ndtr(-table2) if fisher and not simes else None
            # the stage-1 image of each set T of positions, C's members in stage-2 rank order
            placed, image = np.take(bits[by_size], order2[:, :cmax]).T, np.zeros((1 << cmax, b - a), dtype=np.uint8)
            for p in range(cmax):
                np.bitwise_or(image[: 1 << p], placed[p], out=image[1 << p : 2 << p])
            bounds = np.searchsorted(c, np.arange(cmax + 2))
            rej, full = np.zeros((b - a, k), dtype=bool), np.zeros(b - a, dtype=bool)
            # the rows of each c > 0 in the block test every T | W_d at once, as (T, d, row)
            for size in (np.flatnonzero(bounds[2:] > bounds[1:-1]) + 1).tolist():
                rows, sets = slice(bounds[size], bounds[size + 1]), slice(1, 1 << size)
                upper, d, at = image[sets, rows], np.arange(k + 1 - size)[:, None], by_size[rows]
                image1 = upper[:, None] | worst[: k + 1 - size, upper[-1]]
                if simes:
                    y1 = _quantile((popcount[sets, None, None] + d) * table1[image1, at])
                    y2 = _quantile(popcount[sets, None] * table2[sets, rows])
                else:
                    y1, y2 = table1[slot[image1], at], table2[slot[sets], rows]
                clamps[i] += int(np.count_nonzero(_saturated(y2))) << (k - size)  # T stands for 2^(K - c) sets
                if fisher:
                    reject = (ndtr(-y1) * ndtr(-y2)[:, None] if simes else y1 * p2[slot[sets, None], rows]) <= crit
                else:  # u1 is infinite without stage-1 spending
                    reject = (config.w1 * y1 + (config.w2 * y2)[:, None] >= u2) | (y1 >= u1)
                # a continued hypothesis falls when every candidate holding it rejects
                t = np.arange(1, 1 << size, dtype=np.uint8)[:, None]
                kept = np.bitwise_or.reduce(t * ~reject.all(axis=1), axis=0)
                np.put(rej, order2[rows, :size], (kept >> np.arange(size)[:, None] & 1 == 0).T)
                full[rows] = reject[-1, -1]  # the intersection of all: T = C, d = K - c
            rejected[i, a:b][by_size], full_reject[i, a:b][by_size] = rej, full  # to the chunk's row order
    return rejected & conts, full_reject & np.any(conts, axis=-1), clamps


def _simulate_chunk(scenarios, start: int, stop: int):
    """One chunk's tallies, a row per scenario: its outcome-code histogram, then its redraws and clamps.

    The scenarios, a sweep's points, share the draw. Those with the same effects and plan share
    the statistics and, in the closed test, each block's stage-1 table.
    """
    first = scenarios[0]
    k = first.effects.comparisons
    eps, taus, rand_pick, redraws = _draw_chunk(first, start, stop)
    groups = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault((scenario.effects, scenario.plan), []).append(i)
    tally = np.empty((len(scenarios), 2 * 3**k + 2), dtype=np.int64)
    for members in groups.values():
        z, shift = _statistics(scenarios[members[0]], eps, taus)
        conts = np.array([_select_chunk(scenarios[i], z, rand_pick) for i in members])
        z1, z2s = z[:, k : 2 * k], [z[:, 2 * k :]] * len(members)
        if first.design == SUBGROUP:
            # re-centre the subgroup statistic when stage 2 recruits it alone, in each point's own copy
            z2s = [z2.copy() for z2 in z2s]
            for z2, cont in zip(z2s, conts):
                sub_only = cont[:, 0] & ~cont[:, 1]
                z2[sub_only, 0] += shift[sub_only]
        rejected, all_rejected, clamps = _test_chunk(scenarios[members[0]], z1, z2s, conts, taus)
        for i, cont, rejected_i, all_i, clamped in zip(members, conts, rejected, all_rejected, clamps.tolist()):
            code = (cont + rejected_i.astype(np.int64)) @ 3 ** np.arange(k) + 3**k * all_i
            tally[i] = np.append(np.bincount(code, minlength=2 * 3**k), [redraws, clamped])
    return tally


def _pool_size(threads: int, cpus: int, chunks: int) -> int:
    """Worker processes worth starting: no more than requested, CPUs usable or chunks."""
    return max(1, min(threads, cpus, chunks))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate(scenarios: list, threads: int) -> list:
    """Each scenario's OperatingCharacteristics. The scenarios are one sweep's points: they share the
    seed, K, the rule kind, the prevalence settings and the replications, so they share the draw, and
    one task per chunk range carries them all. The tasks go through one pool at most."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral):  # a pool needs a whole count
        raise ValueError(f"threads must be an integer, not {threads!r}")
    for s in scenarios:
        _prepare(s)
    reps = scenarios[0].replications
    tasks = [(scenarios, a, min(a + CHUNK_SIZE, reps)) for a in range(0, reps, CHUNK_SIZE)]
    workers = _pool_size(threads, _usable_cpus(), len(tasks))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # a running sum holds one chunk's tallies at a time
        total = sum((pool.map if pool else map)(_simulate_chunk, *zip(*tasks)))
    return [_characteristics(s, row) for s, row in zip(scenarios, total)]


@lru_cache(maxsize=None)  # one per K, like _lattice
def _outcome_digits(k: int):
    """The (K + 1, 2 * 3^K) digits of every outcome code, lowest first: one per
    comparison, 0 dropped, 1 continued, 2 rejected; then 1 if all is rejected."""
    return _read_only(np.indices((2,) + (3,) * k, dtype=np.uint8).reshape(k + 1, -1)[::-1])


def _characteristics(scenario: Scenario, total) -> OperatingCharacteristics:
    """The OperatingCharacteristics of a scenario's merged tally."""
    k, plan, reps = scenario.effects.comparisons, scenario.plan, scenario.replications
    hist, (redraws, clamps) = total[:-2], map(int, total[-2:])
    digits = _outcome_digits(k)
    continued, rejected = digits[:k] > 0, digits[:k] == 2

    def counts(events):  # replications with each event, given as a row over the codes
        return tuple(map(int, events @ hist))

    size = continued.sum(axis=0)
    fields = {"futility_count": int((size == 0) @ hist)}
    if scenario.design == TREATMENT:
        fields.update(
            selected_size_counts=counts(np.arange(1, k + 1)[:, None] == size),
            arm_selected_counts=counts(continued),
            hypothesis_rejected_counts=counts(rejected),
            any_rejected_count=int(rejected.any(axis=0) @ hist),
        )
        if scenario.ptest is not None:
            fields["ptest_rejected_count"] = int(rejected[[i - 1 for i in scenario.ptest]].any(axis=0) @ hist)
        # every arm plus control recruits stage 1; in stage 2 each continued arm adds a cohort and
        # the control's is budgeted in every replication, as the published threshold-sweep sample
        # sizes count it, even when every arm stops
        arms = int(size @ hist)
        total_size = (k + 1) * plan.stage1_per_arm + plan.stage2_per_arm * (reps + arms) / reps
    else:
        (sub, full), (rej_sub, rej_full) = continued, rejected
        events = np.array([size > 0, rej_sub, rej_full, rej_sub & rej_full, digits[k] == 1])
        branches = (sub & ~full, full & ~sub, sub & full)  # _BRANCHES order
        fields["subgroup_counts"] = {name: SubgroupCounts(*counts(events & branch))
                                     for name, branch in zip(_BRANCHES, branches)}
        fields["union_rejected_count"] = int((rej_sub | rej_full) @ hist)
        # both arms recruit each stage unless the trial stops for futility, at the
        # enriched size when only the subgroup continues
        rows = fields["subgroup_counts"]
        total_size = 2.0 * plan.stage1_per_arm + 2.0 * (
            plan.subgroup_only_per_arm * rows["sub"].n + plan.stage2_per_arm * (rows["full"].n + rows["both"].n)
        ) / reps
    return OperatingCharacteristics(
        design=scenario.design, replications=reps, expected_total_sample_size=total_size,
        prevalence_redraws=redraws, clamped_pvalues=clamps, ptest=scenario.ptest, **fields,
    )


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
    return _simulate([scenario], threads)[0]


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

    Every grid point runs at the configured seed, so point i equals
    ``run_scenario(points[i].scenario)`` exactly, and neighbouring points differ
    by their settings alone, not by independent Monte Carlo noise. Every point is
    built before any is simulated; each chunk draws once for all points, and the
    chunks share one process pool.

    Args:
        base: scenario providing every non-swept setting.
        axis: "stage1-allocation", "threshold" or "futility-limits-grid".
        values: axis values (limit pairs for the futility grid).
        threads: worker processes, capped as in run_scenario.

    Returns:
        list of SweepPoint in input order.

    Raises:
        InfeasibleScenarioError: a point cannot be built; it names the axis value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    scenarios = []
    for value in values:
        try:
            scenarios.append(_apply_axis(base, axis, value))
        except (ValueError, TypeError, OverflowError) as exc:  # a design check, or a value of the wrong kind
            raise InfeasibleScenarioError(f"{axis} {value!r}: {exc}") from exc
    return [
        SweepPoint(axis=axis, value=value, scenario=scn, oc=oc)
        for value, scn, oc in zip(values, scenarios, _simulate(scenarios, threads))
    ]
