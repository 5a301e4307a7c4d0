"""The scalar per-replication reference path: one simulated trial at a time.

These names replay a replication's stream, statistics, interim selection and
closed test with scalar loops, as ``tests/oracle.py`` does to check the
vectorised engine; ``equicorr_max_cdf``, a Gauss-Hermite quadrature at any
correlation, checks the engine's Dunnett grids. They take from the product only
its draw recipes, numerics, boundaries, selection rule and score model, never
the engine or the CLI, so the oracle stays an independent implementation.

The closed test combines the stage-wise p-values of every non-empty intersection
of the elementary hypotheses, at stage 2 over the intersection's arms that have
stage-2 data. An elementary hypothesis is rejected only if every intersection
containing it is and its arm was continued: dropped arms are never rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations, repeat

import numpy as np
from scipy.special import ndtr, ndtri

from .closedtest import INTERSECTION_METHODS, P_CLAMP, CombinationConfig, fisher_critical_value, spending_boundaries
from .selection import SelectionRule
from .simmodel import ScoreModel, _check_redraw_rate
from .statdist import _MASK64, _binomial_counts, _normals, _picks, bvn_max_sf

# Gauss-Hermite rule for integrals against exp(-x^2); 192 nodes keeps the
# equicorrelated-maximum CDF below 1e-9 absolute error for correlations up to
# 0.8 (validated against composite Simpson in the test suite), which covers
# the designs' 1/2.
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(192)
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)

# The quadrature runs over the points in slices of 256, 384 KB per points x nodes array of Phi
# or a running power of it; a point's sums never depend on its batch or the other m asked for.
_SLICE_POINTS = 256


def equicorr_max_cdf(m, r, z):
    """CDF of the maximum of m equicorrelated standard normals, for one m or many.

    Evaluates ``P(max_i Z_i <= z)`` for ``Z`` multivariate normal with unit
    variances and common correlation ``r`` using the one-factor representation
    ``Z_i = sqrt(r) U + sqrt(1-r) E_i`` and a 192-node Gauss-Hermite rule,

        P = E_U[ Phi((z - sqrt(r) U) / sqrt(1-r))^m ].

    Phi is evaluated once per point and node for all m, its powers as a running product
    (Phi^3 = Phi^2 * Phi): for m <= 8 the CDF is within 1.5 eps (3.3e-16) of that of
    ``Phi ** m`` at r = 1/2, 2.5 eps at r = 0, and equal to it for m <= 2.

    Args:
        m: number of coordinates (positive integer), or a sequence of them.
        r: common correlation in [0, 1).
        z: threshold; scalar or array (vectorised over z).

    Returns:
        Probability in [0, 1] of shape m.shape + z.shape (a float for scalar m
        and z), with absolute error below 1e-9 for r <= 0.8. Beyond that the
        fixed rule loses digits: against mpmath for m in {2, 4, 8} and z in
        {-1, 0, 1, 2, 3} the worst error is 6e-9 at r = 0.85, 9e-7 at 0.9,
        5e-5 at 0.95 and 4e-3 at 0.99.
    """
    ms = np.asarray(m, dtype=float)
    if ms.size == 0 or not np.all(np.isfinite(ms) & (ms >= 1) & (ms == np.floor(ms))):
        raise ValueError("m must be a positive integer or a non-empty sequence of them")
    if not 0.0 <= r < 1.0:
        raise ValueError("common correlation must lie in [0, 1)")
    zz = np.asarray(z, dtype=float)
    x, powers = zz.ravel(), ms.ravel()
    out = np.empty((powers.size, x.size))
    for lo in range(0, x.size, _SLICE_POINTS):
        sl = slice(lo, lo + _SLICE_POINTS)
        cdf = ndtr((x[sl, None] - np.sqrt(2.0 * r) * _GH_NODES) / np.sqrt(1.0 - r))
        for p, power in enumerate(accumulate(repeat(cdf, int(powers.max())), np.multiply), 1):
            if p in powers:  # power = Phi^p, as Phi^(p - 1) * Phi
                out[powers == p, sl] = (power * _GH_WEIGHTS).sum(axis=-1) * _INV_SQRT_PI
        del cdf, power  # before the next slice's, so that at most three 384 KB arrays are live
    out = np.clip(out, 0.0, 1.0, out=out).reshape(ms.shape + zz.shape)
    return float(out) if out.ndim == 0 else out


def replication_stream(master_seed: int, replication_index: int) -> np.random.Generator:
    """Independent random generator for one simulation replication.

    Streams are produced by keying a counter-based Philox generator with the
    pair ``(master_seed, replication_index)``, so the draws consumed by a
    replication depend only on that pair -- never on execution order, chunking
    or worker count. A replication's draws read its raw words by ``statdist``'s recipes
    ``_normals``, ``_picks`` and ``_binomial_counts``.

    Args:
        master_seed: scenario-level seed (any python int; taken mod 2**64).
        replication_index: zero-based replication number.

    Returns:
        numpy Generator backed by Philox.
    """
    if replication_index < 0:
        raise ValueError("replication_index must be non-negative")
    key = np.array([int(master_seed) & _MASK64, int(replication_index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class StageStatistics:
    """Sampled standardized statistics for a single replication."""

    values: np.ndarray


def model_factor(model: ScoreModel) -> np.ndarray:
    """The model's covariance factor kron(chol(S), chol(U)), chol(U) by LAPACK: the engine's closed form's reference."""
    unit = np.full((model.mean.size // 3,) * 2, model.r)
    np.fill_diagonal(unit, 1.0)
    rho = model.rho
    stages_chol = np.array([[1.0, 0.0, 0.0], [rho, math.sqrt(1.0 - rho * rho), 0.0], [0.0, 0.0, 1.0]])
    return np.kron(stages_chol, np.linalg.cholesky(unit))


def sample_replication(model: ScoreModel, stream: np.random.Generator) -> StageStatistics:
    """Draw one replication's statistic vector from its stream.

    Consumes exactly ``model.mean.size`` raw words, one standard normal each,
    so results are reproducible from the stream state alone.
    """
    eps = _normals(stream.bit_generator.random_raw(model.mean.size))
    return StageStatistics(values=model.mean + model_factor(model) @ eps)


def resolve_prevalence(
    prevalence: float,
    fixed: bool,
    stream: np.random.Generator,
    total_stage1: int,
) -> tuple[float, int]:
    """Stage-1 subgroup prevalence for one replication.

    With ``fixed`` the configured value is used as-is. Otherwise the realised
    prevalence is a binomial draw, one raw word, over the stage-1 recruitment;
    draws in which the subgroup or its complement would be empty describe a
    trial the design cannot run, so they are discarded and redrawn. A prevalence
    for which fewer than one draw in ten is kept is rejected before drawing.

    Args:
        prevalence: configured prevalence in (0, 1).
        fixed: whether the prevalence is treated as known.
        stream: the replication's random stream.
        total_stage1: total stage-1 recruitment across arms.

    Returns:
        (effective prevalence, number of discarded draws).
    """
    if not 0.0 < prevalence < 1.0:
        raise ValueError("prevalence must lie strictly in (0, 1)")
    if fixed:
        return prevalence, 0
    if total_stage1 < 2:
        raise ValueError("total stage-1 recruitment must be at least 2")
    _check_redraw_rate(prevalence, total_stage1)
    redraws = 0
    while True:
        count = int(_binomial_counts(stream.bit_generator.random_raw(1), total_stage1, prevalence)[0])
        if 0 < count < total_stage1:
            return count / total_stage1, redraws
        redraws += 1


SUBGROUP_INDEX = 1
FULL_INDEX = 2


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of the interim look.

    ``continued`` holds 1-based comparison indices (treatment arms, or
    SUBGROUP_INDEX / FULL_INDEX for subgroup designs). In both designs an
    empty selection is the decision to stop for futility.
    """

    continued: frozenset

    def __post_init__(self):
        object.__setattr__(self, "continued", frozenset(int(i) for i in self.continued))

    @property
    def stopped_for_futility(self) -> bool:
        return not self.continued


def select_treatments(
    z_early: np.ndarray,
    rule: SelectionRule,
    stream: np.random.Generator | None = None,
) -> SelectionOutcome:
    """Apply a treatment selection rule to the early-outcome statistics.

    Args:
        z_early: length-K statistics, larger is better; arm k is index k-1.
        rule: the selection rule; must be a treatment kind.
        stream: random stream, required by the "random-1" rule.

    Returns:
        SelectionOutcome with the continued arm indices. Only the threshold
        rule can stop for futility (no arm strictly above the cut-off). Ties
        for "best-m" and the degenerate epsilon=0 rule resolve to the lowest
        arm index; "best-m" keeps exactly min(m, K) arms.
    """
    if rule.is_subgroup_rule:
        raise ValueError(f"{rule.kind} is a subgroup rule")
    z = np.asarray(z_early, dtype=float)
    k = z.shape[0]
    if k < 1:
        raise ValueError("need at least one arm")

    if rule.kind == "all":
        keep = range(k)
    elif rule.kind.startswith("best-"):
        keep = np.argsort(-z, kind="stable")[: rule.best_count]
    elif rule.kind == "epsilon" and rule.epsilon == 0.0:
        keep = [np.argmax(z)]
    elif rule.kind == "epsilon":
        keep = np.nonzero(z >= z.max() - rule.epsilon)[0]
    elif rule.kind == "random-1":
        if stream is None:
            raise ValueError("random-1 selection needs a random stream")
        keep = _picks(stream.bit_generator.random_raw(1), k)
    else:  # threshold
        keep = np.nonzero(z > rule.threshold)[0]
    return SelectionOutcome(frozenset(int(i) + 1 for i in keep))


def select_population(z_sub: float, z_full: float, rule: SelectionRule) -> SelectionOutcome:
    """Apply a subgroup selection rule at the interim (scalar reference selector).

    Both statistics are on the selection scale where smaller values favour
    the treatment: the natural scale of hazard/odds-ratio statistics, and the
    negated one of normal-outcome statistics.

    threshold-pair: with limits (l1, l2) and difference d = z_sub - z_full,
        d <= l1 continues the subgroup only, d > l2 the full population only,
        otherwise both.
    futility-pair: with limits (l1, l2), each population continues if its
        statistic is strictly below its limit; if neither qualifies the
        selection is empty and the trial stops for futility.
    """
    if not rule.is_subgroup_rule:
        raise ValueError(f"{rule.kind} is a treatment rule")
    l1, l2 = rule.limits
    if rule.kind == "threshold-pair":
        diff = z_sub - z_full  # d <= l1 drops the full population, d > l2 the subgroup
        sub_go, full_go = not diff > l2, not diff <= l1
    else:
        sub_go, full_go = z_sub < l1, z_full < l2
    return SelectionOutcome(
        frozenset(i for i, go in ((SUBGROUP_INDEX, sub_go), (FULL_INDEX, full_go)) if go)
    )


@dataclass(frozen=True)
class CombineResult:
    """Outcome of one combination test."""

    statistic: float
    reject: bool


def stage_pvalue(z):
    """One-sided p-value 1 - Phi(z); vectorised, maps -inf to 1."""
    return 1.0 - ndtr(z)


def intersection_pvalue(
    z,
    method: str,
    lam: float = 1.0,
    tau: float | None = None,
) -> float:
    """P-value for the intersection of the hypotheses behind the statistics.

    Args:
        z: statistics (larger favours rejection) of the member hypotheses;
            +-inf is allowed, NaN is not.
        method: "dunnett", "simes", "bonferroni" or "spiessens-debois".
        lam: allocation ratio for Dunnett's test (comparisons correlate at
            1/(1+lam)); the simulation engine always uses 1, equal allocation.
        tau: subgroup prevalence for the bivariate subgroup/full test
            (statistics correlate at sqrt(tau)).

    Returns:
        The intersection p-value; a singleton reduces to 1 - Phi(z) for every
        method.
    """
    if method not in INTERSECTION_METHODS:
        raise ValueError(f"unknown intersection test {method!r}")
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("intersection needs a non-empty 1-d statistic vector")
    if np.isnan(arr).any():
        raise ValueError("intersection statistics must not be NaN")
    m = arr.size
    if m == 1:
        return float(stage_pvalue(arr[0]))
    if method == "dunnett":
        return float(1.0 - equicorr_max_cdf(m, 1.0 / (1.0 + lam), float(arr.max())))
    if method == "spiessens-debois":
        if m != 2:
            raise ValueError("the subgroup/full-population test is bivariate")
        if tau is None or not 0.0 < tau < 1.0:
            raise ValueError("spiessens-debois needs a prevalence tau in (0, 1)")
        return float(bvn_max_sf(arr.max(), math.sqrt(tau)))
    p = np.sort(stage_pvalue(arr))
    if method == "bonferroni":
        return float(min(1.0, m * p[0]))
    ranks = np.arange(1, m + 1, dtype=float)
    return float(m * np.min(p / ranks))  # the engine's order: m times the least p / rank


def combine(p1: float, p2: float, config: CombinationConfig) -> CombineResult:
    """Combine two stage-wise p-values and test at the configured level.

    Inverse-normal: C = w1 * Phi^-1(1-p1) + w2 * Phi^-1(1-p2), rejecting when
    C reaches the (possibly spending-adjusted) final boundary, or when the
    stage-1 statistic alone reaches the stage-1 boundary if alpha1 > 0.
    Fisher: rejects when p1*p2 falls at or below exp(-q/2) with q the
    1 - alpha quantile of the chi-square distribution with 4 df.

    P-values of exactly 0 or 1 are clamped to [1e-15, 1 - 1e-15] so the
    quantile transforms stay finite; NaN is rejected.
    """
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    q1, q2 = (float(np.clip(p, P_CLAMP, 1.0 - P_CLAMP)) for p in (p1, p2))
    if config.method == "fisher":
        stat = q1 * q2
        return CombineResult(stat, stat <= fisher_critical_value(config.alpha))
    u1, u2 = spending_boundaries(config)
    y1 = float(ndtri(1.0 - q1))
    stat = config.w1 * y1 + config.w2 * float(ndtri(1.0 - q2))
    reject = stat >= u2 or (math.isfinite(u1) and y1 >= u1)
    return CombineResult(stat, reject)


def closed_test(
    stage1_z,
    stage2_z,
    continued,
    method: str,
    config: CombinationConfig,
    tau: float | None = None,
    stage2_contributors=None,
) -> frozenset:
    """Run the closed testing procedure for one replication.

    Args:
        stage1_z: length-K stage-1 final-outcome statistics (all arms).
        stage2_z: length-K stage-2 statistics; entries of arms without
            stage-2 data are ignored. A NaN among the statistics read raises
            ValueError: the first intersection tested is the whole family.
        continued: arms continued at the interim (1-based indices, or a
            SelectionOutcome). An empty set -- futility -- rejects nothing.
        method: intersection test name; Dunnett assumes equal allocation, as
            the engine does.
        config: combination test configuration.
        tau: prevalence for the subgroup/full intersection test.
        stage2_contributors: arms whose statistics enter stage-2 intersection
            p-values; defaults to ``continued``. With complete follow-up of
            dropped arms this is every arm, their stage-2 entries carrying the
            stage-1 cohort's final-outcome statistics.

    Returns:
        frozenset of rejected elementary hypotheses; always a subset of
        ``continued``.
    """
    z1 = np.asarray(stage1_z, dtype=float)
    z2 = np.asarray(stage2_z, dtype=float)
    if z1.shape != z2.shape or z1.ndim != 1:
        raise ValueError("stage statistics must be 1-d vectors of equal length")
    k = z1.shape[0]
    cont = frozenset(getattr(continued, "continued", continued))
    if not cont:
        return frozenset()
    if not cont <= set(range(1, k + 1)):
        raise ValueError("continued arms outside 1..K")
    contributors = frozenset(stage2_contributors) if stage2_contributors is not None else cont

    rejected = set(cont)
    for size in range(k, 0, -1):  # largest intersections first
        for members in combinations(range(1, k + 1), size):
            subset = frozenset(members)
            if not subset & rejected:
                continue  # cannot change anything still standing
            p1 = intersection_pvalue(z1[[i - 1 for i in members]], method, tau=tau)
            alive = sorted(subset & contributors)
            if alive:
                p2 = intersection_pvalue(z2[[i - 1 for i in alive]], method, tau=tau)
            else:
                p2 = 1.0
            if not combine(p1, p2, config).reject:
                rejected -= subset
                if not rejected:
                    return frozenset()
    return frozenset(rejected)
