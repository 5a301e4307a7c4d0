"""Closed testing with two-stage combination tests.

Every non-empty intersection of the elementary hypotheses is tested by
combining its stage-wise p-values (inverse-normal or Fisher combination).
Stage-2 p-values are computed over the intersection reduced to the arms that
actually contribute stage-2 data, and an elementary hypothesis is rejected
only if every intersection containing it is rejected and the arm itself was
continued -- dropped arms can never be rejected.

Intersection p-values support four tests: Dunnett's many-to-one comparison
(exact under the shared-control correlation), Simes, Bonferroni, and the
bivariate exact test for a subgroup nested in the full population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.optimize import brentq
from scipy.special import chdtri, ndtr, ndtri

from .simmodel import _FieldError
from .statdist import bvn_cdf, bvn_max_sf, equicorr_max_cdf

__all__ = [
    "P_CLAMP",
    "CombinationConfig",
    "CombineResult",
    "stage_pvalue",
    "intersection_pvalue",
    "combine",
    "spending_boundaries",
    "fisher_critical_value",
    "closed_test",
    "INTERSECTION_METHODS",
]

P_CLAMP = 1e-15
INTERSECTION_METHODS = ("dunnett", "simes", "bonferroni", "spiessens-debois")


@dataclass(frozen=True)
class CombinationConfig:
    """How the two stage-wise p-values are combined.

    Attributes:
        method: "inverse-normal" or "fisher".
        weight: squared stage-1 weight w1^2 of the inverse-normal
            combination, in (0, 1); the stage weights are w1 = sqrt(weight)
            and w2 = sqrt(1 - weight).
        alpha: one-sided overall level.
        alpha1: level spent on a stage-1 efficacy look (0 disables it; only
            supported for the inverse-normal combination).
    """

    method: str = "inverse-normal"
    weight: float = 0.5
    alpha: float = 0.025
    alpha1: float = 0.0

    def __post_init__(self):
        if self.method not in ("inverse-normal", "fisher"):
            raise ValueError(f"unknown combination method {self.method!r}")
        if not 0.0 < self.weight < 1.0:
            raise _FieldError("weight", "squared stage-1 weight must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise _FieldError("alpha", "alpha must lie in (0, 1)")
        if not 0.0 <= self.alpha1 <= self.alpha:
            raise ValueError("alpha1 must lie in [0, alpha]")
        if self.method == "fisher" and self.alpha1 > 0.0:
            raise ValueError("stage-1 alpha spending is only defined for the inverse-normal test")

    @property
    def w1(self) -> float:
        return math.sqrt(self.weight)

    @property
    def w2(self) -> float:
        return math.sqrt(1.0 - self.weight)

    @classmethod
    def from_sample_sizes(
        cls,
        n1: int,
        n2: int,
        alpha: float = 0.025,
        method: str = "inverse-normal",
        weight: float | None = None,
        alpha1: float = 0.0,
    ) -> "CombinationConfig":
        """Stage weights from the planned stage sizes, w1^2 = n1/(n1+n2).

        ``weight`` overrides the squared stage-1 weight.
        """
        sq = n1 / (n1 + n2) if weight is None else float(weight)
        return cls(method=method, weight=sq, alpha=alpha, alpha1=alpha1)


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


def fisher_critical_value(alpha: float) -> float:
    """Critical value for the product p1*p2 of two independent p-values.

    Under the null -2 ln(p1 p2) is chi-square with four degrees of freedom,
    so the level-alpha critical value is exp(-q/2) with q the upper-alpha
    quantile of that distribution.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return math.exp(-chdtri(4, alpha) / 2.0)


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


@lru_cache(maxsize=256)  # combine() asks once per intersection; each miss is a Brent root
def spending_boundaries(config: CombinationConfig) -> tuple:
    """Stage-wise efficacy boundaries (u1, u2) on the standardized scale.

    u1 = Phi^-1(1 - alpha1) applies to the stage-1 statistic Phi^-1(1-p1);
    u2 applies to the combined statistic and solves

        P(C1 < u1, C2 >= u2) = alpha - alpha1

    under the null joint law where the standardized stage statistics are
    bivariate normal with correlation w1. With no stage-1 spending this
    reduces exactly to u2 = Phi^-1(1 - alpha); spending everything at stage 1
    leaves u2 = +inf. The root is located by Brent's method with an absolute
    tolerance of 1e-10 on u2.
    """
    if config.method != "inverse-normal":
        raise ValueError("spending boundaries are defined for the inverse-normal test")
    if config.alpha1 == 0.0:
        return math.inf, float(ndtri(1.0 - config.alpha))
    u1 = float(ndtri(1.0 - config.alpha1))
    if config.alpha1 == config.alpha:
        return u1, math.inf

    target = config.alpha - config.alpha1

    def excess(u2):
        # P(C1 < u1, C2 >= u2) - target
        return ndtr(u1) - bvn_cdf(u1, u2, config.w1) - target

    u2 = brentq(excess, -10.0, 10.0, xtol=1e-10)
    return u1, float(u2)


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
