"""Two-stage combination tests: their configuration and their boundaries.

A ``CombinationConfig`` says how the closed test combines the two stage-wise
p-values of an intersection, inverse-normal or Fisher, and at which level.
``spending_boundaries`` and ``fisher_critical_value`` turn it into the critical
values the engine tests against; ``INTERSECTION_METHODS`` names the four
intersection tests: Dunnett's many-to-one comparison, Simes, Bonferroni, and the
bivariate exact test for a subgroup nested in the full population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.optimize import brentq
from scipy.special import chdtri, ndtr, ndtri

from .simmodel import _FieldError
from .statdist import bvn_cdf

__all__ = [
    "P_CLAMP",
    "CombinationConfig",
    "spending_boundaries",
    "fisher_critical_value",
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


def fisher_critical_value(alpha: float) -> float:
    """Critical value for the product p1*p2 of two independent p-values.

    Under the null -2 ln(p1 p2) is chi-square with four degrees of freedom,
    so the level-alpha critical value is exp(-q/2) with q the upper-alpha
    quantile of that distribution.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return math.exp(-chdtri(4, alpha) / 2.0)


@lru_cache(maxsize=256)  # _reference.combine asks once per intersection; each miss is a Brent root
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
