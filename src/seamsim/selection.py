"""Interim selection rules.

Treatment designs pick a subset of experimental arms from the early-outcome
statistics, on the scale where larger values are better. Subgroup designs
choose between continuing in the subgroup, the full population, or both; the
rules for that choice are written on the scale where *smaller* statistics
are better (log hazard-ratio style), so the engine hands this module
statistics on that orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SelectionRule",
    "SelectionOutcome",
    "select_treatments",
    "select_population",
    "SUBGROUP_INDEX",
    "FULL_INDEX",
]

SUBGROUP_INDEX = 1
FULL_INDEX = 2

_TREATMENT_KINDS = ("all", "best-1", "best-2", "best-3", "epsilon", "random-1", "threshold")
_SUBGROUP_KINDS = ("threshold-pair", "futility-pair")


@dataclass(frozen=True)
class SelectionRule:
    """One interim selection rule.

    Attributes:
        kind: one of "all", "best-1", "best-2", "best-3", "epsilon",
            "random-1", "threshold" (treatment designs) or "threshold-pair",
            "futility-pair" (subgroup designs).
        epsilon: margin for the epsilon rule (keep arms within epsilon of the
            best); required for kind "epsilon".
        threshold: cut-off for the threshold rule (keep arms strictly above);
            required for kind "threshold".
        limits: (subgroup, full population) limit pair for the subgroup
            rules; required for both subgroup kinds.
    """

    kind: str
    epsilon: float | None = None
    threshold: float | None = None
    limits: tuple | None = None

    def __post_init__(self):
        if self.kind not in _TREATMENT_KINDS + _SUBGROUP_KINDS:
            raise ValueError(f"unknown selection rule {self.kind!r}")
        if self.kind == "epsilon":
            if self.epsilon is None or not self.epsilon >= 0.0:
                raise ValueError("epsilon rule needs a non-negative epsilon, not NaN")
        elif self.epsilon is not None:
            raise ValueError("epsilon only applies to the epsilon rule")
        if self.kind == "threshold":
            if self.threshold is None or np.isnan(self.threshold):
                raise ValueError("threshold rule needs a threshold, not NaN")
        elif self.threshold is not None:
            raise ValueError("threshold only applies to the threshold rule")
        if self.kind in _SUBGROUP_KINDS:
            if self.limits is None or len(self.limits) != 2:
                raise ValueError(f"{self.kind} needs a (subgroup, full) limit pair")
            object.__setattr__(self, "limits", (float(self.limits[0]), float(self.limits[1])))
            if np.isnan(self.limits).any():
                raise ValueError(f"{self.kind} limits must be numbers, not NaN")
            if self.kind == "threshold-pair" and self.limits[0] > self.limits[1]:
                raise ValueError("threshold-pair limits must satisfy l1 <= l2")
        elif self.limits is not None:
            raise ValueError("limits only apply to subgroup rules")

    @property
    def is_subgroup_rule(self) -> bool:
        return self.kind in _SUBGROUP_KINDS

    @property
    def best_count(self) -> int | None:
        if self.kind.startswith("best-"):
            return int(self.kind.split("-")[1])
        return None


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
        keep = [stream.integers(k)]
    else:  # threshold
        keep = np.nonzero(z > rule.threshold)[0]
    return SelectionOutcome(frozenset(int(i) + 1 for i in keep))


def select_population(z_sub: float, z_full: float, rule: SelectionRule) -> SelectionOutcome:
    """Apply a subgroup selection rule at the interim.

    Both statistics are on the selection scale where smaller values favour
    the treatment (the natural scale of hazard/odds-ratio statistics; the
    engine negates normal-outcome statistics before calling this).

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
