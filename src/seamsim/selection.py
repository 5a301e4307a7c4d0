"""Interim selection rules.

Treatment designs pick a subset of experimental arms from the early-outcome
statistics, on the scale where larger values are better. Subgroup designs
choose between continuing in the subgroup, the full population, or both; the
rules for that choice are written on the scale where *smaller* statistics
are better (log hazard-ratio style). The engine applies a rule to whole chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simmodel import _FieldError

__all__ = ["SelectionRule"]

# in the order of the classic select codes 0-6, which the CLI reads by index
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
                raise _FieldError("epsilon", "the epsilon rule needs an epsilon >= 0 (a number, not NaN)")
        elif self.epsilon is not None:
            raise _FieldError("epsilon", "epsilon only applies to the epsilon rule")
        if self.kind == "threshold":
            if self.threshold is None or np.isnan(self.threshold):
                raise _FieldError("threshold", "the threshold rule needs a threshold (a number, not NaN)")
        elif self.threshold is not None:
            raise _FieldError("threshold", "threshold only applies to the threshold rule")
        if self.kind in _SUBGROUP_KINDS:
            if self.limits is None or len(self.limits) != 2:
                raise _FieldError("limits", f"{self.kind} needs a (subgroup, full) limit pair")
            object.__setattr__(self, "limits", (float(self.limits[0]), float(self.limits[1])))
            if np.isnan(self.limits).any():
                raise _FieldError("limits", f"{self.kind} limits must be numbers, not NaN")
            if self.kind == "threshold-pair" and self.limits[0] > self.limits[1]:
                raise _FieldError("limits", "threshold-pair limits must satisfy l1 <= l2")
        elif self.limits is not None:
            raise _FieldError("limits", "limits only apply to subgroup rules")

    @property
    def is_subgroup_rule(self) -> bool:
        return self.kind in _SUBGROUP_KINDS

    @property
    def best_count(self) -> int | None:
        if self.kind.startswith("best-"):
            return int(self.kind.split("-")[1])
        return None
