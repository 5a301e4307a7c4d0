"""Simulation of two-stage adaptive seamless trial designs.

The package estimates operating characteristics -- selection probabilities,
rejection rates, futility rates and expected sample sizes -- of two-stage
designs that select treatments or a patient subgroup at an interim analysis
on an early outcome, then confirm the selected hypotheses on the final
outcome with a combination test over the closed family.

Only the design and simulation names and the scalar per-replication
reference path live here; everything else stays in its submodule.
"""

from .closedtest import CombinationConfig, closed_test, combine, intersection_pvalue
from .engine import Scenario, TestSpec, run_scenario
from .selection import SelectionRule, select_population, select_treatments
from .simmodel import (
    EffectSpec,
    SampleSizePlan,
    build_score_model,
    effect_to_expectation,
    larger_is_better,
    resolve_prevalence,
    sample_replication,
)
from .statdist import replication_stream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # design and simulation
    "EffectSpec",
    "SampleSizePlan",
    "SelectionRule",
    "CombinationConfig",
    "TestSpec",
    "Scenario",
    "run_scenario",
    # per-replication reference path
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
]
