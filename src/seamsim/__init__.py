"""Simulation of two-stage adaptive seamless trial designs.

The package estimates operating characteristics -- selection probabilities,
rejection rates, futility rates and expected sample sizes -- of two-stage
designs that select treatments or a patient subgroup at an interim analysis
on an early outcome, then confirm the selected hypotheses on the final
outcome with a combination test over the closed family.

Only the design and simulation names are public here; everything else stays
in its submodule. The scalar per-replication reference path, which the tests
use as an independent oracle for the vectorised engine, is private to
``seamsim._reference``.
"""

from .closedtest import CombinationConfig
from .engine import Scenario, TestSpec, run_scenario
from .selection import SelectionRule
from .simmodel import EffectSpec, SampleSizePlan, build_score_model, effect_to_expectation, larger_is_better

# The benchmark's oracle (perfbench/checks.py) still looks its eleven scalar names up on
# the package, with the three from simmodel above; they stay attributes, not exports,
# until it replays through tests/oracle.py.
from ._reference import (closed_test, combine, intersection_pvalue, replication_stream, resolve_prevalence,
                         sample_replication, select_population, select_treatments)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EffectSpec",
    "SampleSizePlan",
    "SelectionRule",
    "CombinationConfig",
    "TestSpec",
    "Scenario",
    "run_scenario",
]
