"""Simulation of two-stage adaptive seamless trial designs.

The package estimates operating characteristics -- selection probabilities,
rejection rates, futility rates and expected sample sizes -- of two-stage
designs that select treatments or a patient subgroup at an interim analysis
on an early outcome, then confirm the selected hypotheses on the final
outcome with a combination test over the closed family.
"""

from .closedtest import (
    INTERSECTION_METHODS,
    P_CLAMP,
    CombinationConfig,
    CombineResult,
    HypothesisFamily,
    clamp_pvalue,
    closed_test,
    combine,
    fisher_critical_value,
    intersection_pvalue,
    spending_boundaries,
    stage_pvalue,
)
from .engine import (
    CHUNK_SIZE,
    SWEEP_AXES,
    InfeasibleScenarioError,
    OperatingCharacteristics,
    Scenario,
    SubgroupCounts,
    SweepPoint,
    TestSpec,
    expected_sample_size,
    run_scenario,
    sweep,
)
from .selection import (
    FULL_INDEX,
    SUBGROUP_INDEX,
    SelectionOutcome,
    SelectionRule,
    select_population,
    select_treatments,
)
from .simmodel import (
    COHORTS,
    MAX_COMPARISONS,
    OUTCOME_TYPES,
    SUBGROUP,
    TREATMENT,
    EffectSpec,
    SampleSizePlan,
    ScoreModel,
    StageStatistics,
    build_score_model,
    effect_to_expectation,
    larger_is_better,
    resolve_prevalence,
    sample_replication,
)
from .statdist import (
    NotPositiveSemidefiniteError,
    bvn_cdf,
    cholesky_psd,
    equicorr_max_cdf,
    equicorrelated_matrix,
    replication_stream,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # statdist
    "bvn_cdf",
    "equicorr_max_cdf",
    "equicorrelated_matrix",
    "cholesky_psd",
    "NotPositiveSemidefiniteError",
    "replication_stream",
    # simmodel
    "TREATMENT",
    "SUBGROUP",
    "OUTCOME_TYPES",
    "COHORTS",
    "MAX_COMPARISONS",
    "EffectSpec",
    "SampleSizePlan",
    "ScoreModel",
    "StageStatistics",
    "build_score_model",
    "effect_to_expectation",
    "larger_is_better",
    "sample_replication",
    "resolve_prevalence",
    # selection
    "SelectionRule",
    "SelectionOutcome",
    "select_treatments",
    "select_population",
    "SUBGROUP_INDEX",
    "FULL_INDEX",
    # closed testing
    "HypothesisFamily",
    "CombinationConfig",
    "CombineResult",
    "combine",
    "closed_test",
    "intersection_pvalue",
    "stage_pvalue",
    "clamp_pvalue",
    "spending_boundaries",
    "fisher_critical_value",
    "INTERSECTION_METHODS",
    "P_CLAMP",
    # engine
    "TestSpec",
    "Scenario",
    "OperatingCharacteristics",
    "SubgroupCounts",
    "run_scenario",
    "expected_sample_size",
    "sweep",
    "SweepPoint",
    "SWEEP_AXES",
    "CHUNK_SIZE",
    "InfeasibleScenarioError",
]
