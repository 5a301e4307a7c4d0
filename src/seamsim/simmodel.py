"""Score-statistic simulation model for two-stage selection designs.

Rather than simulating individual patients, each trial replication draws one
multivariate normal vector of standardized test statistics: the early-outcome
statistics used for the interim selection and the final-outcome statistics of
the stage-1 and stage-2 cohorts used for the closed testing procedure. Means
come from the outcome-specific effect translations below; the correlation
structure combines

* a shared-control (or nested-population) correlation between comparisons,
* the early/final outcome correlation ``rho`` for statistics computed on the
  same patients, and
* independence between the stage-1 and stage-2 recruitment cohorts, which is
  what makes the stage-wise p-values of the combination test independent.

Outcome conventions follow the usual reporting scales: normal effects are
mean advantages over control, time-to-event effects are minus log hazard
rates for treatment designs and hazard ratios for subgroup designs, binary
effects are event rates for treatment designs and odds ratios for subgroup
designs. Statistics keep their natural sign (hazard/odds-ratio statistics
are negative for beneficial effects); the engine re-orients internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statdist import cholesky_psd, equicorrelated_matrix

__all__ = [
    "TREATMENT",
    "SUBGROUP",
    "OUTCOME_TYPES",
    "COHORTS",
    "EffectSpec",
    "SampleSizePlan",
    "ScoreModel",
    "StageStatistics",
    "effect_to_expectation",
    "build_score_model",
    "sample_replication",
    "resolve_prevalence",
    "larger_is_better",
]

TREATMENT = "treatment"
SUBGROUP = "subgroup"
OUTCOME_TYPES = ("N", "T", "B")
COHORTS = ("stage1", "stage2-full", "stage2-subgroup-only", "stage2-enriched")

MAX_COMPARISONS = 8

# Comparisons sharing the control correlate at 1/(1 + lambda) for allocation
# ratio lambda; with equal allocation (lambda = 1) that is exactly 1/2.
ARM_CORRELATION = 0.5


@dataclass(frozen=True)
class EffectSpec:
    """Assumed treatment effects for the early and final outcomes.

    Attributes:
        design: "treatment" (several arms against one control) or "subgroup"
            (one treatment, tested in a subgroup and the full population).
        early: effect sizes for the early outcome. Treatment designs list the
            control first followed by K experimental arms; subgroup designs
            give the (subgroup, full population) pair.
        final: effect sizes for the final outcome, same layout.
        early_outcome / final_outcome: outcome type codes "N", "T" or "B".
        correlation: correlation between early and final statistics computed
            on the same patients, in [-1, 1].
    """

    design: str
    early: tuple
    final: tuple
    early_outcome: str = "N"
    final_outcome: str = "N"
    correlation: float = 0.0

    def __post_init__(self):
        if self.design not in (TREATMENT, SUBGROUP):
            raise ValueError(f"unknown design kind: {self.design!r}")
        object.__setattr__(self, "early", tuple(float(v) for v in self.early))
        object.__setattr__(self, "final", tuple(float(v) for v in self.final))
        if len(self.early) != len(self.final):
            raise ValueError("early and final effect vectors must have equal length")
        if self.design == TREATMENT:
            if len(self.early) < 2:
                raise ValueError("treatment designs need a control and at least one arm")
            if len(self.early) - 1 > MAX_COMPARISONS:
                raise ValueError(f"at most {MAX_COMPARISONS} experimental arms are supported")
        else:
            if len(self.early) != 2:
                raise ValueError("subgroup designs take exactly (subgroup, full) effects")
        for name, code in (("early", self.early_outcome), ("final", self.final_outcome)):
            if code not in OUTCOME_TYPES:
                raise ValueError(f"{name} outcome type must be one of {OUTCOME_TYPES}")
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError("outcome correlation must lie in [-1, 1]")
        for code, effects in ((self.early_outcome, self.early), (self.final_outcome, self.final)):
            _validate_effects(self.design, code, effects)

    @property
    def comparisons(self) -> int:
        """Number of comparisons against control (K for treatment, 2 populations)."""
        return len(self.early) - 1 if self.design == TREATMENT else 2


def _validate_effects(design: str, code: str, effects: tuple) -> None:
    if not all(math.isfinite(v) for v in effects):
        raise ValueError("effects must be finite numbers")
    if design == TREATMENT and code == "B":
        if any(not 0.0 < v < 1.0 for v in effects):
            raise ValueError("binary effects are event rates and must lie strictly in (0, 1)")
    if design == SUBGROUP and code in ("T", "B"):
        if any(v <= 0.0 for v in effects):
            raise ValueError("hazard/odds ratios must be positive")


@dataclass(frozen=True)
class SampleSizePlan:
    """Per-arm sample sizes for the two recruitment stages.

    Every arm, control included, recruits the same number of patients in a
    stage (equal allocation).

    Attributes:
        stage1_per_arm: patients per arm recruited before the interim.
        stage2_per_arm: patients per arm recruited after it (full population).
        enrich_per_arm: optional enriched stage-2 size used when a subgroup
            design continues in the subgroup only; defaults to stage2_per_arm.
    """

    stage1_per_arm: int
    stage2_per_arm: int
    enrich_per_arm: int | None = None

    def __post_init__(self):
        for name in ("stage1_per_arm", "stage2_per_arm", "enrich_per_arm"):
            v = getattr(self, name)
            if v is None and name == "enrich_per_arm":
                continue
            if int(v) != v or v <= 0:
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(v))


def larger_is_better(design: str, outcome: str) -> bool:
    """Whether larger values of the standardized statistic favour treatment.

    Treatment designs parameterize survival and binary outcomes through minus
    log hazard rates / minus log odds, so all their statistics point upward.
    Subgroup designs take hazard or odds ratios, whose log-scale statistics
    are negative for beneficial effects.
    """
    return design == TREATMENT or outcome == "N"


# ---------------------------------------------------------------------------
# effect translations


def _z_normal(theta: float, theta0: float, n: float) -> float:
    return math.sqrt(n / 2.0) * (theta - theta0)


def _z_survival_minus_log_hazard(theta: float, theta0: float, n: float) -> float:
    # Exponential event times observed over one unit of follow-up; hazard in
    # arm k is exp(-theta_k). Expected events drive the log-rank information.
    events = n * (1.0 - math.exp(-math.exp(-theta0))) + n * (1.0 - math.exp(-math.exp(-theta)))
    return math.sqrt(events / 4.0) * (theta - theta0)


def _z_binary_rates(rate: float, rate0: float, n: float) -> float:
    # Effects arrive as event rates; the test statistic is the log odds ratio
    # over its standard error, oriented so fewer events score higher.
    theta = math.log((1.0 - rate) / rate)
    theta0 = math.log((1.0 - rate0) / rate0)
    events, events0 = n * rate, n * rate0
    for o in (events, events0):
        if not 0.0 < o < n:
            raise ValueError("binary outcome is degenerate: expected events outside (0, n)")
    var = 1.0 / events + 1.0 / (n - events) + 1.0 / events0 + 1.0 / (n - events0)
    return (theta - theta0) / math.sqrt(var)


def _z_hazard_ratio(hr: float, n: float) -> float:
    # Subgroup designs: effect is the hazard ratio against a unit-hazard
    # control, so expected events pool both arms.
    events = n * (1.0 - math.exp(-1.0)) + n * (1.0 - math.exp(-hr))
    return math.log(hr) * math.sqrt(events / 4.0)


def _z_odds_ratio(orr: float, n: float) -> float:
    # Analogous binary convention: odds ratio against a control at rate 1/2.
    rate = orr / (1.0 + orr)
    events, events0 = n * rate, n * 0.5
    if not 0.0 < events < n:
        raise ValueError("binary outcome is degenerate: expected events outside (0, n)")
    var = 1.0 / events + 1.0 / (n - events) + 1.0 / events0 + 1.0 / (n - events0)
    return math.log(orr) / math.sqrt(var)


def _expected_statistic(design: str, code: str, effect: float, control: float, n: float) -> float:
    if code == "N":
        return _z_normal(effect, control, n)
    if design == TREATMENT:
        if code == "T":
            return _z_survival_minus_log_hazard(effect, control, n)
        return _z_binary_rates(effect, control, n)
    if code == "T":
        return _z_hazard_ratio(effect, n)
    return _z_odds_ratio(effect, n)


def effect_to_expectation(
    spec: EffectSpec,
    plan: SampleSizePlan,
    endpoint: str,
    cohort: str,
    prevalence: float | None = None,
) -> np.ndarray:
    """Expected standardized statistics for one endpoint and one cohort.

    Args:
        spec: effect assumptions.
        plan: per-arm stage sample sizes.
        endpoint: "early" or "final".
        cohort: which recruitment cohort the statistic summarises. Treatment
            designs use "stage1" and "stage2-full". Subgroup designs add
            "stage2-subgroup-only" (continue in the subgroup at the planned
            full-population size) and "stage2-enriched" (continue in the
            subgroup at the enriched size).
        prevalence: subgroup prevalence tau, required for subgroup cohorts
            that recruit from the full population.

    Returns:
        Expected statistics on their natural reporting scale: length-K vector
        for treatment designs, (subgroup, full) pair for "stage1" and
        "stage2-full", single-entry vector for the subgroup-only cohorts.
    """
    if endpoint not in ("early", "final"):
        raise ValueError("endpoint must be 'early' or 'final'")
    if cohort not in COHORTS:
        raise ValueError(f"unknown cohort {cohort!r}")
    code = spec.early_outcome if endpoint == "early" else spec.final_outcome
    effects = spec.early if endpoint == "early" else spec.final

    if spec.design == TREATMENT:
        if cohort not in ("stage1", "stage2-full"):
            raise ValueError("treatment designs recruit 'stage1' and 'stage2-full' cohorts")
        n = plan.stage1_per_arm if cohort == "stage1" else plan.stage2_per_arm
        control = effects[0]
        return np.array(
            [_expected_statistic(TREATMENT, code, eff, control, n) for eff in effects[1:]]
        )

    sub_eff, full_eff = effects
    if cohort in ("stage1", "stage2-full"):
        if prevalence is None or not 0.0 < prevalence < 1.0:
            raise ValueError("subgroup cohorts recruiting the full population need a prevalence in (0, 1)")
        n = plan.stage1_per_arm if cohort == "stage1" else plan.stage2_per_arm
        return np.array(
            [
                _expected_statistic(SUBGROUP, code, sub_eff, 0.0, prevalence * n),
                _expected_statistic(SUBGROUP, code, full_eff, 0.0, n),
            ]
        )
    if cohort == "stage2-subgroup-only":
        n = plan.stage2_per_arm
    else:
        if plan.enrich_per_arm is None:
            raise ValueError("stage2-enriched cohort needs enrich_per_arm in the plan")
        n = plan.enrich_per_arm
    return np.array([_expected_statistic(SUBGROUP, code, sub_eff, 0.0, n)])


# ---------------------------------------------------------------------------
# joint model


@dataclass(frozen=True)
class ScoreModel:
    """Joint normal law of the statistics one replication draws.

    The vector is laid out endpoint-major: the early-outcome stage-1 block,
    the final-outcome stage-1 block, then the final-outcome block for the
    cohort recruited in stage 2 (independent of the first two). Each block
    holds the K comparisons in arm order, or (subgroup, full population) for
    subgroup designs. Subgroup models carry the "both populations continue"
    stage-2 means; the engine re-centres the subgroup entry when only the
    subgroup continues.

    Attributes:
        design: "treatment" or "subgroup".
        mean: expected statistics, natural sign conventions.
        covariance: correlation-scale covariance matrix.
        cholesky: cached lower-triangular factor of the covariance.
        prevalence: subgroup prevalence the model was built with, if any.
    """

    design: str
    mean: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray
    prevalence: float | None = None

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]

    @property
    def comparisons(self) -> int:
        return self.dimension // 3


def build_score_model(
    spec: EffectSpec,
    plan: SampleSizePlan,
    prevalence: float | None = None,
) -> ScoreModel:
    """Assemble the joint normal model for one replication's statistics.

    The correlation structure is a Kronecker product of the endpoint/stage
    pattern with the between-comparison matrix: comparisons sharing a control
    correlate at 1/2 (equal allocation), subgroup and full-population
    statistics at sqrt(tau), early and final statistics on the same cohort at
    rho, and the stage-2 cohort is independent of everything observed in
    stage 1.

    Args:
        spec: effect assumptions.
        plan: sample size plan.
        prevalence: subgroup prevalence tau (subgroup designs only).

    Returns:
        ScoreModel with mean, covariance and cached Cholesky factor.
    """
    blocks = (("early", "stage1"), ("final", "stage1"), ("final", "stage2-full"))
    mean = np.concatenate([effect_to_expectation(spec, plan, *b, prevalence) for b in blocks])
    r = ARM_CORRELATION if spec.design == TREATMENT else math.sqrt(prevalence)
    unit = equicorrelated_matrix(spec.comparisons, r)
    rho = spec.correlation
    zero = np.zeros_like(unit)
    cov = np.block(
        [
            [unit, rho * unit, zero],
            [rho * unit, unit, zero],
            [zero, zero, unit],
        ]
    )
    return ScoreModel(
        design=spec.design,
        mean=mean,
        covariance=cov,
        cholesky=cholesky_psd(cov),
        prevalence=prevalence,
    )


@dataclass(frozen=True)
class StageStatistics:
    """Sampled standardized statistics for a single replication."""

    values: np.ndarray
    model: ScoreModel


def sample_replication(model: ScoreModel, stream: np.random.Generator) -> StageStatistics:
    """Draw one replication's statistic vector from its stream.

    Consumes exactly ``model.dimension`` standard normal variates, so results
    are reproducible from the stream state alone.
    """
    eps = stream.standard_normal(model.dimension)
    return StageStatistics(values=model.mean + model.cholesky @ eps, model=model)


# A varying-prevalence replication keeps a binomial subgroup count only when
# both populations are non-empty, which happens with probability
# q = 1 - (1 - tau)^N - tau^N, so it discards (1 - q)/q draws on average.
# Requiring q >= 0.1 caps that at nine expected redraws per replication (more
# than 200 happen with probability below 0.9^200 ~ 7e-10), while the designs
# it rejects almost never recruit both populations (tau = 1e-9 with N = 200
# keeps about 2e-7 of draws: five million redraws per replication).
_MIN_KEEP_PROBABILITY = 0.1


def _check_redraw_rate(prevalence: float, total_stage1: int) -> None:
    """Reject a varying prevalence whose redraw loop would rarely end."""
    keep = -math.expm1(total_stage1 * math.log1p(-prevalence)) - prevalence**total_stage1
    if keep < _MIN_KEEP_PROBABILITY:
        raise ValueError(
            f"a varying prevalence of {prevalence:g} over {total_stage1} stage-1 patients "
            f"leaves both populations non-empty in only {keep:.3g} of draws "
            f"(at least {_MIN_KEEP_PROBABILITY:g} needed)"
        )


def resolve_prevalence(
    prevalence: float,
    fixed: bool,
    stream: np.random.Generator,
    total_stage1: int,
) -> tuple[float, int]:
    """Stage-1 subgroup prevalence for one replication.

    With ``fixed`` the configured value is used as-is. Otherwise the realised
    prevalence is a binomial draw over the total stage-1 recruitment; draws in
    which the subgroup or its complement would be empty describe a trial the
    design cannot run, so they are discarded and redrawn. A prevalence for
    which fewer than one draw in ten is kept is rejected before drawing.

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
        count = int(stream.binomial(total_stage1, prevalence))
        if 0 < count < total_stage1:
            return count / total_stage1, redraws
        redraws += 1
