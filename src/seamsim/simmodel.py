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

Each outcome type has one expected-statistic law shared by both designs; a
design sets only the effect scale that feeds it. Normal effects are mean
advantages over control; time-to-event effects (log-rank law) are minus log
hazard rates for treatment designs and hazard ratios for subgroup designs;
binary effects (log-odds law) are event rates for treatment designs and odds
ratios for subgroup designs. Statistics keep their natural sign (hazard/odds-ratio
statistics are negative for beneficial effects); the engine orients them once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .statdist import _binomial_counts, _normals

__all__ = [
    "TREATMENT",
    "SUBGROUP",
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
_OUTCOME_TYPES = ("N", "T", "B")
_COHORTS = ("stage1", "stage2-full", "stage2-subgroup-only", "stage2-enriched")

MAX_COMPARISONS = 8

# Comparisons sharing the control correlate at 1/(1 + lambda) for allocation
# ratio lambda; with equal allocation (lambda = 1) that is exactly 1/2.
ARM_CORRELATION = 0.5

_MAX_EXP = math.log(sys.float_info.max)  # math.exp overflows above it


class _FieldError(ValueError):
    """A check that fails on the field named by ``field``."""

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field = field_name


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
            raise _FieldError("effects", "early and final effect vectors must have equal length")
        if self.design == TREATMENT:
            if len(self.early) < 2:
                raise _FieldError("effects", "treatment designs need a control and at least one arm")
            if len(self.early) - 1 > MAX_COMPARISONS:
                raise _FieldError("effects", f"at most {MAX_COMPARISONS} experimental arms are supported")
        else:
            if len(self.early) != 2:
                raise _FieldError("effects", "subgroup designs take exactly (subgroup, full) effects")
        for name, code in (("early", self.early_outcome), ("final", self.final_outcome)):
            if code not in _OUTCOME_TYPES:
                raise _FieldError(f"{name}_outcome",
                                  f"{name} outcome type must be one of {', '.join(_OUTCOME_TYPES)}")
        if not -1.0 <= self.correlation <= 1.0:
            raise _FieldError("correlation", "outcome correlation must lie in [-1, 1]")
        for code, effects in ((self.early_outcome, self.early), (self.final_outcome, self.final)):
            _validate_effects(self.design, code, effects)

    @property
    def comparisons(self) -> int:
        """Number of comparisons against control (K for treatment, 2 populations)."""
        return len(self.early) - 1 if self.design == TREATMENT else 2


def _validate_effects(design: str, code: str, effects: tuple) -> None:
    if not all(math.isfinite(v) for v in effects):
        raise _FieldError("effects", "effects must be finite numbers")
    if design == TREATMENT and code == "B":
        if any(not 0.0 < v < 1.0 for v in effects):
            raise _FieldError("effects", "binary effects are event rates and must lie strictly in (0, 1)")
    if design == TREATMENT and code == "T" and min(effects) < -_MAX_EXP:
        raise _FieldError("effects", f"minus log hazard rates below {-_MAX_EXP:.6g} overflow the hazard")
    if design == SUBGROUP and code in ("T", "B"):
        if any(v <= 0.0 for v in effects):
            raise _FieldError("effects", "hazard/odds ratios must be positive")
        if code == "B" and max(effects) >= 2.0**53:  # the event rate or/(1 + or) would round to 1
            raise _FieldError("effects", "odds ratios must lie below 2**53")


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
                raise _FieldError(name, f"{name} must be a positive integer")
            object.__setattr__(self, name, int(v))

    @property
    def subgroup_only_per_arm(self) -> int:
        """Stage-2 patients per arm when only the subgroup continues."""
        return self.stage2_per_arm if self.enrich_per_arm is None else self.enrich_per_arm


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


def _expected_statistic(design: str, code: str, effect: float, control: float, n: float) -> float:
    """One comparison's expected statistic; subgroup designs ignore ``control``."""
    if code == "N":
        return math.sqrt(n / 2.0) * (effect - control)
    treatment = design == TREATMENT
    if code == "T":
        # Log-rank law: exponential event times observed over one unit of
        # follow-up, expected events pooled over both arms. Treatment effects
        # are minus log hazard rates, subgroup effects hazard ratios.
        hazard, hazard0 = (math.exp(-effect), math.exp(-control)) if treatment else (effect, 1.0)
        events = n * (1.0 - math.exp(-hazard0)) + n * (1.0 - math.exp(-hazard))
        log_ratio = effect - control if treatment else math.log(effect)
        return math.sqrt(events / 4.0) * log_ratio
    # Log-odds law. Treatment effects are event rates, their logit difference
    # oriented so fewer events score higher; subgroup effects are odds ratios,
    # whose log is taken once the check has rejected non-positive ones.
    if treatment:
        log_ratio = math.log((1.0 - effect) / effect) - math.log((1.0 - control) / control)
    rate, rate0 = (effect, control) if treatment else (effect / (1.0 + effect), 0.5)
    events, events0 = n * rate, n * rate0
    if not (0.0 < events < n and 0.0 < events0 < n):
        raise ValueError("binary outcome is degenerate: expected events outside (0, n)")
    var = 1.0 / events + 1.0 / (n - events) + 1.0 / events0 + 1.0 / (n - events0)
    return (log_ratio if treatment else math.log(effect)) / math.sqrt(var)


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
    if cohort not in _COHORTS:
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
    cohort recruited in stage 2. Each block holds the K comparisons in arm
    order, or (subgroup, full population) for subgroup designs. Subgroup
    models carry the "both populations continue" stage-2 means, and apart
    from them the stage-2 subgroup mean when only the subgroup continues.

    With U the equicorrelated comparison block and S the block pattern
    [[1, rho, 0], [rho, 1, 0], [0, 0, 1]], the covariance is kron(S, U) and
    its factor kron(chol(S), chol(U)), where chol(S) is the closed form
    [[1, 0, 0], [rho, sqrt(1 - rho^2), 0], [0, 0, 1]], exact at rho = +-1.
    chol(U) has a closed form too (Dunnett 1955): with U's off-diagonal r and
    s_j = c_0^2 + ... + c_{j-1}^2, column j holds d_j = sqrt(1 - s_j) on the
    diagonal and c_j = (r - s_j) / d_j below it. The engine draws by that form.

    Attributes:
        mean: expected statistics, natural sign conventions.
        cholesky: lower-triangular factor of the correlation-scale covariance,
            by LAPACK; the scalar reference the engine's statistics are held to.
        subgroup_only: the stage-2 subgroup mean when only the subgroup continues,
            at the enriched size if the plan has one; None for treatment designs.
    """

    mean: np.ndarray
    cholesky: np.ndarray
    subgroup_only: float | None


def build_score_model(
    spec: EffectSpec,
    plan: SampleSizePlan,
    prevalence: float | None = None,
) -> ScoreModel:
    """Assemble the joint normal model for one replication's statistics.

    U's off-diagonal is 1/2 for comparisons sharing a control (equal
    allocation) and sqrt(tau) for the subgroup and the full population, so U
    is positive definite.

    Args:
        spec: effect assumptions.
        plan: sample size plan.
        prevalence: subgroup prevalence tau (subgroup designs only).
    """
    blocks = (("early", "stage1"), ("final", "stage1"), ("final", "stage2-full"))
    mean = np.concatenate([effect_to_expectation(spec, plan, *b, prevalence) for b in blocks])
    subgroup_only = None
    if spec.design == SUBGROUP:
        subgroup_only = _expected_statistic(SUBGROUP, spec.final_outcome, spec.final[0], 0.0,
                                            plan.subgroup_only_per_arm)
    r = ARM_CORRELATION if spec.design == TREATMENT else math.sqrt(prevalence)
    unit = np.full((spec.comparisons, spec.comparisons), r)
    np.fill_diagonal(unit, 1.0)
    rho = spec.correlation
    stages_chol = np.array([[1.0, 0.0, 0.0], [rho, math.sqrt(1.0 - rho * rho), 0.0], [0.0, 0.0, 1.0]])
    return ScoreModel(mean, np.kron(stages_chol, np.linalg.cholesky(unit)), subgroup_only)


@dataclass(frozen=True)
class StageStatistics:
    """Sampled standardized statistics for a single replication."""

    values: np.ndarray


def sample_replication(model: ScoreModel, stream: np.random.Generator) -> StageStatistics:
    """Draw one replication's statistic vector from its stream.

    Consumes exactly ``model.mean.size`` raw words, one standard normal each,
    so results are reproducible from the stream state alone.
    """
    eps = _normals(stream.bit_generator.random_raw(model.mean.size))
    return StageStatistics(values=model.mean + model.cholesky @ eps)


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
        raise _FieldError(
            "prevalence",
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
