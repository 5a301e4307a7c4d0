"""Differential test: the vectorised engine against the per-replication replay.

Hypothesis draws accepted scenarios -- any number of arms, every selection
rule, the exactly evaluated intersection tests, both combinations, stage-1
spending, follow-up, power subsets, fixed or redrawn subgroup prevalence,
replication counts across a chunk's edge cases and arbitrary seeds -- and
every tally ``run_scenario`` reports must equal the replication-by-replication
replay of ``oracle.replay`` exactly. Subgroup examples are drawn per interim
branch, each with at least eight replications. Both designs draw a saturated
stratum, whose final effects put every 1 - Phi(z) at exactly 0, so the stage
p-values tie and reach the p-value clamp.
"""

from dataclasses import asdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import replay
from seamsim.closedtest import CombinationConfig
from seamsim.engine import Scenario, TestSpec, run_scenario
from seamsim.selection import SelectionRule
from seamsim.simmodel import EffectSpec, SampleSizePlan

# about half the examples are saturated; 150 leave some 80 to 90 unsaturated ones
SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

effect = st.floats(-0.4, 0.8, allow_nan=False)
sizes = st.integers(10, 200)
replications = st.integers(1, 200)
seeds = st.integers(0, 2**64 - 1)
exact_tests = st.sampled_from(("bonferroni", "simes"))
exact_subgroup_tests = st.sampled_from(("bonferroni", "simes", "spiessens-debois"))
# Saturated final effects: expected statistics of 20 or more, far past the 8.3 at which
# 1 - Phi(z) underflows to 0, even in a subgroup of half a patient per arm.
# Mean advantages or minus log hazards (treatment), hazard ratios (subgroup).
saturated = st.floats(40.0, 80.0)
saturated_hazard_ratios = st.floats(1e-60, 1e-40)

# Subgroup examples are stratified by interim branch. Limits of +-50, far
# beyond any interim statistic, send every replication down one branch
# (subgroup only, full population only, both, or futility); "mixed" draws
# limits among the statistics, so the branches mix within a run.
BRANCHES = ("sub", "full", "both", "futility", "mixed")
FORCING_LIMITS = {
    "threshold-pair": {"sub": (50.0, 50.0), "full": (-50.0, -50.0), "both": (-50.0, 50.0), "mixed": None},
    "futility-pair": {
        "sub": (50.0, -50.0), "full": (-50.0, 50.0), "both": (50.0, 50.0),
        "futility": (-50.0, -50.0), "mixed": None,
    },
}


@st.composite
def combinations(draw, n1, n2):
    method = draw(st.sampled_from(("inverse-normal", "fisher")))
    alpha1 = draw(st.sampled_from((0.0, 0.005))) if method == "inverse-normal" else 0.0
    return CombinationConfig.from_sample_sizes(n1, n2, method=method, alpha1=alpha1)


treatment_rules = st.one_of(
    st.sampled_from([SelectionRule(kind) for kind in ("all", "best-1", "best-2", "best-3", "random-1")]),
    st.builds(
        lambda eps: SelectionRule("epsilon", epsilon=eps),
        st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_nan=False)),
    ),
    st.builds(
        lambda cut: SelectionRule("threshold", threshold=cut),
        st.floats(-1.0, 4.0, allow_nan=False),
    ),
)


@st.composite
def treatment_scenarios(draw):
    k = draw(st.integers(1, 8))
    n1, n2 = draw(sizes), draw(sizes)
    ptest = draw(st.one_of(st.none(), st.sets(st.integers(1, k), min_size=1)))
    saturate = k > 1 and draw(st.booleans())  # one arm has no tie
    return Scenario(
        effects=EffectSpec(
            design="treatment",
            early=draw(st.tuples(*[effect] * (k + 1))),
            final=draw(st.tuples(effect, *[saturated if saturate else effect] * k)),
            early_outcome=draw(st.sampled_from(("N", "T"))),
            final_outcome=draw(st.sampled_from(("N", "T"))),
            correlation=draw(st.floats(-1.0, 1.0, allow_nan=False)),
        ),
        plan=SampleSizePlan(n1, n2),
        rule=draw(treatment_rules),
        test=TestSpec(draw(exact_tests), draw(combinations(n1, n2))),
        replications=draw(replications),
        master_seed=draw(seeds),
        ptest=None if ptest is None else tuple(ptest),
        follow_up=draw(st.booleans()),
    )


@st.composite
def subgroup_scenarios(draw):
    early_outcome = draw(st.sampled_from(("N", "T")))
    final_outcome = draw(st.sampled_from(("N", "T")))

    def effects(code, saturate=False):
        # hazard ratios for time-to-event outcomes, mean advantages otherwise
        if saturate:
            values = saturated_hazard_ratios if code == "T" else saturated
        else:
            values = st.floats(0.4, 1.5) if code == "T" else effect
        return draw(st.tuples(values, values))

    branch = draw(st.sampled_from(BRANCHES))
    saturate = branch != "futility" and draw(st.booleans())  # futility tests nothing
    kind = draw(st.sampled_from([kind for kind, forced in FORCING_LIMITS.items() if branch in forced]))
    limits = FORCING_LIMITS[kind][branch]
    if limits is None:
        limits = sorted(draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
    n1, n2 = draw(sizes), draw(sizes)
    return Scenario(
        effects=EffectSpec(
            design="subgroup",
            early=effects(early_outcome),
            final=effects(final_outcome, saturate),
            early_outcome=early_outcome,
            final_outcome=final_outcome,
            correlation=draw(st.floats(-1.0, 1.0, allow_nan=False)),
        ),
        plan=SampleSizePlan(n1, n2, enrich_per_arm=draw(st.one_of(st.none(), sizes))),
        rule=SelectionRule(kind, limits=limits),
        test=TestSpec(draw(exact_subgroup_tests), draw(combinations(n1, n2))),
        replications=draw(st.integers(8, 200)),
        master_seed=draw(seeds),
        prevalence=draw(st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)),
        prevalence_fixed=draw(st.booleans()),
    )


@SETTINGS
@given(treatment_scenarios())
def test_engine_tallies_equal_the_treatment_replay(scn):
    want, got = replay(scn), asdict(run_scenario(scn))
    assert {key: got[key] for key in want} == want
    assert scn.ptest is not None or got["ptest_rejected_count"] is None


@SETTINGS
@given(subgroup_scenarios())
def test_engine_tallies_equal_the_subgroup_replay(scn):
    want, got = replay(scn), asdict(run_scenario(scn))
    assert {key: got[key] for key in want} == want
