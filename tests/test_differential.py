"""Differential test: the vectorised engine against the per-replication replay.

Hypothesis draws accepted scenarios -- any number of arms, every selection
rule, the exactly evaluated intersection tests, both combinations, stage-1
spending, follow-up, power subsets, fixed or redrawn subgroup prevalence,
replication counts across a chunk's edge cases and arbitrary seeds -- and
every tally ``run_scenario`` reports must equal the replication-by-replication
replay of ``test_engine`` exactly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seamsim.closedtest import CombinationConfig
from seamsim.engine import Scenario, TestSpec, run_scenario
from seamsim.selection import SelectionRule
from seamsim.simmodel import EffectSpec, SampleSizePlan
from test_engine import _manual_subgroup, _manual_treatment

SETTINGS = settings(
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
    return Scenario(
        effects=EffectSpec(
            design="treatment",
            early=draw(st.tuples(*[effect] * (k + 1))),
            final=draw(st.tuples(*[effect] * (k + 1))),
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

    def effects(code):
        # hazard ratios for time-to-event outcomes, mean advantages otherwise
        values = st.floats(0.4, 1.5) if code == "T" else effect
        return draw(st.tuples(values, values))

    limits = sorted(draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
    kind = draw(st.sampled_from(("threshold-pair", "futility-pair")))
    n1, n2 = draw(sizes), draw(sizes)
    return Scenario(
        effects=EffectSpec(
            design="subgroup",
            early=effects(early_outcome),
            final=effects(final_outcome),
            early_outcome=early_outcome,
            final_outcome=final_outcome,
            correlation=draw(st.floats(-1.0, 1.0, allow_nan=False)),
        ),
        plan=SampleSizePlan(n1, n2, enrich_per_arm=draw(st.one_of(st.none(), sizes))),
        rule=SelectionRule(kind, limits=limits),
        test=TestSpec(draw(exact_tests), draw(combinations(n1, n2))),
        replications=draw(replications),
        master_seed=draw(seeds),
        prevalence=draw(st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)),
        prevalence_fixed=draw(st.booleans()),
    )


@SETTINGS
@given(treatment_scenarios())
def test_engine_tallies_equal_the_treatment_replay(scn):
    oc = run_scenario(scn)
    futility, sizes_, arms, hyps, any_count, ptest_count = _manual_treatment(scn)
    assert oc.futility_count == futility
    assert oc.selected_size_counts == sizes_
    assert oc.arm_selected_counts == arms
    assert oc.hypothesis_rejected_counts == hyps
    assert oc.any_rejected_count == any_count
    assert oc.ptest_rejected_count == (None if scn.ptest is None else ptest_count)


@SETTINGS
@given(subgroup_scenarios())
def test_engine_tallies_equal_the_subgroup_replay(scn):
    oc = run_scenario(scn)
    futility, branches, union, redraws = _manual_subgroup(scn)
    assert (oc.futility_count, oc.prevalence_redraws) == (futility, redraws)
    assert oc.union_rejected_count == union
    for name, row in branches.items():
        got = oc.subgroup_counts[name]
        assert (got.n, got.hs, got.hf, got.both, got.intersection) == tuple(row), name
