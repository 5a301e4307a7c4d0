"""Tests for interim selection rules."""

import numpy as np
import pytest

from seamsim._reference import FULL_INDEX, SUBGROUP_INDEX, SelectionOutcome, select_population, select_treatments
from seamsim.selection import SelectionRule


def rule_best(m):
    return SelectionRule(f"best-{m}")


# ---------------------------------------------------------------------------
# rule and outcome construction


def test_rule_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown selection rule"):
        SelectionRule("best-of-breed")


def test_epsilon_rule_parameter_handling():
    assert SelectionRule("epsilon", epsilon=0.5).epsilon == 0.5
    with pytest.raises(ValueError):
        SelectionRule("epsilon")
    with pytest.raises(ValueError):
        SelectionRule("epsilon", epsilon=-0.1)
    with pytest.raises(ValueError, match="NaN"):
        SelectionRule("epsilon", epsilon=float("nan"))
    with pytest.raises(ValueError, match="only applies"):
        SelectionRule("all", epsilon=0.5)


def test_threshold_rule_parameter_handling():
    assert SelectionRule("threshold", threshold=-1.0).threshold == -1.0
    with pytest.raises(ValueError):
        SelectionRule("threshold")
    with pytest.raises(ValueError, match="NaN"):
        SelectionRule("threshold", threshold=float("nan"))
    with pytest.raises(ValueError, match="only applies"):
        SelectionRule("best-1", threshold=2.0)


def test_subgroup_rule_limit_handling():
    rule = SelectionRule("threshold-pair", limits=(0, 1))
    assert rule.limits == (0.0, 1.0)
    assert rule.is_subgroup_rule
    with pytest.raises(ValueError):
        SelectionRule("threshold-pair")
    with pytest.raises(ValueError):
        SelectionRule("futility-pair", limits=(0.0,))
    with pytest.raises(ValueError, match="l1 <= l2"):
        SelectionRule("threshold-pair", limits=(1.0, 0.0))
    for kind in ("threshold-pair", "futility-pair"):
        with pytest.raises(ValueError, match="NaN"):
            SelectionRule(kind, limits=(0.0, float("nan")))
    # the futility pair has no ordering constraint
    assert SelectionRule("futility-pair", limits=(1.0, -1.0)).limits == (1.0, -1.0)
    with pytest.raises(ValueError, match="limits only apply"):
        SelectionRule("all", limits=(0.0, 0.0))


def test_best_count_property():
    assert rule_best(2).best_count == 2
    assert rule_best(3).best_count == 3
    assert SelectionRule("all").best_count is None
    assert not SelectionRule("all").is_subgroup_rule


def test_outcome_requires_arms_xor_futility():
    oc = SelectionOutcome(frozenset({np.int64(2), 3}))
    assert oc.continued == {2, 3}
    assert not oc.stopped_for_futility
    # futility is the empty selection: there is no other way to state it
    assert SelectionOutcome(frozenset()).stopped_for_futility
    with pytest.raises(TypeError):
        SelectionOutcome(frozenset({1}), stopped_for_futility=True)


def test_rule_kind_mismatch_is_rejected():
    with pytest.raises(ValueError, match="subgroup rule"):
        select_treatments(np.array([1.0]), SelectionRule("threshold-pair", limits=(0, 0)))
    with pytest.raises(ValueError, match="treatment rule"):
        select_population(0.0, 0.0, SelectionRule("all"))
    with pytest.raises(ValueError, match="at least one arm"):
        select_treatments(np.array([]), SelectionRule("all"))


# ---------------------------------------------------------------------------
# treatment rules


def test_select_all_keeps_every_arm():
    outcome = select_treatments(np.array([1.0, -2.0, 0.5]), SelectionRule("all"))
    assert outcome.continued == {1, 2, 3}
    assert not outcome.stopped_for_futility


def test_best_two_picks_the_two_largest():
    z = np.array([4.8, 5.8, 6.7, 6.4])
    assert select_treatments(z, rule_best(2)).continued == {3, 4}
    assert select_treatments(z, rule_best(1)).continued == {3}
    assert select_treatments(z, rule_best(3)).continued == {2, 3, 4}


def test_best_m_is_capped_at_the_number_of_arms():
    z = np.array([0.3, -0.1])
    assert select_treatments(z, rule_best(3)).continued == {1, 2}
    assert len(select_treatments(np.array([1.0]), rule_best(2)).continued) == 1


def test_best_m_ties_break_to_the_lowest_index():
    z = np.array([2.0, 3.0, 3.0, 1.0])
    assert select_treatments(z, rule_best(1)).continued == {2}
    assert select_treatments(z, rule_best(2)).continued == {2, 3}
    assert select_treatments(np.zeros(4), rule_best(2)).continued == {1, 2}


def test_epsilon_keeps_arms_within_margin_of_the_best():
    z = np.array([2.0, 1.5, 1.0])
    assert select_treatments(z, SelectionRule("epsilon", epsilon=0.6)).continued == {1, 2}
    # the margin is inclusive
    assert select_treatments(z, SelectionRule("epsilon", epsilon=0.5)).continued == {1, 2}
    big = SelectionRule("epsilon", epsilon=np.inf)
    assert select_treatments(z, big).continued == {1, 2, 3}


def test_epsilon_zero_reduces_to_the_argmax():
    rule = SelectionRule("epsilon", epsilon=0.0)
    assert select_treatments(np.array([1.0, 4.0, 2.0]), rule).continued == {2}
    # exact ties fall to the lowest index rather than the whole tied set
    assert select_treatments(np.array([3.0, 3.0, 1.0]), rule).continued == {1}


def test_threshold_is_strict_and_can_stop_for_futility():
    rule = SelectionRule("threshold", threshold=3.0)
    assert select_treatments(np.array([3.0, 3.7, 4.2, 4.1]), rule).continued == {2, 3, 4}
    stopped = select_treatments(np.array([2.9, 2.5]), rule)
    assert stopped.stopped_for_futility
    assert stopped.continued == frozenset()


def test_random_one_needs_a_stream_and_is_reproducible():
    rule = SelectionRule("random-1")
    z = np.array([5.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="stream"):
        select_treatments(z, rule)
    first = select_treatments(z, rule, np.random.default_rng(77))
    again = select_treatments(z, rule, np.random.default_rng(77))
    assert first.continued == again.continued
    assert len(first.continued) == 1


def test_random_one_covers_all_arms_roughly_uniformly():
    rule = SelectionRule("random-1")
    z = np.array([10.0, 0.0, -10.0, 5.0])  # statistics must not matter
    stream = np.random.default_rng(2024)
    counts = np.zeros(4)
    for _ in range(2000):
        (arm,) = select_treatments(z, rule, stream).continued
        counts[arm - 1] += 1
    assert counts.min() > 0
    np.testing.assert_allclose(counts / 2000, 0.25, atol=0.05)


def test_permuting_arms_permutes_the_selection():
    stream = np.random.default_rng(90)
    rules = [rule_best(1), rule_best(2), SelectionRule("epsilon", epsilon=0.7),
             SelectionRule("threshold", threshold=0.0)]
    for _ in range(50):
        z = stream.standard_normal(5)
        perm = stream.permutation(5)
        for rule in rules:
            base = select_treatments(z, rule)
            moved = select_treatments(z[perm], rule)
            relabeled = {int(np.nonzero(perm == a - 1)[0][0]) + 1 for a in base.continued}
            assert moved.continued == relabeled
            assert moved.stopped_for_futility == base.stopped_for_futility


def test_raising_a_statistic_never_drops_the_arm():
    stream = np.random.default_rng(31)
    rules = [rule_best(1), rule_best(2), rule_best(3),
             SelectionRule("epsilon", epsilon=0.0),
             SelectionRule("epsilon", epsilon=1.2),
             SelectionRule("threshold", threshold=0.5),
             SelectionRule("all")]
    for _ in range(60):
        z = stream.standard_normal(4)
        arm = int(stream.integers(4))
        bumped = z.copy()
        bumped[arm] += stream.uniform(0.1, 2.0)
        for rule in rules:
            before = select_treatments(z, rule)
            after = select_treatments(bumped, rule)
            if arm + 1 in before.continued:
                assert arm + 1 in after.continued, rule.kind


# ---------------------------------------------------------------------------
# subgroup rules


def test_threshold_pair_truth_table():
    rule = SelectionRule("threshold-pair", limits=(0.0, 0.0))
    # difference below or at the lower limit keeps the subgroup only
    assert select_population(-1.0, -0.5, rule).continued == {SUBGROUP_INDEX}
    assert select_population(-0.5, -0.5, rule).continued == {SUBGROUP_INDEX}
    # strictly above the upper limit keeps the full population only
    assert select_population(-0.2, -0.5, rule).continued == {FULL_INDEX}
    wide = SelectionRule("threshold-pair", limits=(-1.0, 1.0))
    assert select_population(0.5, 0.0, wide).continued == {SUBGROUP_INDEX, FULL_INDEX}
    # the upper boundary itself still keeps both
    assert select_population(0.0, -1.0, wide).continued == {FULL_INDEX, SUBGROUP_INDEX}
    assert select_population(0.1, -1.0, wide).continued == {FULL_INDEX}


def test_threshold_pair_with_wide_limits_always_keeps_both():
    rule = SelectionRule("threshold-pair", limits=(-10.0, 10.0))
    stream = np.random.default_rng(8)
    for _ in range(40):
        z_sub, z_full = stream.standard_normal(2)
        outcome = select_population(z_sub, z_full, rule)
        assert outcome.continued == {SUBGROUP_INDEX, FULL_INDEX}


def test_futility_pair_truth_table():
    rule = SelectionRule("futility-pair", limits=(0.0, 0.0))
    assert select_population(-1.2, -0.5, rule).continued == {SUBGROUP_INDEX, FULL_INDEX}
    assert select_population(-1.2, 0.5, rule).continued == {SUBGROUP_INDEX}
    assert select_population(0.3, -0.5, rule).continued == {FULL_INDEX}
    stopped = select_population(0.3, 0.5, rule)
    assert stopped.stopped_for_futility
    # limits are strict: sitting exactly on a limit does not qualify
    assert select_population(0.0, -0.1, rule).continued == {FULL_INDEX}
    assert select_population(-0.1, 0.0, rule).continued == {SUBGROUP_INDEX}
    assert select_population(0.0, 0.0, rule).stopped_for_futility


def test_futility_pair_never_reports_empty_continuation():
    rule = SelectionRule("futility-pair", limits=(-0.3, 0.4))
    stream = np.random.default_rng(55)
    for _ in range(200):
        z_sub, z_full = stream.standard_normal(2)
        outcome = select_population(z_sub, z_full, rule)
        assert bool(outcome.continued) != outcome.stopped_for_futility
        if outcome.continued:
            assert outcome.continued <= {SUBGROUP_INDEX, FULL_INDEX}
