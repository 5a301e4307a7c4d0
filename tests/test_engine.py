"""Tests for the replication engine, its tallies and parameter sweeps."""

import hashlib
import itertools
import pickle
import tracemalloc
import warnings
from dataclasses import asdict, astuple, replace
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from oracle import replay
from seamsim import engine
from seamsim import statdist
from seamsim._reference import (
    closed_test,
    equicorr_max_cdf,
    intersection_pvalue,
    replication_stream,
    resolve_prevalence,
    sample_replication,
    select_population,
    select_treatments,
)
from seamsim.cli import parse_config, parse_sweep_config
from seamsim.closedtest import P_CLAMP, CombinationConfig, fisher_critical_value, spending_boundaries
from seamsim.engine import (
    _GRID,
    _GRID_STEP,
    _YMAX,
    _YMIN,
    InfeasibleScenarioError,
    OperatingCharacteristics,
    Scenario,
    SubgroupCounts,
    TestSpec,
    _draw_chunk,
    _dunnett_grids,
    _model_parts,
    _pool_size,
    _prepare,
    _quantile,
    _read_grid,
    _select_chunk,
    _stage_table,
    _statistics,
    _tail_quantile,
    _test_chunk,
    run_scenario,
    sweep,
)
from seamsim.selection import SelectionRule
from seamsim.simmodel import (
    ARM_CORRELATION,
    EffectSpec,
    SampleSizePlan,
    ScoreModel,
    _FieldError,
    build_score_model,
    larger_is_better,
)
from seamsim.statdist import _binomial_cdf, dunnett_tails

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def treatment_scenario(rule, method="bonferroni", reps=400, seed=777, **kw):
    effects = EffectSpec(
        design="treatment",
        early=(0.0, 0.3, 0.5, 0.7),
        final=(0.0, 0.10, 0.15, 0.20),
        correlation=0.4,
    )
    plan = SampleSizePlan(stage1_per_arm=60, stage2_per_arm=120)
    config = CombinationConfig.from_sample_sizes(60, 120)
    return Scenario(
        effects=effects,
        plan=plan,
        rule=rule,
        test=TestSpec(method, config),
        replications=reps,
        master_seed=seed,
        **kw,
    )


def subgroup_scenario(rule, method="simes", reps=400, seed=4242, **kw):
    effects = EffectSpec(
        design="subgroup",
        early=(0.6, 0.9),
        final=(0.6, 0.9),
        early_outcome="T",
        final_outcome="T",
        correlation=0.5,
    )
    plan = SampleSizePlan(stage1_per_arm=100, stage2_per_arm=300, enrich_per_arm=200)
    config = CombinationConfig.from_sample_sizes(100, 300)
    kw.setdefault("prevalence", 0.3)
    return Scenario(
        effects=effects,
        plan=plan,
        rule=rule,
        test=TestSpec(method, config),
        replications=reps,
        master_seed=seed,
        **kw,
    )


# ---------------------------------------------------------------------------
# scenario validation


def test_scenario_validation():
    with pytest.raises(ValueError, match="does not fit"):
        treatment_scenario(SelectionRule("threshold-pair", limits=(0, 0)))
    with pytest.raises(ValueError, match="does not fit"):
        subgroup_scenario(SelectionRule("all"))
    with pytest.raises(ValueError, match="Dunnett"):
        subgroup_scenario(SelectionRule("futility-pair", limits=(0, 0)), method="dunnett")
    with pytest.raises(ValueError, match="subgroup/full"):
        treatment_scenario(SelectionRule("all"), method="spiessens-debois")
    with pytest.raises(ValueError, match="prevalence"):
        subgroup_scenario(SelectionRule("futility-pair", limits=(0, 0)), prevalence=None)
    with pytest.raises(ValueError, match="prevalence"):
        treatment_scenario(SelectionRule("all"), prevalence=0.3)
    with pytest.raises(ValueError, match="ptest"):
        subgroup_scenario(SelectionRule("futility-pair", limits=(0, 0)), ptest=(1,))
    # options the other design ignores are rejected, not silently dropped
    with pytest.raises(ValueError, match="prevalence_fixed"):
        treatment_scenario(SelectionRule("all"), prevalence_fixed=False)
    with pytest.raises(ValueError, match="follow_up"):
        subgroup_scenario(SelectionRule("futility-pair", limits=(0, 0)), follow_up=True)
    # 200 stage-1 patients keep both populations in ~2e-7 of the draws
    with pytest.raises(ValueError, match="non-empty"):
        subgroup_scenario(
            SelectionRule("futility-pair", limits=(0, 0)), prevalence=1e-9, prevalence_fixed=False
        )
    with pytest.raises(ValueError, match="1..K"):
        treatment_scenario(SelectionRule("all"), ptest=(3, 4))
    with pytest.raises(ValueError, match="whole"):
        treatment_scenario(SelectionRule("all"), ptest=(1.5,))
    with pytest.raises(ValueError, match="replications"):
        treatment_scenario(SelectionRule("all"), reps=0)
    with pytest.raises(ValueError, match="replications"):
        treatment_scenario(SelectionRule("all"), reps=10_000_001)
    # a float or a bool is not a count or a seed, even at a whole value; numpy integers are
    not_integers = {"replications": (100.5, 100.0, True), "master_seed": (1.5, 1.0, np.float64(2.0), False)}
    for field, values in not_integers.items():
        for value in values:
            with pytest.raises(_FieldError, match=f"{field} must be an integer") as caught:
                replace(treatment_scenario(SelectionRule("all")), **{field: value})
            assert caught.value.field == field
    scn = treatment_scenario(SelectionRule("all"), reps=np.int64(100), seed=np.uint64(7))
    assert type(scn.replications) is int and type(scn.master_seed) is int
    assert run_scenario(scn) == run_scenario(treatment_scenario(SelectionRule("all"), reps=100, seed=7))
    with pytest.raises(ValueError, match="unknown intersection"):
        TestSpec("holm", CombinationConfig())


@pytest.mark.parametrize(
    "design, early, final, signs",
    [
        ("treatment", "N", "T", (1.0, 1.0, 1.0)),
        ("subgroup", "N", "N", (1.0, 1.0, 1.0)),
        ("subgroup", "T", "T", (-1.0, -1.0, -1.0)),
        ("subgroup", "T", "N", (-1.0, 1.0, 1.0)),
        ("subgroup", "N", "T", (1.0, -1.0, -1.0)),
    ],
)
def test_model_parts_orient_the_natural_model_exactly(design, early, final, signs):
    # larger favours treatment in every block; negation is exact, so the mean
    # and the sub-only shift are their natural values times their block's sign
    effects = (0.0, 0.2, 0.4) if design == "treatment" else (0.7, 0.9)
    spec = EffectSpec(design, effects, effects, early, final, correlation=0.4)
    plan = SampleSizePlan(60, 120, enrich_per_arm=None if design == "treatment" else 90)
    tau = None if design == "treatment" else 0.3
    model = build_score_model(spec, plan, tau)
    block_signs, mean, shift = _model_parts(spec, plan, tau)
    assert tuple(block_signs) == signs
    sign = np.repeat(signs, spec.comparisons)
    assert mean.tobytes() == (sign * model.mean).tobytes()
    if design == "treatment":
        assert shift == 0.0
    else:
        assert shift == signs[2] * (model.subgroup_only - model.mean[4]) != 0.0


def test_ptest_arms_are_normalised():
    scn = treatment_scenario(SelectionRule("all"), ptest=[3, 2, 3])
    assert scn.ptest == (2, 3)
    assert scn.design == "treatment"


def test_operating_characteristics_conservation_checks():
    with pytest.raises(ValueError, match="histogram"):
        OperatingCharacteristics(
            design="treatment",
            replications=10,
            futility_count=0,
            expected_total_sample_size=0.0,
            selected_size_counts=(4, 0, 0),
            arm_selected_counts=(4, 0, 0),
            hypothesis_rejected_counts=(0, 0, 0),
            any_rejected_count=0,
        )
    with pytest.raises(ValueError, match="branch counts"):
        OperatingCharacteristics(
            design="subgroup",
            replications=10,
            futility_count=1,
            expected_total_sample_size=0.0,
            subgroup_counts={"sub": SubgroupCounts(n=4), "full": SubgroupCounts(), "both": SubgroupCounts(n=4)},
            union_rejected_count=0,
        )


# ---------------------------------------------------------------------------
# exact sample-size identities


def test_select_all_never_stops_and_spends_the_full_budget():
    scn = treatment_scenario(SelectionRule("all"), reps=2000)
    oc = run_scenario(scn)
    k = scn.effects.comparisons
    assert oc.futility_count == 0
    assert oc.selected_size_counts == (0, 0, 2000)
    assert oc.arm_selected_counts == (2000,) * k
    # every replication recruits all four stage-1 and all four stage-2 cohorts
    assert oc.expected_total_sample_size == (k + 1) * 60 + (k + 1) * 120


def test_certain_futility_still_budgets_the_control_stage2_cohort():
    scn = treatment_scenario(SelectionRule("threshold", threshold=50.0), reps=1000)
    oc = run_scenario(scn)
    assert oc.futility_count == 1000
    assert oc.any_rejected_count == 0
    assert oc.selected_size_counts == (0, 0, 0)
    # the control group's stage-2 allocation is committed in every replication
    assert oc.expected_total_sample_size == 4 * 60 + 120


def test_subgroup_futility_recruits_stage_one_only():
    scn = subgroup_scenario(SelectionRule("futility-pair", limits=(-50.0, -50.0)), reps=500)
    oc = run_scenario(scn)
    assert oc.futility_count == 500
    assert oc.union_rejected_count == 0
    assert oc.expected_total_sample_size == 2 * 100
    assert all(c.n == 0 for c in oc.subgroup_counts.values())


# ---------------------------------------------------------------------------
# determinism


def test_thread_count_does_not_change_the_result():
    scn = treatment_scenario(SelectionRule("best-2"), method="dunnett", reps=10_000)
    serial = run_scenario(scn, threads=1)
    parallel = run_scenario(scn, threads=3)
    assert serial == parallel
    assert run_scenario(scn, threads=1) == serial


def test_varying_prevalence_runs_deterministically():
    scn = subgroup_scenario(
        SelectionRule("futility-pair", limits=(0.0, 0.0)),
        reps=2000,
        prevalence=0.1,
        prevalence_fixed=False,
    )
    # a tiny stage-1 cohort makes empty-subgroup redraws likely
    scn = replace(scn, plan=replace(scn.plan, stage1_per_arm=5))
    first = run_scenario(scn, threads=1)
    assert first == run_scenario(scn, threads=2)
    assert first.prevalence_redraws > 0
    fixed = run_scenario(replace(scn, prevalence_fixed=True))
    assert fixed.prevalence_redraws == 0


def test_varying_prevalence_subgroup_full_test_tallies_are_frozen():
    # CT-SD with a redrawn prevalence evaluates the bivariate CDF per row;
    # two full chunks plus a short one, tallies recorded from the engine
    doc = (CONFIG_DIR / "oncology.yaml").read_text() + "sprev_fixed: false\n"
    scn = replace(parse_config(doc, "subgroup"), replications=2 * 4096 + 5)
    oc = run_scenario(scn)
    assert (oc.futility_count, oc.prevalence_redraws, oc.clamped_pvalues) == (435, 0, 0)
    assert oc.union_rejected_count == 6237
    assert oc.subgroup_counts == {
        "sub": SubgroupCounts(n=1880, hs=1809, hf=0, both=0, intersection=1810),
        "full": SubgroupCounts(n=181, hs=0, hf=30, both=0, intersection=33),
        "both": SubgroupCounts(n=5701, hs=4381, hf=1365, both=1348, intersection=4416),
    }


def test_a_redrawn_prevalence_at_the_largest_stage1_size_stays_small():
    scn = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=50, prevalence_fixed=False)
    scn = replace(scn, plan=replace(scn.plan, stage1_per_arm=10_000_000))
    _binomial_cdf.cache_clear()  # a table cached by an earlier test would not be traced
    tracemalloc.start()
    try:
        run_scenario(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the count table holds about 10 sqrt(2e7) = 44721 float64 entries, 0.36 MB
    assert peak < 2 * 2**20


def test_pool_size_never_exceeds_cpus_or_chunks():
    assert _pool_size(5000, 2, 50) == 2
    assert _pool_size(16, 64, 3) == 3
    assert _pool_size(4, 8, 10) == 4
    assert _pool_size(1, 8, 10) == 1
    assert _pool_size(0, 8, 10) == 1


@pytest.fixture
def pool_log(monkeypatch):
    """Count the process pools the engine starts and the pickled size of each task."""
    log = {"pools": 0, "task_bytes": []}

    class CountingPool(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            log["pools"] += 1

        def submit(self, fn, /, *args, **kwargs):
            log["task_bytes"].append(len(pickle.dumps(args)))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)  # a pool even on one CPU
    return log


def test_a_sweep_starts_one_pool_for_all_its_points(pool_log):
    base, axis, values = parse_sweep_config((CONFIG_DIR / "copd_threshold_sweep.yaml").read_text())
    serial = sweep(base, axis, values, threads=1)
    assert pool_log["pools"] == 0
    parallel = sweep(base, axis, values, threads=2)
    assert pool_log["pools"] == 1
    assert len(pool_log["task_bytes"]) == 3  # one per chunk range, carrying all 13 points
    assert max(pool_log["task_bytes"]) < 4096  # the points' shared settings pickle once
    assert [p.oc for p in parallel] == [p.oc for p in serial]


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("threads", [2.5, 2.0, "2", None, True])
def test_threads_must_be_an_integer_before_any_pool_starts(pool_log, monkeypatch, cpus, threads):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    scn = treatment_scenario(SelectionRule("best-2"), reps=3 * engine.CHUNK_SIZE)  # a pool's worth of chunks
    with pytest.raises(ValueError, match="threads must be an integer"):
        run_scenario(scn, threads=threads)
    base, axis, values = parse_sweep_config((CONFIG_DIR / "copd_threshold_sweep.yaml").read_text())
    with pytest.raises(ValueError, match="threads must be an integer"):
        sweep(base, axis, values, threads=threads)
    assert pool_log["pools"] == 0


def test_pool_tasks_carry_the_scenario_not_its_grids(pool_log):
    scn = parse_config((CONFIG_DIR / "copd_setting1.yaml").read_text(), "treatment")
    assert run_scenario(scn, threads=2) == run_scenario(scn, threads=1)
    assert pool_log["pools"] == 1
    assert len(pool_log["task_bytes"]) == 3
    assert max(pool_log["task_bytes"]) < 4096


def _row_cases():
    for k in range(1, 9):
        effects = EffectSpec(design="treatment", early=tuple(0.1 * i for i in range(k + 1)),
                             final=tuple(0.05 * i for i in range(k + 1)), correlation=0.4)
        yield pytest.param(replace(treatment_scenario(SelectionRule("all"), reps=4096 + 17), effects=effects),
                           id=f"K{k}")
    # an N early and a T final outcome orient the blocks apart
    scn = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=4096 + 17,
                            prevalence_fixed=False)
    yield pytest.param(replace(scn, effects=replace(scn.effects, early_outcome="N")), id="varying-prevalence")


@pytest.mark.parametrize("scn", _row_cases())
def test_each_row_statistics_come_from_its_own_normals_alone(scn):
    rows = scn.replications
    eps, taus, _, _ = _draw_chunk(scn, 0, rows)

    def statistics(at):  # the rows ``at`` computed without the others
        return _statistics(scn, eps[at], None if taus is None else taus[at])

    z, shift = statistics(slice(None))
    cut = int(np.random.default_rng(scn.effects.comparisons).integers(1, rows))
    halves = [statistics(slice(None, cut)), statistics(slice(cut, None))]
    assert np.vstack([h[0] for h in halves]).tobytes() == z.tobytes()
    assert np.concatenate([h[1] for h in halves]).tobytes() == shift.tobytes()
    for i in range(rows):
        alone = statistics(slice(i, i + 1))
        assert alone[0].tobytes() == z[i].tobytes() and alone[1].tobytes() == shift[i:i + 1].tobytes()

    spec = scn.effects
    sign = np.repeat([1.0 if larger_is_better(spec.design, code) else -1.0
                      for code in (spec.early_outcome, spec.final_outcome, spec.final_outcome)],
                     spec.comparisons)
    if taus is None:
        groups = [(scn.prevalence, slice(None))]
    else:
        values, counts = np.unique(taus, return_counts=True)
        assert counts.min() == 1  # some prevalence is held by one row of the chunk
        groups = [(float(tau), taus == tau) for tau in values]
    for tau, at in groups:
        model = build_score_model(spec, scn.plan, tau)
        np.testing.assert_allclose(z[at], sign * (model.mean + eps[at] @ model.cholesky.T), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# quantile grids and the chunk's random stream


GRID_MIDPOINTS = 0.5 * (_GRID[1:] + _GRID[:-1])
DUNNETT_M = range(2, 9)
DUNNETT_IDS = [f"dunnett-{m}-{ARM_CORRELATION}" for m in DUNNETT_M]


def _oracle_quantile(m, x):
    """Phi^-1(P(max <= x)) by the Gauss-Hermite oracle, held to the p-value clamp."""
    return ndtri(np.clip(equicorr_max_cdf(m, ARM_CORRELATION, x), P_CLAMP, 1.0 - P_CLAMP))


@lru_cache(maxsize=None)
def _midpoint_rule():
    """The grids' own rule evaluated half a step over, at every midpoint, row m - 2 (read-only)."""
    rule = _tail_quantile(*dunnett_tails(DUNNETT_M, _GRID[0] + 0.5 * _GRID_STEP, _GRID_STEP, _GRID.size - 1))
    rule.flags.writeable = False
    return rule


def _clamp_intervals(grid):
    """The midpoints of the interval at each end where the grid reaches the p-value clamp."""
    return ((grid[:-1] == _YMIN) & (grid[1:] > _YMIN)) | ((grid[:-1] < _YMAX) & (grid[1:] == _YMAX))


@pytest.mark.parametrize("m", DUNNETT_M, ids=DUNNETT_IDS)
def test_grid_interpolation_error_is_below_1e_6_for_quantiles_up_to_6(m):
    # midpoints are where linear interpolation is worst: within 1e-6 of the independent oracle, and
    # within the stated 2e-8 of the grids' rule evaluated there
    exact = _oracle_quantile(m, GRID_MIDPOINTS)
    inside = np.abs(exact) <= 6.0
    assert inside.sum() > 1000
    read = _read_grid(_dunnett_grids(max(DUNNETT_M))[m - 2], GRID_MIDPOINTS)
    assert np.max(np.abs(read - exact)[inside]) < 1e-6
    assert np.max(np.abs(read - _midpoint_rule()[m - 2])[inside]) < 2e-8


@pytest.mark.parametrize("m", DUNNETT_M, ids=DUNNETT_IDS)
def test_grid_interpolation_error_past_quantile_6_meets_each_stated_bound(m):
    # out to the p-value clamp the read stays within 2e-8 of the rule, except in the interval at each
    # end where the quantile reaches the clamp: the straight line cuts its corner, by under 1e-3
    grid, exact = _dunnett_grids(max(DUNNETT_M))[m - 2], _midpoint_rule()[m - 2]
    error = np.abs(_read_grid(grid, GRID_MIDPOINTS) - exact)
    corner, past = _clamp_intervals(grid), np.abs(exact) > 6.0
    assert corner.sum() == 2 and (past & ~corner).sum() > 500
    assert np.max(error[past & ~corner]) < 2e-8
    assert np.max(error[corner]) < 1e-3


# every 112th grid point, -8.5 .. 8.34: both clamps, both tails and the middle
MPMATH_POINTS = np.arange(0, _GRID.size, 112)
MPMATH_M = (2, 4, 8)


def _mpmath_quantiles(c, ms):
    """Phi^-1(1 - p), p = P(max > c) of m standard normals equicorrelated at 1/2, for each m in ``ms``, p
    held to the p-value clamp as the engine holds it; in mpmath at 30 digits, P(max <= c) being
    E_U[Phi(sqrt(2) c - U)^m]: 20-point Gauss-Legendre on 12 panels over |u| <= 12, each tail summed
    apart, the quantile from the smaller by Newton's method."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    with mpmath.workdps(30):
        a, cdf, sf = mpmath.sqrt(2) * mpmath.mpf(float(c)), [0] * len(ms), [0] * len(ms)
        for panel in range(-6, 6):
            for x, w in zip(nodes, weights):
                u = mpmath.mpf(2 * panel + 1 + float(x))
                phi, density = mpmath.ncdf(a - u), float(w) * mpmath.npdf(u)
                powers = [density * phi**i for i in range(max(ms) + 1)]
                for i, m in enumerate(ms):
                    cdf[i] += powers[m]
                    sf[i] += (1 - phi) * sum(powers[:m])
        quantiles = []
        for low, high in zip(cdf, sf):
            p = max(low, P_CLAMP) if low < high else max(high, 1.0 - (1.0 - P_CLAMP))
            q = mpmath.mpf(float(ndtri(float(p))))
            for _ in range(2):
                q -= (mpmath.ncdf(q) - p) / mpmath.npdf(q)
            quantiles.append(float(q) if low < high else -float(q))
    return quantiles


def test_dunnett_grid_points_are_within_1e_11_of_mpmath():
    grids = _dunnett_grids(max(DUNNETT_M))[[m - 2 for m in MPMATH_M]]
    exact = np.array([_mpmath_quantiles(_GRID[i], MPMATH_M) for i in MPMATH_POINTS]).T
    for covered in (exact < _YMIN + 1e-9, np.abs(exact) < 1.0, exact > _YMAX - 1e-9):  # both clamps, the middle
        assert covered.any()
    assert np.max(np.abs(grids[:, MPMATH_POINTS] - exact)) < 1e-11


TAIL_POINTS = np.array([-40.0, -12.0, -9.0, -8.6, 8.6, 9.0, 12.0, 40.0])


@pytest.mark.parametrize("m", DUNNETT_M, ids=DUNNETT_IDS)
def test_grid_tails_beyond_8_5_match_direct_evaluation(m):
    # the read holds the end values past the grid's +-8.5: both sit at the p-value clamp, as does the oracle
    clamps = np.repeat([_YMIN, _YMAX], 4)
    np.testing.assert_array_equal(_read_grid(_dunnett_grids(max(DUNNETT_M))[m - 2], TAIL_POINTS), clamps)
    np.testing.assert_array_equal(_oracle_quantile(m, TAIL_POINTS), clamps)


@lru_cache(maxsize=None)
def _dense_grid_points():
    """Every grid point and its 1 .. 64-ulp neighbours each way, the midpoints, points past +-8.5,
    +-inf, and the statistics the engine reads the Dunnett grids at in one K = 8 chunk (read-only)."""
    near, below, above = [_GRID], _GRID, _GRID
    for _ in range(64):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        near += [below, above]
    read = []

    def recording(values, x):
        read.append(np.ravel(x))
        return _read_grid(values, x)

    # threshold 0.5 continues from none to all eight arms: stage-2 reads of every m
    scn = replace(_k8_scenario("dunnett"), rule=SelectionRule("threshold", threshold=0.5))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_read_grid", recording)
        engine._simulate_chunk([scn], 0, engine.CHUNK_SIZE)
    points = np.concatenate(near + [GRID_MIDPOINTS, TAIL_POINTS, [-np.inf, np.inf]] + read)
    points.flags.writeable = False
    return points


@pytest.mark.parametrize("m", DUNNETT_M, ids=DUNNETT_IDS)
def test_grid_read_is_bitwise_np_interp(m):
    x = _dense_grid_points()
    grid = _dunnett_grids(max(DUNNETT_M))[m - 2]
    assert _read_grid(grid, x).tobytes() == np.interp(x, _GRID, grid).tobytes()


def _one_grid(m):
    """Grid row m - 2, built alone."""
    return _tail_quantile(*dunnett_tails([m], _GRID[0], _GRID_STEP, _GRID.size))[0]


def _assert_near_the_oracle(grids):
    """Grid row m - 2 within 1e-6 of the Gauss-Hermite oracle wherever its quantile lies in [-6, 6]."""
    for m, grid in enumerate(grids, 2):
        exact = _oracle_quantile(m, _GRID)
        inside = np.abs(exact) <= 6.0
        assert np.max(np.abs(grid - exact)[inside]) < 1e-6, m


def test_cached_grids_are_read_only_fresh_builds():
    _dunnett_grids.cache_clear()
    dunnett = _dunnett_grids(4)
    assert _dunnett_grids(4) is dunnett
    assert not dunnett.flags.writeable
    with pytest.raises(ValueError):
        dunnett[0, 0] = 0.0
    assert dunnett.shape == (3, _GRID.size)  # m = 2, 3, 4
    for m in (2, 3, 4):
        assert dunnett[m - 2].tobytes() == _one_grid(m).tobytes()
    _assert_near_the_oracle(dunnett)


def test_cold_prepare_builds_every_dunnett_grid_in_one_quadrature_call(monkeypatch):
    calls = []

    def counted(m, start, step, count):
        calls.append(m)
        return dunnett_tails(m, start, step, count)

    monkeypatch.setattr(engine, "dunnett_tails", counted)
    _dunnett_grids.cache_clear()
    effects = EffectSpec(design="treatment", early=(0.0, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7),
                         final=(0.0, 0.05, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20), correlation=0.4)
    scn = replace(_dunnett(2), effects=effects)
    _prepare(scn)
    _prepare(scn)  # warm
    assert len(calls) == 1 and list(calls[0]) == list(range(2, 9))
    grids = _dunnett_grids(8)
    one_arm = EffectSpec(design="treatment", early=(0.0, 0.2), final=(0.0, 0.1), correlation=0.4)
    run_scenario(replace(scn, effects=one_arm, rule=SelectionRule("best-1")))  # no m >= 2 to build
    assert len(calls) == 1
    for m in range(2, 9):
        assert grids[m - 2].tobytes() == _one_grid(m).tobytes()
    _assert_near_the_oracle(grids)


def test_a_dunnett_grid_build_evaluates_ndtr_once_per_lattice_point(monkeypatch):
    points = []

    def counted(x):
        points.append(np.size(x))
        return ndtr(x)

    monkeypatch.setattr(statdist, "ndtr", counted)
    _dunnett_grids.cache_clear()
    _dunnett_grids(8)
    _dunnett_grids.cache_clear()
    # one lattice of 8705 + 2 x 90 x 42 points, where a point-by-node rule evaluates 8705 x 192
    assert len(points) == 1 and sum(points) < 2 * _GRID.size


# SHA-256 of _dunnett_grids(8).tobytes(): the grids' bytes, pinned under every SIMD dispatch and BLAS kernel
DUNNETT_GRIDS_SHA256 = "8d89c1ecedccb0324eaaad27f16a736c062d97fa752a4572dfb5d71e104f0222"


def test_dunnett_grids_are_frozen():
    _dunnett_grids.cache_clear()
    assert hashlib.sha256(_dunnett_grids(8).tobytes()).hexdigest() == DUNNETT_GRIDS_SHA256


def _test_one(scn, z1, z2, cont, taus):
    """The closed test of one selection: its rejected mask, intersection-of-all mask and clamps."""
    (rejected,), (full,), (clamps,) = _test_chunk(scn, z1, [z2], [cont], taus)
    return rejected, full, clamps


@pytest.mark.parametrize("per_row", [False, True], ids=["fixed-tau", "per-row-tau"])
def test_saturated_subgroup_full_pvalue_counts_as_clamped(per_row):
    # stage-1 statistics of 9 put every stage-1 p-value below the clamp: the
    # singletons and the full intersection all read the clamp's quantile
    scn = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)),
                            method="spiessens-debois", prevalence_fixed=not per_row)
    z1, z2, cont = np.full((1, 2), 9.0), np.zeros((1, 2)), np.ones((1, 2), dtype=bool)
    taus = np.array([0.3]) if per_row else None
    table, _ = _stage_table(scn, z1, cont, 2, scn.prevalence if taus is None else taus)
    assert table[2 * 2, 0] == _YMAX  # the intersection of all: m = 2, its best at rank 0
    # three stage-1 cells at the clamp; the stage-2 cells, at statistics of 0, are not
    assert _test_one(scn, z1, z2, cont, taus)[2] == 3


def _dunnett(k):
    effects = EffectSpec(
        design="treatment",
        early=(0.0, 0.2, 0.3, 0.4, 0.5)[: k + 1],
        final=(0.0, 0.10, 0.12, 0.15, 0.20)[: k + 1],
        correlation=0.4,
    )
    return Scenario(
        effects=effects,
        plan=SampleSizePlan(stage1_per_arm=60, stage2_per_arm=120),
        rule=SelectionRule("best-2"),
        test=TestSpec("dunnett", CombinationConfig.from_sample_sizes(60, 120)),
        replications=3000,
        master_seed=31,
    )


@pytest.mark.parametrize("first, second", [(_dunnett(2), _dunnett(4))], ids=["dunnett-m"])
def test_warm_grid_cache_gives_the_cold_cache_result(first, second):
    # the second run needs a table the first did not build (K = 4 beside
    # K = 2), so a table served under the wrong key would change its tallies
    def cold(scenario):
        _dunnett_grids.cache_clear()
        return run_scenario(scenario)

    cold_first, cold_second = cold(first), cold(second)
    assert cold(first) == cold_first
    assert run_scenario(first) == cold_first  # warm: same key
    assert run_scenario(second) == cold_second  # warm: the other key beside it
    assert run_scenario(first) == cold_first


def _replay_draws(scn, rep, k):
    """One replication's draws through its own stream and the scalar functions, in the engine's order."""
    stream = replication_stream(scn.master_seed, rep)
    tau = redraws = pick = None
    if scn.design == "subgroup":
        n = 2 * scn.plan.stage1_per_arm
        tau, redraws = resolve_prevalence(scn.prevalence, scn.prevalence_fixed, stream, n)
    # under a zero mean and a unit factor the statistics are the normals themselves
    eps = sample_replication(ScoreModel(np.zeros(3 * k), np.eye(3 * k), None), stream).values
    if scn.rule.kind == "random-1":
        pick = min(select_treatments(np.zeros(k), scn.rule, stream).continued) - 1
    return eps, tau, redraws, pick


def _treatment_arms(k, rule=SelectionRule("best-1"), reps=4301):
    """A K-arm treatment scenario, for the draw-layer tests."""
    effects = EffectSpec(design="treatment", early=(0.0,) + (0.2,) * k, final=(0.0,) + (0.1,) * k,
                         correlation=0.4)
    return replace(treatment_scenario(rule, reps=reps), effects=effects)


def _varying(stage1, prevalence, reps=4301):
    scn = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=reps,
                            prevalence=prevalence, prevalence_fixed=False)
    return replace(scn, plan=SampleSizePlan(stage1_per_arm=stage1, stage2_per_arm=300, enrich_per_arm=200))


# one replication's consumption, in each order the engine draws: 6, 12 and 24
# normals; normals then the random-1 pick; kept binomial tries then normals,
# with redraws common at n = 10 and n = 20
DRAW_SCENARIOS = {
    "random-1": treatment_scenario(SelectionRule("random-1"), reps=4301),
    "varying-prevalence": _varying(5, 0.3),
    "normal-6": _treatment_arms(2),
    "normal-12": _treatment_arms(4),
    "normal-24": _treatment_arms(8),
    "normal-then-integers": _treatment_arms(3, SelectionRule("random-1")),
    "binomial-200": _varying(100, 0.3),
    "binomial-20-redraws": _varying(10, 0.02),
}


@pytest.mark.parametrize("scn", DRAW_SCENARIOS.values(), ids=DRAW_SCENARIOS.keys())
def test_chunk_draws_replay_each_replication_stream(scn):
    eps, taus, picks, redraws = _draw_chunk(scn, 4101, 4301)
    total_redraws = 0
    for row, rep in enumerate(range(4101, 4301)):
        want_eps, tau, extra, pick = _replay_draws(scn, rep, scn.effects.comparisons)
        assert eps[row].tobytes() == want_eps.tobytes()
        if pick is not None:
            assert picks[row] == pick
        if tau is not None:
            assert taus[row] == tau
            total_redraws += extra
    assert redraws == total_redraws
    if scn.design == "subgroup" and scn.plan.stage1_per_arm <= 10:
        assert redraws > 0


PREFIX_SCENARIOS = {f"K={k}": _treatment_arms(k, reps=9000) for k in range(1, 9)}
PREFIX_SCENARIOS["random-1"] = _treatment_arms(5, SelectionRule("random-1"), reps=9000)
PREFIX_SCENARIOS["varying-prevalence"] = _varying(10, 0.05, reps=9000)


@pytest.mark.parametrize("scn", PREFIX_SCENARIOS.values(), ids=PREFIX_SCENARIOS.keys())
def test_chunk_draws_are_prefix_stable_and_raise_no_warning(scn):
    # rows a .. c equal rows a .. b followed by b .. c, b off the chunk grid,
    # with every warning (a uint64 overflow, say) an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = _draw_chunk(scn, 100, 8292)
        parts = [_draw_chunk(scn, 100, 5000), _draw_chunk(scn, 5000, 8292)]
    for got, first, second in list(zip(whole, *parts))[:3]:
        if got is None:
            assert first is None and second is None
        else:
            assert got.tobytes() == np.concatenate([first, second]).tobytes()
    assert whole[3] == parts[0][3] + parts[1][3]


# ---------------------------------------------------------------------------
# the closed-test kernel: frozen tallies and hand-built chunks


FROZEN_REPLICATIONS = 2 * 4096 + 17


def _k8_scenario(intersection, method="inverse-normal", alpha1=0.0, **kw):
    """Eight arms against control, best two continue: 255 intersections per replication."""
    return Scenario(
        effects=EffectSpec(
            design="treatment",
            early=(0.0, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7),
            final=(0.0, 0.05, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20),
            correlation=0.4,
        ),
        plan=SampleSizePlan(100, 300),
        rule=SelectionRule("best-2"),
        test=TestSpec(
            intersection,
            CombinationConfig.from_sample_sizes(100, 300, method=method, alpha1=alpha1),
        ),
        replications=FROZEN_REPLICATIONS,
        master_seed=3,
        ptest=(7, 8),
        **kw,
    )


def _oncology_scenario(fixed):
    return replace(
        parse_config((CONFIG_DIR / "oncology.yaml").read_text(), "subgroup"),
        replications=FROZEN_REPLICATIONS,
        prevalence_fixed=fixed,
    )


_K8_SELECTED = ((0, 8209, 0, 0, 0, 0, 0, 0), (1, 21, 252, 605, 1310, 2594, 4506, 7129))

# every OperatingCharacteristics field, as dataclasses.astuple gives it,
# recorded from the engine under the contract's version 2 draws
FROZEN_CLOSED_TESTS = {
    "dunnett-inverse-normal": (
        _k8_scenario("dunnett"),
        ("treatment", 8209, 0, 1800.0, 0, 0, *_K8_SELECTED,
         (0, 6, 56, 186, 535, 1318, 2687, 4692), 5924, (7, 8), 5553, None, None),
    ),
    "dunnett-fisher": (
        _k8_scenario("dunnett", "fisher"),
        ("treatment", 8209, 0, 1800.0, 0, 0, *_K8_SELECTED,
         (0, 6, 49, 165, 483, 1202, 2496, 4441), 5622, (7, 8), 5255, None, None),
    ),
    "simes-inverse-normal": (
        _k8_scenario("simes"),
        ("treatment", 8209, 0, 1800.0, 0, 0, *_K8_SELECTED,
         (0, 6, 57, 172, 495, 1221, 2506, 4393), 5572, (7, 8), 5215, None, None),
    ),
    "simes-fisher": (
        _k8_scenario("simes", "fisher"),
        ("treatment", 8209, 0, 1800.0, 0, 0, *_K8_SELECTED,
         (0, 6, 50, 156, 458, 1141, 2389, 4257), 5412, (7, 8), 5049, None, None),
    ),
    "bonferroni-inverse-normal": (
        _k8_scenario("bonferroni"),
        ("treatment", 8209, 0, 1800.0, 0, 232544, *_K8_SELECTED,
         (0, 5, 41, 133, 365, 922, 1903, 3343), 4401, (7, 8), 4061, None, None),
    ),
    "bonferroni-fisher": (
        _k8_scenario("bonferroni", "fisher"),
        ("treatment", 8209, 0, 1800.0, 0, 232544, *_K8_SELECTED,
         (0, 6, 43, 145, 421, 1043, 2196, 3955), 5071, (7, 8), 4706, None, None),
    ),
    "dunnett-alpha1": (
        _k8_scenario("dunnett", alpha1=0.005),
        ("treatment", 8209, 0, 1800.0, 0, 0, *_K8_SELECTED,
         (0, 6, 52, 179, 505, 1242, 2591, 4536), 5749, (7, 8), 5393, None, None),
    ),
    "simes-follow-up": (
        _k8_scenario("simes", follow_up=True),
        ("treatment", 8209, 0, 1800.0, 0, 0, *_K8_SELECTED,
         (0, 4, 30, 103, 297, 784, 1667, 3242), 4237, (7, 8), 3880, None, None),
    ),
    "oncology-fixed": (
        _oncology_scenario(True),
        ("subgroup", 8209, 405, 724.4975027408941, 0, 0, None, None, None, None, None, None,
         {"sub": (1884, 1820, 0, 0, 1821), "full": (190, 0, 41, 0, 46),
          "both": (5730, 4297, 1295, 1273, 4346)}, 6180),
    ),
    "oncology-varying": (
        _oncology_scenario(False),
        ("subgroup", 8209, 435, 722.3535144353758, 0, 0, None, None, None, None, None, None,
         {"sub": (1882, 1811, 0, 0, 1812), "full": (181, 0, 30, 0, 33),
          "both": (5711, 4389, 1367, 1350, 4424)}, 6247),
    ),
}


@pytest.mark.parametrize("label", FROZEN_CLOSED_TESTS)
def test_closed_test_tallies_are_frozen(label):
    # two full chunks plus a short one through every intersection test
    scn, expected = FROZEN_CLOSED_TESTS[label]
    assert astuple(run_scenario(scn)) == expected


def _hand_built_chunk(k, rows=64, seed=0):
    """Stage statistics and continued masks with ties, futile rows and clamped tails."""
    rng = np.random.default_rng(seed)
    z1 = np.round(rng.normal(1.0, 1.5, size=(rows, k)), 1)  # rounding makes ties common
    z2 = np.round(rng.normal(1.0, 1.5, size=(rows, k)), 1)
    z1[0], z2[0] = 1.5, 1.5                                  # every arm tied
    z1[1], z2[1] = 9.0, -9.0                                 # beyond the p-value clamp
    # distinct statistics above 8.3, where 1 - Phi(z) rounds to 0, among moderate ones:
    # ranked by p they tie, ranked by z they do not
    high = np.array([8.4, 1.2, 9.3, -0.4, 8.9, 2.1, 10.2, 0.6])
    z1[10], z2[10] = np.resize(high, k), np.resize(high[::-1], k)
    z1[11], z2[11] = np.resize(high[::-1], k), np.resize(np.roll(high, 1), k)
    cont = rng.random((rows, k)) < 0.5
    cont[2:6] = False                                        # futility
    cont[6:10] = False
    cont[6:10, 0] = True                                     # one arm continues
    cont[:2] = True
    cont[10] = True
    cont[11] = np.resize([True, True, False], k)
    return z1, z2, cont


def _grid_error(y):
    """The engine docstring's bound on the error of a grid quantile y."""
    return 1e-6 if abs(y) <= 6 else 3e-5 if abs(y) <= 7 else 2e-2


def _near_a_boundary(scn, z1, z2, contributors, tau):
    """Whether some intersection's combination statistic lies within the grid error of its boundary.

    The statistic is the one ``combine`` computes, from the scalar stage p-values.
    """
    method, config = scn.test.intersection, scn.test.config
    for size in range(1, len(z1) + 1):
        for members in itertools.combinations(range(len(z1)), size):
            stages = []
            for z, arms in ((z1, members), (z2, [i for i in members if i in contributors])):
                p = intersection_pvalue(z[list(arms)], method, tau=tau) if arms else 1.0
                y = ndtri(1.0 - np.clip(p, P_CLAMP, 1.0 - P_CLAMP))
                stages.append((y, _grid_error(y) if len(arms) > 1 else 0.0))
            (y1, e1), (y2, e2) = stages
            if config.method == "fisher":
                low, high = (ndtr(-(y1 + s * e1)) * ndtr(-(y2 + s * e2)) for s in (1.0, -1.0))
                near = low <= fisher_critical_value(config.alpha) <= high
            else:
                u1, u2 = spending_boundaries(config)
                near = (abs(config.w1 * y1 + config.w2 * y2 - u2) <= config.w1 * e1 + config.w2 * e2
                        or abs(y1 - u1) <= e1)
            if near:
                return True
    return False


def _drawn_chunk(rule, per_size):
    """Eight arms' stage statistics and continued masks from real draws selected by ``rule``
    on null early effects: up to ``per_size`` rows of each number of continued arms."""
    final = (0.0, 0.05, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20)
    scn = replace(_k8_scenario("bonferroni"), rule=rule,
                  effects=EffectSpec(design="treatment", early=(0.0,) * 9, final=final, correlation=0.4))
    eps, taus, rand_pick, _ = _draw_chunk(scn, 0, 4096)
    z, _ = _statistics(scn, eps, taus)
    cont = _select_chunk(scn, z, rand_pick)
    size = cont.sum(axis=1)
    rows = np.concatenate([np.flatnonzero(size == c)[:per_size] for c in range(9)])
    return z[rows, 8:16], z[rows, 16:], cont[rows]


COMBINATIONS = ("inverse-normal", "fisher", "alpha1")
DRAWN_RULES = {"best-2": (SelectionRule("best-2"), 96),
               "threshold": (SelectionRule("threshold", threshold=0.5), 12)}
# ids "<follow-up>-<combination>-<test>" at K = 5, "k8-..." at K = 8, "<fixed or
# per-row tau>-..." for CT-SD at K = 2, and "k8-<rule>-..." for eight arms whose
# masks come from real draws: best-2 continues two arms in every row, threshold
# 0.5 from none to all eight (12 rows of each count)
KERNEL_CASES = {
    **{f"{follow_up}-{combination}-{method}": (method, combination, follow_up, False, 5, None)
       for method in ("dunnett", "bonferroni", "simes")
       for combination in COMBINATIONS for follow_up in (False, True)},
    **{f"{tau}-tau-{combination}-spiessens-debois":
       ("spiessens-debois", combination, False, tau == "per-row", 2, None)
       for tau in ("fixed", "per-row") for combination in COMBINATIONS},
    **{f"k8-{follow_up}-{combination}-{method}": (method, combination, follow_up, False, 8, None)
       for method, combination, follow_up in (("simes", "inverse-normal", False),
                                              ("simes", "inverse-normal", True),
                                              ("bonferroni", "fisher", False))},
    **{f"k8-{rule}-{follow_up}-{combination}-{method}": (method, combination, follow_up, False, 8, rule)
       for rule in DRAWN_RULES for method in ("bonferroni", "simes")
       for combination in COMBINATIONS for follow_up in (False, True)},
}


@pytest.mark.parametrize("case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
def test_chunk_kernel_matches_the_scalar_closed_test(case):
    method, combination, follow_up, per_row, k, drawn = case
    config = CombinationConfig.from_sample_sizes(
        60, 120, method="fisher" if combination == "fisher" else "inverse-normal",
        alpha1=0.005 if combination == "alpha1" else 0.0,
    )
    if method == "spiessens-debois":
        scn = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), method=method,
                                prevalence_fixed=not per_row)
    else:
        scn = replace(treatment_scenario(SelectionRule("all"), method=method, follow_up=follow_up),
                      effects=EffectSpec(design="treatment", early=(0.0,) * (k + 1), final=(0.0,) * (k + 1)))
    scn = replace(scn, test=TestSpec(method, config))
    if drawn:
        z1, z2, cont = _drawn_chunk(*DRAWN_RULES[drawn])
    else:  # K = 2 rows are cheap; at K = 8 the chunk holds the 512-row block edge
        z1, z2, cont = _hand_built_chunk(k, rows={2: 400, 5: 64, 8: 520}[k])
    rows = z1.shape[0]
    taus = np.random.default_rng(5).uniform(0.05, 0.95, rows) if per_row else None
    rejected, _, _ = _test_one(scn, z1, z2, cont, taus)
    everyone = range(1, k + 1) if follow_up else None
    if follow_up:  # the scalar test takes the followed-up stage-2 statistics as given
        z2 = np.where(cont, z2, z1)
    # Dunnett quantiles come from grids; rows near a boundary within the grid
    # error are not compared, and the exact tests compare every row
    gridded = method == "dunnett"
    excluded = 0
    for row in range(rows):
        tau = taus[row] if per_row else scn.prevalence
        continued = {i + 1 for i in np.flatnonzero(cont[row])}
        contributors = set(range(k)) if follow_up else {i - 1 for i in continued}
        if gridded and _near_a_boundary(scn, z1[row], z2[row], contributors, tau):
            excluded += 1
            continue
        scalar = closed_test(z1[row], z2[row], continued, method, config, tau=tau,
                             stage2_contributors=everyone)
        assert {i + 1 for i in np.flatnonzero(rejected[row])} == scalar, row
    assert excluded < 0.05 * rows
    assert rejected.any() and not rejected.all()


@pytest.mark.parametrize("method", ["dunnett", "bonferroni", "simes", "spiessens-debois"])
@pytest.mark.parametrize("fixed", [True, False])
def test_permuting_the_arms_permutes_the_rejections(method, fixed):
    if method == "spiessens-debois":
        scn = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), method=method,
                                prevalence_fixed=fixed)
        k = 2
    else:
        scn = _k8_scenario(method, follow_up=not fixed)
        k = 8
    z1, z2, cont = _hand_built_chunk(k, rows=600, seed=k)  # two blocks at K = 8
    taus = None if fixed else np.full(z1.shape[0], 0.3)
    expected = _test_one(scn, z1, z2, cont, taus)
    assert expected[0].any() and expected[1].any()
    for perm in np.random.default_rng(1).permutation(np.tile(np.arange(k), (3, 1)), axis=1):
        rejected, full, clamps = _test_one(scn, z1[:, perm], z2[:, perm], cont[:, perm], taus)
        np.testing.assert_array_equal(rejected, expected[0][:, perm])
        np.testing.assert_array_equal(full, expected[1])
        assert clamps == expected[2]
    # a chunk in which every row stops for futility rejects nothing
    rejected, full, _ = _test_one(scn, z1, z2, np.zeros_like(cont), taus)
    assert not rejected.any() and not full.any()


@pytest.mark.parametrize("k, follow_up", [(4, False), (8, False), (8, True)])
def test_a_row_tests_only_its_candidate_intersections(monkeypatch, k, follow_up):
    # with Simes and Fisher the kernel's only three-dimensional ndtr calls turn the
    # candidates' stage-1 quantiles, shaped (T, d, row), into p-values
    scn = replace(_k8_scenario("simes", "fisher", follow_up=follow_up), ptest=None,
                  effects=EffectSpec(design="treatment", early=(0.0,) * (k + 1), final=(0.0,) * (k + 1)))
    candidates = []
    monkeypatch.setattr(engine, "ndtr", lambda x: candidates.append(np.ndim(x) == 3 and np.size(x)) or ndtr(x))
    z1, z2, _ = _hand_built_chunk(k, rows=12, seed=3)
    arms = np.random.default_rng(4).permutation(k)
    for c in range(k + 1):  # row c continues c arms
        cont = np.zeros((1, k), dtype=bool)
        cont[0, arms[:c]] = True
        candidates.clear()
        _test_one(scn, z1[c : c + 1], z2[c : c + 1], cont, None)
        have = k if follow_up else c  # members with stage-2 data
        assert sum(candidates) == (2**have - 1) * (k - have + 1)


@pytest.mark.parametrize("k", range(2, 9))
def test_dunnett_quantiles_fall_with_the_statistic_and_the_member_count(k):
    # the closed test's candidates stand for the other intersections only if an
    # intersection's quantile never rises as its best statistic falls: each
    # grid, row m - 2, is nondecreasing, and no higher than the one of m - 1
    grids = _dunnett_grids(k)
    assert (np.diff(grids, axis=1) >= 0).all()
    assert (grids[1:] <= grids[:-1]).all()
    assert (grids[0] <= np.clip(_GRID, _YMIN, _YMAX)).all()


def test_dunnett_grid_reads_fall_with_the_statistic_and_the_member_count():
    # the same premise between the grid nodes: what the closed test reads at a
    # statistic never falls as it rises, and never rises with m
    x = np.unique(_dense_grid_points())
    reads = np.array([_read_grid(grid, x) for grid in _dunnett_grids(max(DUNNETT_M))])
    assert (np.diff(reads, axis=1) >= 0).all()
    assert (reads[1:] <= reads[:-1]).all()
    assert (reads[0] <= np.clip(x, _YMIN, _YMAX)).all()  # m = 1 reads the clipped statistic


def test_bonferroni_and_simes_quantiles_fall_as_a_p_value_rises():
    # a dense p grid, through the clamp band at both ends and each Bonferroni edge 1/m
    edges = 1.0 / np.arange(1, 9)
    p = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 20001), np.logspace(-20, 0, 20001), 1.0 - np.logspace(-20, -0.3, 20001),
        np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)]))

    previous = None
    for m in range(1, 9):
        bonferroni = _quantile(np.minimum(1.0, m * p))
        assert (np.diff(bonferroni) <= 0).all()
        if previous is not None:
            assert (bonferroni <= previous).all()
        previous = bonferroni
        for j in range(1, m + 1):  # Simes: m times p_(j) / j, the engine's order
            simes = m * (p / j)
            assert (np.diff(simes) >= 0).all() and (simes >= (m - 1) * (p / j)).all()
            assert (np.diff(_quantile(simes)) <= 0).all()


def test_chunk_kernel_memory_is_bounded_by_the_block():
    scn = _k8_scenario("simes", follow_up=True)
    rng = np.random.default_rng(2)
    z1, z2 = rng.normal(size=(2, 4096, 8))
    cont = rng.random((4096, 8)) < 0.25
    _test_one(scn, z1, z2, cont, None)  # build the lattice outside the measurement
    tracemalloc.start()
    try:
        _test_one(scn, z1, z2, cont, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unblocked 4096 x 255 float array alone would take 8 MB
    assert peak < 16 * 2**20


def test_merging_holds_one_chunk_tally_at_a_time(monkeypatch):
    scn = replace(_k8_scenario("bonferroni"), replications=10**6)  # 245 chunks

    def fresh_tally(scenarios, start, stop):  # per scenario a 2 * 3^8-bin histogram, redraws and clamps
        tally = np.zeros((len(scenarios), 2 * 3**8 + 2), dtype=np.int64)
        tally[:, 0] = stop - start  # every row stops for futility
        return tally

    monkeypatch.setattr(engine, "_simulate_chunk", fresh_tally)
    tracemalloc.start()
    try:
        oc = run_scenario(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oc.futility_count == scn.replications
    # a list of all 245 tallies alone would take 25 MB
    assert peak < 8 * 2**20


SELECTION_RULES = {
    "all": SelectionRule("all"),
    "best-1": SelectionRule("best-1"),
    "best-2": SelectionRule("best-2"),
    "best-3": SelectionRule("best-3"),
    "epsilon-0": SelectionRule("epsilon", epsilon=0.0),
    "epsilon-0.5": SelectionRule("epsilon", epsilon=0.5),
    "threshold-0.5": SelectionRule("threshold", threshold=0.5),
    "threshold-minus-1": SelectionRule("threshold", threshold=-1.0),
    "random-1": SelectionRule("random-1"),
    "threshold-pair": SelectionRule("threshold-pair", limits=(0.0, 0.5)),
    "threshold-pair-equal": SelectionRule("threshold-pair", limits=(-0.5, -0.5)),
    "futility-pair": SelectionRule("futility-pair", limits=(0.0, 0.5)),
}


@pytest.mark.parametrize("rule", SELECTION_RULES.values(), ids=SELECTION_RULES.keys())
def test_chunk_selection_matches_the_scalar_selectors(rule):
    scn = subgroup_scenario(rule) if rule.is_subgroup_rule else treatment_scenario(rule)
    k, rows = scn.effects.comparisons, 400
    z = np.zeros((rows, 3 * k))
    # statistics on a 0.1 grid: ties are common and many land on the limits
    z[:, :k] = np.round(np.random.default_rng(5).normal(0.3, 1.0, size=(rows, k)), 1)
    z[0, :k] = 0.5                          # every arm tied, on a limit
    z[1, :k] = -np.arange(1.0, k + 1)       # every arm negative
    z[2, :2], z[3, :2] = (1.0, 1.5), (1.5, 1.0)  # differences of exactly +-0.5
    # each row's random-1 pick, from its own stream through the scalar selector
    random_1 = SelectionRule("random-1")
    rand_pick = np.array([min(select_treatments(z[row, :k], random_1, replication_stream(5, row)).continued) - 1
                          for row in range(rows)])
    cont = _select_chunk(scn, z, rand_pick)
    for row in range(rows):
        x = z[row, :k]
        if rule.is_subgroup_rule:
            outcome = select_population(-x[0], -x[1], rule)
        else:
            outcome = select_treatments(x, rule, replication_stream(5, row))
        assert {i + 1 for i in np.flatnonzero(cont[row])} == outcome.continued, row


# ---------------------------------------------------------------------------
# the engine agrees exactly with the scalar replay of tests/oracle.py


@pytest.mark.parametrize(
    "rule, method, follow_up",
    [
        (SelectionRule("best-2"), "bonferroni", False),
        (SelectionRule("threshold", threshold=0.8), "simes", False),
        (SelectionRule("random-1"), "bonferroni", False),
        (SelectionRule("best-1"), "bonferroni", True),
        (SelectionRule("epsilon", epsilon=0.5), "simes", False),
    ],
)
def test_engine_reproduces_the_single_replication_path(rule, method, follow_up):
    scn = treatment_scenario(rule, method=method, ptest=(2, 3), follow_up=follow_up)
    want, got = replay(scn), asdict(run_scenario(scn))
    assert {key: got[key] for key in want} == want


@pytest.mark.parametrize(
    "rule, method",
    [
        (SelectionRule("futility-pair", limits=(0.0, 0.0)), "simes"),
        (SelectionRule("threshold-pair", limits=(-0.1, 0.1)), "bonferroni"),
    ],
)
def test_engine_reproduces_the_subgroup_path(rule, method):
    for fixed in (True, False):
        scn = subgroup_scenario(rule, method=method, prevalence_fixed=fixed)
        want, got = replay(scn), asdict(run_scenario(scn))
        assert {key: got[key] for key in want} == want
        # the recorded expected sample size follows the branch counts exactly
        n = {name: row["n"] for name, row in got["subgroup_counts"].items()}
        manual = 2 * 100 + 2 * (200 * n["sub"] + 300 * (n["full"] + n["both"])) / scn.replications
        assert got["expected_total_sample_size"] == pytest.approx(manual, abs=1e-12)


def test_follow_up_changes_the_outcome_but_not_the_draws():
    base = treatment_scenario(SelectionRule("best-1"), reps=3000, seed=91)
    kept = run_scenario(replace(base, follow_up=True))
    dropped = run_scenario(base)
    # selection is identical; only the stage-2 evidence differs
    assert kept.selected_size_counts == dropped.selected_size_counts
    assert kept.arm_selected_counts == dropped.arm_selected_counts
    assert kept.hypothesis_rejected_counts != dropped.hypothesis_rejected_counts


# ---------------------------------------------------------------------------
# aggregate sanity


def test_ptest_union_brackets_its_members():
    scn = treatment_scenario(SelectionRule("best-2"), reps=4000, ptest=(2, 3))
    oc = run_scenario(scn)
    h2, h3 = oc.hypothesis_rejected_counts[1], oc.hypothesis_rejected_counts[2]
    assert max(h2, h3) <= oc.ptest_rejected_count <= h2 + h3
    assert oc.ptest_rejected_count <= oc.any_rejected_count
    assert max(oc.hypothesis_rejected_counts) <= oc.any_rejected_count


def test_power_increases_with_the_final_effect_sizes():
    base = treatment_scenario(SelectionRule("best-2"), reps=20_000, seed=5150)
    strong = replace(
        base,
        effects=replace(base.effects, final=tuple(1.5 * v for v in base.effects.final)),
    )
    weak_power = run_scenario(base).any_rejected_count
    strong_power = run_scenario(strong).any_rejected_count
    assert strong_power > weak_power


# ---------------------------------------------------------------------------
# sweeps


def test_single_point_sweep_equals_run_scenario():
    base = treatment_scenario(SelectionRule("threshold", threshold=1.0), reps=3000)
    (point,) = sweep(base, "threshold", [1.0])
    assert point.axis == "threshold"
    assert point.value == 1.0
    assert point.oc == run_scenario(base)


def test_sweep_points_share_the_configured_seed():
    base = treatment_scenario(SelectionRule("threshold", threshold=1.0), reps=3000)
    first, second = sweep(base, "threshold", [1.0, 1.0])
    assert first.oc == second.oc == run_scenario(base)  # same settings, same draws


def _sweep_cases():
    reps = engine.CHUNK_SIZE + 100  # two chunks, so that two workers start a pool
    yield pytest.param(treatment_scenario(SelectionRule("threshold", threshold=0.0), reps=reps),
                       "threshold", [0.0, 0.5, 1.0, 3.0], id="threshold")
    yield pytest.param(treatment_scenario(SelectionRule("best-2"), reps=reps),
                       "stage1-allocation", [30, 60, 90], id="stage1-allocation")
    limits = [(0.0, 0.0), (-1.0, 0.0), (0.0, -1.0), (-1.0, -1.0)]
    for fixed in (True, False):
        yield pytest.param(subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=reps,
                                             prevalence_fixed=fixed),
                           "futility-limits-grid", limits, id=f"futility-limits-{'fixed' if fixed else 'redrawn'}")


@pytest.mark.parametrize("base, axis, values", _sweep_cases())
def test_every_sweep_point_equals_its_own_run(pool_log, base, axis, values):
    # the points share the configured seed: common random numbers, computed once per chunk
    serial = sweep(base, axis, values, threads=1)
    parallel = sweep(base, axis, values, threads=2)
    assert pool_log["pools"] == 1
    assert [p.oc for p in serial] == [p.oc for p in parallel]
    for point in serial:
        assert point.scenario.master_seed == base.master_seed
        assert point.oc == run_scenario(point.scenario)


def test_a_threshold_sweep_selects_monotonically():
    base, axis, _ = parse_sweep_config((CONFIG_DIR / "copd_threshold_sweep.yaml").read_text())
    # steps of 0.02 move each count by less than its Monte Carlo error: only shared draws keep it monotone
    points = sweep(replace(base, replications=3000), axis, [3.0 + 0.02 * i for i in range(21)])
    for lower, higher in itertools.pairwise(p.oc for p in points):
        # a higher threshold continues a subset of the arms in every replication
        assert higher.futility_count >= lower.futility_count
        assert all(h <= lo for h, lo in zip(higher.arm_selected_counts, lower.arm_selected_counts))
    assert points[-1].oc.futility_count > points[0].oc.futility_count


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed-tau", "redrawn-tau"])
def test_lowering_a_futility_limit_never_lowers_futility(fixed):
    base = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=3000, prevalence_fixed=fixed)
    # steps of 0.05 move the count by less than its Monte Carlo error: only shared draws keep it monotone
    limits = [-0.05 * i for i in range(5)]
    points = sweep(base, "futility-limits-grid", [(ls, lf) for ls in limits for lf in limits])
    futility = np.array([p.oc.futility_count for p in points]).reshape(5, 5)  # [subgroup, full limit]
    assert (np.diff(futility, axis=0) >= 0).all() and (np.diff(futility, axis=1) >= 0).all()
    assert futility[-1, -1] > futility[0, 0]


def test_a_sweep_chunk_memory_is_bounded_by_the_block():
    # the 13 points of a K = 8 Simes threshold sweep share one chunk's draw, statistics and
    # stage-1 tables; each point's stage 2 runs in turn inside the same block loop
    base = replace(_k8_scenario("simes"), rule=SelectionRule("threshold", threshold=0.0), ptest=None)
    points = [replace(base, rule=SelectionRule("threshold", threshold=0.5 * i)) for i in range(13)]
    engine._simulate_chunk(points, 0, engine.CHUNK_SIZE)  # build the lattice outside the measurement
    tracemalloc.start()
    try:
        engine._simulate_chunk(points, 0, engine.CHUNK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernel test's bound for one point
    assert peak < 16 * 2**20


def test_stage1_allocation_sweep_preserves_the_budget():
    base = treatment_scenario(SelectionRule("best-2"), reps=500)
    base = replace(
        base,
        effects=EffectSpec(
            design="treatment",
            early=(0.0, 0.3, 0.5, 0.7, 0.6),
            final=(0.0, 0.10, 0.15, 0.20, 0.18),
            correlation=0.4,
        ),
        plan=SampleSizePlan(stage1_per_arm=100, stage2_per_arm=300),
    )
    points = sweep(base, "stage1-allocation", [40, 100, 160])
    plans = [p.scenario.plan for p in points]
    assert [(p.stage1_per_arm, p.stage2_per_arm) for p in plans] == [
        (40, 400),
        (100, 300),
        (160, 200),
    ]
    for p in plans:
        assert 5 * p.stage1_per_arm + 3 * p.stage2_per_arm == 1400


def test_sweep_validation_errors():
    base = treatment_scenario(SelectionRule("best-2"), reps=100)
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(base, "alpha", [0.025])
    with pytest.raises(ValueError, match="at least one"):
        sweep(base, "threshold", [])
    with pytest.raises(InfeasibleScenarioError, match="threshold selection rule"):
        sweep(base, "threshold", [1.0])
    with pytest.raises(InfeasibleScenarioError, match="futility-pair"):
        sweep(base, "futility-limits-grid", [(0.0, 0.0)])
    with pytest.raises(InfeasibleScenarioError, match="budget"):
        sweep(base, "stage1-allocation", [61])
    with pytest.raises(InfeasibleScenarioError, match="positive integers"):
        sweep(base, "stage1-allocation", [0])
    thresh = treatment_scenario(SelectionRule("threshold", threshold=1.0), reps=100)
    with pytest.raises(InfeasibleScenarioError, match="best-m"):
        sweep(thresh, "stage1-allocation", [30])
    # values of the wrong kind name the axis value too
    with pytest.raises(InfeasibleScenarioError, match="stage1-allocation inf"):
        sweep(base, "stage1-allocation", [float("inf")])
    sub = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=100)
    with pytest.raises(InfeasibleScenarioError, match="futility-limits-grid 0.5"):
        sweep(sub, "futility-limits-grid", [0.5])


def test_futility_limit_sweep_reruns_the_subgroup_rule():
    base = subgroup_scenario(SelectionRule("futility-pair", limits=(0.0, 0.0)), reps=800)
    points = sweep(base, "futility-limits-grid", [(0.0, 0.0), (-1.0, 0.0)])
    assert [p.scenario.rule.limits for p in points] == [(0.0, 0.0), (-1.0, 0.0)]
    # a stricter subgroup limit can only shrink the subgroup-side branches
    assert points[1].oc.subgroup_counts["sub"].n <= points[0].oc.subgroup_counts["sub"].n

