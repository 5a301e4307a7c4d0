"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest perfbench/bench_selftest.py

The file name keeps these tests out of the package's default test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest
import yaml

import checks
import run
import tracing
from workloads import WORKLOADS, derive_seed

seamsim = run.import_package()
engine, cli = seamsim.engine, seamsim.cli


def _small(name, design, replications):
    text = (run.ROOT / "configs" / name).read_text()
    return replace(cli.parse_config(text, design), replications=replications)


def test_corrupted_tallies_fail_their_checks():
    scenario = _small("copd_setting1.yaml", "treatment", 2000)
    oc = engine.run_scenario(scenario)
    plan = (100, 300, None)
    assert checks.invariant_problems(oc, plan, best_count=2) == []

    arms = oc.arm_selected_counts
    too_many = replace(oc, hypothesis_rejected_counts=(arms[0] + 1,) + oc.hypothesis_rejected_counts[1:])
    assert checks.invariant_problems(too_many, plan, best_count=2)
    outside = replace(oc, ptest_rejected_count=oc.any_rejected_count + 1)
    assert checks.invariant_problems(outside, plan, best_count=2)
    wrong_size = replace(oc, expected_total_sample_size=oc.expected_total_sample_size + 1.0)
    assert checks.invariant_problems(wrong_size, plan, best_count=2)
    # a power 20 points off the published value fails at any replication count
    low_power = replace(oc, ptest_rejected_count=int(0.65 * oc.replications))
    assert checks.reference_problems("copd_setting1", low_power)

    fwer = WORKLOADS["fwer_grid"]
    inputs = fwer.build(seamsim, 7, run.ROOT, None)
    op = fwer.ops(seamsim, inputs[:1], 1)[0]
    good = op.call()
    assert op.check(good) == []
    bad = replace(good, any_rejected_count=good.replications // 10,
                  hypothesis_rejected_counts=(good.replications // 10,) * 3)
    assert any("FWER" in p for p in op.check(bad))


def test_oracle_flags_a_corrupted_tally():
    scenario = _small("copd_threshold.yaml", "treatment", 40)
    scenario = replace(scenario, test=replace(scenario.test, intersection="bonferroni"))
    oc = engine.run_scenario(scenario)
    assert checks.oracle_problems(seamsim, scenario, oc) == []
    counts = oc.arm_selected_counts
    shifted = replace(oc, arm_selected_counts=(counts[0] + 1,) + counts[1:])
    assert checks.oracle_problems(seamsim, scenario, shifted)


def test_seed_argument_changes_scenario_seeds(tmp_path):
    assert derive_seed(1, "a") == derive_seed(1, "a") != derive_seed(2, "a")
    for name, workload in WORKLOADS.items():
        seeds = {}
        for seed in (1, 1, 2):
            workdir = tmp_path / f"{name}-{seed}-{len(seeds)}"
            workdir.mkdir()
            inputs = workload.build(seamsim, seed, run.ROOT, workdir)
            got = [s.master_seed for s in workload.oracle_scenarios(inputs)]
            assert got, name
            if seed in seeds:
                assert got == seeds[seed], name
            seeds[seed] = got
        assert not set(seeds[1]) & set(seeds[2]), name


def _attributes(*modules):
    return [{k: id(v) for k, v in vars(m).items()} for m in modules]


def test_trace_wrappers_restore_the_engine_functions():
    before = _attributes(engine, cli)
    original = engine._draw_chunk
    scenario = _small("oncology.yaml", "subgroup", 300)
    with pytest.raises(RuntimeError):
        with tracing.Tracer({"engine": engine, "cli": cli}) as tracer:
            assert engine._draw_chunk is not original
            engine.run_scenario(scenario)
            raise RuntimeError("stop inside the traced block")
    assert _attributes(engine, cli) == before
    assert tracer.absent == []
    selfs = tracer.self_times()
    assert selfs["engine.draw"] > 0 and selfs["engine.prepare"] > 0
    assert tracer.counts["statdist.replication_stream.calls"] == 300
    assert tracer.counts["engine.closedtest.intersections"] == 3

    pool_class = engine.ProcessPoolExecutor
    with tracing.PoolCounter(engine) as pool:
        assert engine.ProcessPoolExecutor is not pool_class
    assert _attributes(engine, cli) == before
    assert pool.pool_starts == 0


def test_missing_trace_targets_are_reported_absent():
    stripped = types.ModuleType("engine")
    stripped.run_scenario = engine.run_scenario
    with tracing.Tracer({"engine": stripped}) as tracer:
        assert stripped.run_scenario is not engine.run_scenario
    assert stripped.run_scenario is engine.run_scenario
    assert "statdist.replication_stream.calls" in tracer.absent
    assert "engine._draw_chunk" in tracer.absent
    assert "cli.main" in tracer.absent


@pytest.mark.parametrize("config, command, nsim", [
    ("copd_setting1.yaml", ["treatsel", "run"], 2 * 4096 + 17),
    ("oncology.yaml", ["subpop", "run"], 2 * 4096 + 5),
])
def test_exports_are_byte_identical_at_one_and_two_workers(tmp_path, config, command, nsim):
    doc = yaml.safe_load((run.ROOT / "configs" / config).read_text())
    doc["nsim"] = nsim
    path = tmp_path / config
    path.write_text(yaml.safe_dump(doc))
    outputs = {}
    for fmt in ("csv", "json"):
        for threads in (1, 2):
            out = tmp_path / f"{fmt}-{threads}"
            argv = command + ["--config", str(path), "--format", fmt, "--out", str(out),
                              "--threads", str(threads)]
            assert cli.main(argv) == 0
            outputs[fmt, threads] = out.read_bytes()
        assert outputs[fmt, 1] == outputs[fmt, 2]
    assert json.loads(outputs["json", 1])["replications"] == nsim


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_configs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
