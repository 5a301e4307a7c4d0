"""The benchmark's four workloads.

Each workload turns the benchmark seed into its inputs (``build``), lists the
top-level operations one pass makes (``ops``), and names the scenarios whose
first replications are replayed through the per-replication oracle
(``oracle_scenarios``). An operation is one CLI invocation, one
``run_scenario`` call or one ``sweep`` call; its check returns the problems
found in its output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import yaml

import checks

CHUNK = 4096  # rows per engine chunk (seamsim.CHUNK_SIZE); ms_per_chunk is per CHUNK


def derive_seed(seed: int, label: str) -> int:
    """Scenario seed for one input of a workload: a 63-bit hash of (seed, label)."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Op:
    label: str
    replications: int
    call: Callable[[], object]
    check: Callable[[object], list]
    # comparable form of the output, to confirm a repeated pass reproduces it
    fingerprint: Callable[[object], object] = repr
    # the output's operating characteristics as dicts, for the diagnostics counts
    results: Callable[[object], list] = lambda oc: [asdict(oc)]


class Workload:
    name = ""
    why = ""
    # True: clear the package's caches before every operation (each one is a
    # separate process for its user); False: once per pass.
    cold_ops = False
    parallel = False

    def build(self, seamsim, seed: int, root: Path, workdir: Path):
        raise NotImplementedError

    def ops(self, seamsim, inputs, threads: int) -> list:
        raise NotImplementedError

    def oracle_scenarios(self, inputs) -> list:
        raise NotImplementedError


def _exact(scenario, intersection):
    """The scenario with an exactly evaluated intersection test, for the oracle."""
    return replace(scenario, test=replace(scenario.test, intersection=intersection))


def _plan(scenario):
    p = scenario.plan
    return (p.stage1_per_arm, p.stage2_per_arm, p.enrich_per_arm)


def _best(scenario):
    return scenario.rule.best_count if scenario.design == "treatment" else None


# ---------------------------------------------------------------------------


class PaperConfigs(Workload):
    name = "paper_configs"
    why = ("the six bundled configs through seamsim.cli.main, JSON output, 1 worker: "
           "the paper's designs as users run them; draw dominates, sweeps repeat prepare")
    cold_ops = True

    def build(self, seamsim, seed, root, workdir):
        inputs = []
        for path in sorted((root / "configs").glob("*.yaml")):
            doc = yaml.safe_load(path.read_text())
            doc["seed"] = derive_seed(seed, f"{self.name}/{path.stem}")
            config = workdir / path.name
            config.write_text(yaml.safe_dump(doc, sort_keys=False))
            if "sweep" in doc:
                command = ["sweep"]
                base = seamsim.cli.parse_sweep_config(dict(doc))[0]
            else:
                command = ["subpop" if "sprev" in doc else "treatsel", "run"]
                base = seamsim.cli.parse_config(dict(doc), "subgroup" if "sprev" in doc else "treatment")
            inputs.append((path.stem, command, config, doc, base))
        if not inputs:
            raise FileNotFoundError("no configs/*.yaml to run")
        return inputs

    def ops(self, seamsim, inputs, threads):
        cli = seamsim.cli
        ops = []
        for stem, command, config, doc, base in inputs:
            out = config.with_suffix(".out.json")
            argv = command + ["--config", str(config), "--format", "json",
                              "--out", str(out), "--threads", "1"]
            reps = doc["nsim"] * (len(doc["sweep"]["values"]) if "sweep" in doc else 1)

            def call(argv=argv, out=out):
                out.unlink(missing_ok=True)
                code = cli.main(argv)
                return code, out.read_bytes() if out.exists() else b""

            ops.append(Op(stem, reps, call,
                          lambda result, stem=stem, doc=doc, base=base: self._check(stem, doc, base, result),
                          fingerprint=lambda result: result, results=self._results))
        return ops

    @staticmethod
    def _results(result):
        if not result[1]:
            return []
        out = json.loads(result[1])
        return [p["oc"] for p in out["points"]] if "points" in out else [out]

    def _check(self, stem, doc, base, result):
        code, payload = result
        if code != 0:
            return [f"{stem}: exit code {code}"]
        out = json.loads(payload)
        plan = _plan(base)
        if "sweep" not in doc:
            return (checks.invariant_problems(out, plan, _best(base))
                    + checks.reference_problems(stem, out))
        points = out["points"]
        refs = checks.REFERENCES.get(stem)
        if refs is None or len(points) != len(refs):
            return [f"{stem}: {len(points)} sweep points, no reference for them"]
        problems = []
        for i, (point, ref) in enumerate(zip(points, refs)):
            oc = point["oc"]
            problems += checks.invariant_problems(oc, plan)
            if oc["design"] == "treatment":
                problems += checks.expected_size_problems(f"{stem}[{i}]", oc, plan, ref)
            else:
                problems += checks.subgroup_row_problems(f"{stem}[{i}]", oc, ref)
        return problems

    def oracle_scenarios(self, inputs):
        out = []
        for stem, command, config, doc, base in inputs:
            if command[0] == "sweep":
                continue
            exact = "simes" if base.design == "subgroup" else "bonferroni"
            out.append(replace(_exact(base, exact), replications=64))
        return out


# ---------------------------------------------------------------------------


class FwerGrid(Workload):
    name = "fwer_grid"
    why = ("acceptance criterion 7's 204 null configurations at 2048 replications, 1 worker: "
           "many short runs make prepare a large share; 204 latency samples")
    REPLICATIONS = 2048

    def build(self, seamsim, seed, root, workdir):
        s = seamsim
        runs = []
        plan = s.SampleSizePlan(100, 300)
        alt_early = (0.0, 0.3, 0.5, 0.7)
        alt_final = (0.0, 0.10, 0.15, 0.20)
        rules = (
            s.SelectionRule("all"),
            s.SelectionRule("best-1"),
            s.SelectionRule("best-2"),
            s.SelectionRule("best-3"),
            s.SelectionRule("epsilon", epsilon=1.0),
            s.SelectionRule("random-1"),
            s.SelectionRule("threshold", threshold=1.0),
        )
        for rule in rules:
            for intersection in ("dunnett", "bonferroni", "simes"):
                for method in ("inverse-normal", "fisher"):
                    config = s.CombinationConfig.from_sample_sizes(100, 300, method=method)
                    for null_arm in (None, 1, 2, 3):
                        if null_arm is None:
                            early = final = (0.0,) * 4
                        else:
                            early = tuple(0.0 if i == null_arm else v for i, v in enumerate(alt_early))
                            final = tuple(0.0 if i == null_arm else v for i, v in enumerate(alt_final))
                        effects = s.EffectSpec(design="treatment", early=early, final=final, correlation=0.4)
                        runs.append((effects, plan, rule, intersection, config, {}, null_arm))
        plan_s = s.SampleSizePlan(100, 300, enrich_per_arm=200)
        for rule in (
            s.SelectionRule("futility-pair", limits=(0.0, 0.0)),
            s.SelectionRule("threshold-pair", limits=(-0.1, 0.1)),
        ):
            for intersection in ("spiessens-debois", "bonferroni", "simes"):
                for method in ("inverse-normal", "fisher"):
                    config = s.CombinationConfig.from_sample_sizes(100, 300, method=method)
                    for hazards, which in (((1.0, 1.0), None), ((1.0, 0.9), "hs"), ((0.6, 1.0), "hf")):
                        effects = s.EffectSpec(design="subgroup", early=hazards, final=hazards,
                                               early_outcome="T", final_outcome="T", correlation=0.5)
                        runs.append((effects, plan_s, rule, intersection, config, {"prevalence": 0.3}, which))
        inputs = []
        for i, (effects, plan_, rule, intersection, config, extra, null) in enumerate(runs):
            scenario = s.Scenario(effects, plan_, rule, s.TestSpec(intersection, config),
                                  replications=self.REPLICATIONS,
                                  master_seed=derive_seed(seed, f"{self.name}/{i}"), **extra)
            inputs.append((f"{i:03d}", scenario, null))
        return inputs

    @staticmethod
    def errors(oc, null):
        """Rejections of true hypotheses: the familywise error count."""
        if oc.design == "treatment":
            return oc.any_rejected_count if null is None else oc.hypothesis_rejected_counts[null - 1]
        if null is None:
            return oc.union_rejected_count
        return sum(getattr(row, null) for row in oc.subgroup_counts.values())

    def ops(self, seamsim, inputs, threads):
        engine = seamsim.engine
        limit = checks.fwer_limit(self.REPLICATIONS, 0.025, len(inputs))
        ops = []
        for label, scenario, null in inputs:
            def check(oc, label=label, scenario=scenario, null=null):
                problems = checks.invariant_problems(oc, _plan(scenario), _best(scenario))
                errors = self.errors(oc, null)
                if errors > limit:
                    problems.append(f"run {label}: FWER {errors / oc.replications:.5f} above "
                                    f"{limit / oc.replications:.5f}")
                return problems

            ops.append(Op(label, scenario.replications,
                          lambda scenario=scenario: engine.run_scenario(scenario, threads=1), check))
        return ops

    def oracle_scenarios(self, inputs):
        # one run per selection rule, with an exact intersection test
        seen, out = set(), []
        for label, scenario, null in inputs:
            if scenario.rule in seen or scenario.test.intersection not in ("bonferroni", "simes"):
                continue
            seen.add(scenario.rule)
            out.append(replace(scenario, replications=64))
        return out


# ---------------------------------------------------------------------------


class K8ClosedTest(Workload):
    name = "k8_closedtest"
    why = ("eight-arm best-2 designs over every intersection test and combination, plus "
           "varying-prevalence CT-SD: 255 intersections per replication put the closed test first")

    def build(self, seamsim, seed, root, workdir):
        s = seamsim
        plan = s.SampleSizePlan(100, 300)
        effects = s.EffectSpec(
            design="treatment",
            early=(0.0, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7),
            final=(0.0, 0.05, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20),
            correlation=0.4,
        )
        best2 = s.SelectionRule("best-2")
        designs = []
        for intersection in ("dunnett", "simes", "bonferroni"):
            for method in ("inverse-normal", "fisher"):
                config = s.CombinationConfig.from_sample_sizes(100, 300, method=method)
                designs.append((f"{intersection}-{method}", intersection, config, {}))
        spend = s.CombinationConfig.from_sample_sizes(100, 300, alpha1=0.005)
        designs.append(("dunnett-alpha1", "dunnett", spend, {}))
        plain = s.CombinationConfig.from_sample_sizes(100, 300)
        designs.append(("simes-follow-up", "simes", plain, {"follow_up": True}))
        inputs = []
        for label, intersection, config, extra in designs:
            inputs.append((label, s.Scenario(
                effects, plan, best2, s.TestSpec(intersection, config), replications=CHUNK,
                master_seed=derive_seed(seed, f"{self.name}/{label}"), ptest=(7, 8), **extra)))
        onc = s.cli.parse_config((root / "configs" / "oncology.yaml").read_text(), "subgroup")
        inputs.append(("oncology-varying", replace(
            onc, prevalence_fixed=False, replications=CHUNK,
            master_seed=derive_seed(seed, f"{self.name}/oncology-varying"))))
        return inputs

    def ops(self, seamsim, inputs, threads):
        engine = seamsim.engine
        return [
            Op(label, scenario.replications,
               lambda scenario=scenario: engine.run_scenario(scenario, threads=1),
               lambda oc, scenario=scenario: checks.invariant_problems(oc, _plan(scenario), _best(scenario)))
            for label, scenario in inputs
        ]

    def oracle_scenarios(self, inputs):
        out = []
        for label, scenario in inputs:
            if scenario.design == "subgroup":
                out.append(replace(_exact(scenario, "simes"), replications=24))
            elif label in ("simes-inverse-normal", "bonferroni-fisher", "simes-follow-up"):
                out.append(replace(scenario, replications=24))
            elif label == "dunnett-alpha1":
                out.append(replace(_exact(scenario, "bonferroni"), replications=8))
        return out


# ---------------------------------------------------------------------------


class ParallelLarge(Workload):
    name = "parallel_large"
    why = ("copd_setting1 at 50 chunks plus the 13-point threshold sweep, both at one worker "
           "per CPU with BLAS threads as found: the only workload through the process pool")
    parallel = True
    CHUNKS = 50

    def build(self, seamsim, seed, root, workdir):
        cli = seamsim.cli
        large = cli.parse_config((root / "configs" / "copd_setting1.yaml").read_text(), "treatment")
        large = replace(large, replications=self.CHUNKS * CHUNK,
                        master_seed=derive_seed(seed, f"{self.name}/copd_setting1"))
        base, axis, values = cli.parse_sweep_config(
            (root / "configs" / "copd_threshold_sweep.yaml").read_text())
        base = replace(base, master_seed=derive_seed(seed, f"{self.name}/copd_threshold_sweep"))
        return large, (base, axis, values)

    def ops(self, seamsim, inputs, threads):
        engine = seamsim.engine
        large, (base, axis, values) = inputs
        refs = checks.REFERENCES["copd_threshold_sweep"]

        def check_large(oc):
            return (checks.invariant_problems(oc, _plan(large), _best(large))
                    + checks.reference_problems("copd_setting1", oc))

        def check_sweep(points):
            if len(points) != len(refs):
                return [f"sweep returned {len(points)} points, expected {len(refs)}"]
            problems = []
            for i, (point, ref) in enumerate(zip(points, refs)):
                problems += checks.invariant_problems(point.oc, _plan(point.scenario))
                problems += checks.expected_size_problems(f"threshold sweep[{i}]", point.oc,
                                                          _plan(point.scenario), ref)
            return problems

        return [
            Op("copd_setting1", large.replications,
               lambda: engine.run_scenario(large, threads=threads), check_large),
            Op("copd_threshold_sweep", base.replications * len(values),
               lambda: engine.sweep(base, axis, values, threads=threads), check_sweep,
               fingerprint=lambda points: [p.oc for p in points],
               results=lambda points: [asdict(p.oc) for p in points]),
        ]

    def oracle_scenarios(self, inputs):
        large, (base, axis, values) = inputs
        return [replace(_exact(large, "bonferroni"), replications=64),
                replace(_exact(base, "bonferroni"), replications=64)]


WORKLOADS = {w.name: w for w in (PaperConfigs(), FwerGrid(), K8ClosedTest(), ParallelLarge())}
