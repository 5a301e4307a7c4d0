"""Benchmark for seamsim: end-to-end throughput and latency, per-layer time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_configs --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; the run fails
(exit code 2, no result) when it is not there. With ``--trace 0`` the run
repeats passes over the workload's operations until ``--seconds`` have
passed, checks every output, and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes at one worker and
reports the per-layer metrics; ``parallel_large`` adds an untraced pass at
one worker per CPU for the dispatch figures. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Machine facts and the full record go to
``.bench_work/results/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import machine
from tracing import CHUNK_ROOT, PoolCounter, Tracer
from workloads import CHUNK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3

END_TO_END = {
    "reps_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "engine.prepare", "engine.draw", "engine.statistics", "engine.select",
    "engine.closedtest", "engine.tally", "engine.dispatch",
)
CHUNK_LAYERS = ("engine.draw", "engine.statistics", "engine.select", "engine.closedtest")
COUNTS = (
    "statdist.replication_stream.calls", "engine.prepare.calls",
    "statdist.equicorr_max_cdf.points", "statdist.bvn_cdf.points",
    "closedtest.spending_boundaries.calls", "simmodel.build_score_model.calls",
    "engine.closedtest.intersections", "engine.closedtest.bvn_rows", "engine.chunks",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.ms_per_chunk": "ms" for layer in CHUNK_LAYERS},
    **{name: "count" for name in COUNTS},
    "oc.clamped_pvalues": "count",
    "oc.prevalence_redraws": "count",
    "engine.dispatch.tasks": "count",
    "engine.dispatch.pool_starts": "count",
    "engine.dispatch.task_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "1",
}
# Times of layers that only one workload runs (the CLI in paper_configs, the
# pool in parallel_large). They are printed and recorded, not put in the JSON
# metrics, where the other workloads would report a time of exactly 0.
WORKLOAD_LAYER = {
    "cli.main.self_s": "s",
    "cli.parse.self_s": "s",
    "cli.export.self_s": "s",
    "engine.dispatch.overhead_s": "s",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import seamsim from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "seamsim" / "__init__.py").is_file():
        _fail(f"no seamsim package under {src}")
    if not (ROOT / "configs").is_dir():
        _fail(f"no configs directory under {ROOT}")
    sys.path.insert(0, str(src))
    import seamsim
    import seamsim.cli
    import seamsim.engine

    if Path(seamsim.__file__).resolve().parent != (src / "seamsim").resolve():
        _fail(f"imported seamsim from {seamsim.__file__}, not from {src}")
    return seamsim


def reset_caches() -> None:
    """Clear every functools cache in the package, as a new process would start."""
    for name, module in list(sys.modules.items()):
        if name == "seamsim" or name.startswith("seamsim."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Ledger:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}    # label -> fingerprint of the first pass's output
        self.last = {}     # label -> latest result

    def record(self, op, result, error):
        self.attempted += 1
        self.last[op.label] = result
        if error is not None:
            found = [f"{op.label}: raised {error}"]
        else:
            try:
                found = op.check(result)
                fingerprint = op.fingerprint(result)
                if self.first.setdefault(op.label, fingerprint) != fingerprint:
                    found.append(f"{op.label}: output differs from the first pass")
            except Exception:  # a broken output is a failed operation, not a crash
                found = [f"{op.label}: check raised {traceback.format_exc(limit=2)}"]
        if found:
            self.failed += 1
            self.problems.extend(found)


def run_pass(workload, ops, ledger):
    """One pass over the operations. Returns (op wall times, replications)."""
    reset_caches()
    times, done = [], []
    for op in ops:
        if workload.cold_ops:
            reset_caches()
        error = result = None
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        done.append((op, result, error))
    for op, result, error in done:
        ledger.record(op, result, error)
    return times, sum(op.replications for op in ops)


def measure_setup(workload_name: str, seed: int, workdir: Path) -> list:
    """Wall time of fresh processes that import the package and build the inputs."""
    out = []
    for i in range(SETUP_PROBES):
        probe = workdir / f"probe-{i}"
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(probe),
             "--workload", workload_name, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        out.append(time.perf_counter() - start)
        shutil.rmtree(probe, ignore_errors=True)
    return out


def keep_going(start, last, seconds):
    """Start another pass while it should end within half a pass of the deadline."""
    return time.perf_counter() - start + last / 2 <= seconds


def timed_run(seamsim, workload, inputs, seconds, ledger):
    threads = machine.worker_count() if workload.parallel else 1
    ops = workload.ops(seamsim, inputs, threads)
    passes = []
    start = time.perf_counter()
    while not passes or keep_going(start, sum(passes[-1]), seconds):
        passes.append(run_pass(workload, ops, ledger)[0])
    # per-operation medians over the passes, so one slow pass does not set the rate
    typical = [statistics.median(times[i] for times in passes) for i in range(len(ops))]
    replications = sum(op.replications for op in ops)
    op_times = [t for times in passes for t in times]
    info = {"passes": len(passes), "operations": len(op_times), "threads": threads,
            "replications_per_pass": replications,
            "pass_seconds": [sum(times) for times in passes]}
    if len(op_times) >= 200:
        info["op_p95_s"] = statistics.quantiles(op_times, n=20)[18]
    return {
        "reps_per_s": replications / sum(typical),
        "op_p50_s": statistics.median(op_times),
    }, info


def traced_run(seamsim, workload, inputs, seconds, ledger):
    modules = {"engine": seamsim.engine, "cli": seamsim.cli}
    ops = workload.ops(seamsim, inputs, 1)
    samples, absent = [], set()
    start = time.perf_counter()
    while not samples or keep_going(start, samples[-1]["pair_s"], seconds):
        pair_start = time.perf_counter()
        untraced, reps = run_pass(workload, ops, ledger)
        with Tracer(modules) as tracer:
            traced, _ = run_pass(workload, ops, ledger)
        absent.update(tracer.absent)
        wall = sum(traced)
        selfs = tracer.self_times()
        m = {f"{layer}.self_s": selfs.get(layer, 0.0)
             for layer in LAYERS + ("cli.main", "cli.parse", "cli.export")}
        for layer in CHUNK_LAYERS:
            m[f"{layer}.ms_per_chunk"] = 1e3 * selfs.get(layer, 0.0) * CHUNK / reps
        for name in COUNTS:
            m[name] = tracer.counts.get(name, 0)
        m["trace.wall_s"] = wall
        m["trace.overhead_s"] = wall - sum(untraced)
        m["trace.unattributed_share"] = 1.0 - sum(selfs.values()) / wall
        m["oc.clamped_pvalues"], m["oc.prevalence_redraws"] = diagnostics(ops, ledger)
        m.update({"engine.dispatch.tasks": 0, "engine.dispatch.pool_starts": 0,
                  "engine.dispatch.task_bytes": 0, "engine.dispatch.overhead_s": 0.0})
        if workload.parallel:
            workers = machine.worker_count()
            par_ops = workload.ops(seamsim, inputs, workers)
            with PoolCounter(seamsim.engine) as pool:
                parallel, _ = run_pass(workload, par_ops, ledger)
            absent.update(pool.absent)
            # ideal wall: the serial part of the untraced one-worker pass plus
            # its chunk work spread over the workers
            chunk_work = tracer.inclusive_time(CHUNK_ROOT)
            ideal = sum(untraced) - chunk_work + chunk_work / workers
            m.update({"engine.dispatch.tasks": pool.tasks,
                      "engine.dispatch.pool_starts": pool.pool_starts,
                      "engine.dispatch.task_bytes": pool.task_bytes,
                      "engine.dispatch.overhead_s": sum(parallel) - ideal})
        m["pair_s"] = time.perf_counter() - pair_start
        samples.append(m)
    # counts repeat exactly from pair to pair; times take the median
    metrics = {name: (statistics.median_low if unit in ("count", "B") else statistics.median)(
        s[name] for s in samples) for name, unit in PER_LAYER.items()}
    workload_layer = {name: statistics.median(s[name] for s in samples) for name in WORKLOAD_LAYER}
    return metrics, {"pairs": len(samples), "absent": sorted(absent), "workload_layer": workload_layer}


def diagnostics(ops, ledger):
    """Clamped p-values and prevalence redraws over the last pass's results."""
    clamps = redraws = 0
    for op in ops:
        result = ledger.last.get(op.label)
        for oc in op.results(result) if result is not None else ():
            clamps += oc["clamped_pvalues"]
            redraws += oc["prevalence_redraws"]
    return clamps, redraws


def oracle_check(seamsim, workload, inputs):
    missing = checks.oracle_available(seamsim)
    if missing:
        return {"status": f"absent: {', '.join(missing)}", "problems": []}
    problems, reps = [], 0
    for scenario in workload.oracle_scenarios(inputs):
        oc = seamsim.engine.run_scenario(scenario, threads=1)
        problems += checks.oracle_problems(seamsim, scenario, oc)
        reps += scenario.replications
    return {"status": f"{reps} replications replayed", "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    seamsim = import_package()
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        probe = Path(args.setup_probe)
        probe.mkdir(parents=True, exist_ok=True)
        workload.build(seamsim, args.seed, ROOT, probe)
        return 0

    # BLAS threads give the one-worker workloads no speed-up here but +-12 %
    # run-to-run jitter, so they run on one; parallel_large keeps the
    # environment's setting, where extra BLAS threads per worker are a defect
    # to be seen.
    blas_limited = not workload.parallel and machine.set_blas_threads(1)
    work = ROOT / ".bench_work"
    workdir = work / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        inputs = workload.build(seamsim, args.seed, ROOT, workdir)
        if args.trace:
            metrics, info = traced_run(seamsim, workload, inputs, args.seconds, ledger)
            units = PER_LAYER
        else:
            setup = measure_setup(workload.name, args.seed, workdir)
            metrics, info = timed_run(seamsim, workload, inputs, args.seconds, ledger)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            info["setup_samples"] = setup
            units = END_TO_END
        oracle = oracle_check(seamsim, workload, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = machine.facts(ROOT, args.seed)
    env["blas_threads_limited_by_benchmark"] = blas_limited
    failed_share = ledger.failed / max(ledger.attempted, 1)
    correct = ledger.failed == 0 and not oracle["problems"] and ledger.attempted > 0
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "correct": correct,
        "attempted": ledger.attempted, "failed": ledger.failed, "failed_share": failed_share,
        "metrics": metrics, "info": info, "oracle": oracle, "problems": ledger.problems[:50],
        "environment": env,
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {units[name]}")
    for name, value in info.get("workload_layer", {}).items():
        print(f"  {name:40s} {value:>14.6g} {WORKLOAD_LAYER[name]}")
    if "op_p95_s" in info:
        print(f"  {'op_p95_s':40s} {info['op_p95_s']:>14.6g} s  ({info['operations']} operations)")
    print(f"  {'failed_share':40s} {failed_share:>14.6g}    ({ledger.failed}/{ledger.attempted})")
    print(f"  oracle: {oracle['status']}")
    for problem in (ledger.problems + oracle["problems"])[:10]:
        print(f"  problem: {problem}")
    print("  info: " + json.dumps(info, default=str))
    print("  environment: " + json.dumps(env))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
