"""Per-layer tracing of seamsim from outside the package.

The tracer substitutes module attributes of ``seamsim.engine`` and
``seamsim.cli`` with timing or counting wrappers and puts every original back
when it is closed, also when the traced code raised. Nothing in the package
is edited: stage functions are reached through the module globals their
callers look up at call time.

Two kinds of wrapper exist:

* a *span* records (layer, start, end, parent) for one call; a layer's self
  time is its spans' durations minus the time their child spans cover;
* a *counter* adds a work count derived from the call's arguments (points
  evaluated, rows, calls) without timing it.

A target that the package no longer has (a later change may rename or remove
a stage function) is recorded as absent and skipped; the run goes on.
"""

from __future__ import annotations

import pickle
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, layer). Root layers enclose everything an operation does,
# so the layers' self times add up to the traced wall time.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "cli.parse"),
    ("cli", "parse_sweep_config", "cli.parse"),
    ("cli", "export_json", "cli.export"),
    ("cli", "export_sweep_json", "cli.export"),
    ("cli", "run_scenario", "engine.dispatch"),
    ("cli", "sweep", "engine.dispatch"),
    ("engine", "sweep", "engine.dispatch"),
    ("engine", "run_scenario", "engine.dispatch"),
    ("engine", "_prepare", "engine.prepare"),
    # _simulate_chunk's own code, outside the stages it calls, counts the tallies
    ("engine", "_simulate_chunk", "engine.tally"),
    ("engine", "_draw_chunk", "engine.draw"),
    ("engine", "_statistics", "engine.statistics"),
    ("engine", "_select_chunk", "engine.select"),
    ("engine", "_random_pick_mask", "engine.select"),
    ("engine", "_test_chunk", "engine.closedtest"),
    ("engine", "_merge_tallies", "engine.tally"),
)


def _points(args, kwargs):
    return int(np.broadcast(*(np.asarray(a) for a in args[:2])).size)


def _equicorr_points(args, kwargs):
    return int(np.size(args[2] if len(args) > 2 else kwargs["z"]))


def _one(args, kwargs):
    return 1


def _rows(args, kwargs):
    return int(np.size(args[0]))


def _intersections(args, kwargs):
    # _test_chunk(pre, z1, ...): z1 is (rows, K) and the family has 2^K - 1 members
    return (1 << int(np.shape(args[1])[1])) - 1


# (module, attribute, counter name, count function)
COUNTERS = (
    ("engine", "replication_stream", "statdist.replication_stream.calls", _one),
    ("engine", "equicorr_max_cdf", "statdist.equicorr_max_cdf.points", _equicorr_points),
    ("engine", "bvn_cdf", "statdist.bvn_cdf.points", _points),
    ("engine", "spending_boundaries", "closedtest.spending_boundaries.calls", _one),
    ("engine", "build_score_model", "simmodel.build_score_model.calls", _one),
    ("engine", "_bvn_equal_coords", "engine.closedtest.bvn_rows", _rows),
    ("engine", "_test_chunk", "engine.closedtest.intersections", _intersections),
    ("engine", "_prepare", "engine.prepare.calls", _one),
    ("engine", "_simulate_chunk", "engine.chunks", _one),
)

# the span whose work runs in a pool worker at threads > 1
CHUNK_ROOT = "engine._simulate_chunk"


class Tracer:
    """Install span and counter wrappers on the given modules; undo on close.

    Use as a context manager::

        with Tracer({"engine": seamsim.engine, "cli": seamsim.cli}) as tr:
            ...
        tr.self_times()   # layer -> seconds
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []            # [layer, start, end, parent index, target]
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._saved = []           # (module, attribute, original)

    def __enter__(self):
        targets = {(mod, attr): (layer, []) for mod, attr, layer in SPANS}
        for mod, attr, name, count in COUNTERS:
            targets.setdefault((mod, attr), (None, []))[1].append((name, count))
        try:
            for (mod, attr), (layer, counters) in targets.items():
                self._install(mod, attr, layer, counters)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        """Put every substituted attribute back, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _install(self, mod, attr, layer, counters):
        module = self.modules.get(mod)
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent += [name for name, _ in counters]
            if layer is not None:
                self.absent.append(f"{mod}.{attr}")
            return
        wrapped = original
        for name, count in counters:
            wrapped = self._counter(name, count, wrapped)
        if layer is not None:
            wrapped = self._span(layer, f"{mod}.{attr}", wrapped)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapped)

    def _span(self, layer, target, fn):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            index = len(spans)
            record = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, target]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()

        span.__wrapped__ = fn
        return span

    def _counter(self, name, count, fn):
        counts, absent = self.counts, self.absent

        def counter(*args, **kwargs):
            try:
                counts[name] += count(args, kwargs)
            except (TypeError, KeyError, IndexError, ValueError):
                if name not in absent:  # the call's arguments no longer fit
                    absent.append(name)
            return fn(*args, **kwargs)

        counter.__wrapped__ = fn
        return counter

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Layer -> self time in seconds (span time not covered by child spans)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return dict(out)

    def inclusive_time(self, target: str) -> float:
        """Total time of the outermost spans of one wrapped target."""
        total = 0.0
        for layer, start, end, parent, name in self.spans:
            if name == target and (parent < 0 or self.spans[parent][4] != target):
                total += end - start
        return total


class PoolCounter:
    """Count process pools, submitted tasks and task size in ``engine``.

    Substitutes ``engine.ProcessPoolExecutor`` with a subclass; the pool's
    behaviour is unchanged. ``task_bytes`` is the pickled size of the first
    work item submitted to each pool (the largest is kept).
    """

    def __init__(self, engine):
        self.engine = engine
        self.pool_starts = 0
        self.tasks = 0
        self.task_bytes = 0
        self.absent = []
        self._original = None

    def __enter__(self):
        base = getattr(self.engine, "ProcessPoolExecutor", None)
        if base is None:
            self.absent.append("engine.ProcessPoolExecutor")
            return self
        counter = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counter.pool_starts += 1
                self._sized = False

            def submit(self, fn, /, *args, **kwargs):
                counter.tasks += 1
                if not self._sized:
                    self._sized = True
                    counter.task_bytes = max(counter.task_bytes, len(pickle.dumps(args)))
                return super().submit(fn, *args, **kwargs)

        self._original = base
        self.engine.ProcessPoolExecutor = CountingPool
        return self

    def __exit__(self, *exc):
        if self._original is not None:
            self.engine.ProcessPoolExecutor = self._original
            self._original = None
        return False
