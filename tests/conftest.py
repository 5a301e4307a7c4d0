"""Shared test fixtures.

Acceptance tests record one verdict line each; the lines are echoed as a
separate section after the normal pytest summary so a full run always ends
with a compact pass/fail table of the acceptance criteria.

``engine_law`` reads the joint normal law the engine draws a design's
statistics from, through the engine's own statistics step.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from seamsim.engine import _statistics
from seamsim.simmodel import larger_is_better

_LINES = []


@pytest.fixture
def criterion():
    """Record a one-line verdict for an acceptance criterion, then assert it."""

    def _record(number: int, ok: bool, detail: str) -> None:
        _LINES.append(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {number}: {detail}"

    return _record


@pytest.fixture
def engine_law():
    """(mean, factor) of the statistics ``engine._statistics`` draws for a design, in natural signs: the
    mean is its statistics of a zero row, and factor column i those of the i-th unit normal less the mean."""

    def _law(spec, plan, prevalence=None):
        size = 3 * spec.comparisons
        design = SimpleNamespace(effects=spec, plan=plan, prevalence=prevalence)  # what _statistics reads
        z, _ = _statistics(design, np.vstack([np.zeros(size), np.eye(size)]), None)
        sign = np.repeat([1.0 if larger_is_better(spec.design, code) else -1.0
                          for code in (spec.early_outcome, spec.final_outcome, spec.final_outcome)],
                         spec.comparisons)
        return sign * z[0], sign[:, None] * (z[1:] - z[0]).T

    return _law


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)
