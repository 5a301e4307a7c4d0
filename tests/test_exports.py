"""The package's public names resolve and are exactly the documented ones."""

import importlib

import pytest

import seamsim

MODULES = ("statdist", "simmodel", "selection", "closedtest", "engine", "cli")

# the names the README's Python API example imports
README_NAMES = (
    "CombinationConfig",
    "EffectSpec",
    "SampleSizePlan",
    "Scenario",
    "SelectionRule",
    "TestSpec",
    "run_scenario",
)

# the scalar per-replication path that the test and benchmark oracles call
ORACLE_NAMES = (
    "replication_stream",
    "build_score_model",
    "sample_replication",
    "select_treatments",
    "select_population",
    "closed_test",
    "intersection_pvalue",
    "combine",
    "resolve_prevalence",
    "larger_is_better",
    "effect_to_expectation",
)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"seamsim.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_exports_resolve_and_keep_the_oracle_names():
    assert len(set(seamsim.__all__)) == len(seamsim.__all__)
    assert not [n for n in seamsim.__all__ if not hasattr(seamsim, n)]
    # exactly the documented names: a new package-level name is a deliberate
    # change to these lists
    assert set(seamsim.__all__) == {"__version__", *README_NAMES, *ORACLE_NAMES}
