"""The package's public names resolve, including those the oracles replay with."""

import importlib

import pytest

import seamsim

MODULES = ("statdist", "simmodel", "selection", "closedtest", "engine", "cli")

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
    assert set(ORACLE_NAMES) <= set(seamsim.__all__)
