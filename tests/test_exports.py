"""The package's public names resolve and are exactly the documented ones, and the README's
Python example and the dotted names it cites still work."""

import importlib
import re
from pathlib import Path

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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_prints_one_rate(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 <= float(printed[0]) <= 1.0


def _resolve(dotted: str):
    module, *attributes = dotted.split(".")
    value = importlib.import_module(module)
    for attribute in attributes:
        value = getattr(value, attribute)
    return value


def test_readme_dotted_names_resolve():
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"seamsim(?:\.\w+)+", text))
    # `seamsim.cli.render_report` / `export_csv`: a bare name after a slash is in the same module
    for dotted, rest in re.findall(r"`(seamsim(?:\.\w+)+)`((?:\s*/\s*`\w+`)+)", text):
        names.update(f"{dotted.rsplit('.', 1)[0]}.{name}" for name in re.findall(r"`(\w+)`", rest))
    assert names >= {"seamsim.engine.sweep", "seamsim.engine.CHUNK_SIZE", "seamsim.cli.render_report",
                     "seamsim.cli.export_csv", "seamsim.cli.export_json",
                     "seamsim.simmodel.build_score_model", "seamsim.replication_stream"}
    for dotted in sorted(names):
        _resolve(dotted)
