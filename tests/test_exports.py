"""The package's public names resolve and are exactly the documented ones, the scalar
reference path stays apart from the engine, and the README's Python example and the
dotted names it cites still work."""

import ast
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

# the scalar per-replication path that the benchmark's oracle looks up on the package
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
    # change to this list
    assert set(seamsim.__all__) == {"__version__", *README_NAMES}
    # attributes, not exports, while the benchmark's oracle looks them up here
    assert not [n for n in ORACLE_NAMES if not hasattr(seamsim, n)]


SRC = Path(__file__).resolve().parents[1] / "src" / "seamsim"
TESTS = Path(__file__).resolve().parent


def _imports(path: Path) -> set:
    """The dotted names a file imports: modules, and what is taken from them."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative imports exist only inside the package
                module = f"seamsim.{module}" if module else "seamsim"
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)  # `from . import engine`
    return found


def test_the_reference_path_is_imported_by_the_package_alone_and_imports_no_engine():
    importers = {path.name for path in SRC.glob("*.py") if "seamsim._reference" in _imports(path)}
    assert importers == {"__init__.py"}
    for path in (SRC / "_reference.py", TESTS / "oracle.py"):
        assert not {"seamsim.engine", "seamsim.cli"} & _imports(path), path.name
    # the tests take the reference names from seamsim._reference, not from the package
    for path in TESTS.glob("*.py"):
        assert not {f"seamsim.{name}" for name in ORACLE_NAMES} & _imports(path), path.name


def _dotted(node) -> str:
    """``np.linalg.cholesky`` for the attribute chain of that name; '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def test_no_product_module_calls_linalg_or_kron():
    # the reference path alone factors a covariance, by LAPACK; the engine walks chol(U)'s closed form
    banned = ("np.linalg", "numpy.linalg", "scipy.linalg", "np.kron", "numpy.kron")
    for path in SRC.glob("*.py"):
        if path.name != "_reference.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {_dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)} | _imports(path)
            assert not sorted(name for name in used if name.startswith(banned)), path.name


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
                     "seamsim.simmodel.build_score_model", "seamsim._reference"}
    for dotted in sorted(names):
        _resolve(dotted)
