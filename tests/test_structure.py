"""Layout rules for the package: its source, checked on its syntax tree, and its runtime imports."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import condorcet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "condorcet"
MODULES = ("asymptotic", "core", "culture", "exact", "montecarlo", "orthant")
EXPORTS = (
    "TABLE1", "Culture", "CultureFormatError", "CorrelationMatrixError", "DEFAULT_COMPOSITION_BUDGET",
    "DegenerateVarianceError", "EnumerationBudgetError", "Method", "Table1AuditRow", "Table1Row",
    "WinnerMode", "WinnerProbability", "audit_table1", "candidate_pairs",
    "classify_m3", "correlation_matrix", "culture_from_csv", "culture_from_json", "culture_to_csv",
    "culture_to_json", "cyclic_minimizer_culture", "equicorrelated_orthant",
    "exact_winner_probability", "ic_curve", "ic_limit_closed", "ic_limit_sampford", "impartial_culture",
    "is_dual_culture", "lambda_matrix", "limiting_probability", "load_culture_file", "may_bound",
    "mc_convergence_sweep", "minimum_table", "minimum_winner_probability",
    "order_index", "orthants_mc", "pair_signs", "save_culture",
    "sign_pattern_culture", "tie_probability",
)
# Public names that nothing in the package reads, kept for callers of the library: the paper's
# quantities (lambda_ij, R_i, May's bound, the pairwise tie) and the printed closed forms of the
# uniform limit, the reference implementation for m = 3..7.
LIBRARY_API = ("lambda_matrix", "correlation_matrix", "may_bound", "tie_probability", "ic_limit_closed")


def _private_imports(path: Path) -> list[str]:
    """Underscore names that a module imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "condorcet":
            continue
        found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    # A private helper needed by two modules belongs in a module both import,
    # under a public name; reaching into another module's internals is how
    # duplicated machinery grows back.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    offenders = {path.name: _private_imports(path) for path in modules}
    assert {name: names for name, names in offenders.items() if names} == {}


def test_runtime_needs_numpy_only():
    # scipy is a test dependency: the command line must start without importing it.
    probe = "import sys, condorcet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
    block = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    names = [re.split(r"[<>=!~ ;\[]", d)[0] for d in re.findall(r'"([^"]+)"', block.group(1))]
    assert names == ["numpy"]


def _defined_names(tree: ast.Module) -> tuple[list[str] | None, set[str]]:
    """A module's ``__all__`` (which must be a literal) and the names its own top level defines."""
    listed, defined = None, set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                listed = ast.literal_eval(node.value)
            defined |= set(names)
    return listed, defined


@pytest.mark.parametrize("module", MODULES)
def test_module_lists_public_names_it_defines(module):
    listed, defined = _defined_names(ast.parse((PACKAGE / f"{module}.py").read_text()))
    assert isinstance(listed, list) and len(listed) == len(set(listed))
    assert [name for name in listed if name.startswith("_") or name not in defined] == []


def test_each_name_is_imported_from_the_module_that_defines_it():
    # ``from .exact import WinnerMode`` works while exact imports it from core, and breaks when exact stops.
    defined = {path.stem: _defined_names(ast.parse(path.read_text()))[1] for path in PACKAGE.glob("*.py")}
    relayed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                relayed += [f"{path.stem}: {node.module}.{a.name}" for a in node.names
                            if a.name != "*" and a.name not in defined[node.module]]
    assert relayed == []


def test_all_lists_exactly_the_public_names_of_init():
    # The package root defines no public name of its own: it binds each module's list and nothing else.
    lists = [importlib.import_module(f"condorcet.{module}").__all__ for module in MODULES]
    assert condorcet.__all__ == [name for names in lists for name in names]
    assert len(condorcet.__all__) == len(set(condorcet.__all__))
    namespace: dict = {}
    exec("from condorcet import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(condorcet.__all__)
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(name for name in imported if name != "*") == sorted(MODULES)


def test_exported_names():
    # Adding a name to, or taking one from, the public API is a decision this list records.
    assert sorted(condorcet.__all__) == sorted(EXPORTS)


def test_each_public_name_is_read_in_the_package_or_is_library_api():
    # A public name that the package reads nowhere but in its definition and its __all__ entry serves no
    # command: it is kept on purpose, in LIBRARY_API, or it belongs in the tests.
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(condorcet.__all__) - read) == sorted(LIBRARY_API)
