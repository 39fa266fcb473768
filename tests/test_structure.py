"""Layout rules for the package: its source, checked on its syntax tree, and its runtime imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "condorcet"


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


def test_all_lists_exactly_the_public_names_of_init():
    # A name bound in __init__ but left out of __all__ is missed by ``from condorcet import *``;
    # one listed but not bound breaks it.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound, listed = set(), None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                listed = ast.literal_eval(node.value)
            bound |= set(names)
    assert listed is not None and len(listed) == len(set(listed))
    assert sorted(listed) == sorted(name for name in bound if not name.startswith("_"))
