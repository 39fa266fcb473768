"""Layout rules for the package source, checked on its syntax tree."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "condorcet"


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
