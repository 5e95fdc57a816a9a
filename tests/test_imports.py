"""The package needs only the standard library and numpy; the tests also use
pytest, hypothesis and their own modules.  Anything else installed where the
tests happen to run (sympy, mpmath) is not a dependency, so no file may
import it."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {
    "src": {"numpy", "nullplane"},
    "tests": {"numpy", "nullplane", "pytest", "hypothesis"} | {p.stem for p in (ROOT / "tests").glob("*.py")},
}


def _imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports anywhere in the file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("tree", sorted(ALLOWED))
def test_imports_only_stdlib_numpy_and_own_modules(tree):
    files = sorted((ROOT / tree).rglob("*.py"))
    assert files
    foreign = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in files
        for name in _imported_modules(path) - sys.stdlib_module_names - ALLOWED[tree]
    }
    assert not foreign, sorted(foreign)
