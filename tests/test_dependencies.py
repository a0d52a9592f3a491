"""Runtime dependencies stay at numpy: every import in the package is the
standard library, numpy or mulab itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mulab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mulab"}
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in the file, nested ones too."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_checked():
    assert len(MODULES) >= 10 and PACKAGE / "phases.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_mulab(path):
    assert imported_roots(path) - ALLOWED == set()
