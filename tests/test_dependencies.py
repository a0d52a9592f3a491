"""Runtime dependencies stay at numpy: every import in the package is the
standard library, numpy or mulab itself.  The exact layer's calculus stays
independent of what it checks: `exact_calculus` imports neither numpy nor a
measured-layer module."""

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


def mulab_modules(path: Path) -> set[str]:
    """Names of the mulab modules the file imports, relatively or not."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module.split(".")[0] == "mulab":
                module = node.module.partition(".")[2]
            else:
                continue
            names.update([module.split(".")[0]] if module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("mulab."))
    return names


MEASURED = {"phases", "sieves", "phase_sums", "symbolic_blocks", "_limbs", "fixedpoint"}


def test_exact_calculus_imports_no_numpy_and_no_measured_layer():
    """Nor does any mulab module it imports, directly or through another."""
    seen, todo = set(), ["exact_calculus"]
    while todo:
        name = todo.pop()
        seen.add(name)
        path = PACKAGE / f"{name}.py"
        assert "numpy" not in imported_roots(path), name
        todo.extend(mulab_modules(path) - seen)
    assert seen >= {"exact_calculus", "_util", "errors"}  # the walk reached them
    assert seen.isdisjoint(MEASURED)
    # the parser sees relative imports of both forms
    assert mulab_modules(PACKAGE / "phases.py") >= {"_limbs", "fixedpoint", "exact_calculus"}


def test_every_module_is_checked():
    assert len(MODULES) >= 10 and PACKAGE / "phases.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_mulab(path):
    assert imported_roots(path) - ALLOWED == set()
