"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wittlab").glob("*.py"))


def foreign_imports(source: str):
    """Top-level package names imported anywhere in the source that are
    neither in the standard library nor wittlab."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = {name.split(".")[0] for name in names}
    return sorted(tops - set(sys.stdlib_module_names) - {"wittlab"})


def test_the_guard_sees_foreign_imports():
    source = (
        "import os, numpy.linalg\n"
        "from . import rings\n"
        "def f():\n"
        "    from sympy import Matrix\n"
    )
    assert foreign_imports(source) == ["numpy", "sympy"]


def test_every_module_is_found():
    assert {"rings.py", "matrices.py", "chains.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_library_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
