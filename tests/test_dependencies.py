"""The package depends on mpmath alone, and its tests add only pytest and
hypothesis: scipy, numpy and other installed packages stay out of ``src/`` and
``tests/``.  Imports inside functions count too."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sys.stdlib_module_names | {"mpmath", "mcwc"}
ALLOWED = {"src/mcwc": PACKAGE, "tests": PACKAGE | {"pytest", "hypothesis"}}


def imported_packages(path):
    """Top-level package of every absolute import in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("folder", sorted(ALLOWED))
def test_imports_stay_within_declared_dependencies(folder):
    files = sorted((ROOT / folder).glob("*.py"))
    assert files
    outside = {
        (path.name, package)
        for path in files
        for package in imported_packages(path)
        if package not in ALLOWED[folder]
    }
    assert not outside
