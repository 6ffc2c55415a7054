"""The package depends on mpmath alone, and its tests add only pytest and
hypothesis: scipy, numpy and other installed packages stay out of ``src/`` and
``tests/``.  Imports inside functions count too."""

import ast
import os
import subprocess
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


LAZY_MPMATH = """
import sys
import mcwc, mcwc.cli
assert "mpmath" not in sys.modules, "import mcwc loads mpmath"
assert mcwc.cli.main(["bound", "--m", "2", "--n", "5", "--w", "2", "--d", "6"]) == 0
assert "mpmath" not in sys.modules, "mcwc bound loads mpmath"
assert mcwc.cli.main(["asymptotic", "--delta", "1/4", "--omega", "1/2"]) == 0
assert "mpmath" in sys.modules
"""


def test_mpmath_is_loaded_by_the_asymptotic_functions_only():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", LAZY_MPMATH], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    # the asymptotic command still prints its digits
    assert "0.0943609377704335680451521039804" in done.stdout
