"""The traced benchmark run wraps the functions that ``perfbench/tracer.py``
lists in ``TARGETS``, and the CLI's ``_BOUND_FNS`` table, by name.  A rename
in the package must fail here rather than silently break the traced run.  The
tracer is read with ``ast``; it is not imported."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


@pytest.mark.parametrize("module", sorted(tracer_targets()))
def test_traced_functions_exist(module):
    mod = importlib.import_module(module)
    assert not [name for name in tracer_targets()[module] if not callable(getattr(mod, name, None))]


def test_cli_bound_table_exists():
    from mcwc import cli

    assert isinstance(cli._BOUND_FNS, dict) and all(map(callable, cli._BOUND_FNS.values()))
