"""Which function-body lines of src/mcwc does the Tier-1 suite never run?

Runs the whole suite in this process under ``sys.settrace``, with a fixed
hypothesis seed and no hypothesis example database, so that the answer does
not depend on hypothesis' draw or on examples saved by earlier runs, and lists
every line of a function body in ``src/mcwc`` that no test reached; a
function's ``def`` line and the module and class bodies are not counted.
Exits 1 when an unreached line is not in ALLOWED, or an ALLOWED line is
reached, and with pytest's status when a test fails.  From the repository
root (about five times the suite's own time):

    PYTHONPATH=src python tools/linecov.py

The standard library's ``trace.Trace(ignoredirs=...)`` cannot stand in for
the collector below: it caches its ignore verdict by module base name, so
once it has skipped ``hypothesis/core.py`` it skips ``mcwc/core.py`` too.
"""

import inspect
import sys
import types
from functools import cache
from pathlib import Path

import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src" / "mcwc"

# (module, stripped source line) -> why no Tier-1 test can run it
ALLOWED = {
    ("lp.py", 'raise AssertionError(f"distance-distribution LP came back {sol.status}")'):
        "the Delsarte LP is feasible (the zero distribution) and bounded (by the"
        " space size), so the exact simplex always reports it optimal",
    ("scheme.py",
     'raise AssertionError(f"non-integral multiplicity for (w, n, i) = ({w}, {n}, {i})")'):
        "the multiplicity (n-2i+1)/(n-i+1)*C(n,i) = C(n,i) - C(n,i-1) is an integer",
    # the interpreter raises a RecursionError in the tracer's own call, which
    # switches sys.settrace off until the next test; Tier-1 runs these lines
    # and asserts their message (tests/test_bounds.py, tests/test_cli.py)
    ("bounds.py",
     'raise SizeError("the Johnson recursion goes deeper than Python\'s recursion limit") from None'):
        "runs only after a RecursionError, which turns the line tracer off",
    ("cli.py", "raise  # johnson applies to every shape, so its error ends the command"):
        "runs only after a RecursionError, which turns the line tracer off",
}


def body_lines(path: Path) -> set[int]:
    """The lines of every function-body code object in the module at ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class
            lines |= {line for *_, line in code.co_lines() if line} - {code.co_firstlineno}
    return lines


def main() -> int:
    hits: set[tuple[str, int]] = set()
    in_src = cache(lambda name: Path(name).resolve().parent == SRC)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if in_src(frame.f_code.co_filename) else None

    class Rearm:
        """Turns the tracer on again before each test: a RecursionError raised
        in the tracer's own call turns it off."""

        @staticmethod
        def pytest_runtest_setup(item):
            sys.settrace(tracer)

    settings.register_profile("linecov", database=None)
    settings.load_profile("linecov")
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"],
                             plugins=[Rearm()])
    finally:
        sys.settrace(None)
    reached = {(Path(name).resolve(), line) for name, line in hits}
    total, unreached, bad, seen = 0, 0, 0, set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = body_lines(path)
        total += len(lines)
        for line in sorted(line for line in lines if (path, line) not in reached):
            key = (path.name, text[line - 1].strip())
            unreached += 1
            seen.add(key)
            bad += key not in ALLOWED
            print(f"{path.name}:{line}: {key[1]}  [{ALLOWED.get(key, 'NOT ALLOWED')}]")
    stale = sorted(set(ALLOWED) - seen)
    for module, source in stale:
        print(f"{module}: allowed line is reached or gone: {source}")
    print(f"{unreached} of {total} function-body lines in src/mcwc unreached,"
          f" {bad} not allowed, {len(stale)} allowed lines stale")
    return status or (1 if bad or stale else 0)


if __name__ == "__main__":
    sys.exit(main())
