"""Regenerate ``reference.json``: the expected answer of every item of the
``sweep``, ``bound`` and ``corpus`` workloads.

Each item is computed in its own fresh interpreter, so the order of the
items cannot leak into the answers through the module-level memo tables.
Run from the root of a checkout of the commit whose answers are the
reference:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Named workloads are recomputed and the others kept as they are.
The ``reject`` workload needs no entry: its generator derives every
expected verdict itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "bound", "corpus")
JOBS = 2  # fresh interpreters at a time


def one(workload, key):
    """Print the reference answer of one item (run in a fresh interpreter)."""
    sys.path.insert(1, str(Path.cwd() / "src"))
    import items

    for item in items.reference_items(workload):
        if item.key == key:
            answer = item.reference() if item.reference else item.answer(item.run())
            print(json.dumps(answer))
            return 0
    print(f"error: no item {key!r} in {workload}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"workloads to recompute, of {', '.join(WORKLOADS)} (default: all)")
    ap.add_argument("--one", nargs=2, metavar=("WORKLOAD", "KEY"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        return one(*args.one)
    if not set(args.workloads) <= set(WORKLOADS):
        ap.error(f"workloads are {', '.join(WORKLOADS)}")
    args.workloads = args.workloads or list(WORKLOADS)

    sys.path.insert(1, str(Path.cwd() / "src"))
    import items

    def fresh(job):
        workload, key = job
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_reference.py"), "--one", workload, key],
            capture_output=True, text=True, check=True, env={"PYTHONHASHSEED": "0"},
        )
        return workload, key, json.loads(proc.stdout.splitlines()[-1])

    jobs = [(w, item.key) for w in args.workloads for item in items.reference_items(w)]
    reference = {}
    if (HERE / "reference.json").is_file():
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)
    reference.update({w: {} for w in args.workloads})
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for workload, key, answer in pool.map(fresh, jobs):
            reference[workload][key] = answer
    reference = {w: dict(sorted(reference[w].items())) for w in WORKLOADS}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=False)
        fh.write("\n")
    print(f"wrote {sum(len(reference[w]) for w in args.workloads)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
