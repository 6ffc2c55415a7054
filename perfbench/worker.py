"""One pass over a workload, in a fresh interpreter.

Started by ``run.py`` from the root of a checkout; imports the package from
``src/``.  Set-up (imports, input generation) runs first; then the items run
back to back on one thread, each timed on its own, and each output is
checked between items, outside the timed region.  The pass summary is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


CALIBRATE_EVERY = 8  # items between two timings of the calibration kernel


def calibration_kernel():
    """Fixed pure-Python work (tuples, dict updates, integer arithmetic, a
    sort), the kind the package does; no call into the package."""
    counts, acc = {}, 0
    for i in range(3000):
        key = (i % 97, i * 7 % 13, i ^ 0x55)
        counts[key] = counts.get(key, 0) + 1
        acc += sum(key) & 0xFF
    return acc + len(sorted(counts, key=lambda k: (k[1], k[0])))


def time_calibration_kernel():
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args(argv)

    sys.path.insert(1, str(Path.cwd() / "src"))
    import items

    work = items.build(args.workload, args.seed, args.workdir)
    reference = {}
    if args.workload != "reject":
        with open(items.reference_path(), encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return _write(args.out, {"setup_s": setup_s})

    latencies, item_spans, failures, calibration = [], [], [], []
    for idx, item in enumerate(work):
        if idx % CALIBRATE_EVERY == 0:
            calibration.append(time_calibration_kernel())
        if tracer is not None:
            tracer.begin_item(idx)
        t0 = time.perf_counter()
        try:
            out, error = item.run(), None
        except Exception as exc:  # an uncaught exception fails the item, not the pass
            out, error = None, f"uncaught {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        item_spans.append((t0, t1))
        if error is None:
            ref = reference.get(item.key) if reference else None
            if reference and ref is None:
                problems = ["no reference answer"]
            else:
                problems = item.check(out, ref)
        else:
            problems = [error]
        if problems:
            known = item.known_defect is not None and all(
                p.startswith(item.known_defect[1]) for p in problems)
            failures.append({"key": item.key, "known_defect": known,
                             "problems": [p[:300] for p in problems]})
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "items": len(work),
        "keys": [item.key for item in work],
        "latencies_ms": [x * 1000 for x in latencies],
        "peak_rss_mib": peak_rss_mib,
        "calibration_ms": [x * 1000 for x in calibration],
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(item_spans)
        if args.spans:
            tracer.dump(args.spans)
    return _write(args.out, result)


def _write(path, obj) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
