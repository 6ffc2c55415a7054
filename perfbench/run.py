"""mcwc benchmark: closed-loop passes over one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,bound,corpus,reject,all} \\
        --seed N --seconds S --trace {0,1}

Every pass runs in a fresh interpreter (``worker.py``), so the module-level
Johnson memo and the ``lru_cache``s start empty, as in every ``mcwc``
invocation.  A run makes ``--seconds`` over the nominal length of a pass
(``PASS_S``) passes, at least one, one after another.  Every pass runs the
same items in the same order, and an item's latency is its best over the
passes: the work is deterministic, and other load on a shared host only adds
time.  The timings are reported in units of a calibration kernel's time,
taken by the same rule in the same passes, so that the host's drifting speed
cancels out.  A few extra set-up-only interpreters make ``setup_s`` a median.  With
``--trace 1`` half as many untraced and traced passes alternate (at least one
of each) and the per-layer metrics of the traced passes are reported.

Prints one line per metric (name, value, unit, sample count) and, last, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--workload all`` does so for each workload in turn.
``correct`` is false when an item fails that is not one of the documented
seed defects (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "bound", "corpus", "reject")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run, passes and set-up samples included
# nominal seconds of the timed items of one untraced pass on a 2-vCPU VM;
# interpreter start, set-up and checks add about one second more
PASS_S = {"sweep": 4.0, "bound": 4.0, "corpus": 4.0, "reject": 2.0}
WORKDIR = Path(".perfbench_work")

# (name, unit, better) of the end-to-end metrics, reported with --trace 0
END_TO_END = [
    ("wall_cal", "cal", "lower"),
    ("item_p50_cal", "cal", "lower"),
    ("item_p90_cal", "cal", "lower"),
    ("ok_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]


def _worker(args, tag, *, trace=False, setup_only=False, deadline):
    out = WORKDIR / f"{args.workload}_{args.seed}_{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(WORKDIR), "--out", str(out)]
    if trace:
        cmd += ["--trace", "--spans", str(WORKDIR / f"spans_{args.workload}_{args.seed}_{tag}.json")]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    # SIGTERM stays blocked until the pass is started, so that it cannot
    # arrive between the fork and the handle that lets it be killed
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        proc = subprocess.Popen(cmd, env=_env(), preexec_fn=_unblock_sigterm)
    finally:
        _unblock_sigterm()
    with proc:
        try:
            returncode = proc.wait(timeout=max(1.0, deadline - spawned))
        except BaseException:
            proc.kill()
            raise
    if returncode != 0:
        raise RuntimeError(f"worker {tag} exited with code {returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    out.unlink()
    return result


def _unblock_sigterm():
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def _env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MCWC_NODE_BUDGET", "MCWC_VERTEX_CAP", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def pass_count(args):
    """Passes of one kind in a run: ``--seconds`` over the nominal length of
    a pass, so the count does not depend on how busy the host is."""
    count = max(1, round(args.seconds / PASS_S[args.workload]))
    return max(1, count // 2) if args.trace else count


def run_passes(args):
    """Untraced (and, with --trace, as many traced) passes, alternating."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain, traced = [], []
    for i in range(pass_count(args) * (2 if args.trace else 1)):
        want_traced = bool(args.trace and i % 2)
        result = _worker(args, f"pass{i}", trace=want_traced, deadline=deadline)
        (traced if want_traced else plain).append(result)
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(args, f"setup{len(setups)}", setup_only=True,
                              deadline=deadline)["setup_s"])
    return plain, traced, setups


def best_latencies_ms(passes):
    """Per item, its least latency over the passes."""
    keys = {tuple(r["keys"]) for r in passes}
    if len(keys) != 1:
        raise RuntimeError("passes of one run ran different items")
    return [min(xs) for xs in zip(*(r["latencies_ms"] for r in passes))]


def calibration_ms(passes):
    """The calibration kernel's time, by the same rule as an item's: the
    least over the passes at each of its slots, then the median over slots."""
    return statistics.median(min(xs) for xs in zip(*(r["calibration_ms"] for r in passes)))


def summarize(args, plain, traced, setups):
    passes = plain + traced
    attempted = sum(r["items"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    unexpected = [f for f in failures if not f["known_defect"]]
    med = lambda key, rs=plain: statistics.median(r[key] for r in rs)  # noqa: E731
    if args.trace:
        from tracer import PER_LAYER

        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = med("wall_s", traced) / med("wall_s") - 1.0
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _b in PER_LAYER}
        samples = {name: len(traced) for name, _u, _b in PER_LAYER}
    else:
        latencies = best_latencies_ms(plain)
        cal_ms = calibration_ms(plain)
        values = {
            "wall_cal": sum(latencies) / cal_ms,
            "item_p50_cal": statistics.median(latencies) / cal_ms,
            "item_p90_cal": statistics.quantiles(latencies, n=10)[8] / cal_ms,
            "ok_frac": 1.0 - len(failures) / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": med("peak_rss_mib"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _b in END_TO_END}
        timed = f"{len(latencies)} items x {len(plain)} passes"
        samples = {"wall_cal": timed, "item_p50_cal": timed,
                   "item_p90_cal": timed, "ok_frac": attempted,
                   "setup_s": len(setups), "peak_rss_mib": len(plain)}
        print(f"{args.workload} calibration kernel = {cal_ms:.4g} ms; as measured: "
              f"wall {values['wall_cal'] * cal_ms / 1000:.4g} s, item p50 "
              f"{values['item_p50_cal'] * cal_ms:.4g} ms, p90 {values['item_p90_cal'] * cal_ms:.4g} ms")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}  (n={samples[name]})")
    for key in dict.fromkeys(f["key"] for f in failures):
        f = next(f for f in failures if f["key"] == key)
        tag = "known seed defect" if f["known_defect"] else "FAILED"
        print(f"{args.workload} {tag}: {key}: {'; '.join(f['problems'])}"[:400])
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so _worker kills and reaps the
    # running pass before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (Path("src") / "mcwc" / "__init__.py").is_file():
        print("error: run from the root of an mcwc checkout (src/mcwc not found)", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("error: perfbench/reference.json is missing; run make_reference.py", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for args.workload in names:
        try:
            results.append(summarize(args, *run_passes(args)))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(WORKDIR / f"reject_{args.seed}", ignore_errors=True)
        print(json.dumps(results[-1]))
    return 0 if len(names) == 1 or all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
