"""Work items of the four workloads.

An item is one user-level operation.  ``run`` is the timed call; it returns
the raw output.  ``answer`` reduces that output to the JSON value stored in
``reference.json`` and ``check`` compares an output with its reference entry
and with the independent checks of ``checks.py``; both run outside the timed
region.  Every call into the package goes through a module attribute, so
the traced run's wrappers see it.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional

from mcwc import bounds, cli, constructions, core, corpus, designs, lp, oracle

import checks
import reject

SWEEP_NODE_BUDGET = 50_000
SWEEP_M1_STRIDE = 10  # every 10th single-block instance joins the sweep
DATA = Path("src/mcwc/data")

# the LP-heavy instance of the bound workload, beyond its grid
BOUND_UNIFORM = [(3, 8, 3, 6)]
BOUND_NONUNIFORM = [((5, 7, 9, 11), (2, 2, 3, 3), 8), ((5, 7, 9, 11), (2, 2, 3, 3), 10)]
BOUND_GRID_MAX_CLASSES = 10
PROBE_UNIFORM = ((9, 9, 9, 9), (3, 3, 3, 3), 6)
# non-uniform sets for the second probe, one drawn per seed; each appears
# nowhere else in the workload and each is answered differently after a
# state_budget=3 call at the seed commit.  All have d = 12, which no other item
# has, so no other item can fill their memo states first and hide the defect.
PROBE_POOL = [((5, 7, 9), (1, 3, 3), 12), ((4, 6, 8), (2, 3, 2), 12),
              ((6, 7, 8), (1, 3, 4), 12), ((6, 7, 8), (3, 3, 1), 12),
              ((5, 6, 7), (1, 3, 3), 12)]
PROBE_BUDGET = 3

KNOWN_PROBE = ("a state_budget=3 call leaves truncated states in the module-level Johnson "
               "memo, so the following default call differs from a fresh process",
               "after the budgeted call:")


@dataclass
class Item:
    key: str
    run: Callable[[], object]
    answer: Callable[[object], object]
    check: Callable[[object, object], list]
    # a documented defect of the seed commit: (description, prefix of the
    # problem it causes); a failure with any other problem is a new failure
    known_defect: Optional[tuple] = None
    # the reference answer, computed in a fresh process; defaults to answer(run())
    reference: Optional[Callable[[], object]] = None


def call_cli(argv):
    """Run the command line in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def tsv_rows(text):
    lines = [ln.split("\t") for ln in text.splitlines() if ln]
    return lines[1:]


# -- sweep ----------------------------------------------------------------------


def sweep_instances():
    """Every uniform (m, n, w, d) with at most 300 candidate words (criterion 4)."""
    out = []
    for m in range(1, 12):
        for n in range(2, 301):
            if n ** m > 300:  # C(n, w) >= n for 0 < w < n
                continue
            for w in range(1, n):
                if comb(n, w) ** m > 300:
                    continue
                wn = min(w, n - w)
                for u in range(1, m * wn + 2):
                    out.append((m, n, w, 2 * u))
    return out


def sweep_sample():
    """The sweep's instances: every criterion-4 instance with two or more
    blocks, and every ``SWEEP_M1_STRIDE``-th single-block one."""
    single = [p for p in sweep_instances() if p[0] == 1]
    return [p for p in sweep_instances() if p[0] > 1] + single[::SWEEP_M1_STRIDE]


def bound_grid():
    """Uniform (m, n, w, d) for 2 <= m <= 6, 3 <= n <= 9, w <= n/2, d in
    {4, 6, 8} (d <= 2mw) whose Delsarte LP has at most
    ``BOUND_GRID_MAX_CLASSES`` classes, C(m + w, w)."""
    return [(m, n, w, d) for m in range(2, 7) for n in range(3, 10)
            for w in range(1, n // 2 + 1) for d in (4, 6, 8)
            if d <= 2 * m * w and comb(m + w, w) <= BOUND_GRID_MAX_CLASSES]


def _lp_gate(m, n, w):
    wn = min(w, n - w)
    return comb(m + wn, wn) <= 64 and (wn + 1) ** m <= 4096


def _sweep_item(m, n, w, d):
    cfg = oracle.SearchConfig(node_budget=SWEEP_NODE_BUDGET)

    def run():
        p = core.CodeParameters.uniform(m, n, w, d)
        result = oracle.max_mcwc(p, cfg)
        upper = {
            "johnson-recursive": bounds.johnson_recursive(p),
            "johnson-eq3": bounds.johnson_eq3(p),
            "plotkin": bounds.plotkin_bound(p),
            "plotkin-discrete": bounds.plotkin_discrete(p),
            "spherical": bounds.spherical_bound(p),
        }
        if _lp_gate(m, n, w):
            upper["lp"] = lp.lp_bound(p)
        return result, upper, bounds.gv_lower_bound(p)

    def answer(out):
        result, upper, gv = out
        return {"size": result.size, "complete": result.complete,
                "bounds": {k: v.value for k, v in upper.items()}, "gv": gv.value}

    def check(out, ref):
        result, upper, gv = out
        got = answer(out)
        problems = []
        if got["bounds"] != ref["bounds"] or got["gv"] != ref["gv"]:
            problems.append(f"bounds {got['bounds']} gv {got['gv']} != reference")
        if ref["complete"] and not (result.complete and result.size == ref["size"]):
            problems.append(f"size {result.size} complete={result.complete}, reference "
                            f"{ref['size']} proven")
        if not ref["complete"] and result.size < ref["size"]:
            problems.append(f"incumbent {result.size} below reference {ref['size']}")
        for name, b in upper.items():
            if b.value is not None and result.size > b.value:
                problems.append(f"oracle {result.size} above {name} {b.value}")
        if result.complete and gv.value is not None and gv.value > result.size:
            problems.append(f"gv {gv.value} above proven optimum {result.size}")
        supports = [wd.support for wd in result.witness.words]
        if len(supports) != result.size:
            problems.append("witness size differs from the reported size")
        bad = checks.first_violation(supports, (n,) * m, (w,) * m, d)
        if bad is not None:
            problems.append(f"witness fails the pairwise check: {bad}")
        return problems

    return Item(f"{m},{n},{w},{d}", run, answer, check)


# -- bound ----------------------------------------------------------------------


def _bound_argv(lengths, weights, d, method="all"):
    if len(set(lengths)) == 1 and len(set(weights)) == 1:
        args = ["--m", str(len(lengths)), "--n", str(lengths[0]), "--w", str(weights[0])]
    else:
        args = ["--lengths", ",".join(map(str, lengths)), "--weights", ",".join(map(str, weights))]
    args += ["--d", str(d)]
    if method != "all":
        args += ["--method", method]
    return ["bound", *args, "--format", "tsv"]


def _bound_values(rows):
    """method -> value, plus the winner tag of the 'best' row."""
    out = {r[0]: r[1] for r in rows}
    out.update({r[0] + ":note": r[2] for r in rows if r[0] == "best"})
    return out


def _bound_item(lengths, weights, d):
    argv = _bound_argv(lengths, weights, d)

    def answer(out):
        rc, text, _err = out
        return {"rc": rc, "values": _bound_values(tsv_rows(text))}

    def check(out, ref):
        got = answer(out)
        return [] if got == ref else [f"{got} != reference {ref}"]

    return Item("bound:" + " ".join(argv[1:-2]), lambda: call_cli(argv), answer, check)


def _probe_item(lengths, weights, d):
    argv = _bound_argv(lengths, weights, d, "johnson")

    def run():
        p = core.CodeParameters(tuple(lengths), tuple(weights), d)
        budgeted = bounds.johnson_recursive(p, state_budget=PROBE_BUDGET).value
        return budgeted, call_cli(argv)

    def answer(out):
        budgeted, (rc, text, _err) = out
        return {"budgeted": budgeted, "rc": rc, "values": _bound_values(tsv_rows(text))}

    def check(out, ref):
        got = answer(out)
        problems = []
        if got["rc"] != 0 or got["values"] != ref["values"]:
            problems.append(f"after the budgeted call: {got['values']} != fresh {ref['values']}")
        if got["budgeted"] < int(ref["values"]["johnson"]):
            problems.append(f"budgeted value {got['budgeted']} below the exact bound")
        return problems

    def fresh_answer():
        rc, text, _err = call_cli(argv)
        return {"rc": rc, "values": _bound_values(tsv_rows(text))}

    key = "probe:" + " ".join(argv[1:-2])
    return Item(key, run, answer, check, known_defect=KNOWN_PROBE,
                reference=fresh_answer)


def bound_items(seed):
    """In a fixed order, probes last: items share Johnson memo states (the
    d=10 non-uniform sets, for one), so a shuffled order would move the cost
    between items from seed to seed."""
    rng = random.Random(seed)
    items = [_bound_item((n,) * m, (w,) * m, d) for m, n, w, d in bound_grid() + BOUND_UNIFORM]
    items += [_bound_item(L, W, d) for L, W, d in BOUND_NONUNIFORM]
    items.append(_probe_item(*PROBE_UNIFORM))
    items.append(_probe_item(*rng.choice(PROBE_POOL)))
    return items


# -- corpus ---------------------------------------------------------------------


def shipped_files():
    """Relative paths of the 168 shipped data files."""
    return sorted(
        str(p) for sub in ("codes", "develop", "squares")
        for p in (DATA / sub).iterdir() if p.suffix in (".mcwc", ".dev", ".sq")
    )


def _verify_item(path, key):
    def answer(out):
        rc, text, _err = out
        return {"rc": rc, "rows": [r[1:] for r in tsv_rows(text)]}

    def check(out, ref):
        got = answer(out)
        return [] if got == ref else [f"{got} != reference {ref}"]

    return Item(key, lambda: call_cli(["verify", path, "--format", "tsv"]), answer, check)


def _table_item(n1):
    def answer(out):
        rc, text, _err = out
        return {"rc": rc, "rows": tsv_rows(text)}

    def check(out, ref):
        got = answer(out)
        if got["rc"] != ref["rc"] or len(got["rows"]) != len(ref["rows"]):
            return [f"{got} != reference {ref}"]
        problems = []
        for row, want in zip(got["rows"], ref["rows"]):
            # an open row may be closed by a new construction at its target
            closed = want[5] == "open" and row[5] == "ok" and row[3] == want[2]
            if row != want and not (closed and row[:3] == want[:3]):
                problems.append(f"row {row} != reference {want}")
        return problems

    return Item(f"table:{n1}", lambda: call_cli(["table", "--n1", str(n1), "--format", "tsv"]),
                answer, check)


def _code_check(code, expected_size, original=None):
    supports = [wd.support for wd in code.words]
    problems = []
    if len(supports) != expected_size:
        problems.append(f"{len(supports)} words, expected {expected_size}")
    bad = checks.pair_index_violation(supports, code.params.block_lengths)
    if bad is not None:
        problems.append(bad)
    if original is not None and set(supports) != {wd.support for wd in original.words}:
        problems.append("round trip changed the code")
    return problems


def _size_answer(out):
    return {"size": len(out[1])}


def _size_check(out, ref):
    """``out`` is (original code or None, translated code)."""
    return _code_check(out[1], ref["size"], out[0])


def _roundtrip_item(n1, n2, developed):
    def run():
        if developed:
            code = constructions.develop(corpus.develop_table(n1, n2))
        else:
            code = corpus.small_code(n1, n2)
        return code, designs.square_to_mcwc(designs.mcwc_to_square(code))

    tag = "develop" if developed else "small"
    return Item(f"roundtrip:{tag}:{n1},{n2}", run, _size_answer, _size_check)


def _fill_hole_item(n1, t, n2):
    def run():
        filler = designs.mcwc_to_square(corpus.small_code(3, t))
        square = designs.fill_hole(corpus.hsas_square(n1, t, n2), filler)
        return None, designs.square_to_mcwc(square)

    return Item(f"fill-hole:{n1},{t},{n2}", run, _size_answer, _size_check)


def assemble_871():
    """TD(5,4) weighting construction, then the basic frame construction with
    holey fillers: a starred 83x83 square on 43 points (criterion 8)."""
    td = designs.transversal_design(5, 4)
    frame = designs.wfc_construct(
        td, {x: 4 for x in range(20)}, {x: 2 for x in range(20)},
        {designs.sfs_type_key([(4, 2)] * 5): corpus.sfs_square(5, 5)},
    )
    h19 = corpus.hsas_square(11, 3, 19)
    star19 = designs.fill_hole(h19, designs.mcwc_to_square(corpus.small_code(3, 3)))
    return designs.bfc_fill(frame, 3, 3, [h19, h19, h19, h19, star19])


def _assembly_item():
    def run():
        square = assemble_871()
        return square.kind.value, designs.square_to_mcwc(square)

    def answer(out):
        return {"kind": out[0], "size": len(out[1])}

    def check(out, ref):
        problems = _code_check(out[1], ref["size"])
        if out[0] != ref["kind"]:
            problems.append(f"kind {out[0]} != {ref['kind']}")
        return problems

    return Item("assembly:td54-wfc-bfc", run, answer, check)


def corpus_items():
    items = [_verify_item(p, "verify:" + p[len(str(DATA)) + 1:]) for p in shipped_files()]
    items += [_table_item(n1) for n1 in range(3, 38, 2)]
    items += [_roundtrip_item(n1, n2, False) for n1, n2 in corpus.SMALL_PAIRS if (n1, n2) != (5, 7)]
    items += [_roundtrip_item(n1, n1, True) for n1 in (13, 17, 21)]
    for n1 in (11, 15, 19):
        items += [_fill_hole_item(n1, 3, n2) for n2 in range(n1, 2 * n1 - 2, 2)]
        items.append(_fill_hole_item(n1, 5, 2 * n1 - 1))
    items.append(_assembly_item())
    return items


# -- reject ---------------------------------------------------------------------


def _reject_item(path, expect):
    def run():
        return call_cli(["verify", path, "--format", "tsv"])

    def answer(out):
        rc, text, err = out
        return {"rc": rc, "rows": tsv_rows(text), "stderr": err.strip()}

    def check(out, _ref):
        return reject.check_verdict(answer(out), expect)

    return Item(expect["key"], run, answer, check, known_defect=expect.get("known_defect"))


def reject_items(seed, workdir):
    return [_reject_item(path, expect) for path, expect in reject.generate(seed, workdir)]


# -- entry point ----------------------------------------------------------------


def build(workload, seed, workdir):
    """The workload's items in seed order; ``workdir`` receives generated inputs."""
    if workload == "sweep":
        items = [_sweep_item(*key) for key in sweep_sample()]
    elif workload == "bound":
        return bound_items(seed)
    elif workload == "corpus":
        items = corpus_items()
    elif workload == "reject":
        items = reject_items(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{seed}").shuffle(items)
    return items


def reference_items(workload):
    """Every item whose answer ``reference.json`` records: the whole workload,
    and for ``bound`` every probe a seed can draw."""
    if workload == "bound":
        items = [i for i in bound_items(0) if not i.key.startswith("probe:")]
        return items + [_probe_item(*p) for p in [PROBE_UNIFORM, *PROBE_POOL]]
    return build(workload, 0, None)


def reference_path():
    return Path(__file__).with_name("reference.json")
