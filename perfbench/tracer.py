"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` in every
namespace where they are bound: the globals of every ``mcwc`` module (so
calls between modules are seen) and the CLI's ``_BOUND_FNS`` table.
Per-word helpers such as ``PartitionedWord.from_support`` are deliberately
left alone; they would dominate the tracing cost.

Each call records one span (name, start, end, parent, item id) in flat
in-memory lists.  ``layer_metrics`` turns the spans into per-layer metrics:
a span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

TARGETS = {
    "mcwc.oracle": ["max_mcwc", "enumerate_words"],
    "mcwc.bounds": [
        "best_upper_bound", "johnson_recursive", "johnson_eq3", "plotkin_bound",
        "plotkin_discrete", "spherical_bound", "gv_lower_bound",
    ],
    "mcwc.scheme": ["build_scheme_tables"],
    "mcwc.lp": ["lp_bound", "delsarte_lp", "solve_lp"],
    "mcwc.core": ["verify_mcwc", "min_distance", "parse_code", "format_code"],
    "mcwc.designs": [
        "verify_square", "square_to_mcwc", "mcwc_to_square", "fill_hole",
        "wfc_construct", "bfc_fill", "parse_square",
    ],
    "mcwc.constructions": ["develop", "parse_base_table"],
    "mcwc.corpus": ["small_code", "develop_table", "sfs_square", "hsas_square"],
    "mcwc.cli": ["main"],
}

CLOSED_FORM = (
    "bounds.johnson_eq3", "bounds.plotkin_bound", "bounds.plotkin_discrete",
    "bounds.spherical_bound", "bounds.gv_lower_bound",
)
CORPUS_READERS = (
    "corpus.small_code", "corpus.develop_table", "corpus.sfs_square", "corpus.hsas_square",
)

# (metric name, unit, better); every traced run reports all of them
PER_LAYER = [
    ("oracle.max_mcwc.calls", "count", "lower"),
    ("oracle.max_mcwc.self_s", "s", "lower"),
    ("oracle.max_mcwc.total_s", "s", "lower"),
    ("oracle.enumerate_words.self_s", "s", "lower"),
    ("oracle.nodes", "count", "lower"),
    ("oracle.nodes_per_s", "1/s", "higher"),
    ("oracle.unproven", "count", "lower"),
    ("bounds.best_upper_bound.calls", "count", "lower"),
    ("bounds.best_upper_bound.self_s", "s", "lower"),
    ("bounds.best_upper_bound.total_s", "s", "lower"),
    ("bounds.johnson_recursive.calls", "count", "lower"),
    ("bounds.johnson_recursive.self_s", "s", "lower"),
    ("bounds.johnson_states", "count", "lower"),
    ("bounds.closed_form.calls", "count", "lower"),
    ("bounds.closed_form.self_s", "s", "lower"),
    ("scheme.build_scheme_tables.calls", "count", "lower"),
    ("scheme.build_scheme_tables.self_s", "s", "lower"),
    ("lp.lp_bound.calls", "count", "lower"),
    ("lp.lp_bound.total_s", "s", "lower"),
    ("lp.lp_bound.repeat_frac", "frac", "lower"),
    ("lp.delsarte_lp.calls", "count", "lower"),
    ("lp.delsarte_lp.self_s", "s", "lower"),
    ("lp.solve_lp.calls", "count", "lower"),
    ("lp.solve_lp.self_s", "s", "lower"),
    ("lp.vars", "count", "lower"),
    ("lp.constraints", "count", "lower"),
    ("core.verify_mcwc.calls", "count", "lower"),
    ("core.verify_mcwc.self_s", "s", "lower"),
    ("core.verify_mcwc.words", "count", "lower"),
    ("core.verify_mcwc.repeat_frac", "frac", "lower"),
    ("core.verify_mcwc.invalid", "count", "lower"),
    ("core.min_distance.self_s", "s", "lower"),
    ("core.parse_code.self_s", "s", "lower"),
    ("core.format_code.self_s", "s", "lower"),
    ("designs.verify_square.calls", "count", "lower"),
    ("designs.verify_square.self_s", "s", "lower"),
    ("designs.verify_square.repeat_frac", "frac", "lower"),
    ("designs.verify_square.invalid", "count", "lower"),
    ("designs.square_to_mcwc.self_s", "s", "lower"),
    ("designs.mcwc_to_square.self_s", "s", "lower"),
    ("designs.fill_hole.self_s", "s", "lower"),
    ("designs.wfc_construct.self_s", "s", "lower"),
    ("designs.bfc_fill.self_s", "s", "lower"),
    ("designs.parse_square.self_s", "s", "lower"),
    ("constructions.develop.calls", "count", "lower"),
    ("constructions.develop.self_s", "s", "lower"),
    ("constructions.develop.words", "count", "lower"),
    ("constructions.parse_base_table.self_s", "s", "lower"),
    ("corpus.read.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unwrapped_s", "s", "lower"),
    ("trace.accounted_frac", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
]


def _code_key(code):
    return ("code", code.params, frozenset(w.support for w in code.words))


def _square_key(sq):
    return (
        "square", sq.kind, sq.s, sq.v, frozenset(sq.cells.items()), sq.hole_rows,
        sq.hole_points, sq.row_parts, sq.point_parts,
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self._stack: list[int] = []
        self.item_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)

    # -- per-item bookkeeping -------------------------------------------------

    def begin_item(self, item_id: int) -> None:
        self.item_id = item_id
        self._seen.clear()

    def _repeat(self, layer: str, key) -> None:
        """Count a call whose input was already handled earlier in this item."""
        seen = self._seen[layer]
        if key in seen:
            self.counts[layer + ".repeats"] += 1
        else:
            seen.add(key)

    def _observe(self, name: str, args, result) -> None:
        c = self.counts
        if name == "oracle.max_mcwc":
            c["oracle.nodes"] += result.nodes
            c["oracle.unproven"] += not result.complete
        elif name == "bounds.johnson_recursive":
            c["bounds.johnson_states"] += result.certificate.get("states", 0)
        elif name == "lp.lp_bound":
            self._repeat(name, (args[0], args[1:]))
        elif name == "lp.delsarte_lp":
            lp, _labels = result
            c["lp.vars"] += lp.num_vars
            c["lp.constraints"] += len(lp.constraints)
        elif name == "core.verify_mcwc":
            self._repeat(name, _code_key(args[0]))
            c["core.verify_mcwc.words"] += len(args[0].words)
            c["core.verify_mcwc.invalid"] += not result.valid
        elif name == "designs.verify_square":
            self._repeat(name, _square_key(args[0]))
            c["designs.verify_square.invalid"] += not result.valid
        elif name == "constructions.develop":
            c["constructions.develop.words"] += len(result)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        names, start, end, parent, item = self.names, self.start, self.end, self.parent, self.item
        stack = self._stack
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            item.append(self.item_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of the target functions by its traced wrapper."""
        replace: dict[int, object] = {}
        for modname, funcs in TARGETS.items():
            mod = importlib.import_module(modname)
            short = modname.rsplit(".", 1)[1]
            for f in funcs:
                orig = getattr(mod, f)
                replace[id(orig)] = (orig, self._wrap(f"{short}.{f}", orig))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mcwc" or modname.startswith("mcwc.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        table = sys.modules["mcwc.cli"]._BOUND_FNS
        for key, value in list(table.items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                table[key] = hit[1]

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[idx]
        return own

    def layer_metrics(self, item_spans: list[tuple[float, float]]) -> dict:
        """Per-layer metrics of one traced pass; ``item_spans`` holds each
        item's (start, end) and the traced wall time is their sum.  The self
        times of all spans plus the time of items outside any span
        (``trace.unwrapped_s``) should add up to it: ``trace.accounted_frac``
        is that sum over the wall time.  ``trace.overhead_frac`` needs an
        untraced pass and is filled in by the caller."""
        own = self.self_times()
        dur = [e - s for s, e in zip(self.start, self.end)]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += own[idx]
            if self.parent[idx] < 0 or self.names[self.parent[idx]] != name:
                total_s[name] += dur[idx]
        root_cover = sum(d for d, p in zip(dur, self.parent) if p < 0)
        wall = sum(e - s for s, e in item_spans)
        unwrapped = wall - root_cover

        c = self.counts
        by_stat = {"calls": calls, "self_s": self_s, "total_s": total_s}
        out = {}
        for metric, _unit, _better in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            table = by_stat.get(stat)
            out[metric] = table.get(layer, 0) if table is not None else c.get(metric, 0)
        # sums over several functions, ratios, and the span accounting
        out["bounds.closed_form.calls"] = sum(calls.get(n, 0) for n in CLOSED_FORM)
        out["bounds.closed_form.self_s"] = sum(self_s.get(n, 0.0) for n in CLOSED_FORM)
        out["corpus.read.self_s"] = sum(self_s.get(n, 0.0) for n in CORPUS_READERS)
        max_mcwc_s = total_s.get("oracle.max_mcwc", 0.0)
        out["oracle.nodes_per_s"] = c["oracle.nodes"] / max_mcwc_s if max_mcwc_s else 0.0
        for layer in ("lp.lp_bound", "core.verify_mcwc", "designs.verify_square"):
            n = calls.get(layer, 0)
            out[layer + ".repeat_frac"] = c[layer + ".repeats"] / n if n else 0.0
        out["trace.spans"] = len(self.names)
        out["trace.wall_s"] = wall
        out["trace.unwrapped_s"] = unwrapped
        out["trace.accounted_frac"] = (sum(own) + unwrapped) / wall if wall else 0.0
        return out

    def dump(self, path) -> None:
        """Write the raw spans as JSON columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"name": self.names, "start": self.start, "end": self.end,
                 "parent": self.parent, "item": self.item},
                fh,
            )
