"""Seeded generator of the ``reject`` workload's inputs.

About 200 files, written during set-up, each checked by one ``mcwc verify``
call.  Four equal groups, each stratified so that every seed gives the same
mix and about the same amount of work:

* controls: unmodified copies of the large developed codes, the 871-word
  assembled code, generated designs and a fixed, size-spread set of shipped
  files;
* distance and weight violations at seed-chosen positions inside the large
  codes, each reported at a row in a narrow window of one third of the word
  list (per code and kind);
* square-property violations in shipped squares and the assembled 83x83
  square;
* malformed tokens, two per directive of every file kind.

The expected verdict of each input is derived here, without the package's
verifiers, and stored beside the input as ``<name>.expect.json``.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from mcwc import constructions, corpus, designs

import checks

DATA = Path("src/mcwc/data")
LARGE_DEVELOP = [(13, 25), (17, 33), (21, 41), (25, 49), (29, 57), (33, 65), (37, 73)]
BANDS = 3
SHIPPED_CONTROLS = 39
SHIPPED_SQUARES = 9
BAD_INTS = ["x", "1.5", "3a", "0x1f", "NaN", "1e2", "++1", "-"]
BAD_POINTS = ["x_1", "1_x", "3-1", "b7", "_2", "inf2"]
BAD_KINDS = ["sas**", "hsas2", "square", "SFS"]
BAD_CLASS = ["klass", "Class", "class:"]

# directives whose non-integer tokens escape the parsers as a bare ValueError
# at the seed commit (the CLI then dies with a traceback instead of an error row)
VALUE_ERROR_DIRECTIVES = {
    ("dev", "layout"), ("dev", "classes="), ("dev", "orbit="), ("bibd", "block"),
    ("decomp", "edge"), ("gdd", "group"), ("gdd", "block"),
}
KNOWN_TOKEN = ("a non-integer token escapes the parser as a bare ValueError, not a FormatError",
               "uncaught ValueError")


# -- file texts -----------------------------------------------------------------


def code_text(lengths, d, supports):
    lines = [f"mcwc {len(lengths)} {d}"]
    lines += [f"part {i} {n} 2" for i, n in enumerate(lengths, start=1)]
    lines += [" ".join(map(str, sorted(s))) for s in supports]
    return "\n".join(lines) + "\n"


def _read(rel):
    return (DATA / rel).read_text(encoding="utf-8")


def _content(text):
    """(line index, tokens) of every non-comment line."""
    out = []
    for k, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((k, line.split()))
    return out


def _by_size(paths):
    return sorted(paths, key=lambda p: ((DATA / p).stat().st_size, p))


def _stratified(rng, paths, strata):
    """One path per contiguous stratum of the list sorted by file size."""
    ordered = _by_size(paths)
    picks = []
    for s in range(strata):
        lo, hi = s * len(ordered) // strata, (s + 1) * len(ordered) // strata
        picks.append(ordered[rng.randrange(lo, hi)])
    return picks


def _evenly_spaced(paths, count):
    """``count`` paths spread evenly over the list sorted by file size."""
    ordered = _by_size(paths)
    return [ordered[(2 * s + 1) * len(ordered) // (2 * count)] for s in range(count)]


def _shipped(sub, suffix):
    return sorted(f"{sub}/{p.name}" for p in (DATA / sub).iterdir() if p.suffix == suffix)


# -- large codes ----------------------------------------------------------------


def large_codes(square):
    """(name, block lengths, supports) of the developed codes and of the
    871-word code of the assembled ``square``; each is checked here before
    it is mutated."""
    out = []
    for n1, n2 in LARGE_DEVELOP:
        code = constructions.develop(corpus.develop_table(n1, n2))
        out.append((f"t{n1}_n{n2}", code.params.block_lengths, [w.support for w in code.words]))
    code = designs.square_to_mcwc(square)
    out.append(("assembled83", code.params.block_lengths, [w.support for w in code.words]))
    for name, lengths, supports in out:
        bad = checks.pair_index_violation(supports, lengths)
        if bad is not None:
            raise RuntimeError(f"base code {name} is not a valid code: {bad}")
    return out


def _window(n, band):
    """A narrow window of word positions around the middle of a band; the
    verifier's scan stops at the first violation, so its cost follows it."""
    center = (2 * band + 1) * n // (2 * BANDS)
    half = max(2, n // 40)
    return range(max(0, center - half), min(n, center + half))


def _distance_mutant(rng, lengths, supports, band):
    """Replace a seed-chosen word by a word at distance 2 from another word.

    The new word also clashes with the words that cover its new point pairs,
    which can lie anywhere in the list.  So the file is written with the new
    word at a row of the band's window and every word it clashes with moved
    to the end: the first violating pair is then (that row, the first moved
    word), and the verifier's scan up to it costs the same for every seed.
    """
    n = len(supports)
    masks = {checks.mask(s) for s in supports}
    while True:
        k, j = rng.sample(range(n), 2)
        src = list(supports[j])
        out_pt = rng.choice([x for x in src if x < lengths[0]])
        free = [x for x in range(lengths[0]) if x not in src]
        new = tuple(sorted([x for x in src if x != out_pt] + [rng.choice(free)]))
        if checks.mask(new) not in masks:
            break
    partners = checks.violating_partners(supports, k, new, 6)
    rest = [s for i, s in enumerate(supports) if i != k and i not in partners]
    row = rng.choice(_window(n, band))
    words = rest[:row] + [new] + rest[row:] + [supports[p] for p in partners]
    return words, {"first": ["distance", row, len(words) - len(partners)]}


def _weight_mutant(rng, lengths, supports, band):
    k = rng.choice(_window(len(supports), band))
    word = list(supports[k])
    block0 = [x for x in word if x < lengths[0]]
    free1 = [x for x in range(lengths[0], lengths[0] + lengths[1]) if x not in word]
    word.remove(rng.choice(block0))
    word.append(rng.choice(free1))
    mutated = list(supports)
    mutated[k] = tuple(sorted(word))
    return mutated, {"first": ["weight", k]}


# -- squares --------------------------------------------------------------------


def _square_parts(text):
    head, cells, holes, parts = None, [], [], []
    for k, tokens in _content(text):
        if tokens[0] == "square":
            head = (tokens[1], int(tokens[2]), int(tokens[3]))
        elif tokens[0] == "cell":
            cells.append((k, tuple(int(t) for t in tokens[1:])))
        elif tokens[0] == "hole-rows":
            holes = [int(t) for t in tokens[1:]]
        elif tokens[0] == "row-part":
            parts = [[int(t) for t in g.split()] for g in " ".join(tokens[1:]).split(";")]
    return head, cells, holes, parts


def _square_mutant(rng, text, kind):
    """Break one square property; returns (text, keyword of the violation)."""
    (sqkind, s, v), cells, holes, parts = _square_parts(text)
    lines = text.splitlines()
    filled = {(c[0], c[1]) for _k, c in cells}
    if kind == "outside":
        if rng.random() < 0.5:
            lines.append(f"cell {s + rng.randrange(3)} 0 0 1")
        else:
            k, (i, j, a, _b) = rng.choice(cells)
            lines[k] = f"cell {i} {j} {a} {v + rng.randrange(3)}"
        return lines, "outside"
    if kind == "skew":
        i, j, *_ = rng.choice([c for _k, c in cells if (c[1], c[0]) not in filled])
        a, b = rng.sample(range(v), 2)
        lines.append(f"cell {j} {i} {a} {b}")
        return lines, "skewness violated"
    if kind == "diagonal":
        i = rng.randrange(s)
        a, b = rng.sample(range(v), 2)
        lines.append(f"cell {i} {i} {a} {b}")
        return lines, "diagonal cell"
    if kind == "duplicate":
        (_k1, c1), (k2, c2) = rng.sample(cells, 2)
        lines[k2] = f"cell {c2[0]} {c2[1]} {c1[2]} {c1[3]}"
        return lines, "appears in cells"
    if kind == "hole" and sqkind == "hsas":
        i, j = sorted(rng.sample(holes, 2))
        a, b = rng.sample(range(v), 2)
        lines.append(f"cell {i} {j} {a} {b}")
        return lines, "hole cell"
    if kind == "hole" and sqkind == "sfs":
        part = rng.choice([p for p in parts if len(p) >= 2])
        i, j = sorted(rng.sample(part, 2))
        a, b = rng.sample(range(v), 2)
        lines.append(f"cell {i} {j} {a} {b}")
        return lines, "inside hole"
    raise ValueError(f"no {kind} mutation for a {sqkind} square")


# -- malformed tokens -----------------------------------------------------------


def _design_texts(rng):
    n = rng.randrange(3, 7)
    return {
        "bibd": constructions.format_bibd(constructions.affine_plane_bibd(3)),
        "decomp": constructions.format_decomposition(constructions.digon_decomposition(n)),
        "decomp-edge": constructions.format_decomposition(
            constructions.ordered_pair_decomposition(n)),
        "gdd": designs.format_gdd(designs.transversal_design(5, 4)),
    }


def _malform(rng, text, directive):
    """Replace one token of one line carrying ``directive`` by a bad one."""
    content = _content(text)
    head, head_tokens = content[0]
    body = content[1:]
    if directive == "header":
        spots, bad = [(head, i) for i in range(1, len(head_tokens))], BAD_INTS
    elif directive == "header-kind":
        spots, bad = [(head, 1)], BAD_KINDS
    elif directive == "header-int":
        spots, bad = [(head, 2), (head, 3)], BAD_INTS
    elif directive == "word":
        spots = [(k, i) for k, t in body if t[0] != "part" for i in range(len(t))]
        bad = BAD_INTS
    elif directive in ("classes=", "fixed=", "orbit=", "partition"):
        # key=v1,v2,...: spoil one value of the list
        prefix = "S" if directive == "partition" else directive
        spots = [(k, i) for k, t in body for i, tok in enumerate(t)
                 if tok.startswith(prefix) and re.search(r"=[^,]", tok)]
        bad = BAD_POINTS if directive == "fixed=" else BAD_INTS
    elif directive == "w":
        spots = [(k, i) for k, t in body if t[0] == "w"
                 for i in range(1, len(t)) if not t[i].startswith("orbit=")]
        bad = BAD_POINTS
    elif directive == "layout":
        spots, bad = [(k, 1) for k, t in body if t[0] == "layout"], BAD_INTS
    elif directive == "class":
        spots, bad = [(k, 0) for k, t in body if t[0] == "class"], BAD_CLASS
    elif directive == "edge":
        spots = [(k, i) for k, t in body if t[:2] == ["member", "edge"] for i in range(2, 6)]
        bad = BAD_INTS
    else:  # a directive whose every argument is an integer (';' may separate groups)
        spots = [(k, i) for k, t in body if t[0] == directive
                 for i in range(1, len(t)) if t[i].rstrip(";").isdigit()]
        bad = BAD_INTS
    k, i = rng.choice(spots)
    lines = text.splitlines()
    tokens = lines[k].split("#", 1)[0].split()
    token = tokens[i]
    if "=" in token:
        key, value = token.split("=", 1)
        values = value.split(",")
        values[rng.randrange(len(values))] = rng.choice(bad)
        tokens[i] = f"{key}={','.join(values)}"
    else:
        tokens[i] = rng.choice(bad) + (";" if token.endswith(";") else "")
    lines[k] = " ".join(tokens)
    return lines


def _malformed_menu(rng):
    """(file kind, directive, source text) for each of the 25 directive cells."""
    codes = _shipped("codes", ".mcwc")
    devs = _shipped("develop", ".dev")
    hsas = [p for p in _shipped("squares", ".sq") if "hsas" in p]
    sfs = [p for p in _shipped("squares", ".sq") if "sfs" in p]
    designs_ = _design_texts(rng)
    pick = lambda paths: _read(rng.choice(paths))  # noqa: E731
    orbit = [p for p in devs if "orbit=" in _read(p)]
    menu = [("mcwc", d, pick(codes)) for d in ("header", "part", "word")]
    menu += [("sq", "header-kind", pick(hsas + sfs)), ("sq", "header-int", pick(hsas + sfs)),
             ("sq", "hole-rows", pick(hsas)), ("sq", "hole-points", pick(hsas)),
             ("sq", "row-part", pick(sfs)), ("sq", "point-part", pick(sfs)),
             ("sq", "cell", pick(hsas + sfs))]
    menu += [("dev", d, pick(devs)) for d in ("header", "layout", "classes=", "fixed=", "w")]
    menu.append(("dev", "orbit=", pick(orbit)))
    menu += [("bibd", d, designs_["bibd"]) for d in ("header", "class", "block")]
    menu += [("decomp", "header", designs_["decomp"]), ("decomp", "partition", designs_["decomp"]),
             ("decomp", "edge", designs_["decomp-edge"])]
    menu += [("gdd", d, designs_["gdd"]) for d in ("header", "group", "block")]
    return menu


# -- the workload ---------------------------------------------------------------


def generate(seed, workdir):
    """Write the inputs under ``workdir``; returns [(path, expected verdict)]."""
    rng = random.Random(f"reject:{seed}")
    out_dir = Path(workdir) / f"reject_{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []  # (suffix, text, expect)

    from items import assemble_871

    square = assemble_871()
    codes = large_codes(square)
    for name, lengths, supports in codes:
        cases.append(("mcwc", code_text(lengths, 6, supports),
                      {"key": f"control:{name}", "verdict": "ok"}))
    for kind, text in _design_texts(rng).items():
        if kind != "decomp-edge":
            cases.append((kind, text, {"key": f"control:{kind}", "verdict": "ok"}))
    shipped = _shipped("codes", ".mcwc") + _shipped("develop", ".dev") + _shipped("squares", ".sq")
    # a fixed set: the verify cost of a shipped file spans two orders of
    # magnitude, so drawing them would make the pass time depend on the seed
    for rel in _evenly_spaced(shipped, SHIPPED_CONTROLS):
        cases.append((rel.rsplit(".", 1)[1], _read(rel), {"key": f"control:{rel}", "verdict": "ok"}))

    for name, lengths, supports in codes:
        for band in range(BANDS):
            for what, mutate in (("distance", _distance_mutant), ("weight", _weight_mutant)):
                mutated, expect = mutate(rng, lengths, supports, band)
                expect.update(key=f"{what}:{name}:band{band}", verdict="invalid")
                cases.append(("mcwc", code_text(lengths, 6, mutated), expect))

    squares = [("assembled83", designs.format_square(square), "sas*")]
    for rel in _stratified(rng, _shipped("squares", ".sq"), SHIPPED_SQUARES):
        squares.append((rel, _read(rel), "hsas" if "hsas" in rel else "sfs"))
    for name, text, sqkind in squares:
        kinds = ["outside", "skew", "diagonal", "duplicate"] + (["hole"] if sqkind != "sas*" else [])
        for kind in kinds:
            lines, keyword = _square_mutant(rng, text, kind)
            cases.append(("sq", "\n".join(lines) + "\n",
                          {"key": f"square-{kind}:{name}", "verdict": "invalid", "keyword": keyword}))

    for filekind, directive, text in _malformed_menu(rng) + _malformed_menu(rng):
        expect = {"key": f"token:{filekind}:{directive}", "verdict": "error"}
        if (filekind, directive) in VALUE_ERROR_DIRECTIVES:
            expect["known_defect"] = KNOWN_TOKEN
        cases.append((filekind, "\n".join(_malform(rng, text, directive)) + "\n", expect))

    written = []
    for n, (suffix, text, expect) in enumerate(cases):
        expect["key"] = f"{n:03d}:{expect['key']}"
        path = out_dir / f"{n:03d}.{suffix}"
        path.write_text(text, encoding="utf-8")
        Path(str(path) + ".expect.json").write_text(json.dumps(expect), encoding="utf-8")
        written.append((str(path), expect))
    return written


_PAIR = re.compile(r"^words (\d+) <[^>]*> and (\d+) <")
_WORD = re.compile(r"^word (\d+) <[^>]*> has weight")
_IDENTICAL = re.compile(r"^words (\d+) and (\d+) are identical")


def check_verdict(got, expect):
    """Compare one ``verify`` outcome with the expected verdict."""
    rc, rows, err = got["rc"], got["rows"], got["stderr"]
    status = rows[0][2] if len(rows) == 1 else None
    detail = rows[0][3] if len(rows) == 1 else ""
    verdict = expect["verdict"]
    if verdict == "ok":
        return [] if rc == 0 and status == "ok" else [f"valid input rejected: rc={rc} {rows} {err}"]
    if verdict == "error":
        if rc in (1, 2) and (status == "ERROR" or err.startswith("error:")):
            return []
        return [f"malformed input not reported as an error: rc={rc} {rows} {err}"]
    if rc != 1 or status != "INVALID":
        return [f"invalid input not rejected: rc={rc} {rows} {err}"]
    if "keyword" in expect:
        return [] if expect["keyword"] in detail else [f"expected '{expect['keyword']}': {detail}"]
    kind, *where = expect["first"]
    regex = {"distance": _PAIR, "weight": _WORD, "identical": _IDENTICAL}[kind]
    m = regex.match(detail)
    if m is None or [int(g) for g in m.groups()] != where:
        return [f"expected first {kind} violation at {where}: {detail}"]
    return []
