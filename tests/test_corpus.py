"""Regression suite over every shipped data file.

The data corpus is treated as untrusted input: each file is re-parsed and
re-verified here, so a transcription error surfaces as a test failure."""

import pytest
from hypothesis import given, settings, strategies as st

from mcwc import corpus
from mcwc.constructions import (
    affine_plane_bibd,
    develop,
    digon_decomposition,
    format_base_table,
    format_bibd,
    format_decomposition,
    ordered_pair_decomposition,
    parse_base_table,
    parse_bibd,
    parse_decomposition,
)
from mcwc.core import FormatError, format_code, parse_code, verify_mcwc
from mcwc.designs import (
    format_gdd,
    format_square,
    parse_gdd,
    parse_square,
    transversal_design,
    verify_square,
)

ALL_FILES = list(corpus.all_files())

# (parse, format) by file suffix
FORMATS = {
    ".mcwc": (parse_code, format_code),
    ".dev": (parse_base_table, format_base_table),
    ".sq": (parse_square, format_square),
    ".bibd": (parse_bibd, format_bibd),
    ".decomp": (parse_decomposition, format_decomposition),
    ".gdd": (parse_gdd, format_gdd),
}


@pytest.mark.parametrize("load,args,message", [
    (corpus.small_code, (4, 4), "no shipped explicit code for (n1, n2) = (4, 4)"),
    (corpus.develop_table, (11, 11), "no shipped base-codeword family for n1 = 11"),
    (corpus.develop_table, (13, 14), "no shipped table for (n1, n2) = (13, 14)"),
    (corpus.sfs_square, (99, 0), "no shipped SFS with 99 holes and a = 0"),
    (corpus.hsas_square, (1, 1, 1), "no shipped HSAS(s=1, v=1; t=1, 3)"),
], ids=["small", "family", "develop", "sfs", "hsas"])
def test_unshipped_shape_is_a_key_error(load, args, message):
    with pytest.raises(KeyError) as exc:
        load(*args)
    assert exc.value.args == (message,)


def test_inventory_complete():
    kinds = {"codes": 0, "develop": 0, "squares": 0}
    for kind, _ in ALL_FILES:
        kinds[kind] += 1
    assert kinds == {"codes": 14, "develop": 91, "squares": 63}


def test_shapes_match_the_shipped_files():
    """The shape lists are read from the data file names; a lost or stray
    file changes them."""
    assert corpus.SMALL_PAIRS == [
        (3, 3), (3, 5),
        (5, 5), (5, 7), (5, 9),
        (7, 7), (7, 9), (7, 11), (7, 13),
        (9, 9), (9, 11), (9, 13), (9, 15), (9, 17),
    ]
    assert corpus.DEVELOP_FAMILIES == {13: 3, 17: 4, 21: 5, 25: 6, 29: 7, 33: 8, 37: 9}
    assert list(corpus.DEVELOP_FAMILIES) == [13, 17, 21, 25, 29, 33, 37]
    assert corpus.SFS_SHAPES == [
        (f, a) for f in range(5, 10) for a in range(f + 1) if (f, a) != (9, 8)
    ]
    assert corpus.HSAS_SHAPES == sorted(
        [(v, 3, s) for v in (11, 15, 19) for s in range(v, 2 * v - 2, 2)]
        + [(11, 5, 21), (15, 5, 29), (19, 5, 37)]
    )


@pytest.mark.parametrize(
    "n1,n2", corpus.SMALL_PAIRS, ids=[f"{a}-{b}" for a, b in corpus.SMALL_PAIRS]
)
def test_small_codes(n1, n2):
    code = corpus.small_code(n1, n2)
    assert code.params.block_lengths == (n1, n2)
    assert code.params.block_weights == (2, 2)
    assert code.params.distance == 6
    assert verify_mcwc(code).valid
    target = (n2 * (n1 - 1)) // 4
    assert len(code) == (6 if (n1, n2) == (5, 7) else target)


@pytest.mark.parametrize(
    "n1,n2", list(corpus.develop_pairs()), ids=[f"{a}-{b}" for a, b in corpus.develop_pairs()]
)
def test_develop_tables(n1, n2):
    table = corpus.develop_table(n1, n2)
    g = corpus.DEVELOP_FAMILIES[n1]
    assert table.group_order == g
    code = develop(table)  # includes distance-6 verification
    assert len(code) == g * n2
    assert code.params.block_lengths == (n1, n2)


@pytest.mark.parametrize(
    "f,a", corpus.SFS_SHAPES, ids=[f"f{f}-a{a}" for f, a in corpus.SFS_SHAPES]
)
def test_sfs_squares(f, a):
    sq = corpus.sfs_square(f, a)
    assert verify_square(sq).valid
    assert sq.sfs_type() == tuple(sorted([(4, 2)] * a + [(2, 2)] * (f - a)))
    assert sq.num_cells == (f + a) * (f - 1)


@pytest.mark.parametrize(
    "v,t,s", corpus.HSAS_SHAPES, ids=[f"v{v}-t{t}-s{s}" for v, t, s in corpus.HSAS_SHAPES]
)
def test_hsas_squares(v, t, s):
    sq = corpus.hsas_square(v, t, s)
    assert verify_square(sq).valid
    assert len(sq.hole_rows) == t and len(sq.hole_points) == 3
    # hole rows carry (v-3)/2 pairs, the rest (v-1)/2
    expected = (t * (v - 3) + (s - t) * (v - 1)) // 4
    assert sq.num_cells == expected


@pytest.mark.parametrize("path", [p for _, p in ALL_FILES], ids=[p.name for _, p in ALL_FILES])
def test_format_parse_fixpoint(path):
    parse, fmt = FORMATS[path.suffix]
    first = parse(path.read_text(encoding="utf-8"))
    text = fmt(first)
    again = parse(text)
    assert again == first
    # SkewSquare.cells is excluded from ==
    assert getattr(again, "cells", None) == getattr(first, "cells", None)
    assert fmt(again) == text


# -- malformed input ------------------------------------------------------------

# source texts by suffix: the shipped files and generated designs
FUZZ_TEXTS = {
    ".bibd": [format_bibd(affine_plane_bibd(3))],
    ".decomp": [format_decomposition(digon_decomposition(5)),
                format_decomposition(ordered_pair_decomposition(3))],
    ".gdd": [format_gdd(transversal_design(5, 4))],
}
for _, path in ALL_FILES:
    FUZZ_TEXTS.setdefault(path.suffix, []).append(path.read_text(encoding="utf-8"))

# a replacement token, or None to delete the token
TOKENS = st.one_of(
    st.none(),
    st.integers(-3, 10**6).map(str),
    st.sampled_from([
        "x", "1.5", "0x1f", "1e2", "-", "++1", "inf", "a1", "b7", "0_0", "1_x", ";", "0;",
        "S1=0,1", "S1=x", "S9=", "classes=0,x", "classes=", "fixed=b7", "orbit=x",
        "orbit=", "class", "block", "group", "member", "edge", "partition", "part",
        "cell", "w", "layout", "hole-rows", "row-part", "sas*", "sfs",
    ]),
    st.text(max_size=5),
)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_mutated_file_parses_or_raises_format_error(data):
    """Replacing or deleting one token on one content line of a shipped or
    generated file never makes its parser raise anything but FormatError."""
    suffix = data.draw(st.sampled_from(sorted(FUZZ_TEXTS)))
    text = data.draw(st.sampled_from(FUZZ_TEXTS[suffix]))
    lines = text.splitlines()
    k = data.draw(st.sampled_from([k for k, raw in enumerate(lines)
                                   if raw.split("#", 1)[0].strip()]))
    tokens = lines[k].split("#", 1)[0].split()
    i = data.draw(st.integers(0, len(tokens) - 1))
    token = data.draw(TOKENS)
    if token is None:
        del tokens[i]
    else:
        tokens[i] = token
    lines[k] = " ".join(tokens)
    parse, _ = FORMATS[suffix]
    try:
        parse("\n".join(lines))
    except FormatError:
        pass


# usage string of the header and the file's name in the "empty" error, by suffix
HEADERS = {
    ".mcwc": ("mcwc <m> <d>", "code", "header fields must be integers"),
    ".dev": ("develop <g> <m>", "base-codeword", "header fields must be integers"),
    ".sq": ("square <kind> <s> <v>", "square", "side and point count must be integers"),
    ".bibd": ("bibd <v> <k> <lambda> <alpha>", "design", "header fields must be integers"),
    ".decomp": ("decomp <n> <m>", "decomposition", "header fields must be integers"),
    ".gdd": ("gdd <points>", "design", "point count must be an integer"),
}


@pytest.mark.parametrize("suffix", list(HEADERS))
def test_malformed_header(suffix):
    """Every grammar reports an empty file, a wrong header keyword or token
    count, and a non-integer header field with the same words and line."""
    usage, what, not_int = HEADERS[suffix]
    parse, _ = FORMATS[suffix]
    keyword, *fields = usage.split()
    good = [keyword] + ["sas" if f == "<kind>" else "3" for f in fields]
    cases = {
        "# only a comment\n\n": f"empty {what} file",
        "\n" + " ".join(["wrong"] + good[1:]) + "\n": f"line 2: expected header '{usage}'",
        " ".join(good[:-1]) + "\n": f"line 1: expected header '{usage}'",
        " ".join(good + ["3"]) + "  # extra\n": f"line 1: expected header '{usage}'",
        "# c\n" + " ".join(good[:-1] + ["x"]) + "\n": f"line 2: {not_int}",
    }
    for text, message in cases.items():
        with pytest.raises(FormatError) as exc:
            parse(text)
        assert str(exc.value) == message, text
