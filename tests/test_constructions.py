import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mcwc import constructions, corpus
from mcwc.core import (
    CodeParameters,
    ConstructionError,
    DomainError,
    FormatError,
    McwcError,
    PartitionedCode,
    ShapeError,
    SizeError,
    min_distance,
    verify_mcwc,
)
from mcwc.bounds import johnson_eq3
from mcwc.constructions import (
    BaseCodewordTable,
    BaseWord,
    ColoredDecomposition,
    EdgeMember,
    PartitionMember,
    QaryCode,
    ResolvableBibd,
    affine_plane_bibd,
    bibd_to_mcwc,
    concatenate,
    decomposition_to_mcwc,
    develop,
    digon_decomposition,
    format_base_table,
    format_bibd,
    format_decomposition,
    one_factorization_k4,
    ordered_pair_decomposition,
    parse_base_table,
    parse_bibd,
    parse_decomposition,
    repetition_code,
    verify_bibd,
    verify_decomposition,
    verify_qary,
)


class TestConcatenate:
    def test_weight_one_inner(self):
        inner = PartitionedCode.from_supports(CodeParameters((3,), (1,), 2), [[0], [1], [2]])
        code = concatenate(inner, repetition_code(3, 2))
        assert len(code) == 3
        assert code.params == CodeParameters((3, 3), (1, 1), 4)
        assert min_distance(code) == 4

    def test_single_outer_word(self):
        inner = PartitionedCode.from_supports(CodeParameters((3,), (1,), 2), [[0]])
        outer = QaryCode.build(1, 4, [(0, 0, 0, 0)], 4)
        code = concatenate(inner, outer)
        assert len(code) == 1 and verify_mcwc(code).valid

    def test_all_weight_two_inner(self):
        inner = PartitionedCode.from_supports(
            CodeParameters((4,), (2,), 2), itertools.combinations(range(4), 2)
        )
        outer = repetition_code(6, 2)
        code = concatenate(inner, outer)
        assert len(code) == 6
        assert code.params.distance == 4
        assert verify_mcwc(code).valid

    def test_alphabet_too_large(self):
        inner = PartitionedCode.from_supports(CodeParameters((3,), (1,), 2), [[0], [1]])
        with pytest.raises(SizeError):
            concatenate(inner, repetition_code(3, 2))

    def test_multi_block_inner_rejected(self):
        inner = PartitionedCode.from_supports(CodeParameters((2, 2), (1, 1), 2), [[0, 2]])
        with pytest.raises(ShapeError):
            concatenate(inner, repetition_code(1, 2))


class TestDevelop:
    def test_identity_group(self):
        table = BaseCodewordTable(
            1, ((0,), (1,)), (("inf",), ("a1",)),
            (BaseWord((("g", 0, 0), ("inf",), ("g", 0, 1), ("a", 1))),),
        )
        code = develop(table)
        assert [w.support for w in code.words] == [(0, 1, 2, 3)]

    def test_family_13_first_table(self):
        code = develop(corpus.develop_table(13, 13))
        assert len(code) == 39
        assert code.params == CodeParameters((13, 13), (2, 2), 6)

    def test_short_orbits_family_17(self):
        table = corpus.develop_table(17, 33)
        marked = [w for w in table.words if w.orbit is not None]
        assert len(marked) == 4 and all(w.orbit == 2 for w in marked)
        code = develop(table)
        assert len(code) == 4 * 33

    def test_undeclared_short_orbit_rejected(self):
        word = BaseWord(
            (("g", 0, 0), ("g", 1, 0), ("g", 0, 1), ("g", 1, 1))
        )  # orbit 2 under Z2... declared full
        table = BaseCodewordTable(2, ((0,), (1,)), ((), ()), (word,))
        with pytest.raises(ConstructionError) as exc:
            develop(table)
        assert "orbit" in str(exc.value)

    def test_overdeclared_orbit_rejected(self):
        # actual orbit is 2 under Z2, declared as 1
        word = BaseWord((("g", 0, 0), ("g", 0, 1), ("g", 0, 2), ("g", 0, 3)), orbit=1)
        table = BaseCodewordTable(2, ((0, 1), (2, 3)), ((), ()), (word,))
        with pytest.raises(ConstructionError) as exc:
            develop(table)
        assert "orbit" in str(exc.value)

    def test_point_outside_layout(self):
        word = BaseWord((("g", 0, 0), ("g", 1, 0), ("g", 0, 9), ("a", 1)))
        table = BaseCodewordTable(2, ((0,), (1,)), ((), ("a1",)), (word,))
        with pytest.raises(ConstructionError) as exc:
            develop(table)
        assert "layout" in str(exc.value)

    def test_file_roundtrip(self):
        table = corpus.develop_table(17, 33)
        text = format_base_table(table)
        assert format_base_table(parse_base_table(text)) == text

    def test_bad_fixed_point_cites_its_line(self):
        text = "develop 3 2\nlayout 1 classes=0 fixed=inf,b7\nlayout 2 classes=1\n"
        with pytest.raises(FormatError) as exc:
            parse_base_table(text)
        assert str(exc.value) == "line 2: cannot parse point token 'b7'"

    def test_repeated_layout_line(self):
        # a second 'layout 1' would drop the first one's fixed=inf
        text = ("develop 3 2\nlayout 1 classes=0,1,2,3 fixed=inf\nlayout 2 classes=4\n"
                "layout 1 classes=0,1,2,3\nw inf 0_0 0_4 1_4\n")
        with pytest.raises(FormatError, match=r"^line 4: 'layout 1' is repeated$"):
            parse_base_table(text)

    @pytest.mark.parametrize("classes,fixed,repeated", [
        (((0, 1, 2, 3), (3, 5, 6, 7)), (("inf",), ("a1",)), "class 3"),
        (((0, 0), (1,)), ((), ()), "class 0"),
        (((0,), (1,)), (("inf",), ("inf",)), "point inf"),
        (((0,), (1,)), (("a1", "a1"), ()), "point a1"),
    ])
    def test_layout_lists_a_class_or_point_twice(self, classes, fixed, repeated):
        word = BaseWord((("inf",), ("g", 0, 0), ("g", 0, 5), ("g", 0, 6)))
        table = BaseCodewordTable(3, classes, fixed, (word,))
        with pytest.raises(ConstructionError, match=f"^the layout lists {repeated} twice$"):
            develop(table)


# each table has layout ((0,), (1,)) and the fixed point inf on side 1
REPEATED_POINT_TABLES = [
    (3, "w inf inf 0_1 1_1\n",
     DomainError, "duplicate support index in [3, 3, 4, 5]"),
    # the orbit check of a later word comes before the repeated point
    (3, "w inf inf 0_1 1_1\nw 0_0 inf 0_1 1_1 orbit=1\n",
     ConstructionError, "base word 1 <0_0, inf, 0_1, 1_1> has orbit length 3, declared 1"),
    # the repeated point shortens the orbit, so the orbit check fires first
    (2, "w inf inf 0_1 1_1\n",
     ConstructionError, "base word 0 <inf, inf, 0_1, 1_1> has orbit length 1, declared 2"),
]


@pytest.mark.parametrize("g,words,error,message", REPEATED_POINT_TABLES)
def test_repeated_point_error_order(g, words, error, message):
    table = parse_base_table(f"develop {g} 2\nlayout 1 classes=0 fixed=inf\nlayout 2 classes=1\n"
                             + words)
    with pytest.raises(error) as exc:
        develop(table)
    assert type(exc.value) is error and str(exc.value) == message


def test_group_order_must_be_positive():
    with pytest.raises(DomainError, match="^group order must be positive$"):
        develop(BaseCodewordTable(0, ((0,), (1,)), ((), ()), ()))


@pytest.mark.parametrize("text,message", [
    ("develop 3 3\n", "line 1: only two-sided tables are supported (m = 2)"),
    ("develop 3 2\nlayout 1\n", "line 2: expected 'layout <side> classes=... [fixed=...]'"),
    ("develop 3 2\nlayout 3 classes=0\n", "line 2: side must be 1 or 2"),
    ("develop 3 2\nlayout 1 colors=0\n", "line 2: unknown layout item 'colors=0'"),
    ("develop 3 2\nlayout 1 classes=0\n", "both 'layout 1' and 'layout 2' lines are required"),
    # a repeated item would replace the first one
    ("develop 3 2\nlayout 1 classes=0 classes=5\nlayout 2 classes=1\nw 0_0 1_0 0_1 1_1\n",
     "line 2: layout item 'classes=' is repeated"),
    ("develop 3 2\nlayout 1 classes=0\nlayout 2 fixed=inf classes=1 fixed=a1\n",
     "line 3: layout item 'fixed=' is repeated"),
    ("develop 3 2\nlayout 1 classes=0 fixed=inf\nlayout 2 classes=1\n"
     "w inf 0_0 0_1 1_1 orbit=1 orbit=3\n", "line 4: base word item 'orbit=' is repeated"),
], ids=["two-sided", "layout-items", "side", "layout-item", "both-layouts",
        "classes-twice", "fixed-twice", "orbit-twice"])
def test_base_table_format_errors(text, message):
    with pytest.raises(FormatError) as exc:
        parse_base_table(text)
    assert str(exc.value) == message


def test_fixed_point_written_like_a_group_point_is_rejected():
    # a fixed point is 'inf' or 'a<k>'; e_c names a group point, whether or
    # not class c is listed, so it cannot be fixed
    for side, fixed in [(1, "0_5"), (1, "5_0"), (2, "inf,0_5,1_5"), (1, "a1,2_0")]:
        token = next(t for t in fixed.split(",") if "_" in t)
        layout = {1: "classes=0", 2: "classes=1"}
        layout[side] += f" fixed={fixed}"
        text = f"develop 3 2\nlayout 1 {layout[1]}\nlayout 2 {layout[2]}\nw 0_0 1_0 0_1 1_1\n"
        with pytest.raises(FormatError) as exc:
            parse_base_table(text)
        assert str(exc.value) == f"line {side + 1}: fixed point {token!r} must be 'inf' or 'a<k>'"
        assert exc.value.line == side + 1
        hand_built = [(), ()]
        hand_built[side - 1] = tuple(fixed.split(","))
        table = BaseCodewordTable(3, ((0,), (1,)), tuple(hand_built),
                                  (BaseWord((("g", 0, 0), ("g", 1, 0), ("g", 0, 1), ("g", 1, 1))),))
        with pytest.raises(ConstructionError) as exc:
            develop(table)
        assert str(exc.value) == f"fixed point {token!r} must be 'inf' or 'a<k>'"


@pytest.mark.parametrize("token", ["b7", "a", "1_", "_1", "1_2_3", "a1_2", "a-1"])
def test_malformed_point_token_cites_its_line(token):
    head = "develop 3 2\nlayout 1 classes=0 fixed=inf\nlayout 2 classes=1\n"
    for text, line in [(head.replace("fixed=inf", f"fixed=inf,{token}"), 2),
                       (head + f"w inf 0_0 {token} 1_1\n", 4)]:
        with pytest.raises(FormatError) as exc:
            parse_base_table(text)
        assert str(exc.value) == f"line {line}: cannot parse point token {token!r}"
        assert exc.value.line == line


def reference_develop(table):
    """Cyclic development as first written: translate every point, look each
    translate up in the layout, sort, stop at the first support seen before,
    and build the code through ``PartitionedCode.from_supports``."""
    g = table.group_order
    if g < 1:
        raise DomainError("group order must be positive")
    coord = constructions._layout(table)
    n1, n2 = table.side_lengths
    params = CodeParameters((n1, n2), (2, 2), 6)
    supports = []
    for k, word in enumerate(table.words):
        if len(word.points) != 4:
            raise ConstructionError(f"base word {k} {word} does not have four points")
        for p in word.points:
            if p not in coord:
                raise ConstructionError(
                    f"base word {k} {word} uses {constructions._point_str(p)},"
                    " outside the declared layout"
                )
        in1 = sum(1 for p in word.points if coord[p] < n1)
        if in1 != 2:
            raise ConstructionError(
                f"base word {k} {word} has {in1} points on the first side, expected 2"
            )
        declared = word.orbit if word.orbit is not None else g
        orbit, seen = [], set()
        for t in range(g):
            translated = [("g", (p[1] + t) % g, p[2]) if p[0] == "g" else p for p in word.points]
            try:
                supp = tuple(sorted(coord[p] for p in translated))
            except KeyError as exc:
                raise ConstructionError(
                    f"base word {k} {word} leaves the declared layout at {exc}"
                ) from None
            if supp in seen:
                break
            seen.add(supp)
            orbit.append(supp)
        if len(orbit) != declared:
            raise ConstructionError(
                f"base word {k} {word} has orbit length {len(orbit)}, declared {declared}"
            )
        supports.extend(orbit)
    code = PartitionedCode.from_supports(params, supports)
    verify_mcwc(code).require("developed code fails verification")
    return code


def outcome(build, table):
    """The words (support, bits) in order, or the error class and message."""
    try:
        code = build(table)
    except McwcError as exc:
        return type(exc), str(exc)
    return code.params, [(w.params, w.support, w.bits) for w in code.words]


def columns_outcome(table):
    """:func:`outcome` of the columns ``_develop_columns`` returns."""
    try:
        params, supports, bits = constructions._develop_columns(table)
    except McwcError as exc:
        return type(exc), str(exc)
    assert type(supports) is list and all(type(s) is tuple for s in supports)
    return params, [(params, s, b) for s, b in zip(supports, bits, strict=True)]


@pytest.mark.parametrize("n1,n2", list(corpus.develop_pairs()))
def test_shipped_tables_match_the_reference_developer(n1, n2):
    # the words of develop, and the supports, bits and word order of its columns
    table = corpus.develop_table(n1, n2)
    got = outcome(develop, table)
    assert got == outcome(reference_develop, table)
    assert isinstance(got[1], list)
    assert columns_outcome(table) == got


@st.composite
def small_tables(draw):
    """Tables with g <= 7, 1-3 classes per side and 0-2 fixed points, whose
    words draw from the layout, from points outside it and from repeated
    points, with declared orbits that may be short, full or wrong."""
    g = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(0, 6), min_size=2, max_size=6, unique=True))
    cut = draw(st.integers(1, min(3, len(labels) - 1)))
    classes = (tuple(labels[:cut]), tuple(labels[cut:cut + 3]))
    token = st.one_of(st.just("inf"), st.builds("a{}".format, st.integers(0, 2)))
    fixed = draw(st.lists(token, max_size=2, unique=True))
    split = draw(st.integers(0, len(fixed)))
    fixed = (tuple(fixed[:split]), tuple(fixed[split:]))
    sides = [[("g", e, c) for c in classes[side] for e in range(g)]
             + [constructions._parse_point(t) for t in fixed[side]] for side in range(2)]
    outside = st.builds(lambda e, c: ("g", e, c), st.integers(0, g + 1), st.integers(0, 7))
    words = []
    for _ in range(draw(st.integers(1, 3))):
        points = [draw(st.sampled_from(side)) for side in sides for _ in range(2)]
        fault = draw(st.integers(0, 11))
        if fault < 2:
            points[draw(st.integers(0, 3))] = draw(outside)
        elif fault < 4:
            points[1] = points[0]
        elif fault == 4:
            points = draw(st.sampled_from([points[:3], points + points[-1:]]))
        orbit = draw(st.one_of(st.none(), st.none(), st.integers(1, g)))
        words.append(BaseWord(tuple(draw(st.permutations(points))), orbit))
    return BaseCodewordTable(g, classes, fixed, tuple(words))


@settings(max_examples=400, deadline=None)
@given(small_tables())
def test_develop_matches_the_reference_developer(table):
    expected = outcome(reference_develop, table)
    assert outcome(develop, table) == expected
    assert columns_outcome(table) == expected


DOMAIN = "a design needs v >= 2, k >= 2, lambda >= 1 and alpha >= 1"


class TestBibd:
    def test_affine_plane_order_3(self):
        design = affine_plane_bibd(3)
        assert verify_bibd(design).valid
        code = bibd_to_mcwc(design)
        assert len(code) == 9
        assert code.params == CodeParameters.uniform(4, 3, 1, 6)
        assert johnson_eq3(code.params).value == 9
        # the construction meets the best upper bound with equality
        from mcwc.bounds import best_upper_bound

        assert best_upper_bound(code.params).value == 9

    def test_k4_one_factorization(self):
        code = bibd_to_mcwc(one_factorization_k4())
        assert len(code) == 4
        assert code.params == CodeParameters.uniform(3, 2, 1, 4)

    def test_pair_balance_violation(self):
        design = ResolvableBibd.build(4, 2, 1, 1, [[(0, 1), (2, 3)]])
        report = verify_bibd(design)
        assert not report.valid

    def test_class_count_must_match(self):
        design = ResolvableBibd.build(
            4, 2, 1, 1, [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
        )
        # drop one class: pair balance breaks first
        broken = ResolvableBibd.build(4, 2, 1, 1, design.classes[:2])
        assert not verify_bibd(broken).valid

    def test_file_roundtrip(self):
        text = format_bibd(affine_plane_bibd(3))
        assert format_bibd(parse_bibd(text)) == text

    def test_class_line_takes_no_tokens(self):
        # the design verifies, so the extra tokens would pass unnoticed
        text = format_bibd(affine_plane_bibd(3)).replace("class\n", "class extra tokens\n", 1)
        with pytest.raises(FormatError, match="^line 2: expected 'class'$"):
            parse_bibd(text)

    # one case per rejecting return of verify_bibd, in its check order, on
    # the one-factorization of K4 (classes {01, 23}, {02, 13}, {03, 12})
    PINNED = {
        "size": ([[(0, 1, 2), (3, 0)]], "block 0 is not a 2-subset"),
        "repeat": ([[(0, 0), (2, 3)]], "block 0 is not a 2-subset"),
        "unknown": ([[(0, 4), (2, 3)]], "block 0 contains an unknown point"),
        "balance": ([[(0, 1), (2, 3)]], "pair (0, 2) occurs in 0 blocks, expected 1"),
        "class": ([[(0, 1), (0, 2)], [(2, 3), (1, 3)], [(0, 3), (1, 2)]],
                  "class 0 covers point 0 2 times, expected 1"),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_pinned_violation_messages(self, case):
        classes, message = self.PINNED[case]
        report = verify_bibd(ResolvableBibd.build(4, 2, 1, 1, classes))
        assert not report and report.violation == message

    # headers outside the domain v >= 2, k >= 2, lambda >= 1, alpha >= 1 that
    # verify_bibd accepts: two whose class count lambda*(v-1)/(alpha*(k-1))
    # has a zero denominator, and three that reached bibd_to_mcwc's checks of
    # the class count's integrality, its sign and the number of classes
    @pytest.mark.parametrize(
        "text",
        ["bibd 2 1 0 1\nclass\nblock 0\nblock 1\n", "bibd 3 2 0 0\nclass\n",
         "bibd 0 3 1 1\n", "bibd 1 2 1 1\n", "bibd 0 3 -2 1\n"],
        ids=["k-one", "alpha-zero", "v-zero", "v-one", "lambda-negative"],
    )
    def test_zero_class_count_denominator(self, text):
        design = parse_bibd(text)
        report = verify_bibd(design)
        assert not report.valid and report.violation == DOMAIN
        with pytest.raises(ConstructionError, match=f"^invalid design: {DOMAIN}$"):
            bibd_to_mcwc(design)


class TestDecompositions:
    def test_digons(self):
        dec = digon_decomposition(5)
        assert verify_decomposition(dec).valid
        code = decomposition_to_mcwc(dec, [2])
        assert len(code) == 10
        assert code.params == CodeParameters((5,), (2,), 2)

    def test_ordered_pairs(self):
        dec = ordered_pair_decomposition(3)
        assert verify_decomposition(dec).valid
        code = decomposition_to_mcwc(dec, [1, 1])
        assert len(code) == 6
        assert code.params == CodeParameters.uniform(2, 3, 1, 2)
        # supports of distinct members share at most one coordinate
        for a, b in itertools.combinations(code.words, 2):
            assert len(set(a.support) & set(b.support)) <= 1

    def test_missing_edge_detected(self):
        dec = digon_decomposition(4)
        broken = ColoredDecomposition(dec.n, dec.m, dec.members[:-1])
        report = verify_decomposition(broken)
        assert not report.valid and "covered" in report.violation

    def test_duplicate_edge_detected(self):
        dec = digon_decomposition(4)
        dup = ColoredDecomposition(dec.n, dec.m, dec.members + (dec.members[0],))
        assert not verify_decomposition(dup).valid

    # one case per rejecting return of verify_decomposition, in its check order
    PINNED = {
        "parts": (3, 2, [PartitionMember(((0,),))], "member 0 has 1 parts, expected 2"),
        "vertex": (3, 1, [PartitionMember(((0, 0),))], "member 0 repeats a vertex"),
        "range": (3, 1, [EdgeMember(0, 3, (1, 1))], "member 0 has an invalid edge (0,3)"),
        "loop": (3, 1, [EdgeMember(1, 1, (1, 1))], "member 0 has an invalid edge (1,1)"),
        "color": (3, 1, [EdgeMember(0, 1, (1, 2))], "member 0 uses an unknown color (1, 2)"),
        "twice": (3, 1, [EdgeMember(0, 1, (1, 1))] * 2, "edge (0, 1, (1, 1)) occurs in members 0 and 1"),
        "cover": (3, 1, [EdgeMember(0, 1, (1, 1))], "1 edges covered, the complete digraph has 6"),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_pinned_violation_messages(self, case):
        n, m, members, message = self.PINNED[case]
        report = verify_decomposition(ColoredDecomposition(n, m, tuple(members)))
        assert not report and report.violation == message

    # (decomposition, weights, error class, message); the last one verifies,
    # but its edge members give no codeword
    @pytest.mark.parametrize("dec,weights,error,message", [
        (digon_decomposition(4), [2, 2], ShapeError, "expected 1 weights, got 2"),
        (ordered_pair_decomposition(3), [1, 0], DomainError, "weights must be positive"),
        (ordered_pair_decomposition(3), [1, 2], DomainError, "weights must be non-increasing"),
        (ColoredDecomposition(2, 1, (EdgeMember(0, 1, (1, 1)), EdgeMember(1, 0, (1, 1)))), [1],
         ConstructionError, "0 shaped members, a full decomposition determines 2"),
    ], ids=["count", "positive", "order", "no-shaped-member"])
    def test_argument_errors(self, dec, weights, error, message):
        with pytest.raises(error) as exc:
            decomposition_to_mcwc(dec, weights)
        assert type(exc.value) is error and str(exc.value) == message

    def test_wrong_part_sizes(self):
        dec = ordered_pair_decomposition(3)
        with pytest.raises(ConstructionError):
            decomposition_to_mcwc(dec, [2, 1])

    def test_file_roundtrip(self):
        text = format_decomposition(ordered_pair_decomposition(3))
        assert format_decomposition(parse_decomposition(text)) == text

    def test_repeated_partition_item(self):
        text = "decomp 3 2\nmember partition S1=0 S1=1 S2=2\n"
        with pytest.raises(FormatError, match=r"^line 2: partition item S1 is repeated$"):
            parse_decomposition(text)


class TestQary:
    def test_repetition(self):
        code = repetition_code(3, 4)
        assert verify_qary(code).valid and code.distance == 4

    def test_symbol_range(self):
        bad = QaryCode.build(2, 3, [(0, 1, 2)], 1)
        assert not verify_qary(bad).valid

    def test_distance_violation(self):
        bad = QaryCode.build(3, 2, [(0, 0), (0, 1)], 2)
        assert not verify_qary(bad).valid

    @pytest.mark.parametrize("words,message", [
        ([(0, 1, 1), (0, 1)], "word 1 has length 2"),
        ([(0, 1, 2)], "word 0 has a symbol outside [0, 2)"),
        ([(0, 0, 0), (0, 0, 1)], "words 0 and 1 are at distance 1 < 2"),
    ], ids=["length", "symbol", "distance"])
    def test_pinned_violation_messages(self, words, message):
        report = verify_qary(QaryCode.build(2, 3, words, 2))
        assert not report and report.violation == message
