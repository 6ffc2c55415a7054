import itertools

import pytest

from mcwc import corpus
from mcwc.core import (
    CodeParameters,
    ConstructionError,
    DomainError,
    FormatError,
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

    # designs that verify_bibd accepts but whose class count
    # lambda*(v-1)/(alpha*(k-1)) has a zero denominator
    @pytest.mark.parametrize(
        "text",
        ["bibd 2 1 0 1\nclass\nblock 0\nblock 1\n", "bibd 3 2 0 0\nclass\n"],
        ids=["k-one", "alpha-zero"],
    )
    def test_zero_class_count_denominator(self, text):
        design = parse_bibd(text)
        assert verify_bibd(design).valid
        with pytest.raises(DomainError, match="^the class count needs k >= 2 and alpha >= 1$"):
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
