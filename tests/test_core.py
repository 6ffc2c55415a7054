import functools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mcwc import core, corpus
from mcwc.cli import main
from mcwc.constructions import develop
from mcwc.core import (
    CodeParameters,
    ConstructionError,
    DomainError,
    FormatError,
    ParameterMismatchError,
    PartitionedCode,
    PartitionedWord,
    VerificationReport,
    format_code,
    hamming_distance,
    min_distance,
    parse_code,
    verify_mcwc,
)
from mcwc.oracle import enumerate_words, max_mcwc


P233 = CodeParameters((3, 3), (2, 2), 6)


def word(params, support):
    return PartitionedWord.from_support(params, support)


class TestHammingDistance:
    def test_identity(self):
        u = word(P233, [0, 1, 3, 4])
        assert hamming_distance(u, u) == 0

    def test_symmetric_difference(self):
        params = CodeParameters((8,), (4,), 0)
        u = word(params, [0, 1, 3, 4])
        v = word(params, [1, 2, 5, 6])
        assert hamming_distance(u, v) == 6

    def test_disjoint_supports(self):
        params = CodeParameters((8,), (4,), 0)
        u = word(params, [0, 1, 2, 3])
        v = word(params, [4, 5, 6, 7])
        assert hamming_distance(u, v) == 8

    def test_parameter_mismatch(self):
        u = word(P233, [0, 1, 3, 4])
        v = word(CodeParameters((6,), (4,), 6), [0, 1, 3, 4])
        with pytest.raises(ParameterMismatchError):
            hamming_distance(u, v)


class TestMinDistance:
    def test_table_5_5_row(self):
        params = CodeParameters((5, 5), (2, 2), 6)
        code = PartitionedCode.from_supports(
            params,
            [[0, 1, 5, 6], [0, 2, 7, 8], [1, 3, 7, 9], [2, 4, 5, 9], [3, 4, 6, 8]],
        )
        assert min_distance(code) == 6

    def test_single_word_undefined(self):
        code = PartitionedCode.from_supports(P233, [[0, 1, 3, 4]])
        assert min_distance(code) is None

    def test_disjoint_weight_two_words(self):
        params = CodeParameters((4,), (2,), 4)
        code = PartitionedCode.from_supports(params, [[0, 1], [2, 3]])
        assert min_distance(code) == 4


class TestVerify:
    def test_single_table_word(self):
        code = PartitionedCode.from_supports(P233, [[0, 1, 3, 4]])
        assert verify_mcwc(code).valid

    def test_empty_code(self):
        assert verify_mcwc(PartitionedCode(P233, ())).valid

    def test_duplicate_words(self):
        code = PartitionedCode.from_supports(P233, [[0, 1, 3, 4], [0, 1, 3, 4]])
        report = verify_mcwc(code)
        assert not report.valid
        assert "identical" in report.violation

    def test_wrong_block_weight(self):
        code = PartitionedCode.from_supports(P233, [[0, 1, 2, 3]])
        report = verify_mcwc(code)
        assert not report.valid
        assert "block" in report.violation

    def test_distance_violation(self):
        code = PartitionedCode.from_supports(P233, [[0, 1, 3, 4], [0, 1, 3, 5]])
        report = verify_mcwc(code)
        assert not report.valid
        assert "distance" in report.violation

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_small_distance_reports_min_distance(self, d):
        params = CodeParameters((4, 3), (2, 1), d)
        whole = PartitionedCode.from_supports(  # every word of the shape
            params, [a + (4 + b,) for a in combinations(range(4), 2) for b in range(3)]
        )
        spread = PartitionedCode.from_supports(params, [[0, 1, 4], [2, 3, 5]])
        for code in (whole, spread):
            report = verify_mcwc(code)
            assert report.valid and report.min_distance == min_distance(code)
        assert min_distance(whole) == 2 and min_distance(spread) == 6


def all_pairs_report(code):
    """The distance verdict of the pairwise scan, for distinct words that carry
    the code's block weights: what verify_mcwc reported before it folded
    per-point word masks."""
    d = code.params.distance
    words = code.words
    found = core._closest_pair([w.bits for w in words], max(d, 3))
    if found is not None and found[0] < d:
        dist, i, j = found
        return VerificationReport(
            False, f"words {i} {words[i]} and {j} {words[j]} are at distance {dist} < {d}"
        )
    return VerificationReport(True, min_distance=None if found is None else found[0])


class TestVerifyKernel:
    def test_violation_names_least_row_first(self):
        # rows 1 and 2 clash before row 3 does, but (0, 3) comes first row-major
        params = CodeParameters((8,), (2,), 4)
        code = PartitionedCode.from_supports(params, [[0, 1], [2, 3], [3, 4], [1, 5]])
        assert verify_mcwc(code).violation == "words 0 <0, 1> and 3 <1, 5> are at distance 2 < 4"

    def test_weight_twenty_of_forty_matches_the_scan(self):
        # t = 11 of 20 canonical points, so the masks fold eleven levels deep
        params = CodeParameters.uniform(1, 40, 20, 20)
        rng = random.Random(0)
        code = PartitionedCode.from_supports(params, [rng.sample(range(40), 20) for _ in range(5)])
        assert verify_mcwc(code) == all_pairs_report(code)

    def test_871_word_code_matches_the_scan(self):
        from mcwc.designs import (
            bfc_fill, fill_hole, mcwc_to_square, sfs_type_key, square_to_mcwc,
            transversal_design, wfc_construct,
        )

        frame = wfc_construct(
            transversal_design(5, 4),
            {x: 4 for x in range(20)},
            {x: 2 for x in range(20)},
            {sfs_type_key([(4, 2)] * 5): corpus.sfs_square(5, 5)},
        )
        h19 = corpus.hsas_square(11, 3, 19)
        star19 = fill_hole(h19, mcwc_to_square(corpus.small_code(3, 3)))
        code = square_to_mcwc(bfc_fill(frame, 3, 3, [h19] * 4 + [star19]))
        assert len(code) == 871
        report = verify_mcwc(code)
        assert report == all_pairs_report(code)
        assert report.valid and report.min_distance == 6
        moved = moved_onto_an_earlier_side(code)
        report = verify_mcwc(moved)
        assert report == all_pairs_report(moved)
        assert not report.valid


def moved_onto_an_earlier_side(code):
    """``code`` with word j = len // 2 moved onto the first side of the earlier
    word i = j // 3: the two share two points, so on a code of total weight
    four at distance six the moved code falls below its distance."""
    n1 = code.params.block_lengths[0]
    words = list(code.words)
    j = len(words) // 2
    i = j // 3
    side1 = [x for x in words[i].support if x < n1]
    side2 = [x for x in words[j].support if x >= n1]
    words[j] = PartitionedWord.from_support(code.params, side1 + side2)
    assert words[j].support not in code.support_set()
    return PartitionedCode(code.params, tuple(words))


def test_shipped_codes_match_the_pairwise_scan():
    # every shipped explicit code and every developed code with n1 <= 17, as
    # shipped and with one word moved onto the first side of an earlier word:
    # they share two points, so the code falls below distance 6
    codes = [(f"small_{a}_{b}", corpus.small_code(a, b)) for a, b in corpus.SMALL_PAIRS]
    codes += [(f"t{a}_n{b}", develop(corpus.develop_table(a, b)))
              for a, b in corpus.develop_pairs() if a <= 17]
    assert len(codes) == len(corpus.SMALL_PAIRS) + 16
    assert sum(len(code) for name, code in codes if name.startswith("t")) == 1299
    for name, code in codes:
        expected = all_pairs_report(code)
        assert expected.valid
        assert verify_mcwc(code) == expected, name
        if len(code) < 2:
            continue
        moved = moved_onto_an_earlier_side(code)
        expected = all_pairs_report(moved)
        assert not expected.valid
        assert verify_mcwc(moved) == expected, name


class TestParameters:
    def test_block_spans(self):
        assert P233.block_spans() == ((0, 3), (3, 6))

    def test_uniform(self):
        p = CodeParameters.uniform(3, 4, 2, 6)
        assert p.is_uniform and p.m == 3 and p.total_length == 12

    @pytest.mark.parametrize("make,message", [
        (lambda: CodeParameters((3.5,), (1,), 2), "block lengths must be integers, got 3.5"),
        (lambda: CodeParameters((3,), (1.5,), 2), "block weights must be integers, got 1.5"),
        (lambda: CodeParameters((), (), 2), "at least one block is required"),
        (lambda: CodeParameters.uniform(0, 3, 1, 2), "m must be positive"),
        (lambda: CodeParameters((4,), (2,), 4.5), "the distance must be an integer, got 4.5"),
        (lambda: CodeParameters((4,), (2,), "4"), "the distance must be an integer, got '4'"),
        (lambda: CodeParameters((4,), (2,), None), "the distance must be an integer, got None"),
        (lambda: PartitionedWord.from_support(P233, [0.5, 2]),
         "support indices must be integers, got 0.5"),
        (lambda: PartitionedWord.from_support(P233, ["3", "1"]),
         "support indices must be integers, got '3'"),
        (lambda: PartitionedWord.from_support(P233, [1, "x"]),
         "support indices must be integers, got 'x'"),
    ], ids=["length", "weight", "no-block", "uniform-m", "distance", "distance-str",
            "distance-none", "index", "index-str", "index-token"])
    def test_invalid_messages(self, make, message):
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == message

    def test_invalid(self):
        with pytest.raises(DomainError):
            CodeParameters((0,), (0,), 0)
        with pytest.raises(DomainError):
            CodeParameters((3,), (1, 1), 2)
        with pytest.raises(DomainError):
            CodeParameters((3,), (-1,), 2)

    def test_integral_values_of_other_types_are_kept(self):
        p = CodeParameters((4.0,), (2,), 6.0)
        assert p == CodeParameters((4,), (2,), 6) and type(p.distance) is int
        assert PartitionedWord.from_support(P233, (i for i in (4.0, 0))).support == (0, 4)

    def test_infeasible_weights_are_representable(self):
        p = CodeParameters((3,), (4,), 2)
        assert p.block_weights == (4,)

    def test_canonical_complements_and_sorts(self):
        p = CodeParameters((6, 6, 6), (4, 2, 2), 6)
        assert p.canonical() == CodeParameters.uniform(3, 6, 2, 6)
        # w = n complements to the forced weight 0; w = n/2 stays
        assert CodeParameters((4, 3, 4), (2, 3, 3), 2).canonical() == CodeParameters(
            (3, 4, 4), (0, 1, 2), 2
        )

    def test_canonical_keeps_infeasible_blocks(self):
        p = CodeParameters((3, 5, 2), (7, 4, 3), 4)
        c = p.canonical()
        assert c == CodeParameters((5, 2, 3), (1, 3, 7), 4)
        assert c.canonical() == c

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 12)), min_size=1, max_size=4),
           st.integers(0, 20))
    def test_canonical_is_idempotent(self, blocks, d):
        p = CodeParameters(tuple(n for n, _ in blocks), tuple(w for _, w in blocks), d)
        c = p.canonical()
        assert c.canonical() == c and c.distance == d
        assert sorted(c.block_lengths) == sorted(p.block_lengths)
        for n, w in zip(c.block_lengths, c.block_weights):
            assert 2 * w <= n or w > n


class TestCodeFiles:
    TEXT = "mcwc 2 6\npart 1 3 2\npart 2 3 2\n0 1 3 4\n"

    def test_parse(self):
        code = parse_code(self.TEXT)
        assert code.params == P233
        assert code.words[0].support == (0, 1, 3, 4)

    def test_comments_and_blanks(self):
        text = "# header\nmcwc 2 6\n\npart 1 3 2  # first\npart 2 3 2\n0 1 3 4\n"
        assert len(parse_code(text)) == 1

    def test_empty_support_word_cannot_be_written(self):
        code = PartitionedCode.from_supports(CodeParameters((3,), (0,), 0), [[]])
        with pytest.raises(FormatError) as exc:
            format_code(code)
        assert str(exc.value) == "the code file format cannot express an empty-support word"

    def test_roundtrip_canonical(self):
        canonical = format_code(parse_code(self.TEXT))
        assert format_code(parse_code(canonical)) == canonical

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("mcwc 2\n", "header"),
            ("mcwc 2 6\npart 2 3 2\n", "part index"),
            ("mcwc 1 6\npart 1 3 2\n1 0\n", "ascending"),
            ("mcwc 1 6\npart 1 3 2\n0 9\n", "out of range"),
            # CodeParameters checks every length, then every weight, then d
            ("mcwc 2 6\npart 1 3 2\npart 2 -5 2\n", "line 3: block lengths must be positive"),
            ("mcwc 2 6\npart 1 3 -1\npart 2 0 2\n", "line 3: block lengths must be positive"),
            ("mcwc 2 6\npart 1 3 2\n# gap\npart 2 3 -1\n", "line 4: block weights must be"),
            ("mcwc 1 -2\npart 1 3 2\n", "line 1: distance must be non-negative"),
            ("mcwc 2 6\npart 1 3 2\n", "missing 'part 2' line"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(FormatError) as exc:
            parse_code(text)
        assert fragment in str(exc.value)


class TestRequire:
    def test_truth_value_is_the_verdict(self):
        assert VerificationReport(True)
        assert not VerificationReport(False, "words 0 and 1 are identical")

    def test_valid_report_passes(self):
        assert VerificationReport(True).require("unused") is None

    def test_invalid_report_raises_with_its_violation(self):
        report = VerificationReport(False, "words 0 and 1 are identical")
        with pytest.raises(ConstructionError) as exc:
            report.require("translated code fails verification")
        assert str(exc.value) == "translated code fails verification: words 0 and 1 are identical"


# -- property tests -----------------------------------------------------------


@st.composite
def params_and_words(draw, count=3):
    m = draw(st.integers(1, 3))
    lengths = tuple(draw(st.integers(1, 6)) for _ in range(m))
    weights = tuple(draw(st.integers(0, n)) for n in lengths)
    d = draw(st.integers(0, 8))
    params = CodeParameters(lengths, weights, d)
    words = []
    for _ in range(count):
        support = []
        for (start, _), n, w in zip(params.block_spans(), lengths, weights):
            block = draw(
                st.lists(
                    st.integers(0, n - 1), min_size=w, max_size=w, unique=True
                )
            )
            support.extend(start + i for i in block)
        words.append(PartitionedWord.from_support(params, support))
    return params, words


@settings(max_examples=150, deadline=None)
@given(params_and_words())
def test_metric_properties(pw):
    _, (u, v, x) = pw
    assert hamming_distance(u, v) == hamming_distance(v, u)
    assert (hamming_distance(u, v) == 0) == (u.support == v.support)
    assert hamming_distance(u, x) <= hamming_distance(u, v) + hamming_distance(v, x)


def block_weights(word, params):
    """The number of support points in each block's span of ``params``."""
    return tuple(sum(a <= x < b for x in word.support) for a, b in params.block_spans())


@settings(max_examples=150, deadline=None)
@given(params_and_words())
def test_verify_agrees_with_min_distance(pw):
    params, words = pw
    unique = {w.support: w for w in words}
    code = PartitionedCode(params, tuple(unique.values()))
    report = verify_mcwc(code)
    weights_ok = all(block_weights(w, params) == params.block_weights for w in code.words)
    d = min_distance(code)
    distance_ok = d is None or d >= params.distance
    assert report.valid == (weights_ok and distance_ok)
    if report.valid:
        assert report.min_distance == d


@settings(max_examples=80, deadline=None)
@given(params_and_words(count=4))
def test_serialize_parse_roundtrip(pw):
    params, words = pw
    unique = {w.support: w for w in words if w.support}
    if not unique:
        return
    code = PartitionedCode(params, tuple(unique.values()))
    text = format_code(code)
    again = parse_code(text)
    assert again.support_set() == code.support_set()
    assert format_code(again) == text


@st.composite
def candidate_codes(draw):
    """Distinct words with exact block weights on 1-3 blocks, some above half
    weight, at any distance from 0 to past twice the canonical weight; often
    with a word planted at distance 2 from another, at a random row."""
    m = draw(st.integers(1, 3))
    lengths = [draw(st.integers(2, 8)) for _ in range(m)]
    # the first block has a positive canonical weight; any may be complemented
    canon = [draw(st.integers(k == 0, n // 2)) for k, n in enumerate(lengths)]
    weights = [draw(st.sampled_from([c, n - c])) for c, n in zip(canon, lengths)]
    total = sum(canon)
    params = CodeParameters(tuple(lengths), tuple(weights), draw(st.integers(0, 2 * total + 3)))
    spans = params.block_spans()

    def support():
        return [a + i for (a, _), n, w in zip(spans, lengths, weights)
                for i in draw(st.permutations(range(n)))[:w]]

    supports = [support() for _ in range(draw(st.integers(2, 40)))]
    movable = [spans[k] for k, (n, w) in enumerate(zip(lengths, weights)) if 0 < w < n]
    if supports and movable and draw(st.booleans()):
        base = draw(st.sampled_from(supports))
        a, b = draw(st.sampled_from(movable))
        out = draw(st.sampled_from([x for x in base if a <= x < b]))
        into = draw(st.sampled_from([x for x in range(a, b) if x not in base]))
        planted = [x for x in base if x != out] + [into]
        supports.insert(draw(st.integers(0, len(supports))), planted)
    unique = dict.fromkeys(tuple(sorted(s)) for s in supports)
    return PartitionedCode.from_supports(params, unique)


@settings(max_examples=300, deadline=None)
@given(candidate_codes())
def test_verify_matches_the_pairwise_scan(code):
    assert verify_mcwc(code) == all_pairs_report(code)


@st.composite
def sharing_lists(draw):
    """(s, points, supports): s in 1..4 and at least two sorted supports of
    one weight w >= s on at most 40 points.  The words are random, or the
    graphs {k*q + c(k) : k < w} of distinct polynomials c of degree < s over
    GF(q), which share fewer than s points pairwise; then 0-3 words that
    share at least s points with an earlier word are planted at random rows."""
    s = draw(st.integers(1, 4))
    spread = [(w, q) for w in range(s, 9) for q in (2, 3, 5, 7, 11, 13, 17, 19)
              if w <= q and w * q <= 40]
    if draw(st.booleans()):
        w, q = draw(st.sampled_from(spread))
        points = w * q
        picks = draw(st.lists(st.integers(0, q**s - 1), min_size=2,
                              max_size=min(197, q**s), unique=True))
        supports = [[k * q + sum(c // q**e % q * k**e for e in range(s)) % q for k in range(w)]
                    for c in picks]
    else:
        w = draw(st.integers(s, 8))
        points = draw(st.integers(w, 40))
        support = st.lists(st.integers(0, points - 1), min_size=w, max_size=w, unique=True)
        supports = draw(st.lists(support, min_size=2, max_size=197))
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(1, len(supports)))
        keep = draw(st.permutations(supports[draw(st.integers(0, j - 1))]))
        keep = keep[:draw(st.integers(s, w))]
        rest = [x for x in draw(st.permutations(range(points))) if x not in keep]
        supports.insert(j, keep + rest[:w - len(keep)])
    return s, points, [tuple(sorted(x)) for x in supports]


@settings(max_examples=150, deadline=None)
@given(sharing_lists())
def test_first_pair_sharing_is_the_least_pair(drawn):
    s, points, supports = drawn
    least = next(((i, j) for i, j in combinations(range(len(supports)), 2)
                  if len(set(supports[i]) & set(supports[j])) >= s), None)
    assert core._first_pair_sharing(supports, s, points) == least


@st.composite
def holding_cases(draw):
    """(words, support, s): up to 40 words on at most 12 points, a support on
    the same points, possibly empty, and s in 1..len(support) + 1."""
    points = draw(st.integers(1, 12))
    point_sets = st.lists(st.integers(0, points - 1), max_size=points, unique=True)
    words = draw(st.lists(point_sets, min_size=1, max_size=40))
    support = sorted(draw(point_sets))
    s = draw(st.integers(1, len(support) + 1))
    return words, support, s


@settings(max_examples=300, deadline=None)
@given(holding_cases())
def test_holding_is_the_words_that_hold_s_points(drawn):
    words, support, s = drawn
    through = [0] * 12  # every point is below 12
    for i, word in enumerate(words):
        for x in word:
            through[x] |= 1 << i
    expected = sum(1 << i for i, word in enumerate(words)
                   if len(set(word) & set(support)) >= s)
    assert core._holding(through, support, s) == expected


def reference_report(code):
    """verify_mcwc's verdict from the definition: the first word in row order
    with other parameters or a wrong block weight (blocks in order), then the
    first word identical to an earlier one, then the first pair in row-major
    order closer than d; else valid, with the least distance."""
    params, words = code.params, code.words
    for k, w in enumerate(words):
        if w.params != params:
            return VerificationReport(False, f"word {k} has mismatched parameters")
        for i, (got, want) in enumerate(zip(block_weights(w, params), params.block_weights)):
            if got != want:
                return VerificationReport(
                    False, f"word {k} {w} has weight {got} in block {i}, expected {want}"
                )
    for k in range(len(words)):
        for j in range(k):
            if words[j].support == words[k].support:
                return VerificationReport(False, f"words {j} and {k} are identical")
    d = params.distance
    pairs = [(len(set(words[i].support) ^ set(words[j].support)), i, j)
             for i, j in combinations(range(len(words)), 2)]
    for dist, i, j in pairs:
        if dist < d:
            return VerificationReport(
                False, f"words {i} {words[i]} and {j} {words[j]} are at distance {dist} < {d}"
            )
    return VerificationReport(True, min_distance=min(pairs)[0] if pairs else None)


@st.composite
def invalid_candidates(draw):
    """A candidate code with 0-3 words planted at random rows: a word with one
    point more or fewer (a wrong block weight), a copy of a word, or a copy
    whose parameters have another distance, another shape, or are an equal
    but separate object."""
    code = draw(candidate_codes())
    params = code.params
    lengths, weights, d = params.block_lengths, params.block_weights, params.distance
    words = list(code.words)
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from(words))
        kind = draw(st.sampled_from(["weight", "copy", "distance", "shape", "equal"]))
        if kind == "weight":
            support = list(base.support)
            free = [x for x in range(params.total_length) if x not in support]
            if support and (not free or draw(st.booleans())):
                support.remove(draw(st.sampled_from(support)))
            else:
                support.append(draw(st.sampled_from(free)))
            planted = PartitionedWord.from_support(params, support)
        elif kind == "copy":
            planted = base
        else:
            other = {
                "distance": CodeParameters(lengths, weights, d + 1),
                "shape": CodeParameters(lengths[:-1] + (lengths[-1] + 1,), weights, d),
                "equal": CodeParameters(lengths, weights, d),
            }[kind]
            planted = PartitionedWord(other, base.support, base.bits)
        words.insert(draw(st.integers(0, len(words))), planted)
    return PartitionedCode(params, tuple(words))


@settings(max_examples=300, deadline=None)
@given(invalid_candidates())
def test_verify_matches_the_definition_on_invalid_candidates(code):
    assert verify_mcwc(code) == reference_report(code)


DEVELOPED_PAIRS = [(a, b) for a, b in corpus.develop_pairs() if a <= 17]


@functools.cache
def developed_code(n1, n2):
    return develop(corpus.develop_table(n1, n2))


@st.composite
def mutated_developed_codes(draw):
    """A shipped developed code with n1 <= 17 (39-132 words) with 1-4 words
    planted or overwritten at random rows: a word with one point more or
    fewer in one block (a wrong block weight), a copy of a word, a word with
    one side of a word and the other side of another (so it shares at least
    two points with each), or a copy whose parameters have another distance,
    another shape, or are an equal but separate object."""
    code = developed_code(*draw(st.sampled_from(DEVELOPED_PAIRS)))
    params = code.params
    (n1, n2), weights = params.block_lengths, params.block_weights
    words = list(code.words)
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from(words))
        # clashes, the last check, show only when no other mutation does
        kind = draw(st.sampled_from(["weight", "copy", "clash", "clash", "clash", "params"]))
        if kind == "weight":
            support = list(base.support)
            a, b = draw(st.sampled_from([(0, n1), (n1, n1 + n2)]))
            inside = [x for x in support if a <= x < b]
            if inside and draw(st.booleans()):
                support.remove(draw(st.sampled_from(inside)))
            else:
                support.append(draw(st.sampled_from([x for x in range(a, b) if x not in support])))
            planted = PartitionedWord.from_support(params, support)
        elif kind == "copy":
            planted = base
        elif kind == "clash":
            first, second = base, draw(st.sampled_from(words))
            if draw(st.booleans()):
                first, second = second, first
            planted = PartitionedWord.from_support(
                params, [x for x in first.support if x < n1] + [x for x in second.support if x >= n1])
        else:
            other = draw(st.sampled_from([
                CodeParameters((n1, n2), weights, 5),
                CodeParameters((n1, n2 + 1), weights, 6),
                CodeParameters((n1, n2), weights, 6),
            ]))
            planted = PartitionedWord(other, base.support, base.bits)
        row = draw(st.integers(0, len(words) - 1))
        if draw(st.booleans()):
            words.insert(row, planted)
        else:
            words[row] = planted
    return PartitionedCode(params, tuple(words))


@settings(max_examples=200, deadline=None)
@given(mutated_developed_codes())
def test_verify_matches_the_definition_on_mutated_developed_codes(code):
    assert verify_mcwc(code) == reference_report(code)


# -- a code holds its columns -------------------------------------------------


@st.composite
def planted_supports(draw):
    """(params, supports): the words of :func:`candidate_codes` with 0-3 words
    planted at random rows: a word with one point more or fewer (a wrong
    block weight), a repeated word, or a word with one point moved inside a
    block, at distance 2 from the word it was moved from (a close pair)."""
    code = draw(candidate_codes())
    params, supports = code.params, [list(s) for s in code.supports]
    for _ in range(draw(st.integers(0, 3))):
        base = list(draw(st.sampled_from(supports)))
        free = [x for x in range(params.total_length) if x not in base]
        kind = draw(st.sampled_from(["weight", "copy", "close"]))
        if kind == "weight":
            if not free or draw(st.booleans()):
                base.remove(draw(st.sampled_from(base)))
            else:
                base.append(draw(st.sampled_from(free)))
        elif kind == "close":
            a, b = draw(st.sampled_from(params.block_spans()))
            inside, outside = [x for x in base if a <= x < b], [x for x in free if a <= x < b]
            if inside and outside:
                base[base.index(draw(st.sampled_from(inside)))] = draw(st.sampled_from(outside))
        supports.insert(draw(st.integers(0, len(supports))), base)
    return params, supports


def _format_or_error(code):
    try:
        return format_code(code)
    except FormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(planted_supports())
def test_columns_and_words_make_the_same_code(drawn):
    params, supports = drawn
    words = [PartitionedWord.from_support(params, s) for s in supports]
    as_words = PartitionedCode(params, words)
    as_columns = PartitionedCode.from_columns(
        params, [w.support for w in words], [w.bits for w in words])
    checked = PartitionedCode.from_supports(params, supports)
    for code in (as_columns, checked):
        assert code == as_words and hash(code) == hash(as_words)
        assert code.supports == as_words.supports and code.bits == as_words.bits
        assert verify_mcwc(code) == verify_mcwc(as_words)
        assert _format_or_error(code) == _format_or_error(as_words)
        assert len(code) == len(as_words) == len(supports)
        assert code.sorted_words() == as_words.sorted_words()
        assert code.support_set() == as_words.support_set()
        assert code.words is code.words and code.words == as_words.words
    assert as_words.words == tuple(words)
    assert all(a is b for a, b in zip(as_words.words, words))


def test_a_code_given_a_word_with_other_parameters_is_another_code():
    # equal codes verify alike, so the first such word is part of a code's identity
    code = PartitionedCode.from_supports(P233, [[0, 1, 3, 4], [1, 2, 4, 5]])
    first, second = code.words
    other = CodeParameters((3, 3), (2, 2), 4)
    foreign = PartitionedCode(P233, [first, PartitionedWord(other, second.support, second.bits)])
    assert foreign != code and foreign.supports == code.supports
    assert foreign == PartitionedCode(P233, foreign.words)
    assert verify_mcwc(foreign) == VerificationReport(False, "word 1 has mismatched parameters")
    assert verify_mcwc(code) == VerificationReport(
        False, "words 0 <0, 1, 3, 4> and 1 <1, 2, 4, 5> are at distance 4 < 6")


class TestNoWordObjects:
    """Parsing, developing, verifying and searching read and make the columns
    of a code; its :class:`PartitionedWord` objects are built only when
    ``words`` is read."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The number of PartitionedWord objects constructed so far."""
        count = [0]
        init = PartitionedWord.__init__

        def counting(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(PartitionedWord, "__init__", counting)
        return lambda: count[0]

    @pytest.mark.parametrize("argv", [
        ["verify", "codes/small_5_5.mcwc"],
        ["verify", "develop/t13_n25.dev"],
        ["table", "--n1", "13"],
    ], ids=["verify-mcwc", "verify-dev", "table"])
    def test_cli(self, argv, built, capsys):
        argv = [str(corpus.data_root() / a) if "/" in a else a for a in argv]
        assert main(argv) == 0
        assert built() == 0
        assert "ok" in capsys.readouterr().out

    def test_oracle_witness(self, built):
        params = CodeParameters.uniform(1, 9, 8, 2)
        result = max_mcwc(params)
        assert (result.size, result.stop, result.nodes) == (9, "trivial", 0)
        assert verify_mcwc(result.witness).min_distance == 2
        assert built() == 0
        words = result.witness.words
        assert built() == 9 and result.witness.words is words
        # the 8-subsets of 0..8 in lexicographic order: the missing point descends
        assert [w.support for w in words] == [
            tuple(x for x in range(9) if x != k) for k in range(8, -1, -1)]
        assert words == tuple(PartitionedWord(params, s, b) for s, b in enumerate_words(params))
        assert [w.bits for w in words] == [511 ^ 1 << k for k in range(8, -1, -1)]
        assert built() == 18
