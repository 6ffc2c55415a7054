"""The parse layer against the reference parsers it replaced.

``reference_*`` below are the parsers as first written: every content line is
cut at '#' and stripped, then split again; every word's tokens are converted
twice, once to check their order and once in ``PartitionedWord.from_support``,
which sorts them again and range-checks every index.  The current parsers do
each step once.  On any text, valid or not, both must return equal objects
or raise the same exception class with the same message and line.
"""

from hypothesis import given, settings, strategies as st

from mcwc import corpus
from mcwc.constructions import develop
from mcwc.core import (
    CodeParameters,
    DomainError,
    FormatError,
    PartitionedCode,
    PartitionedWord,
    _records,
    format_code,
    parse_code,
)
from mcwc.designs import SkewSquare, SquareKind, parse_square


# ---------------------------------------------------------------------------
# Reference parsers
# ---------------------------------------------------------------------------


def reference_content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def reference_ints(tokens, lineno, message):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(message, lineno) from None


def reference_records(text, what, header):
    lines = [(lineno, line.split()) for lineno, line in reference_content_lines(text)]
    if not lines:
        raise FormatError(f"empty {what} file")
    (lineno, tokens), body = lines[0], lines[1:]
    usage = header.split()
    if len(tokens) != len(usage) or tokens[0] != usage[0]:
        raise FormatError(f"expected header '{header}'", lineno)
    return lineno, tokens[1:], body


def reference_from_support(params, indices):
    for i in indices:  # the first index that is not an int, in input order
        if not isinstance(i, int):
            raise DomainError(f"support indices must be integers, got {i!r}")
    idx = sorted(indices)
    n = params.total_length
    bits = 0
    for i in idx:
        if not 0 <= i < n:
            raise DomainError(f"support index {i} out of range [0, {n})")
        bits |= 1 << i
    if bits.bit_count() != len(idx):
        raise DomainError(f"duplicate support index in {idx}")
    return PartitionedWord(params, tuple(idx), bits)


def reference_parse_code(text):
    head, fields, body = reference_records(text, "code", "mcwc <m> <d>")
    m, d = reference_ints(fields, head, "header fields must be integers")
    if m < 1:
        raise FormatError("m must be positive", head)
    lengths, weights = [], []
    for i in range(1, m + 1):
        if i > len(body):
            raise FormatError(f"missing 'part {i}' line")
        lineno, tokens = body[i - 1]
        if len(tokens) != 4 or tokens[0] != "part":
            raise FormatError(f"expected 'part {i} <n> <w>'", lineno)
        idx, n, w = reference_ints(tokens[1:], lineno, "part fields must be integers")
        if idx != i:
            raise FormatError(f"expected part index {i}, got {idx}", lineno)
        lengths.append(n)
        weights.append(w)
    try:
        params = CodeParameters(tuple(lengths), tuple(weights), d)
    except DomainError as exc:
        culprits = [ln for (ln, _), n in zip(body, lengths) if n <= 0]
        culprits += [ln for (ln, _), w in zip(body, weights) if w < 0]
        raise FormatError(str(exc), (culprits + [head])[0]) from None
    words = []
    for lineno, tokens in body[m:]:
        indices = reference_ints(tokens, lineno, "support indices must be integers")
        if indices != sorted(indices):
            raise FormatError("support indices must be ascending", lineno)
        try:
            words.append(reference_from_support(params, indices))
        except DomainError as exc:
            raise FormatError(str(exc), lineno) from None
    return PartitionedCode(params, tuple(words))


def reference_parse_square(text):
    head, fields, body = reference_records(text, "square", "square <kind> <s> <v>")
    try:
        kind = SquareKind(fields[0])
    except ValueError:
        raise FormatError(f"unknown square kind {fields[0]!r}", head) from None
    s, v = reference_ints(fields[1:], head, "side and point count must be integers")
    cells = {}
    once = {}
    for lineno, tokens in body:
        tag = tokens[0]
        if tag == "cell":
            if len(tokens) != 5:
                raise FormatError("expected 'cell <i> <j> <a> <b>'", lineno)
            i, j, a, b = reference_ints(tokens[1:], lineno, "expected integers")
            if (i, j) in cells:
                raise FormatError(f"cell ({i},{j}) filled twice", lineno)
            cells[(i, j)] = frozenset((a, b))
        elif tag in ("hole-rows", "hole-points", "row-part", "point-part"):
            if tag in once:
                raise FormatError(f"'{tag}' is repeated", lineno)
            if kind is not (SquareKind.HSAS if tag.startswith("hole-") else SquareKind.SFS):
                raise FormatError(f"'{tag}' is not used by a {kind.value} square", lineno)
            if kind is SquareKind.HSAS:
                once[tag] = reference_ints(tokens[1:], lineno, "expected integers")
            else:
                groups = " ".join(tokens[1:]).split(";")
                once[tag] = [reference_ints(g.split(), lineno, "expected integers")
                             for g in groups if g.strip()]
        else:
            raise FormatError(f"unknown directive {tag!r}", lineno)
    return SkewSquare(
        kind,
        int(s),
        int(v),
        {(int(i), int(j)): frozenset(int(p) for p in pair) for (i, j), pair in cells.items()},
        frozenset(int(i) for i in once.get("hole-rows", ())),
        frozenset(int(p) for p in once.get("hole-points", ())),
        tuple(tuple(sorted(int(i) for i in part)) for part in once.get("row-part", ())),
        tuple(tuple(sorted(int(p) for p in part)) for part in once.get("point-part", ())),
    )


def outcome(call, *args):
    """The value (a code with its words' bits), or the exception's class,
    message and line."""
    try:
        value = call(*args)
    except Exception as exc:  # a bare ValueError must match too
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(value, PartitionedCode):
        return value, [word.bits for word in value.words]
    if isinstance(value, PartitionedWord):
        return value, value.bits
    return value


# ---------------------------------------------------------------------------
# Texts: valid lines, then token and line mutations
# ---------------------------------------------------------------------------

# every separator str.splitlines breaks at
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
SPACES = [" ", "  ", "\t", " \t ", "\u3000"]
BAD_TOKENS = ["x", "1.5", "-1", "-0", "+3", "1_0", "0x1", "\u0663", "#", "3#4", "99", "12345"]


@st.composite
def mutated(draw, lines):
    """``lines`` (token lists) as text after up to four mutations: a token
    replaced, deleted, repeated or swapped with the next; a comment-only,
    blank or '#'-suffixed line; mixed separators and spacing."""
    lines = [list(tokens) for tokens in lines]
    for _ in range(draw(st.integers(0, 4 if lines else 0))):
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k]
        op = draw(st.integers(0, 7))
        at = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if op == 0 and tokens:
            tokens[at] = draw(st.sampled_from(BAD_TOKENS))
        elif op == 1 and tokens:
            del tokens[at]
        elif op == 2 and tokens:
            tokens.insert(at, tokens[at])
        elif op == 3 and at + 1 < len(tokens):
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
        elif op == 4:
            lines.insert(k, draw(st.sampled_from([["#", "note"], ["#"], []])))
        elif op == 5:
            tokens.append(draw(st.sampled_from(["# note", "#", "#7 8"])))
        elif op == 6:
            lines.insert(k, list(tokens))
        else:
            lines.insert(k, [draw(st.sampled_from(SPACES))])
    text = ""
    for k, tokens in enumerate(lines):
        if k:
            text += draw(st.sampled_from(SEPARATORS))
        text += draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(SPACES)).join(tokens)
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def code_lines(draw):
    m = draw(st.integers(1, 3))
    lengths = [draw(st.integers(1, 6)) for _ in range(m)]
    weights = [draw(st.integers(0, n)) for n in lengths]
    lines = [["mcwc", str(m), str(draw(st.integers(0, 6)))]]
    lines += [["part", str(i), str(n), str(w)]
              for i, (n, w) in enumerate(zip(lengths, weights), start=1)]
    start = 0
    spans = []
    for n in lengths:
        spans.append(range(start, start + n))
        start += n
    for _ in range(draw(st.integers(0, 6))):
        support = []
        for span, w in zip(spans, weights):
            support += draw(st.lists(st.sampled_from(span), min_size=w, max_size=w, unique=True))
        fault = draw(st.integers(0, 5))
        if support and fault == 0:  # an index out of range, in order
            support[draw(st.integers(0, len(support) - 1))] = draw(st.integers(-3, start + 3))
        elif support and fault == 1:  # a repeated index, in order
            support.append(draw(st.sampled_from(support)))
        lines.append([str(i) for i in sorted(support)])
    return lines


@st.composite
def square_lines(draw):
    kind = draw(st.sampled_from(["sas", "sas*", "hsas", "hsas", "sfs", "sfs", "sas**"]))
    small = st.integers(0, 6).map(str)
    lines = [["square", kind, draw(small), draw(small)]]
    for _ in range(draw(st.integers(0, 8))):
        # mostly the directives that the kind uses
        what = draw(st.sampled_from([0, 0, 0, 1, 2] + {"hsas": [1] * 3, "sfs": [2] * 3}.get(kind, [])))
        if what == 0:
            # now and then a token that is not an integer
            token = st.integers(0, 15).flatmap(lambda k: st.sampled_from(BAD_TOKENS) if k == 0 else small)
            lines.append(["cell"] + [draw(token) for _ in range(4)])
        elif what == 1:
            tag = draw(st.sampled_from(["hole-rows", "hole-points"]))
            lines.append([tag] + draw(st.lists(small, max_size=3)))
        else:
            tag = draw(st.sampled_from(["row-part", "point-part"]))
            groups = draw(st.lists(st.lists(small, min_size=1, max_size=3), max_size=3))
            lines.append([tag] + " ; ".join(" ".join(g) for g in groups).split())
    return lines


@settings(max_examples=400, deadline=None)
@given(code_lines().flatmap(mutated))
def test_parse_code_matches_the_reference(text):
    assert outcome(parse_code, text) == outcome(reference_parse_code, text)


@settings(max_examples=300, deadline=None)
@given(square_lines().flatmap(mutated))
def test_parse_square_matches_the_reference(text):
    assert outcome(parse_square, text) == outcome(reference_parse_square, text)


HEADERS = [("code", "mcwc <m> <d>"), ("square", "square <kind> <s> <v>"),
           ("design", "gdd <points>"), ("base-codeword", "develop <g> <m>")]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["mcwc", "gdd", "square", "develop", "1", "-2", "x",
                                          "#", "a#b", "\u3000", "\x85"]), max_size=5),
                max_size=6).flatmap(mutated),
       st.sampled_from(HEADERS))
def test_records_match_the_reference(text, header):
    what, usage = header
    assert outcome(_records, text, what, usage) == outcome(reference_records, text, what, usage)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3),
       st.lists(st.one_of(st.integers(-3, 18), st.integers(0, 18).map(str)), max_size=6))
def test_from_support_matches_the_reference(lengths, indices):
    params = CodeParameters(tuple(lengths), (0,) * len(lengths), 0)
    assert (outcome(PartitionedWord.from_support, params, indices)
            == outcome(reference_from_support, params, indices))


def test_word_errors_in_order():
    head = "mcwc 1 2\npart 1 6 2\n"
    for line, message in [
        ("7 9 9", "support index 7 out of range [0, 6)"),  # the first bad index in order
        ("-2 -1 9", "support index -2 out of range [0, 6)"),
        ("1 6 6", "support index 6 out of range [0, 6)"),  # out of range before repeated
        ("3 3", "duplicate support index in [3, 3]"),
        ("3 2", "support indices must be ascending"),
        ("3 x", "support indices must be integers"),
    ]:
        for parse in (parse_code, reference_parse_code):
            assert outcome(parse, head + line) == (FormatError, f"line 3: {message}", 3)


def test_shipped_codes_round_trip():
    codes = [corpus.small_code(n1, n2) for n1, n2 in corpus.SMALL_PAIRS]
    codes += [develop(corpus.develop_table(n1, n2)) for n1, n2 in corpus.develop_pairs()]
    for code in codes:
        text = format_code(code)
        again = parse_code(text)
        assert again == PartitionedCode(code.params, code.sorted_words())
        assert [w.bits for w in again.words] == [w.bits for w in code.sorted_words()]
        assert outcome(parse_code, text) == outcome(reference_parse_code, text)
