"""Partitioned binary codes: parameters, words, verification and file I/O.

A partitioned code lives on a coordinate set split into ``m`` blocks.  Block
``i`` occupies the global index range ``[sum(n_j, j<i), sum(n_j, j<=i))`` and
every codeword is required to carry exactly ``w_i`` ones inside it.  A code
holds its words as two columns, sorted support tuples and packed-bit integers,
and builds its :class:`PartitionedWord` objects from them on first read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence


class McwcError(Exception):
    """Base class for every error raised by this package."""


class ParameterMismatchError(McwcError):
    """Two words or codes do not share the same parameter set."""


class FormatError(McwcError):
    """A data file does not conform to its grammar."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ShapeError(McwcError):
    """An operation requiring a particular block shape received another."""


class DomainError(McwcError):
    """An argument lies outside the operation's domain."""


class SizeError(McwcError):
    """An instance exceeds a configured size cap."""


class IngredientError(McwcError):
    """A recursive construction is missing a required ingredient."""


class ConstructionError(McwcError):
    """A construction produced an object that fails verification."""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a structural verification; ``violation`` names the first failure."""

    valid: bool
    violation: Optional[str] = None
    min_distance: Optional[int] = None  # set by verify_mcwc on a valid code

    def __bool__(self) -> bool:
        return self.valid

    def require(self, what: str) -> None:
        """Raise ``ConstructionError("<what>: <violation>")`` unless valid."""
        if not self.valid:
            raise ConstructionError(f"{what}: {self.violation}")


def _as_int(v, rule: str) -> int:
    """``v`` as an int; raises ``DomainError("<rule>, got <v!r>")`` when ``v``
    is not an integer (2.5, "3", None)."""
    try:
        iv = int(v)
    except (TypeError, ValueError):
        iv = None
    if iv is None or iv != v:
        raise DomainError(f"{rule}, got {v!r}")
    return iv


def _as_ints(values: Iterable, rule: str) -> list[int]:
    """:func:`_as_int` of every value, as a list: one C-level list comparison
    checks them all, and only a failure loops to name the first culprit."""
    values = list(values)
    try:
        ints = list(map(int, values))
    except (TypeError, ValueError):
        ints = None
    if ints != values:
        for v in values:
            _as_int(v, rule)
    return ints


def canonical_weight(w: int, n: int) -> int:
    """n - w when n/2 < w <= n, else w: complementing a block keeps every
    distance.  A block with w > n has no word and keeps its weight."""
    return n - w if n < 2 * w <= 2 * n else w


@dataclass(frozen=True)
class CodeParameters:
    """Shape of a partitioned code: block lengths, block weights and a distance.

    Infeasible shapes (``w_i > n_i``) are representable on purpose: the bound
    recursions and verifiers give them their natural meaning (no word exists).
    """

    block_lengths: tuple[int, ...]
    block_weights: tuple[int, ...]
    distance: int

    def __post_init__(self):
        lengths = tuple(_as_int(n, "block lengths must be integers") for n in self.block_lengths)
        weights = tuple(_as_int(w, "block weights must be integers") for w in self.block_weights)
        object.__setattr__(self, "block_lengths", lengths)
        object.__setattr__(self, "block_weights", weights)
        object.__setattr__(self, "distance", _as_int(self.distance, "the distance must be an integer"))
        if len(self.block_lengths) == 0:
            raise DomainError("at least one block is required")
        if len(self.block_lengths) != len(self.block_weights):
            raise DomainError("block_lengths and block_weights must have equal length")
        if any(n <= 0 for n in self.block_lengths):
            raise DomainError("block lengths must be positive")
        if any(w < 0 for w in self.block_weights):
            raise DomainError("block weights must be non-negative")
        if self.distance < 0:
            raise DomainError("distance must be non-negative")

    @classmethod
    def uniform(cls, m: int, n: int, w: int, d: int) -> "CodeParameters":
        if m < 1:
            raise DomainError("m must be positive")
        return cls((n,) * m, (w,) * m, d)

    @property
    def m(self) -> int:
        return len(self.block_lengths)

    @property
    def total_length(self) -> int:
        return sum(self.block_lengths)

    @property
    def total_weight(self) -> int:
        return sum(self.block_weights)

    @property
    def is_uniform(self) -> bool:
        return len(set(self.block_lengths)) == 1 and len(set(self.block_weights)) == 1

    @lru_cache(maxsize=4096)  # every bound asks for it, most on one shape
    def canonical(self) -> "CodeParameters":
        """The equivalent shape with each weight at :func:`canonical_weight` and
        the blocks sorted by (weight, length): equivalent shapes compare equal."""
        lengths = self.block_lengths
        blocks = sorted(zip(map(canonical_weight, self.block_weights, lengths), lengths))
        weights, lengths = zip(*blocks)
        return CodeParameters(lengths, weights, self.distance)

    def block_spans(self) -> tuple[tuple[int, int], ...]:
        """Half-open global index range of each block, as (start, end) pairs."""
        spans = []
        start = 0
        for n in self.block_lengths:
            spans.append((start, start + n))
            start += n
        return tuple(spans)


@lru_cache(maxsize=None)
def _block_masks(block_lengths: tuple[int, ...]) -> tuple[int, ...]:
    masks = []
    start = 0
    for n in block_lengths:
        masks.append(((1 << n) - 1) << start)
        start += n
    return tuple(masks)


@dataclass(frozen=True)
class PartitionedWord:
    """A binary word over a partitioned coordinate set, stored by support."""

    params: CodeParameters
    support: tuple[int, ...]
    bits: int = field(compare=False)

    @classmethod
    def from_support(cls, params: CodeParameters, indices: Iterable[int]) -> "PartitionedWord":
        return cls(params, *_support_column(indices, params.total_length))

    def __str__(self) -> str:
        return _support_str(self.support)


def _support_str(support) -> str:
    """How a report names a word: its support in angle brackets."""
    return "<" + ", ".join(map(str, support)) + ">"


def _support_column(indices: Iterable[int], n: int) -> tuple[tuple[int, ...], int]:
    """The sorted support and the packed bits of ``indices`` on ``n`` coordinates."""
    idx = sorted(_as_ints(indices, "support indices must be integers"))
    return tuple(idx), _support_bits(idx, n)


def _support_bits(idx: list[int], n: int) -> int:
    """The packed bits of ascending indices on ``n`` coordinates.  Raises
    ``DomainError`` for an index out of range (the first one, in order), and
    then for a repeated index."""
    if idx and (idx[0] < 0 or idx[-1] >= n):
        bad = idx[0] if idx[0] < 0 else idx[bisect_left(idx, n)]
        raise DomainError(f"support index {bad} out of range [0, {n})")
    bits = 0
    for i in idx:
        bits |= 1 << i
    if bits.bit_count() != len(idx):
        raise DomainError(f"duplicate support index in {idx}")
    return bits


def hamming_distance(u: PartitionedWord, v: PartitionedWord) -> int:
    """Size of the symmetric difference of the two supports."""
    if u.params != v.params:
        raise ParameterMismatchError("words belong to different parameter sets")
    return (u.bits ^ v.bits).bit_count()


@dataclass(frozen=True, init=False)
class PartitionedCode:
    """A code on one parameter set, held as two columns: ``supports[k]`` and
    ``bits[k]`` are word k's sorted support and packed bits.  ``words``, the
    :class:`PartitionedWord` objects, are built from the columns on first
    read.  Codes with equal parameters and supports compare equal, whether
    they were made from words or from columns, unless one was given a word
    with other parameters.

    The container itself performs no validation; :func:`verify_mcwc` is the
    checker, so invalid candidates are representable.
    """

    params: CodeParameters
    supports: tuple[tuple[int, ...], ...]
    bits: tuple[int, ...] = field(compare=False, repr=False)
    _mismatch: Optional[int] = field(repr=False)  # the first word with other parameters

    def __init__(self, params: CodeParameters, words: Iterable[PartitionedWord]):
        words = tuple(words)
        vars(self).update(
            params=params, supports=tuple(w.support for w in words),
            bits=tuple(w.bits for w in words), words=words,
            _mismatch=next((k for k, w in enumerate(words) if w.params != params), None))

    @classmethod
    def from_columns(cls, params: CodeParameters, supports, bits) -> "PartitionedCode":
        """The code whose word k has the sorted support ``supports[k]`` and the packed
        bits ``bits[k]``; unlike :meth:`from_supports`, it trusts them to agree."""
        code = cls.__new__(cls)
        vars(code).update(params=params, supports=tuple(supports), bits=tuple(bits),
                          _mismatch=None)
        return code

    @classmethod
    def from_supports(cls, params: CodeParameters, supports) -> "PartitionedCode":
        """The code of the index lists ``supports``, each checked and sorted as
        :meth:`PartitionedWord.from_support` does."""
        columns = [_support_column(s, params.total_length) for s in supports]
        return cls.from_columns(params, [s for s, _ in columns], [b for _, b in columns])

    @cached_property
    def words(self) -> tuple[PartitionedWord, ...]:
        return tuple(map(PartitionedWord, repeat(self.params), self.supports, self.bits))

    def __len__(self) -> int:
        return len(self.supports)

    def support_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.supports)

    def sorted_words(self) -> tuple[PartitionedWord, ...]:
        words = self.words
        return tuple(words[k] for k in sorted(range(len(words)), key=self.supports.__getitem__))


def _closest_pair(bits: Sequence[int], stop_below: int) -> Optional[tuple[int, int, int]]:
    """``(distance, i, j)`` of the first pair ``i < j`` of packed words in scan
    order that attains the least distance, or of the first pair closer than
    ``stop_below``, where the scan stops; ``None`` when fewer than two words."""
    found = None
    least = float("inf")
    for i, bi in enumerate(bits):
        for j in range(i + 1, len(bits)):
            dist = (bi ^ bits[j]).bit_count()
            if dist < least:
                least = dist
                found = (dist, i, j)
                if dist < stop_below:
                    return found
    return found


def _canonical_supports(params: CodeParameters, supports, bits) -> list[tuple[int, ...]]:
    """Each word's support with every block above half weight complemented
    (see :func:`canonical_weight`), which keeps every distance.  ``supports``
    and ``bits`` list the same words; only one of them is read."""
    flip = 0
    for mask, w, n in zip(_block_masks(params.block_lengths), params.block_weights,
                          params.block_lengths):
        if canonical_weight(w, n) != w:
            flip |= mask
    if not flip:
        return list(supports)
    out = []
    for b in bits:
        b ^= flip
        support = []
        while b:
            low = b & -b
            support.append(low.bit_length() - 1)
            b ^= low
        out.append(tuple(support))
    return out


def _holding(through: list[int], support, s: int) -> int:
    """The words that hold at least ``s`` >= 1 of ``support``'s points, where
    bit i of ``through[x]`` is set when word i holds x.

    Saturating level masks fold the points in: after each point's mask m,
    ``counts[k] |= counts[k - 1] & m``, so ``counts[k]`` holds the words met
    more than k times, and ``counts[s - 1]`` is the answer.  One and two
    levels are unrolled."""
    if s == 1:
        at = 0
        for x in support:
            at |= through[x]
        return at
    if s == 2:
        once = at = 0
        for x in support:
            m = through[x]
            at |= once & m
            once |= m
        return at
    counts = [0] * s
    top = range(s - 1, 0, -1)
    for x in support:
        m = through[x]
        for k in top:
            counts[k] |= counts[k - 1] & m
        counts[0] |= m
    return counts[-1]


def _first_pair_sharing(supports, s: int, length: int) -> Optional[tuple[int, int]]:
    """The first pair ``i < j`` (least i, then least j) of sorted supports on
    coordinates ``0 .. length - 1`` that share at least ``s`` points; or None.

    ``through[x]`` has bit i set when an earlier word i holds x, and the
    lowest bit of the earlier words that share s points with word j is the
    least i.  For s <= 2, word j's masks are folded inline, in the pass that
    adds word j to them, into the earlier words that meet it once and twice;
    for s >= 3, :func:`_holding` folds them before word j is added."""
    through = [0] * length
    found = None
    bit = 1
    for j, support in enumerate(supports):
        # the earlier words that share s points with word j
        if s <= 2:
            once = twice = 0
            for x in support:
                seen = through[x]
                twice |= once & seen
                once |= seen
                through[x] = seen | bit
            clash = twice if s == 2 else once
        else:
            clash = _holding(through, support, s)
            for x in support:
                through[x] |= bit
        bit <<= 1
        if not clash:
            continue
        i = (clash & -clash).bit_length() - 1
        if found is None or i < found[0]:
            found = (i, j)
            if i == 0:
                break
    return found


def _closest_pair_by_sharing(params: CodeParameters, supports, bits: Sequence[int],
                             stop_below: int) -> Optional[tuple[int, int, int]]:
    """:func:`_closest_pair` of the packed words ``bits``, for distinct words
    that carry the block weights of ``params``; ``supports`` are the same
    words' sorted supports.

    On canonical supports of total weight W, a pair sharing s points is at
    distance 2(W - s).  So the first pair closer than ``stop_below`` is the
    first pair sharing t = W - ceil(stop_below / 2) + 1 points, and otherwise
    the first closest pair is the first one sharing the most points, tried
    from t - 1 down.  Each level asks :func:`_first_pair_sharing`, which
    folds per-point word masks; the pairwise scan never runs.
    """
    if len(bits) < 2:
        return None
    total = sum(map(canonical_weight, params.block_weights, params.block_lengths))
    t = total - (stop_below + 1) // 2 + 1
    canonical = _canonical_supports(params, supports, bits) if t > 0 else []
    for s in range(t, 0, -1):
        found = _first_pair_sharing(canonical, s, params.total_length)
        if found is not None:
            break
    else:
        # every pair is too close (t <= 0) or no two words share a point:
        # all pairs are equally far apart, and the scan stops at the first
        found = (0, 1)
    i, j = found
    return (bits[i] ^ bits[j]).bit_count(), i, j


def min_distance(code: PartitionedCode) -> Optional[int]:
    """Minimum pairwise Hamming distance; ``None`` when fewer than two words."""
    found = _closest_pair(code.bits, 1)
    return None if found is None else found[0]


def _weight_violation(params: CodeParameters, supports, bits: Sequence[int]) -> Optional[str]:
    """The first word in row order with a wrong block weight, and its first
    such block, as a report's message; None when every word carries the
    block weights of ``params``.  ``supports`` only name the word."""
    blocks = list(zip(_block_masks(params.block_lengths), params.block_weights))
    # one pass per block over all words; the rows are walked only on a failure
    count = len(bits)
    if any(list(map(int.bit_count, map(mask.__and__, bits))).count(w) != count
           for mask, w in blocks):
        for k, b in enumerate(bits):
            for i, (mask, w) in enumerate(blocks):
                got = (b & mask).bit_count()
                if got != w:
                    word = _support_str(supports[k])
                    return f"word {k} {word} has weight {got} in block {i}, expected {w}"
    return None


def verify_mcwc(code: PartitionedCode) -> VerificationReport:
    """Check block weights, distinctness and the distance floor of a candidate.

    Violations are reported, never raised; the report pinpoints the first
    failing word or pair.  Codes with at most one word satisfy any distance.
    A valid report carries the code's :func:`min_distance`.  It reads the
    code's columns, never its word objects.
    """
    params, supports, bits = code.params, code.supports, code.bits
    k = code._mismatch
    # a wrong block weight in an earlier row comes before a foreign word k
    message = _weight_violation(params, supports[:k], bits[:k])
    if message is not None or k is not None:
        return VerificationReport(False, message or f"word {k} has mismatched parameters")
    if len(set(bits)) != len(bits):
        seen: dict[int, int] = {}
        for k, b in enumerate(bits):
            if b in seen:
                return VerificationReport(False, f"words {seen[b]} and {k} are identical")
            seen[b] = k
    d = params.distance
    # distinct words with equal block weights are >= 2 apart, so a pair at
    # distance 2 is a closest one and the search may stop there
    found = _closest_pair_by_sharing(params, supports, bits, max(d, 3))
    if found is not None and found[0] < d:
        dist, i, j = found
        return VerificationReport(
            False,
            f"words {i} {_support_str(supports[i])} and {j} {_support_str(supports[j])}"
            f" are at distance {dist} < {d}",
        )
    return VerificationReport(True, min_distance=None if found is None else found[0])


# ---------------------------------------------------------------------------
# Code file format
#
#   line 1:            mcwc <m> <d>
#   lines 2 .. m+1:    part <i> <n_i> <w_i>        (i is 1-based, in order)
#   remaining lines:   one codeword per line, ascending global support indices
#   '#' starts a comment; blank lines are ignored.
# ---------------------------------------------------------------------------


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line that has a token once its comment,
    from '#' on, is cut off."""
    return ((lineno, tokens) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (tokens := raw.split("#", 1)[0].split()))


def _ints(tokens: Iterable[str], lineno: Optional[int], message: str) -> list[int]:
    """``int`` of every token; a token it rejects raises ``FormatError(message, lineno)``."""
    try:
        return list(map(int, tokens))
    except ValueError:
        raise FormatError(message, lineno) from None


def _records(text: str, what: str, header: str):
    """The content lines of a data file whose first line matches the usage
    string ``header`` (e.g. ``"gdd <points>"``) in keyword and token count.

    Returns the header's line number, its fields after the keyword, and the
    other lines as (line number, tokens) pairs; no content line raises
    ``FormatError("empty <what> file")``."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError(f"empty {what} file")
    (lineno, tokens), body = lines[0], lines[1:]
    usage = header.split()
    if len(tokens) != len(usage) or tokens[0] != usage[0]:
        raise FormatError(f"expected header '{header}'", lineno)
    return lineno, tokens[1:], body


def parse_code(text: str) -> PartitionedCode:
    """Parse the canonical code file format; errors cite line numbers."""
    head, fields, body = _records(text, "code", "mcwc <m> <d>")
    m, d = _ints(fields, head, "header fields must be integers")
    if m < 1:
        raise FormatError("m must be positive", head)
    lengths: list[int] = []
    weights: list[int] = []
    for i in range(1, m + 1):
        if i > len(body):
            raise FormatError(f"missing 'part {i}' line")
        lineno, tokens = body[i - 1]
        if len(tokens) != 4 or tokens[0] != "part":
            raise FormatError(f"expected 'part {i} <n> <w>'", lineno)
        idx, n, w = _ints(tokens[1:], lineno, "part fields must be integers")
        if idx != i:
            raise FormatError(f"expected part index {i}, got {idx}", lineno)
        lengths.append(n)
        weights.append(w)
    try:
        params = CodeParameters(tuple(lengths), tuple(weights), d)
    except DomainError as exc:
        # cite the first line with a value CodeParameters rejects, in its check
        # order: the part lines' lengths, their weights, the header's distance
        culprits = [ln for (ln, _), n in zip(body, lengths) if n <= 0]
        culprits += [ln for (ln, _), w in zip(body, weights) if w < 0]
        raise FormatError(str(exc), (culprits + [head])[0]) from None
    n = params.total_length
    supports = []
    bits = []
    for lineno, tokens in body[m:]:
        indices = _ints(tokens, lineno, "support indices must be integers")
        if indices != sorted(indices):
            raise FormatError("support indices must be ascending", lineno)
        try:
            bits.append(_support_bits(indices, n))
        except DomainError as exc:
            raise FormatError(str(exc), lineno) from None
        supports.append(tuple(indices))
    return PartitionedCode.from_columns(params, supports, bits)


def format_code(code: PartitionedCode) -> str:
    """Serialize canonically: parts in order, words sorted by support."""
    params = code.params
    out = [f"mcwc {params.m} {params.distance}"]
    for i, (n, w) in enumerate(zip(params.block_lengths, params.block_weights), start=1):
        out.append(f"part {i} {n} {w}")
    for support in sorted(code.supports):
        if not support:
            raise FormatError("the code file format cannot express an empty-support word")
        out.append(" ".join(map(str, support)))
    return "\n".join(out) + "\n"


def _read_text(path) -> str:
    """The text of a data file; bytes that are not UTF-8 raise ``FormatError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_code(path) -> PartitionedCode:
    return parse_code(_read_text(path))


def save_code(code: PartitionedCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code(code))
