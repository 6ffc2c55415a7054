"""Code constructions: concatenation, cyclic development of base-codeword
tables, resolvable designs and edge-colored decompositions.

Every construction re-verifies its output; nothing is trusted, including the
shipped data tables.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .core import (
    CodeParameters,
    ConstructionError,
    DomainError,
    FormatError,
    PartitionedCode,
    PartitionedWord,
    ShapeError,
    SizeError,
    VerificationReport,
    _closest_pair,
    _ints,
    _read_text,
    _records,
    _verify_columns,
    verify_mcwc,
)
from .designs import transversal_design

# ---------------------------------------------------------------------------
# q-ary codes and concatenation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QaryCode:
    q: int
    length: int
    words: tuple[tuple[int, ...], ...]
    distance: int

    @classmethod
    def build(cls, q: int, length: int, words, distance: int) -> "QaryCode":
        return cls(int(q), int(length), tuple(tuple(int(s) for s in w) for w in words), int(distance))


def verify_qary(code: QaryCode) -> VerificationReport:
    for k, word in enumerate(code.words):
        if len(word) != code.length:
            return VerificationReport(False, f"word {k} has length {len(word)}")
        if any(not 0 <= s < code.q for s in word):
            return VerificationReport(False, f"word {k} has a symbol outside [0, {code.q})")
    # one bit per (coordinate, symbol): every distance doubles
    bits = [sum(1 << (k * code.q + s) for k, s in enumerate(word)) for word in code.words]
    found = _closest_pair(bits, 2 * code.distance)
    if found is not None and found[0] < 2 * code.distance:
        d, a, b = found
        return VerificationReport(
            False, f"words {a} and {b} are at distance {d // 2} < {code.distance}"
        )
    return VerificationReport(True)


def repetition_code(q: int, length: int) -> QaryCode:
    return QaryCode.build(q, length, [(s,) * length for s in range(q)], length)


def concatenate(inner: PartitionedCode, outer: QaryCode) -> PartitionedCode:
    """Substitute inner constant-weight codewords for outer symbols.

    The output has one block per outer coordinate and distance at least the
    product of the two distances."""
    if inner.params.m != 1:
        raise ShapeError("the inner code must have a single block")
    verify_mcwc(inner).require("invalid inner code")
    verify_qary(outer).require("invalid outer code")
    if outer.q > len(inner.words):
        raise SizeError(
            f"outer alphabet {outer.q} exceeds the {len(inner.words)} inner codewords"
        )
    n = inner.params.block_lengths[0]
    w = inner.params.block_weights[0]
    params = CodeParameters(
        (n,) * outer.length,
        (w,) * outer.length,
        inner.params.distance * outer.distance,
    )
    inner_supports = [word.support for word in inner.words]
    supports = []
    for word in outer.words:
        supp: list[int] = []
        for block, symbol in enumerate(word):
            supp.extend(block * n + i for i in inner_supports[symbol])
        supports.append(supp)
    code = PartitionedCode.from_supports(params, supports)
    verify_mcwc(code).require("concatenated code fails verification")
    return code


# ---------------------------------------------------------------------------
# Base-codeword tables and cyclic development
#
# Points are labeled e_c (group element e in a class c), 'inf' or 'a<k>';
# the fixed points of a layout are the 'inf' and 'a<k>' ones.
# Development adds t to the group element of every non-fixed point, for t in
# the cyclic group; words marked with a shorter orbit repeat earlier and the
# declared length is cross-checked against actual closure.
# ---------------------------------------------------------------------------

Point = tuple  # ("g", element, class) | ("inf",) | ("a", k)


@dataclass(frozen=True)
class BaseWord:
    points: tuple[Point, ...]
    orbit: Optional[int] = None  # None: full group order

    def __str__(self) -> str:
        return "<" + ", ".join(_point_str(p) for p in self.points) + ">"


@dataclass(frozen=True)
class BaseCodewordTable:
    group_order: int
    classes: tuple[tuple[int, ...], tuple[int, ...]]
    fixed: tuple[tuple[str, ...], tuple[str, ...]]
    words: tuple[BaseWord, ...]

    @property
    def side_lengths(self) -> tuple[int, int]:
        return (
            self.group_order * len(self.classes[0]) + len(self.fixed[0]),
            self.group_order * len(self.classes[1]) + len(self.fixed[1]),
        )


def _point_str(p: Point) -> str:
    if p[0] == "g":
        return f"{p[1]}_{p[2]}"
    if p[0] == "inf":
        return "inf"
    return f"a{p[1]}"


_POINT = re.compile(r"inf|a(\d+)|(\d+)_(\d+)")
_NOT_FIXED = "fixed point {!r} must be 'inf' or 'a<k>'"


def _parse_point(token: str, lineno=None) -> Point:
    m = _POINT.fullmatch(token)
    if m is None:
        raise FormatError(f"cannot parse point token {token!r}", lineno)
    a, e, c = m.groups()
    return ("g", int(e), int(c)) if e else ("a", int(a)) if a else ("inf",)


def _layout(table: BaseCodewordTable) -> dict[Point, int]:
    """Global coordinate of every labeled point: class-major group points
    first, then the fixed points, side 1 before side 2.  A class or fixed
    point listed twice, or a fixed point written like a group point, raises
    ``ConstructionError``."""
    coord: dict[Point, int] = {}
    for side in range(2):
        points = [("g", e, c) for c in table.classes[side] for e in range(table.group_order)]
        for token in table.fixed[side]:
            p = _parse_point(token)
            if p[0] == "g":
                raise ConstructionError(_NOT_FIXED.format(token))
            points.append(p)
        for p in points:
            if p in coord:
                what = f"class {p[2]}" if p[0] == "g" else f"point {_point_str(p)}"
                raise ConstructionError(f"the layout lists {what} twice")
            coord[p] = len(coord)
    return coord


def _develop_columns(
    table: BaseCodewordTable,
) -> tuple[CodeParameters, list[tuple[int, ...]], list[int]]:
    """The developed code of :func:`develop` as columns ``(params, supports,
    bits)``: word k's sorted support and packed bits, in development order.
    Makes every check that :func:`develop` documents, in its order, and
    verifies the columns at distance 6."""
    g = table.group_order
    if g < 1:
        raise DomainError("group order must be positive")
    coord = _layout(table)
    n1, n2 = table.side_lengths
    params = CodeParameters((n1, n2), (2, 2), 6)
    # each labeled point: whether it lies on the first side (the coordinates
    # below n1), and the coordinates and bits of its translates t = 0, ..., g - 1
    orbits = {p: (x < n1, [x] * g, [1 << x] * g) for p, x in coord.items() if p[0] != "g"}
    for c in itertools.chain(*table.classes):
        start = coord[("g", 0, c)]
        # the class's coordinates twice over: a point's translates are a slice
        ring = [*range(start, start + g)] * 2
        ring_bits = [1 << x for x in ring[:g]] * 2
        for e in range(g):
            orbits[("g", e, c)] = (start < n1, ring[e:e + g], ring_bits[e:e + g])
    supports: list[tuple[int, ...]] = []
    bits: list[int] = []
    repeated = None  # the first base support that repeats a point: after all other checks
    for k, word in enumerate(table.words):
        if len(word.points) != 4:
            raise ConstructionError(f"base word {k} {word} does not have four points")
        found = list(map(orbits.get, word.points))
        if None in found:
            p = word.points[found.index(None)]
            raise ConstructionError(
                f"base word {k} {word} uses {_point_str(p)}, outside the declared layout"
            )
        (in_a, a, bits_a), (in_b, b, bits_b), (in_c, c, bits_c), (in_d, d, bits_d) = found
        in1 = in_a + in_b + in_c + in_d
        if in1 != 2:
            raise ConstructionError(
                f"base word {k} {word} has {in1} points on the first side, expected 2"
            )
        declared = word.orbit if word.orbit is not None else g
        orbit = list(map(tuple, map(sorted, zip(a, b, c, d))))
        # a cyclic action first repeats the word itself (the appended copy: g)
        length = (orbit + orbit[:1]).index(orbit[0], 1)
        if length != declared:
            raise ConstructionError(
                f"base word {k} {word} has orbit length {length}, declared {declared}"
            )
        if repeated is None and len(set(orbit[0])) < 4:
            repeated = list(orbit[0])
        supports += orbit[:length]
        # four distinct points' bits: their sum is their union
        bits += map(sum, zip(bits_a[:length], bits_b, bits_c, bits_d))
    if repeated is not None:
        raise DomainError(f"duplicate support index in {repeated}")
    _verify_columns(params, supports, bits).require("developed code fails verification")
    return params, supports, bits


def develop(table: BaseCodewordTable) -> PartitionedCode:
    """Develop every base word under the cyclic group, flatten to global
    coordinates, and verify the resulting code at distance 6.

    Declared short orbits are cross-checked: the orbit of a word must close
    exactly at its declared length (at the group order when undeclared).
    """
    params, supports, bits = _develop_columns(table)
    words = map(PartitionedWord, itertools.repeat(params), supports, bits)
    return PartitionedCode(params, tuple(words))


# Base-codeword file format:
#   develop <g> <m>                      (m must be 2)
#   layout <side> classes=<c,...> [fixed=<tok,...>]
#   w <p1> <p2> <p3> <p4> [orbit=<len>]


def parse_base_table(text: str) -> BaseCodewordTable:
    head, fields, body = _records(text, "base-codeword", "develop <g> <m>")
    g, m = _ints(fields, head, "header fields must be integers")
    if m != 2:
        raise FormatError("only two-sided tables are supported (m = 2)", head)
    classes: dict[int, tuple[int, ...]] = {}
    fixed: dict[int, tuple[str, ...]] = {}
    words: list[BaseWord] = []
    parsed: dict[str, Point] = {}  # each point token that parsed, by its text
    for lineno, tokens in body:
        if tokens[0] == "layout":
            if len(tokens) < 3:
                raise FormatError("expected 'layout <side> classes=... [fixed=...]'", lineno)
            (side,) = _ints(tokens[1:2], lineno, "layout side must be an integer")
            if side not in (1, 2):
                raise FormatError("side must be 1 or 2", lineno)
            if side in classes:
                raise FormatError(f"'layout {side}' is repeated", lineno)
            cls: tuple[int, ...] = ()
            fix: tuple[str, ...] = ()
            named = set()
            for item in tokens[2:]:
                name = next((n for n in ("classes=", "fixed=") if item.startswith(n)), None)
                if name is None:
                    raise FormatError(f"unknown layout item {item!r}", lineno)
                if name in named:
                    raise FormatError(f"layout item {name!r} is repeated", lineno)
                named.add(name)
                value = item[len(name):]
                if name == "classes=":
                    cls = tuple(_ints(filter(None, value.split(",")), lineno,
                                      "layout classes must be integers"))
                else:
                    fix = tuple(t for t in value.split(",") if t)
                    for token in fix:
                        if _parse_point(token, lineno)[0] == "g":
                            raise FormatError(_NOT_FIXED.format(token), lineno)
            classes[side] = cls
            fixed[side] = fix
        elif tokens[0] == "w":
            orbit = None
            points = []
            for token in tokens[1:]:
                if token.startswith("orbit="):
                    if orbit is not None:
                        raise FormatError("base word item 'orbit=' is repeated", lineno)
                    (orbit,) = _ints([token[len("orbit="):]], lineno,
                                     "orbit length must be an integer")
                else:
                    point = parsed.get(token)
                    if point is None:
                        point = parsed[token] = _parse_point(token, lineno)
                    points.append(point)
            if len(points) != 4:
                raise FormatError("a base word needs exactly four points", lineno)
            words.append(BaseWord(tuple(points), orbit))
        else:
            raise FormatError(f"unknown directive {tokens[0]!r}", lineno)
    if 1 not in classes or 2 not in classes:
        raise FormatError("both 'layout 1' and 'layout 2' lines are required")
    return BaseCodewordTable(
        g,
        (classes[1], classes[2]),
        (fixed.get(1, ()), fixed.get(2, ())),
        tuple(words),
    )


def format_base_table(table: BaseCodewordTable) -> str:
    out = [f"develop {table.group_order} 2"]
    for side in (1, 2):
        items = [f"layout {side}"]
        items.append("classes=" + ",".join(map(str, table.classes[side - 1])))
        if table.fixed[side - 1]:
            items.append("fixed=" + ",".join(table.fixed[side - 1]))
        out.append(" ".join(items))
    for word in table.words:
        line = "w " + " ".join(_point_str(p) for p in word.points)
        if word.orbit is not None:
            line += f" orbit={word.orbit}"
        out.append(line)
    return "\n".join(out) + "\n"


def load_base_table(path) -> BaseCodewordTable:
    return parse_base_table(_read_text(path))


# ---------------------------------------------------------------------------
# Resolvable designs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvableBibd:
    v: int
    k: int
    lam: int
    alpha: int
    classes: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def build(cls, v, k, lam, alpha, classes) -> "ResolvableBibd":
        return cls(
            int(v),
            int(k),
            int(lam),
            int(alpha),
            tuple(
                tuple(tuple(sorted(int(p) for p in block)) for block in cl)
                for cl in classes
            ),
        )

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.chain(*self.classes))


def verify_bibd(design: ResolvableBibd) -> VerificationReport:
    """Check the parameter domain v >= 2, k >= 2, lambda >= 1, alpha >= 1,
    block sizes, pair balance, and that every class covers each point
    exactly alpha times."""
    v, k, lam, alpha = design.v, design.k, design.lam, design.alpha
    if v < 2 or k < 2 or lam < 1 or alpha < 1:
        return VerificationReport(
            False, "a design needs v >= 2, k >= 2, lambda >= 1 and alpha >= 1"
        )
    for b, block in enumerate(design.blocks):
        if len(block) != k or len(set(block)) != k:
            return VerificationReport(False, f"block {b} is not a {k}-subset")
        if any(not 0 <= p < v for p in block):
            return VerificationReport(False, f"block {b} contains an unknown point")
    pair_count: dict[tuple[int, int], int] = {}
    for block in design.blocks:
        for p, q in itertools.combinations(block, 2):
            pair_count[(p, q)] = pair_count.get((p, q), 0) + 1
    for p, q in itertools.combinations(range(v), 2):
        c = pair_count.get((p, q), 0)
        if c != lam:
            return VerificationReport(
                False, f"pair ({p}, {q}) occurs in {c} blocks, expected {lam}"
            )
    for ci, cl in enumerate(design.classes):
        count = [0] * v
        for block in cl:
            for p in block:
                count[p] += 1
        bad = [p for p in range(v) if count[p] != alpha]
        if bad:
            return VerificationReport(
                False,
                f"class {ci} covers point {bad[0]} {count[bad[0]]} times, expected {alpha}",
            )
    return VerificationReport(True)


def bibd_to_mcwc(design: ResolvableBibd) -> PartitionedCode:
    """One codeword per point, indicating block membership over the class/block
    grid; classes index the blocks row by row in file order.

    A verified design has a pair (v >= 2) in lambda >= 1 blocks, so m >= 1
    classes, each of alpha*v/k blocks since it covers every point alpha
    times.  Each point lies in r = alpha*m blocks and shares lambda of them
    with any other point, so the code has distance 2*(r - lambda)."""
    verify_bibd(design).require("invalid design")
    m, n = len(design.classes), len(design.classes[0])
    params = CodeParameters.uniform(m, n, design.alpha, 2 * (design.alpha * m - design.lam))
    supports = []
    for x in range(design.v):
        supp = [
            ci * n + bi
            for ci, cl in enumerate(design.classes)
            for bi, block in enumerate(cl)
            if x in block
        ]
        supports.append(supp)
    code = PartitionedCode.from_supports(params, supports)
    verify_mcwc(code).require("translated code fails verification")
    return code


# BIBD file format: 'bibd <v> <k> <lambda> <alpha>', then 'class' separator
# lines each followed by its 'block <points...>' lines.


def parse_bibd(text: str) -> ResolvableBibd:
    head, fields, body = _records(text, "design", "bibd <v> <k> <lambda> <alpha>")
    v, k, lam, alpha = _ints(fields, head, "header fields must be integers")
    classes: list[list[tuple[int, ...]]] = []
    for lineno, tokens in body:
        if tokens == ["class"]:
            classes.append([])
        elif tokens[0] == "class":
            raise FormatError("expected 'class'", lineno)
        elif tokens[0] == "block":
            if not classes:
                raise FormatError("a 'class' line must precede the first block", lineno)
            classes[-1].append(tuple(_ints(tokens[1:], lineno, "block points must be integers")))
        else:
            raise FormatError(f"unknown directive {tokens[0]!r}", lineno)
    return ResolvableBibd.build(v, k, lam, alpha, classes)


def format_bibd(design: ResolvableBibd) -> str:
    out = [f"bibd {design.v} {design.k} {design.lam} {design.alpha}"]
    for cl in design.classes:
        out.append("class")
        for block in cl:
            out.append("block " + " ".join(map(str, block)))
    return "\n".join(out) + "\n"


def affine_plane_bibd(q: int) -> ResolvableBibd:
    """The resolvable BIBD(q^2, q, 1) of lines of the affine plane over GF(q),
    with alpha = 1: TD(q, q), whose blocks, q at a time, are the lines of one
    slope each, followed by its groups, the vertical lines."""
    td = transversal_design(q, q)
    classes = [td.blocks[s * q:(s + 1) * q] for s in range(q)] + [td.groups]
    return ResolvableBibd.build(q * q, q, 1, 1, classes)


def one_factorization_k4() -> ResolvableBibd:
    """The three perfect matchings of K4 as a resolvable BIBD(4, 2, 1)."""
    classes = [
        [(0, 1), (2, 3)],
        [(0, 2), (1, 3)],
        [(0, 3), (1, 2)],
    ]
    return ResolvableBibd.build(4, 2, 1, 1, classes)


# ---------------------------------------------------------------------------
# Edge-colored decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionMember:
    """A member given by its vertex partition; its edges are implied: every
    ordered pair (x, y) with x in part i, y in part j, x != y, colored (i, j)."""

    parts: tuple[tuple[int, ...], ...]

    def edges(self) -> Iterable[tuple[int, int, tuple[int, int]]]:
        for i, pi in enumerate(self.parts, start=1):
            for j, pj in enumerate(self.parts, start=1):
                for x in pi:
                    for y in pj:
                        if x != y:
                            yield (x, y, (i, j))


@dataclass(frozen=True)
class EdgeMember:
    x: int
    y: int
    color: tuple[int, int]

    def edges(self):
        yield (self.x, self.y, self.color)


Member = Union[PartitionMember, EdgeMember]


@dataclass(frozen=True)
class ColoredDecomposition:
    n: int
    m: int  # colors are the ordered pairs over [1, m]
    members: tuple[Member, ...]


def verify_decomposition(dec: ColoredDecomposition) -> VerificationReport:
    """Every edge of the complete edge-colored digraph (all ordered vertex
    pairs in all m^2 colors) must occur in exactly one member."""
    n, m = dec.n, dec.m
    seen: dict[tuple[int, int, tuple[int, int]], int] = {}
    for k, member in enumerate(dec.members):
        if isinstance(member, PartitionMember):
            if len(member.parts) != m:
                return VerificationReport(
                    False, f"member {k} has {len(member.parts)} parts, expected {m}"
                )
            flat = list(itertools.chain(*member.parts))
            if len(set(flat)) != len(flat):
                return VerificationReport(False, f"member {k} repeats a vertex")
        for x, y, c in member.edges():
            if not (0 <= x < n and 0 <= y < n) or x == y:
                return VerificationReport(False, f"member {k} has an invalid edge ({x},{y})")
            if not (1 <= c[0] <= m and 1 <= c[1] <= m):
                return VerificationReport(False, f"member {k} uses an unknown color {c}")
            key = (x, y, c)
            if key in seen:
                return VerificationReport(
                    False, f"edge {key} occurs in members {seen[key]} and {k}"
                )
            seen[key] = k
    expected = n * (n - 1) * m * m
    if len(seen) != expected:
        return VerificationReport(
            False, f"{len(seen)} edges covered, the complete digraph has {expected}"
        )
    return VerificationReport(True)


def decomposition_to_mcwc(
    dec: ColoredDecomposition, weights: Sequence[int]
) -> PartitionedCode:
    """One codeword per partition member: coordinate (i, x) is set when x lies
    in part i.  Output distance is 2*(total weight) - 2 because any two members
    share at most one colored edge, hence at most one support coordinate."""
    weights = [int(w) for w in weights]
    if len(weights) != dec.m:
        raise ShapeError(f"expected {dec.m} weights, got {len(weights)}")
    if any(w <= 0 for w in weights):
        raise DomainError("weights must be positive")
    if any(weights[i] < weights[i + 1] for i in range(len(weights) - 1)):
        raise DomainError("weights must be non-increasing")
    verify_decomposition(dec).require("invalid decomposition")
    n = dec.n
    total = sum(weights)
    params = CodeParameters(
        (n,) * dec.m, tuple(weights), 2 * total - 2
    )
    supports = []
    for k, member in enumerate(dec.members):
        if not isinstance(member, PartitionMember):
            continue
        sizes = tuple(len(p) for p in member.parts)
        if sizes != tuple(weights):
            raise ConstructionError(
                f"member {k} has part sizes {sizes}, expected {tuple(weights)}"
            )
        supp = [
            i * n + x for i, part in enumerate(member.parts) for x in part
        ]
        supports.append(supp)
    code = PartitionedCode.from_supports(params, supports)
    verify_mcwc(code).require("translated code fails verification")
    w1 = weights[0]
    strictly_largest = w1 > weights[1] if dec.m > 1 else w1 > 1
    divisor = w1 * (w1 - 1) if strictly_largest else w1 * w1
    expected = n * (n - 1) // divisor
    if len(code) != expected:
        raise ConstructionError(
            f"{len(code)} shaped members, a full decomposition determines {expected}"
        )
    return code


# Decomposition file format:
#   decomp <n> <m>
#   member partition S1=<p,p,...> S2=<...> ...
#   member edge <x> <y> <i> <j>


def parse_decomposition(text: str) -> ColoredDecomposition:
    head, fields, body = _records(text, "decomposition", "decomp <n> <m>")
    n, m = _ints(fields, head, "header fields must be integers")
    members: list[Member] = []
    for lineno, tokens in body:
        if tokens[0] != "member" or len(tokens) < 2:
            raise FormatError("expected a 'member ...' line", lineno)
        if tokens[1] == "partition":
            parts: dict[int, tuple[int, ...]] = {}
            for item in tokens[2:]:
                mm = re.fullmatch(r"S(\d+)=([\d,]*)", item)
                if not mm:
                    raise FormatError(f"cannot parse partition item {item!r}", lineno)
                idx = int(mm.group(1))
                if idx in parts:
                    raise FormatError(f"partition item S{idx} is repeated", lineno)
                values = tuple(int(p) for p in mm.group(2).split(",") if p)
                parts[idx] = values
            if sorted(parts) != list(range(1, m + 1)):
                raise FormatError(f"partition must declare S1..S{m}", lineno)
            members.append(PartitionMember(tuple(parts[i] for i in range(1, m + 1))))
        elif tokens[1] == "edge":
            if len(tokens) != 6:
                raise FormatError("expected 'member edge <x> <y> <i> <j>'", lineno)
            x, y, i, j = _ints(tokens[2:], lineno, "edge fields must be integers")
            members.append(EdgeMember(x, y, (i, j)))
        else:
            raise FormatError(f"unknown member kind {tokens[1]!r}", lineno)
    return ColoredDecomposition(n, m, tuple(members))


def format_decomposition(dec: ColoredDecomposition) -> str:
    out = [f"decomp {dec.n} {dec.m}"]
    for member in dec.members:
        if isinstance(member, PartitionMember):
            items = [
                f"S{i}=" + ",".join(map(str, part))
                for i, part in enumerate(member.parts, start=1)
            ]
            out.append("member partition " + " ".join(items))
        else:
            out.append(
                f"member edge {member.x} {member.y} {member.color[0]} {member.color[1]}"
            )
    return "\n".join(out) + "\n"


def digon_decomposition(n: int) -> ColoredDecomposition:
    """Decompose the one-colored complete digraph into digons (m = 1, parts of
    size two); the translated code is all weight-2 words at distance 2."""
    members = [
        PartitionMember(((x, y),)) for x, y in itertools.combinations(range(n), 2)
    ]
    return ColoredDecomposition(n, 1, tuple(members))


def ordered_pair_decomposition(n: int) -> ColoredDecomposition:
    """Decompose the 4-colored complete digraph (m = 2) into two-vertex
    members with parts {x}, {y}, plus single edges for the within-part colors."""
    members: list[Member] = []
    for x in range(n):
        for y in range(n):
            if x != y:
                members.append(PartitionMember(((x,), (y,))))
                members.append(EdgeMember(x, y, (1, 1)))
                members.append(EdgeMember(x, y, (2, 2)))
    return ColoredDecomposition(n, 2, tuple(members))
