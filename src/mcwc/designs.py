"""Skew almost-resolvable squares, their holey and frame variants, group
divisible designs, and the translations between squares and distance-6 codes.

A square is an s x s array over row/column index set [0, s) whose cells are
either empty or hold an unordered pair of points from [0, v).  Every kind is
checked through one hole model: row indices and points are split in parallel
into holes, none for ``sas`` and ``sas*``, one (T, W) for ``hsas`` and one per
part for ``sfs``.  No cell joins two rows of one hole, no pair joins two
points of one hole, and row i together with column i must

* for i in hole k, partition the points outside point-hole k;
* for i in no hole, partition all points but one, except that one index of a
  ``sas*`` misses three distinct points.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .core import (
    CodeParameters,
    DomainError,
    FormatError,
    IngredientError,
    PartitionedCode,
    ShapeError,
    VerificationReport,
    _as_int,
    _as_ints,
    _ints,
    _read_text,
    _records,
    verify_mcwc,
)


class SquareKind(str, Enum):
    SAS = "sas"
    SAS_STAR = "sas*"
    HSAS = "hsas"
    SFS = "sfs"


Cell = tuple[int, int]
Pair = frozenset  # of two point indices


class _Cells(dict):
    """A square's cells: a dict that refuses every change, so that a passing
    report stays true of the square that carries it."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a square's cells are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _Cells, (dict(self),)


@dataclass(frozen=True)
class SkewSquare:
    """A square and its hole metadata.  The constructor takes cells that are
    already canonical (int pairs to frozensets of ints) and keeps a read-only
    copy; :meth:`build` normalises and checks cells that a caller supplies.
    ``report`` is the passing report of :func:`verify_square`, set when this
    very square verified; an unchecked or invalid square carries none."""

    kind: SquareKind
    s: int
    v: int
    cells: Mapping[Cell, Pair]
    hole_rows: frozenset[int] = frozenset()
    hole_points: frozenset[int] = frozenset()
    row_parts: tuple[tuple[int, ...], ...] = ()
    point_parts: tuple[tuple[int, ...], ...] = ()
    report: Optional[VerificationReport] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.cells) is not _Cells:
            object.__setattr__(self, "cells", _Cells(self.cells))

    @classmethod
    def build(
        cls,
        kind: Union[SquareKind, str],
        s: int,
        v: int,
        cells: Mapping[Cell, Collection[int]],
        *,
        hole_rows: Iterable[int] = (),
        hole_points: Iterable[int] = (),
        row_parts: Iterable[Iterable[int]] = (),
        point_parts: Iterable[Iterable[int]] = (),
    ) -> "SkewSquare":
        kind = SquareKind(kind)
        s, v = _as_ints((s, v), "the side and the point count must be integers")
        rows, points = "rows must be integers", "points must be integers"
        try:  # one C-level comparison when the cells map int pairs to frozensets of ints
            frozen = {(int(i), int(j)): frozenset(map(int, pair)) for (i, j), pair in cells.items()}
        except (TypeError, ValueError):
            frozen = None
        if frozen != cells:
            frozen = {tuple(_as_ints((i, j), rows)): frozenset(_as_ints(pair, points))
                      for (i, j), pair in cells.items()}
        return cls(
            kind, s, v, frozen,
            frozenset(_as_ints(hole_rows, rows)),
            frozenset(_as_ints(hole_points, points)),
            tuple(tuple(sorted(_as_ints(part, rows))) for part in row_parts),
            tuple(tuple(sorted(_as_ints(part, points))) for part in point_parts),
        )

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def sfs_type(self) -> tuple[tuple[int, int], ...]:
        """Sorted multiset of (rows, points) hole sizes of an SFS."""
        if self.kind is not SquareKind.SFS:
            raise ShapeError("sfs_type is defined for SFS squares only")
        return tuple(sorted((len(r), len(p)) for r, p in zip(self.row_parts, self.point_parts)))


def sfs_type_key(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Canonical lookup key for an SFS type: the sorted (rows, points) multiset."""
    return tuple(sorted((int(a), int(b)) for a, b in pairs))


def _hole_of(parts: Iterable[Iterable[int]]) -> dict[int, int]:
    """The hole of each index that lies in a part: its part's position."""
    return {x: k for k, part in enumerate(parts) for x in part}


def _partitions(parts: Iterable[Iterable[int]], size: int) -> bool:
    """Whether ``parts`` partition [0, size), in time and space of the parts."""
    flat = sorted(itertools.chain(*parts))
    return len(flat) == size and flat == list(range(size))


def verify_square(sq: SkewSquare) -> VerificationReport:
    """Check every defining property of the square's kind; the report names
    the first violated property and the offending index or cell.  Each
    property is checked by bulk passes over the cells, which are walked in
    order only to name the first offender.  A passing report is attached to
    the square as ``sq.report``."""

    def fail(msg: str) -> VerificationReport:
        return VerificationReport(False, msg)

    if sq.s <= 0 or sq.v <= 0:
        return fail("side and point count must be positive")

    cells = sq.cells
    rows, cols = zip(*cells) if cells else ((), ())
    lines = rows + cols
    counts = Counter(lines)  # the cells on row/column i
    points = set().union(*cells.values())
    if cells and (min(counts) < 0 or max(counts) >= sq.s or {*map(len, cells.values())} != {2}
                  or min(points) < 0 or max(points) >= sq.v):
        for (i, j), pair in cells.items():
            if not (0 <= i < sq.s and 0 <= j < sq.s):
                return fail(f"cell ({i},{j}) outside the {sq.s}x{sq.s} array")
            if len(pair) != 2:
                return fail(f"cell ({i},{j}) does not hold a pair of two distinct points")
            if any(not 0 <= p < sq.v for p in pair):
                return fail(f"cell ({i},{j}) holds a point outside [0, {sq.v})")
    firsts, seconds = zip(*cells.values()) if cells else ((), ())

    # the holes: rows and points in parallel parts, one for an hsas, one per
    # part for an sfs, none for sas and sas*
    holey = sq.kind is SquareKind.HSAS
    if holey:
        if not sq.hole_rows or not sq.hole_points:
            return fail("an HSAS needs non-empty hole rows and hole points")
        if not all(0 <= i < sq.s for i in sq.hole_rows):
            return fail("hole rows outside the array")
        if not all(0 <= p < sq.v for p in sq.hole_points):
            return fail("hole points outside the point set")
        row_parts, point_parts = [sq.hole_rows], [sq.hole_points]
    elif sq.kind is SquareKind.SFS:
        if not _partitions(sq.row_parts, sq.s):
            return fail("row parts do not partition the row index set")
        if not _partitions(sq.point_parts, sq.v):
            return fail("point parts do not partition the point set")
        if len(sq.row_parts) != len(sq.point_parts):
            return fail("row and point partitions must have the same number of holes")
        row_parts, point_parts = sq.row_parts, sq.point_parts
    else:
        row_parts = point_parts = ()
    # the maps and lists below hold the cells and parts, never a list as long
    # as the side or the point count that the header claims
    row_hole = _hole_of(row_parts).get
    point_hole = _hole_of(point_parts).get

    # the distinct hole labels of a cell's row, column and two points
    labels = set(zip(map(row_hole, rows), map(row_hole, cols), map(point_hole, firsts),
                     map(point_hole, seconds))) if row_parts else ()

    # property 1: skewness; property 2: empty diagonal / empty hole subarrays
    if not cells.keys().isdisjoint(zip(cols, rows)):  # a mirrored cell or a diagonal one
        for (i, j) in cells:
            if i != j and (j, i) in cells:
                return fail(f"skewness violated: both ({i},{j}) and ({j},{i}) are filled")
        for (i, j) in cells:
            if i == j:
                return fail(f"diagonal cell ({i},{i}) is filled")
    if any(k is not None and k == h for k, h, _, _ in labels):
        for (i, j) in cells:
            k = row_hole(i)
            if k is not None and k == row_hole(j):
                return fail(f"hole cell ({i},{j}) is filled" if holey
                            else f"cell ({i},{j}) lies inside hole {k}")

    # property 3: every pair of points at most once
    if len(set(cells.values())) != len(cells):
        seen_pairs: dict[Pair, Cell] = {}
        for cell, pair in cells.items():
            if pair in seen_pairs:
                return fail(
                    f"pair {set(pair)} appears in cells {seen_pairs[pair]} and {cell}"
                )
            seen_pairs[pair] = cell

    # property 4: no pair inside a point hole
    if any(k is not None and k == h for _, _, k, h in labels):
        for cell, pair in cells.items():
            a, b = pair
            k = point_hole(a)
            if k is not None and k == point_hole(b):
                return fail(f"cell {cell} pairs two hole points {set(pair)}" if holey
                            else f"cell {cell} pairs two points of hole {k}")

    # resolvability: the points of row i and column i are the incidences
    # (i, p) of its counts[i] cells.  A line covers a point twice when two of
    # them coincide, and a line of hole k clashes when it covers a point of
    # point-hole k.  An sfs reports its rows hole by hole, every other kind
    # in index order.  A row outside ``visited`` holds no cell and lies in no
    # hole, so all of them share the verdict of the first one, ``blank``
    on_line, on_point = lines * 2, firsts * 2 + seconds * 2
    twice = clash = ()
    if len(set(zip(on_line, on_point))) != len(on_point):
        twice = {i for (i, _), c in Counter(zip(on_line, on_point)).items() if c > 1}
    if any(k is not None and k in (a, b) for r, c, a, b in labels for k in (r, c)):
        clash = {i for i, p in zip(on_line, on_point)
                 if row_hole(i) is not None and row_hole(i) == point_hole(p)}
    visited = set(counts).union(*row_parts)
    blank = next(i for i in itertools.count() if i not in visited)
    if sq.kind is SquareKind.SFS:
        order = itertools.chain(*row_parts)
    else:
        order = sorted(visited | {blank} if blank < sq.s else visited)
    starred = []
    for i in order:
        if i in twice:
            return fail(f"row/column {i}: a point is covered twice")
        covered = 2 * counts[i]  # the points of the line, each once
        k = row_hole(i)
        if k is not None:
            if covered != sq.v - len(point_parts[k]) or i in clash:
                return fail(
                    f"hole row/column {i} does not partition the points outside the hole"
                    if holey
                    else f"row/column {i} of hole {k} does not partition the points"
                    f" outside point-hole {k}"
                )
        elif covered == sq.v - 1:
            continue
        elif sq.kind is SquareKind.SAS_STAR and covered == sq.v - 3:
            starred.append(i)
        elif holey:
            return fail(f"row/column {i} covers {covered} points, expected {sq.v - 1}")
        else:
            return fail(
                f"row/column {i} covers {covered} points, not a partition of"
                f" the point set minus {'one point' if sq.kind is SquareKind.SAS else 'one or three points'}"
            )
    if sq.kind is SquareKind.SAS_STAR:
        count = len(starred)
        if blank in starred and sq.s - len(visited) > 1:
            # then so is every row outside ``visited``; the message names
            # only the first three deficient rows
            count += sq.s - len(visited) - 1
            empty = (i for i in range(sq.s) if i not in visited)
            starred = sorted(set(starred).union(itertools.islice(empty, 3)))
        if count > 3:
            starred = f"[{', '.join(map(str, starred[:3]))}, ...] ({count} in all)"
        if count != 1:
            return fail(f"expected exactly one deficient row/column, found {starred or 'none'}")
    report = VerificationReport(True)
    object.__setattr__(sq, "report", report)
    return report


# ---------------------------------------------------------------------------
# Squares <-> codes with two blocks of weight 2 and distance 6
# ---------------------------------------------------------------------------


def square_to_mcwc(sq: SkewSquare) -> PartitionedCode:
    """One codeword per filled cell (i, j) holding {a, b}: the support is
    {a, b, v+i, v+j} inside parameters (2; v, s; 2, 2; 6)."""
    if sq.kind not in (SquareKind.SAS, SquareKind.SAS_STAR):
        raise ShapeError("only sas and sas* squares translate to codes directly")
    (sq.report or verify_square(sq)).require("invalid square")
    params = CodeParameters((sq.v, sq.s), (2, 2), 6)
    # a verified pair lies below v, so each support is sorted
    supports = [(*sorted(pair), sq.v + min(cell), sq.v + max(cell))
                for cell, pair in sorted(sq.cells.items())]
    bits = [1 << a | 1 << b | 1 << i | 1 << j for a, b, i, j in supports]
    code = PartitionedCode.from_columns(params, supports, bits)
    verify_mcwc(code).require("translated code fails verification")
    return code


def mcwc_to_square(code: PartitionedCode) -> SkewSquare:
    """Inverse translation; requires an extremal code of shape (2; n1, n2; 2, 2; 6).

    The square kind follows n1 mod 4 (1: sas, 3: sas*).  Cells are oriented
    canonically with row < column; orientation does not affect validity.
    """
    params = code.params
    if params.m != 2 or params.block_weights != (2, 2) or params.distance != 6:
        raise ShapeError("expected parameters (2; n1, n2; 2, 2; 6)")
    n1, n2 = params.block_lengths
    if n1 % 4 == 1:
        kind = SquareKind.SAS
    elif n1 % 4 == 3:
        kind = SquareKind.SAS_STAR
    else:
        raise DomainError("the point-side length must be odd")
    target = (n2 * (n1 - 1)) // 4
    if len(code) != target:
        raise DomainError(
            f"resolvability needs an extremal code: {len(code)} words, expected {target}"
        )
    verify_mcwc(code).require("invalid code")
    # each word's rows (i, j) and its pair of points; a support is sorted, so i < j
    cells = {(i - n1, j - n1): frozenset((a, b)) for a, b, i, j in code.supports}
    sq = SkewSquare(kind, n2, n1, cells)
    verify_square(sq).require("translated square fails verification")
    return sq


# ---------------------------------------------------------------------------
# Group divisible designs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GddDesign:
    num_points: int
    groups: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, num_points: int, groups, blocks) -> "GddDesign":
        points = "points must be integers"
        return cls(
            _as_int(num_points, "the point count must be an integer"),
            tuple(tuple(sorted(_as_ints(g, points))) for g in groups),
            tuple(tuple(sorted(_as_ints(b, points))) for b in blocks),
        )


def verify_gdd(design: GddDesign) -> VerificationReport:
    """Every pair of distinct points lies in one group or exactly one block,
    never both."""
    x = design.num_points
    if not _partitions(design.groups, x):
        return VerificationReport(False, "groups do not partition the point set")
    group_of = _hole_of(design.groups)
    for b, block in enumerate(design.blocks):
        if len(set(block)) != len(block):
            return VerificationReport(False, f"block {b} repeats a point")
        if any(not 0 <= p < x for p in block):
            return VerificationReport(False, f"block {b} contains an unknown point")
    cover: dict[tuple[int, int], int] = {}
    for b, block in enumerate(design.blocks):
        for p, q in itertools.combinations(block, 2):
            if group_of[p] == group_of[q]:
                return VerificationReport(
                    False, f"block {b} joins points {p}, {q} of one group"
                )
            cover[(p, q)] = cover.get((p, q), 0) + 1
            if cover[(p, q)] > 1:
                return VerificationReport(False, f"pair ({p}, {q}) is covered twice")
    for p, q in itertools.combinations(range(x), 2):
        if group_of[p] != group_of[q] and (p, q) not in cover:
            return VerificationReport(False, f"cross-group pair ({p}, {q}) is uncovered")
    return VerificationReport(True)


def transversal_design(k: int, q: int) -> GddDesign:
    """TD(k, q) over a prime power q (prime fields plus GF(4), GF(8), GF(9)).

    Point (i, x) of group i is encoded as i*q + x.  Block (a, b) consists of
    (i, a*l_i + b) with distinct field labels l_i, plus the slope point (q, a)
    when k = q + 1, so this construction supports k <= q + 1.
    """
    add, mul = _field(q)
    if k > q + 1:
        raise DomainError(f"this construction needs k <= q + 1, got k = {k}, q = {q}")
    groups = [tuple(i * q + x for x in range(q)) for i in range(k)]
    blocks = []
    for a in range(q):
        for b in range(q):
            block = [i * q + add[mul[a][i]][b] for i in range(min(k, q))]
            if k == q + 1:
                block.append(q * q + a)
            blocks.append(tuple(block))
    return GddDesign.build(k * q, groups, blocks)


# GF(q), q = p^k, in a polynomial basis: element sum(c_i p^i), 0 <= c_i < p,
# is the polynomial sum(c_i x^i) over GF(p) reduced by x^k = sum(r_i x^i),
# with r listed from the constant term up: x^2 = x + 1 for GF(4), x^3 = x + 1
# for GF(8) and x^2 = -1 for GF(9).  A prime q is the case k = 1.
_REDUCTIONS = {4: (2, (1, 1)), 8: (2, (1, 1, 0)), 9: (3, (2, 0))}


def _field(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """The addition and multiplication tables of GF(q)."""
    p, reduction = _REDUCTIONS.get(q, (q, (0,)))
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise DomainError(f"no field arithmetic available for q = {q}")
    k = len(reduction)
    vectors = [tuple(a // p**i % p for i in range(k)) for a in range(q)]
    index = {c: a for a, c in enumerate(vectors)}
    add = [[index[tuple((x + y) % p for x, y in zip(u, v))] for v in vectors] for u in vectors]
    mul = []
    for u in vectors:
        shifts = [u]  # u x^j for j < k, each reduced
        for _ in range(k - 1):
            low, top = (0,) + shifts[-1][:-1], shifts[-1][-1]
            shifts.append(tuple((c + top * r) % p for c, r in zip(low, reduction)))
        mul.append([index[tuple(sum(c * s[i] for c, s in zip(v, shifts)) % p for i in range(k))]
                    for v in vectors])
    return add, mul


# ---------------------------------------------------------------------------
# Frame constructions
# ---------------------------------------------------------------------------


def _overlay(
    cells: dict[Cell, Pair],
    square: SkewSquare,
    row_map: Union[Mapping[int, int], Sequence[int]],
    point_map: Union[Mapping[int, int], Sequence[int]],
) -> None:
    """Copy the cells of ``square`` into ``cells`` through the index maps.
    Every target cell is still empty: each caller's verified inputs keep the
    cells it copies apart from those already there."""
    for (i, j), pair in square.cells.items():
        cells[(row_map[i], row_map[j])] = frozenset(map(point_map.__getitem__, pair))


def wfc_construct(
    design: GddDesign,
    s_weight: Mapping[int, int],
    v_weight: Mapping[int, int],
    ingredients: Mapping[tuple[tuple[int, int], ...], SkewSquare],
) -> SkewSquare:
    """Weighting frame construction: inflate a GDD by two weight maps.

    Each point x receives a run of s(x) row indices and v(x) point indices;
    for every block an ingredient SFS of type {(s(x), v(x)) : x in B} is laid
    onto the corresponding index runs.  Groups become the holes of the result.
    Ingredient parts are matched to block points by sorted (s, v) pairs, and
    an ingredient that carries no report is verified the first time a block
    uses it.
    """
    verify_gdd(design).require("invalid design")
    try:
        s_of = [s_weight[x] for x in range(design.num_points)]
        v_of = [v_weight[x] for x in range(design.num_points)]
    except KeyError as exc:
        raise DomainError(f"point {exc.args[0]} has no weight") from None
    if any(weight < 0 for weight in s_of + v_of):
        raise DomainError("weights must be non-negative")
    # point x owns rows [row_start[x], row_start[x + 1]), points likewise
    row_start = [0, *itertools.accumulate(s_of)]
    point_start = [0, *itertools.accumulate(v_of)]

    cells: dict[Cell, Pair] = {}
    for block in design.blocks:
        key = sfs_type_key((s_of[x], v_of[x]) for x in block)
        try:
            ingredient = ingredients[key]
        except KeyError:
            raise IngredientError(f"no SFS ingredient of type {key}") from None
        if ingredient.kind is not SquareKind.SFS:
            raise IngredientError(f"ingredient for type {key} is not an SFS")
        if ingredient.sfs_type() != key:
            raise IngredientError(f"ingredient type mismatch for {key}")
        report = ingredient.report or verify_square(ingredient)
        if not report.valid:
            raise IngredientError(f"ingredient for type {key} is invalid: {report.violation}")

        # sorted is stable: equal (s, v) sizes keep the parts' own order
        parts = sorted(zip(ingredient.row_parts, ingredient.point_parts),
                       key=lambda part: (len(part[0]), len(part[1])))
        row_map: dict[int, int] = {}
        point_map: dict[int, int] = {}
        for x, (rows, points) in zip(sorted(block, key=lambda x: (s_of[x], v_of[x], x)), parts):
            row_map.update(zip(rows, range(row_start[x], row_start[x + 1])))
            point_map.update(zip(points, range(point_start[x], point_start[x + 1])))
        _overlay(cells, ingredient, row_map, point_map)

    def runs(start):  # the indices of each group's points, ascending like the points
        return tuple(tuple(itertools.chain(*(range(start[x], start[x + 1]) for x in g)))
                     for g in design.groups)

    result = SkewSquare(SquareKind.SFS, row_start[-1], point_start[-1], cells,
                        row_parts=runs(row_start), point_parts=runs(point_start))
    verify_square(result).require("assembled frame fails verification (bad ingredient?)")
    return result


def bfc_fill(
    frame: SkewSquare, e: int, w: int, fillers: Sequence[SkewSquare]
) -> SkewSquare:
    """Basic frame construction: add e rows/columns and w points, then cover
    hole i of the SFS frame with filler i.

    Fillers for all holes but the last must be holey squares of shape
    (s_i + e, h_i + w; e, w) whose hole lands on the new indices; the last
    filler may be holey (result ``hsas``), plain (``sas``) or starred
    (``sas*``), and its kind determines the kind of the result.  A filler
    equal to an earlier one is verified once.
    """
    if frame.kind is not SquareKind.SFS:
        raise ShapeError("the frame must be an SFS")
    (frame.report or verify_square(frame)).require("invalid frame")
    n = len(frame.row_parts)
    if len(fillers) != n:
        raise ShapeError(f"expected {n} fillers, got {len(fillers)}")
    if e < 0 or w < 0:
        raise DomainError("e and w must be non-negative")
    new_rows = tuple(range(frame.s, frame.s + e))
    new_points = tuple(range(frame.v, frame.v + w))
    cells = dict(frame.cells)
    for k, filler in enumerate(fillers):
        s_k = len(frame.row_parts[k])
        h_k = len(frame.point_parts[k])
        last = k == n - 1
        if fillers.index(filler) == k:
            (filler.report or verify_square(filler)).require(f"filler {k} is invalid")
        if filler.s != s_k + e or filler.v != h_k + w:
            raise ShapeError(
                f"filler {k} is {filler.s}x{filler.s} on {filler.v} points,"
                f" expected {s_k + e}x{s_k + e} on {h_k + w}"
            )
        if filler.kind is SquareKind.HSAS:
            if len(filler.hole_rows) != e or len(filler.hole_points) != w:
                raise ShapeError(f"filler {k} hole is not ({e}, {w})-shaped")
            hole_rows, hole_points = filler.hole_rows, filler.hole_points
        elif last and filler.kind in (SquareKind.SAS, SquareKind.SAS_STAR):
            hole_rows, hole_points = range(s_k, s_k + e), range(h_k, h_k + w)
        else:
            raise ShapeError(
                f"filler {k} must be holey{' (or plain/starred for the last hole)' if last else ''}"
            )
        # indices outside the filler's hole go onto hole k of the frame, those
        # inside onto the new ones, each run in increasing order
        row_map = dict(zip(
            sorted(range(filler.s), key=hole_rows.__contains__),
            frame.row_parts[k] + new_rows,
        ))
        point_map = dict(zip(
            sorted(range(filler.v), key=hole_points.__contains__),
            frame.point_parts[k] + new_points,
        ))
        _overlay(cells, filler, row_map, point_map)

    kind = fillers[-1].kind
    holey = kind is SquareKind.HSAS
    result = SkewSquare(kind, frame.s + e, frame.v + w, cells,
                        hole_rows=frozenset(new_rows if holey else ()),
                        hole_points=frozenset(new_points if holey else ()))
    verify_square(result).require("assembled square fails verification")
    return result


def sas_as_hsas(sq: SkewSquare, row: int) -> SkewSquare:
    """View a plain square as holey with a size-(1,1) hole.

    Row ``row`` becomes the hole row and the single point it misses becomes
    the hole point; the two definitions coincide for this shape, so the
    result verifies whenever the input does.
    """
    if sq.kind is not SquareKind.SAS:
        raise ShapeError("sas_as_hsas expects a plain sas square")
    (sq.report or verify_square(sq)).require("invalid square")
    if not 0 <= row < sq.s:
        raise DomainError(f"row {row} outside the array")
    covered = {p for cell, pair in sq.cells.items() if row in cell for p in pair}
    (missing,) = set(range(sq.v)) - covered
    result = SkewSquare(SquareKind.HSAS, sq.s, sq.v, sq.cells,
                        hole_rows=frozenset([row]), hole_points=frozenset([missing]))
    verify_square(result).require("holey view fails verification")
    return result


def fill_hole(frame: SkewSquare, filler: SkewSquare) -> SkewSquare:
    """Cover the hole of a holey square with a plain or starred square of the
    hole's exact shape; the result inherits the filler's kind."""
    if frame.kind is not SquareKind.HSAS:
        raise ShapeError("fill_hole expects an hsas frame")
    if filler.kind not in (SquareKind.SAS, SquareKind.SAS_STAR):
        raise ShapeError("the hole filler must be sas or sas*")
    (frame.report or verify_square(frame)).require("invalid frame")
    (filler.report or verify_square(filler)).require("invalid filler")
    if filler.s != len(frame.hole_rows) or filler.v != len(frame.hole_points):
        raise ShapeError(
            f"filler is {filler.s}x{filler.s} on {filler.v} points; the hole"
            f" needs {len(frame.hole_rows)}x{len(frame.hole_rows)} on {len(frame.hole_points)}"
        )
    cells = dict(frame.cells)
    _overlay(cells, filler, sorted(frame.hole_rows), sorted(frame.hole_points))
    result = SkewSquare(filler.kind, frame.s, frame.v, cells)
    verify_square(result).require("filled square fails verification")
    return result


# ---------------------------------------------------------------------------
# Square file format
#
#   square <kind> <s> <v>          kind in {sas, sas*, hsas, sfs}
#   hole-rows <i ...>              hsas only
#   hole-points <x ...>            hsas only
#   row-part <i ...>; <i ...>; ...     sfs only
#   point-part <x ...>; <x ...>; ...   sfs only
#   cell <i> <j> <a> <b>           pair {a, b} in cell (i, j)
# ---------------------------------------------------------------------------


def parse_square(text: str) -> SkewSquare:
    head, fields, body = _records(text, "square", "square <kind> <s> <v>")
    try:
        kind = SquareKind(fields[0])
    except ValueError:
        raise FormatError(f"unknown square kind {fields[0]!r}", head) from None
    s, v = _ints(fields[1:], head, "side and point count must be integers")
    cells: dict[Cell, Pair] = {}
    # the single-use directives, each a list of integers or of integer groups
    once: dict[str, list] = {}
    for lineno, tokens in body:
        tag = tokens[0]
        if tag == "cell":
            if len(tokens) != 5:
                raise FormatError("expected 'cell <i> <j> <a> <b>'", lineno)
            try:
                i, j, a, b = map(int, tokens[1:])
            except ValueError:
                raise FormatError("expected integers", lineno) from None
            if (i, j) in cells:
                raise FormatError(f"cell ({i},{j}) filled twice", lineno)
            # a violation message lists a pair's points in its set order,
            # which a copy can change; the pair is copied once, as
            # SkewSquare.build copied it, so the messages stay as they were
            cells[(i, j)] = frozenset(iter(frozenset((a, b))))
        elif tag in ("hole-rows", "hole-points", "row-part", "point-part"):
            if tag in once:
                raise FormatError(f"'{tag}' is repeated", lineno)
            if kind is not (SquareKind.HSAS if tag.startswith("hole-") else SquareKind.SFS):
                raise FormatError(f"'{tag}' is not used by a {kind.value} square", lineno)
            if kind is SquareKind.HSAS:
                once[tag] = _ints(tokens[1:], lineno, "expected integers")
            else:
                groups = " ".join(tokens[1:]).split(";")
                once[tag] = [_ints(g.split(), lineno, "expected integers")
                             for g in groups if g.strip()]
        else:
            raise FormatError(f"unknown directive {tag!r}", lineno)
    # the cells and holes hold ints already; only the parts need sorting
    row_parts, point_parts = (tuple(tuple(sorted(part)) for part in once.get(tag, ()))
                              for tag in ("row-part", "point-part"))
    return SkewSquare(kind, s, v, cells, frozenset(once.get("hole-rows", ())),
                      frozenset(once.get("hole-points", ())), row_parts, point_parts)


def format_square(sq: SkewSquare) -> str:
    out = [f"square {sq.kind.value} {sq.s} {sq.v}"]
    if sq.kind is SquareKind.HSAS:
        out.append("hole-rows " + " ".join(map(str, sorted(sq.hole_rows))))
        out.append("hole-points " + " ".join(map(str, sorted(sq.hole_points))))
    if sq.kind is SquareKind.SFS:
        out.append(
            "row-part " + "; ".join(" ".join(map(str, part)) for part in sq.row_parts)
        )
        out.append(
            "point-part "
            + "; ".join(" ".join(map(str, part)) for part in sq.point_parts)
        )
    for (i, j) in sorted(sq.cells):
        a, b = sorted(sq.cells[(i, j)])
        out.append(f"cell {i} {j} {a} {b}")
    return "\n".join(out) + "\n"


def load_square(path) -> SkewSquare:
    return parse_square(_read_text(path))


def save_square(sq: SkewSquare, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_square(sq))


# GDD file format: 'gdd <x>' header, then 'group <points...>' and
# 'block <points...>' lines.


def parse_gdd(text: str) -> GddDesign:
    head, fields, body = _records(text, "design", "gdd <points>")
    (x,) = _ints(fields, head, "point count must be an integer")
    groups, blocks = [], []
    for lineno, tokens in body:
        if tokens[0] == "group":
            groups.append(_ints(tokens[1:], lineno, "group points must be integers"))
        elif tokens[0] == "block":
            blocks.append(_ints(tokens[1:], lineno, "block points must be integers"))
        else:
            raise FormatError(f"unknown directive {tokens[0]!r}", lineno)
    return GddDesign.build(x, groups, blocks)


def format_gdd(design: GddDesign) -> str:
    out = [f"gdd {design.num_points}"]
    for g in design.groups:
        out.append("group " + " ".join(map(str, g)))
    for b in design.blocks:
        out.append("block " + " ".join(map(str, b)))
    return "\n".join(out) + "\n"
