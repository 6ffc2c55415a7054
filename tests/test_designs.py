import copy
import dataclasses
import pickle
import random
import re
from pathlib import Path

import pytest

from mcwc import corpus
from mcwc.bounds import best_upper_bound
from mcwc.core import (
    CodeParameters,
    ConstructionError,
    DomainError,
    FormatError,
    IngredientError,
    PartitionedCode,
    ShapeError,
)
from mcwc.designs import (
    _field,
    sas_as_hsas,
    GddDesign,
    SkewSquare,
    SquareKind,
    bfc_fill,
    fill_hole,
    format_gdd,
    format_square,
    mcwc_to_square,
    parse_gdd,
    parse_square,
    sfs_type_key,
    square_to_mcwc,
    transversal_design,
    verify_gdd,
    verify_square,
    wfc_construct,
)

SAS55_CELLS = {
    (0, 1): {0, 1},
    (2, 3): {0, 2},
    (2, 4): {1, 3},
    (0, 4): {2, 4},
    (1, 3): {3, 4},
}


@pytest.fixture
def sas55():
    return SkewSquare.build("sas", 5, 5, SAS55_CELLS)


class TestVerifySquare:
    def test_sas55_valid(self, sas55):
        assert verify_square(sas55).valid

    def test_empty_sas_invalid(self):
        sq = SkewSquare.build("sas", 3, 5, {})
        report = verify_square(sq)
        assert not report.valid and "row/column 0" in report.violation

    def test_duplicate_pair(self, sas55):
        cells = dict(SAS55_CELLS)
        cells[(3, 0)] = {0, 1}
        report = verify_square(SkewSquare.build("sas", 5, 5, cells))
        assert not report.valid and "pair" in report.violation

    def test_skewness(self):
        cells = {(0, 1): {0, 1}, (1, 0): {2, 3}}
        report = verify_square(SkewSquare.build("sas", 5, 5, cells))
        assert not report.valid and "skew" in report.violation.lower()

    def test_diagonal(self):
        report = verify_square(SkewSquare.build("sas", 3, 3, {(1, 1): {0, 1}}))
        assert not report.valid and "diagonal" in report.violation

    def test_sas_star_with_two_deficient_rows(self):
        # removing a cell from a valid star square breaks the unique-deficiency rule
        star = mcwc_to_square(corpus.small_code(7, 7))
        cells = dict(star.cells)
        cells.pop(next(iter(cells)))
        report = verify_square(SkewSquare.build("sas*", star.s, star.v, cells))
        assert not report.valid

    def test_hsas_requires_hole(self):
        report = verify_square(SkewSquare.build("hsas", 3, 3, {}))
        assert not report.valid and "hole" in report.violation

    def test_hsas_pair_inside_point_hole(self):
        h = corpus.hsas_square(11, 3, 11)
        cells = dict(h.cells)
        cells[(0, 9)] = {8, 9}  # both inside W = {8, 9, 10}
        bad = SkewSquare.build(
            "hsas", 11, 11, cells, hole_rows=h.hole_rows, hole_points=h.hole_points
        )
        assert not verify_square(bad).valid

    def test_sfs_partition_metadata(self):
        sq = SkewSquare.build("sfs", 4, 4, {}, row_parts=[(0, 1)], point_parts=[(0, 1), (2, 3)])
        report = verify_square(sq)
        assert not report.valid and "partition" in report.violation


def _variant(sq, add=(), drop=(), **changes):
    """``sq`` without the cells in ``drop``, with ``add`` written over its
    cells (a new cell goes last) and with ``changes`` to kind, sizes or holes."""
    cells = {cell: pair for cell, pair in sq.cells.items() if cell not in drop}
    cells.update(add)
    meta = dict(kind=sq.kind, s=sq.s, v=sq.v, hole_rows=sq.hole_rows, hole_points=sq.hole_points,
                row_parts=sq.row_parts, point_parts=sq.point_parts)
    meta.update(changes)
    return SkewSquare.build(meta.pop("kind"), meta.pop("s"), meta.pop("v"), cells, **meta)


def _sas55():
    return SkewSquare.build("sas", 5, 5, SAS55_CELLS)


def _h11():  # hole rows and hole points {8, 9, 10}
    return corpus.hsas_square(11, 3, 11)


def _f5():  # five holes (0 1; 2 3; ...; 8 9), first cell (0, 5) = {3, 6}
    return corpus.sfs_square(5, 0)


def _star7():
    return mcwc_to_square(corpus.small_code(7, 7))


# one case per property and kind, in the order verify_square checks them, with
# the exact message it reports
PINNED = {
    "side": (lambda: _variant(_sas55(), s=0), "side and point count must be positive"),
    "cell-range": (lambda: _variant(_sas55(), add={(5, 0): {0, 1}}),
                   "cell (5,0) outside the 5x5 array"),
    "cell-pair": (lambda: _variant(_sas55(), add={(1, 2): {3}}),
                  "cell (1,2) does not hold a pair of two distinct points"),
    "cell-point": (lambda: _variant(_sas55(), add={(1, 2): {0, 5}}),
                   "cell (1,2) holds a point outside [0, 5)"),
    "hsas-no-hole": (lambda: _variant(_h11(), hole_rows=()),
                     "an HSAS needs non-empty hole rows and hole points"),
    "hsas-hole-rows": (lambda: _variant(_h11(), hole_rows=(8, 9, 11)), "hole rows outside the array"),
    "hsas-hole-points": (lambda: _variant(_h11(), hole_points=(8, 9, 11)),
                         "hole points outside the point set"),
    "sfs-row-parts": (lambda: _variant(_f5(), row_parts=[(0, 1), (2, 3), (4, 5), (6, 7), (8,)]),
                      "row parts do not partition the row index set"),
    "sfs-point-parts": (
        lambda: _variant(_f5(), point_parts=[(0, 1, 2), (2, 3), (4, 5), (6, 7), (8, 9)]),
        "point parts do not partition the point set"),
    "sfs-hole-count": (
        lambda: _variant(_f5(), point_parts=[(0, 1, 2, 3), (4, 5), (6, 7), (8, 9)]),
        "row and point partitions must have the same number of holes"),
    "skew": (lambda: _variant(_sas55(), add={(1, 0): {2, 3}}),
             "skewness violated: both (0,1) and (1,0) are filled"),
    "diagonal": (lambda: _variant(_sas55(), add={(2, 2): {0, 1}}), "diagonal cell (2,2) is filled"),
    "hsas-hole-cell": (lambda: _variant(_h11(), add={(9, 8): {0, 1}}), "hole cell (9,8) is filled"),
    "sfs-inside-hole": (lambda: _variant(_f5(), add={(3, 2): {0, 1}}),
                        "cell (3,2) lies inside hole 1"),
    "duplicate": (lambda: _variant(_sas55(), add={(3, 0): {0, 1}}),
                  "pair {0, 1} appears in cells (0, 1) and (3, 0)"),
    "hsas-hole-pair": (lambda: _variant(_h11(), add={(0, 9): {8, 9}}),
                       "cell (0, 9) pairs two hole points {8, 9}"),
    "sfs-hole-pair": (lambda: _variant(_f5(), add={(0, 5): {0, 1}}),
                      "cell (0, 5) pairs two points of hole 0"),
    "covered-twice": (lambda: _variant(_sas55(), add={(0, 1): {0, 3}}),
                      "row/column 1: a point is covered twice"),
    "sas-cover": (lambda: _variant(_sas55(), drop=[(0, 1)]),
                  "row/column 0 covers 2 points, not a partition of the point set minus one point"),
    "sas*-cover": (lambda: SkewSquare.build("sas*", 3, 5, {}),
                   "row/column 0 covers 0 points, not a partition of the point set minus one or"
                   " three points"),
    "hsas-row": (lambda: _variant(_h11(), drop=[(0, 4)]), "row/column 0 covers 8 points, expected 10"),
    "hsas-hole-row": (lambda: _variant(_h11(), hole_points=(0, 1, 3)),
                      "hole row/column 8 does not partition the points outside the hole"),
    "sfs-row": (lambda: _variant(_f5(), drop=[(0, 5)]),
                "row/column 0 of hole 0 does not partition the points outside point-hole 0"),
    # rows 0 and 5 both fail; hole 2 (rows 4, 5) is listed before hole 4 (rows 0, 1)
    "sfs-two-holes": (
        lambda: _variant(_f5(), drop=[(0, 5)], row_parts=_f5().row_parts[::-1],
                         point_parts=_f5().point_parts[::-1]),
        "row/column 5 of hole 2 does not partition the points outside point-hole 2"),
    "sas*-none": (lambda: _variant(_sas55(), kind="sas*"),
                  "expected exactly one deficient row/column, found none"),
    "sas*-three": (lambda: _variant(_star7(), drop=[(0, 1)]),
                   "expected exactly one deficient row/column, found [0, 1, 6]"),
    # the empty rows 1 and 3 share one verdict: a failure at 1, before row 2's
    "sas-empty-row": (lambda: SkewSquare.build("sas", 4, 3, {(0, 2): {0, 1}, (3, 2): {0, 2}}),
                      "row/column 1 covers 0 points, not a partition of the point set minus"
                      " one point"),
    # or both deficient, on three points
    "sas*-empty-rows": (lambda: SkewSquare.build("sas*", 4, 3, {(0, 2): {0, 1}}),
                        "expected exactly one deficient row/column, found [1, 3]"),
    # more than three are named by the first three and their count
    "sas*-four-empty-rows": (lambda: SkewSquare.build("sas*", 6, 3, {(0, 2): {0, 1}}),
                             "expected exactly one deficient row/column, found [1, 3, 4, ...]"
                             " (4 in all)"),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_pinned_violation_messages(case):
    make, message = PINNED[case]
    report = verify_square(make())
    assert not report.valid and report.violation == message


# verify_square's verdict and exact message on seeded mutants of the shipped
# squares and of the squares of the small codes, one row per mutant:
# source, mutation, verdict, message
SQUARE_VIOLATION_GOLDEN = Path(__file__).with_name("square_violation_golden.tsv")
MUTATIONS = (
    "none", "move-point", "swap-cells", "fill-diagonal", "add-mirror", "repeat-pair",
    "pair-in-point-hole", "fill-hole-cell", "drop-cell", "out-of-range", "wrong-size-pair",
)


def _mutate(rng, sq, items, mutation):
    """``items``, the (cell, pair) list of a square like ``sq``, after one
    seeded mutation; None when the square has nothing to mutate that way."""
    items = list(items)
    if mutation == "none" or not items:
        return items if mutation == "none" else None
    k = rng.randrange(len(items))
    (i, j), pair = items[k]
    fresh = frozenset(rng.sample(range(sq.v), 2))
    row_holes = [p for p in sq.row_parts or [sorted(sq.hole_rows)] if len(p) >= 2]
    point_holes = [p for p in sq.point_parts or [sorted(sq.hole_points)] if len(p) >= 2]
    if mutation == "move-point":
        new = rng.choice([p for p in range(sq.v) if p not in pair])
        items[k] = ((i, j), pair - {rng.choice(sorted(pair))} | {new})
    elif mutation == "swap-cells":
        m = rng.randrange(len(items))
        items[k], items[m] = (items[k][0], items[m][1]), (items[m][0], pair)
    elif mutation == "fill-diagonal":
        d = rng.randrange(sq.s)
        items.insert(k, ((d, d), fresh))
    elif mutation == "add-mirror":
        items.insert(rng.randrange(len(items) + 1), ((j, i), fresh))
    elif mutation == "repeat-pair":
        if len(items) < 2:
            return None
        m = rng.choice([x for x in range(len(items)) if x != k])
        items[m] = (items[m][0], pair)
    elif mutation == "pair-in-point-hole":
        if not point_holes:
            return None
        items[k] = ((i, j), frozenset(rng.sample(list(rng.choice(point_holes)), 2)))
    elif mutation == "fill-hole-cell":
        if not row_holes:
            return None
        items.insert(k, (tuple(rng.sample(list(rng.choice(row_holes)), 2)), fresh))
    elif mutation == "drop-cell":
        del items[k]
    elif mutation == "out-of-range":
        items[k] = [((-1, j), pair), ((i, sq.s), pair), ((i, j), pair - {min(pair)} | {-1}),
                    ((i, j), pair - {max(pair)} | {sq.v})][rng.randrange(4)]
    elif mutation == "wrong-size-pair":
        extra = rng.choice([p for p in range(sq.v) if p not in pair])
        items[k] = ((i, j), rng.choice([frozenset({min(pair)}), pair | {extra}]))
    return items


def square_violation_rows():
    """The golden's rows: every source square with each single mutation, then
    three seeded pairs of mutations, which pin the order between properties."""
    root = corpus.data_root() / "squares"
    sources = [(f"squares/{path.name}", parse_square(path.read_text(encoding="utf-8")))
               for path in sorted(root.glob("*.sq"))]
    sources += [(f"code:{n1},{n2}", mcwc_to_square(corpus.small_code(n1, n2)))
                for n1, n2 in corpus.SMALL_PAIRS if (n1, n2) != (5, 7)]  # (5, 7) is not extremal
    for name, sq in sources:
        for mutation in MUTATIONS + tuple(f"two-faults-{t}" for t in range(3)):
            rng = random.Random(f"{name}/{mutation}")
            steps = rng.sample(MUTATIONS[1:], 2) if mutation.startswith("two-") else [mutation]
            items = list(sq.cells.items())
            for step in steps:
                items = None if items is None else _mutate(rng, sq, items, step)
            if items is None:
                continue
            mutant = SkewSquare.build(sq.kind, sq.s, sq.v, dict(items), hole_rows=sq.hole_rows,
                                      hole_points=sq.hole_points, row_parts=sq.row_parts,
                                      point_parts=sq.point_parts)
            report = verify_square(mutant)
            label = "+".join(steps) if mutation.startswith("two-") else mutation
            yield (f"{name}\t{label}\t{'ok' if report.valid else 'invalid'}"
                   f"\t{report.violation or '-'}\n")


def test_square_violation_golden():
    assert "".join(square_violation_rows()) == SQUARE_VIOLATION_GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "text, message",
    [("square sas 1000000 5\n",
      "row/column 0 covers 0 points, not a partition of the point set minus one point"),
     ("square sfs 1000000 5\n", "row parts do not partition the row index set"),
     ("square hsas 5 1000000\nhole-rows 0\nhole-points 0\n",
      "hole row/column 0 does not partition the points outside the hole"),
     ("gdd 1000000\n", "groups do not partition the point set")],
    ids=["sas", "sfs", "hsas", "gdd"],
)
def test_a_large_header_costs_no_memory(text, message):
    """The verifiers allocate for the cells, parts and groups in the file,
    never for the side or point count its header claims."""
    import tracemalloc

    design = parse_gdd(text) if text.startswith("gdd") else parse_square(text)
    tracemalloc.start()
    try:
        report = (verify_gdd if text.startswith("gdd") else verify_square)(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.valid and report.violation == message
    assert peak < 2**20


@pytest.mark.parametrize(
    "text, message",
    [("square sas 100000000 1\n", None),
     ("square sas* 100000000 1\n", "expected exactly one deficient row/column, found none"),
     ("square hsas 100000000 1\nhole-rows 0\nhole-points 0\n", None),
     ("square sas* 100000000 3\n", "expected exactly one deficient row/column,"
      " found [0, 1, 2, ...] (100000000 in all)")],
    ids=["sas", "sas*", "hsas", "sas*-deficient"],
)
def test_a_large_header_costs_no_time(text, message):
    """Resolvability visits the rows that hold a cell or lie in a hole, and
    the first of the others for all of them: a side of 10^8 takes no time
    for its empty rows, nor for naming them when, on three points, each of
    them is deficient."""
    import time

    square = parse_square(text)
    start = time.perf_counter()
    report = verify_square(square)
    assert time.perf_counter() - start < 1
    assert report.valid is (message is None) and report.violation == message


def test_square_equality_compares_cells():
    first = SkewSquare.build("sas", 5, 5, {(0, 1): {0, 1}})
    assert first == SkewSquare.build("sas", 5, 5, {(0, 1): [1, 0]})
    assert first != SkewSquare.build("sas", 5, 5, {(0, 2): {3, 4}})
    assert first != SkewSquare.build("sas", 5, 5, {(0, 1): {0, 2}})


class TestImmutableSquares:
    """A square cannot change, so a passing report may travel with it."""

    @pytest.mark.parametrize("change", [
        lambda cells: cells.__setitem__((0, 2), frozenset({3, 4})),
        lambda cells: cells.__delitem__((0, 1)),
        lambda cells: cells.update({(0, 2): frozenset({3, 4})}),
        lambda cells: cells.pop((0, 1)),
        lambda cells: cells.popitem(),
        lambda cells: cells.clear(),
        lambda cells: cells.setdefault((0, 2), frozenset({3, 4})),
    ], ids=["assign", "delete", "update", "pop", "popitem", "clear", "setdefault"])
    def test_cells_are_read_only(self, change):
        sq = _sas55()
        with pytest.raises(TypeError, match="read-only"):
            change(sq.cells)
        with pytest.raises(TypeError, match="read-only"):
            sq.cells |= {}
        assert sq == _sas55() and verify_square(sq).valid

    def test_a_square_given_a_dict_holds_a_read_only_copy(self):
        cells = {(0, 1): frozenset({0, 1})}
        sq = SkewSquare(SquareKind.SAS, 5, 5, cells)
        cells[(0, 2)] = frozenset({3, 4})
        assert sq.cells == {(0, 1): frozenset({0, 1})}
        with pytest.raises(TypeError):
            sq.cells[(0, 2)] = frozenset({3, 4})

    def test_copies_are_equal(self):
        sq = corpus.hsas_square(11, 3, 13)
        assert verify_square(sq).valid
        plain = dict(sq.cells)
        assert type(plain) is dict and plain == sq.cells and sq.cells == plain
        plain[(0, 0)] = frozenset({0, 1})  # a dict copy is the caller's own
        for again in (pickle.loads(pickle.dumps(sq)), copy.deepcopy(sq), copy.copy(sq)):
            assert again == sq and again.cells == sq.cells
            with pytest.raises(TypeError):
                again.cells[(0, 0)] = frozenset({0, 1})
            assert verify_square(again).valid

    def test_only_a_passing_square_carries_a_report(self):
        good, bad = _sas55(), _variant(_sas55(), add={(3, 0): {0, 1}})
        assert good.report is None and bad.report is None
        report = verify_square(good)
        assert good.report is report and report.valid
        assert not verify_square(bad).valid and bad.report is None
        # the report takes no part in equality, and a copy with a change carries none
        assert good == _sas55()
        assert dataclasses.replace(good, s=6).report is None

    def test_built_squares_are_verified_on_first_use(self, monkeypatch):
        from mcwc import designs

        checked = []
        monkeypatch.setattr(designs, "verify_square",
                            lambda sq: checked.append(sq) or verify_square(sq))
        sq = _sas55()
        square_to_mcwc(sq)
        square_to_mcwc(sq)
        assert checked == [sq]
        bad = _variant(_sas55(), add={(3, 0): {0, 1}})
        for _ in range(2):  # an invalid square is checked again on every use
            with pytest.raises(ConstructionError, match="invalid square: pair"):
                square_to_mcwc(bad)
        assert checked == [sq, bad, bad]

    def test_the_translation_chain_verifies_each_square_once(self, monkeypatch):
        from mcwc import designs

        checked = []
        monkeypatch.setattr(designs, "verify_square",
                            lambda sq: checked.append(sq) or verify_square(sq))
        frame = corpus.hsas_square(11, 3, 11)
        filler = mcwc_to_square(corpus.small_code(3, 3))
        filled = fill_hole(frame, filler)
        code = square_to_mcwc(filled)
        assert checked == [filler, frame, filled]
        assert len(code) == 27 and code == square_to_mcwc(
            SkewSquare.build("sas*", 11, 11, dict(filled.cells)))


@pytest.mark.parametrize("args,kwargs,message", [
    (("sas", 5.5, 5, {}), {}, "the side and the point count must be integers, got 5.5"),
    (("sas", 5, 5, {(0, 1): [1.5, 2]}), {}, "points must be integers, got 1.5"),
    (("sas", 5, 5, {(0, 1): frozenset(("1", 2))}), {}, "points must be integers, got '1'"),
    (("sas", 5, 5, {(0, 1): frozenset(("x", 2))}), {}, "points must be integers, got 'x'"),
    (("sas", 5, 5, {(None, 1): frozenset((1, 2))}), {}, "rows must be integers, got None"),
    (("sas", 5, 5, {(0, 1.5): frozenset((1, 2))}), {}, "rows must be integers, got 1.5"),
    (("hsas", 5, 5, {}), {"hole_rows": [0, 1.5]}, "rows must be integers, got 1.5"),
    (("sfs", 4, 4, {}), {"point_parts": [(0, 1), (2, 3.5)]}, "points must be integers, got 3.5"),
], ids=["side", "point", "point-text", "point-not-a-number", "row-none", "row", "hole-row", "part"])
def test_square_build_rejects_non_integers(args, kwargs, message):
    # a non-integer raises instead of being truncated; an integral value of
    # another type is kept as its int
    with pytest.raises(DomainError, match=re.escape(message)):
        SkewSquare.build(*args, **kwargs)
    assert SkewSquare.build("sas", 5.0, 5, {(0, 1.0): [1.0, 2]}) == SkewSquare.build(
        "sas", 5, 5, {(0, 1): {1, 2}})

class TestSquareCodeTranslation:
    def test_sas55_to_code_matches_table(self, sas55):
        code = square_to_mcwc(sas55)
        assert code.params == CodeParameters((5, 5), (2, 2), 6)
        assert code.support_set() == corpus.small_code(5, 5).support_set()

    def test_sas_star_33(self):
        star = SkewSquare.build("sas*", 3, 3, {(0, 1): {0, 1}})
        code = square_to_mcwc(star)
        assert [w.support for w in code.words] == [(0, 1, 3, 4)]

    def test_table_roundtrips(self):
        for n1, n2 in corpus.SMALL_PAIRS:
            if (n1, n2) == (5, 7):
                continue  # not extremal, no square exists
            code = corpus.small_code(n1, n2)
            sq = mcwc_to_square(code)
            expected_kind = SquareKind.SAS if n1 % 4 == 1 else SquareKind.SAS_STAR
            assert sq.kind is expected_kind
            assert square_to_mcwc(sq).support_set() == code.support_set()

    def test_cell_count_identity(self):
        for n1, n2 in [(5, 5), (5, 9), (9, 17)]:
            sq = mcwc_to_square(corpus.small_code(n1, n2))
            assert sq.num_cells == (n2 * (n1 - 1)) // 4

    def test_non_extremal_rejected(self):
        with pytest.raises(DomainError):
            mcwc_to_square(corpus.small_code(5, 7))

    def test_extremal_count_is_the_best_upper_bound(self):
        # the cell count that mcwc_to_square asks of a code, read from its
        # message for an empty code, on every row of `mcwc table --n1-max 37`
        rows = 0
        for n1 in range(3, 38, 2):
            for n2 in range(n1, 2 * n1, 2):
                params = CodeParameters((n1, n2), (2, 2), 6)
                with pytest.raises(DomainError) as exc:
                    mcwc_to_square(PartitionedCode(params, ()))
                expected = re.search(r": 0 words, expected (\d+)$", str(exc.value))
                assert int(expected.group(1)) == best_upper_bound(params).value, (n1, n2)
                rows += 1
        assert rows == 189

    def test_wrong_kind_rejected(self, sas55):
        sq = corpus.sfs_square(5, 0)
        with pytest.raises(ShapeError):
            square_to_mcwc(sq)


class TestGdd:
    TD32 = GddDesign.build(
        6, [(0, 1), (2, 3), (4, 5)], [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)]
    )

    def test_td32_valid(self):
        assert verify_gdd(self.TD32).valid
        assert {len(block) for block in self.TD32.blocks} == {3}

    def test_pair_covered_twice(self):
        bad = GddDesign.build(
            6,
            [(0, 1), (2, 3), (4, 5)],
            [(0, 2, 4), (0, 2, 5), (1, 3, 5), (1, 3, 4)],
        )
        report = verify_gdd(bad)
        assert not report.valid and "twice" in report.violation

    def test_block_inside_group(self):
        bad = GddDesign.build(4, [(0, 1), (2, 3)], [(0, 1)])
        report = verify_gdd(bad)
        assert not report.valid and "group" in report.violation

    def test_build_rejects_non_integers(self):
        groups, blocks = [(0, 1), (2, 3), (4, 5)], [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4.9)]
        with pytest.raises(DomainError, match="points must be integers, got 4.9"):
            GddDesign.build(6, groups, blocks)
        with pytest.raises(DomainError, match="the point count must be an integer, got 6.7"):
            GddDesign.build(6.7, groups, self.TD32.blocks)
        with pytest.raises(DomainError, match="points must be integers, got '5'"):
            GddDesign.build(6, [(0, 1), (2, 3), (4, "5")], self.TD32.blocks)
        assert GddDesign.build(6.0, groups, blocks[:3] + [(1, 3, 4.0)]) == self.TD32

    @pytest.mark.parametrize("k,q", [(3, 2), (4, 3), (5, 4), (5, 5), (9, 8), (9, 9)])
    def test_transversal_designs(self, k, q):
        td = transversal_design(k, q)
        assert verify_gdd(td).valid
        assert {len(block) for block in td.blocks} == {k}
        assert len(td.blocks) == q * q

    def test_file_roundtrip(self):
        text = format_gdd(self.TD32)
        assert format_gdd(parse_gdd(text)) == text

    # one case per rejecting return of verify_gdd, in its check order
    PINNED = {
        "partition": ([(0, 1), (2, 3), (4,)], TD32.blocks, "groups do not partition the point set"),
        "repeat": (TD32.groups, [(0, 2, 2)], "block 0 repeats a point"),
        "unknown": (TD32.groups, [(0, 2, 6)], "block 0 contains an unknown point"),
        "group": (TD32.groups, [(0, 1)], "block 0 joins points 0, 1 of one group"),
        "twice": (TD32.groups, [(0, 2, 4), (0, 2, 5)], "pair (0, 2) is covered twice"),
        "uncovered": (TD32.groups, TD32.blocks[:3], "cross-group pair (1, 3) is uncovered"),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_pinned_violation_messages(self, case):
        groups, blocks, message = self.PINNED[case]
        report = verify_gdd(GddDesign.build(6, groups, blocks))
        assert not report and report.violation == message


def _one_hole_frame(s, v):  # a valid SFS: one hole, no cell, no point outside the hole
    return SkewSquare.build("sfs", s, v, {}, row_parts=[range(s)], point_parts=[range(v)])


_ONE_BLOCK = GddDesign.build(5, [(i,) for i in range(5)], [tuple(range(5))])
_KEY_4_2 = sfs_type_key([(4, 2)] * 5)

# one case per argument check of the square and frame operations:
# (call, error class, message)
ARGUMENT_ERRORS = {
    "sfs-type": (lambda: _sas55().sfs_type(), ShapeError, "sfs_type is defined for SFS squares only"),
    "to-square-shape": (lambda: mcwc_to_square(PartitionedCode(CodeParameters((5, 5), (2, 2), 4), ())),
                        ShapeError, "expected parameters (2; n1, n2; 2, 2; 6)"),
    "to-square-even": (lambda: mcwc_to_square(PartitionedCode(CodeParameters((4, 5), (2, 2), 6), ())),
                       DomainError, "the point-side length must be odd"),
    "wfc-weight": (lambda: wfc_construct(_ONE_BLOCK, dict.fromkeys(range(5), 4),
                                         dict.fromkeys(range(5), -1), {}),
                   DomainError, "weights must be non-negative"),
    "wfc-not-sfs": (lambda: wfc_construct(_ONE_BLOCK, dict.fromkeys(range(5), 4),
                                          dict.fromkeys(range(5), 2), {_KEY_4_2: _sas55()}),
                    IngredientError, f"ingredient for type {_KEY_4_2} is not an SFS"),
    "wfc-type": (lambda: wfc_construct(_ONE_BLOCK, dict.fromkeys(range(5), 4),
                                       dict.fromkeys(range(5), 2), {_KEY_4_2: _f5()}),
                 IngredientError, f"ingredient type mismatch for {_KEY_4_2}"),
    "bfc-frame": (lambda: bfc_fill(_sas55(), 1, 1, [_sas55()]), ShapeError, "the frame must be an SFS"),
    "bfc-negative": (lambda: bfc_fill(_one_hole_frame(4, 4), -1, 1, [_sas55()]),
                     DomainError, "e and w must be non-negative"),
    "bfc-size": (lambda: bfc_fill(_one_hole_frame(4, 4), 2, 1, [_sas55()]),
                 ShapeError, "filler 0 is 5x5 on 5 points, expected 6x6 on 5"),
    "bfc-hole": (lambda: bfc_fill(_one_hole_frame(9, 9), 2, 2, [_h11()]),
                 ShapeError, "filler 0 hole is not (2, 2)-shaped"),
    "bfc-plain-filler": (lambda: bfc_fill(corpus.sfs_square(5, 5), 1, 1,
                                          [mcwc_to_square(corpus.small_code(3, 5))] * 5),
                         ShapeError, "filler 0 must be holey"),
    "bfc-last-filler": (lambda: bfc_fill(_one_hole_frame(19, 9), 1, 1, [corpus.sfs_square(5, 5)]),
                        ShapeError, "filler 0 must be holey (or plain/starred for the last hole)"),
    "holey-view-row": (lambda: sas_as_hsas(_sas55(), 5), DomainError, "row 5 outside the array"),
    "fill-frame": (lambda: fill_hole(_sas55(), _sas55()), ShapeError, "fill_hole expects an hsas frame"),
    "fill-filler": (lambda: fill_hole(_h11(), _f5()), ShapeError, "the hole filler must be sas or sas*"),
}


@pytest.mark.parametrize("case", list(ARGUMENT_ERRORS))
def test_argument_error_messages(case):
    call, error, message = ARGUMENT_ERRORS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


class TestFrameConstructions:
    def test_wfc_type_16_8(self):
        td = transversal_design(5, 4)
        ingredient = corpus.sfs_square(5, 5)
        key = sfs_type_key([(4, 2)] * 5)
        frame = wfc_construct(
            td, {x: 4 for x in range(20)}, {x: 2 for x in range(20)}, {key: ingredient}
        )
        assert frame.sfs_type() == sfs_type_key([(16, 8)] * 5)
        assert frame.num_cells == 16 * ingredient.num_cells

    def test_wfc_trivial_gdd_relabels(self):
        ingredient = corpus.sfs_square(5, 5)
        gdd = GddDesign.build(5, [(i,) for i in range(5)], [tuple(range(5))])
        frame = wfc_construct(
            gdd, {x: 4 for x in range(5)}, {x: 2 for x in range(5)},
            {sfs_type_key([(4, 2)] * 5): ingredient},
        )
        assert frame.num_cells == ingredient.num_cells
        assert frame.sfs_type() == sfs_type_key([(4, 2)] * 5)

    def test_wfc_mixed_weights(self):
        td = transversal_design(5, 4)
        ingredients = {
            sfs_type_key([(4, 2)] * a + [(2, 2)] * (5 - a)): corpus.sfs_square(5, a)
            for a in range(6)
        }
        s_weight = {x: 4 if x % 2 == 0 else 2 for x in range(20)}
        frame = wfc_construct(td, s_weight, {x: 2 for x in range(20)}, ingredients)
        assert frame.sfs_type() == sfs_type_key([(12, 8)] * 5)

    def test_wfc_missing_ingredient(self):
        td = transversal_design(5, 4)
        from mcwc.core import IngredientError

        with pytest.raises(IngredientError):
            wfc_construct(td, {x: 4 for x in range(20)}, {x: 2 for x in range(20)}, {})

    def test_wfc_rejects_an_invalid_ingredient(self):
        # the right SFS type, but with a cell in row 20, outside its row parts
        good = corpus.sfs_square(5, 5)
        cells = dict(good.cells)
        cells[(20, 0)] = cells[(0, 6)]
        bad = SkewSquare.build("sfs", 21, good.v, cells,
                               row_parts=good.row_parts, point_parts=good.point_parts)
        key = sfs_type_key([(4, 2)] * 5)
        assert bad.sfs_type() == key
        with pytest.raises(IngredientError) as exc:
            wfc_construct(transversal_design(5, 4), {x: 4 for x in range(20)},
                          {x: 2 for x in range(20)}, {key: bad})
        assert str(exc.value) == (
            f"ingredient for type {key} is invalid: "
            "row parts do not partition the row index set"
        )

    def test_wfc_verifies_each_ingredient_once(self, monkeypatch):
        from mcwc import designs

        ingredient = corpus.sfs_square(5, 5)
        checked = []
        monkeypatch.setattr(designs, "verify_square",
                            lambda sq: checked.append(sq) or verify_square(sq))
        frame = wfc_construct(transversal_design(5, 4), {x: 4 for x in range(20)},
                              {x: 2 for x in range(20)},
                              {sfs_type_key([(4, 2)] * 5): ingredient})
        assert checked == [ingredient, frame]

    def test_wfc_missing_weight(self):
        with pytest.raises(DomainError, match="point 1 has no weight"):
            wfc_construct(transversal_design(5, 4), {0: 4}, {0: 2}, {})
        with pytest.raises(DomainError, match="point 0 has no weight"):
            wfc_construct(transversal_design(5, 4), {x: 4 for x in range(20)}, {}, {})

    def test_fill_hole_builds_star_squares(self):
        star3 = mcwc_to_square(corpus.small_code(3, 3))
        for n2 in (11, 13, 15, 17, 19):
            result = fill_hole(corpus.hsas_square(11, 3, n2), star3)
            assert result.kind is SquareKind.SAS_STAR
            code = square_to_mcwc(result)
            assert len(code) == (n2 * 10) // 4

    def test_fill_hole_shape_mismatch(self):
        star3 = mcwc_to_square(corpus.small_code(3, 3))
        with pytest.raises(ShapeError):
            fill_hole(corpus.hsas_square(11, 5, 21), star3)

    def test_bfc_degenerate_single_hole(self):
        sas55 = mcwc_to_square(corpus.small_code(5, 5))
        frame = SkewSquare.build(
            "sfs", 4, 4, {}, row_parts=[(0, 1, 2, 3)], point_parts=[(0, 1, 2, 3)]
        )
        out = bfc_fill(frame, 1, 1, [sas55])
        assert out.kind is SquareKind.SAS and out.num_cells == sas55.num_cells

    def test_bfc_full_assembly(self):
        td = transversal_design(5, 4)
        frame = wfc_construct(
            td,
            {x: 4 for x in range(20)},
            {x: 2 for x in range(20)},
            {sfs_type_key([(4, 2)] * 5): corpus.sfs_square(5, 5)},
        )
        h19 = corpus.hsas_square(11, 3, 19)
        star19 = fill_hole(h19, mcwc_to_square(corpus.small_code(3, 3)))
        result = bfc_fill(frame, 3, 3, [h19, h19, h19, h19, star19])
        assert result.kind is SquareKind.SAS_STAR
        assert (result.s, result.v) == (83, 43)
        code = square_to_mcwc(result)
        assert len(code) == (83 * 42) // 4 == 871

    def test_bfc_verifies_a_repeated_filler_once(self, monkeypatch):
        from mcwc import designs

        checked = []
        monkeypatch.setattr(designs, "verify_square",
                            lambda sq: checked.append(sq) or verify_square(sq))
        ingredient = corpus.sfs_square(5, 5)
        frame = wfc_construct(transversal_design(5, 4), {x: 4 for x in range(20)},
                              {x: 2 for x in range(20)},
                              {sfs_type_key([(4, 2)] * 5): ingredient})
        star3 = mcwc_to_square(corpus.small_code(3, 3))
        h19 = corpus.hsas_square(11, 3, 19)
        star19 = fill_hole(h19, star3)
        # four equal holey fillers that carry no report: only the first is verified
        holey = [corpus.hsas_square(11, 3, 19) for _ in range(4)]
        result = bfc_fill(frame, 3, 3, holey + [star19])
        # the frame, star3 and star19 carry the reports of their construction
        assert checked == [ingredient, frame, star3, h19, star19, holey[0], result]
        assert [sq is holey[0] for sq in checked].count(True) == 1

    def test_bfc_hsas_variant(self):
        # all fillers holey: the assembled square keeps a hole
        td = transversal_design(5, 4)
        frame = wfc_construct(
            td,
            {x: 4 for x in range(20)},
            {x: 2 for x in range(20)},
            {sfs_type_key([(4, 2)] * 5): corpus.sfs_square(5, 5)},
        )
        h19 = corpus.hsas_square(11, 3, 19)
        result = bfc_fill(frame, 3, 3, [h19] * 5)
        assert result.kind is SquareKind.HSAS
        assert sorted(result.hole_rows) == [80, 81, 82]
        # filling its hole afterwards matches the one-shot star construction
        star = fill_hole(result, mcwc_to_square(corpus.small_code(3, 3)))
        assert verify_square(star).valid and star.num_cells == 871

    def test_bfc_plain_variant_one_new_row(self):
        # pad with a single new row/column/point, plain squares as fillers
        td = transversal_design(5, 4)
        frame = wfc_construct(
            td,
            {x: 4 for x in range(20)},
            {x: 2 for x in range(20)},
            {sfs_type_key([(4, 2)] * 5): corpus.sfs_square(5, 5)},
        )
        sas17_9 = mcwc_to_square(corpus.small_code(9, 17))
        holey = sas_as_hsas(sas17_9, 0)
        result = bfc_fill(frame, 1, 1, [holey] * 4 + [sas17_9])
        assert result.kind is SquareKind.SAS
        assert (result.s, result.v) == (81, 41)
        code = square_to_mcwc(result)
        assert len(code) == (81 * 40) // 4 == 810

    def test_sas_as_hsas_requires_plain(self):
        with pytest.raises(ShapeError):
            sas_as_hsas(mcwc_to_square(corpus.small_code(3, 3)), 0)

    def test_bfc_filler_count_mismatch(self):
        frame = corpus.sfs_square(5, 5)
        with pytest.raises(ShapeError):
            bfc_fill(frame, 3, 3, [corpus.hsas_square(11, 3, 11)])


class TestSquareFiles:
    def test_roundtrip_all_kinds(self):
        squares = [
            mcwc_to_square(corpus.small_code(5, 5)),
            mcwc_to_square(corpus.small_code(3, 3)),
            corpus.hsas_square(11, 3, 13),
            corpus.sfs_square(5, 2),
        ]
        for sq in squares:
            text = format_square(sq)
            again = parse_square(text)
            assert format_square(again) == text
            assert verify_square(again).valid

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("square what 3 3\n", "kind"),
            ("square sas 3 3\ncell 0 1 0\n", "cell"),
            ("square sas 3 3\ncell 0 1 0 1\ncell 0 1 1 2\n", "twice"),
            ("square sas 3 3\nrows 1 2\n", "directive"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(FormatError) as exc:
            parse_square(text)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("line", [
        "hole-rows 0", "hole-points 0", "row-part 0; 1 2", "point-part 0; 1 2",
    ])
    def test_repeated_single_use_directive(self, line):
        # a second line would silently replace the first
        tag = line.split()[0]
        kind = "hsas" if tag.startswith("hole-") else "sfs"
        text = f"square {kind} 3 3\n{line}\ncell 0 1 0 1\n{line}\n"
        with pytest.raises(FormatError, match=f"^line 4: '{tag}' is repeated$"):
            parse_square(text)

    @pytest.mark.parametrize("kind,line", [
        ("sas", "hole-rows 0 1"), ("sas", "row-part 0; 1"), ("sas*", "hole-points 0"),
        ("sfs", "hole-rows 0"), ("sfs", "hole-points 0"),
        ("hsas", "row-part 0; 1 2"), ("hsas", "point-part 0; 1 2"),
    ])
    def test_directive_of_another_kind(self, kind, line):
        # the square would still verify, with the line silently ignored
        tag = line.split()[0]
        text = f"square {kind} 3 3\ncell 0 1 0 1\n{line}\n"
        with pytest.raises(FormatError, match=f"^line 3: '{tag}' is not used by a "
                                              f"{re.escape(kind)} square$"):
            parse_square(text)

    def test_sas_with_hole_and_part_lines_is_rejected(self):
        text = format_square(_sas55()).replace("\n", "\nhole-rows 0 1\nrow-part 0; 1\n", 1)
        with pytest.raises(FormatError, match="^line 2: 'hole-rows' is not used"):
            parse_square(text)


# ---------------------------------------------------------------------------
# The field tables and designs as built before the one polynomial-basis field,
# kept as a reference: hand-written GF(4), GF(8) and GF(9) arithmetic, and the
# affine plane built on its own beside TD(q, q).
# ---------------------------------------------------------------------------


def _reference_add(q, x, y):
    if q in (4, 8):
        return x ^ y
    if q == 9:
        return 3 * ((x // 3 + y // 3) % 3) + (x % 3 + y % 3) % 3
    return (x + y) % q


def _reference_mul_table(q):
    if q in (2, 3, 5, 7, 11, 13):
        return [[(a * b) % q for b in range(q)] for a in range(q)]
    if q in (4, 8):
        # GF(2)[x] modulo x^2+x+1 (0b111) or x^3+x+1 (0b1011)
        modulus = {4: 0b111, 8: 0b1011}[q]
        table = [[0] * q for _ in range(q)]
        for a in range(1, q):
            for b in range(1, q):
                prod, acc = 0, a
                for bit in range(q.bit_length() - 1):
                    if b >> bit & 1:
                        prod ^= acc
                    acc <<= 1
                    if acc & q:
                        acc ^= modulus
                table[a][b] = prod
        return table
    assert q == 9  # GF(3)[x] modulo x^2+1, element 3*h + l for h*x + l
    table = [[0] * 9 for _ in range(9)]
    for a in range(9):
        ah, al = divmod(a, 3)
        for b in range(9):
            bh, bl = divmod(b, 3)
            table[a][b] = 3 * ((ah * bl + al * bh) % 3) + (al * bl - ah * bh) % 3
    return table


def _reference_transversal_design(k, q):
    mul = _reference_mul_table(q)
    groups = [tuple(i * q + x for x in range(q)) for i in range(k)]
    blocks = []
    for a in range(q):
        for b in range(q):
            block = [i * q + _reference_add(q, mul[a][i], b) for i in range(min(k, q))]
            if k == q + 1:
                block.append(q * q + a)
            blocks.append(tuple(block))
    return GddDesign.build(k * q, groups, blocks)


def _reference_affine_plane(q):
    from mcwc.constructions import ResolvableBibd

    mul = _reference_mul_table(q)
    # lines y = s*x + b for each slope s, then the vertical lines x = c
    classes = [[tuple(x * q + _reference_add(q, mul[s][x], b) for x in range(q))
                for b in range(q)] for s in range(q)]
    classes.append([tuple(c * q + y for y in range(q)) for c in range(q)])
    return ResolvableBibd.build(q * q, q, 1, 1, classes)


SUPPORTED_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13]


class TestFieldAndDesigns:
    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_field_tables(self, q):
        add, mul = _field(q)
        assert add == [[_reference_add(q, x, y) for y in range(q)] for x in range(q)]
        assert mul == _reference_mul_table(q)

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_transversal_designs_unchanged(self, q):
        for k in range(q + 2):
            assert transversal_design(k, q) == _reference_transversal_design(k, q), k

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_affine_plane_is_td_q_q(self, q):
        from mcwc.constructions import affine_plane_bibd, verify_bibd

        design = affine_plane_bibd(q)
        assert design == _reference_affine_plane(q)
        assert verify_bibd(design).valid

    @pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 16])
    def test_no_field(self, q):
        from mcwc.constructions import affine_plane_bibd

        message = f"^no field arithmetic available for q = {q}$"
        # the field is checked before k, so k = q + 2 reports the field
        for build in (lambda: transversal_design(3, q), lambda: transversal_design(q + 2, q),
                      lambda: affine_plane_bibd(q)):
            with pytest.raises(DomainError, match=message):
                build()

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_k_beyond_q_plus_one(self, q):
        with pytest.raises(DomainError, match=f"^this construction needs k <= q \\+ 1, "
                                              f"got k = {q + 2}, q = {q}$"):
            transversal_design(q + 2, q)
