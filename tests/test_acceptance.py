"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The bound-consistency sweep (criterion 4) runs once and is shared with the
Plotkin/Johnson equivalence check (criterion 5).
"""

import hashlib
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from mcwc import corpus
from mcwc.core import CodeParameters, verify_mcwc
from mcwc.bounds import (
    best_of,
    comparison_f,
    best_upper_bound,
    gv_lower_bound,
    johnson_eq3,
    mu_c,
    mu_gv,
    plotkin_bound,
    upper_bounds,
)
from mcwc.constructions import develop
from mcwc.designs import (
    SquareKind,
    bfc_fill,
    fill_hole,
    mcwc_to_square,
    sfs_type_key,
    square_to_mcwc,
    transversal_design,
    verify_square,
    wfc_construct,
)
from mcwc.lp import lp_bound
from mcwc.oracle import SearchConfig, max_mcwc


def _report(number, name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_small_table_reproduction():
    started = time.monotonic()
    for n1, n2 in corpus.SMALL_PAIRS:
        code = corpus.small_code(n1, n2)
        assert code.params == CodeParameters((n1, n2), (2, 2), 6)
        assert verify_mcwc(code).valid, (n1, n2)
        expected = 6 if (n1, n2) == (5, 7) else (n2 * (n1 - 1)) // 4
        assert len(code) == expected, (n1, n2)
        # each code meets the computed upper bound, but (5,7): 6 against Johnson's 7
        bound = best_upper_bound(code.params).value
        assert len(code) == bound - ((n1, n2) == (5, 7)), (n1, n2, bound)
    _report(1, "small-table reproduction", started, 1.0)


@pytest.mark.parametrize("n1", [13, 17, 21, 25, 29, 33, 37])
def test_criterion_2_cyclic_development(n1):
    started = time.monotonic()
    g = corpus.DEVELOP_FAMILIES[n1]
    for n2 in range(n1, 8 * g + 2, 2):
        code = develop(corpus.develop_table(n1, n2))  # verifies distance 6
        assert len(code) == g * n2 == best_upper_bound(code.params).value, (n1, n2)
    _report(2, f"cyclic development, point side {n1}", started, 10.0)


def test_criterion_3_oracle_agreement():
    started = time.monotonic()
    assert max_mcwc(CodeParameters((3, 3), (2, 2), 6)).size == 1
    assert max_mcwc(CodeParameters((3, 5), (2, 2), 6)).size == 2
    assert max_mcwc(CodeParameters((5, 5), (2, 2), 6)).size == 5
    exceptional = max_mcwc(CodeParameters((5, 7), (2, 2), 6))
    assert exceptional.size == 6 and exceptional.complete  # proven, one below Johnson's 7
    assert max_mcwc(CodeParameters.uniform(1, 5, 2, 4)).size == 2
    assert max_mcwc(CodeParameters.uniform(1, 4, 2, 2)).size == 6
    _report(3, "oracle agreement", started, 60.0)


# -- shared sweep for criteria 4 and 5 ----------------------------------------

SWEEP_BUDGET_NODES = 2_000_000
# the one instance whose exhaustive proof exceeds the node budget; its
# incumbent is still checked against every bound (see the sweep test)
KNOWN_INCOMPLETE = {(8, 2, 1, 6)}


def _sweep_instances():
    out = []
    for m in range(1, 12):
        for n in range(2, 301):
            for w in range(1, n):
                if comb(n, w) ** m > 300:
                    continue
                wn = min(w, n - w)
                for u in range(1, m * wn + 2):
                    out.append((m, n, w, 2 * u))
    return out


def _sweep_record(key, cfg):
    """(key, oracle result, every upper bound by method, gv) of one instance;
    the bound table is the one the oracle searched against, when it needed one."""
    params = CodeParameters.uniform(*key)
    oracle = max_mcwc(params, cfg)
    table = oracle.bounds or upper_bounds(params)
    bounds = dict(table, plotkin=plotkin_bound(params))
    return key, oracle, bounds, gv_lower_bound(params)


@pytest.fixture(scope="module")
def sweep_records():
    started = time.monotonic()
    cfg = SearchConfig(node_budget=SWEEP_BUDGET_NODES)
    records = [_sweep_record(key, cfg) for key in _sweep_instances()]
    return records, time.monotonic() - started


def test_sweep_record_solves_each_lp_once(monkeypatch):
    from mcwc import lp

    calls = {"lp_bound": 0, "solve_lp": 0}

    def counted(fn):
        def wrapper(*a, **k):
            calls[fn.__name__] += 1
            return fn(*a, **k)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lp, name, counted(getattr(lp, name)))
    cfg = SearchConfig(node_budget=SWEEP_BUDGET_NODES)
    # a trivial answer, a seed and a search that meet the target, and a
    # search that ends below it
    for key in [(1, 5, 2, 2), (2, 5, 2, 6), (1, 8, 3, 4), (3, 4, 2, 6)]:
        before = dict(calls)
        _, oracle, bounds, _ = _sweep_record(key, cfg)
        assert calls == {k: v + 1 for k, v in before.items()}, key
        if key == (1, 5, 2, 2):
            assert oracle.bounds is None
        else:
            assert oracle.bounds["lp"] is bounds["lp"]


def test_criterion_4_bound_consistency_sweep(sweep_records):
    records, sweep_seconds = sweep_records
    started = time.monotonic() - sweep_seconds
    incomplete = set()
    for key, oracle, bounds, gv in records:
        for result in bounds.values():
            if result.applicable:
                assert oracle.size <= result.value, (key, result.method, result.value, oracle.size)
        if not oracle.complete:
            incomplete.add(key)
            continue
        if gv.applicable:
            assert gv.value <= oracle.size, (key, gv.value, oracle.size)
    assert incomplete <= KNOWN_INCOMPLETE, f"unexpected incomplete instances: {incomplete}"
    # the LP gate admits every sweep instance, so the LP bound is checked on all
    assert sum("lp" in bounds for _, _, bounds, _ in records) == len(records) == 1642
    print(f"  sweep: {len(records)} instances,"
          f" {len(incomplete)} budget-limited {sorted(incomplete)}")
    _report(4, "bound consistency sweep", started, 600.0)


# one line per sweep instance, in sweep order, as written by _golden_line:
# recorded from the search before its node was inlined, which must build the
# same tree; re-record it only for an intended change of the search
SWEEP_GOLDEN = Path(__file__).with_name("sweep_golden.txt")


def _golden_line(key, oracle):
    """The instance, then the oracle's size, complete, nodes, stop and the
    first 16 hex digits of the SHA-256 of its witness: the packed words (bit
    i for point i of the support) in increasing order, in hex, space-separated."""
    words = " ".join(map(hex, sorted(word.bits for word in oracle.witness.words)))
    digest = hashlib.sha256(words.encode()).hexdigest()[:16]
    return "\t".join([" ".join(map(str, key)), str(oracle.size), str(oracle.complete),
                      str(oracle.nodes), oracle.stop, digest])


def test_criterion_4_search_matches_the_golden(sweep_records):
    records, _ = sweep_records
    got = [_golden_line(key, oracle) for key, oracle, _, _ in records]
    expected = SWEEP_GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(expected) == 1642
    differ = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not differ, differ[:5]


def test_criterion_5_plotkin_equals_johnson(sweep_records):
    records, _ = sweep_records
    started = time.monotonic()
    checked = 0
    for key, _oracle, bounds, _gv in records:
        a, b = bounds["plotkin"], bounds["johnson-eq3"]
        assert (a.value is None) == (b.value is None), key
        if a.value is not None:
            assert a.value == b.value, key
            checked += 1
    assert checked > 100
    _report(5, "plotkin = johnson equivalence", started, 600.0)


def test_criterion_6_scheme_algebra():
    started = time.monotonic()
    from mcwc.scheme import build_scheme_tables

    for n in range(2, 13):
        for w in range(1, n // 2 + 1):
            t = build_scheme_tables(w, n)
            size = comb(n, w)
            assert sum(t.multiplicities) == size
            for i in range(w + 1):
                for j in range(w + 1):
                    s = sum(t.P[i][k] * t.Q[k][j] for k in range(w + 1))
                    assert s == (size if i == j else 0), (w, n, i, j)
    for n in range(2, 9):
        for w in range(1, n):
            for u in range(1, min(w, n - w) + 1):
                params = CodeParameters.uniform(1, n, w, 2 * u)
                value = lp_bound(params).value
                assert max_mcwc(params).size <= value, (n, w, u)
    one_block = CodeParameters.uniform(1, 5, 2, 4)
    assert lp_bound(one_block).value == 2 == max_mcwc(one_block).size
    _report(6, "scheme algebra and LP relaxation", started, 30.0)


def test_criterion_7_asymptotic_comparison():
    started = time.monotonic()
    # f >= 0 on the 1/64 grid of the admissible region
    for oi in range(1, 33):
        omega = Fraction(oi, 64)
        limit = min(Fraction(1, 4), omega)
        for xi in range(1, 17):
            x = Fraction(xi, 64)
            if x > limit:
                break
            assert comparison_f(x, omega) >= 0, (x, omega)
    # zero on the locus x = omega - omega^2
    for oi in range(1, 33):
        omega = Fraction(oi, 64)
        assert comparison_f(omega - omega * omega, omega) == 0, omega
    # f equals the rate difference where the concatenation rate is defined
    for q in (2, 3, 4):
        omega = Fraction(1, q)
        limit = min(Fraction(1, 4), omega, Fraction(q - 1, q * q))
        for xi in range(1, 17):
            x = Fraction(xi, 64)
            if x > limit:
                break
            diff = mu_gv(2 * x, omega) - mu_c(2 * x, omega)
            assert abs(diff - comparison_f(x, omega)) <= 1e-9, (q, x)
    _report(7, "asymptotic comparison", started, 5.0)


def test_criterion_8_square_pipeline():
    started = time.monotonic()
    # round-trips on every extremal two-weight-two corpus code
    for n1, n2 in corpus.SMALL_PAIRS:
        if (n1, n2) == (5, 7):
            continue
        code = corpus.small_code(n1, n2)
        square = mcwc_to_square(code)
        assert square_to_mcwc(square).support_set() == code.support_set()
    for n1 in (13, 17, 21):
        code = develop(corpus.develop_table(n1, n1))
        square = mcwc_to_square(code)
        assert square_to_mcwc(square).support_set() == code.support_set()
    # every shipped frame and holey square verifies
    for f, a in corpus.SFS_SHAPES:
        assert verify_square(corpus.sfs_square(f, a)).valid, (f, a)
    for v, t, s in corpus.HSAS_SHAPES:
        assert verify_square(corpus.hsas_square(v, t, s)).valid, (v, t, s)
    # one full assembly: TD(5,4) + (4,2)^5 frames -> SFS (16,8)^5,
    # then three new rows/columns and holey fillers -> a starred square
    td = transversal_design(5, 4)
    frame = wfc_construct(
        td,
        {x: 4 for x in range(20)},
        {x: 2 for x in range(20)},
        {sfs_type_key([(4, 2)] * 5): corpus.sfs_square(5, 5)},
    )
    assert frame.sfs_type() == sfs_type_key([(16, 8)] * 5)
    h19 = corpus.hsas_square(11, 3, 19)
    star19 = fill_hole(h19, mcwc_to_square(corpus.small_code(3, 3)))
    assembled = bfc_fill(frame, 3, 3, [h19, h19, h19, h19, star19])
    assert assembled.kind is SquareKind.SAS_STAR
    assert verify_square(assembled).valid
    code = square_to_mcwc(assembled)  # includes distance-6 verification
    assert len(code) == (83 * 42) // 4
    # the hole-filling route used for the 11/15/19 families
    for n1 in (11, 15, 19):
        star3 = mcwc_to_square(corpus.small_code(3, 3))
        for n2 in range(n1, 2 * n1 - 2, 2):
            square = fill_hole(corpus.hsas_square(n1, 3, n2), star3)
            assert len(square_to_mcwc(square)) == (n2 * (n1 - 1)) // 4
        star5 = mcwc_to_square(corpus.small_code(3, 5))
        square = fill_hole(corpus.hsas_square(n1, 5, 2 * n1 - 1), star5)
        assert len(square_to_mcwc(square)) == ((2 * n1 - 1) * (n1 - 1)) // 4
    _report(8, "square pipeline", started, 60.0)


def test_criterion_9_construction_optimality():
    started = time.monotonic()
    from mcwc.constructions import affine_plane_bibd, bibd_to_mcwc

    code = bibd_to_mcwc(affine_plane_bibd(3))
    assert len(code) == 9
    assert code.params == CodeParameters.uniform(4, 3, 1, 6)
    assert johnson_eq3(code.params).value == 9
    _report(9, "construction optimality", started, 1.0)


# -- non-uniform shapes -----------------------------------------------------

NON_UNIFORM_CAP = 120  # largest word count, prod C(n_i, w_i), of a shape


def _non_uniform_instances():
    """Sorted blocks (n_i, w_i), 1 <= w_i < n_i, at least two and not all
    equal, with at most NON_UNIFORM_CAP words; each at every even distance 2u,
    1 <= u <= sum min(w_i, n_i - w_i) + 1."""
    blocks = [(n, w) for n in range(2, NON_UNIFORM_CAP + 1) for w in range(1, n)
              if comb(n, w) <= NON_UNIFORM_CAP // 2]
    shapes = []

    def extend(shape, words, first):
        if len(shape) >= 2 and len(set(shape)) > 1:
            shapes.append(shape)
        for i, block in enumerate(blocks[first:], first):
            if words * comb(*block) <= NON_UNIFORM_CAP:
                extend(shape + (block,), words * comb(*block), i)

    extend((), 1, 0)
    return [(shape, 2 * u) for shape in shapes
            for u in range(1, sum(min(w, n - w) for n, w in shape) + 2)]


def test_criterion_10_non_uniform_sandwich():
    """On every non-uniform shape of the family the oracle proves its
    optimum, and no applicable upper bound falls below it."""
    started = time.monotonic()
    cfg = SearchConfig(node_budget=SWEEP_BUDGET_NODES)
    instances = _non_uniform_instances()
    assert len(instances) == 5522 and len({shape for shape, _ in instances}) == 1444
    below = 0
    for shape, d in instances:
        lengths, weights = zip(*shape)
        params = CodeParameters(lengths, weights, d)
        oracle = max_mcwc(params, cfg)
        assert oracle.complete, (shape, d)
        table = oracle.bounds or upper_bounds(params)
        for result in table.values():
            if result.applicable:
                assert oracle.size <= result.value, (shape, d, result.method, result.value)
        below += oracle.size < best_of(table).value
    print(f"  non-uniform: {len(instances)} instances, {below} optima below the best bound")
    _report(10, "non-uniform sandwich", started, 120.0)
