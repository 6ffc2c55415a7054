from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from mcwc import bounds
from mcwc.core import CodeParameters, DomainError, ShapeError, canonical_weight
from mcwc.bounds import (
    asymptotic_point,
    best_of,
    best_upper_bound,
    binary_entropy,
    comparison_f,
    gv_lower_bound,
    johnson_eq3,
    johnson_recursive,
    lp_applies,
    mu_c,
    mu_gv,
    plotkin_bound,
    plotkin_discrete,
    spherical_bound,
    upper_bounds,
)


def uni(m, n, w, d):
    return CodeParameters.uniform(m, n, w, d)


class TestJohnsonEq3:
    def test_5_5(self):
        r = johnson_eq3(CodeParameters((5, 5), (2, 2), 6))
        assert r.value == 5
        assert r.certificate["denominator"] == Fraction(3, 5)

    def test_5_7(self):
        r = johnson_eq3(CodeParameters((5, 7), (2, 2), 6))
        assert r.value == 8
        assert r.certificate["denominator"] == Fraction(13, 35)

    def test_nonpositive_denominator(self):
        r = johnson_eq3(CodeParameters((5, 5), (2, 2), 2))
        assert r.value is None
        assert r.certificate == {"u": 1, "lambda": 3, "denominator": Fraction(-7, 5),
                                 "reason": "denominator <= 0"}

    def test_odd_distance(self):
        r = johnson_eq3(CodeParameters((5, 5), (2, 2), 5))
        assert r.value is None and r.certificate == {"reason": "odd distance"}


class TestJohnsonRecursive:
    def test_two_blocks_weight_two(self):
        # one single-step recursion on the first block reaches the optimum 7
        r = johnson_recursive(CodeParameters((5, 7), (2, 2), 6))
        assert r.value == 7
        trace = r.certificate["trace"]
        assert trace[0] == ("eq1", 2, 5)
        assert trace[-1][0] in ("eq3", "single", "space", "product", "no-word")

    def test_base_single(self):
        assert johnson_recursive(CodeParameters((3, 3), (2, 2), 10)).value == 1

    def test_base_no_word(self):
        assert johnson_recursive(CodeParameters((3,), (4,), 2)).value == 0

    def test_matches_pair_target_floor(self):
        # single-weight-2 pairs: T(2,n1;2,n2;6) <= floor(n2(n1-1)/4)
        for n1, n2 in [(3, 3), (5, 5), (5, 7), (9, 17)]:
            r = johnson_recursive(CodeParameters((n1, n2), (2, 2), 6))
            assert r.value == (n2 * (n1 - 1)) // 4

    def test_space_base(self):
        assert johnson_recursive(uni(2, 4, 2, 2)).value == 36

    def test_not_truncated_by_default(self):
        r = johnson_recursive(uni(4, 9, 3, 6))
        assert r.value == 1016064 and r.certificate["truncated"] is False

    def test_truncated_under_budget(self):
        bounds._REC_CACHE.clear()  # a memoized root would need no budget
        r = johnson_recursive(uni(4, 9, 3, 6), state_budget=3)
        assert r.certificate["truncated"] is True
        assert r.value >= 1016064  # the product fallback is sound
        assert johnson_recursive(uni(4, 9, 3, 6)).value == 1016064

    def test_certificate_names_canonical_blocks(self):
        # (7, 5; 5, 2) is (5, 7; 2, 2) with its first block complemented
        r = johnson_recursive(CodeParameters((7, 5), (5, 2), 6))
        twin = johnson_recursive(CodeParameters((5, 7), (2, 2), 6))
        assert r.value == twin.value == 7
        assert r.certificate["rule"] == ("eq1", 2, 5)
        assert r.certificate["trace"] == twin.certificate["trace"]

    def test_memo_holds_canonical_blocks_only(self):
        bounds._REC_CACHE.clear()
        johnson_recursive(CodeParameters((9, 8, 7), (6, 4, 3), 8))
        keys = [blocks for memo in bounds._REC_CACHE.values() for blocks in memo]
        assert keys and all(0 < 2 * w <= n for blocks in keys for w, n in blocks)
        # at n = 2w both steps lead to (w - 1, 2w - 1), so only eq1 is kept
        assert [rule for _, rule, _, _ in bounds._steps((2, 4))] == [("eq1", 2, 4)]

    def test_base_case_never_truncated(self):
        r = johnson_recursive(CodeParameters((3, 3), (2, 2), 10), state_budget=0)
        assert r.value == 1 and r.certificate["truncated"] is False


def _johnson_reference(params: CodeParameters) -> int:
    """The recursive Johnson bound in Fraction arithmetic, with a table local
    to this call, independent of the package's memo and integer formulas."""
    d = params.distance
    table: dict = {}

    def rec(blocks) -> int:
        if any(w > n for w, n in blocks):
            return 0
        blocks = tuple(sorted((w, n) for w, n in blocks if 0 < w < n))
        if not blocks:
            return 1
        if d <= 2:
            return prod(comb(n, w) for w, n in blocks)
        if d > 2 * sum(min(w, n - w) for w, n in blocks):
            return 1
        if blocks not in table:
            best = prod(comb(n, w) for w, n in blocks)
            if d % 2 == 0:
                u = d // 2
                lam = sum(w for w, _ in blocks) - u
                denom = sum(Fraction(w * w, n) for w, n in blocks) - lam
                if denom > 0:
                    best = min(best, int(Fraction(u) / denom))
            for i, (w, n) in enumerate(blocks):
                rest = blocks[:i] + blocks[i + 1 :]
                best = min(best, int(Fraction(n, w) * rec(rest + ((w - 1, n - 1),))))
                best = min(best, int(Fraction(n, n - w) * rec(rest + ((w, n - 1),))))
            table[blocks] = best
        return table[blocks]

    return rec(tuple(zip(params.block_weights, params.block_lengths)))


@st.composite
def small_shapes(draw):
    k = draw(st.integers(2, 3))
    lengths = [draw(st.integers(1, 9)) for _ in range(k)]
    weights = [draw(st.integers(0, n)) for n in lengths]
    reach = 2 * sum(min(w, n - w) for w, n in zip(weights, lengths))
    d = 2 * draw(st.integers(1, reach // 2 + 1))
    return CodeParameters(tuple(lengths), tuple(weights), d)


@settings(max_examples=120, deadline=None)
@given(small_shapes(), st.lists(st.integers(0, 40), min_size=1, max_size=4))
@example(uni(4, 9, 3, 6), [3])
def test_budgeted_calls_never_change_a_later_answer(params, budgets):
    exact = _johnson_reference(params)
    bounds._REC_CACHE.clear()  # let the budgeted calls meet unexplored states
    for budget in budgets:
        assert johnson_recursive(params, state_budget=budget).value >= exact
    assert johnson_recursive(params).value == exact


def _answer(params, budget=None):
    r = johnson_recursive(params, **({} if budget is None else {"state_budget": budget}))
    c = r.certificate
    return (r.value, c["rule"], c["trace"], c["states"], c["memo_hits"], c["past_budget"],
            c["truncated"])


def _memo_snapshot():
    return {d: dict(memo) for d, memo in bounds._REC_CACHE.items() if memo}


@st.composite
def histories(draw):
    """Earlier calls on 2-3-block shapes with n <= 9, at budgets 0-40 or the
    default (None); each is a fresh shape or, to share the final call's memo
    states, a part of the final shape at its distance."""
    final = draw(small_shapes())
    blocks = list(zip(final.block_lengths, final.block_weights))
    earlier = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            shape = draw(small_shapes())
        else:
            part = draw(st.lists(st.sampled_from(blocks), min_size=2, max_size=3))
            part = [(n - 1, w - 1) if w and n > 1 and draw(st.booleans()) else (n, w)
                    for n, w in part]
            shape = CodeParameters(tuple(n for n, _ in part), tuple(w for _, w in part),
                                   final.distance)
        earlier.append((shape, draw(st.one_of(st.none(), st.integers(0, 40)))))
    return earlier, final, draw(st.integers(0, 40))


@settings(max_examples=150, deadline=None)
@given(histories())
@example(([(uni(3, 9, 3, 6), None)], uni(4, 9, 3, 6), 50))
def test_an_answer_is_exact_or_as_on_an_empty_memo(case):
    earlier, params, budget = case
    for shape, b in earlier:
        johnson_recursive(shape, **({} if b is None else {"state_budget": b}))
    before = _memo_snapshot()
    got = _answer(params, budget)
    value, _, _, states, _, past_budget, truncated = got
    assert states <= budget and truncated == (past_budget > 0)
    if not truncated:
        assert value == _johnson_reference(params)
        return
    assert _memo_snapshot() == before  # a cut-off call leaves the memo as it found it
    bounds._REC_CACHE.clear()
    assert got == _answer(params, budget)


class TestBudgetedAnswers:
    def test_roadmap_case_reads_as_on_an_empty_memo(self):
        bounds._REC_CACHE.clear()
        johnson_recursive(uni(3, 9, 3, 6))
        r = johnson_recursive(uni(4, 9, 3, 6), state_budget=50)
        c = r.certificate
        assert (r.value, c["truncated"], c["states"], c["past_budget"]) == (1354752, True, 50, 40)

    def test_truncated_call_leaves_the_memo_as_it_found_it(self):
        bounds._REC_CACHE.clear()
        johnson_recursive(uni(3, 9, 3, 6))
        johnson_recursive(CodeParameters((5, 7, 9, 11), (2, 2, 3, 3), 8), state_budget=5)
        before = _memo_snapshot()
        r = johnson_recursive(uni(4, 9, 3, 6), state_budget=50)
        assert r.certificate["truncated"] is True
        assert _memo_snapshot() == before
        assert johnson_recursive(uni(4, 9, 3, 6)).value == 1016064

    def test_interrupted_call_leaves_the_memo_as_it_found_it(self, monkeypatch):
        class Interrupt(Exception):
            pass

        bounds._REC_CACHE.clear()
        johnson_recursive(uni(3, 9, 3, 6))
        before = _memo_snapshot()
        calls = []
        space_size = bounds._space_size

        def interrupt_after_the_cut(blocks):  # called once per new state
            calls.append(blocks)
            if len(calls) > 60:
                raise Interrupt
            return space_size(blocks)

        monkeypatch.setattr(bounds, "_space_size", interrupt_after_the_cut)
        with pytest.raises(Interrupt):
            johnson_recursive(uni(4, 9, 3, 6), state_budget=50)
        monkeypatch.undo()
        assert _memo_snapshot() == before
        assert johnson_recursive(uni(4, 9, 3, 6)).value == 1016064

    def test_memoized_root_costs_no_state(self):
        johnson_recursive(uni(4, 9, 3, 6))
        r = johnson_recursive(uni(4, 9, 3, 6), state_budget=0)
        assert r.certificate["states"] == 0 and r.certificate["truncated"] is False
        assert r.certificate["memo_hits"] == 1  # the root
        assert r.value == 1016064


# -- the recursion before the equal-block skip, kept as a reference -----------
#
# One state per call to _ref_rec_bound, every child looked up by a recursive
# call, every block of a state expanded even when it equals the one before it.


def _ref_steps(block):
    w, n = block
    steps = {}
    for rule, child_w, divisor in (("eq1", w - 1, w), ("eq2", w, n - w)):
        child_w = canonical_weight(child_w, n - 1)
        child = (child_w, n - 1) if child_w else None
        steps.setdefault(child, (child, (rule, w, n), divisor, child_w - w))
    return tuple(steps.values())


def _ref_eq3(blocks, u):
    big = prod(n for _, n in blocks)
    lam = sum(w for w, _ in blocks) - u
    denom = sum(w * w * (big // n) for w, n in blocks) - lam * big
    return u * big // denom if denom > 0 else None


@dataclass
class _RefState:
    d: int
    budget: int
    memo: dict
    visited: int = 0
    past_budget: int = 0
    truncated: bool = False


def _ref_rec_bound(blocks, reach, st):
    if not blocks or st.d > 2 * reach:
        return 1, ("single",)
    hit = st.memo.get(blocks)
    if hit is not None:
        return hit
    best = prod(comb(n, w) for w, n in blocks)
    rule = ("product",)
    if st.visited >= st.budget:
        st.past_budget += 1
        st.truncated = True
        return best, rule
    st.visited += 1
    if st.d % 2 == 0:
        v3 = _ref_eq3(blocks, st.d // 2)
        if v3 is not None and v3 < best:
            best, rule = v3, ("eq3",)
    for i, block in enumerate(blocks):
        rest = blocks[:i] + blocks[i + 1 :]
        for child_block, step, divisor, dreach in _ref_steps(block):
            child = rest if child_block is None else tuple(sorted((*rest, child_block)))
            v = block[1] * _ref_rec_bound(child, reach + dreach, st)[0] // divisor
            if v < best:
                best, rule = v, step
    st.memo[blocks] = (best, rule)
    return best, rule


def _ref_rec_trace(blocks, rule, st, limit=64):
    lookup = _RefState(st.d, 0, st.memo)
    trace = [rule]
    while rule[0] in ("eq1", "eq2") and len(trace) < limit:
        i = blocks.index(rule[1:])
        child_block = next(c for c, r, _, _ in _ref_steps(blocks[i]) if r == rule)
        blocks = blocks[:i] + blocks[i + 1 :]
        if child_block is not None:
            blocks = tuple(sorted((*blocks, child_block)))
        rule = _ref_rec_bound(blocks, sum(w for w, _ in blocks), lookup)[1]
        trace.append(rule)
    return tuple(trace)


def reference_johnson(params, cache, state_budget=None):
    """(value, rule, trace, states, past_budget, truncated) of the recursion
    without the equal-block skip, on ``cache`` (d -> memo) as the shared memo;
    ``state_budget`` None is the package's default."""
    if state_budget is None:
        state_budget = 10**6
    params = params.canonical()
    d = params.distance
    blocks = tuple(b for b in zip(params.block_weights, params.block_lengths) if b[0])
    st = _RefState(d, state_budget, cache.setdefault(d, {}))
    if any(w > n for w, n in blocks):
        value, rule = 0, ("no-word",)
    elif blocks and d <= 2:
        value, rule = prod(comb(n, w) for w, n in blocks), ("space",)
    else:
        known = len(st.memo)
        value, rule = _ref_rec_bound(blocks, params.total_weight, st)
        while st.truncated and len(st.memo) > known:
            st.memo.popitem()
        if st.truncated:
            st = _RefState(d, state_budget, {})
            value, rule = _ref_rec_bound(blocks, params.total_weight, st)
    trace = _ref_rec_trace(blocks, rule, st)
    return value, rule, trace, st.visited, st.past_budget, st.truncated


def _certificate(params, budget=None):
    """The fields of :func:`reference_johnson` from the package's answer:
    all but ``memo_hits``, which the reference does not count."""
    value, rule, trace, states, _, past_budget, truncated = _answer(params, budget)
    return value, rule, trace, states, past_budget, truncated


def _memo_entries(cache):
    """Each distance's memo entries in insertion order."""
    return {d: list(memo.items()) for d, memo in cache.items() if memo}


def _bound_workload_calls():
    """The Johnson calls of the ``bound`` benchmark workload in its order
    (``bound_items`` in perfbench/items.py): the uniform grid, (3,8,3,6), the
    two non-uniform sets, then each budgeted probe as a state_budget=3 call
    followed by a default one; every probe a seed can draw is included."""
    grid = [(m, n, w, d) for m in range(2, 7) for n in range(3, 10)
            for w in range(1, n // 2 + 1) for d in (4, 6, 8)
            if d <= 2 * m * w and comb(m + w, w) <= 10]
    calls = [(uni(*shape), None) for shape in grid + [(3, 8, 3, 6)]]
    calls += [(CodeParameters((5, 7, 9, 11), (2, 2, 3, 3), d), None) for d in (8, 10)]
    probes = [((9, 9, 9, 9), (3, 3, 3, 3), 6), ((5, 7, 9), (1, 3, 3), 12),
              ((4, 6, 8), (2, 3, 2), 12), ((6, 7, 8), (1, 3, 4), 12),
              ((6, 7, 8), (3, 3, 1), 12), ((5, 6, 7), (1, 3, 3), 12)]
    for lengths, weights, d in probes:
        probe = CodeParameters(lengths, weights, d)
        calls += [(probe, 3), (probe, None)]
    return calls


def test_bound_workload_certificates_match_the_reference():
    bounds._REC_CACHE.clear()
    cache: dict = {}
    calls = _bound_workload_calls()
    assert len(calls) == 135 + 12
    for params, budget in calls:
        expected = reference_johnson(params, cache, budget)
        assert _certificate(params, budget) == expected, (params, budget)
    assert _memo_entries(bounds._REC_CACHE) == _memo_entries(cache)


@st.composite
def johnson_shapes(draw):
    """1-4 blocks with n <= 9 and any weight, at any distance up to past the
    reach; about half are uniform, where equal blocks repeat."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        lengths, weights = [n] * k, [draw(st.integers(0, n))] * k
    else:
        lengths = [draw(st.integers(1, 9)) for _ in range(k)]
        weights = [draw(st.integers(0, n)) for n in lengths]
    reach = sum(min(w, n - w) for w, n in zip(weights, lengths))
    return CodeParameters(tuple(lengths), tuple(weights), draw(st.integers(1, 2 * reach + 2)))


_budgets = st.one_of(st.none(), st.integers(0, 60))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(johnson_shapes(), _budgets), max_size=3),
       johnson_shapes(), _budgets)
@example([], uni(4, 9, 3, 6), 50)
@example([(uni(3, 9, 3, 6), None)], uni(4, 9, 3, 6), 50)
@example([(uni(4, 6, 2, 6), 7)], uni(4, 6, 2, 6), None)
def test_certificates_match_the_reference(earlier, params, budget):
    """On an emptied memo (no earlier calls) or one warmed by earlier calls,
    which both sides make, the certificate and the memo match the reference."""
    bounds._REC_CACHE.clear()
    cache: dict = {}
    for shape, b in [*earlier, (params, budget)]:
        assert _certificate(shape, b) == reference_johnson(shape, cache, b)
        assert _memo_entries(bounds._REC_CACHE) == _memo_entries(cache)


@settings(max_examples=100, deadline=None)
@given(johnson_shapes())
@example(uni(4, 9, 3, 6))
def test_memo_hits_are_the_lookups_after_the_first(params):
    """On an empty memo a complete call expands each state once, at its first
    lookup, so every other lookup of a child that is not a base case is a
    hit.  Lookups are counted from the states in the memo, one per step of
    each block that differs from the block before it."""
    bounds._REC_CACHE.clear()
    c = johnson_recursive(params).certificate
    memo = bounds._REC_CACHE.get(params.distance, {})
    assert c["truncated"] is False and c["states"] == len(memo)
    lookups = 0
    for blocks in memo:
        for i, block in enumerate(blocks):
            if i and block == blocks[i - 1]:
                continue
            rest = blocks[:i] + blocks[i + 1 :]
            for child_block, _, _, _ in _ref_steps(block):
                child = rest if child_block is None else tuple(sorted((*rest, child_block)))
                lookups += bool(child) and params.distance <= 2 * sum(w for w, _ in child)
    assert c["memo_hits"] == (lookups - len(memo) + 1 if memo else 0)


@st.composite
def equivalent_shapes(draw):
    """A shape on 1-4 blocks with n <= 9 and any weight (0, n, above n/2 or
    above n), and the same shape with some blocks complemented and the
    blocks permuted."""
    k = draw(st.integers(1, 4))
    lengths = [draw(st.integers(1, 9)) for _ in range(k)]
    weights = [draw(st.integers(0, n + 1)) for n in lengths]
    reach = sum(min(w, n - w) for w, n in zip(weights, lengths) if w <= n)
    d = draw(st.integers(0, 2 * reach + 3))
    flipped = [n - w if w <= n and draw(st.booleans()) else w
               for w, n in zip(weights, lengths)]
    order = draw(st.permutations(range(k)))
    return (CodeParameters(tuple(lengths), tuple(weights), d),
            CodeParameters(tuple(lengths[i] for i in order),
                           tuple(flipped[i] for i in order), d))


def _shape_error_or(fn, params):
    try:
        return fn(params)
    except ShapeError:
        return "shape error"


@settings(max_examples=150, deadline=None)
@given(equivalent_shapes())
@example((CodeParameters((6, 6, 6), (2, 2, 4), 6), uni(3, 6, 2, 6)))
@example((uni(2, 9, 3, 6), uni(2, 9, 6, 6)))
def test_complementing_and_permuting_blocks_keeps_every_bound(pair):
    p, q = pair
    assert p.canonical() == q.canonical()
    tp, tq = upper_bounds(p), upper_bounds(q)
    assert {k: r.value for k, r in tp.items()} == {k: r.value for k, r in tq.items()}
    bp, bq = best_of(tp), best_of(tq)
    assert (bp.value, bp.method) == (bq.value, bq.method)
    assert johnson_eq3(p).value == johnson_eq3(q).value
    if p.canonical().is_uniform:
        # a uniform bound reads the canonical form, so it applies to both
        for fn in (plotkin_bound, gv_lower_bound):
            assert _shape_error_or(fn, p) == _shape_error_or(fn, q) != "shape error"


class TestPlotkin:
    def test_m2_n5(self):
        r = plotkin_bound(uni(2, 5, 2, 6))
        assert r.value == 5 and r.certificate["b"] == Fraction(3, 5)

    def test_m3_n4(self):
        assert plotkin_bound(uni(3, 4, 2, 10)).value == 2

    def test_inapplicable(self):
        assert plotkin_bound(uni(2, 5, 2, 2)).value is None

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            plotkin_bound(CodeParameters((5, 7), (2, 2), 6))

    def test_equivalence_with_johnson_eq3(self):
        # the two closed forms are identical on uniform shapes
        for m in range(1, 6):
            for n in range(2, 9):
                for w in range(1, n):
                    for u in range(1, m * w + 1):
                        p = uni(m, n, w, 2 * u)
                        a, b = plotkin_bound(p), johnson_eq3(p)
                        assert (a.value is None) == (b.value is None)
                        if a.value is not None:
                            assert a.value == b.value, (m, n, w, u)


class TestPlotkinDiscrete:
    def test_no_cut_when_divisible(self):
        # n | M*w makes the correction vanish at the continuous value
        r = plotkin_discrete(uni(2, 5, 2, 6))
        assert r.value == plotkin_bound(uni(2, 5, 2, 6)).value == 5

    def test_strict_improvement_located_by_scan(self):
        # located by exhaustive scan over m,n,w,d <= 12
        p = uni(1, 8, 2, 6)
        assert plotkin_bound(p).value == 2
        assert plotkin_discrete(p).value == 1

    def test_never_exceeds_continuous(self):
        for m in range(1, 7):
            for n in range(2, 9):
                for w in range(1, n):
                    for u in range(1, m * w + 1):
                        p = uni(m, n, w, 2 * u)
                        c = plotkin_bound(p)
                        if c.value is not None:
                            assert plotkin_discrete(p).value <= c.value


class TestSpherical:
    def test_floor_branch(self):
        assert spherical_bound(uni(2, 5, 2, 6)).value == 5

    def test_single_codeword_branch(self):
        # b > u: maximum cosine below -1
        r = spherical_bound(uni(1, 4, 2, 8))
        assert r.value == 1 and r.certificate["case"] == "cosine < -1"

    def test_simplex_branch_located_by_scan(self):
        # located by exhaustive scan over m,n,w <= 10
        r = spherical_bound(uni(1, 8, 3, 4))
        assert r.certificate["case"] == "simplex"
        assert r.value == 1 * (8 - 1) + 1 == 8

    def test_inapplicable(self):
        assert spherical_bound(uni(2, 5, 2, 4)).value is None


class TestGv:
    def test_m2_n5(self):
        r = gv_lower_bound(uni(2, 5, 2, 6))
        assert r.value == 2
        assert r.certificate["ball_volume"] == 55
        assert r.certificate["numerator"] == 100

    def test_radius_zero_ball(self):
        r = gv_lower_bound(uni(2, 5, 2, 2))
        assert r.certificate["ball_volume"] == 1
        assert r.value == 100

    def test_reduces_to_cwc_case(self):
        assert gv_lower_bound(uni(1, 5, 2, 4)).value == 2  # ceil(10/7)


class TestBestUpper:
    def test_recursive_beats_eq3(self):
        r = best_upper_bound(CodeParameters((5, 7), (2, 2), 6))
        assert r.value == 7 and r.method == "johnson-recursive"

    def test_base_case_fires(self):
        assert best_upper_bound(CodeParameters((2, 2), (1, 1), 6)).value == 1

    def test_3_3_single_word(self):
        assert best_upper_bound(CodeParameters((3, 3), (2, 2), 6)).value == 1

    def test_table_order_and_gate(self):
        assert list(upper_bounds(uni(3, 8, 3, 6))) == [
            "johnson-recursive", "johnson-eq3", "plotkin-discrete", "spherical", "lp",
        ]
        assert "lp" not in upper_bounds(uni(10, 4, 2, 16))  # 66 LP variables
        assert "lp" not in upper_bounds(uni(13, 2, 1, 4))  # 14 variables, 8192 classes
        assert lp_applies(uni(3, 8, 3, 6)) and lp_applies(uni(3, 8, 5, 6))
        assert not lp_applies(uni(3, 8, 3, 5))  # odd distance
        assert not lp_applies(CodeParameters((5, 7), (2, 2), 6))
        assert list(upper_bounds(CodeParameters((5, 7), (2, 2), 6))) == [
            "johnson-recursive", "johnson-eq3",
        ]

    def test_table_is_computed_on_the_canonical_form(self):
        # weight 3 of 5 complements to 2, so lambda = 2 + 2 - 3 in the table
        assert upper_bounds(uni(2, 5, 3, 6))["johnson-eq3"].certificate["lambda"] == 1
        assert johnson_eq3(uni(2, 5, 3, 6)).certificate["lambda"] == 3
        mixed = upper_bounds(CodeParameters((6, 6, 6), (2, 2, 4), 6))
        assert list(mixed) == list(upper_bounds(uni(3, 6, 2, 6)))
        assert best_of(mixed).value == 110 and best_of(mixed).method == "lp"

    def test_best_is_first_strict_minimum(self):
        # every bound in the table reaches 5, so the first one wins
        table = upper_bounds(uni(2, 5, 2, 6))
        assert {r.value for r in table.values()} == {5}
        best = best_of(table)
        assert best.method == "johnson-recursive" and best.value == 5
        assert best.certificate["all"] == {k: 5 for k in table}
        assert best_upper_bound(uni(2, 5, 2, 6)) == best


class TestAsymptotics:
    def test_mu_c_limit_at_zero(self):
        # (1/2)*log2(2)*(1 - H2(0)) is exactly 1/2
        assert mu_c(0, Fraction(1, 2)) == Decimal("0.5")

    def test_mu_c_vanishes(self):
        assert abs(mu_c(Fraction(1, 2), Fraction(1, 2))) < 1e-12

    def test_mu_c_quarter(self):
        assert mu_c(Fraction(1, 4), Fraction(1, 2)) == Decimal("0.0943609377704335680451521039804")

    def test_mu_gv_quarter(self):
        assert mu_gv(Fraction(1, 4), Fraction(1, 2)) == Decimal("0.188721875540867136090304207961")

    def test_mu_gv_limit_at_zero(self):
        omega = Fraction(1, 3)
        assert abs(mu_gv(0, omega) - binary_entropy(omega)) < 1e-12

    def test_equality_on_the_locus(self):
        # mu_gv == mu_c == 0 exactly along delta = 2*omega*(1 - omega)
        for omega in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
            delta = 2 * omega * (1 - omega)
            assert mu_gv(delta, omega) == mu_c(delta, omega) == 0

    def test_f_zero_at_locus(self):
        for omega in (Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)):
            x = omega - omega * omega
            assert comparison_f(x, omega) == 0

    def test_f_limit_at_zero(self):
        value = comparison_f(0, Fraction(1, 4))
        with localcontext(Context(prec=60)):
            ref = -Decimal(3) / 4 * (Decimal(3) / 4).ln() / Decimal(2).ln()
        # 30 significant digits of a value near 0.3
        assert abs(value - ref) < Decimal("1e-30")
        assert value > 0

    def test_f_matches_rate_difference(self):
        for q in (2, 3, 4):
            omega = Fraction(1, q)
            # stay inside both domains: x <= omega and x/omega <= (q-1)/q
            limit = min(Fraction(1, 4), omega, Fraction(q - 1, q * q))
            for k in range(1, 17):
                x = Fraction(k, 64)
                if x > limit:
                    break
                delta = 2 * x
                diff = mu_gv(delta, omega) - mu_c(delta, omega)
                assert abs(diff - comparison_f(x, omega)) < 1e-9, (q, x)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mu_c(Fraction(1, 4), Fraction(2, 5))  # 1/omega not an integer
        with pytest.raises(DomainError):
            mu_c(Fraction(1, 2), Fraction(1, 4))  # delta/(2 omega) above (q-1)/q
        with pytest.raises(DomainError):
            mu_gv(Fraction(3, 4), Fraction(1, 3))  # delta above max(1/2, 2 omega)
        with pytest.raises(DomainError):
            comparison_f(Fraction(3, 4), Fraction(1, 2))  # x >= 1 - omega
        for dps in (0, -5):
            with pytest.raises(DomainError):
                asymptotic_point(Fraction(1, 4), Fraction(1, 2), dps)
        with pytest.raises(DomainError, match=r"^omega must lie in \(0, 1/2\]$"):
            asymptotic_point(Fraction(1, 4), 0)  # checked before 1/omega is formed

    @pytest.mark.parametrize("dps", [0, -3])
    @pytest.mark.parametrize("rate,args", [
        (binary_entropy, ("1/4",)),
        (mu_c, ("1/4", "1/2")),
        (mu_c, ("1/2", "1/2")),  # on the line where the rates vanish
        (mu_gv, ("1/4", "1/2")),
        (mu_gv, ("1/2", "1/2")),
        (comparison_f, ("1/8", "1/2")),
        (comparison_f, ("1/4", "1/2")),
    ])
    def test_dps_below_one_is_a_domain_error(self, rate, args, dps):
        with pytest.raises(DomainError, match=rf"^dps must be a positive number of digits, got {dps}$"):
            rate(*args, dps=dps)

    @pytest.mark.parametrize("bad", ["abc", "1/0", float("nan"), float("inf")])
    def test_malformed_rationals_are_domain_errors(self, bad):
        calls = [(binary_entropy, (bad,)), (mu_c, (bad, "1/2")), (mu_gv, ("1/4", bad)),
                 (comparison_f, (bad, "1/2")), (asymptotic_point, ("1/4", bad))]
        for rate, args in calls:
            with pytest.raises(DomainError, match=r"^expected a rational value, got "):
                rate(*args)

    def test_asymptotic_point(self):
        point = asymptotic_point(Fraction(1, 4), Fraction(1, 2))
        assert point.mu_c is not None
        assert abs(point.mu_gv - point.mu_c - point.f) < 1e-12
        assert asymptotic_point(Fraction(1, 4), Fraction(2, 5)).mu_c is None

    def test_printed_digits_match_a_60_digit_evaluation(self):
        def reference(delta, omega):
            with localcontext(Context(prec=60)):
                w = Decimal(omega.numerator) / omega.denominator
                x = Decimal(delta.numerator) / delta.denominator / 2

                def log(t, base):
                    return t.ln() / Decimal(base).ln()

                def h2(p):
                    return -sum(t * log(t, 2) for t in (p, 1 - p) if t)

                gv = h2(w) - w * h2(x / w) - (1 - w) * h2(x / (1 - w))
                f = -(2 - 2 * w - x) * log(1 - w, 2) + (1 - w - x) * log(1 - w - x, 2)
                if x:
                    f += x * log(x / w, 2)
                c = None
                if omega.numerator == 1:
                    q, y = omega.denominator, x / w
                    hq = -sum(t * log(t, q) for t in (y, 1 - y) if t) + y * log(Decimal(q - 1), q)
                    c = w * log(Decimal(q), 2) * (1 - hq)
                return {"mu_c": c, "mu_gv": gv, "f": f}

        checked = 0
        for omega in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)):
            for delta in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
                ref = reference(delta, omega)
                for dps in (5, 15, 30):
                    point = asymptotic_point(delta, omega, dps)
                    for name, want in ref.items():
                        got = getattr(point, name)
                        if got is None:
                            continue
                        # a true zero (every rate on the locus) has no correct
                        # digits to compare and is returned as an exact 0
                        if abs(want) < Decimal("1e-40"):
                            assert got == 0, (name, delta, omega, dps)
                            continue
                        # the reference rounded once, half up, to dps digits;
                        # equal values of at most dps digits print the same
                        rounded = Context(prec=dps, rounding=ROUND_HALF_UP).plus(want)
                        assert got == rounded and len(got.as_tuple().digits) <= dps, (
                            name, delta, omega, dps)
                        checked += 1
        assert checked > 100
