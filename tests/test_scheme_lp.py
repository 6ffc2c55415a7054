import itertools
import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from mcwc import lp as lp_module
from mcwc.core import CodeParameters, DomainError, ShapeError, SizeError
from mcwc.scheme import build_scheme_tables, eberlein
from mcwc.lp import (
    RationalLinearProgram,
    delsarte_lp,
    format_lp,
    lp_bound,
    solve_lp,
)
from mcwc.oracle import max_mcwc


class TestEberlein:
    def test_degree_zero(self):
        for u in range(3):
            assert eberlein(2, 5, 0, u) == 1

    def test_j25_values(self):
        assert eberlein(2, 5, 1, 1) == 1
        assert eberlein(2, 5, 2, 0) == 3

    def test_valency_formula(self):
        for w, n in [(2, 5), (3, 8), (4, 10)]:
            for k in range(w + 1):
                assert eberlein(w, n, k, 0) == comb(w, k) * comb(n - w, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            eberlein(2, 5, 3, 0)
        with pytest.raises(DomainError):
            eberlein(2, 5, 0, -1)

    @pytest.mark.parametrize("make,message", [
        (lambda: eberlein(3, 2, 0, 0), "w must not exceed n"),
        (lambda: build_scheme_tables(0, 4), "w must be at least 1"),
    ], ids=["eberlein", "tables"])
    def test_weight_domain_messages(self, make, message):
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == message


class TestSchemeTables:
    def test_j25(self):
        t = build_scheme_tables(2, 5)
        assert t.multiplicities == (1, 4, 5)
        assert t.valencies == (1, 6, 3)
        assert sum(t.multiplicities) == sum(t.valencies) == 10

    def test_q_first_row_is_multiplicities(self):
        for w, n in [(1, 4), (2, 5), (3, 7)]:
            t = build_scheme_tables(w, n)
            assert t.Q[0] == tuple(Fraction(mu) for mu in t.multiplicities)

    def test_rejects_large_weight(self):
        with pytest.raises(DomainError):
            build_scheme_tables(3, 5)

    @pytest.mark.parametrize(
        "w,n", [(w, n) for n in range(2, 13) for w in range(1, n // 2 + 1)]
    )
    def test_algebraic_invariants(self, w, n):
        t = build_scheme_tables(w, n)
        size = comb(n, w)
        assert sum(t.valencies) == size
        assert sum(t.multiplicities) == size
        # P rows: valencies on top, zero-sum below
        assert t.P[0] == t.valencies
        for i in range(1, w + 1):
            assert sum(t.P[i]) == 0
        # P . Q = size * identity, exactly
        for i in range(w + 1):
            for j in range(w + 1):
                s = sum(t.P[i][k] * t.Q[k][j] for k in range(w + 1))
                assert s == (size if i == j else 0)
        # orthogonality of the eigenvalue rows
        for i in range(w + 1):
            for j in range(w + 1):
                s = sum(
                    Fraction(t.eberlein[k][i] * t.eberlein[k][j], t.valencies[k])
                    for k in range(w + 1)
                )
                expected = Fraction(size, t.multiplicities[i]) if i == j else 0
                assert s == expected


class TestSimplex:
    def test_single_bound(self):
        lp = RationalLinearProgram(1, (Fraction(1),))
        lp.add([1], "<=", Fraction(3, 2))
        sol = solve_lp(lp)
        assert sol.status == "optimal" and sol.value == Fraction(3, 2)

    def test_unbounded(self):
        lp = RationalLinearProgram(1, (Fraction(1),))
        assert solve_lp(lp).status == "unbounded"

    def test_rows_must_hold_at_the_origin(self):
        lp = RationalLinearProgram(1, (Fraction(1),))
        with pytest.raises(DomainError, match="x = 0 violates"):
            lp.add([1], "<=", Fraction(-1, 2))
        with pytest.raises(DomainError, match="x = 0 violates"):
            lp.add([1], ">=", 2)
        with pytest.raises(DomainError, match="unknown relation"):
            lp.add([1], "=", 0)
        assert lp.constraints == []
        lp.add([1], "<=", 0)
        lp.add([1], ">=", 0)
        assert solve_lp(lp).value == 0

    def test_rejected_row_leaves_the_program_unchanged(self):
        lp = RationalLinearProgram(2, (Fraction(1), Fraction(1)))
        lp.add([Fraction(1, 2), 1], "<=", 3)
        before = (list(lp.rows), list(lp.scales), list(lp.relations), lp.constraints)
        rejected = [([1], "<=", 1), ([1, 1], "=", 0), ([1, 1], "<=", Fraction(-1, 3)),
                    ([1, 1], ">=", 1), ([1, "one"], "<=", 1)]
        for row in rejected:
            with pytest.raises((DomainError, ValueError)):
                lp.add(*row)
            assert (lp.rows, lp.scales, lp.relations, lp.constraints) == before, row

    def test_constraints_are_not_a_constructor_argument(self):
        # constraints enter through add only; the Fraction list is a view
        with pytest.raises(TypeError):
            RationalLinearProgram(1, (Fraction(1),), [])
        with pytest.raises(TypeError):
            RationalLinearProgram(1, (Fraction(1),), constraints=[])

    def test_two_variable_vertex(self):
        lp = RationalLinearProgram(2, (Fraction(3), Fraction(5)))
        lp.add([1, 0], "<=", 4)
        lp.add([0, 2], "<=", 12)
        lp.add([3, 2], "<=", 18)
        sol = solve_lp(lp)
        assert sol.value == 36 and sol.x == (Fraction(2), Fraction(6))

    def test_negative_rhs_geq(self):
        lp = RationalLinearProgram(1, (Fraction(1),))
        lp.add([-2], ">=", -3)
        assert solve_lp(lp).value == Fraction(3, 2)

    def test_degenerate_cycling_guard(self):
        # classic Beale-style degeneracy; Bland's rule must terminate
        lp = RationalLinearProgram(
            4, (Fraction(3, 4), -150, Fraction(1, 50), -6)
        )
        lp.add([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0)
        lp.add([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0)
        lp.add([0, 0, 1, 0], "<=", 1)
        sol = solve_lp(lp)
        assert sol.status == "optimal" and sol.value == Fraction(1, 20)

    def test_row_permutation_invariance(self):
        rng = random.Random(7)
        base = RationalLinearProgram(3, (Fraction(2), Fraction(1), Fraction(1)))
        rows = [
            ([1, 1, 0], "<=", 5),
            ([0, 1, 2], "<=", 7),
            ([2, 0, 1], "<=", 9),
            ([-1, -1, -1], ">=", -6),
        ]
        for row in rows:
            base.add(*row)
        reference = solve_lp(base).value
        for _ in range(5):
            rng.shuffle(rows)
            lp = RationalLinearProgram(3, (Fraction(2), Fraction(1), Fraction(1)))
            for row in rows:
                lp.add(*row)
            assert solve_lp(lp).value == reference

    def test_format(self):
        lp = RationalLinearProgram(2, (Fraction(1), Fraction(1, 2)))
        lp.add([1, -1], ">=", Fraction(-3, 2))
        text = format_lp(lp)
        assert text.splitlines() == ["max 1 1/2", "1 -1 >= -3/2"]


def full_delsarte_lp(m, n, w, d):
    """Reference Delsarte LP without the block-permutation quotient: one
    variable per admissible class tuple and one row per frequency tuple."""
    w = min(w, n - w)
    tables = build_scheme_tables(w, n)
    labels = [t for t in itertools.product(range(w + 1), repeat=m)
              if sum(t) >= d // 2 and any(t)]
    lp = RationalLinearProgram(len(labels), (Fraction(1),) * len(labels))
    for ks in itertools.product(range(w + 1), repeat=m):
        coeffs = [prod((tables.Q[i][k] for i, k in zip(t, ks)), start=Fraction(1))
                  for t in labels]
        lp.add(coeffs, ">=", -prod(tables.multiplicities[k] for k in ks))
    return lp


class TestLpBound:
    def test_a_5_4_2(self):
        r = lp_bound(CodeParameters.uniform(1, 5, 2, 4))
        assert r.value == 2
        assert r.certificate["optimum"] == Fraction(3, 2)

    def test_distance_two_full_space(self):
        for n, w in [(4, 2), (5, 2), (6, 3)]:
            r = lp_bound(CodeParameters.uniform(1, n, w, 2))
            assert r.value == comb(n, w)

    def test_two_blocks_three_points(self):
        assert lp_bound(CodeParameters.uniform(2, 3, 2, 6)).value == 1

    def test_size_cap(self):
        with pytest.raises(SizeError):
            lp_bound(CodeParameters.uniform(13, 2, 1, 4))

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            lp_bound(CodeParameters((3, 5), (2, 2), 6))

    def test_odd_distance_inapplicable(self):
        assert lp_bound(CodeParameters.uniform(1, 5, 2, 3)).value is None

    def test_symmetrized_matches_full(self):
        shapes = [(1, 5, 2, 4), (2, 3, 2, 6), (2, 5, 2, 6), (2, 4, 2, 4),
                  (3, 4, 2, 6), (2, 6, 2, 8), (3, 3, 1, 4), (4, 2, 1, 4)]
        for m, n, w, d in shapes:
            p = CodeParameters.uniform(m, n, w, d)
            full = solve_lp(full_delsarte_lp(m, n, w, d))
            result = lp_bound(p)
            assert result.certificate["optimum"] == full.value, (m, n, w, d)
            assert result.value == max(1, min(1 + int(full.value), comb(n, w) ** m))

    def test_relaxation_dominates_oracle(self):
        # the LP is a valid relaxation: never below the true optimum
        for n in range(2, 9):
            for w in range(1, n):
                for u in range(1, min(w, n - w) + 1):
                    p = CodeParameters.uniform(1, n, w, 2 * u)
                    value = lp_bound(p).value
                    exact = max_mcwc(p).size
                    assert exact <= value <= comb(n, w), (n, w, u)


def fraction_simplex(lp):
    """Reference solver: the same Bland's-rule simplex from the slack basis on
    a full Fraction tableau.  Returns (status, value, x, [(row, column), ...])."""
    n = lp.num_vars
    m = len(lp.constraints)
    width = n + m
    rows = []
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        if rel == ">=":
            coeffs, rhs = [-c for c in coeffs], -rhs
        row = list(coeffs) + [Fraction(0)] * m + [rhs]
        row[n + i] = Fraction(1)
        rows.append(row)
    basis = list(range(n, width))
    cost = [Fraction(c) for c in lp.objective] + [Fraction(0)] * m
    pivots = []
    while True:
        reduced = list(cost)
        for i in range(m):
            for j in range(width):
                reduced[j] -= cost[basis[i]] * rows[i][j]
        enter = next((j for j in range(width) if reduced[j] > 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            return "unbounded", None, None, pivots
        pivots.append((leave, enter))
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[leave])]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][-1]
    return "optimal", sum(c * v for c, v in zip(lp.objective, x)), tuple(x), pivots


def integer_simplex(lp):
    """solve_lp with its pivots recorded as (row, entering variable)."""
    pivots = []
    inner = lp_module._pivot

    def recorded(rows, basis, nonbasic, r, j, det):
        pivots.append((r, nonbasic[j]))
        return inner(rows, basis, nonbasic, r, j, det)

    lp_module._pivot = recorded
    try:
        sol = solve_lp(lp)
    finally:
        lp_module._pivot = inner
    assert sol.pivots == len(pivots)
    return sol.status, sol.value, sol.x, pivots


def tuple_delsarte_lp(m, n, w, d):
    """Reference symmetrized Delsarte LP built by walking all (w+1)^m class
    tuples per row and summing Fraction products of Q entries."""
    w = min(w, n - w)
    admissible = [t for t in itertools.product(range(w + 1), repeat=m)
                  if sum(t) >= d // 2 and any(t)]
    if not admissible or w < 1:
        return RationalLinearProgram(0, ()), []
    tables = build_scheme_tables(w, n)
    labels = sorted({tuple(sorted(t)) for t in admissible})
    index = {lab: j for j, lab in enumerate(labels)}
    objective = [Fraction(0)] * len(labels)
    for t in admissible:
        objective[index[tuple(sorted(t))]] += 1
    lp = RationalLinearProgram(len(labels), tuple(objective))
    for ks in itertools.combinations_with_replacement(range(w + 1), m):
        coeffs = [Fraction(0)] * len(labels)
        for t in admissible:
            coeffs[index[tuple(sorted(t))]] += prod(
                (tables.Q[i][k] for i, k in zip(t, ks)), start=Fraction(1))
        lp.add(coeffs, ">=", -prod(tables.multiplicities[k] for k in ks))
    return lp, labels


def reference_shapes():
    """The bound workload's uniform grid, (3,8,3,6), and every criterion-4
    shape with two or more blocks."""
    grid = [(m, n, w, d) for m in range(2, 7) for n in range(3, 10)
            for w in range(1, n // 2 + 1) for d in (4, 6, 8)
            if d <= 2 * m * w and comb(m + w, w) <= 10]
    sweep = [(m, n, w, 2 * u) for m in range(2, 12) for n in range(2, 301)
             for w in range(1, n) if comb(n, w) ** m <= 300
             for u in range(1, m * min(w, n - w) + 2)]
    return sorted(set(grid + sweep + [(3, 8, 3, 6)]))


class TestIntegerLp:
    def test_matches_fraction_references(self):
        shapes = reference_shapes()
        solved = 0
        for shape in shapes:
            lp, labels = delsarte_lp(CodeParameters.uniform(*shape))
            ref_lp, ref_labels = tuple_delsarte_lp(*shape)
            assert labels == ref_labels, shape
            assert format_lp(lp) == format_lp(ref_lp), shape
            if labels:
                assert integer_simplex(lp) == fraction_simplex(ref_lp), shape
                solved += 1
        assert (len(shapes), solved) == (325, 268)

    @pytest.mark.parametrize("shape,pivots,det_bits",
                             [((3, 8, 3, 6), 23, 216), ((4, 8, 3, 8), 49, 459)])
    def test_certificate_counters(self, shape, pivots, det_bits):
        # pivot counts recorded with the Fraction solver
        cert = lp_bound(CodeParameters.uniform(*shape)).certificate
        assert (cert["pivots"], cert["det_bits"]) == (pivots, det_bits)

    @pytest.mark.parametrize("shape,pivots,det_bits",
                             [((3, 8, 3, 6), 23, 216), ((4, 8, 3, 8), 49, 459)])
    def test_solving_leaves_the_program_unchanged(self, shape, pivots, det_bits):
        lp, _labels = delsarte_lp(CodeParameters.uniform(*shape))
        sol = solve_twice(lp)
        assert (sol.pivots, sol.det_bits) == (pivots, det_bits)

    @pytest.mark.parametrize("shape", [(2, 5, 2, 6), (3, 4, 2, 8), (6, 3, 1, 4),
                                       (2, 9, 3, 6), (3, 8, 3, 6)])
    def test_what_a_traced_run_reads(self, shape):
        # the tracer sums num_vars and len(constraints) of each delsarte_lp
        m, n, w, _d = shape
        lp, labels = delsarte_lp(CodeParameters.uniform(*shape))
        assert lp.num_vars == len(labels)
        assert len(lp.constraints) == comb(m + w, w)


def _fractions():
    return st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def origin_feasible_rows(draw):
    """(num_vars, objective, [(coeffs, relation, rhs), ...]) that hold at x = 0."""
    n = draw(st.integers(1, 4))
    objective = tuple(draw(st.lists(_fractions(), min_size=n, max_size=n)))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(_fractions(), min_size=n, max_size=n))
        relation = draw(st.sampled_from(["<=", ">="]))
        # rhs 0 rows are degenerate at the slack basis
        size = draw(st.one_of(st.just(Fraction(0)), st.fractions(0, 8, max_denominator=6)))
        rows.append((coeffs, relation, size if relation == "<=" else -size))
    return n, objective, rows


def program(n, objective, rows):
    lp = RationalLinearProgram(n, objective)
    for row in rows:
        lp.add(*row)
    return lp


def origin_feasible_lps():
    return origin_feasible_rows().map(lambda drawn: program(*drawn))


def solve_twice(lp):
    """solve_lp twice: equal solutions and the program left as it was."""
    text = format_lp(lp)
    sol = solve_lp(lp)
    assert solve_lp(lp) == sol
    assert format_lp(lp) == text
    return sol


@settings(max_examples=200, deadline=None)
@given(origin_feasible_lps())
def test_integer_simplex_follows_the_fraction_simplex(lp):
    assert integer_simplex(lp) == fraction_simplex(lp)


@settings(max_examples=100, deadline=None)
@given(origin_feasible_lps())
def test_solving_leaves_the_program_unchanged(lp):
    solve_twice(lp)


@settings(max_examples=100, deadline=None)
@given(origin_feasible_rows())
def test_constraints_view_returns_the_rows_as_added(drawn):
    _n, _objective, rows = drawn
    given_rows = [(tuple(coeffs), rel, rhs) for coeffs, rel, rhs in rows]
    assert program(*drawn).constraints == given_rows
