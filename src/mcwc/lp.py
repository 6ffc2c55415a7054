"""Exact rational linear programming and the product-scheme size bound.

The solver is a single-phase primal simplex with Bland's anti-cycling rule,
pivoted fraction-free in integers over one common denominator (Edmonds 1967,
Bareiss 1968), so it terminates and its optimum is exact.  It starts from
the slack basis, so every constraint must hold at x = 0; the Delsarte rows
(right-hand side -prod(multiplicities) <= -1) all do.

A program has one stored form: each constraint is kept as the integer row
the solver pivots on, its ``<=`` form times the positive lcm of its
denominators, with that scale.  The constraints in ``Fraction`` are a view
derived from those rows.  The Delsarte LP is built from orbit counts straight
into integer rows.  No floating point is involved anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from typing import Literal, Optional, Sequence

from .bounds import LP_CLASS_CAP, BoundResult, _require_uniform
from .core import CodeParameters, DomainError, SizeError
from .scheme import build_scheme_tables

Relation = Literal["<=", ">="]


@dataclass
class RationalLinearProgram:
    """maximize objective . x subject to the added constraints and x >= 0.

    Every constraint must hold at x = 0: a ``<=`` row needs rhs >= 0 and a
    ``>=`` row rhs <= 0.

    Constraint i is stored once, in integers: ``rows[i]`` holds the
    coefficients and then the right-hand side of its ``<=`` form (a ``>=``
    row negated), times ``scales[i] > 0``, the lcm of that form's
    denominators; ``relations[i]`` is the relation it was given with.
    ``constraints`` is the ``Fraction`` view of the same rows.
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    rows: list[tuple[int, ...]] = field(default_factory=list, init=False)
    scales: list[int] = field(default_factory=list, init=False)
    relations: list[Relation] = field(default_factory=list, init=False)

    def add(self, coeffs: Sequence, relation: Relation, rhs) -> None:
        if len(coeffs) != self.num_vars:
            raise DomainError("constraint width does not match num_vars")
        if relation not in ("<=", ">="):
            raise DomainError(f"unknown relation {relation!r}")
        rhs = Fraction(rhs)
        if (rhs < 0) if relation == "<=" else (rhs > 0):
            raise DomainError(f"x = 0 violates the constraint {relation} {rhs}")
        values = [*map(Fraction, coeffs), rhs]
        if relation == ">=":
            values = [-v for v in values]
        self._append(*_integer_row(values), relation)

    def _append(self, row: Sequence[int], scale: int, relation: Relation) -> None:
        self.rows.append(tuple(row))
        self.scales.append(scale)
        self.relations.append(relation)

    @property
    def constraints(self) -> list[tuple[tuple[Fraction, ...], Relation, Fraction]]:
        """Each constraint as ``(coeffs, relation, rhs)`` in ``Fraction``,
        derived from its integer row."""
        out = []
        for row, scale, rel in zip(self.rows, self.scales, self.relations):
            den = scale if rel == "<=" else -scale
            *coeffs, rhs = (Fraction(a, den) for a in row)
            out.append((tuple(coeffs), rel, rhs))
        return out


@dataclass(frozen=True)
class LpSolution:
    """``pivots`` counts simplex pivots; ``det_bits`` is the bit length of the
    final basis determinant, the common denominator of the last tableau."""

    status: Literal["optimal", "unbounded"]
    value: Optional[Fraction] = None
    x: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0
    det_bits: int = 1


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row times the positive lcm of its denominators, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(
    rows: list[list[int]], basis: list[int], nonbasic: list[int], r: int, j: int, det: int
) -> int:
    """Exchange basic variable ``basis[r]`` for nonbasic variable ``nonbasic[j]``,
    fraction free: ``det`` is the common denominator of the integer tableau,
    and the pivot becomes the new one, which it returns.  Every entry is a
    minor of the initial tableau, so each division is exact (Bareiss)."""
    prow = rows[r]
    p = prow[j]
    for i, row in enumerate(rows):
        if i != r:
            f = row[j]
            if f:
                new = [(p * a - f * b) // det for a, b in zip(row, prow)]
            else:
                new = [p * a // det for a in row]
            # the leaving variable's column: det at row r, -f elsewhere
            new[j] = -f
            rows[i] = new
    prow[j] = det
    basis[r], nonbasic[j] = nonbasic[j], basis[r]
    return p


def solve_lp(lp: RationalLinearProgram) -> LpSolution:
    """Exact optimum of the program, or an unbounded verdict.

    A single-phase simplex with Bland's rule from the slack basis: every
    constraint holds at x = 0 (``RationalLinearProgram.add`` checks it), so
    row i is the stored ``<=`` row of constraint i with slack variable n + i
    basic.  The program is not changed: the tableau starts from copies.

    The pivoting is fraction-free in integers (Edmonds 1967, Bareiss 1968):
    the true tableau is the integer one over a common denominator D, the
    basis determinant.  Each row starts as stored, scaled by the lcm of its
    denominators with its slack coefficient kept at 1 (a rescaled slack), and
    the objective by the lcm of its own.  Neither scaling changes the sign of a
    reduced cost or the order of the ratios in a column, so the entering
    variable, the leaving row and every tie-break are those of the same
    simplex run on fractions.  The tableau keeps only the nonbasic columns and
    the right-hand side; its last row holds D times the scaled reduced costs
    and, last, -D times the scaled objective value.
    """
    n = lp.num_vars
    m = len(lp.rows)
    rows = [list(row) for row in lp.rows]
    objective, obj_scale = _integer_row(lp.objective)
    rows.append(objective + [0])
    basis = list(range(n, n + m))
    nonbasic = list(range(n))  # the variable of each tableau column
    det = 1
    pivots = 0

    while True:
        reduced = rows[m]
        enter = min((v for v, z in zip(nonbasic, reduced) if z > 0), default=-1)
        if enter < 0:
            break
        j = nonbasic.index(enter)
        leave = -1
        for i in range(m):
            a = rows[i][j]
            if a > 0:
                if leave >= 0:
                    # rows[i][-1] / a against the best ratio, cross-multiplied
                    mine, best = rows[i][-1] * rows[leave][j], rows[leave][-1] * a
                    if mine > best or (mine == best and basis[i] > basis[leave]):
                        continue
                leave = i
        if leave < 0:
            return LpSolution("unbounded", pivots=pivots, det_bits=det.bit_length())
        det = _pivot(rows, basis, nonbasic, leave, j, det)
        pivots += 1

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(rows[i][-1], det)
    value = Fraction(-rows[m][-1], obj_scale * det)
    return LpSolution("optimal", value, tuple(x), pivots, det.bit_length())


def format_lp(lp: RationalLinearProgram) -> str:
    """Plain-text rendering: 'max c1 c2 ...' then one constraint per line."""
    out = [" ".join(["max", *map(str, lp.objective)])]
    for coeffs, rel, rhs in lp.constraints:
        out.append(" ".join(str(c) for c in coeffs) + f" {rel} {rhs}")
    return "\n".join(out) + "\n"


def delsarte_lp(params: CodeParameters):
    """Build the product-scheme LP instance for parameters whose canonical
    form is uniform; the LP is built on that form, where w <= n/2.

    Returns (lp, labels) where labels[j] is the class tuple of variable j.
    Classes whose index sum is below half the distance are fixed to zero and
    omitted; the all-zero class is the usual normalization, folded into the
    right-hand sides.

    The LP is quotiented by the block-permutation action: the feasible set
    and objective are invariant under simultaneously permuting class and
    constraint tuples, so restricting to symmetric points (one variable per
    sorted class multiset, one constraint per sorted frequency multiset)
    leaves the optimum unchanged.

    It is built from orbit counts, never from the (w+1)^m class tuples: a
    label's objective entry is its orbit size m!/prod(c_t!), where c_t counts
    class t in the label.  Row ks sums prod_i Q[t_i][k_i] over the orbit, that
    is M/V times the coefficient S of prod_t x_t^c_t in
    prod_i (sum_t E_t(k_i) x_t), with M = prod_i mult[k_i] and
    V = prod_t valency[t]^c_t, all integers.  The row is stored in its
    ``<=`` form, -M*S/V <= M, each entry reduced by a gcd and the row scaled
    by the lcm of the reduced denominators, with no ``Fraction`` made.
    """
    m, n, w = _require_uniform(params, "the LP bound")
    if params.distance % 2 != 0:
        raise DomainError("the LP bound requires an even distance")
    u = params.distance // 2
    if w > n:  # no word exists
        return RationalLinearProgram(0, ()), []
    if (w + 1) ** m > LP_CLASS_CAP:
        raise SizeError(
            f"LP would need {(w + 1) ** m} classes, above the cap of {LP_CLASS_CAP}"
        )
    labels = [
        t
        for t in itertools.combinations_with_replacement(range(w + 1), m)
        if sum(t) >= u and any(t)
    ]
    if not labels:
        return RationalLinearProgram(0, ()), []
    tables = build_scheme_tables(w, n)
    E = tables.eberlein
    mult = tables.multiplicities
    val = tables.valencies

    # a count vector c is keyed by sum_t c_t (m+1)^t
    place = [(m + 1) ** t for t in range(w + 1)]
    counts = [[lab.count(t) for t in range(w + 1)] for lab in labels]
    keys = [sum(c * p for c, p in zip(cnt, place)) for cnt in counts]
    objective = [
        Fraction(factorial(m) // prod(factorial(c) for c in cnt)) for cnt in counts
    ]
    orbit_den = [prod(v**c for v, c in zip(val, cnt)) for cnt in counts]
    lp = RationalLinearProgram(len(labels), tuple(objective))
    # the nonzero terms (key, E_t(k)) of sum_t E_t(k) x_t, per k
    factors = [[(p, E[t][k]) for t, p in enumerate(place) if E[t][k]] for k in range(w + 1)]
    for ks in itertools.combinations_with_replacement(range(w + 1), m):
        # coefficients of prod_i (sum_t E_t(k_i) x_t)
        poly = {0: 1}
        for k in ks:
            nxt: dict[int, int] = {}
            for key, s in poly.items():
                for p, e in factors[k]:
                    nxt[key + p] = nxt.get(key + p, 0) + s * e
            poly = nxt
        big_m = prod(mult[k] for k in ks)
        nums = [-big_m * poly.get(key, 0) for key in keys]
        scale = lcm(*(den // gcd(a, den) for a, den in zip(nums, orbit_den)))
        row = [a * scale // den for a, den in zip(nums, orbit_den)]
        row.append(big_m * scale)
        lp._append(row, scale, ">=")
    return lp, labels


def lp_bound(params: CodeParameters) -> BoundResult:
    """Delsarte-style bound 1 + floor(max sum of the distance distribution)
    over the product of m Johnson schemes, solved exactly."""
    method = "lp"
    if params.distance % 2 != 0:
        return BoundResult(method, None, {"reason": "odd distance"})
    lp, labels = delsarte_lp(params)
    trivial = prod(map(comb, params.block_lengths, params.block_weights))
    if not trivial:
        return BoundResult(method, 0, {"reason": "no word", "lp": lp})
    if not labels:
        return BoundResult(method, 1, {"optimum": Fraction(0), "classes": (), "lp": lp})
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise AssertionError(f"distance-distribution LP came back {sol.status}")
    value = 1 + int(sol.value)
    value = max(1, min(value, trivial))
    return BoundResult(
        method,
        value,
        {
            "optimum": sol.value,
            "solution": sol.x,
            "classes": tuple(labels),
            "lp": lp,
            "pivots": sol.pivots,
            "det_bits": sol.det_bits,
        },
    )
