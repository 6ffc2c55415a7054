"""Exact rational linear programming and the product-scheme size bound.

The solver is a single-phase primal simplex over :class:`fractions.Fraction`
with Bland's anti-cycling rule, so it terminates and its optimum is exact.
It starts from the slack basis, so every constraint must hold at x = 0; the
Delsarte rows (right-hand side -prod(multiplicities) <= -1) all do.
No floating point is involved anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Literal, Optional, Sequence

from .bounds import LP_CLASS_CAP, BoundResult
from .core import CodeParameters, DomainError, ShapeError, SizeError
from .scheme import build_scheme_tables

Relation = Literal["<=", ">="]


@dataclass
class RationalLinearProgram:
    """maximize objective . x subject to the listed constraints and x >= 0.

    Every constraint must hold at x = 0: a ``<=`` row needs rhs >= 0 and a
    ``>=`` row rhs <= 0.
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: list[tuple[tuple[Fraction, ...], Relation, Fraction]] = field(
        default_factory=list
    )

    def add(self, coeffs: Sequence, relation: Relation, rhs) -> None:
        if len(coeffs) != self.num_vars:
            raise DomainError("constraint width does not match num_vars")
        if relation not in ("<=", ">="):
            raise DomainError(f"unknown relation {relation!r}")
        rhs = Fraction(rhs)
        if (rhs < 0) if relation == "<=" else (rhs > 0):
            raise DomainError(f"x = 0 violates the constraint {relation} {rhs}")
        self.constraints.append((tuple(Fraction(c) for c in coeffs), relation, rhs))


@dataclass(frozen=True)
class LpSolution:
    status: Literal["optimal", "unbounded"]
    value: Optional[Fraction] = None
    x: Optional[tuple[Fraction, ...]] = None


def _pivot(rows: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            factor = row[c]
            rows[i] = [v - factor * p for v, p in zip(row, rows[r])]
    basis[r] = c


def solve_lp(lp: RationalLinearProgram) -> LpSolution:
    """Exact optimum of the program, or an unbounded verdict.

    A single-phase simplex with Bland's rule from the slack basis: every
    constraint holds at x = 0 (``RationalLinearProgram.add`` checks it), so
    row i is the ``<=`` form of constraint i with slack column n + i basic.
    """
    n = lp.num_vars
    m = len(lp.constraints)
    width = n + m  # the right-hand side sits after the last slack column
    rows: list[list[Fraction]] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        if rel == ">=":
            coeffs, rhs = [-c for c in coeffs], -rhs
        row = list(coeffs) + [Fraction(0)] * m + [rhs]
        row[n + i] = Fraction(1)
        rows.append(row)
    basis = list(range(n, width))
    cost = [Fraction(c) for c in lp.objective] + [Fraction(0)] * m

    while True:
        # reduced costs z_j = cost_j - cost_B . column_j
        reduced = list(cost)
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                row = rows[i]
                for j in range(width):
                    if row[j] != 0:
                        reduced[j] -= cb * row[j]
        enter = -1
        for j in range(width):
            if reduced[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio: Optional[Fraction] = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return LpSolution("unbounded")
        _pivot(rows, basis, leave, enter)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][-1]
    value = sum(c * v for c, v in zip(lp.objective, x))
    return LpSolution("optimal", value, tuple(x))


def format_lp(lp: RationalLinearProgram) -> str:
    """Plain-text rendering: 'max c1 c2 ...' then one constraint per line."""
    out = ["max " + " ".join(str(c) for c in lp.objective)]
    for coeffs, rel, rhs in lp.constraints:
        out.append(" ".join(str(c) for c in coeffs) + f" {rel} {rhs}")
    return "\n".join(out) + "\n"


def delsarte_lp(params: CodeParameters):
    """Build the product-scheme LP instance for uniform parameters.

    Returns (lp, labels) where labels[j] is the class tuple of variable j.
    Classes whose index sum is below half the distance are fixed to zero and
    omitted; the all-zero class is the usual normalization, folded into the
    right-hand sides.

    The LP is quotiented by the block-permutation action: the feasible set
    and objective are invariant under simultaneously permuting class and
    constraint tuples, so restricting to symmetric points (one variable per
    sorted class multiset, one constraint per sorted frequency multiset)
    leaves the optimum unchanged while shrinking the tableau from (w+1)^m to
    a multiset count per side.
    """
    if not params.is_uniform:
        raise ShapeError("the LP bound requires uniform parameters")
    if params.distance % 2 != 0:
        raise DomainError("the LP bound requires an even distance")
    m = params.m
    n = params.block_lengths[0]
    w = min(params.block_weights[0], n - params.block_weights[0])
    u = params.distance // 2
    if (w + 1) ** m > LP_CLASS_CAP:
        raise SizeError(
            f"LP would need {(w + 1) ** m} classes, above the cap of {LP_CLASS_CAP}"
        )
    admissible = [
        t
        for t in itertools.product(range(w + 1), repeat=m)
        if sum(t) >= u and any(t)
    ]
    if not admissible or w < 1:
        lp = RationalLinearProgram(0, ())
        return lp, []
    tables = build_scheme_tables(w, n)
    Q = tables.Q
    mult = tables.multiplicities

    labels = sorted({tuple(sorted(t)) for t in admissible})
    index = {lab: j for j, lab in enumerate(labels)}
    objective = [Fraction(0)] * len(labels)
    for t in admissible:
        objective[index[tuple(sorted(t))]] += 1
    lp = RationalLinearProgram(len(labels), tuple(objective))
    for ks in itertools.combinations_with_replacement(range(w + 1), m):
        coeffs = [Fraction(0)] * len(labels)
        for t in admissible:
            c = Fraction(1)
            for i, k in zip(t, ks):
                c *= Q[i][k]
            coeffs[index[tuple(sorted(t))]] += c
        rhs = -Fraction(1)
        for k in ks:
            rhs *= mult[k]
        lp.add(coeffs, ">=", rhs)
    return lp, labels


def lp_bound(params: CodeParameters) -> BoundResult:
    """Delsarte-style bound 1 + floor(max sum of the distance distribution)
    over the product of m Johnson schemes, solved exactly."""
    method = "lp"
    if params.distance % 2 != 0:
        return BoundResult(method, None, {"reason": "odd distance"})
    lp, labels = delsarte_lp(params)
    n = params.block_lengths[0]
    w = params.block_weights[0]
    trivial = comb(n, w) ** params.m
    if not labels:
        return BoundResult(method, 1, {"optimum": Fraction(0), "classes": ()})
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise AssertionError(f"distance-distribution LP came back {sol.status}")
    value = 1 + int(sol.value)
    value = max(1, min(value, trivial))
    return BoundResult(
        method,
        value,
        {"optimum": sol.value, "solution": sol.x, "classes": tuple(labels), "lp": lp},
    )
