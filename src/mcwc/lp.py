"""Exact rational linear programming and the product-scheme size bound.

The solver is a two-phase primal simplex over :class:`fractions.Fraction`
with Bland's anti-cycling rule, so it terminates and its optimum is exact.
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

Relation = Literal["<=", ">=", "="]


@dataclass
class RationalLinearProgram:
    """maximize objective . x subject to the listed constraints and x >= 0."""

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: list[tuple[tuple[Fraction, ...], Relation, Fraction]] = field(
        default_factory=list
    )

    def add(self, coeffs: Sequence, relation: Relation, rhs) -> None:
        if len(coeffs) != self.num_vars:
            raise DomainError("constraint width does not match num_vars")
        if relation not in ("<=", ">=", "="):
            raise DomainError(f"unknown relation {relation!r}")
        self.constraints.append(
            (tuple(Fraction(c) for c in coeffs), relation, Fraction(rhs))
        )


@dataclass(frozen=True)
class LpSolution:
    status: Literal["optimal", "infeasible", "unbounded"]
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


def _simplex_phase(
    rows: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    allowed: int,
) -> Literal["optimal", "unbounded"]:
    """Maximize cost.x over the tableau in place, Bland's rule throughout.

    Only columns below ``allowed`` may enter the basis (this freezes the
    artificial columns out of phase 2).
    """
    m = len(rows)
    while True:
        # reduced costs z_j = cost_j - cost_B . column_j
        reduced = list(cost[:allowed])
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                row = rows[i]
                for j in range(allowed):
                    if row[j] != 0:
                        reduced[j] -= cb * row[j]
        enter = -1
        for j in range(allowed):
            if reduced[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
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
            return "unbounded"
        _pivot(rows, basis, leave, enter)


def solve_lp(lp: RationalLinearProgram) -> LpSolution:
    """Exact optimum of the program, or an infeasible/unbounded verdict."""
    n = lp.num_vars
    m = len(lp.constraints)
    num_slack = sum(1 for _, rel, _ in lp.constraints if rel in ("<=", ">="))
    total = n + num_slack  # artificial columns come after these

    rows: list[list[Fraction]] = []
    basis: list[int] = []
    needs_artificial: list[int] = []
    slack_at = 0
    for idx, (coeffs, rel, rhs) in enumerate(lp.constraints):
        row = list(coeffs) + [Fraction(0)] * num_slack + [rhs]
        slack_col = -1
        if rel in ("<=", ">="):
            slack_col = n + slack_at
            row[slack_col] = Fraction(1) if rel == "<=" else Fraction(-1)
            slack_at += 1
        if row[-1] < 0:
            row = [-v for v in row]
        if slack_col >= 0 and row[slack_col] == 1:
            basis.append(slack_col)
        else:
            basis.append(-1)
            needs_artificial.append(idx)
        rows.append(row)

    art_cols = []
    for pos, idx in enumerate(needs_artificial):
        col = total + pos
        art_cols.append(col)
        for i in range(m):
            rows[i].insert(col, Fraction(1) if i == idx else Fraction(0))
        basis[idx] = col
    width = total + len(art_cols) + 1

    if art_cols:
        phase1_cost = [Fraction(0)] * (width - 1)
        for c in art_cols:
            phase1_cost[c] = Fraction(-1)
        status = _simplex_phase(rows, basis, phase1_cost, width - 1)
        assert status == "optimal"  # the phase-1 objective is bounded by 0
        infeas = sum(rows[i][-1] for i in range(m) if basis[i] in art_cols)
        if infeas != 0:
            return LpSolution("infeasible")
        # drive leftover zero-level artificials out of the basis when possible
        for i in range(m):
            if basis[i] >= total:
                for j in range(total):
                    if rows[i][j] != 0:
                        _pivot(rows, basis, i, j)
                        break

    cost = [Fraction(0)] * (width - 1)
    for j in range(n):
        cost[j] = Fraction(lp.objective[j])
    status = _simplex_phase(rows, basis, cost, total)
    if status == "unbounded":
        return LpSolution("unbounded")
    x = [Fraction(0)] * n
    for i in range(m):
        if 0 <= basis[i] < n:
            x[basis[i]] = rows[i][-1]
    value = sum(c * v for c, v in zip(lp.objective, x))
    return LpSolution("optimal", value, tuple(x))


def format_lp(lp: RationalLinearProgram) -> str:
    """Plain-text rendering: 'max c1 c2 ...' then one constraint per line."""
    out = ["max " + " ".join(str(c) for c in lp.objective)]
    for coeffs, rel, rhs in lp.constraints:
        out.append(" ".join(str(c) for c in coeffs) + f" {rel} {rhs}")
    return "\n".join(out) + "\n"


def delsarte_lp(params: CodeParameters, symmetrize: bool = True):
    """Build the product-scheme LP instance for uniform parameters.

    Returns (lp, labels) where labels[j] is the class tuple of variable j.
    Classes whose index sum is below half the distance are fixed to zero and
    omitted; the all-zero class is the usual normalization, folded into the
    right-hand sides.

    With ``symmetrize`` the LP is quotiented by the block-permutation action:
    the feasible set and objective are invariant under simultaneously
    permuting class and constraint tuples, so restricting to symmetric points
    (one variable per sorted class multiset, one constraint per sorted
    frequency multiset) leaves the optimum unchanged while shrinking the
    tableau from (w+1)^m to a multiset count per side.
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

    if not symmetrize:
        labels = admissible
        lp = RationalLinearProgram(len(labels), (Fraction(1),) * len(labels))
        for ks in itertools.product(range(w + 1), repeat=m):
            coeffs = []
            for t in labels:
                c = Fraction(1)
                for i, k in zip(t, ks):
                    c *= Q[i][k]
                coeffs.append(c)
            rhs = -Fraction(1)
            for k in ks:
                rhs *= mult[k]
            lp.add(coeffs, ">=", rhs)
        return lp, labels

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


def lp_bound(params: CodeParameters, symmetrize: bool = True) -> BoundResult:
    """Delsarte-style bound 1 + floor(max sum of the distance distribution)
    over the product of m Johnson schemes, solved exactly."""
    method = "lp"
    if params.distance % 2 != 0:
        return BoundResult(method, None, {"reason": "odd distance"})
    lp, labels = delsarte_lp(params, symmetrize)
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
