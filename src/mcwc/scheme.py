"""Eigendata of the Johnson association scheme J(w, n).

The scheme lives on the weight-w binary words of length n, with relation i
pairing words at Hamming distance 2i.  Its eigenvalues are the Eberlein
polynomials; the first eigenmatrix P collects them and the second eigenmatrix
Q is the unique rational matrix with P*Q = C(n, w)*I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .core import DomainError


def _comb0(a: int, b: int) -> int:
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def eberlein(w: int, n: int, k: int, u: int) -> int:
    """E_k(u) = sum_i (-1)^i C(u,i) C(w-u,k-i) C(n-w-u,k-i), exact."""
    if not 0 <= k <= w:
        raise DomainError(f"k = {k} out of range [0, {w}]")
    if not 0 <= u <= w:
        raise DomainError(f"u = {u} out of range [0, {w}]")
    if w > n:
        raise DomainError("w must not exceed n")
    return sum(
        (-1) ** i * comb(u, i) * _comb0(w - u, k - i) * _comb0(n - w - u, k - i)
        for i in range(k + 1)
    )


@dataclass(frozen=True)
class SchemeTables:
    """Eberlein values, valencies, multiplicities and both eigenmatrices.

    Index conventions: ``eberlein[k][u] = E_k(u)``, ``P[i][k] = E_k(i)`` and
    ``Q[k][i] = mult[i] * E_k(i) / valency[k]``, so that ``P @ Q`` equals
    ``C(n, w)`` times the identity, exactly.
    """

    w: int
    n: int
    eberlein: tuple[tuple[int, ...], ...]
    valencies: tuple[int, ...]
    multiplicities: tuple[int, ...]
    P: tuple[tuple[int, ...], ...]
    Q: tuple[tuple[Fraction, ...], ...]


@lru_cache(maxsize=None)
def build_scheme_tables(w: int, n: int) -> SchemeTables:
    """Populate all tables of J(w, n); requires 1 <= w <= n/2.

    Callers holding w > n/2 must pass the complement parameter n - w; the
    complement map preserves all pairwise distances.
    """
    if not 1 <= w:
        raise DomainError("w must be at least 1")
    if 2 * w > n:
        raise DomainError(f"w = {w} exceeds n/2 = {n}/2; use the complement scheme")
    E = tuple(tuple(eberlein(w, n, k, u) for u in range(w + 1)) for k in range(w + 1))
    valencies = tuple(E[k][0] for k in range(w + 1))
    # the multiplicity (n - 2i + 1)/(n - i + 1) * C(n, i), in integers
    mult = [comb(n, i) - _comb0(n, i - 1) for i in range(w + 1)]
    P = tuple(tuple(E[k][i] for k in range(w + 1)) for i in range(w + 1))
    Q = tuple(
        tuple(Fraction(mult[i] * E[k][i], valencies[k]) for i in range(w + 1))
        for k in range(w + 1)
    )
    return SchemeTables(w, n, E, valencies, tuple(mult), P, Q)
