"""Size bounds for partitioned codes and their asymptotic rate functions.

Every integer-valued bound is computed exactly, in integer or rational
(:class:`fractions.Fraction`) arithmetic; floating point appears only in the
asymptotic functions, which the standard library's :mod:`decimal` evaluates
with guard digits beyond the stated precision ``dps`` and rounds once, half
up, to ``dps`` significant digits.

Distance conventions: :class:`~mcwc.core.CodeParameters` stores the literal
minimum distance.  The closed-form bounds below are stated for even distance
``2u``; each operation converts explicitly and reports "inapplicable" when the
stored distance is odd.

Complementing or permuting blocks keeps every distance, so the bounds work on
``params.canonical()``: equivalent shapes get the same value from each bound,
and a shape that is uniform after complementing blocks gets the uniform bounds.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile
from math import comb, prod
from typing import Optional, Union

from .core import CodeParameters, DomainError, ShapeError, SizeError, canonical_weight

RationalLike = Union[int, str, Fraction]


@dataclass(frozen=True)
class BoundResult:
    """A bound value plus the intermediate quantities that produced it.

    ``value`` is ``None`` when the method does not apply to the parameters
    (odd distance, non-positive denominator, ...); the reason is recorded in
    the certificate.
    """

    method: str
    value: Optional[int]
    certificate: dict = field(default_factory=dict, compare=False)

    @property
    def applicable(self) -> bool:
        return self.value is not None


def _require_uniform(params: CodeParameters, method: str) -> tuple[int, int, int]:
    params = params.canonical()
    if not params.is_uniform:
        raise ShapeError(f"{method} requires uniform parameters")
    return params.m, params.block_lengths[0], params.block_weights[0]


def johnson_eq3(params: CodeParameters) -> BoundResult:
    """Floor-of-ratio bound u / (sum_i w_i^2/n_i - lambda) for even distance 2u."""
    method = "johnson-eq3"
    if params.distance % 2 != 0:
        return BoundResult(method, None, {"reason": "odd distance"})
    u = params.distance // 2
    lam = params.total_weight - u
    big, tsum = _eq3_sums(tuple(zip(params.block_weights, params.block_lengths)))
    denom = tsum - lam * big
    cert = {"u": u, "lambda": lam, "denominator": Fraction(denom, big)}
    if denom <= 0:
        cert["reason"] = "denominator <= 0"
        return BoundResult(method, None, cert)
    return BoundResult(method, u * big // denom, cert)


# -- recursive Johnson bound -------------------------------------------------

# d -> {key: (value, rule, child)}, filled by every call that ends within its
# state budget, so each entry equals what a call without a budget computes.  A
# call that the budget cuts off takes its entries out again and answers on a
# private table, as it would on an empty memo.  A state's key is the product of
# the primes of its blocks (:func:`_key`): unique factorization makes it exact.
# ``child`` is the entry of the state that the winning eq1/eq2 step leads to,
# the same object as in the table (``_BASE`` for a base case), and None for
# every other rule: a reference costs less memory than a copy of the key.
_REC_CACHE: dict[int, dict] = {}

_Rule = tuple  # ("eq1", w, n) | ("eq2", w, n) | ("eq3",) | ("product",) | ...

_BASE = (1, ("single",), None)  # the entry of a base case

# canonical block (w, n), 0 < w <= n/2 -> its prime, the next one the first
# time the recursion meets the block
_PRIMES: dict[tuple[int, int], int] = {}


def _prime(block: tuple[int, int]) -> int:
    p = _PRIMES.get(block)
    if p is None:
        p = next(reversed(_PRIMES.values()), 1)
        while True:
            p += 1
            if all(p % q for q in takewhile(lambda q: q * q <= p, _PRIMES.values())):
                break
        _PRIMES[block] = p
    return p


def _key(blocks) -> int:
    """The memo key of the state on canonical blocks ``blocks``, in any order."""
    key = 1
    for block in blocks:
        key *= _prime(block)
    return key


# (w, n) -> ((w, n), C(n, w), n, w^2, prime, the eq1 and eq2 steps from that
# block as (canonical child block, or None when its weight is forced; the
# child's prime, 1 for None; rule; divisor; change of the reach)): what a state
# reads of each of its blocks, built once per block so that memo entries share
# the rules.  A state holds its blocks' records, sorted as their (w, n).  One
# step per child: at n = 2w the eq2 child (w, 2w - 1) is the eq1 child
# (w - 1, 2w - 1), with the same divisor w, so the eq2 step, which could never
# win, is not kept.
@lru_cache(maxsize=None)
def _block_record(block: tuple[int, int]):
    w, n = block
    prime = _prime(block)
    steps = {}
    for rule, child_w, divisor in (("eq1", w - 1, w), ("eq2", w, n - w)):
        child_w = canonical_weight(child_w, n - 1)
        child = (child_w, n - 1) if child_w else None
        steps.setdefault(child, (child, _prime(child) if child else 1, (rule, w, n), divisor,
                                 child_w - w))
    return block, comb(n, w), n, w * w, prime, tuple(steps.values())


def _eq3_sums(blocks) -> tuple[int, int]:
    """L = prod n and T = sum w^2*L/n over blocks (w, n): eq3's denominator
    sum w^2/n - lambda is (T - lambda*L)/L, kept in integers."""
    big = prod(n for _, n in blocks)
    return big, sum(w * w * (big // n) for w, n in blocks)


@dataclass(slots=True)
class _RecState:
    d: int
    budget: int
    memo: dict
    visited: int = 0
    memo_hits: int = 0  # lookups answered from the memo
    past_budget: int = 0  # states met after the budget was spent
    truncated: bool = False


def _lookup(blocks, reach: int, st: _RecState) -> tuple:
    """The entry (value, winning rule, child) for sorted canonical blocks
    ``blocks`` of total weight ``reach``, at distance ``st.d`` > 2: a base
    case, a memo entry or a new state."""
    if not blocks or st.d > 2 * reach:
        return _BASE
    key = _key(blocks)
    hit = st.memo.get(key)
    if hit is not None:
        st.memo_hits += 1
        return hit
    return _rec_bound(tuple(map(_block_record, blocks)), key,
                      prod(comb(n, w) for w, n in blocks), *_eq3_sums(blocks), reach, st)


def _rec_bound(blocks, key: int, size: int, big: int, tsum: int, reach: int,
               st: _RecState) -> tuple:
    """:func:`_lookup` on a state that is neither a base case nor in the memo,
    given as its sorted block records, its key, its product size, L = prod n
    and T = sum w^2*L/n; sets ``st.truncated`` where the budget cuts it off.
    Each child is resolved here from these integers, and only a child missing
    from the memo builds its records and recurses."""
    best, rule, win = size, ("product",), None
    if st.visited >= st.budget:
        st.past_budget += 1
        st.truncated = True
        return best, rule, win
    st.visited += 1
    d, memo = st.d, st.memo
    if d % 2 == 0:
        # eq3: u / (T/L - lambda) with lambda = reach - u
        u = d // 2
        denom = tsum - (reach - u) * big
        if denom > 0 and u * big // denom < best:
            best, rule = u * big // denom, ("eq3",)
    # a child's weight is its parent's or one less, so only a child one
    # lighter can be a base case: no block left, or too little weight
    light_base = d > 2 * reach - 2
    hits = 0
    prev, cut = None, 0
    for i, record in enumerate(blocks):
        if record is prev:
            # blocks are sorted, so this block has the children of the one
            # before it and no child can beat the best strictly; only the
            # children answered past the budget would be met again
            st.past_budget += cut
            continue
        prev, cut = record, 0
        _, c, n, w2, prime, steps = record
        rest_key = key // prime
        for child, child_prime, step, divisor, dreach in steps:
            if dreach and light_base:
                v, hit = n // divisor, _BASE
            else:
                child_key = rest_key * child_prime
                hit = memo.get(child_key)
                if hit is not None:
                    hits += 1
                else:
                    cut += st.visited >= st.budget
                    # remove the block: L' = L/n, T' = (T - w^2*L')/n
                    rest_big = big // n
                    child_size, child_big = size // c, rest_big
                    child_tsum = (tsum - w2 * rest_big) // n
                    if child is None:
                        child_blocks = blocks[:i] + blocks[i + 1 :]
                    else:
                        # add the child, which sorts before the block it
                        # replaces: L'' = L'*n_c, T'' = T'*n_c + w_c^2*L'
                        child_record = _block_record(child)
                        j = bisect_left(blocks, child_record, 0, i)
                        child_blocks = (*blocks[:j], child_record, *blocks[j:i],
                                        *blocks[i + 1 :])
                        child_size *= child_record[1]
                        child_big *= child_record[2]
                        child_tsum = child_tsum * child_record[2] + child_record[3] * rest_big
                    hit = _rec_bound(child_blocks, child_key, child_size, child_big,
                                     child_tsum, reach + dreach, st)
                v = n * hit[0] // divisor
            if v < best:
                best, rule, win = v, step, hit
    st.memo_hits += hits
    memo[key] = entry = (best, rule, win)
    return entry


def johnson_recursive(params: CodeParameters, state_budget: int = 10**6) -> BoundResult:
    """Memoized minimization over the two single-block recursions, the
    floor-of-ratio bound, the trivial product bound and the base cases, on
    the canonical blocks, which the rules and the trace name.

    ``state_budget`` caps the number of states a call expands; beyond it the
    sound product fallback is used, and the certificate's ``truncated`` is
    True.  A complete answer is exact.  A truncated one equals the same call
    on an empty memo: the call removes what it added to the shared memo and
    answers again on a private table.  ``states`` counts the expansions of
    the call that gave the answer, at most ``state_budget`` and 0 on a
    memoized root; ``memo_hits`` counts the lookups that call answered from
    its table, the root when memoized plus each child that is not a base
    case and was already in the table (a block equal to the one before it
    adds no lookup, since its children repeat); ``past_budget`` counts the
    states it met once the budget was spent, each answered by the product
    fallback.  Raises :class:`SizeError` when the recursion goes deeper than
    Python's recursion limit; the memo keeps only the states it finished,
    which are exact.
    """
    params = params.canonical()
    d = params.distance
    # a block of canonical weight 0 has one forced pattern and is dropped
    blocks = tuple(b for b in zip(params.block_weights, params.block_lengths) if b[0])
    st = _RecState(d, state_budget, _REC_CACHE.setdefault(d, {}))
    if any(w > n for w, n in blocks):
        entry = 0, ("no-word",), None
    elif blocks and d <= 2:
        # distinct equal-weight words always differ in at least two coordinates
        entry = prod(comb(n, w) for w, n in blocks), ("space",), None
    else:
        try:
            entry, st = _answer(blocks, params.total_weight, st)
        except RecursionError:
            raise SizeError("the Johnson recursion goes deeper than Python's recursion limit") from None
    return BoundResult(
        "johnson-recursive",
        entry[0],
        {
            "rule": entry[1],
            "states": st.visited,
            "memo_hits": st.memo_hits,
            "past_budget": st.past_budget,
            "truncated": st.truncated,
            "trace": _rec_trace(entry),
        },
    )


def _answer(blocks, reach: int, st: _RecState) -> tuple[tuple, _RecState]:
    """:func:`_lookup` on the shared memo of ``st``; a call that its budget
    cuts off takes out what it added and answers again on a private table,
    with the state of that second call."""
    known = len(st.memo)
    try:
        entry = _lookup(blocks, reach, st)
    finally:  # an interrupted call must not leave cut-off entries either
        while st.truncated and len(st.memo) > known:  # newest pops first
            st.memo.popitem()
    if st.truncated:
        st = _RecState(st.d, st.budget, {})
        entry = _lookup(blocks, reach, st)
    return entry, st


def _rec_trace(entry) -> tuple[_Rule, ...]:
    """Path of winning rules from the root's ``entry`` down to a terminal
    rule, following the child entry that each entry holds; a base case is
    ``("single",)``.  A path longer than 64 rules is cut after the 64th, and
    the trace then ends in ``("cut",)`` instead of a terminal rule.  Every
    child on the path is an entry of the table that the answer came from: a
    child that the budget cut off answers its product size, which gives its
    parent exactly the parent's product size, so it never wins."""
    trace = [entry[1]]
    while entry[2] is not None:
        if len(trace) == 64:
            trace.append(("cut",))
            break
        entry = entry[2]
        trace.append(entry[1])
    return tuple(trace)


def _plotkin(params: CodeParameters, method: str):
    """Plotkin's averaging bound floor(u/b), b = u - m*w*(n-w)/n at distance
    2u, as a result named ``method``, with the uniform (m, n, w) it used."""
    m, n, w = _require_uniform(params, method)
    if params.distance % 2 != 0:
        return BoundResult(method, None, {"reason": "odd distance"}), m, n, w
    u = params.distance // 2
    b = Fraction(u) - Fraction(m * w * (n - w), n)
    cert = {"u": u, "b": b}
    if b <= 0:
        cert["reason"] = "b <= 0"
        return BoundResult(method, None, cert), m, n, w
    return BoundResult(method, int(Fraction(u) / b), cert), m, n, w


def plotkin_bound(params: CodeParameters) -> BoundResult:
    """Averaging bound floor(u/b) with b = u - m*w*(n-w)/n, for uniform shapes."""
    return _plotkin(params, "plotkin")[0]


def _frac_part(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def plotkin_discrete(params: CodeParameters) -> BoundResult:
    """Refinement of :func:`plotkin_bound` in which the column averages are
    constrained to multiples of 1/M.

    The refined inequality is implicit in M; the largest consistent M is found
    by descending from the continuous value, so the result never exceeds
    :func:`plotkin_bound`.  Returns 0 on a shape with no word (w > n), and 1
    when no M down to 2 is consistent: M = 1 always is, since
    frac(w/n)*frac((n-w)/n) = w*(n-w)/n^2 makes the refined b equal u.
    """
    method = "plotkin-discrete"
    m, n, w = _require_uniform(params, method)
    base = plotkin_bound(params)
    if not base.applicable:
        return BoundResult(method, None, base.certificate)
    if w > n:
        return BoundResult(method, 0, {"reason": "no word"})
    u, b0 = base.certificate["u"], base.certificate["b"]
    start = base.value
    for candidate in range(start, 1, -1):
        # b >= b0 > 0: the correction is a product of non-negative factors
        b = b0 + (
            Fraction(n * m, candidate * candidate)
            * _frac_part(Fraction(candidate * w, n))
            * _frac_part(Fraction(candidate * (n - w), n))
        )
        if candidate <= int(Fraction(u) / b):
            return BoundResult(
                method, candidate, {"u": u, "b": b, "continuous": start}
            )
    return BoundResult(method, 1, {"u": u, "b": Fraction(u), "continuous": start})


def spherical_bound(params: CodeParameters) -> BoundResult:
    """Bound via the embedding of the code on an (nm-m)-dimensional sphere:
    a refinement of Plotkin's floor(u/b)."""
    base, m, n, w = _plotkin(params, "spherical")
    if not base.applicable:
        return base
    if w > n:  # then b > u, so the b <= 0 case above never hides this one
        return BoundResult(base.method, 0, {"reason": "no word"})
    u, b = base.certificate["u"], base.certificate["b"]
    if 2 * b > u:
        # maximum cosine below -1 (u*n > 2*m*w*(n-w)): no two codewords coexist
        value, case = 1, "cosine < -1"
    elif b >= Fraction(u, n * m - m + 1):
        value, case = base.value, "floor(u/b)"
    else:
        value, case = m * (n - 1) + 1, "simplex"
    base.certificate["case"] = case
    return BoundResult(base.method, value, base.certificate)


def gv_lower_bound(params: CodeParameters) -> BoundResult:
    """Gilbert-Varshamov-type lower bound: space size over the punctured-ball
    volume, computed with exact integers."""
    method = "gv"
    m, n, w = _require_uniform(params, method)
    if params.distance % 2 != 0:
        return BoundResult(method, None, {"reason": "odd distance"})
    if comb(n, w) == 0:
        return BoundResult(method, 0, {"reason": "no word"})
    u = params.distance // 2
    numerator = comb(n, w) ** m
    if u == 0:
        return BoundResult(method, numerator, {"numerator": numerator, "ball_volume": 0})
    per_block = [comb(w, i) * comb(n - w, i) for i in range(w + 1)]
    # ball[j] = number of words at distance exactly 2j from a fixed word
    ball = [1]
    for _ in range(m):
        nxt = [0] * (len(ball) + len(per_block) - 1)
        for a, ca in enumerate(ball):
            if ca:
                for b_, cb in enumerate(per_block):
                    nxt[a + b_] += ca * cb
        ball = nxt
    volume = sum(ball[:u])  # radius 2u - 1 reaches distances 2j <= 2(u-1)
    value = -(-numerator // volume)
    return BoundResult(method, value, {"numerator": numerator, "ball_volume": volume})


# The LP bound is consulted when its symmetrized LP is small: one variable per
# class multiset, at most LP_VAR_CAP of them, and at most LP_CLASS_CAP class
# tuples, (w+1)^m.  delsarte_lp builds from the multisets alone; the tuple cap
# stays because lifting it would change which shapes get an LP row.
LP_VAR_CAP = 64
LP_CLASS_CAP = 4096


def lp_applies(params: CodeParameters) -> bool:
    """Whether :func:`upper_bounds` consults the LP bound: a canonical form that
    is uniform with words (w <= n), even distance and an LP within both caps."""
    params = params.canonical()
    if not params.is_uniform or params.distance % 2 != 0:
        return False
    n, w = params.block_lengths[0], params.block_weights[0]
    return w <= n and comb(params.m + w, w) <= LP_VAR_CAP and (w + 1) ** params.m <= LP_CLASS_CAP


def upper_bounds(params: CodeParameters) -> dict[str, BoundResult]:
    """Every upper bound that :func:`best_upper_bound` considers, keyed by
    method in a fixed order: johnson-recursive, johnson-eq3 and, for uniform
    canonical forms, plotkin-discrete, spherical and the LP bound (when
    :func:`lp_applies`).  Each bound is computed once, on the canonical form."""
    params = params.canonical()
    results = [johnson_recursive(params), johnson_eq3(params)]
    if params.is_uniform:
        results.append(plotkin_discrete(params))
        results.append(spherical_bound(params))
    if lp_applies(params):
        from .lp import lp_bound

        results.append(lp_bound(params))
    return {r.method: r for r in results}


def best_of(table: dict[str, BoundResult]) -> BoundResult:
    """The first strict minimum of an :func:`upper_bounds` table, with the
    winner tagged and every value in the certificate."""
    # johnson_recursive always applies, so the minimum exists
    best = min((r for r in table.values() if r.applicable), key=lambda r: r.value)
    return BoundResult(best.method, best.value, {"all": {k: r.value for k, r in table.items()}})


def best_upper_bound(params: CodeParameters) -> BoundResult:
    """Minimum over every applicable upper bound, with the winner tagged."""
    return best_of(upper_bounds(params))


# -- asymptotic rate functions ------------------------------------------------


def _to_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, (Fraction, int, str, float)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass  # 'abc', '1/0', nan, inf
    raise DomainError(f"expected a rational value, got {x!r}")


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / x.denominator


_GUARD_DPS = 10  # working digits beyond the requested precision


def _working(dps: int):
    """A context carrying ``dps`` plus the guard digits, to enter with ``with``."""
    if not isinstance(dps, int) or isinstance(dps, bool) or dps < 1:
        raise DomainError(f"dps must be a positive number of digits, got {dps!r}")
    return localcontext(Context(prec=dps + _GUARD_DPS))


def _rounded(value: Decimal, dps: int) -> Decimal:
    """``value`` rounded once, half up, to ``dps`` significant digits."""
    return Context(prec=dps, rounding=ROUND_HALF_UP).plus(value)


@lru_cache(maxsize=None)
def _ln2(prec: int) -> Decimal:
    """ln 2 in the working context of precision ``prec``, once per precision."""
    return Decimal(2).ln(Context(prec=prec))


def _log2(x) -> Decimal:
    return Decimal(x).ln() / _ln2(getcontext().prec)


def _entropy_term(p: Decimal) -> Decimal:
    """-p*log2(p) with the 0*log(0) = 0 convention."""
    if p == 0:
        return Decimal(0)
    return -p * _log2(p)


def _binary_entropy(x: Fraction) -> Decimal:
    p = _decimal(x)
    return _entropy_term(p) + _entropy_term(1 - p)


def _q_entropy(q: int, x: Fraction) -> Decimal:
    logq = Decimal(q).ln()
    value = _binary_entropy(x) * _ln2(getcontext().prec) / logq
    if x > 0:
        value += _decimal(x) * Decimal(q - 1).ln() / logq
    return value


def binary_entropy(x: RationalLike, dps: int = 30) -> Decimal:
    xf = _to_fraction(x)
    if not 0 <= xf <= 1:
        raise DomainError("binary entropy needs an argument in [0, 1]")
    with _working(dps):
        return _rounded(_binary_entropy(xf), dps)


def _check_common_domain(delta: Fraction, omega: Fraction) -> None:
    if not 0 < omega <= Fraction(1, 2):
        raise DomainError("omega must lie in (0, 1/2]")
    if delta < 0:
        raise DomainError("delta must be non-negative")
    if delta > max(Fraction(1, 2), 2 * omega):
        raise DomainError("delta must not exceed max(1/2, 2*omega)")


def _vanishes(delta: Fraction, omega: Fraction) -> bool:
    """True on the line delta = 2*omega*(1 - omega), where mu_c, mu_gv and
    comparison_f are all exactly 0: there H_q(delta/(2*omega)) = H_q((q-1)/q)
    = 1, H2(omega) - omega*H2(1 - omega) - (1 - omega)*H2(omega) = 0, and f
    vanishes at x = omega - omega^2."""
    return delta == 2 * omega * (1 - omega)


def mu_c(delta: RationalLike, omega: RationalLike, dps: int = 30) -> Decimal:
    """Concatenation rate omega*log2(1/omega)*(1 - H_q(delta/(2*omega))), q = 1/omega."""
    d = _to_fraction(delta)
    o = _to_fraction(omega)
    _check_common_domain(d, o)
    q = Fraction(1) / o
    if q.denominator != 1 or q < 2:
        raise DomainError("1/omega must be an integer >= 2")
    q = int(q)
    x = d / (2 * o)
    if x > Fraction(q - 1, q):
        raise DomainError("delta/(2*omega) must not exceed (q-1)/q")
    with _working(dps):
        if _vanishes(d, o):
            return Decimal(0)
        return _rounded(_decimal(o) * _log2(q) * (1 - _q_entropy(q, x)), dps)


def mu_gv(delta: RationalLike, omega: RationalLike, dps: int = 30) -> Decimal:
    """Gilbert-Varshamov rate H2(omega) - omega*H2(delta/2omega) - (1-omega)*H2(delta/2(1-omega))."""
    d = _to_fraction(delta)
    o = _to_fraction(omega)
    _check_common_domain(d, o)
    x1 = d / (2 * o)
    x2 = d / (2 * (1 - o))
    if x1 > 1 or x2 > 1:
        raise DomainError("entropy arguments must lie in [0, 1]")
    with _working(dps):
        if _vanishes(d, o):
            return Decimal(0)
        return _rounded(
            _binary_entropy(o)
            - _decimal(o) * _binary_entropy(x1)
            - _decimal(1 - o) * _binary_entropy(x2),
            dps,
        )


def comparison_f(x: RationalLike, omega: RationalLike, dps: int = 30) -> Decimal:
    """Closed form of mu_gv - mu_c at (delta, omega) with x = delta/2.

    f(x, w) = -(2-2w-x)*log2(1-w) + x*log2(x/w) + (1-w-x)*log2(1-w-x),
    with x*log2(x/w) taken as 0 at x = 0.  The function is non-negative on the
    admissible region and is exactly 0 on the line x = w - w^2.
    """
    xf = _to_fraction(x)
    o = _to_fraction(omega)
    if not 0 < o < 1:
        raise DomainError("omega must lie in (0, 1)")
    if not 0 <= xf < 1 - o:
        raise DomainError("x must lie in [0, 1 - omega)")
    with _working(dps):
        if _vanishes(2 * xf, o):
            return Decimal(0)
        om = _decimal(o)
        xx = _decimal(xf)
        value = -(2 - 2 * om - xx) * _log2(1 - om)
        if xf > 0:
            value += xx * _log2(xx / om)
        rest = 1 - om - xx
        if rest > 0:
            value += rest * _log2(rest)
        return _rounded(value, dps)


@dataclass(frozen=True)
class AsymptoticPoint:
    """The two lower-bound rates and their difference at one (delta, omega)."""

    delta: Fraction
    omega: Fraction
    mu_c: Optional[Decimal]  # None when 1/omega is not an integer
    mu_gv: Decimal
    f: Decimal
    dps: int


def asymptotic_point(delta: RationalLike, omega: RationalLike, dps: int = 30) -> AsymptoticPoint:
    _working(dps)  # a dps below 1 is reported before the domain
    d = _to_fraction(delta)
    o = _to_fraction(omega)
    _check_common_domain(d, o)
    try:
        concat = mu_c(d, o, dps)
    except DomainError:  # 1/omega is not an integer, or delta is too large
        concat = None
    return AsymptoticPoint(d, o, concat, mu_gv(d, o, dps), comparison_f(d / 2, o, dps), dps)
