"""Independent correctness checks.

Nothing here calls the package's verifiers: the benchmark re-derives every
property it asserts from supports and block lengths, so a verifier that
wrongly accepts (or a witness that is wrongly built) cannot vouch for itself.
"""

from __future__ import annotations

from itertools import combinations


def block_ranges(lengths):
    """(start, end) of every block in global coordinates."""
    out, start = [], 0
    for n in lengths:
        out.append((start, start + n))
        start += n
    return out


def block_weights_of(support, ranges):
    return [sum(1 for x in support if a <= x < b) for a, b in ranges]


def mask(support) -> int:
    bits = 0
    for x in support:
        bits |= 1 << x
    return bits


def first_violation(supports, lengths, weights, d):
    """The first failure of a candidate code, in the order a verifier reports
    it: block weights word by word, then repeated words, then the first pair
    (i, j), i < j, at distance below ``d``.  Pairwise scan, quadratic.

    Returns None for a valid code, else ("weight", k) / ("identical", i, j) /
    ("distance", i, j).
    """
    ranges = block_ranges(lengths)
    for k, s in enumerate(supports):
        if len(set(s)) != len(s) or block_weights_of(s, ranges) != list(weights):
            return ("weight", k)
    masks = [mask(s) for s in supports]
    seen = {}
    for k, b in enumerate(masks):
        if b in seen:
            return ("identical", seen[b], k)
        seen[b] = k
    if d <= 2:
        return None  # distinct words of equal block weights differ in >= 2 places
    for i in range(len(masks)):
        bi = masks[i]
        for j in range(i + 1, len(masks)):
            if (bi ^ masks[j]).bit_count() < d:
                return ("distance", i, j)
    return None


def pair_index_violation(supports, lengths):
    """Linear check for total weight four, distance six and two blocks of
    weight two: dist(u, v) >= 6 exactly when u and v share at most one point,
    so it suffices that no point pair lies in two words.  Returns None when
    the code passes, else a short description."""
    ranges = block_ranges(lengths)
    owner = {}
    for k, s in enumerate(supports):
        if len(s) != 4 or len(set(s)) != 4:
            return f"word {k} does not have four distinct points"
        if block_weights_of(s, ranges) != [2] * len(lengths):
            return f"word {k} does not have weight two in every block"
        for pair in combinations(sorted(s), 2):
            other = owner.get(pair)
            if other is not None:
                return f"words {other} and {k} share the points {pair}"
            owner[pair] = k
    return None


def violating_partners(supports, k, new_support, d):
    """Indices j != k whose word is at distance below ``d`` from the word
    ``new_support`` placed at position k (one linear scan)."""
    b = mask(new_support)
    return [
        j for j, s in enumerate(supports)
        if j != k and (b ^ mask(s)).bit_count() < d
    ]
