"""Exact maximum-size search for small parameter sets.

Words with the required block weights are the vertices of a compatibility
graph (edges join words at distance >= d); the largest code is a maximum
clique.  Every parameter set follows one path:

* :func:`enumerate_words` lists the words once, each support with its packed
  bits, combining every block's combinations by product and OR;
* trivial answers first: with no word, a distance no two words reach (one
  word is optimal) or d <= 2 (every word fits), the answer is a prefix of
  the words whose length is also its upper bound;
* otherwise the graph is built from one index of shared canonical points
  (two words are closer than d exactly when they share enough of them; see
  :func:`_compatibility_graph`), and one branch and bound over its bitset
  rows, seeded by greedy cliques, stops early once the incumbent meets the
  best of the :func:`upper_bounds` table.

With ``symmetry_reduction`` the search is restricted to cliques through
vertex 0, which is valid because coordinate permutations inside blocks act
transitively on the words.  The candidate order and its pruning bounds come
from a greedy coloring.  The search is single-threaded and deterministic.
The witness is made from the enumerated (support, bits) pairs of the chosen
words and checked by :func:`verify_mcwc` on every path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, prod
from typing import Optional

from .bounds import BoundResult, best_of, upper_bounds
from .core import (
    CodeParameters,
    PartitionedCode,
    PartitionedWord,
    SizeError,
    _canonical_supports,
    verify_mcwc,
)


@dataclass(frozen=True)
class SearchConfig:
    vertex_cap: int = 2000
    node_budget: int = 10_000_000
    symmetry_reduction: bool = True

    def __post_init__(self):
        if self.vertex_cap <= 0 or self.node_budget <= 0:
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class OracleResult:
    size: int
    witness: PartitionedCode
    complete: bool  # False: budget ran out, size is a lower bound only
    nodes: int
    upper_bound: int
    # the upper_bounds table the search target came from; None for a trivial
    # answer, which needs no table
    bounds: Optional[dict[str, BoundResult]] = field(default=None, compare=False)


class _Budget(Exception):
    pass


class _TargetReached(Exception):
    pass


class _CliqueSearch:
    """Branch and bound on an adjacency list of int bitmasks."""

    def __init__(self, adj: list[int], cfg: SearchConfig, target: int):
        self.adj = adj
        full = (1 << len(adj)) - 1
        # the candidates that stay available after coloring vertex v
        self.nonadj = [full ^ (row | 1 << v) for v, row in enumerate(adj)]
        self.node_budget = cfg.node_budget
        self.target = target
        self.nodes = 0
        self.best: list[int] = []
        self.stack: list[int] = []

    def _color_order(self, p: int) -> list[tuple[int, int]]:
        """Greedy coloring of the candidate set; returns (vertex, bound) pairs
        in increasing bound order, where bound = color index + 1."""
        nonadj = self.nonadj
        order: list[tuple[int, int]] = []
        append = order.append
        color = 0
        rest = p
        while rest:
            color += 1
            avail = rest
            while avail:
                v = avail.bit_length() - 1
                avail &= nonadj[v]
                rest ^= 1 << v
                append((v, color))
        return order

    def _expand(self, p: int):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _Budget
        if p == 0:
            if len(self.stack) > len(self.best):
                self.best = list(self.stack)
                if len(self.best) >= self.target:
                    raise _TargetReached
            return
        adj = self.adj
        stack = self.stack
        depth = len(stack)
        for v, bound in reversed(self._color_order(p)):
            if depth + bound <= len(self.best):
                return
            stack.append(v)
            self._expand(p & adj[v])
            stack.pop()
            p ^= 1 << v

    def run(self, p: int, seed: list[int]) -> tuple[list[int], bool]:
        self.best = list(seed)
        complete = True
        try:
            if len(self.best) < self.target:
                self._expand(p)
        except _TargetReached:
            pass  # incumbent met a proven upper bound
        except _Budget:
            complete = False
        return self.best, complete


_SEED_STARTS = 32


def _greedy_seed(adj: list[int], vertices: int) -> list[int]:
    """Deterministic greedy cliques from the lowest ``_SEED_STARTS`` start vertices."""
    best: list[int] = []
    rest = vertices
    for _ in range(_SEED_STARTS):
        if not rest:
            break
        s = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        clique = [s]
        p = vertices & adj[s]
        while p:
            v = (p & -p).bit_length() - 1  # lowest-index candidate
            clique.append(v)
            p &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def enumerate_words(params: CodeParameters) -> list[tuple[tuple[int, ...], int]]:
    """(support, packed bits) of every word with exact block weights, in
    lexicographic block-major order of the supports."""
    bit = [1 << i for i in range(params.total_length)].__getitem__
    words = [((), 0)]
    for (start, end), w in zip(params.block_spans(), params.block_weights):
        block = [(c, sum(map(bit, c))) for c in itertools.combinations(range(start, end), w)]
        words = [(s + c, b | cb) for s, b in words for c, cb in block]
    return words


def _compatibility_graph(params: CodeParameters, words: list) -> list[int]:
    """Bitset rows of the graph joining (support, bits) words at distance >= d,
    the parameters' distance, for 3 <= d <= twice the canonical total weight.

    On canonical supports of total weight W, two words are closer than d
    exactly when they share t = W - ceil(d / 2) + 1 points, so each row is
    every word but those sharing one of its t-subsets.  Every word is a
    vertex, so nv >= 2^W >= C(W, t) and the index holds at most nv^2 keys,
    about twice the number of pairs.
    """
    nv = len(words)
    d = params.distance
    total = params.canonical().total_weight
    t = total - (d + 1) // 2 + 1
    supports = _canonical_supports(params, (s for s, _ in words), (b for _, b in words))
    keyed = [list(itertools.combinations(s, t)) for s in supports]
    near: dict[tuple[int, ...], int] = {}
    get = near.get
    for j, keys in enumerate(keyed):
        bit = 1 << j
        for key in keys:
            near[key] = get(key, 0) | bit
    full = (1 << nv) - 1
    adj = []
    for keys in keyed:
        close = 0
        for key in keys:
            close |= near[key]
        adj.append(full ^ close)
    return adj


def max_mcwc(params: CodeParameters, cfg: SearchConfig = SearchConfig()) -> OracleResult:
    """Exact largest code size for the parameters, with a verified witness.

    The search stops once it meets the best of the :func:`upper_bounds` table
    of ``params``, which the result keeps.  Raises :class:`SizeError` when the vertex count exceeds ``cfg.vertex_cap``.
    When a budget runs out the incumbent is returned with ``complete=False``.
    """
    count = prod(map(comb, params.block_lengths, params.block_weights))
    if count > cfg.vertex_cap:
        raise SizeError(f"{count} candidate words exceed the vertex cap {cfg.vertex_cap}")
    reach = 2 * params.canonical().total_weight
    d = params.distance
    words = enumerate_words(params)
    if count == 0 or d > reach or d <= 2:
        # no word; or no two words are d apart, so any one word is optimal; or
        # distinct words with equal block weights differ in >= 2 places, so
        # every word fits
        size = 0 if count == 0 else 1 if d > reach else count
        return _verified(params, words[:size], True, 0, size, None)
    adj = _compatibility_graph(params, words)
    bounds = upper_bounds(params)
    target = best_of(bounds).value
    # every word is equivalent to vertex 0 under within-block coordinate
    # permutations, so some maximum clique contains vertex 0
    root = [0] if cfg.symmetry_reduction else []
    candidates = adj[0] if root else (1 << len(words)) - 1
    search = _CliqueSearch(adj, cfg, target - len(root))
    best, complete = search.run(candidates, _greedy_seed(adj, candidates))
    chosen = [words[i] for i in root + sorted(best)]
    return _verified(params, chosen, complete, search.nodes, target, bounds)


def _verified(params, words, complete, nodes, target, bounds) -> OracleResult:
    witness = PartitionedCode(params, tuple(PartitionedWord(params, *w) for w in words))
    verify_mcwc(witness).require("oracle produced an invalid witness")
    return OracleResult(len(witness), witness, complete, nodes, target, bounds)

