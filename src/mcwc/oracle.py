"""Exact maximum-size search for small parameter sets.

Words with the required block weights are the vertices of a compatibility
graph (edges join words at distance >= d); the largest code is a maximum
clique.  Every parameter set follows one path:

* trivial answers first: with no word, a distance no two words reach (one
  word is optimal) or d <= 2 (every word fits), the answer is a prefix of
  :func:`enumerate_words` whose length is also its upper bound;
* otherwise one branch and bound over bitset rows, seeded by greedy cliques
  and stopped early once the incumbent meets :func:`best_upper_bound`.

With ``symmetry_reduction`` the search is restricted to cliques through
vertex 0, which is valid because coordinate permutations inside blocks act
transitively on the words.  The candidate order and its pruning bounds come
from a greedy coloring.  The search is single-threaded and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod

from .bounds import best_upper_bound
from .core import (
    CodeParameters,
    PartitionedCode,
    SizeError,
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


class _Budget(Exception):
    pass


class _TargetReached(Exception):
    pass


class _CliqueSearch:
    """Branch and bound on an adjacency list of int bitmasks."""

    def __init__(self, adj: list[int], cfg: SearchConfig, target: int):
        self.adj = adj
        self.node_budget = cfg.node_budget
        self.target = target
        self.nodes = 0
        self.best: list[int] = []
        self.stack: list[int] = []

    def _color_order(self, p: int) -> list[tuple[int, int]]:
        """Greedy coloring of the candidate set; returns (vertex, bound) pairs
        in increasing bound order, where bound = color index + 1."""
        order: list[tuple[int, int]] = []
        color = 0
        rest = p
        while rest:
            color += 1
            avail = rest
            while avail:
                v = avail.bit_length() - 1
                bit = 1 << v
                avail &= ~self.adj[v]
                avail &= ~bit
                rest &= ~bit
                order.append((v, color))
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
        for v, bound in reversed(self._color_order(p)):
            if len(self.stack) + bound <= len(self.best):
                return
            self.stack.append(v)
            self._expand(p & self.adj[v])
            self.stack.pop()
            p &= ~(1 << v)

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


def enumerate_words(params: CodeParameters) -> list[tuple[int, ...]]:
    """All supports with exact block weights, in lexicographic block-major order."""
    per_block = []
    for (start, _end), n, w in zip(
        params.block_spans(), params.block_lengths, params.block_weights
    ):
        per_block.append(
            [tuple(start + i for i in c) for c in itertools.combinations(range(n), w)]
        )
    return [tuple(itertools.chain(*combo)) for combo in itertools.product(*per_block)]


def max_mcwc(params: CodeParameters, cfg: SearchConfig = SearchConfig()) -> OracleResult:
    """Exact largest code size for the parameters, with a verified witness.

    Raises :class:`SizeError` when the vertex count exceeds ``cfg.vertex_cap``.
    When a budget runs out the incumbent is returned with ``complete=False``.
    """
    count = prod(map(comb, params.block_lengths, params.block_weights))
    if count > cfg.vertex_cap:
        raise SizeError(f"{count} candidate words exceed the vertex cap {cfg.vertex_cap}")
    reach = 2 * params.canonical().total_weight
    d = params.distance
    supports = enumerate_words(params)
    if count == 0 or d > reach or d <= 2:
        # no word; or no two words are d apart, so any one word is optimal; or
        # distinct words with equal block weights differ in >= 2 places, so
        # every word fits
        size = 0 if count == 0 else 1 if d > reach else count
        witness = PartitionedCode.from_supports(params, supports[:size])
        return _verified(params, witness, True, 0, size)
    masks = []
    for s in supports:
        b = 0
        for i in s:
            b |= 1 << i
        masks.append(b)
    nv = len(supports)
    adj = [0] * nv
    for i in range(nv):
        mi = masks[i]
        row = adj[i]
        for j in range(i + 1, nv):
            if (mi ^ masks[j]).bit_count() >= d:
                row |= 1 << j
                adj[j] |= 1 << i
        adj[i] = row

    target = best_upper_bound(params).value
    # every word is equivalent to vertex 0 under within-block coordinate
    # permutations, so some maximum clique contains vertex 0
    root = [0] if cfg.symmetry_reduction else []
    candidates = adj[0] if root else (1 << nv) - 1
    search = _CliqueSearch(adj, cfg, target - len(root))
    best, complete = search.run(candidates, _greedy_seed(adj, candidates))
    chosen = root + sorted(best)
    witness = PartitionedCode.from_supports(params, [supports[i] for i in chosen])
    return _verified(params, witness, complete, search.nodes, target)


def _verified(params, witness, complete, nodes, target) -> OracleResult:
    verify_mcwc(witness).require("oracle produced an invalid witness")
    return OracleResult(len(witness), witness, complete, nodes, target)


def max_cwc(n: int, d: int, w: int, cfg: SearchConfig = SearchConfig()) -> OracleResult:
    """Single-block convenience wrapper."""
    return max_mcwc(CodeParameters.uniform(1, n, w, d), cfg)
