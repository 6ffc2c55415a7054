"""Exact maximum-size search for small parameter sets.

Words with the required block weights are the vertices of a compatibility
graph (edges join words at distance >= d); the largest code is a maximum
clique.  The search is a single-threaded branch and bound over bitset rows
with a greedy-coloring bound, so results are deterministic.

Two sound accelerations are applied: the closed-form upper bounds seed a
target at which the incumbent is provably optimal, and (optionally) the
search is restricted to cliques through the first vertex, which is valid
because coordinate permutations inside blocks act transitively on vertices.
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
    greedy_coloring: bool = True

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

    def __str__(self) -> str:
        tag = "optimum" if self.complete else "lower bound (budget exceeded)"
        return f"{tag} {self.size}"


class _Budget(Exception):
    pass


class _TargetReached(Exception):
    pass


class _CliqueSearch:
    """Branch and bound on an adjacency list of int bitmasks."""

    def __init__(self, adj: list[int], cfg: SearchConfig, target: int):
        self.adj = adj
        self.cfg = cfg
        self.target = target
        self.nodes = 0
        self.best: list[int] = []
        self.stack: list[int] = []

    def _take(self, clique: list[int]):
        if len(clique) > len(self.best):
            self.best = list(clique)
            if len(self.best) >= self.target:
                raise _TargetReached

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
        if self.nodes > self.cfg.node_budget:
            raise _Budget
        if p == 0:
            self._take(self.stack)
            return
        if self.cfg.greedy_coloring:
            order = self._color_order(p)
        else:
            order = [(v, 0) for v in _bits(p)]
        for v, bound in reversed(order):
            if self.cfg.greedy_coloring and len(self.stack) + bound <= len(self.best):
                return
            if not self.cfg.greedy_coloring and len(self.stack) + p.bit_count() <= len(self.best):
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


def _bits(mask: int):
    while mask:
        v = mask.bit_length() - 1
        yield v
        mask &= ~(1 << v)


def _greedy_seed(adj: list[int], vertices: int, tries: int = 32) -> list[int]:
    """Deterministic greedy cliques from the first few start vertices."""
    n = vertices.bit_count()
    best: list[int] = []
    starts = list(itertools.islice(_bits_ascending(vertices), min(n, tries)))
    for s in starts:
        clique = [s]
        p = vertices & adj[s]
        while p:
            v = (p & -p).bit_length() - 1  # lowest-index candidate
            clique.append(v)
            p &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def _bits_ascending(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= ~low


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
    count = prod(comb(n, w) if 0 <= w <= n else 0
                 for n, w in zip(params.block_lengths, params.block_weights))
    if count > cfg.vertex_cap:
        raise SizeError(f"{count} candidate words exceed the vertex cap {cfg.vertex_cap}")
    d = params.distance
    if count == 0:
        return OracleResult(0, PartitionedCode(params, ()), True, 0, 0)
    reach = 2 * sum(
        min(w, n - w) for n, w in zip(params.block_lengths, params.block_weights)
    )
    if d > reach:
        # two distinct words cannot be this far apart: any single word is optimal
        witness = PartitionedCode.from_supports(params, enumerate_words(params)[:1])
        return _verified(params, witness, True, 0, 1)
    if d <= 2:
        # distinct words with equal block weights always differ in >= 2 places
        witness = PartitionedCode.from_supports(params, enumerate_words(params))
        return _verified(params, witness, True, 0, count)
    supports = enumerate_words(params)
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

    full = (1 << nv) - 1
    if all(adj[i] == full & ~(1 << i) for i in range(nv)):
        chosen = list(range(nv))  # distance floor is vacuous: take everything
        complete = True
        nodes = 0
    elif cfg.symmetry_reduction:
        # every word is equivalent to vertex 0 under within-block coordinate
        # permutations, so some maximum clique contains vertex 0
        search = _CliqueSearch(adj, cfg, max(target - 1, 0))
        sub = adj[0]
        seed = _greedy_seed(adj, sub) if sub else []
        best, complete = search.run(sub, seed)
        chosen = [0] + sorted(best)
        nodes = search.nodes
    else:
        search = _CliqueSearch(adj, cfg, target)
        seed = _greedy_seed(adj, full)
        best, complete = search.run(full, seed)
        chosen = sorted(best)
        nodes = search.nodes

    witness = PartitionedCode.from_supports(params, [supports[i] for i in chosen])
    return _verified(params, witness, complete, nodes, target)


def _verified(params, witness, complete, nodes, target) -> OracleResult:
    verify_mcwc(witness).require("oracle produced an invalid witness")
    return OracleResult(len(witness), witness, complete, nodes, target)


def max_cwc(n: int, d: int, w: int, cfg: SearchConfig = SearchConfig()) -> OracleResult:
    """Single-block convenience wrapper."""
    return max_mcwc(CodeParameters.uniform(1, n, w, d), cfg)
