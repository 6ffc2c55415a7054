"""Exact maximum-size search for small parameter sets.

Words with the required block weights are the vertices of a compatibility
graph (edges join words at distance >= d); the largest code is a maximum
clique.  Every parameter set follows one path:

* :func:`enumerate_words` lists the words once, each support with its packed
  bits, combining every block's combinations by product and OR; a block
  above half weight gets its bits from its smaller side, the complements;
* trivial answers first: with no word, a distance no two words reach (one
  word is optimal) or d <= 2 (every word fits), the answer is a prefix of
  the words whose length is also its upper bound;
* otherwise the graph's rows are folded from per-point word masks (two words
  are closer than d exactly when they share enough canonical points; see
  :func:`_compatibility_graph`), and one branch and bound over its bitset
  rows, seeded by greedy cliques, stops early once the incumbent meets the
  best of the :func:`upper_bounds` table.

The search is restricted to cliques through vertex 0, which is valid because
coordinate permutations inside blocks act transitively on the words.  The top
level of the search then branches once per orbit under the stabilizer of
word 0 (:func:`_orbit_masks`): after a branch on v returns, v's whole orbit
leaves the candidates, since every clique through another member maps onto
one through v.  The masks are computed only once the first top-level branch
has returned without meeting the target.  The candidate order and its pruning
bounds come from a greedy coloring that records only the vertices whose
color can still beat the incumbent (BBMC's k_min, San Segundo et al. 2011):
every candidate is still colored, so the bounds and the tree are those of
the full coloring, and the vertices left out are those the bound would prune
anyway.  Each node below the top level colors inline, keeps its vertices and
their colors in two lists, returns before building them when the first k_min
colors take every candidate, and names a vertex v by h = v + 1, the
``bit_length`` of its bit, which indexes its bit, row and non-neighbours.
The search is single-threaded and deterministic.
The witness is made from the enumerated (support, bits) pairs of the chosen
words and checked by :func:`verify_mcwc` on every path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from math import comb, prod
from typing import Callable, Optional

from .bounds import BoundResult, best_of, upper_bounds
from .core import (
    CodeParameters,
    DomainError,
    PartitionedCode,
    PartitionedWord,
    SizeError,
    _block_masks,
    _canonical_supports,
    _holding,
    canonical_weight,
    verify_mcwc,
)


@dataclass(frozen=True)
class SearchConfig:
    vertex_cap: int = 2000
    node_budget: int = 10_000_000

    def __post_init__(self):
        for cap in (self.vertex_cap, self.node_budget):
            if not isinstance(cap, int) or isinstance(cap, bool) or cap <= 0:
                raise DomainError("the node budget and the vertex cap must be positive integers")


@dataclass(frozen=True)
class OracleResult:
    size: int
    witness: PartitionedCode
    # why the answer stands: "trivial" (no search needed), "target-reached"
    # (the incumbent met the upper bound), "exhausted" (the search finished)
    # or "node-budget" (the budget ran out, size is a lower bound only)
    stop: str
    nodes: int
    upper_bound: int
    # the upper_bounds table the search target came from; None for a trivial
    # answer, which needs no table
    bounds: Optional[dict[str, BoundResult]] = field(default=None, compare=False)

    @property
    def complete(self) -> bool:
        """True when ``size`` is proven optimal."""
        return self.stop != "node-budget"


class _Budget(Exception):
    pass


class _TargetReached(Exception):
    pass


class _CliqueSearch:
    """Branch and bound on an adjacency list of int bitmasks.

    ``make_orbits`` is called at most once and returns, per vertex, the
    bitmask of its orbit under a group of graph automorphisms that maps the
    candidate set onto itself; the top level drops a whole orbit per branch.
    Inside the search a vertex v goes by h = v + 1, the ``bit_length`` of its
    bit, which indexes the tables directly.
    """

    def __init__(self, adj: list[int], cfg: SearchConfig, target: int,
                 make_orbits: Callable[[], list[int]]):
        full = (1 << len(adj)) - 1
        self.bit = [0, *(1 << v for v in range(len(adj)))]
        self.adj = [0, *adj]
        # the candidates that stay available after coloring vertex h
        self.nonadj = [0, *(full ^ (row | 1 << v) for v, row in enumerate(adj))]
        self.node_budget = cfg.node_budget
        self.target = target
        self.make_orbits = make_orbits
        self.nodes = 0

    def run(self, p: int, seed: list[int]) -> tuple[list[int], str]:
        """(best clique, stop reason) over the candidates ``p``."""
        bit, adj, nonadj = self.bit, self.adj, self.nonadj
        budget, target = self.node_budget, self.target
        if len(seed) >= target:
            return list(seed), "target-reached"
        best = [v + 1 for v in seed]
        size = len(best)
        path = [0] * len(adj)  # path[:depth] is the clique of the current node
        nodes = 1

        def greedy_order(p: int, kmin: int) -> tuple[list[int], list[int]]:
            """Greedy coloring of the candidates ``p``: the vertices of the
            colors above ``kmin`` and their colors, in increasing color order.
            A color bounds the clique among the candidates up to its vertex,
            so the vertices of colors <= ``kmin`` cannot beat the incumbent
            and are not recorded.  ``expand`` inlines this loop, and returns
            early once the first ``kmin`` colors take every candidate."""
            color = 0
            rest = p
            while rest and color < kmin:
                color += 1
                avail = rest
                while avail:
                    h = avail.bit_length()
                    avail &= nonadj[h]
                    rest ^= bit[h]
            hs: list[int] = []
            colors: list[int] = []
            while rest:
                color += 1
                avail = rest
                while avail:
                    h = avail.bit_length()
                    avail &= nonadj[h]
                    rest ^= bit[h]
                    hs.append(h)
                    colors.append(color)
            return hs, colors

        def expand(p: int, depth: int):
            """A node below the top level, with ``path[:depth]`` chosen."""
            nonlocal nodes, size, best
            nodes += 1
            if nodes > budget:
                raise _Budget
            if not p:
                if depth > size:
                    best = path[:depth]
                    size = depth
                    if size >= target:
                        raise _TargetReached
                return
            color = 0
            rest = p
            kmin = size - depth
            while color < kmin:
                color += 1
                avail = rest
                while avail:
                    h = avail.bit_length()
                    avail &= nonadj[h]
                    rest ^= bit[h]
                if not rest:
                    return  # no candidate can beat the incumbent
            hs = []
            colors = []
            while rest:
                color += 1
                avail = rest
                while avail:
                    h = avail.bit_length()
                    avail &= nonadj[h]
                    rest ^= bit[h]
                    hs.append(h)
                    colors.append(color)
            below = depth + 1
            for h, bound in zip(reversed(hs), reversed(colors)):
                if depth + bound <= size:
                    return
                path[depth] = h
                expand(p & adj[h], below)
                p ^= bit[h]

        # the top level, node 1 (which no positive budget stops), holds the
        # empty clique and branches once per orbit
        hs, colors = greedy_order(p, size)
        orbits = None
        try:
            for h, bound in zip(reversed(hs), reversed(colors)):
                if bound <= size:
                    break
                if not p & bit[h]:
                    continue  # dropped with the orbit of an earlier branch
                path[0] = h
                expand(p & adj[h], 1)
                # every clique through another member of h's orbit maps onto
                # one through h inside the same orbit-closed candidate set
                if orbits is None:
                    orbits = self.make_orbits()
                p &= ~orbits[h - 1]
        except _TargetReached:
            return [h - 1 for h in best], "target-reached"  # incumbent met a proven upper bound
        except _Budget:
            return [h - 1 for h in best], "node-budget"
        finally:
            self.nodes = nodes
        return [h - 1 for h in best], "exhausted"


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
    lexicographic block-major order of the supports.

    A block's bits are built from its smaller side (:func:`canonical_weight`):
    above half weight, the complements of the w-subsets in lexicographic order
    are the (n - w)-subsets in reverse lexicographic order, so each word's
    bits are the block mask XOR those of its complement."""
    bit = [1 << i for i in range(params.total_length)].__getitem__
    words = [((), 0)]
    for (start, end), w, mask in zip(params.block_spans(), params.block_weights,
                                     _block_masks(params.block_lengths)):
        points = range(start, end)
        side = canonical_weight(w, end - start)
        bits = [sum(map(bit, c)) for c in itertools.combinations(points, side)]
        if side != w:
            bits = [mask ^ b for b in reversed(bits)]
        block = list(zip(itertools.combinations(points, w), bits))
        words = [(s + c, b | cb) for s, b in words for c, cb in block]
    return words


def _compatibility_graph(params: CodeParameters, words: list) -> list[int]:
    """Bitset rows of the graph joining (support, bits) words at distance >= d,
    the parameters' distance, for 3 <= d <= twice the canonical total weight.

    On canonical supports of total weight W, two words are closer than d
    exactly when they share t = W - ceil(d / 2) + 1 points, so each row is
    every word but those that hold t of its points: with ``through[x]`` the
    words that hold point x, :func:`_holding` folds the row's W masks.
    """
    d = params.distance
    t = params.canonical().total_weight - (d + 1) // 2 + 1
    supports = _canonical_supports(params, (s for s, _ in words), (b for _, b in words))
    through = [0] * params.total_length
    bit = 1
    for support in supports:
        for x in support:
            through[x] |= bit
        bit <<= 1
    full = bit - 1
    return [full ^ _holding(through, support, t) for support in supports]


def _orbit_masks(params: CodeParameters, words: list) -> list[int]:
    """Per (support, bits) word, the bitmask of its orbit under the coordinate
    permutations that fix word 0: permutations inside each block that keep
    word 0's support there, and swaps of blocks of equal shape.  A word's
    orbit key is the sorted tuple of (block shape, overlap with word 0 in the
    block)."""
    zero = words[0][1]
    parts = [(n, w, zero & mask) for mask, n, w in zip(
        _block_masks(params.block_lengths), params.block_lengths, params.block_weights)]
    keys = [tuple(sorted((n, w, (bits & z).bit_count()) for n, w, z in parts))
            for _, bits in words]
    orbit: dict[tuple, int] = {}
    for i, key in enumerate(keys):
        orbit[key] = orbit.get(key, 0) | 1 << i
    return [orbit[key] for key in keys]


def max_mcwc(params: CodeParameters, cfg: SearchConfig = SearchConfig()) -> OracleResult:
    """Exact largest code size for the parameters, with a verified witness.

    The search stops once it meets the best of the :func:`upper_bounds` table
    of ``params``, which the result keeps.  Raises :class:`SizeError` when the
    vertex count exceeds ``cfg.vertex_cap``.  When a budget runs out the
    incumbent is returned with ``complete=False``; ``stop`` says why the
    search ended.
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
        return _verified(params, words[:size], "trivial", 0, size, None)
    adj = _compatibility_graph(params, words)
    bounds = upper_bounds(params)
    target = best_of(bounds).value
    # every word is equivalent to vertex 0 under within-block coordinate
    # permutations, so some maximum clique contains vertex 0; the stabilizer
    # of vertex 0 then leaves its neighbourhood, the candidates, unchanged
    search = _CliqueSearch(adj, cfg, target - 1, partial(_orbit_masks, params, words))
    best, stop = search.run(adj[0], _greedy_seed(adj, adj[0]))
    chosen = [words[i] for i in [0, *sorted(best)]]
    return _verified(params, chosen, stop, search.nodes, target, bounds)


def _verified(params, words, stop, nodes, target, bounds) -> OracleResult:
    witness = PartitionedCode(params, tuple(PartitionedWord(params, *w) for w in words))
    verify_mcwc(witness).require("oracle produced an invalid witness")
    return OracleResult(len(witness), witness, stop, nodes, target, bounds)
