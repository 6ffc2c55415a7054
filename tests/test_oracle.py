import itertools
from math import comb
from typing import Callable, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from mcwc import oracle
from mcwc.core import (
    CodeParameters,
    ConstructionError,
    DomainError,
    SizeError,
    VerificationReport,
    verify_mcwc,
)
from mcwc.bounds import best_of, gv_lower_bound, johnson_recursive, upper_bounds
from mcwc.oracle import SearchConfig, _Budget, _TargetReached, enumerate_words, max_mcwc


def reference_words(params):
    """Every word by definition: the product of each block's w-subsets in
    lexicographic order, with bits built from the joined support."""
    blocks = [itertools.combinations(range(start, end), w)
              for (start, end), w in zip(params.block_spans(), params.block_weights)]
    words = []
    for parts in itertools.product(*blocks):
        support = tuple(itertools.chain.from_iterable(parts))
        words.append((support, sum(1 << i for i in support)))
    return words


@st.composite
def enumeration_shapes(draw, max_words=2000):
    """1-3 blocks of length <= 9 and any weight 0..n + 1, so that blocks at
    and above half weight, full blocks, empty blocks and blocks with no word
    all occur, with at most ``max_words`` words."""
    lengths, weights, count = [], [], 1
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 9))
        w = draw(st.sampled_from([w for w in range(n + 2) if count * comb(n, w) <= max_words]))
        lengths.append(n)
        weights.append(w)
        count *= comb(n, w)
    return CodeParameters(tuple(lengths), tuple(weights), 0)


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_words(CodeParameters((5, 7), (2, 2), 6))) == 10 * 21
        assert len(enumerate_words(CodeParameters((4,), (0,), 2))) == 1

    def test_block_offsets(self):
        words = enumerate_words(CodeParameters((2, 2), (1, 1), 2))
        assert words == [((0, 2), 0b101), ((0, 3), 0b1001), ((1, 2), 0b110), ((1, 3), 0b1010)]

    @settings(max_examples=150, deadline=None)
    @given(enumeration_shapes())
    @example(CodeParameters((9,), (8,), 0))
    @example(CodeParameters((3, 5), (3, 4), 0))
    @example(CodeParameters((4, 6, 2), (1, 5, 3), 0))  # below, above and over n
    def test_equals_the_definition(self, shape):
        # list for list, order included: blocks above half weight take their
        # bits from the complements, which must not change the list
        assert enumerate_words(shape) == reference_words(shape)


def reference_graph(supports, d):
    """The compatibility graph by comparing every pair of words: row i has
    bit j set when words i and j are at distance >= d."""
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
    return adj


@st.composite
def shapes(draw, max_words=120):
    """1-3 blocks of length <= 8 and any weight 0..n (so blocks above half
    weight occur), with at most ``max_words`` words."""
    lengths, weights, count = [], [], 1
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 8))
        w = draw(st.sampled_from([w for w in range(n + 1) if count * comb(n, w) <= max_words]))
        lengths.append(n)
        weights.append(w)
        count *= comb(n, w)
    return CodeParameters(tuple(lengths), tuple(weights), 0)


class TestCompatibilityGraph:
    @settings(max_examples=120, deadline=None)
    @given(shapes())
    def test_graph_equals_pair_loop(self, shape):
        words = enumerate_words(shape)
        for support, bits in words:
            assert bits == sum(1 << i for i in support)
        supports = [s for s, _ in words]
        for d in range(3, 2 * shape.canonical().total_weight + 1):
            params = CodeParameters(shape.block_lengths, shape.block_weights, d)
            assert oracle._compatibility_graph(params, words) == \
                reference_graph(supports, d), d


class TestKnownValues:
    def test_t_2_3_2_3(self):
        assert max_mcwc(CodeParameters((3, 3), (2, 2), 6)).size == 1

    def test_t_2_3_2_5(self):
        assert max_mcwc(CodeParameters((3, 5), (2, 2), 6)).size == 2

    def test_t_2_5_2_5(self):
        assert max_mcwc(CodeParameters((5, 5), (2, 2), 6)).size == 5

    def test_t_2_5_2_7(self):
        result = max_mcwc(CodeParameters((5, 7), (2, 2), 6))
        assert result.size == 6 and result.complete

    def test_a_5_4_2(self):
        assert max_mcwc(CodeParameters.uniform(1, 5, 2, 4)).size == 2

    def test_a_4_2_2(self):
        assert max_mcwc(CodeParameters.uniform(1, 4, 2, 2)).size == 6

    def test_a_6_4_3(self):
        # sandwiched by the LP relaxation
        from mcwc.lp import lp_bound

        exact = max_mcwc(CodeParameters.uniform(1, 6, 3, 4)).size
        assert exact == 4
        assert exact <= lp_bound(CodeParameters.uniform(1, 6, 3, 4)).value

    def test_distance_two_whole_space(self):
        for n, w in [(5, 2), (6, 3)]:
            from math import comb

            assert max_mcwc(CodeParameters.uniform(1, n, w, 2)).size == comb(n, w)

    def test_infeasible_weight(self):
        result = max_mcwc(CodeParameters((3,), (4,), 2))
        assert result.size == 0 and result.complete

    def test_unreachable_distance(self):
        result = max_mcwc(CodeParameters((6, 6), (1, 1), 10))
        assert result.size == 1 and result.complete
        # weight 5 of 6 is as far from reaching 10 as weight 1
        result = max_mcwc(CodeParameters((6, 6), (1, 5), 10))
        assert result.size == 1 and result.complete and result.nodes == 0

    def test_mixed_twin_searches_against_the_uniform_bound(self):
        # (7, 7; 3, 4) is uniform(2, 7, 3, 10) with its second block
        # complemented; both get the LP's upper bound, 2
        twin = max_mcwc(CodeParameters((7, 7), (3, 4), 10))
        uniform = max_mcwc(CodeParameters.uniform(2, 7, 3, 10))
        assert twin.upper_bound == uniform.upper_bound == 2
        assert twin.size == uniform.size and twin.complete


class ReferenceSearch:
    """Branch and bound on an adjacency list of int bitmasks: the search
    kernel as it was before its node was inlined, kept as the reference that
    :class:`oracle._CliqueSearch` must match tree for tree.

    ``make_orbits`` is called at most once and returns, per vertex, the
    bitmask of its orbit under a group of graph automorphisms that maps the
    candidate set onto itself; the top level drops a whole orbit per branch.
    """

    def __init__(self, adj: list[int], cfg: SearchConfig, target: int,
                 make_orbits: Callable[[], list[int]]):
        self.adj = adj
        full = (1 << len(adj)) - 1
        # the candidates that stay available after coloring vertex v
        self.nonadj = [full ^ (row | 1 << v) for v, row in enumerate(adj)]
        self.node_budget = cfg.node_budget
        self.target = target
        self.make_orbits = make_orbits
        self.orbits: Optional[list[int]] = None
        self.nodes = 0
        self.best: list[int] = []
        self.stack: list[int] = []

    def _color_order(self, p: int, kmin: int) -> list[tuple[int, int]]:
        """Greedy coloring of the candidate set; returns the (vertex, color)
        pairs with color > ``kmin`` in increasing color order.  A color bounds
        the clique among the candidates up to its pair, so the vertices of
        colors <= ``kmin`` cannot beat the incumbent and are not recorded."""
        nonadj = self.nonadj
        color = 0
        rest = p
        while rest and color < kmin:
            color += 1
            avail = rest
            while avail:
                v = avail.bit_length() - 1
                avail &= nonadj[v]
                rest ^= 1 << v
        order: list[tuple[int, int]] = []
        append = order.append
        while rest:
            color += 1
            avail = rest
            while avail:
                v = avail.bit_length() - 1
                avail &= nonadj[v]
                rest ^= 1 << v
                append((v, color))
        return order

    def _expand(self, p: int, top: bool = False):
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
        for v, bound in reversed(self._color_order(p, len(self.best) - depth)):
            if depth + bound <= len(self.best):
                return
            if top and not p >> v & 1:
                continue  # dropped with the orbit of an earlier branch
            stack.append(v)
            self._expand(p & adj[v])
            stack.pop()
            if top:
                # every clique through another member of v's orbit maps onto
                # one through v inside the same orbit-closed candidate set
                if self.orbits is None:
                    self.orbits = self.make_orbits()
                p &= ~self.orbits[v]
            else:
                p ^= 1 << v

    def run(self, p: int, seed: list[int]) -> tuple[list[int], str]:
        """(best clique, stop reason) over the candidates ``p``."""
        self.best = list(seed)
        if len(self.best) >= self.target:
            return self.best, "target-reached"
        try:
            self._expand(p, top=True)
        except _TargetReached:
            return self.best, "target-reached"  # incumbent met a proven upper bound
        except _Budget:
            return self.best, "node-budget"
        return self.best, "exhausted"


def plain_order(p: int, kmin: int) -> list[tuple[int, int]]:
    """Reference candidate order: one color per vertex, from the highest vertex
    down, keeping the colors above ``kmin``.  Expanded lowest first, each
    vertex is bounded by the number of candidates still left."""
    order: list[tuple[int, int]] = []
    color = 0
    while p:
        v = p.bit_length() - 1
        color += 1
        if color > kmin:
            order.append((v, color))
        p &= ~(1 << v)
    return order


def _use_plain_order(mp):
    """Swap the search for the reference search with the reference order, in
    :func:`max_mcwc` and in :func:`unreduced_search`."""
    mp.setattr(ReferenceSearch, "_color_order", staticmethod(plain_order))
    mp.setattr(oracle, "_CliqueSearch", ReferenceSearch)


def unreduced_search(params, cfg=SearchConfig()):
    """:func:`max_mcwc` without the symmetry reduction, as a reference: the
    reference search starts from an empty root over every word, and each
    vertex is its own orbit, so the top level drops one vertex per branch.
    Under :func:`_use_plain_order` it takes the reference order too."""
    words = enumerate_words(params)
    d = params.distance
    if not words or d > 2 * params.canonical().total_weight or d <= 2:
        return max_mcwc(params, cfg)  # a trivial answer, which no search makes
    adj = oracle._compatibility_graph(params, words)
    table = upper_bounds(params)
    target = best_of(table).value
    singletons = [1 << v for v in range(len(words))]
    search = ReferenceSearch(adj, cfg, target, lambda: singletons)
    everything = (1 << len(words)) - 1
    best, stop = search.run(everything, oracle._greedy_seed(adj, everything))
    chosen = [words[i] for i in sorted(best)]
    return oracle._verified(params, chosen, stop, search.nodes, target, table)


class TestSearchBehavior:
    def test_witness_verifies(self):
        for params in [
            CodeParameters((5, 7), (2, 2), 6),
            CodeParameters.uniform(1, 7, 3, 4),
            CodeParameters.uniform(2, 4, 2, 4),
        ]:
            result = max_mcwc(params)
            assert verify_mcwc(result.witness).valid
            assert len(result.witness) == result.size

    def test_determinism_and_symmetry_agreement(self):
        params = CodeParameters((5, 7), (2, 2), 6)
        a = max_mcwc(params)
        b = max_mcwc(params)
        assert a.witness.support_set() == b.witness.support_set()
        c = unreduced_search(params)
        assert c.complete and c.size == a.size

    def test_vertex_cap(self):
        with pytest.raises(SizeError):
            max_mcwc(CodeParameters((9, 9), (4, 4), 6), SearchConfig(vertex_cap=100))

    def test_budget_pin_8_2_1_6(self):
        result = max_mcwc(CodeParameters.uniform(8, 2, 1, 6), SearchConfig(node_budget=50_000))
        assert (result.size, result.complete, result.nodes) == (19, False, 50_001)

    def test_budget_exhaustion_reports_lower_bound(self):
        params = CodeParameters.uniform(8, 2, 1, 6)
        result = max_mcwc(params, SearchConfig(node_budget=2000))
        assert not result.complete
        assert result.size >= 1
        assert verify_mcwc(result.witness).valid

    def test_sandwich_against_bounds(self):
        params = CodeParameters((5, 7), (2, 2), 6)
        result = max_mcwc(params)
        assert gv_lower_bound(CodeParameters.uniform(2, 5, 2, 6)).applicable
        assert result.size <= johnson_recursive(params).value

    def test_config_validation(self):
        message = "^the node budget and the vertex cap must be positive integers$"
        for field in ("node_budget", "vertex_cap"):
            for value in (0, 2.5, True, "5"):
                with pytest.raises(DomainError, match=message):
                    SearchConfig(**{field: value})

    def test_coloring_toggle_agrees(self, monkeypatch):
        for params in [
            CodeParameters((5, 5), (2, 2), 6),
            CodeParameters.uniform(1, 7, 3, 4),
        ]:
            fast = max_mcwc(params)
            with monkeypatch.context() as mp:
                _use_plain_order(mp)
                plain = max_mcwc(params)
            assert plain.size == fast.size

    @pytest.mark.parametrize("params, budget, stop", [
        (CodeParameters((3,), (4,), 2), 100, "trivial"),
        (CodeParameters.uniform(1, 5, 2, 2), 100, "trivial"),
        (CodeParameters.uniform(2, 5, 3, 4), 20_000, "target-reached"),
        (CodeParameters((5, 7), (2, 2), 6), 20_000, "exhausted"),
        (CodeParameters.uniform(3, 4, 2, 6), 20_000, "exhausted"),
        (CodeParameters.uniform(8, 2, 1, 6), 2_000, "node-budget"),
    ])
    def test_stop_reason(self, params, budget, stop):
        result = max_mcwc(params, SearchConfig(node_budget=budget))
        assert result.stop == stop
        assert result.complete == (stop != "node-budget")


@st.composite
def search_instances(draw, max_vertices=28):
    """A graph on 1-``max_vertices`` vertices as bitset rows (each edge drawn
    with probability 1/2 or 3/4), candidates, orbit masks that partition the
    vertices, a seed clique or none, a target and a node budget down to 1.
    The orbits need not come from automorphisms: the kernels must build the
    same tree on any input, not only on a sound one."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.integers(0, (1 << len(pairs)) - 1))
    if draw(st.booleans()):
        edges |= draw(st.integers(0, (1 << len(pairs)) - 1))
    adj = [0] * n
    for k, (i, j) in enumerate(pairs):
        if edges >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    orbit: dict[int, int] = {}
    for v, label in enumerate(labels):
        orbit[label] = orbit.get(label, 0) | 1 << v
    p = draw(st.integers(0, (1 << n) - 1))
    seed = oracle._greedy_seed(adj, p) if draw(st.booleans()) else []
    target = draw(st.integers(len(seed), n + 1))
    budget = draw(st.one_of(st.integers(1, 20), st.integers(1, 400)))
    return adj, [orbit[label] for label in labels], p, seed, target, budget


def both_kernels(adj, orbits, p, seed, target, budget):
    """(best, stop, nodes) of the package's search and of the reference."""
    cfg = SearchConfig(node_budget=budget)
    out = []
    for kernel in (oracle._CliqueSearch, ReferenceSearch):
        search = kernel(adj, cfg, target, lambda: orbits)
        best, stop = search.run(p, list(seed))
        out.append((best, stop, search.nodes))
    return out


def complete_graph(n):
    return [(1 << n) - 1 ^ 1 << v for v in range(n)]


# K6 over every vertex, each its own orbit: (target, budget, stop, nodes); the
# top level is node 1 and the first leaf, the clique of all six, is node 7
INNER_STOPS = [
    (4, 100, "target-reached", 7),
    (7, 1, "node-budget", 2),
    (7, 4, "node-budget", 5),
    (7, 100, "exhausted", 7),
    (0, 100, "target-reached", 0),  # the seed meets the target
]


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(search_instances())
    def test_same_tree_as_the_reference(self, instance):
        new, reference = both_kernels(*instance)
        assert new == reference

    @pytest.mark.parametrize("target, budget, stop, nodes", INNER_STOPS)
    def test_stops_inside_the_tree(self, target, budget, stop, nodes):
        adj = complete_graph(6)
        singletons = [1 << v for v in range(6)]
        new, reference = both_kernels(adj, singletons, (1 << 6) - 1, [], target, budget)
        assert new == reference
        assert new[1:] == (stop, nodes)


@st.composite
def orbit_shapes(draw, max_words=60):
    """1-3 blocks of length <= 6 and any weight, each new or a repeat of an
    earlier block (so blocks of equal shape occur), with at most
    ``max_words`` words."""
    blocks, count = [], 1
    for _ in range(draw(st.integers(1, 3))):
        fits = [(n, w) for n in range(1, 7) for w in range(n + 1)
                if count * comb(n, w) <= max_words]
        repeats = [b for b in blocks if b in fits]
        n, w = draw(st.sampled_from(repeats if repeats and draw(st.booleans()) else fits))
        blocks.append((n, w))
        count *= comb(n, w)
    return CodeParameters(tuple(n for n, _ in blocks), tuple(w for _, w in blocks), 0)


def orbit_permutation(params, a, b):
    """A coordinate permutation, as a dict, that fixes the support of word 0
    and maps support ``a`` onto ``b``; raises when their (block shape,
    overlap with word 0) profiles differ.  Blocks of equal profile are paired
    in order; inside a pair, a's points on word 0, a's other points, word 0's
    other points and the rest go to b's counterparts in order."""
    zero = set(enumerate_words(params)[0][0])
    spans = params.block_spans()

    def parts(s, j):
        block = range(*spans[j])
        return ([i for i in block if i in s and i in zero],
                [i for i in block if i in s and i not in zero],
                [i for i in block if i not in s and i in zero],
                [i for i in block if i not in s and i not in zero])

    def profile(s, j):
        return params.block_lengths[j], params.block_weights[j], len(parts(s, j)[0])

    targets: dict = {}
    for j in range(len(spans)):
        targets.setdefault(profile(b, j), []).append(j)
    perm = {}
    for j in range(len(spans)):
        k = targets[profile(a, j)].pop(0)
        for src, dst in zip(parts(a, j), parts(b, k)):
            assert len(src) == len(dst)
            perm.update(zip(src, dst))
    return perm


class TestOrbitRejection:
    @settings(max_examples=60, deadline=None)
    @given(orbit_shapes(), st.data())
    def test_words_of_one_orbit_are_mapped_onto_each_other(self, shape, data):
        words = enumerate_words(shape)
        supports = [s for s, _ in words]
        index = {s: i for i, s in enumerate(supports)}
        masks = oracle._orbit_masks(shape, words)
        for _ in range(3):
            i = data.draw(st.integers(0, len(words) - 1))
            j = data.draw(st.sampled_from([j for j in range(len(words)) if masks[i] >> j & 1]))
            assert masks[j] == masks[i]
            perm = orbit_permutation(shape, supports[i], supports[j])
            assert sorted(perm) == sorted(perm.values()) == list(range(shape.total_length))
            image = [index[tuple(sorted(perm[c] for c in s))] for s in supports]
            assert image[0] == 0 and image[i] == j
            for x, y in itertools.combinations(range(len(words)), 2):
                dist = len(set(supports[x]) ^ set(supports[y]))
                assert len(set(supports[image[x]]) ^ set(supports[image[y]])) == dist

    @settings(max_examples=40, deadline=None)
    @given(orbit_shapes(), st.data())
    def test_symmetry_reduction_keeps_the_size(self, shape, data):
        reach = 2 * shape.canonical().total_weight
        d = data.draw(st.integers(3, max(3, reach)))
        params = CodeParameters(shape.block_lengths, shape.block_weights, d)
        cfg = SearchConfig(node_budget=20_000)
        reduced, full = max_mcwc(params, cfg), unreduced_search(params, cfg)
        if reduced.complete and full.complete:
            assert reduced.size == full.size


class TestBoundTable:
    def test_table_is_computed_and_kept(self):
        params = CodeParameters.uniform(3, 4, 2, 6)
        result = max_mcwc(params, SearchConfig(node_budget=100))
        table = upper_bounds(params)
        assert {k: r.value for k, r in result.bounds.items()} == \
            {k: r.value for k, r in table.items()}
        assert result.upper_bound == best_of(table).value == 15

    def test_trivial_answer_keeps_no_table(self):
        result = max_mcwc(CodeParameters.uniform(1, 5, 2, 2))
        assert result.bounds is None and result.upper_bound == result.size == 10


def test_invalid_witness_raises_construction_error(monkeypatch):
    monkeypatch.setattr(oracle, "verify_mcwc", lambda code: VerificationReport(False, "forced"))
    with pytest.raises(ConstructionError) as exc:
        max_mcwc(CodeParameters((3, 5), (2, 2), 6))
    assert str(exc.value) == "oracle produced an invalid witness: forced"


# (params, node budget, {(symmetry reduction, greedy coloring): (size, complete,
# nodes, upper_bound, indices of the witness words in enumerate_words order)}),
# recorded before the search was folded into one path; the (True, True) node
# counts of (5, 7; 2, 2; 6) and uniform(3, 4, 2, 6) and the (True, False) entry
# of (5, 7; 2, 2; 6) were re-recorded when the top level began to branch once
# per orbit (sizes and witnesses unchanged).  The entries without the reduction
# were recorded from max_mcwc when the reduction could be switched off, and now
# pin unreduced_search, which makes that search; the entries without the
# reduction or without the greedy coloring run ReferenceSearch, the others the
# package's kernel
U = CodeParameters.uniform
PINNED = [
    (CodeParameters((3,), (4,), 2), 10_000_000, {
        (True, True): (0, True, 0, 0, []),
        (True, False): (0, True, 0, 0, []),
        (False, True): (0, True, 0, 0, []),
        (False, False): (0, True, 0, 0, []),
    }),
    (U(1, 5, 2, 2), 10_000_000, {
        (True, True): (10, True, 0, 10, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        (True, False): (10, True, 0, 10, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        (False, True): (10, True, 0, 10, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        (False, False): (10, True, 0, 10, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    }),
    (CodeParameters((6, 6), (1, 1), 10), 10_000_000, {
        (True, True): (1, True, 0, 1, [0]),
        (True, False): (1, True, 0, 1, [0]),
        (False, True): (1, True, 0, 1, [0]),
        (False, False): (1, True, 0, 1, [0]),
    }),
    (CodeParameters((3, 5), (2, 2), 6), 10_000_000, {
        (True, True): (2, True, 0, 2, [0, 17]),
        (True, False): (2, True, 0, 2, [0, 17]),
        (False, True): (2, True, 0, 2, [0, 17]),
        (False, False): (2, True, 0, 2, [0, 17]),
    }),
    (CodeParameters((4, 5, 3), (2, 1, 1), 4), 10_000_000, {
        (True, True): (18, True, 0, 18, [0, 4, 8, 16, 18, 26, 32, 36, 40, 47, 51, 55, 61, 63, 71, 75, 79, 83]),
        (True, False): (18, True, 0, 18, [0, 4, 8, 16, 18, 26, 32, 36, 40, 47, 51, 55, 61, 63, 71, 75, 79, 83]),
        (False, True): (18, True, 0, 18, [0, 4, 8, 16, 18, 26, 32, 36, 40, 47, 51, 55, 61, 63, 71, 75, 79, 83]),
        (False, False): (18, True, 0, 18, [0, 4, 8, 16, 18, 26, 32, 36, 40, 47, 51, 55, 61, 63, 71, 75, 79, 83]),
    }),
    (U(1, 8, 3, 4), 10_000_000, {
        (True, True): (8, True, 9, 8, [0, 12, 16, 26, 35, 39, 43, 53]),
        (True, False): (8, True, 26, 8, [0, 11, 18, 27, 32, 41, 44, 51]),
        (False, True): (8, True, 9, 8, [3, 9, 14, 22, 28, 44, 46, 54]),
        (False, False): (8, True, 27, 8, [0, 11, 18, 27, 32, 41, 44, 51]),
    }),
    (U(1, 9, 6, 4), 10_000_000, {
        (True, True): (12, True, 15, 12, [0, 7, 14, 27, 32, 40, 49, 50, 64, 66, 74, 78]),
        (True, False): (12, True, 1413, 12, [0, 7, 14, 25, 34, 42, 47, 50, 64, 66, 72, 80]),
        (False, True): (12, True, 16, 12, [1, 5, 12, 27, 33, 40, 49, 50, 65, 66, 73, 78]),
        (False, False): (12, True, 1414, 12, [0, 7, 14, 25, 34, 42, 47, 50, 64, 66, 72, 80]),
    }),
    (U(2, 5, 3, 4), 20_000, {
        (True, True): (20, True, 797, 20, [0, 5, 11, 14, 22, 26, 33, 37, 44, 48, 50, 59, 62, 69, 71, 77, 83, 88, 95, 96]),
        (True, False): (19, False, 20001, 20, [0, 5, 11, 14, 22, 23, 32, 36, 41, 47, 50, 58, 63, 67, 74, 78, 85, 86, 99]),
        (False, True): (20, True, 798, 20, [0, 5, 11, 14, 22, 26, 33, 37, 44, 48, 50, 59, 62, 69, 71, 77, 83, 88, 95, 96]),
        (False, False): (19, False, 20001, 20, [0, 5, 11, 14, 22, 23, 32, 36, 41, 47, 50, 58, 63, 67, 74, 78, 85, 86, 99]),
    }),
    (CodeParameters((5, 7), (2, 2), 6), 20_000, {
        (True, True): (6, True, 266, 7, [0, 32, 60, 103, 139, 191]),
        (True, False): (6, True, 3277, 7, [0, 32, 60, 103, 139, 191]),
        (False, True): (6, False, 20001, 7, [0, 32, 60, 103, 139, 191]),
        (False, False): (6, False, 20001, 7, [0, 32, 60, 103, 139, 191]),
    }),
    (U(3, 4, 2, 6), 20_000, {
        (True, True): (12, True, 1937, 15, [0, 29, 43, 52, 92, 105, 129, 140, 154, 157, 185, 204]),
        (True, False): (12, False, 20001, 15, [0, 29, 43, 52, 92, 105, 129, 140, 154, 157, 185, 204]),
        (False, True): (12, False, 20001, 15, [0, 29, 43, 52, 92, 105, 129, 140, 154, 157, 185, 204]),
        (False, False): (12, False, 20001, 15, [0, 29, 43, 52, 92, 105, 129, 140, 154, 157, 185, 204]),
    }),
    (U(1, 10, 4, 4), 10, {
        (True, True): (21, False, 11, 30, [0, 13, 23, 26, 37, 42, 43, 50, 55, 63, 91, 96, 104, 107, 110, 140, 150, 153, 195, 200, 209]),
        (True, False): (21, False, 11, 30, [0, 13, 23, 26, 37, 42, 43, 50, 55, 63, 91, 96, 104, 107, 110, 140, 150, 153, 195, 200, 209]),
        (False, True): (19, False, 11, 30, [5, 7, 18, 26, 29, 35, 58, 63, 65, 86, 90, 111, 124, 129, 142, 165, 170, 175, 209]),
        (False, False): (19, False, 11, 30, [5, 7, 18, 26, 29, 35, 58, 63, 65, 86, 90, 111, 124, 129, 142, 165, 170, 175, 209]),
    }),
    (U(8, 2, 1, 6), 2_000, {
        (True, True): (19, False, 2001, 25, [0, 13, 22, 27, 35, 74, 85, 108, 114, 121, 135, 152, 164, 170, 177, 191, 201, 211, 222]),
        (True, False): (17, False, 2001, 25, [0, 31, 35, 44, 53, 58, 69, 74, 83, 92, 102, 105, 112, 134, 137, 175, 247]),
        (False, True): (19, False, 2001, 25, [0, 13, 22, 27, 35, 74, 85, 108, 114, 121, 135, 152, 164, 170, 177, 191, 201, 211, 222]),
        (False, False): (17, False, 2001, 25, [0, 31, 35, 44, 53, 58, 69, 74, 83, 92, 102, 105, 112, 134, 137, 175, 247]),
    }),
]


def _shape_id(params):
    lengths = "_".join(map(str, params.block_lengths))
    weights = "_".join(map(str, params.block_weights))
    return f"n{lengths}-w{weights}-d{params.distance}"


@pytest.mark.parametrize("params, budget, expected", PINNED,
                         ids=[_shape_id(params) for params, _, _ in PINNED])
def test_pinned_results(params, budget, expected, monkeypatch):
    words = [support for support, _ in enumerate_words(params)]
    cfg = SearchConfig(node_budget=budget)
    for (symmetry, coloring), (size, complete, nodes, upper, indices) in expected.items():
        with monkeypatch.context() as mp:
            if not coloring:
                _use_plain_order(mp)
            result = (max_mcwc if symmetry else unreduced_search)(params, cfg)
        got = (result.size, result.complete, result.nodes, result.upper_bound)
        assert got == (size, complete, nodes, upper), (symmetry, coloring)
        assert sorted(result.witness.support_set()) == [words[i] for i in indices]
