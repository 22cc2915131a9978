"""Spanning 1-forest enumeration and the determinant expansion.

det L = sum over spanning 1-forests of (product of edge weights) *
(product over components of |1 - cycle gain|^2).  Single cycles,
trees, 1-trees, and unions of 1-trees all have closed forms, and an
n-edge spanning subgraph has nonzero Laplacian determinant exactly when
it is a spanning 1-forest with no balanced cycle.
"""

import cmath
import hashlib
import itertools
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_simple_cycles,
    forest_weight,
    random_connected_graph,
    random_unit,
    random_weighted,
    random_weights,
)
from gainlap import (
    GainGraph,
    TooLarge,
    OneTree,
    ValidationError,
    WeightedGainGraph,
    cycle_gain,
    det_direct,
    det_via_forests,
    enumerate_spanning_one_forests,
    is_spanning_one_forest,
    numerical_rank,
    spanning_subgraph,
    unit_weights,
    weighted_incidence,
    weighted_laplacian,
)
from gainlap import forests

#: The gain group T4 = {1, i, -1, -i}: cycle gains are exact, and many
#: cycles are balanced.
T4 = (1 + 0j, 1j, -1 + 0j, -1j)


def unit_cycle(n, gains):
    """Cycle 1-2-...-n-1 with the given gains on consecutive edges."""
    edges = [(i, i + 1, gains[i - 1]) for i in range(1, n)]
    edges.append((1, n, gains[-1].conjugate()))  # stored 1 < n; label was n -> 1
    return unit_weights(GainGraph(n, tuple(edges)))


def triangle_i():
    # cycle gain i when traversed 1 -> 2 -> 3 -> 1
    return unit_cycle(3, [1 + 0j, 1 + 0j, 1j])


class TestIsSpanningOneForest:
    def test_triangle_full_edge_set(self):
        wg = triangle_i()
        assert is_spanning_one_forest(wg, [(1, 2), (2, 3), (1, 3)])

    def test_too_few_edges(self):
        wg = triangle_i()
        assert not is_spanning_one_forest(wg, [(1, 2), (2, 3)])

    def test_chorded_square_with_pendant(self):
        g = GainGraph(
            4, ((1, 2, 1), (2, 3, 1), (1, 3, 1j), (3, 4, 1), (1, 4, 1))
        )
        wg = unit_weights(g)
        # triangle on {1,2,3} plus the pendant edge to 4
        assert is_spanning_one_forest(wg, [(1, 2), (2, 3), (1, 3), (3, 4)])

    def test_isolated_vertex_rejected(self):
        edges = [(u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)]
        edges.append((4, 5, 1))
        wg = unit_weights(GainGraph(5, tuple(edges)))
        # five edges inside the K4 block leave vertex 5 uncovered
        assert not is_spanning_one_forest(
            wg, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
        )
        assert is_spanning_one_forest(
            wg, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)]
        )

    def test_foreign_edge_rejected(self):
        with pytest.raises(ValidationError):
            is_spanning_one_forest(triangle_i(), [(1, 2), (2, 3), (2, 4)])

    @pytest.mark.parametrize("edges", [[(1, 2), (2, 3), (1, 2)], [(1, 2), (2, 3), (2, 1)]])
    def test_repeated_edge_rejected(self, edges):
        with pytest.raises(ValidationError, match="duplicates"):
            is_spanning_one_forest(triangle_i(), edges)

    @pytest.mark.parametrize("edges", [[(1, 2), (2, 3), (1, 2)], [(1, 2), (2, 3), (2, 1)]])
    def test_spanning_subgraph_refuses_a_repeated_edge(self, edges):
        """The subgraph refuses the list that the test refuses, with the same text."""
        with pytest.raises(ValidationError, match="^edge subset contains duplicates$"):
            spanning_subgraph(triangle_i(), edges)


class TestEnumerate:
    def test_a_forest_kept_while_the_search_goes_on(self):
        """A forest keeps its edges after the search has moved past it."""
        rng = np.random.default_rng(227)
        wg = random_weighted(rng, random_connected_graph(rng, 6, 3))
        n, pairs = wg.base.n, wg.base.edge_pairs()
        want = [s for s in itertools.combinations(pairs, n) if _naive_is_one_forest(n, s)]
        it = enumerate_spanning_one_forests(wg)
        first = next(it)
        rest = list(it)
        assert first.edges == want[0] and len(rest) == len(want) - 1 > 0

    def test_cycle_has_exactly_one(self):
        for n in (3, 5, 8):
            wg = unit_cycle(n, [1 + 0j] * n)
            forests = list(enumerate_spanning_one_forests(wg))
            assert len(forests) == 1
            (forest,) = forests
            assert len(forest.components) == 1
            assert set(forest.components[0].cycle) == set(range(1, n + 1))

    def test_tree_has_none(self):
        g = GainGraph(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1)))
        assert list(enumerate_spanning_one_forests(unit_weights(g))) == []

    def test_complete_four_count_regression(self):
        k4 = unit_weights(
            GainGraph(4, tuple((u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)))
        )
        forests = list(enumerate_spanning_one_forests(k4))
        # every 4-subset of K4's six edges spans and is unicyclic
        assert len(forests) == 15
        oracle = sum(
            1
            for subset in itertools.combinations(k4.base.edge_pairs(), 4)
            if _naive_is_one_forest(4, subset)
        )
        assert oracle == 15

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            wg = random_weighted(rng, random_connected_graph(rng, n, int(rng.integers(1, 4))))
            got = {f.edges for f in enumerate_spanning_one_forests(wg)}
            want = {
                subset
                for subset in itertools.combinations(wg.base.edge_pairs(), n)
                if _naive_is_one_forest(n, subset)
            }
            assert got == want

    def test_cycle_tagging(self):
        g = GainGraph(
            4, ((1, 2, 1), (2, 3, 1), (1, 3, 1j), (3, 4, 1), (1, 4, 1))
        )
        wg = unit_weights(g)
        forests = {f.edges: f for f in enumerate_spanning_one_forests(wg)}
        f = forests[((1, 2), (2, 3), (1, 3), (3, 4))]
        assert len(f.components) == 1
        assert f.components[0].cycle == (1, 2, 3)

    def test_vertex_limit(self):
        """Regression: a vertex limit refused every n > 10, though the
        subset budget already bounds the search; the 11-vertex path has
        no spanning 1-forest and det 0.0."""
        wg = unit_weights(GainGraph(11, tuple((i, i + 1, 1) for i in range(1, 11))))
        assert list(enumerate_spanning_one_forests(wg)) == []
        det = det_via_forests(wg)
        assert type(det) is float and det == 0.0

    def test_budget(self, monkeypatch):
        """The budget bounds n * C(m, n), the search's states: K5 has
        5 * C(10, 5) = 1260, so a budget of 1260 runs the search, one of
        1259 refuses it, and the enumeration reads the module constant.
        A 3-cycle has 3 * C(3, 3) = 3 states; a path has no 3-edge subset,
        so no state, and runs under any budget."""
        k5 = unit_weights(
            GainGraph(5, tuple((u, v, 1) for u in range(1, 6) for v in range(u + 1, 6)))
        )
        with pytest.raises(TooLarge, match=r"^5 \* C\(10, 5\) search states exceed the budget 1259$"):
            det_via_forests(k5, budget=1259)
        assert det_via_forests(k5, budget=1260) == pytest.approx(0.0, abs=1e-9)  # balanced
        monkeypatch.setattr(forests, "DEFAULT_SUBSET_BUDGET", 1259)
        with pytest.raises(TooLarge):
            enumerate_spanning_one_forests(k5)
        with pytest.raises(TooLarge):
            det_via_forests(k5)
        c3 = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1), (1, 3, -1))))
        with pytest.raises(TooLarge, match=r"^3 \* C\(3, 3\) search states"):
            det_via_forests(c3, budget=2)
        assert det_via_forests(c3, budget=3) == pytest.approx(4.0)
        path = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1))))
        assert det_via_forests(path, budget=1) == 0.0

    def test_cycle_with_chords_refused_by_its_states(self):
        """Regression: with only C(m, n) <= budget as the cap, the n-cycle
        with one chord (n + 1 subsets) passed at n = 10^5, though its search
        scans about n^2 / 2 states, hours of work; two chords give n^3 / 6.
        n * C(m, n) refuses both at once."""
        for n, chords in ((100_000, 1), (4000, 2)):
            pairs = [(k, k + 1) for k in range(1, n)] + [(1, n)]
            pairs += [(1, 1 + n * (c + 1) // (chords + 1)) for c in range(chords)]
            wg = unit_weights(GainGraph(n, tuple((u, v, 1) for u, v in pairs)))
            started = time.perf_counter()
            with pytest.raises(TooLarge):
                enumerate_spanning_one_forests(wg)  # lazy: a search let through fails here, not hangs
            with pytest.raises(TooLarge, match=rf"^{n} \* C\({n + chords}, {n}\) search states exceed"):
                det_via_forests(wg)
            assert time.perf_counter() - started < 1.0

    def test_budget_refuses_a_count_too_long_to_print(self):
        """C(30000, 15000) has 9029 digits, past Python's 4300-digit limit
        on converting an int to text: the states are counted only up to
        the budget, and the refusal names n * C(m, n) without its value."""
        n = 15000
        pairs = sorted({tuple(sorted((v, (v + s - 1) % n + 1))) for v in range(1, n + 1) for s in (1, 2)})
        wg = unit_weights(GainGraph(n, tuple((u, v, 1) for u, v in pairs)))
        with pytest.raises(
            TooLarge, match=r"^15000 \* C\(30000, 15000\) search states exceed the budget 10000000$"
        ):
            det_via_forests(wg)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget(self, budget):
        """Regression: a budget below 1 was refused as exceeded
        (TooLarge) instead of as invalid."""
        wg = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1), (1, 3, 1j))))
        with pytest.raises(ValidationError, match="budget"):
            det_via_forests(wg, budget=budget)


def _naive_components(n, pairs):
    """Independent decomposition: the components of a brute-force
    union-find in the order of their smallest vertices, each with the
    one simple cycle that ``all_simple_cycles`` finds in it; None unless
    every component (isolated vertices included) has as many edges as
    vertices."""
    comp = {v: v for v in range(1, n + 1)}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in pairs:
        comp[find(u)] = find(v)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), set()).add(v)
    for verts in groups.values():
        if sum(1 for u, _ in pairs if u in verts) != len(verts):
            return None
    cycles = all_simple_cycles(GainGraph(n, tuple((u, v, 1) for u, v in sorted(pairs))))
    trees = []
    for verts in sorted(groups.values(), key=min):
        (cycle,) = [c for c in cycles if c[0] in verts]
        trees.append(OneTree(frozenset(verts), cycle))
    return tuple(trees)


def _naive_is_one_forest(n, pairs):
    return _naive_components(n, pairs) is not None


@st.composite
def graphs_with_subsets(draw):
    """A graph on 3 to 7 vertices with n to 14 edges, at times split in
    two blocks so that every 1-forest has two components, and six of its
    n-edge subsets in random order, non-forests included."""
    n = draw(st.integers(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    every = list(itertools.combinations(range(1, n + 1), 2))
    if n >= 6 and draw(st.booleans()):  # two blocks, no edge between them
        side = rng.permutation(n) < n // 2
        every = [(u, v) for u, v in every if side[u - 1] == side[v - 1]]
    m = draw(st.integers(n, min(len(every), 14)))
    pairs = sorted(every[i] for i in rng.choice(len(every), m, replace=False))
    subsets = [[pairs[i] for i in rng.permutation(m)[:n]] for _ in range(6)]
    return n, pairs, subsets


class TestComponentsAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(graphs_with_subsets())
    def test_vertex_sets_and_cycles(self, case):
        n, pairs, subsets = case
        wg = unit_weights(GainGraph(n, tuple((u, v, 1) for u, v in pairs)))
        for subset in subsets:
            want = _naive_components(n, subset)
            assert is_spanning_one_forest(wg, subset) == (want is not None)
        for forest in enumerate_spanning_one_forests(wg):
            assert forest.components == _naive_components(n, forest.edges)


class TestWeightsAndDeterminant:
    def test_triangle_weight(self):
        wg = triangle_i()
        (forest,) = enumerate_spanning_one_forests(wg)
        assert forest_weight(forest, wg) == pytest.approx(2.0)  # 2(1 - Re i)

    def test_negative_square_weight(self):
        wg = unit_cycle(4, [1 + 0j, 1 + 0j, 1 + 0j, -1 + 0j])
        (forest,) = enumerate_spanning_one_forests(wg)
        assert forest_weight(forest, wg) == pytest.approx(4.0)  # 2(1 - Re(-1))

    def test_weights_nonnegative(self):
        rng = np.random.default_rng(223)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            wg = random_weighted(rng, random_connected_graph(rng, n, int(rng.integers(1, 4))))
            for f in enumerate_spanning_one_forests(wg):
                assert forest_weight(f, wg) >= 0.0

    def test_det_via_forests_matches_lu(self):
        rng = np.random.default_rng(227)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            wg = random_weighted(rng, random_connected_graph(rng, n, int(rng.integers(0, 5))))
            by_forests = det_via_forests(wg)
            lu = det_direct(weighted_laplacian(wg))
            scale = max(1.0, abs(lu.real))
            assert abs(lu.imag) <= 1e-9 * scale
            assert abs(by_forests - lu.real) <= 1e-7 * scale

    def test_cycle_closed_form(self):
        rng = np.random.default_rng(229)
        for n in range(3, 9):
            gains = [random_unit(rng) for _ in range(n)]
            wg = WeightedGainGraph(unit_cycle(n, gains).base, random_weights(rng, n))
            around = math.prod(gains)  # gain of 1 -> 2 -> ... -> n -> 1
            expected = math.prod(wg.weights) * 2.0 * (1.0 - around.real)
            lu = det_direct(weighted_laplacian(wg)).real
            assert lu == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "wg",
        [
            WeightedGainGraph(GainGraph(1, ()), ()),
            unit_weights(GainGraph(4, ((1, 2, 1j), (2, 3, 1), (2, 4, -1j)))),
        ],
        ids=["one-vertex", "tree"],
    )
    def test_no_forest_sums_to_a_float_zero(self, wg):
        """Regression: the empty sum was the int 0."""
        det = det_via_forests(wg)
        assert type(det) is float and det == 0.0
        assert float.hex(det) == "0x0.0p+0"

    def test_disconnected_graph_multiplies_its_components(self):
        """L is block diagonal over the components: two disjoint triangles
        of cycle gains i and -1 give 2 * 4, and a tree component, here an
        isolated vertex or a lone edge, gives 0.0."""
        two = triangle_i().base.edges + ((4, 5, 1), (4, 6, -1), (5, 6, 1))
        assert det_via_forests(unit_weights(GainGraph(6, two))) == pytest.approx(8.0, rel=1e-15)
        for g in (GainGraph(7, two), GainGraph(4, ((1, 2, 1j), (3, 4, 1)))):
            det = det_via_forests(unit_weights(g))
            assert type(det) is float and det == 0.0

    @pytest.mark.parametrize("n", range(11, 17))
    def test_long_cycles_with_chords_match_lu(self, n):
        """Regression: past 10 vertices the search was refused, though
        C(n + 2, n) is small; with up to two chords it matches LU."""
        rng = np.random.default_rng(n)
        for chords in range(3):
            pairs = {(i, i + 1) for i in range(1, n)} | {(1, n)}
            while len(pairs) < n + chords:
                u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False) + 1)
                pairs.add((u, v))
            g = GainGraph(n, tuple((u, v, random_unit(rng)) for u, v in sorted(pairs)))
            wg = random_weighted(rng, g)
            lu = det_direct(weighted_laplacian(wg)).real
            assert det_via_forests(wg) == pytest.approx(lu, rel=1e-9)


class TestNonForestSubgraphsAreSingular:
    def test_lemma_style_equivalence(self):
        """On hosts whose simple cycles all have gain well away from 1,
        an n-edge spanning subgraph has det L != 0 iff it is a spanning
        1-forest."""
        rng = np.random.default_rng(233)
        done = 0
        while done < 12:
            n = int(rng.integers(4, 7))
            g = random_connected_graph(rng, n, int(rng.integers(1, 3)))
            if any(abs(cycle_gain(g, c) - 1) < 0.1 for c in all_simple_cycles(g)):
                continue
            wg = random_weighted(rng, g)
            done += 1
            for subset in itertools.combinations(wg.base.edge_pairs(), n):
                sub = spanning_subgraph(wg, subset)
                L = weighted_laplacian(sub)
                scale = 1.0
                for j in range(n):
                    scale *= max(1.0, float(np.linalg.norm(L[:, j])))
                nonzero = abs(det_direct(L)) > 1e-9 * scale
                assert nonzero == is_spanning_one_forest(wg, subset)


class TestDetDirectAndRank:
    def test_identity(self):
        assert det_direct(np.eye(4)) == pytest.approx(1.0)

    def test_singular_hermitian(self):
        assert abs(det_direct(np.array([[1, -1j], [1j, 1]]))) <= 1e-12

    def test_triangle_det(self):
        assert det_direct(weighted_laplacian(triangle_i())).real == pytest.approx(2.0)

    def test_rank_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_rank_of_laplacians(self):
        rng = np.random.default_rng(239)
        wg = random_weighted(rng, random_connected_graph(rng, 6, 0))  # tree: balanced
        assert numerical_rank(weighted_laplacian(wg)) == 5
        assert numerical_rank(np.diag([5.0, 6.0, 7.0, 6.0, 8.0])) == 5


@st.composite
def weighted_small_graphs(draw):
    """A random connected weighted graph on at most 7 vertices, with
    generic or T4 gains, a tree-like or a dense edge set (at most 14
    edges, so the brute-force scan stays small), and its edges listed in
    a random order, so that the search meets them in any order."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    most = min(n * (n - 1) // 2, 14) - (n - 1)
    extra = most if draw(st.booleans()) else min(most, draw(st.integers(0, 2)))
    edges = list(random_connected_graph(rng, n, extra).edges)
    if draw(st.booleans()):
        edges = [(u, v, T4[int(rng.integers(4))]) for u, v, _ in edges]
    rng.shuffle(edges)
    return random_weighted(rng, GainGraph(n, tuple(edges)))


class TestSearchAgainstBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(weighted_small_graphs())
    def test_same_forests_same_order_same_sum(self, wg):
        n = wg.base.n
        want = [
            subset
            for subset in itertools.combinations(wg.base.edge_pairs(), n)
            if _naive_is_one_forest(n, subset)
        ]
        forests = list(enumerate_spanning_one_forests(wg))
        assert [f.edges for f in forests] == want
        brute = sum(forest_weight(f, wg) for f in forests)
        assert det_via_forests(wg) == pytest.approx(brute, rel=1e-12, abs=1e-300)

    def test_near_balanced_triangle(self):
        """Regression: the search and forest_weight form the cycle gain c
        in different rounding orders.  With c = e^{i phi}, phi = 6.5e-3,
        1 - Re c cancels to about 2e-5, and with 2 * (1 - Re c) the two
        sums differed by 5e-12 relative; |1 - c|^2 keeps its digits."""
        t1, t2, t3, phi = 0.18, 2.92, 5.92, 6.5e-3
        # Cycle 1 -> 2 -> 3 -> 1 has gain e^{i(t2 - t1)} e^{i(t3 - t2)} e^{-i(t3 - t1 - phi)}.
        edges = (
            (1, 2, cmath.exp(1j * (t2 - t1))),
            (1, 3, cmath.exp(1j * (t3 - t1 - phi))),
            (2, 3, cmath.exp(1j * (t3 - t2))),
        )
        wg = WeightedGainGraph(GainGraph(3, edges), (1.635, 1.819, 0.522))
        (forest,) = enumerate_spanning_one_forests(wg)
        brute = forest_weight(forest, wg)
        assert brute == pytest.approx(1.635 * 1.819 * 0.522 * 2.0 * (1.0 - math.cos(phi)), rel=1e-9)
        assert det_via_forests(wg) == pytest.approx(brute, rel=1e-12, abs=1e-300)


class TestMarginals:
    def test_edge_marginals_match_the_incidence_formula(self):
        """P(e in F) under the forest measure equals h_e* L^-1 h_e, with
        L = H H* and h_e the column of e in the weighted incidence H; the
        marginals sum to n."""
        rng = np.random.default_rng(241)
        for _ in range(12):
            n = int(rng.integers(3, 9))
            wg = random_weighted(rng, random_connected_graph(rng, n, int(rng.integers(1, 5))))
            index = {pair: j for j, pair in enumerate(wg.base.edge_pairs())}
            inside = np.zeros(wg.base.m)
            total = 0.0
            for f in enumerate_spanning_one_forests(wg):
                w = forest_weight(f, wg)
                total += w
                for pair in f.edges:
                    inside[index[pair]] += w
            enumerated = inside / total
            H = weighted_incidence(wg)
            L = H @ H.conj().T
            formula = np.real(np.einsum("ie,ie->e", H.conj(), np.linalg.solve(L, H)))
            assert np.max(np.abs(enumerated - formula)) <= 1e-9
            assert enumerated.sum() == pytest.approx(n, rel=1e-12)
            assert formula.sum() == pytest.approx(n, rel=1e-9)


@st.composite
def weighted_any_graphs(draw):
    """A weighted graph on 1 to 7 vertices with any set of at most 12
    edges, so that trees (m < n) and disconnected graphs come up, with
    generic or T4 gains, its edges listed in a random order."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    every = list(itertools.combinations(range(1, n + 1), 2))
    pairs = [every[i] for i in rng.permutation(len(every))[: draw(st.integers(0, min(len(every), 12)))]]
    t4 = draw(st.booleans())
    edges = tuple((u, v, T4[int(rng.integers(4))] if t4 else random_unit(rng)) for u, v in pairs)
    return random_weighted(rng, GainGraph(n, edges))


class TestLastEdgeSummedInPlace:
    """The search sums a forest's last edge where it scans it; the forests,
    their order and the determinant's bits are those of entering it."""

    @settings(max_examples=120, deadline=None)
    @given(weighted_any_graphs())
    def test_same_forests_same_order_on_any_graph(self, wg):
        n, pairs = wg.base.n, wg.base.edge_pairs()
        want = [s for s in itertools.combinations(pairs, n) if _naive_is_one_forest(n, s)]
        forests_found = list(enumerate_spanning_one_forests(wg))
        assert [f.edges for f in forests_found] == want
        brute = sum(forest_weight(f, wg) for f in forests_found)
        total = sum(forests._one_forest_search(wg, []))
        assert total == pytest.approx(brute, rel=1e-12, abs=1e-300)
        assert repr(det_via_forests(wg)) == repr(float(total))


#: Unit gains with rational parts, so no gain depends on a libm call.
PYTHAGOREAN = ((3 + 4j) / 5, (5 + 12j) / 13, (8 + 15j) / 17, (7 + 24j) / 25, (20 + 21j) / 29, (12 + 35j) / 37)
K4_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
CUBE_PAIRS = ((1, 2), (1, 3), (1, 5), (2, 4), (2, 6), (3, 4), (3, 7), (4, 8), (5, 6), (5, 7), (6, 8), (7, 8))
# A wheel on hub 1 and rim 2-4-5-6-2 ... with a pendant vertex 7, edges out of order.
WHEEL_PAIRS = ((2, 3), (1, 4), (3, 4), (1, 2), (4, 5), (1, 6), (2, 6), (5, 6), (1, 3), (1, 5), (6, 7))


def _golden(n, pairs, gains, weights):
    edges = tuple((u, v, z) for (u, v), z in zip(pairs, gains))
    return WeightedGainGraph(GainGraph(n, edges), tuple(weights))


#: name: (graph, forest count, sha256 prefix of the (indices, float.hex(weight))
#: lines of the search, float.hex of det_via_forests under a left-to-right sum).
GOLDEN = {
    "K4 generic": (
        _golden(4, K4_PAIRS, PYTHAGOREAN, (0.5, 1.25, 2.0, 0.75, 1.5, 1.0)),
        15, "0559b82167d58239", "0x1.b91209b969d63p+4",
    ),
    "K4 T4": (
        _golden(4, K4_PAIRS, (1j, 1, -1j, -1, 1j, 1), (1.5, 0.5, 1.0, 2.0, 0.75, 1.25)),
        15, "64387a1f2c32390d", "0x1.2680000000001p+5",
    ),
    "cube T4": (
        _golden(8, CUBE_PAIRS, (T4[k] for k in (0, 1, 3, 2, 1, 0, 0, 3, 1, 2, 0, 1)), (0.5 + k / 8 for k in range(12))),
        411, "d0a3fc14680c5895", "0x1.3f3673ca00000p+11",
    ),
    "wheel generic": (
        _golden(7, WHEEL_PAIRS, (PYTHAGOREAN[k % 6] if k % 3 else PYTHAGOREAN[k % 6].conjugate() for k in range(11)),
                (2.0 - k / 8 for k in range(11))),
        170, "1d3824e4a4716c92", "0x1.568a687477190p+11",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_forest_weights_and_determinant_bits(name):
    """Every forest weight and the determinant keep the bits they had
    when each forest was entered as a search node.  Python 3.12's sum
    compensates its rounding, so there the determinant is pinned through
    the pinned weights rather than by its own hex."""
    wg, count, digest, det_hex = GOLDEN[name]
    chosen: list[int] = []
    found = [(tuple(chosen), weight) for weight in forests._one_forest_search(wg, chosen)]
    lines = "".join(f"{indices} {float.hex(weight)}\n" for indices, weight in found)
    assert (len(found), hashlib.sha256(lines.encode()).hexdigest()[:16]) == (count, digest)
    det = det_via_forests(wg)
    assert float.hex(det) == float.hex(sum(weight for _, weight in found))
    if sys.version_info < (3, 12):
        assert float.hex(det) == det_hex
