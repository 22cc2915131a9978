"""Distances, geodesic enumeration, auxiliary gains, and the gain
distance matrices.

The first test recomputes the demo graph's max gain distance matrices
under both orderings, its transmissions, and the corresponding distance
Laplacian, comparing entrywise against the frozen golden matrices in
conftest.  Everything else in the suite leans on the demo graph only
after that gate.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    Q,
    QB,
    brute_shortest_paths,
    demo_dmax_reversed,
    demo_dmax_standard,
    demo_dmin_standard,
    demo_graph,
    demo_transmissions,
    potential_balanced_graph,
    random_connected_graph,
    random_ordering,
)
import gainlap
from gainlap import (
    Disconnected,
    GainGraph,
    PathExplosion,
    ValidationError,
    VertexOrdering,
    WeightedGainGraph,
    associated_complete_graph,
    distance_incidence,
    distance_laplacian,
    gain_distance_matrix,
    is_balanced,
    is_compatible,
    is_ordering_independent,
    parse_graph,
    path_gain,
    shortest_distances,
    transmission_matrix,
    weighted_incidence,
    weighted_laplacian,
)
import gainlap.distances
from gainlap.distances import (
    DEFAULT_PATH_CAP,
    ENTRY_TOL,
    LEX_TIE_BAND,
    _build_table,
    _lex_extremes,
    _t4_adjacency,
    auxiliary_gain_matrix,
)
from gainlap.graphs import _bfs
import cmath

#: The gain group T4 = {1, i, -1, -i}: many geodesics share a gain, and
#: real parts tie exactly.
T4 = (1 + 0j, 1j, -1 + 0j, -1j)


@st.composite
def small_graphs(draw):
    """A random connected graph on at most 7 vertices, with generic or
    T4 gains, and a random vertex ordering."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, n, draw(st.integers(0, 6)))
    if draw(st.booleans()):
        g = GainGraph(n, tuple((u, v, T4[int(rng.integers(4))]) for u, v, _ in g.edges))
    return g, random_ordering(rng, n)


def test_demo_graph_reproduces_golden_matrices(demo, std5):
    """Gate test: the demo graph must rebuild its frozen matrices
    entrywise before any other test trusts it."""
    assert np.max(np.abs(gain_distance_matrix(demo, std5, "max") - demo_dmax_standard())) == 0.0
    assert np.max(np.abs(gain_distance_matrix(demo, std5.reverse(), "max") - demo_dmax_reversed())) == 0.0
    assert np.max(np.abs(transmission_matrix(demo) - demo_transmissions())) == 0.0
    dl = distance_laplacian(demo, std5, "max")
    assert np.max(np.abs(dl - (demo_transmissions() - demo_dmax_standard()))) == 0.0


class TestShortestDistances:
    def test_demo_matrix(self, demo):
        d = shortest_distances(demo)
        expected = np.array(
            [
                [0, 1, 2, 1, 1],
                [1, 0, 1, 2, 2],
                [2, 1, 0, 1, 3],
                [1, 2, 1, 0, 2],
                [1, 2, 3, 2, 0],
            ]
        )
        assert np.array_equal(d, expected)

    def test_symmetric_zero_diagonal_random(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 9)), int(rng.integers(0, 5)))
            d = shortest_distances(g)
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0)

    def test_disconnected_rejected(self):
        g = GainGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        with pytest.raises(Disconnected):
            shortest_distances(g)

    def test_single_vertex(self):
        assert shortest_distances(GainGraph(1, ())).tolist() == [[0]]

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_matches_brute_force(self, case):
        g, _ = case
        want = [
            [len(brute_shortest_paths(g, u, v)[0]) - 1 for v in range(1, g.n + 1)]
            for u in range(1, g.n + 1)
        ]
        assert shortest_distances(g).tolist() == want

    def test_result_is_a_private_copy(self, demo):
        d = shortest_distances(demo)
        d[0, 1] = 99
        assert shortest_distances(demo)[0, 1] == 1


class TestAuxiliaryGain:
    """The auxiliary gains of all pairs, read off ``auxiliary_gain_matrix``
    and, scaled by the hop distances, off ``gain_distance_matrix``."""

    def test_demo_multi_geodesic_pair(self, demo, std5):
        aux_max, hop = auxiliary_gain_matrix(demo, std5, "max")
        aux_min, _ = auxiliary_gain_matrix(demo, std5, "min")
        assert aux_max[0, 2] == pytest.approx(Q)
        assert aux_min[0, 2] == pytest.approx(QB)
        # queried against the ordering: conjugated
        assert aux_max[2, 0] == pytest.approx(QB)
        assert hop[0, 2] == 2
        D = gain_distance_matrix(demo, std5, "max")
        assert D[0, 2] == pytest.approx(2 * Q) and D[2, 0] == pytest.approx(2 * QB)

    def test_demo_reversed_ordering_flips_selection(self, demo, std5):
        rev = std5.reverse()
        assert auxiliary_gain_matrix(demo, rev, "max")[0][0, 2] == pytest.approx(QB)
        assert gain_distance_matrix(demo, rev, "max")[0, 2] == pytest.approx(2 * QB)

    def test_diagonal_is_zero(self, demo, std5):
        for mode in ("max", "min"):
            assert not auxiliary_gain_matrix(demo, std5, mode)[0].diagonal().any()
            assert not gain_distance_matrix(demo, std5, mode).diagonal().any()

    def test_unit_modulus_off_diagonal(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(rng, n, 2)
            order = random_ordering(rng, n)
            aux, _ = auxiliary_gain_matrix(g, order, "max")
            off = ~np.eye(n, dtype=bool)
            assert np.all(np.abs(np.abs(aux[off]) - 1.0) < 1e-12)

    def test_mode_validated(self, demo, std5):
        for build in (auxiliary_gain_matrix, gain_distance_matrix):
            with pytest.raises(ValidationError, match="^mode: "):
                build(demo, std5, "sup")


def _exact_lex(gains, mode):
    return (max if mode == "max" else min)(gains, key=lambda z: (z.real, z.imag))


def _lex(values, mode):
    """The two-stage lex extreme of the geodesic table."""
    return _lex_extremes(values)[0 if mode == "max" else 1]


def _naive_gain_distance(g, ordering, mode, select=_exact_lex):
    """The definition followed literally on brute-force geodesics and
    path_gain products, pair by pair.  By default the selection is the
    exact lexicographic comparison, an independent code path."""
    n = g.n
    out = np.zeros((n, n), dtype=complex)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            a, b = (u, v) if ordering.ranks[u - 1] < ordering.ranks[v - 1] else (v, u)
            paths = brute_shortest_paths(g, a, b)
            pick = select([path_gain(g, p) for p in paths], mode)
            d = len(paths[0]) - 1
            out[a - 1, b - 1] = pick * d
            out[b - 1, a - 1] = pick.conjugate() * d
    return out


def _two_stage_lex(values):
    """The two-stage rule written out, with no sort and no bisect: the
    extremal real part, then the extremal (imag, real) pair among the
    values within LEX_TIE_BAND of it; of equal pairs, the first given."""
    top = max(z.real for z in values)
    bottom = min(z.real for z in values)

    def key(z):
        return z.imag, z.real

    hi = max((z for z in values if z.real >= top - LEX_TIE_BAND), key=key)
    lo = min((z for z in values if z.real <= bottom + LEX_TIE_BAND), key=key)
    return hi, lo


@st.composite
def near_tie_lists(draw):
    """Values, in any order, whose largest real part has a neighbour
    just inside or just outside LEX_TIE_BAND of it, and likewise, drawn
    apart, the smallest; sometimes an exact tie joins an extreme, and
    imaginary parts include both signed zeros."""
    imag = st.sampled_from([-0.9, 0.0, -0.0, 0.9]) | st.floats(-1, 1)

    def side(edge, inward):
        cut = edge + inward * LEX_TIE_BAND  # the last real part inside
        offsets = (
            [cut, edge + inward * 0.5 * LEX_TIE_BAND]
            if draw(st.booleans())
            else [math.nextafter(cut, inward * math.inf), edge + inward * 2 * LEX_TIE_BAND]
        )
        reals = [edge, draw(st.sampled_from(offsets))]
        if draw(st.booleans()):
            reals.append(edge)
        return [complex(r, draw(imag)) for r in reals]

    values = side(draw(st.floats(0.5, 1)), -1.0) + side(draw(st.floats(-1, -0.5)), 1.0)
    values += draw(st.lists(st.builds(complex, st.floats(-0.4, 0.4), imag), max_size=4))
    return draw(st.permutations(values))


class TestLexExtremal:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                complex,
                st.integers(-4, 4).map(lambda k: k * 0.4 * LEX_TIE_BAND) | st.floats(-1, 1),
                st.sampled_from([-0.9, 0.0, 0.9]) | st.floats(-1, 1),
            ),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from(["max", "min"]),
    )
    @example([0.9j, 8e-13, 1.6e-12 - 0.9j], "max")
    def test_ignores_input_order(self, values, mode):
        """Real parts within the tie band of each other chain without
        being transitive; the result must not depend on which value
        comes first."""
        first = _lex(values, mode)
        assert all(_lex(p, mode) == first for p in itertools.permutations(values))

    def test_non_transitive_band_example(self):
        values = [0.9j, 8e-13, 1.6e-12 - 0.9j]
        assert _lex_extremes(values) == (8e-13, 8e-13)

    @settings(max_examples=300, deadline=None)
    @given(near_tie_lists())
    def test_matches_the_two_stage_rule(self, values):
        """The sort with its near-tie shortcut gives the rule's values,
        bit for bit, whichever branch each side takes."""
        assert np.array_equal(_bits(np.array(_lex_extremes(values))),
                              _bits(np.array(_two_stage_lex(values))))



class TestGainDistanceMatrix:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.sampled_from(["max", "min"]))
    def test_matches_brute_force_oracle(self, case, mode):
        g, order = case
        for o in (order, order.reverse()):
            want = _naive_gain_distance(g, o, mode, select=_lex)
            assert np.array_equal(gain_distance_matrix(g, o, mode), want)

    def test_cap_bounds_distinct_gains(self, demo, std5, monkeypatch):
        # demo pair (1, 3) has two geodesics with distinct gains; a failed
        # build memoizes nothing
        monkeypatch.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 1)
        for _ in range(2):
            with pytest.raises(PathExplosion, match="^more than 1 distinct geodesic gains between 1 and 3$"):
                gain_distance_matrix(demo, std5, "max")
        monkeypatch.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 2)
        assert np.array_equal(gain_distance_matrix(demo, std5, "max"), demo_dmax_standard())

    def test_cap_counts_gains_not_paths(self, monkeypatch):
        # both geodesics from 1 to 3 carry z * w, formed as the same product
        z, w = cmath.exp(0.3j), cmath.exp(0.4j)
        square = GainGraph(4, ((1, 2, z), (2, 3, w), (1, 4, w), (3, 4, z.conjugate())))
        o = VertexOrdering.standard(4)
        monkeypatch.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 1)
        assert len(brute_shortest_paths(square, 1, 3)) == 2
        assert gain_distance_matrix(square, o, "max")[0, 2] == 2 * (z * w)

    def test_cap_met_where_a_set_is_pushed_on(self, monkeypatch):
        """From vertex 1, vertex 5 holds one gain and vertex 6, the far
        corner of the square 1-3-6-4, two; both reach vertex 7, 5 first,
        so the third gain at 7 arrives from the set."""
        g = GainGraph(7, tuple(
            (u, v, cmath.exp(1j * (0.1 + k)))
            for k, (u, v) in enumerate(((1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 6), (5, 7), (6, 7)))
        ))
        o = VertexOrdering.standard(7)
        monkeypatch.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 2)
        with pytest.raises(PathExplosion, match="^more than 2 distinct geodesic gains between 1 and 7$"):
            gain_distance_matrix(g, o, "max")
        monkeypatch.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 3)
        assert np.array_equal(_bits(gain_distance_matrix(g, o, "max")),
                              _bits(_naive_gain_distance(g, o, "max", select=_lex)))

    def test_single_edge_gain_i(self):
        g = GainGraph(2, ((1, 2, 1j),))
        o = VertexOrdering.standard(2)
        expected = np.array([[0, 1j], [-1j, 0]])
        for mode in ("max", "min"):
            assert np.allclose(gain_distance_matrix(g, o, mode), expected, atol=1e-15)

    def test_demo_min_matrix(self, demo, std5):
        # the (3,5) entry is 3 * Q * Q computed in floats, so allow the
        # one-ulp real part that exact 3i does not have
        got = gain_distance_matrix(demo, std5, "min")
        assert np.max(np.abs(got - demo_dmin_standard())) <= 1e-12

    def test_hermitian_with_distance_moduli(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_connected_graph(rng, n, int(rng.integers(0, 4)))
            order = random_ordering(rng, n)
            dist = shortest_distances(g)
            for mode in ("max", "min"):
                D = gain_distance_matrix(g, order, mode)
                assert np.max(np.abs(D - D.conj().T)) <= 1e-12
                assert np.max(np.abs(np.abs(D) - dist)) <= 1e-12
                assert np.max(np.abs(np.diag(D))) == 0.0

    def test_matches_naive_definition_both_orderings(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(rng, n, int(rng.integers(1, 4)))
            order = random_ordering(rng, n)
            for o in (order, order.reverse()):
                for mode in ("max", "min"):
                    got = gain_distance_matrix(g, o, mode)
                    want = _naive_gain_distance(g, o, mode)
                    assert np.max(np.abs(got - want)) <= 1e-12

    def test_tree_modes_coincide(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = random_connected_graph(rng, n, 0)
            o = random_ordering(rng, n)
            assert np.allclose(
                gain_distance_matrix(g, o, "max"), gain_distance_matrix(g, o, "min"), atol=1e-15
            )


class TestTransmission:
    def test_demo_diagonal(self, demo):
        assert np.array_equal(transmission_matrix(demo), demo_transmissions())

    def test_single_edge(self):
        g = GainGraph(2, ((1, 2, 1j),))
        assert np.array_equal(transmission_matrix(g), np.eye(2))


class TestCompatibility:
    def test_demo_negative(self, demo, std5):
        assert not is_compatible(demo, std5)

    def test_trees_compatible(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = random_connected_graph(rng, n, 0)
            assert is_compatible(g, VertexOrdering.standard(n))

    def test_balanced_compatible_and_ordering_independent(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            g = potential_balanced_graph(rng, n, int(rng.integers(0, 4)))
            o = random_ordering(rng, n)
            assert is_compatible(g, o)
            assert is_ordering_independent(g, o)

    def test_compatibility_is_ordering_free(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(rng, n, int(rng.integers(1, 4)))
            o1 = random_ordering(rng, n)
            o2 = random_ordering(rng, n)
            assert is_compatible(g, o1) == is_compatible(g, o2)


class TestOrderingIndependence:
    def test_demo_negative(self, demo, std5):
        assert not is_ordering_independent(demo, std5)

    def test_single_edge_positive(self):
        g = GainGraph(2, ((1, 2, 1j),))
        assert is_ordering_independent(g, VertexOrdering.standard(2))

    def test_independence_without_compatibility(self):
        """Ordering dependence needs an exact real-part tie between two
        distinct geodesic gains, so a generic unbalanced 4-cycle is
        ordering independent while still incompatible.  The two notions
        genuinely differ."""
        g = GainGraph(
            4,
            (
                (1, 2, cmath.exp(0.3j)),
                (2, 3, cmath.exp(0.7j)),
                (3, 4, cmath.exp(1.1j)),
                (1, 4, cmath.exp(0.2j)),
            ),
        )
        o = VertexOrdering.standard(4)
        assert not is_balanced(g)
        assert is_ordering_independent(g, o)
        assert not is_compatible(g, o)

    def test_compatible_unbalanced_cycle(self):
        """An unbalanced odd cycle has unique geodesics, hence is
        compatible, while its associated complete graph stays
        unbalanced."""
        g = GainGraph(
            5,
            (
                (1, 2, cmath.exp(0.4j)),
                (2, 3, cmath.exp(0.9j)),
                (3, 4, cmath.exp(0.2j)),
                (4, 5, cmath.exp(1.3j)),
                (1, 5, cmath.exp(0.6j)),
            ),
        )
        o = VertexOrdering.standard(5)
        assert not is_balanced(g)
        assert is_compatible(g, o)
        assert not is_balanced(associated_complete_graph(g, o, "max").base)


class TestAssociatedCompleteGraph:
    def test_demo_pair_gain_and_weight(self, demo, std5):
        k = associated_complete_graph(demo, std5, "max")
        assert k.base.gain(3, 5) == pytest.approx(1.0)
        assert dict(zip(k.base.edge_pairs(), k.weights))[3, 5] == 3.0
        assert k.base.m == 10

    def test_laplacian_equals_distance_laplacian(self, demo, std5):

        for mode in ("max", "min"):
            k = associated_complete_graph(demo, std5, mode)
            assert np.max(
                np.abs(weighted_laplacian(k) - distance_laplacian(demo, std5, mode))
            ) <= 1e-12

    def test_all_gain_one_graph_maps_to_classical_distances(self):
        rng = np.random.default_rng(71)
        g = random_connected_graph(rng, 6, 3)
        g = GainGraph(g.n, tuple((u, v, 1.0) for u, v in g.edge_pairs()))
        k = associated_complete_graph(g, VertexOrdering.standard(6), "max")
        dist = shortest_distances(g)
        assert all(z == 1 for _, _, z in k.base.edges)
        assert all(w == dist[u - 1, v - 1] for (u, v), w in zip(k.base.edge_pairs(), k.weights))
        assert k.base.m == 15

    def test_balance_transfers_for_balanced_input(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = potential_balanced_graph(rng, n, 2)
            k = associated_complete_graph(g, VertexOrdering.standard(n), "max")
            assert is_balanced(k.base)

    def test_one_vertex_gives_the_edgeless_graph(self):
        g, o = GainGraph(1, ()), VertexOrdering.standard(1)
        for mode in ("max", "min"):
            k = associated_complete_graph(g, o, mode)
            assert k == WeightedGainGraph(GainGraph(1, ()), ())
            assert weighted_laplacian(k).tolist() == distance_laplacian(g, o, mode).tolist() == [[0]]


# --- the geodesic table against the set-per-vertex walk --------------------


def _set_walk_table(g, limit=DEFAULT_PATH_CAP):
    """The geodesic table by the plain walk: every reached vertex holds
    a set of gains in a dict, even when it has one.  Same values, same
    insertion order, so every kept value must match bit for bit once
    0.0 is added, which turns each -0.0 part into 0.0."""
    n = g.n
    adj = [[(b, g.gain(a, b)) for b in nbrs] for a, nbrs in enumerate(g._neighbors)]
    hop = np.zeros((n, n), dtype=int)
    lex_max = np.zeros((n, n), dtype=complex)
    lex_min = np.zeros((n, n), dtype=complex)
    for s in range(1, n + 1):
        dist, order, _ = _bfs(g._neighbors, s)
        if len(order) < n:
            raise Disconnected(f"vertex {dist.index(-1, 1)} is unreachable from vertex {s}")
        hi, lo = [0j] * (n + 1), [0j] * (n + 1)
        gains = {s: {1.0 + 0.0j}}
        for a in order:
            ws = gains.pop(a)
            hi[a], lo[a] = _lex_extremes(ws)
            for b, z in adj[a]:
                if dist[b] == dist[a] + 1:
                    acc = gains.setdefault(b, set())
                    acc.update([w * z for w in ws])
                    if len(acc) > limit:
                        raise PathExplosion(
                            f"more than {limit} distinct geodesic gains between {s} and {b}"
                        )
        hi[s] = lo[s] = 0j
        hop[s - 1], lex_max[s - 1], lex_min[s - 1] = dist[1:], hi[1:], lo[1:]
    return hop, lex_max + 0.0, lex_min + 0.0


def _bits(a):
    """The raw bits of an array, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def _assert_same_table(g):
    """_build_table(g) holds the set walk's bits under the path cap, or
    raises the set walk's error, which is returned."""
    try:
        want = _set_walk_table(g, gainlap.distances.DEFAULT_PATH_CAP)
    except (Disconnected, PathExplosion) as exc:
        with pytest.raises(type(exc)) as got:
            _build_table(g)
        assert str(got.value) == str(exc)
        return exc
    got = _build_table(g)
    for have, expect in zip(got, want):
        assert np.array_equal(_bits(have), _bits(expect))
    return None


def _assert_same_table_under_cap(g, cap):
    """Under the path cap lowered to ``cap``: the float walk raises the
    set walk's PathExplosion, in the build and in the public query,
    while the T4 walk never reaches a cap and returns the full table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gainlap.distances, "DEFAULT_PATH_CAP", cap)
        if _t4_adjacency(g) is None:
            exc = _assert_same_table(g)
        else:
            exc = None
            for have, expect in zip(_build_table(g), _set_walk_table(g)):
                assert np.array_equal(_bits(have), _bits(expect))
        o = VertexOrdering.standard(g.n)
        if exc is None:
            gain_distance_matrix(g, o, "max")
        else:
            with pytest.raises(PathExplosion) as query:
                gain_distance_matrix(g, o, "max")
            assert str(query.value) == str(exc)


@st.composite
def table_graphs(draw):
    """A graph on at most 7 vertices with generic, T4 or balanced gains,
    dense enough for pairs with several geodesic gains; sometimes a
    vertex is cut off, which disconnects it."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["generic", "t4", "balanced"]))
    if kind == "balanced":
        g = potential_balanced_graph(rng, n, extra)
    else:
        g = random_connected_graph(rng, n, extra)
        if kind == "t4":
            g = GainGraph(n, tuple((u, v, T4[int(rng.integers(4))]) for u, v, _ in g.edges))
    if n > 1 and draw(st.integers(0, 5)) == 0:
        g = GainGraph(n, tuple(e for e in g.edges if n not in e[:2]))
    return g


class TestGeodesicTableParity:
    @settings(max_examples=150, deadline=None)
    @given(table_graphs(), st.integers(1, 3))
    def test_same_bits_as_the_set_walk(self, g, cap):
        if _assert_same_table(g) is None:
            _assert_same_table_under_cap(g, cap)

    @pytest.mark.parametrize("shape", ["Q5", "grid5x5", "Q5-balanced"])
    def test_same_bits_on_large_gain_sets(self, shape):
        """Sets far larger than the hypothesis graphs reach: Q5 with
        generic gains (120 distinct gains between antipodes), a 5 x 5
        grid (70 between corners) and a balanced Q5, whose geodesic
        gains agree up to rounding, so many products merge as equal."""
        rng = np.random.default_rng(2024)
        if shape == "grid5x5":
            pairs = [(5 * r + c + 1, 5 * r + c + 1 + step) for r in range(5) for c in range(5)
                     for step in (1, 5) if (c < 4 if step == 1 else r < 4)]
            far, paths = 25, 70
        else:
            pairs = [(x + 1, (x | 1 << b) + 1) for x in range(32) for b in range(5) if not x >> b & 1]
            far, paths = 32, 120
        if shape == "Q5-balanced":
            xi = rng.uniform(0.0, 2.0 * math.pi, size=33)
            edges = tuple((u, v, cmath.exp(1j * (xi[v] - xi[u]))) for u, v in pairs)
        else:
            edges = tuple((u, v, cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))) for u, v in pairs)
        g = GainGraph(far, edges)
        geodesics = brute_shortest_paths(g, 1, far)
        distinct = len({path_gain(g, p) for p in geodesics})
        assert len(geodesics) == paths
        assert distinct == paths if shape != "Q5-balanced" else 1 < distinct < paths
        assert _assert_same_table(g) is None


# --- the exact T4 walk against the set walk and integer exponents ----------

#: The eight signed T4 values: each i^k with either sign of its zero part.
SIGNED_T4 = (
    complex(1.0, 0.0), complex(1.0, -0.0), complex(0.0, 1.0), complex(-0.0, 1.0),
    complex(-1.0, 0.0), complex(-1.0, -0.0), complex(0.0, -1.0), complex(-0.0, -1.0),
)


@st.composite
def exact_graphs(draw):
    """A graph on at most 7 vertices whose stored gains are signed T4
    values ("t4") or signed ±1 ("signed"), zeros of both signs, or such
    a graph with one generic gain ("mixed"); sometimes a vertex is cut
    off, which disconnects it."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, n, draw(st.integers(0, 12)))
    kind = draw(st.sampled_from(["t4", "signed", "mixed"]))
    pool = SIGNED_T4 if kind != "signed" else SIGNED_T4[:2] + SIGNED_T4[4:6]
    gains = [pool[int(rng.integers(len(pool)))] for _ in g.edges]
    if kind == "mixed" and gains:
        gains[int(rng.integers(len(gains)))] = cmath.exp(1j * float(rng.uniform(0.1, 1.4)))
    edges = [(u, v, z) for (u, v, _), z in zip(g.edges, gains)]
    edges = [edges[i] for i in rng.permutation(len(edges))]  # unsorted rows
    if n > 1 and draw(st.integers(0, 5)) == 0:
        edges = [e for e in edges if n not in e[:2]]
    return GainGraph(n, tuple(edges))


def _exponent(g, a, b):
    """k with gain(a -> b) == i^k, as an exact integer."""
    return T4.index(g.gain(a, b))


def _lex_rank(k):
    """(real, imag) of i^k in exact integers: the lex order of T4."""
    return ((1, 0), (0, 1), (-1, 0), (0, -1))[k]


class TestExactT4Walk:
    @settings(max_examples=200, deadline=None)
    @given(exact_graphs(), st.integers(1, 3))
    @example(GainGraph(4, ((1, 2, SIGNED_T4[1]), (1, 3, SIGNED_T4[7]), (2, 4, SIGNED_T4[5]),
                           (3, 4, SIGNED_T4[3]))), 1)
    def test_same_bits_as_the_set_walk(self, g, cap):
        generic = any(z not in T4 for _, _, z in g.edges)
        assert (_t4_adjacency(g) is None) == generic
        if _assert_same_table(g) is None:
            _assert_same_table_under_cap(g, cap)

    @settings(max_examples=100, deadline=None)
    @given(exact_graphs())
    def test_group_exponents_match_brute_force(self, g):
        if any(z not in T4 for _, _, z in g.edges) or len(_bfs(g._neighbors, 1)[1]) < g.n:
            return  # a generic gain, or disconnected
        table = _build_table(g)
        for u, v in itertools.permutations(range(1, g.n + 1), 2):
            paths = brute_shortest_paths(g, u, v)
            exps = {sum(_exponent(g, a, b) for a, b in zip(p, p[1:])) % 4 for p in paths}
            assert {T4.index(path_gain(g, p)) for p in paths} == exps
            hi, lo = max(exps, key=_lex_rank), min(exps, key=_lex_rank)
            assert table.hop[u - 1, v - 1] == len(paths[0]) - 1
            assert table.lex_max[u - 1, v - 1] == T4[hi]
            assert table.lex_min[u - 1, v - 1] == T4[lo]

    @pytest.mark.parametrize(
        "gain",
        [
            cmath.exp(1j * math.pi / 2),  # the theta form of i: 6.1e-17 + 1j
            complex(0.0, math.nextafter(1.0, 2.0)),
            complex(0.0, math.nextafter(1.0, 0.0)),
            complex(math.nextafter(0.0, 1.0), 1.0),
        ],
    )
    def test_near_t4_gains_keep_their_float_bits(self, gain):
        """A gain within an ulp of i is not taken for i: the float walk
        runs, and the table holds the gain's own products."""
        assert gain != 1j
        g = GainGraph(4, ((1, 2, gain), (1, 3, 1j), (2, 4, -1.0), (3, 4, -1j)))
        assert _t4_adjacency(g) is None
        got = _build_table(g)
        want = _set_walk_table(g)
        for have, expect in zip(got, want):
            assert np.array_equal(_bits(have), _bits(expect))
        assert np.array_equal(_bits(got.lex_max[0, 1:2]), _bits(np.array([gain])))

    def test_theta_document_takes_the_float_walk(self):
        doc = parse_graph('{"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"theta": %r}}]}' % (math.pi / 2))
        g = doc.gain_graph()
        assert _t4_adjacency(g) is None
        z = complex(gain_distance_matrix(g, VertexOrdering.standard(2), "max")[0, 1])
        assert z == cmath.exp(1j * math.pi / 2) and z.real > 0.0

    def test_import_builds_no_t4_table(self):
        src = str(Path(gainlap.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import gainlap.cli\n"
            "from gainlap.distances import _t4_tables\n"
            "print(_t4_tables.cache_info().currsize)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "0"


# --- one canonical zero: the table holds values, not arrival order --------


def _square(up, down):
    """The square 1-up-4, 1-down-4 with gain i on the up path and -i, as
    a document writes it, on the down path: i * i is -1+0j and
    (-i) * (-i) is -1-0j, so the two geodesics from 1 to 4 carry -1
    with either sign of the zero part."""
    i, minus_i = complex(0.0, 1.0), complex(0.0, -1.0)
    return GainGraph(4, ((1, up, i), (up, 4, i), (1, down, minus_i), (down, 4, minus_i)))


def _relabel(g, p):
    """g with vertex v renamed p[v]; each edge stored from its smaller
    end, so a reversed edge stores the conjugate and reads back the same
    bits from the old direction."""
    edges = tuple(
        (p[u], p[v], z) if p[u] < p[v] else (p[v], p[u], z.conjugate()) for u, v, z in g.edges
    )
    return GainGraph(g.n, edges)


def _assert_same_up_to_relabelling(g, p):
    """The table of g, relabelled by p, is bit for bit the table of g."""
    q = [p[v] - 1 for v in range(1, g.n + 1)]
    for have, expect in zip(_build_table(_relabel(g, p)), _build_table(g)):
        assert np.array_equal(_bits(have[np.ix_(q, q)]), _bits(expect))


def _assert_no_negative_zero(table):
    for ext in (table.lex_max, table.lex_min):
        parts = ext.view(float)
        assert not np.any((parts == 0.0) & np.signbit(parts))


@st.composite
def relabelled_graphs(draw):
    """A graph of table_graphs() or exact_graphs() and a relabelling
    p (p[v] is the new label of v; p[0] unused)."""
    g = draw(table_graphs() | exact_graphs())
    p = [0, *draw(st.permutations(range(1, g.n + 1)))]
    return g, p


class TestCanonicalZeros:
    def test_square_same_bits_with_two_and_three_swapped(self):
        g = _square(2, 3)
        assert _t4_adjacency(g) is not None
        assert _relabel(g, [0, 1, 3, 2, 4]) == _square(3, 2)
        _assert_same_up_to_relabelling(g, [0, 1, 3, 2, 4])
        for table in (_build_table(_square(2, 3)), _build_table(_square(3, 2))):
            for ext in (table.lex_max, table.lex_min):
                assert np.array_equal(_bits(ext[0, 3:]), _bits(np.array([complex(-1.0, 0.0)])))

    @settings(max_examples=200, deadline=None)
    @given(relabelled_graphs())
    def test_no_zero_part_is_negative_under_any_labelling(self, drawn):
        g, p = drawn
        try:
            table = _build_table(g)
        except Disconnected:
            return
        _assert_no_negative_zero(table)
        _assert_same_up_to_relabelling(g, p)


#: Gains whose geodesic products often tie in real part: exactly, as
#: conjugate pairs, or within LEX_TIE_BAND, as angles 1e-13 apart.
TIE_PRONE = (1 + 0j, *(cmath.exp(1j * s * t) for t in (0.6, 0.6 + 1e-13, 1.1) for s in (1, -1)))

#: Gains near 1: their products tie in real part, and entries of D that
#: differ by a few times 4e-10 lie near ENTRY_TOL, where the hop
#: distance decides the verdict.
NEAR_ONE = (1 + 0j, cmath.exp(4e-10j), cmath.exp(-4e-10j))


@st.composite
def ordering_graphs(draw):
    """A random connected graph on at most 8 vertices with generic, T4,
    all-gain-1 or tie-prone gains (two kinds), and a generator for its
    orderings."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, n, draw(st.integers(0, 10)))
    pick = draw(st.sampled_from([None, T4, (1 + 0j,), TIE_PRONE, NEAR_ONE]))
    if pick is not None:
        g = GainGraph(n, tuple((u, v, pick[int(rng.integers(len(pick)))]) for u, v, _ in g.edges))
    return g, rng


def _dense_ordering_independent(g, ordering):
    """The definition: each gain distance matrix, built under the
    ordering and under its reverse, is the same within ENTRY_TOL."""
    rev = ordering.reverse()
    return all(
        np.max(np.abs(gain_distance_matrix(g, ordering, m) - gain_distance_matrix(g, rev, m)))
        <= ENTRY_TOL
        for m in ("max", "min")
    )


def _three_geodesics(z, t):
    edges = ((1, 2, z), (1, 3, cmath.exp(1j * t)), (1, 4, cmath.exp(-1j * t)))
    return GainGraph(5, (*edges, (2, 5, 1), (3, 5, 1), (4, 5, 1))), np.random.default_rng(0)


class TestOrderingIndependenceOracle:
    @settings(max_examples=150, deadline=None)
    @given(ordering_graphs())
    # A 4-cycle whose two geodesics between opposite corners carry
    # e^{1.2i} and e^{-1.2i}: an exact tie in real part.
    @example((GainGraph(4, ((1, 2, TIE_PRONE[1]), (1, 4, TIE_PRONE[2]), (2, 3, TIE_PRONE[1]),
                            (3, 4, TIE_PRONE[1]))), np.random.default_rng(0)))
    # The same 4-cycle with gains e^{4e-10 i}, e^{4e-10 i}, 1, 1: its
    # geodesic gains differ by 8e-10 and the entries of D by 1.6e-9.
    @example((GainGraph(4, ((1, 2, NEAR_ONE[1]), (1, 4, 1), (2, 3, NEAR_ONE[1]), (3, 4, 1))),
              np.random.default_rng(0)))
    # Three geodesics from 1 to 5 with gains z, e^{ti} and e^{-ti}: only
    # the min matrix depends on the ordering for (z, t) = (1, 2.2), only
    # the max matrix for (-1, 0.9).
    @example(_three_geodesics(1, 2.2))
    @example(_three_geodesics(-1, 0.9))
    def test_matches_the_dense_definition(self, case):
        """The verdict read off the geodesic table is the dense
        definition's, and it is the same under every ordering."""
        g, rng = case
        orderings = [VertexOrdering.standard(g.n), *(random_ordering(rng, g.n) for _ in range(3))]
        want = _dense_ordering_independent(g, orderings[0])
        for o in orderings:
            assert _dense_ordering_independent(g, o) is want
            assert is_ordering_independent(g, o) is want

    def test_ordering_checked(self, demo):
        with pytest.raises(ValidationError, match="ordering covers 4 vertices"):
            is_ordering_independent(demo, VertexOrdering.standard(4))


# --- the distance objects are the weighted objects of K(Θ), bit for bit ----


@st.composite
def generic_graphs(draw):
    """A connected graph on at most 11 vertices with random unit gains."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_connected_graph(rng, draw(st.integers(1, 11)), draw(st.integers(0, 15)))


class TestCompleteGraphIdentity:
    @settings(max_examples=150, deadline=None)
    @given(exact_graphs() | generic_graphs(), st.data())
    def test_same_bits_as_the_weighted_objects_of_k(self, g, data):
        """DL is the weighted Laplacian of K(Θ), and DH its incidence with
        each edge oriented from its ordering-smaller end: the incidence of
        K(Θ) relabelled by rank, whose edges run u < v, rows in rank order."""
        if len(_bfs(g._neighbors, 1)[1]) < g.n:
            return  # disconnected: no distances
        o = VertexOrdering(tuple(data.draw(st.permutations(range(1, g.n + 1)))))
        for mode in ("max", "min"):
            k = associated_complete_graph(g, o, mode)
            assert weighted_laplacian(k).tobytes() == distance_laplacian(g, o, mode).tobytes()
            by_rank = sorted(
                ((o.ranks[u - 1], o.ranks[v - 1], z), w) if o.ranks[u - 1] < o.ranks[v - 1]
                else ((o.ranks[v - 1], o.ranks[u - 1], z.conjugate()), w)
                for (u, v, z), w in zip(k.base.edges, k.weights)
            )
            edges, weights = zip(*by_rank) if by_rank else ((), ())
            ranked = WeightedGainGraph(GainGraph(g.n, edges), weights)
            H = weighted_incidence(ranked)[np.array(o.ranks) - 1]
            assert H.tobytes() == distance_incidence(g, o, mode).tobytes()
