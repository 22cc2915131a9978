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
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from conftest import (
    Q,
    QB,
    brute_shortest_paths,
    demo_dmax_reversed,
    demo_dmax_standard,
    demo_dmin_standard,
    demo_graph,
    demo_transmissions,
    lex_extremes_reference,
    potential_balanced_graph,
    random_connected_graph,
    random_ordering,
    random_switching,
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
    balance_by_cospectrality,
    balance_by_singularity,
    distance_factorization_residual,
    distance_incidence,
    distance_laplacian,
    gain_distance_matrix,
    is_balanced,
    is_compatible,
    is_ordering_independent,
    matrix_to_csv,
    parse_graph,
    path_gain,
    shortest_distances,
    switching_similarity_check,
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
    _distance_rows,
    _lex_extremes,
    _t4_adjacency,
    auxiliary_gain_matrix,
)
from gainlap.documents import _hermitian_rows
from gainlap.graphs import _bfs
from gainlap.spectra import hermitian_residual
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
    values within LEX_TIE_BAND of it, and the co-extreme at the other
    end of that band; of equal pairs, the first given."""
    top = max(z.real for z in values)
    bottom = min(z.real for z in values)

    def key(z):
        return z.imag, z.real

    top_band = [z for z in values if z.real >= top - LEX_TIE_BAND]
    bottom_band = [z for z in values if z.real <= bottom + LEX_TIE_BAND]
    return (max(top_band, key=key), min(bottom_band, key=key),
            min(top_band, key=key), max(bottom_band, key=key))


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


def _hexed_values(values):
    """Each complex as the hex of its parts, so 0.0 and -0.0 differ."""
    return [(float.hex(z.real), float.hex(z.imag)) for z in values]


_PARTS = st.sampled_from([0.0, -0.0, 0.9, -0.9]) | st.floats(-1, 1)


@st.composite
def band_edge_lists(draw):
    """One to six values whose real parts lie at an anchor, exactly
    LEX_TIE_BAND either side of it, a few ulps past either band edge,
    at half or twice the band, or anywhere in [-1, 1]; the anchor may be
    a signed zero, and imaginary parts include both signed zeros, so
    exact ties in real part and in both parts occur."""
    anchor = draw(st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(-1, 1))
    edges = [anchor + LEX_TIE_BAND, anchor - LEX_TIE_BAND]
    reals = [anchor, *edges, anchor + 0.5 * LEX_TIE_BAND, anchor - 2 * LEX_TIE_BAND]
    for edge in edges:
        for k in (1, 2):
            up, down = edge, edge
            for _ in range(k):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            reals += [up, down]
    real = st.sampled_from(reals) | st.floats(-1, 1)
    return draw(st.lists(st.builds(complex, real, _PARTS), min_size=1, max_size=6))


#: Two values each whose real parts round so that only one band test
#: holds: only the top side ties in the first, only the bottom in the
#: second.
ONE_SIDED = (
    [complex(-7.15011212182351e-13, 0.9), complex(2.84988787817649e-13, -0.9)],
    [complex(-2.0256801543646183e-14, -0.0), complex(9.797431984563538e-13, 0.9)],
)


@st.composite
def one_sided_pairs(draw):
    """Two values whose real parts lie LEX_TIE_BAND apart, moved by up to
    four ulps, in either order, with any imaginary parts."""
    x = draw(st.floats(-1, 1) | st.floats(-1e-11, 1e-11))
    y = x + LEX_TIE_BAND + draw(st.integers(-4, 4)) * math.ulp(max(abs(x), abs(x + LEX_TIE_BAND)))
    return draw(st.permutations([complex(x, draw(_PARTS)), complex(y, draw(_PARTS))]))


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
        assert _lex_extremes(values) == (8e-13, 8e-13, 1.6e-12 - 0.9j, 0.9j)

    @settings(max_examples=300, deadline=None)
    @given(near_tie_lists())
    def test_matches_the_two_stage_rule(self, values):
        """The sort with its near-tie shortcut gives the rule's extremes
        and co-extremes, bit for bit, whichever branch each side takes."""
        assert np.array_equal(_bits(np.array(_lex_extremes(values))),
                              _bits(np.array(_two_stage_lex(values))))

    @settings(max_examples=400, deadline=None)
    @given(band_edge_lists())
    @example([complex(0.0, 0.9), complex(LEX_TIE_BAND, -0.0), complex(-0.0, 0.0)])
    @example([complex(0.5, 0.0), complex(0.5, -0.0), complex(0.5 - LEX_TIE_BAND, 0.9)])
    def test_fast_paths_match_the_reference(self, values):
        """The no-tie, one-band and two-value paths give, bit for bit, the
        extremes and co-extremes of the rule as it stood before them."""
        assert _hexed_values(_lex_extremes(values)) == _hexed_values(lex_extremes_reference(values))

    @settings(max_examples=300, deadline=None)
    @given(one_sided_pairs())
    @example(ONE_SIDED[0])
    @example(ONE_SIDED[1])
    def test_two_values_tied_on_one_side(self, values):
        """Two real parts LEX_TIE_BAND apart up to a few ulps: rounding of
        the two band edges can make one side tie and not the other, and
        each side's comparison must be the reference's."""
        assert _hexed_values(_lex_extremes(values)) == _hexed_values(lex_extremes_reference(values))

    def test_the_one_sided_examples_tie_on_one_side_only(self):
        """The examples above reach both one-sided branches."""
        sides = []
        for values in ONE_SIDED:
            a, b = sorted(z.real for z in values)
            sides.append((a >= b - LEX_TIE_BAND, b <= a + LEX_TIE_BAND))
        assert sides == [(True, False), (False, True)]



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


def _set_walk_table(g, limit=DEFAULT_PATH_CAP, ranks=None):
    """The geodesic table by the plain walk: every reached vertex holds
    a set of gains in a dict, even when it has one.  Same values, same
    insertion order, so every kept value must match bit for bit once
    0.0 is added, which turns each -0.0 part into 0.0; and the tie gap,
    the largest hop times the distance of an extreme from its
    co-extreme over the pairs given extremes.

    Given an ordering's ranks, the sets the float walk forms for it: a
    set of two or more gains is pushed on only into a vertex on a
    geodesic from the source to a vertex ranked above it, and only
    those get extremes; the other gains of the table are 0."""
    n = g.n
    adj = [[(b, g.gain(a, b)) for b in nbrs] for a, nbrs in enumerate(g._neighbors)]
    hop = np.zeros((n, n), dtype=int)
    lex_max = np.zeros((n, n), dtype=complex)
    lex_min = np.zeros((n, n), dtype=complex)
    tie_gap = 0.0
    far = [None, *(_bfs(g._neighbors, t)[0] for t in range(1, n + 1))]
    for s in range(1, n + 1):
        dist, order, _ = _bfs(g._neighbors, s)
        if len(order) < n:
            raise Disconnected(f"vertex {dist.index(-1, 1)} is unreachable from vertex {s}")
        above = {t for t in range(1, n + 1) if ranks is None or ranks[t - 1] > ranks[s - 1]}
        live = [any(dist[b] + far[t][b] == dist[t] for t in above) for b in range(n + 1)]
        hi, lo = [0j] * (n + 1), [0j] * (n + 1)
        gains = {s: {1.0 + 0.0j}}
        for a in order:
            ws = gains.pop(a, set())  # none when only sets arrived, all skipped
            if a in above:
                hi[a], lo[a], co_hi, co_lo = _lex_extremes(ws)
                tie_gap = max(tie_gap, dist[a] * max(abs(hi[a] - co_hi), abs(lo[a] - co_lo)))
            for b, z in adj[a]:
                if dist[b] == dist[a] + 1 and (len(ws) == 1 or live[b]):
                    acc = gains.setdefault(b, set())
                    acc.update([w * z for w in ws])
                    if len(acc) > limit:
                        raise PathExplosion(
                            f"more than {limit} distinct geodesic gains between {s} and {b}"
                        )
        hi[s] = lo[s] = 0j
        hop[s - 1], lex_max[s - 1], lex_min[s - 1] = dist[1:], hi[1:], lo[1:]
    return hop, lex_max + 0.0, lex_min + 0.0, tie_gap


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


def _assert_same_table_under_cap(g, cap, ordering):
    """Under the path cap lowered to ``cap``: the float walk raises the
    set walk's PathExplosion in the build, and a fresh gain distance
    matrix raises exactly when a set it walks, one of the set walk's
    restricted to the ordering, passes the cap, with that error, and
    else holds the bits of that walk's table; the T4 walk never reaches
    a cap and returns the full table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gainlap.distances, "DEFAULT_PATH_CAP", cap)
        if _t4_adjacency(g) is None:
            _assert_same_table(g)
            try:
                hop, *ext = _set_walk_table(g, cap, ordering.ranks)
            except PathExplosion as exc:
                with pytest.raises(PathExplosion) as query:
                    gain_distance_matrix(GainGraph(g.n, g.edges), ordering, "max")
                assert str(query.value) == str(exc)
                return
        else:
            hop, *ext = _set_walk_table(g)
            for have, expect in zip(_build_table(g), (hop, *ext)):
                assert np.array_equal(_bits(have), _bits(expect))
        rank = np.array(ordering.ranks)
        read = rank[:, None] < rank[None, :]
        for mode, e in zip(("max", "min"), ext):
            want = np.where(read, e, e.conj().T) * hop
            assert np.array_equal(_bits(gain_distance_matrix(GainGraph(g.n, g.edges), ordering, mode)),
                                  _bits(want))


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
    @given(table_graphs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_same_bits_as_the_set_walk(self, g, cap, seed):
        if _assert_same_table(g) is None:
            _assert_same_table_under_cap(g, cap, random_ordering(np.random.default_rng(seed), g.n))

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
    @given(exact_graphs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @example(GainGraph(4, ((1, 2, SIGNED_T4[1]), (1, 3, SIGNED_T4[7]), (2, 4, SIGNED_T4[5]),
                           (3, 4, SIGNED_T4[3]))), 1, 0)
    def test_same_bits_as_the_set_walk(self, g, cap, seed):
        generic = any(z not in T4 for _, _, z in g.edges)
        assert (_t4_adjacency(g) is None) == generic
        if _assert_same_table(g) is None:
            _assert_same_table_under_cap(g, cap, random_ordering(np.random.default_rng(seed), g.n))

    def test_tie_gap_is_read_at_the_farthest_tie(self):
        """Two diamonds in a row, the first with gains i and -i: from 1,
        vertices 4 to 7 hold {i, -i}, which ties, at hops 2 to 4; the gap
        of i from -i is 2, so the row's tie gap, and the table's, is 2 * 4."""
        g = GainGraph(7, ((1, 2, 1j), (1, 3, -1j), (2, 4, 1), (3, 4, 1),
                          (4, 5, 1), (4, 6, 1), (5, 7, 1), (6, 7, 1)))
        assert _t4_adjacency(g) is not None
        assert next(gainlap.distances._geodesic_rows(g))[3] == 8.0
        assert _build_table(g).tie_gap == _set_walk_table(g)[3] == 8.0

    def test_the_masks_that_tie_are_those_with_a_gap(self):
        gap = gainlap.distances._t4_tables()[3]
        assert gainlap.distances._T4_TIES == {m for m in range(16) if gap[m]}

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


# --- the CLI's row form of D and DL against the numpy forms ----------------


class TestDistanceRows:
    """``_distance_rows``, which the CLI prints from, gives through
    ``_hermitian_rows`` the bytes of ``matrix_to_csv`` of D and of DL, so
    the hop distances, the ordering rule and the signs of the parts."""

    @settings(max_examples=150, deadline=None)
    @given(
        exact_graphs(), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["max", "min"]),
        st.booleans(),
    )
    def test_same_bytes_as_the_numpy_forms(self, g, seed, generic, mode, laplacian):
        rng = np.random.default_rng(seed)
        if generic:
            g = random_connected_graph(rng, g.n, int(rng.integers(0, 2 * g.n)))
        ordering = random_ordering(rng, g.n)
        rows = _distance_rows(g, ordering, mode, laplacian)
        build = distance_laplacian if laplacian else gain_distance_matrix
        try:
            want = matrix_to_csv(build(g, ordering, mode))
        except Disconnected as exc:
            with pytest.raises(Disconnected) as got:
                next(rows)
            assert str(got.value) == str(exc)
            return
        assert "\n".join(_hermitian_rows(g.n, rows)) == want


# --- a gain distance matrix walks the half its ordering reads -------------


@st.composite
def half_cases(draw):
    """A graph of table_graphs() (generic, T4 or balanced gains) or of
    ordering_graphs() (tie-prone and near-tie gains among them), and a
    random ordering of its vertices."""
    g = draw(table_graphs() | ordering_graphs().map(lambda case: case[0]))
    return g, VertexOrdering(tuple(draw(st.permutations(range(1, g.n + 1)))))


def _read_from(table, ordering):
    """Per mode, what auxiliary_gain_matrix reads from the full table
    under the ordering: the gain of each pair from its ordering-smaller
    endpoint, the reverse pair its conjugate."""
    rank = np.array(ordering.ranks)
    read = rank[:, None] < rank[None, :]
    return {mode: np.where(read, ext, ext.conj().T)
            for mode, ext in (("max", table.lex_max), ("min", table.lex_min))}


def spy_walks(monkeypatch):
    """The list to which each walk of the geodesics from now on appends
    its ranks, None for the full table."""
    walks, rows = [], gainlap.distances._geodesic_rows

    def spied_rows(g, ranks=None):
        walks.append(ranks)
        return rows(g, ranks)

    monkeypatch.setattr(gainlap.distances, "_geodesic_rows", spied_rows)
    return walks


def _q4_generic():
    """The 4-cube with generic gains: pairs at distance 2, 3 and 4 have
    2, 6 and 24 geodesics, so the walk pushes gain sets on."""
    rng = np.random.default_rng(4)
    pairs = [(x + 1, (x | 1 << b) + 1) for x in range(16) for b in range(4) if not x >> b & 1]
    return GainGraph(16, tuple((u, v, cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))) for u, v in pairs))


class TestOrderingHalf:
    @settings(max_examples=200, deadline=None)
    @given(half_cases(), st.sampled_from(["max", "min"]))
    def test_every_read_entry_has_the_full_tables_bits(self, case, first):
        """A fresh graph's auxiliary gains, in either mode first and then
        in the other from the same half, are bit for bit those read from
        the full table, and the CLI's rows print the bytes of D read so."""
        g, ordering = case
        try:
            full = _build_table(g)
        except Disconnected as exc:
            with pytest.raises(Disconnected, match=f"^{exc}$"):
                auxiliary_gain_matrix(g, ordering, first)
            return
        want = _read_from(full, ordering)
        for mode in (first, "min" if first == "max" else "max"):
            aux, hop = auxiliary_gain_matrix(g, ordering, mode)
            assert np.array_equal(_bits(aux), _bits(want[mode]))
            assert np.array_equal(hop, full.hop)
            rows = _distance_rows(GainGraph(g.n, g.edges), ordering, mode, False)
            assert "\n".join(_hermitian_rows(g.n, rows)) == matrix_to_csv(want[mode] * full.hop)
        assert vars(g)["_geodesics"][0] == (ordering.ranks if _t4_adjacency(g) is None else None)

    def test_a_matrix_walks_the_half_its_ordering_reads(self, monkeypatch):
        """Extremes are formed only for targets ranked above their source,
        the other mode walks nothing more, and ordering independence then
        reads the same half, with the verdict of a fresh graph."""
        g = _q4_generic()
        ordering = VertexOrdering((5, 12, 1, 16, 9, 3, 14, 7, 2, 11, 8, 15, 4, 10, 6, 13))
        verdict = is_ordering_independent(GainGraph(g.n, g.edges), ordering)
        rank = (0, *ordering.ranks)
        extremes, lex = [], gainlap.distances._lex_extremes

        def spied_lex(values):
            caller = sys._getframe(1).f_locals  # the float walk's source s and vertex a
            extremes.append((caller["s"], caller["a"]))
            return lex(values)

        monkeypatch.setattr(gainlap.distances, "_lex_extremes", spied_lex)
        walks = spy_walks(monkeypatch)
        D = gain_distance_matrix(g, ordering, "max")
        several = {
            (s, t) for s, t in itertools.permutations(range(1, g.n + 1), 2)
            if len({path_gain(g, p) for p in brute_shortest_paths(g, s, t)}) > 1
        }
        assert set(extremes) == {(s, t) for s, t in several if rank[s] < rank[t]}
        assert len(extremes) == len(set(extremes)) == len(several) // 2
        assert walks == [ordering.ranks] and vars(g)["_geodesics"][0] == ordering.ranks
        extremes.clear()
        gain_distance_matrix(g, ordering, "min")
        assert walks == [ordering.ranks] and not extremes
        assert is_ordering_independent(g, ordering) is verdict
        assert np.array_equal(_bits(gain_distance_matrix(g, ordering, "max")), _bits(D))
        assert walks == [ordering.ranks] and vars(g)["_geodesics"][0] == ordering.ranks

    def test_the_cap_guards_the_sets_a_call_walks(self):
        """Two diamonds in a row: 1 to 7 has four geodesic gains.  Under
        an ordering that ranks 7, 5 and 6 below 1, the walk from 1 pushes
        no set past 4, and the matrix meets the cap of 3 only from 7."""
        z = [cmath.exp(1j * (0.3 + 0.7 * k)) for k in range(8)]
        g = GainGraph(7, ((1, 2, z[0]), (1, 3, z[1]), (2, 4, z[2]), (3, 4, z[3]),
                          (4, 5, z[4]), (4, 6, z[5]), (5, 7, z[6]), (6, 7, z[7])))
        ordering = VertexOrdering((4, 5, 6, 7, 2, 3, 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 3)
            with pytest.raises(PathExplosion, match="^more than 3 distinct geodesic gains between 1 and 7$"):
                _build_table(g)
            with pytest.raises(PathExplosion, match="^more than 3 distinct geodesic gains between 7 and 1$"):
                gain_distance_matrix(g, ordering, "max")
        _assert_same_table_under_cap(g, 3, ordering)

    def test_a_t4_matrix_covers_every_pair(self, monkeypatch):
        """The T4 walk covers every pair under any ordering, so a
        predicate after a matrix walks nothing more."""
        walks = spy_walks(monkeypatch)
        g = GainGraph(4, ((1, 2, 1j), (2, 4, 1), (1, 3, -1j), (3, 4, 1)))  # i and -i tie from 1 to 4
        o = VertexOrdering((2, 4, 1, 3))
        gain_distance_matrix(g, o, "max")
        assert not is_ordering_independent(g, o)
        assert walks == [None] and vars(g)["_geodesics"][0] is None

    def test_the_predicates_share_one_half_walk(self, monkeypatch):
        """The hypothesis pair of theorem 12, compatibility and ordering
        independence, walks its ordering's half once on a fresh graph."""
        walks = spy_walks(monkeypatch)
        g, o = _q4_generic(), _Q4_ORDER
        assert not is_compatible(g, o)
        assert is_ordering_independent(g, o)
        assert walks == [o.ranks]


#: An ordering of the 4-cube's vertices that is neither the standard one
#: nor its reverse.
_Q4_ORDER = VertexOrdering((5, 12, 1, 16, 9, 3, 14, 7, 2, 11, 8, 15, 4, 10, 6, 13))


def _q4_balanced():
    """The 4-cube with generic gains taken from a vertex potential, so
    balanced, compatible and ordering independent: theorem 12's
    hypothesis holds, and a switched copy has generic gains too."""
    rng = np.random.default_rng(16)
    theta = [cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(17)]
    return GainGraph(16, tuple((u, v, theta[u].conjugate() * theta[v]) for u, v, _ in _q4_generic().edges))


def _fresh(g):
    return GainGraph(g.n, g.edges)


def _hexed(report):
    """A report's fields in order, each float as ``float.hex``, so that
    0.0 and -0.0 differ and NaN equals NaN."""
    return tuple(float.hex(v) if type(v) is float else v for v in report._values())


class TestWalkBudget:
    """Each distance query walks only the geodesic gains it reads: a
    matrix or a predicate its ordering's half, a hop reader whatever
    table already covers it."""

    def test_a_session_walks_the_graph_once_and_its_switched_copy_by_half(self, monkeypatch):
        """The queries of one analysis session, in its order: the half of
        g, which both predicates read, then the half of the switched
        copy, which every call on it reads."""
        g, o = _q4_balanced(), _Q4_ORDER
        xi = random_switching(np.random.default_rng(17), g.n)
        walks = spy_walks(monkeypatch)
        assert is_balanced(g) and is_compatible(g, o) and is_ordering_independent(g, o)
        for mode in ("max", "min"):
            assert distance_factorization_residual(g, o, mode) < 1e-9
        assert balance_by_singularity(g, o).balanced
        assert balance_by_cospectrality(g, o).balanced
        rep = switching_similarity_check(g, o, xi)
        assert rep.hypothesis_met and rep.switched_compatible and rep.spectra_match
        distance_laplacian(g, o, "max")
        assert walks == [o.ranks, o.ranks]

    def test_cospectrality_walks_its_orderings_half(self, monkeypatch):
        g, o = _q4_generic(), _Q4_ORDER
        want = _hexed(balance_by_cospectrality(_fresh(g), o))
        walks = spy_walks(monkeypatch)
        assert _hexed(balance_by_cospectrality(g, o)) == want
        assert walks == [o.ranks]

    def test_readers_after_a_matrix_walk_only_what_it_does_not_cover(self, monkeypatch):
        """After a matrix, compatibility under its ordering and the hop
        readers walk nothing; compatibility under another ordering walks
        every pair."""
        g, o = _q4_generic(), _Q4_ORDER
        other = VertexOrdering.standard(g.n)
        verdicts = [is_compatible(_fresh(g), r) for r in (o, other)]
        hop, tr = shortest_distances(_fresh(g)), transmission_matrix(_fresh(g))
        walks = spy_walks(monkeypatch)
        gain_distance_matrix(g, o, "max")
        assert is_compatible(g, o) is verdicts[0]
        assert np.array_equal(shortest_distances(g), hop)
        assert np.array_equal(transmission_matrix(g), tr)
        assert walks == [o.ranks]
        assert is_compatible(g, other) is verdicts[1]
        assert walks == [o.ranks, None]

    @settings(max_examples=150, deadline=None)
    @given(half_cases(), st.integers(0, 2**32 - 1))
    def test_the_reports_have_the_bits_of_full_walks(self, case, seed):
        """The three balance reports of a fresh graph, field by field,
        are those computed when every walk covers every pair."""
        g, o = case
        xi = random_switching(np.random.default_rng(seed), g.n)
        reports = (
            lambda h: switching_similarity_check(h, o, xi),
            lambda h: balance_by_cospectrality(h, o),
            lambda h: balance_by_singularity(h, o),
        )
        full_build = gainlap.distances._build_table
        for report in reports:
            try:
                got = _hexed(report(_fresh(g)))
            except Disconnected as exc:
                got = exc.args
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gainlap.distances, "_build_table", lambda h, ranks=None: full_build(h))
                try:
                    want = _hexed(report(_fresh(g)))
                except Disconnected as exc:
                    want = exc.args
            assert got == want

    def test_cospectrality_meets_the_cap_only_in_its_orderings_half(self):
        """The two diamonds of the test above: a fresh graph's report
        raises from the walk that the matrix's half makes, from 7."""
        z = [cmath.exp(1j * (0.3 + 0.7 * k)) for k in range(8)]
        g = GainGraph(7, ((1, 2, z[0]), (1, 3, z[1]), (2, 4, z[2]), (3, 4, z[3]),
                          (4, 5, z[4]), (4, 6, z[5]), (5, 7, z[6]), (6, 7, z[7])))
        ordering = VertexOrdering((4, 5, 6, 7, 2, 3, 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 3)
            with pytest.raises(PathExplosion, match="^more than 3 distinct geodesic gains between 7 and 1$"):
                balance_by_cospectrality(g, ordering)


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
    relabelled, table = _build_table(_relabel(g, p)), _build_table(g)
    for have, expect in zip(relabelled[:3], table[:3]):
        assert np.array_equal(_bits(have[np.ix_(q, q)]), _bits(expect))
    assert float.hex(relabelled.tie_gap) == float.hex(table.tie_gap)


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


# --- ordering independence from the co-extremes of one half -------------


def _full_table_ordering_independent(g):
    """Ordering independence as the full geodesic table decides it: each
    gain distance matrix, hop * E for E the lex-max or lex-min table,
    changes under the reversed ordering by its distance from Hermitian."""
    table = _build_table(_fresh(g))
    return all(hermitian_residual(table.hop * ext) <= ENTRY_TOL for ext in (table.lex_max, table.lex_min))


def _near_balanced_cycle(n, phi, edge):
    """C_n with the edges (k, k + 1) and (1, n), all of gain 1 but edge
    number ``edge``, of gain e^{i phi}."""
    pairs = [(k, k + 1) for k in range(1, n)] + [(1, n)]
    return GainGraph(n, tuple((u, v, cmath.exp(1j * phi) if j == edge else 1 + 0j)
                              for j, (u, v) in enumerate(pairs)))


class TestOrderingIndependenceFromOneHalf:
    """The tie gap of an ordering's half against the full table's
    Hermitian residual, the check that decided ordering independence
    before it."""

    @settings(max_examples=200, deadline=None)
    @given(half_cases())
    def test_matches_the_full_table_check(self, case):
        g, o = case
        if len(_bfs(g._neighbors, 1)[1]) < g.n:
            return  # disconnected: no distances
        assert is_ordering_independent(g, o) is _full_table_ordering_independent(g)

    @pytest.mark.parametrize("n", [4, 12, 40])
    @pytest.mark.parametrize("exponent", range(3, 13))
    def test_near_balanced_cycles(self, n, exponent):
        """C_4, C_12 and C_40 with one gain e^{i phi}, phi = 1e-3 ... 1e-12:
        antipodal pairs carry 1 and e^{+-i phi}, tied in real part once
        phi is below about 1.4e-6."""
        g = _near_balanced_cycle(n, 10.0 ** -exponent, n - 1)
        want = _full_table_ordering_independent(g)
        rng = np.random.default_rng(n * 100 + exponent)
        for o in (VertexOrdering.standard(n), VertexOrdering.standard(n).reverse(), random_ordering(rng, n)):
            assert is_ordering_independent(_fresh(g), o) is want

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([4, 12, 40]), st.floats(-12, -3), st.booleans(), st.data())
    def test_near_balanced_cycles_at_any_phi(self, n, exponent, negative, data):
        phi = (-1.0 if negative else 1.0) * 10.0 ** exponent
        g = _near_balanced_cycle(n, phi, data.draw(st.integers(0, n - 1)))
        o = VertexOrdering(tuple(data.draw(st.permutations(range(1, n + 1)))))
        assert is_ordering_independent(g, o) is _full_table_ordering_independent(g)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 20).map(lambda k: 2 * k + 1), st.floats(-math.pi, math.pi), st.data())
    def test_odd_cycles_stay_compatible_and_ordering_independent(self, n, phi, data):
        """Every pair of an odd cycle has one geodesic, so both predicates
        hold at every phi."""
        g = _near_balanced_cycle(n, phi, data.draw(st.integers(0, n - 1)))
        o = VertexOrdering(tuple(data.draw(st.permutations(range(1, n + 1)))))
        assert is_compatible(g, o) and is_ordering_independent(g, o)


# --- any order of queries answers as a fresh graph does --------------------


def _answer_bits(x):
    """An answer in a form that compares bit for bit: arrays by dtype,
    shape and bytes, floats by hex, so 0.0 and -0.0 differ."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return tuple(map(_answer_bits, x))
    if isinstance(x, WeightedGainGraph):
        return _answer_bits(tuple(complex(z) for _, _, z in x.base.edges)), x.base.edge_pairs(), x.weights
    if isinstance(x, complex):
        return float.hex(x.real), float.hex(x.imag)
    if isinstance(x, float):
        return float.hex(x)
    return x


def _ask(query, g):
    try:
        return _answer_bits(query(g))
    except (Disconnected, PathExplosion) as exc:
        return type(exc), str(exc)


_MATRIX_QUERIES = (
    auxiliary_gain_matrix, gain_distance_matrix, distance_laplacian, distance_incidence,
    distance_factorization_residual, associated_complete_graph,
)


class DistanceQueries(RuleBasedStateMachine):
    """Every distance query, both predicates, four orderings and both
    modes, in any order on one graph: each answer has the bits of the
    same query on a fresh graph, whatever the memoized table covers."""

    @initialize(case=half_cases())
    def graph(self, case):
        self.g, o = case
        standard = VertexOrdering.standard(self.g.n)
        self.orderings = (o, o.reverse(), standard, standard.reverse())

    def _check(self, query):
        assert _ask(query, self.g) == _ask(query, _fresh(self.g))

    @rule(k=st.integers(0, 3), mode=st.sampled_from(["max", "min"]), query=st.sampled_from(_MATRIX_QUERIES))
    def matrix(self, k, mode, query):
        self._check(lambda h: query(h, self.orderings[k], mode))

    @rule(k=st.integers(0, 3), predicate=st.sampled_from([is_compatible, is_ordering_independent]))
    def predicate(self, k, predicate):
        self._check(lambda h: predicate(h, self.orderings[k]))

    @rule(reader=st.sampled_from([shortest_distances, transmission_matrix]))
    def hops(self, reader):
        self._check(reader)


TestDistanceQueries = DistanceQueries.TestCase
TestDistanceQueries.settings = settings(max_examples=80, stateful_step_count=12, deadline=None)


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
