"""Weighted adjacency/Laplacian/incidence and their distance-side twins.

The central identities: L = H H* for every edge orientation, and
DL = DH DH* for both modes and both orderings, where H* is the
conjugate transpose.
"""

import math

import numpy as np
import pytest

from conftest import random_connected_graph, random_ordering, random_weighted
from gainlap import (
    GainGraph,
    ValidationError,
    VertexOrdering,
    WeightedGainGraph,
    distance_factorization_residual,
    distance_incidence,
    distance_laplacian,
    factorization_residual,
    gain_distance_matrix,
    transmission_matrix,
    unit_weights,
    weighted_adjacency,
    weighted_degree_matrix,
    weighted_incidence,
    weighted_laplacian,
)


class TestAdjacencyAndLaplacian:
    def test_single_edge_gain_i_weight_3(self):
        wg = WeightedGainGraph(GainGraph(2, ((1, 2, 1j),)), (3.0,))
        assert np.allclose(weighted_adjacency(wg), [[0, 3j], [-3j, 0]])
        assert np.allclose(weighted_laplacian(wg), [[3, -3j], [3j, 3]])

    def test_unit_triangle_all_gain_one(self):
        wg = unit_weights(GainGraph(3, ((1, 2, 1), (1, 3, 1), (2, 3, 1))))
        L = weighted_laplacian(wg)
        assert np.allclose(L, 3 * np.eye(3) - np.ones((3, 3)))

    def test_hermitian_and_degrees(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            wg = random_weighted(rng, random_connected_graph(rng, n, int(rng.integers(0, 4))))
            A = weighted_adjacency(wg)
            assert np.max(np.abs(A - A.conj().T)) == 0.0
            deg = np.diag(weighted_degree_matrix(wg))
            assert np.allclose(deg, np.abs(A).sum(axis=1), atol=1e-12)


class TestIncidence:
    def test_single_edge_column(self):
        wg = WeightedGainGraph(GainGraph(2, ((1, 2, 1j),)), (4.0,))
        inc = weighted_incidence(wg)
        assert inc.oriented_edges == ((1, 2),)
        # sqrt(w) at the tail, -(gain)^(-1) sqrt(w) at the head
        assert np.allclose(inc.matrix, [[2.0], [-(-1j) * 2.0]])

    def test_unit_path_matches_classical_pattern(self):
        wg = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1))))
        inc = weighted_incidence(wg)
        assert np.allclose(inc.matrix, [[1, 0], [-1, 1], [0, -1]])

    def test_directed_triangle_pattern(self):
        # oriented around the cycle: 1->2, 2->3, 3->1
        g = GainGraph(3, ((1, 2, 0.6 + 0.8j), (1, 3, 1j), (2, 3, -1.0)))
        wg = WeightedGainGraph(g, (1.0, 2.25, 4.0))
        inc = weighted_incidence(wg, orientation=((1, 2), (3, 1), (2, 3)))
        w1, w2, w3 = 1.0, 2.25, 4.0
        phi12, phi31, phi23 = 0.6 + 0.8j, -1j, -1.0
        expected = np.array(
            [
                [math.sqrt(w1), -phi31.conjugate() * math.sqrt(w2), 0],
                [-phi12.conjugate() * math.sqrt(w1), 0, math.sqrt(w3)],
                [0, math.sqrt(w2), -phi23.conjugate() * math.sqrt(w3)],
            ]
        )
        assert np.allclose(inc.matrix, expected, atol=1e-15)

    def test_bad_orientation_rejected(self):
        wg = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1))))
        with pytest.raises(ValidationError):
            weighted_incidence(wg, orientation=((1, 2), (1, 3)))


class TestFactorization:
    def test_residual_tiny_default_orientation(self):
        rng = np.random.default_rng(103)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            wg = random_weighted(rng, random_connected_graph(rng, n, int(rng.integers(0, 5))))
            assert factorization_residual(wg) <= 1e-12

    def test_residual_tiny_any_orientation(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            wg = random_weighted(rng, random_connected_graph(rng, n, int(rng.integers(0, 4))))
            flipped = tuple(
                (u, v) if rng.random() < 0.5 else (v, u) for u, v, _ in wg.base.edges
            )
            assert factorization_residual(wg, flipped) <= 1e-12

    def test_tree_laplacian_is_singular(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            wg = random_weighted(rng, random_connected_graph(rng, n, 0))
            L = weighted_laplacian(wg)
            assert factorization_residual(wg) <= 1e-12
            scale = 1.0
            for j in range(n):
                scale *= max(1.0, float(np.linalg.norm(L[:, j])))
            assert abs(np.linalg.det(L)) <= 1e-9 * scale


class TestDistanceIncidence:
    def test_single_edge(self):
        g = GainGraph(2, ((1, 2, 1j),))
        inc = distance_incidence(g, VertexOrdering.standard(2), "max")
        assert np.allclose(inc.matrix, [[1.0], [1j]])  # -conj(i) = i

    def test_demo_pair_column(self, demo, std5):
        inc = distance_incidence(demo, std5, "max")
        col = inc.oriented_edges.index((3, 5))
        expected = np.zeros(5, dtype=complex)
        expected[2] = math.sqrt(3.0)
        expected[4] = -math.sqrt(3.0)  # auxiliary gain 1 at hop distance 3
        assert np.allclose(inc.matrix[:, col], expected, atol=1e-15)

    def test_columns_sorted_by_rank_pairs(self, demo, std5):
        inc = distance_incidence(demo, std5, "max")
        ranks = [(std5.ranks[a - 1], std5.ranks[b - 1]) for a, b in inc.oriented_edges]
        assert ranks == sorted(ranks)
        rev, rev_ranks = distance_incidence(demo, std5.reverse(), "max"), std5.reverse().ranks
        assert all(rev_ranks[a - 1] < rev_ranks[b - 1] for a, b in rev.oriented_edges)

    def test_unit_triangle_matches_classical_complete_incidence(self):
        g = GainGraph(3, ((1, 2, 1), (1, 3, 1), (2, 3, 1)))
        inc = distance_incidence(g, VertexOrdering.standard(3), "max")
        expected = np.array([[1, 1, 0], [-1, 0, 1], [0, -1, -1]], dtype=complex)
        assert np.allclose(inc.matrix, expected)


class TestDistanceLaplacian:
    def test_single_edge_gain_i(self):
        g = GainGraph(2, ((1, 2, 1j),))
        dl = distance_laplacian(g, VertexOrdering.standard(2), "max")
        assert np.allclose(dl, [[1, -1j], [1j, 1]])

    def test_transmission_minus_distance(self, demo, std5):
        for mode in ("max", "min"):
            dl = distance_laplacian(demo, std5, mode)
            assert np.allclose(
                dl, transmission_matrix(demo) - gain_distance_matrix(demo, std5, mode)
            )

    def test_rows_sum_to_zero_when_all_gains_one(self):
        rng = np.random.default_rng(113)
        g = random_connected_graph(rng, 7, 4).underlying()
        dl = distance_laplacian(g, VertexOrdering.standard(7), "max")
        assert np.max(np.abs(dl.sum(axis=1))) <= 1e-12


class TestDistanceFactorization:
    def test_demo_both_modes_and_orderings(self, demo, std5):
        for ordering in (std5, std5.reverse()):
            for mode in ("max", "min"):
                assert distance_factorization_residual(demo, ordering, mode) <= 1e-12

    def test_random_graphs(self):
        rng = np.random.default_rng(127)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_connected_graph(rng, n, int(rng.integers(0, 4)))
            ordering = random_ordering(rng, n)
            for o in (ordering, ordering.reverse()):
                for mode in ("max", "min"):
                    assert distance_factorization_residual(g, o, mode) <= 1e-12
