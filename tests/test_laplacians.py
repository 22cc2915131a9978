"""Weighted adjacency/Laplacian/incidence and their distance-side twins.

The central identities: L = H H* for every edge orientation, and
DL = DH DH* for both modes and both orderings, where H* is the
conjugate transpose.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, random_ordering, random_weighted
from gainlap import (
    GainGraph,
    TooLarge,
    ValidationError,
    VertexOrdering,
    WeightedGainGraph,
    distance_factorization_residual,
    distance_incidence,
    distance_laplacian,
    factorization_residual,
    gain_distance_matrix,
    shortest_distances,
    transmission_matrix,
    unit_weights,
    weighted_adjacency,
    weighted_incidence,
    weighted_laplacian,
)
from gainlap import distances, laplacians

EPS = np.finfo(float).eps


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
            deg = np.diag(weighted_laplacian(wg)).real
            assert np.allclose(deg, np.abs(A).sum(axis=1), atol=1e-12)


class TestIncidence:
    def test_single_edge_column(self):
        wg = WeightedGainGraph(GainGraph(2, ((1, 2, 1j),)), (4.0,))
        # sqrt(w) at the tail 1, -(gain)^(-1) sqrt(w) at the head 2
        assert np.allclose(weighted_incidence(wg), [[2.0], [-(-1j) * 2.0]])

    def test_unit_path_matches_classical_pattern(self):
        wg = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1))))
        assert np.allclose(weighted_incidence(wg), [[1, 0], [-1, 1], [0, -1]])

    def test_directed_triangle_pattern(self):
        """The columns ``factorization_residual`` sums for an orientation:
        here around the cycle, 1->2, 2->3, 3->1."""
        g = GainGraph(3, ((1, 2, 0.6 + 0.8j), (1, 3, 1j), (2, 3, -1.0)))
        wg = WeightedGainGraph(g, (1.0, 2.25, 4.0))
        H = laplacians._incidence(3, laplacians._edge_columns(wg, ((1, 2), (3, 1), (2, 3))))
        w1, w2, w3 = 1.0, 2.25, 4.0
        phi12, phi31, phi23 = 0.6 + 0.8j, -1j, -1.0
        expected = np.array(
            [
                [math.sqrt(w1), -phi31.conjugate() * math.sqrt(w2), 0],
                [-phi12.conjugate() * math.sqrt(w1), 0, math.sqrt(w3)],
                [0, math.sqrt(w2), -phi23.conjugate() * math.sqrt(w3)],
            ]
        )
        assert np.allclose(H, expected, atol=1e-15)
        assert factorization_residual(wg, ((1, 2), (3, 1), (2, 3))) <= 1e-12

    def test_bad_orientation_rejected(self):
        wg = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1))))
        with pytest.raises(ValidationError):
            factorization_residual(wg, orientation=((1, 2), (1, 3)))

    @pytest.mark.parametrize(
        "orientation",
        [((1, 2, 3), (2, 3)), (None, (2, 3)), ((1.0, 2), (3, 2))],
        ids=["triple", "none", "float-vertex"],
    )
    def test_malformed_orientation_entry_named(self, orientation):
        wg = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1))))
        with pytest.raises(ValidationError, match=r"orientation\[0\]"):
            factorization_residual(wg, orientation)

    @pytest.mark.parametrize("orientation", [((1, 2),), ((1, 2), (2, 3), (1, 3))])
    def test_orientation_of_the_wrong_length(self, orientation):
        wg = unit_weights(GainGraph(3, ((1, 2, 1), (2, 3, 1))))
        want = f"^orientation: expected 2 entries, got {len(orientation)}$"
        with pytest.raises(ValidationError, match=want):
            factorization_residual(wg, orientation)


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
        H = distance_incidence(g, VertexOrdering.standard(2), "max")
        assert np.allclose(H, [[1.0], [1j]])  # -conj(i) = i

    def test_demo_pair_column(self, demo, std5):
        H = distance_incidence(demo, std5, "max")
        (col,) = [k for k in range(H.shape[1]) if np.flatnonzero(H[:, k]).tolist() == [2, 4]]
        expected = np.zeros(5, dtype=complex)
        expected[2] = math.sqrt(3.0)
        expected[4] = -math.sqrt(3.0)  # auxiliary gain 1 at hop distance 3
        assert np.allclose(H[:, col], expected, atol=1e-15)

    def test_columns_sorted_by_rank_pairs(self, demo, std5):
        """Read off the nonzero pattern, the columns run over the vertex
        pairs sorted by (tail rank, head rank), and each holds
        sqrt(d(u, v)) at its tail, the ordering-smaller end."""
        hop = shortest_distances(demo)
        for o in (std5, std5.reverse()):
            H, pairs = distance_incidence(demo, o, "max"), []
            for col in H.T:
                tail, head = sorted(np.flatnonzero(col), key=lambda v: o.ranks[v])
                assert col[tail] == math.sqrt(hop[tail, head])
                pairs.append((o.ranks[tail], o.ranks[head]))
            assert pairs == list(itertools.combinations(range(1, 6), 2))

    def test_unit_triangle_matches_classical_complete_incidence(self):
        g = GainGraph(3, ((1, 2, 1), (1, 3, 1), (2, 3, 1)))
        H = distance_incidence(g, VertexOrdering.standard(3), "max")
        expected = np.array([[1, 1, 0], [-1, 0, 1], [0, -1, -1]], dtype=complex)
        assert np.allclose(H, expected)


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
        g = random_connected_graph(rng, 7, 4)
        g = GainGraph(g.n, tuple((u, v, 1.0) for u, v in g.edge_pairs()))
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

    def test_one_auxiliary_gain_matrix_per_residual(self, monkeypatch):
        """Regression: the residual formed the auxiliary gains twice, for
        the columns and again through distance_laplacian."""
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        real = distances.auxiliary_gain_matrix
        # laplacians imports it from distances at each call
        monkeypatch.setattr(distances, "auxiliary_gain_matrix", counted)
        rng = np.random.default_rng(131)
        g = random_connected_graph(rng, 7, 4)
        ordering = random_ordering(rng, 7)
        for o in (ordering, ordering.reverse()):
            for mode in ("max", "min"):
                calls.clear()
                distance_factorization_residual(g, o, mode)
                assert len(calls) == 1

    def test_same_bits_as_transmissions_minus_d(self):
        """DL and the residual keep the bits of transmission_matrix minus
        gain_distance_matrix, for generic and T4 gains."""
        rng = np.random.default_rng(137)
        for k in range(24):
            n = int(rng.integers(1, 9))
            g = random_connected_graph(rng, n, int(rng.integers(0, 5)))
            if k % 2:
                g = GainGraph(n, tuple((u, v, 1j ** int(rng.integers(4))) for u, v, _ in g.edges))
            ordering = random_ordering(rng, n)
            for o in (ordering, ordering.reverse()):
                for mode in ("max", "min"):
                    DL = transmission_matrix(g) - gain_distance_matrix(g, o, mode)
                    assert distance_laplacian(g, o, mode).tobytes() == DL.tobytes()
                    columns = laplacians._pair_columns(o, *distances.auxiliary_gain_matrix(g, o, mode))
                    want = laplacians._residual(columns, DL)
                    assert float.hex(distance_factorization_residual(g, o, mode)) == float.hex(want)


# --- the residuals sum H H* from the columns of H, never densifying it -----


@st.composite
def connected_graphs(draw):
    """A connected graph on at most 11 vertices, with random unit gains
    or gains in {±1, ±i}."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, draw(st.integers(1, 11)), draw(st.integers(0, 15)))
    if draw(st.booleans()):
        g = GainGraph(g.n, tuple((u, v, 1j ** int(rng.integers(4))) for u, v, _ in g.edges))
    return g, rng


def random_c300() -> GainGraph:
    """The 300-cycle with random unit gains."""
    rng = np.random.default_rng(300)
    gains = np.exp(2j * np.pi * rng.random(300))
    path = tuple((k, k + 1, complex(z)) for k, z in zip(range(1, 300), gains))
    return GainGraph(300, path + ((1, 300, complex(gains[-1])),))


def _dense_gap(columns, H) -> float:
    """max |H H*(from the columns) - H @ H*(dense)|."""
    return laplacians._residual(columns, H @ H.conj().T)


class TestResidualFromColumns:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs())
    def test_weighted_side_matches_the_dense_product(self, case):
        """Weights spread over eight decades, a random orientation: the
        summed H H* equals the dense product within a few eps max|L|."""
        g, rng = case
        wg = WeightedGainGraph(g, tuple(float(w) for w in np.exp(rng.uniform(-9.0, 9.0, g.m))))
        orientation = tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v, _ in g.edges)
        columns = laplacians._edge_columns(wg, orientation)
        H = laplacians._incidence(g.n, columns)
        bound = 4 * EPS * np.max(np.abs(weighted_laplacian(wg)))
        assert _dense_gap(columns, H) <= bound

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs())
    def test_distance_side_matches_the_dense_product(self, case):
        g, rng = case
        ordering = random_ordering(rng, g.n)
        for o in (ordering, ordering.reverse()):
            for mode in ("max", "min"):
                H = distance_incidence(g, o, mode)
                bound = 4 * EPS * np.max(np.abs(distance_laplacian(g, o, mode)))
                assert _dense_gap(laplacians._pair_columns(o, *distances.auxiliary_gain_matrix(g, o, mode)), H) <= bound

    def test_theorem_7_on_c300_stays_small(self):
        """Regression: the dense 300 x 44850 DH and its product peaked at
        434 MB (tracemalloc); summed from the columns, the residual needs
        O(n² + m) memory."""
        g = random_c300()
        tracemalloc.start()
        try:
            residual = distance_factorization_residual(g, VertexOrdering.standard(300), "max")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual < 1e-10
        assert peak < 32 * 2**20


class TestIncidenceBudget:
    def test_dense_incidences_past_the_budget_are_refused(self, demo, std5, monkeypatch):
        """The demo's incidences are 5 x 5 and, for K(Θ), 5 x 10: each is
        built at exactly its size in bytes and refused one byte below."""
        wg = unit_weights(demo)
        for build, size in ((lambda: weighted_incidence(wg), 5 * 5 * 16),
                            (lambda: distance_incidence(demo, std5, "max"), 5 * 10 * 16)):
            monkeypatch.setattr(laplacians, "_INCIDENCE_BYTES", size)
            assert build().nbytes == size
            monkeypatch.setattr(laplacians, "_INCIDENCE_BYTES", size - 1)
            with pytest.raises(TooLarge, match=f"over {size - 1} bytes"):
                build()

    def test_residuals_need_no_dense_incidence(self, demo, std5, monkeypatch):
        monkeypatch.setattr(laplacians, "_INCIDENCE_BYTES", 0)
        assert factorization_residual(unit_weights(demo)) <= 1e-12
        assert distance_factorization_residual(demo, std5, "min") <= 1e-12

    def test_distance_incidence_refused_before_the_geodesic_table(self):
        """Regression: C_300's 300 x 44850 incidence (215 MB) was refused
        only after its geodesic table had been built and memoized."""
        g = random_c300()
        with pytest.raises(TooLarge, match="a dense 300 x 44850 incidence"):
            distance_incidence(g, VertexOrdering.standard(300), "max")
        assert "_geodesics" not in vars(g)

    def test_k100_fits_the_default_budget(self):
        """No benchmark document has more than 100 vertices."""
        assert 100 * (100 * 99 // 2) * 16 <= laplacians._INCIDENCE_BYTES
