"""Hermitian spectra and the three spectral balance criteria.

The potential route, the singularity/rank route, and the cospectrality
route must return the same verdict on every graph — including the
awkward ones where the distance matrices of the two modes coincide yet
the graph is unbalanced.
"""

import math

import numpy as np
import pytest

from conftest import (
    demo_graph,
    planted_unbalanced_graph,
    potential_balanced_graph,
    random_connected_graph,
    random_ordering,
    random_switching,
    unbalanced_geodetic_graphs,
)
from gainlap import (
    GainGraph,
    GainLapError,
    NotHermitian,
    SwitchingFunction,
    ValidationError,
    VertexOrdering,
    associated_complete_graph,
    balance_by_cospectrality,
    balance_by_singularity,
    det_direct,
    det_via_forests,
    distance_laplacian,
    hermitian_eigensystem,
    hermitian_spectrum,
    is_balanced,
    is_compatible,
    is_cospectral,
    max_eigenpair_residual,
    numerical_rank,
    shortest_distances,
    switching_similarity_check,
)
import gainlap.spectra
from gainlap.spectra import hermitian_residual
from gainlap.spectra import _log_singularity_threshold


def single_edge(gain):
    return GainGraph(2, ((1, 2, gain),))


def triangle(g12, g23, g31):
    # third label oriented 3 -> 1, stored on (1, 3) as its conjugate
    return GainGraph(3, ((1, 2, g12), (2, 3, g23), (1, 3, g31.conjugate())))


class TestHermitianSpectrum:
    def test_diagonal_is_exact(self):
        got = hermitian_spectrum(np.diag([5.0, 6.0, 7.0, 6.0, 8.0]))
        assert got.tolist() == [5.0, 6.0, 6.0, 7.0, 8.0]

    def test_single_edge_distance_laplacian(self):
        dl = distance_laplacian(single_edge(1j), VertexOrdering.standard(2), "max")
        assert hermitian_spectrum(dl) == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_unit_triangle_distance_laplacian(self):
        dl = distance_laplacian(
            triangle(1, 1, 1), VertexOrdering.standard(3), "max"
        )
        assert hermitian_spectrum(dl) == pytest.approx([0.0, 3.0, 3.0], abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_spectrum(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            hermitian_spectrum(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "call, want",
        [
            (lambda M: hermitian_spectrum(M).shape, (0,)),
            (lambda M: tuple(a.shape for a in hermitian_eigensystem(M)), ((0,), (0, 0))),
            (numerical_rank, 0),
            (max_eigenpair_residual, 0.0),
            (lambda M: is_cospectral(M, M), True),
        ],
        ids=["hermitian_spectrum", "hermitian_eigensystem", "numerical_rank",
             "max_eigenpair_residual", "is_cospectral"],
    )
    def test_empty_matrix(self, call, want):
        """Regression: max |M - M*| of a 0 x 0 matrix was numpy's max of
        an empty array, a bare ValueError."""
        assert call(np.zeros((0, 0))) == want

    def test_hermitian_residual_is_zero_when_empty_and_nan_with_a_nan(self):
        assert hermitian_residual(np.zeros((0, 0))) == 0.0
        assert math.isnan(hermitian_residual(np.array([[0.0, np.nan], [0.0, 0.0]])))

    def test_tolerance_override(self, monkeypatch):
        M = np.array([[1.0, 1.0 + 1e-9], [1.0, 1.0]])
        with pytest.raises(NotHermitian):
            hermitian_spectrum(M)
        monkeypatch.setattr(gainlap.spectra, "HERMITIAN_TOL", 1e-6)
        assert hermitian_spectrum(M) == pytest.approx([0.0, 2.0], abs=1e-8)

    def test_eigensystem_residual(self):
        rng = np.random.default_rng(307)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            M = A + A.conj().T
            vals, vecs = hermitian_eigensystem(M)
            assert list(vals) == sorted(vals)
            assert max_eigenpair_residual(M) <= 1e-10 * np.linalg.norm(M)
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) <= 1e-12

    def test_demo_laplacian_residual(self):
        dl = distance_laplacian(demo_graph(), VertexOrdering.standard(5), "max")
        assert max_eigenpair_residual(dl) <= 1e-10 * np.linalg.norm(dl)

    def test_rank_rejects_non_hermitian(self):
        """Regression: numerical_rank read one triangle only, and gave
        rank 0 for this matrix of rank 1."""
        with pytest.raises(NotHermitian):
            numerical_rank(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rank_rejects_non_square(self):
        """Regression: a bare numpy LinAlgError, not a GainLapError."""
        with pytest.raises(ValidationError):
            numerical_rank(np.ones((2, 3)))

    def test_det_direct_rejects_non_square(self):
        """Regression: a bare numpy LinAlgError, not a GainLapError."""
        for M in (np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))):
            with pytest.raises(ValidationError, match="expected a square matrix"):
                det_direct(M)
        assert det_direct(np.array([[2.0, 1j], [-1j, 3.0]])) == pytest.approx(5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        """Regression: rank 0 for [[nan]], False from is_cospectral(M, M),
        a spectrum of NaNs for [[inf, 0], [0, 1]]."""
        one = np.array([[bad]])
        two = np.array([[bad, 0.0], [0.0, 1.0]])
        for call in (
            lambda: numerical_rank(one),
            lambda: is_cospectral(one, one),
            lambda: hermitian_spectrum(two),
            lambda: hermitian_eigensystem(two),
            lambda: max_eigenpair_residual(two),
            lambda: det_direct(two),
        ):
            with pytest.raises(ValidationError, match="expected a finite matrix"):
                call()


class TestCospectrality:
    def test_identical(self):
        M = np.diag([1.0, 2.0, 3.0])
        assert is_cospectral(M, M)

    def test_single_edge_gain_does_not_move_spectrum(self):
        std = VertexOrdering.standard(2)
        dl_i = distance_laplacian(single_edge(1j), std, "max")
        dl_1 = distance_laplacian(single_edge(1), std, "max")
        assert np.max(np.abs(dl_i - dl_1)) > 0.5  # different matrices
        assert is_cospectral(dl_i, dl_1)

    def test_unbalanced_triangle_is_not_cospectral(self):
        std = VertexOrdering.standard(3)
        dl_i = distance_laplacian(triangle(1, 1, 1j), std, "max")
        dl_1 = distance_laplacian(triangle(1, 1, 1), std, "max")
        assert not is_cospectral(dl_i, dl_1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            is_cospectral(np.eye(2), np.eye(3))

    def test_shape_mismatch_is_a_package_error(self):
        with pytest.raises(GainLapError):
            is_cospectral(np.eye(2), np.eye(3))

    def test_trace_equals_total_distance(self):
        rng = np.random.default_rng(311)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 8)), int(rng.integers(0, 4)))
            ordering = random_ordering(rng, g.n)
            spec = hermitian_spectrum(distance_laplacian(g, ordering, "max"))
            assert float(np.sum(spec)) == pytest.approx(
                float(np.sum(shortest_distances(g))), rel=1e-12
            )


class TestSingularityVerdict:
    def test_demo_graph(self):
        report = balance_by_singularity(demo_graph(), VertexOrdering.standard(5))
        assert not report.balanced
        assert report.matches_potential
        assert report.rank_max == 5 and report.rank_min == 5
        assert abs(report.det_max) > report.threshold_max
        assert abs(report.det_min) > report.threshold_min

    def test_demo_dets_match_forest_expansion(self):
        # the distance Laplacian is the weighted Laplacian of the
        # associated complete graph, so its det has a forest expansion
        g, std = demo_graph(), VertexOrdering.standard(5)
        report = balance_by_singularity(g, std)
        for mode, det in (("max", report.det_max), ("min", report.det_min)):
            kd = associated_complete_graph(g, std, mode)
            assert det == pytest.approx(det_via_forests(kd), rel=1e-7)

    def test_single_edge_balanced(self):
        report = balance_by_singularity(single_edge(1j), VertexOrdering.standard(2))
        assert report.balanced
        assert report.matches_potential
        assert report.rank_max == 1 and report.rank_min == 1
        assert abs(report.det_max) <= report.threshold_max
        assert abs(report.det_min) <= report.threshold_min

    def test_balanced_corpus(self):
        rng = np.random.default_rng(313)
        for _ in range(15):
            g = potential_balanced_graph(rng, int(rng.integers(2, 8)), int(rng.integers(0, 4)))
            report = balance_by_singularity(g, random_ordering(rng, g.n))
            assert report.balanced and report.matches_potential
            assert report.rank_max == g.n - 1 and report.rank_min == g.n - 1

    def test_unbalanced_corpus(self):
        rng = np.random.default_rng(317)
        for _ in range(15):
            g = planted_unbalanced_graph(rng, int(rng.integers(4, 8)), int(rng.integers(1, 4)))
            report = balance_by_singularity(g, random_ordering(rng, g.n))
            assert not report.balanced and report.matches_potential
            assert report.rank_max == g.n and report.rank_min == g.n
            assert abs(report.det_max) > report.threshold_max
            assert abs(report.det_min) > report.threshold_min


class TestCospectralityVerdict:
    def test_verdicts_match_a_fresh_all_gain_1_copy(self):
        """The report reads the copy's Laplacian off g's own hop table;
        its verdicts must be those of a freshly built copy."""
        rng = np.random.default_rng(337)
        for build in (potential_balanced_graph, planted_unbalanced_graph) * 4:
            n = int(rng.integers(4, 8))
            g, ordering = build(rng, n, int(rng.integers(1, 4))), random_ordering(rng, n)
            fresh = GainGraph(n, tuple((u, v, 1) for u, v in g.edge_pairs()))
            plain = distance_laplacian(fresh, ordering, "max")
            report = balance_by_cospectrality(g, ordering)
            want = is_cospectral(distance_laplacian(g, ordering, "max"), plain)
            assert report.cospectral_with_underlying is want
            assert report.balanced is is_balanced(g)
            assert balance_by_cospectrality(g, ordering) == report

    def test_demo_graph(self):
        report = balance_by_cospectrality(demo_graph(), VertexOrdering.standard(5))
        assert not report.laplacians_match  # max and min matrices differ
        assert not report.balanced
        assert report.matches_potential

    def test_balanced_graph(self):
        rng = np.random.default_rng(331)
        g = potential_balanced_graph(rng, 6, 3)
        report = balance_by_cospectrality(g, random_ordering(rng, 6))
        assert report.laplacians_match
        assert report.cospectral_with_underlying
        assert report.balanced and report.matches_potential

    def test_laplacians_match_is_compatibility(self):
        """DLmax - DLmin is -(Dmax - Dmin), so the report's first leg is
        is_compatible, under the ordering and under its reverse."""
        rng = np.random.default_rng(347)
        t4 = (1, 1j, -1, -1j)
        for trial in range(24):
            n = int(rng.integers(3, 8))
            build = (random_connected_graph, potential_balanced_graph, planted_unbalanced_graph)[trial % 3]
            g = build(rng, n, int(rng.integers(1, 5)))
            if trial % 2:
                g = GainGraph(n, tuple((u, v, t4[int(rng.integers(4))]) for u, v in g.edge_pairs()))
            ordering = random_ordering(rng, n)
            for o in (ordering, ordering.reverse()):
                assert balance_by_cospectrality(g, o).laplacians_match is is_compatible(g, o)

    def test_matching_laplacians_do_not_imply_balance(self):
        # an unbalanced 5-cycle has unique geodesics, so both modes give
        # the same matrix; only the cospectrality leg exposes it
        g = GainGraph(
            5, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (1, 5, 1j))
        )
        assert not is_balanced(g)
        report = balance_by_cospectrality(g, VertexOrdering.standard(5))
        assert report.laplacians_match
        assert not report.cospectral_with_underlying
        assert not report.balanced
        assert report.matches_potential


class TestVerdictsAgree:
    def test_mixed_corpus(self):
        rng = np.random.default_rng(337)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            if trial % 3 == 0:
                g = random_connected_graph(rng, n, int(rng.integers(0, 4)))
            elif trial % 3 == 1:
                g = potential_balanced_graph(rng, n, int(rng.integers(0, 4)))
            else:
                g = planted_unbalanced_graph(rng, max(n, 4), int(rng.integers(1, 4)))
            ordering = random_ordering(rng, g.n)
            expected = is_balanced(g)
            assert balance_by_singularity(g, ordering).balanced == expected
            assert balance_by_cospectrality(g, ordering).balanced == expected


#: Unbalanced geodetic graphs, on which theorem 12 has something to judge.
GEODETIC = unbalanced_geodetic_graphs()


class TestSwitchingSimilarity:
    def test_single_edge_worked_example(self):
        g = single_edge(1j)
        xi = SwitchingFunction((1.0 + 0.0j, -1j))
        report = switching_similarity_check(g, VertexOrdering.standard(2), xi)
        assert report.hypothesis_met
        assert report.switched_compatible
        assert report.similarity_residual <= 1e-12
        assert report.spectra_match
        assert report.spectrum_gap <= 1e-8

    def test_hypothesis_fails_on_demo(self):
        report = switching_similarity_check(
            demo_graph(), VertexOrdering.standard(5), SwitchingFunction((1.0,) * 5)
        )
        assert not report.hypothesis_met
        assert report.similarity_residual is None
        assert report.spectra_match is None

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            switching_similarity_check(
                single_edge(1), VertexOrdering.standard(2), SwitchingFunction((1.0,) * 3)
            )

    def test_balanced_corpus(self):
        rng = np.random.default_rng(347)
        for _ in range(20):
            g = potential_balanced_graph(rng, int(rng.integers(2, 7)), int(rng.integers(0, 4)))
            report = switching_similarity_check(
                g, random_ordering(rng, g.n), random_switching(rng, g.n)
            )
            assert report.hypothesis_met
            assert report.switched_compatible
            assert report.similarity_residual <= 1e-10
            assert report.spectra_match

    @pytest.mark.parametrize("name", GEODETIC)
    def test_unbalanced_geodetic_graphs(self, name):
        """Theorem 12 judged on unbalanced graphs: every one meets the
        hypothesis, and the switch conjugates D and keeps DL's spectrum."""
        g = GEODETIC[name]
        rng = np.random.default_rng(g.n)
        ordering = random_ordering(rng, g.n)
        assert not is_balanced(g)
        report = switching_similarity_check(g, ordering, random_switching(rng, g.n))
        assert report.hypothesis_met and report.switched_compatible
        assert report.similarity_residual <= gainlap.spectra.SIMILARITY_TOL
        assert report.spectra_match


class TestLargeCycles:
    """Determinants of the distance Laplacians of long unbalanced cycles
    overflow a float; the verdicts and the log fields must not."""

    @pytest.mark.parametrize("n", [100, 160])
    def test_log_domain_fields(self, n):
        rng = np.random.default_rng(n)
        pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        g = GainGraph(n, tuple((u, v, np.exp(2j * np.pi * rng.random())) for u, v in pairs))
        report = balance_by_singularity(g, VertexOrdering.standard(n))
        assert report.det_max == np.inf and report.threshold_max == np.inf
        assert not report.balanced and report.matches_potential
        assert report.rank_max == n and report.rank_min == n
        assert np.isfinite(report.log_det_max) and np.isfinite(report.log_threshold_max)
        assert report.log_det_max > report.log_threshold_max
        assert report.log_det_min > report.log_threshold_min


class TestSingularityThreshold:
    def test_identity(self):
        assert math.exp(_log_singularity_threshold(np.eye(3))) == pytest.approx(1e-8)

    def test_scales_with_rows(self):
        M = np.diag([10.0, 10.0])
        assert math.exp(_log_singularity_threshold(M)) == pytest.approx(1e-6)
