"""Adjacency, Laplacian, and incidence matrices of weighted gain graphs.

The incidence matrix of an oriented weighted gain graph has one column
per edge: sqrt(w) at the tail row and -gain(tail -> head)^(-1) * sqrt(w)
at the head row.  Since gains are unit, the inverse is the conjugate.
With H* the conjugate transpose, L = H H* holds for every orientation,
and the same factorization applies to the gain distance Laplacian
through the incidence of the associated complete graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import auxiliary_gain_matrix, gain_distance_matrix, transmission_matrix
from .errors import ValidationError
from .graphs import GainGraph, Mode, VertexOrdering, WeightedGainGraph


@dataclass(frozen=True)
class IncidenceMatrix:
    """An (n, m) complex matrix plus the oriented edge of each column."""

    matrix: np.ndarray
    oriented_edges: tuple[tuple[int, int], ...]


def weighted_adjacency(wg: WeightedGainGraph) -> np.ndarray:
    """Hermitian adjacency matrix with entries gain(u -> v) * w(u, v)."""
    n = wg.base.n
    out = np.zeros((n, n), dtype=complex)
    for (u, v, z), w in zip(wg.base.edges, wg.weights):
        out[u - 1, v - 1] = z * w
        out[v - 1, u - 1] = z.conjugate() * w
    return out


def weighted_degree_matrix(wg: WeightedGainGraph) -> np.ndarray:
    """Diagonal matrix of the weight sums the graph's constructor formed."""
    return np.diag(wg._degree[1:])


def weighted_laplacian(wg: WeightedGainGraph) -> np.ndarray:
    """L = Deg - A; Hermitian and positive semidefinite."""
    return weighted_degree_matrix(wg) - weighted_adjacency(wg)


def weighted_incidence(
    wg: WeightedGainGraph,
    orientation: tuple[tuple[int, int], ...] | None = None,
) -> IncidenceMatrix:
    """Incidence matrix with one column per edge, in edge-list order.

    Args:
        wg: the weighted gain graph.
        orientation: optional (tail, head) per edge, aligned with the
            edge list.  Defaults to the stored u < v orientation.
    """
    n, edges = wg.base.n, wg.base.edges
    if orientation is None:
        orientation = tuple((u, v) for u, v, _ in edges)
    if len(orientation) != len(edges):
        raise ValidationError(
            f"orientation: expected {len(edges)} entries, got {len(orientation)}"
        )
    H = np.zeros((n, len(edges)), dtype=complex)
    for col, ((u, v, z), w, (t, h)) in enumerate(zip(edges, wg.weights, orientation)):
        if {t, h} != {u, v}:
            raise ValidationError(
                f"orientation[{col}]: ({t}, {h}) does not orient edge ({u}, {v})"
            )
        forward = z if (t, h) == (u, v) else z.conjugate()
        sw = math.sqrt(w)
        H[t - 1, col] = sw
        H[h - 1, col] = -forward.conjugate() * sw
    return IncidenceMatrix(H, tuple(orientation))


def factorization_residual(
    wg: WeightedGainGraph,
    orientation: tuple[tuple[int, int], ...] | None = None,
) -> float:
    """max |L - H H*|; tiny for every orientation."""
    H = weighted_incidence(wg, orientation).matrix
    return _residual(weighted_laplacian(wg), H)


def _residual(L: np.ndarray, H: np.ndarray) -> float:
    return float(np.max(np.abs(L - H @ H.conj().T)))


def hermitian_residual(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=complex)
    return float(np.max(np.abs(M - M.conj().T)))


# --- distance side -------------------------------------------------------


def distance_incidence(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> IncidenceMatrix:
    """Incidence matrix of the associated complete graph.

    One column per unordered vertex pair, tail at the ordering-smaller
    endpoint, weight d(u, v), columns sorted by (tail rank, head rank).
    """
    aux, hop = auxiliary_gain_matrix(g, ordering, mode)
    a, b = np.argsort(ordering.ranks)[np.stack(np.triu_indices(g.n, 1))]
    cols = np.arange(a.size)
    sw = np.sqrt(hop[a, b].astype(float))
    H = np.zeros((g.n, a.size), dtype=complex)
    H[a, cols] = sw
    H[b, cols] = -aux[a, b].conj() * sw
    return IncidenceMatrix(H, tuple(zip((a + 1).tolist(), (b + 1).tolist())))


def distance_laplacian(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> np.ndarray:
    """Gain distance Laplacian: transmissions on the diagonal minus the
    gain distance matrix."""
    return transmission_matrix(g) - gain_distance_matrix(g, ordering, mode)


def distance_factorization_residual(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> float:
    """max |DL - DH DH*| for the given mode and ordering."""
    DH = distance_incidence(g, ordering, mode).matrix
    return _residual(distance_laplacian(g, ordering, mode), DH)
