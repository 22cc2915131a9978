"""Adjacency, Laplacian, and incidence matrices of weighted gain graphs.

The incidence matrix H of an oriented weighted gain graph has one column
per edge: sqrt(w) at the tail row and -conj(gain(tail -> head)) * sqrt(w)
at the head row, so L = H H* for every orientation (H* the conjugate
transpose).  The distance objects are those of the associated complete
graph K(Θ), edge {u, v} of auxiliary gain and weight d(u, v), so
``_incidence`` assembles H for both sides, from the edge list or from the
geodesic table, and no K(Θ) is built.  The Laplacians stay dense Deg - A
(for K(Θ), the transmissions minus D): from the edge arrays, DL took ten
times as long, and L longer and with other bits.
"""

from __future__ import annotations

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


def _incidence(n: int, tails: np.ndarray, heads: np.ndarray, gains, weights) -> IncidenceMatrix:
    """The incidence of the edges tails[k] -> heads[k] (0-based), each of
    gain(tail -> head) gains[k] and weight weights[k], in array order."""
    cols = np.arange(tails.size)
    sw = np.sqrt(weights)
    H = np.zeros((n, cols.size), dtype=complex)
    H[tails, cols] = sw
    H[heads, cols] = -np.conj(gains) * sw
    return IncidenceMatrix(H, tuple(zip((tails + 1).tolist(), (heads + 1).tolist())))


def _residual(L: np.ndarray, H: np.ndarray) -> float:
    return float(np.max(np.abs(L - H @ H.conj().T)))


def weighted_adjacency(wg: WeightedGainGraph) -> np.ndarray:
    """Hermitian adjacency matrix with entries gain(u -> v) * w(u, v)."""
    n = wg.base.n
    out = np.zeros((n, n), dtype=complex)
    for (u, v, z), w in zip(wg.base.edges, wg.weights):
        out[u - 1, v - 1] = z * w
        out[v - 1, u - 1] = z.conjugate() * w
    return out


def weighted_laplacian(wg: WeightedGainGraph) -> np.ndarray:
    """L = Deg - A; Hermitian and positive semidefinite."""
    return np.diag(wg._degree[1:]) - weighted_adjacency(wg)


def weighted_incidence(
    wg: WeightedGainGraph,
    orientation: tuple[tuple[int, int], ...] | None = None,
) -> IncidenceMatrix:
    """Incidence matrix with one column per edge, in edge-list order.

    Args:
        wg: the weighted gain graph.
        orientation: optional (tail, head) pair of int vertices per edge,
            aligned with the edge list (else ValidationError).  Defaults
            to the stored u < v orientation.
    """
    edges = wg.base.edges
    orientation = wg.base.edge_pairs() if orientation is None else orientation
    if len(orientation) != len(edges):
        raise ValidationError(
            f"orientation: expected {len(edges)} entries, got {len(orientation)}"
        )
    gains = []
    for col, ((u, v, z), pair) in enumerate(zip(edges, orientation)):
        t, h = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
        if type(t) is not int or type(h) is not int or {t, h} != {u, v}:
            raise ValidationError(
                f"orientation[{col}]: expected ({u}, {v}) or ({v}, {u}), got {pair!r}"
            )
        gains.append(z if t == u else z.conjugate())
    tails, heads = np.array(orientation, dtype=np.intp).reshape(-1, 2).T - 1
    return _incidence(wg.base.n, tails, heads, gains, wg.weights)


def factorization_residual(
    wg: WeightedGainGraph,
    orientation: tuple[tuple[int, int], ...] | None = None,
) -> float:
    """max |L - H H*|; tiny for every orientation."""
    return _residual(weighted_laplacian(wg), weighted_incidence(wg, orientation).matrix)


def distance_incidence(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> IncidenceMatrix:
    """Incidence matrix of the associated complete graph.

    One column per unordered vertex pair, tail at the ordering-smaller
    endpoint, weight d(u, v), columns sorted by (tail rank, head rank).
    """
    aux, hop = auxiliary_gain_matrix(g, ordering, mode)
    tails, heads = np.argsort(ordering.ranks)[np.stack(np.triu_indices(g.n, 1))]
    return _incidence(g.n, tails, heads, aux[tails, heads], hop[tails, heads].astype(float))


def distance_laplacian(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> np.ndarray:
    """Gain distance Laplacian: transmissions on the diagonal minus the
    gain distance matrix."""
    return transmission_matrix(g) - gain_distance_matrix(g, ordering, mode)


def distance_factorization_residual(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> float:
    """max |DL - DH DH*| for the given mode and ordering."""
    DH = distance_incidence(g, ordering, mode).matrix
    return _residual(distance_laplacian(g, ordering, mode), DH)
