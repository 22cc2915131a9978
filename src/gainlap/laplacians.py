"""Adjacency, Laplacian, and incidence matrices of weighted gain graphs.

The incidence matrix H of an oriented weighted gain graph has one column
per edge: sqrt(w) at the tail row and -conj(gain(tail -> head)) * sqrt(w)
at the head row, so L = H H* for every orientation (H* the conjugate
transpose).  The distance objects are those of the associated complete
graph K(Θ), edge {u, v} of auxiliary gain and weight d(u, v), so
``_columns`` forms the columns of H for both sides, from the edge list or
the geodesic table, and no K(Θ) is built.  The public incidences densify
them; ``_residual`` sums H H* from the two nonzeros of each column, in
O(n² + m) time and memory.  The Laplacians stay dense Deg - A (for K(Θ),
the transmissions minus D): from the edge arrays, DL took ten times as
long, and L longer and with other bits.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLarge, ValidationError
from .graphs import GainGraph, Mode, VertexOrdering, WeightedGainGraph

#: Most bytes (n * m * 16) a dense incidence matrix may take, else TooLarge.
_INCIDENCE_BYTES = 1 << 26


def _columns(tails: np.ndarray, heads: np.ndarray, gains, weights) -> tuple:
    """(tails, heads, tail entries, head entries) of the edges tails[k] ->
    heads[k] (0-based), of gain(tail -> head) gains[k], weight weights[k]."""
    sw = np.sqrt(weights)
    return tails, heads, sw, -np.conj(gains) * sw


def _require_dense(n: int, m: int) -> None:
    """TooLarge unless a dense n x m incidence fits in ``_INCIDENCE_BYTES``;
    checked before any column is formed."""
    if n * m * 16 > _INCIDENCE_BYTES:
        raise TooLarge(f"a dense {n} x {m} incidence takes over {_INCIDENCE_BYTES} bytes")


def _incidence(n: int, columns: tuple) -> np.ndarray:
    tails, heads, at_tail, at_head = columns
    H, cols = np.zeros((n, tails.size), dtype=complex), np.arange(tails.size)
    H[tails, cols] = at_tail
    H[heads, cols] = at_head
    return H


def _residual(columns: tuple, L: np.ndarray) -> float:
    """max |L - H H*|, H H* summed from the columns, a at the tail and b at the head:
    a conj(b) at (tail, head), its conjugate at (head, tail), a² + |b|² on the diagonal."""
    tails, heads, a, b = columns
    n, R, off = len(L), L.astype(complex), a * np.conj(b)
    R[tails, heads] -= off  # a simple graph: no pair repeats
    R[heads, tails] -= np.conj(off)
    diag = np.bincount(tails, a * a, n) + np.bincount(heads, (b * b.conj()).real, n)
    R.flat[:: n + 1] -= diag
    return float(np.max(np.abs(R)))


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


def _edge_columns(wg: WeightedGainGraph, orientation) -> tuple:
    """The columns of the edges, oriented as ``factorization_residual`` says."""
    edges = wg.base.edges
    orientation = wg.base.edge_pairs() if orientation is None else orientation
    if len(orientation) != len(edges):
        raise ValidationError(f"orientation: expected {len(edges)} entries, got {len(orientation)}")
    gains = []
    for col, ((u, v, z), pair) in enumerate(zip(edges, orientation)):
        t, h = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
        if type(t) is not int or type(h) is not int or {t, h} != {u, v}:
            raise ValidationError(
                f"orientation[{col}]: expected ({u}, {v}) or ({v}, {u}), got {pair!r}"
            )
        gains.append(z if t == u else z.conjugate())
    tails, heads = np.array(orientation, dtype=np.intp).reshape(-1, 2).T - 1
    return _columns(tails, heads, gains, wg.weights)


def weighted_incidence(wg: WeightedGainGraph) -> np.ndarray:
    """Incidence matrix with one column per edge, in edge-list order, each
    edge oriented u -> v as stored (u < v); ``TooLarge`` past
    ``_INCIDENCE_BYTES``."""
    _require_dense(wg.base.n, wg.base.m)
    return _incidence(wg.base.n, _edge_columns(wg, None))


def factorization_residual(
    wg: WeightedGainGraph,
    orientation: tuple[tuple[int, int], ...] | None = None,
) -> float:
    """max |L - H H*|; tiny for every orientation.  ``orientation`` gives a
    (tail, head) pair of int vertices per edge, aligned with the edge list
    (else ValidationError); by default each edge is oriented u -> v as stored."""
    return _residual(_edge_columns(wg, orientation), weighted_laplacian(wg))


def _pair_columns(ordering: VertexOrdering, aux: np.ndarray, hop: np.ndarray) -> tuple:
    """The columns of K(Θ) from ``auxiliary_gain_matrix``'s (aux, hop): one per
    vertex pair, tail at the ordering-smaller end, weight d(u, v), sorted by
    (tail rank, head rank)."""
    tails, heads = np.argsort(ordering.ranks)[np.array(np.nonzero(~np.tri(len(hop), dtype=bool)))]
    return _columns(tails, heads, aux[tails, heads], hop[tails, heads].astype(float))


def distance_incidence(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> np.ndarray:
    """Incidence matrix of the associated complete graph: one column per
    vertex pair, its tail at the ordering-smaller end, the columns sorted
    by (tail rank, head rank).  ``TooLarge`` past ``_INCIDENCE_BYTES``,
    before the geodesic table is built."""
    from .distances import auxiliary_gain_matrix

    _require_dense(g.n, g.n * (g.n - 1) // 2)
    return _incidence(g.n, _pair_columns(ordering, *auxiliary_gain_matrix(g, ordering, mode)))


def _distance_laplacian(aux: np.ndarray, hop: np.ndarray) -> np.ndarray:
    """Transmissions on the diagonal minus D = aux * hop."""
    return np.diag(hop.sum(axis=1).astype(float)) - aux * hop


def distance_laplacian(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> np.ndarray:
    """Gain distance Laplacian: transmissions on the diagonal minus the
    gain distance matrix."""
    from .distances import auxiliary_gain_matrix

    return _distance_laplacian(*auxiliary_gain_matrix(g, ordering, mode))


def distance_factorization_residual(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> float:
    """max |DL - DH DH*| for the given mode and ordering, from one
    ``auxiliary_gain_matrix``."""
    from .distances import auxiliary_gain_matrix

    aux, hop = auxiliary_gain_matrix(g, ordering, mode)
    return _residual(_pair_columns(ordering, aux, hop), _distance_laplacian(aux, hop))
