"""Hop distances, geodesic enumeration, and gain distance matrices.

For an ordered vertex pair the auxiliary gain is the lexicographically
extremal (real part first, then imaginary part) gain over all shortest
paths between the two vertices, conjugated when the pair is queried
against the active vertex ordering.  The gain distance matrix scales
each auxiliary gain by the hop distance; it is Hermitian with zero
diagonal by construction.

Every distance object reads one geodesic table per graph, memoized on
the graph.  Its one driver refuses a disconnected graph, then per source
runs one BFS and has one of two walks return the source's lex-max and
lex-min rows.  The float walk follows the shortest-path DAG in BFS
order and gives each vertex the set of distinct gains of its geodesics
from the source, each formed left to right as
:func:`~gainlap.graphs.path_gain` forms it, so every kept value is bit
for bit the gain of one of those geodesics.  A vertex whose geodesics
so far share one gain holds that bare complex, pushed on by one
multiplication per edge; it becomes a set only when a second distinct
gain arrives.  Of gains equal under ``==`` (such as 0.0 and -0.0 parts)
the first to arrive is kept, as a set keeps it.  A pair with more than
``DEFAULT_PATH_CAP`` distinct geodesic gains raises ``PathExplosion``.
Path enumeration stays as public API and as a test oracle.

When every edge gain is exactly one of the eight signed T4 values
(1, +-0), (+-0, 1), (-1, +-0) and (+-0, -1) (signed graphs included),
the T4 walk runs the same walk on small ints: a vertex's gain set is an
8-bit state, one bit per element i^k present and one for the sign of
the zero part of its kept value, and every product, first-wins merge,
and lex extreme is a lookup in tables built on the first such graph
from Python complex products and :func:`_lex_extremes`.  Such products
are exact, so its rows are bit for bit the float walk's, signed zeros
included.  A T4 set holds at most 4 gains, so it never reaches the path
cap.  Gains that are T4 values only up to rounding, such as the
``theta`` form of pi/2, take the float walk with their own bits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache
from math import copysign
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

from .errors import Disconnected, PathExplosion, ValidationError
from .graphs import GainGraph, Mode, VertexOrdering, WeightedGainGraph
from .graphs import _bfs, _check_vertex, _require_connected

#: Cap on the number of distinct geodesic gains of one vertex pair, and
#: on the number of paths :func:`enumerate_shortest_paths` lists.
DEFAULT_PATH_CAP = 1_000_000

#: Real parts within this distance of the extremal one count as tied
#: with it; the imaginary part then decides among them.
LEX_TIE_BAND = 1e-12

#: Entrywise tolerance for matrix-equality predicates.
ENTRY_TOL = 1e-9


def _require_mode(mode: str) -> None:
    if mode not in ("max", "min"):
        raise ValidationError(f"mode: expected 'max' or 'min', got {mode!r}")


def _require_ordering(g: GainGraph, ordering: VertexOrdering) -> None:
    if ordering.n != g.n:
        raise ValidationError(f"ordering covers {ordering.n} vertices, graph has {g.n}")


class _GeodesicTable(NamedTuple):
    """Row s, column t: hop distance and lex-extremal geodesic gain from
    vertex s + 1 to vertex t + 1; the diagonal gains are zero."""

    hop: np.ndarray
    lex_max: np.ndarray
    lex_min: np.ndarray


def _too_many(cap: int, u: int, v: int) -> PathExplosion:
    return PathExplosion(f"more than {cap} distinct geodesic gains between {u} and {v}")


#: Exponent k of each element i^k of T4, looked up by value.  Signed
#: zeros compare equal, so the sign of the zero part is read apart.
_T4_EXPONENT = {1 + 0j: 0, 1j: 1, -1 + 0j: 2, -1j: 3}


def _t4_code(z: complex) -> int | None:
    """k + 4 * (zero part is -0.0) for z == i^k, None for any other z."""
    k = _T4_EXPONENT.get(z)
    if k is None:
        return None
    return k | (copysign(1.0, z.real if k & 1 else z.imag) < 0) << 2


@cache
def _t4_tables() -> tuple[list[list[int]], list[int], np.ndarray]:
    """Lookup tables of the exact T4 walk, built on first use.

    A gain set is an 8-bit state: bit k when i^k is in it, bit k + 4
    when the zero part of its kept value (the first to arrive) is -0.0.
    Per state: ``mul[state][code]``, the set times the value of an edge
    code; ``keep[state]``, the bits a merge may still set, so merging x
    into acc gives ``acc | (x & keep[acc])``; and ``ext[:, state]``,
    its lex max and min (0j for the empty set).  Only states whose sign
    bits lie under their element bits occur; the others are left empty.
    """
    # The value of each code, and the state of the set holding it alone.
    value = [complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0),
             complex(1.0, -0.0), complex(-0.0, 1.0), complex(-1.0, -0.0), complex(-0.0, -1.0)]
    alone = [1 << (c & 3) | (c >> 2) << ((c & 3) + 4) for c in range(8)]
    prod = [[alone[_t4_code(x * z)] for z in value] for x in value]
    mul: list[list[int]] = [[]] * 256
    keep = [0] * 256
    hi, lo = [0j] * 256, [0j] * 256
    for state in range(256):
        present = state & 15
        if state >> 4 & ~present:
            continue
        codes = [k | (state >> (k + 4) & 1) << 2 for k in range(4) if present >> k & 1]
        row = [0] * 8
        for c in codes:
            row = [r | p for r, p in zip(row, prod[c])]
        mul[state] = row
        keep[state] = 255 ^ (present | present << 4)
        if codes:
            hi[state], lo[state] = _lex_extremes([value[c] for c in codes])
    return mul, keep, np.array([hi, lo])


def _t4_adjacency(g: GainGraph) -> list[list[tuple[int, int]]] | None:
    """Per vertex a, (b, code of the gain a -> b) for each neighbor b;
    None at the first gain that is not a signed T4 value.  The order of
    a row is free: each of its edges leads to a different vertex."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for u, v, z in g.edges:
        code = _t4_code(z)
        if code is None:
            return None
        adj[u].append((v, code))
        adj[v].append((u, _t4_code(z.conjugate())))
    return adj


def _t4_walk(adj: list, s: int, dist: list[int], order: list[int]) -> np.ndarray:
    """The float walk's rows of source s, walked on 8-bit gain-set states."""
    mul, keep, ext = _t4_tables()
    state = [0] * len(dist)
    state[s] = 1  # {1 + 0j}
    for a in order:
        row = mul[state[a]]
        step = dist[a] + 1
        for b, c in adj[a]:
            if dist[b] == step:
                acc = state[b]
                state[b] = acc | (row[c] & keep[acc])
    state[s] = 0  # the zero diagonal
    return ext[:, state[1:]]


def _float_walk(adj: list, s: int, dist: list[int], order: list[int]) -> tuple[list, list]:
    """The lex-max and lex-min rows of source s, from the sets of
    distinct geodesic gains; ``PathExplosion`` past the path cap."""
    cap = DEFAULT_PATH_CAP
    hi, lo = [0j] * len(dist), [0j] * len(dist)
    # Per vertex: None until reached, then its one geodesic gain as a
    # bare complex, then a set once a second distinct gain arrives.
    # BFS order completes a vertex's gains before reading them.
    gains: list = [None] * len(dist)
    gains[s] = 1.0 + 0.0j
    for a in order:
        ws = gains[a]
        step = dist[a] + 1
        if type(ws) is complex:
            hi[a] = lo[a] = ws
            for b, z in adj[a]:
                if dist[b] == step:
                    w = ws * z
                    acc = gains[b]
                    if acc is None:
                        gains[b] = w
                        continue
                    if type(acc) is complex:
                        if acc == w:  # keep the first of == gains (signed zeros)
                            continue
                        acc = gains[b] = {acc}
                    acc.add(w)
                    if len(acc) > cap:
                        raise _too_many(cap, s, b)
            continue
        gains[a] = None  # a set is dropped once pushed on
        if len(ws) == 1:
            (only,) = ws
            hi[a] = lo[a] = only
        else:
            hi[a], lo[a] = _lex_extremes(ws)
        for b, z in adj[a]:
            if dist[b] == step:
                acc = gains[b]
                if acc is None:
                    acc = gains[b] = set()
                elif type(acc) is complex:
                    acc = gains[b] = {acc}
                acc.update([w * z for w in ws])
                if len(acc) > cap:
                    raise _too_many(cap, s, b)
    hi[s] = lo[s] = 0j
    return hi[1:], lo[1:]


def _build_table(g: GainGraph) -> _GeodesicTable:
    """The geodesic table of g, by the driver the module docstring describes."""
    _require_connected(g)
    adj, walk = _t4_adjacency(g), _t4_walk
    if adj is None:
        adj = [[(b, g.gain(a, b)) for b in nbrs] for a, nbrs in enumerate(g._neighbors)]
        walk = _float_walk
    n = g.n
    hop = np.zeros((n, n), dtype=int)
    lex_max = np.zeros((n, n), dtype=complex)
    lex_min = np.zeros((n, n), dtype=complex)
    for s in range(1, n + 1):
        dist, order, _ = _bfs(g._neighbors, s)
        hop[s - 1] = dist[1:]
        lex_max[s - 1], lex_min[s - 1] = walk(adj, s, dist, order)
    for arr in (hop, lex_max, lex_min):
        arr.flags.writeable = False
    return _GeodesicTable(hop, lex_max, lex_min)


def _geodesic_table(g: GainGraph) -> _GeodesicTable:
    """The geodesic table of g, built on first use and memoized on the
    graph instance (stored as functools.cached_property stores a value).

    Raises:
        Disconnected: if some vertex is unreachable.
        PathExplosion: if some pair has more than ``DEFAULT_PATH_CAP``
            distinct geodesic gains.
    """
    table = vars(g).get("_geodesics")
    if table is None:
        table = vars(g)["_geodesics"] = _build_table(g)
    return table


def shortest_distances(g: GainGraph) -> np.ndarray:
    """All-pairs hop distances as an (n, n) integer matrix.

    Raises:
        Disconnected: if some pair of vertices has no connecting walk.
        PathExplosion: if some pair has more than ``DEFAULT_PATH_CAP``
            distinct geodesic gains.
    """
    return _geodesic_table(g).hop.copy()


def enumerate_shortest_paths(g: GainGraph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every shortest path from u to v as a vertex sequence.

    Paths are produced by a depth-first sweep of the shortest-path DAG,
    so the output order is deterministic (neighbors in ascending index
    order).  The trivial pair u == v yields the single path (u,).

    Raises:
        Disconnected: if v is unreachable from u.
        PathExplosion: if more than ``DEFAULT_PATH_CAP`` paths exist.
    """
    cap = DEFAULT_PATH_CAP
    _check_vertex(u, g.n, "vertex")
    dv = _bfs(g._neighbors, v)[0]
    if dv[u] < 0:
        raise Disconnected(f"vertex {v} is unreachable from vertex {u}")

    paths: list[tuple[int, ...]] = []
    path = [u]
    branches = [iter(g.neighbors(u))]  # per path vertex, its untried neighbors
    while path:
        a = path[-1]
        if a == v:
            if len(paths) >= cap:
                raise PathExplosion(f"more than {cap} shortest paths between {u} and {v}")
            paths.append(tuple(path))
        else:
            # b continues a geodesic to v iff it is one hop closer to v.
            b = next((b for b in branches[-1] if dv[b] == dv[a] - 1), None)
            if b is not None:
                path.append(b)
                branches.append(iter(g.neighbors(b)))
                continue
        path.pop()
        branches.pop()
    return paths


def _lex_extremes(values: Iterable[complex]) -> tuple[complex, complex]:
    """(lex max, lex min) of a nonempty collection, real part first.

    Two stages keep the result independent of the input order: take
    the extremal real part, then among the values whose real part lies
    within ``LEX_TIE_BAND`` of it the extremal (imaginary, real) pair.
    """
    vals = sorted(values, key=attrgetter("real"))
    top = bisect_left(vals, vals[-1].real - LEX_TIE_BAND, key=attrgetter("real"))
    bot = bisect_right(vals, vals[0].real + LEX_TIE_BAND, key=attrgetter("real"))
    imag_real = attrgetter("imag", "real")
    return max(vals[top:], key=imag_real), min(vals[:bot], key=imag_real)


def auxiliary_gain_matrix(
    g: GainGraph, ordering: VertexOrdering, mode: Mode
) -> tuple[np.ndarray, np.ndarray]:
    """The auxiliary gains of all pairs, (j, k) entry that of (v_j, v_k)
    with a zero diagonal, and the hop distances.

    The one place an ordering meets the geodesic table: a pair takes the
    extremal gain from its ordering-smaller endpoint, and the reverse
    pair its conjugate.
    """
    _require_mode(mode)
    _require_ordering(g, ordering)
    table = _geodesic_table(g)
    ext = table.lex_max if mode == "max" else table.lex_min
    rank = np.array(ordering.ranks)
    return np.where(rank[:, None] < rank[None, :], ext, ext.conj().T), table.hop


def gain_distance_matrix(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> np.ndarray:
    """Hermitian matrix whose (j, k) entry is the auxiliary gain of
    (v_j, v_k) times the hop distance; zero diagonal."""
    aux, hop = auxiliary_gain_matrix(g, ordering, mode)
    return aux * hop


def transmission_matrix(g: GainGraph) -> np.ndarray:
    """Diagonal matrix of transmissions, tr(v) = sum of distances from v."""
    return np.diag(_geodesic_table(g).hop.sum(axis=1).astype(float))


def hermitian_residual(M: np.ndarray) -> float:
    """max |M - M*|."""
    M = np.asarray(M, dtype=complex)
    return float(np.max(np.abs(M - M.conj().T)))


def is_compatible(g: GainGraph, ordering: VertexOrdering) -> bool:
    """Whether the max and min gain distance matrices coincide within
    ``ENTRY_TOL``, i.e. all shortest paths between each vertex pair
    carry the same gain."""
    dmax = gain_distance_matrix(g, ordering, "max")
    dmin = gain_distance_matrix(g, ordering, "min")
    return bool(np.max(np.abs(dmax - dmin)) <= ENTRY_TOL)


def is_ordering_independent(g: GainGraph, ordering: VertexOrdering) -> bool:
    """Whether both gain distance matrices are unchanged, within
    ``ENTRY_TOL``, when the ordering is reversed.

    Reversing the ordering swaps the entry of each pair for the
    conjugate of the reverse pair's entry, so with D = hop * E for E
    the lex-max or lex-min table the change is |D - D*| under every
    ordering: the verdict is read off the geodesic table.
    """
    _require_ordering(g, ordering)
    table = _geodesic_table(g)
    return not any(
        hermitian_residual(table.hop * ext) > ENTRY_TOL for ext in (table.lex_max, table.lex_min)
    )


def associated_complete_graph(
    g: GainGraph, ordering: VertexOrdering, mode: Mode
) -> WeightedGainGraph:
    """Complete weighted gain graph whose edge {u, v} carries the
    auxiliary gain of (u, v) and weight d(u, v).

    Its weighted Laplacian equals the gain distance Laplacian of g.
    """
    aux, hop = auxiliary_gain_matrix(g, ordering, mode)
    pairs = [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1)]
    edges = tuple((u, v, complex(aux[u - 1, v - 1])) for u, v in pairs)
    weights = tuple(float(hop[u - 1, v - 1]) for u, v in pairs)
    return WeightedGainGraph(GainGraph(g.n, edges), weights)
