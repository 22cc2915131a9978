"""Hop distances, geodesic gains, and gain distance matrices.

For an ordered vertex pair the auxiliary gain is the lexicographically
extremal (real part first, then imaginary part) gain over all shortest
paths between the two vertices, conjugated when the pair is queried
against the active vertex ordering.  The gain distance matrix scales
each auxiliary gain by the hop distance; it is Hermitian with zero
diagonal by construction.

One driver, :func:`_geodesic_rows`, refuses a disconnected graph, then
per source runs one BFS and has one of two walks return the source's
lex-max and lex-min rows and tie gap.  It hands each source's hop,
lex-max and lex-min rows, as plain Python sequences, to one of two
consumers.  Every distance object of the library reads the geodesic
table that :func:`_build_table` fills from them in numpy, memoized on
the graph.
The CLI's ``dmatrix`` and ``dlaplacian`` print through
:func:`_distance_rows`, which forms the cells of D and DL from the same
rows as numpy forms them, and load no numpy.

An ordering reads, of each pair, only the gain from its ordering-smaller
endpoint, so half of the gains.  Given the ordering's ranks, the float
walk from source s forms the lex extremes only of the targets ranked
above s, and pushes a gain set on only into a vertex that leads to such
a target.  A gain distance matrix or a predicate of a fresh graph walks
that half, and a later call reads the memoized table when it covers what
that call reads: the hop distances and transmissions read only ``hop``,
which every table holds complete.  A hop reader on a fresh graph walks
every pair, and so does a call the memoized half does not cover.  Either
way every entry a call reads has the bits of the full table.

Reversing the ordering gives a pair the conjugate of the extreme of the
set seen from its other end, the conjugate set, so up to rounding the
co-extreme of the set seen from the first: the other end of the same tie
band by (imaginary, real) part.  Each walk keeps the largest hop times
the distance of an extreme from its co-extreme over the pairs it forms,
the table's tie gap, and ordering independence compares that with
``ENTRY_TOL``: the lex extreme against the co-extreme of the same set,
read off the ordering's half like compatibility.

The float walk follows the shortest-path DAG in BFS order and gives each
vertex the set of distinct gains of its geodesics from the source, each
formed left to right as :func:`~gainlap.graphs.path_gain` forms it, so
every kept value is bit for bit the gain of one of those geodesics.  A
vertex whose geodesics so far share one gain holds that bare complex,
pushed on by one multiplication per edge; it becomes a set only when a
second distinct gain arrives.  A set is pushed on by mapping the edge
gain's product into the next vertex's set, in C.  The lex extremes of a
set come from one sort by real part; the tie band of a side is searched
only when its next value lies within it, and when every value lies in
one band, as the near-equal gains of a balanced graph do, the band is
the whole set.  Off a tie the co-extremes are the extremes, and the walk
scales no gap by the hop.  The path cap guards every gain set a call
walks: one with more than ``DEFAULT_PATH_CAP`` distinct geodesic gains
raises ``PathExplosion``.  The full table walks the set of every pair;
an ordering's half, at least those of the pairs it reads.
The table then adds 0.0 to its gains, so no zero part is -0.0: it holds
values, the same whichever geodesic arrived first.

When every edge gain equals 1, i, -1 or -i (signed graphs included), the
T4 walk runs the same walk on 4-bit masks, bit k when i^k is in a
vertex's gain set: an edge of gain i^k rotates a mask by k, and sets
merge by ``|``.  The lex extremes and co-extremes of the 16 masks come
from :func:`_lex_extremes`, on the first such graph, and the walk reads
its rows off them, and its tie gap only off a row that holds one of the
three masks that tie.  Such products are exact, so its rows are bit for
bit the float walk's.  A T4 set holds at most 4 gains, so it never
reaches the path cap; it walks every pair under any ordering.  Gains
that are T4 values only up to rounding, such as the ``theta`` form of
pi/2, take the float walk with their own bits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache, partial
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import PathExplosion, ValidationError
from .graphs import GainGraph, Mode, VertexOrdering, WeightedGainGraph
from .graphs import _bfs, _require_connected

if TYPE_CHECKING:
    import numpy as np

#: Cap on the number of distinct geodesic gains of one vertex pair in
#: the geodesic table.
DEFAULT_PATH_CAP = 1_000_000

#: Real parts within this distance of the extremal one count as tied
#: with it; the imaginary part then decides among them.
LEX_TIE_BAND = 1e-12

#: Entrywise tolerance for matrix-equality predicates.
ENTRY_TOL = 1e-9

_REAL = attrgetter("real")
_IMAG_REAL = attrgetter("imag", "real")


def _require_mode(mode: str) -> None:
    if mode not in ("max", "min"):
        raise ValidationError(f"mode: expected 'max' or 'min', got {mode!r}")


def _require_ordering(g: GainGraph, ordering: VertexOrdering) -> None:
    if ordering.n != g.n:
        raise ValidationError(f"ordering covers {ordering.n} vertices, graph has {g.n}")


class _GeodesicTable(NamedTuple):
    """Row s, column t: hop distance and lex-extremal geodesic gain from
    vertex s + 1 to vertex t + 1; the diagonal gains are zero.  ``hop``
    is complete; the gains of a table built for an ordering cover only
    the pairs it reads, and the others hold no meaning.  ``tie_gap`` is
    the largest hop times the distance of an extreme from its co-extreme
    over the pairs the table covers, 0.0 when no gain set ties."""

    hop: np.ndarray
    lex_max: np.ndarray
    lex_min: np.ndarray
    tie_gap: float


def _too_many(cap: int, u: int, v: int) -> PathExplosion:
    return PathExplosion(f"more than {cap} distinct geodesic gains between {u} and {v}")


#: Exponent k of each element i^k of T4, looked up by value; signed
#: zeros compare and hash equal.
_T4_EXPONENT = {1 + 0j: 0, 1j: 1, -1 + 0j: 2, -1j: 3}


#: The T4 masks whose gains tie on a side: {i, -i} alone, or with 1 or
#: with -1.  Only at these do a mask's extremes and co-extremes differ.
_T4_TIES = frozenset((0b1010, 0b1011, 0b1110))


@cache
def _t4_tables() -> tuple[list[list[int]], list[complex], list[complex], list[float]]:
    """Lookup tables of the exact T4 walk, built on first use: per
    4-bit mask, ``rot[mask][k]``, the set times i^k, ``hi[mask]`` and
    ``lo[mask]``, its lex max and min (0j for the empty set), and
    ``gap[mask]``, the larger distance of an extreme from its
    co-extreme."""
    value = [complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0)]
    rot = [[(m << k | m >> (4 - k)) & 15 for k in range(4)] for m in range(16)]
    hi, lo, gap = [0j] * 16, [0j] * 16, [0.0] * 16
    for m in range(1, 16):
        hi[m], lo[m], co_hi, co_lo = _lex_extremes([value[k] for k in range(4) if m >> k & 1])
        gap[m] = max(abs(hi[m] - co_hi), abs(lo[m] - co_lo))
    return rot, hi, lo, gap


def _t4_adjacency(g: GainGraph) -> list[list[tuple[int, int]]] | None:
    """Per vertex a, (b, k) with gain(a -> b) == i^k for each neighbor
    b; None at the first gain that is not in T4.  The order of a row is
    free: each of its edges leads to a different vertex."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for u, v, z in g.edges:
        k = _T4_EXPONENT.get(z)
        if k is None:
            return None
        adj[u].append((v, k))
        adj[v].append((u, -k & 3))
    return adj


def _t4_walk(adj: list, s: int, dist: list[int], order: list[int]) -> tuple[tuple, tuple, float]:
    """The float walk's rows and tie gap of source s, walked on 4-bit
    gain-set masks and read off them by the lists of :func:`_t4_tables`.
    A row with a mask that ties is scanned back from its farthest vertex
    to the first such mask, whose hop is the largest of them."""
    rot, hi, lo, gap = _t4_tables()
    mask = [0] * len(dist)
    mask[s] = 1  # {1}
    for a in order:
        row = rot[mask[a]]
        step = dist[a] + 1
        for b, k in adj[a]:
            if dist[b] == step:
                mask[b] |= row[k]
    mask[s] = 0  # the zero diagonal
    tie_gap = 0.0
    if not _T4_TIES.isdisjoint(mask):
        for a in reversed(order):  # BFS order: hops never decrease
            if mask[a] in _T4_TIES:
                tie_gap = dist[a] * gap[mask[a]]
                break
    lookup = itemgetter(*mask)  # n + 1 >= 2 masks, so it returns a tuple
    return lookup(hi)[1:], lookup(lo)[1:], tie_gap


def _leads_above(
    adj: list, dist: list[int], order: list[int], rank: Sequence[int], r: int, floor: int
) -> list[bool]:
    """Per vertex more than ``floor`` hops from the source, whether some
    geodesic from the source through it ends at a vertex ranked above r.
    One pass in reverse BFS order, down to ``floor`` + 1 hops: a vertex
    so ranked, or marked by a successor, marks its predecessors."""
    live = [False] * len(dist)
    for a in reversed(order):
        back = dist[a] - 1
        if back < floor:
            break
        if live[a] or rank[a] > r:
            live[a] = True
            for b, _ in adj[a]:
                if dist[b] == back:
                    live[b] = True
    return live


def _float_walk(
    adj: list, s: int, dist: list[int], order: list[int], rank: Sequence[int] | None
) -> tuple[list, list, float]:
    """The lex-max and lex-min rows of source s, from the sets of
    distinct geodesic gains, and its tie gap: the largest hop times the
    distance of an extreme from its co-extreme over the targets it forms;
    ``PathExplosion`` past the path cap.

    Given ``rank``, the ordering's rank of each vertex 1..n (index 0
    unused), only the targets ranked above s get their extremes, and a
    set is pushed on only into a vertex that leads to one of them; the
    other entries of the rows hold no meaning.
    """
    cap = DEFAULT_PATH_CAP
    hi, lo = [0j] * len(dist), [0j] * len(dist)
    tie_gap = 0.0
    # Per vertex: None until reached, then its one geodesic gain as a
    # bare complex, then a set once a second distinct gain arrives.
    # BFS order completes a vertex's gains before reading them.
    gains: list = [None] * len(dist)
    gains[s] = 1.0 + 0.0j
    # Whether a vertex leads to a target whose extremes are formed: all
    # of them in the full walk; given ranks, found the first time a set
    # is pushed on, so a walk whose sets are all sinks never looks, and
    # only for the vertices beyond, which are all a later push reaches.
    r = 0 if rank is None else rank[s]
    live = [True] * len(dist) if rank is None else None
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
        if rank is None or rank[a] > r:
            h, l, co_hi, co_lo = _lex_extremes(ws)
            hi[a], lo[a] = h, l
            if co_hi is not h or co_lo is not l:  # off a tie they are the extremes
                tie_gap = max(tie_gap, dist[a] * max(abs(h - co_hi), abs(l - co_lo)))
        for b, z in adj[a]:
            if dist[b] == step:
                if live is None:
                    live = _leads_above(adj, dist, order, rank, r, dist[a])
                if not live[b]:
                    continue  # so a vertex reached only by sets holds None
                acc = gains[b]
                if acc is None:
                    acc = gains[b] = set(map(z.__rmul__, ws))  # each w * z
                else:
                    if type(acc) is complex:
                        acc = gains[b] = {acc}
                    acc.update(map(z.__rmul__, ws))
                if len(acc) > cap:
                    raise _too_many(cap, s, b)
    hi[s] = lo[s] = 0j
    return hi[1:], lo[1:], tie_gap


def _geodesic_rows(
    g: GainGraph, ranks: tuple[int, ...] | None = None
) -> Iterator[tuple[list[int], Sequence[complex], Sequence[complex], float]]:
    """Row s - 1 of the geodesic table for each source s in turn: the hop
    distances and the lex-max and lex-min gains, as plain Python
    sequences, by the driver the module docstring describes, and the
    row's tie gap.  A zero part may still be -0.0.  Given an ordering's
    ``ranks``, the float walk forms only the gains of the pairs that
    ordering reads."""
    _require_connected(g)
    adj, walk = _t4_adjacency(g), _t4_walk
    if adj is None:
        adj = [[(b, g.gain(a, b)) for b in nbrs] for a, nbrs in enumerate(g._neighbors)]
        walk = partial(_float_walk, rank=None if ranks is None else (0, *ranks))
    for s in range(1, g.n + 1):
        dist, order, _ = _bfs(g._neighbors, s)
        yield (dist[1:], *walk(adj, s, dist, order))


def _build_table(g: GainGraph, ranks: tuple[int, ...] | None = None) -> _GeodesicTable:
    """The geodesic table of g, filled from :func:`_geodesic_rows`: every
    pair, or the pairs the ordering with ``ranks`` reads."""
    import numpy as np

    n = g.n
    hop = np.zeros((n, n), dtype=int)
    lex_max = np.zeros((n, n), dtype=complex)
    lex_min = np.zeros((n, n), dtype=complex)
    tie_gap = 0.0
    for row, (dist, hi, lo, gap) in enumerate(_geodesic_rows(g, ranks)):
        hop[row], lex_max[row], lex_min[row] = dist, hi, lo
        tie_gap = max(tie_gap, gap)
    lex_max += 0.0  # -0.0 + 0.0 is 0.0
    lex_min += 0.0
    for arr in (hop, lex_max, lex_min):
        arr.flags.writeable = False
    return _GeodesicTable(hop, lex_max, lex_min, tie_gap)


def _geodesic_table(g: GainGraph, ranks: tuple[int, ...] | None = None) -> _GeodesicTable:
    """A geodesic table of g that covers the gains a caller reads: with
    ``ranks`` None every pair, with an ordering's ranks the pairs (s, t),
    rank s < rank t, that ordering reads, and with () none, for a caller
    that reads only ``hop``, which every table holds complete.

    One slot on the graph instance (stored as functools.cached_property
    stores a value) memoizes a table with what it covers: None for every
    pair, else the ranks.  It serves a request it covers.  An empty slot
    asked for an ordering's ranks takes that ordering's half, so both
    modes and both predicates share one walk, unless the T4 walk runs,
    which covers every pair; any other miss builds the full table, which
    serves every later request.

    Raises:
        Disconnected: if some vertex is unreachable.
        PathExplosion: if a gain set the walk forms, one at least for
            each pair it covers, has more than ``DEFAULT_PATH_CAP`` gains.
    """
    memo = vars(g).get("_geodesics")
    if memo is not None and (ranks == () or memo[0] in (None, ranks)):
        return memo[1]
    cover = ranks if ranks and memo is None and _t4_adjacency(g) is None else None
    table = _build_table(g, cover)
    vars(g)["_geodesics"] = cover, table
    return table


def shortest_distances(g: GainGraph) -> np.ndarray:
    """All-pairs hop distances as an (n, n) integer matrix, read off
    whichever geodesic table g holds; a fresh graph builds the full one.

    Raises:
        Disconnected: if some pair of vertices has no connecting walk.
        PathExplosion: if, on a fresh graph, some pair has more than
            ``DEFAULT_PATH_CAP`` distinct geodesic gains.
    """
    return _geodesic_table(g, ()).hop.copy()


def _lex_extremes(values: Iterable[complex]) -> tuple[complex, complex, complex, complex]:
    """(lex max, lex min, co-max, co-min) of a nonempty collection, real
    part first.

    Two stages keep the result independent of the input order: take
    the extremal real part, then among the values whose real part lies
    within ``LEX_TIE_BAND`` of it the extremal (imaginary, real) pair.
    The co-extreme of a side is the other end of its band by (imaginary,
    real): the extreme itself off a tie.  A side whose next value lies
    outside the band holds its extreme alone, so its band is searched
    only on a near-tie; when every value lies in both bands, or a set of
    two ties on one side, the band is the whole set.  Each band test is
    the comparison of the plain rule, so the fast paths give its bits.
    """
    vals = sorted(values, key=_REAL)
    hi, lo = vals[-1], vals[0]
    top, bot = hi.real - LEX_TIE_BAND, lo.real + LEX_TIE_BAND
    if len(vals) > 1 and vals[-2].real < top and vals[1].real > bot:  # no tie
        return hi, lo, hi, lo
    if lo.real >= top and hi.real <= bot:  # one band, a single value included
        hi, lo = max(vals, key=_IMAG_REAL), min(vals, key=_IMAG_REAL)
        return hi, lo, lo, hi
    co_hi, co_lo = hi, lo
    if vals[-2].real >= top:
        band = vals[bisect_left(vals, top, key=_REAL):] if len(vals) > 2 else vals
        hi, co_hi = max(band, key=_IMAG_REAL), min(band, key=_IMAG_REAL)
    if vals[1].real <= bot:
        band = vals[:bisect_right(vals, bot, key=_REAL)] if len(vals) > 2 else vals
        lo, co_lo = min(band, key=_IMAG_REAL), max(band, key=_IMAG_REAL)
    return hi, lo, co_hi, co_lo


def auxiliary_gain_matrix(
    g: GainGraph, ordering: VertexOrdering, mode: Mode
) -> tuple[np.ndarray, np.ndarray]:
    """The auxiliary gains of all pairs, (j, k) entry that of (v_j, v_k)
    with a zero diagonal, and the hop distances.

    The one place an ordering meets the geodesic table: a pair takes the
    extremal gain from its ordering-smaller endpoint, and the reverse
    pair its conjugate.
    """
    import numpy as np

    _require_mode(mode)
    _require_ordering(g, ordering)
    table = _geodesic_table(g, ordering.ranks)
    ext = table.lex_max if mode == "max" else table.lex_min
    rank = np.array(ordering.ranks)
    return np.where(rank[:, None] < rank[None, :], ext, ext.conj().T), table.hop


def _distance_rows(
    g: GainGraph, ordering: VertexOrdering, mode: Mode, laplacian: bool
) -> Iterator[tuple[list[float], list[float], list[str]]]:
    """Per row j of D, or with ``laplacian`` of DL, the lists that
    ``documents._hermitian_rows`` takes, for a caller that loads no numpy.
    Each cell (j, k >= j) is formed as :func:`gain_distance_matrix` and
    ``distance_laplacian`` form it, so the bytes are those of
    ``matrix_to_csv``; the sign of (k, j) is the opposite, so row j holds
    it for row k.  Every walk row is read before the first row is given:
    row j takes column j of the rows of the ordering-smaller vertices."""
    _require_mode(mode)
    _require_ordering(g, ordering)
    side = 1 if mode == "max" else 2
    hops, ext = [], []
    for row in _geodesic_rows(g, ordering.ranks):
        hops.append(row[0])
        ext.append(row[side])
    rank = ordering.ranks
    held: list = [[] for _ in rank]  # the signs of the cells (j, k < j)
    for j, r in enumerate(rank):
        up, down = zip(hops[j][j:], ext[j][j:]), map(itemgetter(j), ext[j:])
        cells = [h * (a if r < q else b.conjugate()) for (h, a), b, q in zip(up, down, rank[j:])]
        if laplacian:
            cells = [0.0 - c for c in cells]
            cells[0] = float(sum(hops[j]))
        hops[j], ext[j] = None, None  # read for the last time
        im = [c.imag for c in cells]
        # list.append returns None, so any() runs the map to its end, in C.
        any(map(list.append, held[j + 1:], ["-" if x > 0 else "+" for x in im[1:]]))
        signs, held[j] = held[j], None
        signs += ["-" if x < 0 else "+" for x in im]
        yield [c.real + 0.0 for c in cells], list(map(abs, im)), signs  # -0.0 + 0.0 is 0.0


def gain_distance_matrix(g: GainGraph, ordering: VertexOrdering, mode: Mode) -> np.ndarray:
    """Hermitian matrix whose (j, k) entry is the auxiliary gain of
    (v_j, v_k) times the hop distance; zero diagonal."""
    aux, hop = auxiliary_gain_matrix(g, ordering, mode)
    return aux * hop


def transmission_matrix(g: GainGraph) -> np.ndarray:
    """Diagonal matrix of transmissions, tr(v) = sum of distances from v,
    read off whichever geodesic table g holds; a fresh graph builds the
    full one.

    Raises:
        Disconnected: if some pair of vertices has no connecting walk.
        PathExplosion: if, on a fresh graph, some pair has more than
            ``DEFAULT_PATH_CAP`` distinct geodesic gains.
    """
    import numpy as np

    return np.diag(_geodesic_table(g, ()).hop.sum(axis=1).astype(float))


def is_compatible(g: GainGraph, ordering: VertexOrdering) -> bool:
    """Whether the max and min gain distance matrices coincide within
    ``ENTRY_TOL``, i.e. all shortest paths between each vertex pair
    carry the same gain.  Read off the geodesic table: a matrix holds
    hop * E, E the lex-max or lex-min table, at each pair the ordering
    reads (rank s < rank t), and its conjugate at the reverse pair.  So
    the ordering's half serves, the one a fresh graph walks and ordering
    independence reads too."""
    import numpy as np

    _require_ordering(g, ordering)
    table = _geodesic_table(g, ordering.ranks)
    rank = np.array(ordering.ranks)
    read = rank[:, None] < rank[None, :]
    hop = table.hop[read]
    gap = np.abs(hop * table.lex_max[read] - hop * table.lex_min[read])
    return bool(np.max(gap, initial=0.0) <= ENTRY_TOL)


def is_ordering_independent(g: GainGraph, ordering: VertexOrdering) -> bool:
    """Whether both gain distance matrices are unchanged, within
    ``ENTRY_TOL``, when the ordering is reversed.

    Reversing the ordering gives pair (s, t) the conjugate of the
    extreme of the gain set seen from t, the conjugate set.  Up to
    rounding that is the co-extreme of the set seen from s, the other
    end of the same tie band, so the change of D at the pair is hop
    times the distance of the extreme from its co-extreme.  The verdict
    is the geodesic table's tie gap, over the ordering's half, which
    compatibility reads too.
    """
    _require_ordering(g, ordering)
    return _geodesic_table(g, ordering.ranks).tie_gap <= ENTRY_TOL


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
