"""Shared fixtures, golden matrices, and random graph generators.

The five-vertex demo graph is the running example used across the
suite: a 4-cycle with total gain i (so it is unbalanced) plus a pendant
vertex, with three edges carrying the primitive eighth root of unity.
Its gain distance matrices under the natural and reversed orderings,
and the corresponding distance Laplacians, are frozen below as golden
values and verified entrywise before anything else relies on them.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left, bisect_right
from operator import attrgetter

import numpy as np
import pytest

from gainlap import (
    GainGraph,
    OneForest,
    SwitchingFunction,
    VertexOrdering,
    WeightedGainGraph,
    cycle_gain,
)

#: Primitive eighth root of unity, e^{i pi / 4}.
Q = cmath.exp(1j * cmath.pi / 4)
QB = Q.conjugate()


def demo_graph() -> GainGraph:
    return GainGraph(5, ((1, 2, 1), (1, 4, 1), (1, 5, Q), (2, 3, Q), (3, 4, Q)))


def demo_dmax_standard() -> np.ndarray:
    return np.array(
        [
            [0, 1, 2 * Q, 1, Q],
            [1, 0, Q, 2, 2 * Q],
            [2 * QB, QB, 0, Q, 3],
            [1, 2, QB, 0, 2 * Q],
            [QB, 2 * QB, 3, 2 * QB, 0],
        ],
        dtype=complex,
    )


def demo_dmax_reversed() -> np.ndarray:
    out = demo_dmax_standard()
    out[0, 2] = 2 * QB  # the one pair whose extremal geodesic flips
    out[2, 0] = 2 * Q
    return out


def demo_dmin_standard() -> np.ndarray:
    out = demo_dmax_standard()
    out[0, 2], out[2, 0] = 2 * QB, 2 * Q
    out[1, 3], out[3, 1] = 2j, -2j
    out[2, 4], out[4, 2] = 3j, -3j
    return out


def demo_transmissions() -> np.ndarray:
    return np.diag([5.0, 6.0, 7.0, 6.0, 8.0])


def demo_document() -> dict:
    theta = math.pi / 4
    return {
        "n": 5,
        "edges": [
            {"u": 1, "v": 2, "gain": {"theta": 0.0}},
            {"u": 1, "v": 4, "gain": {"theta": 0.0}},
            {"u": 1, "v": 5, "gain": {"theta": theta}},
            {"u": 2, "v": 3, "gain": {"theta": theta}},
            {"u": 3, "v": 4, "gain": {"theta": theta}},
        ],
    }


def write_document(tmp_path, obj, name="graph.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def demo() -> GainGraph:
    return demo_graph()


@pytest.fixture
def std5() -> VertexOrdering:
    return VertexOrdering.standard(5)


# --- random generators ----------------------------------------------------


def random_unit(rng) -> complex:
    return cmath.exp(2j * math.pi * float(rng.random()))


def random_tree_pairs(rng, n: int) -> list[tuple[int, int]]:
    """A uniform-parent random labeled tree on 1..n."""
    return [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]


def _with_extra_pairs(rng, n: int, pairs: list[tuple[int, int]], extra: int):
    have = set(pairs)
    free = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in have
    ]
    take = min(extra, len(free))
    if take:
        for i in rng.choice(len(free), size=take, replace=False):
            pairs.append(free[int(i)])
    return pairs


def random_connected_graph(rng, n: int, extra: int = 0) -> GainGraph:
    """Random spanning tree plus ``extra`` additional edges, gains
    uniform on the unit circle."""
    pairs = _with_extra_pairs(rng, n, random_tree_pairs(rng, n), extra)
    return GainGraph(n, tuple((u, v, random_unit(rng)) for u, v in sorted(pairs)))


def potential_balanced_graph(rng, n: int, extra: int = 0) -> GainGraph:
    """Balanced by construction: every gain is a potential difference,
    i.e. a random switching of the all-gain-1 graph."""
    pairs = _with_extra_pairs(rng, n, random_tree_pairs(rng, n), extra)
    theta = [random_unit(rng) for _ in range(n + 1)]
    return GainGraph(
        n, tuple((u, v, theta[u].conjugate() * theta[v]) for u, v in sorted(pairs))
    )


def planted_unbalanced_graph(rng, n: int, extra: int = 1, min_defect: float = 0.3) -> GainGraph:
    """Unbalanced by construction: potential gains except for one
    non-tree edge twisted by e^{i delta} with delta bounded away from 0,
    so one fundamental cycle has gain e^{i delta} != 1."""
    assert extra >= 1 and n >= 3
    tree = random_tree_pairs(rng, n)
    pairs = _with_extra_pairs(rng, n, list(tree), extra)
    non_tree = [p for p in pairs if p not in set(tree)]
    assert non_tree, "need at least one cycle to unbalance"
    twist = non_tree[0]
    delta = float(rng.uniform(min_defect, 2.0 * math.pi - min_defect))
    theta = [random_unit(rng) for _ in range(n + 1)]
    edges = []
    for u, v in sorted(pairs):
        z = theta[u].conjugate() * theta[v]
        if (u, v) == twist:
            z *= cmath.exp(1j * delta)
        elif (u, v) in set(non_tree[1:]):
            z = random_unit(rng)
        edges.append((u, v, z))
    return GainGraph(n, tuple(edges))


def random_weights(rng, m: int, lo: float = 0.5, hi: float = 2.0) -> tuple[float, ...]:
    return tuple(float(w) for w in rng.uniform(lo, hi, size=m))


def random_weighted(rng, g: GainGraph, lo: float = 0.5, hi: float = 2.0) -> WeightedGainGraph:
    return WeightedGainGraph(g, random_weights(rng, g.m, lo, hi))


def random_ordering(rng, n: int) -> VertexOrdering:
    return VertexOrdering(tuple(int(r) for r in rng.permutation(n) + 1))


def random_switching(rng, n: int) -> SwitchingFunction:
    return SwitchingFunction(tuple(random_unit(rng) for _ in range(n)))


def unbalanced_geodetic_graphs() -> dict[str, GainGraph]:
    """Graphs with one geodesic per vertex pair, so compatible and
    ordering independent under every ordering, with random gains, so
    unbalanced: the odd cycles C_3 to C_21, the complete graphs K_4 to
    K_10, the Petersen graph (outer 5-cycle, spokes, inner pentagram) and
    the block graphs F_3 and F_5 (k triangles sharing vertex 1) and a
    K_4-K_3-K_4 chain (cut vertices 4 and 6)."""
    shapes = {f"C{n}": [(i, i % n + 1) for i in range(1, n + 1)] for n in range(3, 22, 2)}
    for n in range(4, 11):
        shapes[f"K{n}"] = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    shapes["Petersen"] = [
        pair for i in range(1, 6) for pair in ((i, i % 5 + 1), (i, i + 5), (i + 5, (i + 1) % 5 + 6))
    ]
    for k in (3, 5):
        shapes[f"F{k}"] = [pair for i in range(2, 2 * k + 1, 2) for pair in ((1, i), (1, i + 1), (i, i + 1))]
    shapes["K4-K3-K4"] = [
        (u, v) for block in ((1, 2, 3, 4), (4, 5, 6), (6, 7, 8, 9))
        for u in block for v in block if u < v
    ]
    rng = np.random.default_rng(12)
    return {
        name: GainGraph(max(map(max, pairs)), tuple((*sorted(p), random_unit(rng)) for p in pairs))
        for name, pairs in shapes.items()
    }


# --- independent brute-force oracles ---------------------------------------


def _sorted_adjacency(g: GainGraph) -> list[list[int]]:
    """Per vertex 1..n its neighbors in ascending order, read off
    ``g.edges`` rather than the graph's own adjacency under test."""
    adj: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def brute_shortest_paths(g: GainGraph, u: int, v: int) -> list[tuple[int, ...]]:
    """All shortest u -> v paths by exhaustive simple-path search;
    independent of the BFS/DAG machinery under test."""
    adj = _sorted_adjacency(g)
    best: list[tuple[int, ...]] = []
    best_len: list[int | None] = [None]

    def extend(path: list[int], seen: set[int]) -> None:
        a = path[-1]
        if a == v:
            length = len(path) - 1
            if best_len[0] is None or length < best_len[0]:
                best_len[0] = length
                best.clear()
            if length == best_len[0]:
                best.append(tuple(path))
            return
        if best_len[0] is not None and len(path) - 1 >= best_len[0]:
            return
        for b in adj[a]:
            if b not in seen:
                path.append(b)
                seen.add(b)
                extend(path, seen)
                path.pop()
                seen.discard(b)

    extend([u], {u})
    return sorted(best)


def all_simple_cycles(g: GainGraph) -> list[tuple[int, ...]]:
    """Every simple cycle once, as a vertex sequence starting at its
    smallest vertex, in its canonical direction."""
    adj = _sorted_adjacency(g)
    cycles: list[tuple[int, ...]] = []

    def extend(path: list[int], seen: set[int]) -> None:
        a = path[-1]
        for b in adj[a]:
            if b == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif b > path[0] and b not in seen:
                path.append(b)
                seen.add(b)
                extend(path, seen)
                path.pop()
                seen.discard(b)

    for s in range(1, g.n + 1):
        extend([s], {s})
    return cycles


def lex_extremes_reference(values) -> tuple[complex, complex, complex, complex]:
    """(lex max, lex min, co-max, co-min) by the geodesic table's lex rule
    as it stood before its fast paths: one sort by real part, and a side's
    band, by bisection, only when its next value lies within
    ``LEX_TIE_BAND`` of the extreme; the co-extreme is the other end of
    that band by (imag, real), the extreme itself off a tie."""
    from gainlap.distances import LEX_TIE_BAND

    real, imag_real = attrgetter("real"), attrgetter("imag", "real")
    vals = sorted(values, key=real)
    hi, lo = vals[-1], vals[0]
    co_hi, co_lo = hi, lo
    top, bot = hi.real - LEX_TIE_BAND, lo.real + LEX_TIE_BAND
    if len(vals) > 1 and vals[-2].real >= top:
        band = vals[bisect_left(vals, top, key=real):]
        hi, co_hi = max(band, key=imag_real), min(band, key=imag_real)
    if len(vals) > 1 and vals[1].real <= bot:
        band = vals[:bisect_right(vals, bot, key=real)]
        lo, co_lo = min(band, key=imag_real), max(band, key=imag_real)
    return hi, lo, co_hi, co_lo


def forest_weight(forest: OneForest, wg: WeightedGainGraph) -> float:
    """Product of the forest's edge weights, in forest order, times per
    component the cycle factor |1 - c|^2 of its cycle gain c, formed as
    x*x + y*y with x = 1 - Re c, y = Im c; the brute-force reference for
    the weights the forest search sums."""
    weight = dict(zip(wg.base.edge_pairs(), wg.weights))
    acc = 1.0
    for pair in forest.edges:
        acc *= weight[pair]
    for tree in forest.components:
        c = cycle_gain(wg.base, tree.cycle)
        x, y = 1.0 - c.real, c.imag
        acc *= x * x + y * y
    return acc
