"""Spanning 1-forest enumeration and determinant identities.

A 1-tree is a connected graph with exactly one cycle; a 1-forest is a
disjoint union of 1-trees.  A spanning 1-forest of a graph on n
vertices picks exactly n edges covering every vertex, so each component
carries as many edges as vertices.  The determinant of the weighted
gain Laplacian expands over spanning 1-forests: every forest
contributes the product of its edge weights times, per component, the
cycle factor |1 - c|^2 of its cycle gain c.  For |c| = 1 this equals
2 * (1 - Re c), but near c = 1 that form keeps few correct digits, as
1 - Re c cancels.  In (1 - Re c)^2 + (Im c)^2 the cancelled term is
squared and small next to (Im c)^2, so two rounding orders of c give
nearly the same factor.

The forests are found by a depth-first search over the edges in index
order, each edge first included, then excluded, on a union-find with
rollback that keeps each component's cycle factor and each vertex's
gain potential.  A branch is cut as soon as no spanning 1-forest can
follow from it: an edge would give a component a second cycle, fewer
edges remain than are still needed, or a vertex no chosen edge covers
would lose its last incident edge.  The last cut is made only on
backtrack: an edge at an uncovered vertex, a root without a cycle, is
always included on the way down.  With n - 1 edges chosen exactly one
component is a tree (none has more edges than vertices, and all have one
fewer in sum), so each further edge that adds no second cycle completes
a forest and is summed in place, not entered; when that tree is one
uncovered vertex, the scan ends at its last edge.  Forests come in the
lexicographic order of their edge indices, each weight built up along
the way.  The search yields a stream of weights, bare floats, and no
per-forest object: the edge indices are in the caller's list, which the
search keeps as its stack of chosen edges, so at each yield that list
holds the forest's n indices; the determinant sums the stream, and the
enumeration copies the list.  The search visits at most n * C(m, n)
states, a state being the edges decided so far with fewer than n
chosen: each extends to one n-edge subset by choosing the edges that
follow, and at most n, one per number chosen, extend to the same subset.
A state costs two O(log n) finds; past the budget the search is refused
up front.  No connected graph is needed: L is block diagonal over the
components, and a spanning 1-forest is one of each, so a graph with a
tree component has none and det L = 0.

A forest's components, and the test of any edge subset, come from one
:func:`graphs._bfs` over the subset: every component needs exactly one
non-tree edge, which closes its cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import TooLarge, ValidationError
from .graphs import GainGraph, WeightedGainGraph, _bfs

#: Largest bound n * C(m, n) on the search's states for which it runs.
DEFAULT_SUBSET_BUDGET = 10_000_000


@dataclass(frozen=True)
class OneTree:
    """A unicyclic component: its vertex set and its unique cycle."""

    vertices: frozenset[int]
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class OneForest:
    """An n-edge spanning subgraph whose components are all 1-trees."""

    edges: tuple[tuple[int, int], ...]
    components: tuple[OneTree, ...]


def _one_forest_components(
    n: int, edges: Sequence[tuple[int, int]]
) -> tuple[OneTree, ...] | None:
    """Decompose an n-edge subset over vertices 1..n into 1-trees, in
    the order of their smallest vertices, or return None if some
    component is not unicyclic.  Every caller passes exactly n edges, so
    a component without a closing edge forces another to have two, and
    the scan returns None at that second one.

    A cycle is its component's one non-tree edge plus the tree paths
    from its ends to where they meet, written from its smallest vertex
    toward its smaller neighbor."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist, order, parent = _bfs(adj, *range(1, n + 1))
    comp = [0] * (n + 1)  # index of each vertex's component
    members: list[list[int]] = []
    for b in order:  # each component's vertices in one run, root first
        if not parent[b]:
            members.append([])
        members[-1].append(b)
        comp[b] = len(members) - 1
    closing: list[tuple[int, int] | None] = [None] * len(members)
    for u, v in edges:
        if parent[u] != v and parent[v] != u:
            if closing[comp[u]] is not None:
                return None
            closing[comp[u]] = (u, v)
    comps: list[OneTree] = []
    for verts, (u, v) in zip(members, closing):
        up, down = [u], [v]
        while up[-1] != down[-1]:
            if dist[up[-1]] >= dist[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        cycle = up + down[-2::-1]
        i = cycle.index(min(cycle))
        cycle = cycle[i:] + cycle[:i]
        if cycle[-1] < cycle[1]:
            cycle[1:] = cycle[:0:-1]
        comps.append(OneTree(frozenset(verts), tuple(cycle)))
    return tuple(comps)


def _host_pairs(wg: WeightedGainGraph, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges as (u, v) pairs with u < v, once checked to be distinct
    edges of wg."""
    pairs = [(u, v) if u < v else (v, u) for u, v in edges]
    distinct = set(pairs)
    missing = distinct.difference(wg.base.edge_pairs())
    if missing:
        raise ValidationError(f"edges {sorted(missing)} are not edges of the host graph")
    if len(distinct) != len(pairs):
        raise ValidationError("edge subset contains duplicates")
    return pairs


def is_spanning_one_forest(
    wg: WeightedGainGraph, edges: Iterable[tuple[int, int]]
) -> bool:
    """Whether the edge subset has exactly n edges and every component
    of the spanned subgraph is a 1-tree."""
    pairs = _host_pairs(wg, edges)
    n = wg.base.n
    if len(pairs) != n:
        return False
    return _one_forest_components(n, pairs) is not None


def _one_forest_search(wg: WeightedGainGraph, chosen: list[int]) -> Iterator[float]:
    """The weight of every spanning 1-forest, in lexicographic order of
    edge indices, by the search that the module docstring describes.

    ``chosen``, empty on the call, is the search's stack of chosen edge
    indices: at each yield it holds the forest's n indices in increasing
    order, and it changes once the search resumes, so a caller that
    keeps them copies it.  No per-forest object is built.

    The union-find uses union by size and no path compression, so one
    union is undone by resetting one parent.  A root holds its
    component's cycle factor (:func:`_cycle_factor`), or None while the
    component is a tree; a vertex holds its potential, the gain of the
    tree path to its parent.  At depth n - 1 an edge that passes the
    cycle checks is pushed on ``chosen`` for the yield of the forest it
    completes and popped after it, and the scan goes on, so no leaf is
    entered or rolled back, up to the last edge of an uncovered vertex,
    as only its edges complete a forest there.  The loop is flat and
    ``find`` is inlined, so the search runs in one frame whatever its
    depth.
    """
    n, m = wg.base.n, wg.base.m
    ends = [(u, v) for u, v, _ in wg.base.edges]
    gains = [z for _, _, z in wg.base.edges]
    weights = wg.weights
    last = [-1] * (n + 1)  # index of each vertex's last incident edge
    for j, (u, v) in enumerate(ends):
        last[u] = last[v] = j
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    pot = [1.0 + 0.0j] * (n + 1)
    cycle: list[float | None] = [None] * (n + 1)
    degree = [0] * (n + 1)  # chosen edges at each vertex
    # Per chosen edge: (root that got its cycle, -1, weight before) or
    # (child root, the root it was attached under, weight before).
    undo: list[tuple[int, int, float]] = []
    weight = 1.0
    j = 0
    while True:
        leaf = len(chosen) == n - 1  # any edge that passes completes a forest
        stop = m - n + len(chosen)  # the last index that leaves enough edges
        while j <= stop:
            u, v = ends[j]
            ru, gu = u, 1.0 + 0.0j
            while parent[ru] != ru:
                gu *= pot[ru]
                ru = parent[ru]
            rv, gv = v, 1.0 + 0.0j
            while parent[rv] != rv:
                gv *= pot[rv]
                rv = parent[rv]
            # gu, gv: gains of the tree paths from u and v to their roots.
            if ru == rv:
                if cycle[ru] is None:
                    # The cycle u -> v, then back to u, has gain
                    # c = z gv conj(gu); as |gu| = 1, its factor
                    # |1 - c|^2 is |gu - z gv|^2, formed without c.
                    factor = abs(gu - gains[j] * gv)
                    factor = factor * factor
                    if leaf:
                        chosen.append(j)
                        yield weight * weights[j] * factor
                        chosen.pop()
                    else:
                        cycle[ru] = factor
                        undo.append((ru, -1, weight))
                        weight = weight * weights[j] * factor
                        break
            elif cycle[ru] is None or cycle[rv] is None:
                if leaf:
                    chosen.append(j)
                    yield weight * weights[j]
                    chosen.pop()
                    if (last[u] == j and not degree[u]) or (last[v] == j and not degree[v]):
                        j = stop  # no later edge reaches the uncovered vertex
                else:
                    z = gains[j]
                    if size[ru] < size[rv]:
                        child, root, pot[ru] = ru, rv, gu.conjugate() * z * gv
                    else:
                        child, root, pot[rv] = rv, ru, (gv * z).conjugate() * gu
                    parent[child] = root
                    size[root] += size[child]
                    if cycle[root] is None:
                        cycle[root] = cycle[child]
                    undo.append((child, root, weight))
                    weight = weight * weights[j]
                    break
            j += 1  # edge j is excluded, or summed in place at a leaf
        if j <= stop:  # edge j was included
            degree[u] += 1
            degree[v] += 1
            chosen.append(j)
            j += 1
            continue
        # Backtrack: undo the latest inclusion, then take its exclusion branch.
        while True:
            if not chosen:
                return
            k = chosen.pop()
            u, v = ends[k]
            degree[u] -= 1
            degree[v] -= 1
            child, root, weight = undo.pop()
            if root < 0:
                cycle[child] = None
            else:
                parent[child] = child
                size[root] -= size[child]
                if cycle[child] is not None:
                    cycle[root] = None
            if not ((last[u] == k and degree[u] == 0) or (last[v] == k and degree[v] == 0)):
                j = k + 1
                break


def _checked_search(
    wg: WeightedGainGraph, budget: int | None, chosen: list[int]
) -> Iterator[float]:
    """The search on ``chosen``, after the checks that refuse it up front.
    As C(m, k) >= 2^k for k <= m / 2, n * C(m, k) passes the budget within
    log2(budget) + 1 steps."""
    budget = DEFAULT_SUBSET_BUDGET if budget is None else int(budget)
    if budget < 1:
        raise ValidationError(f"budget: expected a positive integer, got {budget}")
    n, m = wg.base.n, wg.base.m
    states, k = (n if m >= n else 0), 0
    while states <= budget and k < min(n, m - n):
        k += 1
        states = states * (m - k + 1) // k
    if states > budget:
        raise TooLarge(f"{n} * C({m}, {n}) search states exceed the budget {budget}")
    return _one_forest_search(wg, chosen)


def enumerate_spanning_one_forests(wg: WeightedGainGraph) -> Iterator[OneForest]:
    """All spanning 1-forests, in lexicographic order of edge indices;
    ``TooLarge`` up front if n * C(m, n) exceeds ``DEFAULT_SUBSET_BUDGET``."""
    n, pairs = wg.base.n, wg.base.edge_pairs()
    chosen: list[int] = []
    search = _checked_search(wg, None, chosen)

    def generate() -> Iterator[OneForest]:
        for _ in search:
            edges = tuple(pairs[j] for j in chosen)
            yield OneForest(edges, _one_forest_components(n, edges))

    return generate()


def _cycle_factor(c: complex) -> float:
    """|1 - c|^2, which is 2 * (1 - Re c) for a unit c but does not lose
    its digits to the cancellation of 1 - Re c near c = 1; always >= 0."""
    x, y = 1.0 - c.real, c.imag
    return x * x + y * y


def det_via_forests(wg: WeightedGainGraph, budget: int | None = None) -> float:
    """det of the weighted Laplacian as the sum of spanning 1-forest
    weights, a float; 0.0 when no spanning 1-forest exists.  Up front,
    ``ValidationError`` if ``budget`` < 1, ``TooLarge`` if n * C(m, n) exceeds it."""
    return float(sum(_checked_search(wg, budget, [])))


def spanning_subgraph(
    wg: WeightedGainGraph, edges: Iterable[tuple[int, int]]
) -> WeightedGainGraph:
    """The subgraph on all n vertices keeping only the given edges,
    with their original gains and weights."""
    keep = set(_host_pairs(wg, edges))
    sub_edges = []
    sub_weights = []
    for (u, v, z), w in zip(wg.base.edges, wg.weights):
        if (u, v) in keep:
            sub_edges.append((u, v, z))
            sub_weights.append(w)
    return WeightedGainGraph(GainGraph(wg.base.n, tuple(sub_edges)), tuple(sub_weights))
