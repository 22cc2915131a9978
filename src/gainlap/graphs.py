"""Core data model for complex unit gain graphs.

A gain graph is a simple undirected graph whose oriented edges carry
unit-modulus complex numbers; traversing an edge against its stored
orientation yields the complex conjugate.  Vertices are the integers
1..n.  Everything here is immutable and every operation is a pure
function, so values can be shared freely.
"""

from __future__ import annotations

import cmath
import math
import numbers
from functools import cached_property
from typing import Literal, Sequence

from .errors import Disconnected, NotACycle, NotAWalk, ValidationError, ZeroGain

#: Accepted deviation of |z| from 1 when a gain is validated strictly.
UNIT_TOL = 1e-6

#: Absolute tolerance on |gain - 1| used by balance checks.
BALANCE_TOL = 1e-9

#: A gain this close to the unit circle is kept as given: dividing by |z|
#: would only churn the last ulp and break bitwise round-trips.
_ON_CIRCLE_TOL = 1e-15

Mode = Literal["max", "min"]

Edge = tuple[int, int, complex]


def normalize_gain(z: complex, strict: bool = False) -> complex:
    """Project a nonzero complex number onto the unit circle.

    Args:
        z: the raw gain.
        strict: when True, reject inputs whose modulus deviates from 1
            by more than ``UNIT_TOL`` instead of silently rescaling.

    Returns:
        z / |z|.

    Raises:
        ZeroGain: if z == 0.
        ValidationError: if z is not a number or not finite, or if
            strict and | |z| - 1 | > UNIT_TOL (|z| beyond the float
            range included).
    """
    if isinstance(z, bool) or not isinstance(z, numbers.Number):
        raise ValidationError(f"expected a number, got {z!r}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValidationError(f"gain {z!r} is not finite")
    try:
        r = abs(z)
    except OverflowError:  # |z| is beyond the float range: scale z down first
        if strict:
            raise ValidationError(f"gain modulus of {z!r} is beyond the float range") from None
        z /= max(abs(z.real), abs(z.imag))
        r = abs(z)
    if r == 0.0:
        raise ZeroGain("a zero gain has no direction on the unit circle")
    if strict and abs(r - 1.0) > UNIT_TOL:
        raise ValidationError(f"gain modulus {r!r} is not within {UNIT_TOL} of 1")
    if abs(r - 1.0) <= _ON_CIRCLE_TOL:
        return z
    return z / r


def _finite(val: object, where: str) -> float:
    """A finite real number (not a bool) as a float."""
    if isinstance(val, numbers.Real) and not isinstance(val, bool):
        try:
            x = float(val)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValidationError(f"{where}: expected a finite number, got {val!r}")


def _check_vertex(x: object, n: int, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValidationError(f"{what}: expected an integer vertex, got {x!r}")
    if not 1 <= x <= n:
        raise ValidationError(f"{what}: vertex {x} outside 1..{n}")
    return x


class _Record:
    """Base of the library's immutable records.

    A subclass lists its fields as class annotations, in constructor
    order, with a class attribute of the same name as a field's default.
    The fields are compared, hashed and shown in that order, as
    ``Name(field=value, ...)``; assignment and deletion raise
    ``AttributeError``.  Values live in the instance ``__dict__``, so a
    ``functools.cached_property`` stores there as well.  The constructor
    takes each field by position or keyword, else its default; a
    subclass that validates its arguments, or is built per forest found,
    writes its own ``__init__`` and stores each field with ``vars(self)``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        clash = len(args) > len(fields) or given.keys() & kwargs.keys()
        if clash or values.keys() != set(fields):
            name = type(self).__name__
            raise TypeError(f"{name}() takes the fields {', '.join(fields)}, each once or by default")
        vars(self).update((f, values[f]) for f in fields)

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GainGraph(_Record):
    """Simple undirected graph with one unit gain per oriented edge.

    Each edge is stored exactly once in its u < v orientation; the
    reverse orientation carries the conjugate gain, so the reversal law
    holds by construction.  Edge order is preserved as given.
    """

    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: tuple[Edge, ...]) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"n: expected a positive integer, got {n!r}")
        # Each edge in both orientations, the reverse one with the conjugate gain.
        gain_of: dict[tuple[int, int], complex] = {}
        canon: list[Edge] = []
        for i, (u, v, z) in enumerate(edges):
            _check_vertex(u, n, f"edges[{i}].u")
            _check_vertex(v, n, f"edges[{i}].v")
            if not u < v:
                raise ValidationError(f"edges[{i}]: requires u < v, got ({u}, {v})")
            if (u, v) in gain_of:
                raise ValidationError(f"edges[{i}]: duplicate edge ({u}, {v})")
            try:
                z = normalize_gain(z)
            except (ValidationError, ZeroGain) as exc:
                raise type(exc)(f"edges[{i}].gain: {exc}") from None
            canon.append((u, v, z))
            gain_of[u, v], gain_of[v, u] = z, z.conjugate()
        vars(self).update(n=n, edges=tuple(canon), _gain_of=gain_of)  # _gain_of: read by gain

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def gain(self, u: int, v: int) -> complex:
        """Gain of the oriented edge u -> v: the stored gain, or its
        conjugate against the stored orientation, in one lookup."""
        try:
            return self._gain_of[u, v]
        except KeyError:
            raise NotAWalk(f"({u}, {v}) is not an edge") from None

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v, _ in self.edges)


class WeightedGainGraph(_Record):
    """A gain graph together with strictly positive edge weights.

    ``weights[i]`` belongs to ``base.edges[i]``.  The weighted gain of an
    oriented edge is its unit gain times its weight.  Twice the sum of
    the weights at each vertex must be a finite float: twice the largest
    weighted degree bounds every Laplacian eigenvalue.
    """

    base: GainGraph
    weights: tuple[float, ...]

    def __init__(self, base: GainGraph, weights: tuple[float, ...]) -> None:
        if len(weights) != len(base.edges):
            raise ValidationError(
                f"weights: expected {len(base.edges)} entries, got {len(weights)}"
            )
        ws = tuple(_finite(w, f"weights[{i}]") for i, w in enumerate(weights))
        for i, w in enumerate(ws):
            if not w > 0.0:
                raise ValidationError(f"weights[{i}]: expected a positive weight, got {w!r}")
        degree = [0.0] * (base.n + 1)
        for (u, v, _), w in zip(base.edges, ws):
            degree[u] += w
            degree[v] += w
        top = max(range(len(degree)), key=degree.__getitem__)
        if 2.0 * degree[top] == math.inf:
            raise ValidationError(
                f"weights: twice their sum at vertex {top} is beyond the float range"
            )
        # _degree: read by laplacians.weighted_laplacian
        vars(self).update(base=base, weights=ws, _degree=degree)


def unit_weights(g: GainGraph) -> WeightedGainGraph:
    """Wrap a gain graph with all weights equal to 1."""
    return WeightedGainGraph(g, (1.0,) * g.m)


class VertexOrdering(_Record):
    """A total order on the vertices 1..n, stored as ranks.

    ``ranks[v - 1]`` is the position of vertex v; vertex u precedes
    vertex v when its rank is smaller.
    """

    ranks: tuple[int, ...]

    def __init__(self, ranks: tuple[int, ...]) -> None:
        ranks, n = tuple(ranks), len(ranks)
        if not n or any(type(r) is not int for r in ranks) or sorted(ranks) != [*range(1, n + 1)]:
            raise ValidationError(f"ordering: expected a permutation of 1..{n}, got {ranks!r}")
        vars(self)["ranks"] = ranks

    @classmethod
    def standard(cls, n: int) -> "VertexOrdering":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.ranks)

    def reverse(self) -> "VertexOrdering":
        n = self.n
        return VertexOrdering(tuple(n + 1 - r for r in self.ranks))


class SwitchingFunction(_Record):
    """One unit gain per vertex; ``values[v - 1]`` belongs to vertex v."""

    values: tuple[complex, ...]

    def __init__(self, values: tuple[complex, ...]) -> None:
        vars(self)["values"] = tuple(normalize_gain(z) for z in values)

    @property
    def n(self) -> int:
        return len(self.values)

    def of(self, v: int) -> complex:
        _check_vertex(v, self.n, "vertex")
        return self.values[v - 1]


# --- walk, cycle, balance, switching ------------------------------------


def path_gain(g: GainGraph, walk: Sequence[int]) -> complex:
    """Product of gains along consecutive oriented edges of a walk.

    A single vertex is a trivial walk with gain 1.

    Raises:
        NotAWalk: if the sequence is empty or some consecutive pair is
            not an edge.
    """
    if len(walk) == 0:
        raise NotAWalk("a walk needs at least one vertex")
    _check_vertex(walk[0], g.n, "walk[0]")
    acc = 1.0 + 0.0j
    for a, b in zip(walk, walk[1:]):
        acc *= g.gain(a, b)
    return acc


def cycle_gain(g: GainGraph, cycle: Sequence[int]) -> complex:
    """Gain of a simple cycle traversed in the given direction.

    The sequence may close explicitly (first vertex repeated at the end)
    or implicitly.  Internal vertices must be distinct and the cycle
    must have at least three of them.

    Raises:
        NotACycle: if the sequence violates any of the above.
        NotAWalk: if some consecutive pair is not an edge.
    """
    verts = list(cycle)
    if len(verts) >= 2 and verts[0] == verts[-1]:
        verts = verts[:-1]
    if len(verts) < 3:
        raise NotACycle("a cycle needs at least three distinct vertices")
    if len(set(verts)) != len(verts):
        raise NotACycle(f"repeated internal vertex in {tuple(cycle)!r}")
    return path_gain(g, verts + [verts[0]])


def _bfs(
    adj: Sequence[Sequence[int]], *roots: int
) -> tuple[list[int], list[int], list[int]]:
    """BFS over ``adj``, the neighbors of each vertex 1..n such as
    ``GainGraph._neighbors``, from each root not reached from an earlier
    one: per vertex the hop distance from its root (-1 if unreached) and
    the parent that first reached it (0 if none), index 0 unused; and
    the reached vertices in BFS order."""
    n = len(adj) - 1
    dist = [-1] * (n + 1)
    parent = [0] * (n + 1)
    order: list[int] = []
    for root in roots:
        _check_vertex(root, n, "vertex")
        if dist[root] >= 0:
            continue
        dist[root] = 0
        reached = [root]
        for a in reached:  # the growing list is the queue
            for b in adj[a]:
                if dist[b] < 0:
                    dist[b] = dist[a] + 1
                    parent[b] = a
                    reached.append(b)
        order += reached
    return dist, order, parent


def _require_connected(g: GainGraph) -> None:
    """Raise ``Disconnected`` at the first vertex unreachable from vertex 1."""
    dist, order, _ = _bfs(g._neighbors, 1)
    if len(order) < g.n:
        raise Disconnected(f"vertex {dist.index(-1, 1)} is unreachable from vertex 1")


def _component_balance(g: GainGraph) -> dict[int, bool]:
    """Whether each component is balanced, keyed by its smallest vertex.

    Propagates a potential over a BFS spanning forest and checks every
    non-forest edge against it; a mismatch beyond ``BALANCE_TOL``
    witnesses an unbalanced cycle in the edge's component.
    """
    _, order, parent = _bfs(g._neighbors, *range(1, g.n + 1))
    theta: list[complex] = [1.0 + 0.0j] * (g.n + 1)
    root = list(range(g.n + 1))
    for b in order:
        a = parent[b]
        if a:
            theta[b] = theta[a] * g.gain(a, b)
            root[b] = root[a]
    balanced = {b: True for b in order if not parent[b]}
    for u, v, z in g.edges:
        if parent[v] == u or parent[u] == v:
            continue
        if abs(z - theta[u].conjugate() * theta[v]) > BALANCE_TOL:
            balanced[root[u]] = False
    return balanced


def is_balanced(g: GainGraph) -> bool:
    """Whether every cycle has gain 1, equivalently whether the gains
    derive from a vertex potential: every component passes the potential
    check of ``BALANCE_TOL``."""
    return all(_component_balance(g).values())


def _require_switching(g: GainGraph, xi: SwitchingFunction) -> None:
    if xi.n != g.n:
        raise ValidationError(f"switching function covers {xi.n} vertices, graph has {g.n}")


def switch(g: GainGraph, xi: SwitchingFunction) -> GainGraph:
    """Apply a switching function: the gain of u -> v becomes
    xi(u)^(-1) * gain(u -> v) * xi(v).

    Switching preserves every cycle gain, hence balance.
    """
    _require_switching(g, xi)
    new_edges = tuple(
        (u, v, xi.of(u).conjugate() * z * xi.of(v)) for u, v, z in g.edges
    )
    return GainGraph(g.n, new_edges)
