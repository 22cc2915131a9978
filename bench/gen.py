"""Seeded generator of graph documents for the benchmark.

Every family is emitted as a JSON graph document in the format the
``gainlap`` CLI reads, so the program under test sees only documents.
The same seed gives byte-identical documents: all randomness comes from
``random.Random`` seeded per document, and JSON is written with fixed
separators and ``repr`` floats.

Gain kinds:

- ``generic``: independent uniform angles, almost surely unbalanced;
- ``t4``: independent gains drawn from T4 = {1, i, -1, -i}, written in
  rectangular form so they stay exact;
- ``balanced``: a random switching of the all-ones gains, so every cycle
  has gain 1 (generic switching angles, or T4 values for ``t4``);
- ``planted``: the balanced graph with one edge that lies on a cycle
  multiplied by a unit that is far from 1, so the graph is unbalanced.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

TAU = 2.0 * math.pi

#: T4 as exact rectangular pairs, indexed by k for the value i**k.
T4 = ((1, 0), (0, 1), (-1, 0), (0, -1))

#: The five-vertex running example: a 4-cycle with total gain i plus a
#: pendant vertex, three edges carrying e^{i pi/4}.
DEMO_EDGES = ((1, 2, 0.0), (1, 4, 0.0), (1, 5, math.pi / 4), (2, 3, math.pi / 4), (3, 4, math.pi / 4))


@dataclass(frozen=True)
class Doc:
    """One generated graph document and what the benchmark knows about it."""

    name: str
    data: bytes
    n: int
    pairs: tuple[tuple[int, int], ...]
    balanced: bool | None  # None when the construction does not fix it

    @property
    def m(self) -> int:
        return len(self.pairs)


def cycle(n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Edges of C_n and the edges that lie on a cycle (all of them)."""
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return edges, edges


def grid(rows: int, cols: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    def idx(r: int, c: int) -> int:
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    return edges, edges


def hypercube(d: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    edges = [
        (x + 1, (x ^ (1 << b)) + 1)
        for x in range(1 << d)
        for b in range(d)
        if x < x ^ (1 << b)
    ]
    return edges, edges


def random_connected(n: int, m: int, rng: random.Random) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """A uniform random attachment tree plus m - n + 1 extra edges.

    The extra edges close cycles, so they are the ones a planted
    perturbation may use.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no simple connected graph with n={n}, m={m}")
    order = list(range(1, n + 1))
    rng.shuffle(order)
    tree = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        tree.add((min(a, b), max(a, b)))
    extra: set[tuple[int, int]] = set()
    while len(tree) + len(extra) < m:
        a, b = rng.sample(range(1, n + 1), 2)
        e = (min(a, b), max(a, b))
        if e not in tree:
            extra.add(e)
    return sorted(tree | extra), sorted(extra)


def _gain_theta(theta: float) -> dict:
    return {"theta": theta}


def _gain_t4(k: int) -> dict:
    re, im = T4[k % 4]
    return {"re": re, "im": im}


def _encode(n: int, edges: list[tuple[int, int]], gains: list[dict], weights: list[float] | None) -> bytes:
    obj: dict = {
        "n": n,
        "edges": [{"u": u, "v": v, "gain": g} for (u, v), g in zip(edges, gains)],
    }
    if weights is not None:
        obj["weights"] = weights
    return json.dumps(obj, separators=(",", ":")).encode()


def make(
    name: str,
    n: int,
    structure: tuple[list[tuple[int, int]], list[tuple[int, int]]],
    kind: str,
    rng: random.Random,
    weighted: bool = False,
) -> Doc:
    """Put gains of the given kind on a structure and encode the document."""
    edges, on_cycle = structure
    edges = sorted(edges)
    balanced: bool | None = None
    if kind == "generic":
        gains = [_gain_theta(rng.uniform(0.0, TAU)) for _ in edges]
    elif kind == "t4":
        gains = [_gain_t4(rng.randrange(4)) for _ in edges]
    elif kind in ("balanced", "planted", "balanced-t4", "planted-t4"):
        t4 = kind.endswith("-t4")
        # gain(u -> v) = conj(xi_u) * xi_v: a switching of the all-ones gains.
        if t4:
            xi = [rng.randrange(4) for _ in range(n + 1)]
            ks = {e: xi[e[1]] - xi[e[0]] for e in edges}
        else:
            xi_theta = [rng.uniform(0.0, TAU) for _ in range(n + 1)]
            thetas = {e: xi_theta[e[1]] - xi_theta[e[0]] for e in edges}
        balanced = kind.startswith("balanced")
        if not balanced:
            hit = sorted(on_cycle)[rng.randrange(len(on_cycle))]
            if t4:
                ks[hit] += rng.randrange(1, 4)
            else:
                thetas[hit] += rng.uniform(math.pi / 3, 5 * math.pi / 3)
        gains = [_gain_t4(ks[e]) if t4 else _gain_theta(thetas[e]) for e in edges]
    else:
        raise ValueError(f"unknown gain kind {kind!r}")
    weights = [round(rng.uniform(0.5, 2.0), 6) for _ in edges] if weighted else None
    return Doc(name, _encode(n, edges, gains, weights), n, tuple(edges), balanced)


def demo() -> Doc:
    edges = [(u, v) for u, v, _ in DEMO_EDGES]
    gains = [_gain_theta(t) for _, _, t in DEMO_EDGES]
    return Doc("demo", _encode(5, edges, gains, None), 5, tuple(edges), False)


def family(spec: str, seed: int) -> Doc:
    """Build one document from a spec such as ``C32:generic``,
    ``grid5x5:balanced``, ``Q5:t4``, ``R40-60:planted`` or
    ``F8-13:weighted``.  A suffix ``.<k>`` on the shape, as in
    ``C64.2:generic`` or ``F8-13.2:weighted``, names a further draw of
    the same shape.

    Each document draws from its own stream, seeded by the run seed and
    the spec, so adding a document never changes the others.
    """
    if spec == "demo":
        return demo()
    shape, kind = spec.split(":")
    rng = random.Random(f"{seed}/{spec}")
    weighted = kind == "weighted"
    if weighted:
        kind = "generic"
    base = shape.split(".")[0]
    if base.startswith("C"):
        n = int(base[1:])
        structure = cycle(n)
    elif base.startswith("grid"):
        rows, cols = map(int, base[4:].split("x"))
        n = rows * cols
        structure = grid(rows, cols)
    elif base.startswith("Q"):
        d = int(base[1:])
        n = 1 << d
        structure = hypercube(d)
    elif base[0] in "RF":
        n, m = map(int, base[1:].split("-"))
        structure = random_connected(n, m, rng)
    else:
        raise ValueError(f"unknown family {shape!r}")
    return make(spec, n, structure, kind, rng, weighted)
