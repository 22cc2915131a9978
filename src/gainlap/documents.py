"""JSON graph documents and machine-readable matrix serialization.

A graph document is a JSON object::

    {
      "n": 5,
      "edges": [{"u": 1, "v": 2, "gain": {"theta": 0.0}}, ...],
      "weights": [1.0, ...],        # optional, aligned with edges
      "ordering": [1, 2, 3, 4, 5]   # optional, rank of each vertex
    }

Gains are given either as an angle in radians ({"theta": t}) or in
rectangular form ({"re": a, "im": b}); rectangular gains must lie
within 1e-6 of the unit circle and are renormalized onto it.  Weights
default to 1 and the ordering defaults to the natural order of the
vertex labels.  Every number must be finite; NaN and Infinity literals
are refused with the path of their field.

The parser checks only the shape of the JSON; the model constructors
in :mod:`gainlap.graphs` check every invariant of the values (n, the
vertex range, u < v, duplicate edges, positive weights, the ordering
permutation) and name the offending field.  The document keeps the
model objects that checked its values, and builds the default weights
and ordering on first use, so each accessor returns one object.

Matrices are written as CSV of 'a+bi' cells by :func:`matrix_to_csv`.
Its lines come one at a time from :func:`_csv_rows`, and the CLI
writes each as it comes, so the whole text is never held.  A Hermitian
matrix formats each mirrored pair of cells once and holds the strings
of at most n²/4 cells at a time.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import cached_property
from math import copysign
from typing import TYPE_CHECKING, Iterator

from .errors import ParseError, ValidationError
from .graphs import (
    GainGraph,
    VertexOrdering,
    WeightedGainGraph,
    _finite,
    normalize_gain,
    unit_weights,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class GraphDocument:
    """Parsed form of a graph document; convertible to model objects."""

    n: int
    edges: tuple[tuple[int, int, complex], ...]
    weights: tuple[float, ...] | None = None
    ordering: tuple[int, ...] | None = None

    @cached_property
    def _gain_graph(self) -> GainGraph:
        return GainGraph(self.n, self.edges)

    def gain_graph(self) -> GainGraph:
        """The document's graph.  It is built once and memoized on this
        instance, so its geodesic table is too."""
        return self._gain_graph

    @cached_property
    def _weighted_graph(self) -> WeightedGainGraph:
        if self.weights is None:
            return unit_weights(self._gain_graph)
        return WeightedGainGraph(self._gain_graph, self.weights)

    def weighted_graph(self) -> WeightedGainGraph:
        """The document's graph with its weights, 1 on every edge when it
        has none; built once and memoized on this instance."""
        return self._weighted_graph

    @cached_property
    def _vertex_ordering(self) -> VertexOrdering:
        if self.ordering is None:
            return VertexOrdering.standard(self.n)
        return VertexOrdering(self.ordering)

    def vertex_ordering(self) -> VertexOrdering:
        """The document's ordering, the natural one when it has none;
        built once and memoized on this instance."""
        return self._vertex_ordering


def _parse_gain(raw: object, where: str) -> complex:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: expected an object, got {raw!r}")
    keys = set(raw)
    if keys == {"theta"}:
        return cmath.exp(1j * _finite(raw["theta"], f"{where}.theta"))
    if keys == {"re", "im"}:
        z = complex(_finite(raw["re"], f"{where}.re"), _finite(raw["im"], f"{where}.im"))
        try:
            return normalize_gain(z, strict=True)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    raise ValidationError(
        f"{where}: expected keys {{'theta'}} or {{'re', 'im'}}, got {sorted(keys)}"
    )


def _list(obj: dict, key: str) -> list:
    val = obj.get(key)
    if not isinstance(val, list):
        raise ValidationError(f"{key}: expected a list, got {val!r}")
    return val


def parse_graph(data: bytes | str) -> GraphDocument:
    """Decode a graph document.

    The parser checks the JSON shape: an object with known keys, a list
    of edge objects with keys u, v and gain, gains of either form, and
    lists of weights and ranks.  The model constructors then check the
    values, and the ordering is checked to rank all n vertices.

    Raises:
        ParseError: if the input is not valid JSON.
        ValidationError: if the shape is wrong or a structural invariant
            fails; the message names the offending field.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from None
    try:
        # NaN and ±Infinity are not JSON numbers: kept as text, they fail
        # the number check of their field, which names its path.
        obj = json.loads(data, parse_constant=str)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"document: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - {"n", "edges", "weights", "ordering"}
    if unknown:
        raise ValidationError(f"document: unknown keys {sorted(unknown)}")

    edges: list[tuple[int, int, complex]] = []
    for i, item in enumerate(_list(obj, "edges")):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{where}: expected an object, got {item!r}")
        extra = set(item) - {"u", "v", "gain"}
        if extra:
            raise ValidationError(f"{where}: unknown keys {sorted(extra)}")
        edges.append((item.get("u"), item.get("v"), _parse_gain(item.get("gain"), f"{where}.gain")))
    g = GainGraph(obj.get("n"), tuple(edges))

    # The model objects built here are stored on the document as
    # functools.cached_property stores them, so no accessor builds another.
    built: dict[str, object] = {"_gain_graph": g}
    weights: tuple[float, ...] | None = None
    if "weights" in obj:
        wg = built["_weighted_graph"] = WeightedGainGraph(g, tuple(_list(obj, "weights")))
        weights = wg.weights

    ordering: tuple[int, ...] | None = None
    if "ordering" in obj:
        ranks = _list(obj, "ordering")
        if len(ranks) != g.n:
            raise ValidationError(f"ordering: expected {g.n} ranks, got {ranks!r}")
        vo = built["_vertex_ordering"] = VertexOrdering(tuple(ranks))
        ordering = vo.ranks

    doc = GraphDocument(n=g.n, edges=tuple(edges), weights=weights, ordering=ordering)
    vars(doc).update(built)
    return doc


def emit_graph(doc: GraphDocument) -> str:
    """Serialize a document; gains are written in rectangular form with
    full float precision, so parse(emit(doc)) == doc."""
    obj: dict = {
        "n": doc.n,
        "edges": [
            {"u": u, "v": v, "gain": {"re": z.real, "im": z.imag}}
            for u, v, z in doc.edges
        ],
    }
    if doc.weights is not None:
        obj["weights"] = list(doc.weights)
    if doc.ordering is not None:
        obj["ordering"] = list(doc.ordering)
    return json.dumps(obj, indent=2)


# --- matrix serialization ------------------------------------------------


def format_complex(z: complex) -> str:
    """Render a complex number as 're+imi' with 17 significant digits.

    A zero part prints as 0, never -0.  Any other part prints "-"
    exactly when its sign bit is set, NaN included, so
    :func:`parse_complex` gives back its bits.
    """
    neg = "-" if z.real and copysign(1.0, z.real) < 0 else ""
    sign = "-" if z.imag and copysign(1.0, z.imag) < 0 else "+"
    return f"{neg}{abs(z.real):.17g}{sign}{abs(z.imag):.17g}i"


def parse_complex(cell: str) -> complex:
    """Inverse of :func:`format_complex` ('i' suffix, 'a+bi' form).
    Only the suffix is read as the unit, so inf and nan parts parse."""
    text = cell.strip()
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise ParseError(f"cannot parse complex cell {cell!r}") from None


def matrix_to_csv(M: np.ndarray) -> str:
    """Comma-separated rows of 'a+bi' cells, one matrix row per line.

    The output is byte for byte ``",".join(format_complex(z) for z in
    row)`` over the rows, ±0.0, ±inf and NaN parts included: a zero
    part prints as 0, and any other part prints "-" exactly when its
    sign bit is set, so a NaN part keeps its sign bit.  A Hermitian
    matrix formats each mirrored pair of cells once (see
    :func:`_csv_rows`).

    Raises:
        ValidationError: if M is not 2-D.
    """
    import numpy as np

    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValidationError(f"matrix_to_csv: expected a 2-D matrix, got {M.ndim}-D input")
    return "\n".join(_csv_rows(M))


def _csv_rows(M: np.ndarray) -> Iterator[str]:
    """The lines of :func:`matrix_to_csv` for a 2-D complex array, one
    at a time, so a caller that writes each line never holds the text.

    The parts are taken for the whole matrix at once, and each row is
    formatted by one ``%`` over all its cells.  When M is Hermitian
    (square and M == M*, so it holds no NaN), cell (k, j) has the parts
    of (j, k), and equal parts print equal strings; only its sign comes
    from its own imaginary part.  Then one ``%`` over row j's cells
    (j, j..n-1) makes for each a template with its parts and a ``%s``
    for the sign, which two rows share.  Each column keeps the templates
    of the rows above until its own row prints, so at most n²/4 cells
    are held, and a row is its templates joined and filled with its
    signs by one ``%``.
    """
    import numpy as np

    if (np.isnan(M.real) & np.signbit(M.real)).any():  # %g prints every NaN as nan
        for row in M:
            yield ",".join(map(format_complex, row.tolist()))
        return
    re = M.real + 0.0  # -0.0 + 0.0 is 0.0
    sign = np.where(np.signbit(M.imag) & (M.imag != 0), "-", "+")
    im = abs(M.imag)
    n, m = M.shape
    if n != m or not (M == M.conj().T).all():
        row = ",".join(["%.17g%s%.17gi"] * m)
        args: list = [None] * (3 * m)  # re, sign, |im| of each cell in turn
        for r, s, i in zip(re, sign, im):
            args[0::3], args[1::3], args[2::3] = r.tolist(), s.tolist(), i.tolist()
            yield row % tuple(args)
        return
    tail = "%.17g%%s%.17gi," * n  # 15 characters a cell; no part prints a %
    cols: list = [[] for _ in range(n)]
    for j in range(n):
        parts: list = [None] * (2 * (n - j))
        parts[0::2], parts[1::2] = re[j, j:].tolist(), im[j, j:].tolist()
        cells = (tail[15 * j:] % tuple(parts)).split(",")
        # list.append returns None, so any() runs the map to its end, in C.
        any(map(list.append, cols[j + 1:], cells[1:]))
        cells.pop()  # the empty string after the last ","
        head, cols[j] = cols[j], None
        head += cells
        yield ",".join(head) % tuple(sign[j].tolist())


def csv_to_matrix(text: str) -> np.ndarray:
    """Inverse of :func:`matrix_to_csv`; text with no nonblank line, as
    printed for a matrix with no rows or no columns, gives a (0, 0)
    matrix."""
    import numpy as np

    rows = [line for line in text.strip().splitlines() if line.strip()]
    data = [[parse_complex(cell) for cell in row.split(",")] for row in rows]
    width = {len(r) for r in data}
    if len(width) > 1:
        raise ParseError("ragged CSV matrix")
    return np.array(data, dtype=complex).reshape(len(data), width.pop() if data else 0)
