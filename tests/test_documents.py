"""JSON graph documents and CSV matrix serialization."""

import cmath
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import demo_document, demo_graph, random_connected_graph, random_ordering, random_unit
from gainlap import (
    GainGraph,
    GraphDocument,
    ParseError,
    ValidationError,
    WeightedGainGraph,
    csv_to_matrix,
    emit_graph,
    format_complex,
    gain_distance_matrix,
    matrix_to_csv,
    parse_complex,
    parse_graph,
)
from gainlap.graphs import VertexOrdering


def doc_text(**overrides) -> str:
    obj = {
        "n": 3,
        "edges": [
            {"u": 1, "v": 2, "gain": {"theta": 0.0}},
            {"u": 2, "v": 3, "gain": {"re": 0.0, "im": 1.0}},
        ],
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestParse:
    def test_minimal(self):
        doc = parse_graph(doc_text())
        assert doc.n == 3
        assert doc.edges[0] == (1, 2, (1 + 0j))
        assert doc.edges[1][2] == pytest.approx(1j)
        assert doc.weights is None and doc.ordering is None

    def test_theta_gain(self):
        doc = parse_graph(
            json.dumps(
                {"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"theta": math.pi / 2}}]}
            )
        )
        assert doc.edges[0][2] == pytest.approx(1j, abs=1e-15)

    def test_demo_document_matches_demo_graph(self):
        doc = parse_graph(json.dumps(demo_document()))
        g = doc.gain_graph()
        want = demo_graph()
        assert g.n == want.n
        for (u, v, z), (uw, vw, zw) in zip(g.edges, want.edges):
            assert (u, v) == (uw, vw)
            assert z == pytest.approx(zw, abs=1e-15)

    def test_rect_gain_renormalized(self):
        doc = parse_graph(
            json.dumps(
                {"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"re": 1.0 + 5e-7, "im": 0.0}}]}
            )
        )
        assert abs(doc.edges[0][2]) == pytest.approx(1.0, abs=1e-15)

    def test_rect_gain_off_circle(self):
        text = json.dumps(
            {"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"re": 2.0, "im": 0.0}}]}
        )
        with pytest.raises(ValidationError, match=r"edges\[0\]\.gain"):
            parse_graph(text)

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("{not json")

    def test_not_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_graph(b"\xff\xfe{}")

    def test_non_object(self):
        with pytest.raises(ValidationError, match="document"):
            parse_graph("[1, 2]")

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_graph(doc_text(comment="hello"))

    @pytest.mark.parametrize("bad_n", [0, -1, 2.5, "3", None, True])
    def test_bad_n(self, bad_n):
        with pytest.raises(ValidationError, match="n:"):
            parse_graph(json.dumps({"n": bad_n, "edges": []}))

    def test_missing_edges(self):
        with pytest.raises(ValidationError, match="edges"):
            parse_graph(json.dumps({"n": 2}))

    def test_reversed_endpoints(self):
        text = json.dumps(
            {"n": 3, "edges": [{"u": 3, "v": 1, "gain": {"theta": 0.0}}]}
        )
        with pytest.raises(ValidationError, match=r"edges\[0\].*u < v"):
            parse_graph(text)

    def test_out_of_range_vertex(self):
        text = json.dumps(
            {"n": 2, "edges": [{"u": 1, "v": 5, "gain": {"theta": 0.0}}]}
        )
        with pytest.raises(ValidationError, match=r"edges\[0\]\.v"):
            parse_graph(text)

    def test_duplicate_edge(self):
        text = json.dumps(
            {
                "n": 2,
                "edges": [
                    {"u": 1, "v": 2, "gain": {"theta": 0.0}},
                    {"u": 1, "v": 2, "gain": {"theta": 1.0}},
                ],
            }
        )
        with pytest.raises(ValidationError, match=r"edges\[1\].*duplicate"):
            parse_graph(text)

    def test_unknown_edge_key(self):
        text = json.dumps(
            {"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"theta": 0.0}, "w": 1}]}
        )
        with pytest.raises(ValidationError, match=r"edges\[0\]"):
            parse_graph(text)

    def test_bad_gain_keys(self):
        text = json.dumps(
            {"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"re": 1.0}}]}
        )
        with pytest.raises(ValidationError, match=r"edges\[0\]\.gain"):
            parse_graph(text)

    @pytest.mark.parametrize(
        "edges, field",
        [([1], r"edges\[0\]"), ([{"u": 1, "v": 2, "gain": 1.0}], r"edges\[0\]\.gain")],
        ids=["edge", "gain"],
    )
    def test_not_an_object(self, edges, field):
        with pytest.raises(ValidationError, match=rf"^{field}: expected an object, got "):
            parse_graph(json.dumps({"n": 2, "edges": edges}))

    def test_weights_wrong_length(self):
        with pytest.raises(ValidationError, match="weights"):
            parse_graph(doc_text(weights=[1.0]))

    def test_weights_nonpositive(self):
        with pytest.raises(ValidationError, match=r"weights\[1\]"):
            parse_graph(doc_text(weights=[1.0, -2.0]))

    @pytest.mark.parametrize(
        "gain, field",
        [
            ('{"theta": NaN}', "theta"),
            ('{"theta": Infinity}', "theta"),
            ('{"re": NaN, "im": 0}', "re"),
            ('{"re": 1, "im": -Infinity}', "im"),
            ('{"theta": 1e999}', "theta"),
        ],
    )
    def test_non_finite_gain(self, gain, field):
        text = '{"n": 2, "edges": [{"u": 1, "v": 2, "gain": %s}]}' % gain
        with pytest.raises(ValidationError, match=rf"edges\[0\]\.gain\.{field}: expected a finite number"):
            parse_graph(text)

    @pytest.mark.parametrize("w", ["NaN", "Infinity", "1e999"])
    def test_non_finite_weight(self, w):
        text = '{"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"theta": 0}}], "weights": [%s]}' % w
        with pytest.raises(ValidationError, match=r"weights\[0\]: expected a finite number"):
            parse_graph(text)

    def test_weights_accepted(self):
        doc = parse_graph(doc_text(weights=[1.5, 2.5]))
        assert doc.weights == (1.5, 2.5)
        wg = doc.weighted_graph()
        assert (wg.base.edge_pairs(), wg.weights) == (((1, 2), (2, 3)), (1.5, 2.5))

    def test_ordering_not_permutation(self):
        with pytest.raises(ValidationError, match="ordering"):
            parse_graph(doc_text(ordering=[1, 1, 2]))

    def test_ordering_of_too_few_vertices(self):
        """A permutation of 1..n-1 ranks too few vertices."""
        with pytest.raises(ValidationError, match=r"^ordering: expected 3 ranks, got \[2, 1\]$"):
            parse_graph(doc_text(ordering=[2, 1]))

    def test_ordering_accepted(self):
        doc = parse_graph(doc_text(ordering=[3, 1, 2]))
        assert doc.vertex_ordering().ranks == (3, 1, 2)

    def test_default_conversions(self):
        doc = parse_graph(doc_text())
        assert doc.weighted_graph().weights == (1.0, 1.0)
        assert doc.vertex_ordering() == VertexOrdering.standard(3)


def test_document_built_directly_builds_its_graph_once(monkeypatch):
    import gainlap.documents

    built = []

    def counting(*args):
        built.append(GainGraph(*args))
        return built[-1]

    monkeypatch.setattr(gainlap.documents, "GainGraph", counting)
    doc = GraphDocument(3, ((1, 2, 1 + 0j), (2, 3, 1j)))
    g = doc.gain_graph()
    assert doc.gain_graph() is g and doc.weighted_graph().base is g
    assert built == [g] and g == GainGraph(3, ((1, 2, 1 + 0j), (2, 3, 1j)))


WEIGHTS_AND_ORDERING = {"weights": [0.5, 2.0], "ordering": [3, 1, 2]}


@pytest.mark.parametrize("keys", [{}, WEIGHTS_AND_ORDERING], ids=["defaults", "given"])
def test_document_returns_one_weighted_graph_and_one_ordering(keys):
    """Parsed or built directly, with or without the optional keys, a
    document returns the same model objects on every call."""
    weights, ordering = keys.get("weights"), keys.get("ordering")
    direct = GraphDocument(3, _doc_graph().edges, weights and tuple(weights), ordering and tuple(ordering))
    for doc in (parse_graph(doc_text(**keys)), direct):
        wg, order = doc.weighted_graph(), doc.vertex_ordering()
        assert doc.weighted_graph() is wg and doc.vertex_ordering() is order
        assert wg.base is doc.gain_graph()
        assert list(wg.weights) == (weights or [1.0, 1.0])
        assert list(order.ranks) == (ordering or [1, 2, 3])


def test_parsed_weights_and_ordering_are_checked_once(monkeypatch):
    """The weighted graph and the ordering that parsing builds to check
    the values are the ones the document returns; no call builds another."""
    import gainlap.documents

    built = []

    def counting(cls):
        def build(*args):
            built.append(cls(*args))
            return built[-1]

        return build

    monkeypatch.setattr(gainlap.documents, "WeightedGainGraph", counting(WeightedGainGraph))
    monkeypatch.setattr(gainlap.documents, "VertexOrdering", counting(VertexOrdering))
    doc = parse_graph(doc_text(**WEIGHTS_AND_ORDERING))
    for _ in range(3):
        doc.weighted_graph(), doc.vertex_ordering()
    assert len(built) == 2 and built[0] is doc.weighted_graph() and built[1] is doc.vertex_ordering()


def _doc_graph() -> GainGraph:
    """The graph of ``doc_text()``."""
    return GainGraph(3, ((1, 2, 1 + 0j), (2, 3, 1j)))


def _field(exc: Exception) -> str:
    return str(exc).split(":", 1)[0]


#: Every malformed document above whose fault is in the values rather
#: than the JSON shape, with the constructor call on the same values.
PARITY_CASES = {
    **{
        f"n={bad!r}": (json.dumps({"n": bad, "edges": []}), lambda bad=bad: GainGraph(bad, ()))
        for bad in (0, -1, 2.5, "3", None, True)
    },
    "reversed": (
        json.dumps({"n": 3, "edges": [{"u": 3, "v": 1, "gain": {"theta": 0.0}}]}),
        lambda: GainGraph(3, ((3, 1, 1 + 0j),)),
    ),
    "out-of-range": (
        json.dumps({"n": 2, "edges": [{"u": 1, "v": 5, "gain": {"theta": 0.0}}]}),
        lambda: GainGraph(2, ((1, 5, 1 + 0j),)),
    ),
    "duplicate": (
        json.dumps(
            {
                "n": 2,
                "edges": [
                    {"u": 1, "v": 2, "gain": {"theta": 0.0}},
                    {"u": 1, "v": 2, "gain": {"theta": 1.0}},
                ],
            }
        ),
        lambda: GainGraph(2, ((1, 2, 1 + 0j), (1, 2, cmath.exp(1j)))),
    ),
    "weights-length": (
        doc_text(weights=[1.0]),
        lambda: WeightedGainGraph(_doc_graph(), (1.0,)),
    ),
    "weights-negative": (
        doc_text(weights=[1.0, -2.0]),
        lambda: WeightedGainGraph(_doc_graph(), (1.0, -2.0)),
    ),
    **{
        f"weight={w}": (
            '{"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"theta": 0}}], "weights": [%s]}' % w,
            lambda x=x: WeightedGainGraph(GainGraph(2, ((1, 2, 1 + 0j),)), (x,)),
        )
        for w, x in (("NaN", math.nan), ("Infinity", math.inf), ("1e999", math.inf))
    },
    "ordering": (
        doc_text(ordering=[1, 1, 2]),
        lambda: VertexOrdering((1, 1, 2)),
    ),
}


@pytest.mark.parametrize("text, build", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_parser_and_constructors_agree(text, build):
    """The parser reports a bad value exactly as the constructor that
    owns its invariant does: same exception type, same field path."""
    with pytest.raises(Exception) as by_parser:
        parse_graph(text)
    with pytest.raises(Exception) as by_constructor:
        build()
    assert by_parser.type is by_constructor.type is ValidationError
    assert _field(by_parser.value) == _field(by_constructor.value)


class TestEmit:
    def test_round_trip(self):
        rng = np.random.default_rng(401)
        doc = GraphDocument(
            n=4,
            edges=(
                (1, 2, random_unit(rng)),
                (2, 3, random_unit(rng)),
                (1, 4, random_unit(rng)),
            ),
            weights=(0.75, 1.25, 2.0),
            ordering=(2, 4, 1, 3),
        )
        assert parse_graph(emit_graph(doc)) == doc

    def test_round_trip_without_optionals(self):
        doc = GraphDocument(n=2, edges=((1, 2, cmath.exp(0.3j)),))
        assert parse_graph(emit_graph(doc)) == doc

    def test_emits_rectangular_gains(self):
        doc = GraphDocument(n=2, edges=((1, 2, 1j),))
        obj = json.loads(emit_graph(doc))
        assert obj["edges"][0]["gain"] == {"re": 0.0, "im": 1.0}


class TestComplexCells:
    def test_format(self):
        assert format_complex(1.5 - 2.25j) == "1.5-2.25i"
        assert format_complex(0j) == "0+0i"
        assert format_complex(-1 + 1j) == "-1+1i"

    def test_negative_zero_real_part_prints_as_zero(self):
        z = complex(-0.0, 3.0)
        assert format_complex(z) == "0+3i"
        assert csv_to_matrix(matrix_to_csv(np.array([[z]])))[0, 0] == z

    def test_parse(self):
        assert parse_complex("1.5-2.25i") == 1.5 - 2.25j
        assert parse_complex(" 3+0i ") == 3 + 0j

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_complex("one+twoi")

    @pytest.mark.parametrize("part", [math.inf, -math.inf])
    def test_infinite_parts_round_trip(self, part):
        """Only the trailing 'i' is the unit, so 'inf' parts parse."""
        M = np.array([[1 + 1j, complex(part, 1.0)], [complex(0.0, part), complex(part, part)]])
        text = matrix_to_csv(M)
        assert np.array_equal(csv_to_matrix(text), M)
        for cell, z in zip(text.replace("\n", ",").split(","), M.ravel()):
            assert parse_complex(cell) == z == parse_complex(format_complex(z))

    def test_nan_cells_parse(self):
        back = csv_to_matrix(matrix_to_csv(np.array([[complex(math.nan, 1.0), complex(1.0, math.nan)]])))
        assert math.isnan(back[0, 0].real) and back[0, 0].imag == 1.0
        assert back[0, 1].real == 1.0 and math.isnan(back[0, 1].imag)

    @pytest.mark.parametrize("part", [math.nan, -math.nan])
    def test_nan_imaginary_part_keeps_its_sign_bit(self, part):
        """A NaN imaginary part prints the sign of its sign bit, so its
        sign bit survives the round trip, in both writers."""
        M = np.array([[complex(1.0, part), complex(part, part)]])
        text = matrix_to_csv(M)
        assert text == ",".join(format_complex(z) for z in M[0])
        assert text.count("-nani") == (math.copysign(1.0, part) < 0) * 2
        for z, back in zip(M[0], csv_to_matrix(text)[0]):
            assert math.copysign(1.0, back.imag) == math.copysign(1.0, part)
            assert math.copysign(1.0, parse_complex(format_complex(z)).imag) == math.copysign(1.0, part)

    @pytest.mark.parametrize("part", [math.nan, -math.nan])
    def test_nan_real_part_keeps_its_sign_bit(self, part):
        """So does a NaN real part, though %g prints every NaN as nan."""
        M = np.array([[complex(part, 1.0), complex(part, part)]])
        text = matrix_to_csv(M)
        assert text == ",".join(format_complex(z) for z in M[0])
        assert text.startswith("-nan+1i," if math.copysign(1.0, part) < 0 else "nan+1i,")
        for z, back in zip(M[0], csv_to_matrix(text)[0]):
            assert math.copysign(1.0, back.real) == math.copysign(1.0, part)
            assert math.copysign(1.0, parse_complex(format_complex(z)).real) == math.copysign(1.0, part)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(409)
        for _ in range(200):
            z = complex(rng.normal() * 10.0 ** rng.integers(-8, 9), rng.normal())
            assert parse_complex(format_complex(z)) == z


class TestMatrixCsv:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(419)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        back = csv_to_matrix(matrix_to_csv(M))
        assert np.array_equal(back, M)

    def test_demo_matrix_round_trip(self):
        D = gain_distance_matrix(demo_graph(), VertexOrdering.standard(5), "max")
        back = csv_to_matrix(matrix_to_csv(D))
        assert np.max(np.abs(back - D)) <= 1e-12

    def test_ragged(self):
        with pytest.raises(ParseError, match="ragged"):
            csv_to_matrix("1+0i,2+0i\n3+0i")

    @pytest.mark.parametrize("text", ["", "\n", " \n\n"])
    def test_text_with_no_rows_is_the_empty_matrix(self, text):
        M = csv_to_matrix(text)
        assert M.shape == (0, 0) and M.dtype == complex
        assert matrix_to_csv(M) == ""

    @pytest.mark.parametrize("bad", [np.zeros(3, dtype=complex), np.array(1 + 2j)], ids=["1-D", "0-D"])
    def test_rejects_non_2d_input(self, bad):
        with pytest.raises(ValidationError, match="expected a 2-D matrix"):
            matrix_to_csv(bad)


# --- emit parity with the cell-by-cell join ------------------------------


def _cell_join(M) -> str:
    """The CSV cell by cell, one format_complex per entry."""
    return "\n".join(",".join(format_complex(z) for z in row) for row in np.asarray(M, dtype=complex))


#: Parts whose printing has a special case: signed zeros, infinities, NaN.
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan)

#: The gain group T4 = {1, i, -1, -i}; -1j has a real part of -0.0.
T4 = (1 + 0j, 1j, -1 + 0j, -1j)


@st.composite
def matrices(draw, square: bool = False):
    """A complex matrix of any shape up to 6 x 6 (empty ones included)
    whose parts are arbitrary floats, special values, integers, or
    integer multiples of T4 gains formed as numpy forms them."""
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(0, 6))
    size = rows * cols
    kind = draw(st.sampled_from(["floats", "special", "integers", "t4"]))
    if kind == "t4":
        gains = draw(st.lists(st.sampled_from(T4), min_size=size, max_size=size))
        hops = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
        return (np.array(gains, dtype=complex) * np.array(hops, dtype=int)).reshape(rows, cols)
    part = {
        "floats": st.floats(),
        "special": st.sampled_from(SPECIAL) | st.floats(),
        "integers": st.integers(-(2**53), 2**53).map(float),
    }[kind]
    M = np.zeros((rows, cols), dtype=complex)
    M.real = np.array(draw(st.lists(part, min_size=size, max_size=size)), dtype=float).reshape(rows, cols)
    M.imag = np.array(draw(st.lists(part, min_size=size, max_size=size)), dtype=float).reshape(rows, cols)
    return M


@st.composite
def hermitian_matrices(draw):
    """(H, nudge): H = M + M* for a square ``matrices()`` draw, Hermitian,
    with mirrored ±0.0 imaginary parts, infinities, and NaN in mirror pairs
    (inf - inf), which no Hermitian check passes; ``nudge`` is None, or
    sometimes the (j, k, real) that :func:`nudged` takes."""
    M = draw(matrices(square=True))
    with np.errstate(invalid="ignore", over="ignore"):
        H = M + M.conj().T
    n = len(H)
    if n > 1 and draw(st.booleans()):
        j, k = draw(st.permutations(range(n)))[:2]
        return H, (j, k, draw(st.booleans()))
    return H, None


def nudged(H, nudge):
    """H with the off-diagonal part that ``nudge`` = (j, k, real) names
    moved by one ulp, the real part up or the imaginary part down, so H
    is no longer Hermitian; H itself when ``nudge`` is None.  A part at
    ±max float moves to ±inf, without an overflow warning."""
    if nudge is None:
        return H
    j, k, real = nudge
    re, im = H[j, k].real, H[j, k].imag
    if real:
        re = math.nextafter(re, math.inf)
    else:
        im = math.nextafter(im, -math.inf)
    H = H.copy()
    H[j, k] = complex(re, im)
    return H


#: A Hermitian matrix whose off-diagonal parts are ±max float.
_BIG = sys.float_info.max
_MAX_PARTS = np.array([[0, complex(_BIG, -_BIG)], [complex(_BIG, _BIG), 0]])


class TestEmitParity:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_same_bytes_as_the_cell_join(self, M):
        assert matrix_to_csv(M) == _cell_join(M)

    @settings(max_examples=300, deadline=None)
    @given(hermitian_matrices())
    @example((_MAX_PARTS, (0, 1, True)))  # max float to inf
    @example((_MAX_PARTS, (0, 1, False)))  # -max float to -inf
    def test_hermitian_same_bytes_as_the_cell_join(self, case):
        """Each mirrored pair is formatted once; the bytes are those of
        the cell join, each cell's sign taken from its own part."""
        H = nudged(*case)
        assert matrix_to_csv(H) == _cell_join(H)

    def test_n300_distance_matrix(self):
        g = random_connected_graph(np.random.default_rng(300), 300, 301)
        D = gain_distance_matrix(g, VertexOrdering.standard(300).reverse(), "min")
        assert (D == D.conj().T).all()
        got, want = matrix_to_csv(D).split("\n"), _cell_join(D).split("\n")
        assert len(got) == len(want) == 300
        assert [j for j, (a, b) in enumerate(zip(got, want)) if a != b] == []

    def test_every_special_pair(self):
        M = np.array([[complex(a, b) for b in SPECIAL] for a in SPECIAL])
        assert matrix_to_csv(M) == _cell_join(M)
        # a NaN imaginary part with its sign bit set prints as -nan
        assert "nan-nani" in matrix_to_csv(M)
        for a in SPECIAL:  # a non-NaN imaginary part prints "+" exactly when >= 0
            for b in SPECIAL[:4]:
                assert format_complex(complex(a, b)).endswith(("+" if b >= 0 else "-") + f"{abs(b):.17g}i")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["max", "min"]))
    def test_gain_distance_matrices(self, n, seed, t4, mode):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, int(rng.integers(0, 6)))
        if t4:
            g = GainGraph(n, tuple((u, v, T4[int(rng.integers(4))]) for u, v, _ in g.edges))
        order = random_ordering(rng, n)
        for o in (order, order.reverse()):
            D = gain_distance_matrix(g, o, mode)
            assert matrix_to_csv(D) == _cell_join(D)
