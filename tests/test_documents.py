"""JSON graph documents and CSV matrix serialization."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        assert doc.weighted_graph().weight(2, 3) == 2.5

    def test_ordering_not_permutation(self):
        with pytest.raises(ValidationError, match="ordering"):
            parse_graph(doc_text(ordering=[1, 1, 2]))

    def test_ordering_accepted(self):
        doc = parse_graph(doc_text(ordering=[3, 1, 2]))
        assert doc.vertex_ordering().ranks == (3, 1, 2)

    def test_default_conversions(self):
        doc = parse_graph(doc_text())
        assert doc.weighted_graph().weights == (1.0, 1.0)
        assert doc.vertex_ordering() == VertexOrdering.standard(3)


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
def matrices(draw):
    """A complex matrix of any shape up to 6 x 6 (empty ones included)
    whose parts are arbitrary floats, special values, integers, or
    integer multiples of T4 gains formed as numpy forms them."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
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


class TestEmitParity:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_same_bytes_as_the_cell_join(self, M):
        assert matrix_to_csv(M) == _cell_join(M)

    def test_every_special_pair(self):
        M = np.array([[complex(a, b) for b in SPECIAL] for a in SPECIAL])
        assert matrix_to_csv(M) == _cell_join(M)
        assert "nan-nani" in matrix_to_csv(M)  # a NaN imaginary part prints as -nan

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
