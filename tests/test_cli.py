"""Command line interface: outputs, exit codes, and the verify command."""

import cmath
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_simple_cycles,
    demo_dmax_reversed,
    demo_dmax_standard,
    demo_dmin_standard,
    demo_document,
    demo_transmissions,
    random_connected_graph,
    random_ordering,
    unbalanced_geodetic_graphs,
    write_document,
)
import gainlap
from gainlap import (
    Disconnected,
    GainLapError,
    GraphDocument,
    NotACycle,
    NotAWalk,
    NotHermitian,
    ParseError,
    PathExplosion,
    TooLarge,
    ValidationError,
    ZeroGain,
    csv_to_matrix,
    cycle_gain,
    distance_laplacian,
    emit_graph,
    gain_distance_matrix,
    hermitian_spectrum,
    matrix_to_csv,
    parse_graph,
    shortest_distances,
    weighted_laplacian,
)
from gainlap.cli import _cmd_rank, build_parser, run
from gainlap.graphs import VertexOrdering
from test_distances import spy_walks
from test_documents import PARITY_CASES
from test_graphs import any_small_graphs


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def demo_path(tmp_path):
    return write_document(tmp_path, demo_document())


def cycle_document(gains, weights=None):
    n = len(gains)
    edges = [
        {"u": i, "v": i + 1, "gain": {"re": gains[i - 1].real, "im": gains[i - 1].imag}}
        for i in range(1, n)
    ]
    closing = gains[-1].conjugate()  # label was n -> 1; store on (1, n)
    edges.append({"u": 1, "v": n, "gain": {"re": closing.real, "im": closing.imag}})
    obj = {"n": n, "edges": edges}
    if weights is not None:
        obj["weights"] = list(weights)
    return obj


#: Two triangles, one with every gain 1 and one with a 0.5 twist: L is
#: singular, yet the graph is unbalanced.
TWO_TRIANGLES = {
    "n": 6,
    "edges": [
        {"u": u, "v": v, "gain": {"theta": 0.5 if (u, v) == (4, 6) else 0.0}}
        for u, v in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    ],
}


#: One call of every subcommand.
EVERY_ARGV = [
    ("dmatrix", "--mode", "max"), ("dlaplacian", "--mode", "min"), ("incidence",),
    ("spectrum", "--target", "lap"), ("det", "--method", "lu"),
    ("det", "--method", "forests"), ("rank",), ("balance",),
    ("verify", "--theorem", "1"), ("verify", "--theorem", "6"),
]
EVERY_SUBCOMMAND = pytest.mark.parametrize("argv", EVERY_ARGV, ids=" ".join)


def assert_heavy_weights_refused(capsys, tmp_path, argv, heavy):
    """A triangle with weights heavy, heavy, 1.0 exits 1 naming vertex 2,
    with no warning."""
    obj = cycle_document([1, 1, 1j], weights=[heavy, heavy, 1.0])
    path = write_document(tmp_path, obj, name="heavy.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = invoke(capsys, *argv, path)
    assert (code, out) == (1, "")
    assert err == "error: weights: twice their sum at vertex 2 is beyond the float range\n"


def write_random300(tmp_path) -> str:
    """A random connected document with n = 300, m = 600 and generic gains."""
    g = random_connected_graph(np.random.default_rng(300), 300, 301)
    edges = [{"u": u, "v": v, "gain": {"re": z.real, "im": z.imag}} for u, v, z in g.edges]
    return write_document(tmp_path, {"n": g.n, "edges": edges}, name="random300.json")


#: The gain group T4 = {1, i, -1, -i} with either sign of each zero part.
SIGNED_T4 = (
    complex(1.0, 0.0), complex(1.0, -0.0), complex(0.0, 1.0), complex(-0.0, 1.0),
    complex(-1.0, 0.0), complex(-1.0, -0.0), complex(0.0, -1.0), complex(-0.0, -1.0),
)


@st.composite
def distance_documents(draw):
    """A connected document on 1 to 8 vertices with generic gains, gains
    in T4, T4 gains and one generic gain (the float walk then meets zero
    parts of both signs), every gain exactly 1, or one gain e^{i phi}
    among ones; with its own ordering or none."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, n, int(rng.integers(0, n + 1)))
    kind = draw(st.sampled_from(["generic", "t4", "t4 and one generic", "ones", "one phase"]))
    edges = []
    for u, v, z in g.edges:
        if kind.startswith("t4"):
            z = SIGNED_T4[int(rng.integers(8))]
        elif kind != "generic":
            z = 1.0 + 0.0j
        edges.append({"u": u, "v": v, "gain": {"re": z.real, "im": z.imag}})
    if kind == "t4 and one generic" and edges:
        edges[int(rng.integers(len(edges)))]["gain"] = {"theta": float(rng.uniform(0.0, 2 * np.pi))}
    if kind == "one phase" and edges:
        phi = draw(st.floats(1e-12, 2 * np.pi, exclude_max=True))
        edges[int(rng.integers(len(edges)))]["gain"] = {"theta": phi}
    obj = {"n": n, "edges": edges}
    if draw(st.booleans()):
        obj["ordering"] = random_ordering(rng, n).ranks
    return obj


class TestDistanceRows:
    """dmatrix and dlaplacian print from the rows of the geodesic walk,
    with no numpy; the bytes are those of the library's matrices."""

    @given(distance_documents(), st.sampled_from(["max", "min"]), st.booleans())
    @example({"n": 1, "edges": []}, "max", False)
    @example({"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"theta": 1.0}}], "ordering": [2, 1]}, "min", True)
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_matrix_to_csv(self, tmp_path_factory, obj, mode, reverse):
        path = tmp_path_factory.getbasetemp() / "distance_rows.json"
        path.write_text(json.dumps(obj))
        doc = parse_graph(path.read_bytes())
        ordering = doc.vertex_ordering().reverse() if reverse else doc.vertex_ordering()
        for command, build in (("dmatrix", gain_distance_matrix), ("dlaplacian", distance_laplacian)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run([command, "--mode", mode, *["--reverse"] * reverse, str(path)])
            assert code == 0
            assert out.getvalue() == matrix_to_csv(build(doc.gain_graph(), ordering, mode)) + "\n"

    @pytest.mark.parametrize("gains", ["t4", "generic"])
    def test_same_bytes_on_the_6_cube(self, tmp_path, gains):
        """The 64-vertex 6-cube of the benchmark's Q6 jobs, whose pairs have
        up to 720 geodesics: T4 gains take the T4 walk, generic ones the
        float walk; both modes, both orderings, D and DL."""
        from gainlap.distances import _t4_adjacency

        rng = np.random.default_rng(6)
        pairs = [(x + 1, (x | 1 << b) + 1) for x in range(64) for b in range(6) if not x >> b & 1]
        if gains == "t4":
            t4 = [{"re": 1, "im": 0}, {"re": 0, "im": 1}, {"re": -1, "im": 0}, {"re": 0, "im": -1}]
            drawn = [t4[k] for k in rng.integers(4, size=len(pairs))]
        else:
            drawn = [{"theta": t} for t in rng.uniform(0.0, 2 * np.pi, size=len(pairs)).tolist()]
        edges = [{"u": u, "v": v, "gain": z} for (u, v), z in zip(pairs, drawn)]
        path = write_document(tmp_path, {"n": 64, "edges": edges}, name="q6.json")
        doc = parse_graph(Path(path).read_bytes())
        assert (_t4_adjacency(doc.gain_graph()) is not None) == (gains == "t4")
        for command, build in (("dmatrix", gain_distance_matrix), ("dlaplacian", distance_laplacian)):
            for mode in ("max", "min"):
                for reverse in (False, True):
                    ordering = doc.vertex_ordering().reverse() if reverse else doc.vertex_ordering()
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = run([command, "--mode", mode, *["--reverse"] * reverse, path])
                    assert code == 0
                    assert out.getvalue() == matrix_to_csv(build(doc.gain_graph(), ordering, mode)) + "\n"

    @pytest.mark.parametrize("argv", [("dmatrix", "--mode", "max"), ("dlaplacian", "--mode", "min", "--reverse")])
    def test_refusals_keep_their_lines(self, capsys, tmp_path, monkeypatch, demo_path, argv):
        """A disconnected document exits 1, and a pair past the path cap
        exits 3, each with one error line and nothing on stdout."""
        import gainlap.distances

        path = write_document(tmp_path, DISCONNECTED, name="disconnected.json")
        assert invoke(capsys, *argv, path) == (1, "", "error: vertex 3 is unreachable from vertex 1\n")
        monkeypatch.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 1)
        assert invoke(capsys, *argv, demo_path) == (
            3, "", "error: more than 1 distinct geodesic gains between 1 and 3\n"
        )


class TestMatrixCommands:
    def test_dmatrix_max(self, capsys, demo_path):
        code, out, _ = invoke(capsys, "dmatrix", "--mode", "max", demo_path)
        assert code == 0
        assert np.max(np.abs(csv_to_matrix(out) - demo_dmax_standard())) <= 1e-12

    def test_dmatrix_max_reversed(self, capsys, demo_path):
        code, out, _ = invoke(capsys, "dmatrix", "--mode", "max", "--reverse", demo_path)
        assert code == 0
        assert np.max(np.abs(csv_to_matrix(out) - demo_dmax_reversed())) <= 1e-12

    def test_dmatrix_min(self, capsys, demo_path):
        code, out, _ = invoke(capsys, "dmatrix", "--mode", "min", demo_path)
        assert code == 0
        assert np.max(np.abs(csv_to_matrix(out) - demo_dmin_standard())) <= 1e-12

    def test_explicit_reversed_ordering_field(self, capsys, tmp_path):
        obj = demo_document()
        obj["ordering"] = [5, 4, 3, 2, 1]
        path = write_document(tmp_path, obj, name="reversed.json")
        code, out, _ = invoke(capsys, "dmatrix", "--mode", "max", path)
        assert code == 0
        assert np.max(np.abs(csv_to_matrix(out) - demo_dmax_reversed())) <= 1e-12

    def test_dlaplacian(self, capsys, demo_path):
        code, out, _ = invoke(capsys, "dlaplacian", "--mode", "max", demo_path)
        assert code == 0
        want = demo_transmissions() - demo_dmax_standard()
        assert np.max(np.abs(csv_to_matrix(out) - want)) <= 1e-12

    def test_incidence_path_graph(self, capsys, tmp_path):
        obj = {
            "n": 3,
            "edges": [
                {"u": 1, "v": 2, "gain": {"theta": 0.0}},
                {"u": 2, "v": 3, "gain": {"theta": 0.0}},
            ],
        }
        path = write_document(tmp_path, obj, name="path.json")
        code, out, _ = invoke(capsys, "incidence", path)
        assert code == 0
        want = np.array([[1, 0], [-1, 1], [0, -1]], dtype=complex)
        assert np.max(np.abs(csv_to_matrix(out) - want)) <= 1e-12

    def test_n300_rows_stream_the_joined_text(self, capsys, tmp_path):
        """The matrix commands write their rows one at a time; the bytes
        are those of matrix_to_csv plus one newline, at n = 300 too."""
        path = write_random300(tmp_path)
        doc = parse_graph(Path(path).read_bytes())
        reverse = VertexOrdering.standard(300).reverse()
        for argv, M in (
            (("dmatrix", "--mode", "min", "--reverse"), gain_distance_matrix(doc.gain_graph(), reverse, "min")),
            (("dlaplacian", "--mode", "max"), distance_laplacian(doc.gain_graph(), VertexOrdering.standard(300), "max")),
        ):
            code, out, err = invoke(capsys, *argv, path)
            assert (code, err) == (0, "")
            same = out == matrix_to_csv(M) + "\n"  # no diff of 3.4 MB texts on failure
            assert same

    def test_n300_dmatrix_never_holds_its_text(self):
        """Regression: dmatrix printed the joined text of matrix_to_csv,
        3.4 MiB at n = 300 beside the list of its rows, and peaked at
        8.2 MiB (tracemalloc) past the geodesic table; written a row at a
        time, with each mirrored pair formatted once, it peaks at 5.3 MiB."""
        g = random_connected_graph(np.random.default_rng(300), 300, 301)
        doc = GraphDocument(n=g.n, edges=g.edges)
        gain_distance_matrix(doc.gain_graph(), VertexOrdering.standard(300), "max")  # the table
        args = build_parser().parse_args(["dmatrix", "--mode", "max", "random300.json"])
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = args.func(doc, args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 6.5 * 2**20

    def test_distance_incidence_factorizes(self, capsys, demo_path):
        code, out, _ = invoke(capsys, "incidence", "--distance", "--mode", "max", demo_path)
        assert code == 0
        H = csv_to_matrix(out)
        assert H.shape == (5, 10)
        want = demo_transmissions() - demo_dmax_standard()
        assert np.max(np.abs(H @ H.conj().T - want)) <= 1e-12


class TestScalarCommands:
    def test_spectrum_ascending(self, capsys, demo_path):
        code, out, _ = invoke(capsys, "spectrum", "--target", "dlmax", demo_path)
        assert code == 0
        values = [float(line) for line in out.split()]
        assert len(values) == 5
        assert values == sorted(values)
        assert sum(values) == pytest.approx(float(np.trace(demo_transmissions())))

    @pytest.mark.parametrize("target", ["dlmax", "dlmin"])
    def test_spectrum_reverse(self, capsys, demo_path, target):
        doc = parse_graph(json.dumps(demo_document()))
        mode = "max" if target == "dlmax" else "min"
        std = doc.vertex_ordering()
        for flags, ordering in (((), std), (("--reverse",), std.reverse())):
            code, out, _ = invoke(capsys, "spectrum", "--target", target, *flags, demo_path)
            assert code == 0
            want = hermitian_spectrum(distance_laplacian(doc.gain_graph(), ordering, mode))
            assert np.max(np.abs(np.array([float(x) for x in out.split()]) - want)) <= 1e-12

    def test_spectrum_adjacency(self, capsys, tmp_path):
        obj = {
            "n": 2,
            "edges": [{"u": 1, "v": 2, "gain": {"theta": 0.0}}],
            "weights": [3.0],
        }
        path = write_document(tmp_path, obj, name="edge.json")
        code, out, _ = invoke(capsys, "spectrum", "--target", "adj", path)
        assert code == 0
        assert [float(x) for x in out.split()] == pytest.approx([-3.0, 3.0])

    def test_spectrum_laplacian(self, capsys, tmp_path):
        obj = cycle_document([1 + 0j, 1j, 1 + 0j, -1j], weights=[1.0, 2.0, 0.5, 3.0])
        path = write_document(tmp_path, obj, name="c4.json")
        code, out, _ = invoke(capsys, "spectrum", "--target", "lap", path)
        assert code == 0
        L = weighted_laplacian(parse_graph(json.dumps(obj)).weighted_graph())
        assert out.splitlines() == [f"{x:.17g}" for x in hermitian_spectrum(L)]

    def test_det_forests_of_the_triangle(self, capsys, tmp_path):
        """The triangle with cycle gain e^{i} prints 2(1 - cos 1) to the
        last digit."""
        edges = [
            {"u": 1, "v": 2, "gain": {"theta": 0.0}},
            {"u": 2, "v": 3, "gain": {"theta": 0.0}},
            {"u": 1, "v": 3, "gain": {"theta": 1.0}},
        ]
        path = write_document(tmp_path, {"n": 3, "edges": edges}, name="triangle.json")
        assert invoke(capsys, "det", "--method", "forests", path) == (0, "0.91939538826372058\n", "")

    def test_det_both_methods_agree(self, capsys, tmp_path):
        path = write_document(tmp_path, cycle_document([1 + 0j, 1 + 0j, 1j]), name="c3.json")
        code_lu, out_lu, _ = invoke(capsys, "det", "--method", "lu", path)
        code_f, out_f, _ = invoke(capsys, "det", "--method", "forests", path)
        assert code_lu == 0 and code_f == 0
        assert float(out_lu) == pytest.approx(2.0, abs=1e-12)
        assert float(out_f) == pytest.approx(2.0, abs=1e-12)

    def test_rank_of_tree(self, capsys, tmp_path):
        obj = {
            "n": 4,
            "edges": [
                {"u": 1, "v": 2, "gain": {"theta": 0.4}},
                {"u": 2, "v": 3, "gain": {"theta": 1.1}},
                {"u": 2, "v": 4, "gain": {"theta": 5.0}},
            ],
        }
        path = write_document(tmp_path, obj, name="tree.json")
        code, out, _ = invoke(capsys, "rank", path)
        assert code == 0
        assert out.strip() == "3"

    @pytest.mark.parametrize(
        "name, obj, rank",
        [
            # The smallest eigenvalue, about 7, lies far under the
            # eigenvalue cutoff n·eps·max|λ| ≈ 8e292, which read 2.
            ("heavy", cycle_document([1, 1, 1j], weights=[4e307, 4e307, 1.0]), 3),
            # A cycle gain 1e-6 from 1, which a cutoff read as balanced: 11.
            ("c12", cycle_document([1 + 0j] * 11 + [cmath.exp(1e-6j)]), 12),
            ("two", TWO_TRIANGLES, 5),
        ],
    )
    def test_rank_is_n_minus_the_balanced_components(self, capsys, tmp_path, name, obj, rank):
        path = write_document(tmp_path, obj, name=f"{name}.json")
        assert invoke(capsys, "rank", path) == (0, f"{rank}\n", "")

    @given(any_small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_rank_against_the_cycle_oracle(self, g):
        """rank = n - b, b the components whose every simple cycle has
        gain 1; graphs on at most 7 vertices, disconnected ones included."""
        label = list(range(g.n + 1))  # each vertex's smallest vertex in its component
        for _ in range(g.n):
            for u, v, _ in g.edges:
                label[u] = label[v] = min(label[u], label[v])
        unbalanced = {label[c[0]] for c in all_simple_cycles(g) if abs(cycle_gain(g, c) - 1) > 1e-9}
        balanced = len(set(label[1:]) - unbalanced)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert _cmd_rank(GraphDocument(g.n, g.edges), None) == 0
        assert out.getvalue() == f"{g.n - balanced}\n"

    def test_balance_tokens(self, capsys, tmp_path, demo_path):
        code, out, _ = invoke(capsys, "balance", demo_path)
        assert code == 0
        assert out.strip() == "unbalanced"
        path = write_document(tmp_path, cycle_document([1j, 1j, -1 + 0j]), name="bal.json")
        code, out, _ = invoke(capsys, "balance", path)
        assert code == 0
        assert out.strip() == "balanced"


#: Unbalanced geodetic graphs, on which theorem 12 has something to judge.
GEODETIC = unbalanced_geodetic_graphs()

class TestVerify:
    @pytest.mark.parametrize("theorem", [1, 6, 7, 11, 13])
    def test_pass_on_demo(self, capsys, demo_path, theorem):
        code, out, _ = invoke(capsys, "verify", "--theorem", str(theorem), demo_path)
        assert code == 0
        assert out.startswith(f"PASS theorem={theorem} max_residual=")

    def test_theorem_2_on_cycle(self, capsys, tmp_path):
        obj = cycle_document(
            [np.exp(0.7j), np.exp(1.9j), np.exp(0.2j), np.exp(4.4j)],
            weights=[0.5, 2.0, 1.25, 0.8],
        )
        path = write_document(tmp_path, obj, name="c4.json")
        code, out, _ = invoke(capsys, "verify", "--theorem", "2", path)
        assert code == 0
        assert out.startswith("PASS theorem=2")

    def test_theorem_2_needs_a_cycle(self, capsys, demo_path):
        code, _, err = invoke(capsys, "verify", "--theorem", "2", demo_path)
        assert code == 1
        assert "cycle" in err

    def test_theorem_3(self, capsys, demo_path):
        code, out, _ = invoke(capsys, "verify", "--theorem", "3", demo_path)
        assert code == 0
        assert out.startswith("PASS theorem=3")

    def test_theorem_12_vacuous_on_demo(self, capsys, demo_path):
        code, out, _ = invoke(capsys, "verify", "--theorem", "12", demo_path)
        assert code == 0
        assert out.startswith("PASS theorem=12")
        assert "hypothesis not met" in out

    def test_theorem_12_effective_on_balanced_cycle(self, capsys, tmp_path):
        path = write_document(
            tmp_path, cycle_document([1j, 1j, -1 + 0j]), name="bal.json"
        )
        code, out, _ = invoke(capsys, "verify", "--theorem", "12", path)
        assert code == 0
        assert out.startswith("PASS theorem=12")
        assert "hypothesis" not in out

    @pytest.mark.parametrize(
        "theorem, name",
        [
            pytest.param(theorem, name, id=name if theorem == 12 else f"{theorem}-{name}")
            for theorem in (11, 12, 13)
            for name in GEODETIC
        ],
    )
    def test_theorem_12_judges_unbalanced_geodetic_graphs(self, capsys, tmp_path, theorem, name):
        """Theorems 11 and 13 judge the same unbalanced graphs as theorem
        12, whose cases keep the graph name alone as their id."""
        g = GEODETIC[name]
        ordering = random_ordering(np.random.default_rng(g.n), g.n).ranks
        path = tmp_path / f"{name}.json"
        path.write_text(emit_graph(GraphDocument(g.n, g.edges, ordering=ordering)))
        code, out, _ = invoke(capsys, "verify", "--theorem", str(theorem), str(path))
        assert code == 0
        assert out.startswith(f"PASS theorem={theorem}")
        assert "hypothesis" not in out

    def test_seed_changes_nothing_on_pass(self, capsys, demo_path):
        for seed in ("0", "1", "17"):
            code, out, _ = invoke(capsys, "verify", "--theorem", "1", "--seed", seed, demo_path)
            assert code == 0 and out.startswith("PASS")

    @pytest.mark.parametrize("theorem", ["6", "11"])
    @pytest.mark.parametrize("n", [24, 100, 160])
    @pytest.mark.parametrize("balanced", [False, True])
    def test_long_cycles(self, capsys, tmp_path, theorem, n, balanced):
        """Regression: a determinant threshold that grows with n, and a
        determinant that overflows, once failed theorems 6 and 11 here."""
        rng = np.random.default_rng(n)
        gains = np.exp(2j * np.pi * rng.random(n))
        if balanced:
            gains[-1] = np.prod(gains[:-1]).conjugate()  # cycle gain 1
        path = write_document(tmp_path, cycle_document(list(gains)), name=f"c{n}.json")
        code, out, err = invoke(capsys, "verify", "--theorem", theorem, path)
        assert (code, err) == (0, "")
        assert out.startswith(f"PASS theorem={theorem}")

    @pytest.mark.parametrize("n, phi", [(24, 1e-3), (60, 1e-2), (160, 1e-2)])
    def test_near_balanced_cycles(self, capsys, tmp_path, n, phi):
        """Regression: a rank cutoff of 1e-8 * max |eigenvalue| once
        counted the smallest eigenvalue of L, about 2(1 - cos(phi / n)),
        as zero on these unbalanced cycles."""
        rng = np.random.default_rng(n)
        gains = np.exp(2j * np.pi * rng.random(n))
        gains[-1] = np.prod(gains[:-1]).conjugate() * np.exp(1j * phi)  # cycle gain e^{i phi}
        path = write_document(tmp_path, cycle_document(list(gains)), name=f"c{n}.json")
        code, out, err = invoke(capsys, "verify", "--theorem", "6", path)
        assert (code, err) == (0, "")
        assert out.startswith("PASS theorem=6")

    @pytest.mark.parametrize("n, phi", [(24, 1e-5), (12, 1e-6)])
    def test_theorem_11_near_balanced_cycles(self, capsys, tmp_path, n, phi):
        """Regression: theorem 11 once also required log|det| above its
        log threshold, which these unbalanced cycles of rank n are not."""
        rng = np.random.default_rng(n)
        gains = np.exp(2j * np.pi * rng.random(n))
        gains[-1] = np.prod(gains[:-1]).conjugate() * np.exp(1j * phi)  # cycle gain e^{i phi}
        path = write_document(tmp_path, cycle_document(list(gains)), name=f"c{n}.json")
        code, out, err = invoke(capsys, "verify", "--theorem", "11", path)
        assert (code, err) == (0, "")
        assert out.startswith("PASS theorem=11 max_residual=0.000e+00")

    @pytest.mark.parametrize(
        "theorem, name, fake",
        [
            (1, "factorization_residual", lambda real: lambda *a: 1.0),
            (2, "det_direct", lambda real: lambda M: real(M) + 1.0),
            (3, "det_via_forests", lambda real: lambda *a, **k: real(*a, **k) + 1.0),
            (7, "distance_factorization_residual", lambda real: lambda *a: 1.0),
        ],
    )
    def test_each_bounded_row_can_fail(self, capsys, tmp_path, monkeypatch, theorem, name, fake):
        """Each row with a bound exits 2 once the quantity it reads is
        pushed past that bound.  The rows read each function from the
        package namespace when they run, so the namespace is patched."""
        obj = cycle_document(
            [np.exp(0.7j), np.exp(1.9j), np.exp(0.2j), np.exp(4.4j)],
            weights=[0.5, 2.0, 1.25, 0.8],
        )
        path = write_document(tmp_path, obj, name="c4.json")
        code, out, _ = invoke(capsys, "verify", "--theorem", str(theorem), path)
        assert (code, out[:4]) == (0, "PASS")
        monkeypatch.setattr(gainlap, name, fake(getattr(gainlap, name)))
        code, out, _ = invoke(capsys, "verify", "--theorem", str(theorem), path)
        assert code == 2
        assert out.startswith(f"FAIL theorem={theorem} max_residual=")

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],  # two triangles
            [(1, 2), (2, 3), (1, 3), (3, 4)],  # a triangle with a pendant vertex
        ],
    )
    def test_theorem_2_refuses_other_unicyclic_shapes(self, capsys, tmp_path, edges):
        n = max(v for e in edges for v in e)
        obj = {"n": n, "edges": [{"u": u, "v": v, "gain": {"theta": 0.3}} for u, v in edges]}
        path = write_document(tmp_path, obj, name="g.json")
        code, out, err = invoke(capsys, "verify", "--theorem", "2", path)
        assert (code, out) == (1, "")
        assert "single cycle" in err

    def test_theorem_6_refuses_a_disconnected_graph(self, capsys, tmp_path):
        """Regression: L of the two triangles is singular while the graph
        is unbalanced, so the connected-graph statement printed FAIL and
        exited 2."""
        path = write_document(tmp_path, TWO_TRIANGLES, name="two.json")
        code, out, err = invoke(capsys, "verify", "--theorem", "6", path)
        assert (code, out, err) == (1, "", "error: vertex 4 is unreachable from vertex 1\n")

    def test_spanning_cycle_walks_from_1_toward_its_smaller_neighbor(self):
        from gainlap import GainGraph
        from gainlap.cli import _spanning_cycle

        g = GainGraph(5, ((1, 3, 1), (2, 3, 1), (2, 5, 1), (4, 5, 1), (1, 4, 1)))
        assert _spanning_cycle(g) == (1, 3, 2, 5, 4)

    def test_theorem_7_walks_the_geodesics_once(self, capsys, demo_path, monkeypatch):
        """Theorem 7 reads both orderings, so it walks every pair once,
        not an ordering's half first and then the full table."""
        walks = spy_walks(monkeypatch)
        code, out, _ = invoke(capsys, "verify", "--theorem", "7", demo_path)
        assert code == 0 and out.startswith("PASS theorem=7 ")
        assert walks == [None]

    def test_theorem_13_walks_its_orderings_half_once(self, capsys, demo_path, monkeypatch):
        """The cospectrality check forms DL first, so the demo, whose
        gains are generic, walks only the half of its ordering."""
        ranks = parse_graph(Path(demo_path).read_bytes()).vertex_ordering().ranks
        walks = spy_walks(monkeypatch)
        code, out, _ = invoke(capsys, "verify", "--theorem", "13", demo_path)
        assert code == 0 and out.startswith("PASS theorem=13 ")
        assert walks == [ranks]

    def test_theorem_12_walks_the_switched_copy_by_half(self, capsys, tmp_path, monkeypatch):
        """On a balanced 3-cube with generic gains from a vertex potential,
        the hypothesis walks the half of the ordering, of the graph and
        then of the switched copy; the line is unchanged."""
        t = [0.0, 0.4, 1.7, 2.9, 5.1, 0.8, 3.3, 4.6, 2.2]
        pairs = [(x + 1, (x | 1 << b) + 1) for x in range(8) for b in range(3) if not x >> b & 1]
        obj = {"n": 8, "edges": [{"u": u, "v": v, "gain": {"theta": t[v] - t[u]}} for u, v in pairs]}
        path = write_document(tmp_path, obj, name="q3.json")
        walks = spy_walks(monkeypatch)
        code, out, _ = invoke(capsys, "verify", "--theorem", "12", path)
        assert (code, out) == (0, "PASS theorem=12 max_residual=1.421e-14\n")
        assert walks == [VertexOrdering.standard(8).ranks] * 2

    def test_fail_exits_2(self, capsys, demo_path, monkeypatch):
        import gainlap.cli as cli_module

        monkeypatch.setattr(
            cli_module, "_verify", lambda doc, theorem, seed: (False, 0.5, None)
        )
        code, out, _ = invoke(capsys, "verify", "--theorem", "1", demo_path)
        assert code == 2
        assert out.startswith("FAIL theorem=1 max_residual=5.000e-01")


#: The one-vertex graph: a valid document with no vertex pair.
ONE_VERTEX = {"n": 1, "edges": []}


class TestOneVertex:
    def test_theorem_7_passes(self, capsys, tmp_path):
        path = write_document(tmp_path, ONE_VERTEX)
        code, out, err = invoke(capsys, "verify", "--theorem", "7", path)
        assert (code, out, err) == (0, "PASS theorem=7 max_residual=0.000e+00\n", "")

    def test_distance_incidence_is_the_edgeless_incidence(self, capsys, tmp_path):
        """The associated complete graph of K_1 has no edge, so its
        incidence is the n x 0 matrix of the graph itself."""
        path = write_document(tmp_path, ONE_VERTEX)
        plain = invoke(capsys, "incidence", path)
        assert plain[0] == 0
        assert invoke(capsys, "incidence", "--distance", path) == plain

    def test_incidence_output_reads_back(self, capsys, tmp_path):
        """The 1 x 0 incidence prints as one empty line, which reads
        back as the (0, 0) matrix, and that prints as "" again."""
        path = write_document(tmp_path, ONE_VERTEX)
        code, out, err = invoke(capsys, "incidence", path)
        assert (code, out, err) == (0, "\n", "")
        M = csv_to_matrix(out)
        assert M.shape == (0, 0) and matrix_to_csv(M) == ""


#: A valid document on which vertex 3 is the first vertex that vertex 1
#: does not reach.
DISCONNECTED = {
    "n": 4,
    "edges": [
        {"u": 1, "v": 2, "gain": {"theta": 0.5}},
        {"u": 3, "v": 4, "gain": {"theta": 0.0}},
    ],
}


@pytest.mark.parametrize(
    "query, argv",
    [(lambda doc: shortest_distances(doc.gain_graph()), ("dmatrix", "--mode", "max"))],
    ids=["distances"],
)
def test_disconnected_graph_refused_with_one_text(capsys, tmp_path, query, argv):
    """The library and the CLI refuse a disconnected graph with the same
    words where a layer needs it connected."""
    text = "vertex 3 is unreachable from vertex 1"
    with pytest.raises(Disconnected) as exc:
        query(parse_graph(json.dumps(DISCONNECTED)))
    assert str(exc.value) == text
    path = write_document(tmp_path, DISCONNECTED)
    assert invoke(capsys, *argv, path) == (1, "", f"error: {text}\n")


def test_forest_determinant_of_a_disconnected_graph(capsys, tmp_path):
    """Regression: det --method forests and theorem 3 refused a
    disconnected graph, though the expansion holds component by component.
    On two lone edges both methods print 0; on two triangles of cycle
    gain -1, 16 against LU's 15.999999999999991, and theorem 3 PASSes."""
    path = write_document(tmp_path, DISCONNECTED)
    lu = invoke(capsys, "det", "--method", "lu", path)
    assert invoke(capsys, "det", "--method", "forests", path) == lu == (0, "0\n", "")
    twisted = {
        "n": 6,
        "edges": [
            {"u": u, "v": v, "gain": {"re": -1 if (u, v) in ((1, 3), (4, 6)) else 1, "im": 0}}
            for u, v in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
        ],
    }
    path = write_document(tmp_path, twisted, name="twisted.json")
    assert invoke(capsys, "det", "--method", "forests", path) == (0, "16\n", "")
    code, out, _ = invoke(capsys, "det", "--method", "lu", path)
    assert code == 0 and float(out) == pytest.approx(16.0, rel=1e-12)
    code, out, _ = invoke(capsys, "verify", "--theorem", "3", path)
    assert code == 0 and out.startswith("PASS theorem=3 ")


class TestExitCodes:
    def test_dense_incidence_past_its_budget_exits_3(self, capsys, demo_path, monkeypatch):
        import gainlap.laplacians

        monkeypatch.setattr(gainlap.laplacians, "_INCIDENCE_BYTES", 5 * 10 * 16 - 1)
        assert invoke(capsys, "incidence", demo_path)[0] == 0  # 5 x 5
        code, out, err = invoke(capsys, "incidence", "--distance", demo_path)
        assert (code, out) == (3, "")
        assert err.startswith("error: a dense 5 x 10 incidence")

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "dmatrix", "--mode", "max", "/nonexistent.json")
        assert code == 1
        assert "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = invoke(capsys, "dmatrix", "--mode", "max", str(path))
        assert code == 1
        assert "invalid JSON" in err

    def test_validation_error(self, capsys, tmp_path):
        path = write_document(
            tmp_path,
            {"n": 2, "edges": [{"u": 2, "v": 1, "gain": {"theta": 0.0}}]},
            name="bad.json",
        )
        code, _, err = invoke(capsys, "balance", path)
        assert code == 1
        assert "u < v" in err

    @pytest.mark.parametrize("text", [t for t, _ in PARITY_CASES.values()], ids=PARITY_CASES.keys())
    def test_malformed_values_name_their_field(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = invoke(capsys, "balance", str(path))
        assert (code, out) == (1, "")
        with pytest.raises(ValidationError) as exc:
            parse_graph(text)
        assert f"{str(exc.value).split(':', 1)[0]}:" in err

    def test_bad_usage(self, capsys, demo_path):
        code, _, err = invoke(capsys, "dmatrix", "--mode", "median", demo_path)
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize(
        "gain", ['{"theta": NaN}', '{"re": NaN, "im": 0}', '{"theta": -Infinity}', '{"theta": 1e999}']
    )
    def test_non_finite_gain(self, capsys, tmp_path, gain):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "edges": [{"u": 1, "v": 2, "gain": %s}]}' % gain)
        code, out, err = invoke(capsys, "balance", str(path))
        assert (code, out) == (1, "")
        assert "edges[0].gain." in err and "finite" in err

    @EVERY_SUBCOMMAND
    def test_weight_sum_beyond_the_float_range(self, capsys, tmp_path, argv):
        """Regression: rank printed 0, det and spectrum nan, verify FAIL
        with max_residual=nan, each with numpy warnings on stderr."""
        assert_heavy_weights_refused(capsys, tmp_path, argv, 1.5e308)

    @EVERY_SUBCOMMAND
    def test_twice_the_weight_sum_beyond_the_float_range(self, capsys, tmp_path, argv):
        """Regression: the sum at vertex 2 is finite, 1.6e308, but twice
        it, which bounds the spectrum, is not: rank printed 0, spectrum
        inf, and verify --theorem 6 failed."""
        assert_heavy_weights_refused(capsys, tmp_path, argv, 8e307)

    def test_negative_seed(self, capsys, demo_path):
        """Regression: numpy's ValueError escaped as a traceback."""
        code, out, err = invoke(capsys, "verify", "--theorem", "1", "--seed", "-1", demo_path)
        assert (code, out) == (1, "")
        assert err == "error: argument --seed: expected a non-negative integer, got '-1'\n"

    def test_seed_not_an_integer(self, capsys, demo_path):
        code, out, err = invoke(capsys, "verify", "--theorem", "1", "--seed", "abc", demo_path)
        assert (code, out) == (1, "")
        assert err == "error: argument --seed: expected a non-negative integer, got 'abc'\n"

    def test_gain_modulus_beyond_the_float_range(self, capsys, tmp_path):
        """Regression: a traceback from a bare OverflowError."""
        path = tmp_path / "huge.json"
        path.write_text('{"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"re": 1.5e308, "im": 1.5e308}}]}')
        code, out, err = invoke(capsys, "balance", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: edges[0].gain: ") and "beyond the float range" in err

    def test_missing_theorem_choice(self, capsys, demo_path):
        code, _, err = invoke(capsys, "verify", "--theorem", "4", demo_path)
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "dmatrix" in out

    @pytest.mark.parametrize(
        "error, want",
        [
            (ParseError, 1), (ValidationError, 1), (Disconnected, 1), (NotACycle, 1),
            (NotAWalk, 1), (ZeroGain, 1), (NotHermitian, 1), (TooLarge, 3), (PathExplosion, 3),
        ],
        ids=lambda x: x.__name__ if isinstance(x, type) else str(x),
    )
    def test_each_error_type_picks_its_exit_code(self, capsys, demo_path, monkeypatch, error, want):
        import gainlap.cli

        def handler(doc, args):
            raise error("boom")

        monkeypatch.setattr(gainlap.cli, "_cmd_balance", handler)
        assert invoke(capsys, "balance", demo_path) == (want, "", "error: boom\n")
        assert issubclass(PathExplosion, TooLarge) and issubclass(error, GainLapError)
        assert invoke(capsys, "--help")[0] == 0

    def test_budget_env_triggers_exit_3(self, capsys, tmp_path, monkeypatch):
        edges = [
            {"u": u, "v": v, "gain": {"theta": 0.0}}
            for u in range(1, 5)
            for v in range(u + 1, 5)
        ]
        path = write_document(tmp_path, {"n": 4, "edges": edges}, name="k4.json")
        monkeypatch.setenv("GAINLAP_BUDGET", "1")
        code, _, err = invoke(capsys, "det", "--method", "forests", path)
        assert code == 3
        assert "budget" in err
        monkeypatch.setenv("GAINLAP_BUDGET", "100")
        code, out, _ = invoke(capsys, "det", "--method", "forests", path)
        assert code == 0

    def test_path_cap_triggers_exit_3(self, capsys, demo_path, monkeypatch):
        import gainlap.distances

        # demo pair (1, 3) has two distinct geodesic gains
        monkeypatch.setattr(gainlap.distances, "DEFAULT_PATH_CAP", 1)
        code, _, err = invoke(capsys, "dmatrix", "--mode", "max", demo_path)
        assert code == 3
        assert "distinct geodesic gains" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_env_not_positive(self, capsys, tmp_path, monkeypatch, budget):
        """Regression: a budget below 1 exited 3, as if exceeded."""
        path = write_document(
            tmp_path, cycle_document([1 + 0j, 1 + 0j, 1j]), name="c3.json"
        )
        monkeypatch.setenv("GAINLAP_BUDGET", budget)
        code, out, err = invoke(capsys, "det", "--method", "forests", path)
        assert (code, out) == (1, "")
        assert err == f"error: GAINLAP_BUDGET: expected a positive integer, got {budget!r}\n"

    def test_budget_env_not_integer(self, capsys, tmp_path, monkeypatch):
        path = write_document(
            tmp_path, cycle_document([1 + 0j, 1 + 0j, 1j]), name="c3.json"
        )
        monkeypatch.setenv("GAINLAP_BUDGET", "plenty")
        code, _, err = invoke(capsys, "det", "--method", "forests", path)
        assert code == 1
        assert err == "error: GAINLAP_BUDGET: expected a positive integer, got 'plenty'\n"


def test_cycle_document_helper_orientation():
    # the closing edge is stored conjugated so the traversal gain is the
    # product of the listed labels
    obj = cycle_document([1j, 1j, -1 + 0j])
    doc_edges = {(e["u"], e["v"]): complex(e["gain"]["re"], e["gain"]["im"]) for e in obj["edges"]}
    assert doc_edges[(1, 3)] == pytest.approx(-1 + 0j)


#: The process entry point, as the benchmark and the console script run it.
ENTRY_POINT = (sys.executable, "-m", "gainlap.cli")


def child_env(**extra: str) -> dict[str, str]:
    """This environment with the tested ``src`` first on PYTHONPATH, then
    ``extra``."""
    src = str(Path(gainlap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


#: Run in a fresh interpreter: whether numpy is loaded after each import,
#: then the exit code and whether it is loaded after each (budget, argv)
#: call of ``cli.run``, given as JSON in argv[1].
_NUMPY_PROBE = """
import contextlib, io, json, os, sys
loaded = lambda: "numpy" in sys.modules
import gainlap
seen = [loaded()]
import gainlap.cli
seen.append(loaded())
for budget, argv in json.loads(sys.argv[1]):
    os.environ.pop("GAINLAP_BUDGET", None)
    if budget:
        os.environ["GAINLAP_BUDGET"] = budget
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append([gainlap.cli.run(argv), loaded()])
print(json.dumps(seen))
"""


def test_numpy_loads_only_where_linear_algebra_runs(tmp_path, demo_path):
    """Importing the package or the CLI loads no numpy, and neither do
    balance, rank, det --method forests and verify --theorem 3 over their budget,
    det --method forests within it, an input error, a verify row that
    refuses its input, and dmatrix and dlaplacian, on generic and T4 gains
    and under a document's own ordering; det --method lu loads it, so the
    probe can see it."""
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(demo_document())[:40])
    k4 = [{"u": u, "v": v, "gain": {"theta": 0.5}} for u in range(1, 5) for v in range(u + 1, 5)]
    k4_path = write_document(tmp_path, {"n": 4, "edges": k4}, name="k4.json")
    two_path = write_document(tmp_path, TWO_TRIANGLES, name="two.json")
    t4_path = write_document(tmp_path, cycle_document([1j, 1j, -1, 1j]), name="t4.json")
    ordered_path = write_document(tmp_path, {**demo_document(), "ordering": [3, 1, 5, 2, 4]}, name="ordered.json")
    calls = [
        (None, ["balance", demo_path]),
        (None, ["rank", demo_path]),
        (None, ["det", "--method", "forests", demo_path]),
        ("1", ["det", "--method", "forests", k4_path]),  # C(6, 4) = 15 subsets
        (None, ["balance", str(truncated)]),
        (None, ["verify", "--theorem", "2", demo_path]),  # not a cycle
        ("1", ["verify", "--theorem", "3", k4_path]),  # past the budget
        (None, ["verify", "--theorem", "6", two_path]),  # disconnected
        (None, ["verify", "--theorem", "7", two_path]),
        (None, ["verify", "--theorem", "11", two_path]),
        (None, ["verify", "--theorem", "12", two_path]),
        (None, ["verify", "--theorem", "13", two_path]),
        (None, ["dmatrix", "--mode", "max", demo_path]),
        (None, ["dlaplacian", "--mode", "min", "--reverse", t4_path]),
        (None, ["dmatrix", "--mode", "max", ordered_path]),
        (None, ["det", "--method", "lu", demo_path]),
    ]
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(calls)],
        env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(out.stdout) == [
        False, False, [0, False], [0, False], [0, False], [3, False], [1, False],
        [1, False], [3, False], [1, False], [1, False], [1, False], [1, False], [1, False],
        [0, False], [0, False], [0, False], [0, True],
    ]


def test_distances_loads_only_where_a_geodesic_table_is_read(tmp_path, demo_path):
    """The calls that never read a geodesic table do not import
    ``gainlap.distances``; dmatrix does, so the probe can see it."""
    probe = _NUMPY_PROBE.replace('"numpy" in sys.modules', '"gainlap.distances" in sys.modules')
    cycle_path = write_document(tmp_path, cycle_document([1, 1, 1j]), name="cycle.json")
    calls = [
        (None, ["incidence", demo_path]),
        (None, ["spectrum", "--target", "lap", demo_path]),
        (None, ["spectrum", "--target", "adj", demo_path]),
        (None, ["det", "--method", "lu", demo_path]),
        (None, ["verify", "--theorem", "1", demo_path]),
        (None, ["verify", "--theorem", "2", cycle_path]),
        (None, ["verify", "--theorem", "3", demo_path]),
        (None, ["verify", "--theorem", "6", demo_path]),
        (None, ["dmatrix", "--mode", "max", demo_path]),
    ]
    out = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(calls)],
        env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(out.stdout) == [False, False, *[[0, False]] * 8, [0, True]]


def test_numpy_random_loads_only_where_the_seed_is_read(demo_path):
    """verify --theorem 7 loads numpy but not numpy.random; theorem 1,
    which reads its seed, loads it."""
    probe = _NUMPY_PROBE.replace('"numpy" in sys.modules', '("numpy" in sys.modules, "numpy.random" in sys.modules)')
    calls = [(None, ["verify", "--theorem", "7", demo_path]),
             (None, ["verify", "--theorem", "1", "--seed", "3", demo_path])]
    out = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(calls)],
        env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(out.stdout)[2:] == [[0, [True, False]], [0, [True, True]]]


def test_no_dataclasses_module_loads(demo_path):
    """The records are plain classes: with every public name resolved and
    every subcommand run, no ``dataclasses`` module has been imported."""
    probe = (
        "import contextlib, io, sys, gainlap, gainlap.cli\n"
        "names = [getattr(gainlap, name) for name in gainlap.__all__]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [gainlap.cli.run(argv.split() + [sys.argv[1]]) for argv in sys.argv[2:]]\n"
        "print(codes, 'dataclasses' in sys.modules)\n"
    )
    argvs = [" ".join(argv) for argv in EVERY_ARGV]
    argvs += ["dlaplacian --mode max", "incidence --distance", "verify --theorem 13"]
    out = subprocess.run(
        [sys.executable, "-c", probe, demo_path, *argvs],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout == f"{[0] * len(argvs)} False\n"


#: The BLAS thread counts that ``main`` sets to 1 unless already set.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture()
def no_blas_thread_vars(monkeypatch):
    """Unset every BLAS thread count for the test, each restored after."""
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "")  # records the value to restore
        monkeypatch.delenv(var)


@pytest.fixture()
def exit_raises(monkeypatch):
    """``os._exit(code)`` raises ``SystemExit(code)``, so that ``main``
    returns to the test instead of ending the pytest process."""

    def fake_exit(code: int):
        raise SystemExit(code)

    monkeypatch.setattr(os, "_exit", fake_exit)


def test_main_exits(tmp_path, capsys, monkeypatch, no_blas_thread_vars, exit_raises):
    import gainlap.cli as cli_module

    monkeypatch.setattr("sys.argv", ["gainlap", "balance", "/nonexistent.json"])
    with pytest.raises(SystemExit) as exc:
        cli_module.main()
    assert exc.value.code == 1
    capsys.readouterr()


def test_main_keeps_a_thread_count_the_user_set(demo_path, capsys, monkeypatch, no_blas_thread_vars, exit_raises):
    """``main`` sets only the counts the environment leaves unset;
    ``run``, which in-process callers use, sets none."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert run(["balance", demo_path]) == 0
    assert [os.environ.get(var) for var in BLAS_THREAD_VARS] == ["3", None, None]
    monkeypatch.setattr("sys.argv", ["gainlap", "balance", demo_path])
    with pytest.raises(SystemExit) as exc:
        gainlap.cli.main()
    assert exc.value.code == 0
    assert [os.environ.get(var) for var in BLAS_THREAD_VARS] == ["3", "1", "1"]
    assert capsys.readouterr().out == "unbalanced\nunbalanced\n"


def test_main_exits_2_on_fail(demo_path, capsys, monkeypatch, no_blas_thread_vars, exit_raises):
    import gainlap.cli as cli_module

    monkeypatch.setattr(cli_module, "_verify", lambda doc, theorem, seed: (False, 0.5, None))
    monkeypatch.setattr("sys.argv", ["gainlap", "verify", "--theorem", "1", demo_path])
    with pytest.raises(SystemExit) as exc:
        cli_module.main()
    assert exc.value.code == 2
    assert capsys.readouterr().out.startswith("FAIL theorem=1 max_residual=5.000e-01")


def test_spectrum_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A random connected document with n = 300, m = 600 and generic
    gains prints the same spectrum of L with the thread counts unset as
    with each set to 1.  Threaded OpenBLAS sums in another order: without
    the default of one thread, most of the 300 lines differ in their last
    digits on a machine with two or more cores.  On one core the test
    cannot fail."""
    path = write_random300(tmp_path)
    env = {k: v for k, v in child_env().items() if k not in BLAS_THREAD_VARS}
    outs = [
        subprocess.run(
            [*ENTRY_POINT, "spectrum", "--target", "lap", path],
            env=e, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for e in (env, {**env, **dict.fromkeys(BLAS_THREAD_VARS, "1")})
    ]
    assert len(outs[0].splitlines()) == 300
    assert outs[0] == outs[1]


# --- the process entry point ---------------------------------------------
#
# ``main`` ends the process with ``os._exit`` once it has flushed, so only
# a fresh interpreter shows what it writes and the code it exits with.


def test_entry_point_writes_every_byte_before_it_exits(tmp_path, capsys):
    """Through a pipe with a block-buffered stdout, the last partial
    buffer of an n = 300 dmatrix reaches the reader before the exit."""
    path = write_random300(tmp_path)
    argv = ("dmatrix", "--mode", "min", "--reverse", path)
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([*ENTRY_POINT, *argv], env=env, capture_output=True, timeout=120)
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert (proc.returncode, proc.stderr) == (0, b"")
    same = proc.stdout == out.encode()  # no diff of 3.4 MB texts on failure
    assert same


@pytest.mark.parametrize(
    "argv, document, env, want",
    [
        (("dmatrix", "--mode", "max"), json.dumps(demo_document())[:-7], {}, 1),
        (("det", "--method", "forests"), json.dumps(demo_document()), {"GAINLAP_BUDGET": "1"}, 3),
    ],
    ids=["malformed", "budget"],
)
def test_entry_point_exits_with_the_code_and_error_line_of_run(tmp_path, capsys, monkeypatch, argv, document, env, want):
    path = tmp_path / "graph.json"
    path.write_text(document)
    proc = subprocess.run(
        [*ENTRY_POINT, *argv, str(path)], env=child_env(**env), capture_output=True, text=True, timeout=60
    )
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = invoke(capsys, *argv, str(path))
    assert (code, out) == (want, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_output_to_a_full_device_exits_1_with_one_line(demo_path, unbuffered):
    """Regression: the write failed with a traceback and exit 1 when
    unbuffered, and at teardown with exit 120 when buffered."""
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [*ENTRY_POINT, "balance", demo_path], env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60
        )
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_output_to_a_closed_pipe_exits_1_with_one_line(tmp_path):
    """Regression: ``dmatrix ... | head -c 100`` ended in a BrokenPipeError
    traceback.  The 3.4 MB of an n = 300 dmatrix cannot all fit in the pipe,
    so a write after the reader closes must fail."""
    path = write_random300(tmp_path)
    with subprocess.Popen(
        [*ENTRY_POINT, "dmatrix", "--mode", "max", path],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == f"error: cannot write output: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


def test_entry_point_runs_no_atexit_callback(demo_path):
    """Teardown is skipped, so a callback registered before the CLI runs
    never runs; the output is flushed first."""
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit ran')\n"
        "sys.argv = ['gainlap', 'balance', sys.argv[1]]\n"
        "runpy.run_module('gainlap.cli', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, demo_path], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "unbalanced\n", "")
