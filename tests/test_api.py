"""The public surface of the package."""

import importlib
import math
import inspect

import pytest

import gainlap

PUBLIC_NAMES = [
    "CospectralityReport",
    "DEFAULT_PATH_CAP",
    "DEFAULT_SUBSET_BUDGET",
    "Disconnected",
    "GainGraph",
    "GainLapError",
    "GraphDocument",
    "NotACycle",
    "NotAWalk",
    "NotHermitian",
    "OneForest",
    "OneTree",
    "ParseError",
    "PathExplosion",
    "SingularityReport",
    "SwitchingFunction",
    "SwitchingReport",
    "TooLarge",
    "ValidationError",
    "VertexOrdering",
    "WeightedGainGraph",
    "ZeroGain",
    "associated_complete_graph",
    "balance_by_cospectrality",
    "balance_by_singularity",
    "csv_to_matrix",
    "cycle_gain",
    "det_direct",
    "det_via_forests",
    "distance_factorization_residual",
    "distance_incidence",
    "distance_laplacian",
    "emit_graph",
    "enumerate_spanning_one_forests",
    "factorization_residual",
    "format_complex",
    "gain_distance_matrix",
    "hermitian_eigensystem",
    "hermitian_spectrum",
    "is_balanced",
    "is_compatible",
    "is_cospectral",
    "is_ordering_independent",
    "is_spanning_one_forest",
    "matrix_to_csv",
    "max_eigenpair_residual",
    "normalize_gain",
    "numerical_rank",
    "parse_complex",
    "parse_graph",
    "path_gain",
    "shortest_distances",
    "spanning_subgraph",
    "switch",
    "switching_similarity_check",
    "transmission_matrix",
    "unit_weights",
    "weighted_adjacency",
    "weighted_incidence",
    "weighted_laplacian",
]


def test_public_names_are_pinned():
    """A new public name is a deliberate edit of this list."""
    assert gainlap.__all__ == PUBLIC_NAMES
    assert all(hasattr(gainlap, name) for name in PUBLIC_NAMES)


#: The per-call overrides of public functions: every other tolerance,
#: cap and limit is read from its module constant.
OVERRIDES = {
    "det_via_forests": ["budget"],
    "factorization_residual": ["orientation"],
    "normalize_gain": ["strict"],
}

#: Overrides that no caller outside the tests set, each now fixed to its
#: constant or, for ``orientation``, to the stored u < v orientation; a
#: test that needs another value patches the constant.
REMOVED = (
    ("associated_complete_graph", "cap"),
    ("distance_factorization_residual", "cap"),
    ("distance_incidence", "cap"),
    ("distance_laplacian", "cap"),
    ("gain_distance_matrix", "cap"),
    ("hermitian_eigensystem", "tol"),
    ("hermitian_spectrum", "tol"),
    ("is_balanced", "tol"),
    ("is_compatible", "tol"),
    ("is_cospectral", "tol"),
    ("is_ordering_independent", "tol"),
    ("numerical_rank", "tol"),
    ("enumerate_spanning_one_forests", "vertex_limit"),
    ("enumerate_spanning_one_forests", "budget"),
    ("weighted_incidence", "orientation"),
)


def test_only_the_kept_overrides_remain():
    """A parameter with a default on a public function is an override."""
    found = {}
    for name in PUBLIC_NAMES:
        obj = getattr(gainlap, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            defaulted = [p.name for p in params if p.default is not inspect.Parameter.empty]
            if defaulted:
                found[name] = defaulted
    assert found == OVERRIDES
    for name, param in REMOVED:
        assert param not in inspect.signature(getattr(gainlap, name)).parameters, name


def test_each_name_is_its_home_modules_object():
    """The package loads a name on first use; it must hand back the very
    object its home module defines, not a copy."""
    for name in PUBLIC_NAMES:
        home = importlib.import_module(f"gainlap.{gainlap._HOME[name]}")
        assert getattr(gainlap, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from gainlap import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(gainlap))


#: Public names that nothing in the library, the benchmark or the CLI
#: called.  The tests list shortest paths with
#: ``conftest.brute_shortest_paths`` and weigh forests with
#: ``conftest.forest_weight``; both incidences return the bare array, as
#: nothing read ``IncidenceMatrix.oriented_edges``.
GONE = ["enumerate_shortest_paths", "forest_weight", "IncidenceMatrix"]


@pytest.mark.parametrize("name", GONE)
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError, match=name):
        getattr(gainlap, name)
    assert name not in dir(gainlap) and name not in gainlap.__all__


def test_removed_methods_are_gone():
    """GainGraph.neighbors and .underlying, WeightedGainGraph.weight and
    SwitchingFunction.identity had only test readers; SingularityReport.n
    had none."""
    for cls in (gainlap.GainGraph, gainlap.WeightedGainGraph, gainlap.SwitchingFunction):
        for name in ("neighbors", "underlying", "weight", "identity"):
            assert not hasattr(cls, name), (cls.__name__, name)
    assert "n" not in gainlap.SingularityReport._fields


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gainlap.no_such_name
    assert not hasattr(gainlap, "GainLapWarning")


# --- records -------------------------------------------------------------

_G = ((1, 2, 1j), (2, 3, -1), (1, 3, complex(0.6, 0.8)))
_DOC = '{"n": 2, "edges": [{"u": 1, "v": 2, "gain": {"re": 0, "im": -1}}], "weights": [0.5], "ordering": [2, 1]}'
_TREE = (frozenset({1, 2, 3}), (1, 2, 3))
_SINGULAR = (0.0, -1.5, math.inf, 2e-8, 2, 3, False, True, -math.inf, 0.4, 710.5, -18.4)


def _forest(gains=_G):
    (forest,) = gainlap.enumerate_spanning_one_forests(gainlap.unit_weights(gainlap.GainGraph(3, gains)))
    return forest


#: Per record class: a builder, a builder of an unequal value, and the
#: repr of the first, as the frozen dataclasses these classes once were
#: printed it.
RECORDS = {
    "GainGraph": (
        lambda: gainlap.GainGraph(3, _G),
        lambda: gainlap.GainGraph(3, _G[:2]),
        "GainGraph(n=3, edges=((1, 2, 1j), (2, 3, (-1+0j)), (1, 3, (0.6+0.8j))))",
    ),
    "WeightedGainGraph": (
        lambda: gainlap.WeightedGainGraph(gainlap.GainGraph(3, _G), (1, 2.5, 3)),
        lambda: gainlap.WeightedGainGraph(gainlap.GainGraph(3, _G), (1, 2.5, 4)),
        "WeightedGainGraph(base=GainGraph(n=3, edges=((1, 2, 1j), (2, 3, (-1+0j)), (1, 3, (0.6+0.8j)))),"
        " weights=(1.0, 2.5, 3.0))",
    ),
    "VertexOrdering": (
        lambda: gainlap.VertexOrdering((2, 1, 3)),
        lambda: gainlap.VertexOrdering((1, 2, 3)),
        "VertexOrdering(ranks=(2, 1, 3))",
    ),
    "SwitchingFunction": (
        lambda: gainlap.SwitchingFunction((1j, -1, 1)),
        lambda: gainlap.SwitchingFunction((1j, -1, -1)),
        "SwitchingFunction(values=(1j, (-1+0j), (1+0j)))",
    ),
    "GraphDocument": (
        lambda: gainlap.parse_graph(_DOC),
        lambda: gainlap.parse_graph(_DOC.replace("0.5", "0.25")),
        "GraphDocument(n=2, edges=((1, 2, -1j),), weights=(0.5,), ordering=(2, 1))",
    ),
    "GraphDocument-defaults": (
        lambda: gainlap.GraphDocument(2, ((1, 2, 1j),)),
        lambda: gainlap.GraphDocument(2, ((1, 2, 1j),), ordering=(2, 1)),
        "GraphDocument(n=2, edges=((1, 2, 1j),), weights=None, ordering=None)",
    ),
    "OneTree": (
        lambda: gainlap.OneTree(*_TREE),
        lambda: gainlap.OneTree(_TREE[0], (1, 3, 2)),
        "OneTree(vertices=frozenset({1, 2, 3}), cycle=(1, 2, 3))",
    ),
    "OneForest": (
        _forest,
        lambda: _forest(((1, 2, 1j), (2, 3, -1), (1, 3, -1))).components[0],  # another class
        "OneForest(edges=((1, 2), (2, 3), (1, 3)),"
        " components=(OneTree(vertices=frozenset({1, 2, 3}), cycle=(1, 2, 3)),))",
    ),
    "SingularityReport": (
        lambda: gainlap.SingularityReport(*_SINGULAR),
        lambda: gainlap.SingularityReport(*_SINGULAR[:-1], -18.5),
        "SingularityReport(det_max=0.0, det_min=-1.5, threshold_max=inf, threshold_min=2e-08,"
        " rank_max=2, rank_min=3, balanced=False, matches_potential=True, log_det_max=-inf,"
        " log_det_min=0.4, log_threshold_max=710.5, log_threshold_min=-18.4)",
    ),
    "CospectralityReport": (
        lambda: gainlap.CospectralityReport(True, False, False, True),
        lambda: gainlap.CospectralityReport(True, False, False, False),
        "CospectralityReport(laplacians_match=True, cospectral_with_underlying=False,"
        " balanced=False, matches_potential=True)",
    ),
    "SwitchingReport-defaults": (
        lambda: gainlap.SwitchingReport(hypothesis_met=False),
        lambda: gainlap.SwitchingReport(hypothesis_met=True),
        "SwitchingReport(hypothesis_met=False, switched_compatible=None, similarity_residual=None,"
        " spectra_match=None, spectrum_gap=None)",
    ),
    "SwitchingReport": (
        lambda: gainlap.SwitchingReport(True, True, 1e-16, True, 2.5e-15),
        lambda: gainlap.SwitchingReport(True, True, 1e-16, True, 2.5e-14),
        "SwitchingReport(hypothesis_met=True, switched_compatible=True, similarity_residual=1e-16,"
        " spectra_match=True, spectrum_gap=2.5e-15)",
    ),
}

each_record = pytest.mark.parametrize("case", list(RECORDS))


@each_record
def test_record_repr(case):
    make, _, shown = RECORDS[case]
    assert repr(make()) == shown


@each_record
def test_record_equality_and_hash(case):
    make, make_other, _ = RECORDS[case]
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other and hash(a) != hash(other)
    assert a != tuple(getattr(a, f) for f in a._fields)  # records equal only their own class


@each_record
def test_record_refuses_assignment(case):
    record = RECORDS[case][0]()
    for name in (*record._fields, "extra"):
        before = vars(record).get(name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert vars(record).get(name) is before


def test_record_constructors_take_fields_by_position_keyword_or_default():
    doc = gainlap.GraphDocument(2, ((1, 2, 1j),))
    assert doc == gainlap.GraphDocument(edges=((1, 2, 1j),), n=2, weights=None)
    assert doc == gainlap.GraphDocument(2, ((1, 2, 1j),), None, None)
    assert gainlap.OneTree(*_TREE) == gainlap.OneTree(cycle=_TREE[1], vertices=_TREE[0])
    assert gainlap.GainGraph(edges=_G, n=3) == gainlap.GainGraph(3, _G)
    for bad in (
        lambda: gainlap.GraphDocument(2),  # edges missing
        lambda: gainlap.GraphDocument(2, (), None, None, None),  # one too many
        lambda: gainlap.GraphDocument(2, (), n=2),  # n twice
        lambda: gainlap.SwitchingReport(hypothesis_met=True, gap=0.0),  # no such field
        lambda: gainlap.OneTree(frozenset()),
    ):
        with pytest.raises(TypeError):
            bad()


def test_cached_property_on_a_record():
    """A cached value lives beside the fields and changes no comparison."""
    g, h = gainlap.GainGraph(3, _G), gainlap.GainGraph(3, _G)
    assert g._neighbors is g._neighbors and "_neighbors" in vars(g)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
