"""The public surface of the package."""

import importlib
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
    assert "n" not in gainlap.SingularityReport.__dataclass_fields__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gainlap.no_such_name
    assert not hasattr(gainlap, "GainLapWarning")
