"""The public surface of the package."""

import inspect

import gainlap

PUBLIC_NAMES = [
    "CospectralityReport",
    "DEFAULT_PATH_CAP",
    "DEFAULT_SUBSET_BUDGET",
    "Disconnected",
    "GainGraph",
    "GainLapError",
    "GraphDocument",
    "IncidenceMatrix",
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
    "enumerate_shortest_paths",
    "enumerate_spanning_one_forests",
    "factorization_residual",
    "forest_weight",
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
    "weighted_degree_matrix",
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
    "enumerate_spanning_one_forests": ["budget"],
    "factorization_residual": ["orientation"],
    "normalize_gain": ["strict"],
    "weighted_incidence": ["orientation"],
}

#: Overrides that no caller outside the tests set, each now fixed to its
#: constant; a test that needs another value patches the constant.
REMOVED = {
    "associated_complete_graph": "cap",
    "distance_factorization_residual": "cap",
    "distance_incidence": "cap",
    "distance_laplacian": "cap",
    "enumerate_shortest_paths": "cap",
    "gain_distance_matrix": "cap",
    "hermitian_eigensystem": "tol",
    "hermitian_spectrum": "tol",
    "is_balanced": "tol",
    "is_compatible": "tol",
    "is_cospectral": "tol",
    "is_ordering_independent": "tol",
    "numerical_rank": "tol",
    "enumerate_spanning_one_forests": "vertex_limit",
}


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
    for name, param in REMOVED.items():
        assert param not in inspect.signature(getattr(gainlap, name)).parameters, name
