"""Gain distance matrices, Laplacians, and balance analysis for
complex unit gain graphs.

Every public name loads on first use: ``gainlap.is_balanced`` imports
:mod:`gainlap.graphs` and nothing else, so numpy is imported only when a
name from a module that does linear algebra is first read.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The home module of each public name.
_HOME = {
    name: module
    for module, names in {
        "distances": """DEFAULT_PATH_CAP associated_complete_graph gain_distance_matrix
            is_compatible is_ordering_independent shortest_distances transmission_matrix""",
        "documents": """GraphDocument csv_to_matrix emit_graph format_complex matrix_to_csv
            parse_complex parse_graph""",
        "errors": """Disconnected GainLapError NotACycle NotAWalk NotHermitian ParseError
            PathExplosion TooLarge ValidationError ZeroGain""",
        "forests": """DEFAULT_SUBSET_BUDGET OneForest OneTree det_via_forests
            enumerate_spanning_one_forests is_spanning_one_forest spanning_subgraph""",
        "graphs": """GainGraph SwitchingFunction VertexOrdering WeightedGainGraph cycle_gain
            is_balanced normalize_gain path_gain switch unit_weights""",
        "laplacians": """distance_factorization_residual distance_incidence distance_laplacian
            factorization_residual weighted_adjacency weighted_incidence weighted_laplacian""",
        "spectra": """CospectralityReport SingularityReport SwitchingReport
            balance_by_cospectrality balance_by_singularity det_direct hermitian_eigensystem
            hermitian_spectrum is_cospectral max_eigenpair_residual numerical_rank
            switching_similarity_check""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of a public name on its first access and
    keep the value here, so later reads are plain global lookups."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
