"""Hermitian spectra and spectral balance criteria.

Three independent routes decide whether a gain graph is balanced: the
potential propagation over a spanning forest (``graphs.BALANCE_TOL``),
singularity and rank of the gain distance Laplacians (the rank cutoff
of :func:`numerical_rank`), and cospectrality of the gain distance
Laplacian with that of the all-gain-1 copy of the graph
(``distances.ENTRY_TOL``, then ``_SPECTRUM_TOL``).  The verdicts agree
outside a band of near-balanced graphs, where each route judges a cycle
gain near 1 against its own tolerance: on C_12 with one gain e^{i 1e-8}
the rank route finds it balanced and the other two do not.  ROADMAP
open item 1 plans one decision for all three.  The reports returned here
carry the raw evidence alongside the verdict.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotHermitian, ValidationError
from .graphs import GainGraph, SwitchingFunction, VertexOrdering, is_balanced, switch
from .graphs import _Record, _require_switching
from .laplacians import distance_laplacian

#: Largest accepted deviation of a matrix from its conjugate transpose.
HERMITIAN_TOL = 1e-12

#: Entrywise tolerance for the similarity check after switching.
SIMILARITY_TOL = 1e-10

#: Relative size below which a determinant, against the product of its
#: row norms, counts as zero.  Ranks use the ``matrix_rank`` cutoff
#: instead (see :func:`numerical_rank`).
SINGULAR_TOL = 1e-8

#: Two spectra agree when their sorted eigenvalues differ entrywise by at
#: most this much times 1 + the largest eigenvalue magnitude.
_SPECTRUM_TOL = 1e-8


def det_direct(M: np.ndarray) -> complex:
    """Determinant through LU with partial pivoting.

    Raises:
        ValidationError: if M is not square or not finite.
    """
    return complex(np.linalg.det(_square(M)))


def numerical_rank(M: np.ndarray) -> int:
    """Number of eigenvalues of a Hermitian matrix larger in magnitude
    than n * eps * max(1, max |eigenvalue|), the ``numpy.linalg.matrix_rank``
    convention.

    Raises:
        ValidationError: if M is not square or not finite.
        NotHermitian: if max |M - M*| exceeds ``HERMITIAN_TOL``.
    """
    vals = hermitian_spectrum(M)
    tol = vals.size * np.finfo(float).eps * max(1.0, _top(vals))
    return int(np.sum(np.abs(vals) > tol))


def _top(spectrum: np.ndarray) -> float:
    """The largest eigenvalue magnitude, 0 for an empty spectrum."""
    return float(np.max(np.abs(spectrum), initial=0.0))


def _square(M: np.ndarray) -> np.ndarray:
    """M as a complex array, once checked square and finite."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValidationError("expected a finite matrix, got a NaN or infinite entry")
    return M


def hermitian_residual(M: np.ndarray) -> float:
    """max |M - M*|, 0 for an empty matrix."""
    M = np.asarray(M, dtype=complex)
    return float(np.max(np.abs(M - M.conj().T), initial=0.0))


def _hermitian(M: np.ndarray) -> np.ndarray:
    """M as a complex array, once checked square and Hermitian."""
    M = _square(M)
    res = hermitian_residual(M)
    if res > HERMITIAN_TOL:
        raise NotHermitian(f"max |M - M*| = {res:.3e} exceeds {HERMITIAN_TOL:.3e}")
    return M


def hermitian_spectrum(M: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Raises:
        ValidationError: if M is not square or not finite.
        NotHermitian: if max |M - M*| exceeds ``HERMITIAN_TOL``.
    """
    return np.linalg.eigvalsh(_hermitian(M))


def hermitian_eigensystem(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)
    of a matrix within ``HERMITIAN_TOL`` of Hermitian."""
    return np.linalg.eigh(_hermitian(M))


def max_eigenpair_residual(M: np.ndarray) -> float:
    """max over eigenpairs of ||M x - lambda x||_2."""
    vals, vecs = hermitian_eigensystem(M)
    R = np.asarray(M, dtype=complex) @ vecs - vecs * vals
    return float(np.max(np.linalg.norm(R, axis=0), initial=0.0))


def _spectrum_gap(A: np.ndarray, B: np.ndarray) -> tuple[float, bool]:
    """max |sorted spectrum of A - that of B| (0 when empty), and whether
    it is within _SPECTRUM_TOL * (1 + max |eigenvalue of A|)."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValidationError(f"dimension mismatch: {A.shape} vs {B.shape}")
    sa = hermitian_spectrum(A)
    sb = hermitian_spectrum(B)
    gap = float(np.max(np.abs(sa - sb), initial=0.0))
    return gap, gap <= _SPECTRUM_TOL * (1.0 + _top(sa))


def is_cospectral(A: np.ndarray, B: np.ndarray) -> bool:
    """Whether two Hermitian matrices share their sorted spectra
    entrywise, within _SPECTRUM_TOL * (1 + max |eigenvalue of A|)."""
    return _spectrum_gap(A, B)[1]


def _log_singularity_threshold(M: np.ndarray) -> float:
    """log of SINGULAR_TOL times the product over rows of max(1, row
    norm): log|det M| at or below it counts as zero."""
    norms = np.linalg.norm(np.asarray(M, dtype=complex), axis=1)
    return math.log(SINGULAR_TOL) + float(np.sum(np.log(np.maximum(norms, 1.0))))


# --- balance verdicts ----------------------------------------------------


class SingularityReport(_Record):
    """Dets and ranks of both gain distance Laplacians.

    The verdict is rank-based (rank n-1 in both modes means balanced).
    The determinants and their singularity thresholds are recorded so
    callers can see how far from singular each mode is; ``det_*`` and
    ``threshold_*`` are inf where they overflow, and the ``log_*`` fields
    hold the same quantities in the log domain, where they do not.
    """

    det_max: float
    det_min: float
    threshold_max: float
    threshold_min: float
    rank_max: int
    rank_min: int
    balanced: bool
    matches_potential: bool
    log_det_max: float
    log_det_min: float
    log_threshold_max: float
    log_threshold_min: float


def balance_by_singularity(g: GainGraph, ordering: VertexOrdering) -> SingularityReport:
    fields: dict = {}
    for mode in ("max", "min"):
        DL = distance_laplacian(g, ordering, mode)
        sign, log_det = np.linalg.slogdet(DL)  # log_det is -inf when DL is exactly singular
        log_threshold = _log_singularity_threshold(DL)
        with np.errstate(over="ignore"):
            fields[f"det_{mode}"] = float((sign * np.exp(log_det)).real)
            fields[f"threshold_{mode}"] = float(np.exp(log_threshold))
        fields[f"log_det_{mode}"] = float(log_det)
        fields[f"log_threshold_{mode}"] = log_threshold
        fields[f"rank_{mode}"] = numerical_rank(DL)
    balanced = fields["rank_max"] == g.n - 1 and fields["rank_min"] == g.n - 1
    return SingularityReport(
        balanced=balanced, matches_potential=balanced == is_balanced(g), **fields
    )


class CospectralityReport(_Record):
    """Whether the two gain distance Laplacians coincide and share their
    spectrum with the all-gain-1 copy of the graph."""

    laplacians_match: bool
    cospectral_with_underlying: bool
    balanced: bool
    matches_potential: bool


def balance_by_cospectrality(
    g: GainGraph, ordering: VertexOrdering
) -> CospectralityReport:
    """Balanced when both gain distance Laplacians coincide and DL max is
    cospectral with that of the all-gain-1 copy.  A fresh graph walks
    only its ordering's half, which every call here reads, and
    ``PathExplosion`` is raised exactly when that half passes the cap."""
    from .distances import is_compatible, shortest_distances, transmission_matrix

    dl_max = distance_laplacian(g, ordering, "max")
    # The Laplacians match exactly when the gain distance matrices do:
    # DLmax - DLmin is -(Dmax - Dmin) bit for bit, the transmissions cancel.
    match = is_compatible(g, ordering)
    # The all-gain-1 copy has gain 1 on every geodesic, so its distance
    # Laplacian (in either mode, under any ordering) is read off the hop
    # distances of g's own geodesic table.
    dl_plain = transmission_matrix(g) - shortest_distances(g)
    cosp = is_cospectral(dl_max, dl_plain)
    balanced = match and cosp
    return CospectralityReport(
        laplacians_match=match,
        cospectral_with_underlying=cosp,
        balanced=balanced,
        matches_potential=balanced == is_balanced(g),
    )


# --- switching similarity ------------------------------------------------


class SwitchingReport(_Record):
    """Outcome of the switching similarity check.

    When the hypothesis (compatible and ordering independent) fails the
    check reports that and judges nothing else.
    """

    hypothesis_met: bool
    switched_compatible: bool | None = None
    similarity_residual: float | None = None
    spectra_match: bool | None = None
    spectrum_gap: float | None = None


def switching_similarity_check(
    g: GainGraph, ordering: VertexOrdering, xi: SwitchingFunction
) -> SwitchingReport:
    """Verify that switching conjugates the common gain distance matrix
    by S = diag(xi): D(switched) = S^(-1) D S, entry (u, v) picking up
    xi(u)^(-1) ... xi(v).  Also checks that compatibility survives the
    switch and that the distance Laplacian spectra agree.  A fresh g
    and the switched graph each walk only the ordering's half, which
    every call on them reads.
    """
    from .distances import gain_distance_matrix, is_compatible, is_ordering_independent

    _require_switching(g, xi)
    if not (is_compatible(g, ordering) and is_ordering_independent(g, ordering)):
        return SwitchingReport(hypothesis_met=False)
    gx = switch(g, xi)
    Dx = gain_distance_matrix(gx, ordering, "max")
    switched_compatible = is_compatible(gx, ordering)
    D = gain_distance_matrix(g, ordering, "max")
    s = np.array(xi.values, dtype=complex)
    target = D * np.outer(s.conjugate(), s)  # (S^-1 D S)_{uv} = conj(xi_u) D_{uv} xi_v
    residual = float(np.max(np.abs(Dx - target)))
    gap, agree = _spectrum_gap(*(distance_laplacian(h, ordering, "max") for h in (g, gx)))
    return SwitchingReport(
        hypothesis_met=True,
        switched_compatible=switched_compatible,
        similarity_residual=residual,
        spectra_match=agree,
        spectrum_gap=gap,
    )
