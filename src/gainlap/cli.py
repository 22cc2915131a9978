"""Command line interface.

Subcommands emit matrices as CSV of 'a+bi' cells, spectra one
eigenvalue per line, and single-token answers for determinant, rank,
and balance queries.  ``rank`` prints n - b, b the balanced components,
from the potential check that ``balance`` runs (``graphs.BALANCE_TOL``),
so the two always agree.  ``verify`` re-derives one of the supported
identities on the given graph and reports PASS or FAIL with the
largest residual observed.

Exit codes: 0 success (or PASS), 1 usage or input errors, or output
that cannot be written, 2 a verified identity failed, 3 an exceeded cap
or budget: a ``TooLarge``, of which ``PathExplosion`` is one.  The error's
type alone picks 1 or 3.

``main``, the process entry point, flushes stdout and stderr and ends
the process with ``os._exit``: no interpreter teardown and no ``atexit``
callbacks.  In-process callers use ``run``, which returns the exit code.

Handlers call the library as ``gainlap.<name>``, so the lazy package
namespace is the one import-on-demand mechanism: a module loads at the
first call into it.  ``dmatrix``, ``dlaplacian``, ``balance``, ``rank``,
``det --method forests``, usage errors, documents that do not parse or
validate, and a ``verify`` row that refuses its input before it calls a
module that does linear algebra run without numpy.  ``dmatrix`` and
``dlaplacian`` print D and DL from ``distances._distance_rows``, which
forms their cells from the rows of the geodesic walk, through
``documents._hermitian_rows``, with the bytes of ``matrix_to_csv`` of
the library's matrices.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence

import gainlap

from .documents import GraphDocument, _csv_rows, _hermitian_rows, parse_graph
from .errors import GainLapError, ParseError, TooLarge, ValidationError
from .graphs import _component_balance, _require_connected

#: Acceptance bounds of ``verify``: the residual of L = H H* (theorems 1
#: and 7), and the relative gap of det L by LU to its closed form on a
#: cycle (theorem 2) and to the spanning 1-forest sum (theorem 3).
_FACTORIZATION_TOL = 1e-12
_CYCLE_DET_TOL = 1e-9
_FOREST_DET_TOL = 1e-7


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2)
        raise ValidationError(message)


def _read_document(path: str) -> GraphDocument:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_graph(data)


def _env_budget() -> int | None:
    raw = os.environ.get("GAINLAP_BUDGET")
    if raw is None:
        return None
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValidationError(f"GAINLAP_BUDGET: expected a positive integer, got {raw!r}")
    return budget


def _ordering(doc: GraphDocument, reverse: bool):
    ordering = doc.vertex_ordering()
    return ordering.reverse() if reverse else ordering


def _print_csv(M) -> None:
    """Print ``matrix_to_csv(M)`` a line at a time, so the whole text is
    never held: an r x 0 matrix prints r empty lines."""
    for line in _csv_rows(M):
        print(line)


# --- subcommand handlers: (document, arguments) -> exit code -------------


def _cmd_distance(doc: GraphDocument, args: argparse.Namespace) -> int:
    # D or DL from the rows of the geodesic walk: no numpy loads.
    from .distances import _distance_rows

    laplacian = args.command == "dlaplacian"
    rows = _distance_rows(doc.gain_graph(), _ordering(doc, args.reverse), args.mode, laplacian)
    for line in _hermitian_rows(doc.n, rows):
        print(line)
    return 0


def _cmd_incidence(doc: GraphDocument, args: argparse.Namespace) -> int:
    if args.distance:
        H = gainlap.distance_incidence(doc.gain_graph(), _ordering(doc, args.reverse), args.mode)
    else:
        H = gainlap.weighted_incidence(doc.weighted_graph())
    _print_csv(H)
    return 0


def _cmd_spectrum(doc: GraphDocument, args: argparse.Namespace) -> int:
    if args.target == "adj":
        M = gainlap.weighted_adjacency(doc.weighted_graph())
    elif args.target == "lap":
        M = gainlap.weighted_laplacian(doc.weighted_graph())
    else:
        mode = "max" if args.target == "dlmax" else "min"
        M = gainlap.distance_laplacian(doc.gain_graph(), _ordering(doc, args.reverse), mode)
    for value in gainlap.hermitian_spectrum(M):
        print(f"{value:.17g}")
    return 0


def _cmd_det(doc: GraphDocument, args: argparse.Namespace) -> int:
    wg = doc.weighted_graph()
    if args.method == "lu":
        value = gainlap.det_direct(gainlap.weighted_laplacian(wg)).real
    else:
        value = gainlap.det_via_forests(wg, budget=_env_budget())
    print(f"{value:.17g}")
    return 0


def _cmd_rank(doc: GraphDocument, args: argparse.Namespace) -> int:
    # rank L = n - b for positive weights, b the balanced components
    # (Zaslavsky); the weights are read only to be checked.
    g = doc.weighted_graph().base
    print(g.n - sum(_component_balance(g).values()))
    return 0


def _cmd_balance(doc: GraphDocument, args: argparse.Namespace) -> int:
    print("balanced" if gainlap.is_balanced(doc.gain_graph()) else "unbalanced")
    return 0


# --- verify: one row per theorem, (document, seed) -> (ok, residual, note) --

_Verdict = tuple[bool, float, "str | None"]


def _spanning_cycle(g: gainlap.GainGraph) -> tuple[int, ...]:
    """Vertex sequence of the graph when it is one spanning cycle, from
    vertex 1 toward its smaller neighbor."""
    from .forests import _one_forest_components

    comps = _one_forest_components(g.n, g.edge_pairs()) if g.m == g.n else None
    if comps is None or len(comps) != 1 or len(comps[0].cycle) != g.n:
        raise ValidationError("this check needs a graph that is a single cycle")
    return comps[0].cycle


def _theorem_1(doc: GraphDocument, seed: int) -> _Verdict:
    """L = H H* for the weighted incidence, as stored and re-oriented."""
    import numpy as np

    wg, rng = doc.weighted_graph(), np.random.default_rng(seed)
    flipped = tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v, _ in wg.base.edges)
    residual = max(gainlap.factorization_residual(wg), gainlap.factorization_residual(wg, flipped))
    return residual <= _FACTORIZATION_TOL, residual, None


def _theorem_2(doc: GraphDocument, seed: int) -> _Verdict:
    """det L of a cycle = |1 - cycle gain|^2 times the weights."""
    from .forests import _cycle_factor

    wg = doc.weighted_graph()
    closed = _cycle_factor(gainlap.cycle_gain(wg.base, _spanning_cycle(wg.base)))
    for w in wg.weights:
        closed *= w
    lu = gainlap.det_direct(gainlap.weighted_laplacian(wg)).real
    residual = abs(lu - closed) / max(1.0, abs(closed))
    return residual <= _CYCLE_DET_TOL, residual, None


def _theorem_3(doc: GraphDocument, seed: int) -> _Verdict:
    """det L by LU = the sum over spanning 1-forests."""
    wg = doc.weighted_graph()
    by_forests = gainlap.det_via_forests(wg, budget=_env_budget())
    lu = gainlap.det_direct(gainlap.weighted_laplacian(wg)).real
    residual = abs(by_forests - lu) / max(1.0, abs(lu))
    return residual <= _FOREST_DET_TOL, residual, None


def _theorem_6(doc: GraphDocument, seed: int) -> _Verdict:
    """L of a connected graph is singular exactly when it is balanced."""
    g = doc.gain_graph()
    L = gainlap.weighted_laplacian(doc.weighted_graph())
    singular = gainlap.numerical_rank(L) < g.n
    return gainlap.is_balanced(g) == singular, abs(gainlap.det_direct(L)), None


def _theorem_7(doc: GraphDocument, seed: int) -> _Verdict:
    """DL = H H* in both modes, for the ordering and its reverse."""
    from .distances import _geodesic_table

    g, ordering = doc.gain_graph(), doc.vertex_ordering()
    _geodesic_table(g)  # both orderings read it: one full walk, not a half and then the full one
    residual = max(
        gainlap.distance_factorization_residual(g, o, mode)
        for o in (ordering, ordering.reverse())
        for mode in ("max", "min")
    )
    return residual <= _FACTORIZATION_TOL, residual, None


def _theorem_11(doc: GraphDocument, seed: int) -> _Verdict:
    """Both distance Laplacians have rank n-1 when balanced, n otherwise."""
    g = doc.gain_graph()
    rep = gainlap.balance_by_singularity(g, doc.vertex_ordering())
    if gainlap.is_balanced(g):
        return rep.balanced, max(abs(rep.det_max), abs(rep.det_min)), None
    return rep.rank_max == g.n and rep.rank_min == g.n, 0.0, None


def _theorem_12(doc: GraphDocument, seed: int) -> _Verdict:
    """A random switching of a compatible, ordering-independent graph
    keeps it compatible, its distance Laplacian similar and cospectral."""
    import numpy as np

    from .spectra import SIMILARITY_TOL

    g, rng = doc.gain_graph(), np.random.default_rng(seed)
    xi = gainlap.SwitchingFunction(tuple(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=g.n))))
    rep = gainlap.switching_similarity_check(g, doc.vertex_ordering(), xi)
    if not rep.hypothesis_met:
        return True, 0.0, "hypothesis not met (not compatible and ordering independent); nothing to judge"
    ok = bool(
        rep.switched_compatible
        and rep.similarity_residual <= SIMILARITY_TOL
        and rep.spectra_match
    )
    return ok, max(rep.similarity_residual, rep.spectrum_gap), None


def _theorem_13(doc: GraphDocument, seed: int) -> _Verdict:
    """DL is cospectral with that of the all-gain-1 copy exactly when
    the graph is balanced."""
    rep = gainlap.balance_by_cospectrality(doc.gain_graph(), doc.vertex_ordering())
    return rep.matches_potential, 0.0, None


_THEOREMS = {
    1: _theorem_1, 2: _theorem_2, 3: _theorem_3, 6: _theorem_6,
    7: _theorem_7, 11: _theorem_11, 12: _theorem_12, 13: _theorem_13,
}

#: The theorems stated for connected graphs (theorem 3 holds on any):
#: ``_verify`` refuses others (exit 1) before the row runs, loading no numpy.
_CONNECTED_ONLY = frozenset({6, 7, 11, 12, 13})


def _verify(doc: GraphDocument, theorem: int, seed: int) -> _Verdict:
    if theorem in _CONNECTED_ONLY:
        _require_connected(doc.gain_graph())
    return _THEOREMS[theorem](doc, seed)


def _cmd_verify(doc: GraphDocument, args: argparse.Namespace) -> int:
    ok, residual, note = _verify(doc, args.theorem, args.seed)
    line = f"{'PASS' if ok else 'FAIL'} theorem={args.theorem} max_residual={residual:.3e}"
    if note:
        line += f" ({note})"
    print(line)
    return 0 if ok else 2


# --- parser --------------------------------------------------------------


def _seed(text: str) -> int:
    """The ``--seed`` value: a non-negative integer, as numpy's
    ``default_rng`` takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gainlap", description="gain graph matrix toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *options, reverse: str | None = None) -> None:
        """A subcommand with ``options`` ((flag, keywords) pairs), then
        ``--reverse`` when ``reverse`` gives its help, then the file."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        if reverse is not None:
            p.add_argument("--reverse", action="store_true", help=reverse)
        p.add_argument("file")

    mode = ("--mode", {"choices": ("max", "min"), "required": True})
    reverse = "reverse the vertex ordering"
    add("dmatrix", _cmd_distance, "gain distance matrix as CSV", mode, reverse=reverse)
    add("dlaplacian", _cmd_distance, "gain distance Laplacian as CSV", mode, reverse=reverse)
    add(
        "incidence", _cmd_incidence, "incidence matrix as CSV",
        ("--distance", {"action": "store_true", "help": "incidence of the associated complete graph"}),
        ("--mode", {"choices": ("max", "min"), "default": "max"}),
        reverse=reverse,
    )
    add(
        "spectrum", _cmd_spectrum, "eigenvalues, ascending, one per line",
        ("--target", {"choices": ("dlmax", "dlmin", "adj", "lap"), "required": True}),
        reverse=f"{reverse} (dlmax, dlmin)",
    )
    add(
        "det", _cmd_det, "determinant of the weighted Laplacian",
        ("--method", {"choices": ("lu", "forests"), "required": True}),
    )
    add("rank", _cmd_rank, "rank of L: n minus the balanced components")
    add("balance", _cmd_balance, "print 'balanced' or 'unbalanced'")
    add(
        "verify", _cmd_verify, "re-derive an identity on the input graph",
        ("--theorem", {"type": int, "choices": tuple(_THEOREMS), "required": True}),
        ("--seed", {"type": _seed, "default": 0}),
    )
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(_read_document(args.file), args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except GainLapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, TooLarge) else 1


def main() -> None:
    # One BLAS thread unless the environment sets another count, before
    # numpy first loads and reads it: the eigensolvers then sum in one
    # order and print the same bytes on any machine.  ``run`` leaves the
    # environment of in-process callers alone.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        code = run()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with it closed
                stream.flush()
    except OSError as exc:
        # A write to a closed pipe or a full device: the one file ``run``
        # reads is opened in ``_read_document``, which reports its errors.
        code = 1
        if sys.stderr is not None:
            with contextlib.suppress(OSError):
                print(f"error: cannot write output: {exc}", file=sys.stderr, flush=True)
    # Every byte is out, so end here.  Interpreter teardown (module and GC
    # finalization, 15-30 ms once numpy has loaded; README "Start-up")
    # would only add time, and ``atexit`` callbacks, none of them gainlap's.
    os._exit(code)


if __name__ == "__main__":
    main()
