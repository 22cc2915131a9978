"""Command line interface.

Subcommands emit matrices as CSV of 'a+bi' cells, spectra one
eigenvalue per line, and single-token answers for determinant, rank,
and balance queries.  ``verify`` re-derives one of the supported
identities on the given graph and reports PASS or FAIL with the
largest residual observed.

Exit codes: 0 success (or PASS), 1 usage or input errors, 2 a verified
identity failed, 3 an enumeration exceeded its cap or budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

from .distances import gain_distance_matrix
from .documents import GraphDocument, matrix_to_csv, parse_graph
from .errors import GainLapError, ParseError, PathExplosion, TooLarge, ValidationError
from .forests import det_via_forests
from .graphs import SwitchingFunction, cycle_gain, is_balanced
from .laplacians import (
    distance_factorization_residual,
    distance_incidence,
    distance_laplacian,
    factorization_residual,
    weighted_adjacency,
    weighted_incidence,
    weighted_laplacian,
)
from .spectra import (
    SIMILARITY_TOL,
    balance_by_cospectrality,
    balance_by_singularity,
    det_direct,
    hermitian_spectrum,
    numerical_rank,
    switching_similarity_check,
)

VERIFY_CHOICES = (1, 2, 3, 6, 7, 11, 12, 13)

#: Acceptance bounds of ``verify``: the residual of L = H H* (theorems 1
#: and 7), and the relative gap of det L by LU to its closed form on a
#: cycle (theorem 2) and to the spanning 1-forest sum (theorem 3).
_FACTORIZATION_TOL = 1e-12
_CYCLE_DET_TOL = 1e-9
_FOREST_DET_TOL = 1e-7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2)
        raise _UsageError(message)


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
        return int(raw)
    except ValueError:
        raise ValidationError(f"GAINLAP_BUDGET: expected an integer, got {raw!r}") from None


def _ordering(doc: GraphDocument, reverse: bool):
    ordering = doc.vertex_ordering()
    return ordering.reverse() if reverse else ordering


# --- subcommand handlers -------------------------------------------------


def _cmd_dmatrix(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    D = gain_distance_matrix(doc.gain_graph(), _ordering(doc, args.reverse), args.mode)
    print(matrix_to_csv(D))
    return 0


def _cmd_dlaplacian(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    DL = distance_laplacian(doc.gain_graph(), _ordering(doc, args.reverse), args.mode)
    print(matrix_to_csv(DL))
    return 0


def _cmd_incidence(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    if args.distance:
        inc = distance_incidence(doc.gain_graph(), _ordering(doc, args.reverse), args.mode)
    else:
        inc = weighted_incidence(doc.weighted_graph())
    print(matrix_to_csv(inc.matrix))
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    if args.target == "adj":
        M = weighted_adjacency(doc.weighted_graph())
    elif args.target == "lap":
        M = weighted_laplacian(doc.weighted_graph())
    else:
        mode = "max" if args.target == "dlmax" else "min"
        M = distance_laplacian(doc.gain_graph(), _ordering(doc, args.reverse), mode)
    for value in hermitian_spectrum(M):
        print(f"{value:.17g}")
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    wg = doc.weighted_graph()
    if args.method == "lu":
        value = det_direct(weighted_laplacian(wg)).real
    else:
        value = det_via_forests(wg, budget=_env_budget())
    print(f"{value:.17g}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    print(numerical_rank(weighted_laplacian(doc.weighted_graph())))
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    print("balanced" if is_balanced(doc.gain_graph()) else "unbalanced")
    return 0


# --- verify --------------------------------------------------------------


def _spanning_cycle(doc: GraphDocument) -> list[int]:
    """Vertex sequence of the graph when it is one spanning cycle."""
    g = doc.gain_graph()
    if g.n < 3 or g.m != g.n or any(len(g.neighbors(v)) != 2 for v in range(1, g.n + 1)):
        raise ValidationError("this check needs a graph that is a single cycle")
    seq = [1, min(g.neighbors(1))]
    while True:
        nxt = next(w for w in g.neighbors(seq[-1]) if w != seq[-2])
        if nxt == 1:
            break
        seq.append(nxt)
    if len(seq) != g.n:
        raise ValidationError("this check needs a graph that is a single cycle")
    return seq


def _verify(doc: GraphDocument, theorem: int, seed: int) -> tuple[bool, float, str | None]:
    g = doc.gain_graph()
    wg = doc.weighted_graph()
    ordering = doc.vertex_ordering()
    rng = np.random.default_rng(seed)

    if theorem == 1:
        flipped = tuple(
            (u, v) if rng.random() < 0.5 else (v, u) for u, v, _ in wg.base.edges
        )
        residual = max(factorization_residual(wg), factorization_residual(wg, flipped))
        return residual <= _FACTORIZATION_TOL, residual, None

    if theorem == 2:
        cycle = _spanning_cycle(doc)
        closed = 2.0 * (1.0 - cycle_gain(g, cycle).real)
        for w in wg.weights:
            closed *= w
        lu = det_direct(weighted_laplacian(wg)).real
        residual = abs(lu - closed) / max(1.0, abs(closed))
        return residual <= _CYCLE_DET_TOL, residual, None

    if theorem == 3:
        by_forests = det_via_forests(wg, budget=_env_budget())
        lu = det_direct(weighted_laplacian(wg)).real
        residual = abs(by_forests - lu) / max(1.0, abs(lu))
        return residual <= _FOREST_DET_TOL, residual, None

    if theorem == 6:
        L = weighted_laplacian(wg)
        singular = numerical_rank(L) < g.n
        return is_balanced(g) == singular, abs(det_direct(L)), None

    if theorem == 7:
        residual = max(
            distance_factorization_residual(g, o, mode)
            for o in (ordering, ordering.reverse())
            for mode in ("max", "min")
        )
        return residual <= _FACTORIZATION_TOL, residual, None

    if theorem == 11:
        rep = balance_by_singularity(g, ordering)
        below = (
            rep.log_det_max <= rep.log_threshold_max,
            rep.log_det_min <= rep.log_threshold_min,
        )
        if is_balanced(g):
            ok = rep.balanced and all(below)
            residual = max(abs(rep.det_max), abs(rep.det_min))
        else:
            ok = rep.rank_max == g.n and rep.rank_min == g.n and not any(below)
            residual = 0.0
        return ok, residual, None

    if theorem == 12:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=g.n)
        xi = SwitchingFunction(tuple(np.exp(1j * angles)))
        rep = switching_similarity_check(g, ordering, xi)
        if not rep.hypothesis_met:
            return True, 0.0, "hypothesis not met (not compatible and ordering independent); nothing to judge"
        ok = bool(
            rep.switched_compatible
            and rep.similarity_residual <= SIMILARITY_TOL
            and rep.spectra_match
        )
        return ok, max(rep.similarity_residual, rep.spectrum_gap), None

    if theorem == 13:
        rep = balance_by_cospectrality(g, ordering)
        return rep.matches_potential, 0.0, None

    raise ValidationError(f"--theorem: expected one of {VERIFY_CHOICES}, got {theorem}")


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    ok, residual, note = _verify(doc, args.theorem, args.seed)
    line = f"{'PASS' if ok else 'FAIL'} theorem={args.theorem} max_residual={residual:.3e}"
    if note:
        line += f" ({note})"
    print(line)
    return 0 if ok else 2


# --- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gainlap", description="gain graph matrix toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        return p

    p = add("dmatrix", _cmd_dmatrix, "gain distance matrix as CSV")
    p.add_argument("--mode", choices=("max", "min"), required=True)
    p.add_argument("--reverse", action="store_true", help="reverse the vertex ordering")
    p.add_argument("file")

    p = add("dlaplacian", _cmd_dlaplacian, "gain distance Laplacian as CSV")
    p.add_argument("--mode", choices=("max", "min"), required=True)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("file")

    p = add("incidence", _cmd_incidence, "incidence matrix as CSV")
    p.add_argument("--distance", action="store_true", help="incidence of the associated complete graph")
    p.add_argument("--mode", choices=("max", "min"), default="max")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("file")

    p = add("spectrum", _cmd_spectrum, "eigenvalues, ascending, one per line")
    p.add_argument("--target", choices=("dlmax", "dlmin", "adj", "lap"), required=True)
    p.add_argument("--reverse", action="store_true", help="reverse the vertex ordering (dlmax, dlmin)")
    p.add_argument("file")

    p = add("det", _cmd_det, "determinant of the weighted Laplacian")
    p.add_argument("--method", choices=("lu", "forests"), required=True)
    p.add_argument("file")

    p = add("rank", _cmd_rank, "numerical rank of the weighted Laplacian")
    p.add_argument("file")

    p = add("balance", _cmd_balance, "print 'balanced' or 'unbalanced'")
    p.add_argument("file")

    p = add("verify", _cmd_verify, "re-derive an identity on the input graph")
    p.add_argument("--theorem", type=int, choices=VERIFY_CHOICES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("file")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PathExplosion, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GainLapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
