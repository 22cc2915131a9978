"""The four benchmark workloads: their fixed job lists, the timed call
sequence of each job, and the correctness check run after it.

A job's ``run`` is the timed part.  It calls gainlap's public functions
and wraps each call in a span named after the layer it enters.  Its
``check`` runs outside the timed part, raises ``CheckFailed`` when the
result is wrong, and returns a summary of the result (numbers and
words) that is compared with the stored reference for the default seed.
"""

from __future__ import annotations

import cmath
import collections
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gen
from spans import SpanFactory

import gainlap
from gainlap import cli

#: Seed whose results are stored in reference.json.
DEFAULT_SEED = 1

#: Tolerances of the correctness checks.
REF_TOL = 1e-9
RESIDUAL_TOL = 1e-12
FOREST_TOL = 1e-7


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    id: str
    run: Callable[[SpanFactory], Any]
    check: Callable[[Any], list]
    # Work counts of one run of the job, computed on demand in traced runs.
    counts: Callable[[], dict[str, float]] = dict
    # Untimed in-process calls made in traced runs only (cli workload).
    inproc: Callable[[SpanFactory], None] | None = None


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# --- the benchmark's own oracles --------------------------------------------


def hop_and_geodesics(doc: gen.Doc) -> tuple[np.ndarray, int]:
    """All-pairs hop distances by BFS, and the number of shortest paths
    summed over unordered vertex pairs."""
    adj: list[list[int]] = [[] for _ in range(doc.n + 1)]
    for u, v in doc.pairs:
        adj[u].append(v)
        adj[v].append(u)
    hop = np.full((doc.n, doc.n), -1, dtype=int)
    geodesics = 0
    for s in range(1, doc.n + 1):
        dist = {s: 0}
        count = {s: 1}
        queue = collections.deque([s])
        while queue:
            a = queue.popleft()
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    count[b] = count[a]
                    queue.append(b)
                elif dist[b] == dist[a] + 1:
                    count[b] += count[a]
        require(len(dist) == doc.n, f"{doc.name}: generated graph is disconnected")
        for v, d in dist.items():
            hop[s - 1, v - 1] = d
        geodesics += sum(c for v, c in count.items() if v > s)
    return hop, geodesics


def short_geodesic_gains(doc: gen.Doc) -> dict[tuple[int, int], list[complex]]:
    """Gains of every shortest u -> v path, u < v, for the pairs at hop
    distance 1 or 2, read from the document's own JSON."""
    gain: dict[tuple[int, int], complex] = {}
    for e in json.loads(doc.data)["edges"]:
        g = e["gain"]
        z = cmath.exp(1j * g["theta"]) if "theta" in g else complex(g["re"], g["im"])
        gain[(e["u"], e["v"])] = z
        gain[(e["v"], e["u"])] = z.conjugate()
    adj: dict[int, set[int]] = collections.defaultdict(set)
    for u, v in doc.pairs:
        adj[u].add(v)
        adj[v].add(u)
    out: dict[tuple[int, int], list[complex]] = {}
    for u in range(1, doc.n + 1):
        for v in range(u + 1, doc.n + 1):
            if v in adj[u]:
                out[(u, v)] = [gain[(u, v)]]
            elif adj[u] & adj[v]:
                out[(u, v)] = [gain[(u, w)] * gain[(w, v)] for w in adj[u] & adj[v]]
    return out


def fingerprint(values) -> list[float]:
    """Size, norm and one fixed complex projection of a vector or matrix;
    a change of any single entry beyond the tolerance moves it."""
    z = np.asarray(values, dtype=complex).ravel()
    w = np.exp(0.7j * np.arange(z.size)) / (1.0 + 0.01 * np.arange(z.size))
    p = complex(np.dot(w, z))
    return [float(z.size), float(np.linalg.norm(z)), p.real, p.imag]


def stdout_summary(text: str) -> list:
    """Words of a CLI output verbatim, its numbers fingerprinted."""
    words, nums = [], []
    for tok in text.replace(",", " ").replace("=", " ").split():
        try:
            nums.append(complex(tok.replace("i", "j")) if tok.endswith("i") else float(tok))
        except ValueError:
            words.append(tok)
    return [" ".join(words)] + fingerprint(nums)


def matches(summary: list, ref: list, tol: float = REF_TOL) -> bool:
    if len(summary) != len(ref):
        return False
    for a, b in zip(summary, ref):
        if isinstance(b, str) or isinstance(a, str):
            if a != b:
                return False
        elif not (a == b or abs(a - b) <= tol * max(1.0, abs(b))):
            return False
    return True


# --- dmatrix ----------------------------------------------------------------

#: Graphs run in max and min mode, each under one ordering (reversed or not).
_DMATRIX_PAIRS = (
    ("R40-60:generic", True), ("Q5:generic", False), ("Q5:t4", True), ("grid6x6:generic", False),
    ("grid7x7:generic", False), ("R100-150:generic", True),
)

#: Graphs run in max and min mode under both orderings.  C64.2 is a second
#: draw of generic gains on C_64.
_DMATRIX_QUADS = ("C64:generic", "C64.2:generic", "Q6:generic", "Q6:t4", "C100:generic")

#: (graph, mode, reversed ordering) of every job: 38 jobs, half of them in
#: min mode and half under the reversed ordering.  Ordered by cost,
#: fourteen small jobs come first, then the eight C_64 jobs, the two 7x7
#: grid jobs, the eight Q6 jobs and last the six of R_100 and C_100.  C_64
#: and Q6 cost nearly the same on every seed.  The median of the 38 jobs
#: is then the mean of the 5th and 6th C_64 jobs, and the tail (the 11th
#: dearest job) the 5th dearest Q6 job: each near the middle of a block of
#: eight like jobs, not the time of one particular job.
DMATRIX_JOBS = (
    ("demo", "max", False), ("demo", "min", True), ("grid5x5:generic", "max", True),
    ("grid5x5:generic", "min", False), ("C32:generic", "max", False), ("C32:generic", "min", True),
    *((spec, mode, rev) for spec, rev in _DMATRIX_PAIRS for mode in ("max", "min")),
    *((spec, mode, rev) for spec in _DMATRIX_QUADS for rev in (False, True) for mode in ("max", "min")),
)


def _dmatrix_job(doc: gen.Doc, mode: str, reverse: bool) -> Job:
    oracle: list = []

    def run(span: SpanFactory):
        with span("documents.parse"):
            parsed = gainlap.parse_graph(doc.data)
        with span("graphs.build"):
            g = parsed.gain_graph()
            ordering = parsed.vertex_ordering()
            if reverse:
                ordering = ordering.reverse()
        with span("distances.dmatrix"):
            D = gainlap.gain_distance_matrix(g, ordering, mode)
        with span("documents.emit"):
            text = gainlap.matrix_to_csv(D)
        return D, text

    def check(out) -> list:
        D, text = out
        if not oracle:
            oracle.extend((hop_and_geodesics(doc)[0], short_geodesic_gains(doc)))
        hop, short = oracle
        require(D.shape == (doc.n, doc.n), f"shape {D.shape}")
        require(float(np.max(np.abs(D - D.conj().T))) <= 1e-12, "not Hermitian")
        require(not np.any(np.diag(D)), "nonzero diagonal")
        # |D_jk| = d(j, k) * |z_jk|, so this checks both the hop distance
        # and that every off-diagonal gain lies on the unit circle.
        require(float(np.max(np.abs(np.abs(D) - hop))) <= 1e-9, "|D| differs from BFS hop distance")
        # Up to distance 2 the geodesics are few enough to list: the entry
        # must be one of their gains with the extremal real part, taken
        # from the ordering-smaller endpoint.  Ties in the real part are
        # not resolved here.
        sign = 1.0 if mode == "max" else -1.0
        for (u, v), gains in short.items():
            if reverse:
                u, v, gains = v, u, [z.conjugate() for z in gains]
            z = D[u - 1, v - 1] / hop[u - 1, v - 1]
            require(min(abs(z - g) for g in gains) <= 1e-9, f"D[{u},{v}] is not a geodesic gain")
            require(sign * z.real >= max(sign * g.real for g in gains) - 1e-9, f"D[{u},{v}] is not {mode}imal")
        require(np.array_equal(gainlap.csv_to_matrix(text), D), "CSV does not round-trip")
        return fingerprint(D)

    def counts() -> dict[str, float]:
        return {"distances.pairs": doc.n * (doc.n - 1) // 2, "distances.geodesics": hop_and_geodesics(doc)[1]}

    jid = f"dmatrix/{doc.name}/{mode}" + ("/rev" if reverse else "")
    return Job(jid, run, check, counts)


def dmatrix_jobs(seed: int) -> list[Job]:
    docs = {spec: gen.family(spec, seed) for spec, _, _ in DMATRIX_JOBS}
    return [_dmatrix_job(docs[spec], mode, rev) for spec, mode, rev in DMATRIX_JOBS]


# --- analysis ---------------------------------------------------------------

ANALYSIS_GRAPHS = tuple(
    f"{shape}:{kind}{suffix}"
    for shape, suffix in (("C32", ""), ("grid5x5", ""), ("Q5", ""), ("Q5.2", ""), ("Q5", "-t4"), ("R40-60", ""))
    for kind in ("balanced", "planted")
)


def analysis_jobs(seed: int) -> list[Job]:
    """Per graph: one load job, then nine queries on the loaded graph.

    The graph objects live for the queries of one graph, as in one
    session, so work shared between queries can be shared.
    """
    jobs: list[Job] = []
    for spec in ANALYSIS_GRAPHS:
        jobs.extend(_analysis_session(gen.family(spec, seed), seed))
    return jobs


def _analysis_session(doc: gen.Doc, seed: int) -> list[Job]:
    st: dict[str, Any] = {}
    balanced = doc.balanced
    rng = random.Random(f"{seed}/{doc.name}/xi")
    xi = gainlap.SwitchingFunction(
        tuple(complex(math.cos(t), math.sin(t)) for t in (rng.uniform(0, gen.TAU) for _ in range(doc.n)))
    )

    def load(span):
        with span("documents.parse"):
            parsed = gainlap.parse_graph(doc.data)
        with span("graphs.build"):
            st["g"] = parsed.gain_graph()
            st["o"] = parsed.vertex_ordering()
        return st["g"].n

    def is_balanced(span):
        with span("graphs.balance"):
            return gainlap.is_balanced(st["g"])

    def is_compatible(span):
        with span("distances.predicates"):
            return gainlap.is_compatible(st["g"], st["o"])

    def is_ordering_independent(span):
        with span("distances.predicates"):
            return gainlap.is_ordering_independent(st["g"], st["o"])

    def residual(mode):
        def run(span):
            with span("laplacians.residual"):
                return gainlap.distance_factorization_residual(st["g"], st["o"], mode)
        return run

    def singularity(span):
        with span("spectra.reports"):
            return gainlap.balance_by_singularity(st["g"], st["o"])

    def cospectrality(span):
        with span("spectra.reports"):
            return gainlap.balance_by_cospectrality(st["g"], st["o"])

    def switching(span):
        with span("spectra.reports"):
            return gainlap.switching_similarity_check(st["g"], st["o"], xi)

    def spectrum(span):
        with span("laplacians.dlaplacian"):
            DL = gainlap.distance_laplacian(st["g"], st["o"], "max")
        with span("spectra.eig"):
            return DL, gainlap.hermitian_spectrum(DL)

    def check_load(n):
        require(n == doc.n, f"n = {n}")
        return [float(n)]

    def check_verdict(value):
        require(value is balanced, f"balance verdict {value}, constructed balanced={balanced}")
        return [float(value)]

    def check_implied(value):
        # A balanced graph has one gain per geodesic class, so it is
        # compatible and ordering independent; otherwise nothing is implied.
        require(not balanced or value is True, f"predicate {value} on a balanced graph")
        return [float(value)]

    def check_residual(r):
        require(r <= RESIDUAL_TOL, f"theorem-7 residual {r:.3e}")
        return [r]

    def check_singularity(rep):
        require(rep.balanced is balanced, f"singularity verdict {rep.balanced}")
        require(rep.matches_potential, "singularity verdict disagrees with is_balanced")
        return [float(rep.rank_max), float(rep.rank_min)]

    def check_cospectrality(rep):
        require(rep.balanced is balanced, f"cospectrality verdict {rep.balanced}")
        require(rep.matches_potential, "cospectrality verdict disagrees with is_balanced")
        return [float(rep.laplacians_match), float(rep.cospectral_with_underlying)]

    def check_switching(rep):
        require(rep.hypothesis_met or not balanced, "hypothesis not met on a balanced graph")
        if not rep.hypothesis_met:
            return [0.0]
        require(rep.switched_compatible, "switched graph not compatible")
        require(rep.similarity_residual <= 1e-10, f"similarity residual {rep.similarity_residual:.3e}")
        require(rep.spectra_match, "spectra differ after switching")
        return [1.0]

    def check_spectrum(out):
        DL, eig = out
        require(eig.shape == (doc.n,), f"{eig.shape} eigenvalues")
        require(bool(np.all(np.diff(eig) >= 0)), "eigenvalues not ascending")
        trace = float(np.trace(DL).real)
        require(abs(float(np.sum(eig)) - trace) <= 1e-9 * (1.0 + abs(trace)), "eigenvalues do not sum to the trace")
        require(eig[0] >= -1e-9 * (1.0 + abs(eig[-1])), "distance Laplacian not positive semidefinite")
        return fingerprint(eig)

    steps = (
        ("load", load, check_load),
        ("is_balanced", is_balanced, check_verdict),
        ("is_compatible", is_compatible, check_implied),
        ("is_ordering_independent", is_ordering_independent, check_implied),
        ("residual_max", residual("max"), check_residual),
        ("residual_min", residual("min"), check_residual),
        ("singularity", singularity, check_singularity),
        ("cospectrality", cospectrality, check_cospectrality),
        ("switching", switching, check_switching),
        ("spectrum", spectrum, check_spectrum),
    )
    return [Job(f"analysis/{doc.name}/{name}", run, check) for name, run, check in steps]


# --- forests ----------------------------------------------------------------

def _draws(shape: str, count: int) -> tuple[str, ...]:
    """``count`` graphs of one size: the shape, then further draws .2, .3, ..."""
    return (shape, *(f"{shape}.{k}" for k in range(2, count + 1)))


#: Shapes F<n>-<m> of the random connected weighted graphs, C(m, n) <= 92378.
#: A job's cost depends on its graph, not only on its size, so the median
#: and the tail each fall in a block of many graphs of like sizes: 30 small
#: jobs of sizes (8,13) and (9,14), then 24 of size (10,15) around the
#: median, two of (8,14), then 24 of sizes (9,15) and (8,15) around the
#: tail (the 11th dearest job), and above them one each of (10,16),
#: (10,17), (8,17), (9,18) and (10,19).
FOREST_SHAPES = (
    *_draws("F8-13", 20), *_draws("F9-14", 10), *_draws("F10-15", 24), *_draws("F8-14", 2),
    *_draws("F9-15", 8), *_draws("F8-15", 16),
    "F10-16", "F10-17", "F8-17", "F9-18", "F10-19",
)


def _forest_job(doc: gen.Doc) -> Job:
    def run(span):
        with span("documents.parse"):
            parsed = gainlap.parse_graph(doc.data)
        with span("graphs.build"):
            wg = parsed.weighted_graph()
        with span("forests.enum"):
            by_forests = gainlap.det_via_forests(wg)
        with span("laplacians.weighted"):
            L = gainlap.weighted_laplacian(wg)
        with span("forests.lu"):
            lu = gainlap.det_direct(L).real
        return by_forests, lu

    def check(out):
        by_forests, lu = out
        require(abs(by_forests - lu) <= FOREST_TOL * max(1.0, abs(lu)), f"forests {by_forests!r} vs LU {lu!r}")
        return [by_forests]

    def counts() -> dict[str, float]:
        wg = gainlap.parse_graph(doc.data).weighted_graph()
        found = sum(1 for _ in gainlap.enumerate_spanning_one_forests(wg))
        return {"forests.subsets": math.comb(doc.m, doc.n), "forests.found": found}

    return Job(f"forests/{doc.name}", run, check, counts)


def forest_jobs(seed: int) -> list[Job]:
    return [_forest_job(gen.family(f"{shape}:weighted", seed)) for shape in FOREST_SHAPES]


# --- cli --------------------------------------------------------------------

CLI_DOCS = ("demo", "C12:generic", "grid3x3:generic", "Q3:balanced-t4", "F8-13:weighted")


def cli_calls(seed: int) -> list[tuple[tuple[str, ...], str, dict[str, str], int]]:
    """(argv, document, extra environment, expected exit code) per call:
    all eight subcommands, verify for every theorem, a budget refusal and
    a malformed document."""
    s = str(seed)
    demo, cyc, grid, cube, forest = CLI_DOCS
    calls = [
        (("dmatrix", "--mode", "max"), demo),
        (("dmatrix", "--mode", "min", "--reverse"), cyc),
        (("dlaplacian", "--mode", "max"), grid),
        (("dlaplacian", "--mode", "min", "--reverse"), cube),
        (("incidence",), forest),
        (("incidence", "--distance", "--mode", "min"), grid),
        (("spectrum", "--target", "dlmax"), cube),
        (("spectrum", "--target", "lap"), forest),
        (("det", "--method", "lu"), forest),
        (("det", "--method", "forests"), forest),
        (("rank",), grid),
        (("balance",), cyc),
        (("balance",), cube),
        (("verify", "--theorem", "1", "--seed", s), forest),
        (("verify", "--theorem", "2"), cyc),
        (("verify", "--theorem", "3"), forest),
        (("verify", "--theorem", "6"), demo),
        (("verify", "--theorem", "7"), grid),
        (("verify", "--theorem", "11"), cyc),
        (("verify", "--theorem", "12", "--seed", s), cube),
        (("verify", "--theorem", "13"), grid),
        # A second document for most calls, so that the tail (the 11th
        # dearest of 33 calls) lies well above the median.
        (("dmatrix", "--mode", "min"), grid),
        (("dlaplacian", "--mode", "max"), forest),
        (("rank",), cube),
        (("verify", "--theorem", "1", "--seed", s), cyc),
        (("verify", "--theorem", "3"), demo),
        (("verify", "--theorem", "6"), cube),
        (("verify", "--theorem", "7"), cube),
        (("verify", "--theorem", "11"), grid),
        (("verify", "--theorem", "12", "--seed", s), grid),
        (("verify", "--theorem", "13"), cyc),
    ]
    out = [(argv, doc, {}, 0) for argv, doc in calls]
    out.append((("det", "--method", "forests"), forest, {"GAINLAP_BUDGET": "1"}, 3))
    out.append((("dmatrix", "--mode", "max"), "malformed", {}, 1))
    return out


def doc_file(workdir: Path, name: str) -> Path:
    return workdir / (name.replace(":", "_") + ".json")


def write_cli_docs(seed: int, workdir: Path) -> None:
    """The CLI's input files, plus a truncated copy of the demo."""
    for spec in CLI_DOCS:
        data = gen.family(spec, seed).data
        doc_file(workdir, spec).write_bytes(data)
        if spec == "demo":
            doc_file(workdir, "malformed").write_bytes(data[:-7])


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_inprocess(argv: list[str], extra_env: dict[str, str]) -> tuple[int, str]:
    """cli.run(argv) in this process, with its stdout captured."""
    saved = {k: os.environ.get(k) for k in extra_env}
    os.environ.update(extra_env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue()


def cli_jobs(seed: int, workdir: Path, src: Path) -> list[Job]:
    base_env = child_env(src)
    jobs = []
    for i, (argv, docname, extra, expect) in enumerate(cli_calls(seed)):
        path = doc_file(workdir, docname)
        full = [*argv, str(path)]
        env = {**base_env, **extra}
        expected: list = []

        def run(span, full=full, env=env):
            with span("cli.process"):
                proc = subprocess.run(
                    [sys.executable, "-m", "gainlap.cli", *full],
                    env=env, capture_output=True, text=True, timeout=120,
                )
            return proc.returncode, proc.stdout

        def check(out, full=full, extra=extra, expect=expect, expected=expected):
            code, stdout = out
            if not expected:
                expected.extend(run_inprocess(full, extra))
            require(code == expect, f"exit code {code}, expected {expect}")
            require(expected[0] == expect, f"in-process exit code {expected[0]}, expected {expect}")
            require(stdout == expected[1], "stdout differs from the in-process result")
            return [float(code)] + stdout_summary(stdout)

        def inproc(span, full=full, extra=extra, path=path):
            data = path.read_bytes()
            try:
                with span("documents.parse"):
                    parsed = gainlap.parse_graph(data)
            except gainlap.GainLapError:
                parsed = None
            if parsed is not None:
                with span("graphs.build"):
                    parsed.gain_graph()
                    parsed.weighted_graph()
                    parsed.vertex_ordering()
            with span("cli.run"):
                run_inprocess(full, extra)

        jid = f"cli/{i:02d}-{' '.join(argv[:3])}/{docname}"
        jobs.append(Job(jid, run, check, inproc=inproc))
    return jobs


# --- entry points -----------------------------------------------------------


def build(workload: str, seed: int, workdir: Path, src: Path) -> list[Job]:
    if workload == "dmatrix":
        return dmatrix_jobs(seed)
    if workload == "analysis":
        return analysis_jobs(seed)
    if workload == "forests":
        return forest_jobs(seed)
    if workload == "cli":
        write_cli_docs(seed, workdir)
        return cli_jobs(seed, workdir, src)
    raise ValueError(f"unknown workload {workload!r}")
