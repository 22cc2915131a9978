"""Benchmark of gainlap: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload dmatrix --seed 1 --seconds 26 --trace 0

Workloads: dmatrix, analysis, forests, cli (see bench/README.md).  Each
run is one closed loop with a single client in this process over the
workload's fixed job list.  Every job is checked after its timed part; a
job that raises, fails its check, exits with the wrong code, or (for the
default seed) disagrees with bench/reference.json counts as failed.

With ``--trace 0`` the run repeats the job list, job after job, until the
next job would end after ``--seconds``, and reports the end-to-end
metrics.  Their times are scaled to a reference host speed: a fixed
probe (the benchmark's own BFS on a fixed graph) runs right before and
right after every timed job and every timed set-up, and each time is
multiplied by PROBE_REF_S over the mean of its two probes.

With ``--trace 1`` it alternates whole untraced and traced passes of the
list, stops when one more pair of the average length so far would end
after ``--seconds``, and reports the per-layer metrics, per pass of the
job list, plus the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is always taken
from ``src/`` of the checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy is imported, here and in every child process:
# eigensolve timings drift between repeats when BLAS may use threads.
os.environ.update({var: "1" for var in THREAD_VARS})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes timed for setup_s; the reported value is their median.
SETUP_PROBES = 9
#: Fresh ``import gainlap.cli`` processes timed for cli.startup_ms.
STARTUP_PROBES = 5

#: Tails use the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

#: Graph of the speed probe: all-pairs BFS with path counts, in the
#: benchmark's own code, so no change to gainlap can change its time.
PROBE_SPEC, PROBE_SEED = "grid6x6:generic", 0
#: Probe time at the reference speed.  A shared host runs everything
#: slower for stretches of seconds to minutes; the probe slows with it,
#: so a time scaled by PROBE_REF_S / probe time reads what it would at
#: the reference speed.  Chosen near the probe's typical time (between
#: timed jobs) on a two-vCPU Intel Xeon virtual machine.
PROBE_REF_S = 1.0e-3

SPAN_METRICS = {
    "distances.dmatrix_s": "distances.dmatrix",
    "distances.predicates_s": "distances.predicates",
    "laplacians.dlaplacian_s": "laplacians.dlaplacian",
    "laplacians.residual_s": "laplacians.residual",
    "spectra.reports_s": "spectra.reports",
    "spectra.eig_s": "spectra.eig",
    "forests.enum_s": "forests.enum",
    "forests.lu_s": "forests.lu",
    "documents.parse_s": "documents.parse",
    "documents.emit_s": "documents.emit",
    "graphs.build_s": "graphs.build",
    "graphs.balance_s": "graphs.balance",
    "cli.run_s": "cli.run",
}
COUNT_METRICS = ("distances.pairs", "distances.geodesics", "forests.subsets", "forests.found")
LAYERS = ("documents", "graphs", "distances", "laplacians", "spectra", "forests", "cli")
WORKLOADS = ("dmatrix", "analysis", "forests", "cli")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(samples)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * k / max(1, len(xs) - 1)


def end_to_end(samples: list[list[float]], setup: list[float], rss_mb: float) -> dict[str, float]:
    """End-to-end metrics from the scaled untraced latencies of each job.

    Each job of the list is represented by the median of its runs, so the
    sample count is the length of the job list whatever the number of
    runs.
    """
    per_job = [statistics.median(times) for times in samples]
    tail, _ = percentile_tail(per_job)
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(per_job) / sum(per_job),
        "job_p50_ms": 1e3 * statistics.median(per_job),
        "job_tail_ms": 1e3 * tail,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, passes: int, counts: dict[str, float], untraced: list[float],
              traced: list[float], startup_ms: float, probe_ms: float) -> dict[str, float]:
    """Per-layer metrics for one pass of the job list: span busy times and
    self times averaged over the traced passes, work counts of one pass.
    ``untraced`` and ``traced`` are the summed job latencies of each pass,
    paired: pass k of both ran one after the other."""
    by_name, self_by_layer, calls = tracer.totals()
    out = {metric: by_name.get(span, 0.0) / passes for metric, span in SPAN_METRICS.items()}
    out.update({name: float(counts.get(name, 0)) for name in COUNT_METRICS})
    pairs, subsets = out["distances.pairs"], out["forests.subsets"]
    out["distances.us_per_pair"] = 1e6 * out["distances.dmatrix_s"] / pairs if pairs else 0.0
    out["forests.yield"] = out["forests.found"] / subsets if subsets else 0.0
    out["cli.startup_ms"] = startup_ms
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0) / passes
        out[f"{layer}.calls"] = calls.get(layer, 0) / passes
    out["trace.untraced_pass_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced, traced))
    out["trace.probe_ms"] = probe_ms
    return out


def environment(seed: int) -> dict:
    """What every result is recorded with."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "commit": commit,
    }


class SpeedProbe:
    """Times the fixed probe and scales times to the reference speed."""

    def __init__(self) -> None:
        import gen
        from jobs import hop_and_geodesics

        self._bfs, self._doc = hop_and_geodesics, gen.family(PROBE_SPEC, PROBE_SEED)
        self.times: list[float] = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._bfs(self._doc)
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def scale(self, dt: float, before: float, after: float) -> float:
        return dt * PROBE_REF_S / (0.5 * (before + after))


def timed_probes(argv: list[str], count: int, ready: bool, env: dict | None = None,
                 probe: SpeedProbe | None = None) -> list[float]:
    """Wall time of ``count`` fresh processes, each from its start until it
    prints the line "ready" (when ``ready``) or else until it exits; with
    a ``probe``, each scaled by the probe times before and after it."""
    times = []
    for _ in range(count):
        before = probe() if probe else 0.0
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            first = proc.stdout.readline() if ready else ""
            t_ready = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait()
        if code != 0 or (ready and first.strip() != "ready"):
            raise RuntimeError(f"probe {argv} exited {code}: {first + rest!r}")
        dt = (t_ready if ready else time.perf_counter()) - t0
        times.append(probe.scale(dt, before, probe()) if probe else dt)
    return times


def run_job(job, span, reference: dict | None, probe: SpeedProbe) -> tuple[float, float, str | None]:
    """Time one job between two speed probes, then check it; returns
    (latency, scaled latency, failure or None)."""
    from jobs import matches

    before = probe()
    t0 = time.perf_counter()
    error = None
    try:
        with span("job"):
            out = job.run(span)
    except Exception as exc:  # a failed job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    scaled = probe.scale(dt, before, probe())
    if error is not None:
        return dt, scaled, error
    try:
        summary = job.check(out)
    except Exception as exc:  # CheckFailed, or a result too malformed to check
        return dt, scaled, f"check failed: {type(exc).__name__}: {exc}"
    if reference is not None and not matches(summary, reference.get(job.id, [])):
        return dt, scaled, f"result differs from reference: {summary!r}"
    return dt, scaled, None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "gainlap" / "__init__.py").is_file():
        print(f"error: no gainlap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import jobs as jobs_mod
    from spans import Tracer, null_span

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = jobs_mod.build(args.workload, args.seed, workdir, SRC)
        jobs[0].run(null_span)  # the untimed warm-up job
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        reference = None
        if args.seed == jobs_mod.DEFAULT_SEED:
            reference = json.loads((BENCH / "reference.json").read_text())
        tracer = Tracer() if args.trace else None
        probe = SpeedProbe()
        counts: dict[str, float] = {}
        if tracer:
            for job in jobs:
                for name, value in job.counts().items():
                    counts[name] = counts.get(name, 0) + value

        failures: list[str] = []
        t_start = time.perf_counter()
        if not tracer:
            # The job list runs round and round until the next job, if it
            # took as long as its last run, would end after --seconds;
            # every job runs at least once.
            raw: list[list[float]] = [[] for _ in jobs]
            samples: list[list[float]] = [[] for _ in jobs]
            for i in itertools.count():
                k = i % len(jobs)
                if raw[k] and time.perf_counter() - t_start + raw[k][-1] > args.seconds:
                    break
                dt, scaled, error = run_job(jobs[k], null_span, reference, probe)
                raw[k].append(dt)
                samples[k].append(scaled)
                if error is not None:
                    failures.append(f"{jobs[k].id}: {error}")
            attempted = i
            runs = sorted({len(times) for times in samples})
        else:
            # Whole untraced and traced passes alternate, each pair in the
            # opposite order to the one before.  Every pass loads its own
            # graphs, so neither variant reuses what the other computed,
            # and pass k of both form a pair whose difference is the
            # tracing overhead.
            passes: dict[bool, list[float]] = {False: [], True: []}
            while True:
                order = (False, True) if len(passes[False]) % 2 == 0 else (True, False)
                for traced in order:
                    span = tracer.span if traced else null_span
                    busy = 0.0
                    for job in jobs:
                        tracer.job = job.id
                        dt, _, error = run_job(job, span, reference, probe)
                        busy += dt
                        if error is not None:
                            failures.append(f"{job.id}: {error}")
                        if traced and job.inproc is not None:
                            with span("inproc"):
                                job.inproc(span)
                    passes[traced].append(busy)
                elapsed = time.perf_counter() - t_start
                if elapsed * (1 + 1 / len(passes[False])) > args.seconds:
                    break
            attempted = 2 * len(jobs) * len(passes[False])

        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

        if tracer:
            startup_ms = 0.0
            if args.workload == "cli":
                argv = [sys.executable, "-c", "import gainlap.cli"]
                env = jobs_mod.child_env(SRC)
                startup_ms = 1e3 * statistics.median(timed_probes(argv, STARTUP_PROBES, False, env))
            metrics = per_layer(tracer, len(passes[True]), counts, passes[False], passes[True], startup_ms,
                                1e3 * statistics.median(probe.times))
        else:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"]
            metrics = end_to_end(samples, timed_probes(argv, SETUP_PROBES, True, probe=probe), rss_mb)
            unscaled = end_to_end(raw, [0.0], rss_mb)
        env = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    failed = len(failures)
    if args.trace:
        done = f"passes={len(passes[False])} untraced, {len(passes[True])} traced"
    else:
        done = "runs per job=" + "-".join(map(str, runs))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} jobs_per_pass={len(jobs)} {done}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"speed probe: median {1e3 * statistics.median(probe.times):.4g} ms over {len(probe.times)} probes, "
          f"reference {1e3 * PROBE_REF_S:.4g} ms; times below are "
          + ("not scaled" if args.trace else "scaled to the reference"))
    for line in failures[:10]:
        print(f"FAILED {line}")
    if args.trace:
        notes = dict.fromkeys(metrics, f"per pass of {len(jobs)} jobs")
    else:
        _, tail_pct = percentile_tail([0.0] * len(jobs))
        n = f"n={len(jobs)} jobs, each the median of its {'-'.join(map(str, runs))} runs"
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh set-ups",
            "jobs_per_s": f"{n}; unscaled {unscaled['jobs_per_s']:.6g}",
            "job_p50_ms": f"{n}; unscaled {unscaled['job_p50_ms']:.6g}",
            "job_tail_ms": f"p{tail_pct:.1f}, {n}; unscaled {unscaled['job_tail_ms']:.6g}",
            "peak_rss_mb": "largest gainlap child" if args.workload == "cli" else "workload process",
        }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]} ({notes[name]})")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if tracer:
        trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "metrics": metrics, "spans": tracer.spans}))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
