"""Tests of the benchmark itself: generator, checks, metric names, spans."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

ALL_SPECS = sorted(
    {*(spec for spec, _, _ in jobs.DMATRIX_JOBS), *jobs.ANALYSIS_GRAPHS, *jobs.CLI_DOCS}
    | {f"{shape}:weighted" for shape in jobs.FOREST_SHAPES}
)


def _doc_digests(seed: int, hashseed: str) -> str:
    code = (
        "import hashlib, sys, gen\n"
        f"for spec in {ALL_SPECS!r}:\n"
        f"    print(spec, hashlib.sha256(gen.family(spec, {seed}).data).hexdigest())\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hashseed}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, env=env, capture_output=True, text=True, check=True
    ).stdout


def test_generator_is_deterministic():
    for spec in ALL_SPECS:
        assert gen.family(spec, 7).data == gen.family(spec, 7).data
    assert _doc_digests(7, "1") == _doc_digests(7, "2")
    assert gen.family("R40-60:generic", 7).data != gen.family("R40-60:generic", 8).data


def test_generated_balance_matches_construction():
    import gainlap

    for spec in jobs.ANALYSIS_GRAPHS:
        doc = gen.family(spec, 5)
        assert gainlap.is_balanced(gainlap.parse_graph(doc.data).gain_graph()) is doc.balanced, spec


def test_dmatrix_check_rejects_a_perturbed_entry():
    job = jobs._dmatrix_job(gen.family("grid5x5:generic", 3), "max", reverse=True)
    D, text = job.run(spans.null_span)
    good = job.check((D, text))

    bad = D.copy()
    bad[0, 7] *= 1.000001
    with pytest.raises(jobs.CheckFailed):
        job.check((bad, text))

    # A wrong gain between neighbours is not a geodesic gain.
    near = D.copy()
    near[0, 1] *= complex(0.6, 0.8)
    near[1, 0] = near[0, 1].conjugate()
    with pytest.raises(jobs.CheckFailed):
        job.check((near, jobs.gainlap.matrix_to_csv(near)))

    # A wrong gain on the unit circle between distant vertices passes the
    # structural checks but not the comparison with the reference summary.
    rot = D.copy()
    rot[0, 7] *= complex(0.6, 0.8)
    rot[7, 0] = rot[0, 7].conjugate()
    summary = job.check((rot, jobs.gainlap.matrix_to_csv(rot)))
    assert not jobs.matches(summary, good)


def test_forests_check_rejects_a_wrong_determinant():
    job = jobs._forest_job(gen.family("F8-13:weighted", 3))
    by_forests, lu = job.run(spans.null_span)
    job.check((by_forests, lu))
    with pytest.raises(jobs.CheckFailed):
        job.check((by_forests * 1.001, lu))


def test_cli_check_rejects_a_wrong_exit_code(tmp_path):
    jobs.write_cli_docs(3, tmp_path)
    job = next(j for j in jobs.cli_jobs(3, tmp_path, ROOT / "src") if "/12-balance/" in j.id)
    code, stdout = job.run(spans.null_span)
    job.check((code, stdout))
    with pytest.raises(jobs.CheckFailed):
        job.check((code + 2, stdout))
    with pytest.raises(jobs.CheckFailed):
        job.check((code, "balanced\n" if stdout == "unbalanced\n" else "unbalanced\n"))


def test_printed_metrics_are_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([[0.002 * i, 0.001 * i, 0.003 * i] for i in range(1, 40)], [0.3, 0.2, 0.4], 40.0)
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    # Each job counts with the median of its runs.
    assert e2e["job_p50_ms"] == pytest.approx(40.0)
    assert e2e["job_tail_ms"] == pytest.approx(58.0)

    tracer = spans.Tracer()
    with tracer.span("job"), tracer.span("distances.dmatrix"):
        pass
    layer = run.per_layer(tracer, 1, {"distances.pairs": 10}, [1.0], [1.01], 200.0, 1.0)
    assert set(layer) == {m["name"] for m in declared["per_layer"]}


def test_speed_probe_scales_to_the_reference():
    probe = run.SpeedProbe()
    assert probe() > 0.0 and len(probe.times) == 1
    # A job timed while the probe took twice its reference time reads half.
    ref = run.PROBE_REF_S
    assert probe.scale(0.8, 2 * ref, 2 * ref) == pytest.approx(0.4)
    assert probe.scale(0.8, ref, 3 * ref) == pytest.approx(0.4)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    value, pct = run.percentile_tail(samples)
    assert sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100.0 * 89 / 99)


def test_traced_self_times_sum_within_wall_time():
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    for job in jobs.forest_jobs(3)[:3] + jobs.dmatrix_jobs(3)[:3]:
        tracer.job = job.id
        with tracer.span("job"):
            job.run(tracer.span)
    wall = time.perf_counter() - t0
    _, self_by_layer, calls = tracer.totals()
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert all(v >= 0.0 for v in self_by_layer.values())
    assert sum(self_by_layer.values()) == pytest.approx(roots, rel=1e-9)
    assert sum(self_by_layer.values()) <= wall
    assert calls["job"] == 6 and calls["forests"] == 6 and calls["distances"] == 3


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dmatrix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
