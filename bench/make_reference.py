"""Write bench/reference.json: the checked result summary of every job
of every workload for the default seed.

    python3 bench/make_reference.py

Run it only when a workload's job list changes, never to make a failing
run pass: the stored summaries are what catches a program that silently
computes something else.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, OUT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

import jobs as jobs_mod  # noqa: E402
from spans import null_span  # noqa: E402


def main() -> int:
    workdir = OUT / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for workload in WORKLOADS:
            for job in jobs_mod.build(workload, jobs_mod.DEFAULT_SEED, workdir, SRC):
                reference[job.id] = job.check(job.run(null_span))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} job summaries to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
