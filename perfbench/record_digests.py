#!/usr/bin/env python3
"""Record the SHA-256 of every job output as the byte-identity reference.

    python3 perfbench/record_digests.py [--seeds 0-9]

Run from the root of a source checkout.  For each workload and seed it
generates the inputs, runs one pass of the job list (one CLI process per
job, untimed), checks every output and writes ``perfbench/digests.json``.
``run.py`` then reports ``cli.outputs_changed`` against it.  Outputs that
depend on the eigenvector basis LAPACK picks inside a repeated eigenvalue
change with the BLAS build, which is recorded alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, such as 0-9")
    args = parser.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))
    root = Path.cwd()
    env = run.child_env(root / "src")
    os.environ.update(run.BLAS_THREADS)
    import checks

    recorded: dict[str, dict[str, dict[str, str]]] = {}
    for workload in workloads.WORKLOADS:
        for seed in range(lo, hi + 1):
            work = root / ".perfbench_work" / "digests" / workload
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            spec = workloads.materialize(workload, seed, work)
            jobs = [job.as_dict() for job in workloads.jobs(spec)]
            digests = {}
            for job in jobs:
                *_, rc = run.run_job(job, work, env)
                if rc != 0:
                    print(f"error: {workload} seed {seed} job {job['id']} exited {rc}",
                          file=sys.stderr)
                    return 1
                for name, h in run.job_digests(work, job).items():
                    digests[f"{job['id']}/{name}"] = h
            stdouts = {j["id"]: run.log_path(work, j).read_text() for j in jobs}
            problems = {k: v for k, v in checks.check_outputs(jobs, work, stdouts).items() if v}
            if problems:
                print(f"error: {workload} seed {seed} outputs fail checks: {problems}",
                      file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {len(digests)} files", flush=True)
    path = run.HERE / "digests.json"
    path.write_text(json.dumps({"environment": checks.env_report(), "digests": recorded},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
