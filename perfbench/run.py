#!/usr/bin/env python3
"""spectral-reach benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` under
``.perfbench_work/<workload>/``; every output is checked afterwards.

``--trace 0``: a closed loop with one client.  This process runs one
fresh ``spectral-reach`` process at a time, as a user would: one full
pass over the workload's job list, then more runs of its jobs until
``--seconds`` are used.  It stays lean while timing, standard library only: a child's
peak RSS from ``wait4`` starts from the RSS of the process that forked
it.  Bounded times are CPU seconds (user + system, from ``wait4``): on a
shared host a job's wall time also holds the time other tenants take
from it, as steal and I/O waits.  Wall times are reported beside them.

``--trace 1``: the same jobs run in one child process (``tracer.py``),
each once untraced and once with every layer function wrapped; the
per-layer metrics come from the traced runs.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Earlier lines are a readable
report of every metric, with sample counts and the environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import job_digests, log_path  # noqa: E402  (standard library only)

# what the installed console script `spectral-reach` runs
SHIM = "import sys; from spectral_reach.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spectral_reach.cli; "
                "print(time.perf_counter() - t)")
# set-ups timed per run: half before the timed loop, half after it
SETUP_REPEATS = 6
IMPORT_REPEATS = 3
JOB_TIMEOUT_S = 150.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# end-to-end metrics: name, unit (mirrors BENCHMARK.json)
END_TO_END = (
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
COMMANDS = ("env", "embed", "heatmap", "bottleneck", "commute_pinv", "commute_solve",
            "commute_mc", "verify", "learn", "shape")
PERCENTILES = (50, 90, 95, 99, 99.9)


def summarize(samples: list[float]) -> str:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    if not samples:
        return "not run"
    text = f"median {statistics.median(samples):.4f} n={len(samples)}"
    usable = [p for p in PERCENTILES if round(len(samples) * (100 - p), 6) >= 1000]
    if usable and usable[-1] > 50:
        p = usable[-1]
        cut = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
        text += f" p{p}={cut:.4f}"
    return text


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(src)
    env.pop("SPECTRAL_REACH_THREADS", None)   # the package default: one worker
    return env


def spawn(argv: list[str], work: Path, env: dict, stdout) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS in MB and exit code of one child process.

    A blocking ``wait4`` reaps the child: ``Popen.wait`` with a timeout
    polls in steps of up to 50 ms, which would quantize the times.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=work, env=env, stdout=stdout, stderr=subprocess.STDOUT)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def run_job(job: dict, work: Path, env: dict) -> tuple[float, float, float, int]:
    """One CLI process, as the console script runs it; stdout goes to its log."""
    log = log_path(work, job)
    log.parent.mkdir(exist_ok=True)
    with open(log, "wb") as out:
        return spawn([sys.executable, "-c", SHIM, *job["argv"]], work, env, out)


def setup(workload: str, seed: int, work: Path, env: dict, repeats: int,
          samples: dict[str, list[float]]) -> dict:
    """Generate and write the inputs and warm the import, ``repeats`` times.

    Returns the spec and appends the wall and CPU seconds of each repeat
    to ``samples``; CPU seconds are this process's while it writes the
    inputs plus the importing child's.  Every repeat writes the same bytes.
    """
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        spec = workloads.materialize(workload, seed, work)
        cpu = time.process_time() - c0
        _, child_cpu, _, rc = spawn([sys.executable, "-c", "import spectral_reach.cli"],
                                    work, env, subprocess.DEVNULL)
        if rc != 0:
            raise RuntimeError(f"importing spectral_reach.cli exited {rc}")
        samples["wall"].append(time.perf_counter() - t0)
        samples["cpu"].append(cpu + child_cpu)
    return spec


def timed_loop(jobs: list[dict], work: Path, env: dict, seconds: float) -> dict:
    """Closed loop, one client: run the jobs for ``seconds``.

    The first pass runs every job in order.  After it, the next job is
    the one with the least time measured so far among those whose last
    duration fits in the time left, so short jobs, whose single samples
    are the noisiest, get the most samples; the run ends when none fits.
    """
    wall: dict[str, list[float]] = defaultdict(list)
    cpu: dict[str, list[float]] = defaultdict(list)
    rss, runs = [], []
    first: dict[str, dict] = {}
    last: dict[str, float] = {}
    spent: dict[str, float] = defaultdict(float)
    start = time.perf_counter()
    for i in itertools.count():
        if i < len(jobs):
            job = jobs[i]
        else:
            left = seconds - (time.perf_counter() - start)
            fitting = [j for j in jobs if last[j["id"]] <= left]
            if not fitting:
                break
            job = min(fitting, key=lambda j: spent[j["id"]])
        dt, cpu_s, peak, rc = run_job(job, work, env)
        digests = job_digests(work, job)
        same = digests == first.setdefault(job["id"], digests)
        runs.append({"id": job["id"], "ok": rc == 0 and same, "rc": rc, "same": same})
        wall[job["cmd"]].append(dt)
        cpu[job["cmd"]].append(cpu_s)
        last[job["id"]] = dt
        spent[job["id"]] += dt
        rss.append(peak)
    return {"wall": wall, "cpu": cpu, "rss": rss, "runs": runs, "digests": first}


def traced_pass(jobs: list[dict], work: Path, env: dict) -> dict:
    """Fresh-interpreter import times, then tracer.py's two in-process passes."""
    import_s = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=work, env=env,
                               capture_output=True, text=True, check=True,
                               timeout=JOB_TIMEOUT_S)
        import_s.append(float(probe.stdout))
    (work / "jobs.json").write_text(json.dumps(jobs))
    subprocess.run([sys.executable, str(HERE / "tracer.py"), "jobs.json", "trace.json"],
                   cwd=work, env=env, check=True, timeout=3 * JOB_TIMEOUT_S)
    trace = json.loads((work / "trace.json").read_text())
    runs = []
    for untraced, traced in zip(trace["untraced"], trace["traced"]):
        same = untraced["digests"] == traced["digests"]
        for r in (untraced, traced):
            runs.append({"id": r["id"], "ok": r["rc"] == 0 and same, "rc": r["rc"],
                         "same": same})
    return {"trace": trace, "import_s": statistics.median(import_s), "runs": runs,
            "digests": {r["id"]: r["digests"] for r in trace["traced"]}}


def outputs_changed(workload: str, seed: int, digests: dict[str, dict]) -> int:
    """Output files whose SHA-256 differs from the recorded ones; -1 if none recorded."""
    path = HERE / "digests.json"
    if not path.is_file():
        return -1
    recorded = json.loads(path.read_text())["digests"].get(workload, {}).get(str(seed))
    if recorded is None:
        return -1
    current = {f"{job}/{name}": h for job, files in digests.items() for name, h in files.items()}
    return sum(current.get(k) != recorded.get(k) for k in set(current) | set(recorded))


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "spectral_reach" / "cli.py").is_file():
        print(f"error: no spectral_reach package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)           # also for numpy in the check phase
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(src)

    setup_s: dict[str, list[float]] = {"wall": [], "cpu": []}
    if args.trace:
        spec = setup(args.workload, args.seed, work, env, 1, setup_s)
        jobs = [job.as_dict() for job in workloads.jobs(spec)]
        result = traced_pass(jobs, work, env)
    else:
        # set-ups before and after the loop sample the machine at both ends of the run
        half = SETUP_REPEATS // 2
        spec = setup(args.workload, args.seed, work, env, half, setup_s)
        jobs = [job.as_dict() for job in workloads.jobs(spec)]
        result = timed_loop(jobs, work, env, args.seconds)
        setup(args.workload, args.seed, work, env, SETUP_REPEATS - half, setup_s)

    # -- timing is over: check every output against the benchmark's references
    import checks

    stdouts = {j["id"]: log_path(work, j).read_text(errors="replace") for j in jobs}
    problems = checks.check_outputs(jobs, work, stdouts)
    runs = result["runs"]
    failed = sum(not r["ok"] or bool(problems[r["id"]]) for r in runs)
    changed = outputs_changed(args.workload, args.seed, result["digests"])

    info = {**environment(), **checks.env_report()}
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs, one client, closed loop")
    print("# environment " + " ".join(f"{k}={v}" for k, v in info.items()))
    for job in jobs:
        bad = [r for r in runs if r["id"] == job["id"] and not r["ok"]]
        for r in bad[:1]:
            print(f"# FAIL {job['id']}: exit {r['rc']}, outputs identical to first run: "
                  f"{r['same']}")
        for p in problems[job["id"]]:
            print(f"# FAIL {job['id']}: {p}")
    print(f"# fail_frac {failed / len(runs):.4f} ({failed}/{len(runs)} job runs)")
    print(f"# cli.outputs_changed {changed}")

    if args.trace:
        trace = result["trace"]
        metrics = layers.per_layer(trace, result["import_s"], changed)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, unit, predicts in layers.PER_LAYER:
            print(f"# {name} = {metrics[name]:.6g} {unit}  -> {predicts}")
        for job, share in layers.job_coverage(trace["spans"]).items():
            print(f"# coverage {job} {share:.4f}")
    else:
        wall, cpu = result["wall"], result["cpu"]
        print(f"# setup_s median {statistics.median(setup_s['cpu']):.4f} s CPU, "
              f"wall {summarize(setup_s['wall'])} s")
        for c in (c for c in COMMANDS if c in cpu):
            print(f"# {c}_cpu_s {summarize(cpu[c])} s; {c}_s (wall) {summarize(wall[c])} s")
        # a pass costs the sum of its jobs: per-job medians use every sample
        passes = {kind: sum(statistics.median(samples[j["cmd"]]) for j in jobs)
                  for kind, samples in (("cpu", cpu), ("wall", wall))}
        print(f"# pass_cpu_s {passes['cpu']:.4f} s, wall_s {passes['wall']:.4f} s "
              "(sums of per-job medians)")
        metrics = {
            "setup_s": statistics.median(setup_s["cpu"]),
            "pass_cpu_s": passes["cpu"],
            "peak_rss_mb": max(result["rss"]),
        }
        print(f"# peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (max over {len(runs)} jobs)")
        units = dict(END_TO_END)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
