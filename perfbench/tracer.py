"""In-process traced pass over a workload's jobs.

    python3 tracer.py JOBS_JSON RESULT_JSON

Run from the workload directory with the package importable.  Each job
calls ``spectral_reach.cli.main`` in this process twice: untraced, then
with every layer function wrapped from outside the package, recording
spans (name, start, end, parent, job) and counts taken from arguments
and return values.  Spans stay in memory and are
written once, with the per-pass job times and output digests, at the end.

The package modules bind their dependencies with ``from .x import y``, so
a wrapper replaces the attribute on every ``spectral_reach.*`` module that
holds the original function, not only on the defining module.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import time
import traceback
from importlib import import_module
from pathlib import Path


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start_ns, end_ns, parent, job]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.stack: list[int] = []
        self.job: str | None = None

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def peak(self, name: str, v: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, v), v)

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` may be a function of the call's arguments."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name(*args, **kwargs) if callable(name) else name,
                     time.perf_counter_ns(), 0,
                     rec.stack[-1] if rec.stack else -1, rec.job]
            rec.stack.append(len(rec.spans))
            rec.spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter_ns()
                rec.stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap a per-call-hot function with a call count and no span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[name] = rec.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


# -- counts taken from arguments and return values ---------------------------

def _after_build(rec, args, g):
    rec.count("graph.build_calls")
    rec.count("graph.dense_bytes", 16 * g.n_states ** 2)   # int64 adjacency + float64 L


def _after_eig(rec, args, basis):
    rec.count("spectral.eigh_calls")
    rec.peak("spectral.eigh_n_max", basis.n_states)


def _after_first_passage(rec, args, m):
    rec.count("commute.lu_solves", m.values.shape[0])


def _after_mc(rec, args, est):
    rec.count("commute.mc_walk_steps", round(est.estimate * (est.walks - est.capped)))
    rec.count("commute.mc_capped", est.capped)


def _after_collect(rec, args, data):
    rec.count("replearn.transitions", data.total_steps)


def _after_train(rec, args, rep):
    rec.count("replearn.train_iters", rep.config.iterations)


def _after_quality(rec, args, q):
    if q.eig_rel_err is not None and len(q.eig_rel_err):
        rec.peak("replearn.eig_rel_err_max", float(max(q.eig_rel_err)))


def _after_q_learning(rec, args, run):
    rec.count("shaping.runs")
    rec.count("shaping.env_steps", int(run.steps.sum()))
    rec.count("shaping.successes", int(run.success.sum()))
    rec.count("shaping.episodes", len(run.success))


def _after_write(rec, args, _):
    rec.count("manifest.files_written")
    rec.count("manifest.bytes_written", len(args[1]))


def _commute_name(g, method="solve", *rest, **kw):
    return f"commute.commute[{method}]"


# (module, attribute, span name, hook): every public function a job reaches
SPANS = (
    ("envgrid", "parse_maze", "envgrid.parse", None),
    ("envgrid", "discretize_continuous", "envgrid.parse", None),
    ("envgrid", "ContinuousMazeSpec.from_json", "envgrid.parse", None),
    ("graph", "build_graph", "graph.build_graph", _after_build),
    ("graph", "connected_components", "graph.connected_components", None),
    ("graph", "geodesic_matrix", "graph.geodesic_matrix", None),
    ("graph", "export_graph_json", "graph.export_graph_json", None),
    ("spectral", "eig_sym", "spectral.eig_sym", _after_eig),
    ("spectral", "laprep", "spectral.embed", None),
    ("spectral", "ra_laprep", "spectral.embed", None),
    ("spectral", "pairwise_sq_dists", "spectral.pairwise_sq_dists", None),
    ("spectral", "embedding_to_csv", "spectral.embedding_to_csv", None),
    ("spectral", "embedding_from_csv", "spectral.embedding_from_csv", None),
    ("spectral", "basis_to_json", "spectral.basis_to_json", None),
    ("commute", "first_passage", "commute.first_passage", _after_first_passage),
    ("commute", "commute", _commute_name, None),
    ("commute", "commute_mc", "commute.commute_mc", _after_mc),
    ("mds", "classic_mds", "mds.classic_mds", None),
    ("replearn", "collect_dataset", "replearn.collect_dataset", _after_collect),
    ("replearn", "train_graph_drawing", "replearn.train_graph_drawing", _after_train),
    ("replearn", "estimate_eigenvalues", "replearn.estimate_eigenvalues", None),
    ("replearn", "learned_ra_laprep", "replearn.learned_ra_laprep", None),
    ("replearn", "rep_quality", "replearn.rep_quality", _after_quality),
    ("replearn", "training_log_csv", "replearn.training_log_csv", None),
    ("shaping", "run_experiment", "shaping.run_experiment", None),
    ("shaping", "q_learning", "shaping.q_learning", _after_q_learning),
    ("shaping", "paired_auc_test", "shaping.paired_auc_test", None),
    ("shaping", "curves_csv", "shaping.curves_csv", None),
    ("bottleneck", "centrality", "bottleneck.centrality", None),
    ("verify", "run_suite", "verify.run_suite", None),
    ("manifest", "atomic_write_bytes", "manifest.atomic_write_bytes", _after_write),
    ("manifest", "sha256_file", "manifest.sha256_file", None),
)
COUNTERS = (
    ("envgrid", "step", "envgrid.step_calls"),
    ("envgrid", "StateIndex.of", "envgrid.index_lookups"),
    ("graph", "bfs_distances", "graph.bfs_calls"),
)


def install(rec: Recorder) -> list[tuple]:
    """Patch every binding of each listed function; return what to restore."""
    modules = [m for name, m in sys.modules.items()
               if name == "spectral_reach" or name.startswith("spectral_reach.")]
    undo = []

    def patch(module, attr, make):
        owner_name, _, member = attr.rpartition(".")
        mod = import_module(f"spectral_reach.{module}")
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[member]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            undo.append((owner, member, raw))
            setattr(owner, member, new)
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, key, orig))
                    setattr(m, key, new)

    for module, attr, name, after in SPANS:
        patch(module, attr, lambda fn, name=name, after=after: rec.span(name, fn, after))
    for module, attr, name in COUNTERS:
        patch(module, attr, lambda fn, name=name: rec.counter(name, fn))
    return undo


def log_path(work: Path, job: dict) -> Path:
    return work / "logs" / f"{job['id']}.stdout"


def job_digests(work: Path, job: dict) -> dict[str, str]:
    """SHA-256 of the job's stdout and of every file it wrote."""
    out = work / job["out"]
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    digests = {"stdout": hashlib.sha256(log_path(work, job).read_bytes()).hexdigest()}
    for p in files:
        digests[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def run_job(job: dict, main) -> dict:
    """One in-process job: its time, exit code and output digests."""
    log = log_path(Path("."), job)
    log.parent.mkdir(exist_ok=True)
    with open(log, "w") as f, contextlib.redirect_stdout(f), contextlib.redirect_stderr(f):
        t0 = time.perf_counter()
        try:
            rc = main(job["argv"])
        except Exception:          # a crashing job is a failed job, not a crashed pass
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - t0
    return {"id": job["id"], "cmd": job["cmd"], "s": seconds, "rc": rc,
            "digests": job_digests(Path("."), job)}


def main(argv: list[str]) -> int:
    """Each job runs untraced, then traced, so drift hits both passes alike."""
    jobs_path, result_path = argv
    jobs = json.loads(Path(jobs_path).read_text())
    from spectral_reach import cli

    rec = Recorder()
    traced_main = rec.span("cli.main", cli.main)
    untraced, traced = [], []
    for job in jobs:
        untraced.append(run_job(job, cli.main))
        rec.job = job["id"]
        undo = install(rec)
        try:
            traced.append(run_job(job, traced_main))
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)
    Path(result_path).write_text(json.dumps({
        "untraced": untraced,
        "traced": traced,
        "spans": rec.spans,
        "counts": rec.counts,
        "maxima": rec.maxima,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
