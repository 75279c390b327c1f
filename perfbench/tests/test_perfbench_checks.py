"""Each output check accepts true outputs and rejects a perturbed one.

The outputs come from small instances of the benchmark's jobs, run in
process through the package's CLI.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spectral_reach.cli import main  # noqa: E402

LAYOUT = {"width": 8, "height": 6, "radius": 0.5,
          "walls": [{"x": 4, "y": 0, "w": 1, "h": 2}, {"x": 4, "y": 4, "w": 1, "h": 2}]}


def _job(id_, cmd, *argv, out=True):
    job = workloads._job(id_, cmd, *argv) if out else workloads.Job(id_, cmd, argv, f"out/{id_}")
    return job.as_dict()


JOBS = [
    _job("env", "env", "env", "--map", "inputs/grid.txt"),
    _job("embed", "embed", "embed", "--map", "inputs/grid.txt"),
    _job("heatmap", "heatmap", "heatmap", "out/embed/embedding.csv", "--map", "inputs/grid.txt",
         "--goal", "2,2"),
    _job("bottleneck", "bottleneck", "bottleneck", "--map", "inputs/grid.txt"),
    _job("commute_pinv", "commute_pinv", "commute", "--map", "inputs/grid.txt",
         "--method", "pseudo-inverse"),
    _job("commute_solve", "commute_solve", "commute", "--map", "inputs/grid.txt",
         "--method", "solve"),
    _job("verify", "verify", "verify", "--suite", "graph", out=False),
    _job("shape", "shape", "shape", "--map", "inputs/fourroom.txt", "--kind", "ra_laprep,none",
         "--d", "10", "--episodes", "20", "--seed", "3", "--seeds", "2"),
    _job("learn", "learn", "learn", "--map", "inputs/tworoom.txt", "--seed", "1",
         *workloads.LEARN_ARGS),
    _job("commute_mc", "commute_mc", "commute", "--map", "inputs/fourroom.txt", "--method", "mc",
         "--pair", "1,1:11,11", "--walks", "2000", "--seed", "4"),
]
LAYOUT_JOBS = [
    _job("env", "env", "env", "--map", "inputs/layout.json", "--resolution", "2"),
    _job("embed", "embed", "embed", "--map", "inputs/layout.json", "--resolution", "2",
         "--d", "6"),
]


def _run(work: Path, jobs: list[dict]) -> dict[str, str]:
    """Run jobs from the work directory, as the benchmark does; return stdouts."""
    stdouts = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for job in jobs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(job["argv"]) == 0, job
            stdouts[job["id"]] = buf.getvalue()
    finally:
        os.chdir(cwd)
    return stdouts


@pytest.fixture(scope="module")
def truth(tmp_path_factory):
    """Grid and sampling outputs, plus continuous-layout outputs."""
    work = tmp_path_factory.mktemp("grid")
    inputs = work / "inputs"
    inputs.mkdir()
    (inputs / "grid.txt").write_text(workloads.rooms_grid(workloads.SplitMix64(9), 2, 4))
    (inputs / "fourroom.txt").write_text(workloads.FOURROOM)
    (inputs / "tworoom.txt").write_text(workloads.TWOROOM)
    layout = tmp_path_factory.mktemp("layout")
    (layout / "inputs").mkdir()
    (layout / "inputs" / "layout.json").write_text(json.dumps(LAYOUT))
    return (work, _run(work, JOBS)), (layout, _run(layout, LAYOUT_JOBS))


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "work"
    shutil.copytree(src, dst)
    return dst


def test_true_outputs_pass(truth):
    for work, stdouts in truth:
        jobs = JOBS if work.name.startswith("grid") else LAYOUT_JOBS
        problems = checks.check_outputs(jobs, work, stdouts)
        assert problems == {job["id"]: [] for job in jobs}


def _nudge_csv(path: Path, first_col: int = 0) -> None:
    """Scale the largest-magnitude numeric value by 1 + 1e-6."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    best = None
    for i, row in enumerate(rows):
        for j, cell in enumerate(row[first_col:], start=first_col):
            try:
                v = float(cell)
            except ValueError:
                continue
            if best is None or abs(v) > abs(best[2]):
                best = (i, j, v)
    i, j, v = best
    rows[i][j] = repr(v * (1 + 1e-6))
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _swap_columns(path: Path) -> None:
    rows = [line.split(",") for line in path.read_text().rstrip("\n").split("\n")]
    for r in rows[1:]:
        r[3], r[4] = r[4], r[3]
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _flip_first_success(path: Path) -> None:
    lines = path.read_text().split("\n")
    ep, kind, goal, seed, ok, steps = lines[1].split(",")
    lines[1] = ",".join([ep, kind, goal, seed, "0" if ok == "1" else "1", steps])
    path.write_text("\n".join(lines))


def _flip_selection(path: Path) -> None:
    lines = path.read_text().split("\n")
    head, flag = lines[1].rsplit(",", 1)
    lines[1] = f"{head},{1 - int(flag)}"
    path.write_text("\n".join(lines))


def _stdout(job_id, old, new):
    return lambda stdouts: stdouts.__setitem__(job_id, stdouts[job_id].replace(old, new, 1))


PERTURBATIONS = {
    "env-edge-count": ("env", lambda w: None, _stdout("env", "edges=", "edges=1")),
    "env-graph-json": ("env", lambda w: _edit_json(w / "out/env/graph.json",
                                                   lambda g: g["edges"].pop()), None),
    "embed-csv-value": ("embed", lambda w: _nudge_csv(w / "out/embed/embedding.csv", 3), None),
    "embed-eigenvalue": ("embed", lambda w: _edit_json(
        w / "out/embed/basis.json",
        lambda b: b["eigenvalues"].__setitem__(1, b["eigenvalues"][1] * (1 + 1e-6))), None),
    "heatmap-distance": ("heatmap", lambda w: _nudge_csv(w / "out/heatmap/dist_grid.csv"), None),
    "bottleneck-cent": ("bottleneck",
                        lambda w: _nudge_csv(w / "out/bottleneck/bottlenecks.csv", 3), None),
    "bottleneck-selection": ("bottleneck",
                             lambda w: _flip_selection(w / "out/bottleneck/bottlenecks.csv"), None),
    "commute-pinv": ("commute_pinv",
                     lambda w: _nudge_csv(w / "out/commute_pinv/commute.csv"), None),
    "commute-solve": ("commute_solve",
                      lambda w: _nudge_csv(w / "out/commute_solve/commute.csv"), None),
    "mc-estimate": ("commute_mc", lambda w: _edit_json(
        w / "out/commute_mc/mc.json",
        lambda m: m.__setitem__("estimate", m["estimate"] + 6 * m["stderr"])), None),
    "mc-capped": ("commute_mc", lambda w: _edit_json(
        w / "out/commute_mc/mc.json", lambda m: m.__setitem__("capped", 1)), None),
    "verify-fail-line": ("verify", lambda w: None, _stdout("verify", "PASS ", "FAIL ")),
    "shape-auc": ("shape", lambda w: _edit_json(
        w / "out/shape/aggregate.json",
        lambda a: a["aggregate"]["none"].__setitem__("auc", a["aggregate"]["none"]["auc"]
                                                     * (1 + 1e-6) + 1e-9)), None),
    "shape-curve": ("shape", lambda w: _flip_first_success(w / "out/shape/curves.csv"), None),
    "learn-eigenvalue": ("learn", lambda w: _edit_json(
        w / "out/learn/eigenvalue_estimates.json",
        lambda e: e["estimates"].__setitem__(0, e["estimates"][0] * 1.2)), None),
    "learn-columns": ("learn", lambda w: _swap_columns(w / "out/learn/learned_embedding.csv"),
                      None),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_perturbed_output_rejected(truth, tmp_path, name):
    job_id, perturb_files, perturb_stdout = PERTURBATIONS[name]
    (work, stdouts), _ = truth
    work = _copy(work, tmp_path)
    stdouts = dict(stdouts)
    perturb_files(work)
    if perturb_stdout is not None:
        perturb_stdout(stdouts)
    problems = checks.check_outputs(JOBS, work, stdouts)
    assert problems[job_id], f"{name} went undetected"
    assert all(not p for jid, p in problems.items() if jid != job_id and jid not in
               ("heatmap", "bottleneck", "commute_pinv"))


def test_layout_embedding_value_nudge_rejected(truth, tmp_path):
    _, (work, stdouts) = truth
    work = _copy(work, tmp_path)
    _nudge_csv(work / "out/embed/embedding.csv", 3)
    assert checks.check_outputs(LAYOUT_JOBS, work, stdouts)["embed"]
