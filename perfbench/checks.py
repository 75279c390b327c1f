"""Output checks for every benchmark job.

Each check compares a job's files with references this module builds
from the generated input files itself: its own map parser, continuous
discretizer, graph, Laplacian and pseudo-inverse.  Nothing here imports
the package under test.  A check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

FLOOR = frozenset(".BG")
# an identity computed two ways agrees to this relative tolerance
IDENTITY_TOL = 1e-8
# an exact pseudo-inverse route against the package's first-passage solves
SOLVE_TOL = 1e-7
# the same formula evaluated twice, from the printed 17-digit values
REPEAT_TOL = 1e-12
# centrality sums n distances; the Gram-form distances lose a few digits
CENT_TOL = 1e-9
# eigenvector residual ||Lc - lambda c|| relative to max(lambda_max, 1) ||c||
RESIDUAL_TOL = 1e-9
# criterion 5 of the acceptance gate
LEARN_EIG_TOL = 0.10
LEARN_COS_MIN = 0.95
DEGENERATE_GAP = 1e-9
MC_SIGMAS = 5.0
BOTTLENECK_FRAC = 0.2
HEATMAP_SCALE = 8


@dataclass
class Grid:
    """A maze as this module understands it: floor cells in row-major order."""

    rows: list[str]

    @cached_property
    def coords(self) -> list[tuple[int, int]]:
        return [(x, y) for y, row in enumerate(self.rows)
                for x, ch in enumerate(row) if ch in FLOOR]

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        return {c: i for i, c in enumerate(self.coords)}

    @property
    def n(self) -> int:
        return len(self.coords)

    @cached_property
    def edges(self) -> np.ndarray:
        """Undirected edges (i, j), i < j, sorted."""
        out = []
        for i, (x, y) in enumerate(self.coords):
            for nb in ((x + 1, y), (x, y + 1)):
                j = self.index.get(nb)
                if j is not None:
                    out.append((i, j))
        return np.array(sorted(out), dtype=np.int64).reshape(-1, 2)

    @property
    def volume(self) -> int:
        return 2 * len(self.edges)

    @cached_property
    def laplacian(self) -> np.ndarray:
        lap = np.zeros((self.n, self.n))
        i, j = self.edges[:, 0], self.edges[:, 1]
        lap[i, j] = lap[j, i] = -1.0
        lap[np.arange(self.n), np.arange(self.n)] = -lap.sum(axis=1)
        return lap

    @cached_property
    def components(self) -> int:
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.edges.tolist():
            parent[find(i)] = find(j)
        return len({find(a) for a in range(self.n)})

    @cached_property
    def commute(self) -> np.ndarray:
        """Exact commute times V (l+_ii + l+_jj - 2 l+_ij) from numpy's pinv."""
        plus = np.linalg.pinv(self.laplacian, hermitian=True)
        d = np.diag(plus)
        out = self.volume * (d[:, None] + d[None, :] - 2.0 * plus)
        np.fill_diagonal(out, 0.0)
        return out

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.laplacian)


def parse_ascii(text: str) -> Grid:
    return Grid(rows=text.rstrip("\n").split("\n"))


def discretize(layout: dict, resolution: int) -> Grid:
    """Cells whose centre keeps the agent disk clear of every wall, plus a border."""
    nx = int(round(layout["width"] * resolution))
    ny = int(round(layout["height"] * resolution))
    cx = (np.arange(nx) + 0.5) / resolution
    cy = (np.arange(ny) + 0.5) / resolution
    px, py = np.meshgrid(cx, cy)
    clear = np.ones((ny, nx), dtype=bool)
    for r in layout["walls"]:
        x, y, w, h = (float(r[k]) for k in "xywh")
        dx = np.maximum(np.maximum(x - px, 0.0), px - (x + w))
        dy = np.maximum(np.maximum(y - py, 0.0), py - (y + h))
        clear &= np.hypot(dx, dy) >= float(layout["radius"]) - 1e-12
    rows = ["#" * (nx + 2)]
    rows += ["#" + "".join("." if c else "#" for c in line) + "#" for line in clear]
    rows.append("#" * (nx + 2))
    return Grid(rows=rows)


def load_grid(work: Path, argv: list[str]) -> Grid:
    path = work / _flag(argv, "--map")
    if path.suffix == ".json":
        return discretize(json.loads(path.read_text()), int(_flag(argv, "--resolution", "1")))
    return parse_ascii(path.read_text())


def _flag(argv: list[str], name: str, default: str | None = None) -> str:
    if name in argv:
        return argv[argv.index(name) + 1]
    if default is None:
        raise KeyError(f"job has no {name}")
    return default


def _cell(raw: str) -> tuple[int, int]:
    x, y = raw.split(",")
    return int(x), int(y)


def _rel(a, b, floor: float = 0.0) -> float:
    """Largest |a - b| relative to max(|b|, floor), elementwise."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    scale = np.maximum(np.abs(b), floor)
    scale = np.where(scale == 0, 1.0, scale)
    err = float(np.max(np.abs(a - b) / scale))
    return err if err == err else math.inf      # a NaN anywhere fails


def read_embedding(path: Path) -> tuple[list[str], list[tuple[int, int]], np.ndarray]:
    """Header, cell per row and the coordinate block of an embedding CSV."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    order = np.argsort(table[:, 0], kind="stable")
    table = table[order]
    coords = [(int(x), int(y)) for x, y in table[:, 1:3]]
    return header, coords, table[:, 3:]


def _pairwise_dist(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


# ---------------------------------------------------------------------------
# per-command checks: (job, work directory, references) -> problems
# ---------------------------------------------------------------------------

class Refs:
    """Reference grids, built once per input map."""

    def __init__(self, work: Path, jobs: list[dict]):
        self.work = work
        self._grids: dict[tuple, Grid] = {}
        self.embed_job = next((j for j in jobs if j["cmd"] == "embed"), None)

    def grid(self, argv: list[str]) -> Grid:
        key = (_flag(argv, "--map"), _flag(argv, "--resolution", "1"))
        if key not in self._grids:
            self._grids[key] = load_grid(self.work, argv)
        return self._grids[key]

    def embedding(self, job: dict) -> np.ndarray:
        """The workload's embed output, which must use the same --d as ``job``."""
        if _flag(job["argv"], "--d", "n") != _flag(self.embed_job["argv"], "--d", "n"):
            raise ValueError(f"job {job['id']} and the embed job use different --d")
        return read_embedding(self.work / self.embed_job["out"] / "embedding.csv")[2]


def check_env(job, work, refs, stdout: str) -> list[str]:
    g = refs.grid(job["argv"])
    out = work / job["out"]
    problems = []
    want = f"states={g.n} edges={len(g.edges)} volume={g.volume} components={g.components}"
    if want not in stdout:
        problems.append(f"stdout lacks {want!r}")
    graph = json.loads((out / "graph.json").read_text())
    if graph["n"] != g.n:
        problems.append(f"graph.json n={graph['n']}, expected {g.n}")
    if graph["edges"] != g.edges.tolist():
        problems.append("graph.json edges differ from the reference edge list")
    if [tuple(c) for c in graph["coords"]] != g.coords:
        problems.append("graph.json coords differ from the reference floor cells")
    if (out / "map.txt").read_text() != "\n".join(g.rows) + "\n":
        problems.append("map.txt differs from the reference map")
    return problems


def check_embed(job, work, refs, stdout: str) -> list[str]:
    """Columns c satisfy c^T L c = 1, c^T c = 1/lambda and L c = lambda c."""
    g = refs.grid(job["argv"])
    out = work / job["out"]
    header, coords, c = read_embedding(out / "embedding.csv")
    d = int(_flag(job["argv"], "--d", str(g.n)))
    problems = []
    if header != ["state_index", "x", "y"] + [f"e{i}" for i in range(2, d + 1)]:
        return [f"embedding.csv header {header[:5]}... does not match d={d}"]
    if coords != g.coords:
        return ["embedding.csv cells differ from the reference floor cells"]
    lam_all = np.array(json.loads((out / "basis.json").read_text())["eigenvalues"])
    if len(lam_all) != g.n:
        return [f"basis.json lists {len(lam_all)} eigenvalues for {g.n} states"]
    if _rel(lam_all.sum(), g.volume) > IDENTITY_TOL:
        problems.append(f"eigenvalues sum to {lam_all.sum()}, volume is {g.volume}")
    if np.any(np.diff(lam_all) < -1e-12):
        problems.append("basis.json eigenvalues are not ascending")
    lam = lam_all[1:d]
    lc = g.laplacian @ c
    quad = np.einsum("ij,ij->j", c, lc)
    norm2 = np.einsum("ij,ij->j", c, c)
    if (err := _rel(quad, np.ones_like(quad))) > IDENTITY_TOL:
        problems.append(f"max |c^T L c - 1| = {err:.2e}")
    if (err := _rel(norm2, 1.0 / lam)) > IDENTITY_TOL:
        problems.append(f"max rel |c^T c - 1/lambda| = {err:.2e}")
    resid = np.max(np.abs(lc - c * lam), axis=0) / np.max(np.abs(c), axis=0)
    if (err := float(resid.max()) / max(float(lam_all[-1]), 1.0)) > RESIDUAL_TOL:
        problems.append(f"eigenvector residual {err:.2e} exceeds {RESIDUAL_TOL}")
    return problems


def check_heatmap(job, work, refs, stdout: str) -> list[str]:
    """dist_grid.csv holds ||phi_s - phi_goal|| at each floor cell, blanks on walls."""
    argv = job["argv"]
    g = refs.grid(argv)
    _, coords, phi = read_embedding(work / argv[1])
    if coords != g.coords:
        return ["the embedding's cells differ from the reference floor cells"]
    goal = g.index[_cell(_flag(argv, "--goal"))]
    want = np.linalg.norm(phi - phi[goal], axis=1)
    out = work / job["out"]
    lines = (out / "dist_grid.csv").read_text().rstrip("\n").split("\n")
    if len(lines) != len(g.rows):
        return [f"dist_grid.csv has {len(lines)} rows, map has {len(g.rows)}"]
    got = np.full(g.n, np.nan)
    for y, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != len(g.rows[y]):
            return [f"dist_grid.csv row {y} has {len(cells)} cells"]
        for x, raw in enumerate(cells):
            s = g.index.get((x, y))
            if (s is None) != (raw == ""):
                return [f"dist_grid.csv cell ({x}, {y}) floor/wall mismatch"]
            if s is not None:
                got[s] = float(raw)
    problems = []
    if (err := _rel(got, want, floor=1e-300)) > REPEAT_TOL:
        problems.append(f"distances differ from ||phi_s - phi_goal|| by rel {err:.2e}")
    h, w = len(g.rows), len(g.rows[0])
    ppm = (out / "heatmap.ppm").read_bytes()
    head = f"P6\n{w * HEATMAP_SCALE} {h * HEATMAP_SCALE}\n255\n".encode()
    if not ppm.startswith(head) or len(ppm) != len(head) + 3 * w * h * HEATMAP_SCALE ** 2:
        problems.append("heatmap.ppm header or size is wrong")
    return problems


def check_bottleneck(job, work, refs, stdout: str) -> list[str]:
    """cent = 1 / sum of embedding distances; the top ceil(frac n) are selected."""
    g = refs.grid(job["argv"])
    rows = list(csv.reader(io.StringIO((work / job["out"] / "bottlenecks.csv").read_text())))
    if rows[0] != ["state_index", "x", "y", "cent", "selected"] or len(rows) != g.n + 1:
        return ["bottlenecks.csv header or row count is wrong"]
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(g.n)):
        return ["bottlenecks.csv state indices are not 0..n-1"]
    if [(int(r[1]), int(r[2])) for r in body] != g.coords:
        return ["bottlenecks.csv cells differ from the reference floor cells"]
    cent = np.array([float(r[3]) for r in body])
    selected = {i for i, r in enumerate(body) if r[4] == "1"}
    problems = []
    want = 1.0 / _pairwise_dist(refs.embedding(job)).sum(axis=1)
    if (err := _rel(cent, want)) > CENT_TOL:
        problems.append(f"cent differs from 1/sum(dist) by rel {err:.2e}")
    k = math.ceil(BOTTLENECK_FRAC * g.n)
    top = set(np.lexsort((np.arange(g.n), -cent))[:k].tolist())
    if selected != top:
        problems.append(f"selection is not the top {k} states by cent")
    return problems


def _read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_commute_pinv(job, work, refs, stdout: str) -> list[str]:
    """Criterion-1 identity: V ||phi_i - phi_j||^2 equals commute.csv."""
    g = refs.grid(job["argv"])
    got = _read_matrix(work / job["out"] / "commute.csv")
    if got.shape != (g.n, g.n):
        return [f"commute.csv has shape {got.shape}, expected {(g.n, g.n)}"]
    want = g.volume * _pairwise_dist(refs.embedding(job)) ** 2
    if (err := _rel(got, want, floor=1.0)) > IDENTITY_TOL:
        return [f"commute.csv differs from V ||phi_i - phi_j||^2 by rel {err:.2e}"]
    return []


def check_commute_solve(job, work, refs, stdout: str) -> list[str]:
    g = refs.grid(job["argv"])
    got = _read_matrix(work / job["out"] / "commute.csv")
    if got.shape != (g.n, g.n):
        return [f"commute.csv has shape {got.shape}, expected {(g.n, g.n)}"]
    if (err := _rel(got, g.commute, floor=1.0)) > SOLVE_TOL:
        return [f"commute.csv differs from the pinv reference by rel {err:.2e}"]
    return []


def check_commute_mc(job, work, refs, stdout: str) -> list[str]:
    argv = job["argv"]
    g = refs.grid(argv)
    a, b = (g.index[_cell(c)] for c in _flag(argv, "--pair").split(":"))
    est = json.loads((work / job["out"] / "mc.json").read_text())
    problems = []
    if est["walks"] != int(_flag(argv, "--walks")) or est["seed"] != int(_flag(argv, "--seed")):
        problems.append("mc.json walks or seed differ from the request")
    if est["capped"] != 0:
        problems.append(f"{est['capped']} walks hit the cap")
    exact = float(g.commute[a, b])
    if not abs(est["estimate"] - exact) <= MC_SIGMAS * est["stderr"]:
        problems.append(f"estimate {est['estimate']} is more than {MC_SIGMAS} stderr "
                        f"({est['stderr']}) from the exact {exact}")
    return problems


def check_verify(job, work, refs, stdout: str) -> list[str]:
    """Every check line reads PASS and the summary reads N/N."""
    lines = stdout.rstrip("\n").split("\n")
    checks = [line for line in lines[:-1] if line.startswith(("PASS ", "FAIL "))]
    passed = sum(line.startswith("PASS ") for line in checks)
    if not checks or passed != len(checks) or len(checks) != len(lines) - 1:
        return [f"verify passed {passed} of {len(lines) - 1} report lines"]
    if lines[-1] != f"{passed}/{passed} checks passed":
        return [f"verify summary reads {lines[-1]!r}, expected {passed}/{passed}"]
    return []


def check_shape(job, work, refs, stdout: str) -> list[str]:
    """curves.csv has one row per (kind, goal, seed, episode); AUCs recomputed."""
    argv = job["argv"]
    g = refs.grid(argv)
    kinds = _flag(argv, "--kind").split(",")
    episodes, n_seeds = int(_flag(argv, "--episodes")), int(_flag(argv, "--seeds"))
    base = int(_flag(argv, "--seed"))
    goals = sorted(g.index[c] for c in g.coords if g.rows[c[1]][c[0]] == "G")
    out = work / job["out"]
    lines = (out / "curves.csv").read_text().rstrip("\n").split("\n")
    if lines[0] != "episode,kind,goal,seed,success,steps":
        return ["curves.csv header is wrong"]
    want_rows = len(kinds) * len(goals) * n_seeds * episodes
    if len(lines) - 1 != want_rows:
        return [f"curves.csv has {len(lines) - 1} rows, expected {want_rows}"]
    success: dict[tuple, list[int]] = {}
    for line in lines[1:]:
        ep, kind, goal, seed, ok, steps = line.split(",")
        if ok not in ("0", "1") or not 1 <= int(steps):
            return [f"curves.csv row {line!r} is malformed"]
        run = success.setdefault((kind, int(goal), int(seed)), [])
        if int(ep) != len(run):
            return [f"curves.csv episodes of run {(kind, goal, seed)} are out of order"]
        run.append(int(ok))
    want_runs = {(k, s, base + i) for k in kinds for s in goals for i in range(n_seeds)}
    if set(success) != want_runs:
        return ["curves.csv runs differ from kinds x goals x seeds"]
    agg = json.loads((out / "aggregate.json").read_text())["aggregate"]
    problems = []
    for kind in kinds:
        aucs = np.array([np.mean(success[(kind, s, base + i)])
                         for s in goals for i in range(n_seeds)])
        if (err := _rel(agg[kind]["auc"], aucs.mean())) > REPEAT_TOL:
            problems.append(f"aggregate auc of {kind} differs from curves.csv by rel {err:.2e}")
    return problems


def check_learn(job, work, refs, stdout: str) -> list[str]:
    """Criterion 5 against the reference eigensystem of the map."""
    g = refs.grid(job["argv"])
    d = int(_flag(job["argv"], "--d"))
    lam, vec = g.eigh
    out = work / job["out"]
    est = np.array(json.loads((out / "eigenvalue_estimates.json").read_text())["estimates"])
    problems = []
    if len(est) != d - 1:
        return [f"{len(est)} eigenvalue estimates for d={d}"]
    if (err := _rel(est, lam[1:d])) > LEARN_EIG_TOL:
        problems.append(f"eigenvalue relative error {err:.3f} exceeds {LEARN_EIG_TOL}")
    _, coords, learned = read_embedding(out / "learned_embedding.csv")
    if coords != g.coords:
        return problems + ["learned_embedding.csv cells differ from the reference"]
    scale = max(float(lam[-1]), 1.0)
    for col in range(d - 1):
        i = col + 1
        gaps = [abs(lam[i] - lam[i - 1])] + ([abs(lam[i + 1] - lam[i])] if i + 1 < g.n else [])
        if min(gaps) < DEGENERATE_GAP * scale:
            continue
        a, b = learned[:, col], vec[:, i]
        cos = abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        if not cos >= LEARN_COS_MIN:
            problems.append(f"column e{i + 1}: |cos| {cos:.3f} below {LEARN_COS_MIN}")
    return problems


CHECKS = {
    "env": check_env,
    "embed": check_embed,
    "heatmap": check_heatmap,
    "bottleneck": check_bottleneck,
    "commute_pinv": check_commute_pinv,
    "commute_solve": check_commute_solve,
    "commute_mc": check_commute_mc,
    "verify": check_verify,
    "shape": check_shape,
    "learn": check_learn,
}


def check_outputs(jobs: list[dict], work: Path, stdouts: dict[str, str]) -> dict[str, list[str]]:
    """Problems per job id for the outputs currently in the work directory."""
    refs = Refs(work, jobs)
    result = {}
    for job in jobs:
        try:
            result[job["id"]] = CHECKS[job["cmd"]](job, work, refs, stdouts.get(job["id"], ""))
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            result[job["id"]] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return result


def env_report() -> dict:
    """Versions and BLAS build of the numerical stack, for the results."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }

