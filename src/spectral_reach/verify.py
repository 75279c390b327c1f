"""Invariant suites over the bundled graph zoo, for the verify command.

Each suite returns machine-readable check results; a suite passes when
every check passes.  The checks mirror the package's contracts:
Laplacian structure, spectral identities, commute-time cross-methods,
scaling equivalence, truncation-tail behavior, and bottleneck
selection.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

# Loaded lazily, so traced core functions are read through their module when
# called: a name bound at import would keep a wrapper the core held then.
from . import envgrid, graph, layouts, spectral
from .commute import commute, effective_resistance, first_passage
from .bottleneck import centrality, make_report, top_bottlenecks
from .errors import InputError
from .graph import pseudo_inverse
from .mds import classic_mds, double_center, equivalence_residual
from .spectral import Embedding, tail_bound, truncation_tail


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return asdict(self)


def _zoo():
    for name in layouts.ZOO_NAMES:
        maze = layouts.zoo_maze(name)
        yield name, maze, graph.build_graph(maze)


def suite_env() -> list[CheckResult]:
    out = []
    for name in layouts.ZOO_NAMES:
        maze = layouts.zoo_maze(name)
        round_trip = envgrid.parse_maze(maze.render_text())
        out.append(CheckResult(
            "env", f"{name}:parse-render-roundtrip",
            round_trip == maze, f"{maze.width}x{maze.height}",
        ))
    return out


def suite_graph() -> list[CheckResult]:
    out = []
    for name, maze, g in _zoo():
        lap = g.dense_laplacian()
        sym = np.array_equal(lap, lap.T)      # A is symmetric exactly when L = D - A is
        out.append(CheckResult("graph", f"{name}:adjacency-symmetric", sym, ""))
        rowsum = float(np.max(np.abs(lap.sum(axis=1))))
        out.append(CheckResult(
            "graph", f"{name}:laplacian-zero-rowsums", rowsum <= 1e-12, f"max {rowsum:.2e}",
        ))
        lam = np.linalg.eigvalsh(lap)
        out.append(CheckResult(
            "graph", f"{name}:laplacian-psd", float(lam[0]) >= -1e-10, f"min {lam[0]:.2e}",
        ))
        out.append(CheckResult(
            "graph", f"{name}:connected", len(graph.connected_components(g)) == 1, "",
        ))
        out.append(CheckResult(
            "graph", f"{name}:volume-is-degree-sum",
            g.volume == int(g.degrees.sum()) and g.volume == 2 * len(g.edges()), str(g.volume),
        ))
        basis = spectral.eig_sym(lap)
        plus = pseudo_inverse(g, basis).matrix
        resid = float(np.max(np.abs(lap @ plus @ lap - lap)))
        out.append(CheckResult(
            "graph", f"{name}:pinv-weak-inverse", resid <= 1e-8, f"max {resid:.2e}",
        ))
        centered = float(max(np.max(np.abs(plus.sum(axis=1))), np.max(np.abs(plus.sum(axis=0)))))
        out.append(CheckResult(
            "graph", f"{name}:pinv-doubly-centered", centered <= 1e-9, f"max {centered:.2e}",
        ))
    return out


def suite_spectral() -> list[CheckResult]:
    out = []
    for name, maze, g in _zoo():
        lap = g.dense_laplacian()
        basis = spectral.eig_sym(lap)
        lam, vec = basis.eigenvalues, basis.eigenvectors
        out.append(CheckResult(
            "spectral", f"{name}:lambda1-zero", abs(float(lam[0])) <= 1e-9, f"{lam[0]:.2e}",
        ))
        out.append(CheckResult(
            "spectral", f"{name}:ascending", bool(np.all(np.diff(lam) >= -1e-12)), "",
        ))
        ortho = float(np.max(np.abs(vec.T @ vec - np.eye(g.n_states))))
        out.append(CheckResult(
            "spectral", f"{name}:orthonormal", ortho <= 1e-10, f"max {ortho:.2e}",
        ))
        v1 = vec[:, 0] * np.sqrt(g.n_states)
        out.append(CheckResult(
            "spectral", f"{name}:v1-constant",
            float(np.max(np.abs(np.abs(v1) - 1.0))) <= 1e-9, "",
        ))
        basis2 = spectral.eig_sym(lap)
        bitwise = np.array_equal(basis.eigenvectors, basis2.eigenvectors) and \
            np.array_equal(basis.eigenvalues, basis2.eigenvalues)
        out.append(CheckResult(
            "spectral", f"{name}:sign-deterministic", bool(bitwise), "",
        ))
        # random quadratic form identity: x^T L x = sum over edges of squared diffs
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((42, g.n_states))))
        x = rng.normal(size=g.n_states)
        lhs = float(x @ lap @ x)
        rhs = float(sum((x[i] - x[j]) ** 2 for i, j in g.edges()))
        out.append(CheckResult(
            "spectral", f"{name}:quadratic-form", abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)),
            f"|{lhs:.6f} - {rhs:.6f}|",
        ))
        phi = spectral.ra_laprep(basis, g.n_states)
        for j in range(phi.vectors.shape[1]):
            if abs(np.sum(phi.vectors[:, j])) > 1e-8:
                out.append(CheckResult(
                    "spectral", f"{name}:columns-zero-mean", False, f"column {j}",
                ))
                break
        else:
            out.append(CheckResult("spectral", f"{name}:columns-zero-mean", True, ""))
    return out


def suite_commute() -> list[CheckResult]:
    out = []
    for name, maze, g in _zoo():
        basis = spectral.eig_sym(g.dense_laplacian())
        plus = pseudo_inverse(g, basis)
        m = first_passage(g).values
        n_solve = commute(g, "solve").values
        n_pinv = commute(g, "pseudo-inverse").values
        scale = max(float(n_solve.max()), 1.0)
        agree = float(np.max(np.abs(n_solve - n_pinv))) / scale
        out.append(CheckResult(
            "commute", f"{name}:solve-vs-pinv", agree <= 1e-7, f"rel {agree:.2e}",
        ))
        sym = float(np.max(np.abs(n_solve - n_solve.T))) / scale
        out.append(CheckResult(
            "commute", f"{name}:symmetric", sym <= 1e-9, f"rel {sym:.2e}",
        ))
        fp_identity = float(np.max(np.abs(m + m.T - n_solve))) / scale
        out.append(CheckResult(
            "commute", f"{name}:first-passage-identity", fp_identity <= 1e-9, "",
        ))
        r = np.array([
            [effective_resistance(g, plus, i, j) for j in range(g.n_states)]
            for i in range(g.n_states)
        ])
        res_identity = float(np.max(np.abs(g.volume * r - n_solve))) / scale
        out.append(CheckResult(
            "commute", f"{name}:resistance-identity", res_identity <= 1e-7,
            f"rel {res_identity:.2e}",
        ))
        phi = spectral.ra_laprep(basis, g.n_states)
        d2 = spectral.pairwise_sq_dists(phi)
        ident = float(np.max(np.abs(g.volume * d2 - n_solve))) / scale
        out.append(CheckResult(
            "commute", f"{name}:embedding-identity", ident <= 1e-8, f"rel {ident:.2e}",
        ))
        dist = np.sqrt(n_solve)
        tri = float(np.min(dist[:, :, None] + dist[None, :, :] - dist[:, None, :]))
        out.append(CheckResult(
            "commute", f"{name}:sqrt-triangle-inequality", tri >= -1e-9, f"min {tri:.2e}",
        ))
    return out


def suite_mds() -> list[CheckResult]:
    out = []
    for name, maze, g in _zoo():
        basis = spectral.eig_sym(g.dense_laplacian())
        n_mat = commute(g, "solve").values
        b = double_center(n_mat)
        plus = pseudo_inverse(g, basis).matrix
        gram = float(np.max(np.abs(b - g.volume * plus)))
        out.append(CheckResult(
            "mds", f"{name}:gram-is-volume-pinv", gram <= 1e-9 * max(g.volume, 1),
            f"max {gram:.2e}",
        ))
        res = classic_mds(n_mat)
        out.append(CheckResult(
            "mds", f"{name}:commute-matrix-euclidean", not res.indefinite,
            f"min eig {res.min_eigenvalue:.2e}",
        ))
        x = res.embedding
        sq = np.sum(x * x, axis=1)
        rec = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * x @ x.T, 0))
        rec_err = float(np.max(np.abs(rec - np.sqrt(n_mat))))
        out.append(CheckResult(
            "mds", f"{name}:distance-reconstruction", rec_err <= 1e-6, f"max {rec_err:.2e}",
        ))
        phi = spectral.ra_laprep(basis, g.n_states)
        resid = equivalence_residual(res, phi, g.volume)
        out.append(CheckResult(
            "mds", f"{name}:matches-rescaled-embedding", resid <= 1e-6, f"max {resid:.2e}",
        ))
    return out


def suite_tail() -> list[CheckResult]:
    out = []
    for name, maze, g in _zoo():
        basis = spectral.eig_sym(g.dense_laplacian())
        n = g.n_states
        vol = g.volume
        n_mat = commute(g, "solve").values
        vec, lam = basis.eigenvectors, basis.eigenvalues
        # suffix-accumulate all-pairs tails: tail(d) = sum of eigen terms above d
        tails = np.zeros((n, n))
        ok_monotone = True
        ok_nonneg = bool(np.all(tails >= -1e-9))
        ok_bound = True
        by_d = {n: tails.copy()}
        for d in range(n, 1, -1):
            ok_nonneg &= bool(np.all(tails >= -1e-9))
            ok_bound &= bool(np.all(tails <= tail_bound(basis, d) + 1e-9))
            col = vec[:, d - 1]
            term = vol * (col[:, None] - col[None, :]) ** 2 / lam[d - 1]
            new_tails = tails + term
            ok_monotone &= bool(np.all(new_tails >= tails - 1e-9))
            tails = new_tails
            if d - 1 >= 2:
                by_d[d - 1] = tails.copy()
        # against an independent route: gap between exact commute times and
        # the truncated embedding's rescaled squared distances
        ok_gap = True
        scale = max(float(n_mat.max()), 1.0)
        for d in (2, max(2, n // 2), n):
            phi = spectral.ra_laprep(basis, d)
            approx = vol * spectral.pairwise_sq_dists(phi)
            ok_gap &= bool(np.all(np.abs((n_mat - approx) - by_d[d]) <= 1e-7 * scale))
        # spot-check the scalar operation against the accumulated matrices
        ok_op = abs(truncation_tail(basis, n, 0, n - 1)) == 0.0
        for d in (2, max(2, n // 2)):
            ok_op &= bool(abs(truncation_tail(basis, d, 0, n - 1) - by_d[d][0, n - 1])
                          <= 1e-9 * scale)
        out.append(CheckResult("tail", f"{name}:equals-commute-gap", ok_gap, ""))
        out.append(CheckResult("tail", f"{name}:nonnegative", ok_nonneg, ""))
        out.append(CheckResult("tail", f"{name}:nonincreasing", ok_monotone, ""))
        out.append(CheckResult("tail", f"{name}:zero-at-full-dimension", ok_op, ""))
        out.append(CheckResult("tail", f"{name}:bounded", ok_bound, ""))
    return out


def suite_bottleneck() -> list[CheckResult]:
    out = []
    reports = {}
    for name in ("tworoom", "fourroom"):
        maze = layouts.zoo_maze(name)
        g = graph.build_graph(maze)
        index = maze.state_index()
        basis = spectral.eig_sym(g.dense_laplacian())
        phi = spectral.ra_laprep(basis, g.n_states)
        cent = centrality(phi)
        doors = {index.of(c) for c in layouts.DOORWAYS[name]}
        reports[name] = (maze, g, index, phi, cent, doors)
        out.append(CheckResult(
            "bottleneck", f"{name}:centrality-positive",
            bool(np.all(cent > 0)), "",
        ))
        # Selection is invariant under uniform rescaling of the
        # embedding; asserted at the selection level, since exactly
        # symmetric cells tie within rounding error and their relative
        # order inside the tie is not meaningful.
        scaled = Embedding(kind=phi.kind, vectors=phi.vectors * 3.0)
        same = top_bottlenecks(centrality(scaled), 0.2) == top_bottlenecks(cent, 0.2)
        out.append(CheckResult(
            "bottleneck", f"{name}:scale-invariant-selection", bool(same), "",
        ))

    maze, g, index, phi, cent, doors = reports["tworoom"]
    selected = set(make_report(phi, 0.2).selected)
    out.append(CheckResult(
        "bottleneck", "tworoom:doorway-in-top-20pct",
        doors.issubset(selected),
        f"doors {sorted(doors)}, selected {sorted(selected)}",
    ))
    corners = [index.of(c) for c in ((1, 1), (5, 1), (1, 2), (5, 2))]
    door = next(iter(doors))
    out.append(CheckResult(
        "bottleneck", "tworoom:doorway-beats-room-corners",
        bool(np.all(cent[door] > cent[corners])),
        f"door cent {cent[door]:.5f}, corner max {float(cent[corners].max()):.5f}",
    ))

    # At the standard 10-dimensional embedding the four doorways carry
    # the largest centrality outright; full-dimension distances (the
    # commute metric) dilute their advantage to ~top 23%.
    maze, g, index, phi, cent, doors = reports["fourroom"]
    phi10 = spectral.ra_laprep(spectral.eig_sym(g.dense_laplacian()), 10)
    selected = set(make_report(phi10, 0.2).selected)
    out.append(CheckResult(
        "bottleneck", "fourroom:doorways-in-top-20pct-at-d10",
        doors.issubset(selected),
        f"doors {sorted(doors)}, selected size {len(selected)}",
    ))
    return out


SUITES = {
    "env": suite_env,
    "graph": suite_graph,
    "spectral": suite_spectral,
    "commute": suite_commute,
    "mds": suite_mds,
    "tail": suite_tail,
    "bottleneck": suite_bottleneck,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite, or every suite for the name "all"."""
    if name == "all":
        return [result for suite in SUITES.values() for result in suite()]
    if name not in SUITES:
        raise InputError(
            f"unknown suite {name!r}; available: {', '.join([*SUITES, 'all'])}"
        )
    return SUITES[name]()
