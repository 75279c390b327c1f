"""Command line interface.

Subcommands: env, embed, heatmap, verify, learn, shape, bottleneck,
commute.  Exit codes: 0 success, 1 usage or input errors, 2 violated
domain preconditions (disconnection, unreachable goals, missing bias
cells), 3 numerical failures.  Stochastic subcommands require --seed;
all outputs are written atomically and accompanied by a run manifest,
and re-running a command with identical inputs reproduces every output
byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import layouts
from .commute import commute, commute_mc
from .bottleneck import make_report
from .envgrid import MazeSpec, discretize_continuous, goal_state
from .errors import SpectralReachError
from .graph import (
    StateGraph,
    build_graph,
    connected_components,
    export_graph_json,
    geodesic_matrix,
)
from .manifest import RunManifest, atomic_write_bytes, atomic_write_text, sha256_file
from .replearn import (
    TrainConfig,
    collect_dataset,
    estimate_eigenvalues,
    learned_ra_laprep,
    rep_quality,
    train_graph_drawing,
    training_log_csv,
)
from .shaping import (
    QLearningConfig,
    REWARD_KINDS,
    curves_csv,
    paired_auc_test,
    run_experiment,
)
from .spectral import (
    Embedding,
    SpectralBasis,
    basis_to_json,
    check_dimension,
    eig_sym,
    eigvals_banded,
    embedding_from_csv,
    embedding_to_csv,
    goal_distances,
    laprep,
    ra_laprep,
)
from .verify import run_suite

EMBED_KINDS = {"lap": "laprep", "ra": "ra_laprep"}
EMBEDDERS = {"laprep": laprep, "ra_laprep": ra_laprep}

#: heatmap color stops, linear in normalized value (plasma-like ramp)
COLOR_STOPS = (
    (0.00, (13, 8, 135)),
    (0.25, (126, 3, 168)),
    (0.50, (204, 71, 120)),
    (0.75, (248, 149, 64)),
    (1.00, (240, 249, 33)),
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_map(path: str) -> tuple[str, str, str]:
    """Text, kind and input digest of a --map argument.

    A path that does not exist and has no "/" names the bundled map of
    its stem; its digest is the SHA-256 of its text.  Any other path is
    a file, of the kind its suffix gives, digested byte for byte.
    """
    p = Path(path)
    bundled = layouts.bundled_files().get(p.stem)
    if bundled is not None and not p.exists() and "/" not in path:
        text = bundled.read_text()
        return text, layouts.kind_of(bundled.name), hashlib.sha256(text.encode()).hexdigest()
    return p.read_text(), layouts.kind_of(path), sha256_file(p)


def _load_maze(path: str, resolution: int) -> MazeSpec:
    text, kind, _ = _resolve_map(path)
    maze = layouts.parse_map(text, kind)
    if kind == "continuous":
        return discretize_continuous(maze, resolution)
    return maze


def _parse_cell(raw: str) -> tuple[int, int]:
    try:
        x, y = raw.split(",")
        return int(x), int(y)
    except ValueError:
        raise SpectralReachError(f"expected a cell 'x,y', got {raw!r}") from None


def _manifest(args, config: dict, seeds: list[int]) -> RunManifest:
    m = RunManifest(
        command=list(getattr(args, "argv", [])) or [args.cmd],
        config=config,
        seeds=seeds,
        tool_version=__version__,
    )
    if getattr(args, "map", None):
        m.input_digests[args.map] = _resolve_map(args.map)[2]
    if getattr(args, "embedding_csv", None):
        m.add_input(args.embedding_csv)
    return m


def _write_outputs(out_dir: str, manifest: RunManifest, files: dict[str, str | bytes]) -> None:
    out = Path(out_dir)
    for name, payload in files.items():
        if isinstance(payload, bytes):
            atomic_write_bytes(out / name, payload)
        else:
            atomic_write_text(out / name, payload)
        manifest.outputs.append(name)
    atomic_write_text(out / "run_manifest.json", manifest.to_json())


def _spectral_embeddings(
    g: StateGraph, d: int, kinds: list[str]
) -> tuple[SpectralBasis, dict[str, Embedding]]:
    """Embeddings of dimension d, one per kind, from one eigensolve.

    Only the d smallest eigenpairs are computed: for d < n by the sparse
    partial solver, for d = n by the dense full decomposition.
    """
    check_dimension(d, g.n_states)
    basis = eig_sym(g.laplacian, d)
    return basis, {kind: EMBEDDERS[kind](basis, d) for kind in kinds}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_env(args) -> int:
    maze = _load_maze(args.map, args.resolution)
    g = build_graph(maze)
    payload = export_graph_json(g)
    n_comp = len(connected_components(g))
    print(f"states={g.n_states} edges={len(payload['edges'])} "
          f"volume={g.volume} components={n_comp}")
    if args.out:
        manifest = _manifest(args, {"resolution": args.resolution}, [])
        _write_outputs(args.out, manifest, {
            "graph.json": json.dumps(payload, indent=2) + "\n",
            "map.txt": maze.render_text() + "\n",
        })
    return 0


def cmd_embed(args) -> int:
    maze = _load_maze(args.map, args.resolution)
    g = build_graph(maze)
    d = args.d if args.d is not None else g.n_states
    kind = EMBED_KINDS[args.kind]
    basis, embs = _spectral_embeddings(g, d, [kind])
    # basis.json lists all n eigenvalues, even when only d pairs were solved for.
    spectrum = eigvals_banded(g.laplacian) if basis.is_partial else None
    manifest = _manifest(args, {"kind": args.kind, "d": d, "resolution": args.resolution}, [])
    _write_outputs(args.out, manifest, {
        "embedding.csv": embedding_to_csv(embs[kind], g.coords),
        "basis.json": json.dumps(basis_to_json(basis, spectrum), indent=2) + "\n",
    })
    print(f"wrote {kind} embedding (d={d}) for {g.n_states} states to {args.out}")
    return 0


def _color(t: float) -> tuple[int, int, int]:
    for (t0, c0), (t1, c1) in zip(COLOR_STOPS, COLOR_STOPS[1:]):
        if t <= t1:
            f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            return tuple(int(round(a + f * (b - a))) for a, b in zip(c0, c1))
    return COLOR_STOPS[-1][1]


def _ppm(maze: MazeSpec, values: dict[tuple[int, int], float], scale: int) -> bytes:
    finite = [v for v in values.values()]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 1.0)
    span = hi - lo if hi > lo else 1.0
    w, h = maze.width * scale, maze.height * scale
    img = np.zeros((h, w, 3), dtype=np.uint8)
    for y in range(maze.height):
        for x in range(maze.width):
            if (x, y) in values:
                rgb = _color((values[(x, y)] - lo) / span)
            else:
                rgb = (0, 0, 0)
            img[y * scale:(y + 1) * scale, x * scale:(x + 1) * scale] = rgb
    header = f"P6\n{w} {h}\n255\n".encode()
    return header + img.tobytes()


def cmd_heatmap(args) -> int:
    if args.scale < 1:
        raise SpectralReachError(f"--scale must be at least 1 pixel per cell, got {args.scale}")
    maze = _load_maze(args.map, args.resolution)
    index = maze.state_index()
    emb, coords = embedding_from_csv(Path(args.embedding_csv).read_text())
    if tuple(coords) != index.coords:
        raise SpectralReachError(
            f"embedding cells differ from the {len(index)} floor cells of the map"
        )
    goal = goal_state(maze, index, _parse_cell(args.goal))
    dist = goal_distances(emb.vectors, goal)
    values = {coords[s]: float(dist[s]) for s in range(len(coords))}
    grid_lines = []
    for y in range(maze.height):
        row = []
        for x in range(maze.width):
            row.append(f"{values[(x, y)]:.17g}" if (x, y) in values else "")
        grid_lines.append(",".join(row))
    manifest = _manifest(args, {"goal": args.goal, "scale": args.scale,
                                "resolution": args.resolution}, [])
    _write_outputs(args.out, manifest, {
        "dist_grid.csv": "\n".join(grid_lines) + "\n",
        "heatmap.ppm": _ppm(maze, values, args.scale),
    })
    print(f"wrote distance grid and heatmap for goal {args.goal} to {args.out}")
    return 0


def cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status} {r.suite}:{r.name}{detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.out:
        manifest = _manifest(args, {"suite": args.suite}, [])
        report = json.dumps([r.as_dict() for r in results], indent=2) + "\n"
        _write_outputs(args.out, manifest, {"verify_report.json": report})
    return 3 if failed else 0


def cmd_learn(args) -> int:
    maze = _load_maze(args.map, args.resolution)
    g = build_graph(maze)
    data = collect_dataset(
        maze,
        episodes=args.episodes,
        episode_len=args.episode_len,
        temperature=args.tau,
        seed=args.seed,
    )
    d = args.d if args.d is not None else min(10, g.n_states)
    config = TrainConfig(
        iterations=args.iterations,
        batch_size=args.batch,
        step_size=args.step_size,
        discount=args.sample_discount,
        penalty_weight=args.penalty,
        seed=args.seed,
    )
    rep = train_graph_drawing(data, d, config)
    lam = estimate_eigenvalues(rep, data)
    emb = learned_ra_laprep(rep, lam)

    basis = eig_sym(g.laplacian)
    truth = ra_laprep(basis, d)
    index = maze.state_index()
    goals = tuple(index.of(c) for c in maze.goal_cells)
    quality = rep_quality(emb, truth, geodesic_matrix(g), goals,
                          full_spectrum=basis.eigenvalues)

    manifest = _manifest(args, {
        "tau": args.tau, "d": d, "episodes": args.episodes,
        "episode_len": args.episode_len, "iterations": config.iterations,
        "batch": config.batch_size, "step_size": config.step_size,
        "sample_discount": config.discount, "penalty": config.penalty_weight,
        "resolution": args.resolution,
    }, [args.seed])
    _write_outputs(args.out, manifest, {
        "learned_embedding.csv": embedding_to_csv(emb, g.coords),
        "eigenvalue_estimates.json": json.dumps({
            "estimates": [float(v) for v in lam],
            "truth": [float(v) for v in basis.eigenvalues[1:d]],
        }, indent=2) + "\n",
        "training_log.csv": training_log_csv(rep),
        "quality.json": json.dumps(quality.as_dict(), indent=2) + "\n",
    })
    print(f"trained d={d} table on {data.total_steps} transitions "
          f"(tau={args.tau}); outputs in {args.out}")
    return 0


def cmd_shape(args) -> int:
    maze = _load_maze(args.map, args.resolution)
    g = build_graph(maze)
    index = maze.state_index()
    kinds = tuple(k.strip() for k in args.kind.split(","))
    for k in kinds:
        if k not in REWARD_KINDS:
            raise SpectralReachError(
                f"unknown reward kind {k!r}, expected one of {REWARD_KINDS}"
            )
    if args.goal:
        goals = (goal_state(maze, index, _parse_cell(args.goal)),)
    else:
        if not maze.goal_cells:
            raise SpectralReachError(
                "no --goal given and the map has no 'G' cells"
            )
        goals = tuple(index.of(c) for c in maze.goal_cells)
    d = args.d if args.d is not None else min(10, g.n_states)
    embedded = [k for k in kinds if k in EMBEDDERS]
    embeddings = _spectral_embeddings(g, d, embedded)[1] if embedded else {}
    config = QLearningConfig(episodes=args.episodes)
    seeds = tuple(args.seed + i for i in range(args.seeds))
    run = run_experiment(maze, kinds, goals, seeds, config, embeddings)
    aggregate = run.aggregate()
    report = {"aggregate": aggregate, "paired_tests": {}}
    if "ra_laprep" in kinds:
        for other in kinds:
            if other == "ra_laprep":
                continue
            diff, p = paired_auc_test(run, "ra_laprep", other)
            report["paired_tests"][f"ra_laprep>{other}"] = {
                "mean_auc_diff": diff, "p_value": p,
            }
    agg_lines = ["kind,auc,stderr,episodes_to_90pct"]
    for kind in kinds:
        a = aggregate[kind]
        agg_lines.append(f"{kind},{a['auc']:.17g},{a['stderr']:.17g},"
                         f"{a['episodes_to_90pct']}")
    manifest = _manifest(args, {
        "kinds": list(kinds), "goals": [list(index.coord(s)) for s in goals],
        "d": d, "episodes": args.episodes, "seeds": args.seeds,
        "resolution": args.resolution,
    }, list(seeds))
    _write_outputs(args.out, manifest, {
        "curves.csv": curves_csv(run),
        "aggregate.csv": "\n".join(agg_lines) + "\n",
        "aggregate.json": json.dumps(report, indent=2) + "\n",
    })
    for kind in kinds:
        a = aggregate[kind]
        print(f"{kind}: auc={a['auc']:.4f} episodes_to_90pct={a['episodes_to_90pct']}")
    return 0


def cmd_bottleneck(args) -> int:
    maze = _load_maze(args.map, args.resolution)
    g = build_graph(maze)
    d = args.d if args.d is not None else g.n_states
    kind = EMBED_KINDS[args.kind]
    emb = _spectral_embeddings(g, d, [kind])[1][kind]
    report = make_report(emb, args.frac, args.invert)
    lines = ["state_index,x,y,cent,selected"]
    selected = set(report.selected)
    for s in range(g.n_states):
        x, y = g.coords[s]
        lines.append(f"{s},{x},{y},{report.cent[s]:.17g},{int(s in selected)}")
    manifest = _manifest(args, {
        "kind": args.kind, "d": d, "frac": args.frac,
        "invert": args.invert, "resolution": args.resolution,
    }, [])
    _write_outputs(args.out, manifest, {"bottlenecks.csv": "\n".join(lines) + "\n"})
    coords = [g.coords[s] for s in report.selected]
    print(f"selected {len(report.selected)} states: {coords}")
    return 0


def cmd_commute(args) -> int:
    maze = _load_maze(args.map, args.resolution)
    g = build_graph(maze)
    if args.method in ("solve", "pseudo-inverse"):
        mat = commute(g, args.method)
        buf = io.StringIO()
        np.savetxt(buf, mat.values, fmt="%.17g", delimiter=",")
        manifest = _manifest(args, {"method": args.method,
                                    "resolution": args.resolution}, [])
        _write_outputs(args.out, manifest, {"commute.csv": buf.getvalue()})
        print(f"wrote {g.n_states}x{g.n_states} commute matrix ({args.method})")
        return 0
    if args.method == "mc":
        if args.seed is None:
            raise SpectralReachError("--seed is required for --method mc")
        if args.pair is None:
            raise SpectralReachError("--pair is required for --method mc")
        index = maze.state_index()
        if args.pair.count(":") != 1:
            raise SpectralReachError(f"expected --pair as cells 'x,y:x,y', got {args.pair!r}")
        raw_a, raw_b = args.pair.split(":")
        s = goal_state(maze, index, _parse_cell(raw_a))
        s2 = goal_state(maze, index, _parse_cell(raw_b))
        est = commute_mc(g, s, s2, walks=args.walks, seed=args.seed)
        manifest = _manifest(args, {
            "method": "mc", "pair": args.pair, "walks": args.walks,
            "resolution": args.resolution,
        }, [args.seed])
        _write_outputs(args.out, manifest, {
            "mc.json": json.dumps(est.as_dict(), indent=2) + "\n",
        })
        print(f"estimate {est.estimate:.4f} (stderr {est.stderr:.4f}, "
              f"{est.capped} capped walks)")
        return 0
    raise SpectralReachError(f"unknown method {args.method!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spectral-reach",
                     description="Spectral reachability toolkit for grid mazes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def add_map(p, required=True):
        p.add_argument("--map", required=required,
                       help="path to an ASCII map (.txt) or continuous layout (.json)")
        p.add_argument("--resolution", type=int, default=1,
                       help="cells per unit when discretizing a continuous layout")

    p = sub.add_parser("env", help="parse a map and export its state graph")
    add_map(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_env)

    p = sub.add_parser("embed", help="write a spectral embedding as CSV")
    add_map(p)
    p.add_argument("--kind", choices=sorted(EMBED_KINDS), default="ra")
    p.add_argument("--d", type=int, default=None,
                   help="embedding dimension (default: all states)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("heatmap", help="distance-to-goal grid and raster image")
    p.add_argument("embedding_csv", help="embedding CSV from the embed command")
    add_map(p)
    p.add_argument("--goal", required=True, help="goal cell as 'x,y'")
    p.add_argument("--scale", type=int, default=8, help="pixels per cell")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("verify", help="run an invariant suite on the graph zoo")
    p.add_argument("--suite", required=True,
                   help="env, graph, spectral, commute, mds, tail, bottleneck, or all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("learn", help="train the tabular representation from walks")
    add_map(p)
    p.add_argument("--tau", type=float, default=0.0,
                   help="start-state bias temperature")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--episode-len", type=int, default=50)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--batch", type=int, default=1024)
    p.add_argument("--step-size", type=float, default=1e-3)
    p.add_argument("--sample-discount", type=float, default=0.9)
    p.add_argument("--penalty", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("shape", help="shaped-reward Q-learning experiment")
    add_map(p)
    p.add_argument("--kind", default="ra_laprep,laprep,l2,none",
                   help="comma-separated reward kinds")
    p.add_argument("--goal", default=None, help="goal cell 'x,y' (default: all G cells)")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--seed", type=int, required=True, help="base seed")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("bottleneck", help="embedding-distance centrality report")
    add_map(p)
    p.add_argument("--kind", choices=sorted(EMBED_KINDS), default="ra")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--frac", type=float, default=0.2)
    p.add_argument("--invert", action="store_true",
                   help="select the lowest-centrality states instead")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser("commute", help="exact or sampled commute times")
    add_map(p)
    p.add_argument("--method", choices=["solve", "pseudo-inverse", "mc"],
                   default="solve")
    p.add_argument("--pair", default=None, help="cells 'x,y:x,y' for --method mc")
    p.add_argument("--walks", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_commute)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    raw = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    args = parser.parse_args(raw)
    args.argv = raw
    try:
        return args.func(args)
    except SpectralReachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
