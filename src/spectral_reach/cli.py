"""Command line interface.

Subcommands: env, embed, heatmap, verify, learn, shape, bottleneck,
commute.  Exit codes: 0 success, 1 usage or input errors, 2 violated
domain preconditions (disconnection, unreachable goals, missing bias
cells), 3 numerical failures.  Stochastic subcommands require --seed;
all outputs are written atomically and accompanied by a run manifest,
and re-running a command with identical inputs reproduces every output
byte for byte.

Every subcommand runs through one pipeline, ``run``: it loads the
--map once, calls the subcommand, which returns a ``Result``, then
writes the result's files and manifest under --out and prints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import layouts
from .envgrid import MAX_GRID_CELLS, MazeSpec, discretize_continuous, goal_state
from .errors import InputError, SpectralReachError
from .graph import (
    StateGraph,
    bfs_distances,
    build_graph,
    connected_components,
    export_graph_json,
    require_connected,
)
from .manifest import RunManifest, atomic_write_bytes, atomic_write_chunks, sha256_file
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

EMBED_KINDS = {"lap": "laprep", "ra": "ra_laprep"}
EMBEDDERS = {"laprep": laprep, "ra_laprep": ra_laprep}
#: largest heatmap: a grid of MAX_GRID_CELLS cells at the default --scale of 8
MAX_HEATMAP_PIXELS = MAX_GRID_CELLS * 8 ** 2

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


@dataclass
class Result:
    """What a subcommand hands to the pipeline.

    ``files`` maps each output name to its payload: ``str``, ``bytes``, a
    ``dict`` or ``list`` (written as indented JSON), or an iterable of
    byte chunks (streamed).  ``config`` and ``seeds`` go to the manifest.
    """

    stdout: str
    files: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    code: int = 0


def _load_maze(path: str, resolution: int) -> tuple[MazeSpec, str]:
    """Maze of a --map argument and the digest of its input.

    A path that does not exist and has no "/" names the bundled map of
    its stem; its digest is the SHA-256 of its text.  Any other path is
    a file, of the kind its suffix gives, digested byte for byte.  A
    continuous layout is discretized at ``resolution`` cells per unit.
    """
    p = Path(path)
    bundled = layouts.bundled_files().get(p.stem)
    if bundled is not None and not p.exists() and "/" not in path:
        text, kind = bundled.read_text(), layouts.kind_of(bundled.name)
        digest = hashlib.sha256(text.encode()).hexdigest()
    else:
        text, kind, digest = p.read_text(), layouts.kind_of(path), sha256_file(p)
    maze = layouts.parse_map(text, kind)
    if kind == "continuous":
        maze = discretize_continuous(maze, resolution)
    return maze, digest


def _state(maze: MazeSpec, raw: str) -> int:
    """State of the floor cell given as 'x,y'."""
    try:
        x, y = raw.split(",")
        cell = int(x), int(y)
    except ValueError:
        raise InputError(f"expected a cell 'x,y', got {raw!r}") from None
    return goal_state(maze, maze.state_index(), cell)


def _spectral_embeddings(
    g: StateGraph, d: int, kinds: list[str]
) -> tuple[SpectralBasis, dict[str, Embedding]]:
    """Embeddings of dimension d, one per kind, from one eigensolve.

    Only the d smallest eigenpairs are computed: for d < n by the banded
    partial solver, for d = n by the dense full decomposition.  The
    rescaled kind needs a connected graph, which is checked first.
    """
    check_dimension(d, g.n_states)
    if "ra_laprep" in kinds:
        require_connected(g)
    basis = eig_sym(g.laplacian_band() if d < g.n_states else g.dense_laplacian(), d)
    return basis, {kind: EMBEDDERS[kind](basis, d) for kind in kinds}


# ---------------------------------------------------------------------------
# subcommands: each imports the consumer module it runs, and no other
# ---------------------------------------------------------------------------

def cmd_env(args, maze: MazeSpec) -> Result:
    g = build_graph(maze)
    payload = export_graph_json(g, maze.floor_cells)
    n_comp = len(connected_components(g))
    return Result(f"states={g.n_states} edges={len(payload['edges'])} "
                  f"volume={g.volume} components={n_comp}",
                  {"graph.json": payload, "map.txt": maze.render_text() + "\n"})


def cmd_embed(args, maze: MazeSpec) -> Result:
    g = build_graph(maze)
    d = args.d if args.d is not None else g.n_states
    kind = EMBED_KINDS[args.kind]
    basis, embs = _spectral_embeddings(g, d, [kind])
    # basis.json lists all n eigenvalues, even when only d pairs were solved for.
    spectrum = eigvals_banded(g.laplacian_band()) if basis.is_partial else None
    return Result(f"wrote {kind} embedding (d={d}) for {g.n_states} states to {args.out}", {
        "embedding.csv": embedding_to_csv(embs[kind], maze.floor_cells),
        "basis.json": basis_to_json(basis, spectrum),
    }, {"kind": args.kind, "d": d})


def _color(t: float) -> tuple[int, int, int]:
    for (t0, c0), (t1, c1) in zip(COLOR_STOPS, COLOR_STOPS[1:]):
        if t <= t1:
            f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            return tuple(int(round(a + f * (b - a))) for a, b in zip(c0, c1))
    return COLOR_STOPS[-1][1]


def _ppm(maze: MazeSpec, values: dict[tuple[int, int], float], scale: int) -> bytes:
    lo, hi = (min(values.values()), max(values.values())) if values else (0.0, 1.0)
    span = hi - lo if hi > lo else 1.0
    w, h = maze.width * scale, maze.height * scale
    img = np.zeros((h, w, 3), dtype=np.uint8)        # walls stay black
    for (x, y), v in values.items():
        img[y * scale:(y + 1) * scale, x * scale:(x + 1) * scale] = _color((v - lo) / span)
    header = f"P6\n{w} {h}\n255\n".encode()
    return header + img.tobytes()


def cmd_heatmap(args, maze: MazeSpec) -> Result:
    if args.scale < 1:
        raise InputError(f"--scale must be at least 1 pixel per cell, got {args.scale}")
    if maze.width * maze.height * args.scale ** 2 > MAX_HEATMAP_PIXELS:
        raise InputError(f"--scale {args.scale} makes a heatmap of more than "
                         f"{MAX_HEATMAP_PIXELS} pixels")
    index = maze.state_index()
    emb, coords = embedding_from_csv(args.embedding_csv)
    if tuple(coords) != index.coords:
        raise InputError(f"embedding cells differ from the {len(index)} floor cells of the map")
    dist = goal_distances(emb.vectors, _state(maze, args.goal))
    values = {coords[s]: float(dist[s]) for s in range(len(coords))}
    grid_lines = [",".join(f"{values[(x, y)]:.17g}" if (x, y) in values else ""
                           for x in range(maze.width)) for y in range(maze.height)]
    return Result(f"wrote distance grid and heatmap for goal {args.goal} to {args.out}", {
        "dist_grid.csv": "\n".join(grid_lines) + "\n",
        "heatmap.ppm": _ppm(maze, values, args.scale),
    }, {"goal": args.goal, "scale": args.scale})


def cmd_verify(args, _maze: None) -> Result:
    from .verify import run_suite
    try:
        results = run_suite(args.suite)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.suite}:{r.name}"
             + (f"  ({r.detail})" if r.detail else "") for r in results]
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return Result("\n".join(lines), {"verify_report.json": [r.as_dict() for r in results]},
                  {"suite": args.suite}, code=3 if failed else 0)


def cmd_learn(args, maze: MazeSpec) -> Result:
    from .replearn import (PAIR_DISCOUNT, PENALTY_WEIGHT, TrainConfig, collect_dataset,
                           estimate_eigenvalues, learned_ra_laprep, rep_quality,
                           train_graph_drawing, training_log_csv)
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
        seed=args.seed,
    )
    rep = train_graph_drawing(data, d, config)
    lam = estimate_eigenvalues(rep, data)
    emb = learned_ra_laprep(rep, lam)

    basis = eig_sym(g.dense_laplacian())
    truth = ra_laprep(basis, d)
    index = maze.state_index()
    goals = tuple(index.of(c) for c in maze.goal_cells)
    geodesics = {goal: bfs_distances(g, goal) for goal in goals}
    quality = rep_quality(emb, truth, geodesics, goals, full_spectrum=basis.eigenvalues)

    return Result(f"trained d={d} table on {data.total_steps} transitions "
                  f"(tau={args.tau}); outputs in {args.out}", {
        "learned_embedding.csv": embedding_to_csv(emb, maze.floor_cells),
        "eigenvalue_estimates.json": {
            "estimates": [float(v) for v in lam],
            "truth": [float(v) for v in basis.eigenvalues[1:d]],
        },
        "training_log.csv": training_log_csv(rep),
        "quality.json": quality.as_dict(),
    }, {
        "tau": args.tau, "d": d, "episodes": args.episodes,
        "episode_len": args.episode_len, "iterations": config.iterations,
        "batch": config.batch_size, "step_size": config.step_size,
        "sample_discount": PAIR_DISCOUNT, "penalty": PENALTY_WEIGHT,
    }, [args.seed])


def cmd_shape(args, maze: MazeSpec) -> Result:
    from .shaping import (QLearningConfig, REWARD_KINDS, curves_csv, paired_auc_test,
                          run_experiment)
    g = build_graph(maze)
    index = maze.state_index()
    kinds = tuple(k.strip() for k in args.kind.split(","))
    for i, k in enumerate(kinds):
        if k not in REWARD_KINDS:
            raise InputError(f"unknown reward kind {k!r}, expected one of {REWARD_KINDS}")
        if k in kinds[:i]:
            raise InputError(f"reward kind {k!r} is given more than once")
    if args.goal:
        goals = (_state(maze, args.goal),)
    else:
        if not maze.goal_cells:
            raise InputError("no --goal given and the map has no 'G' cells")
        goals = tuple(index.of(c) for c in maze.goal_cells)
    d = args.d if args.d is not None else min(10, g.n_states)
    check_dimension(d, g.n_states)
    embedded = [k for k in kinds if k in EMBEDDERS]
    embeddings = _spectral_embeddings(g, d, embedded)[1] if embedded else {}
    config = QLearningConfig(episodes=args.episodes)
    seeds = tuple(args.seed + i for i in range(args.seeds))
    experiment = run_experiment(maze, kinds, goals, seeds, config, embeddings)
    aggregate = experiment.aggregate()
    report = {"aggregate": aggregate, "paired_tests": {}}
    if "ra_laprep" in kinds:
        for other in kinds:
            if other == "ra_laprep":
                continue
            diff, p = paired_auc_test(experiment, "ra_laprep", other)
            report["paired_tests"][f"ra_laprep>{other}"] = {
                "mean_auc_diff": diff, "p_value": p,
            }
    agg_lines = ["kind,auc,stderr,episodes_to_90pct"]
    for kind in kinds:
        a = aggregate[kind]
        agg_lines.append(f"{kind},{a['auc']:.17g},{a['stderr']:.17g},"
                         f"{a['episodes_to_90pct']}")
    return Result("\n".join(f"{kind}: auc={aggregate[kind]['auc']:.4f} "
                            f"episodes_to_90pct={aggregate[kind]['episodes_to_90pct']}"
                            for kind in kinds), {
        "curves.csv": curves_csv(experiment),
        "aggregate.csv": "\n".join(agg_lines) + "\n",
        "aggregate.json": report,
    }, {
        "kinds": list(kinds), "goals": [list(index.coord(s)) for s in goals],
        "d": d, "episodes": args.episodes, "seeds": args.seeds,
    }, list(seeds))


def cmd_bottleneck(args, maze: MazeSpec) -> Result:
    from .bottleneck import make_report
    g = build_graph(maze)
    d = args.d if args.d is not None else g.n_states
    kind = EMBED_KINDS[args.kind]
    emb = _spectral_embeddings(g, d, [kind])[1][kind]
    report = make_report(emb, args.frac, args.invert)
    selected = set(report.selected)
    lines = ["state_index,x,y,cent,selected"] + [
        f"{s},{x},{y},{c:.17g},{int(s in selected)}"
        for s, ((x, y), c) in enumerate(zip(maze.floor_cells, report.cent.tolist()))]
    return Result(f"selected {len(report.selected)} states: "
                  f"{[maze.floor_cells[s] for s in report.selected]}",
                  {"bottlenecks.csv": "\n".join(lines) + "\n"},
                  {"kind": args.kind, "d": d, "frac": args.frac, "invert": args.invert})


def cmd_commute(args, maze: MazeSpec) -> Result:
    from .commute import commute, commute_mc, symmetric_csv
    g = build_graph(maze)
    if args.method != "mc":
        mat = commute(g, args.method)
        return Result(f"wrote {g.n_states}x{g.n_states} commute matrix ({args.method})",
                      {"commute.csv": symmetric_csv(mat.values)}, {"method": args.method})
    if args.seed is None:
        raise InputError("--seed is required for --method mc")
    if args.pair is None:
        raise InputError("--pair is required for --method mc")
    if args.pair.count(":") != 1:
        raise InputError(f"expected --pair as cells 'x,y:x,y', got {args.pair!r}")
    raw_a, raw_b = args.pair.split(":")
    est = commute_mc(g, _state(maze, raw_a), _state(maze, raw_b),
                     walks=args.walks, seed=args.seed)
    return Result(f"estimate {est.estimate:.4f} (stderr {est.stderr:.4f}, "
                  f"{est.capped} capped walks)", {"mc.json": est.as_dict()},
                  {"method": "mc", "pair": args.pair, "walks": args.walks}, [args.seed])


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
                   default="solve",
                   help="solve: inverse of the grounded Laplacian, O(n^3); pseudo-inverse: "
                        "eigenbasis; mc: seeded random walks for one --pair")
    p.add_argument("--pair", default=None, help="cells 'x,y:x,y' for --method mc")
    p.add_argument("--walks", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_commute)

    return parser


def run(args) -> int:
    """Load the --map once, run the subcommand, write its files and
    manifest under --out, print its stdout and return its exit code."""
    maze, digests = None, {}
    if hasattr(args, "map"):
        maze, digests[args.map] = _load_maze(args.map, args.resolution)
    result = args.func(args, maze)
    if args.out is not None:
        if maze is not None:
            result.config["resolution"] = args.resolution
        if hasattr(args, "embedding_csv"):
            digests[args.embedding_csv] = sha256_file(args.embedding_csv)
        manifest = RunManifest(args.argv, result.config, result.seeds, __version__,
                               digests, list(result.files))
        out = Path(args.out)
        for name, payload in result.files.items():
            if isinstance(payload, (dict, list)):
                payload = json.dumps(payload, indent=2) + "\n"
            if isinstance(payload, str):
                payload = payload.encode()
            if isinstance(payload, bytes):
                atomic_write_bytes(out / name, payload)
            else:
                atomic_write_chunks(out / name, payload)
        atomic_write_bytes(out / "run_manifest.json", manifest.to_json().encode())
    print(result.stdout)
    return result.code


def main(argv=None) -> int:
    parser = build_parser()
    raw = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    args = parser.parse_args(raw)
    args.argv = raw
    with warnings.catch_warnings():
        # a warning is one stderr line, without the source location
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return run(args)
        except SpectralReachError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        # JSONDecodeError is a ValueError; numpy's allocation failures are MemoryErrors
        except (OSError, ValueError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
