"""Per-layer metrics from a traced pass, each with the end-to-end metric it
should move.  Standard library only.

A span's self time is its duration minus the time its child spans cover.
Spans are recorded in one thread, so children never overlap and their
covered time is the sum of their durations.
"""

from __future__ import annotations

from collections import defaultdict

# name, unit, predicted effect: (end-to-end metric, workload) pairs
PER_LAYER = (
    ("envgrid.parse_s", "s", "env_cpu_s on low-dim-large"),
    ("envgrid.step_calls", "count", "shape_cpu_s on sampling (dynamics rebuilt per consumer)"),
    ("envgrid.index_lookups", "count", "env_cpu_s, shape_cpu_s wherever step tables are rebuilt"),
    ("graph.build_s", "s", "env_cpu_s, embed_cpu_s, peak_rss_mb on low-dim-large"),
    ("graph.build_calls", "count", "env_cpu_s, embed_cpu_s on low-dim-large; shape_cpu_s on "
     "sampling"),
    ("graph.dense_bytes", "bytes", "peak_rss_mb on low-dim-large"),
    ("graph.components_s", "s", "learn_cpu_s, shape_cpu_s on sampling; env_cpu_s on "
     "low-dim-large"),
    ("graph.geodesic_s", "s", "learn_cpu_s, shape_cpu_s on sampling; env_cpu_s on low-dim-large"),
    ("graph.bfs_calls", "count", "learn_cpu_s, shape_cpu_s on sampling"),
    ("spectral.eigh_s", "s", "embed_cpu_s, bottleneck_cpu_s on low-dim-large; "
     "commute_pinv_cpu_s on full-spectrum; ~0 on sampling"),
    ("spectral.eigh_calls", "count", "embed_cpu_s, bottleneck_cpu_s on low-dim-large"),
    ("spectral.eigh_n_max", "count", "embed_cpu_s, bottleneck_cpu_s on low-dim-large"),
    ("spectral.embed_s", "s", "bottleneck_cpu_s on full-spectrum and low-dim-large"),
    ("spectral.pairwise_s", "s", "bottleneck_cpu_s on full-spectrum and low-dim-large"),
    ("spectral.csv_write_s", "s", "embed_cpu_s on full-spectrum; ~0 on low-dim-large"),
    ("spectral.csv_read_s", "s", "heatmap_cpu_s on full-spectrum; ~0 on low-dim-large"),
    ("commute.first_passage_s", "s", "commute_solve_cpu_s on full-spectrum"),
    ("commute.lu_solves", "count", "commute_solve_cpu_s on full-spectrum"),
    ("commute.pinv_s", "s", "commute_pinv_cpu_s on full-spectrum"),
    ("commute.mc_s", "s", "commute_mc_cpu_s on sampling"),
    ("commute.mc_walk_steps", "count", "commute_mc_cpu_s on sampling"),
    ("commute.mc_capped", "count", "commute_mc_cpu_s on sampling"),
    ("mds.classic_s", "s", "verify_cpu_s on full-spectrum"),
    ("mds.calls", "count", "verify_cpu_s on full-spectrum"),
    ("replearn.collect_s", "s", "learn_cpu_s on sampling"),
    ("replearn.transitions", "count", "learn_cpu_s on sampling"),
    ("replearn.train_s", "s", "learn_cpu_s on sampling"),
    ("replearn.train_iters", "count", "learn_cpu_s on sampling"),
    ("replearn.iters_per_s", "1/s", "learn_cpu_s on sampling"),
    ("replearn.quality_s", "s", "learn_cpu_s on sampling"),
    ("replearn.eig_rel_err_max", "ratio", "quality guard on sampling, not a speed metric"),
    ("shaping.q_learning_s", "s", "shape_cpu_s on sampling"),
    ("shaping.runs", "count", "shape_cpu_s on sampling"),
    ("shaping.env_steps", "count", "shape_cpu_s on sampling"),
    ("shaping.env_steps_per_s", "1/s", "shape_cpu_s on sampling"),
    ("shaping.success_ratio", "ratio", "useful work of shape_cpu_s on sampling"),
    ("shaping.curves_csv_s", "s", "shape_cpu_s on sampling"),
    ("bottleneck.centrality_s", "s", "bottleneck_cpu_s on low-dim-large and full-spectrum"),
    ("verify.suite_s", "s", "verify_cpu_s on full-spectrum"),
    ("manifest.write_s", "s", "embed_cpu_s, commute_pinv_cpu_s on full-spectrum"),
    ("manifest.bytes_written", "bytes", "embed_cpu_s, commute_pinv_cpu_s on full-spectrum"),
    ("manifest.files_written", "count", "embed_cpu_s, commute_pinv_cpu_s on full-spectrum"),
    ("cli.import_s", "s", "every per-command *_cpu_s on every workload; most of env_cpu_s, "
     "verify_cpu_s"),
    ("cli.self_s", "s", "heatmap_cpu_s (PPM and grid loops) on full-spectrum and low-dim-large"),
    ("cli.outputs_changed", "count", "byte-identity oracle; -1 when no digests are recorded "
     "for the seed"),
    ("trace.coverage", "ratio", "share of in-process job time inside named layer spans"),
    ("trace.overhead_frac", "ratio", "traced against untraced in-process pass"),
)


def _seconds(spans: list[list]) -> tuple[list[float], list[float]]:
    """Duration and self time (duration minus child spans) of each span."""
    duration = [(end - start) / 1e9 for _name, start, end, _parent, _job in spans]
    own = list(duration)
    for i, (_name, _start, _end, parent, _job) in enumerate(spans):
        if parent >= 0:
            own[parent] -= duration[i]
    return duration, own


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Total seconds, self seconds and call count per span name."""
    total: dict[str, float] = defaultdict(float)
    own_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, d, o in zip(spans, *_seconds(spans)):
        total[span[0]] += d
        own_total[span[0]] += o
        calls[span[0]] += 1
    return total, own_total, calls


def per_layer(trace: dict, import_s: float, outputs_changed: int) -> dict[str, float]:
    """Every PER_LAYER metric, from the tracer's result."""
    total, own, calls = span_totals(trace["spans"])
    counts, maxima = trace["counts"], trace["maxima"]
    main_s = total["cli.main"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {
        "envgrid.parse_s": total["envgrid.parse"],
        "envgrid.step_calls": counts.get("envgrid.step_calls", 0),
        "envgrid.index_lookups": counts.get("envgrid.index_lookups", 0),
        "graph.build_s": total["graph.build_graph"],
        "graph.build_calls": counts.get("graph.build_calls", 0),
        "graph.dense_bytes": counts.get("graph.dense_bytes", 0),
        "graph.components_s": total["graph.connected_components"],
        "graph.geodesic_s": total["graph.geodesic_matrix"],
        "graph.bfs_calls": counts.get("graph.bfs_calls", 0),
        "spectral.eigh_s": total["spectral.eig_sym"],
        "spectral.eigh_calls": counts.get("spectral.eigh_calls", 0),
        "spectral.eigh_n_max": maxima.get("spectral.eigh_n_max", 0),
        "spectral.embed_s": total["spectral.embed"],
        "spectral.pairwise_s": total["spectral.pairwise_sq_dists"],
        "spectral.csv_write_s": total["spectral.embedding_to_csv"],
        "spectral.csv_read_s": total["spectral.embedding_from_csv"],
        "commute.first_passage_s": total["commute.first_passage"],
        "commute.lu_solves": counts.get("commute.lu_solves", 0),
        "commute.pinv_s": own["commute.commute[pseudo-inverse]"],
        "commute.mc_s": total["commute.commute_mc"],
        "commute.mc_walk_steps": counts.get("commute.mc_walk_steps", 0),
        "commute.mc_capped": counts.get("commute.mc_capped", 0),
        "mds.classic_s": total["mds.classic_mds"],
        "mds.calls": calls["mds.classic_mds"],
        "replearn.collect_s": total["replearn.collect_dataset"],
        "replearn.transitions": counts.get("replearn.transitions", 0),
        "replearn.train_s": total["replearn.train_graph_drawing"],
        "replearn.train_iters": counts.get("replearn.train_iters", 0),
        "replearn.iters_per_s": ratio(counts.get("replearn.train_iters", 0),
                                      total["replearn.train_graph_drawing"]),
        "replearn.quality_s": total["replearn.rep_quality"],
        "replearn.eig_rel_err_max": maxima.get("replearn.eig_rel_err_max", 0.0),
        "shaping.q_learning_s": total["shaping.q_learning"],
        "shaping.runs": counts.get("shaping.runs", 0),
        "shaping.env_steps": counts.get("shaping.env_steps", 0),
        "shaping.env_steps_per_s": ratio(counts.get("shaping.env_steps", 0),
                                         total["shaping.q_learning"]),
        "shaping.success_ratio": ratio(counts.get("shaping.successes", 0),
                                       counts.get("shaping.episodes", 0)),
        "shaping.curves_csv_s": total["shaping.curves_csv"],
        "bottleneck.centrality_s": total["bottleneck.centrality"],
        "verify.suite_s": total["verify.run_suite"],
        "manifest.write_s": total["manifest.atomic_write_bytes"],
        "manifest.bytes_written": counts.get("manifest.bytes_written", 0),
        "manifest.files_written": counts.get("manifest.files_written", 0),
        "cli.import_s": import_s,
        "cli.self_s": own["cli.main"],
        "cli.outputs_changed": outputs_changed,
        "trace.coverage": ratio(main_s - own["cli.main"], main_s),
        "trace.overhead_frac": ratio(sum(j["s"] for j in trace["traced"]),
                                     sum(j["s"] for j in trace["untraced"])) - 1.0,
    }
    return values


def job_coverage(spans: list[list]) -> dict[str, float]:
    """Share of each job's cli.main time covered by named layer spans."""
    main: dict[str, float] = defaultdict(float)
    uncovered: dict[str, float] = defaultdict(float)
    for (name, _start, _end, _parent, job), d, o in zip(spans, *_seconds(spans)):
        if name == "cli.main":
            main[job] += d
            uncovered[job] += o
    return {job: 1.0 - uncovered[job] / main[job] for job in main if main[job] > 0}
