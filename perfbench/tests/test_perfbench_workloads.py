"""The benchmark's input generators and its metric declarations."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2, 17, 123456789)


def materialized(tmp_path, workload, seed):
    root = tmp_path / f"{workload}-{seed}"
    spec = workloads.materialize(workload, seed, root)
    files = {rel: (root / rel).read_bytes() for rel in spec["files"]}
    return spec, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_bytes(tmp_path, workload):
    spec_a, files_a = materialized(tmp_path / "a", workload, 5)
    spec_b, files_b = materialized(tmp_path / "b", workload, 5)
    assert files_a == files_b
    assert spec_a == spec_b
    assert workloads.jobs(spec_a) == workloads.jobs(spec_b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_inputs(tmp_path, workload):
    a = materialized(tmp_path, workload, 0)
    b = materialized(tmp_path, workload, 1)
    assert a != b


@pytest.mark.parametrize("seed", SEEDS)
def test_full_spectrum_maps_connected_at_fixed_size(tmp_path, seed):
    spec, files = materialized(tmp_path, "full-spectrum", seed)
    grid = checks.parse_ascii(files["inputs/grid.txt"].decode())
    solve = checks.parse_ascii(files["inputs/solve.txt"].decode())
    assert (grid.n, solve.n) == (1048, 328)
    assert grid.components == solve.components == 1
    assert tuple(spec["goal"]) in grid.index


@pytest.mark.parametrize("seed", SEEDS)
def test_layout_connected_at_fixed_size(tmp_path, seed):
    spec, files = materialized(tmp_path, "low-dim-large", seed)
    grid = checks.discretize(json.loads(files["inputs/layout.json"]),
                             workloads.LAYOUT_RESOLUTION)
    assert grid.n == 3232            # under the package's 4,096-state dense cap
    assert grid.components == 1
    assert tuple(spec["goal"]) in grid.index


@pytest.mark.parametrize("seed", SEEDS)
def test_sampling_inputs(tmp_path, seed):
    spec, files = materialized(tmp_path, "sampling", seed)
    four = checks.parse_ascii(files["inputs/fourroom.txt"].decode())
    assert four.n == 104 and four.components == 1
    assert four.rows[spec["goal"][1]][spec["goal"][0]] == "G"
    assert spec["learn_seed"] in workloads.LEARN_SEEDS


def test_benchmark_json_matches_the_runner():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER]
    assert bench["paths"] == [BENCH.name]


def test_per_layer_reports_every_metric_from_an_empty_trace():
    trace = {"spans": [["cli.main", 0, 2_000_000_000, -1, "env"],
                       ["graph.build_graph", 0, 500_000_000, 0, "env"]],
             "counts": {}, "maxima": {},
             "untraced": [{"s": 2.0}], "traced": [{"s": 2.0}]}
    values = layers.per_layer(trace, import_s=1.0, outputs_changed=0)
    assert list(values) == [name for name, _, _ in layers.PER_LAYER]
    assert values["graph.build_s"] == pytest.approx(0.5)
    assert values["cli.self_s"] == pytest.approx(1.5)
    assert values["trace.coverage"] == pytest.approx(0.25)


def test_summary_reports_a_tail_percentile_only_with_ten_samples_beyond():
    assert run.summarize([1.0] * 19) == "median 1.0000 n=19"
    assert "p50" not in run.summarize([1.0] * 20)
    assert "p90=" in run.summarize([float(i) for i in range(100)])
