"""End-to-end command line behavior: outputs, exit codes, manifests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectral_reach
from spectral_reach import cli, graph, layouts
from spectral_reach.cli import main
from spectral_reach.commute import commute
from spectral_reach.manifest import sha256_file

SPLIT = "#######\n#..#..#\n#..#..#\n#######\n"


def run_python(code_or_args, *, module=False):
    """Run a fresh interpreter that imports the package under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(spectral_reach.__file__).parents[1]))
    argv = ["-m", "spectral_reach.cli", *code_or_args] if module else ["-c", code_or_args]
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def _no_constants(name):
    raise ValueError(f"{name} is not strict JSON")


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# env
# ---------------------------------------------------------------------------

class TestEnv:
    def test_bundled_map_stats_line(self, capsys):
        assert main(["env", "--map", "tworoom"]) == 0
        assert capsys.readouterr().out == "states=9 edges=10 volume=20 components=1\n"

    def test_map_from_file_path(self, tmp_path, capsys):
        p = tmp_path / "rooms.txt"
        p.write_text(layouts.bundled_text("tworoom"))
        assert main(["env", "--map", str(p)]) == 0
        assert "states=9" in capsys.readouterr().out

    def test_missing_file_exits_one_and_names_path(self, capsys):
        assert main(["env", "--map", "no_such_map.txt"]) == 1
        assert "no_such_map.txt" in capsys.readouterr().err

    def test_disconnected_map_reported_not_fatal(self, tmp_path, capsys):
        p = tmp_path / "split.txt"
        p.write_text(SPLIT)
        assert main(["env", "--map", str(p)]) == 0
        assert "components=2" in capsys.readouterr().out

    def test_graph_export_written(self, tmp_path):
        out = tmp_path / "env"
        assert main(["env", "--map", "tworoom", "--out", str(out)]) == 0
        payload = json.loads((out / "graph.json").read_text())
        assert payload["n"] == 9
        assert len(payload["edges"]) == 10
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest["outputs"]) == {"graph.json", "map.txt"}


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

class TestEmbed:
    def test_two_state_rescaled_coordinates(self, tmp_path):
        out = tmp_path / "k2"
        assert main(["embed", "--map", "k2", "--kind", "ra", "--d", "2",
                     "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "embedding.csv")
        assert header == ["state_index", "x", "y", "e2"]
        values = [float(r[3]) for r in rows]
        assert values == pytest.approx([0.5, -0.5])

    def test_disconnected_map_exits_two(self, tmp_path):
        p = tmp_path / "split.txt"
        p.write_text(SPLIT)
        assert main(["embed", "--map", str(p), "--kind", "ra",
                     "--out", str(tmp_path / "x")]) == 2

    def test_dimension_ten_gives_nine_columns(self, tmp_path):
        out = tmp_path / "fr"
        assert main(["embed", "--map", "fourroom", "--kind", "ra", "--d", "10",
                     "--out", str(out)]) == 0
        header, _ = read_csv_rows(out / "embedding.csv")
        assert header[3:] == [f"e{i}" for i in range(2, 11)]

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--map", "k2"])          # no --out
        assert exc.value.code == 1

    def test_low_dimension_runs_beyond_the_dense_cap(self, tmp_path):
        # 5,004 states: above the dense solver's cap, which d < n does not use.
        out = tmp_path / "ca5"
        assert main(["embed", "--map", "continuous_a", "--resolution", "5",
                     "--d", "10", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "embedding.csv")
        assert header[3:] == [f"e{i}" for i in range(2, 11)] and len(rows) == 5004
        lam = np.array(json.loads((out / "basis.json").read_text())["eigenvalues"])
        assert len(lam) == 5004 and np.all(np.diff(lam) >= -1e-12)
        # Rescaled columns c_i = v_i / sqrt(lambda_i) have c_i^T c_i = 1 / lambda_i.
        c = np.array([[float(v) for v in r[3:]] for r in rows])
        assert np.sum(c * c, axis=0) == pytest.approx(1.0 / lam[1:10], rel=1e-8)

    def test_full_dimension_beyond_the_dense_cap_is_refused(self, tmp_path, capsys):
        assert main(["embed", "--map", "continuous_a", "--resolution", "5",
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            "error: matrix size 5004 exceeds the dense solver cap 4096\n")

    def test_low_dimension_rerun_is_byte_identical(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["embed", "--map", "fourroom", "--d", "10", "--out", str(out)]) == 0
        for name in ("embedding.csv", "basis.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------

@pytest.fixture()
def k2_embedding(tmp_path):
    out = tmp_path / "k2emb"
    assert main(["embed", "--map", "k2", "--kind", "ra", "--d", "2",
                 "--out", str(out)]) == 0
    return out / "embedding.csv"


class TestHeatmap:
    def test_distance_grid_to_right_cell(self, tmp_path, k2_embedding):
        out = tmp_path / "heat"
        assert main(["heatmap", str(k2_embedding), "--map", "k2",
                     "--goal", "2,1", "--out", str(out)]) == 0
        rows = (out / "dist_grid.csv").read_text().strip().split("\n")
        assert rows[0] == ",,,"                      # wall row: empty fields
        cells = rows[1].split(",")
        assert float(cells[1]) == pytest.approx(1.0)
        assert float(cells[2]) == 0.0
        ppm = (out / "heatmap.ppm").read_bytes()
        assert ppm.startswith(b"P6\n")

    def test_wall_goal_exits_two(self, tmp_path, k2_embedding):
        assert main(["heatmap", str(k2_embedding), "--map", "k2",
                     "--goal", "0,0", "--out", str(tmp_path / "x")]) == 2

    def test_embedding_of_another_map_refused(self, tmp_path, capsys):
        # Same state count, different cells: a 1x3 row against a 3x1 column.
        row, col = tmp_path / "row.txt", tmp_path / "col.txt"
        row.write_text("#####\n#...#\n#####\n")
        col.write_text("###\n#.#\n#.#\n#.#\n###\n")
        assert main(["embed", "--map", str(row), "--out", str(tmp_path / "emb")]) == 0
        capsys.readouterr()
        assert main(["heatmap", str(tmp_path / "emb" / "embedding.csv"), "--map", str(col),
                     "--goal", "1,1", "--out", str(tmp_path / "heat")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "heat").exists()

    def test_three_state_path_profile(self, tmp_path):
        emb_dir = tmp_path / "p3emb"
        assert main(["embed", "--map", "p3", "--kind", "ra",
                     "--out", str(emb_dir)]) == 0
        out = tmp_path / "heat3"
        assert main(["heatmap", str(emb_dir / "embedding.csv"), "--map", "p3",
                     "--goal", "3,1", "--out", str(out)]) == 0
        rows = (out / "dist_grid.csv").read_text().strip().split("\n")
        values = [float(v) for v in rows[1].split(",")[1:4]]
        assert values == pytest.approx([np.sqrt(2), 1.0, 0.0])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    def test_commute_suite_passes(self, capsys):
        assert main(["verify", "--suite", "commute"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_mds_suite_passes(self, capsys):
        assert main(["verify", "--suite", "mds"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 1
        assert "available" in capsys.readouterr().err

    def test_report_written(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["verify", "--suite", "bottleneck", "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report and all(entry["passed"] for entry in report)

    def test_full_report_is_json_with_true_flags(self, tmp_path):
        out = tmp_path / "all"
        assert main(["verify", "--suite", "all", "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert {entry["suite"] for entry in report} >= {"tail", "mds"}
        assert all(entry["passed"] is True for entry in report)


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

class TestLearn:
    def test_smoke_outputs(self, tmp_path, capsys):
        out = tmp_path / "learn"
        assert main(["learn", "--map", "tworoom", "--seed", "1", "--d", "5",
                     "--episodes", "400", "--episode-len", "50",
                     "--iterations", "1500", "--batch", "256",
                     "--step-size", "0.01", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"learned_embedding.csv", "eigenvalue_estimates.json",
                         "training_log.csv", "quality.json", "run_manifest.json"}
        quality = json.loads((out / "quality.json").read_text())
        assert len(quality["cosines"]) == 4
        est = json.loads((out / "eigenvalue_estimates.json").read_text())
        assert len(est["estimates"]) == len(est["truth"]) == 4

    def test_biased_walks_at_high_temperature_exit_two(self, tmp_path):
        assert main(["learn", "--map", "biased", "--tau", "10", "--seed", "0",
                     "--episodes", "100", "--episode-len", "10",
                     "--iterations", "200", "--batch", "64",
                     "--out", str(tmp_path / "x")]) == 2

    def test_divergent_step_size_exits_three(self, tmp_path, capsys):
        assert main(["learn", "--map", "tworoom", "--seed", "3", "--d", "3",
                     "--episodes", "200", "--episode-len", "50",
                     "--iterations", "800", "--batch", "128",
                     "--step-size", "100.0", "--out", str(tmp_path / "x")]) == 3
        assert "10x" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------

class TestShape:
    def test_smoke_outputs(self, tmp_path, capsys):
        out = tmp_path / "shape"
        assert main(["shape", "--map", "tworoom", "--kind", "ra_laprep,none",
                     "--goal", "5,2", "--episodes", "120", "--seed", "0",
                     "--seeds", "3", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "aggregate.csv")
        assert header == ["kind", "auc", "stderr", "episodes_to_90pct"]
        assert [r[0] for r in rows] == ["ra_laprep", "none"]
        report = json.loads((out / "aggregate.json").read_text())
        assert "ra_laprep>none" in report["paired_tests"]
        curves = (out / "curves.csv").read_text().strip().split("\n")
        assert len(curves) == 1 + 2 * 3 * 120

    def test_state_graph_built_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_build(maze, *args):
            calls.append(maze)
            return graph.build_graph(maze, *args)

        monkeypatch.setattr(cli, "build_graph", counting_build)
        assert main(["shape", "--map", "tworoom", "--goal", "5,2", "--episodes", "10",
                     "--seed", "0", "--seeds", "2", "--out", str(tmp_path / "s")]) == 0
        assert len(calls) == 1

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        assert main(["shape", "--map", "tworoom", "--kind", "geodesic",
                     "--goal", "5,2", "--episodes", "10", "--seed", "0",
                     "--out", str(tmp_path / "x")]) == 1
        assert "geodesic" in capsys.readouterr().err

    def test_single_run_pair_writes_strict_json_and_no_warnings(self, tmp_path):
        out = tmp_path / "single"
        proc = run_python(["shape", "--map", "fourroom", "--goal", "11,11", "--seeds", "1",
                           "--episodes", "20", "--seed", "0", "--out", str(out)], module=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = json.loads((out / "aggregate.json").read_text(),
                            parse_constant=_no_constants)
        tests = report["paired_tests"]
        assert set(tests) == {"ra_laprep>laprep", "ra_laprep>l2", "ra_laprep>none"}
        assert all(t["p_value"] is None for t in tests.values())

    def test_goal_required_without_tagged_cells(self, tmp_path, capsys):
        assert main(["shape", "--map", "tworoom", "--kind", "none",
                     "--episodes", "10", "--seed", "0",
                     "--out", str(tmp_path / "x")]) == 1
        assert "G" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bottleneck
# ---------------------------------------------------------------------------

class TestBottleneck:
    def test_doorway_selected(self, tmp_path, capsys):
        out = tmp_path / "bn"
        assert main(["bottleneck", "--map", "tworoom", "--kind", "ra",
                     "--frac", "0.2", "--out", str(out)]) == 0
        assert "(3, 2)" in capsys.readouterr().out
        header, rows = read_csv_rows(out / "bottlenecks.csv")
        assert header == ["state_index", "x", "y", "cent", "selected"]
        selected = {int(r[0]) for r in rows if r[4] == "1"}
        assert len(rows) == 9 and len(selected) == 2

    def test_invert_flips_selection(self, tmp_path, capsys):
        assert main(["bottleneck", "--map", "tworoom", "--kind", "ra",
                     "--frac", "0.2", "--invert", "--out", str(tmp_path / "bn")]) == 0
        assert "(3, 2)" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# commute
# ---------------------------------------------------------------------------

class TestCommute:
    def test_exact_two_state_matrix(self, tmp_path):
        out = tmp_path / "c"
        assert main(["commute", "--map", "k2", "--method", "solve",
                     "--out", str(out)]) == 0
        rows = (out / "commute.csv").read_text().strip().split("\n")
        values = [[float(v) for v in r.split(",")] for r in rows]
        assert values == [[0.0, 2.0], [2.0, 0.0]]

    @pytest.mark.parametrize("map_name,method", [
        ("fourroom", "solve"), ("fourroom", "pseudo-inverse"), ("continuous_a", "solve"),
    ])
    def test_csv_bytes_match_per_value_formatting(self, tmp_path, map_name, method):
        out = tmp_path / "c"
        assert main(["commute", "--map", map_name, "--method", method,
                     "--out", str(out)]) == 0
        mat = commute(graph.build_graph(cli._load_maze(map_name, 1)), method)
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in mat.values)
        assert (out / "commute.csv").read_bytes() == expected.encode()

    def test_sampled_estimate_with_seed(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["commute", "--map", "p3", "--method", "mc",
                     "--pair", "1,1:3,1", "--walks", "2000", "--seed", "5",
                     "--out", str(out)]) == 0
        est = json.loads((out / "mc.json").read_text())
        assert est["walks"] == 2000 and est["seed"] == 5
        assert est["estimate"] == pytest.approx(8.0, abs=3 * est["stderr"])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seeds"] == [5]

    def test_sampling_requires_seed_and_pair(self, tmp_path, capsys):
        assert main(["commute", "--map", "p3", "--method", "mc",
                     "--pair", "1,1:3,1", "--out", str(tmp_path / "x")]) == 1
        assert "--seed" in capsys.readouterr().err
        assert main(["commute", "--map", "p3", "--method", "mc",
                     "--seed", "1", "--out", str(tmp_path / "x")]) == 1
        assert "--pair" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# inputs that used to crash: an exit code and one stderr line, never a traceback
# ---------------------------------------------------------------------------

def _heatmap_on(tmp_path, csv_text):
    p = tmp_path / "embedding.csv"
    p.write_text(csv_text)
    return ["heatmap", str(p), "--map", "k2", "--goal", "1,1",
            "--out", str(tmp_path / "heat")]


K2_EMBEDDING = "state_index,x,y,e2\n0,1,1,0.7\n1,2,1,-0.7\n"


def _mc_pair(tmp, pair):
    return ["commute", "--map", "p3", "--method", "mc", "--pair", pair,
            "--walks", "10", "--seed", "1", "--out", str(tmp / "mc")]


def _a_file(tmp):
    p = tmp / "file"
    p.write_text("")
    return str(p)


def _env_on_layout(tmp, text):
    p = tmp / "layout.json"
    p.write_text(text)
    return ["env", "--map", str(p)]


def _learn(tmp, map_name, *flags):
    return ["learn", "--map", map_name, "--seed", "0", "--episodes", "20",
            "--episode-len", "10", "--iterations", "50", "--batch", "16", "--d", "3",
            *flags, "--out", str(tmp / "learn")]


@pytest.mark.parametrize("argv,code,needle", [
    (lambda tmp: ["env", "--map", "continuous_a"], 0, ""),
    (lambda tmp: ["env", "--map", "continuous_b", "--out", str(tmp / "env")], 0, ""),
    (lambda tmp: _heatmap_on(tmp, ""), 1, ""),
    (lambda tmp: _heatmap_on(tmp, "state_index,x,y,e2\n0,1\n"), 1, ""),
    (lambda tmp: _heatmap_on(tmp, K2_EMBEDDING) + ["--scale", "0"], 1, "--scale"),
    (lambda tmp: _heatmap_on(tmp, K2_EMBEDDING) + ["--scale", "-1"], 1, "--scale"),
    (lambda tmp: _mc_pair(tmp, "1,1"), 1, "x,y:x,y"),
    (lambda tmp: ["env", "--map", str(tmp)], 1, "Is a directory"),
    (lambda tmp: ["env", "--map", "fourroom", "--out", _a_file(tmp)], 1, "File exists"),
    (lambda tmp: ["embed", "--map", "fourroom", "--out", _a_file(tmp) + "/x"], 1,
     "Not a directory"),
    (lambda tmp: _env_on_layout(tmp, "[]"), 1, "JSON object"),
    (lambda tmp: _env_on_layout(tmp, '{"height": 2, "radius": 0.1}'), 1, "'width'"),
    (lambda tmp: _env_on_layout(tmp, '{"width": 2, "radius": 0.1}'), 1, "'height'"),
    (lambda tmp: _env_on_layout(tmp, '{"width": 2, "height": 2}'), 1, "'radius'"),
    (lambda tmp: _env_on_layout(tmp, '{"width": 2, "height": 2, "radius": 0.1, '
                                     '"walls": [{"x": 0, "y": 0, "w": 1}]}'), 1, "'h'"),
    (lambda tmp: _env_on_layout(tmp, '{"width": null, "height": 2, "radius": 0.1}'), 1,
     "NoneType"),
    (lambda tmp: _env_on_layout(tmp, '{"width": Infinity, "height": 1, "radius": 0}'), 1,
     "width is inf"),
    (lambda tmp: _env_on_layout(tmp, '{"width": 2, "height": NaN, "radius": 0}'), 1,
     "height is nan"),
    (lambda tmp: _env_on_layout(tmp, '{"width": 2, "height": 2, "radius": 1e999}'), 1,
     "radius is inf"),
    (lambda tmp: _env_on_layout(tmp, '{"width": 2, "height": 2, "radius": 0.1, '
                                     '"walls": [{"x": 0, "y": 0, "w": 1, "h": 1}, '
                                     '{"x": 0, "y": -Infinity, "w": 1, "h": 1}]}'), 1,
     "walls[1].y is -inf"),
    (lambda tmp: _env_on_layout(tmp, '{"width": 2, "height": 2, "radius": 0.1, '
                                     '"walls": [{"x": 0, "y": 0, "w": NaN, "h": 1}]}'), 1,
     "walls[0].w is nan"),
    (lambda tmp: _env_on_layout(tmp, '{"width": 1e9, "height": 1, "radius": 0}'), 1,
     "more than 1000000 grid cells"),
    (lambda tmp: ["env", "--map", "continuous_a", "--resolution", "100000"], 1,
     "more than 1000000 grid cells"),
    (lambda tmp: ["env", "--map", "continuous_a", "--resolution", "9" * 400], 1,
     "more than 1000000 grid cells"),
    (lambda tmp: _learn(tmp, "tworoom", "--tau", "nan"), 1, "temperature"),
    (lambda tmp: _learn(tmp, "biased", "--tau", "inf"), 1, "temperature"),
    (lambda tmp: _learn(tmp, "tworoom", "--step-size", "nan"), 1, "step_size"),
    (lambda tmp: _learn(tmp, "tworoom", "--step-size", "inf"), 1, "step_size"),
    (lambda tmp: _learn(tmp, "tworoom", "--penalty", "nan"), 1, "penalty_weight"),
    (lambda tmp: _learn(tmp, "tworoom", "--penalty", "inf"), 1, "penalty_weight"),
], ids=["continuous_a", "continuous_b", "heatmap-empty-csv", "heatmap-short-row",
        "heatmap-scale-0", "heatmap-scale-negative", "commute-pair-without-colon",
        "map-is-a-directory", "out-is-a-file", "out-under-a-file",
        "layout-not-an-object", "layout-without-width", "layout-without-height",
        "layout-without-radius", "layout-wall-without-h", "layout-null-number",
        "layout-infinite-width", "layout-nan-height", "layout-overflowing-radius",
        "layout-infinite-wall-y", "layout-nan-wall-w", "layout-wide-grid",
        "layout-fine-resolution", "layout-overflowing-resolution", "learn-nan-tau",
        "learn-infinite-tau", "learn-nan-step-size", "learn-infinite-step-size",
        "learn-nan-penalty", "learn-infinite-penalty"])
def test_exit_code_and_at_most_one_stderr_line(tmp_path, capsys, argv, code, needle):
    assert main(argv(tmp_path)) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert needle in err


# ---------------------------------------------------------------------------
# import footprint
# ---------------------------------------------------------------------------

FOOTPRINT = """
import sys
import spectral_reach.cli
from spectral_reach import layouts
from spectral_reach.graph import build_graph, geodesic_matrix
from spectral_reach.replearn import rep_quality
from spectral_reach.shaping import QLearningConfig, paired_auc_test, run_experiment
from spectral_reach.spectral import eig_sym, ra_laprep

maze = layouts.zoo_maze("fourroom")
g = build_graph(maze)
goal = maze.state_index().of((11, 11))
truth = ra_laprep(eig_sym(g.laplacian), 4)
q = rep_quality(truth, truth, geodesic_matrix(g), goals=(goal,))
run = run_experiment(maze, ("l2", "none"), (goal,), (0, 1), QLearningConfig(episodes=20), {})
diff, p = paired_auc_test(run, "l2", "none")
assert q.spearman[goal]["learned_vs_truth"] == 1.0 and 0 < p < 1, (q.spearman, p)
print("scipy.stats" in sys.modules)
"""


def test_cli_process_never_imports_scipy_stats():
    proc = run_python(FOOTPRINT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# manifests and reproducibility
# ---------------------------------------------------------------------------

class TestManifests:
    def test_rerun_reproduces_every_byte(self, tmp_path):
        out = tmp_path / "rr"
        argv = ["shape", "--map", "tworoom", "--kind", "ra_laprep,none",
                "--goal", "5,2", "--episodes", "80", "--seed", "0",
                "--seeds", "2", "--out", str(out)]
        assert main(argv) == 0
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        for p in out.iterdir():
            assert p.read_bytes() == snapshot[p.name], p.name

    def test_manifest_records_command_and_digest(self, tmp_path):
        out = tmp_path / "env"
        argv = ["env", "--map", "tworoom", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == argv
        expected = hashlib.sha256(layouts.bundled_text("tworoom").encode()).hexdigest()
        assert manifest["input_digests"]["tworoom"] == expected

    def test_file_inputs_digested(self, tmp_path):
        p = tmp_path / "rooms.txt"
        p.write_text(layouts.bundled_text("tworoom"))
        out = tmp_path / "env"
        assert main(["env", "--map", str(p), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["input_digests"][str(p)] == sha256_file(p)
