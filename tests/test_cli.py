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
from spectral_reach.commute import CommuteMatrix, commute, first_passage
from spectral_reach.envgrid import discretize_continuous
from spectral_reach.errors import PreconditionError
from spectral_reach.manifest import atomic_write_chunks, sha256_file

SPLIT = "#######\n#..#..#\n#..#..#\n#######\n"


def run_python(code_or_args, *, module=False):
    """Run a fresh interpreter that imports the package under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(spectral_reach.__file__).parents[1]))
    argv = ["-m", "spectral_reach.cli", *code_or_args] if module else ["-c", code_or_args]
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def replace_everywhere(monkeypatch, fn, replacement):
    """Replace every binding of fn in the package by replacement."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spectral_reach":
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, replacement)


def count_calls(monkeypatch, fn):
    """Count calls of fn through every binding of it in the package."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    replace_everywhere(monkeypatch, fn, counting)
    return calls


def peak_rss_bytes(argv):
    """Peak RSS of one successful CLI run in a fresh process.

    The child reports its own peak (VmHWM, reset by exec): the ru_maxrss
    of wait4 also holds the peak the forking test process had reached.
    """
    proc = run_python(
        "import re, sys\nfrom spectral_reach.cli import main\n"
        f"code = main({[str(a) for a in argv]!r})\n"
        "status = open('/proc/self/status').read()\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
        "sys.exit(code)\n")
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1]) * 1024


def open_room_text(side):
    """ASCII map of a side x side room without inner walls."""
    wall = "#" * (side + 2)
    return "\n".join([wall] + ["#" + "." * side + "#"] * side + [wall]) + "\n"


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
        p.write_text(layouts.bundled_files()["tworoom"].read_text())
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


@pytest.fixture(scope="module")
def thousand_state_embedding(tmp_path_factory):
    """Peak RSS of ``embed`` at d = n on a 32 x 32 open room, and its embedding."""
    tmp = tmp_path_factory.mktemp("room32")
    (tmp / "open.txt").write_text(open_room_text(32))
    peak = peak_rss_bytes(["embed", "--map", tmp / "open.txt", "--out", tmp / "emb"])
    return peak, tmp / "open.txt", tmp / "emb" / "embedding.csv"


class TestStreamedCsvPeakRss:
    # n = 1,024: the embedding CSV is about 20 MB, each n x n float64 matrix 8.4 MB;
    # the CSVs are written and read in row blocks, never held whole
    def test_embed_at_full_dimension(self, thousand_state_embedding):
        peak, _, csv_path = thousand_state_embedding
        assert csv_path.stat().st_size > 20e6
        assert peak <= 95e6

    def test_heatmap_of_that_embedding(self, tmp_path, thousand_state_embedding):
        _, map_path, csv_path = thousand_state_embedding
        peak = peak_rss_bytes(["heatmap", csv_path, "--map", map_path, "--goal", "32,32",
                               "--out", tmp_path / "heat"])
        assert len((tmp_path / "heat" / "dist_grid.csv").read_text().splitlines()) == 34
        assert peak <= 50e6


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

    def test_state_graph_built_once(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, graph.build_graph)
        assert main(_learn(tmp_path, "tworoom")) == 0
        assert len(calls) == 1

    def test_manifest_records_fixed_sampler_settings(self, tmp_path):
        assert main(_learn(tmp_path, "tworoom")) == 0
        config = json.loads((tmp_path / "learn" / "run_manifest.json").read_text())["config"]
        assert config["sample_discount"] == 0.9 and config["penalty"] == 5.0
        with pytest.raises(SystemExit) as exc:
            main(_learn(tmp_path, "tworoom", "--penalty", "5"))
        assert exc.value.code == 1


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
        calls = count_calls(monkeypatch, graph.build_graph)
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

    def test_degenerate_warning_is_one_line(self, tmp_path):
        # at d = 10, biased has states with identical embedding coordinates
        proc = run_python(["bottleneck", "--map", "biased", "--d", "10",
                           "--out", str(tmp_path / "bn")], module=True)
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: states ")
        assert "identical embedding coordinates" in lines[0] and ".py:" not in lines[0]

    def test_peak_rss_on_ten_thousand_states(self, tmp_path):
        # a 100 x 100 open room; dense n x n distances would need 1.6 GB
        (tmp_path / "open.txt").write_text(open_room_text(100))
        peak = peak_rss_bytes(["bottleneck", "--map", str(tmp_path / "open.txt"), "--d", "10",
                               "--out", str(tmp_path / "bn")])
        rows = (tmp_path / "bn" / "bottlenecks.csv").read_text().splitlines()
        assert len(rows) == 10_001
        assert peak < 102e6

    def test_peak_rss_on_twenty_thousand_states(self, tmp_path):
        # a 141 x 141 open room: the band of L, its factor and the Krylov basis
        # take O(n b) and O(n d) memory, for bandwidth b = 141
        (tmp_path / "open.txt").write_text(open_room_text(141))
        peak = peak_rss_bytes(["bottleneck", "--map", str(tmp_path / "open.txt"), "--d", "10",
                               "--out", str(tmp_path / "bn")])
        rows = (tmp_path / "bn" / "bottlenecks.csv").read_text().splitlines()
        assert len(rows) == 19_882
        assert peak < 158e6


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
        maze = layouts.load_bundled(map_name)
        if map_name == "continuous_a":
            maze = discretize_continuous(maze, 1)
        mat = commute(graph.build_graph(maze), method)
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in mat.values)
        assert (out / "commute.csv").read_bytes() == expected.encode()

    def test_solve_never_runs_the_first_passage_oracle(self, tmp_path, monkeypatch):
        def oracle(g):
            raise AssertionError("commute --method solve ran first_passage")

        replace_everywhere(monkeypatch, first_passage, oracle)
        assert main(["commute", "--map", "fourroom", "--method", "solve",
                     "--out", str(tmp_path / "c")]) == 0

    def test_one_state_map_writes_zero_without_stderr(self, tmp_path, capsys):
        p = tmp_path / "one.txt"
        p.write_text("###\n#.#\n###\n")
        out = tmp_path / "c"
        assert main(["commute", "--map", str(p), "--method", "solve", "--out", str(out)]) == 0
        assert (out / "commute.csv").read_text() == "0\n"
        assert capsys.readouterr().err == ""

    def test_failed_factorization_exits_3_after_connectivity(self, tmp_path, capsys,
                                                             monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("leading minor is not positive definite")

        # the solve route inverts the grounded Laplacian through np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", failing)
        assert main(["commute", "--map", "c4", "--method", "solve",
                     "--out", str(tmp_path / "c")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: grounded Laplacian")
        p = tmp_path / "split.txt"
        p.write_text(SPLIT)
        assert main(["commute", "--map", str(p), "--method", "solve",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("method", ["solve", "pseudo-inverse"])
    def test_exact_routes_refuse_beyond_the_dense_cap(self, tmp_path, capsys, method):
        assert main(["commute", "--map", "continuous_a", "--resolution", "5",
                     "--method", method, "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (
            "error: matrix size 5004 exceeds the dense solver cap 4096\n")

    def test_pseudo_inverse_peak_rss_on_a_thousand_states(self, tmp_path):
        # n = 1,024: each n x n float64 matrix is 8.4 MB, the CSV about 20 MB
        (tmp_path / "open.txt").write_text(open_room_text(32))
        peak = peak_rss_bytes(["commute", "--map", tmp_path / "open.txt",
                               "--method", "pseudo-inverse", "--out", tmp_path / "c"])
        assert len((tmp_path / "c" / "commute.csv").read_bytes().splitlines()) == 1024
        assert peak <= 100e6

    def test_failure_mid_stream_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        def failing(values):
            yield b"0,4\n"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys.modules["spectral_reach.commute"], "symmetric_csv", failing)
        out = tmp_path / "c"
        assert main(["commute", "--map", "p3", "--method", "solve", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert list(out.iterdir()) == []

    def test_asymmetric_matrix_refused_before_any_output(self, tmp_path, capsys, monkeypatch):
        def skewed(g, method):
            values = np.zeros((g.n_states, g.n_states))
            values[0, 1] = 1.0
            return CommuteMatrix(values=values)

        monkeypatch.setattr(sys.modules["spectral_reach.commute"], "commute", skewed)
        out = tmp_path / "c"
        assert main(["commute", "--map", "p3", "--method", "solve", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: matrix is not exactly symmetric\n"
        assert not out.exists()

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


def _two_islands(tmp):
    """Map file of two 2 x 2 rooms with no door between them."""
    p = tmp / "islands.txt"
    p.write_text("#######\n#..#..#\n#..#..#\n#######\n")
    return str(p)


def _learn(tmp, map_name, *flags):
    return ["learn", "--map", map_name, "--seed", "0", "--episodes", "20",
            "--episode-len", "10", "--iterations", "50", "--batch", "16", "--d", "3",
            *flags, "--out", str(tmp / "learn")]


@pytest.mark.parametrize("scale", [2310, 10_000])
def test_heatmap_scale_refused_before_allocating(tmp_path, scale):
    # k2 is 4 x 3 cells: 2,310 is the smallest scale above 64,000,000 pixels.
    # The child's address space is capped, so an unguarded image allocation
    # fails there instead of reaching the machine's out-of-memory killer.
    argv = _heatmap_on(tmp_path, K2_EMBEDDING) + ["--scale", str(scale)]
    proc = run_python("import resource, sys\n"
                      "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                      "from spectral_reach.cli import main\n"
                      f"sys.exit(main({argv!r}))\n")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: --scale {scale} makes a heatmap")
    assert not (tmp_path / "heat").exists()



@pytest.mark.parametrize("argv", [
    ["commute", "--map", "p3", "--method", "mc", "--pair", "1,1:3,1",
     "--walks", "10000000000000", "--seed", "1"],
    ["learn", "--map", "tworoom", "--seed", "0", "--episodes", "1000000000000"],
], ids=["commute-mc-walks", "learn-episodes"])
def test_out_of_memory_is_one_error_line(tmp_path, argv):
    # numpy refuses the allocation inside the capped address space
    argv = argv + ["--out", str(tmp_path / "out")]
    proc = run_python("import resource, sys\n"
                      "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                      "from spectral_reach.cli import main\n"
                      f"sys.exit(main({argv!r}))\n")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,code,needle", [
    (lambda tmp: ["env", "--map", "continuous_a"], 0, ""),
    (lambda tmp: ["env", "--map", "continuous_b", "--out", str(tmp / "env")], 0, ""),
    (lambda tmp: _heatmap_on(tmp, ""), 1, ""),
    (lambda tmp: _heatmap_on(tmp, "state_index,x,y,e2\n0,1\n"), 1, ""),
    (lambda tmp: _heatmap_on(tmp, "state_index,x,y,e2\n0,1,1,0.7\n0,2,1,-0.7\n"), 1,
     "not a permutation"),
    (lambda tmp: _heatmap_on(tmp, "state_index,x,y,e2\n0,1,1,0.7\n2,2,1,-0.7\n"), 1,
     "not a permutation"),
    (lambda tmp: _heatmap_on(tmp, "state_index,x,y,e2\n0,1,1,0.7\n1,2.5,1,-0.7\n"), 1,
     "embedding CSV: could not convert string '2.5'"),
    (lambda tmp: _heatmap_on(tmp, "state_index,x,y,e2\n0,1,1,0.7\n1,2,1,x7\n"), 1,
     "embedding CSV: could not convert string 'x7'"),
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
    (lambda tmp: _learn(tmp, "biased", "--tau", "10", "--episodes", "200", "--episode-len",
                        "50", "--iterations", "100", "--batch", "64"), 2,
     "error: graph of the sampled transitions has 41 components "
     "(sizes [25" + ", 1" * 40 + "])\n"),
    (lambda tmp: ["embed", "--map", _two_islands(tmp), "--out", str(tmp / "e")], 2,
     "error: state graph has 2 components (sizes [4, 4])\n"),
    (lambda tmp: ["embed", "--map", _two_islands(tmp), "--d", "3", "--out", str(tmp / "e")], 2,
     "error: state graph has 2 components (sizes [4, 4])\n"),
    (lambda tmp: ["embed", "--map", _two_islands(tmp), "--kind", "lap", "--out", str(tmp / "e")],
     0, ""),
    (lambda tmp: ["bottleneck", "--map", _two_islands(tmp), "--out", str(tmp / "b")], 2,
     "error: state graph has 2 components (sizes [4, 4])\n"),
    (lambda tmp: ["shape", "--map", _two_islands(tmp), "--goal", "1,1", "--seed", "0",
                  "--seeds", "1", "--episodes", "5", "--out", str(tmp / "s")], 2,
     "error: state graph has 2 components (sizes [4, 4])\n"),
    (lambda tmp: ["shape", "--map", "fourroom", "--kind", "ra_laprep,ra_laprep", "--goal", "1,1",
                  "--seed", "0", "--seeds", "1", "--episodes", "5", "--out", str(tmp / "s")], 1,
     "'ra_laprep' is given more than once"),
    (lambda tmp: ["shape", "--map", "fourroom", "--kind", "none", "--goal", "1,1", "--seed", "0",
                  "--episodes", "0", "--out", str(tmp / "s")], 1, "episodes must be positive"),
    (lambda tmp: ["shape", "--map", "fourroom", "--kind", "none", "--goal", "1,1", "--d", "200",
                  "--seed", "0", "--seeds", "1", "--episodes", "5", "--out", str(tmp / "s")], 1,
     "error: d = 200 outside [2, 104]\n"),
    (lambda tmp: ["shape", "--map", "fourroom", "--kind", "none", "--goal", "1,1", "--d", "1",
                  "--seed", "0", "--seeds", "1", "--episodes", "5", "--out", str(tmp / "s")], 1,
     "error: d = 1 outside [2, 104]\n"),
], ids=["continuous_a", "continuous_b", "heatmap-empty-csv", "heatmap-short-row",
        "heatmap-duplicate-index", "heatmap-index-gap", "heatmap-fractional-x",
        "heatmap-non-numeric-value", "heatmap-scale-0", "heatmap-scale-negative", "commute-pair-without-colon",
        "map-is-a-directory", "out-is-a-file", "out-under-a-file",
        "layout-not-an-object", "layout-without-width", "layout-without-height",
        "layout-without-radius", "layout-wall-without-h", "layout-null-number",
        "layout-infinite-width", "layout-nan-height", "layout-overflowing-radius",
        "layout-infinite-wall-y", "layout-nan-wall-w", "layout-wide-grid",
        "layout-fine-resolution", "layout-overflowing-resolution", "learn-nan-tau",
        "learn-infinite-tau", "learn-nan-step-size", "learn-infinite-step-size",
        "learn-biased-sampled-graph-disconnected", "embed-two-islands",
        "embed-two-islands-low-d", "embed-lap-two-islands", "bottleneck-two-islands",
        "shape-two-islands", "shape-repeated-kind", "shape-no-episodes",
        "shape-none-d-above-n", "shape-none-d-below-two"])
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
basis = eig_sym(g.dense_laplacian())
truth = ra_laprep(basis, 4)
q = rep_quality(truth, truth, geodesic_matrix(g), goals=(goal,), full_spectrum=basis.eigenvalues)
run = run_experiment(maze, ("l2", "none"), (goal,), (0, 1), QLearningConfig(episodes=20), {})
diff, p = paired_auc_test(run, "l2", "none")
assert q.spearman[goal]["learned_vs_truth"] == 1.0 and 0 < p < 1, (q.spearman, p)
print("scipy.stats" in sys.modules)
"""


def test_cli_process_never_imports_scipy_stats():
    proc = run_python(FOOTPRINT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def modules_after(argv=None):
    """Exit code of one CLI run in a fresh process, and every module it loaded.

    Without argv the process only imports ``spectral_reach.cli``.
    """
    run = f"code = main({[str(a) for a in argv]!r})\n" if argv is not None else "code = 0\n"
    proc = run_python("import sys\nfrom spectral_reach.cli import main\n" + run +
                      "print(code, *sorted(sys.modules))\n")
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split(" ")
    return int(code), set(modules)


def scipy_of(modules):
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


CONSUMERS = {f"spectral_reach.{m}"
             for m in ("commute", "bottleneck", "replearn", "shaping", "verify", "mds")}


def test_cli_import_loads_no_scipy():
    # nor any consumer module: each subcommand imports its own when it runs
    _, modules = modules_after()
    assert scipy_of(modules) == []
    assert not modules & (CONSUMERS | {"numpy.ma"})


SCIPY_FREE = {
    "env": ["env", "--map", "fourroom"],
    "embed-full": ["embed", "--map", "fourroom"],
    "heatmap": ["heatmap", "{emb}", "--map", "fourroom", "--goal", "11,11"],
    "bottleneck-full": ["bottleneck", "--map", "fourroom"],
    "bottleneck-partial": ["bottleneck", "--map", "fourroom", "--d", "10"],
    "commute-pinv": ["commute", "--map", "fourroom", "--method", "pseudo-inverse"],
    "commute-solve": ["commute", "--map", "fourroom", "--method", "solve"],
    "commute-mc": ["commute", "--map", "fourroom", "--method", "mc", "--pair", "1,1:11,11",
                   "--walks", "200", "--seed", "0"],
    "learn": ["learn", "--map", "fourroom", "--seed", "0", "--episodes", "100",
              "--iterations", "50", "--batch", "32"],
    "verify": ["verify", "--suite", "all"],
}
#: the commands that still load scipy, each no more of it than the import of one
#: module loads: ``embed --d`` lists every eigenvalue by ``scipy.linalg.eig_banded``,
#: ``shape`` runs the paired t-test with ``scipy.special.stdtr``
SCIPY_SOLVERS = {
    "embed-partial": ("scipy.linalg", ["embed", "--map", "fourroom", "--d", "10"]),
    "shape": ("scipy.special", ["shape", "--map", "fourroom", "--seed", "0", "--seeds", "2",
                                "--episodes", "20"]),
}


@pytest.fixture(scope="module")
def fourroom_embedding(tmp_path_factory):
    out = tmp_path_factory.mktemp("emb")
    assert main(["embed", "--map", "fourroom", "--out", str(out)]) == 0
    return out / "embedding.csv"


@pytest.mark.parametrize("job", sorted(SCIPY_FREE))
def test_scipy_free_commands_never_load_scipy(job, tmp_path, fourroom_embedding):
    argv = [a.format(emb=fourroom_embedding) for a in SCIPY_FREE[job]]
    code, modules = modules_after(argv + ["--out", tmp_path / "o"])
    assert (code, scipy_of(modules)) == (0, [])
    # the graph core dedupes without np.unique, which loads numpy.ma
    assert "numpy.ma" not in modules
    if job != "learn":
        runs = {"verify", "mds"} if job == "verify" else set()
        unused = {f"spectral_reach.{m}" for m in {"replearn", "shaping", "verify", "mds"} - runs}
        assert not modules & unused


#: modules a streamed-CSV job may load beyond ``import spectral_reach.cli``: text
#: files look up the locale's encoding, and each job imports its consumer module
STREAMED_CSV_JOBS = {"embed-full": set(), "heatmap": set(),
                     "commute-pinv": {"spectral_reach.commute"}}


@pytest.mark.parametrize("job", sorted(STREAMED_CSV_JOBS))
def test_streamed_csv_jobs_load_no_module_beyond_the_cli_import(job, tmp_path,
                                                                 fourroom_embedding):
    argv = [a.format(emb=fourroom_embedding) for a in SCIPY_FREE[job]]
    code, modules = modules_after(argv + ["--out", tmp_path / "o"])
    assert code == 0
    assert modules - modules_after()[1] <= {"locale", "_locale"} | STREAMED_CSV_JOBS[job]


@pytest.mark.parametrize("job", sorted(SCIPY_SOLVERS))
def test_scipy_solver_commands_still_run(job, tmp_path):
    solver, argv = SCIPY_SOLVERS[job]
    code, modules = modules_after(argv + ["--out", tmp_path / "o"])
    assert code == 0
    assert not [m for m in modules if m.startswith("scipy.sparse")]
    closure = run_python(f"import sys, {solver}\nprint(*sorted(sys.modules))\n")
    assert closure.returncode == 0, closure.stderr
    assert set(scipy_of(modules)) <= set(closure.stdout.split())


PUBLIC_NAMES = """ACTIONS ContinuousMazeSpec Embedding MazeSpec QLearningConfig RewardSpec
SpectralBasis SpectralReachError StateGraph StateIndex __version__ build_graph centrality
classic_mds collect_dataset commute commute_mc connected_components discretize_continuous
double_center effective_resistance eig_sym equivalence_residual estimate_eigenvalues
first_passage goal_distances laprep learned_ra_laprep parse_maze pseudo_inverse q_learning
ra_laprep rep_quality run_experiment step top_bottlenecks train_graph_drawing
truncation_tail""".split()


def test_every_public_name_resolves_lazily():
    assert spectral_reach.__all__ == PUBLIC_NAMES
    proc = run_python(
        "import sys\nimport spectral_reach as sr\n"
        "assert not [m for m in sys.modules if m.startswith('spectral_reach.')]\n"
        "import spectral_reach.commute  # the submodule, before the function of its name\n"
        "from spectral_reach import *\n"
        "for name in sr.__all__:\n"
        "    obj = getattr(sr, name)\n"
        "    assert globals()[name] is obj, name\n"
        "    if callable(obj):\n"
        "        assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "assert sr.commute is sys.modules['spectral_reach.commute'].commute\n"
        "print(len(sr.__all__))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(spectral_reach.__all__)}\n"


# ---------------------------------------------------------------------------
# manifests and reproducibility
# ---------------------------------------------------------------------------

class TestManifests:
    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                       PreconditionError("formatting failed")])
    def test_failed_chunk_stream_leaves_no_file(self, tmp_path, error):
        def chunks():
            yield b"0,1\n"
            raise error

        out = tmp_path / "out"
        with pytest.raises(type(error)):
            atomic_write_chunks(out / "commute.csv", chunks())
        assert list(out.iterdir()) == []

    def test_chunks_written_in_order(self, tmp_path):
        atomic_write_chunks(tmp_path / "a.csv", iter([b"1,2\n", b"", b"3,4\n"]))
        assert (tmp_path / "a.csv").read_bytes() == b"1,2\n3,4\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

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
        expected = hashlib.sha256(layouts.bundled_files()["tworoom"].read_text().encode()).hexdigest()
        assert manifest["input_digests"]["tworoom"] == expected

    def test_file_inputs_digested(self, tmp_path):
        p = tmp_path / "rooms.txt"
        p.write_text(layouts.bundled_files()["tworoom"].read_text())
        out = tmp_path / "env"
        assert main(["env", "--map", str(p), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["input_digests"][str(p)] == sha256_file(p)


def _pipeline_argv(cmd, tmp):
    csv = tmp / "embedding.csv"
    csv.write_text(K2_EMBEDDING)
    return {
        "env": ["env", "--map", "k2"],
        "embed": ["embed", "--map", "k2", "--d", "2"],
        "heatmap": ["heatmap", str(csv), "--map", "k2", "--goal", "1,1", "--scale", "2"],
        "verify": ["verify", "--suite", "env"],
        "learn": _learn(tmp, "tworoom")[:-2],
        "shape": ["shape", "--map", "tworoom", "--kind", "ra_laprep,none", "--goal", "5,2",
                  "--episodes", "20", "--seed", "0", "--seeds", "2"],
        "bottleneck": ["bottleneck", "--map", "tworoom"],
        "commute": ["commute", "--map", "k2"],
    }[cmd]


@pytest.mark.parametrize("cmd", ["env", "embed", "heatmap", "verify", "learn", "shape",
                                 "bottleneck", "commute"])
def test_manifest_lists_every_output_and_input(tmp_path, cmd):
    argv = _pipeline_argv(cmd, tmp_path)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) in (0, 3)
    manifest = json.loads((out / "run_manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"run_manifest.json"}
    assert sorted(manifest["outputs"]) == sorted(written)
    # every subcommand but verify requires --map
    assert ("resolution" in manifest["config"]) == ("--map" in argv)
    inputs = {argv[i + 1] for i, a in enumerate(argv) if a == "--map"}
    if cmd == "heatmap":
        inputs.add(argv[1])
    assert set(manifest["input_digests"]) == inputs


def test_file_map_digested_once(tmp_path, monkeypatch):
    p = tmp_path / "rooms.txt"
    p.write_text(layouts.bundled_files()["tworoom"].read_text())
    calls = count_calls(monkeypatch, sha256_file)
    assert main(["env", "--map", str(p), "--out", str(tmp_path / "env")]) == 0
    assert len(calls) == 1
