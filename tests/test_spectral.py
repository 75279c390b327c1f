"""Eigendecomposition, embeddings, and truncation-tail accounting."""

import csv
import io
import math
import re

import numpy as np
import pytest

from conftest import scipy_laplacian
from spectral_reach import layouts, spectral
from spectral_reach.cli import main
from spectral_reach.envgrid import ContinuousMazeSpec, discretize_continuous, parse_maze
from spectral_reach.errors import InputError, NumericalError, PreconditionError
from spectral_reach.graph import build_graph, pseudo_inverse
from spectral_reach.spectral import (
    CSV_BLOCK,
    Embedding,
    basis_to_json,
    eig_sym,
    eigvals_banded,
    embedding_from_csv,
    embedding_to_csv,
    goal_distances,
    laprep,
    pairwise_sq_dists,
    ra_laprep,
    tail_bound,
    truncation_tail,
)

K2_L = np.array([[1.0, -1.0], [-1.0, 1.0]])

#: every bundled map, continuous layouts at resolution 1
PARTIAL_MAPS = tuple(sorted(layouts.bundled_files()))
#: eigenvalues closer than this, relative to max(lambda_max, 1), form one
#: degenerate cluster, which a dimension d must not cut
CLUSTER_GAP = 1e-9
#: any solver fixes an eigenvector only to about eps ||L|| / gap (Davis-Kahan);
#: from this relative separation on, two solvers agree on it to 1e-9
SIMPLE_GAP = 1e-6


@pytest.fixture(scope="module")
def partial_graphs():
    graphs = {}
    for name in PARTIAL_MAPS:
        maze = layouts.load_bundled(name)
        if isinstance(maze, ContinuousMazeSpec):
            maze = discretize_continuous(maze, 1)
        graphs[name] = build_graph(maze)
    return graphs


def _sign_tied(col: np.ndarray, tol: float = 1e-9) -> bool:
    """The max-abs entry is tied, to tol, with an entry of opposite sign.

    Mirror-symmetric eigenvectors have such ties; the max-abs sign rule
    then follows rounding, in the dense and in the sparse solver alike.
    """
    top = col[np.argmax(np.abs(col))]
    return bool(np.any((np.abs(col) >= abs(top) - tol) & (np.sign(col) != np.sign(top))))


class TestEigSym:
    def test_k2(self):
        basis = eig_sym(K2_L)
        assert basis.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)
        assert basis.eigenvectors[:, 1] == pytest.approx(
            [1 / math.sqrt(2), -1 / math.sqrt(2)]
        )

    def test_p3_characteristic_polynomial_oracle(self, p3_graph):
        # Independent oracle: roots of det(L - t I) computed from the
        # polynomial coefficients, not from an eigensolver.
        lam = eig_sym(p3_graph.dense_laplacian()).eigenvalues
        coeffs = np.poly(p3_graph.dense_laplacian())
        roots = np.sort(np.real(np.roots(coeffs)))
        assert lam == pytest.approx(roots, abs=1e-9)
        assert lam == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)

    def test_c4_cycle_spectrum(self, zoo_graphs):
        # Cycle graph eigenvalues are 2 - 2 cos(2 pi k / n).
        lam = eig_sym(zoo_graphs["c4"].dense_laplacian()).eigenvalues
        oracle = sorted(2 - 2 * math.cos(2 * math.pi * k / 4) for k in range(4))
        assert lam == pytest.approx(oracle, abs=1e-9)

    def test_invariants_on_zoo(self, zoo_graphs, zoo_bases):
        for name, basis in zoo_bases.items():
            lam, vec = basis.eigenvalues, basis.eigenvectors
            n = basis.n_states
            assert abs(lam[0]) <= 1e-9, name
            assert np.all(np.diff(lam) >= -1e-12), name
            gram = vec.T @ vec - np.eye(n)
            assert np.abs(gram).max() <= 1e-9, name
            lap = scipy_laplacian(zoo_graphs[name])
            resid = np.linalg.norm(lap @ vec - vec * lam[None, :], axis=0)
            assert resid.max() <= 1e-8, name
            assert vec[:, 0] == pytest.approx(np.full(n, 1 / math.sqrt(n)))

    def test_sign_convention(self, zoo_bases):
        for name, basis in zoo_bases.items():
            for i in range(basis.n_states):
                col = basis.eigenvectors[:, i]
                assert col[np.argmax(np.abs(col))] > 0, (name, i)

    def test_deterministic_bit_identical(self, zoo_graphs):
        lap = zoo_graphs["fourroom"].dense_laplacian()
        a = eig_sym(lap)
        b = eig_sym(lap)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_not_symmetric(self):
        with pytest.raises(PreconditionError, match="exceeds"):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_not_square(self):
        with pytest.raises(PreconditionError, match="square matrix"):
            eig_sym(np.zeros((2, 3)))

    def test_volume_from_trace(self, zoo_graphs, zoo_bases):
        for name, basis in zoo_bases.items():
            assert basis.volume == zoo_graphs[name].volume, name

    def test_random_quadratic_form(self, zoo_graphs, zoo_bases):
        # x^T L x must equal the sum of squared differences over edges for
        # any vector x; checks the decomposition against the graph itself.
        rng = np.random.default_rng(42)
        for name, g in zoo_graphs.items():
            basis = zoo_bases[name]
            x = rng.standard_normal(g.n_states)
            via_basis = float(
                np.sum(basis.eigenvalues * (basis.eigenvectors.T @ x) ** 2)
            )
            via_edges = float(sum((x[i] - x[j]) ** 2 for i, j in g.edges()))
            assert via_basis == pytest.approx(via_edges, rel=1e-10)


class TestEigSymPartial:
    """eig_sym(L, k) for k < n: the k smallest pairs from the banded block Lanczos solver."""

    @pytest.mark.parametrize("name", PARTIAL_MAPS)
    def test_matches_dense_at_every_uncut_dimension(self, name, partial_graphs):
        g = partial_graphs[name]
        lap, n = g.laplacian_band(), g.n_states
        dense = eig_sym(g.dense_laplacian())
        lam, vec = dense.eigenvalues, dense.eigenvectors
        scale = max(float(lam[-1]), 1.0)
        gaps = np.diff(lam)
        separation = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
        simple = separation > SIMPLE_GAP * scale
        for d in range(2, n):
            if gaps[d - 1] <= CLUSTER_GAP * scale:
                continue
            part = eig_sym(lap, d)
            assert part.is_partial and part.eigenvectors.shape == (n, d), (name, d)
            assert np.abs(part.eigenvalues - lam[:d]).max() <= 1e-12 * scale, (name, d)
            for j in range(d):
                got, want = part.eigenvectors[:, j], vec[:, j]
                assert got[np.argmax(np.abs(got))] > 0, (name, d, j)
                if not simple[j]:
                    continue
                if _sign_tied(want):
                    got = got if got @ want > 0 else -got
                assert np.abs(got - want).max() <= 1e-9, (name, d, j)

    @pytest.mark.parametrize("name", [n for n in PARTIAL_MAPS if n != "k2"])
    def test_repeated_calls_give_identical_bytes(self, name, partial_graphs):
        lap = partial_graphs[name].laplacian_band()
        d = min(10, lap.n - 1)
        a, b = eig_sym(lap, d), eig_sym(lap, d)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

    def test_full_spectrum_consumers_refuse_a_partial_basis(self, zoo_graphs):
        g = zoo_graphs["fourroom"]
        part = eig_sym(g.laplacian_band(), 10)
        for call in (
            lambda: part.volume,
            lambda: truncation_tail(part, 5, 0, 1),
            lambda: tail_bound(part, 5),
            lambda: pseudo_inverse(g, part),
        ):
            with pytest.raises(InputError, match="needs all") as exc:
                call()
            assert "the 10 smallest" in str(exc.value) and "\n" not in str(exc.value)

    def test_embeddings_up_to_the_solved_dimension(self, zoo_graphs, zoo_bases):
        lap = zoo_graphs["fourroom"].laplacian_band()
        part = eig_sym(lap, 6)
        assert ra_laprep(part, 6).vectors.shape == (104, 5)
        assert laprep(part, 2).eigenvalues == pytest.approx(
            zoo_bases["fourroom"].eigenvalues[1:2], abs=1e-12)
        with pytest.raises(InputError, match="outside"):
            laprep(part, 7)

    def test_k_outside_range(self, zoo_graphs):
        # a band gives 1 <= k < n pairs, a dense L all n: every other k is refused
        band = zoo_graphs["tworoom"].laplacian_band()
        for lap, k, message in ((band, 0, "a band gives k in [1, 8] eigenpairs, not k = 0"),
                                (band, 10, "a band gives k in [1, 8] eigenpairs, not k = 10"),
                                (K2_L, 0, "a dense L gives all 2 eigenpairs, not k = 0"),
                                (K2_L, 3, "a dense L gives all 2 eigenpairs, not k = 3")):
            with pytest.raises(InputError) as exc:
                eig_sym(lap, k)
            assert str(exc.value) == message

    def test_k_equal_to_n_is_the_dense_path(self, zoo_graphs, zoo_bases):
        # k = n, or no k, is the dense L's path alone
        g = zoo_graphs["tworoom"]
        full = eig_sym(g.dense_laplacian(), 9)
        assert not full.is_partial
        assert full.eigenvectors.tobytes() == zoo_bases["tworoom"].eigenvectors.tobytes()
        for k in (9, None):
            with pytest.raises(InputError) as exc:
                eig_sym(g.laplacian_band(), k)
            assert str(exc.value) == f"a band gives k in [1, 8] eigenpairs, not k = {k}"

    def test_sparse_and_dense_input_give_identical_bytes(self, zoo_graphs):
        # each input form has one path: the other form is refused with one line
        for name, g in zoo_graphs.items():
            n, k = g.n_states, min(10, g.n_states - 1)
            refused = (
                (g.laplacian_band(), n, f"a band gives k in [1, {n - 1}] eigenpairs, not k = {n}"),
                (g.dense_laplacian(), k, f"a dense L gives all {n} eigenpairs, not k = {k}"),
            )
            for lap, pairs, message in refused:
                with pytest.raises(InputError) as exc:
                    eig_sym(lap, pairs)
                assert str(exc.value) == message, name

    def test_not_symmetric(self):
        lap = np.diag([1.0, 2.0, 3.0])
        lap[0, 2] = 1e-6
        with pytest.raises(PreconditionError, match="exceeds"):
            eig_sym(lap, 2)

    @pytest.mark.parametrize("name", PARTIAL_MAPS)
    def test_banded_eigenvalues_match_dense(self, name, partial_graphs):
        g = partial_graphs[name]
        lam = eig_sym(g.dense_laplacian()).eigenvalues
        got = eigvals_banded(g.laplacian_band())
        assert np.abs(got - lam).max() <= 1e-12 * max(float(lam[-1]), 1.0)

    @pytest.mark.parametrize("name", PARTIAL_MAPS)
    def test_agrees_with_eigsh_at_dimension_ten(self, name, partial_graphs):
        # ARPACK's shift-invert Lanczos, run only here, as an independent oracle
        from scipy.sparse.linalg import eigsh

        g = partial_graphs[name]
        d = min(10, g.n_states - 1)
        part = eig_sym(g.laplacian_band(), d)
        v0 = np.random.default_rng(0).standard_normal(g.n_states)
        lam, vec = eigsh(scipy_laplacian(g).tocsc(), d, sigma=spectral.PARTIAL_SHIFT,
                         which="LM", v0=v0, tol=0)
        order = np.argsort(lam)
        lam, vec = lam[order], vec[:, order]
        spectrum = eigvals_banded(g.laplacian_band())
        scale = max(float(spectrum[-1]), 1.0)
        assert np.abs(part.eigenvalues - lam).max() <= 1e-12 * scale
        # compare eigenspaces cluster by cluster, but for a cluster that d cuts
        ends = np.flatnonzero(np.diff(spectrum[:d + 1]) > CLUSTER_GAP * scale) + 1
        for lo, hi in zip([0, *ends[:-1]], ends):
            got, want = part.eigenvectors[:, lo:hi], vec[:, lo:hi]
            assert np.abs(got @ got.T - want @ want.T).max() <= 1e-9, (name, lo, hi)

    def test_cluster_inside_k_is_found_whole(self, zoo_graphs):
        g = zoo_graphs["fourroom"]
        dense = eig_sym(g.dense_laplacian())
        lam = dense.eigenvalues
        assert lam[2] - lam[1] <= 1e-12 and lam[3] - lam[2] > 1e-2   # lambda_1 = lambda_2
        part = eig_sym(g.laplacian_band(), 4)
        got, want = part.eigenvectors[:, 1:3], dense.eigenvectors[:, 1:3]
        assert np.abs(got @ got.T - want @ want.T).max() <= 1e-9

    def test_step_budget_failure_is_one_line_exit_three(self, zoo_graphs, monkeypatch,
                                                         tmp_path, capsys):
        monkeypatch.setattr(spectral, "PARTIAL_MAX_STEPS", 1)
        with pytest.raises(NumericalError, match="did not converge in 1 block Lanczos steps"):
            eig_sym(zoo_graphs["fourroom"].laplacian_band(), 10)
        assert main(["embed", "--map", "fourroom", "--d", "10",
                     "--out", str(tmp_path / "emb")]) == 3
        err = capsys.readouterr().err
        assert err == ("error: partial eigendecomposition did not converge "
                       "in 1 block Lanczos steps\n")
        assert not (tmp_path / "emb").exists()

    def test_step_budget_accepts_ten_times_the_bound(self, tmp_path):
        # continuous_b at resolution 2 (732 states) ends its 50 steps with every
        # residual between PARTIAL_TOL's bound and 10 times it, at the rounding floor
        out = tmp_path / "emb"
        assert main(["embed", "--map", "continuous_b", "--resolution", "2", "--d", "10",
                     "--kind", "lap", "--out", str(out)]) == 0
        g = build_graph(discretize_continuous(layouts.load_bundled("continuous_b"), 2))
        part = eig_sym(g.laplacian_band(), 10)
        assert np.array_equal(embedding_from_csv(out / "embedding.csv")[0].vectors,
                              part.eigenvectors[:, 1:])
        dense = eig_sym(g.dense_laplacian())
        lam, vec = dense.eigenvalues, dense.eigenvectors
        scale = max(float(lam[-1]), 1.0)
        assert np.abs(part.eigenvalues - lam[:10]).max() <= 1e-12 * scale
        gaps = np.diff(lam)
        separation = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
        for j in np.flatnonzero(separation[:10] > SIMPLE_GAP * scale):
            got, want = part.eigenvectors[:, j], vec[:, j]
            if _sign_tied(want):
                got = got if got @ want > 0 else -got
            assert np.abs(got - want).max() <= 1e-9, j

    def test_band_round_trips_a_dense_matrix(self, zoo_graphs):
        for name, g in zoo_graphs.items():
            band = g.laplacian_band()
            assert np.array_equal(band.dense(), scipy_laplacian(g).toarray()), name
            x = np.random.default_rng(1).standard_normal((3, g.n_states))
            assert np.abs(band.rmatmul(x) - x @ band.dense()).max() <= 1e-12, name


class TestLaprep:
    def test_k2_rows(self):
        e = laprep(eig_sym(K2_L), 2)
        assert e.vectors.ravel() == pytest.approx([0.7071067811865475, -0.7071067811865475])

    def test_p3_rows(self, zoo_bases):
        e = laprep(zoo_bases["p3"], 2)
        assert e.vectors[:, 0] == pytest.approx(
            [1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)], abs=1e-12
        )

    def test_column_count(self, zoo_bases):
        for d in (2, 5, 9):
            assert laprep(zoo_bases["tworoom"], d).vectors.shape == (9, d - 1)

    def test_zero_mean_columns(self, zoo_bases):
        for basis in zoo_bases.values():
            e = laprep(basis, basis.n_states)
            assert np.abs(e.vectors.sum(axis=0)).max() <= 1e-9

    def test_dimension_out_of_range(self, zoo_bases):
        for d in (0, 1, 10):
            with pytest.raises(InputError, match="outside"):
                laprep(zoo_bases["tworoom"], d)


class TestRaLaprep:
    def test_k2_rows_and_dist(self):
        e = ra_laprep(eig_sym(K2_L), 2)
        assert e.vectors.ravel() == pytest.approx([0.5, -0.5])
        assert goal_distances(e.vectors, 0)[1] == pytest.approx(1.0)

    def test_p3_full_dimension(self, zoo_bases, zoo_graphs):
        e = ra_laprep(zoo_bases["p3"], 3)
        v = zoo_graphs["p3"].volume
        from_0 = goal_distances(e.vectors, 0)
        assert from_0[2] == pytest.approx(math.sqrt(2))
        assert v * from_0[2] ** 2 == pytest.approx(8.0)
        assert from_0[1] == pytest.approx(1.0)
        assert goal_distances(e.vectors, 1)[2] == pytest.approx(1.0)

    def test_c4_adjacent_distance(self, zoo_bases):
        e = ra_laprep(zoo_bases["c4"], 4)
        assert goal_distances(e.vectors, 0)[1] == pytest.approx(math.sqrt(6 / 8))

    def test_columns_scaled_eigenvectors(self, zoo_bases):
        basis = zoo_bases["tworoom"]
        e = ra_laprep(basis, 5)
        oracle = basis.eigenvectors[:, 1:5] / np.sqrt(basis.eigenvalues[1:5])
        assert np.array_equal(e.vectors, oracle)

    def test_disconnected_rejected(self):
        g = build_graph(parse_maze("#######\n#..#..#\n#..#..#\n#######"))
        basis = eig_sym(g.dense_laplacian())
        with pytest.raises(PreconditionError, match="numerically zero"):
            ra_laprep(basis, 3)

    def test_dist_identity_and_symmetry(self, zoo_bases):
        e = ra_laprep(zoo_bases["tworoom"], 9)
        assert goal_distances(e.vectors, 4)[4] == 0.0
        assert goal_distances(e.vectors, 2)[7] == goal_distances(e.vectors, 7)[2]

    def test_dist_invalid_state(self, zoo_bases):
        e = ra_laprep(zoo_bases["p3"], 3)
        for goal in (3, -1):
            with pytest.raises(InputError, match="out of range"):
                goal_distances(e.vectors, goal)

    def test_pairwise_matches_scalar(self, zoo_bases):
        e = ra_laprep(zoo_bases["tworoom"], 6)
        d2 = pairwise_sq_dists(e)
        for s in range(9):
            dist = goal_distances(e.vectors, s)
            for s2 in range(9):
                assert d2[s, s2] == pytest.approx(dist[s2] ** 2, abs=1e-12)


class TestTruncationTail:
    def test_zero_at_full_dimension(self, zoo_bases):
        for basis in zoo_bases.values():
            n = basis.n_states
            assert truncation_tail(basis, n, 0, n - 1) == 0.0

    def test_p3_hand_values(self, zoo_bases):
        # Hand eigendecomposition: v3 = (1, -2, 1)/sqrt(6) with eigenvalue 3,
        # so the d=2 tail for the pair (0, 1) is 4 * (3/sqrt(6))^2 / 3 = 2
        # and for the endpoints (0, 2) it vanishes by mirror symmetry.
        basis = zoo_bases["p3"]
        assert truncation_tail(basis, 2, 0, 1) == pytest.approx(2.0, abs=1e-9)
        assert truncation_tail(basis, 2, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_and_bounded(self, zoo_bases):
        basis = zoo_bases["tworoom"]
        for d in range(2, 10):
            bound = tail_bound(basis, d)
            for s in range(9):
                for s2 in range(s + 1, 9):
                    tail = truncation_tail(basis, d, s, s2)
                    assert tail >= 0.0
                    assert tail <= bound + 1e-12

    def test_nonincreasing_in_d(self, zoo_bases):
        basis = zoo_bases["tworoom"]
        for s, s2 in ((0, 8), (1, 5), (3, 6)):
            tails = [truncation_tail(basis, d, s, s2) for d in range(2, 10)]
            assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))

    def test_tail_closes_commute_gap(self, zoo_bases, zoo_graphs):
        # n(s,s') = V*dist_d(s,s')^2 + tail_d(s,s') for every d.
        basis = zoo_bases["p3"]
        v = zoo_graphs["p3"].volume
        full = ra_laprep(basis, 3)
        n02 = v * goal_distances(full.vectors, 0)[1] ** 2
        for d in (2, 3):
            trunc = ra_laprep(basis, d)
            approx = v * goal_distances(trunc.vectors, 0)[1] ** 2
            assert approx + truncation_tail(basis, d, 0, 1) == pytest.approx(n02)


def csv_module_writer(e, coords):
    """The embedding CSV as the csv module wrote it, one f-string per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["state_index", "x", "y"] + [f"e{i}" for i in range(2, e.d + 1)])
    for s in range(e.n_states):
        x, y = coords[s]
        writer.writerow([s, x, y] + [f"{v:.17g}" for v in e.vectors[s]])
    return buf.getvalue()


def csv_text(e, coords):
    return b"".join(embedding_to_csv(e, coords)).decode()


def parse_text(text, tmp_path):
    """embedding_from_csv of text written to a file."""
    path = tmp_path / "embedding.csv"
    path.write_text(text)
    return embedding_from_csv(path)


def assert_parses_like_the_csv_module(text, tmp_path):
    """embedding_from_csv on text, checked bit for bit against a csv.reader
    parse with float() per field."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    rows = sorted((int(r[0]), r) for r in reader)
    want = np.array([[float(v) for v in r[3:]] for _, r in rows])
    back, coords = parse_text(text, tmp_path)
    assert back.vectors.shape == want.shape
    assert np.array_equal(back.vectors.view(np.int64), want.view(np.int64))
    assert coords == [(int(r[1]), int(r[2])) for _, r in rows]
    return back


class TestSerialization:
    def test_csv_round_trip(self, zoo_bases, zoo_mazes, tmp_path):
        e = ra_laprep(zoo_bases["tworoom"], 4)
        coords = zoo_mazes["tworoom"].floor_cells
        text = csv_text(e, coords)
        header = text.splitlines()[0]
        assert header == "state_index,x,y,e2,e3,e4"
        back, coords_back = parse_text(text, tmp_path)
        assert np.array_equal(back.vectors, e.vectors)
        assert tuple(coords_back) == coords

    @pytest.mark.parametrize("name", PARTIAL_MAPS)
    def test_csv_bytes_and_parse_match_the_csv_module(self, name, tmp_path):
        maze = layouts.load_bundled(name)
        if name.startswith("continuous"):
            maze = discretize_continuous(maze, 1)
        g = build_graph(maze)
        basis = eig_sym(g.dense_laplacian())
        for e in (ra_laprep(basis, g.n_states), laprep(basis, min(10, g.n_states))):
            text = csv_text(e, maze.floor_cells)
            assert text == csv_module_writer(e, maze.floor_cells)
            assert_parses_like_the_csv_module(text, tmp_path)

    def test_csv_of_extreme_values(self, tmp_path):
        v = np.array([[-0.0, 5e-324], [1e308, -1e-300], [0.1, -2.5e-310], [np.pi, -0.0]])
        e = Embedding(kind="ra_laprep", vectors=v)
        coords = ((1, 1), (2, 1), (1, 2), (12, 30))
        text = csv_text(e, coords)
        assert text == csv_module_writer(e, coords)
        back = assert_parses_like_the_csv_module(text, tmp_path)
        assert np.array_equal(back.vectors.view(np.int64), v.view(np.int64))

    def test_streamed_rows_for_every_size_around_the_block(self):
        v = np.random.default_rng(5).standard_normal((2 * CSV_BLOCK + 1, 3)) * 1e5
        for n in range(1, len(v) + 1):
            e = Embedding(kind="ra_laprep", vectors=v[:n])
            coords = tuple((s % 7, s // 7) for s in range(n))
            chunks = list(embedding_to_csv(e, coords))
            assert b"".join(chunks).decode() == csv_module_writer(e, coords), n
            # the header, then one chunk per block of rows
            assert [c.count(b"\n") for c in chunks] == [1] + [
                min(CSV_BLOCK, n - a) for a in range(0, n, CSV_BLOCK)], n

    def test_coordinate_count_refused_before_the_first_chunk(self):
        e = Embedding(kind="ra_laprep", vectors=np.zeros((3, 1)))
        with pytest.raises(InputError, match="coordinate list has 2 entries"):
            embedding_to_csv(e, ((1, 1), (2, 1)))

    def test_csv_rows_in_any_order(self, zoo_bases, zoo_mazes, tmp_path):
        e = ra_laprep(zoo_bases["fourroom"], 10)
        lines = csv_text(e, zoo_mazes["fourroom"].floor_cells).splitlines()
        body = lines[1:]
        np.random.default_rng(0).shuffle(body)
        back = assert_parses_like_the_csv_module("\n".join([lines[0], *body]) + "\n", tmp_path)
        assert np.array_equal(back.vectors.view(np.int64), e.vectors.view(np.int64))

    @pytest.mark.parametrize("body,needle", [
        ("0,1,1,0.7\n0,2,1,-0.7\n", "permutation"),
        ("0,1,1,0.7\n2,2,1,-0.7\n", "permutation"),
        ("0,1,1,0.7\n-1,2,1,-0.7\n", "permutation"),
        ("0,1.5,1,0.7\n1,2,1,-0.7\n", "'1.5'"),
        ("0,1,1,0.7\n1.0,2,1,-0.7\n", "'1.0'"),
        ("0,1,1,abc\n1,2,1,-0.7\n", "'abc'"),
        ("0,1,1,0.7\n1,2,1,\n", "''"),
        ("0,1,1,0.7\n\n1,2,1,-0.7\n", "line 3 has 0 fields"),
        ("0,1,1,0.7\n1,2,1,-0.7,3\n", "line 3 has 5 fields"),
    ])
    def test_malformed_csv_rejected(self, body, needle, tmp_path):
        with pytest.raises(InputError, match=re.escape(needle)):
            parse_text("state_index,x,y,e2\n" + body, tmp_path)

    @pytest.mark.parametrize("row,bad,message", [
        ("first", "{s},1,1", "embedding CSV line 2 has 3 fields, its header has 4"),
        ("last", "{s},1,1,0.5,7", "embedding CSV line {line} has 5 fields, its header has 4"),
        ("first", "{s},1,1,abc", "embedding CSV: could not convert string 'abc' to float64 "
                                 "at row 0, column 4."),
        ("last", "{s},1,x,0.5", "embedding CSV: could not convert string 'x' to int64 "
                                "at row {row}, column 3."),
    ])
    def test_malformed_row_of_a_file_beyond_one_read_buffer(self, tmp_path, row, bad, message):
        n = 4 * io.DEFAULT_BUFFER_SIZE // 10          # rows of at least 10 bytes
        rows = [f"{s},{s % 9},{s // 9},{s / 7!r}" for s in range(n)]
        at = 0 if row == "first" else n - 1
        rows[at] = bad.format(s=at)
        text = "state_index,x,y,e2\n" + "\n".join(rows) + "\n"
        assert len(text) > 4 * io.DEFAULT_BUFFER_SIZE
        with pytest.raises(InputError, match="embedding CSV") as info:
            parse_text(text, tmp_path)
        assert str(info.value) == message.format(line=at + 2, row=at)

    def test_header_only_and_empty_files(self, tmp_path):
        back, coords = parse_text("state_index,x,y,e2,e3\n", tmp_path)
        assert back.vectors.shape == (0, 2) and coords == []
        with pytest.raises(InputError, match="lacks its state_index"):
            parse_text("", tmp_path)

    def test_basis_json(self, zoo_bases):
        payload = basis_to_json(zoo_bases["p3"])
        assert payload["sign_convention"] == "max-abs-positive"
        assert payload["eigenvalues"] == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)

    def test_basis_json_of_a_partial_basis_lists_the_given_spectrum(self, p3_graph):
        part = eig_sym(p3_graph.laplacian_band(), 2)
        assert basis_to_json(part)["eigenvalues"] == pytest.approx([0.0, 1.0], abs=1e-12)
        spectrum = eigvals_banded(p3_graph.laplacian_band())
        payload = basis_to_json(part, spectrum)
        assert payload["eigenvalues"] == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)
