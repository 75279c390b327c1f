"""State-graph construction, connectivity, and the Laplacian pseudo-inverse."""

import sys
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from spectral_reach import graph, layouts
from spectral_reach.bottleneck import centrality
from spectral_reach.envgrid import (
    ContinuousMazeSpec,
    discretize_continuous,
    parse_maze,
    transition_table,
)
from conftest import scipy_adjacency, scipy_laplacian
from spectral_reach.errors import InputError, PreconditionError
from spectral_reach.graph import (
    bfs_distances,
    build_graph,
    connected_components,
    export_graph_json,
    geodesic_matrix,
    graph_from_table,
    graph_from_transitions,
    pseudo_inverse,
    require_connected,
)
from spectral_reach.spectral import check_state, eig_sym, ra_laprep

TWOROOM = "#######\n#..#..#\n#.....#\n#######"


def brute_force_edges(maze):
    """Oracle: adjacent floor pairs found by scanning the ASCII grid."""
    cells = set(maze.floor_cells)
    edges = set()
    for (x, y) in cells:
        for (nx, ny) in ((x + 1, y), (x, y + 1)):
            if (nx, ny) in cells:
                edges.add(((x, y), (nx, ny)))
    return edges


class TestBuild:
    def test_tworoom_counts(self):
        maze = parse_maze(TWOROOM)
        g = build_graph(maze)
        oracle = brute_force_edges(maze)
        assert g.n_states == 9
        assert len(g.edges()) == 10
        assert len(oracle) == 10
        assert g.volume == 20

    def test_edges_match_ascii_oracle(self):
        maze = parse_maze(TWOROOM)
        index = maze.state_index()
        g = build_graph(maze)
        oracle = {
            tuple(sorted((index.of(a), index.of(b))))
            for a, b in brute_force_edges(maze)
        }
        assert set(g.edges()) == oracle

    def test_no_self_loops(self):
        g = build_graph(parse_maze(TWOROOM))
        assert np.all(scipy_adjacency(g).diagonal() == 0)

    def test_adjacency_symmetric_01(self):
        adj = scipy_adjacency(build_graph(parse_maze(TWOROOM))).toarray()
        assert np.array_equal(adj, adj.T)
        assert set(np.unique(adj)) <= {0.0, 1.0}

    def test_degrees_and_volume(self):
        g = build_graph(parse_maze(TWOROOM))
        assert np.array_equal(g.degrees, scipy_adjacency(g).toarray().sum(axis=1))
        assert g.volume == int(g.degrees.sum()) == 2 * len(g.edges())

    def test_laplacian_identity(self):
        g = build_graph(parse_maze(TWOROOM))
        lap = np.diag(g.degrees) - scipy_adjacency(g).toarray()
        assert np.array_equal(g.dense_laplacian(), lap)
        assert np.array_equal(g.laplacian_band().dense(), lap)
        assert np.allclose(g.dense_laplacian().sum(axis=1), 0.0)

    def test_coords_row_major(self):
        # the maze's floor_cells name the graph's states: row-major, each edge one move long
        maze = parse_maze(TWOROOM)
        cells, g = maze.floor_cells, build_graph(maze)
        assert list(cells) == sorted(cells, key=lambda c: (c[1], c[0]))
        assert len(cells) == g.n_states
        for i, j in g.edges():
            (x, y), (x2, y2) = cells[i], cells[j]
            assert abs(x - x2) + abs(y - y2) == 1

    def test_check_state(self):
        # the graph's callers check a state with spectral.check_state
        g = build_graph(parse_maze(TWOROOM))
        for s in (9, -1):
            with pytest.raises(InputError, match="out of range"):
                check_state(s, g.n_states)
            with pytest.raises(InputError, match="out of range"):
                bfs_distances(g, s)

    def test_adjacency_and_laplacian_are_canonical_csr(self, zoo_graphs):
        # scipy matrices on the graph's CSR are canonical: sorted, no duplicates, no zeros
        for g in [build_graph(parse_maze(TWOROOM)), *zoo_graphs.values()]:
            adj = scipy_adjacency(g)
            for m, dtype in ((adj, np.int64), (scipy_laplacian(g), np.float64)):
                assert isinstance(m, sparse.csr_array) and m.dtype == dtype
                assert m.has_canonical_format and np.all(m.data != 0)
            dense = adj.toarray()
            for s in range(g.n_states):
                # commute_mc picks the k-th neighbor: the order is part of its output
                row = g.indices[g.indptr[s]:g.indptr[s + 1]]
                assert row.tolist() == np.flatnonzero(dense[s]).tolist()

    def test_build_memory_is_linear(self):
        # n = 5,004 states: a dense adjacency and Laplacian would take 401 MB
        maze = discretize_continuous(layouts.load_bundled("continuous_a"), 5)
        tracemalloc.start()
        try:
            g = build_graph(maze)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_states == 5004
        assert peak < 16e6

    def test_centrality_memory_is_linear(self):
        # n = 5,004 states: the dense distance matrix alone would take 200 MB
        g = build_graph(discretize_continuous(layouts.load_bundled("continuous_a"), 5))
        e = ra_laprep(eig_sym(g.laplacian_band(), 10), 10)
        tracemalloc.start()
        try:
            cent = centrality(e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cent.shape == (5004,) and np.all(cent > 0)
        assert peak < 16e6


def checkerboard(size):
    """Square map whose floor is a checkerboard: every floor cell is its own
    component, except along an open row and column through the middle."""
    mid = size // 2
    rows = ["#" * (size + 2)]
    for y in range(1, size + 1):
        rows.append("#" + "".join(
            "." if (x + y) % 2 == 0 or y == mid or x == mid else "#"
            for x in range(1, size + 1)) + "#")
    return parse_maze("\n".join(rows + ["#" * (size + 2)]))


def oracle_csr(n, s, s2):
    """The scipy construction the numpy core replaced: COO with summed duplicates."""
    move = s != s2
    src = np.concatenate([s[move], s2[move]])
    dst = np.concatenate([s2[move], s[move]])
    adj = sparse.csr_array((np.ones(src.size, dtype=np.int64), (src, dst)), shape=(n, n))
    adj.data[:] = 1
    deg = np.diff(adj.indptr).astype(np.int64)
    return adj, sparse.diags_array(deg.astype(np.float64)) - adj


def oracle_band(lap):
    """The upper band of a scipy matrix in LAPACK's layout, from its COO triangle."""
    upper = sparse.triu(lap)
    b = int((upper.col - upper.row).max()) if upper.nnz else 0
    band = np.zeros((b + 1, lap.shape[0]))
    band[b + upper.row - upper.col, upper.col] = upper.data
    return band


def assert_same_bytes(dense, lap, rows=256):
    """dense equals lap.toarray() byte for byte (signed zeros too), compared a
    block of rows at a time: a test run's peak RSS also counts against every
    child process it starts later."""
    assert dense.shape == lap.shape and dense.dtype == lap.dtype
    for lo in range(0, len(dense), rows):
        assert dense[lo:lo + rows].tobytes() == lap[lo:lo + rows].toarray().tobytes(), lo


def oracle_components(adj):
    _, labels = csgraph.connected_components(adj, directed=False)
    members = np.argsort(labels, kind="stable")
    comps = np.split(members, np.cumsum(np.bincount(labels))[:-1])
    return tuple(sorted(tuple(c.tolist()) for c in comps))


def oracle_hops(adj, **kw):
    dist = csgraph.shortest_path(adj, unweighted=True, **kw)
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int64)


def core_mazes():
    out = {}
    for name in sorted(layouts.bundled_files()):
        maze = layouts.load_bundled(name)
        if isinstance(maze, ContinuousMazeSpec):
            maze = discretize_continuous(maze, 1)
        out[name] = maze
    out["checkerboard"] = checkerboard(64)
    return out


CORE_MAZES = core_mazes()


class TestNumpyCoreMatchesScipy:
    """The numpy CSR, traversals and dense Laplacian against scipy and csgraph."""

    @pytest.mark.parametrize("name", sorted(CORE_MAZES))
    def test_csr_edges_and_laplacian(self, name):
        table = transition_table(CORE_MAZES[name])
        n = len(table)
        g = graph_from_table(table)
        adj, lap = oracle_csr(n, np.repeat(np.arange(n), table.shape[1]), table.ravel())
        for got, want in ((g.indptr, adj.indptr), (g.indices, adj.indices)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(g.degrees, np.diff(adj.indptr)) and g.degrees.dtype == np.int64
        upper = sparse.triu(adj, k=1)
        assert g.edges() == list(zip(upper.row.tolist(), upper.col.tolist()))
        # the band and the dense L equal the old construction, byte for byte
        assert_same_bytes(g.dense_laplacian(), lap)
        assert g.laplacian_band().upper.tobytes() == oracle_band(lap).tobytes()

    @pytest.mark.parametrize("name", sorted(CORE_MAZES))
    def test_components_and_bfs_from_every_state(self, name):
        g = build_graph(CORE_MAZES[name])
        adj = scipy_adjacency(g)
        assert connected_components(g) == oracle_components(adj)
        want = oracle_hops(adj) if g.n_states < 1000 else None
        for s in range(g.n_states):
            row = want[s] if want is not None else oracle_hops(adj, indices=s)
            got = bfs_distances(g, s)
            assert got.dtype == np.int64 and np.array_equal(got, row), s
        if want is not None:
            assert np.array_equal(geodesic_matrix(g), want)

    def test_checkerboard_has_thousands_of_components(self):
        comps = connected_components(build_graph(CORE_MAZES["checkerboard"]))
        assert sum(len(c) == 1 for c in comps) > 1500

    def test_components_run_no_python_loop_per_component(self):
        g = build_graph(CORE_MAZES["checkerboard"])
        lines = 0

        def trace_graph_module(frame, event, arg):
            if frame.f_code.co_filename != graph.__file__:
                return None

            def count(frame, event, arg):
                nonlocal lines
                lines += event == "line"
                return count

            return count

        sys.settrace(trace_graph_module)
        try:
            comps = connected_components(g)
        finally:
            sys.settrace(None)
        assert len(comps) > 1500 and lines < 100

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_with_shuffled_labels(self, seed):
        # edges between arbitrary labels: hooking rounds meet non-monotone trees
        rng = np.random.default_rng(seed)
        n = 400
        m = [150, 300, 400, 800][seed]
        s, s2 = rng.integers(0, n, m), rng.integers(0, n, m)
        g = graph_from_transitions(n, s, s2)
        adj, lap = oracle_csr(n, s, s2)
        assert np.array_equal(g.indices, adj.indices) and np.array_equal(g.indptr, adj.indptr)
        assert connected_components(g) == oracle_components(adj)
        assert np.array_equal(geodesic_matrix(g), oracle_hops(adj))
        assert_same_bytes(g.dense_laplacian(), lap)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_index_dtype_follows_scipy(self, dtype):
        # int64 indices whatever the input dtype, on scipy's structure
        table = transition_table(layouts.zoo_maze("fourroom")).astype(dtype)
        n = len(table)
        s = np.repeat(np.arange(n, dtype=dtype), table.shape[1])
        g = graph_from_transitions(n, s, table.ravel())
        adj, _ = oracle_csr(n, s, table.ravel())
        assert g.indices.dtype == g.indptr.dtype == g.degrees.dtype == np.int64
        assert np.array_equal(g.indices, adj.indices) and np.array_equal(g.indptr, adj.indptr)


def unique_csr(n, s, s2):
    """The np.unique construction the sort-and-mask dedupe replaced."""
    move = s != s2
    src = np.concatenate([s[move], s2[move]])
    dst = np.concatenate([s2[move], s[move]])
    rows, cols = np.divmod(np.unique(src.astype(np.int64) * n + dst), n)
    deg = np.bincount(rows, minlength=n).astype(np.int64)
    return np.concatenate(([0], np.cumsum(deg))), cols, deg


class TestSortedDedupeMatchesUnique:
    """The sort-based CSR and component labels against np.unique, dtypes included."""

    @pytest.mark.parametrize("size", [0, 1, 7, 1000])
    def test_sorted_unique(self, size):
        keys = np.random.default_rng(size).integers(0, 50, size)
        got, want = graph.sorted_unique(keys), np.unique(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_multi_edge_transitions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 4 * n))
        s, s2 = rng.integers(0, n, m), rng.integers(0, n, m)
        s2[: m // 3] = s[: m // 3]                     # wall bumps
        s, s2 = np.concatenate([s, s2, s]), np.concatenate([s2, s, s2])   # repeats
        g = graph_from_transitions(n, s, s2)
        indptr, indices, deg = unique_csr(n, s, s2)
        for got, want in ((g.indptr, indptr), (g.indices, indices), (g.degrees, deg)):
            assert np.array_equal(got, want)
        assert g.indices.dtype == g.indptr.dtype == oracle_csr(n, s, s2)[0].indices.dtype
        assert g.degrees.dtype == np.int64

    @pytest.mark.parametrize("seed", range(6))
    def test_component_labels(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        m = [0, 50, 150, 250, 400, 900][seed]                # from all isolated to one piece
        g = graph_from_transitions(n, rng.integers(0, n, m), rng.integers(0, n, m))
        got = graph._component_labels(g)
        want = np.unique(graph._component_roots(g), return_inverse=True)[1]
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert connected_components(g) == oracle_components(scipy_adjacency(g))

    def test_one_state_without_moves(self):
        none = np.zeros(0, np.int64)
        g = graph_from_transitions(1, none, none)
        assert g.indptr.tolist() == [0, 0] and g.indices.size == 0 and g.volume == 0
        assert g.indptr.dtype == g.indices.dtype == oracle_csr(1, none, none)[0].indices.dtype
        assert connected_components(g) == ((0,),)
        g = graph_from_table(np.zeros((1, 4), dtype=np.int64))   # every move bumps
        assert g.indices.size == 0 and connected_components(g) == ((0,),)


class TestConnectivity:
    SEALED = "#######\n#..#..#\n#..#..#\n#######"

    def test_connected(self):
        g = build_graph(parse_maze(TWOROOM))
        assert len(connected_components(g)) == 1
        require_connected(g)

    def test_two_components(self):
        g = build_graph(parse_maze(self.SEALED))
        comps = connected_components(g)
        assert len(comps) == 2
        assert sorted(len(c) for c in comps) == [4, 4]

    def test_require_connected_raises(self):
        g = build_graph(parse_maze(self.SEALED))
        with pytest.raises(PreconditionError, match="components"):
            require_connected(g)

    def test_components_sorted_by_smallest_member(self):
        comps = connected_components(build_graph(parse_maze(self.SEALED)))
        assert comps[0][0] < comps[1][0]
        for comp in comps:
            assert list(comp) == sorted(comp)


class TestGeodesics:
    def test_p3_line(self, p3_graph):
        assert bfs_distances(p3_graph, 0).tolist() == [0, 1, 2]

    def test_matrix_symmetric_zero_diag(self, zoo_graphs):
        for g in zoo_graphs.values():
            dist = geodesic_matrix(g)
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0)

    def test_unreachable_marked(self):
        g = build_graph(parse_maze(TestConnectivity.SEALED))
        dist = bfs_distances(g, 0)
        left, right = connected_components(g)
        assert np.all(dist[list(left)] >= 0)
        assert np.all(dist[list(right)] < 0)


class TestPseudoInverse:
    def test_recovers_laplacian(self, zoo_graphs, zoo_bases):
        for name, g in zoo_graphs.items():
            lp = pseudo_inverse(g, zoo_bases[name]).matrix
            lap = g.dense_laplacian()
            resid = np.abs(lap @ lp @ lap - lap).max()
            assert resid <= 1e-8, name

    def test_doubly_centered(self, zoo_graphs, zoo_bases):
        for name, g in zoo_graphs.items():
            lp = pseudo_inverse(g, zoo_bases[name]).matrix
            assert np.abs(lp.sum(axis=0)).max() <= 1e-9, name
            assert np.abs(lp.sum(axis=1)).max() <= 1e-9, name

    def test_p3_closed_form(self, p3_graph, zoo_bases):
        # L⁺ for the 3-path, checked against the centering identity
        # L⁺ = (L + J/3)⁻¹ − J/3 with J the all-ones matrix.
        lp = pseudo_inverse(p3_graph, zoo_bases["p3"]).matrix
        j = np.full((3, 3), 1 / 3)
        oracle = np.linalg.inv(p3_graph.dense_laplacian() + j) - j
        assert np.allclose(lp, oracle, atol=1e-12)

    def test_disconnected_rejected(self):
        g = build_graph(parse_maze(TestConnectivity.SEALED))
        basis = eig_sym(g.dense_laplacian())
        with pytest.raises(PreconditionError, match="numerically zero"):
            pseudo_inverse(g, basis)

    def test_dimension_mismatch(self, p3_graph, zoo_bases):
        with pytest.raises(InputError, match="basis has"):
            pseudo_inverse(p3_graph, zoo_bases["c4"])


class TestExport:
    def test_json_shape(self, zoo_graphs, zoo_mazes):
        g = zoo_graphs["tworoom"]
        payload = export_graph_json(g, zoo_mazes["tworoom"].floor_cells)
        assert payload["n"] == 9
        assert len(payload["edges"]) == 10
        assert payload["coords"] == [list(c) for c in zoo_mazes["tworoom"].floor_cells]
        assert all(i < j for i, j in payload["edges"])
