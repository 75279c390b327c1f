"""State-graph construction, connectivity, and the Laplacian pseudo-inverse."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from spectral_reach import layouts
from spectral_reach.bottleneck import centrality
from spectral_reach.envgrid import discretize_continuous, parse_maze
from spectral_reach.errors import DimensionMismatch, GraphDisconnected, InvalidState
from spectral_reach.graph import (
    bfs_distances,
    build_graph,
    connected_components,
    export_graph_json,
    geodesic_matrix,
    is_connected,
    pseudo_inverse,
    require_connected,
)
from spectral_reach.spectral import eig_sym, ra_laprep

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
        assert np.all(g.adjacency.diagonal() == 0)

    def test_adjacency_symmetric_01(self):
        adj = build_graph(parse_maze(TWOROOM)).adjacency.toarray()
        assert np.array_equal(adj, adj.T)
        assert set(np.unique(adj)) <= {0.0, 1.0}

    def test_degrees_and_volume(self):
        g = build_graph(parse_maze(TWOROOM))
        assert np.array_equal(g.degrees, g.adjacency.toarray().sum(axis=1))
        assert g.volume == int(g.degrees.sum()) == 2 * len(g.edges())

    def test_laplacian_identity(self):
        g = build_graph(parse_maze(TWOROOM))
        lap = np.diag(g.degrees) - g.adjacency.toarray()
        assert np.array_equal(g.laplacian.toarray(), lap)
        assert np.allclose(g.laplacian.toarray().sum(axis=1), 0.0)

    def test_coords_row_major(self):
        maze = parse_maze(TWOROOM)
        g = build_graph(maze)
        assert tuple(map(tuple, g.coords)) == maze.floor_cells

    def test_check_state(self):
        g = build_graph(parse_maze(TWOROOM))
        with pytest.raises(InvalidState):
            g.check_state(9)
        with pytest.raises(InvalidState):
            g.check_state(-1)

    def test_adjacency_and_laplacian_are_canonical_csr(self, zoo_graphs):
        for g in [build_graph(parse_maze(TWOROOM)), *zoo_graphs.values()]:
            for m, dtype in ((g.adjacency, np.int64), (g.laplacian, np.float64)):
                assert isinstance(m, sparse.csr_array) and m.dtype == dtype
                assert m.has_canonical_format and np.all(m.data != 0)
            assert np.all(g.adjacency.data == 1)
            dense = g.adjacency.toarray()
            for s in range(g.n_states):
                # commute_mc picks the k-th neighbor: the order is part of its output
                row = g.adjacency.indices[g.adjacency.indptr[s]:g.adjacency.indptr[s + 1]]
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
        e = ra_laprep(eig_sym(g.laplacian, 10), 10)
        tracemalloc.start()
        try:
            cent = centrality(e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cent.shape == (5004,) and np.all(cent > 0)
        assert peak < 16e6


class TestConnectivity:
    SEALED = "#######\n#..#..#\n#..#..#\n#######"

    def test_connected(self):
        g = build_graph(parse_maze(TWOROOM))
        assert is_connected(g)
        assert len(connected_components(g)) == 1
        require_connected(g)

    def test_two_components(self):
        g = build_graph(parse_maze(self.SEALED))
        comps = connected_components(g)
        assert len(comps) == 2
        assert sorted(len(c) for c in comps) == [4, 4]
        assert not is_connected(g)

    def test_require_connected_raises(self):
        g = build_graph(parse_maze(self.SEALED))
        with pytest.raises(GraphDisconnected):
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
            lap = g.laplacian.toarray()
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
        oracle = np.linalg.inv(p3_graph.laplacian.toarray() + j) - j
        assert np.allclose(lp, oracle, atol=1e-12)

    def test_disconnected_rejected(self):
        g = build_graph(parse_maze(TestConnectivity.SEALED))
        basis = eig_sym(g.laplacian)
        with pytest.raises(GraphDisconnected):
            pseudo_inverse(g, basis)

    def test_dimension_mismatch(self, p3_graph, zoo_bases):
        with pytest.raises(DimensionMismatch):
            pseudo_inverse(p3_graph, zoo_bases["c4"])


class TestExport:
    def test_json_shape(self, zoo_graphs):
        g = zoo_graphs["tworoom"]
        payload = export_graph_json(g)
        assert payload["n"] == 9
        assert len(payload["edges"]) == 10
        assert len(payload["coords"]) == 9
        assert all(i < j for i, j in payload["edges"])
