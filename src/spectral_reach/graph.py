"""State graphs of grid mazes and the Laplacian pseudo-inverse.

Nodes are floor cells in row-major order; edges connect cells one move
apart.  The combinatorial Laplacian is L = D - A with D the diagonal
degree matrix and A the 0/1 adjacency matrix.  Wall-bump self
transitions never become edges, which leaves L unchanged whether or not
a transition log records them (a self loop adds the same unit to both D
and A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .envgrid import MazeSpec, StateIndex, transition_table
from .errors import DimensionMismatch, GraphDisconnected
from .spectral import check_state


@dataclass(frozen=True)
class StateGraph:
    """Undirected state graph with its Laplacian.  Immutable.

    ``adjacency`` and ``laplacian`` are canonical CSR arrays: sorted
    column indices within each row, no duplicate entries and no stored
    zeros.  The adjacency holds int64 ones and no self loops, so row s
    lists the neighbors of s in ascending order; the Laplacian holds
    float64 D - A.  Dense copies are made only by the solvers that need
    them.
    """

    n_states: int
    adjacency: sparse.csr_array  # (n, n) 0/1 int64
    degrees: np.ndarray          # (n,) int64
    volume: int                  # sum of degrees = 2 * edge count
    laplacian: sparse.csr_array  # (n, n) float64, L = D - A
    coords: tuple[tuple[int, int], ...] = field(default=())

    def check_state(self, s: int) -> None:
        check_state(s, self.n_states)

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list, each pair (i, j) with i < j, sorted."""
        upper = sparse.triu(self.adjacency, k=1)    # COO in row-major order
        return list(zip(upper.row.tolist(), upper.col.tolist()))


@dataclass(frozen=True)
class PseudoInverse:
    """Moore-Penrose pseudo-inverse of a connected graph Laplacian."""

    matrix: np.ndarray


def graph_from_transitions(
    n: int, s: np.ndarray, s2: np.ndarray, coords: tuple[tuple[int, int], ...] = ()
) -> StateGraph:
    """Undirected graph on n states with an edge per transition s -> s2.

    Self transitions (wall bumps) are dropped; L = D - A.
    """
    move = s != s2
    src = np.concatenate([s[move], s2[move]])
    dst = np.concatenate([s2[move], s[move]])
    adj = sparse.csr_array((np.ones(src.size, dtype=np.int64), (src, dst)), shape=(n, n))
    adj.data[:] = 1                  # duplicate transitions were summed
    deg = np.diff(adj.indptr).astype(np.int64)
    return StateGraph(
        n_states=n,
        adjacency=adj,
        degrees=deg,
        volume=int(deg.sum()),
        laplacian=sparse.diags_array(deg.astype(np.float64)) - adj,
        coords=coords,
    )


def build_graph(maze: MazeSpec, index: StateIndex | None = None) -> StateGraph:
    """State graph of a maze: nodes are floor cells, edges are legal moves."""
    if index is None:
        index = maze.state_index()
    table = transition_table(maze)
    n, n_actions = table.shape
    s = np.repeat(np.arange(n), n_actions)
    return graph_from_transitions(n, s, table.ravel(), tuple(index.coords))


def _hops(dist: np.ndarray) -> np.ndarray:
    """Unweighted shortest-path lengths as int64, -1 where unreachable."""
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int64)


def connected_components(g: StateGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components, each sorted, ordered by smallest member."""
    _, labels = csgraph.connected_components(g.adjacency, directed=False)
    members = np.argsort(labels, kind="stable")
    comps = np.split(members, np.cumsum(np.bincount(labels))[:-1])
    return tuple(sorted(tuple(c.tolist()) for c in comps))


def is_connected(g: StateGraph) -> bool:
    return len(connected_components(g)) == 1


def require_connected(g: StateGraph) -> None:
    comps = connected_components(g)
    if len(comps) != 1:
        sizes = sorted((len(c) for c in comps), reverse=True)
        raise GraphDisconnected(
            f"state graph has {len(comps)} components (sizes {sizes})"
        )


def bfs_distances(g: StateGraph, source: int) -> np.ndarray:
    """Geodesic (shortest-path) distances from one state; -1 if unreachable."""
    g.check_state(source)
    return _hops(csgraph.shortest_path(g.adjacency, unweighted=True, indices=source))


def geodesic_matrix(g: StateGraph) -> np.ndarray:
    """All-pairs geodesic distances; -1 between components."""
    return _hops(csgraph.shortest_path(g.adjacency, unweighted=True))


def pseudo_inverse(g: StateGraph, basis) -> PseudoInverse:
    """L+ from the spectral side: sum of (1/lambda_i) v_i v_i^T over i >= 2.

    Requires a full basis and a connected graph (exactly one zero eigenvalue).
    """
    basis.require_full("pseudo_inverse")
    lam = basis.eigenvalues
    vec = basis.eigenvectors
    if vec.shape[0] != g.n_states:
        raise DimensionMismatch(
            f"basis has {vec.shape[0]} states, graph has {g.n_states}"
        )
    basis.require_connected()
    tail = vec[:, 1:]
    plus = (tail / lam[1:]) @ tail.T
    return PseudoInverse(matrix=plus)


def export_graph_json(g: StateGraph) -> dict:
    """Plain-data form: node count, undirected edge list, cell coordinates."""
    return {
        "n": g.n_states,
        "edges": [[int(i), int(j)] for i, j in g.edges()],
        "coords": [[int(x), int(y)] for x, y in g.coords],
    }
