"""State graphs of grid mazes and the Laplacian pseudo-inverse.

Nodes are floor cells in row-major order; edges connect cells one move
apart.  The combinatorial Laplacian is L = D - A with D the diagonal
degree matrix and A the 0/1 adjacency matrix.  Wall-bump self
transitions never become edges, which leaves L unchanged whether or not
a transition log records them (a self loop adds the same unit to both D
and A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envgrid import MazeSpec, transition_table
from .errors import InputError, PreconditionError
from .spectral import Band, check_dense_size, check_state, ra_laprep


@dataclass(frozen=True)
class StateGraph:
    """Undirected state graph as one int64 CSR; a maze's ``floor_cells`` are its cells.

    Row s lists the neighbors of s in ascending order,
    ``indices[indptr[s]:indptr[s + 1]]``, with no duplicates and no self
    loops; ``degrees[s]`` is their count.  The solvers get L = D - A from
    it: ``laplacian_band()`` for the partial and banded ones,
    ``dense_laplacian()`` for the dense ones.  Immutable.
    """

    n_states: int
    indptr: np.ndarray           # (n + 1,) row starts
    indices: np.ndarray          # (volume,) neighbor lists, row after row
    degrees: np.ndarray          # (n,)
    volume: int                  # sum of degrees = 2 * edge count

    def laplacian_band(self) -> Band:
        """L = D - A as a ``Band``, as wide as the largest index step of an edge."""
        i, j = _entry_rows(self), self.indices
        b = int((j - i).max(initial=0))
        band = np.zeros((b + 1, self.n_states))
        band[b] = self.degrees
        band[(b + i - j)[j > i], j[j > i]] = -1.0
        return Band(band)

    def dense_laplacian(self) -> np.ndarray:
        """L = D - A as a dense (n, n) float64 array, for the dense solvers.

        Refused, like the dense eigensolver, above its size cap.
        """
        check_dense_size(self.n_states)
        return self.laplacian_band().dense()

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list, each pair (i, j) with i < j, sorted."""
        rows = _entry_rows(self)
        upper = self.indices > rows
        return list(zip(rows[upper].tolist(), self.indices[upper].tolist()))


@dataclass(frozen=True)
class PseudoInverse:
    """Moore-Penrose pseudo-inverse of a connected graph Laplacian."""

    matrix: np.ndarray


def graph_from_transitions(n: int, s: np.ndarray, s2: np.ndarray) -> StateGraph:
    """Undirected graph on n states with an edge per transition s -> s2.

    s and s2 may hold any integer dtype; the CSR is int64 whatever they
    hold.  Self transitions (wall bumps) are dropped; L = D - A.
    """
    move = s != s2
    src = np.concatenate([s[move], s2[move]])
    dst = np.concatenate([s2[move], s[move]])
    # one sorted key per distinct directed edge: row-major, duplicates merged
    rows, cols = np.divmod(sorted_unique(src.astype(np.int64) * n + dst), n)
    deg = np.bincount(rows, minlength=n).astype(np.int64)
    return StateGraph(
        n_states=n,
        indptr=np.concatenate(([0], np.cumsum(deg))),
        indices=cols,
        degrees=deg,
        volume=int(deg.sum()),
    )


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of nonnegative integer keys, without loading ``numpy.ma``."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def build_graph(maze: MazeSpec) -> StateGraph:
    """State graph of a maze: nodes are floor cells, edges are legal moves."""
    return graph_from_table(transition_table(maze))


def graph_from_table(table: np.ndarray) -> StateGraph:
    """Graph of an (n, actions) transition table: an edge per move it lists."""
    n, n_actions = table.shape
    return graph_from_transitions(n, np.repeat(np.arange(n), n_actions), table.ravel())


def _entry_rows(g: StateGraph) -> np.ndarray:
    """Row of every CSR entry: the source state of each directed edge."""
    return np.repeat(np.arange(g.n_states), g.degrees)


def _neighbor_positions(g: StateGraph, nodes: np.ndarray) -> np.ndarray:
    """Positions in ``g.indices`` of the neighbor lists of nodes, concatenated."""
    counts = g.degrees[nodes]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(g.indptr[nodes] - (ends - counts), counts)


def _component_roots(g: StateGraph) -> np.ndarray:
    """Smallest member of every state's component.

    Each round hooks every tree root to the smallest root across its
    edges, then jumps pointers until each state points at a root; it
    stops when no edge joins two roots.  Roots only ever point to smaller
    indices, so the final root of a component is its smallest member.
    """
    rows, cols = _entry_rows(g), g.indices
    root = np.arange(g.n_states)
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[rows], root[cols])
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, root):
            return root
        root = hooked


def _component_labels(g: StateGraph) -> np.ndarray:
    """Component number of every state, components ordered by smallest member."""
    root = _component_roots(g)
    return (np.cumsum(root == np.arange(g.n_states)) - 1)[root]    # rank of the root


def connected_components(g: StateGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components, each sorted, ordered by smallest member."""
    labels = _component_labels(g)
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    # map slices in C: no Python loop over the components
    return tuple(map(tuple, map(members.__getitem__, map(slice, [0, *ends[:-1]], ends))))


def require_connected(g: StateGraph, what: str = "state graph") -> None:
    """Refuse a disconnected graph; ``what`` names it in the message.

    The message lists the ten largest component sizes and counts the rest.
    """
    comps = connected_components(g)
    if len(comps) != 1:
        sizes = sorted((len(c) for c in comps), reverse=True)
        more = f" and {len(sizes) - 10} more" if len(sizes) > 10 else ""
        raise PreconditionError(f"{what} has {len(comps)} components (sizes {sizes[:10]}{more})")


def _bfs(g: StateGraph, sources: np.ndarray) -> np.ndarray:
    """Hop distances from each source, one row per source; -1 if unreachable.

    All searches advance together, one level per round, over (row, state)
    pairs: a frontier pair expands to its state's CSR neighbor list.  A
    pair reached twice in one round keeps one copy: each copy writes a
    distinct ticket into its cell, and the copy whose ticket stays wins.
    """
    n = g.n_states
    dist = np.full((len(sources), n), -1, dtype=np.int64)
    cells = dist.ravel()                      # a view: cell r * n + s is dist[r, s]
    row, node = np.arange(len(sources)), np.asarray(sources, dtype=np.int64)
    dist[row, node] = 0
    level = 0
    while row.size:
        level += 1
        flat = np.repeat(row * n, g.degrees[node]) + g.indices[_neighbor_positions(g, node)]
        flat = flat[cells[flat] < 0]
        ticket = -2 - np.arange(flat.size)
        cells[flat] = ticket
        flat = flat[cells[flat] == ticket]
        cells[flat] = level
        row, node = np.divmod(flat, n)
    return dist


def bfs_distances(g: StateGraph, source: int) -> np.ndarray:
    """Geodesic (shortest-path) distances from one state; -1 if unreachable."""
    check_state(source, g.n_states)
    return _bfs(g, np.array([source]))[0]


def geodesic_matrix(g: StateGraph) -> np.ndarray:
    """All-pairs geodesic distances, row s from state s; -1 between components."""
    return _bfs(g, np.arange(g.n_states))


def pseudo_inverse(g: StateGraph, basis) -> PseudoInverse:
    """L+ = Phi Phi^T, with Phi the full-dimension RA-LapRep: ``ra_laprep(basis, n)``.

    numpy forms a product with its own transpose from one triangle and
    mirrors it, so L+ is exactly symmetric.  Requires a full basis and a
    connected graph (exactly one zero eigenvalue).
    """
    basis.require_full("pseudo_inverse")
    if basis.n_states != g.n_states:
        raise InputError(f"basis has {basis.n_states} states, graph has {g.n_states}")
    # one state has no RA-LapRep column, and its L+ is [[0]]
    phi = ra_laprep(basis, g.n_states).vectors if g.n_states > 1 else np.zeros((1, 0))
    return PseudoInverse(matrix=phi @ phi.T)


def export_graph_json(g: StateGraph, coords: tuple[tuple[int, int], ...]) -> dict:
    """Plain-data form: node count, undirected edge list, and each state's cell, ``coords``."""
    return {
        "n": g.n_states,
        "edges": [[int(i), int(j)] for i, j in g.edges()],
        "coords": [[int(x), int(y)] for x, y in coords],
    }
