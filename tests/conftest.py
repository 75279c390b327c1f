"""Shared fixtures: the small graph zoo and its spectral bases.

Session scope keeps eigendecompositions to one per graph for the whole
run; everything here is deterministic, so sharing is safe.

BLAS runs on one thread, pinned before numpy loads OpenBLAS: with more,
a test's time depends on what else runs on the cores (a dense solve can
take 50 times longer when a second process competes for them).
"""

import ctypes
import os
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from spectral_reach import layouts  # noqa: E402
from spectral_reach.graph import StateGraph, build_graph  # noqa: E402
from spectral_reach.spectral import SpectralBasis, eig_sym  # noqa: E402


def openblas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy's wheel; None for other builds."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    get_threads = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


_threads = openblas_threads()
assert _threads in (1, None), f"BLAS runs {_threads} threads: numpy loaded before the pin"


def scipy_adjacency(g: StateGraph):
    """Oracle: the graph's 0/1 adjacency as a scipy ``csr_array`` on its CSR."""
    from scipy import sparse

    ones = np.ones(g.indices.size, dtype=np.int64)
    return sparse.csr_array((ones, g.indices, g.indptr), shape=(g.n_states, g.n_states))


def scipy_laplacian(g: StateGraph):
    """Oracle: L = D - A as a float64 scipy ``csr_array``, built from the CSR."""
    from scipy import sparse

    return sparse.diags_array(g.degrees.astype(np.float64)) - scipy_adjacency(g)


@pytest.fixture(scope="session")
def zoo_mazes():
    return {name: layouts.zoo_maze(name) for name in layouts.ZOO_NAMES}


@pytest.fixture(scope="session")
def zoo_graphs(zoo_mazes) -> dict[str, StateGraph]:
    return {name: build_graph(maze) for name, maze in zoo_mazes.items()}


@pytest.fixture(scope="session")
def zoo_bases(zoo_graphs) -> dict[str, SpectralBasis]:
    return {name: eig_sym(g.dense_laplacian()) for name, g in zoo_graphs.items()}


@pytest.fixture(scope="session")
def tworoom(zoo_mazes):
    return zoo_mazes["tworoom"]


@pytest.fixture(scope="session")
def fourroom(zoo_mazes):
    return zoo_mazes["fourroom"]


@pytest.fixture(scope="session")
def p3_graph(zoo_graphs):
    return zoo_graphs["p3"]


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    scale[scale == 0] = 1.0
    return np.max(np.abs(a - b) / scale)
