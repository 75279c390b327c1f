"""Shared fixtures: the small graph zoo and its spectral bases.

Session scope keeps eigendecompositions to one per graph for the whole
run; everything here is deterministic, so sharing is safe.
"""

import numpy as np
import pytest

from spectral_reach import layouts
from spectral_reach.graph import StateGraph, build_graph
from spectral_reach.spectral import SpectralBasis, eig_sym

@pytest.fixture(scope="session")
def zoo_mazes():
    return {name: layouts.zoo_maze(name) for name in layouts.ZOO_NAMES}


@pytest.fixture(scope="session")
def zoo_graphs(zoo_mazes) -> dict[str, StateGraph]:
    return {name: build_graph(maze) for name, maze in zoo_mazes.items()}


@pytest.fixture(scope="session")
def zoo_bases(zoo_graphs) -> dict[str, SpectralBasis]:
    return {name: eig_sym(g.laplacian) for name, g in zoo_graphs.items()}


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
