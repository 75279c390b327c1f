"""Spectral reachability toolkit for grid mazes.

Builds state graphs from ASCII or continuous maze layouts, computes
spectral embeddings whose rescaled variant preserves commute-time
(reachability) structure, cross-validates them against first-passage
solves, effective resistance, classic multidimensional scaling, and
Monte Carlo walks, learns the embedding from sampled transitions, and
evaluates distance-shaped rewards and bottleneck discovery on top.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# defining module -> the public names it exports.  A name's module is
# imported on first access (PEP 562), so a process loads only what it uses.
_EXPORTS = {
    "envgrid": "ACTIONS ContinuousMazeSpec MazeSpec StateIndex discretize_continuous "
               "parse_maze step",
    "errors": "SpectralReachError",
    "graph": "StateGraph build_graph connected_components pseudo_inverse",
    "spectral": "Embedding SpectralBasis eig_sym goal_distances laprep ra_laprep "
                "truncation_tail",
    "commute": "commute commute_mc effective_resistance first_passage",
    "mds": "classic_mds double_center equivalence_residual",
    "replearn": "collect_dataset estimate_eigenvalues learned_ra_laprep rep_quality "
                "train_graph_drawing",
    "shaping": "QLearningConfig RewardSpec q_learning run_experiment",
    "bottleneck": "centrality top_bottlenecks",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


class _Package(ModuleType):
    """Keeps a re-exported name when a submodule of that name loads.

    The import system sets every loaded submodule as a package attribute,
    which would hide the function ``commute`` behind the module ``commute``.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
