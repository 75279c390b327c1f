"""Spectral reachability toolkit for grid mazes.

Builds state graphs from ASCII or continuous maze layouts, computes
spectral embeddings whose rescaled variant preserves commute-time
(reachability) structure, cross-validates them against first-passage
solves, effective resistance, classic multidimensional scaling, and
Monte Carlo walks, learns the embedding from sampled transitions, and
evaluates distance-shaped rewards and bottleneck discovery on top.
"""

__version__ = "0.1.0"

from .envgrid import (
    ACTIONS,
    ContinuousMazeSpec,
    MazeSpec,
    StateIndex,
    discretize_continuous,
    parse_maze,
    step,
)
from .errors import SpectralReachError
from .graph import StateGraph, build_graph, connected_components, pseudo_inverse
from .spectral import (
    Embedding,
    SpectralBasis,
    eig_sym,
    goal_distances,
    laprep,
    ra_laprep,
    truncation_tail,
)
from .commute import commute, commute_mc, effective_resistance, first_passage
from .mds import classic_mds, double_center, equivalence_residual
from .replearn import (
    collect_dataset,
    estimate_eigenvalues,
    learned_ra_laprep,
    rep_quality,
    train_graph_drawing,
)
from .shaping import QLearningConfig, RewardSpec, q_learning, run_experiment
from .bottleneck import centrality, top_bottlenecks

__all__ = [
    "ACTIONS",
    "ContinuousMazeSpec",
    "Embedding",
    "MazeSpec",
    "QLearningConfig",
    "RewardSpec",
    "SpectralBasis",
    "SpectralReachError",
    "StateGraph",
    "StateIndex",
    "__version__",
    "build_graph",
    "centrality",
    "classic_mds",
    "collect_dataset",
    "commute",
    "commute_mc",
    "connected_components",
    "discretize_continuous",
    "double_center",
    "effective_resistance",
    "eig_sym",
    "equivalence_residual",
    "estimate_eigenvalues",
    "first_passage",
    "goal_distances",
    "laprep",
    "learned_ra_laprep",
    "parse_maze",
    "pseudo_inverse",
    "q_learning",
    "ra_laprep",
    "rep_quality",
    "run_experiment",
    "step",
    "top_bottlenecks",
    "train_graph_drawing",
    "truncation_tail",
]
