"""Sample-based learning of the spectral embedding from random walks.

A tabular function table f : states x dimensions is trained on
transition data with a generalized graph-drawing objective: dimension i
carries weight c_i = d - i + 1 on the attraction term
E[(f_i(s) - f_i(s'))^2] over sampled state pairs, and every (i, j) pair
pays min(c_i, c_j) times the squared deviation of E_s[f_i(s) f_j(s)]
from the identity, weighted by a penalty factor.  The decreasing
weights make the minimizer the ordered eigenvector basis rather than an
arbitrary rotation of it.

Pairs are sampled from episodes at geometric offsets: offset k is drawn
with P(k) = (1 - g) g^(k-1) for discount g, then a start position is
drawn uniformly among the positions that admit offset k (offsets beyond
the episode length are redrawn).  Orthonormality expectations use the
empirical state-visitation distribution of the dataset.

Eigenvalue estimates use consecutive transition pairs only:

    est_i = [sum of (f_i(s) - f_i(s'))^2 over pairs with s != s']
            / (number of such pairs) * (distinct undirected edges seen)
            / sum over states of f_i(s)^2

The edge-count factor converts the per-transition mean into the graph
quadratic form (exact under exhaustive uniform edge sampling); the
parameter-norm factor makes the estimate invariant to the learned
table's overall scale.  Under non-uniform visitation (temperature > 0)
the per-transition mean is no longer an unbiased edge average and the
estimates inherit that residual bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .envgrid import ACTIONS, MazeSpec, transition_table
from .errors import (
    DegenerateEigenvalue,
    DimensionMismatch,
    DivergedObjective,
    EmptyDataset,
    NoBiasCells,
)
from .graph import StateGraph, build_graph, graph_from_transitions, require_connected
from .spectral import Embedding, check_dimension, goal_distances

#: eigenvalue estimates at or below this are too degenerate to rescale by
DEGENERATE_EIG_TOL = 1e-8
#: the training log keeps iteration 1, every LOG_EVERY-th, and the last
LOG_EVERY = 500


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 20000
    batch_size: int = 1024
    step_size: float = 1e-3
    discount: float = 0.9          # geometric pair-offset parameter
    penalty_weight: float = 5.0
    seed: int = 0

    def validate(self) -> None:
        if self.iterations <= 0 or self.batch_size <= 0:
            raise ValueError("iterations and batch_size must be positive")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")
        if not 0.0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if not 0.0 <= self.penalty_weight < np.inf:
            raise ValueError(
                f"penalty_weight must be nonnegative and finite, got {self.penalty_weight}"
            )


@dataclass(frozen=True)
class TransitionDataset:
    """Walks over a fixed state space: one row of state indices per episode."""

    episodes: np.ndarray           # (episodes, steps + 1) int64
    n_states: int

    @property
    def total_steps(self) -> int:
        return self.episodes[:, 1:].size

    @cached_property
    def visitation(self) -> np.ndarray:
        """Occurrence counts per state over every episode position."""
        return np.bincount(self.episodes.ravel(), minlength=self.n_states)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All consecutive (s, s') pairs, episode by episode."""
        return self.episodes[:, :-1].ravel(), self.episodes[:, 1:].ravel()

    @cached_property
    def observed_edges(self) -> int:
        """Distinct undirected non-self edges appearing in the data."""
        s, s2 = self.pairs
        mask = s != s2
        lo = np.minimum(s[mask], s2[mask])
        hi = np.maximum(s[mask], s2[mask])
        return len(np.unique(lo * self.n_states + hi))


@dataclass(frozen=True)
class LearnedRep:
    """Trained function table plus its training trace."""

    params: np.ndarray             # (n_states, d)
    d: int
    config: TrainConfig
    objective_log: np.ndarray      # rows (iteration, objective, penalty)

    @property
    def n_states(self) -> int:
        return self.params.shape[0]


@dataclass(frozen=True)
class QualityMetrics:
    """Alignment of a learned embedding against the ground truth."""

    cosines: np.ndarray            # per column |cosine|, length d - 1
    degenerate: np.ndarray         # True where the truth eigenvalue is repeated
    eig_rel_err: np.ndarray | None
    spearman: dict[int, dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "cosines": [float(v) for v in self.cosines],
            "degenerate": [bool(v) for v in self.degenerate],
            "eig_rel_err": None if self.eig_rel_err is None
            else [float(v) for v in self.eig_rel_err],
            "spearman": {
                str(goal): {k: float(v) for k, v in entry.items()}
                for goal, entry in self.spearman.items()
            },
        }


# ---------------------------------------------------------------------------
# dataset collection
# ---------------------------------------------------------------------------

def start_distribution(maze: MazeSpec, temperature: float) -> np.ndarray:
    """Start-state probabilities proportional to exp(temperature * bias)."""
    if not 0.0 <= temperature < np.inf:
        raise ValueError(f"temperature must be nonnegative and finite, got {temperature}")
    index = maze.state_index()
    n = len(index)
    bias = np.zeros(n)
    if temperature > 0:
        if not maze.bias_cells:
            raise NoBiasCells(
                "temperature > 0 requires at least one 'B' cell in the map"
            )
        for coord in maze.bias_cells:
            bias[index.of(coord)] = 1.0
    weights = np.exp(temperature * bias)
    return weights / weights.sum()


def collect_dataset(
    maze: MazeSpec,
    episodes: int,
    episode_len: int,
    temperature: float = 0.0,
    seed: int = 0,
) -> TransitionDataset:
    """Uniform-action random-walk episodes with bias-weighted starts.

    Wall bumps are recorded as self transitions.  Episode e draws its
    start state, then its actions, from its own PCG64 generator keyed by
    (seed, e), so collection order cannot change the data; the episodes
    then step together, one table lookup per step.
    """
    if episodes <= 0 or episode_len <= 0:
        raise EmptyDataset("episodes and episode_len must be positive")
    require_connected(build_graph(maze))
    table = transition_table(maze)
    cum = np.cumsum(start_distribution(maze, temperature))
    u = np.empty(episodes)
    actions = np.empty((episodes, episode_len), dtype=np.int64)
    for e in range(episodes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, e))))
        u[e] = rng.random()
        actions[e] = rng.integers(0, len(ACTIONS), size=episode_len)
    walks = np.empty((episodes, episode_len + 1), dtype=np.int64)
    walks[:, 0] = np.minimum(np.searchsorted(cum, u, side="right"), len(table) - 1)
    for t in range(episode_len):
        walks[:, t + 1] = table[walks[:, t], actions[:, t]]
    return TransitionDataset(episodes=walks, n_states=len(table))


def exhaustive_dataset(maze: MazeSpec) -> TransitionDataset:
    """Every (state, action) outcome exactly once, as length-1 episodes.

    Wall bumps appear as self-transitions, mirroring what collected
    walks record.  Every state starts exactly four episodes and, on a
    grid, ends exactly four, so the state-visitation weights are
    uniform and each directed move appears exactly once: the
    uniform-sampling limit in both the pair and the state measure.
    Eigenvalue estimates on it are exact for exact eigenvector tables.
    """
    table = transition_table(maze)
    n, n_actions = table.shape
    start = np.repeat(np.arange(n), n_actions)
    if np.array_equal(table.ravel(), start):
        raise EmptyDataset("map has no edges")
    return TransitionDataset(episodes=np.stack([start, table.ravel()], axis=1), n_states=n)


def induced_graph(data: TransitionDataset) -> StateGraph:
    """Graph over the full state space with edges observed in the data.

    States never seen in a transition are isolated nodes, so sparse
    coverage shows up as disconnection.
    """
    return graph_from_transitions(data.n_states, *data.pairs)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def sample_pair_batch(
    matrix: np.ndarray, batch_size: int, discount: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of (s, s') pairs at geometric offsets from stacked episodes."""
    n_eps, length = matrix.shape
    max_offset = length - 1
    if discount == 0.0:
        k = np.ones(batch_size, dtype=np.int64)
    else:
        k = np.empty(batch_size, dtype=np.int64)
        need = np.ones(batch_size, dtype=bool)
        while need.any():
            u = rng.random(int(need.sum()))
            draw = 1 + np.floor(np.log1p(-u) / np.log(discount)).astype(np.int64)
            k[need] = draw
            need = k > max_offset   # redraw offsets the episodes cannot hold
    e = rng.integers(0, n_eps, size=batch_size)
    t = np.floor(rng.random(batch_size) * (length - k)).astype(np.int64)
    return matrix[e, t], matrix[e, t + k]


def attraction_value_grad(
    f: np.ndarray, weights: np.ndarray, s: np.ndarray, s2: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted mean squared pair difference and its gradient in f."""
    diff = f[s] - f[s2]
    value = float(np.mean((diff * diff) @ weights))
    grad = np.zeros_like(f)
    scaled = (2.0 / len(s)) * diff * weights
    np.add.at(grad, s, scaled)
    np.subtract.at(grad, s2, scaled)
    return value, grad


def penalty_value_grad(
    f: np.ndarray, pair_weights: np.ndarray, visit: np.ndarray, strength: float
) -> tuple[float, np.ndarray]:
    """Orthonormality penalty over the visitation distribution.

    Penalizes sum over i <= j of pair_weights[i, j] * (gram_ij - delta_ij)^2
    where gram = f^T diag(visit) f.
    """
    wf = visit[:, None] * f
    gram = f.T @ wf
    err = gram - np.eye(f.shape[1])
    weighted = pair_weights * err
    upper = float(np.sum(np.triu(pair_weights * err * err)))
    grad = 2.0 * strength * wf @ (weighted + np.diag(np.diag(weighted)))
    return strength * upper, grad


def train_graph_drawing(
    data: TransitionDataset, d: int, config: TrainConfig | None = None
) -> LearnedRep:
    """Train the tabular function table with Adam on minibatch gradients.

    Raises GraphDisconnected when the dataset-induced graph does not
    connect the full state space, and DivergedObjective when the
    smoothed objective exceeds 10x its initial level.
    """
    if config is None:
        config = TrainConfig()
    config.validate()
    n = data.n_states
    check_dimension(d, n)
    if data.total_steps == 0:
        raise EmptyDataset("dataset has no transitions")
    require_connected(induced_graph(data))

    visit = data.visitation / data.visitation.sum()
    dim_weights = np.arange(d, 0, -1, dtype=np.float64)      # c_i = d - i + 1
    pair_weights = np.minimum.outer(dim_weights, dim_weights)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 1))))
    f = rng.normal(0.0, 1.0, size=(n, d))

    m1 = np.zeros_like(f)
    m2 = np.zeros_like(f)
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    log_rows = []
    ema = None
    initial = None
    for it in range(1, config.iterations + 1):
        s, s2 = sample_pair_batch(data.episodes, config.batch_size, config.discount, rng)
        a_val, a_grad = attraction_value_grad(f, dim_weights, s, s2)
        p_val, p_grad = penalty_value_grad(f, pair_weights, visit, config.penalty_weight)
        objective = a_val + p_val
        grad = a_grad + p_grad

        m1 = beta1 * m1 + (1 - beta1) * grad
        m2 = beta2 * m2 + (1 - beta2) * grad * grad
        hat1 = m1 / (1 - beta1 ** it)
        hat2 = m2 / (1 - beta2 ** it)
        f -= config.step_size * hat1 / (np.sqrt(hat2) + eps_adam)

        if ema is None:
            ema = objective
            initial = objective
        else:
            ema = 0.99 * ema + 0.01 * objective
        if ema > 10.0 * max(initial, 1e-12):
            raise DivergedObjective(
                f"smoothed objective {ema:.3e} exceeds 10x its initial "
                f"level {initial:.3e} at iteration {it}"
            )
        if it % LOG_EVERY == 0 or it == 1 or it == config.iterations:
            log_rows.append((it, objective, p_val))

    return LearnedRep(
        params=f,
        d=d,
        config=config,
        objective_log=np.array(log_rows, dtype=np.float64),
    )


def estimate_eigenvalues(rep: LearnedRep, data: TransitionDataset) -> np.ndarray:
    """Eigenvalue estimates for indices 2..d (length d - 1) from consecutive pairs."""
    if rep.n_states != data.n_states:
        raise DimensionMismatch(
            f"table has {rep.n_states} states, dataset has {data.n_states}"
        )
    s, s2 = data.pairs
    mask = s != s2
    if not mask.any():
        raise EmptyDataset("dataset has no edge-traversing transitions")
    f = rep.params
    diff = f[s[mask]] - f[s2[mask]]
    raw = (diff * diff).sum(axis=0) / mask.sum() * data.observed_edges
    norms = (f * f).sum(axis=0)
    return (raw / norms)[1:]


def learned_ra_laprep(rep: LearnedRep, lam: np.ndarray) -> Embedding:
    """Rescaled embedding from the learned table and eigenvalue estimates 2..d."""
    if len(lam) != rep.d - 1:
        raise DimensionMismatch(
            f"{len(lam)} eigenvalue estimates for a d = {rep.d} table"
        )
    if np.any(lam <= DEGENERATE_EIG_TOL):
        worst = float(lam.min())
        raise DegenerateEigenvalue(
            f"eigenvalue estimate {worst:.3e} is at or below {DEGENERATE_EIG_TOL}"
        )
    return Embedding(
        kind="learned",
        d=rep.d,
        vectors=rep.params[:, 1:] / np.sqrt(lam),
        eigenvalues=lam.copy(),
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank, in float64."""
    order = np.argsort(x, kind="stable")
    y = x[order]
    first = np.concatenate(([True], y[:-1] != y[1:]))
    starts = np.arange(len(y))[first]
    counts = np.diff(starts, append=len(y))
    ranks = np.arange(1, len(y) + 1, dtype=np.float64)[first]
    ranks = ranks + (counts.astype(np.float64) - 1) / 2
    out = np.empty(len(y))
    out[order] = np.repeat(ranks, counts)
    return out


def spearman_rho(a, b) -> float:
    """Spearman rank correlation, bit for bit equal to scipy's ``spearmanr``.

    The arithmetic follows scipy 1.17's own, operation for operation:
    average ranks from a stable argsort, then ``corrcoef``.  NaN when
    fewer than two observations, a constant input or any NaN leave rho
    undefined.
    """
    x = np.column_stack((a, b))
    if len(x) < 2 or (x[0] == x).all(axis=0).any() or np.isnan(x).any():
        return float("nan")
    ranked = np.column_stack((_average_ranks(x[:, 0]), _average_ranks(x[:, 1])))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def rep_quality(
    learned: Embedding,
    truth: Embedding,
    geodesics: np.ndarray,
    goals: tuple[int, ...] = (),
    full_spectrum: np.ndarray | None = None,
) -> QualityMetrics:
    """Per-dimension alignment and distance-profile agreement.

    ``full_spectrum`` (all Laplacian eigenvalues, ascending) sharpens the
    degeneracy flags; otherwise only gaps inside the truth embedding's
    own eigenvalue slice are visible.
    """
    if learned.n_states != truth.n_states:
        raise DimensionMismatch(
            f"learned has {learned.n_states} states, truth has {truth.n_states}"
        )
    if learned.vectors.shape[1] != truth.vectors.shape[1]:
        raise DimensionMismatch(
            f"learned stores {learned.vectors.shape[1]} columns, "
            f"truth stores {truth.vectors.shape[1]}"
        )
    cols = truth.vectors.shape[1]
    cosines = np.empty(cols)
    for i in range(cols):
        a = learned.vectors[:, i]
        b = truth.vectors[:, i]
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        cosines[i] = abs(float(a @ b)) / denom if denom > 0 else np.nan

    if full_spectrum is not None:
        lam = np.asarray(full_spectrum, dtype=np.float64)
        degenerate = np.zeros(cols, dtype=bool)
        scale = max(float(lam[-1]), 1.0)
        for i in range(cols):
            idx = i + 1           # column i holds eigen-index idx in 0-based terms
            gaps = []
            if idx > 0:
                gaps.append(abs(lam[idx] - lam[idx - 1]))
            if idx + 1 < len(lam):
                gaps.append(abs(lam[idx + 1] - lam[idx]))
            degenerate[i] = min(gaps) < 1e-9 * scale
    elif truth.eigenvalues is not None:
        lam = truth.eigenvalues
        degenerate = np.zeros(cols, dtype=bool)
        scale = max(float(lam[-1]), 1.0)
        for i in range(cols):
            near = [abs(lam[i] - lam[j]) for j in (i - 1, i + 1) if 0 <= j < cols]
            degenerate[i] = bool(near) and min(near) < 1e-9 * scale
    else:
        degenerate = np.zeros(cols, dtype=bool)

    eig_rel_err = None
    if learned.eigenvalues is not None and truth.eigenvalues is not None:
        eig_rel_err = np.abs(learned.eigenvalues - truth.eigenvalues) / truth.eigenvalues

    spearman: dict[int, dict[str, float]] = {}
    for goal in goals:
        learned_prof = goal_distances(learned.vectors, goal)
        truth_prof = goal_distances(truth.vectors, goal)
        geo_prof = geodesics[goal]
        spearman[int(goal)] = {
            "learned_vs_truth": spearman_rho(learned_prof, truth_prof),
            "learned_vs_geodesic": spearman_rho(learned_prof, geo_prof),
            "truth_vs_geodesic": spearman_rho(truth_prof, geo_prof),
        }
    return QualityMetrics(
        cosines=cosines,
        degenerate=degenerate,
        eig_rel_err=eig_rel_err,
        spearman=spearman,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def training_log_csv(rep: LearnedRep) -> str:
    lines = ["iteration,objective,penalty"]
    for it, obj, pen in rep.objective_log:
        lines.append(f"{int(it)},{obj:.17g},{pen:.17g}")
    return "\n".join(lines) + "\n"
