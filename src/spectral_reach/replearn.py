"""Sample-based learning of the spectral embedding from random walks.

A tabular function table f : states x dimensions is trained on
transition data with a generalized graph-drawing objective: dimension i
carries weight c_i = d - i + 1 on the attraction term
E[(f_i(s) - f_i(s'))^2] over sampled state pairs, and every (i, j) pair
pays min(c_i, c_j) times the squared deviation of E_s[f_i(s) f_j(s)]
from the identity, weighted by ``PENALTY_WEIGHT``.  The decreasing
weights make the minimizer the ordered eigenvector basis rather than an
arbitrary rotation of it.

Pairs are sampled from episodes at geometric offsets: offset k is drawn
with P(k) = (1 - g) g^(k-1) for g = ``PAIR_DISCOUNT``, then a start
position is drawn uniformly among the positions that admit offset k
(offsets beyond the episode length are redrawn).  Orthonormality
expectations use the empirical state-visitation distribution of the
dataset.

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

The induced graph and the estimates' sums stream over ``PAIR_BLOCK``
transitions at a time, in O(PAIR_BLOCK * d + edges) memory beside the
episode matrix.  Each block's sum starts from the running total as its
first row, so the rows add in the order of one whole-array ``sum(axis=0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .envgrid import ACTIONS, MazeSpec, transition_table
from .errors import InputError, NumericalError, PreconditionError
from .graph import (StateGraph, graph_from_table, graph_from_transitions, require_connected,
                    sorted_unique)
from .spectral import Embedding, check_dimension, goal_distances, tied

#: eigenvalue estimates at or below this are too degenerate to rescale by
DEGENERATE_EIG_TOL = 1e-8
#: geometric pair-offset parameter g of the pair sampler
PAIR_DISCOUNT = 0.9
LOG_PAIR_DISCOUNT = np.log(PAIR_DISCOUNT)
#: weight of the orthonormality penalty in the objective
PENALTY_WEIGHT = 5.0
#: transitions per block when dataset statistics are streamed
PAIR_BLOCK = 1 << 13
#: the training log keeps iteration 1, every LOG_EVERY-th, and the last
LOG_EVERY = 500


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 20000
    batch_size: int = 1024
    step_size: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        if self.iterations <= 0 or self.batch_size <= 0:
            raise InputError("iterations and batch_size must be positive")
        if not 0.0 < self.step_size < np.inf:
            raise InputError(f"step_size must be positive and finite, got {self.step_size}")


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

    def moves(self):
        """Consecutive moves (s, s2 != s), episode by episode, PAIR_BLOCK transitions a block."""
        flat = self.episodes.ravel()
        for lo in range(0, self.total_steps, PAIR_BLOCK):
            at = np.arange(lo, min(lo + PAIR_BLOCK, self.total_steps))
            at += at // (self.episodes.shape[1] - 1)   # transition j's source in flat
            s, s2 = flat[at], flat[at + 1]
            move = s != s2
            yield s[move], s2[move]

    @cached_property
    def induced_graph(self) -> StateGraph:
        """Graph over the full state space with edges observed in the data.

        States never seen in a transition are isolated nodes, so sparse
        coverage shows up as disconnection.
        """
        keys = np.empty(0, dtype=np.int64)   # distinct moves s * n + s2 of the blocks so far
        for s, s2 in self.moves():
            keys = sorted_unique(np.concatenate([keys, s.astype(np.int64) * self.n_states + s2]))
        return graph_from_transitions(self.n_states, *np.divmod(keys, self.n_states))


@dataclass(frozen=True)
class LearnedRep:
    """Trained function table plus its training trace."""

    params: np.ndarray             # (n_states, d)
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
        raise InputError(f"temperature must be nonnegative and finite, got {temperature}")
    index = maze.state_index()
    n = len(index)
    bias = np.zeros(n)
    if temperature > 0:
        if not maze.bias_cells:
            raise PreconditionError(
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
        raise InputError("episodes and episode_len must be positive")
    table = transition_table(maze)
    require_connected(graph_from_table(table))
    cum = np.cumsum(start_distribution(maze, temperature))
    u = np.empty(episodes)
    actions = np.empty((episodes, episode_len), dtype=np.int8)
    for e in range(episodes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, e))))
        u[e] = rng.random()
        actions[e] = rng.integers(0, len(ACTIONS), size=episode_len)
    walks = np.empty((episodes, episode_len + 1), dtype=np.int64)
    walks[:, 0] = np.minimum(np.searchsorted(cum, u, side="right"), len(table) - 1)
    for t in range(episode_len):
        walks[:, t + 1] = table[walks[:, t], actions[:, t]]
    return TransitionDataset(episodes=walks, n_states=len(table))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def sample_pair_batch(
    matrix: np.ndarray, batch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of (s, s') pairs at geometric offsets from stacked episodes."""
    n_eps, length = matrix.shape
    max_offset = length - 1
    k = _geometric_offsets(rng.random(batch_size))
    need = k > max_offset
    while need.any():           # redraw offsets the episodes cannot hold
        k[need] = _geometric_offsets(rng.random(int(need.sum())))
        need = k > max_offset
    e = rng.integers(0, n_eps, size=batch_size)
    t = np.floor(rng.random(batch_size) * (length - k)).astype(np.int64)
    return matrix[e, t], matrix[e, t + k]


def _geometric_offsets(u: np.ndarray) -> np.ndarray:
    """Offsets k >= 1 with P(k) = (1 - g) g^(k-1), from uniform draws u in [0, 1)."""
    return 1 + np.floor(np.log1p(-u) / LOG_PAIR_DISCOUNT).astype(np.int64)


def attraction_value_grad(
    f: np.ndarray, weights: np.ndarray, s: np.ndarray, s2: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted mean squared pair difference and its gradient in f."""
    diff = f[s] - f[s2]
    value = float(np.add.reduce((diff * diff) @ weights) / len(s))   # np.mean's bits
    scaled = (2.0 / len(s)) * diff * weights
    # add scaled at s, then -scaled at s2: np.add.at and np.subtract.at's sums, bit for bit
    n, d = f.shape
    bins = (np.concatenate([s, s2])[:, None] * d + np.arange(d)).ravel()
    grad = np.bincount(bins, np.concatenate([scaled, -scaled]).ravel(), minlength=n * d)
    return value, grad.reshape(n, d)


def penalty_value_grad(
    f: np.ndarray, pair_weights: np.ndarray, visit: np.ndarray, strength: float
) -> tuple[float, np.ndarray]:
    """Orthonormality penalty over the visitation distribution.

    Penalizes sum over i <= j of pair_weights[i, j] * (gram_ij - delta_ij)^2
    where gram = f^T diag(visit) f.
    """
    d = f.shape[1]
    below = _strictly_below(d)
    wf = visit[:, None] * f
    err = f.T @ wf
    err.reshape(-1)[::d + 1] -= 1.0                      # gram - I
    weighted = pair_weights * err
    upper = float(np.sum(np.where(below, 0.0, pair_weights * err * err)))   # np.triu's sum
    # weighted + diag(diag(weighted)): w + 0.0 off the diagonal, w + w on it
    twice = weighted + 0.0
    on_diagonal = weighted.reshape(-1)[::d + 1]
    twice.reshape(-1)[::d + 1] = on_diagonal + on_diagonal
    grad = 2.0 * strength * wf @ twice
    return strength * upper, grad


@cache
def _strictly_below(d: int) -> np.ndarray:
    """The (d, d) mask of the entries below the diagonal, which np.triu zeroes."""
    return np.tri(d, k=-1, dtype=bool)


def train_graph_drawing(
    data: TransitionDataset, d: int, config: TrainConfig | None = None
) -> LearnedRep:
    """Train the tabular function table with Adam on minibatch gradients.

    Raises PreconditionError when the dataset-induced graph does not
    connect the full state space, and NumericalError when the
    smoothed objective exceeds 10x its initial level.
    """
    if config is None:
        config = TrainConfig()
    config.validate()
    n = data.n_states
    check_dimension(d, n)
    if data.total_steps == 0:
        raise InputError("dataset has no transitions")
    require_connected(data.induced_graph, "graph of the sampled transitions")

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
    # divergence is reported once, by the objective check, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, config.iterations + 1):
            s, s2 = sample_pair_batch(data.episodes, config.batch_size, rng)
            a_val, a_grad = attraction_value_grad(f, dim_weights, s, s2)
            p_val, p_grad = penalty_value_grad(f, pair_weights, visit, PENALTY_WEIGHT)
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
            if not ema <= 10.0 * max(initial, 1e-12):
                raise NumericalError(
                    f"smoothed objective {ema:.3e} exceeds 10x its initial "
                    f"level {initial:.3e} at iteration {it}"
                )
            if it % LOG_EVERY == 0 or it == 1 or it == config.iterations:
                log_rows.append((it, objective, p_val))

    return LearnedRep(
        params=f,
        config=config,
        objective_log=np.array(log_rows, dtype=np.float64),
    )


def estimate_eigenvalues(rep: LearnedRep, data: TransitionDataset) -> np.ndarray:
    """Eigenvalue estimates for indices 2..d (length d - 1) from consecutive pairs."""
    if rep.n_states != data.n_states:
        raise InputError(
            f"table has {rep.n_states} states, dataset has {data.n_states}"
        )
    f = rep.params
    total, count = np.zeros((1, f.shape[1])), 0
    for s, s2 in data.moves():
        # the running total leads each block's rows: one in-order sum over every row
        total = np.concatenate([total, np.square(f[s] - f[s2])]).sum(axis=0, keepdims=True)
        count += len(s)
    if count == 0:
        raise InputError("dataset has no edge-traversing transitions")
    edges = data.induced_graph.volume // 2
    raw = total[0] / count * edges
    norms = (f * f).sum(axis=0)
    return (raw / norms)[1:]


def learned_ra_laprep(rep: LearnedRep, lam: np.ndarray) -> Embedding:
    """Rescaled embedding from the learned table and eigenvalue estimates 2..d."""
    d = rep.params.shape[1]
    if len(lam) != d - 1:
        raise InputError(f"{len(lam)} eigenvalue estimates for a d = {d} table")
    if not np.all(lam > DEGENERATE_EIG_TOL):
        worst = float(lam.min())
        raise NumericalError(
            f"eigenvalue estimate {worst:.3e} is at or below {DEGENERATE_EIG_TOL}"
        )
    return Embedding(
        kind="learned",
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
    geodesics: np.ndarray | dict[int, np.ndarray],
    goals: tuple[int, ...] = (),
    *,
    full_spectrum: np.ndarray,
) -> QualityMetrics:
    """Per-dimension alignment and distance-profile agreement.

    ``geodesics[goal]`` is the geodesic distance of every state to goal:
    a row of the all-pairs matrix, or of a dict holding the goal rows.

    ``full_spectrum`` holds lambda_0..lambda_d or more, ascending.  A column is
    degenerate when its eigenvalue is ``spectral.tied`` to a neighbor's; ``learn``
    passes lambda_0..lambda_d, so the tie scale is max(lambda_d, 1).
    """
    if learned.n_states != truth.n_states:
        raise InputError(
            f"learned has {learned.n_states} states, truth has {truth.n_states}"
        )
    if learned.vectors.shape[1] != truth.vectors.shape[1]:
        raise InputError(
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

    # column i holds eigen-index i + 1, tied to a neighbor at gap i or gap i + 1
    gap = np.append(tied(np.asarray(full_spectrum, dtype=np.float64)), False)
    degenerate = gap[:cols] | gap[1:cols + 1]

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
