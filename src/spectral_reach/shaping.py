"""Distance-shaped rewards and tabular Q-learning experiments.

The per-step reward mixes a sparse environment term (0 at the goal, -1
elsewhere) with a dense distance term: the negated embedding distance
to the goal, or the negated Euclidean distance between grid positions
scaled to [-0.5, 0.5] for the "l2" kind, or zero for "none".  Success
is judged purely from states (goal reached within the step cap); the
reward never enters that judgment.

Every episode draws its exploration noise from a PCG64 stream keyed by
(seed, episode), so runs with the same seed but different reward kinds
consume identical noise streams and differ only through the shaping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envgrid import MazeSpec, transition_table
from .errors import DimensionMismatch, MissingEmbedding, UnreachableGoal
from .graph import graph_from_transitions, is_connected
from .spectral import Embedding, goal_distances

REWARD_KINDS = ("ra_laprep", "laprep", "l2", "none")


@dataclass(frozen=True)
class RewardSpec:
    """How to score a transition into a state, for one goal."""

    kind: str
    goal: int
    embedding: Embedding | None = None
    positions: np.ndarray | None = None    # (n, 2) scaled grid positions
    w_env: float = 0.5
    w_dist: float = 0.5

    def validate(self, n_states: int) -> None:
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}, expected {REWARD_KINDS}")
        if not 0 <= self.goal < n_states:
            raise ValueError(f"goal state {self.goal} out of range [0, {n_states})")
        if self.kind in ("ra_laprep", "laprep"):
            if self.embedding is None:
                raise MissingEmbedding(f"reward kind {self.kind!r} needs an embedding")
            if self.embedding.n_states != n_states:
                raise DimensionMismatch(
                    f"embedding has {self.embedding.n_states} states, maze has {n_states}"
                )
        if self.kind == "l2":
            if self.positions is None:
                raise MissingEmbedding("reward kind 'l2' needs scaled grid positions")
            if len(self.positions) != n_states:
                raise DimensionMismatch(
                    f"positions list has {len(self.positions)} states, maze has {n_states}"
                )


@dataclass(frozen=True)
class QLearningConfig:
    episodes: int = 500
    episode_cap: int = 150
    step_size: float = 0.1
    discount: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_fraction: float = 0.3   # fraction of episodes spent annealing
    success_window: int = 25        # smoothing window for threshold crossings

    def validate(self) -> None:
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")
        if self.episodes <= 0 or self.episode_cap <= 0:
            raise ValueError("episodes and episode_cap must be positive")
        for name in ("epsilon_start", "epsilon_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 < self.epsilon_fraction <= 1.0:
            raise ValueError("epsilon_fraction must lie in (0, 1]")
        if not 0.0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")


@dataclass(frozen=True)
class RunResult:
    """One Q-learning run: per-episode outcomes and the final table."""

    kind: str
    goal: int
    seed: int
    success: np.ndarray            # (episodes,) bool
    steps: np.ndarray              # (episodes,) int
    q_table: np.ndarray            # (n, 4)

    @property
    def auc(self) -> float:
        """Normalized area under the success curve (mean success)."""
        return float(self.success.mean())


@dataclass(frozen=True)
class ShapingRun:
    """A factorial experiment over kinds x goals x seeds."""

    kinds: tuple[str, ...]
    goals: tuple[int, ...]
    seeds: tuple[int, ...]
    config: QLearningConfig
    runs: dict[tuple[str, int, int], RunResult]

    def curve(self, kind: str) -> np.ndarray:
        """Mean success per episode over all goals and seeds of one kind."""
        rows = [r.success for key, r in self.runs.items() if key[0] == kind]
        return np.mean(rows, axis=0)

    def per_run_auc(self, kind: str) -> np.ndarray:
        """AUC per (goal, seed), ordered consistently across kinds."""
        return np.array([
            self.runs[(kind, goal, seed)].auc
            for goal in self.goals
            for seed in self.seeds
        ])

    def aggregate(self) -> dict[str, dict[str, float]]:
        return {
            kind: {
                **_auc_stats(self.per_run_auc(kind)),
                "episodes_to_90pct": episodes_to_threshold(
                    self.curve(kind), 0.9, self.config.success_window
                ),
            }
            for kind in self.kinds
        }


def _auc_stats(aucs: np.ndarray) -> dict[str, float]:
    """Mean AUC over runs and its standard error."""
    return {
        "auc": float(aucs.mean()),
        "stderr": float(aucs.std(ddof=1) / np.sqrt(len(aucs))) if len(aucs) > 1 else 0.0,
    }


def scaled_positions(maze: MazeSpec) -> np.ndarray:
    """Grid (x, y) per state, linearly scaled into [-0.5, 0.5]."""
    index = maze.state_index()
    pos = np.array(index.coords, dtype=np.float64)
    pos[:, 0] = pos[:, 0] / (maze.width - 1) - 0.5
    pos[:, 1] = pos[:, 1] / (maze.height - 1) - 0.5
    return pos


def reward_table(spec: RewardSpec, n: int) -> np.ndarray:
    """Reward for entering each state: w_env * (0 at goal else -1) - w_dist * distance."""
    if spec.kind == "none":
        dist = np.zeros(n)
    else:
        x = spec.positions if spec.kind == "l2" else spec.embedding.vectors
        dist = goal_distances(x, spec.goal)
    return spec.w_env * np.where(np.arange(n) == spec.goal, 0.0, -1.0) - spec.w_dist * dist


def q_learning(
    maze: MazeSpec,
    spec: RewardSpec,
    config: QLearningConfig | None = None,
    seed: int = 0,
) -> RunResult:
    """Tabular epsilon-greedy Q-learning under a shaped reward: one run."""
    return q_learning_batch(maze, [spec], (seed,), config or QLearningConfig())[0]


def q_learning_batch(
    maze: MazeSpec,
    specs: list[RewardSpec],
    seeds: tuple[int, ...],
    config: QLearningConfig,
) -> list[RunResult]:
    """Q-learning for every (spec, seed) pair, spec-major, in lockstep.

    Epsilon anneals linearly from epsilon_start to epsilon_end over the
    first epsilon_fraction of episodes.  Start states are uniform over
    floor cells excluding the goal.  The goal is absorbing with value 0.
    Each step is one numpy operation over the runs still in an episode.
    Runs own disjoint rows of one flat Q-table and share the (seed, ep)
    noise of their seed, so each equals the same run made alone.
    """
    if not specs or not seeds:
        raise ValueError("specs and seeds must be nonempty")
    config.validate()
    table = transition_table(maze)
    n, n_act = table.shape
    # The state graph is undirected: a goal is reachable from every
    # floor cell exactly when the graph is connected.
    connected = is_connected(graph_from_transitions(n, np.repeat(np.arange(n), n_act),
                                                    table.ravel()))
    for spec in specs:
        spec.validate(n)
        if not connected:
            raise UnreachableGoal(
                f"goal state {spec.goal} is not reachable from every floor cell"
            )
    if n < 2:
        raise ValueError("Q-learning needs a floor cell besides the goal")

    pairs = [(spec, seed) for spec in specs for seed in seeds]
    offset = np.arange(len(pairs)) * n          # run i owns Q rows offset[i] + s
    goal = np.array([spec.goal for spec, _ in pairs])
    next_row = (table + offset[:, None, None]).ravel()    # at row * n_act + a
    reward = np.concatenate([reward_table(spec, n) for spec, _ in pairs])
    unique_seeds = list(dict.fromkeys(seeds))
    seed_of = np.array([unique_seeds.index(seed) for _, seed in pairs])
    q = np.zeros(len(pairs) * n * n_act)
    q_rows = q.reshape(-1, n_act)
    success = np.zeros((len(pairs), config.episodes), dtype=bool)
    steps = np.full((len(pairs), config.episodes), config.episode_cap, dtype=np.int64)
    anneal = max(int(round(config.episodes * config.epsilon_fraction)), 1)
    alpha, gamma, cap = config.step_size, config.discount, config.episode_cap

    for ep in range(config.episodes):
        eps = config.epsilon_end
        if ep < anneal:
            eps = config.epsilon_start + (eps - config.epsilon_start) * (ep / anneal)
        u = np.array([
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ep))))
            .random(1 + 2 * cap)
            for seed in unique_seeds
        ])
        k = (u[:, 0] * (n - 1)).astype(np.int64)[seed_of]   # index among non-goal states
        noise = u[:, 1:].reshape(-1, cap, 2)
        # Random action where exploring, -1 where acting greedily.
        pick = np.where(noise[..., 0] < eps, (noise[..., 1] * n_act).astype(np.int64), -1)
        runs, run_seed, run_goal = np.arange(len(pairs)), seed_of, offset + goal
        row = offset + k + (k >= goal)
        for t in range(cap):
            a = pick[run_seed, t]
            a = np.where(a >= 0, a, q_rows[row].argmax(axis=1))
            qi = row * n_act + a
            row = next_row[qi]
            # No run acts from its goal, so the goal's Q row stays 0 and
            # the target at the goal is the reward alone.
            q[qi] += alpha * (reward[row] + gamma * q_rows[row].max(axis=1) - q[qi])
            done = row == run_goal
            finished = runs[done]
            if len(finished):
                steps[finished, ep] = t + 1
                success[finished, ep] = True
                runs, row, run_seed, run_goal = (x[~done] for x in (runs, row, run_seed, run_goal))
                if not len(runs):
                    break

    q_tables = q.reshape(len(pairs), n, n_act)
    return [
        RunResult(spec.kind, spec.goal, seed, success[i], steps[i], q_tables[i])
        for i, (spec, seed) in enumerate(pairs)
    ]


def episodes_to_threshold(curve: np.ndarray, threshold: float, window: int) -> int:
    """First episode whose trailing-window mean success meets the threshold.

    Returns the curve length when the threshold is never met.
    """
    if len(curve) == 0:
        return 0
    w = max(1, min(window, len(curve)))
    csum = np.concatenate([[0.0], np.cumsum(curve)])
    trailing = (csum[w:] - csum[:-w]) / w
    hits = np.nonzero(trailing >= threshold)[0]
    return int(hits[0] + w) if hits.size else len(curve)


def run_experiment(
    maze: MazeSpec,
    kinds: tuple[str, ...],
    goals: tuple[int, ...],
    seeds: tuple[int, ...],
    config: QLearningConfig,
    embeddings: dict[str, Embedding],
) -> ShapingRun:
    """Factorial runs over kinds x goals x seeds with shared noise per seed.

    ``embeddings`` supplies the embedding for each kind that needs one.
    """
    if not kinds or not goals or not seeds:
        raise ValueError("kinds, goals, and seeds must be nonempty")
    positions = scaled_positions(maze)
    specs = [
        RewardSpec(kind, goal, embeddings.get(kind), positions if kind == "l2" else None)
        for kind in kinds
        for goal in goals
    ]
    batch = q_learning_batch(maze, specs, seeds, config)
    runs = {(r.kind, r.goal, r.seed): r for r in batch}
    return ShapingRun(tuple(kinds), tuple(goals), tuple(seeds), config, runs)


def paired_t_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """One-sided p-value that mean(a - b) > 0, by a paired t-test.

    Bit for bit equal to scipy's ``ttest_rel(a, b, alternative="greater")``
    for two or more pairs: the arithmetic follows scipy 1.17's own,
    operation for operation, without its warnings.
    """
    # Imported here: scipy.special adds 25 modules and ~60 ms to every
    # CLI start, and only the paired test needs it.
    from scipy.special import stdtr

    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    n = len(d)
    v = np.mean((d - np.mean(d, keepdims=True)) ** 2) * (n / (n - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.mean(d) / np.sqrt(v / n)
    return float(stdtr(float(n - 1), -t))


def paired_auc_test(run: ShapingRun, kind_a: str, kind_b: str) -> tuple[float, float | None]:
    """One-sided paired t-test that kind_a's per-run AUC exceeds kind_b's.

    Returns (mean difference, p-value); pairs share (goal, seed).  With
    fewer than two pairs there is no test, and the p-value is None.
    """
    a = run.per_run_auc(kind_a)
    b = run.per_run_auc(kind_b)
    if len(a) < 2:
        return float((a - b).mean()), None
    if np.allclose(a, b):
        return 0.0, 1.0
    return float((a - b).mean()), paired_t_pvalue(a, b)


def dimension_sweep(
    maze: MazeSpec,
    d_values: tuple[int, ...],
    goals: tuple[int, ...],
    seeds: tuple[int, ...],
    config: QLearningConfig,
    embedding_for_d,
) -> dict[int, dict[str, float]]:
    """Shaping quality as a function of embedding dimension.

    ``embedding_for_d`` maps d to the embedding used for shaping.  The
    report carries mean AUC and its standard error per d.
    """
    if not d_values:
        raise ValueError("d_values must be nonempty")
    specs = [
        RewardSpec(kind=emb.kind, goal=goal, embedding=emb)
        for emb in map(embedding_for_d, d_values)
        for goal in goals
    ]
    aucs = np.array([r.auc for r in q_learning_batch(maze, specs, seeds, config)])
    per_d = aucs.reshape(len(d_values), -1)
    return {int(d): _auc_stats(a) for d, a in zip(d_values, per_d)}


def curves_csv(run: ShapingRun) -> str:
    """Per-run success curves: episode,kind,goal,seed,success,steps."""
    lines = ["episode,kind,goal,seed,success,steps"]
    for (kind, goal, seed), result in sorted(run.runs.items()):
        for ep in range(len(result.success)):
            lines.append(
                f"{ep},{kind},{goal},{seed},"
                f"{int(result.success[ep])},{int(result.steps[ep])}"
            )
    return "\n".join(lines) + "\n"
