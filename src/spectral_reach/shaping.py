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
from scipy import stats

from .envgrid import ACTIONS, MazeSpec, transition_table
from .errors import (
    DimensionMismatch,
    MissingEmbedding,
    UnreachableGoal,
)
from .graph import bfs_distances, build_graph
from .spectral import Embedding

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
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")


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
        out = {}
        for kind in self.kinds:
            aucs = self.per_run_auc(kind)
            out[kind] = {
                "auc": float(aucs.mean()),
                "stderr": float(aucs.std(ddof=1) / np.sqrt(len(aucs)))
                if len(aucs) > 1 else 0.0,
                "episodes_to_90pct": episodes_to_threshold(
                    self.curve(kind), 0.9, self.config.success_window
                ),
            }
        return out


def scaled_positions(maze: MazeSpec) -> np.ndarray:
    """Grid (x, y) per state, linearly scaled into [-0.5, 0.5]."""
    index = maze.state_index()
    pos = np.array(index.coords, dtype=np.float64)
    pos[:, 0] = pos[:, 0] / (maze.width - 1) - 0.5
    pos[:, 1] = pos[:, 1] / (maze.height - 1) - 0.5
    return pos


def shaped_reward(spec: RewardSpec, s_next: int) -> float:
    """w_env * (0 at goal else -1) + w_dist * (negated distance term)."""
    r_env = 0.0 if s_next == spec.goal else -1.0
    if spec.kind == "none":
        r_dist = 0.0
    elif spec.kind == "l2":
        r_dist = -float(np.linalg.norm(spec.positions[s_next] - spec.positions[spec.goal]))
    else:
        e = spec.embedding
        r_dist = -float(np.linalg.norm(e.vectors[s_next] - e.vectors[spec.goal]))
    return spec.w_env * r_env + spec.w_dist * r_dist


def _distance_table(spec: RewardSpec, n: int) -> np.ndarray:
    """Per-state distance term, precomputed for the inner loop."""
    if spec.kind == "none":
        return np.zeros(n)
    if spec.kind == "l2":
        return np.linalg.norm(spec.positions - spec.positions[spec.goal], axis=1)
    return np.linalg.norm(spec.embedding.vectors - spec.embedding.vectors[spec.goal], axis=1)


def q_learning(
    maze: MazeSpec,
    spec: RewardSpec,
    config: QLearningConfig | None = None,
    seed: int = 0,
) -> RunResult:
    """Tabular epsilon-greedy Q-learning under a shaped reward.

    Epsilon anneals linearly from epsilon_start to epsilon_end over the
    first epsilon_fraction of episodes.  Start states are uniform over
    floor cells excluding the goal.  The goal is absorbing with value 0.
    """
    if config is None:
        config = QLearningConfig()
    config.validate()
    table = transition_table(maze)
    n = len(table)
    spec.validate(n)
    if np.any(bfs_distances(build_graph(maze), spec.goal) < 0):
        raise UnreachableGoal(
            f"goal state {spec.goal} is not reachable from every floor cell"
        )
    reward_tab = spec.w_env * np.where(np.arange(n) == spec.goal, 0.0, -1.0)
    reward_tab = reward_tab - spec.w_dist * _distance_table(spec, n)

    q = np.zeros((n, len(ACTIONS)))
    successes = np.zeros(config.episodes, dtype=bool)
    steps_taken = np.zeros(config.episodes, dtype=np.int64)
    anneal = max(int(round(config.episodes * config.epsilon_fraction)), 1)
    starts = np.array([s for s in range(n) if s != spec.goal])
    alpha, gamma = config.step_size, config.discount

    for ep in range(config.episodes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ep))))
        if ep < anneal:
            eps = config.epsilon_start + (config.epsilon_end - config.epsilon_start) * (
                ep / anneal
            )
        else:
            eps = config.epsilon_end
        s = int(starts[int(rng.random() * len(starts))])
        noise = rng.random((config.episode_cap, 2))
        t = 0
        for t in range(1, config.episode_cap + 1):
            u_explore, u_action = noise[t - 1]
            if u_explore < eps:
                a = int(u_action * len(ACTIONS))
            else:
                a = int(np.argmax(q[s]))
            s_next = int(table[s, a])
            r = reward_tab[s_next]
            done = s_next == spec.goal
            target = r if done else r + gamma * float(np.max(q[s_next]))
            q[s, a] += alpha * (target - q[s, a])
            s = s_next
            if done:
                break
        successes[ep] = s == spec.goal
        steps_taken[ep] = t
    return RunResult(
        kind=spec.kind,
        goal=spec.goal,
        seed=seed,
        success=successes,
        steps=steps_taken,
        q_table=q,
    )


def greedy_rollout(
    maze: MazeSpec, q: np.ndarray, start: int, goal: int, cap: int = 10_000
) -> int:
    """Steps the greedy policy takes from start to goal; -1 if it fails."""
    table = transition_table(maze)
    s = start
    for t in range(cap):
        if s == goal:
            return t
        s = int(table[s, int(np.argmax(q[s]))])
    return -1 if s != goal else cap


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
    config.validate()
    positions = scaled_positions(maze)
    runs = {}
    for kind in kinds:
        for goal in goals:
            spec = RewardSpec(
                kind=kind,
                goal=goal,
                embedding=embeddings.get(kind),
                positions=positions if kind == "l2" else None,
            )
            for seed in seeds:
                runs[(kind, goal, seed)] = q_learning(maze, spec, config, seed)
    return ShapingRun(
        kinds=tuple(kinds),
        goals=tuple(goals),
        seeds=tuple(seeds),
        config=config,
        runs=runs,
    )


def paired_auc_test(run: ShapingRun, kind_a: str, kind_b: str) -> tuple[float, float]:
    """One-sided paired t-test that kind_a's per-run AUC exceeds kind_b's.

    Returns (mean difference, p-value); pairs share (goal, seed).
    """
    a = run.per_run_auc(kind_a)
    b = run.per_run_auc(kind_b)
    if np.allclose(a, b):
        return 0.0, 1.0
    res = stats.ttest_rel(a, b, alternative="greater")
    return float((a - b).mean()), float(res.pvalue)


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
    report: dict[int, dict[str, float]] = {}
    for d in d_values:
        emb = embedding_for_d(d)
        run = run_experiment(
            maze, (emb.kind,), goals, seeds, config, {emb.kind: emb}
        )
        aucs = run.per_run_auc(emb.kind)
        report[int(d)] = {
            "auc": float(aucs.mean()),
            "stderr": float(aucs.std(ddof=1) / np.sqrt(len(aucs)))
            if len(aucs) > 1 else 0.0,
        }
    return report


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
