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

import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np

from .envgrid import MazeSpec, transition_table
from .errors import InputError
from .graph import graph_from_table, require_connected
from .spectral import Embedding, check_state, goal_distances

REWARD_KINDS = ("ra_laprep", "laprep", "l2", "none")
#: reward weights of the environment and distance terms
W_ENV = 0.5
W_DIST = 0.5
#: step cap per episode
EPISODE_CAP = 150
#: Q-learning step size and discount
STEP_SIZE = 0.1
DISCOUNT = 0.99
#: epsilon anneals from EPSILON_START to EPSILON_END over EPSILON_FRACTION of the episodes
EPSILON_START = 1.0
EPSILON_END = 0.05
EPSILON_FRACTION = 0.3
#: smoothing window for threshold crossings
SUCCESS_WINDOW = 25


def check_kinds(kinds: tuple[str, ...]) -> None:
    """Refuse an unknown reward kind and a kind given more than once."""
    for i, k in enumerate(kinds):
        if k not in REWARD_KINDS:
            raise InputError(f"unknown reward kind {k!r}, expected one of {REWARD_KINDS}")
        if k in kinds[:i]:
            raise InputError(f"reward kind {k!r} is given more than once")


@dataclass(frozen=True)
class RewardSpec:
    """How to score a transition into a state, for one goal."""

    kind: str
    goal: int
    embedding: Embedding | None = None
    positions: np.ndarray | None = None    # (n, 2) scaled grid positions

    def validate(self, n_states: int) -> None:
        check_kinds((self.kind,))
        check_state(self.goal, n_states)
        if self.kind in ("ra_laprep", "laprep"):
            if self.embedding is None:
                raise InputError(f"reward kind {self.kind!r} needs an embedding")
            if self.embedding.n_states != n_states:
                raise InputError(
                    f"embedding has {self.embedding.n_states} states, maze has {n_states}"
                )
        if self.kind == "l2":
            if self.positions is None:
                raise InputError("reward kind 'l2' needs scaled grid positions")
            if len(self.positions) != n_states:
                raise InputError(
                    f"positions list has {len(self.positions)} states, maze has {n_states}"
                )


@dataclass(frozen=True)
class QLearningConfig:
    episodes: int = 500

    def validate(self) -> None:
        if self.episodes <= 0:
            raise InputError(f"episodes must be positive, got {self.episodes}")


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
                "episodes_to_90pct": episodes_to_threshold(self.curve(kind), 0.9,
                                                           SUCCESS_WINDOW),
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
    """Reward for entering each state: W_ENV * (0 at goal else -1) - W_DIST * distance."""
    if spec.kind == "none":
        dist = np.zeros(n)
    else:
        x = spec.positions if spec.kind == "l2" else spec.embedding.vectors
        dist = goal_distances(x, spec.goal)
    return W_ENV * np.where(np.arange(n) == spec.goal, 0.0, -1.0) - W_DIST * dist


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

    Epsilon anneals linearly from EPSILON_START to EPSILON_END over the
    first EPSILON_FRACTION of episodes.  Start states are uniform over
    floor cells excluding the goal.  The goal is absorbing with value 0.
    Each step is one numpy operation over the runs still in an episode.
    Runs own disjoint rows of one flat Q-table and share the (seed, ep)
    noise of their seed, so each equals the same run made alone.
    """
    if not specs or not seeds:
        raise InputError("specs and seeds must be nonempty")
    config.validate()
    table = transition_table(maze)
    n, n_act = table.shape
    for spec in specs:
        spec.validate(n)
    # the graph is undirected: a goal is reachable from every floor cell iff it is connected
    require_connected(graph_from_table(table))
    if n < 2:
        raise InputError("Q-learning needs a floor cell besides the goal")

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
    steps = np.full((len(pairs), config.episodes), EPISODE_CAP, dtype=np.int64)
    anneal = max(int(round(config.episodes * EPSILON_FRACTION)), 1)

    for ep in range(config.episodes):
        eps = EPSILON_END
        if ep < anneal:
            eps = EPSILON_START + (eps - EPSILON_START) * (ep / anneal)
        u = np.array([
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ep))))
            .random(1 + 2 * EPISODE_CAP)
            for seed in unique_seeds
        ])
        k = (u[:, 0] * (n - 1)).astype(np.int64)[seed_of]   # index among non-goal states
        noise = u[:, 1:].reshape(-1, EPISODE_CAP, 2)
        # Random action where exploring, -1 where acting greedily.
        pick = np.where(noise[..., 0] < eps, (noise[..., 1] * n_act).astype(np.int64), -1)
        runs, run_seed, run_goal = np.arange(len(pairs)), seed_of, offset + goal
        row = offset + k + (k >= goal)
        for t in range(EPISODE_CAP):
            a = pick[run_seed, t]
            a = np.where(a >= 0, a, q_rows[row].argmax(axis=1))
            qi = row * n_act + a
            row = next_row[qi]
            # No run acts from its goal, so the goal's Q row stays 0 and
            # the target at the goal is the reward alone.
            q[qi] += STEP_SIZE * (reward[row] + DISCOUNT * q_rows[row].max(axis=1) - q[qi])
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
        raise InputError("kinds, goals, and seeds must be nonempty")
    check_kinds(kinds)
    positions = scaled_positions(maze)
    specs = [
        RewardSpec(kind, goal, embeddings.get(kind), positions if kind == "l2" else None)
        for kind in kinds
        for goal in goals
    ]
    batch = q_learning_batch(maze, specs, seeds, config)
    runs = {(r.kind, r.goal, r.seed): r for r in batch}
    return ShapingRun(tuple(kinds), tuple(goals), tuple(seeds), runs)


def paired_t(a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
    """The paired t statistic of a - b and its degrees of freedom, pairs - 1.

    Bit for bit equal to scipy's ``ttest_rel(a, b).statistic`` for two or
    more pairs: the arithmetic follows scipy 1.17's own, operation for
    operation, without its warnings.
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    n = len(d)
    v = np.mean((d - np.mean(d, keepdims=True)) ** 2) * (n / (n - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.mean(d) / np.sqrt(v / n)
    return float(t), n - 1


def paired_t_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """One-sided p-value that mean(a - b) > 0, by a paired t-test."""
    return student_t_sf(*paired_t(a, b))


#: significant digits of the t tail's evaluations: the first two that
#: round to one double give the result, else the last one does
TAIL_DIGITS = (40, 55, 110, 220, 440, 880)


def student_t_sf(t: float, df: int) -> float:
    """P(T >= t) for Student's t with integer ``df`` >= 1, correctly rounded.

    The tail is evaluated in decimal arithmetic at growing precision
    until two evaluations round to the same double, so the result is the
    exact tail rounded to nearest, not an approximation of it.
    """
    if math.isnan(t):
        return math.nan
    if t == 0 or math.isinf(t):
        return 0.5 if t == 0 else float(t < 0)
    p = None
    for digits in TAIL_DIGITS:
        p, last = float(_t_tail(t, df, digits)), p
        if p == last:
            break
    return p


def _t_tail(t: float, nu: int, digits: int) -> Decimal:
    """P(T >= t) for nonzero finite t and nu degrees of freedom, in decimal.

    With x = nu / (nu + t^2) and y = 1 - x, the tail of |t| is
    s * sum_k c_k x^k over k >= nu // 2, where c_0 = 1 and
    c_{k+1} / c_k = (2k + 1 + o) / (2k + 2 + o) for o = nu mod 2;
    s = sqrt(y) / 2 for even nu and sqrt(x y) / pi for odd nu
    (Abramowitz & Stegun 26.7.3-4).  Its terms are positive, so for
    x < 1/2 the series keeps every digit of a tiny tail.  For x >= 1/2 the
    finite sum over k < nu // 2 is subtracted from the whole, 1/2 less
    atan(|t| / sqrt(nu)) / pi for odd nu.  As |t| <= sqrt(nu) there, the
    tail is at least the normal tail at sqrt(nu), about exp(-nu / 2), so
    the nu // 4 extra digits make up for what the subtraction cancels.
    """
    with localcontext() as ctx:
        ctx.prec = digits + nu // 4
        ctx.Emin, ctx.Emax = MIN_EMIN, MAX_EMAX
        t2 = Decimal(t) * Decimal(t)
        x, y = nu / (nu + t2), t2 / (nu + t2)
        odd, m, pi = nu % 2, nu // 2, _pi()
        scale = (x * y).sqrt() / pi if odd else y.sqrt() / 2
        term, head = Decimal(1), Decimal(0)         # term = c_k x^k
        for k in range(m):
            head += term
            term = term * x * (2 * k + 1 + odd) / (2 * k + 2 + odd)
        if 2 * x >= 1:
            tail = Decimal("0.5") - scale * head
            if odd:
                tail -= _atan(abs(Decimal(t)) / Decimal(nu).sqrt()) / pi
        else:
            total, k = Decimal(0), m
            while total + term != total:
                total += term
                term = term * x * (2 * k + 1 + odd) / (2 * k + 2 + odd)
                k += 1
            tail = scale * total
        return tail if t > 0 else 1 - tail


def _atan(z: Decimal) -> Decimal:
    """atan(z) for 0 <= z <= 1 at the context's precision."""
    halvings = 0
    while z > Decimal("0.1"):
        z = z / (1 + (1 + z * z).sqrt())       # atan(z) = 2 atan(this)
        halvings += 1
    z2, term, total, k = z * z, z, Decimal(0), 0
    while total + term != total:
        total += term
        k += 1
        term = -term * z2 * (2 * k - 1) / (2 * k + 1)
    return total * 2 ** halvings


def _pi() -> Decimal:
    """pi at the context's precision, by Machin's formula."""
    return 16 * _atan(Decimal(1) / 5) - 4 * _atan(Decimal(1) / 239)


def paired_auc_test(run: ShapingRun, kind_a: str, kind_b: str) -> tuple[float, float | None]:
    """One-sided paired t-test that kind_a's per-run AUC exceeds kind_b's.

    Returns (mean difference, p-value); pairs share (goal, seed).  With
    fewer than two pairs there is no test, and the p-value is None.
    """
    a = run.per_run_auc(kind_a)
    b = run.per_run_auc(kind_b)
    if len(a) < 2:
        return float((a - b).mean()), None
    if np.array_equal(a, b):
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
        raise InputError("d_values must be nonempty")
    specs = [
        RewardSpec(kind=emb.kind, goal=goal, embedding=emb)
        for emb in map(embedding_for_d, d_values)
        for goal in goals
    ]
    aucs = np.array([r.auc for r in q_learning_batch(maze, specs, seeds, config)])
    per_d = aucs.reshape(len(d_values), -1)
    return {int(d): _auc_stats(a) for d, a in zip(d_values, per_d)}


def curves_csv(run: ShapingRun) -> Iterator[bytes]:
    """Per-run success curves (episode,kind,goal,seed,success,steps), one chunk per run."""
    yield b"episode,kind,goal,seed,success,steps\n"
    for (kind, goal, seed), result in sorted(run.runs.items()):
        row = b"%d," + kind.encode() + b",%d,%d,%d,%d\n"
        rows = zip(range(len(result.steps)), result.success.tolist(), result.steps.tolist())
        yield b"".join([row % (ep, goal, seed, ok, steps) for ep, ok, steps in rows])
