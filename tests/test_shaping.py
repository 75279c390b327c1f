"""Shaped-reward Q-learning, experiment harness, and reports."""

import hashlib
import warnings

import numpy as np
import pytest
from scipy import stats

from spectral_reach.envgrid import parse_maze, transition_table
from spectral_reach.errors import MissingEmbedding, UnreachableGoal
from spectral_reach.shaping import (
    REWARD_KINDS,
    QLearningConfig,
    RewardSpec,
    RunResult,
    ShapingRun,
    curves_csv,
    dimension_sweep,
    episodes_to_threshold,
    paired_auc_test,
    paired_t_pvalue,
    q_learning,
    reward_table,
    run_experiment,
    scaled_positions,
)
from spectral_reach.spectral import Embedding, laprep, ra_laprep

SPLIT = """\
#######
#..#..#
#..#..#
#######
"""


def embedding_from(vectors):
    v = np.asarray(vectors, dtype=np.float64)
    return Embedding(kind="ra_laprep", d=v.shape[1] + 1, vectors=v,
                     eigenvalues=np.ones(v.shape[1]))


@pytest.fixture(scope="module")
def tworoom_runs(tworoom, zoo_bases):
    emb = ra_laprep(zoo_bases["tworoom"], 9)
    return run_experiment(
        tworoom, ("ra_laprep", "none"), (8,), tuple(range(10)),
        QLearningConfig(), {"ra_laprep": emb},
    )


def reference_q_learning(maze, spec, cfg, seed):
    """One run as a scalar loop: the definition the lockstep batch must match."""
    table = transition_table(maze)
    n = len(table)
    reward = reward_table(spec, n)
    q = np.zeros((n, 4))
    success = np.zeros(cfg.episodes, dtype=bool)
    steps = np.zeros(cfg.episodes, dtype=np.int64)
    anneal = max(int(round(cfg.episodes * cfg.epsilon_fraction)), 1)
    starts = [s for s in range(n) if s != spec.goal]
    for ep in range(cfg.episodes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ep))))
        eps = cfg.epsilon_end
        if ep < anneal:
            eps = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * (ep / anneal)
        s = starts[int(rng.random() * len(starts))]
        noise = rng.random((cfg.episode_cap, 2))
        for t in range(1, cfg.episode_cap + 1):
            explore, u_action = noise[t - 1]
            a = int(u_action * 4) if explore < eps else int(np.argmax(q[s]))
            s_next = int(table[s, a])
            done = s_next == spec.goal
            target = reward[s_next] if done else reward[s_next] + cfg.discount * q[s_next].max()
            q[s, a] += cfg.step_size * (target - q[s, a])
            s = s_next
            if done:
                break
        success[ep] = s == spec.goal
        steps[ep] = t
    return success, steps, q


# ---------------------------------------------------------------------------
# reward definition
# ---------------------------------------------------------------------------

class TestShapedReward:
    def test_zero_at_goal_without_distance_term(self):
        spec = RewardSpec(kind="none", goal=3)
        assert reward_table(spec, 4)[3] == 0.0

    def test_equal_mix_of_env_and_distance(self):
        emb = embedding_from([[0.0], [0.8]])
        spec = RewardSpec(kind="ra_laprep", goal=0, embedding=emb)
        assert reward_table(spec, 2)[1] == pytest.approx(-0.9)

    def test_two_state_rescaled_distance_gives_minus_one(self, zoo_bases):
        emb = ra_laprep(zoo_bases["k2"], 2)
        spec = RewardSpec(kind="ra_laprep", goal=1, embedding=emb)
        assert reward_table(spec, 2)[0] == pytest.approx(-1.0)

    def test_nonpositive_and_zero_only_at_goal(self, tworoom, zoo_bases):
        emb = ra_laprep(zoo_bases["tworoom"], 9)
        spec = RewardSpec(kind="ra_laprep", goal=4, embedding=emb)
        values = reward_table(spec, 9)
        assert np.all(values[np.arange(9) != 4] < 0)
        assert values[4] == 0.0

    def test_l2_uses_scaled_grid_positions(self, zoo_mazes):
        maze = zoo_mazes["k2"]
        pos = scaled_positions(maze)
        spec = RewardSpec(kind="l2", goal=0, positions=pos)
        # Neighboring cells in a 4-wide map sit 1/3 apart after scaling.
        assert reward_table(spec, 2)[1] == pytest.approx(0.5 * (-1) + 0.5 * (-1 / 3))

    def test_embedding_required_for_spectral_kinds(self, tworoom):
        with pytest.raises(MissingEmbedding):
            q_learning(tworoom, RewardSpec(kind="ra_laprep", goal=0))
        with pytest.raises(MissingEmbedding):
            q_learning(tworoom, RewardSpec(kind="l2", goal=0))

    def test_unknown_kind_rejected(self, tworoom):
        with pytest.raises(ValueError, match="kind"):
            q_learning(tworoom, RewardSpec(kind="geodesic", goal=0))

    def test_goal_out_of_range_rejected(self, tworoom):
        with pytest.raises(ValueError, match="range"):
            q_learning(tworoom, RewardSpec(kind="none", goal=9))


class TestScaledPositions:
    def test_interior_cells_stay_inside_unit_box(self, zoo_mazes):
        for maze in zoo_mazes.values():
            pos = scaled_positions(maze)
            assert np.all(np.abs(pos) < 0.5)

    def test_known_two_state_coordinates(self, zoo_mazes):
        pos = scaled_positions(zoo_mazes["k2"])     # 4x3 map, cells (1,1), (2,1)
        assert pos[:, 0] == pytest.approx([1 / 3 - 0.5, 2 / 3 - 0.5])
        assert pos[:, 1] == pytest.approx([0.0, 0.0])


# ---------------------------------------------------------------------------
# Q-learning
# ---------------------------------------------------------------------------

class TestQLearning:
    def test_deterministic_per_seed(self, tworoom):
        cfg = QLearningConfig(episodes=50)
        a = q_learning(tworoom, RewardSpec(kind="none", goal=8), cfg, seed=1)
        b = q_learning(tworoom, RewardSpec(kind="none", goal=8), cfg, seed=1)
        c = q_learning(tworoom, RewardSpec(kind="none", goal=8), cfg, seed=2)
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.steps, b.steps)
        assert np.array_equal(a.q_table, b.q_table)
        assert not np.array_equal(a.steps, c.steps)

    def test_rescaled_shaping_not_slower_to_ninety_percent(self, tworoom_runs):
        agg = tworoom_runs.aggregate()
        assert (agg["ra_laprep"]["episodes_to_90pct"]
                <= agg["none"]["episodes_to_90pct"])

    def test_identical_reward_tables_share_noise_streams(self, tworoom):
        # 'none' and a zero-weighted 'l2' produce the same rewards, so
        # runs must coincide exactly: exploration depends only on the
        # seed, never on the shaping kind.
        cfg = QLearningConfig(episodes=120)
        pos = scaled_positions(tworoom)
        a = q_learning(tworoom, RewardSpec(kind="none", goal=8), cfg, seed=4)
        b = q_learning(
            tworoom,
            RewardSpec(kind="l2", goal=8, positions=pos, w_dist=0.0),
            cfg,
            seed=4,
        )
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.steps, b.steps)
        assert np.array_equal(a.q_table, b.q_table)

    def test_success_judged_by_state_not_return(self, tworoom, zoo_bases):
        # Doubling the distance weight changes trajectories but success
        # still means terminating at the goal before the cap.
        emb = ra_laprep(zoo_bases["tworoom"], 9)
        cfg = QLearningConfig(episodes=100)
        for w_dist in (0.5, 1.0):
            spec = RewardSpec(kind="ra_laprep", goal=8, embedding=emb, w_dist=w_dist)
            res = q_learning(tworoom, spec, cfg, seed=2)
            early = res.steps < cfg.episode_cap
            assert np.all(res.success[early])
            assert np.all(res.steps[~res.success] == cfg.episode_cap)

    def test_unreachable_goal_rejected(self):
        maze = parse_maze(SPLIT)
        with pytest.raises(UnreachableGoal):
            q_learning(maze, RewardSpec(kind="none", goal=0), QLearningConfig(episodes=5))

    def test_config_validation(self, tworoom):
        spec = RewardSpec(kind="none", goal=0)
        with pytest.raises(ValueError, match="discount"):
            q_learning(tworoom, spec, QLearningConfig(discount=1.0))
        with pytest.raises(ValueError, match="positive"):
            q_learning(tworoom, spec, QLearningConfig(episodes=0))
        with pytest.raises(ValueError, match="epsilon_fraction"):
            q_learning(tworoom, spec, QLearningConfig(epsilon_fraction=0.0))

    @pytest.mark.parametrize("step_size", [np.nan, np.inf])
    def test_non_finite_step_size_rejected(self, tworoom, step_size):
        with pytest.raises(ValueError, match="step_size must be positive and finite"):
            q_learning(tworoom, RewardSpec(kind="none", goal=0),
                       QLearningConfig(episodes=5, step_size=step_size))


# ---------------------------------------------------------------------------
# threshold crossings
# ---------------------------------------------------------------------------

class TestEpisodesToThreshold:
    def test_immediate_success(self):
        assert episodes_to_threshold(np.ones(100), 0.9, 25) == 25

    def test_never_met_returns_length(self):
        assert episodes_to_threshold(np.zeros(40), 0.9, 25) == 40

    def test_empty_curve(self):
        assert episodes_to_threshold(np.array([]), 0.9, 25) == 0

    def test_trailing_window_mean(self):
        curve = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        assert episodes_to_threshold(curve, 0.9, 4) == 5

    def test_window_clamped_to_curve(self):
        assert episodes_to_threshold(np.ones(5), 0.9, 25) == 5


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

class TestRunExperiment:
    def test_single_cell_aggregate_equals_single_run(self, tworoom):
        cfg = QLearningConfig(episodes=80)
        run = run_experiment(tworoom, ("none",), (8,), (3,), cfg, {})
        single = q_learning(tworoom, RewardSpec(kind="none", goal=8), cfg, seed=3)
        assert np.array_equal(run.curve("none"), single.success.astype(float))
        assert run.aggregate()["none"]["auc"] == pytest.approx(single.auc)
        assert run.aggregate()["none"]["stderr"] == 0.0

    def test_repeat_runs_identical(self, tworoom):
        cfg = QLearningConfig(episodes=60)
        a = run_experiment(tworoom, ("none",), (8,), (0, 1), cfg, {})
        b = run_experiment(tworoom, ("none",), (8,), (0, 1), cfg, {})
        assert a.aggregate() == b.aggregate()

    def test_disconnected_maze_rejected(self):
        with pytest.raises(UnreachableGoal):
            run_experiment(parse_maze(SPLIT), ("none",), (0,), (0,),
                           QLearningConfig(episodes=5), {})

    def test_empty_factors_rejected(self, tworoom):
        cfg = QLearningConfig(episodes=10)
        with pytest.raises(ValueError, match="nonempty"):
            run_experiment(tworoom, (), (8,), (0,), cfg, {})
        with pytest.raises(ValueError, match="nonempty"):
            run_experiment(tworoom, ("none",), (), (0,), cfg, {})

    def test_paired_test_of_kind_against_itself(self, tworoom_runs):
        diff, pvalue = paired_auc_test(tworoom_runs, "none", "none")
        assert diff == 0.0
        assert pvalue == 1.0

    def test_curves_csv_layout(self, tworoom):
        cfg = QLearningConfig(episodes=10)
        run = run_experiment(tworoom, ("none",), (8,), (0, 1), cfg, {})
        lines = curves_csv(run).strip().split("\n")
        assert lines[0] == "episode,kind,goal,seed,success,steps"
        assert len(lines) == 1 + 2 * 10
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "none" and first[2] == "8"


    def test_batch_runs_equal_single_runs(self, fourroom, zoo_bases):
        # Each run of the lockstep batch must equal the same run alone:
        # no run reads another's Q rows, and each leaves the active set
        # exactly when its episode ends.
        basis = zoo_bases["fourroom"]
        embeddings = {"ra_laprep": ra_laprep(basis, 10), "laprep": laprep(basis, 10)}
        positions = scaled_positions(fourroom)
        index = fourroom.state_index()
        goals = tuple(index.of(c) for c in fourroom.goal_cells)
        cfg = QLearningConfig(episodes=60)
        run = run_experiment(fourroom, REWARD_KINDS, goals, (0, 1), cfg, embeddings)
        assert len(run.runs) == 4 * 4 * 2
        for (kind, goal, seed), result in run.runs.items():
            spec = RewardSpec(kind=kind, goal=goal, embedding=embeddings.get(kind),
                              positions=positions if kind == "l2" else None)
            single = q_learning(fourroom, spec, cfg, seed)
            assert np.array_equal(result.success, single.success)
            assert np.array_equal(result.steps, single.steps)
            assert result.q_table.tobytes() == single.q_table.tobytes()

    def test_batch_equals_per_run_reference_loop(self, tworoom, zoo_bases):
        # A repeated seed shares its noise rows across runs; a short cap
        # leaves many runs unfinished.
        emb = ra_laprep(zoo_bases["tworoom"], 9)
        cfg = QLearningConfig(episodes=80, episode_cap=12, epsilon_fraction=0.5)
        run = run_experiment(tworoom, ("ra_laprep", "l2", "none"), (0, 8), (5, 3, 5),
                             cfg, {"ra_laprep": emb})
        positions = scaled_positions(tworoom)
        assert not run.runs[("none", 0, 3)].success.all()
        for (kind, goal, seed), result in run.runs.items():
            spec = RewardSpec(kind=kind, goal=goal, embedding=emb if kind == "ra_laprep" else None,
                              positions=positions if kind == "l2" else None)
            success, steps, q = reference_q_learning(tworoom, spec, cfg, seed)
            assert np.array_equal(result.success, success)
            assert np.array_equal(result.steps, steps)
            assert result.q_table.tobytes() == q.tobytes()

    def test_curves_match_recorded_digest(self, fourroom):
        # Digest of the per-run loop's output, before runs were batched.
        # 'l2' and 'none' need no eigensolve, so it does not depend on
        # the LAPACK build.
        index = fourroom.state_index()
        goals = tuple(index.of(c) for c in fourroom.goal_cells)
        run = run_experiment(fourroom, ("l2", "none"), goals, (0, 1),
                             QLearningConfig(episodes=100), {})
        digest = hashlib.sha256(curves_csv(run).encode()).hexdigest()
        assert digest == "edee1a325b6b41948d490f4237d20412c4ccba174f1b0813be25b2e175396d33"


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------

def _auc_pair(rng, case):
    """Paired samples of one of five shapes, AUC-like and otherwise."""
    n = int(rng.integers(2, 40))
    kind = case % 5
    if kind == 0:        # AUCs of 500-episode runs
        return rng.integers(0, 501, n) / 500, rng.integers(0, 501, n) / 500
    if kind == 1:        # continuous
        return rng.normal(size=n), rng.normal(size=n)
    if kind == 2:        # constant nonzero differences
        b = rng.random(n)
        return b + rng.choice([0.1, 0.25, -0.3, 1.0]), b
    if kind == 3:        # integer-valued, many tied differences
        return rng.integers(0, 4, n).astype(float), rng.integers(0, 4, n).astype(float)
    a = rng.random(n)    # small shift against noise
    return a + 0.01 + rng.normal(scale=0.01, size=n), a


def _ttest_ref(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(stats.ttest_rel(a, b, alternative="greater").pvalue)


def _same(x, y):
    return x == y or (np.isnan(x) and np.isnan(y))


def _run_of(aucs_by_kind, episodes=4):
    """A ShapingRun with one goal whose per-run AUCs are the given ones."""
    seeds = tuple(range(len(next(iter(aucs_by_kind.values())))))
    runs = {}
    for kind, aucs in aucs_by_kind.items():
        for seed, auc in zip(seeds, aucs):
            success = np.arange(episodes) < round(auc * episodes)
            runs[(kind, 0, seed)] = RunResult(kind, 0, seed, success,
                                              np.zeros(episodes, dtype=np.int64),
                                              np.zeros((1, 4)))
    return ShapingRun(tuple(aucs_by_kind), (0,), seeds,
                      QLearningConfig(episodes=episodes), runs)


class TestPairedTest:
    def test_bit_identical_to_scipy_on_seeded_cases(self):
        rng = np.random.default_rng(20222)
        mismatches = []
        for case in range(3000):
            a, b = _auc_pair(rng, case)
            ours, ref = paired_t_pvalue(a, b), _ttest_ref(a, b)
            if not _same(ours, ref):
                mismatches.append((case, ours, ref))
        assert mismatches == []

    @pytest.mark.parametrize("a,b", [
        ([0.5, 0.75], [0.25, 0.5]),
        ([0.5, 0.25], [0.25, 0.5]),
        ([0.3, 0.4, 0.5], [0.2, 0.3, 0.4]),
        ([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]),
        ([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, np.nan, 3.0], [0.0, 1.0, 2.0]),
    ], ids=["n2", "n2-opposite", "constant-diff-inexact", "constant-diff-plus",
            "constant-diff-minus", "zero-diff", "nan-entry"])
    def test_edge_cases_match_scipy(self, a, b):
        a, b = np.array(a), np.array(b)
        assert _same(paired_t_pvalue(a, b), _ttest_ref(a, b))

    def test_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert paired_t_pvalue(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0])) == 0.0

    def test_single_pair_has_no_p_value(self):
        run = _run_of({"ra_laprep": [0.75], "none": [0.25]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert paired_auc_test(run, "ra_laprep", "none") == (0.5, None)

    def test_two_pairs_match_scipy(self):
        run = _run_of({"ra_laprep": [0.75, 1.0], "none": [0.25, 0.75]})
        diff, p = paired_auc_test(run, "ra_laprep", "none")
        assert diff == 0.375
        assert p == _ttest_ref([0.75, 1.0], [0.25, 0.75])


class TestDimensionSweep:
    def test_small_dimension_completes_without_losing_ground(
        self, tworoom, zoo_bases
    ):
        report = dimension_sweep(
            tworoom, (2, 5), (8,), tuple(range(5)), QLearningConfig(),
            lambda d: ra_laprep(zoo_bases["tworoom"], d),
        )
        assert set(report) == {2, 5}
        assert report[2]["auc"] <= report[5]["auc"] + 1e-12

    def test_empty_dimension_list_rejected(self, tworoom, zoo_bases):
        with pytest.raises(ValueError, match="nonempty"):
            dimension_sweep(
                tworoom, (), (8,), (0,), QLearningConfig(),
                lambda d: ra_laprep(zoo_bases["tworoom"], d),
            )
