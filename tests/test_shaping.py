"""Shaped-reward Q-learning, experiment harness, and reports."""

import dataclasses
import hashlib
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from spectral_reach import shaping
from spectral_reach.envgrid import parse_maze, transition_table
from spectral_reach.errors import InputError, PreconditionError
from spectral_reach.shaping import (
    EPISODE_CAP,
    REWARD_KINDS,
    QLearningConfig,
    RewardSpec,
    RunResult,
    ShapingRun,
    curves_csv,
    dimension_sweep,
    episodes_to_threshold,
    paired_auc_test,
    paired_t,
    paired_t_pvalue,
    q_learning,
    reward_table,
    run_experiment,
    scaled_positions,
    student_t_sf,
)
from spectral_reach.spectral import Embedding, laprep, ra_laprep

SPLIT = """\
#######
#..#..#
#..#..#
#######
"""
#: the one connectivity message, as ``graph.require_connected`` words it for SPLIT
SPLIT_COMPONENTS = r"^state graph has 2 components \(sizes \[4, 4\]\)$"


def embedding_from(vectors):
    v = np.asarray(vectors, dtype=np.float64)
    return Embedding(kind="ra_laprep", vectors=v, eigenvalues=np.ones(v.shape[1]))


@pytest.fixture(scope="module")
def tworoom_runs(tworoom, zoo_bases):
    emb = ra_laprep(zoo_bases["tworoom"], 9)
    return run_experiment(
        tworoom, ("ra_laprep", "none"), (8,), tuple(range(10)),
        QLearningConfig(), {"ra_laprep": emb},
    )


def reference_q_learning(maze, spec, cfg, seed):
    """One run as a scalar loop: the definition the lockstep batch must match.

    It reads the settings from the module when called, so a test that
    patches them changes both sides.
    """
    cap, fraction = shaping.EPISODE_CAP, shaping.EPSILON_FRACTION
    eps_start, eps_end = shaping.EPSILON_START, shaping.EPSILON_END
    alpha, gamma = shaping.STEP_SIZE, shaping.DISCOUNT
    table = transition_table(maze)
    n = len(table)
    reward = reward_table(spec, n)
    q = np.zeros((n, 4))
    success = np.zeros(cfg.episodes, dtype=bool)
    steps = np.zeros(cfg.episodes, dtype=np.int64)
    anneal = max(int(round(cfg.episodes * fraction)), 1)
    starts = [s for s in range(n) if s != spec.goal]
    for ep in range(cfg.episodes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, ep))))
        eps = eps_end
        if ep < anneal:
            eps = eps_start + (eps_end - eps_start) * (ep / anneal)
        s = starts[int(rng.random() * len(starts))]
        noise = rng.random((cap, 2))
        for t in range(1, cap + 1):
            explore, u_action = noise[t - 1]
            a = int(u_action * 4) if explore < eps else int(np.argmax(q[s]))
            s_next = int(table[s, a])
            done = s_next == spec.goal
            target = reward[s_next] if done else reward[s_next] + gamma * q[s_next].max()
            q[s, a] += alpha * (target - q[s, a])
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
        with pytest.raises(InputError, match="needs an embedding"):
            q_learning(tworoom, RewardSpec(kind="ra_laprep", goal=0))
        with pytest.raises(InputError, match="needs scaled grid positions"):
            q_learning(tworoom, RewardSpec(kind="l2", goal=0))

    def test_unknown_kind_rejected(self, tworoom):
        with pytest.raises(InputError, match="unknown reward kind 'geodesic', expected one of"):
            q_learning(tworoom, RewardSpec(kind="geodesic", goal=0))

    def test_goal_out_of_range_rejected(self, tworoom):
        with pytest.raises(InputError, match="range"):
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
        # 'none' and an 'l2' whose positions all coincide produce the same
        # rewards, so runs must coincide exactly: exploration depends only
        # on the seed, never on the shaping kind.
        cfg = QLearningConfig(episodes=120)
        pos = np.zeros((9, 2))
        a = q_learning(tworoom, RewardSpec(kind="none", goal=8), cfg, seed=4)
        b = q_learning(tworoom, RewardSpec(kind="l2", goal=8, positions=pos), cfg, seed=4)
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.steps, b.steps)
        assert np.array_equal(a.q_table, b.q_table)

    def test_success_judged_by_state_not_return(self, tworoom, zoo_bases):
        # Doubling the embedding, and so the distance term, changes
        # trajectories but success still means terminating at the goal
        # before the cap.
        emb = ra_laprep(zoo_bases["tworoom"], 9)
        cfg = QLearningConfig(episodes=100)
        for scale in (1.0, 2.0):
            scaled = dataclasses.replace(emb, vectors=scale * emb.vectors)
            spec = RewardSpec(kind="ra_laprep", goal=8, embedding=scaled)
            res = q_learning(tworoom, spec, cfg, seed=2)
            early = res.steps < EPISODE_CAP
            assert np.all(res.success[early])
            assert np.all(res.steps[~res.success] == EPISODE_CAP)

    def test_unreachable_goal_rejected(self):
        maze = parse_maze(SPLIT)
        with pytest.raises(PreconditionError, match=SPLIT_COMPONENTS):
            q_learning(maze, RewardSpec(kind="none", goal=0), QLearningConfig(episodes=5))

    def test_config_validation(self, tworoom):
        spec = RewardSpec(kind="none", goal=0)
        with pytest.raises(InputError, match="positive"):
            q_learning(tworoom, spec, QLearningConfig(episodes=0))


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
        with pytest.raises(PreconditionError, match=SPLIT_COMPONENTS):
            run_experiment(parse_maze(SPLIT), ("none",), (0,), (0,),
                           QLearningConfig(episodes=5), {})

    def test_empty_factors_rejected(self, tworoom):
        cfg = QLearningConfig(episodes=10)
        with pytest.raises(InputError, match="nonempty"):
            run_experiment(tworoom, (), (8,), (0,), cfg, {})
        with pytest.raises(InputError, match="nonempty"):
            run_experiment(tworoom, ("none",), (), (0,), cfg, {})

    @pytest.mark.parametrize("kinds, message", [
        (("none", "none"), "^reward kind 'none' is given more than once$"),
        (("none", "geodesic"), "^unknown reward kind 'geodesic', expected one of "),
    ], ids=["repeated", "unknown"])
    def test_repeated_and_unknown_kinds_rejected(self, tworoom, kinds, message):
        with pytest.raises(InputError, match=message):
            run_experiment(tworoom, kinds, (8,), (0, 1), QLearningConfig(episodes=5), {})

    def test_paired_test_of_kind_against_itself(self, tworoom_runs):
        diff, pvalue = paired_auc_test(tworoom_runs, "none", "none")
        assert diff == 0.0
        assert pvalue == 1.0

    def test_curves_csv_layout(self, tworoom):
        cfg = QLearningConfig(episodes=10)
        run = run_experiment(tworoom, ("none",), (8,), (0, 1), cfg, {})
        chunks = list(curves_csv(run))
        assert len(chunks) == 1 + 2                      # the header, then one chunk per run
        lines = b"".join(chunks).decode().strip().split("\n")
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

    def test_batch_equals_per_run_reference_loop(self, tworoom, zoo_bases, monkeypatch):
        # A repeated seed shares its noise rows across runs; a short cap
        # leaves many runs unfinished.
        monkeypatch.setattr(shaping, "EPISODE_CAP", 12)
        monkeypatch.setattr(shaping, "EPSILON_FRACTION", 0.5)
        emb = ra_laprep(zoo_bases["tworoom"], 9)
        cfg = QLearningConfig(episodes=80)
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
        digest = hashlib.sha256(b"".join(curves_csv(run))).hexdigest()
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
        return stats.ttest_rel(a, b, alternative="greater")


def _exact_tail(t, nu):
    """P(T >= t) for nu degrees of freedom: mpmath at 400 bits, rounded to nearest."""
    if np.isnan(t) or t == 0 or np.isinf(t):
        return np.nan if np.isnan(t) else 0.5 if t == 0 else float(t < 0)
    with mpmath.workprec(400):
        x = nu / (nu + mpmath.mpf(t) ** 2)
        half = mpmath.betainc(mpmath.mpf(nu) / 2, mpmath.mpf(0.5), 0, x, regularized=True) / 2
        p = half if t > 0 else 1 - half
        # Fraction to float rounds to nearest, subnormals included
        return float(Fraction(int(p.man)) * Fraction(2) ** int(p.exp))


def _ulps(x, y):
    """Distance between two nonnegative doubles in units in the last place."""
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


def _same(x, y):
    return x == y or (np.isnan(x) and np.isnan(y))


@pytest.fixture(scope="module")
def seeded_pairs():
    rng = np.random.default_rng(20222)
    return [_auc_pair(rng, case) for case in range(3000)]


#: t far into both tails, at the cancellation edge t = sqrt(nu) of
#: nu = 400, and below the smallest t^2 a double holds
ADVERSARIAL_T = [s * t for t in (1e-300, 1e-12, 0.3, 1.0, 2.5, 19.99, 20.0, 1e3, 1e20, 1e150)
                 for s in (1.0, -1.0)]
ADVERSARIAL_DF = (1, 2, 3, 7, 39, 400)


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
    return ShapingRun(tuple(aucs_by_kind), (0,), seeds, runs)


class TestPairedTest:
    """t follows scipy 1.17 bit for bit; p is the exact tail, correctly rounded."""

    def test_bit_identical_to_scipy_on_seeded_cases(self, seeded_pairs):
        mismatches = []
        for case, (a, b) in enumerate(seeded_pairs):
            (t, nu), ref = paired_t(a, b), _ttest_ref(a, b)
            if not (_same(t, ref.statistic) and nu == ref.df):
                mismatches.append((case, t, ref.statistic))
        assert mismatches == []

    def test_correctly_rounded_on_seeded_cases(self, seeded_pairs):
        mismatches = []
        for case, (a, b) in enumerate(seeded_pairs):
            p, exact = paired_t_pvalue(a, b), _exact_tail(*paired_t(a, b))
            if not _same(p, exact):
                mismatches.append((case, p, exact))
        assert mismatches == []

    @pytest.mark.parametrize("df", ADVERSARIAL_DF)
    def test_correctly_rounded_on_adversarial_tails(self, df):
        results = [(t, student_t_sf(t, df), _exact_tail(t, df)) for t in ADVERSARIAL_T]
        assert [r for r in results if r[1] != r[2]] == []

    def test_within_256_ulps_of_scipy_where_normal(self, seeded_pairs):
        # scipy 1.17 gives stdtr(1, t) = 0.5 at |t| = 1e-12, thousands of
        # ulps from the exact tail; there p is held to the exact tail instead.
        cases = [paired_t(a, b) for a, b in seeded_pairs]
        cases += [(t, df) for df in ADVERSARIAL_DF for t in ADVERSARIAL_T]
        far = []
        for t, df in cases:
            p, ref = student_t_sf(t, df), float(special.stdtr(df, -t))
            if ref >= np.finfo(np.float64).tiny and _ulps(p, ref) > 256:
                far.append((t, df, p, ref))
        assert [(t, df) for t, df, _, _ in far] == [(1e-12, 1), (-1e-12, 1)]
        assert all(p == _exact_tail(t, df) for t, df, p, _ in far)

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
        t, nu = paired_t(a, b)
        assert _same(t, _ttest_ref(a, b).statistic)
        assert _same(paired_t_pvalue(a, b), _exact_tail(t, nu))

    def test_exact_results_at_the_ends(self):
        assert [student_t_sf(t, 5) for t in (0.0, -0.0, np.inf, -np.inf)] == [0.5, 0.5, 0.0, 1.0]
        assert np.isnan(student_t_sf(np.nan, 5))

    def test_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert paired_t_pvalue(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0])) == 0.0

    def test_single_pair_has_no_p_value(self):
        run = _run_of({"ra_laprep": [0.75], "none": [0.25]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert paired_auc_test(run, "ra_laprep", "none") == (0.5, None)

    def test_auc_differences_of_one_episode_are_tested(self):
        # at 300,000 episodes, one episode moves an AUC by less than np.allclose's rtol
        n = 300_000
        run = _run_of({"ra_laprep": [150_001 / n, 200_001 / n, 0.25],
                       "none": [150_000 / n, 200_000 / n, 0.25]}, episodes=n)
        a, b = run.per_run_auc("ra_laprep"), run.per_run_auc("none")
        diff, p = paired_auc_test(run, "ra_laprep", "none")
        assert diff == float((a - b).mean()) > 0.0
        assert p == _exact_tail(*paired_t(a, b)) < 1.0

    def test_two_pairs_match_scipy(self):
        run = _run_of({"ra_laprep": [0.75, 1.0], "none": [0.25, 0.75]})
        diff, p = paired_auc_test(run, "ra_laprep", "none")
        assert diff == 0.375
        t, nu = paired_t([0.75, 1.0], [0.25, 0.75])
        assert t == _ttest_ref([0.75, 1.0], [0.25, 0.75]).statistic
        assert p == _exact_tail(t, nu)


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
        with pytest.raises(InputError, match="nonempty"):
            dimension_sweep(
                tworoom, (), (8,), (0,), QLearningConfig(),
                lambda d: ra_laprep(zoo_bases["tworoom"], d),
            )
