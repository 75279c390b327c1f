"""Dataset collection, graph-drawing training, and learned embeddings."""

import hashlib
import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import scipy_adjacency
from spectral_reach.envgrid import (
    ACTIONS,
    ContinuousMazeSpec,
    discretize_continuous,
    step,
    transition_table,
)
from spectral_reach.errors import InputError, NumericalError, PreconditionError
from spectral_reach.graph import (build_graph, geodesic_matrix, graph_from_transitions,
                                  require_connected)
from spectral_reach import replearn
from spectral_reach.replearn import (
    PAIR_BLOCK,
    PAIR_DISCOUNT,
    LearnedRep,
    TrainConfig,
    TransitionDataset,
    attraction_value_grad,
    collect_dataset,
    estimate_eigenvalues,
    learned_ra_laprep,
    penalty_value_grad,
    rep_quality,
    sample_pair_batch,
    spearman_rho,
    start_distribution,
    train_graph_drawing,
    training_log_csv,
)
from spectral_reach import layouts, spectral
from spectral_reach.spectral import eig_sym, ra_laprep


def make_dataset(episodes, n_states):
    return TransitionDataset(episodes=np.array(episodes, dtype=np.int64, ndmin=2),
                             n_states=n_states)


def exhaustive_dataset(maze):
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
    return TransitionDataset(episodes=np.stack([start, table.ravel()], axis=1), n_states=n)


def raw_pairs(data):
    """All consecutive (s, s') pairs, episode by episode, as whole arrays."""
    return data.episodes[:, :-1].ravel(), data.episodes[:, 1:].ravel()


@pytest.fixture(scope="module")
def tworoom_data(tworoom):
    return collect_dataset(tworoom, episodes=2000, episode_len=50, temperature=0.0, seed=7)


@pytest.fixture(scope="module")
def tworoom_rep(tworoom_data):
    cfg = TrainConfig(iterations=4000, batch_size=256, step_size=1e-2, seed=1)
    return train_graph_drawing(tworoom_data, 5, cfg)


# ---------------------------------------------------------------------------
# start distribution
# ---------------------------------------------------------------------------

class TestStartDistribution:
    def test_zero_temperature_is_uniform(self, tworoom):
        p = start_distribution(tworoom, 0.0)
        assert p == pytest.approx(np.full(9, 1 / 9))

    def test_bias_cells_upweighted_exponentially(self):
        maze = layouts.load_bundled("biased")
        index = maze.state_index()
        p = start_distribution(maze, 0.9)
        biased = [p[index.of(c)] for c in maze.bias_cells]
        plain = [p[i] for i in range(len(index))
                 if index.coord(i) not in set(maze.bias_cells)]
        assert len(set(np.round(biased, 15))) == 1
        assert len(set(np.round(plain, 15))) == 1
        assert biased[0] / plain[0] == pytest.approx(np.exp(0.9))
        assert p.sum() == pytest.approx(1.0)

    def test_positive_temperature_needs_bias_cells(self, tworoom):
        with pytest.raises(PreconditionError, match="'B' cell"):
            start_distribution(tworoom, 1.0)

    def test_negative_temperature_rejected(self, tworoom):
        with pytest.raises(InputError, match="nonnegative"):
            start_distribution(tworoom, -0.1)


# ---------------------------------------------------------------------------
# walk collection
# ---------------------------------------------------------------------------

class TestCollectDataset:
    def test_shapes_and_value_range(self, tworoom_data):
        assert len(tworoom_data.episodes) == 2000
        assert all(len(ep) == 51 for ep in tworoom_data.episodes)
        allstates = np.concatenate(tworoom_data.episodes)
        assert allstates.min() >= 0 and allstates.max() < 9
        assert tworoom_data.total_steps == 100_000

    def test_deterministic_per_seed(self, tworoom):
        a = collect_dataset(tworoom, 20, 10, 0.0, seed=3)
        b = collect_dataset(tworoom, 20, 10, 0.0, seed=3)
        c = collect_dataset(tworoom, 20, 10, 0.0, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.episodes, b.episodes))
        assert any(not np.array_equal(x, y) for x, y in zip(a.episodes, c.episodes))

    def test_every_transition_is_a_legal_move(self, tworoom, tworoom_data):
        index = tworoom.state_index()
        legal = {
            (s, index.of(step(tworoom, index.coord(s), a)))
            for s in range(len(index))
            for a in ACTIONS
        }
        s, s2 = raw_pairs(tworoom_data)
        assert set(zip(s.tolist(), s2.tolist())) <= legal

    def test_visitation_tracks_chain_stationary(self, tworoom, tworoom_data):
        # Exact stationary distribution of the uniform-action walk,
        # computed from the one-step kernel itself.
        index = tworoom.state_index()
        n = len(index)
        kernel = np.zeros((n, n))
        for i in range(n):
            for a in ACTIONS:
                kernel[i, index.of(step(tworoom, index.coord(i), a))] += 0.25
        evals, evecs = np.linalg.eig(kernel.T)
        pi = np.real(evecs[:, np.argmin(np.abs(evals - 1))])
        pi /= pi.sum()
        empirical = tworoom_data.visitation / tworoom_data.visitation.sum()
        assert np.all(empirical >= 0.8 * pi)
        assert np.all(empirical <= 1.2 * pi)

    def test_high_temperature_starves_far_room(self):
        maze = layouts.load_bundled("biased")
        data = collect_dataset(maze, episodes=200, episode_len=10,
                               temperature=10.0, seed=0)
        with pytest.raises(PreconditionError, match="components"):
            require_connected(data.induced_graph)

    def test_zero_episodes_rejected(self, tworoom):
        with pytest.raises(InputError, match="must be positive"):
            collect_dataset(tworoom, 0, 10)
        with pytest.raises(InputError, match="must be positive"):
            collect_dataset(tworoom, 10, 0)

    @pytest.mark.parametrize("name,temperature", [
        ("tworoom", 0.0), ("biased", 0.9), ("biased", 3.0), ("continuous_a", 0.0),
    ])
    def test_lockstep_equals_per_episode_loop(self, name, temperature):
        maze = layouts.load_bundled(name)
        if isinstance(maze, ContinuousMazeSpec):
            maze = discretize_continuous(maze, 2)
        data = collect_dataset(maze, 300, 40, temperature, seed=11)
        want = reference_collect(maze, 300, 40, temperature, seed=11)
        assert data.episodes.dtype == np.int64
        assert np.array_equal(data.episodes, want)

    @pytest.mark.parametrize("name,episodes", [("tworoom", 1), ("biased", 5), ("fourroom", 300)])
    def test_observed_edges_match_unique(self, name, episodes):
        data = collect_dataset(layouts.load_bundled(name), episodes, 20, 0.0, seed=1)
        s, s2 = raw_pairs(data)
        move = s != s2
        keys = np.minimum(s, s2)[move] * data.n_states + np.maximum(s, s2)[move]
        assert data.induced_graph.volume // 2 == len(np.unique(keys))

    def test_tworoom_walks_pinned(self, tworoom_data):
        # SHA-256 of the (2000, 51) int64 episode matrix, recorded with
        # the per-episode loop that the lockstep collection replaced.
        digest = hashlib.sha256(np.ascontiguousarray(tworoom_data.episodes).tobytes())
        assert tworoom_data.episodes.shape == (2000, 51)
        assert digest.hexdigest() == (
            "7a2613d3aed5284db478163d514f95e77b6eb1adeb949abf7c423e5e28b3f610"
        )


def reference_collect(maze, episodes, episode_len, temperature, seed):
    """Walks one episode at a time, one step at a time: the definition
    the lockstep collection must match."""
    table = transition_table(maze)
    cum = np.cumsum(start_distribution(maze, temperature))
    rows = []
    for e in range(episodes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, e))))
        s = min(int(np.searchsorted(cum, rng.random(), side="right")), len(table) - 1)
        traj = [s]
        for a in rng.integers(0, len(ACTIONS), size=episode_len):
            s = int(table[s, a])
            traj.append(s)
        rows.append(traj)
    return np.array(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# exhaustive one-step table
# ---------------------------------------------------------------------------

class TestExhaustiveDataset:
    def test_one_episode_per_state_action(self, zoo_mazes, zoo_graphs):
        for name, maze in zoo_mazes.items():
            g = zoo_graphs[name]
            data = exhaustive_dataset(maze)
            assert len(data.episodes) == 4 * g.n_states
            assert all(len(ep) == 2 for ep in data.episodes)
            s, s2 = raw_pairs(data)
            moves = [(a, b) for a, b in zip(s.tolist(), s2.tolist()) if a != b]
            directed = {(i, j) for i, j in g.edges()} | {(j, i) for i, j in g.edges()}
            assert sorted(moves) == sorted(directed)
            assert len(s) - len(moves) == 4 * g.n_states - g.volume  # bumps

    def test_visitation_uniform(self, zoo_mazes):
        for maze in zoo_mazes.values():
            visits = exhaustive_dataset(maze).visitation
            assert len(set(visits.tolist())) == 1

    def test_induces_the_exact_graph(self, zoo_mazes, zoo_graphs):
        for name, maze in zoo_mazes.items():
            induced = exhaustive_dataset(maze).induced_graph
            want = scipy_adjacency(zoo_graphs[name]).toarray()
            assert np.array_equal(scipy_adjacency(induced).toarray(), want)


# ---------------------------------------------------------------------------
# pair sampling
# ---------------------------------------------------------------------------

class TestSamplePairBatch:
    def identity_matrix(self, length, rows=4):
        # Episodes that store their own positions, so sampled pairs
        # expose the offset directly as s2 - s.
        return np.tile(np.arange(length, dtype=np.int64), (rows, 1))

    def test_offsets_follow_truncated_geometric(self):
        length, discount, n = 6, PAIR_DISCOUNT, 20_000
        rng = np.random.Generator(np.random.PCG64(1))
        s, s2 = sample_pair_batch(self.identity_matrix(length), n, rng)
        offsets = s2 - s
        top = length - 1
        assert offsets.min() >= 1 and offsets.max() <= top
        support = np.arange(1, top + 1)
        expected = (1 - discount) * discount ** (support - 1)
        expected /= expected.sum()
        counts = np.bincount(offsets, minlength=top + 1)[1:]
        test = stats.chisquare(counts, expected * n)
        assert test.pvalue > 1e-3

    def test_offsets_beyond_episode_redrawn(self):
        rng = np.random.Generator(np.random.PCG64(3))
        s, s2 = sample_pair_batch(self.identity_matrix(2), 1000, rng)
        assert np.all(s2 - s == 1)

    def test_positions_stay_in_bounds(self):
        length = 5
        rng = np.random.Generator(np.random.PCG64(4))
        s, s2 = sample_pair_batch(self.identity_matrix(length), 5000, rng)
        assert s.min() >= 0
        assert s2.max() <= length - 1
        assert np.all(s2 > s)


# ---------------------------------------------------------------------------
# objective terms
# ---------------------------------------------------------------------------

def finite_difference(func, f, eps=1e-6):
    g = np.zeros_like(f)
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            fp = f.copy()
            fp[i, j] += eps
            fm = f.copy()
            fm[i, j] -= eps
            g[i, j] = (func(fp) - func(fm)) / (2 * eps)
    return g


class TestObjectiveTerms:
    def test_attraction_hand_value(self):
        f = np.array([[0.0], [1.0]])
        s = np.array([0, 1])
        s2 = np.array([1, 0])
        value, _ = attraction_value_grad(f, np.array([3.0]), s, s2)
        assert value == pytest.approx(3.0)

    def test_attraction_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(5, 3))
        s = np.array([0, 1, 2, 3, 1, 0])
        s2 = np.array([1, 2, 3, 4, 0, 2])
        w = np.array([2.0, 1.5, 1.0])
        _, grad = attraction_value_grad(f, w, s, s2)
        approx = finite_difference(lambda x: attraction_value_grad(x, w, s, s2)[0], f)
        assert np.max(np.abs(grad - approx)) < 1e-6

    def test_attraction_gradient_equals_the_ufunc_at_scatter_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n, d, batch = rng.integers(1, 30), rng.integers(1, 12), rng.integers(1, 200)
            f = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-5, 5)
            w = rng.random(d) * 3.0
            s, s2 = rng.integers(0, n, size=batch), rng.integers(0, n, size=batch)
            _, grad = attraction_value_grad(f, w, s, s2)
            want = np.zeros_like(f)
            scaled = (2.0 / batch) * (f[s] - f[s2]) * w
            np.add.at(want, s, scaled)
            np.subtract.at(want, s2, scaled)
            assert grad.shape == want.shape
            assert np.array_equal(grad.view(np.int64), want.view(np.int64))

    def test_penalty_hand_value(self):
        # Uniform weights, f1 already unit-norm, f2 identically zero:
        # the only violation is the (2, 2) diagonal target.
        f = np.array([[1.0, 0.0], [1.0, 0.0]])
        visit = np.array([0.5, 0.5])
        pw = np.minimum.outer(np.array([2.0, 1.0]), np.array([2.0, 1.0]))
        value, _ = penalty_value_grad(f, pw, visit, 5.0)
        assert value == pytest.approx(5.0)

    def test_penalty_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(5, 3))
        visit = rng.random(5)
        visit /= visit.sum()
        pw = np.minimum.outer(np.array([3.0, 2.0, 1.0]), np.array([3.0, 2.0, 1.0]))
        _, grad = penalty_value_grad(f, pw, visit, 5.0)
        approx = finite_difference(lambda x: penalty_value_grad(x, pw, visit, 5.0)[0], f)
        assert np.max(np.abs(grad - approx)) < 1e-6


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class TestTrainGraphDrawing:
    def test_deterministic_per_seed(self, tworoom_data):
        cfg = TrainConfig(iterations=300, batch_size=128, step_size=1e-2, seed=5)
        a = train_graph_drawing(tworoom_data, 3, cfg)
        b = train_graph_drawing(tworoom_data, 3, cfg)
        assert np.array_equal(a.params, b.params)

    def test_two_state_second_dimension_aligns(self, zoo_mazes, zoo_bases):
        cfg = TrainConfig(iterations=4000, batch_size=64, step_size=1e-2, seed=0)
        rep = train_graph_drawing(exhaustive_dataset(zoo_mazes["k2"]), 2, cfg)
        f2 = rep.params[:, 1]
        v2 = zoo_bases["k2"].eigenvectors[:, 1]
        cosine = abs(f2 @ v2) / np.linalg.norm(f2)
        assert cosine >= 0.999

    def test_three_state_dimensions_align(self, zoo_mazes, zoo_bases):
        cfg = TrainConfig(iterations=4000, batch_size=64, step_size=1e-2, seed=0)
        rep = train_graph_drawing(exhaustive_dataset(zoo_mazes["p3"]), 3, cfg)
        V = zoo_bases["p3"].eigenvectors
        for i in (1, 2):
            fi = rep.params[:, i]
            cosine = abs(fi @ V[:, i]) / np.linalg.norm(fi)
            assert cosine >= 0.99, f"column {i} misaligned: {cosine}"

    def test_objective_decreases(self, tworoom_rep):
        log = tworoom_rep.objective_log
        assert log[-1, 1] < log[0, 1]
        assert np.all(np.diff(log[:, 0]) > 0)

    def test_divergence_guard_raises(self, tworoom):
        data = collect_dataset(tworoom, 200, 50, 0.0, seed=3)
        cfg = TrainConfig(iterations=800, batch_size=128, step_size=100.0, seed=3)
        with pytest.raises(NumericalError, match="10x"):
            train_graph_drawing(data, 3, cfg)

    def test_nan_objective_raises(self, tworoom_data, monkeypatch):
        def nan_attraction(f, weights, s, s2):
            return float("nan"), np.zeros_like(f)

        monkeypatch.setattr(replearn, "attraction_value_grad", nan_attraction)
        cfg = TrainConfig(iterations=50, batch_size=16, step_size=1e-2, seed=0)
        with pytest.raises(NumericalError, match="smoothed objective nan exceeds 10x"):
            train_graph_drawing(tworoom_data, 3, cfg)

    def test_partial_coverage_rejected(self, tworoom):
        data = make_dataset([[0, 1], [1, 0]], n_states=9)
        with pytest.raises(PreconditionError, match="components"):
            train_graph_drawing(data, 2, TrainConfig(iterations=10, batch_size=4))

    def test_empty_dataset_rejected(self):
        data = make_dataset([], n_states=2)
        with pytest.raises(InputError, match="dataset has no transitions"):
            train_graph_drawing(data, 2, TrainConfig(iterations=10, batch_size=4))

    def test_dimension_bounds(self, tworoom_data):
        with pytest.raises(InputError, match=r"d = 1 outside \[2, "):
            train_graph_drawing(tworoom_data, 1)
        with pytest.raises(InputError, match=r"d = 10 outside \[2, "):
            train_graph_drawing(tworoom_data, 10)

    def test_config_validation(self, tworoom_data):
        with pytest.raises(InputError, match="positive"):
            train_graph_drawing(tworoom_data, 2, TrainConfig(iterations=0))
        with pytest.raises(InputError, match="step_size"):
            train_graph_drawing(tworoom_data, 2, TrainConfig(step_size=0.0))


# ---------------------------------------------------------------------------
# eigenvalue estimation
# ---------------------------------------------------------------------------

def exact_rep(basis, d):
    return LearnedRep(
        params=basis.eigenvectors[:, :d].copy(),
        config=TrainConfig(),
        objective_log=np.zeros((1, 3)),
    )


class TestEstimateEigenvalues:
    def test_two_state_single_edge_exact(self, zoo_bases):
        rep = exact_rep(zoo_bases["k2"], 2)
        data = make_dataset([[0, 1], [1, 0]], n_states=2)
        est = estimate_eigenvalues(rep, data)
        assert est == pytest.approx([2.0], abs=1e-12)

    def test_constant_column_gives_zero(self, zoo_bases):
        rep = LearnedRep(
            params=np.ones((2, 2)),
            config=TrainConfig(),
            objective_log=np.zeros((1, 3)),
        )
        data = make_dataset([[0, 1], [1, 0]], n_states=2)
        est = estimate_eigenvalues(rep, data)
        assert est == pytest.approx([0.0], abs=1e-15)

    def test_three_state_path_exact_on_full_table(self, zoo_mazes, zoo_bases):
        rep = exact_rep(zoo_bases["p3"], 3)
        est = estimate_eigenvalues(rep, exhaustive_dataset(zoo_mazes["p3"]))
        assert est == pytest.approx([1.0, 3.0], abs=1e-9)

    def test_learned_tworoom_within_ten_percent(self, tworoom_rep, tworoom_data, zoo_bases):
        truth = zoo_bases["tworoom"].eigenvalues[1:5]
        est = estimate_eigenvalues(tworoom_rep, tworoom_data)
        rel = np.abs(est - truth) / truth
        assert np.all(rel <= 0.10)

    def test_bump_only_dataset_rejected(self, zoo_bases):
        rep = exact_rep(zoo_bases["k2"], 2)
        data = make_dataset([[0, 0], [1, 1]], n_states=2)
        with pytest.raises(InputError, match="no edge-traversing transitions"):
            estimate_eigenvalues(rep, data)

    def test_state_count_mismatch_rejected(self, zoo_bases):
        rep = exact_rep(zoo_bases["k2"], 2)
        data = make_dataset([[0, 1]], n_states=3)
        with pytest.raises(InputError, match="table has 2 states, dataset has 3"):
            estimate_eigenvalues(rep, data)


# ---------------------------------------------------------------------------
# streamed dataset statistics
# ---------------------------------------------------------------------------

def reference_induced_graph(data):
    """The induced graph from every raw pair at once: the definition the
    block-by-block collection of moves must match."""
    return graph_from_transitions(data.n_states, *raw_pairs(data))


def reference_estimates(rep, data):
    """Eigenvalue estimates from whole-array sums: the definition the
    block-by-block sums must match bit for bit."""
    s, s2 = raw_pairs(data)
    mask = s != s2
    f = rep.params
    diff = f[s[mask]] - f[s2[mask]]
    edges = reference_induced_graph(data).volume // 2
    raw = (diff * diff).sum(axis=0) / mask.sum() * edges
    return (raw / (f * f).sum(axis=0))[1:]


def random_rep(n, d, seed):
    return LearnedRep(params=np.random.default_rng(seed).normal(size=(n, d)),
                      config=TrainConfig(), objective_log=np.zeros((1, 3)))


def assert_streams_match_reference(data, d, seed=0):
    got, want = data.induced_graph, reference_induced_graph(data)
    assert got.n_states == want.n_states and got.volume == want.volume
    for name in ("indptr", "indices", "degrees"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    rep = random_rep(data.n_states, d, seed)
    assert np.array_equal(estimate_eigenvalues(rep, data), reference_estimates(rep, data))


class TestStreamedStatistics:
    @pytest.mark.parametrize("episodes,episode_len", [
        (333, 70),                          # blocks end inside episodes
        (PAIR_BLOCK // 64, 64),             # exactly one block
        (2 * PAIR_BLOCK + 1, 1),            # episode_len 1, one transition past two blocks
        (1, 3 * PAIR_BLOCK + 17),           # a single episode over four blocks
    ])
    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_fourroom_matches_whole_array_formulas(self, episodes, episode_len, d):
        data = collect_dataset(layouts.load_bundled("fourroom"), episodes, episode_len,
                               0.0, seed=5)
        assert_streams_match_reference(data, d, seed=d)

    def test_criterion_five_data(self, tworoom_data, tworoom_rep):
        assert_streams_match_reference(tworoom_data, 5)
        assert np.array_equal(estimate_eigenvalues(tworoom_rep, tworoom_data),
                              reference_estimates(tworoom_rep, tworoom_data))

    @pytest.mark.parametrize("name", sorted(layouts.bundled_files()))
    def test_every_bundled_map(self, name):
        maze = layouts.load_bundled(name)
        if isinstance(maze, ContinuousMazeSpec):
            maze = discretize_continuous(maze, 2)
        data = collect_dataset(maze, 400, 30, 0.0, seed=2)
        assert_streams_match_reference(data, min(5, data.n_states), seed=1)
        assert_streams_match_reference(exhaustive_dataset(maze), 2, seed=3)


# ---------------------------------------------------------------------------
# learned rescaled embedding
# ---------------------------------------------------------------------------

class TestLearnedRaLaprep:
    def test_exact_inputs_reproduce_ground_truth(self, zoo_bases):
        basis = zoo_bases["k2"]
        rep = exact_rep(basis, 2)
        est = np.array([2.0])
        learned = learned_ra_laprep(rep, est)
        truth = ra_laprep(basis, 2)
        assert learned.kind == "learned"
        assert np.abs(learned.vectors) == pytest.approx(np.abs(truth.vectors))

    def test_zero_estimate_refused(self, zoo_bases):
        rep = exact_rep(zoo_bases["k2"], 2)
        with pytest.raises(NumericalError, match="at or below"):
            learned_ra_laprep(rep, np.array([0.0]))

    def test_nan_estimate_refused(self, zoo_bases):
        rep = exact_rep(zoo_bases["p3"], 3)
        with pytest.raises(NumericalError, match="estimate nan is at or below"):
            learned_ra_laprep(rep, np.array([1.0, np.nan]))

    def test_estimate_count_mismatch_rejected(self, zoo_bases):
        rep = exact_rep(zoo_bases["k2"], 2)
        with pytest.raises(InputError, match="2 eigenvalue estimates for a d = 2 table"):
            learned_ra_laprep(rep, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# quality metrics
# ---------------------------------------------------------------------------

class TestRepQuality:
    def test_truth_against_itself(self, zoo_graphs, zoo_bases):
        basis = zoo_bases["tworoom"]
        truth = ra_laprep(basis, 5)
        geo = geodesic_matrix(zoo_graphs["tworoom"])
        q = rep_quality(truth, truth, geo, goals=(8,), full_spectrum=basis.eigenvalues)
        assert q.cosines == pytest.approx(np.ones(4))
        entry = q.spearman[8]
        assert entry["learned_vs_truth"] == pytest.approx(1.0)
        assert entry["learned_vs_geodesic"] == entry["truth_vs_geodesic"]

    def test_sign_flip_invisible(self, zoo_graphs, zoo_bases):
        basis = zoo_bases["p3"]
        truth = ra_laprep(basis, 3)
        flipped = ra_laprep(basis, 3)
        flipped.vectors[:] = -flipped.vectors
        geo = geodesic_matrix(zoo_graphs["p3"])
        q = rep_quality(flipped, truth, geo, full_spectrum=basis.eigenvalues)
        assert q.cosines == pytest.approx(np.ones(2))

    def test_repeated_eigenvalues_flagged(self, zoo_graphs, zoo_bases):
        basis = zoo_bases["c4"]          # spectrum (0, 2, 2, 4)
        truth = ra_laprep(basis, 4)
        geo = geodesic_matrix(zoo_graphs["c4"])
        q = rep_quality(truth, truth, geo, full_spectrum=basis.eigenvalues)
        assert q.degenerate.tolist() == [True, True, False]

    def test_flags_read_the_one_tie_rule(self, zoo_bases, monkeypatch):
        basis = zoo_bases["tworoom"]
        truth = ra_laprep(basis, 5)
        monkeypatch.setattr(spectral, "TIE_TOL", 1.0)     # every gap of tworoom's spectrum ties
        q = rep_quality(truth, truth, {}, full_spectrum=basis.eigenvalues)
        assert q.degenerate.tolist() == [True] * 4

    @pytest.mark.parametrize("name", ["fourroom", "biased"])
    def test_flags_from_the_d_plus_one_smallest_eigenvalues(self, name):
        # learn passes lambda_0..lambda_d from the partial solver, not all n
        g = build_graph(layouts.load_bundled(name))
        basis = eig_sym(g.dense_laplacian())
        flagged = 0
        for d in range(2, 11):
            truth = ra_laprep(basis, d)
            full = rep_quality(truth, truth, {}, full_spectrum=basis.eigenvalues)
            smallest = eig_sym(g.laplacian_band(), d + 1).eigenvalues
            part = rep_quality(truth, truth, {}, full_spectrum=smallest)
            assert part.degenerate.tolist() == full.degenerate.tolist(), d
            flagged += int(full.degenerate.sum())
        assert flagged > 0 or name == "biased"      # fourroom ties three pairs, biased none

    def test_learned_tworoom_profile_matches_truth(
        self, tworoom_rep, tworoom_data, zoo_graphs, zoo_bases
    ):
        basis = zoo_bases["tworoom"]
        est = estimate_eigenvalues(tworoom_rep, tworoom_data)
        learned = learned_ra_laprep(tworoom_rep, est)
        truth = ra_laprep(basis, 5)
        geo = geodesic_matrix(zoo_graphs["tworoom"])
        q = rep_quality(learned, truth, geo, goals=(8,), full_spectrum=basis.eigenvalues)
        assert q.spearman[8]["learned_vs_truth"] >= 0.9
        keep = ~q.degenerate
        assert np.all(q.cosines[keep] >= 0.95)

    def test_state_count_mismatch_rejected(self, zoo_bases):
        a = ra_laprep(zoo_bases["p3"], 2)
        b = ra_laprep(zoo_bases["c4"], 2)
        with pytest.raises(InputError, match="learned has"):
            rep_quality(a, b, np.zeros((3, 3)), full_spectrum=zoo_bases["c4"].eigenvalues)


def _profile_pair(rng, case):
    """Two profiles of one of five shapes, from tie-free to tie-heavy."""
    n = int(rng.integers(2, 80))
    kind = case % 5
    if kind == 0:        # continuous, no ties
        return rng.normal(size=n), rng.normal(size=n)
    if kind == 1:        # integer profiles with many ties, like geodesic distances
        return rng.integers(0, 4, n), rng.integers(0, 6, n)
    if kind == 2:        # embedding distance against an integer geodesic
        geo = rng.integers(0, 12, n)
        return geo + rng.normal(scale=0.5, size=n), geo
    if kind == 3:        # rounded values: ties across float columns
        return rng.random(n).round(1), rng.random(n).round(2)
    return rng.integers(0, 3, n).astype(float), rng.normal(size=n)


def _same(x, y):
    return x == y or (np.isnan(x) and np.isnan(y))


class TestSpearmanRho:
    def test_bit_identical_to_scipy_on_seeded_cases(self):
        rng = np.random.default_rng(20221)
        mismatches = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", stats.ConstantInputWarning)
            for case in range(3000):
                a, b = _profile_pair(rng, case)
                ours, ref = spearman_rho(a, b), float(stats.spearmanr(a, b).statistic)
                if not _same(ours, ref):
                    mismatches.append((case, ours, ref))
        assert mismatches == []

    @pytest.mark.parametrize("a,b", [
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [np.nan, np.nan, np.nan]),
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]),
        ([0.0, -0.0, 0.0], [1.0, 2.0, 3.0]),
        ([4, 4, 4, 4], [1, 2, 2, 1]),
        ([1.0, 2.0], [2.0, 1.0]),
        ([1.0, 2.0], [1.0, 2.0]),
        ([0.0, -0.0, 1.0], [3.0, 2.0, 1.0]),
        ([1.0, np.inf, -np.inf, 2.0], [1.0, 2.0, 3.0, 4.0]),
    ], ids=["nan-entry", "all-nan", "constant", "signed-zeros-constant", "constant-int",
            "n2-reversed", "n2-same", "signed-zeros-tie", "infinities"])
    def test_degenerate_inputs_match_scipy(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = float(stats.spearmanr(a, b).statistic)
        assert _same(spearman_rho(a, b), ref)

    def test_constant_input_is_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# training log export
# ---------------------------------------------------------------------------

class TestTrainingLogCsv:
    def test_round_trip(self, tworoom_rep):
        text = training_log_csv(tworoom_rep)
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,objective,penalty"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert parsed == pytest.approx(tworoom_rep.objective_log)
