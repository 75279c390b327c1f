"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
guarantee.  Each test is self-contained and also checks its runtime
budget.  The shaping experiments (6 and 7) take about 9 s combined on
a 2-core machine.
"""

import time

import numpy as np
import pytest
from scipy import stats

from spectral_reach import layouts
from spectral_reach.bottleneck import make_report
from spectral_reach.cli import main
from spectral_reach.commute import commute, commute_mc, first_passage
from spectral_reach.graph import build_graph, geodesic_matrix, pseudo_inverse
from spectral_reach.mds import classic_mds, double_center, equivalence_residual
from spectral_reach.replearn import (
    TrainConfig,
    collect_dataset,
    estimate_eigenvalues,
    learned_ra_laprep,
    rep_quality,
    train_graph_drawing,
)
from spectral_reach.shaping import (
    QLearningConfig,
    dimension_sweep,
    paired_auc_test,
    run_experiment,
)
from spectral_reach.spectral import (
    eig_sym,
    laprep,
    pairwise_sq_dists,
    ra_laprep,
    tail_bound,
)

ZOO = ("k2", "p3", "c4", "tworoom", "fourroom")


def zoo_graph(name):
    return build_graph(layouts.zoo_maze(name))


def dist_to_goal(embedding, goal):
    return np.linalg.norm(embedding.vectors - embedding.vectors[goal], axis=1)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"


def test_criterion_1_commute_identity_and_cross_validation():
    """Full-dimension rescaled distances reproduce commute times exactly;
    the three exact routes agree and Monte Carlo lands within 3 sigma."""
    budget = Budget(30)
    for name in ZOO:
        g = zoo_graph(name)
        n_mat = commute(g, "solve").values
        scale = np.maximum(n_mat, 1.0)

        phi = ra_laprep(eig_sym(g.dense_laplacian()), g.n_states)
        identity_rel = np.abs(g.volume * pairwise_sq_dists(phi) - n_mat) / scale
        assert identity_rel.max() <= 1e-8, name

        pinv_rel = np.abs(commute(g, "pseudo-inverse").values - n_mat) / scale
        assert pinv_rel.max() <= 1e-7, name
        fp = first_passage(g).values
        fp_rel = np.abs(fp + fp.T - n_mat) / scale
        assert fp_rel.max() <= 1e-7, name

        s, s2 = 0, g.n_states - 1
        est = commute_mc(g, s, s2, walks=100_000, seed=11)
        assert est.capped == 0, name
        slack = 3 * est.stderr if est.stderr > 0 else 1e-9 * max(n_mat[s, s2], 1.0)
        assert abs(est.estimate - n_mat[s, s2]) <= slack, name
    budget.check()


def test_criterion_2_mds_equivalence():
    """Classic MDS of the commute matrix matches the rescaled embedding,
    and its Gram matrix is the volume-scaled Laplacian pseudo-inverse."""
    budget = Budget(10)
    for name in ZOO:
        g = zoo_graph(name)
        basis = eig_sym(g.dense_laplacian())
        n_mat = commute(g, "solve").values

        gram = double_center(n_mat)
        plus = pseudo_inverse(g, basis).matrix
        assert np.abs(gram - g.volume * plus).max() <= 1e-9 * max(g.volume, 1), name

        res = classic_mds(n_mat)
        phi = ra_laprep(basis, g.n_states)
        assert equivalence_residual(res, phi, g.volume) <= 1e-6, name
    budget.check()


def test_criterion_3_truncation_tail():
    """On the four-room map the exact truncation tail is nonnegative,
    nonincreasing in d, zero at full dimension, and under the spectral
    upper bound, for every state pair."""
    budget = Budget(10)
    g = zoo_graph("fourroom")
    basis = eig_sym(g.dense_laplacian())
    n = g.n_states
    n_mat = commute(g, "solve").values
    scale = float(n_mat.max())
    tol = 1e-9 * scale

    vec, lam = basis.eigenvectors, basis.eigenvalues
    terms = np.empty((n - 1, n, n))
    for i in range(1, n):
        col = vec[:, i]
        terms[i - 1] = g.volume * (col[:, None] - col[None, :]) ** 2 / lam[i]
    partial = np.cumsum(terms, axis=0)

    prev_max = np.inf
    for d in range(2, n + 1):
        tail = n_mat - partial[d - 2]
        assert tail.min() >= -tol, f"negative tail at d={d}"
        assert tail.max() <= prev_max + tol, f"tail grew at d={d}"
        assert tail.max() <= tail_bound(basis, d) + tol, f"bound broken at d={d}"
        prev_max = tail.max()
    assert np.abs(n_mat - partial[-1]).max() <= 1e-8 * scale
    budget.check()


def test_criterion_4_reachability_ordering():
    """Distances under the 10-dimensional rescaled embedding rank states
    like geodesic distance (Spearman >= 0.9 per goal) and strictly beat
    the unrescaled embedding for every four-room goal."""
    budget = Budget(30)
    maze = layouts.load_bundled("fourroom")
    g = build_graph(maze)
    index = maze.state_index()
    goals = [index.of(c) for c in maze.goal_cells]
    assert len(goals) == 4
    basis = eig_sym(g.dense_laplacian())
    ra, lap = ra_laprep(basis, 10), laprep(basis, 10)
    geo = geodesic_matrix(g)
    for goal in goals:
        s_ra = stats.spearmanr(geo[goal], dist_to_goal(ra, goal)).statistic
        s_lap = stats.spearmanr(geo[goal], dist_to_goal(lap, goal)).statistic
        assert s_ra >= 0.9, f"goal {goal}: {s_ra:.4f}"
        assert s_ra > s_lap, f"goal {goal}: {s_ra:.4f} vs {s_lap:.4f}"
    budget.check()


def test_criterion_5_learned_representation_fidelity():
    """A table trained on a 100k-step uniform-policy dataset recovers the
    four smallest nonzero eigenvalues within 10%, aligns non-degenerate
    dimensions to |cos| >= 0.95, and ranks distances to goals like the
    ground-truth embedding (Spearman >= 0.9)."""
    budget = Budget(300)
    maze = layouts.load_bundled("tworoom")
    g = build_graph(maze)
    basis = eig_sym(g.dense_laplacian())
    truth = ra_laprep(basis, 5)

    data = collect_dataset(maze, episodes=2000, episode_len=50,
                           temperature=0.0, seed=7)
    assert data.total_steps == 100_000
    cfg = TrainConfig(iterations=4000, batch_size=256, step_size=1e-2, seed=1)
    rep = train_graph_drawing(data, 5, cfg)
    emb = learned_ra_laprep(rep, estimate_eigenvalues(rep, data))

    quality = rep_quality(emb, truth, geodesic_matrix(g),
                          goals=tuple(range(g.n_states)),
                          full_spectrum=basis.eigenvalues)
    assert max(quality.eig_rel_err) <= 0.10
    for cos, degenerate in zip(quality.cosines, quality.degenerate):
        if not degenerate:
            assert cos >= 0.95, quality.cosines

    index = maze.state_index()
    corners = [index.of(c) for c in ((1, 1), (5, 1), (1, 2), (5, 2))]
    per_goal = {s: quality.spearman[s]["learned_vs_truth"]
                for s in range(g.n_states)}
    assert np.mean(list(per_goal.values())) >= 0.9, per_goal
    for s in corners:
        assert per_goal[s] >= 0.9, per_goal
    budget.check()


def test_criterion_6_reward_shaping_ordering():
    """Shaping with the rescaled embedding beats every baseline on AUC
    (paired one-sided p < 0.05) and reaches 90% success in at most 0.75x
    the episodes the unrescaled embedding needs."""
    budget = Budget(600)
    maze = layouts.load_bundled("fourroom")
    g = build_graph(maze)
    index = maze.state_index()
    goals = tuple(index.of(c) for c in maze.goal_cells)
    basis = eig_sym(g.dense_laplacian())
    embeddings = {"ra_laprep": ra_laprep(basis, 10), "laprep": laprep(basis, 10)}
    kinds = ("ra_laprep", "laprep", "l2", "none")

    run = run_experiment(maze, kinds, goals, tuple(range(10)),
                         QLearningConfig(), embeddings)
    agg = run.aggregate()
    for kind in kinds[1:]:
        assert agg["ra_laprep"]["auc"] >= agg[kind]["auc"], agg
        diff, p = paired_auc_test(run, "ra_laprep", kind)
        assert diff > 0 and p < 0.05, f"vs {kind}: diff={diff:.4f} p={p:.2g}"
    ep_ra = agg["ra_laprep"]["episodes_to_90pct"]
    ep_lap = agg["laprep"]["episodes_to_90pct"]
    assert ep_ra <= 0.75 * ep_lap, f"{ep_ra} vs {ep_lap}"
    budget.check()


def test_criterion_7_dimension_sweep():
    """Truncating the shaping embedding to d=10 does not degrade AUC
    relative to the full-dimension embedding (one-sided 2-pooled-stderr
    band).  The two-sided band is reported but not asserted: d=10
    reliably scores ABOVE full dimension here, so a symmetric band fails
    in the direction opposite to degradation."""
    budget = Budget(600)
    maze = layouts.load_bundled("fourroom")
    g = build_graph(maze)
    index = maze.state_index()
    goals = tuple(index.of(c) for c in maze.goal_cells)
    basis = eig_sym(g.dense_laplacian())

    report = dimension_sweep(maze, (10, g.n_states), goals, tuple(range(10)),
                             QLearningConfig(episodes=2000),
                             lambda d: ra_laprep(basis, d))
    a10, afull = report[10], report[g.n_states]
    diff = a10["auc"] - afull["auc"]
    pooled = float(np.hypot(a10["stderr"], afull["stderr"]))
    two_sided = abs(diff) <= 2 * pooled
    print(f"\nd=10 auc {a10['auc']:.4f}, d=full auc {afull['auc']:.4f}, "
          f"diff {diff:+.4f}, 2*pooled stderr {2 * pooled:.4f}, "
          f"two-sided band {'PASS' if two_sided else 'FAIL (d=10 is higher)'}")
    assert diff >= -2 * pooled, f"diff={diff:.4f} pooled={pooled:.4f}"
    budget.check()


def test_criterion_8_bottleneck_discovery():
    """Inverse-distance-sum centrality puts the two-room doorway in the
    top-20% set, and all four four-room doorways at d=10."""
    budget = Budget(10)
    for name, d, frac in (("tworoom", None, 0.2), ("fourroom", 10, 0.2)):
        maze = layouts.zoo_maze(name)
        g = build_graph(maze)
        index = maze.state_index()
        doors = {index.of(c) for c in layouts.DOORWAYS[name]}
        emb = ra_laprep(eig_sym(g.dense_laplacian()), d if d else g.n_states)
        selected = set(make_report(emb, frac).selected)
        assert doors.issubset(selected), (name, sorted(doors), sorted(selected))
    budget.check()


def test_criterion_9_coverage_ablation(tmp_path):
    """Goal-distance ranking fidelity of the learned table degrades by at
    most 0.1 as the behavior policy tilts toward the bias cells; fully
    biased behavior severs the sampled graph and exits with code 2."""
    budget = Budget(300)
    maze = layouts.load_bundled("biased")
    g = build_graph(maze)
    index = maze.state_index()
    goals = tuple(index.of(c) for c in maze.goal_cells)
    basis = eig_sym(g.dense_laplacian())
    truth = ra_laprep(basis, 10)
    geo = geodesic_matrix(g)
    cfg = TrainConfig(iterations=4000, batch_size=256, step_size=1e-2, seed=1)

    spearman = {}
    for tau in (0.0, 0.3, 0.9):
        data = collect_dataset(maze, episodes=2000, episode_len=50,
                               temperature=tau, seed=7)
        rep = train_graph_drawing(data, 10, cfg)
        emb = learned_ra_laprep(rep, estimate_eigenvalues(rep, data))
        quality = rep_quality(emb, truth, geo, goals,
                              full_spectrum=basis.eigenvalues)
        spearman[tau] = {goal: quality.spearman[goal]["learned_vs_geodesic"]
                         for goal in goals}
    for tau in (0.3, 0.9):
        for goal in goals:
            drop = spearman[0.0][goal] - spearman[tau][goal]
            assert drop <= 0.1, f"tau={tau} goal={goal} drop={drop:.4f}"

    exit_code = main(["learn", "--map", "biased", "--tau", "10", "--seed", "0",
                      "--episodes", "200", "--episode-len", "50",
                      "--iterations", "100", "--batch", "64",
                      "--out", str(tmp_path / "tau10")])
    assert exit_code == 2
    budget.check()
