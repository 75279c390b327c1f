"""Classic multidimensional scaling on commute-time dissimilarities."""

import math

import numpy as np
import pytest

from spectral_reach.commute import commute
from spectral_reach.errors import InputError, PreconditionError
from spectral_reach.graph import pseudo_inverse
from spectral_reach.mds import classic_mds, double_center, equivalence_residual
from spectral_reach.spectral import ra_laprep


class TestDoubleCenter:
    def test_two_points(self):
        b = double_center(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(b, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_zero_matrix(self):
        b = double_center(np.zeros((4, 4)))
        assert np.all(b == 0)

    def test_rows_sum_to_zero(self, zoo_graphs):
        n = commute(zoo_graphs["tworoom"], method="solve").values
        b = double_center(n)
        assert np.abs(b.sum(axis=0)).max() <= 1e-9
        assert np.abs(b.sum(axis=1)).max() <= 1e-9
        assert np.allclose(b, b.T)

    def test_p3_equals_volume_times_pseudoinverse(self, p3_graph, zoo_bases):
        n = commute(p3_graph, method="solve").values
        b = double_center(n)
        lp = pseudo_inverse(p3_graph, zoo_bases["p3"]).matrix
        assert np.abs(b - 4.0 * lp).max() <= 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(PreconditionError, match="exceeds"):
            double_center(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(PreconditionError, match="zero diagonal"):
            double_center(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError, match="is negative"):
            double_center(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(PreconditionError, match="square matrix"):
            double_center(np.zeros((2, 3)))


class TestClassicMds:
    def test_two_points_distance(self):
        res = classic_mds(np.array([[0.0, 4.0], [4.0, 0.0]]))
        assert res.embedding.shape == (2, 1)
        assert abs(res.embedding[0, 0] - res.embedding[1, 0]) == pytest.approx(2.0)

    def test_p3_recovered_distances(self, p3_graph):
        n = commute(p3_graph, method="solve").values
        res = classic_mds(n)
        x = res.embedding
        d01 = np.linalg.norm(x[0] - x[1])
        d12 = np.linalg.norm(x[1] - x[2])
        d02 = np.linalg.norm(x[0] - x[2])
        assert d01 == pytest.approx(2.0, abs=1e-9)
        assert d12 == pytest.approx(2.0, abs=1e-9)
        assert d02 == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_k2_matches_scaled_embedding(self, zoo_graphs, zoo_bases):
        n = commute(zoo_graphs["k2"], method="solve").values
        res = classic_mds(n)
        dist = abs(res.embedding[0, 0] - res.embedding[1, 0])
        assert dist == pytest.approx(math.sqrt(2.0))

    def test_column_structure(self, zoo_graphs):
        n = commute(zoo_graphs["tworoom"], method="solve").values
        res = classic_mds(n)
        x = res.embedding
        assert np.abs(x.sum(axis=0)).max() <= 1e-8
        gram = x.T @ x
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-8

    def test_commute_input_is_psd(self, zoo_graphs):
        for name, g in zoo_graphs.items():
            res = classic_mds(commute(g, method="solve").values)
            assert not res.indefinite, name
            assert res.min_eigenvalue >= -1e-9 * max(res.eigenvalues[0], 1.0), name

    def test_reconstruction(self, zoo_graphs):
        for name, g in zoo_graphs.items():
            n = commute(g, method="solve").values
            x = classic_mds(n).embedding
            sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
            assert np.abs(sq - n).max() <= 1e-6, name

    def test_indefinite_reported(self):
        # Four points violating the Euclidean embedding condition: a
        # star metric with d(leaf, leaf) = 2 and d(center, leaf) = 1 is
        # embeddable, but shrinking one leaf-leaf distance breaks it.
        d2 = np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 4.0, 4.0],
                [1.0, 4.0, 0.0, 0.1],
                [1.0, 4.0, 0.1, 0.0],
            ]
        )
        with pytest.warns(RuntimeWarning):
            res = classic_mds(d2)
        assert res.indefinite
        assert res.min_eigenvalue < 0
        assert res.embedding.shape[0] == 4

    def test_rank_cutoff(self):
        # Colinear points embed in one dimension.
        pts = np.array([0.0, 1.0, 3.0])
        d2 = (pts[:, None] - pts[None, :]) ** 2
        res = classic_mds(d2)
        assert res.embedding.shape[1] == 1


class TestEquivalence:
    @pytest.mark.parametrize("name,tol", [("k2", 1e-9), ("p3", 1e-7), ("tworoom", 1e-6)])
    def test_residual_small(self, zoo_graphs, zoo_bases, name, tol):
        g = zoo_graphs[name]
        res = classic_mds(commute(g, method="solve").values)
        phi = ra_laprep(zoo_bases[name], g.n_states)
        assert equivalence_residual(res, phi, g.volume) <= tol

    def test_dimension_mismatch(self, zoo_graphs, zoo_bases):
        g = zoo_graphs["p3"]
        res = classic_mds(commute(g, method="solve").values)
        phi = ra_laprep(zoo_bases["tworoom"], 9)
        with pytest.raises(InputError, match="MDS embedding has"):
            equivalence_residual(res, phi, g.volume)
