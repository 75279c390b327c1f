"""Inverse-distance-sum centrality and bottleneck selection."""

import functools
import re
import warnings

import numpy as np
import pytest

from spectral_reach.bottleneck import (
    ROW_BLOCK,
    CentralityReport,
    centrality,
    make_report,
    top_bottlenecks,
)
from spectral_reach.envgrid import discretize_continuous
from spectral_reach.errors import InputError
from spectral_reach.graph import build_graph
from spectral_reach import layouts
from spectral_reach.spectral import Embedding, eig_sym, laprep, ra_laprep


def embedding_from(vectors):
    v = np.asarray(vectors, dtype=np.float64)
    return Embedding(kind="ra_laprep", vectors=v, eigenvalues=np.ones(v.shape[1]))


class TestCentrality:
    def test_two_state_symmetric(self, zoo_bases):
        cent = centrality(ra_laprep(zoo_bases["k2"], 2))
        assert cent == pytest.approx([1.0, 1.0])

    def test_three_state_path_values(self, zoo_bases):
        cent = centrality(ra_laprep(zoo_bases["p3"], 3))
        end = 1 / (1 + np.sqrt(2))
        assert cent == pytest.approx([end, 0.5, end])

    def test_positive_everywhere_on_connected_maps(self, zoo_bases):
        for name, basis in zoo_bases.items():
            cent = centrality(ra_laprep(basis, basis.n_states))
            assert np.all(cent > 0), name

    def test_uniform_scaling_homogeneity(self, zoo_bases):
        e = ra_laprep(zoo_bases["tworoom"], 9)
        scaled = Embedding(kind=e.kind, vectors=3.0 * e.vectors, eigenvalues=e.eigenvalues)
        assert centrality(scaled) == pytest.approx(centrality(e) / 3.0)
        assert top_bottlenecks(centrality(scaled), 0.2) == top_bottlenecks(centrality(e), 0.2)

    def test_duplicate_coordinates_warn_but_compute(self):
        e = embedding_from([[0.0], [0.0], [1.0]])
        with pytest.warns(RuntimeWarning, match="identical"):
            cent = centrality(e)
        assert np.all(np.isfinite(cent))

    def test_single_state_rejected(self):
        with pytest.raises(InputError, match="at least two states"):
            centrality(embedding_from([[0.0]]))


class TestTopBottlenecks:
    def test_middle_of_path_selected_at_one_third(self, zoo_bases):
        cent = centrality(ra_laprep(zoo_bases["p3"], 3))
        assert top_bottlenecks(cent, 1 / 3) == (1,)

    def test_selection_size_rounds_up(self, zoo_bases):
        cent = centrality(ra_laprep(zoo_bases["p3"], 3))
        picked = top_bottlenecks(cent, 0.34)          # ceil(1.02) = 2 states
        assert len(picked) == 2
        assert 1 in picked

    def test_full_fraction_selects_everything(self, zoo_bases):
        cent = centrality(ra_laprep(zoo_bases["c4"], 4))
        assert top_bottlenecks(cent, 1.0) == (0, 1, 2, 3)

    def test_ties_break_toward_lower_index(self):
        cent = np.array([0.5, 0.3, 0.5, 0.2])
        assert top_bottlenecks(cent, 0.5) == (0, 2)

    def test_invert_selects_lowest(self):
        cent = np.array([0.5, 0.3, 0.5, 0.2])
        assert top_bottlenecks(cent, 0.25, invert=True) == (3,)

    def test_fraction_bounds(self):
        cent = np.ones(4)
        with pytest.raises(InputError, match="fraction"):
            top_bottlenecks(cent, 0.0)
        with pytest.raises(InputError, match="fraction"):
            top_bottlenecks(cent, 1.5)


class TestDoorwayDiscovery:
    def test_doorway_selected_on_two_room_map(self, tworoom, zoo_bases):
        index = tworoom.state_index()
        doorway = index.of(layouts.DOORWAYS["tworoom"][0])
        report = make_report(ra_laprep(zoo_bases["tworoom"], 9), 0.2)
        assert isinstance(report, CentralityReport)
        assert len(report.selected) == 2                # ceil(0.2 * 9)
        assert doorway in report.selected

    def test_doorway_beats_every_room_corner(self, tworoom, zoo_bases):
        index = tworoom.state_index()
        doorway = index.of(layouts.DOORWAYS["tworoom"][0])
        cent = centrality(ra_laprep(zoo_bases["tworoom"], 9))
        corners = [index.of(c) for c in ((1, 1), (5, 1), (1, 2), (5, 2))]
        assert np.all(cent[doorway] > cent[corners])
        assert int(np.argmax(cent)) == doorway

    def test_invert_excludes_doorway(self, tworoom, zoo_bases):
        index = tworoom.state_index()
        doorway = index.of(layouts.DOORWAYS["tworoom"][0])
        report = make_report(ra_laprep(zoo_bases["tworoom"], 9), 0.2, invert=True)
        assert doorway not in report.selected


# ---------------------------------------------------------------------------
# row-blocked sums against the dense n x n formula
# ---------------------------------------------------------------------------

def dense_centrality(e):
    """The all-pairs formula centrality used before it summed row blocks:
    centralities, and the first off-diagonal zero distance (or None)."""
    x = e.vectors
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    d = np.sqrt(d2)
    off_diag = d + np.diag(np.full(e.n_states, np.inf))
    pair = None
    if float(off_diag.min()) <= 0.0:
        i, j = np.unravel_index(int(np.argmin(off_diag)), d.shape)
        pair = (int(i), int(j))
    return 1.0 / d.sum(axis=1), pair


def blocked_centrality(e):
    """centrality(e), and the state pair its warning names (or None)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cent = centrality(e)
    pairs = [tuple(map(int, re.findall(r"states (\d+) and (\d+)", str(w.message))[0]))
             for w in caught]
    assert len(pairs) <= 1
    return cent, (pairs[0] if pairs else None)


def assert_matches_dense(e):
    cent, pair = blocked_centrality(e)
    want, want_pair = dense_centrality(e)
    assert pair == want_pair
    if e.n_states <= ROW_BLOCK:
        assert np.array_equal(cent.view(np.int64), want.view(np.int64))
    else:
        assert np.max(np.abs(cent - want) / want) <= 1e-14
    return cent, want, pair


MAP_CASES = [(name, 1) for name in sorted(layouts.bundled_files())] + [
    ("continuous_a", 2), ("continuous_b", 2)]


@functools.cache
def full_basis(name, resolution):
    maze = layouts.load_bundled(name)
    if name.startswith("continuous"):
        maze = discretize_continuous(maze, resolution)
    return eig_sym(build_graph(maze).dense_laplacian())


class TestBlockedCentrality:
    @pytest.mark.parametrize("name,resolution", MAP_CASES)
    def test_matches_dense_on_every_bundled_map(self, name, resolution):
        basis = full_basis(name, resolution)
        n = basis.n_states
        for embed, d in ((ra_laprep, n), (ra_laprep, min(10, n)), (laprep, min(10, n))):
            cent, want, _ = assert_matches_dense(embed(basis, d))
            for invert in (False, True):
                assert top_bottlenecks(cent, 0.2, invert) == top_bottlenecks(want, 0.2, invert)

    @pytest.mark.parametrize("name,resolution", MAP_CASES)
    def test_plain_full_dimension_ties_match_dense(self, name, resolution):
        # The rows of the full plain embedding are orthonormal rows minus one
        # shared coordinate: every distance is sqrt(2) and every centrality
        # ties, so only rounding orders the states.  Values are compared,
        # selections are not.
        basis = full_basis(name, resolution)
        cent, _, _ = assert_matches_dense(laprep(basis, basis.n_states))
        assert np.allclose(cent, 1.0 / ((basis.n_states - 1) * np.sqrt(2.0)), rtol=1e-12)

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    @pytest.mark.parametrize("k", [1, 9, 300])
    def test_matches_dense_on_random_embeddings(self, n, k):
        rng = np.random.default_rng(n * 1000 + k)
        e = embedding_from(rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, size=k))
        cent, want, _ = assert_matches_dense(e)
        for invert in (False, True):
            assert top_bottlenecks(cent, 0.2, invert) == top_bottlenecks(want, 0.2, invert)

    @pytest.mark.parametrize("n", [ROW_BLOCK, 2 * ROW_BLOCK + 1])
    @pytest.mark.parametrize("rows", [(3, 7), (ROW_BLOCK - 1, ROW_BLOCK), (5, 2 * ROW_BLOCK - 1),
                                      (ROW_BLOCK + 2, 2 * ROW_BLOCK)])
    def test_duplicated_row_warns_with_the_dense_pair(self, n, rows):
        # eighths make every product and sum exact, so the duplicate's
        # distance is exactly zero in any summation order
        x = np.random.default_rng(1).integers(-40, 40, size=(n, 4)) / 8.0
        first, second = (r % n for r in rows)
        x[second] = x[first]
        e = embedding_from(x)
        _, _, pair = assert_matches_dense(e)
        assert pair == (min(first, second), max(first, second))
        with pytest.warns(RuntimeWarning, match=f"states {pair[0]} and {pair[1]} "):
            centrality(e)
