"""Inverse-distance-sum centrality and bottleneck selection."""

import numpy as np
import pytest

from spectral_reach.bottleneck import CentralityReport, centrality, make_report, top_bottlenecks
from spectral_reach.errors import InvalidState
from spectral_reach import layouts
from spectral_reach.spectral import Embedding, ra_laprep


def embedding_from(vectors):
    v = np.asarray(vectors, dtype=np.float64)
    return Embedding(kind="ra_laprep", d=v.shape[1] + 1, vectors=v,
                     eigenvalues=np.ones(v.shape[1]))


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
        scaled = Embedding(kind=e.kind, d=e.d, vectors=3.0 * e.vectors,
                           eigenvalues=e.eigenvalues)
        assert centrality(scaled) == pytest.approx(centrality(e) / 3.0)
        assert top_bottlenecks(centrality(scaled), 0.2) == top_bottlenecks(centrality(e), 0.2)

    def test_duplicate_coordinates_warn_but_compute(self):
        e = embedding_from([[0.0], [0.0], [1.0]])
        with pytest.warns(RuntimeWarning, match="identical"):
            cent = centrality(e)
        assert np.all(np.isfinite(cent))

    def test_single_state_rejected(self):
        with pytest.raises(InvalidState):
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
        with pytest.raises(ValueError, match="fraction"):
            top_bottlenecks(cent, 0.0)
        with pytest.raises(ValueError, match="fraction"):
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
