"""First-passage and commute times: exact routes and the Monte Carlo oracle."""

import importlib
import io
import warnings

import numpy as np
import pytest
from conftest import rel_err

from spectral_reach import layouts
from spectral_reach.commute import (
    CSV_BLOCK,
    commute,
    commute_mc,
    effective_resistance,
    first_passage,
    symmetric_csv,
)
from spectral_reach.envgrid import ContinuousMazeSpec, discretize_continuous, parse_maze
from spectral_reach.errors import InputError, NumericalError, PreconditionError
from spectral_reach.graph import build_graph, pseudo_inverse
from spectral_reach.spectral import eig_sym

DISCONNECTED = "#######\n#..#..#\n#..#..#\n#######"
ONE_CELL = "###\n#.#\n###"
#: every bundled map (the zoo among them), continuous layouts at resolution 1
BUNDLED = tuple(sorted(layouts.bundled_files()))
# the module: the package attribute of that name is the function
commute_module = importlib.import_module("spectral_reach.commute")


def bundled_graph(name):
    maze = layouts.load_bundled(name)
    if isinstance(maze, ContinuousMazeSpec):
        maze = discretize_continuous(maze, 1)
    return build_graph(maze)


def open_room(side):
    wall = "#" * (side + 2)
    return "\n".join([wall] + ["#" + "." * side + "#"] * side + [wall])


def hand_first_passage_p3():
    """Oracle: solve the 2x2 systems for the 3-path by hand.

    Target node 0 (left end): from node 1 the walk moves to 0 or 2 with
    probability 1/2 each, giving m(0|1) = 1 + m(0|2)/2 and
    m(0|2) = 1 + m(0|1) (node 2 is forced back to 1).  Solving gives
    m(0|1) = 3, m(0|2) = 4.  Symmetry fills in the rest; the middle
    node is hit in one step from either end: m(1|0) = m(1|2) = 1.
    """
    m = np.zeros((3, 3))
    m[1, 0], m[2, 0] = 3.0, 4.0
    m[0, 1], m[2, 1] = 1.0, 1.0
    m[0, 2], m[1, 2] = 4.0, 3.0
    return m


class TestFirstPassage:
    def test_k2_single_step(self, zoo_graphs):
        m = first_passage(zoo_graphs["k2"]).values
        assert m[0, 1] == pytest.approx(1.0)
        assert m[1, 0] == pytest.approx(1.0)

    def test_p3_hand_oracle(self, p3_graph):
        m = first_passage(p3_graph).values
        assert np.allclose(m, hand_first_passage_p3(), atol=1e-10)

    def test_c4_opposite(self, zoo_graphs):
        # Hitting time on the N-cycle between nodes k apart is k(N-k).
        # Row-major indexing of the 2x2 block makes (0, 3) and (1, 2)
        # the diagonally opposite pairs.
        m = first_passage(zoo_graphs["c4"]).values
        assert m[0, 3] == pytest.approx(4.0)
        assert m[1, 2] == pytest.approx(4.0)
        assert m[0, 1] == pytest.approx(3.0)

    def test_zero_diagonal(self, zoo_graphs):
        for g in zoo_graphs.values():
            assert np.all(np.diag(first_passage(g).values) == 0)

    def test_disconnected(self):
        g = build_graph(parse_maze(DISCONNECTED))
        with pytest.raises(PreconditionError, match="components"):
            first_passage(g)

    def test_one_state_is_zero_without_warning(self):
        g = build_graph(parse_maze(ONE_CELL))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert first_passage(g).values.tolist() == [[0.0]]

    def test_one_state_commute_is_zero_by_both_routes(self):
        # one state has no RA-LapRep column, and L+ = [[0]]
        g = build_graph(parse_maze(ONE_CELL))
        for method in ("solve", "pseudo-inverse"):
            assert commute(g, method).values.tolist() == [[0.0]], method


class TestCommute:
    def test_k2(self, zoo_graphs):
        n = commute(zoo_graphs["k2"], method="solve").values
        assert n.tolist() == [[0, 2], [2, 0]]

    def test_p3_resistance_oracle(self, p3_graph):
        n = commute(p3_graph, method="solve").values
        assert n[0, 1] == pytest.approx(4.0)
        assert n[1, 2] == pytest.approx(4.0)
        assert n[0, 2] == pytest.approx(8.0)

    def test_c4_opposite(self, zoo_graphs):
        n = commute(zoo_graphs["c4"], method="solve").values
        assert n[0, 3] == pytest.approx(8.0)

    def test_orbit_constancy_on_c4(self, zoo_graphs):
        g = zoo_graphs["c4"]
        n = commute(g, method="solve").values
        adjacent = [n[i, j] for i, j in g.edges()]
        assert np.ptp(adjacent) <= 1e-9
        assert n[0, 3] == pytest.approx(n[1, 2])

    def test_methods_agree(self, zoo_graphs):
        for name, g in zoo_graphs.items():
            a = commute(g, method="solve").values
            b = commute(g, method="pseudo-inverse").values
            scale = np.maximum(np.abs(a), 1.0)
            assert np.max(np.abs(a - b) / scale) <= 1e-7, name

    def test_symmetric_zero_diag(self, zoo_graphs):
        for name, g in zoo_graphs.items():
            n = commute(g, method="solve").values
            assert np.array_equal(n, n.T), name
            assert np.all(np.diag(n) == 0.0), name

    def test_first_passage_sum_identity(self, zoo_graphs):
        for name, g in zoo_graphs.items():
            m = first_passage(g).values
            n = commute(g, method="solve").values
            assert np.allclose(m + m.T, n, atol=1e-9), name

    def test_unknown_method(self, zoo_graphs):
        with pytest.raises(InputError):
            commute(zoo_graphs["k2"], method="guess")

    def test_disconnected(self):
        g = build_graph(parse_maze(DISCONNECTED))
        with pytest.raises(PreconditionError, match="components"):
            commute(g, method="solve")


class TestGroundedSolve:
    """The solve route: V * R_eff from the inverse of the grounded Laplacian."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_agrees_with_first_passage_and_pseudo_inverse(self, name):
        g = bundled_graph(name)
        n = commute(g, method="solve").values
        m = first_passage(g).values
        assert rel_err(n, m + m.T) <= 1e-9
        assert rel_err(n, commute(g, method="pseudo-inverse").values) <= 1e-9
        assert np.array_equal(n, n.T)

    def test_thousand_state_room_matches_pseudo_inverse(self):
        g = build_graph(parse_maze(open_room(32)))
        assert g.n_states == 1024
        n = commute(g, method="solve").values
        assert rel_err(n, commute(g, method="pseudo-inverse").values) <= 1e-9
        assert np.array_equal(n, n.T)


class TestExactSymmetry:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_pseudo_inverse_and_both_routes_are_exactly_symmetric(self, name):
        g = bundled_graph(name)
        plus = pseudo_inverse(g, eig_sym(g.dense_laplacian())).matrix
        assert np.array_equal(plus, plus.T)
        for method in ("solve", "pseudo-inverse"):
            n = commute(g, method=method).values
            assert np.array_equal(n, n.T), method


def savetxt_bytes(values):
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.17g", delimiter=",")
    return buf.getvalue().encode()


def csv_bytes(values):
    return b"".join(symmetric_csv(values))


class TestSymmetricCsv:
    @pytest.mark.parametrize("seed,n", [(0, 2), (1, 7), (2, 40), (3, 129)])
    def test_bytes_equal_savetxt(self, seed, n):
        rng = np.random.default_rng(seed)
        # exponent-form magnitudes, both signs, and signed zeros
        a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-320, 300, size=(n, n))
        a[rng.random((n, n)) < 0.1] = 0.0
        a[rng.random((n, n)) < 0.1] = -0.0
        a[rng.random((n, n)) < 0.1] = 3.0
        values = np.triu(a) + np.triu(a, 1).T
        assert np.array_equal(values, values.T)
        assert csv_bytes(values) == savetxt_bytes(values)

    def test_every_size_around_the_row_block(self):
        a = np.random.default_rng(4).standard_normal((3 * CSV_BLOCK + 1,) * 2) * 1e5
        for n in range(1, len(a) + 1):
            values = a[:n, :n] + a[:n, :n].T
            chunks = list(symmetric_csv(values))
            assert b"".join(chunks) == savetxt_bytes(values), n
            # one chunk per block of rows
            assert [c.count(b"\n") for c in chunks] == [
                min(CSV_BLOCK, n - a) for a in range(0, n, CSV_BLOCK)], n

    def test_extremes_of_the_format_width(self):
        values = np.array([[-1.2345678901234567e-308, -5e-324],
                           [-5e-324, -np.finfo(float).max]])
        assert len(max(("%.17g" % v for v in values.ravel()), key=len)) == 24
        assert csv_bytes(values) == savetxt_bytes(values)

    def test_one_state(self):
        assert csv_bytes(np.zeros((1, 1))) == b"0\n"

    def test_commute_matrices(self, zoo_graphs):
        for method in ("solve", "pseudo-inverse"):
            values = commute(zoo_graphs["fourroom"], method=method).values
            assert csv_bytes(values) == savetxt_bytes(values), method

    def test_asymmetric_matrix_refused(self):
        values = np.zeros((3, 3))
        values[0, 2] = np.nextafter(0.0, 1.0)
        # at the call, before any chunk is formatted or written
        with pytest.raises(PreconditionError, match="not exactly symmetric"):
            symmetric_csv(values)


class TestEffectiveResistance:
    def test_known_values(self, zoo_graphs, zoo_bases):
        cases = [
            ("k2", 0, 1, 1.0),
            ("p3", 0, 2, 2.0),  # series 1 + 1
            ("c4", 0, 1, 0.75),  # parallel 1 and 3
            ("c4", 0, 3, 1.0),  # opposite corners: parallel 2 and 2
        ]
        for name, s, s2, expected in cases:
            g = zoo_graphs[name]
            lp = pseudo_inverse(g, zoo_bases[name])
            assert effective_resistance(g, lp, s, s2) == pytest.approx(expected)

    def test_volume_times_resistance_is_commute(self, zoo_graphs, zoo_bases):
        for name, g in zoo_graphs.items():
            lp = pseudo_inverse(g, zoo_bases[name])
            n = commute(g, method="solve").values
            for s in range(g.n_states):
                for s2 in range(s + 1, g.n_states):
                    r = effective_resistance(g, lp, s, s2)
                    assert g.volume * r == pytest.approx(n[s, s2], rel=1e-8), name


class TestMonteCarlo:
    def test_k2_exact(self, zoo_graphs):
        est = commute_mc(zoo_graphs["k2"], 0, 1, walks=1000, seed=3)
        assert est.estimate == 2.0
        assert est.stderr == 0.0
        assert est.capped == 0

    def test_p3_within_three_stderr(self, p3_graph):
        est = commute_mc(p3_graph, 0, 2, walks=100_000, seed=11)
        assert est.stderr > 0
        assert abs(est.estimate - 8.0) <= 3 * est.stderr

    def test_seed_determinism(self, p3_graph):
        a = commute_mc(p3_graph, 0, 2, walks=5000, seed=7)
        b = commute_mc(p3_graph, 0, 2, walks=5000, seed=7)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_seed_sensitivity(self, p3_graph):
        a = commute_mc(p3_graph, 0, 2, walks=5000, seed=7)
        b = commute_mc(p3_graph, 0, 2, walks=5000, seed=8)
        assert a.estimate != b.estimate

    def test_same_state_zero(self, p3_graph):
        est = commute_mc(p3_graph, 1, 1, walks=10, seed=0)
        assert est.estimate == 0.0

    def test_cap_accounting_and_warning(self, zoo_graphs):
        g = zoo_graphs["tworoom"]
        with pytest.warns(RuntimeWarning, match="cap"):
            est = commute_mc(g, 0, 8, walks=200, cap=40, seed=1)
        assert 0 < est.capped < 200
        assert est.walks == 200
        assert est.estimate > 0

    def test_json_report(self, p3_graph):
        est = commute_mc(p3_graph, 0, 2, walks=1000, seed=5)
        payload = est.as_dict()
        assert set(payload) >= {"estimate", "stderr", "walks", "capped", "seed"}
        assert payload["walks"] == 1000
        assert payload["seed"] == 5

    def test_validation(self, p3_graph):
        with pytest.raises(InputError):
            commute_mc(p3_graph, 0, 2, walks=0, seed=1)
        with pytest.raises(InputError):
            commute_mc(p3_graph, 0, 2, walks=10, cap=0, seed=1)

    def test_seed_outside_sixty_four_bits_refused(self, p3_graph):
        # the seed is not reduced mod 2^64: 2^64 is no alias of seed 0
        with pytest.raises(InputError,
                           match=r"seed must be in \[0, 2\^64\), got 18446744073709551616"):
            commute_mc(p3_graph, 0, 2, walks=10, seed=2 ** 64)
        with pytest.raises(InputError, match="got -1"):
            commute_mc(p3_graph, 0, 2, walks=10, seed=-1)
        assert commute_mc(p3_graph, 0, 2, walks=10, seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_disconnected(self):
        g = build_graph(parse_maze(DISCONNECTED))
        with pytest.raises(PreconditionError, match="components"):
            commute_mc(g, 0, 1, walks=10, seed=0)

    @pytest.mark.parametrize("name,pair,expected", [
        ("fourroom", ((1, 1), (11, 11)), (1855.126, 24.981353767961416)),
        ("biased", ((1, 1), (29, 5)), (4275.261, 64.25544014893889)),
    ])
    def test_recorded_estimates(self, name, pair, expected):
        # Exact values recorded when walks drew from a dense neighbor scan;
        # they pin the neighbor order (ascending state index) and the draws.
        maze = layouts.load_bundled(name)
        index = maze.state_index()
        est = commute_mc(build_graph(maze), *map(index.of, pair), walks=2000, seed=7)
        assert (est.estimate, est.stderr, est.capped) == (*expected, 0)


def reference_mc(g, s, s2, walks, cap, seed):
    """The per-walk step loop commute_mc replaced, kept as its oracle.

    Returns (estimate, stderr, capped).
    """
    u64, gamma = np.uint64, commute_module._GAMMA
    first, nbrs, deg = g.indptr, g.indices, g.degrees
    keys = commute_module._stream_keys(seed, walks)
    pos = np.full(walks, s, dtype=np.int64)
    phase = np.zeros(walks, dtype=bool)
    steps = np.zeros(walks, dtype=np.int64)
    totals = np.zeros(walks, dtype=np.int64)
    capped = np.zeros(walks, dtype=bool)
    active = np.arange(walks)
    with np.errstate(over="ignore"):
        while active.size:
            t = steps[active].astype(np.uint64)
            draw = commute_module._splitmix64(keys[active] + (t + u64(1)) * gamma)
            u = (draw >> u64(11)).astype(np.float64) * (2.0 ** -53)
            cur = pos[active]
            k = (u * deg[cur]).astype(np.int64)
            nxt = nbrs[first[cur] + k]
            pos[active] = nxt
            steps[active] += 1
            phase[active] |= nxt == s2
            done = phase[active] & (nxt == s)
            over = steps[active] >= cap
            finished = done | over
            if finished.any():
                fin = active[finished]
                totals[fin] = steps[fin]
                capped[fin] = over[finished] & ~done[finished]
                active = active[~finished]
    used = totals[~capped]
    stderr = float(used.std(ddof=1) / np.sqrt(used.size)) if used.size > 1 else 0.0
    return float(used.mean()), stderr, int(capped.sum())


class TestMonteCarloMatchesReferenceLoop:
    # each cap, set near the pair's commute time, caps some walks and not all
    @pytest.mark.parametrize("name,pair,cap", [
        ("tworoom", (0, 8), 60), ("tworoom", (3, 1), 40), ("fourroom", (0, 60), 1200),
        ("c4", (0, 2), 6), ("p3", (2, 0), 8),
    ])
    def test_identical_estimates(self, zoo_graphs, name, pair, cap):
        g = zoo_graphs[name]
        for seed in (0, 5, 2**40 + 3):
            for walk_cap in (cap, 10**6):
                want = reference_mc(g, *pair, walks=300, cap=walk_cap, seed=seed)
                assert (0 < want[2] < 300) == (walk_cap == cap)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    est = commute_mc(g, *pair, walks=300, cap=walk_cap, seed=seed)
                assert (est.estimate, est.stderr, est.capped) == want

    def test_walk_done_exactly_at_the_cap_is_not_capped(self, zoo_graphs):
        # on k2 every round trip takes exactly 2 steps
        est = commute_mc(zoo_graphs["k2"], 0, 1, walks=50, cap=2, seed=1)
        assert (est.estimate, est.capped) == (2.0, 0)
        with (pytest.warns(RuntimeWarning, match="cap"),
              pytest.raises(NumericalError, match="step cap")):
            commute_mc(zoo_graphs["k2"], 0, 1, walks=50, cap=1, seed=1)


class TestMetricProperty:
    def test_sqrt_commute_triangle_inequality(self, zoo_graphs):
        for name, g in zoo_graphs.items():
            if name == "fourroom":
                continue  # covered by the acceptance suite; keep unit tests fast
            root = np.sqrt(commute(g, method="solve").values)
            n = g.n_states
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert root[i, j] <= root[i, k] + root[k, j] + 1e-9, name
