"""Grid parsing, movement, and continuous-layout discretization."""

import json
import math
import re

import numpy as np
import pytest

from spectral_reach import layouts
from spectral_reach.envgrid import (
    ACTIONS,
    MAX_GRID_CELLS,
    ContinuousMazeSpec,
    MazeSpec,
    WallRect,
    discretize_continuous,
    goal_state,
    parse_maze,
    step,
    transition_table,
)
from spectral_reach.errors import InputError, PreconditionError

TWOROOM = "#######\n#..#..#\n#.....#\n#######"


class TestParse:
    def test_round_trip(self):
        maze = parse_maze(TWOROOM)
        assert maze.render_text() == TWOROOM

    def test_trailing_newline_tolerated(self):
        assert parse_maze(TWOROOM + "\n").render_text() == TWOROOM

    def test_dimensions_and_states(self):
        maze = parse_maze(TWOROOM)
        assert (maze.width, maze.height) == (7, 4)
        assert len(maze.floor_cells) == 9

    def test_row_major_ordering(self):
        maze = parse_maze(TWOROOM)
        cells = maze.floor_cells
        assert cells[0] == (1, 1)
        assert cells == tuple(sorted(cells, key=lambda c: (c[1], c[0])))

    def test_ragged_rows(self):
        with pytest.raises(InputError, match="row 2"):
            parse_maze("####\n#..#\n#..##\n####")

    def test_unknown_character(self):
        with pytest.raises(InputError, match="line 1, column 2"):
            parse_maze("####\n#.X#\n####")

    def test_open_border(self):
        with pytest.raises(InputError, match="border cell"):
            parse_maze("####\n...#\n####")

    def test_no_floor(self):
        with pytest.raises(InputError, match="no floor cells"):
            parse_maze("###\n###\n###")

    def test_empty_text(self):
        with pytest.raises(InputError, match="map is empty"):
            parse_maze("")

    def test_tagged_cells_are_floor(self):
        maze = parse_maze("#####\n#BG.#\n#####")
        assert maze.bias_cells == ((1, 1),)
        assert maze.goal_cells == ((2, 1),)
        assert len(maze.floor_cells) == 3


class TestStateIndex:
    def test_bijection(self):
        maze = parse_maze(TWOROOM)
        index = maze.state_index()
        for i, coord in enumerate(maze.floor_cells):
            assert index.of(coord) == i
            assert index.coord(i) == coord

    def test_wall_rejected(self):
        index = parse_maze(TWOROOM).state_index()
        with pytest.raises(InputError, match="not a floor cell"):
            index.of((0, 0))

    def test_out_of_range(self):
        index = parse_maze(TWOROOM).state_index()
        with pytest.raises(InputError, match="out of range"):
            index.coord(9)


class TestStep:
    def test_up_decreases_y(self):
        maze = parse_maze(TWOROOM)
        assert step(maze, (1, 2), "up") == (1, 1)

    def test_all_deltas(self):
        maze = parse_maze("#####\n#...#\n#...#\n#####")
        assert step(maze, (2, 1), "down") == (2, 2)
        assert step(maze, (2, 1), "left") == (1, 1)
        assert step(maze, (2, 1), "right") == (3, 1)

    def test_wall_bump_stays(self):
        maze = parse_maze(TWOROOM)
        assert step(maze, (1, 1), "up") == (1, 1)
        assert step(maze, (1, 1), "left") == (1, 1)

    def test_interior_wall_bump(self):
        maze = parse_maze(TWOROOM)
        # (3, 1) is the interior wall between the two rooms.
        assert step(maze, (2, 1), "right") == (2, 1)

    def test_unknown_action(self):
        maze = parse_maze(TWOROOM)
        with pytest.raises(InputError, match="unknown action"):
            step(maze, (1, 1), "north")

    def test_non_floor_start(self):
        maze = parse_maze(TWOROOM)
        with pytest.raises(InputError, match="not a floor cell"):
            step(maze, (0, 0), "up")

    def test_action_order(self):
        assert ACTIONS == ("up", "down", "left", "right")


def _zoo_and_bundled():
    """The zoo, then every bundled map but k2, p3 and c4; the order fixes the ids."""
    names = [f"zoo:{name}" for name in layouts.ZOO_NAMES] + [
        "tworoom", "fourroom", "biased", "discrete_a", "discrete_b",
        "continuous_a", "continuous_b"]
    for name in names:
        maze = layouts.load_bundled(name.removeprefix("zoo:"))
        if isinstance(maze, ContinuousMazeSpec):
            maze = discretize_continuous(maze, 1)
        yield name, maze


class TestTransitionTable:
    @pytest.mark.parametrize("name,maze", list(_zoo_and_bundled()))
    def test_matches_scalar_step(self, name, maze):
        index = maze.state_index()
        table = transition_table(maze)
        assert table.shape == (len(index), len(ACTIONS))
        assert table.dtype == np.int64
        for i, coord in enumerate(index.coords):
            for a, action in enumerate(ACTIONS):
                assert table[i, a] == index.of(step(maze, coord, action)), (coord, action)


class TestGoal:
    def test_goal_resolution(self):
        maze = parse_maze(TWOROOM)
        index = maze.state_index()
        assert goal_state(maze, index, (1, 1)) == 0

    def test_wall_goal_rejected(self):
        maze = parse_maze(TWOROOM)
        with pytest.raises(PreconditionError, match="goal cell"):
            goal_state(maze, maze.state_index(), (3, 1))


class TestContinuous:
    def test_clearance_oracle(self):
        # Independent check: distance from a point to a rectangle equals
        # the minimum over a dense sample of the rectangle's boundary
        # and interior.
        rect = WallRect(2.0, 3.0, 4.0, 1.5)
        for (px, py) in [(0.0, 0.0), (3.0, 3.5), (7.0, 5.0), (2.0, 2.0), (6.5, 4.9)]:
            best = math.inf
            steps = 60
            for i in range(steps + 1):
                for j in range(steps + 1):
                    qx = rect.x + rect.w * i / steps
                    qy = rect.y + rect.h * j / steps
                    best = min(best, math.hypot(px - qx, py - qy))
            assert rect.clearance(px, py) == pytest.approx(best, abs=1e-2)

    def test_discretization_matches_pointwise_oracle(self):
        cm = ContinuousMazeSpec.from_json(layouts.bundled_files()["continuous_a"].read_text())
        res = 1
        maze = discretize_continuous(cm, res)
        nx = int(round(cm.width * res))
        ny = int(round(cm.height * res))
        assert (maze.width, maze.height) == (nx + 2, ny + 2)
        for j in range(ny):
            for i in range(nx):
                cx, cy = (i + 0.5) / res, (j + 0.5) / res
                clear = all(r.clearance(cx, cy) >= cm.radius - 1e-12 for r in cm.walls)
                assert maze.is_floor(i + 1, j + 1) == clear

    def test_border_is_wall(self):
        cm = ContinuousMazeSpec(width=3, height=3, radius=0.2, walls=())
        maze = discretize_continuous(cm, 2)
        assert set(maze.rows[0]) == {"#"}
        assert set(maze.rows[-1]) == {"#"}
        assert all(row[0] == "#" and row[-1] == "#" for row in maze.rows)

    def test_open_box_fully_floor(self):
        cm = ContinuousMazeSpec(width=2, height=2, radius=0.1, walls=())
        maze = discretize_continuous(cm, 2)
        assert len(maze.floor_cells) == 16

    def test_blocked_box_raises(self):
        cm = ContinuousMazeSpec(
            width=2, height=2, radius=0.1, walls=(WallRect(0, 0, 2, 2),)
        )
        with pytest.raises(InputError, match="clearance"):
            discretize_continuous(cm, 2)

    def test_exact_touch_is_floor(self):
        # Disk exactly touching a wall still fits: clearance == radius.
        cm = ContinuousMazeSpec(width=2, height=1, radius=0.5, walls=(WallRect(1, 0, 1, 1),))
        maze = discretize_continuous(cm, 1)
        assert maze.is_floor(1, 1)
        assert not maze.is_floor(2, 1)

    def test_invalid_geometry(self):
        with pytest.raises(InputError):
            ContinuousMazeSpec(width=-1, height=2, radius=0.1, walls=())
        with pytest.raises(InputError):
            ContinuousMazeSpec(width=2, height=2, radius=-0.1, walls=())
        with pytest.raises(InputError):
            ContinuousMazeSpec(width=2, height=2, radius=0.1, walls=(WallRect(1, 1, 5, 1),))

    def test_resolution_validation(self):
        cm = ContinuousMazeSpec(width=2, height=2, radius=0.1, walls=())
        with pytest.raises(InputError):
            discretize_continuous(cm, 0)

    def test_from_json_round_trip(self):
        payload = {"width": 4.0, "height": 3.0, "radius": 0.25,
                   "walls": [{"x": 1, "y": 0, "w": 0.5, "h": 2}]}
        cm = ContinuousMazeSpec.from_json(json.dumps(payload))
        assert cm.width == 4.0
        assert cm.walls[0].h == 2.0


def _scalar_discretize(cm: ContinuousMazeSpec, resolution: int) -> MazeSpec:
    """The per-cell loop ``discretize_continuous`` replaced, kept as its oracle."""
    nx = int(round(cm.width * resolution))
    ny = int(round(cm.height * resolution))
    assert 0 < nx * ny <= MAX_GRID_CELLS
    rows = ["#" * (nx + 2)]
    found_floor = False
    for j in range(ny):
        cy = (j + 0.5) / resolution
        row = ["#"]
        for i in range(nx):
            cx = (i + 0.5) / resolution
            # a center strictly inside a wall is blocked at any radius, 0 included
            clear = all(r.clearance(cx, cy) >= cm.radius - 1e-12
                        and not (r.x < cx < r.x + r.w and r.y < cy < r.y + r.h)
                        for r in cm.walls)
            row.append("." if clear else "#")
            found_floor = found_floor or clear
        row.append("#")
        rows.append("".join(row))
    rows.append("#" * (nx + 2))
    if not found_floor:
        raise InputError("no cell gives the agent disk clearance from all walls")
    return MazeSpec(width=nx + 2, height=ny + 2, rows=tuple(rows))


def _same_as_oracle(cm: ContinuousMazeSpec, resolution: int) -> bool:
    """Whether both discretizations give the same maze, or both raise InputError."""
    try:
        expected = _scalar_discretize(cm, resolution)
    except InputError as exc:
        with pytest.raises(InputError, match=re.escape(str(exc))):
            discretize_continuous(cm, resolution)
        return True
    return discretize_continuous(cm, resolution) == expected


def _rooms_layout(rng, rooms: int, size: int, door: int) -> ContinuousMazeSpec:
    """rooms x rooms rooms of size x size units, one door gap per partition segment."""
    width = rooms * size + rooms - 1
    walls = []
    for k in range(1, rooms):
        at = k * (size + 1) - 1
        for j in range(rooms):
            lo = j * (size + 1)
            start, end = (lo - 1 if j else lo), (lo + size + 1 if j < rooms - 1 else lo + size)
            for vertical in (True, False):
                gap = lo + 1 + int(rng.integers(size - door - 1))
                for a, b in ((start, gap), (gap + door, end)):
                    walls.append(WallRect(at, a, 1, b - a) if vertical else WallRect(a, at, b - a, 1))
    return ContinuousMazeSpec(width=width, height=width, radius=0.5, walls=tuple(walls))


def _touching_layout(rng) -> ContinuousMazeSpec:
    """Walls on the half-cell lattice of resolution 1, 2 or 4, so disks touch walls exactly.

    Walls may have zero width or height and lie on the box edge; radii
    include 0 and the exact distances to lattice corners.
    """
    half = 2 ** int(rng.integers(1, 4))               # lattice steps per unit
    width = int(rng.integers(1, 7 * half)) / half
    height = int(rng.integers(1, 7 * half)) / half
    walls = []
    for _ in range(int(rng.integers(0, 6))):
        x = int(rng.integers(0, round(width * half) + 1)) / half
        y = int(rng.integers(0, round(height * half) + 1)) / half
        w = int(rng.integers(0, round((width - x) * half) + 1)) / half
        h = int(rng.integers(0, round((height - y) * half) + 1)) / half
        walls.append(WallRect(x, y, w, h))
    a, b = (int(v) / half for v in rng.integers(0, 4, size=2))
    radius = float(rng.choice([0.0, 0.25, 0.5, 1.0, math.hypot(a, b), rng.random()]))
    return ContinuousMazeSpec(width=width, height=height, radius=radius, walls=tuple(walls))


class TestDiscretizationOracle:
    @pytest.mark.parametrize("name", ["continuous_a", "continuous_b"])
    @pytest.mark.parametrize("resolution", range(1, 9))
    def test_bundled_layouts(self, name, resolution):
        assert _same_as_oracle(layouts.load_bundled(name), resolution)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_rooms_layouts(self, seed):
        rng = np.random.default_rng(seed)
        cm = _rooms_layout(rng, rooms=int(rng.integers(2, 4)), size=int(rng.integers(5, 11)),
                           door=2)
        for resolution in (1, 2, 3):
            assert _same_as_oracle(cm, resolution)

    def test_random_touching_layouts(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            cm = _touching_layout(rng)
            for resolution in (1, 2, 4):
                if round(cm.width * resolution) and round(cm.height * resolution):
                    assert _same_as_oracle(cm, resolution), cm

    @pytest.mark.parametrize("width,height", [(5.0, 1.0), (1.0, 5.0), (1.0, 1.0)])
    def test_one_row_and_one_column_boxes(self, width, height):
        splits = (WallRect(width / 2, 0.0, 0.0, height), WallRect(0.0, height / 2, width, 0.0))
        for walls in ((), splits[:1], splits[1:], (WallRect(0.0, 0.0, 0.5, 0.5),)):
            for radius in (0.0, 0.5, 0.6):
                cm = ContinuousMazeSpec(width=width, height=height, radius=radius, walls=walls)
                assert _same_as_oracle(cm, 1)

    def test_no_floor_still_raised(self):
        cm = ContinuousMazeSpec(width=3, height=2, radius=0.1, walls=(WallRect(0, 0, 3, 2),))
        with pytest.raises(InputError, match="clearance"):
            _scalar_discretize(cm, 3)
        assert _same_as_oracle(cm, 3)

    def test_wall_filling_the_box_leaves_no_floor_at_radius_zero(self):
        cm = ContinuousMazeSpec(width=3, height=2, radius=0.0, walls=(WallRect(0, 0, 3, 2),))
        for resolution in (1, 2, 3):
            with pytest.raises(InputError, match="clearance"):
                discretize_continuous(cm, resolution)
            assert _same_as_oracle(cm, resolution)

    def test_cells_inside_a_wall_are_blocked_at_radius_zero(self):
        # centers 1.5 and 2.5 lie inside the first wall; 3.5 and 4.5 lie on
        # the second wall's edges, so their cells stay floor
        walls = (WallRect(1, 0, 2, 1), WallRect(3.5, 0, 1, 1))
        cm = ContinuousMazeSpec(width=5, height=1, radius=0.0, walls=walls)
        maze = discretize_continuous(cm, 1)
        assert maze.rows[1] == "#.##..#"
        assert _same_as_oracle(cm, 1)

    def test_grid_cap_still_refused(self):
        cm = ContinuousMazeSpec(width=1001, height=1000, radius=0.0, walls=())
        with pytest.raises(InputError, match="more than"):
            discretize_continuous(cm, 1)

    def test_last_ulp_hypot_difference_decided_by_scalar_rule(self):
        # A wall corner whose distance from the first cell center differs
        # in the last ulp between math.hypot and np.hypot, with the radius
        # set so that the two disagree on whether the disk fits.
        cases = []
        for a in range(4, 60):
            for b in range(6, 60):
                dx, dy = a / 7 - 0.5, b / 11 - 0.5
                if math.hypot(dx, dy) != np.hypot(dx, dy):
                    cases.append((a / 7, b / 11, max(math.hypot(dx, dy), np.hypot(dx, dy))))
        assert cases
        for x, y, need in cases:
            radius = need + 1e-12
            while radius - 1e-12 != need:
                radius = math.nextafter(radius, math.inf if radius - 1e-12 < need else 0.0)
            side = 2 * math.ceil(max(x, y) + radius + 1)    # floor beyond the wall
            cm = ContinuousMazeSpec(width=side, height=side, radius=radius,
                                    walls=(WallRect(x, y, 0.5, 0.5),))
            maze = discretize_continuous(cm, 1)
            assert maze.is_floor(1, 1) == (cm.walls[0].clearance(0.5, 0.5) >= radius - 1e-12)
            assert maze == _scalar_discretize(cm, 1)


def _bundled(kind):
    return sorted(n for n, f in layouts.bundled_files().items() if layouts.kind_of(f.name) == kind)


class TestBundledMaps:
    @pytest.mark.parametrize("name", _bundled("ascii"))
    def test_bundled_parse(self, name):
        maze = layouts.load_bundled(name)
        assert len(maze.floor_cells) > 0

    @pytest.mark.parametrize("name", _bundled("continuous"))
    def test_bundled_continuous(self, name):
        cm = layouts.load_bundled(name)
        maze = discretize_continuous(cm, 1)
        assert len(maze.floor_cells) > 0

    @pytest.mark.parametrize("name,text", [
        ("k2", "####\n#..#\n####"),
        ("p3", "#####\n#...#\n#####"),
        ("c4", "####\n#..#\n#..#\n####"),
    ])
    def test_tiny_zoo_files_hold_exact_bytes(self, name, text):
        # No trailing newline: a manifest digests a bundled map's text.
        assert layouts.bundled_files()[name].read_text() == text

    def test_zoo_and_doorway_maps_are_bundled_files(self):
        assert set(layouts.ZOO_NAMES) | set(layouts.DOORWAYS) <= set(layouts.bundled_files())

    def test_unknown_name_lists_the_bundled_maps(self):
        with pytest.raises(InputError, match="'k2'"):
            layouts.load_bundled("no_such_map")

    def test_fourroom_has_four_goals(self):
        maze = layouts.load_bundled("fourroom")
        assert len(maze.goal_cells) == 4

    def test_biased_has_bias_room_and_goals(self):
        maze = layouts.load_bundled("biased")
        assert len(maze.bias_cells) == 12
        assert len(maze.goal_cells) == 2
