"""ASCII grid mazes and discretization of continuous layouts.

Map alphabet: ``#`` wall, ``.`` floor, ``B`` floor tagged as a start-bias
cell, ``G`` floor tagged as a goal candidate.  The outer border must be
wall everywhere.  States are floor cells addressed as ``(x, y)`` with
``x`` the column and ``y`` the row, ``(0, 0)`` at the top left.  The
canonical state ordering is row-major (scan rows top to bottom, columns
left to right).

A continuous layout is an axis-aligned bounding box with rectangular
obstacles and a disk-shaped agent; ``discretize_continuous`` overlays a
uniform grid and keeps the cells whose centers give the agent disk full
clearance from every obstacle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, PreconditionError

WALL = "#"
FLOOR = "."
BIAS = "B"
GOAL = "G"
FLOOR_CHARS = frozenset({FLOOR, BIAS, GOAL})
ALPHABET = frozenset({WALL}) | FLOOR_CHARS

# Actions in canonical order.  "up" decreases y (towards the first row).
ACTIONS = ("up", "down", "left", "right")
DELTAS = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}

#: most grid cells ``discretize_continuous`` will visit
MAX_GRID_CELLS = 10**6


@dataclass(frozen=True)
class MazeSpec:
    """Validated ASCII maze.  Immutable after construction."""

    width: int
    height: int
    rows: tuple[str, ...]

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_floor(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and self.rows[y][x] in FLOOR_CHARS

    @cached_property
    def floor_cells(self) -> tuple[tuple[int, int], ...]:
        """All floor coordinates in row-major order."""
        return tuple(
            (x, y)
            for y in range(self.height)
            for x in range(self.width)
            if self.rows[y][x] in FLOOR_CHARS
        )

    @cached_property
    def bias_cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (x, y) for (x, y) in self.floor_cells if self.rows[y][x] == BIAS
        )

    @cached_property
    def goal_cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (x, y) for (x, y) in self.floor_cells if self.rows[y][x] == GOAL
        )

    def state_index(self) -> "StateIndex":
        return StateIndex(coords=self.floor_cells)

    def render_text(self) -> str:
        """Inverse of parse_maze: canonical ASCII form."""
        return "\n".join(self.rows)


@dataclass(frozen=True)
class StateIndex:
    """Row-major bijection between floor coordinates and 0-based indices."""

    coords: tuple[tuple[int, int], ...]

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], int]:
        return {c: i for i, c in enumerate(self.coords)}

    def __len__(self) -> int:
        return len(self.coords)

    def of(self, coord: tuple[int, int]) -> int:
        try:
            return self._lookup[tuple(coord)]
        except KeyError:
            raise InputError(f"{tuple(coord)} is not a floor cell") from None

    def coord(self, i: int) -> tuple[int, int]:
        if not 0 <= i < len(self.coords):
            raise InputError(f"state index {i} out of range [0, {len(self.coords)})")
        return self.coords[i]


def parse_maze(text: str) -> MazeSpec:
    """Parse an ASCII map into a validated MazeSpec.

    Raises InputError for ragged rows, an unknown character, an open
    border, or no floor, with the offending line/column in the message.
    A single trailing newline is tolerated so files round-trip.
    """
    if text.endswith("\n"):
        text = text[:-1]
    rows = text.split("\n")
    if not rows or rows[0] == "":
        raise InputError("map is empty")
    width = len(rows[0])
    for y, row in enumerate(rows):
        if len(row) != width:
            raise InputError(
                f"row {y} has length {len(row)}, expected {width} (like row 0)"
            )
        for x, ch in enumerate(row):
            if ch not in ALPHABET:
                raise InputError(
                    f"character {ch!r} at line {y}, column {x} "
                    f"(alphabet: '#', '.', 'B', 'G')"
                )
    height = len(rows)
    for x in range(width):
        for y in (0, height - 1):
            if rows[y][x] != WALL:
                raise InputError(f"border cell ({x}, {y}) is not a wall")
    for y in range(height):
        for x in (0, width - 1):
            if rows[y][x] != WALL:
                raise InputError(f"border cell ({x}, {y}) is not a wall")
    maze = MazeSpec(width=width, height=height, rows=tuple(rows))
    if not maze.floor_cells:
        raise InputError("map has no floor cells")
    return maze


def step(maze: MazeSpec, s: tuple[int, int], action: str) -> tuple[int, int]:
    """Deterministic move: the neighbor cell, or ``s`` itself on a wall bump."""
    x, y = s
    if not maze.is_floor(x, y):
        raise InputError(f"({x}, {y}) is not a floor cell")
    try:
        dx, dy = DELTAS[action]
    except KeyError:
        raise InputError(f"unknown action {action!r}, expected one of {ACTIONS}") from None
    nx, ny = x + dx, y + dy
    if maze.is_floor(nx, ny):
        return (nx, ny)
    return (x, y)


def transition_table(maze: MazeSpec) -> np.ndarray:
    """Next-state index per (state, action): shape (n, 4), ``ACTIONS`` order.

    The vectorized counterpart of ``step`` over the row-major state
    index; a wall bump maps a state to itself.
    """
    floor = np.array([[ch in FLOOR_CHARS for ch in row] for row in maze.rows])
    n = int(floor.sum())
    grid = np.full(floor.shape, -1, dtype=np.int64)
    grid[floor] = np.arange(n)
    grid = np.pad(grid, 1, constant_values=-1)    # moves never leave the grid
    y, x = np.nonzero(floor)
    dx, dy = np.array([DELTAS[a] for a in ACTIONS]).T
    nxt = grid[y[:, None] + dy + 1, x[:, None] + dx + 1]
    return np.where(nxt >= 0, nxt, np.arange(n)[:, None])


def goal_state(maze: MazeSpec, index: StateIndex, goal: tuple[int, int]) -> int:
    """Resolve a goal coordinate to a state index, rejecting wall cells."""
    x, y = goal
    if not maze.is_floor(x, y):
        raise PreconditionError(f"goal cell ({x}, {y}) is not a floor cell")
    return index.of((x, y))


# ---------------------------------------------------------------------------
# continuous layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WallRect:
    """Axis-aligned obstacle rectangle: corner (x, y), size (w, h)."""

    x: float
    y: float
    w: float
    h: float

    def clearance(self, px: float, py: float) -> float:
        """Euclidean distance from a point to this (closed) rectangle."""
        dx = max(self.x - px, 0.0, px - (self.x + self.w))
        dy = max(self.y - py, 0.0, py - (self.y + self.h))
        return math.hypot(dx, dy)

    def clears(self, px: float, py: float, need: float) -> bool:
        """Clearance >= need for a disk at (px, py): never from strictly inside."""
        inside = self.x < px < self.x + self.w and self.y < py < self.y + self.h
        return not inside and self.clearance(px, py) >= need


@dataclass(frozen=True)
class ContinuousMazeSpec:
    """Bounding box with rectangular obstacles and a disk-shaped agent."""

    width: float
    height: float
    radius: float
    walls: tuple[WallRect, ...]

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise InputError("bounding box must have positive size")
        if self.radius < 0:
            raise InputError("agent radius must be nonnegative")
        for r in self.walls:
            if r.w < 0 or r.h < 0:
                raise InputError(f"wall rectangle {r} has negative size")
            if r.x < 0 or r.y < 0 or r.x + r.w > self.width or r.y + r.h > self.height:
                raise InputError(f"wall rectangle {r} lies outside the bounding box")

    @classmethod
    def from_json(cls, text: str) -> "ContinuousMazeSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise InputError("a continuous layout must be a JSON object")
        try:
            walls = tuple(
                WallRect(float(r["x"]), float(r["y"]), float(r["w"]), float(r["h"]))
                for r in obj.get("walls", [])
            )
            width, height, radius = (float(obj[k]) for k in ("width", "height", "radius"))
        except KeyError as exc:
            raise InputError(f"continuous layout lacks the field {exc.args[0]!r}") from None
        except TypeError as exc:
            raise InputError(f"malformed continuous layout: {exc}") from None
        fields = {"width": width, "height": height, "radius": radius}
        for i, r in enumerate(walls):
            fields.update({f"walls[{i}].{k}": getattr(r, k) for k in "xywh"})
        for name, value in fields.items():
            if not math.isfinite(value):
                raise InputError(f"continuous layout field {name} is {value}, not a finite number")
        return cls(width=width, height=height, radius=radius, walls=walls)


def discretize_continuous(cm: ContinuousMazeSpec, resolution: int) -> MazeSpec:
    """Overlay a uniform grid of ``resolution`` cells per unit length.

    A grid cell becomes Floor iff its center lies strictly inside no wall
    rectangle and the agent disk centered there keeps clearance >= radius
    from every one (so a wall blocks its inner cells at radius 0); the grid
    is padded with a one-cell wall border.  Raises InputError when nothing
    survives (resolution too coarse or walls fill the space) or when the
    grid would have more than MAX_GRID_CELLS cells.
    """
    if resolution <= 0:
        raise InputError("resolution must be a positive integer")
    try:
        nx = int(round(cm.width * resolution))
        ny = int(round(cm.height * resolution))
    except OverflowError:              # a side longer than any float
        nx = ny = MAX_GRID_CELLS + 1
    if nx * ny > MAX_GRID_CELLS:
        raise InputError(
            f"a {cm.width:g} x {cm.height:g} layout at resolution {resolution} "
            f"needs more than {MAX_GRID_CELLS} grid cells"
        )
    if nx <= 0 or ny <= 0:
        raise InputError("bounding box smaller than one grid cell")
    cx = (np.arange(nx) + 0.5) / resolution
    cy = (np.arange(ny) + 0.5) / resolution
    # 1e-12 absorbs float noise when the disk exactly touches a wall.
    need = cm.radius - 1e-12
    clear = np.ones((ny, nx), dtype=bool)
    for r in cm.walls:
        # WallRect.clearance over the whole grid: dx per column, dy per row
        dx = np.maximum(np.maximum(r.x - cx, 0.0), cx - (r.x + r.w))
        dy = np.maximum(np.maximum(r.y - cy, 0.0), cy - (r.y + r.h))
        dist = np.hypot(dx, dy[:, None])
        inside = ((r.y < cy) & (cy < r.y + r.h))[:, None] & (r.x < cx) & (cx < r.x + r.w)
        keeps = (dist >= need) & ~inside
        # np.hypot and math.hypot may differ in the last ulp (under 1e-9 for
        # any distance in a capped grid): cells this close to the bound are
        # decided by the scalar rule itself.
        for j, i in zip(*np.nonzero(np.abs(dist - need) <= 1e-9)):
            keeps[j, i] = r.clears(float(cx[i]), float(cy[j]), need)
        clear &= keeps
    if not clear.any():
        raise InputError("no cell gives the agent disk clearance from all walls")
    grid = np.full((ny + 2, nx + 2), ord(WALL), dtype=np.uint8)
    grid[1:-1, 1:-1][clear] = ord(FLOOR)
    rows = tuple(row.tobytes().decode("ascii") for row in grid)
    return MazeSpec(width=nx + 2, height=ny + 2, rows=rows)
