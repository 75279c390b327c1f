"""Bundled map layouts and the small graph zoo used for verification.

The zoo covers the degenerate and hand-checkable cases: a single corridor
pair (two cells), a three-cell path, a 2x2 open block whose state graph
is a 4-cycle, a small two-room layout with one doorway, and a classic
four-room layout with four doorways.
"""

from __future__ import annotations

from importlib import resources

from .envgrid import ContinuousMazeSpec, MazeSpec, parse_maze

# Inline zoo maps.  K2: path with 2 cells; P3: path with 3 cells;
# C4: 2x2 open block (the state graph is the 4-cycle).  The zoo's two-
# and four-room layouts are the bundled maps of the same names.
K2 = "####\n#..#\n####"
P3 = "#####\n#...#\n#####"
C4 = "####\n#..#\n#..#\n####"

BUNDLED = (
    "tworoom",
    "fourroom",
    "biased",
    "discrete_a",
    "discrete_b",
)
BUNDLED_CONTINUOUS = ("continuous_a", "continuous_b")

# Doorway coordinates of the bundled room layouts (layout metadata, used
# by the verification suites and tests).
DOORWAYS = {
    "tworoom": ((3, 2),),
    "fourroom": ((6, 3), (6, 9), (3, 6), (9, 6)),
}

ZOO = {
    "k2": K2,
    "p3": P3,
    "c4": C4,
}

ZOO_NAMES = ("k2", "p3", "c4", "tworoom", "fourroom")


def bundled_text(name: str) -> str:
    """Raw text of a bundled map file."""
    if name in BUNDLED:
        fname = f"{name}.txt"
    elif name in BUNDLED_CONTINUOUS:
        fname = f"{name}.json"
    else:
        raise KeyError(f"unknown bundled map {name!r}; available: "
                       f"{BUNDLED + BUNDLED_CONTINUOUS}")
    return resources.files("spectral_reach").joinpath("maps", fname).read_text()


def load_bundled(name: str) -> MazeSpec | ContinuousMazeSpec:
    """Parse a bundled map by name."""
    text = bundled_text(name)
    if name in BUNDLED_CONTINUOUS:
        return ContinuousMazeSpec.from_json(text)
    return parse_maze(text)


def zoo_maze(name: str) -> MazeSpec:
    """One of the zoo layouts (k2, p3, c4, tworoom, fourroom) as a maze."""
    if name in BUNDLED:
        return load_bundled(name)  # type: ignore[return-value]
    return parse_maze(ZOO[name])
