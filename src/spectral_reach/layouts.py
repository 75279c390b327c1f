"""Bundled maps: every file under ``maps/`` is one named map.

A map's name is its file stem and its suffix gives its kind: ``.txt`` is
an ASCII maze, ``.json`` a continuous layout.  The verification zoo
covers the degenerate and hand-checkable cases: a single corridor pair
(k2, two cells), a three-cell path (p3), a 2x2 open block whose state
graph is a 4-cycle (c4), a small two-room layout with one doorway, and a
classic four-room layout with four doorways.
"""

from __future__ import annotations

from importlib import resources

from .envgrid import ContinuousMazeSpec, MazeSpec, parse_maze
from .errors import InputError

MAPS = resources.files("spectral_reach").joinpath("maps")

# Doorway coordinates of the bundled room layouts (layout metadata, used
# by the verification suites and tests).
DOORWAYS = {
    "tworoom": ((3, 2),),
    "fourroom": ((6, 3), (6, 9), (3, 6), (9, 6)),
}

ZOO_NAMES = ("k2", "p3", "c4", "tworoom", "fourroom")


def kind_of(filename: str) -> str:
    """Map kind by suffix: "continuous" for .json, else "ascii"."""
    return "continuous" if filename.endswith(".json") else "ascii"


def parse_map(text: str, kind: str) -> MazeSpec | ContinuousMazeSpec:
    """Parse map text of the given kind."""
    return ContinuousMazeSpec.from_json(text) if kind == "continuous" else parse_maze(text)


def bundled_files() -> dict:
    """Name -> file of every bundled map."""
    return {
        f.name.rpartition(".")[0]: f
        for f in MAPS.iterdir()
        if f.name.endswith((".txt", ".json"))
    }


def load_bundled(name: str) -> MazeSpec | ContinuousMazeSpec:
    """Parse a bundled map by name."""
    files = bundled_files()
    if name not in files:
        raise InputError(f"unknown bundled map {name!r}; available: {tuple(sorted(files))}")
    return parse_map(files[name].read_text(), kind_of(files[name].name))


#: the zoo layouts are bundled maps
zoo_maze = load_bundled
