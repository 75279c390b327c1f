"""Exception taxonomy shared across the package.

Every error carries an ``exit_code`` so the command line tool can map
failures onto its documented exit statuses:

* 1 -- usage, configuration, or input-file problems
* 2 -- domain preconditions (disconnection, unreachable goals, ...)
* 3 -- numerical failures (non-convergence, singular systems, ...)
"""

from __future__ import annotations


class SpectralReachError(Exception):
    """Base class for all package errors."""

    exit_code = 1


# ---------------------------------------------------------------------------
# input / usage errors (exit code 1)
# ---------------------------------------------------------------------------

class MapError(SpectralReachError):
    """A map file or map string violates the grid format."""


class RaggedRows(MapError):
    """Rows of an ASCII map differ in length."""


class UnknownCharacter(MapError):
    """An ASCII map contains a character outside the map alphabet."""


class OpenBorder(MapError):
    """The outer border of a map contains a non-wall cell."""


class NoFloor(MapError):
    """A map (or a discretized continuous layout) has no floor cells."""


class InvalidState(SpectralReachError):
    """A state argument does not name a floor cell / graph node."""


class DimensionOutOfRange(SpectralReachError):
    """An embedding dimension lies outside [2, number of states]."""


class DimensionMismatch(SpectralReachError):
    """Two objects that must agree on state count or shape do not."""


class MissingEmbedding(SpectralReachError):
    """A reward kind requires an embedding but none was supplied."""


class EmptyDataset(SpectralReachError):
    """A transition dataset contains no transitions."""


class MalformedEmbedding(SpectralReachError):
    """An embedding CSV lacks its header or has a row that does not fit it."""


# ---------------------------------------------------------------------------
# domain preconditions (exit code 2)
# ---------------------------------------------------------------------------

class GraphDisconnected(SpectralReachError):
    """The state graph (or a dataset-induced graph) is not connected."""

    exit_code = 2


class NotSymmetric(SpectralReachError):
    """A matrix that must be symmetric is not (beyond tolerance)."""

    exit_code = 2


class NegativeEntry(SpectralReachError):
    """A squared-distance matrix contains a negative entry."""

    exit_code = 2


class UnreachableGoal(SpectralReachError):
    """Some floor cell cannot reach the goal cell."""

    exit_code = 2


class GoalIsWall(SpectralReachError):
    """The requested goal coordinate is not a floor cell."""

    exit_code = 2


class NoBiasCells(SpectralReachError):
    """A biased start distribution was requested on a map without bias tags."""

    exit_code = 2


# ---------------------------------------------------------------------------
# numerical failures (exit code 3)
# ---------------------------------------------------------------------------

class ConvergenceFailure(SpectralReachError):
    """An iterative numerical routine failed to converge."""

    exit_code = 3


class SingularSystem(SpectralReachError):
    """A linear system that should be regular was singular."""

    exit_code = 3


class DegenerateEigenvalue(SpectralReachError):
    """An eigenvalue needed for rescaling is too close to zero."""

    exit_code = 3


class DivergedObjective(SpectralReachError):
    """A training objective grew far beyond its initial value."""

    exit_code = 3
