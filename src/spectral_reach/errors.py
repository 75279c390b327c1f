"""Exception classes shared across the package: one per exit code.

Every error carries an ``exit_code`` so the command line tool can map
failures onto its documented exit statuses:

* 1 -- usage, configuration, or input-file problems (``InputError``)
* 2 -- domain preconditions: disconnection, unreachable goals, ...
  (``PreconditionError``)
* 3 -- numerical failures: non-convergence, singular systems, ...
  (``NumericalError``)

The message says which check failed; code raises a leaf, never the base.
"""

from __future__ import annotations


class SpectralReachError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(SpectralReachError):
    """A map, state, dimension, dataset or argument is malformed or out of range."""

    exit_code = 1


class PreconditionError(SpectralReachError):
    """Well-formed input violates a domain precondition: a disconnected graph,
    an asymmetric or negative matrix, an unreachable or walled goal, no bias cells."""

    exit_code = 2


class NumericalError(SpectralReachError):
    """A numerical routine failed: no convergence, a singular system, a
    degenerate eigenvalue, or a diverging objective."""

    exit_code = 3
