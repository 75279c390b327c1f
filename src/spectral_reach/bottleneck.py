"""Bottleneck discovery from embedding distances.

A state's centrality is the inverse of its summed embedding distance to
all other states.  Under the reachability-aware embedding at full
dimension those distances are commute-time distances, so the
highest-centrality states sit where many shortest routes squeeze
through: doorways.  Selection takes the highest-centrality states;
``invert`` flips to the lowest for diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .spectral import Embedding, pairwise_sq_dists


@dataclass(frozen=True)
class CentralityReport:
    """Per-state centrality plus the selected bottleneck set."""

    cent: np.ndarray
    selected: tuple[int, ...]


def centrality(e: Embedding) -> np.ndarray:
    """cent(s) = 1 / sum over s' of dist(s, s') under the embedding.

    Warns when two states share identical coordinates (degenerate
    embedding: the summed distance understates their separation).
    """
    if e.n_states < 2:
        raise InvalidState("centrality needs at least two states")
    d = np.sqrt(pairwise_sq_dists(e))
    off_diag = d + np.diag(np.full(e.n_states, np.inf))
    if float(off_diag.min()) <= 0.0:
        i, j = np.unravel_index(int(np.argmin(off_diag)), d.shape)
        warnings.warn(
            f"states {i} and {j} have identical embedding coordinates; "
            "centrality is degenerate for them",
            RuntimeWarning,
            stacklevel=2,
        )
    return 1.0 / d.sum(axis=1)


def top_bottlenecks(cent: np.ndarray, fraction: float, invert: bool = False) -> tuple[int, ...]:
    """The ceil(fraction * n) states with the largest centrality.

    Ties break toward the lower state index.  ``invert`` selects the
    smallest-centrality states instead.  The result is sorted by state
    index.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    n = len(cent)
    k = math.ceil(fraction * n)
    value = -cent if not invert else cent
    order = np.lexsort((np.arange(n), value))
    return tuple(sorted(int(s) for s in order[:k]))


def make_report(e: Embedding, fraction: float, invert: bool = False) -> CentralityReport:
    cent = centrality(e)
    return CentralityReport(cent=cent, selected=top_bottlenecks(cent, fraction, invert))
