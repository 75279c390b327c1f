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

from .errors import InputError
from .spectral import ROW_BLOCK, Embedding, sq_dists_rows


@dataclass(frozen=True)
class CentralityReport:
    """Per-state centrality plus the selected bottleneck set."""

    cent: np.ndarray
    selected: tuple[int, ...]


def centrality(e: Embedding) -> np.ndarray:
    """cent(s) = 1 / sum over s' of dist(s, s') under the embedding.

    Distances are summed ROW_BLOCK rows at a time, in O(n * ROW_BLOCK)
    memory.  Warns when two states share identical coordinates
    (degenerate embedding: the summed distance understates their
    separation), naming the first such pair in row-major order.
    """
    if e.n_states < 2:
        raise InputError("centrality needs at least two states")
    x = e.vectors
    sq = np.sum(x * x, axis=1)
    sums = np.empty(e.n_states)
    pair = None
    for lo in range(0, e.n_states, ROW_BLOCK):
        d = sq_dists_rows(x, sq, lo, min(lo + ROW_BLOCK, e.n_states))
        np.sqrt(d, out=d)
        if pair is None:
            hits = np.argwhere(d == 0.0)
            hits = hits[hits[:, 1] != hits[:, 0] + lo]
            if len(hits):
                pair = (lo + int(hits[0, 0]), int(hits[0, 1]))
        sums[lo:lo + len(d)] = d.sum(axis=1)
        del d                      # free this block before the next one is built
    if pair is not None:
        warnings.warn(
            f"states {pair[0]} and {pair[1]} have identical embedding coordinates; "
            "centrality is degenerate for them",
            RuntimeWarning,
            stacklevel=2,
        )
    return 1.0 / sums


def top_bottlenecks(cent: np.ndarray, fraction: float, invert: bool = False) -> tuple[int, ...]:
    """The ceil(fraction * n) states with the largest centrality.

    Ties break toward the lower state index.  ``invert`` selects the
    smallest-centrality states instead.  The result is sorted by state
    index.
    """
    if not 0.0 < fraction <= 1.0:
        raise InputError(f"fraction must lie in (0, 1], got {fraction}")
    n = len(cent)
    k = math.ceil(fraction * n)
    value = -cent if not invert else cent
    order = np.lexsort((np.arange(n), value))
    return tuple(sorted(int(s) for s in order[:k]))


def make_report(e: Embedding, fraction: float, invert: bool = False) -> CentralityReport:
    cent = centrality(e)
    return CentralityReport(cent=cent, selected=top_bottlenecks(cent, fraction, invert))
