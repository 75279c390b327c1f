"""First-passage and average commute times of the simple graph walk.

The walk moves to a uniformly random neighbor each step (transition
matrix P = D^-1 A; wall-bump self loops are not part of this chain).
m(j|i) is the expected number of steps from i until the first visit to
j, and the average commute time n(i, j) = m(j|i) + m(i|j).

Two exact routes compute n for every pair, independently of each other:
``solve`` takes n = V * R_eff from the inverse of the grounded Laplacian
(L without state 0's row and column), O(n^3); ``pseudo-inverse`` uses
n(i, j) = V (l+_ii + l+_jj - 2 l+_ij) from the eigenbasis.  Both give an
exactly symmetric matrix, which ``symmetric_csv`` streams in row blocks.
``first_passage``, dense LU on the n first-passage
systems in O(n^4), is the oracle both are checked against, and a seeded
Monte Carlo estimator cross-checks them all.

Monte Carlo random source: SplitMix64 (the 64-bit mixer of Java's
SplittableRandom).  Walk w's stream key is the w-th output of a
SplitMix64 sequence seeded with ``seed``; the walk's t-th draw is the
t-th output of a SplitMix64 sequence seeded with that key.  Every draw
is therefore a pure function of (seed, walk, step), so serial and
parallel execution produce bit-identical estimates.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

# Loaded lazily, so traced core functions are read through their module when
# called: a name bound at import would keep a wrapper the core held then.
from . import spectral
from .errors import InputError, NumericalError, PreconditionError
from .graph import PseudoInverse, StateGraph, pseudo_inverse, require_connected
from .spectral import CSV_BLOCK

#: default cap on a single sampled walk's total length
WALK_CAP = 10**6
#: warn when more than this fraction of walks hit the cap
CAPPED_WARN_FRACTION = 1e-3

COMMUTE_METHODS = ("solve", "pseudo-inverse")


@dataclass(frozen=True)
class FirstPassageMatrix:
    """values[i, j] = expected steps from state i to first reach state j."""

    values: np.ndarray


@dataclass(frozen=True)
class CommuteMatrix:
    """Symmetric average commute times."""

    values: np.ndarray


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo commute estimate for one state pair."""

    estimate: float
    stderr: float
    walks: int
    capped: int
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


def first_passage(g: StateGraph) -> FirstPassageMatrix:
    """Expected first-passage steps for every (start, target) pair.

    For target j, the vector m(j|.) over starts i != j solves
    (I - P_minus_j) m = 1 where P_minus_j drops row and column j.
    Solved densely per target with partial-pivoting LU.
    """
    require_connected(g)
    n = g.n_states
    if n == 1:
        return FirstPassageMatrix(values=np.zeros((1, 1)))
    p = (g.dense_laplacian() < 0) / g.degrees[:, None]
    m = np.zeros((n, n), dtype=np.float64)
    ones = np.ones(n - 1, dtype=np.float64)
    for j in range(n):
        keep = np.arange(n) != j
        try:
            m[keep, j] = np.linalg.solve(np.eye(n - 1) - p[np.ix_(keep, keep)], ones)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"first-passage system for target state {j} "
                                 f"is singular: {exc}") from exc
    return FirstPassageMatrix(values=m)


def commute(g: StateGraph, method: str = "solve") -> CommuteMatrix:
    """Average commute times n(i, j) = V R_eff(i, j) by one of the exact routes.

    Both read R_eff(i, j) = G_ii + G_jj - 2 G_ij off a symmetric G:
    ``solve`` the inverse of the grounded Laplacian, padded with a zero
    row and column for the ground state 0; ``pseudo-inverse`` L+.  Taking
    2 G_ij as G_ij + G_ji keeps n exactly symmetric.
    """
    if method not in COMMUTE_METHODS:
        raise InputError(f"unknown method {method!r}, expected one of {COMMUTE_METHODS}")
    require_connected(g)
    if method == "solve":
        gram = np.zeros((g.n_states, g.n_states))
        try:
            gram[1:, 1:] = np.linalg.inv(g.dense_laplacian()[1:, 1:])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"grounded Laplacian is singular: {exc}") from exc
    else:
        gram = pseudo_inverse(g, spectral.eig_sym(g.dense_laplacian())).matrix
    diag = np.diag(gram)
    values = g.volume * (diag[:, None] + diag[None, :] - (gram + gram.T))
    np.fill_diagonal(values, 0.0)
    return CommuteMatrix(values=values)


def symmetric_csv(values: np.ndarray) -> Iterator[bytes]:
    """CSV bytes of an exactly symmetric matrix, equal to ``np.savetxt``'s
    with ``fmt="%.17g"`` and ``delimiter=","``: one chunk per block of
    ``CSV_BLOCK`` rows, symmetry checked at the call."""
    from . import floattext

    if not np.array_equal(values, values.T):
        raise PreconditionError("matrix is not exactly symmetric")
    return floattext.csv_rows(values, None, CSV_BLOCK)


def effective_resistance(g: StateGraph, plus: PseudoInverse, s: int, s2: int) -> float:
    """R_eff(s, s') = (e_s - e_s')^T L+ (e_s - e_s')."""
    spectral.check_state(s, g.n_states)
    spectral.check_state(s2, g.n_states)
    if s == s2:
        return 0.0
    m = plus.matrix
    return float(m[s, s] + m[s2, s2] - 2.0 * m[s, s2])


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function, vectorized over uint64 arrays."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _stream_keys(seed: int, walks: int) -> np.ndarray:
    """Per-walk stream keys: outputs 1..walks of SplitMix64 seeded with seed."""
    base = _U64(seed)
    idx = (np.arange(1, walks + 1, dtype=np.uint64)) * _GAMMA
    with np.errstate(over="ignore"):
        return _splitmix64(base + idx)


def commute_mc(
    g: StateGraph,
    s: int,
    s2: int,
    walks: int,
    cap: int = WALK_CAP,
    seed: int = 0,
) -> McEstimate:
    """Estimate n(s, s') by sampling round trips s -> s' -> s.

    Each walk counts the total steps of one round trip.  Walks whose
    round trip would exceed ``cap`` steps are recorded as capped and
    excluded from the estimate; a bias warning fires when more than 0.1%
    of walks are capped.  The estimate and its standard error are exact
    functions of (graph, s, s', walks, cap, seed), the seed in [0, 2^64).
    """
    require_connected(g)
    spectral.check_state(s, g.n_states)
    spectral.check_state(s2, g.n_states)
    if not 0 <= seed < 2 ** 64:
        raise InputError(f"seed must be in [0, 2^64), got {seed}")
    if walks <= 0:
        raise InputError("walks must be positive")
    if cap <= 0:
        raise InputError("cap must be positive")
    if s == s2:
        return McEstimate(0.0, 0.0, walks, 0, seed)

    # row r of the CSR lists r's neighbors in ascending order
    first, nbrs, deg = g.indptr, g.indices, g.degrees
    keys = _stream_keys(seed, walks)

    # Every active walk has taken the same t steps; pos, keys and phase hold
    # the active walks only, and active maps them back to walk numbers.
    pos = np.full(walks, s, dtype=np.int64)
    phase = np.zeros(walks, dtype=bool)          # False: heading to s2, True: returning
    totals = np.zeros(walks, dtype=np.int64)
    capped = np.zeros(walks, dtype=bool)
    active, t = np.arange(walks), 0
    with np.errstate(over="ignore"):
        while active.size:
            t += 1
            draw = _splitmix64(keys + _U64(t) * _GAMMA)
            u = (draw >> _U64(11)).astype(np.float64) * (2.0 ** -53)
            pos = nbrs[first[pos] + (u * deg[pos]).astype(np.int64)]
            phase |= pos == s2
            done = phase & (pos == s)
            finished = done | (t == cap)         # a walk done at the cap is not capped
            if finished.any():
                totals[active[finished]] = t
                capped[active[finished & ~done]] = True
                keep = ~finished
                active, pos, keys, phase = active[keep], pos[keep], keys[keep], phase[keep]

    used = totals[~capped]
    n_capped = int(capped.sum())
    if n_capped and n_capped / walks > CAPPED_WARN_FRACTION:
        warnings.warn(
            f"{n_capped}/{walks} walks hit the {cap}-step cap; "
            "the estimate excludes them and is biased low",
            RuntimeWarning,
            stacklevel=2,
        )
    if used.size == 0:
        raise NumericalError(
            f"all {walks} walks hit the {cap}-step cap; no estimate available"
        )
    est = float(used.mean())
    if used.size > 1:
        stderr = float(used.std(ddof=1) / np.sqrt(used.size))
    else:
        stderr = 0.0
    return McEstimate(est, stderr, walks, n_capped, seed)
