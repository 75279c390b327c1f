"""First-passage and average commute times of the simple graph walk.

The walk moves to a uniformly random neighbor each step (transition
matrix P = D^-1 A; wall-bump self loops are not part of this chain).
m(j|i) is the expected number of steps from i until the first visit to
j, and the average commute time n(i, j) = m(j|i) + m(i|j).

Two exact routes compute n for every pair, independently of each other:
``solve`` takes n = V * R_eff from one Cholesky factorization of the
grounded Laplacian (L without the row and column of state 0), O(n^3);
``pseudo-inverse`` uses n(i, j) = V (l+_ii + l+_jj - 2 l+_ij) from the
eigenbasis.  ``first_passage`` solves the n first-passage systems with
dense LU, O(n^4); it is the oracle both routes are checked against.  A
seeded Monte Carlo estimator cross-checks them all.

Monte Carlo random source: SplitMix64 (the 64-bit mixer of Java's
SplittableRandom).  Walk w's stream key is the w-th output of a
SplitMix64 sequence seeded with ``seed``; the walk's t-th draw is the
t-th output of a SplitMix64 sequence seeded with that key.  Every draw
is therefore a pure function of (seed, walk, step), so serial and
parallel execution produce bit-identical estimates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Loaded lazily, so traced core functions are read through their module when
# called: a name bound at import would keep a wrapper the core held then.
from . import spectral
from .errors import InvalidState, SingularSystem
from .graph import PseudoInverse, StateGraph, pseudo_inverse, require_connected

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
    """Symmetric average commute times with the method that produced them."""

    values: np.ndarray
    method: str


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo commute estimate for one state pair."""

    estimate: float
    stderr: float
    walks: int
    capped: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "walks": self.walks,
            "capped": self.capped,
            "seed": self.seed,
        }


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
    p = g.adjacency.toarray() / g.degrees[:, None]
    m = np.zeros((n, n), dtype=np.float64)
    ones = np.ones(n - 1, dtype=np.float64)
    for j in range(n):
        keep = np.arange(n) != j
        system = np.eye(n - 1) - p[np.ix_(keep, keep)]
        try:
            sol = np.linalg.solve(system, ones)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                f"first-passage system for target state {j} is singular: {exc}"
            ) from exc
        m[keep, j] = sol
    return FirstPassageMatrix(values=m)


def commute(g: StateGraph, method: str = "solve") -> CommuteMatrix:
    """Average commute times n(i, j) by one of the exact routes."""
    if method == "solve":
        # G = L0^-1 padded with a zero row and column for the ground state 0;
        # R_eff(i, j) = G_ii + G_jj - 2 G_ij, with G_ij + G_ji keeping it symmetric
        from scipy.linalg import cho_factor, cho_solve

        require_connected(g)
        n = g.n_states
        try:
            factor = cho_factor(g.laplacian[1:, 1:].toarray())
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"grounded Laplacian is singular: {exc}") from exc
        grounded = np.zeros((n, n), dtype=np.float64)
        grounded[1:, 1:] = cho_solve(factor, np.eye(n - 1))
        diag = np.diag(grounded)
        values = g.volume * (diag[:, None] + diag[None, :] - (grounded + grounded.T))
        np.fill_diagonal(values, 0.0)
    elif method == "pseudo-inverse":
        require_connected(g)
        plus = pseudo_inverse(g, spectral.eig_sym(g.dense_laplacian())).matrix
        diag = np.diag(plus)
        values = g.volume * (diag[:, None] + diag[None, :] - 2.0 * plus)
        np.fill_diagonal(values, 0.0)
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {COMMUTE_METHODS}")
    return CommuteMatrix(values=values, method=method)


def effective_resistance(g: StateGraph, plus: PseudoInverse, s: int, s2: int) -> float:
    """R_eff(s, s') = (e_s - e_s')^T L+ (e_s - e_s')."""
    g.check_state(s)
    g.check_state(s2)
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
    base = _U64(seed & 0xFFFFFFFFFFFFFFFF)
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
    functions of (graph, s, s', walks, cap, seed).
    """
    require_connected(g)
    g.check_state(s)
    g.check_state(s2)
    if walks <= 0:
        raise ValueError("walks must be positive")
    if cap <= 0:
        raise ValueError("cap must be positive")
    if s == s2:
        return McEstimate(0.0, 0.0, walks, 0, seed)

    # row r of the CSR lists r's neighbors in ascending order
    first, nbrs, deg = g.indptr, g.indices, g.degrees
    keys = _stream_keys(seed, walks)

    pos = np.full(walks, s, dtype=np.int64)
    phase = np.zeros(walks, dtype=bool)          # False: heading to s2, True: returning
    steps = np.zeros(walks, dtype=np.int64)
    totals = np.zeros(walks, dtype=np.int64)
    capped = np.zeros(walks, dtype=bool)
    active = np.arange(walks)

    with np.errstate(over="ignore"):
        while active.size:
            t = steps[active].astype(np.uint64)
            draw = _splitmix64(keys[active] + (t + _U64(1)) * _GAMMA)
            u = (draw >> _U64(11)).astype(np.float64) * (2.0 ** -53)
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
    n_capped = int(capped.sum())
    if n_capped and n_capped / walks > CAPPED_WARN_FRACTION:
        warnings.warn(
            f"{n_capped}/{walks} walks hit the {cap}-step cap; "
            "the estimate excludes them and is biased low",
            RuntimeWarning,
            stacklevel=2,
        )
    if used.size == 0:
        raise SingularSystem(
            f"all {walks} walks hit the {cap}-step cap; no estimate available"
        )
    est = float(used.mean())
    if used.size > 1:
        stderr = float(used.std(ddof=1) / np.sqrt(used.size))
    else:
        stderr = 0.0
    return McEstimate(est, stderr, walks, n_capped, seed)
