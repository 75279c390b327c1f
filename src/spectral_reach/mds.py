"""Classic (Torgerson) multidimensional scaling on squared distances.

Double centering B = -1/2 J D2 J with J = I - (1/n) 11^T turns a
squared-distance matrix into a Gram matrix; the embedding stacks the
positive-eigenvalue directions scaled by sqrt(eigenvalue).  Applied to
an average commute time matrix, B equals the graph volume times the
Laplacian pseudo-inverse, so the MDS embedding reproduces the rescaled
spectral embedding up to the constant factor sqrt(volume).  That
equivalence is asserted at the distance level only; coordinates may
differ by orthogonal maps and sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeEntry, NotSymmetric
from .spectral import SYMMETRY_TOL, Embedding, pairwise_sq_dists

#: eigenvalue cutoff = RELATIVE_CUTOFF * largest eigenvalue of B
RELATIVE_CUTOFF = 1e-9


@dataclass(frozen=True)
class MdsResult:
    """Embedding plus the spectral bookkeeping of one MDS run."""

    embedding: np.ndarray          # (n, k), k retained directions
    eigenvalues: np.ndarray        # (k,), descending positive eigenvalues of B
    indefinite: bool               # most-negative eigenvalue below -cutoff
    min_eigenvalue: float


def double_center(d2: np.ndarray) -> np.ndarray:
    """Gram matrix B = -1/2 J D2 J of a squared-distance matrix."""
    d2 = np.asarray(d2, dtype=np.float64)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {d2.shape}")
    skew = float(np.max(np.abs(d2 - d2.T))) if d2.size else 0.0
    if skew > SYMMETRY_TOL:
        raise NotSymmetric(f"max |D2 - D2^T| = {skew:.3e} exceeds {SYMMETRY_TOL}")
    if float(np.min(d2)) < 0.0:
        i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
        raise NegativeEntry(f"D2[{i}, {j}] = {d2[i, j]:.3e} is negative")
    diag = float(np.max(np.abs(np.diag(d2)))) if d2.size else 0.0
    if diag > SYMMETRY_TOL:
        raise NotSymmetric(
            f"a squared-dissimilarity matrix needs a zero diagonal; max |diag| = {diag:.3e}"
        )
    n = d2.shape[0]
    row_mean = d2.mean(axis=1, keepdims=True)
    col_mean = d2.mean(axis=0, keepdims=True)
    b = -0.5 * (d2 - row_mean - col_mean + d2.mean())
    return b


def classic_mds(d2: np.ndarray) -> MdsResult:
    """Torgerson scaling: eigendecompose B, keep directions above cutoff.

    The cutoff is 1e-9 times the largest eigenvalue of B.  An indefinite
    input (most-negative eigenvalue below -cutoff) is reported via a
    warning and the ``indefinite`` flag; the embedding is still returned
    on the positive part.
    """
    b = double_center(d2)
    lam, vec = np.linalg.eigh(b)
    lam = lam[::-1]
    vec = vec[:, ::-1]
    cutoff = RELATIVE_CUTOFF * max(float(lam[0]), 0.0)
    keep = lam > cutoff
    min_eig = float(lam[-1])
    indefinite = min_eig < -cutoff
    if indefinite:
        warnings.warn(
            f"squared distances are not Euclidean: most negative eigenvalue "
            f"{min_eig:.3e} is below -{cutoff:.3e}; embedding uses the positive part",
            RuntimeWarning,
            stacklevel=2,
        )
    x = vec[:, keep] * np.sqrt(lam[keep])
    return MdsResult(
        embedding=x,
        eigenvalues=lam[keep],
        indefinite=indefinite,
        min_eigenvalue=min_eig,
    )


def equivalence_residual(x: MdsResult, phi: Embedding, volume: int) -> float:
    """Max distance disagreement between MDS and the rescaled embedding.

    Compares pairwise distances of the MDS embedding of a commute matrix
    against sqrt(volume) times the rescaled spectral embedding's
    distances; both sides arrive through independent code paths.
    """
    if x.embedding.shape[0] != phi.n_states:
        raise DimensionMismatch(
            f"MDS embedding has {x.embedding.shape[0]} states, "
            f"spectral embedding has {phi.n_states}"
        )
    xe = x.embedding
    sq = np.sum(xe * xe, axis=1)
    mds_d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (xe @ xe.T), 0.0)
    phi_d2 = pairwise_sq_dists(phi)
    return float(np.max(np.abs(np.sqrt(mds_d2) - np.sqrt(volume * phi_d2))))
