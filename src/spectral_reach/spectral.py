"""Eigendecomposition of graph Laplacians and spectral state embeddings.

Two embeddings are built from the smallest Laplacian eigenvectors.  The
plain one stacks raw eigenvector entries per state; the
reachability-aware one divides each eigenvector by the square root of
its eigenvalue.  With all dimensions kept, squared distances in the
rescaled embedding times the graph volume equal average commute times,
so truncating it preserves the long-range reachability structure that
the unscaled embedding distorts.

The constant eigenvector (eigenvalue zero) carries no distance
information and is always dropped: an embedding of dimension ``d``
stores ``d - 1`` coordinates per state, taken from eigen-indices
2 through d in ascending eigenvalue order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionOutOfRange,
    GraphDisconnected,
    InvalidState,
    MalformedEmbedding,
    NotSymmetric,
)

#: largest |M - M^T| entry accepted for a matrix that must be symmetric
SYMMETRY_TOL = 1e-12
#: eigenvalues at or below this threshold count as zero modes
ZERO_EIGENVALUE_TOL = 1e-9
#: refuse dense eigendecompositions beyond this size
SIZE_CAP = 4096
SIGN_CONVENTION = "max-abs-positive"


@dataclass(frozen=True)
class SpectralBasis:
    """Full eigensystem of a graph Laplacian, ascending eigenvalues."""

    eigenvalues: np.ndarray       # (n,), ascending
    eigenvectors: np.ndarray      # (n, n), column i pairs with eigenvalue i
    sign_convention: str = SIGN_CONVENTION

    @property
    def n_states(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def volume(self) -> int:
        """Graph volume recovered from the spectrum: V = tr L = sum of eigenvalues."""
        return int(round(float(self.eigenvalues.sum())))


@dataclass(frozen=True)
class Embedding:
    """Per-state coordinates derived from a basis or from learning.

    ``vectors`` has one row per state and ``d - 1`` columns (the constant
    eigenvector is dropped).  ``eigenvalues`` holds the d-1 values that
    produced the columns, when known.
    """

    kind: str                     # "laprep" | "ra_laprep" | "learned"
    d: int
    vectors: np.ndarray           # (n, d - 1)
    eigenvalues: np.ndarray | None = None
    source: str = ""

    @property
    def n_states(self) -> int:
        return self.vectors.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (ties: lowest index)."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))  # argmax takes the lowest index on ties
        if col[k] < 0:
            out[:, j] = -col
    return out


def eig_sym(L: np.ndarray) -> SpectralBasis:
    """Full eigendecomposition of a symmetric Laplacian.

    Validates symmetry to 1e-12, refuses matrices above the dense size
    cap, returns eigenvalues ascending with a deterministic sign
    convention on the eigenvectors.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {L.shape}")
    n = L.shape[0]
    if n > SIZE_CAP:
        raise DimensionOutOfRange(
            f"matrix size {n} exceeds the dense solver cap {SIZE_CAP}"
        )
    skew = float(np.max(np.abs(L - L.T))) if n else 0.0
    if skew > SYMMETRY_TOL:
        raise NotSymmetric(f"max |L - L^T| = {skew:.3e} exceeds {SYMMETRY_TOL}")
    try:
        lam, vec = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    return SpectralBasis(eigenvalues=lam, eigenvectors=_fix_signs(vec))


def _check_dimension(basis: SpectralBasis, d: int) -> None:
    n = basis.n_states
    if not 2 <= d <= n:
        raise DimensionOutOfRange(f"d = {d} outside [2, {n}]")


def laprep(basis: SpectralBasis, d: int) -> Embedding:
    """Plain spectral embedding: raw entries of eigenvectors 2..d."""
    _check_dimension(basis, d)
    return Embedding(
        kind="laprep",
        d=d,
        vectors=basis.eigenvectors[:, 1:d].copy(),
        eigenvalues=basis.eigenvalues[1:d].copy(),
        source=f"basis:{basis.sign_convention}",
    )


def ra_laprep(basis: SpectralBasis, d: int) -> Embedding:
    """Reachability-aware embedding: eigenvector i scaled by 1/sqrt(lambda_i)."""
    _check_dimension(basis, d)
    lam = basis.eigenvalues[1:d]
    if lam[0] <= ZERO_EIGENVALUE_TOL:
        raise GraphDisconnected(
            f"second-smallest eigenvalue {lam[0]:.3e} is numerically zero"
        )
    return Embedding(
        kind="ra_laprep",
        d=d,
        vectors=basis.eigenvectors[:, 1:d] / np.sqrt(lam),
        eigenvalues=lam.copy(),
        source=f"basis:{basis.sign_convention}",
    )


def embed_dist(e: Embedding, s: int, s2: int) -> float:
    """Euclidean distance between two states' embedding rows."""
    n = e.n_states
    for q in (s, s2):
        if not 0 <= q < n:
            raise InvalidState(f"state {q} out of range [0, {n})")
    return float(np.linalg.norm(e.vectors[s] - e.vectors[s2]))


def pairwise_sq_dists(e: Embedding) -> np.ndarray:
    """All-pairs squared embedding distances, (n, n) symmetric."""
    x = e.vectors
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def truncation_tail(basis: SpectralBasis, d: int, s: int, s2: int) -> float:
    """Commute time mass dropped by truncating the rescaled embedding at d.

    Exact tail: V * sum over i > d of (v_i[s] - v_i[s'])^2 / lambda_i,
    with the graph volume V recovered from the eigenvalue sum.  Zero at
    d = n; nonnegative and nonincreasing in d.
    """
    _check_dimension(basis, d)
    n = basis.n_states
    for q in (s, s2):
        if not 0 <= q < n:
            raise InvalidState(f"state {q} out of range [0, {n})")
    if n > 1 and basis.eigenvalues[1] <= ZERO_EIGENVALUE_TOL:
        raise GraphDisconnected(
            f"second-smallest eigenvalue {basis.eigenvalues[1]:.3e} is numerically zero"
        )
    if d == n:
        return 0.0
    lam = basis.eigenvalues[d:]
    diff = basis.eigenvectors[s, d:] - basis.eigenvectors[s2, d:]
    return float(basis.volume * np.sum(diff * diff / lam))


def tail_bound(basis: SpectralBasis, d: int) -> float:
    """Upper bound 4 * V * sum over i > d of 1 / lambda_i for the tail."""
    _check_dimension(basis, d)
    if d == basis.n_states:
        return 0.0
    return float(4.0 * basis.volume * np.sum(1.0 / basis.eigenvalues[d:]))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def embedding_to_csv(e: Embedding, coords: tuple[tuple[int, int], ...]) -> str:
    """CSV with header state_index,x,y,e2,...,ed (one row per state)."""
    if len(coords) != e.n_states:
        raise InvalidState(
            f"coordinate list has {len(coords)} entries, embedding has {e.n_states}"
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["state_index", "x", "y"] + [f"e{i}" for i in range(2, e.d + 1)]
    )
    for s in range(e.n_states):
        x, y = coords[s]
        writer.writerow([s, x, y] + [f"{v:.17g}" for v in e.vectors[s]])
    return buf.getvalue()


def embedding_from_csv(text: str, kind: str = "") -> tuple[Embedding, list[tuple[int, int]]]:
    """Parse an embedding CSV back into vectors and cell coordinates."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if len(header) < 3:
        raise MalformedEmbedding("embedding CSV lacks its state_index,x,y,... header")
    d = len(header) - 3 + 1
    rows = []
    for r in reader:
        if len(r) != len(header):
            raise MalformedEmbedding(
                f"embedding CSV line {reader.line_num} has {len(r)} fields, "
                f"its header has {len(header)}"
            )
        rows.append((int(r[0]), r))
    rows.sort()
    vectors = np.array([[float(v) for v in r[3:]] for _, r in rows])
    coords = [(int(r[1]), int(r[2])) for _, r in rows]
    return Embedding(kind=kind, d=d, vectors=vectors, source="csv"), coords


def basis_to_json(basis: SpectralBasis) -> dict:
    return {
        "eigenvalues": [float(v) for v in basis.eigenvalues],
        "sign_convention": basis.sign_convention,
    }
