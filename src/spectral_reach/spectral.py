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
2 through d in ascending eigenvalue order.  Such an embedding needs only
the d smallest eigenpairs, which ``eig_sym(L, d)`` computes by sparse
shift-invert Lanczos when d < n.  Only the sparse and banded solvers
need scipy, and they import it when called.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError, PreconditionError

#: largest |M - M^T| entry accepted for a matrix that must be symmetric
SYMMETRY_TOL = 1e-12
#: eigenvalues at or below this threshold count as zero modes
ZERO_EIGENVALUE_TOL = 1e-9
#: refuse dense eigendecompositions beyond this size
SIZE_CAP = 4096
#: shift of the partial solver, below the spectrum of a Laplacian (which
#: is positive semidefinite), so L - sigma I is positive definite
PARTIAL_SHIFT = -1e-3
#: seed of the partial solver's fixed Lanczos start vector
PARTIAL_START_SEED = 0
SIGN_CONVENTION = "max-abs-positive"
#: rows per chunk of the streamed CSV writers
CSV_BLOCK = 8


@dataclass(frozen=True)
class SpectralBasis:
    """Smallest eigenpairs of a graph Laplacian, ascending eigenvalues.

    A full basis holds all n pairs.  A partial one, from ``eig_sym(L, k)``
    with k < n, holds the k smallest and refuses every quantity that
    needs the whole spectrum.
    """

    eigenvalues: np.ndarray       # (k,), ascending
    eigenvectors: np.ndarray      # (n, k), column i pairs with eigenvalue i

    @property
    def n_states(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def is_partial(self) -> bool:
        return self.eigenvectors.shape[1] < self.n_states

    def require_full(self, what: str) -> None:
        if self.is_partial:
            raise InputError(
                f"{what} needs all {self.n_states} eigenpairs, "
                f"the basis holds the {self.eigenvectors.shape[1]} smallest"
            )

    def require_connected(self) -> None:
        """Refuse a spectrum with more than one zero eigenvalue."""
        lam = self.eigenvalues
        if len(lam) > 1 and lam[1] <= ZERO_EIGENVALUE_TOL:
            raise PreconditionError(
                f"second-smallest eigenvalue {lam[1]:.3e} is numerically zero"
            )

    @property
    def volume(self) -> int:
        """Graph volume recovered from the spectrum: V = tr L = sum of eigenvalues."""
        self.require_full("the graph volume")
        return int(round(float(self.eigenvalues.sum())))


@dataclass(frozen=True)
class Embedding:
    """Per-state coordinates derived from a basis or from learning.

    ``vectors`` has one row per state and ``d - 1`` columns (the constant
    eigenvector is dropped).  ``eigenvalues`` holds the d-1 values that
    produced the columns, when known.
    """

    kind: str                     # "laprep" | "ra_laprep" | "learned"
    vectors: np.ndarray           # (n, d - 1)
    eigenvalues: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        """Embedding dimension: the stored columns plus the dropped constant one."""
        return self.vectors.shape[1] + 1


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (ties: lowest index)."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))  # argmax takes the lowest index on ties
        if col[k] < 0:
            out[:, j] = -col
    return out


def _check_symmetric(skew: float) -> None:
    if skew > SYMMETRY_TOL:
        raise PreconditionError(f"max |L - L^T| = {skew:.3e} exceeds {SYMMETRY_TOL}")


def eig_sym(L, k: int | None = None) -> SpectralBasis:
    """Eigendecomposition of a symmetric Laplacian, eigenvalues ascending.

    L is dense (say, ``StateGraph.dense_laplacian()``) or scipy sparse
    (``StateGraph.laplacian``).  Without k, or with k = n, this is the
    full dense decomposition by numpy, which refuses matrices above the
    dense size cap.  For k < n only the k smallest eigenpairs are
    computed (``_eig_partial``, on a sparse copy of L), with no cap.
    Both validate L symmetric to 1e-12 and apply the same deterministic
    sign convention to the eigenvectors.
    """
    # a scipy sparse L can exist only once scipy.sparse is loaded
    sparse = sys.modules.get("scipy.sparse")
    sparse_in = sparse is not None and sparse.issparse(L)
    if not sparse_in:
        L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {L.shape}")
    n = L.shape[0]
    if k is not None and not 1 <= k <= n:
        raise InputError(f"k = {k} eigenpairs outside [1, {n}]")
    if k is not None and k < n:
        from scipy import sparse

        a = sparse.csc_array(L, dtype=np.float64)
        _check_symmetric(float(abs(a - a.T).max()))
        return _eig_partial(a, k)
    check_dense_size(n)
    if sparse_in:
        L = L.astype(np.float64).toarray()
    _check_symmetric(float(np.abs(L - L.T).max()) if n else 0.0)
    try:
        lam, vec = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return SpectralBasis(eigenvalues=lam, eigenvectors=_fix_signs(vec))


def _eig_partial(a, k: int) -> SpectralBasis:
    """The k < n smallest eigenpairs of a symmetric sparse a by shift-invert Lanczos (ARPACK).

    a - sigma I is factored once, sparse, with sigma just below zero;
    Lanczos runs to machine precision from a fixed seeded start vector
    (never the constant one, which is the zero mode of a Laplacian), so
    repeated calls give identical bytes.
    """
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(PARTIAL_START_SEED).standard_normal(a.shape[0])
    try:
        lam, vec = eigsh(a, k, sigma=PARTIAL_SHIFT, which="LM", v0=v0, tol=0)
    except RuntimeError as exc:       # ArpackError, or a singular factorization
        raise NumericalError(f"partial eigendecomposition failed: {exc}") from exc
    order = np.argsort(lam, kind="stable")
    return SpectralBasis(eigenvalues=lam[order], eigenvectors=_fix_signs(vec[:, order]))


def eigvals_banded(L) -> np.ndarray:
    """All eigenvalues of a symmetric banded matrix, ascending, no vectors.

    L is sparse or dense.  LAPACK reduces the band
    (``scipy.linalg.eig_banded``), which takes O(n b) memory for
    bandwidth b instead of the n x n of a dense solve.  A Laplacian with
    states in row-major order is banded: b is the largest index step of
    an edge, about one maze row.
    """
    from scipy import sparse
    from scipy.linalg import eig_banded

    upper = sparse.triu(L)
    b = int((upper.col - upper.row).max()) if upper.nnz else 0
    band = np.zeros((b + 1, upper.shape[0]))
    band[b + upper.row - upper.col, upper.col] = upper.data
    try:
        return eig_banded(band, eigvals_only=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"band eigenvalue solve failed: {exc}") from exc


def check_dense_size(n: int) -> None:
    """Refuse a dense n x n eigendecomposition above the size cap."""
    if n > SIZE_CAP:
        raise InputError(
            f"matrix size {n} exceeds the dense solver cap {SIZE_CAP}"
        )


def check_dimension(d: int, n: int) -> None:
    """Refuse an embedding dimension outside [2, n]."""
    if not 2 <= d <= n:
        raise InputError(f"d = {d} outside [2, {n}]")


def check_state(s: int, n: int) -> None:
    """Refuse a state index outside [0, n)."""
    if not 0 <= s < n:
        raise InputError(f"state {s} out of range [0, {n})")


def laprep(basis: SpectralBasis, d: int) -> Embedding:
    """Plain spectral embedding: raw entries of eigenvectors 2..d."""
    check_dimension(d, basis.eigenvectors.shape[1])
    return Embedding(
        kind="laprep",
        vectors=basis.eigenvectors[:, 1:d].copy(),
        eigenvalues=basis.eigenvalues[1:d].copy(),
    )


def ra_laprep(basis: SpectralBasis, d: int) -> Embedding:
    """Reachability-aware embedding: eigenvector i scaled by 1/sqrt(lambda_i)."""
    check_dimension(d, basis.eigenvectors.shape[1])
    basis.require_connected()
    lam = basis.eigenvalues[1:d]
    return Embedding(
        kind="ra_laprep",
        vectors=basis.eigenvectors[:, 1:d] / np.sqrt(lam),
        eigenvalues=lam.copy(),
    )


def goal_distances(x: np.ndarray, goal: int) -> np.ndarray:
    """Euclidean distance of every row of an (n, k) array to row ``goal``."""
    check_state(goal, len(x))
    diff = x - x[goal]
    diff *= diff          # np.linalg.norm's sum of squares, without its two n x k temporaries
    return np.sqrt(np.add.reduce(diff, axis=1))


def pairwise_sq_dists(e: Embedding) -> np.ndarray:
    """All-pairs squared embedding distances, (n, n) symmetric."""
    x = e.vectors
    return sq_dists_rows(x, np.sum(x * x, axis=1), 0, len(x))


def sq_dists_rows(x: np.ndarray, sq: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Squared distances from rows lo:hi of an (n, k) array x to every row.

    ``sq`` holds the squared row norms of x.  The (hi - lo, n) result is
    |a|^2 + |b|^2 - 2 a.b clipped at zero, with exact zeros at (s, s).
    """
    d2 = np.add.outer(sq[lo:hi], sq)
    gram = x[lo:hi] @ x.T
    gram *= 2.0
    d2 -= gram
    np.maximum(d2, 0.0, out=d2)
    d2.ravel()[lo::len(x) + 1] = 0.0
    return d2


def truncation_tail(basis: SpectralBasis, d: int, s: int, s2: int) -> float:
    """Commute time mass dropped by truncating the rescaled embedding at d.

    Exact tail: V * sum over i > d of (v_i[s] - v_i[s'])^2 / lambda_i,
    with the graph volume V recovered from the eigenvalue sum.  Zero at
    d = n; nonnegative and nonincreasing in d.  Needs a full basis.
    """
    basis.require_full("truncation_tail")
    check_dimension(d, basis.n_states)
    for q in (s, s2):
        check_state(q, basis.n_states)
    basis.require_connected()
    if d == basis.n_states:
        return 0.0
    lam = basis.eigenvalues[d:]
    diff = basis.eigenvectors[s, d:] - basis.eigenvectors[s2, d:]
    return float(basis.volume * np.sum(diff * diff / lam))


def tail_bound(basis: SpectralBasis, d: int) -> float:
    """Upper bound 4 * V * sum over i > d of 1 / lambda_i for the tail."""
    basis.require_full("tail_bound")
    check_dimension(d, basis.n_states)
    if d == basis.n_states:
        return 0.0
    return float(4.0 * basis.volume * np.sum(1.0 / basis.eigenvalues[d:]))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def embedding_to_csv(e: Embedding, coords: tuple[tuple[int, int], ...]) -> Iterator[bytes]:
    """CSV with header state_index,x,y,e2,...,ed (one row per state), as
    chunks of ``CSV_BLOCK`` rows; the coordinate count is checked at the call."""
    if len(coords) != e.n_states:
        raise InputError(
            f"coordinate list has {len(coords)} entries, embedding has {e.n_states}"
        )
    header = ",".join(["state_index", "x", "y"] + [f"e{i}" for i in range(2, e.d + 1)])
    row = b"%d,%d,%d" + b",%.17g" * e.vectors.shape[1] + b"\n"
    blocks = (b"".join([row % (s, *coords[s], *v) for s, v in
                        enumerate(e.vectors[a:a + CSV_BLOCK].tolist(), start=a)])
              for a in range(0, e.n_states, CSV_BLOCK))
    return itertools.chain([header.encode() + b"\n"], blocks)


def embedding_from_csv(path: str | Path) -> tuple[Embedding, list[tuple[int, int]]]:
    """Parse an embedding CSV file back into vectors and cell coordinates.

    Rows may come in any order, but their state_index column must be a
    permutation of 0..n-1, and every state_index, x and y an integer.  The
    file is streamed twice: to count each row's fields, then by ``np.loadtxt``.
    The file does not record the embedding's kind, which is left empty.
    """
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        if len(header) < 3:
            raise InputError("embedding CSV lacks its state_index,x,y,... header")
        start, rows = f.tell(), 0
        for rows, line in enumerate(f, start=1):
            fields = line.count(",") + 1 if line != "\n" else 0
            if fields != len(header):
                raise InputError(
                    f"embedding CSV line {rows + 1} has {fields} fields, "
                    f"its header has {len(header)}"
                )
        k = len(header) - 3
        table = np.zeros(0, dtype=[("index", np.int64, 3), ("vector", np.float64, k)])
        if rows:
            f.seek(start)
            try:
                table = np.loadtxt(f, dtype=table.dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:
                raise InputError(f"embedding CSV: {exc}") from None
    order = np.argsort(table["index"][:, 0])
    if not np.array_equal(table["index"][order, 0], np.arange(len(table))):
        raise InputError(
            f"embedding CSV state_index column is not a permutation of 0..{len(table) - 1}"
        )
    coords = [tuple(c) for c in table["index"][order, 1:].tolist()]
    return Embedding(kind="", vectors=table["vector"][order]), coords


def basis_to_json(basis: SpectralBasis, eigenvalues: np.ndarray | None = None) -> dict:
    """Plain-data form; ``eigenvalues`` replaces the basis's own (say, the
    full spectrum of a partial basis)."""
    if eigenvalues is None:
        eigenvalues = basis.eigenvalues
    return {
        "eigenvalues": [float(v) for v in eigenvalues],
        "sign_convention": SIGN_CONVENTION,
    }
