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
2 through d in ascending eigenvalue order.  So both refuse a
disconnected graph, whose lambda_1 is ``tied`` (the one rule for
eigenvalue ties) to lambda_0 and whose dropped vector LAPACK would
pick.  Such an embedding needs only the d smallest eigenpairs, which
``eig_sym(L, d)`` computes when d < n by shift-invert block Lanczos on
the band of L, in numpy alone.  Only ``eigvals_banded`` needs scipy
(``scipy.linalg``), and it imports it when called.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError, PreconditionError

#: largest |M - M^T| entry accepted for a matrix that must be symmetric
SYMMETRY_TOL = 1e-12
#: eigenvalues closer than this, relative to max(largest eigenvalue, 1), are tied
TIE_TOL = 1e-9
#: refuse dense eigendecompositions beyond this size
SIZE_CAP = 4096
#: shift of the partial solver: below a Laplacian's spectrum, so L - sigma I is
#: positive definite, and near enough to 0 to part a long corridor's eigenvalues
PARTIAL_SHIFT = -1e-5
#: seed of the partial solver's fixed Lanczos start block
PARTIAL_START_SEED = 0
#: residual ||L v - lambda v|| at which the partial solver stops, relative to a
#: bound on ||L||: about 450 units of rounding, a step above the residual's floor
PARTIAL_TOL = 1e-13
#: block Lanczos steps the partial solver takes before it gives up
PARTIAL_MAX_STEPS = 50
SIGN_CONVENTION = "max-abs-positive"
#: rows per chunk of the streamed CSV writers
CSV_BLOCK = 8
#: rows per block of the row-blocked distance computations
ROW_BLOCK = 128


@dataclass(frozen=True)
class Band:
    """A symmetric matrix by its upper band, in LAPACK's layout: ``upper[b + i - j, j]``
    holds entry (i, j) for 0 <= j - i <= b, the bandwidth; farther entries are zero.
    A row-major Laplacian's b is about one maze row, so its band takes O(n b) memory."""

    upper: np.ndarray             # (b + 1, n)

    @property
    def n(self) -> int:
        return self.upper.shape[1]

    @property
    def width(self) -> int:
        return self.upper.shape[0] - 1

    def dense(self) -> np.ndarray:
        """The dense matrix.  Of the band's columns lo:hi alone, this is the
        diagonal block M[lo:hi, lo:hi]."""
        r, j = np.nonzero(self.upper)
        i = j - self.width + r
        r, i, j = r[i >= 0], i[i >= 0], j[i >= 0]
        a = np.zeros((self.n, self.n))
        a[i, j] = a[j, i] = self.upper[r, j]
        return a

    def rmatmul(self, x: np.ndarray) -> np.ndarray:
        """x @ M for an (m, n) array x, one nonzero diagonal at a time."""
        b = self.width
        y = x * self.upper[b]
        for d in np.flatnonzero(self.upper[-2::-1].any(axis=1)) + 1:   # row b - d, diagonal d
            v = self.upper[b - d, d:]
            y[:, :-d] += x[:, d:] * v
            y[:, d:] += x[:, :-d] * v
        return y


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
        """Refuse a spectrum with more than one zero eigenvalue: lambda_1 tied to lambda_0."""
        lam = self.eigenvalues
        if len(lam) > 1 and tied(lam)[0]:
            raise PreconditionError(f"second-smallest eigenvalue {lam[1]:.3e} is numerically zero")

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


def tied(lam: np.ndarray) -> np.ndarray:
    """Gap i of an ascending spectrum ties: lam[i + 1] - lam[i] <= TIE_TOL * max(lam[-1], 1)."""
    return np.diff(lam) <= TIE_TOL * max(float(lam[-1]), 1.0)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (ties: lowest index)."""
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(top < 0, -1.0, 1.0)   # argmax takes the lowest index on ties


def eig_sym(L, k: int | None = None) -> SpectralBasis:
    """Eigendecomposition of a symmetric Laplacian, eigenvalues ascending.

    Each input form has one path.  A ``Band`` (``StateGraph.laplacian_band()``)
    gives its k < n smallest eigenpairs, by ``_eig_partial``, with no size
    cap.  A dense L (``StateGraph.dense_laplacian()``) gives all n, by
    numpy, refused above the dense size cap; k may be left out or be n.  A
    dense L is checked symmetric to 1e-12 (a band is symmetric by
    construction).  Both paths apply the same deterministic sign
    convention to the eigenvectors.
    """
    if isinstance(L, Band):
        if k is None or not 1 <= k < L.n:
            raise InputError(f"a band gives k in [1, {L.n - 1}] eigenpairs, not k = {k}")
        return _eig_partial(L, k)
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {L.shape}")
    skew = float(np.abs(L - L.T).max()) if L.size else 0.0
    if skew > SYMMETRY_TOL:
        raise PreconditionError(f"max |L - L^T| = {skew:.3e} exceeds {SYMMETRY_TOL}")
    if k not in (None, len(L)):
        raise InputError(f"a dense L gives all {len(L)} eigenpairs, not k = {k}")
    check_dense_size(len(L))
    try:
        lam, vec = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return SpectralBasis(eigenvalues=lam, eigenvectors=_fix_signs(vec))


def _shifted_solver(band: Band, sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """x -> (M - sigma I)^-1 x for a banded M, factored once.

    In blocks of b rows, M - sigma I is block tridiagonal, with diagonal
    blocks A_i and blocks B_i below them.  Block elimination factors it as
    L D L^T, with D = diag(S_i), S_0 = A_0, S_i+1 = A_i+1 - F_i B_i^T, and
    F_i = B_i S_i^-1 below the unit diagonal of L.  The inverses S_i^-1
    are formed once, so both sweeps of a solve are matmuls.
    """
    cuts = [*range(0, band.n, max(band.width, 1)), band.n]
    spans = [slice(a, z) for a, z in zip(cuts, cuts[1:])]
    inv, low = [], []
    schur = Band(band.upper[:, spans[0]]).dense()
    for lo, mid, hi in zip(cuts, cuts[1:], [*cuts[2:], None]):
        schur[np.diag_indices_from(schur)] -= sigma
        try:
            inv.append(np.linalg.inv(schur))
        except np.linalg.LinAlgError:
            raise NumericalError(f"L - ({sigma}) I is singular") from None
        if hi is not None:
            window = Band(band.upper[:, lo:hi]).dense()          # M[lo:hi, lo:hi]
            below = window[mid - lo:, :mid - lo]
            low.append(below @ inv[-1])
            schur = window[mid - lo:, mid - lo:] - low[-1] @ below.T

    def solve(x: np.ndarray) -> np.ndarray:
        y = np.array(x)
        for i in range(1, len(spans)):
            y[spans[i]] -= low[i - 1] @ y[spans[i - 1]]
        for i, span in reversed(list(enumerate(spans))):
            z = inv[i] @ y[span]
            if i < len(low):
                z -= low[i].T @ y[spans[i + 1]]
            y[span] = z
        return y

    return solve


def _eig_partial(band: Band, k: int) -> SpectralBasis:
    """The k < n smallest eigenpairs of a banded L by shift-invert block Lanczos.

    Block Lanczos on (L - sigma I)^-1, sigma just below zero, grows an
    orthonormal basis Q from a seeded random start block of k columns, so a
    cluster of eigenvalues inside the k smallest is found whole; each new
    block is orthogonalized twice against all of Q, and L times it fills
    its columns of H = Q^T L Q.  The eigenpairs of H (Rayleigh-Ritz) are
    accepted once every residual ||L y - theta y|| is at most PARTIAL_TOL
    times a Gershgorin bound on ||L||, or once Q spans everything; a solve
    that meets neither within PARTIAL_MAX_STEPS block steps is refused.
    """
    n = band.n
    solve = _shifted_solver(band, PARTIAL_SHIFT)
    norm = max(float(Band(np.abs(band.upper)).rmatmul(np.ones((1, n))).max()), 1.0)
    cap = min(n, k * PARTIAL_MAX_STEPS)
    qt, h = np.empty((cap, n)), np.empty((cap, cap))
    block = np.random.default_rng(PARTIAL_START_SEED).standard_normal((n, k))
    size = 0
    for _ in range(PARTIAL_MAX_STEPS):
        q = qt[:size].T
        for _ in range(2):
            block -= q @ (q.T @ block)
            block = np.linalg.qr(block)[0]
        new = slice(size, min(size + k, n))    # the block that reaches n may be narrower
        qt[new] = block.T[:new.stop - size]
        size = new.stop
        q = qt[:size].T
        h[:size, new] = q.T @ band.rmatmul(qt[new]).T
        h[new, :size] = h[:size, new].T
        theta, s = np.linalg.eigh(h[:size, :size])
        vec = q @ s[:, :k]
        resid = band.rmatmul(vec.T.copy()).T - vec * theta[:k]    # rmatmul runs along rows
        worst = np.sqrt(np.einsum("ij,ij->j", resid, resid)).max()
        if size == n or worst <= PARTIAL_TOL * norm:
            return SpectralBasis(eigenvalues=theta[:k], eigenvectors=_fix_signs(vec))
        block = solve(qt[new].T)
    raise NumericalError(f"partial eigendecomposition did not converge in "
                         f"{PARTIAL_MAX_STEPS} block Lanczos steps")


def eigvals_banded(band: Band) -> np.ndarray:
    """All eigenvalues of a symmetric band, ascending, by LAPACK's band
    reduction (``scipy.linalg.eig_banded``) in O(n b) memory."""
    from scipy.linalg import eig_banded

    try:
        return eig_banded(band.upper, eigvals_only=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"band eigenvalue solve failed: {exc}") from exc


def check_dense_size(n: int) -> None:
    """Refuse a dense n x n eigendecomposition above the size cap."""
    if n > SIZE_CAP:
        raise InputError(f"matrix size {n} exceeds the dense solver cap {SIZE_CAP}")


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
    basis.require_connected()
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
    """Euclidean distance of every row of an (n, k) array to row ``goal``,
    ROW_BLOCK rows at a time."""
    check_state(goal, len(x))
    out = np.empty(len(x))
    for lo in range(0, len(x), ROW_BLOCK):
        diff = x[lo:lo + ROW_BLOCK] - x[goal]
        diff *= diff      # np.linalg.norm's sum of squares, without its two temporaries
        out[lo:lo + ROW_BLOCK] = np.sqrt(np.add.reduce(diff, axis=1))
    return out


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
    chunks of ``CSV_BLOCK`` rows; the coordinate count is checked at the call.
    Each value is written as ``%.17g`` writes it (``floattext.csv_rows``)."""
    if len(coords) != e.n_states:
        raise InputError(f"coordinate list has {len(coords)} entries, embedding has {e.n_states}")
    from . import floattext

    header = ",".join(["state_index", "x", "y"] + [f"e{i}" for i in range(2, e.d + 1)])
    lead = np.column_stack([np.arange(e.n_states), np.reshape(coords, (e.n_states, 2))])
    return itertools.chain([header.encode() + b"\n"],
                           floattext.csv_rows(e.vectors, lead, CSV_BLOCK))


def embedding_from_csv(path: str | Path) -> tuple[Embedding, list[tuple[int, int]]]:
    """Parse an embedding CSV file back into vectors and cell coordinates.

    Rows may come in any order, but their state_index column must be a
    permutation of 0..n-1, and every state_index, x and y an integer.  A
    file in the grammar ``embed`` writes is parsed in one streamed pass by
    ``floattext.read_csv``; any other goes to ``_loadtxt_table``, which
    accepts what ``np.loadtxt`` accepts.  Both give the same doubles.
    Rows already in state order, as ``embed`` writes them, are returned as
    a view of the parsed table, not a copy.  The file does not record the
    embedding's kind, which is left empty.
    """
    from . import floattext

    parsed = None
    with open(path, "rb") as f:
        header = f.readline()
        if header.endswith(b"\n") and header.isascii() and b"\r" not in header:
            fields = header.count(b",") + 1
            if fields >= 3:
                parsed = floattext.read_csv(f, 3, fields)
    index, vectors = parsed if parsed is not None else _loadtxt_table(path)
    order = np.argsort(index[:, 0])
    if not np.array_equal(index[order, 0], np.arange(len(index))):
        raise InputError(
            f"embedding CSV state_index column is not a permutation of 0..{len(index) - 1}"
        )
    if np.array_equal(order, np.arange(len(index))):
        order = slice(None)
    coords = [tuple(c) for c in index[order, 1:].tolist()]
    return Embedding(kind="", vectors=vectors[order]), coords


def _loadtxt_table(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) integer and (n, d - 1) float columns of an embedding CSV by
    ``np.loadtxt``, after a first pass that counts each row's fields."""
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
    return table["index"], table["vector"]


def basis_to_json(basis: SpectralBasis, eigenvalues: np.ndarray | None = None) -> dict:
    """Plain-data form; ``eigenvalues`` replaces the basis's own (say, the
    full spectrum of a partial basis)."""
    if eigenvalues is None:
        eigenvalues = basis.eigenvalues
    return {
        "eigenvalues": [float(v) for v in eigenvalues],
        "sign_convention": SIGN_CONVENTION,
    }
