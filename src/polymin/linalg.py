"""Dense linear-algebra kernels for the SDP solver and the eigenvalue oracle.

Eigendecompositions delegate to LAPACK through numpy (`eigh` for symmetric
input, `eig` for general input, i.e. balancing + Hessenberg reduction +
shifted QR), and the SPD Cholesky factor to LAPACK's ``potrf``; its
triangular solves are blocked substitutions on LAPACK and BLAS.  The pivoted
semidefinite factorization is implemented directly so that rank deficiency
surfaces as an explicit result, and a failed Cholesky raises with the index
and value of its failing pivot.

Kernels are pure on owned inputs; independent factorizations and eigensolves
may run concurrently with no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_IM_TOL = 1e-7        # |Im| threshold for calling an eigenvalue real, relative to 1 + |lambda|
DEFAULT_CLUSTER_GAP = 1e-6   # single-linkage gap for multiplicity clustering, relative to 1 + |lambda|


class EigenConvergenceError(RuntimeError):
    """QR iteration failed to converge; never reported silently."""


class NotPositiveDefiniteError(RuntimeError):
    def __init__(self, index: int, pivot: float):
        super().__init__(f"non-positive pivot {pivot:.3e} at index {index}")
        self.index = index
        self.pivot = pivot


@dataclass
class EigenResult:
    """Eigenvalues (complex), optional right eigenvectors, and the real subset.

    ``real_values`` lists one representative per cluster of near-equal real
    eigenvalues (ascending), ``real_multiplicities`` the matching cluster
    sizes and ``real_clusters`` the column indices into ``values``/``vectors``
    belonging to each cluster.
    """

    values: np.ndarray
    vectors: np.ndarray | None
    real_values: list[float] = field(default_factory=list)
    real_multiplicities: list[int] = field(default_factory=list)
    real_clusters: list[list[int]] = field(default_factory=list)


def _matrix_scale(m: np.ndarray) -> float:
    s = float(np.linalg.norm(m))
    return s if s > 0 else 1.0


def _classify_real(values: np.ndarray, vectors, im_tol: float) -> EigenResult:
    # Tolerances are relative to each eigenvalue's own magnitude (plus one),
    # not to the matrix norm: multiplication matrices routinely carry huge
    # irrelevant eigenvalues next to the small real ones that matter, and a
    # norm-relative rule would misclassify everything near the origin.
    idx = [i for i, v in enumerate(values)
           if abs(v.imag) <= im_tol * (1.0 + abs(v.real))]
    reals = sorted(((values[i].real, i) for i in idx))
    clusters: list[list[int]] = []
    for v, i in reals:
        if clusters:
            prev = values[clusters[-1][-1]].real
            if v - prev <= DEFAULT_CLUSTER_GAP * (1.0 + abs(v)):
                clusters[-1].append(i)
                continue
        clusters.append([i])
    reps = [float(np.mean([values[i].real for i in c])) for c in clusters]
    return EigenResult(
        values=values,
        vectors=vectors,
        real_values=reps,
        real_multiplicities=[len(c) for c in clusters],
        real_clusters=clusters,
    )


def sym_eig(S: np.ndarray, compute_vectors: bool = True) -> EigenResult:
    """Symmetric eigendecomposition: all-real ascending values, orthonormal vectors."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("matrix must be square")
    scale = _matrix_scale(S)
    if np.max(np.abs(S - S.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    try:
        if compute_vectors:
            w, v = np.linalg.eigh(S)
        else:
            w, v = np.linalg.eigvalsh(S), None
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return _classify_real(w.astype(complex), v, im_tol=1.0)


def eig_general(M: np.ndarray, compute_vectors: bool = True) -> EigenResult:
    """General real eigendecomposition with tolerance-classified real subset.

    Eigenvalues are sorted by (real, imag) for determinism; the real subset
    keeps values lambda with |Im lambda| <= DEFAULT_IM_TOL * (1 + |Re lambda|)
    and reports clustered multiplicities (single linkage, joining neighbours
    within DEFAULT_CLUSTER_GAP * (1 + |lambda|)).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    try:
        if compute_vectors:
            w, v = np.linalg.eig(M)
        else:
            w, v = np.linalg.eigvals(M), None
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    if v is not None:
        v = v[:, order]
    return _classify_real(w, v, im_tol=DEFAULT_IM_TOL)


@dataclass
class PsdFactorization:
    """Outcome of the pivoted semidefinite factorization S ~= B^T B."""

    success: bool
    B: np.ndarray | None
    rank: int
    failure_pivot: float | None = None
    failure_index: int | None = None
    pivots: list[int] = field(default_factory=list)


def psd_factor(S: np.ndarray, tol: float = 1e-10) -> PsdFactorization:
    """Pivoted outer-product (Cholesky-like) factorization of a PSD matrix.

    Succeeds iff the smallest eigenvalue is >= -tol*||S||, returning B with
    S ~= B^T B and rank(B) = number of pivots exceeding tol*||S||.  Once no
    pivot exceeds that threshold, one symmetric eigensolve of the block left
    over decides: on an indefinite input its smallest eigenvalue is reported
    as ``failure_pivot``, and the index where that eigenvector is largest as
    ``failure_index``, instead of raising, since rank deficiency is the
    common case for optimal Gram matrices.
    """
    A = np.array(S, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(float(np.max(np.abs(A))), 1e-300) if n else 1.0
    if n and np.max(np.abs(A - A.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    threshold = tol * scale
    rows = []
    pivots: list[int] = []
    active = np.ones(n, dtype=bool)
    for _ in range(n):
        diag = np.where(active, np.diag(A), -np.inf)
        j = int(np.argmax(diag))
        pivot = diag[j]
        if pivot <= threshold:
            break
        row = A[j, :] / np.sqrt(pivot)
        rows.append(row.copy())
        pivots.append(j)
        A -= np.outer(row, row)
        A[j, :] = 0.0
        A[:, j] = 0.0
        active[j] = False
    # every remaining pivot is small, but the block they leave may still be
    # indefinite (a zero diagonal with nonzero entries off it)
    rest = np.flatnonzero(active)
    if rest.size:
        w, V = np.linalg.eigh(A[np.ix_(rest, rest)])
        if w[0] < -threshold:
            idx = int(rest[np.argmax(np.abs(V[:, 0]))])
            return PsdFactorization(False, None, len(rows), failure_pivot=float(w[0]),
                                    failure_index=idx, pivots=pivots)
    B = np.array(rows) if rows else np.zeros((0, n))
    return PsdFactorization(True, B, len(rows), pivots=pivots)


_BLOCK = 64   # diagonal block side of the blocked triangular solves


class CholeskyFactor:
    """Lower-triangular Cholesky factor with reusable triangular solves.

    The solves are blocked substitutions: each diagonal block of side _BLOCK
    is solved by LAPACK and the rows below (above, for the transpose) are
    updated with one BLAS product.  The diagonal blocks and their transposes
    are copied to contiguous arrays once per factor, so LAPACK's solve does
    not copy a strided view on every call.  No inverse of L is formed; an
    explicit inverse loses the substitution's backward stability on the
    interior-point method's ill-conditioned Schur complements.  ``rhs`` may
    be a vector or a matrix of right-hand-side columns.
    """

    def __init__(self, L: np.ndarray):
        self.L = L
        self._blocks = []
        for s in range(0, L.shape[0], _BLOCK):
            block = np.ascontiguousarray(L[s : s + _BLOCK, s : s + _BLOCK])
            self._blocks.append((s, s + _BLOCK, block, np.ascontiguousarray(block.T)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self.forward(rhs)
        return self.backward(y)

    def forward(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L y = rhs."""
        L = self.L
        y = np.array(rhs, dtype=float)
        for s, e, block, _ in self._blocks:
            y[s:e] = np.linalg.solve(block, y[s:e])
            y[e:] -= L[e:, s:e] @ y[s:e]
        return y

    def backward(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L^T x = rhs."""
        L = self.L
        x = np.array(rhs, dtype=float)
        for s, e, _, block_t in reversed(self._blocks):
            x[s:e] = np.linalg.solve(block_t, x[s:e])
            x[:s] -= L[s:e, :s].T @ x[s:e]
        return x


def spd_cholesky(S: np.ndarray) -> CholeskyFactor:
    """Plain (unpivoted) LAPACK Cholesky; raises NotPositiveDefiniteError on
    the first pivot that is <= 0 or not finite."""
    A = np.asarray(S, dtype=float)
    try:
        L = np.linalg.cholesky(A)
        if np.all(np.isfinite(np.diagonal(L))):
            return CholeskyFactor(L)
        del L       # not finite: free it before the replay below
    except np.linalg.LinAlgError:
        pass
    raise NotPositiveDefiniteError(*_failing_pivot(A))


def _failing_pivot(A: np.ndarray) -> tuple[int, float]:
    """(index, value) of the first pivot <= 0 or not finite, found by
    replaying the factorization column by column once LAPACK has refused."""
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0 or not np.isfinite(d):
            return j, float(d)
        L[j, j] = np.sqrt(d)
        L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    # the replay's rounding passed the pivot LAPACK refused: report the smallest
    j = int(np.argmin(np.diagonal(L)))
    return j, float(L[j, j] ** 2)


def solve_spd(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve S x = rhs for symmetric positive-definite S via Cholesky."""
    return spd_cholesky(S).solve(np.asarray(rhs, dtype=float))
