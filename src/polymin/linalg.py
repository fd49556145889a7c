"""Dense linear-algebra kernels for the SDP solver and the eigenvalue oracle.

Every factorization delegates to LAPACK through numpy: ``eigh`` for
symmetric input, ``eig`` for general input (balancing + Hessenberg
reduction + shifted QR), and ``potrf`` for the SPD Cholesky factor, whose
triangular solves are blocked substitutions on LAPACK and BLAS.  The
semidefinite factor comes from one ``eigh``, so rank deficiency surfaces as
an explicit rank and null space rather than an error.

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
    """LAPACK's Cholesky refused the matrix or produced a non-finite pivot."""


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
    """Outcome of the semidefinite factorization S ~= B^T B.

    ``null`` holds, as columns, the orthonormal eigendirections whose
    eigenvalues are at or below the threshold; it is set on failure too.
    """

    success: bool
    B: np.ndarray | None
    null: np.ndarray


def psd_factor(S: np.ndarray, tol: float = 1e-10) -> PsdFactorization:
    """Semidefinite factorization of a symmetric matrix by one ``eigh``.

    Succeeds iff the smallest eigenvalue is >= -tol*max|S|.  B has one row
    sqrt(w) v^T per eigenpair (w, v) with w > tol*max|S|, largest first, so
    S ~= B^T B.  An indefinite input gives ``success`` False instead of an
    exception, since rank deficiency is the common case for optimal Gram
    matrices.
    """
    A = np.asarray(S, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(float(np.max(np.abs(A))), 1e-300) if n else 1.0
    if n and np.max(np.abs(A - A.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    threshold = tol * scale
    w, V = np.linalg.eigh(A)
    big = w > threshold
    null = V[:, ~big]
    if n and w[0] < -threshold:
        return PsdFactorization(False, None, null)
    B = (V[:, big] * np.sqrt(w[big])).T[::-1]
    return PsdFactorization(True, B, null)


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
    """Plain (unpivoted) LAPACK Cholesky; raises NotPositiveDefiniteError
    when LAPACK refuses S or a pivot is not finite."""
    try:
        L = np.linalg.cholesky(np.asarray(S, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    if not np.all(np.isfinite(np.diagonal(L))):
        raise NotPositiveDefiniteError("non-finite Cholesky pivot")
    return CholeskyFactor(L)
