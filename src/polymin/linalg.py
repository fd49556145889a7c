"""Dense linear-algebra kernels for the SDP solver and the eigenvalue oracle.

Every factorization delegates to LAPACK and BLAS through numpy: ``eigh``
for symmetric input and ``eig`` for general input (balancing + Hessenberg
reduction + shifted QR).  The SPD Cholesky factor is built over its input by
block columns of BLAS products around LAPACK's ``potrf`` on each 64-wide
diagonal block; the inverses of those diagonal blocks (and of no larger
triangle) are kept, so both triangular solves are matrix products.  The
semidefinite factor comes from one ``eigh``, so rank deficiency surfaces as
an explicit rank and null space rather than an error.

Only ``spd_cholesky`` writes to its input.  Independent factorizations and
eigensolves may run concurrently with no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_IM_TOL = 1e-7        # |Im| threshold for calling an eigenvalue real, relative to 1 + |lambda|
DEFAULT_CLUSTER_GAP = 1e-6   # single-linkage gap for multiplicity clustering, relative to 1 + |lambda|


class EigenConvergenceError(RuntimeError):
    """QR iteration failed to converge; never reported silently."""


class NotPositiveDefiniteError(RuntimeError):
    """LAPACK's Cholesky refused a diagonal block or produced a non-finite pivot."""


@dataclass
class EigenResult:
    """Eigenvalues (complex), right eigenvectors, and the real subset.

    ``real_values`` lists one representative per cluster of near-equal real
    eigenvalues (ascending), ``real_multiplicities`` the matching cluster
    sizes and ``real_clusters`` the column indices into ``values``/``vectors``
    belonging to each cluster.
    """

    values: np.ndarray
    vectors: np.ndarray
    real_values: list[float] = field(default_factory=list)
    real_multiplicities: list[int] = field(default_factory=list)
    real_clusters: list[list[int]] = field(default_factory=list)


def _classify_real(values: np.ndarray, vectors: np.ndarray) -> EigenResult:
    # Tolerances are relative to each eigenvalue's own magnitude (plus one),
    # not to the matrix norm: multiplication matrices routinely carry huge
    # irrelevant eigenvalues next to the small real ones that matter, and a
    # norm-relative rule would misclassify everything near the origin.
    idx = [i for i, v in enumerate(values)
           if abs(v.imag) <= DEFAULT_IM_TOL * (1.0 + abs(v.real))]
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


def eig_general(M: np.ndarray) -> EigenResult:
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
        w, v = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    return _classify_real(w[order], v[:, order])


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


_BLOCK = 64   # block column width of the Cholesky factorization and its solves


def _lower_inverse(K: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular block, by halves: [[A, 0], [C, D]] has
    inverse [[A^-1, 0], [-D^-1 C A^-1, D^-1]]."""
    h = (len(K) + 1) // 2
    inv = np.zeros_like(K)
    inv[:h, :h] = np.linalg.inv(K[:h, :h])
    inv[h:, h:] = np.linalg.inv(K[h:, h:])
    inv[h:, :h] = -(inv[h:, h:] @ K[h:, :h]) @ inv[:h, :h]
    return inv


class CholeskyFactor:
    """Lower-triangular Cholesky factor L of an SPD matrix S, with the
    inverses of its diagonal blocks, which serve every triangular solve.

    S is factored in place by left-looking block columns of width _BLOCK:
    one BLAS product subtracts the finished columns' contribution from the
    panel S[s:, s:e], LAPACK factors the panel's diagonal block K, and the
    panel's rows below K are multiplied by K^-T.  S's lower triangle becomes
    L (``L`` is S) and its strict upper triangle is zeroed.  The inverses
    K^-1 are formed once per factor and kept; the inverse of the whole L is
    never formed.  A solve is then two matrix products per block column and
    pass, and it still meets the residual bound
    ||S x - rhs|| <= 1e-10 (||S|| ||x|| + ||rhs||) at condition number 1e12
    and on the interior-point method's last Schur complements of the
    robustness gate.  ``rhs`` may be a vector or a matrix of right-hand-side
    columns.

    Raises NotPositiveDefiniteError when LAPACK refuses a diagonal block or
    the block's factor has a non-finite pivot.
    """

    def __init__(self, S: np.ndarray):
        n = len(S)
        L = self.L = S
        self._blocks = []
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            L[s:, s:e] -= L[s:, :s] @ L[s:e, :s].T
            try:
                K = np.linalg.cholesky(L[s:e, s:e])
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefiniteError(f"{exc} (block column {s}:{e})") from exc
            if not np.all(np.isfinite(np.diagonal(K))):
                raise NotPositiveDefiniteError(f"non-finite Cholesky pivot (block column {s}:{e})")
            L[s:e, s:e] = K
            L[s:e, e:] = 0.0
            inv = _lower_inverse(K)
            L[e:, s:e] = L[e:, s:e] @ inv.T
            self._blocks.append((s, e, inv))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with L L^T x = rhs: L y = rhs forward, then L^T x = y backward."""
        L = self.L
        x = np.array(rhs, dtype=float)
        for s, e, inv in self._blocks:
            x[s:e] = inv @ x[s:e]
            x[e:] -= L[e:, s:e] @ x[s:e]
        for s, e, inv in reversed(self._blocks):
            x[s:e] = inv.T @ x[s:e]
            x[:s] -= L[s:e, :s].T @ x[s:e]
        return x


def spd_cholesky(S: np.ndarray) -> CholeskyFactor:
    """Plain (unpivoted) blocked Cholesky factor of S, written over S: no
    copy is made, so S must be a writeable C-contiguous square float64 array
    (else ValueError).  Raises NotPositiveDefiniteError, leaving S partly
    overwritten, when S is not numerically positive definite or a pivot is
    not finite."""
    if not (isinstance(S, np.ndarray) and S.dtype == np.float64 and S.flags.c_contiguous
            and S.flags.writeable and S.ndim == 2 and len(S) == S.shape[1]):
        raise ValueError("spd_cholesky needs a writeable C-contiguous square float64 array")
    return CholeskyFactor(S)
