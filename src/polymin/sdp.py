"""Self-contained primal-dual interior-point solver for semidefinite programs.

Standard constraint form over a block-diagonal variable X: minimize ``F . X``
subject to ``<G_k, X> = b_k``, every PSD block of X positive semidefinite and
the nonnegative (LP) block elementwise >= 0; the dual maximizes ``b^T y``
subject to ``S = F - sum_k y_k G_k`` lying in the same cone.  Block sizes
follow SDPA: a positive size is a PSD block, a negative size a diagonal block,
which the solver stores and scales as a vector, so linear programs run on the
nonnegative block at vector cost.

The algorithm is path-following with Nesterov-Todd scaling and a Mehrotra
predictor-corrector, run on the homogeneous self-dual embedding so that
primal or dual infeasibility is detected through the collapse of the
embedding's tau/kappa ratio instead of by divergence heuristics.  Scaling,
step lengths and complementarity act block by block, and each PSD block's
Nesterov-Todd frame, which maps X and S to the identity, also gives its step
lengths, so no block is factored twice in an iteration; the (dense, SPD) Schur
complement of the Newton system is formed per Gram index by BLAS products
over the constraints' classes of positions, factored by LAPACK's Cholesky,
and its solves are blocked substitutions.

The constraint matrix A (one row per constraint, flattened by ``_Layout``) is
held only as coordinates sorted by row and then column.  The Schur kernel is
built from them, and y @ A and A @ v are each one scatter-add over them.

A solve call is single-threaded, deterministic and reentrant; independent
problem instances may be solved concurrently.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, field

import numpy as np

from .linalg import NotPositiveDefiniteError, psd_factor, spd_cholesky


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"   # certified by an improving dual ray
    DUAL_INFEASIBLE = "dual_infeasible"       # primal objective unbounded below
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_TROUBLE = "numerical_trouble"


class SdpFailure(RuntimeError):
    """Raised by callers that cannot proceed under a non-optimal status."""

    def __init__(self, status: SdpStatus, detail: str = ""):
        super().__init__(f"SDP solve failed with status {status.value} {detail}".strip())
        self.status = status


# One accuracy for every program the package poses; every solution reports
# these values in its ``tolerances``.
FEAS_TOL = 1e-8
GAP_TOL = 1e-8
MAX_ITER = 200
STEP_FRACTION = 0.95
SIGMA_FLOOR = 0.05      # minimum centering weight, keeps iterates near-central
INFEAS_RATIO = 1e-8     # tau/kappa collapse threshold of the embedding
SLACK_GOAL = 1e-8       # target for ||X S|| / (1 + ||X|| + ||S||) in polish
POLISH_ITERS = 8        # extra centering steps allowed after convergence


def _tolerances() -> dict:
    return {"feas_tol": FEAS_TOL, "gap_tol": GAP_TOL, "max_iter": MAX_ITER,
            "step_fraction": STEP_FRACTION, "sigma_floor": SIGMA_FLOOR,
            "infeas_ratio": INFEAS_RATIO, "slack_goal": SLACK_GOAL,
            "polish_iters": POLISH_ITERS}


class SdpProblem:
    """Constraint-form SDP data: block sizes, cost F and equality pairs (G_k, b_k).

    ``blocks`` is the side length of a single PSD block or a list of block
    sizes in SDPA's convention (positive: PSD block, negative: diagonal block
    of that length), laid along the diagonal of one ``dim x dim`` index space.
    Cost and constraint matrices are sparse coordinate maps ``{(i, j): v}``
    with ``i <= j`` inside one block (``i == j`` in a diagonal block); an
    off-diagonal entry v stands for the symmetric pair, so
    ``<G, X> = sum v * X[i,j] * (2 if i < j else 1)``.  F may also be given
    as a dense symmetric ``dim x dim`` array.
    """

    def __init__(self, blocks, F, constraints):
        sizes = [blocks] if np.ndim(blocks) == 0 else list(blocks)
        self.blocks = [int(s) for s in sizes]
        if any(s == 0 for s in self.blocks):
            raise ValueError("block sizes must be nonzero")
        lengths = [abs(s) for s in self.blocks]
        self.dim = sum(lengths)
        self.offsets = [sum(lengths[:b]) for b in range(len(lengths))]
        self._owner = [b for b, n in enumerate(lengths) for _ in range(n)]
        if not isinstance(F, dict):
            F = np.asarray(F, dtype=float)
            if F.shape != (self.dim, self.dim):
                raise ValueError(f"F must be {self.dim}x{self.dim}")
            scale = max(1.0, float(np.max(np.abs(F))) if F.size else 1.0)
            if self.dim and np.max(np.abs(F - F.T)) > 1e-12 * scale:
                raise ValueError("F must be symmetric")
            F = (F + F.T) / 2.0
            F = {(int(i), int(j)): F[i, j] for i, j in zip(*np.nonzero(np.triu(F)))}
        self.cost = self._entries(F, "cost")
        self.constraints = [(self._entries(g, "constraint"), float(bk))
                            for g, bk in constraints]

    def _entries(self, g: dict, what: str) -> dict:
        out = {}
        for (i, j), v in g.items():
            if not (0 <= i <= j < self.dim):
                raise ValueError(f"{what} entry ({i},{j}) out of range or not upper")
            b = self._owner[i]
            if self._owner[j] != b or (self.blocks[b] < 0 and i != j):
                raise ValueError(f"{what} entry ({i},{j}) lies outside the blocks")
            if v != 0:
                out[(i, j)] = float(v)
        return out

    def locate(self, i: int) -> tuple[int, int]:
        """(block number, index inside the block) of a global index."""
        b = self._owner[i]
        return b, i - self.offsets[b]

    @property
    def F(self) -> np.ndarray:
        """The cost as a dense ``dim x dim`` matrix."""
        return _dense(self.dim, self.cost)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def constraint_dense(self, k: int) -> np.ndarray:
        return _dense(self.dim, self.constraints[k][0])

    def b_vector(self) -> np.ndarray:
        return np.array([bk for _, bk in self.constraints])


def _dense(dim: int, entries: dict) -> np.ndarray:
    G = np.zeros((dim, dim))
    for (i, j), v in entries.items():
        G[i, j] = v
        G[j, i] = v
    return G


@dataclass
class IterateRecord:
    iteration: int
    mu: float
    tau: float
    kappa: float
    alpha: float
    rel_primal: float
    rel_dual: float
    primal_obj: float
    dual_obj: float
    embedding_gap: float


@dataclass
class SdpSolution:
    """Solver outcome.  ``X_blocks``/``S_blocks`` hold one array per block of
    the problem: a matrix per PSD block, a vector per diagonal block."""

    status: SdpStatus
    X_blocks: list | None
    y: np.ndarray | None
    S_blocks: list | None
    primal_obj: float | None
    dual_obj: float | None
    gap: float | None
    iterations: int
    trace: list[IterateRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    certificate: dict | None = None

    @property
    def X(self) -> np.ndarray | None:
        """The primal as one dense matrix (a lone PSD block as it is)."""
        return _block_diag(self.X_blocks)

    @property
    def S(self) -> np.ndarray | None:
        return _block_diag(self.S_blocks)


def _block_diag(parts):
    if parts is None or (len(parts) == 1 and parts[0].ndim == 2):
        return None if parts is None else parts[0]
    out, at = np.zeros((sum(len(p) for p in parts),) * 2), 0
    for p in parts:
        out[at : at + len(p), at : at + len(p)] = p if p.ndim == 2 else np.diag(p)
        at += len(p)
    return out


# ---------------------------------------------------------------------------
# Vectorization
# ---------------------------------------------------------------------------

def _sym(A: np.ndarray) -> np.ndarray:
    return (A + A.T) / 2.0


class _Layout:
    """Flattening of block-diagonal matrices into one vector: a PSD block by
    its upper triangle (row-major), a diagonal block by its entries.  The
    iterates live in this space; ``mat`` unpacks them into one array per
    block where the cone's structure matters."""

    def __init__(self, prob: SdpProblem):
        self.prob = prob
        lengths = [s * (s + 1) // 2 if s > 0 else -s for s in prob.blocks]
        starts = np.cumsum([0] + lengths)
        self.slices = [slice(int(a), int(c)) for a, c in zip(starts[:-1], starts[1:])]
        self.size = int(starts[-1])
        self.iu = [np.triu_indices(s) if s > 0 else None for s in prob.blocks]
        self.weights = np.ones(self.size)
        for sl, iu in zip(self.slices, self.iu):
            if iu is not None:
                self.weights[sl][iu[0] != iu[1]] = 2.0

    def column(self, i: int, j: int) -> int:
        b, li = self.prob.locate(i)
        s = self.prob.blocks[b]
        local = _tri_pos(s, li, j - self.prob.offsets[b]) if s > 0 else li
        return self.slices[b].start + local

    def row(self, entries: dict) -> np.ndarray:
        out = np.zeros(self.size)
        for (i, j), v in entries.items():
            out[self.column(i, j)] = v
        return out

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """The trace inner product of the matrices u and v flatten."""
        return float((u * self.weights) @ v)

    def vec(self, parts) -> np.ndarray:
        out = np.empty(self.size)
        for p, sl, iu in zip(parts, self.slices, self.iu):
            out[sl] = p if iu is None else p[iu]
        return out

    def mat(self, v: np.ndarray) -> list:
        parts = []
        for s, sl, iu in zip(self.prob.blocks, self.slices, self.iu):
            full = v[sl].copy() if iu is None else np.zeros((s, s))
            if iu is not None:
                full[iu] = full[iu[1], iu[0]] = v[sl]
            parts.append(full)
        return parts

    def identity(self) -> np.ndarray:
        return self.vec([np.eye(s) if s > 0 else np.ones(-s) for s in self.prob.blocks])


def _tri_pos(N: int, i: int, j: int) -> int:
    # position of (i, j), i <= j, in row-major upper-triangle order
    return i * N - i * (i - 1) // 2 + (j - i)


def _coordinates(lay: _Layout, constraints) -> tuple:
    """(rows, cols, vals) of the constraint matrix A, whose row k is
    constraint k flattened by ``lay``: one triple per nonzero, sorted by row
    and then column, the order in which np.nonzero lists A's entries."""
    rows, cols, vals = [], [], []
    for k, (g, _) in enumerate(constraints):
        for (i, j), v in g.items():
            rows.append(k)
            cols.append(lay.column(i, j))
            vals.append(v)
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.array(vals, dtype=float)[order]


def _combine_rows(coords: tuple, y: np.ndarray, size: int) -> np.ndarray:
    """y @ A as one scatter-add over A's coordinates.  Where every column
    of A has one nonzero, as in a plain SOS program, each entry is a single
    product and equals the dense product's bit for bit."""
    rows, cols, vals = coords
    return np.bincount(cols, weights=y[rows] * vals, minlength=size)


def _rows_dot(coords: tuple, weights: np.ndarray, V: np.ndarray, M: int) -> np.ndarray:
    """A @ (weights * V), i.e. <G_k, V> for the M rows, as one scatter-add."""
    rows, cols, vals = coords
    return np.bincount(rows, weights=vals * weights[cols] * V[cols], minlength=M)


class _NtFrame:
    """Nesterov-Todd scaling data of one PSD block for one iteration.

    W satisfies W S W = X; ``lam`` is the common scaled point
    W^{-1/2} X W^{-1/2} = W^{1/2} S W^{1/2}, whose eigenbasis makes the
    linearized complementarity a diagonal Lyapunov solve.  With
    lam = Q diag(l) Q^T, H_x = l^{-1/2} Q^T W^{-1/2} and
    H_s = l^{-1/2} Q^T W^{1/2} take X and S to I, so the frame also sizes
    the step and X and S are factored nowhere else.
    """

    def __init__(self, X: np.ndarray, S: np.ndarray):
        es, Us = np.linalg.eigh(S)
        es = np.maximum(es, 1e-300)
        S_half = (Us * np.sqrt(es)) @ Us.T
        S_mhalf = (Us / np.sqrt(es)) @ Us.T
        self.S_inv = _sym((Us / es) @ Us.T)
        T = _sym(S_half @ X @ S_half)
        et, Ut = np.linalg.eigh(T)
        et = np.maximum(et, 1e-300)
        T_half = (Ut * np.sqrt(et)) @ Ut.T
        self.W = _sym(S_mhalf @ T_half @ S_mhalf)
        ew, Uw = np.linalg.eigh(self.W)
        ew = np.maximum(ew, 1e-300)
        self.W_half = (Uw * np.sqrt(ew)) @ Uw.T
        self.W_mhalf = (Uw / np.sqrt(ew)) @ Uw.T
        lam = _sym(self.W_mhalf @ X @ self.W_mhalf)
        self.lam_vals, self.lam_vecs = np.linalg.eigh(lam)
        self.lam = lam
        root = np.sqrt(self.lam_vals)[:, None]
        self.H = {"x": (self.lam_vecs.T @ self.W_mhalf) / root,
                  "s": (self.lam_vecs.T @ self.W_half) / root}

    def scale(self, U: np.ndarray) -> np.ndarray:
        return _sym(self.W @ U @ self.W)

    def max_step(self, dU: np.ndarray, side: str) -> float:
        """Largest alpha keeping X + alpha*dU (side "x") or S + alpha*dU
        (side "s") PSD: -1/lambda_min of H dU H^T; 0 on breakdown."""
        if not np.all(np.isfinite(dU)):
            return 0.0
        H = self.H[side]
        try:
            lam_min = float(np.linalg.eigvalsh(_sym(H @ dU @ H.T))[0])
        except np.linalg.LinAlgError:
            return 0.0
        if not np.isfinite(lam_min):
            return 0.0
        return np.inf if lam_min >= -1e-16 else -1.0 / lam_min

    def lyapunov_solve(self, R: np.ndarray) -> np.ndarray:
        """Solve lam o U = R (o the symmetrized product) for symmetric U."""
        Q = self.lam_vecs
        Rt = Q.T @ R @ Q
        denom = 0.5 * (self.lam_vals[:, None] + self.lam_vals[None, :])
        return _sym(Q @ (Rt / denom) @ Q.T)

    def second_order_residual(self, sigma_mu: float, dXa: np.ndarray,
                              dSa: np.ndarray) -> np.ndarray:
        """Mehrotra corrector right-hand side in the original space."""
        dXs = _sym(self.W_mhalf @ dXa @ self.W_mhalf)
        dSs = _sym(self.W_half @ dSa @ self.W_half)
        cross = _sym(dXs @ dSs)
        R = sigma_mu * np.eye(len(dXa)) - _sym(self.lam @ self.lam) - cross
        U = self.lyapunov_solve(R)
        return _sym(self.W_half @ U @ self.W_half)


class _LpFrame:
    """The same scaling for a diagonal block, where it is elementwise:
    W = diag(sqrt(x / s)) and the Lyapunov solve is a division."""

    def __init__(self, x: np.ndarray, s: np.ndarray):
        self.x, self.s = x, s
        self.w2 = x / s
        self.S_inv = 1.0 / s

    def scale(self, u: np.ndarray) -> np.ndarray:
        return self.w2 * u

    def max_step(self, du: np.ndarray, side: str) -> float:
        """The ratio test on x (side "x") or s (side "s")."""
        v = self.x if side == "x" else self.s
        neg = du < 0
        return float(np.min(-v[neg] / du[neg])) if np.any(neg) else np.inf

    def second_order_residual(self, sigma_mu: float, dxa: np.ndarray,
                              dsa: np.ndarray) -> np.ndarray:
        return (sigma_mu - self.x * self.s - dxa * dsa) / self.s


# ---------------------------------------------------------------------------
# Schur complement
# ---------------------------------------------------------------------------

class _SchurKernel:
    """The Schur complement ``<G_k, W G_l W>`` of the kept rows, by class.

    Positions (i, j) of a PSD block whose columns of the constraint matrix
    are equal form a class c; in an SOS program these are the Gram pairs of
    one monomial x^(b_i + b_j).  The block's part of G_k is
    sum_c T[k, c] A_c, with A_c the symmetric indicator of class c: T is the
    identity in a plain SOS program and the multiplier's shift in a
    multiplier program, and an SDPA problem's positions are classes of their
    own.  G_k[i, j] = T[k, cls(i, j)] is read off the column of position
    (i, j), so no class labels are formed.  Per Gram index a, one BLAS
    product adds the terms of a:

        R_a[a', k] = sum_b W[a, b] T[k, cls(a', b)]    (column a of G_k W)
        P_a[l, j]  = T[l, cls(a, j)] for j >= a, doubled for j > a
        schur[l]  += (P_a W R_a)[l]

    since (W R_a)[j, k] = (W G_k W)[j, a] and both trace factors are
    symmetric.  The R_a are the rows of one product W E, with
    E[b, (a', k)] = T[k, cls(a', b)] on the cells (a', k) that occur, and
    the P_a W are slices of one product with the stacked P_a.  The rows l of
    one a are distinct, so repeats (the shifts of a multiplier, a class met
    twice along a Gram row) add up inside the products.  A diagonal block
    adds (A w2) A^T.  The kernel is built from A's coordinates
    (``_coordinates``) for M rows.
    """

    def __init__(self, lay: _Layout, M: int, coords: tuple):
        self.M = M
        rows, cols, vals = coords
        self.parts = []
        for N, sl, iu in zip(lay.prob.blocks, lay.slices, lay.iu):
            inside = (cols >= sl.start) & (cols < sl.stop)
            ks, ps, V = rows[inside], cols[inside] - sl.start, vals[inside]
            if iu is None:
                part = np.zeros((M, -N))
                part[ks, ps] = V
                self.parts.append(part)
                continue
            if not len(ks):
                self.parts.append(None)
                continue
            I, J = iu[0][ps], iu[1][ps]
            off = I != J
            # E: the entry at (i, j) is G_k[i, j] and G_k[j, i]
            cells, at = np.unique(np.concatenate([I * M + ks, (J * M + ks)[off]]),
                                  return_inverse=True)
            E = np.zeros((N, len(cells)))
            E[np.concatenate([J, I[off]]), at] = np.concatenate([V, V[off]])
            # stacked P_a: one row per distinct (a, l), sorted by a
            targets, at = np.unique(I * M + ks, return_inverse=True)
            P = np.zeros((len(targets), N))
            P[at, J] = np.where(off, 2.0 * V, V)
            bounds = np.searchsorted(targets // M, np.arange(N + 1)).tolist()
            self.parts.append((cells, E, P, targets % M, bounds))

    def assemble(self, scalings: list) -> np.ndarray:
        """The Schur matrix for one scaling per block: W of a PSD block,
        w2 = x / s of a diagonal block.  It is symmetric up to rounding and
        left so: the Cholesky factorization reads one triangle."""
        M = self.M
        schur = np.zeros((M, M))
        for part, w in zip(self.parts, scalings):
            if part is None:
                continue
            if w.ndim == 1:
                schur += (part * w) @ part.T
                continue
            cells, E, P, rows, bounds = part
            WE, PW = w @ E, P @ w
            # every R_a fills the same cells, so R is cleared once
            R = np.zeros((len(w), M))
            R_cells = R.reshape(-1)
            for a in range(len(w)):
                s, e = bounds[a], bounds[a + 1]
                if s < e:
                    R_cells[cells] = WE[a]
                    add = PW[s:e] @ R
                    add += schur[rows[s:e]]
                    schur[rows[s:e]] = add
        return schur


def _factor_schur(Mmat: np.ndarray):
    """Cholesky factor of the Schur matrix; a failed attempt is retried
    twice, with a diagonal jitter that grows 100-fold and is written into
    Mmat's diagonal.  None if all fail."""
    M = len(Mmat)
    base = np.trace(Mmat) / M if M else 1.0
    diag = np.diagonal(Mmat).copy()
    jitter = 0.0
    for _ in range(3):
        try:
            return spd_cholesky(Mmat)
        except NotPositiveDefiniteError:
            jitter = max(jitter * 100, 1e-13 * max(base, 1e-30))
            np.fill_diagonal(Mmat, diag + jitter)
    return None


# ---------------------------------------------------------------------------
# Rank filter
# ---------------------------------------------------------------------------

def _rank_filter(gram: np.ndarray, b: np.ndarray, warnings_out: list[str]):
    """Drop linearly dependent constraint rows; flag inconsistent duplicates.

    ``gram`` holds the trace inner products <G_k, G_l> of the rows; a dropped
    row k's column gram[kept, k] gives its coefficients in the kept rows.
    Returns (kept_indices, inconsistent: bool).
    """
    M = len(gram)
    if M == 0:
        return [], False
    # Independent rows, the builders' case, pass one LAPACK Cholesky whose
    # pivots all clear psd_factor's threshold; anything else goes to the
    # pivoted search, which picks the rows to keep.
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2
        if np.min(pivots) > 1e-13 * np.max(np.abs(gram)):
            return list(range(M)), False
    except np.linalg.LinAlgError:
        pass
    fact = psd_factor(_sym(gram), tol=1e-13)
    kept = sorted(fact.pivots[: fact.rank]) if fact.rank else []
    if len(kept) == M:
        return kept, False
    kept_set = set(kept)
    dropped = [k for k in range(M) if k not in kept_set]
    if kept:
        gram_kept = gram[np.ix_(kept, kept)]
        for k in dropped:
            coeff, *_ = np.linalg.lstsq(gram_kept, gram[kept, k], rcond=None)
            if abs(b[k] - coeff @ b[kept]) > 1e-8 * (1.0 + abs(b[k])):
                return kept, True
    else:
        for k in dropped:
            if abs(b[k]) > 1e-12:
                return kept, True
    warnings_out.append(
        f"removed {len(dropped)} linearly dependent constraint row(s): {dropped}"
    )
    return kept, False


# ---------------------------------------------------------------------------
# Main solver
# ---------------------------------------------------------------------------

def solve(prob: SdpProblem) -> SdpSolution:
    """Solve the SDP on the homogeneous self-dual embedding.

    Deterministic for identical inputs: fixed initialization
    X = S = I * (1 + max|b| + max|F|), y = 0, tau = kappa = 1, and no
    randomized pivoting anywhere.
    """
    warnings_out: list[str] = []
    lay = _Layout(prob)
    nu = prob.dim                    # barrier degree of the cone

    M = prob.num_constraints
    rows, cols, vals = coords = _coordinates(lay, prob.constraints)
    schur = _SchurKernel(lay, M, coords)
    # at unit scaling (W = I, w2 = 1) the Schur complement is <G_k, G_l>
    kept, inconsistent = _rank_filter(schur.assemble(lay.mat(lay.identity())),
                                      prob.b_vector(), warnings_out)
    if inconsistent:
        return SdpSolution(
            status=SdpStatus.PRIMAL_INFEASIBLE, X_blocks=None, y=None, S_blocks=None,
            primal_obj=None, dual_obj=None, gap=None, iterations=0,
            warnings=warnings_out + ["inconsistent dependent constraint rows"],
            tolerances=_tolerances(),
        )
    b = np.array([prob.constraints[k][1] for k in kept])
    if len(kept) < M:
        renumber = np.full(M, -1)
        renumber[kept] = np.arange(len(kept))
        keep = renumber[rows] >= 0
        coords = renumber[rows][keep], cols[keep], vals[keep]
        M = len(kept)
        schur = _SchurKernel(lay, M, coords)
    F = lay.row(prob.cost)

    def rows_dot(V: np.ndarray) -> np.ndarray:
        """<G_k, V> for every kept row k."""
        return _rows_dot(coords, lay.weights, V, M)

    def rows_combine(v: np.ndarray) -> np.ndarray:
        """sum_k v_k G_k, flattened: v @ A."""
        return _combine_rows(coords, v, lay.size)

    bmax = float(np.max(np.abs(b))) if M else 0.0
    fmax = float(np.max(np.abs(F))) if F.size else 0.0
    rho = 1.0 + bmax + fmax
    X = lay.identity() * rho
    S = lay.identity() * rho
    y = np.zeros(M)
    tau, kappa = 1.0, 1.0

    trace: list[IterateRecord] = []
    stall_strikes = 0
    last_alpha = 1.0
    best = None          # best converged iterate by slack-product residual
    relaxed = None       # latest iterate within the relaxed tolerances
    polish_used = 0

    def finish(status, Xh=None, yh=None, Sh=None, cert=None, iters=0):
        pobj = lay.dot(F, Xh) if Xh is not None else None
        dobj = float(b @ yh) if yh is not None else None
        gap = pobj - dobj if (pobj is not None and dobj is not None) else None
        y_full = None
        if yh is not None:
            y_full = np.zeros(prob.num_constraints)
            y_full[kept] = yh
        return SdpSolution(
            status=status, X_blocks=lay.mat(Xh) if Xh is not None else None, y=y_full,
            S_blocks=lay.mat(Sh) if Sh is not None else None, primal_obj=pobj,
            dual_obj=dobj, gap=gap, iterations=iters, trace=trace,
            warnings=warnings_out, tolerances=_tolerances(), certificate=cert,
        )

    for it in range(MAX_ITER + 1):
        FX = lay.dot(F, X)
        by = float(b @ y) if M else 0.0
        XS = lay.dot(X, S)
        mu = (XS + tau * kappa) / (nu + 1)

        AX = rows_dot(X)
        P = AX - tau * b
        D = rows_combine(y) + S - tau * F
        g_res = kappa + FX - by

        rel_p = (float(np.max(np.abs(P))) / (tau * (1.0 + bmax))) if M else 0.0
        rel_d = float(np.max(np.abs(D))) / (tau * (1.0 + fmax))
        pobj = FX / tau
        dobj = by / tau
        denom_obj = 1.0 + abs(pobj) + abs(dobj)
        rel_gap = abs(pobj - dobj) / denom_obj
        compl = (XS / tau**2) / denom_obj
        # breakdown and iteration-cap exits may still carry a usable answer:
        # an iterate within 100x of the strict tolerances
        relaxed_ok = (max(rel_p, rel_d) <= 100 * FEAS_TOL
                      and rel_gap <= 100 * GAP_TOL
                      and compl <= 1e4 * GAP_TOL)
        if relaxed_ok:
            relaxed = (X / tau, y / tau, S / tau)

        trace.append(IterateRecord(
            iteration=it, mu=mu, tau=tau, kappa=kappa, alpha=last_alpha,
            rel_primal=rel_p, rel_dual=rel_d, primal_obj=pobj, dual_obj=dobj,
            embedding_gap=XS + tau * kappa,
        ))

        converged_now = (
            rel_p <= FEAS_TOL and rel_d <= FEAS_TOL
            and rel_gap <= GAP_TOL and compl <= GAP_TOL
        )
        if converged_now:
            # Centering polish: Mehrotra's aggressive last steps leave X*S
            # far from mu*I even though trace complementarity is tiny, so we
            # recenter at the current mu until the slack product is clean.
            Xh, Sh = X / tau, S / tau
            # normalized by both sides: which one carries the moments
            # depends on how the caller posed the problem
            XS_norm = np.sqrt(sum(np.linalg.norm(x @ s if x.ndim == 2 else x * s) ** 2
                                  for x, s in zip(lay.mat(Xh), lay.mat(Sh))))
            slack_rel = XS_norm / (1.0 + np.sqrt(lay.dot(Xh, Xh)) + np.sqrt(lay.dot(Sh, Sh)))
            if best is None or slack_rel < best[0]:
                best = (slack_rel, Xh, y / tau, Sh, it)
            polish_used += 1
            if best[0] <= SLACK_GOAL or polish_used > POLISH_ITERS:
                return finish(SdpStatus.OPTIMAL, best[1], best[2], best[3], iters=it)
        elif best is not None:
            # roundoff pushed a converged iterate back out; stop polishing
            return finish(SdpStatus.OPTIMAL, best[1], best[2], best[3], iters=it)

        def best_or(status):
            if best is not None:
                return finish(SdpStatus.OPTIMAL, best[1], best[2], best[3], iters=it)
            capped = status is SdpStatus.ITERATION_LIMIT
            if capped and not relaxed_ok:
                return finish(status, X / tau, y / tau, S / tau, iters=it)
            if relaxed is None:
                return finish(status, iters=it)
            # a breakdown may come a few iterations after the last such iterate
            warnings_out.append("converged at reduced accuracy " + (
                "at the iteration cap" if capped else "before numerical breakdown"))
            return finish(SdpStatus.OPTIMAL, *relaxed, iters=it)

        if tau <= INFEAS_RATIO * max(1.0, kappa):
            # the embedding's tau/kappa balance collapsed: no optimum exists
            if by > 0 and float(np.max(np.abs(rows_combine(y) + S))) <= 1e-6 * by * (1 + fmax):
                cert = {"kind": "dual_ray", "y": y / by, "S": lay.mat(S / by)}
                return finish(SdpStatus.PRIMAL_INFEASIBLE, cert=cert, iters=it)
            gXnorm = float(np.max(np.abs(AX))) if M else 0.0
            if FX < 0 and gXnorm <= 1e-6 * (-FX):
                cert = {"kind": "primal_ray", "X": lay.mat(X / (-FX))}
                return finish(SdpStatus.DUAL_INFEASIBLE, cert=cert, iters=it)
            # Weakly infeasible regime: tau and kappa vanish together and no
            # Farkas ray exists.  A bounded problem's scaled objective is
            # Cauchy by now, so steady geometric divergence over the recent
            # iterations identifies the unbounded direction.
            past = trace[-9].primal_obj if len(trace) >= 9 else trace[0].primal_obj
            past_d = trace[-9].dual_obj if len(trace) >= 9 else trace[0].dual_obj
            if rel_d <= 1e-5 and pobj < -10 * rho and pobj <= 1.5 * min(past, 0.0):
                warnings_out.append(
                    "unboundedness inferred from objective divergence (no ray)"
                )
                return finish(SdpStatus.DUAL_INFEASIBLE, iters=it)
            if rel_p <= 1e-5 and dobj > 10 * rho and dobj >= 1.5 * max(past_d, 0.0):
                warnings_out.append(
                    "infeasibility inferred from dual objective divergence (no ray)"
                )
                return finish(SdpStatus.PRIMAL_INFEASIBLE, iters=it)
            # an objective still diverging steadily gets further iterations
            # to grow past the data scale; anything else is a breakdown
            if not (pobj < 0 and pobj <= 1.5 * min(past, 0.0)
                    or dobj > 0 and dobj >= 1.5 * max(past_d, 0.0)):
                warnings_out.append("tau/kappa collapsed without a clean certificate")
                return finish(SdpStatus.NUMERICAL_TROUBLE, iters=it)

        if it == MAX_ITER:
            return best_or(SdpStatus.ITERATION_LIMIT)

        try:
            frames = [_NtFrame(x, s) if x.ndim == 2 else _LpFrame(x, s)
                      for x, s in zip(lay.mat(X), lay.mat(S))]
        except np.linalg.LinAlgError:
            warnings_out.append("NT scaling eigendecomposition failed")
            return best_or(SdpStatus.NUMERICAL_TROUBLE)

        def scaled(U: np.ndarray) -> np.ndarray:
            return lay.vec([fr.scale(u) for fr, u in zip(frames, lay.mat(U))])

        chol = None     # the last factor is dead: free it before the next matrix
        chol = _factor_schur(schur.assemble([fr.W if isinstance(fr, _NtFrame) else fr.w2
                                             for fr in frames]))
        if chol is None:
            warnings_out.append("Schur complement lost positive definiteness")
            return best_or(SdpStatus.NUMERICAL_TROUBLE)
        WFW = scaled(F)
        gvec = rows_dot(WFW)
        phi = lay.dot(F, WFW)
        WDW = scaled(D)
        residual_rhs = rows_dot(WDW) + P

        u = gvec + b

        def schur_rhs(eta, ARc):
            """The Schur system's right-hand side; ARc is rows_dot(Rc)."""
            return -ARc - eta * residual_rhs

        def direction(eta, Rc, rtk, v1):
            den = float((b - gvec) @ v2) + phi + kappa / tau
            num = (rtk / tau + eta * (g_res + lay.dot(F, WDW))
                   + lay.dot(F, Rc) - float((b - gvec) @ v1))
            dtau = num / den
            dy = v1 + dtau * v2
            dkappa = (rtk - kappa * dtau) / tau
            dS = dtau * F - rows_combine(dy) - eta * D
            dX = Rc - scaled(dS)
            return dX, dy, dS, dtau, dkappa

        if converged_now:
            # pure centering: keep residuals and mu, pull X*S toward mu*I
            eta, Rc, rtk = 0.0, mu * lay.vec([fr.S_inv for fr in frames]) - X, mu - tau * kappa
            ARc = rows_dot(Rc)
        else:
            eta, Rc, rtk = 1.0, -X, -tau * kappa      # predictor
            ARc = -AX                                 # rows_dot(-X), exactly
        # v2 and the first direction's right-hand side share one solve
        v2, v1 = chol.solve(np.column_stack([u, schur_rhs(eta, ARc)])).T
        dX, dy, dS, dtau, dkappa = direction(eta, Rc, rtk, v1)

        def step_bound(dX, dS, dtau, dkappa):
            """Largest step keeping X, S, tau and kappa in their cones; None
            (with a warning) for a non-finite direction."""
            if not (np.all(np.isfinite(dX)) and np.all(np.isfinite(dS))
                    and np.isfinite(dtau) and np.isfinite(dkappa)):
                warnings_out.append("non-finite search direction")
                return None
            return min([fr.max_step(dx, "x") for fr, dx in zip(frames, lay.mat(dX))]
                       + [fr.max_step(ds, "s") for fr, ds in zip(frames, lay.mat(dS))]
                       + [(tau / -dtau) if dtau < 0 else np.inf,
                          (kappa / -dkappa) if dkappa < 0 else np.inf])

        if not converged_now:
            dXa, dSa, dtaua, dkappaa = dX, dS, dtau, dkappa
            bound = step_bound(dXa, dSa, dtaua, dkappaa)
            if bound is None:
                return best_or(SdpStatus.NUMERICAL_TROUBLE)
            alpha_a = min(1.0, bound)
            mu_aff = (
                lay.dot(X + alpha_a * dXa, S + alpha_a * dSa)
                + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)
            ) / (nu + 1)
            sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, SIGMA_FLOOR), 0.999)

            # corrector with the NT-scaled Mehrotra second-order term
            Rc = lay.vec([fr.second_order_residual(sigma * mu, a, s)
                          for fr, a, s in zip(frames, lay.mat(dXa), lay.mat(dSa))])
            rtk = sigma * mu - tau * kappa - dtaua * dkappaa
            dX, dy, dS, dtau, dkappa = direction(
                1.0 - sigma, Rc, rtk, chol.solve(schur_rhs(1.0 - sigma, rows_dot(Rc))))

        bound = step_bound(dX, dS, dtau, dkappa)
        if bound is None:
            return best_or(SdpStatus.NUMERICAL_TROUBLE)
        alpha = min(1.0, STEP_FRACTION * bound)
        if not np.isfinite(alpha) or alpha <= 0:
            alpha = 0.0
        if alpha < 1e-8:
            stall_strikes += 1
            if stall_strikes >= 3:
                warnings_out.append("step length collapsed")
                return best_or(SdpStatus.NUMERICAL_TROUBLE)
        else:
            stall_strikes = 0

        X = X + alpha * dX
        S = S + alpha * dS
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa
        last_alpha = alpha

    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Duality report
# ---------------------------------------------------------------------------

@dataclass
class DualityReport:
    slack_residual: float
    slack_tol: float
    complementary_ok: bool
    weak_duality_margin: float
    weak_duality_ok: bool
    primal_residual: float
    dual_min_eig: float


def check_duality(prob: SdpProblem, sol: SdpSolution,
                  slack_tol: float = 1e-6, gap_tol: float = 1e-8) -> DualityReport:
    """Complementary-slackness and weak-duality report for an Optimal solution."""
    if sol.status is not SdpStatus.OPTIMAL:
        raise ValueError("duality report requires an optimal solution")
    X, y = sol.X, sol.y
    Smat = prob.F - sum(
        yk * prob.constraint_dense(k) for k, yk in enumerate(y)
    ) if prob.num_constraints else prob.F.copy()
    xnorm = float(np.linalg.norm(X))
    resid = float(np.linalg.norm(X @ Smat))
    tol = slack_tol * (1.0 + xnorm)
    margin = sol.primal_obj - sol.dual_obj
    b = prob.b_vector()
    prim = max(
        (abs(float(np.tensordot(prob.constraint_dense(k), X)) - b[k])
         for k in range(prob.num_constraints)),
        default=0.0,
    )
    min_eig = float(np.linalg.eigvalsh(_sym(Smat))[0]) if prob.dim else 0.0
    return DualityReport(
        slack_residual=resid,
        slack_tol=tol,
        complementary_ok=resid <= tol,
        weak_duality_margin=margin,
        weak_duality_ok=margin >= -gap_tol * (1.0 + abs(sol.primal_obj)),
        primal_residual=prim,
        dual_min_eig=min_eig,
    )


# ---------------------------------------------------------------------------
# Linear programming on the nonnegative block
# ---------------------------------------------------------------------------

@dataclass
class LpSolution:
    status: SdpStatus
    x: np.ndarray | None
    value: float | None
    y: np.ndarray | None


def solve_lp(c, rows) -> LpSolution:
    """Minimize c @ x subject to a_k @ x = b_k and x >= 0, one diagonal block."""
    c = np.asarray(c, dtype=float)
    V = len(c)
    constraints = []
    for a, bk in rows:
        a = np.asarray(a, dtype=float)
        if len(a) != V:
            raise ValueError("row length mismatch")
        constraints.append(({(i, i): a[i] for i in np.flatnonzero(a)}, bk))
    problem = SdpProblem([-V], {(i, i): c[i] for i in np.flatnonzero(c)}, constraints)
    sol = solve(problem)
    if sol.status is not SdpStatus.OPTIMAL:
        return LpSolution(status=sol.status, x=None, value=None, y=sol.y)
    x = sol.X_blocks[0]
    return LpSolution(status=sol.status, x=x, value=float(c @ x), y=sol.y)


# ---------------------------------------------------------------------------
# SDPA sparse format import/export
# ---------------------------------------------------------------------------

def write_sdpa(prob: SdpProblem, path_or_file):
    """Write the problem in SDPA sparse format (.dat-s), one block per block.

    SDPA's native problem is min c^T z with sum_k z_k F_k - F_0 PSD, which is
    our dual with c = -b, F_k = -G_k, F_0 = -F; the mapping is inverted by
    ``read_sdpa``.  Entries carry 1-based indices local to their block.
    """
    own = isinstance(path_or_file, str)
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        fh.write(f"{prob.num_constraints}\n{len(prob.blocks)}\n")
        fh.write(" ".join(str(s) for s in prob.blocks) + "\n")
        fh.write(" ".join(repr(float(-bk)) for _, bk in prob.constraints) + "\n")
        for k, g in enumerate([prob.cost] + [g for g, _ in prob.constraints]):
            for (i, j), v in sorted(g.items()):
                blk, li = prob.locate(i)
                lj = j - prob.offsets[blk]
                fh.write(f"{k} {blk + 1} {li + 1} {lj + 1} {float(-v)!r}\n")
    finally:
        if own:
            fh.close()


def read_sdpa(path_or_file) -> SdpProblem:
    """Read an SDPA sparse file; malformed input raises ValueError."""
    own = isinstance(path_or_file, str)
    fh = open(path_or_file) if own else path_or_file
    try:
        tokens: list[str] = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith(('"', "*", "%")):
                continue
            tokens.extend(line.replace(",", " ").replace("{", " ").replace("}", " ").split())
    finally:
        if own:
            fh.close()
    if len(tokens) < 2:
        raise ValueError("SDPA data ends early")
    m, nblocks = int(tokens[0]), int(tokens[1])
    body = 2 + nblocks + m
    if m < 0 or nblocks < 1 or len(tokens) < body:
        raise ValueError("SDPA header is malformed or the data ends early")
    sizes = [int(float(t)) for t in tokens[2 : 2 + nblocks]]
    shape = SdpProblem(sizes, {}, [])
    gdicts = [dict() for _ in range(m + 1)]
    if (len(tokens) - body) % 5:
        raise ValueError("SDPA entry list is truncated")
    for at in range(body, len(tokens), 5):
        matno, blk, i, j = (int(t) for t in tokens[at : at + 4])
        if not (0 <= matno <= m and 1 <= blk <= nblocks
                and 1 <= i <= abs(sizes[blk - 1]) and 1 <= j <= abs(sizes[blk - 1])):
            raise ValueError(f"SDPA entry {matno} {blk} {i} {j} is out of range")
        off = shape.offsets[blk - 1]
        gdicts[matno][tuple(sorted((off + i - 1, off + j - 1)))] = -float(tokens[at + 4])
    cvec = [float(t) for t in tokens[2 + nblocks : body]]
    return SdpProblem(sizes, gdicts[0], [(g, -ck) for g, ck in zip(gdicts[1:], cvec)])


def sdpa_dumps(prob: SdpProblem) -> str:
    buf = io.StringIO()
    write_sdpa(prob, buf)
    return buf.getvalue()


def sdpa_loads(text: str) -> SdpProblem:
    return read_sdpa(io.StringIO(text))
