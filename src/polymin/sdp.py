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
step lengths and complementarity act block by block.  Each PSD block's
Nesterov-Todd frame is one factor G, built from two eigendecompositions, that
takes X and S to the same diagonal point; it gives the scaling W = G G^T, the
corrector's diagonal solve and the step lengths, so no block is factored
again in an iteration.  The (dense, SPD) Schur complement of the Newton
system is formed per Gram index by BLAS products over the constraints'
classes of positions and factored by ``linalg.spd_cholesky``, a blocked
Cholesky built of BLAS products that keeps the inverses of its diagonal
blocks, so each solve with the factor is matrix products too.

A problem is one coordinate table (``SdpProblem``), sorted as the solver
reads it, and one index expression maps it onto the constraint matrix A (one
row per constraint, flattened by ``_Layout``), so A is held only as
coordinates.  The Schur kernel is built from them, and y @ A and A @ v are
each one scatter-add over them.

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
    The data is one coordinate table: ``cost`` holds F as arrays (i, j, v),
    ``constraints`` the G_k as arrays (k, i, j, v) and ``b`` the right-hand
    sides.  Every entry lies in one block with ``i <= j`` (``i == j`` in a
    diagonal block); an off-diagonal entry v stands for the symmetric pair,
    so ``<G, X> = sum v * X[i,j] * (2 if i < j else 1)``.  The table is kept
    in the solver's order, sorted by row and then (i, j), which is the
    layout's column order; entries given twice at one position are summed in
    the order given, and zeros are dropped.
    """

    def __init__(self, blocks, cost, constraints, b):
        sizes = [blocks] if np.ndim(blocks) == 0 else list(blocks)
        self.blocks = [int(s) for s in sizes]
        if any(s == 0 for s in self.blocks):
            raise ValueError("block sizes must be nonzero")
        lengths = np.abs(self.blocks)
        self.dim = int(np.sum(lengths))
        self.offsets = (np.cumsum(lengths) - lengths).tolist()
        self.b = np.array(b, dtype=float).reshape(-1)
        self.constraints = self._table("constraint", len(self.b), *constraints)
        self.cost = self._table("cost", 1, np.zeros(len(cost[0]), dtype=np.intp), *cost)[1:]

    def _table(self, what: str, rows: int, k, i, j, v) -> tuple:
        k, i, j = (np.asarray(a, dtype=np.intp).reshape(-1) for a in (k, i, j))
        v = np.asarray(v, dtype=float).reshape(-1)
        if not len(k) == len(i) == len(j) == len(v):
            raise ValueError(f"{what} arrays differ in length")
        bad = (k < 0) | (k >= rows) | (i < 0) | (i > j) | (j >= self.dim)
        if np.any(bad):
            at = np.flatnonzero(bad)[0]
            raise ValueError(f"{what} entry {k[at]}: ({i[at]},{j[at]}) out of range or not upper")
        bi, bj = np.searchsorted(self.offsets, [i, j], side="right") - 1
        bad = (bi != bj) | ((np.array(self.blocks)[bi] < 0) & (i != j))
        if np.any(bad):
            at = np.flatnonzero(bad)[0]
            raise ValueError(f"{what} entry ({i[at]},{j[at]}) lies outside the blocks")
        order = np.lexsort((j, i, k))          # stable: repeats keep their order
        k, i, j, v = k[order], i[order], j[order], v[order]
        first = np.ones(len(k), dtype=bool)
        first[1:] = (np.diff(k) != 0) | (np.diff(i) != 0) | (np.diff(j) != 0)
        # bincount adds each position's entries one by one, in the order given
        # (and gives an int array when there are none)
        v = np.bincount(np.cumsum(first) - 1, weights=v, minlength=int(np.sum(first)))
        keep = v != 0
        return k[first][keep], i[first][keep], j[first][keep], v[keep].astype(float)

    @property
    def num_constraints(self) -> int:
        return len(self.b)


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
    block where the cone's structure matters.  The problem's cost is ``F``
    here, and its constraint matrix A (row k: G_k flattened) is ``A``, held
    only as coordinates (rows, cols, vals) sorted by row and then column,
    the order in which np.nonzero lists A's entries."""

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
        # position (i, j), i <= j, sits in column lead[i] + j: in a PSD block
        # of side s at offset o, row r = i - o of the upper triangle starts
        # at r * s - r * (r - 1) / 2
        lead = []
        for s, o, st in zip(prob.blocks, prob.offsets, starts):
            r = np.arange(abs(s))
            lead.append(st + r * s - r * (r - 1) // 2 - (o + r) if s > 0 else np.full(-s, st - o))
        lead = np.concatenate(lead)
        k, i, j, v = prob.constraints
        self.A = (k, lead[i] + j, v)
        i, j, v = prob.cost
        self.F = np.zeros(self.size)
        self.F[lead[i] + j] = v

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

    With S^{1/2} X S^{1/2} = U diag(t) U^T, the factor
    G = S^{-1/2} U diag(t^{1/4}) takes X and S to one diagonal point:
    G^{-1} X G^{-T} = G^T S G = diag(d), d = t^{1/2}.  So W = G G^T
    satisfies W S W = X, S^{-1} = G diag(1/d) G^T, the linearized
    complementarity is diagonal in G's frame, and H_x = G^{-1} / sqrt(d)
    and H_s = G^T / sqrt(d) take X and S to I, so the frame also sizes the
    step.  Two eigendecompositions, of S and of S^{1/2} X S^{1/2}, give all
    of it, and X and S are factored nowhere else.
    """

    def __init__(self, X: np.ndarray, S: np.ndarray):
        es, Us = np.linalg.eigh(S)
        rs = np.sqrt(np.maximum(es, 1e-300))
        S_half = (Us * rs) @ Us.T
        t, Ut = np.linalg.eigh(_sym(S_half @ X @ S_half))
        self.d = np.sqrt(np.maximum(t, 1e-300))
        q = np.sqrt(self.d)[:, None]
        V = Us.T @ Ut
        self.G = (Us @ (V / rs[:, None])) * q.T
        self.G_inv = (Ut.T @ S_half) / q
        self.W = _sym(self.G @ self.G.T)
        self.S_inv = _sym((self.G / self.d) @ self.G.T)
        self.H = {"x": self.G_inv / q, "s": self.G.T / q}

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

    def second_order_residual(self, sigma_mu: float, dXa: np.ndarray,
                              dSa: np.ndarray) -> np.ndarray:
        """Mehrotra corrector right-hand side in the original space: the U
        with diag(d) o U = sigma_mu I - diag(d)^2 - sym(dX~ dS~) in G's frame
        (o the symmetrized product), taken back as G U G^T."""
        cross = _sym((self.G_inv @ dXa @ self.G_inv.T) @ (self.G.T @ dSa @ self.G))
        R = np.diag(sigma_mu - self.d ** 2) - cross
        U = R / (0.5 * (self.d[:, None] + self.d[None, :]))
        return _sym(self.G @ U @ self.G.T)


class _LpFrame:
    """The same scaling for a diagonal block, where it is elementwise: W is
    the vector x / s, so ``scale`` is W * u as W U W is for a PSD block, and
    the corrector's solve is a division."""

    def __init__(self, x: np.ndarray, s: np.ndarray):
        self.x, self.s = x, s
        self.W = x / s
        self.S_inv = 1.0 / s

    def scale(self, u: np.ndarray) -> np.ndarray:
        return self.W * u

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
    twice along a Gram row) add up inside the products.  A diagonal block,
    whose W is the vector x / s, adds (A W) A^T.  The kernel is built from
    A's coordinates (``_Layout.A``) for M rows.
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
        """The Schur matrix for one scaling W per block: a matrix for a PSD
        block, the vector x / s for a diagonal block.  It is symmetric up to
        rounding and left so: the Cholesky factorization reads one triangle."""
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

    ``gram`` holds the trace inner products <G_k, G_l> of the rows, so its
    null vectors z are the dependencies sum_k z_k G_k = 0.  Gauss-Jordan
    elimination on the null space, pivoting on each column's largest entry,
    gives one dependency per dropped row k with z_k = 1 and zero on the
    other dropped rows; it is inconsistent when |z.b| > 1e-8 (1 + |b_k|).
    Returns (kept_indices, inconsistent: bool).
    """
    M = len(gram)
    if M == 0:
        return [], False
    # Independent rows, the builders' case, pass one Cholesky factor whose
    # pivots all clear the rank threshold 1e-13 max|gram|; anything else goes
    # to psd_factor, whose null space names the rows to drop.
    try:
        pivots = np.diagonal(spd_cholesky(gram).L) ** 2
        if np.min(pivots) > 1e-13 * np.max(np.abs(gram)):
            return list(range(M)), False
    except NotPositiveDefiniteError:
        pass
    Z = psd_factor(_sym(gram), tol=1e-13).null
    if not Z.size:
        return list(range(M)), False
    dropped = []
    for j in range(Z.shape[1]):
        k = int(np.argmax(np.abs(Z[:, j])))
        Z[:, j] /= Z[k, j]
        pivot_row = Z[k].copy()
        pivot_row[j] = 0.0
        Z -= np.outer(Z[:, j], pivot_row)
        dropped.append(k)
    kept = sorted(set(range(M)) - set(dropped))
    if np.any(np.abs(b @ Z) > 1e-8 * (1.0 + np.abs(b[dropped]))):
        return kept, True
    warnings_out.append(
        f"removed {len(dropped)} linearly dependent constraint row(s): {sorted(dropped)}"
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
    rows, cols, vals = coords = lay.A
    schur = _SchurKernel(lay, M, coords)
    # at unit scaling (W = I on every block) the Schur complement is <G_k, G_l>
    kept, inconsistent = _rank_filter(schur.assemble(lay.mat(lay.identity())),
                                      prob.b, warnings_out)
    if inconsistent:
        return SdpSolution(
            status=SdpStatus.PRIMAL_INFEASIBLE, X_blocks=None, y=None, S_blocks=None,
            primal_obj=None, dual_obj=None, gap=None, iterations=0,
            warnings=warnings_out + ["inconsistent dependent constraint rows"],
            tolerances=_tolerances(),
        )
    b = prob.b[kept]
    if len(kept) < M:
        renumber = np.full(M, -1)
        renumber[kept] = np.arange(len(kept))
        keep = renumber[rows] >= 0
        coords = renumber[rows][keep], cols[keep], vals[keep]
        M = len(kept)
        schur = _SchurKernel(lay, M, coords)
    F = lay.F

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
        chol = _factor_schur(schur.assemble([fr.W for fr in frames]))
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
    lay = _Layout(prob)
    X = sol.X
    # S = F - sum_k y_k G_k by one scatter of y
    Smat = _block_diag(lay.mat(lay.F - _combine_rows(lay.A, sol.y, lay.size)))
    xnorm = float(np.linalg.norm(X))
    resid = float(np.linalg.norm(X @ Smat))
    tol = slack_tol * (1.0 + xnorm)
    margin = sol.primal_obj - sol.dual_obj
    AX = _rows_dot(lay.A, lay.weights, lay.vec(sol.X_blocks), prob.num_constraints)
    prim = float(np.max(np.abs(AX - prob.b), initial=0.0))
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
    A = [np.asarray(a, dtype=float) for a, _ in rows]
    if any(a.shape != (V,) for a in A):
        raise ValueError("row length mismatch")
    A = np.reshape(A, (len(A), V))
    k, x = np.nonzero(A)
    at = np.flatnonzero(c)
    sol = solve(SdpProblem([-V], (at, at, c[at]), (k, x, x, A[k, x]),
                           [bk for _, bk in rows]))
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
        fh.write(" ".join(repr(-bk) for bk in prob.b.tolist()) + "\n")
        # matrix 0 is the cost, matrix k + 1 constraint k
        (k, i, j, v), (ci, cj, cv) = prob.constraints, prob.cost
        k, i, j, v = (np.concatenate(p) for p in
                      ((np.zeros_like(ci), k + 1), (ci, i), (cj, j), (cv, v)))
        blk = np.searchsorted(prob.offsets, i, side="right") - 1
        off = np.array(prob.offsets)[blk]
        for line in zip(k.tolist(), (blk + 1).tolist(), (i - off + 1).tolist(),
                        (j - off + 1).tolist(), (-v).tolist()):
            fh.write("%d %d %d %d %r\n" % line)
    finally:
        if own:
            fh.close()


def read_sdpa(path_or_file) -> SdpProblem:
    """Read an SDPA sparse file; malformed input raises ValueError.

    A position may be given more than once, as (i, j) or as its mirror
    (j, i): an identical repeat is read once, different values are an error.
    """
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
    offsets = np.cumsum([0] + [abs(s) for s in sizes]).tolist()
    if (len(tokens) - body) % 5:
        raise ValueError("SDPA entry list is truncated")
    entries: dict = {}           # (matrix, i, j) with i <= j global -> value
    for at in range(body, len(tokens), 5):
        matno, blk, i, j = (int(t) for t in tokens[at : at + 4])
        if not (0 <= matno <= m and 1 <= blk <= nblocks
                and 1 <= i <= abs(sizes[blk - 1]) and 1 <= j <= abs(sizes[blk - 1])):
            raise ValueError(f"SDPA entry {matno} {blk} {i} {j} is out of range")
        off = offsets[blk - 1]
        key = (matno, off + min(i, j) - 1, off + max(i, j) - 1)
        v = -float(tokens[at + 4])
        if key in entries and entries[key] != v:
            raise ValueError(f"SDPA entry {matno} {blk} {i} {j} conflicts with an earlier one")
        entries[key] = v
    k, i, j = np.array(list(entries), dtype=np.intp).reshape(-1, 3).T
    v = np.array(list(entries.values()), dtype=float)
    c = k == 0
    return SdpProblem(sizes, (i[c], j[c], v[c]), (k[~c] - 1, i[~c], j[~c], v[~c]),
                      [-float(t) for t in tokens[2 + nblocks : body]])


def sdpa_dumps(prob: SdpProblem) -> str:
    buf = io.StringIO()
    write_sdpa(prob, buf)
    return buf.getvalue()


def sdpa_loads(text: str) -> SdpProblem:
    return read_sdpa(io.StringIO(text))
