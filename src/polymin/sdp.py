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
step lengths and complementarity act block by block; the (dense, SPD) Schur
complement of the Newton system is gathered from each constraint's nonzeros
and solved with the package's own Cholesky.

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


@dataclass
class SdpOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    psd_tol: float = 1e-9
    max_iter: int = 200
    step_fraction: float = 0.95
    sigma_floor: float = 0.05     # minimum centering weight, keeps iterates near-central
    infeas_ratio: float = 1e-8   # tau/kappa collapse threshold of the embedding
    slack_goal: float = 1e-8     # target for ||X S|| / (1 + ||X|| + ||S||) in polish
    polish_iters: int = 8        # extra centering steps allowed after convergence

    def as_dict(self) -> dict:
        return {
            "feas_tol": self.feas_tol,
            "gap_tol": self.gap_tol,
            "psd_tol": self.psd_tol,
            "max_iter": self.max_iter,
        }


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


def _max_psd_step(Xmat: np.ndarray, dX: np.ndarray) -> float:
    """Largest alpha with Xmat + alpha*dX still PSD (Xmat PD); 0 on breakdown."""
    if not (np.all(np.isfinite(Xmat)) and np.all(np.isfinite(dX))):
        return 0.0
    try:
        chol = spd_cholesky(Xmat)
        Z = chol.forward(dX)
        A = chol.forward(Z.T)
        lam_min = float(np.linalg.eigvalsh(_sym(A))[0])
    except (NotPositiveDefiniteError, np.linalg.LinAlgError):
        try:
            w, U = np.linalg.eigh(_sym(Xmat))
            w = np.maximum(w, 1e-14 * max(1.0, float(np.max(np.abs(w)))))
            R = (U / np.sqrt(w)) @ U.T
            lam_min = float(np.linalg.eigvalsh(_sym(R @ dX @ R))[0])
        except np.linalg.LinAlgError:
            return 0.0
    if not np.isfinite(lam_min):
        return 0.0
    if lam_min >= -1e-16:
        return np.inf
    return -1.0 / lam_min


def _max_step(X: list, dX: list) -> float:
    """Largest alpha keeping every block of X + alpha*dX in its cone."""
    bound = np.inf
    for x, dx in zip(X, dX):
        if x.ndim == 2:
            bound = min(bound, _max_psd_step(x, dx))
        elif np.any(dx < 0):
            neg = dx < 0
            bound = min(bound, float(np.min(-x[neg] / dx[neg])))
    return bound


class _NtFrame:
    """Nesterov-Todd scaling data of one PSD block for one iteration.

    W satisfies W S W = X; ``lam`` is the common scaled point
    W^{-1/2} X W^{-1/2} = W^{1/2} S W^{1/2}, whose eigenbasis makes the
    linearized complementarity a diagonal Lyapunov solve.
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

    def scale(self, U: np.ndarray) -> np.ndarray:
        return _sym(self.W @ U @ self.W)

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

    def second_order_residual(self, sigma_mu: float, dxa: np.ndarray,
                              dsa: np.ndarray) -> np.ndarray:
        return (sigma_mu - self.x * self.s - dxa * dsa) / self.s


# ---------------------------------------------------------------------------
# Rank filter
# ---------------------------------------------------------------------------

def _rank_filter(Aplain: np.ndarray, weights: np.ndarray, b: np.ndarray,
                 warnings_out: list[str]):
    """Drop linearly dependent constraint rows; flag inconsistent duplicates.

    Returns (kept_indices, inconsistent: bool).
    """
    M = len(Aplain)
    if M == 0:
        return [], False
    weighted = Aplain * weights
    gram = weighted @ Aplain.T
    fact = psd_factor(_sym(gram), tol=1e-13)
    kept = sorted(fact.pivots[: fact.rank]) if fact.rank else []
    if len(kept) == M:
        return kept, False
    dropped = [k for k in range(M) if k not in set(kept)]
    if kept:
        A_kept = weighted[kept]
        gram_kept = gram[np.ix_(kept, kept)]
        for k in dropped:
            rhs = A_kept @ Aplain[k]
            coeff, *_ = np.linalg.lstsq(gram_kept, rhs, rcond=None)
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

def solve(prob: SdpProblem, opts: SdpOptions | None = None) -> SdpSolution:
    """Solve the SDP on the homogeneous self-dual embedding.

    Deterministic for identical inputs and options: fixed initialization
    X = S = I * (1 + max|b| + max|F|), y = 0, tau = kappa = 1, and no
    randomized pivoting anywhere.
    """
    opts = opts or SdpOptions()
    warnings_out: list[str] = []
    lay = _Layout(prob)
    nu = prob.dim                    # barrier degree of the cone

    Aplain = np.array([lay.row(g) for g, _ in prob.constraints]).reshape(
        prob.num_constraints, lay.size)
    kept, inconsistent = _rank_filter(Aplain, lay.weights, prob.b_vector(),
                                      warnings_out)
    if inconsistent:
        return SdpSolution(
            status=SdpStatus.PRIMAL_INFEASIBLE, X_blocks=None, y=None, S_blocks=None,
            primal_obj=None, dual_obj=None, gap=None, iterations=0,
            warnings=warnings_out + ["inconsistent dependent constraint rows"],
            tolerances=opts.as_dict(),
        )
    b = np.array([prob.constraints[k][1] for k in kept])
    M = len(kept)
    Aplain = Aplain[kept]
    Aw = Aplain * lay.weights
    F = lay.row(prob.cost)

    # Sparse structure for the Schur complement: per PSD block, the local
    # entries (i, j, v) of every row, grouped by row, with v halved on the
    # diagonal so that W G W = A B^T + B A^T for A = W[:, i] * v, B = W[:, j];
    # across blocks, the nonzeros of each weighted row.
    entries = []
    for sl, iu in zip(lay.slices, lay.iu):
        if iu is not None:
            ks, cols = np.nonzero(Aplain[:, sl])
            I, J = iu[0][cols], iu[1][cols]
            V = Aplain[ks, sl.start + cols] * np.where(I == J, 0.5, 1.0)
            starts = np.searchsorted(ks, np.arange(M + 1))
            entries.append((I, J, V, starts, np.flatnonzero(np.diff(starts))))
        else:
            entries.append(None)
    nz_rows, nz_cols = np.nonzero(Aw)
    nz_vals = Aw[nz_rows, nz_cols]
    row_starts = np.searchsorted(nz_rows, np.arange(M))

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
            warnings=warnings_out, tolerances=opts.as_dict(), certificate=cert,
        )

    for it in range(opts.max_iter + 1):
        FX = lay.dot(F, X)
        by = float(b @ y) if M else 0.0
        XS = lay.dot(X, S)
        mu = (XS + tau * kappa) / (nu + 1)

        P = Aw @ X - tau * b
        D = y @ Aplain + S - tau * F
        g_res = kappa + FX - by

        rel_p = (float(np.max(np.abs(P))) / (tau * (1.0 + bmax))) if M else 0.0
        rel_d = float(np.max(np.abs(D))) / (tau * (1.0 + fmax))
        pobj = FX / tau
        dobj = by / tau
        denom_obj = 1.0 + abs(pobj) + abs(dobj)
        rel_gap = abs(pobj - dobj) / denom_obj
        compl = (XS / tau**2) / denom_obj

        trace.append(IterateRecord(
            iteration=it, mu=mu, tau=tau, kappa=kappa, alpha=last_alpha,
            rel_primal=rel_p, rel_dual=rel_d, primal_obj=pobj, dual_obj=dobj,
            embedding_gap=XS + tau * kappa,
        ))

        converged_now = (
            rel_p <= opts.feas_tol and rel_d <= opts.feas_tol
            and rel_gap <= opts.gap_tol and compl <= opts.gap_tol
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
            if best[0] <= opts.slack_goal or polish_used > opts.polish_iters:
                return finish(SdpStatus.OPTIMAL, best[1], best[2], best[3], iters=it)
        elif best is not None:
            # roundoff pushed a converged iterate back out; stop polishing
            return finish(SdpStatus.OPTIMAL, best[1], best[2], best[3], iters=it)

        def relaxed_ok():
            # breakdown exits may still carry a usable answer: accept when
            # the current iterate is within 100x of the strict tolerances
            rec = trace[-1]
            denom = 1.0 + abs(rec.primal_obj) + abs(rec.dual_obj)
            rgap = abs(rec.primal_obj - rec.dual_obj) / denom
            cmpl = (max(rec.embedding_gap - rec.tau * rec.kappa, 0.0)
                    / rec.tau**2 / denom)
            return (max(rec.rel_primal, rec.rel_dual) <= 100 * opts.feas_tol
                    and rgap <= 100 * opts.gap_tol
                    and cmpl <= 1e4 * opts.gap_tol)

        def best_or(status):
            if best is not None:
                return finish(SdpStatus.OPTIMAL, best[1], best[2], best[3], iters=it)
            if trace and relaxed_ok():
                warnings_out.append(
                    "converged at reduced accuracy before numerical breakdown"
                )
                return finish(SdpStatus.OPTIMAL, X / tau, y / tau, S / tau, iters=it)
            return finish(status, iters=it)

        if tau <= opts.infeas_ratio * max(1.0, kappa):
            # the embedding's tau/kappa balance collapsed: no optimum exists
            if by > 0 and float(np.max(np.abs(y @ Aplain + S))) <= 1e-6 * by * (1 + fmax):
                cert = {"kind": "dual_ray", "y": y / by, "S": lay.mat(S / by)}
                return finish(SdpStatus.PRIMAL_INFEASIBLE, cert=cert, iters=it)
            gXnorm = float(np.max(np.abs(Aw @ X))) if M else 0.0
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

        if it == opts.max_iter:
            if best is not None:
                return finish(SdpStatus.OPTIMAL, best[1], best[2], best[3], iters=it)
            if relaxed_ok():
                warnings_out.append(
                    "converged at reduced accuracy at the iteration cap"
                )
                return finish(SdpStatus.OPTIMAL, X / tau, y / tau, S / tau, iters=it)
            return finish(SdpStatus.ITERATION_LIMIT, X / tau, y / tau, S / tau,
                          iters=it)

        Xb, Sb = lay.mat(X), lay.mat(S)
        try:
            frames = [_NtFrame(x, s) if x.ndim == 2 else _LpFrame(x, s)
                      for x, s in zip(Xb, Sb)]
        except np.linalg.LinAlgError:
            warnings_out.append("NT scaling eigendecomposition failed")
            return best_or(SdpStatus.NUMERICAL_TROUBLE)

        def scaled(U: np.ndarray) -> np.ndarray:
            return lay.vec([fr.scale(u) for fr, u in zip(frames, lay.mat(U))])

        # Schur complement in the W metric: row k of H is W G_k W flattened,
        # and entry (l, k) is <G_l, W G_k W>, gathered from row l's nonzeros
        H = np.zeros((M, lay.size))
        for fr, sl, iu, ent in zip(frames, lay.slices, lay.iu, entries):
            if iu is None:
                H[:, sl] = Aplain[:, sl] * fr.w2
                continue
            I, J, V, starts, rows = ent
            WI, WJ = fr.W[:, I] * V, fr.W[:, J]
            for k in rows:
                Hk = WI[:, starts[k] : starts[k + 1]] @ WJ[:, starts[k] : starts[k + 1]].T
                H[k, sl] = (Hk + Hk.T)[iu]
        Mmat = _sym(np.add.reduceat(H[:, nz_cols] * nz_vals, row_starts, axis=1)
                    if M else np.zeros((0, 0)))
        WFW = scaled(F)
        gvec = Aw @ WFW
        phi = lay.dot(F, WFW)
        WDW = scaled(D)

        chol = None
        jitter = 0.0
        base = np.trace(Mmat) / max(M, 1) if M else 1.0
        for attempt in range(3):
            try:
                chol = spd_cholesky(Mmat + jitter * np.eye(M))
                break
            except NotPositiveDefiniteError:
                jitter = max(jitter * 100, 1e-13 * max(base, 1e-30))
        if chol is None and M:
            warnings_out.append("Schur complement lost positive definiteness")
            return best_or(SdpStatus.NUMERICAL_TROUBLE)

        u = gvec + b
        v2 = chol.solve(u) if M else np.zeros(0)

        def direction(eta, Rc, rtk):
            r1 = -(Aw @ Rc) - eta * (Aw @ WDW + P)
            v1 = chol.solve(r1) if M else np.zeros(0)
            den = float((b - gvec) @ v2) + phi + kappa / tau
            num = (rtk / tau + eta * (g_res + lay.dot(F, WDW))
                   + lay.dot(F, Rc) - float((b - gvec) @ v1))
            dtau = num / den
            dy = v1 + dtau * v2
            dkappa = (rtk - kappa * dtau) / tau
            dS = dtau * F - dy @ Aplain - eta * D
            dX = Rc - scaled(dS)
            return dX, dy, dS, dtau, dkappa

        if converged_now:
            # pure centering: keep residuals and mu, pull X*S toward mu*I
            Rc = mu * lay.vec([fr.S_inv for fr in frames]) - X
            dX, dy, dS, dtau, dkappa = direction(0.0, Rc, mu - tau * kappa)
        else:
            # predictor
            dXa, dya, dSa, dtaua, dkappaa = direction(1.0, -X, -tau * kappa)
            if not (np.all(np.isfinite(dXa)) and np.all(np.isfinite(dSa))) or not (
                np.isfinite(dtaua) and np.isfinite(dkappaa)
            ):
                warnings_out.append("non-finite search direction")
                return best_or(SdpStatus.NUMERICAL_TROUBLE)
            alpha_a = min(
                1.0,
                _max_step(Xb, lay.mat(dXa)),
                _max_step(Sb, lay.mat(dSa)),
                (tau / -dtaua) if dtaua < 0 else np.inf,
                (kappa / -dkappaa) if dkappaa < 0 else np.inf,
            )
            mu_aff = (
                lay.dot(X + alpha_a * dXa, S + alpha_a * dSa)
                + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)
            ) / (nu + 1)
            sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, opts.sigma_floor), 0.999)

            # corrector with the NT-scaled Mehrotra second-order term
            Rc = lay.vec([fr.second_order_residual(sigma * mu, a, s)
                          for fr, a, s in zip(frames, lay.mat(dXa), lay.mat(dSa))])
            rtk = sigma * mu - tau * kappa - dtaua * dkappaa
            dX, dy, dS, dtau, dkappa = direction(1.0 - sigma, Rc, rtk)

        if not (np.all(np.isfinite(dX)) and np.all(np.isfinite(dS))) or not (
            np.isfinite(dtau) and np.isfinite(dkappa)
        ):
            warnings_out.append("non-finite search direction")
            return best_or(SdpStatus.NUMERICAL_TROUBLE)
        bound = min(
            _max_step(Xb, lay.mat(dX)),
            _max_step(Sb, lay.mat(dS)),
            (tau / -dtau) if dtau < 0 else np.inf,
            (kappa / -dkappa) if dkappa < 0 else np.inf,
        )
        alpha = min(1.0, opts.step_fraction * bound)
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


def solve_lp(c, rows, opts: SdpOptions | None = None) -> LpSolution:
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
    sol = solve(problem, opts)
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
