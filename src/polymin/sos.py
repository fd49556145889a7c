"""Sum-of-squares lower bounds by semidefinite programming.

The largest lambda making ``f - lambda`` a sum of squares is the optimal
value of a semidefinite program over the affine space of Gram matrices of f.
``SosProgram`` poses it in image form: one row per monomial of degree at
most 2d matches the coefficient of the Gram matrix's polynomial against f,
lambda is eliminated through the constant coefficient, and the objective
minimizes the Gram matrix's constant slot.  The solver's primal X is then
the Gram matrix of ``f - lambda`` (the certificate) and its dual slack S is
the moment matrix, whose top eigenvector lists a candidate minimizer: once
polished by Newton steps, it is a global minimizer if f there meets the
bound; where minimizers tie, S mixes them and ``_mixture_points`` reads
each off it.  Late iterates prove bounds: X projected onto the Gram
matrices of f - lambda (the solver builds that projection for its stop
test) and backed off in its constant slot is PSD (Peyrl-Parrilo, Lofberg),
and f at S's point is an upper bound, so the solve stops once the two agree
and returns that backed-off projection as its X.  Stopped or converged, the
bound is read one way: lambda = offset - the solution's primal objective.

``MonomialVector`` owns the map from Gram entries to monomial coefficients:
it groups the Gram index pairs by product monomial once per shape (n, d),
and the program rows and the certificate's residual read that one grouping.
Each group is one defining equation of the affine space of Gram matrices.

One builder, ``_multiplier_program``, lays out every program of the package
(s0 + sum s_i f_i + sum t_j g_j of degree D), and one function,
``_lambda_solve``, solves every lambda-program, the largest lambda with
g * (f - lambda) such terms: the plain bound is the builder with no
constraints, ``psatz.bounded_minimization`` adds a system's.

``sos_lower_bound`` (g = 1), ``higher_degree_bound`` (g = 1 + sum
x_i^(2k)) and ``minimize`` (the plain bound plus a minimizer) return one
``SosResult``.  Its certificate and moment matrix are built when first read.
The certificate is a Gram matrix plus the polynomial it must equal: the
solution's block 0, unscaled, and (alpha^(2k) + sum x_i^(2k)) (f - lambda),
f - lambda at k = 0.

All pipeline stages are pure; batches of polynomials can be minimized on a
worker pool with no shared state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import psd_factor
from .poly import (
    Monomial,
    Polynomial,
    monomial_mul,
    monomials_up_to_degree,
    scale_homogeneous,
    suggested_scaling,
)
from .refine import local_refine
from .sdp import FEAS_TOL, SdpFailure, SdpProblem, SdpSolution, SdpStatus, _block_diag, solve

MINUS_INFINITY = float("-inf")

# Extraction and certificate settings; results report the first two in
# their ``tolerances``.
RANK_TOL = 1e-4           # eigenvalue ratio to the largest past which a moment matrix mixes points
EXTRACT_TOL = 1e-5        # f(point) - bound allowed, relative to 1 + |bound|
CERT_PSD_TOL = 1e-8       # pivot threshold of the certificate's square factor
STOP_TOL = 1e-8           # upper value - certified bound that stops a solve, relative to |upper|
STOP_GAP = 1e-4           # relative gap and residuals at which the certified stop is tried


class OddDegreeError(ValueError):
    """Odd-degree polynomials are unbounded below: no SOS bound exists."""


@dataclass(frozen=True)
class MonomialVector:
    """All monomials of degree <= d in n variables, constant monomial first.

    The vector owns the Gram-to-monomial map: Gram entry (i, j) contributes
    to the coefficient of x^(m_i + m_j).  ``build`` groups the index pairs
    i <= j by product monomial once, as the ``classes`` dict and as the flat
    arrays ``rows``, ``cols`` and ``slots`` (the class number of each pair,
    in ``classes`` order); ``coefficients`` applies the map to a matrix.
    One vector is built per shape and shared, so its arrays are read-only.
    """

    n: int
    d: int
    entries: tuple
    index: dict = field(repr=False)
    classes: dict = field(repr=False, compare=False)
    rows: np.ndarray = field(repr=False, compare=False)
    cols: np.ndarray = field(repr=False, compare=False)
    slots: np.ndarray = field(repr=False, compare=False)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def build(cls, n: int, d: int) -> "MonomialVector":
        entries = tuple(monomials_up_to_degree(n, d))
        assert entries[0] == (0,) * n, "constant monomial must come first"
        classes: dict = {}
        for i, mi in enumerate(entries):
            for j in range(i, len(entries)):
                classes.setdefault(monomial_mul(mi, entries[j]), []).append((i, j))
        rows, cols, slots = (np.array(a, dtype=np.intp) for a in zip(
            *[(i, j, c) for c, pairs in enumerate(classes.values()) for i, j in pairs]))
        for a in (rows, cols, slots):
            a.setflags(write=False)
        return cls(n=n, d=d, entries=entries,
                   index={m: i for i, m in enumerate(entries)}, classes=classes,
                   rows=rows, cols=cols, slots=slots)

    @property
    def N(self) -> int:
        return len(self.entries)

    def polynomial(self, coeffs) -> Polynomial:
        """Polynomial with the given coefficients against this vector."""
        return Polynomial(self.n, {m: c for m, c in zip(self.entries, coeffs)})

    def coefficients(self, A: np.ndarray) -> np.ndarray:
        """Coefficients of v^T A v for symmetric A, one per key of ``classes``."""
        A = np.asarray(A, dtype=float)
        weights = A[self.rows, self.cols] * np.where(self.rows == self.cols, 1.0, 2.0)
        return np.bincount(self.slots, weights=weights, minlength=len(self.classes))


class SosProgram:
    """Image-form SOS program: one coefficient-matching row per monomial.

    Each ``add_sos(basis, factor)`` term is ``factor * v^T Q v`` with v the
    monomial basis and Q one PSD block of the SDP's primal X, so X holds the
    Gram matrices; each ``add_free(monos, factor)`` term is ``factor * t``
    with t free on the given monomials, its coefficients split as u - v in
    the nonnegative LP block.  ``match_coefficients`` equates the sum of the
    terms with a target polynomial, writing the SDP's coordinate table from
    each basis's ``rows``/``cols``/``slots`` arrays.  A row is a monomial, so
    the dual slack S of a block with unit factor is a moment matrix.
    """

    def __init__(self, n: int):
        self.n = n
        self.sos_terms: list = []        # (offset into X, basis, factor)
        self.free_terms: list = []       # (offset into the LP block, monos, factor)
        self.psd_size = 0
        self.lp_size = 0
        self.offset = None               # lambda = offset - primal objective

    def add_sos(self, basis: MonomialVector, factor: Polynomial) -> int:
        """Term factor * (an SOS over basis); returns its PSD block number."""
        self.sos_terms.append((self.psd_size, basis, factor.to_float()))
        self.psd_size += basis.N
        return len(self.sos_terms) - 1

    def add_free(self, monos, factor: Polynomial) -> int:
        """Term factor * (a free polynomial on monos); index for ``free``."""
        self.free_terms.append((self.lp_size, list(monos), factor.to_float()))
        self.lp_size += 2 * len(monos)
        return len(self.free_terms) - 1

    def match_coefficients(self, target: Polynomial,
                           lam: Polynomial | None = None) -> SdpProblem:
        """The SDP of ``sum of terms == target``, coefficient by coefficient.

        With ``lam``, a polynomial with nonzero constant coefficient, the
        program maximizes lambda in ``sum of terms == target - lambda * lam``:
        lambda is eliminated through the constant coefficient and reads back
        as ``offset`` - the primal objective.  Without it the objective is the
        trace of X, a regularized feasibility search.

        Rows are monomials in order of first appearance: class-major over the
        terms, then the target's terms, then (with ``lam``) its terms.
        """
        row_of: dict = {}
        n = self.n

        def product_rows(left, right) -> np.ndarray:
            """The row of each product of a left and a right monomial, left-major:
            the exponent sums in one array, numbered in one dict pass."""
            sums = (np.array(list(left), dtype=np.intp).reshape(-1, 1, n)
                    + np.array(list(right), dtype=np.intp).reshape(1, -1, n))
            r = [row_of.setdefault(m, len(row_of))
                 for m in map(tuple, sums.reshape(-1, n).tolist())]
            return np.array(r, dtype=np.intp).reshape(len(left), len(right))

        parts = []                      # (k, i, j, v) arrays of the terms' entries
        for off, basis, factor in self.sos_terms:
            # Gram pair (i, j) of class c meets factor term t in row R[c, t]
            R = product_rows(basis.classes, factor.terms)
            for t, c in enumerate(factor.terms.values()):
                parts.append((R[basis.slots, t], off + basis.rows, off + basis.cols,
                              np.full(len(basis.slots), c)))
        for off, monos, factor in self.free_terms:
            R = product_rows(monos, factor.terms)
            u = self.psd_size + off + 2 * np.arange(len(monos))
            for t, c in enumerate(factor.terms.values()):
                parts += [(R[:, t], u, u, np.full(len(monos), c)),
                          (R[:, t], u + 1, u + 1, np.full(len(monos), -c))]
        target = target.to_float()
        for m in target.terms:
            row_of.setdefault(m, len(row_of))
        k, i, j, v = (np.concatenate(a) for a in zip(*parts))
        shift, t0, const = {}, 0.0, None
        if lam is None:
            size = self.psd_size + self.lp_size
            cost = (np.arange(size), np.arange(size), np.ones(size))
        else:
            const = (0,) * self.n
            g0 = float(lam.constant_coefficient())
            t0 = float(target.terms.get(const, 0.0))
            self.offset = t0 / g0
            shift = {m: float(c) / g0 for m, c in lam.terms.items()}
            for m in shift:
                row_of.setdefault(m, len(row_of))
            at0 = k == row_of[const]
            i0, j0, v0 = i[at0], j[at0], v[at0]
            cost = (i0, j0, v0 / g0)
            # lambda's elimination: row m loses shift[m] times the constant row
            lost = [(np.full(len(i0), row_of[m]), i0, j0, -s * v0)
                    for m, s in shift.items() if s and m != const]
            k, i, j, v = (np.concatenate(a) for a in zip(
                (k[~at0], i[~at0], j[~at0], v[~at0]), *lost))
        rhs = np.array([float(target.terms.get(m, 0.0)) - shift.get(m, 0.0) * t0
                        for m in row_of])
        # a row with no entries and a zero right-hand side is left out
        keep = (np.bincount(k, minlength=len(row_of)) > 0) | (rhs != 0)
        if const is not None:
            keep[row_of[const]] = False
        renumber = np.cumsum(keep) - 1
        blocks = [basis.N for _, basis, _ in self.sos_terms]
        return SdpProblem(blocks + ([-self.lp_size] if self.lp_size else []),
                          cost, (renumber[k], i, j, v), rhs[keep])

    def free(self, sol: SdpSolution, term: int) -> Polynomial:
        off, monos, _ = self.free_terms[term]
        uv = sol.X_blocks[-1][off : off + 2 * len(monos)]
        return Polynomial(self.n, {beta: c for beta, c in zip(monos, uv[0::2] - uv[1::2])
                                   if c != 0.0})


def _multiplier_program(n: int, D: int, inequalities=(), equalities=()):
    """The terms s0 + sum s_i f_i + sum t_j g_j of degree D, each multiplier
    of the largest (for the s's even) degree keeping it within D: the program
    and, per f_i and g_j, the term carrying its multiplier (None when the
    constraint's degree exceeds D).  s0's Gram classes are every monomial of
    degree <= D, so the rows are independent: every iterate has the
    projection ``sdp.solve`` builds for the stop tests."""
    prog = SosProgram(n)
    prog.add_sos(MonomialVector.build(n, D // 2), Polynomial.constant(n, 1.0))
    ineq_terms = [None if f.degree() > D else
                  prog.add_sos(MonomialVector.build(n, (D - f.degree()) // 2), f)
                  for f in inequalities]
    eq_terms = [None if g.degree() > D else
                prog.add_free(monomials_up_to_degree(n, D - g.degree()), g)
                for g in equalities]
    return prog, ineq_terms, eq_terms


@dataclass
class GramSdp:
    """Image-form SDP for the largest lambda with g * (f - lambda) a sum of
    squares, g = ``multiplier``.

    The primal X is the Gram matrix of g * (f - lambda) (constant slot
    minimized), the dual slack S the moment matrix normalized at the constant
    monomial.
    """

    problem: SdpProblem
    vector: MonomialVector
    program: SosProgram
    multiplier: Polynomial


def _even_degree(f: Polynomial) -> int:
    two_d = f.degree()
    if two_d % 2 != 0:
        raise OddDegreeError(
            f"degree {two_d} is odd: f is unbounded below, no SOS bound exists"
        )
    return two_d


def build_gram_sdp(f: Polynomial, k: int = 0) -> GramSdp:
    """SDP computing the largest lambda with g * (f - lambda) a sum of squares,
    where g = 1 for k = 0 and g = 1 + sum x_i^(2k) otherwise: the multiplier
    program with no constraints at degree deg f + 2k.

    Requires even degree; an odd-degree polynomial is unbounded below and has
    no SOS shift at all.
    """
    if f.is_zero():
        raise ValueError("f must not be identically zero")
    n = f.n
    g = Polynomial.constant(n, 1.0)
    for i in range(n if k else 0):
        g = g + Polynomial.from_monomial(n, tuple(2 * k if j == i else 0
                                                  for j in range(n)), 1.0)
    prog, _, _ = _multiplier_program(n, _even_degree(f) + 2 * k)
    problem = prog.match_coefficients(g * f, lam=g)
    return GramSdp(problem=problem, vector=prog.sos_terms[0][1], program=prog, multiplier=g)


# ---------------------------------------------------------------------------
# Certificates and extraction
# ---------------------------------------------------------------------------

@dataclass
class SosCertificate:
    lam: float
    gram: np.ndarray                 # the Gram matrix factored, of the target g * (f - lam)
    squares: list[Polynomial]
    residual: float                  # largest coefficient of sum q^2 - target
    cert_tol: float
    target_scale: float = 1.0        # 1 + largest coefficient magnitude of the target

    @property
    def ok(self) -> bool:
        return self.residual <= self.cert_tol

    @property
    def relative_residual(self) -> float:
        """Re-expansion error relative to the target's coefficient scale."""
        return self.residual / self.target_scale


def extract_certificate(A: np.ndarray, lam: float, vec: MonomialVector,
                        target: Polynomial) -> SosCertificate:
    """Square decomposition of ``target`` (f - lam, or g (f - lam) through a
    multiplier g) from A, a Gram matrix of it over vec: the squares are the
    rows of the semidefinite factor B of A, factored as given, applied to the
    monomial vector, and the residual is the largest coefficient of
    ``sum b_j^2 - target``, read off B^T B through the vector's
    Gram-to-monomial map."""
    A = np.asarray(A, dtype=float)
    fact = psd_factor(A, tol=CERT_PSD_TOL)
    t = np.array([float(target.terms.get(m, 0)) for m in vec.classes])
    scale = 1.0 + float(np.max(np.abs(t)))
    cert_tol = 1e-5 * scale
    if not fact.success:
        return SosCertificate(lam=lam, gram=A, squares=[], residual=float("inf"),
                              cert_tol=cert_tol, target_scale=scale)
    squares = [vec.polynomial(row) for row in fact.B]
    residual = float(np.max(np.abs(vec.coefficients(fact.B.T @ fact.B) - t)))
    return SosCertificate(lam=lam, gram=A, squares=squares, residual=residual,
                          cert_tol=cert_tol, target_scale=scale)


def _top_moments(moment: np.ndarray, vec: MonomialVector) -> tuple:
    """A moment matrix's second-to-first eigenvalue ratio and the point its top
    eigenvector lists, scaled to a constant coordinate of one (None when that
    coordinate vanishes: a point at infinity)."""
    w, v = np.linalg.eigh(np.asarray(moment, dtype=float))
    lam1 = float(w[-1])
    lam2 = float(w[-2]) if len(w) > 1 else 0.0
    ratio = max(lam2, 0.0) / lam1 if lam1 > 0 else float("inf")
    u = v[:, -1] * np.sqrt(max(lam1, 0.0))
    if abs(u[0]) < 1e-8:
        return ratio, None
    return ratio, tuple(float(u[vec.index[tuple(int(t == i) for t in range(vec.n))]] / u[0])
                        if vec.d else 0.0 for i in range(vec.n))


@dataclass
class ExtractionResult:
    found: bool
    point: tuple | None
    upper_bound: float | None
    rank_ratio: float
    reason: str = ""


def extract_minimizer(moment: np.ndarray, vec: MonomialVector, f: Polynomial,
                      bound: float) -> ExtractionResult:
    """Read a candidate global minimizer off a moment matrix: ``_top_moments``'
    point, polished by ``local_refine``, accepted if f there lies within
    EXTRACT_TOL (1 + |bound|) of the bound.  A point where f meets a lower bound
    is a global minimizer whatever the matrix's rank, so that is the only test."""
    ratio, point = _top_moments(moment, vec)
    if point is None:
        return ExtractionResult(False, None, None, ratio, "point at infinity")
    r = local_refine(f, point)
    if r.value - bound > EXTRACT_TOL * (1.0 + abs(bound)):
        return ExtractionResult(False, r.point, r.value, ratio, "objective exceeds the bound")
    return ExtractionResult(True, r.point, r.value, ratio)


# ---------------------------------------------------------------------------
# Bound pipelines
# ---------------------------------------------------------------------------

@dataclass
class SosResult:
    """Outcome of the SOS bound computation, in original coordinates: the
    largest lambda with g * (f - lambda) a sum of squares, g = ``multiplier``
    (``build_gram_sdp``'s: 1 for the plain bound), solved at scale ``alpha``.
    The certificate and the moment matrix are built when first read;
    ``minimize`` sets ``extraction``."""

    bound: float                     # the bound, or -inf when no shift is SOS
    status: SdpStatus
    vector: MonomialVector
    alpha: float
    f: Polynomial
    multiplier: Polynomial
    solution: SdpSolution
    tolerances: dict
    extraction: ExtractionResult | None = None

    @functools.cached_property
    def moment_matrix(self) -> np.ndarray | None:
        """S's block 0 in original coordinates, entry (i, j) times
        alpha^(|m_i| + |m_j|); None unless optimal."""
        if self.status is not SdpStatus.OPTIMAL:
            return None
        d = np.array([self.alpha ** sum(m) for m in self.vector.entries])
        return self.solution.S_blocks[0] * np.outer(d, d)

    @functools.cached_property
    def certificate(self) -> SosCertificate | None:
        """``extract_certificate`` of the solution's block 0, unscaled: a Gram
        matrix of alpha^(2k) g(x / alpha) (f - bound) = (alpha^(2k) + sum
        x_i^(2k)) (f - bound), f - bound at k = 0.  None unless optimal."""
        if self.status is not SdpStatus.OPTIMAL:
            return None
        g = scale_homogeneous(self.multiplier, 1 / self.alpha)
        gram = _unscale_gram(self.solution.X_blocks[0], self.vector, self.alpha)
        return extract_certificate(gram, self.bound, self.vector,
                                   g * (self.f.to_float() - self.bound))

    def to_json_dict(self) -> dict:
        cert = None
        if self.certificate is not None and self.certificate.squares:
            cert = {
                "lambda": self.certificate.lam,
                "squares": [s.to_string() for s in self.certificate.squares],
                "residual": self.certificate.residual,
            }
        minimizer = None
        if self.extraction is not None and self.extraction.found:
            minimizer = {
                "point": list(self.extraction.point),
                "upper_bound": self.extraction.upper_bound,
                "rank_ratio": self.extraction.rank_ratio,
            }
        return {
            "f_sos": "-inf" if self.bound == MINUS_INFINITY else self.bound,
            "status": self.status.value,
            "certificate": cert,
            "minimizer": minimizer,
            "tolerances": self.tolerances,
        }


def sos_lower_bound(f: Polynomial) -> SosResult:
    """Largest lambda with f - lambda a sum of squares, by SDP.

    Returns -inf exactly when the shifted-Gram feasibility fails for every
    lambda, which the solver detects as infeasibility of the Gram problem.
    Homogeneous scaling is applied up front and inverted on output.  The
    bound is lambda_c of the first iterate whose backed-off Gram matrix
    proves it (see ``_certified_stop``), else the converged solve's.  A bound
    below 1e-5 of the coefficient scale, which unscaling would amplify solver
    tolerance past, is solved again at its own scale, max(1, |lambda|^(1/2d)),
    if that is 10 % off the first factor.  The certificate, the squares of
    f - lambda, and the moment matrix are built when first read.
    """
    return _bound(f, 0)


def _bound(f: Polynomial, k: int) -> SosResult:
    """The bound of ``build_gram_sdp(f, k)`` with homogeneous scaling."""
    two_d = _even_degree(f)
    alpha = suggested_scaling(f, two_d)
    res = _sos_bound_at_scale(f, k, alpha, two_d)
    if res.status is SdpStatus.OPTIMAL and two_d > 0 and 0 < abs(res.bound / alpha**two_d) < 1e-5:
        alpha2 = max(1.0, abs(res.bound) ** (1.0 / two_d))
        if abs(alpha2 - alpha) / alpha > 0.1:
            return _sos_bound_at_scale(f, k, alpha2, two_d)
    return res


def _back_off(G: np.ndarray) -> float | None:
    """The eps making the Gram matrix G + eps E11 positive definite:
    eps = b^T A^-1 b - G[0, 0] (A, b: the rest of G and its constant column),
    or 0 when G is already; None when A fails Cholesky."""
    try:
        L = np.linalg.cholesky(G[1:, 1:])
    except np.linalg.LinAlgError:
        return None
    z = np.linalg.solve(L, G[1:, 0])
    # at eps = z^T z - G[0, 0] exactly G + eps E11 is singular: 16 N ulps more
    return max(0.0, float(z @ z) * (1.0 + 16 * len(G) * np.finfo(float).eps) - G[0, 0])


def _within_stop_gap(record) -> bool:
    """Whether an iterate's relative gap, primal and dual residuals are all
    <= STOP_GAP, read off its ``sdp.IterateRecord``."""
    p, d = record.primal_obj, record.dual_obj
    return max(abs(p - d) / (1.0 + abs(p) + abs(d)), record.rel_primal,
               record.rel_dual) <= STOP_GAP


def _positive_definite(blocks: list) -> bool:
    """Whether every PSD block (a matrix; the LP block is a vector) passes
    Cholesky."""
    try:
        for Q in blocks:
            if Q.ndim == 2:
                np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        return False
    return True


def _certified_stop(prog: SosProgram, cost: tuple, upper):
    """``sdp.solve``'s stop for ``prog`` posed by ``match_coefficients(target,
    lam=g)``, g >= g(0) = 1, of cost table (i, j, v) ``cost``, tried at the
    iterates ``_within_stop_gap``.  X~, the iterate projected onto the
    identity's affine space, block 0's constant slot backed off by
    ``_back_off``'s eps and every other PSD block passing Cholesky (the LP
    block's u - v are free), proves lambda_c = offset - F . X~ (since g >= 1).
    It fires when u - lambda_c <= STOP_TOL |u|, u = ``upper(record,
    iterate)`` an upper value (NaN where there is none, and then the stop
    builds no projection).  The record holds eps as "eps" and u as "upper";
    the solve returns the backed-off X~, so lambda_c is offset minus the
    solution's primal objective."""
    i, j, v = cost
    v = v * np.where(i == j, 1.0, 2.0)          # F . X counts (i, j) and (j, i)

    def stop(record, iterate):
        if not _within_stop_gap(record):
            return None
        u = upper(record, iterate)
        if math.isnan(u):                       # no upper value: no test
            return None
        X_blocks, _ = iterate()
        eps = _back_off(X_blocks[0])
        if eps is None or not _positive_definite(X_blocks[1:]):
            return None
        X_blocks[0][0, 0] += eps
        lam = prog.offset - float(v @ _block_diag(X_blocks)[i, j])
        if not u - lam <= STOP_TOL * abs(u):
            return None
        return {"eps": eps, "upper": u}

    return stop


def _moment_upper(vec: MonomialVector, fs: Polynomial):
    """The certified stop's upper value for a program of f_s with block 0 over
    vec: f_s at the point of S's block 0 (NaN at a point at infinity)."""
    value = fs.exponent_table()[0]

    def upper(record, iterate):
        x = _top_moments(iterate()[1][0], vec)[1]
        return value(x) if x is not None else math.nan

    return upper


def _dual_upper(prog: SosProgram):
    """The certified stop's upper value for a program with no moment point to
    read (``psatz.bounded_minimization``): the dual's lambda, offset - b . y,
    once rel_dual <= FEAS_TOL (else NaN, read off the record alone)."""
    return lambda record, iterate: (prog.offset - record.dual_obj
                                    if record.rel_dual <= FEAS_TOL else math.nan)


def _lambda_solve(prog: SosProgram, problem: SdpProblem, upper, what: str) -> tuple:
    """(lambda, solution) of ``prog`` posed by ``match_coefficients(target,
    lam=g)``, g >= g(0) = 1, ended by ``_certified_stop`` with ``upper``:
    offset - primal objective if optimal (the lambda_c the stop proved where
    it ended the solve), -inf if infeasible, +inf if the dual is; any
    other status raises ``SdpFailure`` naming ``what``.  A constant's 1 x 1
    block 0 gets no stop, which would end it up to STOP_TOL below its value."""
    stop = _certified_stop(prog, problem.cost, upper) if prog.sos_terms[0][1].d else None
    sol = solve(problem, stop=stop)
    if sol.status is SdpStatus.OPTIMAL:
        return prog.offset - sol.primal_obj, sol
    if sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        return MINUS_INFINITY, sol
    if sol.status is SdpStatus.DUAL_INFEASIBLE:
        return math.inf, sol
    raise SdpFailure(sol.status, what)


def _sos_bound_at_scale(f: Polynomial, k: int, alpha: float, two_d: int) -> SosResult:
    fs = scale_homogeneous(f.to_float(), alpha, two_d)
    gs = build_gram_sdp(fs, k)
    lam_s, sol = _lambda_solve(gs.program, gs.problem, _moment_upper(gs.vector, fs),
                               f"(SOS bound, multiplier power {k})")
    tols = {**sol.tolerances, "rank_tol": RANK_TOL, "extract_tol": EXTRACT_TOL,
            "alpha": alpha}
    return SosResult(lam_s * alpha**two_d, sol.status, gs.vector, alpha, f, gs.multiplier,
                     sol, tols)


def _unscale_gram(A: np.ndarray, vec: MonomialVector, alpha: float) -> np.ndarray:
    s = np.array([alpha ** (vec.d - sum(m)) for m in vec.entries])
    return A * np.outer(s, s)


def higher_degree_bound(f: Polynomial, k: int) -> SosResult:
    """Largest lambda with (1 + sum x_i^(2k)) * (f - lambda) a sum of squares.

    The multiplier is at least 1 everywhere, so any such lambda is a valid
    lower bound on the minimum, and so is the lambda_c at which the solve
    stops as the plain bound's does; the value is never below the plain
    SOS bound when both are finite.  The certificate, built when first read,
    holds the squares of (alpha^(2k) + sum x_i^(2k)) (f - lambda), alpha the
    result's scale.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _bound(f, k)


# ---------------------------------------------------------------------------
# Full minimization pipeline
# ---------------------------------------------------------------------------

def minimize(f: Polynomial) -> SosResult:
    """``sos_lower_bound(f)``'s result with its ``extraction`` set (None when
    the bound is not optimal).  Where minimizers tie, the moment matrix mixes
    them and its point, polished, may miss the bound; if the matrix is not
    rank one, each of the same solve's ``_mixture_points`` is polished in
    turn, and the first that meets the bound is accepted."""
    res = sos_lower_bound(f)
    if res.moment_matrix is not None:
        extraction = extract_minimizer(res.moment_matrix, res.vector, f, res.bound)
        if not extraction.found and extraction.rank_ratio > RANK_TOL:
            for x in _mixture_points(res.solution.S_blocks[0], res.vector):
                r = local_refine(f, res.alpha * np.array(x))
                if r.value - res.bound <= EXTRACT_TOL * (1.0 + abs(res.bound)):
                    extraction = ExtractionResult(True, r.point, r.value, extraction.rank_ratio)
                    break
        res.extraction = extraction
    return res


def _mixture_points(moment: np.ndarray, vec: MonomialVector) -> list:
    """The points a scaled moment matrix mixes, sorted (Henrion-Lasserre): its
    eigenvectors Q of eigenvalue above RANK_TOL times the largest span the
    points' monomial vectors, so over the monomials m of degree < d, T_k =
    pinv(Q[m]) Q[x_k m] is x_k's multiplication matrix in some basis of them.
    One eigenbasis U of sum (k+1) T_k diagonalizes every T_k, and the diagonals
    of U^-1 T_k U are the points' coordinates (real parts)."""
    w, v = np.linalg.eigh(moment)
    Q = v[:, w > RANK_TOL * w[-1]]
    low = vec.entries[:math.comb(vec.n + vec.d - 1, vec.n)]     # graded: degree < d
    P = np.linalg.pinv(Q[:len(low)])
    T = [P @ Q[[vec.index[monomial_mul(m, e)] for m in low]]
         for e in np.eye(vec.n, dtype=int).tolist()]
    U = np.linalg.eig(sum((k + 1) * Tk for k, Tk in enumerate(T)))[1]
    return sorted(zip(*(np.diag(np.linalg.solve(U, Tk @ U)).real for Tk in T)))


# ---------------------------------------------------------------------------
# Size tables
# ---------------------------------------------------------------------------

@dataclass
class SizeTables:
    max_n: int
    max_two_d: int

    @staticmethod
    def matrix_size(n: int, two_d: int) -> int:
        """Side length of the SOS Gram/moment matrices: C(n + d, d)."""
        if two_d % 2 != 0:
            raise ValueError("degree must be even")
        d = two_d // 2
        return math.comb(n + d, d)

    @staticmethod
    def bezout_number(n: int, two_d: int) -> int:
        """Generic count of complex critical points: (2d - 1)^n."""
        if two_d % 2 != 0:
            raise ValueError("degree must be even")
        return (two_d - 1) ** n

    def rows(self):
        for two_d in range(2, self.max_two_d + 1, 2):
            yield two_d, [
                (n, self.matrix_size(n, two_d), self.bezout_number(n, two_d))
                for n in range(1, self.max_n + 1)
            ]

    def format_text(self) -> str:
        lines = ["degree  n  matrix_size  critical_points"]
        for two_d, cells in self.rows():
            for n, N, mu in cells:
                lines.append(f"{two_d:6d} {n:2d} {N:12d} {mu:16d}")
        return "\n".join(lines)


def size_tables(max_n: int, max_two_d: int) -> SizeTables:
    return SizeTables(max_n=max_n, max_two_d=max_two_d)
