"""Sum-of-squares lower bounds by semidefinite programming.

The largest lambda making ``f - lambda`` a sum of squares is the optimal
value of a semidefinite program over the affine space of Gram matrices of f.
``SosProgram`` poses it in image form: one row per monomial of degree at
most 2d matches the coefficient of the Gram matrix's polynomial against f,
lambda is eliminated through the constant coefficient, and the objective
minimizes the Gram matrix's constant slot.  The solver's primal X is then
the Gram matrix of ``f - lambda`` (the certificate) and its dual slack S is
the moment matrix, which yields minimizers when it has rank one.

``MonomialVector`` owns the map from Gram entries to monomial coefficients:
it groups the Gram index pairs by product monomial once, and the program
rows, the certificate's scale and its residual all read that one grouping.
Each group is one defining equation of the affine space of Gram matrices.

The same builder poses every multiplier form used in the package: bounds of
the form "largest lambda with g*(f - lambda) SOS" for a fixed positive
multiplier g, and the Positivstellensatz identities of ``psatz``.

All pipeline stages are pure; batches of polynomials can be minimized on a
worker pool with no shared state.
"""

from __future__ import annotations

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
from .sdp import SdpFailure, SdpProblem, SdpSolution, SdpStatus, solve

MINUS_INFINITY = float("-inf")

# Extraction and certificate settings; results report the first three in
# their ``tolerances``.
RANK_TOL = 1e-4           # largest second-to-first eigenvalue ratio of a rank-one moment
MOMENT_TOL = 1e-4         # degree-two moment consistency, relative to the point's scale
EXTRACT_TOL = 1e-5        # f(point) - bound allowed, relative to 1 + |bound|
CERT_PSD_TOL = 1e-8       # pivot threshold of the certificate's square factor


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
    def build(cls, n: int, d: int) -> "MonomialVector":
        entries = tuple(monomials_up_to_degree(n, d))
        assert entries[0] == (0,) * n, "constant monomial must come first"
        classes: dict = {}
        for i, mi in enumerate(entries):
            for j in range(i, len(entries)):
                classes.setdefault(monomial_mul(mi, entries[j]), []).append((i, j))
        rows, cols, slots = (np.array(a, dtype=np.intp) for a in zip(
            *[(i, j, c) for c, pairs in enumerate(classes.values()) for i, j in pairs]))
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
        lambda is eliminated through the constant coefficient and ``bound``
        reads it back.  Without it the objective is the trace of X, a
        regularized feasibility search.

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

    def bound(self, sol: SdpSolution) -> float:
        """The maximized lambda at an optimal solution."""
        return self.offset - sol.primal_obj

    def free(self, sol: SdpSolution, term: int) -> Polynomial:
        off, monos, _ = self.free_terms[term]
        uv = sol.X_blocks[-1][off : off + 2 * len(monos)]
        return Polynomial(self.n, {beta: c for beta, c in zip(monos, uv[0::2] - uv[1::2])
                                   if c != 0.0})


@dataclass
class GramSdp:
    """Image-form SDP for the largest lambda with f - lambda a sum of squares.

    The primal X is the Gram matrix of f - lambda (constant slot minimized),
    the dual slack S the moment matrix normalized at the constant monomial.
    """

    problem: SdpProblem
    vector: MonomialVector
    program: SosProgram

    def optimal_shifted_gram(self, sol: SdpSolution) -> np.ndarray:
        """The Gram matrix X of f - lambda without the eigendirections where
        the moment matrix S dominates: by complementarity X carries only the
        interior point's O(mu) remainder there."""
        X, S = sol.X_blocks[0], sol.S_blocks[0]
        w, V = np.linalg.eigh(X)
        keep = w > np.einsum("ij,ij->j", V, S @ V)
        return (V[:, keep] * w[keep]) @ V[:, keep].T


def _even_degree(f: Polynomial) -> int:
    two_d = f.degree()
    if two_d % 2 != 0:
        raise OddDegreeError(
            f"degree {two_d} is odd: f is unbounded below, no SOS bound exists"
        )
    return two_d


def build_gram_sdp(f: Polynomial, k: int = 0) -> GramSdp:
    """SDP computing the largest lambda with g * (f - lambda) a sum of squares,
    where g = 1 for k = 0 and g = 1 + sum x_i^(2k) otherwise.

    Requires even degree; an odd-degree polynomial is unbounded below and has
    no SOS shift at all.
    """
    if f.is_zero():
        raise ValueError("f must not be identically zero")
    two_d = _even_degree(f)
    n = f.n
    g = Polynomial.constant(n, 1.0)
    for i in range(n if k else 0):
        g = g + Polynomial.from_monomial(n, tuple(2 * k if j == i else 0
                                                  for j in range(n)), 1.0)
    vec = MonomialVector.build(n, two_d // 2 + k)
    prog = SosProgram(n)
    prog.add_sos(vec, Polynomial.constant(n, 1.0))
    problem = prog.match_coefficients(g * f, lam=g)
    return GramSdp(problem=problem, vector=vec, program=prog)


# ---------------------------------------------------------------------------
# Certificates and extraction
# ---------------------------------------------------------------------------

@dataclass
class SosCertificate:
    lam: float
    gram: np.ndarray                 # Gram matrix of f itself (lambda slot included)
    squares: list[Polynomial]
    residual: float                  # coefficient-wise, in absolute terms
    cert_tol: float
    target_scale: float = 1.0        # 1 + largest coefficient magnitude of f - lam

    @property
    def ok(self) -> bool:
        return self.residual <= self.cert_tol

    @property
    def relative_residual(self) -> float:
        """Re-expansion error relative to the coefficient scale of f - lam."""
        return self.residual / self.target_scale


def extract_certificate(A: np.ndarray, lam: float, vec: MonomialVector) -> SosCertificate:
    """Square decomposition of the polynomial represented by A minus lam.

    A is a Gram matrix over vec; the squares are the rows of the semidefinite
    factor B of A - lam*E11 applied to the monomial vector, and the residual is
    the largest coefficient of ``sum b_j^2 - (v^T A v - lam)``, read off
    B^T B - (A - lam*E11) through the vector's Gram-to-monomial map.
    """
    A = np.asarray(A, dtype=float)
    shifted = A.copy()
    shifted[0, 0] -= lam
    fact = psd_factor(shifted, tol=CERT_PSD_TOL)
    scale = 1.0 + float(np.max(np.abs(vec.coefficients(shifted))))
    cert_tol = 1e-5 * scale
    if not fact.success:
        return SosCertificate(lam=lam, gram=A, squares=[], residual=float("inf"),
                              cert_tol=cert_tol, target_scale=scale)
    squares = [vec.polynomial(row) for row in fact.B]
    residual = float(np.max(np.abs(vec.coefficients(fact.B.T @ fact.B - shifted))))
    return SosCertificate(lam=lam, gram=A, squares=squares, residual=residual,
                          cert_tol=cert_tol, target_scale=scale)


@dataclass
class ExtractionResult:
    found: bool
    point: tuple | None
    upper_bound: float | None
    rank_ratio: float
    reason: str = ""


def extract_minimizer(primal: np.ndarray, vec: MonomialVector, f: Polynomial,
                      bound: float) -> ExtractionResult:
    """Read a candidate global minimizer off a rank-one moment matrix.

    The top eigenvector, normalized so its constant-monomial coordinate is
    one, lists the monomial values of the candidate point.  The candidate is
    accepted only if the second eigenvalue ratio, the degree-two moment
    consistency, and the objective-vs-bound gap all pass.
    """
    w, v = np.linalg.eigh(np.asarray(primal, dtype=float))
    lam1 = float(w[-1])
    lam2 = float(w[-2]) if len(w) > 1 else 0.0
    ratio = max(lam2, 0.0) / lam1 if lam1 > 0 else float("inf")
    if ratio > RANK_TOL:
        return ExtractionResult(False, None, None, ratio, "moment matrix not rank one")
    u = v[:, -1] * np.sqrt(max(lam1, 0.0))
    if abs(u[0]) < 1e-8:
        return ExtractionResult(False, None, None, ratio, "point at infinity")
    u = u / u[0]
    fl = f.to_float()
    n = vec.n
    if vec.d < 1:
        # degree-zero relaxation: every point attains a constant objective
        return ExtractionResult(True, (0.0,) * n, float(fl.evaluate((0.0,) * n)),
                                ratio)
    point = []
    for i in range(n):
        mono = tuple(1 if t == i else 0 for t in range(n))
        point.append(float(u[vec.index[mono]]))
    pscale = 1.0 + max(abs(p) for p in point) ** 2 if point else 1.0
    for i in range(n):
        for j in range(i, n):
            mono = tuple((1 if t == i else 0) + (1 if t == j else 0) for t in range(n))
            k = vec.index.get(mono)
            if k is None:
                continue
            if abs(u[k] - point[i] * point[j]) > MOMENT_TOL * pscale:
                return ExtractionResult(False, tuple(point), None, ratio,
                                        "degree-two moments inconsistent")
    upper = float(fl.evaluate(point))
    gap = upper - bound
    if gap > EXTRACT_TOL * (1.0 + abs(bound)):
        return ExtractionResult(False, tuple(point), upper, ratio,
                                "objective exceeds the bound")
    return ExtractionResult(True, tuple(point), upper, ratio)


# ---------------------------------------------------------------------------
# Bound pipelines
# ---------------------------------------------------------------------------

@dataclass
class SosResult:
    """Outcome of the SOS bound computation, in original coordinates."""

    value: float                     # the bound, or -inf when no shift is SOS
    status: SdpStatus
    certificate: SosCertificate | None
    moment_matrix: np.ndarray | None
    vector: MonomialVector | None
    alpha: float
    solution: SdpSolution | None = None
    gram_sdp: GramSdp | None = None
    tolerances: dict = field(default_factory=dict)

    @property
    def is_minus_infinity(self) -> bool:
        return self.value == MINUS_INFINITY


def sos_lower_bound(f: Polynomial, with_certificate: bool = True) -> SosResult:
    """Largest lambda with f - lambda a sum of squares, by SDP.

    Returns -inf exactly when the shifted-Gram feasibility fails for every
    lambda, which the solver detects as infeasibility of the Gram problem.
    Homogeneous scaling is applied up front and inverted on output.  The
    solve is repeated once at the bound's own scale, max(1, |lambda|^(1/2d)),
    if that is 10 % off the first factor and the first pass either revealed a
    bound far below the coefficient scale, which unscaling would amplify
    solver tolerance past, or ended with a warning: a bound far above it
    drives the solve into breakdown.
    """
    return _bound(f, 0, with_certificate)


def _bound(f: Polynomial, k: int, with_certificate: bool) -> SosResult:
    """The bound of ``build_gram_sdp(f, k)`` with homogeneous scaling."""
    two_d = _even_degree(f)
    alpha = suggested_scaling(f, two_d)
    res = _sos_bound_at_scale(f, k, alpha, two_d, with_certificate)
    if res.status is SdpStatus.OPTIMAL and two_d > 0:
        lam_scaled = res.value / alpha**two_d
        # a tiny bound, or a breakdown: every warning of a Gram solve marks one
        if 0 < abs(lam_scaled) < 1e-5 or res.solution.warnings:
            alpha2 = max(1.0, abs(res.value) ** (1.0 / two_d))
            if abs(alpha2 - alpha) / alpha > 0.1:
                return _sos_bound_at_scale(f, k, alpha2, two_d, with_certificate)
    return res


def _sos_bound_at_scale(f: Polynomial, k: int, alpha: float, two_d: int,
                        with_certificate: bool) -> SosResult:
    gs = build_gram_sdp(scale_homogeneous(f.to_float(), alpha, two_d), k)
    sol = solve(gs.problem)
    tols = {**sol.tolerances, "rank_tol": RANK_TOL, "moment_tol": MOMENT_TOL,
            "extract_tol": EXTRACT_TOL, "alpha": alpha}
    if sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        return SosResult(MINUS_INFINITY, sol.status, None, None, gs.vector, alpha,
                         sol, gs, tols)
    if sol.status is not SdpStatus.OPTIMAL:
        raise SdpFailure(sol.status, f"(SOS bound, multiplier power {k})")
    lam_s = gs.program.bound(sol)
    lam = lam_s * alpha**two_d
    d = gs.vector.d
    moment = _unscale_moment(sol.S_blocks[0], gs.vector, alpha)
    cert = None
    if with_certificate:
        shifted_s = gs.optimal_shifted_gram(sol)   # Gram of f_s - lam_s
        gram_s = shifted_s.copy()
        gram_s[0, 0] += lam_s
        cert = extract_certificate(_unscale_gram(gram_s, gs.vector, alpha, d), lam,
                                   gs.vector)
    return SosResult(lam, sol.status, cert, moment, gs.vector, alpha, sol, gs, tols)


def _unscale_moment(X: np.ndarray, vec: MonomialVector, alpha: float) -> np.ndarray:
    d = np.array([alpha ** sum(m) for m in vec.entries])
    return X * np.outer(d, d)


def _unscale_gram(A: np.ndarray, vec: MonomialVector, alpha: float, d: int) -> np.ndarray:
    s = np.array([alpha ** (d - sum(m)) for m in vec.entries])
    return A * np.outer(s, s)


def higher_degree_bound(f: Polynomial, k: int) -> float:
    """Largest lambda with (1 + sum x_i^(2k)) * (f - lambda) a sum of squares.

    The multiplier is strictly positive everywhere (the constant term keeps
    it nonzero at the origin), so any such lambda is a valid lower bound on
    the minimum; the result is never below the plain SOS bound when both are
    finite.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _bound(f, k, False).value


# ---------------------------------------------------------------------------
# Full minimization pipeline
# ---------------------------------------------------------------------------

@dataclass
class MinimizeResult:
    bound: float
    status: SdpStatus
    certificate: SosCertificate | None
    extraction: ExtractionResult | None
    refined: bool
    tolerances: dict
    alpha: float

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


def minimize(f: Polynomial, *, extract: bool = True) -> MinimizeResult:
    """SOS bound plus minimizer extraction with a degenerate-face fallback.

    When several global minimizers exist the moment matrix converges to a
    mixture over all of them and the rank-one test fails; a deterministic
    tiny linear perturbation of the objective then isolates one vertex of
    the optimal face, and the candidate is still validated against the
    unperturbed bound.  A Newton polish tightens accepted points.
    """
    res = sos_lower_bound(f)
    extraction = None
    refined = False
    if extract and not res.is_minus_infinity:
        extraction = extract_minimizer(res.moment_matrix, res.vector, f, res.value)
        if not extraction.found and extraction.reason == "moment matrix not rank one":
            perturbed = _perturbed_moment(f, res)
            if perturbed is not None:
                candidate = extract_minimizer(perturbed, res.vector, f, res.value)
                if candidate.found:
                    extraction = candidate
        if extraction.found:
            r = local_refine(f, extraction.point)
            if r.converged and r.value <= extraction.upper_bound + 1e-12 * (
                1.0 + abs(extraction.upper_bound)
            ):
                extraction = ExtractionResult(True, r.point, r.value,
                                              extraction.rank_ratio)
                refined = True
    return MinimizeResult(bound=res.value, status=res.status,
                          certificate=res.certificate, extraction=extraction,
                          refined=refined, tolerances=res.tolerances,
                          alpha=res.alpha)


def _perturbed_moment(f: Polynomial, res: SosResult) -> np.ndarray | None:
    """Moment matrix of the SOS bound of f + eps * l, l a generic linear form,
    posed by matching the perturbed coefficients on the program res solved."""
    vec = res.vector
    two_d = 2 * vec.d
    lam_s = res.value / res.alpha**two_d
    eps = 1e-4 * (1.0 + abs(lam_s))
    n = vec.n
    fs = scale_homogeneous(f.to_float(), res.alpha, two_d)
    for i in range(n):
        fs = fs + Polynomial.variable(n, i) * (eps * (i + 1) / n)
    problem = res.gram_sdp.program.match_coefficients(fs, lam=Polynomial.constant(n, 1.0))
    sol = solve(problem)
    if sol.status is not SdpStatus.OPTIMAL:
        return None
    return _unscale_moment(sol.S_blocks[0], vec, res.alpha)


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
