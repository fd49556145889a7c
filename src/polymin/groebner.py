"""Exact algebraic minimization oracle.

Verifies that the scaled partial derivatives form a Groebner basis under the
graded-lex order, enumerates standard monomials, builds exact multiplication
matrices of the quotient ring, and minimizes globally by reading off the
smallest real eigenvalue of the multiplication matrix of the objective.  One
reader turns eigenvectors into critical points: it diagonalizes a generic
linear form's matrix restricted to a subspace, either a real eigenvalue
cluster's eigenspace or, when no cluster yields a point, the whole space.  A
fraction-free characteristic polynomial gives the alternative univariate
route to the same value.

The rows of a multiplication matrix T_g follow one from another: row u is
NF(x_j x^(u - e_j) g), so row(u - e_j) times T_xj.  ``multiplication_matrix``
runs that recurrence exactly, one ``normal_form`` per row, and gives
``Fraction`` entries.  The oracle needs T_f only for a float eigensolve, so
it works in floats after the exact Groebner check: one walk over the border
monomials x_j x^u (Stetter, *Numerical Polynomial Algebra*, 2004, ch. 2;
Mourrain, AAECC 1999), each one step from a smaller border row or from a
generator's exactly reduced tail, gives every T_xj, and the row recurrence
over them gives T_f, one BLAS product per degree and variable.  The oracle's
exactness lies in the Groebner check, the exact scaling and the exact normal
forms of f and of the tails.

No Buchberger completion is attempted: callers get a clean refusal when the
generators are not already a Groebner basis (the benchmark family always is).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_IM_TOL, EigenResult, eig_general
from .poly import (
    Monomial,
    Polynomial,
    grlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    scale_homogeneous,
    suggested_scaling,
)

DEFAULT_MU_CAP = 200_000
CHARPOLY_EXACT_CAP = 64
POINT_TOL = 1e-6    # eigenvector coordinate-ratio consistency, relative to 1 + |x_i|
GRAD_TOL = 1e-6     # gradient residual at a point, relative to 1 + max|coefficient|


class NotGroebnerError(ValueError):
    """Generators fail the Buchberger criterion; completion is out of scope."""


class InfiniteQuotientError(ValueError):
    """Some variable has no pure-power leading term: quotient ring not finite."""


class MuCapExceededError(ValueError):
    pass


class NoRealCriticalPointsError(RuntimeError):
    """No real eigenvalue found, inconsistent with a polynomial bounded below."""


def _require_exact(polys: Sequence[Polynomial], what: str):
    for p in polys:
        if not p.is_exact():
            raise ValueError(f"{what} requires exact rational coefficients")


@dataclass
class GroebnerBasis:
    """Monic generators under graded lex, with cached leading monomials."""

    generators: list[Polynomial]
    leading_monomials: list[Monomial]

    @classmethod
    def from_generators(cls, gens: Sequence[Polynomial]) -> "GroebnerBasis":
        if not gens:
            raise ValueError("empty generator list")
        _require_exact(gens, "Groebner arithmetic")
        monic = []
        for g in gens:
            if g.is_zero():
                raise ValueError("zero generator")
            lc = g.leading_coefficient()
            monic.append(g * (Fraction(1) / Fraction(lc)) if lc != 1 else g)
        return cls(monic, [g.leading_monomial() for g in monic])

    @property
    def n(self) -> int:
        return self.generators[0].n


@dataclass
class StandardBasis:
    """Monomials not divisible by any leading term, ascending graded-lex."""

    monomials: list[Monomial]
    index: dict

    @classmethod
    def from_monomials(cls, monos: Sequence[Monomial]) -> "StandardBasis":
        ordered = sorted(monos, key=grlex_key)
        return cls(ordered, {m: i for i, m in enumerate(ordered)})

    @property
    def mu(self) -> int:
        return len(self.monomials)


def critical_ideal_generators(f: Polynomial) -> list[Polynomial]:
    """Generators of the critical ideal of f.

    When f has the benchmark-family shape (monic pure powers x_i^(2d) on top
    of lower-order terms) the partials are rescaled by 1/(2d) so each leading
    term is the bare power x_i^(2d-1); otherwise the raw partials are
    returned.
    """
    f = f.to_fraction() if not f.is_exact() else f
    n = f.n
    two_d = f.degree()
    partials = [f.differentiate(i) for i in range(n)]
    if two_d >= 2 and two_d % 2 == 0:
        top = {m: c for m, c in f.terms.items() if sum(m) == two_d}
        pure = {tuple(two_d if j == i else 0 for j in range(n)) for i in range(n)}
        if set(top) == pure and all(c == 1 for c in top.values()):
            scale = Fraction(1, two_d)
            return [p * scale for p in partials]
    return partials


def _grlex_desc(mono: Monomial) -> tuple:     # a heap entry: largest graded-lex first
    return (-sum(mono), tuple(-e for e in mono), mono)


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of p on division by G; supported only on standard monomials.

    Exact rational arithmetic throughout; p minus the result lies in the
    ideal by construction (the loop only ever subtracts multiples of
    generators).  The largest term left comes off a heap; a term that
    cancels stays in the heap and is skipped when it comes up.
    """
    p = p.to_fraction() if not p.is_exact() else p
    work = dict(p.terms)
    heap = [_grlex_desc(m) for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        mono = heapq.heappop(heap)[-1]
        coef = work.pop(mono, None)
        if coef is None:
            continue
        for lm, g in zip(G.leading_monomials, G.generators):
            if monomial_divides(lm, mono):
                shift = monomial_div(mono, lm)
                for m2, c2 in g.terms.items():
                    if m2 == lm:
                        continue
                    mm = monomial_mul(shift, m2)
                    s = work.get(mm, 0) - coef * c2
                    if s == 0:
                        work.pop(mm, None)
                    else:
                        if mm not in work:
                            heapq.heappush(heap, _grlex_desc(mm))
                        work[mm] = s
                break
        else:
            remainder[mono] = coef
    return Polynomial(p.n, remainder, _clean=True)


def is_groebner(gens: Sequence[Polynomial]) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero.

    Pairs with coprime leading terms are skipped (their S-polynomial always
    reduces to zero).
    """
    G = GroebnerBasis.from_generators(gens)
    k = len(G.generators)
    for i in range(k):
        for j in range(i + 1, k):
            lmi, lmj = G.leading_monomials[i], G.leading_monomials[j]
            lcm = monomial_lcm(lmi, lmj)
            if sum(lcm) == sum(lmi) + sum(lmj):
                continue  # coprime leading terms
            gi, gj = G.generators[i], G.generators[j]
            si = Polynomial.from_monomial(gi.n, monomial_div(lcm, lmi)) * gi
            sj = Polynomial.from_monomial(gj.n, monomial_div(lcm, lmj)) * gj
            if not normal_form(si - sj, G).is_zero():
                return False
    return True


def standard_monomials(G: GroebnerBasis, mu_cap: int = DEFAULT_MU_CAP) -> StandardBasis:
    """Enumerate monomials not divisible by any leading term of G."""
    n = G.n
    bounds = [None] * n
    for lm in G.leading_monomials:
        nz = [i for i, e in enumerate(lm) if e > 0]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    missing = [i for i, b in enumerate(bounds) if b is None]
    if missing:
        names = ", ".join(f"x{i + 1}" for i in missing)
        raise InfiniteQuotientError(
            f"no pure-power leading term for {names}; quotient is infinite-dimensional"
        )
    box = math.prod(bounds)
    if box > mu_cap:
        raise MuCapExceededError(f"candidate box {box} exceeds cap {mu_cap}")
    lms = G.leading_monomials
    return StandardBasis.from_monomials(
        [m for m in itertools.product(*(range(b) for b in bounds))
         if not any(monomial_divides(lm, m) for lm in lms)])


@dataclass
class MultiplicationMatrix:
    """Matrix of the multiply-by-g endomorphism of the quotient ring.

    Entry (row x^u, col x^v) is the coefficient of x^v in the normal form of
    x^u * g, so the column vector of monomial values at a critical point p is
    a right eigenvector with eigenvalue g(p).
    """

    g: Polynomial
    basis: StandardBasis
    entries: dict  # (row, col) -> Fraction

    @property
    def mu(self) -> int:
        return self.basis.mu

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def matmul(self, other: "MultiplicationMatrix") -> "MultiplicationMatrix":
        """Exact product; represents multiplication by g*h on the quotient."""
        cols_of: dict = {}
        for (i, j), c in other.entries.items():
            cols_of.setdefault(i, []).append((j, c))
        res: dict = {}
        for (i, k), c1 in self.entries.items():
            for j, c2 in cols_of.get(k, ()):
                key = (i, j)
                s = res.get(key, 0) + c1 * c2
                if s == 0:
                    res.pop(key, None)
                else:
                    res[key] = s
        return MultiplicationMatrix(self.g * other.g, self.basis, res)

    def add(self, other: "MultiplicationMatrix") -> "MultiplicationMatrix":
        res = dict(self.entries)
        for key, c in other.entries.items():
            s = res.get(key, 0) + c
            if s == 0:
                res.pop(key, None)
            else:
                res[key] = s
        return MultiplicationMatrix(self.g + other.g, self.basis, res)

    def scale(self, c) -> "MultiplicationMatrix":
        if c == 0:
            return MultiplicationMatrix(self.g * 0, self.basis, {})
        return MultiplicationMatrix(
            self.g * c, self.basis, {k: v * c for k, v in self.entries.items()}
        )


def multiplication_matrix(
    g: Polynomial, G: GroebnerBasis, B: StandardBasis
) -> MultiplicationMatrix:
    """Multiplication by g on the quotient ring; G must be a Groebner basis
    and B its standard monomials.

    Row 0 is ``normal_form(g, G)``.  Row u is ``normal_form(x_j row(u - e_j))``
    for the first j with u_j > 0: NF(x_j h) = NF(x_j NF(h)), and B is an
    order ideal, so u - e_j is a row already built.  Every entry is exact;
    the oracle runs the same recurrence in floats instead (``_float_rows``).
    """
    xs = [Polynomial.variable(G.n, j) for j in range(G.n)]
    rows = [normal_form(g, G)]
    for p, j in _parents(B):
        rows.append(normal_form(xs[j] * rows[p], G))
    entries = {(r, B.index[m]): Fraction(c)
               for r, row in enumerate(rows) for m, c in row.terms.items()}
    return MultiplicationMatrix(g, B, entries)


def _parents(B: StandardBasis) -> list:
    """(row of u - e_j, j) for each row u after row 0, j the first index with
    u_j > 0; B is an order ideal, so u - e_j is an earlier row."""
    parents = []
    for u in B.monomials[1:]:
        j = next(k for k, e in enumerate(u) if e)
        parents.append((B.index[_bump(u, j, -1)], j))
    return parents


def _bump(mono: Monomial, j: int, step: int = 1) -> Monomial:
    return mono[:j] + (mono[j] + step,) + mono[j + 1:]


def _float_row(p: Polynomial, B: StandardBasis) -> np.ndarray:
    """The float image of p, a polynomial on B's monomials, as a row over B
    (``float`` of a ``Fraction`` is correctly rounded)."""
    row = np.zeros(B.mu)
    for m, c in p.terms.items():
        row[B.index[m]] = float(c)
    return row


def _float_variable_matrices(G: GroebnerBasis, B: StandardBasis) -> list[np.ndarray]:
    """The T_xj in floats, by one walk over the border monomials.

    Row u of T_xj is a unit row where x_j x^u is standard, else the row of
    the border monomial m = x_j x^u.  In ascending graded-lex order, a border
    m with a border m - e_k has row(m) = row(m - e_k) @ T_xk, since
    NF(x^m) = NF(x_k NF(x^(m - e_k))); every other border m is a leading
    monomial, whose row is minus the float image of its generator's tail's
    normal form.  NF(x^m) holds only monomials below m, so every row a
    product reads is already written.
    """
    n, index = G.n, B.index
    Tx = [np.zeros((B.mu, B.mu)) for _ in range(n)]
    holders: dict = {}   # border monomial -> the (j, row u) of T_xj it fills
    for j in range(n):
        for r, u in enumerate(B.monomials):
            m = _bump(u, j)
            if m in index:
                Tx[j][r, index[m]] = 1.0
            else:
                holders.setdefault(m, []).append((j, r))
    tails: dict = {}
    for lm, g in zip(G.leading_monomials, G.generators):
        tails.setdefault(lm, g - Polynomial.from_monomial(n, lm))
    border: dict = {}
    for m in sorted(holders, key=grlex_key):
        k = next((k for k in range(n) if m[k] and _bump(m, k, -1) in holders), None)
        if k is None:
            border[m] = -_float_row(normal_form(tails[m], G), B)
        else:
            border[m] = border[_bump(m, k, -1)] @ Tx[k]
        for j, r in holders[m]:
            Tx[j][r] = border[m]
    return Tx


@dataclass
class OracleResult:
    """The minimum, its validated minimizers, the quotient's dimension mu,
    the eigensolve of T_f and ``tf_nnz``, the count of nonzeros of the float
    T_f that was eigensolved."""

    fstar: float
    points: list[tuple]
    mu: int
    eigen: EigenResult
    tf_nnz: int


def minimize_by_eigenvalues(f: Polynomial, *, mu_cap: int = DEFAULT_MU_CAP) -> OracleResult:
    """Global minimum of f as the smallest real eigenvalue of its
    multiplication matrix, with minimizers read off eigenvector coordinate
    ratios.

    The critical-ideal generators must already form a Groebner basis.  The
    real eigenvalues are walked in ascending order; each one's eigenspace is
    split with the multiplication matrix of a generic linear form (which
    commutes with the objective's and therefore preserves it), and candidate
    vectors failing the coordinate-ratio or gradient residual tests are
    discarded.  When no eigenspace yields a point, the same reader runs on
    the whole space and the validated points of least f are kept.

    Large lower-order coefficients are tamed by an exact rational homogeneous
    scaling before any numerics (minimizers and the minimum transform back
    exactly); mildly scaled inputs are left untouched.
    """
    fe = f.to_fraction() if not f.is_exact() else f
    two_d = fe.degree()
    alpha_f = suggested_scaling(fe, two_d) if two_d >= 2 and two_d % 2 == 0 else 1.0
    if alpha_f < 2.0:
        return _minimize_as_given(fe, mu_cap)
    alpha = Fraction(alpha_f).limit_denominator(16)
    inner = _minimize_as_given(scale_homogeneous(fe, alpha, two_d), mu_cap)
    factor = float(alpha) ** two_d
    eigen = inner.eigen
    # the scaled objective's matrix is similar to 1/factor times the original
    # one, so the spectrum maps back exactly
    unscaled = EigenResult(
        values=eigen.values * factor,
        vectors=eigen.vectors,
        real_values=[v * factor for v in eigen.real_values],
        real_multiplicities=list(eigen.real_multiplicities),
        real_clusters=[list(c) for c in eigen.real_clusters],
    )
    return OracleResult(
        fstar=inner.fstar * factor,
        points=[tuple(float(alpha) * c for c in p) for p in inner.points],
        mu=inner.mu,
        eigen=unscaled,
        tf_nnz=inner.tf_nnz,
    )


def _minimize_as_given(fe: Polynomial, mu_cap: int) -> OracleResult:
    """``minimize_by_eigenvalues`` on the exact f as given, without scaling."""
    gens = critical_ideal_generators(fe)
    if not is_groebner(gens):
        raise NotGroebnerError(
            "critical ideal generators are not a Groebner basis; refusing to complete"
        )
    G = GroebnerBasis.from_generators(gens)
    B = standard_monomials(G, mu_cap=mu_cap)
    mu = B.mu
    Tx_dense = _float_variable_matrices(G, B)
    Tf_dense = _float_rows(fe, G, B, Tx_dense)
    tf_nnz = int(np.count_nonzero(Tf_dense))
    eigen = eig_general(Tf_dense)
    if not eigen.real_values:
        raise NoRealCriticalPointsError(
            "multiplication matrix has no real eigenvalue under the tolerance rule"
        )
    grad_tol = GRAD_TOL * (1.0 + fe.max_abs_coefficient())
    f_value, derivatives, magnitude = fe.exponent_table()
    # Walk the real clusters in ascending order until one yields a validated
    # real critical point.  A complex critical point can carry a real
    # objective value (the eigenvalue is then real with no real point behind
    # it), so the smallest real eigenvalue alone is not trustworthy.
    for value, cluster in zip(eigen.real_values, eigen.real_clusters):
        cols = eigen.vectors[:, cluster]
        u, s, _ = np.linalg.svd(np.hstack([cols.real, cols.imag]), full_matrices=False)
        points = _critical_points(u[:, s > 1e-9 * s[0]], Tx_dense, derivatives, grad_tol)
        if points:
            return OracleResult(fstar=value, points=points, mu=mu, eigen=eigen,
                                tf_nnz=tf_nnz)
    # The multiplication matrix of the objective can be too wild numerically
    # (its irrelevant eigenvalues may dwarf the minimum by many orders).  The
    # same reader on the whole space enumerates every validated real critical
    # point instead; the least f wins, a tie measured against the size of f's
    # terms at the point, since the scaled problem's values can all be tiny.
    points = _critical_points(np.eye(mu), Tx_dense, derivatives, grad_tol)
    if not points:
        raise NoRealCriticalPointsError(
            "no candidate eigenvector produced a validated real critical point"
        )
    values, sizes = f_value(points), magnitude(points)
    best = float(values.min())
    points = [p for p, v, size in zip(points, values, sizes)
              if v <= best + 1e-7 * (abs(best) + size)]
    return OracleResult(fstar=best, points=points, mu=mu, eigen=eigen, tf_nnz=tf_nnz)


def _float_rows(g: Polynomial, G: GroebnerBasis, B: StandardBasis, Tx_dense) -> np.ndarray:
    """T_g in floats by the recurrence of ``multiplication_matrix`` over the
    float T_xj.

    Row 0 is the float image of NF(g); the rows of one degree whose first
    nonzero exponent is j come from one product T[parents] @ T_xj, so there
    are at most n deg(B) products and no loop over entries.
    """
    T = np.zeros((B.mu, B.mu))
    T[0] = _float_row(normal_form(g, G), B)
    groups: dict = {}
    for r, (p, j) in enumerate(_parents(B), start=1):
        rows, parents = groups.setdefault((sum(B.monomials[r]), j), ([], []))
        rows.append(r)
        parents.append(p)
    for (_, j), (rows, parents) in sorted(groups.items()):
        T[rows] = T[parents] @ Tx_dense[j]
    return T


def _critical_points(Q: np.ndarray, Tx_dense, derivatives, grad_tol) -> list[tuple]:
    """The validated real critical points read off the span of Q's
    orthonormal columns (a sum of joint eigenspaces of the T_xj), without
    duplicates and sorted.

    A basis of such a span is generally a mix of the points' evaluation
    vectors; the eigenvectors of Q^T T_l Q, for a generic linear form l,
    un-mix it.  When two restricted eigenvalues coincide (or the eigensolve
    fails) the next form is tried, and the last one is used regardless.
    Each vector must give consistent coordinate ratios and a small gradient.
    """
    n = len(Tx_dense)
    vecs = np.empty((Q.shape[1], 0))
    for attempt in range(4):
        coeffs = [float((i + 1 + 3 * attempt) % (2 * n + 3) + 1) for i in range(n)]
        H = Q.T @ sum(c * T for c, T in zip(coeffs, Tx_dense)) @ Q
        try:
            w, vecs = np.linalg.eig(H)
        except np.linalg.LinAlgError:
            continue
        dist = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(len(w), np.inf))
        if np.min(dist) >= 1e-8 * (1 + np.max(np.abs(w))):
            break
    points: list[tuple] = []
    for k in range(vecs.shape[1]):
        p = _point_from_vector(_realize(Q @ vecs[:, k]), Tx_dense)
        if p is None or np.max(np.abs(derivatives(p)[0])) > grad_tol:
            continue
        if not any(max(abs(a - b) for a, b in zip(p, q)) <= 1e-6 for q in points):
            points.append(p)
    return sorted(points)


def _realize(v: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(v)))
    phase = v[j] / abs(v[j])
    return (v / phase).real


def _point_from_vector(v: np.ndarray, Tx_dense):
    scale = np.max(np.abs(v))
    if scale == 0:
        return None
    v = v / scale
    if v[0] == 0:  # slot 0 is the monomial 1; affine quotients have no points at infinity
        return None
    j = int(np.argmax(np.abs(v)))
    point = []
    for Tx in Tx_dense:
        u = Tx @ v
        p_i = u[j] / v[j]
        if np.max(np.abs(u - p_i * v)) > POINT_TOL * (1.0 + abs(p_i)):
            return None
        point.append(float(p_i))
    return tuple(point)


# ---------------------------------------------------------------------------
# Exact characteristic polynomial and univariate helpers
# ---------------------------------------------------------------------------

def characteristic_polynomial(T: MultiplicationMatrix) -> list[Fraction]:
    """Exact monic characteristic polynomial det(tI - T), ascending coefficients.

    A similarity reduction to upper Hessenberg form over the rationals, then
    the Hessenberg recurrence (Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 2.2.9); O(mu^3) arithmetic, still capped at
    CHARPOLY_EXACT_CAP because the rationals grow.
    """
    mu = T.mu
    if mu > CHARPOLY_EXACT_CAP:
        raise MuCapExceededError(
            f"mu={mu} exceeds exact characteristic cap {CHARPOLY_EXACT_CAP}")
    H = [[Fraction(0)] * mu for _ in range(mu)]
    for (i, j), c in T.entries.items():
        H[i][j] = Fraction(c)
    for m in range(mu - 2):
        # zero column m below the subdiagonal with the similarity
        # (row i -= u row m+1, column m+1 += u column i)
        piv = next((i for i in range(m + 1, mu) if H[i][m] != 0), None)
        if piv is None:
            continue
        if piv != m + 1:
            H[piv], H[m + 1] = H[m + 1], H[piv]
            for row in H:
                row[piv], row[m + 1] = row[m + 1], row[piv]
        p = H[m + 1][m]
        for i in range(m + 2, mu):
            if H[i][m] == 0:
                continue
            u = H[i][m] / p
            top, low = H[m + 1], H[i]
            for j in range(m, mu):
                if top[j]:
                    low[j] -= u * top[j]
            for row in H:
                if row[i]:
                    row[m + 1] += u * row[i]
    # polys[k] = det(tI - H[:k, :k]), ascending; expansion along the last
    # column, whose subdiagonal products link it to the smaller leading blocks
    polys = [[Fraction(1)]]
    for k in range(1, mu + 1):
        prev = polys[-1]
        nxt = [Fraction(0)] + prev
        for e, c in enumerate(prev):
            nxt[e] -= H[k - 1][k - 1] * c
        sub = Fraction(1)
        for i in range(1, k):
            sub *= H[k - i][k - i - 1]
            if sub == 0:
                break
            w = H[k - i - 1][k - 1] * sub
            if w:
                for e, c in enumerate(polys[k - i - 1]):
                    nxt[e] -= w * c
        polys.append(nxt)
    return polys[-1]


def poly1d_derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [coeffs[k] * k for k in range(1, len(coeffs))]


def poly1d_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    dlead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = rem[k + len(den) - 1] / dlead
        quot[k] = c
        if c:
            for i, dc in enumerate(den):
                rem[k + i] -= c * dc
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def poly1d_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and any(c != 0 for c in b):
        _, r = poly1d_divmod(a, b)
        a, b = b, r
    if a and a[-1] != 1:
        lead = a[-1]
        a = [c / lead for c in a]
    return a if a else [Fraction(0)]


def squarefree_part(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """p / gcd(p, p'): same roots, all simple.  Input/output ascending."""
    deriv = poly1d_derivative(coeffs)
    if not deriv:
        return list(coeffs)
    g = poly1d_gcd(list(coeffs), deriv)
    if len(g) <= 1:
        return list(coeffs)
    q, _ = poly1d_divmod(list(coeffs), g)
    return q


def real_roots_exact_poly(coeffs: Sequence[Fraction]) -> list[float]:
    """Real roots of an exact univariate polynomial via its squarefree part."""
    sf = squarefree_part(coeffs)
    arr = np.array([float(c) for c in sf[::-1]])  # descending for np.roots
    if len(arr) <= 1:
        return []
    roots = np.roots(arr)
    out = sorted(
        float(r.real) for r in roots if abs(r.imag) <= DEFAULT_IM_TOL * (1.0 + abs(r))
    )
    return out


def write_matrix_market(T: MultiplicationMatrix, path: str, comment: str = ""):
    """Coordinate-format Matrix Market text export (1-based indices)."""
    lines = ["%%MatrixMarket matrix coordinate real general"]
    if comment:
        lines.append(f"% {comment}")
    items = sorted(T.entries.items())
    lines.append(f"{T.mu} {T.mu} {len(items)}")
    for (i, j), c in items:
        lines.append(f"{i + 1} {j + 1} {float(c):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
