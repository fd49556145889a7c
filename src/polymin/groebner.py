"""Exact algebraic minimization oracle.

Verifies that the scaled partial derivatives form a Groebner basis under the
graded-lex order, enumerates standard monomials, builds exact multiplication
matrices of the quotient ring, and minimizes globally by reading off the
smallest real eigenvalue of the multiplication matrix of the objective.  A
fraction-free characteristic polynomial gives the alternative univariate
route to the same value.

The multiplication matrices come from a border table (Stetter, *Numerical
Polynomial Algebra*, 2004, ch. 2; Mourrain, AAECC 1999): the normal forms of
the border monomials x_j x^u, each one step from a smaller border normal
form or from a generator's tail, give every T_xj; the rows of any other T_g
then follow one from another, row u being row(u - e_j) times T_xj.  Rows are
Python ints over one gcd-reduced denominator.  The oracle builds one table
and reads its float matrices straight off those rows; ``multiplication_matrix``
gives the same matrices with exact ``Fraction`` entries.

No Buchberger completion is attempted: callers get a clean refusal when the
generators are not already a Groebner basis (the benchmark family always is).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import EigenResult, eig_general
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


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of p on division by G; supported only on standard monomials.

    Exact rational arithmetic throughout; p minus the result lies in the
    ideal by construction (the loop only ever subtracts multiples of
    generators).
    """
    p = p.to_fraction() if not p.is_exact() else p
    work = dict(p.terms)
    remainder: dict = {}
    lms = G.leading_monomials
    gens = G.generators
    while work:
        mono = max(work, key=grlex_key)
        coef = work.pop(mono)
        for lm, g in zip(lms, gens):
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
    monos = []
    for mono in _box_iter(bounds):
        if not any(monomial_divides(lm, mono) for lm in lms):
            monos.append(mono)
    return StandardBasis.from_monomials(monos)


def _box_iter(bounds):
    if len(bounds) == 1:
        for e in range(bounds[0]):
            yield (e,)
        return
    for e in range(bounds[0]):
        for rest in _box_iter(bounds[1:]):
            yield (e,) + rest


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

    Row 0 is ``normal_form(g, G)``.  Row u is row(u - e_j) times T_xj for the
    first j with u_j > 0: NF(x_j h) = NF(x_j NF(h)), and B is an order ideal,
    so u - e_j is a row already built.  The T_xj come from the border table
    of (G, B), built on each call.
    """
    entries: dict = {}
    for r, (nums, den) in enumerate(_int_rows(g, G, B, _BorderTable(G, B))):
        for c, a in nums.items():
            entries[(r, c)] = Fraction(a, den)
    return MultiplicationMatrix(g, B, entries)


def _int_rows(g: Polynomial, G: GroebnerBasis, B: StandardBasis, table):
    """The rows NF(x^u g) in B's order as (numerators by column, denominator);
    a row is kept only until its last child row is built."""
    index = B.index
    parents = [None]  # (row of u - e_j, j) for each row after row 0
    children = [0] * B.mu
    for u in B.monomials[1:]:
        j = next(k for k, e in enumerate(u) if e)
        p = index[_bump(u, j, -1)]
        parents.append((p, j))
        children[p] += 1
    live: dict = {}
    for r in range(B.mu):
        if r == 0:
            row = _int_row(normal_form(g, G), index)
        else:
            p, j = parents[r]
            row = table.times_variable(*live[p], j)
            children[p] -= 1
            if not children[p]:
                del live[p]
        if children[r]:
            live[r] = row
        yield row


def _bump(mono: Monomial, j: int, step: int = 1) -> Monomial:
    return mono[:j] + (mono[j] + step,) + mono[j + 1:]


def _int_row(p: Polynomial, index: dict):
    """(numerators by column, denominator) of p, over its least denominator."""
    den = math.lcm(*(Fraction(c).denominator for c in p.terms.values()))
    return {index[m]: int(c * den) for m, c in p.terms.items()}, den


class _BorderTable:
    """Normal forms of the border monomials x_j x^u (u standard, x_j x^u not).

    ``step[j][c]`` is the column of x_j x^u for the standard monomial u in
    column c, or the border monomial itself when x_j x^u is not standard;
    ``border`` maps each border monomial to its normal form as an int row.
    A border monomial m with a non-standard m - e_j is one step from that
    border row: NF(x^m) = NF(x_j NF(x^(m-e_j))).  Every other one is a
    leading monomial, whose normal form is minus that of its generator's
    tail.  In ascending graded-lex order each product finds the border rows
    it needs already built.
    """

    def __init__(self, G: GroebnerBasis, B: StandardBasis):
        index = B.index
        self.step = []
        for j in range(G.n):
            up = [_bump(u, j) for u in B.monomials]
            self.step.append([index.get(m, m) for m in up])
        tails: dict = {}
        for lm, g in zip(G.leading_monomials, G.generators):
            tails.setdefault(lm, g - Polynomial.from_monomial(G.n, lm))
        self.border: dict = {}
        todo = {m for col in self.step for m in col if type(m) is tuple}
        for m in sorted(todo, key=grlex_key):
            inner = [j for j in range(G.n) if m[j] and _bump(m, j, -1) not in index]
            if inner:
                j = inner[0]
                self.border[m] = self.times_variable(*self.border[_bump(m, j, -1)], j)
            else:
                nums, den = _int_row(normal_form(tails[m], G), index)
                self.border[m] = {c: -a for c, a in nums.items()}, den

    def variable_rows(self, j: int):
        """The rows NF(x_j x^u) of T_xj in B's order, as (nums, den): a unit
        row where x_j x^u is standard, else its border row."""
        return [({t: 1}, 1) if type(t) is int else self.border[t] for t in self.step[j]]

    def times_variable(self, nums: dict, den: int, j: int):
        """NF(x_j h) as (nums, den) for h = sum(nums[c] x^u_c) / den."""
        step = self.step[j]
        acc: dict = {}
        border = []
        for c, a in nums.items():
            t = step[c]
            if type(t) is int:
                acc[t] = a  # u -> x_j x^u is injective: no collision yet
            else:
                border.append((a, self.border[t]))
        if border:
            lcm = math.lcm(*(bden for _, (_, bden) in border))
            if lcm != 1:
                acc = {c: a * lcm for c, a in acc.items()}
            for a, (bnums, bden) in border:
                f = a * (lcm // bden)
                for c, b in bnums.items():
                    acc[c] = acc.get(c, 0) + f * b
            den *= lcm
            acc = {c: a for c, a in acc.items() if a}
        common = math.gcd(den, *acc.values())
        if common != 1:
            acc = {c: a // common for c, a in acc.items()}
            den //= common
        return acc, den


@dataclass
class OracleResult:
    fstar: float
    points: list[tuple]
    mu: int
    eigen: EigenResult
    tf_nnz: int


def minimize_by_eigenvalues(f: Polynomial, *, mu_cap: int = DEFAULT_MU_CAP) -> OracleResult:
    """Global minimum of f as the smallest real eigenvalue of its
    multiplication matrix, with minimizers read off eigenvector coordinate
    ratios.

    The critical-ideal generators must already form a Groebner basis.  For a
    repeated smallest eigenvalue the eigenspace is split with the
    multiplication matrix of a generic linear form (which commutes with the
    objective's and therefore preserves the eigenspace); candidate vectors
    failing the coordinate-ratio or gradient residual tests are discarded.

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
    table = _BorderTable(G, B)
    Tf_dense, tf_nnz = _float_matrix(_int_rows(fe, G, B, table), mu)
    Tx_dense = [_float_matrix(table.variable_rows(j), mu)[0] for j in range(fe.n)]
    del table
    eigen = eig_general(Tf_dense)
    if not eigen.real_values:
        raise NoRealCriticalPointsError(
            "multiplication matrix has no real eigenvalue under the tolerance rule"
        )
    grad_tol = GRAD_TOL * (1.0 + fe.max_abs_coefficient())
    grads = [fe.to_float().differentiate(i) for i in range(fe.n)]
    # Walk the real clusters in ascending order until one yields a validated
    # real critical point.  A complex critical point can carry a real
    # objective value (the eigenvalue is then real with no real point behind
    # it), so the smallest real eigenvalue alone is not trustworthy.
    for value, cluster in zip(eigen.real_values, eigen.real_clusters):
        candidates = _eigenspace_vectors(eigen, cluster, Tx_dense)
        points: list[tuple] = []
        for v in candidates:
            p = _point_from_vector(v, Tx_dense)
            if p is None:
                continue
            if max(abs(g.evaluate(p)) for g in grads) > grad_tol:
                continue
            if not any(max(abs(a - b) for a, b in zip(p, q)) <= 1e-6 for q in points):
                points.append(p)
        if points:
            points.sort()
            return OracleResult(fstar=value, points=points, mu=mu, eigen=eigen,
                                tf_nnz=tf_nnz)
    # The multiplication matrix of the objective can be too wild numerically
    # (its irrelevant eigenvalues may dwarf the minimum by many orders).  A
    # generic linear form has a tame matrix with the same joint eigenvectors,
    # so enumerate all candidate points from it and minimize over the
    # validated real critical points instead.
    result = _minimize_via_linear_form(fe, Tx_dense, grads, grad_tol)
    if result is not None:
        vals, points = result
        return OracleResult(fstar=vals, points=points, mu=mu, eigen=eigen,
                            tf_nnz=tf_nnz)
    raise NoRealCriticalPointsError(
        "no candidate eigenvector produced a validated real critical point"
    )


def _float_matrix(rows, mu: int):
    """The float matrix of int rows (nums, den) and its count of nonzeros.

    Python's int division is correctly rounded, so a / den is the float
    nearest the rational entry.
    """
    T = np.zeros((mu, mu))
    nnz = 0
    for r, (nums, den) in enumerate(rows):
        for c, a in nums.items():
            T[r, c] = a / den
        nnz += len(nums)
    return T, nnz


def _minimize_via_linear_form(fe, Tx_dense, grads, grad_tol):
    n = len(Tx_dense)
    fl = fe.to_float()
    for attempt in range(3):
        coeffs = [float((i + 1 + 5 * attempt) % (2 * n + 3) + 1) for i in range(n)]
        Tl = sum(c * T for c, T in zip(coeffs, Tx_dense))
        try:
            _, vecs = np.linalg.eig(Tl)
        except np.linalg.LinAlgError:
            continue
        found: list[tuple] = []
        for k in range(vecs.shape[1]):
            v = _realize(vecs[:, k])
            p = _point_from_vector(v, Tx_dense)
            if p is None:
                continue
            if max(abs(g.evaluate(p)) for g in grads) > grad_tol:
                continue
            if not any(max(abs(a - b) for a, b in zip(p, q)) <= 1e-6 for q in found):
                found.append(p)
        if found:
            best = min(float(fl.evaluate(p)) for p in found)
            points = sorted(
                p for p in found
                if float(fl.evaluate(p)) <= best + 1e-7 * (1.0 + abs(best))
            )
            return best, points
    return None


def _eigenspace_vectors(eigen: EigenResult, cluster: list[int], Tx_dense) -> list[np.ndarray]:
    """Real candidate eigenvectors for one real-eigenvalue cluster.

    For multiplicity one this is the eigenvector itself.  Otherwise the
    returned basis of the eigenspace is generally a mix of the per-point
    evaluation vectors, so we diagonalize the restriction of a generic
    linear-form multiplication matrix to the eigenspace and use its
    eigenvectors to un-mix.
    """
    cols = eigen.vectors[:, cluster]
    if len(cluster) == 1:
        return [_realize(cols[:, 0])]
    raw = np.hstack([cols.real, cols.imag])
    u, s, _ = np.linalg.svd(raw, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    V = u[:, :rank]
    n = len(Tx_dense)
    for attempt in range(4):
        coeffs = np.array(
            [float((i + 1 + 3 * attempt) % (2 * n + 3) + 1) for i in range(n)]
        )
        Tl = sum(c * T for c, T in zip(coeffs, Tx_dense))
        H = np.linalg.lstsq(V, Tl @ V, rcond=None)[0]
        w, vecs = np.linalg.eig(H)
        if len(w) > 1:
            dist = np.abs(w[:, None] - w[None, :])
            np.fill_diagonal(dist, np.inf)
            if np.min(dist) < 1e-8 * (1 + np.max(np.abs(w))):
                continue  # degenerate split, retry with another linear form
        return [_realize(V @ vecs[:, k]) for k in range(vecs.shape[1])]
    return [_realize(V @ vecs[:, k]) for k in range(vecs.shape[1])]


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

def characteristic_polynomial(
    T: MultiplicationMatrix, mu_cap: int = CHARPOLY_EXACT_CAP
) -> list[Fraction]:
    """Exact monic characteristic polynomial det(tI - T), ascending coefficients.

    A similarity reduction to upper Hessenberg form over the rationals, then
    the Hessenberg recurrence (Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 2.2.9); O(mu^3) arithmetic, still capped because
    the rationals grow.
    """
    mu = T.mu
    if mu > mu_cap:
        raise MuCapExceededError(f"mu={mu} exceeds exact characteristic cap {mu_cap}")
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


def real_roots_exact_poly(coeffs: Sequence[Fraction], im_tol: float = 1e-7) -> list[float]:
    """Real roots of an exact univariate polynomial via its squarefree part."""
    sf = squarefree_part(coeffs)
    arr = np.array([float(c) for c in sf[::-1]])  # descending for np.roots
    if len(arr) <= 1:
        return []
    roots = np.roots(arr)
    out = sorted(
        float(r.real) for r in roots if abs(r.imag) <= im_tol * (1.0 + abs(r))
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
