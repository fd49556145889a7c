"""Linear-programming lower bounds for polynomials over polytopes.

Every polynomial strictly positive on a polytope {l_1 >= 0, ..., l_s >= 0}
is a nonnegative combination of products l_1^i1 * ... * l_s^is (Handelman),
so the largest lambda with f - lambda written as such a combination of
products of total power at most D is an LP-computable lower bound on the
minimum of f over the polytope, and the bounds rise toward the true minimum
as D grows.

One product table holds each l^alpha, |alpha| <= D, as a column over the
monomials of degree <= D; both are graded, so a lower degree's table is its
leading block.  Every rung, the boundedness check included, is one
``sdp.solve_lp`` call on a leading block: constant row as cost, other rows as
constraints.  The column count C(s + D, D) is refused beyond COLUMN_CAP
before anything is built, so the cost is always explicit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial, infer_variable_count, monomial_mul, monomials_up_to_degree, parse
from .sdp import SdpFailure, SdpStatus, solve_lp

COLUMN_CAP = 200_000


class UnboundedPolytopeError(ValueError):
    """The inequality list does not describe a bounded set."""


class HandelmanColumnCapError(ValueError):
    pass


class HandelmanInfeasibleError(RuntimeError):
    """No representation at this degree; callers should raise D."""

    def __init__(self, degree: int):
        super().__init__(f"no product representation at degree {degree}")
        self.degree = degree


@dataclass
class PolytopeDescription:
    """A polytope given by affine functionals required to be nonnegative."""

    n: int
    facets: list[Polynomial] = field(default_factory=list)

    def __post_init__(self):
        if not self.facets:
            raise ValueError("need at least one facet functional")
        for ell in self.facets:
            if ell.n != self.n:
                raise ValueError("variable count mismatch in facet list")
            if ell.degree() > 1:
                raise ValueError("facet functionals must have degree <= 1")

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def to_json(self) -> str:
        return json.dumps([ell.to_string() for ell in self.facets])

    @classmethod
    def from_json(cls, text: str, n: int | None = None) -> "PolytopeDescription":
        items = json.loads(text)
        if n is None:
            n = max(infer_variable_count(s) for s in items)
        return cls(n=n, facets=[parse(s, n) for s in items])

    def check_bounded(self):
        """Reject unbounded input by the degree-2 rung of -|x|^2.

        A nonempty P is bounded exactly when -|x|^2 has a degree-2 product
        representation (by affine Farkas each c_k +- x_k has a degree-1 one).
        An empty set counts as bounded: if that LP is infeasible, the degree-1
        rung of 0 is unbounded (every lambda certified) exactly when P is
        empty.  Any other solver status raises ``SdpFailure``."""
        _check_bounded(self, _product_table(self, 2)[1])


@dataclass
class HandelmanBound:
    D: int
    value: float
    coefficients: dict            # exponent tuple over facets -> weight >= 0
    residual: float               # coefficient error of the representation
    lp_status: SdpStatus

    def to_json_dict(self) -> dict:
        return {
            "degree": self.D,
            "value": self.value,
            "coefficients": {
                ",".join(map(str, a)): c for a, c in sorted(self.coefficients.items())
            },
            "residual": self.residual,
        }


def _product_table(P: PolytopeDescription, D: int):
    """The exponents alpha, |alpha| <= D, and the matrix whose column alpha is
    l^alpha over the monomials of degree <= D, an earlier column times a facet."""
    n, s = P.n, P.num_facets
    count = math.comb(s + D, D)
    if count > COLUMN_CAP:
        raise HandelmanColumnCapError(
            f"C({s}+{D},{D}) = {count} product columns exceed the cap {COLUMN_CAP}")
    rows = monomials_up_to_degree(n, D)
    index = {m: r for r, m in enumerate(rows)}
    lower = math.comb(n + D - 1, D - 1)          # rows of degree < D
    units = rows[1:n + 1]                        # the monomials x_j
    up = [np.array([index[monomial_mul(m, e)] for m in rows[:lower]]) for e in units]
    alphas = monomials_up_to_degree(s, D)
    column = {a: k for k, a in enumerate(alphas)}
    T = np.zeros((len(rows), count))
    T[0, 0] = 1.0
    for k, alpha in enumerate(alphas[1:], 1):
        i = next(t for t, e in enumerate(alpha) if e > 0)
        prev = T[:, column[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]]
        ell = P.facets[i]
        T[:, k] = float(ell.constant_coefficient()) * prev
        for e, shift in zip(units, up):
            if e in ell.terms:
                T[shift, k] += float(ell.terms[e]) * prev[:lower]
    return alphas, T


def _rung_lp(p: Polynomial, P: PolytopeDescription, T: np.ndarray, D: int):
    """The LP max lambda s.t. p - lambda = A x, x >= 0 (as min A[0] @ x) on the
    degree-D leading block A of T; returns A, b (p over A's rows), solution."""
    A = T[:math.comb(P.n + D, D), :math.comb(P.num_facets + D, D)]
    b = np.array([float(p.coefficient(m)) for m in monomials_up_to_degree(P.n, D)])
    return A, b, solve_lp(A[0], [(A[r], float(b[r])) for r in range(1, len(A))])


def _check_bounded(P: PolytopeDescription, T: np.ndarray):
    square = Polynomial(P.n, {monomial_mul(e, e): -1
                              for e in monomials_up_to_degree(P.n, 1)[1:]})
    status = _rung_lp(square, P, T, 2)[2].status
    if status is SdpStatus.PRIMAL_INFEASIBLE:
        status = _rung_lp(Polynomial.zero(P.n), P, T, 1)[2].status
        if status is SdpStatus.OPTIMAL:
            raise UnboundedPolytopeError(
                "the set is unbounded: -|x|^2 has no degree-2 product representation")
    # optimal: bounded; dual infeasible (every lambda certified): empty
    if status not in (SdpStatus.OPTIMAL, SdpStatus.DUAL_INFEASIBLE):
        raise SdpFailure(status, "(boundedness LP)")


def _rungs(f: Polynomial, P: PolytopeDescription, low: int, D: int) -> list:
    """Rungs low..D of f, all off one product table of degree max(D, 2) once
    P is checked bounded on it; None marks a rung with no representation."""
    if f.n != P.n:
        raise ValueError("variable count mismatch between f and the polytope")
    if D < f.degree():
        raise ValueError(f"degree {D} is below deg(f) = {f.degree()}")
    alphas, T = _product_table(P, max(D, 2))
    _check_bounded(P, T)
    out = []
    for d in range(low, D + 1):
        A, b, res = _rung_lp(f, P, T, d)
        if res.status is SdpStatus.PRIMAL_INFEASIBLE:
            out.append(None)
            continue
        if res.status is not SdpStatus.OPTIMAL:
            raise SdpFailure(res.status, f"(product-representation LP at degree {d})")
        value = float(b[0]) - res.value
        x = np.where(res.x > 1e-9, res.x, 0.0)
        residual = float(np.max(np.abs(A @ x + value * np.eye(1, len(b))[0] - b)))
        out.append(HandelmanBound(D=d, value=value, residual=residual, lp_status=res.status,
                                  coefficients={a: float(w) for a, w in zip(alphas, x) if w}))
    return out


def handelman_bound(f: Polynomial, P: PolytopeDescription, D: int) -> HandelmanBound:
    """The degree-D product-representation lower bound for f over P.

    Maximizes lambda subject to matching f - lambda against a nonnegative
    combination of facet products of total power at most D, lambda eliminated
    through the constant coefficient; requires D >= deg(f).  It is the top
    rung of a one-rung ladder."""
    bound = _rungs(f, P, D, D)[0]
    if bound is None:
        raise HandelmanInfeasibleError(D)
    return bound


def handelman_ladder(f: Polynomial, P: PolytopeDescription, D_max: int) -> list[HandelmanBound]:
    """Bounds for D = deg(f) .. D_max off one product table; nondecreasing."""
    return [b for b in _rungs(f, P, max(f.degree(), 1), D_max) if b is not None]
