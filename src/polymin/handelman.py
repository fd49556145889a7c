"""Linear-programming lower bounds for polynomials over polytopes.

Every polynomial strictly positive on a polytope {l_1 >= 0, ..., l_s >= 0}
is a nonnegative combination of products l_1^i1 * ... * l_s^is, so the
largest lambda with f - lambda written as such a combination of products of
total power at most D is an LP-computable lower bound on the minimum of f
over the polytope, and the bounds rise toward the true minimum as D grows.

The LP runs through ``sdp.solve_lp`` on the semidefinite engine's
nonnegative block, one entry per product column; the combinatorial column
count C(s + D, D) is computed up front and refused beyond a cap so the cost
is always explicit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial, monomials_up_to_degree, parse
from .sdp import SdpOptions, SdpStatus, solve_lp

DEFAULT_COLUMN_CAP = 200_000


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
            from .poly import infer_variable_count
            n = max(infer_variable_count(s) for s in items)
        return cls(n=n, facets=[parse(s, n) for s in items])

    def check_bounded(self, opts: SdpOptions | None = None):
        """Reject unbounded input: maximize +-x_k over the set by LP.

        Each direction is an LP in split variables x = u - v with slacks; an
        unbounded LP status in any direction means the set is not a polytope.
        """
        n, s = self.n, self.num_facets
        # variables: u_1..u_n, v_1..v_n, slack_1..slack_s
        for k in range(n):
            for sign in (1.0, -1.0):
                c = np.zeros(2 * n + s)
                c[k] = -sign
                c[n + k] = sign
                rows = []
                for i, ell in enumerate(self.facets):
                    a = np.zeros(2 * n + s)
                    for j in range(n):
                        mono = tuple(1 if t == j else 0 for t in range(n))
                        coef = float(ell.terms.get(mono, 0))
                        a[j] = coef
                        a[n + j] = -coef
                    a[2 * n + i] = -1.0
                    rows.append((a, -float(ell.constant_coefficient())))
                res = solve_lp(c, rows, opts)
                if res.status is SdpStatus.DUAL_INFEASIBLE:
                    raise UnboundedPolytopeError(
                        f"the set is unbounded in the {'+' if sign > 0 else '-'}x{k + 1} direction"
                    )
                if res.status is SdpStatus.PRIMAL_INFEASIBLE:
                    return  # empty set is trivially bounded


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


def _facet_powers(P: PolytopeDescription, D: int, cap: int):
    """All products l^alpha with |alpha| <= D, memoized incrementally."""
    s = P.num_facets
    count = math.comb(s + D, D)
    if count > cap:
        raise HandelmanColumnCapError(
            f"C({s}+{D},{D}) = {count} product columns exceed the cap {cap}"
        )
    one = Polynomial.constant(P.n, 1.0)
    powers: dict = {(0,) * s: one}
    order = monomials_up_to_degree(s, D)
    for alpha in order:
        if alpha in powers:
            continue
        i = next(t for t, e in enumerate(alpha) if e > 0)
        prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
        powers[alpha] = powers[prev] * P.facets[i].to_float()
    return order, powers


def handelman_bound(f: Polynomial, P: PolytopeDescription, D: int,
                    column_cap: int = DEFAULT_COLUMN_CAP,
                    opts: SdpOptions | None = None,
                    check_bounded: bool = True) -> HandelmanBound:
    """The degree-D product-representation lower bound for f over P.

    Maximizes lambda subject to matching f - lambda against a nonnegative
    combination of facet products of total power at most D.  Lambda is
    eliminated through the constant coefficient, leaving a pure nonnegative
    LP; requires D >= deg(f).
    """
    if f.n != P.n:
        raise ValueError("variable count mismatch between f and the polytope")
    if D < f.degree():
        raise ValueError(f"degree {D} is below deg(f) = {f.degree()}")
    if check_bounded:
        P.check_bounded(opts)
    alphas, powers = _facet_powers(P, D, column_cap)
    fl = f.to_float()
    monos = [m for m in monomials_up_to_degree(f.n, D) if any(m)]
    c = np.array([float(powers[a].constant_coefficient()) for a in alphas])
    rows = []
    for m in monos:
        a_row = np.array([float(powers[a].terms.get(m, 0.0)) for a in alphas])
        rows.append((a_row, float(fl.terms.get(m, 0.0))))
    res = solve_lp(c, rows, opts)
    if res.status is SdpStatus.PRIMAL_INFEASIBLE:
        raise HandelmanInfeasibleError(D)
    if res.status is not SdpStatus.OPTIMAL:
        from .sdp import SdpFailure

        raise SdpFailure(res.status, f"(product-representation LP at degree {D})")
    value = float(fl.constant_coefficient()) - res.value
    coeffs = {a: float(x) for a, x in zip(alphas, res.x) if x > 1e-9}
    rebuilt = Polynomial.constant(f.n, value)
    for a, w in coeffs.items():
        rebuilt = rebuilt + powers[a] * w
    residual = (rebuilt - fl).max_abs_coefficient()
    return HandelmanBound(D=D, value=value, coefficients=coeffs,
                          residual=residual, lp_status=res.status)


def handelman_ladder(f: Polynomial, P: PolytopeDescription, D_max: int,
                     column_cap: int = DEFAULT_COLUMN_CAP,
                     opts: SdpOptions | None = None) -> list[HandelmanBound]:
    """Bounds for D = deg(f) .. D_max; the sequence is nondecreasing."""
    if D_max < f.degree():
        raise ValueError("D_max is below deg(f)")
    P.check_bounded(opts)
    out = []
    for D in range(max(f.degree(), 1), D_max + 1):
        try:
            out.append(handelman_bound(f, P, D, column_cap, opts,
                                        check_bounded=False))
        except HandelmanInfeasibleError:
            continue
    return out
