"""Bounded-degree infeasibility certificates for polynomial systems.

For a system {f_i >= 0, g_j = 0} a witness of degree D is an identity

    s0 + sum_i s_i * f_i + 1 + sum_j t_j * g_j == 0

with s0 and the s_i sums of squares and the t_j arbitrary polynomials, every
product staying within degree D.  Such an identity is impossible to satisfy
at a real solution of the system, so finding one refutes feasibility.  The
search is posed with ``sos.SosProgram``: one PSD block per SOS multiplier
(its Gram matrix in the primal X), each free multiplier's coefficients as
u - v pairs in the nonnegative LP block, one coefficient-matching row per
monomial, and a trace-regularized objective.

Sums of squares are carried as weighted square lists (weight, polynomial)
with nonnegative weights so a witness can be stated and verified exactly
over the rationals.

The same machinery minimizes a polynomial over the system: the largest
lambda certified by a degree-D multiplier identity f - lambda =
s0 + sum s_i f_i + sum t_j g_j is an SDP objective (lambda enters linearly)
and rises monotonically with D.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import psd_factor
from .poly import Polynomial, monomials_up_to_degree, parse
from .sdp import SdpFailure, SdpOptions, SdpStatus, solve
from .sos import MINUS_INFINITY, MonomialVector, SosProgram, sos_lower_bound

WITNESS_FLOAT_TOL = 1e-6
RATIONALIZE_DENOMINATOR_CAP = 10**6


class PsatzSolverError(RuntimeError):
    def __init__(self, status: SdpStatus, degree: int):
        super().__init__(
            f"witness search at degree {degree} failed with status {status.value}"
        )
        self.status = status
        self.degree = degree


@dataclass
class SemialgebraicSystem:
    """Constraints {f >= 0 for f in inequalities, g = 0 for g in equalities}."""

    n: int
    inequalities: list[Polynomial] = field(default_factory=list)
    equalities: list[Polynomial] = field(default_factory=list)

    def __post_init__(self):
        for p in list(self.inequalities) + list(self.equalities):
            if p.n != self.n:
                raise ValueError("variable count mismatch in system")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "inequalities": [p.to_string() for p in self.inequalities],
            "equalities": [p.to_string() for p in self.equalities],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SemialgebraicSystem":
        n = int(data["n"])
        return cls(
            n=n,
            inequalities=[parse(s, n) for s in data.get("inequalities", [])],
            equalities=[parse(s, n) for s in data.get("equalities", [])],
        )


SquareList = list  # list of (weight, Polynomial) pairs with weight >= 0


def square_list_polynomial(squares: SquareList, n: int) -> Polynomial:
    total = Polynomial.zero(n)
    for w, q in squares:
        total = total + (q * q) * w
    return total


@dataclass
class Witness:
    """Degree-D infeasibility witness with explicit square decompositions."""

    degree: int
    s0: SquareList
    ineq_multipliers: list        # one SquareList per inequality
    eq_multipliers: list          # one Polynomial per equality
    n: int
    verified_exact: bool = False
    float_residual: float | None = None

    def s0_polynomial(self) -> Polynomial:
        return square_list_polynomial(self.s0, self.n)

    def ineq_polynomials(self) -> list[Polynomial]:
        return [square_list_polynomial(s, self.n) for s in self.ineq_multipliers]

    def to_json_dict(self) -> dict:
        def dump_squares(squares):
            return {"squares": [{"weight": _num_str(w), "poly": q.to_string()}
                                for w, q in squares]}
        return {
            "degree": self.degree,
            "s0": dump_squares(self.s0),
            "ineq_multipliers": [dump_squares(s) for s in self.ineq_multipliers],
            "eq_multipliers": [t.to_string() for t in self.eq_multipliers],
            "verified_exact": self.verified_exact,
        }

    @classmethod
    def from_json_dict(cls, data: dict, n: int) -> "Witness":
        def load_squares(obj):
            return [(Fraction(e["weight"]), parse(e["poly"], n))
                    for e in obj["squares"]]
        return cls(
            degree=int(data["degree"]),
            s0=load_squares(data["s0"]),
            ineq_multipliers=[load_squares(s) for s in data["ineq_multipliers"]],
            eq_multipliers=[parse(t, n) for t in data["eq_multipliers"]],
            n=n,
            verified_exact=bool(data.get("verified_exact", False)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _num_str(w) -> str:
    return str(w if isinstance(w, Fraction) else Fraction(float(w)))


@dataclass
class NotFoundAtDegree:
    """The degree-D witness search SDP is infeasible."""

    degree: int


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def _even_budget(total: int) -> int:
    return max(total, 0) // 2


def _multiplier_program(sys: SemialgebraicSystem, D: int):
    """The terms s0 + sum s_i f_i + sum t_j g_j of degree D: the program and,
    per inequality/equality, the term carrying its multiplier (None when the
    constraint's degree exceeds D)."""
    n = sys.n
    prog = SosProgram(n)
    prog.add_sos(MonomialVector.build(n, D // 2), Polynomial.constant(n, 1.0))
    ineq_terms = [None if f.degree() > D else
                  prog.add_sos(MonomialVector.build(n, _even_budget(D - f.degree())), f)
                  for f in sys.inequalities]
    eq_terms = [None if g.degree() > D else
                prog.add_free(monomials_up_to_degree(n, D - g.degree()), g)
                for g in sys.equalities]
    return prog, ineq_terms, eq_terms


def find_witness(sys: SemialgebraicSystem, D: int,
                 opts: SdpOptions | None = None):
    """Search for a degree-D infeasibility witness; D must be even, >= 2.

    Returns a float-verified Witness on success and NotFoundAtDegree when the
    search SDP is infeasible.  Multiplier degrees are the largest even values
    keeping every product within D; constraints whose degree already exceeds
    D get a zero multiplier.
    """
    if D < 2 or D % 2 != 0:
        raise ValueError("witness degree must be an even integer >= 2")
    n = sys.n
    prog, ineq_terms, eq_terms = _multiplier_program(sys, D)
    sol = solve(prog.match_coefficients(Polynomial.constant(n, -1.0)), opts)
    if sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        return NotFoundAtDegree(D)
    if sol.status is not SdpStatus.OPTIMAL:
        raise PsatzSolverError(sol.status, D)

    def squares_of(term: int) -> SquareList:
        Q = sol.X_blocks[term]
        vec = prog.sos_terms[term][1]
        fact = psd_factor((Q + Q.T) / 2.0, tol=1e-8)
        if not fact.success or fact.B is None:
            return []
        return [(1.0, vec.polynomial(rowv)) for rowv in fact.B]

    w = Witness(degree=D, s0=squares_of(0),
                ineq_multipliers=[[] if t is None else squares_of(t) for t in ineq_terms],
                eq_multipliers=[Polynomial.zero(n) if t is None else prog.free(sol, t)
                                for t in eq_terms],
                n=n)
    report = verify_witness(sys, w, exact=False)
    w.float_residual = report.max_residual
    return w


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    ok: bool
    exact: bool
    max_residual: float
    offending_monomials: list
    weights_ok: bool
    rationalized: bool = False

    def __bool__(self) -> bool:
        return self.ok


def _rationalize_poly(p: Polynomial) -> Polynomial:
    return p.to_fraction(max_denominator=RATIONALIZE_DENOMINATOR_CAP)


def verify_witness(sys: SemialgebraicSystem, w: Witness,
                   exact: bool = False) -> VerificationReport:
    """Re-expand the witness identity and check it is the zero polynomial.

    Exact mode works over rationals (float inputs are rationalized by
    continued fractions with a capped denominator first) and requires the
    identity to vanish identically; float mode allows a coefficient residual
    up to 1e-6.  Sum-of-squares validity is checked through the provided
    square lists: the weights must be nonnegative.
    """
    n = sys.n

    def prep(p: Polynomial) -> Polynomial:
        return _rationalize_poly(p) if exact else p.to_float()

    weights_ok = all(
        wgt >= (0 if exact else -1e-12)
        for sq in [w.s0, *w.ineq_multipliers]
        for wgt, _ in sq
    )
    total = Polynomial.constant(n, Fraction(1) if exact else 1.0)
    acc = [(w.s0, None)] + list(zip(w.ineq_multipliers, sys.inequalities))
    for squares, factor in acc:
        part = Polynomial.zero(n)
        for wgt, q in squares:
            qq = prep(q)
            wgt = Fraction(wgt) if exact and not isinstance(wgt, Fraction) else wgt
            part = part + (qq * qq) * (wgt if exact else float(wgt))
        if factor is not None:
            part = part * prep(factor)
        total = total + part
    for t, g in zip(w.eq_multipliers, sys.equalities):
        total = total + prep(t) * prep(g)

    if exact:
        ok = total.is_zero() and weights_ok
        residual = 0.0 if total.is_zero() else total.max_abs_coefficient()
    else:
        residual = total.max_abs_coefficient()
        ok = residual <= WITNESS_FLOAT_TOL and weights_ok
    offenders = sorted(total.terms, key=lambda m: -abs(float(total.terms[m])))[:5]
    return VerificationReport(ok=ok, exact=exact, max_residual=float(residual),
                              offending_monomials=offenders, weights_ok=weights_ok,
                              rationalized=exact)


# ---------------------------------------------------------------------------
# Real feasibility of equation systems
# ---------------------------------------------------------------------------

class FeasibilityVerdict(enum.Enum):
    NO_REAL_ROOT = "no_real_root"
    INCONCLUSIVE = "inconclusive"


@dataclass
class RealFeasibilityResult:
    bound: float
    verdict: FeasibilityVerdict


def real_feasibility_bound(gs: list[Polynomial], feas_margin: float = 1e-6,
                           opts: SdpOptions | None = None) -> RealFeasibilityResult:
    """SOS bound on the sum of squared residuals of a polynomial system.

    A strictly positive bound proves the system has no real solution; a zero
    (or unbounded-below) outcome is inconclusive by design.
    """
    from .poly import sum_of_squared_residuals

    f = sum_of_squared_residuals(gs)
    res = sos_lower_bound(f, opts, with_certificate=False)
    verdict = (FeasibilityVerdict.NO_REAL_ROOT
               if res.value > feas_margin else FeasibilityVerdict.INCONCLUSIVE)
    return RealFeasibilityResult(bound=res.value, verdict=verdict)


# ---------------------------------------------------------------------------
# Bounded-degree minimization over a system
# ---------------------------------------------------------------------------

def bounded_minimization(sys: SemialgebraicSystem, f: Polynomial, D: int,
                         opts: SdpOptions | None = None) -> float:
    """Largest lambda certified by a degree-D multiplier identity
    f - lambda = s0 + sum_i s_i f_i + sum_j t_j g_j with the s's SOS.

    Lambda enters the search linearly and is eliminated through the
    constant coefficient, so it is the SDP objective directly: no bisection
    is needed.  The value never decreases when D grows, and rescaling the
    identity turns it into a refutation witness for any strictly smaller
    lambda appended as f <= λ'.  Returns -inf when no lambda is certifiable
    at this degree and +inf when the system itself is refuted so strongly
    the moment side (the dual) is empty.
    """
    if D < 2 or D % 2 != 0:
        raise ValueError("degree must be an even integer >= 2")
    if f.degree() > D:
        raise ValueError("degree budget is below deg(f)")
    prog, _, _ = _multiplier_program(sys, D)
    sol = solve(prog.match_coefficients(f, lam=Polynomial.constant(sys.n, 1.0)), opts)
    if sol.status is SdpStatus.OPTIMAL:
        return prog.bound(sol)
    if sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        return MINUS_INFINITY
    if sol.status is SdpStatus.DUAL_INFEASIBLE:
        return float("inf")
    raise SdpFailure(sol.status, f"(bounded minimization at degree {D})")
