"""Bounded-degree infeasibility certificates for polynomial systems.

For a system {f_i >= 0, g_j = 0} a witness of degree D is an identity

    s0 + sum_i s_i * f_i + 1 + sum_j t_j * g_j == 0

with s0 and the s_i sums of squares and the t_j arbitrary polynomials, every
product staying within degree D.  Such an identity is impossible to satisfy
at a real solution of the system, so finding one refutes feasibility.  The
search is laid out by ``sos._multiplier_program``, the package's one program
builder: one PSD block per SOS multiplier (its Gram matrix in the primal X),
each free multiplier's coefficients as u - v pairs in the nonnegative LP
block, one coefficient-matching row per monomial, and a trace-regularized
objective.

Sums of squares are carried as weighted square lists (weight, polynomial)
with nonnegative weights so a witness can be stated and verified exactly
over the rationals.

The same builder minimizes a polynomial over the system: the largest
lambda certified by a degree-D multiplier identity f - lambda =
s0 + sum s_i f_i + sum t_j g_j is an SDP objective (lambda enters linearly)
and rises monotonically with D.  It is a lambda-program like the plain SOS
bound, which is this one with no constraints, and is solved by the same
``sos._lambda_solve``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import psd_factor
from .poly import Polynomial, parse, sum_of_squared_residuals
from .sdp import SdpFailure, SdpStatus, solve
from .sos import (
    CERT_PSD_TOL,
    _dual_upper,
    _lambda_solve,
    _multiplier_program,
    _positive_definite,
    sos_lower_bound,
)

WITNESS_FLOAT_TOL = 1e-6
RATIONALIZE_DENOMINATOR_CAP = 10**6
NO_ROOT_MARGIN = 1e-6       # residual bounds above this prove there is no real root


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

def _witness_stop(record, iterate):
    """``sdp.solve``'s stop for the witness search: it fires at the first
    iterate whose projection onto the identity's affine space (the X_blocks
    the solver's ``iterate()`` builds) is positive definite in every PSD
    block, which makes those blocks a witness (the LP block holds the free
    multipliers as u - v, so it needs no sign).  The solve returns them as
    its X; the record holds nothing more."""
    return {} if _positive_definite(iterate()[0]) else None


def find_witness(sys: SemialgebraicSystem, D: int):
    """Search for a degree-D infeasibility witness; D must be even, >= 2.

    Returns a float-verified Witness on success and NotFoundAtDegree when the
    search SDP is infeasible.  Multiplier degrees are the largest even values
    keeping every product within D; constraints whose degree already exceeds
    D get a zero multiplier.  The witness is the solution's X: the first
    iterate's projection onto the identity's affine space that is positive
    definite (see ``_witness_stop``, which ends the solve there), else the
    converged solve's.  Any other status raises ``SdpFailure``.
    """
    if D < 2 or D % 2 != 0:
        raise ValueError("witness degree must be an even integer >= 2")
    n = sys.n
    prog, ineq_terms, eq_terms = _multiplier_program(n, D, sys.inequalities,
                                                     sys.equalities)
    problem = prog.match_coefficients(Polynomial.constant(n, -1.0))
    sol = solve(problem, stop=_witness_stop)
    if sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        return NotFoundAtDegree(D)
    if sol.status is not SdpStatus.OPTIMAL:
        raise SdpFailure(sol.status, f"(witness search at degree {D})")

    def squares_of(term: int) -> SquareList:
        vec = prog.sos_terms[term][1]
        fact = psd_factor(sol.X_blocks[term], tol=CERT_PSD_TOL)
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

    def __bool__(self) -> bool:
        return self.ok


def verify_witness(sys: SemialgebraicSystem, w: Witness,
                   exact: bool = False) -> VerificationReport:
    """Re-expand the witness identity and check it is the zero polynomial.

    Exact mode works over rationals (float inputs are rationalized by
    continued fractions with a capped denominator first) and requires the
    identity to vanish identically; float mode allows a coefficient residual
    up to 1e-6.  Sum-of-squares validity is checked through the provided
    square lists: the weights must be nonnegative.  The witness must carry
    one multiplier per constraint of the system (ValueError otherwise).
    """
    counts = [len(w.ineq_multipliers), len(w.eq_multipliers)]
    if counts != [len(sys.inequalities), len(sys.equalities)]:
        raise ValueError(f"witness has {counts} multipliers, not one per constraint")
    n = sys.n

    def prep(p: Polynomial) -> Polynomial:
        return (p.to_fraction(max_denominator=RATIONALIZE_DENOMINATOR_CAP) if exact
                else p.to_float())

    weights_ok = all(wgt >= (0 if exact else -1e-12)
                     for sq in [w.s0, *w.ineq_multipliers] for wgt, _ in sq)
    total = Polynomial.constant(n, Fraction(1) if exact else 1.0)
    acc = [(w.s0, None)] + list(zip(w.ineq_multipliers, sys.inequalities))
    for squares, factor in acc:
        part = Polynomial.zero(n)
        for wgt, q in squares:
            qq = prep(q)
            part = part + (qq * qq) * (Fraction(wgt) if exact else float(wgt))
        if factor is not None:
            part = part * prep(factor)
        total = total + part
    for t, g in zip(w.eq_multipliers, sys.equalities):
        total = total + prep(t) * prep(g)

    residual = total.max_abs_coefficient()
    ok = weights_ok and (total.is_zero() if exact else residual <= WITNESS_FLOAT_TOL)
    offenders = sorted(total.terms, key=lambda m: -abs(float(total.terms[m])))[:5]
    return VerificationReport(ok=ok, exact=exact, max_residual=float(residual),
                              offending_monomials=offenders, weights_ok=weights_ok)


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


def real_feasibility_bound(gs: list[Polynomial]) -> RealFeasibilityResult:
    """SOS bound on the sum of squared residuals of a polynomial system.

    A strictly positive bound proves the system has no real solution; a zero
    (or unbounded-below) outcome is inconclusive by design.
    """
    f = sum_of_squared_residuals(gs)
    res = sos_lower_bound(f)
    verdict = (FeasibilityVerdict.NO_REAL_ROOT
               if res.bound > NO_ROOT_MARGIN else FeasibilityVerdict.INCONCLUSIVE)
    return RealFeasibilityResult(bound=res.bound, verdict=verdict)


# ---------------------------------------------------------------------------
# Bounded-degree minimization over a system
# ---------------------------------------------------------------------------

def bounded_minimization(sys: SemialgebraicSystem, f: Polynomial, D: int) -> float:
    """Largest lambda certified by a degree-D multiplier identity
    f - lambda = s0 + sum_i s_i f_i + sum_j t_j g_j with the s's SOS.

    Lambda enters the search linearly and is eliminated through the
    constant coefficient, so it is the SDP objective directly: no bisection
    is needed.  The solve is ``sos._lambda_solve``'s, and the value the
    lambda_c proved by the first iterate that ``sos._certified_stop``
    accepts, within 1e-8 |lambda| of the dual's lambda, else the converged
    objective's lambda.  The value never decreases (beyond that tolerance)
    when D grows, and rescaling the identity turns it into a refutation
    witness for any strictly smaller lambda appended as f <= λ'.  Returns
    -inf when no lambda is certifiable at this degree and +inf when the
    system itself is refuted so strongly the moment side (the dual) is empty.
    D odd, below 2 or below deg f, and f in another number of variables than
    the system's, raise ``ValueError``.
    """
    if D < 2 or D % 2 != 0:
        raise ValueError("degree must be an even integer >= 2")
    if f.n != sys.n:
        raise ValueError("variable count mismatch between f and the system")
    if f.degree() > D:
        raise ValueError("degree budget is below deg(f)")
    prog, _, _ = _multiplier_program(sys.n, D, sys.inequalities, sys.equalities)
    problem = prog.match_coefficients(f, lam=Polynomial.constant(sys.n, 1.0))
    return _lambda_solve(prog, problem, _dual_upper(prog),
                         f"(bounded minimization at degree {D})")[0]
