"""Workloads of the polymin benchmark: seeded inputs, ops and answer checks.

An op is one call into the public library API plus the benchmark's own
check of the answer.  Every check here is computed by the benchmark from the
inputs (exact rational evaluation of f, pointwise evaluation of identities,
grid and sample minima); none of them reads a verdict the library reports
about itself, except ``verify_witness``, which the check re-does pointwise.

Instances come from ``random_family_instance`` with seeds from
``BenchmarkPlan.instance_seed``: round r of a cell with c ops per round uses
plan instances r*c .. r*c+c-1, so the instances of the first R rounds are the
ones ``polymin bench`` generates for the plan with ``seed_base`` = the
benchmark seed and ``instances`` = R*c.

The library is always reached through module attributes
(``polymin.sos.minimize``, ...), so wrappers a tracer installs there see the
benchmark's own calls too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import polymin.groebner
import polymin.handelman
import polymin.poly
import polymin.psatz
import polymin.sos
from polymin.bench import BenchmarkPlan
from polymin.poly import FamilyParams, Polynomial, SplitMix64
from polymin.sdp import SdpStatus

K = 100

# (cell, ops per round).  The order inside a round interleaves the cells.
# Per-op times differ by two orders of magnitude between cells, so each mix
# puts op_s.p50 and op_s.tail (rank N-10) well inside one large block of
# similar ops, preferably ones long enough to average out short stalls of a
# shared machine, and leaves the few expensive ops above the tail, where they
# weigh in ops_per_s.  sos-paper: p50 and tail fall in the 30 (6,4) ops.
SOS_PAPER = [((6, 4), 30), ((4, 6), 2), ((3, 8), 1), ((8, 4), 1),
             ((3, 10), 1), ((10, 4), 1)]
# oracle-crosscheck: p50 and tail fall in the 20 (2,8) ops.
ORACLE_CROSSCHECK = [((2, 4), 4), ((2, 6), 4), ((3, 4), 4), ((2, 8), 20),
                     ((4, 4), 1), ((3, 6), 1)]
# certificates: p50 and tail fall among the 24 ball and 4 tied (3,6) ops.
LADDER_CELL = (2, 4)         # f on the unit box, ladder D = 4 .. LADDER_TOP
LADDER_TOP = 7
LADDERS = 2
TIED_CELLS = [((3, 4), 4), ((3, 6), 4)]
BALL_CELLS = [((2, 4), 2, 4), ((3, 4), 24, 6)]   # (cell, ops per round, D)
BALL_RADIUS = 2
WITNESS_SYSTEMS = 2          # seeded systems per round, each at every degree
WITNESS_DEGREES = (2, 4, 6)

# Wall seconds of one round at this commit on a 2-core x86-64 box with one
# BLAS thread.  A run does max(1, seconds // NOMINAL_ROUND_S) whole rounds, a
# fixed amount of work, so two versions compared at the same --seconds run
# identical ops and every percentile is taken over the same op count.
NOMINAL_ROUND_S = {"sos-paper": 35.0, "oracle-crosscheck": 30.0, "certificates": 16.0}
WORKLOADS = tuple(NOMINAL_ROUND_S)

# relative tolerances of the checks
BOUND_TOL = 1e-5             # bound <= f(point) + BOUND_TOL * (1 + |bound|)
POINT_TOL = 1e-6             # oracle points: |grad f| and |f - f*| vs term sizes
LP_TOL = 1e-6                # Handelman rungs vs the grid minimum
WITNESS_TOL = 1e-6           # pointwise witness identity vs term sizes


@dataclass
class Op:
    """One unit of timed work: a public call on generated inputs."""

    kind: str                # minimize | crosscheck | ladder | witness | ball
    cell: str                # label of the diagnostic row the op belongs to
    inputs: dict


@dataclass
class OpResult:
    status_ok: bool = True
    raised: str | None = None
    wrong: list = field(default_factory=list)   # failed independent checks
    minimize_calls: int = 0
    extracted: int = 0                           # validated minimizers
    agree: bool | None = None                    # SOS bound matches oracle f*
    sos_s: float | None = None
    oracle_s: float | None = None
    fingerprint: tuple = ()

    @property
    def failed(self) -> bool:
        return self.raised is not None or not self.status_ok or bool(self.wrong)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _plan(cells, seed) -> BenchmarkPlan:
    # instance_seed does not depend on the plan's instance count
    return BenchmarkPlan(cells=list(cells), instances=1, K_values=[K],
                         methods=["sos"], seed_base=seed)


def family_instance(n: int, two_d: int, seed: int) -> Polynomial:
    return polymin.poly.random_family_instance(
        FamilyParams(n=n, d=two_d // 2, K=K, seed=seed))


def _cell_instances(spec, rounds, seed):
    """{cell: [instances of round 0, round 1, ...]} for a (cell, count) list."""
    plan = _plan([c for c, _ in spec], seed)
    out = {}
    for ci, (cell, count) in enumerate(spec):
        out[cell] = [[family_instance(*cell, plan.instance_seed(ci, 0, r * count + j))
                      for j in range(count)] for r in range(rounds)]
    return out


def symmetrize(f: Polynomial) -> Polynomial:
    """Average of f over all coordinate permutations (exact)."""
    perms = list(itertools.permutations(range(f.n)))
    terms: dict = {}
    for perm in perms:
        for mono, c in f.terms.items():
            m = tuple(mono[perm[i]] for i in range(f.n))
            terms[m] = terms.get(m, 0) + Fraction(c)
    scale = Fraction(1, len(perms))
    return Polynomial(f.n, {m: c * scale for m, c in terms.items()})


def tied_instance(n: int, two_d: int, seed: int) -> Polynomial:
    """Seeded random-family instance made invariant under coordinate
    permutations, so its global minimizers come in permutation orbits."""
    return symmetrize(family_instance(n, two_d, seed))


def to_unit_box(f: Polynomial) -> Polynomial:
    """f(2x - 1): the unit box [0,1]^n sees f on [-1,1]^n."""
    n = f.n
    lin = [Polynomial.variable(n, i) * 2 - 1 for i in range(n)]
    out = Polynomial.zero(n)
    for mono, c in f.terms.items():
        term = Polynomial.constant(n, Fraction(c))
        for i, e in enumerate(mono):
            if e:
                term = term * lin[i] ** e
        out = out + term
    return out


def unit_box(n: int):
    facets = []
    for i in range(n):
        facets.append(Polynomial.variable(n, i))
        facets.append(1 - Polynomial.variable(n, i))
    return polymin.handelman.PolytopeDescription(n, facets)


def witness_system(seed: int):
    """{x1 - x2^2 + a >= 0, x2 + x1^2 + b = 0}, a in [0, 2], b in [3/2, 3].

    On the equality x2 = -(x1^2 + b), so the inequality reads
    x1 + a - (x1^2 + b)^2 <= x1 - 2b x1^2 + a - b^2 <= a + 1/(8b) - b^2 < 0:
    the system has no real point for every drawn (a, b).
    """
    rng = SplitMix64(seed)
    a = Fraction(rng.uniform_int(0, 8), 4)
    b = Fraction(3, 2) + Fraction(rng.uniform_int(0, 6), 4)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return polymin.psatz.SemialgebraicSystem(
        2, inequalities=[x1 - x2 * x2 + a], equalities=[x2 + x1 * x1 + b])


def ball_system(n: int, radius: int):
    r2 = Polynomial.constant(n, radius * radius)
    for i in range(n):
        r2 = r2 - Polynomial.variable(n, i) ** 2
    return polymin.psatz.SemialgebraicSystem(n, inequalities=[r2])


def _interleave(groups):
    """Round-robin over lists of ops so cells alternate inside a round."""
    out = []
    for j in range(max((len(g) for g in groups), default=0)):
        out.extend(g[j] for g in groups if j < len(g))
    return out


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_ROUND_S[workload]))


def build_rounds(workload: str, seed: int, rounds: int) -> list[list[Op]]:
    """The workload's ops for ``rounds`` rounds; every round has the same mix."""
    if workload == "sos-paper":
        inst = _cell_instances(SOS_PAPER, rounds, seed)
        return [_interleave([[Op("minimize", _label(c), {"f": f}) for f in inst[c][r]]
                             for c, _ in SOS_PAPER]) for r in range(rounds)]
    if workload == "oracle-crosscheck":
        inst = _cell_instances(ORACLE_CROSSCHECK, rounds, seed)
        return [_interleave([[Op("crosscheck", _label(c), {"f": f}) for f in inst[c][r]]
                             for c, _ in ORACLE_CROSSCHECK]) for r in range(rounds)]
    if workload == "certificates":
        return _certificate_rounds(seed, rounds)
    raise ValueError(f"unknown workload {workload!r}")


def _label(cell) -> str:
    return f"({cell[0]},{cell[1]})"


def _certificate_rounds(seed, rounds):
    # one plan cell per input family, so every family has its own seed
    # stream; the last one seeds the witness systems
    cells = [LADDER_CELL] + [c for c, _ in TIED_CELLS] + [c for c, _, _ in BALL_CELLS] \
        + [(2, 2)]
    plan = _plan(cells, seed)
    box = unit_box(2)
    balls = {n: ball_system(n, BALL_RADIUS) for (n, _), _, _ in BALL_CELLS}
    out = []
    for r in range(rounds):
        groups = []
        ci = 0
        groups.append([Op("ladder", f"ladder D<={LADDER_TOP}", {
            "f": to_unit_box(family_instance(*LADDER_CELL,
                                             plan.instance_seed(ci, 0, r * LADDERS + j))),
            "box": box}) for j in range(LADDERS)])
        for cell, count in TIED_CELLS:
            ci += 1
            groups.append([Op("minimize", f"tied {_label(cell)}",
                              {"f": tied_instance(*cell, plan.instance_seed(ci, 0, r * count + j))})
                           for j in range(count)])
        for cell, count, D in BALL_CELLS:
            ci += 1
            groups.append([Op("ball", f"ball {_label(cell)} D={D}",
                              {"f": family_instance(*cell, plan.instance_seed(ci, 0, r * count + j)),
                               "sys": balls[cell[0]], "D": D, "radius": BALL_RADIUS,
                               "samples": plan.instance_seed(ci, 0, r * count + j)})
                           for j in range(count)])
        ci += 1
        for j in range(WITNESS_SYSTEMS):
            sys_ = witness_system(plan.instance_seed(ci, 0, r * WITNESS_SYSTEMS + j))
            groups.append([Op("witness", f"witness D={D}", {"sys": sys_, "D": D})
                           for D in WITNESS_DEGREES])
        out.append(_interleave(groups))
    return out


# ---------------------------------------------------------------------------
# independent evaluation helpers
# ---------------------------------------------------------------------------

def exact_value(p: Polynomial, point) -> Fraction:
    """p at a float point, evaluated exactly over the rationals."""
    return p.to_fraction().evaluate([Fraction(float(x)) for x in point])


def term_size(p: Polynomial, point) -> float:
    """Sum of |c| |x^m| over the terms: the scale of rounding error in p(x)."""
    total = 0.0
    for m, c in p.terms.items():
        t = abs(float(c))
        for x, e in zip(point, m):
            if e:
                t *= abs(float(x)) ** e
        total += t
    return total


def sample_points(n: int, seed: int, count: int, radius: float) -> np.ndarray:
    """Deterministic points in the ball of the given radius (origin first)."""
    rng = SplitMix64(seed ^ 0x5DEECE66D)
    pts = [np.zeros(n)]
    while len(pts) < count:
        v = np.array([rng.uniform_int(-10**6, 10**6) / 10**6 for _ in range(n)])
        if v @ v <= 1.0:
            pts.append(radius * v)
    return np.array(pts)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def _minimize(f: Polynomial, res: OpResult):
    """minimize(f) and its checks; returns the bound (None on failure)."""
    res.minimize_calls += 1
    out = polymin.sos.minimize(f)
    point = None
    if out.extraction is not None and out.extraction.found:
        point = tuple(out.extraction.point)
    res.fingerprint += (out.status.value, out.bound, point)
    if out.status is not SdpStatus.OPTIMAL or not math.isfinite(out.bound):
        res.status_ok = False
        return None
    # the bound must not exceed f at the origin nor at the returned minimizer
    tol = Fraction(BOUND_TOL * (1.0 + abs(out.bound)))
    for p in [(0.0,) * f.n] + ([point] if point is not None else []):
        if Fraction(out.bound) > exact_value(f, p) + tol:
            res.wrong.append(f"SOS bound {out.bound!r} exceeds f{p}")
            return out.bound
    if point is not None:
        res.extracted += 1
    return out.bound


def _crosscheck(f: Polynomial, res: OpResult, clock):
    t0 = clock()
    orc = polymin.groebner.minimize_by_eigenvalues(f)
    t1 = clock()
    res.oracle_s = t1 - t0
    fstar = orc.fstar
    res.fingerprint += (fstar, tuple(orc.points))
    if not orc.points:
        res.wrong.append("oracle returned no minimizer")
    grads = [f.differentiate(i) for i in range(f.n)]
    for p in orc.points:
        if abs(exact_value(f, p) - Fraction(fstar)) > POINT_TOL * (1.0 + term_size(f, p)):
            res.wrong.append(f"oracle f* {fstar!r} is not f at its point {p}")
        for g in grads:
            if abs(exact_value(g, p)) > POINT_TOL * (1.0 + term_size(g, p)):
                res.wrong.append(f"oracle point {p} is not critical")
                break
    try:
        bound = _minimize(f, res)
    finally:
        res.sos_s = clock() - t1
    if bound is None:
        return
    tol = BOUND_TOL * (1.0 + abs(fstar))
    if bound > fstar + tol:
        res.wrong.append(f"SOS bound {bound!r} exceeds oracle f* {fstar!r}")
    res.agree = abs(bound - fstar) <= tol


def _ladder(f: Polynomial, box, res: OpResult):
    rungs = polymin.handelman.handelman_ladder(f, box, LADDER_TOP)
    values = [h.value for h in rungs]
    res.fingerprint += tuple(values)
    degrees = [h.D for h in rungs]
    if degrees != list(range(f.degree(), LADDER_TOP + 1)) or any(
            h.lp_status is not SdpStatus.OPTIMAL for h in rungs):
        res.status_ok = False
        return
    grid = np.linspace(0.0, 1.0, 41)
    pts = np.array([(a, b) for a in grid for b in grid])
    fmin = float(np.min(f.to_float().evaluate_many(pts)))
    tol = LP_TOL * (1.0 + term_size(f, (1.0, 1.0)))
    for lo, hi in zip(values, values[1:]):
        if hi < lo - tol:
            res.wrong.append(f"ladder decreases: {lo!r} -> {hi!r}")
    if max(values) > fmin + tol:
        res.wrong.append(f"ladder value {max(values)!r} exceeds grid minimum {fmin!r}")


def _witness(sys_, D: int, res: OpResult):
    w = polymin.psatz.find_witness(sys_, D)
    if not isinstance(w, polymin.psatz.Witness):
        res.fingerprint += (type(w).__name__,)
        res.status_ok = False
        return
    res.fingerprint += (w.float_residual, len(w.s0))
    if not polymin.psatz.verify_witness(sys_, w, exact=False).ok:
        res.wrong.append(f"degree-{D} witness fails verify_witness")
    weights = [wt for sq in [w.s0, *w.ineq_multipliers] for wt, _ in sq]
    if any(float(wt) < 0 for wt in weights):
        res.wrong.append(f"degree-{D} witness has a negative square weight")
    # the identity s0 + sum s_i f_i + 1 + sum t_j g_j == 0, pointwise
    for p in sample_points(sys_.n, 7 * D + 1, 6, 2.0):
        parts = [1.0] + [float(wt) * float(q.evaluate(p)) ** 2 for wt, q in w.s0]
        for squares, fi in zip(w.ineq_multipliers, sys_.inequalities):
            fv = float(fi.evaluate(p))
            parts += [float(wt) * float(q.evaluate(p)) ** 2 * fv for wt, q in squares]
        for t, g in zip(w.eq_multipliers, sys_.equalities):
            parts.append(float(t.evaluate(p)) * float(g.evaluate(p)))
        if abs(sum(parts)) > WITNESS_TOL * (1.0 + sum(abs(x) for x in parts)):
            res.wrong.append(f"degree-{D} witness identity fails at {tuple(p)}")
            break


def _ball(op_in: dict, res: OpResult):
    f, D = op_in["f"], op_in["D"]
    value = polymin.psatz.bounded_minimization(op_in["sys"], f, D)
    res.fingerprint += (value,)
    if not math.isfinite(value):
        res.status_ok = False
        return
    pts = sample_points(f.n, op_in["samples"], 64, op_in["radius"])
    fmin = float(np.min(f.to_float().evaluate_many(pts)))
    if value > fmin + BOUND_TOL * (1.0 + abs(value)):
        res.wrong.append(f"bounded-minimization value {value!r} exceeds f = {fmin!r} "
                         "at a sampled point of the ball")


def run_op(op: Op, clock) -> OpResult:
    """Run one op; exceptions become a failed result, never propagate."""
    res = OpResult()
    try:
        if op.kind == "minimize":
            t0 = clock()
            try:
                _minimize(op.inputs["f"], res)
            finally:
                res.sos_s = clock() - t0
        elif op.kind == "crosscheck":
            _crosscheck(op.inputs["f"], res, clock)
        elif op.kind == "ladder":
            _ladder(op.inputs["f"], op.inputs["box"], res)
        elif op.kind == "witness":
            _witness(op.inputs["sys"], op.inputs["D"], res)
        elif op.kind == "ball":
            _ball(op.inputs, res)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
    except Exception as exc:  # an op failure is data, never a crash of the run
        res.raised = f"{type(exc).__name__}: {exc}"
        res.fingerprint += (res.raised,)
    return res
