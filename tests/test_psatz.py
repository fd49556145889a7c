import json
import random
from fractions import Fraction

import numpy as np
import pytest

import polymin.psatz
import polymin.sdp
import polymin.sos
from polymin.poly import FamilyParams, Polynomial, parse, random_family_instance
from polymin.psatz import (
    FeasibilityVerdict,
    NotFoundAtDegree,
    SemialgebraicSystem,
    Witness,
    bounded_minimization,
    find_witness,
    real_feasibility_bound,
    verify_witness,
)
from polymin.cli import main
from polymin.sdp import FEAS_TOL, MAX_ITER, SdpFailure, SdpSolution, SdpStatus, solve
from polymin.sos import (
    MINUS_INFINITY,
    _certified_stop,
    _dual_upper,
    _multiplier_program,
    sos_lower_bound,
)

from conftest import dense_projection


@pytest.fixture
def plane_system():
    # x - y^2 + 3 >= 0 together with y + x^2 + 2 = 0 has no real solution
    return SemialgebraicSystem(
        2,
        inequalities=[parse("x1-x2^2+3", 2)],
        equalities=[parse("x2+x1^2+2", 2)],
    )


def hand_witness():
    # 1/3 + 2(y + 3/2)^2 + 6(x - 1/6)^2, multiplier 2 on the inequality and
    # -6 on the equality: the identity cancels exactly over the rationals
    s0 = [
        (Fraction(1, 3), Polynomial.constant(2, Fraction(1))),
        (Fraction(2), parse("x2+3/2", 2)),
        (Fraction(6), parse("x1-1/6", 2)),
    ]
    return Witness(
        degree=2,
        s0=s0,
        ineq_multipliers=[[(Fraction(2), Polynomial.constant(2, Fraction(1)))]],
        eq_multipliers=[Polynomial.constant(2, Fraction(-6))],
        n=2,
    )


class TestFindWitness:
    def test_plane_system_degree_two(self, plane_system):
        w = find_witness(plane_system, 2)
        assert isinstance(w, Witness)
        assert w.float_residual <= 1e-6
        report = verify_witness(plane_system, w, exact=False)
        assert report.ok

    def test_feasible_system_never_refuted(self):
        sys_ = SemialgebraicSystem(1, equalities=[parse("x1", 1)])
        for D in (2, 4):
            assert isinstance(find_witness(sys_, D), NotFoundAtDegree)

    def test_negative_definite_inequality(self):
        # s0 = x^2 with unit multiplier: x^2 + (-1 - x^2) + 1 == 0
        sys_ = SemialgebraicSystem(1, inequalities=[parse("-1-x1^2", 1)])
        w = find_witness(sys_, 2)
        assert isinstance(w, Witness)
        assert verify_witness(sys_, w).ok

    def test_requires_even_degree(self, plane_system):
        with pytest.raises(ValueError):
            find_witness(plane_system, 3)

    def test_solver_failure_raises_and_exits_3(self, monkeypatch, plane_system, tmp_path):
        # a search that ends neither optimal nor infeasible is a solver failure
        def capped(problem, stop=None):
            return SdpSolution(SdpStatus.ITERATION_LIMIT, None, None, None, None, None,
                               None, MAX_ITER)

        monkeypatch.setattr(polymin.psatz, "solve", capped)
        with pytest.raises(SdpFailure, match="witness search at degree 2") as err:
            find_witness(plane_system, 2)
        assert err.value.status is SdpStatus.ITERATION_LIMIT
        path = tmp_path / "system.json"
        path.write_text(json.dumps(plane_system.to_json_dict()))
        assert main(["psatz", "--system", str(path), "--degree", "2"]) == 3

    def test_soundness_on_random_feasible_systems(self):
        # systems built around a known point can never acquire a witness
        rng = random.Random(11)
        for _ in range(6):
            n = rng.randint(1, 2)
            point = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            polys = []
            for _ in range(2):
                p = random_family_instance(
                    FamilyParams(n, 1, 4, seed=rng.getrandbits(30)))
                shift = p.evaluate(point)
                polys.append(p - shift)  # vanishes at the point
            sys_ = SemialgebraicSystem(n, inequalities=[polys[0]],
                                       equalities=[polys[1]])
            assert isinstance(find_witness(sys_, 2), NotFoundAtDegree)


class TestVerifyWitness:
    def test_hand_witness_exact(self, plane_system):
        report = verify_witness(plane_system, hand_witness(), exact=True)
        assert report.ok
        assert report.max_residual == 0.0

    def test_tampered_multiplier_localized(self, plane_system):
        w = hand_witness()
        w.ineq_multipliers = [[(Fraction(3), Polynomial.constant(2, Fraction(1)))]]
        report = verify_witness(plane_system, w, exact=True)
        assert not report.ok
        assert report.max_residual > 0
        assert report.offending_monomials  # names the broken coefficients

    def test_solver_witness_float_mode(self, plane_system):
        w = find_witness(plane_system, 2)
        report = verify_witness(plane_system, w, exact=False)
        assert report.ok and report.max_residual <= 1e-6

    def test_negative_weight_rejected(self, plane_system):
        w = hand_witness()
        w.s0[0] = (Fraction(-1, 3), w.s0[0][1])
        report = verify_witness(plane_system, w, exact=True)
        assert not report.weights_ok and not report.ok

    def test_json_roundtrip(self, plane_system):
        w = hand_witness()
        w2 = Witness.from_json_dict(w.to_json_dict(), n=2)
        assert verify_witness(plane_system, w2, exact=True).ok
        assert w2.degree == 2

    def test_multipliers_must_match_the_constraints(self):
        # x1^2 + 1 * (-1 - x1^2) + 1 == 0 refutes {-1 - x1^2 >= 0}; multipliers
        # for constraints the system lacks, or one too few, are refused rather
        # than dropped or read as zero
        x1 = Polynomial.variable(1, 0)
        sys_ = SemialgebraicSystem(1, inequalities=[parse("-1-x1^2", 1)])
        one = [(Fraction(1), Polynomial.constant(1, Fraction(1)))]
        w = Witness(degree=2, s0=[(Fraction(1), x1)], ineq_multipliers=[one],
                    eq_multipliers=[], n=1)
        assert verify_witness(sys_, w, exact=True).ok
        for ineq, eq in [([one, [(Fraction(5), x1)]], [x1 ** 3]), ([], [])]:
            with pytest.raises(ValueError, match="one per constraint"):
                verify_witness(sys_, Witness(degree=2, s0=w.s0, ineq_multipliers=ineq,
                                             eq_multipliers=eq, n=1), exact=True)


class TestRealFeasibilityBound:
    def test_no_real_root(self):
        res = real_feasibility_bound([parse("x1^2+1", 1)])
        assert res.verdict is FeasibilityVerdict.NO_REAL_ROOT
        assert res.bound >= 1 - 1e-6

    def test_root_exists_inconclusive(self):
        res = real_feasibility_bound([parse("x1-1", 1)])
        assert res.verdict is FeasibilityVerdict.INCONCLUSIVE
        assert abs(res.bound) <= 1e-6

    def test_pair_with_grid_oracle(self):
        gs = [parse("x1^2-2", 1), parse("x1^2+2", 1)]
        res = real_feasibility_bound(gs)
        assert res.verdict is FeasibilityVerdict.NO_REAL_ROOT
        # 1-d scan oracle: minimum of the squared residual sum is 8 at x = 0
        from polymin.poly import sum_of_squared_residuals
        f = sum_of_squared_residuals(gs).to_float()
        xs = np.linspace(-3, 3, 20001).reshape(-1, 1)
        assert abs(float(np.min(f.evaluate_many(xs))) - 8.0) <= 1e-5
        assert res.bound >= 8 - 1e-4


class TestBoundedMinimization:
    def test_unconstrained_reduces_to_sos_bound(self, symmetric_quartic):
        v = bounded_minimization(SemialgebraicSystem(3), symmetric_quartic, 4)
        assert abs(v - (-2.112913882)) <= 1e-5

    # with no constraints the multiplier program is the plain SOS program,
    # posed unscaled and stopped on the dual's lambda: the two values agree
    # to 3.0e-9 relative here
    @pytest.mark.parametrize("n, two_d, seed", [
        (n, two_d, seed) for n, two_d in [(2, 4), (3, 4), (6, 4)]
        for seed in range(4000000, 4000003)])
    def test_unconstrained_matches_the_plain_program(self, n, two_d, seed):
        f = random_family_instance(FamilyParams(n, two_d // 2, 1, seed=seed))
        plain = sos_lower_bound(f).bound
        v = bounded_minimization(SemialgebraicSystem(n), f, two_d)
        assert abs(v - plain) <= 1e-8 * abs(plain)

    def test_interval_minimum(self):
        sys_ = SemialgebraicSystem(1, inequalities=[parse("x1", 1),
                                                    parse("1-x1", 1)])
        v = bounded_minimization(sys_, parse("x1", 1), 2)
        assert abs(v) <= 1e-7
        # cross-check against the polytope LP hierarchy at the same degree
        from polymin.handelman import PolytopeDescription, handelman_bound
        P = PolytopeDescription(1, [parse("x1", 1), parse("1-x1", 1)])
        assert abs(handelman_bound(parse("x1", 1), P, 2).value - v) <= 1e-6

    def test_single_point_equality(self):
        sys_ = SemialgebraicSystem(1, equalities=[parse("x1-1", 1)])
        v = bounded_minimization(sys_, parse("x1^2", 1), 2)
        assert abs(v - 1.0) <= 1e-6

    def test_motzkin_unconstrained_never_certifiable(self, motzkin):
        # with no constraints the identity degenerates to plain SOS-ness of
        # f - lambda, which fails at every degree for this polynomial
        sys_ = SemialgebraicSystem(2)
        assert bounded_minimization(sys_, motzkin, 6) == MINUS_INFINITY
        assert bounded_minimization(sys_, motzkin, 8) == MINUS_INFINITY

    def test_monotone_in_degree(self):
        # x(1-x) on [0,1]: the quadratic budget leaves the -x^2 head
        # unabsorbable, the quartic budget certifies the exact minimum 0
        # (multipliers (1-x)^2 and x^2 rebuild x(1-x) by hand)
        sys_ = SemialgebraicSystem(1, inequalities=[parse("x1", 1),
                                                    parse("1-x1", 1)])
        f = parse("x1-x1^2", 1)
        v2 = bounded_minimization(sys_, f, 2)
        v4 = bounded_minimization(sys_, f, 4)
        assert v2 == MINUS_INFINITY
        assert abs(v4) <= 1e-6
        assert v2 <= v4 + 1e-6

    def test_degree_validation(self, symmetric_quartic):
        with pytest.raises(ValueError):
            bounded_minimization(SemialgebraicSystem(3), symmetric_quartic, 2)
        # f in another number of variables than the system's: no silent -inf
        ball = _ball_program(4000000)[0]
        for n in (2, 4):
            with pytest.raises(ValueError, match="variable count"):
                bounded_minimization(ball, parse("x1^2+x2^2", n), 4)


class TestDegreeBudgets:
    def test_inequality_above_budget_gets_zero_multiplier(self):
        # only the quadratic inequality can carry a multiplier at degree two;
        # the quartic one is present but unusable, and the witness still exists
        sys_ = SemialgebraicSystem(1, inequalities=[parse("-1-x1^2", 1),
                                                    parse("-1-x1^4", 1)])
        w = find_witness(sys_, 2)
        assert isinstance(w, Witness)
        assert len(w.ineq_multipliers) == 2
        assert w.ineq_multipliers[1] == []  # zero multiplier
        assert verify_witness(sys_, w).ok


class TestWitnessLadderMonotonicity:
    def test_refutable_stays_refutable_at_higher_degree(self, plane_system):
        w2 = find_witness(plane_system, 2)
        w4 = find_witness(plane_system, 4)
        assert isinstance(w2, Witness) and isinstance(w4, Witness)
        assert verify_witness(plane_system, w4).ok


def _ball_program(seed: int):
    """The benchmark's ball op for the K=100 (3,4) instance of the seed: f
    minimized over the radius-2 ball of R^3 at degree 6, posed as
    ``bounded_minimization`` poses it: (the system, f, the program, its SDP)."""
    r2 = Polynomial.constant(3, 4)
    for i in range(3):
        r2 = r2 - Polynomial.variable(3, i) ** 2
    sys_ = SemialgebraicSystem(3, inequalities=[r2])
    f = random_family_instance(FamilyParams(3, 2, 100, seed=seed))
    prog, _, _ = _multiplier_program(3, 6, sys_.inequalities)
    return sys_, f, prog, prog.match_coefficients(f, lam=Polynomial.constant(3, 1.0))


class TestBallStop:
    """A ball bound ends at the first iterate whose projection, backed off
    in s0's constant slot, proves a lambda_c within 1e-8 |lambda| of the
    dual's lambda (the certified stop with the dual upper value);
    bounded_minimization returns that lambda_c."""

    @pytest.mark.parametrize("seed", range(4000000, 4000012))
    def test_stopped_value_proves_a_bound_below_the_converged_one(self, seed):
        sys_, f, prog, problem = _ball_program(seed)
        sol = solve(problem, stop=_certified_stop(prog, problem.cost, _dual_upper(prog)))
        rec = sol.trace[-1].stop
        assert sol.status is SdpStatus.OPTIMAL and rec is not None
        assert all(r.stop is None for r in sol.trace[:-1])
        lam, upper = prog.offset - sol.primal_obj, rec["upper"]
        assert set(rec) == {"eps", "upper"} and bounded_minimization(sys_, f, 6) == lam
        # the upper value is the dual objective's lambda at that iterate, the
        # dual objective the solution reports
        assert sol.dual_obj == sol.trace[-1].dual_obj
        assert upper == prog.offset - sol.dual_obj
        assert upper - lam <= 1e-8 * abs(upper)
        converged = solve(problem)
        lam_conv = prog.offset - converged.primal_obj
        assert lam <= lam_conv and lam_conv - lam <= 1e-8 * (1 + abs(lam_conv))
        assert sol.iterations < converged.iterations
        # the solution's X, the projected blocks with s0's backed off, is PD
        # and re-expands to f - lambda_c
        assert rec["eps"] >= 0 and len(sol.X_blocks) == len(prog.sos_terms)
        total = Polynomial.zero(3)
        for Q, (_, basis, factor) in zip(sol.X_blocks, prog.sos_terms):
            np.linalg.cholesky(Q)
            total = total + Polynomial(3, dict(zip(basis.classes, basis.coefficients(Q)))) * factor
        want = f.to_float() - lam
        assert (total - want).max_abs_coefficient() <= 1e-12 * want.max_abs_coefficient()

    @pytest.mark.parametrize("seed", [4000000, 4000001])
    def test_no_projection_before_the_dual_upper_value(self, monkeypatch, seed):
        # the dual upper value is NaN until rel_dual <= FEAS_TOL, and the stop
        # asks for it first: no iterate before then builds its projection
        sys_, f, _, _ = _ball_program(seed)
        built, plain_solve = [], polymin.sdp.solve

        def counting_solve(problem, stop=None):
            def counting_stop(record, iterate):
                def build():
                    built.append(record.rel_dual)
                    return iterate()
                return stop(record, build)
            return plain_solve(problem, stop=counting_stop)

        for module in (polymin.sos, polymin.psatz):
            monkeypatch.setattr(module, "solve", counting_solve)
        bounded_minimization(sys_, f, 6)
        assert built and max(built) <= FEAS_TOL

    def test_a_stop_that_never_fires_changes_nothing(self):
        _, _, _, problem = _ball_program(4000000)
        asked = []
        plain = solve(problem)
        probed = solve(problem, stop=lambda record, iterate: asked.append(record))
        assert asked and plain.iterations == probed.iterations
        for a, b in [(plain.X, probed.X), (plain.y, probed.y), (plain.S, probed.S)]:
            assert np.array_equal(a, b)
        assert all(a is r for a, r in zip(asked, probed.trace))


# the benchmark's witness systems of seed 1 (two rounds of two), as (a, b) in
# {x1 - x2^2 + a >= 0, x2 + x1^2 + b = 0}
BENCH_WITNESS_SYSTEMS = [(Fraction(3, 4), Fraction(5, 2)), (Fraction(5, 4), Fraction(3, 2)),
                         (Fraction(3, 2), Fraction(7, 4)), (Fraction(1, 2), Fraction(3, 2))]


def _witness_system(a, b):
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return SemialgebraicSystem(2, inequalities=[x1 - x2 * x2 + a],
                               equalities=[x2 + x1 * x1 + b])


class TestWitnessStop:
    """A witness comes from the first iterate whose projection onto the
    identity's affine space is PD in every block: on most of the benchmark's
    systems that is the solver's start, X = rho I."""

    def test_bench_systems(self, monkeypatch):
        solves = []

        def recording(problem, stop=None):
            sol = solve(problem, stop=stop)
            solves.append((problem, sol))
            return sol

        monkeypatch.setattr(polymin.psatz, "solve", recording)
        from_start = fallbacks = 0
        for a, b in BENCH_WITNESS_SYSTEMS:
            sys_ = _witness_system(a, b)
            for D in (2, 4, 6):
                w = find_witness(sys_, D)
                assert isinstance(w, Witness)
                report = verify_witness(sys_, w, exact=False)
                assert report.ok and report.max_residual == w.float_residual
                problem, sol = solves[-1]
                assert sol.status is SdpStatus.OPTIMAL
                # the solver's start: rho I with rho = 1 + max|b| + max|F|, and
                # max|F| = 1 for the trace objective
                rho = 1.0 + np.max(np.abs(problem.b)) + 1.0
                start = dense_projection(problem, [rho * np.eye(s) if s > 0
                                                   else np.full(-s, rho)
                                                   for s in problem.blocks])
                start_pd = all(np.all(np.linalg.eigvalsh(Q) > 0) for Q in start if Q.ndim == 2)
                assert (sol.iterations == 0) == start_pd
                if sol.trace[-1].stop is not None:
                    from_start += start_pd
                    assert w.float_residual <= 1e-12
                else:
                    # no iterate projects PD: the converged solve's witness
                    fallbacks += 1
                    assert sol.iterations > 0
        assert (from_start, fallbacks) == (10, 2)
