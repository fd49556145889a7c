import collections
import itertools
import tracemalloc

import numpy as np
import pytest

from polymin import sdp
from polymin.linalg import NotPositiveDefiniteError, spd_cholesky
from polymin.poly import (
    FamilyParams,
    Polynomial,
    parse,
    random_family_instance,
    scale_homogeneous,
    suggested_scaling,
)
from polymin.sos import _multiplier_program
from polymin.sdp import (
    SdpProblem,
    SdpStatus,
    check_duality,
    sdpa_dumps,
    sdpa_loads,
    solve,
    solve_lp,
)
from polymin.sos import _certified_stop, _moment_upper, build_gram_sdp, sos_lower_bound

from conftest import (
    assert_same_table,
    blockwise_solve,
    dense_constraints,
    dense_projection,
    dict_problem,
)


def dense_to_constraints(Gs, b):
    cons = []
    for G, bk in zip(Gs, b):
        n = G.shape[0]
        d = {(i, j): G[i, j] for i in range(n) for j in range(i, n)
             if G[i, j] != 0.0}
        cons.append((d, float(bk)))
    return cons


def random_feasible_sdp(rng, normalized=True):
    """Instance built around a known strictly feasible primal-dual pair."""
    N = int(rng.integers(2, 9))
    M = int(rng.integers(1, min(8, N * (N + 1) // 2) + 1))
    Gs = []
    for _ in range(M):
        A = rng.normal(size=(N, N))
        A = (A + A.T) / 2
        if normalized:
            A /= np.linalg.norm(A)
        Gs.append(A)
    scale = np.sqrt(N) if normalized else 1.0
    R = rng.normal(size=(N, N)) / scale
    X0 = R @ R.T + 0.5 * np.eye(N)
    Q = rng.normal(size=(N, N)) / scale
    S0 = Q @ Q.T + 0.5 * np.eye(N)
    y0 = rng.normal(size=M)
    F = S0 + sum(y0[k] * Gs[k] for k in range(M))
    b = np.array([np.tensordot(Gs[k], X0) for k in range(M)])
    return dict_problem(N, F, dense_to_constraints(Gs, b))


def dense(prob):
    """F and the stacked G_k of prob as dense symmetric dim x dim matrices."""
    F = np.zeros((prob.dim, prob.dim))
    i, j, v = prob.cost
    F[i, j] = F[j, i] = v
    G = np.zeros((prob.num_constraints, prob.dim, prob.dim))
    k, i, j, v = prob.constraints
    G[k, i, j] = G[k, j, i] = v
    return F, G


def rescaled(prob, cost_by=1.0, b_by=1.0):
    """prob with its cost times cost_by and its right-hand sides times b_by."""
    i, j, v = prob.cost
    return SdpProblem(prob.blocks, (i, j, cost_by * v), prob.constraints, b_by * prob.b)


def lp_vertex_oracle(c, rows):
    """Brute-force optimum of min c@x, a_k@x = b_k, x >= 0 on tiny instances.

    Enumerates basic solutions: every choice of support of size rank(A).
    """
    c = np.asarray(c, dtype=float)
    V = len(c)
    A = np.array([a for a, _ in rows], dtype=float).reshape(len(rows), V)
    b = np.array([bk for _, bk in rows], dtype=float)
    r = np.linalg.matrix_rank(A) if len(rows) else 0
    best = None
    for support in itertools.combinations(range(V), r):
        As = A[:, support]
        x_s, res, rank, _ = np.linalg.lstsq(As, b, rcond=None)
        x = np.zeros(V)
        x[list(support)] = x_s
        if np.max(np.abs(A @ x - b)) > 1e-8 or np.min(x) < -1e-9:
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


class TestSolveBasics:
    def test_scalar_equality(self):
        prob = dict_problem(1, np.array([[1.0]]), [({(0, 0): 1.0}, 3.0)])
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.X[0, 0] == pytest.approx(3.0, abs=1e-7)
        assert sol.primal_obj == pytest.approx(3.0, abs=1e-7)

    def test_2x2_schur_boundary(self):
        # min trace X with X11 = 1, X12 = 1: X22 >= X12^2/X11 forces obj 2
        prob = dict_problem(2, np.eye(2),
                            [({(0, 0): 1.0}, 1.0), ({(0, 1): 0.5}, 1.0)])
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.primal_obj == pytest.approx(2.0, abs=1e-6)
        assert np.allclose(sol.X, np.ones((2, 2)), atol=1e-5)

    def test_solution_invariants(self):
        rng = np.random.default_rng(1)
        prob = random_feasible_sdp(rng)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        psd_tol = 1e-9 * max(1.0, np.linalg.norm(sol.X))
        assert np.linalg.eigvalsh(sol.X)[0] >= -psd_tol
        F, G = dense(prob)
        Smat = F - sum(y * G[k] for k, y in enumerate(sol.y))
        assert np.linalg.eigvalsh(Smat)[0] >= -1e-9 * max(1, np.linalg.norm(Smat))
        b = prob.b
        for k in range(prob.num_constraints):
            v = np.tensordot(G[k], sol.X)
            assert abs(v - b[k]) <= 1e-8 * (1 + abs(b[k]))
        assert sol.gap >= -1e-8
        assert sol.gap <= 1e-8 * (1 + abs(sol.primal_obj))

    def test_tolerances_report_every_option(self):
        sol = solve(dict_problem(1, np.array([[1.0]]), [({(0, 0): 1.0}, 3.0)]))
        assert sol.tolerances == {
            "feas_tol": 1e-8, "gap_tol": 1e-8, "max_iter": 200, "step_fraction": 0.95,
            "sigma_floor": 0.05, "infeas_ratio": 1e-8, "slack_goal": 1e-8,
            "polish_iters": 8,
        }

    def test_iteration_cap_returns_the_iterate(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITER", 2)
        f = parse("x1^4+x2^4-3*x1*x2+x1", 2)
        sol = solve(build_gram_sdp(f).problem)
        assert sol.status is SdpStatus.ITERATION_LIMIT
        assert sol.iterations == 2
        assert sol.X is not None and sol.warnings == []
        assert sol.primal_obj == pytest.approx(1.718513731829152, rel=1e-12)

    # iteration 0's Schur matrix, which the rank filter reads, is scaled by
    # rho / eta, with rho = 1 + max|b| + max|F| and eta = max(1 + max|F|, nu),
    # so non-finite data must stop the solve first
    @pytest.mark.parametrize("blocks", [1, 3, [-1]], ids=["psd-1", "psd-3", "lp"])
    @pytest.mark.parametrize("b, f", [(np.nan, 1.0), (1.0, np.inf)], ids=["nan-b", "inf-F"])
    def test_non_finite_data(self, blocks, b, f):
        sol = solve(dict_problem(blocks, {(0, 0): f}, [({(0, 0): 1.0}, b)]))
        assert sol.status is SdpStatus.NUMERICAL_TROUBLE
        assert sol.warnings == ["non-finite problem data"] and sol.X is None

    def test_determinism(self):
        rng = np.random.default_rng(77)
        prob = random_feasible_sdp(rng)
        s1 = solve(prob)
        s2 = solve(prob)
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.X, s2.X)
        assert s1.primal_obj == s2.primal_obj


class TestStartPoint:
    """The embedding starts at X = rho I, S = eta I and tau = kappa = 1, with
    rho = 1 + max|b| + max|F|, eta = max(1 + max|F|, nu) and nu = prob.dim
    the barrier degree, so iteration 0's mu is (rho eta nu + 1) / (nu + 1)."""

    @pytest.mark.parametrize("make", [
        lambda: _family_gram(6, 2),                    # eta = nu
        lambda: _ball_program(),                       # eta = nu, two PSD blocks
        lambda: dict_problem([-2], {(0, 0): 5.0, (1, 1): 1.0},
                             [({(0, 0): 1.0, (1, 1): 1.0}, 1.0)]),   # eta = 1 + max|F|
    ], ids=["sos-6-4", "ball-2-4", "lp"])
    def test_first_mu(self, monkeypatch, make):
        monkeypatch.setattr(sdp, "MAX_ITER", 0)       # return iteration 0
        prob = make()
        fmax = float(np.max(np.abs(prob.cost[2])))
        rho, nu = 1.0 + float(np.max(np.abs(prob.b))) + fmax, prob.dim
        eta = max(1.0 + fmax, nu)
        assert solve(prob).trace[0].mu == pytest.approx((rho * eta * nu + 1) / (nu + 1),
                                                        rel=1e-15)


class TestRandomFeasible:
    def test_gap_and_slackness_batch(self):
        rng = np.random.default_rng(20240601)
        for _ in range(30):
            prob = random_feasible_sdp(rng)
            sol = solve(prob)
            assert sol.status is SdpStatus.OPTIMAL
            assert abs(sol.gap) <= 1e-7 * (1 + abs(sol.primal_obj))
            rep = check_duality(prob, sol)
            assert rep.complementary_ok
            assert rep.weak_duality_ok

    def test_embedding_gap_never_negative(self):
        rng = np.random.default_rng(5150)
        for _ in range(10):
            sol = solve(random_feasible_sdp(rng))
            for rec in sol.trace:
                assert rec.embedding_gap >= -1e-12

    def test_certified_iterate_weak_duality(self):
        # once an iterate's scaled residuals certify near-feasibility, its
        # objective pair must satisfy weak duality to 1e-9
        rng = np.random.default_rng(616)
        for _ in range(15):
            sol = solve(random_feasible_sdp(rng))
            for rec in sol.trace:
                if rec.rel_primal <= 1e-9 and rec.rel_dual <= 1e-9:
                    gap = rec.primal_obj - rec.dual_obj
                    assert gap >= -1e-9 * (1 + abs(rec.primal_obj))


class TestScalingInvariance:
    # scaling F alone or b alone multiplies the optimal value by gamma;
    # scaling both multiplies it by gamma^2 (the optimal X itself scales).
    # The status must be invariant in every case.

    def test_objective_scaling(self):
        rng = np.random.default_rng(7)
        prob = random_feasible_sdp(rng)
        base = solve(prob)
        for gamma in (1e-3, 1e3):
            sol = solve(rescaled(prob, cost_by=gamma))
            assert sol.status is base.status is SdpStatus.OPTIMAL
            assert abs(sol.primal_obj / gamma - base.primal_obj) <= 1e-6 * (
                1 + abs(base.primal_obj)
            )

    def test_rhs_scaling(self):
        rng = np.random.default_rng(7)
        prob = random_feasible_sdp(rng)
        base = solve(prob)
        for gamma in (1e-3, 1e3):
            sol = solve(rescaled(prob, b_by=gamma))
            assert sol.status is SdpStatus.OPTIMAL
            assert abs(sol.primal_obj / gamma - base.primal_obj) <= 1e-6 * (
                1 + abs(base.primal_obj)
            )

    def test_joint_scaling(self):
        rng = np.random.default_rng(7)
        prob = random_feasible_sdp(rng)
        base = solve(prob)
        for gamma in (1e-3, 1e3):
            sol = solve(rescaled(prob, cost_by=gamma, b_by=gamma))
            assert sol.status is SdpStatus.OPTIMAL
            target = gamma**2 * base.primal_obj
            # tolerance in the scaled problem's own units (the solver's gap
            # contract is absolute up to 1 + |objective|)
            assert abs(sol.primal_obj - target) <= 1e-6 * (1 + abs(target)) + 5e-8


class TestInfeasibility:
    def test_primal_infeasible_lp(self):
        res = solve_lp([1.0], [([1.0], -1.0)])
        assert res.status is SdpStatus.PRIMAL_INFEASIBLE

    def test_dual_infeasible_unbounded_lp(self):
        res = solve_lp([-1.0], [])
        assert res.status is SdpStatus.DUAL_INFEASIBLE

    def test_primal_infeasible_sdp(self):
        # trace X = -1 with X PSD is impossible
        prob = dict_problem(2, np.zeros((2, 2)),
                            [({(0, 0): 1.0, (1, 1): 1.0}, -1.0)])
        assert solve(prob).status is SdpStatus.PRIMAL_INFEASIBLE

    def test_unbounded_sdp(self):
        # min -trace X with only X12 pinned: diverges
        prob = dict_problem(2, -np.eye(2), [({(0, 1): 0.5}, 0.0)])
        assert solve(prob).status is SdpStatus.DUAL_INFEASIBLE

    def test_weakly_unbounded_sdp_has_no_ray(self):
        # min -X12 with X11 = 1: X12 = t, X22 = t^2 drives the objective down,
        # but a ray of the PSD cone with D11 = 0 has D12 = 0, so tau and kappa
        # vanish together with no Farkas ray; the diverging objective alone
        # names the status
        prob = SdpProblem(2, ([0], [1], [-0.5]), ([0], [0], [0], [1.0]), [1.0])
        res = solve(prob)
        assert res.status is SdpStatus.DUAL_INFEASIBLE
        assert res.warnings == ["unboundedness inferred from objective divergence (no ray)"]


class TestRankFilter:
    def test_dependent_consistent_rows(self):
        prob = dict_problem(1, np.array([[1.0]]),
                            [({(0, 0): 1.0}, 3.0), ({(0, 0): 2.0}, 6.0)])
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert any("dependent" in w for w in sol.warnings)
        assert sol.X[0, 0] == pytest.approx(3.0, abs=1e-7)
        assert len(sol.y) == 2  # original indexing preserved

    def test_dependent_inconsistent_rows(self):
        prob = dict_problem(1, np.array([[1.0]]),
                            [({(0, 0): 1.0}, 3.0), ({(0, 0): 2.0}, 7.0)])
        assert solve(prob).status is SdpStatus.PRIMAL_INFEASIBLE

    @staticmethod
    def _lp_with_dependent_row(b_dependent, nudge=0.0):
        # rows 0..99: x_k + x_100 = 1; row 100 = 0.1 * (rows 3 + 40 + 90), so
        # its entry in the null vector (-1 against 0.1) is the largest and it
        # is the row dropped; its index lies past the blocked solves' first
        # diagonal block
        rows = [({(k, k): 1.0, (100, 100): 1.0}, 1.0) for k in range(100)]
        rows.append(({(3, 3): 0.1, (40, 40): 0.1, (90, 90): 0.1, (100, 100): 0.3,
                      (50, 50): nudge}, b_dependent))
        return dict_problem([-101], {(i, i): 1.0 for i in range(101)}, rows)

    # nudge 1e-6 leaves a last Cholesky pivot of ~1e-14: LAPACK accepts it,
    # but it lies under the rank threshold 1e-13 * max|gram|
    @pytest.mark.parametrize("nudge", [0.0, 1e-6])
    def test_dependent_row_among_many(self, nudge):
        sol = solve(self._lp_with_dependent_row(0.3, nudge))
        assert sol.status is SdpStatus.OPTIMAL
        assert any("dependent" in w and "[100]" in w for w in sol.warnings)
        assert len(sol.y) == 101 and sol.y[100] == 0.0
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)

    def test_inconsistent_row_among_many(self):
        sol = solve(self._lp_with_dependent_row(0.4))
        assert sol.status is SdpStatus.PRIMAL_INFEASIBLE

    @staticmethod
    def _lp_with_two_dependent_rows(b100, b101):
        # rows 0..99 as above; row 100 = 0.1 * (rows 3 + 40 + 90) and
        # row 101 = row 100 + 0.2 * (rows 10 + 60): a two-dimensional null
        # space whose every vector is largest on row 100 or 101, so the
        # elimination drops exactly those two
        rows = [({(k, k): 1.0, (100, 100): 1.0}, 1.0) for k in range(100)]
        rows.append(({(3, 3): 0.1, (40, 40): 0.1, (90, 90): 0.1, (100, 100): 0.3}, b100))
        rows.append(({(3, 3): 0.1, (40, 40): 0.1, (90, 90): 0.1, (10, 10): 0.2,
                      (60, 60): 0.2, (100, 100): 0.7}, b101))
        return dict_problem([-101], {(i, i): 1.0 for i in range(101)}, rows)

    def test_two_dependent_rows(self):
        prob = self._lp_with_two_dependent_rows(0.3, 0.7)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert any("removed 2 " in w and "[100, 101]" in w for w in sol.warnings)
        assert len(sol.y) == 102 and sol.y[100] == 0.0 and sol.y[101] == 0.0
        k, i, j, v = prob.constraints
        first = k < 100
        ref = solve(SdpProblem([-101], prob.cost, (k[first], i[first], j[first], v[first]),
                               prob.b[:100]))
        assert ref.status is SdpStatus.OPTIMAL
        assert sol.primal_obj == ref.primal_obj and sol.dual_obj == ref.dual_obj
        assert np.array_equal(sol.y[:100], ref.y)
        assert np.array_equal(sol.X, ref.X)

    # either right-hand side off by 0.1: each dropped row's own dependency
    # must be checked
    @pytest.mark.parametrize("b100, b101", [(0.4, 0.7), (0.3, 0.8)])
    def test_two_dependent_rows_one_inconsistent(self, b100, b101):
        sol = solve(self._lp_with_two_dependent_rows(b100, b101))
        assert sol.status is SdpStatus.PRIMAL_INFEASIBLE


class TestProblemTable:
    """SdpProblem keeps its table as the solver reads it: sorted by row and
    then (i, j), entries at one position summed in the order given, zeros
    dropped; entries outside the blocks or below the diagonal are errors."""

    def test_sorted_summed_in_order_and_zeros_dropped(self):
        # row 0 at (0, 0): (1e16 + 1) - 1e16 = 0 in this order, so it is
        # dropped, as is the explicit zero at (0, 1); row 1 at (0, 0):
        # (1e16 - 1e16) + 1 = 1
        entries = [(1, 2, 2, 5.0), (0, 0, 0, 1e16), (1, 0, 0, 1e16), (0, 0, 0, 1.0),
                   (0, 1, 1, 3.0), (1, 0, 0, -1e16), (0, 0, 0, -1e16), (1, 0, 0, 1.0),
                   (0, 0, 1, 0.0)]
        cost = [(3, 3, 2.0), (0, 1, 0.0), (0, 0, 1.0), (0, 0, 1.0)]
        prob = SdpProblem([2, -2], tuple(zip(*cost)), tuple(zip(*entries)), [1.0, 2.0])
        k, i, j, v = prob.constraints
        assert np.array_equal(k, [0, 1, 1]) and np.array_equal(i, [1, 0, 2])
        assert np.array_equal(j, [1, 0, 2]) and np.array_equal(v, [3.0, 1.0, 5.0])
        i, j, v = prob.cost
        assert np.array_equal(i, [0, 3]) and np.array_equal(j, [0, 3])
        assert np.array_equal(v, [2.0, 2.0])
        assert np.array_equal(prob.b, [1.0, 2.0]) and prob.num_constraints == 2

    @pytest.mark.parametrize("i, j", [(1, 2), (1, 0), (2, 3), (0, 4)],
                             ids=["across-blocks", "lower-triangle",
                                  "off-diagonal-in-diagonal-block", "out-of-range"])
    def test_entry_rejected(self, i, j):
        with pytest.raises(ValueError):
            SdpProblem([2, -2], ([], [], []), ([0], [i], [j], [1.0]), [1.0])
        with pytest.raises(ValueError):
            SdpProblem([2, -2], ([i], [j], [1.0]), ([], [], [], []), [])

    def test_row_without_right_hand_side_rejected(self):
        with pytest.raises(ValueError):
            SdpProblem([2, -2], ([], [], []), ([1], [0], [0], [1.0]), [1.0])


class TestCheckDuality:
    def test_contract_on_optimal(self):
        rng = np.random.default_rng(33)
        prob = random_feasible_sdp(rng)
        sol = solve(prob)
        rep = check_duality(prob, sol)
        assert rep.complementary_ok and rep.weak_duality_ok
        assert rep.slack_residual <= rep.slack_tol

    def test_hand_built_zero_product(self):
        X = np.diag([1.0, 0.0])
        S = np.diag([0.0, 1.0])
        assert np.max(np.abs(X @ S)) == 0.0

    def test_requires_optimal(self):
        res = solve_lp([1.0], [([1.0], -1.0)])
        prob = dict_problem(1, np.array([[1.0]]), [({(0, 0): 1.0}, -1.0)])
        sol = solve(prob)
        with pytest.raises(ValueError):
            check_duality(prob, sol)


class TestLinearProgramming:
    def test_pinned_variable(self):
        res = solve_lp([1.0], [([1.0], 5.0)])
        assert res.status is SdpStatus.OPTIMAL
        assert res.value == pytest.approx(5.0, abs=1e-7)

    def test_degenerate_face_objective(self):
        # min -x1-x2 on the segment x1+x2 = 1: objective unique, point not
        res = solve_lp([-1.0, -1.0], [([1.0, 1.0], 1.0)])
        assert res.status is SdpStatus.OPTIMAL
        assert res.value == pytest.approx(-1.0, abs=1e-7)

    def test_two_constraint_vertex(self):
        res = solve_lp([1.0, 2.0], [([1.0, 1.0], 2.0), ([1.0, -1.0], 0.0)])
        assert res.value == pytest.approx(3.0, abs=1e-6)
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_against_vertex_enumeration(self):
        rng = np.random.default_rng(999)
        solved = 0
        for _ in range(25):
            V = int(rng.integers(2, 6))
            M = int(rng.integers(1, V))
            A = rng.normal(size=(M, V))
            x0 = rng.uniform(0.5, 2.0, size=V)  # strictly feasible by design
            b = A @ x0
            c = rng.normal(size=V)
            rows = [(A[k], b[k]) for k in range(M)]
            expected = lp_vertex_oracle(c, rows)
            res = solve_lp(c, rows)
            if res.status is SdpStatus.DUAL_INFEASIBLE:
                continue  # unbounded; the vertex oracle cannot see rays
            assert res.status is SdpStatus.OPTIMAL
            assert expected is not None
            assert res.value == pytest.approx(expected, abs=1e-5 * (1 + abs(expected)))
            solved += 1
        assert solved >= 10


class TestSdpaFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        prob = random_feasible_sdp(rng)
        prob2 = sdpa_loads(sdpa_dumps(prob))
        assert prob2.dim == prob.dim
        assert_same_table(prob2, prob)

    def test_solution_survives_roundtrip(self):
        rng = np.random.default_rng(42)
        prob = random_feasible_sdp(rng)
        v1 = solve(prob).primal_obj
        v2 = solve(sdpa_loads(sdpa_dumps(prob))).primal_obj
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_file_io(self, tmp_path):
        from polymin.sdp import read_sdpa, write_sdpa
        prob = dict_problem(2, np.eye(2),
                            [({(0, 0): 1.0}, 1.0), ({(0, 1): 0.5}, 1.0)])
        path = str(tmp_path / "prob.dat-s")
        write_sdpa(prob, path)
        prob2 = read_sdpa(path)
        assert solve(prob2).primal_obj == pytest.approx(2.0, abs=1e-6)


class TestSdpaBlocks:
    def test_multi_block_roundtrip(self):
        # a 2x2 PSD block, a diagonal block of three and a 1x1 PSD block
        prob = dict_problem([2, -3, 1], {(0, 0): 1.0, (0, 1): 0.25, (3, 3): 2.0,
                                         (5, 5): 1.0},
                            [({(0, 0): 1.0, (2, 2): 1.0}, 1.0),
                             ({(1, 1): 1.0, (3, 3): -1.0, (4, 4): 1.0}, 0.5),
                             ({(0, 1): 0.5, (5, 5): 1.0}, 0.0)])
        text = sdpa_dumps(prob)
        assert text.splitlines()[1:3] == ["3", "2 -3 1"]
        prob2 = sdpa_loads(text)
        assert_same_table(prob2, prob)
        s1, s2 = solve(prob), solve(prob2)
        assert s1.status is s2.status is SdpStatus.OPTIMAL
        assert s1.primal_obj == pytest.approx(s2.primal_obj, rel=1e-9)
        assert s1.X_blocks[1].ndim == 1 and len(s1.X_blocks[1]) == 3

    HEADER = "1\n1\n2\n1.0\n"

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            sdpa_loads(self.HEADER + "1 1 0 1 1.0\n")

    def test_negative_matrix_number_rejected(self):
        with pytest.raises(ValueError):
            sdpa_loads(self.HEADER + "-1 1 1 1 1.0\n")

    def test_truncated_entry_rejected(self):
        with pytest.raises(ValueError):
            sdpa_loads(self.HEADER + "1 1 1 1 1.0\n0 1 2\n")

    def test_off_diagonal_entry_in_diagonal_block_rejected(self):
        with pytest.raises(ValueError):
            sdpa_loads("1\n1\n-2\n1.0\n1 1 1 2 1.0\n")

    def test_identical_repeat_is_read_once(self):
        # (1, 2) twice, once as its mirror (2, 1), and (1, 1) twice
        prob = sdpa_loads(self.HEADER + "1 1 1 2 0.5\n1 1 2 1 0.5\n"
                          "1 1 1 1 1.0\n1 1 1 1 1.0\n")
        k, i, j, v = prob.constraints
        assert np.array_equal(k, [0, 0]) and np.array_equal(i, [0, 0])
        assert np.array_equal(j, [0, 1]) and np.array_equal(v, [-1.0, -0.5])

    @pytest.mark.parametrize("entries", ["1 1 1 2 0.5\n1 1 2 1 0.25\n",
                                         "0 1 2 2 1.0\n0 1 2 2 2.0\n"],
                             ids=["mirror", "same-position"])
    def test_conflicting_repeat_rejected(self, entries):
        with pytest.raises(ValueError):
            sdpa_loads(self.HEADER + entries)

    def test_psatz_program_roundtrip_is_bit_identical(self):
        # two PSD blocks and an LP block: the table and the solve come back
        # bit for bit
        prob = _psatz_program()
        assert prob.blocks[-1] < 0 and sum(s > 0 for s in prob.blocks) == 2
        prob2 = sdpa_loads(sdpa_dumps(prob))
        assert_same_table(prob2, prob)
        s1, s2 = solve(prob), solve(prob2)
        assert s1.status is s2.status and s1.iterations == s2.iterations
        assert s1.primal_obj == s2.primal_obj and s1.dual_obj == s2.dual_obj
        assert np.array_equal(s1.y, s2.y)
        assert all(np.array_equal(a, b) for a, b in zip(s1.X_blocks, s2.X_blocks))
        assert all(np.array_equal(a, b) for a, b in zip(s1.S_blocks, s2.S_blocks))


class TestSingleZeroRow:
    # a lone row with no entries is dependent: dropped when b = 0,
    # inconsistent otherwise
    def test_consistent(self):
        sol = solve(dict_problem(1, np.array([[1.0]]), [({}, 0.0)]))
        assert sol.status is SdpStatus.OPTIMAL
        assert any("dependent" in w for w in sol.warnings)

    def test_inconsistent(self):
        sol = solve(dict_problem(1, np.array([[1.0]]), [({}, 1.0)]))
        assert sol.status is SdpStatus.PRIMAL_INFEASIBLE


def dense_schur(prob, scalings):
    """<G_k, W G_l W> from dense matrices, W block-diagonal: the given W on a
    PSD block, diag(sqrt(w2)) on a diagonal block."""
    W = np.zeros((prob.dim, prob.dim))
    for off, w in zip(prob.offsets, scalings):
        w = w if w.ndim == 2 else np.diag(np.sqrt(w))
        W[off : off + len(w), off : off + len(w)] = w
    _, G = dense(prob)
    WGW = W @ G @ W
    return G.reshape(len(G), -1) @ WGW.reshape(len(G), -1).T


def _family_gram(n, d, k=0):
    f = random_family_instance(FamilyParams(n, d, 100, seed=4200000 + n))
    return build_gram_sdp(f, k).problem


def _psatz_program():
    # two SOS multiplier blocks and the free multiplier's LP block
    prog, _, _ = _multiplier_program(2, 4, [parse("x1-x2^2+3", 2)], [parse("x2+x1^2+2", 2)])
    return prog.match_coefficients(Polynomial.constant(2, -1.0))


def _ball_program():
    # bounded_minimization's program on the disc of radius 2: the SOS block
    # s0 and the block of the disc's multiplier
    prog, _, _ = _multiplier_program(2, 4, [parse("4-x1^2-x2^2", 2)])
    return prog.match_coefficients(parse("x1^4+x2^4-3*x1*x2+x1", 2),
                                   lam=Polynomial.constant(2, 1.0))


def _shared_class_problem():
    # positions (0,1) and (0,2) have equal columns, so Gram row 0 meets
    # their class twice; a second PSD block and a diagonal block ride along
    return dict_problem([3, 2, -2], {}, [
        ({(0, 1): 1.0, (0, 2): 1.0, (1, 1): 2.0, (3, 4): 1.0}, 1.0),
        ({(0, 1): 3.0, (0, 2): 3.0, (2, 2): -1.0, (5, 5): 2.0}, 0.0),
        ({(0, 0): 1.0, (1, 2): 0.5, (3, 3): 1.0, (6, 6): -1.0}, 2.0),
    ])


class TestSchurKernel:
    """The class kernel against <G_k, W G_l W> at a random SPD scaling, and
    at unit scaling, where it is the rows' Gram matrix <G_k, G_l>, a multiple
    of which the rank filter reads off iteration 0 (W a multiple of I)."""

    @pytest.mark.parametrize("make", [
        lambda: _family_gram(2, 4),                    # plain SOS at (2,8)
        lambda: _family_gram(6, 2),                    # plain SOS at (6,4)
        lambda: _family_gram(3, 2, k=1),               # higher_degree_bound(f, 1)
        _psatz_program,
        lambda: random_feasible_sdp(np.random.default_rng(5)),
        _shared_class_problem,
    ], ids=["sos-2-8", "sos-6-4", "multiplier", "psatz-lp", "sdpa-dense",
            "shared-class"])
    def test_matches_dense_reference(self, make):
        prob = make()
        rng = np.random.default_rng(11)
        scalings = []
        for s in prob.blocks:
            if s > 0:
                B = rng.normal(size=(s, s))
                scalings.append(B @ B.T / s + 0.1 * np.eye(s))
            else:
                scalings.append(rng.uniform(0.5, 2.0, size=-s))
        lay = sdp._Layout(prob)
        kernel = sdp._SchurKernel(lay, prob.num_constraints, lay.A)
        for w in (scalings, lay.mat(lay.identity())):
            # the kernel forms the lower triangle, the one the factor reads
            got = np.tril(kernel.assemble(w))
            want = dense_schur(prob, w)
            assert np.max(np.abs(got - np.tril(want))) <= 1e-12 * np.max(np.abs(want))


class TestGateSchurSolves:
    """Solves with the factor on the last Schur complements of two gate
    solves (condition numbers 3e14-6e18): the residual bound of
    test_linalg's residual contract, and within 10x of the residual of a
    substitution solve on LAPACK's factor."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as conftest intends
    @pytest.mark.parametrize("n, two_d, seed", [(3, 8, 20240001), (3, 10, 4000000)],
                             ids=["3-8-20240001", "3-10-4000000"])
    def test_last_schur_matrices(self, monkeypatch, n, two_d, seed):
        last = collections.deque(maxlen=3)

        def capture(S):
            before = S.copy()               # as factored, with any jitter
            chol = spd_cholesky(S)
            last.append(before)
            return chol

        monkeypatch.setattr(sdp, "spd_cholesky", capture)
        f = random_family_instance(FamilyParams(n, two_d // 2, 100, seed=seed))
        assert sos_lower_bound(f).status is SdpStatus.OPTIMAL and len(last) == 3
        rng = np.random.default_rng(seed)
        for S in last:
            S = np.tril(S) + np.tril(S, -1).T     # the lower triangle, which was factored
            rhs = rng.normal(size=len(S))
            x = spd_cholesky(S.copy()).solve(rhs)
            res = np.linalg.norm(S @ x - rhs)
            assert res <= 1e-10 * (np.linalg.norm(S) * np.linalg.norm(x)
                                   + np.linalg.norm(rhs))
            ref = blockwise_solve(np.linalg.cholesky(S), rhs)
            assert res <= 10 * np.linalg.norm(S @ ref - rhs)


class TestCoordinates:
    """A's coordinates: they list A as np.nonzero does, the scatter-add
    over them is y @ A, bit for bit where every column has one nonzero, and
    the one over rows is <G_k, V>."""

    PROGRAMS = {
        "sos-2-8": lambda: _family_gram(2, 4),
        "sos-6-4": lambda: _family_gram(6, 2),
        "multiplier": lambda: _family_gram(3, 2, k=1),
        "psatz-lp": _psatz_program,
        "shared-class": _shared_class_problem,
    }

    @staticmethod
    def _dense_and_coordinates(name):
        # A from the dense G_k, each flattened block by block by lay.vec
        prob = TestCoordinates.PROGRAMS[name]()
        lay = sdp._Layout(prob)
        _, G = dense(prob)
        A = np.array([lay.vec([g[o : o + s, o : o + s] if s > 0
                               else np.diag(g[o : o - s, o : o - s])
                               for s, o in zip(prob.blocks, prob.offsets)]) for g in G])
        return A, lay.A

    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_lists_A_as_nonzero_does(self, name):
        A, (rows, cols, vals) = self._dense_and_coordinates(name)
        want_rows, want_cols = np.nonzero(A)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert np.array_equal(vals, A[want_rows, want_cols])

    @pytest.mark.parametrize("name", ["sos-2-8", "sos-6-4"])
    def test_scatter_is_bit_identical_on_sos(self, name):
        A, coords = self._dense_and_coordinates(name)
        assert np.all(np.count_nonzero(A, axis=0) <= 1)
        y = np.random.default_rng(3).normal(size=len(A))
        assert np.array_equal(sdp._combine_rows(coords, y, A.shape[1]), y @ A)

    @pytest.mark.parametrize("name", ["multiplier", "psatz-lp", "shared-class"])
    def test_scatter_matches_dense_product(self, name):
        A, coords = self._dense_and_coordinates(name)
        assert np.max(np.count_nonzero(A, axis=0)) > 1
        y = np.random.default_rng(3).normal(size=len(A))
        got = sdp._combine_rows(coords, y, A.shape[1])
        scale = np.max(np.abs(y) @ np.abs(A))
        assert np.max(np.abs(got - y @ A)) <= 1e-15 * scale

    @pytest.mark.parametrize("name", ["sos-2-8", "multiplier", "psatz-lp", "shared-class"])
    def test_rows_dot_matches_dense_inner_products(self, name):
        prob = self.PROGRAMS[name]()
        lay = sdp._Layout(prob)
        rng = np.random.default_rng(7)
        parts = [sdp._sym(rng.normal(size=(s, s))) if s > 0 else rng.normal(size=-s)
                 for s in prob.blocks]
        V = np.zeros((prob.dim, prob.dim))
        for off, p in zip(prob.offsets, parts):
            V[off : off + len(p), off : off + len(p)] = p if p.ndim == 2 else np.diag(p)
        _, G = dense(prob)
        want = np.array([np.sum(g * V) for g in G])
        scale = max(np.sum(np.abs(g * V)) for g in G)
        got = sdp._rows_dot(lay.A, lay.weights, lay.vec(parts), prob.num_constraints)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


class TestOneSchurMatrixPerIteration:
    """A solve whose Schur factors never need a retry assembles and factors
    one matrix per iteration after iteration 0.  The rank filter reads
    iteration 0's factor; on a plain SOS program, where every position lies
    in one row, that matrix is diagonal, so iteration 0 divides by it and
    forms no matrix at all."""

    @staticmethod
    def _counted(monkeypatch):
        counts = collections.Counter()
        assemble, factor = sdp._SchurKernel.assemble, sdp.spd_cholesky

        def counted_assemble(kernel, scalings):
            counts["assemble"] += 1
            return assemble(kernel, scalings)

        def counted_factor(S):
            counts["factor"] += 1
            return factor(S)

        monkeypatch.setattr(sdp._SchurKernel, "assemble", counted_assemble)
        monkeypatch.setattr(sdp, "spd_cholesky", counted_factor)
        return counts

    def test_full_rank_sos_solve(self, monkeypatch):
        counts = self._counted(monkeypatch)
        res = sos_lower_bound(random_family_instance(FamilyParams(4, 3, 100, seed=4200004)))
        assert res.status is SdpStatus.OPTIMAL and not res.solution.warnings
        n = res.solution.iterations
        assert n > 1 and counts == {"assemble": n - 1, "factor": n - 1}

    def test_full_rank_ball_solve(self, monkeypatch):
        # positions are shared by the multipliers' rows: iteration 0 is
        # factored, and the rank filter's factor goes on to it
        counts = self._counted(monkeypatch)
        sol = solve(_ball_problem(4000000))
        assert sol.status is SdpStatus.OPTIMAL and not sol.warnings
        n = sol.iterations
        assert n > 0 and counts == {"assemble": n, "factor": n}


def _scaled_gram(n, d):
    """The plain SOS program of the (n, 2d) family instance 4000000, posed
    at its suggested scale as the SOS pipeline poses it."""
    f = random_family_instance(FamilyParams(n, d, 100, seed=4000000)).to_float()
    return build_gram_sdp(scale_homogeneous(f, suggested_scaling(f, 2 * d), 2 * d)).problem


class TestDiagonalIterationZero:
    """Where every position lies in one row, iteration 0's Schur matrix is
    rho / eta0 times the diagonal Gram matrix, and the solve divides by it;
    a row that fails the rank rule sends the solve through the rank filter."""

    @pytest.mark.parametrize("n, d", [(2, 4), (6, 2)], ids=["sos-2-8", "sos-6-4"])
    def test_direction_matches_dense_path(self, monkeypatch, n, d):
        prob = _scaled_gram(n, d)
        lay = sdp._Layout(prob)
        assert sdp._diagonal_gram(lay.A, lay.weights, prob.num_constraints) is not None

        def after_one_step():
            # the iterate one step past iteration 0: its y is that step alone
            sol = solve(prob, stop=lambda record, iterate: {} if record.iteration == 1 else None)
            assert sol.status is SdpStatus.OPTIMAL and sol.iterations == 1
            return sol

        divided = after_one_step()
        monkeypatch.setattr(sdp, "_diagonal_gram", lambda *args: None)
        factored = after_one_step()
        for got, want in [(divided.y, factored.y), (divided.X, factored.X),
                          (divided.S, factored.S)]:
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @staticmethod
    def _with_empty_row(bk):
        # row 5 of the (2,8) program has no entries: its Gram entry is 0
        prob = _scaled_gram(2, 4)
        k, i, j, v = prob.constraints
        return prob, SdpProblem(prob.blocks, prob.cost, (k + (k >= 5), i, j, v),
                                np.insert(prob.b, 5, bk))

    def test_empty_row_with_zero_rhs_is_dropped(self):
        prob, with_row = self._with_empty_row(0.0)
        sol = solve(with_row)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.warnings == ["removed 1 linearly dependent constraint row(s): [5]"]
        # the restart solves the kept rows, the program itself, by division
        ref = solve(prob)
        assert ref.status is SdpStatus.OPTIMAL and not ref.warnings
        assert sol.y[5] == 0.0 and np.array_equal(np.delete(sol.y, 5), ref.y)
        assert np.array_equal(sol.X, ref.X) and sol.iterations == ref.iterations

    def test_empty_row_with_nonzero_rhs_is_infeasible(self):
        _, with_row = self._with_empty_row(1.0)
        sol = solve(with_row)
        assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
        assert sol.warnings == ["inconsistent dependent constraint rows"]


class TestFactorSchurRetries:
    """A failed factor is retried on a fresh assembly with the jitter
    1e-13 trace/M, then 100 times that, on the diagonal."""

    @staticmethod
    def _run(monkeypatch, failures):
        rng = np.random.default_rng(70)
        G = rng.normal(size=(70, 70))
        A = G @ G.T + 70 * np.eye(70)
        factored = []

        def fail_first(S):
            factored.append(S.copy())
            if len(factored) <= failures:
                raise NotPositiveDefiniteError("forced")
            return spd_cholesky(S)

        monkeypatch.setattr(sdp, "spd_cholesky", fail_first)
        return A, factored, sdp._factor_schur(A.copy)

    def test_retry_factors_diagonal_plus_jitter(self, monkeypatch):
        A, factored, chol = self._run(monkeypatch, failures=1)
        want = A.copy()
        np.fill_diagonal(want, np.diagonal(A) + 1e-13 * (np.trace(A) / len(A)))
        assert len(factored) == 2 and np.array_equal(factored[0], A)
        assert np.array_equal(factored[1], want)
        assert np.array_equal(chol.L, spd_cholesky(want).L)

    def test_three_failures_give_none(self, monkeypatch):
        A, factored, chol = self._run(monkeypatch, failures=3)
        jitter = 1e-13 * (np.trace(A) / len(A)) * 100
        assert chol is None and len(factored) == 3
        assert np.array_equal(np.diagonal(factored[2]), np.diagonal(A) + jitter)


class TestSolveMemory:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("certified", [False, True], ids=["no-stop", "certified-stop"])
    def test_peak_is_under_2_8_schur_matrices(self, certified):
        # (8,4), M = 494: the Schur matrix, factored in its own buffer, and
        # the class kernel's arrays, but no M x size constraint matrix, no
        # copy of the Schur matrix and no per-iteration copies; with the
        # certified stop, whose projection is diagonal here, no kept factor
        # either.  Posed unscaled, this program loses definiteness near the
        # end, so the Schur factor's retries run too
        f = random_family_instance(FamilyParams(8, 2, 100, seed=4000000))
        gs = build_gram_sdp(f, 0)
        prob = gs.problem
        stop = (_certified_stop(gs.program, prob.cost, _moment_upper(gs.vector, f.to_float()))
                if certified else None)
        M = prob.num_constraints
        tracemalloc.start()
        try:
            solve(prob, stop=stop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.8 * M * M * 8


def _ball_problem(seed: int):
    """f of the (3,4) family over the radius-2 ball of R^3 at degree 6, as
    ``psatz.bounded_minimization`` poses it."""
    r2 = Polynomial.constant(3, 4)
    for i in range(3):
        r2 = r2 - Polynomial.variable(3, i) ** 2
    prog, _, _ = _multiplier_program(3, 6, [r2])
    f = random_family_instance(FamilyParams(3, 2, 100, seed=seed))
    return prog.match_coefficients(f, lam=Polynomial.constant(3, 1.0))


class TestStopSeesProjection:
    """A stop is handed X~, the iterate's least-norm projection onto
    A(X) = b: on a plain SOS program every position lies in one row, so
    A Omega A^T is diagonal; on a ball program positions are shared by the
    multipliers' rows and iteration 0's Schur factor solves with it; with a
    dependent row appended, the solve restarts on the kept rows and factors
    iteration 0 before the first ask.  The stopped solve returns X~ itself,
    so the reference projects the raw iterate of a solve with no stop that
    the iteration cap ends at the same iteration."""

    @pytest.mark.parametrize("at", [0, 3])
    @pytest.mark.parametrize("program", ["plain-sos", "ball", "dependent-row"])
    def test_matches_dense_least_norm_projection(self, monkeypatch, program, at):
        if program == "ball":
            problem = _ball_problem(4000000)
        else:
            problem = build_gram_sdp(random_family_instance(
                FamilyParams(6, 2, 100, seed=4000000))).problem
        if program == "dependent-row":     # twice row 0, a row the solve drops
            k, i, j, v = problem.constraints
            M, first = problem.num_constraints, k == 0
            problem = SdpProblem(problem.blocks, problem.cost,
                                 (np.append(k, np.full(np.sum(first), M)), np.append(i, i[first]),
                                  np.append(j, j[first]), np.append(v, 2.0 * v[first])),
                                 np.append(problem.b, 2.0 * problem.b[0]))
        _, i, j, _ = problem.constraints
        shared = len(set(zip(i.tolist(), j.tolist()))) < len(i)
        assert shared == (program != "plain-sos")
        seen = []

        def stop(record, iterate):
            if record.iteration == at:
                seen.append(iterate()[0])
                return {}
            return None

        sol = solve(problem, stop=stop)
        assert sol.status is SdpStatus.OPTIMAL and sol.iterations == at and len(seen) == 1
        assert bool(sol.warnings) == (program == "dependent-row")
        # the solution's X is the projection the stop was handed
        assert all(np.array_equal(x, q) for x, q in zip(sol.X_blocks, seen[0]))
        monkeypatch.setattr(sdp, "MAX_ITER", at)
        raw = solve(problem)
        assert raw.status is SdpStatus.ITERATION_LIMIT and raw.iterations == at
        assert np.array_equal(raw.y, sol.y) and np.array_equal(raw.S, sol.S)
        want = dense_projection(problem, raw.X_blocks)
        for got, ref in zip(seen[0], want):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        AX = dense_constraints(problem) @ sdp._block_diag(seen[0]).ravel()
        assert np.max(np.abs(AX - problem.b)) <= 1e-12 * (1.0 + np.max(np.abs(problem.b)))

    def test_each_iterate_is_built_once(self):
        # an upper value and the stop's test may both ask for the iterate:
        # the second ask gets the first one's blocks, changes included, and
        # the solve returns them as the stop left them, its objective theirs
        seen, last = [], []

        def stop(record, iterate):
            X_blocks, S_blocks = iterate()
            X_blocks[0][0, 0] += 1.0
            again = iterate()
            seen.append(again[0] is X_blocks and again[1] is S_blocks)
            last[:] = [b.copy() for b in X_blocks]
            return {} if record.iteration == 3 else None

        problem = _ball_problem(4000000)
        sol = solve(problem, stop=stop)
        assert seen == [True] * 4
        assert all(np.array_equal(x, q) for x, q in zip(sol.X_blocks, last))
        i, j, v = problem.cost
        F_dot_X = float(np.sum(v * np.where(i == j, 1.0, 2.0) * sol.X[i, j]))
        assert sol.primal_obj == pytest.approx(F_dot_X, rel=1e-14)
        assert sol.gap == sol.primal_obj - sol.dual_obj


def _random_spd(rng, N):
    B = rng.normal(size=(N, N))
    return B @ B.T / N + 0.1 * np.eye(N)


def dense_step(V, dV):
    """-1/lambda_min of V^{-1/2} dV V^{-1/2}, with V^{-1/2} from eigh of V:
    the largest alpha keeping V + alpha*dV PSD."""
    w, U = np.linalg.eigh(V)
    R = (U / np.sqrt(w)) @ U.T
    lam_min = np.linalg.eigvalsh(R @ dV @ R)[0]
    return np.inf if lam_min >= 0 else -1.0 / lam_min


class TestStepLength:
    """Step lengths read off the Nesterov-Todd frame, which carries X and S
    to the identity, against a whitening of X and of S by their own
    eigendecompositions; and the diagonal block's ratio test."""

    @pytest.mark.parametrize("N", [3, 28, 66])
    def test_matches_dense_reference(self, N):
        # below a cap under the step, one Cholesky proves the step larger
        # and inf is reported; a cap above it leaves the eigensolve's value
        rng = np.random.default_rng(N)
        X, S = _random_spd(rng, N), _random_spd(rng, N)
        frame = sdp._NtFrame(X, S)
        for side, V in (("x", X), ("s", S)):
            for _ in range(3):
                B = rng.normal(size=(N, N))
                dV = B + B.T
                want = dense_step(V, dV)
                assert frame.max_step(dV, side) == pytest.approx(want, rel=1e-9)
                assert frame.max_step(dV, side, 2.0 * want) == pytest.approx(want, rel=1e-9)
                assert frame.max_step(dV, side, 0.5 * want) == np.inf

    def test_psd_direction_is_unbounded(self):
        rng = np.random.default_rng(7)
        frame = sdp._NtFrame(_random_spd(rng, 5), _random_spd(rng, 5))
        dV = _random_spd(rng, 5)
        for side in ("x", "s"):
            for cap in (np.inf, 1.0):
                assert frame.max_step(dV, side, cap) == np.inf
                assert frame.max_step(np.zeros((5, 5)), side, cap) == np.inf

    def test_non_finite_direction_gives_zero(self):
        rng = np.random.default_rng(8)
        frame = sdp._NtFrame(_random_spd(rng, 4), _random_spd(rng, 4))
        dV = np.eye(4)
        dV[1, 2] = dV[2, 1] = np.nan
        assert frame.max_step(dV, "x") == 0.0
        assert frame.max_step(dV, "x", 1.0) == 0.0

    def test_lp_ratio_test(self):
        x, s = np.array([1.0, 2.0, 3.0, 4.0]), np.array([4.0, 1.0, 0.5, 2.0])
        frame = sdp._LpFrame(x, s)
        du = np.array([-2.0, 1.0, -1.0, 0.0])
        assert frame.max_step(du, "x") == 0.5            # x[0] = 1 hits 0
        assert frame.max_step(du, "s") == 0.5            # s[2] = 0.5 hits 0
        assert frame.max_step(du, "x", 0.1) == 0.5       # the ratio test ignores the cap
        assert frame.max_step(np.abs(du), "x") == np.inf

    @pytest.mark.parametrize("lo", [0, -4, -6], ids=["2-decades", "6-decades", "8-decades"])
    def test_predictor_identity_gives_both_sides(self, lo):
        # a predictor's dX = -X - W dS W: the s-side step read off the
        # eigenvalues of H_x dX H_x^T matches S's own whitening
        rel = {0: 1e-9, -4: 1e-6, -6: 1e-2}[lo]
        rng = np.random.default_rng(500 - lo)
        for _ in range(30):
            X, S = _spectrum_pair(rng, 8, lo, 2)
            fr = sdp._NtFrame(X, S)
            B = rng.normal(size=(8, 8))
            dS = B + B.T
            dX = -X - fr.scale(dS)
            x_step, s_step = fr.predictor_steps(dX, dS)
            assert x_step == pytest.approx(dense_step(X, dX), rel=rel)
            assert s_step == pytest.approx(dense_step(S, dS), rel=rel)

    def test_checked_bound_is_least_side(self):
        # two PSD blocks and an LP block: whichever side is solved first,
        # the sides tested by Cholesky at the running bound give the least
        # step over all six sides, and the side that binds is named
        rng = np.random.default_rng(600)
        other_side_bound = 0
        for _ in range(20):
            Xs = [_random_spd(rng, 6), _random_spd(rng, 4), rng.uniform(0.5, 2.0, 5)]
            Ss = [_random_spd(rng, 6), _random_spd(rng, 4), rng.uniform(0.5, 2.0, 5)]
            frames = [sdp._NtFrame(Xs[0], Ss[0]), sdp._NtFrame(Xs[1], Ss[1]),
                      sdp._LpFrame(Xs[2], Ss[2])]
            sym = [rng.normal(size=(n, n)) for n in (6, 4, 6, 4)]
            dX = [sym[0] + sym[0].T, sym[1] + sym[1].T, rng.normal(size=5)]
            dS = [sym[2] + sym[2].T, sym[3] + sym[3].T, rng.normal(size=5)]
            want = {(j, side): dense_step(*(np.diag(v) if v.ndim == 1 else v for v in pair))
                    for side, V, dV in (("x", Xs, dX), ("s", Ss, dS))
                    for j, pair in enumerate(zip(V, dV))}
            least = min(want, key=want.get)
            for first in [None, *want]:
                got, binding = sdp._step_bound(frames, dX, dS, np.inf, first)
                assert got == pytest.approx(want[least], rel=1e-12) and binding == least
                other_side_bound += first not in (None, least)
            # a cap below every side's step is the bound itself
            assert sdp._step_bound(frames, dX, dS, 0.5 * want[least])[0] == 0.5 * want[least]
        assert other_side_bound


def _spectrum_pair(rng, N, lo, hi):
    """X and S with random eigenbases and eigenvalues 10^U(lo, hi)."""
    def one():
        Q, _ = np.linalg.qr(rng.normal(size=(N, N)))
        return (Q * 10.0 ** rng.uniform(lo, hi, N)) @ Q.T
    return one(), one()


def w_half_corrector(X, S, sigma_mu, dXa, dSa):
    """The Mehrotra corrector's right-hand side in the W^{1/2} frame: with
    lam = W^{-1/2} X W^{-1/2}, solve lam o U = sigma_mu I - lam^2
    - sym(W^{-1/2} dXa W^{-1/2} W^{1/2} dSa W^{1/2}) in lam's eigenbasis and
    return W^{1/2} U W^{1/2}."""
    def power(A, p):
        w, U = np.linalg.eigh(A)
        return (U * w ** p) @ U.T
    S_half = power(S, 0.5)
    W = power(S, -0.5) @ power(S_half @ X @ S_half, 0.5) @ power(S, -0.5)
    W_half, W_mhalf = power(W, 0.5), power(W, -0.5)
    lam = W_mhalf @ X @ W_mhalf
    l, Q = np.linalg.eigh((lam + lam.T) / 2)
    cross = (W_mhalf @ dXa @ W_mhalf) @ (W_half @ dSa @ W_half)
    R = sigma_mu * np.eye(len(X)) - lam @ lam - (cross + cross.T) / 2
    U = Q @ ((Q.T @ R @ Q) / (0.5 * (l[:, None] + l[None, :]))) @ Q.T
    return W_half @ U @ W_half


class TestNtFrame:
    """The single-factor frame: G takes X and S to one diagonal point, and
    everything the iteration reads off the frame follows from G."""

    @pytest.mark.parametrize("N", [3, 28, 66])
    def test_factor_invariants(self, N):
        rng = np.random.default_rng(100 + N)
        X, S = _random_spd(rng, N), _random_spd(rng, N)
        fr = sdp._NtFrame(X, S)
        G_inv = np.linalg.inv(fr.G)
        scale = np.max(fr.d)
        assert np.max(np.abs(fr.W @ S @ fr.W - X)) <= 1e-10 * np.max(np.abs(X))
        assert np.max(np.abs(G_inv @ X @ G_inv.T - np.diag(fr.d))) <= 1e-10 * scale
        assert np.max(np.abs(fr.G.T @ S @ fr.G - np.diag(fr.d))) <= 1e-10 * scale
        assert np.max(np.abs(fr.S_inv @ S - np.eye(N))) <= 1e-10

    @pytest.mark.parametrize("N", [3, 28, 66])
    def test_corrector_matches_w_half_frame(self, N):
        # G = W^{1/2} Q for an orthogonal Q, and the symmetrized
        # linearization is invariant under that rotation
        rng = np.random.default_rng(200 + N)
        X, S = _random_spd(rng, N), _random_spd(rng, N)
        B, C = rng.normal(size=(2, N, N))
        dXa, dSa = B + B.T, C + C.T
        want = w_half_corrector(X, S, 0.3, dXa, dSa)
        got = sdp._NtFrame(X, S).second_order_residual(0.3, dXa, dSa)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_ill_conditioned_frame_is_finite(self):
        # eigenvalues spanning twelve decades, as near the end of a solve
        rng = np.random.default_rng(300)
        for _ in range(50):
            X, S = _spectrum_pair(rng, 8, -10, 2)
            fr = sdp._NtFrame(X, S)
            assert all(np.all(np.isfinite(H)) for H in fr.H.values())
            B = rng.normal(size=(8, 8))
            for side in ("x", "s"):
                step = fr.max_step(B + B.T, side)
                assert np.isfinite(step) and step > 0
            dS = B + B.T
            steps = fr.predictor_steps(-X - fr.scale(dS), dS)
            assert all(np.isfinite(step) and step > 0 for step in steps)

    def test_steps_match_dense_reference_at_eight_decades(self):
        # the bound a corrector step gets: the side that bound the last step
        # solved, the other one checked by Cholesky at the running bound
        rng = np.random.default_rng(400)
        for _ in range(50):
            X, S = _spectrum_pair(rng, 8, -6, 2)
            fr = sdp._NtFrame(X, S)
            B, C = rng.normal(size=(2, 8, 8))
            dX, dS = B + B.T, C + C.T
            want = min(dense_step(X, dX), dense_step(S, dS))
            for first in [(0, "x"), (0, "s")]:
                got, _ = sdp._step_bound([fr], [dX], [dS], np.inf, first)
                assert got == pytest.approx(want, rel=1e-2)

    def test_cholesky_failure_of_s_ends_through_best_or(self, monkeypatch):
        # a frame whose S fails Cholesky ends the solve with the frame's
        # warning: early on with no usable iterate, later with the latest
        # iterate within the relaxed tolerances
        prob = _scaled_gram(2, 4)
        plain = solve(prob)
        relaxed = next(r.iteration for r in plain.trace
                       if max(r.rel_primal, r.rel_dual) <= 1e-6
                       and abs(r.primal_obj - r.dual_obj)
                       <= 1e-6 * (1 + abs(r.primal_obj) + abs(r.dual_obj)))
        real = sdp._NtFrame
        for at, status in [(3, SdpStatus.NUMERICAL_TROUBLE), (relaxed, SdpStatus.OPTIMAL)]:
            built = []

            def frame(X, S):
                built.append(X)
                return real(X, -S if len(built) == at + 1 else S)

            monkeypatch.setattr(sdp, "_NtFrame", frame)
            sol = solve(prob)
            assert sol.status is status and sol.iterations == at
            assert sol.warnings == ["NT scaling failed: Cholesky of S or eigh of L^T X L"] + (
                ["converged at reduced accuracy before numerical breakdown"]
                if status is SdpStatus.OPTIMAL else [])


class TestSpectralWorkPerStep:
    """One eigh per PSD block per Newton step: the frame's, of L^T X L."""

    @pytest.mark.parametrize("program", ["sos-6-4", "ball-3-4-6"])
    def test_one_eigh_per_psd_block_per_step(self, monkeypatch, program):
        prob = _scaled_gram(6, 2) if program == "sos-6-4" else _ball_problem(4000000)
        counts = collections.Counter()
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _name=name, _real=getattr(np.linalg, name)):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL and not sol.warnings
        psd_blocks = sum(size > 0 for size in prob.blocks)
        assert psd_blocks == (1 if program == "sos-6-4" else 2)
        assert counts["eigh"] == psd_blocks * sol.iterations
        # one eigvalsh per block for the predictor, then one for each side
        # whose Cholesky test fails (the two-eigh frame took four)
        assert counts["eigvalsh"] <= 3 * psd_blocks * sol.iterations
