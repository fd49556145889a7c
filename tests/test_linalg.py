import numpy as np
import pytest

from polymin.linalg import (
    _BLOCK,
    NotPositiveDefiniteError,
    eig_general,
    psd_factor,
    solve_spd,
    spd_cholesky,
    sym_eig,
)


class TestSymEig:
    def test_identity(self):
        res = sym_eig(np.eye(3))
        assert np.allclose(res.values.real, [1, 1, 1])
        assert res.real_values == pytest.approx([1.0])
        assert res.real_multiplicities == [3]

    def test_diagonal(self):
        res = sym_eig(np.diag([-2.0, 0.0, 5.0]))
        assert np.allclose(sorted(res.values.real), [-2, 0, 5])

    def test_2x2_derived(self):
        # [[2,1],[1,2]]: characteristic quadratic (2-t)^2 - 1, roots 1 and 3
        res = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(res.values.real, [1.0, 3.0])

    def test_vectors_orthonormal_and_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n))
            S = (A + A.T) / 2
            res = sym_eig(S)
            V = res.vectors
            assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-10
            nrm = np.linalg.norm(S)
            for k in range(n):
                r = S @ V[:, k] - res.values[k].real * V[:, k]
                assert np.max(np.abs(r)) <= 1e-8 * max(nrm, 1)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigGeneral:
    def test_rotation_no_real(self):
        # companion matrix of t^2 + 1
        C = np.array([[0.0, -1.0], [1.0, 0.0]])
        res = eig_general(C)
        assert sorted(np.round(res.values.imag, 12).tolist()) == [-1.0, 1.0]
        assert res.real_values == []

    def test_upper_triangular(self):
        M = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
        res = eig_general(M)
        assert np.allclose(sorted(res.values.real), sorted(np.diag(M)))

    def test_agrees_with_sym_eig(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            A = rng.normal(size=(n, n))
            S = (A + A.T) / 2
            ws = sym_eig(S, compute_vectors=False).values.real
            wg = np.sort(eig_general(S, compute_vectors=False).values.real)
            assert np.max(np.abs(np.sort(ws) - wg)) <= 1e-8 * max(np.linalg.norm(S), 1)

    def test_trace_and_det_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            M = rng.normal(size=(n, n))
            res = eig_general(M)
            nrm = max(np.linalg.norm(M), 1.0)
            assert abs(np.sum(res.values) - np.trace(M)) <= 1e-8 * nrm
            det = np.linalg.det(M)
            if abs(det) > 1e-6 * nrm**n:
                assert abs(np.prod(res.values) - det) <= 1e-6 * abs(det) * 100

    def test_clustered_multiplicity(self):
        M = np.diag([1.0, 1.0 + 1e-9, 3.0])
        res = eig_general(M)
        assert res.real_multiplicities == [2, 1]


class TestPsdFactor:
    def test_zero_matrix(self):
        res = psd_factor(np.zeros((3, 3)))
        assert res.success and res.rank == 0
        assert res.B.shape == (0, 3)

    def test_diagonal(self):
        res = psd_factor(np.diag([4.0, 9.0]))
        assert res.success and res.rank == 2
        assert np.allclose(res.B.T @ res.B, np.diag([4.0, 9.0]))

    def test_rank_one(self):
        S = np.ones((2, 2))
        res = psd_factor(S)
        assert res.success and res.rank == 1
        row = res.B[0]
        assert abs(abs(row[0]) - abs(row[1])) <= 1e-12  # proportional to (1, 1)
        assert np.allclose(res.B.T @ res.B, S)

    def test_indefinite_reports_pivot(self):
        res = psd_factor(np.diag([1.0, -1.0]), tol=1e-10)
        assert not res.success
        assert res.failure_pivot == pytest.approx(-1.0)
        assert res.failure_index == 1

    def test_reconstruction_random_psd(self):
        # contract: ||S - B^T B||_inf <= 10 * tol * ||S|| on 1000 PSD inputs
        rng = np.random.default_rng(2024)
        tol = 1e-10
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            r = int(rng.integers(0, n + 1))
            G = rng.normal(size=(r, n))
            S = G.T @ G
            res = psd_factor(S, tol=tol)
            assert res.success
            scale = max(np.max(np.abs(S)), 1e-300)
            err = np.max(np.abs(S - res.B.T @ res.B))
            assert err <= 10 * tol * scale
            assert res.rank <= r

    @pytest.mark.parametrize("S, support", [
        ([[0.0, 1.0], [1.0, 0.0]], {0, 1}),
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], {1, 2}),
    ])
    def test_indefinite_zero_diagonal_rejected(self, S, support):
        # eigenvalue -1 hides behind a diagonal with no negative pivot
        res = psd_factor(np.array(S), tol=1e-10)
        assert not res.success and res.B is None
        assert res.failure_pivot == pytest.approx(-1.0)
        assert res.failure_index in support

    def test_near_psd_tolerance(self):
        S = np.diag([1.0, -1e-13])
        assert psd_factor(S, tol=1e-10).success
        assert not psd_factor(S, tol=1e-15).success


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        assert np.allclose(solve_spd(np.diag([2.0, 4.0]), [2.0, 4.0]), [1.0, 1.0])

    def test_random_spd_known_solution(self):
        rng = np.random.default_rng(8)
        G = rng.normal(size=(20, 20))
        S = G @ G.T + 20 * np.eye(20)
        rhs = S @ np.ones(20)
        x = solve_spd(S, rhs)
        assert np.max(np.abs(x - 1.0)) <= 1e-8

    def test_residual_contract(self):
        # sizes past the solves' diagonal block side, and one input with
        # condition number 1e12
        rng = np.random.default_rng(88)
        Q, _ = np.linalg.qr(rng.normal(size=(150, 150)))
        ill = (Q * np.logspace(0, -12, 150)) @ Q.T
        inputs = []
        for _ in range(20):
            n = int(rng.integers(1, 200))
            G = rng.normal(size=(n, n))
            inputs.append(G @ G.T + n * np.eye(n))
        for S in inputs + [(ill + ill.T) / 2]:
            n = len(S)
            rhs = rng.normal(size=n)
            x = solve_spd(S, rhs)
            res = np.linalg.norm(S @ x - rhs)
            bound = 1e-10 * (np.linalg.norm(S) * np.linalg.norm(x)
                             + np.linalg.norm(rhs))
            assert res <= bound

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            solve_spd(np.diag([1.0, -2.0]), [1.0, 1.0])
        assert exc.value.index == 1


def blockwise_solve(L, rhs):
    """L L^T x = rhs by blocked substitution over strided views of L."""
    n = len(L)
    y = np.array(rhs, dtype=float)
    for s in range(0, n, _BLOCK):
        e = s + _BLOCK
        y[s:e] = np.linalg.solve(L[s:e, s:e], y[s:e])
        y[e:] -= L[e:, s:e] @ y[s:e]
    for s in reversed(range(0, n, _BLOCK)):
        e = s + _BLOCK
        y[s:e] = np.linalg.solve(L[s:e, s:e].T, y[s:e])
        y[:s] -= L[s:e, :s].T @ y[s:e]
    return y


class TestCholeskySolve:
    # the factor's contiguous diagonal blocks change no bit of a solve
    @pytest.mark.parametrize("n", [44, 209, 1000])
    @pytest.mark.parametrize("shape", ["vector", "two-columns"])
    def test_matches_blockwise_reference(self, n, shape):
        rng = np.random.default_rng(n)
        G = rng.normal(size=(n, n))
        chol = spd_cholesky(G @ G.T + n * np.eye(n))
        rhs = rng.normal(size=n if shape == "vector" else (n, 2))
        assert np.array_equal(chol.solve(rhs), blockwise_solve(chol.L, rhs))
