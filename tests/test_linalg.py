import numpy as np
import pytest

from polymin.linalg import (
    _BLOCK,
    NotPositiveDefiniteError,
    eig_general,
    psd_factor,
    spd_cholesky,
    sym_eig,
)

from conftest import blockwise_solve


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
        assert res.success
        assert res.B.shape == (0, 3)

    def test_diagonal(self):
        res = psd_factor(np.diag([4.0, 9.0]))
        assert res.success and len(res.B) == 2
        assert np.allclose(res.B.T @ res.B, np.diag([4.0, 9.0]))

    def test_rank_one(self):
        S = np.ones((2, 2))
        res = psd_factor(S)
        assert res.success and len(res.B) == 1
        row = res.B[0]
        assert abs(abs(row[0]) - abs(row[1])) <= 1e-12  # proportional to (1, 1)
        assert np.allclose(res.B.T @ res.B, S)

    def test_indefinite_reports_pivot(self):
        res = psd_factor(np.diag([1.0, -1.0]), tol=1e-10)
        assert not res.success and res.B is None
        assert np.allclose(np.abs(res.null), [[0.0], [1.0]])

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
            assert len(res.B) <= r

    @pytest.mark.parametrize("S, support", [
        ([[0.0, 1.0], [1.0, 0.0]], {0, 1}),
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], {1, 2}),
    ])
    def test_indefinite_zero_diagonal_rejected(self, S, support):
        # eigenvalue -1 hides behind a diagonal with no negative pivot
        res = psd_factor(np.array(S), tol=1e-10)
        assert not res.success and res.B is None
        # the one null column is the eigenvector of -1
        assert res.null.shape[1] == 1
        assert set(np.flatnonzero(np.abs(res.null[:, 0]) > 1e-12)) == support

    def test_null_space(self):
        # null: orthonormal columns spanning the eigendirections at or below
        # the threshold, on success and on failure; B's rows largest first
        rng = np.random.default_rng(7)
        G = rng.normal(size=(3, 6))
        res = psd_factor(G.T @ G)
        assert res.success and len(res.B) == 3 and res.null.shape == (6, 3)
        assert np.allclose(res.null.T @ res.null, np.eye(3))
        assert np.max(np.abs(G @ res.null)) <= 1e-12
        norms = np.linalg.norm(res.B, axis=1)
        assert np.all(np.diff(norms) <= 0)
        bad = psd_factor(np.diag([2.0, 0.0, -1.0]))
        assert not bad.success and bad.null.shape[1] == 2
        assert np.allclose(np.abs(bad.null), [[0, 0], [0, 1], [1, 0]])

    def test_near_psd_tolerance(self):
        S = np.diag([1.0, -1e-13])
        assert psd_factor(S, tol=1e-10).success
        assert not psd_factor(S, tol=1e-15).success


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(spd_cholesky(np.eye(3)).solve(b), b)

    def test_diagonal(self):
        assert np.allclose(spd_cholesky(np.diag([2.0, 4.0])).solve([2.0, 4.0]), [1.0, 1.0])

    def test_random_spd_known_solution(self):
        rng = np.random.default_rng(8)
        G = rng.normal(size=(20, 20))
        S = G @ G.T + 20 * np.eye(20)
        rhs = S @ np.ones(20)
        x = spd_cholesky(S).solve(rhs)
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
            x = spd_cholesky(S).solve(rhs)
            res = np.linalg.norm(S @ x - rhs)
            bound = 1e-10 * (np.linalg.norm(S) * np.linalg.norm(x)
                             + np.linalg.norm(rhs))
            assert res <= bound

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_cholesky(np.diag([1.0, -2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_cholesky(np.diag([1.0, np.inf]))


class TestCholeskySolve:
    # the factor's solve, built on its kept diagonal-block inverses, agrees
    # with a substitution solve over the same L
    @pytest.mark.parametrize("n", [44, 209, 1000])
    @pytest.mark.parametrize("shape", ["vector", "two-columns"])
    def test_matches_blockwise_reference(self, n, shape):
        rng = np.random.default_rng(n)
        G = rng.normal(size=(n, n))
        chol = spd_cholesky(G @ G.T + n * np.eye(n))
        rhs = rng.normal(size=n if shape == "vector" else (n, 2))
        want = blockwise_solve(chol.L, rhs)
        assert np.max(np.abs(chol.solve(rhs) - want)) <= 1e-12 * np.max(np.abs(want))


class TestCholeskyFactor:
    # sizes around one and two block columns
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 209, 1000])
    def test_factor_and_block_inverses(self, n):
        rng = np.random.default_rng(n)
        G = rng.normal(size=(n, n))
        S = G @ G.T + n * np.eye(n)
        chol = spd_cholesky(S)
        want = np.linalg.cholesky(S)
        assert np.max(np.abs(chol.L - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(chol.L, np.tril(chol.L))
        for s, e, inv in chol._blocks:
            assert e - s == min(_BLOCK, n - s)
            assert np.max(np.abs(inv @ chol.L[s:e, s:e] - np.eye(e - s))) <= 1e-12

    def test_reads_the_lower_triangle(self):
        rng = np.random.default_rng(3)
        G = rng.normal(size=(150, 150))
        S = G @ G.T + 150 * np.eye(150)
        junk = np.triu(rng.normal(size=(150, 150)), 1)
        assert np.array_equal(spd_cholesky(S).L, spd_cholesky(np.tril(S) + junk).L)

    def test_rejects_late_bad_pivot(self):
        # leading 100 x 100 block positive definite, pivot 100 negative
        rng = np.random.default_rng(100)
        G = rng.normal(size=(150, 150))
        S = G @ G.T + 150 * np.eye(150)
        head = S[:100, 100]
        S[100, 100] = head @ np.linalg.solve(S[:100, :100], head) - 1.0
        np.linalg.cholesky(S[:100, :100])
        with pytest.raises(NotPositiveDefiniteError):
            spd_cholesky(S)

    # a diagonal entry, an entry in a later diagonal block, and one below a
    # later column's diagonal block
    @pytest.mark.parametrize("i, j", [(100, 100), (150, 100), (200, 70)])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the entry spreads
    def test_rejects_late_non_finite_entry(self, i, j, value):
        rng = np.random.default_rng(i + j)
        G = rng.normal(size=(260, 260))
        S = G @ G.T + 260 * np.eye(260)
        S[i, j] = S[j, i] = value
        with pytest.raises(NotPositiveDefiniteError):
            spd_cholesky(S)
