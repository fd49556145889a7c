import warnings

import numpy as np
import pytest

from polymin.linalg import _BLOCK
from polymin.poly import parse
from polymin.sdp import SdpProblem, _block_diag

warnings.filterwarnings("ignore", category=RuntimeWarning)

# the symmetric quartic used throughout: three global minimizers at the
# coordinate permutations of (0.988, -1.102, -1.102), minimum -2.112913882
SYMMETRIC_QUARTIC = "x1^4+x2^4+x3^4-4*x1*x2*x3+x1+x2+x3"
MOTZKIN = "x1^4*x2^2+x1^2*x2^4-3*x1^2*x2^2"
SYMMETRIC_QUARTIC_MIN = -2.112913882
SYMMETRIC_QUARTIC_POINT = (0.988, -1.102, -1.102)


@pytest.fixture
def symmetric_quartic():
    return parse(SYMMETRIC_QUARTIC, 3)


@pytest.fixture
def motzkin():
    return parse(MOTZKIN, 2)


def permutations_match(point, target, tol):
    """True when `point` matches some coordinate permutation of `target`."""
    import itertools

    for perm in itertools.permutations(target):
        if all(abs(a - b) <= tol for a, b in zip(point, perm)):
            return True
    return False


def dict_problem(blocks, F, constraints) -> SdpProblem:
    """An SdpProblem from coordinate maps: F as ``{(i, j): v}`` or as a dense
    symmetric matrix (the upper triangle of its symmetric part is read), and
    the constraints as pairs ``({(i, j): v}, b_k)``."""
    if not isinstance(F, dict):
        F = np.asarray(F, dtype=float)
        F = (F + F.T) / 2.0
        F = {(i, j): F[i, j] for i, j in zip(*np.nonzero(np.triu(F)))}
    cost = [(i, j, v) for (i, j), v in F.items()]
    rows = [(k, i, j, v) for k, (g, _) in enumerate(constraints) for (i, j), v in g.items()]
    return SdpProblem(blocks, tuple(zip(*cost)) or ([],) * 3,
                      tuple(zip(*rows)) or ([],) * 4, [bk for _, bk in constraints])


def dense_constraints(problem: SdpProblem) -> np.ndarray:
    """The rows G_k as dense symmetric dim x dim matrices, flattened, so that
    <G_k, X> is row k times the flattened block-diagonal X."""
    k, i, j, v = problem.constraints
    G = np.zeros((problem.num_constraints, problem.dim, problem.dim))
    G[k, i, j] = v
    G[k, j, i] = v
    return G.reshape(problem.num_constraints, -1)


def dense_projection(problem: SdpProblem, X_blocks: list) -> list:
    """The least-norm (Frobenius) projection of a block-diagonal X onto
    <G_k, X> = b_k, as blocks: ``np.linalg.lstsq``'s minimum-norm correction
    on the dense rows lies in their span, so it is symmetric and
    block-diagonal like the G_k."""
    A = dense_constraints(problem)
    X = _block_diag(X_blocks)
    dX = np.linalg.lstsq(A, problem.b - A @ X.ravel(), rcond=None)[0].reshape(X.shape)
    out, at = [], 0
    for Q in X_blocks:
        D = dX[at : at + len(Q), at : at + len(Q)]
        out.append(Q + D if Q.ndim == 2 else Q + np.diagonal(D))
        at += len(Q)
    return out


def assert_same_table(p: SdpProblem, q: SdpProblem):
    """p and q hold the same blocks and the same table, bit for bit."""
    assert p.blocks == q.blocks
    for a, b in zip((*p.constraints, *p.cost, p.b), (*q.constraints, *q.cost, q.b)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def blockwise_solve(L, rhs):
    """L L^T x = rhs by blocked substitution over strided views of L, with
    LAPACK's solve on each diagonal block: the reference for the factor's
    solves, which multiply by the diagonal blocks' inverses instead."""
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


_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")
