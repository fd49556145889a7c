import warnings

import numpy as np
import pytest

from polymin.poly import parse
from polymin.sdp import SdpProblem

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


def assert_same_table(p: SdpProblem, q: SdpProblem):
    """p and q hold the same blocks and the same table, bit for bit."""
    assert p.blocks == q.blocks
    for a, b in zip((*p.constraints, *p.cost, p.b), (*q.constraints, *q.cost, q.b)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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
