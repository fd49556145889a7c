"""End-to-end acceptance suite.

One test per criterion, each at its stated tolerance; the conftest hook
prints a PASS/FAIL line per criterion at the end of the run.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from polymin.groebner import (
    GroebnerBasis,
    characteristic_polynomial,
    critical_ideal_generators,
    is_groebner,
    minimize_by_eigenvalues,
    multiplication_matrix,
    real_roots_exact_poly,
    standard_monomials,
)
from polymin.handelman import PolytopeDescription, handelman_bound, handelman_ladder
from polymin.poly import FamilyParams, Polynomial, parse, random_family_instance
from polymin.psatz import (
    NotFoundAtDegree,
    SemialgebraicSystem,
    Witness,
    find_witness,
    verify_witness,
)
from polymin.sdp import SdpStatus, check_duality, solve
from polymin.sos import (
    MINUS_INFINITY,
    build_gram_sdp,
    higher_degree_bound,
    minimize,
    size_tables,
    sos_lower_bound,
)

from conftest import MOTZKIN, SYMMETRIC_QUARTIC, permutations_match
from test_sos import PAPER_CRITICAL_COUNTS, PAPER_MATRIX_SIZES

EXPECTED_MIN = -2.112913882
EXPECTED_POINT = (0.988, -1.102, -1.102)

# the two exact factors whose real roots carry all real critical values of
# the symmetric quartic (ascending coefficients)
CUBIC_FACTOR = [Fraction(c) for c in (473, -96, -512, 256)]
SEXTIC_FACTOR = [Fraction(c) for c in
                 (166419, -437152, -421376, 1011712, 1056768, 393216, 65536)]


def test_criterion_01_running_example_sos():
    f = parse(SYMMETRIC_QUARTIC, 3)
    t0 = time.perf_counter()
    res = minimize(f)
    elapsed = time.perf_counter() - t0
    assert abs(res.bound - EXPECTED_MIN) <= 1e-6
    assert res.extraction is not None and res.extraction.found
    assert permutations_match(res.extraction.point, EXPECTED_POINT, 5e-3)
    assert elapsed < 5.0


def test_criterion_02_running_example_oracle():
    f = parse(SYMMETRIC_QUARTIC, 3)
    gens = critical_ideal_generators(f)
    assert is_groebner(gens)
    G = GroebnerBasis.from_generators(gens)
    B = standard_monomials(G)
    assert B.mu == 27
    Tf = multiplication_matrix(f, G, B)
    assert Tf.nnz == 178
    res = minimize_by_eigenvalues(f)
    stated = {-0.8692394998: 3, -0.8702981639: 1, -2.112913879: 3}
    found = dict(zip(res.eigen.real_values, res.eigen.real_multiplicities))
    for value, mult in stated.items():
        matches = [v for v in found if abs(v - value) <= 1e-6]
        assert matches, f"real eigenvalue {value} missing"
        assert found[matches[0]] == mult
    # exact arithmetic additionally shows a zero eigenvalue of multiplicity
    # six (the objective matrix has rank 21, not full rank): six complex
    # critical points carry the value zero exactly
    zero = [v for v in found if abs(v) <= 1e-9]
    assert zero and found[zero[0]] == 6
    bound = sos_lower_bound(f).bound
    assert abs(res.fstar - bound) <= 1e-5


def test_criterion_03_characteristic_polynomial_route():
    f = parse(SYMMETRIC_QUARTIC, 3)
    G = GroebnerBasis.from_generators(critical_ideal_generators(f))
    B = standard_monomials(G)
    Tf = multiplication_matrix(f, G, B)
    coeffs = characteristic_polynomial(Tf)
    assert len(coeffs) == 28 and coeffs[-1] == 1

    # exact factorization: charpoly equals t^6 times the cubic times the
    # cube of the sextic (monic normalization), so the two printed factors
    # carry every nonzero real root
    def polymul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    prod = polymul(CUBIC_FACTOR,
                   polymul(SEXTIC_FACTOR, polymul(SEXTIC_FACTOR, SEXTIC_FACTOR)))
    with_content = [Fraction(0)] * 6 + prod
    lead = with_content[-1]
    assert [c / lead for c in with_content] == coeffs

    roots = real_roots_exact_poly(coeffs)
    expected = sorted(real_roots_exact_poly(CUBIC_FACTOR)
                      + real_roots_exact_poly(SEXTIC_FACTOR))
    nonzero = [r for r in roots if abs(r) > 1e-9]
    assert len(nonzero) == len(expected)
    for a, b in zip(nonzero, expected):
        assert abs(a - b) <= 1e-6
    # the remaining real root is the exact zero of the t^6 content
    assert any(abs(r) <= 1e-9 for r in roots)
    assert abs(min(roots) - (-2.112913879)) <= 1e-6


def test_criterion_04_motzkin():
    m = parse(MOTZKIN, 2)
    res = sos_lower_bound(m)
    assert res.bound == MINUS_INFINITY
    grid = np.linspace(-5.0, 5.0, 100)
    pts = np.array([(a, b) for a in grid for b in grid])
    values = m.to_float().evaluate_many(pts)
    assert pts.shape[0] == 10_000
    assert float(np.min(values)) >= -1.0 - 1e-12
    level1 = higher_degree_bound(m, 1).bound
    assert abs(level1 - (-1.0)) <= 1e-3


def test_criterion_05_gap_instance():
    m = parse(MOTZKIN, 2)
    f = parse("x1^8+x2^8", 2) + m * 2700
    orc = minimize_by_eigenvalues(f)
    assert orc.mu == 49
    sos = sos_lower_bound(f)
    assert sos.status is SdpStatus.OPTIMAL
    assert orc.fstar - sos.bound > 1e-3


def test_criterion_06_size_laws():
    st = size_tables(15, 12)
    for two_d, row in PAPER_MATRIX_SIZES.items():
        for n, N in row.items():
            assert st.matrix_size(n, two_d) == N
    for two_d, row in PAPER_CRITICAL_COUNTS.items():
        for n, mu in row.items():
            assert st.bezout_number(n, two_d) == mu
    assert st.matrix_size(15, 4) == 136
    assert st.bezout_number(13, 4) == 1594323
    vec = build_gram_sdp(parse(SYMMETRIC_QUARTIC, 3)).vector
    assert vec.N * (vec.N + 1) // 2 - len(vec.classes) == 20


def test_criterion_07_psatz_witness():
    sys_ = SemialgebraicSystem(2, inequalities=[parse("x1-x2^2+3", 2)],
                               equalities=[parse("x2+x1^2+2", 2)])
    solved = find_witness(sys_, 2)
    assert isinstance(solved, Witness)
    assert verify_witness(sys_, solved, exact=False).max_residual <= 1e-6

    hand = Witness(
        degree=2,
        s0=[
            (Fraction(1, 3), Polynomial.constant(2, Fraction(1))),
            (Fraction(2), parse("x2+3/2", 2)),
            (Fraction(6), parse("x1-1/6", 2)),
        ],
        ineq_multipliers=[[(Fraction(2), Polynomial.constant(2, Fraction(1)))]],
        eq_multipliers=[Polynomial.constant(2, Fraction(-6))],
        n=2,
    )
    report = verify_witness(sys_, hand, exact=True)
    assert report.ok and report.max_residual == 0.0


def test_criterion_08_random_family_agreement():
    t0 = time.perf_counter()
    cases = [
        (FamilyParams(3, 2, 100, seed=20240000 + i), ) for i in range(25)
    ] + [
        (FamilyParams(2, 3, 100, seed=30240000 + i), ) for i in range(10)
    ]
    completed = agreed = 0
    for (params,) in cases:
        f = random_family_instance(params)
        sos = sos_lower_bound(f)
        orc = minimize_by_eigenvalues(f)
        assert sos.status is SdpStatus.OPTIMAL
        completed += 1
        if abs(sos.bound - orc.fstar) <= 1e-5 * (1 + abs(orc.fstar)):
            agreed += 1
        assert sos.certificate is not None
        # re-expansion residual, relative to the certificate's coefficient
        # scale (these instances have minima of order K^2 and larger, so an
        # absolute reading would demand digits beyond double precision)
        assert sos.certificate.relative_residual <= 1e-4
        assert sos.certificate.ok
    assert completed == 35
    assert agreed == completed  # 100 percent where both complete
    assert time.perf_counter() - t0 < 600


def test_criterion_09_sdp_engine_properties():
    from test_sdp import random_feasible_sdp

    rng = np.random.default_rng(20240601)
    for _ in range(100):
        prob = random_feasible_sdp(rng)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.gap) <= 1e-7 * (1 + abs(sol.primal_obj))
        rep = check_duality(prob, sol)
        assert rep.slack_residual <= 1e-6 * (1 + np.linalg.norm(sol.X))
        for rec in sol.trace:
            # the embedding's own duality pairing is nonnegative at every
            # iterate; the original pair satisfies weak duality to 1e-9 at
            # every iterate whose residuals certify it
            assert rec.embedding_gap >= -1e-9
            if rec.rel_primal <= 1e-9 and rec.rel_dual <= 1e-9:
                assert (rec.primal_obj - rec.dual_obj
                        >= -1e-9 * (1 + abs(rec.primal_obj)))


def test_criterion_10_handelman():
    box = PolytopeDescription(2, [parse("x1", 2), parse("1-x1", 2),
                                  parse("x2", 2), parse("1-x2", 2)])
    hb = handelman_bound(parse("x1*x2", 2), box, 2)
    assert abs(hb.value) <= 1e-8
    assert hb.coefficients[(1, 0, 1, 0)] == pytest.approx(1.0, abs=1e-6)

    seg = PolytopeDescription(1, [parse("x1", 1), parse("1-x1", 1)])
    ladder = handelman_ladder(parse("x1^2-x1+1/4", 1), seg, 6)
    values = [b.value for b in ladder]
    assert len(values) == 5
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-8
    assert all(v <= 1e-8 for v in values)
    assert values[-1] >= -0.05 - 1e-8
