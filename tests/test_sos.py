import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polymin.groebner import minimize_by_eigenvalues
import polymin.psatz
import polymin.sdp
from polymin.handelman import HandelmanInfeasibleError, PolytopeDescription, handelman_bound
from polymin.poly import (
    FamilyParams,
    Polynomial,
    parse,
    random_family_instance,
    scale_homogeneous,
    suggested_scaling,
)
from polymin.psatz import NotFoundAtDegree, SemialgebraicSystem, find_witness
from polymin.sdp import SdpSolution, SdpStatus
from polymin.sos import (
    MINUS_INFINITY,
    MonomialVector,
    OddDegreeError,
    build_gram_sdp,
    extract_certificate,
    extract_minimizer,
    higher_degree_bound,
    minimize,
    size_tables,
    sos_lower_bound,
)

from conftest import permutations_match


class TestMonomialVector:
    def test_length_formula(self):
        for n in range(1, 5):
            for d in range(0, 4):
                vec = MonomialVector.build(n, d)
                assert vec.N == math.comb(n + d, d)

    def test_constant_first(self):
        vec = MonomialVector.build(3, 2)
        assert vec.entries[0] == (0, 0, 0)
        assert vec.index[(0, 0, 0)] == 0


    @pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (3, 2)])
    def test_coefficients_match_expansion(self, n, d):
        vec = MonomialVector.build(n, d)
        G = np.random.default_rng(10 * n + d).normal(size=(vec.N, vec.N))
        A = G + G.T
        expected = expand_gram(A, vec)
        got = dict(zip(vec.classes, vec.coefficients(A)))
        assert set(expected.terms) <= set(got)
        for m, c in got.items():
            assert abs(c - float(expected.terms.get(m, 0.0))) <= 1e-12 * (1.0 + abs(c))


def expand_gram(A, vec):
    """v^T A v by polynomial arithmetic over every ordered index pair."""
    v = [Polynomial.from_monomial(vec.n, m, 1.0) for m in vec.entries]
    out = Polynomial.zero(vec.n)
    for i in range(vec.N):
        for j in range(vec.N):
            out = out + v[i] * v[j] * float(A[i, j])
    return out


class TestGramSpace:
    """The affine space of Gram matrices: one equation per class of
    ``MonomialVector``, so its dimension is N(N+1)/2 minus the class count."""

    def test_symmetric_quartic_counts(self, symmetric_quartic):
        vec = build_gram_sdp(symmetric_quartic).vector
        assert vec.N == 10
        assert len(vec.classes) == 35
        assert vec.N * (vec.N + 1) // 2 - len(vec.classes) == 20

    def test_constraint_count_formula(self):
        f = Polynomial(3, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0})
        vec = build_gram_sdp(f).vector
        assert len(vec.classes) == math.comb(3 + 4, 4) == 35

    def test_unique_gram_for_pure_square(self):
        vec = build_gram_sdp(parse("x1^2", 1)).vector
        assert vec.N * (vec.N + 1) // 2 - len(vec.classes) == 0  # single representation

    def test_dimension_law_random(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(1, 4)
            d = rng.randint(1, 3)
            vec = MonomialVector.build(n, d)
            assert len(vec.classes) == math.comb(n + 2 * d, 2 * d)

    def test_odd_degree_rejected(self):
        with pytest.raises(OddDegreeError):
            build_gram_sdp(parse("x1^3", 1))


class TestSosLowerBound:
    # a coefficient above 1 makes the homogeneous scaling nontrivial, which
    # must not run before the parity check
    @pytest.mark.parametrize("text", ["x1^3+5*x1", "x1^3+x2^2+3*x1*x2"])
    @pytest.mark.parametrize("entry", [sos_lower_bound, minimize,
                                       lambda f: higher_degree_bound(f, 1)],
                             ids=["sos_lower_bound", "minimize", "higher_degree_bound"])
    def test_odd_degree_raises_odd_degree_error(self, entry, text):
        with pytest.raises(OddDegreeError):
            entry(parse(text))

    def test_symmetric_quartic(self, symmetric_quartic):
        res = sos_lower_bound(symmetric_quartic)
        assert abs(res.value - (-2.112913882)) <= 1e-6
        assert res.certificate is not None and res.certificate.ok

    def test_motzkin_minus_infinity(self, motzkin):
        res = sos_lower_bound(motzkin)
        assert res.value == MINUS_INFINITY
        assert res.is_minus_infinity

    def test_perfect_square(self):
        res = sos_lower_bound(parse("x1^2-2*x1+1", 1))
        assert abs(res.value) <= 1e-7
        squares = res.certificate.squares
        assert len(squares) == 1
        q = squares[0]
        # single square equal to x1 - 1 up to sign
        assert min(
            (q - parse("x1-1", 1).to_float()).max_abs_coefficient(),
            (q + parse("x1-1", 1).to_float()).max_abs_coefficient(),
        ) <= 1e-4

    def test_scaling_equivariance(self, symmetric_quartic):
        base = sos_lower_bound(symmetric_quartic).value
        for alpha in (0.5, 2.0):
            fs = scale_homogeneous(symmetric_quartic.to_float(), alpha, 4)
            v = sos_lower_bound(fs).value
            assert abs(v - base * alpha ** (-4)) <= 1e-6 * (1 + abs(v))

    def test_soundness_sampling(self):
        rng = random.Random(101)
        npr = np.random.default_rng(7)
        for _ in range(5):
            f = random_family_instance(
                FamilyParams(2, 2, 10, seed=rng.getrandbits(30)))
            res = sos_lower_bound(f)
            pts = npr.uniform(-4, 4, size=(10_000, 2))
            sampled_min = float(np.min(f.to_float().evaluate_many(pts)))
            assert sampled_min >= res.value - 1e-4 * (1 + abs(res.value))

    def test_sandwich_against_oracle(self):
        rng = random.Random(303)
        for _ in range(5):
            f = random_family_instance(
                FamilyParams(2, 2, 25, seed=rng.getrandbits(30)))
            bound = sos_lower_bound(f).value
            fstar = minimize_by_eigenvalues(f).fstar
            assert fstar >= bound - 1e-6 * (1 + abs(fstar))


class TestExtractCertificate:
    def test_single_square(self):
        vec = MonomialVector.build(1, 1)
        A = np.array([[1.0, 1.0], [1.0, 1.0]])  # Gram of (x + 1)^2
        cert = extract_certificate(A, 0.0, vec)
        assert cert.ok
        assert len(cert.squares) == 1

    def test_two_square_example(self):
        # a PSD quartic with a short decomposition; verify by re-expansion
        f = parse("2*x1^4+2*x1^3*x2-x1^2*x2^2+5*x2^4", 2)
        res = sos_lower_bound(f)
        assert abs(res.value) <= 1e-6
        assert res.certificate.residual <= 1e-6

    def test_symmetric_quartic_residual(self, symmetric_quartic):
        res = sos_lower_bound(symmetric_quartic)
        cert = res.certificate
        # squares re-expand to f - bound coefficient-wise
        resum = Polynomial.zero(3)
        for b in cert.squares:
            resum = resum + b * b
        target = symmetric_quartic.to_float() - res.value
        assert (resum - target).max_abs_coefficient() <= 1e-4

    def test_indefinite_input_flagged(self):
        vec = MonomialVector.build(1, 1)
        A = np.diag([1.0, -1.0])
        cert = extract_certificate(A, 0.0, vec)
        assert not cert.ok and cert.squares == []


    @pytest.mark.parametrize("n, d, seed", [(2, 2, 4100001), (3, 2, 4100002),
                                            (2, 3, 4100003)])
    def test_residual_matches_reexpansion(self, n, d, seed):
        f = random_family_instance(FamilyParams(n, d, 100, seed=seed))
        res = sos_lower_bound(f)
        cert = res.certificate
        assert cert.squares
        shifted = cert.gram.copy()
        shifted[0, 0] -= cert.lam
        resum = Polynomial.zero(n)
        for b in cert.squares:
            resum = resum + b * b
        reexpanded = (resum - expand_gram(shifted, res.vector)).max_abs_coefficient()
        assert abs(cert.residual - reexpanded) <= 1e-9 * cert.target_scale


class TestRematchProgram:
    @pytest.mark.parametrize("seed", [4100011, 4100012])
    def test_perturbed_target_equals_fresh_build(self, seed):
        f = random_family_instance(FamilyParams(3, 2, 100, seed=seed)).to_float()
        gs = build_gram_sdp(f)
        target = f + Polynomial.variable(3, 0) * 1e-4 + Polynomial.variable(3, 2) * 3e-4
        again = gs.program.match_coefficients(target, lam=Polynomial.constant(3, 1.0))
        fresh = build_gram_sdp(target).problem
        assert again.blocks == fresh.blocks
        assert again.cost == fresh.cost
        assert again.constraints == fresh.constraints
        assert gs.program.offset == f.constant_coefficient()


class TestExtractMinimizer:
    def test_pure_square_origin(self):
        f = parse("x1^2", 1)
        res = sos_lower_bound(f)
        ext = extract_minimizer(res.moment_matrix, res.vector, f, res.value)
        assert ext.found
        assert abs(ext.point[0]) <= 1e-5

    def test_symmetric_quartic_pipeline(self, symmetric_quartic):
        res = minimize(symmetric_quartic)
        assert res.extraction is not None and res.extraction.found
        assert permutations_match(res.extraction.point, (0.988, -1.102, -1.102), 5e-3)
        assert res.extraction.upper_bound - res.bound <= 1e-5 * (1 + abs(res.bound))

    def test_tolerances_report_extraction_settings(self, symmetric_quartic):
        res = minimize(symmetric_quartic)
        assert res.alpha == 4.0
        assert {k: res.tolerances[k] for k in
                ("rank_tol", "moment_tol", "extract_tol", "alpha")} == {
            "rank_tol": 1e-4, "moment_tol": 1e-4, "extract_tol": 1e-5, "alpha": 4.0}
        assert res.tolerances["feas_tol"] == 1e-8

    def test_gap_instance_detected(self, motzkin):
        f = parse("x1^8+x2^8", 2) + motzkin * 2700
        res = minimize(f)
        assert res.status.value == "optimal"
        ext = res.extraction
        assert (ext is None or not ext.found
                or ext.upper_bound - res.bound > 1e-3)

    def test_two_minimizers_need_perturbation(self):
        # the moment matrix converges to the rank-two mixture over the wells
        # at -1 and 1; the objective perturbation isolates one of them
        f = parse("x1^4-2*x1^2+1", 1)
        res = sos_lower_bound(f)
        direct = extract_minimizer(res.moment_matrix, res.vector, f, res.value)
        assert not direct.found
        full = minimize(f)
        assert full.extraction.found
        assert abs(abs(full.extraction.point[0]) - 1.0) <= 1e-3
        assert full.extraction.upper_bound <= 1e-6

    def test_circle_of_minimizers(self):
        # minimizer set is the whole unit circle; extraction still lands on
        # a valid point of it
        f = parse("x1^4+2*x1^2*x2^2+x2^4-2*x1^2-2*x2^2+1", 2)
        res = minimize(f)
        assert abs(res.bound) <= 1e-6
        assert res.extraction.found
        x, y = res.extraction.point
        assert abs(x * x + y * y - 1.0) <= 1e-3


class TestHigherDegreeBound:
    def test_motzkin_level_one(self, motzkin):
        v = higher_degree_bound(motzkin, 1)
        assert abs(v - (-1.0)) <= 1e-3
        assert v >= -1.0 - 1e-4

    def test_perfect_square_stays_zero(self):
        v = higher_degree_bound(parse("x1^2-2*x1+1", 1), 1)
        assert abs(v) <= 1e-6

    def test_tight_case_matches_plain_bound(self, symmetric_quartic):
        plain = sos_lower_bound(symmetric_quartic).value
        v = higher_degree_bound(symmetric_quartic, 1)
        assert abs(v - plain) <= 1e-5 * (1 + abs(plain))

    def test_never_below_plain_bound(self):
        rng = random.Random(909)
        for _ in range(3):
            f = random_family_instance(
                FamilyParams(2, 1, 6, seed=rng.getrandbits(30)))
            plain = sos_lower_bound(f).value
            v = higher_degree_bound(f, 1)
            assert v >= plain - 1e-6 * (1 + abs(plain))


PAPER_MATRIX_SIZES = {
    # degree -> {n: matrix size}
    2: {3: 4, 5: 6, 7: 8, 9: 10, 11: 12, 13: 14, 15: 16},
    4: {3: 10, 5: 21, 7: 36, 9: 55, 11: 78, 13: 105, 15: 136},
    6: {3: 20, 5: 56, 7: 120, 9: 220, 11: 364, 13: 560, 15: 816},
    8: {3: 35, 5: 126, 7: 330, 9: 715, 11: 1365, 13: 2380, 15: 3876},
    10: {3: 56, 5: 252, 7: 792, 9: 2002, 11: 4368, 13: 8568, 15: 15504},
    12: {3: 84, 5: 462, 7: 1716, 9: 5005, 11: 12376, 13: 27132, 15: 54264},
}

PAPER_CRITICAL_COUNTS = {
    2: {3: 1, 5: 1, 7: 1, 9: 1, 11: 1, 13: 1, 15: 1},
    4: {3: 27, 5: 243, 7: 2187, 9: 19683, 11: 177147, 13: 1594323},
    6: {3: 125, 5: 3125, 7: 78125, 9: 1953125, 11: 48828125},
    8: {3: 343, 5: 16807, 7: 823543, 9: 40353607, 11: 1977326743},
    10: {3: 729, 5: 59049, 7: 4782969, 9: 387420489},
    12: {3: 1331, 5: 161051, 7: 19487171},
}


class TestSizeTables:
    def test_every_printed_matrix_size(self):
        st = size_tables(15, 12)
        for two_d, row in PAPER_MATRIX_SIZES.items():
            for n, N in row.items():
                assert st.matrix_size(n, two_d) == N

    def test_every_printed_critical_count(self):
        st = size_tables(15, 12)
        for two_d, row in PAPER_CRITICAL_COUNTS.items():
            for n, mu in row.items():
                assert st.bezout_number(n, two_d) == mu

    def test_quadratics_are_trivial(self):
        st = size_tables(10, 2)
        assert all(st.bezout_number(n, 2) == 1 for n in range(1, 11))

    def test_format_text(self):
        text = size_tables(3, 4).format_text()
        assert "136" not in text  # small table stays small
        assert text.splitlines()[0].startswith("degree")


class TestEdgeCases:
    def test_constant_polynomial(self):
        res = minimize(Polynomial.constant(2, 7))
        assert res.bound == pytest.approx(7.0, abs=1e-8)
        assert res.extraction.found

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            build_gram_sdp(Polynomial.zero(2))


class TestBoundAtExtractedPoint:
    # the (3,10) cell of the benchmark's sos-paper mix at seed_base 504, 509
    # and 31 (plan cell 4, instance 0), where the bound once exceeded f at
    # its own extracted minimizer by about 1e-5 relative; 4000017 and 4000021
    # (seed_base 5 and 9) break down at the coefficient scale after meeting
    # the relaxed tolerances, and once raised numerical_trouble
    @pytest.mark.parametrize("seed", [4000516, 4000521, 4000043, 4000017, 4000021])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as conftest intends
    def test_bound_not_above_f_at_minimizer(self, seed):
        f = random_family_instance(FamilyParams(3, 5, 100, seed=seed))
        res = minimize(f)
        assert res.status is SdpStatus.OPTIMAL
        assert res.extraction is not None and res.extraction.found
        f_at_point = f.to_fraction().evaluate([Fraction(x) for x in res.extraction.point])
        tol = Fraction(1e-5 * (1.0 + abs(res.bound)))
        assert Fraction(res.bound) <= f_at_point + tol

    def test_first_instance_solves_cleanly(self):
        # 4000516 solves in about 20 clean iterations; it breaks down when the
        # Schur solves lose substitution accuracy (through an explicit
        # inverse of the Cholesky factor, for one)
        f = random_family_instance(FamilyParams(3, 5, 100, seed=4000516))
        res = sos_lower_bound(f)
        assert res.status is SdpStatus.OPTIMAL
        assert res.solution.warnings == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as conftest intends
    def test_breakdown_is_resolved_at_the_bounds_scale(self):
        # 4000017 breaks down at the coefficient scale, where its bound is
        # about 2e5 times that scale; the re-solve at the bound's own scale
        # ends clean
        f = random_family_instance(FamilyParams(3, 5, 100, seed=4000017))
        res = sos_lower_bound(f)
        assert res.status is SdpStatus.OPTIMAL
        assert res.solution.warnings == []
        assert res.alpha > suggested_scaling(f)


# The robustness gate: K = 100 family instances on which sos_lower_bound must
# end OPTIMAL with no "reduced accuracy" warning.  Posed at the coefficient
# scale, about a third of the (3,10) instances below break down in the
# solver's last iterations (the Schur complement loses definiteness); their
# scaled bounds are 1e3-2e5 times that scale, and which of them break down
# moves with the BLAS kernel's rounding.  sos_lower_bound re-solves a
# breakdown at the bound's own scale, where every case here ends clean.
_GATE_CASES = [(cell, seed) for cell in [(3, 8), (4, 6), (3, 10), (6, 4)]
               for seed in (20240001, 20240002, 20240003)] \
    + [((3, 10), seed) for seed in range(4000000, 4000023)]


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as conftest intends
@pytest.mark.parametrize("cell, seed", [
    pytest.param(cell, seed, id=f"{cell[0]}-{cell[1]}-{seed}")
    for cell, seed in _GATE_CASES])
def test_gate_optimal_at_full_accuracy(cell, seed):
    n, two_d = cell
    res = sos_lower_bound(random_family_instance(FamilyParams(n, two_d // 2, 100, seed=seed)))
    assert res.status is SdpStatus.OPTIMAL
    assert not any("reduced accuracy" in w for w in res.solution.warnings)


def _posed_blocks(monkeypatch, module) -> list:
    """Block lists of the SDPs later posed through ``module.solve``; each is
    answered as infeasible, so nothing is solved."""
    seen = []

    def capture(problem):
        seen.append(problem.blocks)
        return SdpSolution(SdpStatus.PRIMAL_INFEASIBLE, None, None, None,
                           None, None, None, 0)

    monkeypatch.setattr(module, "solve", capture)
    return seen


class TestProgramSizes:
    # image form: one row per monomial of degree <= 2d except the constant,
    # which carries lambda; one PSD block of side C(n+d, d)
    @pytest.mark.parametrize("n,two_d,rows,side", [
        (3, 8, 164, 35), (3, 10, 285, 56), (3, 12, 454, 84),
        (4, 8, 494, 70), (10, 4, 1000, 66)])
    def test_plain_sos_program(self, n, two_d, rows, side):
        f = random_family_instance(FamilyParams(n, two_d // 2, 100, seed=7))
        problem = build_gram_sdp(f).problem
        assert problem.num_constraints == rows == math.comb(n + two_d, two_d) - 1
        assert problem.blocks == [side]

    def test_handelman_program_is_one_lp_block(self, monkeypatch):
        seen = _posed_blocks(monkeypatch, polymin.sdp)
        box = PolytopeDescription(2, [parse("x1", 2), parse("1-x1", 2),
                                      parse("x2", 2), parse("1-x2", 2)])
        for D in (2, 5):
            with pytest.raises(HandelmanInfeasibleError):
                handelman_bound(parse("x1*x2", 2), box, D, check_bounded=False)
        assert seen == [[-math.comb(4 + D, D)] for D in (2, 5)]

    def test_witness_program_blocks(self, monkeypatch):
        seen = _posed_blocks(monkeypatch, polymin.psatz)
        sys_ = SemialgebraicSystem(2, inequalities=[parse("x1-x2^2+3", 2),
                                                    parse("1-x1^2", 2)],
                                   equalities=[parse("x2+x1^2+2", 2)])
        assert isinstance(find_witness(sys_, 4), NotFoundAtDegree)
        psd = [s for s in seen[0] if s > 0]
        assert len(psd) == 1 + len(sys_.inequalities)
        assert seen[0][len(psd):] == [-2 * 6]  # u - v pairs of t(x) of degree 2
