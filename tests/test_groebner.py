import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polymin import groebner
from polymin.groebner import (
    GRAD_TOL,
    GroebnerBasis,
    InfiniteQuotientError,
    MultiplicationMatrix,
    NotGroebnerError,
    characteristic_polynomial,
    critical_ideal_generators,
    is_groebner,
    minimize_by_eigenvalues,
    multiplication_matrix,
    normal_form,
    poly1d_divmod,
    poly1d_gcd,
    real_roots_exact_poly,
    squarefree_part,
    standard_monomials,
    write_matrix_market,
)
from polymin.poly import FamilyParams, Polynomial, parse, random_family_instance
from polymin.sos import minimize

from conftest import SYMMETRIC_QUARTIC, permutations_match


@pytest.fixture(scope="module")
def quartic_setup():
    f = parse(SYMMETRIC_QUARTIC, 3)
    G = GroebnerBasis.from_generators(critical_ideal_generators(f))
    B = standard_monomials(G)
    return f, G, B


class TestCriticalIdeal:
    def test_symmetric_quartic_scaled_partials(self, symmetric_quartic):
        gens = critical_ideal_generators(symmetric_quartic)
        assert gens == [
            parse("x1^3-x2*x3+1/4", 3),
            parse("x2^3-x1*x3+1/4", 3),
            parse("x3^3-x1*x2+1/4", 3),
        ]

    def test_pure_square(self):
        assert critical_ideal_generators(parse("x1^2", 1)) == [parse("x1", 1)]

    def test_family_shape_leading_terms(self):
        f = random_family_instance(FamilyParams(2, 2, 30, seed=5))
        gens = critical_ideal_generators(f)
        assert [g.leading_monomial() for g in gens] == [(3, 0), (0, 3)]
        assert all(g.leading_coefficient() == 1 for g in gens)

    def test_non_family_raw_partials(self):
        f = parse("x1^2*x2^2+x1", 2)  # top terms are not pure powers
        gens = critical_ideal_generators(f)
        assert gens == [f.differentiate(0), f.differentiate(1)]


class TestIsGroebner:
    def test_symmetric_quartic(self, symmetric_quartic):
        assert is_groebner(critical_ideal_generators(symmetric_quartic))

    def test_single_generator(self):
        assert is_groebner([parse("x1", 1)])

    def test_hand_buchberger_counterexample(self):
        # S-pair of {x + y, x} leaves y, which neither leading term divides;
        # after completion {x, y} passes.
        assert not is_groebner([parse("x1+x2", 2), parse("x1", 2)])
        assert is_groebner([parse("x1", 2), parse("x2", 2)])

    def test_rejects_float_coefficients(self):
        with pytest.raises(ValueError):
            is_groebner([parse("x1", 1).to_float()])


class TestStandardMonomials:
    def test_symmetric_quartic_box(self, quartic_setup):
        _, _, B = quartic_setup
        assert B.mu == 27
        assert set(B.monomials) == {
            (i, j, k) for i in range(3) for j in range(3) for k in range(3)
        }
        assert B.monomials[0] == (0, 0, 0)

    def test_single_variable(self):
        G = GroebnerBasis.from_generators([parse("x1", 1)])
        B = standard_monomials(G)
        assert B.monomials == [(0,)]

    def test_family_bezout_count(self):
        f = random_family_instance(FamilyParams(2, 2, 100, seed=9))
        G = GroebnerBasis.from_generators(critical_ideal_generators(f))
        assert standard_monomials(G).mu == 9  # (2d-1)^n with d=n=2

    def test_bezout_law_random_family(self):
        rng = random.Random(13)
        for _ in range(8):
            n = rng.randint(1, 3)
            d = rng.randint(1, 2)
            f = random_family_instance(FamilyParams(n, d, 20, seed=rng.getrandbits(30)))
            G = GroebnerBasis.from_generators(critical_ideal_generators(f))
            assert standard_monomials(G).mu == (2 * d - 1) ** n

    def test_infinite_quotient_detected(self):
        G = GroebnerBasis.from_generators([parse("x1*x2", 2)])
        with pytest.raises(InfiniteQuotientError):
            standard_monomials(G)


class TestNormalForm:
    def test_quartic_product_reduction(self, quartic_setup):
        f, G, _ = quartic_setup
        xyz = Polynomial.from_monomial(3, (1, 1, 1))
        nf = normal_form(xyz * f, G)
        expected = parse(
            "3/4*x1^2*x2*x3+3/4*x1*x2^2*x3+3/4*x1*x2*x3^2-x1^2*x2^2*x3^2", 3
        )
        assert nf == expected

    def test_generators_reduce_to_zero(self, quartic_setup):
        _, G, _ = quartic_setup
        for g in G.generators:
            assert normal_form(g, G).is_zero()

    def test_single_reduction_step(self, quartic_setup):
        _, G, _ = quartic_setup
        nf = normal_form(parse("x1^3", 3), G)
        assert nf == parse("x2*x3-1/4", 3)

    def test_remainder_supported_on_standard_monomials(self, quartic_setup):
        _, G, B = quartic_setup
        rng = random.Random(3)
        for _ in range(10):
            p = Polynomial(3, {
                tuple(rng.randint(0, 4) for _ in range(3)): Fraction(rng.randint(-9, 9))
                for _ in range(6)
            })
            nf = normal_form(p, G)
            assert set(nf.terms) <= set(B.monomials)


class TestMultiplicationMatrix:
    def test_nonzero_count(self, quartic_setup):
        f, G, B = quartic_setup
        Tf = multiplication_matrix(f, G, B)
        assert Tf.mu == 27
        assert Tf.nnz == 178

    def test_identity_for_constant_one(self, quartic_setup):
        _, G, B = quartic_setup
        T1 = multiplication_matrix(Polynomial.constant(3, Fraction(1)), G, B)
        assert T1.entries == {(i, i): Fraction(1) for i in range(27)}

    def test_commuting_family_exact(self, quartic_setup):
        _, G, B = quartic_setup
        Tx = multiplication_matrix(Polynomial.variable(3, 0), G, B)
        Ty = multiplication_matrix(Polynomial.variable(3, 1), G, B)
        Txy = multiplication_matrix(parse("x1*x2", 3), G, B)
        assert Tx.matmul(Ty).entries == Txy.entries
        assert Ty.matmul(Tx).entries == Txy.entries

    def test_objective_matrix_from_commuting_family(self, quartic_setup):
        # exact polynomial identity: the objective's matrix equals the
        # polynomial evaluated on the commuting coordinate matrices
        f, G, B = quartic_setup
        Txs = [multiplication_matrix(Polynomial.variable(3, i), G, B)
               for i in range(3)]
        eye = MultiplicationMatrix(
            Polynomial.constant(3, Fraction(1)), B,
            {(i, i): Fraction(1) for i in range(B.mu)},
        )
        acc = MultiplicationMatrix(Polynomial.zero(3), B, {})
        for mono, c in f.terms.items():
            term = eye
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = term.matmul(Txs[i])
            acc = acc.add(term.scale(c))
        Tf = multiplication_matrix(f, G, B)
        assert acc.entries == Tf.entries

    def test_matrix_market_export(self, quartic_setup, tmp_path):
        f, G, B = quartic_setup
        Tf = multiplication_matrix(f, G, B)
        path = tmp_path / "tf.mtx"
        write_matrix_market(Tf, str(path), comment="objective matrix")
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        header = lines[2].split()
        assert header == ["27", "27", "178"]
        assert len(lines) == 3 + 178


def _reference_entries(g, G, B):
    """The per-row construction: row u is normal_form(x^u * g)."""
    entries = {}
    for row, u in enumerate(B.monomials):
        nf = normal_form(Polynomial.from_monomial(g.n, u) * g, G)
        for m, c in nf.terms.items():
            entries[(row, B.index[m])] = c
    return entries


def _assert_matches_reference(G, B, gs):
    for g in gs:
        T = multiplication_matrix(g, G, B)
        assert T.entries == _reference_entries(g, G, B)
        assert all(type(c) is Fraction for c in T.entries.values())


def _float_image(T):
    D = np.zeros((T.mu, T.mu))
    for (i, j), c in T.entries.items():
        D[i, j] = float(c)
    return D


def _assert_oracle_floats_match(G, B, gs):
    """The oracle's float T_f (read off the int rows) and T_xj (read off the
    border table) are the float images of the exact matrices."""
    f, variables = gs[0], gs[1:]
    table = groebner._BorderTable(G, B)
    Tf = multiplication_matrix(f, G, B)
    got, nnz = groebner._float_matrix(groebner._int_rows(f, G, B, table), B.mu)
    assert np.array_equal(got, _float_image(Tf)) and nnz == Tf.nnz
    for j, x in enumerate(variables):
        got, _ = groebner._float_matrix(table.variable_rows(j), B.mu)
        assert np.array_equal(got, _float_image(multiplication_matrix(x, G, B)))


def _family(n, two_d, seed):
    return random_family_instance(FamilyParams(n, two_d // 2, 100, seed=seed))


def _objective_and_variables(f):
    G = GroebnerBasis.from_generators(critical_ideal_generators(f))
    gs = [f] + [Polynomial.variable(f.n, i) for i in range(f.n)]
    return G, standard_monomials(G), gs


class TestBorderTableMatchesNormalForms:
    """T_f and every T_xi equal the per-row normal-form construction, and the
    oracle's float matrices equal their float images."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("cell", [(2, 4), (3, 4), (2, 6), (2, 8), (4, 4)], ids=str)
    def test_family_cells(self, cell, seed):
        G, B, gs = _objective_and_variables(_family(*cell, seed))
        _assert_matches_reference(G, B, gs)
        _assert_oracle_floats_match(G, B, gs)

    @pytest.mark.parametrize("text", ["x1^2+1", "x1^4-2*x1^2"])
    def test_short_generators(self, text):
        # x1^2+1 gives the generator x1, whose tail is empty: NF(x1) = 0
        _assert_matches_reference(*_objective_and_variables(parse(text, 1)))

    def test_raw_partials(self):
        # the top-degree part is not monic, so the partials are not rescaled
        f = parse("2*x1^4+3*x2^4-x1*x2^2+x1^2-5*x2", 2)
        gens = critical_ideal_generators(f)
        assert gens == [f.differentiate(0), f.differentiate(1)]
        assert is_groebner(gens)
        G, B, gs = _objective_and_variables(f)
        _assert_matches_reference(G, B, gs + [parse("x1*x2-x2^2", 2)])

    def test_tail_outside_the_standard_monomials(self):
        # x1^2 in the tail of the second generator reduces by the first
        gens = [parse("x1^2+x2", 2), parse("x2^3+x1^2-x1", 2)]
        assert is_groebner(gens)
        G = GroebnerBasis.from_generators(gens)
        B = standard_monomials(G)
        assert B.mu == 6
        gs = [parse(t, 2) for t in ("x1", "x2", "x1^3-2*x1*x2+1/3", "x2^4")]
        _assert_matches_reference(G, B, gs)

    def test_commuting_family_at_mu_49(self):
        G, B, _ = _objective_and_variables(_family(2, 8, 1))
        assert B.mu == 49
        Tx = multiplication_matrix(Polynomial.variable(2, 0), G, B)
        Ty = multiplication_matrix(Polynomial.variable(2, 1), G, B)
        Txy = multiplication_matrix(parse("x1*x2", 2), G, B)
        assert Tx.matmul(Ty).entries == Txy.entries
        assert Ty.matmul(Tx).entries == Txy.entries


class TestMinimizeByEigenvalues:
    def test_symmetric_quartic(self, symmetric_quartic):
        res = minimize_by_eigenvalues(symmetric_quartic)
        assert res.mu == 27
        assert abs(res.fstar - (-2.112913879)) <= 1e-6
        assert len(res.points) == 3
        for p in res.points:
            assert permutations_match(p, (0.988, -1.102, -1.102), 5e-3)

    def test_shifted_square(self):
        res = minimize_by_eigenvalues(parse("x1^2+1", 1))
        assert res.fstar == pytest.approx(1.0, abs=1e-10)
        assert res.points == [(0.0,)]

    def test_double_well(self):
        res = minimize_by_eigenvalues(parse("x1^4-2*x1^2", 1))
        assert res.fstar == pytest.approx(-1.0, abs=1e-9)
        assert len(res.points) == 2
        assert permutations_match(res.points[0], (-1.0,), 1e-6)
        assert permutations_match(res.points[1], (1.0,), 1e-6)

    def test_refuses_non_groebner(self):
        # partials 2*x*y^2 + 3*x^2 and 2*x^2*y + 3*y^2 leave an unreduced
        # S-polynomial, so the oracle must refuse instead of completing
        f = parse("x1^2*x2^2+x1^3+x2^3", 2)
        assert not is_groebner(critical_ideal_generators(f))
        with pytest.raises(NotGroebnerError):
            minimize_by_eigenvalues(f)

    def test_paper_scale_cell_3_6(self):
        f = _family(3, 6, 1)
        res = minimize_by_eigenvalues(f)
        assert res.mu == 125 and res.points
        bound = minimize(f).bound
        assert abs(res.fstar - bound) <= 1e-5 * (1 + abs(res.fstar))
        # |f*| is about 5e12 here, so the gradient is measured against the
        # size of its terms at the point
        for p in res.points:
            for i in range(f.n):
                g = f.differentiate(i).to_float()
                size = sum(abs(c) * math.prod(abs(x) ** e for x, e in zip(p, m))
                           for m, c in g.terms.items())
                assert abs(g.evaluate(p)) <= GRAD_TOL * (1 + size)

    # At (3,10) the quotient basis reaches degree 24, so at a minimizer of
    # norm 3-4 (after scaling) the eigenvector's constant coordinate is
    # 1e-12-1e-11 of its largest; the minimizer is kept all the same
    @pytest.mark.slow
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as conftest intends
    @pytest.mark.parametrize("seed", [4000001, 4000003, 4000017])
    def test_minimizer_far_from_origin_is_kept(self, seed):
        f = random_family_instance(FamilyParams(3, 5, 100, seed=seed))
        res = minimize_by_eigenvalues(f)
        point = minimize(f).extraction.point
        f_sos = float(f.to_fraction().evaluate([Fraction(x) for x in point]))
        assert abs(res.fstar - f_sos) <= 1e-9 * abs(f_sos)

    def test_smallest_eigenvalue_matches_point_values(self):
        rng = random.Random(55)
        for _ in range(6):
            f = random_family_instance(
                FamilyParams(2, 2, 40, seed=rng.getrandbits(30)))
            res = minimize_by_eigenvalues(f)
            fl = f.to_float()
            best = min(fl.evaluate(p) for p in res.points)
            assert abs(best - res.fstar) <= 1e-7 * (1 + abs(res.fstar))


class TestCharacteristicPolynomial:
    def test_identity_matrix(self, quartic_setup):
        _, _, B = quartic_setup
        T1 = MultiplicationMatrix(
            Polynomial.constant(3, Fraction(1)), B,
            {(i, i): Fraction(1) for i in range(27)},
        )
        coeffs = characteristic_polynomial(T1)
        # (t - 1)^27 exactly
        import math
        expected = [Fraction((-1) ** (27 - k) * math.comb(27, k))
                    for k in range(28)]
        assert coeffs == expected

    def test_2x2_derived(self):
        # multiplication by x on the quotient modulo x^2 - 2, basis {1, x}
        G = GroebnerBasis.from_generators([parse("x1^2-2", 1)])
        B = standard_monomials(G)
        T = multiplication_matrix(parse("x1", 1), G, B)
        assert characteristic_polynomial(T) == [Fraction(-2), Fraction(0), Fraction(1)]

    def test_eigenvalue_residual_invariant(self, quartic_setup):
        f, G, B = quartic_setup
        Tf = multiplication_matrix(f, G, B)
        coeffs = characteristic_polynomial(Tf)
        scale = max(abs(float(c)) for c in coeffs)
        res = minimize_by_eigenvalues(f)
        for lam in res.eigen.real_values:
            value = sum(float(c) * lam**k for k, c in enumerate(coeffs))
            assert abs(value) <= 1e-4 * scale


class TestUnivariateHelpers:
    def test_divmod(self):
        num = [Fraction(c) for c in (-2, 0, 1)]     # t^2 - 2
        den = [Fraction(c) for c in (1, 1)]          # t + 1
        q, r = poly1d_divmod(num, den)
        assert q == [Fraction(-1), Fraction(1)]
        assert r == [Fraction(-1)]

    def test_gcd_and_squarefree(self):
        # (t - 1)^2 (t + 2): gcd with derivative is (t - 1)
        p = [Fraction(c) for c in (2, -3, 0, 1)]
        g = poly1d_gcd(p, [Fraction(-3), Fraction(0), Fraction(3)])
        assert g == [Fraction(-1), Fraction(1)]
        sf = squarefree_part(p)
        roots = real_roots_exact_poly(sf)
        assert roots == pytest.approx([-2.0, 1.0], abs=1e-9)

    def test_real_roots_filter_complex(self):
        # t^2 + 1 has no real roots
        assert real_roots_exact_poly([Fraction(1), Fraction(0), Fraction(1)]) == []
