import random
from fractions import Fraction

import numpy as np
import pytest

from polymin.poly import (
    FamilyParams,
    PolyParseError,
    Polynomial,
    lower_degree_monomial_count,
    monomials_up_to_degree,
    parse,
    random_family_instance,
    scale_homogeneous,
    suggested_scaling,
    sum_of_squared_residuals,
)

from conftest import MOTZKIN, SYMMETRIC_QUARTIC


def random_rational_poly(rng, n, max_deg, terms):
    out = {}
    monos = monomials_up_to_degree(n, max_deg)
    for _ in range(terms):
        m = rng.choice(monos)
        out[m] = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    return Polynomial(n, out)


class TestParse:
    def test_symmetric_quartic(self):
        f = parse(SYMMETRIC_QUARTIC, 3)
        assert f.terms == {
            (4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1), (0, 0, 4): Fraction(1),
            (1, 1, 1): Fraction(-4),
            (1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1), (0, 0, 1): Fraction(1),
        }

    def test_zero(self):
        assert parse("0", 2).terms == {}

    def test_motzkin(self):
        m = parse(MOTZKIN, 2)
        assert m.terms == {(4, 2): Fraction(1), (2, 4): Fraction(1),
                           (2, 2): Fraction(-3)}

    def test_rationals_and_decimals(self):
        p = parse("3/4*x1^2-0.5*x1+2", 1)
        assert p.terms == {(2,): Fraction(3, 4), (1,): Fraction(-1, 2),
                           (0,): Fraction(2)}

    def test_syntax_error_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse("x1^2 + * 3", 1)
        assert exc.value.position == 7

    def test_variable_out_of_range(self):
        with pytest.raises(PolyParseError):
            parse("x3+1", 2)

    def test_roundtrip_random(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(1, 4)
            p = random_rational_poly(rng, n, 5, rng.randint(0, 8))
            assert parse(p.to_string(), n) == p

    def test_float_to_string_parses_back(self):
        # repr prints small and large floats with an exponent
        p = Polynomial(2, {(1, 0): 4.6929309480496705e-06, (0, 2): -1.2e16, (0, 0): 0.5})
        assert "e-06" in p.to_string() and parse(p.to_string(), 2).to_float() == p
        for text in ["x1^2e1", "3/1e2", "3²*x1"]:
            with pytest.raises(PolyParseError):
                parse(text, 1)

    def test_infer_variable_count(self):
        assert parse("x2^2+x5").n == 5


class TestArithmetic:
    def test_ring_axioms_random(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 3)
            p = random_rational_poly(rng, n, 4, 5)
            q = random_rational_poly(rng, n, 4, 5)
            r = random_rational_poly(rng, n, 4, 5)
            assert ((p + q) + r).terms == (p + (q + r)).terms
            assert (p * (q + r)).terms == (p * q + p * r).terms
            assert (p * q).terms == (q * p).terms

    def test_differentiate_commutes(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_rational_poly(rng, 3, 5, 6)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert (p.differentiate(i).differentiate(j)
                            == p.differentiate(j).differentiate(i))

    def test_power(self):
        p = parse("x1+1", 1)
        assert p**3 == parse("x1^3+3*x1^2+3*x1+1", 1)


class TestDifferentiate:
    def test_symmetric_quartic_partial(self):
        f = parse(SYMMETRIC_QUARTIC, 3)
        df = f.differentiate(0)
        assert df == parse("4*x1^3-4*x2*x3+1", 3)
        # scaled by 1/4 it is the first critical-ideal generator
        assert df * Fraction(1, 4) == parse("x1^3-x2*x3+1/4", 3)

    def test_constant(self):
        assert Polynomial.constant(2, 5).differentiate(0).is_zero()

    def test_motzkin_partial_vs_term_oracle(self):
        m = parse(MOTZKIN, 2)

        def oracle(p, i):  # independent power-rule implementation
            terms = {}
            for mono, c in p.terms.items():
                if mono[i] == 0:
                    continue
                new = list(mono)
                new[i] -= 1
                terms[tuple(new)] = c * mono[i]
            return Polynomial(p.n, terms)

        assert m.differentiate(1) == oracle(m, 1)
        assert m.differentiate(1) == parse("2*x1^4*x2+4*x1^2*x2^3-6*x1^2*x2", 2)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            parse("x1", 1).differentiate(1)


class TestEvaluate:
    def test_reported_point(self):
        f = parse(SYMMETRIC_QUARTIC, 3)
        v = float(f.evaluate((0.988, -1.102, -1.102)))
        assert abs(v - (-2.1129)) <= 5e-4

    def test_origin_gives_constant(self):
        p = parse("x1^2*x2+7", 2)
        assert p.evaluate((0, 0)) == 7

    def test_motzkin_at_ones(self):
        assert parse(MOTZKIN, 2).evaluate((1, 1)) == -1

    def test_exact_rational(self):
        p = parse("x1^2+1/3", 1)
        assert p.evaluate((Fraction(1, 2),)) == Fraction(7, 12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse("x1", 1).evaluate((1, 2))

    def test_evaluate_many(self):
        p = parse("x1^2+x2", 2)
        pts = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, -1.0]])
        assert np.allclose(p.evaluate_many(pts), [3.0, 0.0, 3.0])


class TestScaleHomogeneous:
    def test_homogeneous_fixed_point(self):
        p = parse("x1^2", 1)
        assert scale_homogeneous(p, 2) == p

    def test_quartic_plus_linear(self):
        p = parse("x1^4+x1", 1)
        assert scale_homogeneous(p, 2) == parse("x1^4+1/8*x1", 1)

    def test_identity_at_one(self):
        p = parse("x1^4+3*x1^2+x1", 1)
        assert scale_homogeneous(p, 1) is p

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_homogeneous(parse("x1^2", 1), 0)

    def test_evaluation_identity_random(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 3)
            p = random_rational_poly(rng, n, 4, 6).to_float()
            two_d = 4
            alpha = rng.uniform(0.1, 10.0)
            x = [rng.uniform(-2, 2) for _ in range(n)]
            fs = scale_homogeneous(p, alpha, two_d)
            lhs = fs.evaluate(x)
            rhs = alpha ** (-two_d) * p.evaluate([alpha * xi for xi in x])
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_minimizer_map(self):
        # p* maps to p*/alpha and the minimum scales by alpha^(-2d)
        p = parse("x1^2-2*x1+1", 1).to_float()  # minimum 0 at 1
        fs = scale_homogeneous(p, 2.0, 2)
        assert abs(fs.evaluate([0.5])) <= 1e-15


class TestRandomFamily:
    def test_pure_square_when_k_zero(self):
        f = random_family_instance(FamilyParams(1, 1, 0, seed=5))
        assert f == parse("x1^2", 1)

    def test_coefficient_count_formula(self):
        assert lower_degree_monomial_count(2, 4) == 10
        assert len(monomials_up_to_degree(2, 3)) == 10

    def test_determinism(self):
        a = random_family_instance(FamilyParams(3, 2, 100, seed=987))
        b = random_family_instance(FamilyParams(3, 2, 100, seed=987))
        assert a == b
        c = random_family_instance(FamilyParams(3, 2, 100, seed=988))
        assert a != c

    def test_shape(self):
        f = random_family_instance(FamilyParams(2, 2, 50, seed=3))
        assert f.coefficient((4, 0)) == 1
        assert f.coefficient((0, 4)) == 1
        assert all(abs(c) <= 50 for m, c in f.terms.items() if sum(m) < 4)
        assert f.degree() == 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FamilyParams(0, 1, 1)


class TestSumOfSquaredResiduals:
    def test_single(self):
        assert sum_of_squared_residuals([parse("x1-1", 1)]) == parse("x1^2-2*x1+1", 1)

    def test_two(self):
        got = sum_of_squared_residuals([parse("x1+x2", 2), parse("x1-x2", 2)])
        assert got == parse("2*x1^2+2*x2^2", 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sum_of_squared_residuals([])

    def test_nonnegative_sampling(self):
        rng = random.Random(21)
        gs = [random_rational_poly(rng, 2, 3, 4).to_float() for _ in range(3)]
        f = sum_of_squared_residuals(gs)
        pts = np.random.default_rng(0).uniform(-3, 3, size=(200, 2))
        assert np.all(f.evaluate_many(pts) >= -1e-9)


class TestJson:
    def test_roundtrip(self):
        f = parse(SYMMETRIC_QUARTIC, 3)
        assert Polynomial.from_json(f.to_json()) == f

    def test_rational_strings(self):
        p = parse("3/4*x1", 1)
        d = p.to_json_dict()
        assert d["terms"][0]["coef"] == "3/4"


class TestSuggestedScaling:
    def test_unit_for_small(self):
        assert suggested_scaling(parse("x1^2+x1", 1)) == 1.0

    def test_caps_coefficients(self):
        f = parse("x1^4-32*x1^3+80*x1", 1)
        alpha = suggested_scaling(f)
        fs = scale_homogeneous(f.to_float(), alpha, 4)
        assert fs.max_abs_coefficient() <= 1.0 + 1e-12
