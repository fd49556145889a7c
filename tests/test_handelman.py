import math

import numpy as np
import pytest

import polymin.handelman
from polymin.handelman import (
    COLUMN_CAP,
    HandelmanColumnCapError,
    PolytopeDescription,
    UnboundedPolytopeError,
    _product_table,
    handelman_bound,
    handelman_ladder,
)
from polymin.poly import parse
from polymin.sdp import LpSolution, SdpFailure, SdpStatus


@pytest.fixture
def unit_box():
    return PolytopeDescription(2, [parse("x1", 2), parse("1-x1", 2),
                                   parse("x2", 2), parse("1-x2", 2)])


@pytest.fixture
def unit_interval():
    return PolytopeDescription(1, [parse("x1", 1), parse("1-x1", 1)])


class TestHandelmanBound:
    def test_xy_on_unit_box(self, unit_box):
        # the monomial xy is itself the facet product x * y: the bound is 0
        # and the representation is forced to put weight one on that product
        hb = handelman_bound(parse("x1*x2", 2), unit_box, 2)
        assert abs(hb.value) <= 1e-8
        assert hb.coefficients[(1, 0, 1, 0)] == pytest.approx(1.0, abs=1e-6)
        others = {a: c for a, c in hb.coefficients.items() if a != (1, 0, 1, 0)}
        assert all(abs(c) <= 1e-6 for c in others.values())
        assert hb.residual <= 1e-6

    def test_constant(self, unit_box):
        hb = handelman_bound(parse("7", 2), unit_box, 2)
        assert hb.value == pytest.approx(7.0, abs=1e-6)

    def test_identity_representation(self, unit_interval):
        hb = handelman_bound(parse("x1", 1), unit_interval, 1)
        assert abs(hb.value) <= 1e-8
        assert hb.coefficients[(1, 0)] == pytest.approx(1.0, abs=1e-6)

    def test_degree_below_f_rejected(self, unit_interval):
        with pytest.raises(ValueError):
            handelman_bound(parse("x1^2", 1), unit_interval, 1)

    def test_column_cap(self, unit_box):
        # C(49, 4) = 211876 columns at D = 45: refused before any product
        # is built
        assert math.comb(4 + 45, 45) > COLUMN_CAP
        with pytest.raises(HandelmanColumnCapError):
            handelman_bound(parse("x1*x2", 2), unit_box, 45)

    def test_validity_sampling(self, unit_box):
        from polymin.poly import Polynomial
        rng = np.random.default_rng(12)
        monos = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
        for seed in range(4):
            coeffs = rng.integers(-5, 6, size=6)
            f = Polynomial(2, dict(zip(monos, (int(c) for c in coeffs))))
            if f.is_zero():
                continue
            hb = handelman_bound(f, unit_box, 3)
            pts = rng.uniform(0, 1, size=(10_000, 2))
            sampled = float(np.min(f.to_float().evaluate_many(pts)))
            assert sampled >= hb.value - 1e-6 * (1 + abs(sampled))

    def test_multiplier_nonnegativity(self, unit_box):
        hb = handelman_bound(parse("x1*x2+x1", 2), unit_box, 3)
        assert all(c >= -1e-10 for c in hb.coefficients.values())


class TestHandelmanLadder:
    def test_shifted_square_ladder(self, unit_interval):
        # (x - 1/2)^2 on [0, 1]: rungs rise from -1/4 toward 0 from below
        f = parse("x1^2-x1+1/4", 1)
        ladder = handelman_ladder(f, unit_interval, 6)
        values = [b.value for b in ladder]
        assert len(values) == 5  # degrees 2..6
        assert values[0] == pytest.approx(-0.25, abs=1e-6)
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-8
        assert all(v <= 1e-8 for v in values)
        assert values[-1] >= -0.05 - 1e-8

    def test_single_rung_equals_bound(self, unit_box):
        # every rung reads a leading block of one table, which is the table
        # of its own degree entry for entry
        f = parse("x1*x2", 2)
        ladder = handelman_ladder(f, unit_box, 5)
        assert [b.D for b in ladder] == [2, 3, 4, 5]
        for rung in ladder:
            alone = handelman_bound(f, unit_box, rung.D)
            assert rung.value == alone.value
            assert rung.coefficients == alone.coefficients
            assert rung.residual == alone.residual
        alphas, big = _product_table(unit_box, 5)
        for D in (2, 3, 4):
            small_alphas, small = _product_table(unit_box, D)
            assert alphas[:len(small_alphas)] == small_alphas
            assert np.array_equal(big[:small.shape[0], :small.shape[1]], small)
            assert not big[small.shape[0]:, :small.shape[1]].any()

    def test_xy_ladder_constant(self, unit_box):
        ladder = handelman_ladder(parse("x1*x2", 2), unit_box, 4)
        assert all(abs(b.value) <= 1e-7 for b in ladder)


class TestPolytopeDescription:
    def test_unbounded_rejected(self):
        P = PolytopeDescription(1, [parse("x1", 1)])
        with pytest.raises(UnboundedPolytopeError):
            handelman_bound(parse("x1", 1), P, 1)

    def test_degree_check(self):
        with pytest.raises(ValueError):
            PolytopeDescription(1, [parse("x1^2", 1)])

    def test_json_roundtrip(self, unit_box):
        text = unit_box.to_json()
        P = PolytopeDescription.from_json(text, n=2)
        assert P.num_facets == 4
        assert P.facets[1] == parse("1-x1", 2)

    def test_empty_set_is_fine(self):
        # an inconsistent facet list is bounded (vacuously); the LP then
        # certifies whatever it certifies without the boundedness guard firing
        P = PolytopeDescription(1, [parse("x1-2", 1), parse("-x1", 1),
                                    parse("1-x1", 1)])
        P.check_bounded()

    def test_lp_failure_is_not_bounded(self, monkeypatch, unit_box):
        # a status the verdict table does not name is a solver failure, not
        # a verdict
        monkeypatch.setattr(polymin.handelman, "solve_lp", lambda c, rows: LpSolution(
            SdpStatus.NUMERICAL_TROUBLE, None, None, None))
        with pytest.raises(SdpFailure):
            unit_box.check_bounded()


def _polytope(n, facets):
    return PolytopeDescription(n, [parse(t, n) for t in facets])


def _cube(n):
    return [t for k in range(1, n + 1) for t in (f"x{k}", f"1-x{k}")]


def _simplex(n):
    return [f"x{k}" for k in range(1, n + 1)] + ["1-" + "-".join(f"x{k}" for k in range(1, n + 1))]


BOUNDED = {
    "unit box": (2, _cube(2)),
    "box [-100, 100]^2": (2, ["x1+100", "100-x1", "x2+100", "100-x2"]),
    "thin box": (2, ["x1", "1/1000-x1", "x2", "1-x2"]),
    "shifted box": (2, ["x1-50", "51-x1", "x2+7", "-6-x2"]),
    "triangle": (2, ["x1", "x2", "3-x1-2*x2"]),
    "hexagon": (2, ["1-x1", "1+x1", "1-x2", "1+x2", "3/2-x1-x2", "3/2+x1+x2"]),
    "4-cube": (4, _cube(4)),
    "3-simplex": (3, _simplex(3)),
    "5-simplex": (5, _simplex(5)),
    # empty sets are bounded; the last two need the degree-1 emptiness LP
    "empty interval": (1, ["x1-2", "-x1", "1-x1"]),
    "empty slab in R^2": (2, ["x1-1", "-x1"]),
    "empty slab in R^3": (3, ["x1-1", "-x1", "x2", "1-x2"]),
}

UNBOUNDED = {
    "ray": (1, ["x1"]),
    "wedge": (2, ["x1", "x2"]),
    "slab": (2, ["x1", "1-x1"]),
    "half-plane": (2, ["x1+x2"]),
    "diagonal strip": (2, ["x1-x2", "1-x1+x2"]),
    "3-D wedge": (3, ["x1", "x2", "x3", "1-x1-x2"]),
}


class TestBoundednessVerdicts:
    @pytest.mark.parametrize("name", BOUNDED)
    def test_bounded(self, name):
        _polytope(*BOUNDED[name]).check_bounded()

    @pytest.mark.parametrize("name", UNBOUNDED)
    def test_unbounded(self, name):
        with pytest.raises(UnboundedPolytopeError):
            _polytope(*UNBOUNDED[name]).check_bounded()


class TestColumnEnumeration:
    def test_count_formula(self, unit_box):
        hb = handelman_bound(parse("x1*x2", 2), unit_box, 2)
        assert len(hb.coefficients) <= math.comb(4 + 2, 2)
