import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

import polymin.bench
import polymin.cli
from polymin.bench import CSV_COLUMNS, BenchmarkPlan, run_benchmark
from polymin.cli import main
from polymin.poly import FamilyParams, Polynomial, parse, random_family_instance
from polymin.refine import local_refine
from polymin.sdp import SdpFailure, SdpStatus

from conftest import SYMMETRIC_QUARTIC, permutations_match


class TestLocalRefine:
    def test_parabola(self):
        res = local_refine(parse("x1^2", 1), [3.0])
        assert res.converged
        assert abs(res.point[0]) <= 1e-8
        assert abs(res.value) <= 1e-12

    def test_symmetric_quartic_basin(self, symmetric_quartic):
        res = local_refine(symmetric_quartic, [1.0, -1.0, -1.0])
        assert res.converged
        assert permutations_match(res.point, (0.988, -1.102, -1.102), 5e-3)
        assert abs(res.value - (-2.1129)) <= 1e-3

    def test_double_well_descends_into_right_well(self):
        # from 0.1 the descent direction leads to the minimum at 1, not to
        # the stationary point at the origin
        res = local_refine(parse("x1^4-2*x1^2", 1), [0.1])
        assert res.converged
        assert abs(res.point[0] - 1.0) <= 1e-8
        assert abs(res.value - (-1.0)) <= 1e-12

    def test_gradient_residual_contract(self, symmetric_quartic):
        res = local_refine(symmetric_quartic, [0.5, -0.5, -1.5])
        if res.converged:
            assert res.grad_norm <= 1e-8 * (1 + abs(res.value))

    def test_stops_at_rounding_noise(self):
        # sos-paper's (3,8) instance for bench seed 1 from its extracted
        # minimizer: the Newton step's predicted gain is below f's rounding
        # noise (|f| ~ 4e16), so the Armijo test cannot accept a full step
        f = random_family_instance(FamilyParams(3, 4, 100, seed=2000007))
        start = [-94.28202500179624, -120.26098362637971, 145.68781509071962]
        res = local_refine(f, start)
        assert res.converged
        assert res.iterations <= 10

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            local_refine(parse("x1^2", 1), [1.0, 2.0])

    @pytest.mark.parametrize("n, two_d", [(1, 4), (2, 8), (6, 4), (3, 10), (10, 4)])
    def test_exponent_table_matches_polynomial_derivatives(self, n, two_d):
        # f, grad f, the Hessian and sum |c_m| |x^m| off the one table
        # against the exact term-by-term evaluation of the derivative
        # polynomials, at single points and at an (m, n) array of them
        f = random_family_instance(FamilyParams(n, two_d // 2, 100, seed=4000000)).to_float()
        value, derivatives, magnitude = f.exponent_table()
        grads = [f.differentiate(i) for i in range(n)]
        f_abs = Polynomial(n, {m: abs(c) for m, c in f.terms.items()})
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = 1.5 * rng.normal(size=n)
            g, H = derivatives(x)
            pairs = [(value(x), f.evaluate(x)), (magnitude(x), f_abs.evaluate(np.abs(x))),
                     (g, [p.evaluate(x) for p in grads]),
                     (H, [[p.differentiate(j).evaluate(x) for j in range(n)] for p in grads])]
            for got, want in pairs:
                want = np.asarray(want, dtype=float)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        pts = 1.5 * rng.normal(size=(7, n))
        exact = f.to_fraction()
        for got in (value(pts), f.evaluate_many(pts)):
            assert got.shape == (7,)
            for v, x in zip(got, pts):
                want = float(exact.evaluate([Fraction(t) for t in x]))
                assert abs(v - want) <= 1e-13 * f_abs.evaluate(np.abs(x))
        assert np.allclose(magnitude(pts), [magnitude(x) for x in pts], rtol=1e-13, atol=0)


class TestBenchmarkPlan:
    def test_zero_methods_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(cells=[(2, 4)], instances=1, methods=[])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(cells=[(2, 4)], instances=1, methods=["newton"])

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(cells=[(2, 3)], instances=1)

    def test_json_roundtrip(self):
        plan = BenchmarkPlan(cells=[(2, 4), (3, 4)], instances=2,
                             K_values=[10, 100], seed_base=5)
        plan2 = BenchmarkPlan.from_json_dict(plan.to_json_dict())
        assert plan2.cells == plan.cells
        assert plan2.seed_base == plan.seed_base


class TestRunBenchmark:
    def test_small_plan_agreement_and_accounting(self):
        plan = BenchmarkPlan(cells=[(2, 4)], instances=4, K_values=[20],
                             seed_base=99)
        rep = run_benchmark(plan)
        cell = rep.cells[0]
        assert cell.instances == 4
        assert cell.agreement + cell.disagreement + cell.skipped == 4
        assert cell.agreement == 4

    def test_numpy_bound_counts_as_agreement(self, monkeypatch):
        # a bound held as a NumPy scalar makes a NumPy bool, which the
        # accounting's `is True` test would count as skipped
        minimize = polymin.bench.minimize

        def numpy_bound(f):
            res = minimize(f)
            res.bound = np.float64(res.bound)
            return res

        monkeypatch.setattr(polymin.bench, "minimize", numpy_bound)
        rep = run_benchmark(BenchmarkPlan(cells=[(2, 4)], instances=2, K_values=[20],
                                          seed_base=99))
        assert [r["agree"] for r in rep.rows] == [True] * 4
        assert rep.cells[0].agreement == 2 and rep.cells[0].skipped == 0

    def test_failed_solve_is_recorded_not_raised(self, monkeypatch):
        # an SOS solve that raises is a row and a named failure; the oracle
        # still runs, and with no bound to compare the instance is skipped
        def failing(f):
            raise SdpFailure(SdpStatus.NUMERICAL_TROUBLE, "(test)")

        monkeypatch.setattr(polymin.bench, "minimize", failing)
        rep = run_benchmark(BenchmarkPlan(cells=[(2, 4)], instances=1, K_values=[10],
                                          seed_base=3))
        cell, seed = rep.cells[0], rep.rows[0]["seed"]
        assert [(r["method"], r["status"]) for r in rep.rows] == [
            ("sos", "error:SdpFailure"), ("eig-oracle", "ok")]
        assert cell.failures == [{"seed": seed, "method": "sos",
                                  "status": "error:SdpFailure"}]
        assert cell.skipped == 1 and cell.agreement == cell.disagreement == 0

    def test_determinism(self):
        plan = BenchmarkPlan(cells=[(2, 4)], instances=3, K_values=[15],
                             seed_base=7)
        r1 = run_benchmark(plan)
        r2 = run_benchmark(plan)
        b1 = [row["bound"] for row in r1.rows if "bound" in row]
        b2 = [row["bound"] for row in r2.rows if "bound" in row]
        assert b1 == b2
        assert [c.agreement for c in r1.cells] == [c.agreement for c in r2.cells]

    def test_mu_cap_skips_oracle(self):
        plan = BenchmarkPlan(cells=[(2, 4)], instances=2, K_values=[10],
                             seed_base=3, mu_cap=5)  # mu = 9 > 5
        rep = run_benchmark(plan)
        cell = rep.cells[0]
        assert cell.skipped == 2
        statuses = {r["status"] for r in rep.rows if r["method"] == "eig-oracle"}
        assert statuses == {"skipped_mu_cap"}
        # no vacuous agreement when the oracle was skipped
        assert cell.agreement == 0

    def test_oracle_runs_at_the_cap(self):
        # the cap is the family's mu, the oracle's own cap too
        rep = run_benchmark(BenchmarkPlan(cells=[(2, 4)], instances=1, K_values=[10],
                                          seed_base=3, mu_cap=9))
        assert rep.rows[1]["status"] == "ok" and rep.cells[0].agreement == 1

    def test_csv_columns(self):
        plan = BenchmarkPlan(cells=[(1, 2)], instances=1, K_values=[3],
                             seed_base=1)
        rep = run_benchmark(plan)
        reader = csv.reader(io.StringIO(rep.csv_text()))
        header = next(reader)
        assert header == CSV_COLUMNS
        assert sum(1 for _ in reader) == len(rep.rows)

    def test_sos_only_plan(self):
        plan = BenchmarkPlan(cells=[(2, 4)], instances=2, K_values=[10],
                             methods=["sos"], seed_base=11)
        rep = run_benchmark(plan)
        assert rep.cells[0].skipped == 2  # no oracle, no agreement to count
        assert rep.cells[0].extraction_successes == 2


    def test_repeated_cell_counts_its_own_instances(self):
        # each (cell, K) entry of the plan reports the instances it ran, also
        # when another entry names the same cell
        plan = BenchmarkPlan(cells=[(2, 4), (2, 4)], instances=1, K_values=[10],
                             methods=["sos"], seed_base=11)
        rep = run_benchmark(plan)
        assert len(rep.rows) == 2 and rep.rows[0]["seed"] != rep.rows[1]["seed"]
        for cell, row in zip(rep.cells, rep.rows):
            assert cell.instances == 1 and cell.skipped == 1
            assert cell.extraction_successes == int(row["extract_ok"])
            assert cell.median_wall_ms == {"sos": row["wall_ms"]}


class TestCli:
    def test_minimize_complete_square(self, capsys):
        code = main(["minimize", "--poly", "x1^2-2*x1+3", "--extract", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["f_sos"] - 2.0) <= 1e-6
        assert abs(payload["minimizer"]["point"][0] - 1.0) <= 1e-5

    def test_minimize_motzkin_reports_minus_inf(self, capsys):
        from conftest import MOTZKIN
        code = main(["minimize", "--poly", MOTZKIN, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_sos"] == "-inf"

    def test_oracle_with_charpoly(self, capsys):
        code = main(["oracle", "--poly", SYMMETRIC_QUARTIC, "--charpoly",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"] == 27
        assert payload["tf_nonzeros"] == 178
        assert abs(payload["f_star"] - (-2.112913879)) <= 1e-6
        assert len(payload["charpoly"]) == 28

    def test_charpoly_cap_refused_before_the_oracle(self, monkeypatch, capsys):
        # a (3,6) instance has mu = 125, above the exact characteristic cap
        def never(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(polymin.cli, "minimize_by_eigenvalues", never)
        f = random_family_instance(FamilyParams(3, 3, 100, seed=1))
        assert main(["oracle", "--poly", f.to_string(), "--charpoly"]) == 2
        assert "mu=125 exceeds exact characteristic cap 64" in capsys.readouterr().err

    def test_psatz_subcommand(self, tmp_path, capsys):
        system = {
            "n": 2,
            "inequalities": ["x1-x2^2+3"],
            "equalities": ["x2+x1^2+2"],
        }
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code = main(["psatz", "--system", str(path), "--degree", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True
        assert payload["verification"]["ok"] is True

    def test_handelman_subcommand(self, tmp_path, capsys):
        poly_path = tmp_path / "polytope.json"
        poly_path.write_text(json.dumps(["x1", "1-x1", "x2", "1-x2"]))
        code = main(["handelman", "--poly", "x1*x2", "--polytope",
                     str(poly_path), "--degree", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"]) <= 1e-7

    def test_bench_subcommand(self, tmp_path, capsys):
        plan = {"cells": [[1, 2]], "instances": 2, "K_values": [5],
                "methods": ["sos", "eig-oracle"], "seed_base": 4}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = main(["bench", "--plan", str(plan_path), "--csv", str(csv_path),
                     "--json-out", str(json_path)])
        assert code == 0
        assert csv_path.exists() and json_path.exists()
        report = json.loads(json_path.read_text())
        assert report["cells"][0]["agreement"] == 2

    def test_sizes_subcommand(self, capsys):
        code = main(["sizes", "--max-n", "15", "--max-2d", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix_size"]["4"]["15"] == 136
        assert payload["critical_points"]["4"]["13"] == 1594323

    def test_input_error_exit_code(self, capsys):
        assert main(["minimize", "--poly", "x1^2 + * oops"]) == 2
        assert main(["minimize", "--poly", "x1^3"]) == 2  # odd degree
        assert main(["handelman", "--poly", "x1", "--polytope",
                     "/nonexistent.json", "--degree", "1"]) == 2

    def test_higher_degree_refuses_extract(self, capsys):
        code = main(["minimize", "--poly", "x1^4+x2^4-3*x1*x2+x1",
                     "--higher-degree", "1", "--extract", "--json"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "--extract is not available with --higher-degree" in out.err

    def test_solver_failure_exit_code(self, tmp_path):
        # the oracle refuses critical ideals that are not Groebner bases
        assert main(["oracle", "--poly", "x1^2*x2^2+x1^3+x2^3"]) == 3


class TestPsatzExactFallback:
    def test_solver_witness_falls_back_to_float(self, tmp_path, capsys):
        system = {"n": 2, "inequalities": ["x1-x2^2+3"],
                  "equalities": ["x2+x1^2+2"]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code = main(["psatz", "--system", str(path), "--degree", "2",
                     "--verify-exact", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verification"]["ok"] is True
        assert payload["verification"]["fell_back_to_float"] is True
        assert payload["verified_exact"] is False


class TestCliFileInputs:
    def test_polynomial_json_file(self, tmp_path, capsys):
        from polymin.poly import FamilyParams, parse, random_family_instance
        path = tmp_path / "f.json"
        path.write_text(parse("x1^2-2*x1+5").to_json())
        code = main(["minimize", "--file", str(path), "--extract", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["f_sos"] - 4.0) <= 1e-6

    def test_polynomial_text_file(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("x1^2+1\n")
        code = main(["minimize", "--file", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["f_sos"] - 1.0) <= 1e-6

    def test_higher_degree_json(self, capsys):
        from conftest import MOTZKIN
        code = main(["minimize", "--poly", MOTZKIN, "--higher-degree", "1",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["f_sos"] - (-1.0)) <= 1e-3
