"""Tests of the benchmark's own code: generators, checks and tracer safety."""

import itertools

import pytest

import bench_ops
import bench_trace
import polymin.sos
from polymin.bench import BenchmarkPlan
from polymin.poly import FamilyParams, Polynomial, random_family_instance


def _permuted(f, perm):
    return Polynomial(f.n, {tuple(m[perm[i]] for i in range(f.n)): c
                            for m, c in f.terms.items()})


@pytest.mark.parametrize("two_d", [4, 6])
def test_tied_instance_is_seeded_and_permutation_invariant(two_d):
    f = bench_ops.tied_instance(3, two_d, 20240001)
    assert f == bench_ops.tied_instance(3, two_d, 20240001)
    assert f != bench_ops.tied_instance(3, two_d, 20240002)
    for perm in itertools.permutations(range(3)):
        assert _permuted(f, perm) == f
    # the top-degree part is untouched, so the oracle's Groebner premise holds
    for i in range(3):
        assert f.coefficient(tuple(two_d if j == i else 0 for j in range(3))) == 1


def test_rounds_are_reproducible_and_match_bench_plans():
    a = bench_ops.build_rounds("oracle-crosscheck", 7, 2)
    b = bench_ops.build_rounds("oracle-crosscheck", 7, 2)
    assert [op.inputs["f"] for op in a[1]] == [op.inputs["f"] for op in b[1]]
    # the instances `polymin bench` draws for the same cells and seed_base
    plan = BenchmarkPlan(cells=[c for c, _ in bench_ops.ORACLE_CROSSCHECK],
                         instances=20, seed_base=7)
    n, two_d = bench_ops.ORACLE_CROSSCHECK[0][0]
    first = random_family_instance(FamilyParams(n, two_d // 2, 100, plan.instance_seed(0, 0, 0)))
    assert a[0][0].inputs["f"] == first


def test_witness_systems_have_witnesses():
    for seed in range(4):
        res = bench_ops.run_op(bench_ops.Op("witness", "w", {
            "sys": bench_ops.witness_system(seed), "D": 2}), lambda: 0.0)
        assert not res.failed, res


def test_wrong_bound_is_flagged_not_raised(monkeypatch):
    f = bench_ops.family_instance(2, 4, 3)
    real = polymin.sos.minimize

    def inflated(g):
        out = real(g)
        out.bound += 1e-3 * (1.0 + abs(out.bound))
        return out

    monkeypatch.setattr(polymin.sos, "minimize", inflated)
    res = bench_ops.run_op(bench_ops.Op("minimize", "c", {"f": f}), lambda: 0.0)
    assert res.raised is None and res.wrong and res.failed


def test_absent_names_are_reported_and_originals_restored():
    targets = bench_trace.TARGETS + [("polymin.sos", "no_such_function", "sos.gone"),
                                     ("polymin.no_such_module", "f", "gone.f")]
    original = polymin.sos.solve
    with bench_trace.Instrument(timed=True, targets=targets) as inst:
        assert polymin.sos.solve is not original
    assert polymin.sos.solve is original
    assert inst.absent == ["polymin.sos.no_such_function", "polymin.no_such_module.f"]


def test_tracing_never_changes_answers():
    ops = [bench_ops.Op("crosscheck", "(2,4)", {"f": bench_ops.family_instance(2, 4, 11)}),
           bench_ops.Op("minimize", "tied", {"f": bench_ops.tied_instance(3, 4, 5)}),
           bench_ops.Op("witness", "w", {"sys": bench_ops.witness_system(2), "D": 2})]
    plain = [bench_ops.run_op(op, lambda: 0.0) for op in ops]
    with bench_trace.Instrument(timed=True) as inst:
        traced = []
        for i, op in enumerate(ops):
            inst.begin_op(i)
            traced.append(bench_ops.run_op(op, lambda: 0.0))
            inst.end_op()
    assert [r.fingerprint for r in traced] == [r.fingerprint for r in plain]
    assert not any(r.failed for r in plain)
    table = bench_trace.layer_table(inst.spans)
    assert table["groebner.normal_form"]["calls"] > 0
    assert table[bench_trace.OP]["calls"] == len(ops)
    assert all(row["self_s"] >= -1e-9 for row in table.values())
