#!/usr/bin/env python3
"""polymin benchmark: seeded workloads through the public library API.

    python3 perfbench/run.py --workload sos-paper --seed 1 --seconds 35 --trace 0

Run from the root of a polymin source tree; the library is imported from
``src/`` next to this directory, never from an installed copy.

Load shape: one process, closed loop, one caller that waits for each result
(a batch tool: a user runs one minimisation and waits).  BLAS and OpenMP are
pinned to one thread before numpy loads.  An op is one public call on
generated inputs plus the benchmark's check of its answer (bench_ops.py).
Ops come in rounds with a fixed mix of cells.  A run measures
max(1, seconds // NOMINAL_ROUND_S) whole rounds (bench_ops.py): about
``--seconds`` of work at this commit, and the same ops on any version.

``--trace 0`` prints the end-to-end metrics:

  setup_s      median of separate set-up runs (a fresh interpreter pins
               threads, imports polymin and generates the instances),
               speed-adjusted
  op_s.p50     median seconds per op, speed-adjusted (SpeedProbe)
  op_s.tail    speed-adjusted seconds at the highest percentile with at least
               10 ops beyond it (the percentile and op count are reported)
  ops_per_s    ops that passed their checks per speed-adjusted second of op
               time
  pass_frac    share of attempted ops that neither raised, nor returned a
               non-optimal status, nor failed a check (1 - fail_frac)
  extract_frac share of minimize calls that returned a validated minimizer
  peak_rss_mb  peak resident memory of this process

Times are speed-adjusted: on a machine that switches between two speeds, a
median jumps by the whole speed ratio once half of the samples fall in the
slow state.  The report above the result line also prints the plain
wall-clock figures (wall.setup_s, wall.op_s.p50, wall.op_s.tail, and
wall.ops_per_s per second of the measured pass), the median slowdown the
probe saw, fail_frac, warn_frac (ops whose SDP solutions carry any solver
warning) and, on oracle-crosscheck, agree_frac; the last three can be zero,
so they are not bounded metrics.  Warnings are read off each returned
SdpSolution by a wrapper on the SDP solve bindings that times nothing.
Everything is also written to ``perfbench/out/``.

``--trace 1`` also replays the first round with every layer traced
(bench_trace.py), checks that tracing changed no answer, prints the per-layer
table and a per-cell diagnostic table, writes the spans to ``perfbench/out/``
and prints the per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``failed`` counts ops that raised, reported a non-optimal status or
failed a check.  ``correct`` is false when an op failed a check although no
SDP solution behind it carried a solver warning (a silent wrong answer), or
when tracing changed an answer.  A wrong answer from a solve that warned,
such as "converged at reduced accuracy", is a numerical failure: it counts in
``failed`` and is listed, marked as warned, in the report.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10
REPORT_UNITS = {
    "setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s",
    "wall.setup_s": "s", "wall.op_s.p50": "s", "wall.op_s.tail": "s", "wall.ops_per_s": "1/s",
    "slowdown.p50": "x", "pass_frac": "frac", "fail_frac": "frac", "warn_frac": "frac",
    "agree_frac": "frac", "extract_frac": "frac", "peak_rss_mb": "MB",
}


def metric_units(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up (imports, instances) and exit; used to time set-up")
    return p.parse_args(argv)


def import_library():
    """Import polymin from this tree's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "polymin", "__init__.py")):
        raise SystemExit(f"polymin sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import polymin

    if not os.path.abspath(polymin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported polymin from {polymin.__file__}, not from {SRC}")
    import bench_ops

    return bench_ops


def clock() -> float:
    """CLOCK_MONOTONIC: one time line shared by this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args):
    """Seconds from spawning a fresh interpreter until it is set up, SETUP_RUNS
    times; returns (speed-adjusted, wall) lists.

    The child prints its own clock() once set up, then a SpeedProbe time taken
    after that instant; the parent's wait for the child's exit is not timed.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    adjusted, wall = [], []
    for _ in range(SETUP_RUNS):
        t0 = clock()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                             timeout=SETUP_TIMEOUT_S, cwd=ROOT).stdout
        ready, probe_s = (float(x) for x in out.split()[-2:])
        wall.append(ready - t0)
        adjusted.append(wall[-1] * SpeedProbe.REFERENCE_S / probe_s)
    return adjusted, wall


def tail(times):
    """(value, percentile) at the highest rank with TAIL_BEYOND ops above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


class SpeedProbe:
    """A fixed mix of small LAPACK calls and interpreter work, timed before
    and after every op; it uses no polymin code.

    Shared machines switch between speeds (on the 2-core VM this benchmark
    was tuned on, all code ran about 1.6 times slower in the slow state, for
    seconds to tens of seconds at a time).  An op's adjusted time is its wall
    time times REFERENCE_S / (mean of the two probes next to it): its wall
    time at the speed where the probe takes REFERENCE_S, which is that VM
    unloaded.  On other hardware the adjusted times carry that machine's
    speed relative to the probe, the same for every version compared there.
    """

    REFERENCE_S = 0.002

    def __init__(self):
        a = np.arange(3600.0).reshape(60, 60) % 7.0 - 3.0
        self.spd = a @ a.T + 60.0 * np.eye(60)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(16):
            np.linalg.cholesky(self.spd)
        x = 0
        for i in range(30000):
            x += i * i
        return time.perf_counter() - t0


def run_round(bench_ops, r, ops, instrument, records, probe):
    before = probe()
    for j, op in enumerate(ops):
        instrument.begin_op((r, j))
        t0 = time.perf_counter()
        res = bench_ops.run_op(op, time.perf_counter)
        seconds = time.perf_counter() - t0
        instrument.end_op()
        after = probe()
        records.append({"id": (r, j), "op": op, "res": res, "s": seconds,
                        "probe_s": (before + after) / 2.0})
        before = after


def run_pass(bench_ops, rounds, instrument, probe):
    records = []
    start = time.perf_counter()
    for r, ops in enumerate(rounds):
        run_round(bench_ops, r, ops, instrument, records, probe)
    return records, time.perf_counter() - start


def adjust(records):
    """Set each record's speed-adjusted seconds (see SpeedProbe)."""
    for rec in records:
        rec["adj_s"] = rec["s"] * SpeedProbe.REFERENCE_S / rec["probe_s"]


def mark_warned(records, solutions):
    """Flag the ops whose SDP solutions carry any solver warning."""
    warned_ids = {op_id for op_id, ann in solutions if ann.get("warnings")}
    for rec in records:
        rec["warned"] = rec["id"] in warned_ids


def summarize(records, elapsed) -> dict:
    """End-to-end figures of a pass plus the report-only shares."""
    wall = [rec["s"] for rec in records]
    adjusted = [rec["adj_s"] for rec in records]
    attempted = len(records)
    failed = sum(1 for rec in records if rec["res"].failed)
    minimize_calls = sum(rec["res"].minimize_calls for rec in records)
    compared = [rec["res"].agree for rec in records if rec["op"].kind == "crosscheck"]
    tail_s, tail_pct = tail(adjusted)
    return {
        "attempted": attempted, "failed": failed, "elapsed_s": elapsed,
        "op_s.p50": statistics.median(adjusted), "op_s.tail": tail_s,
        "tail_percentile": tail_pct,
        "ops_per_s": (attempted - failed) / sum(adjusted),
        "wall.op_s.p50": statistics.median(wall), "wall.op_s.tail": tail(wall)[0],
        "wall.ops_per_s": (attempted - failed) / elapsed,
        "slowdown.p50": statistics.median(rec["probe_s"] / SpeedProbe.REFERENCE_S
                                          for rec in records),
        "pass_frac": (attempted - failed) / attempted,
        "fail_frac": failed / attempted,
        "warn_frac": sum(1 for rec in records if rec["warned"]) / attempted,
        "extract_frac": (sum(rec["res"].extracted for rec in records) / minimize_calls
                         if minimize_calls else None),
        "agree_frac": sum(1 for a in compared if a) / len(compared) if compared else None,
    }


def problems(records) -> list:
    out = []
    for rec in records:
        res = rec["res"]
        if res.failed:
            why = res.raised or ("; ".join(res.wrong) if res.wrong else "non-optimal status")
            out.append({"op": list(rec["id"]), "cell": rec["op"].cell,
                        "kind": rec["op"].kind, "wrong": bool(res.wrong),
                        "warned": rec["warned"], "why": why})
    return out


def warning_kinds(solutions) -> dict:
    kinds: dict = {}
    for _, ann in solutions:
        for w in ann.get("warnings", []):
            key = w.split(":")[0]
            kinds[key] = kinds.get(key, 0) + 1
    return kinds


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__, "blas": blas,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def traced_round(bench_ops, bench_trace, args, untraced, probe):
    """Replay round 0 with every layer traced; returns (metrics, tables, mismatches)."""
    records = []
    with bench_trace.Instrument(timed=True) as tracer:
        tracer.op = "setup"
        ops = bench_ops.build_rounds(args.workload, args.seed, 1)[0]
        run_round(bench_ops, 0, ops, tracer, records, probe)
    adjust(records)
    spans = tracer.spans
    base = [rec for rec in untraced if rec["id"][0] == 0]
    mismatches = [rec["op"].cell for rec, ref in zip(records, base)
                  if rec["res"].fingerprint != ref["res"].fingerprint]
    names = [m for m in metric_units("per_layer") if m != "trace.overhead_frac"]
    metrics = bench_trace.layer_metrics(spans, names)
    metrics["trace.overhead_frac"] = (statistics.median(r["adj_s"] for r in records)
                                      / statistics.median(r["adj_s"] for r in base) - 1.0)
    cells = {}
    for rec in records:
        cells.setdefault(rec["op"].cell, []).append(rec)
    diag = []
    for cell, recs in cells.items():
        ids = {rec["id"] for rec in recs}
        solves = [s for s in spans if s.op in ids and s.name == bench_trace.SDP_SOLVE]
        diag.append({
            "cell": cell, "ops": len(recs),
            "sos_s.p50": median_or_none(r["res"].sos_s for r in recs),
            "oracle_s.p50": median_or_none(r["res"].oracle_s for r in recs),
            "agree": sum(1 for r in recs if r["res"].agree),
            "solves": len(solves),
            "iterations": sum(s.attrs.get("iterations", 0) for s in solves),
            "top_self_s": bench_trace.top_layers(spans, ids),
        })
    tables = {"layers": bench_trace.layer_table(spans), "cells": diag,
              "absent": tracer.absent, "spans": [s.to_json() for s in spans]}
    return metrics, tables, mismatches


def fmt(v) -> str:
    if v is None:
        return "-"
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def print_report(args, env, summary, setup_times, failures, kinds, traced):
    print(f"workload {args.workload}  seed {args.seed}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  threads {env['threads']}")
    print(f"ops {summary['attempted']}  failed {summary['failed']}  "
          f"measured {summary['elapsed_s']:.2f} s  "
          f"tail = p{summary['tail_percentile']:.1f} of {summary['attempted']} ops")
    for key, unit in REPORT_UNITS.items():
        print(f"  {key:<16}{fmt(summary[key])} {unit}")
    print(f"  setup runs   {', '.join(f'{t:.3f}' for t in setup_times)} s")
    if kinds:
        print("  solver warnings: " + "; ".join(f"{k} x{n}" for k, n in kinds.items()))
    for f in failures:
        flag = " (solver warned)" if f["warned"] else ""
        print(f"  FAILED {f['cell']} {f['kind']} op {f['op']}{flag}: {f['why']}")
    if traced is None:
        return
    metrics, tables, mismatches = traced
    print("per-layer (round 0, traced)    calls          s     self_s")
    for name, row in sorted(tables["layers"].items()):
        print(f"  {name:<44}{row['calls']:>7}{row['s']:>11.4f}{row['self_s']:>11.4f}")
    print("per-cell   ops  sos_s.p50  oracle_s.p50  agree  solves  iters  top self time")
    for c in tables["cells"]:
        top = ", ".join(f"{n} {t:.3f}" for n, t in c["top_self_s"])
        print(f"  {c['cell']:<16}{c['ops']:>4}{fmt(c['sos_s.p50']):>10}"
              f"{fmt(c['oracle_s.p50']):>13}{c['agree']:>7}{c['solves']:>8}"
              f"{c['iterations']:>7}  {top}")
    print(f"  trace.overhead_frac {metrics['trace.overhead_frac']:.4f}")
    if tables["absent"]:
        print("  absent (not traced): " + ", ".join(tables["absent"]))
    for cell in mismatches:
        print(f"  TRACING CHANGED AN ANSWER in {cell}")


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_ops = import_library()
    if args.workload not in bench_ops.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(bench_ops.WORKLOADS)}")
    rounds = bench_ops.build_rounds(args.workload, args.seed,
                                    bench_ops.rounds_for(args.workload, args.seconds))
    if args.setup_only:
        ready = clock()
        print(ready, SpeedProbe()())
        return 0
    import bench_trace

    setup_times, setup_wall = measure_setup(args)
    probe = SpeedProbe()
    with bench_trace.Instrument(timed=False) as tap:
        records, elapsed = run_pass(bench_ops, rounds, tap, probe)
    adjust(records)
    mark_warned(records, tap.solutions)
    summary = summarize(records, elapsed)
    summary["setup_s"] = statistics.median(setup_times)
    summary["wall.setup_s"] = statistics.median(setup_wall)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = (traced_round(bench_ops, bench_trace, args, records, probe)
              if args.trace else None)

    env = environment()
    failures = problems(records)
    kinds = warning_kinds(tap.solutions)
    print_report(args, env, summary, setup_times, failures, kinds, traced)

    values = summary if traced is None else traced[0]
    units = metric_units("end_to_end" if traced is None else "per_layer")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    silent_wrong = any(f["wrong"] and not f["warned"] for f in failures)
    result = {"correct": not (silent_wrong or (traced and traced[2])), "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"args": vars(args), "environment": env, "summary": summary,
              "setup_runs_s": setup_times, "failures": failures,
              "solver_warnings": kinds, "result": result,
              "ops": [{"op": list(rec["id"]), "cell": rec["op"].cell, "s": rec["s"],
                       "adj_s": rec["adj_s"], "probe_s": rec["probe_s"],
                       "sos_s": rec["res"].sos_s, "oracle_s": rec["res"].oracle_s,
                       "failed": rec["res"].failed, "warned": rec["warned"]}
                      for rec in records]}
    if traced is not None:
        record["layers"] = traced[1]["layers"]
        record["cells"] = traced[1]["cells"]
        record["absent"] = traced[1]["absent"]
        record["tracing_changed"] = traced[2]
        with open(stem + "-spans.json", "w") as fh:
            json.dump(traced[1]["spans"], fh)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
