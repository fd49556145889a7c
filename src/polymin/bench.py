"""Benchmark harness: random instances, method timing, agreement checks.

A plan names a grid of (variables, degree) cells, the number of instances
per cell and coefficient bound, and which methods to run (the SDP bound, the
algebraic eigenvalue oracle, or both).  Instances are generated from the
seeded family generator, so a plan plus its base seed reproduces the exact
same polynomial stream; per-method wall time covers the method call only.

Cells whose critical-point count exceeds the oracle cap run the SDP method
only.  Instance-level parallelism is available through a process pool; each
worker owns its instances end to end and the reducer is sequential, so the
report of a given plan is deterministic (timings aside).
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .groebner import (
    MuCapExceededError,
    NoRealCriticalPointsError,
    NotGroebnerError,
    minimize_by_eigenvalues,
)
from .poly import FamilyParams, random_family_instance
from .sdp import SdpFailure
from .sos import MINUS_INFINITY, minimize

CSV_COLUMNS = ["n", "two_d", "K", "seed", "method", "status", "bound",
               "oracle_min", "agree", "extract_ok", "wall_ms"]

KNOWN_METHODS = ("sos", "eig-oracle")


@dataclass
class BenchmarkPlan:
    cells: list                      # (n, two_d) pairs
    instances: int
    K_values: list = field(default_factory=lambda: [100])
    methods: list = field(default_factory=lambda: ["sos", "eig-oracle"])
    seed_base: int = 20240001
    time_cap_s: float | None = None
    mu_cap: int = 3000
    workers: int = 1

    def __post_init__(self):
        if self.instances < 1:
            raise ValueError("need at least one instance per cell")
        if not self.methods:
            raise ValueError("plan selects no methods")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}")
        for n, two_d in self.cells:
            if n < 1 or two_d < 2 or two_d % 2:
                raise ValueError(f"bad cell ({n}, {two_d})")

    def to_json_dict(self) -> dict:
        return {
            "cells": [list(c) for c in self.cells],
            "instances": self.instances,
            "K_values": list(self.K_values),
            "methods": list(self.methods),
            "seed_base": self.seed_base,
            "time_cap_s": self.time_cap_s,
            "mu_cap": self.mu_cap,
            "workers": self.workers,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BenchmarkPlan":
        return cls(
            cells=[tuple(c) for c in data["cells"]],
            instances=int(data["instances"]),
            K_values=[int(k) for k in data.get("K_values", [100])],
            methods=list(data.get("methods", ["sos", "eig-oracle"])),
            seed_base=int(data.get("seed_base", 20240001)),
            time_cap_s=data.get("time_cap_s"),
            mu_cap=int(data.get("mu_cap", 3000)),
            workers=int(data.get("workers", 1)),
        )

    def instance_seed(self, cell_index: int, k_index: int, instance: int) -> int:
        # fixed arithmetic so plans are reproducible across runs and workers
        return (self.seed_base + 1_000_003 * cell_index
                + 10_007 * k_index + instance) & ((1 << 63) - 1)


@dataclass
class CellReport:
    n: int
    two_d: int
    K: int
    instances: int
    agreement: int
    disagreement: int
    skipped: int
    extraction_successes: int
    failures: list
    mean_wall_ms: dict
    median_wall_ms: dict

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "two_d": self.two_d, "K": self.K,
            "instances": self.instances, "agreement": self.agreement,
            "disagreement": self.disagreement, "skipped": self.skipped,
            "extraction_successes": self.extraction_successes,
            "failures": self.failures,
            "mean_wall_ms": self.mean_wall_ms,
            "median_wall_ms": self.median_wall_ms,
        }


@dataclass
class BenchmarkReport:
    plan: BenchmarkPlan
    cells: list
    rows: list

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.to_json_dict(),
            "cells": [c.to_json_dict() for c in self.cells],
        }

    def write_csv(self, path_or_file):
        own = isinstance(path_or_file, str)
        fh = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
        finally:
            if own:
                fh.close()

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def write_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def _run_instance(args) -> list:
    """Worker body: generate one instance, run the selected methods."""
    n, two_d, K, seed, methods, mu_cap, time_cap = args
    f = random_family_instance(FamilyParams(n=n, d=two_d // 2, K=K, seed=seed))
    base = {"n": n, "two_d": two_d, "K": K, "seed": seed}
    rows = []
    bound = None
    oracle_min = None
    extract_ok = False
    mu = (two_d - 1) ** n
    for method in methods:
        row = dict(base, method=method)
        t0 = time.perf_counter()
        try:
            if method == "sos":
                res = minimize(f, extract=True, refine=True)
                bound = None if res.bound == MINUS_INFINITY else res.bound
                extract_ok = bool(res.extraction and res.extraction.found)
                row["status"] = res.status.value
                row["bound"] = res.bound
                row["extract_ok"] = extract_ok
            else:
                if mu > mu_cap:
                    row["status"] = "skipped_mu_cap"
                else:
                    orc = minimize_by_eigenvalues(f, mu_cap=mu_cap * 4)
                    oracle_min = orc.fstar
                    row["status"] = "ok"
                    row["bound"] = orc.fstar
        except (SdpFailure, NotGroebnerError, NoRealCriticalPointsError,
                MuCapExceededError) as exc:
            row["status"] = f"error:{type(exc).__name__}"
        wall = (time.perf_counter() - t0) * 1000.0
        row["wall_ms"] = round(wall, 3)
        if time_cap is not None and wall > time_cap * 1000.0:
            row["over_time_cap"] = True
        rows.append(row)
    agree = ""
    if bound is not None and oracle_min is not None:
        agree = abs(bound - oracle_min) <= 1e-5 * (1.0 + abs(oracle_min))
    for row in rows:
        row["oracle_min"] = oracle_min if oracle_min is not None else ""
        row["agree"] = agree
    return rows


def run_benchmark(plan: BenchmarkPlan) -> BenchmarkReport:
    """Execute the plan; per-instance failures are recorded, never raised."""
    tasks = []
    for ci, (n, two_d) in enumerate(plan.cells):
        for ki, K in enumerate(plan.K_values):
            for inst in range(plan.instances):
                seed = plan.instance_seed(ci, ki, inst)
                tasks.append((n, two_d, K, seed, tuple(plan.methods),
                              plan.mu_cap, plan.time_cap_s))
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            all_rows = list(pool.map(_run_instance, tasks))
    else:
        all_rows = [_run_instance(t) for t in tasks]
    rows = [r for chunk in all_rows for r in chunk]

    cells = []
    for ci, (n, two_d) in enumerate(plan.cells):
        for ki, K in enumerate(plan.K_values):
            sub = [r for r in rows if r["n"] == n and r["two_d"] == two_d
                   and r["K"] == K]
            agreement = disagreement = skipped = extract_ok = 0
            failures = []
            per_method: dict = {m: [] for m in plan.methods}
            seeds = sorted({r["seed"] for r in sub})
            for seed in seeds:
                inst_rows = [r for r in sub if r["seed"] == seed]
                agr = inst_rows[0]["agree"]
                if agr is True:
                    agreement += 1
                elif agr is False:
                    disagreement += 1
                else:
                    skipped += 1
                if any(r.get("extract_ok") for r in inst_rows):
                    extract_ok += 1
                for r in inst_rows:
                    status = str(r.get("status", ""))
                    if status.startswith("error"):
                        failures.append({"seed": seed, "method": r["method"],
                                         "status": status})
                    per_method[r["method"]].append(r["wall_ms"])
            mean_ms = {m: (sum(v) / len(v) if v else None)
                       for m, v in per_method.items()}
            median_ms = {m: (sorted(v)[len(v) // 2] if v else None)
                         for m, v in per_method.items()}
            cells.append(CellReport(
                n=n, two_d=two_d, K=K, instances=len(seeds),
                agreement=agreement, disagreement=disagreement, skipped=skipped,
                extraction_successes=extract_ok, failures=failures,
                mean_wall_ms=mean_ms, median_wall_ms=median_ms,
            ))
    return BenchmarkReport(plan=plan, cells=cells, rows=rows)


__all__ = ["BenchmarkPlan", "BenchmarkReport", "CellReport", "run_benchmark",
           "CSV_COLUMNS"]
