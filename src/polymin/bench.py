"""Benchmark harness: random instances, method timing, agreement checks.

A plan names a grid of (variables, degree) cells, the number of instances
per cell and coefficient bound, and which methods to run (the SDP bound, the
algebraic eigenvalue oracle, or both).  Instances are generated from the
seeded family generator, so a plan plus its base seed reproduces the exact
same polynomial stream; per-method wall time covers the method call only.

Cells whose critical-point count exceeds the oracle cap run the SDP method
only.  Instances run one after another in plan order, so the report of a
given plan is deterministic (timings aside).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field

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
    mu_cap: int = 3000

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
        return {**asdict(self), "cells": [list(c) for c in self.cells]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BenchmarkPlan":
        return cls(
            cells=[tuple(c) for c in data["cells"]],
            instances=int(data["instances"]),
            K_values=[int(k) for k in data.get("K_values", [100])],
            methods=list(data.get("methods", ["sos", "eig-oracle"])),
            seed_base=int(data.get("seed_base", 20240001)),
            mu_cap=int(data.get("mu_cap", 3000)),
        )

    def instance_seed(self, cell_index: int, k_index: int, instance: int) -> int:
        # fixed arithmetic so plans are reproducible across runs
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
        return asdict(self)


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


def _run_instance(n: int, two_d: int, K: int, seed: int, methods, mu_cap: int) -> list:
    """Generate one instance and run the selected methods on it."""
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
                res = minimize(f)
                bound = None if res.bound == MINUS_INFINITY else res.bound
                extract_ok = bool(res.extraction and res.extraction.found)
                row["status"] = res.status.value
                row["bound"] = res.bound
                row["extract_ok"] = extract_ok
            else:
                if mu > mu_cap:
                    row["status"] = "skipped_mu_cap"
                else:
                    orc = minimize_by_eigenvalues(f, mu_cap=mu_cap)
                    oracle_min = orc.fstar
                    row["status"] = "ok"
                    row["bound"] = orc.fstar
        except (SdpFailure, NotGroebnerError, NoRealCriticalPointsError,
                MuCapExceededError) as exc:
            row["status"] = f"error:{type(exc).__name__}"
        row["wall_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
        rows.append(row)
    agree = ""
    if bound is not None and oracle_min is not None:
        # a NumPy bound would make a NumPy bool, which `agr is True` misses
        agree = bool(abs(bound - oracle_min) <= 1e-5 * (1.0 + abs(oracle_min)))
    for row in rows:
        row["oracle_min"] = oracle_min if oracle_min is not None else ""
        row["agree"] = agree
    return rows


def run_benchmark(plan: BenchmarkPlan) -> BenchmarkReport:
    """Execute the plan; per-instance failures are recorded, never raised."""
    rows, cells = [], []
    for ci, (n, two_d) in enumerate(plan.cells):
        for ki, K in enumerate(plan.K_values):
            agreement = disagreement = skipped = extract_ok = 0
            failures = []
            per_method: dict = {m: [] for m in plan.methods}
            for inst in range(plan.instances):
                seed = plan.instance_seed(ci, ki, inst)
                inst_rows = _run_instance(n, two_d, K, seed, plan.methods, plan.mu_cap)
                rows += inst_rows
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
                n=n, two_d=two_d, K=K, instances=plan.instances,
                agreement=agreement, disagreement=disagreement, skipped=skipped,
                extraction_successes=extract_ok, failures=failures,
                mean_wall_ms=mean_ms, median_wall_ms=median_ms,
            ))
    return BenchmarkReport(plan=plan, cells=cells, rows=rows)


__all__ = ["BenchmarkPlan", "BenchmarkReport", "CellReport", "run_benchmark",
           "CSV_COLUMNS"]
