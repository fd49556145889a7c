"""Layer tracing from outside the program.

``Instrument`` replaces module-level names that one polymin module binds and
calls in the next layer (``polymin.sos.solve``, ``polymin.sdp.spd_cholesky``,
``polymin.groebner.normal_form``, ...) with wrappers, and puts the originals
back on exit.  Timed, each wrapper records a span: layer name, calling
module, parent span, op id, start and end (``perf_counter``).  Untimed, only
the SDP solve bindings are wrapped, to read the solver's status and warnings
off each returned ``SdpSolution``; nothing is timed then.

A name that does not exist (a later version removed or renamed it) is listed
in ``absent`` and skipped; it never stops a run.

Span names are layer names ``<module>.<function>``; ``handelman.solve_lp`` is
the LP that the Handelman module runs through ``polymin.sdp.solve_lp``.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module whose binding is wrapped, attribute, layer name)
TARGETS = [
    ("polymin.poly", "random_family_instance", "poly.random_family_instance"),
    ("polymin.sos", "minimize", "sos.minimize"),
    ("polymin.sos", "sos_lower_bound", "sos.sos_lower_bound"),
    ("polymin.sos", "build_gram_sdp", "sos.build_gram_sdp"),
    ("polymin.sos", "extract_certificate", "sos.extract_certificate"),
    ("polymin.sos", "extract_minimizer", "sos.extract_minimizer"),
    ("polymin.sos", "local_refine", "refine.local_refine"),
    ("polymin.sos", "solve", "sdp.solve"),
    ("polymin.sos", "psd_factor", "linalg.psd_factor"),
    ("polymin.sdp", "solve", "sdp.solve"),
    ("polymin.sdp", "spd_cholesky", "linalg.spd_cholesky"),
    ("polymin.sdp", "psd_factor", "linalg.psd_factor"),
    ("polymin.groebner", "minimize_by_eigenvalues", "groebner.minimize_by_eigenvalues"),
    ("polymin.groebner", "is_groebner", "groebner.is_groebner"),
    ("polymin.groebner", "standard_monomials", "groebner.standard_monomials"),
    ("polymin.groebner", "multiplication_matrix", "groebner.multiplication_matrix"),
    ("polymin.groebner", "normal_form", "groebner.normal_form"),
    ("polymin.groebner", "eig_general", "linalg.eig_general"),
    ("polymin.handelman", "handelman_ladder", "handelman.handelman_ladder"),
    ("polymin.handelman", "handelman_bound", "handelman.handelman_bound"),
    ("polymin.handelman", "solve_lp", "handelman.solve_lp"),
    ("polymin.psatz", "find_witness", "psatz.find_witness"),
    ("polymin.psatz", "verify_witness", "psatz.verify_witness"),
    ("polymin.psatz", "bounded_minimization", "psatz.bounded_minimization"),
    ("polymin.psatz", "sos_lower_bound", "sos.sos_lower_bound"),
    ("polymin.psatz", "solve", "sdp.solve"),
    ("polymin.psatz", "psd_factor", "linalg.psd_factor"),
]

# layers bound in several modules get per-caller rows ``<layer>.from_<caller>``
SPLIT_BY_CALLER = {name for _, _, name in TARGETS
                   if sum(1 for t in TARGETS if t[2] == name) > 1}
SDP_SOLVE = "sdp.solve"
OP = "bench.op"              # root span of an op; its self time is the check


class Span:
    __slots__ = ("name", "caller", "parent", "op", "start", "end", "attrs")

    def __init__(self, name, caller, parent, op, start):
        self.name, self.caller, self.parent, self.op = name, caller, parent, op
        self.start, self.end, self.attrs = start, None, {}

    def to_json(self) -> dict:
        return {"name": self.name, "caller": self.caller, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end, **self.attrs}


def _annotate(name: str, args, out) -> dict:
    """Counts read off a call's arguments and result."""
    if name == SDP_SOLVE:
        return {"status": out.status.value, "iterations": out.iterations,
                "warnings": list(out.warnings),
                "constraints": args[0].num_constraints}
    if name == "handelman.solve_lp":
        return {"columns": len(args[0])}
    if name == "groebner.minimize_by_eigenvalues":
        return {"mu": out.mu, "tf_nnz": out.tf_nnz}
    return {}


class Instrument:
    """Context manager that wraps the targets and restores them on exit."""

    def __init__(self, timed: bool, targets=TARGETS):
        self.timed = timed
        self.targets = targets if timed else [t for t in targets if t[2] == SDP_SOLVE]
        self.spans: list[Span] = []
        self.solutions: list[tuple] = []     # (op id, annotation) per SDP solve
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, module_name.rsplit(".", 1)[-1]))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def begin_op(self, op_id):
        self.op = op_id
        if self.timed:
            self._open(OP, "bench")

    def end_op(self):
        if self.timed:
            self._close()
        self.op = None

    def _open(self, name, caller) -> Span:
        span = Span(name, caller, self._stack[-1] if self._stack else None, self.op,
                    time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, fn, name, caller):
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not inst.timed:
                out = fn(*args, **kwargs)
                inst.solutions.append((inst.op, _annotate(name, args, out)))
                return out
            span = inst._open(name, caller)
            try:
                out = fn(*args, **kwargs)
            finally:
                inst._close()
            span.attrs = _annotate(name, args, out)
            if name == SDP_SOLVE:
                inst.solutions.append((inst.op, span.attrs))
            return out

        return wrapper


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _self_times(spans):
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            self_s[s.parent] -= s.end - s.start
    return self_s


def _ancestor_named(spans, i, name) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _outermost(spans, i) -> bool:
    """No ancestor of span i carries its name (a recursive call counts once)."""
    return not _ancestor_named(spans, i, spans[i].name)


def layer_table(spans, ops=None) -> dict:
    """{layer: {"calls", "s", "self_s"}}, with per-caller rows for SPLIT_BY_CALLER.

    ``ops`` restricts the table to spans of those op ids.
    """
    self_s = _self_times(spans)
    table: dict = {}
    for i, s in enumerate(spans):
        if ops is not None and s.op not in ops:
            continue
        dur = s.end - s.start
        keys = [s.name] + ([f"{s.name}.from_{s.caller}"] if s.name in SPLIT_BY_CALLER else [])
        for key in keys:
            row = table.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s[i]
            if _outermost(spans, i):
                row["s"] += dur
    return table


def layer_metrics(spans, names) -> dict:
    """The named ``<layer>.<stat>`` values and counts read off annotations;
    an unknown name raises KeyError."""
    # every traceable layer reads zero until a span says otherwise
    layers = {name for _, _, name in TARGETS} | {OP}
    layers |= {f"{name}.from_{module.rsplit('.', 1)[-1]}"
               for module, _, name in TARGETS if name in SPLIT_BY_CALLER}
    flat = {f"{layer}.{stat}": 0 for layer in layers for stat in ("calls", "s", "self_s")}
    for layer, row in layer_table(spans).items():
        flat.update({f"{layer}.{stat}": v for stat, v in row.items()})
    solves = [s for s in spans if s.name == SDP_SOLVE]
    flat["sdp.iterations"] = sum(s.attrs.get("iterations", 0) for s in solves)
    flat["sdp.constraints"] = sum(s.attrs.get("constraints", 0) for s in solves)
    flat["sdp.warnings"] = sum(1 for s in solves if s.attrs.get("warnings"))
    flat["sdp.failures"] = sum(1 for s in solves if s.attrs.get("status") != "optimal")
    flat["handelman.lp_columns"] = sum(s.attrs.get("columns", 0) for s in spans
                                       if s.name == "handelman.solve_lp")
    oracle = [s for i, s in enumerate(spans)
              if s.name == "groebner.minimize_by_eigenvalues" and _outermost(spans, i)]
    flat["groebner.mu"] = sum(s.attrs.get("mu", 0) for s in oracle)
    flat["groebner.tf_nnz"] = sum(s.attrs.get("tf_nnz", 0) for s in oracle)
    minimizes = [i for i, s in enumerate(spans)
                 if s.name == "sos.minimize" and _outermost(spans, i)]
    in_minimize = sum(1 for i, s in enumerate(spans)
                      if s.name == SDP_SOLVE and _ancestor_named(spans, i, "sos.minimize"))
    flat["sos.solves_per_op"] = in_minimize / len(minimizes) if minimizes else 0.0
    return {name: flat[name] for name in names}


def top_layers(spans, ops, k=3):
    table = layer_table(spans, ops)
    rows = [(row["self_s"], name) for name, row in table.items() if ".from_" not in name]
    return [(name, t) for t, name in sorted(rows, reverse=True)[:k]]
