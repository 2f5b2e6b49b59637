"""Spans around calls into enopt's public functions, recorded from outside.

The benchmark never edits the package.  While a traced instance runs, the
module attributes listed in ``WRAPPED`` are swapped for timing wrappers; they
are restored as soon as the instance ends, so untraced instances run the
package untouched.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import NamedTuple

# (owner, attribute, span name).  A function imported by name into several
# modules is wrapped under every name the package calls it by.
WRAPPED = (
    ("enopt.scenario", "load_scenario", "scenario.load"),
    ("enopt.model", "validate_system", "model.validate"),
    ("enopt.formulate", "compile_system", "formulate.compile"),
    ("enopt.formulate", "write_lp", "formulate.write_lp"),
    ("enopt.formulate:LinearProgram", "fingerprint", "formulate.fingerprint"),
    ("enopt.solver.standard", "standardize", "standard.standardize"),
    ("enopt.solver.lp", "standardize", "standard.standardize"),
    ("enopt.solver.branch_bound", "standardize", "standard.standardize"),
    ("enopt.solver.lp", "solve_lp", "lp.solve_lp"),
    ("enopt.solver.lp", "solve_standard_lp", "simplex.solve"),
    ("enopt.solver.branch_bound", "solve_standard_lp", "simplex.solve"),
    ("enopt.solver.simplex", "splu", "simplex.lu"),
    ("enopt.solver.branch_bound", "solve_milp", "bb.solve_milp"),
    ("enopt.solver.certificate", "check_certificate", "certificate.check"),
    ("enopt.analyze", "extract_report", "analyze.report"),
    ("enopt.analyze", "verify_solution", "analyze.verify"),
    ("enopt.cli", "run", "cli.run"),
)

ROOT_SPAN = "instance"

# Layer (module) each span's self time belongs to; "bench" is the benchmark's
# own code between calls into the package.
LAYER_OF_SPAN = {
    ROOT_SPAN: "bench",
    "scenario.load": "scenario",
    "model.validate": "model",
    "formulate.compile": "formulate",
    "formulate.write_lp": "formulate",
    "formulate.fingerprint": "formulate",
    "standard.standardize": "solver.standard",
    "lp.solve_lp": "solver.simplex",
    "simplex.solve": "solver.simplex",
    "simplex.lu": "solver.simplex",
    "bb.solve_milp": "solver.branch_bound",
    "certificate.check": "solver.certificate",
    "analyze.report": "analyze",
    "analyze.verify": "analyze",
    "cli.run": "cli",
}

# Counts read off a call's return value (attribute reads only, so the
# wrapper stays cheap).
_INFO = {
    "simplex.solve": lambda out: (out.status, out.iterations),
    "bb.solve_milp": lambda sol: sol.nodes,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for an instance's root
    instance: int
    info: object = None


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._instance = -1
        self._root_start = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            obj = _resolve(owner)
            fn = getattr(obj, attr)
            self._saved.append((obj, attr, fn))
            setattr(obj, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    def open(self, instance: int) -> None:
        """Start the root span of one instance; wrapped calls record only
        while an instance is open."""
        self._instance = instance
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._root_start = time.perf_counter()

    def close(self) -> None:
        end = time.perf_counter()
        idx = self._stack.pop()
        self.spans[idx] = Span(ROOT_SPAN, self._root_start, end, -1, self._instance)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(result) if info is not None and result is not None else None
                spans[idx] = Span(name, start, end, parent, self._instance, extra)

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are nested and sequential (one thread), so children never overlap
    and their coverage is the sum of their durations."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def per_instance(spans: list[Span]) -> dict[int, dict]:
    """Aggregate spans by instance: per span name the call count, inclusive
    and self seconds; per layer the self seconds; and the solver counters."""
    selfs = self_times(spans)
    out: dict[int, dict] = {}
    for s, own in zip(spans, selfs):
        agg = out.get(s.instance)
        if agg is None:
            agg = out[s.instance] = {
                "calls": defaultdict(int), "incl": defaultdict(float),
                "self": defaultdict(float), "layer": defaultdict(float),
                "iterations": 0, "bb_lps": 0, "bb_iterations": 0,
                "bb_infeasible": 0, "bb_nodes": 0}
        agg["calls"][s.name] += 1
        agg["incl"][s.name] += s.end - s.start
        agg["self"][s.name] += own
        agg["layer"][LAYER_OF_SPAN[s.name]] += own
        if s.info is None:  # the call raised, or returns no counts
            continue
        if s.name == "simplex.solve":
            status, iterations = s.info
            agg["iterations"] += iterations
            if s.parent >= 0 and spans[s.parent].name == "bb.solve_milp":
                agg["bb_lps"] += 1
                agg["bb_iterations"] += iterations
                agg["bb_infeasible"] += status == "infeasible"
        elif s.name == "bb.solve_milp":
            agg["bb_nodes"] += s.info
    return out


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op in this process."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "calibration")
    tracer.open(0)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    tracer.close()
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    return max(traced - plain, 0.0) / calls
