"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench/test_bench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from enopt.formulate import Family, LinearProgram, VarKind, VarRef  # noqa: E402
from enopt.solver import solve_lp  # noqa: E402
from enopt.solver.standard import standardize  # noqa: E402


def _three_sense_program(extra_rows=()):
    """min x + 3y + z  s.t.  x + y >= 3,  x - y <= 1,  y + z = 2,  0 <= x, y, z <= 10.

    The optimum is 6 at (2, 1, 1).  Reading the slack bounds as the row
    range itself (b + s_lo <= a.x <= b + s_hi) flips both inequalities and
    gives 3 instead."""
    prog = LinearProgram()
    refs = [VarRef(VarKind.OUTPUT, name) for name in "xyz"]
    for ref in refs:
        prog.add_variable(ref, 0.0, 10.0)
    x, y, z = refs
    prog.add_row(Family.NODE_BALANCE, [(x, 1.0), (y, 1.0)], ">=", 3.0)
    prog.add_row(Family.NODE_BALANCE, [(x, 1.0), (y, -1.0)], "<=", 1.0)
    prog.add_row(Family.NODE_BALANCE, [(y, 1.0), (z, 1.0)], "=", 2.0)
    for terms, sense, rhs in extra_rows:
        prog.add_row(Family.NODE_BALANCE, [(refs[j], c) for j, c in terms], sense, rhs)
    for ref, cost in zip(refs, (1.0, 3.0, 1.0)):
        prog.add_cost(ref, cost)
    return prog.finalize()


def test_highs_reference_reads_all_three_row_senses():
    prog = _three_sense_program()
    status, objective, seconds = reference.highs_solve(standardize(prog))
    assert status == "optimal"
    assert objective == pytest.approx(6.0, abs=1e-9)
    assert seconds >= 0.0
    assert solve_lp(prog).objective == pytest.approx(objective, abs=1e-9)


def test_highs_reference_reports_infeasible():
    prog = _three_sense_program(extra_rows=[([(0, 1.0), (1, 1.0)], ">=", 30.0)])
    status, _, _ = reference.highs_solve(standardize(prog))
    assert status == "infeasible"
    assert solve_lp(prog).status.value == "infeasible"


def test_self_time_subtracts_direct_children():
    S = tracer.Span
    spans = [S("instance", 0.0, 10.0, -1, 0), S("cli.run", 1.0, 4.0, 0, 0),
             S("formulate.compile", 2.0, 3.0, 1, 0), S("certificate.check", 5.0, 9.0, 0, 0)]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    agg = tracer.per_instance(spans)[0]
    assert agg["layer"]["bench"] == pytest.approx(3.0)
    assert agg["layer"]["cli"] == pytest.approx(2.0)
    assert sum(agg["layer"].values()) == pytest.approx(10.0)


def test_tracing_is_transparent_and_restores_the_package():
    import enopt.formulate
    import enopt.solver.lp

    original = enopt.solver.lp.solve_standard_lp
    rng = np.random.default_rng(3)
    doc = workloads.paper_system_doc(24, rng, workloads._make_series())
    system = workloads.scenario.system_from_dict(doc["system"])
    plain = workloads.solve_pipeline(system)

    t = tracer.Tracer()
    t.install()
    assert enopt.solver.lp.solve_standard_lp is not original
    t.open(0)
    traced = workloads.solve_pipeline(system)
    t.close()
    t.uninstall()
    assert enopt.solver.lp.solve_standard_lp is original
    assert enopt.formulate.LinearProgram.fingerprint.__name__ == "fingerprint"
    assert not hasattr(enopt.formulate.LinearProgram.fingerprint, "__wrapped__")

    lp = workloads.LpHorizon()
    assert lp.signature(traced) == lp.signature(plain)
    assert not traced.problems
    names = {s.name for s in t.spans}
    assert {"instance", "formulate.compile", "model.validate", "lp.solve_lp",
            "standard.standardize", "simplex.solve", "simplex.lu", "analyze.report",
            "analyze.verify", "certificate.check"} <= names
    agg = tracer.per_instance(t.spans)[0]
    assert agg["iterations"] == plain.sol.iterations


def test_generators_follow_the_seed():
    series = workloads._make_series()
    a = workloads.paper_system_doc(48, np.random.default_rng(5), series)
    b = workloads.paper_system_doc(48, np.random.default_rng(5), series)
    c = workloads.paper_system_doc(48, np.random.default_rng(6), series)
    assert a == b and a != c
    for seed in range(20):
        doc = workloads.commitment_doc(np.random.default_rng(seed))
        load = doc["system"]["nodes"][0]["load"]
        assert len(load) == 12 and all(6.0 <= v <= 18.0 for v in load)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    assert run.tail(list(range(20)))[0] == 50.0
    pct, value, beyond = run.tail([float(i) for i in range(200)])
    assert (pct, beyond) == (95.0, 10) and value == 189.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


class _Flaky(workloads.Workload):
    """Reproduces nothing: each run has a new signature, the third raises."""

    name = "flaky"

    def __init__(self):
        self.calls = 0

    def run(self, item):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("boom")
        return workloads.Outcome(prog=None)

    def steps(self, item):
        return 1

    def signature(self, outcome):
        return (self.calls,)

    @staticmethod
    def counts(outcome):
        return {}


def test_drift_and_exceptions_fail_instances_without_stopping_the_run():
    records, draws, ref_times = run.measure(_Flaky(), ["only input"], 0.2, None)
    assert len(ref_times) >= run.REF_REPEATS
    assert len(records) >= 4
    assert records[0].problems == []
    assert "determinism drift" in records[1].problems[0]
    assert "RuntimeError: boom" in records[2].problems[0]
    assert list(draws) == [0]
