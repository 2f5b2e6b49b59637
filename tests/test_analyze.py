import dataclasses
import math

import numpy as np
import pytest

from enopt import cli
from enopt import model as M
from enopt.analyze import (
    NoSolutionError,
    SolutionView,
    emissions_total,
    extract_report,
    verify_solution,
)
from enopt.formulate import Family, VarKind, VarRef, compile_system
from enopt.scenario import load_scenario
from enopt.solver import SolverConfig, Status, solve, solve_milp
from enopt.solver.core import FEASIBILITY_TOL

from conftest import single_node_system, storage_system
from oracles import rows_tagged


def _solved(sys_, **kwargs):
    prog = compile_system(sys_, **kwargs)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    return prog, sol


def test_single_step_schedule_equals_solver_output():
    sys_ = single_node_system(loads=(7.5,))
    prog, sol = _solved(sys_)
    report = extract_report(sys_, prog, sol)
    j = prog.index(VarRef(VarKind.OUTPUT, "plant", 0))
    assert report.schedules["plant"][0] == sol.values[j] == pytest.approx(7.5)


def test_report_requires_usable_status():
    sys_ = single_node_system(loads=(5.0,), co2_cap=0.0)
    comp = dataclasses.replace(sys_.components[0],
                               costs=M.CostSpec(fuel=5.0, emission_factor=1.0))
    sys_ = dataclasses.replace(sys_, components=(comp,))
    prog = compile_system(sys_)
    sol = solve(prog)
    assert sol.status == Status.INFEASIBLE
    with pytest.raises(NoSolutionError):
        extract_report(sys_, prog, sol)


def test_partial_load_realized_efficiency():
    """Output 3 at slope 2 and offset 1 realises 3 / (2*3 + 1) = 3/7."""
    grid = M.TimeGrid((1.0,))
    sys_ = M.EnergySystem(
        grid,
        (M.Node("elec", "e", (0.0,)), M.Node("heat", "h", (3.0,)),
         M.Node("grid", "e", (0.0,), boundary=True)),
        (M.Component("chp_unit", M.SingleConversion("elec", "heat", 0.9),
                     M.CapacitySpec(),
                     commitment=M.UnitCommitment(
                         unit_capacity=5.0, unit_min_load=3.0, startup_cost=1.0,
                         partial_load=M.PartialLoad(2.0, 1.0)),
                     costs=M.CostSpec(fuel=1.0)),
         M.Component("import", M.SourceConversion("elec"),
                     M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=10.0)),))
    prog, sol = _solved(sys_)
    report = extract_report(sys_, prog, sol)
    assert report.schedules["chp_unit"][0] == pytest.approx(3.0)
    assert report.partial_load_efficiency["chp_unit"][0] == pytest.approx(3.0 / 7.0)
    # the electricity drawn is slope*out + offset*on = 7, covered by imports
    assert report.schedules["import"][0] == pytest.approx(7.0)


def test_emissions_hand_computation():
    sys_ = single_node_system(loads=(10.0,))
    comp = dataclasses.replace(
        sys_.components[0],
        conversion=M.SingleConversion("fuel", "elec", 0.4),
        costs=M.CostSpec(fuel=5.0, emission_factor=0.202))
    sys_ = dataclasses.replace(sys_, components=(comp,))
    prog, sol = _solved(sys_)
    assert emissions_total(sys_, prog, sol) == pytest.approx(10.0 / 0.4 * 0.202)  # 5.05
    report = extract_report(sys_, prog, sol)
    assert report.emissions_kg == pytest.approx(5.05)


def test_zero_schedule_and_clean_sources_emit_nothing():
    grid = M.TimeGrid((1.0, 1.0))
    sys_ = M.EnergySystem(
        grid, (M.Node("elec", "e", (3.0, 1.0)),),
        (M.Component("pv", M.SourceConversion("elec"),
                     M.CapacitySpec(optimizable=True, availability=(0.8, 0.5)),
                     costs=M.CostSpec(invest=100.0)),))
    prog, sol = _solved(sys_)
    assert emissions_total(sys_, prog, sol) == 0.0


def test_cost_breakdown_matches_objective(coverage_system):
    prog, sol = _solved(coverage_system)
    report = extract_report(coverage_system, prog, sol)
    assert report.breakdown_total == pytest.approx(
        sol.objective, rel=1e-6, abs=1e-6)
    assert set(report.cost_breakdown) == {
        "fuel", "invest", "maintenance", "startup", "storage", "ramp",
        "emission", "built"}


def test_curtailment_is_non_negative(coverage_system):
    prog, sol = _solved(coverage_system)
    report = extract_report(coverage_system, prog, sol)
    for cid, series in report.curtailment.items():
        assert np.all(series >= -1e-6), cid


def test_fill_levels_within_bounds(coverage_system):
    prog, sol = _solved(coverage_system)
    report = extract_report(coverage_system, prog, sol)
    for sid, fill in report.storage_fill.items():
        cap = report.storage_capacities[sid]
        assert np.all(fill >= -1e-6)
        assert np.all(fill <= cap + 1e-6)


def test_verify_passes_on_clean_optimum(coverage_system):
    prog, sol = _solved(coverage_system)
    report = verify_solution(coverage_system, prog, sol)
    assert report.passed
    assert all(f.checks > 0 for f in report.families), [
        f.family for f in report.families if f.checks == 0]


def test_verify_accepts_other_feasible_points(coverage_system):
    """Feasibility families hold for any feasible point of the compiled
    program, not just the integer optimum: the continuous relaxation's
    optimum maps back onto valid domain quantities too."""
    from enopt.solver import solve_lp

    prog = compile_system(coverage_system)
    relaxed = solve_lp(prog)
    assert relaxed.status == Status.OPTIMAL
    report = verify_solution(coverage_system, prog, relaxed)
    assert report.passed, [str(f) for f in report.families
                           if f.residual > FEASIBILITY_TOL]


def test_verify_flags_capacity_violation():
    sys_ = single_node_system(loads=(5.0, 5.0))
    prog, sol = _solved(sys_)
    values = sol.values.copy()
    values[prog.index(VarRef(VarKind.OUTPUT, "plant", 0))] += 3.0
    bad = dataclasses.replace(sol, values=values)
    report = verify_solution(sys_, prog, bad)
    assert report.residual(Family.CAPACITY_LIMIT) > 0.1
    assert not report.passed


@pytest.mark.parametrize("ref, limit, family", [
    pytest.param(VarRef(VarKind.STORAGE_CAPACITY, "battery"), 40.0, Family.MAX_INSTALLED,
                 id="storage_capacity_max"),
    pytest.param(VarRef(VarKind.ON, "peaker", 2), 1.0, Family.UNIT_COUNT,
                 id="fixed_unit_count"),
    pytest.param(VarRef(VarKind.UNITS, "blocks"), 3.0, Family.MAX_INSTALLED,
                 id="optimized_max_units")])
def test_verify_flags_limits_compiled_only_as_bounds(coverage_system, ref, limit, family):
    """A storage's capacity_max and a commitment's max_units become column
    bounds, not rows; the verifier still checks each against the system."""
    from enopt.solver import solve_lp

    prog = compile_system(coverage_system)
    relaxed = solve_lp(prog)
    values = relaxed.values.copy()
    assert values[prog.index(ref)] <= limit
    values[prog.index(ref)] = limit + 1.0
    report = verify_solution(coverage_system, prog, dataclasses.replace(relaxed, values=values))
    assert report.residual(family) > 0
    assert not report.passed


def test_verify_flags_node_imbalance():
    sys_ = single_node_system(loads=(5.0, 5.0))
    prog, sol = _solved(sys_)
    values = sol.values.copy()
    values[prog.index(VarRef(VarKind.OUTPUT, "plant", 1))] -= 1.0
    report = verify_solution(sys_, prog, dataclasses.replace(sol, values=values))
    assert report.residual(Family.NODE_BALANCE) > 0.1


def test_verify_downtime_windows_clean_after_milp():
    from test_solver_milp import downtime_toy

    sys_ = downtime_toy()
    prog = compile_system(sys_)
    sol = solve_milp(prog)
    report = verify_solution(sys_, prog, sol)
    assert report.residual(Family.MIN_DOWNTIME) == 0.0
    assert report.checks(Family.MIN_DOWNTIME) > 0


def test_verify_objective_recheck_needs_program():
    sys_ = single_node_system(loads=(2.0,))
    prog, sol = _solved(sys_)
    assert verify_solution(sys_, prog, sol).checks(Family.OBJECTIVE_VALUE) == 1
    with pytest.raises(TypeError):
        verify_solution(sys_, sol)  # the program is required


@pytest.fixture(scope="module")
def paper_48(scenario_dir):
    sys_ = load_scenario(scenario_dir / "paper_system_48.json").system
    prog, sol = _solved(sys_)
    return sys_, prog, sol


@pytest.mark.parametrize("spoil", ["every value NaN", "one output NaN", "objective NaN",
                                   "one output inf"])
def test_verify_fails_on_non_finite_points(paper_48, spoil):
    sys_, prog, sol = paper_48
    assert verify_solution(sys_, prog, sol).passed
    values, objective = sol.values.copy(), sol.objective
    out = prog.index(VarRef(VarKind.OUTPUT, sys_.components[0].id, 5))
    if spoil == "every value NaN":
        values[:] = np.nan
    elif spoil == "one output NaN":
        values[out] = np.nan
    elif spoil == "one output inf":
        values[out] = np.inf
    else:
        objective = np.nan
    report = verify_solution(sys_, prog, dataclasses.replace(sol, values=values,
                                                             objective=objective))
    assert not report.passed
    assert not math.isfinite(report.worst)
    assert report.summary_lines()[0].startswith("verification FAIL")


def test_report_refuses_a_limit_run_without_incumbent(scenario_dir, tmp_path):
    scn = load_scenario(scenario_dir / "commitment_demo.json")
    prog = compile_system(scn.system)
    sol = solve(prog, SolverConfig(max_nodes=1))
    assert sol.status == Status.GAP_LIMIT and not sol.integral and math.isinf(sol.objective)
    with pytest.raises(NoSolutionError, match="before any incumbent"):
        extract_report(scn.system, prog, sol)
    report, _, code = cli.run(scn, tmp_path, solver_overrides={"max_nodes": 1})
    assert report is None and code == cli.EXIT_LIMIT == 5
    assert (tmp_path / "summary.txt").read_text() == (
        f"status: gap_limit\nmessage: {sol.message}\n")


def test_emissions_match_cap_row_activity():
    """The reported total re-derives the cap row's activity to 1e-9."""
    sys_ = dataclasses.replace(single_node_system(loads=(6.0, 4.0, 9.0)),
                               co2_cap=1000.0)
    comp = dataclasses.replace(
        sys_.components[0],
        costs=M.CostSpec(fuel=5.0, emission_factor=0.202))
    sys_ = dataclasses.replace(sys_, components=(comp,))
    prog, sol = _solved(sys_)
    row = rows_tagged(prog, Family.CO2_CAP)[0]
    activity = sum(coef * sol.values[j] for j, coef in row.terms)
    assert abs(emissions_total(sys_, prog, sol) - activity) <= 1e-9


def test_dispatch_statistics_reported(coverage_system):
    prog, sol = _solved(coverage_system)
    report = extract_report(coverage_system, prog, sol)
    assert set(report.capacity_factors) == {c.id for c in coverage_system.components}
    for cid, factor in report.capacity_factors.items():
        assert -1e-9 <= factor <= 1.0 + 1e-9, cid
    assert all(v >= 0.0 for v in report.output_variance.values())


def test_storage_report_fill_matches_hand_cumulative():
    sys_ = storage_system((4.0, 2.0, 6.0), etac=0.9, etad=0.8)
    prog, sol = _solved(sys_)
    report = extract_report(sys_, prog, sol)
    view = SolutionView(sys_, prog, sol)
    charge = report.storage_charge["store"]
    discharge = report.storage_discharge["store"]
    fill = 0.0
    for t in range(3):
        fill += charge[t] * 0.9 - discharge[t] / 0.8
        assert report.storage_fill["store"][t] == pytest.approx(fill, abs=1e-9)
