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
    """Output 3 at slope 2 and offset 1 draws 2*3 + 1 = 7 MW of electricity."""
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


def test_output_within_available_capacity(coverage_system):
    prog, sol = _solved(coverage_system)
    residuals = extract_report(coverage_system, prog, sol).residuals
    for fam in (Family.CAPACITY_LIMIT, Family.PERIOD_CAPACITY, Family.COMMIT_MAX):
        assert residuals.residual(fam) <= FEASIBILITY_TOL, fam
        assert residuals.checks(fam) > 0, fam


def test_zero_interest_annuity_verifies():
    """At zero interest the capital recovery factor is 1/lifetime, and the
    verifier's direct form takes its own zero-rate branch."""
    sys_ = single_node_system(loads=(5.0, 8.0))
    comp = dataclasses.replace(
        sys_.components[0],
        costs=M.CostSpec(fuel=20.0, annuity=M.AnnuityInput(1000.0, 0.0, 10)))
    sys_ = dataclasses.replace(sys_, components=(comp,))
    prog, sol = _solved(sys_)
    report = verify_solution(sys_, prog, sol)
    assert report.passed
    assert report.checks(Family.ANNUITY_FACTOR) == 1
    assert report.residual(Family.ANNUITY_FACTOR) == 0.0


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


def _window_residuals(on, n_steps, initial_on, up):
    """The worst up- or downtime residual and its check count, step by step
    over ``history``, as the verifier computed it before it was vectorised."""
    def history(idx):
        return float(on[idx]) if idx >= 0 else float(min(initial_on, 1))

    worst = 0.0
    for t in range(len(on)):
        window = sum(history(t - m) for m in range(1, n_steps + 1))
        jump = history(t) - history(t - 1)
        if up:
            viol = (-jump) * n_steps - window
        else:
            viol = jump * n_steps - (n_steps - window)
        worst = max(worst, float(np.max(np.maximum(viol / n_steps, 0.0), initial=0.0)))
    return worst, len(on)


@pytest.mark.parametrize("initial_on", [0, 1])
def test_verify_flags_broken_up_and_down_windows_as_the_step_loop(initial_on):
    """A schedule that switches on after one step off (min down 2) and off
    after one or two steps on (min up 3), some steps fractional: the
    verifier flags both windows with the residuals and counts of the
    step-by-step reference."""
    from test_solver_milp import downtime_toy

    base = downtime_toy(loads=(5.0, 0.0, 5.0, 5.0, 0.0, 5.0, 5.0, 5.0))
    unit = base.components[0]
    com = dataclasses.replace(unit.commitment, min_up_steps=3, initial_on=initial_on)
    sys_ = dataclasses.replace(base, components=(dataclasses.replace(unit, commitment=com),)
                               + base.components[1:])
    prog = compile_system(sys_)
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL
    pattern = [1.0, 0.0, 0.7, 1.0, 0.0, 1.0, 0.25, 1.0]
    values = sol.values.copy()
    for t, v in enumerate(pattern):
        values[prog.index(VarRef(VarKind.ON, "unit", t))] = v
    report = verify_solution(sys_, prog, dataclasses.replace(sol, values=values))
    for fam, n_steps, up in ((Family.MIN_DOWNTIME, 2, False), (Family.MIN_UPTIME, 3, True)):
        worst, checks = _window_residuals(pattern, n_steps, initial_on, up)
        assert worst > FEASIBILITY_TOL
        assert report.residual(fam) == worst and report.checks(fam) == checks
    assert not report.passed


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
    # commitment_48 branches after the root's cut rounds
    scn = load_scenario(scenario_dir / "commitment_48.json")
    prog = compile_system(scn.system)
    sol = solve(prog, SolverConfig(max_nodes=1))
    # the completion dive finds no point either
    assert sol.status == Status.GAP_LIMIT and not sol.integral and math.isinf(sol.objective)
    assert sol.message == "node limit reached before any incumbent"
    with pytest.raises(NoSolutionError, match="before any incumbent"):
        extract_report(scn.system, prog, sol)
    report, _, code = cli.run(dataclasses.replace(scn, solver={**scn.solver, "max_nodes": 1}),
                              tmp_path)
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
