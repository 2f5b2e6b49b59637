import dataclasses

import numpy as np
import pytest

from enopt import model as M
from enopt.analyze import SolutionView, extract_report, verify_solution
from enopt.formulate import GE, LE, Family, VarKind, VarRef, compile_system
from enopt.solver import Status, solve

from conftest import storage_system
from oracles import rows_tagged


def _terms(prog, row):
    return {prog.ref(idx): coef for idx, coef in row.terms}


def test_single_step_cumulative_rows():
    sys_ = storage_system((5.0,), etac=1.0, etad=1.0, cap_opt=True, cap_cost=1.0)
    prog = compile_system(sys_, storage_formulation="cumulative")
    floor = rows_tagged(prog, Family.FILL_FLOOR)
    cap = rows_tagged(prog, Family.FILL_CAP)
    assert len(floor) == 1 and len(cap) == 1
    t = _terms(prog, floor[0])
    assert t[VarRef(VarKind.CHARGE, "store", 0)] == 1.0
    assert t[VarRef(VarKind.DISCHARGE, "store", 0)] == -1.0
    assert floor[0].sense == GE and floor[0].rhs == 0.0
    t = _terms(prog, cap[0])
    assert t[VarRef(VarKind.STORAGE_CAPACITY, "store")] == -1.0
    assert cap[0].sense == LE and cap[0].rhs == 0.0


def test_crate_rows_tie_flow_to_capacity():
    sys_ = storage_system((5.0, 5.0), rate=M.CRateLink(1.0))
    prog = compile_system(sys_)
    rows = rows_tagged(prog, Family.CHARGE_RATE)
    assert len(rows) == 2
    t = _terms(prog, rows[0])
    assert t == {VarRef(VarKind.CHARGE, "store", 0): 1.0,
                 VarRef(VarKind.STORAGE_CAPACITY, "store"): -1.0}


def test_crate_without_capacity_variable_becomes_bound():
    sys_ = storage_system((5.0, 5.0), rate=M.CRateLink(2.0), cap_opt=False,
                          cap_fixed=10.0)
    prog = compile_system(sys_)
    assert not rows_tagged(prog, Family.CHARGE_RATE)
    j = prog.index(VarRef(VarKind.CHARGE, "store", 0))
    assert prog.upper[j] == pytest.approx(5.0)  # 10 MWh / ratio 2


def test_fixed_rates_become_bounds():
    sys_ = storage_system((5.0, 5.0), rate=M.FixedRate(3.0, 4.0), cap_opt=False,
                          cap_fixed=10.0)
    prog = compile_system(sys_)
    assert prog.upper[prog.index(VarRef(VarKind.CHARGE, "store", 0))] == 3.0
    assert prog.upper[prog.index(VarRef(VarKind.DISCHARGE, "store", 1))] == 4.0


def test_optimized_rates_add_costed_limit_variables():
    sys_ = storage_system((5.0, 5.0), rate=M.OptimizedRate(7.0, 9.0))
    prog = compile_system(sys_)
    rows = rows_tagged(prog, Family.DISCHARGE_RATE)
    t = _terms(prog, rows[0])
    assert t[VarRef(VarKind.MAX_DISCHARGE, "store")] == -1.0
    share = sum(sys_.time.step_hours) / 8760.0
    assert prog.objective[prog.index(VarRef(VarKind.MAX_CHARGE, "store"))] == pytest.approx(
        7.0 * share)


def test_fill_level_hand_computation():
    """Charge 1 MW for two hours, discharge 0.5 MW for one: fill follows the
    efficiency-weighted running sum."""
    # final-step load absorbs the discharged energy
    sys_ = storage_system((0.0, 0.0, 0.5), etac=0.98, etad=0.98, cap_opt=False,
                          cap_fixed=10.0, rate=M.FixedRate(5.0, 5.0),
                          source_fuel=(1.0, 1.0, 1.0))
    prog = compile_system(sys_)
    # force the flow pattern through bounds
    for t, (chg, dis) in enumerate(((1.0, 0.0), (1.0, 0.0), (0.0, 0.5))):
        jc = prog.index(VarRef(VarKind.CHARGE, "store", t))
        jd = prog.index(VarRef(VarKind.DISCHARGE, "store", t))
        prog.lower[jc] = prog.upper[jc] = chg
        prog.lower[jd] = prog.upper[jd] = dis
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    report = extract_report(sys_, prog, sol)
    fill = report.storage_fill["store"]
    assert fill[0] == pytest.approx(0.98)
    assert fill[1] == pytest.approx(2 * 0.98)
    assert fill[2] == pytest.approx(2 * 0.98 - 0.5 / 0.98)


def test_final_fill_hold_prevents_free_draining():
    loads = (5.0, 5.0)
    free = storage_system(loads, cap_opt=False, cap_fixed=8.0, initial_fill=8.0,
                          source_fuel=(50.0, 50.0), rate=M.FixedRate(10.0, 10.0))
    held = dataclasses.replace(free, final_fill_at_least_initial=True)
    prog_free, prog_held = compile_system(free), compile_system(held)
    sol_free = solve(prog_free)
    sol_held = solve(prog_held)
    view_free = SolutionView(free, prog_free, sol_free)
    view_held = SolutionView(held, prog_held, sol_held)
    # without the hold the optimiser drains the pre-charged store
    assert view_free.fill(free.storages[0])[-1] < 1e-6
    assert view_held.fill(held.storages[0])[-1] >= 8.0 - 1e-9
    assert sol_held.objective > sol_free.objective
    assert verify_solution(held, prog_held, sol_held).passed
    # the drained point, judged against the held system (same variable blocks),
    # ends 8 MWh below its initial fill: a scaled EQ12 residual of 8 / 8
    drained = verify_solution(held, prog_free, sol_free)
    assert not drained.passed
    assert drained.residual(Family.FILL_FLOOR) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(6))
def test_recurrence_and_cumulative_formulations_agree(seed):
    rng = np.random.default_rng(200 + seed)
    T = int(rng.integers(3, 8))
    loads = rng.uniform(0.0, 8.0, T).round(3)
    rate = [M.CRateLink(float(rng.uniform(0.5, 3.0))),
            M.FixedRate(float(rng.uniform(2, 6)), float(rng.uniform(2, 6))),
            M.OptimizedRate(2.0, 2.0)][seed % 3]
    sys_ = storage_system(
        tuple(loads),
        etac=float(rng.uniform(0.7, 1.0)), etad=float(rng.uniform(0.7, 1.0)),
        rate=rate, cap_opt=True, cap_cost=float(rng.uniform(5, 25)),
        initial_fill=0.0,
        source_fuel=tuple(rng.uniform(5, 60, T).round(3)),
        dt=tuple(rng.uniform(0.5, 2.0, T).round(3)))
    prog_a = compile_system(sys_, storage_formulation="recurrence")
    prog_b = compile_system(sys_, storage_formulation="cumulative")
    sol_a, sol_b = solve(prog_a), solve(prog_b)
    assert sol_a.status == sol_b.status == Status.OPTIMAL
    scale = max(1.0, abs(sol_a.objective))
    assert abs(sol_a.objective - sol_b.objective) <= 1e-8 * scale
    # the cumulative program has no fill variables: its report recomputes fill
    report_a = extract_report(sys_, prog_a, sol_a)
    report_b = extract_report(sys_, prog_b, sol_b)
    assert report_a.residuals.passed and report_b.residuals.passed
    np.testing.assert_allclose(report_b.storage_fill["store"],
                               report_a.storage_fill["store"], rtol=0.0, atol=1e-9)


def test_verifier_checks_fill_variables_against_raw_flows():
    sys_ = storage_system((4.0, 6.0, 3.0))
    prog = compile_system(sys_)
    sol = solve(prog)
    report = verify_solution(sys_, prog, sol)
    assert report.residual(Family.FILL_FLOOR) <= 1e-9

    # corrupt the fill variable: the independent recomputation must notice
    values = sol.values.copy()
    j = prog.index(VarRef(VarKind.FILL, "store", 1))
    values[j] += 0.5
    tampered = dataclasses.replace(sol, values=values)
    report = verify_solution(sys_, prog, tampered)
    assert report.residual(Family.FILL_FLOOR) > 0.01
