import dataclasses
import math
import warnings

import numpy as np
import pytest

from enopt import model as M
from enopt.analyze import verify_solution
from enopt.formulate import (
    EQ,
    GE,
    INTEGER_KINDS,
    LE,
    CompileError,
    Family,
    LinearProgram,
    VarKind,
    VarRef,
    _declare_variables,
    compile_system,
    emit_ramp_limits,
    family_number,
    write_lp,
)
from enopt.solver import Status, solve, solve_lp

from conftest import coverage_fixture, single_node_system
from oracles import rows_tagged, var_refs


def _terms_by_ref(prog, row):
    return {prog.ref(idx): coef for idx, coef in row.terms}


def _row(prog, family, owner, step):
    rows = [r for r in rows_tagged(prog, family) if r.owner == owner and r.step == step]
    assert len(rows) == 1, f"expected one row, found {len(rows)}"
    return rows[0]


# ---------------------------------------------------------------------------
# capacity limits


def test_capacity_row_with_full_availability_and_zero_initial():
    sys_ = single_node_system(loads=(4.0, 5.0))
    prog = compile_system(sys_)
    row = _row(prog, Family.CAPACITY_LIMIT, "plant", 0)
    terms = _terms_by_ref(prog, row)
    assert terms[VarRef(VarKind.OUTPUT, "plant", 0)] == 1.0
    assert terms[VarRef(VarKind.INSTALLED, "plant")] == -1.0
    assert row.sense == LE and row.rhs == 0.0


def test_zero_availability_forces_zero_output():
    sys_ = single_node_system(loads=(4.0, 0.0))
    comp = dataclasses.replace(
        sys_.components[0],
        capacity=M.CapacitySpec(optimizable=True, availability=(1.0, 0.0)))
    sys_ = dataclasses.replace(sys_, components=(comp,))
    prog = compile_system(sys_)
    row = _row(prog, Family.CAPACITY_LIMIT, "plant", 1)
    # availability 0 scrubs the capacity term entirely: output <= 0
    assert _terms_by_ref(prog, row) == {VarRef(VarKind.OUTPUT, "plant", 1): 1.0}
    assert row.rhs == 0.0


def test_availability_series_becomes_row_coefficients():
    avail = (0.0, 0.25, 0.75, 1.0)
    grid = M.TimeGrid((1.0,) * 4)
    sys_ = M.EnergySystem(
        grid, (M.Node("n", "e", (1.0,) * 4),),
        (M.Component("pv", M.SourceConversion("n"),
                     M.CapacitySpec(optimizable=True, availability=avail),
                     costs=M.CostSpec(invest=1.0)),))
    prog = compile_system(sys_)
    for t, a in enumerate(avail):
        terms = _terms_by_ref(prog, _row(prog, Family.CAPACITY_LIMIT, "pv", t))
        assert terms.get(VarRef(VarKind.INSTALLED, "pv"), 0.0) == -a


def test_max_installed_is_a_bound_on_added_capacity():
    sys_ = single_node_system(max_total=1000.0)
    prog = compile_system(sys_)
    j = prog.index(VarRef(VarKind.INSTALLED, "plant"))
    assert prog.upper[j] == 1000.0

    unbounded = dataclasses.replace(
        sys_, components=(dataclasses.replace(
            sys_.components[0], capacity=M.CapacitySpec(optimizable=True)),))
    prog = compile_system(unbounded)
    assert math.isinf(prog.upper[prog.index(VarRef(VarKind.INSTALLED, "plant"))])


def test_max_equal_to_initial_means_no_added_capacity():
    sys_ = single_node_system(loads=(4.0, 4.0))
    comp = dataclasses.replace(
        sys_.components[0],
        capacity=M.CapacitySpec(initial=8.0, optimizable=True, max_total=8.0))
    sys_ = dataclasses.replace(sys_, components=(comp,))
    prog = compile_system(sys_)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    added = dict(zip(var_refs(prog), sol.values))[VarRef(VarKind.INSTALLED, "plant")]
    assert added == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# node balances


def _five_tech_single_step():
    """The printed one-step constraint block of the example system."""
    grid = M.TimeGrid((1.0,))
    nodes = (M.Node("electricity", "electricity", (30.0,)),
             M.Node("heat", "heat", (10.0,)),
             M.Node("gas", "gas", (0.0,), boundary=True))
    mk_cap = lambda avail=1.0: M.CapacitySpec(optimizable=True, max_total=1000.0,
                                              availability=avail)
    comps = (
        M.Component("heat_pump", M.SingleConversion("electricity", "heat", 3.0),
                    mk_cap(), costs=M.CostSpec(invest=19028.0)),
        M.Component("gas_turbine", M.SingleConversion("gas", "electricity", 0.4),
                    mk_cap(), costs=M.CostSpec(invest=24850.0, fuel=21.61)),
        M.Component("chp",
                    M.CoupledConversion("gas", "electricity", "heat", 0.37, 0.28416),
                    mk_cap(), costs=M.CostSpec(invest=45795.0, fuel=21.61)),
        M.Component("pv", M.SourceConversion("electricity"),
                    mk_cap(avail=(0.6,)), costs=M.CostSpec(invest=21300.0)),
    )
    battery = M.Storage("battery", "electricity", 0.98, 0.98, M.CRateLink(1.0),
                        capacity_optimizable=True, capacity_cost=8520.0,
                        capacity_max=1000.0)
    return M.EnergySystem(grid, nodes, comps, (battery,))


def test_single_step_constraint_block_matches_printed_form():
    sys_ = _five_tech_single_step()
    prog = compile_system(sys_, storage_formulation="cumulative")

    # four capacity rows, one per technology
    for cid, avail in (("heat_pump", 1.0), ("gas_turbine", 1.0), ("chp", 1.0),
                       ("pv", 0.6)):
        terms = _terms_by_ref(prog, _row(prog, Family.CAPACITY_LIMIT, cid, 0))
        assert terms == {VarRef(VarKind.OUTPUT, cid, 0): 1.0,
                         VarRef(VarKind.INSTALLED, cid): -avail}

    # electricity balance: +pv +chp +gt -(1/3) hp +discharge -charge = load
    row = _row(prog, Family.NODE_BALANCE, "electricity", 0)
    terms = _terms_by_ref(prog, row)
    assert terms == pytest.approx({
        VarRef(VarKind.OUTPUT, "pv", 0): 1.0,
        VarRef(VarKind.OUTPUT, "chp", 0): 1.0,
        VarRef(VarKind.OUTPUT, "gas_turbine", 0): 1.0,
        VarRef(VarKind.OUTPUT, "heat_pump", 0): -1.0 / 3.0,
        VarRef(VarKind.DISCHARGE, "battery", 0): 1.0,
        VarRef(VarKind.CHARGE, "battery", 0): -1.0,
    })
    assert row.sense == EQ and row.rhs == 30.0

    # heat balance: +hp + 0.768 chp = load (output-side convention)
    row = _row(prog, Family.COUPLED_OUTPUT, "heat", 0)
    terms = _terms_by_ref(prog, row)
    assert terms[VarRef(VarKind.OUTPUT, "heat_pump", 0)] == 1.0
    assert terms[VarRef(VarKind.OUTPUT, "chp", 0)] == pytest.approx(0.768, abs=1e-12)

    # storage block: fill floor/cap plus both rate rows against the capacity
    floor = _row(prog, Family.FILL_FLOOR, "battery", 0)
    terms = _terms_by_ref(prog, floor)
    assert terms[VarRef(VarKind.CHARGE, "battery", 0)] == pytest.approx(0.98)
    assert terms[VarRef(VarKind.DISCHARGE, "battery", 0)] == pytest.approx(-1 / 0.98)
    assert floor.sense == GE and floor.rhs == 0.0
    cap_row = _row(prog, Family.FILL_CAP, "battery", 0)
    assert _terms_by_ref(prog, cap_row)[
        VarRef(VarKind.STORAGE_CAPACITY, "battery")] == -1.0
    for fam, flow in ((Family.CHARGE_RATE, VarKind.CHARGE),
                      (Family.DISCHARGE_RATE, VarKind.DISCHARGE)):
        terms = _terms_by_ref(prog, _row(prog, fam, "battery", 0))
        assert terms == {VarRef(flow, "battery", 0): 1.0,
                         VarRef(VarKind.STORAGE_CAPACITY, "battery"): -1.0}

    assert prog.num_rows == 10


def test_isolated_zero_load_node_compiles_to_feasible_identity():
    grid = M.TimeGrid((1.0, 1.0))
    sys_ = M.EnergySystem(
        grid,
        (M.Node("elec", "e", (1.0, 1.0)), M.Node("island", "x", (0.0, 0.0))),
        (M.Component("src", M.SourceConversion("elec"),
                     M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=1.0)),))
    prog = compile_system(sys_)
    rows = [r for r in rows_tagged(prog, Family.NODE_BALANCE) if r.owner == "island"]
    assert len(rows) == 2 and all(r.terms == () and r.rhs == 0.0 for r in rows)
    assert solve(prog).status == Status.OPTIMAL


def test_boundary_nodes_get_no_balance_row():
    prog = compile_system(single_node_system())
    assert not [r for r in rows_tagged(prog, Family.NODE_BALANCE) if r.owner == "fuel"]


def test_componentless_system_compiles_to_trivial_balances():
    """A single zero-load node is degenerate (warned) but still compiles to
    one trivially feasible row per step."""
    sys_ = M.EnergySystem(M.TimeGrid((1.0, 1.0, 1.0)),
                          (M.Node("n", "e", (0.0, 0.0, 0.0)),))
    report = M.validate_system(sys_)
    assert report.warnings and report.ok
    prog = compile_system(sys_)
    rows = rows_tagged(prog, Family.NODE_BALANCE)
    assert len(rows) == 3
    assert all(r.terms == () and r.rhs == 0.0 for r in rows)
    assert solve(prog).status == Status.OPTIMAL


# ---------------------------------------------------------------------------
# characteristic fields


def _field_system(planes, primary_fixed=2.0):
    grid = M.TimeGrid((1.0,))
    nodes = (M.Node("elec", "e", (primary_fixed,)),
             M.Node("heat", "h", (0.0,)),
             M.Node("fuel", "g", (0.0,), boundary=True),
             M.Node("vent", "h", (0.0,), boundary=True))
    comps = (
        M.Component("gen", M.FieldConversion("fuel", "elec", "heat", 0.4, planes),
                    M.CapacitySpec(optimizable=True, max_total=100),
                    costs=M.CostSpec(fuel=1.0)),
        # export edge soaking up whatever secondary output the field produces
        M.Component("dump", M.SingleConversion("heat", "vent", 1.0),
                    M.CapacitySpec(optimizable=True)),
    )
    return M.EnergySystem(grid, nodes, comps, ())


def test_field_feasible_secondary_range_matches_intersection():
    planes = (M.HalfPlane(1.0, 0.0, M.SENSE_LE),
              M.HalfPlane(-1.0, 4.0, M.SENSE_LE),
              M.HalfPlane(0.2, 0.0, M.SENSE_GE))
    sys_ = _field_system(planes)
    prog = compile_system(sys_)
    # pin primary output at 2, then push the secondary to both extremes
    j_prim = prog.index(VarRef(VarKind.OUTPUT, "gen", 0))
    j_sec = prog.index(VarRef(VarKind.SECONDARY_OUTPUT, "gen", 0))
    prog.lower[j_prim] = prog.upper[j_prim] = 2.0
    lo_prog = prog
    lo_prog.objective[j_sec] = 1.0
    lo = solve_lp(lo_prog)
    assert lo.values[j_sec] == pytest.approx(0.4, abs=1e-8)
    lo_prog.objective[j_sec] = -1.0
    hi = solve_lp(lo_prog)
    assert hi.values[j_sec] == pytest.approx(2.0, abs=1e-8)


def test_collapsed_field_degenerates_to_fixed_ratio():
    ratio = 0.768
    planes = (M.HalfPlane(ratio, 0.0, M.SENSE_LE),
              M.HalfPlane(ratio, 0.0, M.SENSE_GE),
              M.HalfPlane(2 * ratio, 0.0, M.SENSE_LE))
    sys_ = _field_system(planes)
    prog = compile_system(sys_)
    j_prim = prog.index(VarRef(VarKind.OUTPUT, "gen", 0))
    j_sec = prog.index(VarRef(VarKind.SECONDARY_OUTPUT, "gen", 0))
    prog.lower[j_prim] = prog.upper[j_prim] = 2.0
    sol = solve_lp(prog)
    assert sol.values[j_sec] == pytest.approx(ratio * 2.0, abs=1e-8)


def test_too_few_half_planes_rejected_at_compile():
    planes = (M.HalfPlane(1.0, 0.0, M.SENSE_LE), M.HalfPlane(-1.0, 4.0, M.SENSE_LE))
    with pytest.raises(CompileError) as err:
        compile_system(_field_system(planes))
    assert M.FIELD_PLANES in err.value.report.codes()


def test_field_plane_tags_split_by_sense():
    planes = (M.HalfPlane(1.0, 0.0, M.SENSE_LE),
              M.HalfPlane(-1.0, 4.0, M.SENSE_LE),
              M.HalfPlane(0.2, 0.0, M.SENSE_GE))
    prog = compile_system(_field_system(planes))
    assert len(rows_tagged(prog, Family.FIELD_UPPER)) == 1
    assert len(rows_tagged(prog, Family.FIELD_UPPER_MORE)) == 1
    assert len(rows_tagged(prog, Family.FIELD_LOWER)) == 1
    assert all(r.sense == GE for r in rows_tagged(prog, Family.FIELD_LOWER))


# ---------------------------------------------------------------------------
# ramps


def _ramp_system(ramp, loads=(2.0, 2.0, 2.0), initial=10.0, optimizable=False):
    grid = M.TimeGrid((1.0,) * len(loads))
    nodes = (M.Node("elec", "e", tuple(loads)),
             M.Node("fuel", "g", (0.0,) * len(loads), boundary=True))
    comp = M.Component("plant", M.SingleConversion("fuel", "elec", 0.5),
                       M.CapacitySpec(initial=initial, optimizable=optimizable,
                                      max_total=initial + 50 if optimizable else None),
                       ramp=ramp, costs=M.CostSpec(fuel=10.0))
    return M.EnergySystem(grid, nodes, (comp,), ())


def test_fixed_ramp_row_on_fixed_capacity():
    prog = compile_system(_ramp_system(M.FixedRamp(0.8, 0.8)))
    row = _row(prog, Family.RAMP_UP, "plant", 1)
    terms = _terms_by_ref(prog, row)
    assert terms == {VarRef(VarKind.OUTPUT, "plant", 1): 1.0,
                     VarRef(VarKind.OUTPUT, "plant", 0): -1.0}
    assert row.rhs == pytest.approx(0.8 * 10.0)
    # no ramp row for the first step
    assert not [r for r in rows_tagged(prog, Family.RAMP_UP) if r.step == 0]


def test_zero_up_rate_makes_output_non_increasing():
    sys_ = _ramp_system(M.FixedRamp(0.0, 1.0), loads=(8.0, 2.0))
    # loads (8, 2) are fine; reversed loads would need an upward ramp
    prog = compile_system(sys_)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    vals = dict(zip(var_refs(prog), sol.values))
    assert (vals[VarRef(VarKind.OUTPUT, "plant", 1)]
            <= vals[VarRef(VarKind.OUTPUT, "plant", 0)] + 1e-9)
    infeasible = _ramp_system(M.FixedRamp(0.0, 1.0), loads=(2.0, 8.0))
    assert solve(compile_system(infeasible)).status == Status.INFEASIBLE


def test_optimized_ramp_uses_headroom_variable():
    prog = compile_system(_ramp_system(M.OptimizedRamp(3.0, 2.0)))
    row = _row(prog, Family.RAMP_UP, "plant", 1)
    assert _terms_by_ref(prog, row)[VarRef(VarKind.RAMP_UP, "plant")] == -1.0
    assert prog.objective[prog.index(VarRef(VarKind.RAMP_UP, "plant"))] == 3.0
    assert prog.objective[prog.index(VarRef(VarKind.RAMP_DOWN, "plant"))] == 2.0


def test_fixed_ramp_fraction_applies_per_step_on_a_two_hour_grid():
    # 0.3 of 10 MW per step, although each step lasts 2 hours
    def system(loads):
        sys_ = _ramp_system(M.FixedRamp(0.3, 0.4), loads=loads)
        return dataclasses.replace(sys_, time=M.TimeGrid((2.0,) * len(loads)))

    sys_ = system((2.0, 5.0, 8.0))
    prog = compile_system(sys_)
    assert _row(prog, Family.RAMP_UP, "plant", 1).rhs == 0.3 * 10.0
    assert _row(prog, Family.RAMP_DOWN, "plant", 1).rhs == 0.4 * 10.0
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    assert verify_solution(sys_, prog, sol).passed
    # 3.5 MW up in one 2-hour step: allowed per hour, not per step
    values = sol.values.copy()
    values[prog.index(VarRef(VarKind.OUTPUT, "plant", 2))] += 0.5
    bad = verify_solution(sys_, prog, dataclasses.replace(sol, values=values))
    assert bad.residual(Family.RAMP_UP) == pytest.approx(0.5 / 3.0)
    assert solve(compile_system(system((2.0, 8.0)))).status == Status.INFEASIBLE


# implied fixed-ramp rows: out_t <= avail[t] * C and out >= 0 imply the up
# row at t when up >= avail[t] and the down row when down >= avail[t-1]


def _avail_ramp_system(ramp, avail, periods=(), per_period=False, committed=False):
    T = len(avail)
    grid = M.TimeGrid((1.0,) * T, periods)
    nodes = (M.Node("elec", "e", (1.0,) * T),
             M.Node("fuel", "g", (0.0,) * T, boundary=True))
    plant = M.Component(
        "plant", M.SingleConversion("fuel", "elec", 0.5),
        M.CapacitySpec(initial=2.0, optimizable=not committed, max_total=50.0,
                       availability=tuple(avail), per_period=per_period),
        ramp=ramp, costs=M.CostSpec(invest=5.0, fuel=10.0, built=1.0),
        commitment=M.UnitCommitment(unit_capacity=4.0, startup_cost=1.0) if committed
        else None)
    backup = M.Component("backup", M.SourceConversion("elec"),
                         M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=100.0))
    return M.EnergySystem(grid, nodes, (plant, backup), ())


def _ramp_steps(prog, family):
    return [r.step for r in rows_tagged(prog, family) if r.owner == "plant"]


@pytest.mark.parametrize("optimizable", [False, True])
def test_full_ramp_emits_no_rows_and_still_verifies(optimizable):
    sys_ = _ramp_system(M.FixedRamp(1.0, 1.0), optimizable=optimizable)
    prog = compile_system(sys_)
    assert not rows_tagged(prog, Family.RAMP_UP)
    assert not rows_tagged(prog, Family.RAMP_DOWN)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    report = verify_solution(sys_, prog, sol)
    assert report.passed
    assert report.checks(Family.RAMP_UP) == report.checks(Family.RAMP_DOWN) == 2

    series = compile_system(_avail_ramp_system(M.FixedRamp(1.0, 1.0), (0.0, 0.4, 1.0, 0.7)))
    assert not rows_tagged(series, Family.RAMP_UP)
    assert not rows_tagged(series, Family.RAMP_DOWN)


def test_ramp_rows_kept_where_fraction_is_below_availability():
    avail = (0.2, 0.9, 0.6, 0.7, 0.3, 1.0, 0.0)
    prog = compile_system(_avail_ramp_system(M.FixedRamp(0.6, 0.6), avail))
    # up row at t needs avail[t] > 0.6, down row at t needs avail[t-1] > 0.6;
    # a fraction equal to the availability (t = 2) drops the row
    assert _ramp_steps(prog, Family.RAMP_UP) == [1, 3, 5]
    assert _ramp_steps(prog, Family.RAMP_DOWN) == [2, 4, 6]
    row = _row(prog, Family.RAMP_UP, "plant", 3)
    assert _terms_by_ref(prog, row)[VarRef(VarKind.INSTALLED, "plant")] == -0.6
    assert row.rhs == 0.6 * 2.0
    # different fractions up and down are tested separately
    prog = compile_system(_avail_ramp_system(M.FixedRamp(0.25, 0.95), avail))
    assert _ramp_steps(prog, Family.RAMP_UP) == [1, 2, 3, 4, 5]
    assert _ramp_steps(prog, Family.RAMP_DOWN) == [6]


def test_per_period_capacity_keeps_the_down_row_across_a_period_boundary():
    sys_ = _avail_ramp_system(M.FixedRamp(1.0, 1.0), (1.0,) * 6,
                              periods=(0, 0, 0, 1, 1, 1), per_period=True)
    prog = compile_system(sys_)
    # installed(p0) may exceed installed(p1): out_2 - out_3 <= installed(p1)
    # is not implied by out_2 <= installed(p0)
    assert _ramp_steps(prog, Family.RAMP_UP) == []
    assert _ramp_steps(prog, Family.RAMP_DOWN) == [3]
    row = _row(prog, Family.RAMP_DOWN, "plant", 3)
    assert VarRef(VarKind.INSTALLED_PERIOD, "plant", period=1) in _terms_by_ref(prog, row)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL and verify_solution(sys_, prog, sol).passed


def test_committed_component_keeps_every_ramp_row():
    # a committed component has no capacity row to imply its ramps; fixed
    # ramps on committed components fail validation, so call the emitter
    sys_ = _avail_ramp_system(M.FixedRamp(1.0, 1.0), (1.0,) * 4, committed=True)
    prog = LinearProgram()
    _declare_variables(sys_, prog)
    emit_ramp_limits(sys_, prog)
    prog.finalize()
    assert _ramp_steps(prog, Family.RAMP_UP) == [1, 2, 3]
    assert _ramp_steps(prog, Family.RAMP_DOWN) == [1, 2, 3]
    optimized = _avail_ramp_system(M.OptimizedRamp(1.0, 1.0), (1.0,) * 4, committed=True)
    prog = compile_system(optimized)
    assert _ramp_steps(prog, Family.RAMP_UP) == [1, 2, 3]
    assert _ramp_steps(prog, Family.RAMP_DOWN) == [1, 2, 3]


def test_verification_still_flags_ramps_whose_rows_were_not_emitted():
    sys_ = _ramp_system(M.FixedRamp(1.0, 1.0))
    prog = compile_system(sys_)
    assert not rows_tagged(prog, Family.RAMP_UP)
    sol = solve(prog)
    values = sol.values.copy()
    # 0 -> 10.5 -> 0 on a 10 MW plant: both ramps exceed the 10 MW limit
    for t, v in ((0, 0.0), (1, 10.5), (2, 0.0)):
        values[prog.index(VarRef(VarKind.OUTPUT, "plant", t))] = v
    report = verify_solution(sys_, prog, dataclasses.replace(sol, values=values))
    assert report.residual(Family.RAMP_UP) == pytest.approx(0.05)
    assert report.residual(Family.RAMP_DOWN) == pytest.approx(0.05)
    assert not report.passed


# ---------------------------------------------------------------------------
# building periods


def _period_system(load_p1, load_p2, built_cost=0.05):
    # built cost kept below the per-period invest share, so growing capacity
    # in the later period beats overbuilding the first one
    grid = M.TimeGrid((1.0,) * 4, (0, 0, 1, 1))
    nodes = (M.Node("elec", "e", (load_p1, load_p1, load_p2, load_p2)),
             M.Node("fuel", "g", (0.0,) * 4, boundary=True))
    comp = M.Component("plant", M.SingleConversion("fuel", "elec", 1.0),
                       M.CapacitySpec(optimizable=True, max_total=100.0,
                                      per_period=True),
                       costs=M.CostSpec(invest=1000.0, fuel=1.0, built=built_cost))
    return M.EnergySystem(grid, nodes, (comp,), ())


def test_single_period_emits_no_built_rows():
    prog = compile_system(single_node_system())
    assert not rows_tagged(prog, Family.BUILT_DEFINITION)


def test_growth_between_periods_is_priced_as_built_capacity():
    sys_ = _period_system(5.0, 8.0)
    prog = compile_system(sys_)
    assert len(rows_tagged(prog, Family.BUILT_DEFINITION)) == 1
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    vals = dict(zip(var_refs(prog), sol.values))
    assert vals[VarRef(VarKind.INSTALLED_PERIOD, "plant", period=0)] == pytest.approx(5.0)
    assert vals[VarRef(VarKind.INSTALLED_PERIOD, "plant", period=1)] == pytest.approx(8.0)
    assert vals[VarRef(VarKind.BUILT, "plant", period=1)] == pytest.approx(3.0)


def test_shrinking_capacity_builds_nothing():
    prog = compile_system(_period_system(8.0, 5.0))
    sol = solve(prog)
    vals = dict(zip(var_refs(prog), sol.values))
    assert vals[VarRef(VarKind.BUILT, "plant", period=1)] == pytest.approx(0.0, abs=1e-9)


def test_costless_built_capacity_warns():
    sys_ = _period_system(5.0, 8.0, built_cost=0.0)
    assert [(v.code, v.where) for v in M.validate_system(sys_).warnings] == [
        (M.COSTLESS_SLACK, "components[plant].costs.built")]
    negative = M.validate_system(_period_system(5.0, 8.0, built_cost=-1.0))
    assert negative.codes() == {M.COST_NEGATIVE}  # an error, not a missing cost


def test_costless_slack_warnings_name_every_uncosted_column_in_order():
    """The coverage system on three building periods, every uncommitted
    optimizable capacity split per period and every component on an
    optimized ramp, with built capacity, ramp limits, startups, storage
    capacity and storage rate limits left uncosted; the turbine's built
    capacity and the boiler's ramp-up limit keep a cost and raise nothing.
    One validation warning per uncosted mechanism (one per built block,
    whatever its number of periods), in the order the system lists its
    components and then its storages; compiling the system raises no
    Python warning."""
    base = coverage_fixture()
    comps = []
    for comp in base.components:
        changes = {"ramp": M.OptimizedRamp(3.0 if comp.id == "boiler" else 0.0, 0.0)}
        if comp.committed:
            changes["commitment"] = dataclasses.replace(comp.commitment, startup_cost=0.0)
        elif comp.capacity.optimizable:
            changes["capacity"] = dataclasses.replace(comp.capacity, per_period=True)
            if comp.id != "turbine":
                changes["costs"] = dataclasses.replace(comp.costs, built=0.0)
        comps.append(dataclasses.replace(comp, **changes))
    storages = tuple(dataclasses.replace(s, capacity_optimizable=True, capacity_cost=0.0,
                                         rate=M.OptimizedRate(0.0, 0.0))
                     for s in base.storages)
    sys_ = dataclasses.replace(base, time=M.TimeGrid((1.0,) * 6, (0, 0, 1, 1, 2, 2)),
                               components=tuple(comps), storages=storages)

    def slack(owner, *fields):
        return [(M.COSTLESS_SLACK, f"{owner}.{field}",
                 f"{what} has no cost; its optimal value is arbitrary")
                for field, what in fields]

    up, down = ("ramp.cost_up", "ramp-up limit"), ("ramp.cost_down", "ramp-down limit")
    built = ("costs.built", "built capacity")
    startups = ("commitment.startup_cost", "startup count")
    stored = (("capacity_cost", "storage capacity"), ("rate.cost_charge", "charge limit"),
              ("rate.cost_discharge", "discharge limit"))
    expected = (slack("components[steamer]", up, down, built)
                + slack("components[pumphouse]", up, down, built)
                + slack("components[turbine]", up, down)
                + slack("components[boiler]", down, built)
                + slack("components[cogen]", up, down, built)
                + slack("components[flexgen]", up, down, built)
                + slack("components[peaker]", up, down, startups)
                + slack("components[blocks]", up, down, startups)
                + slack("components[solar]", up, down, built)
                + slack("storages[battery]", *stored)
                + slack("storages[tank]", *stored))
    report = M.validate_system(sys_)
    assert [(v.code, v.where, v.message) for v in report.warnings] == expected
    assert len(expected) == 31 and report.ok
    # one building period has no built capacity to leave uncosted
    one_period = M.validate_system(dataclasses.replace(sys_, time=M.TimeGrid((1.0,) * 6)))
    assert [(v.code, v.where, v.message) for v in one_period.warnings] == [
        w for w in expected if not w[1].endswith(".costs.built")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile_system(sys_)


# ---------------------------------------------------------------------------
# objective


def test_fuel_coefficient_divides_by_efficiency():
    sys_ = single_node_system(loads=(1.0,), fuel=21.61)
    comp = dataclasses.replace(
        sys_.components[0],
        conversion=M.SingleConversion("fuel", "elec", 0.4))
    prog = compile_system(dataclasses.replace(sys_, components=(comp,)))
    assert prog.objective[prog.index(VarRef(VarKind.OUTPUT, "plant", 0))] == pytest.approx(54.025)


def test_boundary_source_without_fuel_cost_is_free_to_run():
    grid = M.TimeGrid((1.0,))
    sys_ = M.EnergySystem(
        grid, (M.Node("n", "e", (1.0,)),),
        (M.Component("pv", M.SourceConversion("n"),
                     M.CapacitySpec(optimizable=True),
                     costs=M.CostSpec(invest=21300.0)),))
    prog = compile_system(sys_)
    assert prog.objective[prog.index(VarRef(VarKind.OUTPUT, "pv", 0))] == 0.0


def test_storage_capacity_cost_over_a_full_year():
    # two half-year steps keep the program tiny while covering 8760 hours,
    # so the annual price lands on the capacity variable unscaled
    sys_ = M.EnergySystem(
        M.TimeGrid((4380.0, 4380.0)),
        (M.Node("n", "e", (1.0, 1.0)),),
        (M.Component("src", M.SourceConversion("n"), M.CapacitySpec(optimizable=True),
                     costs=M.CostSpec(fuel=1.0)),),
        (M.Storage("battery", "n", 0.98, 0.98, M.CRateLink(1.0),
                   capacity_optimizable=True, capacity_cost=8520.0),))
    prog = compile_system(sys_)
    assert prog.objective[prog.index(VarRef(VarKind.STORAGE_CAPACITY, "battery"))] == (
        pytest.approx(8520.0))


def test_emission_price_adds_input_weighted_term():
    sys_ = single_node_system(loads=(1.0,), fuel=0.0)
    comp = dataclasses.replace(
        sys_.components[0],
        costs=M.CostSpec(emission_factor=0.202, emission_price=30.0))
    prog = compile_system(dataclasses.replace(sys_, components=(comp,)))
    # 30 EUR/kg * 0.202 kg/MWh-input / 0.5 efficiency
    assert prog.objective[prog.index(VarRef(VarKind.OUTPUT, "plant", 0))] == pytest.approx(
        30.0 * 0.202 / 0.5)


# ---------------------------------------------------------------------------
# emission cap


def test_zero_cap_with_gas_only_supply_is_infeasible():
    sys_ = single_node_system(loads=(5.0, 5.0), co2_cap=0.0)
    comp = dataclasses.replace(
        sys_.components[0], costs=M.CostSpec(fuel=20.0, emission_factor=0.202))
    sys_ = dataclasses.replace(sys_, components=(comp,))
    assert solve(compile_system(sys_)).status == Status.INFEASIBLE


def test_absent_cap_emits_no_row():
    prog = compile_system(single_node_system())
    assert not rows_tagged(prog, Family.CO2_CAP)
    prog = compile_system(single_node_system(co2_cap=math.inf))
    assert not rows_tagged(prog, Family.CO2_CAP)


def test_cap_row_counts_input_energy():
    sys_ = single_node_system(loads=(4.0,), co2_cap=100.0)
    comp = dataclasses.replace(
        sys_.components[0],
        conversion=M.SingleConversion("fuel", "elec", 0.4),
        costs=M.CostSpec(fuel=20.0, emission_factor=0.202))
    prog = compile_system(dataclasses.replace(sys_, components=(comp,)))
    rows = rows_tagged(prog, Family.CO2_CAP)
    assert len(rows) == 1
    terms = _terms_by_ref(prog, rows[0])
    # a 10 MW output at 0.4 efficiency burns 25 MWh input -> 5.05 kg per hour
    assert terms[VarRef(VarKind.OUTPUT, "plant", 0)] * 10.0 == pytest.approx(5.05)
    assert rows[0].rhs == 100.0


# ---------------------------------------------------------------------------
# compilation as a whole


def test_compile_requires_error_free_validation():
    sys_ = single_node_system()
    bad = dataclasses.replace(
        sys_, components=(dataclasses.replace(
            sys_.components[0],
            conversion=M.SingleConversion("ghost", "elec", 0.5)),))
    with pytest.raises(CompileError):
        compile_system(bad)


def test_compile_is_deterministic(coverage_system):
    a = compile_system(coverage_system)
    b = compile_system(coverage_system)
    assert a.fingerprint() == b.fingerprint()


def test_rows_are_canonically_ordered(coverage_system):
    prog = compile_system(coverage_system)
    # a row without a step has step -1
    keys = [(family_number(tag), owner, step) for tag, owner, step in zip(
        prog.tag.tolist(), prog.owner.tolist(), prog.step.tolist())]
    assert keys == sorted(keys)


def test_program_internal_consistency(coverage_system):
    prog = compile_system(coverage_system)
    assert prog.validate() == []
    assert LinearProgram().validate() == ["program not finalized"]
    # a column is integer exactly when its kind is on, startup or units
    assert INTEGER_KINDS == {VarKind.ON, VarKind.STARTUP, VarKind.UNITS}
    assert prog.is_integer.tolist() == [ref.kind in INTEGER_KINDS for ref in var_refs(prog)]
    assert prog.is_integer.any() and not prog.is_integer.all()


def test_ref_refuses_a_column_past_the_last(coverage_system):
    prog = compile_system(coverage_system)
    assert prog.ref(prog.num_vars - 1)
    with pytest.raises(IndexError):
        prog.ref(prog.num_vars)


def test_compile_refuses_an_unknown_storage_formulation(coverage_system):
    with pytest.raises(ValueError, match="unknown storage formulation 'x'"):
        compile_system(coverage_system, storage_formulation="x")


def test_balance_sign_convention(coverage_system):
    """Producers enter node balances positively, consumers negatively."""
    prog = compile_system(coverage_system)
    comps = {c.id: c for c in coverage_system.components}
    balance_tags = (Family.NODE_BALANCE, Family.COUPLED_OUTPUT,
                    Family.FIELD_BALANCE, Family.PARTIAL_BALANCE)
    seen = 0
    for fam in balance_tags:
        for row in rows_tagged(prog, fam):
            for ref, coef in _terms_by_ref(prog, row).items():
                comp = comps.get(ref.owner)
                if comp is None:  # storage flows
                    continue
                conv = comp.conversion
                outputs = {getattr(conv, field, None)
                           for field in ("output_node", "primary_output", "secondary_output")}
                if ref.kind in (VarKind.OUTPUT, VarKind.SECONDARY_OUTPUT):
                    if row.owner in outputs and coef > 0:
                        seen += 1
                    elif row.owner == getattr(conv, "input_node", None):
                        assert coef < 0
                        seen += 1
    assert seen > 0


def test_coupled_and_field_inputs_draw_from_a_balanced_node():
    """A coupled and a field component fed from a balanced gas node enter its
    balance with -1/primary_efficiency on their primary output."""
    grid = M.TimeGrid((1.0,))
    nodes = (M.Node("elec", "e", (10.0,)), M.Node("heat", "h", (4.0,)),
             M.Node("steam", "h", (3.0,)), M.Node("gas", "g", (0.0,)),
             M.Node("well", "g", (0.0,), boundary=True))
    comps = (
        M.Component("gasfeed", M.SingleConversion("well", "gas", 1.0),
                    M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=1.0)),
        # only the coupled unit serves heat and only the field unit steam
        M.Component("cogen", M.CoupledConversion("gas", "elec", "heat", 0.4, 0.4),
                    M.CapacitySpec(initial=20.0)),
        M.Component("flexgen", M.FieldConversion(
                        "gas", "elec", "steam", 0.5,
                        (M.HalfPlane(1.0, 0.0, M.SENSE_LE),
                         M.HalfPlane(-1.0, 20.0, M.SENSE_LE),
                         M.HalfPlane(0.25, 0.0, M.SENSE_GE))),
                    M.CapacitySpec(initial=20.0)),
    )
    sys_ = M.EnergySystem(grid, nodes, comps, ())
    prog = compile_system(sys_)
    (i,) = np.flatnonzero(prog.owner == "gas")
    assert prog.tag[i] == Family.NODE_BALANCE
    coef = {cid: prog.A[i, prog.index(VarRef(VarKind.OUTPUT, cid, 0))]
            for cid in ("gasfeed", "cogen", "flexgen")}
    assert coef == {"gasfeed": 1.0, "cogen": -1.0 / 0.4, "flexgen": -1.0 / 0.5}
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    out = {cid: sol.values[prog.index(VarRef(VarKind.OUTPUT, cid, 0))] for cid in coef}
    assert out["cogen"] == pytest.approx(4.0) and out["flexgen"] == pytest.approx(6.0)
    assert out["gasfeed"] == pytest.approx(4.0 / 0.4 + 6.0 / 0.5)
    assert verify_solution(sys_, prog, sol).passed


def test_variable_count_formula(coverage_system):
    """vars = f(steps, components, storages) as documented in the module."""
    from conftest import expected_variable_count

    assert compile_system(coverage_system).num_vars == expected_variable_count(
        coverage_system)


def test_lp_export_contains_sections(coverage_system, tmp_path):
    prog = compile_system(coverage_system)
    out = tmp_path / "program.lp"
    write_lp(prog, out)
    text = out.read_text()
    for keyword in ("Minimize", "Subject To", "Bounds", "General", "End"):
        assert keyword in text
    assert "output_turbine_t0" in text
    assert "EQ2_" in text
