import dataclasses
import itertools

import numpy as np
import pytest

from enopt import model as M
from enopt.formulate import VarKind, VarRef, compile_system
from enopt.solver import (
    SolverConfig,
    Status,
    check_certificate,
    solve,
    solve_lp,
    solve_milp,
)

import oracles
from conftest import make_program


def test_forced_binary_commitment():
    """Positive load plus a minimum unit load force the unit on."""
    grid = M.TimeGrid((1.0,))
    sys_ = M.EnergySystem(
        grid,
        (M.Node("elec", "e", (5.0,)), M.Node("fuel", "g", (0.0,), boundary=True)),
        (M.Component("unit", M.SingleConversion("fuel", "elec", 0.5),
                     M.CapacitySpec(),
                     commitment=M.UnitCommitment(unit_capacity=10.0, unit_min_load=4.0,
                                                 startup_cost=3.0),
                     costs=M.CostSpec(fuel=10.0)),))
    prog = compile_system(sys_)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    vals = dict(zip(prog.var_refs, sol.values))
    assert vals[VarRef(VarKind.ON, "unit", 0)] == 1.0
    assert vals[VarRef(VarKind.STARTUP, "unit", 0)] == 1.0


@pytest.mark.filterwarnings("ignore::enopt.formulate.CompileWarning")
def test_on_unit_output_boxed_between_min_and_capacity():
    grid = M.TimeGrid((1.0,))
    sys_ = M.EnergySystem(
        grid,
        (M.Node("elec", "e", (5.0,)), M.Node("fuel", "g", (0.0,), boundary=True)),
        (M.Component("unit", M.SingleConversion("fuel", "elec", 0.5),
                     M.CapacitySpec(),
                     commitment=M.UnitCommitment(unit_capacity=10.0, unit_min_load=4.0),
                     costs=M.CostSpec(fuel=10.0)),
         M.Component("slackgen", M.SourceConversion("elec"),
                     M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=500.0)),
         M.Component("slackload", M.SingleConversion("elec", "fuel", 1.0),
                     M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=1.0)),))
    prog = compile_system(sys_)
    j_on = prog.index(VarRef(VarKind.ON, "unit", 0))
    j_out = prog.index(VarRef(VarKind.OUTPUT, "unit", 0))
    prog.lower[j_on] = prog.upper[j_on] = 1.0
    lo = solve_lp(prog)
    prog.objective[j_out] = -1000.0
    hi = solve_lp(prog)
    assert lo.values[j_out] >= 4.0 - 1e-9
    assert hi.values[j_out] <= 10.0 + 1e-9


def _random_milp(rng):
    k = int(rng.integers(3, 11))   # binaries
    r = int(rng.integers(0, 4))    # continuous
    n = k + r
    m = int(rng.integers(2, 7))
    A = np.round(rng.uniform(-3, 3, size=(m, n)), 2)
    A[rng.uniform(size=(m, n)) < 0.25] = 0.0
    b = np.round(rng.uniform(0.5, 6, size=m), 2)
    c = np.round(rng.uniform(-5, 5, size=n), 2)
    senses = ["<="] * m
    upper = np.concatenate([np.ones(k), np.round(rng.uniform(1, 5, size=r), 2)])
    integer = [1] * k + [0] * r
    rows = [([(j, A[i, j]) for j in range(n) if A[i, j] != 0.0], senses[i], b[i])
            for i in range(m)]
    return c, A, senses, b, upper, integer, rows, list(range(k))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_milps_match_enumeration(seed):
    rng = np.random.default_rng(500 + seed)
    for _ in range(5):
        c, A, senses, b, upper, integer, rows, bin_idx = _random_milp(rng)
        status, obj, _ = oracles.milp_enumeration(c, A, senses, b,
                                                  [0.0] * len(c), upper, bin_idx)
        sol = solve_milp(make_program(c, rows, upper=upper, integer=integer))
        if status == "infeasible":
            assert sol.status == Status.INFEASIBLE
        else:
            assert sol.status == Status.OPTIMAL
            assert sol.objective == pytest.approx(obj, abs=1e-6)


def test_milp_determinism():
    rng = np.random.default_rng(1234)
    c, A, senses, b, upper, integer, rows, _ = _random_milp(rng)
    a = solve_milp(make_program(c, rows, upper=upper, integer=integer))
    b2 = solve_milp(make_program(c, rows, upper=upper, integer=integer))
    assert np.array_equal(a.values, b2.values)
    assert a.nodes == b2.nodes


def test_node_limit_yields_gap_status_with_incumbent():
    rng = np.random.default_rng(42)
    # pick an instance whose root relaxation is fractional
    while True:
        c, A, senses, b, upper, integer, rows, bin_idx = _random_milp(rng)
        prog = make_program(c, rows, upper=upper, integer=integer)
        root = solve_lp(prog)
        if root.status != Status.OPTIMAL:
            continue
        frac = np.abs(root.values[bin_idx] - np.round(root.values[bin_idx]))
        if frac.max() > 1e-5:
            break
    sol = solve_milp(prog, SolverConfig(max_nodes=1))
    assert sol.status == Status.GAP_LIMIT
    if sol.integral:
        # completion dive found an incumbent: it must be truly feasible
        for terms, sense, rhs in rows:
            act = sum(coef * sol.values[j] for j, coef in terms)
            assert act <= rhs + 1e-6
        assert sol.objective >= sol.bound - 1e-6 * max(1, abs(sol.objective))


def test_certificate_flags_fractional_incumbent():
    c, rows = [-1.0, -1.0], [([(0, 1.0), (1, 1.0)], "<=", 1.5)]
    prog = make_program(c, rows, upper=[1.0, 1.0], integer=[1, 1])
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL
    fake = dataclasses.replace(sol, values=np.array([0.4, 1.0]))
    report = check_certificate(prog, fake)
    assert not report.ok
    assert any("fractional" in v for v in report.violations)
    assert report.max_integrality == pytest.approx(0.4)


def test_milp_certificate_accepts_true_incumbent():
    rng = np.random.default_rng(9)
    c, A, senses, b, upper, integer, rows, _ = _random_milp(rng)
    prog = make_program(c, rows, upper=upper, integer=integer)
    sol = solve_milp(prog)
    if sol.status == Status.OPTIMAL:
        assert check_certificate(prog, sol).ok


def test_milp_certificate_rejects_non_finite_incumbent():
    rng = np.random.default_rng(9)
    c, A, senses, b, upper, integer, rows, _ = _random_milp(rng)
    prog = make_program(c, rows, upper=upper, integer=integer)
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL and check_certificate(prog, sol).ok
    values = sol.values.copy()
    values[0] = np.nan
    report = check_certificate(prog, dataclasses.replace(sol, values=values,
                                                         objective=np.nan))
    assert not report.ok
    assert report.kind == "milp"
    assert "objective is nan" in report.violations
    assert any(v.startswith("values not finite") for v in report.violations)


# ---------------------------------------------------------------------------
# commitment semantics on the downtime toy


def downtime_toy(min_down=2, loads=(5.0, 0.0, 5.0, 5.0)):
    """Committed unit plus an expensive fallback and a free export edge, so
    every on/off pattern can serve (or dump) the load; feasibility then
    hinges on the downtime rule alone."""
    T = len(loads)
    grid = M.TimeGrid((1.0,) * T)
    nodes = (M.Node("elec", "e", tuple(loads)),
             M.Node("fuel", "g", (0.0,) * T, boundary=True),
             M.Node("vent", "e", (0.0,) * T, boundary=True))
    comps = (
        M.Component("unit", M.SingleConversion("fuel", "elec", 0.5),
                    M.CapacitySpec(),
                    commitment=M.UnitCommitment(unit_capacity=10.0, unit_min_load=2.0,
                                                startup_cost=1.0,
                                                min_down_steps=min_down),
                    costs=M.CostSpec(fuel=1.0)),
        M.Component("backup", M.SourceConversion("elec"),
                    M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=1000.0)),
        M.Component("export", M.SingleConversion("elec", "vent", 1.0),
                    M.CapacitySpec(optimizable=True)),
    )
    return M.EnergySystem(grid, nodes, comps, ())


def _downtime_ok(pattern, n_down, initial_on=0):
    hist = lambda i: pattern[i] if i >= 0 else initial_on
    for t in range(len(pattern)):
        if hist(t) - hist(t - 1) > 0:  # switching on
            if any(hist(t - m) for m in range(1, n_down + 1)):
                return False
    return True


def _fix_pattern(prog, pattern):
    for t, val in enumerate(pattern):
        j = prog.index(VarRef(VarKind.ON, "unit", t))
        prog.lower[j] = prog.upper[j] = float(val)
    return prog


def test_downtime_excludes_exactly_the_early_restarts():
    sys_ = downtime_toy()
    for pattern in itertools.product((0, 1), repeat=4):
        prog = compile_system(sys_)
        _fix_pattern(prog, pattern)
        sol = solve_lp(prog)  # integrality is decided by the fixing
        feasible = sol.status == Status.OPTIMAL
        assert feasible == _downtime_ok(pattern, 2), pattern


def test_downtime_schedule_honoured_at_milp_optimum():
    sys_ = downtime_toy()
    prog = compile_system(sys_)
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL
    vals = dict(zip(prog.var_refs, sol.values))
    pattern = [int(vals[VarRef(VarKind.ON, "unit", t)]) for t in range(4)]
    assert _downtime_ok(pattern, 2)
    # switching off at t=1 would force two idle steps; serving t=1's zero load
    # while staying on is cheaper than paying the 1000/MWh backup at t=2
    assert pattern == [1, 1, 1, 1]


def test_startups_equal_positive_on_differences_at_optimum():
    sys_ = downtime_toy(min_down=1, loads=(5.0, 0.0, 0.0, 5.0))
    # make staying on expensive enough that the unit cycles
    comp = dataclasses.replace(
        sys_.components[0],
        commitment=M.UnitCommitment(unit_capacity=10.0, unit_min_load=4.0,
                                    startup_cost=0.5, min_down_steps=0),
        costs=M.CostSpec(fuel=20.0))
    sys_ = dataclasses.replace(sys_, components=(comp,) + sys_.components[1:])
    prog = compile_system(sys_)
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL
    vals = dict(zip(prog.var_refs, sol.values))
    on = [vals[VarRef(VarKind.ON, "unit", t)] for t in range(4)]
    starts = [vals[VarRef(VarKind.STARTUP, "unit", t)] for t in range(4)]
    prev = [0.0] + on[:-1]
    assert starts == pytest.approx([max(0.0, a - b) for a, b in zip(on, prev)])
    assert on == [1.0, 0.0, 0.0, 1.0]  # cycling beats idling at min load
