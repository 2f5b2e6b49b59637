import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest
import scipy.optimize as sopt

from enopt import model as M
from enopt.formulate import VarKind, VarRef, compile_system
from enopt.scenario import load_scenario
from enopt.solver import (
    SolverConfig,
    SolverError,
    Status,
    check_certificate,
    solve,
    solve_lp,
    solve_milp,
)
from enopt.solver import branch_bound
from enopt.solver.lp import solve_standard_lp
from enopt.solver.standard import standardize

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
    vals = dict(zip(oracles.var_refs(prog), sol.values))
    assert vals[VarRef(VarKind.ON, "unit", 0)] == 1.0
    assert vals[VarRef(VarKind.STARTUP, "unit", 0)] == 1.0


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
    """The seed-45 draw takes 13 nodes to its optimum; stopped after one,
    with no incumbent yet, the completion dive (every integer fixed to the
    rounded root relaxation) finds a feasible point."""
    c, A, senses, b, upper, integer, rows, _ = _random_milp(np.random.default_rng(45))
    prog = make_program(c, rows, upper=upper, integer=integer)
    assert solve_milp(prog).nodes > 1
    sol = solve_milp(prog, SolverConfig(max_nodes=1))
    assert sol.status == Status.GAP_LIMIT and math.isfinite(sol.objective) and sol.nodes == 1
    for terms, sense, rhs in rows:
        assert sense == "<=" and sum(coef * sol.values[j] for j, coef in terms) <= rhs + 1e-6
    assert sol.bound <= sol.objective


def test_mip_gap_stops_the_search_within_the_gap(scenario_dir):
    """commitment_48 takes 11 nodes to a proven optimum and stops after 6
    once the open nodes bound the incumbent within a 1% gap."""
    prog = compile_system(load_scenario(scenario_dir / "commitment_48.json").system)
    sol = solve(prog, SolverConfig(mip_gap=1e-2))
    assert sol.status == Status.OPTIMAL and sol.nodes < solve(prog).nodes
    assert 0.0 < sol.gap <= 1e-2 and sol.bound <= sol.objective
    assert check_certificate(prog, sol).ok


def _random_general_milp(rng):
    """General integers (upper bounds 2-5), continuous columns and rows of
    every sense, around an integral point so that most draws are feasible."""
    k = int(rng.integers(2, 4))    # general integers
    r = int(rng.integers(1, 3))    # continuous
    n, m = k + r, int(rng.integers(2, 6))
    A = np.round(rng.uniform(-3, 3, size=(m, n)), 2)
    A[rng.uniform(size=(m, n)) < 0.2] = 0.0
    upper = np.concatenate([rng.integers(2, 6, size=k).astype(float),
                            np.round(rng.uniform(1, 5, size=r), 2)])
    x0 = np.concatenate([rng.integers(0, upper[:k].astype(int) + 1),
                         rng.uniform(0.0, upper[k:])])
    senses = rng.choice(["<=", ">=", "="], size=m, p=[0.45, 0.35, 0.2])
    room = rng.uniform(0.0, 2.0, size=m)
    b = A @ x0 + np.where(senses == "<=", room, np.where(senses == ">=", -room, 0.0))
    c = np.round(rng.uniform(-5, 5, size=n), 2)
    rows = [([(j, A[i, j]) for j in range(n) if A[i, j] != 0.0], str(senses[i]), b[i])
            for i in range(m)]
    return c, A, senses, b, upper, [1] * k + [0] * r, rows


@pytest.mark.parametrize("seed", range(4))
def test_random_general_milps_match_highs(seed):
    """The cut rounds keep every optimum: the result matches HiGHS run to a
    relative gap of 1e-9 (its default 1e-4 can stop above the optimum)."""
    rng = np.random.default_rng(2000 + seed)
    for _ in range(25):
        c, A, senses, b, upper, integer, rows = _random_general_milp(rng)
        lo = np.where(senses == "<=", -np.inf, b)
        hi = np.where(senses == ">=", np.inf, b)
        ref = sopt.milp(c=c, constraints=sopt.LinearConstraint(A, lo, hi),
                        bounds=sopt.Bounds(np.zeros(len(c)), upper), integrality=integer,
                        options={"mip_rel_gap": 1e-9})
        sol = solve_milp(make_program(c, rows, upper=upper, integer=integer))
        if ref.status == 2:
            assert sol.status == Status.INFEASIBLE
        else:
            assert ref.status == 0
            assert sol.status == Status.OPTIMAL
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-6)


def test_every_cut_keeps_the_enumerated_optimum(monkeypatch):
    """Each cut ``g x >= h`` that a cut round adds holds at the optimum found
    by enumerating every integer fixing."""
    cuts = []

    def recording(std, state):
        G, h = generate(std, state)
        cuts.append((G, h))
        return G, h

    generate = branch_bound._gmi_cuts
    monkeypatch.setattr(branch_bound, "_gmi_cuts", recording)
    rng = np.random.default_rng(3000)
    checked = 0
    for _ in range(60):
        c, A, senses, b, upper, integer, rows = _random_general_milp(rng)
        int_idx = np.flatnonzero(integer)
        status, obj, x = oracles.milp_enumeration(c, A, senses, b, [0.0] * len(c),
                                                  upper, int_idx)
        cuts.clear()
        sol = solve_milp(make_program(c, rows, upper=upper, integer=integer))
        if status == "infeasible":
            continue
        assert sol.objective == pytest.approx(obj, abs=1e-6)
        for G, h in cuts:
            assert np.all(G @ x >= h - 1e-9)
            checked += h.size
    assert checked >= 50


def test_root_cut_rounds_are_logged(scenario_dir, caplog):
    prog = compile_system(load_scenario(scenario_dir / "commitment_demo.json").system)
    with caplog.at_level(logging.INFO, logger="enopt"):
        sol = solve_milp(prog)
    assert sol.nodes == 1
    (line,) = [r.getMessage() for r in caplog.records if r.name == branch_bound.__name__]
    assert line == "root bound 1765.944444 before cuts, 1944 after 36 cuts in 2 rounds"


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


def test_milp_certificate_honours_tol(scenario_dir):
    """Row and bound residuals are judged at ``FEASIBILITY_TOL`` (1e-6),
    integrality at ``INTEGRALITY_TOL`` (1e-5)."""
    prog = compile_system(load_scenario(scenario_dir / "commitment_demo.json").system)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL

    def moved(j, step):
        values = sol.values.copy()
        values[j] += step
        return dataclasses.replace(sol, values=values, objective=float(prog.objective @ values))

    # breaks the wind's t=3 capacity row (EQ1) by 2.8e-5
    wind_t3 = prog.index(VarRef(VarKind.OUTPUT, "wind", 3))
    assert not check_certificate(prog, moved(wind_t3, 5e-5)).ok
    assert check_certificate(prog, moved(wind_t3, 1e-7)).ok
    fractional = moved(int(np.flatnonzero(prog.is_integer)[0]), 1e-4)
    report = check_certificate(prog, fractional)
    assert not report.ok
    assert any("fractional" in v for v in report.violations)


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
    vals = dict(zip(oracles.var_refs(prog), sol.values))
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
    vals = dict(zip(oracles.var_refs(prog), sol.values))
    on = [vals[VarRef(VarKind.ON, "unit", t)] for t in range(4)]
    starts = [vals[VarRef(VarKind.STARTUP, "unit", t)] for t in range(4)]
    prev = [0.0] + on[:-1]
    assert starts == pytest.approx([max(0.0, a - b) for a, b in zip(on, prev)])
    assert on == [1.0, 0.0, 0.0, 1.0]  # cycling beats idling at min load


def test_crossed_variable_bounds_are_infeasible_without_a_pivot():
    # x1 has lower bound 3 above its upper bound 2: no point exists, and
    # both entry points say so before the simplex starts
    prog = make_program([1.0, 1.0], [([(0, 1.0), (1, 1.0)], ">=", 1.0)],
                        lower=[0.0, 3.0], upper=[5.0, 2.0], integer=[1, 0])
    for sol in (solve_lp(prog), solve_milp(prog)):
        assert sol.status == Status.INFEASIBLE
        assert sol.iterations == 0
        assert sol.values.shape == (prog.num_vars,)
        assert sol.basis is None
    assert solve_milp(prog).nodes == 1


def test_basis_is_set_for_an_optimal_lp_only():
    optimal = solve_lp(make_program([-1.0], [([(0, 1.0)], "<=", 5.0)]))
    assert optimal.status == Status.OPTIMAL and optimal.basis is not None
    infeasible = solve_lp(make_program([1.0], [([(0, 1.0)], "<=", 1.0),
                                               ([(0, 1.0)], ">=", 2.0)]))
    assert infeasible.status == Status.INFEASIBLE and infeasible.basis is None
    unbounded = solve_lp(make_program([-1.0, 0.0], [([(0, 1.0), (1, -1.0)], "<=", 0.0)]))
    assert unbounded.status == Status.UNBOUNDED and unbounded.basis is None
    # the root relaxation (x0 = 2.3) is optimal with a basis; the MILP result is not an LP's
    milp = solve_milp(make_program([-1.0, 0.0], [([(0, 1.0), (1, 1.0)], "<=", 2.3)],
                                   upper=[10.0, 10.0], integer=[1, 0]))
    assert milp.status == Status.OPTIMAL and milp.values[0] == 2.0
    assert milp.basis is None


def test_resolve_from_the_returned_basis_takes_no_iterations(scenario_dir):
    prog = compile_system(load_scenario(scenario_dir / "paper_system_48.json").system)
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL and sol.iterations > 0
    again = solve_standard_lp(standardize(prog), SolverConfig(), start=sol.basis)
    assert again.status == Status.OPTIMAL
    assert again.iterations == 0
    np.testing.assert_array_equal(again.values, sol.values)
    assert again.objective == sol.objective


def _stopping_node_lp(monkeypatch, stop, status=Status.ITERATION_LIMIT):
    """Branch and bound's LP solves, but its ``stop``-th node LP reports
    its own result with ``status``, by default the iteration limit (node
    LPs never outlast the root, so no real limit stops one first)."""
    rows, node_lps = [], []

    def stopping(std, cfg, lower=None, upper=None, start=None):
        out = solve_standard_lp(std, cfg, lower, upper, start=start)
        rows.append(std.num_rows)
        if lower is not None and std.num_rows > rows[0]:  # not the polish or the dive
            node_lps.append(out)
            if len(node_lps) == stop:
                return dataclasses.replace(out, status=status)
        return out

    monkeypatch.setattr(branch_bound, "solve_standard_lp", stopping)
    return node_lps


@pytest.mark.parametrize("stop", [2, 10])
def test_a_node_lp_at_its_iteration_limit_ends_with_an_open_gap(scenario_dir, tmp_path,
                                                                monkeypatch, stop):
    """commitment_48 (11 nodes) with its second node LP stopped, before any
    incumbent, or its last: the search stops there and that node stays
    open, so the bound stays at or below the optimum and, with an
    incumbent, the gap stays outside ``mip_gap``; the run exits 5.  Without
    an incumbent, the message and ``summary.txt`` name the node LP's
    iteration limit."""
    from enopt import cli

    scn = load_scenario(scenario_dir / "commitment_48.json")
    prog = compile_system(scn.system)
    full = solve_milp(prog)
    assert full.status == Status.OPTIMAL and full.nodes == 11
    node_lps = _stopping_node_lp(monkeypatch, stop)
    sol = solve_milp(prog)
    assert len(node_lps) == stop and sol.nodes == stop + 1
    assert sol.status == Status.GAP_LIMIT
    assert sol.bound <= full.objective
    if math.isfinite(sol.objective):  # an incumbent
        assert sol.bound <= sol.objective and sol.gap > SolverConfig().mip_gap
    node_lps = _stopping_node_lp(monkeypatch, stop)
    assert cli.run(scn, tmp_path / "out")[2] == 5 and len(node_lps) == stop
    if stop == 2:  # no incumbent
        assert sol.message == "node LP iteration limit reached before any incumbent"
        assert (tmp_path / "out" / "summary.txt").read_text() == (
            f"status: gap_limit\nmessage: {sol.message}\n")


def test_an_unbounded_node_lp_under_an_optimal_root_is_a_solver_failure(
        scenario_dir, tmp_path, monkeypatch, capsys):
    """A node's region lies inside its root's, so under an optimal root a
    node LP that reports unbounded broke down numerically: ``solve_milp``
    raises ``SolverError`` and ``enopt run`` exits 8, not 4 (unbounded)."""
    from enopt import cli

    path = scenario_dir / "commitment_48.json"
    node_lps = _stopping_node_lp(monkeypatch, 1, Status.UNBOUNDED)
    with pytest.raises(SolverError, match="node 2's LP unbounded under an optimal root"):
        solve_milp(compile_system(load_scenario(path).system))
    assert len(node_lps) == 1
    node_lps = _stopping_node_lp(monkeypatch, 1, Status.UNBOUNDED)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 8
    assert len(node_lps) == 1
    err = capsys.readouterr().err
    assert err == "error: node 2's LP unbounded under an optimal root\n"
