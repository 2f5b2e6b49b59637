"""Warm re-solves: branch-and-bound nodes, and changed data.

Every node LP starts from its parent's optimal basis, and a re-solve with a
changed right-hand side or changed costs from the optimal basis before the
change; a cold solve of the same standard form, a dual simplex from the
slack basis, is the reference each must agree with.
"""

import dataclasses
import math

import numpy as np
import pytest

from enopt.analyze import emissions_total
from enopt.formulate import Family, compile_system
from enopt.scenario import load_scenario
from enopt.solver import SolverConfig, Status, solve_lp, solve_milp
from enopt.solver import branch_bound
from enopt.solver.lp import solve_standard_lp
from enopt.solver.standard import standardize

from conftest import make_program


@pytest.fixture(scope="module")
def commitment_prog(scenario_dir):
    return compile_system(load_scenario(scenario_dir / "commitment_demo.json").system)


def test_every_node_lp_matches_a_cold_solve(commitment_prog, monkeypatch):
    calls = []

    def recording(std, cfg, lower=None, upper=None, start=None, **kwargs):
        out = solve_standard_lp(std, cfg, lower, upper, start=start, **kwargs)
        calls.append((std, cfg, lower, upper, start, out))
        return out

    monkeypatch.setattr(branch_bound, "solve_standard_lp", recording)
    sol = solve_milp(commitment_prog)
    assert sol.status == Status.OPTIMAL
    warm = [c for c in calls if c[4] is not None]
    assert len(warm) == len(calls) - 1 == sol.nodes - 1  # all but the root
    statuses = set()
    for std, cfg, lower, upper, _, out in warm:
        cold = solve_standard_lp(std, cfg, lower, upper)
        assert out.status == cold.status
        statuses.add(out.status)
        if out.status == "optimal":
            assert out.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
    assert statuses == {"optimal", "infeasible"}


def test_infeasible_child_is_reported_infeasible():
    # x integer in [0, 10], y in [0, 0.2], x + y = 2.5: the root relaxation
    # has x = 2.3, and neither x <= 2 nor x >= 3 leaves a feasible point
    prog = make_program([0.0, -1.0], [([(0, 1.0), (1, 1.0)], "=", 2.5)],
                        upper=[10.0, 0.2], integer=[1, 0])
    std = standardize(prog)
    cfg = SolverConfig()
    root = solve_standard_lp(std, cfg)
    assert root.status == "optimal"
    assert root.values[0] == pytest.approx(2.3)
    for lo, hi in ((0.0, 2.0), (3.0, 10.0)):
        lower, upper = std.lower.copy(), std.upper.copy()
        lower[0], upper[0] = lo, hi
        child = solve_standard_lp(std, cfg, lower, upper, start=root.basis)
        assert child.status == "infeasible"
        assert solve_standard_lp(std, cfg, lower, upper).status == "infeasible"
    sol = solve_milp(prog)
    assert sol.status == Status.INFEASIBLE
    assert sol.nodes == 3


def test_warm_start_with_unchanged_bounds_takes_no_iterations(commitment_prog):
    std = standardize(commitment_prog)
    cfg = SolverConfig()
    root = solve_standard_lp(std, cfg)
    again = solve_standard_lp(std, cfg, start=root.basis)
    assert again.status == "optimal"
    assert again.iterations == 0
    assert again.objective == root.objective
    np.testing.assert_array_equal(again.values, root.values)
    np.testing.assert_array_equal(again.basis.basis, root.basis.basis)


def test_commitment_demo_needs_few_iterations_per_node(commitment_prog):
    sol = solve_milp(commitment_prog)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == 1944.0
    assert sol.iterations <= 10 * sol.nodes
    assert math.isfinite(sol.bound) and sol.gap <= SolverConfig().mip_gap


@pytest.fixture(scope="module")
def desk_48(scenario_dir):
    """paper_system_48 and its emissions at the uncapped optimum."""
    sys_ = load_scenario(scenario_dir / "paper_system_48.json").system
    prog = compile_system(sys_)
    return sys_, prog, emissions_total(sys_, prog, solve_lp(prog))


def _warm_matches_cold(std, start):
    cfg = SolverConfig()
    warm = solve_standard_lp(std, cfg, start=start)
    cold = solve_standard_lp(std, cfg)
    assert warm.status == cold.status == Status.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.iterations < cold.iterations


def test_warm_re_solve_after_a_changed_co2_cap_matches_a_cold_solve(desk_48):
    """A changed right-hand side leaves the start dual feasible: the dual
    pass restores primal feasibility from there."""
    sys_, _, e0 = desk_48
    prog = compile_system(dataclasses.replace(sys_, co2_cap=e0))
    std = standardize(prog)
    (row,) = np.flatnonzero(prog.tag == Family.CO2_CAP.value)
    start = solve_standard_lp(std, SolverConfig())
    for share in (0.9, 0.8, 0.7):
        b = std.b.copy()
        b[row] = share * e0
        _warm_matches_cold(dataclasses.replace(std, b=b), start.basis)


def test_warm_re_solve_after_changed_costs_matches_a_cold_solve(desk_48):
    """Changed costs leave the start primal feasible: cost modification
    makes it dual feasible for the dual pass, and the primal pass with the
    true costs finishes."""
    _, prog, _ = desk_48
    std = standardize(prog)
    start = solve_standard_lp(std, SolverConfig())
    rng = np.random.default_rng(1)
    for _ in range(3):
        cost = std.cost * rng.uniform(1.0, 1.5, std.cost.size)
        _warm_matches_cold(dataclasses.replace(std, cost=cost), start.basis)
