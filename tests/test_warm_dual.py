"""Branch-and-bound nodes re-optimised by the warm-started dual simplex.

Every node LP starts from its parent's optimal basis; a cold solve of the
same bounds, a dual simplex from the slack basis, is the reference it must
agree with.
"""

import math

import numpy as np
import pytest

from enopt.formulate import compile_system
from enopt.scenario import load_scenario
from enopt.solver import SolverConfig, Status, solve_milp
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
