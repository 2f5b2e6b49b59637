import math

import numpy as np
import pytest

from enopt.solver import SolverConfig, Status, check_certificate, solve_lp, solve_milp
from enopt.solver.core import FEASIBILITY_TOL
from enopt.solver.lp import solve_standard_lp
from enopt.solver.standard import standardize

import oracles
from conftest import make_program


def test_single_variable_bound():
    prog = make_program([-1.0], [([(0, 1.0)], "<=", 5.0)])
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)
    assert sol.values[0] == pytest.approx(5.0)


def test_bounds_only_program():
    prog = make_program([2.0, -3.0], [], upper=[4.0, 7.0])
    sol = solve_lp(prog)
    assert sol.objective == pytest.approx(-21.0)
    assert list(sol.values) == [0.0, 7.0]


def test_bounds_only_program_unbounded_along_a_free_variable():
    prog = make_program([1.0, -2.0], [], lower=[0.0, -math.inf], upper=[5.0, math.inf])
    sol = solve_lp(prog)
    assert sol.status == Status.UNBOUNDED
    assert sol.objective == -math.inf
    assert sol.ray[0] == 0.0 and sol.ray[1] > 0.0


def test_infeasible_reports_certificate():
    prog = make_program([1.0], [([(0, 1.0)], "<=", 1.0), ([(0, 1.0)], ">=", 2.0)])
    sol = solve_lp(prog)
    assert sol.status == Status.INFEASIBLE
    assert sol.farkas is not None
    std = standardize(prog)
    assert oracles.farkas_proves_infeasible(std, sol.farkas)
    assert not oracles.farkas_proves_infeasible(std, np.zeros(2))


def _infeasible_instance(rng):
    """A random LP made infeasible by one extra row: either a copy of a
    ``<=`` row demanding more than its right-hand side, or a row asking for
    more than the variables' bounds can give."""
    c, A, senses, b, upper, rows = _random_instance(rng)
    gap = float(rng.uniform(0.01, 2.0))
    le = [i for i in range(len(rows)) if senses[i] == "<=" and rows[i][0]]
    if le and rng.uniform() < 0.5:
        i = le[int(rng.integers(len(le)))]
        rows.append((rows[i][0], ">=", b[i] + gap))
    else:
        a = rng.uniform(-2, 2, size=len(c))
        reach = float(np.maximum(a * upper, 0.0).sum())
        rows.append(([(j, a[j]) for j in range(len(c))], rng.choice([">=", "="]), reach + gap))
    return c, rows, upper


def test_farkas_certificates_of_random_infeasible_lps():
    rng = np.random.default_rng(4100)
    for _ in range(40):
        c, rows, upper = _infeasible_instance(rng)
        prog = make_program(c, rows, upper=upper)
        sol = solve_lp(prog)
        assert sol.status == Status.INFEASIBLE
        assert oracles.farkas_proves_infeasible(standardize(prog), sol.farkas)


def test_unbounded_reports_ray():
    prog = make_program([-1.0, 0.0], [([(0, 1.0), (1, -1.0)], "<=", 0.0)])
    sol = solve_lp(prog)
    assert sol.status == Status.UNBOUNDED
    assert sol.ray is not None
    # the ray really is an improving feasible direction
    ray = sol.ray
    assert ray[0] > 0 and ray[0] - ray[1] <= 1e-9


def test_degenerate_cycling_fixture_terminates():
    """Classic cycling-prone LP: Dantzig pricing with naive tie-breaking can
    loop forever; the stall detector falls back to Bland's rule."""
    rows = [
        ([(0, 0.25), (1, -60.0), (2, -1 / 25), (3, 9.0)], "<=", 0.0),
        ([(0, 0.5), (1, -90.0), (2, -1 / 50), (3, 3.0)], "<=", 0.0),
        ([(2, 1.0)], "<=", 1.0),
    ]
    c = [-0.75, 150.0, -0.02, 6.0]
    prog = make_program(c, rows)
    sol = solve_lp(prog, SolverConfig(max_iterations=1000))
    assert sol.status == Status.OPTIMAL
    status, obj, _ = oracles.vertex_enumeration(
        c, _dense(rows, 4), ["<=", "<=", "<="], [0.0, 0.0, 1.0],
        [0.0] * 4, [100.0] * 4)
    assert status == "optimal"
    assert sol.objective == pytest.approx(obj, abs=1e-9)


def _dense(rows, n):
    A = np.zeros((len(rows), n))
    for i, (terms, _, _) in enumerate(rows):
        for j, coef in terms:
            A[i, j] = coef
    return A


def _random_instance(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 9))
    A = np.round(rng.uniform(-2, 2, size=(m, n)), 3)
    A[rng.uniform(size=(m, n)) < 0.3] = 0.0
    b = np.round(rng.uniform(-0.5, 8, size=m), 3)
    upper = np.round(rng.uniform(1, 10, size=n), 3)
    c = np.round(rng.uniform(-5, 5, size=n), 3)
    senses = ["=" if rng.uniform() < 0.15 else "<=" for _ in range(m)]
    rows = [([(j, A[i, j]) for j in range(n) if A[i, j] != 0.0], senses[i], b[i])
            for i in range(m)]
    return c, A, senses, b, upper, rows


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_lps_match_vertex_enumeration(seed):
    rng = np.random.default_rng(900 + seed)
    for _ in range(20):
        c, A, senses, b, upper, rows = _random_instance(rng)
        status, obj, _ = oracles.vertex_enumeration(c, A, senses, b,
                                                    [0.0] * len(c), upper)
        sol = solve_lp(make_program(c, rows, upper=upper))
        if status == "infeasible":
            assert sol.status == Status.INFEASIBLE
        else:
            assert sol.status == Status.OPTIMAL
            assert sol.objective == pytest.approx(obj, abs=1e-7)


def test_determinism_identical_solutions():
    rng = np.random.default_rng(77)
    c, A, senses, b, upper, rows = _random_instance(rng)
    sols = [solve_lp(make_program(c, rows, upper=upper)) for _ in range(2)]
    assert np.array_equal(sols[0].values, sols[1].values)
    assert sols[0].objective == sols[1].objective
    assert sols[0].iterations == sols[1].iterations


@pytest.mark.parametrize("lam", [0.5, 3.0, 10.0])
def test_objective_scaling_returns_identical_argmin(lam):
    rng = np.random.default_rng(31)
    for _ in range(10):
        c, A, senses, b, upper, rows = _random_instance(rng)
        base = solve_lp(make_program(list(c), rows, upper=upper))
        scaled = solve_lp(make_program(list(lam * c), rows, upper=upper))
        assert base.status == scaled.status
        if base.status == Status.OPTIMAL:
            assert np.array_equal(base.values, scaled.values)
            assert scaled.objective == pytest.approx(lam * base.objective,
                                                     rel=1e-12, abs=1e-12)


def test_iteration_limit_reports_partial_progress():
    rng = np.random.default_rng(5)
    c, A, senses, b, upper, rows = _random_instance(rng)
    sol = solve_lp(make_program(c, rows, upper=upper), SolverConfig(max_iterations=1))
    assert sol.status in (Status.ITERATION_LIMIT, Status.OPTIMAL, Status.INFEASIBLE)


def test_iteration_limit_in_the_primal_pass_keeps_the_dual_pass_point():
    """The dual pass reaches a feasible basis and the primal clean-up stops
    at the limit (this instance takes 5 pivots without one): no bound, no
    basis to warm-start from, and a point that satisfies every row."""
    c, A, senses, b, upper, rows = _random_instance(np.random.default_rng(2))
    sol = solve_lp(make_program(c, rows, upper=upper), SolverConfig(max_iterations=2))
    assert (sol.status, sol.message) == (Status.ITERATION_LIMIT, "simplex finished in phase 2")
    assert sol.bound == -math.inf and sol.basis is None
    assert senses == ["<="] * len(b)
    assert (A @ sol.values <= b + FEASIBILITY_TOL).all()
    assert ((-FEASIBILITY_TOL <= sol.values) & (sol.values <= upper + FEASIBILITY_TOL)).all()


def test_milp_solver_refuses_a_program_without_integers():
    with pytest.raises(ValueError, match="no integer variables"):
        solve_milp(make_program([1.0], [([(0, 1.0)], ">=", 1.0)]))


def test_negative_lower_bounds():
    prog = make_program([1.0, 0.0], [([(0, 1.0), (1, 1.0)], "=", -1.0)],
                        lower=[-3.0, 0.0], upper=[math.inf, 5.0])
    sol = solve_lp(prog)
    assert sol.objective == pytest.approx(-3.0)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_accepts_clean_optimum():
    prog = make_program([-3.0, -2.0],
                        [([(0, 1.0), (1, 1.0)], "<=", 4.0),
                         ([(0, 1.0), (1, 3.0)], "<=", 6.0)])
    sol = solve_lp(prog)
    report = check_certificate(prog, sol)
    assert report.ok, report.violations
    assert report.max_primal_residual <= 1e-6
    assert report.duality_gap <= 1e-6


def test_certificate_flags_perturbed_solution():
    import dataclasses
    prog = make_program([-3.0, -2.0],
                        [([(0, 1.0), (1, 1.0)], "<=", 4.0),
                         ([(0, 1.0), (1, 3.0)], "<=", 6.0)])
    sol = solve_lp(prog)
    shifted = dataclasses.replace(sol, values=sol.values + 1e-3)
    report = check_certificate(prog, shifted)
    assert not report.ok
    assert report.violations


@pytest.mark.parametrize("c, row, y, note", [
    # min x, x <= 1 with the dual +1: the point x = 1 prices out at d = 0
    ([1.0], ([(0, 1.0)], "<=", 1.0), [1.0], "row 0"),
    # min x, -x >= -1 with the dual -1: the same point, as a >= row
    ([1.0], ([(0, -1.0)], ">=", -1.0), [-1.0], "row 0"),
    # min x0 + 1e4 x1, x0 + x1 >= 1 with the dual 1.005: x0 = 1 can still
    # decrease and increase, yet d0 = -5e-3, hidden when scaled by max|c|
    ([1.0, 1e4], ([(0, 1.0), (1, 1.0)], ">=", 1.0), [1.005], "variable output_x0"),
])
def test_certificate_rejects_wrong_signed_duals(c, row, y, note):
    """Each point has a zero duality gap and zero complementarity; only the
    sign of a row dual or of a reduced cost shows it is not optimal."""
    import dataclasses
    prog = make_program(c, [row])
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    x = np.zeros(len(c))
    x[0] = 1.0
    y = np.array(y)
    point = dataclasses.replace(sol, values=x, objective=float(prog.objective @ x),
                                bound=float(prog.objective @ x), duals=y,
                                reduced_costs=prog.objective - prog.A.T @ y)
    report = check_certificate(prog, point)
    assert not report.ok
    assert len(report.violations) == 1
    assert report.violations[0].startswith(note) and "wrong sign" in report.violations[0]
    assert report.max_primal_residual == report.max_complementarity == report.duality_gap == 0.0
    assert report.max_dual_residual > 1e-3


def test_certificate_rejects_non_optimal_status():
    prog = make_program([1.0], [([(0, 1.0)], "<=", 1.0), ([(0, 1.0)], ">=", 2.0)])
    sol = solve_lp(prog)
    assert sol.status == Status.INFEASIBLE
    with pytest.raises(ValueError):
        check_certificate(prog, sol)


def test_certificate_rejects_non_finite_lp_optimum(scenario_dir):
    import dataclasses
    from enopt.formulate import compile_system
    from enopt.scenario import load_scenario
    prog = compile_system(load_scenario(scenario_dir / "paper_system_48.json").system)
    sol = solve_lp(prog)
    assert check_certificate(prog, sol).ok
    values = sol.values.copy()
    values[0] = math.nan
    report = check_certificate(prog, dataclasses.replace(sol, values=values,
                                                         objective=math.nan))
    assert not report.ok
    assert "objective is nan" in report.violations
    assert any(v.startswith("values not finite at 1 entries, first values[0] = nan")
               for v in report.violations)
    duals = sol.duals.copy()
    duals[3] = math.inf
    report = check_certificate(prog, dataclasses.replace(sol, duals=duals))
    assert not report.ok
    assert any(v.startswith("duals not finite") for v in report.violations)


def test_transpose_is_made_on_the_first_solve_and_shared():
    prog = make_program([1.0, 2.0], [([(0, 1.0), (1, 1.0)], ">=", 1.0)])
    std = standardize(prog)
    assert "AT" not in vars(std)  # standardize alone never builds it
    first = solve_standard_lp(std, SolverConfig())
    AT = vars(std)["AT"]
    again = solve_standard_lp(std, SolverConfig(), start=first.basis)
    assert again.status == "optimal" and std.AT is AT
    assert np.shares_memory(AT.data, std.A.data)


def test_repeated_column_in_a_row_adds_up():
    # 2 x0 + x1 <= 4 written with x0 twice; both columns end up basic, and
    # the LU (SuperLU keeps the last of repeated entries) must see their sum,
    # which standardize forms
    rows = [([(1, 3.0), (0, 1.0)], "<=", 6.0)]
    repeated = make_program([-1.0, -1.0], [([(0, 1.0), (1, 1.0), (0, 1.0)], "<=", 4.0)] + rows)
    merged = make_program([-1.0, -1.0], [([(0, 2.0), (1, 1.0)], "<=", 4.0)] + rows)
    assert repeated.A.nnz == merged.A.nnz + 1
    assert standardize(repeated).A.nnz == standardize(merged).A.nnz
    for prog in (repeated, merged):
        sol = solve_lp(prog)
        assert sol.status == Status.OPTIMAL and check_certificate(prog, sol).ok
        assert sol.values == pytest.approx([1.2, 1.6], abs=1e-12)
