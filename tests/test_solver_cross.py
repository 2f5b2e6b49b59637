"""Cross-checks of the built-in solver against scipy's HiGHS on mid-size
instances.  The acceptance oracles stay enumeration-based; these tests add
independent coverage at sizes enumeration cannot reach."""

import json

import numpy as np
import pytest
import scipy.optimize as sopt
import scipy.sparse as sp

from enopt import model as M
from enopt.analyze import verify_solution
from enopt.formulate import Family, VarKind, VarRef, compile_system
from enopt.scenario import load_scenario, system_from_dict
from enopt.solver import SolverConfig, Status, check_certificate, solve_lp, solve_milp

from conftest import make_program, tiled_commitment_doc
from oracles import rows_tagged


def _random_structured(rng, n_lo=10, n_hi=40, m_lo=8, m_hi=40):
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(m_lo, m_hi + 1))
    A = rng.uniform(-2, 2, size=(m, n))
    A[rng.uniform(size=(m, n)) < 0.7] = 0.0  # keep it sparse-ish
    # make sure no row is entirely empty
    for i in range(m):
        if not A[i].any():
            A[i, int(rng.integers(0, n))] = 1.0
    senses = np.where(rng.uniform(size=m) < 0.25, "=", "<=")
    # build b around a known feasible interior point so most instances solve
    x0 = rng.uniform(0.2, 2.0, size=n)
    slackish = rng.uniform(0.0, 3.0, size=m)
    b = A @ x0 + np.where(senses == "=", 0.0, slackish)
    upper = rng.uniform(2.5, 12.0, size=n)
    c = rng.uniform(-5, 5, size=n)
    rows = [([(j, A[i, j]) for j in range(n) if A[i, j] != 0.0], senses[i], b[i])
            for i in range(m)]
    return c, A, senses, b, upper, rows


def _scipy_reference(c, A, senses, b, upper, integrality=None):
    le = senses == "<="
    constraints = []
    if le.any():
        constraints.append(sopt.LinearConstraint(A[le], -np.inf, b[le]))
    if (~le).any():
        constraints.append(sopt.LinearConstraint(A[~le], b[~le], b[~le]))
    res = sopt.milp(c=c, constraints=constraints,
                    bounds=sopt.Bounds(np.zeros(len(c)), upper),
                    integrality=integrality if integrality is not None
                    else np.zeros(len(c)))
    return res


@pytest.mark.parametrize("seed", range(6))
def test_midsize_lps_match_highs(seed):
    rng = np.random.default_rng(7000 + seed)
    for _ in range(5):
        c, A, senses, b, upper, rows = _random_structured(rng)
        ref = _scipy_reference(c, A, senses, b, upper)
        sol = solve_lp(make_program(c, rows, upper=upper))
        if ref.status == 2:  # infeasible
            assert sol.status == Status.INFEASIBLE
        else:
            assert ref.status == 0
            assert sol.status == Status.OPTIMAL
            assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_midsize_milps_match_highs(seed):
    rng = np.random.default_rng(8000 + seed)
    for _ in range(3):
        c, A, senses, b, upper, rows = _random_structured(rng, 8, 20, 6, 16)
        integrality = (rng.uniform(size=len(c)) < 0.4).astype(float)
        upper = np.where(integrality > 0, np.ceil(upper), upper)
        ref = _scipy_reference(c, A, senses, b, upper, integrality)
        sol = solve_milp(make_program(c, rows, upper=upper,
                                      integer=integrality.astype(int)))
        if ref.status == 2:
            assert sol.status == Status.INFEASIBLE
        else:
            assert ref.status == 0
            assert sol.status == Status.OPTIMAL
            assert sol.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)


def _prog_to_scipy(prog):
    A = prog.A.copy()  # HiGHS gets its own matrix, so prog is left as it is
    b = prog.rhs
    senses = prog.sense
    lo = np.where(senses == "<=", -np.inf, b)
    hi = np.where(senses == ">=", np.inf, b)
    constraints = sopt.LinearConstraint(A, lo, hi)
    return constraints


def test_desk_replica_lp_matches_highs(scenario_dir):
    scn = load_scenario(scenario_dir / "paper_system_48.json")
    prog = compile_system(scn.system)
    constraints = _prog_to_scipy(prog)
    ref = sopt.milp(c=np.asarray(prog.objective),
                    constraints=constraints,
                    bounds=sopt.Bounds(np.asarray(prog.lower),
                                       np.asarray(prog.upper)),
                    integrality=np.zeros(prog.num_vars))
    assert ref.status == 0
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, rel=1e-8)


def _heat_pump_doc(scenario_dir, section, key, value):
    """The paper_system_48 scenario with one field of the heat pump's
    ``section`` set."""
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    pump = next(c for c in doc["system"]["components"] if c["id"] == "heat_pump")
    pump[section][key] = value
    return doc


def _heat_pump_variant(scenario_dir, section, key, value):
    doc = _heat_pump_doc(scenario_dir, section, key, value)
    return compile_system(system_from_dict(doc["system"], scenario_dir))


def _highs_objective(prog):
    ref = sopt.milp(c=prog.objective, constraints=_prog_to_scipy(prog),
                    bounds=sopt.Bounds(prog.lower, prog.upper),
                    integrality=np.zeros(prog.num_vars))
    assert ref.status == 0
    return ref.fun


@pytest.mark.parametrize("efficiency", [1e-6, 1e-9, 1e-12])
def test_tiny_heat_pump_efficiency_matches_highs(scenario_dir, efficiency):
    """A near-zero efficiency makes the program badly scaled: the dual pass
    met pivots whose element was zero in the ftran'd column but not in the
    tableau row, and divided by it or factorised a singular basis.  It now
    refactors before such a pivot.  Only the objective is compared here; the
    point at 1e-12 is checked by the certificate test below."""
    prog = _heat_pump_variant(scenario_dir, "conversion", "efficiency", efficiency)
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(_highs_objective(prog), rel=1e-9)


def test_tiny_heat_pump_efficiency_stays_within_bounds(scenario_dir):
    """Tableau entries near 1e12 make step limits that an absolute tie
    window cannot tell apart; the primal ratio test must still leave every
    basic within the feasibility tolerance of its bounds."""
    prog = _heat_pump_variant(scenario_dir, "conversion", "efficiency", 1e-12)
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    assert np.all(sol.values >= prog.lower - 1e-6)
    assert np.all(sol.values <= prog.upper + 1e-6)


@pytest.mark.xfail(strict=True, reason="ill-conditioned duals: reduced costs inconsistent "
                   "with the duals by 6.7e-5, which waits for scaling")
def test_tiny_heat_pump_efficiency_passes_the_certificate(scenario_dir):
    prog = _heat_pump_variant(scenario_dir, "conversion", "efficiency", 1e-12)
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    assert check_certificate(prog, sol).ok


@pytest.mark.parametrize("invest", [
    1e8, 1e10,
    pytest.param(1e12, marks=pytest.mark.xfail(
        strict=True, reason="an OPTIMAL point 6.2e-5 above HiGHS, whose reduced costs have "
        "the wrong sign: the certificate rejects it, and scaling is still to come")),
])
def test_huge_heat_pump_invest_matches_highs(scenario_dir, invest):
    prog = _heat_pump_variant(scenario_dir, "costs", "invest", invest)
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    assert check_certificate(prog, sol).ok
    assert sol.objective == pytest.approx(_highs_objective(prog), rel=1e-9)


def test_huge_heat_pump_invest_fails_the_certificate_and_the_run(scenario_dir, tmp_path):
    """Invest 1e12 returns a suboptimal point whose duals have the wrong
    signs; scaled by the largest cost, complementarity hides them, so only
    the sign checks reject it, and ``enopt run`` exits 9."""
    from enopt import cli
    doc = _heat_pump_doc(scenario_dir, "costs", "invest", 1e12)
    prog = compile_system(system_from_dict(doc["system"], scenario_dir))
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    report = check_certificate(prog, sol)
    assert not report.ok
    assert all("wrong sign" in note for note in report.violations)
    path = tmp_path / "invest_1e12.json"
    path.write_text(json.dumps(doc))
    (tmp_path / "series_48.csv").write_bytes((scenario_dir / "series_48.csv").read_bytes())
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_VERIFY == 9


def _ramp_rows_from_system(sys_, prog):
    """Every fixed-ramp row of the model, EQ16 and EQ17 at each step t >= 1,
    written out from the system definition (fraction per step)."""
    T, periods = sys_.time.num_steps, sys_.time.period_of_step
    rows, rhs = [], []
    for comp in sys_.components:
        ramp = comp.ramp
        if not isinstance(ramp, M.FixedRamp):
            continue
        for t in range(1, T):
            out_t = prog.index(VarRef(VarKind.OUTPUT, comp.id, t))
            out_p = prog.index(VarRef(VarKind.OUTPUT, comp.id, t - 1))
            for frac, sign in ((ramp.up_per_hour, 1.0), (ramp.down_per_hour, -1.0)):
                row = {out_t: sign, out_p: -sign}
                if comp.capacity.optimizable:
                    inst = (VarRef(VarKind.INSTALLED_PERIOD, comp.id, period=periods[t])
                            if comp.capacity.per_period
                            else VarRef(VarKind.INSTALLED, comp.id))
                    row[prog.index(inst)] = -frac
                rows.append(row)
                rhs.append(frac * comp.capacity.initial)
    R = sp.lil_matrix((len(rows), prog.num_vars))
    for i, row in enumerate(rows):
        for j, coef in row.items():
            R[i, j] = coef
    return sopt.LinearConstraint(R.tocsr(), -np.inf, np.array(rhs))


def _random_ramp_system(rng):
    T = int(rng.integers(6, 15))
    split = int(rng.integers(0, T))
    grid = M.TimeGrid((1.0,) * T, tuple(int(t >= split and split > 0) for t in range(T)))

    def avail():
        a = rng.uniform(0.0, 1.0, T)
        a[rng.uniform(size=T) < 0.2] = 0.0
        a[rng.uniform(size=T) < 0.2] = 1.0
        return tuple(np.round(a, 2))

    def fraction():
        return float(rng.choice([0.0, 0.25, 0.5, 1.0, round(rng.uniform(0, 1.2), 2)]))

    nodes = (M.Node("elec", "e", tuple(rng.uniform(5.0, 20.0, T))),
             M.Node("fuel", "g", (0.0,) * T, boundary=True))
    comps = (
        M.Component("plant", M.SingleConversion("fuel", "elec", 0.5),
                    M.CapacitySpec(initial=float(rng.uniform(0, 5)), optimizable=True,
                                   max_total=40.0, availability=avail(),
                                   per_period=bool(rng.uniform() < 0.5)),
                    ramp=M.FixedRamp(fraction(), fraction()),
                    costs=M.CostSpec(invest=float(rng.uniform(1, 10)), fuel=8.0, built=0.5)),
        M.Component("wind", M.SourceConversion("elec"),
                    M.CapacitySpec(initial=float(rng.uniform(0, 8)),
                                   availability=avail()),
                    ramp=M.FixedRamp(fraction(), fraction())),
        M.Component("backup", M.SourceConversion("elec"),
                    M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=100.0)),
    )
    return M.EnergySystem(grid, nodes, comps, ())


def _highs_with_every_ramp_row(sys_, prog):
    ref = sopt.milp(c=np.asarray(prog.objective),
                    constraints=[_prog_to_scipy(prog), _ramp_rows_from_system(sys_, prog)],
                    bounds=sopt.Bounds(np.asarray(prog.lower), np.asarray(prog.upper)),
                    integrality=np.zeros(prog.num_vars))
    assert ref.status == 0
    return ref.fun


def test_dropped_ramp_rows_do_not_change_the_desk_optimum(scenario_dir):
    sys_ = load_scenario(scenario_dir / "paper_system_48.json").system
    prog = compile_system(sys_)
    assert not rows_tagged(prog, Family.RAMP_UP)  # every ramp row is implied
    sol = solve_lp(prog)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(_highs_with_every_ramp_row(sys_, prog), rel=1e-9)


def test_dropped_ramp_rows_do_not_change_random_optima():
    rng = np.random.default_rng(9100)
    dropped = kept = 0
    for _ in range(12):
        sys_ = _random_ramp_system(rng)
        prog = compile_system(sys_)
        n_ramp = len(rows_tagged(prog, Family.RAMP_UP)) + len(rows_tagged(prog, Family.RAMP_DOWN))
        kept += n_ramp
        dropped += 4 * (sys_.time.num_steps - 1) - n_ramp
        sol = solve_lp(prog)
        assert sol.status == Status.OPTIMAL
        assert sol.objective == pytest.approx(_highs_with_every_ramp_row(sys_, prog),
                                              rel=1e-9)
    assert dropped > 0 and kept > 0


def test_coverage_fixture_milp_matches_highs(coverage_system):
    prog = compile_system(coverage_system)
    constraints = _prog_to_scipy(prog)
    ref = sopt.milp(c=np.asarray(prog.objective),
                    constraints=constraints,
                    bounds=sopt.Bounds(np.asarray(prog.lower),
                                       np.asarray(prog.upper)),
                    integrality=np.asarray(prog.is_integer, dtype=float))
    assert ref.status == 0
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, rel=1e-6)


@pytest.mark.parametrize("steps", [48, 168])
def test_tiled_commitment_days_solve_to_the_gap(steps):
    """commitment_demo tiled to two days and to a week (5% noise, seed 3):
    the cut rounds close the root, so both solve to ``mip_gap``, match
    HiGHS and pass both gates."""
    system = system_from_dict(tiled_commitment_doc(steps, 0.05, 3)["system"])
    prog = compile_system(system)
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL and sol.gap <= SolverConfig().mip_gap
    ref = sopt.milp(c=prog.objective, constraints=_prog_to_scipy(prog),
                    bounds=sopt.Bounds(prog.lower, prog.upper),
                    integrality=prog.is_integer.astype(float), options={"mip_rel_gap": 1e-9})
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-6)
    assert verify_solution(system, prog, sol).passed
    assert check_certificate(prog, sol).ok


def test_a_node_limit_never_reports_a_bound_above_the_incumbent():
    """Stopped by the node limit with only prunable nodes left open, the
    bound is the incumbent's objective, not the open nodes' larger key, and
    the gap it closes makes the stop an optimum."""
    system = system_from_dict(tiled_commitment_doc(48, 0.15, 5)["system"])
    prog = compile_system(system)
    full = solve_milp(prog)
    assert full.status == Status.OPTIMAL and full.nodes > 1
    sol = solve_milp(prog, SolverConfig(max_nodes=full.nodes))
    assert sol.status == Status.OPTIMAL and sol.objective == full.objective
    assert sol.bound == sol.objective and sol.gap == 0.0


@pytest.mark.parametrize("short", [1, 2])
def test_a_node_limit_short_of_the_optimum_reports_an_open_gap(short):
    """One or two nodes short of the tree above, open nodes still bound
    below the incumbent: the stop is ``gap_limit`` with a valid bound."""
    prog = compile_system(system_from_dict(tiled_commitment_doc(48, 0.15, 5)["system"]))
    full = solve_milp(prog)
    sol = solve_milp(prog, SolverConfig(max_nodes=full.nodes - short))
    assert sol.status == Status.GAP_LIMIT and sol.nodes == full.nodes - short
    assert sol.bound <= sol.objective and sol.gap > SolverConfig().mip_gap


def test_coverage_fixture_milp_is_deterministic(coverage_system):
    a = solve_milp(compile_system(coverage_system))
    b = solve_milp(compile_system(coverage_system))
    assert a.objective == b.objective
    assert a.nodes == b.nodes
    assert np.array_equal(a.values, b.values)


def test_two_unit_commitment_day_matches_highs():
    """A 12-step day with two committed plants, min up/down times and a
    cycling price signal: a denser commitment MILP than the fixtures."""
    from enopt import model as M

    T = 12
    load = (6.0, 8.0, 11.0, 14.0, 12.0, 9.0, 7.0, 10.0, 15.0, 13.0, 8.0, 6.0)
    grid = M.TimeGrid((1.0,) * T)
    nodes = (M.Node("elec", "e", load),
             M.Node("fuel", "g", (0.0,) * T, boundary=True))
    comps = (
        M.Component("base_unit", M.SingleConversion("fuel", "elec", 0.45),
                    M.CapacitySpec(),
                    commitment=M.UnitCommitment(unit_capacity=10.0, unit_min_load=4.0,
                                                startup_cost=30.0, min_up_steps=3,
                                                min_down_steps=2),
                    costs=M.CostSpec(fuel=8.0)),
        M.Component("peak_unit", M.SingleConversion("fuel", "elec", 0.35),
                    M.CapacitySpec(),
                    commitment=M.UnitCommitment(unit_capacity=8.0, unit_min_load=2.0,
                                                startup_cost=5.0, min_up_steps=2,
                                                min_down_steps=2),
                    costs=M.CostSpec(fuel=14.0)),
        M.Component("wind", M.SourceConversion("elec"),
                    M.CapacitySpec(initial=6.0,
                                   availability=(0.8, 0.2, 0.1, 0.3, 0.9, 1.0,
                                                 0.7, 0.2, 0.0, 0.1, 0.6, 0.9))),
    )
    sys_ = M.EnergySystem(grid, nodes, comps, ())
    prog = compile_system(sys_)
    constraints = _prog_to_scipy(prog)
    ref = sopt.milp(c=np.asarray(prog.objective),
                    constraints=constraints,
                    bounds=sopt.Bounds(np.asarray(prog.lower),
                                       np.asarray(prog.upper)),
                    integrality=np.asarray(prog.is_integer, dtype=float))
    assert ref.status == 0
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, rel=1e-6)

    from enopt.analyze import verify_solution

    assert verify_solution(sys_, prog, sol).passed


def _random_general_lp(rng):
    """A random LP with costs of both signs, free, lower-only, upper-only and
    boxed columns, and <=, >= and = rows; its right-hand side is built
    around a point inside the bounds, shifted at random, so outcomes mix."""
    n = int(rng.integers(5, 16))
    m = int(rng.integers(3, 12))
    A = rng.uniform(-2, 2, size=(m, n))
    A[rng.uniform(size=(m, n)) < 0.6] = 0.0
    kind = rng.choice(["box", "lower", "upper", "free"], size=n, p=[0.4, 0.3, 0.15, 0.15])
    lower = np.where((kind == "box") | (kind == "lower"), rng.uniform(-2, 1, n), -np.inf)
    upper = np.where((kind == "box") | (kind == "upper"), rng.uniform(2, 5, n), np.inf)
    x0 = np.clip(rng.uniform(-1, 3, n), lower, upper)
    senses = rng.choice(np.array(["<=", ">=", "="]), size=m, p=[0.4, 0.3, 0.3])
    room = rng.uniform(0, 2, m)
    b = A @ x0 + np.where(senses == "<=", room, np.where(senses == ">=", -room, 0.0))
    b += np.where(rng.uniform(size=m) < 0.15, rng.uniform(-20, 20, m), 0.0)
    c = rng.uniform(-3, 3, size=n)
    rows = [([(j, A[i, j]) for j in range(n) if A[i, j] != 0.0], senses[i], b[i])
            for i in range(m)]
    return c, A, senses, b, lower, upper, rows


def test_cold_solves_match_highs_on_general_lps(monkeypatch):
    """Negative costs and free columns leave the slack basis dual infeasible,
    and the crash start more so, so these solves take the cost-modification
    path; the crash makes columns basic on most of them."""
    from enopt.solver import check_certificate, simplex
    from enopt.solver.standard import standardize

    import oracles

    crashed = []
    crash = simplex.crash

    def counting_crash(*args):
        passes = crash(*args)
        crashed.append(any(passes))
        return passes

    monkeypatch.setattr(simplex, "crash", counting_crash)
    rng = np.random.default_rng(9300)
    seen = set()
    for _ in range(60):
        c, A, senses, b, lower, upper, rows = _random_general_lp(rng)
        ub, eq = senses != "=", senses == "="
        sign = np.where(senses == ">=", -1.0, 1.0)[ub]
        ref = sopt.linprog(c, A_ub=(A[ub] * sign[:, None]) if ub.any() else None,
                           b_ub=(b[ub] * sign) if ub.any() else None,
                           A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
                           bounds=list(zip(lower, upper)), method="highs")
        prog = make_program(c, rows, lower=lower, upper=upper)
        sol = solve_lp(prog)
        expected = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}[ref.status]
        assert sol.status == expected
        seen.add(expected)
        if expected == Status.OPTIMAL:
            assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
            assert check_certificate(prog, sol).ok
        elif expected == Status.INFEASIBLE:
            assert oracles.farkas_proves_infeasible(standardize(prog), sol.farkas)
        else:
            # the ray is a feasible direction along which the cost falls
            ray = sol.ray
            act = A @ ray
            scale = max(1.0, float(np.max(np.abs(ray))))
            assert c @ ray < -1e-9 * scale
            assert np.all(act[senses == "<="] <= 1e-9 * scale)
            assert np.all(act[senses == ">="] >= -1e-9 * scale)
            assert np.all(np.abs(act[eq]) <= 1e-9 * scale)
            assert np.all(ray[np.isfinite(lower)] >= -1e-12)
            assert np.all(ray[np.isfinite(upper)] <= 1e-12)
    assert seen == {Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED}
    assert sum(crashed) >= 30


def _random_commitment_system(rng, initial_on, n_steps):
    """Two committed units and wind on a seeded day of 10 steps, with an
    expensive uncommitted backup so every schedule of the units is feasible.
    The base unit starts in ``initial_on`` with minimum up and down times of
    ``n_steps``; the peak unit gets its own at random."""
    T = 10
    load = tuple(np.round(rng.uniform(3.0, 14.0, T), 2))
    grid = M.TimeGrid((1.0,) * T)
    nodes = (M.Node("elec", "e", load), M.Node("fuel", "g", (0.0,) * T, boundary=True))
    up, down = (int(k) for k in rng.integers(0, 4, size=2))
    comps = (
        M.Component("base_unit", M.SingleConversion("fuel", "elec", 0.45), M.CapacitySpec(),
                    commitment=M.UnitCommitment(
                        unit_capacity=10.0, unit_min_load=3.0,
                        startup_cost=float(np.round(rng.uniform(5.0, 40.0), 1)),
                        min_up_steps=n_steps, min_down_steps=n_steps, initial_on=initial_on),
                    costs=M.CostSpec(fuel=8.0)),
        M.Component("peak_unit", M.SingleConversion("fuel", "elec", 0.35), M.CapacitySpec(),
                    commitment=M.UnitCommitment(
                        unit_capacity=6.0, unit_min_load=1.0, startup_cost=5.0,
                        min_up_steps=up, min_down_steps=down,
                        initial_on=int(rng.integers(0, 2))),
                    costs=M.CostSpec(fuel=14.0)),
        M.Component("wind", M.SourceConversion("elec"),
                    M.CapacitySpec(initial=6.0,
                                   availability=tuple(np.round(rng.uniform(0, 1, T), 2)))),
        M.Component("backup", M.SourceConversion("elec"),
                    M.CapacitySpec(optimizable=True), costs=M.CostSpec(fuel=100.0)),
    )
    return M.EnergySystem(grid, nodes, comps, ())


def _aggregated_updown_rows_from_system(sys_, prog):
    """Every minimum up/down row in the aggregated form of earlier versions,
    written out from the system definition (on[t] = initial_on for t < 0):
      downtime: N (on[t] - on[t-1]) + sum_{m=1..N} on[t-m] <= N
      uptime:   N (on[t-1] - on[t]) - sum_{m=1..N} on[t-m] <= 0"""
    rows, rhs = [], []
    for comp in sys_.components:
        com = comp.commitment
        if com is None:
            continue
        for n_steps, sign in ((com.min_down_steps, 1.0), (com.min_up_steps, -1.0)):
            for t in range(sys_.time.num_steps if n_steps > 0 else 0):
                terms = [(t, sign * n_steps), (t - 1, -sign * n_steps)]
                terms += [(t - m, sign) for m in range(1, n_steps + 1)]
                row, r = {}, (float(n_steps) if sign > 0 else 0.0)
                for step, coef in terms:
                    if step < 0:
                        r -= coef * com.initial_on
                    else:
                        j = prog.index(VarRef(VarKind.ON, comp.id, step))
                        row[j] = row.get(j, 0.0) + coef
                rows.append(row)
                rhs.append(r)
    R = sp.lil_matrix((len(rows), prog.num_vars))
    for i, row in enumerate(rows):
        for j, coef in row.items():
            R[i, j] = coef
    return sopt.LinearConstraint(R.tocsr(), -np.inf, np.array(rhs))


def _highs_commitment(sys_, prog, *, aggregated, relax=False):
    """HiGHS on the program, with its up/down rows swapped for the aggregated
    ones when ``aggregated``; the LP relaxation when ``relax``."""
    constraints = [_prog_to_scipy(prog)]
    if aggregated:
        keep = ~np.isin(np.asarray(prog.tag), [Family.MIN_DOWNTIME.value,
                                                Family.MIN_UPTIME.value])
        sense, rhs = np.asarray(prog.sense)[keep], np.asarray(prog.rhs)[keep]
        constraints = [sopt.LinearConstraint(prog.A[keep],
                                             np.where(sense == "<=", -np.inf, rhs),
                                             np.where(sense == ">=", np.inf, rhs)),
                       _aggregated_updown_rows_from_system(sys_, prog)]
    integrality = np.zeros(prog.num_vars) if relax else np.asarray(prog.is_integer, dtype=float)
    ref = sopt.milp(c=np.asarray(prog.objective), constraints=constraints,
                    bounds=sopt.Bounds(np.asarray(prog.lower), np.asarray(prog.upper)),
                    integrality=integrality, options={"mip_rel_gap": 0.0})
    assert ref.status == 0
    return ref.fun


@pytest.mark.parametrize("n_steps", [1, 2, 3])
@pytest.mark.parametrize("initial_on", [0, 1])
def test_tight_updown_rows_keep_the_milp_optimum(initial_on, n_steps):
    from enopt.analyze import verify_solution

    rng = np.random.default_rng(9500 + 10 * n_steps + initial_on)
    for _ in range(3):
        sys_ = _random_commitment_system(rng, initial_on, n_steps)
        prog = compile_system(sys_)
        assert len(rows_tagged(prog, Family.MIN_UPTIME)) >= sys_.time.num_steps
        old = _highs_commitment(sys_, prog, aggregated=True)
        assert _highs_commitment(sys_, prog, aggregated=False) == pytest.approx(
            old, rel=1e-9, abs=1e-7)
        sol = solve_milp(prog)
        assert sol.status == Status.OPTIMAL
        assert sol.objective == pytest.approx(old, rel=1e-6)
        assert verify_solution(sys_, prog, sol).passed


def test_tight_updown_rows_do_not_lower_the_root_bound():
    rng = np.random.default_rng(9600)
    raised = 0
    for initial_on in (0, 1):
        for n_steps in (1, 2, 3):
            for _ in range(3):
                sys_ = _random_commitment_system(rng, initial_on, n_steps)
                prog = compile_system(sys_)
                old = _highs_commitment(sys_, prog, aggregated=True, relax=True)
                root = solve_lp(prog)
                assert root.status == Status.OPTIMAL
                assert root.objective == pytest.approx(
                    _highs_commitment(sys_, prog, aggregated=False, relax=True), rel=1e-9)
                assert root.objective >= old - 1e-9 * max(1.0, abs(old))
                raised += root.objective > old + 1e-7 * max(1.0, abs(old))
    assert raised > 0
