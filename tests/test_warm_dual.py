"""Warm re-solves: cut rounds, branch-and-bound nodes, and changed data.

Every cut re-solve starts from the previous basis extended by the new
rows' slacks, every node LP from its parent's optimal basis, and a
re-solve with a changed right-hand side or changed costs from the optimal
basis before the change; a cold solve of the same standard form, a dual
simplex from the slack basis, is the reference each must agree with.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from enopt.analyze import emissions_total
from enopt.formulate import Family, compile_system
from enopt.scenario import load_scenario
from enopt.solver import SolverConfig, Status, solve_lp, solve_milp
from enopt.solver import branch_bound, simplex
from enopt.solver.lp import solve_standard_lp
from enopt.solver.simplex import BoundedSimplex
from enopt.solver.standard import standardize

from conftest import make_program


@pytest.fixture(scope="module")
def commitment_prog(scenario_dir):
    return compile_system(load_scenario(scenario_dir / "commitment_demo.json").system)


@pytest.fixture(scope="module")
def branching_prog(scenario_dir):
    """commitment_48, whose root stays fractional after the cut rounds."""
    return compile_system(load_scenario(scenario_dir / "commitment_48.json").system)


def _recorded_solve(prog, monkeypatch):
    """solve_milp, and every LP solve it made: (std, cfg, lower, upper, start, out)."""
    calls = []

    def recording(std, cfg, lower=None, upper=None, start=None, **kwargs):
        out = solve_standard_lp(std, cfg, lower, upper, start=start, **kwargs)
        calls.append((std, cfg, lower, upper, start, out))
        return out

    monkeypatch.setattr(branch_bound, "solve_standard_lp", recording)
    return solve_milp(prog), calls


def test_every_node_lp_matches_a_cold_solve(branching_prog, monkeypatch):
    """The cut re-solves start from a basis of fewer rows, extended by the
    new slacks; the node LPs from their parent's basis; the polish from the
    root's basis before the cuts.  Each matches a cold solve of its own
    standard form."""
    sol, calls = _recorded_solve(branching_prog, monkeypatch)
    assert sol.status == Status.OPTIMAL and sol.nodes > 1
    root_rows = calls[0][0].num_rows
    warm = [c for c in calls if c[4] is not None]
    assert len(warm) == len(calls) - 1  # all but the root
    cut_resolves = [c for c in warm if c[2] is None]
    node_lps = [c for c in warm if c[2] is not None and c[0].num_rows > root_rows]
    rows = [root_rows] + [c[0].num_rows for c in cut_resolves]
    assert len(rows) > 1 and all(a < b for a, b in zip(rows, rows[1:]))
    assert len(node_lps) == sol.nodes - 1
    assert len(warm) == len(cut_resolves) + len(node_lps) + 1  # and the polish
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


def test_branching_commitment_needs_few_iterations_per_node(branching_prog, monkeypatch):
    sol, calls = _recorded_solve(branching_prog, monkeypatch)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(7812.873876, abs=1e-6)
    node_lps = [out for std, _, lower, _, _, out in calls
                if lower is not None and std.num_rows > calls[0][0].num_rows]
    assert len(node_lps) == sol.nodes - 1
    assert sum(out.iterations for out in node_lps) <= 10 * len(node_lps)
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


def _counting_splu(monkeypatch):
    """The bump sizes of every LU factorization (each goes through
    ``simplex.splu``), in order."""
    sizes = []
    real = simplex.splu

    def counting(n, *arrays):
        sizes.append(n)
        return real(n, *arrays)

    monkeypatch.setattr(simplex, "splu", counting)
    return sizes


def _assert_same_solve(a, b):
    """Two solves agree bit for bit: status, values, objective, iterations
    and the optimal basis."""
    assert a.status == b.status and a.iterations == b.iterations
    assert a.values.tobytes() == b.values.tobytes()
    assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    np.testing.assert_array_equal(a.basis.basis, b.basis.basis)
    np.testing.assert_array_equal(a.basis.status, b.basis.status)


def _without_factor(std, cfg, lower, upper, start):
    return solve_standard_lp(std, cfg, lower, upper, start=dataclasses.replace(start, factor=None))


def test_a_carried_factorisation_changes_no_warm_result(commitment_prog, branching_prog,
                                                        monkeypatch):
    """commitment_demo's cut re-solves and polish, and every node LP of
    commitment_48, each started from a state that carries its solve's
    factorisation: a copy of the state without it gives the same solve,
    bit for bit."""
    _, demo = _recorded_solve(commitment_prog, monkeypatch)
    _, tree = _recorded_solve(branching_prog, monkeypatch)
    chain = demo[1:]
    assert [c[2] is None for c in chain] == [True] * (len(chain) - 1) + [False]  # then the polish
    nodes = [c for c in tree if c[2] is not None and c[0].num_rows > tree[0][0].num_rows]
    assert len(chain) >= 3 and len(nodes) >= 10
    for std, cfg, lower, upper, start, out in chain + nodes:
        assert start.factor is not None
        assert out.status == Status.OPTIMAL or out.status == Status.INFEASIBLE
        again = _without_factor(std, cfg, lower, upper, start)
        if out.status == Status.OPTIMAL:
            _assert_same_solve(out, again)
        else:
            assert again.status == out.status and again.iterations == out.iterations
            assert again.farkas.tobytes() == out.farkas.tobytes()


def test_a_start_with_appended_rows_reuses_its_factorisation(desk_48, monkeypatch):
    """A row appended to paper_system_48 (its objective raised by 0.1%),
    started from the optimum extended by the new slack as basic: the start
    factorises nothing, and gives the solve a start without its
    factorisation gives."""
    _, prog, _ = desk_48
    std = standardize(prog)
    root = solve_standard_lp(std, SolverConfig())
    G = sp.csr_matrix(prog.objective[None, :])
    grown = branch_bound._with_cuts(std, G, np.array([1.001 * root.objective]))
    start = branch_bound._extended(root.basis, 1)
    assert start.factor is root.basis.factor
    sizes = _counting_splu(monkeypatch)
    with_factor = solve_standard_lp(grown, SolverConfig(), start=start)
    reused = len(sizes)
    without = _without_factor(grown, SolverConfig(), None, None, start)
    assert with_factor.status == Status.OPTIMAL and with_factor.iterations > 0
    assert len(sizes) == 2 * reused + 1  # the first factorisation is the one reused
    _assert_same_solve(with_factor, without)


@pytest.mark.parametrize("name, factorizations", [("commitment_demo", 6), ("commitment_48", 26)])
def test_milp_factorizations_per_solve(scenario_dir, monkeypatch, name, factorizations):
    """Every warm start after the root reuses the factorisation its basis
    was declared optimal from (11 and 46 factorizations before it did)."""
    prog = compile_system(load_scenario(scenario_dir / f"{name}.json").system)
    sizes = _counting_splu(monkeypatch)
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL
    assert len(sizes) == factorizations


def test_a_start_on_another_A_factorises_anew(commitment_prog, monkeypatch):
    """A state applied to a standard form whose ``A`` differs in one entry
    of the bump (same pattern) factorises its start, as a state without a
    factorisation does, and gives the same solve; on its own ``A`` it
    factorises nothing."""
    std = standardize(commitment_prog)
    cfg = SolverConfig()
    root = solve_standard_lp(std, cfg)
    sim = BoundedSimplex(std, std.lower, std.upper, start=root.basis)
    j = int(sim.slot_col[sim.rows_bump[0]])  # the bump's first column
    lo, hi = std.A.indptr[j], std.A.indptr[j + 1]
    k = lo + int(np.flatnonzero(np.isin(std.A.indices[lo:hi], sim.rows_bump))[0])
    A = std.A.copy()
    A.data[k] *= 1.01
    other = dataclasses.replace(std, A=A)

    sizes = _counting_splu(monkeypatch)
    again = solve_standard_lp(std, cfg, start=root.basis)
    assert again.iterations == 0 and sizes == []
    moved = solve_standard_lp(other, cfg, start=root.basis)
    n_moved = len(sizes)
    assert n_moved >= 1
    fresh = _without_factor(other, cfg, None, None, root.basis)
    assert len(sizes) == 2 * n_moved
    assert moved.status == Status.OPTIMAL
    _assert_same_solve(moved, fresh)


def test_solve_lp_returns_its_basis_without_the_factorisation(desk_48, monkeypatch):
    """``solve_lp`` hands out the optimal basis without its factorisation,
    so its result does not keep the LU alive: the same basis and statuses
    as ``solve_standard_lp``'s, and a start from it, on the program and
    with its costs changed, gives the solve the full basis gives, after one
    factorisation of its own."""
    _, prog, _ = desk_48
    std = standardize(prog)
    cfg = SolverConfig()
    lean, full = solve_lp(prog).basis, solve_standard_lp(std, cfg).basis
    assert lean.factor is None and full.factor is not None
    np.testing.assert_array_equal(lean.basis, full.basis)
    np.testing.assert_array_equal(lean.status, full.status)
    cost = std.cost * np.random.default_rng(1).uniform(1.0, 1.5, std.cost.size)
    for target in (std, dataclasses.replace(std, cost=cost)):
        sizes = _counting_splu(monkeypatch)
        from_full = solve_standard_lp(target, cfg, start=full)
        reused = len(sizes)
        from_lean = solve_standard_lp(target, cfg, start=lean)
        assert len(sizes) == 2 * reused + 1
        _assert_same_solve(from_lean, from_full)
    assert from_full.iterations > 0


def _counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` through a wrapper; returns the
    list each call appends to."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _derived(std, lower, upper, state):
    """A simplex on ``state`` without its factorisation: the slot maps,
    ``S`` and bump derived afresh (and factorised by SuperLU)."""
    return BoundedSimplex(std, lower, upper, start=dataclasses.replace(state, factor=None))


@pytest.mark.parametrize("bounds", ["same", "branched"])
def test_a_start_on_its_own_rows_installs_the_carried_factorisation(commitment_prog,
                                                                   monkeypatch, bounds):
    """A start from an optimal basis of the same ``A`` derives nothing: no
    column gather, no SuperLU call; its slot maps, ``S``, uncovered rows and
    basic values equal those of a fresh derivation bit for bit, also with a
    basic integer column's bounds tightened as a node LP tightens them, and
    ``A @ x_N`` over the columns at a nonzero bound equals the whole product
    bit for bit.  Pivots from the installed start leave the carried
    factorisation unchanged."""
    std = standardize(commitment_prog)
    state = solve_standard_lp(std, SolverConfig()).basis
    lower, upper = std.lower.copy(), std.upper.copy()
    if bounds == "branched":
        frac = [j for j in std.integer_idx if state.status[j] == simplex.BASIC]
        upper[frac[0]] = lower[frac[0]]
    carried = {f: np.copy(getattr(state.factor, f)) for f in ("basis", "slot_col", "slot_pos",
                                                                "rows_bump")}
    gathers = _counting(monkeypatch, simplex, "gather_columns")
    lus = _counting(monkeypatch, simplex, "splu")
    s = BoundedSimplex(std, lower, upper, start=state)
    assert gathers == [] and lus == []
    assert s.lu is state.factor.lu and s.factor is state.factor
    ref = _derived(std, lower, upper, state)
    assert gathers and lus
    for field in ("slot_col", "slot_pos", "rows_bump", "xB", "lbB", "ubB"):
        assert getattr(s, field).tobytes() == getattr(ref, field).tobytes(), field
    for got, want in zip(s.S + s.factor.bump, ref.S + ref.factor.bump):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    x = s._nonbasic_values()
    assert np.count_nonzero(x) > 0
    assert s.xB.tobytes() == s._ftran(std.b - std.A @ x).tobytes()

    out = s.solve()
    assert out.status == Status.OPTIMAL and (out.iterations > 0) == (bounds == "branched")
    assert _derived(std, lower, upper, state).solve().values.tobytes() == out.values.tobytes()
    for field, value in carried.items():
        assert np.array_equal(getattr(state.factor, field), value), field


def test_a_start_on_another_basis_derives_its_own_maps(commitment_prog, monkeypatch):
    """A carried factorisation installs only on the basis it was built for:
    the same state with two basis positions swapped gathers its columns
    again and gets the slot maps of that basis."""
    std = standardize(commitment_prog)
    state = solve_standard_lp(std, SolverConfig()).basis
    basis = state.basis.copy()
    struct = np.flatnonzero(basis < std.n_struct)
    basis[struct[[0, 1]]] = basis[struct[[1, 0]]]
    swapped = dataclasses.replace(state, basis=basis)
    gathers = _counting(monkeypatch, simplex, "gather_columns")
    s = BoundedSimplex(std, std.lower, std.upper, start=swapped)
    assert gathers
    assert np.array_equal(s.slot_col, basis[s.slot_pos])
    ref = _derived(std, std.lower, std.upper, swapped)
    for field in ("slot_col", "slot_pos", "rows_bump", "xB"):
        assert getattr(s, field).tobytes() == getattr(ref, field).tobytes(), field


def test_a_benchmark_commitment_draw_factorises_six_times(scenario_dir, monkeypatch, tmp_path):
    """The benchmark's first seed-1 ``milp_commitment`` draw refactors 11
    times: 6 SuperLU factorisations, 2 reuses of a bump equal bit for bit,
    and 3 installs of a carried factorisation (the two cut rounds and the
    polish)."""
    import importlib

    from enopt.scenario import system_from_dict

    monkeypatch.syspath_prepend(str(scenario_dir.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    doc = workloads.commitment_doc(np.random.default_rng(1))
    prog = compile_system(system_from_dict(doc["system"]))
    lus = _counting(monkeypatch, simplex, "splu")
    refactors = _counting(monkeypatch, BoundedSimplex, "_refactor")
    gathers = _counting(monkeypatch, simplex, "gather_columns")
    sol = solve_milp(prog)
    assert sol.status == Status.OPTIMAL and sol.nodes == 1
    assert len(lus) == 6 and len(refactors) == 11 and len(gathers) == 11 - 3
