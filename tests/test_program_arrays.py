"""The array-backed program against row-by-row references.

``reference_standardize`` and ``reference_certificate`` are the loops that
walked :class:`~enopt.formulate.Row` values before the program was stored as
a CSR matrix, now over the rows ``oracles.program_rows`` reads from its
arrays; the vectorised code must reproduce them.
"""

import copy
import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from enopt import formulate
from enopt.analyze import extract_report
from enopt.formulate import GE, LE, EQ, compile_system, write_lp
from enopt.scenario import load_scenario
from enopt.solver import Status, check_certificate, solve, solve_lp
from enopt.solver.certificate import CertificateReport
from enopt.solver.core import Solution, relative_gap
from enopt.solver.standard import standardize

from conftest import coverage_fixture, storage_system
from oracles import program_rows, rows_tagged, var_refs


def reference_standardize(prog):
    n = prog.num_vars
    rows = program_rows(prog)
    m = len(rows)
    data, ri, ci = [], [], []
    b = np.zeros(m)
    slack_lo = np.zeros(m)
    slack_hi = np.zeros(m)
    for i, row in enumerate(rows):
        for j, a in row.terms:
            ri.append(i)
            ci.append(j)
            data.append(a)
        ri.append(i)
        ci.append(n + i)
        data.append(1.0)
        b[i] = row.rhs
        if row.sense == LE:
            slack_lo[i], slack_hi[i] = 0.0, np.inf
        elif row.sense == GE:
            slack_lo[i], slack_hi[i] = -np.inf, 0.0
        elif row.sense == EQ:
            slack_lo[i], slack_hi[i] = 0.0, 0.0
        else:
            raise ValueError(f"unknown row sense {row.sense!r}")
    A = sp.coo_matrix((data, (ri, ci)), shape=(m, n + m)).tocsc()
    lower = np.concatenate([np.asarray(prog.lower, dtype=float), slack_lo])
    upper = np.concatenate([np.asarray(prog.upper, dtype=float), slack_hi])
    cost = np.concatenate([np.asarray(prog.objective, dtype=float), np.zeros(m)])
    integer_idx = np.flatnonzero(np.asarray(prog.is_integer, dtype=bool))
    return A, b, lower, upper, cost, integer_idx


def _row_activity(row, x):
    return float(sum(coef * x[idx] for idx, coef in row.terms))


def _reference_primal(prog, x):
    worst = 0.0
    notes = []
    for i, row in enumerate(program_rows(prog)):
        act = _row_activity(row, x)
        scale = max(1.0, abs(row.rhs))
        if row.sense == LE:
            resid = (act - row.rhs) / scale
        elif row.sense == GE:
            resid = (row.rhs - act) / scale
        else:
            resid = abs(act - row.rhs) / scale
        if resid > worst:
            worst = resid
        if resid > 1e-6:
            notes.append(f"row {i} ({row.tag} {row.owner} t={row.step}) residual {resid:.3e}")
    for j in range(prog.num_vars):
        below = prog.lower[j] - x[j]
        above = x[j] - prog.upper[j]
        resid = max(below, above, 0.0) / max(1.0, abs(x[j]))
        if resid > worst:
            worst = resid
        if resid > 1e-6:
            notes.append(f"variable {prog.ref(j).label()} out of bounds by {resid:.3e}")
    return worst, notes


def reference_certificate(prog, sol, tol=1e-6):
    x = np.asarray(sol.values, dtype=float)
    primal, notes = _reference_primal(prog, x)
    if sol.duals is None or any(prog.is_integer):
        max_int = 0.0
        for j in range(prog.num_vars):
            if prog.is_integer[j]:
                frac = abs(x[j] - round(x[j]))
                max_int = max(max_int, frac)
                if frac > 1e-5:
                    notes.append(f"integer variable {prog.ref(j).label()} "
                                 f"has fractional value {x[j]!r}")
        gap = sol.objective - sol.bound
        if gap < -tol * max(1.0, abs(sol.objective)):
            notes.append(f"reported bound {sol.bound} exceeds objective {sol.objective}")
        recomputed = float(prog.objective @ x)
        if abs(recomputed - sol.objective) > tol * max(1.0, abs(recomputed)):
            notes.append(f"objective mismatch: reported {sol.objective}, "
                         f"recomputed {recomputed}")
        return CertificateReport("milp", primal, 0.0, 0.0, abs(gap), max_int,
                                 tuple(notes))

    y = np.asarray(sol.duals, dtype=float)
    d = np.asarray(sol.reduced_costs, dtype=float)
    c = np.asarray(prog.objective, dtype=float)
    cscale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    dhat = c.copy()
    for i, row in enumerate(program_rows(prog)):
        for idx, coef in row.terms:
            dhat[idx] -= coef * y[i]
    dual_resid = float(np.max(np.abs(dhat - d))) / cscale if c.size else 0.0
    if dual_resid > tol:
        notes.append(f"reduced costs inconsistent with duals by {dual_resid:.3e}")
    scale = np.abs(c)
    for i, row in enumerate(program_rows(prog)):
        for idx, coef in row.terms:
            scale[idx] += abs(coef) * abs(y[i])
    for j in range(prog.num_vars):
        room = max(1.0, abs(x[j]))
        sign = 0.0
        if (prog.upper[j] - x[j]) / room > tol:  # can still increase
            sign = max(sign, -d[j])
        if (x[j] - prog.lower[j]) / room > tol:  # can still decrease
            sign = max(sign, d[j])
        sign /= max(1.0, scale[j])
        dual_resid = max(dual_resid, sign)
        if sign > tol:
            notes.append(f"variable {prog.ref(j).label()} has reduced cost {d[j]:.3e} of "
                         f"the wrong sign for its bounds (scaled {sign:.3e})")
    for i, row in enumerate(program_rows(prog)):
        sign = {"<=": y[i], ">=": -y[i]}.get(row.sense, 0.0) / max(1.0, abs(y[i]))
        dual_resid = max(dual_resid, sign)
        if sign > tol:
            notes.append(f"row {i} ({row.tag}) dual {y[i]:.3e} has the wrong sign for its "
                         f"sense {row.sense} (scaled {sign:.3e})")
    dual_value = 0.0
    comp = 0.0
    for i, row in enumerate(program_rows(prog)):
        act = _row_activity(row, x)
        dual_value += y[i] * row.rhs
        slack_comp = abs(y[i] * (act - row.rhs)) / max(1.0, abs(row.rhs)) / cscale
        comp = max(comp, slack_comp)
        if slack_comp > tol:
            notes.append(f"row {i} ({row.tag}) dual {y[i]:.3e} on slack row "
                         f"(complementarity {slack_comp:.3e})")
    for j in range(prog.num_vars):
        dual_value += d[j] * x[j]
        if d[j] > tol * cscale:
            resid = abs(x[j] - prog.lower[j]) * d[j] / cscale
        elif d[j] < -tol * cscale:
            resid = abs(prog.upper[j] - x[j]) * abs(d[j]) / cscale
        else:
            resid = 0.0
        resid = resid / max(1.0, abs(x[j]))
        comp = max(comp, resid)
        if resid > tol:
            notes.append(f"variable {prog.ref(j).label()} violates complementary "
                         f"slackness by {resid:.3e}")
    obj = float(c @ x)
    gap = abs(obj - dual_value) / max(1.0, abs(obj))
    if gap > tol:
        notes.append(f"duality gap {gap:.3e}")
    return CertificateReport("lp", primal, dual_resid, comp, gap, 0.0, tuple(notes))


def _paper_48(scenario_dir):
    return compile_system(load_scenario(scenario_dir / "paper_system_48.json").system)


@pytest.fixture(scope="module")
def paper_48(scenario_dir):
    prog = _paper_48(scenario_dir)
    return prog, solve_lp(prog)


def _programs(scenario_dir):
    cov = coverage_fixture()
    return {"coverage-recurrence": compile_system(cov),
            "coverage-cumulative": compile_system(cov, storage_formulation="cumulative"),
            "paper_system_48": _paper_48(scenario_dir)}


def test_standardize_is_bit_identical_to_the_row_loop(scenario_dir):
    for name, prog in _programs(scenario_dir).items():
        std = standardize(prog)
        A, b, lower, upper, cost, integer_idx = reference_standardize(prog)
        for got, want in ((std.A.data, A.data), (std.A.indices, A.indices),
                          (std.A.indptr, A.indptr), (std.b, b), (std.lower, lower),
                          (std.upper, upper), (std.cost, cost),
                          (std.integer_idx, integer_idx)):
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert std.A.shape == A.shape and std.n_struct == prog.num_vars


def test_standardize_names_the_unknown_row_senses():
    from conftest import make_program

    prog = make_program([1.0, 1.0], [([(0, 1.0)], LE, 1.0), ([(1, 1.0)], EQ, 2.0),
                                     ([(0, 1.0), (1, 1.0)], GE, 0.5)])
    assert standardize(prog).num_rows == 3
    for bad in (["<"], ["<", "=="]):
        prog.sense = prog.sense.copy()
        prog.sense[:len(bad)] = bad
        with pytest.raises(ValueError, match="unknown row senses") as err:
            standardize(prog)
        shown = str(err.value).removeprefix("unknown row senses ")
        assert shown.startswith("{") and shown.endswith("}")
        assert sorted(shown[1:-1].split(", ")) == sorted(repr(s) for s in set(bad))


@pytest.mark.parametrize("name", ["commitment_demo", "commitment_48", "paper_system_48",
                                  "paper_system", "edge"])
def test_standardize_builds_the_arrays_hstack_builds(scenario_dir, name):
    """``standardize``'s ``[A | I]`` has the arrays, dtypes and sorted row
    indices of ``sp.hstack`` through COO, bit for bit: on the shipped
    scenarios and on the LP writer's edge program, which has an empty row, a
    repeated column in a row (summed) and NaN, -0.0 and 0.0 entries."""
    from test_lp_export import _edge_program

    prog = (_edge_program() if name == "edge"
            else compile_system(load_scenario(scenario_dir / f"{name}.json").system))
    want = sp.hstack([prog.A, sp.identity(prog.num_rows, format="csr")], format="csc")
    got = standardize(prog).A
    assert type(got) is type(want) and got.shape == want.shape
    for field in ("data", "indices", "indptr"):
        assert getattr(got, field).dtype == getattr(want, field).dtype, field
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.has_sorted_indices and got.has_canonical_format


def test_rows_view_round_trips_the_matrix(scenario_dir):
    for name, prog in _programs(scenario_dir).items():
        rows = list(prog.rows)
        assert len(rows) == prog.num_rows
        ri = [i for i, r in enumerate(rows) for _ in r.terms]
        ci = [j for r in rows for j, _ in r.terms]
        data = [a for r in rows for _, a in r.terms]
        rebuilt = sp.csr_matrix((data, (ri, ci)), shape=prog.A.shape)
        assert (rebuilt != prog.A).nnz == 0, name
        for i, row in enumerate(rows):
            assert all(type(j) is int and type(a) is float for j, a in row.terms)
            assert (row.sense, row.rhs, row.tag, row.owner) == (
                prog.sense[i], prog.rhs[i], prog.tag[i], prog.owner[i])
            assert row.step == (None if prog.step[i] < 0 else prog.step[i])
        # the tests' own row records (read from the arrays) print as the view's rows
        tagged = [r for tag in sorted(set(prog.tag.tolist())) for r in rows_tagged(prog, tag)]
        assert sorted(map(repr, tagged)) == sorted(map(repr, rows))


def test_a_pass_over_the_rows_view_holds_one_row_at_a_time(scenario_dir):
    """``rows`` builds each row as it is read: one pass peaks at no more
    than a third of what the list of every row peaks at."""
    prog = compile_system(load_scenario(scenario_dir / "paper_system.json").system)

    def peak(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_pass = peak(lambda: sum(len(row.terms) for row in prog.rows))
    every_row = peak(lambda: list(prog.rows))
    assert one_pass <= every_row / 3


def test_benchmark_counts_read_the_rows_view(scenario_dir, monkeypatch):
    """perfbench/workloads.py counts rows through ``prog.rows``; the view
    stays until the benchmark reads the arrays instead."""
    monkeypatch.syspath_prepend(str(scenario_dir.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    prog = _paper_48(scenario_dir)
    counts = workloads.Workload.counts(workloads.Outcome(prog))
    assert (counts["rows"], counts["nnz"], counts["rows.EQ1"]) == (
        prog.num_rows, prog.A.nnz, (prog.tag == "EQ1").sum())


def _assert_same_report(got, want):
    assert got.ok == want.ok and got.kind == want.kind
    assert got.violations == want.violations
    for field in ("max_primal_residual", "max_dual_residual", "max_complementarity",
                  "duality_gap", "max_integrality"):
        a, b = getattr(got, field), getattr(want, field)
        assert a == b or abs(a - b) <= 1e-12 * max(1.0, abs(b)), field


def test_certificate_matches_the_row_loops_at_an_lp_optimum(paper_48):
    prog, sol = paper_48
    assert sol.status == Status.OPTIMAL
    got = check_certificate(prog, sol)
    assert got.ok
    _assert_same_report(got, reference_certificate(prog, sol))


def test_certificate_refuses_duals_of_the_wrong_length(paper_48):
    prog, sol = paper_48
    m = prog.num_rows
    with pytest.raises(ValueError, match=rf"^{m} row duals expected, got shape \({m - 1},\)$"):
        check_certificate(prog, dataclasses.replace(sol, duals=sol.duals[:-1]))


def test_certificate_matches_the_row_loops_at_a_perturbed_point(paper_48):
    # the cumulative storage rows carry negative right-hand sides
    storage = compile_system(storage_system([3.0, 5.0, 2.0, 6.0], initial_fill=4.0),
                             storage_formulation="cumulative")
    for prog, sol in (paper_48, (storage, solve_lp(storage))):
        rng = np.random.default_rng(3)
        n, m = prog.num_vars, prog.num_rows
        values = sol.values * (1.0 + 0.01 * rng.standard_normal(n))
        values[:2] = -1.5  # below the zero lower bounds
        duals = sol.duals + 0.5 * (rng.random(m) < 0.5)
        # negative only against a finite upper bound, so complementarity stays finite
        noise = np.where(np.isfinite(prog.upper), rng.standard_normal(n), rng.random(n))
        reduced = sol.reduced_costs + 1e-3 * noise
        bad = dataclasses.replace(sol, values=values, duals=duals, reduced_costs=reduced)
        got = check_certificate(prog, bad)
        assert not got.ok
        kinds = {note.split()[0] for note in got.violations}
        assert {"row", "variable", "reduced", "duality"} <= kinds
        _assert_same_report(got, reference_certificate(prog, bad))


@pytest.mark.parametrize("name", ["paper_system_48", "paper_system"])
def test_the_certificate_leaves_the_program_as_it_is(scenario_dir, name):
    """``check_certificate`` reads ``prog.A`` without sorting its terms in
    place: its arrays and the fingerprint stay those of the compiled program."""
    prog = compile_system(load_scenario(scenario_dir / f"{name}.json").system)
    fingerprint = prog.fingerprint()
    arrays = [getattr(prog.A, field).copy() for field in ("data", "indices", "indptr")]
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL and sol.duals is not None
    assert check_certificate(prog, sol).ok
    assert prog.fingerprint() == fingerprint
    for want, field in zip(arrays, ("data", "indices", "indptr")):
        got = getattr(prog.A, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field


def test_certificate_matches_the_row_loops_at_a_milp_incumbent(scenario_dir):
    # commitment_48 branches after the root's cut rounds
    prog = compile_system(load_scenario(scenario_dir / "commitment_48.json").system)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL and sol.nodes > 1
    _assert_same_report(check_certificate(prog, sol), reference_certificate(prog, sol))
    int_idx = np.flatnonzero(prog.is_integer)
    values = sol.values.copy()
    values[int_idx[:3]] += 1e-3
    bad = dataclasses.replace(sol, values=values, bound=sol.objective + 1.0)
    got = check_certificate(prog, bad)
    assert any(v.startswith("integer variable") for v in got.violations)
    _assert_same_report(got, reference_certificate(prog, bad))


def test_fingerprint_sees_every_row_field(scenario_dir):
    base = _paper_48(scenario_dir)
    k = int(np.flatnonzero(base.sense == LE)[0])

    def changed(field, value):
        prog = copy.deepcopy(base)
        array = prog.A.data if field == "coefficient" else getattr(prog, field)
        array[k] = value
        return prog.fingerprint()

    edits = {"coefficient": base.A.data[k] + 1.0, "rhs": base.rhs[k] + 1.0, "sense": GE,
             "owner": "x", "step": base.step[k] + 1}
    prints = [base.fingerprint()] + [changed(field, v) for field, v in edits.items()]
    assert len(set(prints)) == len(prints)


def test_pipeline_builds_no_row_values(scenario_dir, tmp_path, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("a Row was built")

    monkeypatch.setattr(formulate, "Row", no_rows)
    prog = _paper_48(scenario_dir)
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    assert check_certificate(prog, sol).ok
    write_lp(prog, tmp_path / "program.lp")
    assert prog.fingerprint() and prog.validate() == [] and prog.num_rows > 0
    with pytest.raises(AssertionError, match="a Row was built"):
        next(iter(prog.rows))


@pytest.mark.parametrize("name", ["commitment_demo", "paper_system_48"])
def test_pipeline_passes_its_gates_on_the_shipped_scenarios(scenario_dir, tmp_path, name):
    scn = load_scenario(scenario_dir / f"{name}.json")
    prog = compile_system(scn.system)
    assert standardize(prog).num_rows == prog.num_rows
    sol = solve(prog)
    assert sol.status == Status.OPTIMAL
    assert extract_report(scn.system, prog, sol).residuals.passed
    assert check_certificate(prog, sol).ok
    write_lp(prog, tmp_path / "program.lp")
    assert prog.fingerprint()


def test_pipeline_builds_as_many_names_at_any_horizon(scenario_dir, tmp_path, monkeypatch):
    """compile, solve, report, certificate, LP export and fingerprint build
    VarRef values per block, none per variable: 168 steps build as many as
    48 steps of the same system."""
    built, init = [], formulate.VarRef.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(formulate.VarRef, "__init__", counting)
    counts = []
    for name in ("paper_system_48", "paper_system"):
        scn = load_scenario(scenario_dir / f"{name}.json")
        built.clear()
        prog = compile_system(scn.system)
        sol = solve(prog)
        extract_report(scn.system, prog, sol)
        check_certificate(prog, sol)
        write_lp(prog, tmp_path / "program.lp")
        prog.fingerprint()
        counts.append((len(built), prog.num_vars))
    (short, n_short), (long, n_long) = counts
    assert n_long > 3 * n_short and long == short < n_short


def _block_program(build_rows):
    prog = formulate.LinearProgram()
    prog.add_variables(formulate.VarRef(formulate.VarKind.OUTPUT, "x", 0), 4)
    build_rows(prog)
    return prog.finalize()


def test_add_rows_drops_zero_coefficients_in_row_major_order():
    def rows(prog):
        prog.add_rows("EQ2", [[3, 0, 1], [2, 2, 0], [1, 3, 2]],
                      [[1.0, 0.0, -2.0], [-0.0, 5.0, 7.0], [0.0, 0.0, 0.0]], LE, [1.0, 2.0, 3.0],
                      owner="n", steps=[0, 1, 2])

    prog = _block_program(rows)
    assert prog.A.indptr.tolist() == [0, 2, 4, 4]
    assert prog.A.indices.tolist() == [3, 1, 2, 0]  # the order given, zeros left out
    assert prog.A.data.tolist() == [1.0, -2.0, 5.0, 7.0]
    assert prog.rhs.tolist() == [1.0, 2.0, 3.0] and prog.step.tolist() == [0, 1, 2]
    assert prog.tag.tolist() == ["EQ2"] * 3


def test_add_row_is_the_one_row_case_of_add_rows():
    x = [formulate.VarRef(formulate.VarKind.OUTPUT, "x", t) for t in range(4)]

    def by_block(prog):
        prog.add_rows("EQ2", [[2, 0]], [[1.5, 0.0]], GE, 4.0, owner="n", steps=3)
        prog.add_rows("EQ1", np.zeros((1, 0), dtype=int), np.zeros((1, 0)), EQ, 0.0)
        prog.add_rows("EQ16", np.zeros((0, 2), dtype=int), [1.0, -1.0], LE, 0.0)

    def by_row(prog):
        prog.add_row("EQ2", [(x[2], 1.5), (0, 0.0)], GE, 4.0, owner="n", step=3)
        prog.add_row("EQ1", [], EQ, 0.0)

    block, row = _block_program(by_block), _block_program(by_row)
    assert block.fingerprint() == row.fingerprint()
    assert block.tag.tolist() == row.tag.tolist()
    assert set(block.tag) == set(row.tag) == {"EQ1", "EQ2"}  # no rows, no EQ16


@pytest.mark.parametrize("row_col, cost_col, message", [
    (5, None, "row EQ2 of 'n' at step 2 references column 5, outside the 3 variables"),
    (-1, None, "row EQ2 of 'n' at step 2 references column -1, outside the 3 variables"),
    (10 ** 8, None, "row EQ2 of 'n' at step 2 references column 100000000, outside the 3 "),
    (2, -1, "a cost on column -1, outside the program"),
    (2, 3, "a cost on column 3, outside the program"),
], ids=["row_past_the_end", "row_negative", "row_far_out", "cost_negative", "cost_past_the_end"])
def test_finalize_refuses_a_column_outside_the_program(row_col, cost_col, message):
    """The CSR arrays and the objective take their columns unchecked: a
    column past the end or below 0 would be solved as given, corrupt the
    heap, crash or cost another column."""
    prog = formulate.LinearProgram()
    prog.add_variables(formulate.VarRef(formulate.VarKind.OUTPUT, "x", 0), 3)
    # a valid block first, so the refused row is found past other rows
    prog.add_rows("EQ1", [[0, 1], [1, 2]], [[1.0, 0.0], [1.0, 1.0]], LE, 4.0,
                  owner="a", steps=[0, 1])
    prog.add_rows("EQ2", [[0, row_col]], [[1.0, 1.0]], GE, 1.0, owner="n", steps=2)
    if cost_col is not None:
        prog.add_costs([cost_col], [5.0])
    with pytest.raises(ValueError, match=message):
        prog.finalize()


def test_add_variables_declares_a_block_and_refuses_repeats():
    V, K = formulate.VarRef, formulate.VarKind
    prog = formulate.LinearProgram()
    refs = [V(K.ON, "u", 0), V(K.ON, "u", 1), V(K.OUTPUT, "w", 0)]
    assert prog.add_variables(refs[0], 2, 0.0, 2.0) == 0
    assert prog.add_variables(refs[2], upper=5.0) == 2
    assert [prog.index(ref) for ref in refs] == [0, 1, 2]
    with pytest.raises(ValueError, match="declared twice"):
        prog.add_variables(V(K.ON, "u", 7), 2)
    with pytest.raises(ValueError, match="declared twice"):  # one block per kind and owner
        prog.add_variables(V(K.ON, "u", 2))
    with pytest.raises(ValueError, match="needs a step or period"):
        prog.add_variables(V(K.UNITS, "u"), 2)
    with pytest.raises(ValueError, match="count from 0"):  # LP names take no sign
        prog.add_variables(V(K.OUTPUT, "u", -1), 2)
    with pytest.raises(ValueError, match="count from 0"):
        prog.add_variables(V(K.BUILT, "u", period=-1))
    assert prog.num_vars == 3  # a refused block leaves no trace
    # each block's bounds and integrality, one entry per variable
    prog.finalize()
    assert (prog.lower.tolist(), prog.upper.tolist(), prog.is_integer.tolist()) == (
        [0.0] * 3, [2.0, 2.0, 5.0], [True, True, False])
    assert (prog.lower.dtype, prog.upper.dtype, prog.is_integer.dtype) == (float, float, bool)


@pytest.mark.parametrize("formulation", ["recurrence", "cumulative"])
def test_index_inverts_the_var_refs_view(formulation):
    prog = compile_system(coverage_fixture(), storage_formulation=formulation)
    refs = var_refs(prog)
    assert len(refs) == len(set(refs)) == prog.num_vars
    assert [prog.index(ref) for ref in refs] == list(range(prog.num_vars))
    assert [prog.ref(j) for j in range(prog.num_vars)] == refs
    assert prog.labels() == [ref.label() for ref in refs]


def test_gap_and_verdict_are_derived_from_their_fields(coverage_system):
    """A solution's gap follows its objective and bound, and a
    certificate's verdict follows its violations; neither is stored."""
    assert not {"gap", "integral"} & {f.name for f in dataclasses.fields(Solution)}
    assert "ok" not in {f.name for f in dataclasses.fields(CertificateReport)}
    prog = compile_system(coverage_system)
    sol = solve(prog)
    assert sol.gap == relative_gap(sol.objective, sol.bound)
    with pytest.raises(AttributeError):
        sol.gap = 1.0
    report = check_certificate(prog, sol)
    assert report.ok and report.violations == () and str(report) == "certificate OK (milp)"
    failed = dataclasses.replace(report, violations=("duality gap 1.000e-03",))
    assert not failed.ok and str(failed) == "certificate FAILED (milp)\n  duality gap 1.000e-03"
    with pytest.raises(AttributeError):
        failed.ok = True
    residuals = extract_report(coverage_system, prog, sol).residuals
    with pytest.raises(KeyError):
        residuals.residual("EQ99")


def test_index_refuses_names_outside_every_block():
    sys_ = coverage_fixture()
    prog = compile_system(sys_)
    V, K = formulate.VarRef, formulate.VarKind
    comp = sys_.components[0].id
    T = sys_.time.num_steps
    assert prog.index(V(K.OUTPUT, comp, T - 1)) == prog.index(V(K.OUTPUT, comp, 0)) + T - 1
    for ref in (V(K.OUTPUT, comp, T), V(K.OUTPUT, comp, -1), V(K.OUTPUT, comp, period=0),
                V(K.OUTPUT, "no such owner", 0)):
        with pytest.raises(KeyError):
            prog.index(ref)


def test_objective_terms_add_up_to_the_objective(scenario_dir):
    systems = [coverage_fixture(), load_scenario(scenario_dir / "commitment_demo.json").system,
               load_scenario(scenario_dir / "paper_system_48.json").system]
    for sys_ in systems:
        prog = compile_system(sys_)
        total = np.zeros(prog.num_vars)
        for cols, _, coefs in formulate._objective_blocks(sys_, prog):
            for j, coef in zip(cols.ravel().tolist(), coefs.ravel().tolist()):
                if coef != 0.0:
                    total[j] += coef
        assert total.tobytes() == prog.objective.tobytes()


@pytest.mark.parametrize("kind", [sp.csr_matrix, sp.csc_matrix])
def test_compressed_is_the_checked_constructor_without_its_checks(kind):
    """``compressed`` makes the matrix scipy's constructor makes from the
    same arrays (one segment's indices left unsorted, so no format flag is
    assumed), holding the arrays themselves."""
    from enopt.solver.standard import compressed

    rng = np.random.default_rng(5)
    ref = kind(sp.random(7, 9, density=0.5, random_state=rng))
    data, indices, indptr = ref.data.copy(), ref.indices.copy(), ref.indptr.copy()
    k = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
    indices[indptr[k]:indptr[k + 1]] = indices[indptr[k]:indptr[k + 1]][::-1].copy()
    checked = kind((data, indices, indptr), shape=ref.shape)
    fast = compressed(kind, data, indices, indptr, ref.shape)
    assert type(fast) is kind and set(vars(fast)) == set(vars(checked))
    assert fast.data is data and fast.indices is indices and fast.indptr is indptr
    assert fast.shape == checked.shape and fast.dtype == checked.dtype
    assert repr(fast) == repr(checked) and str(fast) == str(checked)
    assert fast.has_sorted_indices is checked.has_sorted_indices is False
    fast.check_format(full_check=True)
    x = rng.normal(size=(9, 3))
    assert (fast @ x).tobytes() == (checked @ x).tobytes()
    assert (fast.T @ x[:7]).tobytes() == (checked.T @ x[:7]).tobytes()
    assert (fast.toarray() == checked.toarray()).all()
