"""The array-backed program against row-by-row references.

``reference_standardize`` and ``reference_certificate`` are the loops that
walked :class:`~enopt.formulate.Row` values before the program was stored as
a CSR matrix; the vectorised code must reproduce them.
"""

import copy
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from enopt import formulate
from enopt.formulate import GE, LE, EQ, compile_system, write_lp
from enopt.scenario import load_scenario
from enopt.solver import Status, check_certificate, solve, solve_lp
from enopt.solver.certificate import CertificateReport
from enopt.solver.standard import standardize

from conftest import coverage_fixture, storage_system


def reference_standardize(prog):
    n = prog.num_vars
    rows = prog.rows
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
    for i, row in enumerate(prog.rows):
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
            notes.append(f"variable {prog.var_refs[j].label()} out of bounds by {resid:.3e}")
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
                    notes.append(f"integer variable {prog.var_refs[j].label()} "
                                 f"has fractional value {x[j]!r}")
        gap = sol.objective - sol.bound
        if gap < -tol * max(1.0, abs(sol.objective)):
            notes.append(f"reported bound {sol.bound} exceeds objective {sol.objective}")
        recomputed = float(prog.objective @ x)
        if abs(recomputed - sol.objective) > tol * max(1.0, abs(recomputed)):
            notes.append(f"objective mismatch: reported {sol.objective}, "
                         f"recomputed {recomputed}")
        return CertificateReport(not notes, "milp", primal, 0.0, 0.0, abs(gap), max_int,
                                 tuple(notes))

    y = np.asarray(sol.duals, dtype=float)
    d = np.asarray(sol.reduced_costs, dtype=float)
    c = np.asarray(prog.objective, dtype=float)
    cscale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    dhat = c.copy()
    for i, row in enumerate(prog.rows):
        for idx, coef in row.terms:
            dhat[idx] -= coef * y[i]
    dual_resid = float(np.max(np.abs(dhat - d))) / cscale if c.size else 0.0
    if dual_resid > tol:
        notes.append(f"reduced costs inconsistent with duals by {dual_resid:.3e}")
    dual_value = 0.0
    comp = 0.0
    for i, row in enumerate(prog.rows):
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
            notes.append(f"variable {prog.var_refs[j].label()} violates complementary "
                         f"slackness by {resid:.3e}")
    obj = float(c @ x)
    gap = abs(obj - dual_value) / max(1.0, abs(obj))
    if gap > tol:
        notes.append(f"duality gap {gap:.3e}")
    return CertificateReport(not notes, "lp", primal, dual_resid, comp, gap, 0.0, tuple(notes))


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


def test_rows_view_round_trips_the_matrix(scenario_dir):
    for name, prog in _programs(scenario_dir).items():
        rows = prog.rows
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
        tagged = [r for tag in sorted(set(prog.tag.tolist())) for r in prog.rows_tagged(tag)]
        assert sorted(tagged, key=repr) == sorted(rows, key=repr)


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


def test_certificate_matches_the_row_loops_at_a_milp_incumbent():
    prog = compile_system(coverage_fixture())
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
        prog.rows
