"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from enopt import model as M
from enopt.analyze import extract_report, verify_solution
from enopt.finance import capital_recovery_factor
from enopt.formulate import Family, VarKind, VarRef, compile_system
from enopt.scenario import load_scenario
from enopt.solver import SolverConfig, Status, solve, solve_lp, solve_milp
from enopt.solver.lp import solve_standard_lp
from enopt.solver.standard import standardize

import oracles
from conftest import make_program, storage_system
from test_solver_lp import _random_instance
from test_solver_milp import _random_milp, downtime_toy, _downtime_ok, _fix_pattern
from test_formulate import _period_system


def _criterion(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS: {desc}")


def test_criterion_1_lp_oracle_equivalence():
    def body():
        rng = np.random.default_rng(20_240_001)
        t0 = time.perf_counter()
        solved = 0
        for _ in range(200):
            c, A, senses, b, upper, rows = _random_instance(rng)
            status, obj, _ = oracles.vertex_enumeration(c, A, senses, b,
                                                        [0.0] * len(c), upper)
            sol = solve_lp(make_program(c, rows, upper=upper))
            if status == "infeasible":
                assert sol.status == Status.INFEASIBLE
            else:
                assert sol.status == Status.OPTIMAL
                assert abs(sol.objective - obj) <= 1e-7
                solved += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        assert solved >= 50  # the seeded mix contains plenty of feasible LPs

    _criterion(1, "200 random LPs match vertex enumeration within 1e-7 in <10s",
               body)


def test_criterion_2_milp_oracle_equivalence():
    def body():
        rng = np.random.default_rng(20_240_002)
        t0 = time.perf_counter()
        optimal = 0
        for _ in range(50):
            c, A, senses, b, upper, integer, rows, bin_idx = _random_milp(rng)
            status, obj, _ = oracles.milp_enumeration(c, A, senses, b,
                                                      [0.0] * len(c), upper, bin_idx)
            sol = solve_milp(make_program(c, rows, upper=upper, integer=integer))
            if status == "infeasible":
                assert sol.status == Status.INFEASIBLE
            else:
                assert sol.status == Status.OPTIMAL
                assert abs(sol.objective - obj) <= 1e-6
                optimal += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        assert optimal >= 25

    _criterion(2, "50 random MILPs (<=10 binaries) match exhaustive fixing "
                  "within 1e-6 in <60s", body)


def test_criterion_3_equation_coverage(coverage_system):
    # families realised as constraint rows; the rest live in bounds (EQ6),
    # the objective (EQ3/EQ20/EQ30), cost arithmetic (EQ4/EQ5) or derived
    # diagnostics (EQ26)
    row_families = {1, 2, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                    21, 22, 23, 24, 25, 27, 28, 29}

    def body():
        prog = compile_system(coverage_system)
        tags_with_rows = {row.tag for row in prog.rows}
        assert {f"EQ{i}" for i in row_families} <= tags_with_rows
        sol = solve(prog)
        assert sol.status == Status.OPTIMAL
        report = verify_solution(coverage_system, prog, sol)
        assert report.passed, [str(f) for f in report.families
                               if f.residual > 1e-6]
        for fam in report.families:
            assert fam.checks > 0, fam.family
            assert fam.residual <= 1e-6, str(fam)

    _criterion(3, "coverage fixture exercises EQ1-EQ29 with a row per "
                  "constraint family, solves Optimal and verifies PASS at 1e-6",
               body)


def test_criterion_4_desk_replica(scenario_dir):
    def body():
        scn = load_scenario(scenario_dir / "paper_system.json")
        t0 = time.perf_counter()
        prog = compile_system(scn.system)
        sol = solve(prog)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        assert sol.status == Status.OPTIMAL
        report = extract_report(scn.system, prog, sol)
        assert abs(report.breakdown_total - sol.objective) <= 1e-6 * max(
            1.0, abs(sol.objective))
        for series in report.curtailment.values():
            assert np.all(series >= -1e-6)
        for sid, fill in report.storage_fill.items():
            cap = report.storage_capacities[sid]
            assert np.all(fill >= -1e-6)
            assert np.all(fill <= cap + 1e-6)
        assert report.residuals.passed

    _criterion(4, "168-step desk replica solves Optimal in <60s with a "
                  "consistent report", body)


def test_criterion_5_capital_recovery_factor():
    def body():
        for i in (0.0, 0.02, 0.05, 0.3, 1.0):
            assert capital_recovery_factor(i, 1) == 1.0 + i
        for n in (1, 2, 7, 40, 1000):
            assert capital_recovery_factor(0.0, n) == 1.0 / n
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        i = mpmath.mpf("0.05")
        exact = (1 + i) ** 20 * i / ((1 + i) ** 20 - 1)
        assert abs(capital_recovery_factor(0.05, 20) - float(exact)) < 1e-12

    _criterion(5, "capital recovery factor exact at n=1 and i=0, matches "
                  "arbitrary precision at (0.05, 20) within 1e-12", body)


def test_criterion_6_storage_formulation_equivalence():
    def body():
        rng = np.random.default_rng(20_240_006)
        agreed = 0
        for k in range(20):
            T = int(rng.integers(3, 9))
            rate = [M.CRateLink(float(rng.uniform(0.5, 3.0))),
                    M.FixedRate(float(rng.uniform(2, 6)), float(rng.uniform(2, 6))),
                    M.OptimizedRate(float(rng.uniform(1, 4)),
                                    float(rng.uniform(1, 4)))][k % 3]
            sys_ = storage_system(
                tuple(rng.uniform(0.0, 8.0, T).round(3)),
                etac=float(rng.uniform(0.7, 1.0)),
                etad=float(rng.uniform(0.7, 1.0)),
                rate=rate,
                cap_opt=bool(k % 4),
                cap_cost=float(rng.uniform(5, 25)),
                cap_fixed=0.0 if k % 4 else float(rng.uniform(10, 30)),
                source_fuel=tuple(rng.uniform(5, 60, T).round(3)),
                dt=tuple(rng.uniform(0.5, 2.0, T).round(3)),
                final_hold=bool(k % 5 == 0))
            sol_rec = solve(compile_system(sys_, storage_formulation="recurrence"))
            sol_cum = solve(compile_system(sys_, storage_formulation="cumulative"))
            assert sol_rec.status == sol_cum.status == Status.OPTIMAL
            scale = max(1.0, abs(sol_rec.objective))
            assert abs(sol_rec.objective - sol_cum.objective) <= 1e-8 * scale
            agreed += 1
        assert agreed == 20

    _criterion(6, "recurrence and cumulative storage rows agree on 20 random "
                  "scenarios within 1e-8", body)


def test_criterion_7_commitment_semantics():
    def body():
        sys_ = downtime_toy(min_down=2, loads=(5.0, 0.0, 5.0, 5.0))
        feasible_patterns = set()
        for pattern in itertools.product((0, 1), repeat=4):
            prog = compile_system(sys_)
            _fix_pattern(prog, pattern)
            sol = solve_lp(prog)
            feasible = sol.status == Status.OPTIMAL
            assert feasible == _downtime_ok(pattern, 2), pattern
            if feasible:
                feasible_patterns.add(pattern)
                # startup cost is positive: at this fixing's optimum the
                # startup variables sit exactly on the positive on-difference
                vals = dict(zip(oracles.var_refs(prog), sol.values))
                prev = 0
                for t, on_t in enumerate(pattern):
                    want = max(0, on_t - prev)
                    got = vals[VarRef(VarKind.STARTUP, "unit", t)]
                    assert got == pytest.approx(want, abs=1e-7), (pattern, t)
                    prev = on_t
        prog = compile_system(sys_)
        sol = solve_milp(prog)
        assert sol.status == Status.OPTIMAL
        vals = dict(zip(oracles.var_refs(prog), sol.values))
        pattern = tuple(int(vals[VarRef(VarKind.ON, "unit", t)]) for t in range(4))
        assert pattern in feasible_patterns
        prev = 0
        for t, on_t in enumerate(pattern):
            assert vals[VarRef(VarKind.STARTUP, "unit", t)] == pytest.approx(
                max(0, on_t - prev), abs=1e-7)
            prev = on_t

    _criterion(7, "downtime toy: enumeration matches the window rule and "
                  "startups equal positive on-differences at optima", body)


def test_criterion_8_building_periods():
    def body():
        for loads, wanted in (((5.0, 8.0), 3.0), ((8.0, 5.0), 0.0)):
            sys_ = _period_system(*loads)
            assert sys_.components[0].costs.built > 0
            prog = compile_system(sys_)
            sol = solve(prog)
            assert sol.status == Status.OPTIMAL
            vals = dict(zip(oracles.var_refs(prog), sol.values))
            p0 = vals[VarRef(VarKind.INSTALLED_PERIOD, "plant", period=0)]
            p1 = vals[VarRef(VarKind.INSTALLED_PERIOD, "plant", period=1)]
            built = vals[VarRef(VarKind.BUILT, "plant", period=1)]
            assert built == pytest.approx(max(0.0, p1 - p0), abs=1e-8)
            assert built == pytest.approx(wanted, abs=1e-7)

    _criterion(8, "built capacity equals the positive installed-capacity "
                  "growth whenever it carries cost", body)


def test_criterion_9_co2_cap_monotonicity(scenario_dir):
    def body():
        from enopt.analyze import emissions_total

        scn = load_scenario(scenario_dir / "paper_system.json")
        prog = compile_system(scn.system)
        base = solve(prog)
        assert base.status == Status.OPTIMAL
        e0 = emissions_total(scn.system, prog, base)
        assert e0 > 0

        # the lowest reachable emission level bounds the sweep from below
        # (an all-renewable week is not guaranteed under the battery cap)
        probe = compile_system(dataclasses.replace(scn.system, co2_cap=float(e0)))
        emission_row = oracles.rows_tagged(probe, Family.CO2_CAP)[0]
        probe.objective[:] = 0.0
        for idx, coef in emission_row.terms:
            probe.objective[idx] = coef
        floor_sol = solve_lp(probe)
        assert floor_sol.status == Status.OPTIMAL
        e_min = floor_sol.objective

        caps = np.linspace(e0, max(e_min * 1.02, 1e-6), 10)
        # one standard form whose EQ21 entry of b is each cap in turn, every
        # solve warm-started from the previous cap's optimal basis
        capped = compile_system(dataclasses.replace(scn.system, co2_cap=float(e0)))
        std = standardize(capped)
        (row,) = np.flatnonzero(capped.tag == Family.CO2_CAP.value)
        objectives, basis = [], None
        for cap in caps:
            std.b[row] = cap
            sol = solve_standard_lp(std, SolverConfig(), start=basis)
            assert sol.status == Status.OPTIMAL, f"cap {cap}"
            objectives.append(sol.objective)
            basis = sol.basis
        assert objectives[-1] > objectives[0]  # the cap truly binds by the end
        for looser, tighter in zip(objectives, objectives[1:]):
            assert tighter >= looser - 1e-6 * max(1.0, abs(looser))

    _criterion(9, "tightening the emission cap on the desk replica never "
                  "lowers the optimal cost (10-point sweep)", body)
