"""Pinned digests of compiled programs.

Compilation is byte-stable: the sha256 of :meth:`LinearProgram.fingerprint`
of each program below is pinned.  A digest may change only with a change that
means to change the programs it compiles, and says so in CHANGES.md.

The generated systems are seeded and, between them, cover every emitter
branch: per-period capacity, fixed ramps with rows kept and rows dropped,
optimized ramps and rates, committed units with minimum up/down windows and
``initial_on`` 0 and 1, field conversion, the CO2 cap and zero availability
(single-term capacity rows).
"""

import hashlib

import numpy as np
import pytest

from enopt import model as M
from enopt.formulate import Family, compile_system
from enopt.scenario import load_scenario

from conftest import SCENARIO_DIR, coverage_fixture


def _values(rng, n, lo, hi):
    return tuple(round(float(v), 3) for v in rng.uniform(lo, hi, n))


def _availability(rng, n):
    """A profile with zero steps, low steps (fixed-ramp rows dropped) and
    high steps (rows kept)."""
    avail = np.round(rng.uniform(0.0, 1.0, n), 3)
    avail[rng.random(n) < 0.2] = 0.0
    return tuple(float(a) for a in avail)


def generated_system(seed: int, steps: int, periods: int = 1,
                     uneven: bool = False) -> M.EnergySystem:
    """A seeded system using every compiled feature on ``steps`` steps split
    into ``periods`` equal building periods.  Steps are one hour long, or
    with ``uneven`` of 0.7, 1, 1.3 or 2.9 hours, so the order of the
    products that weight costs and flows by the step length shows."""
    rng = np.random.default_rng(seed)
    T = steps
    hours = tuple(rng.choice([0.7, 1.0, 1.3, 2.9], T)) if uneven else (1.0,) * T
    grid = M.TimeGrid(hours, tuple(t * periods // T for t in range(T)))
    per_period = periods > 1
    nodes = (
        M.Node("elec", "electricity", _values(rng, T, 8.0, 20.0)),
        M.Node("heat", "heat", _values(rng, T, 4.0, 12.0)),
        M.Node("steam", "steam", _values(rng, T, 1.0, 4.0)),
        M.Node("gas", "gas", (0.0,) * T, boundary=True),
    )
    comps = (
        M.Component("pv", M.SourceConversion("elec"),
                    M.CapacitySpec(optimizable=True, max_total=40.0,
                                   availability=_availability(rng, T), per_period=per_period),
                    ramp=M.FixedRamp(0.5, 0.6),
                    costs=M.CostSpec(invest=55.0, built=2.0)),
        M.Component("turbine", M.SingleConversion("gas", "elec", 0.4),
                    M.CapacitySpec(initial=2.0, optimizable=True, max_total=50.0,
                                   per_period=per_period),
                    ramp=M.FixedRamp(0.3, 1.0),
                    costs=M.CostSpec(invest=110.0, maintenance=8.0,
                                     fuel=_values(rng, T, 15.0, 30.0),
                                     emission_factor=0.2, built=4.0)),
        M.Component("import", M.SourceConversion("elec"),
                    M.CapacitySpec(initial=3.0, availability=_availability(rng, T)),
                    costs=M.CostSpec(fuel=60.0)),
        M.Component("chp", M.CoupledConversion("gas", "elec", "heat", 0.35, 0.45),
                    M.CapacitySpec(optimizable=True, max_total=30.0),
                    ramp=M.OptimizedRamp(2.5, 1.5),
                    costs=M.CostSpec(invest=85.0, fuel=18.0, emission_factor=0.18,
                                     emission_price=20.0)),
        M.Component("field", M.FieldConversion(
                        "gas", "elec", "steam", 0.3,
                        (M.HalfPlane(1.0, 0.0, M.SENSE_LE),
                         M.HalfPlane(-1.0, 10.0, M.SENSE_LE),
                         M.HalfPlane(0.25, 0.0, M.SENSE_GE))),
                    M.CapacitySpec(optimizable=True, max_total=30.0),
                    costs=M.CostSpec(invest=65.0, fuel=16.0, emission_factor=0.15)),
        M.Component("boiler", M.SingleConversion("elec", "steam", 0.9),
                    M.CapacitySpec(optimizable=True, max_total=20.0),
                    costs=M.CostSpec(invest_side="input",
                                     annuity=M.AnnuityInput(900.0, 0.04, 15))),
        M.Component("peaker", M.SingleConversion("elec", "heat", 0.95),
                    M.CapacitySpec(availability=_availability(rng, T)),
                    ramp=M.OptimizedRamp(1.0, 0.5),
                    commitment=M.UnitCommitment(
                        unit_capacity=6.0, unit_min_load=1.5, startup_cost=4.0,
                        min_up_steps=3, min_down_steps=2, initial_on=1,
                        partial_load=M.PartialLoad(1.2, 0.4)),
                    costs=M.CostSpec(fuel=2.3, emission_factor=0.3, emission_price=0.07)),
        M.Component("engine", M.SingleConversion("gas", "elec", 0.42),
                    M.CapacitySpec(),
                    commitment=M.UnitCommitment(
                        unit_capacity=5.0, unit_min_load=2.0, startup_cost=6.0,
                        min_up_steps=2, min_down_steps=4, initial_on=0),
                    costs=M.CostSpec(fuel=_values(rng, T, 10.0, 25.0),
                                     emission_factor=0.22)),
        M.Component("blocks", M.SingleConversion("gas", "heat", 0.85),
                    M.CapacitySpec(),
                    commitment=M.UnitCommitment(
                        unit_capacity=4.0, unit_min_load=1.0, max_units=3,
                        optimize_units=True, startup_cost=2.0, initial_on=2),
                    costs=M.CostSpec(invest=40.0, maintenance=3.0, fuel=14.0,
                                     emission_factor=0.1)),
    )
    storages = (
        M.Storage("battery", "elec", 0.95, 0.92, M.CRateLink(2.0), initial_fill=2.0,
                  capacity_optimizable=True, capacity_cost=12.0, capacity_max=40.0),
        M.Storage("tank", "heat", 0.9, 0.9, M.OptimizedRate(2.0, 3.0),
                  initial_fill=5.0, capacity_fixed=20.0),
        M.Storage("pit", "steam", 0.97, 0.97, M.FixedRate(3.0, 2.5),
                  capacity_fixed=15.0, capacity_optimizable=True, capacity_cost=4.0),
        M.Storage("cell", "elec", 0.9, 0.9, M.CRateLink(4.0), capacity_fixed=8.0),
    )
    return M.EnergySystem(grid, nodes, comps, storages, co2_cap=150.0 * T,
                          final_fill_at_least_initial=seed % 2 == 0)


def _programs():
    for name in ("commitment_demo", "paper_system_48", "paper_system"):
        yield name, lambda name=name: compile_system(
            load_scenario(SCENARIO_DIR / f"{name}.json").system)
    for formulation in ("recurrence", "cumulative"):
        yield f"coverage-{formulation}", lambda f=formulation: compile_system(
            coverage_fixture(), storage_formulation=f)
    for seed, steps, periods, formulation in ((1, 24, 1, "recurrence"),
                                              (2, 36, 3, "recurrence"),
                                              (3, 12, 2, "cumulative"),
                                              (4, 168, 1, "recurrence")):
        yield (f"generated-{seed}-{steps}-{periods}-{formulation}",
               lambda s=seed, n=steps, p=periods, f=formulation: compile_system(
                   generated_system(s, n, p, uneven=s > 1), storage_formulation=f))


PINNED = {
    "commitment_demo":
        "aa2374e714424a3b9489257c480ed9826d2571f88fe9726bed3b86c5a3ee404c",
    "paper_system_48":
        "7463308fc17af32dde3308c3ae1ca42005604b7f12fd6637f032e681cb29ed80",
    "paper_system":
        "0819e7abab8c3fd2edc35ea8f3cd45c1d2abc6d2ad77e889e0295ffb4698c652",
    "coverage-recurrence":
        "509f0b742226cab39535b61eb0013389ebf2c166c0e2380f99251b1844214745",
    "coverage-cumulative":
        "68130f1580c87286e60b3898f5f91ce215108864f0b8ddc7003d7ebb5fe3fff4",
    "generated-1-24-1-recurrence":
        "bffe7204c75f610d808991c81e4542ead5a43f50b323b064dcb94fbc920f4301",
    "generated-2-36-3-recurrence":
        "c78cfa96d5b2267cb8ec0d5776239869ca5ea2080b09fb6c696c988bf75b6583",
    "generated-3-12-2-cumulative":
        "da2db9ca87057be4e0565bbd072d0e85d1d74c1c0923aedef6efe62b88eed654",
    "generated-4-168-1-recurrence":
        "0d30b12a3710bab17716a98806d604af84e6826d184a2b16c831dade2cf7b607",
}


PROGRAMS = dict(_programs())


def test_generated_systems_cover_every_branch():
    """The generated programs reach the branches the module docstring lists."""
    seen = set()
    for name, build in PROGRAMS.items():
        if not name.startswith("generated"):
            continue
        prog = build()
        T = int(name.split("-")[2])
        nnz = np.diff(prog.A.indptr)
        for tag, owner in set(zip(prog.tag.tolist(), prog.owner.tolist())):
            mine = (prog.tag == tag) & (prog.owner == owner)
            seen.add((tag, owner))
            if tag in ("EQ1", "EQ18") and (nnz[mine] == 1).any():
                seen.add(("single-term", owner))
            if tag == "EQ16" and owner == "pv" and mine.sum() < T - 1:
                seen.add(("ramp rows dropped", owner))
        seen.update(ref.kind.value for ref in prog.var_refs)
    for want in [("EQ18", "pv"), ("EQ1", "pv"), ("EQ16", "pv"), ("ramp rows dropped", "pv"),
                 ("EQ17", "turbine"), ("EQ16", "chp"), ("EQ16", "peaker"),
                 ("single-term", "pv"), ("EQ19", "turbine"), ("EQ8", "field"),
                 ("EQ9", "field"), ("EQ10", "field"), ("EQ14", "tank"), ("EQ15", "battery"),
                 ("EQ28", "peaker"), ("EQ29", "peaker"), ("EQ28", "engine"),
                 ("EQ29", "engine"), ("EQ25", "elec"), ("EQ27", "blocks"), ("EQ21", ""),
                 ("EQ13", "pit"), ("EQ7", "heat"), ("EQ11", "steam"),
                 "max_charge", "ramp_up", "installed_period", "built", "units"]:
        assert want in seen, want


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_fingerprint_is_pinned(name):
    prog = PROGRAMS[name]()
    assert hashlib.sha256(prog.fingerprint()).hexdigest() == PINNED[name]
