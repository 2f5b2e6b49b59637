import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from enopt import model as M
from enopt.formulate import Family, LinearProgram, VarKind, VarRef

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def make_program(c, rows, lower=None, upper=None, integer=None) -> LinearProgram:
    """Assemble a bare program: rows are (terms [(col, coef)], sense, rhs)."""
    prog = LinearProgram()
    n = len(c)
    for j in range(n):
        lo = 0.0 if lower is None else lower[j]
        hi = np.inf if upper is None else upper[j]
        flag = bool(integer[j]) if integer is not None else False
        kind = VarKind.ON if flag else VarKind.OUTPUT
        prog.add_variable(VarRef(kind, f"x{j}"), lo, hi, integer=flag)
    for terms, sense, rhs in rows:
        prog.add_row(Family.NODE_BALANCE, list(terms), sense, rhs)
    for j, cj in enumerate(c):
        if cj:
            prog.add_cost(prog.ref(j), cj)
    return prog.finalize()


def single_node_system(loads=(10.0, 6.0, 12.0), fuel=20.0, invest=50.0,
                       max_total=100.0, **system_kwargs) -> M.EnergySystem:
    """One balanced node fed by one boundary-fuel plant."""
    T = len(loads)
    grid = M.TimeGrid((1.0,) * T)
    nodes = (M.Node("elec", "electricity", tuple(loads)),
             M.Node("fuel", "gas", (0.0,) * T, boundary=True))
    comp = M.Component(
        "plant", M.SingleConversion("fuel", "elec", 0.5),
        M.CapacitySpec(optimizable=True, max_total=max_total),
        costs=M.CostSpec(invest=invest, fuel=fuel))
    return M.EnergySystem(grid, nodes, (comp,), (), **system_kwargs)


def heat_pump_system() -> M.EnergySystem:
    """Well-formed two-node system: import -> electricity -> heat pump -> heat."""
    grid = M.TimeGrid((1.0, 1.0))
    nodes = (M.Node("elec", "electricity", (5.0, 7.0)),
             M.Node("heat", "heat", (9.0, 6.0)))
    comps = (
        M.Component("import", M.SourceConversion("elec"),
                    M.CapacitySpec(optimizable=True),
                    costs=M.CostSpec(fuel=30.0)),
        M.Component("pump", M.SingleConversion("elec", "heat", 3.0),
                    M.CapacitySpec(optimizable=True, max_total=40.0),
                    costs=M.CostSpec(invest=10.0)),
    )
    return M.EnergySystem(grid, nodes, comps, ())


def storage_system(loads, *, etac=0.98, etad=0.98, rate=None, cap_opt=True,
                   cap_cost=15.0, cap_fixed=0.0, cap_max=None, initial_fill=0.0,
                   source_fuel=None, dt=None, final_hold=False) -> M.EnergySystem:
    """One node, one price-varying source, one storage."""
    T = len(loads)
    grid = M.TimeGrid(tuple(dt) if dt is not None else (1.0,) * T)
    nodes = (M.Node("elec", "electricity", tuple(loads)),)
    fuel = tuple(source_fuel) if source_fuel is not None else (
        tuple(10.0 + 30.0 * (t % 2) for t in range(T)))
    comps = (M.Component("source", M.SourceConversion("elec"),
                         M.CapacitySpec(optimizable=True),
                         costs=M.CostSpec(invest=1.0, fuel=fuel)),)
    stor = M.Storage("store", "elec", etac, etad,
                     rate or M.CRateLink(1.0),
                     initial_fill=initial_fill,
                     capacity_fixed=cap_fixed,
                     capacity_optimizable=cap_opt,
                     capacity_cost=cap_cost,
                     capacity_max=cap_max)
    return M.EnergySystem(grid, nodes, comps, (stor,),
                          final_fill_at_least_initial=final_hold)


def coverage_fixture() -> M.EnergySystem:
    """Exercises every constraint family EQ1..EQ29 in one system.

    Each balance variant gets its own node so literal rows exist per family:
    water is plain (EQ2), heat carries a fixed-ratio secondary (EQ7), steam a
    field secondary (EQ11) and elec a partial-load consumer (EQ25).
    """
    T = 6
    grid = M.TimeGrid((1.0,) * T, (0, 0, 0, 1, 1, 1))
    nodes = (
        M.Node("elec", "electricity", (10.0, 12.0, 8.0, 14.0, 9.0, 11.0)),
        M.Node("heat", "heat", (6.0, 7.0, 5.0, 8.0, 6.0, 7.0)),
        M.Node("steam", "steam", (3.0,) * T),
        M.Node("water", "water", (2.0, 2.5, 2.0, 3.0, 2.0, 2.5)),
        M.Node("fuelgas", "gas", (0.0,) * T, boundary=True),
    )
    comps = (
        # simple converter co-feeding the field node (EQ1)
        M.Component("steamer", M.SingleConversion("fuelgas", "steam", 0.8),
                    M.CapacitySpec(optimizable=True, max_total=30.0),
                    costs=M.CostSpec(invest=15.0, fuel=12.0, emission_factor=0.12)),
        # plain supply for the plain node (EQ2)
        M.Component("pumphouse", M.SingleConversion("elec", "water", 0.85),
                    M.CapacitySpec(optimizable=True, max_total=20.0),
                    costs=M.CostSpec(invest=25.0)),
        # per-period capacity + built cost + fixed ramp (EQ16-19)
        M.Component("turbine", M.SingleConversion("fuelgas", "elec", 0.4),
                    M.CapacitySpec(initial=1.0, optimizable=True, max_total=60.0,
                                   per_period=True),
                    ramp=M.FixedRamp(0.6, 0.6),
                    costs=M.CostSpec(invest=120.0, maintenance=10.0, fuel=20.0,
                                     emission_factor=0.2, built=5.0)),
        # annuitized, input-side costed electric boiler + optimized ramp (EQ4, EQ5)
        M.Component("boiler", M.SingleConversion("elec", "heat", 0.9),
                    M.CapacitySpec(optimizable=True, max_total=30.0),
                    ramp=M.OptimizedRamp(3.0, 2.0),
                    costs=M.CostSpec(invest_side="input",
                                     annuity=M.AnnuityInput(1000.0, 0.05, 10))),
        # fixed-ratio cogeneration into heat (EQ7)
        M.Component("cogen", M.CoupledConversion("fuelgas", "elec", "heat", 0.35, 0.45),
                    M.CapacitySpec(optimizable=True, max_total=40.0),
                    costs=M.CostSpec(invest=90.0, fuel=18.0, emission_factor=0.18,
                                     emission_price=25.0)),
        # characteristic-field cogeneration into steam (EQ8-11)
        M.Component("flexgen", M.FieldConversion(
                        "fuelgas", "elec", "steam", 0.3,
                        (M.HalfPlane(1.0, 0.0, M.SENSE_LE),
                         M.HalfPlane(-1.0, 12.0, M.SENSE_LE),
                         M.HalfPlane(0.25, 0.0, M.SENSE_GE))),
                    M.CapacitySpec(optimizable=True, max_total=40.0),
                    costs=M.CostSpec(invest=70.0, fuel=16.0, emission_factor=0.15)),
        # binary commitment with partial load and min up/down (EQ22-26, 28, 29)
        M.Component("peaker", M.SingleConversion("elec", "heat", 0.95),
                    M.CapacitySpec(),
                    commitment=M.UnitCommitment(
                        unit_capacity=6.0, unit_min_load=1.5, max_units=1,
                        startup_cost=4.0, min_up_steps=2, min_down_steps=2,
                        partial_load=M.PartialLoad(1.2, 0.4)),
                    costs=M.CostSpec(fuel=2.0)),
        # multi-unit block with optimized unit count (EQ27)
        M.Component("blocks", M.SingleConversion("fuelgas", "elec", 0.45),
                    M.CapacitySpec(),
                    commitment=M.UnitCommitment(
                        unit_capacity=4.0, unit_min_load=1.0, max_units=3,
                        optimize_units=True, startup_cost=2.0),
                    costs=M.CostSpec(invest=40.0, fuel=14.0, emission_factor=0.1)),
        # availability-profiled boundary source (EQ1 with series)
        M.Component("solar", M.SourceConversion("elec"),
                    M.CapacitySpec(optimizable=True, max_total=30.0,
                                   availability=(0.0, 0.3, 0.8, 0.9, 0.4, 0.0)),
                    costs=M.CostSpec(invest=60.0)),
    )
    storages = (
        M.Storage("battery", "elec", 0.95, 0.95, M.CRateLink(2.0),
                  initial_fill=2.0, capacity_optimizable=True, capacity_cost=12.0,
                  capacity_max=40.0),
        M.Storage("tank", "heat", 0.9, 0.9, M.OptimizedRate(2.0, 2.0),
                  initial_fill=5.0, capacity_fixed=20.0),
    )
    return M.EnergySystem(grid, nodes, comps, storages, co2_cap=2000.0)


@pytest.fixture(scope="session")
def coverage_system() -> M.EnergySystem:
    return coverage_fixture()


def expected_variable_count(sys_: M.EnergySystem) -> int:
    """Analytic variable count, mirroring the formula documented in
    enopt.formulate's module docstring (recurrence storage formulation)."""
    T = sys_.time.num_steps
    P = sys_.time.num_periods
    total = 0
    for comp in sys_.components:
        total += T
        if isinstance(comp.conversion, M.FieldConversion):
            total += T
        if comp.committed:
            total += 2 * T
            if comp.commitment.optimize_units:
                total += 1
        elif comp.capacity.optimizable:
            total += (2 * P - 1) if comp.capacity.per_period else 1
        if isinstance(comp.ramp, M.OptimizedRamp):
            total += 2
    for stor in sys_.storages:
        total += 3 * T
        if stor.capacity_optimizable:
            total += 1
        if isinstance(stor.rate, M.OptimizedRate):
            total += 2
    return total
