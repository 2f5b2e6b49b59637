import dataclasses

import pytest

from enopt import model as M
from enopt.model import validate_system, system_dimensions

from conftest import heat_pump_system, single_node_system


def _mutate(sys, **kwargs):
    return dataclasses.replace(sys, **kwargs)


def test_well_formed_system_has_empty_report():
    report = validate_system(heat_pump_system())
    assert report.ok
    assert len(report) == 0


def test_validation_is_idempotent_and_pure():
    sys_ = single_node_system()
    first = validate_system(sys_)
    second = validate_system(sys_)
    assert first == second


def test_availability_out_of_range_flagged_with_index():
    sys_ = single_node_system(loads=(1.0,) * 8)
    comp = sys_.components[0]
    bad = dataclasses.replace(
        comp, capacity=M.CapacitySpec(optimizable=True,
                                      availability=(1.0,) * 7 + (1.2,)))
    report = validate_system(_mutate(sys_, components=(bad,)))
    assert M.AVAILABILITY_RANGE in report.codes()
    hit = [v for v in report if v.code == M.AVAILABILITY_RANGE][0]
    assert "[7]" in hit.where


def test_min_downtime_with_multiple_units_needs_binary():
    sys_ = single_node_system()
    comp = sys_.components[0]
    bad = dataclasses.replace(
        comp,
        capacity=M.CapacitySpec(),
        commitment=M.UnitCommitment(unit_capacity=10.0, unit_min_load=2.0,
                                    max_units=5, min_down_steps=3))
    report = validate_system(_mutate(sys_, components=(bad,)))
    assert M.BINARY_REQUIRED in report.codes()


def test_zero_load_system_is_degenerate_warning_only():
    sys_ = single_node_system(loads=(0.0, 0.0))
    report = validate_system(sys_)
    assert M.DEGENERATE in report.codes()
    assert report.ok  # warning, not error


def _components_twice(sys_):
    """Each component listed twice, so each id is given twice."""
    return _mutate(sys_, components=sys_.components * 2)


@pytest.mark.parametrize("breaker,code", [
    (lambda s: _mutate(s, time=M.TimeGrid(())), M.TIME_EMPTY),
    (lambda s: _mutate(s, time=M.TimeGrid((1.0, -1.0, 1.0))), M.STEP_NONPOSITIVE),
    (lambda s: _mutate(s, time=M.TimeGrid((1.0,) * 3, (0, 1, 0))), M.PERIOD_ORDER),
    (lambda s: _mutate(s, time=M.TimeGrid((1.0,) * 3, (1, 1, 2))), M.PERIOD_RANGE),
    (lambda s: _mutate(s, time=M.TimeGrid((1.0,) * 3, (0, 0, 2))), M.PERIOD_RANGE),
    (lambda s: _mutate(s, time=M.TimeGrid((1.0,) * 3, (0, 0))), M.PERIOD_LENGTH),
    (lambda s: _mutate(s, nodes=s.nodes + (M.Node("x", "e", (1.0,)),)), M.LOAD_LENGTH),
    (lambda s: _mutate(s, nodes=s.nodes + (M.Node("elec", "e", (0.0,) * 3),)),
     M.ID_DUPLICATE),
    (lambda s: _mutate(s, co2_cap=-5.0), M.CO2_CAP_NEGATIVE),
    (lambda s: _mutate(s, co2_cap=float("nan")), M.NOT_FINITE),
    (lambda s: _mutate(s, co2_cap=-float("inf")), M.NOT_FINITE),
    (_components_twice, M.ID_DUPLICATE),
])
def test_system_level_violations(breaker, code):
    sys_ = single_node_system(loads=(1.0, 2.0, 3.0))
    assert code in validate_system(breaker(sys_)).codes()


def _with_component(sys_, **overrides):
    comp = dataclasses.replace(sys_.components[0], **overrides)
    return _mutate(sys_, components=(comp,))


@pytest.mark.parametrize("overrides,code", [
    ({"conversion": M.SingleConversion("fuel", "elec", 0.0)}, M.EFFICIENCY_RANGE),
    ({"conversion": M.SingleConversion("elec", "elec", 0.5)}, M.SELF_LOOP),
    ({"conversion": M.SingleConversion("nowhere", "elec", 0.5)}, M.NODE_MISSING),
    ({"conversion": M.FieldConversion("fuel", "elec", "elec2", 0.4,
                                      (M.HalfPlane(1, 0, "le"),
                                       M.HalfPlane(-1, 4, "le")))}, M.FIELD_PLANES),
    ({"conversion": M.FieldConversion("fuel", "elec", "elec2", 0.4,
                                      (M.HalfPlane(1, 0, "le"),
                                       M.HalfPlane(0.5, 0, "le"),
                                       M.HalfPlane(-1, 4, "le")))}, M.FIELD_PLANES),
    ({"capacity": M.CapacitySpec(initial=-1.0)}, M.CAPACITY_RANGE),
    ({"capacity": M.CapacitySpec(initial=10.0, max_total=5.0)}, M.MAX_BELOW_INITIAL),
    ({"capacity": M.CapacitySpec(availability=(1.0, 1.0))}, M.AVAILABILITY_LENGTH),
    ({"ramp": M.FixedRamp(-0.1, 0.5)}, M.RAMP_NEGATIVE),
    ({"ramp": M.OptimizedRamp(-1.0, 0.0)}, M.RAMP_NEGATIVE),
    ({"ramp": M.FixedRamp(0.5, 0.5),
      "commitment": M.UnitCommitment(unit_capacity=5.0)}, M.RAMP_REQUIRES_CAPACITY),
    ({"commitment": M.UnitCommitment(unit_capacity=5.0, unit_min_load=6.0)},
     M.COMMIT_MIN_LOAD),
    ({"commitment": M.UnitCommitment(unit_capacity=5.0, max_units=0)}, M.COMMIT_UNITS),
    ({"commitment": M.UnitCommitment(unit_capacity=5.0, min_up_steps=2,
                                     max_units=2)}, M.BINARY_REQUIRED),
    ({"commitment": M.UnitCommitment(unit_capacity=5.0, max_units=1,
                                     optimize_units=True, min_down_steps=1)},
     M.BINARY_REQUIRED),
    ({"commitment": M.UnitCommitment(unit_capacity=5.0,
                                     partial_load=M.PartialLoad(0.0, 1.0))},
     M.PARTIAL_LOAD_SLOPE),
    ({"conversion": M.SourceConversion("elec"),
      "commitment": M.UnitCommitment(unit_capacity=5.0,
                                     partial_load=M.PartialLoad(2.0, 1.0))},
     M.PARTIAL_LOAD_INPUT),
    ({"commitment": M.UnitCommitment(unit_capacity=5.0, startup_cost=-1.0)},
     M.COST_NEGATIVE),
    ({"capacity": M.CapacitySpec(optimizable=True, per_period=True),
      "commitment": M.UnitCommitment(unit_capacity=5.0)}, M.COMMIT_PER_PERIOD),
    ({"costs": M.CostSpec(invest=-1.0)}, M.COST_NEGATIVE),
    ({"costs": M.CostSpec(fuel=(1.0, 2.0))}, M.FUEL_LENGTH),
    ({"costs": M.CostSpec(invest_side="sideways")}, M.COST_SIDE),
    ({"costs": M.CostSpec(annuity=M.AnnuityInput(100.0, 0.05, 0))}, M.ANNUITY_RANGE),
    ({"costs": M.CostSpec(invest=5.0, annuity=M.AnnuityInput(100.0, 0.05, 10))},
     M.COST_CONFLICT),
    ({"conversion": M.CoupledConversion("elec2", "elec", "elec2", 0.4, 0.3)}, M.SELF_LOOP),
    ({"conversion": M.CoupledConversion("fuel", "elec", "elec2", 0.4, 0.0)},
     M.EFFICIENCY_RANGE),
    ({"conversion": M.FieldConversion("elec", "elec", "elec2", 0.4,
                                      (M.HalfPlane(1, 0, "le"),
                                       M.HalfPlane(0.5, 0, "ge"),
                                       M.HalfPlane(-1, 4, "le")))}, M.SELF_LOOP),
    ({"conversion": M.FieldConversion("fuel", "elec", "elec2", 0.0,
                                      (M.HalfPlane(1, 0, "le"),
                                       M.HalfPlane(0.5, 0, "ge"),
                                       M.HalfPlane(-1, 4, "le")))}, M.EFFICIENCY_RANGE),
    ({"ramp": M.OptimizedRamp(1.0, 0.0)}, M.COSTLESS_SLACK),
    ({"costs": M.CostSpec(emission_price=-1.0)}, M.COST_NEGATIVE),
    ({"commitment": M.UnitCommitment(unit_capacity=5.0, max_units=1, min_up_steps=-1)},
     M.COMMIT_UNITS),
    ({"capacity": M.CapacitySpec(initial=2.0),
      "commitment": M.UnitCommitment(unit_capacity=5.0)}, M.COMMIT_CAPACITY),
    ({"capacity": M.CapacitySpec(optimizable=True),
      "commitment": M.UnitCommitment(unit_capacity=5.0)}, M.COMMIT_CAPACITY),
    ({"capacity": M.CapacitySpec(max_total=50.0),
      "commitment": M.UnitCommitment(unit_capacity=5.0)}, M.COMMIT_CAPACITY),
])
def test_component_violations(overrides, code):
    sys_ = single_node_system(loads=(1.0, 2.0, 3.0))
    nodes = sys_.nodes + (M.Node("elec2", "electricity", (0.0,) * 3),)
    report = validate_system(_with_component(_mutate(sys_, nodes=nodes), **overrides))
    assert code in report.codes(), report.violations


def _with_storage(**overrides):
    sys_ = single_node_system(loads=(1.0, 2.0, 3.0))
    defaults = dict(id="store", node="elec", charge_efficiency=0.9,
                    discharge_efficiency=0.9, rate=M.FixedRate(5.0, 5.0))
    defaults.update(overrides)
    return _mutate(sys_, storages=(M.Storage(**defaults),))


@pytest.mark.parametrize("overrides,code", [
    ({"node": "ghost"}, M.NODE_MISSING),
    ({"charge_efficiency": 0.0}, M.STORAGE_EFFICIENCY),
    ({"discharge_efficiency": 1.2}, M.STORAGE_EFFICIENCY),
    ({"initial_fill": -1.0}, M.STORAGE_CAPACITY),
    ({"initial_fill": 5.0, "capacity_fixed": 2.0}, M.STORAGE_OVERFULL),
    ({"capacity_fixed": 10.0, "capacity_max": 5.0}, M.STORAGE_CAPACITY),
    ({"rate": M.FixedRate(-1.0, 5.0)}, M.STORAGE_RATE),
    ({"rate": M.CRateLink(0.0)}, M.STORAGE_RATE),
    ({"rate": M.OptimizedRate(-1.0, 1.0)}, M.STORAGE_RATE),
    ({"id": "plant"}, M.ID_DUPLICATE),
    ({"rate": M.OptimizedRate(1.0, 0.0)}, M.COSTLESS_SLACK),
    ({"rate": None}, M.STORAGE_RATE),
])
def test_storage_violations(overrides, code):
    assert code in validate_system(_with_storage(**overrides)).codes()


def test_dimensions_single_node_source():
    grid = M.TimeGrid((1.0,))
    sys_ = M.EnergySystem(
        grid, (M.Node("n", "e", (5.0,)),),
        (M.Component("src", M.SourceConversion("n"),
                     M.CapacitySpec(optimizable=True)),), ())
    assert system_dimensions(sys_) == (1, 1, 1, 0, 1)


def test_dimensions_full_year_five_technology_system():
    """The five-technology example over a full hourly year: two balanced
    carriers plus the fuel boundary, four components, one storage."""
    T = 8760
    grid = M.TimeGrid((1.0,) * T)
    nodes = (M.Node("electricity", "electricity", (1.0,) * T),
             M.Node("heat", "heat", (1.0,) * T),
             M.Node("gas", "gas", (0.0,) * T, boundary=True))
    cap = M.CapacitySpec(optimizable=True, max_total=1000.0)
    comps = (
        M.Component("heat_pump", M.SingleConversion("electricity", "heat", 3.0), cap),
        M.Component("gas_turbine", M.SingleConversion("gas", "electricity", 0.4), cap),
        M.Component("chp", M.CoupledConversion("gas", "electricity", "heat",
                                               0.37, 0.28416), cap),
        M.Component("pv", M.SourceConversion("electricity"), cap),
    )
    battery = (M.Storage("battery", "electricity", 0.98, 0.98, M.CRateLink(1.0),
                         capacity_optimizable=True),)
    dims = system_dimensions(M.EnergySystem(grid, nodes, comps, battery))
    assert dims == (8760, 3, 4, 1, 1)


def test_dimensions_of_coverage_fixture(coverage_system):
    dims = system_dimensions(coverage_system)
    assert dims.num_steps == 6
    assert dims.num_nodes == 5
    assert dims.num_components == 9
    assert dims.num_storages == 2
    assert dims.num_periods == 2


def test_node_finds_a_node_by_id_and_refuses_others():
    sys_ = single_node_system(loads=(1.0, 2.0))
    assert sys_.node("fuel") is sys_.nodes[1]
    with pytest.raises(KeyError):
        sys_.node("missing")


def test_every_declared_code_is_reachable():
    """Each invariant in the model maps to at least one violation code that
    the parametrized cases above actually produce."""
    produced = set()
    for args in test_component_violations.pytestmark[0].args[1]:
        produced.add(args[1])
    for args in test_storage_violations.pytestmark[0].args[1]:
        produced.add(args[1])
    for args in test_system_level_violations.pytestmark[0].args[1]:
        produced.add(args[1])
    produced |= {M.AVAILABILITY_RANGE, M.BINARY_REQUIRED, M.DEGENERATE}
    declared = {
        M.TIME_EMPTY, M.STEP_NONPOSITIVE, M.PERIOD_ORDER, M.PERIOD_RANGE,
        M.PERIOD_LENGTH, M.LOAD_LENGTH, M.ID_DUPLICATE, M.NODE_MISSING,
        M.SELF_LOOP, M.EFFICIENCY_RANGE, M.FIELD_PLANES, M.AVAILABILITY_RANGE,
        M.AVAILABILITY_LENGTH, M.CAPACITY_RANGE, M.MAX_BELOW_INITIAL,
        M.RAMP_NEGATIVE, M.RAMP_REQUIRES_CAPACITY, M.COMMIT_MIN_LOAD,
        M.COMMIT_UNITS, M.BINARY_REQUIRED, M.PARTIAL_LOAD_SLOPE,
        M.PARTIAL_LOAD_INPUT, M.COMMIT_PER_PERIOD, M.COST_NEGATIVE,
        M.COST_CONFLICT, M.COST_SIDE, M.FUEL_LENGTH, M.ANNUITY_RANGE,
        M.STORAGE_EFFICIENCY, M.STORAGE_RATE, M.STORAGE_CAPACITY,
        M.STORAGE_OVERFULL, M.CO2_CAP_NEGATIVE, M.DEGENERATE, M.COSTLESS_SLACK,
        M.COMMIT_CAPACITY,
    }
    assert declared <= produced


def _with_plant(sys_, **changes):
    """Replace sub-specs of the single plant of ``single_node_system``."""
    plant = dataclasses.replace(sys_.components[0], **changes)
    return _mutate(sys_, components=(plant,))


_BROKEN_FIELD = {
    "nodes[elec].load[1]": lambda s, v: _mutate(s, nodes=(
        dataclasses.replace(s.nodes[0], load=(10.0, v, 12.0)), s.nodes[1])),
    "components[plant].capacity.availability[2]": lambda s, v: _with_plant(
        s, capacity=M.CapacitySpec(optimizable=True, availability=(1.0, 1.0, v))),
    "components[plant].capacity.max_total": lambda s, v: _with_plant(
        s, capacity=M.CapacitySpec(optimizable=True, max_total=v)),
    "components[plant].costs.fuel[0]": lambda s, v: _with_plant(
        s, costs=M.CostSpec(fuel=(v, 20.0, 20.0))),
    "components[plant].costs.invest": lambda s, v: _with_plant(
        s, costs=M.CostSpec(invest=v)),
    "components[plant].conversion.efficiency": lambda s, v: _with_plant(
        s, conversion=M.SingleConversion("fuel", "elec", v)),
    "time.step_hours[1]": lambda s, v: _mutate(s, time=M.TimeGrid((1.0, v, 1.0))),
}


@pytest.mark.parametrize("where", sorted(_BROKEN_FIELD))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_numbers_are_rejected_by_field(where, value):
    report = validate_system(_BROKEN_FIELD[where](single_node_system(), value))
    assert not report.ok
    assert [v.where for v in report if v.code == M.NOT_FINITE] == [where]


def test_a_system_is_walked_once_however_often_it_is_validated(scenario_dir, monkeypatch):
    """``load_scenario`` validates its system; ``compile_system`` validates
    the same value again and gets the kept report without a second walk.  A
    ``dataclasses.replace`` copy is a new value and is walked once more."""
    from enopt.formulate import compile_system
    from enopt.scenario import load_scenario

    walked = []
    walk = M._walk_system

    def counting(sys_):
        walked.append(sys_)
        return walk(sys_)

    monkeypatch.setattr(M, "_walk_system", counting)
    scn = load_scenario(scenario_dir / "paper_system_48.json")
    assert len(walked) == 1 and walked[0] is scn.system
    compile_system(scn.system)
    assert len(walked) == 1
    copy = dataclasses.replace(scn.system, co2_cap=None)
    assert copy == scn.system and copy is not scn.system
    compile_system(copy)
    assert len(walked) == 2 and walked[1] is copy
    assert validate_system(copy) is validate_system(copy) == validate_system(scn.system)
    assert len(walked) == 2


def test_an_invalid_system_from_a_document_fails_to_compile(scenario_dir):
    """A system built by ``system_from_dict`` is not validated; compiling it
    walks it and refuses it with the report."""
    import json

    from enopt.formulate import CompileError, compile_system
    from enopt.scenario import system_from_dict

    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    doc["system"]["nodes"][0]["load"] = [1.0] * 47  # one step short of 48
    sys_ = system_from_dict(doc["system"], scenario_dir)
    with pytest.raises(CompileError) as err:
        compile_system(sys_)
    assert M.LOAD_LENGTH in err.value.report.codes()
    assert err.value.report is validate_system(sys_)
