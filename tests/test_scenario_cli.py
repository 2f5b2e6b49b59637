import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from enopt import cli
from enopt import model as M
from enopt.model import system_dimensions, validate_system
from enopt.scenario import (
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_VALIDATION,
    Scenario,
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    system_from_dict,
    system_to_dict,
)

from conftest import coverage_fixture
from oracles import rows_tagged


def test_shipped_scenario_loads_cleanly(scenario_dir):
    scn = load_scenario(scenario_dir / "paper_system.json")
    assert validate_system(scn.system).ok
    dims = system_dimensions(scn.system)
    assert dims == (168, 3, 4, 1, 1)


def test_desk_48_dimensions_match_file(scenario_dir):
    path = scenario_dir / "paper_system_48.json"
    scn = load_scenario(path)
    doc = json.loads(path.read_text())
    dims = system_dimensions(scn.system)
    assert dims.num_steps == doc["system"]["time"]["count"] == 48
    assert dims.num_nodes == len(doc["system"]["nodes"])
    assert dims.num_components == len(doc["system"]["components"])
    assert dims.num_storages == len(doc["system"]["storages"])
    assert dims.num_periods == 1


def test_truncated_file_is_a_parse_error(tmp_path, scenario_dir):
    src = (scenario_dir / "paper_system_48.json").read_text()
    bad = tmp_path / "broken.json"
    bad.write_text(src[: len(src) // 2])
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert err.value.exit_code == EXIT_PARSE


def test_wrong_schema_version(tmp_path, scenario_dir):
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    doc["schema_version"] = 99
    p = tmp_path / "v99.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert err.value.exit_code == EXIT_SCHEMA


def test_short_availability_series_names_the_field(tmp_path, scenario_dir):
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    doc["system"]["components"][3]["capacity"]["availability"] = [1.0] * 47
    p = tmp_path / "short.json"
    p.write_text(json.dumps(doc))
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert err.value.exit_code == EXIT_VALIDATION
    assert "availability" in str(err.value)
    assert "pv" in str(err.value)


@pytest.mark.parametrize("csv, column, message", [
    (None, "a", "sidecar file not found: {path}"),
    ("a,b\n1,2\n3,4\n", "zz", "column 'zz' not in series.csv (has ['a', 'b'])"),
    ("a,b\n1,2\nx,4\n", "a",
     "non-numeric value in series.csv:a: could not convert string to float: 'x'"),
], ids=["missing_file", "missing_column", "non_numeric"])
def test_sidecar_csv_errors_name_the_series(tmp_path, capsys, csv, column, message):
    system = M.EnergySystem(M.TimeGrid((1.0, 1.0)), (M.Node("n", "e", (1.0, 2.0)),))
    doc = scenario_to_dict(Scenario(system=system))
    doc["system"]["nodes"][0]["load"] = {"csv": "series.csv", "column": column}
    p = tmp_path / "sidecar.json"
    p.write_text(json.dumps(doc))
    if csv is not None:
        (tmp_path / "series.csv").write_text(csv)
    assert cli.main(["validate", str(p)]) == EXIT_SCHEMA
    message = message.format(path=tmp_path / "series.csv")
    assert capsys.readouterr().err == f"error: at system.nodes[0].load: {message}\n"


def test_roundtrip_preserves_the_system(tmp_path, scenario_dir):
    cases = [("coverage", Scenario(system=coverage_fixture(), solver={"mip_gap": 1e-7}))]
    cases += [(name, load_scenario(scenario_dir / f"{name}.json"))
              for name in ("commitment_demo", "paper_system_48", "paper_system")]
    for name, scn in cases:
        out = tmp_path / f"{name}.json"
        save_scenario(scn, out)
        again = load_scenario(out)
        assert again.system == scn.system, name
        assert again.solver == scn.solver, name
        assert again.outputs == scn.outputs, name
        # and a second hop stays identical byte for byte
        out2 = tmp_path / f"{name}.2.json"
        save_scenario(again, out2)
        assert out.read_text() == out2.read_text(), name


def test_system_dict_roundtrip_without_files():
    sys_ = coverage_fixture()
    assert system_from_dict(system_to_dict(sys_)) == sys_


def _set(path: list, value):
    """A change to the system document: set the value at a key path."""
    def change(doc):
        for step in path[:-1]:
            doc = doc[step]
        doc[path[-1]] = value
    return change


@pytest.mark.parametrize("change, where", [
    (_set(["components", 8, "capacity", "availability"], "abc"),
     "system.components[8].capacity.availability: expected number, array or {csv, column}"),
    (_set(["components", 0, "costs", "invest"], "abc"),
     "system.components[0].costs: field 'invest' expected int/float, got str"),
    (_set(["components", 0, "conversion", "efficiency"], None),
     "system.components[0].conversion: missing required field 'efficiency'"),
    (_set(["components", 5, "conversion", "half_planes", 1, "sense"], "eq"),
     "system.components[5].conversion.half_planes[1]: field 'sense' must be one of "
     "['ge', 'le'], got 'eq'"),
    (_set(["components", 2, "ramp", "up"], "fast"),
     "system.components[2].ramp: field 'up' expected int/float, got str"),
    (_set(["components", 7, "commitment", "max_units"], 1.5),
     "system.components[7].commitment: field 'max_units' expected int, got float"),
    (_set(["components", 6, "commitment", "partial_load", "slope"], [1.0]),
     "system.components[6].commitment.partial_load: field 'slope' expected int/float, got list"),
    (_set(["components", 3, "costs", "annuity", "lifetime"], 10.5),
     "system.components[3].costs.annuity: field 'lifetime' expected int, got float"),
    (_set(["storages", 0, "capacity", "optimizable"], "yes"),
     "system.storages[0].capacity: field 'optimizable' expected bool, got str"),
    (_set(["storages", 1, "rate", "type"], "turbo"),
     "system.storages[1].rate: field 'type' must be one of ['c_rate', 'fixed', 'optimized'], "
     "got 'turbo'"),
    (_set(["nodes", 1, "load"], 5.0),
     "system.nodes[1].load: expected a series, got a scalar"),
    (_set(["time", "period_of_step"], 3),
     "system.time.period_of_step: expected an array of period indices"),
    (_set(["time", "period_of_step"], ["a"] * 6),
     "system.time.period_of_step: expected an array of period indices"),
    (_set(["components", 8, "capacity", "optimisable"], True),
     "system.components[8].capacity: unknown keys: ['optimisable']"),
    (_set(["components", 0, "costz"], {}),
     "system.components[0]: unknown keys: ['costz']"),
    (_set(["components", 4, "conversion", "eff"], 0.5),
     "system.components[4].conversion: unknown keys: ['eff']"),
    (_set(["storages", 0, "capacity", "fixd"], 5.0),
     "system.storages[0].capacity: unknown keys: ['fixd']"),
    (_set(["co2cap"], 1.0), "system: unknown keys: ['co2cap']"),
    (_set(["components", 7, "commitment", "max_units"], True),
     "system.components[7].commitment: field 'max_units' expected int, got bool"),
    (_set(["components", 0, "conversion", "efficiency"], True),
     "system.components[0].conversion: field 'efficiency' expected int/float, got bool"),
    (_set(["components", 8, "capacity", "availability"], [True] * 6),
     "system.components[8].capacity.availability: series entries must be numbers"),
    (_set(["time"], {"count": True}), "system.time: field 'count' expected int, got bool"),
    (_set(["time"], {"count": 6, "hours": False}),
     "system.time: field 'hours' expected int/float, got bool"),
    (_set(["nodes", 0, "boundry"], True), "system.nodes[0]: unknown keys: ['boundry']"),
    (_set(["nodes", 1, "_comment"], "x"), "system.nodes[1]: unknown keys: ['_comment']"),
    (_set(["time", "period_of_stepz"], [0] * 6), "system.time: unknown keys: ['period_of_stepz']"),
    (_set(["nodes", 0, "load"], {"csv": "s.csv", "column": "load", "sheet": 1}),
     "system.nodes[0].load: unknown keys: ['sheet']"),
], ids=["capacity", "costs", "conversion", "half_plane", "ramp", "commitment",
        "partial_load", "annuity", "storage_capacity", "storage_rate", "node", "time",
        "time_period_entry", "unknown_capacity_key", "unknown_component_key",
        "unknown_union_key", "unknown_group_key", "unknown_system_key", "bool_int",
        "bool_float", "bool_series", "bool_count", "bool_hours", "unknown_node_key",
        "node_comment", "unknown_time_key", "unknown_series_reference_key"])
def test_schema_error_names_the_full_path(tmp_path, capsys, change, where):
    doc = scenario_to_dict(Scenario(system=coverage_fixture()))
    change(doc["system"])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["validate", str(p)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: at {where}\n"


def test_desk_replica_variable_count_matches_documented_formula(scenario_dir):
    from enopt.formulate import compile_system
    from conftest import expected_variable_count

    scn = load_scenario(scenario_dir / "paper_system_48.json")
    prog = compile_system(scn.system)
    assert prog.num_vars == expected_variable_count(scn.system)


def test_pv_capacity_coefficients_equal_scenario_series(scenario_dir):
    import csv

    from enopt.formulate import Family, VarKind, VarRef, compile_system

    scn = load_scenario(scenario_dir / "paper_system_48.json")
    prog = compile_system(scn.system)
    with open(scenario_dir / "series_48.csv", newline="") as fh:
        series = [float(row["availability_pv"]) for row in csv.DictReader(fh)]
    inst = prog.index(VarRef(VarKind.INSTALLED, "pv"))
    rows = [r for r in rows_tagged(prog, Family.CAPACITY_LIMIT) if r.owner == "pv"]
    assert len(rows) == 48
    for row in rows:
        coefs = dict(row.terms)
        assert coefs.get(inst, 0.0) == -series[row.step]


# ---------------------------------------------------------------------------
# CLI commands


def test_cli_validate_and_dimensions(capsys, scenario_dir):
    assert cli.main(["validate", str(scenario_dir / "paper_system_48.json")]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert cli.main(["dimensions", str(scenario_dir / "paper_system_48.json")]) == 0
    out = capsys.readouterr().out
    assert "steps: 48" in out and "components: 4" in out


def _scenario_file(tmp_path, system) -> str:
    p = tmp_path / "scenario.json"
    save_scenario(Scenario(system=system), p)
    return str(p)


def test_cli_validate_warns_on_an_all_zero_load(tmp_path, capsys):
    system = M.EnergySystem(M.TimeGrid((1.0, 1.0)), (M.Node("n", "e", (0.0, 0.0)),))
    path = _scenario_file(tmp_path, system)
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().out == (
        "warning DEGENERATE at nodes: no node carries a nonzero load; "
        "the problem is degenerate\n"
        f"{path}: valid (1 warnings)\n")


def test_cli_validate_and_run_print_a_costless_slack_warning(tmp_path, capsys):
    system = M.EnergySystem(
        M.TimeGrid((1.0,) * 4, (0, 0, 1, 1)),
        (M.Node("elec", "e", (2.0, 2.0, 5.0, 5.0)),),
        (M.Component("grid", M.SourceConversion("elec"),
                     M.CapacitySpec(optimizable=True, per_period=True),
                     costs=M.CostSpec(invest=50000.0, fuel=1.0)),))
    path = _scenario_file(tmp_path, system)
    warning = ("warning COSTLESS_SLACK at components[grid].costs.built: "
               "built capacity has no cost; its optimal value is arbitrary\n")
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().out == warning + f"{path}: valid (1 warnings)\n"
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == warning


def test_cli_run_reports_capacity_per_period(tmp_path, capsys):
    system = M.EnergySystem(
        M.TimeGrid((1.0,) * 4, (0, 0, 1, 1)),
        (M.Node("elec", "e", (2.0, 2.0, 5.0, 5.0)),),
        (M.Component("grid", M.SourceConversion("elec"),
                     M.CapacitySpec(optimizable=True, per_period=True),
                     # capacity dear enough that period 0 installs only its peak
                     costs=M.CostSpec(invest=50000.0, fuel=1.0, built=1.0)),))
    out = tmp_path / "out"
    assert cli.main(["run", _scenario_file(tmp_path, system), "--out", str(out)]) == 0
    capsys.readouterr()
    assert "  grid                     [2, 5] MW per period" in (
        out / "summary.txt").read_text()
    report = json.loads((out / "report.json").read_text())
    assert report["capacities_mw"]["grid"] == [2.0, 5.0]


def test_cli_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "no.json"
    p.write_text("{nope")
    assert cli.main(["validate", str(p)]) == EXIT_PARSE


def test_cli_run_writes_artifacts(tmp_path, capsys, scenario_dir):
    out = tmp_path / "artifacts"
    code = cli.main(["run", str(scenario_dir / "paper_system_48.json"),
                     "--out", str(out), "--export-lp"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "status: optimal" in printed
    # one capacity line per technology, battery reported in MWh
    for name in ("heat_pump", "gas_turbine", "chp", "pv", "battery"):
        assert name in printed
    for artifact in ("schedule.csv", "fill.csv", "summary.txt", "report.json",
                     "program.lp"):
        assert (out / artifact).exists(), artifact
    header = (out / "schedule.csv").read_text().splitlines()[0]
    assert header == "time,chp,gas_turbine,heat_pump,pv,chp.secondary"
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["passed"] is True
    assert len(report["schedules_mw"]["pv"]) == 48


def test_cli_outputs_are_byte_identical_across_runs(tmp_path, capsys, scenario_dir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(scenario_dir / "paper_system_48.json"),
                     "--out", str(out1)]) == 0
    assert cli.main(["run", str(scenario_dir / "paper_system_48.json"),
                     "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("schedule.csv", "fill.csv", "summary.txt", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_runs_with_lp_export_are_byte_identical(tmp_path, capsys, scenario_dir):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", str(scenario_dir / "commitment_demo.json"), "--out", str(out),
                         "--export-lp"]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    assert "program.lp" in outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("name, objective", [
    ("commitment_demo", 1944.0),
    ("paper_system_48", 79866.43973755669),
    ("paper_system", 261375.44914669532),
])
def test_shipped_scenarios_keep_their_optima(tmp_path, capsys, scenario_dir, name, objective):
    """The optimum of each shipped scenario, pinned: a change to the solver
    may return another optimal vertex, never another objective.  Exit 0
    means the verifier and the certificate both passed."""
    out = tmp_path / name
    assert cli.main(["run", str(scenario_dir / f"{name}.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["objective"] == pytest.approx(objective, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("flag", ["--verify", "--no-verify", "--seed"])
def test_run_has_no_verify_switch(tmp_path, capsys, scenario_dir, flag):
    """Every run is judged by verification and the certificate, and the
    solver draws no random numbers: none of these switches exists, so
    argparse rejects each with exit 2 before any run."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(scenario_dir / "paper_system_48.json"),
                  "--out", str(tmp_path / "out"), flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_zero_cap_gas_only_is_infeasible(tmp_path, capsys, scenario_dir):
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    doc["system"]["co2_cap"] = 0.0
    # strip the emission-free technologies so gas must serve the load
    doc["system"]["components"] = [
        c for c in doc["system"]["components"] if c["id"] in ("gas_turbine", "chp")]
    doc["system"]["storages"] = []
    p = tmp_path / "capped.json"
    p.write_text(json.dumps(doc))
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "infeasible" in capsys.readouterr().out


def test_cli_node_limit_exit_code(tmp_path, capsys):
    """A MILP stopped after one node exits 5 and persists the incumbent."""
    from enopt.scenario import scenario_to_dict
    from test_solver_milp import downtime_toy

    sys_ = downtime_toy()
    p = tmp_path / "toy.json"
    save = Scenario(system=sys_)
    p.write_text(json.dumps(scenario_to_dict(save), indent=2))
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out"),
                     "--max-nodes", "1"])
    out = capsys.readouterr().out
    if code == 5:
        assert "gap_limit" in out or "gap" in out
        assert (tmp_path / "out" / "summary.txt").exists()
    else:
        # the toy may solve at the root; then the limit never bites
        assert code == 0


def test_cli_node_limit_at_a_proven_optimum_exits_0(tmp_path, capsys):
    """The 48-step tile (15% noise, seed 5) run at its own node count: the
    open nodes left at the limit bound nothing below the incumbent, so the
    run is optimal and exits 0."""
    from conftest import tiled_commitment_doc
    from enopt.formulate import compile_system
    from enopt.solver import solve_milp

    doc = tiled_commitment_doc(48, 0.15, 5)
    nodes = solve_milp(compile_system(system_from_dict(doc["system"]))).nodes
    p = tmp_path / "tile.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out"),
                     "--max-nodes", str(nodes)]) == 0
    assert "status: optimal" in capsys.readouterr().out


def test_cli_iteration_limit_exit_code(tmp_path, capsys, scenario_dir):
    """An LP stopped by the iteration limit has no point to report: exit 5,
    and summary.txt is the only artifact."""
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario_dir / "paper_system_48.json"), "--out", str(out),
                     "--max-iterations", "30"]) == 5
    assert "status: iteration_limit" in capsys.readouterr().out
    assert [p.name for p in out.iterdir()] == ["summary.txt"]
    assert (out / "summary.txt").read_text() == (
        "status: iteration_limit\nmessage: simplex finished in phase 1\n")


def test_cli_commitment_demo_runs_through_branch_and_bound(tmp_path, capsys,
                                                           scenario_dir):
    out = tmp_path / "uc"
    assert cli.main(["run", str(scenario_dir / "commitment_demo.json"),
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "status: optimal" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["passed"] is True
    # on/off behaviour shows up as hours at exactly zero output
    base = report["schedules_mw"]["base_unit"]
    assert any(v == 0.0 for v in base) or all(v >= 4.0 for v in base)


def test_cli_plot_data_artifact(tmp_path, capsys, scenario_dir):
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    doc["outputs"]["plot_data"] = True
    p = tmp_path / "plot.json"
    p.write_text(json.dumps(doc))
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    plot = json.loads((tmp_path / "out" / "plot_data.json").read_text())
    assert len(plot["time_hours"]) == 48
    assert set(plot["loads"]) == {"electricity", "heat"}
    assert "pv" in plot["schedules"]


def test_cli_unknown_solver_option_is_schema_error(tmp_path, scenario_dir):
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    doc["solver"] = {"warp_speed": True}
    p = tmp_path / "warp.json"
    p.write_text(json.dumps(doc))
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA


def _variant(tmp_path, scenario_dir, section: str, value) -> str:
    """paper_system_48 with one top-level section replaced, and its sidecar."""
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    doc[section] = value
    p = tmp_path / "variant.json"
    p.write_text(json.dumps(doc))
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")
    return str(p)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("solver, where", [
    ({"mip_gap": -1}, "solver.mip_gap: mip_gap must be positive"),
    ({"mip_gap": "abc"}, "solver.mip_gap: expected int/float, got str"),
    ({"mip_gap": None}, "solver.mip_gap: expected int/float, got NoneType"),
    ({"mip_gap": float("nan")}, "solver.mip_gap: mip_gap must be positive"),
    ({"max_nodes": 1.5}, "solver.max_nodes: expected int, got float"),
    ({"warp_speed": True}, "solver.warp_speed: unknown solver option"),
    ({"max_nodes": True}, "solver.max_nodes: expected int, got bool"),
    ({"mip_gap": False}, "solver.mip_gap: expected int/float, got bool"),
    ({"max_nodes": -1}, "solver.max_nodes: max_nodes must not be negative"),
    ({"max_iterations": -5}, "solver.max_iterations: max_iterations must not be negative"),
    # the tolerances are constants of the solver, and no seed is drawn from
    ({"feasibility_tol": 1e-6}, "solver.feasibility_tol: unknown solver option"),
    ({"optimality_tol": 1e-7}, "solver.optimality_tol: unknown solver option"),
    ({"integrality_tol": 1e-5}, "solver.integrality_tol: unknown solver option"),
    ({"seed": 0}, "solver.seed: unknown solver option"),
], ids=["negative", "string", "null", "nan", "fractional_int", "unknown", "bool_int",
        "bool_float", "negative_nodes", "negative_iterations", "feasibility_tol",
        "optimality_tol", "integrality_tol", "seed"])
def test_bad_solver_value_is_schema_error(tmp_path, capsys, scenario_dir, command,
                                          solver, where):
    p = _variant(tmp_path, scenario_dir, "solver", solver)
    argv = [command, p] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert cli.main(argv) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: at {where}\n"


def test_bad_solver_override_on_the_command_line_is_schema_error(tmp_path, capsys,
                                                                 scenario_dir):
    code = cli.main(["run", str(scenario_dir / "paper_system_48.json"),
                     "--out", str(tmp_path / "out"), "--mip-gap", "-1"])
    assert code == EXIT_SCHEMA
    assert "at solver.mip_gap: mip_gap must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--max-nodes", "-1"), ("--max-iterations", "-5")])
def test_negative_limit_on_the_command_line_is_schema_error(tmp_path, capsys, scenario_dir,
                                                            flag, value):
    code = cli.main(["run", str(scenario_dir / "commitment_demo.json"),
                     "--out", str(tmp_path / "out"), flag, value])
    assert code == EXIT_SCHEMA
    key = flag[2:].replace("-", "_")
    assert f"at solver.{key}: {key} must not be negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_loosened_integrality_tolerance_is_schema_error(tmp_path, capsys, scenario_dir):
    # a loose tolerance would only yield a point the verifier rejects (exit 9)
    doc = json.loads((scenario_dir / "commitment_demo.json").read_text())
    doc["solver"]["integrality_tol"] = 0.4
    p = tmp_path / "loose.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert capsys.readouterr().err == "error: at solver.integrality_tol: unknown solver option\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module", ["enopt", "enopt.cli"])
def test_module_entry_points_run_without_warnings(capsys, scenario_dir, module):
    scenario = str(scenario_dir / "paper_system_48.json")
    assert cli.main(["validate", scenario]) == 0
    want = capsys.readouterr().out
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", module,
                           "validate", scenario], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("outputs, message", [
    ({"summary": "false"}, "at outputs: field 'summary' expected bool, got str"),
    ({"plot_data": 1}, "at outputs: field 'plot_data' expected bool, got int"),
    ({"pdf": True}, "at outputs: unknown keys: ['pdf']"),
], ids=["string", "int", "unknown"])
def test_bad_output_switch_is_schema_error(tmp_path, capsys, scenario_dir, command,
                                           outputs, message):
    p = _variant(tmp_path, scenario_dir, "outputs", outputs)
    argv = [command, p] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert cli.main(argv) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, accepted", [("_comment", True), ("outputz", False)])
def test_top_level_keeps_only_comment_free(tmp_path, capsys, scenario_dir, section, accepted):
    p = _variant(tmp_path, scenario_dir, section, {})
    if accepted:
        assert load_scenario(p).system.time.num_steps == 48
        return
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert err.value.exit_code == EXIT_SCHEMA
    assert cli.main(["validate", p]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: at <root>: unknown keys: ['{section}']\n"


def test_nan_load_fails_validation_naming_the_step(tmp_path, capsys, scenario_dir):
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    scn = load_scenario(scenario_dir / "paper_system_48.json")
    load = list(scn.system.node("electricity").load)
    load[3] = float("nan")
    node = next(n for n in doc["system"]["nodes"] if n["id"] == "electricity")
    node["load"] = load
    p = tmp_path / "nan_load.json"
    p.write_text(json.dumps(doc))  # json writes the bare NaN token
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")

    bad_system = system_from_dict(doc["system"], tmp_path)
    hits = [v for v in validate_system(bad_system) if v.code == "NOT_FINITE"]
    assert [v.where for v in hits] == ["nodes[electricity].load[3]"]

    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "nodes[electricity].load[3]" in capsys.readouterr().err


@pytest.mark.parametrize("field,change", [
    ("time.step_hours[5]", lambda system: system.update(
        time={"step_hours": [1.0] * 5 + [float("inf")] + [1.0] * 42})),
    ("co2_cap", lambda system: system.update(co2_cap=float("nan"))),
], ids=["inf_step", "nan_co2_cap"])
def test_non_finite_time_step_or_cap_exits_with_validation_code(
        tmp_path, capsys, scenario_dir, field, change):
    doc = json.loads((scenario_dir / "paper_system_48.json").read_text())
    change(doc["system"])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))  # json writes the bare Infinity/NaN token
    shutil.copy(scenario_dir / "series_48.csv", tmp_path / "series_48.csv")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert f"NOT_FINITE at {field}" in capsys.readouterr().err


def test_solver_failure_exits_with_solver_code(tmp_path, capsys, scenario_dir,
                                               monkeypatch):
    import enopt.solver.simplex

    def broken_splu(matrix, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(enopt.solver.simplex, "splu", broken_splu)
    code = cli.main(["run", str(scenario_dir / "paper_system_48.json"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SOLVER == 8
    assert "error: basis factorisation failed" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [
    pytest.param(1.5, id="True-9"),
    pytest.param(float("nan"), id="nan-True-9")])
def test_point_failing_verification_exits_with_verify_code(tmp_path, capsys, scenario_dir,
                                                           monkeypatch, scale):
    import dataclasses
    from enopt.solver import solve

    def perturbed_solve(prog, cfg):
        sol = solve(prog, cfg)
        return dataclasses.replace(sol, values=sol.values * scale)

    monkeypatch.setattr(cli, "solve", perturbed_solve)
    argv = ["run", str(scenario_dir / "paper_system_48.json"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_VERIFY == 9
    for name in ("schedule.csv", "fill.csv", "summary.txt", "report.json"):
        assert (tmp_path / "out" / name).is_file()

    def no_constants(token):
        raise ValueError(f"report.json holds the non-JSON token {token}")

    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=no_constants)
    assert report["verification"]["passed"] is False


@pytest.mark.parametrize("expected", [pytest.param(cli.EXIT_VERIFY, id="True-9")])
def test_point_failing_certificate_exits_with_verify_code(tmp_path, scenario_dir, monkeypatch,
                                                         expected):
    import dataclasses
    from enopt.solver import solve

    checked = []

    def perturbed_solve(prog, cfg):
        # the point is untouched, so verification passes; the duals are not
        sol = solve(prog, cfg)
        return dataclasses.replace(sol, duals=sol.duals + 1.0)

    def recording_check(prog, sol):
        report = check_certificate(prog, sol)
        checked.append(report)
        return report

    check_certificate = cli.certificate.check_certificate
    monkeypatch.setattr(cli, "solve", perturbed_solve)
    monkeypatch.setattr(cli.certificate, "check_certificate", recording_check)
    argv = ["run", str(scenario_dir / "paper_system_48.json"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == expected
    assert [r.ok for r in checked] == [False]
    for name in ("schedule.csv", "fill.csv", "summary.txt", "report.json"):
        assert (tmp_path / "out" / name).is_file()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verification"]["passed"] is True

