"""Command line interface: validate scenarios, report dimensions, run them.

Exit codes: 0 optimal, 2 parse error, 3 infeasible, 4 unbounded, 5 gap or
iteration/node limit, 6 schema mismatch, 7 validation failure (or, with an
LP export, two ids that become one LP name), 8 solver failure (numerical
breakdown), 9 the returned point failed the independent verification or its
optimality certificate (artifacts are still written).
Output files are byte-identical across runs of the same scenario: the
solver draws no random numbers.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import analyze, formulate, scenario as scenario_mod
from .model import system_dimensions, validate_system
from .scenario import Scenario, ScenarioError, load_scenario
from .solver import SolverError, Status, certificate, solve
from .solver.core import FEASIBILITY_TOL

log = logging.getLogger("enopt")

EXIT_OPTIMAL = 0
EXIT_INFEASIBLE = 3
EXIT_UNBOUNDED = 4
EXIT_LIMIT = 5
EXIT_SOLVER = 8
EXIT_VERIFY = 9

_STATUS_EXIT = {
    Status.OPTIMAL: EXIT_OPTIMAL,
    Status.INFEASIBLE: EXIT_INFEASIBLE,
    Status.UNBOUNDED: EXIT_UNBOUNDED,
    Status.GAP_LIMIT: EXIT_LIMIT,
    Status.ITERATION_LIMIT: EXIT_LIMIT,
}


def _fmt(value: float) -> str:
    return f"{value + 0.0:.10g}"


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray],
               times: np.ndarray) -> None:
    lines = [",".join(["time"] + header)]
    for t in range(len(times)):
        cells = [_fmt(times[t])] + [_fmt(col[t]) for col in columns]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _schedule_csv(report, sys, path: Path) -> None:
    times = np.cumsum(np.array(sys.time.step_hours)) - np.array(sys.time.step_hours)
    header, columns = [], []
    for cid in sorted(report.schedules):
        header.append(cid)
        columns.append(report.schedules[cid])
    for cid in sorted(report.secondary_outputs):
        header.append(f"{cid}.secondary")
        columns.append(report.secondary_outputs[cid])
    _write_csv(path, header, columns, times)


def _fill_csv(report, sys, path: Path) -> None:
    times = np.cumsum(np.array(sys.time.step_hours)) - np.array(sys.time.step_hours)
    header, columns = [], []
    for sid in sorted(report.storage_fill):
        for suffix, series in (("charge", report.storage_charge[sid]),
                               ("discharge", report.storage_discharge[sid]),
                               ("fill", report.storage_fill[sid])):
            header.append(f"{sid}.{suffix}")
            columns.append(series)
    _write_csv(path, header, columns, times)


def format_summary(report, sys) -> str:
    lines = [f"status: {report.status}",
             f"objective: {_fmt(report.objective)} EUR",
             f"bound: {_fmt(report.bound)} EUR (gap {report.gap:.3e})",
             "",
             "installed capacity"]
    for cid in sorted(report.capacities):
        cap = report.capacities[cid]
        factor = report.capacity_factors.get(cid, 0.0)
        if isinstance(cap, tuple):
            caps = ", ".join(_fmt(c) for c in cap)
            lines.append(f"  {cid:<24} [{caps}] MW per period"
                         f"  (capacity factor {factor:.3f})")
        else:
            lines.append(f"  {cid:<24} {_fmt(cap)} MW  (capacity factor {factor:.3f})")
    for sid in sorted(report.storage_capacities):
        lines.append(f"  {sid:<24} {_fmt(report.storage_capacities[sid])} MWh")
    lines.append("")
    lines.append("cost breakdown (EUR)")
    for cat in analyze.COST_CATEGORIES:
        lines.append(f"  {cat:<12} {_fmt(report.cost_breakdown[cat])}")
    lines.append(f"  {'total':<12} {_fmt(report.breakdown_total)}")
    lines.append("")
    lines.append(f"emissions: {_fmt(report.emissions_kg)} kg CO2")
    lines.extend(report.residuals.summary_lines())
    return "\n".join(lines) + "\n"


def _null_if_not_finite(value):
    if isinstance(value, dict):
        return {k: _null_if_not_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_if_not_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json_text(doc: dict) -> str:
    """Strict JSON: a non-finite number (a NaN point, an infinite gap) is
    written as null, never as a bare ``NaN`` or ``Infinity`` token."""
    return json.dumps(_null_if_not_finite(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _report_json(report, sys) -> str:
    doc = {
        "status": report.status,
        "objective": report.objective,
        "bound": report.bound,
        "gap": report.gap,
        "capacities_mw": {k: (list(v) if isinstance(v, tuple) else v)
                          for k, v in report.capacities.items()},
        "storage_capacities_mwh": report.storage_capacities,
        "unit_counts": report.unit_counts,
        "cost_breakdown_eur": report.cost_breakdown,
        "cost_total_eur": report.breakdown_total,
        "emissions_kg": report.emissions_kg,
        "capacity_factors": report.capacity_factors,
        "output_variance": report.output_variance,
        "schedules_mw": {k: list(v) for k, v in report.schedules.items()},
        "secondary_outputs_mw": {k: list(v) for k, v in report.secondary_outputs.items()},
        "storage_fill_mwh": {k: list(v) for k, v in report.storage_fill.items()},
        "verification": {
            "passed": report.residuals.passed,
            "tolerance": FEASIBILITY_TOL,
            "families": {f.family: {"residual": f.residual, "checks": f.checks}
                         for f in report.residuals.families},
        },
    }
    return _json_text(doc)


def _plot_data_json(report, sys) -> str:
    times = np.cumsum(np.array(sys.time.step_hours)) - np.array(sys.time.step_hours)
    doc = {
        "time_hours": list(times),
        "loads": {n.id: list(n.load) for n in sys.balanced_nodes()},
        "schedules": {k: list(v) for k, v in report.schedules.items()},
        "storage_fill": {k: list(v) for k, v in report.storage_fill.items()},
    }
    return _json_text(doc)


def run(scn: Scenario, out_dir, *, solver_overrides: dict | None = None,
        export_lp: bool = False):
    """Compile, solve and write the requested artifacts.

    A point that fails ``analyze.verify_solution`` or, for an optimal
    solve, ``check_certificate`` turns the exit code into ``EXIT_VERIFY``;
    the artifacts are written either way.

    Returns (report_or_None, solution, exit_code).
    """
    cfg = scenario_mod.solver_config({**scn.solver, **(solver_overrides or {})})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    prog = formulate.compile_system(scn.system)
    log.info("compiled %d variables, %d rows", prog.num_vars, prog.num_rows)
    if export_lp or scn.outputs.lp_export:
        try:
            formulate.write_lp(prog, out / "program.lp")
        except ValueError as exc:  # two ids meet as LP names; nothing is written
            raise ScenarioError(f"LP export: {exc}", scenario_mod.EXIT_VALIDATION) from exc
    sol = solve(prog, cfg)
    log.info("solver finished: %s (objective %s)", sol.status.value, sol.objective)
    exit_code = _STATUS_EXIT[sol.status]

    try:
        report = analyze.extract_report(scn.system, prog, sol)
    except analyze.NoSolutionError:
        (out / "summary.txt").write_text(
            f"status: {sol.status.value}\nmessage: {sol.message}\n")
        return None, sol, exit_code
    if scn.outputs.schedule_csv:
        _schedule_csv(report, scn.system, out / "schedule.csv")
    if scn.outputs.fill_csv:
        _fill_csv(report, scn.system, out / "fill.csv")
    if scn.outputs.summary:
        (out / "summary.txt").write_text(format_summary(report, scn.system))
    if scn.outputs.report_json:
        (out / "report.json").write_text(_report_json(report, scn.system))
    if scn.outputs.plot_data:
        (out / "plot_data.json").write_text(_plot_data_json(report, scn.system))
    if not report.residuals.passed:
        log.warning("verification failed: %s", report.residuals.summary_lines()[0])
        exit_code = EXIT_VERIFY
    if sol.status == Status.OPTIMAL:
        cert = certificate.check_certificate(prog, sol)
        if not cert.ok:
            log.warning("%s", cert)
            exit_code = EXIT_VERIFY
    return report, sol, exit_code


def _cmd_validate(args) -> int:
    scn = load_scenario(args.scenario)  # raises with exit codes on failure
    report = validate_system(scn.system)
    for v in report.warnings:
        print(f"warning {v.code} at {v.where}: {v.message}")
    print(f"{args.scenario}: valid ({len(report.warnings)} warnings)")
    return 0


def _cmd_dimensions(args) -> int:
    scn = load_scenario(args.scenario)
    dims = system_dimensions(scn.system)
    print(f"steps: {dims.num_steps}")
    print(f"nodes: {dims.num_nodes}")
    print(f"components: {dims.num_components}")
    print(f"storages: {dims.num_storages}")
    print(f"periods: {dims.num_periods}")
    return 0


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    overrides: dict = {}
    if args.mip_gap is not None:
        overrides["mip_gap"] = args.mip_gap
    if args.max_nodes is not None:
        overrides["max_nodes"] = args.max_nodes
    if args.max_iterations is not None:
        overrides["max_iterations"] = args.max_iterations
    out_dir = args.out or f"{Path(args.scenario).stem}_out"
    report, sol, code = run(scn, out_dir, solver_overrides=overrides,
                            export_lp=args.export_lp)
    if report is not None:
        print(format_summary(report, scn.system), end="")
    else:
        print(f"status: {sol.status.value}")
        print(f"message: {sol.message}")
    print(f"artifacts written to {out_dir}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enopt",
        description="Energy-system optimisation with a built-in exact LP/MILP solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile, solve and write artifacts")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", help="output directory (default: <scenario>_out)")
    p_run.add_argument("--mip-gap", type=float, dest="mip_gap",
                       help="relative bound gap at which branch and bound stops")
    p_run.add_argument("--max-nodes", type=int, dest="max_nodes",
                       help="branch-and-bound node limit")
    p_run.add_argument("--max-iterations", type=int, dest="max_iterations",
                       help="simplex iteration limit")
    p_run.add_argument("--export-lp", action="store_true",
                       help="write the compiled program in LP text format")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and validate a scenario")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=_cmd_validate)

    p_dim = sub.add_parser("dimensions", help="print scenario dimensions")
    p_dim.add_argument("scenario")
    p_dim.set_defaults(func=_cmd_dimensions)

    args = parser.parse_args(argv)
    logging.basicConfig(level=os.environ.get("ENOPT_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return exc.exit_code
    except SolverError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
