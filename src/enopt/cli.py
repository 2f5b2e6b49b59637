"""Command line interface: validate scenarios, report dimensions, run them.

Exit codes: 0 optimal, 2 parse error, 3 infeasible, 4 unbounded, 5 gap or
iteration/node limit, 6 schema mismatch, 7 validation failure (or, with an
LP export, two ids that become one LP name), 8 solver failure (numerical
breakdown), 9 the returned point failed the independent verification or its
optimality certificate (artifacts are still written).
Output files are byte-identical across runs of the same scenario: the
solver draws no random numbers.  The artifact writers make each file in one
pass and give the bytes of the standard-library writers before them:
``report.json`` and ``plot_data.json`` are what ``json.dumps(doc, indent=2,
sort_keys=True, allow_nan=False)`` writes once each non-finite number is
None (``_json_value``), from Python floats, so CPython's pure-Python encoder
(which ``indent`` selects) is not used; a CSV file's cells are all
formatted by ``%.10g`` from one list of Python floats (``_write_csv``).
A file already in the output directory is rewritten in place
(``model.write_text``, which the LP export and ``save_scenario`` share).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import analyze, formulate, scenario as scenario_mod
from .model import system_dimensions, validate_system, write_text
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
    """One line per step: its start time, then each column's value, each
    cell written as ``_fmt`` writes it.  The cells are formatted in one pass
    over one list of Python floats (adding 0.0 there too turns -0.0 into
    0.0), then cut into columns and joined row by row."""
    n = len(times)
    cells = list(map("{:.10g}".format,
                     (np.concatenate([times, *columns], dtype=float) + 0.0).tolist()))
    lines = [",".join(["time"] + header),
             *map(",".join, zip(*[cells[k * n:(k + 1) * n] for k in range(len(columns) + 1)]))]
    write_text(path, ("\n".join(lines) + "\n",))


def _schedule_csv(report, times: np.ndarray, path: Path) -> None:
    header, columns = [], []
    for cid in sorted(report.schedules):
        header.append(cid)
        columns.append(report.schedules[cid])
    for cid in sorted(report.secondary_outputs):
        header.append(f"{cid}.secondary")
        columns.append(report.secondary_outputs[cid])
    _write_csv(path, header, columns, times)


def _fill_csv(report, times: np.ndarray, path: Path) -> None:
    header, columns = [], []
    for sid in sorted(report.storage_fill):
        for suffix, series in (("charge", report.storage_charge[sid]),
                               ("discharge", report.storage_discharge[sid]),
                               ("fill", report.storage_fill[sid])):
            header.append(f"{sid}.{suffix}")
            columns.append(series)
    _write_csv(path, header, columns, times)


def format_summary(report) -> str:
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


def _json_value(value, pad: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it
    at the nesting whose indent is ``pad``, except that a non-finite float
    is ``null``: ``float.__repr__`` for a float, ``int.__repr__`` for an
    int, ``encode_basestring_ascii`` for a string or a key (keys must be
    strings).  A float, the commonest value, is tested first, and a list
    or tuple of Python floats is joined in one pass."""
    kind = type(value)
    if kind is float:
        return float.__repr__(value) if math.isfinite(value) else "null"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        encode = json.encoder.encode_basestring_ascii
        body = sep.join([f"{encode(key)}: {_json_value(value[key], inner)}"
                         for key in sorted(value)])
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = None
        if all([type(v) is float for v in value]):
            body = sep.join(map(float.__repr__, value))
            if "n" in body:  # "nan", "inf" or "-inf": no finite repr has an n
                body = None
        if body is None:
            body = sep.join([_json_value(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(doc: dict) -> str:
    """Strict JSON: a non-finite number (a NaN point, an infinite gap) is
    written as null, never as a bare ``NaN`` or ``Infinity`` token."""
    return _json_value(doc) + "\n"


def _report_json(report) -> str:
    doc = {
        "status": report.status,
        "objective": report.objective,
        "bound": report.bound,
        "gap": report.gap,
        "capacities_mw": report.capacities,  # a per-period tuple is written as a list
        "storage_capacities_mwh": report.storage_capacities,
        "unit_counts": report.unit_counts,
        "cost_breakdown_eur": report.cost_breakdown,
        "cost_total_eur": report.breakdown_total,
        "emissions_kg": report.emissions_kg,
        "capacity_factors": report.capacity_factors,
        "output_variance": report.output_variance,
        "schedules_mw": {k: v.tolist() for k, v in report.schedules.items()},
        "secondary_outputs_mw": {k: v.tolist() for k, v in report.secondary_outputs.items()},
        "storage_fill_mwh": {k: v.tolist() for k, v in report.storage_fill.items()},
        "verification": {
            "passed": report.residuals.passed,
            "tolerance": FEASIBILITY_TOL,
            "families": {f.family: {"residual": f.residual, "checks": f.checks}
                         for f in report.residuals.families},
        },
    }
    return _json_text(doc)


def _plot_data_json(report, sys, times: np.ndarray) -> str:
    doc = {
        "time_hours": times.tolist(),
        "loads": {n.id: n.load for n in sys.balanced_nodes()},
        "schedules": {k: v.tolist() for k, v in report.schedules.items()},
        "storage_fill": {k: v.tolist() for k, v in report.storage_fill.items()},
    }
    return _json_text(doc)


def _no_solution_text(sol) -> str:
    return f"status: {sol.status.value}\nmessage: {sol.message}\n"


def run(scn: Scenario, out_dir):
    """Compile, solve and write the artifacts the scenario's outputs request,
    with its solver settings.

    A point that fails ``analyze.verify_solution`` or, for an optimal
    solve, ``check_certificate`` turns the exit code into ``EXIT_VERIFY``;
    the artifacts are written either way.

    Returns (report_or_None, solution, exit_code).
    """
    cfg = scenario_mod.solver_config(scn.solver)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    prog = formulate.compile_system(scn.system)
    log.info("compiled %d variables, %d rows", prog.num_vars, prog.num_rows)
    if scn.outputs.lp_export:
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
        write_text(out / "summary.txt", (_no_solution_text(sol),))
        return None, sol, exit_code
    step_hours = np.array(scn.system.time.step_hours)
    times = np.cumsum(step_hours) - step_hours  # the start of each step
    if scn.outputs.schedule_csv:
        _schedule_csv(report, times, out / "schedule.csv")
    if scn.outputs.fill_csv:
        _fill_csv(report, times, out / "fill.csv")
    if scn.outputs.summary:
        write_text(out / "summary.txt", (format_summary(report),))
    if scn.outputs.report_json:
        write_text(out / "report.json", (_report_json(report),))
    if scn.outputs.plot_data:
        write_text(out / "plot_data.json", (_plot_data_json(report, scn.system, times),))
    if not report.residuals.passed:
        log.warning("verification failed: %s", report.residuals.summary_lines()[0])
        exit_code = EXIT_VERIFY
    if sol.status == Status.OPTIMAL:
        cert = certificate.check_certificate(prog, sol)
        if not cert.ok:
            log.warning("%s", cert)
            exit_code = EXIT_VERIFY
    return report, sol, exit_code


def _print_warnings(scn: Scenario, file=None) -> int:
    """Print the scenario's validation warnings; returns their number."""
    report = validate_system(scn.system)
    for v in report.warnings:
        print(f"warning {v.code} at {v.where}: {v.message}", file=file)
    return len(report.warnings)


def _cmd_validate(args) -> int:
    scn = load_scenario(args.scenario)  # raises with exit codes on failure
    count = _print_warnings(scn)
    print(f"{args.scenario}: valid ({count} warnings)")
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
    """Run the scenario with the command line's options folded into it,
    after printing its validation warnings on stderr."""
    scn = load_scenario(args.scenario)
    _print_warnings(scn, _sys.stderr)
    overrides = {key: getattr(args, key) for key in ("mip_gap", "max_nodes", "max_iterations")
                 if getattr(args, key) is not None}
    outputs = dataclasses.replace(scn.outputs, lp_export=scn.outputs.lp_export or args.export_lp)
    scn = dataclasses.replace(scn, solver={**scn.solver, **overrides}, outputs=outputs)
    out_dir = args.out or f"{Path(args.scenario).stem}_out"
    report, sol, code = run(scn, out_dir)
    print(format_summary(report) if report is not None else _no_solution_text(sol), end="")
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
