#!/usr/bin/env python3
"""enopt benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lp_horizon --seed 1 --seconds 15 --trace 0

The run sets up (imports enopt, generates the seeded inputs, warms up),
then starts instances of the workload for ``--seconds``, at least one per
input in the pool.  Every instance is checked: it fails if it
raises, if verify_solution or check_certificate rejects its answer, if its
status or objective disagrees with scipy's HiGHS on the same standardized
program, or if a repeat of the same input does not reproduce its iteration
and node counts, row count, objective bits and program fingerprint exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
instance twice back to back, untraced then traced, and reports the per-layer
metrics from the traced half.  All metrics are printed by name and unit; the
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details, and the spans of a
traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NEEDED = ("src/enopt/__init__.py", "scripts/make_series.py",
          "scenarios/paper_system.json", "scenarios/commitment_demo.json")

WORKLOAD_NAMES = ("lp_horizon", "milp_commitment", "batch_day", "model_build_year")
SETUP_REPEATS = 3
# Objective agreement with HiGHS, relative to max(1, |objective|).  A MILP
# may stop anywhere within the solver's default relative gap of 1e-6.
OBJECTIVE_TOL_LP = 1e-9
OBJECTIVE_TOL_MILP = 1e-6
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Instance cost is reported in multiples of the host reference kernel's
# time (unit "ref"), so that host speed cancels out; the wall-clock
# instance_s_p50 and steps_per_s are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "instance_ref_p50": "ref",
    "steps_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
# The reference kernel runs REF_REPEATS times before the first instance,
# after the last, and between instances whenever REF_EVERY_S have passed
# since it last ran.
REF_EVERY_S = 1.0
REF_REPEATS = 3

PER_LAYER = {
    "instance_s_p50": "s",
    "steps_per_s": "1/s",
    "simplex.solves": "count",
    "simplex.iterations": "count",
    "simplex.s": "s",
    "simplex.s_per_iteration": "s",
    "simplex.lu_factorizations": "count",
    "simplex.lu_s": "s",
    "bb.nodes": "count",
    "bb.node_lps": "count",
    "bb.iterations_per_node": "count",
    "bb.infeasible_node_share": "share",
    "bb.self_s": "s",
    "formulate.compile_s": "s",
    "formulate.rows": "count",
    "formulate.vars": "count",
    "formulate.nnz": "count",
    "formulate.rows.EQ1": "count",
    "formulate.rows.EQ16": "count",
    "formulate.rows.EQ17": "count",
    "formulate.write_lp_s": "s",
    "formulate.lp_bytes": "B",
    "formulate.fingerprint_s": "s",
    "standard.standardize_s": "s",
    "scenario.load_s": "s",
    "scenario.bytes_read": "B",
    "model.validate_s": "s",
    "model.validate_calls": "count",
    "certificate.s": "s",
    "analyze.report_s": "s",
    "analyze.verify_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "reference.highs_s": "s",
    "reference.obj_rel_err_max": "share",
    "trace.overhead_s": "s",
    "trace.wrapper_s": "s",
    "self_s.bench": "s",
    "self_s.formulate": "s",
    "self_s.solver.simplex": "s",
    "self_s.analyze": "s",
}
# Layers whose self time no metric above already gives: with scenario.load_s,
# model.validate_s, standard.standardize_s, bb.self_s, certificate.s and
# cli.self_s they sum to the mean traced instance time.
SELF_S_LAYERS = ("bench", "formulate", "solver.simplex", "analyze")


@dataclass
class Record:
    """One instance: which input, whether traced, its wall time, and the
    problems found with its outputs."""

    draw: int
    traced: bool
    seconds: float
    steps: int
    ref_s: float = math.nan  # host reference kernel time around the instance
    problems: list[str] = field(default_factory=list)


@dataclass
class Draw:
    """What the first good instance of one pool input produced."""

    signature: tuple
    counts: dict
    sizes: dict
    solution: tuple | None  # (prog, sol) kept for the HiGHS check
    problems: list[str] = field(default_factory=list)
    highs_s: float = 0.0
    rel_err: float = 0.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def tail(times: list[float]):
    """(percentile, value, samples beyond) at the highest listed percentile
    with at least TAIL_BEYOND samples beyond it, or None."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return None


def run_instance(workload, item, index: int, tracer):
    """Time one instance; an exception is the instance's failure."""
    if tracer is not None:
        tracer.install()
        tracer.open(index)
    start = time.perf_counter()
    try:
        outcome, error = workload.run(item), None
    except Exception:  # noqa: BLE001 - a raising instance is a failed instance
        outcome, error = None, traceback.format_exc(limit=4)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close()
            tracer.uninstall()
    return outcome, error, seconds


def measure(workload, pool, seconds: float, tracer):
    """Run instances for ``seconds`` and until every pool input has run,
    timing the host reference kernel between them; check each instance
    outside the timed region."""
    from hostspeed import reference_kernel

    records: list[Record] = []
    draws: dict[int, Draw] = {}
    ref_times: list[float] = []
    pending: list[Record] = []  # instances since the kernel last ran

    def time_kernel() -> float:
        """Run the kernel; the instances since its last run get the median
        of its runs just before and just after them."""
        before = max(len(ref_times) - REF_REPEATS, 0)
        ref_times.extend(reference_kernel() for _ in range(REF_REPEATS))
        for rec in pending:
            rec.ref_s = statistics.median(ref_times[before:])
        pending.clear()
        return time.perf_counter()

    start = last_ref = time_kernel()
    slot = 0
    # start another instance while it would end, by the median so far,
    # within half an instance of the deadline; so the measured time averages
    # ``seconds`` whatever an instance takes
    while slot < len(pool) or time.perf_counter() - start + 0.5 * statistics.median(
            r.seconds for r in records) < seconds:
        draw = slot % len(pool)
        item = pool[draw]
        for traced in ((False, True) if tracer is not None else (False,)):
            outcome, error, wall = run_instance(workload, item, len(records),
                                                tracer if traced else None)
            rec = Record(draw, traced, wall, workload.steps(item))
            records.append(rec)
            pending.append(rec)
            if outcome is None:
                rec.problems.append(error)
                continue
            rec.problems.extend(outcome.problems)
            sig = workload.signature(outcome)
            first = draws.get(draw)
            if first is None:
                draws[draw] = Draw(
                    sig, workload.counts(outcome), workload.sizes(item),
                    (outcome.prog, outcome.sol) if workload.solves else None,
                    workload.check(item, outcome))
            elif sig != first.signature:
                rec.problems.append(f"determinism drift on input {draw}: "
                                    f"{first.signature} then {sig}")
            del outcome
        slot += 1
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            last_ref = time_kernel()
    if pending:
        time_kernel()
    return records, draws, ref_times


def check_against_highs(draws: dict[int, Draw]) -> None:
    from enopt.solver.standard import standardize
    from reference import highs_solve, relative_error

    for d in draws.values():
        prog, sol = d.solution
        status, objective, d.highs_s = highs_solve(standardize(prog))
        if status != sol.status.value:
            d.problems.append(f"status {sol.status.value}, HiGHS says {status}")
        elif status == "optimal":
            d.rel_err = relative_error(sol.objective, objective)
            tol = OBJECTIVE_TOL_MILP if any(prog.is_integer) else OBJECTIVE_TOL_LP
            if d.rel_err > tol:
                d.problems.append(f"objective {sol.objective!r}, HiGHS {objective!r} "
                                  f"(relative error {d.rel_err:.2e})")
        d.solution = None


def wall_metrics(records) -> dict[str, float]:
    """Wall-clock instance time and throughput of the untraced instances."""
    untraced = [r for r in records if not r.traced]
    times = [r.seconds for r in untraced]
    return {"instance_s_p50": statistics.median(times),
            "steps_per_s": sum(r.steps for r in untraced) / sum(times)}


def end_to_end_metrics(records, setup_s, peak_rss_mb):
    """Each instance's time in multiples of the reference kernel timed
    nearest before it."""
    untraced = [r for r in records if not r.traced]
    refs = [r.seconds / r.ref_s for r in untraced]
    return {
        "setup_s": setup_s,
        "instance_ref_p50": statistics.median(refs),
        "steps_per_ref": sum(r.steps for r in untraced) / sum(refs),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(records, draws, spans, wall):
    import tracer as tracer_mod

    agg = tracer_mod.per_instance(spans)
    traced = [i for i, r in enumerate(records) if r.traced]
    first_traced = {}
    for i in traced:
        first_traced.setdefault(records[i].draw, i)
    per_draw = [agg[i] for i in first_traced.values()]
    per_run = [agg[i] for i in traced]

    def time_mean(fn):
        return statistics.fmean(fn(a) for a in per_run)

    def count_mean(fn):
        return statistics.fmean(fn(a) for a in per_draw)

    def incl(name):
        return time_mean(lambda a: a["incl"][name])

    def own(name):
        return time_mean(lambda a: a["self"][name])

    def calls(name):
        return count_mean(lambda a: a["calls"][name])

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = sum(a["iterations"] for a in per_run)
    bb_lps = sum(a["bb_lps"] for a in per_draw)
    counts = [d.counts for d in draws.values()] or [{}]
    sizes = [d.sizes for d in draws.values()] or [{}]
    traced_times = [records[i].seconds for i in traced]
    untraced_times = [r.seconds for r in records if not r.traced]
    wrapped_calls = time_mean(lambda a: sum(a["calls"].values()) - 1)

    m = {
        **wall,
        "simplex.solves": calls("simplex.solve"),
        "simplex.iterations": count_mean(lambda a: a["iterations"]),
        "simplex.s": incl("simplex.solve"),
        "simplex.s_per_iteration": ratio(sum(a["incl"]["simplex.solve"] for a in per_run),
                                         iterations),
        "simplex.lu_factorizations": calls("simplex.lu"),
        "simplex.lu_s": incl("simplex.lu"),
        "bb.nodes": count_mean(lambda a: a["bb_nodes"]),
        "bb.node_lps": count_mean(lambda a: a["bb_lps"]),
        "bb.iterations_per_node": ratio(sum(a["bb_iterations"] for a in per_draw), bb_lps),
        "bb.infeasible_node_share": ratio(sum(a["bb_infeasible"] for a in per_draw), bb_lps),
        "bb.self_s": own("bb.solve_milp"),
        "formulate.compile_s": own("formulate.compile"),
        "formulate.write_lp_s": incl("formulate.write_lp"),
        "formulate.lp_bytes": statistics.fmean(s.get("lp", 0) for s in sizes),
        "formulate.fingerprint_s": incl("formulate.fingerprint"),
        "standard.standardize_s": incl("standard.standardize"),
        "scenario.load_s": own("scenario.load"),
        "scenario.bytes_read": statistics.fmean(s.get("read", 0) for s in sizes),
        "model.validate_s": incl("model.validate"),
        "model.validate_calls": calls("model.validate"),
        "certificate.s": incl("certificate.check"),
        "analyze.report_s": own("analyze.report"),
        "analyze.verify_s": incl("analyze.verify"),
        "cli.self_s": own("cli.run"),
        "cli.bytes_written": statistics.fmean(s.get("written", 0) for s in sizes),
        "reference.highs_s": statistics.fmean(d.highs_s for d in draws.values()) if draws else 0.0,
        "reference.obj_rel_err_max": max((d.rel_err for d in draws.values()), default=0.0),
        "trace.overhead_s": statistics.median(traced_times) - statistics.median(untraced_times),
        "trace.wrapper_s": wrapped_calls * tracer_mod.wrapper_cost(),
    }
    for key in ("rows", "vars", "nnz", "rows.EQ1", "rows.EQ16", "rows.EQ17"):
        m[f"formulate.{key}"] = statistics.fmean(c.get(key, 0) for c in counts)
    for layer in SELF_S_LAYERS:
        m[f"self_s.{layer}"] = time_mean(lambda a: a["layer"][layer])
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: the benchmark needs the enopt sources; missing {missing}",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import_start = time.perf_counter()
    import enopt  # noqa: F401 - timed as part of set-up
    import_s = time.perf_counter() - import_start

    import tracer as tracer_mod
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            pool, warm = workload.prepare(args.seed, workdir)
            workload.run(warm)
            setup_runs.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_runs)

        tracer = tracer_mod.Tracer() if args.trace else None
        records, draws, ref_times = measure(workload, pool, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload.solves:
            check_against_highs(draws)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for rec in records:
        d = draws.get(rec.draw)
        if d is not None:
            rec.problems.extend(d.problems)
    failed = [r for r in records if r.problems]

    wall = wall_metrics(records)
    ref_s = statistics.median(ref_times)
    if args.trace:
        spans = tracer.spans
        metrics = per_layer_metrics(records, draws, spans, wall)
        units = PER_LAYER
    else:
        spans = []
        metrics = end_to_end_metrics(records, setup_s, peak_rss_mb)
        units = END_TO_END
    untraced_times = [r.seconds for r in records if not r.traced]
    tail_at = tail(untraced_times)
    digest = hashlib.sha256(repr(sorted((k, d.signature) for k, d in draws.items()))
                            .encode()).hexdigest()

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"inputs {len(pool)}  instances {len(records)}")
    print(f"  set-up runs (s): {', '.join(f'{t:.4f}' for t in setup_runs)}  "
          f"import {import_s:.4f} s")
    print(f"  host reference kernel: median {ref_s:.6f} s over {len(ref_times)} runs (1 ref)")
    if not args.trace:
        for name, value in wall.items():
            print(f"  {name} = {value!r} {PER_LAYER[name]} (wall clock)")
    if tail_at is None:
        print(f"  instance_s_tail: omitted, {len(untraced_times)} samples are too few")
    else:
        pct, value, beyond = tail_at
        print(f"  instance_s_tail: p{pct:g} = {value:.6f} s "
              f"({len(untraced_times)} samples, {beyond} beyond)")
    if args.trace:
        traced_times = [r.seconds for r in records if r.traced]
        print(f"  traced instances: mean {statistics.fmean(traced_times):.6f} s (the sum of "
              f"all layers' self times), median {statistics.median(traced_times):.6f} s; "
              f"untraced median {statistics.median(untraced_times):.6f} s")
    print(f"  failed_share: {len(failed)}/{len(records)}")
    print(f"  determinism digest: {digest}")
    for rec in failed[:5]:
        print(f"  FAILED input {rec.draw}: {' | '.join(rec.problems)}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]!r} {unit}")

    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "metrics": metrics, "wall": wall, "ref_s": ref_s, "ref_times": ref_times,
        "tail": tail_at, "digest": digest,
        "inputs": {k: d.signature for k, d in draws.items()},
        "instances": [vars(r) for r in records],
        "spans": [tuple(s) for s in spans],
    }, default=str))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
