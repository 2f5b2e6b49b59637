"""The benchmark's four seeded workloads.

Each workload turns a seed into a pool of inputs (the package sees only these
generated inputs), names the pipeline one instance runs, and says how to
check an instance's outputs outside the timed region.  Calls into the
package go through module attributes (``formulate.compile_system(...)``), so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from enopt import analyze, cli, formulate, scenario
from enopt.solver import branch_bound, certificate, standard
from enopt.solver.core import Status

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# Row families reported one by one: capacity limits and the ramp pair, the
# bound-shaped rows an array-backed program would turn into bounds.
REPORTED_FAMILIES = ("EQ1", "EQ16", "EQ17")


def _make_series():
    """``scripts/make_series.py``, imported from its file without editing it."""
    path = ROOT / "scripts" / "make_series.py"
    spec = importlib.util.spec_from_file_location("make_series", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _base_doc(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def _floats(values) -> list[float]:
    # six decimals, as the shipped series files carry
    return [round(float(v), 6) for v in values]


def paper_system_doc(steps: int, rng, make_series) -> dict:
    """``paper_system`` on a horizon of ``steps`` hours with series from
    ``make_series.build(steps, rng)``."""
    doc = _base_doc("paper_system")
    series = make_series.build(steps, rng)
    system = doc["system"]
    system["time"] = {"count": steps, "hours": 1.0}
    nodes = {n["id"]: n for n in system["nodes"]}
    nodes["electricity"]["load"] = _floats(series["load_electricity"])
    nodes["heat"]["load"] = _floats(series["load_heat"])
    comps = {c["id"]: c for c in system["components"]}
    comps["pv"]["capacity"]["availability"] = _floats(series["availability_pv"])
    return doc


def commitment_doc(rng, steps: int = 12, noise: float = 0.01) -> dict:
    """A variant of ``commitment_demo``: its load and wind profiles with 1%
    seeded noise.

    Feasible by construction: with both units on (4 + 2 MW minimum, 10 + 8 MW
    maximum) and curtailable wind, any load in [6, 18] MW is met, and the load
    is clipped to that range.  The noise is small because the branch-and-bound
    tree size is chaotic in the inputs: at 3% noise the median instance time
    of an 8-draw pool moved by ~10% between seeds, at 1% by ~3%."""
    doc = _base_doc("commitment_demo")
    system = doc["system"]
    system["time"] = {"count": steps, "hours": 1.0}
    node = next(n for n in system["nodes"] if n["id"] == "electricity")
    wind = next(c for c in system["components"] if c["id"] == "wind")
    load = np.asarray(node["load"][:steps])
    avail = np.asarray(wind["capacity"]["availability"][:steps])
    node["load"] = _floats(np.clip(load * (1.0 + rng.normal(0.0, noise, steps)), 6.0, 18.0))
    wind["capacity"]["availability"] = _floats(
        np.clip(avail + rng.normal(0.0, noise, steps), 0.0, 1.0))
    return doc


@dataclass
class Outcome:
    """What one instance produced, checked after the timed region."""

    prog: object
    sol: object = None  # None for the build-only workload
    problems: tuple[str, ...] = ()  # gate failures seen inside the pipeline
    fingerprint: bytes | None = None
    std: object = None


def _gate_problems(report, cert) -> list[str]:
    problems = []
    if report is not None and not report.residuals.passed:
        problems.append("verify_solution failed: " + report.residuals.summary_lines()[0])
    if cert is not None and not cert.ok:
        problems.append(str(cert).replace("\n", "; "))
    return problems


def solve_pipeline(system) -> Outcome:
    """compile -> solve -> extract_report (with verify_solution) ->
    check_certificate."""
    prog = formulate.compile_system(system)
    sol = branch_bound.solve(prog)
    report = cert = None
    if sol.status is Status.OPTIMAL:
        report = analyze.extract_report(system, prog, sol)
        cert = certificate.check_certificate(prog, sol)
    return Outcome(prog, sol, tuple(_gate_problems(report, cert)))


class Workload:
    name = ""
    pool_size = 1
    solves = True  # instances solve, so HiGHS checks their answers

    def prepare(self, seed: int, workdir: Path) -> tuple[list, object]:
        """Generate the pool of inputs and a small warm-up input."""
        raise NotImplementedError

    def run(self, item) -> Outcome:
        """The timed pipeline of one instance."""
        raise NotImplementedError

    def steps(self, item) -> int:
        return item.time.num_steps

    def check(self, item, outcome: Outcome) -> list[str]:
        """Checks too costly to repeat; run once per draw, untimed."""
        return []

    def sizes(self, item) -> dict[str, int]:
        """Bytes the instance read and wrote (scenario, artifacts, LP)."""
        return {}

    def fingerprint(self, outcome: Outcome) -> bytes:
        return outcome.prog.fingerprint()

    def signature(self, outcome: Outcome) -> tuple:
        """Everything that must repeat exactly when one input runs again."""
        digest = hashlib.sha256(self.fingerprint(outcome)).hexdigest()
        sol = outcome.sol
        if sol is None:
            return (digest, outcome.prog.num_rows)
        return (digest, outcome.prog.num_rows, sol.status.value, float(sol.objective).hex(),
                sol.iterations, sol.nodes)

    @staticmethod
    def counts(outcome: Outcome) -> dict[str, int]:
        prog = outcome.prog
        tags = Counter(r.tag for r in prog.rows)
        counts = {"rows": prog.num_rows, "vars": prog.num_vars,
                  "nnz": sum(len(r.terms) for r in prog.rows)}
        counts.update({f"rows.{tag}": tags.get(tag, 0) for tag in REPORTED_FAMILIES})
        return counts


class LpHorizon(Workload):
    """paper_system over two weeks: the simplex does nearly all the work."""

    name = "lp_horizon"
    pool_size = 2
    horizon = 336

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        series = _make_series()
        pool = [scenario.system_from_dict(paper_system_doc(self.horizon, rng, series)["system"])
                for _ in range(self.pool_size)]
        warm = scenario.system_from_dict(paper_system_doc(24, rng, series)["system"])
        return pool, warm

    def run(self, item):
        return solve_pipeline(item)


class MilpCommitment(Workload):
    """12-step commitment variants: many small node LPs in branch and bound."""

    name = "milp_commitment"
    pool_size = 8

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        pool = [scenario.system_from_dict(commitment_doc(rng)["system"])
                for _ in range(self.pool_size)]
        warm = scenario.system_from_dict(commitment_doc(rng, steps=6)["system"])
        return pool, warm

    def run(self, item):
        return solve_pipeline(item)


@contextlib.contextmanager
def _capturing_compile(programs: list):
    """Keep the programs ``cli.run`` compiles; it does not return them."""
    compile_system = formulate.compile_system

    def capture(*args, **kwargs):
        prog = compile_system(*args, **kwargs)
        programs.append(prog)
        return prog

    formulate.compile_system = capture
    try:
        yield
    finally:
        formulate.compile_system = compile_system


class BatchDay(Workload):
    """Many one-day scenario files through the command-line run path."""

    name = "batch_day"
    pool_size = 48
    horizon = 24

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        series = _make_series()
        items = []
        for k in range(self.pool_size + 1):
            path = workdir / f"day{k:02d}.json"
            path.write_text(json.dumps(paper_system_doc(self.horizon, rng, series), indent=1))
            items.append((path, workdir / f"day{k:02d}_out"))
        return items[:-1], items[-1]

    def run(self, item):
        path, out_dir = item
        scn = scenario.load_scenario(path)
        programs: list = []
        with _capturing_compile(programs):
            report, sol, code = cli.run(scn, out_dir)
        problems = [] if code == cli.EXIT_OPTIMAL else [f"cli.run exit code {code}"]
        cert = None
        if sol.status is Status.OPTIMAL:
            cert = certificate.check_certificate(programs[0], sol)
        problems += _gate_problems(report, cert)
        return Outcome(programs[0], sol, tuple(problems))

    def steps(self, item):
        return self.horizon

    def sizes(self, item):
        path, out_dir = item
        return {"read": path.stat().st_size,
                "written": sum(p.stat().st_size for p in out_dir.iterdir())}


class ModelBuildYear(Workload):
    """A year of hourly steps built into a program and written out, no solve."""

    name = "model_build_year"
    solves = False
    horizon = 8760

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        series = _make_series()
        items = []
        for label, steps in (("year", self.horizon), ("warm", 48)):
            path = workdir / f"{label}.json"
            path.write_text(json.dumps(paper_system_doc(steps, rng, series)))
            items.append((path, workdir / f"{label}.lp", steps))
        return items[:1], items[1]

    def run(self, item):
        path, lp_path, _ = item
        scn = scenario.load_scenario(path)
        prog = formulate.compile_system(scn.system)
        std = standard.standardize(prog)
        formulate.write_lp(prog, lp_path)
        return Outcome(prog, fingerprint=prog.fingerprint(), std=std)

    def steps(self, item):
        return item[2]

    def fingerprint(self, outcome):
        return outcome.fingerprint

    def check(self, item, outcome):
        """The program is well formed and its standard form and LP text
        agree with it row for row."""
        prog, std = outcome.prog, outcome.std
        problems = list(prog.validate())
        m, n, nnz = prog.num_rows, prog.num_vars, self.counts(outcome)["nnz"]
        if std.A.shape != (m, n + m) or std.A.nnz != nnz + m:
            problems.append(f"standard form is {std.A.shape} with {std.A.nnz} entries, "
                            f"expected {(m, n + m)} with {nnz + m}")
        if not np.array_equal(std.b, [r.rhs for r in prog.rows]):
            problems.append("standard-form right-hand side differs from the rows")
        text = item[1].read_bytes()
        body = text[text.index(b"Subject To\n"):text.index(b"\nBounds\n")]
        lines = body.count(b"\n")
        if lines != m:
            problems.append(f"LP file has {lines} constraint lines for {m} rows")
        return problems

    def sizes(self, item):
        path, lp_path, _ = item
        return {"read": path.stat().st_size, "lp": lp_path.stat().st_size}


WORKLOADS = {w.name: w for w in (LpHorizon(), MilpCommitment(), BatchDay(), ModelBuildYear())}
