"""Scenario files: JSON documents describing a system, solver overrides and
requested output artifacts.

The format is written down once, as one table per record (``_TABLES``).
Each entry is (JSON key, dataclass field, kind); ``_read_fields`` walks a
table to load a record and ``_write_fields`` walks the same table to save
it.  A key may be absent or null exactly when its field has a default, and
then takes that default; a key the table does not name is an error.
Numbers go through ``float()``, integers through ``int()``, and a JSON
``true``/``false`` is not a number; bools and strings are kept as given.  A
conversion, a ramp and a storage rate are objects whose ``"type"`` picks the
record.  ``time``, ``nodes``, a series reference and the top level are read
by hand and reject unknown keys too; only the top level has a free-text
key, ``_comment``.

Time series may be inline arrays or references to sidecar CSV files
(``{"csv": "series.csv", "column": "load_electricity"}``, resolved relative
to the scenario file).  ``load_scenario`` parses, builds the system, checks
the ``outputs`` and ``solver`` sections and runs full validation; every
error names the full JSON path of the offending field, such as
``system.components[0].capacity.availability``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from . import model
from .model import (
    AnnuityInput,
    CapacitySpec,
    Component,
    CostSpec,
    CoupledConversion,
    CRateLink,
    EnergySystem,
    FieldConversion,
    FixedRamp,
    FixedRate,
    HalfPlane,
    Node,
    OptimizedRamp,
    OptimizedRate,
    PartialLoad,
    SingleConversion,
    SourceConversion,
    Storage,
    TimeGrid,
    UnitCommitment,
)
from .solver import SolverConfig

__all__ = ["Scenario", "OutputSpec", "ScenarioError", "load_scenario", "save_scenario",
           "system_to_dict", "system_from_dict", "scenario_to_dict", "solver_config"]

SCHEMA_VERSION = 1

# distinct exit codes per failure class (also used by the CLI)
EXIT_PARSE = 2
EXIT_SCHEMA = 6
EXIT_VALIDATION = 7


class ScenarioError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_PARSE):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass(frozen=True)
class OutputSpec:
    schedule_csv: bool = True
    fill_csv: bool = True
    summary: bool = True
    report_json: bool = True
    lp_export: bool = False
    plot_data: bool = False


@dataclass(frozen=True)
class Scenario:
    system: EnergySystem
    solver: dict = field(default_factory=dict)
    outputs: OutputSpec = OutputSpec()


class _Ctx:
    """Tracks the field path so parse errors name the exact location:
    ``with ctx.enter(key):`` reads the field ``key`` of the current object.
    The context itself is the context manager, so entering a field makes
    no generator."""

    def __init__(self, base_dir: Path):
        self.base_dir = base_dir
        self.path: list[str] = []

    def where(self) -> str:
        return ".".join(self.path) if self.path else "<root>"

    def fail(self, message: str, code: int = EXIT_SCHEMA):
        raise ScenarioError(f"at {self.where()}: {message}", code)

    def enter(self, key: str) -> "_Ctx":
        self.path.append(key)
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        self.path.pop()


def _is_a(value, expected) -> bool:
    """isinstance, except that a bool is not an int or a float here."""
    if isinstance(value, bool):
        return expected is bool or (isinstance(expected, tuple) and bool in expected)
    return isinstance(value, expected)


def _get(ctx: _Ctx, obj: dict, key: str, expected=None, default=..., choices=None):
    value = obj.get(key)
    if value is None:
        if default is not ...:
            return default
        ctx.fail(f"missing required field '{key}'")
    if expected is not None and not _is_a(value, expected):
        names = expected if isinstance(expected, tuple) else (expected,)
        ctx.fail(f"field '{key}' expected {'/'.join(t.__name__ for t in names)}, "
                 f"got {type(value).__name__}")
    if choices is not None and value not in choices:
        ctx.fail(f"field '{key}' must be one of {sorted(choices)}, got {value!r}")
    return value


def _known_keys(ctx: _Ctx, obj: dict, known) -> None:
    """Fail, naming every key of the JSON object ``obj`` outside ``known``."""
    unknown = obj.keys() - set(known)
    if unknown:
        ctx.fail(f"unknown keys: {sorted(unknown)}")


def _read_csv_column(ctx: _Ctx, path: Path, column: str) -> list[float]:
    if not path.exists():
        ctx.fail(f"sidecar file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            ctx.fail(f"column '{column}' not in {path.name} "
                     f"(has {reader.fieldnames})")
        try:
            return [float(row[column]) for row in reader]
        except (TypeError, ValueError) as exc:
            ctx.fail(f"non-numeric value in {path.name}:{column}: {exc}")


def _series(ctx: _Ctx, value, key: str, allow_scalar: bool):
    """A number (where ``allow_scalar``), an array of numbers or a sidecar
    CSV column, as a float or a tuple of floats.  An array whose entries are
    all exactly ``int`` or ``float`` (what JSON gives) is checked by one pass
    over their types; any other array is checked entry by entry, so a bool
    is still refused and an ``int`` or ``float`` subclass still accepted."""
    with ctx.enter(key):
        if _is_a(value, (int, float)):
            if allow_scalar:
                return float(value)
            ctx.fail("expected a series, got a scalar")
        if isinstance(value, list):
            if not (set(map(type, value)) <= {int, float}
                    or all(_is_a(v, (int, float)) for v in value)):
                ctx.fail("series entries must be numbers")
            return tuple(map(float, value))
        if isinstance(value, dict):
            _known_keys(ctx, value, ("csv", "column"))
            path = ctx.base_dir / _get(ctx, value, "csv", str)
            column = _get(ctx, value, "column", str)
            return tuple(_read_csv_column(ctx, path, column))
        ctx.fail("expected number, array or {csv, column}")


# ---------------------------------------------------------------------------
# the format: one table per record, read by _read_fields, written by _write_fields
#
# A kind is float, int, bool or str; a frozenset of string choices; _SERIES (a
# number or a time series); a record class (a nested object); [class] (an
# array of objects); a {"type" value: class} union; or a table of its own (a
# JSON object grouping fields of the enclosing record, field name None).

_SERIES = "series"
_SENSES = frozenset({model.SENSE_LE, model.SENSE_GE})
_CONVERSIONS = {"single": SingleConversion, "source": SourceConversion,
                "coupled": CoupledConversion, "field": FieldConversion}
_RAMPS = {"fixed": FixedRamp, "optimized": OptimizedRamp}
_RATES = {"fixed": FixedRate, "c_rate": CRateLink, "optimized": OptimizedRate}
_TYPE_OF = {cls: name for union in (_CONVERSIONS, _RAMPS, _RATES)
            for name, cls in union.items()}

_TABLES: dict[type, tuple] = {
    SingleConversion: (("input", "input_node", str), ("output", "output_node", str),
                       ("efficiency", "efficiency", float)),
    SourceConversion: (("output", "output_node", str),),
    CoupledConversion: (("input", "input_node", str),
                        ("primary_output", "primary_output", str),
                        ("secondary_output", "secondary_output", str),
                        ("primary_efficiency", "primary_efficiency", float),
                        ("secondary_efficiency", "secondary_efficiency", float)),
    HalfPlane: (("slope", "slope", float), ("intercept", "intercept", float),
                ("sense", "sense", _SENSES)),
    FieldConversion: (("input", "input_node", str),
                      ("primary_output", "primary_output", str),
                      ("secondary_output", "secondary_output", str),
                      ("primary_efficiency", "primary_efficiency", float),
                      ("half_planes", "half_planes", [HalfPlane])),
    CapacitySpec: (("initial", "initial", float), ("optimizable", "optimizable", bool),
                   ("max", "max_total", float), ("availability", "availability", _SERIES),
                   ("per_period", "per_period", bool)),
    FixedRamp: (("up", "up_per_hour", float), ("down", "down_per_hour", float)),
    OptimizedRamp: (("cost_up", "cost_up", float), ("cost_down", "cost_down", float)),
    PartialLoad: (("slope", "slope", float), ("offset", "offset", float)),
    UnitCommitment: (("unit_capacity", "unit_capacity", float),
                     ("unit_min_load", "unit_min_load", float),
                     ("max_units", "max_units", int),
                     ("optimize_units", "optimize_units", bool),
                     ("startup_cost", "startup_cost", float),
                     ("min_up_steps", "min_up_steps", int),
                     ("min_down_steps", "min_down_steps", int),
                     ("partial_load", "partial_load", PartialLoad),
                     ("initial_on", "initial_on", int)),
    AnnuityInput: (("total_investment", "total_investment", float),
                   ("interest_rate", "interest_rate", float),
                   ("lifetime", "lifetime", int)),
    CostSpec: (("invest", "invest", float), ("maintenance", "maintenance", float),
               ("fuel", "fuel", _SERIES), ("emission_factor", "emission_factor", float),
               ("emission_price", "emission_price", float),
               ("invest_side", "invest_side", frozenset({"output", "input"})),
               ("annuity", "annuity", AnnuityInput), ("built", "built", float)),
    Component: (("id", "id", str), ("conversion", "conversion", _CONVERSIONS),
                ("capacity", "capacity", CapacitySpec), ("ramp", "ramp", _RAMPS),
                ("commitment", "commitment", UnitCommitment), ("costs", "costs", CostSpec)),
    FixedRate: (("max_charge", "max_charge", float),
                ("max_discharge", "max_discharge", float)),
    CRateLink: (("ratio", "ratio", float),),
    OptimizedRate: (("cost_charge", "cost_charge", float),
                    ("cost_discharge", "cost_discharge", float)),
    Storage: (("id", "id", str), ("node", "node", str),
              ("charge_efficiency", "charge_efficiency", float),
              ("discharge_efficiency", "discharge_efficiency", float),
              ("rate", "rate", _RATES), ("initial_fill", "initial_fill", float),
              ("capacity", None, (("fixed", "capacity_fixed", float),
                                  ("optimizable", "capacity_optimizable", bool),
                                  ("cost", "capacity_cost", float),
                                  ("max", "capacity_max", float)))),
    # `time` and `nodes` are read and written by hand in system_from_dict/_to_dict
    EnergySystem: (("components", "components", [Component]),
                   ("storages", "storages", [Storage]), ("co2_cap", "co2_cap", float),
                   ("final_fill_at_least_initial", "final_fill_at_least_initial", bool)),
    OutputSpec: tuple((f.name, f.name, bool) for f in fields(OutputSpec)),
}
# a JSON key is required exactly when its dataclass field has no default
_DEFAULTS = {cls: {f.name: ... if f.default is MISSING else f.default for f in fields(cls)}
             for cls in _TABLES}


def _read_fields(ctx: _Ctx, obj: dict, table: tuple, defaults: dict,
                 known: tuple = ()) -> dict:
    """Read one record's JSON object into keyword arguments of its dataclass;
    a key neither in the table nor in ``known`` is an error."""
    _known_keys(ctx, obj, [entry[0] for entry in table] + list(known))
    kwargs = {}
    for key, name, kind in table:
        if isinstance(kind, tuple):  # a JSON group of the record's own fields
            group = _get(ctx, obj, key, dict, default={})
            with ctx.enter(key):
                kwargs.update(_read_fields(ctx, group, kind, defaults))
        elif obj.get(key) is None:
            kwargs[name] = _get(ctx, obj, key, default=defaults[name])
        elif kind is float:
            kwargs[name] = float(_get(ctx, obj, key, (int, float)))
        elif kind is int:
            kwargs[name] = int(_get(ctx, obj, key, int))
        elif kind is bool or kind is str:
            kwargs[name] = _get(ctx, obj, key, kind)
        elif isinstance(kind, frozenset):
            kwargs[name] = _get(ctx, obj, key, str, choices=kind)
        elif kind is _SERIES:
            kwargs[name] = _series(ctx, obj[key], key, True)
        elif isinstance(kind, list):
            kwargs[name] = tuple(_read_record(ctx, item, f"{key}[{k}]", kind[0])
                                 for k, item in enumerate(_get(ctx, obj, key, list)))
        else:
            kwargs[name] = _read_record(ctx, _get(ctx, obj, key, dict), key, kind)
    return kwargs


def _read_record(ctx: _Ctx, obj, key: str, kind):
    with ctx.enter(key):
        if not isinstance(obj, dict):
            ctx.fail(f"expected an object, got {type(obj).__name__}")
        known = ()
        if isinstance(kind, dict):  # a union: the object's "type" picks the record
            kind = kind[_get(ctx, obj, "type", str, choices=kind.keys())]
            known = ("type",)
        return kind(**_read_fields(ctx, obj, _TABLES[kind], _DEFAULTS[kind], known))


def _write_fields(obj, table: tuple) -> dict:
    """The inverse of _read_fields: every key of the table, null for None."""
    doc = {}
    for key, name, kind in table:
        if isinstance(kind, tuple):
            doc[key] = _write_fields(obj, kind)
            continue
        value = getattr(obj, name)
        if isinstance(kind, list):
            value = [_write_record(item) for item in value]
        elif is_dataclass(value):
            value = _write_record(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[key] = value
    return doc


def _write_record(rec) -> dict:
    tag = {"type": _TYPE_OF[type(rec)]} if type(rec) in _TYPE_OF else {}
    return tag | _write_fields(rec, _TABLES[type(rec)])


def system_from_dict(doc: dict, base_dir: Path | str = ".") -> EnergySystem:
    ctx = _Ctx(Path(base_dir))
    with ctx.enter("system"):
        time_obj = _get(ctx, doc, "time", dict)
        with ctx.enter("time"):
            _known_keys(ctx, time_obj, ("count", "hours", "step_hours", "period_of_step"))
            if "count" in time_obj:
                count = int(_get(ctx, time_obj, "count", int))
                hours = float(_get(ctx, time_obj, "hours", (int, float), default=1.0))
                steps = (hours,) * count
            else:
                steps = _series(ctx, _get(ctx, time_obj, "step_hours", (list, dict)),
                                "step_hours", False)
            periods = time_obj.get("period_of_step")
            if periods is not None:
                with ctx.enter("period_of_step"):
                    if not (isinstance(periods, list)
                            and (set(map(type, periods)) <= {int}
                                 or all(_is_a(p, int) for p in periods))):
                        ctx.fail("expected an array of period indices")
                    periods = tuple(map(int, periods))
            grid = TimeGrid(steps, periods or ())

        nodes = []
        for k, n in enumerate(_get(ctx, doc, "nodes", list)):
            with ctx.enter(f"nodes[{k}]"):
                if not isinstance(n, dict):
                    ctx.fail(f"expected an object, got {type(n).__name__}")
                _known_keys(ctx, n, ("id", "carrier", "load", "boundary"))
                boundary = _get(ctx, n, "boundary", bool, default=False)
                load = n.get("load")
                if load is None:
                    if not boundary:
                        ctx.fail("missing required field 'load'")
                    load = [0.0] * grid.num_steps
                load = _series(ctx, load, "load", False)
                nodes.append(Node(_get(ctx, n, "id", str),
                                  _get(ctx, n, "carrier", str, default=""),
                                  load, boundary))
        return EnergySystem(time=grid, nodes=tuple(nodes),
                            **_read_fields(ctx, doc, _TABLES[EnergySystem],
                                           _DEFAULTS[EnergySystem], ("time", "nodes")))


def load_scenario(path) -> Scenario:
    """Parse, build and validate a scenario file.

    Raises :class:`ScenarioError` with ``exit_code`` 2 (unreadable/bad JSON),
    6 (schema problems) or 7 (model validation errors).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}", EXIT_PARSE) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object", EXIT_SCHEMA)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
            EXIT_SCHEMA)
    ctx = _Ctx(path.parent)
    # only the top level has a free-text key
    _known_keys(ctx, doc, ("schema_version", "system", "solver", "outputs", "_comment"))
    system = system_from_dict(_get(ctx, doc, "system", dict), path.parent)
    outputs = _read_record(ctx, _get(ctx, doc, "outputs", dict, default={}), "outputs",
                           OutputSpec)
    solver = _get(ctx, doc, "solver", dict, default={})
    solver_config(solver)
    report = model.validate_system(system)
    if not report.ok:
        lines = [f"{v.code} at {v.where}: {v.message}" for v in report.errors]
        raise ScenarioError("scenario failed validation:\n  " + "\n  ".join(lines),
                            EXIT_VALIDATION)
    return Scenario(system=system, solver=dict(solver), outputs=outputs)


def solver_config(options: dict) -> SolverConfig:
    """The solver settings of a ``solver`` section (scenario values with any
    command-line overrides); each unknown key, value of the wrong kind or
    value :class:`SolverConfig` rejects is a schema error at ``solver.<key>``.
    """
    ctx = _Ctx(Path())
    defaults = {f.name: f.default for f in fields(SolverConfig)}
    for key, value in options.items():
        with ctx.enter(f"solver.{key}"):
            if key not in defaults:
                ctx.fail("unknown solver option")
            kinds = (int,) if isinstance(defaults[key], int) else (int, float)
            if not _is_a(value, kinds):
                ctx.fail(f"expected {'/'.join(t.__name__ for t in kinds)}, "
                         f"got {type(value).__name__}")
            try:
                SolverConfig(**{key: value})
            except ValueError as exc:
                ctx.fail(str(exc))
    return SolverConfig(**options)


# ---------------------------------------------------------------------------
# canonical serialization (round-trip stable)


def system_to_dict(sys: EnergySystem) -> dict:
    return {"time": {"step_hours": list(sys.time.step_hours),
                     "period_of_step": list(sys.time.period_of_step)},
            "nodes": [{"id": n.id, "carrier": n.carrier, "load": list(n.load),
                       "boundary": n.boundary} for n in sys.nodes],
            **_write_fields(sys, _TABLES[EnergySystem])}


def scenario_to_dict(scn: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": system_to_dict(scn.system),
        "solver": dict(scn.solver),
        "outputs": _write_record(scn.outputs),
    }


def save_scenario(scn: Scenario, path) -> None:
    model.write_text(path, (json.dumps(scenario_to_dict(scn), indent=2, sort_keys=True),
                            "\n"))
