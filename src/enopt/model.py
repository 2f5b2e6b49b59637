"""Energy-system graph model.

An energy system is a graph: nodes carry a per-step load of some carrier
(electricity, heat, gas, ...) and components are the edges converting flows
between nodes or across the system boundary.  Storages attach to a single
node.  All types are frozen dataclasses; time series are stored as tuples so
instances are safe to share between threads.

Validation never raises: ``validate_system`` collects every rule violation
into a :class:`ValidationReport` so a broken scenario reports all of its
problems at once.  The report is kept with the (deeply immutable) system
value, so a system is walked once however often it is validated.
Violations with severity ``"error"`` block compilation, ``"warning"``
entries (a system with all-zero loads, a mechanism left without the cost
that pins it down) do not.  Each series is read once: one mask finds its
flagged entries, reported in step order.

:func:`write_text` writes every file the package writes; it sits here
because every module that writes one already imports this one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

__all__ = [
    "TimeGrid",
    "Node",
    "SingleConversion",
    "SourceConversion",
    "CoupledConversion",
    "HalfPlane",
    "FieldConversion",
    "CapacitySpec",
    "FixedRamp",
    "OptimizedRamp",
    "PartialLoad",
    "UnitCommitment",
    "AnnuityInput",
    "CostSpec",
    "Component",
    "FixedRate",
    "CRateLink",
    "OptimizedRate",
    "Storage",
    "EnergySystem",
    "Violation",
    "ValidationReport",
    "SystemDimensions",
    "validate_system",
    "system_dimensions",
]

SENSE_LE = "le"
SENSE_GE = "ge"

HOURS_PER_YEAR = 8760.0


def _series(value, num_steps: int) -> tuple[float, ...]:
    """Broadcast a scalar to a per-step series; a stored series (already a
    tuple of floats, see ``__post_init__``) is returned as it is."""
    if isinstance(value, (int, float)):
        return (float(value),) * num_steps
    return value


# ---------------------------------------------------------------------------
# time


@dataclass(frozen=True)
class TimeGrid:
    """Simulation horizon: step durations in hours plus the building period
    each step belongs to.  Period indices are 0-based, non-decreasing and
    contiguous (0, 0, 1, 1, ...)."""

    step_hours: tuple[float, ...]
    period_of_step: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "step_hours", tuple(map(float, self.step_hours)))
        periods = self.period_of_step or (0,) * len(self.step_hours)
        object.__setattr__(self, "period_of_step", tuple(map(int, periods)))

    @property
    def num_steps(self) -> int:
        return len(self.step_hours)

    @property
    def num_periods(self) -> int:
        return (max(self.period_of_step) + 1) if self.period_of_step else 0

    @property
    def total_hours(self) -> float:
        return sum(self.step_hours)

    def hours_in_period(self, period: int) -> float:
        return sum(h for h, p in zip(self.step_hours, self.period_of_step) if p == period)


# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True)
class Node:
    """A carrier node with a demand series in MW.

    ``boundary=True`` marks a carrier that crosses the system boundary, such
    as a fuel supply: no conservation balance is enforced there and the cost
    of what components draw from it is covered by their fuel cost.
    """

    id: str
    carrier: str
    load: tuple[float, ...] = ()
    boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "load", tuple(map(float, self.load)))


# ---------------------------------------------------------------------------
# conversion behaviour


@dataclass(frozen=True)
class SingleConversion:
    """One input node, one output node, constant efficiency."""

    input_node: str
    output_node: str
    efficiency: float


@dataclass(frozen=True)
class SourceConversion:
    """Boundary inflow (PV, wind, imports): delivers straight to a node with
    unit efficiency and no modelled input node."""

    output_node: str


@dataclass(frozen=True)
class CoupledConversion:
    """Two outputs locked to a fixed ratio: the secondary output equals
    (secondary_efficiency / primary_efficiency) times the primary output."""

    input_node: str
    primary_output: str
    secondary_output: str
    primary_efficiency: float
    secondary_efficiency: float

    @property
    def ratio(self) -> float:
        return self.secondary_efficiency / self.primary_efficiency


@dataclass(frozen=True)
class HalfPlane:
    """One face of a feasible operating region:
    secondary {<=,>=} slope * primary + intercept."""

    slope: float
    intercept: float
    sense: str  # SENSE_LE or SENSE_GE


@dataclass(frozen=True)
class FieldConversion:
    """Two outputs whose joint feasible region is a convex polytope given by
    half-planes over (primary, secondary) output.  Needs at least three
    half-planes including both senses."""

    input_node: str
    primary_output: str
    secondary_output: str
    primary_efficiency: float
    half_planes: tuple[HalfPlane, ...]

    def __post_init__(self):
        object.__setattr__(self, "half_planes", tuple(self.half_planes))


Conversion = Union[SingleConversion, SourceConversion, CoupledConversion, FieldConversion]


# ---------------------------------------------------------------------------
# capacity / ramp / commitment / cost


@dataclass(frozen=True)
class CapacitySpec:
    """Installed capacity data, all in MW on the output side.

    ``availability`` is the usable share of installed capacity per step,
    either a scalar or a series in [0, 1].  When ``optimizable`` the solver
    may add capacity on top of ``initial``, up to ``max_total`` in total
    (``None`` = unbounded).  ``per_period`` gives one capacity decision per
    building period instead of a single one.
    """

    initial: float = 0.0
    optimizable: bool = False
    max_total: float | None = None
    availability: float | tuple[float, ...] = 1.0
    per_period: bool = False

    def __post_init__(self):
        if not isinstance(self.availability, (int, float)):
            object.__setattr__(self, "availability", tuple(map(float, self.availability)))

    def availability_series(self, num_steps: int) -> tuple[float, ...]:
        return _series(self.availability, num_steps)


@dataclass(frozen=True)
class FixedRamp:
    """Output change per step limited to a fraction of installed capacity.

    Despite the field names, the fractions apply per step, whatever the step
    length: output may rise by at most ``up_per_hour`` times the installed
    capacity from one step to the next (fall by ``down_per_hour``), so 0.3
    on a grid of 2-hour steps allows 0.3 of capacity per 2-hour step.  The
    compiler's rows and the verifier both use this definition.
    """

    up_per_hour: float
    down_per_hour: float


@dataclass(frozen=True)
class OptimizedRamp:
    """Ramp headroom becomes a decision variable with a one-off cost in
    EUR/MW, to find out how flexible a plant would have to be."""

    cost_up: float
    cost_down: float


Ramp = Union[FixedRamp, OptimizedRamp, None]


@dataclass(frozen=True)
class PartialLoad:
    """Input drawn from the feeding node is slope*output + offset*on instead
    of output/efficiency, so efficiency drops at partial load."""

    slope: float
    offset: float


@dataclass(frozen=True)
class UnitCommitment:
    """On/off operation in discrete units.

    ``unit_capacity`` and ``unit_min_load`` are per unit (MW).  ``max_units``
    caps the number of on units; with ``optimize_units`` the number of
    installed units becomes an integer decision variable.  Minimum up/down
    times require binary on-variables, i.e. ``max_units == 1``.
    """

    unit_capacity: float
    unit_min_load: float = 0.0
    max_units: int = 1
    optimize_units: bool = False
    startup_cost: float = 0.0
    min_up_steps: int = 0
    min_down_steps: int = 0
    partial_load: PartialLoad | None = None
    initial_on: int = 0  # units on before the first step


Commitment = Union[UnitCommitment, None]


@dataclass(frozen=True)
class AnnuityInput:
    """Lump investment to be annualised: EUR/MW total, per-period interest
    rate as a fraction and lifetime in periods."""

    total_investment: float
    interest_rate: float
    lifetime: int


@dataclass(frozen=True)
class CostSpec:
    """Cost and emission parameters of a component.

    ``invest`` and ``maintenance`` are annualised EUR/MW/a; ``invest_side``
    says whether ``invest`` refers to output-side or input-side capacity
    (input-side values get divided by the efficiency).  If ``annuity`` is
    given the tool annualises it and ``invest`` must be 0.  ``fuel`` is
    EUR/MWh of input, scalar or per-step series.  ``emission_factor`` is
    kg CO2 per MWh of input; ``emission_price`` (EUR/kg) adds those emissions
    to the cost function.  ``built`` is a one-off EUR/MW on capacity added in
    a building period.
    """

    invest: float = 0.0
    maintenance: float = 0.0
    fuel: float | tuple[float, ...] = 0.0
    emission_factor: float = 0.0
    emission_price: float | None = None
    invest_side: str = "output"  # "output" or "input"
    annuity: AnnuityInput | None = None
    built: float = 0.0

    def __post_init__(self):
        if not isinstance(self.fuel, (int, float)):
            object.__setattr__(self, "fuel", tuple(map(float, self.fuel)))

    def fuel_series(self, num_steps: int) -> tuple[float, ...]:
        return _series(self.fuel, num_steps)


@dataclass(frozen=True)
class Component:
    id: str
    conversion: Conversion
    capacity: CapacitySpec = CapacitySpec()
    ramp: Ramp = None
    commitment: Commitment = None
    costs: CostSpec = CostSpec()

    @property
    def committed(self) -> bool:
        return self.commitment is not None

    def primary_efficiency(self) -> float:
        conv = self.conversion
        if isinstance(conv, SingleConversion):
            return conv.efficiency
        if isinstance(conv, SourceConversion):
            return 1.0
        return conv.primary_efficiency


# ---------------------------------------------------------------------------
# storage


@dataclass(frozen=True)
class FixedRate:
    """Constant charge/discharge power limits in MW."""

    max_charge: float
    max_discharge: float


@dataclass(frozen=True)
class CRateLink:
    """Power limits tied to energy capacity: flow <= capacity / ratio."""

    ratio: float


@dataclass(frozen=True)
class OptimizedRate:
    """Charge/discharge power limits become decision variables costed at
    EUR/MW/a."""

    cost_charge: float
    cost_discharge: float


RateMode = Union[FixedRate, CRateLink, OptimizedRate]


@dataclass(frozen=True)
class Storage:
    """An energy store attached to one node.

    ``capacity_fixed`` (MWh) is always available; with
    ``capacity_optimizable`` the solver may add capacity at
    ``capacity_cost`` EUR/MWh/a up to ``capacity_max`` total.
    """

    id: str
    node: str
    charge_efficiency: float
    discharge_efficiency: float
    rate: RateMode
    initial_fill: float = 0.0
    capacity_fixed: float = 0.0
    capacity_optimizable: bool = False
    capacity_cost: float = 0.0
    capacity_max: float | None = None


# ---------------------------------------------------------------------------
# system


@dataclass(frozen=True)
class EnergySystem:
    time: TimeGrid
    nodes: tuple[Node, ...]
    components: tuple[Component, ...] = ()
    storages: tuple[Storage, ...] = ()
    co2_cap: float | None = None
    # keep the final fill level at or above the initial one, preventing the
    # optimiser from draining pre-charged storage for free
    final_fill_at_least_initial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "storages", tuple(self.storages))

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def node_ids(self) -> set[str]:
        return {n.id for n in self.nodes}

    def sorted_components(self) -> list[Component]:
        return sorted(self.components, key=lambda c: c.id)

    def sorted_storages(self) -> list[Storage]:
        return sorted(self.storages, key=lambda s: s.id)

    def balanced_nodes(self) -> list[Node]:
        return sorted((n for n in self.nodes if not n.boundary), key=lambda n: n.id)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str
    severity: str = "error"  # "error" | "warning"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "error")

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __iter__(self):
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)


class SystemDimensions(NamedTuple):
    num_steps: int
    num_nodes: int
    num_components: int
    num_storages: int
    num_periods: int


# violation codes
TIME_EMPTY = "TIME_EMPTY"
STEP_NONPOSITIVE = "STEP_NONPOSITIVE"
PERIOD_ORDER = "PERIOD_ORDER"
PERIOD_RANGE = "PERIOD_RANGE"
PERIOD_LENGTH = "PERIOD_LENGTH"
LOAD_LENGTH = "LOAD_LENGTH"
ID_DUPLICATE = "ID_DUPLICATE"
NODE_MISSING = "NODE_MISSING"
SELF_LOOP = "SELF_LOOP"
EFFICIENCY_RANGE = "EFFICIENCY_RANGE"
FIELD_PLANES = "FIELD_PLANES"
AVAILABILITY_RANGE = "AVAILABILITY_RANGE"
AVAILABILITY_LENGTH = "AVAILABILITY_LENGTH"
CAPACITY_RANGE = "CAPACITY_RANGE"
MAX_BELOW_INITIAL = "MAX_BELOW_INITIAL"
RAMP_NEGATIVE = "RAMP_NEGATIVE"
RAMP_REQUIRES_CAPACITY = "RAMP_REQUIRES_CAPACITY"
COMMIT_MIN_LOAD = "COMMIT_MIN_LOAD"
COMMIT_UNITS = "COMMIT_UNITS"
BINARY_REQUIRED = "BINARY_REQUIRED"
PARTIAL_LOAD_SLOPE = "PARTIAL_LOAD_SLOPE"
PARTIAL_LOAD_INPUT = "PARTIAL_LOAD_INPUT"
COMMIT_PER_PERIOD = "COMMIT_PER_PERIOD"
COST_NEGATIVE = "COST_NEGATIVE"
COST_CONFLICT = "COST_CONFLICT"
COST_SIDE = "COST_SIDE"
FUEL_LENGTH = "FUEL_LENGTH"
ANNUITY_RANGE = "ANNUITY_RANGE"
STORAGE_EFFICIENCY = "STORAGE_EFFICIENCY"
STORAGE_RATE = "STORAGE_RATE"
STORAGE_CAPACITY = "STORAGE_CAPACITY"
STORAGE_OVERFULL = "STORAGE_OVERFULL"
CO2_CAP_NEGATIVE = "CO2_CAP_NEGATIVE"
NOT_FINITE = "NOT_FINITE"
DEGENERATE = "DEGENERATE"
COSTLESS_SLACK = "COSTLESS_SLACK"


def _check_time(grid: TimeGrid, out: list[Violation]) -> None:
    """Steps finite and positive, periods non-decreasing and contiguous from
    0.  One mask over the steps finds every bad step, reported in order."""
    if grid.num_steps == 0:
        out.append(Violation(TIME_EMPTY, "time.step_hours", "at least one time step required"))
        return
    hours = grid.step_hours
    steps = np.fromiter(hours, float, len(hours))
    for t in np.flatnonzero(~(np.isfinite(steps) & (steps > 0))).tolist():
        h = hours[t]
        if not math.isfinite(h):
            out.append(Violation(NOT_FINITE, f"time.step_hours[{t}]",
                                 f"value must be finite, got {h}"))
        else:
            out.append(Violation(STEP_NONPOSITIVE, f"time.step_hours[{t}]",
                                 f"step duration must be > 0, got {h}"))
    periods = grid.period_of_step
    if len(periods) != grid.num_steps:
        out.append(Violation(PERIOD_LENGTH, "time.period_of_step",
                             f"expected {grid.num_steps} entries, got {len(periods)}"))
        return
    if sorted(periods) != list(periods):
        out.append(Violation(PERIOD_ORDER, "time.period_of_step",
                             "period indices must be non-decreasing"))
        return
    if periods[0] != 0 or sorted(set(periods)) != list(range(max(periods) + 1)):
        out.append(Violation(PERIOD_RANGE, "time.period_of_step",
                             "period indices must form a contiguous range starting at 0"))


def _check_finite(where: str, value, out: list[Violation]) -> None:
    """Flag NaN and +-inf in every number of a model value (a number, a
    series or a nested dataclass), naming the field path.  One mask over a
    series of numbers finds its non-finite entries, each named by its
    ``[t]`` in order; a tuple of records is walked record by record."""
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            out.append(Violation(NOT_FINITE, where, f"value must be finite, got {value}"))
    elif isinstance(value, tuple):
        try:
            flagged = np.flatnonzero(~np.isfinite(np.fromiter(value, float, len(value)))).tolist()
        except (TypeError, ValueError):  # not all numbers, e.g. half-planes
            flagged = range(len(value))
        for t in flagged:
            _check_finite(f"{where}[{t}]", value[t], out)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _check_finite(f"{where}.{f.name}", getattr(value, f.name), out)


def _check_availability(avail: tuple, where: str, out: list[Violation]) -> None:
    """Flag each share outside [0, 1], NaN included, naming its step."""
    shares = np.fromiter(avail, float, len(avail))
    # NaN fails both comparisons
    for t in np.flatnonzero(~((0.0 <= shares) & (shares <= 1.0))).tolist():
        out.append(Violation(AVAILABILITY_RANGE, f"{where}[{t}]",
                             f"availability must lie in [0, 1], got {avail[t]}"))


def _check_series_len(series, num_steps: int, code: str, where: str, out: list[Violation]) -> None:
    if not isinstance(series, (int, float)) and len(series) != num_steps:
        out.append(Violation(code, where, f"expected {num_steps} entries, got {len(series)}"))


def _check_costed(cost: float, what: str, where: str, out: list[Violation]) -> None:
    """Warn when a mechanism that only a positive cost pins down has none
    (a negative cost is an error of its own)."""
    if cost == 0:
        out.append(Violation(COSTLESS_SLACK, where,
                             f"{what} has no cost; its optimal value is arbitrary",
                             severity="warning"))


def _check_conversion(comp: Component, node_ids: set[str], out: list[Violation]) -> None:
    where = f"components[{comp.id}].conversion"
    conv = comp.conversion
    refs = []
    if isinstance(conv, SingleConversion):
        refs = [conv.input_node, conv.output_node]
        if conv.input_node == conv.output_node:
            out.append(Violation(SELF_LOOP, where, "input and output node must differ"))
        if not conv.efficiency > 0:
            out.append(Violation(EFFICIENCY_RANGE, where,
                                 f"efficiency must be > 0, got {conv.efficiency}"))
    elif isinstance(conv, SourceConversion):
        refs = [conv.output_node]
    elif isinstance(conv, CoupledConversion):
        refs = [conv.input_node, conv.primary_output, conv.secondary_output]
        if conv.input_node in (conv.primary_output, conv.secondary_output):
            out.append(Violation(SELF_LOOP, where, "input and output node must differ"))
        if not (conv.primary_efficiency > 0 and conv.secondary_efficiency > 0):
            out.append(Violation(EFFICIENCY_RANGE, where, "both efficiencies must be > 0"))
    elif isinstance(conv, FieldConversion):
        refs = [conv.input_node, conv.primary_output, conv.secondary_output]
        if conv.input_node in (conv.primary_output, conv.secondary_output):
            out.append(Violation(SELF_LOOP, where, "input and output node must differ"))
        if not conv.primary_efficiency > 0:
            out.append(Violation(EFFICIENCY_RANGE, where, "primary efficiency must be > 0"))
        senses = {hp.sense for hp in conv.half_planes}
        if len(conv.half_planes) < 3 or not {SENSE_LE, SENSE_GE} <= senses:
            out.append(Violation(FIELD_PLANES, where + ".half_planes",
                                 "a characteristic field needs at least 3 half-planes "
                                 "including both senses"))
    for ref in refs:
        if ref not in node_ids:
            out.append(Violation(NODE_MISSING, where, f"node '{ref}' is not declared"))


def _check_component(comp: Component, grid: TimeGrid, node_ids: set[str],
                     out: list[Violation]) -> None:
    _check_conversion(comp, node_ids, out)
    cid = comp.id
    cap = comp.capacity
    where = f"components[{cid}].capacity"
    if cap.initial < 0:
        out.append(Violation(CAPACITY_RANGE, where + ".initial", "initial capacity must be >= 0"))
    if cap.max_total is not None and cap.max_total < cap.initial:
        out.append(Violation(MAX_BELOW_INITIAL, where + ".max_total",
                             f"max {cap.max_total} below initial {cap.initial}"))
    _check_series_len(cap.availability, grid.num_steps, AVAILABILITY_LENGTH,
                      where + ".availability", out)
    avail = cap.availability if isinstance(cap.availability, tuple) else (cap.availability,)
    _check_availability(avail, where + ".availability", out)
    if cap.per_period and comp.committed:
        out.append(Violation(COMMIT_PER_PERIOD, where + ".per_period",
                             "per-period capacity is not supported on committed components"))

    ramp = comp.ramp
    where = f"components[{cid}].ramp"
    if isinstance(ramp, FixedRamp):
        if ramp.up_per_hour < 0 or ramp.down_per_hour < 0:
            out.append(Violation(RAMP_NEGATIVE, where, "ramp fractions must be >= 0"))
        if comp.committed:
            out.append(Violation(RAMP_REQUIRES_CAPACITY, where,
                                 "fixed ramp needs an installed-capacity reference; "
                                 "committed components have none"))
    elif isinstance(ramp, OptimizedRamp):
        if ramp.cost_up < 0 or ramp.cost_down < 0:
            out.append(Violation(RAMP_NEGATIVE, where, "ramp costs must be >= 0"))
        _check_costed(ramp.cost_up, "ramp-up limit", where + ".cost_up", out)
        _check_costed(ramp.cost_down, "ramp-down limit", where + ".cost_down", out)

    com = comp.commitment
    if com is not None:
        where = f"components[{cid}].commitment"
        if not 0 <= com.unit_min_load <= com.unit_capacity:
            out.append(Violation(COMMIT_MIN_LOAD, where,
                                 "need 0 <= unit_min_load <= unit_capacity"))
        if com.max_units < 1 or com.initial_on < 0 or com.initial_on > com.max_units:
            out.append(Violation(COMMIT_UNITS, where,
                                 "max_units must be >= 1 and contain initial_on"))
        if com.min_up_steps < 0 or com.min_down_steps < 0:
            out.append(Violation(COMMIT_UNITS, where, "min up/down steps must be >= 0"))
        if (com.min_up_steps > 0 or com.min_down_steps > 0) and (
                com.max_units != 1 or com.optimize_units):
            out.append(Violation(BINARY_REQUIRED, where,
                                 "minimum up/down times need a binary on-variable; "
                                 "set max_units=1 without unit optimisation"))
        if com.partial_load is not None:
            if not com.partial_load.slope > 0:
                out.append(Violation(PARTIAL_LOAD_SLOPE, where + ".partial_load",
                                     "partial-load slope must be > 0"))
            if not isinstance(comp.conversion, SingleConversion):
                out.append(Violation(PARTIAL_LOAD_INPUT, where + ".partial_load",
                                     "partial load needs a single-conversion component "
                                     "with an input node"))
        if com.startup_cost < 0:
            out.append(Violation(COST_NEGATIVE, where + ".startup_cost",
                                 "startup cost must be >= 0"))
        _check_costed(com.startup_cost, "startup count", where + ".startup_cost", out)

    costs = comp.costs
    where = f"components[{cid}].costs"
    for name in ("invest", "maintenance", "emission_factor", "built"):
        if getattr(costs, name) < 0:
            out.append(Violation(COST_NEGATIVE, where + f".{name}", "costs must be >= 0"))
    if cap.optimizable and cap.per_period and not comp.committed and grid.num_periods > 1:
        _check_costed(costs.built, "built capacity", where + ".built", out)
    if costs.emission_price is not None and costs.emission_price < 0:
        out.append(Violation(COST_NEGATIVE, where + ".emission_price", "price must be >= 0"))
    fuel = costs.fuel if isinstance(costs.fuel, tuple) else (costs.fuel,)
    if (np.fromiter(fuel, float, len(fuel)) < 0).any():
        out.append(Violation(COST_NEGATIVE, where + ".fuel", "fuel cost must be >= 0"))
    _check_series_len(costs.fuel, grid.num_steps, FUEL_LENGTH, where + ".fuel", out)
    if costs.invest_side not in ("output", "input"):
        out.append(Violation(COST_SIDE, where + ".invest_side",
                             f"unknown side '{costs.invest_side}'"))
    if costs.annuity is not None:
        ann = costs.annuity
        if ann.lifetime < 1 or ann.interest_rate < 0 or ann.total_investment < 0:
            out.append(Violation(ANNUITY_RANGE, where + ".annuity",
                                 "need lifetime >= 1, interest >= 0, investment >= 0"))
        if costs.invest != 0.0:
            out.append(Violation(COST_CONFLICT, where,
                                 "give either an annualised invest or an annuity input, not both"))


def _check_storage(stor: Storage, grid: TimeGrid, node_ids: set[str],
                   out: list[Violation]) -> None:
    where = f"storages[{stor.id}]"
    if stor.node not in node_ids:
        out.append(Violation(NODE_MISSING, where + ".node", f"node '{stor.node}' is not declared"))
    for name in ("charge_efficiency", "discharge_efficiency"):
        eff = getattr(stor, name)
        if not 0.0 < eff <= 1.0:
            out.append(Violation(STORAGE_EFFICIENCY, where + f".{name}",
                                 f"efficiency must lie in (0, 1], got {eff}"))
    if stor.initial_fill < 0 or stor.capacity_fixed < 0 or stor.capacity_cost < 0:
        out.append(Violation(STORAGE_CAPACITY, where, "fill, capacity and cost must be >= 0"))
    if stor.capacity_optimizable:
        _check_costed(stor.capacity_cost, "storage capacity", where + ".capacity_cost", out)
    if stor.capacity_max is not None and stor.capacity_max < stor.capacity_fixed:
        out.append(Violation(STORAGE_CAPACITY, where + ".capacity_max",
                             "capacity_max below fixed capacity"))
    if not stor.capacity_optimizable and stor.initial_fill > stor.capacity_fixed:
        out.append(Violation(STORAGE_OVERFULL, where + ".initial_fill",
                             f"initial fill {stor.initial_fill} exceeds capacity "
                             f"{stor.capacity_fixed}"))
    rate = stor.rate
    if isinstance(rate, FixedRate):
        if rate.max_charge < 0 or rate.max_discharge < 0:
            out.append(Violation(STORAGE_RATE, where + ".rate", "rates must be >= 0"))
    elif isinstance(rate, CRateLink):
        if not rate.ratio > 0:
            out.append(Violation(STORAGE_RATE, where + ".rate", "capacity ratio must be > 0"))
    elif isinstance(rate, OptimizedRate):
        if rate.cost_charge < 0 or rate.cost_discharge < 0:
            out.append(Violation(STORAGE_RATE, where + ".rate", "rate costs must be >= 0"))
        _check_costed(rate.cost_charge, "charge limit", where + ".rate.cost_charge", out)
        _check_costed(rate.cost_discharge, "discharge limit", where + ".rate.cost_discharge", out)
    else:
        out.append(Violation(STORAGE_RATE, where + ".rate", "exactly one rate mode required"))


def validate_system(sys: EnergySystem) -> ValidationReport:
    """Check every model invariant; returns all violations found.

    Pure function of the system value: calling it twice yields identical
    reports.  The first call walks the system and keeps its report in the
    instance; later calls on the same instance return that report (a
    ``dataclasses.replace`` copy is a new instance and is walked anew).  An
    empty report means the system is fully valid; reports with only
    warnings still compile.
    """
    report = sys.__dict__.get("_validation")
    if report is None:
        report = _walk_system(sys)
        object.__setattr__(sys, "_validation", report)  # not a field: eq, hash, repr ignore it
    return report


def _walk_system(sys: EnergySystem) -> ValidationReport:
    """Every rule of :func:`validate_system`, checked on the whole system."""
    out: list[Violation] = []
    grid = sys.time
    _check_time(grid, out)

    seen_ids: set[str] = set()
    for n in sys.nodes:
        if n.id in seen_ids:
            out.append(Violation(ID_DUPLICATE, f"nodes[{n.id}]", "duplicate node id"))
        seen_ids.add(n.id)
        if len(n.load) != grid.num_steps:
            out.append(Violation(LOAD_LENGTH, f"nodes[{n.id}].load",
                                 f"expected {grid.num_steps} entries, got {len(n.load)}"))
        _check_finite(f"nodes[{n.id}].load", n.load, out)
    node_ids = sys.node_ids()

    seen_ids = set()
    for comp in sys.components:
        if comp.id in seen_ids:
            out.append(Violation(ID_DUPLICATE, f"components[{comp.id}]", "duplicate id"))
        seen_ids.add(comp.id)
        _check_component(comp, grid, node_ids, out)
        _check_finite(f"components[{comp.id}]", comp, out)
    for stor in sys.storages:
        if stor.id in seen_ids:
            out.append(Violation(ID_DUPLICATE, f"storages[{stor.id}]",
                                 "id collides with a component or storage"))
        seen_ids.add(stor.id)
        _check_storage(stor, grid, node_ids, out)
        _check_finite(f"storages[{stor.id}]", stor, out)

    if sys.co2_cap is not None and (math.isnan(sys.co2_cap) or sys.co2_cap == -math.inf):
        out.append(Violation(NOT_FINITE, "co2_cap",
                             f"cap must be a number or +inf (no cap), got {sys.co2_cap}"))
    elif sys.co2_cap is not None and sys.co2_cap < 0:
        out.append(Violation(CO2_CAP_NEGATIVE, "co2_cap", "emission cap must be >= 0"))

    if not any(any(v != 0.0 for v in n.load) for n in sys.nodes):
        out.append(Violation(DEGENERATE, "nodes",
                             "no node carries a nonzero load; the problem is degenerate",
                             severity="warning"))
    return ValidationReport(tuple(out))


def system_dimensions(sys: EnergySystem) -> SystemDimensions:
    """The counts ``enopt dimensions`` prints."""
    return SystemDimensions(
        num_steps=sys.time.num_steps,
        num_nodes=len(sys.nodes),
        num_components=len(sys.components),
        num_storages=len(sys.storages),
        num_periods=sys.time.num_periods,
    )


# ---------------------------------------------------------------------------
# files


def write_text(path, parts: Iterable[str]) -> None:
    """Make the strings of ``parts``, in order, the whole content of the
    file at ``path``, in the encoding ``Path.write_text`` uses.  Every file
    the package writes goes through here: the run artifacts, the LP text
    and a saved scenario.  A file already there is written over and then
    cut to length, not emptied first: emptying it frees its blocks and the
    write allocates them again, which cost about 1 ms per file on an ext4
    volume mounted with ``discard``."""
    try:
        fh = open(path, "r+", encoding="locale")
    except FileNotFoundError:
        fh = open(path, "x", encoding="locale")
    with fh:
        fh.writelines(parts)
        fh.truncate()
