"""Lower a validated :class:`~enopt.model.EnergySystem` into a solver-agnostic
program: one sparse constraint matrix (CSR) plus per-row sense, right-hand
side, family tag, owner and step (see :class:`LinearProgram`).

Every constraint row carries a family tag (``EQ1`` ... ``EQ29``) naming the
model-equation family it implements; :data:`Family` maps descriptive names to
those tags.  Compilation is deterministic: identical systems produce
byte-identical programs (see :meth:`LinearProgram.fingerprint`).

Variable counting for a compiled system with T steps:

* per uncommitted component: T output variables, plus one installed-capacity
  variable when optimizable (one per building period plus one built variable
  per later period with ``per_period``);
* characteristic-field components add T secondary-output variables;
* committed components: T on + T startup variables, plus one units variable
  when the unit count is optimized;
* optimized ramps add 2 variables per component;
* per storage: 2T charge/discharge variables, T fill-level variables under
  the recurrence formulation, one capacity variable when optimizable and two
  rate-limit variables with optimized rates.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from . import model
from .finance import annual_share, annualize, output_side_cost
from .model import (
    Component,
    CoupledConversion,
    CRateLink,
    EnergySystem,
    FieldConversion,
    FixedRamp,
    FixedRate,
    OptimizedRamp,
    OptimizedRate,
    SingleConversion,
    SourceConversion,
)

__all__ = [
    "VarKind",
    "VarRef",
    "Family",
    "Row",
    "LinearProgram",
    "CompileError",
    "CompileWarning",
    "compile_system",
    "write_lp",
    "LE",
    "EQ",
    "GE",
]

LE = "<="
EQ = "="
GE = ">="


class VarKind(str, Enum):
    OUTPUT = "output"
    SECONDARY_OUTPUT = "secondary_output"
    INSTALLED = "installed"
    INSTALLED_PERIOD = "installed_period"
    BUILT = "built"
    CHARGE = "charge"
    DISCHARGE = "discharge"
    FILL = "fill"
    STORAGE_CAPACITY = "storage_capacity"
    MAX_CHARGE = "max_charge"
    MAX_DISCHARGE = "max_discharge"
    RAMP_UP = "ramp_up"
    RAMP_DOWN = "ramp_down"
    ON = "on"
    STARTUP = "startup"
    UNITS = "units"


INTEGER_KINDS = frozenset({VarKind.ON, VarKind.STARTUP, VarKind.UNITS})


@dataclass(frozen=True)
class VarRef:
    """Stable name of one decision variable: kind, owning component or
    storage, and step/period index where applicable."""

    kind: VarKind
    owner: str
    step: int | None = None
    period: int | None = None

    def label(self) -> str:
        parts = [self.kind.value, self.owner]
        if self.period is not None:
            parts.append(f"p{self.period}")
        if self.step is not None:
            parts.append(f"t{self.step}")
        return "_".join(parts)


class Family(str, Enum):
    """Constraint/check families, one per model equation."""

    CAPACITY_LIMIT = "EQ1"
    NODE_BALANCE = "EQ2"
    COST_TOTAL = "EQ3"
    ANNUITY_FACTOR = "EQ4"
    COST_SIDE_CONVERSION = "EQ5"
    MAX_INSTALLED = "EQ6"
    COUPLED_OUTPUT = "EQ7"
    FIELD_UPPER = "EQ8"
    FIELD_UPPER_MORE = "EQ9"
    FIELD_LOWER = "EQ10"
    FIELD_BALANCE = "EQ11"
    FILL_FLOOR = "EQ12"
    FILL_CAP = "EQ13"
    CHARGE_RATE = "EQ14"
    DISCHARGE_RATE = "EQ15"
    RAMP_UP = "EQ16"
    RAMP_DOWN = "EQ17"
    PERIOD_CAPACITY = "EQ18"
    BUILT_DEFINITION = "EQ19"
    COST_EXTENDED = "EQ20"
    CO2_CAP = "EQ21"
    COMMIT_MAX = "EQ22"
    COMMIT_MIN = "EQ23"
    STARTUP_DEFINITION = "EQ24"
    PARTIAL_BALANCE = "EQ25"
    PARTIAL_EFFICIENCY = "EQ26"
    UNIT_COUNT = "EQ27"
    MIN_DOWNTIME = "EQ28"
    MIN_UPTIME = "EQ29"
    OBJECTIVE_VALUE = "EQ30"


def family_number(tag: str) -> int:
    return int(str(tag)[2:])


@dataclass(frozen=True, slots=True)
class Row:
    """One sparse constraint row, sum(coef * var) sense rhs (see LinearProgram.rows)."""

    terms: tuple[tuple[int, float], ...]
    sense: str
    rhs: float
    tag: str
    owner: str = ""
    step: int | None = None


class CompileError(Exception):
    """System failed validation; carries the report."""

    def __init__(self, report: model.ValidationReport):
        self.report = report
        lines = "; ".join(f"{v.code} at {v.where}" for v in report.errors)
        super().__init__(f"system is not valid: {lines}")


class CompileWarning(UserWarning):
    pass


class LinearProgram:
    """A compiled program.

    Variables have bounds (lower defaults to 0: all decision quantities are
    non-negative unless stated otherwise) and an integrality flag that is
    only legal on on/startup/units variables.  :meth:`add_row` appends each
    row's terms to flat buffers; :meth:`finalize` orders the rows by (family,
    owner, step, insertion) into the CSR matrix ``A`` (rows x variables,
    terms in the order given) and one array entry per row in ``sense``,
    ``rhs``, ``tag``, ``owner`` and ``step`` (-1 where a row has none).
    :attr:`rows` is a view for inspection that nothing in the pipeline reads.
    """

    def __init__(self):
        self.var_refs: list[VarRef] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.is_integer: list[bool] = []
        self._cost: dict[int, float] = {}
        self.families_emitted: set[str] = set()
        self.warnings: list[str] = []
        self._index: dict[VarRef, int] = {}
        self.objective: np.ndarray | None = None
        self.A: sp.csr_matrix | None = None
        # per-row fields: lists while building, arrays once finalized
        self.sense, self.rhs, self.tag, self.owner, self.step = [], [], [], [], []
        self._cols: list[int] = []
        self._coefs: list[float] = []
        self._indptr: list[int] = [0]

    # -- building ----------------------------------------------------------

    def add_variable(self, ref: VarRef, lower: float = 0.0, upper: float = math.inf,
                     integer: bool = False) -> int:
        if ref in self._index:
            raise ValueError(f"variable declared twice: {ref}")
        if integer and ref.kind not in INTEGER_KINDS:
            raise ValueError(f"integrality is only allowed on on/startup/units, got {ref.kind}")
        idx = len(self.var_refs)
        self.var_refs.append(ref)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.is_integer.append(bool(integer))
        self._index[ref] = idx
        return idx

    def index(self, ref: VarRef) -> int:
        return self._index[ref]

    def has_var(self, ref: VarRef) -> bool:
        return ref in self._index

    def set_upper(self, ref: VarRef, upper: float) -> None:
        self.upper[self._index[ref]] = float(upper)

    def add_cost(self, ref: VarRef, coef: float) -> None:
        idx = self._index[ref]
        self._cost[idx] = self._cost.get(idx, 0.0) + float(coef)

    def add_row(self, tag: Family | str, terms: Iterable[tuple[VarRef | int, float]],
                sense: str, rhs: float, owner: str = "", step: int | None = None) -> None:
        for ref, coef in terms:
            if coef != 0.0:
                self._cols.append(ref if isinstance(ref, int) else self._index[ref])
                self._coefs.append(float(coef))
        self._indptr.append(len(self._cols))
        tag = tag.value if isinstance(tag, Family) else str(tag)
        self.sense.append(sense)
        self.rhs.append(float(rhs))
        self.tag.append(tag)
        self.owner.append(owner)
        self.step.append(-1 if step is None else step)
        self.families_emitted.add(tag)

    def note_family(self, tag: Family | str) -> None:
        self.families_emitted.add(tag.value if isinstance(tag, Family) else str(tag))

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        warnings.warn(message, CompileWarning, stacklevel=3)

    def finalize(self) -> "LinearProgram":
        """Store the rows as arrays, in canonical order; called once."""
        step = np.asarray(self.step, dtype=np.int64)
        # lexsort is stable, so insertion order breaks ties
        order = np.lexsort((step, np.asarray(self.owner, dtype=str),
                            [family_number(t) for t in self.tag]))
        self.A = sp.csr_matrix((self._coefs, self._cols, self._indptr),
                               shape=(len(order), self.num_vars))[order]
        # object arrays share the compiler's strings, so the rows view copies none
        self.sense, self.tag, self.owner = (
            np.array(a, dtype=object)[order] for a in (self.sense, self.tag, self.owner))
        self.rhs = np.asarray(self.rhs, dtype=float)[order]
        self.step = step[order]
        self._cols = self._coefs = self._indptr = None
        obj = np.zeros(len(self.var_refs))
        for idx, coef in self._cost.items():
            obj[idx] = coef
        self.objective = obj
        return self

    # -- inspection ---------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.var_refs)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)

    @property
    def rows(self) -> list[Row]:
        """Every row, in order, built from the arrays on each access."""
        ptr, cols, coefs, sense, rhs, tag, owner, step = (a.tolist() for a in (
            self.A.indptr, self.A.indices, self.A.data,
            self.sense, self.rhs, self.tag, self.owner, self.step))
        return [Row(tuple(zip(cols[ptr[i]:ptr[i + 1]], coefs[ptr[i]:ptr[i + 1]])),
                    sense[i], rhs[i], tag[i], owner[i], None if step[i] < 0 else step[i])
                for i in range(len(rhs))]

    def rows_tagged(self, tag: Family | str) -> list[Row]:
        tag = tag.value if isinstance(tag, Family) else str(tag)
        return [r for r in self.rows if r.tag == tag]

    def cost_of(self, ref: VarRef) -> float:
        return float(self.objective[self._index[ref]])

    def validate(self) -> list[str]:
        """Internal consistency: indices in range, integrality only on
        commitment kinds, finalized objective."""
        problems = []
        if self.A is not None:
            cols = self.A.indices
            for k in np.flatnonzero((cols < 0) | (cols >= self.num_vars)):
                row = np.searchsorted(self.A.indptr, k, side="right") - 1
                problems.append(f"row {self.tag[row]} references undefined variable {cols[k]}")
        for idx, flag in enumerate(self.is_integer):
            if flag and self.var_refs[idx].kind not in INTEGER_KINDS:
                problems.append(f"integer flag on {self.var_refs[idx]}")
        if self.objective is None:
            problems.append("program not finalized")
        return problems

    def fingerprint(self) -> bytes:
        """Byte-stable encoding of the whole finalized program, for
        determinism checks."""
        parts = [ref.label().encode() for ref in self.var_refs]
        parts += [np.asarray(self.lower).tobytes(), np.asarray(self.upper).tobytes(),
                  np.asarray(self.is_integer, dtype=np.uint8).tobytes()]
        parts += [a.tobytes() for a in (self.objective, self.A.indptr, self.A.indices,
                                        self.A.data, self.rhs, self.step)]
        parts += ["\x1f".join(a.tolist()).encode() for a in (self.sense, self.tag, self.owner)]
        return b"\x00".join(parts)


# ---------------------------------------------------------------------------
# shared lookups


def _out(comp_id: str, t: int) -> VarRef:
    return VarRef(VarKind.OUTPUT, comp_id, t)


def _on(comp_id: str, t: int) -> VarRef:
    return VarRef(VarKind.ON, comp_id, t)


def _installed_ref(comp: Component, period: int) -> VarRef:
    if comp.capacity.per_period:
        return VarRef(VarKind.INSTALLED_PERIOD, comp.id, period=period)
    return VarRef(VarKind.INSTALLED, comp.id)


def _effective_invest(comp: Component) -> float:
    costs = comp.costs
    invest = annualize(costs.annuity) if costs.annuity is not None else costs.invest
    if costs.invest_side == "input":
        invest = output_side_cost(invest, comp.primary_efficiency())
    return invest


# ---------------------------------------------------------------------------
# variable declaration


def _declare_variables(sys: EnergySystem, prog: LinearProgram) -> None:
    T = sys.time.num_steps
    P = sys.time.num_periods
    for comp in sys.sorted_components():
        for t in range(T):
            prog.add_variable(_out(comp.id, t))
        if isinstance(comp.conversion, FieldConversion):
            for t in range(T):
                prog.add_variable(VarRef(VarKind.SECONDARY_OUTPUT, comp.id, t))
        com = comp.commitment
        if com is not None:
            for t in range(T):
                prog.add_variable(_on(comp.id, t), 0.0, com.max_units, integer=True)
            for t in range(T):
                prog.add_variable(VarRef(VarKind.STARTUP, comp.id, t), 0.0, com.max_units,
                                  integer=True)
            if com.optimize_units:
                prog.add_variable(VarRef(VarKind.UNITS, comp.id), 0.0, com.max_units,
                                  integer=True)
        elif comp.capacity.optimizable:
            if comp.capacity.per_period:
                for p in range(P):
                    prog.add_variable(VarRef(VarKind.INSTALLED_PERIOD, comp.id, period=p))
                for p in range(1, P):
                    prog.add_variable(VarRef(VarKind.BUILT, comp.id, period=p))
            else:
                prog.add_variable(VarRef(VarKind.INSTALLED, comp.id))
        if isinstance(comp.ramp, OptimizedRamp):
            prog.add_variable(VarRef(VarKind.RAMP_UP, comp.id))
            prog.add_variable(VarRef(VarKind.RAMP_DOWN, comp.id))

    for stor in sys.sorted_storages():
        rate = stor.rate
        charge_ub = discharge_ub = math.inf
        if isinstance(rate, FixedRate):
            charge_ub, discharge_ub = rate.max_charge, rate.max_discharge
            prog.note_family(Family.CHARGE_RATE)
            prog.note_family(Family.DISCHARGE_RATE)
        elif isinstance(rate, CRateLink) and not stor.capacity_optimizable:
            charge_ub = discharge_ub = stor.capacity_fixed / rate.ratio
            prog.note_family(Family.CHARGE_RATE)
            prog.note_family(Family.DISCHARGE_RATE)
        for t in range(T):
            prog.add_variable(VarRef(VarKind.CHARGE, stor.id, t), 0.0, charge_ub)
        for t in range(T):
            prog.add_variable(VarRef(VarKind.DISCHARGE, stor.id, t), 0.0, discharge_ub)
        if stor.capacity_optimizable:
            cap_ub = math.inf
            if stor.capacity_max is not None:
                cap_ub = stor.capacity_max - stor.capacity_fixed
            prog.add_variable(VarRef(VarKind.STORAGE_CAPACITY, stor.id), 0.0, cap_ub)
        if isinstance(rate, OptimizedRate):
            prog.add_variable(VarRef(VarKind.MAX_CHARGE, stor.id))
            prog.add_variable(VarRef(VarKind.MAX_DISCHARGE, stor.id))


# ---------------------------------------------------------------------------
# emitters, one per equation family


def emit_capacity_limits(sys: EnergySystem, prog: LinearProgram) -> None:
    """Output limited to available installed capacity, per step.  Components
    with per-period capacity use the capacity variable of the step's period;
    committed components are handled by :func:`emit_unit_commitment`."""
    T = sys.time.num_steps
    periods = sys.time.period_of_step
    for comp in sys.sorted_components():
        if comp.committed:
            continue
        cap = comp.capacity
        avail = cap.availability_series(T)
        tag = Family.PERIOD_CAPACITY if cap.per_period else Family.CAPACITY_LIMIT
        for t in range(T):
            terms: list[tuple[VarRef, float]] = [(_out(comp.id, t), 1.0)]
            if cap.optimizable:
                terms.append((_installed_ref(comp, periods[t]), -avail[t]))
            prog.add_row(tag, terms, LE, avail[t] * cap.initial, owner=comp.id, step=t)


def emit_max_installed(sys: EnergySystem, prog: LinearProgram) -> None:
    """Cap on total installed capacity, applied as a variable upper bound on
    the optimizable share (total minus initial)."""
    P = sys.time.num_periods
    for comp in sys.sorted_components():
        cap = comp.capacity
        if comp.committed or not cap.optimizable or cap.max_total is None:
            continue
        headroom = cap.max_total - cap.initial
        if cap.per_period:
            for p in range(P):
                prog.set_upper(VarRef(VarKind.INSTALLED_PERIOD, comp.id, period=p), headroom)
        else:
            prog.set_upper(VarRef(VarKind.INSTALLED, comp.id), headroom)
        prog.note_family(Family.MAX_INSTALLED)


def _balance_terms(sys: EnergySystem, node_id: str,
                   t: int) -> tuple[dict[VarRef, float], list[Family]]:
    """Coefficients of one node balance row plus every balance family the row
    realises (plain, coupled-ratio term, field secondary, partial load)."""
    terms: dict[VarRef, float] = {}
    fams = {Family.NODE_BALANCE}

    def bump(ref: VarRef, coef: float) -> None:
        terms[ref] = terms.get(ref, 0.0) + coef

    for comp in sys.sorted_components():
        conv = comp.conversion
        partial = comp.commitment.partial_load if comp.committed else None
        if isinstance(conv, SingleConversion):
            if conv.output_node == node_id:
                bump(_out(comp.id, t), 1.0)
            if conv.input_node == node_id:
                if partial is not None:
                    bump(_out(comp.id, t), -partial.slope)
                    bump(_on(comp.id, t), -partial.offset)
                    fams.add(Family.PARTIAL_BALANCE)
                else:
                    bump(_out(comp.id, t), -1.0 / conv.efficiency)
        elif isinstance(conv, SourceConversion):
            if conv.output_node == node_id:
                bump(_out(comp.id, t), 1.0)
        elif isinstance(conv, CoupledConversion):
            if conv.primary_output == node_id:
                bump(_out(comp.id, t), 1.0)
            if conv.secondary_output == node_id:
                bump(_out(comp.id, t), conv.ratio)
                fams.add(Family.COUPLED_OUTPUT)
            if conv.input_node == node_id:
                bump(_out(comp.id, t), -1.0 / conv.primary_efficiency)
        elif isinstance(conv, FieldConversion):
            if conv.primary_output == node_id:
                bump(_out(comp.id, t), 1.0)
            if conv.secondary_output == node_id:
                bump(VarRef(VarKind.SECONDARY_OUTPUT, comp.id, t), 1.0)
                fams.add(Family.FIELD_BALANCE)
            if conv.input_node == node_id:
                bump(_out(comp.id, t), -1.0 / conv.primary_efficiency)
    for stor in sys.sorted_storages():
        if stor.node == node_id:
            bump(VarRef(VarKind.DISCHARGE, stor.id, t), 1.0)
            bump(VarRef(VarKind.CHARGE, stor.id, t), -1.0)
    order = [Family.PARTIAL_BALANCE, Family.FIELD_BALANCE, Family.COUPLED_OUTPUT,
             Family.NODE_BALANCE]
    ordered = [f for f in order if f in fams]
    return terms, ordered


def emit_node_balances(sys: EnergySystem, prog: LinearProgram) -> None:
    """Conservation at every balanced node and step: production into the node
    minus consumption from it, plus storage discharge minus charge, equals
    the load.  Boundary nodes get no balance; the row carries the most
    specific family it realises and registers the others."""
    for node in sys.balanced_nodes():
        for t in range(sys.time.num_steps):
            terms, fams = _balance_terms(sys, node.id, t)
            prog.add_row(fams[0], list(terms.items()), EQ, node.load[t],
                         owner=node.id, step=t)
            for fam in fams[1:]:
                prog.note_family(fam)


def emit_characteristic_field(sys: EnergySystem, prog: LinearProgram) -> None:
    """Half-plane rows tying a field component's secondary output to its
    primary output, one row per plane and step."""
    T = sys.time.num_steps
    for comp in sys.sorted_components():
        conv = comp.conversion
        if not isinstance(conv, FieldConversion):
            continue
        for t in range(T):
            seen_le = False
            for hp in conv.half_planes:
                terms = [(VarRef(VarKind.SECONDARY_OUTPUT, comp.id, t), 1.0),
                         (_out(comp.id, t), -hp.slope)]
                if hp.sense == model.SENSE_LE:
                    tag = Family.FIELD_UPPER_MORE if seen_le else Family.FIELD_UPPER
                    seen_le = True
                    prog.add_row(tag, terms, LE, hp.intercept, owner=comp.id, step=t)
                else:
                    prog.add_row(Family.FIELD_LOWER, terms, GE, hp.intercept,
                                 owner=comp.id, step=t)


def emit_storage(sys: EnergySystem, prog: LinearProgram,
                 formulation: str = "recurrence") -> None:
    """Fill-level and rate constraints per storage.

    ``recurrence`` introduces one fill variable per step with a step-to-step
    balance row, keeping the program O(T) sparse; ``cumulative`` writes the
    running charge/discharge sums out in full.  Both are mathematically
    identical (a tested property).
    """
    if formulation not in ("recurrence", "cumulative"):
        raise ValueError(f"unknown storage formulation '{formulation}'")
    T = sys.time.num_steps
    dt = sys.time.step_hours
    for stor in sys.sorted_storages():
        cap_ref = VarRef(VarKind.STORAGE_CAPACITY, stor.id)
        has_cap_var = stor.capacity_optimizable
        etac, etad = stor.charge_efficiency, stor.discharge_efficiency

        def flow_terms(t: int) -> list[tuple[VarRef, float]]:
            return [(VarRef(VarKind.CHARGE, stor.id, t), etac * dt[t]),
                    (VarRef(VarKind.DISCHARGE, stor.id, t), -dt[t] / etad)]

        if formulation == "recurrence":
            for t in range(T):
                fill_ub = math.inf if has_cap_var else stor.capacity_fixed
                prog.add_variable(VarRef(VarKind.FILL, stor.id, t), 0.0, fill_ub)
            for t in range(T):
                terms = [(VarRef(VarKind.FILL, stor.id, t), 1.0)]
                terms += [(ref, -c) for ref, c in flow_terms(t)]
                rhs = stor.initial_fill
                if t > 0:
                    terms.append((VarRef(VarKind.FILL, stor.id, t - 1), -1.0))
                    rhs = 0.0
                prog.add_row(Family.FILL_FLOOR, terms, EQ, rhs, owner=stor.id, step=t)
            if has_cap_var:
                for t in range(T):
                    prog.add_row(Family.FILL_CAP,
                                 [(VarRef(VarKind.FILL, stor.id, t), 1.0), (cap_ref, -1.0)],
                                 LE, stor.capacity_fixed, owner=stor.id, step=t)
            else:
                prog.note_family(Family.FILL_CAP)
            if sys.final_fill_at_least_initial:
                prog.add_row(Family.FILL_FLOOR,
                             [(VarRef(VarKind.FILL, stor.id, T - 1), 1.0)],
                             GE, stor.initial_fill, owner=stor.id, step=T - 1)
        else:
            for t in range(T):
                cum = []
                for u in range(t + 1):
                    cum += flow_terms(u)
                prog.add_row(Family.FILL_FLOOR, cum, GE, -stor.initial_fill,
                             owner=stor.id, step=t)
                cap_terms = list(cum)
                if has_cap_var:
                    cap_terms.append((cap_ref, -1.0))
                prog.add_row(Family.FILL_CAP, cap_terms, LE,
                             stor.capacity_fixed - stor.initial_fill,
                             owner=stor.id, step=t)
            if sys.final_fill_at_least_initial:
                cum = []
                for u in range(T):
                    cum += flow_terms(u)
                prog.add_row(Family.FILL_FLOOR, cum, GE, 0.0, owner=stor.id, step=T - 1)

        rate = stor.rate
        if isinstance(rate, CRateLink) and has_cap_var:
            inv = 1.0 / rate.ratio
            for t in range(T):
                prog.add_row(Family.CHARGE_RATE,
                             [(VarRef(VarKind.CHARGE, stor.id, t), 1.0), (cap_ref, -inv)],
                             LE, inv * stor.capacity_fixed, owner=stor.id, step=t)
                prog.add_row(Family.DISCHARGE_RATE,
                             [(VarRef(VarKind.DISCHARGE, stor.id, t), 1.0), (cap_ref, -inv)],
                             LE, inv * stor.capacity_fixed, owner=stor.id, step=t)
        elif isinstance(rate, OptimizedRate):
            for t in range(T):
                prog.add_row(Family.CHARGE_RATE,
                             [(VarRef(VarKind.CHARGE, stor.id, t), 1.0),
                              (VarRef(VarKind.MAX_CHARGE, stor.id), -1.0)],
                             LE, 0.0, owner=stor.id, step=t)
                prog.add_row(Family.DISCHARGE_RATE,
                             [(VarRef(VarKind.DISCHARGE, stor.id, t), 1.0),
                              (VarRef(VarKind.MAX_DISCHARGE, stor.id), -1.0)],
                             LE, 0.0, owner=stor.id, step=t)


def emit_ramp_limits(sys: EnergySystem, prog: LinearProgram) -> None:
    """Limit the output change between successive steps, either to a fraction
    of installed capacity or to a costed headroom variable.

    A fixed-ramp row that the capacity limit already implies is not emitted
    (its family is still noted, and verification still checks it).  With
    C = initial + installed >= 0, the capacity row gives out_t <= avail[t] * C
    and out >= 0, so the up row at t holds whenever up >= avail[t], and the
    down row whenever down >= avail[t-1] and both steps share C (the same
    building period).  Committed components have no such row and keep all
    their ramp rows."""
    T = sys.time.num_steps
    periods = sys.time.period_of_step
    for comp in sys.sorted_components():
        ramp = comp.ramp
        if ramp is None:
            continue
        capped = not comp.committed  # has a capacity row per step
        avail = comp.capacity.availability_series(T)
        for t in range(1, T):
            up = [(_out(comp.id, t), 1.0), (_out(comp.id, t - 1), -1.0)]
            down = [(_out(comp.id, t - 1), 1.0), (_out(comp.id, t), -1.0)]
            if isinstance(ramp, FixedRamp):
                # the fraction is applied per step, whatever the step length
                up_frac, down_frac = ramp.up_per_hour, ramp.down_per_hour
                inst = _installed_ref(comp, periods[t]) if comp.capacity.optimizable else None
                if inst is not None:
                    up.append((inst, -up_frac))
                    down.append((inst, -down_frac))
                same_cap = inst is None or inst == _installed_ref(comp, periods[t - 1])
                if capped and up_frac >= avail[t]:
                    prog.note_family(Family.RAMP_UP)
                else:
                    prog.add_row(Family.RAMP_UP, up, LE, up_frac * comp.capacity.initial,
                                 owner=comp.id, step=t)
                if capped and down_frac >= avail[t - 1] and same_cap:
                    prog.note_family(Family.RAMP_DOWN)
                else:
                    prog.add_row(Family.RAMP_DOWN, down, LE,
                                 down_frac * comp.capacity.initial,
                                 owner=comp.id, step=t)
            else:
                up.append((VarRef(VarKind.RAMP_UP, comp.id), -1.0))
                down.append((VarRef(VarKind.RAMP_DOWN, comp.id), -1.0))
                prog.add_row(Family.RAMP_UP, up, LE, 0.0, owner=comp.id, step=t)
                prog.add_row(Family.RAMP_DOWN, down, LE, 0.0, owner=comp.id, step=t)


def emit_build_periods(sys: EnergySystem, prog: LinearProgram) -> None:
    """Capacity added from one building period to the next: installed(p) -
    installed(p-1) <= built(p), with built pushed down by its cost."""
    P = sys.time.num_periods
    if P < 2:
        return
    for comp in sys.sorted_components():
        if comp.committed or not (comp.capacity.optimizable and comp.capacity.per_period):
            continue
        for p in range(1, P):
            prog.add_row(Family.BUILT_DEFINITION,
                         [(VarRef(VarKind.INSTALLED_PERIOD, comp.id, period=p), 1.0),
                          (VarRef(VarKind.INSTALLED_PERIOD, comp.id, period=p - 1), -1.0),
                          (VarRef(VarKind.BUILT, comp.id, period=p), -1.0)],
                         LE, 0.0, owner=comp.id, step=p)


def emit_unit_commitment(sys: EnergySystem, prog: LinearProgram) -> None:
    """On/off operation: output boxed between on*min_load and
    on*unit_capacity*availability, startup accounting, optional unit-count
    coupling and minimum up/down times (binary on only)."""
    T = sys.time.num_steps
    for comp in sys.sorted_components():
        com = comp.commitment
        if com is None:
            continue
        if (com.min_up_steps > 0 or com.min_down_steps > 0) and (
                com.max_units != 1 or com.optimize_units):
            # unreachable via compile_system (validation rejects it first)
            raise CompileError(model.ValidationReport((model.Violation(
                model.BINARY_REQUIRED, f"components[{comp.id}].commitment",
                "minimum up/down times need binary on-variables"),)))
        avail = comp.capacity.availability_series(T)
        for t in range(T):
            prog.add_row(Family.COMMIT_MAX,
                         [(_out(comp.id, t), 1.0),
                          (_on(comp.id, t), -com.unit_capacity * avail[t])],
                         LE, 0.0, owner=comp.id, step=t)
            prog.add_row(Family.COMMIT_MIN,
                         [(_out(comp.id, t), 1.0), (_on(comp.id, t), -com.unit_min_load)],
                         GE, 0.0, owner=comp.id, step=t)
            terms = [(_on(comp.id, t), 1.0),
                     (VarRef(VarKind.STARTUP, comp.id, t), -1.0)]
            rhs = 0.0
            if t > 0:
                terms.append((_on(comp.id, t - 1), -1.0))
            else:
                rhs = float(com.initial_on)
            prog.add_row(Family.STARTUP_DEFINITION, terms, LE, rhs, owner=comp.id, step=t)
            if com.optimize_units:
                prog.add_row(Family.UNIT_COUNT,
                             [(_on(comp.id, t), 1.0), (VarRef(VarKind.UNITS, comp.id), -1.0)],
                             LE, 0.0, owner=comp.id, step=t)
        if com.partial_load is not None:
            prog.note_family(Family.PARTIAL_EFFICIENCY)

        for n_steps, tag, sign in ((com.min_down_steps, Family.MIN_DOWNTIME, 1.0),
                                   (com.min_up_steps, Family.MIN_UPTIME, -1.0)):
            if n_steps <= 0:
                continue
            for t in range(T):
                # downtime: N*on[t] - N*on[t-1] + sum_{m=1..N} on[t-m] <= N
                # uptime:   N*on[t-1] - N*on[t] - sum_{m=1..N} on[t-m] <= 0
                coefs: dict[int, float] = {}
                coefs[t] = coefs.get(t, 0.0) + sign * n_steps
                coefs[t - 1] = coefs.get(t - 1, 0.0) - sign * n_steps
                for m in range(1, n_steps + 1):
                    coefs[t - m] = coefs.get(t - m, 0.0) + sign * 1.0
                rhs = float(n_steps) if sign > 0 else 0.0
                terms = []
                for idx in sorted(coefs):
                    if idx < 0:
                        rhs -= coefs[idx] * com.initial_on
                    elif coefs[idx] != 0.0:
                        terms.append((_on(comp.id, idx), coefs[idx]))
                prog.add_row(tag, terms, LE, rhs, owner=comp.id, step=t)


def _objective_terms(sys: EnergySystem) -> Iterator[tuple[VarRef, str, float]]:
    """All objective contributions as (variable, category, coefficient).

    Categories: fuel, invest, maintenance, startup, storage, ramp, emission,
    built.  Fuel and emission terms are per MWh of input and weighted by the
    step duration; annualised capacity costs are scaled by the covered share
    of a year (per building period where applicable).
    """
    grid = sys.time
    T = grid.num_steps
    dt = grid.step_hours
    share_total = annual_share(grid.total_hours)
    for comp in sys.sorted_components():
        costs = comp.costs
        eta = comp.primary_efficiency()
        fuel = costs.fuel_series(T)
        emis = (costs.emission_price or 0.0) * costs.emission_factor
        com = comp.commitment
        partial = com.partial_load if com is not None else None
        for t in range(T):
            if partial is not None:
                if fuel[t]:
                    yield _out(comp.id, t), "fuel", partial.slope * dt[t] * fuel[t]
                    yield _on(comp.id, t), "fuel", partial.offset * dt[t] * fuel[t]
                if emis:
                    yield _out(comp.id, t), "emission", partial.slope * dt[t] * emis
                    yield _on(comp.id, t), "emission", partial.offset * dt[t] * emis
            else:
                if fuel[t]:
                    yield _out(comp.id, t), "fuel", dt[t] * fuel[t] / eta
                if emis:
                    yield _out(comp.id, t), "emission", dt[t] * emis / eta
        invest = _effective_invest(comp)
        maint = costs.maintenance
        if com is not None:
            if com.optimize_units:
                if invest:
                    yield (VarRef(VarKind.UNITS, comp.id), "invest",
                           invest * com.unit_capacity * share_total)
                if maint:
                    yield (VarRef(VarKind.UNITS, comp.id), "maintenance",
                           maint * com.unit_capacity * share_total)
            if com.startup_cost:
                for t in range(T):
                    yield VarRef(VarKind.STARTUP, comp.id, t), "startup", com.startup_cost
        elif comp.capacity.optimizable:
            if comp.capacity.per_period:
                for p in range(grid.num_periods):
                    share_p = annual_share(grid.hours_in_period(p))
                    ref = VarRef(VarKind.INSTALLED_PERIOD, comp.id, period=p)
                    if invest:
                        yield ref, "invest", invest * share_p
                    if maint:
                        yield ref, "maintenance", maint * share_p
                if costs.built:
                    for p in range(1, grid.num_periods):
                        yield VarRef(VarKind.BUILT, comp.id, period=p), "built", costs.built
            else:
                ref = VarRef(VarKind.INSTALLED, comp.id)
                if invest:
                    yield ref, "invest", invest * share_total
                if maint:
                    yield ref, "maintenance", maint * share_total
        if isinstance(comp.ramp, OptimizedRamp):
            if comp.ramp.cost_up:
                yield VarRef(VarKind.RAMP_UP, comp.id), "ramp", comp.ramp.cost_up
            if comp.ramp.cost_down:
                yield VarRef(VarKind.RAMP_DOWN, comp.id), "ramp", comp.ramp.cost_down
    for stor in sys.sorted_storages():
        if stor.capacity_optimizable and stor.capacity_cost:
            yield (VarRef(VarKind.STORAGE_CAPACITY, stor.id), "storage",
                   stor.capacity_cost * share_total)
        if isinstance(stor.rate, OptimizedRate):
            if stor.rate.cost_charge:
                yield (VarRef(VarKind.MAX_CHARGE, stor.id), "storage",
                       stor.rate.cost_charge * share_total)
            if stor.rate.cost_discharge:
                yield (VarRef(VarKind.MAX_DISCHARGE, stor.id), "storage",
                       stor.rate.cost_discharge * share_total)


def emit_objective(sys: EnergySystem, prog: LinearProgram) -> None:
    """Minimisation coefficients for every costed variable; warns about
    decision variables whose mechanism relies on a positive cost but got
    none (their optimal values carry no meaning)."""
    extended = False
    for ref, category, coef in _objective_terms(sys):
        prog.add_cost(ref, coef)
        if category not in ("fuel", "invest", "maintenance"):
            extended = True
    prog.note_family(Family.COST_TOTAL)
    prog.note_family(Family.OBJECTIVE_VALUE)
    if extended:
        prog.note_family(Family.COST_EXTENDED)
    for comp in sys.sorted_components():
        if comp.costs.annuity is not None:
            prog.note_family(Family.ANNUITY_FACTOR)
        if comp.costs.invest_side == "input":
            prog.note_family(Family.COST_SIDE_CONVERSION)

    def costless(ref: VarRef, what: str) -> None:
        if prog.has_var(ref) and prog._cost.get(prog.index(ref), 0.0) <= 0.0:
            prog.warn(f"COSTLESS_SLACK: {what} of '{ref.owner}' has no objective cost; "
                      "its optimal value is arbitrary")

    P = sys.time.num_periods
    for comp in sys.sorted_components():
        if comp.capacity.per_period:
            for p in range(1, P):
                costless(VarRef(VarKind.BUILT, comp.id, period=p), "built capacity")
        if isinstance(comp.ramp, OptimizedRamp):
            costless(VarRef(VarKind.RAMP_UP, comp.id), "ramp-up limit")
            costless(VarRef(VarKind.RAMP_DOWN, comp.id), "ramp-down limit")
        if comp.committed and sys.time.num_steps and comp.commitment.startup_cost <= 0.0:
            prog.warn(f"COSTLESS_SLACK: startups of '{comp.id}' have no cost; "
                      "startup counts are arbitrary")
    for stor in sys.sorted_storages():
        if stor.capacity_optimizable:
            costless(VarRef(VarKind.STORAGE_CAPACITY, stor.id), "storage capacity")
        if isinstance(stor.rate, OptimizedRate):
            costless(VarRef(VarKind.MAX_CHARGE, stor.id), "charge limit")
            costless(VarRef(VarKind.MAX_DISCHARGE, stor.id), "discharge limit")


def emit_co2_cap(sys: EnergySystem, prog: LinearProgram) -> None:
    """Single row capping total emissions over the horizon, in kg: input
    energy per step times the specific emission factor."""
    if sys.co2_cap is None or math.isinf(sys.co2_cap):
        return
    T = sys.time.num_steps
    dt = sys.time.step_hours
    terms: list[tuple[VarRef, float]] = []
    for comp in sys.sorted_components():
        factor = comp.costs.emission_factor
        if factor == 0.0:
            continue
        partial = comp.commitment.partial_load if comp.committed else None
        eta = comp.primary_efficiency()
        for t in range(T):
            if partial is not None:
                terms.append((_out(comp.id, t), partial.slope * factor * dt[t]))
                terms.append((_on(comp.id, t), partial.offset * factor * dt[t]))
            else:
                terms.append((_out(comp.id, t), factor * dt[t] / eta))
    prog.add_row(Family.CO2_CAP, terms, LE, sys.co2_cap)


def compile_system(sys: EnergySystem, *, storage_formulation: str = "recurrence",
                   ) -> LinearProgram:
    """Compile a validated system into a finalized program.

    Raises :class:`CompileError` when validation reports errors (warnings,
    e.g. an all-zero load, do not block).  Pure function: repeated calls
    return programs with identical fingerprints.
    """
    report = model.validate_system(sys)
    if not report.ok:
        raise CompileError(report)
    prog = LinearProgram()
    _declare_variables(sys, prog)
    emit_capacity_limits(sys, prog)
    emit_max_installed(sys, prog)
    emit_node_balances(sys, prog)
    emit_characteristic_field(sys, prog)
    emit_storage(sys, prog, formulation=storage_formulation)
    emit_ramp_limits(sys, prog)
    emit_build_periods(sys, prog)
    emit_unit_commitment(sys, prog)
    emit_objective(sys, prog)
    emit_co2_cap(sys, prog)
    return prog.finalize()


# ---------------------------------------------------------------------------
# LP-format export (diagnostic cross-check against external solvers)


_NOT_NAME = re.compile(r"\W")  # a character neither alphanumeric nor "_"


def _lp_name(text: str) -> str:
    return _NOT_NAME.sub("_", text)


def _lp_terms(cols: list[int], coefs: list[float], names: list[str]) -> str:
    terms = " ".join(f"- {-coef:.17g} {names[j]}" if coef < 0 else f"+ {coef:.17g} {names[j]}"
                     for j, coef in zip(cols, coefs))
    return terms.removeprefix("+ ") or "0"


def write_lp(prog: LinearProgram, path) -> None:
    """Write the program in LP text format."""
    names = [_lp_name(ref.label()) for ref in prog.var_refs]
    costed = np.flatnonzero(prog.objective)
    objective = _lp_terms(costed.tolist(), prog.objective[costed].tolist(), names)
    lines = ["Minimize", " obj: " + objective, "Subject To"]
    ptr, cols, coefs = (a.tolist() for a in (prog.A.indptr, prog.A.indices, prog.A.data))
    for i, (sense, rhs, tag, owner, step) in enumerate(zip(
            *(a.tolist() for a in (prog.sense, prog.rhs, prog.tag, prog.owner, prog.step)))):
        lo, hi = ptr[i], ptr[i + 1]
        if lo == hi:
            lines.append(f"\\ empty row {tag}_{i}: 0 {sense} {rhs:.17g}")
            continue
        name = _lp_name(f"{tag}_{owner}_{None if step < 0 else step}_{i}")
        lines.append(f" {name}: {_lp_terms(cols[lo:hi], coefs[lo:hi], names)} {sense} {rhs:.17g}")
    lines.append("Bounds")
    for i, name in enumerate(names):
        lo, hi = prog.lower[i], prog.upper[i]
        if lo == 0.0 and math.isinf(hi):
            continue
        if math.isinf(-lo) and math.isinf(hi):
            lines.append(f" {name} free")
        elif lo == hi:
            lines.append(f" {name} = {lo:.17g}")
        elif math.isinf(hi):
            lines.append(f" {lo:.17g} <= {name}")
        else:
            lines.append(f" {lo:.17g} <= {name} <= {hi:.17g}")
    integers = [names[i] for i in range(prog.num_vars) if prog.is_integer[i]]
    if integers:
        lines.append("General")
        lines.extend(" " + n for n in integers)
    lines.append("End")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
