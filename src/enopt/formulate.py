"""Lower a validated :class:`~enopt.model.EnergySystem` into a solver-agnostic
program: one sparse constraint matrix (CSR) plus per-row sense, right-hand
side, family tag, owner and step (see :class:`LinearProgram`).

Every constraint row carries a family tag (``EQ1`` ... ``EQ29``) naming the
model-equation family it implements; :data:`Family` maps descriptive names to
those tags.  Compilation is deterministic: identical systems produce
byte-identical programs (see :meth:`LinearProgram.fingerprint`).

The paper states each equation and variable as a family indexed over all
time steps, and the compiler keeps them that way: one array block per
family and component (or storage, or node).  Variables are declared per
block, so an emitter looks up the first column of each block it needs and
gets the column of step t by adding t; :meth:`LinearProgram.add_rows` takes
the R x k column and coefficient arrays and drops zero coefficients, so rows
of one block may differ in length (a window that starts before step 0, the
previous fill level at t = 0) by padding with zeros.  Every block is found
by its kind and owner (:meth:`LinearProgram.columns`).  Node balances repeat
the per-block coefficients of :func:`_balance_terms` at every step, and the
objective is added a block at a time from :func:`_objective_blocks` and
summed once, by :meth:`LinearProgram.finalize`.

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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

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
from .solver.standard import EQ, GE, LE, compressed

__all__ = [
    "VarKind",
    "VarRef",
    "Family",
    "Row",
    "LinearProgram",
    "CompileError",
    "compile_system",
    "write_lp",
    "LE",
    "EQ",
    "GE",
]


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


class LinearProgram:
    """A compiled program.

    Variables are declared a block at a time, with common bounds (lower
    defaults to 0: all decision quantities are non-negative unless stated
    otherwise); a block is integer exactly when its kind is on, startup or
    units.  One name is stored per block: step (or period) t sits at the
    block's first column plus t; :meth:`index` and :meth:`ref` map a name to
    its column and back.

    Rows are added a block at a time: :meth:`add_rows` takes R rows as an
    R x k array of column indices and their coefficients, with one tag,
    sense and owner and a right-hand side and step per row.  Zero
    coefficients (-0.0 too) are dropped in row-major order, so each kept
    term keeps its place and a shorter row is padded with zero coefficients.  :meth:`add_row` is the
    one-row case.  :meth:`finalize` concatenates the blocks and orders the
    rows by (family, owner, step, insertion) into the CSR matrix ``A`` (rows
    x variables, terms in the order given) and one array entry per row in
    ``sense``, ``rhs``, ``tag``, ``owner`` and ``step`` (-1 where a row has
    none).  It also makes the column arrays, one entry per variable:
    ``lower`` and ``upper`` (float64) and ``is_integer`` (bool), each
    repeated from its block's one value, and ``objective`` (float64).  The
    solver, the certificate, the LP writer and the verifier read these
    arrays as they are.  :attr:`rows` is the only derived
    view; it yields one :class:`Row` at a time and keeps none, for
    ``perfbench/workloads.py``, its only reader outside the tests.

    The row tags are the program's only record of the equations it
    realises.  The families realised as bounds (a fixed storage rate, the
    caps on total installed and total storage capacity, the unit count of a
    committed component, a fixed store's fill cap) or in the objective and
    its cost arithmetic leave no row; ``analyze.verify_solution`` checks
    every family against the system instead, each of these limits included.
    """

    def __init__(self):
        self.num_vars = 0
        self._vars: dict = {}  # (kind, owner) -> (first VarRef, its column, count), in order
        # (count, lower, upper, integer) per block while variables are declared
        self._bounds: list[tuple[int, float, float, bool]] = []
        self.objective: np.ndarray | None = None
        self.A: sp.csr_matrix | None = None
        # per-variable and per-row arrays, set by finalize
        self.lower = self.upper = self.is_integer = None
        self.sense = self.rhs = self.tag = self.owner = self.step = None
        self._blocks: list[_RowBlock] = []
        self._costs: list[tuple[np.ndarray, np.ndarray]] = []

    # -- building ----------------------------------------------------------

    def add_variables(self, first: VarRef, count: int = 1, lower: float = 0.0,
                      upper: float = math.inf) -> int:
        """Declare a block: ``first`` and the ``count - 1`` variables after it
        in its step (or, without a step, its period), with common bounds;
        returns the column of ``first``.  One block per kind and owner."""
        if (first.kind, first.owner) in self._vars:
            raise ValueError(f"variable declared twice: {first.kind.value} of '{first.owner}'")
        if count > 1 and first.step is None and first.period is None:
            raise ValueError(f"a block of {count} variables needs a step or period: {first}")
        if min(first.step or 0, first.period or 0) < 0:
            raise ValueError(f"steps and periods count from 0: {first}")
        col = self.num_vars
        self._vars[first.kind, first.owner] = (first, col, count)
        self._bounds.append((count, float(lower), float(upper), first.kind in INTEGER_KINDS))
        self.num_vars += count
        return col

    def add_variable(self, ref: VarRef, lower: float = 0.0, upper: float = math.inf) -> int:
        return self.add_variables(ref, 1, lower, upper)

    def index(self, ref: VarRef) -> int:
        """Column of ``ref``, by its offset in its block; KeyError outside every block."""
        # an undeclared kind and owner reads as an empty block
        first, col, count = self._vars.get((ref.kind, ref.owner), (ref, 0, 0))
        r = (ref.step or 0) - (first.step or 0) + (ref.period or 0) - (first.period or 0)
        if 0 <= r < count and _nth(first, r) == ref:
            return col + r
        raise KeyError(ref)

    def columns(self, kind: VarKind, owner: str) -> slice:
        """The columns of the (kind, owner) block, found without a
        :class:`VarRef`; KeyError when no such block was declared."""
        _, col, count = self._vars[kind, owner]
        return slice(col, col + count)

    def ref(self, col: int) -> VarRef:
        """Name of column ``col``, found through its block."""
        for first, start, count in self._vars.values():
            if start <= col < start + count:
                return _nth(first, int(col) - start)
        raise IndexError(col)

    def add_costs(self, cols, coefs) -> None:
        """Add objective coefficients; repeated columns accumulate in order."""
        self._costs.append((np.asarray(cols, dtype=np.int64).ravel(),
                            np.asarray(coefs, dtype=float).ravel()))

    def add_cost(self, ref: VarRef, coef: float) -> None:
        self.add_costs([self.index(ref)], [coef])

    def add_rows(self, tag: Family | str, cols, coefs, sense: str, rhs,
                 owner: str = "", steps=None) -> None:
        """Append R rows: ``cols`` is R x k, ``coefs`` R x k, or k or a scalar
        shared by every row (zero coefficients are dropped); ``rhs`` and
        ``steps`` (None: no step) are R values or one for every row."""
        cols = np.asarray(cols, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=float)
        n_rows = len(cols)
        if coefs.shape != cols.shape:
            full = np.empty(cols.shape)
            full[...] = coefs
            coefs = full
        keep = coefs != 0.0
        tag = tag.value if isinstance(tag, Family) else str(tag)
        row_rhs = np.empty(n_rows)
        row_rhs[...] = rhs
        row_steps = np.full(n_rows, -1, dtype=np.int64)
        if steps is not None:
            row_steps[...] = steps
        self._blocks.append(_RowBlock(cols[keep], coefs[keep], keep.sum(axis=1), tag, sense,
                                      owner, row_rhs, row_steps))

    def add_row(self, tag: Family | str, terms: Iterable[tuple[VarRef | int, float]],
                sense: str, rhs: float, owner: str = "", step: int | None = None) -> None:
        terms = list(terms)
        cols = [ref if isinstance(ref, int) else self.index(ref) for ref, _ in terms]
        self.add_rows(tag, np.reshape(cols, (1, -1)), np.reshape([c for _, c in terms], (1, -1)),
                      sense, rhs, owner, step)

    def finalize(self) -> "LinearProgram":
        """Store the rows, in canonical order, and the columns as arrays;
        called once.  A column outside the program raises ValueError."""
        blocks = self._blocks
        n_rows = [len(b.rhs) for b in blocks]

        def joined(arrays, dtype):
            return np.concatenate([np.zeros(0, dtype), *arrays])

        def per_row(values, dtype):
            return np.repeat(np.asarray(values, dtype=dtype), n_rows)

        step = joined([b.steps for b in blocks], np.int64)
        counts = joined([b.counts for b in blocks], np.int64)
        term_cols = joined([b.cols for b in blocks], np.int64)
        cost_cols = joined([c for c, _ in self._costs], np.int64)
        # the CSR arrays and the objective take their columns unchecked
        outside = np.flatnonzero((term_cols < 0) | (term_cols >= self.num_vars))
        if outside.size:
            row = int(np.searchsorted(np.cumsum(counts), outside[0], side="right"))
            b = blocks[int(np.searchsorted(np.cumsum(n_rows), row, side="right"))]
            raise ValueError(f"row {b.tag} of '{b.owner}' at step {step[row]} references column "
                             f"{term_cols[outside[0]]}, outside the {self.num_vars} variables")
        outside = np.flatnonzero((cost_cols < 0) | (cost_cols >= self.num_vars))
        if outside.size:
            raise ValueError(f"a cost on column {cost_cols[outside[0]]}, outside the program")
        owners = sorted({b.owner for b in blocks})
        rank = {owner: i for i, owner in enumerate(owners)}
        # lexsort is stable, so insertion order breaks ties
        order = np.lexsort((step, per_row([rank[b.owner] for b in blocks], np.int64),
                            per_row([family_number(b.tag) for b in blocks], np.int64)))
        # the CSR arrays of the rows in that order: each row's kept terms,
        # gathered from where its block put them; the index dtype scipy's
        # checked constructor chooses, int32 unless an index could outgrow it
        starts = np.cumsum(counts) - counts
        indptr = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(counts[order], out=indptr[1:])
        nnz = int(indptr[-1])
        taken = np.repeat(starts[order] - indptr[:-1], counts[order]) + np.arange(nnz)
        index_dtype = (np.int32 if max(nnz, order.size, self.num_vars) <= np.iinfo(np.int32).max
                       else np.int64)
        self.A = compressed(sp.csr_matrix, joined([b.coefs for b in blocks], float)[taken],
                            term_cols[taken].astype(index_dtype),
                            indptr.astype(index_dtype), (order.size, self.num_vars))
        # object arrays share the compiler's strings, so the rows view copies none
        self.sense, self.tag, self.owner = (
            per_row([getattr(b, field) for b in blocks], object)[order]
            for field in ("sense", "tag", "owner"))
        self.rhs = joined([b.rhs for b in blocks], float)[order]
        self.step = step[order]
        self._blocks = None
        # one value per block, repeated over its count
        per_block = self._bounds or [(0, 0.0, 0.0, False)]
        count, lower, upper, integer = (np.array(v) for v in zip(*per_block))
        self.lower = np.repeat(lower.astype(float), count)
        self.upper = np.repeat(upper.astype(float), count)
        self.is_integer = np.repeat(integer.astype(bool), count)
        self._bounds = None
        # one pass over the costs in the order they were added, so a column's
        # additions keep their order
        obj = np.zeros(self.num_vars)
        np.add.at(obj, cost_cols, joined([c for _, c in self._costs], float))
        self.objective = obj
        self._costs = None
        return self

    # -- inspection ---------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.rhs)

    @property
    def rows(self) -> Iterator[Row]:
        """Every row, in order, each built from its slice of the arrays as
        it is read; none is kept."""
        ptr, cols, coefs = self.A.indptr, self.A.indices, self.A.data
        for i in range(self.num_rows):
            lo, hi, step = ptr[i], ptr[i + 1], int(self.step[i])
            yield Row(tuple(zip(cols[lo:hi].tolist(), coefs[lo:hi].tolist())), self.sense[i],
                      float(self.rhs[i]), self.tag[i], self.owner[i], None if step < 0 else step)

    def labels(self) -> list[str]:
        """:meth:`VarRef.label` of every variable, in column order, formatted
        a block at a time: a block runs along its first label's last part."""
        return _block_names(self, str)

    def validate(self) -> list[str]:
        """Internal consistency: only an unfinalized program is left to
        report, as :meth:`finalize` refuses a column outside the program."""
        return ["program not finalized"] if self.objective is None else []

    def fingerprint(self) -> bytes:
        """Byte-stable encoding of the whole finalized program, for
        determinism checks: the variable labels, then the arrays, then the
        row senses, tags and owners, joined by NUL bytes.  The labels are
        joined as text and encoded once; UTF-8 encoding commutes with
        joining, so the bytes equal those of labels encoded one by one."""
        labels = self.labels()
        parts = ["\x00".join(labels).encode()] if labels else []
        # a bool is one byte, 0 or 1
        parts += [a.tobytes() for a in (self.lower, self.upper, self.is_integer, self.objective,
                                        self.A.indptr, self.A.indices, self.A.data, self.rhs,
                                        self.step)]
        parts += ["\x1f".join(a.tolist()).encode() for a in (self.sense, self.tag, self.owner)]
        return b"\x00".join(parts)


def _block_names(prog: LinearProgram, stem_name) -> list[str]:
    """A name for every variable, in column order, built a block at a time:
    ``stem_name`` of the block's label stem, then the step or period suffix
    (``_t<step>``, ``_p<period>``, counting from 0, so word characters only).
    The suffixes of one (axis, start, count) range are formatted once and
    shared by every block on it, which joins its stem to each.  Two blocks
    whose names would meet (ids that differ only in non-word characters,
    under :func:`_lp_name`) raise ValueError naming both owners."""
    names, blocks = [], {}  # (stem, axis) -> (owner, its steps or periods)
    suffixes = {}  # (axis, start, count) -> ["_<axis><i>" for each i]
    for first, _, count in prog._vars.values():
        if first.step is None and first.period is None:
            stem, axis, numbers = stem_name(first.label()), "", ()
            names += [stem] * count
        else:
            stem, _, last = first.label().rpartition("_")  # last: t<step> or p<period>
            stem, axis, start = stem_name(stem), last[0], int(last[1:])
            numbers = range(start, start + count)
            shared = suffixes.get((axis, start, count))
            if shared is None:
                shared = suffixes[axis, start, count] = [f"_{axis}{i}" for i in numbers]
            names += map(stem.__add__, shared)
        if (stem, axis) in blocks:
            raise ValueError(f"'{blocks[stem, axis][0]}' and '{first.owner}' give variables "
                             "the same name")
        blocks[stem, axis] = first.owner, numbers
    for (stem, axis), (owner, _) in blocks.items():
        # a name without a suffix may still read as another block's stem and suffix
        head, _, last = stem.rpartition("_")
        other, numbers = blocks.get((head, last[:1]), ("", ()))
        if not axis and last[1:] in map(str, numbers):
            raise ValueError(f"'{owner}' and '{other}' give variables the same name")
    return names


def _nth(first: VarRef, r: int) -> VarRef:
    """The variable ``r`` places after ``first`` in its block."""
    if first.step is not None:
        return VarRef(first.kind, first.owner, first.step + r, first.period)
    if first.period is not None:
        return VarRef(first.kind, first.owner, period=first.period + r)
    return first


class _RowBlock(NamedTuple):
    """Rows of one :meth:`LinearProgram.add_rows` call: the kept terms
    row-major, the kept-term count per row, shared fields, per-row fields."""

    cols: np.ndarray
    coefs: np.ndarray
    counts: np.ndarray
    tag: str
    sense: str
    owner: str
    rhs: np.ndarray
    steps: np.ndarray


# ---------------------------------------------------------------------------
# shared lookups


def _steps(prog: LinearProgram, kind: VarKind, owner: str, T: int) -> np.ndarray:
    """Columns of a per-step block, steps 0..T-1."""
    return prog.columns(kind, owner).start + np.arange(T)


def _block_cols(prog: LinearProgram, blocks, n: int) -> np.ndarray:
    """n x len(blocks) columns: entry (r, j) is the variable r places into
    the block whose (kind, owner) is blocks[j]."""
    starts = [prog.columns(kind, owner).start for kind, owner in blocks]
    return np.array(starts, dtype=np.int64) + np.arange(n)[:, None]


def _stack(*columns) -> np.ndarray:
    """R x k array from column blocks: R x j arrays, length-R arrays and
    scalars (repeated down all R rows); float64 where any block is a float,
    else int64, as ``np.column_stack`` makes it."""
    dims = [np.ndim(c) for c in columns]
    n_rows = next(len(c) for c, d in zip(columns, dims) if d)
    widths = [c.shape[1] if d == 2 else 1 for c, d in zip(columns, dims)]
    out = np.empty((n_rows, sum(widths)), dtype=np.result_type(*columns))
    j = 0
    for c, d, w in zip(columns, dims, widths):
        if d == 2:
            out[:, j:j + w] = c
        else:
            out[:, j] = c
        j += w
    return out


def _installed_cols(prog: LinearProgram, comp: Component,
                    periods: np.ndarray) -> np.ndarray | None:
    """Column of the installed capacity in force at each step; None when the
    capacity is not optimizable."""
    if not comp.capacity.optimizable:
        return None
    if comp.capacity.per_period:
        return prog.columns(VarKind.INSTALLED_PERIOD, comp.id).start + periods
    return np.full(len(periods), prog.columns(VarKind.INSTALLED, comp.id).start)


def _effective_invest(comp: Component) -> float:
    costs = comp.costs
    invest = annualize(costs.annuity) if costs.annuity is not None else costs.invest
    if costs.invest_side == "input":
        invest = output_side_cost(invest, comp.primary_efficiency())
    return invest


# ---------------------------------------------------------------------------
# variable declaration


def _declare_variables(sys: EnergySystem, prog: LinearProgram) -> None:
    """Declare every variable block with its bounds, which realise the cap on
    total installed capacity and fixed storage rates."""
    T = sys.time.num_steps
    P = sys.time.num_periods
    for comp in sys.sorted_components():
        prog.add_variables(VarRef(VarKind.OUTPUT, comp.id, 0), T)
        if isinstance(comp.conversion, FieldConversion):
            prog.add_variables(VarRef(VarKind.SECONDARY_OUTPUT, comp.id, 0), T)
        com = comp.commitment
        cap = comp.capacity
        if com is not None:
            prog.add_variables(VarRef(VarKind.ON, comp.id, 0), T, 0.0, com.max_units)
            prog.add_variables(VarRef(VarKind.STARTUP, comp.id, 0), T, 0.0, com.max_units)
            if com.optimize_units:
                prog.add_variable(VarRef(VarKind.UNITS, comp.id), 0.0, com.max_units)
        elif cap.optimizable:
            headroom = math.inf
            if cap.max_total is not None:
                headroom = cap.max_total - cap.initial
            if cap.per_period:
                prog.add_variables(VarRef(VarKind.INSTALLED_PERIOD, comp.id, period=0), P,
                                   0.0, headroom)
                prog.add_variables(VarRef(VarKind.BUILT, comp.id, period=1), P - 1)
            else:
                prog.add_variable(VarRef(VarKind.INSTALLED, comp.id), 0.0, headroom)
        if isinstance(comp.ramp, OptimizedRamp):
            prog.add_variable(VarRef(VarKind.RAMP_UP, comp.id))
            prog.add_variable(VarRef(VarKind.RAMP_DOWN, comp.id))

    for stor in sys.sorted_storages():
        rate = stor.rate
        charge_ub = discharge_ub = math.inf
        if isinstance(rate, FixedRate):
            charge_ub, discharge_ub = rate.max_charge, rate.max_discharge
        elif isinstance(rate, CRateLink) and not stor.capacity_optimizable:
            charge_ub = discharge_ub = stor.capacity_fixed / rate.ratio
        prog.add_variables(VarRef(VarKind.CHARGE, stor.id, 0), T, 0.0, charge_ub)
        prog.add_variables(VarRef(VarKind.DISCHARGE, stor.id, 0), T, 0.0, discharge_ub)
        if stor.capacity_optimizable:
            cap_ub = math.inf
            if stor.capacity_max is not None:
                cap_ub = stor.capacity_max - stor.capacity_fixed
            prog.add_variable(VarRef(VarKind.STORAGE_CAPACITY, stor.id), 0.0, cap_ub)
        if isinstance(rate, OptimizedRate):
            prog.add_variable(VarRef(VarKind.MAX_CHARGE, stor.id))
            prog.add_variable(VarRef(VarKind.MAX_DISCHARGE, stor.id))


# ---------------------------------------------------------------------------
# emitters, one per equation family; each adds a family's rows for all steps
# of one component, storage or node as one block


def emit_capacity_limits(sys: EnergySystem, prog: LinearProgram) -> None:
    """Output limited to available installed capacity, per step.  Components
    with per-period capacity use the capacity variable of the step's period;
    committed components are handled by :func:`emit_unit_commitment`."""
    T = sys.time.num_steps
    steps = np.arange(T)
    periods = np.asarray(sys.time.period_of_step)
    for comp in sys.sorted_components():
        if comp.committed:
            continue
        cap = comp.capacity
        avail = np.asarray(cap.availability_series(T))
        tag = Family.PERIOD_CAPACITY if cap.per_period else Family.CAPACITY_LIMIT
        out = _steps(prog, VarKind.OUTPUT, comp.id, T)
        inst = _installed_cols(prog, comp, periods)
        if inst is None:
            cols, coefs = out[:, None], 1.0
        else:
            cols, coefs = _stack(out, inst), _stack(1.0, -avail)
        prog.add_rows(tag, cols, coefs, LE, avail * cap.initial, owner=comp.id, steps=steps)


def _balance_terms(sys: EnergySystem,
                   node_id: str) -> tuple[dict[tuple[VarKind, str], float], Family]:
    """Coefficients of a node's balance row, one per (kind, owner) block:
    the row at step t has them on the variables of step t.  Plus the row's
    tag: the most specific balance family among partial load, field
    secondary, coupled-ratio term and plain balance."""
    terms: dict[tuple[VarKind, str], float] = {}
    fams = {Family.NODE_BALANCE}

    def bump(block: tuple[VarKind, str], coef: float) -> None:
        terms[block] = terms.get(block, 0.0) + coef

    for comp in sys.sorted_components():
        conv = comp.conversion
        partial = comp.commitment.partial_load if comp.committed else None
        out = VarKind.OUTPUT, comp.id
        if isinstance(conv, SingleConversion):
            if conv.output_node == node_id:
                bump(out, 1.0)
            if conv.input_node == node_id:
                if partial is not None:
                    bump(out, -partial.slope)
                    bump((VarKind.ON, comp.id), -partial.offset)
                    fams.add(Family.PARTIAL_BALANCE)
                else:
                    bump(out, -1.0 / conv.efficiency)
        elif isinstance(conv, SourceConversion):
            if conv.output_node == node_id:
                bump(out, 1.0)
        elif isinstance(conv, CoupledConversion):
            if conv.primary_output == node_id:
                bump(out, 1.0)
            if conv.secondary_output == node_id:
                bump(out, conv.ratio)
                fams.add(Family.COUPLED_OUTPUT)
            if conv.input_node == node_id:
                bump(out, -1.0 / conv.primary_efficiency)
        elif isinstance(conv, FieldConversion):
            if conv.primary_output == node_id:
                bump(out, 1.0)
            if conv.secondary_output == node_id:
                bump((VarKind.SECONDARY_OUTPUT, comp.id), 1.0)
                fams.add(Family.FIELD_BALANCE)
            if conv.input_node == node_id:
                bump(out, -1.0 / conv.primary_efficiency)
    for stor in sys.sorted_storages():
        if stor.node == node_id:
            bump((VarKind.DISCHARGE, stor.id), 1.0)
            bump((VarKind.CHARGE, stor.id), -1.0)
    order = (Family.PARTIAL_BALANCE, Family.FIELD_BALANCE, Family.COUPLED_OUTPUT,
             Family.NODE_BALANCE)
    return terms, next(f for f in order if f in fams)


def emit_node_balances(sys: EnergySystem, prog: LinearProgram) -> None:
    """Conservation at every balanced node and step: production into the node
    minus consumption from it, plus storage discharge minus charge, equals
    the load.  Boundary nodes get no balance; the row carries the most
    specific family it realises."""
    T = sys.time.num_steps
    steps = np.arange(T)
    for node in sys.balanced_nodes():
        terms, tag = _balance_terms(sys, node.id)
        prog.add_rows(tag, _block_cols(prog, tuple(terms), T), list(terms.values()), EQ,
                      node.load, owner=node.id, steps=steps)


def emit_characteristic_field(sys: EnergySystem, prog: LinearProgram) -> None:
    """Half-plane rows tying a field component's secondary output to its
    primary output, one row per plane and step."""
    T = sys.time.num_steps
    steps = np.arange(T)
    for comp in sys.sorted_components():
        conv = comp.conversion
        if not isinstance(conv, FieldConversion):
            continue
        cols = _stack(_steps(prog, VarKind.SECONDARY_OUTPUT, comp.id, T),
                      _steps(prog, VarKind.OUTPUT, comp.id, T))
        seen_le = False
        for hp in conv.half_planes:
            if hp.sense == model.SENSE_LE:
                tag, sense = (Family.FIELD_UPPER_MORE if seen_le else Family.FIELD_UPPER), LE
                seen_le = True
            else:
                tag, sense = Family.FIELD_LOWER, GE
            prog.add_rows(tag, cols, [1.0, -hp.slope], sense, hp.intercept,
                          owner=comp.id, steps=steps)


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
    steps = np.arange(T)
    dt = np.asarray(sys.time.step_hours)
    for stor in sys.sorted_storages():
        has_cap_var = stor.capacity_optimizable
        cap_col = prog.columns(VarKind.STORAGE_CAPACITY, stor.id).start if has_cap_var else None
        charge = _steps(prog, VarKind.CHARGE, stor.id, T)
        discharge = _steps(prog, VarKind.DISCHARGE, stor.id, T)
        # the fill change of step t: etac * dt * charge - dt / etad * discharge
        flow = _stack(charge, discharge)
        flow_coefs = _stack(stor.charge_efficiency * dt, -dt / stor.discharge_efficiency)

        if formulation == "recurrence":
            fill_ub = math.inf if has_cap_var else stor.capacity_fixed
            fill = prog.add_variables(VarRef(VarKind.FILL, stor.id, 0), T, 0.0, fill_ub) + steps
            # fill[t] - flow(t) - fill[t-1] = 0, and fill[0] - flow(0) = initial
            # fill (its previous-fill column is padding with coefficient 0)
            later = steps > 0
            prog.add_rows(Family.FILL_FLOOR, _stack(fill, flow, np.maximum(fill - 1, fill[0])),
                          _stack(1.0, -flow_coefs, np.where(later, -1.0, 0.0)), EQ,
                          np.where(later, 0.0, stor.initial_fill), owner=stor.id, steps=steps)
            if has_cap_var:
                prog.add_rows(Family.FILL_CAP, _stack(fill, cap_col), [1.0, -1.0], LE,
                              stor.capacity_fixed, owner=stor.id, steps=steps)
            if sys.final_fill_at_least_initial:
                prog.add_row(Family.FILL_FLOOR, [(int(fill[-1]), 1.0)], GE, stor.initial_fill,
                             owner=stor.id, step=T - 1)
        else:
            # row t sums the flows of steps 0..t; later steps are zero padding
            cum_cols = np.broadcast_to(flow.ravel(), (T, 2 * T))
            upto = np.repeat(steps[None, :] <= steps[:, None], 2, axis=1)
            cum_coefs = np.where(upto, flow_coefs.ravel(), 0.0)
            prog.add_rows(Family.FILL_FLOOR, cum_cols, cum_coefs, GE, -stor.initial_fill,
                          owner=stor.id, steps=steps)
            if has_cap_var:
                cum_cols = _stack(cum_cols, cap_col)
                cum_coefs = _stack(cum_coefs, -1.0)
            prog.add_rows(Family.FILL_CAP, cum_cols, cum_coefs, LE,
                          stor.capacity_fixed - stor.initial_fill, owner=stor.id, steps=steps)
            if sys.final_fill_at_least_initial:
                prog.add_rows(Family.FILL_FLOOR, flow.reshape(1, -1), flow_coefs.reshape(1, -1),
                              GE, 0.0, owner=stor.id, steps=T - 1)

        rate = stor.rate
        if isinstance(rate, CRateLink) and has_cap_var:
            inv = 1.0 / rate.ratio
            for tag, flows in ((Family.CHARGE_RATE, charge), (Family.DISCHARGE_RATE, discharge)):
                prog.add_rows(tag, _stack(flows, cap_col), [1.0, -inv], LE,
                              inv * stor.capacity_fixed, owner=stor.id, steps=steps)
        elif isinstance(rate, OptimizedRate):
            for tag, flows, kind in ((Family.CHARGE_RATE, charge, VarKind.MAX_CHARGE),
                                     (Family.DISCHARGE_RATE, discharge, VarKind.MAX_DISCHARGE)):
                prog.add_rows(tag, _stack(flows, prog.columns(kind, stor.id).start),
                              [1.0, -1.0], LE, 0.0, owner=stor.id, steps=steps)


def emit_ramp_limits(sys: EnergySystem, prog: LinearProgram) -> None:
    """Limit the output change between successive steps, either to a fraction
    of installed capacity or to a costed headroom variable.

    A fixed-ramp row that the capacity limit already implies is not emitted
    (verification checks it from the system).  With C = initial + installed
    >= 0, the capacity row gives out_t <= avail[t] * C and out >= 0, so the
    up row at t holds whenever up >= avail[t], and the down row whenever
    down >= avail[t-1] and both steps share C (the same building period).
    Committed components have no such row and keep all their ramp rows."""
    T = sys.time.num_steps
    if T < 2:
        return
    steps = np.arange(1, T)
    periods = np.asarray(sys.time.period_of_step)
    for comp in sys.sorted_components():
        ramp = comp.ramp
        if ramp is None:
            continue
        out = _steps(prog, VarKind.OUTPUT, comp.id, T)
        now, prev = out[1:], out[:-1]
        if isinstance(ramp, FixedRamp):
            # the fraction is applied per step, whatever the step length
            up_frac, down_frac = ramp.up_per_hour, ramp.down_per_hour
            capped = not comp.committed  # has a capacity row per step
            avail = np.asarray(comp.capacity.availability_series(T))
            inst = _installed_cols(prog, comp, periods)
            if inst is None:
                up, down, same_cap = _stack(now, prev), _stack(prev, now), True
                up_coefs = down_coefs = [1.0, -1.0]
            else:
                up, down = _stack(now, prev, inst[1:]), _stack(prev, now, inst[1:])
                up_coefs, down_coefs = [1.0, -1.0, -up_frac], [1.0, -1.0, -down_frac]
                same_cap = inst[1:] == inst[:-1]
            keep = ~(capped & (up_frac >= avail[1:]))
            prog.add_rows(Family.RAMP_UP, up[keep], up_coefs, LE,
                          up_frac * comp.capacity.initial, owner=comp.id, steps=steps[keep])
            keep = ~(capped & (down_frac >= avail[:-1]) & same_cap)
            prog.add_rows(Family.RAMP_DOWN, down[keep], down_coefs, LE,
                          down_frac * comp.capacity.initial, owner=comp.id, steps=steps[keep])
        else:
            for tag, cols, kind in ((Family.RAMP_UP, _stack(now, prev), VarKind.RAMP_UP),
                                    (Family.RAMP_DOWN, _stack(prev, now), VarKind.RAMP_DOWN)):
                prog.add_rows(tag, _stack(cols, prog.columns(kind, comp.id).start),
                              [1.0, -1.0, -1.0], LE, 0.0, owner=comp.id, steps=steps)


def emit_build_periods(sys: EnergySystem, prog: LinearProgram) -> None:
    """Capacity added from one building period to the next: installed(p) -
    installed(p-1) <= built(p), with built pushed down by its cost."""
    P = sys.time.num_periods
    if P < 2:
        return
    periods = np.arange(1, P)
    for comp in sys.sorted_components():
        if comp.committed or not (comp.capacity.optimizable and comp.capacity.per_period):
            continue
        installed = prog.columns(VarKind.INSTALLED_PERIOD, comp.id).start + periods
        built = prog.columns(VarKind.BUILT, comp.id).start + periods - 1
        prog.add_rows(Family.BUILT_DEFINITION, _stack(installed, installed - 1, built),
                      [1.0, -1.0, -1.0], LE, 0.0, owner=comp.id, steps=periods)


def emit_unit_commitment(sys: EnergySystem, prog: LinearProgram) -> None:
    """On/off operation: output boxed between on*min_load and
    on*unit_capacity*availability, startup accounting, optional unit-count
    coupling and minimum up/down times (binary on only)."""
    T = sys.time.num_steps
    steps = np.arange(T)
    later = steps > 0
    for comp in sys.sorted_components():
        com = comp.commitment
        if com is None:
            continue
        avail = np.asarray(comp.capacity.availability_series(T))
        out = _steps(prog, VarKind.OUTPUT, comp.id, T)
        on = _steps(prog, VarKind.ON, comp.id, T)
        startup = _steps(prog, VarKind.STARTUP, comp.id, T)
        prog.add_rows(Family.COMMIT_MAX, _stack(out, on),
                      _stack(1.0, -com.unit_capacity * avail), LE, 0.0,
                      owner=comp.id, steps=steps)
        prog.add_rows(Family.COMMIT_MIN, _stack(out, on), [1.0, -com.unit_min_load], GE, 0.0,
                      owner=comp.id, steps=steps)
        # on[t] - startup[t] - on[t-1] <= 0, and on[0] - startup[0] <= initial_on
        # (its previous-on column is padding with coefficient 0)
        prog.add_rows(Family.STARTUP_DEFINITION, _stack(on, startup, np.maximum(on - 1, on[0])),
                      _stack(1.0, -1.0, np.where(later, -1.0, 0.0)), LE,
                      np.where(later, 0.0, float(com.initial_on)), owner=comp.id, steps=steps)
        if com.optimize_units:
            prog.add_rows(Family.UNIT_COUNT,
                          _stack(on, prog.columns(VarKind.UNITS, comp.id).start),
                          [1.0, -1.0], LE, 0.0, owner=comp.id, steps=steps)

        # minimum up/down times as startup windows (Rajan & Takriti 2005), no
        # startups before step 0 and on[t] = initial_on for t < 0:
        #   uptime:   sum_{i=t-N+1..t} startup[i] <= on[t]
        #   downtime: sum_{i=t-N+1..t} startup[i] <= 1 - on[t-N]
        for n_steps, tag in ((com.min_down_steps, Family.MIN_DOWNTIME),
                             (com.min_up_steps, Family.MIN_UPTIME)):
            if n_steps <= 0:
                continue
            # window entry j of row t is startup[t-N+1+j]; steps before 0 are padding
            lag = steps[:, None] - n_steps + 1 + np.arange(n_steps)
            window, window_coefs = startup[0] + np.maximum(lag, 0), (lag >= 0) * 1.0
            if tag == Family.MIN_UPTIME:
                prog.add_rows(tag, _stack(window, on), _stack(window_coefs, -1.0), LE, 0.0,
                              owner=comp.id, steps=steps)
            else:
                back = steps - n_steps
                prog.add_rows(tag, _stack(window, on[0] + np.maximum(back, 0)),
                              _stack(window_coefs, (back >= 0) * 1.0), LE,
                              np.where(back >= 0, 1.0, 1.0 - com.initial_on),
                              owner=comp.id, steps=steps)


def _objective_blocks(sys: EnergySystem,
                      prog: LinearProgram) -> Iterator[tuple[np.ndarray, str, np.ndarray]]:
    """All objective contributions as (columns, category, coefficients)
    blocks: two R x k arrays, entry (r, j) of one costing the column at
    entry (r, j) of the other, step or period r of a block of ``prog``.

    Categories: fuel, invest, maintenance, startup, storage, ramp, emission,
    built.  Fuel and emission terms are per MWh of input and weighted by the
    step duration; annualised capacity costs are scaled by the covered share
    of a year (per building period where applicable).
    """
    grid = sys.time
    T = grid.num_steps
    P = grid.num_periods
    dt = np.asarray(grid.step_hours)
    share_total = annual_share(grid.total_hours)

    def one(coef: float) -> np.ndarray:
        return np.array([[coef]], dtype=float)

    def cols(owner: str, n: int, *kinds: VarKind) -> np.ndarray:
        return _block_cols(prog, [(kind, owner) for kind in kinds], n)

    for comp in sys.sorted_components():
        costs = comp.costs
        eta = comp.primary_efficiency()
        fuel = np.asarray(costs.fuel_series(T))
        emis = (costs.emission_price or 0.0) * costs.emission_factor
        com = comp.commitment
        partial = com.partial_load if com is not None else None
        kinds = (VarKind.OUTPUT, VarKind.ON) if partial is not None else (VarKind.OUTPUT,)
        flows = cols(comp.id, T, *kinds)
        for category, price, priced in (("fuel", fuel, fuel.any()),
                                        ("emission", emis, emis != 0.0)):
            if not priced:
                continue
            if partial is not None:
                yield flows, category, _stack(partial.slope * dt * price,
                                              partial.offset * dt * price)
            else:
                yield flows, category, (dt * price / eta)[:, None]
        invest = _effective_invest(comp)
        maint = costs.maintenance
        if com is not None:
            if com.optimize_units:
                units = cols(comp.id, 1, VarKind.UNITS)
                if invest:
                    yield units, "invest", one(invest * com.unit_capacity * share_total)
                if maint:
                    yield units, "maintenance", one(maint * com.unit_capacity * share_total)
            if com.startup_cost:
                yield (cols(comp.id, T, VarKind.STARTUP), "startup",
                       np.full((T, 1), com.startup_cost, dtype=float))
        elif comp.capacity.optimizable:
            if comp.capacity.per_period:
                shares = np.array([annual_share(grid.hours_in_period(p)) for p in range(P)])
                installed = cols(comp.id, P, VarKind.INSTALLED_PERIOD)
                if invest:
                    yield installed, "invest", (invest * shares)[:, None]
                if maint:
                    yield installed, "maintenance", (maint * shares)[:, None]
                if costs.built and P > 1:
                    yield (cols(comp.id, P - 1, VarKind.BUILT), "built",
                           np.full((P - 1, 1), costs.built, dtype=float))
            else:
                installed = cols(comp.id, 1, VarKind.INSTALLED)
                if invest:
                    yield installed, "invest", one(invest * share_total)
                if maint:
                    yield installed, "maintenance", one(maint * share_total)
        if isinstance(comp.ramp, OptimizedRamp):
            if comp.ramp.cost_up:
                yield cols(comp.id, 1, VarKind.RAMP_UP), "ramp", one(comp.ramp.cost_up)
            if comp.ramp.cost_down:
                yield cols(comp.id, 1, VarKind.RAMP_DOWN), "ramp", one(comp.ramp.cost_down)
    for stor in sys.sorted_storages():
        if stor.capacity_optimizable and stor.capacity_cost:
            yield (cols(stor.id, 1, VarKind.STORAGE_CAPACITY), "storage",
                   one(stor.capacity_cost * share_total))
        if isinstance(stor.rate, OptimizedRate):
            if stor.rate.cost_charge:
                yield (cols(stor.id, 1, VarKind.MAX_CHARGE), "storage",
                       one(stor.rate.cost_charge * share_total))
            if stor.rate.cost_discharge:
                yield (cols(stor.id, 1, VarKind.MAX_DISCHARGE), "storage",
                       one(stor.rate.cost_discharge * share_total))


def emit_objective(sys: EnergySystem, prog: LinearProgram) -> None:
    """Minimisation coefficients for every costed variable, a block at a
    time; :meth:`LinearProgram.finalize` sums them into the objective."""
    for cols, _, coefs in _objective_blocks(sys, prog):
        prog.add_costs(cols, coefs)


def emit_co2_cap(sys: EnergySystem, prog: LinearProgram) -> None:
    """Single row capping total emissions over the horizon, in kg: input
    energy per step times the specific emission factor."""
    if sys.co2_cap is None or math.isinf(sys.co2_cap):
        return
    T = sys.time.num_steps
    dt = np.asarray(sys.time.step_hours)
    cols, coefs = [np.zeros(0, np.int64)], [np.zeros(0)]
    for comp in sys.sorted_components():
        factor = comp.costs.emission_factor
        if factor == 0.0:
            continue
        partial = comp.commitment.partial_load if comp.committed else None
        if partial is not None:
            blocks = [(VarKind.OUTPUT, comp.id), (VarKind.ON, comp.id)]
            block = _stack(partial.slope * factor * dt, partial.offset * factor * dt)
        else:
            blocks = [(VarKind.OUTPUT, comp.id)]
            block = factor * dt[:, None] / comp.primary_efficiency()
        cols.append(_block_cols(prog, blocks, T).ravel())
        coefs.append(block.ravel())
    prog.add_rows(Family.CO2_CAP, np.concatenate(cols)[None], np.concatenate(coefs)[None], LE,
                  sys.co2_cap)


def compile_system(sys: EnergySystem, *, storage_formulation: str = "recurrence",
                   ) -> LinearProgram:
    """Compile a validated system into a finalized program.

    Raises :class:`CompileError` when validation reports errors.  Warnings,
    e.g. an all-zero load or a slack left without a cost (COSTLESS_SLACK),
    do not block and are not repeated here: they are in
    ``validate_system(sys).warnings``.  Pure function: it raises no Python
    warning, and repeated calls return programs with identical fingerprints.
    """
    report = model.validate_system(sys)
    if not report.ok:
        raise CompileError(report)
    prog = LinearProgram()
    _declare_variables(sys, prog)
    emit_capacity_limits(sys, prog)
    emit_node_balances(sys, prog)
    emit_characteristic_field(sys, prog)
    emit_storage(sys, prog, formulation=storage_formulation)
    emit_ramp_limits(sys, prog)
    emit_build_periods(sys, prog)
    emit_unit_commitment(sys, prog)
    emit_objective(sys, prog)
    emit_co2_cap(sys, prog)
    prog.finalize()
    return prog


# ---------------------------------------------------------------------------
# LP-format export (diagnostic cross-check against external solvers)


_NOT_NAME = re.compile(r"\W")  # a character neither alphanumeric nor "_"
_LP_CHUNK_ROWS = 8192  # constraint rows formatted and written at a time


def _lp_name(text: str) -> str:
    return _NOT_NAME.sub("_", text)


def _distinct(values: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The distinct float64 bit patterns among ``values``, as floats (so
    -0.0 and 0.0 stay apart), and each value's place among them."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    return bits.view(float).tolist(), inverse.reshape(-1)


def _g17(values: np.ndarray) -> np.ndarray:
    """The ``.17g`` text of each value, formatted once per distinct value."""
    distinct, inverse = _distinct(values)
    return np.array([f"{v:.17g}" for v in distinct], dtype=object)[inverse]


def _term_texts(coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each coefficient's text as a row's first term ("2 ", "- 2 ") and as a
    later term (" + 2 ", " - 2 "), formatted once per distinct value; each
    ends in the space before its variable's name."""
    distinct, inverse = _distinct(coefs)
    first = [f"- {-v:.17g} " if v < 0 else f"{v:.17g} " for v in distinct]
    later = [f" - {-v:.17g} " if v < 0 else f" + {v:.17g} " for v in distinct]
    return np.array(first, dtype=object)[inverse], np.array(later, dtype=object)[inverse]


def _lp_lines(heads, tails: tuple, indptr: np.ndarray, first: np.ndarray,
              later: np.ndarray, names: np.ndarray) -> str:
    """Rows as text: row i is heads[i], then its terms indptr[i]:indptr[i+1],
    each the coefficient's text (``first`` for the row's first term, else
    ``later``) and its variable's ``names`` entry, then entry i of each of
    ``tails`` in turn (a string stands for the same text on every row)."""
    counts, rows = np.diff(indptr), np.arange(indptr.size - 1)
    width = 1 + len(tails)  # a row's pieces besides its terms
    # row i takes pieces width * i + 2 * indptr[i] to width * (i + 1) + 2 * indptr[i + 1] - 1
    head_at = width * rows + 2 * indptr[:-1]
    term_at = width * np.repeat(rows, counts) + 2 * np.arange(indptr[-1]) + 1
    pieces = np.empty(width * rows.size + 2 * indptr[-1], dtype=object)
    pieces[head_at] = heads
    for k, tail in enumerate(tails, start=1):
        pieces[head_at + 2 * counts + k] = tail
    pieces[term_at] = later
    pieces[term_at + 1] = names
    starts = indptr[:-1][counts > 0]
    pieces[term_at[starts]] = first[starts]
    return "".join(pieces.tolist())


def write_lp(prog: LinearProgram, path) -> None:
    """Write the program in LP text format to ``path``.

    The constraint rows are built from the program's arrays and written
    ``_LP_CHUNK_ROWS`` rows at a time.  Each distinct number is formatted
    once (``.17g``, keyed by its float64 bit pattern, so -0.0 stays ``-0``),
    with the spaces around it, and each row name's (tag, owner) part and
    each variable block's name stem are made LP-safe once (non-word
    characters become ``_``).  A row's name is one format of its (tag,
    owner) part, its step and its index; its sense and right-hand side texts
    are joined into the text as they are, making no string per row.  The
    text is byte-identical to that of earlier versions, which formatted
    every term on its own.  The file is written by :func:`model.write_text`."""
    names = np.array(_block_names(prog, _lp_name), dtype=object)
    model.write_text(path, _lp_parts(prog, names))


def _lp_parts(prog: LinearProgram, names: np.ndarray) -> Iterator[str]:
    """The LP text of ``prog`` in parts, its variables named ``names``."""
    costed = np.flatnonzero(prog.objective)
    yield "Minimize\n"
    yield _lp_lines([" obj: " if costed.size else " obj: 0"], ("\n",),
                    np.array([0, costed.size]), *_term_texts(prog.objective[costed]),
                    names[costed])
    yield "Subject To\n"
    A, m = prog.A, prog.num_rows
    first, later = _term_texts(A.data)
    rhs = _g17(prog.rhs)
    # the text of every step from the least to the greatest, -1 (no step) "None"
    low = int(prog.step.min(initial=0))
    step_text = np.array(["None" if s < 0 else str(s)
                          for s in range(low, int(prog.step.max(initial=0)) + 1)],
                         dtype=object)[prog.step - low].tolist()
    # rows are ordered by family and owner, so a (tag, owner) pair is one run
    tag, owner = prog.tag, prog.owner
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = (tag[1:] != tag[:-1]) | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(new_run)
    prefix = np.repeat(np.array([f" {_lp_name(f'{tag[k]}_{owner[k]}')}_"
                                 for k in starts.tolist()], dtype=object),
                       np.diff(starts, append=m)).tolist()
    for r0 in range(0, m, _LP_CHUNK_ROWS):
        r1 = min(r0 + _LP_CHUNK_ROWS, m)
        heads = [f"{p}{s}_{i}: " for p, s, i in
                 zip(prefix[r0:r1], step_text[r0:r1], range(r0, r1))]
        indptr = A.indptr[r0:r1 + 1]
        for i in np.flatnonzero(indptr[1:] == indptr[:-1]).tolist():
            heads[i] = f"\\ empty row {tag[r0 + i]}_{r0 + i}: 0"
        p0, p1 = indptr[0], indptr[-1]
        tails = (" ", prog.sense[r0:r1], " ", rhs[r0:r1], "\n")
        yield _lp_lines(heads, tails, indptr - p0, first[p0:p1], later[p0:p1],
                        names[A.indices[p0:p1]])
    yield "Bounds\n"
    bounded = np.flatnonzero((prog.lower != 0.0) | ~np.isinf(prog.upper))
    lower, upper = prog.lower[bounded], prog.upper[bounded]
    lines = []
    for i, lo, hi, lo_text, hi_text in zip(bounded.tolist(), lower.tolist(), upper.tolist(),
                                           _g17(lower).tolist(), _g17(upper).tolist()):
        if math.isinf(-lo) and math.isinf(hi):
            lines.append(f" {names[i]} free\n")
        elif lo == hi:
            lines.append(f" {names[i]} = {lo_text}\n")
        elif math.isinf(hi):
            lines.append(f" {lo_text} <= {names[i]}\n")
        else:
            lines.append(f" {lo_text} <= {names[i]} <= {hi_text}\n")
    integers = np.flatnonzero(prog.is_integer).tolist()
    if integers:
        lines.append("General\n")
        lines += [f" {names[i]}\n" for i in integers]
    lines.append("End\n")
    yield "".join(lines)
