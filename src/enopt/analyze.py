"""Map raw solver output back to the energy-system domain and verify it.

``extract_report`` slices every variable out of the solution by its block and
derives schedules, fill levels, capacities, a cost breakdown and emissions.
``verify_solution`` re-evaluates every constraint family directly from the
:class:`~enopt.model.EnergySystem`, bypassing the compiler's rows: a compiler
bug and a verifier bug would have to coincide to stay hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .finance import annual_share, capital_recovery_factor, output_side_cost
from .formulate import Family, LinearProgram, VarKind, _objective_blocks
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
    Storage,
)
from .solver import Solution, Status
from .solver.core import FEASIBILITY_TOL

__all__ = [
    "NoSolutionError",
    "RunReport",
    "FamilyResidual",
    "ResidualReport",
    "SolutionView",
    "extract_report",
    "verify_solution",
    "emissions_total",
]

COST_CATEGORIES = ("fuel", "invest", "maintenance", "startup", "storage", "ramp",
                   "emission", "built")


class NoSolutionError(Exception):
    """Raised when a report is requested for an infeasible/unbounded run."""


class SolutionView:
    """Typed access to a solution's values, sliced by the program's blocks.

    The view holds its own copy of the values; a block is read as a slice
    of that copy, found by its kind and owner (:meth:`LinearProgram.columns`),
    so no array it hands out shares memory with the solution."""

    def __init__(self, sys: EnergySystem, prog: LinearProgram, sol: Solution):
        self.sys = sys
        self.prog = prog
        self.values = np.array(sol.values, dtype=float)

    def value(self, kind: VarKind, owner: str) -> float:
        """The value of a one-variable block."""
        return float(self.values[self.prog.columns(kind, owner).start])

    def series(self, kind: VarKind, owner: str) -> np.ndarray:
        """The values of a block, one per step (or period) it spans."""
        return self.values[self.prog.columns(kind, owner)]

    def output(self, comp_id: str) -> np.ndarray:
        return self.series(VarKind.OUTPUT, comp_id)

    def secondary(self, comp_id: str) -> np.ndarray:
        return self.series(VarKind.SECONDARY_OUTPUT, comp_id)

    def on(self, comp_id: str) -> np.ndarray:
        return self.series(VarKind.ON, comp_id)

    def startups(self, comp_id: str) -> np.ndarray:
        return self.series(VarKind.STARTUP, comp_id)

    def charge(self, stor_id: str) -> np.ndarray:
        return self.series(VarKind.CHARGE, stor_id)

    def discharge(self, stor_id: str) -> np.ndarray:
        return self.series(VarKind.DISCHARGE, stor_id)

    def units(self, comp: Component) -> float:
        """Unit count of a committed component."""
        com = comp.commitment
        if com.optimize_units:
            return self.value(VarKind.UNITS, comp.id)
        return float(com.max_units)

    def installed_per_period(self, comp: Component) -> np.ndarray:
        """Installed MW per period of an uncommitted component."""
        P = max(self.sys.time.num_periods, 1)
        cap = comp.capacity
        out = np.full(P, float(cap.initial))
        if cap.optimizable:
            if cap.per_period:
                out += self.series(VarKind.INSTALLED_PERIOD, comp.id)
            else:
                out += self.value(VarKind.INSTALLED, comp.id)
        return out

    def installed_at_step(self, comp: Component) -> np.ndarray:
        """Installed MW per step of an uncommitted component."""
        per_period = self.installed_per_period(comp)
        return per_period[np.array(self.sys.time.period_of_step)]

    def storage_capacity(self, stor: Storage) -> float:
        cap = stor.capacity_fixed
        if stor.capacity_optimizable:
            cap += self.value(VarKind.STORAGE_CAPACITY, stor.id)
        return cap

    def fill_recomputed(self, stor: Storage) -> np.ndarray:
        """Fill level from the raw charge/discharge series; independent of
        any fill variables the compiler may have introduced."""
        dt = np.array(self.sys.time.step_hours)
        delta = (self.charge(stor.id) * stor.charge_efficiency * dt
                 - self.discharge(stor.id) / stor.discharge_efficiency * dt)
        return stor.initial_fill + np.cumsum(delta)

    def fill(self, stor: Storage) -> np.ndarray:
        """The fill variables where the program has them, else the fill
        recomputed from the flows."""
        try:
            return self.series(VarKind.FILL, stor.id)
        except KeyError:
            return self.fill_recomputed(stor)

    def input_energy(self, comp: Component) -> np.ndarray:
        """MWh drawn from the input node per step (equals delivered energy
        for boundary sources)."""
        dt = np.array(self.sys.time.step_hours)
        out = self.output(comp.id)
        partial = comp.commitment.partial_load if comp.committed else None
        if partial is not None:
            return (partial.slope * out + partial.offset * self.on(comp.id)) * dt
        return out / comp.primary_efficiency() * dt


# ---------------------------------------------------------------------------
# emission accounting


def emissions_total(sys: EnergySystem, prog: LinearProgram, sol: Solution) -> float:
    """Total emissions in kg over the horizon, mirroring the cap row."""
    view = SolutionView(sys, prog, sol)
    total = 0.0
    for comp in sys.sorted_components():
        factor = comp.costs.emission_factor
        if factor:
            total += float(view.input_energy(comp).sum()) * factor
    return total


# ---------------------------------------------------------------------------
# report extraction


@dataclass(frozen=True)
class RunReport:
    """Domain quantities of one solution; every field feeds an artifact.

    - ``summary.txt`` and ``report.json``: ``status``, ``objective``,
      ``bound``, ``gap``, ``capacities``, ``storage_capacities``,
      ``cost_breakdown``, ``emissions_kg``, ``capacity_factors``, ``residuals``
    - ``report.json`` only: ``unit_counts``, ``output_variance``
    - ``schedule.csv``: ``schedules``, ``secondary_outputs`` (both also in
      ``report.json``; ``schedules`` in ``plot_data.json`` too)
    - ``fill.csv``: ``storage_charge``, ``storage_discharge``,
      ``storage_fill`` (the last also in ``report.json`` and ``plot_data.json``)
    """

    status: str
    objective: float
    bound: float
    gap: float
    schedules: dict
    secondary_outputs: dict
    storage_charge: dict
    storage_discharge: dict
    storage_fill: dict
    capacities: dict  # component id -> installed MW (tuple per period when split)
    storage_capacities: dict
    unit_counts: dict
    cost_breakdown: dict
    emissions_kg: float
    # dispatch statistics: qualitative behaviour (base load vs peaking) is
    # reported as numbers, not asserted
    capacity_factors: dict
    output_variance: dict
    residuals: "ResidualReport"

    @property
    def breakdown_total(self) -> float:
        return float(sum(self.cost_breakdown.values()))


def _partial_efficiency(out: np.ndarray, on: np.ndarray, slope: float,
                        offset: float) -> np.ndarray:
    denom = slope * out + offset * on
    eta = np.zeros_like(out)
    mask = denom > 1e-12
    eta[mask] = out[mask] / denom[mask]
    return eta


def extract_report(sys: EnergySystem, prog: LinearProgram, sol: Solution) -> RunReport:
    """Resolve a solution into domain quantities.

    Accepts optimal solutions and bound-limited incumbents; anything else,
    a bound-limited run without an incumbent too, raises :class:`NoSolutionError`.
    """
    if sol.status not in (Status.OPTIMAL, Status.GAP_LIMIT) or not sol.integral:
        raise NoSolutionError(f"no usable solution: {sol.status.value} ({sol.message})")
    view = SolutionView(sys, prog, sol)

    schedules, secondary = {}, {}
    capacities, unit_counts, cap_factor, variance = {}, {}, {}, {}
    for comp in sys.sorted_components():
        out = view.output(comp.id)
        schedules[comp.id] = out
        variance[comp.id] = float(np.var(out))
        conv = comp.conversion
        if isinstance(conv, CoupledConversion):
            secondary[comp.id] = conv.ratio * out
        elif isinstance(conv, FieldConversion):
            secondary[comp.id] = view.secondary(comp.id)
        if comp.committed:
            units = unit_counts[comp.id] = view.units(comp)
            reference = capacities[comp.id] = units * comp.commitment.unit_capacity
        else:
            per_period = view.installed_per_period(comp)
            if comp.capacity.per_period:
                capacities[comp.id] = tuple(float(v) for v in per_period)
            else:
                capacities[comp.id] = float(per_period[0])
            reference = float(view.installed_at_step(comp).max(initial=0.0))
        cap_factor[comp.id] = (float(out.mean()) / reference if reference > 1e-12
                               else 0.0)

    charge, discharge, fill, stor_caps = {}, {}, {}, {}
    for stor in sys.sorted_storages():
        charge[stor.id] = view.charge(stor.id)
        discharge[stor.id] = view.discharge(stor.id)
        fill[stor.id] = view.fill(stor)
        stor_caps[stor.id] = view.storage_capacity(stor)

    breakdown = {cat: 0.0 for cat in COST_CATEGORIES}
    for cols, category, coefs in _objective_blocks(sys, prog):
        terms = coefs * view.values[cols]
        for term in terms[coefs != 0.0].tolist():  # the nonzero terms, row-major
            breakdown[category] += term

    residuals = verify_solution(sys, prog, sol)
    return RunReport(
        status=sol.status.value,
        objective=sol.objective,
        bound=sol.bound,
        gap=sol.gap,
        schedules=schedules,
        secondary_outputs=secondary,
        storage_charge=charge,
        storage_discharge=discharge,
        storage_fill=fill,
        capacities=capacities,
        storage_capacities=stor_caps,
        unit_counts=unit_counts,
        cost_breakdown=breakdown,
        emissions_kg=emissions_total(sys, prog, sol),
        capacity_factors=cap_factor,
        output_variance=variance,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# solution verification


@dataclass(frozen=True)
class FamilyResidual:
    family: str
    residual: float  # scaled: each check divides by max(1, |reference|)
    checks: int


@dataclass(frozen=True)
class ResidualReport:
    """Per-family residuals; each passes within ``FEASIBILITY_TOL``."""

    families: tuple

    def _find(self, family) -> FamilyResidual:
        tag = family.value if isinstance(family, Family) else str(family)
        for fam in self.families:
            if fam.family == tag:
                return fam
        raise KeyError(tag)

    def residual(self, family) -> float:
        return self._find(family).residual

    def checks(self, family) -> int:
        return self._find(family).checks

    @property
    def worst(self) -> float:
        """The largest residual; NaN when any residual is NaN."""
        return float(np.max([f.residual for f in self.families], initial=0.0))

    @property
    def passed(self) -> bool:
        return all(f.residual <= FEASIBILITY_TOL for f in self.families)

    def summary_lines(self) -> list[str]:
        word = "PASS" if self.passed else "FAIL"
        lines = [f"verification {word} (worst scaled residual {self.worst:.3e})"]
        for fam in self.families:
            flag = "ok" if fam.residual <= FEASIBILITY_TOL else "VIOLATED"
            lines.append(f"  {fam.family:<5} {flag:<9} residual {fam.residual:.3e} "
                         f"({fam.checks} checks)")
        return lines


class _Collector:
    # keyed by the Family members (hashed as their str values); the tag
    # text is read once, in report()
    def __init__(self):
        self.worst = dict.fromkeys(Family, 0.0)
        self.count = dict.fromkeys(Family, 0)

    def note(self, family: Family, residual: float, checks: int = 1) -> None:
        if residual > self.worst[family] or math.isnan(residual):  # a noted NaN stays
            self.worst[family] = float(residual)
        self.count[family] += checks

    def report(self) -> ResidualReport:
        return ResidualReport(tuple(FamilyResidual(f.value, self.worst[f], self.count[f])
                                    for f in Family))


def _pos(x) -> float:
    return float(np.max(np.maximum(x, 0.0), initial=0.0))


def _verify_capacity(sys, view, col) -> None:
    T = sys.time.num_steps
    for comp in sys.sorted_components():
        if comp.committed:
            continue
        avail = np.array(comp.capacity.availability_series(T))
        limit = avail * view.installed_at_step(comp)
        viol = (view.output(comp.id) - limit) / np.maximum(1.0, limit)
        fam = Family.PERIOD_CAPACITY if comp.capacity.per_period else Family.CAPACITY_LIMIT
        col.note(fam, _pos(viol), T)
        cap = comp.capacity
        if cap.optimizable and cap.max_total is not None:
            total = view.installed_per_period(comp)
            col.note(Family.MAX_INSTALLED,
                     _pos((total - cap.max_total) / max(1.0, cap.max_total)),
                     int(total.size))


def _verify_balances(sys, view, col) -> None:
    T = sys.time.num_steps
    prod = {n.id: np.zeros(T) for n in sys.balanced_nodes()}
    fams_at = {nid: set() for nid in prod}

    def add(node_id, series, fam=None):
        if node_id in prod:
            prod[node_id] += series
            if fam is not None:
                fams_at[node_id].add(fam)

    for comp in sys.sorted_components():
        out = view.output(comp.id)
        conv = comp.conversion
        partial = comp.commitment.partial_load if comp.committed else None
        if isinstance(conv, SingleConversion):
            add(conv.output_node, out)
            if partial is not None:
                add(conv.input_node,
                    -(partial.slope * out + partial.offset * view.on(comp.id)),
                    Family.PARTIAL_BALANCE)
            else:
                add(conv.input_node, -out / conv.efficiency)
        elif isinstance(conv, SourceConversion):
            add(conv.output_node, out)
        elif isinstance(conv, CoupledConversion):
            add(conv.primary_output, out)
            add(conv.secondary_output, conv.ratio * out, Family.COUPLED_OUTPUT)
            add(conv.input_node, -out / conv.primary_efficiency)
        elif isinstance(conv, FieldConversion):
            add(conv.primary_output, out)
            add(conv.secondary_output, view.secondary(comp.id), Family.FIELD_BALANCE)
            add(conv.input_node, -out / conv.primary_efficiency)
    for stor in sys.sorted_storages():
        add(stor.node, view.discharge(stor.id) - view.charge(stor.id))

    for node in sys.balanced_nodes():
        load = np.array(node.load)
        resid = float(np.max(np.abs(prod[node.id] - load) / np.maximum(1.0, np.abs(load)),
                             initial=0.0))
        col.note(Family.NODE_BALANCE, resid, T)
        for fam in sorted(fams_at[node.id], key=lambda f: f.value):
            col.note(fam, resid, T)


def _verify_field(sys, view, col) -> None:
    for comp in sys.sorted_components():
        conv = comp.conversion
        if not isinstance(conv, FieldConversion):
            continue
        prim = view.output(comp.id)
        sec = view.secondary(comp.id)
        seen_le = False
        for hp in conv.half_planes:
            bound = hp.slope * prim + hp.intercept
            scale = np.maximum(1.0, np.abs(bound))
            if hp.sense == model.SENSE_LE:
                fam = Family.FIELD_UPPER_MORE if seen_le else Family.FIELD_UPPER
                seen_le = True
                col.note(fam, _pos((sec - bound) / scale), int(prim.size))
            else:
                col.note(Family.FIELD_LOWER, _pos((bound - sec) / scale), int(prim.size))


def _verify_storage(sys, view, col, optimal: bool) -> None:
    T = sys.time.num_steps
    for stor in sys.sorted_storages():
        cap_total = view.storage_capacity(stor)
        scale = max(1.0, cap_total)
        fill = view.fill_recomputed(stor)
        # non-negative, and the fill variables, where the program has them,
        # agree with the raw cumulative sum (otherwise the view returns it)
        col.note(Family.FILL_FLOOR,
                 _pos(np.concatenate([-fill, np.abs(view.fill(stor) - fill)]) / scale), T)
        col.note(Family.FILL_CAP, _pos((fill - cap_total) / scale), T)
        if stor.capacity_optimizable and stor.capacity_max is not None:
            col.note(Family.MAX_INSTALLED,
                     _pos((cap_total - stor.capacity_max) / max(1.0, stor.capacity_max)))
        if sys.final_fill_at_least_initial and T:
            col.note(Family.FILL_FLOOR, _pos((stor.initial_fill - fill[-1]) / scale))

        charge = view.charge(stor.id)
        discharge = view.discharge(stor.id)
        rate = stor.rate
        if isinstance(rate, FixedRate):
            climit = np.full(T, rate.max_charge)
            dlimit = np.full(T, rate.max_discharge)
        elif isinstance(rate, CRateLink):
            climit = dlimit = np.full(T, cap_total / rate.ratio)
        else:
            climit = np.full(T, view.value(VarKind.MAX_CHARGE, stor.id))
            dlimit = np.full(T, view.value(VarKind.MAX_DISCHARGE, stor.id))
        col.note(Family.CHARGE_RATE, _pos((charge - climit) / np.maximum(1.0, climit)), T)
        col.note(Family.DISCHARGE_RATE,
                 _pos((discharge - dlimit) / np.maximum(1.0, dlimit)), T)

        if optimal and isinstance(rate, OptimizedRate):
            if rate.cost_charge > 0:
                need = float(charge.max(initial=0.0))
                col.note(Family.COST_EXTENDED,
                         abs(view.value(VarKind.MAX_CHARGE, stor.id) - need)
                         / max(1.0, need))
            if rate.cost_discharge > 0:
                need = float(discharge.max(initial=0.0))
                col.note(Family.COST_EXTENDED,
                         abs(view.value(VarKind.MAX_DISCHARGE, stor.id) - need)
                         / max(1.0, need))
        if optimal and stor.capacity_optimizable and stor.capacity_cost > 0:
            needed = float(fill.max(initial=0.0))
            if isinstance(rate, CRateLink):
                needed = max(needed, rate.ratio * float(charge.max(initial=0.0)),
                             rate.ratio * float(discharge.max(initial=0.0)))
            needed_var = _pos(needed - stor.capacity_fixed)
            col.note(Family.COST_EXTENDED,
                     abs(view.value(VarKind.STORAGE_CAPACITY, stor.id) - needed_var)
                     / max(1.0, needed_var))


def _verify_ramps(sys, view, col, optimal: bool) -> None:
    T = sys.time.num_steps
    for comp in sys.sorted_components():
        ramp = comp.ramp
        if ramp is None or T < 2:
            continue
        diff = np.diff(view.output(comp.id))
        if isinstance(ramp, FixedRamp):
            cap_t = view.installed_at_step(comp)[1:]
            up_limit = ramp.up_per_hour * cap_t
            down_limit = ramp.down_per_hour * cap_t
        else:
            up_limit = np.full(T - 1, view.value(VarKind.RAMP_UP, comp.id))
            down_limit = np.full(T - 1, view.value(VarKind.RAMP_DOWN, comp.id))
        col.note(Family.RAMP_UP, _pos((diff - up_limit) / np.maximum(1.0, up_limit)), T - 1)
        col.note(Family.RAMP_DOWN,
                 _pos((-diff - down_limit) / np.maximum(1.0, down_limit)), T - 1)
        if optimal and isinstance(ramp, OptimizedRamp):
            if ramp.cost_up > 0:
                need = _pos(diff)
                col.note(Family.COST_EXTENDED,
                         abs(view.value(VarKind.RAMP_UP, comp.id) - need)
                         / max(1.0, need))
            if ramp.cost_down > 0:
                need = _pos(-diff)
                col.note(Family.COST_EXTENDED,
                         abs(view.value(VarKind.RAMP_DOWN, comp.id) - need)
                         / max(1.0, need))


def _verify_periods(sys, view, col, optimal: bool) -> None:
    P = sys.time.num_periods
    if P < 2:
        return
    for comp in sys.sorted_components():
        if comp.committed or not (comp.capacity.optimizable and comp.capacity.per_period):
            continue
        inst = view.installed_per_period(comp) - comp.capacity.initial
        built_in = view.series(VarKind.BUILT, comp.id).tolist()  # periods 1 .. P-1
        for p in range(1, P):
            built = built_in[p - 1]
            growth = float(inst[p] - inst[p - 1])
            scale = max(1.0, abs(growth))
            col.note(Family.BUILT_DEFINITION, _pos((growth - built) / scale))
            if optimal and comp.costs.built > 0:
                col.note(Family.BUILT_DEFINITION, abs(built - _pos(growth)) / scale)


def _verify_commitment(sys, view, col, optimal: bool) -> None:
    T = sys.time.num_steps
    for comp in sys.sorted_components():
        com = comp.commitment
        if com is None:
            continue
        out = view.output(comp.id)
        on = view.on(comp.id)
        startup = view.startups(comp.id)
        avail = np.array(comp.capacity.availability_series(T))
        upper = on * com.unit_capacity * avail
        col.note(Family.COMMIT_MAX, _pos((out - upper) / np.maximum(1.0, upper)), T)
        lower = on * com.unit_min_load
        col.note(Family.COMMIT_MIN, _pos((lower - out) / np.maximum(1.0, lower)), T)

        prev = np.concatenate([[float(com.initial_on)], on[:-1]])
        diff = on - prev
        col.note(Family.STARTUP_DEFINITION, _pos(diff - startup), T)
        if optimal and com.startup_cost > 0:
            col.note(Family.STARTUP_DEFINITION,
                     float(np.max(np.abs(startup - np.maximum(diff, 0.0)), initial=0.0)), T)

        units = view.units(comp)  # max_units when the count is fixed
        col.note(Family.UNIT_COUNT, _pos((on - units) / max(1.0, units)), T)
        if com.optimize_units:
            col.note(Family.MAX_INSTALLED, _pos((units - com.max_units) / com.max_units))

        if com.partial_load is not None:
            eta = _partial_efficiency(out, on, com.partial_load.slope,
                                      com.partial_load.offset)
            cap = 1.0 / com.partial_load.slope
            col.note(Family.PARTIAL_EFFICIENCY, max(_pos(eta - cap), _pos(-eta)), T)

        for n_steps, fam, up in ((com.min_down_steps, Family.MIN_DOWNTIME, False),
                                 (com.min_up_steps, Family.MIN_UPTIME, True)):
            if n_steps <= 0:
                continue
            # on at steps -n_steps .. T-1, the steps before 0 at initial_on;
            # each step's window sums its n_steps predecessors nearest first
            history = np.concatenate([np.full(n_steps, float(min(com.initial_on, 1))), on])
            window = np.zeros(T)
            for m in range(1, n_steps + 1):
                window += history[n_steps - m:n_steps - m + T]
            jump = history[n_steps:] - history[n_steps - 1:-1]
            if up:
                viol = (-jump) * n_steps - window
            else:
                viol = jump * n_steps - (n_steps - window)
            col.note(fam, _pos(viol / n_steps), T)


def _verify_costs(sys, view, col, sol) -> None:
    """Recompute the full cost from the system with independent loops."""
    grid = sys.time
    share = annual_share(grid.total_hours)
    total = 0.0
    for comp in sys.sorted_components():
        costs = comp.costs
        input_mwh = view.input_energy(comp)
        fuel = np.array(costs.fuel_series(grid.num_steps))
        total += float(input_mwh @ fuel)
        if costs.emission_price:
            total += float(input_mwh.sum()) * costs.emission_factor * costs.emission_price

        invest = costs.invest
        if costs.annuity is not None:
            ann = costs.annuity
            crf = capital_recovery_factor(ann.interest_rate, ann.lifetime)
            invest = ann.total_investment * crf
            # re-evaluate through the direct growth form, a different
            # floating-point path than the implementation's reciprocal one
            if ann.interest_rate == 0:
                alt = 1.0 / ann.lifetime
            else:
                growth = (1.0 + ann.interest_rate) ** ann.lifetime
                alt = (ann.interest_rate if math.isinf(growth)
                       else growth * ann.interest_rate / (growth - 1.0))
            col.note(Family.ANNUITY_FACTOR, abs(crf - alt) / max(1.0, abs(alt)))
        if costs.invest_side == "input":
            eta = comp.primary_efficiency()
            converted = output_side_cost(invest, eta)
            col.note(Family.COST_SIDE_CONVERSION,
                     abs(converted * eta - invest) / max(1.0, invest))
            invest = converted

        com = comp.commitment
        if com is not None:
            if com.optimize_units:
                total += ((invest + costs.maintenance) * com.unit_capacity
                          * view.units(comp) * share)
            total += com.startup_cost * float(view.startups(comp.id).sum())
        elif comp.capacity.optimizable:
            if comp.capacity.per_period:
                installed = view.series(VarKind.INSTALLED_PERIOD, comp.id).tolist()
                for p in range(grid.num_periods):
                    total += (invest + costs.maintenance) * installed[p] * annual_share(
                        grid.hours_in_period(p))
                for built in view.series(VarKind.BUILT, comp.id).tolist():  # periods 1 .. P-1
                    total += costs.built * built
            else:
                inst = view.value(VarKind.INSTALLED, comp.id)
                total += (invest + costs.maintenance) * inst * share
        if isinstance(comp.ramp, OptimizedRamp):
            total += comp.ramp.cost_up * view.value(VarKind.RAMP_UP, comp.id)
            total += comp.ramp.cost_down * view.value(VarKind.RAMP_DOWN, comp.id)
    for stor in sys.sorted_storages():
        if stor.capacity_optimizable:
            total += (stor.capacity_cost * share
                      * view.value(VarKind.STORAGE_CAPACITY, stor.id))
        if isinstance(stor.rate, OptimizedRate):
            total += (stor.rate.cost_charge * share
                      * view.value(VarKind.MAX_CHARGE, stor.id))
            total += (stor.rate.cost_discharge * share
                      * view.value(VarKind.MAX_DISCHARGE, stor.id))

    scale = max(1.0, abs(sol.objective))
    col.note(Family.COST_TOTAL, abs(total - sol.objective) / scale)
    recomputed = float(view.prog.objective @ view.values)
    col.note(Family.OBJECTIVE_VALUE, abs(recomputed - sol.objective) / scale)


def verify_solution(sys: EnergySystem, prog: LinearProgram, sol: Solution) -> ResidualReport:
    """Independent residuals per equation family, scaled per check by
    max(1, |reference|); PASS means all stay within ``FEASIBILITY_TOL``.

    The program names the variables and gives the objective re-check its
    coefficients; all else comes from the system, the limits the compiler
    realises only as column bounds (installed and storage capacity caps,
    unit counts) included.  Mechanism checks that only hold at optimality
    (costed slack variables sitting on their lower envelope) run only for
    Optimal solutions.  A NaN or infinite value or objective reaches at
    least the objective re-check, whose residual is then NaN or infinite:
    the point fails.
    """
    view = SolutionView(sys, prog, sol)
    col = _Collector()
    optimal = sol.status == Status.OPTIMAL

    # an infinity makes inf - inf or 0 * inf somewhere; that NaN is the verdict
    with np.errstate(invalid="ignore"):
        _verify_capacity(sys, view, col)
        _verify_balances(sys, view, col)
        _verify_field(sys, view, col)
        _verify_storage(sys, view, col, optimal)
        _verify_ramps(sys, view, col, optimal)
        _verify_periods(sys, view, col, optimal)
        _verify_commitment(sys, view, col, optimal)
        _verify_costs(sys, view, col, sol)
        if sys.co2_cap is not None and not math.isinf(sys.co2_cap):
            emis = emissions_total(sys, prog, sol)
            col.note(Family.CO2_CAP, _pos((emis - sys.co2_cap) / max(1.0, sys.co2_cap)))

    return col.report()
