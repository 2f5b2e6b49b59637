"""Independent optimality checks on returned solutions.

For LPs the check verifies primal feasibility, consistency of the reported
reduced costs with the duals, the bounded-variable duality identity and
complementary slackness.  For MILP incumbents it verifies feasibility,
integrality and validity of the reported bound.  Either check fails when
any reported number (value, objective, bound, dual or reduced cost) is not
finite, since no residual test can reject a NaN; its residuals are then
reported as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FEASIBILITY_TOL, INTEGRALITY_TOL, Solution, Status
from .standard import GE, LE

__all__ = ["CertificateReport", "check_certificate"]


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    kind: str  # "lp" or "milp"
    max_primal_residual: float
    max_dual_residual: float
    max_complementarity: float
    duality_gap: float
    max_integrality: float
    violations: tuple[str, ...] = ()

    def __str__(self) -> str:
        head = f"certificate {'OK' if self.ok else 'FAILED'} ({self.kind})"
        if self.violations:
            return head + "\n  " + "\n  ".join(self.violations)
        return head


def _primal_residuals(prog, x: np.ndarray, act: np.ndarray) -> tuple[float, list[str]]:
    rhs, sense = prog.rhs, prog.sense
    resid = np.where(sense == LE, act - rhs, np.where(sense == GE, rhs - act, np.abs(act - rhs)))
    resid /= np.maximum(1.0, np.abs(rhs))
    notes = [f"row {i} ({prog.tag[i]} {prog.owner[i]} "
             f"t={None if prog.step[i] < 0 else prog.step[i]}) residual {resid[i]:.3e}"
             for i in np.flatnonzero(resid > FEASIBILITY_TOL)]
    bound = np.maximum(np.maximum(prog.lower - x, x - prog.upper), 0.0)
    bound /= np.maximum(1.0, np.abs(x))
    notes += [f"variable {prog.ref(j).label()} out of bounds by {bound[j]:.3e}"
              for j in np.flatnonzero(bound > FEASIBILITY_TOL)]
    worst = max(resid.max(initial=0.0), bound.max(initial=0.0))
    return float(worst), notes


def _non_finite(sol: Solution) -> list[str]:
    """One note per reported quantity holding a NaN or an infinity."""
    notes = [f"{name} is {getattr(sol, name)}" for name in ("objective", "bound")
             if not np.isfinite(getattr(sol, name))]
    for name in ("values", "duals", "reduced_costs"):
        arr = getattr(sol, name)
        if arr is None:
            continue
        arr = np.asarray(arr, dtype=float)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            notes.append(f"{name} not finite at {bad.size} entries, "
                         f"first {name}[{bad[0]}] = {arr[bad[0]]}")
    return notes


def check_certificate(prog, sol: Solution) -> CertificateReport:
    """Verify an Optimal solution against the program it came from.

    Every scaled residual is judged at ``FEASIBILITY_TOL``: row and bound
    violations, the reported bound and objective, and for LPs the reduced
    costs, complementarity and duality gap.  MILP integrality is judged at
    ``INTEGRALITY_TOL``."""
    if sol.status != Status.OPTIMAL:
        raise ValueError(f"certificates only apply to optimal solutions, got {sol.status}")
    milp = sol.duals is None or prog.is_integer.any()
    bad = _non_finite(sol)
    if bad:
        nan = float("nan")
        return CertificateReport(False, "milp" if milp else "lp",
                                 nan, nan, nan, nan, nan, tuple(bad))
    x = np.asarray(sol.values, dtype=float)
    act = prog.A @ x
    primal, notes = _primal_residuals(prog, x, act)

    if milp:
        # MILP incumbent: feasibility + integrality + bound validity
        int_idx = np.flatnonzero(prog.is_integer)
        frac = np.abs(x[int_idx] - np.round(x[int_idx]))
        max_int = float(frac.max(initial=0.0))
        notes += [f"integer variable {prog.ref(j).label()} has fractional value {x[j]!r}"
                  for j in int_idx[frac > INTEGRALITY_TOL]]
        gap = sol.objective - sol.bound
        if gap < -FEASIBILITY_TOL * max(1.0, abs(sol.objective)):
            notes.append(f"reported bound {sol.bound} exceeds objective {sol.objective}")
        recomputed = float(prog.objective @ x)
        if abs(recomputed - sol.objective) > FEASIBILITY_TOL * max(1.0, abs(recomputed)):
            notes.append(f"objective mismatch: reported {sol.objective}, "
                         f"recomputed {recomputed}")
        ok = not notes
        return CertificateReport(ok, "milp", primal, 0.0, 0.0,
                                 abs(gap), max_int, tuple(notes))

    y = np.asarray(sol.duals, dtype=float)
    d = np.asarray(sol.reduced_costs, dtype=float)
    c, rhs = prog.objective, prog.rhs
    cscale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)

    # reduced costs consistent with duals: d = c - A^T y
    dhat = c - prog.A.T @ y
    dual_resid = float(np.max(np.abs(dhat - d))) / cscale if c.size else 0.0
    if dual_resid > FEASIBILITY_TOL:
        notes.append(f"reduced costs inconsistent with duals by {dual_resid:.3e}")

    # weak-duality identity for bounded variables:
    # c'x = y'b + sum_j d_j x_j + sum_i y_i (a_i'x - b_i) collapses to the
    # complementarity-weighted form below
    dual_value = float(y @ rhs + d @ x)
    slack_comp = np.abs(y * (act - rhs)) / np.maximum(1.0, np.abs(rhs)) / cscale
    notes += [f"row {i} ({prog.tag[i]}) dual {y[i]:.3e} on slack row "
              f"(complementarity {slack_comp[i]:.3e})"
              for i in np.flatnonzero(slack_comp > FEASIBILITY_TOL)]
    # only columns with a priced reduced cost, so an infinite bound never meets d = 0
    var_comp = np.zeros(prog.num_vars)
    lo = d > FEASIBILITY_TOL * cscale
    hi = d < -FEASIBILITY_TOL * cscale
    var_comp[lo] = np.abs(x[lo] - prog.lower[lo]) * d[lo] / cscale
    var_comp[hi] = np.abs(prog.upper[hi] - x[hi]) * -d[hi] / cscale
    var_comp /= np.maximum(1.0, np.abs(x))
    notes += [f"variable {prog.ref(j).label()} violates complementary "
              f"slackness by {var_comp[j]:.3e}"
              for j in np.flatnonzero(var_comp > FEASIBILITY_TOL)]
    comp = float(max(slack_comp.max(initial=0.0), var_comp.max(initial=0.0)))
    obj = float(c @ x)
    gap = abs(obj - dual_value) / max(1.0, abs(obj))
    if gap > FEASIBILITY_TOL:
        notes.append(f"duality gap {gap:.3e}")
    ok = not notes
    return CertificateReport(ok, "lp", primal, dual_resid, comp, gap, 0.0, tuple(notes))
