"""LP entry point wrapping the simplex in the public Solution type."""

from __future__ import annotations

import math

import numpy as np

from .core import Solution, SolverConfig, Status, relative_gap
from .simplex import BasisState, BoundedSimplex, SimplexOutcome
from .standard import StandardForm, standardize

__all__ = ["solve_lp", "solve_standard_lp"]

_STATUS = {
    "optimal": Status.OPTIMAL,
    "infeasible": Status.INFEASIBLE,
    "unbounded": Status.UNBOUNDED,
    "iteration_limit": Status.ITERATION_LIMIT,
}


def solve_standard_lp(std: StandardForm, cfg: SolverConfig,
                      lower: np.ndarray | None = None,
                      upper: np.ndarray | None = None,
                      max_iterations: int | None = None,
                      start: BasisState | None = None) -> SimplexOutcome:
    """Solve the LP relaxation of a standard form, optionally with replaced
    bound vectors (used by branch and bound).

    Without ``start`` the dual simplex starts from the slack basis; with
    the optimal basis of a solve of the same standard form whose bounds were
    no tighter, it starts from that basis.  Either way a primal pass with the
    true costs finishes the solve (see :mod:`enopt.solver.simplex`).
    """
    lo = std.lower if lower is None else lower
    hi = std.upper if upper is None else upper
    if np.any(lo > hi):
        x = np.zeros(std.num_cols)
        return SimplexOutcome("infeasible", x, math.inf, None, None, 0, phase=1)
    simplex = BoundedSimplex(
        std, lo, hi, start=start,
        feasibility_tol=cfg.feasibility_tol,
        optimality_tol=cfg.optimality_tol,
        max_iterations=cfg.max_iterations if max_iterations is None else max_iterations,
    )
    return simplex.solve()


def _as_solution(prog, out: SimplexOutcome) -> Solution:
    n = getattr(prog, "num_vars")
    values = np.asarray(out.x[:n], dtype=float)
    status = _STATUS[out.status]
    objective = out.objective
    if status == Status.INFEASIBLE:
        objective = math.inf
    elif status == Status.UNBOUNDED:
        objective = -math.inf
    bound = objective if status in (Status.OPTIMAL, Status.INFEASIBLE,
                                    Status.UNBOUNDED) else -math.inf
    return Solution(
        status=status,
        values=values,
        objective=objective,
        bound=bound,
        gap=relative_gap(objective, bound),
        iterations=out.iterations,
        duals=out.y,
        reduced_costs=None if out.reduced_costs is None else out.reduced_costs[:n],
        ray=None if out.ray is None else np.asarray(out.ray[:n]),
        farkas=out.farkas,
        var_refs=tuple(getattr(prog, "var_refs", ())),
        integral=True,
        message=f"simplex finished in phase {out.phase}",
    )


def solve_lp(prog, config: SolverConfig | None = None) -> Solution:
    """Solve the program as a pure LP; integrality flags are ignored."""
    cfg = config or SolverConfig()
    std = standardize(prog)
    out = solve_standard_lp(std, cfg)
    return _as_solution(prog, out)
