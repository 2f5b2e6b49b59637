"""LP entry points: a standard form, or a whole program, solved by the
bounded simplex into a :class:`~enopt.solver.core.Solution`."""

from __future__ import annotations

import math

import numpy as np

from .core import BasisState, Solution, SolverConfig, Status
from .simplex import BoundedSimplex
from .standard import StandardForm, standardize

__all__ = ["solve_lp", "solve_standard_lp"]


def solve_standard_lp(std: StandardForm, cfg: SolverConfig,
                      lower: np.ndarray | None = None,
                      upper: np.ndarray | None = None,
                      start: BasisState | None = None) -> Solution:
    """Solve the LP relaxation of a standard form, optionally with replaced
    bound vectors (used by branch and bound).

    Without ``start`` the dual simplex starts from the slack basis; with
    the optimal basis of a solve of the same standard form whose bounds were
    no tighter (its ``Solution.basis``), it starts from that basis.  Either
    way a primal pass with the true costs finishes the solve (see
    :mod:`enopt.solver.simplex`).  Crossed bounds are infeasible without a
    pivot.
    """
    lo = std.lower if lower is None else lower
    hi = std.upper if upper is None else upper
    if np.any(lo > hi):
        return Solution(status=Status.INFEASIBLE, values=np.zeros(std.n_struct),
                        objective=math.inf, bound=math.inf, gap=0.0, iterations=0,
                        message="simplex finished in phase 1")
    simplex = BoundedSimplex(
        std, lo, hi, start=start,
        feasibility_tol=cfg.feasibility_tol,
        optimality_tol=cfg.optimality_tol,
        max_iterations=cfg.max_iterations,
    )
    return simplex.solve()


def solve_lp(prog, config: SolverConfig | None = None) -> Solution:
    """Solve the program as a pure LP; integrality flags are ignored."""
    return solve_standard_lp(standardize(prog), config or SolverConfig())
