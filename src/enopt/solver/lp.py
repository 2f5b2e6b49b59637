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

    Without ``start`` the dual simplex starts from the slack basis.  A
    ``start`` (a ``Solution.basis``) fits any standard form with the same
    ``A``: ``b`` and the costs may differ, the bounds too while each nonbasic
    status still names a finite bound (as branch and bound keeps it).  A
    primal pass with the true costs finishes either solve (see
    :mod:`enopt.solver.simplex`).  Crossed bounds are infeasible without a
    pivot.
    """
    lo = std.lower if lower is None else lower
    hi = std.upper if upper is None else upper
    if np.any(lo > hi):
        return Solution(status=Status.INFEASIBLE, values=np.zeros(std.n_struct),
                        objective=math.inf, bound=math.inf, gap=0.0, iterations=0,
                        message="simplex finished in phase 1")
    return BoundedSimplex(std, lo, hi, start=start, max_iterations=cfg.max_iterations).solve()


def solve_lp(prog, config: SolverConfig | None = None) -> Solution:
    """Solve the program as a pure LP; integrality flags are ignored."""
    return solve_standard_lp(standardize(prog), config or SolverConfig())
