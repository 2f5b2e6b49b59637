"""Solver-facing value types."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["Status", "SolverConfig", "Solution", "SolverError"]


class SolverError(Exception):
    pass


class Status(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    GAP_LIMIT = "gap_limit"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and effort limits.

    ``feasibility_tol`` is absolute on row residuals, ``optimality_tol`` on
    (objective-normalised) reduced costs, ``integrality_tol`` on the distance
    of integer variables from the nearest integer and ``mip_gap`` is the
    relative bound gap at which branch and bound stops.  ``seed`` is kept for
    interface stability; the built-in algorithms are fully deterministic and
    do not consume randomness.
    """

    feasibility_tol: float = 1e-6
    optimality_tol: float = 1e-7
    integrality_tol: float = 1e-5
    mip_gap: float = 1e-6
    max_iterations: int = 200_000
    max_nodes: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("feasibility_tol", "optimality_tol", "integrality_tol", "mip_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Solution:
    """Result of a solve: variable values aligned with the program's
    variables, the objective, the best relaxation bound and the relative gap
    between the two.

    ``duals`` and ``reduced_costs`` are present for pure LP solves and back
    the optimality certificate; ``ray``/``farkas`` carry unboundedness and
    infeasibility certificates.  ``farkas`` is a vector ``y`` over the rows
    with ``y'b`` above every value of ``y'Ax`` (slack columns included)
    within the variable bounds of the standard form.  ``var_refs`` mirrors
    the program's variable name map so downstream analysis can interpret
    ``values`` without the program at hand.  For an LP, ``message`` names
    the simplex phase the solve ended in: 1 is the dual pass that restores
    feasibility (so an infeasible LP ends there), 2 the primal pass.
    """

    status: Status
    values: np.ndarray
    objective: float
    bound: float
    gap: float
    iterations: int
    nodes: int = 0
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    ray: np.ndarray | None = None
    farkas: np.ndarray | None = None
    var_refs: tuple = ()
    integral: bool = True
    message: str = ""


def relative_gap(objective: float, bound: float) -> float:
    if math.isinf(objective) or math.isinf(bound):
        return 0.0 if objective == bound else math.inf
    return abs(objective - bound) / max(1.0, abs(objective))
