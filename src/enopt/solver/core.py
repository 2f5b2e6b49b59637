"""Solver-facing value types."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["Status", "SolverConfig", "BasisState", "Solution", "SolverError",
           "FEASIBILITY_TOL", "OPTIMALITY_TOL", "INTEGRALITY_TOL"]

# absolute on basic variables' bound violations; the certificate and the
# verifier judge their scaled residuals at it too
FEASIBILITY_TOL = 1e-6
# on reduced costs of the objective normalised by its largest coefficient
OPTIMALITY_TOL = 1e-7
# on the distance of an integer variable from the nearest integer
INTEGRALITY_TOL = 1e-5


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
    """The settings that change a run: ``mip_gap`` is the relative bound
    gap at which branch and bound stops and must be positive;
    ``max_iterations`` (simplex pivots per LP) and ``max_nodes`` must not be
    negative.  The tolerances are fixed: ``FEASIBILITY_TOL``,
    ``OPTIMALITY_TOL`` and ``INTEGRALITY_TOL`` above.
    """

    mip_gap: float = 1e-6
    max_iterations: int = 200_000
    max_nodes: int = 100_000

    def __post_init__(self):
        if not self.mip_gap > 0:  # NaN too
            raise ValueError("mip_gap must be positive")
        for name in ("max_iterations", "max_nodes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")


@dataclass(frozen=True)
class BasisState:
    """An optimal basis, a start for any standard form with the same ``A``,
    or with rows appended once the start is extended by their slacks as
    basic (see ``lp.solve_standard_lp``): the basic column of each row and
    the status of every column.

    ``factor`` is the factorisation the solve declared optimality from, or
    None: a :class:`~enopt.solver.simplex.Factor` holding the bump's
    SuperLU object and the CSC arrays it factorised, with the ``A`` and
    the basis it was built for and the slot maps, covered-row arrays and
    uncovered rows derived with it.  A solve from this state on that same
    ``A`` installs all of it without deriving anything; on another ``A`` it
    reuses the LU wherever the bump it gathers has the same arrays, bit for
    bit, and factorises anew otherwise (see :mod:`enopt.solver.simplex`),
    so a start gives the same results with or without it."""

    basis: np.ndarray  # (m,) int64
    status: np.ndarray  # (n,) int8
    factor: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Solution:
    """Result of a solve: variable values aligned with the program's
    variables, the objective, the best relaxation bound and the relative gap
    between the two.

    ``duals`` and ``reduced_costs`` are present for pure LP solves and back
    the optimality certificate; ``ray``/``farkas`` carry unboundedness and
    infeasibility certificates.  ``farkas`` is a vector ``y`` over the rows
    with ``y'b`` above every value of ``y'Ax`` (slack columns included)
    within the variable bounds of the standard form.  A solution is numbers
    only: it carries no variable names, so interpreting ``values`` needs the
    program it came from.  For an LP, ``message`` names the simplex phase
    the solve ended in: 1 is the dual pass that restores feasibility (so an
    infeasible LP ends there), 2 the primal pass, and ``basis`` is the
    optimal basis of an optimal solve, with the factorisation it was
    declared optimal from, a warm start for any standard form with the same
    ``A`` or with rows appended (see :class:`BasisState`; None for every
    other result, MILP results too).
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
    integral: bool = True
    message: str = ""
    basis: BasisState | None = None


def relative_gap(objective: float, bound: float) -> float:
    if math.isinf(objective) or math.isinf(bound):
        return 0.0 if objective == bound else math.inf
    return abs(objective - bound) / max(1.0, abs(objective))
